"""Command-line front end.

Verbs: solve, verify, check-perfect, cliques, generate, corpus.
Exit codes: 0 success / in-core / perfect, 1 input error, 2 size-guard
violation, 3 property failure (violated imputation, imperfect graph,
failed corpus property), 141 when the reader of stdout goes away early
(as for a process killed by SIGPIPE, but without a traceback).  All JSON
output is canonical (sorted keys, no timestamps), so identical
configuration and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from pathlib import Path

from . import corpus as corpus_mod
from . import oracle
from .cliques import maximal_cliques
from .core import (
    Imputation,
    certified_worth,
    check_exhaustive_size,
    verify_core_certificate,
    verify_core_exhaustive,
)
from .errors import DualGapError, GraphParseError, GuardError, clip
from .generators import from_spec
from .graph import (
    DEFAULT_MAX_N,
    WeightedGraph,
    fraction_str,
    graph_to_json_dict,
    parse_fraction,
    parse_graph,
    serialize_graph,
)
from .lp import (
    build_clique_cover_lp,
    build_stable_set_lp,
    is_integral,
    lp_format,
    solve_game,
)
from .perfection import is_perfect

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_GUARD = 2
EXIT_PROPERTY = 3
EXIT_BROKEN_PIPE = 128 + 13  # what a shell reports for death by SIGPIPE


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for guard violations; bad usage is an input error
    def error(self, message):
        raise _InputError(message)


def _emit_json(payload: dict):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _load_graph(args) -> WeightedGraph:
    if (args.input is None) == (args.generate is None):
        raise _InputError("exactly one of --input and --generate is required")
    if args.input is not None:
        try:
            text = Path(args.input).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise _InputError(f"cannot read {args.input}: {exc}") from exc
        return parse_graph(text, max_n=args.max_n)
    try:
        return from_spec(args.generate, seed=args.seed, max_n=args.max_n)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def cmd_solve(args) -> int:
    g = _load_graph(args)
    # The fallback search's cap holds even when the LP proves the worth:
    # above it the LP's own size is not yet bounded by any guard.  It is
    # checked before the cliques, whose enumeration alone can take seconds.
    oracle.check_stable_set_size(g.n)
    cliques = maximal_cliques(g)
    primal, dual = solve_game(g, cliques)
    worth = certified_worth(g, primal)
    if args.dump_lp:
        for suffix, program, name in (
            (".primal.lp", build_stable_set_lp(g.weights, cliques.cliques), "stable-set"),
            (".dual.lp", build_clique_cover_lp(g.weights, cliques.cliques), "clique-cover"),
        ):
            path = args.dump_lp + suffix
            try:
                Path(path).write_text(lp_format(program, name), encoding="utf-8")
            except OSError as exc:
                raise _InputError(f"cannot write {path}: {exc}") from exc
    dual_matches = dual.value == worth
    if args.json:
        _emit_json(
            {
                "worth": fraction_str(worth),
                "primal": {
                    "value": fraction_str(primal.value),
                    "x": [fraction_str(v) for v in primal.x],
                    "integral": is_integral(primal.x),
                },
                "dual": {
                    "value": fraction_str(dual.value),
                    "y": {
                        cliques.key(cid): fraction_str(v)
                        for cid, v in enumerate(dual.y)
                        if v != 0
                    },
                    "integral": is_integral(dual.y),
                },
                "dualEqualsWorth": dual_matches,
            }
        )
    else:
        print(f"worth: {fraction_str(worth)}")
        print(f"primal optimum: {fraction_str(primal.value)}"
              f" (integral: {'yes' if is_integral(primal.x) else 'no'})")
        print(f"dual optimum: {fraction_str(dual.value)}"
              f" (integral: {'yes' if is_integral(dual.y) else 'no'})")
        for cid, v in enumerate(dual.y):
            if v != 0:
                print(f"  firm {cliques.key(cid)}: {fraction_str(v)}")
    if not dual_matches:
        print(
            f"warning: dual optimum {fraction_str(dual.value)} != worth "
            f"{fraction_str(worth)}; graph is not perfect",
            file=sys.stderr,
        )
    return EXIT_OK


def _json_int(text: str) -> int:
    """Parse a JSON integer.  One over Python's digit limit is refused in
    words a command-line user can act on; ``int``'s own message names
    ``sys.set_int_max_str_digits()``."""
    limit = sys.get_int_max_str_digits()
    if limit and len(text.lstrip("-")) > limit:
        raise ValueError(f"a number has more than {limit} digits")
    return int(text)


def cmd_verify(args) -> int:
    g = _load_graph(args)
    # The checker's guards, before the cliques are enumerated, in the
    # order ExhaustiveChecker.__init__ meets them (size, then game_worth).
    if args.exhaustive:
        check_exhaustive_size(g.n)
    oracle.check_stable_set_size(g.n)
    cliques = maximal_cliques(g)
    try:
        raw = json.loads(Path(args.imputation).read_text(encoding="utf-8"), parse_int=_json_int)
    except (OSError, RecursionError, ValueError) as exc:
        # ValueError covers bad JSON, bad UTF-8 and integers too long to
        # convert; RecursionError, arrays or objects nested too deeply.
        raise _InputError(f"cannot read imputation file: {exc}") from exc
    if not isinstance(raw, dict):
        raise _InputError("imputation file must be a JSON object")
    mapping = {}
    for key, value in raw.items():
        try:
            mapping[key] = parse_fraction(str(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise _InputError(f"bad amount {clip(repr(value))} for clique {clip(repr(key))}") from exc
    try:
        imputation = Imputation.from_mapping(cliques, mapping)
    except KeyError as exc:
        # str() of a KeyError is the repr of its message; print the message
        raise _InputError(exc.args[0]) from exc
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    if args.exhaustive:
        report = verify_core_exhaustive(g, cliques, imputation)
    else:
        report = verify_core_certificate(g, cliques, imputation)
    if args.json:
        _emit_json(report.to_json_dict())
    else:
        print(f"verdict: {report.verdict}")
        print(f"total: {fraction_str(report.total_money)}  worth: {fraction_str(report.game_worth)}")
        if report.violation is not None:
            v = report.violation
            print(
                f"violated scenario {list(v.scenario)}: "
                f"money {fraction_str(v.money)} < cost {fraction_str(v.cost)}"
            )
        if report.scenarios_checked:
            print(f"scenarios checked: {report.scenarios_checked}")
    return EXIT_OK if report.in_core else EXIT_PROPERTY


def cmd_check_perfect(args) -> int:
    g = _load_graph(args)
    verdict = is_perfect(g)
    if args.json:
        _emit_json(verdict.to_json_dict())
    else:
        if verdict.is_perfect:
            print("perfect")
        else:
            where = "complement" if verdict.hole_in_complement else "graph"
            print(f"not perfect: odd hole {list(verdict.hole)} in {where}")
    return EXIT_OK if verdict.is_perfect else EXIT_PROPERTY


def cmd_cliques(args) -> int:
    g = _load_graph(args)
    cliques = maximal_cliques(g)
    if args.json:
        _emit_json({"cliques": cliques.to_json_list()})
    else:
        for q in cliques.cliques:
            print(" ".join(str(v) for v in q))
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.generate is None:
        raise _InputError("generate requires --generate SPEC")
    g = _load_graph(args)
    if args.json:
        _emit_json(graph_to_json_dict(g))
    else:
        sys.stdout.write(serialize_graph(g))
    return EXIT_OK


def cmd_corpus(args) -> int:
    if args.seed is None:
        raise _InputError("corpus requires --seed")
    if args.count < 0:
        raise _InputError(f"--count must be >= 0, got {clip(str(args.count))}")
    if args.n > oracle.MAX_CHAIN_N:
        # Every instance runs the four-program chain, which has this guard;
        # refuse before drawing the corpus rather than on its first instance.
        raise GuardError(f"corpus instances capped at --n <= {oracle.MAX_CHAIN_N}")
    instances = corpus_mod.build_corpus(
        count=args.count,
        seed=args.seed,
        n_min=4,
        n_max=max(4, args.n),
        include_imperfect=args.include_imperfect,
    )
    rng = random.Random(args.seed ^ 0x5EED)
    reports = [corpus_mod.run_instance_suite(inst, rng) for inst in instances]
    summary = corpus_mod.summarize(reports)
    if args.json:
        _emit_json(summary)
    else:
        print(f"instances: {summary['instances']}")
        for prop, *_ in corpus_mod.PROPERTIES:
            counts = summary[prop]
            print(f"{prop}: {counts['pass']} pass, {counts['fail']} fail")
        if args.include_imperfect:
            print(
                "imperfect instances with open integrality gap (expected): "
                f"{summary['imperfectChainGapObserved']}"
            )
        print("result: " + ("ok" if summary["allOk"] else "FAILED"))
    return EXIT_OK if summary["allOk"] else EXIT_PROPERTY


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it (about 2 ms) would otherwise be a fixed
    cost of every in-process ``main`` call.  ``verbs`` maps each verb to
    its subparser."""
    parser = _Parser(
        prog="cliquecore",
        description="Exact core imputations for the investment game on perfect graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_graph=True):
        if needs_graph:
            p.add_argument("--input", metavar="PATH", help="graph file to load")
            p.add_argument("--generate", metavar="SPEC", help="generator spec, e.g. paley3x3, cycle:5")
        p.add_argument("--seed", type=int, help="seed for random generators")
        p.add_argument("--json", action="store_true", help="emit canonical JSON")
        p.add_argument(
            "--max-n", type=int, dest="max_n",
            help=f"refuse graphs larger than this (default {DEFAULT_MAX_N})",
        )

    p = sub.add_parser("solve", help="worth, primal optimum and dual imputation")
    add_common(p)
    p.add_argument("--dump-lp", metavar="PREFIX", help="write both LPs in LP format")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check an imputation file for core membership")
    add_common(p)
    p.add_argument("imputation", metavar="IMPUTATION_JSON", help="JSON {clique-key: amount}")
    p.add_argument("--exhaustive", action="store_true", help="check all 2^n scenarios")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check-perfect", help="perfection verdict with witness")
    add_common(p)
    p.set_defaults(func=cmd_check_perfect)

    p = sub.add_parser("cliques", help="list the maximal cliques (the firms)")
    add_common(p)
    p.set_defaults(func=cmd_cliques)

    p = sub.add_parser("generate", help="emit a generated graph file")
    add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("corpus", help="run the property suites on a random corpus")
    add_common(p, needs_graph=False)
    p.add_argument("--count", type=int, default=20, help="number of perfect instances")
    p.add_argument("--n", type=int, default=10, help="largest vertex count")
    p.add_argument(
        "--include-imperfect",
        action="store_true",
        help="append odd cycles; their integrality gaps are reported, not errors",
    )
    p.set_defaults(func=cmd_corpus)
    parser.verbs = sub.choices
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        # A known verb goes straight to the subparser the top-level parser
        # would run; anything else (no verb, --help, ...) goes through it.
        verb = parser.verbs.get(argv[0]) if argv else None
        args = verb.parse_args(argv[1:]) if verb else parser.parse_args(argv)
        return args.func(args)
    except (GraphParseError, _InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except DualGapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY


def console_main():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``cliquecore cliques ... | head -1``).  Point
        # stdout at devnull so the flush at interpreter exit cannot raise
        # again, and exit like a process killed by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    console_main()
