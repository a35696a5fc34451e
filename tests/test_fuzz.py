"""Fuzz tests for the two input formats read by the CLI.

Arbitrary graph files go through ``solve`` and ``check-perfect``, and
arbitrary imputation files through ``verify`` (certificate and
exhaustive) on a tiny graph.
Every input must end in a result or in exit code 1 (input error) or 2
(guard) with a one-line message on stderr, never in a traceback.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cliquecore import maximal_cliques, paley3x3
from cliquecore.cli import main
from cliquecore.core import VERDICT_IN_CORE, VERDICT_NOT_IMPUTATION, VERDICT_VIOLATED
from conftest import WIDE_GRAPH, WIDE_WEIGHTS

FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, out, err, results):
    assert code in results + (1, 2), (code, err)
    if code in (1, 2):
        assert out == ""
        assert err.startswith("error: " if code == 1 else "guard: ")
        assert err.endswith("\n") and "Traceback" not in err


# Graph files: a valid file (n <= 8, fractional weights, labels) with up to
# three lines replaced or inserted, each built from the format's own
# directives and tokens or from arbitrary text.  Every drawn vertex count
# stays under the default ceiling, so a header never asks for more than it
# may.
tokens = st.one_of(
    st.integers(min_value=-2, max_value=12).map(str),
    st.sampled_from(["1/2", "7/4", "5/6", "3/0", "-1/3", "10/-3", "0x1", "1e2", "½", "x"]),
    st.text(max_size=4),
)
junk_lines = st.one_of(
    st.builds(
        lambda kind, args: " ".join([kind, *args]),
        st.sampled_from(["p", "e", "w", "l", "#", "q", "P"]),
        st.lists(tokens, max_size=4),
    ),
    st.text(max_size=12),
)


@st.composite
def graph_texts(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    vertex = st.integers(min_value=0, max_value=max(n - 1, 0))
    weights = draw(st.dictionaries(vertex, st.fractions(0, 20, max_denominator=8))) if n else {}
    labels = draw(st.dictionaries(vertex, st.text(min_size=1, max_size=4))) if n else {}
    lines = [f"p {n} {len(edges)}"] + [f"e {u} {v}" for u, v in edges]
    lines += [f"w {v} {w}" for v, w in weights.items()]
    lines += [f"l {v} {name}" for v, name in labels.items()]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(lines)))
        junk = draw(junk_lines)
        if i < len(lines) and draw(st.booleans()):
            lines[i] = junk
        else:
            lines.insert(i, junk)
    return "\n".join(lines)


@pytest.mark.parametrize("verb", ["solve", "check-perfect"])
@given(content=st.one_of(graph_texts().map(str.encode), st.binary(max_size=40)))
@example(content=b"p 2 0\n\xff\xfe")
@example(content=b"p 1 0\nw 0 " + b"1" * 5000)
@example(content=b"p 3 2\ne 0 1\ne 1 2\nw 1 7/4\nl 0 \xe2\x82\xac\n")
@example(content=WIDE_GRAPH.encode())
@FUZZ
def test_graph_file_never_crashes(tmp_path_factory, verb, content):
    path = tmp_path_factory.mktemp("fuzz") / "g.graph"
    path.write_bytes(content)
    code, out, err = run_main([verb, "--input", str(path), "--json"])
    if content == WIDE_GRAPH.encode():
        # The worth has too many digits to print; check-perfect prints no weight.
        assert code == (2 if verb == "solve" else 0)
    if verb == "solve":
        assert_clean_exit(code, out, err, (0,))
        if code == 0:
            assert json.loads(out)["dual"]["value"] == json.loads(out)["primal"]["value"]
    else:
        assert_clean_exit(code, out, err, (0, 3))
        if code in (0, 3):
            assert json.loads(out)["perfect"] is (code == 0)


# Imputation files: a JSON object giving real clique keys exact amounts
# (some summing to the worth), with up to two entries added or replaced by
# bogus keys and by amounts of every JSON type; plus arbitrary JSON and raw
# bytes.
PALEY_KEYS = [maximal_cliques(paley3x3()).key(c) for c in range(6)]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
junk_amounts = st.one_of(
    st.sampled_from(["-1", "1/0", " 2 ", "1/3/4", "", "0.5", "1_0"]), json_values
)
junk_keys = st.one_of(st.sampled_from(PALEY_KEYS + ["0-1", "2-1-0", ""]), st.text(max_size=5))


@st.composite
def imputations(draw):
    keys = draw(st.lists(st.sampled_from(PALEY_KEYS), unique=True))
    amounts = draw(st.lists(st.fractions(0, 3, max_denominator=6), min_size=len(keys), max_size=len(keys)))
    doc = {key: str(x) for key, x in zip(keys, amounts)}
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        doc[draw(junk_keys)] = draw(junk_amounts)
    return json.dumps(doc)


# The three rows of paley3x3 paid the three wide weights.
WIDE_ROWS = json.dumps(dict(zip(["0-1-2", "3-4-5", "6-7-8"], map(str, WIDE_WEIGHTS)))).encode()
imputation_files = st.one_of(
    imputations().map(str.encode),
    st.sampled_from([dict.fromkeys(["0-1-2", "3-4-5", "6-7-8"], "1"), dict.fromkeys(PALEY_KEYS, "1/2")])
    .map(json.dumps)
    .map(str.encode),
    json_values.map(json.dumps).map(str.encode),
    st.binary(max_size=30),
)


@given(content=imputation_files, exhaustive=st.booleans())
@example(content=b'{"0-1-2": ' + b"1" * 5000 + b"}", exhaustive=False)
@example(content=b"[" * 100_000, exhaustive=False)
@example(content=b'{"0-1-2": "1/2"}\xff', exhaustive=False)
@example(content=WIDE_ROWS, exhaustive=False)
@example(content=WIDE_ROWS, exhaustive=True)
@FUZZ
def test_imputation_file_never_crashes(tmp_path_factory, content, exhaustive):
    path = tmp_path_factory.mktemp("fuzz") / "imputation.json"
    path.write_bytes(content)
    argv = ["verify", "--generate", "paley3x3", str(path), "--json"]
    code, out, err = run_main(argv + ["--exhaustive"] * exhaustive)
    if content == WIDE_ROWS:
        assert code == 2  # the amounts' common denominator is too long to print
    assert_clean_exit(code, out, err, (0, 3))
    if code in (0, 3):
        assert json.loads(out)["verdict"] in (VERDICT_IN_CORE, VERDICT_VIOLATED, VERDICT_NOT_IMPUTATION)
