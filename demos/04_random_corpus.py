#!/usr/bin/env python3
"""Batch verification on a random perfect-graph corpus.

Builds bipartite and chordal instances (perfect by construction) with
random integer costs, then checks on each one that

* the computed optimal dual passes the exhaustive 2^n core check,
* fixed-total vectors with broken coverage fail it,
* the certificate and exhaustive verdicts never disagree,
* the dual optimum is an integer equal to the best integral cover,
* the four-program chain closes.

Appending a few odd cycles shows what imperfection looks like: the chain
gap opens, which the summary reports rather than treats as an error.
"""

import random

from cliquecore.corpus import PROPERTIES, build_corpus, run_instance_suite, summarize

SEED = 7

instances = build_corpus(count=24, seed=SEED, include_imperfect=True)
rng = random.Random(SEED ^ 0x5EED)

reports = [run_instance_suite(inst, rng) for inst in instances]
summary = summarize(reports)

print(f"instances: {summary['instances']}")
for key, *_ in PROPERTIES:
    counts = summary[key]
    print(f"  {key}: {counts['pass']} pass / {counts['fail']} fail")
print(
    "  open chain gaps on the flagged odd cycles (expected):",
    summary["imperfectChainGapObserved"],
)
print("all properties hold:", summary["allOk"])
