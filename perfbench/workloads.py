"""Workload instances and the checks made on their output.

Nothing here imports coxclusters.  Expected counts come from each type's
Weyl-group degrees, and expected bytes from sha256 digests of the output
recorded at the seed commit (``expected.json``, written by ``record.py``).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from collections import Counter
from pathlib import Path

EXPECTED_PATH = Path(__file__).parent / "expected.json"


@functools.cache
def expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())

# Degrees d_1..d_n of the Weyl group; the Coxeter number h is the largest.
DEGREES = {
    "F4": (2, 6, 8, 12),
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
}

TYPEA_N = 11

# Instances per workload with a Coxeter element: the bipartite element c, and
# for explore-E6 also c inverse, chosen by the seed.  formulas-E7 costs about
# 12 % more at c than at c inverse, a gap that would dominate the spread
# between seeds, so it keeps c.  verify-F4 already runs every orientation and
# typea-A11 has no Coxeter element, so neither has a free choice; both
# ignore the seed.
INSTANCES = {"explore-E6": 2, "formulas-E7": 1}


def oracle(label: str) -> dict:
    """W-Catalan cluster count, variable count and exchange-graph edge count."""
    d = DEGREES[label]
    n, h = len(d), max(d)
    clusters = math.prod(h + x for x in d) // math.prod(d)
    return {"clusters": clusters, "variables": n * (h + 2) // 2, "edges": n * clusters // 2}


def instance(name: str, seed: int) -> str | None:
    """Seed index 0 is the bipartite element c, passed as ``--coxeter bipartite``;
    index 1 is c inverse, passed as a 1-based word.  Exploration cost depends
    on the orientation by up to 2.5x on E6, so other orientations are left
    out; c and c inverse cost the same there."""
    if name not in INSTANCES:
        return None
    index = seed % INSTANCES[name]
    return "bipartite" if index == 0 else expected()[name]["words"][index]


def _digest(name: str, inst: str | None) -> str:
    entry = expected()[name]
    if inst is None:
        return entry["sha256"]
    return entry["sha256"][entry["words"][0] if inst == "bipartite" else inst]


def check(name: str, inst: str | None, result: dict) -> list[tuple[str, bool]]:
    """Every check made on one repetition's output, as (name, passed)."""
    out = [
        ("exit-code", result["exit"] == 0),
        ("stdout-sha256", hashlib.sha256(result["stdout"].encode()).hexdigest()
         == _digest(name, inst)),
    ]
    try:
        doc = json.loads(result["stdout"])
    except ValueError:
        return out + [("stdout-json", False)]
    out += CHECKS[name](doc, result.get("after", {}))
    return out


def _explore(doc, after):
    want = oracle("E6")
    labels = {(r["label"]["i"], r["label"]["m"]) for r in doc["records"]}
    return [
        ("seeds=clusters-oracle", doc["seeds"] == want["clusters"]),
        ("edges-oracle", doc["edges"] == want["edges"]),
        ("variables-oracle", doc["variables"] == want["variables"]),
        ("records-one-per-label", len(labels) == len(doc["records"]) == want["variables"]),
    ]


def _verify(doc, after):
    want = oracle("F4")
    orientations = after.get("orientations", [])
    out = [
        ("failures-empty", doc["failures"] == []),
        ("result-count", doc["checks"] == len(doc["results"])),
        ("orientation-count", len(orientations) == 2 ** 3),
    ]
    out += [(f"result:{r['suite']}:{r['instance']}", r["passed"]) for r in doc["results"]]
    for k, o in enumerate(orientations):
        out.append((f"clusters-oracle:{k}", o["clusters"] == want["clusters"]))
        out.append((f"variables-oracle:{k}", o["variables"] == want["variables"]))
    return out


def _typea(doc, after):
    quads = doc["exchange_relations"]
    crossings = math.comb(TYPEA_N + 3, 4)
    return [
        ("all-relations-ok", doc["all_relations_ok"] is True),
        ("relations-oracle", doc["relations_checked"] == crossings),
        ("quadrilaterals-distinct", len({tuple(q["intervals"]) for q in quads}) == crossings),
    ] + [(f"relation:{q['intervals']}", q["ok"] is True) for q in quads]


def _formulas(doc, after):
    want = oracle("E7")
    cl = doc["clusters"]
    ridges = Counter(frozenset(sub) for c in cl for sub in itertools.combinations(c, len(c) - 1))
    out = [
        ("clusters-oracle", len(cl) == want["clusters"]),
        ("cluster-size", all(len(set(c)) == len(DEGREES["E7"]) for c in cl)),
        ("variables-oracle", len({lab for c in cl for lab in c}) == want["variables"]),
        ("edges-oracle", len(ridges) == want["edges"]),
        ("every-ridge-in-two-clusters", set(ridges.values()) == {2}),
        ("primitive-relations-one-per-label",
         len(doc["primitive_relations"]) == want["variables"]),
    ]
    return out + [(f"result:{r['suite']}:{r['instance']}", r["passed"]) for r in doc["results"]]


CHECKS = {
    "explore-E6": _explore,
    "verify-F4": _verify,
    "typea-A11": _typea,
    "formulas-E7": _formulas,
}
