"""Record what the benchmark compares against.

    python3 perfbench/record.py

Writes ``expected.json`` (the sha256 of every workload instance's output;
the instances of a workload with a Coxeter element are keyed by their
1-based words: the bipartite element c, then c inverse if the seed may
choose it) and
``micro_inputs.json`` (E6's two largest cluster variables and the E7
all-pairs compatibility sum).  Run it only at a commit whose output is
trusted, since later runs are checked against what it writes.  Every
instance runs in a fresh child, as in ``run.py``, and must pass the
workload's other checks before its digest is kept.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

from run import HERE, ROOT, spawn
import workloads

sys.path.insert(0, str(ROOT / "src"))

from coxclusters.algebra import explore, principal_seed  # noqa: E402
from coxclusters.cartan import cartan_from_text  # noqa: E402
from coxclusters.coxeter import (  # noqa: E402
    bipartite_element,
    compatibility_degree,
    coxeter_element,
    pi_set,
)


def _word(c) -> str:
    return ",".join(str(i + 1) for i in c.order)


def _digest(name: str, inst: str | None) -> str:
    spec = {"kind": "workload", "name": name, "instance": inst, "trace": False}
    result = spawn(spec, time.monotonic() + 600)
    doc = json.loads(result["stdout"])
    bad = [k for k, ok in workloads.CHECKS[name](doc, result["after"]) if not ok]
    if result["exit"] != 0 or bad:
        raise SystemExit(f"{name} {inst}: exit {result['exit']}, failed {bad[:5]}")
    print(f"{name} {inst}: wall {result['wall_s']:.3f} s, cpu {result['cpu_s']:.3f} s",
          file=sys.stderr)
    return hashlib.sha256(result["stdout"].encode()).hexdigest()


def record_expected() -> dict:
    out = {}
    for name, label in (("explore-E6", "E6"), ("formulas-E7", "E7")):
        m = cartan_from_text(label)
        c = bipartite_element(m)
        words = [_word(c), _word(coxeter_element(m, reversed(c.order)))]
        words = words[: workloads.INSTANCES[name]]
        out[name] = {"words": words, "sha256": {w: _digest(name, w) for w in words}}
    for name in ("verify-F4", "typea-A11"):
        out[name] = {"sha256": _digest(name, None)}
    return out


def record_micro() -> dict:
    m6 = cartan_from_text("E6")
    graph = explore(principal_seed(m6, bipartite_element(m6)))
    top = sorted(graph.variables, key=lambda p: (-len(p.terms), p.key()))[:2]
    m7 = cartan_from_text("E7")
    c7 = bipartite_element(m7)
    labels = [lab for lab, _ in pi_set(m7, c7)]
    return {
        "ring": list(graph.ring.names),
        "sizes": [len(p.terms) for p in top],
        "e6_top2": [[[list(e), coef] for e, coef in p.key()] for p in top],
        "e7_compat_sum": sum(compatibility_degree(m7, c7, a, b) for a in labels for b in labels),
    }


if __name__ == "__main__":
    (HERE / "micro_inputs.json").write_text(json.dumps(record_micro()) + "\n")
    (HERE / "expected.json").write_text(json.dumps(record_expected(), indent=1) + "\n")
