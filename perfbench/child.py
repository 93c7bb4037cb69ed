"""One repetition of a benchmark workload, in a fresh interpreter.

Usage: python3 perfbench/child.py '<json spec>'

The spec holds ``kind`` (``setup``, which only imports and then times the
reference kernel; ``workload``; ``micro``; or ``selftest``) and, for a
workload, its ``name``, its ``instance`` (a Coxeter word, ``bipartite``, or
null) and ``trace``.  The child prints one JSON line: the monotonic clock
reading once ``coxclusters.cli`` is imported (the parent subtracts its spawn
time to get set-up time), then what the kind measured.  The workload's own
output is captured and returned whole, for the parent to check.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import coxclusters.cli  # noqa: E402 - set-up ends here

READY = time.monotonic()

from spans import Tracer  # noqa: E402


def _coxeter(m, instance: str):
    from coxclusters.coxeter import bipartite_element, coxeter_element

    if instance == "bipartite":
        return bipartite_element(m)
    return coxeter_element(m, [int(tok) - 1 for tok in instance.split(",")])


def _label(lab) -> str:
    return f"{lab.i + 1}.{lab.m}"


def formulas(instance: str) -> int:
    """The polynomial-free half of ``verify`` on E7, plus clusters and primitive relations."""
    from coxclusters import checks
    from coxclusters.cartan import cartan_from_text
    from coxclusters.coxeter import clusters, primitive_relations

    m = cartan_from_text("E7")
    c = _coxeter(m, instance)
    results = checks.bipartite_h_values(m)
    results += checks.move_graph_connected(m)
    results += checks.move_update_rule(m)
    results += checks.bipartite_compat_oracle(m)
    results += checks.cartan_invariants(m)
    results += checks.chain_and_h_checks(m, c)
    results += checks.beta_telescoping(m, c)
    results += checks.compat_symmetry_at_zero(m, c)
    results += checks.compat_reduction_agreement(m, c)
    results += checks.compat_duality(m, c)
    results += checks.orbit_representatives(m, c)
    results += checks.compat_linear_identity(m, c)
    document = {
        "type": "E7",
        "coxeter": [i + 1 for i in c.order],
        "results": [
            {"suite": r.suite, "instance": r.instance, "passed": r.passed}
            for r in sorted(results, key=lambda r: (r.suite, r.instance))
        ],
        "clusters": sorted(sorted(_label(lab) for lab in cl) for cl in clusters(m, c)),
        "primitive_relations": sorted(
            [[_label(lab) for lab in pr.left], list(pr.constant_coef)]
            for pr in primitive_relations(m, c)
        ),
    }
    sys.stdout.write(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return 0 if all(r.passed for r in results) else 1


def run_workload(name: str, instance: str | None) -> int:
    if name == "explore-E6":
        return coxclusters.cli.main(["explore", "--type", "E6", "--coxeter", instance])
    if name == "verify-F4":
        return coxclusters.cli.main(["verify", "--type", "F4", "--coxeter", "all"])
    if name == "typea-A11":
        return coxclusters.cli.main(["typea", "--n", "11"])
    if name == "formulas-E7":
        return formulas(instance)
    raise ValueError(f"unknown workload {name!r}")


def after_run(name: str) -> dict:
    """Engine figures the output does not show, read after the timed part."""
    if name != "verify-F4":
        return {}
    from coxclusters.cartan import cartan_from_text
    from coxclusters.coxeter import all_coxeter_elements, clusters, pi_set

    m = cartan_from_text("F4")
    return {
        "orientations": [
            {"clusters": len(clusters(m, c)), "variables": len(pi_set(m, c))}
            for c in all_coxeter_elements(m)
        ]
    }


def workload(spec: dict) -> dict:
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    captured = io.StringIO()
    real_stdout = sys.stdout
    sys.stdout = captured
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        code = run_workload(spec["name"], spec["instance"])
    finally:
        wall1, cpu1 = time.perf_counter(), time.process_time()
        sys.stdout = real_stdout
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "wall_s": wall1 - wall0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_kib / 1024,
        "exit": code,
        "stdout": captured.getvalue(),
    }
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.summary()
        spans_dir = ROOT / ".bench_build" / "perfbench"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"spans-{spec['name']}.tsv")
    out["after"] = after_run(spec["name"])
    return out


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def micro(spec: dict) -> dict:
    """Layer microbenchmarks on fixed inputs produced by the engine."""
    from coxclusters.algebra import mutate, principal_seed
    from coxclusters.cartan import cartan_from_text
    from coxclusters.coxeter import bipartite_element, compatibility_degree, pi_set
    from coxclusters.poly import PolyRing

    data = json.loads((Path(__file__).parent / "micro_inputs.json").read_text())
    ring = PolyRing(tuple(data["ring"]))
    big, small = (
        sum((ring.monomial(e, c) for e, c in terms), ring.zero()) for terms in data["e6_top2"]
    )
    product = big * small
    quotient = product.exact_div(small)
    seed = principal_seed(cartan_from_text("E6"), bipartite_element(cartan_from_text("E6")))
    m7 = cartan_from_text("E7")
    c7 = bipartite_element(m7)
    labels = [lab for lab, _ in pi_set(m7, c7)]

    def all_pairs():
        return sum(compatibility_degree(m7, c7, a, b) for a in labels for b in labels)

    def mutate_all():
        for k in range(seed.n):
            mutate(seed, k)

    return {
        "layers": {
            "poly.mul_e6_top2_ms": 1e3 * _median_time(lambda: big * small, 15),
            "poly.exact_div_e6_top2_ms": 1e3 * _median_time(lambda: product.exact_div(small), 7),
            "algebra.mutate_e6_us": 1e6 * _median_time(mutate_all, 301) / seed.n,
            "coxeter.compat_e7_all_pairs_ms": 1e3 * _median_time(all_pairs, 5),
        },
        "checks": {
            "micro/e6-top2-sizes": [len(big.terms), len(small.terms)] == data["sizes"],
            "micro/exact-div-round-trip": quotient == big,
            "micro/e7-label-count": len(labels) == 70,
            "micro/e7-compat-pair-sum": all_pairs() == data["e7_compat_sum"],
        },
    }


def selftest(spec: dict) -> dict:
    """Traced principal explorations of A3 and B3, one tracer each."""
    from coxclusters import algebra
    from coxclusters.cartan import cartan_from_text
    from coxclusters.coxeter import bipartite_element

    out = {}
    for label in ("A3", "B3"):
        m = cartan_from_text(label)
        tracer = Tracer()
        tracer.install()
        try:
            algebra.explore(algebra.principal_seed(m, bipartite_element(m)))
        finally:
            tracer.uninstall()
        out[label] = {
            k: v for k, v in tracer.summary().items() if not k.endswith((".s", "_s"))
        }
    return {"counts": out}


@dataclass(frozen=True, order=True)
class _Label:
    i: int
    m: int


def _rotate(label: _Label, h: int) -> _Label:
    return _Label(label.i, label.m - 1) if label.m else _Label(6 - label.i, h)


def reference() -> dict:
    """Time a fixed pure-Python kernel shaped like the engine's inner loops: a
    sparse product of tuple-keyed dicts, and rotations of small frozen
    dataclasses.  It imports nothing from the program, so its time follows
    only the speed of the machine."""
    a = {(i % 7, i % 5, i % 3, i // 7, -i % 4, i % 2): i + 1 for i in range(240)}
    b = {(i % 3, -i % 5, i % 2, i // 9, i % 4, 1): 2 * i - 7 for i in range(120)}
    labels = [_Label(i, m) for i in range(7) for m in range(10)]
    start, cpu_start = time.perf_counter(), time.process_time()
    for _ in range(3):
        out: dict = {}
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(map(int.__add__, ea, eb))
                out[key] = get(key, 0) + ca * cb
        orbit = set()
        for lab in labels:
            for _ in range(150):
                lab = _rotate(lab, 9)
                orbit.add(lab)
    return {
        "ref_s": time.perf_counter() - start,
        "ref_cpu_s": time.process_time() - cpu_start,
        "ref_size": len(out) + len(orbit),
    }


KINDS = {"setup": lambda spec: reference(), "workload": workload, "micro": micro,
         "selftest": selftest}


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = KINDS[spec["kind"]](spec)
    result["ready"] = READY
    sys.stdout.write(json.dumps(result) + "\n")
