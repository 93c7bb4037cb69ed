"""Benchmark of the coxclusters command line and its layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition runs one workload in a fresh interpreter (``child.py``),
one at a time from this process: a closed loop with one client and no
threads.  A fresh process pays the cold ``lru_cache`` tables that every CLI
invocation pays, which in-process repeats would hide.

``--trace 0`` repeats the untraced workload for about ``--seconds`` seconds
(at least four times) and reports medians of the end-to-end metrics.  The
machine's speed drifts by tens of percent over minutes, so every time is
rescaled by a fixed reference kernel timed beside it: to the seconds it would
take where the kernel takes ``REF_S``.  The raw seconds are in the record.
``--trace 1`` makes one untraced and one traced repetition, the layer
microbenchmarks and the harness self-test, and reports the per-layer
metrics.  Metric names and units are read from ``BENCHMARK.json``.

The next-to-last stdout line records the environment and every sample; the
last line is the result.  Exit code 2 means the program or the arguments
are missing, 1 that a child process failed to produce a measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
MIN_REPS = 4
SETUP_SPAWNS_PER_REP = 3
# Reported times are rescaled to a machine on which the reference kernel takes
# this long (about its median on the 2-core VM the benchmark was defined on).
REF_S = 0.2
RUN_LIMIT_S = 170


class HarnessError(RuntimeError):
    """A child process ended without a measurement."""


def spawn(spec: dict, deadline: float, importtime: bool = False) -> dict:
    """Run one child to completion; set-up time is measured from just before the spawn."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(CHILD), json.dumps(spec)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{spec['kind']} child did not finish in time") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(
            f"{spec['kind']} child exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("ready") - start
    result["stderr"] = proc.stderr
    return result


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def _setups(deadline: float, samples: dict) -> tuple[float, float]:
    """Children that only import and then time the reference kernel.

    Appends each child's set-up time rescaled by its own kernel time, and
    returns the mean kernel wall and CPU times.
    """
    runs = [spawn({"kind": "setup"}, deadline) for _ in range(SETUP_SPAWNS_PER_REP)]
    for r in runs:
        samples["setup_raw_s"].append(r["setup_s"])
        samples["ref_s"].append(r["ref_s"])
        samples["setup_s"].append(r["setup_s"] * REF_S / r["ref_s"])
    return (
        statistics.fmean(r["ref_s"] for r in runs),
        statistics.fmean(r["ref_cpu_s"] for r in runs),
    )


def timed(name: str, inst: str | None, seconds: float, deadline: float, record: dict) -> dict:
    """Untraced repetitions, each bracketed by children that time the reference kernel.

    A repetition's wall and CPU times are rescaled by the mean kernel time of
    the children just before and just after it; every metric is the median
    over the run.
    """
    keys = ("wall_raw_s", "wall_s", "cpu_s", "peak_rss_mb", "setup_raw_s", "setup_s", "ref_s")
    samples: dict[str, list] = {k: [] for k in keys}
    ops = []
    attempted = failed = 0
    start = time.monotonic()
    before = _setups(deadline, samples)
    while True:
        r = spawn({"kind": "workload", "name": name, "instance": inst, "trace": False}, deadline)
        after = _setups(deadline, samples)
        samples["wall_raw_s"].append(r["wall_s"])
        samples["wall_s"].append(r["wall_s"] * REF_S / ((before[0] + after[0]) / 2))
        samples["cpu_s"].append(r["cpu_s"] * REF_S / ((before[1] + after[1]) / 2))
        samples["peak_rss_mb"].append(r["peak_rss_mb"])
        before = after
        checks = workloads.check(name, inst, r)
        bad = [label for label, ok in checks if not ok]
        record["failed_checks"].extend(bad)
        ops.append(len(checks))
        attempted += len(checks)
        failed += len(bad)
        now = time.monotonic()
        per_rep = (now - start) / len(ops)
        if len(ops) >= MIN_REPS and now + per_rep > start + seconds:
            break
    record["samples"] = samples
    values = {key: statistics.median(v) for key, v in samples.items()}
    values["ops_total"] = statistics.median_low(ops)
    record["medians"] = values
    return {"attempted": attempted, "failed": failed, "values": values}


def _import_ms(stderr: str) -> dict:
    """Cumulative import times of top-level packages from ``-X importtime``."""
    out = {}
    for line in stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            out.setdefault(parts[2].strip(), int(parts[1]) / 1e3)
    return out


def traced(name: str, inst: str | None, deadline: float, record: dict) -> dict:
    """One untraced and one traced repetition, microbenchmarks and the self-test."""
    checks: list[tuple[str, bool]] = []
    counts = [spawn({"kind": "selftest"}, deadline)["counts"] for _ in range(2)]
    checks.append(("selftest/identical-counts", counts[0] == counts[1]))
    for label, c in counts[0].items():
        checks.append((f"selftest/{label}-divisions-equal-edges",
                       c.get("poly.exact_div.calls") == c.get("algebra.explore.edges") > 0))

    spec = {"kind": "workload", "name": name, "instance": inst}
    plain = spawn(dict(spec, trace=False), deadline)
    traced_run = spawn(dict(spec, trace=True), deadline, importtime=True)
    micro = spawn({"kind": "micro"}, deadline)
    for r in (plain, traced_run):
        checks += workloads.check(name, inst, r)
    checks += list(micro["checks"].items())

    layers = dict(traced_run["layers"])
    layers.update(micro["layers"])
    variables = layers.get("algebra.explore.variables", 0)
    if variables:
        layers["algebra.explore.divisions_per_variable"] = (
            layers["algebra.explore.divisions"] / variables
        )
    layers["cli.output_bytes"] = len(traced_run["stdout"].encode())
    imports = _import_ms(traced_run["stderr"])
    layers["setup.networkx_import_ms"] = imports.get("networkx", 0.0)
    layers["setup.coxclusters_import_ms"] = imports.get("coxclusters", 0.0)
    layers["trace.wall_s"] = traced_run["wall_s"]
    layers["trace.untraced_wall_s"] = plain["wall_s"]
    layers["trace.overhead_s"] = traced_run["wall_s"] - plain["wall_s"]
    checks.append(("selftest/metric-names",
                   all(spans.NAME_RE.match(k) for k in layers)))
    record["layers_all"] = layers
    bad = [label for label, ok in checks if not ok]
    record["failed_checks"].extend(bad)
    return {"attempted": len(checks), "failed": len(bad), "values": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CHECKS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "coxclusters" / "cli.py").is_file():
        print(f"perfbench: no coxclusters source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_units = {
        m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]
    }

    inst = workloads.instance(args.workload, args.seed)
    deadline = time.monotonic() + RUN_LIMIT_S
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "instance": inst,
        "trace": args.trace,
        "python": sys.version,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "loadavg_before": os.getloadavg(),
        "failed_checks": [],
    }
    try:
        if args.trace:
            outcome = traced(args.workload, inst, deadline, record)
        else:
            outcome = timed(args.workload, inst, args.seconds, deadline, record)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record["loadavg_after"] = os.getloadavg()
    values = outcome["values"]
    print(json.dumps({"environment": record}))
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in metric_units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
