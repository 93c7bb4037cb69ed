"""In-memory span recorder that times coxclusters' layers from outside the package.

Every wrapped function is replaced in each module that binds it (a function
imported by name into ``checks`` or ``algebra`` is a separate binding), and
the ``LaurentPoly`` methods are replaced on the class, so no call escapes.
A span is ``[name, start, end, parent index]``; a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import re
import sys
import time
from collections import Counter, defaultdict

# Check suites: the public functions of ``checks`` that return CheckResults.
SUITES = (
    "bipartite_h_values",
    "move_graph_connected",
    "move_update_rule",
    "bipartite_compat_oracle",
    "cartan_invariants",
    "chain_and_h_checks",
    "beta_telescoping",
    "compat_symmetry_at_zero",
    "compat_reduction_agreement",
    "compat_duality",
    "engine_against_formulas",
    "move_isomorphism_checks",
    "compat_linear_identity",
    "orbit_representatives",
    "universal_checks",
)

# Public functions wrapped per module, wherever they are bound.
FUNCTIONS = {
    "algebra": ("explore", "records_for", "extract_record", "universal_seed"),
    "coxeter": (
        "compatibility_degree",
        "clusters",
        "root_compat",
        "move_graph",
        "primitive_relations",
    ),
    "weyl": ("weight_as_root", "apply_word"),
    "typea": ("verify_exchange_relations", "universal_coeff_typea", "interval_minor"),
    "checks": SUITES,
    "cli": ("main",),
}

POLY_METHODS = {"__mul__": "poly.mul", "__pow__": "poly.pow", "exact_div": "poly.exact_div"}

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")


def _nterms(p) -> int:
    return len(p.terms)


def _after_mul(counts, args, out):
    size = _nterms(out)
    counts["poly.mul.terms_out"] += size
    counts["poly.max_terms"] = max(counts["poly.max_terms"], size)


def _after_pow(counts, args, out):
    counts["poly.max_terms"] = max(counts["poly.max_terms"], _nterms(out))


def _after_div(counts, args, out):
    counts["poly.exact_div.divisor_terms"] += _nterms(args[1])
    counts["poly.max_terms"] = max(counts["poly.max_terms"], _nterms(args[0]), _nterms(out))


def _after_explore(counts, args, graph):
    counts["algebra.explore.seeds"] += len(getattr(graph, "seeds", ()))
    counts["algebra.explore.edges"] += len(getattr(graph, "edges", ()))
    counts["algebra.explore.variables"] += len(getattr(graph, "variables", ()))


def _after_clusters(counts, args, out):
    counts["coxeter.clusters.count"] += len(out)


AFTER = {
    "poly.mul": _after_mul,
    "poly.pow": _after_pow,
    "poly.exact_div": _after_div,
    "algebra.explore": _after_explore,
    "coxeter.clusters": _after_clusters,
}


class Tracer:
    """Wraps the layers on :meth:`install` and restores them on :meth:`uninstall`."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter
        after = AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(counts, args, out)
            return out

        return traced

    def install(self) -> None:
        import coxclusters.cli  # noqa: F401 - loads every module that binds a layer

        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "coxclusters" or key.startswith("coxclusters.")
        ]
        for home_name, names in FUNCTIONS.items():
            home = sys.modules[f"coxclusters.{home_name}"]
            for fname in names:
                orig = getattr(home, fname)
                traced = self._wrap(f"{home_name}.{fname}", orig)
                for mod in modules:
                    for attr in [a for a, v in vars(mod).items() if v is orig]:
                        setattr(mod, attr, traced)
                        self._undo.append((mod, attr, orig))
        cls = sys.modules["coxclusters.poly"].LaurentPoly
        for meth, name in POLY_METHODS.items():
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(name, orig))
            self._undo.append((cls, meth, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds; plus the counters."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        divisions_in_explore = 0
        for idx, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - covered[idx]
            if name == "poly.exact_div":
                while parent >= 0 and spans[parent][0] != "algebra.explore":
                    parent = spans[parent][3]
                divisions_in_explore += parent >= 0
        out = dict(self.counts)
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = self_s[name]
        out["algebra.explore.divisions"] = divisions_in_explore
        out["trace.spans"] = len(spans)
        return out

    def write(self, path) -> None:
        """Write every span, one tab-separated line each, in call order."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{idx}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
