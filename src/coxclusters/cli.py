"""Command-line front end: info, verify, explore, and typea reports as JSON.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 seed cap exceeded, 4 internal error.  JSON output is canonically ordered
and byte-stable across runs: keys sorted, a two-space indent and ASCII
escapes, the same bytes as ``json``'s ``dumps(indent=2, sort_keys=True)``.

``--type`` is a type label (``A3``, ``D4``, ``A2xA1``) whenever it has the
syntax of one, even if a file of that name exists; anything else is read as
a matrix file, so ``./A3`` names the file ``A3``.  A file that cannot be
read or parsed is a usage error (exit 2), and so is an ``--output`` path
that cannot be written.

Only info, verify and explore take a seed cap.  It is ``--cap`` if given,
else the integer in the environment variable ``COXCLUSTERS_CAP`` if it is
set and non-empty, else 100 000.  A ``COXCLUSTERS_CAP`` value that is not an
integer, or a cap below 1 from either source, is a usage error (exit 2).

Exit 4 is an internal error: one of the engine's own consistency checks
failed (``InternalCheckError``), a computed g-vector named no labelled
weight (``KeyError``), or a Laurent exponent left the packed range of
``poly`` (``OverflowError``).  It prints one line on stderr and no
traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import checks, typea
from .algebra import CapExceeded, DEFAULT_CAP
from .cartan import (
    CartanMatrix,
    InvalidCartanMatrix,
    cartan_from_matrix_text,
    cartan_from_text,
    is_type_label,
)
from .coxeter import (
    CoxeterElement,
    InternalCheckError,
    InvalidCoxeterWord,
    all_coxeter_elements,
    b_matrix,
    bipartite_element,
    clusters,
    coxeter_element,
    coxeter_number,
    h_vector,
)

CAP_ENV_VAR = "COXCLUSTERS_CAP"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


class UsageError(ValueError):
    pass


def _load_cartan(type_spec: str) -> CartanMatrix:
    try:
        if is_type_label(type_spec):
            return cartan_from_text(type_spec)
        return cartan_from_matrix_text(Path(type_spec).read_text())
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load Cartan data from {type_spec!r}: {exc}") from exc


def _parse_coxeter(m: CartanMatrix, spec: str) -> list[CoxeterElement]:
    if spec == "bipartite":
        return [bipartite_element(m)]
    if spec == "all":
        return list(all_coxeter_elements(m))
    try:
        letters = tuple(int(tok) for tok in spec.split(","))
    except ValueError as exc:
        raise UsageError(f"bad coxeter spec {spec!r}: {exc}") from exc
    # Checked here, in the 1-based letters the user typed.
    if sorted(letters) != list(range(1, m.n + 1)):
        raise UsageError(
            f"bad coxeter spec {spec!r}: {letters!r} is not a permutation of 1..{m.n}"
        )
    return [coxeter_element(m, [i - 1 for i in letters])]


def _default_cap(args) -> int:
    if args.cap is not None:
        cap, source = args.cap, "--cap"
    else:
        env = os.environ.get(CAP_ENV_VAR)
        if not env:
            return DEFAULT_CAP
        try:
            cap = int(env)
        except ValueError as exc:
            raise UsageError(f"bad {CAP_ENV_VAR} value {env!r}") from exc
        source = CAP_ENV_VAR
    if cap < 1:
        raise UsageError(f"{source} must be at least 1, got {cap}")
    return cap


def _emit(args, document) -> None:
    if args.format == "json":
        text = _json_text(document) + "\n"
    else:
        text = _render_text(document) + "\n"
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _json_text(document) -> str:
    """``document`` as ``json`` writes it with ``indent=2, sort_keys=True``,
    in one walk that joins its parts once (json's C encoder ignores
    ``indent``).  A list of plain ints, alone or as an item of a list, is
    written in one step.  Only dicts with str keys, lists, str, int, bool
    and None are written; anything else raises ``TypeError``."""
    parts = []
    put, rep, ints = parts.append, int.__repr__, {int}
    levels = []  # per depth: a list's and a dict's opener, the comma, their closers

    def level(depth: int) -> tuple[str, str, str, str, str]:
        if depth == len(levels):
            pad = "\n" + "  " * depth
            inner = pad + "  "
            levels.append(("[" + inner, "{" + inner, "," + inner, pad + "]", pad + "}"))
        return levels[depth]

    def walk(x, depth: int) -> None:
        kind = type(x)
        if kind is str:
            put(encode_basestring_ascii(x))
        elif kind is int:
            put(rep(x))
        elif kind is bool or x is None:
            put("null" if x is None else "true" if x else "false")
        elif kind is not list and kind is not dict:
            raise TypeError(f"cannot write a {kind.__name__} as JSON")
        elif not x:
            put("[]" if kind is list else "{}")
        elif kind is dict:
            _, start, comma, _, end = level(depth)
            for k, key in enumerate(sorted(x)):  # a key that is not a str raises
                put((comma if k else start) + encode_basestring_ascii(key) + ": ")
                walk(x[key], depth + 1)
            put(end)
        else:
            start, _, comma, end, _ = level(depth)
            if ints.issuperset(map(type, x)):  # no bool: it prints as true/false
                put(start + comma.join(map(rep, x)) + end)
                return
            item_start, _, item_comma, item_end, _ = level(depth + 1)
            for k, value in enumerate(x):
                put(comma if k else start)
                if type(value) is list and value and ints.issuperset(map(type, value)):
                    put(item_start + item_comma.join(map(rep, value)) + item_end)
                else:
                    walk(value, depth + 1)
            put(end)

    walk(document, 0)
    return "".join(parts)


def _render_text(document, indent: int = 0) -> str:
    """A dict or list document as one line per scalar, headed by its key or
    by ``-`` for a list item.

    A nested dict or list gets a head line of its own, and its contents are
    indented one level further.
    """
    pad = "  " * indent
    if isinstance(document, dict):
        items = [(f"{key}:", document[key]) for key in sorted(document)]
    else:
        items = [("-", value) for value in document]
    lines = []
    for head, value in items:
        if isinstance(value, (dict, list)):
            lines.append(f"{pad}{head}")
            if value:
                lines.append(_render_text(value, indent + 1))
        else:
            lines.append(f"{pad}{head} {value}")
    return "\n".join(lines)


def _record_json(rec) -> dict:
    return {
        "label": {"i": rec.label.i + 1, "m": rec.label.m},
        "g": list(rec.g.g),
        "denom": list(rec.denom.d),
        "f_polynomial": str(rec.fpoly),
    }


def _report_each(args, document) -> int:
    """Emit ``document(args, m, c, graph, records)`` for each element of
    ``--coxeter``, from its principal run; a lone document is not wrapped in
    a list.  Each run is dropped before the next one is explored."""
    m = _load_cartan(args.type)
    elements = _parse_coxeter(m, args.coxeter)
    cap = _default_cap(args)
    docs = [document(args, m, c, *checks.principal_run(m, c, cap)) for c in elements]
    _emit(args, docs[0] if len(docs) == 1 else docs)
    return EXIT_OK


def _info_document(args, m: CartanMatrix, c: CoxeterElement, graph, records) -> dict:
    h, star = h_vector(m, c)
    variables = [_record_json(rec) for rec in sorted(records, key=lambda r: r.label)]
    label_names = {rec.label: f"{rec.label.i + 1}.{rec.label.m}" for rec in records}
    cluster_family = [
        sorted(label_names[lab] for lab in cl) for cl in clusters(m, c)
    ]
    return {
        "type": args.type,
        "rank": m.n,
        "coxeter": [i + 1 for i in c.order],
        "coxeter_number": list(coxeter_number(m)),
        "h": list(h),
        "star": [s + 1 for s in star],
        "B": [list(row) for row in b_matrix(m, c)],
        "variables": variables,
        "clusters": sorted(cluster_family),
        "exchange_graph": {
            "seeds": len(graph.seeds),
            "edges": len(graph.edges),
            "variables": len(graph.variables),
        },
    }


def cmd_info(args) -> int:
    return _report_each(args, _info_document)


def _verify_suites(m: CartanMatrix, c: CoxeterElement, cap: int):
    results = []
    results += checks.cartan_invariants(m)
    results += checks.chain_and_h_checks(m, c)
    results += checks.beta_telescoping(m, c)
    results += checks.compat_symmetry_at_zero(m, c)
    results += checks.compat_reduction_agreement(m, c)
    results += checks.compat_duality(m, c)
    run = checks.principal_run(m, c, cap)
    results += checks.engine_against_formulas(m, c, run)
    results += checks.move_isomorphism_checks(m, c)
    if m.n <= 4:
        results += checks.compat_linear_identity(m, c)
        results += checks.orbit_representatives(m, c)
        results += checks.universal_checks(m, c, run, cap)
    return results


def cmd_verify(args) -> int:
    m = _load_cartan(args.type)
    cap = _default_cap(args)
    results = checks.bipartite_h_values(m)
    results += checks.move_graph_connected(m)
    results += checks.move_update_rule(m)
    results += checks.bipartite_compat_oracle(m)
    for c in _parse_coxeter(m, args.coxeter):
        results += _verify_suites(m, c, cap)
    failures = [r for r in results if not r.passed]
    document = {
        "type": args.type,
        "checks": len(results),
        "failures": [
            {"suite": r.suite, "instance": r.instance, "detail": r.detail} for r in failures
        ],
        "results": [
            {
                "suite": r.suite,
                "instance": r.instance,
                "passed": r.passed,
            }
            for r in sorted(results, key=lambda r: (r.suite, r.instance))
        ],
    }
    _emit(args, document)
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def _explore_document(args, m: CartanMatrix, c: CoxeterElement, graph, records) -> dict:
    return {
        "type": args.type,
        "coxeter": [i + 1 for i in c.order],
        "seeds": len(graph.seeds),
        "edges": len(graph.edges),
        "variables": len(graph.variables),
        "records": [
            {**_record_json(rec), "expansion": str(rec.expansion)}
            for rec in sorted(records, key=lambda r: r.label)
        ],
    }


def cmd_explore(args) -> int:
    return _report_each(args, _explore_document)


def cmd_typea(args) -> int:
    n = args.n
    if n < 1:
        raise UsageError("--n must be at least 1")
    relation_checks = typea.verify_exchange_relations(n)
    quadrilaterals = []
    for quad_checks in relation_checks:
        i, j, k, l = quad_checks.quadruple
        plus, minus = typea.universal_coeff_typea(n, (i, j, k + 2, l + 2))
        quadrilaterals.append(
            {
                "intervals": [i, j, k, l],
                "ok": quad_checks.ok,
                "polygon_exchange": {
                    "pair": [[i, k + 2], [j, l + 2]],
                    "p_plus": list(map(list, plus)),
                    "p_minus": list(map(list, minus)),
                },
            }
        )
    document = {
        "n": n,
        "relations_checked": len(relation_checks),
        "all_relations_ok": all(ch.ok for ch in relation_checks),
        "exchange_relations": quadrilaterals,
    }
    _emit(args, document)
    return EXIT_OK if document["all_relations_ok"] else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxclusters",
        description="Exact finite-type cluster algebra computations from Coxeter elements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--type", required=True,
                       help="type label like A3, D4, A2xA1, or else a matrix file path "
                            "(a label always wins: write ./A3 for a file named A3)")
        p.add_argument("--coxeter", default="bipartite",
                       help="comma-separated 1-based word, 'bipartite', or 'all'")
        p.add_argument("--cap", type=int, default=None,
                       help=f"seed cap (default {DEFAULT_CAP}, env {CAP_ENV_VAR})")
        p.add_argument("--output", default=None, help="write to a file instead of stdout")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p_info = sub.add_parser("info", help="h-vector, labelled weights, records, clusters")
    common(p_info)
    p_info.set_defaults(func=cmd_info)

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_explore = sub.add_parser("explore", help="exchange graph statistics and records")
    common(p_explore)
    p_explore.set_defaults(func=cmd_explore)

    p_typea = sub.add_parser("typea", help="tridiagonal relation report and polygon coefficients")
    p_typea.add_argument("--n", type=int, required=True)
    p_typea.add_argument("--output", default=None)
    p_typea.add_argument("--format", choices=("json", "text"), default="json")
    p_typea.set_defaults(func=cmd_typea)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, InvalidCartanMatrix, InvalidCoxeterWord) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (InternalCheckError, KeyError, OverflowError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
