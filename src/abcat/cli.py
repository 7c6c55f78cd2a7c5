"""Command-line surface over the document format.

Exit codes: 0 when the computation succeeded or the checked property
holds; 1 when a checked property is false (a certificate is printed);
2 on input errors of any sort.

Output is line-oriented text by default; ``--format machine`` emits a
single JSON object with sorted keys, stable across runs for a fixed
seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .abdiag import ab_colimit, ab_limit, coinvariants, invariants, validate_diagram
from .abgrp import describe_form, direct_sum
from .documents import AbNaturalMap, Document, load_document
from .errors import (BudgetError, DocumentError, InputError, PreconditionError,
                     TruncationError)
from .fincat import (ProductCategory, is_connected, is_filtered, is_final, is_sifted,
                     validate_category, validate_functor)
from .intmat import smith_normal_form
from .setdiag import FinSet, set_colimit, set_limit, validate_functor as validate_set_functor
from . import verify as verify_mod
from .harting import hx_category, hx_filtered_bounded_report, hx_sifted_bounded_report

USAGE_ERROR = 2
PROPERTY_FALSE = 1
OK = 0


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "machine":
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _load(path, expected_kinds) -> Document:
    doc = load_document(path)
    if doc.kind not in expected_kinds:
        raise DocumentError(
            f"expected a document of kind {', '.join(expected_kinds)}, got '{doc.kind}'")
    return doc


def _checked_category(cat):
    """``cat`` once it passes the category laws, or a product once both of
    its factors do (a product of categories is then a category)."""
    for part in (cat.left, cat.right) if isinstance(cat, ProductCategory) else (cat,):
        validate_category(part).require("invalid category")
    return cat


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_check(args) -> int:
    if args.property == "final":
        doc = _load(args.file, ("functor",))
        functor = doc.value
        _checked_category(functor.source)
        _checked_category(functor.target)
        validate_functor(functor).require("invalid functor")
        result = is_final(functor)
        payload = {"check": "final", "holds": result.final}
        if not result.final:
            payload["failing_objects"] = list(result.failing)
        _emit(payload, args.format)
        return OK if result.final else PROPERTY_FALSE

    doc = _load(args.file, ("category",))
    cat = _checked_category(doc.value)
    if args.property == "connected":
        rep = is_connected(cat)
        payload = {"check": "connected", "holds": rep.connected,
                   "components": len(rep.components)}
        ok = rep.connected
    elif args.property == "filtered":
        rep = is_filtered(cat)
        payload = {"check": "filtered", "holds": rep.filtered}
        if not rep.filtered:
            payload["reason"] = rep.reason
            payload["failing"] = list(rep.failing) if rep.failing else None
        ok = rep.filtered
    else:
        rep = is_sifted(cat)
        payload = {"check": "sifted", "holds": rep.sifted}
        if not rep.sifted:
            payload["reason"] = rep.reason
            payload["failing_pairs"] = [list(p) for p in rep.failing_pairs[:5]]
        ok = rep.sifted
    _emit(payload, args.format)
    return OK if ok else PROPERTY_FALSE


def _cmd_limit(args, colimit: bool) -> int:
    doc = _load(args.file, ("setdiagram",))
    diagram = doc.value
    _checked_category(diagram.base)
    validate_set_functor(diagram).require("invalid diagram")
    if colimit:
        carrier, cocone = set_colimit(diagram)
        payload = {"colimit_size": carrier.size,
                   "classes": list(carrier.labels or ()),
                   "insertions": [list(t) for t in cocone.components]}
    else:
        carrier, cone = set_limit(diagram)
        payload = {"limit_size": carrier.size,
                   "tuples": list(carrier.labels or ()),
                   "projections": [list(t) for t in cone.components]}
    _emit(payload, args.format)
    return OK


def _cmd_hx(args) -> int:
    letters = [s for s in args.set.split(",") if s]
    if len(set(letters)) != len(letters):
        raise InputError("letters must be distinct")
    alphabet = FinSet(len(letters), tuple(letters))
    hx = hx_category(alphabet, args.cap, max_morphisms=args.budget)
    filtered = hx_filtered_bounded_report(hx)
    sifted = hx_sifted_bounded_report(hx)
    payload = {
        "letters": letters,
        "cap": args.cap,
        "objects": len(hx.objects),
        "morphisms": len(hx.morphisms),
        "bounded_filtered": filtered.ok,
        "bounded_sifted": sifted.ok,
    }
    _emit(payload, args.format)
    return OK if filtered.ok and sifted.ok else PROPERTY_FALSE


def _cmd_ab(args) -> int:
    op = args.operation
    if op == "snf":
        doc = _load(args.file, ("abgroup",))
        group = doc.value
        # the Smith diagonal, read off the group's own invariant factors
        free, factors = group.canonical_form
        rank = group.gens - free
        payload = {
            "diagonal": [1] * (rank - len(factors)) + list(factors)
            + [0] * (min(group.relations.shape) - rank),
            "canonical_form": describe_form(group.canonical_form),
        }
        if args.format == "machine":
            s, u, v = smith_normal_form(group.relations)
            payload["s"] = [list(r) for r in s.data]
            payload["u"] = [list(r) for r in u.data]
            payload["v"] = [list(r) for r in v.data]
        _emit(payload, args.format)
        return OK
    if op == "sum":
        doc = _load(args.file, ("family",))
        family = doc.value
        if isinstance(family, AbNaturalMap):
            raise InputError("sum expects a plain family without maps")
        total = direct_sum(family.groups)
        _emit({"sum": describe_form(total.canonical_form)}, args.format)
        return OK
    if op in ("coinvariants", "invariants"):
        doc = _load(args.file, ("gmodule",))
        module = doc.value
        if isinstance(module, AbNaturalMap):
            module = module.source
        group, _ = coinvariants(module) if op == "coinvariants" else invariants(module)
        _emit({op: describe_form(group.canonical_form)}, args.format)
        return OK
    doc = _load(args.file, ("abdiagram",))
    diagram = doc.value
    if isinstance(diagram, AbNaturalMap):
        diagram = diagram.source
    _checked_category(diagram.base)
    validate_diagram(diagram).require("invalid diagram")
    if op == "colimit":
        result = ab_colimit(diagram)
        _emit({"colimit": describe_form(result.carrier.canonical_form)}, args.format)
    else:
        result = ab_limit(diagram)
        _emit({"limit": describe_form(result.carrier.canonical_form)}, args.format)
    return OK


def _cmd_verify(args) -> int:
    row = verify_mod.PROPERTIES[args.property]
    options = {"cap": args.cap, "stability_cap": args.stability_cap}
    if args.file:
        report = row.check(_load(args.file, (row.kind,)).value, **options)
    elif row.suite is None:
        report = row.check(row.draw(None, 0), **options)
    else:
        report = verify_mod.run_suite(args.property, args.trials, args.seed, **options)
    payload = {"verify": args.property, "ok": report.ok, "seed": args.seed}
    payload.update({str(k): v for k, v in report.details.items()})
    _emit(payload, args.format)
    return OK if report.ok else PROPERTY_FALSE


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abcat",
        description="exact finite-category and abelian-group computations")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, file_required=True, file_allowed=True):
        if file_allowed:
            if file_required:
                p.add_argument("file", help="input document (JSON)")
            else:
                p.add_argument("file", nargs="?", default=None,
                               help="input document (JSON); omit to run the seeded suite")
        p.add_argument("--format", choices=("text", "machine"), default="text")

    p_check = sub.add_parser("check", help="decide a structural property")
    p_check.add_argument("property", choices=("connected", "final", "filtered", "sifted"))
    common(p_check)

    p_limit = sub.add_parser("limit", help="limit of a set-valued diagram")
    common(p_limit)
    p_colimit = sub.add_parser("colimit", help="colimit of a set-valued diagram")
    common(p_colimit)

    p_hx = sub.add_parser("hx", help="build a truncated word category")
    p_hx.add_argument("--set", required=True, help="comma-separated letters")
    p_hx.add_argument("--cap", type=int, default=2)
    p_hx.add_argument("--budget", type=int, default=500_000)
    common(p_hx, file_allowed=False)

    p_ab = sub.add_parser("ab", help="abelian group computations")
    p_ab.add_argument("operation",
                      choices=("colimit", "limit", "coinvariants", "invariants",
                               "sum", "snf"))
    common(p_ab)

    p_verify = sub.add_parser("verify", help="run a verification harness")
    p_verify.add_argument("property", choices=tuple(verify_mod.PROPERTIES))
    common(p_verify, file_required=False)
    p_verify.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    p_verify.add_argument("--trials", type=int, default=10)
    p_verify.add_argument("--cap", type=int, default=2)
    p_verify.add_argument("--stability-cap", type=int, default=None)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser, built on first use; parsing leaves it unchanged."""
    return build_parser()


_HANDLERS = {
    "check": _cmd_check,
    "limit": functools.partial(_cmd_limit, colimit=False),
    "colimit": functools.partial(_cmd_limit, colimit=True),
    "hx": _cmd_hx,
    "ab": _cmd_ab,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    # the required subparser admits only the commands above
    args = _shared_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (DocumentError, InputError, PreconditionError, TruncationError,
            BudgetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
