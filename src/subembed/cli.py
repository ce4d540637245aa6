"""Command-line surface.

Exit codes: 0 success, 2 parse/usage error, 3 resource cap exceeded,
4 counterexample found by ``verify``, 5 library invariant failed (a bug).
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import build, builtin_corpus, parse_group_file
from .classify import class_report
from .embedding import (
    Verdict,
    cap,
    gen_cap,
    partial_pi,
    partial_s_pi,
    s_qn_embedded,
    s_quasinormal,
)
from .errors import InvariantError, ResourceCapError, SubembedError
from .harness import resolve_theorem_ids, run_corpus
from .normal import chief_series_enumerate, normal_lattice
from .perms import parse_cycles
from .subgroups import span

# each takes (group, subgroup), and partial-s-pi also the prime
PREDICATES = {
    "partial-s-pi": partial_s_pi,
    "partial-pi": partial_pi,
    "cap": cap,
    "gen-cap": gen_cap,
    "s-quasinormal": lambda group, h: Verdict(s_quasinormal(group, h)),
    "s-qn-embedded": lambda group, h: Verdict(s_qn_embedded(group, h)),
}
PROPERTIES = tuple(PREDICATES)
# what the text format prints when a predicate that reads no chief series fails
NOT_HOLDING = {
    "s-quasinormal": "it does not permute with some Sylow subgroup of the group",
    "s-qn-embedded": "no S-quasinormal subgroup has a Sylow q-subgroup of it as a Sylow subgroup",
}


def _load_group(path: str):
    with open(path, encoding="utf-8") as handle:
        name, expr = parse_group_file(handle.read())
    group = build(expr)
    group.name = name
    return group


def _parse_subgroup(group, text: str):
    indices = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        perm = parse_cycles(chunk, group.degree)
        try:
            indices.append(group.index_of(perm))
        except KeyError:
            raise ValueError(
                f"permutation {chunk} is not an element of {group.name}"
            ) from None
    return span(group, indices)


def _cmd_check(args) -> int:
    prop = args.property
    if prop == "partial-s-pi" and args.prime is None:
        print("error: --prime is required for partial-s-pi", file=sys.stderr)
        return 2
    if prop != "partial-s-pi" and args.prime is not None:
        print(f"error: --prime applies only to partial-s-pi, not {prop}", file=sys.stderr)
        return 2
    group = _load_group(args.group)
    sub = _parse_subgroup(group, args.subgroup)
    result: dict = {"group": group.name, "order": group.order, "subgroup_order": sub.order, "property": prop}
    primes = () if args.prime is None else (args.prime,)  # given iff partial-s-pi
    verdict = PREDICATES[prop](group, sub, *primes)
    if primes:
        result["prime"] = args.prime
    result["holds"] = verdict.holds
    witness, r = verdict.witness, verdict.refutation
    if witness is not None:
        result["witness_node_orders"] = [s.order for s in witness]
        detail = " < ".join(str(s.order) for s in witness)
    elif r is not None:
        low, high = r.lower.order, r.upper.order
        result["refutation"] = {"lower_order": low, "upper_order": high, "reason": r.reason}
        detail = f"factor {high // low} over the order-{low} node: {r.reason}"
    else:
        detail = NOT_HOLDING.get(prop, "no admissible chief series")
    if args.format == "json":
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print(f"{prop} on {group.name} (order {group.order}), subgroup of order {sub.order}: "
              f"{'holds' if verdict.holds else 'does not hold'}")
        if verdict.holds and witness is not None:
            print(f"  witness series node orders: {detail}")
        elif not verdict.holds:
            print(f"  {detail}")
    return 0


def _cmd_invariants(args) -> int:
    group = _load_group(args.group)
    report = class_report(group)
    if args.format == "json":
        print(json.dumps({"group": group.name, **report.to_dict()}, indent=2, sort_keys=True))
        return 0
    data = report.to_dict()
    print(f"group {group.name}: order {data['order']}")
    for flag in ("abelian", "nilpotent", "soluble", "supersoluble"):
        print(f"  {flag}: {data[flag]}")
    for key in (
        "centre_order",
        "hypercentre_order",
        "u_hypercentre_order",
        "fitting_order",
        "f_star_order",
        "nilpotent_residual_order",
    ):
        print(f"  {key}: {data[key]}")
    for p, sub in data["primes"].items():
        flags = ", ".join(
            f"{k}={v}" for k, v in sub.items() if k != "p"
        )
        print(f"  p={p}: {flags}")
    return 0


def _cmd_chief(args) -> int:
    group = _load_group(args.group)
    lat = normal_lattice(group)
    print(f"group {group.name}: order {group.order}, "
          f"{len(lat.nodes)} normal subgroups, {len(lat.covers)} cover pairs")
    series = chief_series_enumerate(group, args.enumerate_limit)
    print(f"chief series: {len(series)}")
    for s in series:
        orders = " < ".join(str(term.order) for term in s.chain)
        factors = ", ".join(str(f) for f in s.factor_orders)
        print(f"  {orders}   (factors {factors})")
    return 0


def _cmd_verify(args) -> int:
    theorem_ids = resolve_theorem_ids(args.theorem)
    report = run_corpus(
        theorem_ids,
        max_order=args.max_order,
        out_path=args.out,
        include_example_1875=args.include_example_1875,
    )
    for summary in report.theorems:
        print(
            f"{summary.id}: {summary.instances} instances, "
            f"{summary.vacuous} vacuous, {summary.confirmed} confirmed, "
            f"{summary.counterexamples} counterexamples"
            + (f", {summary.truncated_groups} truncated groups" if summary.truncated_groups else "")
        )
    print(f"report written to {args.out}")
    if report.total_counterexamples:
        print("COUNTEREXAMPLE(S) FOUND", file=sys.stderr)
        return 4
    return 0


def _cmd_catalog(args) -> int:
    for name, group in builtin_corpus(args.max_order):
        print(f"{name:12s} order {group.order:5d}  degree {group.degree}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="subembed",
        description="Chief-series subgroup-embedding predicates and theorem checks "
        "for small finite permutation groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="evaluate an embedding property")
    p_check.add_argument("--group", required=True, help="path to a group file")
    p_check.add_argument(
        "--subgroup", required=True,
        help="semicolon-separated generator cycles, e.g. \"(1 2 3);(2 3 4)\"",
    )
    p_check.add_argument("--property", required=True, choices=PROPERTIES)
    p_check.add_argument("--prime", type=int)
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.set_defaults(func=_cmd_check)

    p_inv = sub.add_parser("invariants", help="emit the classification report")
    p_inv.add_argument("--group", required=True)
    p_inv.add_argument("--format", choices=("text", "json"), default="text")
    p_inv.set_defaults(func=_cmd_invariants)

    p_chief = sub.add_parser("chief", help="normal lattice and chief series")
    p_chief.add_argument("--group", required=True)
    p_chief.add_argument("--enumerate-limit", type=int, default=200)
    p_chief.set_defaults(func=_cmd_chief)

    p_verify = sub.add_parser("verify", help="run the theorem suite over the corpus")
    p_verify.add_argument("--theorem", default="all")
    p_verify.add_argument("--max-order", type=int, default=120)
    p_verify.add_argument("--include-example-1875", action="store_true")
    p_verify.add_argument("--out", required=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_catalog = sub.add_parser("catalog", help="built-in corpus operations")
    catalog_sub = p_catalog.add_subparsers(dest="action", required=True)
    p_list = catalog_sub.add_parser("list", help="list corpus groups")
    p_list.add_argument("--max-order", type=int, default=400)
    p_list.set_defaults(func=_cmd_catalog)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 5
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except SubembedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
