"""Theorem registry, corpus-wide verification runner, and report assembly.

Every registered statement is checked instance-by-instance over the corpus:
enumerate the bindings its hypotheses quantify over, evaluate the hypothesis,
and evaluate the conclusion only when the hypothesis holds. A confirmed
conclusion is recorded, a failed one is a COUNTEREXAMPLE (which, for proved
statements, means an implementation bug). Vacuous instances are counted, not
discarded: vacuity ratios are the main diagnostic for a miscoded hypothesis.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import __version__
from .catalog import builtin_corpus
from .classify import (
    is_p_soluble,
    primes_of_group,
    radical_p_prime,
    sylow,
    sylow_of_subgroup,
    u_hypercentre,
)
from .embedding import gen_cap, partial_pi, partial_s_pi, s_quasinormal
from .groups import FiniteGroup
from .normal import normal_lattice, pull_to_parent, quotient, subgroup_as_group
from .subgroups import (
    Subgroup,
    cyclic_subgroups_of_order,
    is_abelian_subgroup,
    is_cyclic_subgroup,
    p_group_maximal_subgroups,
    p_part,
)

THEOREM_IDS = (
    "prop-3.1",
    "prop-3.2",
    "prop-3.3",
    "prop-3.4",
    "prop-3.5",
    "thm-1.5",
    "thm-1.6",
    "prop-4.1",
)

DEFAULT_INSTANCE_CAP = 500
EXAMPLES_PER_THEOREM = 10


@dataclass
class TheoremInstance:
    theorem_id: str
    group_name: str
    bindings: dict
    hypothesis_holds: bool | None = None
    conclusion_holds: bool | None = None
    verdict: str | None = None
    audit: dict = field(default_factory=dict)
    payload: dict = field(default_factory=dict, repr=False)

    def to_dict(self) -> dict:
        out = {"group": self.group_name, **self.bindings}
        if self.audit:
            out["audit"] = self.audit
        return out


# -- hypothesis building blocks -------------------------------------------


def maximal_subgroup_pool(p_subgroup: Subgroup, p: int) -> list[Subgroup]:
    cache = p_subgroup.group.scratch("maximal_pool")
    key = (p_subgroup.mask, p)
    got = cache.get(key)
    if got is None:
        got = cache.setdefault(key, tuple(p_group_maximal_subgroups(p_subgroup, p)))
    return list(got)


def cyclic_pool(p_subgroup: Subgroup, p: int) -> list[Subgroup]:
    """Cyclic subgroups of prime order, plus order 4 for a non-abelian 2-group."""
    cache = p_subgroup.group.scratch("cyclic_pool")
    key = (p_subgroup.mask, p)
    got = cache.get(key)
    if got is None:
        pool = cyclic_subgroups_of_order(p_subgroup, p)
        if p == 2 and p_subgroup.order > 1 and not is_abelian_subgroup(p_subgroup):
            pool = pool + cyclic_subgroups_of_order(p_subgroup, 4)
        got = cache.setdefault(key, tuple(pool))
    return list(got)


def maximals_branch(group: FiniteGroup, p_subgroup: Subgroup, p: int) -> bool:
    return all(
        partial_s_pi(group, m, p).holds
        for m in maximal_subgroup_pool(p_subgroup, p)
    )


def cyclics_branch(group: FiniteGroup, p_subgroup: Subgroup, p: int) -> bool:
    return all(
        partial_s_pi(group, h, p).holds for h in cyclic_pool(p_subgroup, p)
    )


def standard_pool(group: FiniteGroup) -> list[tuple[int, Subgroup]]:
    """The p-subgroup pool checks quantify over: for each prime, a Sylow
    subgroup, its maximal subgroups, and its cyclic subgroups of order p
    (and 4 for a non-abelian Sylow 2-subgroup)."""
    out = []
    for p in primes_of_group(group):
        syl = sylow(group, p)
        pool: dict[int, Subgroup] = {syl.mask: syl}
        for sub in maximal_subgroup_pool(syl, p) + cyclic_pool(syl, p):
            pool.setdefault(sub.mask, sub)
        out.extend(
            (p, sub)
            for sub in sorted(pool.values(), key=lambda s: (s.order, s.indices))
        )
    return out


def subgroup_o_p_prime(sub: Subgroup, p: int) -> Subgroup:
    """O_p' of a subgroup, as a subgroup of the parent group."""
    child, to_parent, _ = subgroup_as_group(sub)
    return pull_to_parent(radical_p_prime(child, p), to_parent, sub.group)


def subgroup_is_p_soluble(sub: Subgroup, p: int) -> bool:
    if p_part(sub.order, p) in (1, sub.order):
        return True
    child, _, _ = subgroup_as_group(sub)
    return is_p_soluble(child, p)


def _u_hypercentre_quotient_check(group: FiniteGroup, e: Subgroup, p: int):
    """Conclusion shared by prop-3.5 and thm-1.6:
    E/O_p'(E) lies in the supersoluble hypercentre of G/O_p'(E)."""
    o = subgroup_o_p_prime(e, p)
    if o.order == 1:
        zu = u_hypercentre(group)
        return e.is_subset_of(zu), {"o_p_prime_order": 1, "z_u_order": zu.order}
    qmap = quotient(group, o)
    zu = u_hypercentre(qmap.image)
    image_e = qmap.image_subgroup(e)
    return image_e.is_subset_of(zu), {
        "o_p_prime_order": o.order,
        "z_u_order": zu.order,
        "image_e_order": image_e.order,
    }


# -- theorem registry -------------------------------------------------------


@dataclass(frozen=True)
class Theorem:
    id: str
    enumerate: callable  # (group) -> iterator of payload dicts
    evaluate: callable  # (group, payload) -> (hyp, concl | None, audit)


def _normal_p_subgroup_bindings(group: FiniteGroup):
    lat = normal_lattice(group)
    for p in primes_of_group(group):
        for node in lat.nodes:
            if p_part(node.order, p) == node.order:
                yield {"p": p, "P": node, "P_order": node.order}


def _eval_prop31(group, payload):
    p, sub = payload["p"], payload["P"]
    if not maximals_branch(group, sub, p):
        return False, None, {}
    zu = u_hypercentre(group)
    return True, sub.is_subset_of(zu), {"z_u_order": zu.order}


def _eval_prop33(group, payload):
    p, sub = payload["p"], payload["P"]
    if not cyclics_branch(group, sub, p):
        return False, None, {}
    zu = u_hypercentre(group)
    return True, sub.is_subset_of(zu), {"z_u_order": zu.order}


def _coprime_normal_bindings(group: FiniteGroup):
    """Normal E and prime p with p dividing |E| and gcd(|E|, p-1) = 1."""
    lat = normal_lattice(group)
    for node in lat.nodes:
        for p in primes_of_group(group):
            if node.order % p == 0 and math.gcd(node.order, p - 1) == 1:
                yield {"p": p, "E": node, "E_order": node.order}


def _eval_prop32(group, payload):
    p, e = payload["p"], payload["E"]
    syl = sylow_of_subgroup(e, p)
    if not maximals_branch(group, syl, p):
        return False, None, {}
    from .classify import is_p_nilpotent

    child, _, _ = subgroup_as_group(e)
    return True, is_p_nilpotent(child, p), {"sylow_order": syl.order}


def _eval_prop34(group, payload):
    p, e = payload["p"], payload["E"]
    syl = sylow_of_subgroup(e, p)
    if not cyclics_branch(group, syl, p):
        return False, None, {}
    from .classify import is_p_nilpotent

    child, _, _ = subgroup_as_group(e)
    return True, is_p_nilpotent(child, p), {"sylow_order": syl.order}


def _p_soluble_normal_bindings(group: FiniteGroup):
    lat = normal_lattice(group)
    for node in lat.nodes:
        for p in primes_of_group(group):
            if subgroup_is_p_soluble(node, p):
                yield {"p": p, "E": node, "E_order": node.order}


def _eval_prop35(group, payload):
    p, e = payload["p"], payload["E"]
    syl = sylow_of_subgroup(e, p)
    if not (maximals_branch(group, syl, p) or cyclics_branch(group, syl, p)):
        return False, None, {}
    holds, audit = _u_hypercentre_quotient_check(group, e, p)
    return True, holds, audit


def _f_star_sandwich_bindings(group: FiniteGroup):
    from .classify import f_star

    if group.order == 1:
        return  # matches the other theorems, which quantify over prime divisors
    lat = normal_lattice(group)
    for e in lat.nodes:
        child, to_parent, _ = subgroup_as_group(e)
        fstar = pull_to_parent(f_star(child), to_parent, group)
        for x in lat.nodes:
            if fstar.is_subset_of(x) and x.is_subset_of(e):
                yield {
                    "E": e,
                    "X": x,
                    "E_order": e.order,
                    "X_order": x.order,
                    "F_star_order": fstar.order,
                }


def _eval_thm15(group, payload):
    e, x = payload["E"], payload["X"]
    for q in primes_of_group(group):
        if x.order % q:
            continue
        syl = sylow_of_subgroup(x, q)
        if is_cyclic_subgroup(syl):
            continue
        if not (maximals_branch(group, syl, q) or cyclics_branch(group, syl, q)):
            return False, None, {}
    zu = u_hypercentre(group)
    return True, e.is_subset_of(zu), {"z_u_order": zu.order}


def _fitting_p_sandwich_bindings(group: FiniteGroup):
    from .classify import fitting_p

    lat = normal_lattice(group)
    for p in primes_of_group(group):
        for e in lat.nodes:
            if not subgroup_is_p_soluble(e, p):
                continue
            child, to_parent, _ = subgroup_as_group(e)
            fp = pull_to_parent(fitting_p(child, p), to_parent, group)
            for x in lat.nodes:
                if not (fp.is_subset_of(x) and x.is_subset_of(e)):
                    continue
                if not subgroup_is_p_soluble(x, p):
                    continue
                yield {
                    "p": p,
                    "E": e,
                    "X": x,
                    "E_order": e.order,
                    "X_order": x.order,
                    "F_p_order": fp.order,
                }


def _eval_thm16(group, payload):
    p, e, x = payload["p"], payload["E"], payload["X"]
    syl = sylow_of_subgroup(x, p)
    if not (maximals_branch(group, syl, p) or cyclics_branch(group, syl, p)):
        return False, None, {}
    holds, audit = _u_hypercentre_quotient_check(group, e, p)
    return True, holds, audit


PROP41_ITEMS = ("gen-cap", "partial-pi", "s-quasinormal")


def _prop41_bindings(group: FiniteGroup):
    for p, sub in standard_pool(group):
        for item in PROP41_ITEMS:
            yield {"p": p, "H": sub, "H_order": sub.order, "item": item}


def _eval_prop41(group, payload):
    p, sub, item = payload["p"], payload["H"], payload["item"]
    if item == "gen-cap":
        hyp = gen_cap(group, sub).holds
    elif item == "partial-pi":
        hyp = partial_pi(group, sub).holds
    else:
        hyp = s_quasinormal(group, sub)
    if not hyp:
        return False, None, {}
    verdict = partial_s_pi(group, sub, p)
    audit = {}
    if verdict.witness is not None:
        lat = normal_lattice(group)
        audit["witness_factor_orders"] = [
            lat.nodes[b].order // lat.nodes[a].order
            for a, b in zip(verdict.witness, verdict.witness[1:])
        ]
    return True, verdict.holds, audit


THEOREMS = {
    "prop-3.1": Theorem("prop-3.1", _normal_p_subgroup_bindings, _eval_prop31),
    "prop-3.2": Theorem("prop-3.2", _coprime_normal_bindings, _eval_prop32),
    "prop-3.3": Theorem("prop-3.3", _normal_p_subgroup_bindings, _eval_prop33),
    "prop-3.4": Theorem("prop-3.4", _coprime_normal_bindings, _eval_prop34),
    "prop-3.5": Theorem("prop-3.5", _p_soluble_normal_bindings, _eval_prop35),
    "thm-1.5": Theorem("thm-1.5", _f_star_sandwich_bindings, _eval_thm15),
    "thm-1.6": Theorem("thm-1.6", _fitting_p_sandwich_bindings, _eval_thm16),
    "prop-4.1": Theorem("prop-4.1", _prop41_bindings, _eval_prop41),
}


def instances(
    theorem_id: str, group: FiniteGroup, limit: int = DEFAULT_INSTANCE_CAP
) -> tuple[list[TheoremInstance], bool]:
    """Bindings for one theorem on one group, capped at ``limit``.

    Returns the instance list and whether it was truncated (truncation is
    recorded in the run report, never silent).
    """
    theorem = THEOREMS.get(theorem_id)
    if theorem is None:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    payloads = list(itertools.islice(theorem.enumerate(group), limit + 1))
    truncated = len(payloads) > limit
    if truncated:
        payloads = payloads[:limit]
    name = group.name or f"group{group.order}"
    out = []
    for payload in payloads:
        bindings = {k: v for k, v in payload.items() if not isinstance(v, Subgroup)}
        out.append(TheoremInstance(theorem_id, name, bindings, payload=payload))
    return out, truncated


def check_instance(inst: TheoremInstance, group: FiniteGroup) -> TheoremInstance:
    """Evaluate the hypothesis, then the conclusion only when it holds."""
    theorem = THEOREMS[inst.theorem_id]
    hyp, concl, audit = theorem.evaluate(group, inst.payload)
    inst.hypothesis_holds = hyp
    inst.conclusion_holds = concl
    inst.audit = audit
    if not hyp:
        inst.verdict = "vacuous"
    elif concl:
        inst.verdict = "confirmed"
    else:
        inst.verdict = "COUNTEREXAMPLE"
    return inst


# -- corpus runner ----------------------------------------------------------


@dataclass
class TheoremSummary:
    id: str
    instances: int = 0
    vacuous: int = 0
    confirmed: int = 0
    counterexamples: int = 0
    truncated_groups: int = 0
    examples: list = field(default_factory=list)
    counterexample_bindings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "instances": self.instances,
            "vacuous": self.vacuous,
            "confirmed": self.confirmed,
            "counterexamples": self.counterexamples,
            "truncated_groups": self.truncated_groups,
            "examples": self.examples,
            "counterexample_bindings": self.counterexample_bindings,
        }


@dataclass
class RunReport:
    tool_version: str
    max_order: int
    group_count: int
    theorems: list[TheoremSummary]
    timing_ms: int

    @property
    def total_counterexamples(self) -> int:
        return sum(t.counterexamples for t in self.theorems)

    def to_dict(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "corpus": {"max_order": self.max_order, "group_count": self.group_count},
            "theorems": [t.to_dict() for t in self.theorems],
            "timing_ms": self.timing_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def resolve_theorem_ids(selector: str) -> list[str]:
    if selector == "all":
        return list(THEOREM_IDS)
    if selector not in THEOREM_IDS:
        raise ValueError(
            f"unknown theorem id {selector!r}; expected one of "
            f"{', '.join(THEOREM_IDS)} or 'all'"
        )
    return [selector]


def _run_group(args):
    name, group, theorem_ids, cap = args
    results = {}
    for tid in theorem_ids:
        insts, truncated = instances(tid, group, cap)
        results[tid] = ([check_instance(i, group) for i in insts], truncated)
    return name, results


def run_corpus(
    theorem_ids,
    max_order: int,
    jobs: int = 1,
    out_path=None,
    include_example_1875: bool = False,
    instance_cap: int = DEFAULT_INSTANCE_CAP,
) -> RunReport:
    """Run the registered theorems over the built-in corpus and aggregate.

    The report is deterministic apart from ``timing_ms``; worker threads only
    parallelize across groups and aggregation follows corpus order.
    """
    start = time.perf_counter()
    corpus = builtin_corpus(max_order, include_example_1875=include_example_1875)
    tasks = [(name, group, theorem_ids, instance_cap) for name, group in corpus]
    if jobs > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            by_name = dict(pool.map(_run_group, tasks))
    else:
        by_name = dict(map(_run_group, tasks))

    summaries = []
    for tid in theorem_ids:
        summary = TheoremSummary(id=tid)
        for name, _ in corpus:
            insts, truncated = by_name[name][tid]
            summary.instances += len(insts)
            summary.truncated_groups += int(truncated)
            for inst in insts:
                if inst.verdict == "vacuous":
                    summary.vacuous += 1
                elif inst.verdict == "confirmed":
                    summary.confirmed += 1
                    if len(summary.examples) < EXAMPLES_PER_THEOREM:
                        summary.examples.append(inst.to_dict())
                else:
                    summary.counterexamples += 1
                    summary.counterexample_bindings.append(inst.to_dict())
        summaries.append(summary)

    report = RunReport(
        tool_version=__version__,
        max_order=max_order,
        group_count=len(corpus),
        theorems=summaries,
        timing_ms=int((time.perf_counter() - start) * 1000),
    )
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
    return report
