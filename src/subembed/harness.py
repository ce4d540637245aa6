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
from dataclasses import asdict, dataclass, field

from . import __version__
from .catalog import builtin_corpus
from .classify import (
    f_star,
    fitting_p,
    p_soluble_nodes,
    primes_of_group,
    radical_p_prime,
    sylow,
    u_hypercentre,
    u_hypercentre_over,
)
from .embedding import gen_cap, partial_pi, partial_s_pi, s_quasinormal
from .groups import FiniteGroup
from .normal import _sort_key, normal_lattice
from .subgroups import (
    Subgroup,
    cyclic_subgroups_of_order,
    intersect,
    is_abelian_subgroup,
    is_cyclic_subgroup,
    p_group_maximal_subgroups,
    p_part,
    prime_divisors,
)

DEFAULT_INSTANCE_CAP = 1000
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
    def collect() -> tuple[Subgroup, ...]:
        return tuple(p_group_maximal_subgroups(p_subgroup, p))

    return list(p_subgroup.group.memo("maximal_pool", (p_subgroup.mask, p), collect))


def cyclic_pool(p_subgroup: Subgroup, p: int) -> list[Subgroup]:
    """Cyclic subgroups of prime order, plus order 4 for a non-abelian 2-group."""

    def collect() -> tuple[Subgroup, ...]:
        pool = cyclic_subgroups_of_order(p_subgroup, p)
        if p == 2 and p_subgroup.order > 1 and not is_abelian_subgroup(p_subgroup):
            pool = pool + cyclic_subgroups_of_order(p_subgroup, 4)
        return tuple(pool)

    return list(p_subgroup.group.memo("cyclic_pool", (p_subgroup.mask, p), collect))


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
            for sub in sorted(pool.values(), key=lambda s: _sort_key(s.mask, group.order))
        )
    return out


# Every bound P, E and X is a node of G's normal lattice, so its Sylow
# subgroups and radicals are intersections with G's (see ``classify``).


def sylow_of_normal(e: Subgroup, p: int) -> Subgroup:
    return intersect(sylow(e.group, p), e)


def o_p_prime_of_normal(e: Subgroup, p: int) -> Subgroup:
    return intersect(e, radical_p_prime(e.group, p))


# -- hypotheses: (group, bindings) -> bool ---------------------------------


def either_branch(group: FiniteGroup, p_subgroup: Subgroup, p: int) -> bool:
    return maximals_branch(group, p_subgroup, p) or cyclics_branch(group, p_subgroup, p)


def on_sylow(name: str, branch):
    """Hypothesis: ``branch`` holds for a Sylow p-subgroup of the bound ``name``."""

    def hypothesis(group: FiniteGroup, b: dict) -> bool:
        return branch(group, sylow_of_normal(b[name], b["p"]), b["p"])

    return hypothesis


def _noncyclic_sylows_of_x(group: FiniteGroup, b: dict) -> bool:
    """thm-1.5: either branch holds for every non-cyclic Sylow subgroup of X."""
    x = b["X"]
    sylows = ((q, sylow_of_normal(x, q)) for q in prime_divisors(x.order))
    return all(is_cyclic_subgroup(s) or either_branch(group, s, q) for q, s in sylows)


PROP41_ITEMS = {
    "gen-cap": lambda group, h: gen_cap(group, h).holds,
    "partial-pi": lambda group, h: partial_pi(group, h).holds,
    "s-quasinormal": s_quasinormal,
}


def _prop41_item_holds(group: FiniteGroup, b: dict) -> bool:
    return PROP41_ITEMS[b["item"]](group, b["H"])


# -- conclusions: (group, bindings) -> (holds, audit) -------------------------


def in_z_u(name: str):
    """Conclusion: the bound subgroup ``name`` lies in Z_U(G)."""

    def conclusion(group: FiniteGroup, b: dict):
        zu = u_hypercentre(group)
        return b[name].is_subset_of(zu), {"z_u_order": zu.order}

    return conclusion


def _e_p_nilpotent(group: FiniteGroup, b: dict):
    """E has a normal p-complement iff |E : O_p'(E)| is a power of p."""
    p, e = b["p"], b["E"]
    index = e.order // o_p_prime_of_normal(e, p).order
    return p_part(index, p) == index, {"sylow_order": p_part(e.order, p)}


def _e_mod_o_p_prime_in_z_u(group: FiniteGroup, b: dict):
    """E/O_p'(E) lies in Z_U(G/O_p'(E)); the audit gives orders in G/O_p'(E)."""
    p, e = b["p"], b["E"]
    o = o_p_prime_of_normal(e, p)
    zu = u_hypercentre_over(o)
    audit = {"o_p_prime_order": o.order, "z_u_order": zu.order // o.order}
    if o.order > 1:
        audit["image_e_order"] = e.order // o.order
    return e.is_subset_of(zu), audit


def _h_partial_s_pi(group: FiniteGroup, b: dict):
    """H satisfies partial S-Π; the audit gives the witness's factor orders."""
    verdict = partial_s_pi(group, b["H"], b["p"])
    audit = {}
    if verdict.witness is not None:
        nodes = normal_lattice(group).nodes
        audit["witness_factor_orders"] = [
            nodes[hi].order // nodes[lo].order
            for lo, hi in zip(verdict.witness, verdict.witness[1:])
        ]
    return verdict.holds, audit


# -- bindings: (group) -> iterator of payload dicts ---------------------------


def _normal_p_subgroup_bindings(group: FiniteGroup):
    lat = normal_lattice(group)
    for p in primes_of_group(group):
        for node in lat.nodes:
            if p_part(node.order, p) == node.order:
                yield {"p": p, "P": node}


def _coprime_normal_bindings(group: FiniteGroup):
    """Normal E and prime p with p dividing |E| and gcd(|E|, p-1) = 1."""
    lat = normal_lattice(group)
    for node in lat.nodes:
        for p in primes_of_group(group):
            if node.order % p == 0 and math.gcd(node.order, p - 1) == 1:
                yield {"p": p, "E": node}


def _p_soluble_normal_bindings(group: FiniteGroup):
    lat = normal_lattice(group)
    soluble = {p: p_soluble_nodes(group, p) for p in primes_of_group(group)}
    for i, node in enumerate(lat.nodes):
        for p, flags in soluble.items():
            if flags[i]:
                yield {"p": p, "E": node}


def _f_star_sandwich_bindings(group: FiniteGroup):
    if group.order == 1:
        return  # matches the other theorems, which quantify over prime divisors
    lat = normal_lattice(group)
    f_star_g = f_star(group)
    for e in lat.nodes:
        fstar = intersect(e, f_star_g)
        for x in lat.nodes:
            if fstar.is_subset_of(x) and x.is_subset_of(e):
                yield {"E": e, "X": x, "F_star": fstar}


def _fitting_p_sandwich_bindings(group: FiniteGroup):
    lat = normal_lattice(group)
    for p in primes_of_group(group):
        soluble, f_p_g = p_soluble_nodes(group, p), fitting_p(group, p)
        for i, e in enumerate(lat.nodes):
            if not soluble[i]:
                continue
            fp = intersect(e, f_p_g)  # F_p(E) = E ∩ F_p(G)
            for j, x in enumerate(lat.nodes):
                if not (soluble[j] and fp.is_subset_of(x) and x.is_subset_of(e)):
                    continue
                yield {"p": p, "E": e, "X": x, "F_p": fp}


def _prop41_bindings(group: FiniteGroup):
    for p, sub in standard_pool(group):
        for item in PROP41_ITEMS:
            yield {"p": p, "H": sub, "item": item}


# -- theorem table ---------------------------------------------------------


@dataclass(frozen=True)
class Theorem:
    enumerate: callable  # (group) -> iterator of payload dicts
    hypothesis: callable  # (group, payload) -> bool
    conclusion: callable  # (group, payload) -> (holds, audit)


# one row per statement, in report order; the binding generators fix the
# enumeration order, hence the examples and the truncation point
THEOREMS = {
    "prop-3.1": Theorem(
        _normal_p_subgroup_bindings, on_sylow("P", maximals_branch), in_z_u("P")
    ),
    "prop-3.2": Theorem(
        _coprime_normal_bindings, on_sylow("E", maximals_branch), _e_p_nilpotent
    ),
    "prop-3.3": Theorem(
        _normal_p_subgroup_bindings, on_sylow("P", cyclics_branch), in_z_u("P")
    ),
    "prop-3.4": Theorem(
        _coprime_normal_bindings, on_sylow("E", cyclics_branch), _e_p_nilpotent
    ),
    "prop-3.5": Theorem(
        _p_soluble_normal_bindings,
        on_sylow("E", either_branch),
        _e_mod_o_p_prime_in_z_u,
    ),
    "thm-1.5": Theorem(_f_star_sandwich_bindings, _noncyclic_sylows_of_x, in_z_u("E")),
    "thm-1.6": Theorem(
        _fitting_p_sandwich_bindings,
        on_sylow("X", either_branch),
        _e_mod_o_p_prime_in_z_u,
    ),
    "prop-4.1": Theorem(_prop41_bindings, _prop41_item_holds, _h_partial_s_pi),
}
THEOREM_IDS = tuple(THEOREMS)


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
        # every bound subgroup is reported by its order, as ``<name>_order``,
        # the rule classify._orders_dict applies to class reports
        bindings = dict(
            (f"{k}_order", v.order) if isinstance(v, Subgroup) else (k, v)
            for k, v in payload.items()
        )
        out.append(TheoremInstance(theorem_id, name, bindings, payload=payload))
    return out, truncated


def check_instance(inst: TheoremInstance, group: FiniteGroup) -> TheoremInstance:
    """Evaluate the hypothesis, then the conclusion only when it holds."""
    theorem = THEOREMS[inst.theorem_id]
    inst.hypothesis_holds = theorem.hypothesis(group, inst.payload)
    if not inst.hypothesis_holds:
        inst.verdict = "vacuous"
        return inst
    inst.conclusion_holds, inst.audit = theorem.conclusion(group, inst.payload)
    inst.verdict = "confirmed" if inst.conclusion_holds else "COUNTEREXAMPLE"
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
        return asdict(self)


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


def run_corpus(
    theorem_ids,
    max_order: int,
    jobs: int = 1,
    out_path=None,
    include_example_1875: bool = False,
    instance_cap: int = DEFAULT_INSTANCE_CAP,
) -> RunReport:
    """Run the registered theorems over the built-in corpus and aggregate.

    The groups run one after another in corpus order, in one thread, and
    each theorem's summary takes its instances in that order, so the report
    is deterministic apart from ``timing_ms``. Once a group's checks are
    done, its caches and table are released (:meth:`FiniteGroup.release`),
    so only the group being checked holds them; a later run, or any later
    reader of the corpus groups, computes them again. ``jobs`` accepts only
    1 and raises ``ValueError`` for anything else; the benchmark revision
    of ROADMAP item 8, whose ``verify-1875`` workload still passes
    ``jobs=1``, removes it.
    """
    if jobs != 1:
        raise ValueError(f"run_corpus runs in one thread; jobs must be 1, got {jobs!r}")
    start = time.perf_counter()
    corpus = builtin_corpus(max_order, include_example_1875=include_example_1875)
    summaries = [TheoremSummary(id=tid) for tid in theorem_ids]
    for _, group in corpus:
        for summary in summaries:
            insts, truncated = instances(summary.id, group, instance_cap)
            summary.instances += len(insts)
            summary.truncated_groups += int(truncated)
            for inst in insts:
                check_instance(inst, group)
                if inst.verdict == "vacuous":
                    summary.vacuous += 1
                elif inst.verdict == "confirmed":
                    summary.confirmed += 1
                    if len(summary.examples) < EXAMPLES_PER_THEOREM:
                        summary.examples.append(inst.to_dict())
                else:
                    summary.counterexamples += 1
                    summary.counterexample_bindings.append(inst.to_dict())
        group.release()  # only the group being checked keeps its caches

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
