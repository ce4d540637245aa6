"""Group-class predicates and canonical subgroups (radicals, hypercentres).

Quotient and normal-subgroup structure is read off G's own normal lattice.
By the correspondence theorem the lattice of G/K is the interval [K, G], so
Z_U(G/K) and O_{p',p}(G) are joins of covers and nodes above K; Z_inf(G/K)
is climbed from commutators with G's generators, with no lattice. For a
Fitting class F and E normal in G, E_F = E ∩ G_F (Doerk–Hawkes, *Finite
Soluble Groups*, 1992), so the harness reads O_p'(E), F_p(E) and F*(E) as
E ∩ O_p'(G), E ∩ F_p(G) and E ∩ F*(G). F*(G) and the Sylow subgroups of
any subgroup are read inside G too (``f_star``, ``_grow_sylow``), so no
routine here builds a group of its own.

Solubility is read off the derived series; the tests compare it with the
chief-factor route on the corpus and the lattice-rich groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvariantError
from .groups import FiniteGroup, extend_closure, trivial_member
from .normal import a_chief_series, normal_lattice
from .subgroups import (
    Subgroup,
    center,
    centralizer,
    derived_of_subgroup,
    intersect,
    is_pi_number,
    is_prime,
    lower_central_series,
    mask_from_bool,
    normalizer,
    p_part,
    prime_divisors,
    product_with_normal,
    require_prime,
    span,
)


def primes_of_group(group: FiniteGroup) -> tuple[int, ...]:
    return prime_divisors(group.order)


def sylow(group: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup of G, grown by ``_grow_sylow`` from the whole group."""
    require_prime(p)
    return group.memo("sylow", p, lambda: _grow_sylow(Subgroup.whole(group), p))


def sylow_of_subgroup(sub: Subgroup, p: int) -> Subgroup:
    """A Sylow p-subgroup of ``sub``, grown inside the parent group."""
    require_prime(p)
    if p_part(sub.order, p) == sub.order:
        return sub  # a p-group is its own Sylow p-subgroup
    return _grow_sylow(sub, p)


def _grow_sylow(sub: Subgroup, p: int) -> Subgroup:
    """A Sylow p-subgroup of H = ``sub``, grown from H's first p-element: a
    p-subgroup P below a Sylow S of H is proper in N_S(P), so N_G(P) ∩ H
    holds a p-element outside P, which spans a larger p-group with P. P is
    extended by that element in place, keeping the generators it grew by."""
    group = sub.group
    target = p_part(sub.order, p)
    if target == 1:
        return Subgroup.trivial(group)
    orders = group.element_orders
    first = next(i for i in sub.indices if int(orders[i]) == p)
    gens: list[int] = []
    member = extend_closure(group, trivial_member(group.order), gens, [first])
    current = Subgroup(group, mask_from_bool(member))
    while current.order < target:
        norm = intersect(normalizer(group, current), sub)
        grown = None
        for i in norm.indices:
            o = int(orders[i])
            if o > 1 and p_part(o, p) == o and not current.contains_index(i):
                grown = i
                break
        if grown is None:
            raise InvariantError("a proper p-subgroup did not grow in its normalizer")
        extend_closure(group, member, gens, [grown])
        current = Subgroup(group, mask_from_bool(member))
    if current.order != target:
        raise InvariantError("a grown Sylow subgroup overshot the Sylow order")
    return current


def sylow_conjugates(group: FiniteGroup, p: int) -> list[Subgroup]:
    """All Sylow p-subgroups, as the conjugation orbit of ``sylow(group, p)``."""

    def orbit() -> list[Subgroup]:
        out = [sylow(group, p)]
        seen = {out[0].mask}
        for sub in out:  # breadth first: the list grows while it is read
            for g in group.gen_indices:
                conj = sub.conjugate(g)
                if conj.mask not in seen:
                    seen.add(conj.mask)
                    out.append(conj)
        return out

    return group.memo("sylow_orbit", p, orbit)


def radical_p(group: FiniteGroup, p: int) -> Subgroup:
    """O_p: the largest normal p-subgroup (maximal p-power lattice node)."""
    require_prime(p)
    if group.order % p:
        return Subgroup.trivial(group)
    if p_part(group.order, p) == group.order:
        return Subgroup.whole(group)
    return _largest_normal(group, ("O_p", p), lambda n: p_part(n.order, p) == n.order)


def radical_p_prime(group: FiniteGroup, p: int) -> Subgroup:
    """O_p': the largest normal subgroup of order coprime to p."""
    require_prime(p)
    if group.order % p:
        return Subgroup.whole(group)
    if p_part(group.order, p) == group.order:
        return Subgroup.trivial(group)
    return _largest_normal(group, ("O_p'", p), lambda n: n.order % p != 0)


def p_residual(group: FiniteGroup, p: int) -> Subgroup:
    """O^p(G), the least normal subgroup of p-power index. It is generated
    by the p'-elements of G, so it is their span, memoised per (group, p):
    G itself when p does not divide |G|, 1 when G is a p-group. No lattice
    is read, so no node cap applies."""
    require_prime(p)
    return group.memo(
        "radical", ("O^p", p), lambda: span(group, np.flatnonzero(group.element_orders % p))
    )


def _largest_normal(group: FiniteGroup, key, passes) -> Subgroup:
    """The largest lattice node that passes the test, cached under ``key``
    and checked to contain every passing node (so it is the unique one)."""

    def scan() -> Subgroup:
        passing = [n for n in normal_lattice(group).nodes if passes(n)]
        best = max(passing, key=lambda n: n.order)
        if not all(node.is_subset_of(best) for node in passing):
            raise InvariantError(f"no largest normal subgroup passes {key}")
        return best

    return group.memo("radical", key, scan)


def fitting(group: FiniteGroup) -> Subgroup:
    """F(G): the product of the O_p over primes dividing |G|."""
    out = Subgroup.trivial(group)
    for p in primes_of_group(group):
        out = product_with_normal(out, radical_p(group, p))
    return out


def fitting_p(group: FiniteGroup, p: int) -> Subgroup:
    """F_p(G) = O_{p',p}(G), the preimage of O_p(G/O_p'(G)): the largest
    node over O_p'(G) whose index over it is a power of p."""
    require_prime(p)
    o = radical_p_prime(group, p)
    return _largest_normal(
        group, ("F_p", p), lambda n: o.is_subset_of(n) and is_pi_number(n.order // o.order, (p,))
    )


def is_abelian(group: FiniteGroup) -> bool:
    """Every commutator of two generators is the identity, index 0."""
    return not group.commutators(group.gen_indices, group.gen_indices).any()


def is_nilpotent(group: FiniteGroup) -> bool:
    """Every Sylow subgroup normal."""
    return all(sylow(group, p).is_normal() for p in primes_of_group(group))


def is_p_nilpotent(group: FiniteGroup, p: int) -> bool:
    """A normal p-complement exists: |O_p'(G)| equals the p'-part of |G|."""
    require_prime(p)
    pp = p_part(group.order, p)
    if pp == 1 or pp == group.order:
        return True
    return radical_p_prime(group, p).order == group.order // pp


def is_soluble(group: FiniteGroup) -> bool:
    """The derived series reaches 1. The chief-factor route to the same
    answer is a test oracle (``tests/conftest.py``)."""
    current = Subgroup.whole(group)
    while True:
        nxt = derived_of_subgroup(current)
        if nxt.order == 1:
            return True
        if nxt.mask == current.mask:
            return False
        current = nxt


def is_p_soluble(group: FiniteGroup, p: int) -> bool:
    """Every chief factor is a p-group or a p'-group."""
    require_prime(p)
    if p_part(group.order, p) in (1, group.order):
        return True
    return p_soluble_nodes(group, p)[-1]


def p_soluble_nodes(group: FiniteGroup, p: int) -> tuple[bool, ...]:
    """Per lattice node, whether its G-chief factors are all p- or p'-groups."""
    return group.memo(
        "p_soluble", p, lambda: tuple(bad % p != 0 for bad in _p_insoluble_primes(group))
    )


def _p_insoluble_primes(group: FiniteGroup) -> tuple[int, ...]:
    """Per lattice node, the product of the primes p for which some chief
    factor below it is neither a p- nor a p'-group (a small int, so the
    table costs no allocation per node). By Jordan–Hölder one chain of
    covers up to a node decides it, so one pass over the covers serves
    every prime, reading each factor order once."""

    def scan() -> tuple[int, ...]:
        lat, primes = normal_lattice(group), primes_of_group(group)
        bad = [1] + [0] * lat.top
        for k, l in lat.covers:  # sorted by k, and k < l
            if not bad[l]:
                q = lat.nodes[l].order // lat.nodes[k].order
                fails = (p for p in primes if q % p == 0 and p_part(q, p) != q)
                bad[l] = math.lcm(bad[k], *fails)
        return tuple(bad)

    return group.memo("p_soluble", "insoluble primes", scan)


def composite_chief_primes(group: FiniteGroup) -> tuple[int, ...]:
    """The primes dividing some chief factor of composite order, read off one
    chief series: by Jordan–Hölder every chief series has the same factors."""

    def scan() -> tuple[int, ...]:
        orders = a_chief_series(group).factor_orders
        return prime_divisors(math.prod(n for n in orders if not is_prime(n)))

    return group.memo("chief", "composite primes", scan)


def is_supersoluble(group: FiniteGroup) -> bool:
    """Every chief factor has prime order."""
    return not composite_chief_primes(group)


def is_p_supersoluble(group: FiniteGroup, p: int) -> bool:
    """Every chief factor of order divisible by p has order p (so G is
    p-soluble: each other factor is a p'-group)."""
    require_prime(p)
    return p not in composite_chief_primes(group)


def hypercentre(group: FiniteGroup) -> Subgroup:
    """Z_inf(G): the hypercentre over the trivial subgroup."""
    return hypercentre_over(Subgroup.trivial(group))


def hypercentre_over(kernel: Subgroup) -> Subgroup:
    """The preimage in G of Z_inf(G/K) for K normal in G, memoised per K:
    the upper central series mod K, Z_0 = K and Z_{i+1} = {x : [x, g] ∈ Z_i
    for every generator g}, as xZ_i is central in G/Z_i iff it commutes with
    the images of G's generators. Each step reads the |G|×generators block
    of commutators, kept once per group, against Z_i; no lattice is read."""
    group = kernel.group

    def climb() -> Subgroup:
        gens, n = group.gen_indices, group.order
        block = group.memo("hypercentre", "commutators", lambda: group.commutators(range(n), gens))
        member = kernel.member_bool
        while True:
            grown = member.take(block).all(axis=1)
            if np.array_equal(grown, member):
                return Subgroup(group, mask_from_bool(member))
            if (member > grown).any():
                raise InvariantError("the kernel of a hypercentre is not normal")
            member = grown

    return group.memo("hypercentre", kernel.mask, climb)


def u_hypercentre(group: FiniteGroup) -> Subgroup:
    """The largest normal subgroup whose chief factors below it have prime order."""
    return u_hypercentre_over(Subgroup.trivial(group))


def u_hypercentre_over(kernel: Subgroup) -> Subgroup:
    """The preimage in G of Z_U(G/K): from the node K, join every cover of
    prime order above it, and repeat from the join until none is left.
    Covers above K are the minimal normal subgroups of G/K. A chief factor
    L/K of prime order q is supersolubly central (G/C_G(L/K) embeds in
    C_{q-1}); one of composite order never is."""

    def climb() -> Subgroup:
        lat = normal_lattice(kernel.group)
        k = lat.node_id(kernel)
        while True:
            layer = [l for l in lat.up[k] if is_prime(lat.nodes[l].order // lat.nodes[k].order)]
            if not layer:
                return lat.nodes[k]
            for l in layer:
                k = lat.join_id(k, l)

    return kernel.group.memo("u_hypercentre", kernel.mask, climb)


def f_star(group: FiniteGroup) -> Subgroup:
    """F*(G): the join of the covers L of F = F(G) in G's lattice with
    L ≤ F·C_G(F), one layer only (a layered join would climb from A5 to S5).

    F*(G)/F = Soc(F·C_G(F)/F) ≅ E(G)/Z(E(G)) (Huppert–Blackburn, *Finite
    Groups III*, X.13) is a product of non-abelian simple groups that G
    permutes, so it is the product of the minimal normal subgroups of G/F
    that it contains; and a minimal normal M/F of G/F inside F·C_G(F)/F
    contains one of F·C_G(F)/F, so it meets the socle and lies in it.
    """
    fit = fitting(group)
    fc = product_with_normal(centralizer(group, fit), fit)
    lat = normal_lattice(group)
    k = out = lat.node_id(fit)
    for l in lat.up[k]:
        if lat.nodes[l].is_subset_of(fc):
            out = lat.join_id(out, l)
    return lat.nodes[out]


def nilpotent_residual(group: FiniteGroup) -> Subgroup:
    """G^N: the limit of the lower central series."""
    return lower_central_series(group)[-1]


def _orders_dict(report) -> dict:
    """The report's fields in order, each subgroup as ``<field>_order``."""
    out = {}
    for f in fields(report):
        value = getattr(report, f.name)
        if isinstance(value, Subgroup):
            out[f"{f.name}_order"] = value.order
        elif isinstance(value, dict):
            out[f.name] = {str(p): r.to_dict() for p, r in sorted(value.items())}
        else:
            out[f.name] = value
    return out


@dataclass
class PrimeReport:
    p: int
    sylow_order: int
    p_soluble: bool
    p_supersoluble: bool
    p_nilpotent: bool
    o_p: Subgroup
    o_p_prime: Subgroup
    f_p: Subgroup

    to_dict = _orders_dict


@dataclass
class ClassReport:
    """Class flags and canonical subgroups of one group."""

    order: int
    abelian: bool
    nilpotent: bool
    soluble: bool
    supersoluble: bool
    centre: Subgroup
    hypercentre: Subgroup
    u_hypercentre: Subgroup
    fitting: Subgroup
    f_star: Subgroup
    nilpotent_residual: Subgroup
    primes: dict[int, PrimeReport]

    to_dict = _orders_dict


def class_report(group: FiniteGroup) -> ClassReport:
    primes = {}
    for p in primes_of_group(group):
        primes[p] = PrimeReport(
            p=p,
            sylow_order=sylow(group, p).order,
            p_soluble=is_p_soluble(group, p),
            p_supersoluble=is_p_supersoluble(group, p),
            p_nilpotent=is_p_nilpotent(group, p),
            o_p=radical_p(group, p),
            o_p_prime=radical_p_prime(group, p),
            f_p=fitting_p(group, p),
        )
    return ClassReport(
        order=group.order,
        abelian=is_abelian(group),
        nilpotent=is_nilpotent(group),
        soluble=is_soluble(group),
        supersoluble=is_supersoluble(group),
        centre=center(group),
        hypercentre=hypercentre(group),
        u_hypercentre=u_hypercentre(group),
        fitting=fitting(group),
        f_star=f_star(group),
        nilpotent_residual=nilpotent_residual(group),
        primes=primes,
    )
