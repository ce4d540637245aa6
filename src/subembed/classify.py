"""Group-class predicates and canonical subgroups (radicals, hypercentres).

Quotient and normal-subgroup structure is read off G's own normal lattice.
By the correspondence theorem the lattice of G/K is the interval [K, G], so
Z_U(G/K), Z_inf and O_{p',p}(G) are joins of covers and nodes above K. For a
Fitting class F and E normal in G, E_F = E ∩ G_F (Doerk–Hawkes, *Finite
Soluble Groups*, 1992), so the harness reads O_p'(E), F_p(E) and F*(E) as
E ∩ O_p'(G), E ∩ F_p(G) and E ∩ F*(G). Only ``f_star`` builds child groups,
when F·C_G(F) > F (never for soluble G): F·C_G(F) and its quotient by F,
whose normal subgroups need not be normal in G.

Solubility is computed along two independent routes (derived series and
chief-factor orders) and the two are asserted equal, as a standing
cross-check of the lattice code.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .groups import FiniteGroup
from .normal import (
    a_chief_series,
    normal_lattice,
    pull_to_parent,
    quotient,
    socle,
    subgroup_as_group,
)
from .subgroups import (
    Subgroup,
    centralizer,
    derived_of_subgroup,
    is_pi_number,
    is_prime,
    lower_central_series,
    normalizer,
    p_part,
    prime_divisors,
    product_with_normal,
    span,
)


def primes_of_group(group: FiniteGroup) -> tuple[int, ...]:
    return prime_divisors(group.order)


def sylow(group: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup, grown deterministically through normalizers.

    Starting from the cyclic group on the first p-element, a proper
    p-subgroup is proper in its normalizer inside any Sylow overgroup, so
    scanning the normalizer for a p-element outside always makes progress.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return group.memo("sylow", p, lambda: _grow_sylow(group, p))


def _grow_sylow(group: FiniteGroup, p: int) -> Subgroup:
    target = p_part(group.order, p)
    if target == 1:
        return Subgroup.trivial(group)
    orders = group.element_orders
    first = next(i for i in range(group.order) if int(orders[i]) == p)
    current = span(group, [first])
    while current.order < target:
        norm = normalizer(group, current)
        grown = None
        for i in norm.indices:
            o = int(orders[i])
            if o > 1 and p_part(o, p) == o and not current.contains_index(i):
                grown = span(group, set(current.gens) | {i})
                break
        assert grown is not None, "proper p-subgroup must grow in its normalizer"
        current = grown
    assert current.order == target
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


def sylow_of_subgroup(sub: Subgroup, p: int) -> Subgroup:
    """A Sylow p-subgroup of ``sub``, as a subgroup of the parent group."""
    if p_part(sub.order, p) == sub.order:
        return sub  # a p-group is its own Sylow p-subgroup
    child, to_parent, _ = subgroup_as_group(sub)
    return pull_to_parent(sylow(child, p), to_parent, sub.group)


def radical_p(group: FiniteGroup, p: int) -> Subgroup:
    """O_p: the largest normal p-subgroup (maximal p-power lattice node)."""
    if group.order % p:
        return Subgroup.trivial(group)
    if p_part(group.order, p) == group.order:
        return Subgroup.whole(group)
    return _largest_normal(group, ("O_p", p), lambda n: p_part(n.order, p) == n.order)


def radical_p_prime(group: FiniteGroup, p: int) -> Subgroup:
    """O_p': the largest normal subgroup of order coprime to p."""
    if group.order % p:
        return Subgroup.whole(group)
    if p_part(group.order, p) == group.order:
        return Subgroup.trivial(group)
    return _largest_normal(group, ("O_p'", p), lambda n: n.order % p != 0)


def _largest_normal(group: FiniteGroup, key, passes) -> Subgroup:
    """The largest lattice node that passes the test, cached under ``key``
    and checked to contain every passing node (so it is the unique one)."""

    def scan() -> Subgroup:
        passing = [n for n in normal_lattice(group).nodes if passes(n)]
        best = max(passing, key=lambda n: n.order)
        for node in passing:
            assert node.is_subset_of(best)
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
    o = radical_p_prime(group, p)
    return _largest_normal(
        group, ("F_p", p), lambda n: o.is_subset_of(n) and is_pi_number(n.order // o.order, (p,))
    )


def is_abelian(group: FiniteGroup) -> bool:
    return all(
        group.mult(a, b) == group.mult(b, a)
        for a in group.gen_indices
        for b in group.gen_indices
    )


def is_nilpotent(group: FiniteGroup) -> bool:
    """Every Sylow subgroup normal."""
    return all(sylow(group, p).is_normal() for p in primes_of_group(group))


def is_p_nilpotent(group: FiniteGroup, p: int) -> bool:
    """A normal p-complement exists: |O_p'(G)| equals the p'-part of |G|."""
    pp = p_part(group.order, p)
    if pp == 1 or pp == group.order:
        return True
    return radical_p_prime(group, p).order == group.order // pp


def soluble_by_derived_series(group: FiniteGroup) -> bool:
    current = Subgroup.whole(group)
    while True:
        nxt = derived_of_subgroup(current)
        if nxt.order == 1:
            return True
        if nxt.mask == current.mask:
            return False
        current = nxt


def factor_is_abelian(group: FiniteGroup, lower: Subgroup, upper: Subgroup) -> bool:
    return derived_of_subgroup(upper).is_subset_of(lower)


def soluble_by_chief_factors(group: FiniteGroup) -> bool:
    lat = normal_lattice(group)
    series = a_chief_series(group)
    for a, b in zip(series.chain, series.chain[1:]):
        low, high = lat.nodes[a], lat.nodes[b]
        order = high.order // low.order
        if len(prime_divisors(order)) != 1:
            return False
        if not factor_is_abelian(group, low, high):
            return False
    return True


def is_soluble(group: FiniteGroup) -> bool:
    via_derived = soluble_by_derived_series(group)
    via_factors = soluble_by_chief_factors(group)
    assert via_derived == via_factors, "solubility cross-check failed"
    return via_derived


def is_p_soluble(group: FiniteGroup, p: int) -> bool:
    """Every chief factor is a p-group or a p'-group."""
    if p_part(group.order, p) in (1, group.order):
        return True
    return p_soluble_nodes(group, p)[-1]


def p_soluble_nodes(group: FiniteGroup, p: int) -> tuple[bool, ...]:
    """Per lattice node, whether its G-chief factors are all p- or p'-groups;
    by Jordan–Hölder one chain of covers up to the node decides it."""

    def flags() -> tuple[bool, ...]:
        lat = normal_lattice(group)
        ok = [True] + [False] * lat.top
        for k, l in lat.covers:  # sorted by k, and k < l
            q = lat.nodes[l].order // lat.nodes[k].order
            ok[l] |= ok[k] and (q % p != 0 or p_part(q, p) == q)
        return tuple(ok)

    return group.memo("p_soluble", p, flags)


def is_supersoluble(group: FiniteGroup) -> bool:
    """Every chief factor has prime order (series choice is immaterial)."""
    return all(is_prime(order) for order in a_chief_series(group).factor_orders)


def is_p_supersoluble(group: FiniteGroup, p: int) -> bool:
    """p-soluble, and chief factors of order divisible by p have order p."""
    if not is_p_soluble(group, p):
        return False
    return all(
        order % p != 0 or order == p for order in a_chief_series(group).factor_orders
    )


def hypercentre(group: FiniteGroup) -> Subgroup:
    """Z_inf: the layered join of the central covers above 1. A cover L/K
    is central iff [l, g] lies in K for the generators l of L and g of G."""

    def central(low: Subgroup, high: Subgroup) -> bool:
        return all(
            low.contains_index(group.commutator(l, g))
            for l in high.gens
            for g in group.gen_indices
        )

    return _layered_join(Subgroup.trivial(group), central)


def u_hypercentre(group: FiniteGroup) -> Subgroup:
    """The largest normal subgroup whose chief factors below it have prime order."""
    return u_hypercentre_over(Subgroup.trivial(group))


def u_hypercentre_over(kernel: Subgroup) -> Subgroup:
    """The preimage in G of Z_U(G/K): the layered join of the prime-order
    covers above K. A chief factor L/K of prime order q is supersolubly
    central (G/C_G(L/K) embeds in C_{q-1}); one of composite order never is."""

    def prime_order(low: Subgroup, high: Subgroup) -> bool:
        return is_prime(high.order // low.order)

    return kernel.group.memo(
        "u_hypercentre", kernel.mask, lambda: _layered_join(kernel, prime_order)
    )


def _layered_join(base: Subgroup, admits) -> Subgroup:
    """From the node K = ``base``, join every cover L of K for which
    ``admits(K, L)`` holds, and repeat from the join until no cover of it
    is admitted. Covers above K are the minimal normal subgroups of G/K."""
    lat = normal_lattice(base.group)
    k = lat.node_id(base)
    while True:
        low = lat.nodes[k]
        layer = [l for l in lat.up[k] if admits(low, lat.nodes[l])]
        if not layer:
            return low
        for l in layer:
            k = lat.join_id(k, l)


def f_star(group: FiniteGroup) -> Subgroup:
    """Generalized Fitting subgroup via F*(G)/F(G) = Soc(F·C_G(F)/F)."""
    fit = fitting(group)
    if fit.order == group.order:
        return fit
    fc = product_with_normal(centralizer(group, fit), fit)
    if fc == fit:
        return fit  # F·C_G(F)/F is trivial, so is its socle
    child, to_parent, from_parent = subgroup_as_group(fc)
    from .normal import push_to_child

    fit_in_child = push_to_child(fit, from_parent, child)
    qmap = quotient(child, fit_in_child)
    soc = socle(qmap.image)
    lifted = pull_to_parent(qmap.preimage_subgroup(soc), to_parent, group)
    return product_with_normal(lifted, fit)


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
    return group.memo("class_report", "report", lambda: _build_report(group))


def _build_report(group: FiniteGroup) -> ClassReport:
    from .subgroups import center

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
