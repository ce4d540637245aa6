"""Group-class predicates and canonical subgroups (radicals, hypercentres).

Solubility is computed along two independent routes (derived series and
chief-factor orders) and the two are asserted equal, as a standing
cross-check of the lattice code.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        base = sylow(group, p)
        seen = {base.mask}
        out = [base]
        frontier = [base]
        while frontier:
            nxt = []
            for sub in frontier:
                for g in group.gen_indices:
                    conj = sub.conjugate(g)
                    if conj.mask not in seen:
                        seen.add(conj.mask)
                        out.append(conj)
                        nxt.append(conj)
            frontier = nxt
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
    return _largest_normal(group, lambda order: p_part(order, p) == order)


def radical_p_prime(group: FiniteGroup, p: int) -> Subgroup:
    """O_p': the largest normal subgroup of order coprime to p."""
    if group.order % p:
        return Subgroup.whole(group)
    if p_part(group.order, p) == group.order:
        return Subgroup.trivial(group)
    return _largest_normal(group, lambda order: order % p != 0)


def _largest_normal(group: FiniteGroup, passes) -> Subgroup:
    """The largest lattice node whose order passes the test, checked to
    contain every other passing node (so it is the unique largest one)."""
    passing = [n for n in normal_lattice(group).nodes if passes(n.order)]
    best = max(passing, key=lambda n: n.order)
    for node in passing:
        assert node.is_subset_of(best)
    return best


def fitting(group: FiniteGroup) -> Subgroup:
    """F(G): the product of the O_p over primes dividing |G|."""
    out = Subgroup.trivial(group)
    for p in primes_of_group(group):
        out = product_with_normal(out, radical_p(group, p))
    return out


def fitting_p(group: FiniteGroup, p: int) -> Subgroup:
    """F_p(G) = O_{p',p}(G): preimage of O_p(G/O_p'(G))."""
    o_p_prime = radical_p_prime(group, p)
    if o_p_prime.order == 1:
        return radical_p(group, p)
    qmap = quotient(group, o_p_prime)
    return qmap.preimage_subgroup(radical_p(qmap.image, p))


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
    pp = p_part(group.order, p)
    if pp == 1 or pp == group.order:
        return True
    series = a_chief_series(group)
    return all(
        order % p != 0 or p_part(order, p) == order for order in series.factor_orders
    )


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
    """Z_inf: iterate preimages of the centre of the quotient until stable."""
    from .subgroups import center

    current = Subgroup.trivial(group)
    while True:
        qmap = quotient(group, current)
        lifted = qmap.preimage_subgroup(center(qmap.image))
        if lifted.mask == current.mask:
            return current
        current = lifted


def u_hypercentre(group: FiniteGroup) -> Subgroup:
    """The largest normal subgroup all of whose chief factors below it have
    prime order.

    Layered construction: repeatedly adjoin every minimal normal subgroup of
    prime order of the current quotient. A chief factor L/K of prime order q
    is central for the supersoluble formation because G/C_G(L/K) embeds into
    the cyclic group of order q-1, so the extension splits supersolubly;
    a chief factor of composite order never is, being a minimal normal
    subgroup of composite order in the would-be supersoluble product.
    """

    def layers() -> Subgroup:
        current = Subgroup.trivial(group)
        while True:
            qmap = quotient(group, current)
            if qmap.image.order == 1:
                return current
            lat = normal_lattice(qmap.image)
            atoms = [lat.nodes[j] for j in lat.up[0] if is_prime(lat.nodes[j].order)]
            if not atoms:
                return current
            joined = Subgroup.trivial(qmap.image)
            for atom in atoms:
                joined = product_with_normal(joined, atom)
            current = qmap.preimage_subgroup(joined)

    return group.memo("u_hypercentre", "value", layers)


def f_star(group: FiniteGroup) -> Subgroup:
    """Generalized Fitting subgroup via F*(G)/F(G) = Soc(F·C_G(F)/F)."""
    fit = fitting(group)
    if fit.order == group.order:
        return fit
    cent = centralizer(group, fit)
    fc = product_with_normal(cent, fit)
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

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "sylow_order": self.sylow_order,
            "p_soluble": self.p_soluble,
            "p_supersoluble": self.p_supersoluble,
            "p_nilpotent": self.p_nilpotent,
            "o_p_order": self.o_p.order,
            "o_p_prime_order": self.o_p_prime.order,
            "f_p_order": self.f_p.order,
        }


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

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "abelian": self.abelian,
            "nilpotent": self.nilpotent,
            "soluble": self.soluble,
            "supersoluble": self.supersoluble,
            "centre_order": self.centre.order,
            "hypercentre_order": self.hypercentre.order,
            "u_hypercentre_order": self.u_hypercentre.order,
            "fitting_order": self.fitting.order,
            "f_star_order": self.f_star.order,
            "nilpotent_residual_order": self.nilpotent_residual.order,
            "primes": {str(p): r.to_dict() for p, r in sorted(self.primes.items())},
        }


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
