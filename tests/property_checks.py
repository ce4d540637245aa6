"""Closure/transfer property checks shared by the unit and acceptance suites.

Each check returns a list of violations (empty = the property held on that
group), so the calling test can assert emptiness and show offenders.
"""

from __future__ import annotations

import math

import subembed as se
from subembed.classify import f_star, is_p_nilpotent, is_p_supersoluble
from subembed.embedding import _every_chief_factor, _normalizer_fails, _s_pi_fails
from subembed.harness import maximal_subgroup_pool, standard_pool
from subembed.normal import subgroup_as_group
from subembed.subgroups import (
    Subgroup,
    derived_of_subgroup,
    exponent,
    is_abelian_subgroup,
    p_part,
    prime_divisors,
    product_with_normal,
)

from conftest import pull_to_parent, push_to_child


def restriction_violations(group):
    """partial-s-pi in G descends to any normal overgroup of the subgroup."""
    out = []
    lat = se.normal_lattice(group)
    for p, h in standard_pool(group):
        if not se.partial_s_pi(group, h, p).holds:
            continue
        for node in lat.nodes:
            if not h.is_subset_of(node):
                continue
            child, _, from_parent = subgroup_as_group(node)
            h_child = push_to_child(h, from_parent, child)
            if not se.partial_s_pi(child, h_child, p).holds:
                out.append((group.name, p, h.order, node.order))
    return out


def quotient_transfer_violations(group):
    """partial-s-pi transfers to G/N when N <= H or gcd(p, |N|) = 1."""
    out = []
    lat = se.normal_lattice(group)
    for p, h in standard_pool(group):
        if not se.partial_s_pi(group, h, p).holds:
            continue
        for node in lat.nodes:
            if not (node.is_subset_of(h) or node.order % p != 0):
                continue
            qmap = se.quotient(group, node)
            image = qmap.image_subgroup(product_with_normal(h, node))
            if not se.partial_s_pi(qmap.image, image, p).holds:
                out.append((group.name, p, h.order, node.order))
    return out


def maximal_transfer_violations(group):
    """If every maximal subgroup of a Sylow p-subgroup satisfies the property
    in G, every maximal subgroup of PN/N satisfies it in G/N."""
    out = []
    lat = se.normal_lattice(group)
    for p in prime_divisors(group.order):
        syl = se.sylow(group, p)
        if not all(
            se.partial_s_pi(group, m, p).holds
            for m in maximal_subgroup_pool(syl, p)
        ):
            continue
        for node in lat.nodes:
            qmap = se.quotient(group, node)
            pn_image = qmap.image_subgroup(product_with_normal(syl, node))
            for m in se.p_group_maximal_subgroups(pn_image, p):
                if not se.partial_s_pi(qmap.image, m, p).holds:
                    out.append((group.name, p, node.order, m.order))
    return out


def p_nilpotency_lifting_violations(group):
    """p-nilpotency lifts along N with |N|_p <= p when gcd(|G|, p-1) = 1."""
    out = []
    lat = se.normal_lattice(group)
    for p in prime_divisors(group.order):
        if math.gcd(group.order, p - 1) != 1:
            continue
        lifted = is_p_nilpotent(group, p)
        for node in lat.nodes:
            if p_part(node.order, p) > p:
                continue
            qmap = se.quotient(group, node)
            if is_p_nilpotent(qmap.image, p) and not lifted:
                out.append((group.name, p, node.order))
    return out


def omega_exponent_violations(group):
    """For a p-group of class <= 2 with exp(P/Z(P)) dividing p, the exponent
    of omega(P) is p (p odd) or 4 (non-abelian 2-group)."""
    if group.order == 1:
        return []
    primes = prime_divisors(group.order)
    if len(primes) != 1:
        return []
    p = primes[0]
    series = se.lower_central_series(group)
    if len(series) > 3 or series[-1].order != 1:
        return []  # class > 2
    qmap = se.quotient(group, se.center(group))
    if qmap.image.order > 1 and exponent(Subgroup.whole(qmap.image)) != p:
        return []
    whole = Subgroup.whole(group)
    om_exponent = exponent(se.omega(whole, p))
    if p > 2 and om_exponent != p:
        return [(group.name, p, om_exponent)]
    if p == 2 and not is_abelian_subgroup(whole) and om_exponent != 4:
        return [(group.name, p, om_exponent)]
    return []


def f_star_forcing_violations(group):
    """F*(E) inside the supersoluble hypercentre forces E inside it."""
    out = []
    zu = se.u_hypercentre(group)
    for node in se.normal_lattice(group).nodes:
        child, to_parent, _ = subgroup_as_group(node)
        fstar = pull_to_parent(f_star(child), to_parent, group)
        if fstar.is_subset_of(zu) and not node.is_subset_of(zu):
            out.append((group.name, node.order))
    return out


def derived_p_nilpotency_violations(group):
    """A p-supersoluble group has a p-nilpotent derived subgroup; with
    trivial O_p' its Sylow p-subgroup is normal."""
    out = []
    for p in prime_divisors(group.order):
        if not is_p_supersoluble(group, p):
            continue
        derived = derived_of_subgroup(Subgroup.whole(group))
        child, _, _ = subgroup_as_group(derived)
        if not is_p_nilpotent(child, p):
            out.append((group.name, p, "derived not p-nilpotent"))
        if se.radical_p_prime(group, p).order == 1 and not se.sylow(group, p).is_normal():
            out.append((group.name, p, "Sylow not unique"))
    return out


def series_forms(group):
    """(predicate, p, |H|, some, every) for each standard-pool row of
    ``partial_s_pi`` and ``partial_pi``: whether some chief series passes on
    every factor (the predicate itself) and whether every one does. The
    every-series form is ``_every_chief_factor`` with the predicate's rule,
    so it is a read of the library's rules, not a predicate of its own."""
    out = []
    for p, h in standard_pool(group):
        for name, some, rule in (
            ("partial_s_pi", se.partial_s_pi(group, h, p), _s_pi_fails),
            ("partial_pi", se.partial_pi(group, h), _normalizer_fails),
        ):
            out.append((name, p, h.order, some.holds, _every_chief_factor(group, h, rule).holds))
    return out
