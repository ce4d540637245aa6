"""Shared fixtures and brute-force oracles used across the test suite."""

from __future__ import annotations

import itertools

import pytest

import subembed as se


@pytest.fixture(scope="session")
def corpus400():
    return se.builtin_corpus(400)


@pytest.fixture(scope="session")
def by_name(corpus400):
    return dict(corpus400)


@pytest.fixture(scope="session")
def group1875():
    corpus = se.builtin_corpus(1, include_example_1875=True)
    return dict(corpus)["(C5^2xC5^2):C3"]


# -- brute-force oracles ----------------------------------------------------


def raw_compose(a: tuple, b: tuple) -> tuple:
    """Apply a, then b, on 1-based image tuples (independent of the library)."""
    return tuple(b[i - 1] for i in a)


def raw_inverse(a: tuple) -> tuple:
    """The inverse of a 1-based image tuple."""
    return tuple(sorted(range(1, len(a) + 1), key=lambda x: a[x - 1]))


def raw_closure(perms: set[tuple]) -> set[tuple]:
    n = len(next(iter(perms)))
    out = set(perms)
    out.add(tuple(range(1, n + 1)))
    while True:
        new = {raw_compose(a, b) for a in out for b in out} - out
        if not new:
            return out
        out |= new


def all_subgroups_small(group) -> set[int]:
    """Masks of every subgroup, by closing all <=3-element subsets.

    Valid for the small groups used in tests: each of their subgroups is
    generated by at most three elements.
    """
    masks = {1}
    idx = range(group.order)
    for r in (1, 2, 3):
        for combo in itertools.combinations(idx, r):
            masks.add(se.span(group, combo).mask)
    return masks


def brute_normal_masks(group) -> set[int]:
    out = set()
    for mask in all_subgroups_small(group):
        sub = se.Subgroup(group, mask)
        if sub.is_normal():
            out.add(mask)
    return out


def brute_u_hypercentre(group):
    """Oracle: join of all normal N whose internal cover pairs all have
    prime-order factors (the definitional reading, brute force)."""
    from subembed.subgroups import is_prime, product_with_normal

    lat = se.normal_lattice(group)
    acc = se.Subgroup.trivial(group)
    for node in lat.nodes:
        hypercentral = True
        for k, l in lat.covers:
            if lat.nodes[l].is_subset_of(node):
                if not is_prime(lat.nodes[l].order // lat.nodes[k].order):
                    hypercentral = False
                    break
        if hypercentral:
            acc = product_with_normal(acc, node)
    return acc


def brute_partial_s_pi(group, h, p, series_limit=500) -> bool:
    """Oracle: explicitly enumerate chief series and test every factor."""
    from subembed.subgroups import p_part, product_with_normal

    lat = se.normal_lattice(group)
    for series in se.chief_series_enumerate(group, series_limit):
        ok = True
        for k, l in zip(series.chain, series.chain[1:]):
            low, high = lat.nodes[k], lat.nodes[l]
            x = product_with_normal(se.intersect(h, high), low)
            factor = high.order // low.order
            if x.order // low.order == p_part(factor, p):
                continue
            index = group.order // se.normalizer(group, x).order
            if se.is_pi_number(index, (p,)):
                continue
            ok = False
            break
        if ok:
            return True
    return False


# -- child-group oracles ------------------------------------------------------
# The library reads quotient and normal-subgroup structure off G's own normal
# lattice. These oracles take the other route: they build G/K by the coset
# action (`quotient`) or a normal E as a group of its own
# (`subgroup_as_group`), then compute on that child group and its lattice.


def quotient_u_hypercentre(group):
    """Z_U(G): adjoin every prime-order minimal normal subgroup of G/K,
    with each G/K built as a group, until none is left."""
    from subembed.subgroups import is_prime, product_with_normal

    current = se.Subgroup.trivial(group)
    while True:
        qmap = se.quotient(group, current)
        lat = se.normal_lattice(qmap.image)
        atoms = [lat.nodes[j] for j in lat.up[0] if is_prime(lat.nodes[j].order)]
        if not atoms:
            return current
        joined = se.Subgroup.trivial(qmap.image)
        for atom in atoms:
            joined = product_with_normal(joined, atom)
        current = qmap.preimage_subgroup(joined)


def quotient_hypercentre(group):
    """Z_inf(G): lift the centre of G/K, with G/K built as a group, until
    it stops growing."""
    current = se.Subgroup.trivial(group)
    while True:
        qmap = se.quotient(group, current)
        lifted = qmap.preimage_subgroup(se.center(qmap.image))
        if lifted == current:
            return current
        current = lifted


def quotient_fitting_p(group, p):
    """F_p(G): the preimage of O_p(G/O_p'(G)), with the quotient built."""
    qmap = se.quotient(group, se.radical_p_prime(group, p))
    return qmap.preimage_subgroup(se.radical_p(qmap.image, p))


def quotient_u_hypercentre_over(kernel):
    """The preimage in G of Z_U(G/K), with G/K built as a group."""
    qmap = se.quotient(kernel.group, kernel)
    return qmap.preimage_subgroup(quotient_u_hypercentre(qmap.image))


def _as_child(e):
    child, to_parent, _ = se.subgroup_as_group(e)
    return child, lambda sub: se.Subgroup.from_indices(e.group, to_parent[sub.index_array])


def child_o_p_prime(e, p):
    """O_p'(E), computed in E built as a group."""
    child, lift = _as_child(e)
    return lift(se.radical_p_prime(child, p))


def child_fitting_p(e, p):
    child, lift = _as_child(e)
    return lift(quotient_fitting_p(child, p))


def child_f_star(e):
    child, lift = _as_child(e)
    return lift(se.f_star(child))


def child_is_p_soluble(e, p):
    child, _ = _as_child(e)
    return se.is_p_soluble(child, p)


def child_is_p_nilpotent(e, p):
    child, _ = _as_child(e)
    return se.is_p_nilpotent(child, p)


def child_z_u_mod_o_p_prime(e, p):
    """The preimage in G of Z_U(G/O_p'(E)), both read from child groups."""
    return quotient_u_hypercentre_over(child_o_p_prime(e, p))
