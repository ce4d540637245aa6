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
