"""Differential checks of the structure routines against sympy.combinatorics."""

import pytest

sympy_groups = pytest.importorskip("sympy.combinatorics")

import subembed as se
from subembed.subgroups import derived_of_subgroup, normal_closure_in

from conftest import apart_corpus


def as_sympy(group):
    gens = [sympy_groups.Permutation([int(x) for x in group.rows[i]]) for i in group.gen_indices]
    return sympy_groups.PermutationGroup(gens or [sympy_groups.Permutation(list(range(group.degree)))])


def indices_of(group, perms):
    """Element indices of sympy permutations (0-based array forms)."""
    return {group.index_of(se.Permutation(tuple(x + 1 for x in p.array_form))) for p in perms}


@pytest.fixture(scope="module")
def corpus60():
    return [(name, group, as_sympy(group)) for name, group in apart_corpus(60)]


def test_conjugacy_classes_match_sympy(corpus60):
    for name, group, ref in corpus60:
        ours = sorted(len(c) for c in group.conjugacy_classes())
        assert ours == sorted(len(c) for c in ref.conjugacy_classes()), name


def test_normal_closures_match_sympy(corpus60):
    for name, group, ref in corpus60:
        for i in range(0, group.order, max(1, group.order // 5)):
            element = sympy_groups.Permutation([int(x) for x in group.rows[i]])
            closure = ref.normal_closure(sympy_groups.PermutationGroup([element]))
            expected = se.Subgroup.from_indices(group, sorted(indices_of(group, closure.elements)))
            assert normal_closure_in(group, group.gen_indices, [i]) == expected, (name, i)


def test_derived_and_lower_central_orders_match_sympy(corpus60):
    for name, group, ref in corpus60:
        derived = derived_of_subgroup(se.Subgroup.whole(group))
        assert derived.order == ref.derived_subgroup().order(), name
        orders = [term.order for term in se.lower_central_series(group)]
        assert orders == [term.order() for term in ref.lower_central_series()], name
