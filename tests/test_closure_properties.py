"""Quick-bound runs of the closure/transfer suites (full bounds live in the
acceptance module)."""

from collections import Counter

import pytest

import property_checks as pc
from conftest import apart_corpus


@pytest.fixture(scope="module")
def small_corpus():
    return apart_corpus(48)


def test_restriction_to_normal_overgroups(small_corpus):
    for name, group in small_corpus:
        assert pc.restriction_violations(group) == []


def test_quotient_transfer(small_corpus):
    for name, group in small_corpus:
        assert pc.quotient_transfer_violations(group) == []


def test_maximal_subgroup_transfer(small_corpus):
    for name, group in small_corpus:
        assert pc.maximal_transfer_violations(group) == []


def test_p_nilpotency_lifting(small_corpus):
    for name, group in small_corpus:
        assert pc.p_nilpotency_lifting_violations(group) == []


def test_omega_exponent(small_corpus):
    for name, group in small_corpus:
        assert pc.omega_exponent_violations(group) == []


def test_f_star_hypercentre_forcing(small_corpus):
    for name, group in small_corpus:
        assert pc.f_star_forcing_violations(group) == []


def test_p_supersoluble_derived_p_nilpotent(small_corpus):
    for name, group in small_corpus:
        assert pc.derived_p_nilpotency_violations(group) == []


def test_every_chief_series_implies_some(corpus400, query_mix_groups, group1875):
    # on the rows of the chief-verdict pin, the every-series form of
    # partial_s_pi and of partial_pi implies the some-series form; the rows
    # where some chief series passes and not every one all lie in two
    # query-mix groups, whose chief series are not unique
    rows, existential_only = 0, Counter()
    for name, group in [*corpus400, *query_mix_groups, ("(C5^2xC5^2):C3", group1875)]:
        for predicate, p, order, some, every in pc.series_forms(group):
            assert some or not every, (name, predicate, p, order)
            existential_only[predicate, name] += some and not every
            rows += 1
    assert rows == 2 * 968
    assert +existential_only == {
        ("partial_s_pi", "SL(2,3)xS4"): 18,
        ("partial_s_pi", "A5xS3"): 6,
        ("partial_pi", "SL(2,3)xS4"): 18,
        ("partial_pi", "A5xS3"): 5,
    }
