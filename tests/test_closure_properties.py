"""Quick-bound runs of the closure/transfer suites (full bounds live in the
acceptance module)."""

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
