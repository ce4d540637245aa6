import random

import numpy as np
import pytest

import subembed as se
from subembed.classify import (
    class_report,
    hypercentre_over,
    p_soluble_nodes,
    sylow_of_subgroup,
    u_hypercentre_over,
)
from subembed.harness import _e_p_nilpotent, o_p_prime_of_normal, sylow_of_normal
from subembed.subgroups import intersect, p_part, prime_divisors

from conftest import (
    INVARIANTS_LATTICE,
    apart_corpus,
    brute_normal_masks,
    brute_u_hypercentre,
    child_f_star,
    child_fitting_p,
    child_group_f_star,
    child_is_p_nilpotent,
    child_is_p_soluble,
    child_o_p_prime,
    child_sylow_of_subgroup,
    child_z_u_mod_o_p_prime,
    quotient_fitting_p,
    quotient_hypercentre,
    quotient_hypercentre_over,
    quotient_u_hypercentre,
    quotient_u_hypercentre_over,
    soluble_by_chief_factors,
)


def test_sylow_orders(by_name):
    assert se.sylow(by_name["A5"], 5).order == 5
    assert se.sylow(by_name["S4"], 2).order == 8
    v4 = se.sylow(by_name["A4"], 2)
    assert v4.order == 4
    assert v4.is_normal()


def test_sylow_full_p_part():
    for name, group in apart_corpus(120):
        for p in prime_divisors(group.order):
            assert se.sylow(group, p).order == p_part(group.order, p)


def test_sylow_of_subgroup_rejects_non_prime(by_name):
    with pytest.raises(ValueError):
        sylow_of_subgroup(se.Subgroup.whole(by_name["C2^2"]), 4)
    with pytest.raises(ValueError):
        sylow_of_subgroup(se.sylow(by_name["S4"], 2), 4)


def test_sylow_of_subgroup_matches_child_group_oracle(query_mix_groups):
    """Grown inside G, a Sylow subgroup of H is H-conjugate to the one found
    in H built as a group, over lattice nodes and random spans."""
    rng = random.Random(7)
    for _, group in query_mix_groups:
        spans = [
            se.span(group, [rng.randrange(group.order) for _ in range(rng.choice((1, 2)))])
            for _ in range(12)
        ]
        for h in list(se.normal_lattice(group).nodes) + spans:
            for p in prime_divisors(h.order):
                ours, oracle = sylow_of_subgroup(h, p), child_sylow_of_subgroup(h, p)
                assert ours.order == oracle.order == p_part(h.order, p)
                assert ours.is_subset_of(h)
                assert any(ours.conjugate(x) == oracle for x in h.indices), (group, h, p)


def test_sylow_conjugates_counts(by_name):
    a5 = by_name["A5"]
    assert len(se.sylow_conjugates(a5, 5)) == 6
    assert len(se.sylow_conjugates(a5, 2)) == 5
    s3 = by_name["S3"]
    assert len(se.sylow_conjugates(s3, 2)) == 3


def test_radical_p_prime_a4(by_name):
    a4 = by_name["A4"]
    o = se.radical_p_prime(a4, 3)
    # oracle: the largest normal subgroup of order coprime to 3 is the Klein four
    expected = {i for i in range(12) if a4.element_order(i) in (1, 2)}
    assert set(o.indices) == expected
    assert o.order == 4


def test_radicals_against_brute_force(by_name):
    for name in ("S3", "A4", "D8", "S4", "S3xC2", "C3^2:C2", "SL(2,3)"):
        group = by_name[name]
        normals = brute_normal_masks(group)
        for p in prime_divisors(group.order):
            # oracle: the largest normal subgroup whose order passes the test
            p_groups = [m for m in normals if p_part(m.bit_count(), p) == m.bit_count()]
            p_prime = [m for m in normals if m.bit_count() % p]
            assert se.radical_p(group, p).mask == max(p_groups, key=int.bit_count)
            assert se.radical_p_prime(group, p).mask == max(p_prime, key=int.bit_count)


def test_p_residual_is_the_least_normal_subgroup_of_p_power_index(lattice_rich_groups):
    # oracle: the lattice nodes of p-power index, the least of which must lie
    # in every other; 37 divides no order here, so O^37(G) = G
    groups = apart_corpus(120) + list(lattice_rich_groups.items())
    for name, group in groups:
        nodes = se.normal_lattice(group).nodes
        for p in (*prime_divisors(group.order), 37):
            passing = [n for n in nodes if p_part(group.order // n.order, p) == group.order // n.order]
            least = min(passing, key=lambda n: n.order)
            assert all(least.is_subset_of(n) for n in passing), (name, p)
            assert se.p_residual(group, p) == least, (name, p)
    with pytest.raises(ValueError, match="not prime"):
        se.p_residual(groups[0][1], 4)


@pytest.mark.parametrize("p", [1, 4, 6])
def test_every_function_of_a_prime_rejects_a_non_prime(by_name, p):
    # S4 is not 2-supersoluble, so a 4 or 6 read as "some prime" would have
    # answered True before; 1 would have reached p_part's base check
    s4 = by_name["S4"]
    for fn in (
        se.is_p_soluble,
        se.is_p_supersoluble,
        se.classify.is_p_nilpotent,
        se.radical_p,
        se.classify.radical_p_prime,
        se.classify.fitting_p,
    ):
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            fn(s4, p)


def test_p_soluble_nodes_of_a_prime_not_dividing_the_order(by_name):
    # every chief factor of S4 is a 5'-group
    s4 = by_name["S4"]
    assert p_soluble_nodes(s4, 5) == (True,) * len(se.normal_lattice(s4).nodes)


def test_fitting_s4(by_name):
    assert se.fitting(by_name["S4"]).order == 4


def test_fitting_p_s4(by_name):
    s4 = by_name["S4"]
    assert se.radical_p_prime(s4, 2).order == 1
    assert se.fitting_p(s4, 2).order == 4
    # O_{3'}(S4) = V4; S4/V4 is S3 with O_3 of order 3, so F_3(S4) = A4,
    # the largest normal 3-nilpotent subgroup
    assert se.fitting_p(s4, 3).order == 12


def test_p_nilpotency_s3(by_name):
    s3 = by_name["S3"]
    assert se.is_p_nilpotent(s3, 2)
    assert not se.is_p_nilpotent(s3, 3)


def test_a5_not_p_soluble(by_name):
    for p in (2, 3, 5):
        assert not se.is_p_soluble(by_name["A5"], p)


def test_p_groups_are_nilpotent(by_name):
    for name in ("Q8", "D16", "C8", "C3^3", "C5^3"):
        assert se.is_nilpotent(by_name[name])


def test_supersoluble_examples(by_name):
    assert se.is_supersoluble(by_name["S3"])
    assert not se.is_supersoluble(by_name["A4"])


def test_s4_p_supersolubility(by_name):
    s4 = by_name["S4"]
    assert se.is_p_supersoluble(s4, 3)
    assert not se.is_p_supersoluble(s4, 2)


def test_composite_chief_primes_against_every_cover(corpus400, group1875, lattice_rich_groups):
    # one chief series read against every cover pair of the lattice: p is
    # missing iff every chief factor of order divisible by p has order p,
    # which is p-supersolubility (a factor of order p is a p-group, every
    # other one a p'-group), and the set is empty iff every factor is prime
    from subembed.classify import composite_chief_primes
    from subembed.subgroups import is_prime

    lattice = [(name, lattice_rich_groups[name]) for name in INVARIANTS_LATTICE]
    checked = []
    for name, group in [*corpus400, ("(C5^2xC5^2):C3", group1875), *lattice]:
        lat = se.normal_lattice(group)
        factors = {lat.nodes[l].order // lat.nodes[k].order for k, l in lat.covers}
        composite = composite_chief_primes(group)
        assert se.is_supersoluble(group) == (not composite) == all(map(is_prime, factors)), name
        for p in prime_divisors(group.order):
            oracle = all(n % p or n == p for n in factors)
            assert (p not in composite) == se.is_p_supersoluble(group, p) == oracle, (name, p)
            checked.append(oracle)
    assert (len(checked), checked.count(False)) == (120, 12)


def test_soluble_two_routes_agree(lattice_rich_groups):
    groups = apart_corpus(120) + list(lattice_rich_groups.items())
    for name, group in groups:
        assert se.is_soluble(group) == soluble_by_chief_factors(group), name


def test_nilpotency_three_ways():
    for name, group in apart_corpus(60):
        a = se.is_nilpotent(group)
        b = se.fitting(group).order == group.order
        c = se.lower_central_series(group)[-1].order == 1
        assert a == b == c, name


def test_hypercentre(by_name):
    assert se.hypercentre(by_name["D8"]).order == 8  # nilpotent: Z_inf = G
    assert se.hypercentre(by_name["S3"]).order == 1
    assert se.hypercentre(by_name["SL(2,3)"]).order == 2


def test_hypercentre_over_matches_the_quotient_oracle():
    # the upper central series mod K, climbed in G from one commutator
    # block, against the centres of G/K and its quotients built as groups
    for name, group in apart_corpus(60):
        for node in se.normal_lattice(group).nodes:
            assert hypercentre_over(node) == quotient_hypercentre_over(node), (name, node.order)
    s3 = dict(apart_corpus(6))["S3"]
    with pytest.raises(se.InvariantError, match="not normal"):
        hypercentre_over(se.span(s3, [s3.index_of(se.parse_cycles("(1 2)", 3))]))


def test_u_hypercentre_examples(by_name):
    assert se.u_hypercentre(by_name["A4"]).order == 1
    assert se.u_hypercentre(by_name["S3"]).order == 6
    assert se.u_hypercentre(by_name["SL(2,3)"]).order == 2
    assert se.u_hypercentre(by_name["SL(2,3)"]) == se.center(by_name["SL(2,3)"])


def test_u_hypercentre_supersoluble_is_whole():
    for name, group in apart_corpus(60):
        if se.is_supersoluble(group):
            assert se.u_hypercentre(group).order == group.order, name


def test_u_hypercentre_against_brute_force():
    for name, group in apart_corpus(60):
        assert se.u_hypercentre(group) == brute_u_hypercentre(group), name


def test_f_star_examples(by_name):
    assert se.f_star(by_name["A5"]).order == 60
    assert se.f_star(by_name["S4"]).order == 4
    assert se.f_star(by_name["C12"]).order == 12


def test_f_star_matches_child_group_oracle():
    """The covers of F(G) inside F·C_G(F), against Soc(F·C_G(F)/F) with
    F·C_G(F) and its quotient built as groups."""
    D = se.Direct
    extra = {
        "S5xC3": D(se.Sym(5), se.Cyclic(3)),
        "A5xS3": D(se.Alt(5), se.Sym(3)),
        "A5xA4": D(se.Alt(5), se.Alt(4)),
        "A5xC2^2": D(se.Alt(5), se.ElemAbelian(2, 2)),
        "S6": se.Sym(6),
        "A6": se.Alt(6),
        "A5xA5": D(se.Alt(5), se.Alt(5)),
        "S5xS3": D(se.Sym(5), se.Sym(3)),
        "SL(2,3)xA5": D(se.SL23(), se.Alt(5)),
        "SL(2,5)": se.Perm(
            24,
            (
                "(1 6 11 16 21)(2 12 22 7 17)(3 18 8 23 13)(4 24 19 14 9)",
                "(1 20 4 5)(2 15 3 10)(6 21 24 9)(7 16 23 14)(8 11 22 19)(12 17 18 13)",
            ),
        ),
    }
    groups = apart_corpus(400, include_example_1875=True)
    groups += [(name, se.build(expr)) for name, expr in extra.items()]
    for name, group in groups:
        assert se.f_star(group) == child_group_f_star(group), name
    sl25 = dict(groups)["SL(2,5)"]
    assert se.fitting(sl25).order == 2
    assert se.f_star(sl25).order == 120


def test_f_star_equals_fitting_when_soluble():
    for name, group in apart_corpus(60):
        if se.is_soluble(group):
            assert se.f_star(group) == se.fitting(group), name
        assert se.fitting(group).is_subset_of(se.f_star(group)), name


def test_nilpotent_residual_examples(by_name):
    assert se.nilpotent_residual(by_name["S3"]).order == 3
    assert se.nilpotent_residual(by_name["Q8"]).order == 1
    assert se.nilpotent_residual(by_name["A5"]).order == 60


def test_nilpotent_residual_is_smallest_with_nilpotent_quotient():
    for name, group in apart_corpus(60):
        res = se.nilpotent_residual(group)
        lat = se.normal_lattice(group)
        for node in lat.nodes:
            quotient_nilpotent = se.is_nilpotent(se.quotient(group, node).image)
            if node == res:
                assert quotient_nilpotent, name
            if quotient_nilpotent:
                assert res.is_subset_of(node), name


def test_class_report_invariants():
    for name, group in apart_corpus(60):
        report = class_report(group)
        assert report.fitting.is_subset_of(report.f_star)
        assert report.centre.is_subset_of(report.hypercentre)
        assert report.hypercentre.is_subset_of(report.u_hypercentre)
        for p, pr in report.primes.items():
            assert pr.o_p.is_subset_of(report.fitting)
            if report.supersoluble:
                assert report.soluble
            if report.soluble:
                assert pr.p_soluble
            assert pr.sylow_order == p_part(group.order, p)


def test_class_report_to_dict_is_jsonable(by_name):
    import json

    report = class_report(by_name["SL(2,3)"])
    text = json.dumps(report.to_dict(), sort_keys=True)
    assert '"order": 24' in text


def _check_group_level(name, group):
    """Z_U, Z_inf and F_p read as intervals of G's lattice, against the
    routes through quotient groups."""
    assert se.u_hypercentre(group) == quotient_u_hypercentre(group), name
    assert se.hypercentre(group) == quotient_hypercentre(group), name
    for p in prime_divisors(group.order):
        assert se.fitting_p(group, p) == quotient_fitting_p(group, p), (name, p)


def _check_normal_subgroups(name, group):
    """Radicals and tests of every normal E read as E ∩ radical(G) and off
    G's covers, against E and G/O_p'(E) built as groups."""
    f_star = se.f_star(group)
    for i, e in enumerate(se.normal_lattice(group).nodes):
        assert intersect(e, f_star) == child_f_star(e), (name, e.order)
        for p in prime_divisors(group.order):
            where = (name, e.order, p)
            o = o_p_prime_of_normal(e, p)
            assert o == child_o_p_prime(e, p), where
            assert intersect(e, se.fitting_p(group, p)) == child_fitting_p(e, p), where
            assert p_soluble_nodes(group, p)[i] == child_is_p_soluble(e, p), where
            p_nilpotent, _ = _e_p_nilpotent(group, {"p": p, "E": e})
            assert p_nilpotent == child_is_p_nilpotent(e, p), where
            assert u_hypercentre_over(o) == child_z_u_mod_o_p_prime(e, p), where
            s = sylow_of_normal(e, p)
            assert s.is_subset_of(e) and s.order == p_part(e.order, p), where


def test_lattice_structure_matches_child_group_oracles():
    for name, group in apart_corpus(120):
        _check_group_level(name, group)
        for node in se.normal_lattice(group).nodes:
            assert u_hypercentre_over(node) == quotient_u_hypercentre_over(node), name
        _check_normal_subgroups(name, group)


def test_lattice_rich_structure_matches_child_group_oracles(lattice_rich_groups):
    for name in INVARIANTS_LATTICE:
        group = lattice_rich_groups[name]
        _check_group_level(name, group)
        # every node of a nilpotent group is nilpotent, so its radicals are
        # forced; the 3000 nodes of the seven nilpotent ones as child groups
        # would add about 11 s
        if not se.is_nilpotent(group):
            _check_normal_subgroups(name, group)
