import subembed as se
from subembed.classify import (
    class_report,
    p_soluble_nodes,
    soluble_by_chief_factors,
    soluble_by_derived_series,
    u_hypercentre_over,
)
from subembed.harness import _e_p_nilpotent, o_p_prime_of_normal, sylow_of_normal
from subembed.subgroups import intersect, p_part, prime_divisors

from conftest import (
    brute_normal_masks,
    brute_u_hypercentre,
    child_f_star,
    child_fitting_p,
    child_is_p_nilpotent,
    child_is_p_soluble,
    child_o_p_prime,
    child_z_u_mod_o_p_prime,
    quotient_fitting_p,
    quotient_hypercentre,
    quotient_u_hypercentre,
    quotient_u_hypercentre_over,
)


def test_sylow_orders(by_name):
    assert se.sylow(by_name["A5"], 5).order == 5
    assert se.sylow(by_name["S4"], 2).order == 8
    v4 = se.sylow(by_name["A4"], 2)
    assert v4.order == 4
    assert v4.is_normal()


def test_sylow_full_p_part():
    for name, group in se.builtin_corpus(120):
        for p in prime_divisors(group.order):
            assert se.sylow(group, p).order == p_part(group.order, p)


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


def test_soluble_two_routes_agree():
    for name, group in se.builtin_corpus(120):
        assert soluble_by_derived_series(group) == soluble_by_chief_factors(group), name


def test_nilpotency_three_ways():
    for name, group in se.builtin_corpus(60):
        a = se.is_nilpotent(group)
        b = se.fitting(group).order == group.order
        c = se.lower_central_series(group)[-1].order == 1
        assert a == b == c, name


def test_hypercentre(by_name):
    assert se.hypercentre(by_name["D8"]).order == 8  # nilpotent: Z_inf = G
    assert se.hypercentre(by_name["S3"]).order == 1
    assert se.hypercentre(by_name["SL(2,3)"]).order == 2


def test_u_hypercentre_examples(by_name):
    assert se.u_hypercentre(by_name["A4"]).order == 1
    assert se.u_hypercentre(by_name["S3"]).order == 6
    assert se.u_hypercentre(by_name["SL(2,3)"]).order == 2
    assert se.u_hypercentre(by_name["SL(2,3)"]) == se.center(by_name["SL(2,3)"])


def test_u_hypercentre_supersoluble_is_whole():
    for name, group in se.builtin_corpus(60):
        if se.is_supersoluble(group):
            assert se.u_hypercentre(group).order == group.order, name


def test_u_hypercentre_against_brute_force():
    for name, group in se.builtin_corpus(60):
        assert se.u_hypercentre(group) == brute_u_hypercentre(group), name


def test_f_star_examples(by_name):
    assert se.f_star(by_name["A5"]).order == 60
    assert se.f_star(by_name["S4"]).order == 4
    assert se.f_star(by_name["C12"]).order == 12


def test_f_star_equals_fitting_when_soluble():
    for name, group in se.builtin_corpus(60):
        if se.is_soluble(group):
            assert se.f_star(group) == se.fitting(group), name
        assert se.fitting(group).is_subset_of(se.f_star(group)), name


def test_nilpotent_residual_examples(by_name):
    assert se.nilpotent_residual(by_name["S3"]).order == 3
    assert se.nilpotent_residual(by_name["Q8"]).order == 1
    assert se.nilpotent_residual(by_name["A5"]).order == 60


def test_nilpotent_residual_is_smallest_with_nilpotent_quotient():
    for name, group in se.builtin_corpus(60):
        res = se.nilpotent_residual(group)
        lat = se.normal_lattice(group)
        for node in lat.nodes:
            quotient_nilpotent = se.is_nilpotent(se.quotient(group, node).image)
            if node == res:
                assert quotient_nilpotent, name
            if quotient_nilpotent:
                assert res.is_subset_of(node), name


def test_class_report_invariants():
    for name, group in se.builtin_corpus(60):
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


def _lattice_rich_groups():
    """The nine lattice-rich groups of the ``invariants-lattice`` benchmark."""
    E, D = se.ElemAbelian, se.Direct
    exprs = {
        "C2^5": E(2, 5),
        "C3^4": E(3, 4),
        "C2^4xC3^2": D(E(2, 4), E(3, 2)),
        "C2^3xC3^3": D(E(2, 3), E(3, 3)),
        "D8xC2^3": D(se.Dihedral(8), E(2, 3)),
        "Q8xC2^3": D(se.Quaternion8(), E(2, 3)),
        "C2^5xC3": D(E(2, 5), se.Cyclic(3)),
        "S4xC2^3": D(se.Sym(4), E(2, 3)),
        "S3xS3xC2^2": D(D(se.Sym(3), se.Sym(3)), E(2, 2)),
    }
    return [(name, se.build(expr)) for name, expr in exprs.items()]


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
    for name, group in se.builtin_corpus(120):
        _check_group_level(name, group)
        for node in se.normal_lattice(group).nodes:
            assert u_hypercentre_over(node) == quotient_u_hypercentre_over(node), name
        _check_normal_subgroups(name, group)


def test_lattice_rich_structure_matches_child_group_oracles():
    for name, group in _lattice_rich_groups():
        _check_group_level(name, group)
        # every node of a nilpotent group is nilpotent, so its radicals are
        # forced; the 3000 nodes of the seven nilpotent ones as child groups
        # would add about 11 s
        if not se.is_nilpotent(group):
            _check_normal_subgroups(name, group)
