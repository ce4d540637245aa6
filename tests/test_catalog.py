import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import subembed as se
from subembed import GroupFileError
from subembed.catalog import (
    EXAMPLE_1875_EXPR,
    EXAMPLE_1875_NAME,
    build,
    parse_expr,
    parse_group_file,
)
from subembed.subgroups import Subgroup, exponent


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_group_files_parse_and_build():
    # the group-file format is line-oriented, so an example wrapped over two
    # lines is one that a user cannot copy
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    orders = {}
    for block in blocks:
        if block.startswith("group "):
            name, expr = parse_group_file(block)
            orders[name] = build(expr).order
    assert orders == {"S3": 6, "G1875": 1875}


def test_direct_product_c2_c3():
    g = build(parse_expr("Direct(Cyclic(2), Cyclic(3))"))
    assert g.order == 6
    assert se.is_abelian(g)


def test_alt5():
    g = build(parse_expr("Alt(5)"))
    assert g.order == 60 and g.degree == 5


def test_dihedral_and_quaternion():
    d8 = build(parse_expr("Dihedral(8)"))
    assert d8.order == 8 and not se.is_abelian(d8)
    q8 = build(parse_expr("Quaternion8"))
    assert q8.order == 8
    assert exponent(Subgroup.whole(q8)) == 4
    # Q8 has a unique involution, unlike D8
    assert sum(1 for i in range(8) if q8.element_order(i) == 2) == 1
    assert sum(1 for i in range(8) if d8.element_order(i) == 2) == 5


def test_dihedral_rejects_degenerate_orders():
    with pytest.raises(ValueError):
        build(parse_expr("Dihedral(4)"))
    with pytest.raises(ValueError):
        build(parse_expr("Dihedral(7)"))


def test_elem_abelian():
    g = build(parse_expr("ElemAbelian(3, 2)"))
    assert g.order == 9
    assert exponent(Subgroup.whole(g)) == 3


def test_sl23():
    g = build(parse_expr("SL23"))
    assert g.order == 24
    assert se.center(g).order == 2
    assert not se.is_abelian(g)
    assert se.sylow(g, 2).order == 8


def test_semidirect_c7_c3():
    g = build(parse_expr('Semidirect(Cyclic(7), Cyclic(3), "g1 -> g1^2")'))
    assert g.order == 21
    assert not se.is_abelian(g)
    assert g.degree == 7


def test_semidirect_c5_c4():
    g = build(parse_expr('Semidirect(Cyclic(5), Cyclic(4), "g1 -> g1^2")'))
    assert g.order == 20
    assert se.is_supersoluble(g)


def test_semidirect_inversion():
    g = build(
        parse_expr('Semidirect(ElemAbelian(3,2), Cyclic(2), "g1 -> g1^-1, g2 -> g2^-1")')
    )
    assert g.order == 18


def test_semidirect_rejects_bad_automorphism():
    # g1 -> g1^3 has order 6 as a map on C7 (3^6 = 729 = 1 mod 7), so it is an
    # automorphism but not compatible with a complement of order 3
    with pytest.raises(ValueError, match="homomorphism"):
        build(parse_expr('Semidirect(Cyclic(7), Cyclic(3), "g1 -> g1^3")'))


def test_semidirect_rejects_non_generating_images():
    with pytest.raises(ValueError, match="generate"):
        build(parse_expr('Semidirect(Cyclic(4), Cyclic(2), "g1 -> g1^2")'))


def test_semidirect_rejects_missing_assignment():
    with pytest.raises(ValueError, match="unassigned"):
        build(parse_expr('Semidirect(ElemAbelian(3,2), Cyclic(2), "g1 -> g1^-1")'))


def test_semidirect_warns_and_quotients_unfaithful_action():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = build(parse_expr('Semidirect(Cyclic(5), Cyclic(4), "g1 -> g1^-1")'))
    assert any("not faithful" in str(w.message) for w in caught)
    assert g.order == 10  # C4 acts through C2


def test_example_1875_build():
    g = build(EXAMPLE_1875_EXPR)
    assert g.order == 1875
    assert g.degree == 625


def test_build_is_deterministic():
    a = build(parse_expr('Semidirect(Cyclic(7), Cyclic(3), "g1 -> g1^2")'))
    b = build(parse_expr('Semidirect(Cyclic(7), Cyclic(3), "g1 -> g1^2")'))
    assert np.array_equal(a.rows, b.rows)


def test_parse_group_file_gens():
    name, expr = parse_group_file(
        """# a permutation group
group S3
degree 3
gen (1 2)
gen (1 2 3)
"""
    )
    assert name == "S3"
    g = build(expr)
    assert g.order == 6


def test_parse_group_file_expr():
    name, expr = parse_group_file("group A5\nexpr Alt(5)\n")
    assert name == "A5"
    assert build(expr).order == 60


def test_parse_group_file_point_out_of_range():
    with pytest.raises(GroupFileError) as exc:
        parse_group_file("group bad\ndegree 5\ngen (1 7)\n")
    assert exc.value.line == 3


def test_parse_group_file_errors():
    with pytest.raises(GroupFileError):
        parse_group_file("degree 3\ngen (1 2)\n")  # missing group line
    with pytest.raises(GroupFileError):
        parse_group_file("group x\nfrobnicate 3\n")
    with pytest.raises(GroupFileError):
        parse_group_file("group x\ngen (1 2)\n")  # gen before degree
    with pytest.raises(GroupFileError):
        parse_group_file("group x\nexpr Alt(5)\ndegree 3\n")
    with pytest.raises(GroupFileError) as exc:
        parse_group_file("group x\ndegree 3\ngen (1 2 3)\ndegree 4\n")
    assert exc.value.line == 4
    with pytest.raises(GroupFileError) as exc:
        parse_group_file("group x\nexpr Alt(5)\nexpr Sym(3)\n")
    assert exc.value.line == 3


def test_parse_expr_nested_semidirect_roundtrip():
    text = (
        'Semidirect(Direct(ElemAbelian(5,2), ElemAbelian(5,2)), Cyclic(3), '
        '"g1 -> g2, g2 -> g1^-1*g2^-1, g3 -> g4, g4 -> g3^-1*g4^-1")'
    )
    assert parse_expr(text) == EXAMPLE_1875_EXPR


def test_parse_expr_rejects_trailing_garbage():
    with pytest.raises(ValueError):
        parse_expr("Alt(5) extra")
    with pytest.raises(ValueError):
        parse_expr("Nonsense(3)")


def test_corpus_max_order_one_is_trivial_only():
    corpus = se.builtin_corpus(1)
    assert [name for name, _ in corpus] == ["C1"]
    assert corpus[0][1].order == 1


def test_corpus_at_60_includes_a5_and_respects_bound():
    corpus = se.builtin_corpus(60)
    names = [name for name, _ in corpus]
    assert "A5" in names
    assert "SL(2,3)" in names
    assert all(group.order <= 60 for _, group in corpus)


def test_corpus_is_large_enough_at_400():
    corpus = se.builtin_corpus(400)
    assert len(corpus) >= 40
    assert all(group.order <= 400 for _, group in corpus)


def test_corpus_includes_1875_only_under_flag():
    with_flag = se.builtin_corpus(10, include_example_1875=True)
    names = [name for name, _ in with_flag]
    assert EXAMPLE_1875_NAME in names
    without = se.builtin_corpus(10)
    assert EXAMPLE_1875_NAME not in [name for name, _ in without]


def test_corpus_orders_match_constructions():
    expected = {
        "C12": 12,
        "C2^3": 8,
        "C3^3": 27,
        "C5^3": 125,
        "D20": 20,
        "Q8": 8,
        "C4xC2": 8,
        "S5": 120,
        "A4xC3": 36,
        "D8xC2": 16,
        "C7:C3": 21,
        "C5:C4": 20,
        "C3^2:C2": 18,
    }
    by_name = dict(se.builtin_corpus(400))
    for name, order in expected.items():
        assert by_name[name].order == order, name


def test_corpus_sorted_and_deterministic():
    a = se.builtin_corpus(100)
    b = se.builtin_corpus(100)
    assert [n for n, _ in a] == [n for n, _ in b]
    orders = [g.order for _, g in a]
    assert orders == sorted(orders)
