import inspect
import math
import os
import subprocess
import sys
import tracemalloc
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import subembed as se
from subembed import ResourceCapError, generate_group, parse_cycles
from subembed.catalog import EXAMPLE_1875_EXPR
from subembed.groups import orbit_labels

from conftest import raw_closure, raw_compose, raw_inverse, reference_generate_group


def test_s3_from_standard_generators():
    g = generate_group([parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)], 3)
    assert g.order == 6


def test_a5_from_standard_generators():
    gens = [parse_cycles("(1 2 3 4 5)", 5), parse_cycles("(1 2 3)", 5)]
    assert generate_group(gens, 5).order == 60


def test_empty_generating_set_is_trivial():
    g = generate_group([], 4)
    assert g.order == 1
    assert g.perm(0).is_identity()


def test_order_cap_names_partial_count():
    gens = [parse_cycles("(1 2 3 4 5)", 5), parse_cycles("(1 2 3)", 5)]
    with pytest.raises(ResourceCapError) as exc:
        generate_group(gens, 5, cap=10)
    assert exc.value.reached == 10


def test_memo_computes_once_per_key():
    group = generate_group([parse_cycles("(1 2 3)", 3)], degree=3)
    calls = []

    def compute():
        calls.append(1)
        return object()

    first = group.memo("demo", 5, compute)
    second = group.memo("demo", 6, compute)
    assert group.memo("demo", 5, compute) is first
    assert group.memo("other", 5, compute) is not first
    assert second is not first and len(calls) == 3
    assert group.cache["demo"] == {5: first, 6: second}


def test_conj_by_all_rejects_out_of_range_index():
    s4 = se.build(se.Sym(4))
    sub = se.span(s4, [1])
    for h in (-1, s4.order):
        with pytest.raises(ValueError, match="out of range"):
            s4.conj_by_all(h)
        with pytest.raises(ValueError, match="out of range"):
            s4.conj_set(sub.index_array, h)
        with pytest.raises(ValueError, match="out of range"):
            sub.conjugate(h)
        with pytest.raises(ValueError, match="out of range"):
            s4.commutators([1], [h])


def test_commutators_match_row_composition(corpus400):
    """[x, y] = x^-1 y^-1 x y on raw image tuples, over the generators and,
    so that the block is not square, the last element as well."""
    for name, group in corpus400:
        if group.order > 60:
            continue
        xs = list(group.gen_indices)
        ys = xs + [group.order - 1]
        block = group.commutators(xs, ys)
        assert block.shape == (len(xs), len(ys)), name
        for i, x in enumerate(xs):
            a = group.perm(x).images
            for j, y in enumerate(ys):
                b = group.perm(y).images
                want = raw_compose(raw_compose(raw_inverse(a), raw_inverse(b)), raw_compose(a, b))
                assert group.perm(block[i, j]).images == want, (name, x, y)


def test_identity_is_index_zero():
    for _, group in se.builtin_corpus(60):
        assert group.perm(0).is_identity()


def test_element_orders():
    a5 = se.build(se.Alt(5))
    assert a5.element_order(0) == 1
    five_cycle = a5.index_of(parse_cycles("(1 2 3 4 5)", 5))
    assert a5.element_order(five_cycle) == 5
    a4 = se.build(se.Alt(4))
    double = a4.index_of(parse_cycles("(1 2)(3 4)", 4))
    assert a4.element_order(double) == 2


def test_conjugacy_classes_a5():
    a5 = se.build(se.Alt(5))
    assert sorted(len(c) for c in a5.conjugacy_classes()) == [1, 12, 12, 15, 20]


def test_conjugacy_classes_s3():
    s3 = se.build(se.Sym(3))
    assert sorted(len(c) for c in s3.conjugacy_classes()) == [1, 2, 3]


def test_orbit_labels_against_search():
    rng = np.random.default_rng(0)
    n = 400
    cycle = np.roll(np.arange(n), 1)
    for maps in ([cycle], [np.argsort(cycle)], [rng.permutation(n)], [rng.permutation(n) for _ in range(2)]):
        maps = np.asarray(maps)
        # search from each point not yet reached: it is the least of its orbit
        least = [None] * n
        for x in range(n):
            frontier = [x] if least[x] is None else []
            while frontier:
                for y in frontier:
                    least[y] = x
                frontier = {int(m[y]) for y in frontier for m in maps if least[int(m[y])] is None}
        assert orbit_labels(maps).tolist() == least


def test_abelian_groups_have_singleton_classes():
    g = se.build(se.Cyclic(12))
    assert all(len(c) == 1 for c in g.conjugacy_classes())


def test_class_equation(by_name):
    for name in ("S4", "A5", "D16", "SL(2,3)", "C7:C3"):
        group = by_name[name]
        sizes = [len(c) for c in group.conjugacy_classes()]
        assert sum(sizes) == group.order
        assert all(group.order % s == 0 for s in sizes)
        identity_class = group.conjugacy_classes()[0]
        assert list(identity_class) == [0]
    # oracle: each class is {g^-1 x g : g in G}, composed on raw image tuples
    for name, group in se.builtin_corpus(60) + [("S5", se.build(se.Sym(5)))]:
        perms = [group.perm(i).images for i in range(group.order)]
        index = {row: i for i, row in enumerate(perms)}
        inverses = [raw_inverse(p) for p in perms]
        classes = group.conjugacy_classes()
        assert [int(c[0]) for c in classes] == sorted(int(c[0]) for c in classes), name
        for cls in classes:
            assert list(cls) == sorted(cls), name
            x = perms[int(cls[0])]
            orbit = {index[raw_compose(raw_compose(inv, x), g)] for g, inv in zip(perms, inverses)}
            assert orbit == {int(i) for i in cls}, name


def test_order_divides_degree_factorial():
    for name, group in se.builtin_corpus(120):
        assert math.factorial(group.degree) % group.order == 0


def test_closure_against_raw_composition():
    # every table product agrees with independent tuple composition
    for expr in (se.Sym(3), se.Alt(4), se.Dihedral(10)):
        group = se.build(expr)
        perms = [group.perm(i).images for i in range(group.order)]
        table_products = {
            (i, j): group.perm(group.mult(i, j)).images
            for i in range(group.order)
            for j in range(group.order)
        }
        for (i, j), row in table_products.items():
            assert row == raw_compose(perms[i], perms[j])
        assert raw_closure(set(perms)) == set(perms)


def test_cyclic_closure_is_the_power_walk():
    # <g> from {1} is g, g^2, ... up to 1: element_order(g) members, the
    # powers of g under tuple composition, and g the one generator kept
    from subembed.groups import closure_indices, extend_closure

    groups = [g for _, g in se.builtin_corpus(60)]
    groups += [se.build(se.Sym(6)), se.build(se.Direct(se.SL23(), se.Sym(4)))]
    for group in groups:
        images = [group.perm(i).images for i in range(group.order)]
        identity = images[0]
        for g in range(group.order):
            members = closure_indices(group, [g])
            assert len(members) == group.element_order(g), (group.name, g)
            powers, x = {identity}, images[g]
            while x != identity:
                powers.add(x)
                x = raw_compose(x, images[g])
            assert {images[i] for i in members} == powers, (group.name, g)
            gens = []
            member = extend_closure(group, np.arange(group.order) == 0, gens, [g])
            assert gens == ([g] if g else []), (group.name, g)
            assert (member.nonzero()[0] == members).all(), (group.name, g)


def test_closure_keeps_index_two_subgroups():
    # a closure becomes all of G only past |G|/2 elements; at exactly half
    # it must not: A6 in S6, and an index-2 subgroup of C2^4
    from subembed.groups import closure_indices

    s6 = se.build(se.Sym(6))
    even = [i for i in range(s6.order) if sum(len(c) - 1 for c in s6.perm(i).cycles()) % 2 == 0]
    a6 = closure_indices(s6, even)
    assert len(a6) == 360 and a6.tolist() == even
    three, five = (s6.index_of(parse_cycles(t, 6)) for t in ("(1 2 3)", "(2 3 4 5 6)"))
    assert closure_indices(s6, [three, five]).tolist() == even
    assert se.span(s6, even).order == 360
    c2_4 = se.build(se.ElemAbelian(2, 4))
    assert len(closure_indices(c2_4, c2_4.gen_indices[:3])) == 8
    assert len(closure_indices(c2_4, c2_4.gen_indices)) == 16


def test_inverse_table(corpus400, group1875):
    groups = [se.build(se.Sym(4)), group1875] + [g for _, g in corpus400]
    for g in groups:
        i = np.arange(g.order)
        assert (g.table[i, g.inv] == 0).all() and (g.table[g.inv, i] == 0).all(), g.name
    s4 = groups[0]
    assert all(s4.mult(s4.inverse(i), i) == 0 for i in range(s4.order))


def test_generation_is_deterministic():
    a = se.build(se.Sym(4))
    b = se.build(se.Sym(4))
    assert np.array_equal(a.rows, b.rows)


def test_index_of_rejects_foreign_permutation():
    a4 = se.build(se.Alt(4))
    with pytest.raises(KeyError):
        a4.index_of(parse_cycles("(1 2)", 4))


# -- the Cayley table -------------------------------------------------------


def _assert_table_rows(group, row_indices):
    index = {r.tobytes(): k for k, r in enumerate(group.rows)}
    for i in row_indices:
        products = group.rows[:, group.rows[i]]  # products[j] = rows[j][rows[i]]
        expected = [index[r.tobytes()] for r in products]
        assert group.table[i].tolist() == expected


def _degenerate_generator_lists():
    """(generators, degree) pairs whose generator columns land on the same
    table column or on column 0, of degree 1, or empty."""
    identity, cycle, swap = (parse_cycles(t, 4) for t in ("()", "(1 2 3 4)", "(1 2)"))
    return [
        ([cycle, identity, swap], 4),
        ([swap, cycle, swap, cycle], 4),
        ([se.Permutation((1,))], 1),
        ([], 4),
    ]


def test_table_matches_row_composition():
    groups = [g for _, g in se.builtin_corpus(48)] + [se.build(se.Sym(6))]
    groups += [generate_group(gens, degree) for gens, degree in _degenerate_generator_lists()]
    for group in groups:
        _assert_table_rows(group, range(group.order))


def test_table_matches_row_composition_1875(group1875):
    rng = np.random.default_rng(0)
    _assert_table_rows(group1875, rng.choice(group1875.order, 12, replace=False))


def test_builder_matches_the_per_row_reference(
    corpus400, group1875, query_mix_groups, lattice_rich_groups
):
    groups = [g for _, g in corpus400] + [group1875] + [g for _, g in query_mix_groups]
    groups += list(lattice_rich_groups.values())
    cases = [(g.generators, g.degree) for g in groups] + _degenerate_generator_lists()
    for gens, degree in cases:
        group, reference = generate_group(gens, degree), reference_generate_group(gens, degree)
        assert group.rows.dtype == np.min_scalar_type(degree - 1), group
        assert group.rows.flags.c_contiguous
        assert np.array_equal(group.rows, reference.rows), group
        assert group.bfs_edges == reference.bfs_edges, group
        assert group.gen_indices == reference.gen_indices, group
        assert group._gen_columns.dtype == reference._gen_columns.dtype, group
        assert np.array_equal(group._gen_columns, reference._gen_columns), group


def test_builder_cap_matches_the_per_row_reference(corpus400, query_mix_groups):
    groups = [g for _, g in corpus400 + query_mix_groups if g.order > 1]
    for group in groups:
        gens, degree, order = group.generators, group.degree, group.order
        reached = []
        for build in (generate_group, reference_generate_group):
            with pytest.raises(ResourceCapError) as exc:
                build(gens, degree, cap=order - 1)
            reached.append(exc.value.reached)
        assert reached == [order - 1, order - 1], group
        assert generate_group(gens, degree, cap=order).order == order


def _traced_peak(build):
    """The tracemalloc peak of ``build()`` over what was allocated before
    it, and its result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = build()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, result


def test_building_the_1875_group_peaks_near_its_rows():
    # each layer's new rows are copied out of their product block, and the
    # row keys go before the layers are joined (2.7x of the two-byte rows);
    # a builder that kept every row as a view of its product block peaked
    # at 6.6 times the int32 rows it then joined
    peak, group = _traced_peak(lambda: se.build(EXAMPLE_1875_EXPR))
    assert group.order == 1875
    assert peak <= 3 * group.rows.nbytes, peak / group.rows.nbytes


def test_first_table_and_inverse_read_peaks_near_the_table():
    # argmin down the Fortran-ordered table's columns makes no copy of it;
    # argmin along its rows copies it, a 2.0x peak
    group = se.build(EXAMPLE_1875_EXPR)
    peak, table = _traced_peak(lambda: (group.table, group.inv)[0])
    assert peak <= 1.1 * table.nbytes, peak / table.nbytes


def test_index_of_keeps_no_row_index():
    # a dict keyed on the row bytes of the 1875 group holds 2.5 MB, about
    # the rows' own size; narrowing the rows column by column holds one
    # boolean per row for the first column and fewer after it
    group = se.build(EXAMPLE_1875_EXPR)
    last = group.perm(group.order - 1)
    peak, index = _traced_peak(lambda: group.index_of(last))
    assert index == group.order - 1
    assert "_row_index" not in vars(group)
    assert peak <= 0.3 * group.rows.nbytes, peak / group.rows.nbytes


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def test_release_drops_every_lazy_value():
    lazy = [
        name
        for name in dir(se.FiniteGroup)
        if isinstance(inspect.getattr_static(se.FiniteGroup, name), cached_property)
    ]
    assert {"table", "inv", "element_orders", "_classes", "_row_index"} <= set(lazy)
    group = se.build(se.Sym(4))
    before = {name: getattr(group, name) for name in lazy}
    se.normal_lattice(group)
    assert group.cache and set(lazy) <= set(vars(group))
    group.release()
    assert group.cache == {} and not set(lazy) & set(vars(group))
    for name in lazy:  # computed again on the next read, to the same value
        assert _same(getattr(group, name), before[name]), name


def test_table_is_built_lazily():
    gens = [parse_cycles("(1 2 3 4 5)", 5), parse_cycles("(1 2 3)", 5)]
    group = generate_group(gens, 5)
    assert "table" not in vars(group)
    group.mult(1, 2)
    assert "table" in vars(group)


def test_table_dtype_fits_the_order():
    c2_8 = se.build(se.ElemAbelian(2, 8))
    assert c2_8.order == 256 and c2_8.table.dtype == np.uint8
    c257 = se.build(se.Cyclic(257))
    assert c257.order == 257 and c257.table.dtype == np.uint16
    assert c257.element_order(1) == 257
    # the image rows fit the degree: one byte up to 256 points, two above
    c256 = se.build(se.Cyclic(256))
    assert c256.degree == 256 and c256.rows.dtype == np.uint8
    assert c257.degree == 257 and c257.rows.dtype == np.uint16
    for group in (c256, c257):
        every = list(range(group.order))
        assert [group.index_of(group.perm(i)) for i in every] == every
        assert group.lookup_rows(group.rows).tolist() == every
        assert group.lookup_rows(group.rows.astype(np.int64)).tolist() == every
        with pytest.raises(KeyError):
            group.index_of(parse_cycles("(1 2)", group.degree))
        # the point degree - 1 plus or minus 2^bits: the same narrow bytes,
        # one wrapped past the top and one negative, neither an image row
        wrap = np.iinfo(group.rows.dtype).max + 1
        for shift in (wrap, -wrap):
            row = group.rows[:1].astype(np.int64)
            row[0, -1] += shift
            assert np.array_equal(row.astype(group.rows.dtype), group.rows[:1])
            with pytest.raises(KeyError):
                group.lookup_rows(row)


def _cycle_length_order(images):
    seen = set()
    result = 1
    for start in range(1, len(images) + 1):
        length = 0
        x = start
        while x not in seen:
            seen.add(x)
            x = images[x - 1]
            length += 1
        if length:
            result = math.lcm(result, length)
    return result


def test_element_orders_match_cycle_lengths():
    for expr in (se.Sym(5), se.SL23(), se.Dihedral(16), se.ElemAbelian(3, 3)):
        group = se.build(expr)
        expected = [_cycle_length_order(group.perm(i).images) for i in range(group.order)]
        assert group.element_orders.tolist() == expected


def test_lookup_rows_rejects_rows_outside_the_group():
    a5 = se.build(se.Alt(5))
    assert a5.lookup_rows(a5.rows).tolist() == list(range(a5.order))
    # the index keys on row bytes, so the dtype of the rows must not matter
    assert a5.lookup_rows(a5.rows.astype(np.int64)).tolist() == list(range(a5.order))
    wrapped = a5.rows[:1].astype(np.int64)
    wrapped[0, 0] += 2**32  # the same narrow bytes, but not an image row
    with pytest.raises(KeyError):
        a5.lookup_rows(wrapped)
    for i in range(a5.order):
        odd = a5.rows[i].copy()
        odd[[3, 4]] = odd[[4, 3]]
        with pytest.raises(KeyError):
            a5.lookup_rows(odd[None, :])


def test_import_does_not_load_concurrent_futures():
    # the corpus runs in one thread, so nothing needs the executor machinery
    code = (
        "import sys\n"
        "import subembed\n"
        "assert 'concurrent.futures' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


def test_engine_does_not_import_numpy_ma():
    # numpy.ma costs about 1.6 MB of peak memory when first imported
    code = (
        "import sys\n"
        "import subembed as se\n"
        "g = se.build(se.Sym(5))\n"
        "g.mult(3, 4); g.element_orders; g.conjugacy_classes()\n"
        "se.normal_lattice(g); se.span(g, [1, 2]).gens\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)
