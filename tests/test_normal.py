import random

import pytest

import subembed as se
from subembed import ResourceCapError, parse_cycles
from subembed.subgroups import Subgroup, indices_from_mask, normal_closure_in

from conftest import (
    INVARIANTS_LATTICE,
    apart_corpus,
    brute_covers,
    brute_normal_masks,
    factor_is_abelian,
    matrix_covers,
    raw_compose,
    raw_inverse,
    socle,
)


def idx(group, text):
    return group.index_of(parse_cycles(text, group.degree))


def test_normal_closure_examples(by_name):
    s3 = by_name["S3"]
    gens = s3.gen_indices
    assert normal_closure_in(s3, gens, [idx(s3, "(1 2 3)")]).order == 3
    assert normal_closure_in(s3, gens, [idx(s3, "(1 2)")]).order == 6
    assert normal_closure_in(s3, gens, [0]).order == 1


def test_closures_reject_out_of_range_indices(by_name):
    s4 = by_name["S4"]
    with pytest.raises(ValueError, match="out of range"):
        normal_closure_in(s4, s4.gen_indices, [-1])
    # a seed of one distinct element takes the power walk, any other the
    # closure; either way each index is range-checked
    for seed in ([24], [24, 24], [0, 24], [-1, 1]):
        with pytest.raises(ValueError, match=r"^element index (24|-1) out of range$"):
            se.span(s4, seed)
    with pytest.raises(ValueError, match="out of range"):
        normal_closure_in(s4, [-1], [1])


def test_lattice_s4(by_name):
    lat = se.normal_lattice(by_name["S4"])
    assert [n.order for n in lat.nodes] == [1, 4, 12, 24]
    series = se.chief_series_enumerate(by_name["S4"], 10)
    assert len(series) == 1
    assert series[0].factor_orders == (4, 3, 2)


def test_lattice_a5_simple(by_name):
    lat = se.normal_lattice(by_name["A5"])
    assert [n.order for n in lat.nodes] == [1, 60]
    series = se.chief_series_enumerate(by_name["A5"], 10)
    assert len(series) == 1 and series[0].factor_orders == (60,)


def test_lattice_klein_whole(by_name):
    v4 = by_name["C2^2"]
    lat = se.normal_lattice(v4)
    assert len(lat.nodes) == 5
    series = se.chief_series_enumerate(v4, 10)
    assert len(series) == 3
    assert all(s.factor_orders == (2, 2) for s in series)


# many nodes share an order in these two, so the build must tell
# equal-order nodes apart
EQUAL_ORDER_RICH = ("D8xC2^2", "C2^4xC3")


def test_lattice_against_brute_force(by_name, lattice_rich_groups):
    names = ("S3xC2", "A4", "D8", "C7:C3", "SL(2,3)")
    rich = [(n, lattice_rich_groups[n]) for n in EQUAL_ORDER_RICH]
    for name, group in [(n, by_name[n]) for n in names] + rich:
        expected = brute_normal_masks(group)
        got = {n.mask for n in se.normal_lattice(group).nodes}
        assert got == expected, name


def test_class_closures_are_normal_closures(corpus400, query_mix_groups):
    # the lattice closes each conjugacy class; the normal closure of its
    # representative extends <x> by conjugates of its generators instead
    closures = 0
    for name, group in list(corpus400) + list(query_mix_groups):
        nodes = {node.mask for node in se.normal_lattice(group).nodes}
        for cls in group.conjugacy_classes():
            got = se.span(group, cls)
            closure = normal_closure_in(group, group.gen_indices, [int(cls[0])])
            assert got == closure, (name, int(cls[0]))
            assert got.mask in nodes, name
            closures += 1
    assert closures == 1134  # 912 classes in the corpus, 222 in the query-mix groups


def test_lattice_nodes_are_conjugation_invariant():
    for name, group in apart_corpus(60):
        for node in se.normal_lattice(group).nodes:
            assert node.is_normal(), (name, node.order)


def test_covers_have_empty_interval(by_name):
    for name in ("S4", "D12", "SL(2,3)", "C3^2:C2", "C2^3"):
        group = by_name[name]
        lat = se.normal_lattice(group)
        for k, l in lat.covers:
            low, high = lat.nodes[k], lat.nodes[l]
            assert low.is_subset_of(high) and low.order < high.order
            for mid in lat.nodes:
                if mid.order in (low.order, high.order):
                    continue
                assert not (low.is_subset_of(mid) and mid.is_subset_of(high))


def test_covers_match_brute_force_pass(lattice_rich_groups):
    c2_4 = se.build(se.ElemAbelian(2, 4))
    rich = [(n, lattice_rich_groups[n]) for n in EQUAL_ORDER_RICH]
    for name, group in apart_corpus(60) + [("C2^4", c2_4)] + rich:
        lat = se.normal_lattice(group)
        keys = [(n.order, n.indices) for n in lat.nodes]
        assert keys == sorted(keys) and len(set(keys)) == len(keys), name
        expected = brute_covers(lat.nodes)
        assert list(lat.covers) == expected, name
        for k in range(len(lat.nodes)):
            assert lat.up[k] == tuple(l for kk, l in expected if kk == k), (name, k)


def _gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize(
    "p, n, nodes, covers",
    [(2, 4, 67, 240), (3, 3, 28, 78), (2, 5, 374, 2077), (3, 4, 212, 1120), (2, 6, 2825, 23562)],
)
def test_elementary_abelian_lattice_counts(by_name, p, n, nodes, covers):
    # the normal subgroups are the subspaces of F_p^n: [n, k]_p of dimension
    # k, each lying in (p^(n-k) - 1)/(p - 1) subspaces of dimension k + 1
    spaces = [_gaussian_binomial(n, k, p) for k in range(n + 1)]
    assert sum(spaces) == nodes
    assert sum(s * (p ** (n - k) - 1) // (p - 1) for k, s in enumerate(spaces)) == covers
    group = by_name["C3^3"] if (p, n) == (3, 3) else se.build(se.ElemAbelian(p, n))
    lat = se.normal_lattice(group)
    assert (len(lat.nodes), len(lat.covers)) == (nodes, covers)


def _subspace_lattice(p: int, n: int) -> tuple[int, int]:
    """(nodes, covers) of the lattice of subspaces of F_p^n."""
    spaces = [_gaussian_binomial(n, k, p) for k in range(n + 1)]
    return sum(spaces), sum(s * (p ** (n - k) - 1) // (p - 1) for k, s in enumerate(spaces))


@pytest.mark.parametrize(
    "name, parts, nodes, covers",
    [
        ("C2^4xC3^2", ((2, 4), (3, 2)), 402, 1976),
        ("C2^3xC3^3", ((2, 3), (3, 3)), 448, 2228),
        ("C2^5xC3", ((2, 5), (3, 1)), 748, 4528),
    ],
)
def test_coprime_product_lattice_counts(lattice_rich_groups, name, parts, nodes, covers):
    # for |A| and |B| coprime every normal subgroup of A×B is a product M×N,
    # and M×N < M'×N' is a cover when one side is a cover and the other equal,
    # so covers(A×B) = covers(A)·nodes(B) + nodes(A)·covers(B)
    (na, ca), (nb, cb) = (_subspace_lattice(p, n) for p, n in parts)
    assert (na * nb, ca * nb + na * cb) == (nodes, covers)
    lat = se.normal_lattice(lattice_rich_groups[name])
    assert (len(lat.nodes), len(lat.covers)) == (nodes, covers)


def test_lattice_rich_covers_match_the_matrix_oracle(lattice_rich_groups):
    assert set(INVARIANTS_LATTICE) <= set(lattice_rich_groups)
    for name, group in lattice_rich_groups.items():
        lat = se.normal_lattice(group)
        keys = [(n.order, n.indices) for n in lat.nodes]
        assert keys == sorted(keys) and len(set(keys)) == len(keys), name
        expected = matrix_covers(lat.nodes)
        assert list(lat.covers) == expected, name
        for k in range(len(lat.nodes)):
            assert lat.up[k] == tuple(l for kk, l in expected if kk == k), (name, k)


# 1875 is the order of the largest group standard_pool sorts; 257 is not a
# multiple of 8, so its top byte is padded before the bytewise reversal
@pytest.mark.parametrize("width", [5, 13, 24, 64, 97, 216, 257, 1875])
def test_sort_key_orders_masks_as_order_and_indices(width):
    from subembed.normal import _sort_key

    rng = random.Random(width)
    masks = set()
    for weight in {1, width // 3, width // 2, width - 1}:
        for _ in range(60):
            masks.add(sum(1 << i for i in rng.sample(range(width), weight)))
    masks = list(masks)
    rng.shuffle(masks)
    want = sorted(masks, key=lambda m: (m.bit_count(), indices_from_mask(m)))
    assert sorted(masks, key=lambda m: _sort_key(m, width)) == want
    # the key holds exactly ``width`` reversed bits: bit i goes to width - 1 - i
    assert _sort_key(1, width) == (1, -(1 << (width - 1)))
    assert _sort_key(1 << (width - 1), width) == (1, -1)


def test_minimal_normals_a4(by_name):
    lat = se.normal_lattice(by_name["A4"])
    assert [lat.nodes[j].order for j in lat.up[0]] == [4]


def test_minimal_normals_and_socle_s3xc2(by_name):
    g = by_name["S3xC2"]
    lat = se.normal_lattice(g)
    assert sorted(lat.nodes[j].order for j in lat.up[0]) == [2, 3]
    assert socle(g).order == 6


def test_trivial_group_has_empty_chief_series(by_name):
    series = se.chief_series_enumerate(by_name["C1"], 10)
    assert len(series) == 1
    assert series[0].factor_orders == ()


def test_chief_series_limit(by_name):
    with pytest.raises(ResourceCapError):
        se.chief_series_enumerate(by_name["C2^2"], 2)


def test_quotient_s4_by_klein(by_name):
    s4 = by_name["S4"]
    v4 = se.normal_lattice(s4).nodes[1]
    q = se.quotient(s4, v4)
    assert q.image.order == 6
    assert not se.is_abelian(q.image)


def test_quotient_by_trivial_is_isomorphic(by_name):
    g = by_name["D8"]
    q = se.quotient(g, Subgroup.trivial(g))
    assert q.image.order == g.order
    assert len(set(q.element_map)) == g.order


def test_quotient_by_whole_is_trivial(by_name):
    g = by_name["S4"]
    q = se.quotient(g, Subgroup.whole(g))
    assert q.image.order == 1


def test_quotient_element_map_is_homomorphism(by_name):
    for name in ("S4", "D8xC2", "SL(2,3)", "C3^2:C2"):
        g = by_name[name]
        for node in se.normal_lattice(g).nodes:
            q = se.quotient(g, node)
            emap = q.element_map
            for x in range(g.order):
                for y in range(g.order):
                    xy = q.image.mult(int(emap[x]), int(emap[y]))
                    assert emap[g.mult(x, y)] == xy
            # generators go to the coset-action generators, which pins the map
            assert [emap[i] for i in g.gen_indices] == list(q.image.gen_indices)
            assert {i for i in range(g.order) if emap[i] == 0} == set(node.indices)
            assert q.image.order * node.order == g.order
            # the image acts on cosets numbered by their least member, and
            # sends the kernel (coset 0) to the coset of the source element
            coset_of = q.image.rows[emap, 0]
            perms = [g.perm(i).images for i in range(g.order)]
            inverses = [raw_inverse(p) for p in perms]
            kernel = {perms[i] for i in node.indices}
            for x in range(g.order):
                for y in range(g.order):
                    same = raw_compose(perms[x], inverses[y]) in kernel
                    assert (coset_of[x] == coset_of[y]) == same
            least = [min(x for x in range(g.order) if coset_of[x] == c) for c in range(q.image.order)]
            assert least == sorted(least)


def test_quotient_checks_the_kernel_before_the_cache(by_name):
    g, other = by_name["S4"], by_name["SL(2,3)"]
    assert g.order == other.order
    kernel = se.normal_lattice(g).nodes[1]
    se.quotient(g, kernel)  # the cache now holds this mask
    with pytest.raises(ValueError, match="does not live in this group"):
        se.quotient(g, Subgroup(other, kernel.mask))


def test_quotient_rejects_non_normal(by_name):
    s3 = by_name["S3"]
    flip = se.span(s3, [idx(s3, "(1 2)")])
    with pytest.raises(ValueError):
        se.quotient(s3, flip)


def test_quotient_checks_normality_once_per_kernel(monkeypatch):
    g = se.build(se.Sym(4))  # a fresh group, so no quotient is cached yet
    checked = []
    real = Subgroup.is_normal

    def counting(sub):
        checked.append(sub.mask)
        return real(sub)

    monkeypatch.setattr(Subgroup, "is_normal", counting)
    kernel = se.normal_lattice(g).nodes[1]
    first = se.quotient(g, kernel)
    assert se.quotient(g, Subgroup(g, kernel.mask)) is first
    assert checked == [kernel.mask]
    flip = se.span(g, [idx(g, "(1 2)")])
    for _ in range(2):  # a rejected kernel is not cached, so it is re-checked
        with pytest.raises(ValueError, match="not normal"):
            se.quotient(g, flip)
    assert checked == [kernel.mask, flip.mask, flip.mask]


def test_is_chief_factor(by_name):
    s4 = by_name["S4"]
    lat = se.normal_lattice(s4)
    assert [lat.nodes[k].order for k in range(3)] == [1, 4, 12]
    assert 2 in lat.up[1]  # A4/V4
    assert 2 not in lat.up[0]


def test_factor_orders_multiply_to_group_order():
    for name, group in apart_corpus(60):
        try:
            series = se.chief_series_enumerate(group, 200)
        except ResourceCapError:
            continue
        for s in series:
            prod = 1
            for f in s.factor_orders:
                prod *= f
            assert prod == group.order, name


def test_lattice_node_cap():
    group = se.build(se.ElemAbelian(2, 3))  # 16 normal subgroups
    with pytest.raises(ResourceCapError) as fresh:
        se.normal_lattice(group, node_cap=4)
    assert fresh.value.reached == 5  # the build stops at the first node over
    assert len(se.normal_lattice(group).nodes) == 16
    with pytest.raises(ResourceCapError) as cached:
        se.normal_lattice(group, node_cap=4)
    assert cached.value.reached == 16
    assert len(se.normal_lattice(group, node_cap=16).nodes) == 16
    # C2^4 has 67 nodes but only 15 closures of classes besides the trivial
    # one, so cap 40 trips only once joins of closures are being added
    with pytest.raises(ResourceCapError) as joins:
        se.normal_lattice(se.build(se.ElemAbelian(2, 4)), node_cap=40)
    assert joins.value.reached == 41


def test_lattice_node_cap_inside_a_round(monkeypatch):
    # C2^5 has 374 nodes; node 101 is one of the joins of a closure's round,
    # so the build stops between two joins of one gathered block
    import subembed.normal as normal

    rounds = []
    real = normal._joins

    def counting(group, masks, need, c):
        rounds.append([len(need), 0])
        for x in real(group, masks, need, c):
            rounds[-1][1] += 1
            yield x

    monkeypatch.setattr(normal, "_joins", counting)
    group = se.build(se.ElemAbelian(2, 5))
    with pytest.raises(ResourceCapError) as capped:
        se.normal_lattice(group, node_cap=100)
    assert capped.value.reached == 101
    need, taken = rounds[-1]
    assert 0 < taken < need
    assert len(se.normal_lattice(group).nodes) == 374


@pytest.mark.parametrize("entries", [1, 3000])
def test_lattice_is_the_same_in_smaller_join_blocks(lattice_rich_groups, monkeypatch, entries):
    # 1 entry gives one join per block; 3000 gives blocks of 7 to 10 joins
    # of C2^5xC3 (order 96) with closures of order 2 and 3
    import subembed.normal as normal

    group = lattice_rich_groups["C2^5xC3"]
    whole = normal._build_lattice(group, normal.DEFAULT_NODE_CAP)
    monkeypatch.setattr(normal, "_JOIN_ENTRIES", entries)
    blocks = normal._build_lattice(group, normal.DEFAULT_NODE_CAP)
    assert (len(blocks.nodes), len(blocks.covers)) == (748, 4528)
    assert [n.mask for n in blocks.nodes] == [n.mask for n in whole.nodes]
    assert blocks.covers == whole.covers and blocks.up == whole.up
    assert blocks.node_by_mask == whole.node_by_mask


def test_lattice_build_checks_the_size_of_each_join(monkeypatch):
    # with the product of elements 1 and 2 of C2^3 read as the identity, the
    # join of <1> and <2> has 3 elements instead of 4; the closures are built
    # from the true table first
    from subembed import InvariantError

    group = se.build(se.ElemAbelian(2, 3))
    closures = {tuple(cls): se.span(group, cls) for cls in group.conjugacy_classes()}
    bad = group.table.copy()
    bad[1, 2] = bad[2, 1] = 0
    vars(group)["table"] = bad
    monkeypatch.setattr(se.normal, "span", lambda g, cls: closures[tuple(cls)])
    with pytest.raises(InvariantError, match="product size"):
        se.normal_lattice(group)


# the lattice-rich groups whose lattices (78 to 212 nodes) brute_covers
# scans in under 0.05 s; the other six have 374 to 748 nodes and take
# 0.2 to 0.8 s each
CHAIN_CHECKED = ("D8xC2^2", "S4xC2^3", "S3xS3xC2^2", "C2^4xC3", "C3^4")


def test_chief_series_are_chains_of_normal_covers(lattice_rich_groups):
    # every enumerated series and a_chief_series runs from 1 to G through
    # normal subgroups, each a cover of the one before by the brute oracle,
    # with factor orders the quotients of consecutive orders
    for name in CHAIN_CHECKED:
        group = lattice_rich_groups[name]
        nodes = se.normal_lattice(group).nodes
        covers = {(nodes[i], nodes[j]) for i, j in brute_covers(nodes)}
        series = [*se.chief_series_enumerate(group, 5000), se.normal.a_chief_series(group)]
        assert all(term.is_normal() for term in {t for s in series for t in s.chain}), name
        for s in series:
            chain, steps = s.chain, list(zip(s.chain, s.chain[1:]))
            assert chain[0] == Subgroup.trivial(group) and chain[-1] == Subgroup.whole(group)
            assert all(step in covers for step in steps), name
            assert s.factor_orders == tuple(b.order // a.order for a, b in steps), name


def test_jordan_holder_small():
    for name, group in apart_corpus(60):
        try:
            series = se.chief_series_enumerate(group, 200)
        except ResourceCapError:
            continue

        def signature(s):
            return sorted(
                (b.order // a.order, factor_is_abelian(group, a, b))
                for a, b in zip(s.chain, s.chain[1:])
            )

        first = signature(series[0])
        assert all(signature(s) == first for s in series[1:]), name


def test_socle_is_product_of_minimal_normals():
    for name, group in apart_corpus(60):
        if group.order == 1:
            continue
        soc = socle(group)
        lat = se.normal_lattice(group)
        acc = Subgroup.trivial(group)
        from subembed.subgroups import product_with_normal

        for m in (lat.nodes[j] for j in lat.up[0]):
            assert m.is_subset_of(soc)
            acc = product_with_normal(acc, m)
        assert acc == soc


def test_subgroup_as_group_roundtrip(by_name):
    s4 = by_name["S4"]
    a4_node = se.normal_lattice(s4).nodes[2]
    child, to_parent, from_parent = se.subgroup_as_group(a4_node)
    assert child.order == 12
    for i in range(child.order):
        assert from_parent[int(to_parent[i])] == i
    # multiplication agrees through the embedding
    assert all(
        int(to_parent[child.mult(i, j)])
        == s4.mult(int(to_parent[i]), int(to_parent[j]))
        for i in range(12)
        for j in range(12)
    )
