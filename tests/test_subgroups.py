import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import subembed as se
from subembed import InvariantError, parse_cycles
from subembed.subgroups import (
    Subgroup,
    derived_of_subgroup,
    indices_from_mask,
    is_cyclic_subgroup,
    mask_from_bool,
    normal_closure_in,
    prime_divisors,
    product_mask,
)

from conftest import raw_closure, row_closure, row_lookup


def idx(group, text):
    return group.index_of(parse_cycles(text, group.degree))


def test_span_identity_is_trivial(by_name):
    a5 = by_name["A5"]
    assert se.span(a5, [0]).order == 1


def test_span_five_cycle(by_name):
    a5 = by_name["A5"]
    assert se.span(a5, [idx(a5, "(1 2 3 4 5)")]).order == 5


def test_span_klein_four(by_name):
    a4 = by_name["A4"]
    sub = se.span(a4, [idx(a4, "(1 2)(3 4)"), idx(a4, "(1 3)(2 4)")])
    assert sub.order == 4


def test_span_matches_raw_closure(by_name):
    s4 = by_name["S4"]
    seed = [idx(s4, "(1 2)"), idx(s4, "(1 2 3 4)")]
    sub = se.span(s4, seed)
    raw = raw_closure({s4.perm(i).images for i in seed})
    assert {s4.perm(i).images for i in sub.indices} == raw


def test_intersect_idempotent(by_name):
    s4 = by_name["S4"]
    a = se.span(s4, [idx(s4, "(1 2 3)")])
    assert se.intersect(a, a) == a


def test_intersect_coprime_cyclics(by_name):
    s3 = by_name["S3"]
    a = se.span(s3, [idx(s3, "(1 2 3)")])
    b = se.span(s3, [idx(s3, "(1 2)")])
    assert se.intersect(a, b).order == 1


def test_sylow2_meet_a4_is_klein():
    s4 = se.build(se.Sym(4))
    syl = se.sylow(s4, 2)
    assert syl.order == 8
    # independent oracle: A4 = even permutations, by direct parity computation
    def parity(images):
        inversions = sum(
            1
            for a in range(len(images))
            for b in range(a + 1, len(images))
            if images[a] > images[b]
        )
        return inversions % 2

    a4_indices = [i for i in range(24) if parity(s4.perm(i).images) == 0]
    expected = set(syl.indices) & set(a4_indices)
    a4 = Subgroup.from_indices(s4, a4_indices)
    got = se.intersect(syl, a4)
    assert set(got.indices) == expected
    assert got.order == 4


def test_product_with_identity(by_name):
    s3 = by_name["S3"]
    a = se.span(s3, [idx(s3, "(1 2 3)")])
    trivial = Subgroup.trivial(s3)
    assert product_mask(a, trivial) == product_mask(trivial, a) == a.mask


def test_product_two_transpositions_not_closed(by_name):
    s3 = by_name["S3"]
    a = se.span(s3, [idx(s3, "(1 2)")])
    b = se.span(s3, [idx(s3, "(1 3)")])
    ab = product_mask(a, b)
    assert ab.bit_count() == 4  # 2*2/1, which does not divide 6
    assert ab != product_mask(b, a)
    # oracle: the raw product set is not closed under composition
    raw = {
        (s3.perm(i) * s3.perm(j)).images for i in a.indices for j in b.indices
    }
    assert len(raw) == 4
    closed = all(
        tuple(q[i - 1] for i in p) in raw for p in raw for q in raw
    )
    assert not closed


def test_product_transposition_with_rotation_is_whole(by_name):
    s3 = by_name["S3"]
    a = se.span(s3, [idx(s3, "(1 2)")])
    b = se.span(s3, [idx(s3, "(1 2 3)")])
    ab = product_mask(a, b)
    assert ab.bit_count() == 6
    assert ab == product_mask(b, a)


def _raw_product_matches(a, b):
    """product_mask(a, b) is exactly {xy}, composed from the raw image rows."""
    images = a.group.rows
    got = images[list(indices_from_mask(product_mask(a, b)))]
    # (xy)(p) = y(x(p)), so raw[j, i] is row a_i read through row b_j
    raw = images[b.index_array][:, images[a.index_array]]
    return _row_set(got) == _row_set(raw)


def _row_set(rows):
    """The rows (along the last axis) as a set of bytes objects."""
    rows = np.ascontiguousarray(rows)
    as_bytes = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[-1])))
    return set(as_bytes.ravel().tolist())


def test_product_mask_is_the_raw_product_set(corpus400, group1875):
    s3 = dict(corpus400)["S3"]
    a = se.span(s3, [idx(s3, "(1 2)")])
    b = se.span(s3, [idx(s3, "(1 3)")])
    assert product_mask(a, b) != product_mask(b, a)
    assert _raw_product_matches(a, b) and _raw_product_matches(b, a)
    for _, group in se.builtin_corpus(24):
        subs = {n.mask: n for n in se.normal_lattice(group).nodes}
        subs.update((sub.mask, sub) for _, sub in se.standard_pool(group))
        for x in subs.values():
            for y in subs.values():
                assert _raw_product_matches(x, y)
    rng = random.Random(0)
    pairs = 0
    while pairs < 8:
        x, y = (
            se.span(group1875, rng.sample(range(1875), rng.randint(1, 2)))
            for _ in range(2)
        )
        if x.order * y.order <= 20000 and not (x.is_subset_of(y) or y.is_subset_of(x)):
            assert _raw_product_matches(x, y)
            pairs += 1


@given(st.data())
def test_product_order_formula(data):
    s4 = se.build(se.Sym(4))
    seeds = data.draw(
        st.tuples(
            st.sets(st.integers(0, 23), min_size=1, max_size=2),
            st.sets(st.integers(0, 23), min_size=1, max_size=2),
        )
    )
    a = se.span(s4, seeds[0])
    b = se.span(s4, seeds[1])
    assert product_mask(a, b).bit_count() * se.intersect(a, b).order == a.order * b.order


def test_normalizer_of_normal_is_whole(by_name):
    a4 = by_name["A4"]
    v4 = se.sylow(a4, 2)
    assert se.normalizer(a4, v4).order == a4.order


def test_normalizer_of_sylow5_in_a5(by_name):
    a5 = by_name["A5"]
    assert se.normalizer(a5, se.sylow(a5, 5)).order == 10


def test_normalizer_and_centralizer_reject_a_foreign_subgroup(by_name):
    s4, s5 = by_name["S4"], by_name["S5"]
    in_s5 = se.span(s5, [idx(s5, "(1 2 3 4 5)")])
    in_s4 = se.span(s4, [idx(s4, "(1 2)")])
    for group, h in ((s4, in_s5), (s5, in_s4)):
        with pytest.raises(ValueError, match="different parent"):
            se.normalizer(group, h)
        with pytest.raises(ValueError, match="different parent"):
            se.centralizer(group, h)
    # the normalizer is memoised by mask: a cached mask must not let an S5
    # subgroup with the same mask through
    se.normalizer(s4, in_s4)
    with pytest.raises(ValueError, match="different parent"):
        se.normalizer(s4, Subgroup(s5, in_s4.mask))


def brute_closure_under_conjugation(group, ambient, seed) -> int:
    """The mask of the least subset holding 1 and ``seed`` that is closed
    under products and under conjugation by every element of ``ambient``."""
    table, hs = group.table, np.asarray(ambient, dtype=np.intp)
    member = np.zeros(group.order, dtype=bool)
    member[[0, *seed]] = True
    while True:
        xs = member.nonzero()[0]
        grown = member.copy()
        grown[table[np.ix_(xs, xs)]] = True
        grown[table[table[group.inv[hs][:, None], xs], hs[:, None]]] = True
        if (grown == member).all():
            return mask_from_bool(member)
        member = grown


def test_normal_closure_in_matches_conjugation_by_every_element(corpus400, query_mix_groups):
    """Ambients: every Sylow subgroup and one seeded 2-element span; seeds:
    two seeded random elements of the group."""
    rng = random.Random(15)
    named = dict(query_mix_groups)
    groups = [g for _, g in corpus400 if g.order <= 60] + [named["S6"], named["SL(2,3)xS4"]]
    for group in groups:
        ambients = [se.sylow(group, p) for p in prime_divisors(group.order)]
        ambients.append(se.span(group, rng.sample(range(group.order), min(2, group.order))))
        for amb in ambients:
            seed = [rng.randrange(group.order) for _ in range(2)]
            got = normal_closure_in(group, amb.gens, seed)
            assert got.mask == brute_closure_under_conjugation(group, amb.indices, seed), (
                group.name,
                amb.order,
                seed,
            )


def test_centralizer_brute_force(by_name):
    s3 = by_name["S3"]
    rot = se.span(s3, [idx(s3, "(1 2 3)")])
    cent = se.centralizer(s3, rot)
    expected = [
        g
        for g in range(6)
        if all(s3.mult(g, h) == s3.mult(h, g) for h in rot.indices)
    ]
    assert list(cent.indices) == expected
    assert cent.order == 3


def test_center_examples(by_name):
    assert se.center(by_name["Q8"]).order == 2
    assert se.center(by_name["A5"]).order == 1


def test_containment_chain(by_name):
    for name in ("S4", "Q8", "D12", "SL(2,3)"):
        group = by_name[name]
        for _, h in se.standard_pool(group):
            z = se.center(group)
            c = se.centralizer(group, h)
            n = se.normalizer(group, h)
            assert z.is_subset_of(c)
            assert c.is_subset_of(n)
            assert h.is_subset_of(n)


def test_lagrange_over_pool(by_name):
    for name in ("S4", "A5", "D16", "C3^2:C2"):
        group = by_name[name]
        for _, h in se.standard_pool(group):
            assert group.order % h.order == 0
            assert h.contains_index(0)


def test_derived_subgroup_s3(by_name):
    assert derived_of_subgroup(Subgroup.whole(by_name["S3"])).order == 3


def test_lower_central_series_d8(by_name):
    series = se.lower_central_series(by_name["D8"])
    assert [s.order for s in series] == [8, 2, 1]


def test_exponent_q8(by_name):
    assert se.exponent(Subgroup.whole(by_name["Q8"])) == 4


def test_maximal_subgroups_klein(by_name):
    v4 = Subgroup.whole(by_name["C2^2"])
    maxes = se.p_group_maximal_subgroups(v4, 2)
    assert len(maxes) == 3
    assert all(m.order == 2 for m in maxes)


def test_maximal_subgroups_q8(by_name):
    q8 = Subgroup.whole(by_name["Q8"])
    maxes = se.p_group_maximal_subgroups(q8, 2)
    assert len(maxes) == 3
    assert all(m.order == 4 and is_cyclic_subgroup(m) for m in maxes)


def test_maximal_subgroups_c9(by_name):
    c9 = Subgroup.whole(by_name["C9"])
    maxes = se.p_group_maximal_subgroups(c9, 3)
    assert len(maxes) == 1
    assert maxes[0].order == 3


def test_maximal_subgroups_rejects_non_p_group(by_name):
    with pytest.raises(ValueError):
        se.p_group_maximal_subgroups(Subgroup.whole(by_name["S3"]), 2)


def test_frattini_elementary_abelian(by_name):
    assert se.frattini_p(Subgroup.whole(by_name["C3^2"]), 3).order == 1


def test_frattini_q8_and_c8(by_name):
    assert se.frattini_p(Subgroup.whole(by_name["Q8"]), 2).order == 2
    assert se.frattini_p(Subgroup.whole(by_name["C8"]), 2).order == 4


def test_frattini_equals_intersection_of_maximals(by_name):
    for name in ("Q8", "D16", "C8", "C2^3", "C3^3", "C4xC2"):
        group = by_name[name]
        p = prime_divisors(group.order)[0]
        whole = Subgroup.whole(group)
        phi = se.frattini_p(whole, p)
        inter_mask = (1 << group.order) - 1
        for m in se.p_group_maximal_subgroups(whole, p):
            inter_mask &= m.mask
        assert phi.mask == inter_mask


def test_omega_elementary_abelian(by_name):
    g = by_name["C5^2"]
    assert se.omega(Subgroup.whole(g), 5).order == 25


def test_omega_q8(by_name):
    q8 = by_name["Q8"]
    assert se.omega(Subgroup.whole(q8), 2).order == 8


def test_omega_c4xc2():
    g = se.build(se.Direct(se.Cyclic(4), se.Cyclic(2)))
    om = se.omega(Subgroup.whole(g), 2)
    # oracle: elements of order dividing 2 in an abelian group form the subgroup
    expected = {i for i in range(g.order) if g.element_order(i) <= 2}
    assert set(om.indices) == expected
    assert om.order == 4


def test_cyclic_subgroups_of_order(by_name):
    assert len(se.cyclic_subgroups_of_order(Subgroup.whole(by_name["C2^2"]), 2)) == 3
    assert len(se.cyclic_subgroups_of_order(Subgroup.whole(by_name["C5"]), 5)) == 1
    assert len(se.cyclic_subgroups_of_order(Subgroup.whole(by_name["Q8"]), 4)) == 3


def test_cyclic_subgroups_match_one_span_per_element(corpus400, group1875):
    groups = [group for _, group in corpus400] + [group1875]
    for group in groups:
        for p in prime_divisors(group.order):
            syl = se.sylow(group, p)
            for m in (p, 4) if p == 2 else (p,):
                # reference: span every element of order m, keep first sightings
                expected = dict.fromkeys(
                    se.span(group, [i]).mask
                    for i in syl.indices
                    if group.element_order(i) == m
                )
                got = se.cyclic_subgroups_of_order(syl, m)
                assert [sub.mask for sub in got] == list(expected)


def test_cyclic_subgroups_order4_rejected_for_odd(by_name):
    with pytest.raises(ValueError):
        se.cyclic_subgroups_of_order(Subgroup.whole(by_name["C9"]), 4)


def test_p_part_examples():
    assert se.p_part(60, 2) == 4
    assert se.p_part(60, 5) == 5
    assert se.p_part(7, 2) == 1


def test_bases_below_two_raise(by_name):
    with pytest.raises(ValueError):
        se.p_part(12, 1)
    with pytest.raises(ValueError):
        se.p_part(12, 0)
    with pytest.raises(ValueError):
        se.is_pi_number(12, (1,))
    with pytest.raises(ValueError):
        se.radical_p(by_name["S3"], 1)


def test_is_pi_number_examples():
    assert se.is_pi_number(1, ())
    assert not se.is_pi_number(6, (5,))
    assert se.is_pi_number(8, (2,))
    assert se.is_pi_number(6, (2, 3))


@given(st.integers(1, 10**6), st.sets(st.sampled_from([2, 3, 5, 7, 11]), max_size=3))
def test_pi_number_property(n, pi):
    residue = n
    for q in pi:
        while residue % q == 0:
            residue //= q
    assert se.is_pi_number(n, pi) == (residue == 1)


@given(st.integers(1, 10**6), st.sampled_from([2, 3, 5, 7]))
def test_p_part_property(n, p):
    pp = se.p_part(n, p)
    assert n % pp == 0
    assert (n // pp) % p != 0
    assert pp == p ** (max(0, int(math.log(pp, p) + 0.5)))


def _greedy_closure(group, seed):
    """Reference: the seed reduced greedily, each prefix closed from scratch
    by breadth-first multiplication. Returns (picks, member set)."""
    picks: list[int] = []
    have = {0}
    for i in seed:
        if i in have:
            continue
        picks.append(i)
        have = {0}
        frontier = [0]
        while frontier:
            new = []
            for x in frontier:
                for g in picks:
                    y = group.mult(x, g)
                    if y not in have:
                        have.add(y)
                        new.append(y)
            frontier = new
    return picks, have


@given(st.data())
def test_one_pass_span_matches_greedy_closure(data):
    name = data.draw(st.sampled_from(["S4", "A5", "SL(2,3)", "D16", "C7:C3"]))
    group = dict(se.builtin_corpus(400))[name]
    seed = data.draw(st.lists(st.integers(0, group.order - 1), max_size=4))
    sub = se.span(group, seed)
    _, have = _greedy_closure(group, seed)
    assert set(sub.indices) == have
    # Subgroup.gens keeps the greedy picks over the sorted member indices
    picks, _ = _greedy_closure(group, sub.indices)
    assert sub.gens == tuple(picks)


def test_span_and_gens_match_greedy_closure_where_cosets_are_many(group1875):
    # S6 and SL(2,3)xS4 (order 576), two query-mix groups built fresh so no
    # generators are cached, need many cosets of small subgroups from few
    # generators; the order-625 Sylow 5-subgroup of the order-1875 group is
    # reached through a chain of up to four coset extensions
    sylow5 = se.sylow(group1875, 5)
    rng = random.Random(13)
    for group, pool, expected in [
        (se.build(se.Sym(6)), range(720), [6, 720, 60, 720, 720, 720]),
        (se.build(se.Direct(se.SL23(), se.Sym(4))), range(576), [12, 24, 576, 288, 144, 576]),
        (group1875, sylow5.indices, [5, 25, 25, 125, 125, 625]),
    ]:
        orders = []
        for size in (1, 2, 2, 3, 3, 4):
            seed = rng.sample(list(pool), size)
            sub = se.span(group, seed)
            _, have = _greedy_closure(group, seed)
            assert set(sub.indices) == have
            picks, _ = _greedy_closure(group, sub.indices)
            assert sub.gens == tuple(picks)
            orders.append(sub.order)
        assert orders == expected


def _hyperplane_kernels(p_subgroup, p):
    """Oracle: the index-p subgroups of a p-group P, as the kernels of the
    nonzero functionals (leading coefficient 1) on V = P/F, where
    F = <x^p, [x, y] : x, y in P> = Phi(P) is closed over image rows. A basis
    of V is picked greedily, and each element x of P gets the coordinates of
    its coset F·b1^a1···bd^ad. Returns the set of kernel masks and the mask
    of F."""
    group, rows, lookup = p_subgroup.group, p_subgroup.group.rows, row_lookup(p_subgroup.group)
    members = list(p_subgroup.indices)
    m = len(members)
    own = rows[members]

    def compose(a, b):  # rows of a*b, batched: (a*b)(i) = b(a(i))
        return np.take_along_axis(b, a, axis=-1)

    power = own
    for _ in range(p - 1):
        power = compose(power, own)
    inv = np.argsort(own, axis=1)
    shape = (m, m, own.shape[1])  # [s, t] is the pair (members[s], members[t])
    x, y = np.broadcast_to(own[:, None], shape), np.broadcast_to(own[None], shape)
    xi, yi = np.broadcast_to(inv[:, None], shape), np.broadcast_to(inv[None], shape)
    comms = compose(compose(compose(xi, yi), x), y)
    verbal = np.unique(np.concatenate([lookup(power), lookup(comms.reshape(-1, shape[2]))]))
    frattini = row_closure(group, lookup, [0], verbal.tolist())
    basis, spanned = [], frattini
    for i in members:
        if not spanned[i]:
            basis.append(i)
            spanned = row_closure(group, lookup, spanned.nonzero()[0], [*verbal.tolist(), *basis])
    coords = {}
    words = [(0, ())]
    for b in basis:
        step = []
        for w, c in words:
            for a in range(p):
                step.append((w, c + (a,)))
                w = int(lookup(compose(rows[w], rows[b])[None])[0])
        words = step
    for w, c in words:
        for x in lookup(compose(rows[frattini.nonzero()[0]], rows[w][None])).tolist():
            coords[x] = c
    assert sorted(coords) == members
    kernels = set()
    for f in itertools.product(range(p), repeat=len(basis)):
        if any(f) and f[next(k for k, v in enumerate(f) if v)] == 1:
            kernels.add(sum(1 << x for x, c in coords.items() if sum(u * v for u, v in zip(f, c)) % p == 0))
    return kernels, sum(1 << int(x) for x in frattini.nonzero()[0])


def test_maximal_subgroups_match_hyperplane_kernels():
    # the maximal subgroups are built over frattini_p, so a Phi that is too
    # large drops maximal subgroups without failing the intersection test;
    # Phi is compared with the oracle's F on its own. The second set of
    # groups reaches ranks d = 3 to 6 of P/Phi(P).
    wide = [
        (name, se.build(expr))
        for name, expr in (
            ("C2^6", se.ElemAbelian(2, 6)),
            ("C3^4", se.ElemAbelian(3, 4)),
            ("C5^3", se.ElemAbelian(5, 3)),
            ("D8xC2^3", se.Direct(se.Dihedral(8), se.ElemAbelian(2, 3))),
            ("Q8xC2^3", se.Direct(se.Quaternion8(), se.ElemAbelian(2, 3))),
            ("S4xC2^3", se.Direct(se.Sym(4), se.ElemAbelian(2, 3))),
        )
    ]
    for groups, expected in ((se.builtin_corpus(120), 255), (wide, 12)):
        checked = 0
        for name, group in groups:
            for p in prime_divisors(group.order):
                for syl in se.sylow_conjugates(group, p):
                    got = [sub.mask for sub in se.p_group_maximal_subgroups(syl, p)]
                    kernels, frattini = _hyperplane_kernels(syl, p)
                    assert len(set(got)) == len(got), (name, p)
                    assert set(got) == kernels, (name, p)
                    assert se.frattini_p(syl, p).mask == frattini, (name, p)
                    checked += 1
        assert checked == expected


def test_maximal_subgroups_raise_when_frattini_is_too_small(by_name, monkeypatch):
    # over the trivial subgroup the coset labels of C4, Q8, D8 and C9 still
    # count p^d elements, but they are not a homomorphism onto F_p^d
    monkeypatch.setattr(
        se.subgroups, "frattini_p", lambda p_subgroup, p: Subgroup.trivial(p_subgroup.group)
    )
    for name, p in (("C4", 2), ("Q8", 2), ("D8", 2), ("C9", 3)):
        with pytest.raises(InvariantError):
            se.p_group_maximal_subgroups(Subgroup.whole(by_name[name]), p)


def test_gens_raise_invariant_error_when_the_closure_drops_an_element(closure_drops_an_element):
    group = se.build(se.Sym(4))  # fresh, so no generators are cached
    with pytest.raises(InvariantError):
        Subgroup.whole(group).gens


def test_mask_helpers_round_trip(group1875):
    from subembed.subgroups import indices_from_mask, mask_from_bool, mask_from_indices

    for indices in ([], [0], [7, 8, 9], [0, 63, 64, 200], list(range(0, 1875, 7))):
        mask = mask_from_indices(indices)
        assert mask == sum(1 << i for i in indices)
        assert indices_from_mask(mask) == tuple(indices)
        member = np.zeros(1875, dtype=bool)
        member[indices] = True
        assert mask_from_bool(member) == mask
    # masks of the order-1875 group: the whole group and a Sylow 5-subgroup
    assert indices_from_mask(Subgroup.whole(group1875).mask) == tuple(range(1875))
    syl = se.sylow(group1875, 5)
    got = indices_from_mask(syl.mask)
    assert got == tuple(i for i in range(1875) if syl.mask >> i & 1)
    assert len(got) == 625 and all(type(i) is int for i in got)
    assert mask_from_indices(got) == syl.mask


def _bin_positions(mask):
    """Oracle: the set bit positions read off the binary string."""
    return tuple(i for i, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1")


def test_indices_from_mask_matches_binary_string():
    rng = random.Random(12)
    masks = [0, 1, (1 << 1875) - 1, (1 << 1875) - 2, 1 << 1874 | 1]
    masks += [1 << k for k in (1, 7, 8, 63, 64, 65, 1000, 1874)]
    masks += [rng.getrandbits(rng.choice((5, 64, 300, 1875))) for _ in range(200)]
    masks += [sum(1 << rng.randrange(1875) for _ in range(5)) for _ in range(50)]
    for mask in masks:
        got = indices_from_mask(mask)
        assert got == _bin_positions(mask)
        assert all(type(i) is int for i in got)
    with pytest.raises(ValueError):
        indices_from_mask(-1)


def test_subgroup_members_match_the_bit_loop(group1875):
    # index_array unpacks the mask's bytes; indices_from_mask takes off one
    # low bit at a time. The masks need not be subgroups for the decoder.
    rng = random.Random(23)
    for width in (1, 8, 64, 65, 216, 1875):
        full = (1 << width) - 1
        masks = [0, full, 1 << (width - 1)]
        masks += [rng.getrandbits(width) | 1 << (width - 1) for _ in range(20)]
        masks += [rng.getrandbits(width) for _ in range(20)]
        for mask in masks:
            sub = Subgroup(group1875, mask)
            want = indices_from_mask(mask)
            assert sub.index_array.tolist() == list(want), (width, mask)
            assert sub.index_array.dtype == np.int64
            assert sub.indices == want and all(type(i) is int for i in sub.indices)


def test_is_normal_matches_every_conjugate(corpus400):
    # definition: H^g = H for every g in G, with each conjugate formed
    verdicts = []
    for name, group in corpus400:
        if group.order > 48:
            continue
        for sub in [h for _, h in se.standard_pool(group)] + list(se.normal_lattice(group).nodes):
            normal = all(sub.conjugate(g) == sub for g in range(group.order))
            assert sub.is_normal() == normal, (name, sub.order)
            verdicts.append(normal)
    assert verdicts.count(False) >= 80 and verdicts.count(True) >= 500  # 91 and 590
