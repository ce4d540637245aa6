import pytest

import subembed as se
from subembed import parse_cycles
from subembed.embedding import recheck_witness_partial_s_pi
from subembed.subgroups import Subgroup, mask_from_indices, prime_divisors, product_mask

from conftest import (
    all_subgroups,
    brute_factor_centralizer_order,
    brute_partial_s_pi,
    brute_s_permutable,
    brute_s_qn_embedded,
    brute_s_quasinormal_masks,
    product_cap,
    product_gen_cap,
    random_p_subgroups,
    span_s_qn_embedded,
)


def idx(group, text):
    return group.index_of(parse_cycles(text, group.degree))


def test_a5_sylow5_satisfies_partial_s_pi(by_name):
    a5 = by_name["A5"]
    h = se.sylow(a5, 5)
    verdict = se.partial_s_pi(a5, h, 5)
    assert verdict.holds
    assert verdict.witness == (0, 1)


def test_a5_sylow5_fails_partial_pi(by_name):
    a5 = by_name["A5"]
    h = se.sylow(a5, 5)
    assert a5.order // se.normalizer(a5, h).order == 6
    assert not se.is_pi_number(6, (5,))
    assert not se.partial_pi(a5, h).holds


def test_whole_p_group_satisfies(by_name):
    for name in ("Q8", "C8", "C3^3"):
        group = by_name[name]
        p = prime_divisors(group.order)[0]
        assert se.partial_s_pi(group, Subgroup.whole(group), p).holds


def test_trivial_subgroup_satisfies_everything():
    for name, group in se.builtin_corpus(60):
        trivial = Subgroup.trivial(group)
        assert se.partial_pi(group, trivial).holds
        for p in prime_divisors(group.order):
            assert se.partial_s_pi(group, trivial, p).holds


def test_partial_s_pi_requires_p_subgroup(by_name):
    s4 = by_name["S4"]
    with pytest.raises(ValueError):
        se.partial_s_pi(s4, Subgroup.whole(s4), 2)
    with pytest.raises(ValueError):
        se.partial_s_pi(s4, Subgroup.trivial(s4), 4)


def test_partial_s_pi_against_series_enumeration():
    for name, group in se.builtin_corpus(200):
        for p, h in se.standard_pool(group):
            got = se.partial_s_pi(group, h, p).holds
            expected = brute_partial_s_pi(group, h, p)
            assert got == expected, (name, p, h.order)


def brute_partial_pi(group, h, limit=400):
    from subembed.subgroups import product_with_normal

    lat = se.normal_lattice(group)
    for series in se.chief_series_enumerate(group, limit):
        ok = True
        for k, l in zip(series.chain, series.chain[1:]):
            low, high = lat.nodes[k], lat.nodes[l]
            x = product_with_normal(se.intersect(h, high), low)
            pi = prime_divisors(x.order // low.order)
            index = group.order // se.normalizer(group, x).order
            if not se.is_pi_number(index, pi):
                ok = False
                break
        if ok:
            return True
    return False


def test_partial_pi_against_series_enumeration():
    # spans of element pairs reach subgroups outside the p-subgroup pool
    import itertools

    from subembed.errors import ResourceCapError

    for name, group in se.builtin_corpus(48):
        seen = set()
        for i, j in itertools.combinations(range(min(group.order, 16)), 2):
            h = se.span(group, [i, j])
            if h.mask in seen:
                continue
            seen.add(h.mask)
            try:
                expected = brute_partial_pi(group, h)
            except ResourceCapError:
                continue
            assert se.partial_pi(group, h).holds == expected, (name, h.order)


def test_witnesses_revalidate():
    for name, group in se.builtin_corpus(60):
        for p, h in se.standard_pool(group):
            verdict = se.partial_s_pi(group, h, p)
            if verdict.holds:
                assert recheck_witness_partial_s_pi(group, h, p, verdict.witness), name


def test_normal_subgroup_is_cap(by_name):
    for name in ("S4", "SL(2,3)", "D12"):
        group = by_name[name]
        for node in se.normal_lattice(group).nodes:
            assert se.cap(group, node).holds


def test_sylow2_of_s4_is_cap(by_name):
    s4 = by_name["S4"]
    assert se.cap(s4, se.sylow(s4, 2)).holds


def test_cap_refutation_rechecks(by_name):
    a4 = by_name["A4"]
    c2 = se.span(a4, [idx(a4, "(1 2)(3 4)")])
    verdict = se.cap(a4, c2)
    assert not verdict.holds
    lat = se.normal_lattice(a4)
    low = lat.nodes[verdict.refutation.lower]
    high = lat.nodes[verdict.refutation.upper]

    assert not se.intersect(c2, high).is_subset_of(low)
    assert high.mask & ~product_mask(c2, low) != 0


def test_normal_subgroup_is_gen_cap(by_name):
    for name in ("S4", "A5", "C3^2:C2"):
        group = by_name[name]
        for node in se.normal_lattice(group).nodes:
            assert se.gen_cap(group, node).holds


def test_cap_implies_gen_cap():
    for name, group in se.builtin_corpus(60):
        for _, h in se.standard_pool(group):
            if se.cap(group, h).holds:
                assert se.gen_cap(group, h).holds, name


def test_transposition_not_s_quasinormal_in_s3(by_name):
    s3 = by_name["S3"]
    flip = se.span(s3, [idx(s3, "(1 2)")])
    assert not se.s_quasinormal(s3, flip)
    other = se.span(s3, [idx(s3, "(1 3)")])
    assert product_mask(flip, other) != product_mask(other, flip)


def test_klein_in_s4_quasinormal_and_embedded(by_name):
    s4 = by_name["S4"]
    v4 = se.normal_lattice(s4).nodes[1]
    assert se.s_quasinormal(s4, v4)
    assert se.s_qn_embedded(s4, v4)


def test_normal_subgroups_are_s_quasinormal(by_name):
    for name in ("S4", "SL(2,3)"):
        group = by_name[name]
        for node in se.normal_lattice(group).nodes:
            assert se.s_quasinormal(group, node)


def test_sylow_subgroups_are_s_qn_embedded():
    # a Sylow subgroup of G is a Sylow subgroup of G itself, which is normal
    for name, group in se.builtin_corpus(48):
        for p in prime_divisors(group.order):
            assert se.s_qn_embedded(group, se.sylow(group, p)), name


def test_s_quasinormal_implies_product_closed_with_every_sylow():
    for name, group in se.builtin_corpus(30):
        for _, h in se.standard_pool(group):
            if not se.s_quasinormal(group, h):
                continue
            for p in prime_divisors(group.order):
                for s in se.sylow_conjugates(group, p):
                    assert product_mask(h, s) == product_mask(s, h), name


def test_proposition_implications_small():
    # gen-cap, partial-pi and s-quasinormality each force partial-s-pi
    for name, group in se.builtin_corpus(60):
        for p, h in se.standard_pool(group):
            psp = se.partial_s_pi(group, h, p).holds
            if se.gen_cap(group, h).holds:
                assert psp, (name, "gen-cap")
            if se.partial_pi(group, h).holds:
                assert psp, (name, "partial-pi")
            if se.s_quasinormal(group, h):
                assert psp, (name, "s-quasinormal")


def test_trivial_group_predicates(by_name):
    c1 = by_name["C1"]
    trivial = Subgroup.trivial(c1)
    assert se.partial_pi(c1, trivial).holds
    assert se.cap(c1, trivial).holds
    assert se.gen_cap(c1, trivial).holds
    assert se.s_quasinormal(c1, trivial)


def test_normal_subgroups_satisfy_partial_pi():
    for name, group in se.builtin_corpus(48):
        for node in se.normal_lattice(group).nodes:
            assert se.partial_pi(group, node).holds, name


def test_1875_first_factor_is_minimal_normal(group1875):
    g = group1875
    # the first elementary abelian factor of the normal part is spanned by
    # the first two construction generators and the order-3 part acts on it
    # irreducibly, so it is a chief factor over the trivial subgroup
    l1 = se.span(g, [g.gen_indices[0], g.gen_indices[1]])
    assert l1.order == 25
    assert l1.is_normal()
    lat = se.normal_lattice(g)
    assert lat.node_id(l1) in lat.up[0]


def test_1875_cyclic_factor_neither_covers_nor_avoids(group1875):
    g = group1875
    a_span = se.span(g, [g.gen_indices[0]])
    l1 = se.span(g, [g.gen_indices[0], g.gen_indices[1]])
    trivial = Subgroup.trivial(g)
    # on the chief factor L1/1: <a> covers nothing (|<a>| < |L1|) and fails
    # to avoid (<a> meets L1 nontrivially), so the CAP verdict is negative
    assert not se.intersect(a_span, l1).is_subset_of(trivial)

    assert l1.mask & ~product_mask(a_span, trivial) != 0
    assert not se.cap(g, a_span).holds


def test_predicates_reject_a_subgroup_of_another_group(by_name):
    a4, s4 = by_name["A4"], by_name["S4"]
    for h in (Subgroup.trivial(s4), se.sylow(s4, 2)):
        for call in (
            lambda: se.partial_s_pi(a4, h, 2),
            lambda: se.partial_pi(a4, h),
            lambda: se.cap(a4, h),
            lambda: se.gen_cap(a4, h),
            lambda: se.s_quasinormal(a4, h),
            lambda: se.s_qn_embedded(a4, h),
        ):
            with pytest.raises(ValueError, match="different parent group"):
                call()


def test_recheck_rejects_an_empty_chain(by_name):
    s4 = by_name["S4"]
    assert not recheck_witness_partial_s_pi(s4, se.sylow(s4, 2), 2, ())


@pytest.fixture(scope="module")
def section_cases(corpus400, query_mix_groups):
    """(name, group, subgroups): the standard pool of each group of order at
    most 120 and of each query-mix group, with the spans of pairs among a
    dozen elements spread through the group."""
    import itertools

    cases = []
    for name, group in [*((n, g) for n, g in corpus400 if g.order <= 120), *query_mix_groups]:
        subs = {h.mask: h for _, h in se.standard_pool(group)}
        spread = range(0, group.order, max(1, group.order // 12))
        for i, j in itertools.combinations(spread, 2):
            h = se.span(group, [i, j])
            subs.setdefault(h.mask, h)
        cases.append((name, group, list(subs.values())))
    return cases


def test_section_order_matches_the_product(section_cases):
    from subembed.embedding import _section_order
    from subembed.subgroups import product_with_normal

    for name, group, subs in section_cases:
        lat = se.normal_lattice(group)
        for h in subs:
            for k, l in lat.covers:
                x = product_with_normal(se.intersect(h, lat.nodes[l]), lat.nodes[k])
                assert _section_order(h, lat, k, l) == x.order, (name, h.order, k, l)


def _as_triple(verdict):
    ref = verdict.refutation
    if ref is None:
        return verdict.holds, None, None
    return verdict.holds, (ref.lower, ref.upper), ref.reason


def test_cap_and_gen_cap_match_product_oracles(section_cases):
    for name, group, subs in section_cases:
        for h in subs:
            assert _as_triple(se.cap(group, h)) == product_cap(group, h), (name, h.order)
            assert _as_triple(se.gen_cap(group, h)) == product_gen_cap(group, h), (
                name,
                h.order,
            )


def test_supersoluble_predicates_build_no_products(corpus400, monkeypatch):
    # every chief factor of a supersoluble group has prime order, so each
    # section (H∩L)K is K or L and is decided by its order alone
    import subembed.embedding as embedding
    import subembed.subgroups as subgroups

    calls = []
    real = subgroups.product_mask

    def counting(a, b):
        calls.append((a.order, b.order))
        return real(a, b)

    checked = 0
    for name, cached in corpus400:
        if cached.order > 120 or not se.is_supersoluble(cached):
            continue
        group = se.generate_group(cached.generators, cached.degree, name=name)
        se.normal_lattice(group)
        pool = se.standard_pool(group)
        with monkeypatch.context() as patch:
            patch.setattr(subgroups, "product_mask", counting)
            patch.setattr(embedding, "product_mask", counting)
            for p, h in pool:
                se.partial_s_pi(group, h, p)
                se.partial_pi(group, h)
                se.cap(group, h)
                se.gen_cap(group, h)
        assert calls == [], name
        checked += 1
    assert checked >= 50


def test_factor_centralizer_bounds_every_cyclic_section(corpus400, query_mix_groups, group1875):
    # |G : C_G(L/K)| against the raw-row centralizer on every cover of
    # non-prime order; then every cyclic section <x>K strictly between K and
    # L has a normalizer index above 1 that divides it (order 1875 is too
    # large for the raw-row oracle, so it gets the second check only)
    from subembed.embedding import factor_centralizer_index
    from subembed.subgroups import is_prime, product_with_normal

    small = [(n, g) for n, g in corpus400 if g.order <= 120]
    covers = sections = 0
    for name, group in [*small, *query_mix_groups, ("(C5^2xC5^2):C3", group1875)]:
        lat = se.normal_lattice(group)
        for k, l in lat.covers:
            low, high = lat.nodes[k], lat.nodes[l]
            if is_prime(high.order // low.order):
                continue
            index = factor_centralizer_index(group, lat, k, l)
            if group is not group1875:
                brute = brute_factor_centralizer_order(group, low, high)
                assert index * brute == group.order, (name, k, l)
            covers += 1
            seen, strict = low.mask, set()
            for x in high.indices:
                if seen >> x & 1:
                    continue  # <xk>K = <x>K, so one x per coset xK will do
                seen |= mask_from_indices(group.table[x, low.index_array])
                section = product_with_normal(se.span(group, [x]), low)
                if section.order < high.order:
                    strict.add(section)
            for section in strict:
                n = group.order // se.normalizer(group, section).order
                assert n > 1 and index % n == 0, (name, k, l, section.order)
            sections += len(strict)
    assert (covers, sections) == (75, 712)


def test_centralizer_bound_keeps_every_verdict(corpus400, query_mix_groups, group1875, monkeypatch):
    # with the bound off every strict section is built and its normalizer
    # scanned; the verdicts, witnesses and refutations must not change.
    # recheck_witness_partial_s_pi never consults the bound.
    import subembed.embedding as embedding

    real = embedding._decided_by_centralizer
    decided = []

    def recording(*args):
        decided.append(real(*args))
        return decided[-1]

    def forbidden(*args):
        raise AssertionError("the recheck consulted the centralizer bound")

    small = [(n, g) for n, g in corpus400 if g.order <= 120]
    for name, group in [*small, *query_mix_groups, ("(C5^2xC5^2):C3", group1875)]:
        pool = se.standard_pool(group)

        def verdicts(decide):
            for section in ("partial_s_pi", "partial_pi", "gen_cap"):
                group.cache.pop(section, None)
            with monkeypatch.context() as patch:
                patch.setattr(embedding, "_decided_by_centralizer", decide)
                return [
                    (se.partial_s_pi(group, h, p), se.partial_pi(group, h), se.gen_cap(group, h))
                    for p, h in pool
                ]

        bounded = verdicts(recording)
        assert bounded == verdicts(lambda *args: None), name
        with monkeypatch.context() as patch:
            patch.setattr(embedding, "_decided_by_centralizer", forbidden)
            for (p, h), (verdict, _, _) in zip(pool, bounded):
                if verdict.holds:
                    assert recheck_witness_partial_s_pi(group, h, p, verdict.witness), name
    # the pools hold p-subgroups, so pi = {p} on every test, and the bound
    # never passes one: over an abelian p-factor a p-power |G : C_G(L/K)|
    # would be 1, since a p-group acting irreducibly on an F_p-module acts
    # trivially; over a non-abelian factor |G : C| has at least three primes
    assert (decided.count(True), decided.count(False), decided.count(None)) == (0, 16752, 367)


def test_centralizer_bound_outcomes(by_name, monkeypatch):
    # |A4 : C(V4)| = 3 and |S4 : C(V4)| = 6: the bound passes when pi holds
    # every prime of the index, fails when it holds none, else leaves the scan
    from subembed.embedding import _decided_by_centralizer, factor_centralizer_index

    a4, s4 = by_name["A4"], by_name["S4"]
    lat_a4, lat_s4 = se.normal_lattice(a4), se.normal_lattice(s4)
    assert factor_centralizer_index(a4, lat_a4, 0, 1) == 3
    assert factor_centralizer_index(s4, lat_s4, 0, 1) == 6
    assert _decided_by_centralizer(a4, lat_a4, 0, 1, (3,)) is True
    assert _decided_by_centralizer(a4, lat_a4, 0, 1, (2,)) is False
    assert _decided_by_centralizer(s4, lat_s4, 0, 1, (2, 3)) is True
    assert _decided_by_centralizer(s4, lat_s4, 0, 1, (5,)) is False
    assert _decided_by_centralizer(s4, lat_s4, 0, 1, (2,)) is None
    # a factor centralized by all of G has prime order, so no strict section
    import subembed.embedding as embedding
    from subembed.errors import InvariantError

    monkeypatch.setattr(embedding, "factor_centralizer_index", lambda *args: 1)
    with pytest.raises(InvariantError):
        _decided_by_centralizer(s4, lat_s4, 0, 1, (2,))


def test_s_qn_embedded_matches_the_span_search(corpus400, query_mix_groups):
    # the standard pool, the lattice nodes and seeded 2-element spans of
    # each group of order 25 to 60 and of each query-mix group; below order
    # 25, test_s_qn_embedded_is_exact_on_small_groups checks every subgroup
    import random

    answers = []
    small = [(n, g) for n, g in corpus400 if 24 < g.order <= 60]
    for name, group in [*small, *query_mix_groups]:
        subs = {h.mask: h for _, h in se.standard_pool(group)}
        for node in se.normal_lattice(group).nodes:
            subs.setdefault(node.mask, node)
        rng = random.Random(name)
        for _ in range(8):
            h = se.span(group, [rng.randrange(group.order), rng.randrange(group.order)])
            subs.setdefault(h.mask, h)
        joins = {}
        for h in subs.values():
            ours = se.s_qn_embedded(group, h)
            assert ours == span_s_qn_embedded(group, h, joins), (name, h.order)
            answers.append(ours)
    assert len(answers) == 427 and answers.count(False) == 126


@pytest.fixture(scope="module")
def small_subgroup_sets():
    """(name, group, masks of every subgroup, masks of the S-quasinormal
    ones) for each group of order at most 24, all by brute force."""
    out = []
    for name, group in se.builtin_corpus(24):
        subs = all_subgroups(group)
        out.append((name, group, subs, brute_s_quasinormal_masks(group, subs)))
    return out


def test_s_quasinormal_is_exact_on_small_groups(small_subgroup_sets):
    answers = []
    for name, group, subs, quasinormal in small_subgroup_sets:
        for mask in sorted(subs):
            got = se.s_quasinormal(group, Subgroup(group, mask))
            assert got == (mask in quasinormal), (name, mask.bit_count())
            answers.append(got)
    assert len(answers) == 444 and answers.count(False) == 177


def test_s_quasinormal_matches_the_product_test(corpus400, query_mix_groups, group1875):
    # p-subgroups are decided by O^p(G) normalizing H; the oracle compares
    # HS with SH for every Sylow conjugate S. The pools, then 60 seeded
    # p-subgroups per (group, p)
    small = [(n, g) for n, g in corpus400 if g.order <= 120]
    answers = {"pool": [], "random": []}
    for name, group in [*small, *query_mix_groups, ("(C5^2xC5^2):C3", group1875)]:
        cases = [("pool", h) for _, h in se.standard_pool(group)]
        for p in prime_divisors(group.order):
            cases += [("random", h) for h in random_p_subgroups(group, p, 60, f"{name}:{p}")]
        for kind, h in cases:
            got = se.s_quasinormal(group, h)
            assert got == brute_s_permutable(group, h), (name, kind, h.order)
            answers[kind].append(got)
    counts = {kind: (len(got), got.count(False)) for kind, got in answers.items()}
    assert counts == {"pool": (905, 510), "random": (7320, 2152)}


def test_s_quasinormal_named_cases():
    # O^2(D8xC3) = C3 centralizes the non-normal <(1 3)>; O^2(S4) = A4 does
    # not normalize <(1 2)(3 4)>
    d8c3 = se.build(se.Direct(se.Dihedral(8), se.Cyclic(3)))
    h = se.span(d8c3, [idx(d8c3, "(1 3)")])
    assert se.p_residual(d8c3, 2).order == 3
    assert not h.is_normal() and se.s_quasinormal(d8c3, h)
    s4 = se.build(se.Sym(4))
    k = se.span(s4, [idx(s4, "(1 2)(3 4)")])
    assert se.p_residual(s4, 2).order == 12
    assert not k.is_normal() and not se.s_quasinormal(s4, k)


def test_s_quasinormal_past_the_lattice_cap():
    # O^p(G) is the span of the p'-elements, so no lattice is read: C2^7 has
    # 29212 normal subgroups, C2^6xC3 5650 and C2^6xS3 more, all past the
    # node cap, and each p-subgroup is still answered
    c2_7 = se.build(se.ElemAbelian(2, 7))
    assert se.s_quasinormal(c2_7, se.span(c2_7, [1, 2]))
    answers = []
    for factor in (se.Cyclic(3), se.Sym(3)):
        group = se.build(se.Direct(se.ElemAbelian(2, 6), factor))
        for g in group.gen_indices:
            h = se.span(group, [g])
            got = se.s_quasinormal(group, h)
            assert got == brute_s_permutable(group, h), (group.order, h.order)
            answers.append((h.order, got))
        assert "lattice" not in group.cache
    assert "lattice" not in c2_7.cache
    assert answers.count((2, False)) == 1


def test_s_qn_embedded_is_exact_on_small_groups(small_subgroup_sets):
    # brute force over every subgroup: for each prime q of |H| some
    # S-quasinormal W of G has H_q as a Sylow q-subgroup
    answers = []
    for name, group, subs, quasinormal in small_subgroup_sets:
        for mask in sorted(subs - {1}):
            h = Subgroup(group, mask)
            expected = brute_s_qn_embedded(h, subs, quasinormal)
            assert se.s_qn_embedded(group, h) == expected, (name, h.order)
            answers.append(expected)
    assert len(answers) == 396 and answers.count(False) == 25


def _fresh_s6_and_sl23_s4():
    return [se.build(se.Sym(6)), se.build(se.Direct(se.SL23(), se.Sym(4)))]


def test_s_qn_embedded_runs_no_closure(monkeypatch):
    # with each Sylow subgroup of H found, the search itself spans nothing
    import subembed.subgroups as subgroups

    for group in _fresh_s6_and_sl23_s4():
        pool = [h for _, h in se.standard_pool(group)] + list(se.normal_lattice(group).nodes)
        pool += [se.span(group, [i, i + 1]) for i in range(1, 40, 3)]
        for h in pool:
            for q in prime_divisors(h.order):
                se.sylow_of_subgroup(h, q)
        calls = []
        real = subgroups.span

        def counting(g, seed):
            calls.append(len(seed))
            return real(g, seed)

        with monkeypatch.context() as patch:
            patch.setattr(subgroups, "span", counting)
            answers = [se.s_qn_embedded(group, h) for h in pool]
        assert calls == [], group.name
        assert False in answers and True in answers, group.name


def test_s_qn_embedded_builds_only_products_that_keep_h_q_sylow(monkeypatch):
    # with s_quasinormal answered on every candidate beforehand, the products
    # the search builds for a p-subgroup H are H·N for the nodes N, in
    # lattice order, with p coprime to |N : H∩N|
    import subembed.embedding as embedding

    for group in _fresh_s6_and_sl23_s4():
        nodes = se.normal_lattice(group).nodes
        pool = dict.fromkeys(h for _, h in se.standard_pool(group) if h.order > 1)
        for node in nodes:
            se.s_quasinormal(group, node)
        expected = []
        for h in pool:
            (p,) = prime_divisors(h.order)
            for node in nodes:
                se.s_quasinormal(group, Subgroup(group, product_mask(h, node)))
                if node.order // se.intersect(h, node).order % p:
                    expected.append((h.mask, node.mask))
        calls = []

        def recording(a, b):
            calls.append((a.mask, b.mask))
            return product_mask(a, b)

        with monkeypatch.context() as patch:
            patch.setattr(embedding, "product_mask", recording)
            for h in pool:
                se.s_qn_embedded(group, h)
        assert calls == expected, group.name
        assert len(expected) < len(pool) * len(nodes), group.name


@pytest.mark.parametrize(
    "expr, gens, index",
    [(se.Alt(6), "(1 2 3 4 5); (1 2 3)", 360), (se.Sym(6), "(1 2 3 4 5); (1 2)", 720)],
)
def test_centralizer_bound_passes_on_a_point_stabilizer(expr, gens, index, monkeypatch):
    # H = A5 in A6 or S5 in S6 fixes the point 6. On the cover 1 < A6 the
    # section X = H∩A6 = A5 has pi = {2, 3, 5}, which holds every prime of
    # |G : C_G(A6)| = |G|, so the bound passes it without building X; the
    # scan agrees: |G : N_G(X)| = 6 divides |G : C| and is a pi-number
    import subembed.embedding as embedding
    from subembed.embedding import _decided_by_centralizer, factor_centralizer_index

    group = se.build(expr)
    h = se.span(group, [idx(group, c) for c in gens.split(";")])
    lat = se.normal_lattice(group)
    assert (lat.nodes[1].order, h.order) == (360, group.order // 6)
    assert factor_centralizer_index(group, lat, 0, 1) == index
    assert _decided_by_centralizer(group, lat, 0, 1, (2, 3, 5)) is True
    x = Subgroup(group, h.mask & lat.nodes[1].mask)
    normalizer_index = group.order // se.normalizer(group, x).order
    assert normalizer_index == 6 and index % normalizer_index == 0
    real, seen = embedding._decided_by_centralizer, []

    def recording(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(embedding, "_decided_by_centralizer", recording)
    bounded = se.partial_pi(group, h)
    assert bounded.holds and True in seen
    group.cache.pop("partial_pi", None)
    monkeypatch.setattr(embedding, "_decided_by_centralizer", lambda *args: None)
    assert se.partial_pi(group, h) == bounded
