"""Shared fixtures and brute-force oracles used across the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import subembed as se


_APART_BUILT: dict = {}


def apart_corpus(max_order, include_example_1875=False):
    """``builtin_corpus(max_order, include_example_1875)`` over groups built
    once for the session into a dict of their own, not ``catalog._BUILT``.
    ``run_corpus`` releases the groups of ``_BUILT`` after each group's
    checks, so these keep the lattices and tables they have filled whichever
    tests ran before."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(se.catalog, "_BUILT", _APART_BUILT)
        return se.builtin_corpus(max_order, include_example_1875=include_example_1875)


@pytest.fixture(scope="session")
def corpus400():
    return apart_corpus(400)


@pytest.fixture(scope="session")
def by_name(corpus400):
    return dict(corpus400)


@pytest.fixture(scope="session")
def query_mix_groups():
    """The eight groups of the ``query-mix`` benchmark workload, built fresh."""
    D = se.Direct
    exprs = [
        ("S5", se.Sym(5)),
        ("SL(2,3)", se.SL23()),
        ("A4xC3", D(se.Alt(4), se.Cyclic(3))),
        ("D8xC2", D(se.Dihedral(8), se.Cyclic(2))),
        ("C5^3", se.ElemAbelian(5, 3)),
        ("S6", se.Sym(6)),
        ("A5xS3", D(se.Alt(5), se.Sym(3))),
        ("SL(2,3)xS4", D(se.SL23(), se.Sym(4))),
    ]
    return [(name, se.build(expr)) for name, expr in exprs]


@pytest.fixture(scope="session")
def lattice_rich_groups():
    """Groups with large normal lattices, by name: the nine of the
    ``invariants-lattice`` benchmark workload (``INVARIANTS_LATTICE``), and
    D8xC2^2 and C2^4xC3, where many nodes share an order (35 of order 8 in
    D8xC2^2, 35 each of orders 4 and 12 in C2^4xC3)."""
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
        "D8xC2^2": D(se.Dihedral(8), E(2, 2)),
        "C2^4xC3": D(E(2, 4), se.Cyclic(3)),
    }
    return {name: se.build(expr) for name, expr in exprs.items()}


INVARIANTS_LATTICE = (
    "C2^5",
    "C3^4",
    "C2^4xC3^2",
    "C2^3xC3^3",
    "D8xC2^3",
    "Q8xC2^3",
    "C2^5xC3",
    "S4xC2^3",
    "S3xS3xC2^2",
)


@pytest.fixture(scope="session")
def group1875():
    return dict(apart_corpus(1, include_example_1875=True))["(C5^2xC5^2):C3"]


@pytest.fixture
def closure_drops_an_element(monkeypatch):
    """Make ``subembed.subgroups.extend_closure`` drop the last member of
    each closure it grows, a broken closure for invariant checks to catch."""
    import subembed.subgroups as subgroups

    real = subgroups.extend_closure

    def dropping(group, member, gens, new):
        real(group, member, gens, new)
        member[member.nonzero()[0][-1]] = False
        return member

    monkeypatch.setattr(subgroups, "extend_closure", dropping)


# -- brute-force oracles ----------------------------------------------------


def raw_compose(a: tuple, b: tuple) -> tuple:
    """Apply a, then b, on 1-based image tuples (independent of the library)."""
    return tuple(b[i - 1] for i in a)


def raw_inverse(a: tuple) -> tuple:
    """The inverse of a 1-based image tuple."""
    return tuple(sorted(range(1, len(a) + 1), key=lambda x: a[x - 1]))


def raw_closure(perms: set[tuple]) -> set[tuple]:
    n = len(next(iter(perms)))
    out = set(perms)
    out.add(tuple(range(1, n + 1)))
    while True:
        new = {raw_compose(a, b) for a in out for b in out} - out
        if not new:
            return out
        out |= new


def reference_generate_group(gens, degree, cap=se.groups.DEFAULT_ORDER_CAP):
    """The per-row breadth-first builder that ``generate_group`` replaced:
    every new row is kept on its own, as a view of its product block, and
    keyed on its int32 bytes. ``generate_group`` must give the same rows,
    breadth-first edges, generator indices and generator columns, and the
    same ``ResourceCapError.reached``."""
    gens = list(gens)
    gen_rows = [np.asarray([i - 1 for i in g.images], dtype=np.int32) for g in gens]
    identity = np.arange(degree, dtype=np.int32)
    rows = [identity]
    index = {identity.tobytes(): 0}
    edges = [(-1, -1)]
    columns = [[] for _ in gen_rows]
    frontier = [0]
    while frontier:
        frontier_rows = np.stack([rows[i] for i in frontier])
        next_frontier = []
        for gpos, grow in enumerate(gen_rows):
            for t, row in enumerate(grow[frontier_rows]):
                key = row.tobytes()
                got = index.get(key)
                if got is None:
                    if len(rows) >= cap:
                        raise se.ResourceCapError("group order exceeds cap", len(rows))
                    got = index[key] = len(rows)
                    edges.append((frontier[t], gpos))
                    next_frontier.append(got)
                    rows.append(row)
                columns[gpos].append(got)
        frontier = next_frontier
    gen_indices = [column[0] for column in columns]
    columns = np.array(columns, dtype=np.min_scalar_type(len(rows) - 1))
    return se.FiniteGroup(degree, np.stack(rows), gen_indices, gens, edges, columns)


def row_lookup(group):
    """A map from image rows of ``group`` to element indices, made from the
    rows alone. Each row is keyed by its dot product with fixed random
    weights; the keys are checked distinct on the group's rows, and every
    row looked up is compared in full with the row found."""
    weights = np.random.default_rng(0).integers(1, 2**62, group.degree)
    keys = group.rows.astype(np.int64) @ weights
    order = np.argsort(keys)
    sorted_keys = keys[order]
    assert (np.diff(sorted_keys) != 0).all()

    def lookup(rows):
        pos = np.searchsorted(sorted_keys, rows @ weights)
        found = order[np.minimum(pos, len(order) - 1)]
        assert (group.rows[found] == rows).all()
        return found

    return lookup


def row_closure(group, lookup, start, gens) -> np.ndarray:
    """The boolean member array of the closure of the elements ``start``
    (which hold 1) under right multiplication by ``gens``, breadth first
    over image rows: the row of x*g is g's row read at x's images."""
    member = np.zeros(group.order, dtype=bool)
    member[start] = True
    gen_rows = group.rows[list(gens)]
    frontier = np.asarray(start)
    while len(frontier):
        products = gen_rows[:, group.rows[frontier]]  # [j, t] is frontier[t] * gens[j]
        reached = np.zeros(group.order, dtype=bool)
        reached[lookup(products.reshape(-1, group.degree))] = True
        reached &= ~member
        member |= reached
        frontier = reached.nonzero()[0]
    return member


def brute_factor_centralizer_order(group, low, high) -> int:
    """Oracle: |C_G(L/K)|, the number of g with x^-1 x^g in K for every x in
    L, composed on image rows (the row of a*b is b's row read at a's
    images), with no Cayley table and no generators of L."""
    lookup = row_lookup(group)
    in_low = np.zeros(group.order, dtype=bool)
    in_low[list(low.indices)] = True
    xs = group.rows[list(high.indices)]
    # conj[x, g] is the row of g^-1 x g, comm[x, g] that of x^-1 x^g
    conj = np.take_along_axis(group.rows[None], xs[:, np.argsort(group.rows, axis=1)], axis=2)
    comm = np.take_along_axis(conj, np.argsort(xs, axis=1)[:, None], axis=2)
    found = lookup(comm.reshape(-1, group.degree)).reshape(len(xs), group.order)
    return int(in_low[found].all(axis=0).sum())


def all_subgroups(group) -> set[int]:
    """Masks of every subgroup, grown from the trivial one an element at a time.

    Every subgroup <h1, ..., hk> is reached along <h1> < <h1, h2> < ..., so
    no bound on the number of generators is assumed. Each <H, g> is closed
    over image rows (``row_closure``), from H under H's recorded generators
    and g, with no library closure and no Cayley table. g runs over the
    least element of each right coset Hg outside H, since <H, hg> = <H, g>.
    """
    from subembed.subgroups import mask_from_bool

    lookup = row_lookup(group)
    gens_of = {1: ()}
    frontier = [1]
    while frontier:
        grown = []
        for mask in frontier:
            members = [i for i in range(group.order) if mask >> i & 1]
            # products[x, t] is members[t] * x, so row x spans the coset Hx
            products = group.rows[:, group.rows[members]]
            least = lookup(products.reshape(-1, group.degree)).reshape(group.order, -1).min(axis=1)
            for g in np.unique(least)[1:].tolist():
                new = mask_from_bool(row_closure(group, lookup, members, gens_of[mask] + (g,)))
                if new not in gens_of:
                    gens_of[new] = gens_of[mask] + (g,)
                    grown.append(new)
        frontier = grown
    return set(gens_of)


def brute_normal_masks(group) -> set[int]:
    return {mask for mask in all_subgroups(group) if se.Subgroup(group, mask).is_normal()}


def brute_covers(nodes) -> list[tuple[int, int]]:
    """Oracle: the pairs (i, j) with nodes[i] < nodes[j] and no node strictly
    between, by testing every middle node."""

    def strictly_below(a, b):
        return a.order < b.order and a.is_subset_of(b)

    return [
        (i, j)
        for i, low in enumerate(nodes)
        for j, high in enumerate(nodes)
        if strictly_below(low, high)
        and not any(strictly_below(low, mid) and strictly_below(mid, high) for mid in nodes)
    ]


def matrix_covers(nodes) -> list[tuple[int, int]]:
    """Oracle: the cover pairs of ``nodes`` from their containment matrix, in
    quadratic space rather than the cubic loop of ``brute_covers``. S[i, j]
    says nodes[i] < nodes[j], and (S·S)[i, j] counts the nodes strictly
    between, so the covers are where S holds and S·S is zero."""
    member = np.array([n.member_bool for n in nodes], dtype=np.float32)
    orders = member.sum(axis=1)
    meet = member @ member.T
    strict = (meet == orders[:, None]) & (orders[:, None] < orders[None, :])
    s = strict.astype(np.float32)
    cover = strict & ((s @ s) == 0)
    return [(int(i), int(j)) for i, j in zip(*np.nonzero(cover))]


def factor_is_abelian(group, lower, upper) -> bool:
    """Whether upper/lower is abelian: the derived subgroup of upper lies in lower."""
    from subembed.subgroups import derived_of_subgroup

    return derived_of_subgroup(upper).is_subset_of(lower)


def soluble_by_chief_factors(group) -> bool:
    """Oracle: solubility read off one chief series, every factor abelian of
    prime-power order; ``is_soluble`` goes by the derived series instead."""
    from subembed.normal import a_chief_series
    from subembed.subgroups import prime_divisors

    lat = se.normal_lattice(group)
    chain = a_chief_series(group).chain
    for a, b in zip(chain, chain[1:]):
        low, high = lat.nodes[a], lat.nodes[b]
        if len(prime_divisors(high.order // low.order)) != 1:
            return False
        if not factor_is_abelian(group, low, high):
            return False
    return True


def brute_u_hypercentre(group):
    """Oracle: join of all normal N whose internal cover pairs all have
    prime-order factors (the definitional reading, brute force)."""
    from subembed.subgroups import is_prime, product_with_normal

    lat = se.normal_lattice(group)
    acc = se.Subgroup.trivial(group)
    for node in lat.nodes:
        hypercentral = True
        for k, l in lat.covers:
            if lat.nodes[l].is_subset_of(node):
                if not is_prime(lat.nodes[l].order // lat.nodes[k].order):
                    hypercentral = False
                    break
        if hypercentral:
            acc = product_with_normal(acc, node)
    return acc


def brute_partial_s_pi(group, h, p, series_limit=500) -> bool:
    """Oracle: explicitly enumerate chief series and test every factor."""
    from subembed.subgroups import p_part, product_with_normal

    lat = se.normal_lattice(group)
    for series in se.chief_series_enumerate(group, series_limit):
        ok = True
        for k, l in zip(series.chain, series.chain[1:]):
            low, high = lat.nodes[k], lat.nodes[l]
            x = product_with_normal(se.intersect(h, high), low)
            factor = high.order // low.order
            if x.order // low.order == p_part(factor, p):
                continue
            index = group.order // se.normalizer(group, x).order
            if se.is_pi_number(index, (p,)):
                continue
            ok = False
            break
        if ok:
            return True
    return False


def span_s_qn_embedded(group, h, joins: dict) -> bool:
    """Oracle: the lattice-anchored witness search with every join <H_q, N>
    closed by ``span`` from generators. Candidates are the lattice nodes and
    those joins, kept when they contain H_q with H_q Sylow in them, and
    tried in mask order. ``joins`` keeps each closed join by (H_q, N) masks,
    for reuse by the caller's next call on the same group."""
    from subembed.subgroups import p_part, prime_divisors

    def join(hq, node):
        key = (hq.mask, node.mask)
        if key not in joins:
            joins[key] = se.span(group, set(hq.gens) | set(node.gens)).mask
        return joins[key]

    lat = se.normal_lattice(group)
    for q in prime_divisors(h.order):
        hq = se.sylow_of_subgroup(h, q)
        candidates = {node.mask for node in lat.nodes}
        candidates.update(join(hq, node) for node in lat.nodes)
        for mask in sorted(candidates):
            w = se.Subgroup(group, mask)
            if hq.is_subset_of(w) and p_part(w.order, q) == hq.order:
                if se.s_quasinormal(group, w):
                    break
        else:
            return False
    return True


def brute_s_quasinormal_masks(group, subgroup_masks) -> set[int]:
    """Oracle: the subgroups W with WS = SW for every Sylow subgroup S of G.
    The Sylow subgroups are all subgroups of full prime-power order, and
    each product set is gathered from the Cayley table."""
    from subembed.subgroups import p_part, prime_divisors

    def product_set(a, b):
        return set(group.table[np.ix_(a, b)].ravel().tolist())

    members = {m: se.Subgroup(group, m).indices for m in subgroup_masks}
    full = {p_part(group.order, p) for p in prime_divisors(group.order)}
    sylows = [m for m in subgroup_masks if m.bit_count() in full]
    return {
        w
        for w in subgroup_masks
        if all(
            product_set(members[w], members[s]) == product_set(members[s], members[w])
            for s in sylows
        )
    }


def brute_s_permutable(group, h) -> bool:
    """Oracle: H is normal, or HS = SH as product sets for every Sylow
    conjugate S (at once when one of H and S contains the other), with no
    use of O^p(G)."""
    from subembed.subgroups import product_mask, prime_divisors

    if h.is_normal():
        return True
    return all(
        h.is_subset_of(s) or s.is_subset_of(h) or product_mask(h, s) == product_mask(s, h)
        for p in prime_divisors(group.order)
        for s in se.sylow_conjugates(group, p)
    )


def random_p_subgroups(group, p, count, seed):
    """``count`` seeded p-subgroups: the span of one or two random members
    of a random conjugate of the Sylow p-subgroup."""
    import random

    rng = random.Random(seed)
    syl = se.sylow(group, p)
    out = []
    for _ in range(count):
        members = syl.conjugate(rng.randrange(group.order)).indices
        picks = [rng.choice(members) for _ in range(rng.choice((1, 2)))]
        out.append(se.span(group, picks))
    return out


def brute_s_qn_embedded(h, subgroup_masks, quasinormal) -> bool:
    """Oracle: for each prime q of |H|, some S-quasinormal W has a Sylow
    q-subgroup of H as a Sylow q-subgroup. H_q is the first subgroup of H of
    order |H|_q; the Sylow q-subgroups of H are conjugate in H and
    conjugation keeps W S-quasinormal, so the choice does not matter."""
    from subembed.subgroups import p_part, prime_divisors

    for q in prime_divisors(h.order):
        target = p_part(h.order, q)
        hq = min(
            m for m in subgroup_masks if m & h.mask == m and m.bit_count() == target
        )
        if not any(
            w & hq == hq and p_part(w.bit_count(), q) == target for w in quasinormal
        ):
            return False
    return True


# -- full-product oracles ------------------------------------------------------
# The library reads each section (H∩L)K off its order. These oracles build
# every section as a product, as the definitions read, and return the verdict
# with the first failing cover pair and its reason: (holds, (lower, upper) or
# None, reason or None).


def product_cap(group, h):
    """CAP: each factor covered (L <= HK, tested on the product set HK) or
    avoided (H∩L <= K)."""
    from subembed.subgroups import product_mask

    lat = se.normal_lattice(group)
    for k, l in lat.covers:
        low, high = lat.nodes[k], lat.nodes[l]
        if se.intersect(h, high).is_subset_of(low):
            continue
        if high.mask & ~product_mask(h, low) == 0:
            continue
        return False, (k, l), "neither covers nor avoids"
    return True, None, None


def product_gen_cap(group, h):
    """gen-CAP with (H∩L)K built by product_mask on every non-avoided factor."""
    from subembed.subgroups import prime_divisors, product_with_normal

    lat = se.normal_lattice(group)
    for k, l in lat.covers:
        low, high = lat.nodes[k], lat.nodes[l]
        if se.intersect(h, high).is_subset_of(low):
            continue
        x = product_with_normal(se.intersect(h, high), low)
        factor_primes = prime_divisors(high.order // low.order)
        if len(factor_primes) == 1:
            q = factor_primes[0]
            index = group.order // se.normalizer(group, x).order
            if se.is_pi_number(index, (q,)):
                continue
            return False, (k, l), f"|G : N_G((H∩L)K)| is not a {q}-number"
        cofactor = high.order // x.order
        bad = [q for q in prime_divisors(x.order // low.order) if cofactor % q == 0]
        if bad:
            return False, (k, l), f"|L : (H∩L)K| is divisible by {bad[0]}"
    return True, None, None


# -- child-group oracles ------------------------------------------------------
# The library reads quotient and normal-subgroup structure off G's own normal
# lattice. These oracles take the other route: they build G/K by the coset
# action (`quotient`) or a normal E as a group of its own
# (`subgroup_as_group`), then compute on that child group and its lattice.


def quotient_u_hypercentre(group):
    """Z_U(G): adjoin every prime-order minimal normal subgroup of G/K,
    with each G/K built as a group, until none is left."""
    from subembed.subgroups import is_prime, product_with_normal

    current = se.Subgroup.trivial(group)
    while True:
        qmap = se.quotient(group, current)
        lat = se.normal_lattice(qmap.image)
        atoms = [lat.nodes[j] for j in lat.up[0] if is_prime(lat.nodes[j].order)]
        if not atoms:
            return current
        joined = se.Subgroup.trivial(qmap.image)
        for atom in atoms:
            joined = product_with_normal(joined, atom)
        current = qmap.preimage_subgroup(joined)


def quotient_hypercentre(group):
    """Z_inf(G): lift the centre of G/K, with G/K built as a group, until
    it stops growing."""
    current = se.Subgroup.trivial(group)
    while True:
        qmap = se.quotient(group, current)
        lifted = qmap.preimage_subgroup(se.center(qmap.image))
        if lifted == current:
            return current
        current = lifted


def quotient_hypercentre_over(kernel):
    """The preimage in G of Z_inf(G/K), with G/K built as a group."""
    qmap = se.quotient(kernel.group, kernel)
    return qmap.preimage_subgroup(quotient_hypercentre(qmap.image))


def quotient_fitting_p(group, p):
    """F_p(G): the preimage of O_p(G/O_p'(G)), with the quotient built."""
    qmap = se.quotient(group, se.radical_p_prime(group, p))
    return qmap.preimage_subgroup(se.radical_p(qmap.image, p))


def quotient_u_hypercentre_over(kernel):
    """The preimage in G of Z_U(G/K), with G/K built as a group."""
    qmap = se.quotient(kernel.group, kernel)
    return qmap.preimage_subgroup(quotient_u_hypercentre(qmap.image))


def socle(group):
    """The join of the minimal normal subgroups of ``group``."""
    if group.order == 1:
        return se.Subgroup.trivial(group)
    lat = se.normal_lattice(group)
    sid = 0
    for j in lat.up[0]:
        sid = lat.join_id(sid, j)
    return lat.nodes[sid]


def pull_to_parent(sub_of_child, to_parent, parent):
    """Map a subgroup of a materialized child group back into the parent."""
    return se.Subgroup.from_indices(parent, to_parent[sub_of_child.index_array])


def push_to_child(sub_of_parent, from_parent, child):
    """Map a subgroup of the parent into a materialized child group."""
    return se.Subgroup.from_indices(child, [from_parent[i] for i in sub_of_parent.indices])


def _as_child(e):
    child, to_parent, _ = se.subgroup_as_group(e)
    return child, lambda sub: se.Subgroup.from_indices(e.group, to_parent[sub.index_array])


def child_o_p_prime(e, p):
    """O_p'(E), computed in E built as a group."""
    child, lift = _as_child(e)
    return lift(se.radical_p_prime(child, p))


def child_fitting_p(e, p):
    child, lift = _as_child(e)
    return lift(quotient_fitting_p(child, p))


def child_f_star(e):
    child, lift = _as_child(e)
    return lift(se.f_star(child))


def child_is_p_soluble(e, p):
    child, _ = _as_child(e)
    return se.is_p_soluble(child, p)


def child_is_p_nilpotent(e, p):
    child, _ = _as_child(e)
    return se.is_p_nilpotent(child, p)


def child_z_u_mod_o_p_prime(e, p):
    """The preimage in G of Z_U(G/O_p'(E)), both read from child groups."""
    return quotient_u_hypercentre_over(child_o_p_prime(e, p))


def child_group_f_star(group):
    """F*(G) as the preimage of Soc(F·C_G(F)/F), with F·C_G(F) and its
    quotient by F = F(G) built as groups."""
    from subembed.subgroups import product_with_normal

    fit = se.fitting(group)
    fc = product_with_normal(se.centralizer(group, fit), fit)
    child, to_parent, from_parent = se.subgroup_as_group(fc)
    kernel = se.Subgroup.from_indices(child, [from_parent[i] for i in fit.indices])
    qmap = se.quotient(child, kernel)
    soc = qmap.preimage_subgroup(socle(qmap.image))
    return se.Subgroup.from_indices(group, to_parent[soc.index_array])


def child_sylow_of_subgroup(h, p):
    """A Sylow p-subgroup of H, computed in H built as a group."""
    child, lift = _as_child(h)
    return lift(se.sylow(child, p))
