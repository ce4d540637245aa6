"""Subgroup-embedding predicates over chief series.

Each chief-series predicate tests every chief factor L/K, that is, every
cover pair (K, L) of the normal lattice. "Some chief series works"
(``partial_s_pi``, ``partial_pi``) is single-source reachability in the
cover-pair DAG: chief series are its maximal chains, so a path of passing
covers from the trivial node to the top exists iff an admissible chief
series does, and no chain is enumerated (elementary abelian groups have
exponentially many). "Every chief factor works" (``cap``, ``gen_cap``)
scans the cover pairs and reports the first one that fails.

One-series shortcut: a section strictly between K and L has |X : K| > 1
dividing |H| and |L : K|, and no factor of prime order has one. So when no
prime of |H| divides a chief factor of composite order
(``classify.composite_chief_primes``; by Jordan–Hölder one series gives
them), every cover passes: the scan holds at once, and the search returns
``a_chief_series``. That is the path it would find, so the witness is kept:
with every cover passing, its first node at each depth is the least
successor of the one before, and the normal lattice is modular, so each
node has one depth. For a p-subgroup H this is G being p-supersoluble.

An evaluation reads the lattice once and takes |H∩N| for every node N, one
mask popcount each. Since (H∩L)∩K = H∩K, the section X = (H∩L)K has
|X| = |H∩L|·|K|/|H∩K|, so each cover is decided by integer arithmetic on
those counts and the node orders, clause by clause in this order:

1. K ≤ X ≤ L and L/K is a chief factor, so X is K, or L, or a subgroup
   strictly between them that is not normal. X = K means H∩L ≤ K (the
   factor is avoided); X = K or X = L is normal, with normalizer index 1,
   and passes in both evaluators. On a prime-order factor no other X arises.
2. A strict section X is judged by two tests:
   - Hall: no prime of |X : K| divides |L : X| (for a p-group X/K: Sylow);
   - pi-normalizer: |G : N_G(X)| is a pi(X/K)-number.
   ``partial_s_pi`` asks for either, ``partial_pi`` for pi-normalizer,
   ``gen_cap`` for pi-normalizer on an abelian factor and Hall on a
   non-abelian one; ``cap`` fails every strict section.
3. The pi-normalizer test first reads |G : C| for C = C_G(L/K), one number
   per cover. C normalizes X (x^g ∈ xK ⊆ X for g ∈ C and x ∈ X) and X is
   not normal, so |G : N_G(X)| is a divisor of |G : C| above 1: a pi-number
   when every prime of |G : C| is in pi, and not one when none is.
4. Only when |G : C| has primes both in and outside pi is X built as a
   product and its normalizer scanned. ``recheck_witness_partial_s_pi``
   builds and scans every section, as an independent check.

S-quasinormality has one test: an S-quasinormal H has H/H_G ≤ Z_inf(G/H_G)
(Schmid, *J. Algebra* 207, 1998). Conversely each Sylow p-subgroup P/H_G of
the nilpotent H/H_G is then centralized by the p'-elements of G/H_G, which
act trivially on its central factors, so it is S-quasinormal by Lemma A
there, and so is their join H (Kegel, *Math. Z.* 78, 1962).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .classify import composite_chief_primes, hypercentre_over, sylow_of_subgroup
from .errors import InvariantError
from .groups import FiniteGroup
from .normal import NormalLattice, a_chief_series, normal_lattice
from .subgroups import (
    Subgroup,
    intersect,
    is_pi_number,
    normalizer,
    p_part,
    prime_divisors,
    product_mask,
    product_with_normal,
    require_own_subgroup,
    require_prime,
)


@dataclass(frozen=True)
class Refutation:
    """A violating chief factor nodes[lower] < nodes[upper] and the failed clause."""

    lower: int
    upper: int
    reason: str


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: tuple[int, ...] | None = None  # lattice node ids, bottom to top
    refutation: Refutation | None = None

    def __bool__(self) -> bool:
        return self.holds


def _meet_orders(h: Subgroup, lat: NormalLattice) -> list[int]:
    """|H ∩ N| for every lattice node N, one popcount each."""
    return [(h.mask & node.mask).bit_count() for node in lat.nodes]


def factor_centralizer_index(group: FiniteGroup, lat: NormalLattice, k: int, l: int) -> int:
    """|G : C_G(L/K)| for the cover pair (K, L), computed once per cover.

    g centralizes L/K iff s^g ∈ sK for every generator s of L: the x in L
    with x^g ∈ xK form a subgroup, since g acts on L/K as an automorphism.
    So each generator costs one ``conj_by_all`` gather, read against the
    boolean mask of the coset sK. The memo keys on node ids, which the
    group's one lattice fixes."""

    def compute() -> int:
        low = lat.nodes[k].index_array
        central = np.ones(group.order, dtype=bool)
        coset = np.zeros(group.order, dtype=bool)
        for s in lat.nodes[l].gens:
            coset[:] = False
            coset[group.table[s, low].astype(np.intp)] = True
            central &= coset.take(group.conj_by_all(s))
        return group.order // int(np.count_nonzero(central))

    return group.memo("factor_centralizer", (k, l), compute)


def _decided_by_centralizer(group: FiniteGroup, lat: NormalLattice, k: int, l: int, pi):
    """For a section X strictly between K and L, |G : N_G(X)| is a divisor
    of |G : C_G(L/K)| greater than 1. True when every prime of that index is
    in pi, False when none is, None when the bound does not decide."""
    index = factor_centralizer_index(group, lat, k, l)
    if index == 1:
        raise InvariantError("a chief factor centralized by G has a strict section")
    inside = [q in pi for q in prime_divisors(index)]
    if all(inside) or not any(inside):
        return all(inside)
    return None


def _non_hall_prime(lat: NormalLattice, k: int, l: int, x: int) -> int | None:
    """The Hall test of clause 2 on a section of order x: the least prime of
    |X : K| that divides |L : X|, or None when X/K is a Hall subgroup of L/K."""
    index = lat.nodes[l].order // x
    for q in prime_divisors(x // lat.nodes[k].order):
        if index % q == 0:
            return q
    return None


def _normalizer_is_pi(group, h, lat, k: int, l: int, x: int) -> bool:
    """The pi-normalizer test on X = (H∩L)K of order x: clause 3, else clause
    4. N_G(X)/K = N_{G/K}(X/K), so the index in G is the index upstairs."""
    pi = prime_divisors(x // lat.nodes[k].order)
    decided = _decided_by_centralizer(group, lat, k, l, pi)
    if decided is not None:
        return decided
    section = product_with_normal(intersect(h, lat.nodes[l]), lat.nodes[k])  # K is normal
    return is_pi_number(group.order // normalizer(group, section).order, pi)


def _some_chief_series(group: FiniteGroup, h: Subgroup, passes) -> Verdict:
    """Some chief series passes on every factor: a reachability search from
    the trivial node to the top along passing cover pairs, returning the
    first path found as the witness. A cover (K, L) passes when its section
    X = (H∩L)K is K or L, else when ``passes(lat, k, l, |X|)`` holds."""
    lat = normal_lattice(group)
    if all(h.order % q for q in composite_chief_primes(group)):  # one-series shortcut
        return Verdict(True, witness=a_chief_series(group).chain)
    meet, orders = _meet_orders(h, lat), [node.order for node in lat.nodes]
    parent, frontier, top = {0: None}, [0], lat.top
    while frontier:
        nxt = []
        for node in frontier:
            for upper in lat.up[node]:
                if upper in parent:
                    continue
                x = meet[upper] * orders[node] // meet[node]
                if x != orders[node] and x != orders[upper] and not passes(lat, node, upper, x):
                    continue
                parent[upper] = node
                if upper == top:
                    path = [upper]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return Verdict(True, witness=tuple(reversed(path)))
                nxt.append(upper)
        frontier = nxt
    return Verdict(False)


def _every_chief_factor(group: FiniteGroup, h: Subgroup, fails) -> Verdict:
    """Every chief factor passes: a scan of the cover pairs that reports the
    first failing one. A cover (K, L) passes when its section X = (H∩L)K is
    K or L, else when ``fails(lat, k, l, |X|)`` gives no reason."""
    lat = normal_lattice(group)
    if all(h.order % q for q in composite_chief_primes(group)):  # one-series shortcut
        return Verdict(True)
    meet, orders = _meet_orders(h, lat), [node.order for node in lat.nodes]
    for k, l in lat.covers:
        x = meet[l] * orders[k] // meet[k]
        if x != orders[k] and x != orders[l] and (reason := fails(lat, k, l, x)) is not None:
            return Verdict(False, refutation=Refutation(k, l, reason))
    return Verdict(True)


def partial_s_pi(group: FiniteGroup, h: Subgroup, p: int) -> Verdict:
    """True iff some chief series of G has, on every factor L/K, either
    (H∩L)K/K a Sylow p-subgroup of L/K, or |G : N_G((H∩L)K)| a p-number.

    H must be a p-subgroup of G, so pi((H∩L)K/K) = {p} and Sylow is Hall.
    """
    require_own_subgroup(group, h)

    def passes(lat: NormalLattice, k: int, l: int, x: int) -> bool:
        return _non_hall_prime(lat, k, l, x) is None or _normalizer_is_pi(group, h, lat, k, l, x)

    def search() -> Verdict:  # a stored (mask, p) passed these checks
        require_prime(p)
        if p_part(h.order, p) != h.order:
            raise ValueError(f"subgroup of order {h.order} is not a {p}-group")
        return _some_chief_series(group, h, passes)

    return group.memo("partial_s_pi", (h.mask, p), search)


def partial_pi(group: FiniteGroup, h: Subgroup) -> Verdict:
    """True iff some chief series has, on every factor, |G : N_G((H∩L)K)| a
    pi((H∩L)K/K)-number. Only 1 is an empty-pi number, which is harmless:
    an avoided factor forces X = K, normal of index 1."""
    require_own_subgroup(group, h)

    passes = partial(_normalizer_is_pi, group, h)
    return group.memo("partial_pi", h.mask, lambda: _some_chief_series(group, h, passes))


def cap(group: FiniteGroup, h: Subgroup) -> Verdict:
    """Cover-avoidance: every chief factor L/K has L <= HK or H∩L <= K.

    Both clauses are order tests on X = (H∩L)K. H∩L <= K iff H∩L = H∩K iff
    |X| = |K|. Since K <= L, Dedekind's law gives HK ∩ L = (H∩L)K, so
    L <= HK iff X = L iff |X| = |L|: every strict section fails.
    """
    require_own_subgroup(group, h)

    def fails(lat: NormalLattice, k: int, l: int, x: int) -> str:
        return "neither covers nor avoids"

    return group.memo("cap", h.mask, lambda: _every_chief_factor(group, h, fails))


def gen_cap(group: FiniteGroup, h: Subgroup) -> Verdict:
    """Generalized cover-avoidance: every chief factor is avoided, or
    (q-group factor) |G : N_G((H∩L)K)| is a q-number, or (non-abelian
    factor) |L : (H∩L)K| is coprime to every prime of (H∩L)K/K. A chief
    factor is abelian exactly when its order is a prime power."""
    require_own_subgroup(group, h)

    def fails(lat: NormalLattice, k: int, l: int, x: int) -> str | None:
        factor_primes = prime_divisors(lat.nodes[l].order // lat.nodes[k].order)
        if len(factor_primes) == 1:  # a q-group factor: pi((H∩L)K/K) = {q}
            if not _normalizer_is_pi(group, h, lat, k, l, x):
                return f"|G : N_G((H∩L)K)| is not a {factor_primes[0]}-number"
        elif (q := _non_hall_prime(lat, k, l, x)) is not None:
            return f"|L : (H∩L)K| is divisible by {q}"
        return None

    return group.memo("gen_cap", h.mask, lambda: _every_chief_factor(group, h, fails))


def s_quasinormal(group: FiniteGroup, h: Subgroup) -> bool:
    """True iff H permutes with every Sylow subgroup of G (HS = SH for all
    conjugates of every Sylow subgroup): iff H/H_G ≤ Z_inf(G/H_G) (module
    docstring). The core H_G is the union of the conjugacy classes inside
    H, read off ``group.class_labels``; Z_inf is ``hypercentre_over``."""
    require_own_subgroup(group, h)

    def permutes() -> bool:
        labels, outside = group.class_labels, np.zeros(group.order, dtype=bool)
        outside[labels[~h.member_bool]] = True  # the classes not inside H
        core = Subgroup.from_indices(group, np.flatnonzero(h.member_bool & ~outside.take(labels)))
        return core == h or h.is_subset_of(hypercentre_over(core))

    return group.memo("s_quasinormal", h.mask, permutes)


def s_qn_embedded(group: FiniteGroup, h: Subgroup) -> bool:
    """True iff, for each prime q dividing |H|, some S-quasinormal subgroup of
    G has a Sylow q-subgroup equal to one of H.

    The witness search is anchored to the normal lattice: for a Sylow
    q-subgroup H_q of H, the candidates are the products H_q·N with the
    lattice nodes N, in lattice order, for which q does not divide
    |N : H_q∩N|. N is normal, so H_q·N is a subgroup of order
    |H_q|·|N : H_q∩N| with H_q as a Sylow q-subgroup, and each is built by
    one Cayley-table gather only when the search reaches it.

    The search is exact. Let T be S-quasinormal with H_q as a Sylow
    q-subgroup, and let N = T_G, a lattice node. H_q∩N is Sylow in N, so q
    does not divide |N : H_q∩N|. By Schmid, T/N ≤ Z_inf(G/N). Let C ≥ N be
    the core of H_q·N; the image of Z_inf(G/N) in G/C lies in Z_inf(G/C),
    so H_q·N/C ≤ Z_inf(G/C), and by the converse ``s_quasinormal`` relies
    on, H_q·N is S-quasinormal with H_q Sylow in it. So a product H_q·N
    over the nodes N is a witness whenever any witness exists, and the
    choice of H_q does not matter, since the Sylow q-subgroups of H are
    conjugate in H. Past the lattice's node cap it raises, as
    ``normal_lattice`` does.
    """
    require_own_subgroup(group, h)

    def search() -> bool:
        nodes = normal_lattice(group).nodes
        for q in prime_divisors(h.order):
            hq = sylow_of_subgroup(h, q)
            if not any(
                s_quasinormal(group, Subgroup(group, product_mask(hq, node)))
                for node in nodes
                if node.order // (hq.mask & node.mask).bit_count() % q  # |N : H_q∩N|
            ):
                return False
        return True

    return group.memo("s_qn_embedded", h.mask, search)


def recheck_witness_partial_s_pi(
    group: FiniteGroup, h: Subgroup, p: int, chain: tuple[int, ...]
) -> bool:
    """Re-validate a witness chain clause by clause (used for spot audits).

    Each section (H∩L)K is built as a product and its normalizer scanned,
    independently of the order tests and the centralizer bound the
    predicate itself uses."""
    lat = normal_lattice(group)
    if not chain or chain[0] != 0 or chain[-1] != lat.top:
        return False
    cover_set = set(lat.covers)
    for k, l in zip(chain, chain[1:]):
        if (k, l) not in cover_set:
            return False
        x = product_with_normal(intersect(h, lat.nodes[l]), lat.nodes[k])
        factor = lat.nodes[l].order // lat.nodes[k].order
        sylow_clause = x.order // lat.nodes[k].order == p_part(factor, p)
        index = group.order // normalizer(group, x).order
        if not sylow_clause and not is_pi_number(index, (p,)):
            return False
    return True
