"""Subgroups as bit-indexed subsets of a parent group's element table."""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np

from .errors import InvariantError
from .groups import FiniteGroup, closure_indices, extend_closure


def mask_from_indices(indices) -> int:
    indices = np.asarray(indices, dtype=np.intp)
    if len(indices) == 0:
        return 0
    member = np.zeros(int(indices.max()) + 1, dtype=bool)
    member[indices] = True
    return mask_from_bool(member)


def mask_from_bool(member: np.ndarray) -> int:
    """The bitmask whose bit i is ``member[i]``."""
    packed = np.packbits(member, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def indices_from_mask(mask: int) -> tuple[int, ...]:
    """The set bit positions of ``mask``, ascending, as Python ints: the
    lowest set bit is taken off one at a time."""
    if mask < 0:
        raise ValueError("a mask is non-negative")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class Subgroup:
    """A subgroup of ``group``, stored as a bitmask over element indices.

    Word-parallel mask arithmetic makes intersections, containment tests and
    equality O(|G|/w). Instances are immutable and hashable. ``order`` is
    the mask's popcount, counted once when the instance is made.

    ``index_array`` (the member indices, ascending) is unpacked from the
    mask's bytes on first read and cached, as is ``member_bool``;
    ``indices``, the same indices as a tuple of Python ints, is built from
    ``index_array`` on every read and never kept.
    """

    __slots__ = ("group", "mask", "order", "__dict__")

    def __init__(self, group: FiniteGroup, mask: int):
        self.group = group
        self.mask = mask
        self.order = mask.bit_count()

    @classmethod
    def from_indices(cls, group: FiniteGroup, indices) -> "Subgroup":
        return cls(group, mask_from_indices(indices))

    @classmethod
    def trivial(cls, group: FiniteGroup) -> "Subgroup":
        return cls(group, 1)

    @classmethod
    def whole(cls, group: FiniteGroup) -> "Subgroup":
        return cls(group, (1 << group.order) - 1)

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.group is other.group
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((id(self.group), self.mask))

    def __repr__(self):
        return f"<Subgroup order={self.order} of {self.group!r}>"

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(self.index_array.tolist())

    @cached_property
    def index_array(self) -> np.ndarray:
        packed = self.mask.to_bytes((self.mask.bit_length() + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), bitorder="little")
        return np.flatnonzero(bits)

    @cached_property
    def member_bool(self) -> np.ndarray:
        member = np.zeros(self.group.order, dtype=bool)
        member[self.index_array] = True
        return member

    def contains_index(self, i: int) -> bool:
        return bool(self.mask >> int(i) & 1)

    def is_subset_of(self, other: "Subgroup") -> bool:
        return self.mask & other.mask == self.mask

    @cached_property
    def gens(self) -> tuple[int, ...]:
        """A small generating set, chosen greedily in element-index order."""

        def pick() -> tuple[int, ...]:
            have, gens = np.arange(self.group.order) == 0, []
            extend_closure(self.group, have, gens, self.index_array)
            if mask_from_bool(have) != self.mask:
                raise InvariantError("the greedy generators do not span the subgroup")
            return tuple(gens)

        return self.group.memo("small_gens", self.mask, pick)

    def is_normal(self) -> bool:
        """H^g = H for every generator g of G, tested on all of H."""
        member, group = self.member_bool, self.group
        return all(
            member[group.conj_set(self.index_array, g)].all() for g in group.gen_indices
        )

    def conjugate(self, g: int) -> "Subgroup":
        return Subgroup.from_indices(
            self.group, self.group.conj_set(self.index_array, g)
        )


def span(group: FiniteGroup, seed) -> Subgroup:
    """Smallest subgroup of ``group`` containing the seed element indices."""
    return Subgroup(group, mask_from_indices(closure_indices(group, seed)))


def intersect(a: Subgroup, b: Subgroup) -> Subgroup:
    if a.group is not b.group:
        raise ValueError("subgroups have different parent groups")
    return Subgroup(a.group, a.mask & b.mask)


def product_mask(a: Subgroup, b: Subgroup) -> int:
    """Bitmask of the element set {xy : x in a, y in b}.

    One broadcast gather from the Cayley table, the column of A's indices
    against the row of B's: entry (i, j) of the |A|×|B| block is a_i*b_j.
    Both index arrays are cached on the Subgroup objects, so a caller that
    keeps its objects (the lattice build keeps one per node) builds each
    once. The block holds |A||B| = |AB|·|A∩B| indices for as long as the
    call runs: at most 25M two-byte entries at the default order cap, next
    to the 200 MB table itself. The size of the result is checked against
    |A||B|/|A∩B|.
    """
    if a.group is not b.group:
        raise ValueError("subgroups have different parent groups")
    group = a.group
    if a.is_subset_of(b):
        return b.mask
    if b.is_subset_of(a):
        return a.mask
    covered = np.zeros(group.order, dtype=bool)
    covered[group.table[a.index_array[:, None], b.index_array]] = True
    out = mask_from_bool(covered)
    expected = a.order * b.order // (a.mask & b.mask).bit_count()
    if out.bit_count() != expected:
        raise InvariantError("product size violates |A||B|/|A∩B|")
    return out


def product_with_normal(a: Subgroup, n: Subgroup) -> Subgroup:
    """The subgroup a*n for n normal in the join (no closure check needed)."""
    return Subgroup(a.group, product_mask(a, n))


def require_own_subgroup(group: FiniteGroup, h: Subgroup) -> None:
    if h.group is not group:
        raise ValueError("subgroup has a different parent group")


def normalizer(group: FiniteGroup, h: Subgroup) -> Subgroup:
    """{g : h^g = h}, by a full scan over the group."""
    require_own_subgroup(group, h)

    def scan() -> int:
        ok = np.ones(group.order, dtype=bool)
        member = h.member_bool
        for s in h.gens:
            ok &= member[group.conj_by_all(s)]
        return mask_from_bool(ok)

    return Subgroup(group, group.memo("normalizer", h.mask, scan))


def centralizer(group: FiniteGroup, h: Subgroup) -> Subgroup:
    require_own_subgroup(group, h)
    ok = np.ones(group.order, dtype=bool)
    for s in h.gens:
        ok &= group.conj_by_all(s) == s
    return Subgroup(group, mask_from_bool(ok))


def center(group: FiniteGroup) -> Subgroup:
    return centralizer(group, Subgroup.whole(group))


def normal_closure_in(group: FiniteGroup, ambient_gens, seed) -> Subgroup:
    """Smallest subgroup containing ``seed`` that the ambient generators normalize.

    N starts as <seed>. For each generator x of N, as the list grows, one
    gather reads x^g for every ambient generator g, and N is extended by
    those it does not hold yet. Once every generator's conjugates lie in N,
    N^g <= N for every ambient g, so N^g = N, as N is finite."""
    gs = group._checked(ambient_gens)
    table, inv_gs = group.table, group.inv[gs]
    member = np.arange(group.order) == 0
    gens: list[int] = []
    extend_closure(group, member, gens, seed)
    for x in gens:  # the list grows while it is read
        extend_closure(group, member, gens, table[table[inv_gs, x], gs])
    return Subgroup(group, mask_from_bool(member))


def derived_of_subgroup(h: Subgroup) -> Subgroup:
    """[H,H]: the normal closure in H of the commutators of H's generators."""
    comms = h.group.commutators(h.gens, h.gens)
    return normal_closure_in(h.group, h.gens, comms.ravel())


def lower_central_series(group: FiniteGroup) -> list[Subgroup]:
    """gamma_1 >= gamma_2 >= ... until stable (last term repeated once dropped)."""
    series = [Subgroup.whole(group)]
    while True:
        comms = group.commutators(series[-1].gens, group.gen_indices)
        nxt = normal_closure_in(group, group.gen_indices, comms.ravel())
        if nxt == series[-1]:
            return series
        series.append(nxt)


def exponent(h: Subgroup) -> int:
    orders = h.group.element_orders[h.index_array]
    return int(math.lcm(*(int(o) for o in orders)))


def p_part(n: int, p: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    if p < 2:
        raise ValueError(f"{p} is not a valid base (must be at least 2)")
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def is_pi_number(n: int, pi) -> bool:
    """True iff every prime divisor of n lies in pi (1 is a pi-number for any pi)."""
    if n < 1:
        raise ValueError("n must be positive")
    for q in pi:
        if q < 2:
            raise ValueError(f"{q} is not a valid base (must be at least 2)")
        while n % q == 0:
            n //= q
    return n == 1


def prime_divisors(n: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def is_prime(n: int) -> bool:
    return n > 1 and prime_divisors(n) == (n,)


def is_p_group(h: Subgroup, p: int) -> bool:
    return p_part(h.order, p) == h.order


def is_abelian_subgroup(h: Subgroup) -> bool:
    """Every commutator of two generators is the identity, index 0."""
    return not h.group.commutators(h.gens, h.gens).any()


def is_cyclic_subgroup(h: Subgroup) -> bool:
    orders = h.group.element_orders[h.index_array]
    return bool(np.any(orders == h.order))


def _require_p_group(h: Subgroup, p: int):
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not is_p_group(h, p):
        raise ValueError(f"subgroup of order {h.order} is not a {p}-group")


def frattini_p(p_subgroup: Subgroup, p: int) -> Subgroup:
    """Frattini subgroup of a p-group P: the normal closure in P of the
    commutators and p-th powers of P's generators. The quotient by that
    closure is abelian and generated by elements of order p, so it is
    elementary abelian, and Phi(P) is the least such normal subgroup."""
    _require_p_group(p_subgroup, p)
    group, table = p_subgroup.group, p_subgroup.group.table
    xs = np.array(p_subgroup.gens, dtype=np.intp)
    powers = xs
    for _ in range(p - 1):
        powers = table[powers, xs]
    comms = group.commutators(xs, xs).ravel()
    return normal_closure_in(group, p_subgroup.gens, np.concatenate([powers, comms]))


def p_group_maximal_subgroups(p_subgroup: Subgroup, p: int) -> list[Subgroup]:
    """All index-p subgroups: kernels of the functionals on P/Phi(P) = F_p^d.

    The basis b_0, ..., b_{d-1} of P/Phi is picked in index order: b_k is
    the first element of P outside S = <Phi, b_0, ..., b_{k-1}>, and
    <S, b_k> is the union of the cosets S·b_k^c for c < p, each one gather
    of column b_k from the one before. Every element x of P is labelled with
    its coset of Phi as the base-p number whose digit k is the exponent of
    b_k. Once the digits are checked to add mod p along every generator of
    P, the labelling is a homomorphism onto F_p^d with kernel Phi; a wrong
    Phi can still give p^d cosets whose labels do not add. The functionals
    are ordered by the position of their leading 1, then lexicographically."""
    _require_p_group(p_subgroup, p)
    if p_subgroup.order == 1:
        return []
    group, table = p_subgroup.group, p_subgroup.group.table
    phi = frattini_p(p_subgroup, p)
    members, label = phi.index_array, np.full(group.order, -1, dtype=np.intp)
    label[members] = 0
    outside, d = p_subgroup.index_array, 0
    while len(outside := outside[label[outside] < 0]):
        cosets = [members]
        for _ in range(1, p):
            cosets.append(table[cosets[-1], outside[0]])
        members = np.concatenate(cosets)
        label[members] = np.arange(len(members)) // phi.order
        d += 1
    if p**d * phi.order != p_subgroup.order:
        raise InvariantError("P/Phi(P) is not elementary abelian of the basis rank")

    place = p ** np.arange(d)

    def digits(idx):
        return label[idx][..., None] // place % p

    xs, gens = p_subgroup.index_array[:, None], list(p_subgroup.gens)
    if ((digits(table[xs, gens]) - digits(xs) - digits(gens)) % p).any():
        raise InvariantError("the coset labels of P/Phi(P) are not a homomorphism")
    functionals = [
        (0,) * lead + (1,) + tail
        for lead in range(d)
        for tail in itertools.product(range(p), repeat=d - lead - 1)
    ]
    in_kernel = digits(members) @ np.array(functionals).T % p == 0
    out = [Subgroup.from_indices(group, members[column]) for column in in_kernel.T]
    if any(sub.order * p != p_subgroup.order for sub in out):
        raise InvariantError("a hyperplane kernel is not of index p")
    if len({sub.mask for sub in out}) != (p**d - 1) // (p - 1):
        raise InvariantError("the count of maximal subgroups is not (p^d - 1)/(p - 1)")
    return out


def omega(p_subgroup: Subgroup, p: int) -> Subgroup:
    """Subgroup generated by elements of order dividing p, or dividing 4 for
    a non-abelian 2-group."""
    _require_p_group(p_subgroup, p)
    bound = p
    if p == 2 and not is_abelian_subgroup(p_subgroup):
        bound = 4
    orders = p_subgroup.group.element_orders
    gens = [i for i in p_subgroup.indices if bound % int(orders[i]) == 0]
    return span(p_subgroup.group, gens)


def cyclic_subgroups_of_order(p_subgroup: Subgroup, m: int) -> list[Subgroup]:
    """Deduplicated <x> over elements x of exact order m (m = p or m = 4)."""
    p = prime_divisors(p_subgroup.order)[0] if p_subgroup.order > 1 else 0
    if m == 4:
        if p_subgroup.order > 1 and p != 2:
            raise ValueError("order 4 requested for an odd-order group")
    elif p_subgroup.order > 1 and m != p:
        raise ValueError(f"m must be the group prime {p} or 4, got {m}")
    orders = p_subgroup.group.element_orders
    covered = 0  # x of order m inside a found <y> of order m generates <y>
    out = []
    for i in p_subgroup.indices:
        if int(orders[i]) == m and not covered >> i & 1:
            sub = span(p_subgroup.group, [i])
            covered |= sub.mask
            out.append(sub)
    return out
