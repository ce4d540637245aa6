"""Normal-subgroup lattice, chief series, and quotient construction."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import or_

import numpy as np

from .errors import InvariantError, ResourceCapError
from .groups import FiniteGroup, generate_group, orbit_labels
from .perms import Permutation
from .subgroups import Subgroup, indices_from_mask, product_mask, span

DEFAULT_NODE_CAP = 4096
_JOIN_ENTRIES = 25_000_000  # entries of a block of joins: one product_mask block's bound
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # bits of each byte reversed


@dataclass(frozen=True)
class NormalLattice:
    """All normal subgroups of a group with their covering relation.

    ``nodes[0]`` is the trivial subgroup and ``nodes[-1]`` the whole group;
    nodes are sorted by (order, member indices) so ids are reproducible.
    A cover pair (k, l) means nodes[k] < nodes[l] with nothing normal
    strictly between, i.e. nodes[l]/nodes[k] is a chief factor.
    """

    group: FiniteGroup
    nodes: tuple[Subgroup, ...]
    covers: tuple[tuple[int, int], ...]
    up: dict[int, tuple[int, ...]] = field(repr=False)
    node_by_mask: dict[int, int] = field(repr=False)

    @property
    def top(self) -> int:
        return len(self.nodes) - 1

    def node_id(self, sub: Subgroup) -> int:
        got = self.node_by_mask.get(sub.mask)
        if got is None:
            raise ValueError("subgroup is not normal (not a lattice node)")
        return got

    def join_id(self, i: int, j: int) -> int:
        """Node id of the join nodes[i] * nodes[j]."""
        a, b = self.nodes[i], self.nodes[j]
        if a.is_subset_of(b):
            return j
        if b.is_subset_of(a):
            return i
        return self.node_by_mask[product_mask(a, b)]


def normal_lattice(group: FiniteGroup, node_cap: int = DEFAULT_NODE_CAP) -> NormalLattice:
    """The normal-subgroup lattice of ``group``, built once and cached.

    Raises :class:`ResourceCapError` if and only if ``group`` has more than
    ``node_cap`` normal subgroups, whether or not the lattice is already
    cached. A fresh build stops as soon as it finds node ``node_cap + 1``, so
    its work stays bounded by the cap.
    """
    lat = group.memo("lattice", "lattice", lambda: _build_lattice(group, node_cap))
    if len(lat.nodes) > node_cap:
        raise ResourceCapError("normal lattice node cap exceeded", len(lat.nodes))
    return lat


def _build_lattice(group: FiniteGroup, node_cap: int) -> NormalLattice:
    # every normal subgroup is a join of normal closures of conjugacy classes,
    # so joining each closure into every node found before it reaches them all;
    # the normal closure of x is the span of the class of x. In (order, mask)
    # order a closure that is a join of smaller ones is a node when it comes
    closures = {span(group, cls).mask for cls in group.conjugacy_classes()}
    # ids follow discovery: node i is masks[i], and id_of[masks[i]] = i; sup[i] is
    # the bitset of ids of the nodes containing node i, i included, at_order[o]
    # that of the nodes of order o; placed holds the ids of the joined closures
    masks, id_of, sup, at_order, placed = [1], {1: 0}, [1], {1: 1}, []

    def add(x: int, over: int) -> None:
        # ``over`` holds the nodes containing x. Each node is the join of the
        # placed closures inside it, so it lies in x unless one of them does not
        t = len(masks)
        outside = reduce(or_, (sup[i] for i in placed if masks[i] & x != masks[i]), 0)
        for j in indices_from_mask(((1 << t) - 1) & ~outside):
            sup[j] |= 1 << t
        masks.append(x)
        id_of[x] = t
        sup.append(over | (1 << t))
        at_order[x.bit_count()] = at_order.get(x.bit_count(), 0) | (1 << t)
        if len(masks) > node_cap:
            raise ResourceCapError("normal lattice node cap exceeded", len(masks))

    for c in sorted(closures, key=lambda m: (m.bit_count(), m)):
        if c in id_of:
            continue
        found, size = len(masks), c.bit_count()
        add(c, sum(1 << j for j, m in enumerate(masks) if m & c == c))
        placed.append(found)
        # a node of the join's order containing both is the join, so only new
        # joins are multiplied out, all of the round's at once; two may be equal
        need, above_c = [], sup[found]
        for m in range(1, found):
            order = masks[m].bit_count() * size // (masks[m] & c).bit_count()
            if not sup[m] & above_c & at_order.get(order, 0):
                need.append((m, order))
        for (m, _), x in zip(need, _joins(group, masks, need, c)):
            if x not in id_of:
                add(x, sup[m] & sup[found])

    # sorted id k is discovery id rank[k]; the cover scan reads the
    # discovery-id bitsets and maps only the covers it finds to sorted ids
    rank = sorted(range(len(masks)), key=lambda i: _sort_key(masks[i], group.order))
    pos = {d: k for k, d in enumerate(rank)}
    orders = sorted(at_order)
    # a node containing one of order o has an order that o divides
    above = {o: [q for q in orders if q > o and q % o == 0] for o in orders}
    up: dict[int, tuple[int, ...]] = {}
    for k, d in enumerate(rank):
        # the least-order nodes left above d cover d (a node between would be
        # left too, with a smaller order); striking off their up-sets drops all
        # above them but no other cover: one big-int step per order and cover
        rest, got = sup[d] ^ (1 << d), []
        for o in above[masks[d].bit_count()]:
            if least := rest & at_order[o]:
                for i in indices_from_mask(least):
                    got.append(pos[i])
                    rest &= ~sup[i]
                if not rest:
                    break
        up[k] = tuple(sorted(got))
    covers = tuple((k, l) for k in up for l in up[k])
    nodes = tuple(Subgroup(group, masks[i]) for i in rank)
    return NormalLattice(group, nodes, covers, up, {s.mask: k for k, s in enumerate(nodes)})


def _joins(group: FiniteGroup, masks: list[int], need: list[tuple[int, int]], c: int):
    """Yield the mask of m·c for each (m, |m·c|) in ``need``, m the node ``masks[m]``
    and c normal: a block of joins from one table gather, sizes checked as in product_mask,
    and scattered through in the table's narrow dtype for the reason product_mask gives."""
    width, right = (group.order + 7) // 8, Subgroup(group, c).index_array
    step = max(1, _JOIN_ENTRIES // (group.order * (len(right) + 1)))  # |G| + |m||c| a row
    for block in (need[i : i + step] for i in range(0, len(need), step)):
        packed = b"".join(masks[m].to_bytes(width, "little") for m, _ in block)
        bits = np.frombuffer(packed, np.uint8).reshape(len(block), width)
        rows, left = np.nonzero(np.unpackbits(bits, axis=1, bitorder="little"))
        member = np.zeros((len(block), group.order), dtype=bool)
        member[rows[:, None], group.table[left[:, None], right]] = True
        for (_, order), row in zip(block, np.packbits(member, axis=1, bitorder="little")):
            if (x := int.from_bytes(row.tobytes(), "little")).bit_count() != order:
                raise InvariantError("product size violates |A||B|/|A∩B|")
            yield x


def _sort_key(mask: int, width: int) -> tuple[int, int]:
    """A key that sorts the masks of subgroups of a group of order ``width`` as
    (order, member indices) does, without the indices: of two masks of one order
    the one with the lowest differing bit sorts first, and reversing ``width``
    bits (bytes by ``_REVERSED``, the padding shifted out) makes it the highest."""
    reversed_bytes = mask.to_bytes((width + 7) // 8, "little").translate(_REVERSED)
    return mask.bit_count(), -(int.from_bytes(reversed_bytes, "big") >> -width % 8)


@dataclass(frozen=True)
class ChiefSeries:
    """A chief series 1 = G_0 < ... < G_n = G, bottom to top: a maximal chain
    of normal subgroups, each factor G_i/G_(i-1) a chief factor of order
    ``factor_orders[i - 1]``."""

    chain: tuple[Subgroup, ...]
    factor_orders: tuple[int, ...]


def _series_along(lat: NormalLattice, path: tuple[int, ...]) -> ChiefSeries:
    chain = tuple(lat.nodes[i] for i in path)
    return ChiefSeries(chain, tuple(b.order // a.order for a, b in zip(chain, chain[1:])))


def chief_series_enumerate(group: FiniteGroup, limit: int) -> list[ChiefSeries]:
    """All chief series as maximal cover chains, depth-first.

    Raises :class:`ResourceCapError` when more than ``limit`` series exist.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    lat = normal_lattice(group)
    out: list[ChiefSeries] = []
    stack = [(0, (0,))]
    while stack:
        node, path = stack.pop()
        if node == lat.top:
            if len(out) >= limit:
                raise ResourceCapError("chief series limit exceeded", len(out))
            out.append(_series_along(lat, path))
            continue
        for nxt in reversed(lat.up[node]):
            stack.append((nxt, path + (nxt,)))
    return out


def a_chief_series(group: FiniteGroup) -> ChiefSeries:
    """One chief series, deterministically (smallest cover successor first)."""
    lat = normal_lattice(group)
    path = [0]
    while path[-1] != lat.top:
        path.append(lat.up[path[-1]][0])
    return _series_along(lat, tuple(path))


@dataclass(frozen=True)
class QuotientMap:
    """The coset action of ``source`` on the right cosets of ``kernel``.

    The kernel is normal, so the action's kernel is exactly ``kernel`` and the
    image is a faithful degree-|G:N| permutation group. ``element_map`` is the
    induced homomorphism on element indices.
    """

    source: FiniteGroup
    kernel: Subgroup
    image: FiniteGroup
    element_map: np.ndarray

    def image_subgroup(self, sub: Subgroup) -> Subgroup:
        if sub.group is not self.source:
            raise ValueError("subgroup does not live in the quotient source")
        return Subgroup.from_indices(self.image, self.element_map[sub.index_array])

    def preimage_subgroup(self, sub: Subgroup) -> Subgroup:
        if sub.group is not self.image:
            raise ValueError("subgroup does not live in the quotient image")
        return Subgroup.from_indices(
            self.source, np.nonzero(sub.member_bool[self.element_map])[0]
        )


def quotient(group: FiniteGroup, kernel: Subgroup) -> QuotientMap:
    """G/K by the coset action; the mask decides normality, checked once."""
    if kernel.group is not group:
        raise ValueError("kernel does not live in this group")
    return group.memo("quotient", kernel.mask, lambda: _coset_action(group, kernel))


def _coset_action(group: FiniteGroup, kernel: Subgroup) -> QuotientMap:
    if not kernel.is_normal():
        raise ValueError("kernel is not normal")
    # the right coset Nx is the orbit of x under left multiplication by the
    # kernel's generators; cosets are numbered by their least member, the rep
    least = orbit_labels(group.table[list(kernel.gens)])
    reps, coset_of = np.unique(least, return_inverse=True)
    n_cosets = len(reps)

    gen_perms = []
    for g in group.gen_indices:
        images = coset_of.take(group.mult_many(reps, g))
        gen_perms.append(Permutation(tuple(int(x) + 1 for x in images)))
    image = generate_group(
        gen_perms,
        degree=n_cosets,
        cap=max(n_cosets, 1),
        name=f"{group.name}/N{kernel.order}" if group.name else None,
    )
    if image.order != n_cosets:
        raise InvariantError("the coset action of a normal kernel is not regular")

    # the action is regular, so an image element is fixed by where it sends
    # the kernel coset, and g sends it to the coset of g
    pos = np.empty(n_cosets, dtype=np.int64)
    pos[image.rows[:, 0]] = np.arange(n_cosets)
    return QuotientMap(group, kernel, image, pos[coset_of])


def subgroup_as_group(sub: Subgroup):
    """Materialize a subgroup as a standalone group on the same points.

    Returns ``(group, to_parent, from_parent)`` where ``to_parent[i]`` is the
    parent index of child element i and ``from_parent`` maps the other way.
    """
    parent = sub.group

    def materialize():
        if sub.order == parent.order:
            identity = np.arange(parent.order, dtype=np.int64)
            return parent, identity, {i: i for i in range(parent.order)}
        gens = [parent.perm(i) for i in sub.gens]
        child = generate_group(gens, degree=parent.degree, cap=max(sub.order, 1))
        if child.order != sub.order:
            raise InvariantError("a subgroup's generators span a group of another order")
        to_parent = parent.lookup_rows(child.rows)
        from_parent = {int(p): i for i, p in enumerate(to_parent)}
        return child, to_parent, from_parent

    return parent.memo("as_group", sub.mask, materialize)
