"""Normal-subgroup lattice, chief series, and quotient construction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceCapError
from .groups import FiniteGroup, generate_group, orbit_labels
from .perms import Permutation
from .subgroups import Subgroup, indices_from_mask, normal_closure_in, product_mask

DEFAULT_NODE_CAP = 4096


def normal_closure(group: FiniteGroup, seed) -> Subgroup:
    """Smallest normal subgroup of ``group`` containing the seed indices."""
    return normal_closure_in(group, group.gen_indices, seed)


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
    # so joining each closure into every node found before it reaches them all
    closures = sorted(
        {normal_closure(group, [int(cls[0])]).mask for cls in group.conjugacy_classes()}
    )
    masks = [1]
    by_order: dict[int, list[int]] = {1: [1]}
    for c in closures:
        closure = Subgroup(group, c)
        for m in list(masks):
            if m & c == c:
                continue
            # a normal subgroup of the join's order that contains both is the
            # join, so product_mask runs only for joins not yet found
            order = m.bit_count() * closure.order // (m & c).bit_count()
            both = m | c
            if any(other & both == both for other in by_order.get(order, ())):
                continue
            joined = product_mask(Subgroup(group, m), closure)
            masks.append(joined)
            by_order.setdefault(order, []).append(joined)
            if len(masks) > node_cap:
                raise ResourceCapError("normal lattice node cap exceeded", len(masks))

    nodes = sorted(
        (Subgroup(group, m) for m in masks),
        key=lambda s: (s.order, s.indices),
    )
    node_by_mask = {s.mask: i for i, s in enumerate(nodes)}

    # above[i] is the bitset of node ids strictly above node i; equal-order
    # nodes differ, so only later ids can be above. The covers of i are the
    # ids above i that lie above no other id above i.
    masks = [s.mask for s in nodes]
    above = []
    for i, low in enumerate(masks):
        bits = 0
        for j in range(i + 1, len(masks)):
            if masks[j] & low == low:
                bits |= 1 << j
        above.append(bits)
    up: dict[int, tuple[int, ...]] = {}
    covers = []
    for k in range(len(nodes)):
        beyond = 0
        for mid in indices_from_mask(above[k]):
            beyond |= above[mid]
        up[k] = indices_from_mask(above[k] & ~beyond)
        for l in up[k]:
            covers.append((k, l))
    return NormalLattice(group, tuple(nodes), tuple(covers), up, node_by_mask)


def minimal_normals(group: FiniteGroup) -> list[Subgroup]:
    """Atoms of the normal lattice."""
    if group.order == 1:
        raise ValueError("the trivial group has no minimal normal subgroups")
    lat = normal_lattice(group)
    return [lat.nodes[j] for j in lat.up[0]]


def socle(group: FiniteGroup) -> Subgroup:
    if group.order == 1:
        return Subgroup.trivial(group)
    lat = normal_lattice(group)
    sid = 0
    for j in lat.up[0]:
        sid = lat.join_id(sid, j)
    return lat.nodes[sid]


@dataclass(frozen=True)
class ChiefSeries:
    """A maximal chain in the normal lattice from the trivial node to the top."""

    chain: tuple[int, ...]  # lattice node ids, bottom to top
    factor_orders: tuple[int, ...]


def _series_along(lat: NormalLattice, chain: tuple[int, ...]) -> ChiefSeries:
    return ChiefSeries(
        chain,
        tuple(lat.nodes[b].order // lat.nodes[a].order for a, b in zip(chain, chain[1:])),
    )


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

    def walk() -> ChiefSeries:
        lat = normal_lattice(group)
        path = [0]
        while path[-1] != lat.top:
            path.append(lat.up[path[-1]][0])
        return _series_along(lat, tuple(path))

    return group.memo("chief", "series", walk)


def is_chief_factor(group: FiniteGroup, lower: Subgroup, upper: Subgroup) -> bool:
    lat = normal_lattice(group)
    k = lat.node_id(lower)
    l = lat.node_id(upper)
    if not lower.is_subset_of(upper):
        raise ValueError("subgroups are not nested")
    return l in lat.up[k]


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
        images = coset_of[group.mult_many(reps, g)]
        gen_perms.append(Permutation(tuple(int(x) + 1 for x in images)))
    image = generate_group(
        gen_perms,
        degree=n_cosets,
        cap=max(n_cosets, 1),
        name=f"{group.name}/N{kernel.order}" if group.name else None,
    )
    assert image.order == n_cosets, "coset action of a normal kernel is regular"

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
        assert child.order == sub.order
        to_parent = parent.lookup_rows(child.rows)
        from_parent = {int(p): i for i, p in enumerate(to_parent)}
        return child, to_parent, from_parent

    return parent.memo("as_group", sub.mask, materialize)


def pull_to_parent(sub_of_child: Subgroup, to_parent: np.ndarray, parent: FiniteGroup) -> Subgroup:
    """Map a subgroup of a materialized child group back into the parent."""
    return Subgroup.from_indices(parent, to_parent[sub_of_child.index_array])


def push_to_child(sub_of_parent: Subgroup, from_parent: dict, child: FiniteGroup) -> Subgroup:
    return Subgroup.from_indices(
        child, [from_parent[i] for i in sub_of_parent.indices]
    )
