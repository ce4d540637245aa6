"""Normal-subgroup lattice, chief series, and quotient construction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceCapError
from .groups import FiniteGroup, generate_group
from .perms import Permutation
from .subgroups import Subgroup, normal_closure_in, product_mask

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
    return group.memo("lattice", "lattice", lambda: _build_lattice(group, node_cap))


def _build_lattice(group: FiniteGroup, node_cap: int) -> NormalLattice:
    # base set: normal closures of one representative per conjugacy class
    masks = {1, (1 << group.order) - 1}
    for cls in group.conjugacy_classes():
        masks.add(normal_closure(group, [int(cls[0])]).mask)

    # close under pairwise joins; the join of two normal subgroups is their
    # product set, found cheaply when an existing node already matches it
    by_order: dict[int, list[int]] = {}
    for m in masks:
        by_order.setdefault(m.bit_count(), []).append(m)
    worklist = list(masks)
    while worklist:
        m = worklist.pop()
        a = Subgroup(group, m)
        for other in list(masks):
            if m & other == m or m & other == other:
                continue
            b = Subgroup(group, other)
            predicted = a.order * b.order // (m & other).bit_count()
            both = m | other
            existing = None
            for cand in by_order.get(predicted, []):
                if cand & both == both:
                    existing = cand
                    break
            if existing is not None:
                continue
            joined = product_mask(a, b)
            if joined not in masks:
                if len(masks) >= node_cap:
                    raise ResourceCapError("normal lattice node cap exceeded", len(masks))
                masks.add(joined)
                by_order.setdefault(joined.bit_count(), []).append(joined)
                worklist.append(joined)

    nodes = sorted(
        (Subgroup(group, m) for m in masks),
        key=lambda s: (s.order, s.indices),
    )
    node_by_mask = {s.mask: i for i, s in enumerate(nodes)}

    covers = []
    orders = [s.order for s in nodes]
    for i, low in enumerate(nodes):
        for j, high in enumerate(nodes):
            if orders[j] <= orders[i] or orders[j] % orders[i]:
                continue
            if not low.is_subset_of(high):
                continue
            between = False
            for k, mid in enumerate(nodes):
                if k in (i, j) or not orders[i] < orders[k] < orders[j]:
                    continue
                if low.is_subset_of(mid) and mid.is_subset_of(high):
                    between = True
                    break
            if not between:
                covers.append((i, j))

    up: dict[int, list[int]] = {i: [] for i in range(len(nodes))}
    for k, l in covers:
        up[k].append(l)
    return NormalLattice(
        group,
        tuple(nodes),
        tuple(covers),
        {k: tuple(sorted(v)) for k, v in up.items()},
        node_by_mask,
    )


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
            orders = tuple(
                lat.nodes[b].order // lat.nodes[a].order
                for a, b in zip(path, path[1:])
            )
            out.append(ChiefSeries(path, orders))
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
        orders = tuple(
            lat.nodes[b].order // lat.nodes[a].order for a, b in zip(path, path[1:])
        )
        return ChiefSeries(tuple(path), orders)

    return group.memo("chief", "series", walk)


def is_chief_factor(group: FiniteGroup, lower: Subgroup, upper: Subgroup) -> bool:
    lat = normal_lattice(group)
    k = lat.node_id(lower)
    l = lat.node_id(upper)
    if not lower.is_subset_of(upper):
        raise ValueError("subgroups are not nested")
    return (k, l) in set(lat.covers)


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
    if kernel.group is not group:
        raise ValueError("kernel does not live in this group")
    if not kernel.is_normal():
        raise ValueError("kernel is not normal")
    return group.memo("quotient", kernel.mask, lambda: _coset_action(group, kernel))


def _coset_action(group: FiniteGroup, kernel: Subgroup) -> QuotientMap:
    # label cosets in order of their minimal member; reps are those minima
    coset_of = np.full(group.order, -1, dtype=np.int64)
    reps = []
    karr = kernel.index_array
    for i in range(group.order):
        if coset_of[i] >= 0:
            continue
        members = group.mult_many(karr, i)
        coset_of[members] = len(reps)
        reps.append(i)
    reps = np.asarray(reps, dtype=np.int64)
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
