"""Exhaustively enumerated permutation groups over a numpy element table.

Every element is a row of 0-based images; downstream code works with row
indices only. Index 0 is always the identity and the indexing is the
breadth-first discovery order from the generators, so it is reproducible.

:func:`generate_group` builds the elements one breadth-first layer at a
time (Holt–Eick–O'Brien, *Handbook of Computational Group Theory*, 2005),
keeping only what the search needs. Each generator's products with the
frontier form one block; the rows new in it are copied out and the block is
freed before the next generator's. A layer's new rows form one compact
block, which is the next frontier, and ``rows`` is those blocks joined once
at the end. The rows are held in the narrowest unsigned dtype that holds a
point (one byte up to degree 256, two up to 65536), from the first layer to
the joined ``rows``, and deduplicated by a dict keyed on their bytes, so a
lookup is decided by full-row equality; the dict is freed before the join.
Building the order-1875 group (degree 625, 2.3 MB of two-byte rows) peaks
at 2.7 times its rows under tracemalloc.

Products are read from a Cayley table of element indices, built on the
first multiplication. The closure already finds x*g for every element x and
generator g, so it hands those generator columns to the group, and the
table fills its other columns along the breadth-first tree.
:meth:`FiniteGroup.index_of` finds a permutation's index by narrowing the
rows that agree with its image row one column at a time and keeps nothing.
:meth:`FiniteGroup.lookup_rows`, which maps many rows at once, keeps a dict
keyed on row bytes, built on its first call.

Every element closure goes through :func:`extend_closure`, which grows a
closed subgroup H to <H, g> one right coset H·r at a time (Dimino's
algorithm; Holt–Eick–O'Brien, *Handbook of Computational Group Theory*,
2005), each coset one gather from a table column; it is where the indices
of a generating set are checked. From H = 1 a coset has one element, so the
first step walks the powers g, g^2, ... of g through the table until 1 and
sets them in one scatter: every cyclic span, and the first generator of
every other closure, takes that walk. :func:`closure_indices` extends {1}.
:meth:`FiniteGroup.commutators` reads the block of [x, y] over two
index lists from two table blocks and one inverse gather; a normal closure
conjugates only generators, x^g for every g in ``gs`` being the one gather
``table[table[inv[gs], x], gs]``. Orbits run on *maps* (row t sends x to
``maps[t, x]``): :meth:`FiniteGroup.conj_maps` gives x -> x^g over the
whole group, for the conjugacy classes, and :func:`orbit_labels` labels
each element with its orbit's least element.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import ResourceCapError
from .perms import Permutation

DEFAULT_ORDER_CAP = 10000


class FiniteGroup:
    """A finite permutation group with a full element table.

    Construct through :func:`generate_group`. Instances are immutable after
    construction, apart from the caches they fill lazily.

    The Cayley table (:attr:`table`) holds order² entries in the smallest
    unsigned dtype that fits an index: one byte each up to order 256, two up
    to 65536, so 2n² bytes (7 MB at order 1875, 200 MB at the default order
    cap). It is built on first use, not at construction, so groups that never
    multiply cost nothing. The table is column-major, and the inverses are
    read down its contiguous columns as ``table.argmin(axis=0)``, since x*j
    is the identity (index 0) only at x = j^-1. That read makes no copy of
    the table, so the first read of ``table`` and ``inv`` together peaks at
    the table's own size. The table, the inverses, the element orders, the
    conjugacy classes and the row index behind :meth:`lookup_rows` are each
    a ``functools.cached_property``, computed on first read; keyed values
    go through :meth:`memo`. :meth:`release` drops all of them, and each is
    computed again if it is read again.

    ``rows`` is one C-contiguous array in the narrowest unsigned dtype that
    holds a point (uint8 up to degree 256, uint16 up to 65536), joined from
    the breadth-first layer blocks of :func:`generate_group`, which are gone
    once the group is built.
    """

    def __init__(self, degree, rows, gen_indices, generators, bfs_edges, gen_columns, name=None):
        self.degree = degree
        self.rows = rows  # (order, degree) unsigned, 0-based images
        self.order = len(rows)
        self.gen_indices = tuple(gen_indices)
        self.generators = tuple(generators)
        self.bfs_edges = bfs_edges  # bfs_edges[i] = (parent index, generator position)
        self._gen_columns = gen_columns  # gen_columns[k][x] = index of x * generators[k]
        self.name = name
        # the per-group caches keyed by masks and primes (see memo)
        self.cache: dict[str, dict] = {}

    def __repr__(self):
        label = self.name or "group"
        return f"<FiniteGroup {label} order={self.order} degree={self.degree}>"

    def memo(self, section: str, key, compute):
        """The value stored under ``key`` in ``cache[section]``, filled by
        ``compute()`` on a miss.

        Every keyed per-group cache goes through here. Values are never None.
        Callers validate their inputs first, since a hit skips ``compute``.
        Add a section only where its hits pay: a value asked for about once
        per key, or about as cheap to recompute as to look up, is computed
        directly.
        """
        table = self.cache.setdefault(section, {})
        got = table.get(key)
        if got is None:
            got = table[key] = compute()
        return got

    def release(self) -> None:
        """Drop every lazily computed value: the :meth:`memo` sections and
        every ``cached_property`` (the table, the inverses, the element
        orders, the conjugacy classes, the row index). What remains is what
        :func:`generate_group` built, from which each is computed again on
        its next read."""
        self.cache.clear()
        for name in _CACHED_PROPERTIES:
            vars(self).pop(name, None)

    # -- element access -------------------------------------------------

    def perm(self, i: int) -> Permutation:
        return Permutation(tuple(int(x) + 1 for x in self.rows[i]))

    def index_of(self, perm: Permutation) -> int:
        if perm.degree != self.degree:
            raise ValueError("degree mismatch")
        row = np.asarray([i - 1 for i in perm.images], dtype=self.rows.dtype)
        # the rows are distinct, so at most one agrees on every column
        found = np.flatnonzero(self.rows[:, 0] == row[0])
        for column in range(1, self.degree):
            if len(found) < 2:
                break
            found = found[self.rows[found, column] == row[column]]
        if not len(found) or not np.array_equal(self.rows[found[0]], row):
            raise KeyError(f"permutation {perm} is not an element of this group")
        return int(found[0])

    def lookup_rows(self, rows2d: np.ndarray) -> np.ndarray:
        """Map image rows back to element indices.

        Raises :class:`KeyError` when a row is not an element of the group.
        """
        rows2d = np.asarray(rows2d)
        keys = rows2d.astype(self.rows.dtype)  # the dict keys on the bytes of rows
        found = [self._row_index.get(row.tobytes(), -1) for row in keys]
        if -1 in found or not np.array_equal(keys, rows2d):
            raise KeyError("row is not an element of this group")
        return np.array(found, dtype=np.intp)

    @cached_property
    def _row_index(self) -> dict[bytes, int]:
        return {row.tobytes(): i for i, row in enumerate(self.rows)}

    # -- multiplication (compose left to right: (a*b)(x) = b(a(x))) ------

    @cached_property
    def table(self) -> np.ndarray:
        """The Cayley table: ``table[i, j]`` is the index of i*j."""
        # column-major, so that column j (x*j for every x) is contiguous
        n = self.order
        table = np.empty((n, n), dtype=np.min_scalar_type(n - 1), order="F")
        table[:, 0] = np.arange(n)
        for g, column in zip(self.gen_indices, self._gen_columns):
            table[:, g] = column
        # x*j = (x*parent)*gen along the BFS tree; parents come first
        for j in range(1, n):
            parent, gpos = self.bfs_edges[j]
            table[:, j] = table[:, self.gen_indices[gpos]][table[:, parent]]
        return table

    def mult(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def mult_many(self, idxs: np.ndarray, j: int) -> np.ndarray:
        """Indices of x*j for every x in ``idxs``."""
        return self.table[:, j][idxs]

    def mult_by_many(self, i: int, idxs: np.ndarray) -> np.ndarray:
        """Indices of i*x for every x in ``idxs``."""
        return self.table[i, idxs]

    @cached_property
    def inv(self) -> np.ndarray:
        return self.table.argmin(axis=0)  # x*j is 0 only at x = j^-1

    def inverse(self, i: int) -> int:
        return int(self.inv[i])

    def conj_by_all(self, h: int) -> np.ndarray:
        """Indices of h^g for every g, as an array indexed by g."""
        (h,) = self._checked([h])
        table = self.table
        return table[table[:, h][self.inv], np.arange(self.order)]

    def conj_maps(self, gs) -> np.ndarray:
        """Row t is the map x -> x^gs[t] = gs[t]^-1 * x * gs[t], indexed by x."""
        gs = self._checked(gs)
        table = self.table
        return table[table[self.inv[gs]], gs[:, None]]

    def _checked(self, gs) -> np.ndarray:
        """``gs`` as an index array; ValueError on an index out of range."""
        gs = [int(g) for g in gs]
        for g in gs:
            if not 0 <= g < self.order:
                raise ValueError(f"element index {g} out of range")
        return np.array(gs, dtype=np.intp)

    def conj_set(self, idxs: np.ndarray, g: int) -> np.ndarray:
        """Indices of x^g for every x in ``idxs``."""
        if not 0 <= g < self.order:
            raise ValueError(f"element index {g} out of range")
        table = self.table
        return table[:, g][table[self.inverse(g), idxs]]

    def commutators(self, xs, ys) -> np.ndarray:
        """The |xs|×|ys| block of [x, y] = x^-1 y^-1 x y = (yx)^-1 (xy):
        two table blocks and one inverse gather."""
        xs, ys = self._checked(xs), self._checked(ys)
        table = self.table
        return table[self.inv[table[ys, xs[:, None]]], table[xs[:, None], ys]]

    # -- element orders and conjugacy classes ----------------------------

    @cached_property
    def element_orders(self) -> np.ndarray:
        # walk every x through x, x^2, x^3, ... until it reaches 1
        table = self.table
        orders = np.ones(self.order, dtype=np.int64)
        live = np.arange(1, self.order)
        power = live.copy()
        k = 1
        while len(live):
            k += 1
            power = table[power, live]
            done = power == 0
            orders[live[done]] = k
            live = live[~done]
            power = power[~done]
        return orders

    def element_order(self, i: int) -> int:
        return int(self.element_orders[i])

    def conjugacy_classes(self) -> list[np.ndarray]:
        """Orbits of the conjugation action, each sorted, ordered by minimum."""
        return self._classes

    @cached_property
    def _classes(self) -> list[np.ndarray]:
        labels = orbit_labels(self.conj_maps(self.gen_indices))
        members = np.argsort(labels, kind="stable")
        starts = np.flatnonzero(np.diff(labels[members])) + 1
        return np.split(members, starts)


# the lazily computed values FiniteGroup.release drops
_CACHED_PROPERTIES = tuple(
    name for name, value in vars(FiniteGroup).items() if isinstance(value, cached_property)
)


def generate_group(
    gens,
    degree: int,
    cap: int = DEFAULT_ORDER_CAP,
    name: str | None = None,
) -> FiniteGroup:
    """Close the generators under composition by breadth-first multiplication.

    Raises :class:`ResourceCapError` when the element count exceeds ``cap``.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    if cap < 1:
        raise ValueError("cap must be positive")
    gens = list(gens)
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"generator {g} has degree {g.degree}, expected {degree}")
    # rows are held in the narrowest dtype that holds a point, which keeps
    # the blocks, the row-bytes keys and the joined rows small
    dtype = np.min_scalar_type(degree - 1)
    gen_rows = [np.asarray([i - 1 for i in g.images], dtype=dtype) for g in gens]

    frontier = np.arange(degree, dtype=dtype)[None, :]  # layer 0: the identity
    blocks = [frontier]  # blocks[k] holds the rows first found in layer k
    index = {frontier[0].tobytes(): 0}
    edges = [(-1, -1)]
    # a layer's rows are consecutive indices from ``first``, in frontier
    # order, so appending along the layers gives columns[k][x] = x * gens[k]
    columns = [[] for _ in gen_rows]
    first = 0
    while gen_rows and len(frontier):
        pieces = []
        for gpos, grow in enumerate(gen_rows):
            products = grow[frontier]  # products[t] = (first + t) * gen
            column, fresh = columns[gpos], []
            for t in range(len(products)):
                key = products[t].tobytes()
                got = index.get(key)
                if got is None:
                    if len(edges) >= cap:
                        raise ResourceCapError("group order exceeds cap", len(edges))
                    got = index[key] = len(edges)
                    edges.append((first + t, gpos))
                    fresh.append(t)
                column.append(got)
            pieces.append(products[fresh])
            del products  # copied out: free the block before the next one
        first += len(frontier)
        frontier = np.concatenate(pieces)
        blocks.append(frontier)

    del index  # its keys copy every row: free them before joining the blocks
    gen_indices = [column[0] for column in columns]  # 1 * g = g
    columns = np.array(columns, dtype=np.min_scalar_type(len(edges) - 1))
    rows = np.concatenate(blocks)
    return FiniteGroup(degree, rows, gen_indices, gens, edges, columns, name=name)


def closure_indices(group: FiniteGroup, gen_idxs) -> np.ndarray:
    """Element indices of <gens> inside ``group``, sorted ascending."""
    member = np.arange(group.order) == 0
    return extend_closure(group, member, [], gen_idxs).nonzero()[0]


def extend_closure(group: FiniteGroup, member: np.ndarray, gens: list, new) -> np.ndarray:
    """Grow the boolean ``member``, which must hold exactly <gens>, in place
    to <gens, new> and return it. Each element of ``new`` that lies outside
    the closure so far is appended to ``gens``.

    Dimino's algorithm: <H, g> for the closed H = <gens> is a union of right
    cosets H·r. It starts from H and H·g, and each representative r and
    generator s with r·s outside adds the coset H·(r·s) and its
    representative. The union then holds r·s for every r and s, so, as a
    union of right cosets of H, it is closed under right multiplication by
    every generator: it is the subgroup. The first step, from H = 1 with no
    generators, is the power walk g, g^2, ..., 1, with no cosets. Once the
    union holds more than half of G it stops and ``member`` becomes all of
    G, since by Lagrange a subgroup with more than |G|/2 elements is G. That
    leaves ``gens`` as the full run would: every later element lies in G.
    """
    table = group.table
    for g in group._checked(new).tolist():
        if member.item(g):
            continue
        gens.append(g)
        if len(gens) == 1:  # member is {1}, so <g> is the powers of g
            powers = [g]
            while powers[-1]:
                powers.append(table.item(powers[-1], g))
            member[powers] = True
            continue
        base = member.nonzero()[0]
        member[table[:, g][base]] = True
        reps = [g]
        for r in reps:  # breadth first: the list grows while it is read
            if 2 * len(base) * (len(reps) + 1) > group.order:
                member[:] = True  # H and len(reps) cosets: over half of G
                break
            for s in gens:
                x = table.item(r, s)
                if not member.item(x):
                    member[table[:, x][base]] = True
                    reps.append(x)
    return member


def orbit_labels(maps: np.ndarray) -> np.ndarray:
    """For every point, the least point of its orbit under the permutations
    in the rows of ``maps``.

    Labels start as the points and only move down within their orbits: each
    round takes the least label across every map both ways, then the label
    of the label (a doubling jump). A round that changes nothing leaves each
    orbit with one label, its least point."""
    k, n = maps.shape
    back = np.empty_like(maps)
    back[np.arange(k)[:, None], maps] = np.arange(n)
    label = np.arange(n)
    while True:
        new = np.minimum(label, label[maps].min(axis=0, initial=n))
        np.minimum(new, label[back].min(axis=0, initial=n), out=new)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new
