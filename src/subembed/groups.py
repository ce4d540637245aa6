"""Exhaustively enumerated permutation groups over a numpy element table.

Every element is a row of 0-based images; downstream code works with row
indices only. Index 0 is always the identity and the indexing is the
breadth-first discovery order from the generators, so it is reproducible.

:func:`generate_group` builds the elements one breadth-first layer at a
time (Holt–Eick–O'Brien, *Handbook of Computational Group Theory*, 2005),
keeping only what the search needs. Each generator's products with a
slice of the frontier form one block; the rows new in it are copied out and
the block is freed before the next one. A layer's new rows form one compact
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
first step walks the powers g, g^2, ... of g through the table until 1
(:meth:`FiniteGroup.powers`) and sets them in one scatter; the first
generator of every closure takes that walk, and ``subgroups.span`` walks a
cyclic span's powers straight into its mask. A long walk over a small H
pays a gather and a scatter per coset, so after ``_LABEL_AFTER_COSETS``
right cosets of an H of at most ``_LABEL_MAX_ORDER`` elements the closure
labels every element x with the least element of its left coset x·H (the
minimum over |H| table columns; H is replaced by <s> for a generator s of
larger order) and walks those labels instead, one set lookup per coset
and generator: the union of left cosets it reaches holds 1 and is closed
under left multiplication by every generator, so it is <H, g>.
:func:`closure_indices` extends {1}.
:meth:`FiniteGroup.commutators` reads the block of [x, y] over two
index lists from two table blocks and one inverse gather; a normal closure
conjugates only generators, x^g for every g in ``gs`` being the one gather
``table[table[inv[gs], x], gs]``. Orbits run on *maps* (row t sends x to
``maps[t, x]``): :meth:`FiniteGroup.conj_maps` gives x -> x^g over the
whole group, for the conjugacy classes, and :func:`orbit_labels` labels
each element with its orbit's least element.

Every gather and scatter through the table follows one indexing rule. The
table keeps its narrow dtype, but numpy's fancy indexing through a
``uint8``/``uint16`` index array is 2-3 times slower than through ``intp``
indices or ``ndarray.take`` (numpy 2.4, a 2-vCPU VM: a gather of 1875
entries costs 4.9 µs through ``uint16``, 1.7 µs through ``intp`` and 1.9 µs
by ``take``; a scatter of as many 5.3 µs, against 2.4 µs through ``intp``
and 3.1 µs with the ``astype(np.intp)``).

* A gather down a column, which the column-major table keeps contiguous, is
  ``table[:, j].take(idxs)``.
* A row is strided, so it is indexed with ``intp`` fancy indices:
  ``table[i].take(idxs)`` copies the row first (1.7 µs against 0.7 µs for
  ``table[i, idxs]``, five indices at order 1875).
* Entry (x, g) sits at x + g·n of ``table.ravel(order="F")``, a view of the
  table, so a gather of pairs, such as x^g = (g^-1 x)·g over every g, is one
  ``take`` from it at those offsets.
* A scatter goes through ``intp`` indices, or through ``put`` for a list.
* Blocks of a few entries over generators (:meth:`FiniteGroup.commutators`,
  the conjugates of ``subgroups.normal_closure_in``, the powers of
  ``subgroups.frattini_p``) keep plain fancy indexing: at that size a
  conversion or flat offset costs more than the narrow index does.

``take`` copies narrow indices to ``intp`` before it gathers, 4 or 8 times
their bytes, so :func:`generate_group` gathers its frontier in slices of
at most ``_GATHER_ENTRIES`` points.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import ResourceCapError
from .perms import Permutation

DEFAULT_ORDER_CAP = 10000
_GATHER_ENTRIES = 1 << 14  # points per frontier gather in generate_group
# extend_closure labels left cosets after this many right cosets of an H of
# at most _LABEL_MAX_ORDER elements; labelling after 2 or 3 cosets made the
# order-1875 group's short walks dearer, after 8 the long ones of S6
_LABEL_AFTER_COSETS = 4
_LABEL_MAX_ORDER = 16


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
    the table's own size. The table, the inverses, the column offsets of
    the conjugation gathers, the element orders, the class labels, the
    conjugacy classes and the row index behind :meth:`lookup_rows` are each a
    ``functools.cached_property``, computed on first read; keyed values
    go through :meth:`memo`. :meth:`release` drops all of them, and each is
    computed again if it is read again.

    ``rows`` is one C-contiguous array in the narrowest unsigned dtype that
    holds a point (uint8 up to degree 256, uint16 up to 65536), joined from
    the breadth-first layer blocks of :func:`generate_group`, which are gone
    once the group is built.

    Its entries serve as fancy indices only in blocks of a few generators,
    since that is 2-3 times slower than ``take`` or ``intp`` indices on
    anything larger: columns are read with ``take``, rows through ``intp``
    fancy indices, pairs (x, g) by ``take`` from ``table.ravel(order="F")``
    at x + g·n, and scatters go through ``intp`` indices (the module
    docstring has the rule and its measured costs).
    """

    def __init__(self, degree, rows, gen_indices, generators, bfs_edges, gen_columns, name=None):
        self.degree = degree
        self.rows = rows  # (order, degree) unsigned, 0-based images
        self.order = len(rows)
        self.gen_indices = tuple(gen_indices)
        self.generators = tuple(generators)
        # bfs_edges[i] = (parent index, generator position): 8 bytes a row,
        # where a list of tuples held about 55 bytes per element
        self.bfs_edges = np.array(bfs_edges, dtype=np.int32)
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
        A hit skips ``compute``: check first what the key does not hold (whose
        group a subgroup is); what a stored key passed may be checked in
        ``compute``. Add a section only where its hits pay: a value asked for
        about once per key, or as cheap to recompute as to look up, is not.
        """
        table = self.cache.get(section) or self.cache.setdefault(section, {})
        got = table.get(key)
        if got is None:
            got = table[key] = compute()
        return got

    def release(self) -> None:
        """Drop every lazily computed value: the :meth:`memo` sections and
        every ``cached_property`` (the table, the inverses, the column
        offsets, the element orders, the class labels, the conjugacy
        classes, the row index). What remains is what :func:`generate_group`
        built, from which each is computed again on its next read."""
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
        parents, gposs = self.bfs_edges.T.tolist()
        for j in range(1, n):
            column = table[:, self.gen_indices[gposs[j]]]
            table[:, j] = column.take(table[:, parents[j]])
        return table

    @cached_property
    def _column_starts(self) -> np.ndarray:
        """g·n for every g: entry (x, g) of the table sits at x + g·n of
        its column-major ravel, ``table.ravel(order="F")``, a view of it.
        Kept for :meth:`conj_by_all` and :meth:`conj_maps`, which read an
        entry of every column."""
        return np.arange(self.order) * self.order

    def mult(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def powers(self, g: int) -> list[int]:
        """g, g^2, ... up to and including 1 (index 0), walked through the
        table: the elements of <g>, in the order of the exponents."""
        table, out = self.table, [g]
        while out[-1]:
            out.append(table.item(out[-1], g))
        return out

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
        # h^g = (g^-1 h)·g sits at g^-1 h + g·n of the column-major ravel
        return table.ravel(order="F").take(table[:, h].take(self.inv) + self._column_starts)

    def conj_maps(self, gs) -> np.ndarray:
        """Row t is the map x -> x^gs[t] = gs[t]^-1 * x * gs[t], indexed by x."""
        gs = self._checked(gs)
        table = self.table
        left = table[self.inv[gs]]  # row t: gs[t]^-1 x for every x
        return table.ravel(order="F").take(left + self._column_starts[gs, None])

    def _checked(self, gs) -> list[int]:
        """``gs`` as a list of Python ints; ValueError on an index out of range."""
        gs = gs.tolist() if isinstance(gs, np.ndarray) else [int(g) for g in gs]
        for g in gs:
            if not 0 <= g < self.order:
                raise ValueError(f"element index {g} out of range")
        return gs

    def conj_set(self, idxs: np.ndarray, g: int) -> np.ndarray:
        """Indices of x^g for every x in ``idxs``."""
        if not 0 <= g < self.order:
            raise ValueError(f"element index {g} out of range")
        table = self.table
        return table[:, g].take(table[self.inverse(g), idxs])

    def commutators(self, xs, ys) -> np.ndarray:
        """The |xs|×|ys| block of [x, y] = x^-1 y^-1 x y = (yx)^-1 (xy):
        two table blocks and one inverse gather."""
        xs = np.array(self._checked(xs), dtype=np.intp)[:, None]
        ys = np.array(self._checked(ys), dtype=np.intp)
        table = self.table
        return table[self.inv[table[ys, xs]], table[xs, ys]]

    # -- element orders and conjugacy classes ----------------------------

    @cached_property
    def element_orders(self) -> np.ndarray:
        # walk every x through x, x^2, x^3, ... until it reaches 1; the
        # product power·x sits at power + x·n of the column-major ravel
        flat, n = self.table.ravel(order="F"), self.order
        orders = np.ones(n, dtype=np.int64)
        live = np.arange(1, n)
        power = live
        k = 1
        while len(live):
            k += 1
            power = flat.take(power + n * live)
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
    def class_labels(self) -> np.ndarray:
        """For every element, the least element of its conjugacy class."""
        return orbit_labels(self.conj_maps(self.gen_indices))

    @cached_property
    def _classes(self) -> list[np.ndarray]:
        labels = self.class_labels
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
    # ``take`` copies its narrow indices to intp first, so the frontier is
    # gathered a slice of at most _GATHER_ENTRIES points at a time
    step = max(1, _GATHER_ENTRIES // degree)
    first = 0
    while gen_rows and len(frontier):
        pieces = []
        for gpos, grow in enumerate(gen_rows):
            column = columns[gpos]
            for start in range(0, len(frontier), step):
                # products[t] = (first + start + t) * gen
                products, fresh = grow.take(frontier[start : start + step]), []
                for t in range(len(products)):
                    key = products[t].tobytes()
                    got = index.get(key)
                    if got is None:
                        if len(edges) >= cap:
                            raise ResourceCapError("group order exceeds cap", len(edges))
                        got = index[key] = len(edges)
                        edges.append((first + start + t, gpos))
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


def trivial_member(order: int) -> np.ndarray:
    """The boolean member array of the trivial subgroup: index 0 only."""
    member = np.zeros(order, dtype=bool)
    member[0] = True
    return member


def closure_indices(group: FiniteGroup, gen_idxs) -> np.ndarray:
    """Element indices of <gens> inside ``group``, sorted ascending."""
    return extend_closure(group, trivial_member(group.order), [], gen_idxs).nonzero()[0]


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
    generators, is the power walk g, g^2, ..., 1 (:meth:`FiniteGroup.powers`),
    with no cosets. Once the union holds more than half of G it stops and
    ``member`` becomes all of G, since by Lagrange a subgroup with more than
    |G|/2 elements is G. That leaves ``gens`` as the full run would: every
    later element lies in G.

    Each right coset costs a gather and a scatter of |H| entries. When the
    walk has added more than ``_LABEL_AFTER_COSETS`` cosets of an H of at
    most ``_LABEL_MAX_ORDER`` elements, the rest of the walk goes over
    labelled left cosets instead (:func:`_close_over_left_cosets`), one
    Python set lookup per coset and generator.
    """
    table = group.table
    for g in group._checked(new):
        if member.item(g):
            continue
        gens.append(g)
        if len(gens) == 1:  # member is {1}, so <g> is the powers of g
            member.put(group.powers(g), True)
            continue
        base = member.nonzero()[0]
        member[table[:, g].take(base).astype(np.intp)] = True
        reps = [g]
        label_after = _LABEL_AFTER_COSETS if len(base) <= _LABEL_MAX_ORDER else group.order
        for r in reps:  # breadth first: the list grows while it is read
            if 2 * len(base) * (len(reps) + 1) > group.order:
                member[:] = True  # H and len(reps) cosets: over half of G
                break
            if len(reps) > label_after:
                _close_over_left_cosets(group, member, base, gens)
                break
            for s in gens:
                x = table.item(r, s)
                if not member.item(x):
                    member[table[:, x].take(base).astype(np.intp)] = True
                    reps.append(x)
    return member


def _close_over_left_cosets(group: FiniteGroup, member: np.ndarray, base, gens) -> None:
    """Set ``member`` to <gens>, given the elements ``base`` of a subgroup
    of it, by a walk over the left cosets x·H of a subgroup H of <gens>.

    H is the subgroup of ``base``, or <s> for a generator s of larger
    order, which has fewer cosets. Every element x is labelled with the least element of
    x·H, the minimum of row x of the |H| table columns of H's elements. The
    walk starts from H (label 0) and, for each labelled representative r
    and generator s, adds the coset of s·r when its label is new. The union
    of the cosets found holds 1 and is closed under left multiplication by
    every generator, so it is <gens>; ``member`` is read off the labels in
    one gather. The same over-half exit as the right-coset walk applies.
    """
    table, orders = group.table, group.element_orders
    for s in gens:
        if orders.item(s) > len(base):
            base = group.powers(s)
    labels = table[:, base].min(axis=1)
    label, product = labels.item, table.item
    seen, reps = {0}, [0]
    for r in reps:  # breadth first: the list grows while it is read
        if 2 * len(base) * len(reps) > group.order:
            member[:] = True
            return
        for s in gens:
            x = label(product(s, r))
            if x not in seen:
                seen.add(x)
                reps.append(x)
    flags = np.zeros(group.order, dtype=bool)
    flags.put(reps, True)
    member[:] = flags.take(labels)


def orbit_labels(maps: np.ndarray) -> np.ndarray:
    """For every point, the least point of its orbit under the permutations
    in the rows of ``maps``.

    Labels start as the points and only move down within their orbits: each
    round takes the least label across every map both ways, then the label
    of the label (a doubling jump). A round that changes nothing leaves each
    orbit with one label, its least point."""
    maps = maps.astype(np.intp)  # gathered from and scattered through
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
