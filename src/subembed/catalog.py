"""Group construction DSL, group-file parsing, and the built-in corpus."""

from __future__ import annotations

import ast
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import GroupFileError, InvariantError
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, generate_group
from .perms import Permutation, parse_cycles


class GroupExpr:
    """Abstract construction tree; see the concrete node classes below."""


@dataclass(frozen=True)
class Cyclic(GroupExpr):
    n: int


@dataclass(frozen=True)
class Sym(GroupExpr):
    n: int


@dataclass(frozen=True)
class Alt(GroupExpr):
    n: int


@dataclass(frozen=True)
class Dihedral(GroupExpr):
    order: int


@dataclass(frozen=True)
class Quaternion8(GroupExpr):
    pass


@dataclass(frozen=True)
class ElemAbelian(GroupExpr):
    p: int
    k: int


@dataclass(frozen=True)
class SL23(GroupExpr):
    pass


@dataclass(frozen=True)
class Direct(GroupExpr):
    left: GroupExpr
    right: GroupExpr


@dataclass(frozen=True)
class Semidirect(GroupExpr):
    """Semidirect product acting on the normal factor's elements.

    ``action`` holds one automorphism per complement generator (separated by
    ';'), each written as comma-separated generator images ``gi -> word``
    where words use the normal factor's generators g1..gk in construction
    order, ``*`` for products and ``^`` for powers.
    """

    normal: GroupExpr
    complement: GroupExpr
    action: str


@dataclass(frozen=True)
class Perm(GroupExpr):
    degree: int
    cycles: tuple[str, ...]


def build(expr: GroupExpr, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Realize a construction tree as a faithful permutation group."""
    if isinstance(expr, Cyclic):
        if expr.n < 1:
            raise ValueError("cyclic order must be positive")
        if expr.n == 1:
            return generate_group([], degree=1, cap=cap, name="C1")
        cycle = Permutation(tuple(list(range(2, expr.n + 1)) + [1]))
        return generate_group([cycle], degree=expr.n, cap=cap, name=f"C{expr.n}")
    if isinstance(expr, Sym):
        if expr.n < 1:
            raise ValueError("symmetric degree must be positive")
        if expr.n == 1:
            return generate_group([], degree=1, cap=cap, name="S1")
        gens = [parse_cycles("(1 2)", expr.n)]
        if expr.n > 2:
            gens.append(
                Permutation(tuple(list(range(2, expr.n + 1)) + [1]))
            )
        return generate_group(gens, degree=expr.n, cap=cap, name=f"S{expr.n}")
    if isinstance(expr, Alt):
        if expr.n < 3:
            raise ValueError("alternating degree must be at least 3")
        gens = [parse_cycles("(1 2 3)", expr.n)]
        if expr.n > 3:
            if expr.n % 2:
                gens.append(Permutation(tuple(list(range(2, expr.n + 1)) + [1])))
            else:
                images = [1] + list(range(3, expr.n + 1)) + [2]
                gens.append(Permutation(tuple(images)))
        return generate_group(gens, degree=expr.n, cap=cap, name=f"A{expr.n}")
    if isinstance(expr, Dihedral):
        if expr.order < 6 or expr.order % 2:
            raise ValueError("dihedral order must be an even number >= 6")
        m = expr.order // 2
        rot = Permutation(tuple(list(range(2, m + 1)) + [1]))
        refl = Permutation(tuple([1] + list(range(m, 1, -1))))
        return generate_group([rot, refl], degree=m, cap=cap, name=f"D{expr.order}")
    if isinstance(expr, Quaternion8):
        i = parse_cycles("(1 2 3 4)(5 8 7 6)", 8)
        j = parse_cycles("(1 5 3 7)(2 6 4 8)", 8)
        return generate_group([i, j], degree=8, cap=cap, name="Q8")
    if isinstance(expr, ElemAbelian):
        if expr.k < 1:
            raise ValueError("rank must be positive")
        parts: GroupExpr = Cyclic(expr.p)
        for _ in range(expr.k - 1):
            parts = Direct(parts, Cyclic(expr.p))
        group = build(parts, cap)
        group.name = f"C{expr.p}^{expr.k}"
        return group
    if isinstance(expr, SL23):
        return _build_sl23(cap)
    if isinstance(expr, Direct):
        return _build_direct(expr, cap)
    if isinstance(expr, Semidirect):
        return _build_semidirect(expr, cap)
    if isinstance(expr, Perm):
        gens = [parse_cycles(c, expr.degree) for c in expr.cycles]
        return generate_group(gens, degree=expr.degree, cap=cap)
    raise ValueError(f"unknown construction {expr!r}")


def _build_sl23(cap: int) -> FiniteGroup:
    # action of the standard order-3 and order-4 generators of SL(2,3) on the
    # eight nonzero vectors of F_3 x F_3, in lexicographic vector order
    vectors = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]
    pos = {v: i + 1 for i, v in enumerate(vectors)}

    def matrix_perm(a, b, c, d):
        images = [0] * len(vectors)
        for v, i in pos.items():
            w = ((a * v[0] + b * v[1]) % 3, (c * v[0] + d * v[1]) % 3)
            images[i - 1] = pos[w]
        return Permutation(tuple(images))

    s = matrix_perm(1, 1, 0, 1)
    t = matrix_perm(0, 2, 1, 0)
    group = generate_group([s, t], degree=8, cap=cap, name="SL(2,3)")
    if group.order != 24:
        raise InvariantError(f"SL(2,3) came out of order {group.order}, not 24")
    return group


def _build_direct(expr: Direct, cap: int) -> FiniteGroup:
    left = build(expr.left, cap)
    right = build(expr.right, cap)
    degree = left.degree + right.degree
    gens = []
    for g in left.generators:
        gens.append(
            Permutation(g.images + tuple(range(left.degree + 1, degree + 1)))
        )
    for g in right.generators:
        gens.append(
            Permutation(
                tuple(range(1, left.degree + 1))
                + tuple(i + left.degree for i in g.images)
            )
        )
    group = generate_group(gens, degree=degree, cap=cap)
    if group.order != left.order * right.order:
        raise InvariantError("a direct product's order is not the product of the orders")
    group.name = f"{left.name}x{right.name}" if left.name and right.name else None
    return group


def _build_semidirect(expr: Semidirect, cap: int) -> FiniteGroup:
    normal = build(expr.normal, cap)
    complement = build(expr.complement, cap)
    auts = _parse_action(expr.action, len(normal.generators))
    if len(auts) != len(complement.generators):
        raise ValueError(
            f"action lists {len(auts)} automorphisms but the complement has "
            f"{len(complement.generators)} generators"
        )
    aut_rows = [_automorphism_row(normal, images) for images in auts]
    element_rows = _check_action_homomorphism(complement, normal, aut_rows)

    identity = np.arange(normal.order, dtype=np.int64)
    kernel = sum(1 for row in element_rows if np.array_equal(row, identity))
    if kernel > 1:
        warnings.warn(
            f"semidirect action is not faithful; a kernel of order {kernel} "
            "is quotiented out of the complement",
            stacklevel=2,
        )

    gens = []
    arange = np.arange(normal.order, dtype=np.int64)
    for n in normal.gen_indices:
        translation = normal.mult_many(arange, n)
        gens.append(Permutation(tuple(int(x) + 1 for x in translation)))
    for row in aut_rows:
        gens.append(Permutation(tuple(int(x) + 1 for x in row)))
    group = generate_group(gens, degree=normal.order, cap=cap)
    if group.order != normal.order * complement.order // kernel:
        raise InvariantError("a semidirect product's order is not |N|·|H|/|kernel|")
    return group


def _word_to_index(normal: FiniteGroup, word) -> int:
    out = 0
    for gen_pos, exponent in word:
        g = normal.gen_indices[gen_pos]
        for _ in range(exponent % normal.element_order(g)):
            out = normal.mult(out, g)
    return out


def _automorphism_row(normal: FiniteGroup, images_words) -> np.ndarray:
    """Extend generator images to a permutation of the element indices and
    verify it is an automorphism (bijective, multiplicative on all pairs)."""
    gen_images = [_word_to_index(normal, w) for w in images_words]
    phi = np.zeros(normal.order, dtype=np.int64)
    for i in range(1, normal.order):
        parent, gpos = normal.bfs_edges[i]
        phi[i] = normal.mult(int(phi[parent]), gen_images[gpos])
    if sorted(phi) != list(range(normal.order)):
        raise ValueError("action images do not generate the normal factor")
    for gpos, g in enumerate(normal.gen_indices):
        lhs = phi[normal.mult_many(np.arange(normal.order, dtype=np.int64), g)]
        rhs = normal.mult_many(phi, gen_images[gpos])
        if not np.array_equal(lhs, rhs):
            raise ValueError("action images do not preserve the relations")
    return phi


def _check_action_homomorphism(complement, normal, aut_rows):
    """The generator automorphisms must extend to a homomorphism, i.e. respect
    every relation of the complement (checked on all Cayley edges). Returns
    the automorphism row of every complement element."""
    rows = [None] * complement.order
    rows[0] = np.arange(normal.order, dtype=np.int64)
    for e in range(1, complement.order):
        parent, gpos = complement.bfs_edges[e]
        rows[e] = aut_rows[gpos][rows[parent]]
    for e in range(complement.order):
        for gpos, g in enumerate(complement.gen_indices):
            t = complement.mult(e, g)
            if not np.array_equal(rows[t], aut_rows[gpos][rows[e]]):
                raise ValueError(
                    "action does not define a homomorphism from the complement"
                )
    return rows


# -- action-word parsing ------------------------------------------------


def _parse_action(action: str, n_gens: int):
    """Parse ``"g1 -> g2, g2 -> g1^-1*g2^-1; ..."`` into per-automorphism
    lists of words, one word per normal-factor generator."""
    auts = []
    for part in action.split(";"):
        assignments: dict[int, list] = {}
        for piece in part.split(","):
            piece = piece.strip()
            if not piece:
                continue
            arrow = "->" if "->" in piece else ("→" if "→" in piece else None)
            if arrow is None:
                raise ValueError(f"missing '->' in action assignment {piece!r}")
            target, word_text = piece.split(arrow, 1)
            gen_pos = _gen_position(target.strip(), n_gens)
            if gen_pos in assignments:
                raise ValueError(f"generator g{gen_pos + 1} assigned twice")
            assignments[gen_pos] = _parse_word(word_text.strip(), n_gens)
        if len(assignments) != n_gens:
            missing = [f"g{i + 1}" for i in range(n_gens) if i not in assignments]
            raise ValueError(f"action leaves {', '.join(missing)} unassigned")
        auts.append([assignments[i] for i in range(n_gens)])
    return auts


def _gen_position(name: str, n_gens: int) -> int:
    if not name.startswith("g") or not name[1:].isdigit():
        raise ValueError(f"bad generator name {name!r} (expected g1..g{n_gens})")
    pos = int(name[1:]) - 1
    if not 0 <= pos < n_gens:
        raise ValueError(f"generator {name} out of range (g1..g{n_gens})")
    return pos


def _parse_word(text: str, n_gens: int):
    if text == "1":
        return []
    word = []
    for factor in text.split("*"):
        factor = factor.strip()
        if "^" in factor:
            base, exp_text = factor.split("^", 1)
            exponent = int(exp_text)
        else:
            base, exponent = factor, 1
        word.append((_gen_position(base.strip(), n_gens), exponent))
    return word


# -- group files ---------------------------------------------------------


def parse_group_file(text: str) -> tuple[str, GroupExpr]:
    """Parse the line-oriented group-file format.

    Either ``group NAME`` / ``degree N`` / one or more ``gen CYCLES`` lines,
    or ``group NAME`` / ``expr CONSTRUCTION``. ``#`` starts a comment.
    """
    name = None
    degree = None
    cycles: list[str] = []
    expr: GroupExpr | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "group":
            if name is not None:
                raise GroupFileError("duplicate group line", lineno)
            if not rest:
                raise GroupFileError("group line needs a name", lineno)
            name = rest
        elif keyword == "degree":
            if expr is not None:
                raise GroupFileError("degree after expr", lineno)
            if degree is not None:
                raise GroupFileError("duplicate degree line", lineno)
            try:
                degree = int(rest)
            except ValueError:
                raise GroupFileError(f"bad degree {rest!r}", lineno) from None
            if degree < 1:
                raise GroupFileError("degree must be positive", lineno)
        elif keyword == "gen":
            if expr is not None:
                raise GroupFileError("gen line after expr", lineno)
            if degree is None:
                raise GroupFileError("gen line before degree", lineno)
            try:
                parse_cycles(rest, degree)
            except ValueError as exc:
                raise GroupFileError(str(exc), lineno) from None
            cycles.append(rest)
        elif keyword == "expr":
            if degree is not None or cycles:
                raise GroupFileError("expr cannot be mixed with degree/gen", lineno)
            if expr is not None:
                raise GroupFileError("duplicate expr line", lineno)
            try:
                expr = parse_expr(rest)
            except ValueError as exc:
                raise GroupFileError(str(exc), lineno) from None
        else:
            raise GroupFileError(f"unknown directive {keyword!r}", lineno)
    if name is None:
        raise GroupFileError("missing group line", 1)
    if expr is not None:
        return name, expr
    if degree is None:
        raise GroupFileError("missing degree or expr", 1)
    return name, Perm(degree, tuple(cycles))


# -- construction-expression parsing --------------------------------------

_CONSTRUCTORS = {cls.__name__: cls for cls in GroupExpr.__subclasses__()}
_LITERALS = {"int": int, "str": str}


def parse_expr(text: str) -> GroupExpr:
    """Parse a construction written in Python call syntax, evaluating nothing.

    ``ast`` reads the text; each call names a ``GroupExpr`` class and passes
    its fields in order, the argument kinds read off ``dataclasses.fields``:
    an integer literal (optionally negated) for ``int``, a string literal for
    ``str``, a nested construction for ``GroupExpr``, and any number of
    string literals for a trailing ``tuple[str, ...]``. A class without
    fields may drop its ``()``. Anything else raises ``ValueError`` with the
    character offset in ``text``.
    """
    lead = len(text) - len(text.lstrip())
    body = text.strip()
    lines = body.split("\n")

    def fail(message: str, lineno: int, col: int):
        offset = lead + sum(len(line) + 1 for line in lines[: lineno - 1]) + col
        raise ValueError(f"{message} (at offset {offset})")

    def reject(node: ast.AST, message: str):
        # ast columns count UTF-8 bytes
        prefix = lines[node.lineno - 1].encode()[: node.col_offset]
        fail(message, node.lineno, len(prefix.decode()))

    def value(node: ast.expr, kind: str):
        if kind == "GroupExpr":
            return construction(node)
        negated = kind == "int" and isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
        literal = node.operand if negated else node
        if not (isinstance(literal, ast.Constant) and type(literal.value) is _LITERALS[kind]):
            reject(node, f"expected {'an integer' if kind == 'int' else 'a string'}")
        return -literal.value if negated else literal.value

    def construction(node: ast.expr) -> GroupExpr:
        call = node if isinstance(node, ast.Call) else None
        func = node.func if call else node
        cls = _CONSTRUCTORS.get(func.id) if isinstance(func, ast.Name) else None
        if cls is None or (call is None and fields(cls)):
            reject(node, "expected a construction such as Cyclic(3)")
        if call and call.keywords:
            reject(call.keywords[0], "keyword arguments are not accepted")
        kinds = [f.type for f in fields(cls)]
        variadic = kinds[-1:] == ["tuple[str, ...]"]
        if variadic:
            kinds.pop()
        args = call.args if call else []
        if len(args) < len(kinds) or (len(args) > len(kinds) and not variadic):
            reject(node, f"wrong number of arguments to {cls.__name__}")
        values = [value(arg, kind) for arg, kind in zip(args, kinds)]
        if variadic:
            values.append(tuple(value(arg, "str") for arg in args[len(kinds):]))
        return cls(*values)

    try:
        tree = ast.parse(body, mode="eval")
    except SyntaxError as exc:
        fail(exc.msg, exc.lineno or 1, (exc.offset or 1) - 1)
    except (RecursionError, MemoryError):
        fail("construction nested too deeply", 1, 0)
    return construction(tree.body)


# -- built-in corpus -------------------------------------------------------

EXAMPLE_1875_NAME = "(C5^2xC5^2):C3"

_CORPUS_EXPRS: list[tuple[str, GroupExpr]] = (
    [(f"C{n}", Cyclic(n)) for n in range(1, 33)]
    + [
        ("C2^2", ElemAbelian(2, 2)),
        ("C2^3", ElemAbelian(2, 3)),
        ("C3^2", ElemAbelian(3, 2)),
        ("C3^3", ElemAbelian(3, 3)),
        ("C5^2", ElemAbelian(5, 2)),
        ("C5^3", ElemAbelian(5, 3)),
    ]
    + [(f"D{n}", Dihedral(n)) for n in range(6, 33, 2)]
    + [
        ("Q8", Quaternion8()),
        ("C4xC2", Direct(Cyclic(4), Cyclic(2))),
        ("S3", Sym(3)),
        ("S4", Sym(4)),
        ("S5", Sym(5)),
        ("A4", Alt(4)),
        ("A5", Alt(5)),
        ("SL(2,3)", SL23()),
        ("S3xC2", Direct(Sym(3), Cyclic(2))),
        ("A4xC3", Direct(Alt(4), Cyclic(3))),
        ("D8xC2", Direct(Dihedral(8), Cyclic(2))),
        ("C7:C3", Semidirect(Cyclic(7), Cyclic(3), "g1 -> g1^2")),
        ("C5:C4", Semidirect(Cyclic(5), Cyclic(4), "g1 -> g1^2")),
        (
            "C3^2:C2",
            Semidirect(ElemAbelian(3, 2), Cyclic(2), "g1 -> g1^-1, g2 -> g2^-1"),
        ),
    ]
)

EXAMPLE_1875_EXPR = Semidirect(
    Direct(ElemAbelian(5, 2), ElemAbelian(5, 2)),
    Cyclic(3),
    "g1 -> g2, g2 -> g1^-1*g2^-1, g3 -> g4, g4 -> g3^-1*g4^-1",
)

_BUILT: dict[str, FiniteGroup] = {}


def _built(name: str, expr: GroupExpr) -> FiniteGroup:
    group = _BUILT.get(name)
    if group is None:
        group = build(expr)
        group.name = name
        group = _BUILT.setdefault(name, group)
    return group


def builtin_corpus(
    max_order: int, include_example_1875: bool = False
) -> list[tuple[str, FiniteGroup]]:
    """The built-in verification corpus, filtered by order, sorted by
    (order, name). The order-1875 semidirect example joins regardless of
    ``max_order`` when its flag is set."""
    if max_order < 1:
        raise ValueError("max_order must be positive")
    out = []
    for name, expr in _CORPUS_EXPRS:
        group = _built(name, expr)
        if group.order <= max_order:
            out.append((name, group))
    if include_example_1875:
        out.append((EXAMPLE_1875_NAME, _built(EXAMPLE_1875_NAME, EXAMPLE_1875_EXPR)))
    out.sort(key=lambda item: (item[1].order, item[0]))
    return out
