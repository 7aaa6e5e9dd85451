"""The 27 lines on a cubic surface and the Weyl group W(E6) acting on them.

The ambient lattice is Z^7 with Gram matrix diag(1, -1, ..., -1) and basis
(h, e1, ..., e6). Line classes are numbered 1..27:

- 1..6    the exceptional classes e_i,
- 7..21   the classes h - e_i - e_j with (i, j) running through the 15 pairs
  in order (1,2), (1,3), ..., (1,6), (2,3), ..., (5,6),
- 22..27  the classes 2h - (e1 + ... + e6) + e_k.

Permutations act on the 0-based indices; the public API speaks 1-based line
numbers. Composition follows the right-action convention: (p * q) means apply
p first, then q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations
from typing import Sequence

import numpy as np

from .lattice import GramLattice, Matrix, Vector, inner_product

RANK = 7
LINE_COUNT = 27

AMBIENT = GramLattice(
    rank=RANK,
    gram=tuple(
        tuple((1 if i == 0 else -1) if i == j else 0 for j in range(RANK))
        for i in range(RANK)
    ),
)

ANTICANONICAL: Vector = (3, -1, -1, -1, -1, -1, -1)

# Simple roots of the E6 system inside the ambient lattice, norm -2 each.
SIMPLE_ROOTS: Matrix = (
    (-1, 0, 0, 0, 1, 1, 1),
    (0, 1, -1, 0, 0, 0, 0),
    (0, 0, 1, -1, 0, 0, 0),
    (0, 0, 0, 1, -1, 0, 0),
    (0, 0, 0, 0, 1, -1, 0),
    (0, 0, 0, 0, 0, 1, -1),
)

# Edges of the E6 diagram over root numbers 1..6 (node 1 is the branch).
_E6_EDGES = frozenset({(1, 4), (2, 3), (3, 4), (4, 5), (5, 6)})

Perm = tuple[int, ...]


def _basis_vector(i: int) -> Vector:
    return tuple(1 if j == i else 0 for j in range(RANK))


@dataclass(frozen=True)
class LineSystem:
    """The 27 line classes with their pairwise intersection numbers."""

    classes: Matrix          # classes[i] is line i+1
    inter: Matrix            # inter[i][j] = <classes[i], classes[j]>

    def line_class(self, number: int) -> Vector:
        """Class of the line with the given 1-based number."""
        if not 1 <= number <= LINE_COUNT:
            raise ValueError(f"line number out of range: {number}")
        return self.classes[number - 1]

    def meet(self, a: int, b: int) -> int:
        """Intersection number of two distinct lines (1-based)."""
        if a == b:
            raise ValueError("meet() expects two distinct lines")
        return self.inter[a - 1][b - 1]

    def index_of(self, cls: Sequence[int]) -> int:
        """0-based index of a line class, or raise if it is not one."""
        key = tuple(cls)
        try:
            return self._lookup()[key]
        except KeyError:
            raise ValueError(f"not a line class: {key}") from None

    @cache
    def _lookup(self) -> dict[Vector, int]:
        return {cls: i for i, cls in enumerate(self.classes)}


@cache
def build_line_system() -> LineSystem:
    classes: list[Vector] = [_basis_vector(i) for i in range(1, RANK)]
    for i, j in combinations(range(1, 7), 2):
        classes.append(
            tuple(
                (1 if k == 0 else 0) - (1 if k in (i, j) else 0)
                for k in range(RANK)
            )
        )
    for k in range(1, 7):
        classes.append(
            tuple(
                2 if m == 0 else (-1 + (1 if m == k else 0)) for m in range(RANK)
            )
        )
    inter = tuple(
        tuple(inner_product(x, y, AMBIENT) for y in classes) for x in classes
    )
    return LineSystem(classes=tuple(classes), inter=inter)


@dataclass(frozen=True)
class Isometry:
    """A lattice map given by a 7x7 integer matrix acting on row vectors."""

    matrix: Matrix

    def apply(self, v: Sequence[int]) -> Vector:
        return tuple(
            sum(v[i] * self.matrix[i][j] for i in range(RANK)) for j in range(RANK)
        )

    def preserves_pairing(self) -> bool:
        g = AMBIENT.gram
        m = self.matrix
        for i in range(RANK):
            for j in range(i, RANK):
                lhs = inner_product(m[i], m[j], AMBIENT)
                if lhs != g[i][j]:
                    return False
        return True


def reflection(root: Sequence[int]) -> Isometry:
    """Reflection x -> x + <x, root> * root in a norm -2 root."""
    if inner_product(root, root, AMBIENT) != -2:
        raise ValueError("reflection needs a root of self-intersection -2")
    g = AMBIENT.gram
    rows = []
    for i in range(RANK):
        coeff = sum(g[i][k] * root[k] for k in range(RANK))  # <e_i, root>
        rows.append(
            tuple((1 if i == j else 0) + coeff * root[j] for j in range(RANK))
        )
    return Isometry(matrix=tuple(rows))


def verify_dynkin(roots: Sequence[Sequence[int]] = SIMPLE_ROOTS) -> bool:
    """Check that the six roots span an E6 diagram with the expected edges.

    Requires norm -2 on the diagonal and pairing 1 exactly on the E6 edge
    set (0 otherwise), then checks the whole system lies in the orthogonal
    complement of the anticanonical class.
    """
    if len(roots) != 6:
        return False
    for a in range(6):
        for b in range(6):
            val = inner_product(roots[a], roots[b], AMBIENT)
            if a == b:
                if val != -2:
                    return False
                continue
            edge = (min(a, b) + 1, max(a, b) + 1) in _E6_EDGES
            if val != (1 if edge else 0):
                return False
    return all(
        inner_product(r, ANTICANONICAL, AMBIENT) == 0 for r in roots
    )


def isometry_to_permutation(iso: Isometry, ls: LineSystem | None = None) -> Perm:
    """The permutation of the 27 line indices induced by an isometry.

    Raises if the isometry does not fix the anticanonical class or maps some
    line class outside the line set.
    """
    ls = ls or build_line_system()
    if iso.apply(ANTICANONICAL) != ANTICANONICAL:
        raise ValueError("isometry does not fix the anticanonical class")
    images = []
    for cls in ls.classes:
        images.append(ls.index_of(iso.apply(cls)))
    if len(set(images)) != LINE_COUNT:
        raise ValueError("isometry does not permute the line classes")
    return tuple(images)


def compose(p: Perm, q: Perm) -> Perm:
    """Right-action composition: apply p first, then q."""
    return tuple(q[i] for i in p)


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def cycle_notation(p: Perm) -> str:
    """Disjoint cycles over 1-based points, fixed points omitted.

    The identity renders as "()". Cycles start at their smallest point and
    are ordered by that point, e.g. "(1,2)(8,12)".
    """
    seen = [False] * len(p)
    parts = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = p[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = p[nxt]
        parts.append("(" + ",".join(str(x + 1) for x in cyc) + ")")
    return "".join(parts) if parts else "()"


def standard_generators(ls: LineSystem | None = None) -> tuple[Perm, ...]:
    """Permutations of the simple-root reflections, in root order."""
    ls = ls or build_line_system()
    return tuple(
        isometry_to_permutation(reflection(r), ls) for r in SIMPLE_ROOTS
    )


class PermutationGroup:
    """A finite permutation group stored as a dense, lex-sorted element table."""

    def __init__(self, degree: int, generators: Sequence[Perm], elements: np.ndarray):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = elements  # shape (order, degree), lex-sorted rows
        self.order = int(elements.shape[0])
        self._byte_index: frozenset[bytes] | None = None

    @cached_property
    def rev_table(self) -> np.ndarray:
        """Per-element bit-reversal lookup for the orbit scans.

        Entry [g, i] is 2**(degree - 1 - j) where j is point i's image under
        element g. Row 0 belongs to the identity because the element table is
        lex-sorted.
        """
        if self.degree > 62:
            raise ValueError("rev keys need degree <= 62 to fit in int64")
        first = self.elements[0]
        if not all(int(first[i]) == i for i in range(self.degree)):
            raise AssertionError("element table must start with the identity")
        images = self.elements.astype(np.int64)
        return np.left_shift(np.int64(1), self.degree - 1 - images)

    def __contains__(self, p: Sequence[int]) -> bool:
        if self._byte_index is None:
            self._byte_index = frozenset(row.tobytes() for row in self.elements)
        return bytes(bytearray(int(x) for x in p)) in self._byte_index


def generate_group(generators: Sequence[Perm]) -> PermutationGroup:
    """Closure of the generators under composition, as a sorted table.

    Plain breadth-first closure; the identity always sorts first because it
    is lex-least among permutations.
    """
    if not generators:
        raise ValueError("need at least one generator")
    degree = len(generators[0])
    if any(len(g) != degree for g in generators):
        raise ValueError("generators must share a degree")
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = compose(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    table = np.array(sorted(seen), dtype=np.uint8)
    return PermutationGroup(degree=degree, generators=generators, elements=table)


@cache
def weyl_group() -> PermutationGroup:
    """W(E6) acting on the 27 lines, generated by the six simple reflections."""
    return generate_group(standard_generators())
