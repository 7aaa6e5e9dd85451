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

    @cached_property
    def pairing_rows(self) -> Matrix:
        """Row i is classes[i] times the Gram matrix: x -> <x, line i+1>."""
        return tuple(
            tuple(sum(g * c for g, c in zip(row, cls)) for row in AMBIENT.gram)
            for cls in self.classes
        )

    @cached_property
    def neighbour_masks(self) -> tuple[int, ...]:
        """Mask i has bit j set exactly when lines i+1 and j+1 meet (j != i)."""
        return tuple(
            sum(1 << j for j, x in enumerate(row) if x == 1 and j != i)
            for i, row in enumerate(self.inter)
        )

    def meet(self, a: int, b: int) -> int:
        """Intersection number of two distinct lines (1-based)."""
        if a == b:
            raise ValueError("meet() expects two distinct lines")
        return self.inter[a - 1][b - 1]


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


def reflection_permutation(root: Sequence[int]) -> Perm:
    """The permutation of the 27 line indices induced by a root reflection.

    Each line class x goes to x + <x, root> * root. The root must have
    self-intersection -2 and pair to 0 with the anticanonical class K, or
    this raises ValueError. The reflection then preserves the pairing and
    fixes K, so it maps the classes with x.x = -1 and x.K = 1, which are
    exactly the 27 line classes, onto themselves.
    """
    if inner_product(root, root, AMBIENT) != -2:
        raise ValueError("reflection needs a root of self-intersection -2")
    if inner_product(root, ANTICANONICAL, AMBIENT):
        raise ValueError("reflection needs a root orthogonal to the anticanonical class")
    classes = build_line_system().classes
    index = {cls: i for i, cls in enumerate(classes)}
    return tuple(
        index[tuple(x + inner_product(cls, root, AMBIENT) * r for x, r in zip(cls, root))]
        for cls in classes
    )


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


def standard_generators() -> tuple[Perm, ...]:
    """Permutations of the simple-root reflections, in root order."""
    return tuple(reflection_permutation(r) for r in SIMPLE_ROOTS)


class PermutationGroup:
    """A finite permutation group stored as a dense, lex-sorted element table.

    The orbit scans read the group through coset_tables: the stabilizer H
    of point 0 and one element t_p per point p with t_p(p) = 0. A
    transitive group is the union over p of the cosets {t_p followed by h :
    h in H}, so those two small tables stand for the whole group, in the
    order the scans use.
    """

    def __init__(self, degree: int, generators: Sequence[Perm], elements: np.ndarray):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = elements  # shape (order, degree), lex-sorted rows
        self.order = int(elements.shape[0])

    @cached_property
    def coset_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(stab, coset): the group factored through the stabilizer of point 0.

        stab is int32 of shape (degree, B), B = order // degree: stab[j, h]
        is 2**(degree - 1 - h(j)) for the h-th element of the stabilizer of
        point 0 in lex order, which are the first B rows of the lex-sorted
        element table, the identity first. coset is intp of shape
        (degree, degree): coset[c, p] = t_p(c) for t_p the lex-first element
        with t_p(p) = 0. Together they lay the group out as a virtual table
        of B rows per point: row p * B + h is t_p followed by h, and sends
        point c to the image whose bit stab[coset[c, p], h] holds. Block p
        is then exactly the elements that send p to point 0, and row 0 is
        the identity. stab[coset[c, p]] is one contiguous row, so a scan
        gathers point c's keys over block p in one fancy index. A key is a
        sum of distinct entries of one row, at most 2**degree - 1, which is
        exact in int32 for degree <= 31. The cosets cover the group only
        when it is transitive; a group of larger degree, an intransitive
        group, or an element table that does not start with the identity
        raises ValueError, because the block-pruned scans of the orbit
        enumeration would be unsound.
        """
        if self.degree > 31:
            raise ValueError("rev keys need degree <= 31 to fit in int32")
        points = np.arange(self.degree)
        if not np.array_equal(self.elements[0], points):
            raise ValueError("element table must start with the identity")
        first = np.argmax(self.elements == 0, axis=0)  # the lex-first t_p
        if np.any(self.elements[first, points] != 0):
            raise ValueError("coset tables need a transitive group")
        block = self.order // self.degree
        images = self.elements[:block].T.copy()
        stab = np.left_shift(1, self.degree - 1 - images, dtype=np.int32)
        coset = np.ascontiguousarray(self.elements[first].T, dtype=np.intp)
        stab.flags.writeable = coset.flags.writeable = False  # shared by every caller
        return stab, coset


def _row_set(table: np.ndarray) -> set[bytes]:
    """The rows of a 2-d uint8 table as a set of bytes."""
    rows, width = table.tobytes(), table.shape[1]
    return {rows[k * width : (k + 1) * width] for k in range(len(table))}


def generate_group(generators: Sequence[Perm]) -> PermutationGroup:
    """Closure of the generators under composition, as a lex-sorted table.

    Dimino's method closes the group one generator at a time (Butler,
    *Fundamental Algorithms for Permutation Groups*, LNCS 559, 1991). Let H
    be the group of the generators before g; a g already in H is skipped.
    Otherwise H and g generate a union of right cosets H * r, each one numpy
    composition r[H] of the rows of H (h followed by r). From the identity
    on, each representative r followed by each generator so far gives a
    candidate x. It is a new representative when x followed by r'^-1 lies
    outside H for every representative r' so far, that is, when x lies in
    no coset found. The union is then closed under every generator, so it
    is the group. Rows are uint8, and one np.lexsort puts them in lex
    order, the identity first.
    """
    if not generators:
        raise ValueError("need at least one generator")
    degree = len(generators[0])
    if any(len(g) != degree for g in generators):
        raise ValueError("generators must share a degree")
    if degree > 256:
        raise ValueError("element table rows are uint8: degree must be <= 256")
    if any(sorted(g) != list(range(degree)) for g in generators):
        raise ValueError("generators must be permutations of range(degree)")
    group = np.arange(degree, dtype=np.uint8)[None]
    used: list[np.ndarray] = []
    for g in generators:
        g = np.array(g, dtype=np.uint8)
        members = _row_set(group)
        if g.tobytes() in members:
            continue
        used.append(g)
        reps, inverses = [group[0]], [group[0]]
        for r in reps:  # grows while it is read
            for s in used:
                x = s[r]
                # x is in the coset H * r' exactly when x followed by r'^-1 is in H
                if _row_set(np.stack(inverses)[:, x]).isdisjoint(members):
                    reps.append(x)
                    inverses.append(np.argsort(x).astype(np.uint8))
        group = np.concatenate([r[group] for r in reps])
    if degree:  # lexsort needs a key; degree 0 has only the empty permutation
        group = group[np.lexsort(group.T[::-1])]
    return PermutationGroup(degree=degree, generators=generators, elements=group)


@cache
def weyl_group() -> PermutationGroup:
    """W(E6) acting on the 27 lines, generated by the six simple reflections."""
    return generate_group(standard_generators())
