"""Lattice invariants that tell apart arrangements of one combinatorial type.

Two invariants of an arrangement S do the distinguishing work:

- the parity (even/odd) of the orthogonal complement of the span of its line
  classes inside the ambient rank-7 lattice, and
- the first homology of the complement of the union of lines, computed as the
  cokernel of the restriction map from the ambient lattice to the direct sum
  of one Z per line (pairing a vector against each line class).

Both are constant on group orbits because the group acts by isometries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import (
    Matrix,
    cokernel_invariants,
    is_even,
    orthogonal_complement,
)
from .lines import AMBIENT, RANK, LineSystem, build_line_system
from .orbits import lines_of_mask


@dataclass(frozen=True)
class InvariantReport:
    """Aggregated lattice data for one arrangement."""

    lines: tuple[int, ...]
    span_rank: int
    perp_rank: int
    perp_parity: str
    h1_torsion: tuple[int, ...]
    h1_free_rank: int

    def as_dict(self) -> dict:
        return {
            "lines": list(self.lines),
            "span_rank": self.span_rank,
            "perp_rank": self.perp_rank,
            "perp_parity": self.perp_parity,
            "h1_torsion": list(self.h1_torsion),
            "h1_free_rank": self.h1_free_rank,
        }


def class_vectors(mask: int, ls: LineSystem | None = None) -> Matrix:
    """Classes of the arrangement's lines, in increasing line-number order."""
    ls = ls or build_line_system()
    return tuple(ls.line_class(number) for number in lines_of_mask(mask))


def restriction_matrix(mask: int, ls: LineSystem | None = None) -> Matrix:
    """|S| x 7 matrix of the map x -> (<x, class of line>) over the lines.

    Row for line l is the coordinate vector of its class multiplied by the
    Gram matrix, so the map lands in one Z summand per line. The cokernel of
    this matrix carries the first homology of the complement of the union.
    """
    ls = ls or build_line_system()
    rows = []
    for cls in class_vectors(mask, ls):
        rows.append(
            tuple(
                sum(AMBIENT.gram[j][i] * cls[i] for i in range(RANK))
                for j in range(RANK)
            )
        )
    return tuple(rows)


def perp_parity(mask: int, ls: LineSystem | None = None) -> str:
    """Parity of the orthogonal complement of the span of the line classes.

    "even" when every vector of the complement has even self-pairing, "odd"
    otherwise. The rank-0 complement counts as even; the empty arrangement
    has the whole ambient lattice as complement and comes out odd.
    """
    _, gram = orthogonal_complement(class_vectors(mask, ls), AMBIENT)
    return "even" if is_even(gram) else "odd"


def h1_complement(mask: int, ls: LineSystem | None = None) -> tuple[tuple[int, ...], int]:
    """Torsion (invariant factors > 1, in divisibility order) and free rank."""
    matrix = restriction_matrix(mask, ls)
    return cokernel_invariants(matrix, target_rank=len(matrix))


def invariant_report(mask: int, ls: LineSystem | None = None) -> InvariantReport:
    ls = ls or build_line_system()
    classes = class_vectors(mask, ls)
    basis, gram = orthogonal_complement(classes, AMBIENT)
    torsion, free_rank = h1_complement(mask, ls)
    return InvariantReport(
        lines=lines_of_mask(mask),
        # The ambient Gram matrix is unimodular, so the two ranks sum to 7.
        span_rank=RANK - len(basis),
        perp_rank=len(basis),
        perp_parity="even" if is_even(gram) else "odd",
        h1_torsion=torsion,
        h1_free_rank=free_rank,
    )
