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
    gram_of,
    hermite_normal_form,
    is_even,
    smith_normal_form,
)
from .lines import AMBIENT, RANK, LineSystem, build_line_system
from .orbits import lines_of_mask


@dataclass(frozen=True)
class InvariantReport:
    """Aggregated lattice data for one arrangement.

    perp_parity is "even" when every vector of the orthogonal complement of
    the span has even self-pairing (a rank-0 complement counts as even) and
    "odd" otherwise; h1_torsion lists the invariant factors > 1 of the first
    homology in divisibility order.
    """

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
    rows = (ls or build_line_system()).pairing_rows
    return tuple(rows[number - 1] for number in lines_of_mask(mask))


def invariant_report(mask: int, ls: LineSystem | None = None) -> InvariantReport:
    """Both invariants from one normal-form pass over the restriction matrix.

    The restriction matrix A is U * [H; 0] for its Hermite form H (at most 7
    rows) and some unimodular U, so A and H share their elementary divisors
    and their kernel, which is the orthogonal complement of the span. The
    Smith form of H gives both: its divisors are the invariant factors of
    the cokernel, and the columns of v past the rank are a kernel basis.
    The ambient Gram matrix is unimodular, so rank(A) is the span rank.
    """
    lines = lines_of_mask(mask)
    # the empty arrangement has no rows; one zero row keeps the width at 7
    hnf = hermite_normal_form(restriction_matrix(mask, ls)) or ((0,) * RANK,)
    snf = smith_normal_form(hnf)
    divisors = snf.divisors()
    rank = len(divisors)
    kernel = [tuple(row[j] for row in snf.v) for j in range(rank, RANK)]
    return InvariantReport(
        lines=lines,
        span_rank=rank,
        perp_rank=RANK - rank,
        perp_parity="even" if is_even(gram_of(kernel, AMBIENT)) else "odd",
        h1_torsion=tuple(d for d in divisors if d > 1),
        h1_free_rank=len(lines) - rank,
    )
