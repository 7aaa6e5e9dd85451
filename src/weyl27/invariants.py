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
from typing import Iterable

from .lattice import Matrix, is_even, smith_normal_form
from .lines import AMBIENT, RANK, build_line_system
from .orbits import OrbitRecord, lines_of_mask


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


def restriction_matrix(mask: int) -> Matrix:
    """|S| x 7 matrix of the map x -> (<x, class of line>) over the lines.

    Row for line l is the coordinate vector of its class multiplied by the
    Gram matrix, so the map lands in one Z summand per line. The cokernel of
    this matrix carries the first homology of the complement of the union.
    """
    rows = build_line_system().pairing_rows
    return tuple(rows[number - 1] for number in lines_of_mask(mask))


def invariant_report(mask: int) -> InvariantReport:
    """Both invariants from one Smith form of the restriction matrix A.

    The divisors of A's Smith form are the invariant factors of the
    cokernel, and the columns of v past the rank are a basis of A's
    kernel, the orthogonal complement of the span. The ambient Gram matrix
    is unimodular, so rank(A) is the span rank.

    The parity is lattice.is_even on that basis, the rule check 9 certifies:
    by bilinearity it reads the basis' self-pairings and nothing else.
    """
    lines = lines_of_mask(mask)
    # the empty arrangement has no rows; one zero row keeps the width at 7
    snf = smith_normal_form(restriction_matrix(mask) or ((0,) * RANK,))
    divisors = snf.divisors()
    rank = len(divisors)
    kernel = list(zip(*snf.v))[rank:]
    return InvariantReport(
        lines=lines,
        span_rank=rank,
        perp_rank=RANK - rank,
        perp_parity="even" if is_even(kernel, AMBIENT) else "odd",
        h1_torsion=tuple(d for d in divisors if d > 1),
        h1_free_rank=len(lines) - rank,
    )


def invariant_reports(records: Iterable[OrbitRecord]) -> list[InvariantReport]:
    """invariant_report of each record's arrangement, in order, with no
    normal form below a full-span record.

    A record's enumeration parent is its arrangement less its highest line.
    Call the parent full-span when its span rank is 7 and it has no
    torsion: its restriction matrix then has 7 x 7 minors of gcd 1, and a
    further row keeps them. So the child also has rank 7, no torsion and a
    rank-0 (even) complement; only its free rank |S| - 7 is new. Parents
    are looked up among the full-span records seen so far (enumeration
    order puts parents first); any other record gets the full report.
    """
    full_span: set[int] = set()
    reports = []
    for record in records:
        mask = record.mask
        parent = mask & ~(1 << (mask.bit_length() - 1)) if mask else None
        if parent in full_span:
            lines = lines_of_mask(mask)
            report = InvariantReport(lines, RANK, 0, "even", (), len(lines) - RANK)
        else:
            report = invariant_report(mask)
        if report.span_rank == RANK and not report.h1_torsion:
            full_span.add(mask)
        reports.append(report)
    return reports
