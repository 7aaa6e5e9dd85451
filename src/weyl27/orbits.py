"""Orbit enumeration for line arrangements under the Weyl group action.

An arrangement is a subset of the 27 lines, stored as a bitmask over the
0-based line indices (bit i = line number i + 1). Orbits are represented by
their lex-least member, comparing arrangements of equal size as the sorted
strings of their line numbers.

The hot path relies on one fact: for equal-size masks A and B,

    A is lex-less than B  <=>  rev(A) > rev(B),

where rev(S) = sum over i in S of 2**(degree - 1 - i). Reversing the bit
significance turns "smallest leading element wins" into plain integer
comparison, so a mask is a lex-least representative exactly when rev of its
image is maximal at the identity. That check vectorizes over the dense group
element table. The same scan yields the orbit length: |W| divided by the
number of rows whose key equals the identity row's (the stabilizer order).

The enumeration scans only part of the table. The group is transitive, so
every orbit of nonempty arrangements has a member containing line 1, and
that member outranks every arrangement without line 1: a nonempty minimal
representative contains line 1. An image g(S) can then beat S only if it
contains line 1, that is, only if g(p) = line 1 for some p in S, and every
g that fixes S also sends some p in S to line 1. PermutationGroup.rev_table
stores those elements as blocks, one per p (the coset of the stabilizer of
line 1 that maps p there), so a child S is scanned over its |S| blocks
rather than over the whole group. This is the first step of Linton's
stabilizer-chain search for the smallest image of a set. It needs a
transitive group; rev_table refuses any other.
"""

from __future__ import annotations

import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .lines import LINE_COUNT, Perm, PermutationGroup

FULL_MASK = (1 << LINE_COUNT) - 1


def mask_from_lines(lines: Iterable[int]) -> int:
    """Bitmask for a collection of distinct 1-based line numbers."""
    mask = 0
    for number in lines:
        if not 1 <= number <= LINE_COUNT:
            raise ValueError(f"line number out of range: {number}")
        bit = 1 << (number - 1)
        if mask & bit:
            raise ValueError(f"duplicate line number: {number}")
        mask |= bit
    return mask


def lines_of_mask(mask: int) -> tuple[int, ...]:
    """Sorted 1-based line numbers of a bitmask."""
    return tuple(i + 1 for i in _bit_indices(mask))


def _bit_indices(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def apply_perm(mask: int, perm: Perm) -> int:
    """Image of an arrangement under a permutation of the line indices."""
    out = 0
    for i in _bit_indices(mask):
        out |= 1 << perm[i]
    return out


def lex_less(a: int, b: int) -> bool:
    """Definitional comparator: sorted index strings, equal sizes only."""
    if a.bit_count() != b.bit_count():
        raise ValueError("lex order is defined between equal-size arrangements")
    return _bit_indices(a) < _bit_indices(b)


def rev_key(mask: int, degree: int = LINE_COUNT) -> int:
    """Bit-reversed encoding; bigger key means lex-smaller arrangement."""
    key = 0
    for i in _bit_indices(mask):
        key |= 1 << (degree - 1 - i)
    return key


def _unrev(key: int, degree: int = LINE_COUNT) -> int:
    mask = 0
    for j in _bit_indices(key):
        mask |= 1 << (degree - 1 - j)
    return mask


def _orbit_keys(mask: int, group: PermutationGroup) -> np.ndarray:
    tbl = group.rev_table
    idx = _bit_indices(mask)
    if not idx:
        return np.zeros(tbl.shape[0], dtype=tbl.dtype)
    return tbl[:, idx].sum(axis=1)


def is_minimal(mask: int, group: PermutationGroup, chunk: int = 8192) -> bool:
    """Whether a mask is the lex-least member of its orbit.

    Flat scan over the element table in chunks, leaving early as soon as a
    lex-smaller image shows up.
    """
    idx = _bit_indices(mask)
    if not idx:
        return True
    tbl = group.rev_table
    own = rev_key(mask, group.degree)
    for start in range(0, tbl.shape[0], chunk):
        part = tbl[start : start + chunk, idx].sum(axis=1)
        if int(part.max()) > own:
            return False
    return True


def minimal_representative(mask: int, group: PermutationGroup) -> int:
    """Lex-least member of the orbit of a mask."""
    keys = _orbit_keys(mask, group)
    return _unrev(int(keys.max()), group.degree)


def orbit_size(mask: int, group: PermutationGroup) -> int:
    """Orbit length via the stabilizer count over the full element table."""
    keys = _orbit_keys(mask, group)
    stab = int(np.count_nonzero(keys == keys[0]))
    return group.order // stab


def orbit_masks(mask: int, group: PermutationGroup) -> list[int]:
    """Every member of the orbit, lex-sorted. Costly; meant for spot checks."""
    keys = np.unique(_orbit_keys(mask, group))
    return [_unrev(int(k), group.degree) for k in keys[::-1]]


def _extend_batch(
    parents: Sequence[int], tbl: np.ndarray, degree: int
) -> list[tuple[int, int]]:
    """Children of lex-sorted minimal parents, in lex order, with orbit lengths.

    Every child of a minimal arrangement adds a line past the parent's last
    one; appending keeps parent order, so the output needs no sort. tbl is
    laid out as PermutationGroup.rev_table. A child scans the blocks of its
    own lines only: the parent's blocks for every candidate at once, and
    block c for candidate c alone, where g(c) = line 1 adds the top key bit.
    The child is kept when no row of either part beats the identity's key,
    and the stabilizer count over the same rows gives its orbit length.
    The empty parent scans the whole table. A nonempty parent without
    line 1 is not minimal, and raises ValueError.
    """
    order = tbl.shape[0]
    block = order // degree
    top = 1 << (degree - 1)
    cols = tbl.T.reshape(degree, degree, block)  # [point, block, row in block]
    out: list[tuple[int, int]] = []
    for mask in parents:
        idx = _bit_indices(mask)
        if not idx:
            keep = tbl.max(axis=0) == tbl[0]
            for c in np.flatnonzero(keep):
                stab = int(np.count_nonzero(tbl[:, c] == tbl[0, c]))
                out.append((1 << int(c), order // stab))
            continue
        if idx[0] != 0:
            raise ValueError(f"{list(lines_of_mask(mask))} lacks line 1, so it is not minimal")
        first_cand = idx[-1] + 1
        if first_cand >= degree:
            continue
        # Blocks of the parent's lines, for every candidate at once.
        parent_keys = cols[np.ix_(idx, idx)].sum(axis=0, dtype=np.int32)
        cand_keys = (cols[first_cand:, idx] + parent_keys).reshape(degree - first_cand, -1)
        own_keys = cand_keys[:, 0]  # the identity leads block 0
        # Block c for candidate c alone.
        new_keys = cols[idx, first_cand:].sum(axis=0, dtype=np.int32) + top
        keep = (cand_keys.max(axis=1) == own_keys) & (new_keys.max(axis=1) <= own_keys)
        for offset in np.flatnonzero(keep):
            own = own_keys[offset]
            stab = int(np.count_nonzero(cand_keys[offset] == own)) + int(
                np.count_nonzero(new_keys[offset] == own)
            )
            out.append((mask | (1 << (first_cand + int(offset))), order // stab))
    return out


class WorkerError(RuntimeError):
    """A pool task raised, or a pool worker died; the message names why."""


# Shared state for forked enumeration workers, set before the pool spawns.
_POOL_GROUP: PermutationGroup | None = None


def _pool_extend(chunk: Sequence[int]) -> list[tuple[int, int]]:
    group = _POOL_GROUP
    assert group is not None
    return _extend_batch(chunk, group.rev_table, group.degree)


def _chunks(items: Sequence, pieces: int) -> list[Sequence]:
    if pieces <= 1 or len(items) <= 1:
        return [items] if len(items) else []
    size = -(-len(items) // pieces)
    return [items[i : i + size] for i in range(0, len(items), size)]


def extend_minimal(reps: Sequence[int], group: PermutationGroup) -> list[int]:
    """All minimal representatives one line bigger than the given level.

    Expects the complete lex-sorted list of minimal representatives of one
    size; returns the complete lex-sorted list of the next size. A nonempty
    arrangement without line 1 is never minimal and raises ValueError.
    """
    sizes = {mask.bit_count() for mask in reps}
    if len(sizes) > 1:
        raise ValueError("representatives must share a cardinality")
    ordered = sorted(reps, key=lambda m: rev_key(m, group.degree), reverse=True)
    return [mask for mask, _ in _extend_batch(ordered, group.rev_table, group.degree)]


@dataclass(frozen=True)
class OrbitRecord:
    """One orbit: its lex-least arrangement and the orbit length."""

    mask: int
    orbit_size: int

    @property
    def n(self) -> int:
        return self.mask.bit_count()

    @property
    def min_rep(self) -> tuple[int, ...]:
        return lines_of_mask(self.mask)

    def as_dict(self) -> dict:
        return {"n": self.n, "min_rep": list(self.min_rep), "orbit_size": self.orbit_size}


def enumerate_all(
    group: PermutationGroup, max_n: int | None = None, workers: int = 1
) -> list[OrbitRecord]:
    """Every orbit as an OrbitRecord, sorted by (size, lex of representative).

    One pass builds each level of minimal representatives, with their orbit
    lengths, from the level below, up to max_n lines. Workers > 1 forks one
    process pool and splits each level across it; the output is identical
    for any worker count. An exception in a pool task, or a worker that
    dies, raises WorkerError.
    """
    limit = group.degree if max_n is None else max_n
    if not 0 <= limit <= group.degree:
        raise ValueError(f"max_n out of range: {max_n}")
    tbl = group.rev_table
    records = [OrbitRecord(mask=0, orbit_size=1)]
    parents = [0]
    pool = _start_pool(group, workers)
    try:
        for _ in range(limit):
            if pool is None or len(parents) < 2 * workers:
                children = _extend_batch(parents, tbl, group.degree)
            else:
                try:
                    parts = list(pool.map(_pool_extend, _chunks(parents, workers)))
                except Exception as exc:  # a task raised, or a worker died
                    detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
                    raise WorkerError(f"a pool worker failed: {detail}") from exc
                children = [child for part in parts for child in part]
            if not children:
                break
            records.extend(OrbitRecord(mask=m, orbit_size=s) for m, s in children)
            parents = [m for m, _ in children]
    finally:
        if pool is not None:
            pool.shutdown()
    return records


def _start_pool(group: PermutationGroup, workers: int) -> ProcessPoolExecutor | None:
    """Forked pool sharing the group table, or None for in-process work.

    Without the fork start method the work runs in-process, with a warning.
    """
    if workers <= 1:
        return None
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        warnings.warn(
            f"no fork start method on this platform; running serially instead of "
            f"with {workers} workers",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    global _POOL_GROUP
    group.rev_table  # build before forking so children inherit it
    _POOL_GROUP = group
    return ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
