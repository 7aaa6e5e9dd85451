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

from .lines import LINE_COUNT, PermutationGroup

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
    return tuple(i + 1 for i in _bits(mask))


# _BYTE_BITS[k][b] lists the bits 8k + i of the set bits i of byte b.
_BYTE_BITS = tuple(
    tuple(tuple(8 * k + i for i in range(8) if b >> i & 1) for b in range(256))
    for k in range(4)
)


def _bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of a nonnegative mask, in increasing order."""
    t0, t1, t2, t3 = _BYTE_BITS
    if mask >> 32:
        return _bits(mask & 0xFFFFFFFF) + tuple(32 + i for i in _bits(mask >> 32))
    return t0[mask & 255] + t1[mask >> 8 & 255] + t2[mask >> 16 & 255] + t3[mask >> 24]


def _unrev(key: int, degree: int) -> int:
    mask = 0
    for j in _bits(key):
        mask |= 1 << (degree - 1 - j)
    return mask


def _orbit_keys(mask: int, group: PermutationGroup) -> np.ndarray:
    return group.rev_table[:, _bits(mask)].sum(axis=1)


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
    A parent without line 1, the empty one included, raises ValueError:
    only nonempty minimal parents have their children in these blocks.
    """
    order = tbl.shape[0]
    block = order // degree
    top = 1 << (degree - 1)
    cols = tbl.T.reshape(degree, degree, block)  # [point, block, row in block]
    out: list[tuple[int, int]] = []
    for mask in parents:
        idx = _bits(mask)
        if not idx or idx[0] != 0:
            raise ValueError(f"{list(lines_of_mask(mask))} lacks line 1: not a nonempty minimal parent")
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
    # rev_table admits only a transitive group: level 1 is one orbit, {line 1}.
    records = [OrbitRecord(0, 1), OrbitRecord(1, group.degree)][: limit + 1]
    parents = [1]
    pool = _start_pool(group, workers)
    try:
        for _ in range(limit - 1):
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
