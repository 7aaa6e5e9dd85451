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
image is maximal at the identity. That check vectorizes over the group's
elements, one key per element. The same scan yields the orbit length: |W|
divided by the number of elements whose key equals the identity's (the
stabilizer order).

The enumeration scans only part of the group. The group is transitive, so
every orbit of nonempty arrangements has a member containing line 1, and
that member outranks every arrangement without line 1: a nonempty minimal
representative contains line 1. An image g(S) can then beat S only if it
contains line 1, that is, only if g(p) = line 1 for some p in S, and every
g that fixes S also sends some p in S to line 1. The elements that send p
to line 1 are one coset: an element t_p that does, followed by each element
of the stabilizer of line 1, W(D5) of order 1920. PermutationGroup's
coset_tables stores the group in that factored form, stab for the
stabilizer and coset for the t_p, and the scans read it as blocks, one per
p, so a child S is scanned over its |S| blocks rather than over the whole
group. Point c's keys over block p are the row stab[coset[c, p]]. This is the
first step of Linton's stabilizer-chain search for the smallest image of a
set. It needs a transitive group; coset_tables refuses any other.

The minimal representatives form a tree: a child adds one line past its
parent's last. One walker, _walk, visits it depth first from lex-sorted
roots (orderly generation in the sense of Read and McKay). Each node holds
one array, its set's keys over every block, and a child's is its parent's
plus one column, its own line's, rather than a fresh sum. In process it
walks the whole tree from {line 1}; a pool runs it level by level, each
task a slice of one level's parents cut one level below them. Every node
runs one scan rule, _scan, and each record keeps a few of the rows that
fix its set, which seed the certificate search of graphs.

Those rows also prune the walk. If g fixes a parent P and sends a
candidate c to a smaller line, then g maps P + {c} onto P + {g(c)}, and
g(c) is not in P, so the image is lex-smaller: P + {c} is not minimal and
its scan would reject it. A node therefore skips, before summing any
keys, every candidate that one of its own kept rows sends to a smaller
line. The rule drops only children the scan rejects, so the records,
their orbit sizes and their rows stay the same. Read ("Every one a
winner", Ann. Discrete Math. 2, 1978) and McKay ("Isomorph-free
exhaustive generation", J. Algorithms 26, 1998) use the same argument.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
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
    """Sorted 1-based line numbers of a bitmask; ValueError outside 0..FULL_MASK."""
    return tuple(i + 1 for i in _checked_bits(mask, LINE_COUNT))


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


def _checked_bits(mask: int, degree: int) -> tuple[int, ...]:
    """_bits of a mask of points 0..degree - 1; ValueError for any other."""
    if mask < 0 or mask >> degree:
        raise ValueError(f"mask out of range: {mask}")
    return _bits(mask)


def _unrev(key: int, degree: int) -> int:
    mask = 0
    for j in _bits(key):
        mask |= 1 << (degree - 1 - j)
    return mask


def _set_keys(idx: Sequence[int], stab: np.ndarray, coset: np.ndarray) -> np.ndarray:
    """The keys of the set of points idx over every block of the tables:
    row p is the set's keys over block p, summed from its points' rows.
    It adds one point's column at a time: one gather of every column and a
    sum over it took about 1.7 times as long at 13 points."""
    keys = np.zeros((len(coset), stab.shape[1]), np.int32)
    for c in idx:
        keys += stab[coset[c]]
    return keys


def _orbit_keys(mask: int, group: PermutationGroup) -> np.ndarray:
    """The key of the mask's image under every element, in block order,
    the identity's first."""
    return _set_keys(_checked_bits(mask, group.degree), *group.coset_tables).ravel()


def orbit_size(mask: int, group: PermutationGroup) -> int:
    """Orbit length via the stabilizer count over the whole group."""
    keys = _orbit_keys(mask, group)
    stab = int(np.count_nonzero(keys == keys[0]))
    return group.order // stab


def orbit_masks(mask: int, group: PermutationGroup) -> list[int]:
    """Every member of the orbit, lex-sorted. Costly; meant for spot checks."""
    keys = np.unique(_orbit_keys(mask, group))
    return [_unrev(int(k), group.degree) for k in keys[::-1]]


# Stabilizer rows kept per record: seeds for graphs.canonical_certificate.
# Over the 5486 graphs the search ran 24533 refinements unseeded, 15748
# with the first 2 rows, 14710 with 4 and 13675 with 8, and 12859 with the
# whole stabilizer. Timed in one process, graphs and certificates took
# 0.95 s unseeded, 0.75 s with 2 rows, 0.72 s with 4 and 0.70 s with 8:
# past 4, twice the rows held on the records buy no clear time.
# The walk's pruning reads the same rows: of the 8011 candidates the serial
# walk's scans reject, the rows skip 3056 with 1 row kept, 4750 with 2,
# 5169 with 4 and 5502 with 8.
STABILIZER_SEEDS = 4


def _scan(
    idx: tuple[int, ...],
    keys: np.ndarray,
    stab: np.ndarray,
    coset: np.ndarray,
    seeds: tuple[int, ...],
) -> tuple[list[int], list[int], list[int], list[tuple[int, ...]]]:
    """The scan rule of one nonempty minimal parent with line indices idx.

    stab and coset are PermutationGroup.coset_tables. seeds are rows of
    their table, other than the identity, that fix the parent's set. A
    candidate c past the parent's last line that one of them sends to a
    smaller line is skipped before any key is summed: that row g maps the
    child onto P + {g(c)}, which is lex-smaller, so the child is not
    minimal and the scan would reject it. For row r = p * B + h that test
    reads stab[coset[c, p], h] > stab[c, 0].

    keys[p] holds the parent's keys over block p, for every p. Every
    remaining candidate c scans the blocks of the parent's lines, where
    keys[idx] gains c's column, and block c, where keys[c] gains the top
    key bit, since coset[c, c] = 0 and every row of block c sends c to
    line 1; block c is compared less that bit, against the identity's key
    less it. A candidate is kept when no row of either part beats the
    identity's key (the first row of block 0). The rows that tie it fix the
    candidate's set: their count is its stabilizer order, and the first
    STABILIZER_SEEDS of them past the identity are kept as table row
    numbers. Returns the scanned candidate lines, the positions among them
    of the kept ones, their stabilizer counts and their stabilizer rows.
    """
    first_cand = idx[-1] + 1
    block = stab.shape[1]
    cands = np.arange(first_cand, len(coset))
    if seeds:
        p, h = np.divmod(seeds, block)
        images = stab[coset[first_cand:, p], h]  # [candidate, seed]
        cands = cands[(images <= stab[first_cand:, :1]).all(axis=1)]
    cand_keys = stab[coset[cands[:, None], idx]]  # one gather, then the sum in place
    cand_keys += keys[list(idx)]
    cand_keys = cand_keys.reshape(len(cands), len(idx) * block)
    own_keys = cand_keys[:, 0]
    new_block = keys[cands]  # block c's keys, less the top bit that each of them holds
    new_own = own_keys - stab[0, 0]
    keep = (cand_keys.max(axis=1) == own_keys) & (new_block.max(axis=1) <= new_own)
    kept = np.flatnonzero(keep).tolist()
    lines = cands.tolist()
    stabs = []
    rows = []
    base = len(idx) * block
    for k in kept:
        ties = np.flatnonzero(cand_keys[k] == own_keys[k])  # ties[0] is the identity
        new_ties = np.flatnonzero(new_block[k] == new_own[k])
        stabs.append(len(ties) + len(new_ties))
        first = np.concatenate((ties[: STABILIZER_SEEDS + 1], new_ties[:STABILIZER_SEEDS] + base))
        rows.append(_stabilizer_rows(idx + (lines[k],), first, block))
    return lines, kept, stabs, rows


def _stabilizer_rows(idx: tuple[int, ...], ties: np.ndarray, block: int) -> tuple[int, ...]:
    """The table rows of ties[1 : STABILIZER_SEEDS + 1], where ties are the
    sorted positions, identity first, of the rows whose keys over the
    blocks of idx, laid out block after block, tie the identity's."""
    return tuple(idx[j // block] * block + j % block for j in ties[1 : STABILIZER_SEEDS + 1].tolist())


class WorkerError(RuntimeError):
    """A pool cannot fork, a task raised, or a worker died; the message names why."""


# The group's coset_tables in a pool worker, set by _pool_init; None in the parent.
_worker_tables: tuple[np.ndarray, np.ndarray] | None = None


def _pool_init(stab: np.ndarray, coset: np.ndarray) -> None:
    global _worker_tables
    _worker_tables = stab, coset


def _pool_extend(parents: Sequence[int]) -> list[OrbitRecord]:
    return _walk(parents, *_worker_tables, parents[0].bit_count() + 1)


@dataclass(frozen=True)
class OrbitRecord:
    """One orbit: its lex-least arrangement and the orbit length.

    stabilizer holds up to STABILIZER_SEEDS rows of the table that the
    enumerating group's coset_tables lay out (row p * B + h is t_p followed
    by h), other than the identity, whose elements map the arrangement
    onto itself; empty when the record was not made by the walker. It is a
    hint for the certificate search, so equality and output ignore it.
    """

    mask: int
    orbit_size: int
    stabilizer: tuple[int, ...] = field(default=(), compare=False, repr=False)

    @property
    def n(self) -> int:
        return self.mask.bit_count()

    @property
    def min_rep(self) -> tuple[int, ...]:
        return lines_of_mask(self.mask)

    def as_dict(self) -> dict:
        return {"n": self.n, "min_rep": list(self.min_rep), "orbit_size": self.orbit_size}


def _walk(
    parents: Sequence[int], stab: np.ndarray, coset: np.ndarray, limit: int
) -> list[OrbitRecord]:
    """Descendants with at most limit lines of lex-sorted minimal parents
    of one size, sorted by (size, lex).

    stab and coset are PermutationGroup.coset_tables: point c's keys over
    block p are stab[coset[c, p]]. A node's one array of state is its
    set's keys over every block, of shape (degree, B): row p sums its
    lines' keys over block p. Every node gets it on one path when popped,
    as the array it was pushed with plus its own last line's column. A
    root is pushed with the sum over its other lines, which a root right
    after a sibling shares rather than sums again, and its stabilizer
    rows are the first STABILIZER_SEEDS ties past the identity in its keys
    over its own blocks, the rows the walk from {line 1} gives its record;
    a child is pushed with its parent's array and its record's rows. _scan
    prunes the node's candidates by those rows. Pending siblings share
    their parent's array, so the stack holds about one array per level, not
    one per pending sibling (over the whole tree, a traced peak of 5.6 MB).
    Preorder is lex order within a level, since a child keeps its parent as
    its prefix. A parent without line 1, the empty one included, raises
    ValueError: only nonempty minimal parents have their children in these
    blocks.
    """
    degree, block = stab.shape
    order = degree * block
    levels: list[list[OrbitRecord]] = [[] for _ in range(limit + 1)]
    others = None
    for root in parents:
        idx = _bits(root)
        if not idx or idx[0] != 0:
            raise ValueError(f"{list(lines_of_mask(root))} lacks line 1: not a nonempty minimal parent")
        if len(idx) >= limit or idx[-1] + 1 >= degree:
            continue
        if idx[:-1] != others:  # a root after a sibling reuses its sum
            others, other_keys = idx[:-1], _set_keys(idx[:-1], stab, coset)
        stack = [(root, idx, other_keys, None)]
        while stack:
            mask, idx, parent_keys, seeds = stack.pop()
            keys = stab[coset[idx[-1]]]  # its last line's column, a fresh array
            keys += parent_keys
            if seeds is None:  # a root: its rows are the first ties in its own keys
                seeds = _stabilizer_rows(idx, np.flatnonzero(keys[list(idx)].ravel() == keys[0, 0]), block)
            lines, kept, stabs, rows = _scan(idx, keys, stab, coset, seeds)
            n = len(idx) + 1
            visit = []
            for k, count, child_seeds in zip(kept, stabs, rows):
                line = lines[k]
                child = mask | (1 << line)
                levels[n].append(OrbitRecord(child, order // count, child_seeds))
                if n < limit and line + 1 < degree:
                    visit.append((child, idx + (line,), keys, child_seeds))
            stack.extend(reversed(visit))
    return [record for level in levels for record in level]


def enumerate_all(
    group: PermutationGroup, max_n: int | None = None, workers: int = 1
) -> list[OrbitRecord]:
    """Every orbit as an OrbitRecord, sorted by (size, lex of representative).

    Minimal representatives and their orbit lengths come from the extension
    tree rooted at {line 1}, up to max_n lines, all by one walker, _walk.
    One worker walks the whole tree depth first in this process, each child
    adding its own line's column to its parent's keys. Workers > 1 fork one
    process pool and build it level by level: each level maps over the pool
    as that many contiguous slices of the parents, in order, and each task
    is the walk from its slice cut one level below it. Both give the same
    records in the same order, for any worker count. Workers < 1 raises
    ValueError. Workers > 1 without the fork start method, an exception in
    a pool task, or a worker that dies raises WorkerError.
    """
    limit = group.degree if max_n is None else max_n
    if not 0 <= limit <= group.degree:
        raise ValueError(f"max_n out of range: {max_n}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1: {workers}")
    # coset_tables admits only a transitive group: level 1 is one orbit, {line 1}.
    records = [OrbitRecord(0, 1), OrbitRecord(1, group.degree)][: limit + 1]
    pool = _start_pool(group, workers)
    if pool is None:
        return records + _walk([1], *group.coset_tables, limit)
    parents = [1]
    try:
        for _ in range(limit - 1):
            size = -(-len(parents) // workers)
            slices = [parents[i : i + size] for i in range(0, len(parents), size)]
            try:
                parts = list(pool.map(_pool_extend, slices))
            except Exception as exc:  # a task raised, or a worker died
                detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
                raise WorkerError(f"a pool worker failed: {detail}") from exc
            children = [record for part in parts for record in part]
            if not children:
                break
            records.extend(children)
            parents = [record.mask for record in children]
    finally:
        pool.shutdown()
    return records


def _start_pool(group: PermutationGroup, workers: int) -> ProcessPoolExecutor | None:
    """Forked pool whose workers take the group's coset_tables (213 KB
    for W(E6)) from their initializer, inherited under fork rather than
    pickled; None for in-process work. More than one worker without fork
    raises WorkerError.
    """
    if workers <= 1:
        return None
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError as exc:
        raise WorkerError(
            f"{workers} workers need the fork start method, which this platform lacks"
        ) from exc
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=ctx,
        initializer=_pool_init,
        initargs=group.coset_tables,
    )
