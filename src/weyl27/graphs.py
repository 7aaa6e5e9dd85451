"""Combinatorial types of arrangements as type keys and canonical graph
certificates.

Two arrangements have the same combinatorial type when some bijection of
their lines preserves the intersection form. With all self-intersections
fixed at -1 and no triple points, that is exactly isomorphism of the 0/1
intersection graph, so each type gets a string and types compare by string
equality. A canonical certificate names any graph's type. Over many
records a cheaper key comes first: a hash of three rounds of colour
refinement, which isomorphic graphs share. A record whose key no other
record shares is alone in its type and needs no certificate, so only the
records of shared keys are searched (McKay and Piperno use vertex
invariants the same way, to avoid canonical labelling).

The certificate comes from a small individualization-refinement search:
refine an ordered partition to equitability, branch on the first
non-singleton cell, and keep the lexicographically smallest adjacency
bitstring over the discrete partitions reached. The certificate is the
minimum over all leaves of that search tree, so the search may skip any
leaf it can prove no smaller. It skips the subtrees that an automorphism
already found maps onto explored ones: siblings in one orbit of the
automorphisms fixing the current prefix, and, when a leaf's string ties the
best one, everything up to the node where the two paths part. A tie is
itself the automorphism test: two leaves spell the same string exactly
when the map between them, position by position, preserves adjacency.
Automorphisms known in advance, here the set stabilizer rows the orbit
walk keeps, seed that pruning from the root (McKay and Piperno, "Practical
graph isomorphism, II", J. Symbolic Comput. 2014). Cells and splitters are
vertex bitmasks, so refining by one vertex is a mask test per cell, and
refinement stops queueing the last part of every split, which never splits
anything. Graphs here have at most 27 vertices.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from . import invariants as _invariants
from .lines import LINE_COUNT, PermutationGroup, build_line_system, weyl_group
from .orbits import OrbitRecord, _bits, _checked_bits


def intersection_graph(mask: int) -> tuple[int, ...]:
    """Neighbour masks of the graph on the lines of the arrangement, edge
    iff the lines meet.

    Vertex k is the k-th line of the arrangement in increasing number order.
    Row k is that line's neighbour mask cut to the arrangement, with each
    line's bit moved to the line's vertex number; the rows are symmetric and
    loop-free because the line system's are. A mask outside 0..2**27 - 1
    raises ValueError.
    """
    lines = _checked_bits(mask, LINE_COUNT)
    rank = dict(zip(lines, _POWERS)).__getitem__
    neighbours = build_line_system().neighbour_masks
    return tuple(sum(map(rank, _bits(neighbours[i] & mask))) for i in lines)


# Records per numpy pass in stabilizer_automorphisms and record_types: a
# pass holds a few int64 arrays of 27 columns per stabilizer row, about
# 1 MB, or per record, well under that.
_DECODE_CHUNK = 256


def stabilizer_automorphisms(
    records: Sequence[OrbitRecord], group: PermutationGroup
) -> Iterator[list[list[int]]]:
    """Each record's stabilizer rows as automorphisms of its intersection
    graph, record by record.

    Rows number the table of group.coset_tables: row p * B + h is t_p
    followed by h, so it sends line i to elements[h, coset[i, p]], two
    integer lookups. Restricted to the arrangement S
    and relabelled to vertex order, a row that maps S onto itself is an
    automorphism of G[S], since the group preserves which lines meet. Rows
    that fix every vertex are dropped, and so is any row that does not map
    S onto itself, which only a record made over another table can hold.
    The rows are decoded in numpy, a bounded chunk of records at a time.
    """
    _, coset = group.coset_tables
    block = group.order // group.degree
    points = np.arange(group.degree)
    for start in range(0, len(records), _DECODE_CHUNK):
        part = records[start : start + _DECODE_CHUNK]
        rows = [row for r in part for row in r.stabilizer]
        owner = np.repeat(np.arange(len(part)), [len(r.stabilizer) for r in part])
        inside = np.array([r.mask for r in part], dtype=np.int64)[:, None] >> points & 1
        # vertex[k, i]: the vertex of line i in row k's arrangement, or -1
        vertex = np.where(inside, inside.cumsum(axis=1) - 1, -1)[owner]
        p, h = np.divmod(np.array(rows, dtype=np.intp), block)
        images = group.elements[h[:, None], coset.T[p]]
        mapped = np.take_along_axis(vertex, images, axis=1)
        on = vertex >= 0
        ok = ((mapped >= 0) | ~on).all(axis=1) & ((mapped != vertex) & on).any(axis=1)
        perms: list[list[list[int]]] = [[] for _ in part]
        flat = iter(mapped[ok][on[ok]].tolist())
        for k, n in zip(owner[ok].tolist(), on[ok].sum(axis=1).tolist()):
            perms[k].append(list(islice(flat, n)))
        yield from perms


def record_certificates(records: Sequence[OrbitRecord], group: PermutationGroup) -> list[str]:
    """canonical_certificate of each record's graph, in order, seeded with
    the stabilizer_automorphisms of its rows."""
    return [
        canonical_certificate(intersection_graph(r.mask), seeds)
        for r, seeds in zip(records, stabilizer_automorphisms(records, group))
    ]


def record_types(records: Sequence[OrbitRecord], group: PermutationGroup) -> list[str]:
    """A type string for each record, in order: two records get equal
    strings iff their intersection graphs are isomorphic.

    Records whose _type_keys key another record shares get their
    record_certificates certificate, seeded from its stabilizer rows. Any other
    record is alone in its type and gets "<n>~<key in hex>", which no
    certificate ("<n>:<hex>") equals. So every type of more than one record
    is named by its certificate.
    """
    points = np.arange(LINE_COUNT)
    adjacency = np.array(build_line_system().neighbour_masks, dtype=np.int64)[:, None] >> points & 1
    keys: list[int] = []
    for start in range(0, len(records), _DECODE_CHUNK):
        masks = np.array([r.mask for r in records[start : start + _DECODE_CHUNK]], dtype=np.int64)
        keys += _type_keys(masks[:, None] >> points & 1, adjacency).tolist()
    counts = Counter(keys)
    types = [f"{r.n}~{key % 2**64:016x}" for r, key in zip(records, keys)]
    shared = [i for i, key in enumerate(keys) if counts[key] > 1]
    for i, cert in zip(shared, record_certificates([records[i] for i in shared], group)):
        types[i] = cert
    return types


# Rounds of colour refinement in a type key. On the 5486 records, 2 rounds
# leave 708 records whose key another record shares, 3 leave 266 and 4
# leave 240, against 4 in the 2 types of two records.
_KEY_ROUNDS = 3
# Odd multipliers of the key's hashes (those of splitmix64), as int64.
_MIX = np.array(
    [0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 0x9E3779B97F4A7C15], np.uint64
).view(np.int64)


def _scramble(x: np.ndarray) -> np.ndarray:
    """A fixed mixing map of int64 arrays onto 0..2**63 - 1 that sends 0
    to 0; every product wraps."""
    x = x * _MIX[0]
    x ^= x >> 31
    x = x * _MIX[1]
    x ^= x >> 29
    return x & np.int64(2**63 - 1)


def _type_keys(members: np.ndarray, adjacency: np.ndarray) -> np.ndarray:
    """One int64 key per row of the 0/1 int64 matrix members: isomorphic
    induced subgraphs of the graph with 0/1 int64 adjacency matrix
    adjacency get equal keys.

    Each row's members start with colour 1. A round gives each member a
    scramble of its colour and the wrapping sum of its neighbours'
    scrambled colours among the members; the rest keep 0. The sum reads
    the neighbours' colours as a multiset, so every colour, and the row's
    sorted colours, depend only on the isomorphism class. Colours are
    never negative, so sorting puts the non-members' zeros first. The
    sorted row is then read as the digits of one wrapping number, most
    significant first, where leading zeros change nothing; the member
    count is its last digit. So a row's key is also that of the graph cut
    to its members, in any vertex order.
    """
    colours = members
    for _ in range(_KEY_ROUNDS):
        colours = _scramble(_scramble(colours) @ adjacency ^ colours * _MIX[2]) * members
    colours = np.sort(colours, axis=1)
    key = np.zeros(len(colours), np.int64)
    for digit in colours.T:
        key = key * _MIX[2] + digit
    return key * _MIX[2] + members.sum(axis=1)


_POWERS = tuple(1 << k for k in range(LINE_COUNT))


def _refine(adj: Sequence[int], cells: list[int], splitter: int) -> list[int]:
    """Coarsest equitable refinement of an ordered partition, in place.

    cells is a list of vertex masks. Each splitter mask splits every cell
    by the number of neighbours its vertices have in the splitter, into
    parts ordered by that count; the parts are queued as splitters in cell
    order. Only counts and cell positions drive the process, which keeps it
    equivariant under relabeling.

    The input is either the one cell of all vertices with that cell as the
    splitter, or an equitable partition whose cell T was split into {v}
    (the splitter) and the rest R. Every cell of the result is then a
    splitter already applied or a cell whose counts follow from applied
    ones: an untouched cell of the input, and R (counts into T minus counts
    into {v}), by equitability of the input; a part of a split, queued and
    applied. So the result is equitable without a final sweep over all
    cells. For the same reason the last part of a split is not queued: by
    its turn, the split cell (an input cell, or an earlier part, applied
    before its own parts) and the other parts have been applied, so its
    counts are their difference and it would split nothing. Refinement
    also stops once every cell is a single vertex. Neither shortcut changes
    the partitions produced.

    A splitter first adds up the neighbour masks of its vertices as
    bit-sliced counters, so plane j holds the vertices whose count has bit j
    set; a cell splits when some plane cuts it, into the level sets of the
    count in increasing order. A splitter of one vertex w has the single
    plane N(w), and splits cell c into c minus N(w), then c & N(w).
    """
    n = len(adj)
    pending: list[int] = []
    applied = 0  # pending[:applied] have been applied
    while True:
        members = _bits(splitter)
        planes = [adj[members[0]]]
        for w in members[1:]:
            carry = adj[w]
            j = 0
            for plane in planes:
                planes[j] = plane ^ carry
                carry &= plane
                if not carry:
                    break
                j += 1
            else:
                planes.append(carry)
        splits = []
        for i, c in enumerate(cells):
            if c & (c - 1):
                for plane in planes:
                    x = c & plane
                    if x and x != c:
                        break
                else:
                    continue
                parts = [c]
                for plane in reversed(planes):
                    finer = []
                    for part in parts:
                        high = part & plane
                        if high != part:
                            finer.append(part ^ high)
                        if high:
                            finer.append(high)
                    parts = finer
                splits.append((i, parts))
        if splits:
            for i, parts in reversed(splits):
                cells[i : i + 1] = parts
            if len(cells) == n:
                return cells
            for _, parts in splits:
                pending.extend(parts[:-1])
        if applied == len(pending):
            return cells
        splitter = pending[applied]
        applied += 1


def _canonical_leaf(
    adj: Sequence[int], automorphisms: Sequence[Sequence[int]] = ()
) -> tuple[list[int], int]:
    """A discrete partition (singleton masks in order) whose adjacency
    string is the least over the search tree, and that string.

    Every leaf is judged by its string alone. A string below the best one
    makes the leaf the best. A string equal to it is the automorphism test:
    the map from the best leaf's vertex at each position to this leaf's
    preserves adjacency exactly when the two strings agree. The map is kept
    with the vertices it moves, as the seeds are, and the search returns to
    the node where the two leaves' paths part: the automorphism fixes that
    node's prefix and maps the explored subtree holding the best leaf onto
    the current one. Every automorphism found fixes the prefix of each
    node still open, so a node filters its parent's list once, by the
    vertices it fixes, and adds the automorphisms found below it. The
    root's list starts with the given automorphisms, so the search skips
    what they map onto explored subtrees without first finding them at a
    leaf.
    """
    n = len(adj)
    if n == 0:
        return [], 0
    path: list[int] = []  # vertices individualized on the way down
    best_cells: list[int] = []
    best_string = 1 << n * (n - 1) // 2  # above every string
    best_path: list[int] = []
    autos: list[tuple[list[int], int]] = []  # (permutation, moved mask)
    seeds = [(perm, sum(1 << v for v in range(n) if perm[v] != v)) for perm in automorphisms]

    def leaf(cells: list[int]) -> int:
        nonlocal best_cells, best_string, best_path
        string = _adjacency_string(adj, cells)
        if string < best_string:
            best_cells, best_string, best_path = cells, string, path[:]
        elif string == best_string:
            perm = list(range(n))
            moved = 0
            for b, c in zip(best_cells, cells):
                if b != c:
                    moved |= b
                    perm[b.bit_length() - 1] = c.bit_length() - 1
            autos.append((perm, moved))
            j = 0
            while path[j] == best_path[j]:
                j += 1
            return j
        return len(path)

    def search(cells: list[int], k: int, gens: list) -> int:
        """Explore below an equitable partition whose first k cells are
        singletons; return the depth the search should resume at."""
        if len(cells) == n:
            return leaf(cells)
        fixed = 0
        while not cells[k] & (cells[k] - 1):
            fixed |= cells[k]
            k += 1
        if fixed and gens:
            gens = [(p, moved) for p, moved in gens if not moved & fixed]
        depth = len(path)
        found = len(autos)
        target = cells[k]
        head, tail = cells[:k], cells[k + 1 :]
        explored = 0  # closed under gens
        for v in _bits(target):
            if explored >> v & 1:
                continue
            b = 1 << v
            path.append(v)
            back = search(_refine(adj, head + [b, target ^ b] + tail, b), k, gens)
            path.pop()
            if len(autos) > found:
                gens = gens + autos[found:]
                found = len(autos)
            if back < depth:
                return back
            explored |= b
            if gens:
                stack = list(_bits(explored))
                while stack:
                    x = stack.pop()
                    for perm, _ in gens:
                        y = perm[x]
                        if not explored >> y & 1:
                            explored |= 1 << y
                            stack.append(y)
        return depth

    full = (1 << n) - 1
    search(_refine(adj, [full], full), 0, seeds)
    return best_cells, best_string


def _adjacency_string(adj: Sequence[int], cells: Sequence[int]) -> int:
    """Upper-triangular adjacency bits under the order of a discrete
    partition, column-major, as one integer (first bit most significant).

    Column k holds the k bits between the k-th vertex and those before it.
    """
    n = len(cells)
    order = [c.bit_length() - 1 for c in cells]
    position = sorted(range(n), key=order.__getitem__)
    weight = [1 << (n - 1 - k) for k in position].__getitem__
    string = 0
    for k, v in enumerate(order):
        string = string << k | sum(map(weight, _bits(adj[v]))) >> (n - k)
    return string


def canonical_certificate(
    adj: Sequence[int], automorphisms: Sequence[Sequence[int]] = ()
) -> str:
    """Certificate string "<n>:<hex>" of the simple graph on n = len(adj)
    vertices whose vertex v has neighbour mask adj[v]; equal certificates
    iff isomorphic graphs.

    The hex packs the canonical adjacency string MSB-first, zero-padded to
    whole bytes. automorphisms, vertex permutations of the graph, seed the
    search's pruning: they change how much of the search runs, never the
    string. A permutation that is no automorphism can change it.
    """
    n = len(adj)
    bits = n * (n - 1) // 2
    size = (bits + 7) // 8
    _, string = _canonical_leaf(adj, automorphisms)
    return f"{n}:{(string << (8 * size - bits)).to_bytes(size, 'big').hex()}"


@dataclass(frozen=True)
class TypeFiber:
    """Orbits sharing one combinatorial type, with their lattice invariants."""

    certificate: str
    members: tuple[OrbitRecord, ...]
    reports: tuple[_invariants.InvariantReport, ...]
    distinguished_by: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "certificate": self.certificate,
            "members": [list(r.min_rep) for r in self.members],
            "orbit_sizes": [r.orbit_size for r in self.members],
            "reports": [rep.as_dict() for rep in self.reports],
            "distinguished_by": list(self.distinguished_by),
            "is_zariski_tuple": len(self.members) > 1,
        }


def classify_types(
    records: Sequence[OrbitRecord], types: Sequence[str] | None = None
) -> dict[str, list[OrbitRecord]]:
    """Group orbits by combinatorial type, preserving record order, each
    fiber under its type string.

    Precomputed type strings, one per record in order, can be passed:
    record_types' type keys or certificates, or certificates alone; a list
    of another length raises ValueError. Otherwise every record gets its
    certificate, with its stabilizer rows read as rows of weyl_group()'s
    table.
    """
    if types is None:
        types = record_certificates(records, weyl_group())
    fibers: dict[str, list[OrbitRecord]] = {}
    for record, name in zip(records, types, strict=True):
        fibers.setdefault(name, []).append(record)
    return fibers


_REPORT_FIELDS = ("span_rank", "perp_rank", "perp_parity", "h1_torsion", "h1_free_rank")


def find_zariski_pairs(
    records: Sequence[OrbitRecord], types: Sequence[str] | None = None
) -> list[TypeFiber]:
    """Fibers of size > 1 of the type map, with the invariants separating them.

    types is as for classify_types; from record_types, every fiber of size
    > 1 is named by its certificate. distinguished_by lists every report
    field that is not constant across the fiber; a genuine pair of distinct
    embeddings must have at least one.
    """
    fibers = classify_types(records, types)
    out: list[TypeFiber] = []
    for cert, members in fibers.items():
        if len(members) < 2:
            continue
        reports = tuple(_invariants.invariant_report(r.mask) for r in members)
        differing = tuple(
            name
            for name in _REPORT_FIELDS
            if len({getattr(rep, name) for rep in reports}) > 1
        )
        out.append(
            TypeFiber(
                certificate=cert,
                members=tuple(members),
                reports=reports,
                distinguished_by=differing,
            )
        )
    return out
