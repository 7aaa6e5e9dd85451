"""Test oracles: plain, definitional forms of what the package computes fast,
such as minimality by a scan over every group element. Arrangements are
bitmasks, bit i for line i + 1."""

from collections import defaultdict

import numpy as np

from weyl27.lattice import inner_product
from weyl27.lines import AMBIENT, LINE_COUNT, RANK, build_line_system


def indices(mask):
    """0-based indices of the set bits, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def apply_perm(mask, perm):
    """Image of an arrangement under a permutation of the line indices."""
    out = 0
    for i in indices(mask):
        out |= 1 << perm[i]
    return out


def image_rows(mask, group):
    """The image of the mask under every group element, one row per element:
    its line indices, sorted, as Python lists (which compare in lex order)."""
    return np.sort(group.elements[:, indices(mask)], axis=1).tolist()


def lex_less(a, b):
    """Lex order of equal-size arrangements as sorted index strings."""
    if a.bit_count() != b.bit_count():
        raise ValueError("lex order is defined between equal-size arrangements")
    return indices(a) < indices(b)


def rev_key(mask, degree=LINE_COUNT):
    """Bit-reversed encoding: a bigger key is a lex-smaller arrangement."""
    return sum(1 << (degree - 1 - i) for i in indices(mask))


def group_table(group):
    """Every element of the group as a row of point images, built from
    group.elements alone, in the order of the rows the package's coset
    tables number: block p, rows p * B to (p + 1) * B - 1 with
    B = order // degree, holds t_p followed by h, for h running through the
    elements that fix point 0 in table order and t_p the first element in
    table order that sends p to point 0."""
    el = group.elements
    fixing = el[el[:, 0] == 0]
    blocks = []
    for p in range(group.degree):
        t = el[np.flatnonzero(el[:, p] == 0)[0]]
        blocks.append(fixing[:, t])  # point c goes to t(c), then on through h
    return np.concatenate(blocks)


def table_keys(mask, table):
    """rev_key of the mask's image under every row of a group_table."""
    degree = table.shape[1]
    images = table[:, indices(mask)].astype(np.int64)
    return np.left_shift(1, degree - 1 - images).sum(axis=1)


def _image_keys(mask, group):
    """rev_key of the image of the mask under every element of the group."""
    return table_keys(mask, group.elements)


def is_minimal(mask, group):
    """Whether no image of the mask is lex-smaller, over the whole group."""
    return int(_image_keys(mask, group).max()) == rev_key(mask, group.degree)


def minimal_representative(mask, group):
    """Lex-least member of the orbit of the mask."""
    best = int(_image_keys(mask, group).max())
    return sum(1 << (group.degree - 1 - j) for j in indices(best))


def compose(p, q):
    """Right-action composition: apply p first, then q."""
    return tuple(q[i] for i in p)


def invert(p):
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def preserves_pairing(m):
    """Whether the rows of m, the images of the basis, pair as the basis does."""
    return all(
        inner_product(m[i], m[j], AMBIENT) == AMBIENT.gram[i][j]
        for i in range(RANK)
        for j in range(i, RANK)
    )


def line_class(number):
    """Class of the line with the given 1-based number."""
    if not 1 <= number <= LINE_COUNT:
        raise ValueError(f"line number out of range: {number}")
    return build_line_system().classes[number - 1]


def class_vectors(mask):
    """Classes of the arrangement's lines, in increasing line-number order."""
    classes = build_line_system().classes
    return tuple(classes[i] for i in indices(mask))


def is_simple_graph(adj):
    """Whether adj, one neighbour mask per vertex, is a simple undirected
    graph: every row within the vertices, no loops, each edge in both rows."""
    n = len(adj)
    return all(
        0 <= row < 1 << n
        and not row >> v & 1
        and all(adj[w] >> v & 1 for w in indices(row))
        for v, row in enumerate(adj)
    )


def graph_from_edges(n, edges):
    """Neighbour masks of the graph on vertices 0..n-1 with the given edges."""
    adj = [0] * n
    for a, b in edges:
        if a == b or not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"bad edge: {(a, b)}")
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return tuple(adj)


def relabel(adj, perm):
    """Neighbour masks of the graph adj with vertex v renamed perm[v]."""
    if sorted(perm) != list(range(len(adj))):
        raise ValueError(f"not a permutation of the vertices: {perm}")
    out = [0] * len(adj)
    for v, row in enumerate(adj):
        out[perm[v]] = sum(1 << perm[w] for w in indices(row))
    return tuple(out)


def stable_colours(adj, names):
    """1-WL colours of every vertex once no class splits any more.

    A colour is the id that names, shared by every graph, gives the pair
    (previous colour, sorted neighbour colours), starting from the degree.
    Ids depend only on these signatures, so isomorphic graphs get equal
    colour histograms and every isomorphism preserves colours.
    """
    nbrs = [indices(row) for row in adj]
    colours = [names.setdefault(("degree", len(nb)), len(names)) for nb in nbrs]
    while True:
        refined = [
            names.setdefault((colours[v], tuple(sorted(colours[w] for w in nb))), len(names))
            for v, nb in enumerate(nbrs)
        ]
        if len(set(refined)) == len(set(colours)):
            return colours
        colours = refined


def find_isomorphism(a, ca, b, cb):
    """A colour-preserving isomorphism from graph a to graph b as a list
    (vertex of a -> vertex of b), or None when the full search finds none.

    Vertices of a are matched in a fixed order that prefers the vertex
    with most neighbours already matched, then the smallest colour class.
    A candidate in b must have the same colour, be unused and agree on
    adjacency with every pair matched so far.
    """
    n = len(a)
    class_size = defaultdict(int)
    for c in ca:
        class_size[c] += 1
    order, matched = [], 0
    for _ in range(n):
        v = min(
            (v for v in range(n) if not matched >> v & 1),
            key=lambda v: (-(a[v] & matched).bit_count(), class_size[ca[v]], v),
        )
        order.append(v)
        matched |= 1 << v
    candidates = defaultdict(list)
    for w, c in enumerate(cb):
        candidates[c].append(w)
    image = [0] * n

    def extend(k, used):
        if k == n:
            return True
        v = order[k]
        for w in candidates[ca[v]]:
            if used >> w & 1:
                continue
            if all((a[v] >> u & 1) == (b[w] >> image[u] & 1) for u in order[:k]):
                image[v] = w
                if extend(k + 1, used | 1 << w):
                    return True
        return False

    return image if extend(0, 0) else None
