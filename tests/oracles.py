"""Test oracles: plain, definitional forms of what the package computes fast,
such as minimality by a scan over every group element. Arrangements are
bitmasks, bit i for line i + 1."""

import numpy as np

from weyl27.graphs import IntersectionGraph
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


def _image_keys(mask, group):
    """rev_key of the image of the mask under every element of the group."""
    return group.rev_table[:, indices(mask)].sum(axis=1)


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


def preserves_pairing(iso):
    """Whether the images of the basis pair as the basis does."""
    m = iso.matrix
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


def graph_from_edges(n, edges):
    adj = [0] * n
    for a, b in edges:
        if a == b or not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"bad edge: {(a, b)}")
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return IntersectionGraph(n=n, adj=tuple(adj))


def relabel(g, perm):
    """Copy of g with vertex v renamed perm[v]."""
    adj = [0] * g.n
    for v in range(g.n):
        adj[perm[v]] = sum(1 << perm[w] for w in indices(g.adj[v]))
    return IntersectionGraph(n=g.n, adj=tuple(adj))
