"""An oracle that starts from a cubic surface rather than from I_{1,6}.

The Fermat cubic x0^3 + x1^3 + x2^3 + x3^3 = 0 holds the 27 lines
x_i + a*x_j = 0 = x_k + b*x_l, one for each pairing {i, j}, {k, l} of the
coordinates and each pair a, b of cube roots of unity: on such a line
x_i^3 = -a^3 x_j^3 = -x_j^3, and likewise for x_k, x_l. Two lines meet
when their four linear forms are dependent, that is when the 4x4
determinant of their coefficients is 0. The coefficients lie in Z[w],
w^2 = -1 - w, so every determinant is exact.

The Fermat cubic has 18 Eckardt points and is not general, but its
intersection graph and its Pic lattice are those of every smooth cubic,
and that is all these tests read. From the package they take only the
neighbour masks the graph is compared with.
"""

from fractions import Fraction
from itertools import combinations, permutations

from oracles import find_isomorphism, stable_colours
from weyl27.lines import build_line_system

# p + q*w as the pair (p, q)
ZERO, ONE, W = (0, 0), (1, 0), (0, 1)


def mul(x, y):
    (p, q), (r, s) = x, y
    return (p * r - q * s, p * s + q * r - q * s)


CUBE_ROOTS = (ONE, W, mul(W, W))
PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def form(i, j, a):
    """Coefficients of x_i + a*x_j."""
    coefficients = [ZERO] * 4
    coefficients[i], coefficients[j] = ONE, a
    return coefficients


def fermat_lines():
    """The 27 lines, each as the pair of forms that cut it out."""
    return [
        (form(i, j, a), form(k, l, b))
        for (i, j), (k, l) in PAIRINGS
        for a in CUBE_ROOTS
        for b in CUBE_ROOTS
    ]


def _sign(perm):
    return (-1) ** sum(perm[s] > perm[t] for s, t in combinations(range(len(perm)), 2))


SIGNED_PERMUTATIONS = [(perm, _sign(perm)) for perm in permutations(range(4))]


def det(rows):
    """Leibniz expansion of a 4x4 determinant over Z[w]."""
    p = q = 0
    for perm, sign in SIGNED_PERMUTATIONS:
        term = ONE
        for row, column in zip(rows, perm):
            term = mul(term, row[column])
        p += sign * term[0]
        q += sign * term[1]
    return (p, q)


def fermat_graph(lines):
    """Neighbour masks, bit v of row u set when lines u and v meet."""
    adj = [0] * len(lines)
    for u, v in combinations(range(len(lines)), 2):
        if det([*lines[u], *lines[v]]) == ZERO:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


def inertia(matrix):
    """(positive, negative) entries of a diagonal form congruent to the
    symmetric matrix over Q (Sylvester's law of inertia)."""
    a = [[Fraction(x) for x in row] for row in matrix]
    positive = negative = 0
    while a:
        n = len(a)
        p = next((i for i in range(n) if a[i][i]), None)
        if p is None:
            pair = next(((i, j) for i in range(n) for j in range(n) if a[i][j]), None)
            if pair is None:
                break
            # add row and column j to row and column i: a[i][i] becomes 2 a[i][j]
            i, j = pair
            for k in range(n):
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            p = i
        d = a[p][p]
        positive += d > 0
        negative += d < 0
        rest = [k for k in range(n) if k != p]
        a = [[a[r][c] - a[r][p] * a[p][c] / d for c in rest] for r in rest]
    return positive, negative


LINES = fermat_lines()
GRAPH = fermat_graph(LINES)


def isomorphism_to_package(adj):
    package = list(build_line_system().neighbour_masks)
    names = {}
    return find_isomorphism(adj, stable_colours(adj, names), package, stable_colours(package, names))


def test_the_lines_lie_on_the_surface():
    # a, b run over the three cube roots of unity
    assert [mul(a, mul(a, a)) for a in CUBE_ROOTS] == [ONE] * 3
    assert len(set(CUBE_ROOTS)) == 3
    assert len(LINES) == 27


def test_every_line_meets_ten_others_in_45_triangles():
    assert [row.bit_count() for row in GRAPH] == [10] * 27
    triangles = [
        t
        for t in combinations(range(27), 3)
        if all(GRAPH[u] >> v & 1 for u, v in combinations(t, 2))
    ]
    assert len(triangles) == 45


def test_fermat_graph_is_the_package_graph():
    image = isomorphism_to_package(GRAPH)
    assert image is not None and sorted(image) == list(range(27))
    package = build_line_system().neighbour_masks
    assert all(
        (GRAPH[u] >> v & 1) == (package[image[u]] >> image[v] & 1)
        for u in range(27)
        for v in range(27)
    )


def test_a_flipped_intersection_has_no_isomorphism():
    flipped = list(GRAPH)
    flipped[0] ^= 1 << 26
    flipped[26] ^= 1
    assert isomorphism_to_package(flipped) is None


def test_gram_matrix_has_rank_7_and_signature_1_6():
    # self-intersection -1, 1 for lines that meet, 0 for skew lines
    gram = [[-1 if u == v else GRAPH[u] >> v & 1 for v in range(27)] for u in range(27)]
    assert inertia(gram) == (1, 6)  # rank 1 + 6 = 7
