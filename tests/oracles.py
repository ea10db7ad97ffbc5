"""Independent brute-force oracles used only by the test suite."""

import itertools
import math

import numpy as np

from echolab.topology import PersistenceDiagram, PersistencePair


def f2_rank_dense(matrix) -> int:
    """Gaussian elimination over F2 on a dense numpy array."""
    M = np.array(matrix, dtype=np.uint8) % 2
    rows, cols = M.shape
    rank = 0
    pivot_row = 0
    for j in range(cols):
        pivot = None
        for i in range(pivot_row, rows):
            if M[i, j]:
                pivot = i
                break
        if pivot is None:
            continue
        M[[pivot_row, pivot]] = M[[pivot, pivot_row]]
        for i in range(rows):
            if i != pivot_row and M[i, j]:
                M[i] ^= M[pivot_row]
        pivot_row += 1
        rank += 1
    return rank


def brute_force_betti(points, eps, max_dim):
    """Betti numbers of the Rips complex at eps by direct enumeration.

    Builds every simplex up to max_dim from pairwise distances, forms
    dense boundary matrices, and computes nullity(d_k) - rank(d_k+1).
    """
    points = np.asarray(points, dtype=float)
    m = len(points)
    dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    simplices = {0: [(i,) for i in range(m)]}
    for k in range(1, max_dim + 1):
        simplices[k] = [
            s
            for s in itertools.combinations(range(m), k + 1)
            if max(dist[a, b] for a, b in itertools.combinations(s, 2)) <= eps + 1e-12
        ]
    ranks = {}
    for k in range(1, max_dim + 1):
        rows = {s: i for i, s in enumerate(simplices[k - 1])}
        M = np.zeros((len(rows), len(simplices[k])), dtype=np.uint8)
        for j, s in enumerate(simplices[k]):
            for facet in itertools.combinations(s, k):
                M[rows[facet], j] = 1
        ranks[k] = f2_rank_dense(M) if M.size else 0
    ranks[max_dim + 1] = 0
    betti = []
    for k in range(max_dim + 1):
        nullity = len(simplices[k]) - ranks.get(k, 0)
        betti.append(nullity - ranks[k + 1])
    return betti


def persistence_by_column_reduction(filtration, max_eps=None):
    """Persistence pairs by reducing boundary columns in filtration order.

    Degree 0 runs union-find with the elder rule. Each higher simplex's
    boundary, held as a frozenset of facet indices, is reduced by XOR
    against earlier pivot columns until its largest index is a new
    pivot (the facet's class dies here) or the column vanishes (the
    simplex gives birth). Classes still alive get death = infinity,
    flagged truncated when a cutoff is known.
    """
    simplices = filtration.simplices
    if max_eps is None and simplices:
        max_eps = max(s[0] for s in simplices)

    vertex_birth = {}
    for value, dim, verts in simplices:
        if dim == 0:
            vertex_birth[verts[0]] = value
    vertex_ids = {v: i for i, v in enumerate(sorted(vertex_birth))}
    parent = list(range(len(vertex_ids)))
    root_birth = {vertex_ids[v]: vertex_birth[v] for v in vertex_ids}

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    pairs = []
    index_of = {}
    values_of = {}
    positive = {0: {}}
    pivot_cols = {}

    for value, dim, verts in simplices:
        idx = index_of.setdefault(dim, {})
        idx[verts] = len(idx)
        values_of.setdefault(dim, []).append(value)
        if dim == 0:
            positive[0][vertex_ids[verts[0]]] = value
            continue
        if dim == 1:
            i, j = find(vertex_ids[verts[0]]), find(vertex_ids[verts[1]])
            if i != j:
                bi, bj = root_birth[i], root_birth[j]
                young, old = (j, i) if (bj, j) >= (bi, i) else (i, j)
                pairs.append(PersistencePair(0, root_birth[young], value))
                positive[0].pop(young, None)
                parent[young] = old
            else:
                positive.setdefault(1, {})[index_of[1][verts]] = value
            continue
        facet_index = index_of[dim - 1]
        col = frozenset(facet_index[f] for f in itertools.combinations(verts, dim))
        pivots = pivot_cols.setdefault(dim, {})
        while col:
            low = max(col)
            if low not in pivots:
                pivots[low] = col
                positive.get(dim - 1, {}).pop(low, None)
                pairs.append(PersistencePair(dim - 1, values_of[dim - 1][low], value))
                break
            col = col ^ pivots[low]
        if not col:
            positive.setdefault(dim, {})[index_of[dim][verts]] = value

    for dim, alive in positive.items():
        for _, birth in sorted(alive.items()):
            pairs.append(PersistencePair(dim, birth, math.inf, truncated=max_eps is not None))
    pairs.sort(key=lambda p: (p.degree, p.birth, p.death))
    return PersistenceDiagram(pairs=pairs, max_eps=max_eps)


def hexagon_points():
    """Regular hexagon with unit side, vertex i at angle i * 60 degrees."""
    angles = np.arange(6) * np.pi / 3.0
    return np.column_stack([np.cos(angles), np.sin(angles)])


# Row/column orders of the printed boundary tables (0-indexed labels).
HEXAGON_FACES = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 0), (5, 0, 1)]
HEXAGON_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
    (0, 2), (2, 4), (4, 0), (5, 1), (1, 3), (3, 5),
]
HEXAGON_VERTICES = [(i,) for i in range(6)]

HEXAGON_DEL2_TABLE = np.array(
    [
        [1, 0, 0, 0, 0, 1],
        [1, 1, 0, 0, 0, 0],
        [0, 1, 1, 0, 0, 0],
        [0, 0, 1, 1, 0, 0],
        [0, 0, 0, 1, 1, 0],
        [0, 0, 0, 0, 1, 1],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
    ],
    dtype=np.uint8,
)

HEXAGON_DEL1_TABLE = np.array(
    [
        [1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0],
        [1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0],
        [0, 1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1],
        [0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0],
        [0, 0, 0, 0, 1, 1, 0, 0, 0, 1, 0, 1],
    ],
    dtype=np.uint8,
)
