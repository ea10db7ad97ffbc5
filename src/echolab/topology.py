"""Persistent homology over F2.

Vietoris-Rips filtrations by clique expansion, Cech membership through
minimum enclosing balls, boundary matrices, the Rips/Cech squeezing
check, and the farthest-point attractor experiment.

Persistence pairs come from cohomology with clearing (Bauer, "Ripser",
arXiv:1908.02518): degree 0 by union-find, then for each degree k the
coboundary columns of the k-simplices, reduced in reverse filtration
order. Simplices that already killed a class one degree down are
skipped, and a column whose earliest coface is still free pairs at
once without being copied. By the duality of de Silva, Morozov and
Vejdemo-Johansson (Inverse Problems 27, 2011) the pairs equal those of
boundary-column reduction. Betti numbers are read off the diagram.

The filtration stays a materialised list of simplices rather than an
implicit enumeration by combinatorial index: every simplex of the top
dimension that does not kill a class is an essential class and is
listed in the diagram, so the top simplices are enumerated anyway, and
one generic path serves Rips and hand-built filtrations alike.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .dynsys import TimeSeries, csv_text
from .errors import DegenerateCloudError, FiltrationOrderError
from .reservoir import make_rng


@dataclass
class PointCloud:
    points: np.ndarray

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if not np.all(np.isfinite(self.points)):
            raise ValueError("points must be finite")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


Simplex = Tuple[int, ...]


@dataclass
class Filtration:
    """Simplices with entry values, sorted by (value, dimension, vertices)."""

    simplices: List[Tuple[float, int, Simplex]]

    def __post_init__(self):
        for value, dim, verts in self.simplices:
            if value < 0:
                raise ValueError("filtration values must be nonnegative")
            if len(verts) != dim + 1:
                raise ValueError(f"simplex {verts} has wrong dimension tag {dim}")

    def sorted_copy(self) -> "Filtration":
        return Filtration(sorted(self.simplices))

    def is_sorted(self) -> bool:
        return all(map(operator.le, self.simplices, itertools.islice(self.simplices, 1, None)))

    def restrict(self, eps: float) -> List[Tuple[float, int, Simplex]]:
        return [s for s in self.simplices if s[0] <= eps]

    def of_dimension(self, k: int, eps: Optional[float] = None) -> List[Simplex]:
        pool = self.simplices if eps is None else self.restrict(eps)
        return [verts for value, dim, verts in pool if dim == k]

    def max_dimension(self) -> int:
        return max((dim for _, dim, _ in self.simplices), default=-1)

    def to_csv(self) -> str:
        lines = ["eps,dim,vertices"]
        for value, dim, verts in self.simplices:
            lines.append(f"{value:.17g},{dim}," + ";".join(str(v) for v in verts))
        return "\n".join(lines) + "\n"


def rips_filtration(cloud: PointCloud, max_dim: int, max_eps: float) -> Filtration:
    """Rips complex by clique expansion up to max_dim.

    A simplex enters at the largest pairwise distance among its
    vertices; only simplices entering at or below max_eps are kept (the
    closed-threshold convention, so equality admits the simplex).
    """
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    if max_eps <= 0:
        raise ValueError("max_eps must be positive")
    pts = cloud.points
    m = len(cloud)
    entries: List[Tuple[float, int, Simplex]] = [(0.0, 0, (i,)) for i in range(m)]
    if m == 0:
        return Filtration([])
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    adj = (dist <= max_eps) & ~np.eye(m, dtype=bool)

    # Simplices by increasing dimension: extend each (k-1)-simplex with
    # common neighbours beyond its largest vertex to avoid duplicates.
    current: List[Tuple[Simplex, float]] = []
    if max_dim >= 1:
        iu, ju = np.nonzero(np.triu(adj, k=1))
        for i, j, v in zip(iu.tolist(), ju.tolist(), dist[iu, ju].tolist()):
            current.append(((i, j), v))
        for verts, value in current:
            entries.append((value, 1, verts))
    if max_dim >= 2:
        # Triangles vectorised per edge over shared neighbours.
        nxt: List[Tuple[Simplex, float]] = []
        for (i, j), value in current:
            common = adj[i] & adj[j]
            common[: j + 1] = False
            ws = np.nonzero(common)[0]
            if ws.size == 0:
                continue
            vals = np.maximum(value, np.maximum(dist[i, ws], dist[j, ws]))
            for w, v in zip(ws.tolist(), vals.tolist()):
                nxt.append(((i, j, w), v))
        for verts, value in nxt:
            entries.append((value, 2, verts))
        current = nxt
    for dim in range(3, max_dim + 1):
        nxt = []
        for verts, value in current:
            common = adj[verts[0]].copy()
            for v in verts[1:]:
                common &= adj[v]
            common[: verts[-1] + 1] = False
            for w in np.nonzero(common)[0].tolist():
                new_value = max(value, float(dist[list(verts), w].max()))
                nxt.append((verts + (w,), new_value))
        for verts, value in nxt:
            entries.append((value, dim, verts))
        current = nxt
    entries.sort()
    return Filtration(entries)


def _ball_from_support(points: np.ndarray) -> Tuple[np.ndarray, float]:
    """Smallest ball with all given points on its boundary (affine hull)."""
    p0 = points[0]
    if len(points) == 1:
        return p0.copy(), 0.0
    V = points[1:] - p0
    # Solve 2 V alpha segments: |c - p_i|^2 = |c - p0|^2 with c = p0 + V^T x.
    G = 2.0 * V @ V.T
    rhs = np.einsum("ij,ij->i", V, V)
    try:
        x = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError:
        x, *_ = np.linalg.lstsq(G, rhs, rcond=None)
    center = p0 + V.T @ x
    radius = float(np.linalg.norm(center - p0))
    return center, radius


def _welzl(points: np.ndarray, order: np.ndarray) -> Tuple[np.ndarray, float]:
    """Iterative move-to-front Welzl over a fixed processing order."""
    d = points.shape[1]

    def ball_with_boundary(interior: List[int], boundary: List[int]):
        if boundary:
            center, radius = _ball_from_support(points[boundary])
        else:
            center, radius = points[interior[0]].copy() if interior else points[0].copy(), 0.0
        for idx_pos, i in enumerate(interior):
            if np.linalg.norm(points[i] - center) > radius * (1 + 1e-12) + 1e-14:
                if len(boundary) == d + 1:
                    continue
                center, radius = ball_with_boundary(interior[:idx_pos], boundary + [i])
        return center, radius

    return ball_with_boundary(list(order), [])


def minimum_enclosing_ball(
    points: np.ndarray, seed: int = 0, tol: float = 1e-9
) -> Tuple[np.ndarray, float]:
    """Center and radius of the smallest ball containing the points.

    Exact Welzl recursion for ambient dimension <= 3; small point sets
    in higher dimension fall back to exhaustive support enumeration,
    and large high-dimensional inputs to an iterative scheme with the
    given relative tolerance.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    m, d = points.shape
    if m == 1:
        return points[0].copy(), 0.0
    if d <= 3 or m <= 12:
        if d <= 3:
            order = make_rng(seed).permutation(m)
            return _welzl(points, order)
        best: Tuple[np.ndarray, float] = (points[0], np.inf)
        for size in range(1, min(m, d + 1) + 1):
            for support in itertools.combinations(range(m), size):
                center, radius = _ball_from_support(points[list(support)])
                if radius < best[1] and np.all(
                    np.linalg.norm(points - center, axis=1) <= radius + 1e-12
                ):
                    best = (center, radius)
        return best
    # Badoiu-Clarkson style iteration for large high-dimensional clouds.
    center = points.mean(axis=0)
    radius = 0.0
    for k in range(1, 100_000):
        dists = np.linalg.norm(points - center, axis=1)
        far = int(np.argmax(dists))
        radius = dists[far]
        step = (points[far] - center) / (k + 1)
        if np.linalg.norm(step) <= tol * max(radius, 1.0):
            break
        center = center + step
    return center, float(np.max(np.linalg.norm(points - center, axis=1)))


def cech_membership(points: np.ndarray, eps: float, seed: int = 0) -> bool:
    """True iff the eps/2 balls around the points share a common point,

    i.e. the minimum enclosing ball radius is at most eps/2.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) == 0:
        raise ValueError("subset must be nonempty")
    _, radius = minimum_enclosing_ball(points, seed=seed)
    return radius <= eps / 2.0 + 1e-12


def boundary_matrix(
    filtration: Filtration,
    k: int,
    eps: Optional[float] = None,
    col_order: Optional[Sequence[Simplex]] = None,
    row_order: Optional[Sequence[Simplex]] = None,
) -> np.ndarray:
    """F2 matrix of the degree-k boundary map.

    Columns are the k-simplices, rows the (k-1)-simplices, both in
    filtration order unless explicit orders are supplied (vertex tuples
    in any order with the expected membership). Entry 1 marks the face
    relation.
    """
    if k < 1:
        raise ValueError("boundary matrices start at k = 1")
    cols = [tuple(sorted(s)) for s in (col_order or filtration.of_dimension(k, eps))]
    rows = [tuple(sorted(s)) for s in (row_order or filtration.of_dimension(k - 1, eps))]
    row_index = {verts: i for i, verts in enumerate(rows)}
    out = np.zeros((len(rows), len(cols)), dtype=np.uint8)
    for j, verts in enumerate(cols):
        for facet in itertools.combinations(verts, k):
            out[row_index[facet], j] = 1
    return out


def betti_numbers(filtration: Filtration, eps: float) -> List[int]:
    """Betti numbers of the complex at threshold eps.

    Counts the persistence classes alive at eps (birth <= eps < death),
    one entry per dimension up to the filtration's largest.
    """
    curve = persistence(filtration).betti_at(eps)
    return [curve.get(k, 0) for k in range(filtration.max_dimension() + 1)]


@dataclass(slots=True)
class PersistencePair:
    degree: int
    birth: float
    death: float  # math.inf when the class never dies inside the filtration
    truncated: bool = False  # alive at the filtration cutoff

    @property
    def persistence(self) -> float:
        return self.death - self.birth


@dataclass
class PersistenceDiagram:
    pairs: List[PersistencePair]
    max_eps: Optional[float] = None

    def of_degree(self, k: int) -> List[PersistencePair]:
        return [p for p in self.pairs if p.degree == k]

    def betti_at(self, eps: float) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for p in self.pairs:
            if p.birth <= eps < p.death:
                out[p.degree] = out.get(p.degree, 0) + 1
        return out

    def to_csv(self) -> str:
        pairs = self.pairs
        columns = [p.degree for p in pairs], [p.birth for p in pairs], [p.death for p in pairs]
        return csv_text(["degree", "birth", "death"], columns)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root


def _positions(table: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Positions of the queries in a sorted array that must hold them all."""
    pos = np.searchsorted(table, queries)
    if queries.size and (table.size == 0 or np.any(table.take(pos, mode="clip") != queries)):
        raise ValueError("filtration is not closed under taking faces")
    return pos


def _vertex_rows(labels: np.ndarray, simplices: List[Simplex], width: int) -> np.ndarray:
    """Simplices as rows of positions in the sorted vertex labels."""
    raw = np.fromiter(itertools.chain.from_iterable(simplices), np.int64, len(simplices) * width)
    return _positions(labels, raw).reshape(-1, width)


def _simplex_keys(rows: np.ndarray, radix: int) -> np.ndarray:
    """One int64 per row of vertex ids in [0, radix), the row read in base radix."""
    if radix ** rows.shape[1] > np.iinfo(np.int64).max:
        raise ValueError(f"{radix} vertices are too many for {rows.shape[1]}-vertex keys")
    keys = np.zeros(len(rows), dtype=np.int64)
    for col in rows.T:
        keys *= radix
        keys += col
    return keys


def _facet_index(faces: np.ndarray, cofaces: np.ndarray, radix: int) -> np.ndarray:
    """Entry (t, p) is the index in faces of coface t without its vertex p."""
    face_keys = _simplex_keys(faces, radix)
    by_key = np.argsort(face_keys)
    facet_keys = np.empty((len(cofaces), cofaces.shape[1]), dtype=np.int64)
    for p in range(cofaces.shape[1]):
        facet_keys[:, p] = _simplex_keys(np.delete(cofaces, p, axis=1), radix)
    return by_key[_positions(face_keys[by_key], facet_keys)]


def _coboundaries(
    faces: np.ndarray, cofaces: np.ndarray, radix: int
) -> Tuple[List[int], np.ndarray]:
    """Coboundaries of k-simplices in compressed sparse row form.

    faces (n x k+1) and cofaces (m x k+2) hold vertex ids in filtration
    order. Returns (indptr, indices): the cofaces of face i, as indices
    into cofaces in increasing (filtration) order, are
    indices[indptr[i]:indptr[i + 1]].
    """
    n, m, per_coface = len(faces), len(cofaces), cofaces.shape[1]
    entry_face = _facet_index(faces, cofaces, radix).reshape(-1)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(entry_face, minlength=n))])
    # Entry e is a facet of coface e // per_coface. Sorting the entries by
    # face * m + coface (built in place to spare a copy) lists each face's
    # cofaces in filtration order.
    entry_face *= m
    entry_face += np.arange(len(entry_face)) // per_coface
    return indptr.tolist(), np.argsort(entry_face) // per_coface


def _reduce_coboundaries(
    indptr: List[int], cofaces: np.ndarray, cleared: Set[int]
) -> Tuple[Dict[int, int], List[int]]:
    """Pair k-simplices with (k+1)-simplices by reducing coboundary columns.

    Columns are taken in reverse filtration order, skipping the cleared
    faces (those that killed a class one degree down, whose columns
    would reduce to zero). A column's pivot is its earliest coface;
    while an earlier column owns that pivot, the two are added over F2.
    A column is held as its face's index, read back from the CSR
    arrays, and becomes a set only once it has been reduced, so the
    apparent pairs (pivot free at once) build no set at all.

    Returns {pivot coface: face} for the finite pairs and the faces
    whose columns vanished, which are essential classes.
    """
    owner: Dict[int, int] = {}
    reduced: Dict[int, Set[int]] = {}  # face -> its column, once reduced
    essential: List[int] = []
    for face in range(len(indptr) - 2, -1, -1):
        if face in cleared:
            continue
        start, stop = indptr[face], indptr[face + 1]
        low = int(cofaces[start]) if start < stop else None
        col = None
        while low is not None and low in owner:
            if col is None:
                col = set(cofaces[start:stop].tolist())
            other = owner[low]
            col.symmetric_difference_update(
                reduced[other] if other in reduced
                else cofaces[indptr[other]:indptr[other + 1]].tolist()
            )
            low = min(col) if col else None
        if low is None:
            essential.append(face)
            continue
        owner[low] = face
        if col is not None:
            reduced[face] = col
    return owner, essential


def persistence(filtration: Filtration, max_eps: Optional[float] = None) -> PersistenceDiagram:
    """Birth/death pairing by persistent cohomology with clearing.

    Degree 0 uses union-find with the elder rule. Each degree k >= 1
    then reduces the coboundary columns of its k-simplices in reverse
    filtration order (`_reduce_coboundaries`), skipping the simplices
    that killed a class in degree k - 1: the union-find tree edges, then
    each degree's death simplices. The pairs equal those of boundary
    column reduction in filtration order. Classes alive at the end get
    death = infinity with the truncated flag when a cutoff is known.
    """
    if not filtration.is_sorted():
        raise FiltrationOrderError("filtration must be sorted")
    simplices = filtration.simplices
    if max_eps is None and simplices:
        max_eps = simplices[-1][0]
    values: Dict[int, List[float]] = defaultdict(list)
    verts: Dict[int, List[Simplex]] = defaultdict(list)
    for value, dim, vs in simplices:
        values[dim].append(value)
        verts[dim].append(vs)
    max_dim = max(values, default=-1)

    vertex_birth = dict(zip((vs[0] for vs in verts[0]), values[0]))
    labels = np.array(sorted(vertex_birth), dtype=np.int64)
    rows = [_vertex_rows(labels, verts[k], k + 1) for k in range(max_dim + 1)]
    root_birth = [vertex_birth[v] for v in labels.tolist()]

    pairs: List[PersistencePair] = []
    # Births of the classes that never die, by degree.
    essential: List[List[float]] = [root_birth]
    cleared: Set[int] = set()
    if max_dim >= 1:
        uf = _UnionFind(len(labels))
        for edge, ((a, b), value) in enumerate(zip(rows[1].tolist(), values[1])):
            i, j = uf.find(a), uf.find(b)
            if i == j:
                continue
            # Elder rule: the younger component's class dies here.
            young, old = (j, i) if (root_birth[j], j) >= (root_birth[i], i) else (i, j)
            pairs.append(PersistencePair(0, root_birth[young], value))
            uf.parent[young] = old
            cleared.add(edge)
        essential[0] = [b for i, b in enumerate(root_birth) if uf.parent[i] == i]
    for k in range(1, max_dim + 1):
        if k == max_dim:
            alive = [s for s in range(len(values[k])) if s not in cleared]
        else:
            indptr, cofaces = _coboundaries(rows[k], rows[k + 1], len(labels))
            owner, alive = _reduce_coboundaries(indptr, cofaces, cleared)
            pairs.extend(
                PersistencePair(k, values[k][face], values[k + 1][low])
                for low, face in owner.items()
            )
            cleared = set(owner)
        essential.append([values[k][s] for s in alive])

    truncated = max_eps is not None
    for k, births in enumerate(essential):
        pairs.extend(PersistencePair(k, b, math.inf, truncated) for b in births)
    pairs.sort(key=operator.attrgetter("degree", "birth", "death"))
    return PersistenceDiagram(pairs=pairs, max_eps=max_eps)


def _triangle_meb_radii(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Enclosing-ball radii of triangles given their side lengths.

    Obtuse (and right) triangles are covered by the ball on their
    longest side; acute ones need the circumradius abc / (4 * area).
    """
    sides = np.sort(np.stack([a, b, c]), axis=0)
    s0, s1, s2 = sides[0], sides[1], sides[2]
    obtuse = s2**2 >= s0**2 + s1**2
    radii = np.where(obtuse, s2 / 2.0, 0.0)
    area_sq = np.maximum(
        (s0 + s1 + s2) * (-s0 + s1 + s2) * (s0 - s1 + s2) * (s0 + s1 - s2), 0.0
    ) / 16.0
    with np.errstate(divide="ignore", invalid="ignore"):
        circum = (s0 * s1 * s2) / (4.0 * np.sqrt(area_sq))
    return np.where(obtuse, radii, circum)


def squeeze_check(cloud: PointCloud, eps: float, max_dim: int = 2) -> bool:
    """Verify the Rips/Cech interleaving on a concrete cloud.

    Every simplex of the Rips complex at eps must pass the Cech test at
    eps * sqrt(2), and every subset passing that Cech test must be a
    Rips simplex at eps * sqrt(2). Up to triangles the membership radii
    come from closed forms; higher dimensions enumerate subsets and
    call the enclosing-ball solver directly.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    pts = cloud.points
    m = len(cloud)
    upper = eps * math.sqrt(2.0)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

    # Pairs: Rips at eps demands d <= eps, Cech at upper demands
    # d / 2 <= upper / 2, and both directions reduce to comparing d.
    iu, ju = np.triu_indices(m, k=1)
    d = dist[iu, ju]
    if np.any((d <= eps + 1e-12) & (d / 2.0 > upper / 2.0 + 1e-12)):
        return False
    if np.any((d / 2.0 <= upper / 2.0 + 1e-12) & (d > upper + 1e-12)):
        return False

    if m >= 3 and max_dim >= 2:
        trips = np.array(list(itertools.combinations(range(m), 3)))
        a = dist[trips[:, 0], trips[:, 1]]
        b = dist[trips[:, 0], trips[:, 2]]
        c = dist[trips[:, 1], trips[:, 2]]
        diam = np.max(np.stack([a, b, c]), axis=0)
        radii = _triangle_meb_radii(a, b, c)
        in_rips_eps = diam <= eps + 1e-12
        in_cech_upper = radii <= upper / 2.0 + 1e-12
        in_rips_upper = diam <= upper + 1e-12
        if np.any(in_rips_eps & ~in_cech_upper):
            return False
        if np.any(in_cech_upper & ~in_rips_upper):
            return False

    for size in range(4, max_dim + 2):
        for subset in itertools.combinations(range(m), size):
            sub = pts[list(subset)]
            sub_diam = float(np.max(dist[np.ix_(list(subset), list(subset))]))
            if sub_diam <= eps + 1e-12 and not cech_membership(sub, upper):
                return False
            if cech_membership(sub, upper) and sub_diam > upper + 1e-12:
                return False
    return True


def hexagon_example_filtration(max_dim: int = 3) -> Filtration:
    """The worked hexagon complex with exact entry values.

    Unit-side regular hexagon, vertices 0..5 in cyclic order: sides
    enter at 1, short diagonals and the six adjacent-vertex 'ear'
    triangles at sqrt(3), and everything else (long diagonals, the
    remaining triangles including the two inscribed ones, and the
    tetrahedra) at 2. Treating the inscribed triangles as unfilled
    until 2 keeps the central hole open on [1, 2); the full Rips
    complex of the same six points fills it at sqrt(3) instead.
    """
    sqrt3 = math.sqrt(3.0)
    entries: List[Tuple[float, int, Simplex]] = [(0.0, 0, (i,)) for i in range(6)]
    sides = [tuple(sorted((i, (i + 1) % 6))) for i in range(6)]
    diagonals = [tuple(sorted((i, (i + 2) % 6))) for i in range(6)]
    long_diagonals = [(i, i + 3) for i in range(3)]
    ears = [tuple(sorted((i, (i + 1) % 6, (i + 2) % 6))) for i in range(6)]
    for e in sides:
        entries.append((1.0, 1, e))
    for e in diagonals:
        entries.append((sqrt3, 1, e))
    for f in ears:
        entries.append((sqrt3, 2, f))
    for e in long_diagonals:
        entries.append((2.0, 1, e))
    if max_dim >= 2:
        for f in itertools.combinations(range(6), 3):
            if f not in ears:
                entries.append((2.0, 2, f))
    if max_dim >= 3:
        for t in itertools.combinations(range(6), 4):
            entries.append((2.0, 3, t))
    return Filtration(sorted(entries))


def maxmin_subsample(points: np.ndarray, n_landmarks: int) -> np.ndarray:
    """Farthest-point (maxmin) landmark selection, deterministic.

    Starts from the point farthest from the centroid, then greedily
    adds the point maximising its distance to the chosen set.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    m = len(points)
    if n_landmarks >= m:
        return np.arange(m)
    centroid = points.mean(axis=0)
    first = int(np.argmax(np.linalg.norm(points - centroid, axis=1)))
    chosen = [first]
    dist_to_set = np.linalg.norm(points - points[first], axis=1)
    for _ in range(n_landmarks - 1):
        nxt = int(np.argmax(dist_to_set))
        chosen.append(nxt)
        dist_to_set = np.minimum(dist_to_set, np.linalg.norm(points - points[nxt], axis=1))
    return np.array(chosen)


@dataclass
class AttractorH1Result:
    diagram: PersistenceDiagram
    top_pairs: List[PersistencePair]  # two most persistent H1 classes
    gap_ratio: float  # 2nd most persistent / 3rd most persistent
    landmarks: np.ndarray
    max_eps: float


def attractor_h1_experiment(
    states: Union[TimeSeries, PointCloud, np.ndarray],
    subsample: int = 400,
    max_eps: Optional[float] = None,
) -> AttractorH1Result:
    """Degree-1 persistence of a trajectory's landmark skeleton.

    Subsamples `subsample` landmarks by farthest-point selection, runs
    a Rips filtration to max_eps (default 40 percent of the landmark
    diameter), and reports the two most persistent H1 pairs together
    with the persistence ratio of the 2nd to the 3rd class. Truncated
    classes count with death at max_eps.
    """
    if subsample < 50:
        raise ValueError("subsample must be >= 50")
    if isinstance(states, TimeSeries):
        pts = states.samples
    elif isinstance(states, PointCloud):
        pts = states.points
    else:
        pts = np.atleast_2d(np.asarray(states, dtype=float))
    diam_probe = pts.max(axis=0) - pts.min(axis=0)
    if float(np.linalg.norm(diam_probe)) == 0.0:
        raise DegenerateCloudError("all points coincide")
    landmark_idx = maxmin_subsample(pts, subsample)
    landmarks = pts[landmark_idx]
    diff = landmarks[:, None, :] - landmarks[None, :, :]
    diameter = float(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)).max())
    if max_eps is None:
        max_eps = 0.4 * diameter
    filtration = rips_filtration(PointCloud(landmarks), max_dim=2, max_eps=max_eps)
    diagram = persistence(filtration, max_eps=max_eps)
    h1 = diagram.of_degree(1)
    persistences = sorted(
        (min(p.death, max_eps) - p.birth for p in h1), reverse=True
    )
    top = sorted(h1, key=lambda p: min(p.death, max_eps) - p.birth, reverse=True)[:2]
    if len(persistences) >= 3 and persistences[2] > 0:
        gap = persistences[1] / persistences[2]
    else:
        gap = math.inf
    return AttractorH1Result(
        diagram=diagram, top_pairs=top, gap_ratio=gap,
        landmarks=landmarks, max_eps=max_eps,
    )
