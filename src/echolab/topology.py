"""Persistent homology over F2.

Vietoris-Rips filtrations by clique expansion, the worked hexagon
complex, boundary matrices, persistence diagrams, and the
farthest-point attractor experiment. Point clouds are plain (m, d)
float arrays, one point per row.

Persistence pairs come from cohomology with clearing (Bauer, "Ripser",
arXiv:1908.02518): degree 0 by union-find, then for each degree k the
coboundary columns of the k-simplices, reduced in reverse filtration
order. Simplices that already killed a class one degree down are
skipped, and a column whose earliest coface is still free pairs at
once without being copied. By the duality of de Silva, Morozov and
Vejdemo-Johansson (Inverse Problems 27, 2011) the pairs equal those of
boundary-column reduction.

A filtration is held as one pair of arrays per dimension, entry values
and vertex rows, each sorted by (value, vertices); the order of the
whole filtration, by (value, dimension, vertices), follows from them.
The Rips complex is built dimension by dimension with numpy: each
k-simplex row gains a common upper neighbour of all its vertices.
Extended in lexicographic order, the rows come out in lexicographic
order, and one stable sort by value puts each dimension in filtration
order. The simplices stay materialised rather than enumerated
implicitly by combinatorial index: the top simplices are the cofaces
the last reduction reads, so they are enumerated anyway. Hand-built
filtrations enter through a list constructor, and one generic path
serves them and Rips alike.

The diagram lists only the pairs that carry homology, as Ripser does
(Bauer, J. Appl. Comput. Topol. 5, 391, 2021). Its degrees lie below
the skeleton dimension, the top dimension the filtration holds arrays
for (`rips_filtration`'s max_dim, even when no simplex of that
dimension is in range): with no simplex of one dimension more, nothing
could kill a top-degree class, so those classes say nothing about the
shape and are never computed. Its pairs die after they are born: a
pair [b, b) is alive at no epsilon. The Betti numbers of every degree
below the skeleton dimension are read off the diagram.

Boundary matrices and coboundaries share one face lookup,
`_facet_index`. The diagram is likewise a set of columns, degree,
birth and death, with death infinity for a class still alive at the
end of the filtration; `PersistencePair` objects are built only when
read.

Labels and faces are found by index table, as Ripser finds faces by
combinatorial index rather than by search. `_positions` maps each
vertex label to its position in the sorted labels through a dense
table indexed by label - lowest label, and `_facet_index` maps each
facet, its vertex positions read as one base-radix key, to its face
index through a dense table of radix ** (k + 1) entries; -1 marks an
absent label or face. A table is built only when it has no more
entries than the query array it answers, so it never outgrows the
queries. Otherwise (sparse labels, or the facets of few
(k+1)-simplices among many possible k-simplices) the keys are sorted
and searched. Both paths give the same indices and raise the same
ValueError for a missing face or label (`_index_of`).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from .errors import DegenerateCloudError, FiltrationOrderError


Simplex = Tuple[int, ...]


def _rows_in_order(values: np.ndarray, rows: np.ndarray) -> bool:
    """Whether the (value, row) pairs are nondecreasing, rows read lexicographically."""
    keys = np.column_stack([values, rows])
    before, after = keys[:-1], keys[1:]
    first = (before != after).argmax(axis=1)  # first differing column; 0 if equal
    at = np.arange(len(first))
    return bool(np.all(before[at, first] <= after[at, first]))


@dataclass(frozen=True, eq=False)
class Filtration:
    """Simplices with entry values, held as one pair of arrays per dimension.

    values[k] (n_k floats) holds the entry values of the k-simplices and
    vertices[k] (n_k x k+1 int64) their vertex labels, one increasing row
    per simplex, both in filtration order: by value, then by vertices.
    The whole filtration is ordered by (value, dimension, vertices).
    len(values) - 1 is its skeleton dimension, whether or not a simplex
    of that dimension is present. `ordered` is False when
    `from_simplices` met its list out of that order; `persistence` then
    refuses the filtration.
    """

    values: Tuple[np.ndarray, ...]
    vertices: Tuple[np.ndarray, ...]
    ordered: bool = True

    @classmethod
    def from_simplices(cls, simplices: Sequence[Tuple[float, int, Simplex]]) -> "Filtration":
        """Filtration of a list of (value, dimension, vertices) entries.

        Each simplex may be listed once: a repeat, whatever its value,
        raises ValueError naming its (dimension, vertices).
        """
        dims = max((dim for _, dim, _ in simplices), default=0) + 1
        values: List[List[float]] = [[] for _ in range(dims)]
        vertices: List[List[Simplex]] = [[] for _ in range(dims)]
        seen = set()
        for value, dim, verts in simplices:
            if value < 0:
                raise ValueError("filtration values must be nonnegative")
            if len(verts) != dim + 1:
                raise ValueError(f"simplex {verts} has wrong dimension tag {dim}")
            key = (dim, tuple(sorted(verts)))
            if key in seen:
                raise ValueError(f"simplex (dimension, vertices) {(dim, tuple(verts))} is repeated")
            seen.add(key)
            values[dim].append(value)
            vertices[dim].append(verts)
        return cls(
            tuple(np.array(v, dtype=float) for v in values),
            tuple(np.array(vs, dtype=np.int64).reshape(-1, k + 1) for k, vs in enumerate(vertices)),
            all(map(operator.le, simplices, itertools.islice(simplices, 1, None))),
        )

    @cached_property
    def simplices(self) -> Tuple[Tuple[float, int, Simplex], ...]:
        """All (value, dimension, vertices) entries in filtration order, built on first read."""
        entries = [
            (value, k, tuple(verts))
            for k, (vals, rows) in enumerate(zip(self.values, self.vertices))
            for value, verts in zip(vals.tolist(), rows.tolist())
        ]
        # Dimensions are concatenated in increasing order, each in its own
        # order, so a stable sort by value gives (value, dimension, vertices).
        order = np.argsort(np.concatenate(self.values), kind="stable")
        return tuple(entries[i] for i in order.tolist())

    def is_sorted(self) -> bool:
        return self.ordered and all(map(_rows_in_order, self.values, self.vertices))


def rips_filtration(points: np.ndarray, max_dim: int, max_eps: float) -> Filtration:
    """Rips complex of an (m, d) point array by clique expansion up to max_dim.

    A simplex enters at the largest pairwise distance among its
    vertices; only simplices entering at or below max_eps are kept (the
    closed-threshold convention, so equality admits the simplex).
    """
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    if max_eps <= 0:
        raise ValueError("max_eps must be positive")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    m = len(pts)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    # upper[i, j]: j > i and the edge ij enters by max_eps.
    upper = np.triu(dist <= max_eps, k=1)

    rows = np.arange(m, dtype=np.int64).reshape(-1, 1)
    vals = np.zeros(m)
    values, vertices = [vals], [rows]
    # Each k-simplex extends a (k-1)-simplex by a common neighbour of
    # all its vertices beyond its largest one, so none is listed twice.
    # Extending the rows in lexicographic order lists the new rows in
    # lexicographic order too, so a stable sort by value alone puts them
    # in filtration order; the lexicographic rows feed the next dimension.
    for _ in range(max_dim):
        common = upper[rows[:, 0]]
        for col in rows.T[1:]:
            common &= upper[col]
        parent, new = np.divmod(np.flatnonzero(common), m)
        vals = vals[parent]
        for col in rows.T:
            vals = np.maximum(vals, dist[col[parent], new])
        rows = np.column_stack([rows[parent], new])
        order = np.argsort(vals, kind="stable")
        values.append(vals[order])
        vertices.append(rows[order])
    return Filtration(tuple(values), tuple(vertices))


def boundary_matrix(filtration: Filtration, k: int, eps: float) -> np.ndarray:
    """F2 matrix of the degree-k boundary map of the simplices entering by eps.

    Columns are the k-simplices, rows the (k-1)-simplices, both in
    filtration order. Entry 1 marks the face relation. Raises
    FiltrationOrderError unless the filtration is sorted.
    """
    if k < 1:
        raise ValueError("boundary matrices start at k = 1")
    if not filtration.is_sorted():
        raise FiltrationOrderError("filtration must be sorted")
    labels = np.sort(filtration.vertices[0][:, 0])
    rows, cols = (
        _positions(labels, filtration.vertices[j][filtration.values[j] <= eps]) for j in (k - 1, k)
    )
    out = np.zeros((len(rows), len(cols)), dtype=np.uint8)
    out[_facet_index(rows, cols, len(labels)), np.arange(len(cols))[:, None]] = 1
    return out


@dataclass(slots=True)
class PersistencePair:
    degree: int
    birth: float
    death: float  # math.inf when the class never dies inside the filtration


@dataclass(frozen=True, eq=False)
class PersistenceDiagram:
    """Persistence pairs as columns, sorted by (degree, birth, death).

    Row i is the pair (degree[i], birth[i], death[i]) with the fields of
    `PersistencePair`; a class alive at the end of the filtration has
    death infinity.
    """

    degree: np.ndarray  # int64
    birth: np.ndarray
    death: np.ndarray

    @cached_property
    def pairs(self) -> Tuple[PersistencePair, ...]:
        """The rows as `PersistencePair`s, built on first read."""
        columns = (self.degree, self.birth, self.death)
        return tuple(map(PersistencePair, *(c.tolist() for c in columns)))

    def betti_at(self, eps: float) -> Dict[int, int]:
        alive = (self.birth <= eps) & (eps < self.death)
        counts = np.bincount(self.degree[alive]).tolist()
        return {k: c for k, c in enumerate(counts) if c}


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


_NOT_CLOSED = "filtration is not closed under taking faces"


def _index_of(keys: np.ndarray, queries: np.ndarray, span: int) -> np.ndarray:
    """Index in keys, distinct ints in [0, span), of each query; all must be keys.

    A dense table of span entries, -1 where no key lies, answers the
    queries when it has no more entries than there are queries, so it
    never outgrows them; otherwise the keys are sorted and the queries
    found by binary search. A query that is not a key raises on either
    path.
    """
    if keys.size and span <= queries.size:
        table = np.full(span, -1, dtype=np.int64)
        table[keys] = np.arange(len(keys))
        # An absent query reads -1 or, out of range, a clipped slot:
        # either way a key other than itself.
        found = table.take(queries, mode="clip")
        if np.any(keys[found] != queries):
            raise ValueError(_NOT_CLOSED)
        return found
    by_key = np.argsort(keys)
    pos = np.searchsorted(keys[by_key], queries)
    if queries.size and (keys.size == 0 or np.any(keys[by_key.take(pos, mode="clip")] != queries)):
        raise ValueError(_NOT_CLOSED)
    return by_key[pos]


def _positions(labels: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Vertex rows as positions in the sorted vertex labels, which need
    not be contiguous or nonnegative; each label is keyed by label -
    lowest label."""
    low, high = (int(labels[0]), int(labels[-1])) if labels.size else (0, -1)
    return _index_of(labels - low, rows - low, high - low + 1)


def _simplex_keys(rows: np.ndarray, radix: int) -> np.ndarray:
    """One int64 per row of vertex ids in [0, radix), the row read in base
    radix; ValueError when radix ** rows.shape[1] overflows the keys."""
    return np.ravel_multi_index(rows.T, (radix,) * rows.shape[1])


def _facet_index(faces: np.ndarray, cofaces: np.ndarray, radix: int) -> np.ndarray:
    """Entry (t, p) is the index in faces of coface t without its vertex p."""
    facet_keys = np.empty((len(cofaces), cofaces.shape[1]), dtype=np.int64)
    for p in range(cofaces.shape[1]):
        facet_keys[:, p] = _simplex_keys(np.delete(cofaces, p, axis=1), radix)
    return _index_of(_simplex_keys(faces, radix), facet_keys, radix ** faces.shape[1])


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

    Adding a column removes the shared pivot, so the new pivot comes
    later; one that does not means a column is out of filtration order,
    and the reduction raises ValueError rather than loop.

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
            pivot = min(col) if col else None
            if pivot is not None and pivot <= low:
                raise ValueError(
                    f"reducing the coboundary of face {face}: adding the column of face "
                    f"{other} moved its pivot from coface {low} to {pivot}; "
                    "coboundaries must list their cofaces in filtration order"
                )
            low = pivot
        if low is None:
            essential.append(face)
            continue
        owner[low] = face
        if col is not None:
            reduced[face] = col
    return owner, essential


def persistence(filtration: Filtration) -> PersistenceDiagram:
    """The pairs that carry homology, by persistent cohomology with clearing.

    Only degrees below the skeleton dimension, len(values) - 1, are
    computed, and only pairs with death after birth are kept (the module
    docstring says why). Degree 0 uses union-find with the elder rule.
    Each degree k >= 1 then reduces the coboundary columns of its
    k-simplices in reverse filtration order (`_reduce_coboundaries`),
    skipping the simplices that killed a class in degree k - 1: the
    union-find tree edges, then each degree's death simplices. The pairs
    equal those of boundary column reduction in filtration order. Classes
    alive at the end get death = infinity.
    """
    if not filtration.is_sorted():
        raise FiltrationOrderError("filtration must be sorted")
    values = filtration.values
    top = len(values) - 1
    if top < 1:  # vertices alone: no degree lies below the skeleton dimension
        return PersistenceDiagram(np.empty(0, dtype=np.int64), np.empty(0), np.empty(0))

    by_label = np.argsort(filtration.vertices[0][:, 0])
    labels = filtration.vertices[0][by_label, 0]
    root_birth = values[0][by_label]
    rows = [_positions(labels, verts) for verts in filtration.vertices]

    # Blocks of pairs (degree, births, deaths).
    blocks: List[Tuple[int, np.ndarray, np.ndarray]] = []
    uf = _UnionFind(len(labels))
    born = root_birth.tolist()
    h0_births, h0_deaths = [], []
    cleared: Set[int] = set()
    for edge, ((a, b), value) in enumerate(zip(rows[1].tolist(), values[1].tolist())):
        i, j = uf.find(a), uf.find(b)
        if i == j:
            continue
        # Elder rule: the younger component's class dies here.
        young, old = (j, i) if (born[j], j) >= (born[i], i) else (i, j)
        h0_births.append(born[young])
        h0_deaths.append(value)
        uf.parent[young] = old
        cleared.add(edge)
    roots = root_birth[np.array(uf.parent) == np.arange(len(labels))]
    blocks.append((0, np.array(h0_births), np.array(h0_deaths)))
    blocks.append((0, roots, np.full(len(roots), math.inf)))
    for k in range(1, top):
        indptr, cofaces = _coboundaries(rows[k], rows[k + 1], len(labels))
        owner, alive = _reduce_coboundaries(indptr, cofaces, cleared)
        lows = np.fromiter(owner, np.int64, len(owner))
        faces = np.fromiter(owner.values(), np.int64, len(owner))
        blocks.append((k, values[k][faces], values[k + 1][lows]))
        blocks.append((k, values[k][alive], np.full(len(alive), math.inf)))
        cleared = set(owner)

    degrees, births, deaths = zip(*blocks)
    degree = np.repeat(degrees, [len(b) for b in births])
    birth, death = np.concatenate(births), np.concatenate(deaths)
    listed = death > birth
    degree, birth, death = degree[listed], birth[listed], death[listed]
    order = np.lexsort((death, birth, degree))
    return PersistenceDiagram(degree[order], birth[order], death[order])


def hexagon_example_filtration() -> Filtration:
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
    for f in itertools.combinations(range(6), 3):
        if f not in ears:
            entries.append((2.0, 2, f))
    for t in itertools.combinations(range(6), 4):
        entries.append((2.0, 3, t))
    return Filtration.from_simplices(sorted(entries))


def maxmin_subsample(points: np.ndarray, n_landmarks: int) -> np.ndarray:
    """Farthest-point (maxmin) landmark selection, deterministic.

    Starts from the point farthest from the centroid, then greedily
    adds the point maximising its distance to the chosen set; `argmax`
    breaks ties towards the lowest index.

    Distances to each new landmark are built column by column: the
    squared coordinate differences are added in coordinate order, then
    square-rooted. For points of fewer than 8 coordinates that is the
    order in which `np.linalg.norm(points - p, axis=1)` sums a row, so
    the distances and the chosen indices keep their bits. Every caller
    passes 3-D points.
    """
    if n_landmarks < 1:
        raise ValueError("n_landmarks must be >= 1")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    m = len(points)
    if n_landmarks >= m:
        return np.arange(m)
    centroid = points.mean(axis=0)
    first = int(np.argmax(np.linalg.norm(points - centroid, axis=1)))
    coords = [np.ascontiguousarray(c) for c in points.T]
    dist, square = np.empty(m), np.empty(m)
    dist_to_set = np.full(m, np.inf)
    chosen = [first]
    for _ in range(n_landmarks - 1):
        i = chosen[-1]
        np.subtract(coords[0], coords[0][i], out=dist)
        dist *= dist
        for c in coords[1:]:
            np.subtract(c, c[i], out=square)
            square *= square
            dist += square
        np.minimum(dist_to_set, np.sqrt(dist, out=dist), out=dist_to_set)
        chosen.append(int(np.argmax(dist_to_set)))
    return np.array(chosen)


# The attractor's Rips complex stops at triangles, the simplices that kill H1 loops.
ATTRACTOR_RIPS_DIM = 2


@dataclass
class AttractorH1Result:
    diagram: PersistenceDiagram
    top_persistences: List[float]  # lifetimes of the two most persistent H1 classes
    gap_ratio: float  # 2nd most persistent / 3rd most persistent


def attractor_h1_experiment(
    points: np.ndarray, subsample: int, max_eps: float
) -> AttractorH1Result:
    """Degree-1 persistence of the landmark skeleton of an (m, d) orbit array.

    Subsamples `subsample` landmarks by farthest-point selection, runs
    a Rips filtration to max_eps, and reports the lifetimes of the two
    most persistent H1 classes together with the ratio of the 2nd to
    the 3rd. Classes still alive at max_eps count with death at max_eps.
    """
    if subsample < 50:
        raise ValueError("subsample must be >= 50")
    pts = np.asarray(points, dtype=float)
    diam_probe = pts.max(axis=0) - pts.min(axis=0)
    if float(np.linalg.norm(diam_probe)) == 0.0:
        raise DegenerateCloudError("all points coincide")
    landmarks = pts[maxmin_subsample(pts, subsample)]
    diagram = persistence(rips_filtration(landmarks, ATTRACTOR_RIPS_DIM, max_eps=max_eps))
    h1 = diagram.degree == 1
    lifetimes = np.minimum(diagram.death[h1], max_eps) - diagram.birth[h1]
    persistences = np.sort(lifetimes)[::-1].tolist()
    if len(persistences) >= 3 and persistences[2] > 0:
        gap = persistences[1] / persistences[2]
    else:
        gap = math.inf
    return AttractorH1Result(diagram=diagram, top_persistences=persistences[:2], gap_ratio=gap)
