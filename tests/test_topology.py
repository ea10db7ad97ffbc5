import itertools
import math

import numpy as np
import pytest

from echolab.dynsys import LorenzParams, integrate_lorenz
from echolab.errors import DegenerateCloudError, FiltrationOrderError
from echolab.reservoir import make_rng
from echolab.topology import (
    hexagon_example_filtration,
    Filtration,
    PersistenceDiagram,
    _coboundaries,
    _positions,
    _reduce_coboundaries,
    _simplex_keys,
    attractor_h1_experiment,
    boundary_matrix,
    maxmin_subsample,
    persistence,
    rips_filtration,
)

from oracles import (
    HEXAGON_DEL1_TABLE,
    HEXAGON_DEL2_TABLE,
    HEXAGON_EDGES,
    HEXAGON_FACES,
    HEXAGON_VERTICES,
    brute_force_betti,
    f2_rank_dense,
    hexagon_points,
    maxmin_subsample_reference,
    persistence_by_column_reduction,
    rips_filtration_reference,
)


def assert_same_columns(got, want):
    """The two diagrams hold the same degree, birth and death bits."""
    for name in ("degree", "birth", "death"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


SQRT3 = math.sqrt(3.0)


def unit_triangle():
    return np.array([[0.0, 0.0], [1.0, 0.0], [0.5, SQRT3 / 2.0]])


def skeleton_dimension(filtration):
    return len(filtration.values) - 1


def betti_numbers(filtration, eps):
    """Betti numbers at eps from the diagram, one per degree below the
    skeleton dimension."""
    curve = persistence(filtration).betti_at(eps)
    return [curve.get(k, 0) for k in range(skeleton_dimension(filtration))]


def listed(diagram, top):
    """The rows of a full diagram that carry homology: degree below the
    skeleton dimension top and death after birth, an infinite death kept."""
    keep = (diagram.degree < top) & (diagram.death > diagram.birth)
    return PersistenceDiagram(diagram.degree[keep], diagram.birth[keep], diagram.death[keep])


def probe_values(filtration):
    """Every entry value of the filtration, the midpoints between them, and
    one value below and one above them all."""
    values = np.unique(np.concatenate(filtration.values))
    if not values.size:
        return values
    return np.concatenate([values, (values[:-1] + values[1:]) / 2, [values[0] - 1, values[-1] + 1]])


def betti_curves(diagram, grid, top):
    """Betti numbers 0..top-1 at each value of grid, counted from the rows:
    a pair is alive on [birth, death)."""
    curves = []
    for k in range(top):
        born, dead = (np.sort(c[diagram.degree == k]) for c in (diagram.birth, diagram.death))
        curves.append(np.searchsorted(born, grid, "right") - np.searchsorted(dead, grid, "right"))
    return np.array(curves).T


def of_degree(diagram, k):
    """The pairs of one degree, in diagram order."""
    return [p for p in diagram.pairs if p.degree == k]


def lifetime(pair):
    return pair.death - pair.birth


def entering(filt, k, eps):
    """Vertex tuples of the k-simplices entering by eps, in filtration order."""
    return list(map(tuple, filt.vertices[k][filt.values[k] <= eps].tolist()))


def in_printed_order(filt, k, eps, cols, rows):
    """The filtration-order boundary matrix with its columns picked and its
    rows permuted into a printed table's order (vertex tuples in any order).
    The table must name every row."""
    M = boundary_matrix(filt, k, eps=eps)
    col_at = {s: j for j, s in enumerate(entering(filt, k, eps))}
    row_at = {s: i for i, s in enumerate(entering(filt, k - 1, eps))}
    assert len(rows) == len(row_at)
    perm_cols = [col_at[tuple(sorted(s))] for s in cols]
    perm_rows = [row_at[tuple(sorted(s))] for s in rows]
    return M[np.ix_(perm_rows, perm_cols)]


class TestRipsFiltration:
    def test_unit_triangle_entry_values(self):
        filt = rips_filtration(unit_triangle(), max_dim=2, max_eps=2.0)
        by_dim = {}
        for value, dim, verts in filt.simplices:
            by_dim.setdefault(dim, []).append(value)
        assert by_dim[0] == [0.0, 0.0, 0.0]
        assert np.allclose(by_dim[1], 1.0)
        assert np.allclose(by_dim[2], 1.0)

    def test_hexagon_entry_scales(self):
        filt = rips_filtration(hexagon_points(), max_dim=2, max_eps=2.5)
        edges = [(v, verts) for v, d, verts in filt.simplices if d == 1]
        values = np.array([v for v, _ in edges])
        assert np.sum(np.isclose(values, 1.0)) == 6
        assert np.sum(np.isclose(values, SQRT3)) == 6
        assert np.sum(np.isclose(values, 2.0)) == 3
        # The six ear triangles and the two inscribed ones all enter at
        # sqrt(3); the remaining twelve need the long diagonals at 2.
        face_values = np.array([v for v, d, _ in filt.simplices if d == 2])
        assert np.sum(np.isclose(face_values, SQRT3)) == 8
        assert np.sum(np.isclose(face_values, 2.0)) == 12

    def test_max_eps_excludes_long_edges(self):
        cloud = np.array([[0.0], [3.0]])
        filt = rips_filtration(cloud, max_dim=1, max_eps=2.0)
        assert len(filt.vertices[0]) == 2
        assert len(filt.vertices[1]) == 0

    def test_non_finite_points_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                rips_filtration(np.array([[0.0, 0.0], [bad, 1.0]]), max_dim=1, max_eps=1.0)

    def test_duplicate_points_distance_zero(self):
        cloud = np.array([[1.0, 1.0], [1.0, 1.0]])
        filt = rips_filtration(cloud, max_dim=1, max_eps=1.0)
        assert filt.vertices[1].tolist() == [[0, 1]]
        assert filt.simplices[-1][0] == 0.0

    def test_sorted_by_value_then_dim(self):
        filt = rips_filtration(hexagon_points(), max_dim=2, max_eps=2.5)
        assert filt.is_sorted()


class TestRipsMatchesReference:
    """The array clique expansion lists each dimension in the order of the
    tuple-sorted reference, with bit-equal entry values."""

    @staticmethod
    def by_dimension(filt, max_dim):
        out = []
        for k in range(max_dim + 1):
            if k < len(filt.values):
                out.append(list(zip(filt.values[k].tolist(), map(tuple, filt.vertices[k].tolist()))))
            else:
                out.append([])
        return out

    def assert_same_order(self, points, max_eps):
        for max_dim in (2, 3):
            got = rips_filtration(points, max_dim, max_eps)
            want = rips_filtration_reference(points, max_dim, max_eps)
            assert self.by_dimension(got, max_dim) == self.by_dimension(want, max_dim)
            assert got.simplices == want.simplices

    def test_integer_lattice_ties(self):
        grid = np.array([[i, j] for i in range(4) for j in range(4)], dtype=float)
        self.assert_same_order(grid, 2.9)

    def test_duplicated_points(self):
        rng = make_rng(3)
        base = rng.uniform(0, 1, (6, 2))
        self.assert_same_order(np.vstack([base, base[:4], base[1:3]]), 0.8)

    def test_random_clouds(self):
        rng = make_rng(22)
        for _ in range(20):
            self.assert_same_order(rng.uniform(0, 1, (15, 2)), float(rng.uniform(0.3, 1.5)))

    def test_lorenz_landmark_diagram_bytes(self):
        ts = integrate_lorenz(LorenzParams(), 8000)
        pts = ts.samples[4000:]
        cloud = pts[maxmin_subsample(pts, 300)]
        got = persistence(rips_filtration(cloud, 2, 10.0))
        want = persistence(rips_filtration_reference(cloud, 2, 10.0))
        assert_same_columns(got, want)


class TestFiltrationFromSimplices:
    def test_checks_values_and_dimension_tags(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Filtration.from_simplices([(-1.0, 0, (0,))])
        with pytest.raises(ValueError, match="dimension tag"):
            Filtration.from_simplices([(0.0, 1, (0,))])

    def test_repeated_simplex_rejected(self):
        # Accepted, the second copy of vertex 0 would be a phantom
        # essential H0 class.
        simplices = [(0.0, 0, (0,)), (0.0, 0, (0,)), (0.0, 0, (1,)), (1.0, 1, (0, 1))]
        with pytest.raises(ValueError, match=r"\(0, \(0,\)\) is repeated"):
            Filtration.from_simplices(simplices)
        with pytest.raises(ValueError, match=r"\(1, \(1, 0\)\) is repeated"):
            Filtration.from_simplices(simplices[2:] + [(0.0, 0, (0,)), (2.0, 1, (1, 0))])

    def test_example_without_the_repeat_has_one_essential_class(self):
        # The two vertices are joined at 1: one H0 class dies there, one
        # lives on.
        filt = Filtration.from_simplices([(0.0, 0, (0,)), (0.0, 0, (1,)), (1.0, 1, (0, 1))])
        diag = persistence(filt)
        assert diag.degree.tolist() == [0, 0]
        assert diag.birth.tolist() == [0.0, 0.0]
        assert diag.death.tolist() == [1.0, math.inf]

    def test_dimensions_out_of_order_rejected(self):
        # Each dimension is in order, but the edge precedes a vertex of
        # smaller value.
        filt = Filtration.from_simplices([(0.0, 0, (0,)), (1.0, 1, (0, 1)), (0.0, 0, (1,))])
        assert not filt.is_sorted()
        with pytest.raises(FiltrationOrderError):
            persistence(filt)

    def test_simplices_view_in_filtration_order(self):
        filt = hexagon_example_filtration()
        assert filt.simplices == tuple(sorted(filt.simplices))
        assert len(filt.simplices) == sum(len(v) for v in filt.values)
        assert filt.simplices is filt.simplices


class TestBoundaryMatrix:
    def hexagon_filtration(self, max_dim=2, max_eps=2.5):
        return rips_filtration(hexagon_points(), max_dim, max_eps)

    def test_del2_matches_printed_table(self):
        filt = self.hexagon_filtration()
        M = in_printed_order(filt, 2, 1.9, HEXAGON_FACES, HEXAGON_EDGES)
        assert np.array_equal(M, HEXAGON_DEL2_TABLE)

    def test_del1_matches_printed_table(self):
        filt = self.hexagon_filtration()
        M = in_printed_order(filt, 1, 1.9, HEXAGON_EDGES, HEXAGON_VERTICES)
        assert np.array_equal(M, HEXAGON_DEL1_TABLE)

    def test_boundary_of_boundary_vanishes(self):
        filt = self.hexagon_filtration()
        for eps in (1.0, SQRT3, 2.0):
            d1 = boundary_matrix(filt, 1, eps=eps)
            d2 = boundary_matrix(filt, 2, eps=eps)
            if d2.size:
                assert not np.any((d1 @ d2) % 2)

    def test_default_order_is_filtration_order(self):
        filt = self.hexagon_filtration()
        M = boundary_matrix(filt, 1, eps=1.0001)
        assert M.shape == (6, 6)
        assert np.all(M.sum(axis=0) == 2)

    def test_labels_need_not_start_at_zero(self):
        filt = self.hexagon_filtration()
        for shift in (-7, 5):
            shifted = Filtration(filt.values, tuple(rows + shift for rows in filt.vertices))
            for k in (1, 2):
                assert np.array_equal(boundary_matrix(shifted, k, eps=2.0), boundary_matrix(filt, k, eps=2.0))

    def test_unsorted_filtration_rejected(self):
        # Edge (0, 2) enters at 2.0 but is listed before edge (0, 1) at 1.0.
        filt = Filtration.from_simplices(
            [(0, 0, (0,)), (0, 0, (1,)), (0, 0, (2,)), (2.0, 1, (0, 2)), (1.0, 1, (0, 1))]
        )
        assert not filt.is_sorted()
        with pytest.raises(FiltrationOrderError):
            boundary_matrix(filt, 1, eps=2.0)

    def test_example_filtration_matches_tables_without_orders(self):
        # The worked-example complex carries exact entry values, so the
        # printed tables are also reproducible by permuting its matrix.
        filt = hexagon_example_filtration()
        M2 = in_printed_order(filt, 2, 1.9, HEXAGON_FACES, HEXAGON_EDGES)
        assert np.array_equal(M2, HEXAGON_DEL2_TABLE)


class TestBettiNumbers:
    def hexagon_filtration(self, max_dim):
        return rips_filtration(hexagon_points(), max_dim, max_eps=2.5)

    def test_cycle_graph_profile(self):
        filt = self.hexagon_filtration(max_dim=2)
        assert betti_numbers(filt, 1.0000001)[:2] == [1, 1]
        demo = hexagon_example_filtration()
        assert betti_numbers(demo, 1.0)[:2] == [1, 1]

    def test_triangulated_annulus_profile(self):
        # Worked-example complex: the ears alone leave the central hole
        # open, an annulus with beta = (1, 1, 0) on [sqrt(3), 2).
        demo = hexagon_example_filtration()
        assert betti_numbers(demo, (1.0 + SQRT3) / 2.0)[:2] == [1, 1]
        assert betti_numbers(demo, SQRT3)[:3] == [1, 1, 0]
        assert betti_numbers(demo, 1.99)[:3] == [1, 1, 0]

    def test_true_rips_fills_hole_with_inscribed_triangles(self):
        # The honest Rips complex also contains (0,2,4) and (1,3,5) at
        # sqrt(3); they close the hexagon hole and wrap a 2-sphere.
        filt = self.hexagon_filtration(max_dim=3)
        got = betti_numbers(filt, SQRT3 + 1e-9)[:3]
        assert got == [1, 0, 1]
        assert got == brute_force_betti(hexagon_points(), SQRT3 + 1e-9, 3)[:3]

    def test_full_skeleton_profile(self):
        # With triangles only, the ten 2-cycles of the complete complex
        # are never filled; adding tetrahedra kills them.
        filt2 = self.hexagon_filtration(max_dim=2)
        assert betti_numbers(filt2, 2.0)[:2] == [1, 0]
        filt3 = self.hexagon_filtration(max_dim=3)
        assert betti_numbers(filt3, 2.0)[:3] == [1, 0, 0]
        assert betti_numbers(hexagon_example_filtration(), 2.0)[:3] == [1, 0, 0]

    def test_matches_brute_force_on_random_clouds(self):
        rng = make_rng(5)
        for trial in range(5):
            pts = rng.uniform(0, 1, (12, 2))
            eps = rng.uniform(0.2, 0.7)
            filt = rips_filtration(pts, max_dim=2, max_eps=1.5)
            assert betti_numbers(filt, eps) == brute_force_betti(pts, eps, 2)[:2]

    def test_euler_characteristic_consistency(self):
        # The diagram gives the Betti numbers below the skeleton dimension,
        # 3; the top one is the nullity of the top boundary map.
        filt = self.hexagon_filtration(max_dim=3)
        for eps in (0.5, 1.0, 1.2, SQRT3, 1.9, 2.0):
            chi_simplices = sum((-1) ** k * int((v <= eps).sum()) for k, v in enumerate(filt.values))
            n_top = int((filt.values[3] <= eps).sum())
            top_betti = n_top - f2_rank_dense(boundary_matrix(filt, 3, eps))
            betti = betti_numbers(filt, eps) + [top_betti]
            chi_betti = sum((-1) ** k * b for k, b in enumerate(betti))
            assert chi_simplices == chi_betti


class TestPersistence:
    def test_single_point(self):
        # Alone, the point's class is of the top degree and is not listed;
        # asked for edges, the complex lists it as essential.
        assert persistence(Filtration.from_simplices([(0.0, 0, (0,))])).pairs == ()
        diag = persistence(rips_filtration(np.zeros((1, 2)), max_dim=1, max_eps=1.0))
        assert len(diag.pairs) == 1
        assert diag.pairs[0].degree == 0
        assert math.isinf(diag.pairs[0].death)

    def test_hexagon_example_pairs(self):
        diag = persistence(hexagon_example_filtration())
        h0 = of_degree(diag, 0)
        infinite = [p for p in h0 if math.isinf(p.death)]
        finite = [p for p in h0 if not math.isinf(p.death)]
        assert len(infinite) == 1
        assert len(finite) == 5
        assert all(p.birth == 0.0 and p.death == 1.0 for p in finite)
        main = [p for p in of_degree(diag, 1) if lifetime(p) > 1e-9]
        assert len(main) == 1
        assert main[0].birth == 1.0 and main[0].death == 2.0

    def test_hexagon_true_rips_pairs(self):
        # Honest Rips filtration: the hole dies at sqrt(3) and the
        # eight sqrt(3)-triangles enclose a void that the tetrahedra
        # fill at 2.
        filt = rips_filtration(hexagon_points(), max_dim=3, max_eps=2.5)
        diag = persistence(filt)
        h1 = [p for p in of_degree(diag, 1) if lifetime(p) > 1e-6]
        assert len(h1) == 1
        assert np.isclose(h1[0].birth, 1.0) and np.isclose(h1[0].death, SQRT3)
        h2 = [p for p in of_degree(diag, 2) if lifetime(p) > 1e-6]
        assert len(h2) == 1
        assert np.isclose(h2[0].birth, SQRT3) and np.isclose(h2[0].death, 2.0)

    def test_two_far_triangles(self):
        pts = np.vstack([unit_triangle(), unit_triangle() + [100.0, 0.0]])
        filt = rips_filtration(pts, max_dim=2, max_eps=5.0)
        diag = persistence(filt)
        infinite_h0 = [p for p in of_degree(diag, 0) if math.isinf(p.death)]
        assert len(infinite_h0) == 2
        h1_alive_above_1 = [
            p for p in of_degree(diag, 1) if p.birth <= 1.0 and p.death > 1.0 + 1e-12
        ]
        assert h1_alive_above_1 == []

    def test_betti_curve_matches_rank_computation(self):
        rng = make_rng(9)
        pts = rng.uniform(0, 1, (14, 2))
        filt = rips_filtration(pts, max_dim=2, max_eps=1.5)
        diag = persistence(filt)
        for eps in (0.1, 0.25, 0.4, 0.6, 0.9, 1.2):
            betti = brute_force_betti(pts, eps, 2)[:2]  # degrees below the skeleton dimension
            curve = diag.betti_at(eps)
            for k, b in enumerate(betti):
                assert curve.get(k, 0) == b, f"mismatch at eps={eps}, degree {k}"

    def test_beta0_monotone_in_eps(self):
        rng = make_rng(10)
        pts = rng.uniform(0, 1, (20, 2))
        filt = rips_filtration(pts, max_dim=1, max_eps=1.5)
        diag = persistence(filt)
        grid = np.linspace(0.01, 1.4, 30)
        b0 = [diag.betti_at(e).get(0, 0) for e in grid]
        assert all(a >= b for a, b in zip(b0, b0[1:]))

    def test_unsorted_filtration_rejected(self):
        filt = Filtration.from_simplices([(1.0, 0, (0,)), (0.0, 0, (1,))])
        with pytest.raises(FiltrationOrderError):
            persistence(filt)

    def test_stability_under_perturbation(self):
        # Bottleneck stability smoke test: a delta-perturbation moves
        # every finite birth/death by at most 2 * delta.
        delta = 0.01
        rng = make_rng(11)
        base = hexagon_points()
        noisy = base + rng.uniform(-delta / 2, delta / 2, base.shape)
        diag_a = persistence(rips_filtration(base, 2, 2.5))
        diag_b = persistence(rips_filtration(noisy, 2, 2.5))
        for degree in (0, 1):
            fa = sorted(
                [(p.birth, p.death) for p in of_degree(diag_a, degree) if lifetime(p) > 4 * delta and not math.isinf(p.death)]
            )
            fb = sorted(
                [(p.birth, p.death) for p in of_degree(diag_b, degree) if lifetime(p) > 4 * delta and not math.isinf(p.death)]
            )
            assert len(fa) == len(fb)
            for (b1, d1), (b2, d2) in zip(fa, fb):
                assert abs(b1 - b2) <= 2 * delta
                assert abs(d1 - d2) <= 2 * delta

    def test_diagram_columns(self):
        for max_dim, rows in ((0, 0), (1, 1)):
            diagram = persistence(rips_filtration(np.zeros((1, 2)), max_dim, max_eps=1.0))
            assert diagram.degree.dtype == np.int64
            assert diagram.degree.tolist() == [0] * rows
            assert diagram.birth.tolist() == [0.0] * rows
            assert diagram.death.tolist() == [math.inf] * rows


class TestPersistenceMatchesColumnReduction:
    """Cohomology with clearing pairs exactly as boundary-column reduction,
    and lists the reference's pairs that carry homology: degree below the
    skeleton dimension, death after birth."""

    @staticmethod
    def assert_same_diagram(filt):
        got = persistence(filt)
        top = skeleton_dimension(filt)
        full = persistence_by_column_reduction(filt)
        want = listed(full, top)
        assert [(p.degree, p.birth, p.death) for p in got.pairs] == [
            (p.degree, p.birth, p.death) for p in want.pairs
        ]
        assert_same_columns(got, want)
        # The rows left out change no Betti number below the skeleton dimension.
        grid = probe_values(filt)
        assert np.array_equal(betti_curves(got, grid, top), betti_curves(full, grid, top))
        return got

    def assert_same_as_experiment(self, points, subsample, max_eps):
        res = attractor_h1_experiment(points, subsample=subsample, max_eps=max_eps)
        landmarks = points[maxmin_subsample(points, subsample)]
        got = self.assert_same_diagram(rips_filtration(landmarks, max_dim=2, max_eps=max_eps))
        assert_same_columns(got, res.diagram)

    def test_hexagon_example(self):
        # Five components merge at 1, one lives on, and the central hole
        # lives on [1, 2); the other 24 pairs of the full diagram are
        # zero-length or of degree 3, the skeleton dimension.
        filt = hexagon_example_filtration()
        got = self.assert_same_diagram(filt)
        assert [(p.degree, p.birth, p.death) for p in got.pairs] == (
            [(0, 0.0, 1.0)] * 5 + [(0, 0.0, math.inf), (1, 1.0, 2.0)]
        )
        full = persistence_by_column_reduction(filt)
        assert len(full.degree) == 31
        assert np.any(full.degree == 3) and np.any(full.death == full.birth)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_rows_left_out_of_random_clouds(self, seed):
        filt = rips_filtration(make_rng(seed).uniform(size=(12, 2)), max_dim=3, max_eps=0.8)
        assert len(filt.values[3])
        full = persistence_by_column_reduction(filt)
        assert np.any(full.degree == 3) and np.any(full.death == full.birth)
        self.assert_same_diagram(filt)

    def test_rips_without_triangles_keeps_its_loop(self):
        # Asked for triangles, the unit square has none by 1 (its diagonals
        # are sqrt(2) long), so its loop is still listed, as essential.
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        filt = rips_filtration(square, max_dim=2, max_eps=1.0)
        assert len(filt.values[2]) == 0
        got = self.assert_same_diagram(filt)
        assert [(p.degree, p.birth, p.death) for p in got.pairs] == (
            [(0, 0.0, 1.0)] * 3 + [(0, 0.0, math.inf), (1, 1.0, math.inf)]
        )

    def test_true_rips_hexagon(self):
        filt = rips_filtration(hexagon_points(), max_dim=3, max_eps=2.5)
        # Edges found by table (3 * 20 facets, 6**2 slots), triangles by
        # search (4 * 15 facets, 6**3 slots).
        assert [len(v) for v in filt.values] == [6, 15, 20, 15]
        self.assert_same_diagram(filt)

    def test_random_clouds(self):
        rng = make_rng(21)
        for _ in range(20):
            pts = rng.uniform(0, 1, (15, 2))
            max_eps = float(rng.uniform(0.3, 1.5))
            self.assert_same_diagram(rips_filtration(pts, max_dim=3, max_eps=max_eps))

    def test_circle_and_figure_eight(self):
        angles = np.linspace(0, 2 * np.pi, 200, endpoint=False)
        circle = np.column_stack([np.cos(angles), np.sin(angles)])
        self.assert_same_as_experiment(circle, subsample=50, max_eps=0.8)
        eight = np.vstack([circle - [1.0, 0.0], circle + [1.0, 0.0]])
        self.assert_same_as_experiment(eight, subsample=100, max_eps=1.6)

    def test_lorenz_landmarks(self):
        ts = integrate_lorenz(LorenzParams(), 8000)
        self.assert_same_as_experiment(ts.samples[4000:], subsample=150, max_eps=10.0)

    def test_empty_and_vertex_only(self):
        self.assert_same_diagram(Filtration.from_simplices([]))
        self.assert_same_diagram(Filtration.from_simplices([(0.0, 0, (0,)), (0.5, 0, (1,)), (0.5, 0, (3,))]))

    def test_non_contiguous_vertex_labels(self):
        simplices = [(0.0, 0, (0,)), (0.0, 0, (1,)), (0.0, 0, (3,)), (1.0, 1, (0, 1)),
                     (1.0, 1, (0, 3)), (1.0, 1, (1, 3)), (2.0, 2, (0, 1, 3))]
        self.assert_same_diagram(Filtration.from_simplices(simplices))

    def test_missing_face_rejected(self):
        # Both found by search: 3 facets for 3**2 edge slots, 2 labels for 4.
        vertices = [(0.0, 0, (0,)), (0.0, 0, (1,)), (0.0, 0, (3,))]
        no_edge = vertices + [(1.0, 1, (0, 1)), (1.0, 1, (1, 3)), (1.0, 2, (0, 1, 3))]
        no_vertex = vertices + [(1.0, 1, (0, 2))]
        for simplices in (no_edge, no_vertex):
            with pytest.raises(ValueError, match="closed under taking faces"):
                persistence(Filtration.from_simplices(simplices))

    # `persistence` looks labels and faces up by a dense table when the
    # table has no more entries than the queries it answers, and by
    # sorted search otherwise. Each case below states which path it takes.

    def test_negative_labels_by_table(self):
        filt = rips_filtration(make_rng(22).uniform(0, 1, (15, 2)), max_dim=2, max_eps=0.8)
        shifted = Filtration(filt.values, tuple(rows - 7 for rows in filt.vertices))
        assert shifted.vertices[0].min() == -7
        assert_same_columns(self.assert_same_diagram(shifted), persistence(filt))

    def test_sparse_labels_by_search(self):
        # A label table would span 10**9 + 1 entries for a handful of queries.
        pair = [(0.0, 0, (0,)), (0.0, 0, (10**9,)), (1.0, 1, (0, 10**9))]
        self.assert_same_diagram(Filtration.from_simplices(pair))
        filt = rips_filtration(make_rng(23).uniform(0, 1, (15, 2)), max_dim=2, max_eps=0.8)
        spread = Filtration(filt.values, tuple(rows * 10**6 - 5 for rows in filt.vertices))
        assert_same_columns(self.assert_same_diagram(spread), persistence(filt))

    def test_random_cloud_to_tetrahedra(self):
        filt = rips_filtration(make_rng(31).uniform(0, 1, (60, 3)), max_dim=3, max_eps=0.55)
        n_triangles, n_tetrahedra = len(filt.values[2]), len(filt.values[3])
        assert 3 * n_triangles >= 60**2  # edges of the triangles by table
        assert 4 * n_tetrahedra < 60**3  # triangles of the tetrahedra by search
        self.assert_same_diagram(filt)

    def test_missing_face_rejected_by_table(self):
        # The full 2-skeleton on 5 vertices: 30 edge queries, 25 table slots.
        skeleton = [(0.0, 0, (i,)) for i in range(5)]
        skeleton += [(1.0, 1, e) for e in itertools.combinations(range(5), 2)]
        skeleton += [(2.0, 2, t) for t in itertools.combinations(range(5), 3)]
        no_edge = [s for s in skeleton if s[2] != (1, 3)]
        no_vertex = [s for s in skeleton if s[2] != (2,)]  # labels {0, 1, 3, 4}: 4 is in range
        below = skeleton + [(3.0, 1, (-1, 0))]
        above = skeleton + [(3.0, 1, (4, 5))]
        for simplices in (no_edge, no_vertex, below, above):
            with pytest.raises(ValueError, match="closed under taking faces"):
                persistence(Filtration.from_simplices(simplices))


class TestCoboundaries:
    def test_cofaces_in_filtration_order(self):
        # Each face's cofaces are exactly the (k+1)-simplices holding it,
        # listed in increasing (filtration) order.
        rng = make_rng(32)
        for _ in range(10):
            filt = rips_filtration(rng.uniform(0, 1, (15, 2)), 3, float(rng.uniform(0.3, 1.5)))
            labels = np.sort(filt.vertices[0][:, 0])
            for k in (1, 2):
                faces, cofaces = (_positions(labels, filt.vertices[j]) for j in (k, k + 1))
                indptr, indices = _coboundaries(faces, cofaces, len(labels))
                facets = [set(itertools.combinations(c, k + 1)) for c in cofaces.tolist()]
                for i, face in enumerate(map(tuple, faces.tolist())):
                    want = [t for t, of_t in enumerate(facets) if face in of_t]
                    assert indices[indptr[i]:indptr[i + 1]].tolist() == want

    def test_simplex_keys_overflow_raises(self):
        with pytest.raises(ValueError):
            _simplex_keys(np.zeros((2, 3), dtype=np.int64), 2**21 + 1)

    def test_out_of_order_column_raises(self):
        # Face 2's column lists coface 1 before coface 0, so face 2 owns
        # pivot 1 and face 1 pivot 0. Reducing face 0 ({1}) then adds
        # columns forever, {0}, {1}, {0}, ..., unless it is stopped when
        # the pivot fails to move later.
        indptr = [0, 1, 3, 5]
        cofaces = np.array([1, 0, 1, 1, 0])
        message = r"face 0: .* face 2 moved its pivot from coface 1 to 0;"
        with pytest.raises(ValueError, match=message):
            _reduce_coboundaries(indptr, cofaces, set())


class TestAttractorExperiment:
    def test_circle_has_one_dominant_loop(self):
        angles = np.linspace(0, 2 * np.pi, 200, endpoint=False)
        pts = np.column_stack([np.cos(angles), np.sin(angles)])
        res = attractor_h1_experiment(pts, subsample=50, max_eps=0.8)
        pers = sorted(
            (min(p.death, 0.8) - p.birth for p in of_degree(res.diagram, 1)), reverse=True
        )
        assert pers[0] > 0.5
        assert all(p < 0.1 for p in pers[1:])

    def test_figure_eight_has_two_loops(self):
        angles = np.linspace(0, 2 * np.pi, 200, endpoint=False)
        left = np.column_stack([np.cos(angles) - 1.0, np.sin(angles)])
        right = np.column_stack([np.cos(angles) + 1.0, np.sin(angles)])
        pts = np.vstack([left, right])
        res = attractor_h1_experiment(pts, subsample=100, max_eps=1.6)
        assert len(res.top_persistences) == 2
        pers = sorted(
            (min(p.death, 1.6) - p.birth for p in of_degree(res.diagram, 1)), reverse=True
        )
        assert pers[1] > 0.4
        assert res.gap_ratio > 2.0

    def test_degenerate_cloud_rejected(self):
        with pytest.raises(DegenerateCloudError):
            attractor_h1_experiment(np.ones((300, 3)), subsample=50, max_eps=1.0)

    def test_subsample_minimum(self):
        with pytest.raises(ValueError):
            attractor_h1_experiment(np.random.default_rng(0).normal(size=(100, 2)), subsample=10, max_eps=1.0)

    def test_maxmin_needs_a_landmark(self):
        pts = make_rng(12).uniform(0, 1, (20, 2))
        for n_landmarks in (0, -3):
            with pytest.raises(ValueError, match="n_landmarks"):
                maxmin_subsample(pts, n_landmarks)

    def test_maxmin_spreads_points(self):
        rng = make_rng(13)
        pts = rng.uniform(0, 1, (500, 2))
        idx = maxmin_subsample(pts, 50)
        assert len(np.unique(idx)) == 50
        chosen = pts[idx]
        dmin = np.inf
        for i in range(50):
            d = np.linalg.norm(chosen - chosen[i], axis=1)
            d[i] = np.inf
            dmin = min(dmin, d.min())
        assert dmin > 0.05

    def test_maxmin_matches_the_norm_loop(self):
        rng = make_rng(14)
        for dim in (2, 3):
            for _ in range(5):
                pts = rng.standard_normal((400, dim)) * rng.uniform(0.1, 10.0)
                got = maxmin_subsample(pts, 60)
                assert np.array_equal(got, maxmin_subsample_reference(pts, 60))

    def test_maxmin_lattice_ties_take_the_first_index(self):
        # On an integer lattice many points tie for the farthest; both
        # loops must pick the lowest index among them.
        for dim in (2, 3):
            axes = [np.arange(6.0)] * dim
            pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
            got = maxmin_subsample(pts, 30)
            assert np.array_equal(got, maxmin_subsample_reference(pts, 30))

    def test_maxmin_matches_on_the_lorenz_half_orbit(self):
        pts = integrate_lorenz(LorenzParams(), 8000).samples[4000:]
        assert np.array_equal(maxmin_subsample(pts, 300), maxmin_subsample_reference(pts, 300))

    def test_top_persistences_are_the_longest_lifetimes(self):
        ts = integrate_lorenz(LorenzParams(), 8000)
        res = attractor_h1_experiment(ts.samples[4000:], subsample=150, max_eps=10.0)
        pers = sorted((min(p.death, 10.0) - p.birth for p in of_degree(res.diagram, 1)), reverse=True)
        assert res.top_persistences == pers[:2]
        assert res.gap_ratio == pers[1] / pers[2]

    def test_lorenz_reports_two_loops(self):
        # Post-transient 40-time-unit window; earlier stretches pass
        # close to one wing focus and shrink that wing's hole.
        ts = integrate_lorenz(LorenzParams(), 8000)
        res = attractor_h1_experiment(ts.samples[4000:], subsample=150, max_eps=10.0)
        assert len(res.top_persistences) == 2
        pers = sorted(
            (min(p.death, 10.0) - p.birth for p in of_degree(res.diagram, 1)), reverse=True
        )
        assert pers[1] > 2.0
        assert res.gap_ratio > 2.0
