import math

import numpy as np
import pytest

from echolab.dynsys import LorenzParams, integrate_lorenz
from echolab.errors import DegenerateCloudError, FiltrationOrderError
from echolab.reservoir import make_rng
from echolab.topology import (
    hexagon_example_filtration,
    Filtration,
    PointCloud,
    attractor_h1_experiment,
    betti_numbers,
    boundary_matrix,
    cech_membership,
    maxmin_subsample,
    minimum_enclosing_ball,
    persistence,
    rips_filtration,
    squeeze_check,
)

from oracles import (
    HEXAGON_DEL1_TABLE,
    HEXAGON_DEL2_TABLE,
    HEXAGON_EDGES,
    HEXAGON_FACES,
    HEXAGON_VERTICES,
    brute_force_betti,
    hexagon_points,
    persistence_by_column_reduction,
)

SQRT3 = math.sqrt(3.0)


def unit_triangle():
    return PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, SQRT3 / 2.0]]))


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
        filt = rips_filtration(PointCloud(hexagon_points()), max_dim=2, max_eps=2.5)
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
        cloud = PointCloud(np.array([[0.0], [3.0]]))
        filt = rips_filtration(cloud, max_dim=1, max_eps=2.0)
        assert len(filt.of_dimension(0)) == 2
        assert len(filt.of_dimension(1)) == 0

    def test_duplicate_points_distance_zero(self):
        cloud = PointCloud(np.array([[1.0, 1.0], [1.0, 1.0]]))
        filt = rips_filtration(cloud, max_dim=1, max_eps=1.0)
        assert filt.of_dimension(1) == [(0, 1)]
        assert filt.simplices[-1][0] == 0.0

    def test_sorted_by_value_then_dim(self):
        filt = rips_filtration(PointCloud(hexagon_points()), max_dim=2, max_eps=2.5)
        assert filt.is_sorted()

    def test_csv_export(self):
        filt = rips_filtration(unit_triangle(), max_dim=1, max_eps=1.5)
        lines = filt.to_csv().splitlines()
        assert lines[0] == "eps,dim,vertices"
        assert lines[1].startswith("0,0,")


class TestCechMembership:
    def test_single_point(self):
        assert cech_membership(np.array([[2.0, 3.0]]), 1e-9)

    def test_unit_triangle_circumradius_threshold(self):
        # Circumradius oracle: R = 1 / sqrt(3) for the unit triangle.
        tri = unit_triangle().points
        assert not cech_membership(tri, 1.1)
        assert cech_membership(tri, 2.0 / SQRT3 + 1e-9)

    def test_collinear_span(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [4.0, 0.0]])
        assert cech_membership(pts, 4.0 + 1e-9)
        assert not cech_membership(pts, 3.9)

    def test_meb_matches_triangle_formula(self):
        rng = make_rng(0)
        for _ in range(50):
            pts = rng.uniform(-1, 1, (3, 2))
            _, r = minimum_enclosing_ball(pts)
            a = np.linalg.norm(pts[0] - pts[1])
            b = np.linalg.norm(pts[0] - pts[2])
            c = np.linalg.norm(pts[1] - pts[2])
            s0, s1, s2 = sorted([a, b, c])
            if s2**2 >= s0**2 + s1**2:
                expected = s2 / 2.0
            else:
                area = 0.25 * math.sqrt(
                    (s0 + s1 + s2) * (-s0 + s1 + s2) * (s0 - s1 + s2) * (s0 + s1 - s2)
                )
                expected = s0 * s1 * s2 / (4 * area)
            assert abs(r - expected) < 1e-9

    def test_meb_contains_all_points(self):
        rng = make_rng(1)
        for dim in (2, 3):
            pts = rng.standard_normal((30, dim))
            center, r = minimum_enclosing_ball(pts)
            assert np.max(np.linalg.norm(pts - center, axis=1)) <= r + 1e-9

    def test_meb_high_dim_small_set(self):
        rng = make_rng(2)
        pts = rng.standard_normal((4, 5))
        center, r = minimum_enclosing_ball(pts)
        assert np.max(np.linalg.norm(pts - center, axis=1)) <= r + 1e-9


class TestBoundaryMatrix:
    def hexagon_filtration(self, max_dim=2, max_eps=2.5):
        return rips_filtration(PointCloud(hexagon_points()), max_dim, max_eps)

    def test_del2_matches_printed_table(self):
        filt = self.hexagon_filtration()
        M = boundary_matrix(
            filt, 2, eps=1.9, col_order=HEXAGON_FACES, row_order=HEXAGON_EDGES
        )
        assert np.array_equal(M, HEXAGON_DEL2_TABLE)

    def test_del1_matches_printed_table(self):
        filt = self.hexagon_filtration()
        M = boundary_matrix(
            filt, 1, eps=1.9, col_order=HEXAGON_EDGES, row_order=HEXAGON_VERTICES
        )
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

    def test_example_filtration_matches_tables_without_orders(self):
        # The worked-example complex carries exact entry values, so the
        # printed tables are also reproducible through explicit orders.
        filt = hexagon_example_filtration()
        M2 = boundary_matrix(
            filt, 2, eps=1.9, col_order=HEXAGON_FACES, row_order=HEXAGON_EDGES
        )
        assert np.array_equal(M2, HEXAGON_DEL2_TABLE)


class TestBettiNumbers:
    def hexagon_filtration(self, max_dim):
        return rips_filtration(PointCloud(hexagon_points()), max_dim, max_eps=2.5)

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
            filt = rips_filtration(PointCloud(pts), max_dim=2, max_eps=1.5)
            assert betti_numbers(filt, eps) == brute_force_betti(pts, eps, 2)

    def test_euler_characteristic_consistency(self):
        filt = self.hexagon_filtration(max_dim=3)
        for eps in (0.5, 1.0, 1.2, SQRT3, 1.9, 2.0):
            restricted = filt.restrict(eps)
            chi_simplices = sum((-1) ** dim for _, dim, _ in restricted)
            betti = betti_numbers(filt, eps)
            chi_betti = sum((-1) ** k * b for k, b in enumerate(betti))
            assert chi_simplices == chi_betti


class TestPersistence:
    def test_single_point(self):
        filt = Filtration([(0.0, 0, (0,))])
        diag = persistence(filt)
        assert len(diag.pairs) == 1
        assert diag.pairs[0].degree == 0
        assert math.isinf(diag.pairs[0].death)

    def test_hexagon_example_pairs(self):
        diag = persistence(hexagon_example_filtration())
        h0 = diag.of_degree(0)
        infinite = [p for p in h0 if math.isinf(p.death)]
        finite = [p for p in h0 if not math.isinf(p.death)]
        assert len(infinite) == 1
        assert len(finite) == 5
        assert all(p.birth == 0.0 and p.death == 1.0 for p in finite)
        main = [p for p in diag.of_degree(1) if p.persistence > 1e-9]
        assert len(main) == 1
        assert main[0].birth == 1.0 and main[0].death == 2.0

    def test_hexagon_true_rips_pairs(self):
        # Honest Rips filtration: the hole dies at sqrt(3) and the
        # eight sqrt(3)-triangles enclose a void that the tetrahedra
        # fill at 2.
        filt = rips_filtration(PointCloud(hexagon_points()), max_dim=3, max_eps=2.5)
        diag = persistence(filt)
        h1 = [p for p in diag.of_degree(1) if p.persistence > 1e-6]
        assert len(h1) == 1
        assert np.isclose(h1[0].birth, 1.0) and np.isclose(h1[0].death, SQRT3)
        h2 = [p for p in diag.of_degree(2) if p.persistence > 1e-6]
        assert len(h2) == 1
        assert np.isclose(h2[0].birth, SQRT3) and np.isclose(h2[0].death, 2.0)

    def test_two_far_triangles(self):
        pts = np.vstack([unit_triangle().points, unit_triangle().points + [100.0, 0.0]])
        filt = rips_filtration(PointCloud(pts), max_dim=2, max_eps=5.0)
        diag = persistence(filt, max_eps=5.0)
        infinite_h0 = [p for p in diag.of_degree(0) if math.isinf(p.death)]
        assert len(infinite_h0) == 2
        h1_alive_above_1 = [
            p for p in diag.of_degree(1) if p.birth <= 1.0 and p.death > 1.0 + 1e-12
        ]
        assert h1_alive_above_1 == []

    def test_betti_curve_matches_rank_computation(self):
        rng = make_rng(9)
        pts = rng.uniform(0, 1, (14, 2))
        filt = rips_filtration(PointCloud(pts), max_dim=2, max_eps=1.5)
        diag = persistence(filt)
        for eps in (0.1, 0.25, 0.4, 0.6, 0.9, 1.2):
            betti = brute_force_betti(pts, eps, 2)
            curve = diag.betti_at(eps)
            for k, b in enumerate(betti):
                assert curve.get(k, 0) == b, f"mismatch at eps={eps}, degree {k}"

    def test_beta0_monotone_in_eps(self):
        rng = make_rng(10)
        pts = rng.uniform(0, 1, (20, 2))
        filt = rips_filtration(PointCloud(pts), max_dim=1, max_eps=1.5)
        diag = persistence(filt)
        grid = np.linspace(0.01, 1.4, 30)
        b0 = [diag.betti_at(e).get(0, 0) for e in grid]
        assert all(a >= b for a, b in zip(b0, b0[1:]))

    def test_unsorted_filtration_rejected(self):
        filt = Filtration([(1.0, 0, (0,)), (0.0, 0, (1,))])
        with pytest.raises(FiltrationOrderError):
            persistence(filt)

    def test_stability_under_perturbation(self):
        # Bottleneck stability smoke test: a delta-perturbation moves
        # every finite birth/death by at most 2 * delta.
        delta = 0.01
        rng = make_rng(11)
        base = hexagon_points()
        noisy = base + rng.uniform(-delta / 2, delta / 2, base.shape)
        diag_a = persistence(rips_filtration(PointCloud(base), 2, 2.5))
        diag_b = persistence(rips_filtration(PointCloud(noisy), 2, 2.5))
        for degree in (0, 1):
            fa = sorted(
                [(p.birth, p.death) for p in diag_a.of_degree(degree) if p.persistence > 4 * delta and not math.isinf(p.death)]
            )
            fb = sorted(
                [(p.birth, p.death) for p in diag_b.of_degree(degree) if p.persistence > 4 * delta and not math.isinf(p.death)]
            )
            assert len(fa) == len(fb)
            for (b1, d1), (b2, d2) in zip(fa, fb):
                assert abs(b1 - b2) <= 2 * delta
                assert abs(d1 - d2) <= 2 * delta

    def test_diagram_csv(self):
        filt = Filtration([(0.0, 0, (0,))])
        text = persistence(filt).to_csv()
        assert text.splitlines()[0] == "degree,birth,death"
        assert "inf" in text


class TestPersistenceMatchesColumnReduction:
    """Cohomology with clearing pairs exactly as boundary-column reduction."""

    @staticmethod
    def assert_same_diagram(filt, max_eps=None):
        got = persistence(filt, max_eps=max_eps)
        want = persistence_by_column_reduction(filt, max_eps=max_eps)
        assert [(p.degree, p.birth, p.death, p.truncated) for p in got.pairs] == [
            (p.degree, p.birth, p.death, p.truncated) for p in want.pairs
        ]
        assert got.to_csv() == want.to_csv()
        assert got.max_eps == want.max_eps

    def assert_same_as_experiment(self, res):
        filt = rips_filtration(PointCloud(res.landmarks), max_dim=2, max_eps=res.max_eps)
        self.assert_same_diagram(filt, max_eps=res.max_eps)

    def test_hexagon_example(self):
        self.assert_same_diagram(hexagon_example_filtration())

    def test_true_rips_hexagon(self):
        filt = rips_filtration(PointCloud(hexagon_points()), max_dim=3, max_eps=2.5)
        self.assert_same_diagram(filt)

    def test_random_clouds(self):
        rng = make_rng(21)
        for trial in range(20):
            pts = rng.uniform(0, 1, (15, 2))
            max_eps = float(rng.uniform(0.3, 1.5))
            filt = rips_filtration(PointCloud(pts), max_dim=3, max_eps=max_eps)
            self.assert_same_diagram(filt, max_eps=max_eps if trial % 2 else None)

    def test_circle_and_figure_eight(self):
        angles = np.linspace(0, 2 * np.pi, 200, endpoint=False)
        circle = np.column_stack([np.cos(angles), np.sin(angles)])
        self.assert_same_as_experiment(attractor_h1_experiment(circle, subsample=50))
        eight = np.vstack([circle - [1.0, 0.0], circle + [1.0, 0.0]])
        self.assert_same_as_experiment(attractor_h1_experiment(eight, subsample=100))

    def test_lorenz_landmarks(self):
        ts = integrate_lorenz(LorenzParams(), 8000)
        res = attractor_h1_experiment(ts.samples[4000:], subsample=150, max_eps=10.0)
        self.assert_same_as_experiment(res)

    def test_empty_and_vertex_only(self):
        self.assert_same_diagram(Filtration([]))
        self.assert_same_diagram(Filtration([(0.0, 0, (0,)), (0.5, 0, (1,)), (0.5, 0, (3,))]))

    def test_non_contiguous_vertex_labels(self):
        simplices = [(0.0, 0, (0,)), (0.0, 0, (1,)), (0.0, 0, (3,)), (1.0, 1, (0, 1)),
                     (1.0, 1, (0, 3)), (1.0, 1, (1, 3)), (2.0, 2, (0, 1, 3))]
        self.assert_same_diagram(Filtration(simplices))

    def test_missing_face_rejected(self):
        vertices = [(0.0, 0, (0,)), (0.0, 0, (1,)), (0.0, 0, (3,))]
        no_edge = vertices + [(1.0, 1, (0, 1)), (1.0, 1, (1, 3)), (1.0, 2, (0, 1, 3))]
        no_vertex = vertices + [(1.0, 1, (0, 2))]
        for simplices in (no_edge, no_vertex):
            with pytest.raises(ValueError, match="closed under taking faces"):
                persistence(Filtration(simplices))


class TestSqueezeCheck:
    def test_single_point(self):
        assert squeeze_check(PointCloud(np.zeros((1, 2))), 1.0)

    def test_unit_triangle(self):
        assert squeeze_check(unit_triangle(), 1.0)

    def test_random_planar_clouds(self):
        rng = make_rng(12)
        for trial in range(10):
            pts = rng.uniform(0, 1, (30, 2))
            for eps in rng.uniform(0.05, 1.0, 4):
                assert squeeze_check(PointCloud(pts), float(eps))


class TestAttractorExperiment:
    def test_circle_has_one_dominant_loop(self):
        angles = np.linspace(0, 2 * np.pi, 200, endpoint=False)
        pts = np.column_stack([np.cos(angles), np.sin(angles)])
        res = attractor_h1_experiment(pts, subsample=50)
        pers = sorted(
            (min(p.death, res.max_eps) - p.birth for p in res.diagram.of_degree(1)),
            reverse=True,
        )
        assert pers[0] > 0.5
        assert all(p < 0.1 for p in pers[1:])

    def test_figure_eight_has_two_loops(self):
        angles = np.linspace(0, 2 * np.pi, 200, endpoint=False)
        left = np.column_stack([np.cos(angles) - 1.0, np.sin(angles)])
        right = np.column_stack([np.cos(angles) + 1.0, np.sin(angles)])
        pts = np.vstack([left, right])
        res = attractor_h1_experiment(pts, subsample=100)
        assert len(res.top_pairs) == 2
        pers = sorted(
            (min(p.death, res.max_eps) - p.birth for p in res.diagram.of_degree(1)),
            reverse=True,
        )
        assert pers[1] > 0.4
        assert res.gap_ratio > 2.0

    def test_degenerate_cloud_rejected(self):
        with pytest.raises(DegenerateCloudError):
            attractor_h1_experiment(np.ones((300, 3)), subsample=50)

    def test_subsample_minimum(self):
        with pytest.raises(ValueError):
            attractor_h1_experiment(np.random.default_rng(0).normal(size=(100, 2)), subsample=10)

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

    def test_lorenz_reports_two_loops(self):
        # Post-transient 40-time-unit window; earlier stretches pass
        # close to one wing focus and shrink that wing's hole.
        ts = integrate_lorenz(LorenzParams(), 8000)
        res = attractor_h1_experiment(ts.samples[4000:], subsample=150, max_eps=10.0)
        assert len(res.top_pairs) == 2
        pers = sorted(
            (min(p.death, res.max_eps) - p.birth for p in res.diagram.of_degree(1)),
            reverse=True,
        )
        assert pers[1] > 2.0
        assert res.gap_ratio > 2.0
