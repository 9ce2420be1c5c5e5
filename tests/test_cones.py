"""Polyhedral cone model: constructions, sections, scaling, simplices."""

import itertools
import math

import numpy as np
import pytest

from freespec import cones
from freespec.cones import (
    ConeConstructionError,
    PolyhedralCone,
    SimplexCone,
    cone_from_json,
    cone_to_json,
    find_sandwich_simplex,
    is_centrally_symmetric,
    is_simplex,
    max_volume_inscribed_simplex,
    rays_equal,
    scaled_cone,
    section_of,
    square_cone,
)

H = [0.0, 0.0, 1.0]


def triangle_cone():
    return PolyhedralCone.from_generators(
        np.array([[1.0, 0.0, 1.0], [-1.0, -1.0, 1.0], [0.0, 1.0, 1.0]]),
        unit=np.array([0.0, 0.0, 1.0]),
    )


def pentagon_cone():
    pts = [
        [math.cos(2 * math.pi * k / 5), math.sin(2 * math.pi * k / 5), 1.0]
        for k in range(5)
    ]
    return PolyhedralCone.from_generators(np.array(pts), unit=np.array([0.0, 0.0, 1.0]))


def hexagon_cone():
    pts = [
        [math.cos(math.pi * k / 3), math.sin(math.pi * k / 3), 1.0] for k in range(6)
    ]
    return PolyhedralCone.from_generators(np.array(pts), unit=np.array([0.0, 0.0, 1.0]))


class TestSquareCone:
    def test_generators(self):
        sq = square_cone()
        assert np.array_equal(sq.generators[0], [1.0, -1.0, 1.0])
        assert np.array_equal(sq.generators[1], [-1.0, 1.0, 1.0])

    def test_facet_normalization(self):
        sq = square_cone()
        assert np.allclose(sq.facets @ sq.unit, np.ones(4))

    def test_facet_at_generator(self):
        sq = square_cone()
        # facet c - a evaluated at (-1, 1, 1)
        assert sq.facets[0] @ np.array([-1.0, 1.0, 1.0]) == pytest.approx(2.0)
        assert np.min(sq.generators @ sq.facets.T) >= 0.0


class TestIsSimplex:
    def test_orthant(self):
        orth = PolyhedralCone.from_generators(np.eye(3), unit=np.ones(3))
        assert is_simplex(orth)

    def test_square_is_not(self):
        assert not is_simplex(square_cone())

    def test_pentagon_is_not(self):
        assert not is_simplex(pentagon_cone())


class TestConstruction:
    def test_facets_recomputed_match(self):
        sq = square_cone()
        rebuilt = PolyhedralCone(sq.generators, sq.unit)  # no facets given
        got = {tuple(np.round(f, 9)) for f in rebuilt.facets}
        want = {tuple(np.round(f, 9)) for f in sq.facets}
        assert got == want

    def test_generators_from_facets(self):
        sq = square_cone()
        rebuilt = PolyhedralCone.from_facets(sq.facets, sq.unit)
        assert rays_equal(rebuilt.generators, sq.generators)

    def test_repeated_generators_rejected(self):
        gens = np.array([[1.0, 0, 1], [2.0, 0, 2], [-1, 0, 1], [0, 1, 1], [0, -1, 1]])
        with pytest.raises(ConeConstructionError, match="repeated"):
            PolyhedralCone.from_generators(gens, unit=np.array([0.0, 0.0, 1.0]))

    def test_unit_on_boundary_rejected(self):
        with pytest.raises(ConeConstructionError):
            PolyhedralCone(square_cone().generators, np.array([1.0, 0.0, 1.0]))

    def test_non_salient_rejected(self):
        gens = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        with pytest.raises(ConeConstructionError):
            PolyhedralCone.from_generators(gens, unit=np.array([0.0, 0.5, 1.0]))

    def test_interior_ray_rejected(self):
        gens = np.vstack([square_cone().generators, [0.0, 0.0, 1.0]])
        with pytest.raises(ConeConstructionError, match="extreme"):
            PolyhedralCone.from_generators(gens, unit=np.array([0.0, 0.0, 1.0]))

    def test_simplex_cone_requires_d_generators(self):
        with pytest.raises(ConeConstructionError, match="simplex"):
            SimplexCone(square_cone().generators, square_cone().unit)


class TestVHConsistency:
    def test_random_sections(self):
        rng = np.random.default_rng(21)
        built = 0
        while built < 12:
            d = int(rng.integers(2, 5))
            n_pts = int(rng.integers(d, 9))
            pts = rng.standard_normal((n_pts, d - 1))
            gens = np.hstack([pts, np.ones((n_pts, 1))])
            try:
                cone = PolyhedralCone.from_generators(
                    gens, unit=np.concatenate([pts.mean(axis=0), [1.0]])
                )
            except ConeConstructionError:
                continue  # degenerate random draw (non-extreme points etc.)
            built += 1
            vals = cone.generators @ cone.facets.T
            scale = 1 + np.max(np.abs(cone.generators))
            assert vals.min() >= -1e-9 * scale
            for j in range(cone.n_facets):
                assert np.sum(np.abs(vals[:, j]) <= 1e-7 * scale) >= d - 1


class TestRaysEqual:
    """Set equality of rays, up to positive scale and GEOM_TOL per
    coordinate of the unit rays, counted with multiplicity."""

    RAYS = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]])

    def test_permuted_and_rescaled(self):
        rng = np.random.default_rng(23)
        for perm in itertools.permutations(range(4)):
            scales = rng.uniform(0.1, 10.0, 4)[:, None]
            assert rays_equal(self.RAYS, self.RAYS[list(perm)] * scales)
        assert not rays_equal(self.RAYS, self.RAYS[:3])

    @pytest.mark.parametrize("factor, equal", [(0.9, True), (1.1, False)])
    def test_perturbed_about_the_tolerance(self, factor, equal):
        # the shift is orthogonal to the first ray, so its unit vector moves
        # by factor * GEOM_TOL in one coordinate
        moved = self.RAYS.copy()
        moved[0, 0] = factor * cones.GEOM_TOL
        assert rays_equal(self.RAYS, moved[::-1]) is equal
        assert rays_equal(moved, self.RAYS) is equal

    def test_repeated_ray(self):
        r, q, p = self.RAYS[:3]
        assert rays_equal(np.array([r, r, q]), np.array([q, 2.0 * r, r]))
        assert not rays_equal(np.array([r, r, q]), np.array([r, q, q]))
        assert not rays_equal(np.array([r, r, q]), np.array([r, q, p]))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_zero_row_is_no_ray(self):
        zero = np.zeros((1, 3))
        assert not rays_equal(np.vstack([zero, self.RAYS]), np.vstack([zero, self.RAYS]))


class TestScaledCone:
    def test_identity_scale(self):
        sq = square_cone()
        assert rays_equal(scaled_cone(sq, 1.0, H).generators, sq.generators)

    def test_half_scale(self):
        got = scaled_cone(square_cone(), 0.5, H).generators
        want = np.array([[0.5, -0.5, 1], [-0.5, 0.5, 1], [0.5, 0.5, 1], [-0.5, -0.5, 1]])
        assert rays_equal(got, want)

    def test_third_scale_slack(self):
        sq = square_cone()
        sc = scaled_cone(sq, 1.0 / 3.0, H)
        for g in sc.generators:
            assert np.min(sq.facet_values(g)) >= 2.0 / 3.0 - 1e-12

    def test_composition(self):
        sq = square_cone()
        a = scaled_cone(scaled_cone(sq, 0.7, H), 0.4, H)
        b = scaled_cone(sq, 0.28, H)
        assert rays_equal(a.generators, b.generators)

    def test_monotonicity(self):
        sq = pentagon_cone()
        small = scaled_cone(sq, 0.3, H)
        big = scaled_cone(sq, 0.6, H)
        for g in small.generators:
            assert np.min(big.facet_values(g)) >= -1e-9

    def test_range_check(self):
        with pytest.raises(ValueError):
            scaled_cone(square_cone(), 0.0, H)
        with pytest.raises(ValueError):
            scaled_cone(square_cone(), 1.5, H)

    def test_bad_hyperplane(self):
        # normal orthogonal to some generators: section unbounded
        with pytest.raises(ValueError):
            scaled_cone(square_cone(), 0.5, [1.0, 0.0, 0.0])


class TestCentralSymmetry:
    def test_square(self):
        assert is_centrally_symmetric(square_cone(), H)

    def test_triangle(self):
        assert not is_centrally_symmetric(triangle_cone(), H)

    def test_hexagon(self):
        assert is_centrally_symmetric(hexagon_cone(), H)


class TestMaxVolumeSimplex:
    def test_square_section(self):
        res = max_volume_inscribed_simplex(square_cone(), H)
        assert res.volume == pytest.approx(2.0, abs=1e-12)

    def test_triangle_is_itself(self):
        tri = triangle_cone()
        res = max_volume_inscribed_simplex(tri, H)
        assert rays_equal(res.simplex.generators, tri.generators)

    def test_hexagon_alternating(self):
        # brute-force oracle over all vertex triples (shoelace area)
        res = max_volume_inscribed_simplex(hexagon_cone(), H)
        sec = section_of(hexagon_cone(), H)
        best = 0.0
        for subset in itertools.combinations(range(6), 3):
            pts = sec.vertices[list(subset)]
            area = abs(np.linalg.det(pts[1:] - pts[0])) / 2.0
            best = max(best, area)
        assert res.volume == pytest.approx(best, abs=1e-12)
        assert best == pytest.approx(3.0 * math.sqrt(3.0) / 4.0, abs=1e-12)
        assert tuple(sorted(res.vertex_indices)) in ((0, 2, 4), (1, 3, 5))

    @pytest.mark.parametrize(
        "verts, volume",
        [
            # regular octahedron: a tetrahedron on four of its vertices
            (np.vstack([np.eye(3), -np.eye(3)]), 1.0 / 3.0),
            # cube: a regular tetrahedron on alternate corners
            (np.array(list(itertools.product((-1.0, 1.0), repeat=3))), 8.0 / 3.0),
        ],
    )
    def test_three_dimensional_sections(self, verts, volume):
        # brute-force oracle over all vertex 4-subsets of a d = 4 cone
        gens = np.column_stack([verts, np.ones(len(verts))])
        cone = PolyhedralCone.from_generators(gens, unit=np.array([0.0, 0.0, 0.0, 1.0]))
        h4 = [0.0, 0.0, 0.0, 1.0]
        res = max_volume_inscribed_simplex(cone, h4)
        sec = section_of(cone, h4)
        best = 0.0
        for subset in itertools.combinations(range(len(verts)), 4):
            pts = sec.vertices[list(subset)]
            best = max(best, abs(np.linalg.det(pts[1:] - pts[0])) / 6.0)
        assert res.volume == pytest.approx(best, abs=1e-12)
        assert best == pytest.approx(volume, abs=1e-12)
        pts = sec.vertices[list(res.vertex_indices)]
        assert abs(np.linalg.det(pts[1:] - pts[0])) / 6.0 == pytest.approx(best, abs=1e-12)


class TestSandwichSimplex:
    def test_square_one_third(self):
        sq = square_cone()
        s = find_sandwich_simplex(sq, 1.0 / 3.0, H)
        assert s is not None
        self._check_certificate(sq, 1.0 / 3.0, s)

    def test_square_09_not_found(self):
        assert find_sandwich_simplex(square_cone(), 0.9, H) is None

    def test_simplex_identity(self):
        tri = triangle_cone()
        s = find_sandwich_simplex(tri, 1.0, H)
        assert s is not None
        assert rays_equal(
            s.generators / np.linalg.norm(s.generators, axis=1)[:, None],
            tri.generators / np.linalg.norm(tri.generators, axis=1)[:, None],
        )

    def test_certificate_always_passes(self):
        rng = np.random.default_rng(31)
        for cone in (square_cone(), pentagon_cone(), hexagon_cone()):
            for nu in (0.2, 0.3, 1.0 / 3.0):
                s = find_sandwich_simplex(cone, nu, H)
                if s is not None:
                    self._check_certificate(cone, nu, s)

    @pytest.mark.parametrize("make", [square_cone, pentagon_cone, hexagon_cone])
    def test_best_factor_matches_triangle_loop(self, make):
        # reference: every pool triangle, its edges' half-planes by hand
        cone = make()
        sec = section_of(cone, H)
        pool = cones._sandwich_candidates(sec)
        best = 0.0
        for tri in itertools.combinations(pool, 3):
            if abs(np.linalg.det(np.array([tri[1] - tri[0], tri[2] - tri[0]]))) <= 1e-9:
                continue
            nu = 1.0
            for a, b, o in ((tri[0], tri[1], tri[2]), (tri[1], tri[2], tri[0]),
                            (tri[2], tri[0], tri[1])):
                n = np.array([a[1] - b[1], b[0] - a[0]])
                n = n if n @ (o - a) > 0 else -n
                for z in sec.vertices:  # n.(nu*z - a) >= 0
                    if n @ z < 0:
                        nu = min(nu, max(0.0, -(n @ a)) / -(n @ z))
            best = max(best, nu)
        got, simplex = cones.best_sandwich_simplex(cone, H)
        assert got == pytest.approx(best, abs=1e-12)
        self._check_certificate(cone, got, simplex)

    @staticmethod
    def _check_certificate(cone, nu, simplex):
        sec_c = section_of(cone, H)
        sec_s = section_of(simplex, H)
        for v in sec_s.vertices:
            assert np.min(1.0 + sec_c.facet_rows @ v) >= -1e-9
        for v in nu * sec_c.vertices:
            assert np.min(1.0 + sec_s.facet_rows @ v) >= -1e-9


class TestJson:
    def test_round_trip(self):
        sq = square_cone()
        doc = cone_to_json(sq)
        back = cone_from_json(doc)
        assert np.array_equal(back.generators, sq.generators)
        assert np.array_equal(back.facets, sq.facets)
        assert np.array_equal(back.unit, sq.unit)

    def test_facets_optional(self):
        doc = cone_to_json(square_cone())
        del doc["facets"]
        back = cone_from_json(doc)
        got = {tuple(np.round(f, 9)) for f in back.facets}
        want = {tuple(np.round(f, 9)) for f in square_cone().facets}
        assert got == want

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing"):
            cone_from_json({"d": 3, "unit": [0, 0, 1]})


# -- the per-subset enumeration, kept as the reference for the batched one ----


def _reference_null_vector(rows):
    d = rows.shape[1]
    _, sv, vt = np.linalg.svd(rows, full_matrices=True)
    rank = int(np.sum(sv > cones.GEOM_TOL * max(1.0, sv[0] if len(sv) else 1.0)))
    return vt[-1] if rank == d - 1 else None


def _reference_dedupe(rows, tol=1e-8):
    out = []
    for r in rows:
        if not any(np.max(np.abs(r - q)) <= tol for q in out):
            out.append(r)
    return np.array(out)


def _reference_facets(g, u):
    m, d = g.shape
    scale = max(1.0, float(np.max(np.abs(g))))
    cands = []
    for subset in itertools.combinations(range(m), d - 1):
        n = _reference_null_vector(g[list(subset)])
        if n is None:
            continue
        vals = g @ n
        if float(vals.min()) >= -cones.GEOM_TOL * scale:
            cands.append(n)
        elif float(vals.max()) <= cones.GEOM_TOL * scale:
            cands.append(-n)
    cands = _reference_dedupe(cands)
    cands = cands * np.sign(cands @ u)[:, None]
    return cands / (cands @ u)[:, None]


def _reference_rays(f, u):
    k, d = f.shape
    f = f / (f @ u)[:, None]
    scale = max(1.0, float(np.max(np.abs(f))))
    rays = []
    for subset in itertools.combinations(range(k), d - 1):
        r = _reference_null_vector(f[list(subset)])
        if r is None:
            continue
        vals = f @ r
        if np.all(vals >= -cones.GEOM_TOL * scale):
            rays.append(r)
        elif np.all(-vals >= -cones.GEOM_TOL * scale):
            rays.append(-r)
    rays = [r / np.linalg.norm(r) for r in rays if np.linalg.norm(r) > cones.GEOM_TOL]
    kept = []
    for r in rays:
        tight = f[np.abs(f @ r) <= 1e-8]
        if len(tight) >= d - 1 and np.linalg.matrix_rank(tight, tol=1e-10) == d - 1:
            kept.append(r)
    return _reference_dedupe(kept)


def _polygon(k, rotation):
    ang = rotation + 2 * math.pi * np.arange(k) / k
    return np.column_stack([np.cos(ang), np.sin(ang), np.ones(k)])


class TestBatchedEnumeration:
    """Facets and rays from the batched SVDs, bit for bit those of the
    per-subset loop."""

    def test_facets_of_polygons_and_simplices(self):
        rng = np.random.default_rng(61)
        cases = [(_polygon(k, rng.uniform(0, 2 * math.pi)), np.array([0.0, 0.0, 1.0]))
                 for k in range(3, 17) for _ in range(3)]
        for d in range(2, 7):
            for _ in range(6):
                g = np.eye(d) + 0.35 * rng.standard_normal((d, d))
                cases.append((g, (g / np.linalg.norm(g, axis=1)[:, None]).sum(axis=0)))
        built = 0
        for g, u in cases:
            try:
                cone = PolyhedralCone.from_generators(g, unit=u)
            except ConeConstructionError:
                continue
            built += 1
            assert cone.facets.tobytes() == _reference_facets(g, u).tobytes()
        assert built >= 60

    def test_rays_of_the_cube_and_scaled_cones(self):
        cube = np.vstack([np.eye(4)[3] + np.eye(4)[:3], np.eye(4)[3] - np.eye(4)[:3]])
        unit = np.eye(4)[3]
        cases = [(cube, unit)]
        for base in (square_cone(), pentagon_cone(), hexagon_cone()):
            for nu in (0.3, 0.5, 0.9):
                sc = scaled_cone(base, nu, H)
                cases.append((sc.facets, sc.unit))
        for f, u in cases:
            cone = PolyhedralCone.from_facets(f, u)
            assert cone.generators.tobytes() == _reference_rays(f, u).tobytes()
        assert len(PolyhedralCone.from_facets(cube, unit).generators) == 8

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: PolyhedralCone(square_cone().generators, square_cone().unit,
                                    facets=square_cone().facets[:3]),
             "generator 0 is not an extreme ray"),
            (lambda: PolyhedralCone(square_cone().generators, square_cone().unit,
                                    facets=np.vstack([square_cone().facets, [[0.3, 0.2, 1.0]]])),
             "facet 4 is not supported by d-1 generators"),
            (lambda: PolyhedralCone(np.eye(2), np.array([1.0, -0.5])),
             "generator violates a facet by 2.000e+00"),
            (lambda: PolyhedralCone.from_generators(
                np.array([[1.0, 0, 1], [2.0, 0, 2], [-1, 0, 1], [0, 1, 1], [0, -1, 1]]),
                unit=np.array([0.0, 0.0, 1.0])),
             "generators 0 and 1 are repeated rays"),
        ],
    )
    def test_rejections_name_the_first_offender(self, make, message):
        with pytest.raises(ConeConstructionError) as err:
            make()
        assert str(err.value) == message
