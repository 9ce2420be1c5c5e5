"""Pencil evaluation, membership classification, canonical pencils."""

import math

import numpy as np
import pytest

from freespec import cones, linalg, pencil
from freespec.linalg import SIGMA_X, SIGMA_Z, HermitianMatrix
from freespec.pencil import (
    Classification,
    LinearPencil,
    MatrixTuple,
    circular_cone_pencil,
    diagonal_pencil,
    elliptic_cone_pencil,
    evaluate,
    membership,
)

from conftest import point_tuple, unit_tuple


def sz_sx_i():
    return MatrixTuple.of(SIGMA_Z, SIGMA_X, np.eye(2))


class TestLinearPencil:
    def test_unit_normalization_exact(self):
        p = elliptic_cone_pencil(0.3)
        t = sum(u * m.mat for u, m in zip(p.unit, p.matrices))
        assert np.max(np.abs(t - np.eye(2))) < 1e-14

    def test_small_drift_corrected(self):
        mats = [SIGMA_Z, SIGMA_X, (1 + 5e-9) * np.eye(2)]
        p = LinearPencil(mats, np.array([0.0, 0.0, 1.0]))
        t = sum(u * m.mat for u, m in zip(p.unit, p.matrices))
        assert np.max(np.abs(t - np.eye(2))) < 1e-12

    def test_large_drift_rejected(self):
        mats = [SIGMA_Z, SIGMA_X, 1.5 * np.eye(2)]
        with pytest.raises(ValueError, match="order unit"):
            LinearPencil(mats, np.array([0.0, 0.0, 1.0]))

    def test_dependent_matrices_warn(self):
        with pytest.warns(UserWarning, match="linearly dependent"):
            LinearPencil(
                [np.eye(2), 0.5 * np.eye(2), SIGMA_X],
                np.array([1.0, 0.0, 0.0]),
            )


class TestEvaluate:
    def test_square_diagonal_blocks(self):
        dp = diagonal_pencil(cones.square_cone())
        ev = evaluate(dp, sz_sx_i())
        # facet order c-a, c+a, c-b, c+b: blocks I-sz, I+sz, I-sx, I+sx
        eye = np.eye(2)
        expected_blocks = [eye - SIGMA_Z, eye + SIGMA_Z, eye - SIGMA_X, eye + SIGMA_X]
        # blocks appear interleaved: row k of the diagonal pencil pairs facet
        # k with the tuple; reconstruct by reading 2x2 blocks at stride 4
        for k, blk in enumerate(expected_blocks):
            rows = slice(2 * k, 2 * k + 2)
            got = ev[np.ix_(range(8), range(8))][2 * k : 2 * k + 2, 2 * k : 2 * k + 2]
            assert np.allclose(got, blk)

    def test_unit_gives_identity(self):
        for p in (elliptic_cone_pencil(0.7), circular_cone_pencil()):
            ev = evaluate(p, point_tuple(p.unit))
            assert np.allclose(ev, np.eye(p.r))

    def test_elliptic_at_pauli_tuple(self):
        ev = evaluate(elliptic_cone_pencil(math.pi / 4), sz_sx_i())
        assert linalg.eigh(ev)[0][0] == pytest.approx(1 - math.sqrt(2), abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(circular_cone_pencil(), MatrixTuple.of(SIGMA_Z, SIGMA_X))


class TestMembership:
    def test_boundary_vertex(self):
        res = membership(elliptic_cone_pencil(math.pi / 4), point_tuple([1, -1, 1]))
        assert res.classification is Classification.BOUNDARY
        assert res.margin == pytest.approx(0.0, abs=1e-12)

    def test_outside_level2(self):
        res = membership(elliptic_cone_pencil(math.pi / 4), sz_sx_i())
        assert res.classification is Classification.OUTSIDE
        assert res.margin == pytest.approx(1 - math.sqrt(2), abs=1e-9)

    def test_unit_inside_margin_one(self):
        p = elliptic_cone_pencil(1.0)
        res = membership(p, point_tuple(p.unit))
        assert res.classification is Classification.INSIDE
        assert res.margin == pytest.approx(1.0, abs=1e-12)


class TestDiagonalPencil:
    def test_square_matrices(self):
        dp = diagonal_pencil(cones.square_cone())
        assert np.allclose(dp.matrices[0].mat, np.diag([-1.0, 1.0, 0.0, 0.0]))
        assert np.allclose(dp.matrices[1].mat, np.diag([0.0, 0.0, -1.0, 1.0]))
        assert np.allclose(dp.matrices[2].mat, np.eye(4))

    def test_positive_orthant(self):
        orth = cones.PolyhedralCone.from_generators(np.eye(2), unit=np.array([1.0, 1.0]))
        dp = diagonal_pencil(orth)
        mats = sorted((tuple(np.round(np.diag(m.mat).real, 9)) for m in dp.matrices))
        assert mats == [(0.0, 1.0), (1.0, 0.0)]

    def test_level_s_equals_facetwise_positivity(self):
        from freespec.opsys import max_membership

        sq = cones.square_cone()
        dp = diagonal_pencil(sq)
        rng = np.random.default_rng(41)
        for _ in range(25):
            a = MatrixTuple(tuple(linalg.random_hermitian(rng, 2) for _ in range(3)))
            assert membership(dp, a).classification is max_membership(sq, a).classification

    def test_level1_matches_facets_on_random_rays(self):
        sq = cones.square_cone()
        dp = diagonal_pencil(sq)
        rng = np.random.default_rng(42)
        agree = 0
        for _ in range(1000):
            x = rng.standard_normal(3)
            inside_facets = bool(np.all(sq.facets @ x >= 0))
            res = membership(dp, point_tuple(x), tol=0.0)
            inside_pencil = res.classification is not Classification.OUTSIDE
            assert inside_facets == inside_pencil
            agree += 1
        assert agree == 1000


class TestElliptic:
    def test_alpha_quarter_pi(self):
        p = elliptic_cone_pencil(math.pi / 4)
        assert np.allclose(p.matrices[0].mat, (math.sqrt(2) / 2) * SIGMA_Z)

    def test_square_vertices_on_boundary_for_every_alpha(self):
        sq = cones.square_cone()
        for alpha in (0.2, 0.7, math.pi / 4, 1.4):
            p = elliptic_cone_pencil(alpha)
            for g in sq.generators:
                res = membership(p, point_tuple(g))
                assert res.classification is Classification.BOUNDARY

    def test_small_alpha_strip(self):
        res = membership(elliptic_cone_pencil(0.05), point_tuple([1.9, 0, 1]))
        assert res.classification is Classification.INSIDE

    def test_range_check(self):
        for bad in (0.0, math.pi / 2, -0.3):
            with pytest.raises(ValueError):
                elliptic_cone_pencil(bad)


class TestCircular:
    def test_boundary_point(self):
        res = membership(circular_cone_pencil(), point_tuple([0.6, 0.8, 1.0]))
        assert res.classification is Classification.BOUNDARY

    def test_unit_inside(self):
        res = membership(circular_cone_pencil(), point_tuple([0, 0, 1]))
        assert res.classification is Classification.INSIDE
        assert res.margin == pytest.approx(1.0)

    def test_outside(self):
        res = membership(circular_cone_pencil(), point_tuple([1, 1, 1]))
        assert res.classification is Classification.OUTSIDE
        # level 2: the commuting Kronecker terms of (sigma_z, sigma_x, I)
        # give eigenvalues 1 + (+-1 +- 1), so the margin is -1
        res = membership(circular_cone_pencil(), sz_sx_i())
        assert res.classification is Classification.OUTSIDE
        assert res.margin == pytest.approx(-1.0, abs=1e-9)


class TestOperatorSystemClosure:
    def test_congruence_closure(self):
        rng = np.random.default_rng(43)
        p = elliptic_cone_pencil(0.9)
        for _ in range(20):
            # random member at level 3 built from the unit plus a small bump
            a = MatrixTuple(
                tuple(
                    linalg.hermitian(u * np.eye(3) + 0.2 * linalg.random_hermitian(rng, 3))
                    for u in p.unit
                )
            )
            if membership(p, a).classification is Classification.OUTSIDE:
                continue
            s, t = 3, int(rng.integers(1, 4))
            v = rng.standard_normal((s, t)) + 1j * rng.standard_normal((s, t))
            b = MatrixTuple(tuple(linalg.hermitian(v.conj().T @ e.mat @ v) for e in a.entries))
            res = membership(p, b, tol=1e-9)
            assert res.margin >= -1e-9 * (1 + float(np.max(np.abs(v)) ** 2))

    def test_direct_sums(self):
        rng = np.random.default_rng(44)
        p = circular_cone_pencil()
        def rand_member(s):
            while True:
                a = MatrixTuple(
                    tuple(
                        linalg.hermitian(u * np.eye(s) + 0.3 * linalg.random_hermitian(rng, s))
                        for u in p.unit
                    )
                )
                if membership(p, a).classification is not Classification.OUTSIDE:
                    return a
        for _ in range(10):
            a, b = rand_member(2), rand_member(3)
            entries = []
            for ea, eb in zip(a.entries, b.entries):
                blk = np.zeros((5, 5), dtype=complex)
                blk[:2, :2] = ea.mat
                blk[2:, 2:] = eb.mat
                entries.append(linalg.hermitian(blk))
            res = membership(p, MatrixTuple(tuple(entries)), tol=1e-9)
            assert res.margin >= -1e-9

    def test_unit_tuple_inside_all_levels(self):
        for p in (elliptic_cone_pencil(0.4), circular_cone_pencil()):
            for s in (1, 2, 3, 4):
                res = membership(p, unit_tuple(p.unit, s))
                assert res.classification is Classification.INSIDE
                assert res.margin == pytest.approx(1.0, abs=1e-12)


class TestJsonFormats:
    def test_pencil_round_trip(self):
        p = elliptic_cone_pencil(0.8)
        q = pencil.pencil_from_json(pencil.pencil_to_json(p))
        for a, b in zip(p.matrices, q.matrices):
            assert np.array_equal(a.mat, b.mat)
        assert np.array_equal(p.unit, q.unit)

    # commuting targets with t < d reload as dependent pencils, which warn
    @pytest.mark.filterwarnings("ignore:pencil matrices are linearly dependent")
    def test_round_trip_bit_exact_for_random_pencils(self):
        # a pencil rebuilt from its own matrices is not renormalised again
        from freespec import sampling

        rng = np.random.default_rng(21)
        for _ in range(40):
            cone = sampling.random_simplex_cone(rng, int(rng.integers(2, 5)))
            t = int(rng.integers(2, 7))
            for p in (
                sampling.random_target_for_simplex(rng, cone, t),
                sampling.random_commuting_target(rng, cone, t),
                sampling.random_commuting_target(rng, cones.square_cone(), t),
                diagonal_pencil(cone),
            ):
                q = pencil.pencil_from_json(pencil.pencil_to_json(p))
                for a, b in zip(p.matrices, q.matrices):
                    assert np.array_equal(a.mat, b.mat)

    def test_tuple_round_trip(self):
        a = sz_sx_i()
        b = pencil.tuple_from_json(pencil.tuple_to_json(a))
        for x, y in zip(a.entries, b.entries):
            assert np.array_equal(x.mat, y.mat)

    def test_unit_violation_detected(self):
        doc = pencil.pencil_to_json(circular_cone_pencil())
        doc["unit"] = [0.0, 0.5, 1.0]
        with pytest.raises(ValueError, match="order unit"):
            pencil.pencil_from_json(doc)


class TestStacks:
    @staticmethod
    def _nearly_hermitian(rng, d, s):
        """d matrices within the construction tolerance of Hermitian, with
        signed zeros, the last one exactly I_s."""
        a = rng.standard_normal((d, s, s)) + 1j * rng.standard_normal((d, s, s))
        a = a + np.conj(np.swapaxes(a, 1, 2)) + 1e-14 * rng.standard_normal((d, s, s))
        a[0, 0, 0] = complex(-0.0, 0.0)
        a[0, 0, 1], a[0, 1, 0] = complex(0.0, -0.0), complex(-0.0, 0.0)
        a[-1] = np.eye(s)
        return a

    def test_every_array_like_gives_the_same_stack(self):
        rng = np.random.default_rng(51)
        for d, s in ((1, 2), (3, 2), (4, 3)):
            raw = self._nearly_hermitian(rng, d, s)
            # the one-matrix rule (A + A*)/2, applied matrix by matrix
            want = np.array([(m + m.conj().T) / 2.0 for m in raw])
            unit = np.eye(d)[-1]
            for given in (tuple(HermitianMatrix(m) for m in raw), list(raw), raw):
                for value in (MatrixTuple(given), LinearPencil(given, unit)):
                    assert not value.stack.flags.writeable
                    assert value.stack.tobytes() == want.tobytes()

    def test_derived_matrices_match_the_stack(self):
        p = elliptic_cone_pencil(0.4)
        a = MatrixTuple.of(SIGMA_Z, SIGMA_X, np.eye(2))
        for value, mats in ((p, p.matrices), (a, a.entries)):
            assert all(isinstance(m, HermitianMatrix) for m in mats)
            assert np.array_equal(np.array([m.mat for m in mats]), value.stack)

    @pytest.mark.parametrize("make", [MatrixTuple, lambda x: LinearPencil(x, [])])
    def test_empty_is_rejected(self, make):
        with pytest.raises(ValueError, match="at least one"):
            make([])
