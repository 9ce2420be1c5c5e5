"""One question through two deciders, on instances drawn by hypothesis.

For a polyhedral source C with facets ell_k, the relaxation from its
diagonal pencil into a target N asks for PSD Q_k with N_i = sum_k
ell_k[i] Q_k: smallest-system membership of the tuple (N_1, ..., N_d)
over the cone the facets span.  `relaxation` and `min_membership` decide it
through the same generator weights, but each makes and checks its own
certificate.  The examples are derandomized and bounded, so the suite
stays deterministic.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from freespec import certificates, linalg, sampling
from freespec.cones import PolyhedralCone
from freespec.containment import RelaxationStatus, relaxation
from freespec.opsys import MinMembershipStatus, max_membership, min_membership
from freespec.pencil import Classification, LinearPencil, MatrixTuple, diagonal_pencil

EXAMPLES = settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def instances(draw):
    """A simplex (d = 2..4) or polygon (4..7 sides) source cone, a target
    of size 1..3 that commutes, is built to hold the simplex, or is the
    unit plus random Hermitian parts of spread 0.1..2, and a permutation
    of the source's facets."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        cone = sampling.random_simplex_cone(rng, draw(st.integers(2, 4)))
    else:
        k = draw(st.integers(4, 7))
        ang = draw(st.floats(0.0, 2 * math.pi)) + 2 * math.pi * np.arange(k) / k
        gens = np.column_stack([np.cos(ang), np.sin(ang), np.ones(k)])
        cone = PolyhedralCone.from_generators(gens, unit=np.array([0.0, 0.0, 1.0]))
    t = draw(st.sampled_from([3, 2, 1]))
    kind = draw(st.sampled_from(["commuting", "built", "spread"]))
    if kind == "commuting":
        u = sampling.random_unitary(rng, t)
        base = sampling.random_commuting_target(rng, cone, t)
        tgt = LinearPencil([u.conj().T @ m.mat @ u for m in base.matrices], base.unit)
    elif kind == "built" and cone.n_generators == cone.dim:
        tgt = sampling.random_target_for_simplex(rng, cone, t)
    else:
        spread = draw(st.sampled_from([0.1, 0.2, 0.3, 0.5, 1.0, 2.0]))
        w = cone.unit / float(cone.unit @ cone.unit)
        hs = np.array([linalg.random_hermitian(rng, t, spread) for _ in range(cone.dim)])
        hs -= np.multiply.outer(w, np.tensordot(cone.unit, hs, axes=1))
        tgt = LinearPencil(list(np.multiply.outer(w, np.eye(t)) + hs), cone.unit)
    return cone, tgt, draw(st.permutations(range(cone.n_facets)))


def _relaxation_ok(src, tgt, res) -> bool:
    if res.status is RelaxationStatus.FEASIBLE:
        doc = certificates.relaxation_feasible_cert(src, tgt, res.certificate)
    else:
        doc = certificates.relaxation_infeasible_cert(src, tgt, res.farkas)
    return certificates.verify_certificate(doc).ok


def _membership_ok(cone, a, res) -> bool:
    if res.status is MinMembershipStatus.MEMBER:
        doc = certificates.min_member_cert(cone, a, res.certificate)
    else:
        doc = certificates.separator_cert(cone, a, res.separator)
    return certificates.verify_certificate(doc).ok


@pytest.mark.filterwarnings("ignore:pencil matrices are linearly dependent")
@EXAMPLES
@given(instances())
def test_relaxation_and_min_membership_agree(instance):
    cone, tgt, perm = instance
    src = diagonal_pencil(cone)
    facet_cone = PolyhedralCone.from_generators(cone.facets)
    a = MatrixTuple(tgt.stack)
    rel = relaxation(src, tgt)
    mem = min_membership(facet_cone, a)
    rel_known = rel.status is not RelaxationStatus.UNKNOWN
    mem_known = mem.status is not MinMembershipStatus.UNKNOWN
    assert not rel_known or _relaxation_ok(src, tgt, rel)
    assert not mem_known or _membership_ok(facet_cone, a, mem)
    if rel_known and mem_known:
        feasible = rel.status is RelaxationStatus.FEASIBLE
        assert feasible is (mem.status is MinMembershipStatus.MEMBER)
    # the smallest system lies inside the largest
    if mem.status is MinMembershipStatus.MEMBER:
        assert max_membership(facet_cone, a).classification is not Classification.OUTSIDE

    # permuting the facets permutes the generators and the diagonal source
    permuted = PolyhedralCone.from_generators(cone.facets[list(perm)], unit=facet_cone.unit)
    assert min_membership(permuted, a).status is mem.status
    stack = np.zeros((cone.dim, cone.n_facets, cone.n_facets))
    stack[:, np.arange(cone.n_facets), np.arange(cone.n_facets)] = cone.facets[list(perm)].T
    assert relaxation(LinearPencil(stack, cone.unit), tgt).status is rel.status
