"""The numeric seams: `linalg`, the Kraus operators and sampled tuples of
`containment`, the lambda2 top vector, the SDP's Nesterov-Todd scaling
and `sdp.verify`'s primal check call `eigh_kernel`, and every round of the
lambda2 bracket `quartic_grid_scan`, so a profiler can wrap each in one
place.  The SDP step lengths, the feasibility solve's check and a Farkas
certificate's lambda_max need eigenvalues only: `np.linalg.eigvalsh`."""

import numpy as np


def backend_name() -> str:
    return "numpy"


def eigh_kernel(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors of a Hermitian
    matrix, or of each matrix of a (k, n, n) stack."""
    return np.linalg.eigh(a)


def quartic_grid_scan(m: np.ndarray, n: np.ndarray, t: np.ndarray) -> np.ndarray:
    """lambda_max(2tN - M) at each point of the grid t, in one batched eigvalsh.

    Minus t^2 this is the dual of the quartic (v*Nv)^2 - v*Mv, whose maximum
    over unit v is the maximum of the dual over t.
    """
    return np.linalg.eigvalsh(2.0 * t[:, None, None] * n - m)[:, -1]
