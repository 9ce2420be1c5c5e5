"""The numeric seams, so a profiler can wrap each in one place: `linalg.eigh`
and every eigenvalue that must keep its bits (pencil margins, lambda1, PSD
checks, Kraus operators, sampled tuples, the NT scaling) come from
`eigh_kernel` on a checked array, and every round of the lambda2 bracket
from `quartic_grid_scan`.  Step lengths and Farkas checks, which need
eigenvalues only, call `np.linalg.eigvalsh`."""

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
