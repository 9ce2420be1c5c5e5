"""freespec: containment of polytopes and spectrahedra via the matricial
semidefinite relaxation, with membership oracles for the smallest and
largest operator systems over a polyhedral cone."""

__version__ = "0.1.0"

from .linalg import HermitianMatrix, SIGMA_X, SIGMA_Y, SIGMA_Z  # noqa: F401
