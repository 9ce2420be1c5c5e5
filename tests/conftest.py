"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from freespec import opsys, sdp


@pytest.fixture()
def solve_calls(monkeypatch):
    """Count calls of sdp.solve, which the oracles reach as a module attribute."""
    calls = []
    real = sdp.solve

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sdp, "solve", counting)
    return calls


@pytest.fixture()
def exact_margin_start():
    """A check that the margin SDP of (gens, stack, h) has exactly Hermitian
    stacks and an exactly feasible start with C - A*(y0) >= I; it returns
    the rescale rows of the split."""

    def check(gens, stack, h):
        rows, _, _, kernel, p0 = opsys._affine_split(gens, stack, h)
        problem, (x, y) = opsys._margin_problem(p0, kernel)
        a, c = np.array(problem.a), np.array(problem.c)
        for t in (a, c):
            assert np.array_equal(t, np.conj(np.swapaxes(t, -1, -2)))
        residual = np.einsum("kiab,kba->i", a, x).real - problem.b
        assert np.max(np.abs(residual)) <= 1e-14
        slack = c - np.einsum("i,kiab->kab", y, a)
        assert np.linalg.eigvalsh(slack).min() >= 1.0 - 1e-12
        return rows

    return check
