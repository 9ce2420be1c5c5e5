"""Fixtures shared by the test modules."""

import pytest

from freespec import sdp


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
