"""Every decision band lives in `freespec.tolerances`, and the checker does
not depend on the solver."""

import os
import pathlib
import subprocess
import sys
import tokenize

import freespec

PACKAGE = pathlib.Path(freespec.__file__).parent


def _bare_literals(path: pathlib.Path) -> list[str]:
    """The ``...e-...`` number literals of a source file on a line with no
    comment, as "file:line: literal"."""
    with path.open("rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    commented = {t.start[0] for t in tokens if t.type == tokenize.COMMENT}
    return [
        f"{path.name}:{t.start[0]}: {t.string}"
        for t in tokens
        if t.type == tokenize.NUMBER and "e-" in t.string.lower() and t.start[0] not in commented
    ]


def test_every_small_literal_is_a_named_band_or_says_why_it_is_not():
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "tolerances.py")
    assert sources
    bare = [hit for p in sources for hit in _bare_literals(p)]
    assert bare == [], "name these in tolerances.py, or comment why they are not bands"


def test_the_scan_sees_a_bare_literal(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text("a = 1e-9\nb = 2E-3  # not a band\nc = 1e9\n")
    assert _bare_literals(src) == ["sample.py:1: 1e-9"]


def test_tolerances_imports_nothing():
    with (PACKAGE / "tolerances.py").open("rb") as fh:
        names = {t.string for t in tokenize.tokenize(fh.readline) if t.type == tokenize.NAME}
    assert not names & {"import", "from"}


def test_the_checker_does_not_import_the_solver():
    code = (
        "import sys, freespec.certificates\n"
        "print(sorted(m for m in ('freespec.sdp', 'freespec.opsys', 'freespec.containment')"
        " if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"
