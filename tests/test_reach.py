"""Every public name of `freespec` is reached by the program, and every
import of the library and the tests is used.

A public top-level function, class or constant, or a public method, of a
module in `src/freespec` must be named in code (not in a comment or docstring)
somewhere outside its own definition: in its own module, in another
library module (`cli.py` among them), in `perfbench/*.py` or in
`tests/test_acceptance.py`.  Unit tests do not count: a name that only they
reach is either deleted or, when tests build data with it, kept in
`tests/conftest.py`.
"""

import ast
import io
import pathlib
import re
import tokenize

TESTS = pathlib.Path(__file__).parent
PACKAGE = TESTS.parent / "src" / "freespec"
REACHERS = [*sorted((TESTS.parent / "perfbench").glob("*.py")), TESTS / "test_acceptance.py"]

# name: why it stays although only unit tests name it
ALLOWED = {
    "load_problem": "the documented reader of the CLI's --dump output; tests read every dump",
    "PolyhedralCone.from_facets": "the bitwise reference of TestBatchedEnumeration",
}

_LINE_START = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
               tokenize.ENCODING}


def _code_words(text: str, skip=frozenset()) -> set[str]:
    """The names a source text uses in code: NAME tokens, and the words of
    string literals that are not statements of their own (docstrings),
    such as perfbench's "SdpProblem.make"; lines in ``skip`` are left out."""
    words, previous = set(), tokenize.NEWLINE
    for t in tokenize.generate_tokens(io.StringIO(text).readline):
        if t.start[0] not in skip:
            if t.type == tokenize.NAME:
                words.add(t.string)
            elif t.type == tokenize.STRING and previous not in _LINE_START:
                words.update(re.findall(r"\w+", t.string))
        if t.type not in (tokenize.COMMENT, tokenize.NL):
            previous = t.type
    return words


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level function, class and
    assigned name, and of each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, node
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _unreached(modules: list[pathlib.Path], reachers: list[pathlib.Path]) -> list[str]:
    """The public names of ``modules`` that nothing but their own
    definition names, as "file: name"."""
    texts = {p: p.read_text() for p in modules}
    words = {p: _code_words(t) for p, t in texts.items()}
    outside = set().union(*(_code_words(p.read_text()) for p in reachers))
    found = []
    for p, text in texts.items():
        others = outside.union(*(w for q, w in words.items() if q != p))
        for qualified, node in _public_definitions(ast.parse(text)):
            first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
            own = _code_words(text, skip=frozenset(range(first, node.end_lineno + 1)))
            if qualified.rsplit(".", 1)[-1] not in own | others:
                found.append(f"{p.name}: {qualified}")
    return found


def _unused_imports(path: pathlib.Path) -> list[str]:
    """The names a module imports and never uses, as "file:line: name"."""
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def _library() -> list[pathlib.Path]:
    return sorted(PACKAGE.glob("*.py"))


def test_every_public_name_is_reached_or_allowed():
    # an allowed name that the program reaches again, or that is gone, leaves the list
    unreached = _unreached(_library(), REACHERS)
    assert sorted(hit.split(": ", 1)[1] for hit in unreached) == sorted(ALLOWED), unreached


def test_the_reach_scan_sees_an_unreached_function(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text(
        '"""Module docstring naming orphan."""\n'
        "def used():\n    return orphan_helper()\n\n"
        "def orphan():\n    '''orphan names itself only here.'''\n    return orphan\n\n"
        "class Box:\n    def size(self):\n        return 1\n\n"
        "    def lonely(self):\n        return 2\n\n"
        "def orphan_helper():  # orphan\n    return 0\n\n"
        "BAND = 1e-9  # BAND is named only in this comment\nREAD_TOL = 2e-9\n"
    )
    user.write_text('from lib import Box, used\nprint(used(), Box().size(), "lib.Box", READ_TOL)\n')
    assert _unreached([lib], [user]) == ["lib.py: orphan", "lib.py: Box.lonely", "lib.py: BAND"]


def test_every_import_is_used():
    # __init__ imports only to re-export
    modules = [p for p in _library() if p.name != "__init__.py"]
    modules += sorted(TESTS.glob("*.py"))
    unused = [hit for p in modules for hit in _unused_imports(p)]
    assert unused == []


def test_the_import_scan_sees_an_unused_import(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "from __future__ import annotations\nimport json\nimport os.path\n"
        "from math import pi, tau as turn\n\nprint(os.path.sep, pi)\n"
    )
    assert _unused_imports(src) == ["sample.py:2: json", "sample.py:4: turn"]
