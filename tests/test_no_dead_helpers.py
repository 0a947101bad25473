"""Every module-level function and class of the package must be named in
code somewhere besides its own definition: in ``src/``, ``tests/`` or
``perfbench/``.  A name that is only defined, or only mentioned in
docstrings and comments, is a dead helper."""

import ast
import io
import pathlib
import tokenize
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _code_names(path: pathlib.Path) -> Counter:
    """How often each identifier occurs in the code of the file, strings and
    comments left out."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return Counter(tok.string for tok in tokens if tok.type == tokenize.NAME)


def test_every_module_level_helper_is_used():
    names = Counter()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            names.update(_code_names(path))
    dead = []
    for path in sorted((ROOT / "src" / "gasymp").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            defined = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if defined and names[node.name] < 2:  # its definition is the one occurrence
                dead.append(f"{path.name}: {node.name}")
    assert not dead, dead
