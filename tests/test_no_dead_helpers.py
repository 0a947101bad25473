"""Every module-level function and class of the package must be named in
code somewhere besides its own definition: in ``src/``, ``tests/`` or
``perfbench/``.  A name that is only defined, or only mentioned in
docstrings and comments, is a dead helper.  Likewise every module-level
import of a module in those folders must be named by that module's own
code."""

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


def test_every_module_level_import_is_used():
    """A name a module imports at its top level is read somewhere in that
    module's code, annotations included.  ``__future__`` imports are
    directives, and the imports of an ``__init__.py`` are the package's
    re-exports, so neither is checked."""
    unused = []
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in tree.body:
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    # ``import a.b`` binds a
                    unused += [f"{path.relative_to(ROOT)}: {alias.asname or alias.name}"
                               for alias in node.names
                               if (alias.asname or alias.name).split(".")[0] not in read]
    assert not unused, unused
