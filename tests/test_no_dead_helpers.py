"""Every module-level function and class of the package must be named in
code somewhere besides its own definition: in ``src/``, ``tests/`` or
``perfbench/``.  A name that is only defined, or only mentioned in
docstrings and comments, is a dead helper.  Likewise every module-level
import of a module in those folders must be named by that module's own
code, and no package module may use another's underscore names."""

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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reads_another_modules_private_names():
    """No module of the package imports an underscore name from another
    package module (``from .groebner import _name``), or reads one through a
    package module it imported (``module._name``): what one module uses of
    another is public.  Dunder names are Python's own and are not checked."""
    package = ROOT / "src" / "gasymp"
    reads = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()  # the names bound to package modules
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom)
                    and (node.level or node.module.split(".")[0] == "gasymp")):
                continue
            if node.module in (None, "gasymp"):  # from . import module
                modules |= {alias.asname or alias.name for alias in node.names}
            else:
                reads += [f"{path.name}:{node.lineno}: {alias.name}"
                          for alias in node.names if _private(alias.name)]
        reads += [f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and _private(node.attr)]
    assert not reads, reads
