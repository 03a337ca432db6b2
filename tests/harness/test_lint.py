"""Architecture lint: ``src/`` reads one environment variable.

A run is a function of its spec and seed.  The cache directory
(``REPRO_CACHE_DIR``) decides only where results are stored, never what
they are; any other variable read inside ``src/`` is a knob that can
change a result without appearing in a spec, a cache key or a command
line.  Settings belong in arguments.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

ALLOWED = {"REPRO_CACHE_DIR"}

# the names through which Python reads the environment
_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _string_constants(tree: ast.Module) -> dict[str, str]:
    """Module-level ``NAME = "literal"`` bindings."""
    return {target.id: node.value.value
            for node in tree.body if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            for target in node.targets if isinstance(target, ast.Name)}


def _read_variable(access: ast.AST, parent: ast.AST,
                   grandparent: ast.AST, constants: dict[str, str]):
    """The variable name an environment access reads, when it is one
    literal (or module constant) name: ``os.environ[X]``,
    ``os.environ.get(X)`` or ``os.getenv(X)``; else None."""
    key = None
    if isinstance(parent, ast.Subscript) and parent.value is access:
        key = parent.slice
    elif (isinstance(parent, ast.Attribute) and parent.attr == "get"
          and isinstance(grandparent, ast.Call) and grandparent.args):
        key = grandparent.args[0]
    elif (isinstance(parent, ast.Call) and parent.func is access
          and parent.args):
        key = parent.args[0]
    if isinstance(key, ast.Constant) and isinstance(key.value, str):
        return key.value
    if isinstance(key, ast.Name):
        return constants.get(key.id)
    return None


def environment_reads(path: Path) -> list[tuple[int, str | None]]:
    """``(line, variable)`` for every environment access in ``path``;
    ``variable`` is None when it cannot be named statically."""
    tree = ast.parse(path.read_text())
    constants = _string_constants(tree)
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    reads = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr in _ENV_NAMES
                # a bare name, after ``from os import environ``
                or isinstance(node, ast.Name) and node.id in _ENV_NAMES):
            continue
        parent = parents.get(node)
        reads.append((node.lineno, _read_variable(
            node, parent, parents.get(parent), constants)))
    return sorted(reads, key=lambda read: read[0])


def test_the_lint_sees_every_spelling(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os\nfrom os import environ, getenv\nNAME = 'REPRO_CACHE_DIR'\n"
        "a = os.environ.get(NAME)\nb = os.environ['X']\nc = os.getenv('Y')\n"
        "d = environ.get('Z')\ne = getenv(NAME)\nf = dict(os.environ)\n")
    assert [read for read in environment_reads(probe) if read[0] > 3] == [
        (4, "REPRO_CACHE_DIR"), (5, "X"), (6, "Y"), (7, "Z"),
        (8, "REPRO_CACHE_DIR"), (9, None)]


def test_src_reads_no_environment_variable_but_the_cache_dir():
    offenders = [
        f"{path.relative_to(SRC.parent.parent)}:{line}: "
        f"{name or 'an environment variable not named statically'}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in environment_reads(path) if name not in ALLOWED]
    assert not offenders, "\n".join(offenders)
