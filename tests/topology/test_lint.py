"""Architecture lint: everything outside ``repro.topology`` must stay
topology-agnostic.

The topology-plugin refactor's core invariant mirrors the stack
registry's: per-fabric knowledge lives only inside ``repro.topology``
(the plugins themselves).  Any ``ClosParams``/``ClosTopology`` import or
``repro.topology.clos`` reference in harness, scenario, stack or CLI
code would re-couple those layers to plugin zero and silently break
every other registered fabric — fail it at review time instead.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

# every module that must not know which fabric it is running: the whole
# tree except the topology package itself
AGNOSTIC_FILES = sorted(
    p for p in SRC.rglob("*.py")
    if "topology" not in p.relative_to(SRC).parts)


def _matches(pattern: str, path: Path) -> list[str]:
    rx = re.compile(pattern)
    return [f"{path.relative_to(SRC.parent.parent)}:{n}: {line.rstrip()}"
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if rx.search(line)]


def test_files_under_lint_exist():
    names = {p.name for p in AGNOSTIC_FILES}
    assert {"experiments.py", "family.py", "library.py", "analysis.py",
            "oracle.py", "mtp.py", "bgp.py", "registry.py", "failures.py",
            "targets.py", "runner.py", "compiler.py", "cli.py"} <= names


def test_no_clos_class_imports_outside_topology():
    """``ClosParams``/``ClosTopology``/``build_folded_clos`` are plugin
    internals; consumers go through TopologySpec + build_topology."""
    rx = r"\b(ClosParams|ClosTopology|build_folded_clos)\b"
    offenders = [m for path in AGNOSTIC_FILES for m in _matches(rx, path)]
    assert not offenders, "\n".join(offenders)


def test_no_clos_module_imports_outside_topology():
    """Reaching into ``repro.topology.clos`` (or any other concrete
    plugin module) bypasses the registry; only the package surface and
    the registry API are allowed."""
    rx = r"repro\.topology\.(clos|vl2|dcell|builtin)"
    offenders = [m for path in AGNOSTIC_FILES for m in _matches(rx, path)]
    assert not offenders, "\n".join(offenders)


def test_no_topology_name_dispatch():
    """Comparing a resolved spec's name against fabric literals is the
    same coupling with a different spelling."""
    rx = r"topology_name\s*(==|!=)\s*['\"]"
    offenders = [m for path in AGNOSTIC_FILES for m in _matches(rx, path)]
    assert not offenders, "\n".join(offenders)
