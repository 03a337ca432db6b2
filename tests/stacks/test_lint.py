"""Architecture lint: the harness and CLI must stay stack-agnostic.

The stack-plugin layer's core invariant is that per-stack knowledge
lives only in the stack table (``repro.stacks``) and the two family
modules (``repro.stacks.mtp`` / ``repro.stacks.bgp``).  These greps keep
it that way: a revived enum handle, an ``isinstance(deployment, ...)``
dispatch or a stack-name comparison in a harness module would silently
re-couple the harness to the shipped stacks and break third-party
plugins — fail it at review time instead.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"

# every module that must not know which stack it is running
AGNOSTIC_FILES = sorted(
    [*(SRC / "harness").glob("*.py"), SRC / "cli.py", SRC / "registry.py",
     SRC / "stacks" / "base.py", SRC / "scenario" / "family.py",
     SRC / "scenario" / "library.py"])

# the legacy enum's name, anywhere but in a quoted test id: eleven
# tier-1 ids predate the registry and keep their spelling
LEGACY_ENUM = r"(?<![\"'])\bStackKind\b"


def _matches(pattern: str, path: Path) -> list[str]:
    rx = re.compile(pattern)
    return [f"{path.relative_to(REPO)}:{n}: {line.rstrip()}"
            for n, line in enumerate(
                path.read_text(errors="ignore").splitlines(), 1)
            if rx.search(line)]


def test_files_under_lint_exist():
    names = {p.relative_to(SRC).as_posix() for p in AGNOSTIC_FILES}
    assert {"harness/experiments.py", "scenario/family.py",
            "scenario/library.py", "harness/cache.py",
            "harness/pathtrace.py", "harness/analysis.py", "cli.py",
            "registry.py", "stacks/base.py"} <= names


def test_no_stackkind_branching_outside_builtin_plugins():
    """The legacy stack enum and the builtin-plugin module that owned it
    are gone: its name appears in no file under ``src/``, ``tests/``,
    ``benchmarks/`` or ``examples/`` but this lint."""
    offenders = [
        m for top in ("src", "tests", "benchmarks", "examples")
        for path in sorted((REPO / top).rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
        and path != Path(__file__).resolve()
        for m in _matches(LEGACY_ENUM, path)]
    assert not offenders, "\n".join(offenders)


def test_the_stackkind_lint_sees_every_spelling():
    spellings = ["from repro.stacks import StackKind",
                 "kind = StackKind.MTP", "def f(kind: StackKind):",
                 "resolves ``StackKind`` members"]
    rx = re.compile(LEGACY_ENUM)
    assert all(rx.search(s) for s in spellings)
    assert not rx.search('ids=["StackKind.MTP", "StackKind.BGP"]')


def test_no_deployment_isinstance_dispatch():
    """Per-stack behavior goes through the Deployment base class, never
    through ``isinstance(dep, MtpDeployment)``-style type sniffing."""
    offenders = [
        m for path in AGNOSTIC_FILES
        for m in _matches(r"isinstance\([^)]*(Mtp|Bgp)Deployment", path)]
    assert not offenders, "\n".join(offenders)


def test_no_hardcoded_stack_name_dispatch():
    """Comparing ``spec.name`` against string literals is the same
    coupling with a different spelling."""
    rx = r"\.name\s*(==|!=|\bin\b)\s*[(\[]?\s*['\"](mtp|bgp)"
    offenders = [m for path in AGNOSTIC_FILES for m in _matches(rx, path)]
    assert not offenders, "\n".join(offenders)
