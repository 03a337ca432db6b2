"""Architecture lints: ``src/`` reads one environment variable, one
module drives measured runs, and campaigns have one task kind.

A run is a function of its spec and seed.  The cache directory
(``REPRO_CACHE_DIR``) decides only where results are stored, never what
they are; any other variable read inside ``src/`` is a knob that can
change a result without appearing in a spec, a cache key or a command
line.  Settings belong in arguments.

A measured run — arm the update monitor, inject, run until quiet or for
a fixed window — is the scenario compiler's job.  Another module that
constructs a :class:`~repro.harness.convergence.ConvergenceMonitor` is a
hand-rolled copy of that sequence; express it as a scenario instead.

Likewise every campaign is a list of scenario runs: ``src/`` constructs
one :class:`~repro.harness.executor.TaskKind`, ``SCENARIO_RUN``.  A
second kind is a second spec, key, codec and label for what a scenario
program already says.

And every campaign is a scenario family: ``src/`` builds a
:class:`~repro.scenario.ScenarioRunSpec` only in
``scenario/family.py`` (``Family.expand``); ``scenario/runner.py``,
which defines the class, builds none.  A command with a spec builder of
its own is a grid written by hand again.

And a campaign starts processes one way, ``os.fork`` from the converged
world: ``src/`` imports neither ``multiprocessing`` nor
``concurrent.futures``, whose workers would converge or unpickle worlds
of their own.

And the fault ops are named once, in ``harness/failures.py``'s
``FAULT_OPS``: another module that lists them, or branches on one, is a
vocabulary of its own that the next op will not reach.

And ``tests/conftest.py`` alone registers Hypothesis profiles; a
property elsewhere never sets what a profile decides (deadline, example
database, derandomization, health checks).
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.harness.failures import FAULT_OPS

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
TESTS = Path(__file__).resolve().parents[1]

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


# ----------------------------------------------------------------------
# who may construct the update monitor
# ----------------------------------------------------------------------
MONITOR_OWNERS = {"scenario/compiler.py"}


def constructions(path: Path, cls: str = "ConvergenceMonitor") -> list[int]:
    """Lines that call ``cls`` — by name, through a module attribute, or
    under an import alias."""
    tree = ast.parse(path.read_text())
    names = {cls} | {
        alias.asname for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names
        if alias.name == cls and alias.asname}
    return sorted(
        node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
        and (isinstance(node.func, ast.Name) and node.func.id in names
             or isinstance(node.func, ast.Attribute)
             and node.func.attr == cls))


def test_the_monitor_lint_sees_every_spelling(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from repro.harness import convergence\n"
        "from repro.harness.convergence import ConvergenceMonitor as Watch\n"
        "from repro.harness.convergence import ConvergenceMonitor\n"
        "a = ConvergenceMonitor(world, categories)\n"
        "b = convergence.ConvergenceMonitor(world, categories)\n"
        "c = Watch(world, categories)\n"
        "d = ConvergenceMonitor  # a reference, not a construction\n")
    assert constructions(probe) == [4, 5, 6]


# the id predates the chaos suite becoming a scenario program; the
# compiler is now the only owner
def test_only_the_compiler_and_chaos_construct_a_convergence_monitor():
    found = {path.relative_to(SRC).as_posix(): lines
             for path in sorted(SRC.rglob("*.py"))
             if (lines := constructions(path))}
    offenders = [f"src/repro/{name}:{lines[0]}"
                 for name, lines in found.items()
                 if name not in MONITOR_OWNERS]
    assert not offenders, (
        "a measured run outside the scenario compiler: "
        + ", ".join(offenders))
    # the owners still construct one, so this list cannot go stale
    assert set(found) == MONITOR_OWNERS


# ----------------------------------------------------------------------
# one task kind
# ----------------------------------------------------------------------
def test_the_task_kind_lint_sees_every_spelling(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from repro.harness import executor\n"
        "from repro.harness.executor import TaskKind as Kind\n"
        "from repro.harness.executor import TaskKind\n"
        "A = TaskKind(name='a', run=f, key=k, encode=e, decode=d, label=l)\n"
        "B = executor.TaskKind(name='b', run=f, key=k, encode=e,\n"
        "                      decode=d, label=l)\n"
        "C = Kind(name='c', run=f, key=k, encode=e, decode=d, label=l)\n"
        "D = TaskKind  # a reference, not a construction\n")
    assert constructions(probe, "TaskKind") == [4, 5, 7]


def test_src_constructs_exactly_one_task_kind():
    found = [f"src/repro/{path.relative_to(SRC).as_posix()}:{line}"
             for path in sorted(SRC.rglob("*.py"))
             for line in constructions(path, "TaskKind")]
    assert len(found) == 1, (
        "every campaign runs scenario programs; a second task kind: "
        + ", ".join(found))
    assert found[0].startswith("src/repro/scenario/runner.py:")


# ----------------------------------------------------------------------
# one place builds scenario runs
# ----------------------------------------------------------------------
SPEC_BUILDERS = {"scenario/family.py"}


def test_only_a_family_builds_scenario_runs():
    found = {path.relative_to(SRC).as_posix(): lines
             for path in sorted(SRC.rglob("*.py"))
             if (lines := constructions(path, "ScenarioRunSpec"))}
    offenders = [f"src/repro/{name}:{lines[0]}"
                 for name, lines in found.items()
                 if name not in SPEC_BUILDERS]
    assert not offenders, (
        "campaigns expand a scenario family (scenario/family.py); a "
        "spec builder elsewhere: " + ", ".join(offenders))
    # the family still builds them, so this rule cannot go stale
    assert "scenario/family.py" in found


# ----------------------------------------------------------------------
# one process primitive
# ----------------------------------------------------------------------
PROCESS_MODULES = ("multiprocessing", "concurrent.futures")


def process_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, module)`` for every import of a process-pool module (or
    of one of its submodules) in ``path``, also under ``from``/``as``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if any(name == m or name.startswith(m + ".")
                         for m in PROCESS_MODULES)][:1]
    return found


def test_the_process_import_lint_sees_every_spelling(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import multiprocessing as mp\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "from concurrent import futures\n"
        "import multiprocessing.connection\n"
        "import concurrent\n"
        "from os import fork\n")
    assert process_imports(probe) == [
        (1, "multiprocessing"), (2, "concurrent.futures"),
        (3, "concurrent.futures"), (4, "multiprocessing.connection")]


def test_src_imports_no_process_pool():
    offenders = [f"src/repro/{path.relative_to(SRC).as_posix()}:{line}: "
                 f"{name}"
                 for path in sorted(SRC.rglob("*.py"))
                 for line, name in process_imports(path)]
    assert not offenders, (
        "campaigns fork from the converged world (harness.executor); "
        + ", ".join(offenders))


# ----------------------------------------------------------------------
# one fault vocabulary
# ----------------------------------------------------------------------
# the table, and the library's scenarios, which are data
FAULT_NAMERS = {"harness/failures.py", "scenario/library.py"}


def fault_op_spellings(path: Path) -> list[int]:
    """Lines of ``path`` with a literal tuple, list, set or dict that
    holds a fault op name, or a comparison or ``case`` against one."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            items = node.elts
        elif isinstance(node, ast.Dict):
            items = node.keys
        elif isinstance(node, ast.Compare):
            items = [node.left, *node.comparators]
        elif isinstance(node, ast.MatchValue):
            items = [node.value]
        else:
            continue
        if any(isinstance(item, ast.Constant) and item.value in FAULT_OPS
               for item in items):
            found.add(node.lineno)
    return sorted(found)


def test_the_fault_op_lint_sees_every_spelling(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "A = ('iface_down', 'link_cut')\n"
        "B = {'isolate': 1}\n"
        "c = op == 'impair'\n"
        "d = op in ['node_crash']\n"
        "e = {'flap_train'}\n"
        "f = FAULT_OPS['iface_up'].outage  # a row, read from the table\n"
        "g = op in FAULT_OPS or op in ('pause', 'measure')\n"
        "match op:\n"
        "    case 'agent_crash':\n"
        "        pass\n")
    assert fault_op_spellings(probe) == [1, 2, 3, 4, 5, 9]


def test_fault_ops_are_named_once():
    offenders = [f"src/repro/{path.relative_to(SRC).as_posix()}:{line}"
                 for path in sorted(SRC.rglob("*.py"))
                 if path.relative_to(SRC).as_posix() not in FAULT_NAMERS
                 for line in fault_op_spellings(path)]
    assert not offenders, (
        "fault ops are rows of harness.failures.FAULT_OPS; a list of "
        "them or a branch on one elsewhere: " + ", ".join(offenders))


# ----------------------------------------------------------------------
# one Hypothesis profile spine
# ----------------------------------------------------------------------
PROFILE_ONLY = {"deadline", "database", "derandomize", "suppress_health_check"}


def hypothesis_overrides(path: Path) -> list[tuple[int, str]]:
    """``(line, what)`` for every ``register_profile`` call in ``path``
    and every ``settings(...)`` that sets a ``PROFILE_ONLY`` key (``**``:
    keys it cannot see)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        if name == "register_profile":
            found.append((node.lineno, name))
        elif name == "settings":
            found += [(node.lineno, kw.arg or "**") for kw in node.keywords
                      if kw.arg is None or kw.arg in PROFILE_ONLY]
    return sorted(found)


def test_the_profile_lint_sees_every_spelling(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import hypothesis\n"
        "from hypothesis import settings\n"
        "a = settings(max_examples=2 * settings.default.max_examples)\n"
        "b = settings(deadline=None)\n"
        "c = hypothesis.settings(a, database=None, derandomize=True)\n"
        "d = settings(suppress_health_check=[])\n"
        "e = settings(**overrides)\n"
        "settings.register_profile('mine', max_examples=1)\n")
    assert hypothesis_overrides(probe) == [
        (4, "deadline"), (5, "database"), (5, "derandomize"),
        (6, "suppress_health_check"), (7, "**"), (8, "register_profile")]


def test_hypothesis_profiles_live_in_conftest_alone():
    conftest = TESTS / "conftest.py"
    offenders = [f"tests/{path.relative_to(TESTS).as_posix()}:{line}: {what}"
                 for path in sorted(TESTS.rglob("*.py"))
                 for line, what in hypothesis_overrides(path)
                 if path != conftest or what != "register_profile"]
    assert not offenders, (
        "tier1 and soak (tests/conftest.py) decide these; a local "
        "override: " + ", ".join(offenders))
    # conftest still registers both, so this rule cannot go stale
    assert len(hypothesis_overrides(conftest)) == 2
