"""Scenario families: a campaign is a grid and one program.

A :class:`Family` names its grid's axes, each with default values, and
a pure ``program(point) -> Scenario``.  :meth:`Family.expand` crosses
the axes under every stack and seed (stack-major, then seed, then the
family's axes in order) into :class:`~repro.scenario.runner.ScenarioRunSpec`
tasks for ``run_tasks(SCENARIO_RUN, ...)``; a family that reads its
fabric (the sweep's failure points, the chaos grid's gray link) builds
it once per expansion.  What it reads there is either an axis's values
or a constant every point carries; constants are not axes, so no caller
overrides them.  :meth:`Family.rows` reads the outcomes back as
rows of one type (:data:`Row`).

How a family prints is part of it: ``head``, ``line`` and ``foot`` make
its text, ``document`` its ``--json`` document, and ``verdict`` the
errors that make its command exit non-zero.  Every campaign command of
the CLI is the front end of a family in :mod:`repro.scenario.library`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import product
from typing import Callable, NamedTuple, Optional, Sequence

from repro.stacks import StackTimers, resolve_spec
from repro.topology import Topology, build_topology
from repro.scenario.compiler import Checkpoint, ScenarioMetrics
from repro.scenario.model import Scenario
from repro.scenario.runner import ScenarioOutcome, ScenarioRunSpec

#: One finished run: its grid point's axis values, then its
#: :class:`~repro.scenario.ScenarioMetrics` fields (a metric shadows an
#: axis of the same name: ``stack``, ``seed``, ``scenario`` and
#: ``workload`` read as the run reports them), each checkpoint's fields
#: under ``"<label>.<field>"``, and the run's ``"digest"``.
Row = dict

_METRICS = tuple(f.name for f in fields(ScenarioMetrics))
_CHECKPOINT = tuple(f.name for f in fields(Checkpoint) if f.name != "label")


class Tally(NamedTuple):
    """What a campaign's text says beside its rows."""

    points: list          # every expanded point, quarantined runs' too
    describe: str         # the campaign report's one-line account
    elapsed_s: float


@dataclass(frozen=True)
class Family:
    """A grid of scenario runs and how its rows print.  ``axes`` maps
    each axis to its default values, outermost first.  ``fabric(topo,
    grid)`` reads the built fabric, given the grid's values: it returns
    the values of the axes whose default is empty (unless the caller
    gave them) and constants, the names that are not axes, which every
    point carries."""

    name: str
    axes: dict[str, tuple]
    program: Callable[[dict], Scenario]
    line: Callable[[Row], str]
    fabric: Optional[Callable[[Topology, dict], dict]] = None
    head: Callable[[list[Row], Tally], list[str]] = lambda rows, tally: []
    foot: Callable[[list[Row], Tally], list[str]] = lambda rows, tally: []
    listing: bool = False   # rows print under --digests only, after the foot
    document: Optional[Callable[[list[Row]], dict]] = None
    verdict: Callable[[list[Row]], list[str]] = lambda rows: []

    def expand(self, params, stacks: Sequence, seeds: Sequence[int] = (0,),
               timers: Optional[StackTimers] = None,
               invariants: bool = False,
               **axes: Sequence) -> list[ScenarioRunSpec]:
        """One run per stack x seed x grid point; ``axes`` override the
        axes' defaults (and the fabric's values for them) by name."""
        unknown = set(axes) - set(self.axes)
        if unknown:
            raise TypeError(f"family {self.name!r} has no axis "
                            f"{', '.join(sorted(unknown))}; axes: "
                            f"{', '.join(self.axes)}")
        grid = {**self.axes, **axes}
        constants = {}
        if self.fabric is not None:
            for name, value in self.fabric(build_topology(params),
                                           grid).items():
                if name not in self.axes:
                    constants[name] = value
                elif name not in axes:
                    grid[name] = value
        points = [{**dict(zip(grid, values)), **constants}
                  for values in product(*grid.values())]
        return [ScenarioRunSpec(params=params, stack=spec, seed=seed,
                                scenario=self.program(point),
                                invariants=invariants, point=point)
                for spec in (resolve_spec(stack, timers) for stack in stacks)
                for seed in seeds
                for point in ({"stack": spec, "seed": seed, **values}
                              for values in points)]

    def rows(self, specs: Sequence[ScenarioRunSpec],
             outcomes: Sequence[Optional[ScenarioOutcome]]) -> list[Row]:
        """A row per finished run, in spec order (quarantined runs,
        whose outcome is None, have none)."""
        return [row_of(spec.point, outcome)
                for spec, outcome in zip(specs, outcomes)
                if outcome is not None]


def row_of(point: dict, outcome: ScenarioOutcome) -> Row:
    """The :data:`Row` of one finished run of ``point``."""
    metrics = outcome.metrics
    row = {**point, **{name: getattr(metrics, name) for name in _METRICS}}
    for checkpoint in metrics.checkpoints:
        row.update((f"{checkpoint.label}.{name}", getattr(checkpoint, name))
                   for name in _CHECKPOINT)
    row["digest"] = outcome.digest
    return row


def outcome_of(row: Row) -> ScenarioOutcome:
    """The finished run a row reads."""
    return ScenarioOutcome(ScenarioMetrics(**{n: row[n] for n in _METRICS}),
                           row["digest"])
