"""Command-line interface: ``python -m repro <command>``.

The CLI wraps the experiment harness for interactive use — the
simulator-era equivalent of the paper's FABRIC automation entry points:

    python -m repro stacks                            # list registered stacks
    python -m repro topology list                     # registered fabrics
    python -m repro topology show vl2 --json          # params + test points
    python -m repro stacks --json                     # machine-readable list
    python -m repro topo     --pods 4                 # build & validate
    python -m repro topo     --topology dcell -T cells=4
    python -m repro converge --stack mtp --pods 2     # converge, show state
    python -m repro fail     --stack bgp-bfd --case TC1
    python -m repro fail     --stack mtp --case TC1 --runs 5 --jobs 4
    python -m repro loss     --stack mtp-spray --case TC2 --direction near
    python -m repro config   --stack bgp --pods 4     # Listing 1/2 output
    python -m repro sweep    --stack mtp --jobs 4     # robustness sweep
    python -m repro scenario list                     # canonical library
    python -m repro scenario show flap-storm          # canonical JSON
    python -m repro scenario run --stack mtp --jobs 4 # run the library
    python -m repro scenario run tc1 drain --stack bgp-bfd --stack mtp
    python -m repro chaos    --jobs 4                 # false-positive suite
    python -m repro chaos    --stack mtp --rate 0 --rate 0.1
    python -m repro load list                         # workload presets
    python -m repro load --workload incast -W flows=50000 --jobs 4
    python -m repro sweep    --stack mtp --workload permutation
    python -m repro pathtrace --stack mtp --scenario gray-uplink

``--stack`` accepts any name in the stack registry (see ``stacks``);
registering a new stack via :func:`repro.stacks.register_stack` makes it
available to every command here without CLI changes.  ``--topology``
does the same for fabrics: any registered topology plugin (see
``topology list``) runs under every command, parameterized with
repeatable ``-T KEY=VALUE`` overrides.  ``--jobs N`` fans
independent runs out over N worker processes (0 = one per core); results
are byte-identical to the serial path (the engine is deterministic per
seed).  Every campaign command (``sweep``, ``scenario run``, ``chaos``,
``load``, ``fail``) is the front end of a scenario family: it maps its
flags onto the family's axes, runs the expanded scenario runs through
one executor and reuses an on-disk result cache keyed by a
content hash of the task; ``--no-cache`` disables it, ``--resume``
replays an interrupted campaign from it, and ``--supervise`` runs each
task under a watchdog with retry and quarantine.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
import time

from repro.sim.units import SECOND
from repro.topology import (
    UnknownTopologyError,
    available_topologies,
    build_topology,
    get_topology,
    validate_topology,
)
from repro.net.world import World
from repro.stacks import available_stacks, get_stack, resolve_spec
from repro.harness.cache import ResultCache, default_cache_root
from repro.harness.executor import (
    CampaignInterrupted,
    CampaignReport,
    RetryPolicy,
    run_tasks,
)
from repro.harness.experiments import build_and_converge

# exit codes: experiment findings (regressions) and infra failures
# (quarantines) must be distinguishable by the caller — a red sweep
# means the protocol blackholed, a quarantine means the harness did
EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_INFRA = 3
EXIT_INTERRUPTED = 130


def _add_topo_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--topology", choices=available_topologies(), default="clos",
        help="fabric family to build (see the `topology` command)")
    parser.add_argument(
        "-T", "--topo-param", action="append", default=None,
        metavar="KEY=VALUE", dest="topo_params",
        help="override one topology parameter; repeatable (see "
             "`topology show <name>` for the accepted keys)")
    # legacy folded-Clos shorthands; -T works for every topology
    parser.add_argument("--pods", type=int, default=None,
                        help="clos only: PoDs (alias of -T num_pods=N)")
    parser.add_argument("--tors", type=int, default=None,
                        help="clos only: ToRs per pod")
    parser.add_argument("--aggs", type=int, default=None,
                        help="clos only: aggs per pod")
    parser.add_argument("--tops", type=int, default=None,
                        help="clos only: tops per plane")
    parser.add_argument("--zones", type=int, default=None,
                        help="clos only: >1 adds the super-spine tier")
    parser.add_argument("--seed", type=int, default=0)


def _add_stack_arg(parser: argparse.ArgumentParser) -> None:
    """``--stack`` with choices and help derived from the registry, so
    validation and documentation can never drift from what is runnable."""
    parser.add_argument(
        "--stack", choices=available_stacks(), required=True,
        help="protocol stack to deploy (see the `stacks` command)")


def _jobs_type(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = one per core), got {n}")
    return n


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _non_negative_int(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _probability(value: str) -> float:
    x = float(value)
    if not 0.0 <= x <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return x


def _positive_float(value: str) -> float:
    x = float(value)
    if not x > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return x


def _add_campaign_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_jobs_type, default=1,
                        help="worker processes (0 = one per core)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute instead of reusing cached results")
    parser.add_argument("--cache-dir", default=None,
                        help=f"result cache root (default "
                             f"{default_cache_root()})")
    parser.add_argument("--supervise", action="store_true",
                        help="run tasks under the fault-tolerant "
                             "supervisor: per-task watchdog, seeded "
                             "retry-with-backoff, quarantine")
    parser.add_argument("--task-deadline", type=_positive_float,
                        default=None, metavar="SECONDS",
                        help="per-task wall-clock deadline; hung workers "
                             "are killed and retried (implies --supervise)")
    parser.add_argument("--max-attempts", type=_positive_int, default=3,
                        help="attempts per task before quarantine "
                             "(supervised runs)")
    parser.add_argument("--resume", action="store_true",
                        help="resume an interrupted campaign: replay "
                             "checkpointed tasks from the result cache, "
                             "run only the rest (requires the cache)")


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload", default=None, metavar="NAME|FILE.json",
        help="workload preset name (see `load list`) or a JSON "
             "WorkloadSpec file")
    parser.add_argument(
        "-W", "--workload-param", action="append", default=None,
        metavar="KEY=VALUE", dest="workload_params",
        help="override one workload field (e.g. -W flows=50000); "
             "repeatable")


def _run_campaign(args, family, stacks, seeds=None, **axes) -> int:
    """The one path of every campaign command: expand ``family`` over
    the command's flags (the stacks, the seeds, the rest as ``axes``)
    into scenario runs (:data:`~repro.scenario.SCENARIO_RUN` tasks), run
    them with the result cache and ``--resume``, supervision
    (``--supervise``/``--task-deadline``) and ``--jobs``, print the
    family's rows (its ``--json`` document under ``--json``) and its
    verdict's errors, then the epilogue.  A quarantine outranks a
    finding (EXIT_INFRA)."""
    from repro.scenario import SCENARIO_RUN
    from repro.scenario.family import Tally

    specs = family.expand(_params(args), stacks, seeds or (args.seed,),
                          invariants=getattr(args, "invariants", False),
                          **axes)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    if args.resume and cache is None:
        raise _UsageError("--resume replays from the result cache; "
                          "drop --no-cache")
    policy = None
    if args.supervise or args.task_deadline is not None:
        policy = RetryPolicy(deadline_s=args.task_deadline,
                             max_attempts=args.max_attempts, seed=args.seed)
    report = CampaignReport()
    t0 = time.perf_counter()
    outcomes = run_tasks(SCENARIO_RUN, specs, jobs=args.jobs, cache=cache,
                         policy=policy, report=report)
    tally = Tally([spec.point for spec in specs], report.describe(),
                  time.perf_counter() - t0)
    rows = family.rows(specs, outcomes)
    if getattr(args, "json", False):
        print(json.dumps(family.document(rows), indent=2, sort_keys=True))
    else:
        _print_rows(family, rows, tally, getattr(args, "digests", False))
    errors = family.verdict(rows)
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    infra = _campaign_epilogue(args, report)
    if getattr(args, "report", None):
        _write_sweep_report(args.report, family, rows, tally, report.records)
    return infra or (EXIT_FINDINGS if errors else EXIT_OK)


def _print_rows(family, rows, tally, digests: bool) -> None:
    """A family's text: its head, a line per row (digest first under
    ``--digests``), its foot — or, for a listing family, the rows as an
    indented digest listing after the foot, under ``--digests`` only."""
    for line in family.head(rows, tally):
        print(line)
    if not family.listing:
        for row in rows:
            line = family.line(row)
            print(f"{row['digest'][:16]}  {line}" if digests else line)
    for line in family.foot(rows, tally):
        print(line)
    if family.listing and digests:
        for row in rows:
            print(f"  {row['digest'][:16]}  {family.line(row)}")


def _campaign_epilogue(args, report) -> int:
    """The report's notes (a clamped ``--jobs``, a fork fallback) on
    stderr; resume accounting and the quarantine table — on stderr under
    ``--json``, so stdout stays exactly one document — and the infra
    exit code (EXIT_OK when nothing was quarantined)."""
    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)
    out = sys.stderr if getattr(args, "json", False) else sys.stdout
    if args.resume:
        print(f"resume: {report.cached}/{report.total} task(s) replayed "
              f"from checkpoint, {report.executed} executed", file=out)
    if report.quarantined:
        from repro.harness.report import render_quarantine_table

        print(file=out)
        print(render_quarantine_table(report.records), file=out)
        print(f"\n{len(report.quarantined)} task(s) quarantined — infra "
              f"failure, not an experiment finding (exit {EXIT_INFRA})",
              file=sys.stderr)
        return EXIT_INFRA
    return EXIT_OK


#: legacy clos flag -> canonical parameter name
_LEGACY_CLOS_FLAGS = {
    "pods": "num_pods",
    "tors": "tors_per_pod",
    "aggs": "aggs_per_pod",
    "tops": "tops_per_plane",
    "zones": "zones",
}


class _UsageError(Exception):
    """Bad CLI input caught in main() -> EXIT_USAGE."""


def _params(args):
    """The selected fabric as a TopologySpec: --topology picks the
    registered family, -T KEY=VALUE overrides its parameters, and the
    legacy --pods/--tors/... shorthands keep working for clos."""
    definition = get_topology(args.topology)
    overrides = {}
    for flag, name in _LEGACY_CLOS_FLAGS.items():
        value = getattr(args, flag, None)
        if value is None:
            continue
        if args.topology != "clos":
            raise _UsageError(
                f"--{flag} is a folded-Clos shorthand; with "
                f"--topology {args.topology} use -T KEY=VALUE "
                f"(see `topology show {args.topology}`)")
        overrides[name] = value
    raw = {}
    for item in getattr(args, "topo_params", None) or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise _UsageError(
                f"-T expects KEY=VALUE, got {item!r}")
        raw[key] = value
    try:
        overrides.update(definition.coerce_params(raw))
        return definition.spec(**overrides)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _workload_from(args):
    """The selected workload as a resolved WorkloadSpec: ``--workload``
    picks a library preset (or reads a ``.json`` spec file), and
    repeatable ``-W KEY=VALUE`` items override its fields."""
    import dataclasses
    import json as _json
    from pathlib import Path

    from repro.workload import WorkloadError, WorkloadSpec, resolve_workload

    name = getattr(args, "workload", None)
    if name is None:
        return None
    try:
        if name.endswith(".json"):
            base = WorkloadSpec.from_payload(
                _json.loads(Path(name).read_text()))
        else:
            base = resolve_workload(name)
        overrides = {}
        fields = {f.name: f for f in dataclasses.fields(WorkloadSpec)}
        for item in getattr(args, "workload_params", None) or []:
            key, sep, value = item.partition("=")
            if not sep or key not in fields:
                raise _UsageError(
                    f"-W expects KEY=VALUE with a WorkloadSpec field, "
                    f"got {item!r} (fields: {', '.join(fields)})")
            kind = fields[key].type
            if kind == "int":
                overrides[key] = int(value)
            elif kind == "float":
                overrides[key] = float(value)
            else:
                overrides[key] = value
        return dataclasses.replace(base, **overrides) if overrides else base
    except (WorkloadError, OSError, ValueError) as exc:
        raise _UsageError(str(exc)) from None


def cmd_stacks(args) -> int:
    if args.json:
        entries = [
            {
                "name": name,
                "display": get_stack(name).display,
                "description": get_stack(name).description,
                "params": dict(sorted(get_stack(name).default_params.items())),
            }
            for name in available_stacks()
        ]
        print(json.dumps(entries, indent=2, sort_keys=True))
        return 0
    for name in available_stacks():
        definition = get_stack(name)
        params = ", ".join(
            f"{k}={v!r}"
            for k, v in sorted(definition.default_params.items()))
        suffix = f"  [{params}]" if params else ""
        print(f"{name:<17} {definition.display:<26} "
              f"{definition.description}{suffix}")
    return 0


def cmd_topology(args) -> int:
    names = args.names or list(available_topologies())
    if args.action == "list" and args.names:
        raise _UsageError("`topology list` takes no names; "
                          "use `topology show <name>`")
    if args.json:
        entries = []
        for name in names:
            definition = get_topology(name)
            entries.append({
                "name": name,
                "display": definition.display,
                "description": definition.description,
                "params": dict(sorted(definition.default_params.items())),
            })
        print(json.dumps(entries, indent=2, sort_keys=True))
        return 0
    if args.action == "list":
        for name in names:
            definition = get_topology(name)
            params = ", ".join(
                f"{k}={v!r}"
                for k, v in sorted(definition.default_params.items()))
            suffix = f"  [{params}]" if params else ""
            print(f"{name:<8} {definition.display:<26} "
                  f"{definition.description}{suffix}")
        return 0
    for i, name in enumerate(names):
        definition = get_topology(name)
        if i:
            print()
        print(f"{name} — {definition.display}")
        print(f"  {definition.description}")
        print("  parameters:")
        for key, value in sorted(definition.default_params.items()):
            print(f"    {key} = {value!r}")
        topo = definition.build_spec(definition.spec())
        print("  default build: " + topo.describe().replace("\n", "; "))
        cases = topo.failure_cases()
        if cases:
            print("  failure test points:")
            for case in cases.values():
                print(f"    {case.name}: fail {case.node}:{case.interface} "
                      f"({case.description})")
    return 0


def cmd_topo(args) -> int:
    world = World(seed=args.seed)
    topo = build_topology(_params(args), world=world)
    validate_topology(topo)
    print(topo.describe())
    print("\nfailure test points:")
    for case in topo.failure_cases().values():
        print(f"  {case.name}: fail {case.node}:{case.interface} "
              f"({case.description})")
    print("\nrack subnets:")
    for tor in topo.all_tors():
        print(f"  {tor}: {topo.rack_subnet[tor]} -> ToR VID "
              f"{topo.tor_vid_seed[tor]}")
    return 0


def cmd_converge(args) -> int:
    display = get_stack(args.stack).display
    world, topo, dep = build_and_converge(_params(args), args.stack,
                                          seed=args.seed)
    _check_routers(topo, args.show or [])
    print(f"{display} converged at t = {world.sim.now / SECOND:.3f} s "
          f"({world.sim.events_processed} events)\n")
    default_show = [topo.aggs[0][0][0]]
    default_show.append(topo.tops[0][0][0] if topo.all_tops()
                        else topo.all_tors()[-1])
    for name in args.show or default_show:
        print(dep.describe_node(name))
        print()
    return 0


def cmd_fail(args) -> int:
    from repro.scenario.library import TC_RUN, TC_SEEDS, tc_seeds

    # one run keeps --seed; a batch derives its seeds from it
    if args.runs == 1:
        return _run_campaign(args, TC_RUN, [args.stack], case=(args.case,))
    return _run_campaign(args, TC_SEEDS, [args.stack],
                         tc_seeds(args.seed, args.runs), case=(args.case,))


def cmd_sweep(args) -> int:
    from repro.scenario.library import SWEEP

    return _run_campaign(args, SWEEP, [args.stack],
                         ambient_loss=(args.ambient_loss,),
                         workload=(_workload_from(args),))


def _write_sweep_report(prefix: str, family, rows, tally, records) -> None:
    """``--report PREFIX``: the sweep summary plus the quarantine table,
    as PREFIX.txt and PREFIX.html."""
    from pathlib import Path

    from repro.harness.htmlreport import render_report, table_block
    from repro.harness.report import (
        QUARANTINE_COLUMNS,
        quarantine_rows,
        render_quarantine_table,
    )

    txt_path = Path(prefix + ".txt")
    txt_path.write_text("\n".join([
        *family.head(rows, tally), "",
        render_quarantine_table(records) or "quarantined tasks: none", "",
        f"fan-out: {tally.describe}", ""]))
    qrows = quarantine_rows(records)
    html_path = render_report(
        "robustness sweep report",
        "exhaustive single-interface failure sweep with supervisor "
        "quarantine accounting",
        [table_block("single-failure sweep",
                     ("failure point", "peer", "pairs checked", "verdict"),
                     [[family.line(row), row["point"].peer,
                       row["pairs_checked"],
                       f"{len(row['unreachable'])} unreachable pair(s)"
                       if row["unreachable"] else "OK"] for row in rows],
                     note=tally.describe),
         table_block("quarantined tasks", QUARANTINE_COLUMNS, qrows,
                     note="infra failures the supervisor gave up on — the "
                          "rest of the sweep completed without them"
                     if qrows else "nothing quarantined")],
        prefix + ".html")
    print(f"report: {txt_path} and {html_path}")


def cmd_loss(args) -> int:
    from repro.scenario import run_packet_loss_experiment

    display = get_stack(args.stack).display
    result = run_packet_loss_experiment(
        _params(args), args.stack, args.case, direction=args.direction,
        seed=args.seed, rate_pps=args.rate,
    )
    print(f"{display}, {args.case}, sender {args.direction} "
          f"({args.rate} pps, flow src port {result.src_port}):")
    print(f"  sent={result.sent} received={result.received} "
          f"lost={result.lost} dup={result.duplicated} "
          f"ooo={result.out_of_order}")
    return 0


def _load_scenarios(args):
    from pathlib import Path

    from repro.scenario import Scenario, canonical_scenarios, get_scenario

    if args.file:
        scenario = Scenario.from_json(Path(args.file).read_text())
        return [scenario]
    if not args.names:
        return list(canonical_scenarios().values())
    return [get_scenario(name) for name in args.names]


def cmd_scenario(args) -> int:
    from repro.scenario import canonical_scenarios
    from repro.scenario.library import LIBRARY

    if args.action == "list":
        for name, scenario in canonical_scenarios().items():
            print(f"{name:<16} {len(scenario.events):>2} events  "
                  f"{scenario.description}")
        return 0
    if args.action == "show":
        for scenario in _load_scenarios(args):
            print(json.dumps(scenario.to_payload(), indent=2,
                             sort_keys=True))
        return 0

    return _run_campaign(args, LIBRARY,
                         args.stack or list(available_stacks()),
                         scenario=_load_scenarios(args))


def cmd_chaos(args) -> int:
    from dataclasses import replace
    from functools import partial

    from repro.scenario.library import CHAOS, chaos_verdict

    family = (replace(CHAOS, verdict=partial(chaos_verdict,
                                             require_zero_fp=True))
              if args.require_zero_fp else CHAOS)
    return _run_campaign(
        args, family, args.stack or ["mtp", "bgp-bfd"],
        loss=tuple(args.rate or CHAOS.axes["loss"]),
        window_ms=(args.window_ms,), pps=(args.pps,), count=(args.count,),
        workload=(_workload_from(args),))


def cmd_load(args) -> int:
    from repro.scenario.library import LOAD

    if args.action == "list":
        for spec in LOAD.axes["workload"]:
            print(f"{spec.name:<12} {spec.matrix:<12} {spec.flows:>9} flows  "
                  f"{spec.description}")
        return 0
    wl = _workload_from(args)
    workloads = (wl,) if wl is not None else LOAD.axes["workload"]
    if args.action == "show":
        for spec in workloads:
            print(json.dumps(spec.to_payload(), indent=2, sort_keys=True))
        return 0
    return _run_campaign(args, LOAD, args.stack or ["mtp", "bgp-bfd"],
                         workload=workloads)


def cmd_pathtrace(args) -> int:
    from repro.harness.pathtrace import trace_path
    from repro.harness.report import render_interface_counters

    world, topo, dep = build_and_converge(_params(args), args.stack,
                                          seed=args.seed)
    if args.scenario:
        from repro.scenario import compile_scenario, get_scenario

        scenario = get_scenario(args.scenario)
        metrics = compile_scenario(scenario, world, topo,
                                   dep).execute(args.stack, args.seed)
        print(f"after scenario {scenario.name!r}: "
              f"traffic {metrics.received}/{metrics.sent}, "
              f"false positives {metrics.false_positives}, "
              f"flaps {metrics.flaps}, route churn {metrics.route_churn}\n")
    src = args.src or topo.first_server_of(topo.all_tors()[0])
    dst = args.dst or topo.first_server_of(topo.all_tors()[-1])
    path = trace_path(dep, src, dst, args.src_port)
    print(f"flow {src} -> {dst} (src port {args.src_port}):")
    print("  " + " -> ".join(path) + "\n")
    # both ends of every traversed link, in path order
    interfaces = []
    for here, there in zip(path, path[1:]):
        for iface in topo.node(here).interfaces.values():
            peer = iface.peer()
            if peer is not None and peer.node.name == there:
                interfaces.extend((iface, peer))
                break
    print(render_interface_counters(
        "per-hop interface counters", interfaces,
        note="txd/rxd = frames dropped: admin-down, uncabled, egress "
             "queue overflow (congestion), bad FCS (gray link), "
             "duplicate delivery"))
    return 0


def _check_routers(topo, names) -> None:
    """Reject node names the built fabric has no router for."""
    routers = topo.routers()
    unknown = [name for name in names if name not in routers]
    if unknown:
        raise _UsageError(f"unknown router(s) {', '.join(unknown)}; "
                          f"routers: {', '.join(routers)}")


def cmd_config(args) -> int:
    spec = resolve_spec(args.stack)
    world = World(seed=args.seed, trace_enabled=False)
    topo = build_topology(_params(args), world=world)
    if args.node is not None:
        _check_routers(topo, [args.node])
    print(get_stack(args.stack).family.render_config(
        topo, spec.timers, args.node, **spec.params_dict()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stacks = sub.add_parser("stacks", help="list registered stack plugins")
    p_stacks.add_argument("--json", action="store_true",
                          help="machine-readable output (name, display, "
                               "description, params)")
    p_stacks.set_defaults(func=cmd_stacks)

    p_topos = sub.add_parser(
        "topology", help="list or show registered topology plugins")
    p_topos.add_argument("action", choices=("list", "show"))
    p_topos.add_argument("names", nargs="*",
                         help="topology names for `show` (default: all)")
    p_topos.add_argument("--json", action="store_true",
                         help="machine-readable output (name, display, "
                              "description, params)")
    p_topos.set_defaults(func=cmd_topology)

    p_topo = sub.add_parser("topo", help="build and validate a fabric")
    _add_topo_args(p_topo)
    p_topo.set_defaults(func=cmd_topo)

    p_conv = sub.add_parser("converge", help="converge a protocol stack")
    _add_topo_args(p_conv)
    _add_stack_arg(p_conv)
    p_conv.add_argument("--show", nargs="*", help="nodes to display")
    p_conv.set_defaults(func=cmd_converge)

    p_fail = sub.add_parser("fail", help="run a failure experiment")
    _add_topo_args(p_fail)
    _add_stack_arg(p_fail)
    p_fail.add_argument("--case", choices=("TC1", "TC2", "TC3", "TC4"),
                        default="TC1")
    p_fail.add_argument("--runs", type=_positive_int, default=1,
                        help=">1 runs a multi-seed batch (seeds derived "
                             "from --seed)")
    _add_campaign_args(p_fail)
    p_fail.set_defaults(func=cmd_fail)

    p_sweep = sub.add_parser(
        "sweep", help="exhaustive single-failure robustness sweep")
    _add_topo_args(p_sweep)
    _add_stack_arg(p_sweep)
    p_sweep.add_argument("--digests", action="store_true",
                         help="print each point's run digest")
    p_sweep.add_argument("--ambient-loss", type=_probability, default=0.0,
                         help="background loss rate on every fabric link "
                              "while each hard failure plays out")
    p_sweep.add_argument("--report", metavar="PREFIX", default=None,
                         help="write PREFIX.txt and PREFIX.html reports "
                              "(sweep summary + quarantine table)")
    _add_workload_args(p_sweep)
    _add_campaign_args(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_scn = sub.add_parser(
        "scenario", help="run, list or show declarative scenarios")
    p_scn.add_argument("action", choices=("list", "show", "run"))
    p_scn.add_argument("names", nargs="*",
                       help="library scenario names (default: all)")
    p_scn.add_argument("--file", default=None,
                       help="load a scenario from a JSON file instead")
    p_scn.add_argument("--stack", action="append", default=None,
                       choices=available_stacks(), metavar="STACK",
                       help="stack(s) to run on; repeatable "
                            "(default: every registered stack)")
    p_scn.add_argument("--digests", action="store_true",
                       help="print each run's digest")
    p_scn.add_argument("--invariants", action="store_true",
                       help="attach the runtime invariant monitor (FIB "
                            "loop / blackhole episodes) even on "
                            "workload-free runs")
    p_scn.add_argument("--json", action="store_true",
                       help="machine-readable run results (metrics + "
                            "digests), same shape as chaos --json")
    _add_topo_args(p_scn)
    _add_campaign_args(p_scn)
    p_scn.set_defaults(func=cmd_scenario)

    p_chaos = sub.add_parser(
        "chaos", help="false-positive chaos suite: loss-rate x stack grid")
    _add_topo_args(p_chaos)
    p_chaos.add_argument("--stack", action="append", default=None,
                         choices=available_stacks(), metavar="STACK",
                         help="stack(s) to stress; repeatable "
                              "(default: mtp and bgp-bfd)")
    p_chaos.add_argument("--rate", action="append", type=_probability,
                         default=None, metavar="LOSS",
                         help="loss rate(s) to test; repeatable "
                              "(default: 0.0 0.01 0.02 0.05 0.1 0.2 0.3)")
    p_chaos.add_argument("--window-ms", type=_positive_int, default=5000,
                         help="quiet observation window per point")
    p_chaos.add_argument("--pps", type=_positive_int, default=500,
                         help="goodput probe rate")
    p_chaos.add_argument("--count", type=_non_negative_int, default=1000,
                         help="goodput probe packets (0 disables the probe)")
    p_chaos.add_argument("--digests", action="store_true",
                         help="print each point's run digest")
    p_chaos.add_argument("--json", action="store_true",
                         help="emit machine-readable results (per-point "
                              "payloads incl. suppression/MTTR/"
                              "availability, plus FP thresholds)")
    p_chaos.add_argument("--require-zero-fp", action="store_true",
                         help="exit non-zero if ANY grid point reports a "
                              "false positive (not just the clean-fabric "
                              "guard)")
    _add_workload_args(p_chaos)
    _add_campaign_args(p_chaos)
    p_chaos.set_defaults(func=cmd_chaos)

    p_load = sub.add_parser(
        "load", help="flow-level workload runs: fluid max-min solve of "
                     "realistic traffic matrices on a converged stack")
    p_load.add_argument("action", nargs="?", default="run",
                        choices=("list", "show", "run"))
    p_load.add_argument("--stack", action="append", default=None,
                        choices=available_stacks(), metavar="STACK",
                        help="stack(s) to load; repeatable "
                             "(default: mtp and bgp-bfd)")
    p_load.add_argument("--digests", action="store_true",
                        help="print each run's digest")
    _add_topo_args(p_load)
    _add_workload_args(p_load)
    _add_campaign_args(p_load)
    p_load.set_defaults(func=cmd_load)

    p_trace = sub.add_parser(
        "pathtrace", help="trace a flow's path and show per-hop counters")
    _add_topo_args(p_trace)
    _add_stack_arg(p_trace)
    p_trace.add_argument("--src", default=None,
                         help="source server (default: first server, "
                              "first ToR)")
    p_trace.add_argument("--dst", default=None,
                         help="destination server (default: first server, "
                              "last ToR)")
    p_trace.add_argument("--src-port", type=int, default=40000)
    p_trace.add_argument("--scenario", default=None,
                         help="run this library scenario first, so the "
                              "counters show its damage")
    p_trace.set_defaults(func=cmd_pathtrace)

    p_loss = sub.add_parser("loss", help="run a packet-loss experiment")
    _add_topo_args(p_loss)
    _add_stack_arg(p_loss)
    p_loss.add_argument("--case", choices=("TC1", "TC2", "TC3", "TC4"),
                        default="TC2")
    p_loss.add_argument("--direction", choices=("near", "far"),
                        default="near")
    p_loss.add_argument("--rate", type=_positive_int, default=1000)
    p_loss.set_defaults(func=cmd_loss)

    p_cfg = sub.add_parser("config", help="render Listing 1/2 configuration")
    _add_topo_args(p_cfg)
    _add_stack_arg(p_cfg)
    p_cfg.add_argument("--node", help="router to render (BGP only)")
    p_cfg.set_defaults(func=cmd_config)

    return parser


def _resume_command(argv) -> str:
    """The exact command that picks an interrupted campaign back up."""
    args_list = list(argv) if argv is not None else list(sys.argv[1:])
    if "--resume" not in args_list:
        args_list.append("--resume")
    return shlex.join(["python", "-m", "repro", *args_list])


def main(argv=None) -> int:
    from repro.harness.failures import UnknownTargetError
    from repro.scenario import ScenarioError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, UnknownTargetError, UnknownTopologyError,
            _UsageError) as exc:
        # bad scenario files / symbolic targets / topology selections
        # are user input, not bugs
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CampaignInterrupted as exc:
        # completed tasks were checkpointed when the cache is on —
        # nothing already computed needs recomputing
        if args.no_cache:
            tail = "nothing was checkpointed (--no-cache)"
        else:
            tail = (f"{exc.salvaged} checkpointed this run; resume with:\n"
                    f"  {_resume_command(argv)}")
        print(f"\ninterrupted: {exc.done}/{exc.total} task(s) finished, "
              f"{tail}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except KeyboardInterrupt:
        print("\ninterrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # output piped into `head` etc. — exit quietly like other CLIs
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
