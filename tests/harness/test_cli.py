"""CLI entry points (python -m repro ...)."""

from __future__ import annotations

import pytest

from repro.cli import EXIT_FINDINGS, build_parser, main


def run_cli(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_topo(capsys):
    out = run_cli(capsys, "topo", "--pods", "2")
    assert "routers: 12" in out
    assert "TC1: fail L-1-1:eth1" in out
    assert "192.168.11.0/24 -> ToR VID 11" in out


def test_topo_with_zones(capsys):
    out = run_cli(capsys, "topo", "--pods", "2", "--zones", "2")
    assert "2 zone(s)" in out


def test_converge_mtp(capsys):
    out = run_cli(capsys, "converge", "--stack", "mtp")
    assert "MR-MTP converged" in out
    assert "VID table:" in out
    assert "11.1" in out


def test_converge_bgp_shows_summary_and_fib(capsys):
    out = run_cli(capsys, "converge", "--stack", "bgp")
    assert "BGP router" in out
    assert "established" in out
    assert "proto bgp metric 20" in out


def test_fail(capsys, tmp_path):
    argv = ["fail", "--stack", "mtp", "--case", "TC2",
            "--cache-dir", str(tmp_path)]
    out = run_cli(capsys, *argv)
    assert "convergence time" in out
    assert "blast radius" in out
    # one run is a one-task campaign: cached, so a resume replays it
    replay = run_cli(capsys, *argv, "--resume")
    assert replay.startswith(out)
    assert "resume: 1/1 task(s) replayed from checkpoint, 0 executed" in replay


def test_loss(capsys):
    out = run_cli(capsys, "loss", "--stack", "mtp", "--case", "TC2",
                  "--rate", "500")
    assert "lost=" in out


def test_config_mtp(capsys):
    out = run_cli(capsys, "config", "--stack", "mtp", "--pods", "2")
    assert "leavesNetworkPortDict" in out


def test_config_bgp_specific_node(capsys):
    out = run_cli(capsys, "config", "--stack", "bgp", "--node", "L-1-1")
    assert "configuration for L-1-1" in out
    assert "network 192.168.11.0/24" in out


def test_unknown_stack_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fail", "--stack", "ospf"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_converge_with_explicit_nodes(capsys):
    out = run_cli(capsys, "converge", "--stack", "mtp", "--show", "L-1-1")
    assert "ToR VID: 11" in out


@pytest.mark.parametrize("argv", [
    ("config", "--stack", "bgp", "--node", "NOPE"),
    ("converge", "--stack", "mtp", "--show", "L-1-1", "NOPE"),
])
def test_unknown_node_is_a_usage_error(capsys, argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: unknown router(s) NOPE; routers: L-1-1, L-1-2, L-2-1, "
        "L-2-2, S-1-1, S-1-2, S-2-1, S-2-2, T-1, T-2, T-3, T-4\n")


def test_loss_far_direction(capsys):
    out = run_cli(capsys, "loss", "--stack", "mtp", "--case", "TC1",
                  "--direction", "far", "--rate", "500")
    assert "sender far" in out and "lost=" in out


def test_experiment_rejects_bad_direction():
    from repro.scenario import LOSS
    from repro.topology.clos import two_pod_params

    with pytest.raises(ValueError):
        LOSS.expand(two_pod_params(), ["mtp"], case=("TC1",),
                    direction=("sideways",))


def test_stacks_json_is_machine_readable(capsys):
    import json

    from repro.stacks import available_stacks

    entries = json.loads(run_cli(capsys, "stacks", "--json"))
    assert [e["name"] for e in entries] == list(available_stacks())
    for entry in entries:
        assert set(entry) == {"name", "display", "description", "params"}
    by_name = {e["name"]: e for e in entries}
    assert by_name["mtp-spray"]["params"] == {"per_packet_spray": True}


def test_scenario_list(capsys):
    out = run_cli(capsys, "scenario", "list")
    for name in ("tc1", "tc4", "flap-storm", "double-cut", "drain",
                 "rolling-restart"):
        assert name in out


def test_scenario_show_emits_loadable_json(capsys, tmp_path):
    import json

    from repro.scenario import Scenario, get_scenario

    out = run_cli(capsys, "scenario", "show", "double-cut")
    assert Scenario.from_payload(json.loads(out)) == \
        get_scenario("double-cut")
    # and the shown JSON round-trips through --file
    path = tmp_path / "custom.json"
    path.write_text(out)
    out2 = run_cli(capsys, "scenario", "show", "--file", str(path))
    assert json.loads(out2) == json.loads(out)


def test_scenario_run(capsys, tmp_path):
    out = run_cli(capsys, "scenario", "run", "tc2", "--stack", "mtp",
                  "--cache-dir", str(tmp_path))
    assert "tc2" in out and "conv" in out
    assert "1 scenario runs" in out
    # second invocation replays from the cache
    out2 = run_cli(capsys, "scenario", "run", "tc2", "--stack", "mtp",
                   "--cache-dir", str(tmp_path))
    assert "1 from cache" in out2


def test_scenario_run_digests_flag(capsys):
    out = run_cli(capsys, "scenario", "run", "tc4", "--stack", "mtp",
                  "--no-cache", "--digests")
    prefix = out.splitlines()[0].split()[0]
    assert len(prefix) == 16 and all(c in "0123456789abcdef"
                                     for c in prefix)


def test_scenario_rejects_unknown_names(capsys):
    assert main(["scenario", "show", "tc9"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_scenario_rejects_bad_target(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "bad", "events": [{"op": "iface_down", '
                    '"target": "tor[999].uplink[0]"}]}')
    assert main(["scenario", "run", "--file", str(path), "--stack", "mtp",
                 "--no-cache"]) == 2
    assert "out of range" in capsys.readouterr().err


# ----------------------------------------------------------------------
# fault-tolerant campaigns: --supervise / --resume / exit codes
# ----------------------------------------------------------------------
def test_resume_rejects_no_cache(capsys):
    assert main(["scenario", "run", "tc2", "--stack", "mtp",
                 "--resume", "--no-cache"]) == 2
    assert "drop --no-cache" in capsys.readouterr().err


def test_supervised_run_checkpoints_then_resumes(capsys, tmp_path):
    out = run_cli(capsys, "scenario", "run", "tc2", "--stack", "mtp",
                  "--cache-dir", str(tmp_path), "--supervise")
    assert "1 scenario runs" in out
    # --resume replays the checkpoint and prints the accounting
    out2 = run_cli(capsys, "scenario", "run", "tc2", "--stack", "mtp",
                   "--cache-dir", str(tmp_path), "--supervise", "--resume")
    assert "resume: 1/1 task(s) replayed from checkpoint, 0 executed" in out2


def test_supervised_digest_matches_plain(capsys):
    """The supervisor's process-per-task execution must not perturb the
    run digest — the serial==parallel guarantee extends to it."""
    plain = run_cli(capsys, "scenario", "run", "tc2", "--stack", "mtp",
                    "--no-cache", "--digests").splitlines()[0]
    supervised = run_cli(capsys, "scenario", "run", "tc2", "--stack", "mtp",
                         "--no-cache", "--digests",
                         "--supervise").splitlines()[0]
    assert plain == supervised


def test_sweep_report_includes_quarantine_section(capsys, tmp_path):
    prefix = tmp_path / "report"
    run_cli(capsys, "sweep", "--stack", "mtp", "--cache-dir",
            str(tmp_path / "cache"), "--report", str(prefix))
    text = (tmp_path / "report.txt").read_text()
    assert "fan-out:" in text
    assert "quarantined tasks: none" in text  # clean run records the fact
    html = (tmp_path / "report.html").read_text()
    assert "<table>" in html and "single-failure sweep" in html


def test_campaign_epilogue_exit_codes(capsys):
    import argparse

    from repro.cli import EXIT_INFRA, EXIT_OK, _campaign_epilogue
    from repro.harness.executor import CampaignReport, TaskRecord

    args = argparse.Namespace(resume=False)
    report = CampaignReport()
    assert _campaign_epilogue(args, report) == EXIT_OK
    bad = TaskRecord(index=0, key="k", label="t", state="quarantined")
    bad.quarantine_reason = "exhausted 3 attempt(s)"
    report.records.append(bad)
    assert _campaign_epilogue(args, report) == EXIT_INFRA
    assert "infra failure" in capsys.readouterr().err


def test_campaign_notes_go_to_stderr_and_leave_stdout_alone(capsys,
                                                           monkeypatch):
    """``--jobs 2`` on a host with one core runs one child at a time,
    and says so: the report's note is printed on stderr; stdout is the
    document a ``--jobs 1`` run prints."""
    argv = ["scenario", "run", "tc1", "tc2", "--stack", "mtp", "--json",
            "--no-cache"]
    assert main(argv) == 0
    serial = capsys.readouterr()
    assert "note:" not in serial.err
    monkeypatch.setattr("repro.harness.executor.os.cpu_count", lambda: 1)
    assert main([*argv, "--jobs", "2"]) == 0
    clamped = capsys.readouterr()
    assert clamped.out == serial.out
    assert clamped.err.splitlines() == [
        "note: clamped to 1 job(s): 2 jobs would oversubscribe 1 core(s)"]


def test_failure_batch_is_a_resumable_campaign(capsys, tmp_path):
    argv = ["fail", "--stack", "mtp", "--case", "TC1", "--runs", "2",
            "--cache-dir", str(tmp_path)]
    out = run_cli(capsys, *argv, "--supervise")
    assert "2 runs (2 tasks: 2 executed" in out
    out2 = run_cli(capsys, *argv, "--resume")
    assert "resume: 2/2 task(s) replayed from checkpoint, 0 executed" in out2


# ----------------------------------------------------------------------
# --json: stdout is exactly one document, whatever the epilogue says
# ----------------------------------------------------------------------
@pytest.mark.parametrize("argv,code,epilogue", [
    (["scenario", "run", "tc2", "--stack", "mtp", "--resume"], 0, "resume:"),
    (["chaos", "--stack", "mtp", "--rate", "0", "--window-ms", "500",
      "--count", "50", "--resume"], 0, "resume:"),
    # a 1 ms watchdog deadline kills the only attempt: quarantined
    (["scenario", "run", "tc2", "--stack", "mtp", "--task-deadline",
      "0.001", "--max-attempts", "1"], 3, "quarantined tasks"),
])
def test_json_stdout_is_one_document(capsys, tmp_path, argv, code, epilogue):
    import json

    assert main([*argv, "--pods", "2", "--json",
                 "--cache-dir", str(tmp_path)]) == code
    captured = capsys.readouterr()
    json.loads(captured.out)
    assert epilogue in captured.err


# ----------------------------------------------------------------------
# bad campaign flags are usage errors; only a cache makes a resume
# ----------------------------------------------------------------------
@pytest.mark.parametrize("flags", [
    ["scenario", "run", "tc2", "--supervise", "--max-attempts", "0"],
    ["scenario", "run", "tc2", "--task-deadline", "-1"],
    ["fail", "--runs", "0"],
    ["fail", "--runs", "-5"],
    ["loss", "--rate", "0"],
    ["chaos", "--pps", "0"],
    ["chaos", "--rate", "1.5"],
    ["sweep", "--ambient-loss", "1.5"],
    ["chaos", "--rate", "-0.2"],
    ["chaos", "--window-ms", "-5"],
    ["chaos", "--count", "-3"],
])
def test_bad_supervision_flags_exit_with_usage_error(capsys, flags):
    with pytest.raises(SystemExit) as exc_info:
        main([*flags, "--stack", "mtp"])
    assert exc_info.value.code == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("cache_flag", ["--no-cache", "--cache-dir=unused"])
def test_interrupt_prints_resume_only_with_a_cache(capsys, monkeypatch,
                                                   cache_flag):
    from repro import cli
    from repro.harness.executor import CampaignInterrupted

    def interrupted(*_args, **_kwargs):
        raise CampaignInterrupted(done=0, total=1, salvaged=0)

    monkeypatch.setattr(cli, "run_tasks", interrupted)
    assert main(["scenario", "run", "tc2", "--stack", "mtp",
                 cache_flag]) == cli.EXIT_INTERRUPTED
    err = capsys.readouterr().err
    assert ("resume with:" in err) == (cache_flag != "--no-cache")
    assert ("nothing was checkpointed" in err) == (cache_flag == "--no-cache")


def _refusal(capsys, *argv: str) -> str:
    """Run a command on MR-MTP over DCell, a fabric it cannot converge
    on: exit 1, nothing on stdout, and one ``error:`` line on stderr
    (``note:`` lines aside), which is returned."""
    code = main([*argv, "--topology", "dcell", "--stack", "mtp"])
    captured = capsys.readouterr()
    assert code == EXIT_FINDINGS
    assert captured.out == ""
    lines = [line for line in captured.err.splitlines()
             if not line.startswith("note: ")]
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


@pytest.mark.parametrize("case", ["TC1", "TC2", "TC3", "TC4"])
def test_loss_without_a_crossing_flow_is_a_finding(capsys, case):
    """MR-MTP on DCell blackholes cross-cell traffic, so no flow between
    the case's racks could cross its link: the fabric never turns ready,
    and the run refuses at its converge, as the stack's finding, not a
    usage mistake."""
    error = _refusal(capsys, "loss", "--case", case)
    assert error.startswith("error: deployment fell silent unconverged")


def test_loss_verdict_names_a_flow_that_crossed_nothing():
    from repro.scenario import LOSS

    row = {"racks": {"TC2": ("h-near", "h-far", "L-1-1<->S-1-1")},
           "case": "TC2", "direction": "far", "via_port": None}
    assert LOSS.verdict([row]) == [
        "no flow from h-far to h-near crosses L-1-1<->S-1-1"]
    assert LOSS.verdict([{**row, "via_port": 40000}]) == []


def test_a_refused_converge_reads_the_same_everywhere(capsys):
    """``converge`` and ``scenario run``, serial or fanned out over
    forked children, report a refused converge as one finding."""
    converge = _refusal(capsys, "converge")
    serial = _refusal(capsys, "scenario", "run", "tc1", "--no-cache")
    fanned = _refusal(capsys, "scenario", "run", "tc1", "--no-cache",
                      "--jobs", "2")
    assert converge == serial == fanned
    assert converge.startswith("error: deployment fell silent unconverged")


def test_a_supervised_refusal_is_a_finding_not_a_quarantine(capsys):
    """Under the supervisor a refused converge is not a fault to retry:
    no quarantine table, exit 1 and the same one ``error:`` line."""
    supervised = _refusal(capsys, "scenario", "run", "tc1", "--no-cache",
                          "--supervise")
    assert supervised == _refusal(capsys, "converge")
