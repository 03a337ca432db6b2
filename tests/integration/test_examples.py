"""Smoke tests: every example script runs to completion."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "ToR VID 11" in out
    assert "lost=0" in out


def test_failure_recovery_tc2():
    out = run_example("failure_recovery.py", "TC2")
    assert "MR-MTP" in out and "BGP/ECMP/BFD" in out
    assert "convergence time" in out
    assert "blast radius" in out


def test_meshed_tree_walkthrough():
    out = run_example("meshed_tree_walkthrough.py")
    assert "Advertise" in out and "Join Request" in out
    assert "VID Offer" in out and "Accept" in out
    assert "Data: 06" in out  # the Fig. 10 keepalive


def test_scalability_study_small():
    out = run_example("scalability_study.py", "--max-pods", "2")
    assert "four tiers" in out
    assert "depth 4" in out


def test_protocol_comparison():
    out = run_example("protocol_comparison.py")
    assert "Fig. 4" in out and "Fig. 5" in out and "Fig. 6" in out
    assert "Listings 1/2" in out and "Listings 3/5" in out


def test_packet_loss_study():
    """The script runs; Figs. 7/8's numbers are ``test_paper_shapes``'s."""
    out = run_example("packet_loss_study.py", "--rate", "10")
    assert "Fig. 7" in out and "Fig. 8" in out


def test_export_pcap(tmp_path):
    out = run_example("export_pcap.py", "--outdir", str(tmp_path))
    assert "wrote" in out and "Data: " not in out  # summaries, not dumps
    pcaps = list(tmp_path.glob("*.pcap"))
    assert len(pcaps) == 3
    from repro.wire.pcap import read_pcap

    for path in pcaps:
        assert read_pcap(path), f"{path} empty"


def test_traceroute_comparison():
    out = run_example("traceroute_comparison.py")
    assert "[destination]" in out
    assert out.count("traceroute to") == 2


def test_multi_seed_study():
    out = run_example("multi_seed_study.py", "--seeds", "2")
    assert "±" in out and "speedup" in out


def test_html_report(tmp_path, monkeypatch, capsys):
    """The script runs and renders, on one stack and one case: Figs.
    4-7's numbers are ``test_paper_shapes``'s, the charts
    ``tests/harness/test_htmlreport.py``'s."""
    spec = importlib.util.spec_from_file_location(
        "html_report", EXAMPLES / "html_report.py")
    report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report)
    report.STACKS, report.CASES = ("mtp",), ("TC1",)
    monkeypatch.setattr(sys, "argv", ["html_report.py",
                                      "--out", str(tmp_path / "r.html")])
    report.main()
    assert "wrote" in capsys.readouterr().out
    text = (tmp_path / "r.html").read_text()
    assert text.count("<svg") == 4
    assert "Fig. 4" in text and "Fig. 7" in text
