"""The benchmark's own contract: ``python -m pytest bench/tests -q``.

Outside tier-1's ``testpaths`` on purpose: it spends ~50 s running the
benchmark at smoke scale, and it tests the benchmark, not the program.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spec  # noqa: E402  (bench/spec.py, importable only after the path edit)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Two full smoke runs of every workload, timed and traced."""
    docs = []
    for i in range(2):
        out = tmp_path_factory.mktemp("smoke") / f"run{i}.json"
        proc = run_bench("--scale", "smoke", "--repeats", "1",
                         "--out", str(out))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        docs.append(json.loads(out.read_text()))
    return docs


def test_manifest_is_spec(manifest):
    assert manifest == spec.manifest()


def test_manifest_limits(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert 1 <= manifest["run_seconds"] <= 60
    names = [entry["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for entry in manifest[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for w in manifest["workloads"]:
        assert "\n" not in w["why"] and len(w["why"]) <= 200
    for m in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        next(m for m in manifest["end_to_end"]
             if m["name"] == "setup_s").items()


def test_interactions_name_declared_things():
    e2e = {name for name, *_ in spec.END_TO_END}
    workloads = {w.name for w in spec.WORKLOADS} | {"all"}
    for m in spec.PER_LAYER:
        assert m.moves.startswith("none") or set(m.moves.split()) <= e2e, m
        assert set(m.on.split()) <= workloads, m


def test_inputs_load_through_the_scenario_model():
    from repro.scenario.model import Scenario

    for w in spec.WORKLOADS:
        if w.input is None:
            continue
        for variant in (w, w.smoke()):
            text = (BENCH / "inputs" / f"{variant.input}.json").read_text()
            scenario = Scenario.from_json(text)
            assert (scenario.name,) == w.scenarios
            assert json.loads(text) == scenario.to_payload()


def test_smoke_emits_exactly_the_declared_names(manifest, smoke_runs):
    declared_e2e = {m["name"] for m in manifest["end_to_end"]}
    declared_layer = {m["name"] for m in manifest["per_layer"]}
    for doc in smoke_runs:
        assert set(doc["workloads"]) == {w["name"]
                                         for w in manifest["workloads"]}
        for name, result in doc["workloads"].items():
            assert result["correct"] and result["failed"] == 0, name
            assert result["ops_failed_share"] == 0.0
            assert set(result["end_to_end"]) == declared_e2e, name
            assert set(result["per_layer"]) == declared_layer, name


def test_exact_counts_repeat(smoke_runs):
    first, second = (doc["workloads"] for doc in smoke_runs)
    for m in spec.PER_LAYER:
        if not m.exact:
            continue
        for name in first:
            assert (first[name]["per_layer"][m.name]
                    == second[name]["per_layer"][m.name]), (name, m.name)
    for name in first:
        assert first[name]["model_digest"] == second[name]["model_digest"]


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"),
                                         ("1", "per_layer")])
def test_result_line(manifest, trace, kind):
    proc = run_bench("--workload", "load-1m", "--scale", "smoke", "--seed",
                     "5", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in manifest[kind]}
    for value in result["metrics"].values():
        assert set(value) == {"value", "unit"}
        assert isinstance(value["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "load-1m", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json",
                                                          "bench"]
