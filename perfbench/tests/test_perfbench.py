"""The benchmark's own tests: every workload at a tiny size.

Each run must emit every metric ``BENCHMARK.json`` names, with its unit,
fail no operation, and (traced) write a loadable Chrome trace.  Run from
the repository root with ``python3 -m pytest perfbench/tests -q``.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: the figures each workload prints beside the gated metrics
NAMED = {
    "build": (
        "engine_serial_mb_s", "engine_sim_mb_s", "engine_mp_mb_s",
        "store_build_mb_s",
    ),
    "serve": (
        "serve_qps", "tier_qps", "wb_ops_s", "oneshot_p50_ms",
        "oneshot_p95_ms",
    ),
    "dashboard-live": ("dash_qps", "ingest_docs_s"),
}

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def bench(workload: str, trace: int, seed: int = run.DEFAULT_SEED,
          cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--scale", "0.03"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_spec_matches_driver_tables():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        run.PER_LAYER
    )
    assert WORKLOADS == ["build", "serve", "dashboard-live"]
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    proc = bench(workload, trace=0)
    result = result_of(proc)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    named = json.loads(proc.stdout.strip().splitlines()[-2])["named"]
    for name in NAMED[workload]:
        assert named[name]["value"] > 0 and named[name]["unit"]
        assert f"  {name} = " in proc.stdout
    assert "  error_rate = 0 (0 failed / " in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_and_trace(workload):
    proc = bench(workload, trace=1)
    result = result_of(proc)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    line = next(
        ln for ln in proc.stdout.splitlines() if ln.startswith("trace: ")
    )
    trace = json.loads((ROOT / line.split(": ", 1)[1]).read_text())
    events = trace["traceEvents"]
    assert any(e["cat"] == "phase" for e in events)
    layers = {e["cat"] for e in events} - {"phase"}
    assert layers
    for e in events:
        assert e["ph"] == "X" and e["dur"] >= 0 and "id" in e["args"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_heldout_seed_passes_every_oracle(workload):
    result_of(bench(workload, trace=0, seed=run.HELDOUT_SEED))


def session_processes(sid: int) -> list[str]:
    """Command lines of the live processes in session ``sid``."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
            cmdline = (stat.parent / "cmdline").read_bytes()
        except OSError:
            continue
        state, _ppid, _pgrp, session = text.rsplit(")", 1)[1].split()[:4]
        if int(session) == sid and state != "Z":
            found.append(cmdline.replace(b"\x00", b" ").decode())
    return found


def test_leaves_no_process_behind():
    """The mp run's children and the shared-memory resource tracker
    are all gone by the time the benchmark exits."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", "build",
         "--seed", str(run.DEFAULT_SEED), "--seconds", "0", "--trace", "0",
         "--scale", "0.03"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    out, err = proc.communicate(timeout=600)
    assert proc.returncode == 0, err[-4000:]
    assert session_processes(proc.pid) == []


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / BENCH.name,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = bench(
        "build", trace=0, cwd=tmp_path,
        script=tmp_path / BENCH.name / "run.py",
    )
    assert proc.returncode not in (0, None)
    assert '"correct"' not in proc.stdout
