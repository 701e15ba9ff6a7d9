#!/usr/bin/env python3
"""Wall-clock, layer-by-layer benchmark of the repro pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload build|serve|dashboard-live \
        --seed 1 --seconds 20 --trace 0|1

It builds the workload's inputs from ``--seed`` (set-up, timed several
times and reported as ``setup_s``), then replays them in rounds for
``--seconds`` seconds through the package's public entry points,
checking every answer against the program's byte-identity oracles.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a separately traced run and writes its spans as a
Chrome trace under ``.perfbench/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Any failed operation makes the exit code 1.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import os
import sys

# One BLAS/OpenMP thread per process, set before numpy loads: mp runs
# fork one process per rank, and a thread per core in each of them
# oversubscribes the host.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

#: the seed every result is quoted at, and the one held out to confirm
#: a claimed gain (both must pass every oracle)
DEFAULT_SEED = 1
HELDOUT_SEED = 2
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("round_s", "s"),
)
_STAGES = ("scan", "index", "topic", "am", "docvec", "clusproj")
PER_LAYER = (
    ("runtime.residual_s", "s"),
    ("runtime.payload.busy_s", "s"),
    ("runtime.payload.calls", "count"),
    ("runtime.sched.turns", "count"),
    ("runtime.sched.blocked_vs", "s_virtual"),
    ("runtime.comm.p2p_messages", "count"),
    ("runtime.comm.p2p_bytes", "B"),
    ("runtime.comm.coll_calls", "count"),
    ("runtime.comm.coll_bytes", "B"),
    ("runtime.comm.rpc_calls", "count"),
    ("runtime.mp.speedup_vs_serial", "ratio"),
    ("ga.taskq.tasks", "count"),
    ("ga.taskq.chunks", "count"),
    ("ga.taskq.lease_reclaims", "count"),
    ("ga.hashmap.ops", "count"),
    ("ga.hashmap.rpc_retries", "count"),
    *((f"engine.{s}.wall_s", "s") for s in _STAGES),
    *((f"engine.{s}.virtual_s", "s_virtual") for s in _STAGES),
    ("viz.themeview.busy_s", "s"),
    ("serve.store.write.busy_s", "s"),
    ("serve.store.write_bytes", "B"),
    ("serve.store.decode.busy_s", "s"),
    ("serve.store.decode.calls", "count"),
    ("serve.store.live_deltas", "count"),
    ("serve.query.shard_op.busy_s", "s"),
    ("serve.query.shard_op.calls", "count"),
    ("serve.query.bytes_scanned", "B"),
    ("serve.query.blocks_skipped", "count"),
    ("serve.broker.merge.busy_s", "s"),
    ("serve.broker.cache_hit_ratio", "ratio"),
    ("serve.broker.rejected", "count"),
    ("serve.broker.degraded", "count"),
    ("serve.broker.virtual_qps", "1/s_virtual"),
    ("serve.broker.virtual_p99_ms", "ms_virtual"),
    ("serve.router.failover", "count"),
    ("serve.router.hedge", "count"),
    ("serve.router.shed", "count"),
    ("serve.router.virtual_p99_ms", "ms_virtual"),
    ("workbench.derive.busy_s", "s"),
    ("workbench.algebra.busy_s", "s"),
    ("workbench.artifact_hit_ratio", "ratio"),
    ("workbench.rejected", "count"),
    ("workbench.sessions_evicted", "count"),
    ("workbench.virtual_p99_ms", "ms_virtual"),
    ("facets.windows", "count"),
    ("facets.bytes_scanned", "B"),
    ("facets.emerging.busy_s", "s"),
    ("ingest.delta.busy_s", "s"),
    ("ingest.publish.busy_s", "s"),
    ("ingest.compact.busy_s", "s"),
    ("ingest.docs", "count"),
    ("ingest.generations", "count"),
    ("ingest.compactions", "count"),
    ("ingest.null_signatures", "count"),
    ("trace.overhead_ratio", "ratio"),
)
#: layers (``layers.BUSY_LAYERS``) reported as ``<layer>.busy_s``
BUSY_REPORTED = (
    "runtime.payload",
    "viz.themeview",
    "serve.store.write",
    "serve.store.decode",
    "serve.query.shard_op",
    "serve.broker.merge",
    "workbench.derive",
    "workbench.algebra",
    "facets.emerging",
    "ingest.delta",
    "ingest.publish",
    "ingest.compact",
)
#: span-wrapper call counts reported as metrics
CALL_METRICS = (
    "runtime.payload.calls",
    "runtime.sched.turns",
    "serve.store.decode.calls",
    "serve.query.shard_op.calls",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument(
        "--workload", required=True,
        choices=("build", "serve", "dashboard-live"),
    )
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--scale", type=float, default=1.0,
        help="input-size factor (the benchmark's own tests use a tiny one)",
    )
    return ap.parse_args(argv)


def import_program():
    """Put the checkout's ``src/`` first on the path and import the
    benchmark modules that need the program."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"{src}: no repro package to benchmark")
    sys.path.insert(0, str(src))
    import layers
    import workloads

    return layers, workloads


def src_digest() -> str:
    """Digest of every file under ``src/``: names the code measured
    when the checkout carries no git metadata."""
    import hashlib

    h = hashlib.blake2b(digest_size=16)
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        if "__pycache__" in path.parts:
            continue
        h.update(str(path.relative_to(src)).encode() + b"\x00")
        h.update(path.read_bytes())
    return h.hexdigest()


def host_env() -> dict:
    import numpy

    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": "unknown",
        "src_digest": src_digest(),
    }
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            )
            env["commit"] = out.stdout.strip() or "unknown"
        except OSError:
            pass
    return env


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark so set-up is not counted
    (where the kernel refuses, set-up stays in the peak)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb(mp_ranks: int) -> float:
    """This process's peak RSS plus ``mp_ranks`` times the largest
    child's (mp children's shared pages count once per process)."""
    hwm_kb = 0
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                hwm_kb = int(line.split()[1])
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (hwm_kb + mp_ranks * child_kb) / 1024.0


def run_rounds(wl, workloads, seconds, recorder, first_index):
    """Rounds until ``seconds`` have passed and the workload has enough
    samples, stopping only at a cycle boundary."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        position = len(rounds) % wl.cycle_len
        if position == 0 and rounds and (
            time.perf_counter() - t0 >= seconds
            and wl.min_rounds_met(rounds)
        ):
            return rounds
        rnd = workloads.Round(first_index + len(rounds), position, recorder)
        before = recorder.snapshot_counts() if recorder else None
        try:
            wl.run_round(rnd)
        except Exception as exc:
            rnd.attempted += 1
            rnd.failures.append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        if recorder is not None:
            after = recorder.snapshot_counts()
            delta = {k: after[k] - before[k] for k in after}
            for name in CALL_METRICS:
                rnd.traced[name] = float(delta[name])
        rounds.append(rnd)
        if rnd.failures:
            return rounds


def reap_children() -> None:
    import multiprocessing

    for proc in multiprocessing.active_children():
        proc.join(10)
        if proc.is_alive():
            proc.terminate()
            proc.join(10)


def stop_resource_tracker() -> None:
    """Stop and wait for the resource-tracker process that the first
    shared-memory segment starts; left alone it outlives this process.
    Call after every child is reaped: each holds its pipe open."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def layer_metrics(wl, layers, recorder, traced, untraced) -> dict:
    """Per-round means of every per-layer metric over the traced rounds."""
    per_round = []
    for rnd in traced:
        spans = layers.round_busy(recorder, rnd.index)
        vals = {name: 0.0 for name, _unit in PER_LAYER}
        vals.update(rnd.counts)
        vals.update(rnd.traced)
        for layer in BUSY_REPORTED:
            vals[f"{layer}.busy_s"] = spans["busy"][layer]
        vals["serve.store.write_bytes"] = float(spans["write_bytes"])
        runtime_wall = sum(rnd.walls.get(p, 0.0) for p in wl.runtime_phases)
        runtime_busy = sum(spans["top"].get(p, 0.0) for p in wl.runtime_phases)
        vals["runtime.residual_s"] = runtime_wall - runtime_busy
        vals.update(rnd.stage_walls)
        per_round.append(vals)
    out = {
        name: statistics.fmean(v[name] for v in per_round)
        for name, _unit in PER_LAYER
    }
    hits = sum(r.counts.get("_cache_hit", 0.0) for r in traced)
    misses = sum(r.counts.get("_cache_miss", 0.0) for r in traced)
    out["serve.broker.cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )
    if "mp" in untraced[0].walls:
        out["runtime.mp.speedup_vs_serial"] = statistics.median(
            r.walls["serial"] for r in untraced
        ) / statistics.median(r.walls["mp"] for r in untraced)
    out["trace.overhead_ratio"] = statistics.fmean(
        r.wall for r in traced
    ) / statistics.fmean(r.wall for r in untraced)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        layers, workloads = import_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    tmp = workdir / "tmp"
    tmp.mkdir()
    os.environ["TMPDIR"] = str(tmp)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale, str(workdir))
    rounds: list = []
    failures: list[str] = []
    metrics: dict[str, float] = {}
    named: dict = {}
    attempted = 0
    try:
        setup_walls, input_digests = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            input_digests.append(wl.setup())
            setup_walls.append(time.perf_counter() - t0)
        attempted += SETUP_REPEATS
        if len(set(input_digests)) != 1:
            failures.append("set-up inputs differ across repeats")
        setup_s = statistics.median(setup_walls)
        if args.trace == 0:
            reset_peak_rss()
            rounds = run_rounds(wl, workloads, args.seconds, None, 0)
            reap_children()
            mp_ranks = getattr(wl, "MP_P", 0)
            metrics = {
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb(mp_ranks),
                "round_s": statistics.median(r.wall for r in rounds),
            }
        else:
            from repro.runtime.tracing import WALL_ENV

            untraced = run_rounds(wl, workloads, args.seconds / 2, None, 0)
            recorder = layers.SpanRecorder()
            traced = []
            if not untraced[-1].failures:
                recorder.install()
                os.environ[WALL_ENV] = "1"
                try:
                    traced = run_rounds(
                        wl, workloads, args.seconds / 2, recorder,
                        len(untraced),
                    )
                finally:
                    os.environ.pop(WALL_ENV, None)
                    recorder.uninstall()
                    reap_children()
            rounds = untraced + traced
            bad = workloads.fingerprint_mismatches(traced, ("traced",))
            if bad:
                failures.append(f"span counts drifted in rounds {bad}")
            if not any(r.failures for r in rounds):
                metrics = layer_metrics(wl, layers, recorder, traced, untraced)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            recorder.write(
                str(trace_path),
                {"workload": args.workload, "seed": args.seed},
            )
            print(f"trace: {trace_path.relative_to(ROOT)}")
        for rnd in rounds:
            attempted += rnd.attempted
            failures.extend(rnd.failures)
        bad = workloads.fingerprint_mismatches(rounds)
        if bad:
            failures.append(f"deterministic values drifted in rounds {bad}")
        if not failures and args.trace == 0:
            named = wl.named(rounds)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        attempted += 1
        failures.append(f"{type(exc).__name__}: {exc}")
    finally:
        reap_children()
        stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)

    for what in sorted(set(failures)):
        print(f"FAILED: {what} (x{failures.count(what)})", file=sys.stderr)
    units = dict(END_TO_END + PER_LAYER)
    attempted = max(attempted, 1)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(rounds)} rounds"
    )
    print(
        f"  error_rate = {len(failures) / attempted:.6g} "
        f"({len(failures)} failed / {attempted} attempted)"
    )
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for name, (value, unit) in named.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "env": host_env(),
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "round_walls": [round(r.wall, 6) for r in rounds],
    }))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
