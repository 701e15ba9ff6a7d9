"""The benchmark's three seeded workloads and their oracles.

Each workload builds its inputs from the seed in ``setup`` (timed as
set-up, never as work) and then runs *rounds*: every round replays the
same seeded inputs through the program's public entry points, timing
each phase with ``perf_counter``.  Because the inputs repeat, every
deterministic value a round yields -- program counters, virtual times,
canonical answer digests -- must repeat exactly from round to round;
:func:`fingerprint_mismatches` turns any drift into a failed operation.

``dashboard-live`` mutates its store, so its rounds come in *cycles*
of ``cycle_len`` rounds over a fresh copy of the base store; rounds at
the same position of different cycles must agree.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import time
from contextlib import contextmanager, nullcontext

import numpy as np

import repro.ingest as ingest
import repro.serve as serving
import repro.viz.themeview as themeview
from repro.datasets.pubmed import generate_pubmed
from repro.engine import EngineConfig, SerialTextEngine
from repro.engine.parallel import ParallelTextEngine
from repro.facets import FacetSpec, extract_facets
from repro.runtime import counter_totals
from repro.serve.query import canonical_response
from repro.serve.workload import generate_dashboard_workload
from repro.workbench import generate_analyst_workload, serve_workbench

#: facet source regions every corpus is stamped with
N_SOURCES = 4
#: shards of every store
N_SHARDS = 4
#: per-layer metric -> the program counter summed over a round's sessions
PROGRAM_COUNTERS = {
    "runtime.comm.p2p_messages": "comm.p2p.messages",
    "runtime.comm.p2p_bytes": "comm.p2p.bytes",
    "runtime.comm.coll_calls": "comm.coll.calls",
    "runtime.comm.coll_bytes": "comm.coll.bytes",
    "runtime.comm.rpc_calls": "comm.rpc.calls",
    "runtime.sched.blocked_vs": "sched.blocked_seconds",
    "ga.taskq.tasks": "taskq.tasks",
    "ga.taskq.chunks": "taskq.chunks",
    "ga.taskq.lease_reclaims": "taskq.lease_reclaims",
    "ga.hashmap.ops": "hashmap.ops",
    "ga.hashmap.rpc_retries": "hashmap.rpc_retries",
    "serve.query.bytes_scanned": "serve.shard.bytes_scanned",
    "serve.query.blocks_skipped": "serve.shard.blocks_skipped",
    "serve.broker.rejected": "serve.rejected",
    "serve.broker.degraded": "serve.degraded",
    "serve.router.failover": "serve.failover",
    "serve.router.hedge": "serve.hedge",
    "serve.router.shed": "serve.shed",
    "facets.windows": "facets.windows",
    "facets.bytes_scanned": "facets.bytes_scanned",
    "_cache_hit": "serve.cache.hit",
    "_cache_miss": "serve.cache.miss",
}
ENGINE_STAGES = ("scan", "index", "topic", "am", "docvec", "clusproj")


class Round:
    """What one round measured and what it must reproduce."""

    def __init__(self, index: int, position: int, recorder=None):
        self.index = index
        #: position inside the workload's cycle (0 for cyclic-free ones)
        self.position = position
        self.recorder = recorder
        #: phase -> wall seconds
        self.walls: dict[str, float] = {}
        self.attempted = 0
        self.failures: list[str] = []
        #: deterministic values that must repeat across rounds
        self.fingerprint: dict[str, object] = {}
        #: per-layer values derived from the program's own counters
        self.counts: dict[str, float] = {}
        #: one-shot latencies (seconds)
        self.samples: list[float] = []
        #: per-layer values counted by the span wrappers (traced rounds)
        self.traced: dict[str, float] = {}
        #: per-layer wall seconds the program measured itself
        self.stage_walls: dict[str, float] = {}
        #: numerators of the named throughputs (queries, ops, docs)
        self.work: dict[str, float] = {}

    @contextmanager
    def phase(self, name: str):
        scope = (
            self.recorder.in_phase(name, self.index)
            if self.recorder is not None
            else nullcontext()
        )
        with scope:
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self.walls[name] = self.walls.get(name, 0.0) + (
                    time.perf_counter() - t0
                )

    def oracle(self):
        """Scope of untimed checks: the span recorder ignores them."""
        if self.recorder is None:
            return nullcontext()
        return self.recorder.pause()

    @property
    def wall(self) -> float:
        return sum(self.walls.values())

    def check(self, ok: bool, what: str, n: int = 1) -> None:
        if not ok:
            self.failures.extend([what] * n)

    def add_counters(self, snapshot: dict | None) -> None:
        totals = counter_totals(snapshot) if snapshot else {}
        for key, name in PROGRAM_COUNTERS.items():
            self.counts[key] = self.counts.get(key, 0.0) + totals.get(
                name, 0.0
            )


def digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(json.dumps(part, sort_keys=True, default=str).encode())
        h.update(b"\x00")
    return h.hexdigest()


def result_digest(result, virtual: bool) -> str:
    """Digest of an engine result's arrays (plus virtual time and
    counters when ``virtual``: the sim/mp byte-identity contract)."""
    parts = [
        result.doc_ids,
        result.coords,
        result.assignments,
        result.centroids,
        result.association,
        result.signatures,
        result.major_term_strings,
    ]
    if virtual:
        parts += [
            float(result.timings.wall_time),
            counter_totals(result.metrics),
        ]
    return digest(*parts)


def tree_digest(root: str) -> str:
    """Digest of every file's relative path and bytes under ``root``."""
    h = hashlib.blake2b(digest_size=16)
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\x00")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def answers(report) -> dict[tuple[int, int], bytes]:
    """(client, seq) -> canonical bytes of the inner response."""
    return {
        (r["client"], r["seq"]): canonical_response(r["response"])
        for r in report.responses
    }


def transcript(report) -> str:
    return digest(
        b"\n".join(canonical_response(r) for r in report.responses)
    )


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    idx = max(0, int(np.ceil(pct / 100.0 * len(ordered))) - 1)
    return ordered[idx]


def check_session(rnd: Round, report, what: str) -> None:
    """Crashed ranks and degraded (partial) answers are failures."""
    rnd.check(not report.failed_ranks, f"{what}: crashed ranks")
    partial = sum(1 for r in report.responses if r["response"].get("partial"))
    rnd.check(partial == 0, f"{what}: degraded answer", partial)


def stamped_corpus(nbytes: int, seed: int):
    return generate_pubmed(
        nbytes, seed=seed, facets=FacetSpec(n_sources=N_SOURCES, seed=seed)
    )


class Workload:
    name = ""
    #: phases whose work runs on the simulated SPMD runtime
    runtime_phases: tuple[str, ...] = ()
    cycle_len = 1

    def __init__(self, seed: int, scale: float, workdir: str):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.config = EngineConfig()

    def scaled(self, n: int, floor: int = 1) -> int:
        return max(floor, int(round(n * self.scale)))

    def fresh_dir(self, tag: str) -> str:
        path = os.path.join(self.workdir, tag)
        if os.path.exists(path):
            shutil.rmtree(path)
        return path

    def setup(self) -> str:
        """Build the inputs; returns their digest."""
        raise NotImplementedError

    def run_round(self, rnd: Round) -> None:
        raise NotImplementedError

    def named(self, rounds: list[Round]) -> dict[str, tuple[float, str]]:
        """The workload's named end-to-end figures from untraced rounds."""
        raise NotImplementedError

    def min_rounds_met(self, rounds: list[Round]) -> bool:
        return len(rounds) >= 3


class BuildWorkload(Workload):
    """One stamped corpus through every engine backend, then the store."""

    name = "build"
    runtime_phases = ("sim",)
    #: simulated ranks of the sim run; real processes of the mp run
    SIM_P = 16
    MP_P = 2

    def setup(self) -> str:
        self.corpus = stamped_corpus(self.scaled(4_000_000, 20_000), self.seed)
        self.mb = self.corpus.nbytes / 1e6
        ref = ParallelTextEngine(self.MP_P, config=self.config).run(self.corpus)
        self.mp_reference = result_digest(ref, virtual=True)
        return digest(
            [d.doc_id for d in self.corpus.documents],
            self.corpus.nbytes,
            self.mp_reference,
        )

    def run_round(self, rnd: Round) -> None:
        corpus = self.corpus
        store = self.fresh_dir("store")
        with rnd.phase("serial"):
            serial = SerialTextEngine(self.config).run(corpus)
        with rnd.phase("sim"):
            engine = ParallelTextEngine(self.SIM_P, config=self.config)
            sim = engine.run(corpus)
        with rnd.phase("mp"):
            mp = ParallelTextEngine(
                self.MP_P,
                config=dataclasses.replace(self.config, backend="mp"),
            ).run(corpus)
        with rnd.phase("store"):
            view = themeview.build_themeview(serial.coords, serial.assignments)
            serving.build_shards(serial, store, N_SHARDS, corpus=corpus)
        rnd.attempted += 4
        rnd.check(
            result_digest(mp, virtual=True) == self.mp_reference,
            "mp P=2 result differs from the sim P=2 reference",
        )
        with rnd.oracle():
            serving.verify_store(store)
        rnd.add_counters(sim.metrics)
        rnd.add_counters(mp.metrics)
        walls = engine.last_tracer.wall_component_times()
        for stage in ENGINE_STAGES:
            rnd.counts[f"engine.{stage}.virtual_s"] = float(
                sim.timings.component_seconds.get(stage, 0.0)
            )
            rnd.stage_walls[f"engine.{stage}.wall_s"] = walls.get(stage, 0.0)
        rnd.fingerprint.update(
            serial=result_digest(serial, virtual=False),
            sim=result_digest(sim, virtual=True),
            store=tree_digest(store),
            themeview=digest(
                view.heights, [dataclasses.asdict(p) for p in view.peaks]
            ),
        )

    def named(self, rounds):
        def rate(phase):
            return self.mb / float(np.median([r.walls[phase] for r in rounds]))

        return {
            "engine_serial_mb_s": (rate("serial"), "MB/s"),
            "engine_sim_mb_s": (rate("sim"), "MB/s"),
            "engine_mp_mb_s": (rate("mp"), "MB/s"),
            "store_build_mb_s": (rate("store"), "MB/s"),
        }


class ServeWorkload(Workload):
    """A warm stamped store under zero-think broker, tier, workbench and
    one-shot traffic."""

    name = "serve"
    runtime_phases = ("broker", "tier", "workbench", "oneshot")
    #: one-shot samples a run needs so ten lie beyond its p95
    MIN_ONESHOTS = 200
    #: seeded traffic variants; round ``i`` replays variant ``i % 4``
    cycle_len = 4

    def setup(self) -> str:
        corpus = stamped_corpus(self.scaled(4_000_000, 20_000), self.seed)
        result = SerialTextEngine(self.config).run(corpus)
        self.store = self.fresh_dir("store")
        serving.build_shards(result, self.store, N_SHARDS, corpus=corpus)
        serving.verify_store(self.store)
        profile = serving.store_profile(self.store)
        # rounds rotate through several seeded traffic variants, so a
        # run averages many query mixes instead of resting on one draw
        self.variants = []
        for v in range(self.cycle_len):
            sub_seed = self.seed * 1000 + v
            scripts = serving.generate_workload(
                profile,
                n_clients=8,
                queries_per_client=self.scaled(60),
                seed=sub_seed,
                mean_think_s=0.0,
            )
            analyst = generate_analyst_workload(
                profile,
                n_tenants=4,
                sessions_per_tenant=self.scaled(4),
                seed=sub_seed,
                mean_think_s=0.0,
            )
            # every k-th scripted query, replayed one at a time
            flat = [
                (sc.client, seq, q)
                for sc in scripts
                for seq, q in enumerate(sc.queries)
            ]
            oneshots = flat[:: max(1, len(flat) // self.scaled(40))]
            self.variants.append((scripts, analyst, oneshots))
        self.router = serving.RouterConfig(brokers=2, replicas=2)
        return digest(self.variants, tree_digest(self.store))

    def run_round(self, rnd: Round) -> None:
        scripts, analyst, oneshots = self.variants[rnd.position]
        with rnd.phase("broker"):
            broker = serving.serve(self.store, scripts)
        with rnd.phase("tier"):
            tier = serving.serve_replicated(self.store, scripts, self.router)
        with rnd.phase("workbench"):
            bench = serve_workbench(self.store, analyst)
        oneshot: list[bytes] = []
        with rnd.phase("oneshot"):
            for i, (_c, _s, query) in enumerate(oneshots):
                if rnd.recorder is not None:
                    rnd.recorder.req = i
                t0 = time.perf_counter()
                response = serving.query_store(self.store, query)
                rnd.samples.append(time.perf_counter() - t0)
                oneshot.append(canonical_response(response))
        n_queries = sum(len(s.queries) for s in scripts)
        n_ops = sum(len(s.ops) for s in analyst)
        rnd.attempted += 2 * n_queries + n_ops + len(oneshots)
        check_session(rnd, broker, "broker")
        check_session(rnd, tier, "tier")
        rnd.check(not bench.failed_ranks, "workbench: crashed ranks")
        by_broker = answers(broker)
        by_tier = answers(tier)
        for key, body in by_broker.items():
            rnd.check(by_tier.get(key) == body, "tier answer != broker answer")
        for (client, seq, _q), body in zip(oneshots, oneshot):
            rnd.check(
                by_broker.get((client, seq)) == body,
                "one-shot answer != broker answer",
            )
        for report in (broker, tier, bench):
            rnd.add_counters(report.metrics)
        wb_hits = bench.artifact_hits + bench.artifact_misses
        rnd.counts.update(
            {
                "serve.broker.virtual_qps": broker.throughput,
                "serve.broker.virtual_p99_ms": broker.latency_percentile(99)
                * 1e3,
                "serve.router.virtual_p99_ms": tier.latency_percentile(99)
                * 1e3,
                "workbench.artifact_hit_ratio": bench.artifact_hits
                / wb_hits
                if wb_hits
                else 0.0,
                "workbench.rejected": float(len(bench.rejected)),
                "workbench.sessions_evicted": float(bench.sessions_evicted),
                "workbench.virtual_p99_ms": bench.latency_percentile(99)
                * 1e3,
            }
        )
        rnd.work.update(
            served=broker.served, tier=tier.served, wb=bench.served
        )
        rnd.fingerprint.update(
            broker=transcript(broker),
            tier=digest(sorted(by_tier.items())),
            workbench=transcript(bench),
            oneshot=digest(oneshot),
            rejected=[len(broker.rejected), len(tier.shed)],
        )

    def min_rounds_met(self, rounds):
        samples = sum(len(r.samples) for r in rounds)
        need = self.scaled(self.MIN_ONESHOTS, 2)
        return len(rounds) >= 3 and samples >= need

    def named(self, rounds):
        def rate(key, phase):
            return float(
                np.median([r.work[key] / r.walls[phase] for r in rounds])
            )

        samples = [s for r in rounds for s in r.samples]
        return {
            "serve_qps": (rate("served", "broker"), "1/s"),
            "tier_qps": (rate("tier", "tier"), "1/s"),
            "wb_ops_s": (rate("wb", "workbench"), "1/s"),
            "oneshot_p50_ms": (percentile(samples, 50) * 1e3, "ms"),
            "oneshot_p95_ms": (percentile(samples, 95) * 1e3, "ms"),
            "oneshot_samples": (float(len(samples)), "count"),
        }


class DashboardWorkload(Workload):
    """Facet-stamped feed batches published beside zero-think dashboard
    sessions on the same store."""

    name = "dashboard-live"
    runtime_phases = ("session",)
    #: rounds per cycle: two compactions under the default policy
    cycle_len = 8

    def setup(self) -> str:
        corpus = stamped_corpus(self.scaled(4_000_000, 20_000), self.seed)
        self.result = SerialTextEngine(self.config).run(corpus)
        self.base = self.fresh_dir("base")
        serving.build_shards(self.result, self.base, N_SHARDS, corpus=corpus)
        serving.verify_store(self.base)
        feed = ingest.FeedSource(
            ingest.FeedConfig(
                dataset="pubmed",
                batch_docs=self.scaled(100, 2),
                n_batches=self.cycle_len,
                seed=self.seed,
                # the corpus generator's theme count, so the feed
                # continues the same seeded stream
                themes=12,
                skip_docs=len(corpus.documents),
                start_doc_id=int(self.result.doc_ids[-1]) + 1,
                facet_sources=N_SOURCES,
            )
        )
        self.batches = [c for c, _arrival in feed.batches()]
        self.policy = ingest.CompactionPolicy()
        #: per-position session scripts, generated on first use (the
        #: stamp range they slide over grows with each publish)
        self.sessions: dict[int, list] = {}
        return digest(
            tree_digest(self.base),
            [[d.doc_id for d in c.documents] for c in self.batches],
        )

    def run_round(self, rnd: Round) -> None:
        store = os.path.join(self.workdir, "live")
        if rnd.position == 0:
            if os.path.exists(store):
                shutil.rmtree(store)
            shutil.copytree(self.base, store)
        batch = self.batches[rnd.position]
        with rnd.phase("ingest"):
            delta = ingest.build_delta(
                self.result,
                batch.documents,
                tokenizer_config=self.config.tokenizer,
                facets=extract_facets(batch),
            )
            manifest = ingest.append_generation(store, [delta])
        with rnd.oracle():
            serving.verify_store(store)
        compacted = False
        with rnd.phase("ingest"):
            if ingest.should_compact(manifest, self.policy):
                ingest.compact_store(store)
                compacted = True
        with rnd.oracle():
            live = serving.verify_store(store)
            if rnd.position not in self.sessions:
                self.sessions[rnd.position] = generate_dashboard_workload(
                    serving.store_profile(store),
                    n_clients=8,
                    polls_per_client=self.scaled(20),
                    seed=self.seed * 1000 + rnd.position,
                    mean_poll_s=0.0,
                    search_fraction=0.25,
                )
        scripts = self.sessions[rnd.position]
        with rnd.phase("session"):
            report = serving.serve(store, scripts)
        polls = sum(len(s.queries) for s in scripts)
        rnd.attempted += 1 + int(compacted) + polls
        check_session(rnd, report, "dashboard")
        rnd.add_counters(report.metrics)
        rnd.counts.update(
            {
                "serve.broker.virtual_qps": report.throughput,
                "serve.broker.virtual_p99_ms": report.latency_percentile(99)
                * 1e3,
                "serve.store.live_deltas": float(len(live.deltas)),
                "ingest.docs": float(delta.n_docs),
                "ingest.generations": 1.0 + compacted,
                "ingest.compactions": float(compacted),
                "ingest.null_signatures": float(delta.null_count),
            }
        )
        rnd.work.update(polls=report.served, docs=delta.n_docs)
        rnd.fingerprint.update(
            session=transcript(report),
            generation=live.generation,
            rejected=len(report.rejected),
        )

    def min_rounds_met(self, rounds):
        return len(rounds) >= self.cycle_len

    def named(self, rounds):
        def total(key):
            return float(sum(r.work[key] for r in rounds))

        def wall(phase):
            return float(sum(r.walls[phase] for r in rounds))

        return {
            "dash_qps": (total("polls") / wall("session"), "1/s"),
            "ingest_docs_s": (total("docs") / wall("ingest"), "1/s"),
        }


WORKLOADS = {
    w.name: w for w in (BuildWorkload, ServeWorkload, DashboardWorkload)
}


def fingerprint_mismatches(rounds: list[Round], keys=("fingerprint", "counts")):
    """Rounds whose deterministic values differ from the first round at
    the same cycle position."""
    first: dict[int, Round] = {}
    bad = []
    for rnd in rounds:
        ref = first.setdefault(rnd.position, rnd)
        if any(getattr(rnd, k) != getattr(ref, k) for k in keys):
            bad.append(rnd.index)
    return bad
