"""Query broker over shard-server ranks on the deterministic runtime.

Topology: ``nprocs = nshards + 1`` SPMD ranks (plus one optional
ingest-driver rank, see below).  Rank 0 is the broker; rank ``r`` with
``1 <= r <= nshards`` serves shard ``r - 1`` from its on-disk
containers.  The broker runs a closed-loop discrete-event simulation of
the client scripts: queries arrive in (virtual arrival time, client)
order, pass bounded-in-flight admission control and an LRU result
cache, then fan out to the live shard ranks; per-shard candidate lists
merge with the same (score, global row) tie-breaking a global stable
argsort applies, so the merged answer is bit-identical to the
single-result :class:`~repro.analysis.session.AnalysisSession` path at
every shard count.  Query kinds dispatch through one kind->operator
table (``_Broker._EXECUTORS``).

This module also holds the pieces every serving entry point shares --
:func:`serve` here, :func:`~repro.serve.router.serve_replicated`, and
the workbench's ``serve_workbench``/``serve_workbench_replicated``:

- :class:`_ShardWorker`, the one shard-worker loop.  It serves every
  shard a :class:`~repro.serve.replica.ReplicaMap` places on its rank
  (exactly one in the single tier) through :func:`execute_shard_op`,
  receiving with a plain ``recv`` from a single source (so the single
  tier runs on the mp backend) or ``recv_any`` from the router and
  brokers of the replicated tier.
- :func:`launch`, the one launcher: it lays out the ranks (front rank,
  tier brokers, shard workers, optional ingest driver), runs the
  cluster, and attaches metrics, failed ranks and the ingest outcome
  to rank 0's report.

Generational serving (live ingest): when the store is generational --
or an ingest plan runs alongside in an extra rank ``nshards + 1`` --
the broker polls the store's ``CURRENT`` pointer between queries and
hot-reloads the newest manifest (a charged, bounded amount of broker
work; zero downtime).  Every accepted query is pinned to the epoch the
broker saw at its arrival: the fan-out messages carry that epoch, each
shard rank resolves exactly that generation's segment list (its base
shard plus the delta segments it owns), and the response envelope
records the generation -- one query never mixes generations.  The
per-epoch icf weights are recomputed on reload because they depend on
the collection size.  Static stores keep the three-field wire messages
(no epoch), so their virtual timings are unchanged.

Degradation policy: a per-query shard timeout bounds each fan-out
round.  :class:`~repro.runtime.errors.RankFailedError` (a shard rank
crashed) permanently removes the dead ranks from the live set;
:class:`~repro.runtime.errors.CommTimeoutError` (alive but silent)
retries the round once, then drops the unresponsive shards for this
query.  Either way the query *answers* -- with ``"partial": true`` and
the missing shards listed -- instead of failing, and the response is
excluded from the cache.  Every layer feeds
:mod:`repro.runtime.metrics` (``serve.queries``,
``serve.cache.{hit,miss,evict}``, ``serve.rejected``,
``serve.degraded``, ``serve.latency``, ``serve.shard.bytes_scanned``,
``ingest.broker.reloads`` in generational mode, and the
``facets.*`` families on stamped stores).

Window analytics (stamped stores): ``facet_counts`` fans out exact
per-source int64 counts over ``[t0, t1)``; ``window_terms`` ranks the
model's major terms by exact int64 tf partial sums inside the window;
``emerging`` compares the window against the preceding window of equal
width under the epoch-pinned frozen model.  All three merge integer
partials in sorted shard order (associative sums -- any shard layout
lands on identical bytes) and rank through the canonical
``(-score, row)`` order on the integers directly.  Unstamped stores
answer facet queries with a typed ``"error"`` response, never a
fan-out.

Responses carry no timing fields; latencies live in the
:class:`ServeReport`.  That is what makes serialized responses the
byte-compare oracle for the determinism tests: identical across shard
layouts and scheduler modes even though latencies differ per layout.
"""

from __future__ import annotations

import heapq
import os
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.analysis.session import pseudo_signature, top_positive_terms
from repro.facets.windows import emerging_scores
from repro.index.termindex import (
    icf_weights,
    set_term_cooccurrence,
    set_term_tf,
)
from repro.runtime.cluster import Cluster, MachineSpec
from repro.runtime.errors import CommTimeoutError, RankFailedError
from repro.serve.query import (
    Query,
    ShardStore,
    hits_payload,
    merge_asc,
    merge_desc,
    topk_int_score_row,
)
from repro.serve.replica import ReplicaMap
from repro.serve.store import (
    CURRENT_FILE,
    Container,
    ShardFormatError,
    StoreManifest,
    current_generation,
    load_manifest,
    load_manifest_generation,
    load_model,
)
from repro.serve.workload import ClientScript, WorkloadReport

TAG_REQ = 101
TAG_RESP = 102

#: modelled broker-side op costs (abstract cpu ops)
_DISPATCH_OPS = 1_000
_CACHE_HIT_OPS = 200
_REJECT_OPS = 50
_RELOAD_OPS = 200


@dataclass(frozen=True)
class BrokerConfig:
    """Serving-policy knobs of one broker session."""

    #: virtual seconds a fan-out round waits on silent shards
    shard_timeout_s: float = 5.0
    #: accepted-but-unfinished queries admitted before rejecting
    max_inflight: int = 8
    #: LRU result-cache capacity (entries); 0 disables caching
    cache_capacity: int = 128
    #: resend rounds after a CommTimeoutError before degrading
    retries: int = 1
    #: use block-max top-k pruning for search ops (answers are
    #: bit-identical either way; legacy stores fall back regardless)
    pruned_search: bool = True
    #: max queued same-arrival ``search`` queries drained into one
    #: fan-out message; 1 preserves the one-query-per-round protocol
    batch_max_queries: int = 1


@dataclass
class ServeReport(WorkloadReport):
    """Outcome of one broker session over a workload."""

    responses: list[dict]
    latencies: list[float]
    rejected: list[dict]
    failed_ranks: list[int]
    makespan: float
    metrics: dict = field(repr=False, default_factory=dict)
    #: generation -> {"queries", "first_virtual_s"} of served queries
    generations: dict = field(default_factory=dict)
    #: ingest-driver outcome when an ingest plan ran alongside
    ingest: Optional[dict] = None


# ----------------------------------------------------------------------
# shard-server rank
# ----------------------------------------------------------------------
def execute_shard_op(
    ctx, model, segs: list[ShardStore], op: str, params: dict
) -> tuple[object, int, int]:
    """Run one shard operator over a segment list.

    Returns ``(payload, bytes_scanned, blocks_skipped)``; charges the
    per-op cpu/flops cost but leaves the io charge and metrics to the
    caller (whose loop structure differs between the single-shard and
    the replica worker).  Shared by :class:`_ShardWorker` and the
    replica worker in :mod:`repro.serve.router` so replicas of a shard
    are bit-identical by construction.
    """
    scanned = 0
    skipped = 0
    if op == "search":
        cands: list = []
        for seg in segs:
            c, s, sk = seg.op_search(
                params["term_rows"],
                params["icf"],
                params["k"],
                pruned=params.get("pruned", True),
                restrict_rows=params.get("restrict_rows"),
            )
            cands.extend(c)
            scanned += s
            skipped += sk
        ctx.charge_cpu(scanned // 16 * 4)
        payload: object = cands
    elif op == "search_batch":
        # one message, N queries: every member scores over the same
        # segment list, sharing the lazily-decoded postings blocks
        batch_payload: list[list] = []
        for term_rows, k in params["requests"]:
            cands = []
            for seg in segs:
                c, s, sk = seg.op_search(
                    term_rows,
                    params["icf"],
                    k,
                    pruned=params.get("pruned", True),
                )
                cands.extend(c)
                scanned += s
                skipped += sk
            batch_payload.append(cands)
        ctx.charge_cpu(scanned // 16 * 4)
        payload = batch_payload
    elif op == "matvec":
        cands = []
        n_docs = 0
        for seg in segs:
            c, s = seg.op_matvec(
                params["unit"],
                params["k"],
                params.get("skip_row", -1),
                restrict_rows=params.get("restrict_rows"),
            )
            cands.extend(c)
            scanned += s
            n_docs += seg.n_docs
        ctx.charge_flops(2 * n_docs * params["unit"].shape[0])
        payload = cands
    elif op == "set_tf":
        # exact int64 per-term tf totals over a result set's rows:
        # integer sums are associative, so the broker-side sum over
        # shard payloads is layout-independent bit for bit
        totals = np.zeros(model.term_df.shape[0], dtype=np.int64)
        for seg in segs:
            local = seg._local_restrict(params["rows"])
            if local.size:
                t, s = set_term_tf(seg.postings, local)
                totals += t
                scanned += s * 16
        ctx.charge_cpu(scanned // 16 * 2)
        payload = totals
    elif op == "set_cooc":
        m_sel = len(params["term_rows"])
        cooc = np.zeros((m_sel, m_sel), dtype=np.int64)
        for seg in segs:
            local = seg._local_restrict(params["rows"])
            if local.size:
                c2, s = set_term_cooccurrence(
                    seg.postings, local, params["term_rows"]
                )
                cooc += c2
                scanned += s * 16
        ctx.charge_cpu(scanned // 16 * 2 + m_sel * m_sel)
        payload = cooc
    elif op == "fetch_unit":
        payload = (None, -1)
        for seg in segs:
            unit, row, s = seg.op_fetch_unit(params["doc_id"])
            scanned += s
            if unit is not None and payload[0] is None:
                payload = (unit, row)
    elif op == "cluster":
        size = 0
        cands = []
        for seg in segs:
            sz, c, s = seg.op_cluster(
                params["cluster"], params["n_docs"]
            )
            size += sz
            cands.extend(c)
            scanned += s
        ctx.charge_flops(3 * size * model.centroids.shape[1])
        payload = (size, cands)
    elif op == "region":
        rows_parts: list[np.ndarray] = []
        block_parts: list[np.ndarray] = []
        n_docs = 0
        for seg in segs:
            rows, block, s = seg.op_region(
                params["x"], params["y"], params["radius"]
            )
            scanned += s
            n_docs += seg.n_docs
            if rows.size:
                rows_parts.append(rows)
                block_parts.append(block)
        ctx.charge_cpu(2 * n_docs)
        if rows_parts:
            payload = (
                np.concatenate(rows_parts),
                np.concatenate(block_parts, axis=0),
            )
        else:
            payload = (
                np.empty(0, dtype=np.int64),
                np.empty((0, model.centroids.shape[1])),
            )
    elif op == "facet_counts":
        # facet payloads carry their own scanned count so the broker
        # can account facet bytes separately (facets.bytes_scanned)
        counts = np.zeros(params["n_sources"], dtype=np.int64)
        for seg in segs:
            c, s = seg.op_facet_counts(
                params["t0"], params["t1"], params["n_sources"]
            )
            counts += c
            scanned += s
        ctx.charge_cpu(scanned // 8)
        payload = (counts, scanned)
    elif op == "window_tf":
        # exact int64 per-term tf totals over the window's rows (and
        # optionally the preceding window): like "set_tf", integer
        # sums make the broker-side merge layout-independent
        pairs = [(params["t0"], params["t1"])]
        if params.get("pair"):
            width = params["t1"] - params["t0"]
            pairs.insert(0, (params["t0"] - width, params["t0"]))
        window_payload = []
        for t0, t1 in pairs:
            totals = np.zeros(model.term_df.shape[0], dtype=np.int64)
            n_docs = 0
            for seg in segs:
                t, n, s = seg.op_window_tf(
                    t0, t1, params.get("source", -1)
                )
                totals += t
                n_docs += n
                scanned += s
            window_payload.append((totals, n_docs))
        ctx.charge_cpu(scanned // 16 * 2)
        payload = (window_payload, scanned)
    elif op == "window_restrict":
        rows_parts = []
        for seg in segs:
            rows, s = seg.op_window_restrict(
                params["rows"],
                params["t0"],
                params["t1"],
                params.get("source", -1),
            )
            scanned += s
            if rows.size:
                rows_parts.append(rows)
        ctx.charge_cpu(scanned // 8)
        payload = (
            np.concatenate(rows_parts)
            if rows_parts
            else np.empty(0, dtype=np.int64),
            scanned,
        )
    else:
        raise ValueError(f"unknown shard op {op!r}")
    return payload, scanned, skipped


class _ShardWorker:
    """The shard-worker rank of every serving topology.

    Serves each shard ``rmap`` places on worker ``worker_id``, for
    whatever epoch a request pins.  Per (epoch, shard) it serves a
    *segment list*: the base shard plus every delta segment that shard
    owns -- identical files on every replica of the shard, run through
    the one :func:`execute_shard_op`, so any copy answers
    bit-identically.  Manifests and segment stores are cached across
    epochs (a generation's containers are immutable once published).

    ``sources`` are the ranks that send requests.  A single source (the
    single-tier broker) is read with a plain ``recv``, which every
    execution backend supports; the replicated tier's router plus
    brokers need ``recv_any``.  Single-tier requests leave out the
    shard (the worker hosts exactly one), and static stores also leave
    out the epoch -- the three-field wire message of a static store.
    """

    def __init__(
        self, ctx, store_dir: str, rmap: ReplicaMap, worker_id: int, sources
    ):
        self.ctx = ctx
        self.store_dir = store_dir
        self.rmap = rmap
        self.worker_id = worker_id
        self.shards = rmap.shards_of(worker_id)
        self.sources = list(sources)
        self.model = load_model(store_dir)
        self._manifests: dict[int, StoreManifest] = {}
        self._segments: dict[tuple[int, int], list[ShardStore]] = {}
        self._stores: dict[str, ShardStore] = {}

    def _identity(self, shard: int) -> str:
        hosts = self.rmap.workers_for(shard)
        copy = hosts.index(self.worker_id) if self.worker_id in hosts else -1
        return (
            f"shard {shard} copy {copy} on worker {self.worker_id} "
            f"(rank {self.ctx.rank})"
        )

    def segments(self, epoch: int, shard: int) -> list[ShardStore]:
        """The epoch's segment list for one hosted shard.

        A malformed store file raises a :class:`ShardFormatError` that
        names this copy of the shard.
        """
        key = (epoch, shard)
        if key not in self._segments:
            try:
                self._segments[key] = self._resolve(epoch, shard)
            except ShardFormatError as exc:
                raise ShardFormatError(
                    exc.path, exc.reason, context=self._identity(shard)
                ) from exc
        return self._segments[key]

    def _resolve(self, epoch: int, shard: int) -> list[ShardStore]:
        m = self._manifests.get(epoch)
        if m is None:
            m = load_manifest_generation(self.store_dir, epoch)
            self._manifests[epoch] = m
        files = [m.shards[shard].file]
        files += [d.file for d in m.deltas if d.owner == shard]
        for f in files:
            if f not in self._stores:
                self._stores[f] = ShardStore(
                    Container(os.path.join(self.store_dir, f)), self.model
                )
        return [self._stores[f] for f in files]

    def _recv(self):
        if len(self.sources) == 1:
            src = self.sources[0]
            return src, self.ctx.comm.recv(src, tag=TAG_REQ)
        return self.ctx.comm.recv_any(sources=self.sources, tag=TAG_REQ)

    def run(self) -> int:
        """Serve operators until rank 0 says stop (or dies)."""
        ctx = self.ctx
        bytes_scanned = ctx.metrics.counter(
            "serve.shard.bytes_scanned", ("shard",)
        )
        blocks_skipped = ctx.metrics.counter(
            "serve.shard.blocks_skipped", ("shard",)
        )
        served = 0
        while True:
            try:
                src, msg = self._recv()
            except CommTimeoutError:
                if 0 in ctx.failed_ranks():
                    return served
                continue
            except RankFailedError as exc:
                if 0 in exc.failed:
                    return served
                self.sources = [r for r in self.sources if r not in exc.failed]
                continue
            if msg[0] == "stop":
                return served
            if len(msg) == 5:
                qid, epoch, shard, op, params = msg
            elif len(msg) == 4:  # single tier: the worker's one shard
                qid, epoch, op, params = msg
                shard = self.shards[0]
            else:  # single tier over a static store: epoch 0
                qid, op, params = msg
                epoch, shard = 0, self.shards[0]
            segs = self.segments(epoch, shard)
            payload, scanned, skipped = execute_shard_op(
                ctx, self.model, segs, op, params
            )
            ctx.charge_io(scanned, concurrent_readers=1)
            bytes_scanned.inc(ctx.rank, float(scanned), key=(str(shard),))
            blocks_skipped.inc(ctx.rank, float(skipped), key=(str(shard),))
            ctx.comm.send(src, (qid, shard, payload), tag=TAG_RESP)
            served += 1


# ----------------------------------------------------------------------
# broker rank
# ----------------------------------------------------------------------
def _unflagged(kind: str, **fields) -> dict:
    """A response answered without any shard fan-out (never partial)."""
    return {"kind": kind, **fields, "partial": False, "failed_shards": []}


class _Broker:
    def __init__(
        self,
        ctx,
        store_dir: str,
        config: BrokerConfig,
        generational: bool = False,
    ):
        self.ctx = ctx
        self.store_dir = store_dir
        self.config = config
        self.model = load_model(store_dir)
        manifest = self.model.manifest
        self.manifest = manifest
        self.nshards = manifest.nshards
        self.epoch = manifest.generation
        self.n_docs = manifest.n_docs
        self.generational = generational or os.path.exists(
            os.path.join(store_dir, CURRENT_FILE)
        )
        #: live shard indices (0-based); shrinks on RankFailedError
        self.live = list(range(self.nshards))
        #: this broker's metric slot (rank 0 in the single-broker tier)
        self.mrank = ctx.rank
        self.qid = 0
        self.icf = icf_weights(self.model.term_df, self.n_docs)
        m = ctx.metrics
        self.c_queries = m.counter("serve.queries", ("kind",))
        self.c_hit = m.counter("serve.cache.hit")
        self.c_miss = m.counter("serve.cache.miss")
        self.c_evict = m.counter("serve.cache.evict")
        self.c_rejected = m.counter("serve.rejected")
        self.c_degraded = m.counter("serve.degraded")
        self.h_latency = m.histogram("serve.latency", label_names=("kind",))
        # registered only in generational mode so static-serve metric
        # snapshots gain no empty ingest families
        self.c_reloads = (
            m.counter("ingest.broker.reloads") if self.generational else None
        )
        # likewise: facet families exist only on stamped stores, so an
        # unstamped session's metric snapshot is byte-identical to the
        # pre-facet output
        if manifest.facets is not None:
            self.c_facet_windows = m.counter("facets.windows", ("kind",))
            self.c_facet_bytes = m.counter("facets.bytes_scanned")
            self.c_facet_emerging = m.counter("facets.emerging_hits")
        else:
            self.c_facet_windows = None
            self.c_facet_bytes = None
            self.c_facet_emerging = None
        self.cache: OrderedDict[tuple, dict] = OrderedDict()
        self.gen_stats: dict[int, dict] = {}

    # -- hot reload ----------------------------------------------------
    def _maybe_reload(self) -> None:
        """Swap to the newest published generation between queries.

        Bounded broker work (one pointer read; on change, one manifest
        parse plus an icf recompute), charged as ``_RELOAD_OPS``.  The
        epoch set here pins every fan-out of the next query.
        """
        if not self.generational:
            return
        # sync point before the poll: lets the ingest rank (and any
        # other lower-clock rank) run first, so every publish stamped
        # at or before this query's arrival is really on disk
        self.ctx.sync()
        gen = current_generation(self.store_dir)
        # adopt the newest generation already published in virtual
        # time: a generation stamped later than this query's arrival
        # is not visible to it (walk back -- publishes are stamped in
        # ascending order, so the first hit is the right one)
        while gen > self.epoch:
            manifest = load_manifest_generation(self.store_dir, gen)
            if manifest.published_s > self.ctx.now:
                gen -= 1
                continue
            self.epoch = gen
            self.manifest = manifest
            self.n_docs = manifest.n_docs
            # icf depends on the collection size: per-epoch state
            self.icf = icf_weights(self.model.term_df, self.n_docs)
            self.ctx.charge_cpu(_RELOAD_OPS)
            self.c_reloads.inc(self.mrank)
            return

    # -- fan-out -------------------------------------------------------
    def _shard_rank(self, shard: int) -> int:
        """Rank serving ``shard`` (single-copy tier: rank = shard + 1)."""
        return shard + 1

    def _fanout(
        self, targets: list[int], op: str, params: dict
    ) -> tuple[dict[int, object], list[int]]:
        """One request round over ``targets`` (shard indices); returns
        (responses by shard index, shards dropped this query)."""
        ctx, cfg = self.ctx, self.config
        self.qid += 1
        qid = self.qid
        # static stores keep the PR-4 three-field messages (identical
        # wire sizes); generational fan-outs pin the query's epoch
        req = (
            (qid, self.epoch, op, params)
            if self.generational
            else (qid, op, params)
        )
        for s in targets:
            ctx.comm.send(self._shard_rank(s), req, tag=TAG_REQ)
        pending = set(targets)
        got: dict[int, object] = {}
        if not getattr(ctx.comm, "supports_recv_any", True):
            # mp backend: no recv_any, but mp runs are fault-free, so a
            # plain per-shard receive in sorted order is equivalent --
            # responses carry no timing fields and the merge iterates
            # shards in sorted order, so response bytes are unchanged.
            for s in sorted(pending):
                _rqid, shard_idx, payload = ctx.comm.recv(
                    self._shard_rank(s), tag=TAG_RESP
                )
                got[shard_idx] = payload
            return got, []
        resends = 0
        while pending:
            try:
                src, msg = ctx.comm.recv_any(
                    sources=sorted(self._shard_rank(s) for s in pending),
                    tag=TAG_RESP,
                    timeout=cfg.shard_timeout_s,
                )
            except RankFailedError as exc:
                dead = [r - 1 for r in exc.failed if r - 1 in pending]
                for s in dead:
                    pending.discard(s)
                    if s in self.live:
                        self.live.remove(s)
                continue
            except CommTimeoutError:
                if resends < cfg.retries:
                    resends += 1
                    for s in sorted(pending):
                        ctx.comm.send(
                            self._shard_rank(s), req, tag=TAG_REQ
                        )
                    continue
                break
            rqid, shard_idx, payload = msg
            if rqid != qid:
                continue  # stale answer from a retried round
            got[shard_idx] = payload
            pending.discard(shard_idx)
        dropped = sorted(pending)
        return got, dropped

    def _merged_response(
        self, kind: str, got: dict[int, object], dropped: list[int], k: int
    ) -> dict:
        per_shard = [got[s] for s in sorted(got)]
        cands = merge_desc(per_shard, k)
        self.ctx.charge_cpu(sum(len(p) for p in per_shard) + _DISPATCH_OPS)
        return self._flag({"kind": kind, "hits": hits_payload(cands)}, dropped)

    def _flag(self, resp: dict, dropped: list[int]) -> dict:
        """Flag a response missing any shard's documents; returns it.

        Permanently-dead shards count on every later query too: an
        answer that cannot see part of the collection stays flagged
        partial even though its fan-out round had no new failures.
        """
        dead = [s for s in range(self.nshards) if s not in self.live]
        missing = sorted(set(dropped) | set(dead))
        resp["partial"] = bool(missing)
        resp["failed_shards"] = missing
        return resp

    # -- operators -----------------------------------------------------
    def execute(self, query: Query) -> dict:
        """Fan one accepted, uncached query out and merge the answer."""
        return getattr(self, self._EXECUTORS[query.kind])(query)

    def _term_rows(self, terms) -> list[int]:
        """Model term rows of the known ``terms``, in query order."""
        row = self.model.term_row
        return [row[t] for t in terms if t in row]

    def _exec_search(self, query: Query) -> dict:
        term_rows = self._term_rows(query.terms)
        if not term_rows or not self.model.has_postings:
            return _unflagged("search", hits=[])
        k = min(max(1, query.k), self.n_docs)
        got, dropped = self._fanout(
            self.live,
            "search",
            {
                "term_rows": term_rows,
                "icf": self.icf,
                "k": k,
                "pruned": self.config.pruned_search,
            },
        )
        return self._merged_response("search", got, dropped, k)

    def _exec_search_batch(self, queries: list[Query]) -> list[dict]:
        """Answer several search queries with one shard round-trip.

        Members with no known terms (or a store without postings) get
        the fixed empty response inline, exactly like
        :meth:`_exec_search`; the rest share a single ``search_batch``
        fan-out so every shard decodes its postings once per batch
        instead of once per query.  Merging stays per member, so each
        response is identical to what :meth:`_exec_search` would have
        produced for that query alone.
        """
        out: list[Optional[dict]] = [None] * len(queries)
        resolved: list[tuple[int, list, int]] = []
        for i, query in enumerate(queries):
            term_rows = self._term_rows(query.terms)
            if not term_rows or not self.model.has_postings:
                out[i] = _unflagged("search", hits=[])
                continue
            k = min(max(1, query.k), self.n_docs)
            resolved.append((i, term_rows, k))
        if resolved:
            got, dropped = self._fanout(
                self.live,
                "search_batch",
                {
                    "requests": [(tr, k) for _, tr, k in resolved],
                    "icf": self.icf,
                    "pruned": self.config.pruned_search,
                },
            )
            for m, (i, _tr, k) in enumerate(resolved):
                got_m = {s: got[s][m] for s in got}
                out[i] = self._merged_response("search", got_m, dropped, k)
        return out

    def _exec_query(self, query: Query) -> dict:
        unit = pseudo_signature(
            self.model.association, self._term_rows(query.terms)
        )
        if unit is None:
            return _unflagged("query", hits=[])
        k = min(max(1, query.k), self.n_docs)
        got, dropped = self._fanout(
            self.live, "matvec", {"unit": unit, "k": k}
        )
        return self._merged_response("query", got, dropped, k)

    def _exec_similar(self, query: Query) -> dict:
        manifest = self.manifest
        owner = None
        for i, s in enumerate(manifest.shards):
            if s.n_docs and s.doc_lo <= query.doc_id <= s.doc_hi:
                owner = i
                break
        if owner is None:
            for d in manifest.deltas:
                if d.n_docs and d.doc_lo <= query.doc_id <= d.doc_hi:
                    owner = d.owner
                    break
        unknown = _unflagged(
            "similar", hits=[], error=f"unknown doc_id {query.doc_id}"
        )
        if owner is None:
            return unknown
        if owner not in self.live:
            # the only shard that could anchor this query is gone
            return self._flag({"kind": "similar", "hits": []}, [owner])
        got, dropped = self._fanout(
            [owner], "fetch_unit", {"doc_id": query.doc_id}
        )
        fetched = got.get(owner)
        if fetched is None:
            return self._flag(
                {"kind": "similar", "hits": []}, dropped or [owner]
            )
        if fetched[0] is None:
            return unknown
        unit_row, global_row = fetched[0], fetched[1]
        k = min(max(1, query.k), self.n_docs - 1)
        got, dropped2 = self._fanout(
            self.live,
            "matvec",
            {"unit": unit_row, "k": k, "skip_row": global_row},
        )
        return self._merged_response(
            "similar", got, sorted(set(dropped) | set(dropped2)), k
        )

    def _exec_cluster(self, query: Query) -> dict:
        kmax = self.model.centroids.shape[0]
        if not 0 <= query.cluster < kmax:
            return _unflagged(
                "cluster",
                error=f"cluster {query.cluster} out of range [0, {kmax})",
            )
        centroid = self.model.centroids[query.cluster]
        got, dropped = self._fanout(
            self.live,
            "cluster",
            {"cluster": query.cluster, "n_docs": query.n_docs},
        )
        sizes = {s: got[s][0] for s in got}
        per_shard = [got[s][1] for s in sorted(got)]
        size = int(sum(sizes.values()))
        take = min(query.n_docs, size)
        reps = merge_asc(per_shard, take)
        self.ctx.charge_cpu(
            sum(len(p) for p in per_shard) + _DISPATCH_OPS
        )
        resp = {
            "kind": "cluster",
            "cluster": query.cluster,
            "size": size,
            "top_terms": top_positive_terms(
                centroid, self.model.topic_terms, query.n_terms
            ),
            "representative_docs": [c.doc_id for c in reps],
            "centroid_norm": float(np.linalg.norm(centroid)),
        }
        return self._flag(resp, dropped)

    def _exec_region(self, query: Query) -> dict:
        got, dropped = self._fanout(
            self.live,
            "region",
            {"x": query.x, "y": query.y, "radius": query.radius},
        )
        parts = [got[s] for s in sorted(got) if got[s][0].size]
        size = int(sum(got[s][0].size for s in got))
        if size == 0:
            return self._flag(
                {"kind": "region", "size": 0, "terms": []}, dropped
            )
        # reassembling the shard blocks in global row order rebuilds
        # the exact contiguous array the reference session reduces, so
        # the mean is bit-identical to the unsharded path; on static
        # stores the permutation is the identity (shard order IS row
        # order), on generational stores it interleaves delta rows back
        # into collection order
        rows = np.concatenate([p[0] for p in parts])
        block = np.concatenate([p[1] for p in parts], axis=0)
        order = np.argsort(rows, kind="stable")
        mean_sig = block[order].mean(axis=0)
        self.ctx.charge_flops(size * mean_sig.shape[0] + _DISPATCH_OPS)
        resp = {
            "kind": "region",
            "size": size,
            "terms": top_positive_terms(
                mean_sig, self.model.topic_terms, query.n_terms
            ),
        }
        return self._flag(resp, dropped)

    # -- window analytics (stamped stores) -----------------------------
    def _facet_error(self, kind: str) -> dict:
        """Typed answer for a facet query against an unstamped store."""
        return _unflagged(
            kind,
            error="store is not stamped: no facet sections "
            "(rebuild from a stamped corpus)",
        )

    def _count_facets(
        self, kind: str, scanned: int, hits: int = 0
    ) -> None:
        if self.c_facet_windows is None:
            return
        self.c_facet_windows.inc(self.mrank, key=(kind,))
        self.c_facet_bytes.inc(self.mrank, float(scanned))
        if hits:
            self.c_facet_emerging.inc(self.mrank, float(hits))

    def _exec_facet_counts(self, query: Query) -> dict:
        fac = self.manifest.facets
        if fac is None:
            return self._facet_error("facet_counts")
        got, dropped = self._fanout(
            self.live,
            "facet_counts",
            {"t0": query.t0, "t1": query.t1, "n_sources": fac.n_sources},
        )
        counts = np.zeros(fac.n_sources, dtype=np.int64)
        scanned = 0
        for s in sorted(got):
            c, sc = got[s]
            counts += c
            scanned += sc
        self.ctx.charge_cpu(
            fac.n_sources * max(1, len(got)) + _DISPATCH_OPS
        )
        self._count_facets("facet_counts", scanned)
        resp = {
            "kind": "facet_counts",
            "t0": query.t0,
            "t1": query.t1,
            "sources": list(fac.source_names),
            "counts": [int(c) for c in counts],
            "total": int(counts.sum()),
        }
        return self._flag(resp, dropped)

    def _merge_window_tf(
        self, got: dict[int, object], slot: int
    ) -> tuple[np.ndarray, int, int]:
        """Sum one window slot's per-shard int64 partials in sorted
        shard order -- associative, so any shard layout lands on the
        identical totals."""
        totals = np.zeros(self.model.term_df.shape[0], dtype=np.int64)
        n_docs = 0
        scanned = 0
        for s in sorted(got):
            pairs, sc = got[s]
            t, n = pairs[slot]
            totals += t
            n_docs += int(n)
            scanned += sc
        return totals, n_docs, scanned

    def _exec_window_terms(self, query: Query) -> dict:
        fac = self.manifest.facets
        if fac is None:
            return self._facet_error("window_terms")
        if not self.model.has_postings:
            return self._facet_error("window_terms")
        got, dropped = self._fanout(
            self.live,
            "window_tf",
            {"t0": query.t0, "t1": query.t1, "source": query.source},
        )
        totals, window_docs, scanned = self._merge_window_tf(got, 0)
        pos = np.flatnonzero(totals > 0)
        sel = topk_int_score_row(
            totals[pos], pos, max(1, query.n_terms)
        )
        rows = pos[sel]
        self.ctx.charge_cpu(int(totals.shape[0]) + _DISPATCH_OPS)
        self._count_facets("window_terms", scanned)
        resp = {
            "kind": "window_terms",
            "t0": query.t0,
            "t1": query.t1,
            "source": query.source,
            "window_docs": window_docs,
            "terms": [
                {
                    "term": self.model.terms[int(r)],
                    "tf": int(totals[int(r)]),
                }
                for r in rows
            ],
        }
        return self._flag(resp, dropped)

    def _exec_emerging(self, query: Query) -> dict:
        fac = self.manifest.facets
        if fac is None:
            return self._facet_error("emerging")
        if not self.model.has_postings:
            return self._facet_error("emerging")
        got, dropped = self._fanout(
            self.live,
            "window_tf",
            {
                "t0": query.t0,
                "t1": query.t1,
                "source": query.source,
                "pair": True,
            },
        )
        prev, prev_docs, scanned = self._merge_window_tf(got, 0)
        cur, cur_docs, _ = self._merge_window_tf(got, 1)
        scores = emerging_scores(prev, cur)
        keep = np.flatnonzero((cur > 0) & (scores > 0))
        sel = topk_int_score_row(
            scores[keep], keep, max(1, query.n_terms)
        )
        rows = keep[sel]
        self.ctx.charge_cpu(3 * int(cur.shape[0]) + _DISPATCH_OPS)
        self._count_facets("emerging", scanned, hits=int(rows.size))
        resp = {
            "kind": "emerging",
            "t0": query.t0,
            "t1": query.t1,
            "source": query.source,
            "window_docs": cur_docs,
            "prev_docs": prev_docs,
            "terms": [
                {
                    "term": self.model.terms[int(r)],
                    "score": int(scores[int(r)]),
                    "tf": int(cur[int(r)]),
                    "prev_tf": int(prev[int(r)]),
                }
                for r in rows
            ],
        }
        return self._flag(resp, dropped)

    #: query kind -> the operator method answering it
    _EXECUTORS = {
        "search": "_exec_search",
        "query": "_exec_query",
        "similar": "_exec_similar",
        "cluster": "_exec_cluster",
        "region": "_exec_region",
        "facet_counts": "_exec_facet_counts",
        "window_terms": "_exec_window_terms",
        "emerging": "_exec_emerging",
    }

    # -- closed-loop event pump ----------------------------------------
    def _admit(self, script: ClientScript, depth: int) -> bool:
        """Whether a query may enter at the given in-flight depth."""
        return depth < self.config.max_inflight

    def _on_reject(
        self,
        client: int,
        seq: int,
        query: Query,
        script: ClientScript,
        depth: int,
        rejected: list,
    ) -> None:
        """Record one turned-away query (subclass hook)."""
        self.c_rejected.inc(self.mrank)
        rejected.append({"client": client, "seq": seq, "kind": query.kind})

    def _shutdown(self) -> None:
        """End-of-session: stop the shard ranks this broker owns."""
        for s in self.live:
            self.ctx.comm.send(
                self._shard_rank(s), ("stop",), tag=TAG_REQ
            )

    def _tally(self, gen: int, arrival: float) -> None:
        """Count one answered request against its generation."""
        stats = self.gen_stats.setdefault(
            gen, {"queries": 0, "first_virtual_s": float(arrival)}
        )
        stats["queries"] += 1

    def _dead_shard_ranks(self) -> list[int]:
        """Ranks of the shards this broker has seen crash."""
        return sorted(
            self._shard_rank(s)
            for s in range(self.nshards)
            if s not in self.live
        )

    def _build_report(
        self,
        responses: list[dict],
        latencies: list[float],
        rejected: list,
    ) -> ServeReport:
        return ServeReport(
            responses=responses,
            latencies=latencies,
            rejected=rejected,
            failed_ranks=self._dead_shard_ranks(),
            makespan=self.ctx.now,
            generations=self.gen_stats,
        )

    def pump(self, scripts: list[ClientScript]) -> ServeReport:
        ctx, cfg = self.ctx, self.config
        heap: list[tuple[float, int, int]] = []
        for c, script in enumerate(scripts):
            if script.queries:
                heapq.heappush(heap, (script.think_s[0], c, 0))
        responses: list[dict] = []
        latencies: list[float] = []
        rejected: list = []
        finishes: list[float] = []  # ascending: server is sequential

        def _next(client: int, seq: int, now: float) -> None:
            script = scripts[client]
            if seq + 1 < len(script.queries):
                heapq.heappush(
                    heap, (now + script.think_s[seq + 1], client, seq + 1)
                )

        def _record(
            idx: int, seq: int, arrival: float, query: Query,
            resp: dict, cached: bool,
        ) -> None:
            script = scripts[idx]
            finish = ctx.now
            latency = finish - arrival
            self.h_latency.observe(self.mrank, latency, key=(query.kind,))
            self._tally(self.epoch, arrival)
            responses.append(
                {
                    "client": script.client,
                    "seq": seq,
                    "kind": query.kind,
                    "cached": cached,
                    "generation": self.epoch,
                    "response": resp,
                }
            )
            latencies.append(latency)
            finishes.append(finish)
            _next(idx, seq, finish)

        def _store(key: tuple, resp: dict) -> None:
            if resp.get("partial"):
                self.c_degraded.inc(self.mrank)
            elif cfg.cache_capacity > 0:
                self.cache[key] = resp
                if len(self.cache) > cfg.cache_capacity:
                    self.cache.popitem(last=False)
                    self.c_evict.inc(self.mrank)

        def _accept(
            idx: int, seq: int, arrival: float, query: Query, queued: int
        ) -> Optional[tuple]:
            """Admit, pin and cache-check one query; returns its cache
            key when it still needs executing."""
            script = scripts[idx]
            self.c_queries.inc(self.mrank, key=(query.kind,))
            # admission control: accepted-but-unfinished depth at
            # arrival, counting the ``queued`` members of a batch being
            # assembled (admitted but not yet served)
            depth = len(finishes) - bisect_right(finishes, arrival) + queued
            if not self._admit(script, depth):
                ctx.charge_cpu(_REJECT_OPS)
                self._on_reject(
                    script.client, seq, query, script, depth, rejected
                )
                _next(idx, seq, arrival)
                return None
            if ctx.now < arrival:
                ctx.charge(arrival - ctx.now)
            # pin this query's epoch: reload happens between queries,
            # never inside a fan-out
            self._maybe_reload()
            key = (self.epoch,) + query.key()
            if cfg.cache_capacity > 0 and key in self.cache:
                self.c_hit.inc(self.mrank)
                self.cache.move_to_end(key)
                ctx.charge_cpu(_CACHE_HIT_OPS)
                _record(idx, seq, arrival, query, self.cache[key], True)
                return None
            self.c_miss.inc(self.mrank)
            return key

        while heap:
            # heap entries carry the *position* in ``scripts``; response
            # records carry the script's own client id (they differ when
            # a tier broker pumps a routed subset of the client set)
            arrival, idx, seq = heapq.heappop(heap)
            query = scripts[idx].queries[seq]
            key = _accept(idx, seq, arrival, query, 0)
            if key is None:
                continue
            if (
                query.kind != "search"
                or cfg.batch_max_queries <= 1
                or self.generational
            ):
                resp = self.execute(query)
                _store(key, resp)
                _record(idx, seq, arrival, query, resp, False)
                continue
            # -- cross-query batching: drain search queries that have
            # already arrived into one shard round-trip.  Members keep
            # their own admission check, cache lookup, and response
            # identity; they only share the fan-out (and with it the
            # shard-side postings decode) and a common finish time.
            # (Batching is static-store only, so a member's arrival wait
            # and epoch reload in ``_accept`` are no-ops.)
            batch = [(idx, seq, arrival, query, key)]
            while heap and len(batch) < cfg.batch_max_queries:
                a2, i2, s2 = heap[0]
                q2 = scripts[i2].queries[s2]
                if a2 > ctx.now or q2.kind != "search":
                    break
                heapq.heappop(heap)
                key2 = _accept(i2, s2, a2, q2, len(batch))
                if key2 is not None:
                    batch.append((i2, s2, a2, q2, key2))
            resps = self._exec_search_batch([b[3] for b in batch])
            for (i2, s2, a2, q2, key2), resp in zip(batch, resps):
                _store(key2, resp)
                _record(i2, s2, a2, q2, resp, False)

        self._shutdown()
        return self._build_report(responses, latencies, rejected)


# ----------------------------------------------------------------------
# launcher
# ----------------------------------------------------------------------
def _rank_main(
    ctx, store_dir, scripts, rmap, make_broker, brokers, route, ingest
):
    """The SPMD program of every serving session.

    Rank 0 fronts the session: the broker itself in the single tier
    (``brokers == 0``), else the router (``route``) over tier-broker
    ranks ``1..brokers``.  Shard-worker ranks follow, one per ``rmap``
    worker, then the optional ingest-driver rank.
    """
    base = 1 + brokers
    if ctx.rank < base:
        if route is not None and ctx.rank == 0:
            return route(ctx, scripts)
        broker = make_broker(ctx, ingest is not None)
        return broker.run() if brokers else broker.pump(list(scripts))
    if ctx.rank < base + len(rmap.workers):
        return _ShardWorker(
            ctx, store_dir, rmap, ctx.rank - base, range(base)
        ).run()
    return ingest.run(ctx, store_dir)


def launch(
    store_dir: str,
    scripts,
    rmap: ReplicaMap,
    make_broker,
    brokers: int = 0,
    route=None,
    machine: Optional[MachineSpec] = None,
    faults=None,
    ingest=None,
    backend: str = "sim",
):
    """Run one serving session and return rank 0's report.

    ``make_broker(ctx, generational)`` builds a broker rank; ``route``
    (with ``brokers`` tier brokers) makes rank 0 a router.  The report
    gets the run's metrics snapshot, every failed rank, and the ingest
    driver's outcome when ``ingest`` ran alongside.  Under a fault plan
    the session degrades or fails over instead of failing: the cluster
    runs with ``raise_on_failure=False``.
    """
    nprocs = 1 + brokers + len(rmap.workers) + (ingest is not None)
    result = Cluster(
        nprocs, machine=machine, faults=faults, backend=backend
    ).run(
        _rank_main,
        store_dir,
        tuple(scripts),
        rmap,
        make_broker,
        brokers,
        route,
        ingest,
        raise_on_failure=False,
    )
    report = result.rank_results[0]
    if report is None:
        front = "router" if route is not None else "broker"
        raise RankFailedError(result.failed_ranks, f"{front} rank crashed")
    report.metrics = result.metrics.snapshot()
    report.failed_ranks = sorted(
        set(report.failed_ranks) | set(result.failed_ranks)
    )
    if ingest is not None:
        report.ingest = result.rank_results[-1]
    return report


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def serve(
    store_dir: str | os.PathLike,
    scripts: list[ClientScript],
    config: Optional[BrokerConfig] = None,
    machine: Optional[MachineSpec] = None,
    faults=None,
    ingest=None,
    backend: str = "sim",
) -> ServeReport:
    """Run one broker session over a sharded store.

    Spawns ``nshards + 1`` ranks on the deterministic runtime, serves
    every scripted query, and returns the broker's
    :class:`ServeReport` with the run's metrics snapshot attached.
    Under a fault plan the session degrades (partial responses) rather
    than failing.

    ``ingest`` (an object with ``run(ctx, store_dir) -> dict``, e.g. an
    :class:`repro.ingest.IngestPlan`) adds one extra driver rank that
    feeds, publishes, and compacts generations while the broker serves;
    its outcome is attached as ``report.ingest``.

    ``backend`` selects the runtime execution backend (``"sim"`` or
    ``"mp"``).  The *answers* are identical across backends: every
    response, compared as :func:`~repro.serve.query.canonical_response`,
    and its generation.  Latencies, makespan and metrics may differ:
    lacking ``recv_any``, the mp fan-out receives shard answers in
    shard order rather than arrival order, so a query can finish about
    one receive overhead later (or earlier) in virtual time.
    """
    store_dir = str(store_dir)
    config = config if config is not None else BrokerConfig()
    nshards = load_manifest(store_dir).nshards
    return launch(
        store_dir,
        scripts,
        ReplicaMap.single(nshards),
        lambda ctx, gen: _Broker(ctx, store_dir, config, generational=gen),
        machine=machine,
        faults=faults,
        ingest=ingest,
        backend=backend,
    )


def query_store(
    store_dir: str | os.PathLike,
    query: Query,
    config: Optional[BrokerConfig] = None,
    machine: Optional[MachineSpec] = None,
) -> dict:
    """Answer one query against a store (the ``serve-query`` path)."""
    script = ClientScript(client=0, queries=(query,), think_s=(0.0,))
    report = serve(store_dir, [script], config=config, machine=machine)
    return report.responses[0]["response"]
