"""Workbench ranks speaking the broker protocol.

Topologies (both launched by :func:`repro.serve.broker.launch`, over
the one shard-worker loop :class:`~repro.serve.broker._ShardWorker`):

- :func:`serve_workbench` -- ``nshards + 1`` ranks (plus one optional
  ingest-driver rank): rank 0 is a *workbench broker* (the query
  broker extended with session state), ranks ``1..nshards`` are the
  shard workers.  Every workbench fan-out rides the existing
  ``TAG_REQ``/``TAG_RESP`` wire protocol, pinned to the session's
  epoch.
- :func:`serve_workbench_replicated` -- ``1 + brokers + workers``
  ranks: rank 0 runs the replicated tier's one router loop, routing
  each *tenant* to a sticky workbench broker (quota state is
  broker-local, so a tenant's sessions must share a broker); brokers
  pump their tenant subsets against the replica worker tier with its
  failover/hedging fan-out.  With ``replicas >= 2`` a worker crash
  mid-session is masked: every response and artifact stays
  byte-identical to the fault-free run.

Determinism: op handlers do float work only through the shared serving
kernels (merge order via ``topk_score_row``, tf·icf accumulation in
query-term order) and integer work through exact int64 sums that are
associative across shard layouts, so a transcript's canonical bytes
are identical across fastpath/slowpath schedulers, ``sim``/``mp``
backends, shard counts, and replica counts.

Quota and lifecycle: over-quota and post-eviction ops answer with a
typed rejection response (mirrored into ``report.rejected`` as
:class:`~repro.workbench.state.WorkbenchReject`); session state is
never partially mutated.  Idle sessions are evicted by virtual-time
TTL sweeps in sorted session order.  Derived artifacts cache per
tenant under ``(set digest, epoch, op)`` keys and are invalidated only
by generation change (the epoch component), with LRU eviction against
the tenant's byte budget.
"""

from __future__ import annotations

import heapq
import os
from collections import OrderedDict
from typing import Optional

import numpy as np

from repro.analysis.session import pseudo_signature
from repro.index.termindex import topk_score_row
from repro.runtime.cluster import MachineSpec
from repro.serve.broker import _REJECT_OPS, BrokerConfig, _Broker, launch
from repro.serve.query import canonical_response, hits_payload, merge_desc
from repro.serve.replica import ReplicaMap
from repro.serve.router import (
    RouterConfig,
    _TierBroker,
    launch_tier,
    merged_sessions,
)
from repro.serve.store import load_manifest
from repro.workbench.state import (
    SET_QUERY_KINDS,
    WorkbenchConfig,
    WorkbenchOp,
    WorkbenchReject,
    WorkbenchReport,
    WorkbenchScript,
    WorkbenchSession,
    diff_sets,
    intersect_sets,
    set_digest,
    set_rows,
    union_sets,
)

#: modelled broker-side cost of a local set-algebra op (per candidate)
_ALGEBRA_OPS_PER_CAND = 4
#: modelled broker-side cost of assembling one artifact
_DERIVE_OPS = 500
#: per-broker session/set/artifact tallies, as WorkbenchReport fields
_SESSION_COUNTS = (
    "sessions_opened",
    "sessions_closed",
    "sessions_evicted",
    "sets_saved",
    "artifact_hits",
    "artifact_misses",
    "artifact_evictions",
)


class _WorkbenchCore:
    """Session/op layer shared by both broker flavours.

    Mixed in front of :class:`~repro.serve.broker._Broker` (single
    tier) or :class:`~repro.serve.router._TierBroker` (replicated
    tier): replaces the host's ``pump`` and ``_build_report`` and
    otherwise uses only its fan-out, flagging, reload, and shutdown
    hooks, so replica failover and hedging come along for free in the
    replicated flavour.  The host's constructor takes ``host_args``.
    """

    def __init__(self, *host_args, wcfg: WorkbenchConfig):
        super().__init__(*host_args)
        self.wcfg = wcfg
        #: (tenant, client) -> open session
        self.sessions: dict[tuple[int, int], WorkbenchSession] = {}
        #: (tenant, client) tombstones of TTL-evicted sessions
        self.evicted_keys: set[tuple[int, int]] = set()
        #: tenant -> artifact LRU: key -> (response dict, nbytes)
        self.art_cache: dict[int, OrderedDict[tuple, tuple[dict, int]]] = {}
        self.art_bytes: dict[int, int] = {}
        self.counts = dict.fromkeys(_SESSION_COUNTS, 0)
        m = self.ctx.metrics
        self.c_wb_ops = m.counter("workbench.ops", ("verb",))
        self.c_wb_opened = m.counter("workbench.sessions.opened")
        self.c_wb_closed = m.counter("workbench.sessions.closed")
        self.c_wb_evicted = m.counter("workbench.sessions.evicted")
        self.c_wb_rejected = m.counter("workbench.rejected", ("reason",))
        self.c_wb_sets = m.counter("workbench.sets.saved")
        self.c_art_hit = m.counter("workbench.artifact.hit")
        self.c_art_miss = m.counter("workbench.artifact.miss")
        self.c_art_evict = m.counter("workbench.artifact.evict")
        self.h_wb_latency = m.histogram(
            "workbench.latency", label_names=("verb",)
        )

    # -- lifecycle -----------------------------------------------------
    def _evict_idle(self, now: float) -> None:
        """TTL sweep in sorted session order (deterministic)."""
        ttl = self.wcfg.session_ttl_s
        for key in sorted(self.sessions):
            sess = self.sessions[key]
            if now - sess.last_active_s > ttl:
                del self.sessions[key]
                self.evicted_keys.add(key)
                self.counts["sessions_evicted"] += 1
                self.c_wb_evicted.inc(self.mrank)

    def _tenant_sessions(self, tenant: int) -> int:
        return sum(1 for t, _ in self.sessions if t == tenant)

    def _tenant_sets(self, tenant: int) -> int:
        return sum(
            len(s.sets)
            for (t, _), s in self.sessions.items()
            if t == tenant
        )

    # -- epoch-pinned fan-out ------------------------------------------
    def _session_fanout(
        self, sess: WorkbenchSession, op: str, params: dict
    ) -> tuple[dict[int, object], list[int]]:
        """One shard round pinned to the session's open-time epoch.

        The broker's own epoch may have moved on (hot reload between
        ops); swapping it in around the fan-out makes the wire
        messages carry the pinned generation, so every shard resolves
        the segment list the session was opened against.
        """
        saved = self.epoch
        self.epoch = sess.epoch
        try:
            return self._fanout(self.live, op, params)
        finally:
            self.epoch = saved

    # -- ranked execution over a session -------------------------------
    def _wb_query(
        self,
        sess: WorkbenchSession,
        query,
        restrict: Optional[np.ndarray],
    ) -> tuple[list, list[int]]:
        """Ranked candidates of one set-builder query.

        ``restrict`` (ascending global rows) is the refine path: only
        those rows compete, with unchanged per-row floats.
        """
        k = (
            int(restrict.size)
            if restrict is not None
            else min(max(1, query.k), sess.n_docs)
        )
        rows = self._term_rows(query.terms)
        if query.kind == "search":
            if not rows or not self.model.has_postings or k < 1:
                return [], []
            op = "search"
            params = {
                "term_rows": rows,
                "icf": sess.icf,
                "k": k,
                "pruned": self.config.pruned_search,
            }
        else:  # "query": pseudo-signature cosine ranking
            unit = pseudo_signature(self.model.association, rows)
            if unit is None or k < 1:
                return [], []
            op, params = "matvec", {"unit": unit, "k": k}
        if restrict is not None:
            params["restrict_rows"] = restrict
        got, dropped = self._session_fanout(sess, op, params)
        cands = merge_desc([got[s] for s in sorted(got)], k)
        self.ctx.charge_cpu(sum(len(got[s]) for s in got) + _DERIVE_OPS)
        return cands, dropped

    def _wb_set_tf(
        self, sess: WorkbenchSession, rows: np.ndarray
    ) -> tuple[np.ndarray, list[int]]:
        """Exact per-term tf totals of a set, summed in shard order."""
        totals = np.zeros(self.model.term_df.shape[0], dtype=np.int64)
        if rows.size == 0:
            return totals, []
        got, dropped = self._session_fanout(
            sess, "set_tf", {"rows": rows}
        )
        for s in sorted(got):
            totals += got[s]
        self.ctx.charge_cpu(totals.shape[0] * len(got) + _DERIVE_OPS)
        return totals, dropped

    def _wb_cooc(
        self,
        sess: WorkbenchSession,
        rows: np.ndarray,
        n: int,
    ) -> tuple[list[int], np.ndarray, list[int]]:
        """Top-``n`` in-set terms plus their co-occurrence counts.

        Term basis: the ``n`` highest in-set tf totals with ascending
        term row breaking ties -- the same ``(-score, row)`` selection
        as every ranked answer, on exact integers.
        """
        totals, dropped = self._wb_set_tf(sess, rows)
        nz = np.flatnonzero(totals > 0)
        if nz.size == 0 or rows.size == 0:
            return [], np.zeros((0, 0), dtype=np.int64), dropped
        sel = topk_score_row(
            totals[nz].astype(np.float64), nz, min(n, int(nz.size))
        )
        term_rows = [int(r) for r in nz[sel]]
        got, dropped2 = self._session_fanout(
            sess, "set_cooc", {"rows": rows, "term_rows": term_rows}
        )
        counts = np.zeros(
            (len(term_rows), len(term_rows)), dtype=np.int64
        )
        for s in sorted(got):
            counts += got[s]
        self.ctx.charge_cpu(counts.size * len(got) + _DERIVE_OPS)
        return term_rows, counts, sorted(set(dropped) | set(dropped2))

    # -- artifact cache ------------------------------------------------
    def _artifact_lookup(
        self, tenant: int, key: tuple
    ) -> Optional[dict]:
        if not self.wcfg.artifact_cache:
            return None
        cache = self.art_cache.get(tenant)
        if cache is None or key not in cache:
            return None
        cache.move_to_end(key)
        self.counts["artifact_hits"] += 1
        self.c_art_hit.inc(self.mrank)
        return cache[key][0]

    def _artifact_store(
        self, tenant: int, key: tuple, resp: dict
    ) -> Optional[str]:
        """Cache one artifact under the tenant's byte budget.

        Returns a rejection reason when the artifact alone exceeds the
        budget (``derived_bytes_quota``); otherwise evicts the
        tenant's least-recently-used artifacts until it fits.
        """
        nbytes = len(canonical_response(resp))
        if nbytes > self.wcfg.max_derived_bytes:
            return "derived_bytes_quota"
        if not self.wcfg.artifact_cache:
            return None
        cache = self.art_cache.setdefault(tenant, OrderedDict())
        used = self.art_bytes.get(tenant, 0)
        while cache and used + nbytes > self.wcfg.max_derived_bytes:
            _, (_, old) = cache.popitem(last=False)
            used -= old
            self.counts["artifact_evictions"] += 1
            self.c_art_evict.inc(self.mrank)
        cache[key] = (resp, nbytes)
        self.art_bytes[tenant] = used + nbytes
        return None

    # -- op execution --------------------------------------------------
    def _reject(
        self,
        script: WorkbenchScript,
        seq: int,
        op: WorkbenchOp,
        reason: str,
        rejected: list,
    ) -> dict:
        self.ctx.charge_cpu(_REJECT_OPS)
        self.c_wb_rejected.inc(self.mrank, key=(reason,))
        rejected.append(
            WorkbenchReject(
                tenant=script.tenant,
                client=script.client,
                seq=seq,
                verb=op.verb,
                reason=reason,
            )
        )
        return {"kind": "reject", "verb": op.verb, "reason": reason}

    def _get_session(
        self, script: WorkbenchScript
    ) -> tuple[Optional[WorkbenchSession], str]:
        key = (script.tenant, script.client)
        sess = self.sessions.get(key)
        if sess is not None:
            return sess, ""
        if key in self.evicted_keys:
            return None, "session_evicted"
        return None, "no_session"

    def _set_response(
        self,
        verb: str,
        name: str,
        cands: tuple,
        dropped: list[int],
    ) -> dict:
        resp = {
            "kind": verb,
            "set": name,
            "size": len(cands),
            "digest": set_digest(cands),
            "hits": hits_payload(
                list(cands[: self.wcfg.preview_hits])
            ),
        }
        return self._flag(resp, dropped)

    def _save_set(
        self,
        script: WorkbenchScript,
        seq: int,
        op: WorkbenchOp,
        sess: WorkbenchSession,
        cands: tuple,
        dropped: list[int],
        rejected: list,
    ) -> dict:
        resp = self._set_response(op.verb, op.name, cands, dropped)
        if resp["partial"]:
            # a set missing shards would silently corrupt every later
            # derive; answer degraded but save nothing
            resp["saved"] = False
            return resp
        if (
            op.name not in sess.sets
            and self._tenant_sets(script.tenant) >= self.wcfg.max_sets
        ):
            return self._reject(script, seq, op, "set_quota", rejected)
        sess.sets[op.name] = cands
        self.counts["sets_saved"] += 1
        self.c_wb_sets.inc(self.mrank)
        resp["saved"] = True
        return resp

    def _exec_wb_op(
        self,
        script: WorkbenchScript,
        seq: int,
        op: WorkbenchOp,
        rejected: list,
    ) -> tuple[dict, bool, int]:
        """Answer one op: ``(response, artifact_cached, generation)``."""
        wcfg = self.wcfg
        ctx = self.ctx
        key = (script.tenant, script.client)

        def reject(reason: str, gen: int) -> tuple[dict, bool, int]:
            return self._reject(script, seq, op, reason, rejected), False, gen

        if op.verb == "open":
            if key in self.sessions:
                return reject("already_open", self.epoch)
            if self._tenant_sessions(script.tenant) >= wcfg.max_sessions:
                return reject("session_quota", self.epoch)
            self.evicted_keys.discard(key)
            self.sessions[key] = WorkbenchSession(
                tenant=script.tenant,
                client=script.client,
                epoch=self.epoch,
                n_docs=self.n_docs,
                icf=self.icf,
                opened_s=float(ctx.now),
                last_active_s=float(ctx.now),
            )
            self.counts["sessions_opened"] += 1
            self.c_wb_opened.inc(self.mrank)
            return {"kind": "open"}, False, self.epoch

        sess, why = self._get_session(script)
        if sess is None:
            return reject(why, self.epoch)
        gen = sess.epoch

        if op.verb == "close":
            del self.sessions[key]
            self.counts["sessions_closed"] += 1
            self.c_wb_closed.inc(self.mrank)
            return (
                {"kind": "close", "sets": sorted(sess.sets)},
                False,
                gen,
            )

        if op.verb in ("search", "refine"):
            if (
                op.query is None
                or op.query.kind not in SET_QUERY_KINDS
            ):
                return reject("bad_query", gen)
            restrict = None
            if op.verb == "refine":
                base = sess.sets.get(op.base)
                if base is None:
                    return reject("unknown_set", gen)
                restrict = set_rows(base)
            cands, dropped = self._wb_query(sess, op.query, restrict)
            resp = self._save_set(
                script, seq, op, sess, tuple(cands), dropped, rejected
            )
            sess.last_active_s = float(ctx.now)
            return resp, False, gen

        if op.verb == "window":
            base = sess.sets.get(op.base)
            if base is None:
                return reject("unknown_set", gen)
            if self.manifest.facets is None:
                return reject("unstamped_store", gen)
            rows = set_rows(base)
            dropped: list[int] = []
            kept: set[int] = set()
            if rows.size:
                got, dropped = self._session_fanout(
                    sess,
                    "window_restrict",
                    {
                        "rows": rows,
                        "t0": op.t0,
                        "t1": op.t1,
                        "source": op.source,
                    },
                )
                scanned = 0
                for s in sorted(got):
                    in_window, shard_scanned = got[s]
                    kept.update(int(r) for r in in_window)
                    scanned += int(shard_scanned)
                self._count_facets("window_restrict", scanned)
            # filtering the base set preserves its canonical order
            cands = tuple(c for c in base if c.row in kept)
            ctx.charge_cpu(
                _ALGEBRA_OPS_PER_CAND * len(base) + _DERIVE_OPS
            )
            resp = self._save_set(
                script, seq, op, sess, cands, dropped, rejected
            )
            sess.last_active_s = float(ctx.now)
            return resp, False, gen

        if op.verb in ("union", "diff", "intersect"):
            a = sess.sets.get(op.base)
            b = sess.sets.get(op.other)
            if a is None or b is None:
                return reject("unknown_set", gen)
            ctx.charge_cpu(
                _ALGEBRA_OPS_PER_CAND * (len(a) + len(b)) + _DERIVE_OPS
            )
            combine = {
                "union": union_sets,
                "diff": diff_sets,
                "intersect": intersect_sets,
            }[op.verb]
            resp = self._save_set(
                script, seq, op, sess, combine(a, b), [], rejected
            )
            sess.last_active_s = float(ctx.now)
            return resp, False, gen

        # -- derives: keyphrases / cooccur / relations ----------------
        base = sess.sets.get(op.base)
        if base is None:
            return reject("unknown_set", gen)
        digest = set_digest(base)
        ck = (digest, gen, op.verb, op.n, op.min_support)
        cached = self._artifact_lookup(script.tenant, ck)
        if cached is not None:
            sess.last_active_s = float(ctx.now)
            return cached, True, gen
        self.counts["artifact_misses"] += 1
        self.c_art_miss.inc(self.mrank)
        rows = set_rows(base)
        if op.verb == "keyphrases":
            totals, dropped = self._wb_set_tf(sess, rows)
            nz = np.flatnonzero(totals > 0)
            scores = totals[nz].astype(np.float64) * sess.icf[nz]
            sel = topk_score_row(
                scores, nz, min(op.n, int(nz.size))
            )
            resp = {
                "kind": "keyphrases",
                "set": op.base,
                "size": len(base),
                "digest": digest,
                "terms": [
                    {
                        "term": self.model.terms[int(nz[i])],
                        "tf": int(totals[int(nz[i])]),
                        "score": float(scores[int(i)]),
                    }
                    for i in sel
                ],
            }
        else:
            term_rows, counts, dropped = self._wb_cooc(
                sess, rows, op.n
            )
            terms = [self.model.terms[r] for r in term_rows]
            if op.verb == "cooccur":
                resp = {
                    "kind": "cooccur",
                    "set": op.base,
                    "size": len(base),
                    "digest": digest,
                    "terms": terms,
                    "counts": counts.tolist(),
                }
            else:  # relations: the entity-relation summary
                linked = sorted(
                    (
                        (-int(counts[i, j]), term_rows[i], term_rows[j], i, j)
                        for i in range(len(terms))
                        for j in range(i + 1, len(terms))
                        if counts[i, j] >= op.min_support
                    ),
                )
                pairs = [
                    {"a": terms[i], "b": terms[j], "count": -neg}
                    for neg, _ri, _rj, i, j in linked
                ]
                resp = {
                    "kind": "relations",
                    "set": op.base,
                    "size": len(base),
                    "digest": digest,
                    "min_support": op.min_support,
                    "pairs": pairs,
                }
        self._flag(resp, dropped)
        sess.last_active_s = float(ctx.now)
        if resp["partial"]:
            return resp, False, gen  # degraded: never cached
        reason = self._artifact_store(script.tenant, ck, resp)
        if reason is not None:
            return reject(reason, gen)
        return resp, False, gen

    # -- event pump ----------------------------------------------------
    def pump(self, wscripts: list[WorkbenchScript]):
        """Closed-loop pump over analyst scripts (one op in flight per
        session, think times between ops)."""
        ctx = self.ctx
        heap: list[tuple[float, int, int]] = []
        for i, script in enumerate(wscripts):
            if script.ops:
                heapq.heappush(heap, (script.think_s[0], i, 0))
        responses: list[dict] = []
        latencies: list[float] = []
        rejected: list[WorkbenchReject] = []
        while heap:
            arrival, idx, seq = heapq.heappop(heap)
            script = wscripts[idx]
            op = script.ops[seq]
            self.c_wb_ops.inc(self.mrank, key=(op.verb,))
            if ctx.now < arrival:
                ctx.charge(arrival - ctx.now)
            self._evict_idle(ctx.now)
            self._maybe_reload()
            resp, art_cached, gen = self._exec_wb_op(
                script, seq, op, rejected
            )
            finish = ctx.now
            latency = finish - arrival
            self.h_wb_latency.observe(
                self.mrank, latency, key=(op.verb,)
            )
            self._tally(gen, arrival)
            responses.append(
                {
                    "tenant": script.tenant,
                    "client": script.client,
                    "seq": seq,
                    "verb": op.verb,
                    "cached": art_cached,
                    "generation": gen,
                    "response": resp,
                }
            )
            latencies.append(latency)
            if seq + 1 < len(script.ops):
                heapq.heappush(
                    heap,
                    (finish + script.think_s[seq + 1], idx, seq + 1),
                )
        self._shutdown()
        return self._build_report(responses, latencies, rejected)

    def _build_report(
        self, responses, latencies, rejected
    ) -> WorkbenchReport:
        return WorkbenchReport(
            responses=responses,
            latencies=latencies,
            rejected=rejected,
            failed_ranks=self._dead_shard_ranks(),
            makespan=self.ctx.now,
            generations=self.gen_stats,
            **self.counts,
        )


class _WorkbenchBroker(_WorkbenchCore, _Broker):
    """Single-tier workbench broker over the shard-worker ranks."""


class _WorkbenchTierBroker(_WorkbenchCore, _TierBroker):
    """Replicated-tier workbench broker with failover/hedging."""

    @staticmethod
    def route_key(script: WorkbenchScript) -> int:
        """Sticky *tenant* routing: a tenant's quota and artifact state
        live on exactly one broker."""
        return script.tenant

    def _build_report(self, responses, latencies, rejected) -> dict:
        return {
            "broker": self.broker_idx,
            "responses": responses,
            "latencies": latencies,
            "rejected": rejected,
            "counts": dict(self.counts),
            "gen_stats": self.gen_stats,
            "makespan": self.ctx.now,
        }

    @staticmethod
    def merge_reports(
        ctx, live: list, dead: set, cfg, rmap
    ) -> WorkbenchReport:
        return WorkbenchReport(
            **merged_sessions(ctx, live, dead, ("tenant", "client", "seq")),
            rejected=sorted(
                (r for rep in live for r in rep["rejected"]),
                key=lambda r: (r.tenant, r.client, r.seq),
            ),
            per_broker=[
                {
                    "broker": rep["broker"],
                    "served": len(rep["responses"]),
                    "rejected": len(rep["rejected"]),
                    "makespan": rep["makespan"],
                }
                for rep in live
            ],
            **{
                k: sum(rep["counts"][k] for rep in live)
                for k in _SESSION_COUNTS
            },
        )


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def serve_workbench(
    store_dir: str | os.PathLike,
    wscripts: list[WorkbenchScript],
    config: Optional[WorkbenchConfig] = None,
    broker: Optional[BrokerConfig] = None,
    machine: Optional[MachineSpec] = None,
    faults=None,
    ingest=None,
    backend: str = "sim",
) -> WorkbenchReport:
    """Run one workbench session over a sharded store.

    Spawns ``nshards + 1`` ranks (plus one when ``ingest`` is given),
    answers every scripted analyst op, and returns the
    :class:`WorkbenchReport` with the run's metrics snapshot attached.
    ``backend`` selects the execution backend (``sim``/``mp``);
    transcripts are bit-exact across both.
    """
    store_dir = str(store_dir)
    wcfg = config if config is not None else WorkbenchConfig()
    bcfg = broker if broker is not None else BrokerConfig()
    nshards = load_manifest(store_dir).nshards
    return launch(
        store_dir,
        wscripts,
        ReplicaMap.single(nshards),
        lambda ctx, gen: _WorkbenchBroker(
            ctx, store_dir, bcfg, gen, wcfg=wcfg
        ),
        machine=machine,
        faults=faults,
        ingest=ingest,
        backend=backend,
    )


def serve_workbench_replicated(
    store_dir: str | os.PathLike,
    wscripts: list[WorkbenchScript],
    config: Optional[WorkbenchConfig] = None,
    router: Optional[RouterConfig] = None,
    machine: Optional[MachineSpec] = None,
    faults=None,
    ingest=None,
) -> WorkbenchReport:
    """Run one workbench session over the replicated worker tier.

    Tenants route stickily to ``router.brokers`` workbench brokers;
    shard requests fan out over ``replicas`` copies with failover and
    hedging, so with ``replicas >= 2`` a worker crash mid-session is
    masked byte-for-byte.  The tier needs ``recv_any``, so it runs on
    the ``sim`` backend only.
    """
    return launch_tier(
        store_dir,
        wscripts,
        router if router is not None else RouterConfig(),
        _WorkbenchTierBroker,
        {"wcfg": config if config is not None else WorkbenchConfig()},
        machine=machine,
        faults=faults,
        ingest=ingest,
    )
