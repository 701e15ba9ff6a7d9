"""Deterministic replica placement and per-replica health tracking.

Placement is classic consistent hashing with virtual nodes: every
worker contributes ``vnodes`` points on a 64-bit ring (a keyed
blake2b hash -- Python's builtin ``hash`` is salted per process and
must not leak into placement), and shard ``s`` takes the first
``replicas`` *distinct* workers clockwise from its own ring point.
The map is a pure function of ``(worker ids, nshards, replicas,
vnodes, seed)``: no randomness, no process state, no scheduler
interaction -- which is what makes placement trivially bit-identical
across the fast-path and slow-path scheduler mechanisms and across
repeated runs.

Consistent hashing buys the *minimal-remap* property the serving tier
leans on during resize: removing one worker only reassigns the
(shard, replica) slots that worker held (each falls to the next
distinct worker on the ring), and adding one worker only steals the
slots whose ring walk now meets the new worker first.  Assignments of
untouched shards are byte-identical -- the Hypothesis suite pins this
down.

:class:`ReplicaHealth` is the router tier's per-worker failure
bookkeeping, a small up/suspect/down state machine over virtual time:

- ``UP``: default; preferred target.
- ``SUSPECT``: a fan-out to the worker timed out while the failure
  detector still believed it alive.  Suspicion is probationary: it
  expires ``probation_s`` virtual seconds later and the worker
  returns to ``UP``.  Suspect workers are used only when no ``UP``
  replica of a shard remains.
- ``DOWN``: the failure detector (or a :class:`RankFailedError`)
  confirmed the crash.  Permanent -- the simulated cluster has no
  rank restart -- and never routed to again.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

UP = "up"
SUSPECT = "suspect"
DOWN = "down"


def stable_hash(key: str) -> int:
    """A process-stable 64-bit hash of ``key``."""
    return int.from_bytes(
        hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(),
        "big",
    )


@dataclass(frozen=True)
class ReplicaMap:
    """Where every (shard, replica) copy lives.

    ``assignments[s]`` is the ordered tuple of worker ids hosting
    shard ``s`` -- ring order, so ``assignments[s][0]`` is the
    shard's primary.  Build one with :meth:`place`.
    """

    nshards: int
    replicas: int
    workers: tuple[int, ...]
    assignments: tuple[tuple[int, ...], ...]
    vnodes: int = 16
    seed: int = 0

    @classmethod
    def place(
        cls,
        nshards: int,
        replicas: int,
        workers: tuple[int, ...] | list[int] | int,
        vnodes: int = 16,
        seed: int = 0,
    ) -> "ReplicaMap":
        """Place ``replicas`` copies of each shard over ``workers``.

        ``workers`` may be a count (ids ``0..n-1``) or an explicit id
        tuple (ids survive membership changes, which is what the
        minimal-remap property is stated over).
        """
        if isinstance(workers, int):
            workers = tuple(range(workers))
        else:
            workers = tuple(workers)
        if not workers:
            raise ValueError("replica placement needs at least one worker")
        if len(set(workers)) != len(workers):
            raise ValueError(f"duplicate worker ids: {workers}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if replicas > len(workers):
            raise ValueError(
                f"cannot place {replicas} replicas on "
                f"{len(workers)} workers"
            )
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        ring = sorted(
            (stable_hash(f"{seed}/worker-{w}/vnode-{v}"), w)
            for w in workers
            for v in range(vnodes)
        )
        points = [p for p, _ in ring]
        owners = [w for _, w in ring]
        n = len(ring)
        assignments = []
        for s in range(nshards):
            start = stable_hash(f"{seed}/shard-{s}")
            # first ring point at or clockwise-after the shard's point
            lo, hi = 0, n
            while lo < hi:
                mid = (lo + hi) // 2
                if points[mid] < start:
                    lo = mid + 1
                else:
                    hi = mid
            chosen: list[int] = []
            for i in range(n):
                w = owners[(lo + i) % n]
                if w not in chosen:
                    chosen.append(w)
                    if len(chosen) == replicas:
                        break
            assignments.append(tuple(chosen))
        return cls(
            nshards=nshards,
            replicas=replicas,
            workers=workers,
            assignments=tuple(assignments),
            vnodes=vnodes,
            seed=seed,
        )

    @classmethod
    def single(cls, nshards: int) -> "ReplicaMap":
        """The single-tier layout: shard ``s`` alone on worker ``s``."""
        return cls(
            nshards=nshards,
            replicas=1,
            workers=tuple(range(nshards)),
            assignments=tuple((s,) for s in range(nshards)),
        )

    def workers_for(self, shard: int) -> tuple[int, ...]:
        """Ordered worker ids hosting ``shard`` (primary first)."""
        return self.assignments[shard]

    def shards_of(self, worker: int) -> tuple[int, ...]:
        """Shards hosted (at any replica slot) by ``worker``."""
        return tuple(
            s
            for s in range(self.nshards)
            if worker in self.assignments[s]
        )

    def to_dict(self) -> dict:
        """JSON-friendly form for reports and manifests."""
        return {
            "nshards": self.nshards,
            "replicas": self.replicas,
            "workers": list(self.workers),
            "vnodes": self.vnodes,
            "seed": self.seed,
            "assignments": [list(a) for a in self.assignments],
        }


@dataclass
class ReplicaHealth:
    """Up/suspect/down state of every worker, in virtual time."""

    probation_s: float = 10.0
    _suspect_until: dict[int, float] = field(default_factory=dict)
    _down: set[int] = field(default_factory=set)
    #: transition tallies for the session report
    suspicions: int = 0
    downs: int = 0

    def state(self, worker: int, now: float) -> str:
        if worker in self._down:
            return DOWN
        until = self._suspect_until.get(worker)
        if until is not None and now < until:
            return SUSPECT
        return UP

    def mark_suspect(self, worker: int, now: float) -> None:
        """Probationary suspicion after a timeout; expires on its own."""
        if worker in self._down:
            return
        self._suspect_until[worker] = now + self.probation_s
        self.suspicions += 1

    def mark_down(self, worker: int) -> None:
        """Confirmed crash; permanent."""
        if worker not in self._down:
            self._down.add(worker)
            self._suspect_until.pop(worker, None)
            self.downs += 1

    def is_down(self, worker: int) -> bool:
        return worker in self._down

    def preference(
        self, candidates: tuple[int, ...], now: float
    ) -> list[int]:
        """Candidates worth sending to, best state first.

        Keeps the ring order within each state class (UP before
        SUSPECT) and drops DOWN workers entirely.
        """
        up = [w for w in candidates if self.state(w, now) == UP]
        sus = [w for w in candidates if self.state(w, now) == SUSPECT]
        return up + sus

    def snapshot(self, now: float) -> dict[str, list[int]]:
        """Workers by state at ``now`` (for reports)."""
        seen = sorted(
            set(self._down) | set(self._suspect_until)
        )
        out: dict[str, list[int]] = {UP: [], SUSPECT: [], DOWN: []}
        for w in seen:
            out[self.state(w, now)].append(w)
        return out
