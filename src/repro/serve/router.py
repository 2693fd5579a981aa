"""Pluggable shard routing: which ``GemmService`` serves a request.

A multi-tenant :class:`~repro.serve.server.GemmServer` fronts several
shards — one per machine profile (e.g. ``gadi`` and ``setonix``
simulators), per routine family, or per replica — and a router maps
each ``(spec, client)`` pair to a shard name.  Every router derives
from :class:`ShardRouter` and writes only ``route_batch``; ``route`` is
its one-spec case.

:class:`SingleShardRouter`, :class:`HashRouter`,
:class:`ConsistentHashRouter`, :class:`RoutineRouter` and
:class:`TenantRouter` are stateless deterministic functions of their
inputs, so replaying a trace through them reproduces the exact same
shard assignment (and therefore the same per-shard cache and batch
behaviour).  :class:`LeastLoadedRouter` routes on live load, so its
assignments depend on what is in flight — use it for replica
load-spreading, not when replay reproducibility matters.
:class:`CanaryRouter` wraps any of them for a rollout.

For mixed-routine traffic, :class:`RoutineRouter` is the deployment
default: one shard per routine name, each holding that routine's
trained predictor, so a single server answers GEMM, GEMV, TRSM and
SYRK requests with the right model.
"""

from __future__ import annotations

import bisect
import hashlib

from repro.core.routines import routine_of
from repro.engine.cache import routine_key


def _key_hash(data: str) -> int:
    """Stable 64-bit hash of ``data`` (blake2b, not Python's salted
    ``hash``), so assignments agree across processes and runs."""
    digest = hashlib.blake2b(data.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _require_shards(shards) -> list:
    names = list(shards)
    if not names:
        raise ValueError("router needs at least one shard name")
    return names


class ShardRouter:
    """Base class: map requests to shard names.

    Subclasses implement ``route_batch(specs, client)``, returning one
    shard name per spec; the server assigns a whole burst in one call.
    :meth:`route` is ``route_batch([spec], client)[0]``, so the scalar
    and batch answers agree by construction.
    """

    def route(self, spec, client: str = "default") -> str:
        return self.route_batch([spec], client)[0]

    def route_batch(self, specs, client: str = "default") -> list:
        raise NotImplementedError


class _KeyedRouter(ShardRouter):
    """A router whose answer depends only on ``key(spec)``.

    ``route_batch`` looks each *distinct* key up once: repeated shapes
    in a burst (the common case the cache exists for) hash once.
    """

    def key(self, spec):
        raise NotImplementedError

    def shard_for(self, key) -> str:
        raise NotImplementedError

    def route_batch(self, specs, client: str = "default") -> list:
        memo: dict = {}
        out = []
        for spec in specs:
            key = self.key(spec)
            shard = memo.get(key)
            if shard is None:
                shard = memo[key] = self.shard_for(key)
            out.append(shard)
        return out


class SingleShardRouter(ShardRouter):
    """Everything goes to the one shard (the single-tenant default)."""

    def __init__(self, shard: str = "default"):
        self.shard = str(shard)

    def route_batch(self, specs, client: str = "default") -> list:
        return [self.shard] * len(specs)


class HashRouter(_KeyedRouter):
    """Deterministic shape-hash spreading across identical replicas.

    The same shape always lands on the same shard (its prediction stays
    cached there), and the assignment is stable across processes because
    it hashes the canonical shape key with blake2b rather than Python's
    salted ``hash``.
    """

    def __init__(self, shards):
        self.shards = _require_shards(shards)

    def key(self, spec):
        return routine_key(spec)

    def shard_for(self, key) -> str:
        return self.shards[_key_hash(repr(key)) % len(self.shards)]


class ConsistentHashRouter(_KeyedRouter):
    """Hash-ring spreading that survives shard membership changes.

    :class:`HashRouter` maps keys with ``hash % n``, so losing one
    shard remaps nearly every key — a dead fleet worker would flush
    every surviving worker's prediction cache.  The ring keeps each
    shard at ``replicas`` virtual points; a key routes to the first
    point clockwise of its own hash, so removing a shard remaps *only*
    the keys that lived on it and adding one steals an even slice from
    everyone.  Assignments hash the canonical shape key with blake2b,
    so they are stable across processes and runs.
    """

    def __init__(self, shards, replicas: int = 64):
        if int(replicas) < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = int(replicas)
        self._points: list = []   # sorted ring positions
        self._owners: list = []   # shard name at each position
        self.shards: list = []
        for shard in _require_shards(shards):
            self.add(shard)

    def add(self, shard: str) -> None:
        if shard in self.shards:
            return
        self.shards.append(shard)
        for i in range(self.replicas):
            point = _key_hash(f"{shard}#{i}")
            at = bisect.bisect_left(self._points, point)
            self._points.insert(at, point)
            self._owners.insert(at, shard)

    def remove(self, shard: str) -> None:
        if shard not in self.shards:
            return
        if len(self.shards) == 1:
            raise ValueError("cannot remove the last shard from the ring")
        self.shards.remove(shard)
        keep = [i for i, owner in enumerate(self._owners) if owner != shard]
        self._points = [self._points[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]

    def key(self, spec):
        return routine_key(spec)

    def shard_for(self, key) -> str:
        point = _key_hash(repr(key))
        at = bisect.bisect_right(self._points, point) % len(self._points)
        return self._owners[at]


class RoutineRouter(_KeyedRouter):
    """Route by the spec's *routine name* (one shard per routine family).

    Shards are looked up by the spec's ``routine`` attribute (bare dims
    triples count as "gemm"), so registry-driven deployments can wire
    mixed-routine traffic without importing any spec class.  With
    ``routes`` omitted, each routine maps to the shard of its own name —
    the natural layout when shards are built from a model registry's
    ``(routine, machine)`` cells.
    """

    def __init__(self, routes: dict = None, default: str = None):
        self.routes = dict(routes) if routes is not None else None
        self.default = default

    def key(self, spec):
        return routine_of(spec)

    def shard_for(self, routine) -> str:
        if self.routes is None:
            return routine
        shard = self.routes.get(routine, self.default)
        if shard is None:
            raise KeyError(f"no shard registered for routine {routine!r} "
                           f"(have {sorted(self.routes)})")
        return shard


class TenantRouter(ShardRouter):
    """Route by client identity (one shard per tenant or tenant group)."""

    def __init__(self, routes: dict, default: str = None):
        self.routes = dict(routes)
        self.default = default

    def route_batch(self, specs, client: str = "default") -> list:
        shard = self.routes.get(client, self.default)
        if shard is None:
            raise KeyError(f"no shard registered for client {client!r}")
        return [shard] * len(specs)


class LeastLoadedRouter(ShardRouter):
    """Route each request to the shard holding the least in-flight load.

    ``loads`` supplies the live occupancy — either a dict the owner
    mutates in place or a zero-argument callable returning one — and
    the router picks the least-loaded shard, breaking ties by shard
    registration order so identical load states route identically.
    ``route_batch`` additionally counts its *own* assignments while it
    spreads a burst: each routed slot will occupy its shard the moment
    the burst is admitted, so simulating that admission is what makes
    the batch land exactly where sequential route-then-admit calls
    would have put it.

    With ``cost_model=None`` every slot weighs 1 and ``loads`` are
    in-flight slot counts.  With a :class:`~repro.serve.cost.CostModel`,
    ``loads`` are outstanding predicted FLOPs (the fleet front supplies
    its live per-worker cost gauge) and each routed slot weighs its
    predicted cost, so a worker holding two huge GEMMs finally looks
    heavier than one holding three tiny GEMVs.
    """

    def __init__(self, shards, loads=None, cost_model=None):
        self.shards = _require_shards(shards)
        self._loads = loads if loads is not None else {}
        self.cost_model = cost_model

    def current_loads(self) -> dict:
        return dict(self._loads() if callable(self._loads) else self._loads)

    def add(self, shard: str) -> None:
        if shard not in self.shards:
            self.shards.append(shard)

    def remove(self, shard: str) -> None:
        if shard in self.shards:
            if len(self.shards) == 1:
                raise ValueError("cannot remove the last shard")
            self.shards.remove(shard)

    def route_batch(self, specs, client: str = "default") -> list:
        loads = self.current_loads()
        costs = (self.cost_model.cost_of(specs)
                 if self.cost_model is not None else [1] * len(specs))
        out = []
        for cost in costs:
            shard = min(self.shards, key=lambda s: loads.get(s, 0))
            loads[shard] = loads.get(shard, 0) + cost
            out.append(shard)
        return out


class CanaryRouter(ShardRouter):
    """Divert a deterministic key fraction of traffic to one shard.

    Wraps a base router during a canary rollout: every spec whose
    hashed shape key falls into the lowest ``fraction`` of the hash
    space routes to ``canary``, everything else follows the base
    router.  The split is a pure function of the shape key (blake2b,
    not Python's salted ``hash``), so the same request always lands on
    the same side — canary-vs-fleet comparisons see disjoint, stable
    traffic sets rather than a random sample.
    """

    def __init__(self, base: ShardRouter, canary: str,
                 fraction: float = 0.25):
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        self.base = base
        self.canary = str(canary)
        self.fraction = float(fraction)

    def _is_canary(self, spec) -> bool:
        bucket = _key_hash("canary:" + repr(routine_key(spec)))
        return bucket / float(2 ** 64) < self.fraction

    def route_batch(self, specs, client: str = "default") -> list:
        # The base router must see only the slots it will actually own:
        # a stateful base (least-loaded) would otherwise account for
        # slots the canary took.
        rest = [i for i, spec in enumerate(specs) if not self._is_canary(spec)]
        out: list = [self.canary] * len(specs)
        if rest:
            names = self.base.route_batch([specs[i] for i in rest], client)
            for i, name in zip(rest, names):
                out[i] = name
        return out


def default_router(shard_names) -> ShardRouter:
    """The server's routing default: single shard direct, else hashed."""
    names = _require_shards(shard_names)
    if len(names) == 1:
        return SingleShardRouter(names[0])
    return HashRouter(names)
