"""The three workloads, each in an end-to-end and a traced form.

``paper_calls``
    One caller, closed loop: ``AdsalaRuntime.run`` call by call on the
    simulated Gadi node, every shape fresh from the <= 100 MB domain.
    Loads the decision path (cache miss -> table fallback -> plan pass)
    and the simulator; bypasses ``serve`` and ``fleet``.
``hot_burst``
    One client, closed loop of saturated ``GemmServer.submit_many``
    bursts over the simulator backend, shapes from a small hot set of
    lattice points the cache fully holds.  Loads ``machine``, engine
    dispatch and ``serve``; the prediction tiers answer from the cache.
``fleet_stream``
    A 1-worker ``FleetServer`` over the instant CPU-bound backend:
    open-loop Poisson staircases on a fixed rate ladder between
    saturated bursts, shapes uniform over more lattice points than the cache
    holds.  Loads the pipe hop, window-closed micro-batching and the
    decision table; ``machine`` does nothing.

Every workload runs in short rounds, each rescaled to the nominal host
speed (see ``common.Round``), and checks every served thread selection
against the bundle's object-path predictor.
"""

from __future__ import annotations

import asyncio
import bisect
import itertools
import os
import pickle
import shutil
import statistics
import time
from collections import Counter

import numpy as np

from perfbench import ledger
from perfbench.common import (CACHE_SIZE, LADDER_START_SHARE,
                              LATENCY_LIMIT_MS, LATENCY_RATE, MACHINE,
                              MAX_BATCH, MAX_WAIT_MS, RATE_LADDER,
                              REF_NOMINAL_S, Round, SelectionOracle,
                              ShapeStream, SimQuality, host_reference_s,
                              host_spin_ms, in_domain_lattice, peak_rss_mb,
                              percentile, pooled, quiet_gc, rate,
                              systematic_sample, workload_rng)
from perfbench.recipe import simulator, timed_setup

PAPER_ROUND_CALLS = 64     # calls per paper_calls round
PAPER_EVAL_CALLS = 1000    # calls whose simulated times are scored
HOT_SET = 256              # distinct hot shapes (the cache holds 256)
HOT_BURST = 32             # requests per hot_burst submit_many
FLEET_POINTS = 512         # distinct fleet_stream shapes (> cache)
FLEET_BURST = 256          # requests per saturated fleet burst
FLEET_MAX_QUEUE = 2048     # worker queue bound; the front admits twice it
EPISODE_S = 0.25           # one open-loop episode at one rung
BURST_SHARE = 0.25         # share of a fleet_stream run spent on bursts
TRACED_EPISODES = 4        # open-loop episodes behind the batch figures

WORKLOADS = ("paper_calls", "hot_burst", "fleet_stream")


class Outcome:
    """What one run reports: counts, checks, metrics, a text report."""

    def __init__(self, name: str):
        self.name = name
        self.attempted = 0
        self.served = 0
        self.failed = 0
        self.mismatches = 0
        self.checks = []        # (description, ok)
        self.errors = []        # the first few request failures, as text
        self.metrics = {}
        self.lines = []

    def check(self, description: str, ok: bool) -> None:
        self.checks.append((description, bool(ok)))

    @property
    def correct(self) -> bool:
        return self.mismatches == 0 and all(ok for _, ok in self.checks)

    def failure(self, exc: BaseException) -> None:
        """Keep the first few failures so the report can show them."""
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    def tally(self, attempted: int, served: int, failed: int) -> None:
        self.attempted += attempted
        self.served += served
        self.failed += failed


# -- shared pieces ---------------------------------------------------------
def _specs(shapes):
    from repro import GemmSpec

    return [GemmSpec(*shape) for shape in shapes]


def _latency_metrics(out: Outcome, seconds: list) -> None:
    """The gated p50, and the p90 for the report only: on a shared host
    the tail of a burst's latency follows the neighbours' load."""
    out.metrics["latency_ms_p50"] = percentile(seconds, 50) * 1e3
    p90_ms = percentile(seconds, 90) * 1e3
    out.lines.append(f"[{out.name}] latency p90 {p90_ms:.2f} ms "
                     f"(reported, not gated)")


def _decide_metrics(out: Outcome, seconds: list) -> None:
    out.metrics["decide_us_p50"] = percentile(seconds, 50) * 1e6
    out.metrics["decide_us_p90"] = percentile(seconds, 90) * 1e6


def _closed_loop_rates(out: Outcome, capacity: float) -> None:
    """A closed loop has no arrival rate, so no rate ladder: its
    goodput_rps is its capacity_rps, printed only because every run
    reports every metric."""
    out.metrics["capacity_rps"] = capacity
    out.metrics["goodput_rps"] = capacity


def _quality_metrics(out: Outcome, bundle, served_items,
                     overhead_s: float) -> None:
    """Simulated-time ratios over ``((shape, threads), count)`` items."""
    quality = SimQuality(simulator(), bundle.config.thread_grid)
    for (shape, threads), count in served_items:
        quality.add(shape, threads, count)
    out.metrics["sim_speedup"] = quality.speedup
    out.metrics["regret"] = quality.regret
    out.metrics["net_speedup"] = quality.net_speedup(overhead_s)


async def _interleave(deadline: float, passes: list,
                      swap: bool = False) -> dict:
    """Run the passes round-robin, at least once, until the deadline;
    returns the rounds of each pass, rescaled to the nominal host speed
    by the reference spins taken between them.

    With ``swap`` the first two passes trade places every other cycle.
    The first pass after the rest of a cycle runs on colder caches
    (~15% slower on a served pass), so two passes that are compared
    with each other must take turns in that place.
    """
    rounds = {name: [] for name, _ in passes}
    before = host_reference_s()
    for cycle in itertools.count():
        order = list(passes)
        if swap and cycle % 2:
            order[0], order[1] = order[1], order[0]
        for name, fn in order:
            round_ = await fn()
            before = _rescale(round_, before)
            rounds[name].append(round_)
        if time.perf_counter() >= deadline:
            return rounds


def _rescale(round_, before: float) -> float:
    """Rescale a round by the mean of the references on either side of
    it; returns the reference after it, which is the next round's
    before."""
    after = host_reference_s()
    if round_ is not None:
        round_.rescale(2.0 * REF_NOMINAL_S / (before + after))
    return after


def _decision_probe(service, shapes) -> Round:
    """Time the decisions a burst needs, on the path serving takes.

    A served micro-batch decides its threads with one
    ``predict_threads_batch`` call, so the probe times
    ``GemmService.predict_batch`` over the burst in ``MAX_BATCH``
    chunks; each sample is one chunk's time per request.
    """
    specs = _specs(shapes)
    samples, total = [], 0.0
    for start in range(0, len(specs), MAX_BATCH):
        chunk = specs[start:start + MAX_BATCH]
        t0 = time.perf_counter()
        service.predict_batch(chunk)
        elapsed = time.perf_counter() - t0
        total += elapsed
        samples.append(elapsed / len(chunk))
    return Round(len(specs), total, samples)


def _note_rounds(out: Outcome, what: str, rounds: list) -> None:
    """State the sample behind a figure and the raw speed."""
    samples = sum(len(r.samples or ()) for r in rounds)
    raw = sum(r.wall_s / r.scale for r in rounds) / sum(r.n for r in rounds)
    scaled = sum(r.wall_s for r in rounds) / sum(r.n for r in rounds)
    scales = sorted(r.scale for r in rounds)
    out.lines.append(
        f"[{out.name}] {what}: {samples} samples from {len(rounds)} "
        f"rounds; {raw * 1e6:.2f} us/req raw, "
        f"{scaled * 1e6:.2f} us/req at the nominal host speed (median "
        f"scale {scales[len(scales) // 2]:.3f})")


def _span_parts(rounds: list) -> dict:
    """µs/req per part: the median over the traced rounds."""
    names = {part for r in rounds for part in r.samples}
    return {part: statistics.median(
        r.samples.get(part, 0.0) * 1e6 / r.n for r in rounds)
        for part in sorted(names)}


def _us_per_req(rounds: list) -> float:
    """A pass's µs/req in the ledger: the median over its rounds, so a
    stall in one round does not move it."""
    return statistics.median(r.wall_s * 1e6 / r.n for r in rounds)


async def _traced(recorder: ledger.SpanRecorder, instrument, work) -> Round:
    """One round with spans on; the round's samples are its span parts."""
    recorder.reset()
    instrument(recorder)
    try:
        round_ = await work()
    finally:
        recorder.restore()
    round_.samples = dict(recorder.self_s)
    return round_


def _instrument_service(recorder: ledger.SpanRecorder, service) -> None:
    """Spans at every layer boundary below a ``GemmService``."""
    recorder.wrap(service, "run", "engine.service")
    recorder.wrap(service, "run_batch", "engine.service")
    recorder.wrap(service.dispatcher, "timed_run", "engine.dispatch")
    predictor = service.predictor
    recorder.wrap(predictor, "predict_threads", "core.select")
    recorder.wrap(predictor, "predict_threads_batch", "core.select")
    recorder.wrap(predictor, "predicted_runtimes", "compile.plan")
    recorder.wrap(predictor, "predicted_runtimes_batch", "compile.plan")
    recorder.wrap(predictor.feature_builder, "build_for_grid",
                  "core.features")
    recorder.wrap(predictor.feature_builder, "build_for_batch",
                  "core.features")
    for method in ("get", "put", "get_many", "put_many"):
        recorder.wrap(predictor.cache, method, "engine.cache")
    if predictor.table is not None:
        recorder.wrap_member(predictor, "table", {
            "lookup_ex": "compile.table",
            "lookup_batch_ex": "compile.table"})
    backend = service.dispatcher.default  # engine adapter over the machine
    recorder.wrap(backend, "timed_run", "engine.dispatch")
    recorder.wrap(backend.machine, "timed_run", "machine.timed_run")


class _Counters:
    """Deltas of a predictor's decision counters over a phase."""

    FIELDS = ("n_model_passes", "n_table_hits", "n_table_fallbacks")

    def __init__(self, predictor):
        self.predictor = predictor
        self.start = self._read()

    def _read(self) -> dict:
        p = self.predictor
        out = {f: getattr(p, f) for f in self.FIELDS}
        out["cache_hits"] = p.cache.hits
        out["cache_misses"] = p.cache.misses
        return out

    def delta(self) -> dict:
        now = self._read()
        return {k: now[k] - self.start[k] for k in now}


def _fractions(delta: dict) -> tuple:
    lookups = delta["cache_hits"] + delta["cache_misses"]
    hit_frac = delta["cache_hits"] / lookups if lookups else 0.0
    table = delta["n_table_hits"] + delta["n_table_fallbacks"]
    fallback_frac = delta["n_table_fallbacks"] / table if table else 0.0
    return hit_frac, fallback_frac


def _ledger_metrics(out: Outcome, parts_us: dict, differenced: dict,
                    end_to_end_us: float, traced_us: float, plain_us: float,
                    requests: int, delta: dict) -> None:
    """Per-layer metrics and the ledger table from a traced run.

    ``parts_us`` are span self times (µs/req) of the traced deepest
    in-process pass; ``traced_us`` and ``plain_us`` that pass's wall time
    traced and untraced, on the same inputs.  ``differenced`` are the
    layers measured as differences of untraced passes (µs/req), which
    telescope from ``plain_us`` up to the untraced ``end_to_end_us``.
    """
    rows = dict(parts_us)
    rows.update(differenced)
    split = ledger.layer_split(rows)
    total = sum(rows.values())
    closure = ledger.closure_error(total, end_to_end_us)
    coverage = sum(parts_us.values()) / traced_us
    overhead = traced_us / plain_us - 1.0
    out.lines.append(ledger.render_table(
        f"[{out.name}] request ledger ({requests} traced requests; "
        f"end-to-end untraced)", rows, end_to_end_us))
    out.lines.append(ledger.render_table(
        f"[{out.name}] per layer", split, end_to_end_us))
    out.lines.append(
        f"[{out.name}] deepest pass: {traced_us:.2f} us/req traced, "
        f"{plain_us:.2f} us/req untraced (tracing adds {overhead:.1%}); "
        f"spans cover {coverage:.1%} of the traced pass")
    out.check(f"ledger closes on the untraced end-to-end figure within "
              f"{ledger.CLOSURE_TOLERANCE:.0%} (error {closure:.1%})",
              closure <= ledger.CLOSURE_TOLERANCE)
    for name, value in differenced.items():
        out.check(f"{name} is not negative ({value:.2f} us/req)",
                  value >= 0.0)
    decide = sum(parts_us.get(p, 0.0) for p in (
        "core.select", "core.features", "engine.cache", "compile.table",
        "compile.plan"))
    hit_frac, fallback_frac = _fractions(delta)
    m = out.metrics
    m["ledger.e2e_us_per_req"] = end_to_end_us
    m["ledger.closure_err"] = closure
    m["ledger.span_coverage"] = coverage
    for layer, value in split.items():
        m[f"layer.{layer}_us_per_req"] = value
    m["trace.overhead_frac"] = overhead
    m["engine.decide_us"] = decide
    m["engine.cache_us"] = parts_us.get("engine.cache", 0.0)
    m["engine.cache_hit_frac"] = hit_frac
    m["compile.table_us"] = parts_us.get("compile.table", 0.0)
    m["compile.table_fallback_frac"] = fallback_frac
    m["compile.plan_us"] = parts_us.get("compile.plan", 0.0)
    m["core.select_us"] = decide - (m["engine.cache_us"]
                                    + m["compile.table_us"]
                                    + m["compile.plan_us"])
    m["machine.timed_run_us"] = parts_us.get("machine.timed_run", 0.0)
    m["engine.dispatch_us"] = (parts_us.get("engine.service", 0.0)
                               + parts_us.get("engine.dispatch", 0.0))
    m["engine.run_batch_us_per_req"] = (decide + m["engine.dispatch_us"]
                                        + m["machine.timed_run_us"])
    m["serve.overhead_us_per_req"] = differenced.get("serve.overhead", 0.0)
    m["fleet.pickle_us_per_req"] = differenced.get("fleet.pickle", 0.0)
    m["fleet.pipe_us_per_req"] = differenced.get("fleet.pipe", 0.0)
    m["fleet.hop_us_per_req"] = (m["fleet.pickle_us_per_req"]
                                 + m["fleet.pipe_us_per_req"])


def _setup_metrics(out: Outcome, setup: dict, trace: bool) -> None:
    if not trace:
        out.metrics["setup_s"] = setup["setup_s"]
        return
    rows = {k: setup.get(k, 0.0) for k in (
        "train.gather_s", "train.tune_s", "compile.plan_build_s",
        "compile.table_build_s")}
    spawn = setup.get("fleet.spawn_s", 0.0)
    rows["serve.build_s"] = setup["build_s"] - spawn
    rows["fleet.spawn_s"] = spawn
    out.lines.append(ledger.render_table(
        f"[{out.name}] set-up ledger (median of repetitions)",
        rows, setup["setup_s"], unit="s"))
    for name in ("train.gather_s", "train.tune_s", "compile.plan_build_s",
                 "compile.table_build_s", "fleet.spawn_s"):
        out.metrics[name] = rows[name]


# -- paper_calls -----------------------------------------------------------
async def paper_calls(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro import AdsalaRuntime

    out = Outcome("paper_calls")

    async def build(bundle, timings):
        machine = simulator()
        runtime = AdsalaRuntime(bundle, machine, cache_size=CACHE_SIZE)

        async def close():
            runtime.close()
        return (runtime, machine), close

    (runtime, machine), close, bundle, setup = await timed_setup(build)
    _setup_metrics(out, setup, trace)
    stream = ShapeStream(seed)
    clock = ledger.SpanRecorder()  # the simulator's time inside each call
    clock.wrap(machine, "timed_run", "machine.timed_run")
    counters = _Counters(runtime.service.predictor)
    served = Counter()  # (shape, threads) -> requests
    current = {}

    async def calls(on=runtime, fresh: bool = True) -> Round:
        """The next 64 fresh shapes, call by call (or the last 64 again,
        on a runtime that has not seen them)."""
        if fresh:
            current["batch"] = stream.take(PAPER_ROUND_CALLS)
        batch = current["batch"]
        specs = _specs(batch)
        samples = []
        failed = 0
        t_round = time.perf_counter()
        for shape, spec in zip(batch, specs):
            m0 = clock.total_s["machine.timed_run"]
            t0 = time.perf_counter()
            try:
                record = on.run(spec)
            except Exception as exc:  # noqa: BLE001 - counted and reported
                out.failure(exc)
                failed += 1
                continue
            elapsed = time.perf_counter() - t0
            machine_s = clock.total_s["machine.timed_run"] - m0
            samples.append((elapsed, elapsed - machine_s))
            served[(shape, int(record.n_threads))] += 1
        wall = time.perf_counter() - t_round
        out.tally(len(batch), len(batch) - failed, failed)
        return Round(len(batch) - failed, wall, samples)

    recorder = ledger.SpanRecorder()

    def instrument(rec):
        rec.wrap(runtime, "run", "core.facade")
        _instrument_service(rec, runtime.service)

    deadline = time.perf_counter() + seconds
    with quiet_gc():
        if trace:
            # The untraced pass calls the traced pass's shapes on a twin
            # runtime with its own cache, so it too misses on every call.
            twin = AdsalaRuntime(bundle, simulator(), cache_size=CACHE_SIZE)
            rounds = await _interleave(deadline, [
                ("traced", lambda: _traced(recorder, instrument, calls)),
                ("plain", lambda: calls(twin, fresh=False))])
            twin.close()
        else:
            rounds = await _interleave(deadline, [("calls", calls)])
    clock.restore()
    delta = counters.delta()

    out.mismatches = SelectionOracle(bundle).mismatches(served)
    hit_frac, fallback_frac = _fractions(delta)
    out.check("every shape is fresh: cache hit fraction is 0",
              hit_frac == 0.0)
    out.lines.append(f"[paper_calls] table fallback fraction "
                     f"{fallback_frac:.4f}, model passes "
                     f"{delta['n_model_passes']}")

    if trace:
        traced, plain = rounds["traced"], rounds["plain"]
        plain_us = _us_per_req(plain)
        _ledger_metrics(out, _span_parts(traced), {}, plain_us,
                        _us_per_req(traced), plain_us,
                        sum(r.n for r in traced), delta)
        out.metrics["core.model_passes"] = delta["n_model_passes"]
        _no_server_metrics(out)
    else:
        rounds = rounds["calls"]
        _note_rounds(out, "calls", rounds)
        samples = pooled(rounds)
        decides = [s[1] for s in samples]
        _latency_metrics(out, [s[0] for s in samples])
        _decide_metrics(out, decides)
        _closed_loop_rates(out, rate(rounds))
        # Every shape is fresh, so the first entries are the first calls.
        _quality_metrics(out, bundle,
                         itertools.islice(served.items(), PAPER_EVAL_CALLS),
                         float(np.mean(decides)))
    await close()
    return out


# -- hot_burst -------------------------------------------------------------
async def hot_burst(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro import GemmServer, GemmService

    out = Outcome("hot_burst")

    async def build(bundle, timings):
        machine = simulator()
        service = GemmService.from_bundle(bundle, machine,
                                          cache_size=CACHE_SIZE)
        server = GemmServer(service, max_batch=MAX_BATCH,
                            max_wait_ms=MAX_WAIT_MS, max_queue=64,
                            max_pending=2 * HOT_SET, fair_share=None)
        await server.start()

        async def close():
            await server.close()
            service.close()
        return (service, server, machine), close

    (service, server, machine), close, bundle, setup = \
        await timed_setup(build)
    _setup_metrics(out, setup, trace)
    rng = workload_rng(seed, "hot_burst")
    hot = systematic_sample(in_domain_lattice(bundle.table, machine),
                            HOT_SET, rng)

    def bursts():
        while True:
            order = rng.permutation(len(hot))
            for start in range(0, len(order), HOT_BURST):
                yield [hot[i] for i in order[start:start + HOT_BURST]]

    source = bursts()
    clock = ledger.SpanRecorder()  # the simulator's time inside a burst
    clock.wrap(machine, "timed_run", "machine.timed_run")
    predictor = service.predictor
    served = Counter()  # (shape, threads) -> requests

    def record(batch, records) -> None:
        served.update((shape, int(rec.n_threads))
                      for shape, rec in zip(batch, records))

    # Warm-up: one pass over the hot set fills the cache.
    record(hot, await server.submit_many(_specs(hot)))
    out.tally(len(hot), len(hot), 0)
    counters = _Counters(predictor)
    current = {}

    async def burst(batch=None) -> Round:
        """One ``submit_many`` of the next burst (or of ``batch``)."""
        batch = batch or next(source)
        current["batch"] = batch
        specs = _specs(batch)
        m0 = clock.total_s["machine.timed_run"]
        t0 = time.perf_counter()
        try:
            records = await server.submit_many(specs)
        except Exception as exc:  # noqa: BLE001 - counted and reported
            out.failure(exc)
            out.tally(len(batch), 0, len(batch))
            return Round(0, time.perf_counter() - t0, [])
        wall = time.perf_counter() - t0
        out.tally(len(batch), len(records), 0)
        record(batch, records)
        return Round(len(batch), wall,
                     [(wall, clock.total_s["machine.timed_run"] - m0)])

    async def probe() -> Round:
        return _decision_probe(service, current["batch"])

    async def prefix() -> Round:
        """The current burst through ``run_batch``, without the server."""
        return _run_batches(out, service, current["batch"], record)

    async def served_then_next() -> Round:
        """The current burst through the server, then draw the next."""
        round_ = await burst(current["batch"])
        current["batch"] = next(source)
        return round_

    recorder = ledger.SpanRecorder()

    def instrument(rec):
        _instrument_service(rec, service)

    deadline = time.perf_counter() + seconds
    with quiet_gc():
        if trace:
            # Every pass of a cycle serves the same burst; the cache holds
            # it, so each pass finds the same state.
            current["batch"] = next(source)
            rounds = await _interleave(deadline, [
                ("prefix", lambda: _traced(recorder, instrument, prefix)),
                ("prefix_plain", prefix),
                ("server", served_then_next)], swap=True)
        else:
            rounds = await _interleave(deadline, [
                ("burst", burst), ("probe", probe)])
    clock.restore()
    delta = counters.delta()
    stats = server.stats()

    out.mismatches = SelectionOracle(bundle).mismatches(served)
    out.check("hot set served from the cache: 0 model passes",
              stats["model_passes"] == 0)
    out.check("cache read-only after warm-up: hit fraction is 1",
              _fractions(delta)[0] == 1.0)

    if trace:
        prefix_us = _us_per_req(rounds["prefix_plain"])
        server_us = _us_per_req(rounds["server"])
        _ledger_metrics(out, _span_parts(rounds["prefix"]),
                        {"serve.overhead": server_us - prefix_us},
                        server_us, _us_per_req(rounds["prefix"]), prefix_us,
                        sum(r.n for r in rounds["prefix"]), delta)
        _no_open_loop_metrics(out)
        out.metrics["core.model_passes"] = stats["model_passes"]
        out.metrics["serve.batch_size_mean"] = stats["mean_batch_size"]
        out.metrics["serve.queue_wait_ms_p50"] = \
            stats["queue_wait_ms"]["p50_ms"]
    else:
        bursts_ = rounds["burst"]
        _note_rounds(out, "bursts", bursts_)
        _closed_loop_rates(out, rate(bursts_))
        _latency_metrics(out, [s[0] for s in pooled(bursts_)])
        _note_rounds(out, "decide", rounds["probe"])
        _decide_metrics(out, pooled(rounds["probe"]))
        overhead = np.mean([(w - m) / HOT_BURST for w, m in pooled(bursts_)])
        _quality_metrics(out, bundle, served.items(), float(overhead))
    await close()
    return out


def _run_batches(out: Outcome, service, batch, record) -> Round:
    """``batch`` through ``GemmService.run_batch`` in ``MAX_BATCH``
    chunks, the way the server's micro-batches reach the service."""
    specs = _specs(batch)
    records = []
    t0 = time.perf_counter()
    for start in range(0, len(specs), MAX_BATCH):
        records += service.run_batch(specs[start:start + MAX_BATCH])
    wall = time.perf_counter() - t0
    out.tally(len(batch), len(records), len(batch) - len(records))
    record(batch, records)
    return Round(len(records), wall)


# -- fleet_stream ----------------------------------------------------------
def _worker_spec(registry_root: str):
    from repro.fleet import WorkerSpec

    return WorkerSpec(
        name="worker-0", registry_root=registry_root, machine=MACHINE,
        routines=("gemm",), backend="repro.bench.loadgen:cpu_bound_backend",
        backend_args=(("iters", 0),), cache_size=CACHE_SIZE,
        max_batch=MAX_BATCH, max_wait_ms=MAX_WAIT_MS,
        # Room for ~2 s of backlog at the knee, so that an episode past
        # it (or a host stall) misses the latency limit instead of
        # having requests refused.
        max_queue=FLEET_MAX_QUEUE)


async def _open_loop(fleet, shapes, rate_hz: float, duration: float,
                     rng) -> dict:
    """Poisson arrivals at ``rate_hz``; latency from each due time."""
    specs = _specs(shapes)
    gaps = rng.exponential(1.0 / rate_hz, size=int(rate_hz * duration * 2))
    due = np.cumsum(gaps)
    due = due[due < duration]
    loop = asyncio.get_running_loop()
    t0 = loop.time() + 0.005
    latencies, lateness, records, errors = [], [], [], []

    async def one(spec, due_at):
        try:
            rec = await fleet.submit(spec)
        except Exception as exc:  # noqa: BLE001 - refused or failed: counted
            errors.append(exc)
            return
        latencies.append(loop.time() - due_at)
        records.append((spec.dims, int(rec.n_threads)))

    tasks = []
    for i, offset in enumerate(due):
        due_at = t0 + float(offset)
        delay = due_at - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness.append(loop.time() - due_at)
        tasks.append(asyncio.ensure_future(
            one(specs[i % len(specs)], due_at)))
    await asyncio.gather(*tasks)
    drain = loop.time() - (t0 + float(due[-1]))
    return {"rate": rate_hz, "n": len(due), "failed": len(errors),
            "errors": errors, "latencies": latencies, "lateness": lateness,
            "records": records, "elapsed": loop.time() - t0,
            "drain_s": drain}


def _lateness_ms(episodes: list) -> float:
    return percentile([s for e in episodes for s in e["lateness"]], 99) * 1e3


def _meets_limit(episode: dict) -> bool:
    """No failure, p99 within the limit and no growing backlog (the last
    request drained within the limit)."""
    lat = episode["latencies"]
    return (episode["failed"] == 0 and bool(lat)
            and percentile(lat, 99) * 1e3 <= LATENCY_LIMIT_MS
            and episode["drain_s"] * 1e3 <= LATENCY_LIMIT_MS)


def _no_server_metrics(out: Outcome) -> None:
    """Per-layer figures of the layers a closed in-process loop bypasses."""
    out.metrics["serve.batch_size_mean"] = 0.0
    out.metrics["serve.queue_wait_ms_p50"] = 0.0
    _no_open_loop_metrics(out)


def _no_open_loop_metrics(out: Outcome) -> None:
    for name in ("lateness_ms_p99", "latency_ms_p50", "latency_ms_p99"):
        out.metrics[f"loadgen.{name}"] = 0.0


async def fleet_stream(seed: int, seconds: float, trace: bool,
                       workdir: str) -> Outcome:
    from repro.fleet import FleetServer
    from repro.train import ModelRegistry

    out = Outcome("fleet_stream")
    roots = []

    async def build(bundle, timings):
        root = os.path.join(workdir, f"registry-{len(roots)}")
        roots.append(root)
        ModelRegistry(root).publish(bundle, routine="gemm", machine=MACHINE)
        fleet = FleetServer([_worker_spec(root)], router="least_loaded")
        t0 = time.perf_counter()
        await fleet.start()
        timings["fleet.spawn_s"] = time.perf_counter() - t0

        async def close():
            await fleet.close()
        return fleet, close

    fleet, close, bundle, setup = await timed_setup(build)
    try:
        _setup_metrics(out, setup, trace)
        rng = workload_rng(seed, "fleet_stream")
        points = systematic_sample(
            in_domain_lattice(bundle.table, simulator()), FLEET_POINTS, rng)

        def draw(n):
            return [points[i] for i in rng.integers(0, len(points), size=n)]

        spec = _worker_spec(roots[-1])

        def twin():
            """An in-process copy of the worker's service and server."""
            service, _ = spec.build_service()
            return service, spec.build_server(service)

        served = Counter()  # (shape, threads) -> requests

        def record(batch, records) -> None:
            served.update((shape, int(rec.n_threads))
                          for shape, rec in zip(batch, records))

        async def fleet_burst(batch) -> Round:
            t0 = time.perf_counter()
            try:
                records = await fleet.submit_many(_specs(batch))
            except Exception as exc:  # noqa: BLE001 - counted and reported
                out.failure(exc)
                out.tally(len(batch), 0, len(batch))
                return Round(0, time.perf_counter() - t0)
            wall = time.perf_counter() - t0
            out.tally(len(batch), len(records), 0)
            record(batch, records)
            return Round(len(batch), wall, [wall])

        deadline = time.perf_counter() + seconds
        with quiet_gc():
            measure = _fleet_traced if trace else _fleet_e2e
            await measure(out, fleet, twin, draw, fleet_burst, deadline,
                          rng, record, served)
        worker = (await fleet.worker_stats())["worker-0"]["server"]
        out.check("table answers every miss: 0 model passes in the worker",
                  worker["model_passes"] == 0)
        out.mismatches = SelectionOracle(bundle).mismatches(served)
        if not trace:
            _quality_metrics(out, bundle, served.items(),
                             1.0 / out.metrics["capacity_rps"])
    finally:
        await close()
        for root in roots:
            shutil.rmtree(root, ignore_errors=True)
    return out


async def _episode(out, fleet, draw, rng, rate_hz: float, served) -> dict:
    """One open-loop episode at ``rate_hz``, counted and recorded."""
    shapes = draw(int(rate_hz * EPISODE_S * 2) + 8)
    episode = await _open_loop(fleet, shapes, rate_hz, EPISODE_S, rng)
    out.tally(episode["n"], episode["n"] - episode["failed"],
              episode["failed"])
    for exc in episode["errors"]:
        out.failure(exc)
    served.update(episode["records"])
    return episode


async def _fleet_e2e(out, fleet, twin, draw, fleet_burst, deadline, rng,
                     record, served) -> None:
    await fleet_burst(draw(FLEET_BURST))  # warm-up
    probe_service, _ = twin()
    current = {}

    async def burst() -> Round:
        current["batch"] = draw(FLEET_BURST)
        return await fleet_burst(current["batch"])

    async def probe() -> Round:
        return _decision_probe(probe_service, current["batch"])

    # First the saturated bursts, then the staircase; an overloaded
    # rung leaves the worker busy, which would slow a burst after it.
    phase = time.perf_counter() + BURST_SHARE * (deadline
                                                 - time.perf_counter())
    rounds = await _interleave(phase, [("burst", burst), ("probe", probe)])
    bursts = rounds["burst"]
    _note_rounds(out, "capacity", bursts)
    out.metrics["capacity_rps"] = rate(bursts)
    _latency_metrics(out, pooled(bursts))
    _note_rounds(out, "decide", rounds["probe"])
    _decide_metrics(out, pooled(rounds["probe"]))
    probe_service.close()

    # goodput_rps: a 1-up-1-down staircase on the ladder.  After an
    # episode that meets the limit the next one runs a rung higher,
    # after one that misses it a rung lower, so the episodes settle
    # around the rate at which the fleet meets the limit half the time.
    state = {"rung": max(0, bisect.bisect_right(
        RATE_LADDER, LADDER_START_SHARE * out.metrics["capacity_rps"]) - 1),
        "move": 0, "reversed": False}
    episodes, settled = [], []

    async def step() -> Round:
        rung = state["rung"]
        episode = await _episode(out, fleet, draw, rng, RATE_LADDER[rung],
                                 served)
        episodes.append(episode)
        move = 1 if _meets_limit(episode) else -1
        state["rung"] = min(max(rung + move, 0), len(RATE_LADDER) - 1)
        # The walk to the first change of direction is the burn-in.
        state["reversed"] |= state["move"] == -move
        state["move"] = move
        settled.append(state["reversed"])
        # The round is the rung: its rate, rescaled like every round.
        return Round(1, 1.0 / RATE_LADDER[rung])

    steps = (await _interleave(deadline, [("step", step)]))["step"]
    kept = [r for r, ok in zip(steps, settled) if ok] or steps
    out.metrics["goodput_rps"] = float(np.mean([r.n / r.wall_s
                                                for r in kept]))
    rates = ", ".join(f"{e['rate']:.0f}" for e in episodes)
    out.lines.append(
        f"[fleet_stream] staircase on the ladder ({RATE_LADDER[0]:.0f} "
        f"req/s x 1.1^k, {EPISODE_S} s episodes, p99 limit "
        f"{LATENCY_LIMIT_MS:.0f} ms): {rates} req/s, "
        f"{len(kept)} settled; failed="
        f"{sum(e['failed'] for e in episodes)}, generator late p99 "
        f"{_lateness_ms(episodes):.2f} ms")


async def _fleet_traced(out, fleet, twin, draw, fleet_burst, deadline, rng,
                        record, served) -> None:
    from repro.fleet.transport import ResultFrame, SlabFrame, chunk_slots

    # Window-closed batching under arrivals: open-loop episodes at the
    # named rate, then the worker's batch and queue-wait statistics.
    await fleet_burst(draw(FLEET_BURST))  # warm-up
    before = (await fleet.worker_stats())["worker-0"]["server"]
    episodes = [await _episode(out, fleet, draw, rng, LATENCY_RATE, served)
                for _ in range(TRACED_EPISODES)]
    after = (await fleet.worker_stats())["worker-0"]["server"]
    batches = after["batches"] - before["batches"]
    slots = (after["batches"] * after["mean_batch_size"]
             - before["batches"] * before["mean_batch_size"])
    latencies = [s for e in episodes for s in e["latencies"]]
    m = out.metrics
    m["serve.batch_size_mean"] = slots / batches if batches else 0.0
    m["serve.queue_wait_ms_p50"] = after["queue_wait_ms"]["p50_ms"]
    m["loadgen.lateness_ms_p99"] = _lateness_ms(episodes)
    m["loadgen.latency_ms_p50"] = percentile(latencies, 50) * 1e3
    m["loadgen.latency_ms_p99"] = percentile(latencies, 99) * 1e3

    # Passes over the same bursts, each in-process one on its own copy
    # of the worker's service so that it sees the cache state the worker
    # sees.  Every pass's selections go to the oracle.
    prefix_service, _ = twin()
    plain_service, _ = twin()
    server_service, server = twin()
    await server.start()
    recorder = ledger.SpanRecorder()
    counters = _Counters(prefix_service.predictor)
    current = {"batch": draw(FLEET_BURST)}
    pickle_us = []  # per round

    async def prefix(service) -> Round:
        return _run_batches(out, service, current["batch"], record)

    async def on_server() -> Round:
        batch = current["batch"]
        t0 = time.perf_counter()
        records = await server.submit_many(_specs(batch))
        wall = time.perf_counter() - t0
        out.tally(len(batch), len(records), len(batch) - len(records))
        record(batch, records)
        current["records"] = records
        return Round(len(records), wall)

    async def hop() -> Round:
        specs = _specs(current["batch"])
        slots = list(range(len(specs)))
        t0 = time.perf_counter()
        for chunk in chunk_slots(slots, MAX_BATCH):
            frame = SlabFrame(0, tuple(specs[i] for i in chunk))
            pickle.loads(pickle.dumps(frame))
            reply = ResultFrame(0, tuple(current["records"][i]
                                         for i in chunk))
            pickle.loads(pickle.dumps(reply))
        pickle_us.append((time.perf_counter() - t0) * 1e6 / len(specs))
        round_ = await fleet_burst(current["batch"])
        current["batch"] = draw(FLEET_BURST)  # for the next cycle
        return round_

    def instrument(rec):
        _instrument_service(rec, prefix_service)

    rounds = await _interleave(deadline, [
        ("prefix", lambda: _traced(recorder, instrument,
                                   lambda: prefix(prefix_service))),
        ("prefix_plain", lambda: prefix(plain_service)),
        ("server", on_server),
        ("fleet", hop)], swap=True)
    await server.close()
    delta = counters.delta()
    for service in (prefix_service, plain_service, server_service):
        service.close()

    prefix_us = _us_per_req(rounds["prefix_plain"])
    server_us = _us_per_req(rounds["server"])
    fleet_us = _us_per_req(rounds["fleet"])
    pickle_med = statistics.median(pickle_us)
    differenced = {
        "serve.overhead": server_us - prefix_us,
        "fleet.pickle": pickle_med,
        "fleet.pipe": fleet_us - server_us - pickle_med,
    }
    _ledger_metrics(out, _span_parts(rounds["prefix"]), differenced,
                    fleet_us, _us_per_req(rounds["prefix"]), prefix_us,
                    sum(r.n for r in rounds["prefix"]), delta)
    out.metrics["core.model_passes"] = delta["n_model_passes"]


async def run(name: str, seed: int, seconds: float, trace: bool,
              workdir: str) -> Outcome:
    """One workload, end to end or traced, with host-speed markers."""
    spin_start = host_spin_ms()
    if name == "paper_calls":
        out = await paper_calls(seed, seconds, trace)
    elif name == "hot_burst":
        out = await hot_burst(seed, seconds, trace)
    elif name == "fleet_stream":
        out = await fleet_stream(seed, seconds, trace, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    spin_end = host_spin_ms()
    out.lines.append(f"[{name}] host spin {spin_start:.1f} ms at start, "
                     f"{spin_end:.1f} ms at end")
    if trace:
        out.metrics["host.spin_ms"] = (spin_start + spin_end) / 2.0
    else:
        out.metrics["peak_rss_mb"] = peak_rss_mb()
    return out
