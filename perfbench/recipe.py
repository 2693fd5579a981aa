"""The shared installation recipe and the timed set-up chain.

Every workload installs ADSALA the same way — gather -> train -> select
on the simulated Gadi node, then compile the plan and the decision
table — so ``setup_s`` compares across workloads.  Only the serving
stack built on top differs.
"""

from __future__ import annotations

import statistics
import time

from perfbench.common import (CANDIDATES, MACHINE, MEMORY_CAP_MB, RECIPE,
                              REF_NOMINAL_S, SETUP_REPEATS, TRAIN_SEED,
                              host_reference_s)

SETUP_REFS = 5  # reference loops on either side of a set-up


def simulator(seed: int = TRAIN_SEED):
    from repro import MachineSimulator, machine_by_name

    return MachineSimulator(machine_by_name(MACHINE), seed=seed)


def install(timings: dict):
    """Train and compile one bundle; stage wall times go to ``timings``."""
    from repro import InstallationWorkflow
    from repro.ml.registry import candidate_models

    candidates = [c for c in candidate_models(budget="fast",
                                              random_state=TRAIN_SEED)
                  if c.name in CANDIDATES]
    workflow = InstallationWorkflow(
        simulator(), memory_cap_bytes=MEMORY_CAP_MB * 1024 * 1024,
        candidates=candidates, seed=TRAIN_SEED, **RECIPE)
    bundle = workflow.run()
    stages = workflow.last_pipeline_.last_run_.durations
    timings["train.gather_s"] = stages["gather"]
    timings["train.tune_s"] = sum(v for k, v in stages.items()
                                  if k != "gather")
    t0 = time.perf_counter()
    bundle.compile()
    timings["compile.plan_build_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    bundle.compile_table()
    timings["compile.table_build_s"] = time.perf_counter() - t0
    return bundle


def _reference() -> float:
    """The host's speed around a set-up repetition: a set-up takes
    seconds, so the median of several reference loops."""
    return statistics.median(host_reference_s() for _ in range(SETUP_REFS))


async def timed_setup(build):
    """Run the whole set-up chain ``SETUP_REPEATS`` times.

    ``build(bundle, timings)`` builds the serving stack over a freshly
    installed bundle and returns ``(stack, close)``.  Every repetition
    but the last is torn down (outside the timed span); the last one
    serves the workload.  Returns ``(stack, close, bundle, timings)``
    where ``timings`` holds the median of every recorded stage, each
    repetition rescaled to the nominal host speed like a timed round.
    """
    records = []
    before = _reference()
    for i in range(SETUP_REPEATS):
        timings = {}
        t0 = time.perf_counter()
        bundle = install(timings)
        t1 = time.perf_counter()
        stack, close = await build(bundle, timings)
        t_end = time.perf_counter()
        timings["build_s"] = t_end - t1
        timings["setup_s"] = t_end - t0
        after = _reference()
        scale = 2.0 * REF_NOMINAL_S / (before + after)
        records.append({k: v * scale for k, v in timings.items()})
        if i < SETUP_REPEATS - 1:
            await close()
        before = _reference()
    keys = records[0].keys()
    return stack, close, bundle, {
        k: statistics.median(r.get(k, 0.0) for r in records) for k in keys}
