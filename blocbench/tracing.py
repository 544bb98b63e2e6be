"""The traced run (``--trace 1``): per-layer figures for every workload.

Core layers: the benchmark calls ``correct_phase_offsets``,
``compute_likelihood_map``, ``find_peaks``, ``score_peaks`` and
``refine_peak_position`` itself, one fix at a time, timing each call,
taking turns with untraced ``evaluate`` calls over the same fixes.
Engine figures come from ``SteeringCache.info()``.

Service layers: the workload's requests are served by a
``LocalizationService`` behind ``make_server`` in this process, with
timers wrapped around ``parse_locate_request``/``decode_observations``,
the scenario's ``ProviderChain.locate_batch`` as the micro-batcher
invokes it, and ``AccuracyTelemetry.record_fix``.

Timings are kept in memory and summarised at the end; the program's own
spans are not used.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import bootstrap  # noqa: F401  (checkout's src on sys.path)
import repro.service.app as service_app
from repro.core import (
    BlocConfig,
    BlocLocalizer,
    SteeringCache,
    compute_likelihood_map,
    correct_phase_offsets,
    find_peaks,
    refine_peak_position,
    score_peaks,
)
from repro.errors import LocalizationError
from repro.service import (
    DEFAULT_SERVICE_RESOLUTION_M,
    LocalizationService,
    LocalizerPool,
    ServiceConfig,
    make_server,
)
from repro.sim import EvaluationDataset, evaluate

import common
import inputs
import openloop
import service
import sweep

#: Shares of ``--seconds`` spent on the core rounds and on the service
#: phase.
CORE_SHARE = 0.5
SERVICE_SHARE = 0.4

#: The stage timers must account for at least this share of each
#: fix's wall time (the rest is the glue between the calls).
STAGE_SHARE_MIN = 0.95

STAGES = ("correction", "likelihood", "peaks", "scoring", "refine")

#: Fixes per block; traced and untraced blocks alternate.
TRACE_BLOCK = 8


@dataclass
class CoreTrace:
    """Per-stage timings of the traced core rounds."""

    stage_s: Dict[str, List[float]] = field(default_factory=lambda: {s: [] for s in STAGES})
    build_s: List[float] = field(default_factory=list)
    candidates: List[int] = field(default_factory=list)
    geometry_mb: List[float] = field(default_factory=list)
    stage_total_s: float = 0.0
    fix_wall_s: float = 0.0
    fixes: int = 0
    failures: List[Tuple[str, str]] = field(default_factory=list)


def traced_fix(localizer: BlocLocalizer, observations, trace: CoreTrace, steady: bool = False, name: str = ""):
    """Run the pipeline stage by stage; returns the position or the error.

    Steady (not warm-up) fixes add to the stage figures.  A likelihood
    call that built a steering entry counts towards ``engine.build_s``
    and the stage total, not towards ``likelihood.ms_per_fix``.
    """
    config = localizer.config
    misses = localizer.engine.info()["misses"]
    times: Dict[str, float] = {}
    position = None
    peaks: Sequence = ()
    t_start = time.perf_counter()
    try:
        corrected = correct_phase_offsets(observations)
        t1 = time.perf_counter()
        times["correction"] = t1 - t_start
        grid = localizer.grid_for(observations)
        t2 = time.perf_counter()
        likelihood = compute_likelihood_map(corrected, grid, engine=localizer.engine)
        t3 = time.perf_counter()
        times["likelihood"] = t3 - t2
        peaks = find_peaks(likelihood.combined, grid, config.peak)
        t4 = time.perf_counter()
        times["peaks"] = t4 - t3
        scored = score_peaks(peaks, likelihood.combined, grid, corrected.anchors, config.scoring)
        t5 = time.perf_counter()
        times["scoring"] = t5 - t4
        position = scored[0].peak.position
        if config.refine_peaks:
            position = refine_peak_position(likelihood.combined, grid, scored[0].peak)
        times["refine"] = time.perf_counter() - t5
        outcome = position
    except LocalizationError as exc:
        outcome = exc
    wall = time.perf_counter() - t_start
    built = localizer.engine.info()["misses"] > misses
    if built:
        trace.build_s.append(times.get("likelihood", 0.0))
    if steady:
        trace.fixes += 1
        trace.fix_wall_s += wall
        trace.stage_total_s += sum(times.values())
        if isinstance(outcome, LocalizationError):
            trace.failures.append((name, str(outcome)))
        for stage, seconds in times.items():
            if not (stage == "likelihood" and built):
                trace.stage_s[stage].append(seconds)
        if peaks:
            trace.candidates.append(len(peaks))
    return outcome


def geometry_mb(localizer: BlocLocalizer, observations) -> float:
    """Size of the cached geometry one fix streams through (computed).

    Built once in a scratch cache, so the figure follows whatever the
    engine stores for this grid, anchor geometry and band plan.
    """
    scratch = SteeringCache()
    scratch.entry_for(correct_phase_offsets(observations), localizer.grid_for(observations))
    return scratch.info()["bytes"] / 1e6


def trace_core(
    config: BlocConfig,
    configs: Sequence[Tuple[str, EvaluationDataset]],
    budget_s: float,
    checks: common.Checks,
) -> Tuple[Dict[str, Dict[str, object]], int, List[Tuple[str, str]]]:
    """Traced and untraced rounds over ``configs``; core per-layer metrics.

    The traced and the untraced side each own a localizer, so their
    steering caches see the same sequence of geometries, and they take
    turns block by block (:data:`TRACE_BLOCK` fixes), so drift in the
    host's speed falls on both alike.  Returns the metrics, the number of
    traced fixes and the failure message of every traced fix that failed.
    """
    traced = BlocLocalizer(config=config)
    untraced = BlocLocalizer(config=config)
    trace = CoreTrace()
    mb = {name: geometry_mb(traced, d.observations[0]) for name, d in configs}
    blocks = [
        (name, EvaluationDataset(testbed=d.testbed, observations=d.observations[i : i + TRACE_BLOCK]))
        for name, d in configs
        for i in range(0, len(d), TRACE_BLOCK)
    ]
    mismatches = []
    for name, dataset in configs:  # warm-up: cold builds, composition check
        first = dataset.observations[0]
        evaluate(untraced, EvaluationDataset(testbed=dataset.testbed, observations=[first]))
        composed = traced_fix(traced, first, trace)
        if not isinstance(composed, LocalizationError):
            direct = traced.locate(first, keep_map=False).position
            gap = ((composed.x - direct.x) ** 2 + (composed.y - direct.y) ** 2) ** 0.5
            if gap > 1e-12:
                mismatches.append(f"{name}: {gap:.3g} m")
    checks.check(
        "composed stages equal locate",
        not mismatches,
        "; ".join(mismatches) or f"first fix of {len(configs)} configuration(s)",
    )
    untraced_s = 0.0
    rounds = 0
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < budget_s:
        for name, block in blocks:
            t0 = time.perf_counter()
            evaluate(untraced, block)
            untraced_s += time.perf_counter() - t0
            for obs in block.observations:
                traced_fix(traced, obs, trace, steady=True, name=name)
                trace.geometry_mb.append(mb[name])
        rounds += 1
    info = traced.engine.info()
    common.log(f"[trace] {rounds} rounds of {len(blocks)} blocks; traced engine {info}")

    stage_total = trace.stage_total_s
    wall_total = trace.fix_wall_s
    share = stage_total / wall_total
    checks.check(
        f"stage self times cover at least {STAGE_SHARE_MIN:.0%} of fix wall time",
        share >= STAGE_SHARE_MIN,
        f"{share:.2%}",
    )

    def ms(stage: str) -> float:
        values = trace.stage_s[stage]
        return 1000.0 * sum(values) / len(values) if values else 0.0

    lookups = info["hits"] + info["misses"]
    metrics = {
        "correction.ms_per_fix": common.metric(ms("correction"), "ms"),
        "likelihood.ms_per_fix": common.metric(ms("likelihood"), "ms"),
        "likelihood.mb_read_per_fix": common.metric(
            sum(trace.geometry_mb) / len(trace.geometry_mb), "MB"
        ),
        "engine.builds": common.metric(info["misses"], "count"),
        "engine.build_s": common.metric(sum(trace.build_s) / max(1, len(trace.build_s)), "s"),
        "engine.evictions": common.metric(info["evictions"], "count"),
        "engine.hit_ratio": common.metric(info["hits"] / lookups if lookups else 0.0, "ratio"),
        "engine.cached_mb": common.metric(info["bytes"] / 1e6, "MB"),
        "peaks.ms_per_fix": common.metric(ms("peaks"), "ms"),
        "peaks.candidates_per_fix": common.metric(
            sum(trace.candidates) / max(1, len(trace.candidates)), "count"
        ),
        "refine.ms_per_fix": common.metric(ms("refine"), "ms"),
        "scoring.ms_per_fix": common.metric(ms("scoring"), "ms"),
        "runner.ms_per_fix": common.metric(1000.0 * (untraced_s - stage_total) / trace.fixes, "ms"),
        "trace.overhead_frac": common.metric(wall_total / untraced_s - 1.0, "frac"),
    }
    return metrics, trace.fixes, trace.failures


@dataclass
class ServiceTrace:
    """Timings recorded by the wrappers around the service layers."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    parse_s: List[float] = field(default_factory=list)
    decode_s: List[float] = field(default_factory=list)
    decoded_at: Dict[int, float] = field(default_factory=dict)
    wait_s: List[float] = field(default_factory=list)
    batches: List[Tuple[int, float]] = field(default_factory=list)
    providers: List[str] = field(default_factory=list)
    telemetry_s: List[float] = field(default_factory=list)


def _timed(trace: ServiceTrace, sink: str, fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        t1 = time.perf_counter()
        with trace.lock:
            getattr(trace, sink).append(t1 - t0)
            if sink == "decode_s":
                trace.decoded_at[id(result)] = t1
        return result

    return wrapper


def trace_service(
    observations: Sequence, budget_s: float, checks: common.Checks
) -> Tuple[Dict[str, Dict[str, object]], int, int]:
    """Serve ``observations`` in-process at the nominal rate; service metrics."""
    count = max(1, int(round(service.NOMINAL_RATE * budget_s)))
    bodies = service.request_bodies(observations[:count])
    trace = ServiceTrace()
    pool = LocalizerPool()
    svc = LocalizationService(
        pool=pool, config=ServiceConfig(rate_per_s=service.BUCKET, burst=service.BUCKET)
    )
    pool.prewarm()
    chain = pool.get(service.SCENARIO).chain
    locate_batch = chain.locate_batch

    def timed_batch(items):
        t0 = time.perf_counter()
        with trace.lock:
            for obs in items:
                trace.wait_s.append(t0 - trace.decoded_at.pop(id(obs), t0))
        outcomes = locate_batch(items)
        elapsed = time.perf_counter() - t0
        with trace.lock:
            trace.batches.append((len(items), elapsed))
            trace.providers.extend(getattr(o, "provider", "none") for o in outcomes)
        return outcomes

    originals = (service_app.parse_locate_request, service_app.decode_observations)
    service_app.parse_locate_request = _timed(trace, "parse_s", originals[0])
    service_app.decode_observations = _timed(trace, "decode_s", originals[1])
    chain.locate_batch = timed_batch
    svc.telemetry.record_fix = _timed(trace, "telemetry_s", svc.telemetry.record_fix)
    server = make_server(svc, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    senders = [openloop.HttpSender(host, port, "/v1/locate") for _ in range(service.connections())]
    try:
        samples = openloop.run_phase(senders, bodies, service.NOMINAL_RATE, count)
    finally:
        for sender in senders:
            sender.close()
        server.shutdown()
        server.server_close()
        svc.close()
        thread.join()
        service_app.parse_locate_request, service_app.decode_observations = originals
        del chain.locate_batch
    failed = sum(1 for s in samples if s.status != 200)
    checks.check("every traced request returns 200", failed == 0, f"{failed} of {len(samples)}")

    def mean(values: Sequence[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    requests = sum(n for n, _ in trace.batches)
    schema = mean(trace.parse_s) + mean(trace.decode_s)
    wait = mean(trace.wait_s)
    batch_per_request = sum(n * s for n, s in trace.batches) / requests
    telemetry = mean(trace.telemetry_s)
    observed = mean([s.done - s.sent for s in samples])
    common.log(
        f"[trace] service: {len(samples)} requests, {len(trace.batches)} batches, "
        f"observed {1000 * observed:.2f} ms per request from send"
    )
    metrics = {
        "schema.ms_per_request": common.metric(1000.0 * schema, "ms"),
        "batcher.wait_ms": common.metric(1000.0 * wait, "ms"),
        "batcher.mean_batch": common.metric(requests / len(trace.batches), "count"),
        "providers.ms_per_batch": common.metric(1000.0 * mean([s for _, s in trace.batches]), "ms"),
        "providers.bloc_ratio": common.metric(
            trace.providers.count("bloc") / len(trace.providers), "ratio"
        ),
        "telemetry.ms_per_request": common.metric(1000.0 * telemetry, "ms"),
        "app.ms_per_request": common.metric(
            1000.0 * (observed - schema - wait - batch_per_request - telemetry), "ms"
        ),
    }
    return metrics, len(samples), failed


def run_traced(workload: str, seed: int, seconds: float) -> common.Outcome:
    """Core and service per-layer metrics for one workload's inputs."""
    started = time.perf_counter()
    if workload == "sweep-vicon":
        dataset = inputs.sweep_inputs(seed)
        configs = [("sweep", dataset)]
        config = sweep.sweep_config()
        requests, _ = inputs.with_dead_anchors(dataset.observations)
    elif workload == "ablation-mix":
        configs = inputs.ablation_inputs(seed)
        config = sweep.sweep_config()
        requests, _ = inputs.with_dead_anchors(dict(configs)["full"].observations)
    else:
        dataset, dead = inputs.service_inputs(seed)
        clean = [o for o, d in zip(dataset.observations, dead) if not d]
        configs = [("service", EvaluationDataset(testbed=dataset.testbed, observations=clean))]
        config = BlocConfig(grid_resolution_m=DEFAULT_SERVICE_RESOLUTION_M)
        requests = dataset.observations
    common.log(
        f"[inputs] {workload} seed {seed} in {time.perf_counter() - started:.2f} s "
        f"(not part of any metric)"
    )
    checks = common.Checks()
    core, fixes, failures = trace_core(config, configs, CORE_SHARE * seconds, checks)
    layers, served, service_failed = trace_service(requests, SERVICE_SHARE * seconds, checks)
    metrics = {**core, **layers}
    nan_fixes = sum(len(d) for name, d in configs if name == inputs.NAN_CONFIG)
    checks.check(
        "only injected NaN fixes fail",
        all(name == inputs.NAN_CONFIG for name, _ in failures)
        and len(failures) == fixes // sum(len(d) for _, d in configs) * nan_fixes,
        f"{len(failures)} traced fixes failed",
    )
    if workload == "service-open-loop":
        return common.Outcome(checks, served, service_failed, metrics)
    reasons = common.failure_summary(
        f"{inputs.fault_label(name)}: {message}" for name, message in failures
    )
    return common.Outcome(checks, fixes, len(failures), metrics, reasons)
