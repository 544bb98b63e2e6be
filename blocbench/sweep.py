"""The two sweep workloads: ``sweep-vicon`` and ``ablation-mix``.

Both time ``repro.sim.evaluate(localizer, dataset)`` with its default
arguments over datasets built before the clock starts, in whole rounds
of the same operations, and check the answers afterwards.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import bootstrap  # noqa: F401  (checkout's src on sys.path)
from repro.baselines import AoaLocalizer
from repro.core import BlocConfig, BlocLocalizer
from repro.sim import EvaluationDataset, evaluate

import common
import inputs
import reference

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Fixes per ``evaluate`` call in sweep-vicon; one call is one unit of
#: the throughput median.
CHUNK = 24

#: Fixes re-checked against the benchmark's own Eq. 17 and Eq. 18.
SAMPLED_FIXES = 3

#: Placements on which BLoc and the AoA baseline are compared.
AOA_PLACEMENTS = 128


def sweep_config() -> BlocConfig:
    return BlocConfig(grid_resolution_m=inputs.SWEEP_GRID_M)


def cold_setup(config: BlocConfig, first: EvaluationDataset) -> Tuple[BlocLocalizer, float]:
    """Localizer construction plus its cold steering build, timed.

    Repeated :data:`SETUP_REPEATS` times; returns the last (warm)
    localizer and the median set-up time.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        localizer = BlocLocalizer(config=config)
        evaluate(localizer, first)
        times.append(time.perf_counter() - started)
    return localizer, common.median(times)


def errors_cm(records) -> List[float]:
    return [100.0 * r.error_m for r in records if r.estimate is not None]


def estimates(records) -> List[Optional[Tuple[float, float]]]:
    return [(r.estimate.x, r.estimate.y) if r.estimate is not None else None for r in records]


def check_scoring(localizer: BlocLocalizer, observations) -> Tuple[bool, str]:
    """The returned peaks are ordered by a recomputed Eq. 18 score."""
    result = localizer.locate(observations, keep_map=True)
    scoring = localizer.config.scoring
    anchor_xy = np.array([tuple(a.position) for a in observations.anchors])
    values = result.likelihood.combined
    recomputed = [
        reference.eq18_score(
            s.peak.value,
            s.peak.row,
            s.peak.col,
            (s.peak.position.x, s.peak.position.y),
            values,
            anchor_xy,
            scoring.distance_weight,
            scoring.entropy_weight,
            scoring.entropy_window,
        )
        for s in result.scored_peaks
    ]
    ordered = all(a >= b for a, b in zip(recomputed, recomputed[1:]))
    agree = all(
        abs(r - s.score) <= 1e-9 * max(abs(s.score), 1e-300)
        for r, s in zip(recomputed, result.scored_peaks)
    )
    return ordered and agree, f"{len(recomputed)} peaks, ordered={ordered}, scores agree={agree}"


def check_peak(checks: common.Checks, name: str, observations, position, config: BlocConfig) -> None:
    ok, distance = inputs.peak_check(observations, position, config)
    checks.check(
        f"eq17 reference peak ({name})",
        ok,
        f"{100 * distance:.2f} cm from the nearest strong local maximum of the reference map",
    )


def sweep_metrics(
    setup_s: float, unit_rates: Sequence[float], errors: Sequence[float]
) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics of a closed-loop sweep.

    ``fixes_per_s`` is the median over the run's repeated units of the
    same work (fixes per wall second of each), so a burst of interference
    from elsewhere on the host does not decide it.
    """
    return {
        "setup_s": common.metric(setup_s, "s"),
        "fixes_per_s": common.metric(common.median(unit_rates), "fixes/s"),
        "median_error_cm": common.metric(common.median(errors), "cm"),
        "p90_error_cm": common.metric(common.percentile(errors, 90.0), "cm"),
        "peak_rss_mb": common.metric(common.peak_rss_mb(), "MB"),
    }


def run_sweep_vicon(seed: int, seconds: float) -> common.Outcome:
    started = time.perf_counter()
    dataset = inputs.sweep_inputs(seed)
    common.log(
        f"[inputs] sweep-vicon seed {seed}: {len(dataset)} placements in "
        f"{time.perf_counter() - started:.2f} s (not part of any metric)"
    )
    testbed = dataset.testbed
    config = sweep_config()
    first = EvaluationDataset(testbed=testbed, observations=dataset.observations[:1])
    localizer, setup_s = cold_setup(config, first)
    chunks = [
        EvaluationDataset(testbed=testbed, observations=dataset.observations[i : i + CHUNK])
        for i in range(0, len(dataset), CHUNK)
    ]

    passes: List[list] = []
    call_rates: List[float] = []
    clock_start = time.perf_counter()
    while not passes or time.perf_counter() - clock_start < seconds:
        records = []
        for chunk in chunks:
            t0 = time.perf_counter()
            run = evaluate(localizer, chunk)
            call_rates.append(len(chunk) / (time.perf_counter() - t0))
            records.extend(run.records)
        passes.append(records)
    wall_s = time.perf_counter() - clock_start
    all_records = [r for records in passes for r in records]
    failed = sum(1 for r in all_records if r.estimate is None)
    common.log(
        f"[timed] {len(passes)} passes x {len(dataset)} fixes in {wall_s:.2f} s; "
        f"engine {localizer.engine.info()}"
    )

    checks = common.Checks()
    checks.check("every fix succeeds", failed == 0, f"{failed} of {len(all_records)} failed")
    first_estimates = estimates(passes[0])
    checks.check(
        "passes agree",
        all(estimates(p) == first_estimates for p in passes),
        "every pass returns the same positions",
    )
    compared = EvaluationDataset(testbed=testbed, observations=dataset.observations[:AOA_PLACEMENTS])
    bloc_errors = errors_cm(passes[0][:AOA_PLACEMENTS])
    aoa_errors = errors_cm(evaluate(AoaLocalizer(), compared).records)
    checks.check(
        "BLoc median below AoA median (Fig. 9a)",
        common.median(bloc_errors) < common.median(aoa_errors),
        f"first {len(compared)} placements: BLoc {common.median(bloc_errors):.1f} cm, "
        f"AoA {common.median(aoa_errors):.1f} cm",
    )
    for k in np.linspace(0, len(dataset) - 1, SAMPLED_FIXES).astype(int):
        obs = dataset.observations[k]
        check_peak(checks, f"fix {k}", obs, passes[0][k].estimate, config)
        ok, detail = check_scoring(localizer, obs)
        checks.check(f"eq18 ordering (fix {k})", ok, detail)

    metrics = sweep_metrics(setup_s, call_rates, errors_cm(all_records))
    return common.Outcome(checks, len(all_records), failed, metrics)


def run_ablation_mix(seed: int, seconds: float) -> common.Outcome:
    started = time.perf_counter()
    configs = inputs.ablation_inputs(seed)
    common.log(
        f"[inputs] ablation-mix seed {seed}: {len(configs)} configurations, "
        f"{sum(len(d) for _, d in configs)} fixes per round in "
        f"{time.perf_counter() - started:.2f} s (not part of any metric)"
    )
    config = sweep_config()
    by_name = dict(configs)
    testbed = by_name["full"].testbed
    first = EvaluationDataset(testbed=testbed, observations=by_name["full"].observations[:1])
    localizer, setup_s = cold_setup(config, first)

    rounds: List[Dict[str, list]] = []
    round_rates: List[float] = []
    clock_start = time.perf_counter()
    while not rounds or time.perf_counter() - clock_start < seconds:
        this_round = {}
        round_start = time.perf_counter()
        for name, dataset in configs:
            this_round[name] = evaluate(localizer, dataset).records
        located = sum(r.estimate is not None for records in this_round.values() for r in records)
        round_rates.append(located / (time.perf_counter() - round_start))
        rounds.append(this_round)
    wall_s = time.perf_counter() - clock_start
    info = localizer.engine.info()
    common.log(
        f"[timed] {len(rounds)} rounds in {wall_s:.2f} s; engine {info}"
    )

    attempted = failed = 0
    reasons: List[str] = []
    stray_failures = 0
    for this_round in rounds:
        for name, records in this_round.items():
            attempted += len(records)
            for r in records:
                if r.estimate is None:
                    failed += 1
                    reasons.append(f"{inputs.fault_label(name)}: {r.failure_reason}")
                    stray_failures += name != inputs.NAN_CONFIG

    checks = common.Checks()
    nan_records = [r for rd in rounds for r in rd[inputs.NAN_CONFIG]]
    checks.check(
        "only injected NaN fixes fail",
        stray_failures == 0 and all(r.estimate is None for r in nan_records),
        f"{stray_failures} other failures; {sum(r.estimate is None for r in nan_records)}"
        f" of {len(nan_records)} NaN fixes failed",
    )
    first_round = rounds[0]
    checks.check(
        "rounds agree",
        all(
            estimates(rd[name]) == estimates(first_round[name]) for rd in rounds for name in rd
        ),
        "every round returns the same positions",
    )
    full = common.median(errors_cm(first_round["full"]))
    narrow = common.median(errors_cm(first_round["bandwidth-2MHz"]))
    checks.check(
        "2 MHz median at least the full-band median (Fig. 10)",
        narrow >= full,
        f"2 MHz {narrow:.1f} cm, full band {full:.1f} cm",
    )
    two = common.median(
        [e for name in ("anchors-01", "anchors-02", "anchors-03") for e in errors_cm(first_round[name])]
    )
    checks.check(
        "2-of-4 anchor median at least the 4-anchor median (Fig. 9b)",
        two >= full,
        f"2 anchors {two:.1f} cm, 4 anchors {full:.1f} cm",
    )
    for name in (inputs.LATTICE_CONFIG, inputs.DENSE_CONFIG):
        obs = by_name[name].observations[0]
        check_peak(checks, f"{name} plan", obs, first_round[name][0].estimate, config)

    succeeded = [r for rd in rounds for name in rd for r in rd[name] if r.estimate is not None]
    metrics = sweep_metrics(setup_s, round_rates, errors_cm(succeeded))
    return common.Outcome(checks, attempted, failed, metrics, common.failure_summary(reasons))
