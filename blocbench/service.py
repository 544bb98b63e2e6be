"""The ``service-open-loop`` workload: ``repro serve`` in a child process.

The server is spawned with the CLI, serves the ``vicon`` scenario at its
default grid, prewarmed, and its per-key token bucket is raised through
``--rate``/``--burst`` far above any offered rate.  Load comes from this
process as open-loop phases (see ``openloop.py``) over at most ``nproc``
keep-alive connections: first the nominal rate, then a ladder of rising
rates that stops at the first rate that misses the latency limit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import List, Optional, Sequence, Tuple

import bootstrap
from repro.core import BlocConfig, BlocLocalizer
from repro.service import DEFAULT_SERVICE_RESOLUTION_M, encode_observations

import common
import inputs
import openloop

#: Offered rate [requests/s] at which latency is reported.  Low enough
#: that each keep-alive connection idles between requests (see README,
#: "Found": back-to-back requests stall on delayed ACKs).
NOMINAL_RATE = 8.0

#: The nominal phase sends every placement once, or as many whole times
#: as fit in this share of ``--seconds``.
NOMINAL_SHARE = 0.6

#: The ladder starts at this multiple of the nominal rate, and each step
#: offers this many times the previous rate ...
LADDER_START = 2.0
LADDER_FACTOR = 1.15

#: ... for this many requests (a multiple of 8, so one in eight still
#: carries a dead anchor), and the ladder has at most this many steps.
LADDER_REQUESTS = 48
LADDER_STEPS = 16

#: A phase passes while its tail (or the median of its last quarter,
#: when higher) stays within this many milliseconds of the due times.
LATENCY_LIMIT_MS = 150.0

#: Token-bucket rate and burst given to the server: far above any load.
BUCKET = 1_000_000

#: Server set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Clean requests re-located in this process and compared.
SAMPLED_REQUESTS = 4

#: Positions must agree this closely with ``BlocLocalizer.locate`` [m].
AGREEMENT_M = 1e-3

SCENARIO = "vicon"
API_KEY = "bench"


def connections() -> int:
    """Keep-alive connections: one per CPU, at most eight."""
    return max(1, min(common.nproc(), 8))


def request_bodies(observations: Sequence) -> List[bytes]:
    return [
        json.dumps(
            {"key": API_KEY, "scenario": SCENARIO, "observations": encode_observations(obs)}
        ).encode("utf-8")
        for obs in observations
    ]


class Server:
    """``python -m repro serve`` on an ephemeral port."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = bootstrap.SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--rate", str(BUCKET), "--burst", str(BUCKET),
            ],
            cwd=bootstrap.ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.port = self._wait_listening()
        status, health = openloop.get_json("127.0.0.1", self.port, "/v1/health")
        if status != 200 or SCENARIO not in health.get("warm", []):
            self.stop()
            raise RuntimeError(f"server not ready: {status} {health}")
        self.setup_s = time.perf_counter() - self.started

    def _wait_listening(self) -> int:
        for line in self.process.stdout:
            if "listening on http://" in line:
                address = line.split("http://", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("server exited before listening")

    def stats(self) -> dict:
        return openloop.get_json("127.0.0.1", self.port, "/v1/stats")[1]

    def stop(self) -> None:
        # SIGTERM, not SIGINT: a child started from a background job
        # inherits an ignored SIGINT and would never stop.
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def run_phases(
    host: str, port: int, bodies: Sequence[bytes], seconds: float
) -> Tuple[List[openloop.Sample], List[dict], float, bool]:
    """Nominal phase, then the rate ladder.

    Returns every sample, one summary per phase, the highest rate that
    met the limit, and whether that rate is bounded by a failing phase.
    """
    senders = [openloop.HttpSender(host, port, "/v1/locate") for _ in range(connections())]
    samples: List[openloop.Sample] = []
    summaries: List[dict] = []
    loads: List[Tuple[float, float]] = []
    try:
        rate = NOMINAL_RATE
        count = len(bodies) * max(1, int(round(NOMINAL_RATE * NOMINAL_SHARE * seconds / len(bodies))))
        for step in range(LADDER_STEPS + 1):
            phase = openloop.run_phase(senders, bodies, rate, count, first_payload=len(samples))
            summary = openloop.phase_summary(phase)
            summary["rate"] = rate
            samples.extend(phase)
            summaries.append(summary)
            loads.append((rate, openloop.phase_load_ms(summary)))
            common.log(
                f"[phase] {rate:7.2f} req/s x {len(phase)}: p50 {summary['p50_ms']:.1f} ms, "
                f"p{summary['tail_pct']:g} {summary['tail_ms']:.1f} ms, last-quarter p50 "
                f"{summary['last_quarter_p50_ms']:.1f} ms; generator lateness p50 "
                f"{summary['lateness_p50_ms']:.2f} ms, max {summary['lateness_max_ms']:.1f} ms"
            )
            if loads[-1][1] > LATENCY_LIMIT_MS:
                break
            rate *= LADDER_START if step == 0 else LADDER_FACTOR
            count = LADDER_REQUESTS
    finally:
        for sender in senders:
            sender.close()
    top, bounded = openloop.max_rate(loads, LATENCY_LIMIT_MS)
    return samples, summaries, top, bounded


def run_service_open_loop(seed: int, seconds: float) -> common.Outcome:
    started = time.perf_counter()
    dataset, dead = inputs.service_inputs(seed)
    bodies = request_bodies(dataset.observations)
    common.log(
        f"[inputs] service-open-loop seed {seed}: {len(bodies)} request bodies "
        f"({sum(dead)} with a dead anchor) in {time.perf_counter() - started:.2f} s "
        f"(not part of any metric)"
    )
    setups = []
    server: Optional[Server] = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = Server()
            setups.append(server.setup_s)
        samples, summaries, top, bounded = run_phases(
            "127.0.0.1", server.port, bodies, seconds
        )
        stats = server.stats()
    finally:
        if server is not None:
            server.stop()
    common.log(
        f"[service] {connections()} connections; providers {stats['responses_by_provider']}; "
        f"batchers {stats['batchers']}; max rate {'bounded' if bounded else 'NOT bounded'}"
    )

    checks = common.Checks()
    statuses = [s.status for s in samples]
    failed = sum(1 for s in statuses if s != 200)
    # The room as the program searches it: the anchors' hull plus the grid
    # margin, which reaches past the walls (see README, "Found").
    # Grid nodes are x_min + k * resolution: allow their rounding (1 nm).
    margin = BlocConfig().grid_margin_m + 1e-9
    anchor_x = [a.position.x for a in dataset.testbed.anchors]
    anchor_y = [a.position.y for a in dataset.testbed.anchors]
    x_min, x_max = min(anchor_x) - margin, max(anchor_x) + margin
    y_min, y_max = min(anchor_y) - margin, max(anchor_y) + margin
    inside = all(
        x_min <= s.body["position"]["x"] <= x_max and y_min <= s.body["position"]["y"] <= y_max
        for s in samples
        if s.status == 200
    )
    room = dataset.testbed.environment.bounds()
    beyond_walls = sum(
        1
        for s in samples
        if s.status == 200
        and not (room[0] <= s.body["position"]["x"] <= room[1] and room[2] <= s.body["position"]["y"] <= room[3])
    )
    common.log(f"[service] {beyond_walls} of {len(samples)} positions lie beyond the room walls")
    checks.check("every request returns 200", failed == 0, f"{failed} of {len(samples)} did not")
    checks.check("every position inside the searched room", inside)
    localizer = BlocLocalizer(config=BlocConfig(grid_resolution_m=DEFAULT_SERVICE_RESOLUTION_M))
    by_payload = {s.payload_index: s for s in samples if s.status == 200}
    clean = [k for k in sorted(by_payload) if not dead[k]][:SAMPLED_REQUESTS]
    for k in clean:
        served = by_payload[k].body["position"]
        local = localizer.locate(dataset.observations[k], keep_map=False).position
        gap = ((served["x"] - local.x) ** 2 + (served["y"] - local.y) ** 2) ** 0.5
        checks.check(
            f"served position equals locate (request {k})",
            gap <= AGREEMENT_M and by_payload[k].body["provider"] == "bloc",
            f"{1000 * gap:.4f} mm apart, provider {by_payload[k].body['provider']}",
        )

    # Every phase repeats the nominal phase's placements: the answers must
    # not depend on load or on which requests shared a batch.
    nominal = samples[: summaries[0]["count"]]
    first_answer = {s.payload_index: s.body["position"] for s in nominal if s.status == 200}
    drift = max(
        (
            abs(s.body["position"]["x"] - first_answer[s.payload_index]["x"])
            + abs(s.body["position"]["y"] - first_answer[s.payload_index]["y"])
            for s in samples
            if s.status == 200 and s.payload_index in first_answer
        ),
        default=0.0,
    )
    checks.check("answers independent of load", drift <= 1e-6, f"largest change {drift:.3g} m")

    # Accuracy over the nominal phase, which sends each placement equally often.
    truths = dataset.truths()
    errors = [
        100.0
        * ((s.body["position"]["x"] - truths[s.payload_index].x) ** 2
           + (s.body["position"]["y"] - truths[s.payload_index].y) ** 2) ** 0.5
        for s in nominal
        if s.status == 200
    ]
    latencies = [1000.0 * s.latency for s in nominal]
    completed = sum(1 for s in nominal if s.status == 200)
    metrics = {
        "setup_s": common.metric(common.median(setups), "s"),
        "fixes_per_s": common.metric(completed / (nominal[-1].done - nominal[0].due), "fixes/s"),
        "latency_p50_ms": common.metric(common.median(latencies), "ms"),
        "latency_tail_ms": common.metric(common.tail(latencies), "ms"),
        "max_rate_rps": common.metric(top, "requests/s"),
        "median_error_cm": common.metric(common.median(errors), "cm"),
        "p90_error_cm": common.metric(common.percentile(errors, 90.0), "cm"),
        "peak_rss_mb": common.metric(common.peak_rss_mb(children=True), "MB"),
    }
    reasons = common.failure_summary(
        f"HTTP {s.status}: {s.body.get('error', {}).get('code')}" for s in samples if s.status != 200
    )
    return common.Outcome(checks, len(samples), failed, metrics, reasons)
