"""Open-loop load generation over a fixed pool of connections.

Request ``i`` of a phase is *due* at ``start + i / rate`` whether or not
earlier requests have finished: the schedule never waits for the server.
A connection that is free sends the next request when it falls due; when
every connection is busy the request goes out late.  Latency is taken
from the due time, not the send time, so time a request spent waiting
for a connection counts against the server (no coordinated omission),
and the generator's own lateness (send time minus due time) is reported
beside it.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection
from typing import Any, Callable, List, Optional, Sequence, Tuple

import common

#: A sender posts one payload and returns ``(status, parsed_body)``.
Sender = Callable[[Any], Tuple[int, Any]]


@dataclass
class Sample:
    """One request of an open-loop phase (times from one monotonic clock)."""

    payload_index: int
    due: float
    sent: float
    done: float
    status: int
    body: Any

    @property
    def latency(self) -> float:
        """Seconds from the due time to the full response."""
        return self.done - self.due

    @property
    def lateness(self) -> float:
        """Seconds the generator sent this request after its due time."""
        return self.sent - self.due


def run_phase(
    senders: Sequence[Sender],
    payloads: Sequence[Any],
    rate: float,
    count: int,
    first_payload: int = 0,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> List[Sample]:
    """Offer ``count`` requests at ``rate`` per second, one thread per sender.

    Payloads are used round-robin from ``first_payload``.  Returns the
    samples in schedule order once every request has completed.
    """
    if rate <= 0 or count < 1 or not senders:
        raise ValueError("need rate > 0, count >= 1 and at least one sender")
    lock = threading.Lock()
    state = {"next": 0}
    samples: List[Optional[Sample]] = [None] * count
    start = clock() + 0.002
    errors: List[Exception] = []

    def worker(send: Sender) -> None:
        try:
            while True:
                with lock:
                    index = state["next"]
                    state["next"] += 1
                if index >= count:
                    return
                due = start + index / rate
                wait = due - clock()
                if wait > 0:
                    sleep(wait)
                payload_index = (first_payload + index) % len(payloads)
                sent = clock()
                status, body = send(payloads[payload_index])
                samples[index] = Sample(payload_index, due, sent, clock(), status, body)
        except Exception as exc:  # raised in the caller's thread below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(s,), daemon=True) for s in senders]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return [s for s in samples if s is not None]


def phase_summary(samples: Sequence[Sample]) -> dict:
    """Latency and lateness figures of one phase, in milliseconds."""
    latencies = [1000.0 * s.latency for s in samples]
    lateness = [1000.0 * s.lateness for s in samples]
    quarter = max(1, len(samples) // 4)
    return {
        "count": len(samples),
        "p50_ms": common.median(latencies),
        "tail_pct": common.tail_percentile(len(latencies)),
        "tail_ms": common.tail(latencies),
        "last_quarter_p50_ms": common.median(latencies[-quarter:]),
        "lateness_p50_ms": common.median(lateness),
        "lateness_max_ms": max(lateness),
    }


def phase_load_ms(summary: dict) -> float:
    """The figure a phase is judged on against the latency limit.

    The tail, or the median of the phase's last quarter when that is
    higher: a backlog that grows through the phase shows in the latter
    even while it is too young to reach the tail.
    """
    return max(summary["tail_ms"], summary["last_quarter_p50_ms"])


def max_rate(phases: Sequence[Tuple[float, float]], limit_ms: float) -> Tuple[float, bool]:
    """Highest offered rate whose load figure meets ``limit_ms``.

    ``phases`` are ``(rate, load_ms)`` in increasing rate order, ending
    at the first phase that failed.  The answer is interpolated linearly
    between the last passing and the first failing rate at the point
    where the load figure crosses the limit, so it moves smoothly with
    the server's capacity instead of jumping a whole ladder step.
    Returns ``(rate, bounded)``; ``bounded`` is False when no phase
    failed, so the answer is only a lower bound.
    """
    if not phases:
        raise ValueError("no phases")
    previous_rate, previous_load = 0.0, 0.0
    for rate, load in phases:
        if load > limit_ms:
            share = (limit_ms - previous_load) / (load - previous_load)
            return previous_rate + (rate - previous_rate) * max(0.0, min(1.0, share)), True
        previous_rate, previous_load = rate, load
    return previous_rate, False


class HttpSender:
    """A keep-alive connection that POSTs JSON bodies to one path."""

    def __init__(self, host: str, port: int, path: str, timeout_s: float = 60.0):
        self.path = path
        self.connection = HTTPConnection(host, port, timeout=timeout_s)

    def __call__(self, body: bytes) -> Tuple[int, Any]:
        self.connection.request(
            "POST", self.path, body=body, headers={"Content-Type": "application/json"}
        )
        response = self.connection.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.connection.close()


def get_json(host: str, port: int, path: str, timeout_s: float = 5.0) -> Tuple[int, Any]:
    """One GET on a fresh connection."""
    connection = HTTPConnection(host, port, timeout=timeout_s)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()
