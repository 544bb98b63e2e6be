"""Shared helpers of the BLoc benchmark: statistics, host facts, output.

Nothing here imports ``repro``; the statistics helpers are tested on
their own (``blocbench/tests``).
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import os
import platform
import resource
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

#: Candidate tail percentiles, lowest first.  The tail reported for a
#: set of latencies is the highest of these that leaves at least
#: ``TAIL_MIN_BEYOND`` samples above it.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile for it to count as a tail.
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile ``p`` (0..100) of ``values``."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("percentile of no values")
    if len(data) == 1:
        return data[0]
    rank = (len(data) - 1) * p / 100.0
    low = int(math.floor(rank))
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    """The 50th percentile."""
    return percentile(values, 50.0)


def tail_percentile(num_samples: int) -> float:
    """The highest candidate percentile with enough samples beyond it.

    ``num_samples * (1 - p / 100) >= 10`` must hold; below 40 samples
    only the median qualifies.
    """
    best = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES[1:]:
        if num_samples * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND - 1e-9:
            best = p
    return best


def tail(values: Sequence[float]) -> float:
    """Value at :func:`tail_percentile` of ``values``."""
    return percentile(values, tail_percentile(len(values)))


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident memory [MB] of this process (or its reaped children)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    kib = resource.getrusage(who).ru_maxrss
    if sys.platform == "darwin":  # bytes there, KiB on Linux
        kib /= 1024.0
    return kib * 1024.0 / 1e6


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def nproc() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_threads() -> Optional[int]:
    """OpenBLAS thread count, read through its C API when it is there."""
    import numpy

    base = os.path.dirname(numpy.__file__)
    candidates = glob.glob(os.path.join(base, os.pardir, "numpy.libs", "*blas*"))
    candidates += glob.glob(os.path.join(base, ".dylibs", "*blas*"))
    for path in candidates:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(name, "").isdigit():
            return int(os.environ[name])
    return None


def host_fingerprint() -> Dict[str, object]:
    """nproc, CPU model, numpy BLAS name/version/threads, Python version."""
    import numpy

    blas_name = blas_version = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas_name = str(blas.get("name", "unknown"))
        blas_version = str(blas.get("version", "unknown"))
    except Exception:  # older numpy: no dict mode
        pass
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
    }


def log(message: str) -> None:
    """One human-readable report line (stdout, before the result line)."""
    print(message, flush=True)


def metric(value: float, unit: str) -> Dict[str, object]:
    """One entry of the result's ``metrics`` object."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"metric value {value!r} is not finite")
    return {"value": value, "unit": unit}


def print_result(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, Dict[str, object]],
) -> None:
    """The result line: always the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            },
            sort_keys=True,
        ),
        flush=True,
    )


class Checks:
    """Collects named correctness checks; a run is correct if all pass."""

    def __init__(self) -> None:
        self.results: List[tuple] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))
        log(f"[check] {'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.results) and bool(self.results)


@dataclass
class Outcome:
    """What a workload run hands back to ``run.py``."""

    checks: Checks
    attempted: int
    failed: int
    metrics: Dict[str, Dict[str, object]]
    failure_reasons: Dict[str, int] = field(default_factory=dict)


def failure_summary(reasons: Iterable[str]) -> Dict[str, int]:
    """Count failures by reason, for the per-run failure report."""
    counts: Dict[str, int] = {}
    for reason in reasons:
        counts[reason] = counts.get(reason, 0) + 1
    return dict(sorted(counts.items()))
