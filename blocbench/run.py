"""BLoc benchmark: one command, three workloads, timed end to end and per layer.

    python3 blocbench/run.py --workload sweep-vicon --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload end to end; ``--trace 1`` runs the
traced variant, which times calls into each layer's public functions.
Human-readable report lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``blocbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

WORKLOADS = ("sweep-vicon", "ablation-mix", "service-open-loop")


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    import bootstrap

    if not os.path.isdir(os.path.join(bootstrap.SRC, "repro")):
        print(f"error: no program source under {bootstrap.SRC}", file=sys.stderr)
        return 2

    import common

    started = time.perf_counter()
    common.log(f"[host] {common.host_fingerprint()}")
    common.log(f"[run] workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    if args.trace:
        import tracing

        outcome = tracing.run_traced(args.workload, args.seed, args.seconds)
    elif args.workload == "sweep-vicon":
        import sweep

        outcome = sweep.run_sweep_vicon(args.seed, args.seconds)
    elif args.workload == "ablation-mix":
        import sweep

        outcome = sweep.run_ablation_mix(args.seed, args.seconds)
    else:
        import service

        outcome = service.run_service_open_loop(args.seed, args.seconds)
    common.log(
        f"[ops] {args.workload}: attempted {outcome.attempted}, failed {outcome.failed}"
        + "".join(f"\n[ops]   {count} x {reason}" for reason, count in outcome.failure_reasons.items())
    )
    for name, entry in outcome.metrics.items():
        common.log(f"[metric] {name} = {entry['value']:.6g} {entry['unit']}")
    common.log(f"[run] finished in {time.perf_counter() - started:.1f} s")
    common.print_result(outcome.checks.ok, outcome.attempted, outcome.failed, outcome.metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
