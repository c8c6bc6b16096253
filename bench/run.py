"""Benchmark of ``treenullity``: certification, exact spectra and sampling.

    python3 bench/run.py --workload certify-batch --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  Each workload runs in a fresh interpreter (``workload.py``),
single-threaded.  With ``--trace 0`` the last line of stdout is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a separate traced run.  End-to-end times are given at
reference speed (``speed.py``).  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
import speed  # noqa: E402

ROOT = os.path.dirname(BENCH)
WORKLOADS = ("certify-batch", "certify-large", "spectrum", "sample")
SETUP_SAMPLES = 5  # set-up is timed this many times, in separate processes
DEADLINE_S = 170.0  # the whole run, children included


class ChildFailed(Exception):
    pass


def run_child(
    workload: str, seed: int, seconds: int, trace: bool, setup_only: bool, deadline: float
) -> tuple[dict, float]:
    """Run one workload process; returns its report and its set-up time at
    reference speed."""
    argv = [
        sys.executable, os.path.join(BENCH, "workload.py"),
        workload, str(seed), str(seconds), "1" if trace else "0", "1" if setup_only else "0",
    ]
    cal = speed.calibrate()
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise ChildFailed(f"{workload} did not finish in time") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{workload} exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, (report["ready"] - spawned) * speed.scale(cal, report["cal"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "treenullity", "__init__.py")):
        print(f"no treenullity sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    import check

    wrong = check.selftest()
    if wrong:
        print("checker self-test failed: " + "; ".join(wrong), file=sys.stderr)
        return 2

    trace = args.trace == 1
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                _, setup = run_child(args.workload, args.seed, args.seconds, False, True, deadline)
                setups.append(setup)
        report, setup = run_child(args.workload, args.seed, args.seconds, trace, False, deadline)
        setups.append(setup)
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    for error in report["errors"]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(
        f"{args.workload}: {report['attempted']} operations in {report['rounds']} rounds, "
        f"{report['wall_s']:.3f} s wall ({report['timed_s']:.3f} s at reference speed, "
        f"median calibration {report['cal_median_s'] * 1000:.3f} ms against "
        f"{speed.NOMINAL_S * 1000:.3f} ms nominal), tail = p{report['tail_pct']:g}",
        file=sys.stderr,
    )
    if trace:
        metrics = {
            name: {"value": value, "unit": unit} for name, (value, unit) in report["layers"].items()
        }
    else:
        metrics = {
            "throughput_per_s": {"value": report["throughput_per_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": report["latency_p50_ms"], "unit": "ms"},
            "latency_tail_ms": {"value": report["latency_tail_ms"], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": not report["errors"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
