"""One workload in a fresh interpreter: set up, warm up, time, check.

Run by ``run.py``, never by hand:

    python3 bench/workload.py <workload> <seed> <seconds> <trace 0|1> <setup-only 0|1>

It prints one JSON line.  ``ready`` is the ``time.monotonic()`` reading
at the end of set-up (a system-wide clock on Linux, so the parent can
subtract its own reading taken before the spawn), and ``cal`` is a
calibration taken right after it (see ``speed.py``).  With setup-only set,
the process stops there.  Otherwise it runs whole rounds of the workload's
inputs, closed loop, one operation at a time, until the summed operation
wall time reaches ``seconds`` and at least ``min_ops`` operations ran.
After every ``CALIBRATE_EVERY_S`` of operation time it calibrates again,
and scales the operations timed since the last calibration to reference
speed with the mean of the two readings.  An operation repeats the same
work in every round, so the latency of an input is the mean of its round
times without the fastest and the slowest round; the percentiles are taken
over the inputs.  That keeps the host's slow spells and one-off stalls out
of the percentiles, which otherwise swap neighbouring inputs.  Every
output of the first round goes through ``check.py`` between operations,
outside the timed region; later rounds must reproduce the first round's
outputs exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, SRC)

import check  # noqa: E402
import inputs as gen  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from treenullity.errors import TreeNullityError  # noqa: E402

# Random trees drawn per ``conjecture --samples`` operation.
SAMPLES = 16
# Calibrate after at least this much operation wall time (see speed.py).
CALIBRATE_EVERY_S = 0.2


@dataclass
class Workload:
    inputs: list  # one entry per operation of a round
    op: Callable  # input -> output
    check: Callable  # (input, output) -> list of errors
    units: Callable  # input -> units of work in one operation on it
    size: Callable  # input -> cost order, for picking the warm-up input
    fingerprint: Callable  # output -> value compared across rounds
    failed: Callable  # output -> True when the operation failed
    min_ops: int  # operations per run, at least

    @property
    def tail_pct(self) -> float:
        """The highest percentile with ten operations beyond it in a run of
        ``min_ops`` operations."""
        return round(100.0 * (1 - 10 / self.min_ops), 6)


def _import_package():
    from treenullity import cli, degseq, extremal, oracle, treegraph

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"treenullity imported from {cli.__file__}, not {SRC}")
    return cli, degseq, extremal, oracle, treegraph


def _certify_workload(rng, extremal, degseq, sizes, shapes, min_ops) -> Workload:
    inputs = []
    for i, n in enumerate(sizes):
        degrees = gen.tree_degrees(rng, n, shapes[i % len(shapes)])
        inputs.append((degrees, degseq.DegreeSequence(degrees)))

    def op(x):
        s = x[1]
        try:
            cmin = extremal.build_min(s)
            cmax = extremal.build_max(s)
            return (
                cmin,
                cmax,
                extremal.verify_certificate(cmin, s),
                extremal.verify_certificate(cmax, s),
            )
        except TreeNullityError:
            return None

    return Workload(
        inputs=gen.shuffled(rng, inputs),
        op=op,
        check=lambda x, out: check.certify_errors(x[0], out),
        units=lambda x: 1,
        size=lambda x: len(x[0]),
        fingerprint=lambda out: (
            hash(out[0].tree.edges),
            hash(out[1].tree.edges),
            out[2].ok,
            out[3].ok,
        ),
        failed=lambda out: out is None,
        min_ops=min_ops,
    )


def _run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """``treenullity <argv>`` in-process with stdout and stderr captured.

    Capturing stderr also keeps ``spectrum`` on its plain path: it switches
    to chunked enumeration with progress lines when stderr is a terminal.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def build(name: str, seed: int) -> Workload:
    cli, degseq, extremal, _, _ = _import_package()
    rng = random.Random(seed)
    if name == "certify-batch":
        # A third with n <= 64, where verify runs the exact rank cross-check.
        sizes = gen.spaced_sizes(200, 2, 64) + gen.spaced_sizes(400, 65, 200)
        shapes = (gen.UNIFORM, gen.PATHLIKE, gen.HUBS, gen.UNIFORM)
        return _certify_workload(rng, extremal, degseq, sizes, shapes, min_ops=1000)
    if name == "certify-large":
        sizes = gen.spaced_sizes(12, 1000, 20000, log=True)
        shapes = (gen.UNIFORM, gen.PATHLIKE)
        return _certify_workload(rng, extremal, degseq, sizes, shapes, min_ops=40)
    if name == "spectrum":
        seqs = gen.shuffled(rng, gen.all_tree_degree_sequences(11))
        inputs = [(d, ["spectrum", gen.sequence_text(rng, d)]) for d in seqs]
        return Workload(
            inputs=inputs,
            op=lambda x: _run_cli(cli, x[1]),
            check=lambda x, out: check.spectrum_errors(x[0], out),
            units=lambda x: check.moon_count(x[0]),
            size=lambda x: check.moon_count(x[0]),
            fingerprint=hash,
            failed=lambda out: out[0] != 0,
            min_ops=100,
        )
    if name == "sample":
        sizes = gen.spaced_sizes(120, 60, 3000, log=True)
        inputs = []
        for i, n in enumerate(sizes):
            degrees = gen.tree_degrees(rng, n, (gen.UNIFORM, gen.PATHLIKE)[i % 2])
            argv = [
                "conjecture", gen.sequence_text(rng, degrees),
                "--samples", str(SAMPLES), "--seed", str(gen.below(rng, 1 << 32)),
            ]
            inputs.append((degrees, argv))
        return Workload(
            inputs=gen.shuffled(rng, inputs),
            op=lambda x: _run_cli(cli, x[1]),
            check=lambda x, out: check.sample_errors(x[0], SAMPLES, int(x[1][-1]), out),
            units=lambda x: SAMPLES,
            size=lambda x: len(x[0]),
            fingerprint=hash,
            failed=lambda out: out[0] != 0,
            min_ops=200,
        )
    raise SystemExit(f"unknown workload {name!r}")


def trimmed_mean(values: list[float]) -> float:
    """Mean without the smallest and the largest value (of three or more)."""
    ordered = sorted(values)
    if len(ordered) > 2:
        ordered = ordered[1:-1]
    return sum(ordered) / len(ordered)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * pct / 100)) - 1]


def main(argv: list[str]) -> int:
    name, seed, seconds = argv[0], int(argv[1]), float(argv[2])
    trace, setup_only = argv[3] == "1", argv[4] == "1"
    w = build(name, seed)
    w.op(sorted(w.inputs, key=w.size)[len(w.inputs) // 2])  # untimed warm-up, median size
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, _import_package())
    ready = time.monotonic()
    cal = speed.calibrate()  # after ``ready``: not part of set-up
    if setup_only:
        print(json.dumps({"ready": ready, "cal": cal}))
        return 0

    latencies: list[float] = []  # per operation, at reference speed
    units = 0
    failed = 0
    errors: list[str] = []
    first: list = []
    rounds = 0
    wall = 0.0  # summed operation wall time; sets the length of the run
    pending: list[float] = []  # wall times since the last calibration
    pending_s = 0.0
    cals = [cal]

    def flush() -> None:
        nonlocal pending_s, cal
        after = speed.calibrate()
        cals.append(after)
        factor = speed.scale(cal, after)
        latencies.extend(t * factor for t in pending)
        pending.clear()
        pending_s = 0.0
        cal = after

    while wall < seconds or len(latencies) + len(pending) < w.min_ops:
        for i, x in enumerate(w.inputs):
            if tracer is not None:
                tracer.op = len(latencies) + len(pending)
            start = time.perf_counter()
            out = w.op(x)
            elapsed = time.perf_counter() - start
            pending.append(elapsed)
            pending_s += elapsed
            wall += elapsed
            ok = not w.failed(out)
            if rounds == 0:
                if ok:
                    errors += [f"{name} input {i}: {e}" for e in w.check(x, out)]
                first.append((w.units(x) if ok else 0, w.fingerprint(out) if ok else None))
            elif (w.fingerprint(out) if ok else None) != first[i][1]:
                errors.append(f"{name} input {i}: round {rounds} output differs from round 0")
            failed += not ok
            units += first[i][0]
            del out  # so that peak RSS holds one output at a time
            if pending_s >= CALIBRATE_EVERY_S:
                flush()
        rounds += 1
    if pending:
        flush()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    k = len(w.inputs)
    # Each input weighs the same in every round, so percentiles over the
    # inputs stand for those over all operations.
    per_input = [trimmed_mean(latencies[i::k]) for i in range(k)]
    timed = sum(latencies)

    report = {
        "ready": ready,
        "cal": cals[0],
        "errors": errors[:20],
        "attempted": len(latencies),
        "failed": failed,
        "rounds": rounds,
        "timed_s": timed,
        "wall_s": wall,
        "cal_median_s": statistics.median(cals),
        "throughput_per_s": units / timed,
        "latency_p50_ms": percentile(per_input, 50.0) * 1000.0,
        "latency_tail_ms": percentile(per_input, w.tail_pct) * 1000.0,
        "tail_pct": w.tail_pct,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
        tracer.write(os.path.join(BENCH, "out", f"spans-{name}-{seed}.jsonl"))
        report["layers"] = tracing.layer_metrics(tracer, rounds)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
