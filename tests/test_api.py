"""The public names resolve, and the benchmark's tracer still wraps them.

``bench/tracing.py`` patches module functions and ``LabeledTree`` methods by
name, so a deleted or renamed one breaks every traced benchmark run while
the rest of the suite passes.  The traced run below reads ``bench/`` and
changes nothing there.
"""

import pathlib
import subprocess
import sys

import treenullity

ROOT = pathlib.Path(__file__).resolve().parent.parent

TRACED_CERTIFICATION = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import tracing
from treenullity import cli, degseq, extremal, oracle, treegraph
tracer = tracing.Tracer()
tracing.install(tracer, (cli, degseq, extremal, oracle, treegraph))
s = degseq.parse_sequence("1,1,1,1,1,1,2,2,3,3,4")
for cert in (extremal.build_min(s), extremal.build_max(s)):
    assert extremal.verify_certificate(cert, s).ok
tracing.layer_metrics(tracer, 1)
print(" ".join(sorted(tracer.calls)))
"""


def test_bench_self_check_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "check.py")],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "self-test: ok"


def test_every_exported_name_resolves():
    assert [name for name in treenullity.__all__ if not hasattr(treenullity, name)] == []


def test_traced_certification_runs():
    script = TRACED_CERTIFICATION.format(bench=str(ROOT / "bench"), src=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    spans = set(proc.stdout.split())
    assert {
        "extremal.build_min",
        "extremal.build_max",
        "extremal.verify_certificate",
        "treegraph.LabeledTree",
    } <= spans, proc.stdout
