"""Every script under demos/ runs to completion against the package in src/,
and prints exactly the bytes pinned here by SHA-256."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# A change that alters a demo's output must re-pin its digest on purpose.
STDOUT_SHA256 = {
    "01_formulas_tour.py": "6cdda830b76a62f3c1482fd1d2b3c55c752861ceb69608040f5502197600d374",
    "02_extremal_constructions.py":
        "c040226742b6e842128aa7ac529b44f6a4dcee917f750008fcdf036c0a52809d",
    "03_exhaustive_spectra.py": "bfaa117eb6fafb847d6b55a1bc3e01592d6494d7ec0326519ef2b5ba68bacd80",
    "04_sampling_and_conjecture.py":
        "51ab0421a207965048a25170f1d95f0858f91d6cc49b8d4697b15ee93916d5c0",
}


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_0(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
