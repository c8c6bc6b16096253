"""Mutation check of the certificate verifier.

Run from the repository root:

    python tests/mutants.py

It copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, applies one mutant at a time to the verify functions of
``src/treenullity/extremal.py`` in that copy, and runs
``tests/test_extremal.py tests/test_cli.py -x -q`` against it.  A mutant
that passes those tests is a survivor: a clause that no test makes bite.
The survivors are printed with their line (in the unmutated file) and
operator.  ``src/`` itself is never edited.

Operators: swap one comparison (``==``/``!=``, ``<``/``<=``, ``>``/``>=``,
``in``/``not in``), or drop one operand of an ``and``.  pytest does not
collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TARGET = Path("src/treenullity/extremal.py")
FUNCTIONS = ("_common_checks", "_verify_min", "_verify_max", "_cover_nu", "_bad_fields")
TESTS = ("tests/test_extremal.py", "tests/test_cli.py")
SWAPS = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt,
    ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
SYMBOLS = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
    ast.Gt: ">", ast.GtE: ">=", ast.In: "in", ast.NotIn: "not in",
}


def _sites(module: ast.Module) -> list[tuple[int, int, str]]:
    """(node index in ast.walk order, operand or operator index, label) for
    every mutation site inside the target functions."""
    targets = {
        id(node)
        for f in module.body
        if isinstance(f, ast.FunctionDef) and f.name in FUNCTIONS
        for node in ast.walk(f)
    }
    sites = []
    for k, node in enumerate(ast.walk(module)):
        if id(node) not in targets:
            continue
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    new = SYMBOLS[SWAPS[type(op)]]
                    sites.append((k, i, f"line {node.lineno}: {SYMBOLS[type(op)]} -> {new}"))
        elif isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            for i, operand in enumerate(node.values):
                text = ast.unparse(operand)
                text = text if len(text) <= 60 else text[:57] + "..."
                sites.append((k, i, f"line {operand.lineno}: drop `and` operand {text}"))
    return sites


def _mutant(source: str, k: int, i: int) -> str:
    """The source with site (k, i) of :func:`_sites` mutated."""
    module = ast.parse(source)
    node = list(ast.walk(module))[k]
    if isinstance(node, ast.Compare):
        node.ops[i] = SWAPS[type(node.ops[i])]()
    else:
        del node.values[i]  # a one-operand BoolOp unparses as that operand
    return ast.unparse(module)


def _passes(workdir: Path) -> bool:
    cmd = [sys.executable, "-m", "pytest", *TESTS, "-x", "-q", "-p", "no:cacheprovider"]
    env = {**os.environ, "PYTHONPATH": str(workdir / "src")}  # for the CLI subprocess tests
    return subprocess.run(cmd, cwd=workdir, env=env, capture_output=True).returncode == 0


def main() -> int:
    source = (ROOT / TARGET).read_text()
    sites = _sites(ast.parse(source))
    survivors = []
    with tempfile.TemporaryDirectory(prefix="treenullity-mutants-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", work / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work / "pyproject.toml")
        target = work / TARGET
        # Mutants are written by ast.unparse, so the baseline is too.
        target.write_text(ast.unparse(ast.parse(source)))
        if not _passes(work):
            print("the unmutated copy fails the tests; no mutant was run")
            return 2
        for n, (k, i, label) in enumerate(sites, 1):
            target.write_text(_mutant(source, k, i))
            survived = _passes(work)
            if survived:
                survivors.append(label)
            print(f"[{n}/{len(sites)}] {'SURVIVED' if survived else 'killed'}: {label}", flush=True)
    print(f"\n{len(survivors)} survivors of {len(sites)} mutants")
    for label in survivors:
        print(f"  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
