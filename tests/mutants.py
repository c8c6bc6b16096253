"""Mutation check of the certificate verifier.

Run from the repository root:

    python tests/mutants.py

It copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, applies one mutant at a time to the verify functions of
``src/treenullity/extremal.py`` in that copy, and runs
``tests/test_extremal.py tests/test_cli.py -x -q`` against it.  A mutant
that passes those tests is a survivor: a clause that no test makes bite.
The survivors are printed with their line (in the unmutated file) and
key.  A survivor is accepted when its key is in ``LEDGER``, which names the
check that implies its clause; the script exits 1 when a survivor is not.
Keys hold no line number, so they outlive edits elsewhere in the file.
``src/`` itself is never edited.

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
# Accepted survivors, keyed as in _sites, each with what implies its clause.
LEDGER = {
    ("_common_checks", "drop `covers`", "covers and rank == 2 * nu"):
        "nullity-formula and matching-<primary>-maximum fail whenever C does not cover",
    ("_common_checks", "drop `rank == 2 * nu`", "covers and rank == 2 * nu"):
        "rank A(T) = 2 nu(T) on every tree, and |C| = nu when C covers",
    ("_verify_min", "< -> <=", "0 < len(block)"):
        "branch-condition: the few-leaves branch has 2l < n, so n - 2l > 0",
    ("_verify_max", "drop `cert.m_s.size == n - a`", "cert.m_s.size == n - a and composed"):
        "matching-m_s-maximum asks |M_s| = nu = nu_min = n - a",
    (
        "_verify_max",
        "drop `kept.issuperset(m_k)`",
        "kept.issuperset(m_k) and kept.issuperset(m_j) and (len(extra) == (1 if actual_l_mk "
        "else 0)) and all((v_mk in e for e in extra))",
    ): "|M_s| = n - a with |M_K| = omega - 1, |M_J| = |V_J| and len(extra) leaves no room "
       "for M_s to miss an M_K edge",
}


def _sites(module: ast.Module) -> list[tuple[int, int, int, tuple[str, str, str]]]:
    """(node index in ast.walk order, operand or operator index, line, key)
    for every mutation site inside the target functions.  The key is the
    function, the operator and the text it acts on: a comparison's own two
    operands, or the whole conjunction an operand is dropped from.  Equal
    comparisons in one function share a key, so ledger only unique ones."""
    owner = {
        id(node): f.name
        for f in module.body
        if isinstance(f, ast.FunctionDef) and f.name in FUNCTIONS
        for node in ast.walk(f)
    }
    sites = []
    for k, node in enumerate(ast.walk(module)):
        name = owner.get(id(node))
        if name is None:
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    swap = f"{SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}"
                    one = ast.Compare(left=operands[i], ops=[op], comparators=[operands[i + 1]])
                    text = ast.unparse(one)
                    sites.append((k, i, node.lineno, (name, swap, text)))
        elif isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            for i, operand in enumerate(node.values):
                key = (name, f"drop `{ast.unparse(operand)}`", ast.unparse(node))
                sites.append((k, i, operand.lineno, key))
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
        for n, (k, i, line, key) in enumerate(sites, 1):
            target.write_text(_mutant(source, k, i))
            survived = _passes(work)
            if survived:
                survivors.append(key)
            verdict = "SURVIVED" if survived else "killed"
            print(f"[{n}/{len(sites)}] {verdict}: line {line}: {' | '.join(key)}", flush=True)
    print(f"\n{len(survivors)} survivors of {len(sites)} mutants")
    for key in survivors:
        print(f"  {' | '.join(key)}: {LEDGER.get(key, 'NOT IN THE LEDGER')}")
    for key in LEDGER.keys() - set(survivors):
        print(f"  killed now, drop from the ledger: {' | '.join(key)}")
    return 1 if set(survivors) - LEDGER.keys() else 0


if __name__ == "__main__":
    sys.exit(main())
