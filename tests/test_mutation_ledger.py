"""The mutation check's ledger names clauses that still exist.

``mutants.py`` runs for minutes and only prints a ledger entry whose clause
has gone.  This test runs no mutant: it reads ``extremal.py`` and fails as
soon as an edit removes a target function or a ledgered clause.
"""

import ast

from mutants import FUNCTIONS, LEDGER, ROOT, TARGET, _sites


def test_ledger_keys_are_current_sites():
    module = ast.parse((ROOT / TARGET).read_text())
    defined = {f.name for f in module.body if isinstance(f, ast.FunctionDef)}
    assert set(FUNCTIONS) <= defined
    keys = {key for _, _, _, key in _sites(module)}
    assert LEDGER.keys() <= keys
