"""CLI behavior: output schemas, formats, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from treenullity import parse_edge_list, parse_sequence, spectrum
from treenullity.cli import run

FIG_1A = "1,1,1,1,1,1,2,2,3,3,4"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid(self, capsys):
        code, out, err = invoke(capsys, "validate", "1,1,2,2,2")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload == {"valid": True, "n": 5, "degrees": [1, 1, 2, 2, 2], "l": 2, "m": 4, "a": 3}

    def test_invalid_exit_1(self, capsys):
        code, out, err = invoke(capsys, "validate", "1,1,1")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "NotTreeSum"

    def test_table(self, capsys):
        code, out, _ = invoke(capsys, "validate", "1,1", "--format", "table")
        assert code == 0 and "valid" in out


class TestBounds:
    def test_figure_sequence(self, capsys):
        code, out, _ = invoke(capsys, "bounds", FIG_1A)
        payload = json.loads(out)
        assert code == 0
        assert payload["nu_max"] == 5 and payload["nullity_min"] == 1
        assert payload["nu_min"] == 3 and payload["nullity_max"] == 5
        assert list(payload) == [
            "n", "l", "m", "a", "nu_min", "nu_max",
            "nullity_min", "nullity_max", "alpha_min", "alpha_max", "extremal_equal",
        ]


class TestConstruct:
    def test_requires_exactly_one_mode(self, capsys):
        code, _, err = invoke(capsys, "construct", "1,1,2")
        assert code == 1
        assert json.loads(err)["error"] == "UsageError"
        code, _, err = invoke(capsys, "construct", "1,1,2", "--min", "--max")
        assert code == 1

    def test_star_dot_bytes(self, capsys):
        code, out, _ = invoke(
            capsys, "construct", "--max", "1,1,1,1,1,1,1,1,8", "--format", "dot"
        )
        assert code == 0
        expected = "graph {\n" + "".join(f"  v{i} -- v9;\n" for i in range(1, 9)) + "}\n"
        assert out == expected

    def test_edges_reparse(self, capsys):
        code, out, _ = invoke(capsys, "construct", "--min", FIG_1A, "--format", "edges")
        assert code == 0
        tree = parse_edge_list(out)
        assert tree.degree_multiset() == parse_sequence(FIG_1A)

    def test_json_certificate(self, capsys):
        code, out, _ = invoke(capsys, "construct", "--max", FIG_1A)
        payload = json.loads(out)
        assert payload["kind"] == "max-nullity"
        assert payload["nullity"] == 5
        assert {"tree", "v_k", "omega", "v_mk", "l_mk", "p_k", "m_k", "m_j", "m_s"} <= set(payload)

    def test_table(self, capsys):
        code, out, _ = invoke(capsys, "construct", "--min", "1,1,2,2,2", "--format", "table")
        assert code == 0 and "branch" in out

    def test_byte_identical_reruns(self, capsys):
        a = invoke(capsys, "construct", "--max", FIG_1A)
        b = invoke(capsys, "construct", "--max", FIG_1A)
        assert a == b


class TestVerify:
    def test_ok(self, capsys):
        code, out, _ = invoke(capsys, "verify", FIG_1A)
        payload = json.loads(out)
        assert code == 0
        assert payload["ok"] is True
        assert payload["min"]["ok"] and payload["max"]["ok"]
        names = [c["name"] for c in payload["min"]["checks"]]
        assert "rank-cross-check" in names

    def test_rank_limit_flag(self, capsys):
        code, out, _ = invoke(capsys, "verify", FIG_1A, "--rank-limit", "4")
        payload = json.loads(out)
        assert code == 0
        entry = next(
            c for c in payload["min"]["checks"] if c["name"] == "rank-cross-check"
        )
        assert "skipped" in entry["detail"]


class TestSpectrum:
    def test_small(self, capsys):
        code, out, _ = invoke(capsys, "spectrum", "1,1,1,2,2,3")
        payload = json.loads(out)
        assert code == 0
        assert payload["total"] == "12"
        assert payload["by_nullity"] == {"0": "6", "2": "6"}

    def test_cap_exit_2(self, capsys):
        code, _, err = invoke(capsys, "spectrum", "1,1,1,2,2,3", "--cap", "3")
        assert code == 2
        assert json.loads(err)["error"] == "EnumerationCapExceeded"

    def test_jobs_byte_identical(self, capsys):
        seq = "1,1,1,1,2,2,2,2,2,3,3"
        base = invoke(capsys, "spectrum", seq, "--jobs", "1")
        for jobs in ("2", "4"):
            assert invoke(capsys, "spectrum", seq, "--jobs", jobs) == base


class TestConjecture:
    def test_exhaustive(self, capsys):
        code, out, _ = invoke(capsys, "conjecture", "1,1,1,2,2,3")
        payload = json.loads(out)
        assert code == 0
        assert payload["mode"] == "exhaustive"
        assert payload["complete"] is True
        assert payload["gaps"] == []

    def test_sampling_flags(self, capsys):
        code, out, _ = invoke(
            capsys, "conjecture", "1,1,1,2,2,3", "--cap", "3", "--samples", "200", "--seed", "9"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["mode"] == "sampling"
        assert payload["samples"] == 200 and payload["seed"] == 9

    def test_jobs_byte_identical(self, capsys):
        seq = "1,1,1,1,2,2,2,2,2,3,3"
        base = invoke(capsys, "conjecture", seq, "--jobs", "1")
        assert invoke(capsys, "conjecture", seq, "--jobs", "3") == base


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "1,1,2,2", "--cap", "-1"],
        ["conjecture", "1,1,2,2", "--cap", "-1"],
        ["conjecture", "1,1,1,2,2,3", "--cap", "3", "--samples", "-5"],
        ["verify", "1,1,2,2", "--rank-limit", "-3"],
        ["spectrum", "1,1,2,2", "--jobs", "0"],
        ["conjecture", "1,1,2,2", "--jobs", "-2"],
    ],
)
def test_out_of_range_numeric_flags_exit_1(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "UsageError"


class TestBatch:
    def test_file_mode(self, capsys, tmp_path):
        f = tmp_path / "seqs.txt"
        f.write_text(
            "# two sequences and a comment\n"
            "1,1,2\n"
            "1,1,1,1,1,1,2,2,3,3,4   # inline comment\n"
        )
        code, out, _ = invoke(capsys, "bounds", "--file", str(f))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["n"] == 3
        assert json.loads(lines[1])["n"] == 11

    def test_batch_rejects_non_json(self, capsys, tmp_path):
        f = tmp_path / "seqs.txt"
        f.write_text("1,1,2\n")
        code, _, err = invoke(capsys, "bounds", "--file", str(f), "--format", "table")
        assert code == 1
        assert json.loads(err)["error"] == "UsageError"

    def test_both_sources_rejected(self, capsys, tmp_path):
        f = tmp_path / "seqs.txt"
        f.write_text("1,1,2\n")
        code, _, err = invoke(capsys, "bounds", "1,1,2", "--file", str(f))
        assert code == 1

    def test_missing_source(self, capsys):
        code, _, err = invoke(capsys, "bounds")
        assert code == 1


class TestEmittedTreesReparse:
    @pytest.mark.parametrize("mode", ["--min", "--max"])
    def test_edge_output_revalidates(self, capsys, mode):
        code, out, _ = invoke(capsys, "construct", mode, "1,1,1,1,2,2,2,2,2,3,3",
                              "--format", "edges")
        assert code == 0
        tree = parse_edge_list(out)  # raises on any structural defect
        assert tree.n == 11


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "treenullity.cli", "bounds", "1,1,2,2,2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["a"] == 3


def test_spectrum_cli_matches_library(capsys):
    s = parse_sequence("1,1,1,2,2,3")
    code, out, _ = invoke(capsys, "spectrum", "1,1,1,2,2,3")
    assert json.loads(out) == spectrum(s).to_json_dict()
