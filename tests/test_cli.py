"""CLI behavior: output schemas, formats, exit codes, determinism."""

import hashlib
import json
import subprocess
import sys

import pytest

from treenullity import (
    build_max,
    build_min,
    cli,
    parse_edge_list,
    parse_sequence,
    random_degree_sequence,
    spectrum,
    tree_degree_sequences,
)
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

    @pytest.mark.parametrize("command", ["validate", "bounds", "verify", "spectrum"])
    @pytest.mark.parametrize(
        "text, bad", [("1_1,1", "1_1"), ("\u0661,\u0661", "\u0661"), ("1,\uff11", "\uff11")]
    )
    def test_non_ascii_integer_token_exit_1(self, capsys, command, text, bad):
        # int() alone reads 1_1 as 11 and these digits as 1.
        code, out, err = invoke(capsys, command, text)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "ParseError", "message": f"not an integer: {bad!r}"}


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


# Every command below runs on each golden sequence; one SHA-256 per sequence
# covers the exit code, stdout and stderr of all of them, in this order.
GOLDEN_COMMANDS = (
    ("validate",),
    ("validate", "--format", "table"),
    ("bounds",),
    ("bounds", "--format", "table"),
    *(
        ("construct", mode, "--format", fmt)
        for mode in ("--min", "--max")
        for fmt in ("json", "table", "edges", "dot")
    ),
    ("verify",),
    ("verify", "--format", "table"),
    ("verify", "--rank-limit", "200"),
    ("spectrum",),
    ("spectrum", "--format", "table"),
)

GOLDEN_SEQUENCES = {
    "fig1a": FIG_1A,
    "two-internal-3s": "1,1,1,1,2,2,2,2,2,3,3",
    "near-path": "1,1,2,2,2,2,2,2",
    "star": "1,1,1,1,1,1,1,1,8",
    "fig2b": "1,1,1,1,1,1,1,1,1,1,2,4,4,4,4",
    "single-edge": "1,1",
    "few-leaves": "1,1,1,2,2,2,2,2,3",
    "random-153": str(random_degree_sequence(153, seed=153)),
}

GOLDEN_DIGESTS = {
    "few-leaves": "c889a8fef9d498eeb81717f68c79c0352aa909adb51e8160173e6bbdc4ebfa22",
    "fig1a": "dfe31d74795db34748df1f20f452e1421c4161163e50d02b8355836f3d2f8838",
    "fig2b": "2ccecbd03f3fb113f9c5124391c00d0ac28ea350de05557ba110d55726b81e0f",
    "near-path": "989e979997e4854464ac531f323c46a9a629b75ca193e684ad54a73f3eee917d",
    "random-153": "75ff99ad8f102d773c52207a761759901eba5644387950e39b58ecbd13d024fe",
    "single-edge": "d2ef12e9b7f19929c5138be472fd94333fb0e9a1e2eddd4718fb11eb3e09d310",
    "star": "9dc98d220e718e1f4eeff2534f9c1c8c77bddacbbee1db81088e5b7cdb999b48",
    "two-internal-3s": "8beb51780f6d0d0b9440ac2af6d974ec52dba4d0d35095e4bd0ac571c9ddb810",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SEQUENCES))
def test_golden_outputs(capsys, name):
    """Exit code, stdout and stderr of every command above, byte for byte."""
    text = GOLDEN_SEQUENCES[name]
    digest = hashlib.sha256()
    for command in GOLDEN_COMMANDS:
        code, out, err = invoke(capsys, command[0], text, *command[1:])
        digest.update(f"{' '.join(command)}\0{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == GOLDEN_DIGESTS[name]


def test_golden_certificates():
    """Both builders' certificates, byte for byte: every sequence with
    n <= 13 and one random sequence per seventh n from 14 to 1995."""
    sequences = [s for n in range(2, 14) for s in tree_degree_sequences(n)]
    sequences += [random_degree_sequence(n, n) for n in range(14, 2000, 7)]
    assert len(sequences) == 479
    digest = hashlib.sha256()
    for s in sequences:
        for cert in (build_min(s), build_max(s)):
            digest.update(json.dumps(cert.to_json_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == "7ea400bfcee7d74cefab8615fd74aed1a8d3963a6792e23ccaf02b5c81eb154c"


# verify at n = 2000, where the path block, P_K and the off-path leaf scan
# run over long stretches and the rank cross-check is skipped: a random
# sequence, and one with 300 leaves, 298 degree-3 and 1,402 degree-2 vertices.
GOLDEN_VERIFY_SEQUENCES = {
    "random-2000": str(random_degree_sequence(2000, seed=7)),
    "path-like-2000": ",".join(["1"] * 300 + ["2"] * 1402 + ["3"] * 298),
}

GOLDEN_VERIFY_DIGESTS = {
    "path-like-2000": "a0435d0527dcaf9f52f64a106f7c63538c8bcef1b567efa42815c1c13043d110",
    "random-2000": "e9d2012a6125441812a71637b8e4244e5d10264a3ff806dc0eb92e640c7dc248",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_VERIFY_DIGESTS))
def test_golden_verify_at_scale(capsys, name):
    """Exit code, stdout and stderr of verify in json and table, byte for byte."""
    text = GOLDEN_VERIFY_SEQUENCES[name]
    digest = hashlib.sha256()
    for command in (("verify",), ("verify", "--format", "table")):
        code, out, err = invoke(capsys, command[0], text, *command[1:])
        digest.update(f"{' '.join(command)}\0{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == GOLDEN_VERIFY_DIGESTS[name]


# Each golden sequence with n <= 11 runs exhaustively; fig1a and random-153
# also run the sampler.  Every run is taken in json and in table format.
GOLDEN_CONJECTURE_EXHAUSTIVE = ("fig1a", "two-internal-3s", "near-path", "star",
                                "single-edge", "few-leaves")
GOLDEN_CONJECTURE_SAMPLED = ("fig1a", "random-153")

GOLDEN_CONJECTURE_DIGESTS = {
    "few-leaves": "da3bb2e4ebd31a7426487627b74d4d21d301462560f260bda0433f9225a4faed",
    "fig1a": "e8b5302760a03599239ce22f210e089d6c3fd7e148c8adf636e60af6e7d24650",
    "near-path": "0bf9ac4296c1664a217562dec4fbaf249c41f863fb6e6663fc8dbb8519a33543",
    "random-153": "8c4dddc9546e30d7249788f76f19adefe2975f53f47e67f4411470f541f0ec22",
    "single-edge": "ff0ff2b7736cc8e16e0b18e14fb6f299996cfb9ba84160455aaee64125c5cbc6",
    "star": "8819f3cc30e40784763f7267f0ffc5e95c536f9e64e4b278ac3f8005eecc21da",
    "two-internal-3s": "f7f8672db98942a13a014857d4c7f70e828405825e176859a85de74feb66e50b",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONJECTURE_DIGESTS))
def test_golden_conjecture_outputs(capsys, name):
    """Exit code, stdout and stderr of every conjecture run above, byte for byte."""
    text = GOLDEN_SEQUENCES[name]
    flags = []
    if name in GOLDEN_CONJECTURE_EXHAUSTIVE:
        flags.append(())
    if name in GOLDEN_CONJECTURE_SAMPLED:
        flags.append(("--cap", "0", "--samples", "16", "--seed", "5"))
    digest = hashlib.sha256()
    for extra in flags:
        for fmt in ("json", "table"):
            command = ("conjecture", *extra, "--format", fmt)
            code, out, err = invoke(capsys, command[0], text, *command[1:])
            digest.update(f"{' '.join(command)}\0{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == GOLDEN_CONJECTURE_DIGESTS[name]


def test_parser_reused_without_leaks(capsys, tmp_path):
    """One parser serves every run in a process; no option carries over."""
    assert cli._build_parser() is cli._build_parser()
    big = GOLDEN_SEQUENCES["random-153"]  # n = 153: sampled, above the rank limit
    batch = tmp_path / "seqs.txt"
    batch.write_text(f"1,1,2\n{FIG_1A}\n")
    runs = (
        ("conjecture", big, "--samples", "3", "--seed", "7"),
        ("conjecture", big, "--cap", "0", "--samples", "2"),
        ("verify", big, "--rank-limit", "200"),
        ("verify", big),
        ("spectrum", FIG_1A, "--cap", "0"),
        ("spectrum", FIG_1A),
        ("construct", FIG_1A),
        ("bounds", "--file", str(batch)),
    )
    first = [invoke(capsys, *argv) for argv in runs]
    assert [invoke(capsys, *argv) for argv in runs] == first

    seeded, default_seed, ranked, skipped, capped, counted, usage, batched = first
    assert seeded[0] == 0 and json.loads(seeded[1])["seed"] == 7
    assert default_seed[0] == 0
    assert json.loads(default_seed[1])["seed"] == 0
    assert json.loads(default_seed[1])["samples"] == 2

    def rank_detail(out):
        checks = json.loads(out)["min"]["checks"]
        return next(c["detail"] for c in checks if c["name"] == "rank-cross-check")

    assert ranked[0] == 0 and not rank_detail(ranked[1]).startswith("skipped")
    assert skipped[0] == 0 and rank_detail(skipped[1]).startswith("skipped")
    assert capped[0] == 2 and counted[0] == 0
    assert usage[0] == 1 and json.loads(usage[2])["error"] == "UsageError"
    assert batched[0] == 0 and len(batched[1].splitlines()) == 2
