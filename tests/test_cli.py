import io
import json
import subprocess
import sys

import pytest

from russell.cli import main

D1 = {"ring": "A", "dx": "0", "dy": "-2*t", "dz": "0", "dt": "x^2"}
DELTA1 = {"ring": "B", "dx": "0", "dy": "-2*t", "dz": "0", "dt": "x^2"}


@pytest.fixture
def d1_file(tmp_path):
    path = tmp_path / "d1.json"
    path.write_text(json.dumps(D1))
    return str(path)


@pytest.fixture
def delta1_file(tmp_path):
    path = tmp_path / "delta1.json"
    path.write_text(json.dumps(DELTA1))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_nf_text(capsys):
    code, out, _ = run(capsys, "nf", "--ring", "A", "--expr", "x^2*y")
    assert code == 0
    assert out.strip() == "-1*x + -1*z^3 + -1*t^2"


def test_nf_json(capsys):
    code, out, _ = run(capsys, "nf", "--ring", "B", "--expr", "x^2*y", "--json")
    assert code == 0
    assert json.loads(out) == {"ring": "B", "normal_form": "-1*z^3 + -1*t^2"}


def test_nf_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("z^3 + t^2"))
    code, out, _ = run(capsys, "nf", "--ring", "Neil")
    assert code == 0
    assert out.strip() == "0"


def test_expr_flag_wins_over_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("t"))
    code, out, _ = run(capsys, "nf", "--ring", "A", "--expr", "z")
    assert code == 0
    assert out.strip() == "1*z"


def test_deg(capsys):
    assert run(capsys, "deg", "--expr", "y")[1].strip() == "2"
    assert run(capsys, "deg", "--expr", "x^2*y")[1].strip() == "0"
    assert run(capsys, "deg", "--expr", "0")[1].strip() == "-inf"
    code, out, _ = run(capsys, "deg", "--expr", "x", "--json")
    assert code == 0 and json.loads(out)["deg"] == -1


def test_gr(capsys):
    code, out, _ = run(capsys, "gr", "--expr", "y + x", "--json")
    assert code == 0
    assert json.loads(out) == {"gr": "1*y", "deg": 2}


def test_parse_check_roundtrip(capsys):
    code, out, _ = run(capsys, "parse-check", "--ring", "A", "--expr", "-(x + t)^2")
    assert code == 0
    assert out.strip() == "-1*x^2 + -2*x*t + -1*t^2"


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "nf", "--ring", "A", "--expr", "x ^")
    assert code == 2
    assert "position 3" in err


def test_unknown_ring_exit_2(capsys):
    code = main(["nf", "--ring", "Q", "--expr", "x"])
    capsys.readouterr()
    assert code == 2


def test_check_derivation_good(capsys, d1_file):
    code, out, _ = run(capsys, "check-derivation", "--file", d1_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["compatible"] is True
    assert payload["ring"] == "A"


def test_check_derivation_bad_exit_1(capsys, monkeypatch):
    bad = {"ring": "A", "dx": "0", "dy": "1", "dz": "0", "dt": "0"}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(bad)))
    code, out, _ = run(capsys, "check-derivation", "--json")
    assert code == 1
    assert json.loads(out) == {"compatible": False, "residue": "1*x^2"}


def test_lnd(capsys, d1_file):
    code, out, _ = run(capsys, "lnd", "--file", d1_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "LocallyNilpotent"
    assert payload["orders"] == {"x": 1, "y": 3, "z": 1, "t": 2}


def test_lnd_unknown_exit_1(capsys, d1_file):
    code, out, _ = run(capsys, "lnd", "--file", d1_file, "--bound", "2")
    assert code == 1
    assert "Unknown" in out


def test_ell(capsys, d1_file):
    code, out, _ = run(capsys, "ell", "--file", d1_file)
    assert code == 0 and out.strip() == "-2"


def test_induce(capsys, d1_file):
    code, out, _ = run(capsys, "induce", "--file", d1_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ring"] == "B"
    assert payload["dy"] == "-2*t"


def test_flow(capsys, d1_file):
    code, out, _ = run(capsys, "flow", "--file", d1_file, "--json")
    assert code == 0
    images = json.loads(out)["images"]
    assert images["t"] == "1*x^2*tau + 1*t"
    assert images["x"] == "1*x"


def test_invariance_exit_codes(capsys, delta1_file):
    code, out, _ = run(capsys, "invariance", "--file", delta1_file, "--locus", "F_plus")
    assert code == 0 and "invariant" in out
    code, out, _ = run(capsys, "invariance", "--file", delta1_file, "--locus", "F_minus")
    assert code == 1 and "not invariant" in out


def test_kernel_chain(capsys, delta1_file):
    code, out, _ = run(capsys, "kernel-chain", "--file", delta1_file,
                       "--expr", "y", "--json")
    assert code == 0
    assert json.loads(out) == {"steps": 2, "element": "-2*x^2", "deg": -2}


def test_kernel_chain_bound_too_small_exit_2(capsys, delta1_file):
    code, out, err = run(capsys, "kernel-chain", "--file", delta1_file,
                         "--bound", "1", "--expr", "y")
    assert code == 2 and out == ""
    assert "no kernel element reached within 1 applications" in err


def test_kernel_chain_stdin_derivation_needs_expr(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(DELTA1)))
    code, _, err = run(capsys, "kernel-chain")
    assert code == 2
    assert "--expr" in err


def test_random_point_deterministic(capsys):
    code, out1, _ = run(capsys, "random-point", "--surface", "W", "--seed", "4", "--json")
    assert code == 0
    code, out2, _ = run(capsys, "random-point", "--surface", "W", "--seed", "4", "--json")
    assert out1 == out2
    point = json.loads(out1)["point"]
    assert set(point) == {"x", "y", "z", "t"}
    assert point["x"] != "0"


@pytest.mark.parametrize("extra,named", [({"dy": None}, "'dy'"), ({"extra": 1}, "'extra'")])
def test_bad_derivation_json_exit_2(capsys, monkeypatch, extra, named):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({**D1, **extra})))
    code, out, err = run(capsys, "check-derivation")
    assert code == 2 and out == ""
    assert named in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "lnd", "--file", "/nonexistent/d.json")
    assert code == 2 and "error" in err


def test_verify_paper_json(capsys):
    code, out, _ = run(capsys, "verify-paper", "--seed", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert len(report) == 28
    for entry in report:
        assert set(entry) == {"id", "paper_ref", "status", "witness"}
        assert entry["status"] == "pass"


def test_verify_paper_text(capsys):
    code, out, _ = run(capsys, "verify-paper", "--seed", "0")
    assert code == 0
    assert "28/28 checks passed" in out


def test_verify_paper_has_no_samples_flag(capsys):
    code, _, err = run(capsys, "verify-paper", "--samples", "3")
    assert code == 2
    assert "--samples" in err


def test_repeated_main_calls_match_fresh_processes(capsys, d1_file):
    """main reuses one parser: each call in a long-lived process gives the
    exit code and stdout that a fresh process gives for the same argv."""
    calls = [["nf", "--ring", "A", "--expr", "x^2*y + 1/3*t", "--json"],
             ["nf", "--ring", "Q", "--expr", "x"],  # argparse error
             ["nf", "--ring", "A", "--expr", "x ^"],  # ParseError
             ["lnd", "--file", d1_file, "--json"]]
    in_process = [run(capsys, *argv)[:2] for argv in calls + calls]
    fresh = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "russell", *argv],
                              capture_output=True, text=True)
        fresh.append((proc.returncode, proc.stdout))
    assert [code for code, _ in fresh] == [0, 2, 2, 0]
    assert in_process == fresh + fresh


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "russell", "nf", "--ring", "A", "--expr", "x^2*y"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "-1*x + -1*z^3 + -1*t^2"
