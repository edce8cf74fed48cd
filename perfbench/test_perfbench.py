"""Tests of the benchmark itself: correctness gates, negative controls, smoke runs.

    python3 -m pytest perfbench -q

Each gate must accept the program's real output and reject a deliberately
corrupted copy of it, mirroring the perturbed certificates of the verifier.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import exprs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import russell  # noqa: E402
import russell.cli  # noqa: E402

RELATIONS = {
    "A": "x + x^2*y + z^3 + t^2",
    "B": "x^2*y + z^3 + t^2",
    "Neil": "z^3 + t^2",
    "V": "x^2 + z^3 + t^2",
}


# -- reference arithmetic ------------------------------------------------------

@pytest.mark.parametrize("ring", sorted(RELATIONS))
def test_variety_points_lie_on_the_variety(ring):
    rng = random.Random(3)
    for _ in range(20):
        assert exprs.evaluate_text(RELATIONS[ring], exprs.variety_point(ring, rng)) == 0


def test_evaluator_follows_the_grammar():
    point = {"x": Fraction(2), "y": Fraction(-1, 3)}
    assert exprs.evaluate_text("-x^2 - 3/2*(x - y)*y", point) == Fraction(-4) + Fraction(7, 6)
    assert exprs.canonical_terms("-1/2*x^2*y + 3", ("x", "y")) == {
        (2, 1): Fraction(-1, 2), (0, 0): Fraction(3)}


# -- verify-seeds ----------------------------------------------------------------

def test_verify_gate_accepts_real_report_and_rejects_corruptions():
    report = russell.verifier.report_to_json(russell.verifier.run_all(0))
    assert workloads.check_verify_report(report) == []
    failed = json.loads(json.dumps(report))
    failed[3]["status"] = "fail"
    assert workloads.check_verify_report(failed)
    assert workloads.check_verify_report(report[:-1])
    extra = json.loads(json.dumps(report))
    extra[0]["ms"] = "1"
    assert workloads.check_verify_report(extra)


# -- nf-large ----------------------------------------------------------------------

NF = workloads.WORKLOADS["nf-large"]


@pytest.mark.parametrize("ring,text", [
    ("A", "(x + 2*y - 1/3*z + t + 1)^4"),
    ("B", "(x - y + z)^3*(2*x*y + t)^2"),
    ("V", "(x + z - 2*t + 1)^5"),
    ("Neil", "(z - 3/2*t + 1)^7"),
])
def test_nf_gate_accepts_real_output_and_rejects_changed_coefficient(ring, text):
    item = {"ring": ring, "form": "pow", "text": text}
    code, stdout = NF.op(russell, item)
    assert NF.check(russell, item, (code, stdout), random.Random(0)) == []
    normal_form = json.loads(stdout)["normal_form"]
    head, sep, rest = normal_form.partition("*")
    corrupted = f"{Fraction(head) + 1}{sep}{rest}"
    assert exprs.canonical_terms(corrupted, exprs.RING_VARIABLES[ring])
    payload = json.dumps({"ring": ring, "normal_form": corrupted})
    assert NF.check(russell, item, (0, payload), random.Random(0))


def test_nf_gate_rejects_unreduced_output():
    text = "x^2*y + 1"
    out = json.dumps({"ring": "A", "normal_form": "1*x^2*y + 1"})
    problems = workloads.check_normal_form(russell, "A", text, json.loads(out)["normal_form"],
                                           random.Random(0))
    assert any("divisible" in p for p in problems)
    assert any("idempotent" in p for p in problems)


# -- lnd-orbits --------------------------------------------------------------------

LND = workloads.WORKLOADS["lnd-orbits"]
LND_ITEM = {"base": "d1", "a": "2*x*z + 1", "b": "3*t + 1", "s": "3/2"}


def test_lnd_gate_accepts_real_record():
    record = LND.op(russell, LND_ITEM)
    assert record["chain_end"] == "-2*x^2"  # the top part of a is 1
    assert workloads.check_lnd_record(record, random.Random(0)) == []


@pytest.mark.parametrize("corrupt", [
    # an image with a non-kernel factor: y*d(t) breaks the relation
    lambda r: r["images"].__setitem__("t", f"({r['images']['t']})*y"),
    lambda r: r["induced"].__setitem__("y", f"({r['induced']['y']})*y"),
    lambda r: r["images"].__setitem__("x", "1*z"),
    lambda r: r.__setitem__("F_minus", True),
    lambda r: r.__setitem__("ell", 0),
    lambda r: r.__setitem__("flow_x", "1*x + 1*tau"),
    lambda r: r.__setitem__("chain_end", "-2*x^2*z"),
    lambda r: r.__setitem__("verdict", "Unknown"),
])
def test_lnd_gate_rejects_corrupted_record(corrupt):
    record = LND.op(russell, LND_ITEM)
    corrupt(record)
    assert workloads.check_lnd_record(record, random.Random(0))


def test_generated_multipliers_have_a_pure_x_power_on_top():
    items = LND.inputs(5)
    for _ in range(30):
        item = next(items)
        terms = exprs.canonical_terms(item["a"], workloads.KERNEL_VARS[item["base"]])
        least = min(m[0] for m in terms)
        assert [m for m in terms if m[0] == least] == [(least, 0)], item


# -- tracing ---------------------------------------------------------------------

def test_tracer_wraps_aliases_and_every_importing_module():
    tracer = tracing.Tracer()
    originals = (russell.poly.Poly.__mul__, russell.derivations.flow, russell.cli.flow,
                 russell.verifier.flow, russell.derivations.Derivation.apply)
    tracer.install()
    try:
        Poly, Derivation = russell.poly.Poly, russell.derivations.Derivation
        assert Poly.__rmul__ is Poly.__mul__ is not originals[0]
        assert Derivation.__call__ is Derivation.apply is not originals[4]
        assert russell.derivations.flow is russell.cli.flow is russell.verifier.flow
        assert russell.flow is russell.derivations.flow is not originals[1]
        assert russell.RingEndomorphism.__call__ is russell.RingEndomorphism.apply
    finally:
        tracer.uninstall()
    assert (russell.poly.Poly.__mul__, russell.derivations.flow, russell.cli.flow,
            russell.verifier.flow, russell.derivations.Derivation.apply) == originals


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    record = tracer.run_op(LND.op, russell, LND_ITEM)
    assert workloads.check_lnd_record(record, random.Random(0)) == []
    op = tracer.stats[tracing.OP_SPAN]
    total_self = sum(stat.self_ns for stat in tracer.stats.values())
    assert total_self == op.total_ns
    assert tracer.stats["derivations.flow"].calls == 2
    assert tracer.orbit_steps > 0 and tracer.lnd_unknown == 0
    by_id = {span[0]: span for span in tracer.spans}
    for span_id, name, start, end, parent, _ in tracer.spans:
        assert start <= end
        if parent >= 0:
            assert by_id[parent][2] <= start and end <= by_id[parent][3]


# -- the benchmark script, run as a subprocess ----------------------------------

def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    section = bench["per_layer" if trace else "end_to_end"]
    assert {name: v["unit"] for name, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section}
    meta = json.loads(proc.stdout.strip().splitlines()[-2])["meta"]
    assert meta["seed"] == 7 and len(meta["op_sizes"]) == result["attempted"]


def test_refuses_to_run_without_the_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = _run(bare, "--workload", "verify-seeds", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        tracing.per_layer_spec(workloads.FROZEN_CHECK_IDS)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    setup_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert all(0 < m["bound"] <= setup_bound <= 0.25 for m in bench["end_to_end"])
