import json

from russell.parse import parse
from russell.poly import Context
from russell.quotient import RING_A
from russell.verifier import (CheckResult, _check, all_passed, format_report,
                              report_to_json, run_all)

EXPECTED_IDS = [
    "embedding",
    "embedding_negative_control",
    "fiber_over_zero",
    "flow_identities",
    "gm_action",
    "isotropy_order_two",
    "lemma_dichotomy_d1",
    "lemma_dichotomy_d2",
    "limits_degree_signs",
    "normalization_d1",
    "normalization_d2",
    "random_basis_shape",
    "random_deg_additivity",
    "random_deg_oracle_agreement",
    "random_eval_homomorphism",
    "random_gr_multiplicative",
    "random_homogeneous_components",
    "random_nf_confluence",
    "random_nf_soundness",
    "random_oracle_concordance",
    "random_parser_roundtrip",
    "random_partial_leibniz",
    "random_poly_ring_axioms",
    "random_substitution_composition",
    "singular_locus",
    "singular_locus_negative_control",
    "theorem_invariance_examples",
    "trivialization",
]

BLOWUP_CTX = Context(("x", "y", "z", "t", "u", "v"))


def test_all_checks_pass_for_several_seeds():
    for seed in range(4):
        results = run_all(seed)
        assert all_passed(results), [r.id for r in results if not r.passed]


def test_check_inventory_and_order():
    results = run_all(0)
    assert [r.id for r in results] == EXPECTED_IDS
    assert [r.id for r in results] == sorted(r.id for r in results)


def test_deterministic_for_fixed_seed():
    first = report_to_json(run_all(7))
    second = report_to_json(run_all(7))
    assert first == second
    assert json.dumps(first) == json.dumps(second)


def test_json_schema_is_stable():
    for seed in (0, 1):
        for entry in report_to_json(run_all(seed)):
            assert set(entry) == {"id", "paper_ref", "status", "witness"}
            assert entry["status"] in ("pass", "fail")
            assert all(isinstance(v, str) for v in entry.values())


def test_negative_controls_report_nonzero_residues():
    by_id = {r.id: r for r in run_all(0)}
    embed = by_id["embedding_negative_control"]
    assert embed.status == "pass"
    assert not parse(embed.witness, BLOWUP_CTX).is_zero
    sing = by_id["singular_locus_negative_control"]
    assert sing.status == "pass"
    assert parse(sing.witness, BLOWUP_CTX) == parse("x^2*v^2", BLOWUP_CTX)


def test_passing_checks_have_zero_witness():
    for r in run_all(0):
        if "negative_control" not in r.id:
            assert r.status == "pass" and r.witness == "0"


def test_descriptions_and_refs_populated():
    for r in run_all(0):
        assert r.description and r.paper_ref


def test_format_report_summarizes():
    results = run_all(0)
    text = format_report(results)
    assert f"{len(results)}/{len(results)} checks passed" in text
    assert text.count("PASS") == len(results)


def test_all_passed_detects_failures():
    good = CheckResult("a", "d", "r", "pass", "0")
    bad = CheckResult("b", "d", "r", "fail", "1*x")
    assert all_passed([good])
    assert not all_passed([good, bad])
    assert bad.to_json() == {"id": "b", "paper_ref": "r", "status": "fail", "witness": "1*x"}


def test_check_outcomes():
    zero, x = RING_A.zero(), RING_A.nf("x")
    facts = {"a holds": False, "b holds": True, "c holds": False}
    first = _check("c", "d", "r", residues=[zero, BLOWUP_CTX.var("u") * 2, x], facts=facts)
    assert first == CheckResult("c", "d", "r", "fail", "2*u")
    joined = _check("c", "d", "r", residues=[zero], facts=facts)
    assert joined == CheckResult("c", "d", "r", "fail", "a holds; c holds")
    assert _check("c", "d", "r", residues=[zero], facts={"b holds": True}) == \
        CheckResult("c", "d", "r", "pass", "0")
    assert _check("c", "d", "r") == CheckResult("c", "d", "r", "pass", "0")
