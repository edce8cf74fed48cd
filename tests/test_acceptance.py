"""Acceptance gate: ten criteria, one pass/fail line each.

Lines are echoed inline (visible with -s) and repeated in the terminal
summary.  Criteria 1, 7 and 10 also enforce wall-clock budgets.
"""

import functools
import json
import random
import subprocess
import sys
import time

from russell.derivations import (compose, conjugate, deck_sigma, degree_ell,
                                 example_derivations, flow, identity_endomorphism,
                                 induced_graded, invariance_check, kernel_chain,
                                 lnd_bounded, make_derivation, scaling, specialize,
                                 CompatibilityError)
from russell.quotient import (RING_A, RING_B, RING_V, _evaluate_mod, oracle_equal,
                              random_point)
from russell.sampling import random_nonzero_element, random_poly
from russell.verifier import run_all
from russell.weights import deg, deg_laurent_oracle, gr, is_homogeneous

RESULTS = {}


def criterion(number, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS[number] = (label, False)
                print(f"criterion {number:2d}: FAIL - {label}", flush=True)
                raise
            RESULTS[number] = (label, True)
            print(f"criterion {number:2d}: PASS - {label}", flush=True)
        return wrapper
    return deco


@criterion(1, "normal forms: sound, idempotent, strategy independent (< 10s)")
def test_criterion_01_normal_forms():
    start = time.perf_counter()
    rng = random.Random(101)
    for i in range(500):
        ring = RING_A if i % 2 == 0 else RING_B
        f = random_poly(ring.ctx, rng)
        nf = ring.reduce(f)
        assert ring.reduce(f - nf).is_zero  # representative of the same class
        assert not any(ring._divisible(m) for m in nf.terms)  # fully reduced
        assert ring.reduce(nf) == nf
    for _ in range(200):
        ring = RING_A if rng.random() < 0.5 else RING_B
        f = random_poly(ring.ctx, rng)
        assert ring.reduce(f, "max") == ring.reduce(f, "first")
    assert time.perf_counter() - start < 10.0


@criterion(2, "normal monomials: at most linear in x once y appears")
def test_criterion_02_basis_shape():
    rng = random.Random(103)
    for _ in range(500):
        a = RING_A.nf(random_poly(RING_A.ctx, rng))
        for (ex, ey, _, _) in a.poly.terms:
            assert ex <= 1 or ey == 0
    # monomials of that shape are already reduced
    for mono in ((1, 5, 2, 2), (0, 7, 0, 1), (4, 0, 2, 0)):
        assert RING_A.nf(dict_poly(mono)).poly.terms == {mono: 1}


def dict_poly(mono):
    from russell.poly import Poly
    return Poly(RING_A.ctx, {mono: 1})


@criterion(3, "filtration degree matches the Laurent vanishing-order oracle")
def test_criterion_03_degree_oracle():
    assert deg(RING_A.nf("x")) == -1
    assert deg(RING_A.nf("y")) == 2
    assert deg(RING_A.nf("x^2*y")) == 0
    assert deg(RING_A.zero()) is None
    rng = random.Random(107)
    for _ in range(200):
        a = random_nonzero_element(RING_A, rng)
        assert deg(a) == deg_laurent_oracle(a)


@criterion(4, "deg is additive and gr is multiplicative on 100 random pairs")
def test_criterion_04_graded_structure():
    rng = random.Random(109)
    for _ in range(100):
        a = random_nonzero_element(RING_A, rng, max_terms=4, max_degree=4)
        b = random_nonzero_element(RING_A, rng, max_terms=4, max_degree=4)
        assert deg(a * b) == deg(a) + deg(b)
        assert gr(a * b) == gr(a) * gr(b)
        assert is_homogeneous(gr(a), deg(a))


@criterion(5, "first example derivation: orders, degree, flow, invariance")
def test_criterion_05_first_derivation():
    d1 = example_derivations()["d1"]
    assert str(d1.apply(RING_A.nf("y*t"))) == "-1*x + -1*z^3 + -3*t^2"
    report = lnd_bounded(d1)
    assert report.verdict == "LocallyNilpotent"
    assert report.orders == {"x": 1, "y": 3, "z": 1, "t": 2}
    assert degree_ell(d1) == -2
    E = flow(d1, "tau")
    assert str(E.images["y"]) == "-1*x^2*tau^2 + 1*y + -2*t*tau"
    assert str(E.images["t"]) == "1*x^2*tau + 1*t"
    assert E.images["x"] == E.extended_ring.nf("x")
    delta1 = induced_graded(d1)
    assert delta1.images["y"] == RING_B.nf("-2*t")
    assert delta1.images["t"] == RING_B.nf("x^2")
    assert invariance_check(delta1, "F_plus")
    assert not invariance_check(delta1, "F_minus")
    nu, bottom = kernel_chain(delta1, "y")
    assert (nu, str(bottom), deg(bottom)) == (2, "-2*x^2", -2)
    try:
        make_derivation(RING_A, {"y": "1"})
    except CompatibilityError as exc:
        assert str(exc.residue) == "1*x^2"
    else:
        raise AssertionError("incompatible images were accepted")


@criterion(6, "second example derivation: orders, degree, kernel chain")
def test_criterion_06_second_derivation():
    d2 = example_derivations()["d2"]
    report = lnd_bounded(d2)
    assert report.verdict == "LocallyNilpotent"
    assert report.orders == {"x": 1, "y": 4, "z": 2, "t": 1}
    assert degree_ell(d2) == -2
    delta2 = induced_graded(d2)
    assert delta2.images["y"] == RING_B.nf("-3*z^2")
    assert delta2.images["z"] == RING_B.nf("x^2")
    assert invariance_check(delta2, "F_plus")
    assert not invariance_check(delta2, "F_minus")
    nu, bottom = kernel_chain(delta2, "y")
    assert (nu, str(bottom), deg(bottom)) == (3, "-6*x^4", -4)
    nu1, bottom1 = kernel_chain(induced_graded(example_derivations()["d1"]), "y")
    assert is_homogeneous(bottom1, 2 + nu1 * -2)
    assert is_homogeneous(bottom, 2 + nu * -2)


@criterion(7, "flows: identity at 0, group law, torus normalization (< 5s)")
def test_criterion_07_flow_identities():
    start = time.perf_counter()
    ex = example_derivations()
    for d in (ex["d1"], ex["d2"], induced_graded(ex["d1"]), induced_graded(ex["d2"])):
        E = flow(d, "tau")
        assert specialize(E, {"tau": 0}) == identity_endomorphism(d.ring)
        ctx = d.ring.extend(("tau", "sigma")).ctx
        assert compose(E, flow(d, "sigma")) == \
            specialize(E, {"tau": ctx.var("tau") + ctx.var("sigma")})
    S = scaling()
    for name in ("d1", "d2"):
        delta = induced_graded(ex[name])
        ell = degree_ell(delta)
        E = flow(delta, "tau")
        ctx = RING_B.extend(("tau", "lam")).ctx
        rescaled = specialize(E, {"tau": ctx.var("lam") ** (-ell) * ctx.var("tau")})
        assert compose(E, S) == compose(S, rescaled)
    minus_one = specialize(S, {"lam": -1})
    assert minus_one.images["x"] == RING_B.nf("-1*x")
    assert minus_one.images["y"] == RING_B.nf("y")
    sigma = deck_sigma()
    assert compose(sigma, sigma) == identity_endomorphism(RING_V)
    conj = conjugate(ex["d1"], flow(ex["d2"], "s"))
    Ec = flow(conj, "tau")
    assert Ec.images["x"] == Ec.extended_ring.nf("x")
    assert time.perf_counter() - start < 5.0


@criterion(8, "geometry: embedding, fibers, singular locus, torus, controls")
def test_criterion_08_geometry():
    by_id = {r.id: r for r in run_all(seed=0)}
    for check_id in ("embedding", "fiber_over_zero", "singular_locus", "gm_action",
                     "trivialization", "isotropy_order_two", "limits_degree_signs",
                     "theorem_invariance_examples", "lemma_dichotomy_d1",
                     "lemma_dichotomy_d2"):
        assert by_id[check_id].passed, check_id
    for check_id in ("embedding_negative_control", "singular_locus_negative_control"):
        assert by_id[check_id].passed, check_id
        assert by_id[check_id].witness != "0"


@criterion(9, "equality oracles agree with exact comparison over Q and mod p")
def test_criterion_09_oracle_concordance():
    rng = random.Random(113)
    for i in range(200):
        ring = RING_A if i % 2 == 0 else RING_B
        f = random_poly(ring.ctx, rng, max_terms=4, max_degree=4)
        g = random_poly(ring.ctx, rng, max_terms=2, max_degree=3)
        a = ring.nf(f)
        b = ring.nf(f + g * ring.relation)
        c = ring.nf(f + 1)
        seed = rng.randint(0, 2**30)
        for mode in ("qq", "modp"):
            assert a == b
            assert oracle_equal(a, b, samples=50, seed=seed, mode=mode)
            assert not oracle_equal(a, c, samples=50, seed=seed, mode=mode)
    # multiples of the relation vanish at sampled points in both arithmetics
    for i in range(20):
        ring = RING_A if i % 2 == 0 else RING_B
        surface = "X" if ring is RING_A else "W"
        g = random_poly(ring.ctx, rng, max_terms=3, max_degree=3)
        h = g * ring.relation
        for _ in range(50):
            pt = random_point(surface, rng=rng)
            assert h.evaluate(pt) == 0
            assert _evaluate_mod(h, pt) == 0


@criterion(10, "verification suite: seeds 0..9, stable JSON schema (< 60s)")
def test_criterion_10_verify_paper_cli():
    start = time.perf_counter()
    id_lists = []
    for seed in range(10):
        proc = subprocess.run(
            [sys.executable, "-m", "russell", "verify-paper", "--seed", str(seed), "--json"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        for entry in report:
            assert set(entry) == {"id", "paper_ref", "status", "witness"}
            assert entry["status"] == "pass"
        id_lists.append([entry["id"] for entry in report])
    assert all(ids == id_lists[0] for ids in id_lists)
    assert time.perf_counter() - start < 60.0
