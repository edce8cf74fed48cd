import random
import time
from fractions import Fraction

import pytest

from russell.derivations import example_derivations, flow
from russell.parse import parse
from russell.poly import Context, lift
from russell.quotient import (CTX_XYZT, ORACLE_PRIME, RING_A, RING_B, RING_NEIL, RING_V,
                              QuotientRing, RingElement, RingMismatchError, _evaluate_mod,
                              oracle_equal, random_point, ring_by_name, surface_point)
from russell.sampling import random_poly


def test_leading_monomials():
    # grlex on x > y > z > t picks x^2*y for both cubic relations
    assert RING_A.lead_monomial == (2, 1, 0, 0)
    assert RING_B.lead_monomial == (2, 1, 0, 0)
    assert RING_NEIL.lead_monomial == (3, 0)  # z^3
    assert RING_V.lead_monomial == (2, 0, 0)  # x^2 under lex


def test_nf_goldens_ring_a():
    assert str(RING_A.nf("x^2*y")) == "-1*x + -1*z^3 + -1*t^2"
    assert str(RING_A.nf("x^4*y^2")) == \
        "1*x^2 + 2*x*z^3 + 2*x*t^2 + 1*z^6 + 2*z^3*t^2 + 1*t^4"
    assert RING_A.nf(RING_A.relation).is_zero


def test_nf_goldens_ring_b():
    assert str(RING_B.nf("x^2*y")) == "-1*z^3 + -1*t^2"
    x = RING_B.nf("x")
    xy = RING_B.nf("x*y")
    assert str(x * xy) == "-1*z^3 + -1*t^2"


def test_nf_goldens_small_rings():
    assert str(RING_NEIL.nf("z^3")) == "-1*t^2"
    assert str(RING_NEIL.nf("z^4")) == "-1*z*t^2"
    assert str(RING_V.nf("x^2")) == "-1*z^3 + -1*t^2"
    assert str(RING_V.nf("x^3")) == "-1*x*z^3 + -1*x*t^2"


def test_nf_idempotent():
    rng = random.Random(11)
    for ring in (RING_A, RING_B, RING_NEIL, RING_V):
        for _ in range(20):
            f = ring.reduce(random_poly(ring.ctx, rng))
            assert ring.reduce(f) == f


def test_nf_is_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(30):
        f = random_poly(CTX_XYZT, rng)
        g = random_poly(CTX_XYZT, rng)
        assert RING_A.nf(f + g) == RING_A.nf(f) + RING_A.nf(g)
        assert RING_A.nf(f * g) == RING_A.nf(f) * RING_A.nf(g)


def test_reduction_strategies_agree():
    rng = random.Random(17)
    rings = (RING_A, RING_B, RING_V, RING_NEIL,
             RING_A.extend(("tau", "lam")),
             RING_B.extend(("lam", "mu")))
    for ring in rings:
        for _ in range(40):
            f = random_poly(ring.ctx, rng)
            assert ring.reduce(f, "max") == ring.reduce(f, "first")
            g = f * random_poly(ring.ctx, rng)
            assert ring.reduce(g, "max") == ring.reduce(g, "first")


def test_heap_reducer_tail_cancels_pending_monomial():
    x, y, z, t = (CTX_XYZT.var(n) for n in "xyzt")
    # rewriting x^4*y^2 yields -x^3*y, which cancels the pending x^3*y;
    # f = x^2*y * (x^2*y + x) = (x + z^3 + t^2) * (z^3 + t^2) in A
    f = x**4 * y**2 + x**3 * y
    assert RING_A.reduce(f) == (x + z**3 + t**2) * (z**3 + t**2)
    assert RING_A.reduce(f) == RING_A.reduce(f, "first")
    # x^3*y*z^3 is cancelled by the rewrite of x^4*y^2*z^3, then recreated
    # by the rewrite of x^5*y^2
    g = x**4 * y**2 * z**3 + x**5 * y**2 + x**3 * y * z**3
    assert RING_A.reduce(g) == RING_A.reduce(g, "first")


def test_heap_reducer_deep_input():
    x, y = CTX_XYZT.var("x"), CTX_XYZT.var("y")
    f = x**60 * y**60
    a = RING_A.nf(f)  # iterative: no RecursionError however deep the rewrite chain
    assert all(ex <= 1 or ey == 0 for (ex, ey, _, _) in a.poly.terms)
    assert oracle_equal(a, RingElement(RING_A, f), samples=3)


def test_normal_forms_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x y z t")

    def to_sympy(f):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(g**e for g, e in zip(gens, mono))))
                   for mono, c in f.terms.items())

    rng = random.Random(37)
    for ring in (RING_A, RING_B):
        relation = to_sympy(ring.relation)
        for _ in range(50):
            f = (random_poly(CTX_XYZT, rng, max_terms=4, max_degree=4)
                 * random_poly(CTX_XYZT, rng, max_terms=4, max_degree=4))
            _, remainder = sympy.reduced(to_sympy(f), [relation], *gens, order="grlex")
            assert sympy.expand(remainder - to_sympy(ring.reduce(f))) == 0


def test_normal_monomial_shape():
    rng = random.Random(23)
    for _ in range(60):
        a = RING_A.nf(random_poly(CTX_XYZT, rng))
        for (ex, ey, _, _) in a.poly.terms:
            assert ex <= 1 or ey == 0


def test_multiple_of_relation_dies():
    rng = random.Random(3)
    for ring in (RING_A, RING_B, RING_NEIL, RING_V):
        for _ in range(10):
            g = random_poly(ring.ctx, rng, max_terms=3, max_degree=3)
            assert ring.nf(g * ring.relation).is_zero


def test_nf_coercions():
    assert RING_A.nf(5) == 5
    assert RING_A.nf(Fraction(2, 7)) == Fraction(2, 7)
    assert RING_A.nf("y") == RING_A.nf(CTX_XYZT.var("y"))
    e = RING_A.nf("x")
    assert RING_A.nf(e) is e
    with pytest.raises(TypeError):
        RING_A.nf(object())


def test_cross_ring_mixing_rejected():
    with pytest.raises(RingMismatchError):
        RING_A.nf("x") + RING_B.nf("x")
    with pytest.raises(RingMismatchError):
        RING_B.nf(RING_A.nf("x"))
    assert RING_A.nf("x") != RING_B.nf("x")


def test_element_arithmetic():
    x = RING_A.nf("x")
    y = RING_A.nf("y")
    assert x**2 * y == RING_A.nf("x^2*y")
    assert 1 - x + x == 1
    assert (2 * x) * Fraction(1, 2) == x
    assert str(-x) == "-1*x"
    assert x**0 == 1


def test_extend_caches_and_names():
    ext = RING_A.extend(("tau",))
    assert ext is RING_A.extend(("tau",))
    assert ext.name == "A[tau]"
    assert ext.ctx.variables == ("x", "y", "z", "t", "tau")
    assert RING_A.extend(()) is RING_A
    lam = RING_B.extend(("lam",))
    assert lam.ctx.is_laurent("lam")


def test_extend_orders_parameters_and_flags_laurent():
    ext = RING_A.extend(("lam", "tau"))
    assert ext is RING_A.extend(("tau", "lam"))
    assert ext.ctx.variables == ("x", "y", "z", "t", "tau", "lam")
    assert ext.ctx.laurent == frozenset({"lam"})
    assert RING_A.extend(("zeta", "mu", "beta", "s")).ctx.variables[4:] == ("s", "mu", "beta", "zeta")


def test_extension_cache_is_keyed_by_ring_not_name():
    x, t = CTX_XYZT.var("x"), CTX_XYZT.var("t")
    namesake = QuotientRing("A", CTX_XYZT, x**3 + t, "grlex")
    ext = namesake.extend(("tau",))
    assert ext.relation == lift(namesake.relation, ext.ctx)
    assert ext != RING_A.extend(("tau",))
    assert RING_A.extend(("tau",)).relation == lift(RING_A.relation, ext.ctx)
    d1 = example_derivations()["d1"]
    assert str(flow(d1).images["y"]) == "-1*x^2*tau^2 + 1*y + -2*t*tau"


def test_reduction_with_laurent_parameters():
    ext = RING_A.extend(("lam",))
    got = ext.nf("lam^-2*x^2*y")
    want = ext.nf("lam^-2") * ext.nf("-1*x + -1*z^3 + -1*t^2")
    assert got == want


def test_relation_must_be_laurent_free():
    lctx = Context(("x", "y"), laurent=frozenset({"x"}))
    with pytest.raises(ValueError):
        QuotientRing("bad", lctx, lctx.var("x", -1) + lctx.var("y"), "grlex")


def test_ring_by_name():
    assert ring_by_name("A") is RING_A
    assert ring_by_name("Neil") is RING_NEIL
    with pytest.raises(ValueError):
        ring_by_name("Z")


def test_surface_point_solves_for_y():
    pt = surface_point("X", Fraction(2), Fraction(1), Fraction(-1))
    assert RING_A.relation.evaluate(pt) == 0
    pt = surface_point("W", Fraction(-3, 2), Fraction(0), Fraction(5))
    assert RING_B.relation.evaluate(pt) == 0
    with pytest.raises(ZeroDivisionError):
        surface_point("X", Fraction(0), Fraction(1), Fraction(1))


def test_random_point_deterministic_and_on_surface():
    a = random_point("X", seed=9)
    b = random_point("X", seed=9)
    assert a == b
    assert a["x"] != 0
    assert RING_A.relation.evaluate(a) == 0
    w = random_point("W", seed=9)
    assert RING_B.relation.evaluate(w) == 0


def test_oracle_equal_detects_equality_and_difference():
    rng = random.Random(31)
    for mode in ("qq", "modp"):
        for _ in range(10):
            f = random_poly(CTX_XYZT, rng, max_terms=4, max_degree=4)
            g = random_poly(CTX_XYZT, rng, max_terms=2, max_degree=3)
            a = RING_A.nf(f)
            same = RING_A.nf(f + g * RING_A.relation)
            assert oracle_equal(a, same, samples=12, seed=rng.randint(0, 999), mode=mode)
        x, y = RING_A.nf("x"), RING_A.nf("y")
        assert not oracle_equal(x, y, samples=12, seed=1, mode=mode)
        assert not oracle_equal(x, x + 1, samples=12, seed=2, mode=mode)


def test_evaluate_mod_is_exact_value_mod_p():
    rng = random.Random(47)
    for _ in range(30):
        f = random_poly(CTX_XYZT, rng, max_terms=5, max_degree=5)
        pt = random_point("X", rng=rng)
        q = f.evaluate(pt)
        want = q.numerator * pow(q.denominator, -1, ORACLE_PRIME) % ORACLE_PRIME
        assert _evaluate_mod(f, pt) == want
    laurent = Context(("x", "y"), laurent=frozenset({"x"}))
    f = laurent.var("x", -2) * laurent.var("y")
    assert _evaluate_mod(f, {"x": Fraction(3), "y": Fraction(5)}) == \
        5 * pow(9, -1, ORACLE_PRIME) % ORACLE_PRIME


@pytest.mark.parametrize("other", ["0", "x*z"])
def test_oracle_modp_rejects_coefficient_with_denominator_p(other):
    # the difference a - b has the coefficient 1/p, constant or not
    a = RING_A.nf(1 + Fraction(1, ORACLE_PRIME))
    b = RING_A.nf(f"1 + {other}")
    with pytest.raises(ZeroDivisionError):
        oracle_equal(a, b, samples=3, mode="modp")
    assert not oracle_equal(a, b, samples=3, mode="qq")


def test_oracle_equal_rejects_mixed_rings():
    with pytest.raises(RingMismatchError):
        oracle_equal(RING_A.nf("x"), RING_B.nf("x"))


# -- hostile denominators --------------------------------------------------------

def _first_primes(n: int) -> list[int]:
    primes: list[int] = []
    k = 2
    while len(primes) < n:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


def fraction_nf_a(terms: dict) -> dict:
    """Reference normal form in A on a dict of Fractions: rewrite every
    reducible x^a*y^b as x^(a-2)*y^(b-1) * (-x - z^3 - t^2), in sweeps, until
    none is left.  The normal form does not depend on the order of rewrites."""
    out = dict(terms)
    while True:
        reducible = [m for m in out if m[0] >= 2 and m[1] >= 1]
        if not reducible:
            return out
        for m in reducible:
            c = out.pop(m, 0)
            if not c:
                continue
            a, b, z, t = m[0] - 2, m[1] - 1, m[2], m[3]
            for n in ((a + 1, b, z, t), (a, b, z + 3, t), (a, b, z, t + 2)):
                s = out.get(n, 0) - c
                if s:
                    out[n] = s
                else:
                    out.pop(n, None)


def fraction_text(terms: dict, variables) -> str:
    """Reference canonical text of a dict of Fractions."""
    parts = []
    for mono in sorted(terms, reverse=True):
        factors = [str(terms[mono])]
        factors += [v if e == 1 else f"{v}^{e}" for v, e in zip(variables, mono) if e]
        parts.append("*".join(factors))
    return " + ".join(parts) or "0"


def test_hostile_denominators_stay_bounded():
    """1,000 terms over the first 1,000 primes: with one common denominator
    every numerator grows to the size of their product, and parsing must not
    rescale the running sum once per term."""
    rng = random.Random(71)
    monos = rng.sample([(a, b, c, d) for a in range(6) for b in range(6)
                        for c in range(6) for d in range(6)], 1000)
    terms = {m: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), p)
             for m, p in zip(monos, _first_primes(1000))}
    text = " + ".join(fraction_text({m: c}, CTX_XYZT.variables) for m, c in terms.items())
    start = time.perf_counter()
    f = parse(text, CTX_XYZT)
    parsed = time.perf_counter()
    a = RING_A.nf(f)
    reduced = time.perf_counter()
    out = str(a)
    end = time.perf_counter()
    assert end - start < 2.0, (parsed - start, reduced - parsed, end - reduced)
    assert f.terms == terms
    nf = fraction_nf_a(terms)
    assert a.poly.terms == nf
    assert out == fraction_text(nf, CTX_XYZT.variables)
