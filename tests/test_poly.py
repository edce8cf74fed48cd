import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from russell.parse import parse
from russell.poly import Context, Poly, dot, invert_unit, lift
from russell.quotient import CTX_XYZT, RING_A, QuotientRing
from russell.sampling import random_poly, random_rational
from russell.weights import WEIGHTS, monomial_weight

XY = Context(("x", "y"))
LX = Context(("x", "y"), laurent=frozenset({"x"}))


def test_zero_terms_dropped():
    f = Poly(XY, {(1, 0): 1, (0, 1): 0})
    assert f.terms == {(1, 0): Fraction(1)}
    assert not f.is_zero
    assert XY.zero().is_zero


def test_coefficients_become_fractions():
    f = Poly(XY, {(1, 0): 2})
    assert isinstance(next(iter(f.terms.values())), Fraction)
    g = XY.const(Fraction(1, 3)) * 3
    assert g == 1


def test_negative_exponent_needs_laurent_flag():
    with pytest.raises(ValueError):
        Poly(XY, {(-1, 0): 1})
    assert Poly(LX, {(-1, 0): 1}) == LX.var("x", -1)


def test_ring_operations():
    x, y = XY.var("x"), XY.var("y")
    assert (x + y) * (x - y) == x**2 - y**2
    assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1
    assert 2 - x == -(x - 2)
    assert Fraction(1, 2) * x + Fraction(1, 2) * x == x
    assert x - x == XY.zero()


def test_pow_rejects_negative_on_nonunit():
    x, y = LX.var("x"), LX.var("y")
    assert x ** -2 == LX.var("x", -2)
    with pytest.raises(ValueError):
        (x + y) ** -1
    with pytest.raises(ValueError):
        y ** -1  # y is not Laurent


def test_invert_unit():
    f = LX.monomial(Fraction(2, 3), x=-2)
    assert invert_unit(f) * f == 1
    with pytest.raises(ValueError):
        invert_unit(LX.var("x") + 1)


def test_invert_unit_of_negative_coefficient():
    inv = invert_unit(LX.monomial(Fraction(-2, 3), x=-2))
    assert inv.terms == {(2, 0): Fraction(-3, 2)}
    assert_normal(inv)


def test_canonical_str_golden():
    ctx = CTX_XYZT
    f = -ctx.var("x") - ctx.var("z") ** 3 - ctx.var("t") ** 2
    assert str(f) == "-1*x + -1*z^3 + -1*t^2"
    assert str(ctx.var("x") ** 2) == "1*x^2"
    assert str(ctx.zero()) == "0"
    assert str(ctx.const(Fraction(-7, 3))) == "-7/3"


def test_str_orders_terms_by_context_precedence():
    ctx = CTX_XYZT
    f = ctx.var("t") + ctx.var("x") * ctx.var("y") + ctx.var("x") ** 2
    assert str(f) == "1*x^2 + 1*x*y + 1*t"


def test_substitute_identity_for_unbound():
    ctx = CTX_XYZT
    f = ctx.var("x") * ctx.var("y") + ctx.var("t")
    assert f.substitute({"x": ctx.var("z")}, target=ctx) == ctx.var("z") * ctx.var("y") + ctx.var("t")


def test_substitute_into_other_context():
    zt = Context(("z", "t"))
    f = CTX_XYZT.var("x") ** 2 + CTX_XYZT.var("z")
    image = f.substitute({"x": zt.var("t"), "z": zt.var("z")}, target=zt)
    assert image == zt.var("t") ** 2 + zt.var("z")


def test_substitute_rejects_unknown_name():
    with pytest.raises(ValueError):
        XY.var("x").substitute({"q": XY.one()}, target=XY)


def test_partial():
    ctx = CTX_XYZT
    f = ctx.var("x") ** 2 * ctx.var("y") + 3 * ctx.var("t")
    assert f.partial("x") == 2 * ctx.var("x") * ctx.var("y")
    assert f.partial("y") == ctx.var("x") ** 2
    assert f.partial("z").is_zero
    assert f.partial("t") == ctx.const(3)


def test_partial_of_laurent_variable():
    # d/dx x^-2 = -2*x^-3, and d/dx x^-1*y = -x^-2*y
    assert LX.var("x", -2).partial("x") == -2 * LX.var("x", -3)
    assert (LX.var("x", -1) * LX.var("y")).partial("x") == -LX.var("x", -2) * LX.var("y")
    assert (LX.var("x", -1) + 5).partial("y").is_zero


def test_evaluate_exact():
    ctx = CTX_XYZT
    f = ctx.var("x") + ctx.var("x") ** 2 * ctx.var("y") + ctx.var("z") ** 3 + ctx.var("t") ** 2
    pt = {"x": Fraction(2), "y": Fraction(-3, 4), "z": Fraction(1), "t": Fraction(1, 2)}
    assert f.evaluate(pt) == Fraction(2) - 3 + 1 + Fraction(1, 4)
    assert isinstance(ctx.one().evaluate(pt), Fraction)


def test_evaluate_laurent_pole():
    f = LX.var("x", -1)
    assert f.evaluate({"x": Fraction(1, 2), "y": 0}) == 2
    with pytest.raises(ZeroDivisionError):
        f.evaluate({"x": Fraction(0), "y": 0})


def test_lift_requires_present_variables_only():
    sub = Context(("x",))
    f = XY.var("x") ** 2  # y absent, so lifting into a y-free context is fine
    assert lift(f, sub) == sub.var("x") ** 2
    with pytest.raises(ValueError):
        lift(XY.var("y"), sub)


def test_lift_keeps_laurent_flags_of_negative_exponents():
    assert lift(LX.var("x", -1), Context(("y", "x"), laurent=frozenset({"x"}))).terms == \
        {(0, -1): Fraction(1)}
    # a dropped flag is fine while the exponents stay >= 0
    assert lift(LX.var("x", 2) * LX.var("y"), XY) == XY.var("x") ** 2 * XY.var("y")
    with pytest.raises(ValueError, match="negative exponent on non-Laurent variable 'x'"):
        lift(LX.var("x", 2) + LX.var("x", -1), XY)


def test_hash_consistent_with_eq():
    f = XY.var("x") + 1
    g = 1 + XY.var("x")
    assert f == g and hash(f) == hash(g)
    assert XY.const(5) == 5


def test_context_extend():
    ext = XY.extend(("tau",), laurent=("x",))
    assert ext.variables == ("x", "y", "tau")
    assert ext.is_laurent("x") and not ext.is_laurent("tau")
    assert XY.extend(("x",)).variables == XY.variables  # already present
    with pytest.raises(ValueError):
        Context(("x", "x"))


# -- the fraction-free multiply kernel -------------------------------------------

A_TAU_LAM = RING_A.extend(("tau", "lam")).ctx


def schoolbook_product(f: Poly, g: Poly) -> Poly:
    """Reference product: one Fraction multiply-add per term pair."""
    out: dict[tuple[int, ...], Fraction] = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            out[mono] = out.get(mono, Fraction(0)) + c1 * c2
    return Poly(f.ctx, out)


def assert_clean(f: Poly) -> None:
    for coeff in f.terms.values():
        assert type(coeff) is Fraction and coeff != 0


@pytest.mark.parametrize("ctx", [CTX_XYZT, A_TAU_LAM], ids=["xyzt", "A[tau,lam]"])
def test_product_matches_schoolbook_reference(ctx):
    rng = random.Random(31)
    laurent_seen = False
    for _ in range(60):
        f = random_poly(ctx, rng, max_terms=8, coeff_bound=30)
        g = random_poly(ctx, rng, max_terms=8, coeff_bound=30)
        laurent_seen |= any(e < 0 for m in f.terms for e in m)
        prod = f * g
        assert prod == schoolbook_product(f, g)
        assert_clean(prod)
    assert laurent_seen == bool(ctx.laurent)


def test_product_with_zero():
    x = CTX_XYZT.var("x")
    f = x + Fraction(1, 3)
    for prod in (f * CTX_XYZT.zero(), CTX_XYZT.zero() * f, f * 0, 0 * f):
        assert prod.is_zero and prod.terms == {}
    assert (CTX_XYZT.zero() * CTX_XYZT.zero()).is_zero


def test_product_full_cancellation_stores_no_zero():
    x = CTX_XYZT.var("x")
    for c in (1, Fraction(1, 3)):
        prod = (x + c) * (x - c)
        assert prod == x**2 - c * c
        assert len(prod.terms) == 2
        assert_clean(prod)


def test_product_mixed_and_large_denominators():
    x, y = CTX_XYZT.var("x"), CTX_XYZT.var("y")
    f = 3 * x + Fraction(1, 97) * y + Fraction(5, 1024)
    g = Fraction(-7, 1024) * x * y + 2 * y + Fraction(96, 97)
    prod = f * g
    assert prod == schoolbook_product(f, g)
    assert prod.terms[(1, 1, 0, 0)] == 6 - Fraction(35, 1024 * 1024)
    assert prod.terms[(0, 0, 0, 0)] == Fraction(5 * 96, 1024 * 97)
    assert_clean(prod)


def test_product_coerces_int_and_fraction_on_both_sides():
    x, y = CTX_XYZT.var("x"), CTX_XYZT.var("y")
    f = Fraction(3, 2) * x - y + 1
    assert 2 * f == f * 2 == 3 * x - 2 * y + 2
    third = Fraction(1, 3)
    assert f * third == third * f == Fraction(1, 2) * x - third * y + third
    for prod in (2 * f, f * third, third * f, f * 0):
        assert_clean(prod)


# -- the sum-of-products kernel and substitution through it ----------------------

def test_dot_matches_sum_of_schoolbook_products():
    rng = random.Random(41)
    for ctx in (CTX_XYZT, A_TAU_LAM):
        for _ in range(40):
            pairs = [(random_poly(ctx, rng, max_terms=6, coeff_bound=50),
                      random_poly(ctx, rng, max_terms=6, coeff_bound=50))
                     for _ in range(rng.randint(1, 4))]
            total = dot(ctx, pairs)
            assert total == sum((schoolbook_product(f, g) for f, g in pairs), ctx.zero())
            assert_clean(total)


def test_dot_of_no_pairs_and_of_zero_factors():
    x = CTX_XYZT.var("x")
    assert dot(CTX_XYZT, []).terms == {}
    zero = CTX_XYZT.zero()
    assert dot(CTX_XYZT, [(zero, x + 1), (x - 1, zero), (zero, zero)]).terms == {}
    assert dot(CTX_XYZT, [(zero, x), (x, x + Fraction(1, 3))]) == x**2 + Fraction(1, 3) * x


def test_dot_cancels_across_pairs():
    x, y = CTX_XYZT.var("x"), CTX_XYZT.var("y")
    f, g = Fraction(2, 3) * x + y, x - Fraction(1, 5) * y
    assert dot(CTX_XYZT, [(f, g), (-f, g)]).terms == {}
    total = dot(CTX_XYZT, [(x, y), (y, -x), (Fraction(1, 7) * y, y)])
    assert total.terms == {(0, 2, 0, 0): Fraction(1, 7)}
    assert_clean(total)


def test_dot_mixed_denominators():
    x, y = CTX_XYZT.var("x"), CTX_XYZT.var("y")
    pairs = [(Fraction(1, 6) * x + Fraction(5, 4), Fraction(3, 10) * y - 1),
             (Fraction(7, 9) * x, Fraction(2, 35) * y + Fraction(1, 1024)),
             (CTX_XYZT.const(Fraction(-1, 8)), Fraction(4, 3) * x * y)]
    total = dot(CTX_XYZT, pairs)
    assert total == sum((schoolbook_product(f, g) for f, g in pairs), CTX_XYZT.zero())
    assert total.terms[(1, 1, 0, 0)] == (Fraction(1, 20) + Fraction(14, 315)
                                         - Fraction(1, 6))
    assert_clean(total)


def test_dot_rejects_mixed_contexts():
    with pytest.raises(ValueError, match="mixed contexts"):
        dot(CTX_XYZT, [(XY.var("x"), XY.var("y"))])


def schoolbook_substitute(f: Poly, bindings: dict, target: Context) -> Poly:
    """Reference substitution: each term's image as a chain of schoolbook
    products, one factor of the image (or of its inverse) at a time."""
    out = target.zero()
    for mono, coeff in f.terms.items():
        acc = target.const(coeff)
        for name, e in zip(f.ctx.variables, mono):
            if e:
                img = bindings[name] if name in bindings else target.var(name)
                base = img if e > 0 else invert_unit(img)
                for _ in range(abs(e)):
                    acc = schoolbook_product(acc, base)
        out = out + acc
    return out


# x, y, z, t and u, v in another order, u Laurent: a wider target to re-key into
WIDE = Context(("v", "t", "u", "z", "y", "x"), laurent=frozenset({"u"}))
# the Laurent variables of A[tau, lam] and one more, first
WIDE_LAURENT = Context(("lam", "mu", "x", "y", "z", "t", "tau"),
                       laurent=frozenset({"lam", "mu"}))
BINDING_KINDS = ("unbound", "zero", "constant", "one-term", "multi-term")


def _random_binding(kind: str, target: Context, rng: random.Random):
    if kind == "zero":
        return target.zero()
    if kind == "constant":
        return target.const(random_rational(rng) or 1)
    if kind == "one-term":
        while True:
            img = random_poly(target, rng, max_terms=1, max_degree=3)
            if len(img.terms) == 1:
                return img
    while True:
        img = random_poly(target, rng, max_terms=4, max_degree=3)
        if len(img.terms) > 1:
            return img


def _random_unit(target: Context, rng: random.Random) -> Poly:
    """A unit monomial: a nonzero constant times powers of Laurent variables."""
    powers = {name: rng.randint(-2, 2) for name in sorted(target.laurent)}
    return target.monomial(random_rational(rng) or Fraction(1, 2), **powers)


@pytest.mark.parametrize("source,target", [(CTX_XYZT, CTX_XYZT), (CTX_XYZT, WIDE),
                                           (A_TAU_LAM, A_TAU_LAM),
                                           (A_TAU_LAM, WIDE_LAURENT)],
                         ids=["xyzt", "xyzt->wide", "A[tau,lam]", "A[tau,lam]->wide"])
def test_substitute_matches_schoolbook_reference(source, target):
    rng = random.Random(43)
    kinds_seen = set()
    for _ in range(40):
        f = random_poly(source, rng, max_terms=6, max_degree=5)
        bindings = {}
        for name in source.variables:
            if source.is_laurent(name):
                # negative exponents need a unit monomial, or lam unbound
                kind = rng.choice(("unbound", "constant", "unit"))
                if kind == "unit":
                    bindings[name] = _random_unit(target, rng)
                elif kind == "constant":
                    bindings[name] = _random_binding(kind, target, rng)
            else:
                kind = rng.choice(BINDING_KINDS)
                if kind != "unbound":
                    bindings[name] = _random_binding(kind, target, rng)
            kinds_seen.add(kind)
        image = f.substitute(bindings, target=target)
        assert image == schoolbook_substitute(f, bindings, target)
        assert image.ctx == target
        assert_clean(image)
    assert kinds_seen >= set(BINDING_KINDS)
    assert ("unit" in kinds_seen) == bool(source.laurent)


def test_substitute_powers_of_one_multi_term_image():
    x, y = CTX_XYZT.var("x"), CTX_XYZT.var("y")
    f = x**5 * y + Fraction(1, 2) * x**2 + 3 * x * y**2 + x**5
    bindings = {"x": y + Fraction(1, 3), "y": Fraction(1, 2) * x - y}
    image = f.substitute(bindings)
    assert image == schoolbook_substitute(f, bindings, CTX_XYZT)
    assert_clean(image)


L_SUB = Context(("x", "y", "lam"), laurent=frozenset({"x", "lam"}))


def test_substitute_error_for_negative_exponent_on_multi_term_image():
    with pytest.raises(ValueError) as err:
        L_SUB.var("x", -2).substitute({"x": L_SUB.var("y") + L_SUB.var("lam")}, target=L_SUB)
    assert type(err.value) is ValueError
    assert str(err.value) == "cannot invert non-monomial 1*y + 1*lam"


def test_substitute_error_for_negative_exponent_on_non_laurent_monomial():
    with pytest.raises(ValueError) as err:
        L_SUB.var("x", -1).substitute({"x": L_SUB.var("y")}, target=L_SUB)
    assert type(err.value) is ValueError
    assert str(err.value) == "cannot invert monomial with non-Laurent variable 'y'"


def test_substitute_error_for_unbound_variable_missing_from_target():
    xz = Context(("x", "z"))
    with pytest.raises(ValueError) as err:
        CTX_XYZT.var("y").substitute({"x": xz.var("z")}, target=xz)
    assert type(err.value) is ValueError
    assert str(err.value) == "unknown variable 'y' in context ('x', 'z')"


# -- the one formal derivative and the one weight grouping -----------------------

def per_term_partial(f: Poly, name: str) -> Poly:
    """Reference derivative: differentiate term by term and add up."""
    i = f.ctx.index(name)
    total = f.ctx.zero()
    for mono, coeff in f.terms.items():
        if mono[i]:
            shifted = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
            total = total + Poly(f.ctx, {shifted: coeff * mono[i]})
    return total


@pytest.mark.parametrize("ctx", [CTX_XYZT, A_TAU_LAM], ids=["xyzt", "A[tau,lam]"])
def test_partial_matches_per_term_reference(ctx):
    rng = random.Random(53)
    negative_seen = False
    for _ in range(40):
        f = random_poly(ctx, rng, max_terms=8)
        negative_seen |= any(e < 0 for m in f.terms for e in m)
        for name in ctx.variables:
            df = f.partial(name)
            assert df == per_term_partial(f, name)
            assert_clean(df)
    assert negative_seen == bool(ctx.laurent)


def test_partial_leibniz_on_laurent_variable():
    rng = random.Random(59)
    for _ in range(30):
        f = random_poly(A_TAU_LAM, rng, max_terms=5)
        g = random_poly(A_TAU_LAM, rng, max_terms=5)
        assert (f * g).partial("lam") == f.partial("lam") * g + f * g.partial("lam")


@pytest.mark.parametrize("weights", [WEIGHTS, {"x": -1}, {"y": 3, "lam": -2}, {}],
                         ids=["WEIGHTS", "x only", "y and lam", "empty"])
@pytest.mark.parametrize("ctx", [CTX_XYZT, A_TAU_LAM], ids=["xyzt", "A[tau,lam]"])
def test_graded_matches_weight_loop(ctx, weights):
    rng = random.Random(61)
    for _ in range(40):
        f = random_poly(ctx, rng, max_terms=8)
        expected: dict[int, dict] = {}
        for mono, coeff in f.terms.items():
            n = sum(weights.get(name, 0) * e for name, e in zip(ctx.variables, mono))
            if weights is WEIGHTS:
                assert n == monomial_weight(ctx, mono)
            expected.setdefault(n, {})[mono] = coeff
        parts = f.graded(weights)
        assert parts == {n: Poly(ctx, terms) for n, terms in expected.items()}
        assert all(part.ctx == ctx and not part.is_zero for part in parts.values())
    assert CTX_XYZT.zero().graded(WEIGHTS) == {}


# -- the int-numerator representation against a Fraction-dict reference ---------

U_RING = QuotientRing("U", CTX_XYZT, parse("3/2*x^2*y + z - 1/2", CTX_XYZT), "grlex")
A_TAU_LAM_RING = RING_A.extend(("tau", "lam"))
RINGS_OVER = {CTX_XYZT: (RING_A, U_RING), A_TAU_LAM: (A_TAU_LAM_RING,)}


def assert_normal(p: Poly) -> None:
    """One positive int denominator sharing no factor with the nonzero int
    numerators; zero is den 1 with no numerators."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1
    assert type(p.terms) is dict


def ref_clean(f: dict) -> dict:
    return {m: c for m, c in f.items() if c}


def ref_add(f: dict, g: dict, sign: int = 1) -> dict:
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) + sign * c
    return ref_clean(out)


def ref_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return ref_clean(out)


def ref_power(f: dict, e: int, width: int) -> dict:
    if e < 0:  # a unit monomial
        ((m, c),) = f.items()
        f, e = {tuple(-a for a in m): 1 / c}, -e
    out = {(0,) * width: Fraction(1)}
    for _ in range(e):
        out = ref_mul(out, f)
    return out


def ref_substitute(f: dict, variables, bindings: dict, target: Context) -> dict:
    width = len(target.variables)
    out: dict = {}
    for mono, c in f.items():
        term = {(0,) * width: c}
        for name, e in zip(variables, mono):
            if e:
                img = bindings.get(name)
                if img is None:
                    img = {tuple(int(v == name) for v in target.variables): Fraction(1)}
                term = ref_mul(term, ref_power(img, e, width))
        out = ref_add(out, term)
    return out


def ref_reduce(f: dict, relation: dict, lead: tuple) -> dict:
    """Rewrite lead -> lead - relation/lc(relation), in sweeps, until no
    monomial is divisible by lead."""
    lc = relation[lead]
    out = dict(f)
    while True:
        reducible = [m for m in out if all(a >= b for a, b in zip(m, lead) if b)]
        if not reducible:
            return out
        for m in reducible:
            c = out.pop(m, 0)
            for r, rc in relation.items():
                if c and r != lead:
                    n = tuple(a - b + d for a, b, d in zip(m, lead, r))
                    out[n] = out.get(n, 0) - c * rc / lc
        out = ref_clean(out)


def ref_text(f: dict, variables) -> str:
    parts = []
    for mono in sorted(f, reverse=True):
        factors = [str(f[mono])] + [v if e == 1 else f"{v}^{e}"
                                     for v, e in zip(variables, mono) if e]
        parts.append("*".join(factors))
    return " + ".join(parts) or "0"


DENOMINATORS = st.sampled_from((1, 1, 1, 2, 3, 4, 6, 7, 9, 12, 97, 1024))


def monomials(ctx: Context):
    return st.tuples(*(st.integers(-2, 3) if v in ctx.laurent else st.integers(0, 3)
                       for v in ctx.variables))


def fraction_dicts(ctx: Context, max_size: int = 5):
    return st.dictionaries(monomials(ctx),
                           st.builds(Fraction, st.integers(-40, 40), DENOMINATORS),
                           max_size=max_size)


def nonzero_fractions():
    return st.builds(Fraction, st.integers(1, 30) | st.integers(-30, -1), DENOMINATORS)


@pytest.mark.parametrize("ctx", [CTX_XYZT, A_TAU_LAM], ids=["xyzt", "A[tau,lam]"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_int_numerators_match_fraction_reference(ctx, data):
    names = ctx.variables
    f, g, h = (data.draw(fraction_dicts(ctx)) for _ in range(3))
    F, G, H = (Poly(ctx, d) for d in (f, g, h))
    f, g, h = ref_clean(f), ref_clean(g), ref_clean(h)
    results = [F, G, H]

    def check(got: Poly, want: dict) -> None:
        results.append(got)
        assert got.terms == want

    check(F, f)
    check(F + G, ref_add(f, g))
    check(F - G, ref_add(f, g, -1))
    check(-F, ref_add({}, f, -1))
    check(dot(ctx, [(F, G), (H, F)]), ref_add(ref_mul(f, g), ref_mul(h, f)))
    for i, name in enumerate(names):
        check(F.partial(name), ref_clean({m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i]
                                          for m, c in f.items()}))
    for weights in (WEIGHTS, {"x": -1, "lam": 2}):
        parts = F.graded(weights)
        for n, part in parts.items():
            check(part, {m: c for m, c in f.items()
                         if sum(weights.get(v, 0) * e for v, e in zip(names, m)) == n})
        assert sum(len(part.terms) for part in parts.values()) == len(f)

    # x to a multi-term image, y to a one-term one, lam to a unit; the rest unbound
    bindings = {"x": data.draw(fraction_dicts(ctx, max_size=3)),
                "y": {data.draw(monomials(ctx)): data.draw(nonzero_fractions())}}
    if "lam" in names:
        bindings["lam"] = {tuple(data.draw(st.integers(-2, 2)) if v == "lam" else 0
                                 for v in names): data.draw(nonzero_fractions())}
    images = {name: Poly(ctx, img) for name, img in bindings.items()}
    check(F.substitute(images, target=ctx),
          ref_substitute(f, names, {k: ref_clean(v) for k, v in bindings.items()}, ctx))

    wide = Context(tuple(reversed(names)) + ("w",), laurent=ctx.laurent)
    lifted = lift(F, wide)
    check(lifted, {tuple(m[names.index(v)] if v in names else 0 for v in wide.variables): c
                   for m, c in f.items()})
    assert lift(lifted, ctx) == F

    product = F * G
    for ring in RINGS_OVER[ctx]:
        want = ref_reduce(ref_mul(f, g), ring.relation.terms, ring.lead_monomial)
        for strategy in ("max", "first"):
            check(ring.reduce(product, strategy), want)

    point = {v: data.draw(nonzero_fractions() if v in ctx.laurent
                          else st.builds(Fraction, st.integers(-9, 9), DENOMINATORS))
             for v in names}
    value = F.evaluate(point)
    assert type(value) is Fraction
    assert value == sum((c * prod(point[v] ** e for v, e in zip(names, m))
                         for m, c in f.items()), Fraction(0))

    text = str(F)
    assert text == ref_text(f, names)
    # one value by many routes: equal, and equal hashes
    routes = [parse(text, ctx), Poly(ctx, F.terms), (F + G) - G, -(-F), F * 1,
              dot(ctx, [(F, ctx.one()), (G, ctx.zero())]), lift(lifted, ctx),
              sum(F.graded(WEIGHTS).values(), ctx.zero())]
    results += routes
    for other in routes:
        assert other == F and hash(other) == hash(F)
    assert 2 * F == F + F and hash(2 * F) == hash(F + F)
    for p in results:
        assert_normal(p)
