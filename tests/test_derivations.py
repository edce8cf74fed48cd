import random
from fractions import Fraction

import pytest

from russell.derivations import (ANY_DEGREE, CompatibilityError, Derivation,
                                 EndomorphismError, compose, conjugate, deck_sigma, degree_ell,
                                 derivation_from_json, derivation_to_json,
                                 example_derivations, flow, identity_endomorphism,
                                 induced_graded, invariance_check,
                                 is_homogeneous_derivation, kernel_chain,
                                 lnd_bounded, make_derivation, make_endomorphism,
                                 scaling, specialize)
from russell.poly import Poly, lift
from russell.quotient import QuotientRing, RING_A, RING_B, RING_V, RingMismatchError
from russell.sampling import random_element, random_poly
from russell.weights import deg, is_homogeneous

D1 = example_derivations()["d1"]  # y -> -2t, t -> x^2
D2 = example_derivations()["d2"]  # y -> -3z^2, z -> x^2


def delta(d):
    return induced_graded(d)


class TestCompatibility:
    def test_examples_are_valid(self):
        assert D1.images["y"] == RING_A.nf("-2*t")
        assert D1.images["x"].is_zero
        assert D2.images["z"] == RING_A.nf("x^2")

    def test_invalid_images_raise_with_residue(self):
        with pytest.raises(CompatibilityError) as info:
            make_derivation(RING_A, {"y": "1"})
        assert str(info.value.residue) == "1*x^2"

    def test_multi_term_residue(self):
        with pytest.raises(CompatibilityError) as info:
            make_derivation(RING_A, {"y": "z", "t": "y*x"})
        assert str(info.value) == ("derivation is incompatible with the ring relation; "
                                   "residue 1*x^2*z + 2*x*y*t")

    def test_zero_derivation_is_fine(self):
        d = make_derivation(RING_B, {})
        assert d.is_zero
        assert is_homogeneous_derivation(d) is ANY_DEGREE


class TestApply:
    def test_golden_product(self):
        assert str(D1.apply(RING_A.nf("y*t"))) == "-1*x + -1*z^3 + -3*t^2"

    def test_kills_x_and_z(self):
        assert D1.apply("x").is_zero
        assert D1.apply("z").is_zero
        assert D1.apply("y") == RING_A.nf("-2*t")

    def test_linear_over_constants(self):
        a = RING_A.nf("y*t + 3*z")
        assert D1.apply(5 * a) == 5 * D1.apply(a)

    def test_matches_per_pair_reference_with_laurent_image(self):
        ring = RING_A.extend(("tau", "lam"))
        d = make_derivation(ring, {"y": "-2*t", "t": "x^2",
                                   "lam": "3/2*lam^-2*x + tau", "tau": "lam*z - 1/5"})
        ctx = ring.ctx

        def reference(a):
            out = {}
            for mono, coeff in a.poly.terms.items():
                for i, name in enumerate(ctx.variables):
                    if not mono[i]:
                        continue
                    for img_mono, img_coeff in d.images[name].poly.terms.items():
                        m = tuple(e - (j == i) + f
                                  for j, (e, f) in enumerate(zip(mono, img_mono)))
                        out[m] = out.get(m, Fraction(0)) + coeff * mono[i] * img_coeff
            return ring.nf(Poly(ctx, out))

        rng = random.Random(83)
        laurent_seen = False
        for _ in range(25):
            a = random_element(ring, rng, max_terms=5, max_degree=4)
            laurent_seen |= any(m[-1] < 0 for m in a.poly.terms)
            assert d.apply(a) == reference(a)
        assert laurent_seen
        assert d.apply(ring.nf("lam^-3")) == ring.nf("-9/2*lam^-6*x - 3*lam^-4*tau")

    def test_leibniz_on_random_pairs(self):
        rng = random.Random(67)
        for _ in range(20):
            f = random_element(RING_A, rng, max_terms=4, max_degree=4)
            g = random_element(RING_A, rng, max_terms=4, max_degree=4)
            assert D1.apply(f * g) == D1.apply(f) * g + f * D1.apply(g)
            assert D2.apply(f + g) == D2.apply(f) + D2.apply(g)

    def test_wrong_ring_rejected(self):
        with pytest.raises(RingMismatchError):
            D1.apply(RING_B.nf("y"))


class TestNilpotency:
    def test_orders_d1(self):
        report = lnd_bounded(D1)
        assert report.verdict == "LocallyNilpotent"
        assert report.orders == {"x": 1, "y": 3, "z": 1, "t": 2}

    def test_orders_d2(self):
        report = lnd_bounded(D2)
        assert report.verdict == "LocallyNilpotent"
        assert report.orders == {"x": 1, "y": 4, "z": 2, "t": 1}

    def test_small_bound_gives_unknown(self):
        report = lnd_bounded(D1, bound=2)
        assert report.verdict == "Unknown"
        assert report.orders["y"] is None
        assert report.orders["x"] == 1

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            lnd_bounded(D1, bound=0)

    def test_to_json(self):
        data = lnd_bounded(D2).to_json()
        assert data["verdict"] == "LocallyNilpotent"
        assert data["orders"]["y"] == 4
        assert data["bound"] == 32


class TestDegree:
    def test_ell_values(self):
        assert degree_ell(D1) == -2
        assert degree_ell(D2) == -2

    def test_zero_derivation_has_no_ell(self):
        with pytest.raises(ValueError):
            degree_ell(make_derivation(RING_A, {}))

    def test_homogeneity_detection(self):
        assert is_homogeneous_derivation(delta(D1)) == -2
        assert is_homogeneous_derivation(delta(D2)) == -2
        # (x + 1) * D1 is compatible (x lies in the kernel) but inhomogeneous
        mixed = make_derivation(RING_A, {"y": "(x + 1) * -2*t", "t": "(x + 1) * x^2"})
        assert is_homogeneous_derivation(mixed) is None


class TestInducedGraded:
    def test_images_d1(self):
        d = delta(D1)
        assert d.ring == RING_B
        assert d.images["y"] == RING_B.nf("-2*t")
        assert d.images["t"] == RING_B.nf("x^2")
        assert d.images["x"].is_zero and d.images["z"].is_zero

    def test_images_d2(self):
        d = delta(D2)
        assert d.images["y"] == RING_B.nf("-3*z^2")
        assert d.images["z"] == RING_B.nf("x^2")

    def test_only_ring_a(self):
        with pytest.raises(RingMismatchError):
            induced_graded(delta(D1))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            induced_graded(make_derivation(RING_A, {}))


class TestFlow:
    def test_images_d1(self):
        E = flow(D1, "tau")
        assert str(E.images["y"]) == "-1*x^2*tau^2 + 1*y + -2*t*tau"
        assert str(E.images["t"]) == "1*x^2*tau + 1*t"
        assert E.images["x"] == E.extended_ring.nf("x")
        assert E.images["z"] == E.extended_ring.nf("z")

    def test_at_zero_is_identity(self):
        E = flow(D2, "tau")
        assert specialize(E, {"tau": 0}) == identity_endomorphism(RING_A)

    def test_group_law(self):
        for d in (D1, delta(D2)):
            E = flow(d, "tau")
            ctx = d.ring.extend(("tau", "sigma")).ctx
            both = specialize(E, {"tau": ctx.var("tau") + ctx.var("sigma")})
            assert compose(E, flow(d, "sigma")) == both

    def test_specialized_flow_moves_points(self):
        E = flow(D1, "tau")
        at_two = specialize(E, {"tau": 2})
        assert at_two.apply("y") == RING_A.nf("y - 4*t - 4*x^2")
        at_half = specialize(E, {"tau": Fraction(1, 2)})
        assert at_half.apply("t") == RING_A.nf("t + 1/2*x^2")

    def test_needs_certified_nilpotency(self):
        with pytest.raises(ValueError):
            flow(D1, "tau", bound=2)


class TestEndomorphisms:
    def test_bad_images_raise_with_residue(self):
        with pytest.raises(EndomorphismError) as info:
            make_endomorphism(RING_B, (), {"x": "y"})
        assert not info.value.residue.is_zero

    def test_multi_term_residue(self):
        with pytest.raises(EndomorphismError) as info:
            make_endomorphism(RING_A, ("tau",), {"x": "x + tau", "z": "z*tau"})
        assert str(info.value) == (
            "images do not preserve the ring relation; residue "
            "2*x*y*tau + 1*y*tau^2 + 1*z^3*tau^3 + -1*z^3 + 1*tau")

    def test_apply_to_parameter_extensions(self):
        E = flow(D1, "tau")
        own = E.extended_ring
        assert E.apply(own.nf("tau*y")) == own.nf("tau") * E.apply("y")
        both = RING_A.extend(("tau", "lam"))
        got = E.apply(RING_A.extend(("lam",)).nf("lam^-1*y"))
        assert got.ring == both
        assert got == both.nf("lam^-1*y - 2*lam^-1*t*tau - lam^-1*x^2*tau^2")

    def test_apply_rejects_elements_of_another_ring(self):
        with pytest.raises(RingMismatchError):
            flow(D1, "tau").apply(RING_B.nf("y"))
        with pytest.raises(RingMismatchError):
            flow(D1, "tau").apply(RING_B.extend(("tau",)).nf("y"))

    def test_laurent_parameter_needs_a_laurent_target(self):
        ctx = RING_A.ctx.extend(("tau",), laurent=("tau",))
        laurent_tau = QuotientRing("A_tau", ctx, lift(RING_A.relation, ctx), "grlex")
        with pytest.raises(RingMismatchError):
            make_derivation(RING_A.extend(("tau",)), {"y": laurent_tau.nf("tau^-1*z")})

    def test_apply_parses_strings(self):
        E = flow(D1, "tau")
        assert E.apply("t^2") == E.apply(RING_A.nf("t")) ** 2

    def test_compose_requires_one_ring(self):
        with pytest.raises(RingMismatchError):
            compose(flow(D1, "tau"), flow(delta(D1), "tau"))

    def test_specialize_rejects_unknown_parameter(self):
        with pytest.raises(ValueError):
            specialize(flow(D1, "tau"), {"sigma": 1})

    @pytest.mark.parametrize("ring", [RING_B, RING_V], ids=["B", "V"])
    def test_specialize_rejects_elements_of_other_rings(self, ring):
        # x of B or V is not x of A: the relations differ
        with pytest.raises(RingMismatchError):
            specialize(flow(D1, "tau"), {"tau": ring.nf("x")})

    def test_specialize_reads_elements_of_parameter_extensions(self):
        E = flow(D1, "tau")
        s = RING_A.extend(("s",))
        at_s = specialize(E, {"tau": s.nf("x*s")})
        assert at_s.params == ("s",)
        assert at_s == specialize(E, {"tau": s.ctx.var("x") * s.ctx.var("s")})
        assert specialize(E, {"tau": RING_A.nf("z")}) == specialize(E, {"tau": RING_A.ctx.var("z")})

    def test_specialize_rejects_laurent_values_the_extension_cannot_hold(self):
        # w is not a Laurent parameter, so A[w] cannot hold w^-1
        ctx = RING_A.ctx.extend(("w",), laurent=("w",))
        with pytest.raises(ValueError, match="negative exponent on non-Laurent variable 'w'"):
            specialize(flow(D1, "tau"), {"tau": ctx.var("w", -1)})
        ring = QuotientRing("A_w", ctx, lift(RING_A.relation, ctx), "grlex")
        with pytest.raises(RingMismatchError):
            specialize(flow(D1, "tau"), {"tau": ring.nf("w^-1")})

    def test_parameters_keep_registry_order(self):
        E = flow(delta(D1), "tau")
        S = scaling()
        assert compose(E, S).params == ("tau", "lam")
        assert compose(S, E).params == ("tau", "lam")


class TestScaling:
    def test_images(self):
        S = scaling()
        ext = S.extended_ring
        assert S.images["x"] == ext.nf("lam^-1*x")
        assert S.images["y"] == ext.nf("lam^2*y")
        assert S.images["z"] == ext.nf("z")

    def test_group_law(self):
        S = scaling()
        ctx = RING_B.extend(("lam", "mu")).ctx
        assert compose(S, scaling(param="mu")) == \
            specialize(S, {"lam": ctx.var("lam") * ctx.var("mu")})

    def test_at_one_is_identity(self):
        assert specialize(scaling(), {"lam": 1}) == identity_endomorphism(RING_B)

    def test_at_zero_rejected(self):
        with pytest.raises(ValueError):
            specialize(scaling(), {"lam": 0})

    def test_minus_one_matches_deck_involution(self):
        S = specialize(scaling(), {"lam": -1})
        assert S.images["x"] == RING_B.nf("-1*x")
        assert S.images["y"] == RING_B.nf("y")
        sigma = deck_sigma()
        assert compose(sigma, sigma) == identity_endomorphism(RING_V)
        assert sigma.images["x"] == RING_V.nf("-1*x")


class TestNormalization:
    @pytest.mark.parametrize("name", ["d1", "d2"])
    def test_flow_scaling_commutation(self, name):
        d = delta(example_derivations()[name])
        ell = degree_ell(d)
        assert ell == -2
        E = flow(d, "tau")
        S = scaling()
        ctx = RING_B.extend(("tau", "lam")).ctx
        rescaled = specialize(E, {"tau": ctx.var("lam") ** (-ell) * ctx.var("tau")})
        assert compose(E, S) == compose(S, rescaled)


class TestInvariance:
    def test_dichotomy_for_delta1(self):
        d = delta(D1)
        assert invariance_check(d, "F_plus")
        assert not invariance_check(d, "F_minus")
        assert not invariance_check(d, "V_slice")

    def test_dichotomy_for_delta2(self):
        d = delta(D2)
        assert invariance_check(d, "F_plus")
        assert not invariance_check(d, "F_minus")

    def test_unknown_locus(self):
        with pytest.raises(ValueError):
            invariance_check(delta(D1), "F_zero")

    def test_only_ring_b(self):
        with pytest.raises(RingMismatchError):
            invariance_check(D1, "F_plus")


class TestKernelChain:
    def test_delta1_from_y(self):
        nu, bottom = kernel_chain(delta(D1), "y")
        assert (nu, str(bottom)) == (2, "-2*x^2")
        assert deg(bottom) == -2
        assert is_homogeneous(bottom, -2)

    def test_delta2_from_y(self):
        nu, bottom = kernel_chain(delta(D2), "y")
        assert (nu, str(bottom)) == (3, "-6*x^4")
        assert deg(bottom) == -4

    def test_kernel_element_stays_put(self):
        nu, bottom = kernel_chain(delta(D1), "x")
        assert nu == 0 and bottom == RING_B.nf("x")

    def test_needs_homogeneous_input(self):
        with pytest.raises(ValueError):
            kernel_chain(delta(D1), "y + x")
        with pytest.raises(ValueError):
            kernel_chain(delta(D1), 0)


class TestBoundEdges:
    """lnd_bounded, flow and induce accept orders up to the bound; kernel_chain
    accepts up to bound steps, one application fewer than the orbit length."""

    def test_lnd_certifies_order_equal_to_bound(self):
        assert lnd_bounded(D1, 3).verdict == "LocallyNilpotent"
        assert lnd_bounded(D1, 2).verdict == "Unknown"

    def test_flow_bound(self):
        assert str(flow(D1, bound=3).images["y"]) == "-1*x^2*tau^2 + 1*y + -2*t*tau"
        with pytest.raises(ValueError, match="certified within bound 2"):
            flow(D1, bound=2)
        with pytest.raises(ValueError, match="bound must be at least 1"):
            flow(D1, bound=0)

    def test_kernel_chain_bound_counts_steps(self):
        nu, bottom = kernel_chain(delta(D1), "y", bound=2)
        assert (nu, str(bottom)) == (2, "-2*x^2")
        with pytest.raises(ValueError, match="no kernel element reached within 1 applications"):
            kernel_chain(delta(D1), "y", bound=1)

    @pytest.mark.parametrize("bound", [1, 0, -1])
    def test_kernel_element_needs_no_steps(self, bound):
        assert kernel_chain(delta(D1), "x", bound=bound) == (0, RING_B.nf("x"))

    def test_flow_walks_each_orbit_once(self, monkeypatch):
        calls = []
        original = Derivation.apply

        def counting(self, a):
            calls.append(a)
            return original(self, a)

        monkeypatch.setattr(Derivation, "apply", counting)
        flow(D1)
        applied = len(calls)
        assert applied == sum(lnd_bounded(D1).orders.values()) == 7


class TestConjugation:
    def test_by_own_flow_is_identity(self):
        conj = conjugate(D1, flow(D1, "s"))
        ext = RING_A.extend(("s",))
        assert conj == make_derivation(ext, {"y": "-2*t", "t": "x^2"})

    def test_cross_conjugates_kill_x(self):
        for d, e in ((D1, D2), (D2, D1)):
            conj = conjugate(d, flow(e, "s"))
            assert conj.apply("x").is_zero
            assert lnd_bounded(conj).verdict == "LocallyNilpotent"

    def test_flow_of_conjugate_fixes_x(self):
        conj = conjugate(D1, flow(D2, "s"))
        E = flow(conj, "tau")
        assert E.images["x"] == E.extended_ring.nf("x")

    def test_needs_one_parameter(self):
        with pytest.raises(ValueError):
            conjugate(D1, identity_endomorphism(RING_A))


class TestSerialization:
    def test_roundtrip(self):
        data = derivation_to_json(D2)
        assert data == {"ring": "A", "dx": "0", "dy": "-3*z^2", "dz": "1*x^2", "dt": "0"}
        assert derivation_from_json(data) == D2

    def test_rejects_other_rings(self):
        with pytest.raises(ValueError):
            derivation_from_json({"ring": "Neil", "dx": "0", "dy": "0", "dz": "0", "dt": "0"})

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            derivation_from_json({"ring": "A", "dy": "-2*t"})

    def test_rejects_unknown_keys(self):
        data = dict(derivation_to_json(D1), extra=1)
        with pytest.raises(ValueError, match="unknown keys: \\['extra'\\]"):
            derivation_from_json(data)

    @pytest.mark.parametrize("value", [None, 0, ["-2*t"]])
    def test_rejects_non_string_images(self, value):
        data = dict(derivation_to_json(D1), dy=value)
        with pytest.raises(ValueError, match="derivation image 'dy' must be a string"):
            derivation_from_json(data)


# -- an independent route: sympy differentiates and reduces ----------------------

# d1, d2 and kernel multiples a(x, z)*d1 and a(x, t)*d2, which stay locally nilpotent
MULTIPLES = (("d1", "1"), ("d2", "1"), ("d1", "1 + x*z"), ("d1", "x^2 - 1/2*z^2"),
             ("d2", "3 + x*t"), ("d2", "x - 2/3*t^2"))


def _multiple(base: str, text: str):
    a = RING_A.nf(text).poly
    images = example_derivations()[base].images
    return make_derivation(RING_A, {v: a * img.poly for v, img in images.items()})


def _chain_lnd() -> Derivation:
    """(x + x^2*z)*d1 conjugated by the flow of (1/2 + x)*d2 in s, then
    s = 3/2: the generated LND of test_golden_outputs.py::_chain_text."""
    C = conjugate(_multiple("d1", "x + x^2*z"), flow(_multiple("d2", "1/2 + x"), "s"))
    at = {"s": RING_A.ctx.const(Fraction(3, 2))}
    return make_derivation(RING_A, {v: C.images[v].poly.substitute(at, target=RING_A.ctx)
                                    for v in RING_A.ctx.variables})


# each case builds its derivation when its test runs
SYMPY_CASES = [pytest.param(lambda b=b, m=m: _multiple(b, m), id=f"{b}-{m}") for b, m in MULTIPLES]
SYMPY_CASES.append(pytest.param(_chain_lnd, id="generated chain"))


@pytest.fixture(scope="module")
def sympy_route():
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x y z t tau")

    def to_sympy(f: Poly):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(g**e for g, e in zip(gens, mono))))
                   for mono, c in f.terms.items())

    relation = to_sympy(RING_A.relation)

    def apply(d, expr):
        """sum_v d(v) * d expr / dv, reduced by the relation of A."""
        image = sum((sympy.diff(expr, v) * to_sympy(d.images[str(v)].poly)
                     for v in gens[:4]), sympy.Integer(0))
        return sympy.reduced(sympy.expand(image), [relation], *gens, order="grlex")[1]

    return sympy, to_sympy, apply


@pytest.mark.parametrize("build", SYMPY_CASES)
def test_apply_agrees_with_sympy(build, sympy_route):
    sympy, to_sympy, apply = sympy_route
    d = build()
    rng = random.Random(47)
    for _ in range(6):
        f = random_poly(RING_A.ctx, rng, max_terms=5, max_degree=4)
        assert sympy.expand(apply(d, to_sympy(f)) - to_sympy(d.apply(f).poly)) == 0


@pytest.mark.parametrize("build", SYMPY_CASES)
def test_flow_agrees_with_truncated_exponential_in_sympy(build, sympy_route):
    sympy, to_sympy, apply = sympy_route
    d = build()
    tau = sympy.Symbol("tau")
    e = flow(d, "tau")
    assert e.extended_ring.ctx.variables == ("x", "y", "z", "t", "tau")
    for g in RING_A.ctx.variables:
        # sum over k of tau^k / k! * d^k(g), iterating d in sympy until zero
        term, total, k = sympy.Symbol(g), sympy.Integer(0), 0
        while term != 0:
            total += tau**k / sympy.factorial(k) * term
            term, k = apply(d, term), k + 1
            assert k <= 32
        assert sympy.expand(total - to_sympy(e.images[g].poly)) == 0
