"""Machine-checked identity suite for the geometry of the Russell cubic.

Each check computes exact residues for one step of the argument that the
cubic X: x + x^2*y + z^3 + t^2 = 0 admits no additive group action moving x
(Makar-Limanov's theorem): the blowup embedding, the fiber and singular locus
of the blown-up family, the torus action on the degeneration W with its
trivialization, the flow normalization identity, the invariant-locus
dichotomy for negatively graded derivations, and the bundled example
derivations together with their conjugates.

A result passes when its residues are identically zero.  Negative controls
run deliberately perturbed certificates and pass only when the perturbation
leaves a nonzero residue.  ``run_all`` adds seeded randomized suites for the
underlying algebra and returns results sorted by check id.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .derivations import (Derivation, RingEndomorphism, compose, conjugate, deck_sigma,
                          degree_ell, example_derivations, flow, identity_endomorphism,
                          induced_graded, invariance_check, is_homogeneous_derivation,
                          kernel_chain, lnd_bounded, scaling, specialize)
from .parse import parse
from .poly import Context, Poly, lift
from .quotient import (CTX_XYZT, CTX_ZT, RING_A, RING_B, RING_NEIL, RING_V,
                       RingElement, oracle_equal, random_point)
from .sampling import random_nonzero_element, random_poly, random_rational
from .weights import (WEIGHTS, deg, deg_laurent_oracle, gr, homogeneous_components,
                      is_homogeneous, monomial_weight)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification step; witness is a canonical residue text."""

    id: str
    description: str
    paper_ref: str
    status: str  # "pass" | "fail"
    witness: str

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {"id": self.id, "paper_ref": self.paper_ref,
                "status": self.status, "witness": self.witness}


def _check(check_id: str, description: str, ref: str, residues=(),
           facts: dict[str, bool] | None = None) -> CheckResult:
    """Fails with the first nonzero residue as witness, else with the failed
    facts joined by "; "; passes with witness "0"."""
    for r in residues:
        poly = r.poly if isinstance(r, RingElement) else r
        if not poly.is_zero:
            return CheckResult(check_id, description, ref, "fail", str(poly))
    failed = [name for name, ok in (facts or {}).items() if not ok]
    if failed:
        return CheckResult(check_id, description, ref, "fail", "; ".join(failed))
    return CheckResult(check_id, description, ref, "pass", "0")


def _control_check(check_id: str, description: str, ref: str, residue) -> CheckResult:
    poly = residue.poly if isinstance(residue, RingElement) else residue
    status = "pass" if not poly.is_zero else "fail"
    return CheckResult(check_id, description, ref, status, str(poly))


# blowup chart data: ideal (g, h) with g = x^2, h = x + z^3 + t^2
_CTX_BLOWUP = Context(("x", "y", "z", "t", "u", "v"))
_G = parse("x^2", _CTX_BLOWUP)
_H = parse("x + z^3 + t^2", _CTX_BLOWUP)
_CHART_EQ = _H * _CTX_BLOWUP.var("u") + _G * _CTX_BLOWUP.var("v")


def check_embedding() -> CheckResult:
    """Substituting (u, v) = (1, y) into the chart equation recovers X."""
    image = _CHART_EQ.substitute(
        {"u": _CTX_BLOWUP.one(), "v": _CTX_BLOWUP.var("y")}, target=_CTX_BLOWUP)
    residue = image - lift(RING_A.relation, _CTX_BLOWUP)
    return _check(
        "embedding",
        "chart u=1, v=y of the blowup along (x^2, x+z^3+t^2) recovers the cubic",
        "blowup of affine 3-space along the ideal (x^2, x + z^3 + t^2)",
        [residue])


def check_embedding_negative_control() -> CheckResult:
    """Perturbed chart (u, v) = (1, 0) must miss the cubic."""
    image = _CHART_EQ.substitute(
        {"u": _CTX_BLOWUP.one(), "v": _CTX_BLOWUP.zero()}, target=_CTX_BLOWUP)
    return _control_check(
        "embedding_negative_control",
        "chart u=1, v=0 leaves a nonzero residue against the cubic relation",
        "blowup of affine 3-space along the ideal (x^2, x + z^3 + t^2)",
        image - lift(RING_A.relation, _CTX_BLOWUP))


def check_fiber_over_zero(seed: int = 0) -> CheckResult:
    """x = 0 forces the cusp curve, and sampled points keep x away from 0."""
    zt = CTX_ZT
    cusp = zt.var("z") ** 3 + zt.var("t") ** 2
    residues = []
    # chart equation at u=1 and the cubic relation both pinch to z^3 + t^2
    chart_u1 = _H + _G * _CTX_BLOWUP.var("v")
    pinched = chart_u1.substitute({"x": _CTX_BLOWUP.zero()}, target=_CTX_BLOWUP)
    residues.append(pinched - lift(cusp, _CTX_BLOWUP))
    residues.append(RING_A.relation.substitute({"x": zt.zero(), "y": zt.zero()}, target=zt) - cusp)
    facts = {}
    rng = random.Random(seed)
    for i in range(20):
        pt = random_point("X", rng=rng)
        facts[f"sample {i} has x != 0"] = pt["x"] != 0
        facts[f"sample {i} lies on the cubic"] = RING_A.relation.evaluate(pt) == 0
    return _check(
        "fiber_over_zero",
        "x=0 forces z^3 + t^2 = 0; 20 sampled points stay off the special fiber",
        "special fiber of the modification over the cusp curve",
        residues, facts)


def check_singular_locus() -> CheckResult:
    """Jacobian of the v=1 chart dies along the cusp section; u=1 chart is smooth."""
    e_minus = _H * _CTX_BLOWUP.var("u") + _G
    at_section = {"x": CTX_ZT.zero(), "u": CTX_ZT.zero()}
    residues = []
    for name in ("x", "z", "t", "u"):
        residues.append(RING_NEIL.nf(e_minus.partial(name).substitute(at_section, target=CTX_ZT)))
    residues.append(RING_NEIL.nf(e_minus.substitute(at_section, target=CTX_ZT)))
    # u=1 chart: 1 = (1 - 2*v*x) * de/dx + 4*v^2 * de/dv certifies smoothness
    e_plus = _H + _G * _CTX_BLOWUP.var("v")
    one = _CTX_BLOWUP.one()
    certificate = ((one - 2 * _CTX_BLOWUP.var("v") * _CTX_BLOWUP.var("x")) * e_plus.partial("x")
                   + 4 * _CTX_BLOWUP.var("v") ** 2 * e_plus.partial("v"))
    residues.append(certificate - one)
    return _check(
        "singular_locus",
        "v=1 chart is singular exactly along the cusp section; u=1 chart is smooth",
        "singular locus of the blown-up family",
        residues)


def check_singular_locus_negative_control() -> CheckResult:
    """Weakening 4*v^2 to 3*v^2 breaks the smoothness certificate."""
    e_plus = _H + _G * _CTX_BLOWUP.var("v")
    one = _CTX_BLOWUP.one()
    bad = ((one - 2 * _CTX_BLOWUP.var("v") * _CTX_BLOWUP.var("x")) * e_plus.partial("x")
           + 3 * _CTX_BLOWUP.var("v") ** 2 * e_plus.partial("v"))
    return _control_check(
        "singular_locus_negative_control",
        "perturbed certificate (coefficient 3*v^2) leaves a nonzero residue",
        "singular locus of the blown-up family",
        one - bad)


def check_gm_action() -> CheckResult:
    """S_lam fixes the relation of B, satisfies the group law, and fixes z, t."""
    S = scaling()
    ext = S.extended_ring
    residues = []
    image_polys = {name: img.poly for name, img in S.images.items()}
    residues.append(RING_B.relation.substitute(image_polys, target=ext.ctx)
                    - lift(RING_B.relation, ext.ctx))
    mu = scaling(param="mu")
    ctx2 = RING_B.extend(("lam", "mu")).ctx
    product = specialize(S, {"lam": ctx2.var("lam") * ctx2.var("mu")})
    facts = {
        "scaling group law S_lam . S_mu = S_(lam*mu)": compose(S, mu) == product,
        "z is invariant": S.images["z"] == ext.nf("z"),
        "t is invariant": S.images["t"] == ext.nf("t"),
    }
    return _check(
        "gm_action",
        "scaling x -> lam^-1*x, y -> lam^2*y fixes the relation of W and acts as a group",
        "the hyperbolic torus action on W",
        residues, facts)


# trivialization of W away from the cusp fibers
_CTX_TRIV = Context(("z", "t", "lam"), laurent=frozenset({"lam"}))
_CTX_WX = Context(("x", "z", "t"), laurent=frozenset({"x"}))


def _forward_images() -> dict[str, Poly]:
    z3t2 = _CTX_TRIV.var("z") ** 3 + _CTX_TRIV.var("t") ** 2
    return {
        "x": _CTX_TRIV.var("lam", -1),
        "y": -z3t2 * _CTX_TRIV.var("lam", 2),
        "z": _CTX_TRIV.var("z"),
        "t": _CTX_TRIV.var("t"),
    }


def check_trivialization() -> CheckResult:
    """The map ((z,t),lam) -> (lam^-1, -(z^3+t^2)*lam^2, z, t) trivializes W."""
    fwd = _forward_images()
    residues = []
    # (a) lands on W
    residues.append(RING_B.relation.substitute(fwd, target=_CTX_TRIV))
    # (b) inverse ((z,t), x^-1) after forward is the identity on (z, t, lam)
    inverse_lam = _CTX_WX.var("x", -1)
    residues.append(inverse_lam.substitute({"x": fwd["x"]}, target=_CTX_TRIV) - _CTX_TRIV.var("lam"))
    # (c) forward after inverse restores x and the eliminated y on W
    back = {name: img.substitute({"lam": _CTX_WX.var("x", -1)}, target=_CTX_WX)
            for name, img in fwd.items()}
    y_model = -(_CTX_WX.var("z") ** 3 + _CTX_WX.var("t") ** 2) * _CTX_WX.var("x", -2)
    residues.append(back["x"] - _CTX_WX.var("x"))
    residues.append(back["y"] - y_model)
    residues.append(back["z"] - _CTX_WX.var("z"))
    residues.append(back["t"] - _CTX_WX.var("t"))
    # (d) equivariance: forward at lam*mu equals S_lam of forward at mu
    ctx2 = Context(("z", "t", "lam", "mu"), laurent=frozenset({"lam", "mu"}))
    lam_mu = ctx2.var("lam") * ctx2.var("mu")
    at_mu = {name: lift(img, ctx2).substitute({"lam": ctx2.var("mu")}, target=ctx2)
             for name, img in fwd.items()}
    for name in ("x", "y", "z", "t"):
        twisted = lift(fwd[name], ctx2).substitute({"lam": lam_mu}, target=ctx2)
        scaled = ctx2.var("lam") ** WEIGHTS[name] * at_mu[name]
        residues.append(twisted - scaled)
    return _check(
        "trivialization",
        "explicit trivialization of W off the cusp fibers, with inverse and equivariance",
        "trivialization of the torus quotient of W",
        residues)


def check_normalization(d: Derivation, E: RingEndomorphism, check_id: str) -> CheckResult:
    """Flow versus scaling: compose(E_tau, S_lam) = compose(S_lam, E_(lam^-ell tau)),
    where E = flow(d, "tau")."""
    ell = degree_ell(d)
    S = scaling(d.ring)
    ctx = d.ring.extend(("tau", "lam")).ctx
    rescaled = specialize(E, {"tau": ctx.var("lam", -ell) * ctx.var("tau")})
    ok = compose(E, S) == compose(S, rescaled)
    return _check(
        check_id,
        f"flow normalization against the torus action, degree {ell}",
        "normalization of one-parameter flows by the torus",
        facts={"compose(E_tau, S_lam) == compose(S_lam, E_(lam^-ell tau))": ok})


def check_lemma_dichotomy(d: Derivation, check_id: str = "lemma_dichotomy") -> CheckResult:
    """Negative degree forces invariance of x=0 while y=0 moves."""
    shift = is_homogeneous_derivation(d)
    if not isinstance(shift, int):
        return CheckResult(check_id, "invariant-locus dichotomy",
                           "invariance of the fixed-point loci under negative flows",
                           "fail", "derivation is not homogeneous of a single degree")
    facts = {"degree is negative": shift < 0,
             "F_plus (x=0) is invariant": invariance_check(d, "F_plus"),
             "F_minus (y=0) is not invariant": not invariance_check(d, "F_minus")}
    nu, bottom = kernel_chain(d, RING_B.nf("y"))
    facts[f"kernel chain from y ends after {nu} steps in degree {WEIGHTS['y'] + nu * shift}"] = \
        is_homogeneous(bottom, WEIGHTS["y"] + nu * shift) and d.apply(bottom).is_zero
    return _check(
        check_id,
        f"degree {shift} < 0 leaves x=0 invariant and moves y=0",
        "invariance of the fixed-point loci under negative flows",
        facts=facts)


def check_theorem_examples(ex: dict[str, Derivation],
                           flows: dict[str, RingEndomorphism]) -> CheckResult:
    """The bundled derivations and their flow conjugates all leave x alone;
    flows[name] is flow(ex[name], "tau")."""
    facts = {}
    for name, d in ex.items():
        facts[f"{name} kills x"] = d.apply("x").is_zero
        facts[f"{name} is locally nilpotent"] = lnd_bounded(d).verdict == "LocallyNilpotent"
        facts[f"{name} has negative degree"] = degree_ell(d) < 0
        E = flows[name]
        facts[f"flow of {name} fixes x"] = E.images["x"] == E.extended_ring.nf("x")
    for a, b in (("d1", "d2"), ("d2", "d1")):
        conj = conjugate(ex[a], flow(ex[b], "s"))
        facts[f"conjugate of {a} by the flow of {b} kills x"] = conj.apply("x").is_zero
        Ec = flow(conj, "tau")
        facts[f"flow of the conjugate of {a} fixes x"] = \
            Ec.images["x"] == Ec.extended_ring.nf("x")
    return _check(
        "theorem_invariance_examples",
        "example derivations and their conjugates never move the first coordinate",
        "Makar-Limanov: no additive action on the cubic moves x",
        facts=facts)


def check_limits_degree_signs() -> CheckResult:
    """Functions on y=0 have weights <= 0; functions on x=0 have weights >= 0."""
    facts = {}
    ok_minus = all(
        monomial_weight(Context(("x", "z", "t")), (a, c, dd)) <= 0
        for a in range(9) for c in range(3) for dd in range(9))
    ok_plus = all(
        monomial_weight(Context(("y", "z", "t")), (b, c, dd)) >= 0
        for b in range(9) for c in range(3) for dd in range(9))
    facts["normal monomials on F_minus have weight <= 0"] = ok_minus
    facts["normal monomials on F_plus have weight >= 0"] = ok_plus
    return _check(
        "limits_degree_signs",
        "degree signs match the existence of torus limits on the two loci",
        "limit behavior of torus orbits along the fixed loci",
        facts=facts)


def check_isotropy_order_two() -> CheckResult:
    """S_lam moves y by (lam^2 - 1)*y, so slice isotropy is {1, -1}; S_-1 is the deck map."""
    S = scaling()
    ext = S.extended_ring
    y = ext.ctx.var("y")
    residues = [S.images["y"].poly - y - (ext.ctx.var("lam") ** 2 - ext.ctx.one()) * y]
    minus_one = specialize(S, {"lam": -1})
    sigma = deck_sigma()
    facts = {
        "S_-1 sends x to -x": minus_one.images["x"] == RING_B.nf("-1*x"),
        "S_-1 fixes y": minus_one.images["y"] == RING_B.nf("y"),
        "deck map sends x to -x": sigma.images["x"] == RING_V.nf("-1*x"),
        "deck map is an involution": compose(sigma, sigma) == identity_endomorphism(RING_V),
    }
    return _check(
        "isotropy_order_two",
        "the slice y=1 has isotropy of order two, realized by the deck involution",
        "isotropy of the slice y=1 inside the torus",
        residues, facts)


def check_flow_identities(families: dict[str, Derivation],
                          flows: dict[str, RingEndomorphism]) -> CheckResult:
    """E_0 = id and the one-parameter group law, for both examples on A and B;
    flows[name] is flow(families[name], "tau")."""
    facts = {}
    for name, d in families.items():
        E = flows[name]
        facts[f"{name}: E_0 is the identity"] = \
            specialize(E, {"tau": 0}) == identity_endomorphism(d.ring)
        ctx = d.ring.extend(("tau", "sigma")).ctx
        summed = specialize(E, {"tau": ctx.var("tau") + ctx.var("sigma")})
        facts[f"{name}: flows compose additively"] = \
            compose(E, flow(d, "sigma")) == summed
    return _check(
        "flow_identities",
        "exponential flows form one-parameter groups",
        "one-parameter additive group actions as exponential flows",
        facts=facts)


# -- randomized suites ---------------------------------------------------------

def _rng_for(seed: int, check_id: str) -> random.Random:
    return random.Random(f"{seed}/{check_id}")


def _random_poly_ring_axioms(seed: int) -> CheckResult:
    rng = _rng_for(seed, "random_poly_ring_axioms")
    facts = {}
    for i in range(30):
        f = random_poly(CTX_XYZT, rng)
        g = random_poly(CTX_XYZT, rng)
        h = random_poly(CTX_XYZT, rng)
        facts[f"triple {i}"] = ((f + g) + h == f + (g + h) and f * g == g * f
                                and f * (g + h) == f * g + f * h)
    return _check("random_poly_ring_axioms",
                  "associativity, commutativity, distributivity on random triples",
                  "exact polynomial arithmetic", facts=facts)


def _random_eval_homomorphism(seed: int) -> CheckResult:
    rng = _rng_for(seed, "random_eval_homomorphism")
    facts = {}
    for i in range(25):
        f = random_poly(CTX_XYZT, rng)
        g = random_poly(CTX_XYZT, rng)
        pt = {name: random_rational(rng) for name in CTX_XYZT.variables}
        facts[f"pair {i}"] = ((f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)
                              and (f + g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt))
    return _check("random_eval_homomorphism",
                  "evaluation is a ring homomorphism on random pairs",
                  "exact polynomial arithmetic", facts=facts)


def _random_substitution_composition(seed: int) -> CheckResult:
    rng = _rng_for(seed, "random_substitution_composition")
    facts = {}
    for i in range(12):
        f = random_poly(CTX_XYZT, rng, max_terms=4, max_degree=4)
        first = {"x": random_poly(CTX_XYZT, rng, max_terms=2, max_degree=2),
                 "y": random_poly(CTX_XYZT, rng, max_terms=2, max_degree=2)}
        second = {"z": random_poly(CTX_XYZT, rng, max_terms=2, max_degree=2)}
        lhs = f.substitute(first, target=CTX_XYZT).substitute(second, target=CTX_XYZT)
        fused = {name: img.substitute(second, target=CTX_XYZT) for name, img in first.items()}
        fused["z"] = second["z"]
        rhs = f.substitute(fused, target=CTX_XYZT)
        facts[f"composite {i}"] = lhs == rhs
    return _check("random_substitution_composition",
                  "substitution composes functorially on random data",
                  "exact polynomial arithmetic", facts=facts)


def _random_partial_leibniz(seed: int) -> CheckResult:
    rng = _rng_for(seed, "random_partial_leibniz")
    facts = {}
    for i in range(25):
        f = random_poly(CTX_XYZT, rng)
        g = random_poly(CTX_XYZT, rng)
        name = rng.choice(CTX_XYZT.variables)
        facts[f"pair {i} d/d{name}"] = \
            (f * g).partial(name) == f.partial(name) * g + f * g.partial(name)
    return _check("random_partial_leibniz",
                  "formal partials satisfy the Leibniz rule on random pairs",
                  "exact polynomial arithmetic", facts=facts)


def _random_nf_soundness(seed: int) -> CheckResult:
    rng = _rng_for(seed, "random_nf_soundness")
    facts = {}
    for ring in (RING_A, RING_B):
        for i in range(30):
            f = random_poly(ring.ctx, rng)
            g = random_poly(ring.ctx, rng)
            prod = ring.nf(f * g)
            facts[f"{ring.name} pair {i} multiplicative"] = prod == ring.nf(f) * ring.nf(g)
            facts[f"{ring.name} pair {i} idempotent"] = ring.reduce(prod.poly) == prod.poly
    return _check("random_nf_soundness",
                  "normal forms respect products and are idempotent",
                  "canonical normal forms in the quotient rings", facts=facts)


def _random_nf_confluence(seed: int) -> CheckResult:
    rng = _rng_for(seed, "random_nf_confluence")
    facts = {}
    for ring in (RING_A, RING_B):
        for i in range(20):
            f = random_poly(ring.ctx, rng)
            facts[f"{ring.name} sample {i}"] = \
                ring.reduce(f, "max") == ring.reduce(f, "first")
    return _check("random_nf_confluence",
                  "reduction strategies agree on the normal form",
                  "canonical normal forms in the quotient rings", facts=facts)


def _random_basis_shape(seed: int) -> CheckResult:
    rng = _rng_for(seed, "random_basis_shape")
    facts = {}
    x_at = RING_A.ctx.index("x")
    y_at = RING_A.ctx.index("y")
    for i in range(60):
        a = RING_A.nf(random_poly(RING_A.ctx, rng))
        facts[f"sample {i}"] = all(
            mono[x_at] <= 1 or mono[y_at] == 0 for mono in a.poly.terms)
    return _check("random_basis_shape",
                  "normal monomials are at most linear in x once y appears",
                  "the monomial basis of the coordinate ring", facts=facts)


def _random_deg_oracle_agreement(seed: int) -> CheckResult:
    rng = _rng_for(seed, "random_deg_oracle_agreement")
    facts = {}
    for i in range(40):
        a = random_nonzero_element(RING_A, rng)
        facts[f"sample {i}"] = deg(a) == deg_laurent_oracle(a)
    return _check("random_deg_oracle_agreement",
                  "weight degree equals the Laurent vanishing-order oracle",
                  "the weight filtration of the coordinate ring", facts=facts)


def _random_deg_additivity(seed: int) -> CheckResult:
    rng = _rng_for(seed, "random_deg_additivity")
    facts = {}
    for i in range(25):
        a = random_nonzero_element(RING_A, rng, max_terms=4, max_degree=4)
        b = random_nonzero_element(RING_A, rng, max_terms=4, max_degree=4)
        facts[f"pair {i}"] = deg(a * b) == deg(a) + deg(b)
    return _check("random_deg_additivity",
                  "degrees add under multiplication",
                  "the weight filtration of the coordinate ring", facts=facts)


def _random_gr_multiplicative(seed: int) -> CheckResult:
    rng = _rng_for(seed, "random_gr_multiplicative")
    facts = {}
    for i in range(25):
        a = random_nonzero_element(RING_A, rng, max_terms=4, max_degree=4)
        b = random_nonzero_element(RING_A, rng, max_terms=4, max_degree=4)
        facts[f"pair {i}"] = gr(a * b) == gr(a) * gr(b)
    return _check("random_gr_multiplicative",
                  "the top-weight part is multiplicative",
                  "the associated graded ring of the filtration", facts=facts)


def _random_oracle_concordance(seed: int) -> CheckResult:
    rng = _rng_for(seed, "random_oracle_concordance")
    facts = {}
    for ring in (RING_A, RING_B):
        for i in range(10):
            a = random_nonzero_element(ring, rng, max_terms=4, max_degree=4)
            if i % 3 == 0:
                b = ring.nf(a.poly + random_poly(ring.ctx, rng, max_terms=2, max_degree=3)
                            * ring.relation)
            else:
                b = random_nonzero_element(ring, rng, max_terms=4, max_degree=4)
            truth = a == b
            sub = rng.randint(0, 2**30)
            for mode in ("qq", "modp"):
                facts[f"{ring.name} pair {i} mode {mode}"] = \
                    oracle_equal(a, b, samples=15, seed=sub, mode=mode) == truth
    return _check("random_oracle_concordance",
                  "sampled evaluation over Q and mod 2^31-1 matches exact equality",
                  "randomized equality oracles for the quotient rings", facts=facts)


def _random_parser_roundtrip(seed: int) -> CheckResult:
    rng = _rng_for(seed, "random_parser_roundtrip")
    laurent_ctx = Context(("x", "z", "t", "lam"), laurent=frozenset({"x", "lam"}))
    facts = {}
    for i in range(40):
        ctx = CTX_XYZT if i % 2 == 0 else laurent_ctx
        f = random_poly(ctx, rng)
        facts[f"sample {i}"] = parse(str(f), ctx) == f
    return _check("random_parser_roundtrip",
                  "parsing the canonical text form restores the polynomial",
                  "the expression grammar and canonical printer", facts=facts)


def _random_homogeneous_components(seed: int) -> CheckResult:
    rng = _rng_for(seed, "random_homogeneous_components")
    facts = {}
    for i in range(25):
        b = random_nonzero_element(RING_B, rng)
        parts = homogeneous_components(b)
        total = RING_B.zero()
        homogeneous = True
        for n, part in parts:
            total = total + part
            homogeneous = homogeneous and is_homogeneous(part, n)
        facts[f"sample {i}"] = homogeneous and total == b
    return _check("random_homogeneous_components",
                  "weight components are homogeneous and sum back",
                  "the grading of the degenerate coordinate ring", facts=facts)


# -- assembly -------------------------------------------------------------------

def run_all(seed: int = 0) -> list[CheckResult]:
    """Every named check plus the randomized suites, sorted by check id.

    The seed steers only the random samples; the set of checks and their
    verdicts on correct code are seed-independent.
    """
    ex = example_derivations()
    families = {**ex, **{f"induced {name}": induced_graded(d) for name, d in ex.items()}}
    flows = {name: flow(d, "tau") for name, d in families.items()}
    results = [
        check_embedding(),
        check_embedding_negative_control(),
        check_fiber_over_zero(seed),
        check_singular_locus(),
        check_singular_locus_negative_control(),
        check_gm_action(),
        check_trivialization(),
        check_normalization(families["induced d1"], flows["induced d1"], "normalization_d1"),
        check_normalization(families["induced d2"], flows["induced d2"], "normalization_d2"),
        check_lemma_dichotomy(families["induced d1"], "lemma_dichotomy_d1"),
        check_lemma_dichotomy(families["induced d2"], "lemma_dichotomy_d2"),
        check_theorem_examples(ex, flows),
        check_limits_degree_signs(),
        check_isotropy_order_two(),
        check_flow_identities(families, flows),
        _random_poly_ring_axioms(seed),
        _random_eval_homomorphism(seed),
        _random_substitution_composition(seed),
        _random_partial_leibniz(seed),
        _random_nf_soundness(seed),
        _random_nf_confluence(seed),
        _random_basis_shape(seed),
        _random_deg_oracle_agreement(seed),
        _random_deg_additivity(seed),
        _random_gr_multiplicative(seed),
        _random_oracle_concordance(seed),
        _random_parser_roundtrip(seed),
        _random_homogeneous_components(seed),
    ]
    return sorted(results, key=lambda r: r.id)


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)


def report_to_json(results: list[CheckResult]) -> list[dict]:
    return [r.to_json() for r in results]


def format_report(results: list[CheckResult]) -> str:
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.id}: {r.description}" for r in results]
    good = sum(r.passed for r in results)
    lines.append(f"{good}/{len(results)} checks passed")
    return "\n".join(lines)
