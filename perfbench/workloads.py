"""The three benchmark workloads: seeded inputs, the timed operation, and its check.

Each workload turns the benchmark seed into an endless, deterministic stream
of inputs.  Shapes come round-robin from a fixed menu, so every run has the
same mix of sizes and only the concrete coefficients, exponents and seeds
depend on the seed; that keeps the per-run medians comparable across seeds.

``op`` is the only code timed and the only code that calls the program.
``check`` runs after the timed window and returns a list of problems (empty
when the output is correct), using the reference arithmetic of ``exprs``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import exprs

# The frozen 28-check inventory of ``russell.verifier.run_all``, in report order.
FROZEN_CHECK_IDS = (
    "embedding", "embedding_negative_control", "fiber_over_zero", "flow_identities",
    "gm_action", "isotropy_order_two", "lemma_dichotomy_d1", "lemma_dichotomy_d2",
    "limits_degree_signs", "normalization_d1", "normalization_d2",
    "random_basis_shape", "random_deg_additivity", "random_deg_oracle_agreement",
    "random_eval_homomorphism", "random_gr_multiplicative",
    "random_homogeneous_components", "random_nf_confluence", "random_nf_soundness",
    "random_oracle_concordance", "random_parser_roundtrip", "random_partial_leibniz",
    "random_poly_ring_axioms", "random_substitution_composition", "singular_locus",
    "singular_locus_negative_control", "theorem_invariance_examples", "trivialization",
)
ENTRY_KEYS = {"id", "paper_ref", "status", "witness"}

CHECK_POINTS = 2  # rational points per output in the evaluation gates


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 4))


def _term_text(coeff: Fraction, variables, mono) -> str:
    factors = [str(coeff)]
    for name, e in zip(variables, mono):
        if e:
            factors.append(name if e == 1 else f"{name}^{e}")
    return "*".join(factors)


def _linear_text(rng: random.Random, variables) -> str:
    parts = [f"{_coeff(rng)}*{name}" for name in variables] + [str(_coeff(rng))]
    return "(" + " + ".join(parts) + ")"


def _random_monomials(rng: random.Random, width: int, count: int, degree: int,
                      accept) -> list[tuple[int, ...]]:
    """``count`` distinct accepted exponent vectors of total degree <= degree."""
    monos: set[tuple[int, ...]] = set()
    while len(monos) < count:
        left = rng.randint(0, degree)
        exps = [0] * width
        for _ in range(left):
            exps[rng.randrange(width)] += 1
        mono = tuple(exps)
        if accept(mono):
            monos.add(mono)
    return sorted(monos, reverse=True)


# -- verify-seeds ------------------------------------------------------------

class VerifySeeds:
    """One op is ``run_all(s)``: the full 28-check suite for one seed."""

    name = "verify-seeds"

    def prepare(self):
        import russell.verifier
        return russell.verifier

    def inputs(self, seed: int):
        start = random.Random(seed).randrange(10**6)
        i = 0
        while True:
            yield start + i
            i += 1

    def op(self, verifier, s: int):
        return verifier.run_all(s)

    def report(self, verifier, output) -> list[dict]:
        return verifier.report_to_json(output)

    def check(self, verifier, s: int, output, rng: random.Random) -> list[str]:
        return check_verify_report(self.report(verifier, output))

    def sizes(self, s: int, output) -> dict:
        return {"verification_seed": s}

    def digest_text(self, verifier, output) -> str:
        return json.dumps(self.report(verifier, output), sort_keys=True)


def check_verify_report(report) -> list[str]:
    if not isinstance(report, list):
        return ["report is not a list"]
    problems = []
    ids = tuple(entry.get("id") if isinstance(entry, dict) else None for entry in report)
    if ids != FROZEN_CHECK_IDS:
        problems.append(f"check ids differ from the frozen inventory: {ids}")
    for entry in report:
        if not isinstance(entry, dict) or set(entry) != ENTRY_KEYS:
            problems.append(f"entry does not have the schema {sorted(ENTRY_KEYS)}: {entry!r}")
            continue
        if not all(isinstance(entry[key], str) for key in ENTRY_KEYS) or not entry["paper_ref"]:
            problems.append(f"entry fields are not non-empty text: {entry!r}")
        if entry["status"] != "pass":
            problems.append(f"{entry['id']} did not pass: {entry['witness']}")
    return problems


# -- nf-large ----------------------------------------------------------------

# (ring, form, sizes); an entry takes its sizes in turn, so op costs spread
# over many levels instead of one cluster per entry, and the median op does
# not jump between clusters from one seed to the next.  "pow": one linear
# form in all variables plus a constant, to that power.  "prod": a product of
# such forms, to those powers.  "expanded": canonical text with that many
# terms, nine tenths of them already normal, which puts the weight on parsing.
NF_MENU = (
    ("A", "pow", (7, 8)),
    ("B", "expanded", (300, 350, 400, 450, 500, 550)),
    ("A", "prod", ((3, 3, 2), (4, 4), (2, 2, 2, 2))),
    ("V", "pow", (9, 10, 11)),
    ("B", "pow", (7, 8)),
    ("A", "expanded", (300, 350, 400, 450, 500, 550)),
    ("B", "prod", ((3, 3, 2), (4, 4), (2, 2, 2, 2))),
    ("Neil", "pow", (16, 20, 24)),
    ("A", "pow", (6, 7, 8)),
)
EXPANDED_DEGREE = 14


class NfLarge:
    """One op is ``russell nf --ring R --expr TEXT --json``, in-process."""

    name = "nf-large"

    def prepare(self):
        import russell
        import russell.cli
        for ring in exprs.RING_VARIABLES:
            russell.ring_by_name(ring)
        return russell

    def inputs(self, seed: int):
        rng = random.Random(seed)
        i = 0
        while True:
            ring, form, sizes = NF_MENU[i % len(NF_MENU)]
            size = sizes[i // len(NF_MENU) % len(sizes)]
            yield {"ring": ring, "form": form, "size": size,
                   "text": self._text(rng, ring, form, size)}
            i += 1

    @staticmethod
    def _text(rng: random.Random, ring: str, form: str, param) -> str:
        variables = exprs.RING_VARIABLES[ring]
        if form == "pow":
            return f"{_linear_text(rng, variables)}^{param}"
        if form == "prod":
            return "*".join(f"{_linear_text(rng, variables)}^{k}" for k in param)
        lead = exprs.LEADING_MONOMIAL[ring]

        def mostly_normal(mono):
            return not exprs.divisible(mono, variables, lead) or rng.random() < 0.1

        monos = _random_monomials(rng, len(variables), param, EXPANDED_DEGREE, mostly_normal)
        return " + ".join(_term_text(_coeff(rng), variables, m) for m in monos)

    def op(self, russell, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = russell.cli.main(["nf", "--ring", item["ring"], "--expr", item["text"],
                                     "--json"])
        return code, buf.getvalue()

    def check(self, russell, item, output, rng: random.Random) -> list[str]:
        code, stdout = output
        if code != 0:
            return [f"exit code {code}"]
        payload = json.loads(stdout)
        ring = item["ring"]
        if payload.get("ring") != ring:
            return [f"ring {payload.get('ring')!r} in the output, expected {ring!r}"]
        return check_normal_form(russell, ring, item["text"], payload["normal_form"], rng)

    def sizes(self, item, output) -> dict:
        code, stdout = output
        text = json.loads(stdout)["normal_form"] if code == 0 else ""
        # size: the power, the powers of the factors, or the input's term count
        return {"ring": item["ring"], "form": item["form"], "size": item["size"],
                "chars_in": len(item["text"]),
                "terms_out": text.count(" + ") + 1 if text not in ("", "0") else 0}

    def digest_text(self, russell, output) -> str:
        return output[1]


def check_normal_form(russell, ring: str, text_in: str, text_out: str,
                      rng: random.Random) -> list[str]:
    """Reduced, idempotent, and equal to the input on the variety."""
    variables = exprs.RING_VARIABLES[ring]
    try:
        terms = exprs.canonical_terms(text_out, variables)
    except (ValueError, ZeroDivisionError) as exc:
        return [f"output is not canonical text: {exc}"]
    lead = exprs.LEADING_MONOMIAL[ring]
    problems = [f"monomial {m} is divisible by the leading monomial {lead}"
                for m in terms if exprs.divisible(m, variables, lead)]
    for _ in range(CHECK_POINTS):
        point = exprs.variety_point(ring, rng)
        want = exprs.evaluate_text(text_in, point)
        got = exprs.evaluate_terms(terms, variables, point)
        if want != got:
            problems.append(f"input and normal form differ at {point}")
    R = russell.ring_by_name(ring)
    poly = russell.Poly(R.ctx, terms)
    if R.nf(poly).poly != poly:
        problems.append("normal form is not idempotent")
    return problems


# -- lnd-orbits --------------------------------------------------------------

# The two bundled triangular derivations of A and the variables of their
# kernels (besides constants): a(kernel)*d is again locally nilpotent.
BASE_IMAGES = {"d1": {"y": "-2*t", "t": "x^2"}, "d2": {"y": "-3*z^2", "z": "x^2"}}
KERNEL_VARS = {"d1": ("x", "z"), "d2": ("x", "t")}
OTHER = {"d1": "d2", "d2": "d1"}

# (degree of a, terms of a, terms of b).  a carries the other kernel variable
# to at most the first power and b is linear: higher powers there lengthen the
# orbits and stretch single ops from tens of milliseconds to seconds.  Every
# entry has degree 3, so the entries' costs overlap in one dense distribution
# and the median op moves little from seed to seed.
LND_MENU = (
    (3, 4, 2),
    (3, 3, 3),
    (3, 5, 2),
    (3, 4, 3),
    (3, 3, 2),
)

# dR/dg for R = x + x^2*y + z^3 + t^2 (ring A) and for R without the x term
# (ring B); a derivation d satisfies sum_g d(g) * dR/dg = 0 on the variety.
RELATION_PARTIALS = {
    "A": {"x": "1 + 2*x*y", "y": "x^2", "z": "3*z^2", "t": "2*t"},
    "B": {"x": "2*x*y", "y": "x^2", "z": "3*z^2", "t": "2*t"},
}


def _linear_kernel_text(rng: random.Random, base: str, count: int) -> str:
    monos = rng.sample([(1, 0), (0, 1), (0, 0)], count)
    return " + ".join(_term_text(_coeff(rng), KERNEL_VARS[base], m)
                      for m in sorted(monos, reverse=True))


def _multiplier_text(rng: random.Random, base: str, degree: int, count: int) -> str:
    """A kernel polynomial whose top weight part is one power c*x^i.

    x has weight -1 and the other kernel variable weight 0, so the top part
    collects the terms of least x-degree.  Keeping it a pure power of x makes
    the induced derivation c*x^i times the graded example, whose kernel
    chain from y ends in c*x^k; other terms carry a higher power of x.
    """
    i = rng.randint(0, 1) if degree >= 1 else 0
    rest = [(a, b) for a in range(i + 1, degree + 1) for b in range(min(2, degree + 1 - a))]
    monos = [(i, 0)] + rng.sample(rest, min(count - 1, len(rest)))
    return " + ".join(_term_text(_coeff(rng), KERNEL_VARS[base], m)
                      for m in sorted(monos, reverse=True))


class LndOrbits:
    """One op builds a generated LND of A and runs the theorem's chain on it.

    The LND is a(x, z)*d1 or a(x, t)*d2, conjugated by the flow of a linear
    kernel multiple of the other example and specialized at s = c.
    """

    name = "lnd-orbits"

    def prepare(self):
        import russell
        russell.example_derivations()
        return russell

    def inputs(self, seed: int):
        rng = random.Random(seed)
        i = 0
        while True:
            da, na, nb = LND_MENU[i % len(LND_MENU)]
            base = rng.choice(("d1", "d2"))
            s = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
            yield {"base": base, "a": _multiplier_text(rng, base, da, na),
                   "b": _linear_kernel_text(rng, OTHER[base], nb), "s": str(s)}
            i += 1

    def op(self, russell, item):
        A = russell.RING_A
        base, other = item["base"], OTHER[item["base"]]
        D = russell.make_derivation(
            A, {v: f"({item['a']})*({img})" for v, img in BASE_IMAGES[base].items()})
        E = russell.make_derivation(
            A, {v: f"({item['b']})*({img})" for v, img in BASE_IMAGES[other].items()})
        C = russell.conjugate(D, russell.flow(E, "s"))
        at_s = {"s": A.ctx.const(Fraction(item["s"]))}
        d = russell.make_derivation(
            A, {v: C.images[v].poly.substitute(at_s, target=A.ctx) for v in A.ctx.variables})
        report = russell.lnd_bounded(d)
        ell = russell.degree_ell(d)
        flow_x = russell.flow(d, "tau").images["x"]
        delta = russell.induced_graded(d)
        steps, bottom = russell.kernel_chain(delta, "y")
        return {
            "images": {v: str(img) for v, img in d.images.items()},
            "verdict": report.verdict,
            "orders": dict(report.orders),
            "ell": ell,
            "flow_x": str(flow_x),
            "induced": {v: str(img) for v, img in delta.images.items()},
            "F_plus": russell.invariance_check(delta, "F_plus"),
            "F_minus": russell.invariance_check(delta, "F_minus"),
            "chain_steps": steps,
            "chain_end": str(bottom),
        }

    def check(self, russell, item, output, rng: random.Random) -> list[str]:
        return check_lnd_record(output, rng)

    def sizes(self, item, output) -> dict:
        return {"base": item["base"], "chars_in": len(item["a"]) + len(item["b"]),
                "orbit_orders": output["orders"],
                "image_chars": sum(len(text) for text in output["images"].values())}

    def digest_text(self, russell, output) -> str:
        return json.dumps(output, sort_keys=True)


def _derivation_residues(images: dict[str, str], ring: str, rng: random.Random) -> list[str]:
    """Evaluate sum_g d(g) * dR/dg at points of the variety; it must vanish."""
    problems = []
    for _ in range(CHECK_POINTS):
        point = exprs.variety_point(ring, rng)
        total = sum(exprs.evaluate_text(images[g], point)
                    * exprs.evaluate_text(partial, point)
                    for g, partial in RELATION_PARTIALS[ring].items())
        if total != 0:
            problems.append(f"images on {ring} do not respect the relation at {point}")
    return problems


def check_lnd_record(out: dict, rng: random.Random) -> list[str]:
    """The theorem's invariants for one generated LND, checked independently."""
    problems = []
    xyzt = exprs.RING_VARIABLES["A"]
    if out["images"]["x"] != "0":
        problems.append(f"d(x) = {out['images']['x']}, expected 0")
    if out["verdict"] != "LocallyNilpotent" or None in out["orders"].values():
        problems.append(f"not certified locally nilpotent: {out['orders']}")
    if not out["ell"] < 0:
        problems.append(f"degree_ell = {out['ell']} is not negative")
    flow_x = exprs.canonical_terms(out["flow_x"], xyzt + ("tau",))
    if flow_x != {(1, 0, 0, 0, 0): 1}:
        problems.append(f"the flow moves x to {out['flow_x']}")
    if out["F_plus"] is not True or out["F_minus"] is not False:
        problems.append(f"F_plus invariant {out['F_plus']}, F_minus invariant {out['F_minus']}")
    end = exprs.canonical_terms(out["chain_end"], xyzt)
    if len(end) != 1 or any(e for e in next(iter(end))[1:]):
        problems.append(f"kernel chain from y ends in {out['chain_end']}, not c*x^k")
    problems += _derivation_residues(out["images"], "A", rng)
    problems += _derivation_residues(out["induced"], "B", rng)
    return problems


WORKLOADS = {w.name: w for w in (VerifySeeds(), NfLarge(), LndOrbits())}
