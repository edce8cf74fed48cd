"""Derivations of the quotient rings, their flows, and torus scalings.

A derivation is stored through its generator images.  It descends to the
quotient iff it maps the relation into the ideal, which for a single relation
R reduces to one exact identity:

    sum_v  d(v) * dR/dv  =  0   (mod R).

Local nilpotency is certified by bounded iteration only: the engine reports
``LocallyNilpotent`` when every generator dies within the bound and
``Unknown`` otherwise, never claiming non-nilpotency.

The filtration degree ell of a derivation is computed from generator images
as max over g of deg(d(g)) - deg(g).  This equals the minimal shift with
d(A_{<=n}) contained in A_{<=n+ell} for all n: products satisfy
deg(a*b) = deg(a) + deg(b) because the associated graded ring B is a domain,
so applying Leibniz to any monomial in the generators bounds deg(d(a)) by
deg(a) + ell, and the maximizing generator attains the bound.

Flows exp(tau*d) and the torus scaling S_lam live in the ring extended by a
formal parameter; both are validated ring endomorphisms.  Composition is
``compose(e1, e2) = e1 after e2``, so the normalization identity reads

    compose(flow(d, tau), S_lam) == compose(S_lam, flow(d, lam^-ell * tau)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Mapping

from .poly import Context, Poly, dot, lift
from .quotient import (CTX_XZT, QuotientRing, RING_A, RING_B, RING_V,
                       RingElement, RingMismatchError, ring_by_name)
from .weights import WEIGHTS, deg, is_homogeneous, weight_components


class CompatibilityError(ValueError):
    """The candidate images do not define a derivation of the quotient."""

    def __init__(self, residue: RingElement):
        super().__init__(f"derivation is incompatible with the ring relation; residue {residue}")
        self.residue = residue


class EndomorphismError(ValueError):
    """The candidate images do not define a ring endomorphism."""

    def __init__(self, residue: RingElement):
        super().__init__(f"images do not preserve the ring relation; residue {residue}")
        self.residue = residue


def _as_poly(value, ring: QuotientRing) -> Poly:
    """A polynomial over ring's context, not reduced.  A ring element must
    come from ring or from a ring that ring extends by parameters."""
    if isinstance(value, RingElement):
        src = value.ring
        if src == ring:
            return value.poly
        # only parameter extensions share a relation; B into A would silently
        # reinterpret a different quotient
        if not (set(src.ctx.variables) <= set(ring.ctx.variables)
                and src.ctx.laurent <= ring.ctx.laurent and src.order == ring.order
                and lift(src.relation, ring.ctx) == ring.relation):
            raise RingMismatchError(f"element of {src.name} cannot be read in {ring.name}")
        value = value.poly
    if isinstance(value, Poly):
        return lift(value, ring.ctx)
    return ring.nf(value).poly


# -- derivations --------------------------------------------------------------

class Derivation:
    """Derivation of a quotient ring, given by validated generator images."""

    __slots__ = ("ring", "images")

    def __init__(self, ring: QuotientRing, images: dict[str, RingElement]):
        self.ring = ring
        self.images = images

    @property
    def is_zero(self) -> bool:
        return all(img.is_zero for img in self.images.values())

    def apply(self, a) -> RingElement:
        """Leibniz extension to a ring element, reduced to normal form.  A
        polynomial is differentiated as it stands, before any reduction."""
        ring = self.ring
        f = _as_poly(a, ring)
        return ring.nf(dot(ring.ctx, [(f.partial(v), img.poly)
                                      for v, img in self.images.items() if not img.is_zero]))

    __call__ = apply

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.ring == other.ring and self.images == other.images

    def __repr__(self) -> str:
        parts = ", ".join(f"d{v}={img}" for v, img in self.images.items() if not img.is_zero)
        return f"Derivation({self.ring.name}: {parts or '0'})"


def make_derivation(ring: QuotientRing, images: Mapping[str, object]) -> Derivation:
    """Validate generator images and build the derivation.

    Missing generators get the zero image.  Raises CompatibilityError with
    the offending residue when the images do not respect the relation.
    """
    unknown = set(images) - set(ring.ctx.variables)
    if unknown:
        raise ValueError(f"images for unknown variables: {sorted(unknown)}")
    d = Derivation(ring, {name: ring.nf(_as_poly(images.get(name, 0), ring))
                          for name in ring.ctx.variables})
    residue = d.apply(ring.relation)
    if not residue.is_zero:
        raise CompatibilityError(residue)
    return d


@dataclass(frozen=True)
class NilpotencyReport:
    """Per-generator nilpotency orders found within the iteration bound."""

    orders: dict[str, int | None]
    bound: int
    verdict: str  # "LocallyNilpotent" | "Unknown"

    def to_json(self) -> dict:
        return {"orders": dict(self.orders), "bound": self.bound, "verdict": self.verdict}


def _orbit(d: Derivation, f: RingElement, bound: int) -> list[RingElement] | None:
    """The nonzero iterates f, d(f), d^2(f), ... up to the first zero, or None
    once more than bound of them are nonzero.  The one loop that iterates d."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    orbit = []
    while not f.is_zero:
        if len(orbit) == bound:
            return None
        orbit.append(f)
        f = d.apply(f)
    return orbit


def lnd_bounded(d: Derivation, bound: int = 32) -> NilpotencyReport:
    """Bounded certification of local nilpotency.

    The order of a generator g is the smallest k with d^k(g) = 0; orders up
    to the bound are certified.  A verdict of Unknown only means the bound
    was exhausted; non-nilpotency is never claimed.
    """
    ring = d.ring
    orders: dict[str, int | None] = {}
    for name in ring.ctx.variables:
        orbit = _orbit(d, ring.nf(ring.ctx.var(name)), bound)
        orders[name] = None if orbit is None else len(orbit)
    verdict = "LocallyNilpotent" if all(v is not None for v in orders.values()) else "Unknown"
    return NilpotencyReport(orders, bound, verdict)


def degree_ell(d: Derivation) -> int:
    """Filtration degree: max over generators of deg(d(g)) - deg(g)."""
    shifts = []
    for name in d.ring.ctx.variables:
        img = d.images[name]
        if img.is_zero:
            continue
        shifts.append(deg(img) - WEIGHTS.get(name, 0))
    if not shifts:
        raise ValueError("the zero derivation has no degree")
    return max(shifts)


class _AnyDegree:
    """Degree of the zero derivation: homogeneous of every degree."""

    def __repr__(self) -> str:
        return "any"


ANY_DEGREE = _AnyDegree()


def is_homogeneous_derivation(d: Derivation):
    """The common degree shift if d is homogeneous, None if it is not,
    and ANY_DEGREE for the zero derivation."""
    shifts = set()
    for name in d.ring.ctx.variables:
        img = d.images[name]
        if img.is_zero:
            continue
        parts = weight_components(img.poly)
        if len(parts) != 1:
            return None
        (w,) = parts
        shifts.add(w - WEIGHTS.get(name, 0))
    if not shifts:
        return ANY_DEGREE
    if len(shifts) == 1:
        return shifts.pop()
    return None


def induced_graded(d: Derivation, bound: int = 32) -> Derivation:
    """Homogeneous derivation induced on B by a nonzero bounded LND of A.

    Each generator image is cut down to its weight component in degree
    deg(g) + ell.  Validation failures here would indicate an implementation
    bug and are surfaced as hard errors.
    """
    if d.ring != RING_A:
        raise RingMismatchError("induced_graded expects a derivation on ring A")
    if d.is_zero:
        raise ValueError("the zero derivation induces nothing")
    report = lnd_bounded(d, bound)
    if report.verdict != "LocallyNilpotent":
        raise ValueError(f"local nilpotency not certified within bound {bound}")
    ell = degree_ell(d)
    images: dict[str, object] = {}
    for name in RING_A.ctx.variables:
        part = weight_components(d.images[name].poly).get(WEIGHTS[name] + ell)
        images[name] = part if part is not None else 0
    delta = make_derivation(RING_B, images)
    shift = is_homogeneous_derivation(delta)
    if shift is ANY_DEGREE:
        raise ValueError("induced derivation vanished")
    if shift != ell:
        raise ValueError(f"induced derivation has degree {shift}, expected {ell}")
    return delta


# -- ring endomorphisms --------------------------------------------------------

class RingEndomorphism:
    """Self-map of a quotient ring, possibly involving formal parameters."""

    __slots__ = ("ring", "params", "images")

    def __init__(self, ring: QuotientRing, params: tuple[str, ...],
                 images: dict[str, RingElement]):
        self.ring = ring
        self.params = params
        self.images = images

    @property
    def extended_ring(self) -> QuotientRing:
        return self.ring.extend(self.params)

    def apply(self, f) -> RingElement:
        """Image of an element of the ring or of any parameter extension of
        it, in the ring extended by the parameters of both.  A polynomial
        is mapped as it stands, before any reduction."""
        names = self.params + (f.ring.ctx.variables if isinstance(f, RingElement) else ())
        ext = self.ring.extend(names)
        bindings = {name: lift(img.poly, ext.ctx) for name, img in self.images.items()}
        return ext.nf(_as_poly(f, ext).substitute(bindings, target=ext.ctx))

    __call__ = apply

    def __eq__(self, other):
        if not isinstance(other, RingEndomorphism):
            return NotImplemented
        return (self.ring == other.ring and self.params == other.params
                and self.images == other.images)

    def __repr__(self) -> str:
        parts = ", ".join(f"{v} -> {img}" for v, img in self.images.items())
        return f"RingEndomorphism({self.ring.name}[{','.join(self.params)}]: {parts})"


def make_endomorphism(ring: QuotientRing, params: tuple[str, ...],
                      images: Mapping[str, object]) -> RingEndomorphism:
    """Validate that the images preserve the relation and build the map.

    Missing generators map to themselves.  Raises EndomorphismError with the
    residue of the relation when validation fails.
    """
    unknown = set(images) - set(ring.ctx.variables)
    if unknown:
        raise ValueError(f"images for unknown variables: {sorted(unknown)}")
    ext = ring.extend(params)
    imgs = {}
    for name in ring.ctx.variables:
        value = images.get(name)
        imgs[name] = ext.nf(ext.ctx.var(name) if value is None else _as_poly(value, ext))
    e = RingEndomorphism(ring, ext.ctx.variables[len(ring.ctx.variables):], imgs)
    residue = e.apply(ring.relation)
    if not residue.is_zero:
        raise EndomorphismError(residue)
    return e


def identity_endomorphism(ring: QuotientRing) -> RingEndomorphism:
    return make_endomorphism(ring, (), {})


def compose(e1: RingEndomorphism, e2: RingEndomorphism) -> RingEndomorphism:
    """e1 after e2: the validated map sending g to e1(e2(g))."""
    if e1.ring != e2.ring:
        raise RingMismatchError("cannot compose endomorphisms of different rings")
    images = {name: e1.apply(img) for name, img in e2.images.items()}
    return make_endomorphism(e1.ring, e1.params + e2.params, images)


def specialize(e: RingEndomorphism, bindings: Mapping[str, object]) -> RingEndomorphism:
    """Substitute polynomials (or scalars) for formal parameters of the map.
    A ring element must come from the map's ring or a parameter extension
    of it."""
    polys: dict[str, Poly] = {}
    extra: set[str] = set()
    for name, value in bindings.items():
        if name not in e.params:
            raise ValueError(f"{name!r} is not a parameter of this map")
        if isinstance(value, (int, Fraction)):
            value = e.ring.ctx.const(value)
        elif isinstance(value, RingElement):
            value = _as_poly(value, e.ring.extend(value.ring.ctx.variables))
        if not isinstance(value, Poly):
            raise TypeError(f"cannot bind parameter {name!r} to {value!r}")
        polys[name] = value
        extra |= value.variables_present() - set(e.ring.ctx.variables)
    params = tuple(p for p in e.params if p not in polys) + tuple(extra)
    ext = e.ring.extend(params)
    lifted = {name: lift(p, ext.ctx) for name, p in polys.items()}
    images = {name: img.poly.substitute(lifted, target=ext.ctx)
              for name, img in e.images.items()}
    return make_endomorphism(e.ring, params, images)


def flow(d: Derivation, param: str = "tau", bound: int = 32) -> RingEndomorphism:
    """The exponential map exp(param * d), a validated endomorphism.

    Requires every generator to die within the bound, so the sum over
    d^k(g)/k! is finite.  Exact rational coefficients only, so this needs
    characteristic zero.
    """
    ring = d.ring
    ctx = ring.extend((param,)).ctx
    images = {}
    for name in ring.ctx.variables:
        orbit = _orbit(d, ring.nf(ring.ctx.var(name)), bound)
        if orbit is None:
            raise ValueError(f"flow needs local nilpotency certified within bound {bound}")
        images[name] = dot(ctx, [(lift(g.poly, ctx),
                                  ctx.monomial(Fraction(1, factorial(k)), **{param: k}))
                                 for k, g in enumerate(orbit)])
    return make_endomorphism(ring, (param,), images)


def scaling(ring: QuotientRing = RING_B, param: str = "lam") -> RingEndomorphism:
    """Torus scaling S_lam: g -> lam^w(g) * g, with lam a Laurent parameter."""
    ext = ring.extend((param,))
    lam = ext.ctx.var(param)
    images = {name: lam ** WEIGHTS.get(name, 0) * ext.ctx.var(name)
              for name in ring.ctx.variables}
    return make_endomorphism(ring, (param,), images)


# -- invariance of the distinguished loci --------------------------------------

F_MINUS_RING = QuotientRing(
    "Fminus", CTX_XZT, CTX_XZT.var("z") ** 3 + CTX_XZT.var("t") ** 2, "grlex")

_CTX_YZT = Context(("y", "z", "t"))
F_PLUS_RING = QuotientRing(
    "Fplus", _CTX_YZT, _CTX_YZT.var("z") ** 3 + _CTX_YZT.var("t") ** 2, "grlex")

LOCI = ("F_plus", "F_minus", "V_slice")


def invariance_check(d: Derivation, locus: str) -> bool:
    """Whether a derivation of B preserves the ideal of the given locus.

    F_minus is y = 0, F_plus is x = 0 (both over the cusp curve), V_slice is
    the double cover slice y = 1.  The locus is invariant iff the image of
    its defining equation dies in the locus ring.
    """
    if d.ring != RING_B:
        raise RingMismatchError("invariance_check expects a derivation on ring B")
    if locus == "F_minus":
        img, target, bindings = d.images["y"], F_MINUS_RING, {"y": F_MINUS_RING.ctx.const(0)}
    elif locus == "F_plus":
        img, target, bindings = d.images["x"], F_PLUS_RING, {"x": F_PLUS_RING.ctx.const(0)}
    elif locus == "V_slice":
        img, target, bindings = d.images["y"], RING_V, {"y": RING_V.ctx.const(1)}
    else:
        raise ValueError(f"unknown locus {locus!r}; expected one of {LOCI}")
    return target.nf(img.poly.substitute(bindings, target=target.ctx)).is_zero


def kernel_chain(d: Derivation, f, bound: int = 32) -> tuple[int, RingElement]:
    """Iterate a homogeneous derivation until landing in its kernel.

    Returns (nu, d^nu(f)) with d^nu(f) != 0 and d^(nu+1)(f) = 0, allowing
    nu <= bound; the result is homogeneous of degree deg(f) + nu * ell.
    """
    f = d.ring.nf(_as_poly(f, d.ring))
    if f.is_zero:
        raise ValueError("kernel_chain needs a nonzero element")
    parts = weight_components(f.poly)
    if len(parts) != 1:
        raise ValueError("kernel_chain needs a homogeneous element")
    (k,) = parts
    shift = is_homogeneous_derivation(d)
    if shift is None:
        raise ValueError("kernel_chain needs a homogeneous derivation")
    ell = 0 if shift is ANY_DEGREE else shift
    # nu steps leave nu + 1 nonzero iterates; an element of the kernel needs
    # no step whatever the bound
    orbit = _orbit(d, f, max(bound, 0) + 1)
    if orbit is None:
        raise ValueError(f"no kernel element reached within {bound} applications")
    nu, bottom = len(orbit) - 1, orbit[-1]
    assert is_homogeneous(bottom, k + nu * ell)
    return nu, bottom


def deck_sigma() -> RingEndomorphism:
    """The deck involution of the double cover V: x -> -x, fixing z and t."""
    return make_endomorphism(RING_V, (), {"x": -RING_V.ctx.var("x")})


def conjugate(d: Derivation, e: RingEndomorphism) -> Derivation:
    """Pull a derivation back through a one-parameter flow: e^-1 . d . e."""
    if d.ring != e.ring:
        raise RingMismatchError("conjugate needs a derivation and a flow on one ring")
    if len(e.params) != 1:
        raise ValueError("conjugate expects a one-parameter flow")
    (param,) = e.params
    ext = e.extended_ring
    e_inv = specialize(e, {param: -ext.ctx.var(param)})
    d_ext = make_derivation(ext, {name: lift(img.poly, ext.ctx)
                                  for name, img in d.images.items()})
    images = {}
    for name in d.ring.ctx.variables:
        images[name] = e_inv.apply(d_ext.apply(e.apply(d.ring.ctx.var(name))))
    return make_derivation(ext, images)


# -- serialization and bundled examples ----------------------------------------

_IMAGE_KEYS = ("dx", "dy", "dz", "dt")


def derivation_to_json(d: Derivation) -> dict:
    if d.ring not in (RING_A, RING_B):
        raise ValueError("only derivations on rings A and B serialize")
    out = {"ring": d.ring.name}
    for key in _IMAGE_KEYS:
        out[key] = str(d.images[key[1]])
    return out


def derivation_from_json(data: Mapping) -> Derivation:
    ring_name = data.get("ring")
    if ring_name not in ("A", "B"):
        raise ValueError(f"derivation files need ring A or B, got {ring_name!r}")
    missing = [key for key in _IMAGE_KEYS if key not in data]
    if missing:
        raise ValueError(f"derivation file is missing keys: {missing}")
    unknown = sorted(set(data) - {"ring", *_IMAGE_KEYS})
    if unknown:
        raise ValueError(f"derivation file has unknown keys: {unknown}")
    for key in _IMAGE_KEYS:
        if not isinstance(data[key], str):
            raise ValueError(f"derivation image {key!r} must be a string, got {data[key]!r}")
    ring = ring_by_name(ring_name)
    return make_derivation(ring, {key[1]: data[key] for key in _IMAGE_KEYS})


def example_derivations() -> dict[str, Derivation]:
    """The two bundled triangular derivations of A, both killing x."""
    return {
        "d1": make_derivation(RING_A, {"y": "-2*t", "t": "x^2"}),
        "d2": make_derivation(RING_A, {"y": "-3*z^2", "z": "x^2"}),
    }
