"""Quotient rings by a single polynomial relation, with canonical normal forms.

One relation R is trivially a Groebner basis of the principal ideal (R): the
only S-polynomial is S(R, R) = 0.  Reduction therefore computes canonical
normal forms without any completion step.  With LM(R) the largest monomial of
R under the ring's admissible order, the rewrite rule is

    LM(R)  ->  LM(R) - R / lc(R),

applied to any term whose monomial is divisible by LM(R).  Each step replaces
that monomial by strictly order-smaller ones (the order is compatible with
multiplication), so reduction terminates: grlex and lex are well-founded on
the polynomial variables by Dickson's lemma, and the relation never touches
Laurent-flagged variables.  Uniqueness of the result, independent of the
reduction strategy, is the Groebner property; randomized strategy-agreement
checks exercise it throughout the test suite.

The default strategy "max" rewrites the order-largest reducible monomial
first, in the manner of heap-based division (Monagan and Pearce, CASC 2007):
the reducible monomials still pending sit in a heap keyed by the order, and
each rewrite adds coeff * tail(R) into one accumulator of int numerators over
the input's denominator, in place.  When lc(R) does not divide the other
coefficients of R (it does for lc(R) = +-1) the same loop runs with Fraction
tail coefficients, and the result goes back to ints once.  Since
every rewrite only creates order-smaller monomials, all contributions to a
monomial have arrived by the time it leaves the heap, so each distinct
reducible monomial is rewritten exactly once.  Strategy "first" keeps the
plain rewrite loop, rebuilding the polynomial after every step, as the
independent reference route.

Built-in instances:

    A     Q[x,y,z,t] / (x + x^2*y + z^3 + t^2)   grlex, x > y > z > t
    B     Q[x,y,z,t] / (x^2*y + z^3 + t^2)       grlex, x > y > z > t
    Neil  Q[z,t]     / (z^3 + t^2)               grlex, z > t
    V     Q[x,z,t]   / (x^2 + z^3 + t^2)         lex,   x > z > t

A is the coordinate ring of the Russell cubic X, B the coordinate ring of the
degeneration W carrying the torus action, Neil the cuspidal plane curve, and
V the double cover slice y = 1 of W.  Under the orders above the leading
monomials are x^2*y, x^2*y, z^3 and x^2, so the normal monomials of A and B
are exactly those x^a*y^b*z^c*t^d with a <= 1 or b = 0.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction
from math import lcm, prod
from operator import add, neg, sub
from typing import Mapping

from .parse import parse
from .poly import Context, Poly, binary_power, lift


class RingMismatchError(ValueError):
    pass


# formal parameters of flows and scalings, in the order extensions list them
PARAM_ORDER = ("tau", "sigma", "s", "u", "v", "lam", "mu")
LAURENT_PARAMS = frozenset({"lam", "mu"})


def _param_rank(name: str) -> tuple[int, str]:
    return (PARAM_ORDER.index(name) if name in PARAM_ORDER else len(PARAM_ORDER), name)


def _descending_key(order: str):
    """Sort key under which the order-largest monomial comes first."""
    if order == "grlex":
        return lambda mono: (-sum(mono), tuple(map(neg, mono)))
    if order == "lex":
        return lambda mono: tuple(map(neg, mono))
    raise ValueError(f"unknown monomial order {order!r}")


class QuotientRing:
    """Q[variables] modulo one relation, reduced under a fixed monomial order."""

    __slots__ = ("name", "ctx", "relation", "order", "lead_monomial", "lead_coeff",
                 "_key", "_lead_positions", "_tail")

    def __init__(self, name: str, ctx: Context, relation: Poly, order: str):
        if relation.ctx != ctx:
            raise ValueError("relation context does not match the ring context")
        if relation.is_zero:
            raise ValueError("relation must be nonzero")
        for varname in relation.variables_present():
            if ctx.is_laurent(varname):
                raise ValueError("relation may not involve Laurent variables")
        self.name = name
        self.ctx = ctx
        self.relation = relation
        self.order = order
        self._key = _descending_key(order)
        self.lead_monomial = lead = min(relation.nums, key=self._key)
        self.lead_coeff = Fraction(relation.nums[lead], relation.den)
        self._lead_positions = tuple((i, e) for i, e in enumerate(lead) if e > 0)
        # -tail(R)/lc(R): ints when lc(R) divides every numerator of R, as it
        # does for lc(R) = +-1, Fractions otherwise
        tail = ((m, Fraction(-c, relation.nums[lead]))
                for m, c in relation.nums.items() if m != lead)
        self._tail = tuple((m, q.numerator if q.denominator == 1 else q) for m, q in tail)

    def __eq__(self, other):
        if not isinstance(other, QuotientRing):
            return NotImplemented
        return (self.ctx == other.ctx and self.relation == other.relation
                and self.order == other.order)

    def __hash__(self):
        return hash((self.ctx, self.relation, self.order))

    def __repr__(self) -> str:
        return f"QuotientRing({self.name})"

    # -- reduction -----------------------------------------------------------

    def _divisible(self, mono: tuple[int, ...]) -> bool:
        for i, e in self._lead_positions:  # runs per term and per rewrite: no generator
            if mono[i] < e:
                return False
        return True

    def reduce(self, f: Poly, strategy: str = "max") -> Poly:
        """Iterated rewriting to the unique normal form.

        strategy "max" rewrites the order-largest reducible monomial first.
        Pending reducible monomials wait in a heap and every rewrite adds
        coeff * tail into one accumulator in place, so each distinct
        reducible monomial is rewritten once, with all its contributions
        merged.  strategy "first" is the reference route: it rescans the
        whole polynomial each step and rewrites the largest reducible
        monomial in the canonical print order.  Both give the same result,
        which the confluence tests verify.
        """
        if strategy == "first":
            return self._reduce_first(f)
        if strategy != "max":
            raise ValueError(f"unknown reduction strategy {strategy!r}")
        divisible, key = self._divisible, self._key
        heap = [(key(m), m) for m in f.nums if divisible(m)]
        if not heap:
            return f
        heapq.heapify(heap)
        lead, tail = self.lead_monomial, self._tail
        acc = dict(f.nums)  # numerators over f.den
        while heap:
            mono = heapq.heappop(heap)[1]
            coeff = acc.pop(mono, None)
            if coeff is None:  # cancelled, or a duplicate entry already rewritten
                continue
            quotient = tuple(map(sub, mono, lead))
            for tail_mono, tail_coeff in tail:
                m = tuple(map(add, quotient, tail_mono))
                old = acc.get(m)
                if old is None:
                    acc[m] = coeff * tail_coeff
                    if divisible(m):
                        heapq.heappush(heap, (key(m), m))
                else:
                    s = old + coeff * tail_coeff
                    if s:
                        acc[m] = s
                    else:
                        del acc[m]
        den = f.den
        if any(type(c) is not int for _, c in tail):
            # Fraction tail coefficients: back to int numerators in one pass
            scale = lcm(*(c.denominator for c in acc.values()))
            acc = {m: c.numerator * (scale // c.denominator) for m, c in acc.items()}
            den *= scale
        return Poly._make(self.ctx, acc, den)

    def _reduce_first(self, f: Poly) -> Poly:
        """The reference route, written on the public Poly API only."""
        lead = self.lead_monomial
        while True:
            terms = f.terms
            reducible = [m for m in terms if self._divisible(m)]
            if not reducible:
                return f
            mono = max(reducible)
            quotient = tuple(a - b for a, b in zip(mono, lead))
            factor = Poly(self.ctx, {quotient: terms[mono] / self.lead_coeff})
            f = f - factor * self.relation

    def nf(self, value) -> "RingElement":
        """Normal form of a polynomial, expression string, or scalar."""
        if isinstance(value, RingElement):
            if value.ring != self:
                raise RingMismatchError(f"element of {value.ring.name} given to {self.name}")
            return value
        if isinstance(value, str):
            value = parse(value, self.ctx)
        elif isinstance(value, (int, Fraction)):
            value = self.ctx.const(value)
        elif isinstance(value, Poly):
            if value.ctx != self.ctx:
                raise RingMismatchError("polynomial context does not match the ring")
        else:
            raise TypeError(f"cannot interpret {value!r} as a ring element")
        return RingElement(self, self.reduce(value))

    def zero(self) -> "RingElement":
        return RingElement(self, self.ctx.zero())

    def one(self) -> "RingElement":
        return RingElement(self, self.ctx.one())

    def extend(self, params: tuple[str, ...]) -> "QuotientRing":
        """The same relation over a context with formal parameters appended.

        The one place parameter rings are made.  New parameters follow
        PARAM_ORDER, then the alphabet; lam and mu are Laurent.  Each
        ring and parameter set gives one cached extension."""
        fresh = tuple(sorted(set(params) - set(self.ctx.variables), key=_param_rank))
        if not fresh:
            return self
        key = (self, fresh)
        got = _EXTENSION_CACHE.get(key)
        if got is None:
            ctx = self.ctx.extend(fresh, laurent=LAURENT_PARAMS.intersection(fresh))
            got = QuotientRing(f"{self.name}[{','.join(fresh)}]", ctx,
                               lift(self.relation, ctx), self.order)
            _EXTENSION_CACHE[key] = got
        return got


_EXTENSION_CACHE: dict[tuple, QuotientRing] = {}


class RingElement:
    """Normal-form representative of a residue class; immutable."""

    __slots__ = ("ring", "poly")

    def __init__(self, ring: QuotientRing, poly: Poly):
        self.ring = ring
        self.poly = poly

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise RingMismatchError(
                    f"cannot combine elements of {self.ring.name} and {other.ring.name}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.nf(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RingElement(self.ring, self.poly + o.poly)

    __radd__ = __add__

    def __neg__(self):
        return RingElement(self.ring, -self.poly)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RingElement(self.ring, self.poly - o.poly)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RingElement(self.ring, o.poly - self.poly)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.ring.nf(self.poly * o.poly)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return binary_power(self, n, self.ring.one())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.nf(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring == other.ring and self.poly == other.poly

    def __hash__(self):
        return hash((self.ring, self.poly))

    def __str__(self) -> str:
        return str(self.poly)

    def __repr__(self) -> str:
        return f"<{self.ring.name}: {self.poly}>"


# -- built-in rings ----------------------------------------------------------

CTX_XYZT = Context(("x", "y", "z", "t"))
CTX_XZT = Context(("x", "z", "t"))
CTX_ZT = Context(("z", "t"))

_x, _y, _z, _t = (CTX_XYZT.var(n) for n in ("x", "y", "z", "t"))

RING_A = QuotientRing("A", CTX_XYZT, _x + _x**2 * _y + _z**3 + _t**2, "grlex")
RING_B = QuotientRing("B", CTX_XYZT, _x**2 * _y + _z**3 + _t**2, "grlex")
RING_NEIL = QuotientRing("Neil", CTX_ZT,
                         CTX_ZT.var("z") ** 3 + CTX_ZT.var("t") ** 2, "grlex")
RING_V = QuotientRing("V", CTX_XZT,
                      CTX_XZT.var("x") ** 2 + CTX_XZT.var("z") ** 3 + CTX_XZT.var("t") ** 2,
                      "lex")

_RINGS = {"A": RING_A, "B": RING_B, "Neil": RING_NEIL, "V": RING_V}


def ring_by_name(name: str) -> QuotientRing:
    try:
        return _RINGS[name]
    except KeyError:
        raise ValueError(f"unknown ring {name!r}; expected one of A, B, Neil, V") from None


# -- rational surface points and the randomized equality oracle ---------------

_COORD_BOUND = 100  # numerators and denominators of sampled coordinates


def surface_point(surface: str, x: Fraction, z: Fraction, t: Fraction) -> dict[str, Fraction]:
    """The point of X or W over (x, z, t) with x != 0; y is forced."""
    if x == 0:
        raise ZeroDivisionError("surface points require x != 0")
    if surface == "X":
        y = -(x + z**3 + t**2) / x**2
    elif surface == "W":
        y = -(z**3 + t**2) / x**2
    else:
        raise ValueError(f"unknown surface {surface!r}; expected X or W")
    return {"x": x, "y": y, "z": z, "t": t}


def random_point(surface: str, seed: int = 0, rng: random.Random | None = None) -> dict[str, Fraction]:
    """Seeded random rational point with x != 0 and bounded coordinates."""
    if rng is None:
        rng = random.Random(seed)

    def draw() -> Fraction:
        return Fraction(rng.randint(-_COORD_BOUND, _COORD_BOUND),
                        rng.randint(1, _COORD_BOUND))

    x = draw()
    while x == 0:
        x = draw()
    return surface_point(surface, x, draw(), draw())


def _surface_of(ring: QuotientRing) -> str:
    if ring == RING_A:
        return "X"
    if ring == RING_B:
        return "W"
    raise ValueError(f"no point sampler for ring {ring.name}")


ORACLE_PRIME = 2**31 - 1  # the Mersenne prime of the "modp" oracle mode


def _residue(q: Fraction) -> int:
    den = q.denominator % ORACLE_PRIME
    if not den:
        raise ZeroDivisionError(f"denominator of {q} vanishes mod {ORACLE_PRIME}")
    return q.numerator * pow(den, -1, ORACLE_PRIME) % ORACLE_PRIME


def _evaluate_mod(poly: Poly, point: Mapping[str, Fraction]) -> int:
    """Value of a polynomial at a point with every coordinate bound, in
    Z/pZ for p = ORACLE_PRIME, as an int in [0, p).  The coordinates and
    the inverse of the polynomial's one denominator become int residues
    once; a denominator divisible by p raises ZeroDivisionError."""
    p = ORACLE_PRIME
    values = [_residue(point[name]) for name in poly.ctx.variables]
    return _residue(Fraction(1, poly.den)) * sum(
        c * prod(pow(v, e, p) for v, e in zip(values, mono))
        for mono, c in poly.nums.items()) % p


def oracle_equal(a: RingElement, b: RingElement, samples: int = 50, seed: int = 0,
                 mode: str = "qq") -> bool:
    """Probabilistic equality via evaluation at random surface points.

    mode "qq" evaluates exactly over Q; mode "modp" evaluates at the same
    points in Z/pZ, p = ORACLE_PRIME.  A False answer is definitive for
    "qq"; True means no sampled point separated the two elements.
    """
    if a.ring != b.ring:
        raise RingMismatchError("oracle_equal needs elements of one ring")
    if mode not in ("qq", "modp"):
        raise ValueError(f"unknown oracle mode {mode!r}")
    surface = _surface_of(a.ring)
    diff = a.poly - b.poly
    if diff.is_zero:
        return True
    rng = random.Random(seed)
    for _ in range(samples):
        point = random_point(surface, rng=rng)
        value = _evaluate_mod(diff, point) if mode == "modp" else diff.evaluate(point)
        if value != 0:
            return False
    return True
