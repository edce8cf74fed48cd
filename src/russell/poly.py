"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a finite map from exponent vectors to nonzero Fraction
coefficients, relative to a Context: an ordered tuple of variable names, some
of which may be flagged Laurent (negative exponents allowed).  Values are
immutable and exact; floating point never appears anywhere.

The canonical text form (``str``) lists terms in descending lexicographic
order of exponent vectors, the variable tuple giving the precedence, and
prints every term as ``coefficient*factors``:

    -x - z^3 - t^2   ->   "-1*x + -1*z^3 + -1*t^2"

``parse`` in :mod:`russell.parse` inverts this exactly.

Multiplication has one kernel, ``dot``: a sum of products sum f*g over a
list of pairs, computed fraction-free.  Each factor is written once as integer
numerators over the lcm of its coefficient denominators, each pair is scaled
to the lcm of all the pair denominators, and one double loop per pair then
multiplies and adds plain ints into one accumulator; each nonzero output
coefficient becomes one Fraction at the end.  This keeps the gcd work of
Fraction arithmetic out of the inner loop, as Monagan and Pearce do for
polynomial division (CASC 2007), while the result stays exact.  A product is
the one-pair case, and powers, substitutions, ring-element products, Leibniz
sums of derivations and flows all go through this kernel, each sum in one
call rather than one product per term.

``substitute`` moves a variable whose image has one term (or which it leaves
unbound) by exponent arithmetic alone.  It builds each needed power of a
multi-term image once, incrementally, groups the terms by their exponents on
those variables, and sums the groups times their powers in one ``dot`` call.

``partial`` is the one formal derivative, Laurent variables included, and
``graded`` the one split into weight components.  Exponent tuples are read
only here and in :mod:`russell.quotient`; elsewhere ``.terms``, the map from
exponent tuple to Fraction, is the public read-only view.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, mul
from typing import Iterable, Mapping


@dataclass(frozen=True)
class Context:
    """Ordered variable universe shared by all polynomials of a computation."""

    variables: tuple[str, ...]
    laurent: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate variable names: {self.variables}")
        stray = self.laurent - set(self.variables)
        if stray:
            raise ValueError(f"Laurent flags for unknown variables: {sorted(stray)}")

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r} in context {self.variables}") from None

    def is_laurent(self, name: str) -> bool:
        return name in self.laurent

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.const(1)

    def const(self, value) -> "Poly":
        return Poly(self, {(0,) * len(self.variables): Fraction(value)})

    def var(self, name: str, power: int = 1) -> "Poly":
        exps = [0] * len(self.variables)
        exps[self.index(name)] = power
        return Poly(self, {tuple(exps): Fraction(1)})

    def monomial(self, coeff, **powers: int) -> "Poly":
        exps = [0] * len(self.variables)
        for name, e in powers.items():
            exps[self.index(name)] = e
        return Poly(self, {tuple(exps): Fraction(coeff)})

    def extend(self, names: Iterable[str], laurent: Iterable[str] = ()) -> "Context":
        """Context with extra variables appended after the existing ones."""
        fresh = tuple(n for n in names if n not in self.variables)
        return Context(self.variables + fresh, self.laurent | frozenset(laurent))


class Poly:
    """Immutable sparse polynomial: exponent tuple -> Fraction, zeros dropped."""

    __slots__ = ("ctx", "terms", "_hash")

    def __init__(self, ctx: Context, terms: Mapping[tuple[int, ...], object]):
        width = len(ctx.variables)
        clean: dict[tuple[int, ...], Fraction] = {}
        for mono, coeff in terms.items():
            q = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if q == 0:
                continue
            mono = tuple(mono)
            if len(mono) != width:
                raise ValueError(f"exponent vector {mono} does not fit context {ctx.variables}")
            for name, e in zip(ctx.variables, mono):
                if e < 0 and name not in ctx.laurent:
                    raise ValueError(f"negative exponent on non-Laurent variable {name!r}")
            clean[mono] = q
        self.ctx = ctx
        self.terms = clean
        self._hash = None

    @classmethod
    def _make(cls, ctx: Context, clean: dict[tuple[int, ...], Fraction]) -> "Poly":
        # internal fast path; callers guarantee validity of monomials
        p = object.__new__(cls)
        p.ctx = ctx
        p.terms = clean
        p._hash = None
        return p

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def variables_present(self) -> set[str]:
        names = set()
        for mono in self.terms:
            for name, e in zip(self.ctx.variables, mono):
                if e:
                    names.add(name)
        return names

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ctx != self.ctx:
                raise ValueError(f"mixed contexts: {self.ctx.variables} vs {other.ctx.variables}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.const(other)
        return None

    def __add__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in g.terms.items():
            s = out.get(mono, 0) + coeff
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return Poly._make(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly._make(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return self + (-g)

    def __rsub__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return g + (-self)

    def __mul__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return dot(self.ctx, ((self, g),))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return invert_unit(self) ** (-n)
        return binary_power(self, n, self.ctx.one())

    # -- substitution, differentiation, evaluation --------------------------

    def substitute(self, bindings: Mapping[str, "Poly"], target: Context | None = None) -> "Poly":
        """Simultaneous substitution, fully expanded.

        Variables without an explicit binding map to the same-named variable
        of the target context.  A variable carrying negative exponents must be
        bound to a unit monomial (invertible in the target context).
        """
        imgs: dict[str, Poly] = dict(bindings)
        if target is None:
            target = next(iter(imgs.values())).ctx if imgs else self.ctx
        for name, img in imgs.items():
            self.ctx.index(name)
            if img.ctx != target:
                raise ValueError(f"image of {name!r} lives in a different context")
        names = self.ctx.variables

        def move(i: int, negative: bool):
            """How v^e moves, for the i-th variable v and e of the given sign:
            None when v maps to zero, the image when it has several terms,
            else ([(target index, exponent)], coefficient) of its one term,
            or of the inverse of that term when e < 0."""
            img = imgs.get(names[i])
            if img is None:
                img = target.var(names[i])
            if negative:
                img = invert_unit(img)
            if img.is_zero:
                return None
            if len(img.terms) > 1:
                powers[i] = [img]
                return img
            ((m, c),) = img.terms.items()
            return [(j, a) for j, a in enumerate(m) if a], c

        moves: dict[tuple[int, bool], object] = {}
        powers: dict[int, list[Poly]] = {}  # i -> [image, image^2, ...], as needed
        # the (i, e) of a term's multi-term images -> the sum of its other factors, moved
        groups: dict[tuple[tuple[int, int], ...], dict[tuple[int, ...], Fraction]] = {}
        width = len(target.variables)
        for mono, coeff in self.terms.items():
            exps = [0] * width
            key = []
            vanishes = False
            for i, e in enumerate(mono):
                if not e:
                    continue
                negative = e < 0
                if (i, negative) not in moves:
                    moves[i, negative] = move(i, negative)
                how = moves[i, negative]
                if how is None:
                    vanishes = True  # but keep moving, so that errors still surface
                elif isinstance(how, Poly):
                    key.append((i, e))
                else:
                    m, c = how
                    k = abs(e)
                    for j, a in m:
                        exps[j] += a * k
                    if c != 1:
                        coeff = coeff * c ** k
            if not vanishes:
                group = groups.setdefault(tuple(key), {})
                m = tuple(exps)
                group[m] = group.get(m, 0) + coeff
        one = target.one()
        pairs = []
        for key, group in groups.items():
            factor = one
            for i, e in key:
                pw = powers[i]
                while len(pw) < e:
                    pw.append(pw[-1] * pw[0])
                factor = pw[e - 1] if factor is one else factor * pw[e - 1]
            pairs.append((Poly._make(target, {m: c for m, c in group.items() if c}), factor))
        return dot(target, pairs)

    def partial(self, name: str) -> "Poly":
        """Formal partial derivative: e*m/v for each term m with exponent e
        on v, also for a Laurent v and e < 0.  m -> m/v is injective, so no
        two terms meet and no sum is needed."""
        i = self.ctx.index(name)
        return Poly._make(self.ctx, {mono[:i] + (mono[i] - 1,) + mono[i + 1:]: coeff * mono[i]
                                     for mono, coeff in self.terms.items() if mono[i]})

    def graded(self, weights: Mapping[str, int]) -> dict[int, "Poly"]:
        """The weight-homogeneous components, keyed by weight, where a
        monomial weighs the sum of weights[v]*e over its variables (0 for a
        variable the map leaves out); no key for a weight without terms."""
        w = [weights.get(name, 0) for name in self.ctx.variables]
        parts: dict[int, dict[tuple[int, ...], Fraction]] = {}
        for mono, coeff in self.terms.items():
            parts.setdefault(sum(map(mul, w, mono)), {})[mono] = coeff
        return {n: Poly._make(self.ctx, terms) for n, terms in parts.items()}

    def evaluate(self, point: Mapping[str, object]):
        """Exact evaluation at a point binding every occurring variable.

        Point values are Fractions.  Evaluating a negative power at 0 raises
        ZeroDivisionError.
        """
        total = 0
        for mono, coeff in self.terms.items():
            acc = coeff
            for name, e in zip(self.ctx.variables, mono):
                if e:
                    v = point[name]
                    if e < 0 and not v:
                        raise ZeroDivisionError(f"Laurent variable {name!r} evaluated at 0")
                    acc = acc * v ** e
            total = acc + total
        if isinstance(total, int):
            return Fraction(total)
        return total

    # -- comparison and canonical text --------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ctx, frozenset(self.terms.items())))
        return self._hash

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, reverse=True):
            factors = [str(self.terms[mono])]
            for name, e in zip(self.ctx.variables, mono):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _over_common_denominator(terms: Mapping[tuple[int, ...], Fraction]):
    """(D, [(mono, c*D)]) with D the lcm of the coefficient denominators."""
    den = lcm(*(c.denominator for c in terms.values()))
    return den, [(m, c.numerator * (den // c.denominator)) for m, c in terms.items()]


def dot(ctx: Context, pairs: Iterable[tuple[Poly, Poly]]) -> Poly:
    """The sum of f*g over the pairs, all over ctx: the one multiply kernel.

    Each factor is written as int numerators over its own common denominator
    and each pair is scaled to the lcm D of the pair denominators, so one
    int accumulator takes every product; each nonzero output coefficient
    then becomes one Fraction over D.
    """
    scaled = []
    den = 1
    for f, g in pairs:
        if f.ctx is not ctx and f.ctx != ctx or g.ctx is not ctx and g.ctx != ctx:
            raise ValueError(f"mixed contexts: {f.ctx.variables} and {g.ctx.variables} "
                             f"summed over {ctx.variables}")
        if f.terms and g.terms:
            fden, fnums = _over_common_denominator(f.terms)
            gden, gnums = _over_common_denominator(g.terms)
            scaled.append((fden * gden, fnums, gnums))
            den = lcm(den, fden * gden)
    acc: dict[tuple[int, ...], int] = {}
    get = acc.get
    for pden, fnums, gnums in scaled:
        scale = den // pden
        if scale != 1:
            fnums = [(m, a * scale) for m, a in fnums]
        for m1, a in fnums:
            for m2, b in gnums:
                mono = tuple(map(add, m1, m2))
                acc[mono] = get(mono, 0) + a * b
    return Poly._make(ctx, {m: Fraction(c, den) for m, c in acc.items() if c})


def binary_power(base, n: int, one):
    """base**n for an int n >= 0 by square-and-multiply; ``one`` is the unit."""
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def invert_unit(f: Poly) -> Poly:
    """Inverse of a unit monomial: one term, supported on Laurent variables."""
    if len(f.terms) != 1:
        raise ValueError(f"cannot invert non-monomial {f}")
    ((mono, coeff),) = f.terms.items()
    for name, e in zip(f.ctx.variables, mono):
        if e and not f.ctx.is_laurent(name):
            raise ValueError(f"cannot invert monomial with non-Laurent variable {name!r}")
    return Poly._make(f.ctx, {tuple(-e for e in mono): Fraction(1) / coeff})


def lift(f: Poly, target: Context) -> Poly:
    """Re-key a polynomial into a context containing every occurring variable
    and flagging Laurent every variable that occurs with a negative exponent."""
    if target == f.ctx:
        return f
    for i in map(f.ctx.index, f.ctx.laurent - target.laurent):
        if any(mono[i] < 0 for mono in f.terms):
            raise ValueError(f"negative exponent on non-Laurent variable {f.ctx.variables[i]!r}")
    positions = {name: target.index(name) for name in f.variables_present()}
    width = len(target.variables)
    out: dict[tuple[int, ...], Fraction] = {}
    for mono, coeff in f.terms.items():
        exps = [0] * width
        for name, e in zip(f.ctx.variables, mono):
            if e:
                exps[positions[name]] = e
        out[tuple(exps)] = coeff
    return Poly._make(target, out)
