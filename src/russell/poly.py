"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial lives in a Context: an ordered tuple of variable names, some of
which may be flagged Laurent (negative exponents allowed).  It is stored as
one positive int denominator ``den`` and a dict ``nums`` from exponent tuple
to nonzero int numerator, so the coefficient of a monomial m is
``nums[m] / den``.  The pair is kept normalized: ``gcd(den, *nums) == 1``,
and zero is ``den == 1`` with no numerators, so equal polynomials have equal
``den`` and ``nums``.  Values are immutable and exact; floating point never
appears anywhere.

Every route inside the package works on these ints: sums, products,
substitution, the formal derivative, weight grouping, reduction and
evaluation mod p.  ``Fraction`` appears only at the edges: the public
constructor ``Poly(ctx, terms)``, the text form, ``evaluate``'s value and
``.terms``, the map from exponent tuple to Fraction, which is built on its
first read and cached.  Inside the package only the reference reducer and
one verifier check read ``.terms``.

The canonical text form (``str``) lists terms in descending lexicographic
order of exponent vectors, the variable tuple giving the precedence, and
prints every term as ``coefficient*factors``:

    -x - z^3 - t^2   ->   "-1*x + -1*z^3 + -1*t^2"

``parse`` in :mod:`russell.parse` inverts this exactly.

Multiplication has one kernel, ``dot``: a sum of products sum f*g over a
list of pairs.  Each pair is scaled to the lcm D of the pair denominators,
and one double loop per pair multiplies and adds plain ints into one
accumulator, which becomes the result over D once its common factor is
divided out.  This keeps the gcd work of Fraction arithmetic out of the inner
loop, as Monagan and Pearce do for polynomial division (CASC 2007), while the
result stays exact.  A product is the one-pair case, and powers,
substitutions, ring-element products, Leibniz sums of derivations and flows
all go through this kernel, each sum in one call rather than one product per
term.

A sum of many terms with many different denominators (the parser's running
sum, the groups of ``substitute``) keeps one bucket of numerators per
denominator and scales each bucket to the common denominator once at the
end, so it stays linear in the term count.

``substitute`` moves a variable whose image has one term (or which it leaves
unbound) by exponent arithmetic alone.  It builds each needed power of a
multi-term image once, incrementally, groups the terms by their exponents on
those variables, and sums the groups times their powers in one ``dot`` call.

``partial`` is the one formal derivative, Laurent variables included, and
``graded`` the one split into weight components.  ``den`` and ``nums`` are
read only here, in :mod:`russell.quotient` and in the parser's running sum;
elsewhere ``.terms`` is the public read-only view.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
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
        return Poly._make(self, {})

    def one(self) -> "Poly":
        return self.const(1)

    def const(self, value) -> "Poly":
        return self._monomial(value, {})

    def var(self, name: str, power: int = 1) -> "Poly":
        return self._monomial(1, {name: power})

    def monomial(self, coeff, **powers: int) -> "Poly":
        return self._monomial(coeff, powers)

    def _monomial(self, coeff, powers: Mapping[str, int]) -> "Poly":
        exps = [0] * len(self.variables)
        for name, e in powers.items():
            exps[self.index(name)] = e
            if e < 0 and name not in self.laurent:
                raise ValueError(f"negative exponent on non-Laurent variable {name!r}")
        num, den = (coeff, 1) if isinstance(coeff, int) else Fraction(coeff).as_integer_ratio()
        if not num:
            return self.zero()
        return Poly._make(self, {tuple(exps): num}, den)

    def extend(self, names: Iterable[str], laurent: Iterable[str] = ()) -> "Context":
        """Context with extra variables appended after the existing ones."""
        fresh = tuple(n for n in names if n not in self.variables)
        return Context(self.variables + fresh, self.laurent | frozenset(laurent))


class Poly:
    """Immutable sparse polynomial: int numerators over one denominator."""

    __slots__ = ("ctx", "den", "nums", "_terms", "_hash")

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
        # over the lcm of reduced denominators the numerators share no factor
        # with it, so the pair is normalized as it stands
        den = lcm(*(q.denominator for q in clean.values()))
        self.ctx = ctx
        self.den = den
        self.nums = {m: q.numerator * (den // q.denominator) for m, q in clean.items()}
        self._terms = clean
        self._hash = None

    @classmethod
    def _make(cls, ctx: Context, nums: dict[tuple[int, ...], int], den: int = 1) -> "Poly":
        """Internal constructor: nonzero int numerators over a positive den,
        monomials valid in ctx; divides out their common factor."""
        if den != 1:
            # gcd(den, *nums) as a gcd with one weighted sum of the numerators,
            # a multiple of it, then a chain against that small number: a plain
            # chain over numerators the size of a large den would cost one big
            # gcd per term
            g = gcd(den, sum(map(mul, nums.values(), range(1, len(nums) + 1))))
            if g != 1:
                g = gcd(g, *nums.values())
            if g != 1:
                den //= g
                nums = {m: c // g for m, c in nums.items()}
        p = object.__new__(cls)
        p.ctx = ctx
        p.den = den
        p.nums = nums
        p._terms = None
        p._hash = None
        return p

    @classmethod
    def _from_buckets(cls, ctx: Context,
                      buckets: Mapping[int, Mapping[tuple[int, ...], int]]) -> "Poly":
        """The sum of nums/d over buckets {d: nums}: each bucket is scaled to
        the lcm of the d once, so a sum over many denominators stays linear
        in its term count.  Zero numerators may occur in the buckets."""
        den = lcm(*buckets)
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for d, nums in buckets.items():
            scale = den // d
            for m, c in nums.items():
                out[m] = get(m, 0) + c * scale
        return cls._make(ctx, {m: c for m, c in out.items() if c}, den)

    # -- basic queries ------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """Read-only view: exponent tuple -> Fraction coefficient, built on
        the first read and cached."""
        if self._terms is None:
            den = self.den
            self._terms = {m: Fraction(c, den) for m, c in self.nums.items()}
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def variables_present(self) -> set[str]:
        names = set()
        for mono in self.nums:
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

    def _plus(self, g: "Poly", sign: int) -> "Poly":
        """self + sign*g, over the lcm of the two denominators."""
        den = lcm(self.den, g.den)
        a, b = den // self.den, sign * (den // g.den)
        out = dict(self.nums) if a == 1 else {m: c * a for m, c in self.nums.items()}
        for mono, c in g.nums.items():
            s = out.get(mono, 0) + c * b
            if s:
                out[mono] = s
            else:
                del out[mono]
        return Poly._make(self.ctx, out, den)

    def __add__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return self._plus(g, 1)

    __radd__ = __add__

    def __neg__(self):
        return Poly._make(self.ctx, {m: -c for m, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return self._plus(g, -1)

    def __rsub__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return g._plus(self, -1)

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
            else ([(target index, exponent)], (numerator, denominator)) of its
            one term, or of the inverse of that term when e < 0."""
            img = imgs.get(names[i])
            if img is None:
                img = target.var(names[i])
            if negative:
                img = invert_unit(img)
            if img.is_zero:
                return None
            if len(img.nums) > 1:
                powers[i] = [img]
                return img
            ((m, c),) = img.nums.items()
            return [(j, a) for j, a in enumerate(m) if a], (c, img.den)

        moves: dict[tuple[int, bool], object] = {}
        powers: dict[int, list[Poly]] = {}  # i -> [image, image^2, ...], as needed
        # the (i, e) of a term's multi-term images -> the sum of its other
        # factors, moved, as {denominator: {monomial: numerator}}
        groups: dict[tuple[tuple[int, int], ...], dict[int, dict[tuple[int, ...], int]]] = {}
        width = len(target.variables)
        for mono, num in self.nums.items():
            den = self.den
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
                    m, (cn, cd) = how
                    k = abs(e)
                    for j, a in m:
                        exps[j] += a * k
                    if cn != 1:
                        num *= cn ** k
                    if cd != 1:
                        den *= cd ** k
            if not vanishes:
                bucket = groups.setdefault(tuple(key), {}).setdefault(den, {})
                m = tuple(exps)
                bucket[m] = bucket.get(m, 0) + num
        one = target.one()
        pairs = []
        for key, buckets in groups.items():
            factor = one
            for i, e in key:
                pw = powers[i]
                while len(pw) < e:
                    pw.append(pw[-1] * pw[0])
                factor = pw[e - 1] if factor is one else factor * pw[e - 1]
            pairs.append((Poly._from_buckets(target, buckets), factor))
        return dot(target, pairs)

    def partial(self, name: str) -> "Poly":
        """Formal partial derivative: e*m/v for each term m with exponent e
        on v, also for a Laurent v and e < 0.  m -> m/v is injective, so no
        two terms meet and no sum is needed."""
        i = self.ctx.index(name)
        return Poly._make(self.ctx, {mono[:i] + (mono[i] - 1,) + mono[i + 1:]: c * mono[i]
                                     for mono, c in self.nums.items() if mono[i]}, self.den)

    def graded(self, weights: Mapping[str, int]) -> dict[int, "Poly"]:
        """The weight-homogeneous components, keyed by weight, where a
        monomial weighs the sum of weights[v]*e over its variables (0 for a
        variable the map leaves out); no key for a weight without terms."""
        w = [weights.get(name, 0) for name in self.ctx.variables]
        parts: dict[int, dict[tuple[int, ...], int]] = {}
        for mono, c in self.nums.items():
            parts.setdefault(sum(map(mul, w, mono)), {})[mono] = c
        return {n: Poly._make(self.ctx, nums, self.den) for n, nums in parts.items()}

    def evaluate(self, point: Mapping[str, object]):
        """Exact evaluation at a point binding every occurring variable.

        Point values are Fractions.  Evaluating a negative power at 0 raises
        ZeroDivisionError.
        """
        total = 0
        for mono, acc in self.nums.items():
            for name, e in zip(self.ctx.variables, mono):
                if e:
                    v = point[name]
                    if e < 0 and not v:
                        raise ZeroDivisionError(f"Laurent variable {name!r} evaluated at 0")
                    acc = acc * v ** e
            total = acc + total
        if isinstance(total, int):
            return Fraction(total, self.den)
        return total / self.den

    # -- comparison and canonical text --------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ctx == other.ctx and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ctx, self.den, frozenset(self.nums.items())))
        return self._hash

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        den = self.den
        parts = []
        for mono in sorted(self.nums, reverse=True):
            c = self.nums[mono]
            g = gcd(c, den)
            factors = [str(c // g) if g == den else f"{c // g}/{den // g}"]
            for name, e in zip(self.ctx.variables, mono):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


def dot(ctx: Context, pairs: Iterable[tuple[Poly, Poly]]) -> Poly:
    """The sum of f*g over the pairs, all over ctx: the one multiply kernel.

    Each pair is scaled to the lcm D of the pair denominators, so one int
    accumulator takes every product; the result is that accumulator over D,
    normalized once.
    """
    scaled = []
    den = 1
    for f, g in pairs:
        if f.ctx is not ctx and f.ctx != ctx or g.ctx is not ctx and g.ctx != ctx:
            raise ValueError(f"mixed contexts: {f.ctx.variables} and {g.ctx.variables} "
                             f"summed over {ctx.variables}")
        if f.nums and g.nums:
            pden = f.den * g.den
            scaled.append((pden, f.nums, g.nums))
            den = lcm(den, pden)
    acc: dict[tuple[int, ...], int] = {}
    get = acc.get
    for pden, fnums, gnums in scaled:
        scale = den // pden
        fitems = fnums.items() if scale == 1 else [(m, a * scale) for m, a in fnums.items()]
        gitems = gnums.items()
        for m1, a in fitems:
            for m2, b in gitems:
                mono = tuple(map(add, m1, m2))
                acc[mono] = get(mono, 0) + a * b
    return Poly._make(ctx, {m: c for m, c in acc.items() if c}, den)


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
    if len(f.nums) != 1:
        raise ValueError(f"cannot invert non-monomial {f}")
    ((mono, c),) = f.nums.items()
    for name, e in zip(f.ctx.variables, mono):
        if e and not f.ctx.is_laurent(name):
            raise ValueError(f"cannot invert monomial with non-Laurent variable {name!r}")
    sign = -1 if c < 0 else 1
    return Poly._make(f.ctx, {tuple(-e for e in mono): sign * f.den}, sign * c)


def lift(f: Poly, target: Context) -> Poly:
    """Re-key a polynomial into a context containing every occurring variable
    and flagging Laurent every variable that occurs with a negative exponent."""
    if target == f.ctx:
        return f
    for i in map(f.ctx.index, f.ctx.laurent - target.laurent):
        if any(mono[i] < 0 for mono in f.nums):
            raise ValueError(f"negative exponent on non-Laurent variable {f.ctx.variables[i]!r}")
    positions = {name: target.index(name) for name in f.variables_present()}
    width = len(target.variables)
    out: dict[tuple[int, ...], int] = {}
    for mono, c in f.nums.items():
        exps = [0] * width
        for name, e in zip(f.ctx.variables, mono):
            if e:
                exps[positions[name]] = e
        out[tuple(exps)] = c
    return Poly._make(target, out, f.den)
