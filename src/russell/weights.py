"""The boundary weight grading w(x), w(y), w(z), w(t) = -1, 2, 0, 0.

These weights are minus the vanishing orders of the coordinates along the
divisor at infinity of the compactified fibration; concretely, after
eliminating y through the relation of A, the weight degree of an element is
minus the lowest power of x in its Laurent expansion.  ``deg`` reads the
degree off the normal form, ``deg_laurent_oracle`` recomputes it through the
Laurent substitution, and the test suite insists the two routes agree.

B is graded by these weights, A only filtered; ``gr`` maps an element of A to
its top weight component, viewed in B.  deg(0) is minus infinity, encoded as
None, never as an integer sentinel.
"""

from __future__ import annotations

from .poly import Context, Poly
from .quotient import RING_A, RING_B, RingElement, RingMismatchError

WEIGHTS = {"x": -1, "y": 2, "z": 0, "t": 0}

LAURENT_MODEL_CTX = Context(("x", "z", "t"), laurent=frozenset({"x"}))

# y = -1/x - (z^3 + t^2)/x^2, the elimination of y from the relation of A
_Y_ELIMINATED = (
    -LAURENT_MODEL_CTX.var("x", -1)
    - LAURENT_MODEL_CTX.var("x", -2)
    * (LAURENT_MODEL_CTX.var("z") ** 3 + LAURENT_MODEL_CTX.var("t") ** 2)
)


def monomial_weight(ctx: Context, mono: tuple[int, ...]) -> int:
    return sum(WEIGHTS.get(name, 0) * e for name, e in zip(ctx.variables, mono))


def weight_components(f: Poly) -> dict[int, Poly]:
    """Split a polynomial into weight-homogeneous parts, keyed by weight."""
    return f.graded(WEIGHTS)


def deg(a: RingElement) -> int | None:
    """Filtration degree: maximal monomial weight of the normal form."""
    if a.poly.is_zero:
        return None
    return max(a.poly.graded(WEIGHTS))


def deg_laurent_oracle(a: RingElement) -> int | None:
    """Independent degree computation through the Laurent model of A.

    Substitutes y -> -1/x - (z^3 + t^2)/x^2 into the normal form and returns
    minus the minimal x-exponent of the resulting Laurent polynomial.
    """
    if a.ring != RING_A:
        raise RingMismatchError("the Laurent degree oracle is defined on ring A")
    if a.poly.is_zero:
        return None
    image = a.poly.substitute({"y": _Y_ELIMINATED}, target=LAURENT_MODEL_CTX)
    return max(image.graded({"x": -1}))


def gr(a: RingElement) -> RingElement:
    """Top weight component of a nonzero element of A, as an element of B."""
    if a.ring != RING_A:
        raise RingMismatchError("gr maps elements of ring A into ring B")
    if a.poly.is_zero:
        raise ValueError("gr of 0 is undefined")
    parts = a.poly.graded(WEIGHTS)
    # normal monomials agree in A and B (same leading monomial x^2*y)
    return RingElement(RING_B, parts[max(parts)])


def homogeneous_components(b: RingElement) -> list[tuple[int, RingElement]]:
    """Weight decomposition of an element of B, sorted by weight."""
    if b.ring != RING_B:
        raise RingMismatchError("homogeneous_components is defined on ring B")
    parts = weight_components(b.poly)
    return [(n, RingElement(RING_B, parts[n])) for n in sorted(parts)]


def is_homogeneous(b: RingElement | Poly, n: int) -> bool:
    """Whether every monomial has weight n; 0 is homogeneous of every degree."""
    f = b.poly if isinstance(b, RingElement) else b
    return f.graded(WEIGHTS).keys() <= {n}
