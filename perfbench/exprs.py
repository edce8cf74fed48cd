"""Reference arithmetic for the benchmark's correctness gates.

Nothing here imports ``russell``: expression text is evaluated at rational
points by a separate recursive-descent evaluator, canonical output text is
split into monomials by string handling, and the points lie on the varieties
by construction.  A result that passes these checks was confirmed by a route
that shares no code with the program under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

RING_VARIABLES = {
    "A": ("x", "y", "z", "t"),
    "B": ("x", "y", "z", "t"),
    "Neil": ("z", "t"),
    "V": ("x", "z", "t"),
}

# Leading monomials of the relations under each ring's order (grlex for A, B
# and Neil, lex for V); a normal form has no monomial divisible by them.
LEADING_MONOMIAL = {
    "A": {"x": 2, "y": 1},
    "B": {"x": 2, "y": 1},
    "Neil": {"z": 3},
    "V": {"x": 2},
}


class ExprError(ValueError):
    pass


def _tokens(text: str) -> list[str]:
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(text[i:j])
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(text[i:j])
            i = j
        elif ch in "+-*^()/":
            out.append(ch)
            i += 1
        else:
            raise ExprError(f"unexpected character {ch!r}")
    out.append("")
    return out


def evaluate_text(text: str, point: dict[str, Fraction]) -> Fraction:
    """Value of an expression (the program's input grammar) at a point."""
    toks = _tokens(text)
    pos = 0

    def peek() -> str:
        return toks[pos]

    def take() -> str:
        nonlocal pos
        tok = toks[pos]
        pos += 1
        return tok

    def expr() -> Fraction:
        value = term()
        while peek() in ("+", "-"):
            value = value + term() if take() == "+" else value - term()
        return value

    def term() -> Fraction:
        value = factor()
        while peek() == "*":
            take()
            value = value * factor()
        return value

    def factor() -> Fraction:
        if peek() == "-":
            take()
            return -factor()
        base = atom()
        if peek() != "^":
            return base
        take()
        sign = -1 if peek() == "-" else 1
        if sign < 0:
            take()
        digits = take()
        if not digits.isdigit():
            raise ExprError("expected an integer exponent")
        return base ** (sign * int(digits))

    def atom() -> Fraction:
        tok = take()
        if tok.isdigit():
            if peek() == "/":
                take()
                den = take()
                if not den.isdigit():
                    raise ExprError("expected an integer denominator")
                return Fraction(int(tok), int(den))
            return Fraction(int(tok))
        if tok == "(":
            value = expr()
            if take() != ")":
                raise ExprError("expected ')'")
            return value
        if tok in point:
            return point[tok]
        raise ExprError(f"unexpected token {tok!r}")

    value = expr()
    if peek() != "":
        raise ExprError(f"trailing token {peek()!r}")
    return value


def canonical_terms(text: str, variables: tuple[str, ...]) -> dict[tuple[int, ...], Fraction]:
    """Split canonical output text ``c*v^e*... + ...`` into monomial -> coefficient."""
    if text == "0":
        return {}
    index = {name: i for i, name in enumerate(variables)}
    terms: dict[tuple[int, ...], Fraction] = {}
    for part in text.split(" + "):
        coeff, *factors = part.split("*")
        exps = [0] * len(variables)
        for factor in factors:
            name, _, power = factor.partition("^")
            if name not in index or exps[index[name]]:
                raise ExprError(f"bad factor {factor!r} in {part!r}")
            exps[index[name]] = int(power) if power else 1
        mono = tuple(exps)
        value = Fraction(coeff)
        if mono in terms or value == 0:
            raise ExprError(f"repeated monomial or zero coefficient in {part!r}")
        terms[mono] = value
    return terms


def evaluate_terms(terms: dict[tuple[int, ...], Fraction], variables: tuple[str, ...],
                   point: dict[str, Fraction]) -> Fraction:
    total = Fraction(0)
    for mono, coeff in terms.items():
        value = coeff
        for name, e in zip(variables, mono):
            if e:
                value *= point[name] ** e
        total += value
    return total


def divisible(mono: tuple[int, ...], variables: tuple[str, ...], lead: dict[str, int]) -> bool:
    powers = dict(zip(variables, mono))
    return all(powers.get(name, 0) >= e for name, e in lead.items())


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def variety_point(ring: str, rng: random.Random) -> dict[str, Fraction]:
    """A rational point on the zero set of the ring's relation."""
    if ring in ("A", "B"):
        x, z, t = _rational(rng), _rational(rng), _rational(rng)
        lower = x if ring == "A" else 0
        return {"x": x, "y": -(lower + z**3 + t**2) / x**2, "z": z, "t": t}
    if ring == "Neil":
        s = _rational(rng)
        return {"z": -s**2, "t": s**3}
    if ring == "V":
        # x + i*t = (p + i*q)^3 gives x^2 + t^2 = (p^2 + q^2)^3 = -z^3
        p, q = _rational(rng), _rational(rng)
        return {"x": p**3 - 3 * p * q**2, "z": -(p**2 + q**2), "t": 3 * p**2 * q - q**3}
    raise ValueError(f"no point sampler for ring {ring!r}")
