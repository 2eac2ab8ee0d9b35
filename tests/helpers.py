"""Build package values from plain dicts, for writing expected values.

A monomial is written as it prints: ``"a^2*b"``, with ``"1"`` for the
empty monomial; a Monomial object is accepted too.  A coefficient is a
dict from monomials to integers, and a series is a dict from powers of q
to coefficients: ``series({0: {"1": 1}, 2: {"a": 1, "a*b": -2}}, 4)`` is
1 + (a - 2ab) q^2 through q^4.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from wwords.algebra import (
    Monomial,
    Polynomial,
    ProductFactor,
    ProductSpec,
    TruncatedSeries,
    product_expand,
)


def mono(text: str | Monomial) -> Monomial:
    if isinstance(text, Monomial):
        return text
    if text == "1":
        return Monomial.one()
    items = []
    for factor in text.split("*"):
        name, _, exp = factor.partition("^")
        items.append((name, int(exp) if exp else 1))
    return Monomial(items)


def _terms(terms: Mapping[str | Monomial, int]) -> dict[Monomial, int]:
    out: dict[Monomial, int] = {}
    for key, coeff in terms.items():
        m = mono(key)
        out[m] = out.get(m, 0) + coeff
    return {m: c for m, c in out.items() if c}


def poly(terms: Mapping[str | Monomial, int]) -> Polynomial:
    """The coefficient sum(c * m for m, c in terms)."""
    return Polynomial(_terms(terms))


def series(coeffs: Mapping[int, Mapping[str | Monomial, int]], qmax: int,
           degmax: int | None = None) -> TruncatedSeries:
    """sum(coeffs[n] * q^n) through q^qmax; powers above qmax are dropped."""
    buckets: list[dict[Monomial, int]] = [{} for _ in range(qmax + 1)]
    for n, terms in coeffs.items():
        if n <= qmax:
            buckets[n] = _terms(terms)
    return TruncatedSeries(buckets, degmax)


def constant(p: Polynomial) -> int:
    """The coefficient of the monomial 1."""
    return p.terms.get(Monomial.one(), 0)


def reexpand(table: Iterable[tuple[Monomial, int, int]], qmax: int,
             degmax: int | None = None) -> TruncatedSeries:
    """Multiply an Euler exponent table back out: each (m, n, e) is one
    factor (1 - m*q^n)^(-e), a family whose modulus exceeds qmax."""
    return product_expand(ProductSpec(
        ProductFactor(1, m, n, qmax + 1, e) for m, n, e in table), qmax, degmax)
