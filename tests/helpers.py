"""Build package values from plain dicts, for writing expected values.

A monomial is written as it prints: ``"a^2*b"``, with ``"1"`` for the
empty monomial; a Monomial object is accepted too.  A coefficient is a
dict from monomials to integers, and a series is a dict from powers of q
to coefficients: ``series({0: {"1": 1}, 2: {"a": 1, "a*b": -2}}, 4)`` is
1 + (a - 2ab) q^2 through q^4.

``random_system`` generates the small matrix-gap systems that the
randomized tests run over, and ``erased_zero_system`` is one that the
engines refuse.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping

from wwords import (
    ColourDef,
    ColouredSystem,
    MatrixGap,
    Monomial,
    Polynomial,
    ProductFactor,
    ProductSpec,
    RankRule,
    SizeDomain,
    SystemSpecError,
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


def cap_degree(f: TruncatedSeries, degmax: int | None) -> TruncatedSeries:
    """f without its monomials of colour degree above degmax, faithful only
    inside that degree window; f itself when degmax is None."""
    if degmax is None:
        return f
    dm = degmax if f.degmax is None else min(f.degmax, degmax)
    return TruncatedSeries([
        {m: c for m, c in f.coefficient(n).terms.items() if m.degree <= dm}
        for n in range(f.qmax + 1)], dm)


def constant(p: Polynomial) -> int:
    """The coefficient of the monomial 1."""
    return p.terms.get(Monomial.one(), 0)


def reexpand(table: Iterable[tuple[Monomial, int, int]], qmax: int,
             degmax: int | None = None) -> TruncatedSeries:
    """Multiply an Euler exponent table back out: each (m, n, e) is one
    factor (1 - m*q^n)^(-e), a family whose modulus exceeds qmax."""
    return product_expand(ProductSpec(
        ProductFactor(1, m, n, qmax + 1, e) for m, n, e in table), qmax, degmax)


def random_system(rng: random.Random, index: int) -> ColouredSystem | None:
    """A small matrix-gap system, or None when construction refuses it."""
    labels = ["c0", "c1", "c2"][: rng.randrange(1, 4)]
    zero_parts = rng.random() < 0.3
    overlines = rng.random() < 0.2
    colours = []
    for label in labels:
        weight = Monomial([("a", rng.randrange(2)), ("b", rng.randrange(2))])
        if zero_parts and weight.degree == 0:
            weight = Monomial.var(rng.choice("ab"))  # size-0 parts need a colour
        if rng.random() < 0.3:
            modulus = rng.randrange(2, 4)
            domain = SizeDomain(0 if zero_parts else 1, modulus,
                                frozenset({rng.randrange(modulus)}))
        else:
            domain = SizeDomain(0 if zero_parts else rng.randrange(1, 3))
        colours.append(ColourDef(label, weight, domain,
                                 overline_allowed=overlines))
    rows = {upper: {lower: rng.randrange(4) for lower in labels}
            for upper in labels}
    if overlines:  # an overlined lower part needs one more than a plain one
        rows = {upper: {**cols, **{f"{c}~": g + 1 for c, g in cols.items()}}
                for upper, cols in rows.items()}
    gap = MatrixGap(rows)
    order = rng.sample(range(len(labels)), len(labels))
    # b is erased only where a colour weight carries it, and not where a
    # size-0 part of weight b would weigh 1, which the engines refuse; the
    # draw is still made, so later systems stay the same
    erase = rng.random() < 0.3 and any(
        c.weight.exponent("b") for c in colours) and not any(
        c.domain.contains(0) and c.weight == Monomial.var("b") for c in colours)
    try:
        return ColouredSystem(
            name=f"random-{index}", colours=tuple(colours), gap=gap,
            rank_rule=RankRule(len(labels), dict(zip(labels, order))),
            overline_marker="t" if overlines else None,
            erased_vars=("b",) if erase else (),
        )
    except SystemSpecError:
        return None


def erased_zero_system() -> ColouredSystem:
    """One colour of size-0 parts weighing only the erased b."""
    return ColouredSystem(
        name="erased-zero",
        colours=(ColourDef("a", Monomial.var("b"), SizeDomain(0)),),
        gap=MatrixGap({"a": {"a": 0}}), rank_rule=RankRule(1, {"a": 0}),
        erased_vars=("b",))
