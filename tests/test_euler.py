"""Euler factorization: canonical exponent tables and round trips."""

import random

from wwords.algebra import (
    FactorizationError,
    Monomial,
    ProductFactor,
    ProductSpec,
    TruncatedSeries,
    euler_factorize,
    product_expand,
)

import pytest

from helpers import reexpand, series


def test_rejects_non_unit_constant_term():
    s = TruncatedSeries.zero(4)
    with pytest.raises(FactorizationError):
        euler_factorize(s)
    with pytest.raises(FactorizationError):
        euler_factorize(TruncatedSeries.one(4) + TruncatedSeries.one(4))


def test_single_geometric_factor():
    spec = ProductSpec([ProductFactor(1, Monomial.var("a"), 3, 7, 1)])
    f = product_expand(spec, 20)
    table = euler_factorize(f)
    assert table == [
        (Monomial.var("a"), 3, 1),
        (Monomial.var("a"), 10, 1),
        (Monomial.var("a"), 17, 1),
    ]


def test_one_plus_rewrites_as_two_entries():
    # (1 + a q^2) = (1 - a^2 q^4)/(1 - a q^2): entries (a,2,1) and (a^2,4,-1)
    f = series({0: {"1": 1}, 2: {"a": 1}}, 10)
    table = euler_factorize(f)
    assert table == [
        (Monomial.var("a"), 2, 1),
        (Monomial.var("a", 2), 4, -1),
    ]
    assert reexpand(table, 10) == f


def test_two_variable_product_table_has_period_two():
    # prod (1+a q^n)(1+b q^n): the exponent pattern repeats with period 2
    spec = ProductSpec([
        ProductFactor(-1, Monomial.var("a"), 1, 1, -1),
        ProductFactor(-1, Monomial.var("b"), 1, 1, -1),
    ])
    qmax = 12
    f = product_expand(spec, qmax)
    table = euler_factorize(f)
    by_n = {}
    for mono, n, e in table:
        by_n.setdefault(n, []).append((str(mono), e))
    odd = [("a", 1), ("b", 1)]
    even = [("a", 1), ("a^2", -1), ("b", 1), ("b^2", -1)]
    for n in range(1, qmax + 1):
        assert sorted(by_n[n]) == (odd if n % 2 else even), n
    assert reexpand(table, qmax) == f


def test_table_is_canonical_within_degree():
    # entries at each n come out lowest monomial first (graded lex)
    spec = ProductSpec([
        ProductFactor(-1, Monomial.var("b"), 1, 1, -1),
        ProductFactor(-1, Monomial.var("a"), 1, 1, -1),
    ])
    f = product_expand(spec, 4)
    table = euler_factorize(f)
    assert table[0] == (Monomial.var("a"), 1, 1)
    assert table[1] == (Monomial.var("b"), 1, 1)


def test_round_trip_random_products():
    rng = random.Random(1693)
    vars_ = ["a", "b"]
    for _ in range(20):
        factors = []
        for _ in range(rng.randrange(1, 4)):
            factors.append(ProductFactor(
                rng.choice([1, -1]),
                Monomial.from_dict({rng.choice(vars_): rng.randrange(1, 3)}),
                rng.randrange(1, 4),
                rng.randrange(1, 4),
                rng.choice([-1, 1, 2]),
            ))
        qmax = 9
        f = product_expand(ProductSpec(factors), qmax)
        table = euler_factorize(f)
        assert reexpand(table, qmax) == f


def test_round_trip_on_non_product_series():
    # factorization is formal: any unit series round-trips inside the window
    rng = random.Random(55)
    qmax = 8
    coeffs = {0: {"1": 1}}
    for n in range(1, qmax + 1):
        terms = coeffs[n] = {}
        for _ in range(rng.randrange(3)):
            mono = Monomial([("a", rng.randrange(2)), ("b", rng.randrange(2))])
            terms[mono] = rng.randrange(-3, 4)
    f = series(coeffs, qmax)
    table = euler_factorize(f)
    assert reexpand(table, qmax) == f
