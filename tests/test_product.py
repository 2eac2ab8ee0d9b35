"""ProductSpec expansion against the naive oracle and classical sequences."""

import random

from wwords import (
    algebra,
    identity_case,
    identity_names,
    recognize_periodic_product,
)
from wwords.algebra import (
    Monomial,
    ProductFactor,
    ProductSpec,
    ProductSpecError,
    TruncatedSeries,
    product_expand,
)

from helpers import constant, poly
from oracles import coeffs_at_one, expand_product, partition_numbers

import pytest


def _pkg_coeff_dict(series, n):
    return {tuple(m.items): c for m, c in series.coefficient(n).terms.items()}


def test_factor_validation():
    with pytest.raises(ProductSpecError):
        ProductFactor(2, Monomial.var("a"), 1, 1, 1)      # bad sign
    with pytest.raises(ProductSpecError):
        ProductFactor(1, Monomial.var("a"), 1, 0, 1)      # bad modulus
    with pytest.raises(ProductSpecError):
        ProductFactor(1, Monomial.one(), 0, 1, 1)         # constant at q^0


def test_partition_generating_function():
    # 1/(q;q)_inf: one factor family, all colourless
    spec = ProductSpec([ProductFactor(1, Monomial.one(), 1, 1, 1)])
    f = product_expand(spec, 20)
    assert [constant(f.coefficient(n)) for n in range(21)] == \
        partition_numbers(20)


def test_two_variable_product_frozen_coefficients():
    # prod (1 + a q^n)(1 + b q^n): frozen leading coefficients
    spec = ProductSpec([
        ProductFactor(-1, Monomial.var("a"), 1, 1, -1),
        ProductFactor(-1, Monomial.var("b"), 1, 1, -1),
    ])
    f = product_expand(spec, 6)
    assert f.coefficient(0) == poly({"1": 1})
    assert f.coefficient(1) == poly({"a": 1, "b": 1})
    assert f.coefficient(2) == poly({"a": 1, "b": 1, "a*b": 1})
    assert f.coefficient(3) == poly({"a": 1, "b": 1, "a*b": 2, "a^2": 1, "b^2": 1})


def test_product_matches_oracle_random():
    rng = random.Random(424242)
    vars_ = ["a", "b", "c"]
    for _ in range(25):
        nfac = rng.randrange(1, 4)
        factors_json = []
        for _ in range(nfac):
            factors_json.append({
                "sign": rng.choice([1, -1]),
                "vars": {rng.choice(vars_): rng.randrange(1, 3)},
                "start": rng.randrange(1, 4),
                "mod": rng.randrange(1, 4),
                "power": rng.choice([-2, -1, 1, 2]),
            })
        qmax = 10
        spec = ProductSpec([
            ProductFactor(f["sign"], Monomial.from_dict(f["vars"]),
                          f["start"], f["mod"], f["power"])
            for f in factors_json
        ])
        ours = product_expand(spec, qmax)
        ref = expand_product(factors_json, qmax)
        for n in range(qmax + 1):
            assert _pkg_coeff_dict(ours, n) == ref[n], (factors_json, n)


def test_negative_power_inverts():
    spec = ProductSpec([ProductFactor(1, Monomial.var("a"), 1, 2, 1)])
    f = product_expand(spec, 12)
    g = product_expand(spec.negate_powers(), 12)
    assert f * g == TruncatedSeries.one(12)


def _single(sign, mono, n, exponent, qmax, degmax=None):
    """(1 - sign*mono*q^n)^exponent: a family whose modulus exceeds qmax
    occurs once."""
    spec = ProductSpec([ProductFactor(sign, mono, n, qmax + 1, -exponent)])
    return product_expand(spec, qmax, degmax)


def test_single_factor_positive_exponent_terminates():
    # (1 - a q^2)^3 expanded exactly
    f = _single(1, Monomial.var("a"), 2, 3, 10)
    assert f.coefficient(2) == poly({"a": -3})
    assert f.coefficient(4) == poly({"a^2": 3})
    assert f.coefficient(6) == poly({"a^3": -1})
    assert f.coefficient(8).is_zero()


def test_q0_factor_requires_degmax_for_either_sign():
    # (1 + a)^(-1) never terminates without a degree cap, and (1 + a)^P
    # would cost P + 1 terms whatever qmax is: one rule refuses both
    for exponent in (-1, 1, 10 ** 6):
        with pytest.raises(ProductSpecError, match="needs a degmax cap"):
            _single(-1, Monomial.var("a"), 0, exponent, 5)
    f = _single(-1, Monomial.var("a"), 0, -1, 5, degmax=2)
    assert f.coefficient(0) == poly({"1": 1, "a": -1, "a^2": 1})
    g = _single(-1, Monomial.var("a"), 0, 1, 5, degmax=2)
    assert g.coefficient(0) == poly({"1": 1, "a": 1})
    # under the cap, a huge finite power takes only degmax + 1 terms
    h = _single(-1, Monomial.var("a"), 0, 10 ** 6, 5, degmax=2)
    assert h.coefficient(0) == poly({"1": 1, "a": 10 ** 6,
                                     "a^2": 10 ** 6 * (10 ** 6 - 1) // 2})


def test_start_zero_family_expands_once_at_zero():
    # prod_j (1 + a q^(2j)) = (1 + a) * prod_{j>=1} (1 + a q^(2j))
    spec = ProductSpec([ProductFactor(-1, Monomial.var("a"), 0, 2, -1)])
    f = product_expand(spec, 6, degmax=4)
    manual = _single(-1, Monomial.var("a"), 0, 1, 6, 4)
    for n in (2, 4, 6):
        manual = manual * _single(-1, Monomial.var("a"), n, 1, 6, 4)
    assert f == manual


def test_product_spec_json_round_trip():
    spec = ProductSpec([
        ProductFactor(-1, Monomial.var("a"), 1, 4, -1),
        ProductFactor(1, Monomial.one(), 4, 4, 1),
    ])
    again = ProductSpec.from_json(spec.to_json())
    assert again == spec
    assert product_expand(again, 8) == product_expand(spec, 8)


def _terms(buckets) -> int:
    return sum(len(b) for b in buckets)


@pytest.mark.parametrize("name", [
    n for n in identity_names() if identity_case(n).product is not None])
def test_expansion_never_outgrows_its_result(monkeypatch, name):
    """The accumulator of product_expand never holds more terms than the
    result, for each registry product and for the pattern recognized from
    it at q24.  Dividing first used to pile up the powers that the
    numerators of a pattern's Euler quotients cancel later: theorem-6's
    pattern peaked at 20,475 terms for a result of 3,124."""
    case = identity_case(name)
    product = product_expand(case.product, 24, case.degmax)
    pattern = recognize_periodic_product(product)
    assert pattern is not None
    peak = 0
    step = algebra._factor_step

    def recording(f, *args):
        nonlocal peak
        step(f, *args)
        peak = max(peak, _terms(f))

    monkeypatch.setattr(algebra, "_factor_step", recording)
    for spec in (case.product, pattern.spec):
        peak = 0
        result = product_expand(spec, 24, case.degmax)
        assert result == product
        size = _terms(result.coefficient(n).terms for n in range(25))
        assert 0 < peak <= size, spec
