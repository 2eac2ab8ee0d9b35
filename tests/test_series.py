"""TruncatedSeries arithmetic, truncation discipline, and substitution."""

import random

from wwords.algebra import (
    AlgebraError,
    Monomial,
    ProductFactor,
    ProductSpec,
    SubstitutionError,
    SubstitutionMap,
    TruncatedSeries,
    TruncationMismatch,
    product_expand,
    substitute,
)

import pytest

from helpers import cap_degree, constant, poly, series


def _geom(var: str, n: int, qmax: int) -> TruncatedSeries:
    """1/(1 - var*q^n) built by hand."""
    return series({k * n: {Monomial.var(var, k): 1}
                   for k in range(qmax // n + 1)}, qmax)


def test_one_and_zero():
    one = TruncatedSeries.one(8)
    zero = TruncatedSeries.zero(8)
    assert one == series({0: {"1": 1}}, 8)
    assert (one + zero) == one
    assert (one * zero) == zero
    assert one.coefficient(0) == poly({"1": 1})
    assert one.coefficient(8).is_zero()


def test_coefficient_outside_window_raises():
    s = TruncatedSeries.one(5)
    with pytest.raises(AlgebraError):
        s.coefficient(6)
    with pytest.raises(AlgebraError):
        s.coefficient(-1)


def test_mismatched_truncations_refuse_to_combine():
    with pytest.raises(TruncationMismatch):
        TruncatedSeries.one(5) + TruncatedSeries.one(6)
    with pytest.raises(TruncationMismatch):
        TruncatedSeries.one(5) * TruncatedSeries.one(6)


def test_multiplication_matches_hand_expansion():
    qmax = 6
    f = _geom("a", 1, qmax)           # 1 + aq + a^2 q^2 + ...
    g = _geom("b", 2, qmax)           # 1 + b q^2 + b^2 q^4 + ...
    h = f * g
    # coefficient of q^4: a^4 + a^2 b + b^2
    c4 = h.coefficient(4)
    assert c4 == poly({"a^4": 1, "a^2*b": 1, "b^2": 1})


def test_multiplication_by_single_term_series_shifts():
    qmax = 10
    f = _geom("a", 1, qmax)
    term = series({3: {"b": 1, "1": 2}}, qmax)
    g = f * term
    assert g == term * f
    for n in range(3, qmax + 1):
        a = Monomial.var("a", n - 3)     # f's coefficient of q^(n-3)
        assert g.coefficient(n) == poly({a * Monomial.var("b"): 1, a: 2})
    assert g.coefficient(0).is_zero()
    assert g.coefficient(2).is_zero()


def test_degmax_caps_colour_degree():
    qmax = 6
    f = cap_degree(_geom("a", 1, qmax), 2)
    assert f.degmax == 2
    assert f.coefficient(2) == poly({"a^2": 1})
    assert f.coefficient(3).is_zero()      # a^3 exceeds the cap
    g = f * f
    assert g.degmax == 2
    assert all(m.degree <= 2 for n in range(qmax + 1)
               for m in g.coefficient(n).terms)


def test_truncate_shrinks_window():
    f = _geom("a", 1, 10)
    g = f.truncate(4)
    assert g.qmax == 4
    assert g.coefficient(4) == f.coefficient(4)
    with pytest.raises(AlgebraError):
        g.truncate(9)


def test_specialize_sets_variables_to_integers():
    f = _geom("a", 1, 5) * _geom("b", 1, 5)
    g = f.specialize({"a": 1, "b": 1})
    # number of pairs (i, j) with i + j = n: n + 1
    assert [constant(g.coefficient(n)) for n in range(6)] == [1, 2, 3, 4, 5, 6]


def test_series_json_round_trip():
    f = cap_degree(_geom("a", 2, 7), 3)
    assert TruncatedSeries.from_json(f.to_json()) == f
    assert TruncatedSeries.from_json(f.to_json()).degmax == 3


def test_series_from_json_checks_its_input():
    # duplicate monomials merge, and a zero sum leaves no term behind
    f = TruncatedSeries.from_json({"qmax": 1, "coefficients": [
        [[1, {}]], [[2, {"a": 1}], [1, {"a": 1}], [3, {"b": 1}], [-3, {"b": 1}]]]})
    assert f.coefficient(1).terms == {Monomial.var("a"): 3}
    assert f == series({0: {"1": 1}, 1: {"a": 3}}, 1)
    with pytest.raises(AlgebraError, match="qmax"):
        TruncatedSeries.from_json({"qmax": 2, "coefficients": [[], []]})
    for bad in (1.5, True, "1"):
        with pytest.raises(TypeError, match="integer"):
            TruncatedSeries.from_json({"qmax": 0, "coefficients": [[[bad, {}]]]})
        with pytest.raises(TypeError, match="integer"):
            TruncatedSeries.from_json({"qmax": 0, "coefficients": [[[1, {"a": bad}]]]})


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------


def test_substitution_identity():
    f = _geom("a", 1, 8)
    g = substitute(f, SubstitutionMap(1, {}), 8)
    assert g == f


def test_substitution_q_dilation_only():
    f = _geom("a", 1, 5)
    sub = SubstitutionMap(3, {})
    g = substitute(f, sub, 15)
    for n in range(16):
        expected = f.coefficient(n // 3) if n % 3 == 0 else poly({})
        assert g.coefficient(n) == expected


def test_substitution_variable_with_negative_shift():
    # f = 1 + a*q; map q -> q^2, a -> a*q^-1: expect 1 + a*q
    f = series({0: {"1": 1}, 1: {"a": 1}}, 4)
    sub = SubstitutionMap(2, {"a": (Monomial.var("a"), -1)})
    g = substitute(f, sub, 4)
    assert g.coefficient(1) == poly({"a": 1})
    assert g.coefficient(2).is_zero()


def test_substitution_erasure_to_one():
    f = series({2: {"a*b": 1}}, 6)
    sub = SubstitutionMap(1, {"b": (Monomial.one(), 0)})
    g = substitute(f, sub, 6)
    assert g.coefficient(2) == poly({"a": 1})


def test_substitution_maps_each_monomial_once(monkeypatch):
    # three monomials repeat over six buckets: three images, not eighteen
    f = series({n: {"a": 1, "b": 2, "a*b": n} for n in range(1, 7)}, 6)
    sub = SubstitutionMap(1, {"a": (Monomial.var("b"), 1)})
    mapped = []
    apply = SubstitutionMap.apply_monomial
    monkeypatch.setattr(SubstitutionMap, "apply_monomial",
                        lambda self, mono: mapped.append(mono) or apply(self, mono))
    g = substitute(f, sub, 6)
    assert sorted(map(str, mapped)) == ["a", "a*b", "b"]
    assert g.coefficient(2) == poly({"b": 3, "b^2": 1})


def test_substitution_rejects_negative_exponent():
    f = series({0: {"a": 1, "1": 1}}, 4, degmax=4)
    sub = SubstitutionMap(2, {"a": (Monomial.var("a"), -1)})
    with pytest.raises(SubstitutionError, match="negative exponent"):
        substitute(f, sub, 4)


def test_substitution_window_soundness_checks():
    f = _geom("a", 1, 10)
    # q -> q^2 can only support output windows up to 20
    with pytest.raises(SubstitutionError, match="window too small"):
        substitute(f, SubstitutionMap(2, {}), 21)
    # negative shift eats into the window: (2-1)*10 = 10 is the safe limit
    sub = SubstitutionMap(2, {"a": (Monomial.var("a"), -1)})
    assert substitute(f, sub, 10).qmax == 10
    with pytest.raises(SubstitutionError, match="window too small"):
        substitute(f, sub, 11)


def test_substitution_negative_shift_requires_degree_discipline():
    # coefficient of q^1 with colour degree 3 breaks the deg <= n fallback,
    # even though the offending variable b is not shifted at all
    f = series({0: {"1": 1}, 1: {"b^3": 1}}, 4)
    sub = SubstitutionMap(2, {"a": (Monomial.var("a"), -1)})
    with pytest.raises(SubstitutionError, match="degree bound"):
        substitute(f, sub, 4)
    # declaring the cap restores a valid (smaller) window: 2*4 - 1*3 = 5 >= 4
    g = substitute(cap_degree(f, 3), sub, 4)
    assert g.coefficient(2) == poly({"b^3": 1})


def test_substitution_is_multiplicative_random():
    # substitution must be a ring homomorphism: sub(f*g) == sub(f)*sub(g)
    rng = random.Random(77)
    vars_ = ["a", "b"]
    for _ in range(40):
        qmax = 8
        def rand_series():
            coeffs = {}
            for n in range(qmax + 1):
                terms = coeffs[n] = {}
                for _ in range(rng.randrange(3)):
                    mono = Monomial([(v, rng.randrange(2)) for v in vars_])
                    if mono.degree <= n:     # keep the deg <= n discipline
                        terms[mono] = rng.randrange(-2, 3)
            return series(coeffs, qmax)
        f = rand_series()
        g = rand_series()
        sub = SubstitutionMap(2, {
            "a": (Monomial.var("b"), rng.choice([-1, 0, 1])),
            "b": (Monomial.var("a"), rng.choice([0, 1])),
        })
        # output window 8 is safe: (2-1)*8 >= 8
        lhs = substitute(f * g, sub, qmax)
        rhs = substitute(f, sub, qmax) * substitute(g, sub, qmax)
        assert lhs == rhs


def test_geometric_sum_term():
    # a*q + (a*q)^2 + ... through q^5 is 1/(1 - a*q) - 1; a modulus above
    # qmax makes the product a single factor
    a = Monomial.var("a")
    at_one = ProductSpec([ProductFactor(1, a, 1, 6, 1)])
    s = product_expand(at_one, 5) - TruncatedSeries.one(5)
    for n in range(1, 6):
        assert s.coefficient(n) == poly({Monomial.var("a", n): 1})
    assert s.coefficient(0).is_zero()
    at_zero = ProductSpec([ProductFactor(1, a, 0, 6, 1)])
    with pytest.raises(AlgebraError):
        product_expand(at_zero, 5)  # needs degmax
    capped = product_expand(at_zero, 5, degmax=3) - TruncatedSeries.one(5)
    assert capped.coefficient(0) == poly({"a": 1, "a^2": 1, "a^3": 1})
