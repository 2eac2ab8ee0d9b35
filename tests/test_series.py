"""TruncatedSeries arithmetic, truncation discipline, and substitution."""

import random

from wwords.algebra import (
    AlgebraError,
    Monomial,
    Polynomial,
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


def _geom(var: str, n: int, qmax: int) -> TruncatedSeries:
    """1/(1 - var*q^n) built by hand."""
    s = TruncatedSeries.zero(qmax)
    coeffs = s.coefficients()
    k = 0
    while k * n <= qmax:
        coeffs[k * n] = Polynomial.term(Monomial.var(var, k) if k else Monomial.one())
        k += 1
    return TruncatedSeries(qmax, coeffs)


def test_one_and_zero():
    one = TruncatedSeries.one(8)
    zero = TruncatedSeries.zero(8)
    assert one.is_one()
    assert (one + zero) == one
    assert (one * zero) == zero
    assert one.coefficient(0) == Polynomial.one()
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
    assert c4 == Polynomial({
        Monomial.var("a", 4): 1,
        Monomial([("a", 2), ("b", 1)]): 1,
        Monomial.var("b", 2): 1,
    })


def test_multiplication_by_single_term_series_shifts():
    qmax = 10
    f = _geom("a", 1, qmax)
    poly = Polynomial.variable("b") + Polynomial.constant(2)
    g = f * TruncatedSeries.from_term(qmax, 3, poly)
    assert g == TruncatedSeries.from_term(qmax, 3, poly) * f
    for n in range(3, qmax + 1):
        assert g.coefficient(n) == f.coefficient(n - 3) * poly
    assert g.coefficient(0).is_zero()
    assert g.coefficient(2).is_zero()


def test_degmax_caps_colour_degree():
    qmax = 6
    f = _geom("a", 1, qmax).cap_degree(2)
    assert f.degmax == 2
    assert f.coefficient(2) == Polynomial.term(Monomial.var("a", 2))
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
    assert [g.coefficient(n).constant_term() for n in range(6)] == [1, 2, 3, 4, 5, 6]


def test_series_json_round_trip():
    f = _geom("a", 2, 7).cap_degree(3)
    assert TruncatedSeries.from_json(f.to_json()) == f
    assert TruncatedSeries.from_json(f.to_json()).degmax == 3


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
        expected = f.coefficient(n // 3) if n % 3 == 0 else Polynomial.zero()
        assert g.coefficient(n) == expected


def test_substitution_variable_with_negative_shift():
    # f = 1 + a*q; map q -> q^2, a -> a*q^-1: expect 1 + a*q
    f = TruncatedSeries.one(4) + TruncatedSeries.from_term(4, 1, Polynomial.variable("a"))
    sub = SubstitutionMap(2, {"a": (Monomial.var("a"), -1)})
    g = substitute(f, sub, 4)
    assert g.coefficient(1) == Polynomial.variable("a")
    assert g.coefficient(2).is_zero()


def test_substitution_erasure_to_one():
    f = TruncatedSeries.from_term(6, 2, Polynomial.variable("b").scale(
        1, Monomial.var("a")))
    sub = SubstitutionMap(1, {"b": (Monomial.one(), 0)})
    g = substitute(f, sub, 6)
    assert g.coefficient(2) == Polynomial.variable("a")


def test_substitution_rejects_negative_exponent():
    f = TruncatedSeries.from_term(4, 0, Polynomial.variable("a"), degmax=4) \
        + TruncatedSeries.one(4, degmax=4)
    sub = SubstitutionMap(2, {"a": (Monomial.var("a"), -1)})
    with pytest.raises(SubstitutionError):
        substitute(f, sub, 4)


def test_substitution_window_soundness_checks():
    f = _geom("a", 1, 10)
    # q -> q^2 can only support output windows up to 20
    with pytest.raises(SubstitutionError):
        substitute(f, SubstitutionMap(2, {}), 21)
    # negative shift eats into the window: (2-1)*10 = 10 is the safe limit
    sub = SubstitutionMap(2, {"a": (Monomial.var("a"), -1)})
    assert substitute(f, sub, 10).qmax == 10
    with pytest.raises(SubstitutionError):
        substitute(f, sub, 11)


def test_substitution_negative_shift_requires_degree_discipline():
    # coefficient of q^1 with colour degree 3 breaks the deg <= n fallback,
    # even though the offending variable b is not shifted at all
    f = TruncatedSeries.one(4) + TruncatedSeries.from_term(
        4, 1, Polynomial.term(Monomial.var("b", 3)))
    sub = SubstitutionMap(2, {"a": (Monomial.var("a"), -1)})
    with pytest.raises(SubstitutionError):
        substitute(f, sub, 4)
    # declaring the cap restores a valid (smaller) window: 2*4 - 1*3 = 5 >= 4
    g = substitute(f.cap_degree(3), sub, 4)
    assert g.coefficient(2) == Polynomial.term(Monomial.var("b", 3))


def test_substitution_is_multiplicative_random():
    # substitution must be a ring homomorphism: sub(f*g) == sub(f)*sub(g)
    rng = random.Random(77)
    vars_ = ["a", "b"]
    for _ in range(40):
        qmax = 8
        def rand_series():
            coeffs = []
            for n in range(qmax + 1):
                terms = {}
                for _ in range(rng.randrange(3)):
                    mono = Monomial([(v, rng.randrange(2)) for v in vars_])
                    if mono.degree <= n:     # keep the deg <= n discipline
                        terms[mono] = rng.randrange(-2, 3)
                coeffs.append(Polynomial(terms))
            return TruncatedSeries(qmax, coeffs)
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
        assert s.coefficient(n) == Polynomial.term(Monomial.var("a", n))
    assert s.coefficient(0).is_zero()
    at_zero = ProductSpec([ProductFactor(1, a, 0, 6, 1)])
    with pytest.raises(AlgebraError):
        product_expand(at_zero, 5)  # needs degmax
    capped = product_expand(at_zero, 5, degmax=3) - TruncatedSeries.one(5)
    assert capped.coefficient(0) == Polynomial({
        Monomial.var("a", 1): 1, Monomial.var("a", 2): 1, Monomial.var("a", 3): 1})
