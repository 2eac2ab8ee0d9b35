"""Monomials and coefficient polynomials: exactness, ordering, ring axioms
(the arithmetic runs on series of order 0, whose one coefficient is the
polynomial), and one object per monomial value."""

import copy
import pickle
import random

from wwords.algebra import (
    AlgebraError,
    Monomial,
    Polynomial,
    SubstitutionMap,
    TruncatedSeries,
    substitute,
)

import pytest

from helpers import cap_degree, series


def _c(terms) -> TruncatedSeries:
    """A polynomial as a series of order 0."""
    return series({0: terms}, 0)


def test_monomial_construction_merges_and_drops_zero():
    m = Monomial([("b", 1), ("a", 2), ("b", 1), ("c", 0)])
    assert m.items == (("a", 2), ("b", 2))
    assert m.degree == 4
    assert m.exponent("a") == 2
    assert m.exponent("z") == 0


def test_monomial_one_and_mul_pow():
    one = Monomial.one()
    a = Monomial.var("a")
    b = Monomial.var("b")
    assert one.is_one() and str(one) == "1"
    assert (a * b).items == (("a", 1), ("b", 1))
    assert (a * one) == a
    assert (a ** 3).items == (("a", 3),)
    assert (a ** 0) == one
    assert str(a * a * b) == "a^2*b"


def test_monomial_rejects_negative_exponents():
    with pytest.raises(AlgebraError):
        Monomial([("a", -1)])
    with pytest.raises(AlgebraError):
        Monomial.var("a") ** -2


def test_monomial_order_is_graded_then_lexicographic():
    a = Monomial.var("a")
    b = Monomial.var("b")
    ab = a * b
    a2 = a ** 2
    # degree dominates; inside a degree the item tuples compare alphabetically
    assert sorted([a2, b, ab, a, Monomial.one()]) == [Monomial.one(), a, b, ab, a2]
    assert ab.sort_key() < a2.sort_key()  # ("a",1),("b",1) < ("a",2)


def test_monomial_hash_and_equality():
    m1 = Monomial([("a", 1), ("b", 2)])
    m2 = Monomial([("b", 2), ("a", 1)])
    assert m1 == m2 and hash(m1) == hash(m2)
    assert len({m1, m2}) == 1


def test_monomial_json_round_trip():
    m = Monomial([("u1", 1), ("u2", 3)])
    assert Monomial.from_dict(m.to_json()) == m


def test_polynomial_basic_arithmetic():
    a = _c({"a": 1})
    b = _c({"b": 1})
    one = _c({"1": 1})
    p = (a + b) * (a + b)
    expected = Polynomial({
        Monomial.var("a", 2): 1,
        Monomial.var("b", 2): 1,
        Monomial([("a", 1), ("b", 1)]): 2,
    })
    assert p.coefficient(0) == expected
    assert (p - p).coefficient(0).is_zero()
    assert (a + one) * (a - one) == a * a - one
    assert str((a - b).coefficient(0)) in ("a - b",)


def test_polynomial_zero_coefficients_are_dropped():
    a = _c({"a": 1})
    p = (a - a).coefficient(0)
    assert p.is_zero() and p.terms == {}
    assert (a * TruncatedSeries.zero(0)).coefficient(0).is_zero()
    assert Polynomial({Monomial.var("a"): 0, Monomial.one(): 2}).terms == {
        Monomial.one(): 2}
    assert Polynomial.from_json([[2, {"a": 1}], [-2, {"a": 1}]]).is_zero()


def test_polynomial_scale_and_cap_degree():
    a = _c({"a": 1})
    b = _c({"b": 1})
    p = a * a + b
    assert p * _c({"1": 3}) == _c({"a^2": 3, "b": 3})
    capped = cap_degree(p, 1)
    assert capped == b
    assert cap_degree(p, None) is p


def test_polynomial_json_round_trip():
    p = Polynomial({
        Monomial.var("a", 2): -3,
        Monomial.one(): 7,
        Monomial([("a", 1), ("b", 1)]): 1,
    })
    assert Polynomial.from_json(p.to_json()) == p


def _random_poly(rng, nvars=3, nterms=4, maxexp=2, maxcoeff=5):
    vars_ = ["a", "b", "c", "d"][:nvars]
    terms = {}
    for _ in range(rng.randrange(nterms + 1)):
        mono = Monomial([(v, rng.randrange(maxexp + 1)) for v in vars_])
        coeff = rng.randrange(-maxcoeff, maxcoeff + 1)
        terms[mono] = terms.get(mono, 0) + coeff
    return _c(terms)


def test_polynomial_ring_axioms_random():
    rng = random.Random(20260816)
    for _ in range(200):
        p = _random_poly(rng)
        q = _random_poly(rng)
        r = _random_poly(rng)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)
        assert p + TruncatedSeries.zero(0) == p
        assert p * TruncatedSeries.one(0) == p


def test_polynomial_str_is_deterministic():
    p = Polynomial({
        Monomial.var("b"): 1,
        Monomial.var("a"): 1,
        Monomial([("a", 1), ("b", 1)]): -2,
    })
    assert str(p) == "a + b - 2*a*b"


def test_equal_monomials_are_one_object():
    ab2 = Monomial([("a", 1), ("b", 2)])
    a, b = Monomial.var("a"), Monomial.var("b")
    assert Monomial([("b", 2), ("a", 1)]) is ab2
    assert Monomial([("b", 1), ("a", 1), ("b", 1), ("c", 0)]) is ab2
    assert Monomial.var("a") is a and Monomial.var("a", 0) is Monomial.one()
    assert Monomial.from_dict({"b": 2, "a": 1}) is ab2
    assert a * b * b is ab2 and b * (b * a) is ab2
    assert (a * b) ** 2 is Monomial([("a", 2), ("b", 2)])
    assert a ** 0 is Monomial.one() and Monomial() is Monomial.one()

    f = series({1: {Monomial([("a", 1), ("b", 2), ("c", 4)]): 5}}, 3)
    (mono,) = f.specialize({"c": 1}).coefficient(1).terms
    assert mono is ab2
    g = substitute(series({1: {Monomial([("c", 1), ("d", 2)]): 1}}, 3),
                   SubstitutionMap(1, {"c": (a, 0), "d": (b, 0)}), 3)
    (mono,) = g.coefficient(1).terms
    assert mono is ab2
    (mono,) = Polynomial.from_json([[3, {"b": 2, "a": 1}]]).terms
    assert mono is ab2

    assert pickle.loads(pickle.dumps(ab2)) is ab2
    assert pickle.loads(pickle.dumps(Monomial.one())) is Monomial.one()
    p = Polynomial({ab2: 2, a: -1})
    assert all(m is n for m, n in zip(pickle.loads(pickle.dumps(p)).terms, p.terms))
    assert copy.copy(ab2) is ab2 and copy.deepcopy(ab2) is ab2
    assert all(m is n for m, n in zip(copy.deepcopy(p).terms, p.terms))
