"""Property tests of the bucket-backed series on generated inputs.

``+``, ``-``, ``*``, ``specialize``, ``substitute`` and
``product_expand`` are checked against sympy's expansion of the same
expressions, truncated to the same q-order and colour degree, and
``product_expand`` must not depend on the order of its factors.  So is
``helpers.cap_degree``, the degree cap that other tests use as an oracle.  Euler
factorization followed by re-expansion, and the JSON round trip, must give
back the series they started from.  Every series is a series in the
colour variables a and b.
"""

import json

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from wwords.algebra import (  # noqa: E402
    Monomial,
    ProductFactor,
    ProductSpec,
    SubstitutionMap,
    TruncatedSeries,
    euler_factorize,
    product_expand,
    substitute,
)

from helpers import cap_degree, reexpand, series  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

q, a, b = sympy.symbols("q a b")
SYMBOL = {"a": a, "b": b}

monomials = st.tuples(st.integers(0, 2), st.integers(0, 2)).map(
    lambda e: Monomial([("a", e[0]), ("b", e[1])]))
degmaxes = st.none() | st.integers(0, 4)


@st.composite
def series_st(draw, qmax: int, unit: bool = False) -> TruncatedSeries:
    """A series through q^qmax, faithful to its degmax: no monomial of
    degree above it.  A unit series has constant term exactly 1."""
    degmax = draw(degmaxes)
    coeffs = {}
    for n in range(qmax + 1):
        terms = draw(st.dictionaries(monomials, st.integers(-3, 3), max_size=3))
        coeffs[n] = {m: c for m, c in terms.items()
                     if degmax is None or m.degree <= degmax}
    if unit:
        coeffs[0] = {Monomial.one(): 1}
    return series(coeffs, qmax, degmax)


@st.composite
def series_pairs(draw) -> tuple[TruncatedSeries, TruncatedSeries]:
    qmax = draw(st.integers(0, 5))
    return draw(series_st(qmax)), draw(series_st(qmax))


def one_series(max_qmax: int = 5, unit: bool = False):
    return st.integers(0, max_qmax).flatmap(lambda n: series_st(n, unit))


def sym_mono(m: Monomial):
    return sympy.Mul(*(SYMBOL[v] ** e for v, e in m.items))


def sym(f: TruncatedSeries):
    """The series as a sympy polynomial in q, a and b."""
    return sum((c * q ** n * sym_mono(m)
                for n in range(f.qmax + 1)
                for m, c in f.coefficient(n).terms.items()), sympy.Integer(0))


def as_dict(f: TruncatedSeries) -> dict[tuple[int, int, int], int]:
    """{(power of q, power of a, power of b): coefficient}."""
    out = {}
    for n in range(f.qmax + 1):
        for m, c in f.coefficient(n).terms.items():
            assert set(m.variables()) <= {"a", "b"} and c != 0
            out[n, m.exponent("a"), m.exponent("b")] = c
    return out


def reference(expr, qmax: int, degmax: int | None = None) -> dict:
    """sympy's expansion of expr, through q^qmax and colour degree degmax."""
    return {e: int(c) for e, c in sympy.Poly(expr, q, a, b).as_dict().items()
            if c != 0 and e[0] <= qmax and (degmax is None or e[1] + e[2] <= degmax)}


def merged(x: int | None, y: int | None) -> int | None:
    return y if x is None else x if y is None else min(x, y)


@PROPERTY
@given(series_pairs())
def test_add_sub_mul_match_sympy(pair):
    f, g = pair
    before = (f.to_json(), g.to_json())
    dm = merged(f.degmax, g.degmax)
    for got, expr in ((f + g, sym(f) + sym(g)), (f - g, sym(f) - sym(g)),
                      (f * g, sym(f) * sym(g))):
        assert got.qmax == f.qmax and got.degmax == dm
        assert as_dict(got) == reference(expr, f.qmax, dm)
    assert (f.to_json(), g.to_json()) == before   # no operand is changed


@PROPERTY
@given(one_series(), degmaxes)
def test_cap_degree_matches_sympy(f, degmax):
    capped = cap_degree(f, degmax)
    if degmax is None:
        assert capped is f
        return
    dm = merged(f.degmax, degmax)
    assert capped.degmax == dm
    assert as_dict(capped) == reference(sym(f), f.qmax, dm)


@PROPERTY
@given(one_series(), st.dictionaries(st.sampled_from("ab"), st.integers(-2, 3)))
def test_specialize_matches_sympy(f, assignments):
    got = f.specialize(assignments)
    assert got.degmax == f.degmax
    expr = sym(f).subs({SYMBOL[v]: value for v, value in assignments.items()})
    assert as_dict(got) == reference(expr, f.qmax)


@PROPERTY
@given(one_series(), st.integers(1, 3),
       st.dictionaries(st.sampled_from("ab"),
                       st.tuples(monomials, st.integers(0, 2)), max_size=2),
       st.data())
def test_substitute_matches_sympy(f, qpower, images, data):
    new_qmax = data.draw(st.integers(0, qpower * f.qmax))
    degmax = data.draw(degmaxes)
    got = substitute(f, SubstitutionMap(qpower, images), new_qmax, degmax)
    assert got.qmax == new_qmax and got.degmax == degmax
    expr = sym(f).xreplace({q: q ** qpower, **{
        SYMBOL[v]: sym_mono(m) * q ** shift
        for v, (m, shift) in images.items()}})
    assert as_dict(got) == reference(expr, new_qmax, degmax)


factors = st.builds(ProductFactor, st.sampled_from([1, -1]), monomials,
                    st.integers(1, 3), st.integers(1, 3), st.integers(-2, 2))


@PROPERTY
@given(st.lists(factors, max_size=3), st.integers(0, 6), degmaxes)
def test_product_expand_matches_sympy(fs, qmax, degmax):
    """P = N / D, where N collects the factors with a non-negative exponent
    and D the others; D has constant term 1, so P*D = N through q^qmax and
    colour degree degmax determines P there."""
    got = product_expand(ProductSpec(fs), qmax, degmax)
    assert got.qmax == qmax and got.degmax == degmax
    num, den = sympy.Integer(1), sympy.Integer(1)
    for fac in fs:
        c = fac.sign * sym_mono(fac.mono)
        for n in range(fac.start, qmax + 1, fac.mod):
            if fac.power <= 0:
                num *= (1 - c * q ** n) ** -fac.power
            else:
                den *= (1 - c * q ** n) ** fac.power
    assert all(e[0] <= qmax and (degmax is None or e[1] + e[2] <= degmax)
               for e in as_dict(got))
    assert reference(sym(got) * den, qmax, degmax) == reference(num, qmax, degmax)


@st.composite
def factor_st(draw, powers, degmax: int | None) -> ProductFactor:
    """A factor family; it may start at q^0 when its monomial carries a
    colour and degmax cuts it there."""
    mono, power = draw(monomials), draw(powers)
    lowest = 0 if mono.degree and degmax is not None else 1
    return ProductFactor(draw(st.sampled_from([1, -1])), mono,
                         draw(st.integers(lowest, 3)), draw(st.integers(1, 3)),
                         power)


@PROPERTY
@given(st.integers(0, 6), degmaxes, st.data())
def test_product_expand_ignores_factor_order(qmax, degmax, data):
    """Dividing and finite families, mixed and in any order, expand to the
    same buckets."""
    fs = [*data.draw(st.lists(factor_st(st.integers(1, 2), degmax),
                              min_size=1, max_size=2)),
          *data.draw(st.lists(factor_st(st.integers(-2, -1), degmax),
                              min_size=1, max_size=2)),
          *data.draw(st.lists(factor_st(st.integers(-2, 2), degmax),
                              max_size=1))]
    shuffled = data.draw(st.permutations(fs))
    assert product_expand(ProductSpec(shuffled), qmax, degmax) == \
        product_expand(ProductSpec(fs), qmax, degmax)


@PROPERTY
@given(one_series(max_qmax=7, unit=True))
def test_euler_factorize_then_expand_is_identity(f):
    assert reexpand(euler_factorize(f), f.qmax, f.degmax) == f


@PROPERTY
@given(one_series())
def test_json_round_trip(f):
    again = TruncatedSeries.from_json(json.loads(json.dumps(f.to_json())))
    assert again == f and again.degmax == f.degmax
