"""Packed exponent codes: a product, power or substitution image found by
adding or scaling codes is the monomial that merging the items gives, and
every way of making a monomial refuses an exponent at or above the bound.

Each example registers its own variable names, in an order it draws, in
empty code tables, so the fields land in a different layout every time.
"""

from contextlib import contextmanager

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from wwords import (  # noqa: E402
    ColourDef,
    ColouredSystem,
    MatrixGap,
    RankRule,
    SizeDomain,
    algebra,
    enumerate_series,
)
from wwords.algebra import (  # noqa: E402
    EXPONENT_BOUND,
    AlgebraError,
    Monomial,
    SubstitutionMap,
    TruncatedSeries,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

NAMES = [f"v{i}" for i in range(40)]
#: sums of two of these land on the bound, just below it or just above it
NEAR_BOUND = [EXPONENT_BOUND // 2, EXPONENT_BOUND // 2 + 1,
              EXPONENT_BOUND - 2, EXPONENT_BOUND - 1]
exponents = (st.integers(0, EXPONENT_BOUND - 1) | st.sampled_from(NEAR_BOUND)
             | st.integers(0, 3))


@contextmanager
def fresh_codes():
    """Empty name and intern tables for one example, restored afterwards."""
    saved = algebra._FIELDS, algebra._INTERNED
    algebra._FIELDS, algebra._INTERNED = {}, {0: Monomial.one()}
    try:
        yield
    finally:
        algebra._FIELDS, algebra._INTERNED = saved


@st.composite
def layouts(draw):
    """Names registered in a drawn order, and two exponent maps over them."""
    names = draw(st.permutations(NAMES[:draw(st.integers(1, len(NAMES)))]))
    # one-variable maps and squares reach the bound, and carry, most often
    maps = (st.dictionaries(st.sampled_from(names), exponents, max_size=1)
            | st.dictionaries(st.sampled_from(names), exponents, max_size=6))
    x = draw(maps)
    return names, x, draw(maps | st.just(x))


def merged(*maps, k=1):
    """The item-merge result: exponents added per name, times k, zeros
    dropped, sorted by name."""
    out = {}
    for d in maps:
        for name, e in d.items():
            out[name] = out.get(name, 0) + e * k
    return tuple(sorted((n, e) for n, e in out.items() if e))


def valid(items) -> bool:
    return all(e < EXPONENT_BOUND for _, e in items)


def refusal(items) -> str:
    """The message pattern that names the first variable, by name, whose
    exponent reaches the bound."""
    return f"variable {next(n for n, e in items if e >= EXPONENT_BOUND)!r}"


@PROPERTY
@given(layouts())
def test_product_by_code_is_the_item_merge(layout):
    names, x, y = layout
    with fresh_codes():
        for name in names:  # every single variable is interned as well
            Monomial.var(name)
        mx, my = Monomial.from_dict(x), Monomial.from_dict(y)
        want = merged(x, y)
        if valid(want):
            assert (mx * my).items == want
            assert mx * my is my * mx is Monomial(want)
            assert (mx * my).degree == sum(e for _, e in want)
        else:
            with pytest.raises(AlgebraError, match=refusal(want)):
                mx * my


@PROPERTY
@given(layouts(), st.integers(0, 4) | st.integers(0, EXPONENT_BOUND))
def test_power_by_code_is_the_item_merge(layout, k):
    names, x, _ = layout
    with fresh_codes():
        for name in names:
            Monomial.var(name)
        mx = Monomial.from_dict(x)
        want = merged(x, k=k)
        if valid(want):
            assert (mx ** k).items == want
            assert mx ** k is Monomial(want)
        else:
            with pytest.raises(AlgebraError, match=refusal(want)):
                mx ** k


@PROPERTY
@given(layouts(), st.data())
def test_substituted_code_is_the_item_merge(layout, data):
    names, x, image = layout
    mapped = data.draw(st.sets(st.sampled_from(names)))
    with fresh_codes():
        for name in names:
            Monomial.var(name)
        mx = Monomial.from_dict(x)
        # every mapped variable goes to the same image, times q^1
        sub = SubstitutionMap(1, {v: (Monomial.from_dict(image), 1) for v in mapped})
        want = merged({n: e for n, e in x.items() if n not in mapped},
                      *({n: e * x[v] for n, e in image.items()}
                        for v in mapped if v in x))
        if valid(want):
            assert sub.apply_monomial(mx) == (
                Monomial(want), sum(x.get(v, 0) for v in mapped))
        else:
            with pytest.raises(AlgebraError, match="not below"):
                sub.apply_monomial(mx)


def test_every_way_of_making_a_monomial_refuses_the_bound():
    with fresh_codes():
        a, b = Monomial.var("a"), Monomial.var("b")
        top = Monomial.var("a", EXPONENT_BOUND - 1)
        assert top.exponent("a") == EXPONENT_BOUND - 1
        half = Monomial.var("a", EXPONENT_BOUND // 2)
        # parts of weight a^(2^30), any number of them: two reach the
        # bound, and the codes of four would carry into the next field
        halves = ColouredSystem(
            name="halves", colours=(ColourDef("c", half, SizeDomain(1)),),
            gap=MatrixGap({"c": {"c": 0}}), rank_rule=RankRule(1, {"c": 0}))
        # half * q, squared in the series product's kernel
        halfq = TruncatedSeries([{}, {half: 1}, {}])
        # a and b reach the bound together, and the message names a
        ab = (a * b) ** (EXPONENT_BOUND // 2)
        for make in (lambda: Monomial([("a", EXPONENT_BOUND)]),
                     lambda: Monomial([("b", 1), ("a", EXPONENT_BOUND // 2)] * 2),
                     lambda: Monomial.from_dict({"b": 1, "a": EXPONENT_BOUND}),
                     lambda: half * half,
                     lambda: top * a,
                     lambda: half ** 2,
                     lambda: (a * b) ** EXPONENT_BOUND,
                     lambda: halfq * halfq,
                     lambda: ab * ab,
                     lambda: enumerate_series(halves, 2),
                     lambda: enumerate_series(halves, 4)):
            with pytest.raises(AlgebraError, match="variable 'a'"):
                make()
        # one such part is below the bound, and so is a partition of 4
        # whose parts must differ by 5
        assert enumerate_series(halves, 1).coefficient(1).terms == {half: 1}
        apart = ColouredSystem(
            name="apart", colours=halves.colours,
            gap=MatrixGap({"c": {"c": 5}}), rank_rule=halves.rank_rule)
        assert all(enumerate_series(apart, 4).coefficient(n).terms == {half: 1}
                   for n in range(1, 5))
        # a carry out of a's field would have made b
        assert half * Monomial.var("a", EXPONENT_BOUND // 2 - 1) is Monomial.var(
            "a", EXPONENT_BOUND - 1)
        # and one out of b's field four times over, c
        c = Monomial.var("c")
        sub = SubstitutionMap(1, {"a": (Monomial.var("b", EXPONENT_BOUND // 2), 0)})
        with pytest.raises(AlgebraError, match="variable 'b'"):
            sub.apply_monomial(a ** 4)
        assert sub.apply_monomial(a * c) == (Monomial.var("b", EXPONENT_BOUND // 2) * c, 0)
