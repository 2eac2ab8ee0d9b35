"""Tests for periodic-product recognition and colour-relation search."""

import dataclasses
import itertools
import random

import pytest

from wwords import (
    DiscoveryError,
    Monomial,
    ProductFactor,
    ProductSpec,
    TruncatedSeries,
    build_preset,
    dp_series,
    enumerate_series,
    euler_factorize,
    identity_case,
    product_expand,
    recognize_periodic_product,
    relabel_colours,
    search_relations,
)
from wwords import discovery
from wwords.algebra import FactorizationError, SubstitutionMap, substitute
from wwords.discovery import _early_window, _survivors

from helpers import random_system, series
from oracles import key_of, relabel_rows, row_periods


def mono(**exps):
    return Monomial.from_dict(exps)


@pytest.fixture(scope="module")
def siladic_search():
    return search_relations(build_preset("siladic-dilated-free"),
                            ["a", "b"], 24, max_exponent=2)


# ---------------------------------------------------------------------------
# recognize_periodic_product
# ---------------------------------------------------------------------------


class TestRecognizePeriodicProduct:
    def test_two_colour_product_has_minimal_period_two(self):
        f = product_expand(identity_case("theorem-2").product, 30)
        pattern = recognize_periodic_product(f)
        assert pattern is not None
        # the correction factors at even positions force period 2, not 1
        assert pattern.period == 2
        assert pattern.initial == 0
        assert pattern.factors_per_period == 6
        assert product_expand(pattern.spec, 30) == f

    def test_all_parts_product_has_period_one(self):
        spec = ProductSpec([ProductFactor(1, Monomial.one(), 1, 1, 1)])
        f = product_expand(spec, 20)
        pattern = recognize_periodic_product(f)
        assert pattern.period == 1
        assert pattern.initial == 0
        assert pattern.factors_per_period == 1
        fac = pattern.spec.factors[0]
        assert (fac.sign, fac.mono, fac.start, fac.mod, fac.power) == \
            (1, Monomial.one(), 1, 1, 1)

    def test_distinct_parts_recognized_as_odd_parts_product(self):
        # prod (1 + q^n) is rewritten with factors only at odd positions
        distinct = ProductSpec([ProductFactor(-1, Monomial.one(), 1, 1, -1)])
        f = product_expand(distinct, 24)
        pattern = recognize_periodic_product(f)
        assert pattern.period == 2
        assert pattern.factors_per_period == 1
        [fac] = pattern.spec.factors
        assert (fac.sign, fac.mono, fac.start, fac.mod, fac.power) == \
            (1, Monomial.one(), 1, 2, 1)
        assert product_expand(pattern.spec, 24) == f

    @pytest.mark.parametrize("name", [
        "theorem-2", "schur-dilated", "theorem-3", "theorem-4", "theorem-5",
        "theorem-6", "theorem-7", "primc-conjecture",
    ])
    def test_round_trips_every_registry_product(self, name):
        f = product_expand(identity_case(name).product, 30)
        pattern = recognize_periodic_product(f)
        assert pattern is not None
        assert product_expand(pattern.spec, 30) == f

    def test_expected_registry_periods(self):
        expected = {
            "theorem-2": 2,
            "schur-dilated": 6,
            "theorem-4": 8,
            "theorem-6": 4,
            "theorem-7": 8,
            "primc-conjecture": 1,
        }
        for name, period in expected.items():
            f = product_expand(identity_case(name).product, 30)
            assert recognize_periodic_product(f).period == period, name

    def test_non_periodic_head_uses_initial_segment(self):
        prod = product_expand(identity_case("schur-dilated").product, 24)
        head = series({0: {"1": 1}, 1: {"1": -1}}, 24)
        f = prod * head
        pattern = recognize_periodic_product(f)
        assert (pattern.period, pattern.initial) == (6, 1)
        assert product_expand(pattern.spec, 24) == f

    def test_constant_one_yields_empty_pattern(self):
        pattern = recognize_periodic_product(TruncatedSeries.one(12))
        assert pattern.period == 1
        assert pattern.spec.factors == ()
        assert pattern.factors_per_period == 0

    def test_multi_colour_series_without_relations_is_not_periodic(self):
        raw = enumerate_series(build_preset("schur-dilated-mod3"), 18)
        assert recognize_periodic_product(raw) is None

    def test_smaller_window_still_recognizes(self):
        f = product_expand(identity_case("theorem-2").product, 30)
        pattern = recognize_periodic_product(f.truncate(12))
        assert pattern.period == 2
        assert product_expand(pattern.spec, 12) == f.truncate(12)

    def test_re_expansion_refuses_a_wrong_pattern(self, monkeypatch):
        # offered the wrong pair (1, 0) first, the recognizer builds its
        # pattern, divides the series by it, is left with more than 1 and
        # claims nothing
        f = product_expand(identity_case("theorem-2").product, 24)
        assert recognize_periodic_product(f).period == 2
        periods = discovery._periods
        monkeypatch.setattr(discovery, "_periods", lambda rows, pairs, upto:
                            [(1, 0), *periods(rows, pairs, upto)])
        assert recognize_periodic_product(f) is None

    @pytest.mark.parametrize("name, degmax", [
        *((name, None) for name in (
            "theorem-2", "schur-dilated", "theorem-3", "theorem-4", "theorem-5",
            "theorem-6", "theorem-7", "primc-conjecture")),
        ("theorem-6", identity_case("theorem-6").degmax),
    ])
    def test_division_check_agrees_with_re_expansion(self, name, degmax):
        qmax = 24
        f = product_expand(identity_case(name).product, qmax, degmax)
        spec = recognize_periodic_product(f).spec
        assert discovery._equals_product(f, spec)
        assert product_expand(spec, qmax, degmax) == f
        factors = list(spec.factors)
        mutants = []
        for i in {0, len(factors) - 1}:
            fac, rest = factors[i], factors[:i] + factors[i + 1:]
            mutants += [rest,
                        [*rest, dataclasses.replace(fac, start=fac.start + 1)],
                        [*rest, dataclasses.replace(fac, power=-fac.power)]]
        # one more factor at q^qmax changes the last coefficient only
        last = [*factors, ProductFactor(1, Monomial.one(), qmax, 1, 1)]
        assert (product_expand(ProductSpec(last), qmax, degmax).truncate(qmax - 1)
                == f.truncate(qmax - 1))
        for mutant in map(ProductSpec, [*mutants, last]):
            assert not discovery._equals_product(f, mutant)
            assert product_expand(mutant, qmax, degmax) != f

    def test_non_unit_constant_term_raises(self):
        f = TruncatedSeries.one(10) + TruncatedSeries.one(10)
        with pytest.raises(FactorizationError):
            recognize_periodic_product(f)

    def test_pattern_json_shape(self):
        f = product_expand(identity_case("theorem-2").product, 18)
        data = recognize_periodic_product(f).to_json()
        assert set(data) == {"period", "initial", "factors_per_period", "product"}
        assert data["period"] == 2
        assert isinstance(data["product"], list)


# ---------------------------------------------------------------------------
# search_relations
# ---------------------------------------------------------------------------


class TestSearchRelations:
    def test_recovers_unique_product_like_relation(self):
        cands = search_relations(build_preset("schur-dilated-mod3"),
                                 ["a", "b"], 18, max_exponent=2)
        assert len(cands) == 9  # 3 x 3 exponent vectors for the one free colour
        product_like = [c for c in cands if c.product_like]
        assert len(product_like) == 1
        top = cands[0]
        assert top is product_like[0]
        assert dict(top.substitution) == {"c": mono(a=1, b=1)}
        assert top.period == 6
        assert top.factors_per_period == 6
        assert (top.product_like, top.factors_per_period) == (True, 6)

    def test_recovered_pattern_matches_known_product(self):
        cands = search_relations(build_preset("schur-dilated-mod3"),
                                 ["a", "b"], 18, max_exponent=2)
        pattern = cands[0].pattern
        expected = product_expand(identity_case("schur-dilated").product, 18)
        assert product_expand(pattern.spec, 18) == expected

    def test_search_is_deterministic(self):
        runs = [
            [c.to_json() for c in search_relations(
                build_preset("schur-dilated-mod3"), ["a", "b"], 18, 2)]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_primaries_are_never_substituted(self):
        cands = search_relations(build_preset("schur-dilated-mod3"),
                                 ["a", "b"], 12, max_exponent=1)
        for cand in cands:
            assert set(dict(cand.substitution)) == {"c"}

    def test_system_without_free_colours_gives_single_candidate(self):
        # below q3 the window is too short for any period
        for qmax, period in ((12, 2), (1, None), (2, None)):
            [cand] = search_relations(build_preset("schur-weighted"),
                                      ["a", "b"], qmax, max_exponent=2)
            assert cand.substitution == ()
            assert cand.product_like is (period is not None)
            assert cand.period == period

    def test_erased_variables_are_not_free(self):
        # primc's b is erased, so only d is free: one candidate per image
        # of d, where listing b as free repeated each once per image of b
        cands = search_relations(build_preset("primc-weighted"), ["a", "c"],
                                 12, max_exponent=1)
        assert [dict(c.substitution) for c in cands] == [
            {"d": Monomial.one()}, {"d": mono(a=1)}, {"d": mono(c=1)},
            {"d": mono(a=1, c=1)}]
        assert all(c.product_like for c in cands)

    def test_erasure_alone_is_not_product_like_here(self):
        [cand] = search_relations(build_preset("schur-dilated-mod3"),
                                  ["a", "b"], 18, max_exponent=0)
        assert dict(cand.substitution) == {"c": Monomial.one()}
        assert not cand.product_like
        assert cand.pattern is None

    def test_free_colour_classes_recover_known_assignment(self, siladic_search):
        product_like = [c for c in siladic_search if c.product_like]
        assert len(product_like) == 16
        documented = {
            "x1": mono(a=1), "x3": mono(b=1),
            "x0": mono(a=1, b=1), "x2": mono(b=2), "x6": mono(a=2),
        }
        hits = [c for c in product_like if dict(c.substitution) == documented]
        assert len(hits) == 1
        assert hits[0].period == 8
        assert hits[0].factors_per_period == 6

    def test_every_product_like_assignment_satisfies_colour_relations(
            self, siladic_search):
        # all product-like substitutions factor through the relations
        # x0 = x1*x3, x2 = x3^2, x6 = x1^2
        product_like = [c for c in siladic_search if c.product_like]
        for cand in product_like:
            sub = dict(cand.substitution)
            assert sub["x0"] == sub["x1"] * sub["x3"]
            assert sub["x2"] == sub["x3"] ** 2
            assert sub["x6"] == sub["x1"] ** 2

    def test_candidates_sorted_product_like_first_then_simpler(self, siladic_search):
        cands = siladic_search
        flags = [c.product_like for c in cands]
        assert flags == sorted(flags, reverse=True)
        product_like = [c for c in cands if c.product_like]
        counts = [c.factors_per_period for c in product_like]
        assert counts == sorted(counts)
        # full erasure gives the plainest product and therefore ranks first
        assert dict(cands[0].substitution) == {
            v: Monomial.one() for v in ("x0", "x1", "x2", "x3", "x6")}
        assert cands[0].period == 4

    def test_search_space_cap(self):
        with pytest.raises(DiscoveryError, match="exceeds 1000000"):
            search_relations(build_preset("siladic-dilated-free"),
                             ["a", "b"], 24, max_exponent=3)

    def test_rejects_bad_arguments(self):
        sys_ = build_preset("schur-dilated-mod3")
        with pytest.raises(DiscoveryError, match="positive truncation"):
            search_relations(sys_, ["a", "b"], 0)
        with pytest.raises(DiscoveryError, match="non-negative"):
            search_relations(sys_, ["a", "b"], 12, max_exponent=-1)
        with pytest.raises(DiscoveryError, match="primaries"):
            search_relations(sys_, [], 12)
        with pytest.raises(DiscoveryError, match="primaries"):
            search_relations(sys_, ["a", "a"], 12)

    def test_candidate_json_shape(self):
        cands = search_relations(build_preset("schur-dilated-mod3"),
                                 ["a", "b"], 18, max_exponent=2)
        top = cands[0].to_json()
        assert set(top) == {"substitution", "product_like", "period",
                            "factors_per_period", "pattern"}
        assert top["substitution"] == {"c": {"a": 1, "b": 1}}
        assert top["product_like"] is True
        other = cands[-1].to_json()
        assert set(other) == {"substitution", "product_like", "period",
                              "factors_per_period"}
        assert other["product_like"] is False
        assert other["period"] is None


# ---------------------------------------------------------------------------
# the search's prefilter drops no product
# ---------------------------------------------------------------------------


def _pinned_siladic():
    pins = {"x1": mono(a=1), "x3": mono(b=1), "x0": mono(a=1, b=1)}
    return relabel_colours(build_preset("siladic-dilated-free"), {}, pins,
                           "siladic-dilated-free-pinned")


@pytest.mark.parametrize("system, qmax", [
    (build_preset("schur-dilated-mod3"), 18),
    (_pinned_siladic(), 24),
], ids=["schur-dilated-mod3", "siladic-pinned"])
def test_every_candidate_pattern_is_the_recognizers(system, qmax, monkeypatch):
    # each candidate, kept or dropped by the early-window prefilter, carries
    # exactly what recognizing its substituted series on the whole window gives
    seen = []

    def spy(table, *args):
        seen.append((table, _survivors(table, *args)))
        return seen[-1][1]

    monkeypatch.setattr(discovery, "_survivors", spy)
    base = enumerate_series(system, qmax)
    cands = search_relations(system, ["a", "b"], qmax, max_exponent=2)
    # the filter reads the full table's early rows, and keeps what it would
    # keep from the full table
    [(table, kept)] = seen
    full = euler_factorize(base)
    assert table == [t for t in full if t[1] <= _early_window(qmax)]
    assert len(table) < len(full)
    free = sorted(set(system.variables()) - {"a", "b"})
    assert kept == _survivors(full, free, ["a", "b"], 2, qmax)
    assert len(cands) == 9 ** len(cands[0].substitution)
    for cand in cands:
        sub = SubstitutionMap(1, {v: (m, 0) for v, m in cand.substitution})
        expected = recognize_periodic_product(substitute(base, sub, qmax))
        got = cand.pattern
        assert (got and got.to_json()) == (expected and expected.to_json())


# ---------------------------------------------------------------------------
# the invariant filter keeps every substitution that relabelling keeps
# ---------------------------------------------------------------------------


def _relabel_kept(table, free, prims, max_exponent, qmax):
    """The substitutions whose relabelled early rows admit a period."""
    window = _early_window(qmax)
    plain = [(m.items, n, e) for m, n, e in table]
    vecs = list(itertools.product(range(max_exponent + 1), repeat=len(prims)))
    kept = set()
    for images in itertools.product(vecs, repeat=len(free)):
        sub = {v: key_of(dict(zip(prims, vec))) for v, vec in zip(free, images)}
        if row_periods(relabel_rows(plain, sub, window), qmax, window):
            kept.add(images)
    return kept


def test_filter_keeps_what_relabelling_keeps_on_random_systems():
    rng = random.Random(7321)
    checked = nonempty = 0
    for index in range(120):
        system = random_system(rng, index)
        if system is None or system.has_zero_parts:
            continue  # the search needs a unit constant term
        pool = system.variables() + ["z"]  # z: a primary the system lacks
        prims = rng.sample(pool, rng.randrange(1, min(3, len(pool)) + 1))
        free = sorted(set(system.variables()) - set(prims))
        max_exponent = rng.randrange(3)
        qmax = rng.randrange(6, 25)
        table = euler_factorize(dp_series(system, qmax))
        kept = _relabel_kept(table, free, prims, max_exponent, qmax)
        assert kept <= _survivors(table, free, prims, max_exponent, qmax), \
            (system.to_json(), prims, max_exponent, qmax)
        checked += 1
        nonempty += bool(kept)
    assert checked >= 50 and nonempty >= 20, (checked, nonempty)


def _planted_table(rng, prims, free, max_exponent, qmax):
    """A random Euler table that one random substitution, returned with it,
    relabels into rows repeating with a random (period, initial) pair.

    Each row entry is written back as one to three factors whose free
    variables carry part of its primary exponents, and some rows gain a
    pair of factors that cancel once relabelled, under a key of their own
    or under one that is already there.
    """
    window = _early_window(qmax)
    m = rng.randrange(1, qmax // 3 + 1)
    s = rng.randrange(m + 1)
    images = tuple(tuple(rng.randrange(max_exponent + 1) for _ in prims)
                   for _ in free)

    def preimage(y, acc):
        left = list(acc)
        exps = {"y": y}
        for i in rng.sample(range(len(free)), len(free)):
            most = min((left[j] // c for j, c in enumerate(images[i]) if c),
                       default=1)
            k = rng.randrange(most + 1)
            exps[free[i]] = k
            left = [x - k * c for x, c in zip(left, images[i])]
        exps.update(zip(prims, left))
        return Monomial.from_dict({v: k for v, k in exps.items() if k})

    rows = [{} for _ in range(window + 1)]
    table = []
    for n in range(1, window + 1):
        if n > s + m:
            rows[n] = rows[n - m]
        else:
            rows[n] = {(rng.randrange(2), tuple(rng.randrange(3) for _ in prims)):
                       rng.choice((-2, -1, 1, 2)) for _ in range(rng.randrange(4))}
        for (y, acc), e in rows[n].items():
            part = rng.choice((0, e))
            table += [(preimage(y, acc), n, part), (preimage(y, acc), n, e - part)]
        if rng.random() < 0.5:
            key = (rng.choice((0, 1, 2)), tuple(rng.randrange(3) for _ in prims))
            e = rng.choice((-1, 1))
            table += [(preimage(*key), n, e), (preimage(*key), n, -e)]
    return [(mono, n, e) for mono, n, e in table if e], images


def test_filter_keeps_what_relabelling_keeps_on_planted_tables():
    rng = random.Random(6007)
    for _ in range(150):
        prims = rng.sample(["a", "b", "c"], rng.randrange(1, 3))
        free = ["x0", "x1", "x2"][:rng.randrange(4 - len(prims))]
        max_exponent = rng.randrange(3)
        qmax = rng.randrange(6, 25)
        table, images = _planted_table(rng, prims, free, max_exponent, qmax)
        kept = _relabel_kept(table, free, prims, max_exponent, qmax)
        assert images in kept
        assert kept <= _survivors(table, free, prims, max_exponent, qmax), \
            (table, prims, free, max_exponent, qmax)


def test_filter_drops_an_other_key_whose_entries_cancel():
    # at q^7, the last degree every (period, initial) pair of q9 compares,
    # x*z and a*z cancel once x -> a, leaving the z key out of that row; the
    # y factors repeat at every degree
    table = [(mono(y=1), n, 1) for n in range(1, 10)]
    table += [(mono(x=1, z=1), 7, 1), (mono(a=1, z=1), 7, -1)]
    kept = _relabel_kept(table, ["x"], ["a"], 2, 9)
    assert kept == {((1,),)}
    assert _survivors(table, ["x"], ["a"], 2, 9) == kept


@pytest.mark.parametrize("system, qmax, survivors", [
    (build_preset("schur-dilated-mod3"), 18, 1),
    (_pinned_siladic(), 24, 1),
], ids=["schur-dilated-mod3", "siladic-pinned"])
def test_filter_keeps_as_few_as_relabelling(system, qmax, survivors):
    free = sorted(set(system.variables()) - {"a", "b"})
    table = euler_factorize(enumerate_series(system, qmax))
    kept = _relabel_kept(table, free, ["a", "b"], 2, qmax)
    assert len(kept) == survivors
    assert _survivors(table, free, ["a", "b"], 2, qmax) == kept


# ---------------------------------------------------------------------------
# the search factorizes only the early window, and loses nothing by it
# ---------------------------------------------------------------------------


def test_early_table_is_the_full_tables_prefix_on_random_systems():
    # a factor step at degree n writes no bucket below n, so the table of
    # the truncated series is the full table's entries up to the window
    rng = random.Random(4409)
    checked = cut = 0
    for index in range(80):
        system = random_system(rng, index)
        if system is None or system.has_zero_parts:
            continue  # the search needs a unit constant term
        pool = system.variables() + ["z"]
        prims = rng.sample(pool, rng.randrange(1, min(3, len(pool)) + 1))
        free = sorted(set(system.variables()) - set(prims))
        max_exponent = rng.randrange(3)
        qmax = rng.randrange(3, 25)
        window = _early_window(qmax)
        for degmax in (None, rng.randrange(1, qmax + 1)):
            f = dp_series(system, qmax, degmax)
            full = euler_factorize(f)
            early = euler_factorize(f.truncate(window))
            assert early == [t for t in full if t[1] <= window], \
                (system.to_json(), qmax, degmax)
            assert _survivors(early, free, prims, max_exponent, qmax) == \
                _survivors(full, free, prims, max_exponent, qmax)
            checked += 1
            cut += len(early) < len(full)
    assert checked >= 60 and cut >= 40, (checked, cut)
