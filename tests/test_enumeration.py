"""Tests for the direct-enumeration engine."""

import random

import pytest

import oracles
from wwords import (
    ColourDef,
    ColouredPart,
    ColouredSystem,
    MatrixGap,
    Monomial,
    RankRule,
    SizeDomain,
    SystemSpecError,
    build_preset,
    check_statistics,
    dp_series,
    identity_case,
    search_relations,
    statistic_substitution,
    substitute,
    verify_identity,
)
from wwords.enumeration import (
    EnumerationLimitError,
    count_partitions,
    enumerate_series,
    is_valid_partition,
    list_partitions,
    partition_weight,
    partitions_by_size,
)
from wwords.systems import DILATED_PRESETS

from helpers import constant, poly, random_system


def P(size, colour, over=False):
    return ColouredPart(size, colour, over)


def to_key_dicts(series):
    """Convert package coefficients to the oracle's plain-dict form."""
    return [{m.items: c for m, c in series.coefficient(n).terms.items()}
            for n in range(series.qmax + 1)]


# ---------------------------------------------------------------------------
# counting systems against independent recursions
# ---------------------------------------------------------------------------


def test_distinct_odd_counts_match_oracle():
    sys = build_preset("distinct-odd")
    series = enumerate_series(sys, 30)
    got = [constant(series.coefficient(n)) for n in range(31)]
    assert got == oracles.distinct_odd_counts(30)


def test_count_partitions_matches_series():
    sys = build_preset("distinct-mod3")
    counts = count_partitions(sys, 20)
    series = enumerate_series(sys, 20).specialize({"a": 1, "b": 1})
    assert counts == [constant(series.coefficient(n)) for n in range(21)]


# ---------------------------------------------------------------------------
# two-colour distinct-part system against a brute-force oracle
# ---------------------------------------------------------------------------


def test_two_colour_system_matches_brute_force():
    qmax = 10
    sys = build_preset("schur-weighted")

    order = {"ab": 0, "a": 1, "b": 2}
    parts = [(s, c) for s in range(1, qmax + 1) for c in ("ab", "a", "b")
             if not (c == "ab" and s < 2)]

    def allowed(upper, lower):
        need = 2 if (upper[1] == "ab" or order[upper[1]] < order[lower[1]]) else 1
        return upper[0] - lower[0] >= need

    def vars_of(p):
        return {"a": 1, "b": 1} if p[1] == "ab" else {p[1]: 1}

    chains = oracles.brute_force_partitions(qmax, parts, lambda p: p[0], allowed)
    expected = oracles.series_from_chains(chains, qmax, lambda p: p[0], vars_of)
    got = to_key_dicts(enumerate_series(sys, qmax))
    assert got == expected


# ---------------------------------------------------------------------------
# frozen small coefficients, derived by hand from the difference rules
# ---------------------------------------------------------------------------


def test_free_colour_mod3_prefix():
    # 1 + a q + b q^2 + c q^3 + a q^4 + (a^2 + b) q^5
    series = enumerate_series(build_preset("schur-dilated-mod3"), 5)
    expected = [
        poly({"1": 1}),
        poly({"a": 1}),
        poly({"b": 1}),
        poly({"c": 1}),
        poly({"a": 1}),
        poly({"b": 1, "a^2": 1}),
    ]
    for n, want in enumerate(expected):
        assert series.coefficient(n) == want, f"q^{n}"


def test_five_colour_weighted_small_coefficients():
    series = enumerate_series(build_preset("siladic-weighted"), 4)
    assert series.coefficient(0) == poly({"1": 1})
    assert series.coefficient(1) == poly({"a": 1, "b": 1})
    assert series.coefficient(2) == poly({"a": 1, "b": 1, "a*b": 1})
    assert series.coefficient(3) == poly(
        {"a": 1, "b": 1, "a*b": 2, "a^2": 1, "b^2": 1})
    assert series.coefficient(4) == poly(
        {"a": 1, "b": 1, "a*b": 3, "a^2": 1, "b^2": 1, "a^2*b": 1, "a*b^2": 1})


def test_five_colour_conventions_differ_at_q1():
    convA = enumerate_series(build_preset("siladic-weighted"), 2)
    convB = enumerate_series(build_preset("siladic-weighted-convB"), 2)
    assert convA.coefficient(1) == poly({"a": 1, "b": 1})
    assert convB.coefficient(1) == poly({"a": 1})


def test_five_colour_weighted_matches_its_product():
    # sum over partitions == (-aq; q)(-bq; q), checked through q^10
    qmax = 10
    factors = [
        {"sign": -1, "vars": {"a": 1}, "start": 1, "mod": 1, "power": -1},
        {"sign": -1, "vars": {"b": 1}, "start": 1, "mod": 1, "power": -1},
    ]
    expected = oracles.expand_product(factors, qmax)
    got = to_key_dicts(enumerate_series(build_preset("siladic-weighted"), qmax))
    assert got == expected


def test_four_colour_weighted_small_coefficients():
    # variable b is erased on output
    series = enumerate_series(build_preset("primc-weighted"), 2)
    assert series.coefficient(0) == poly({"1": 1})
    assert series.coefficient(1) == poly({"1": 1, "a": 1, "c": 1, "d": 1})
    expected2 = poly({"1": 2, "a": 1, "c": 1, "d": 1,
                      "a*c": 1, "a*d": 1, "c^2": 1, "c*d": 1})
    assert series.coefficient(2) == expected2


def test_overpartition_zero_size_parts_need_degmax():
    sys = build_preset("andrews-overpartitions(1)")
    with pytest.raises(SystemSpecError, match="degmax"):
        enumerate_series(sys, 4)


def test_overpartition_q0_coefficient():
    # chains of size-0 parts: any run of plain copies, at most one overlined
    # copy in front; plain parts carry the marker t
    sys = build_preset("andrews-overpartitions(1)")
    series = enumerate_series(sys, 2, degmax=6)
    want = poly({Monomial(k): v for k, v in {
        (): 1,
        (("t", 1), ("u1", 1)): 1,
        (("t", 2), ("u1", 2)): 1,
        (("t", 3), ("u1", 3)): 1,
        (("u1", 1),): 1,
        (("t", 1), ("u1", 2)): 1,
        (("t", 2), ("u1", 3)): 1,
    }.items()})
    assert series.coefficient(0) == want


# ---------------------------------------------------------------------------
# dilation commutes with enumeration (series-level substitution)
# ---------------------------------------------------------------------------


def test_dilation_commutes_for_five_colour_system():
    qmax = 12
    weighted = enumerate_series(build_preset("siladic-weighted"), qmax)
    sub = statistic_substitution(DILATED_PRESETS["siladic-dilated"][1])
    dilated_via_sub = substitute(weighted, sub, qmax)
    dilated_direct = enumerate_series(build_preset("siladic-dilated"), qmax)
    assert dilated_via_sub == dilated_direct


def test_dilation_commutes_for_four_colour_system():
    qmax = 12
    # erasure must happen after the q-shift, so rebuild the unerased series
    weighted = enumerate_series(
        build_preset("primc-weighted"), qmax)  # b already erased: shift of b is 0
    sub = statistic_substitution(DILATED_PRESETS["primc-dilated"][1])
    dilated_via_sub = substitute(weighted, sub, qmax)
    dilated_direct = enumerate_series(build_preset("primc-dilated"), qmax)
    assert dilated_via_sub == dilated_direct


# ---------------------------------------------------------------------------
# partition listings and validity diagnostics
# ---------------------------------------------------------------------------


def test_list_partitions_two_colour_n5():
    sys = build_preset("schur-weighted")
    parts5 = list_partitions(sys, 5)
    assert len(parts5) == 14
    keys = [[sys.part_key(p) for p in ch] for ch in parts5]
    assert keys == sorted(keys)
    assert len(set(map(tuple, parts5))) == 14
    for ch in parts5:
        ok, reason = is_valid_partition(sys, ch)
        assert ok, reason
    count = enumerate_series(sys, 5).specialize({"a": 1, "b": 1})
    assert constant(count.coefficient(5)) == 14


def test_list_partitions_of_zero():
    sys = build_preset("schur-weighted")
    assert list_partitions(sys, 0) == [()]


@pytest.mark.parametrize("preset,r,n,degmax", [
    ("siladic-weighted", None, 7, None),
    ("primc-weighted", None, 6, None),
    ("andrews-overpartitions", 2, 3, 6),
    ("primary-overpartitions", 2, 3, 6),
    ("schur-weighted", None, 8, None),
    ("andrews-overpartitions", 2, 6, 4),
])
def test_listed_partitions_are_valid(preset, r, n, degmax):
    sys = build_preset(f"{preset}({r})" if r else preset)
    # each size's listing is partitions_by_size's entry at that size
    by_size = partitions_by_size(sys, n, degmax)
    assert [list_partitions(sys, k, degmax) for k in range(n + 1)] == by_size
    listed = list_partitions(sys, n, degmax=degmax)
    assert listed, "expected at least one partition"
    for ch in listed:
        ok, reason = is_valid_partition(sys, ch)
        assert ok, reason


def test_validity_diagnostics():
    sys = build_preset("siladic-weighted")
    ok, reason = is_valid_partition(sys, [P(5, "a"), P(3, "ab"), (1, "a")])
    assert ok and reason == ""

    ok, reason = is_valid_partition(sys, [P(5, "a"), P(4, "a")])
    assert not ok and "difference 1" in reason and "required 2" in reason

    ok, reason = is_valid_partition(sys, [P(5, "a"), P(1, "ab")])
    assert not ok and "forbidden" in reason

    ok, reason = is_valid_partition(sys, [P(4, "a2")])
    assert not ok and "domain" in reason

    ok, reason = is_valid_partition(sys, [P(4, "zz")])
    assert not ok and "unknown colour" in reason


def test_partition_weight_helper():
    sys = build_preset("andrews-overpartitions(2)")
    w, total = partition_weight(sys, [P(3, "u1u2", True), P(2, "u1")])
    assert total == 5
    assert w == Monomial.from_dict({"u1": 2, "u2": 1, "t": 1})


# ---------------------------------------------------------------------------
# budget controls
# ---------------------------------------------------------------------------


def test_node_budget_via_environment(monkeypatch):
    sys = build_preset("schur-weighted")
    monkeypatch.setenv("WWORDS_MAX_NODES", "5")
    with pytest.raises(EnumerationLimitError, match="WWORDS_MAX_NODES"):
        enumerate_series(sys, 10)
    monkeypatch.setenv("WWORDS_MAX_NODES", "100000")
    enumerate_series(sys, 10)  # plenty now


@pytest.mark.parametrize("walk", [
    lambda: verify_identity("theorem-2", qmax=10, engines=("enum",)),
    lambda: check_statistics("theorem-4"),
    lambda: search_relations(build_preset("schur-dilated-mod3"), ["a", "b"],
                             18),
], ids=["verify", "statistics", "search"])
def test_node_budget_reaches_every_walk(monkeypatch, walk):
    monkeypatch.setenv("WWORDS_MAX_NODES", "5")
    with pytest.raises(EnumerationLimitError, match="exceeded 5 partitions"):
        walk()


def _nonempty_partitions(preset, qmax, degmax):
    """How many non-empty partitions a walk to qmax visits, by the
    recurrence: every coefficient of the series counts partitions."""
    f = dp_series(build_preset(preset), qmax, degmax)
    return sum(sum(f.coefficient(n).terms.values())
               for n in range(qmax + 1)) - 1


@pytest.mark.parametrize("walk,preset,qmax,degmax", [
    (lambda: enumerate_series(build_preset("schur-weighted"), 10),
     "schur-weighted", 10, None),
    (lambda: count_partitions(build_preset("andrews-overpartitions(2)"), 5, 4),
     "andrews-overpartitions(2)", 5, 4),
    (lambda: list_partitions(build_preset("siladic-weighted"), 8),
     "siladic-weighted", 8, None),
    (lambda: check_statistics("theorem-4"),
     identity_case("theorem-4").side_b, 36, None),
], ids=["enumerate", "count", "list", "statistics"])
def test_node_budget_is_exact(monkeypatch, walk, preset, qmax, degmax):
    # the partitions a state counts without pushing still count
    budget = _nonempty_partitions(preset, qmax, degmax)
    assert budget > 100
    monkeypatch.setenv("WWORDS_MAX_NODES", str(budget))
    walk()
    monkeypatch.setenv("WWORDS_MAX_NODES", str(budget - 1))
    with pytest.raises(EnumerationLimitError,
                       match=f"exceeded {budget - 1} partitions"):
        walk()


def test_walk_depth_is_not_bounded_by_recursion_limit():
    # one colour whose only size up to 1500 is 1, allowed to repeat: the
    # partition 1 + 1 + ... + 1 of n has n parts
    ones = ColouredSystem(
        name="ones", colours=(ColourDef("a", Monomial.one(),
                                        SizeDomain(1, 2000, frozenset({1}))),),
        gap=MatrixGap({"a": {"a": 0}}), rank_rule=RankRule(1, {"a": 0}),
    )
    assert count_partitions(ones, 1500) == [1] * 1501
    series = enumerate_series(ones, 1500)
    assert all(series.coefficient(n) == poly({"1": 1}) for n in range(1501))
    assert list_partitions(ones, 1500) == [(P(1, "a"),) * 1500]
    # size-0 parts of weight a: the depth comes from the degree room alone
    zeros = ColouredSystem(
        name="zeros", colours=(ColourDef("z", Monomial.var("a"),
                                         SizeDomain(0, 2000, frozenset({0}))),),
        gap=MatrixGap({"z": {"z": 0}}), rank_rule=RankRule(1, {"z": 0}),
    )
    assert count_partitions(zeros, 3, degmax=1500) == [1501, 0, 0, 0]
    series = enumerate_series(zeros, 0, degmax=1500)
    assert series.coefficient(0) == poly(
        {Monomial.var("a", k): 1 for k in range(1501)})
    listed = list_partitions(zeros, 0, degmax=1500)
    assert listed == [(P(0, "z"),) * k for k in range(1501)]


# ---------------------------------------------------------------------------
# generated systems against the brute-force oracle
# ---------------------------------------------------------------------------


def _oracle_partitions(sys, qmax, degmax):
    """Every chain of the system's parts that the gap rule allows, by the
    oracle's own search, within qmax and degmax."""
    chains = oracles.brute_force_partitions(
        qmax, sys.parts_up_to(qmax), lambda p: p.size,
        lambda upper, lower: upper.size - lower.size >= sys.min_gap(upper, lower))
    return [ch for ch in chains if degmax is None
            or sum(sys.part_weight(p).degree for p in ch) <= degmax]


def test_walk_matches_brute_force_on_random_systems():
    rng = random.Random(2718)
    checked = {"all": 0, "degmax": 0, "erased": 0, "over": 0}
    for attempt in range(120):
        sys = random_system(rng, attempt)
        if sys is None or sys.has_zero_parts:
            continue
        qmax = rng.randrange(6, 12)

        def vars_of(p, sys=sys):
            return {v: e for v, e in sys.part_weight(p).items
                    if v not in sys.erased_vars}

        for degmax in (None, rng.randrange(1, 6)):
            chains = _oracle_partitions(sys, qmax, degmax)
            case = (sys.to_json(), qmax, degmax)
            assert to_key_dicts(enumerate_series(sys, qmax, degmax)) == (
                oracles.series_from_chains(chains, qmax, lambda p: p.size,
                                           vars_of)), case
            counts = [0] * (qmax + 1)
            for ch in chains:
                counts[sum(p.size for p in ch)] += 1
            assert count_partitions(sys, qmax, degmax) == counts, case
            want = sorted((ch for ch in chains if sum(p.size for p in ch) == qmax),
                          key=lambda ch: [sys.part_key(p) for p in ch])
            assert list_partitions(sys, qmax, degmax) == want, case
            checked["all"] += 1
            checked["degmax"] += degmax is not None
        checked["erased"] += bool(sys.erased_vars)
        checked["over"] += sys.overline_marker is not None
    assert min(checked.values()) >= 3, checked


# ---------------------------------------------------------------------------
# dilated five-colour system counts equal distinct odd parts (spot check)
# ---------------------------------------------------------------------------


def test_dilated_five_colour_counts_match_distinct_odd():
    qmax = 20
    series = enumerate_series(build_preset("siladic-dilated"), qmax)
    counts = [constant(c) for c in map(
        series.specialize({"a": 1, "b": 1}).coefficient, range(qmax + 1))]
    assert counts == oracles.distinct_odd_counts(qmax)
