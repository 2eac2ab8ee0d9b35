"""Tests for the recurrence engine and the equation checker."""

import dataclasses

import pytest

import oracles
from wwords import (
    ColourDef,
    ColouredPart,
    ColouredSystem,
    EquationRangeError,
    EquationSpec,
    MatrixGap,
    Monomial,
    Polynomial,
    RankRule,
    RecurrenceError,
    RecurrenceState,
    SizeDomain,
    SystemSpecError,
    TruncatedSeries,
    build_preset,
    builtin_equation,
    builtin_equations,
    check_equation,
    dp_series,
    enumerate_series,
)

from helpers import constant, series as series_of
from wwords import recurrence


def P(size, colour, over=False):
    return ColouredPart(size, colour, over)


def mono(**vars_):
    return Monomial.from_dict(vars_)


# ---------------------------------------------------------------------------
# the two engines agree on every preset
# ---------------------------------------------------------------------------


AGREEMENT_CASES = [
    ("schur-weighted", 20, None),
    ("schur-dilated-mod3", 20, None),
    ("schur-companion", 20, None),
    ("siladic-weighted", 20, None),
    ("siladic-weighted-convB", 20, None),
    ("siladic-dilated", 20, None),
    ("siladic-dilated-free", 20, None),
    ("primc-weighted", 20, None),
    ("primc-dilated", 20, None),
    ("distinct-odd", 24, None),
    ("distinct-mod3", 24, None),
    ("distinct-mod4", 24, None),
    ("andrews-overpartitions(1)", 10, 8),
    ("andrews-overpartitions(2)", 10, 6),
    ("andrews-overpartitions(3)", 12, 5),
    ("primary-overpartitions(1)", 10, 8),
    ("primary-overpartitions(2)", 10, 6),
    ("primary-overpartitions(3)", 12, 5),
]


@pytest.mark.parametrize("name,qmax,degmax", AGREEMENT_CASES)
def test_dp_matches_enumeration(name, qmax, degmax):
    # the largest-part tables, the smallest-part tables and enumeration
    sys = build_preset(name)
    largest = RecurrenceState(sys, qmax, degmax).total_series()
    assert largest == dp_series(sys, qmax, degmax) == enumerate_series(
        sys, qmax, degmax)


@pytest.mark.parametrize("name,qmax,degmax", [
    ("schur-weighted", 14, None),
    ("siladic-weighted", 14, None),
    ("primc-dilated", 16, None),
    ("distinct-odd", 20, None),
    ("andrews-overpartitions(2)", 8, 6),
    ("primary-overpartitions(2)", 8, 6),
])
def test_both_directions_agree(name, qmax, degmax):
    sys = build_preset(name)
    largest = RecurrenceState(sys, qmax, degmax, direction="largest")
    smallest = RecurrenceState(sys, qmax, degmax, direction="smallest")
    assert largest.total_series() == smallest.total_series()


def test_two_colour_series_prefix():
    series = dp_series(build_preset("schur-weighted"), 2)
    a, b, ab = mono(a=1), mono(b=1), mono(a=1, b=1)
    assert series.coefficient(0) == Polynomial({Monomial.one(): 1})
    assert series.coefficient(1) == Polynomial({a: 1, b: 1})
    assert series.coefficient(2) == Polynomial({a: 1, b: 1, ab: 1})


def test_dilated_four_colour_counts_are_partition_numbers():
    series = dp_series(build_preset("primc-dilated"), 10)
    ones = series.specialize({"a": 1, "c": 1, "d": 1})
    expected = oracles.partition_numbers(10)
    got = [constant(ones.coefficient(n)) for n in range(11)]
    assert got == expected


def test_qmax_zero_gives_constant_one():
    for name in ("schur-weighted", "siladic-weighted", "distinct-odd"):
        series = dp_series(build_preset(name), 0)
        assert series == TruncatedSeries.one(0)


def test_invalid_direction_rejected():
    with pytest.raises(ValueError, match="direction"):
        RecurrenceState(build_preset("schur-weighted"), 4, direction="sideways")


def test_degmax_required_for_size_zero_parts():
    with pytest.raises(SystemSpecError, match="degmax"):
        dp_series(build_preset("andrews-overpartitions(1)"), 4)


# ---------------------------------------------------------------------------
# state lookups
# ---------------------------------------------------------------------------


def test_state_initial_values():
    state = RecurrenceState(build_preset("schur-weighted"), 8)
    for colour in ("a", "b", "ab"):
        assert state.G(0, colour) == TruncatedSeries.one(8)
        assert state.G(-1, colour) == TruncatedSeries.zero(8)
        assert state.E(0, colour) == TruncatedSeries.zero(8)
        assert state.E(-3, colour) == TruncatedSeries.zero(8)


def test_state_E_matches_chains_grouped_by_largest_part():
    from wwords import list_partitions

    sys = build_preset("schur-weighted")
    qmax = 8
    state = RecurrenceState(sys, qmax)
    buckets = {}
    for n in range(qmax + 1):
        for chain in list_partitions(sys, n):
            if not chain:
                continue
            largest = max(chain, key=sys.part_key)
            w = Monomial.one()
            for p in chain:
                w = w * sys.part_weight(p)
            poly = buckets.setdefault(largest, {}).setdefault(n, {})
            poly[w] = poly.get(w, 0) + 1
    for p in sys.parts_up_to(qmax):
        expected = series_of(buckets.get(p, {}), qmax)
        assert state.E(p.size, p.colour, p.over) == expected


def test_state_G_is_prefix_sum_and_total():
    sys = build_preset("schur-weighted")
    state = RecurrenceState(sys, 12)
    # the highest-ranked colour at the truncation order bounds everything
    assert state.G(12, "b") == state.total_series()
    # G k_a counts exactly the chains below rank(k_a)
    g2a = state.G(2, "a")
    total = TruncatedSeries.one(12)
    for p in sys.parts_up_to(12):
        if sys.part_key(p) <= sys.part_key(P(2, "a")):
            total = total + state.E(p.size, p.colour, p.over)
    assert g2a == total


def test_state_limits_are_monotone():
    state = RecurrenceState(build_preset("siladic-weighted"), 16)
    # b has the highest rank among equal sizes, so G at k_b is the series of
    # chains with all parts of size <= k: growing k only adds information
    # beyond q^k
    small, large = state.G(8, "b"), state.G(13, "b")
    for n in range(9):
        assert small.coefficient(n) == large.coefficient(n)
    for n in range(14):
        assert large.coefficient(n) == state.total_series().coefficient(n)
    # and coefficients only grow with k
    diff = large - small
    for n in range(17):
        assert all(c > 0 for c in diff.coefficient(n).terms.values())


def test_state_unknown_colour_rejected():
    state = RecurrenceState(build_preset("schur-weighted"), 6)
    with pytest.raises(SystemSpecError):
        state.G(3, "zz")
    with pytest.raises(SystemSpecError):
        state.E(3, "zz")


def test_smallest_direction_state_has_no_part_lookups():
    state = RecurrenceState(build_preset("schur-weighted"), 6,
                            direction="smallest")
    with pytest.raises(RecurrenceError, match="largest"):
        state.G(3, "a")


def test_rank_inconsistency_detected():
    # colour u allows colour-v parts one size above it directly below itself,
    # though v parts rank above u parts: neither part order could process
    # the system, so it is refused when it is built
    with pytest.raises(SystemSpecError, match="2_v may sit directly below 1_u"):
        ColouredSystem(
            name="bad",
            colours=(
                ColourDef("u", Monomial.var("u"), SizeDomain(1)),
                ColourDef("v", Monomial.var("v"), SizeDomain(1)),
            ),
            gap=MatrixGap({"u": {"u": 1, "v": -1}, "v": {"u": 2, "v": 1}}),
            rank_rule=RankRule(2, {"u": 0, "v": 1}),
        )


# ---------------------------------------------------------------------------
# the documented equations
# ---------------------------------------------------------------------------


def test_builtin_registry():
    eqs = builtin_equations()
    assert len(eqs) == 13
    assert len({eq.name for eq in eqs}) == 13
    assert builtin_equation("schur-rec-a").system == "schur-weighted"
    with pytest.raises(RecurrenceError, match="unknown equation"):
        builtin_equation("nope")


@pytest.fixture(scope="module")
def states():
    cache = {}
    for eq in builtin_equations():
        if eq.system not in cache:
            sys = build_preset(eq.system)
            cache[eq.system] = (sys, RecurrenceState(sys, 26))
    return cache


@pytest.mark.parametrize("name", [eq.name for eq in builtin_equations()])
def test_builtin_equation_holds(name, states):
    eq = builtin_equation(name)
    sys, state = states[eq.system]
    report = check_equation(eq, sys=sys, qmax=26, state=state)
    assert report.holds, report.failures
    assert report.to_json()["holds"] is True


@pytest.mark.parametrize("degmax", [2, 5])
def test_builtin_equations_hold_under_a_degree_cap(degmax):
    # primc's erased b leaves the part weights, so a cap below qmax counts
    # the same degree in every G and E (primc-eg and primc-qdiff once failed)
    states = {}
    for eq in builtin_equations():
        if eq.system not in states:
            states[eq.system] = RecurrenceState(build_preset(eq.system), 14, degmax)
        state = states[eq.system]
        report = check_equation(eq, sys=state.sys, qmax=14, degmax=degmax,
                                state=state)
        assert report.holds, (eq.name, report.failures)


def test_two_colour_recurrences_hold_to_high_order():
    sys = build_preset("schur-weighted")
    state = RecurrenceState(sys, 40)
    for name in ("schur-rec-a", "schur-rec-b", "schur-rec-ab"):
        eq = builtin_equation(name)
        report = check_equation(eq, sys=sys, kmax=15, qmax=40, state=state)
        assert report.holds, report.failures


def test_equation_ranges_are_tight():
    # one step below the declared k range, each of these genuinely fails
    for name in ("schur-rec-ab", "siladic-sigma-ab-odd", "siladic-sigma-a2",
                 "primc-eg"):
        eq = builtin_equation(name)
        below = dataclasses.replace(eq, kmin=eq.kmin - 1,
                                    kmax_default=eq.kmin - 1)
        report = check_equation(below, qmax=16)
        assert not report.holds
        assert report.failures[0]["k"] == eq.kmin - 1


def test_qdifference_denominator_vanishes_below_range():
    eq = builtin_equation("primc-qdiff")
    below = dataclasses.replace(eq, kmin=2, kmax_default=2)
    with pytest.raises(EquationRangeError, match="restrict the k range"):
        check_equation(below, qmax=10)


def test_checking_below_declared_kmin_is_rejected():
    eq = builtin_equation("primc-eg")
    with pytest.raises(EquationRangeError, match="k >= 2"):
        check_equation(eq, kmax=1, qmax=8)


def test_equation_report_structure():
    eq = builtin_equation("schur-initial-one")
    report = check_equation(eq, qmax=6)
    data = report.to_json()
    assert data["name"] == "schur-initial-one"
    assert data["system"] == "schur-weighted"
    assert data["k_range"] == [0, 0]
    assert data["qmax"] == 6
    assert data["holds"] is True
    assert data["failures"] == []


@pytest.mark.parametrize("system,qmax,degmax", [
    ("schur-weighted", 20, None),
    ("schur-weighted", 8, 4),
    ("primc-weighted", 8, None),
])
def test_state_built_for_another_check_rejected(system, qmax, degmax):
    # a report must not claim an order, cap or system its state never saw
    state = RecurrenceState(build_preset("schur-weighted"), 8)
    with pytest.raises(RecurrenceError, match="state was built for"):
        check_equation(builtin_equation("schur-rec-a"), build_preset(system),
                       kmax=3, qmax=qmax, degmax=degmax, state=state)


def test_failing_equation_reports_first_mismatch():
    eq = builtin_equation("schur-rec-a")
    # swap the colours on the right-hand side: wrong at once
    broken = dataclasses.replace(
        eq, rhs=(eq.rhs[0],
                 dataclasses.replace(eq.rhs[1], colour="b")))
    report = check_equation(broken, kmax=3, qmax=12)
    assert not report.holds
    first = report.failures[0]
    assert set(first) >= {"k", "first_mismatch_exponent",
                          "lhs_coefficient", "rhs_coefficient"}


def _unstopped(monkeypatch):
    """Make check_equation run every k from kmin up to kmax: neither the
    stop above nor the one below is found."""
    monkeypatch.setattr(recurrence, "_settled_k",
                        lambda spec, state, start, sign: None)


def test_stop_past_settled_terms_keeps_every_report(monkeypatch):
    # past the k where no term changes, every k repeats the verdict, so the
    # check stops there; the report, the requested range included, is the
    # one every k up to kmax gives
    states = {}
    stopped = {}
    for eq in builtin_equations():
        if eq.system not in states:
            states[eq.system] = RecurrenceState(build_preset(eq.system), 12)
        state = states[eq.system]
        for kmax in (eq.kmax_default, eq.kmax_default + 10):
            report = check_equation(eq, state.sys, kmax, 12, state=state)
            assert report.holds and report.kmax == kmax, eq.name
            stopped[eq.name, kmax] = report.to_json()
    assert len(stopped) == 26
    _unstopped(monkeypatch)
    for (name, kmax), report in stopped.items():
        eq = builtin_equation(name)
        state = states[eq.system]
        assert check_equation(eq, state.sys, kmax, 12,
                              state=state).to_json() == report, name


def test_stop_below_settled_terms_keeps_every_report(monkeypatch):
    # below the k under which no term changes, every k repeats kmin's
    # verdict: a holding one is not checked again, and the report (or the
    # error raised at kmin) is the one every k from kmin gives
    lowered = [dataclasses.replace(eq, kmin=-40) for eq in builtin_equations()]
    states = {eq.system: RecurrenceState(build_preset(eq.system), 12)
              for eq in lowered}
    failures_at, checked = recurrence._failures, {}

    def counted(spec, state, k):
        checked.setdefault(spec.name, []).append(k)
        return failures_at(spec, state, k)

    monkeypatch.setattr(recurrence, "_failures", counted)

    def outcomes():
        out = {}
        for eq in lowered:
            state = states[eq.system]
            try:
                out[eq.name] = check_equation(eq, state.sys, None, 12,
                                              state=state).to_json()
            except EquationRangeError as e:
                out[eq.name] = str(e)
        return out

    stopped = outcomes()
    skipping = {name for name, ks in checked.items()
                if len(ks) > 1 and ks[1] > ks[0] + 1}
    # among them equations that hold and ones that fail above the stop
    assert {stopped[name]["holds"] for name in skipping} == {True, False}
    assert sum(isinstance(o, str) for o in stopped.values()) == 6
    _unstopped(monkeypatch)
    assert outcomes() == stopped


def test_failures_end_where_the_terms_settle(monkeypatch):
    # one more 1 on the right-hand side: wrong at every k
    eq = builtin_equation("schur-rec-a")
    broken = dataclasses.replace(eq, rhs=eq.rhs + (recurrence.EqTerm("const"),))
    state = RecurrenceState(build_preset("schur-weighted"), 10)
    settled = recurrence._settled_k(broken, state, broken.kmin, 1)
    stopped = check_equation(broken, kmax=40, qmax=10, state=state).failures
    assert stopped[-1]["k"] == settled < 40
    _unstopped(monkeypatch)
    every = check_equation(broken, kmax=40, qmax=10, state=state).failures
    assert every[:len(stopped)] == stopped
    assert every[len(stopped):] == [{**stopped[-1], "k": k}
                                    for k in range(settled + 1, 41)]


def test_huge_kmax_stops_or_raises_at_a_small_k():
    eq = dataclasses.replace(builtin_equation("schur-rec-a"),
                             kmax_default=10 ** 12)
    report = check_equation(eq, qmax=4)
    assert report.holds and report.to_json()["k_range"] == [1, 10 ** 12]
    # a form with alpha < 0 never settles: it turns negative at k = 6
    falling = dataclasses.replace(
        eq, rhs=(eq.rhs[0], dataclasses.replace(
            eq.rhs[1], poly=((1, (("a", 1),), (-1, 5)),))))
    with pytest.raises(EquationRangeError, match="at k=6"):
        check_equation(falling, qmax=4)


def test_equation_json_round_trip():
    for eq in builtin_equations():
        data = eq.to_json()
        back = EquationSpec.from_json(data)
        assert back.to_json() == data
        report = check_equation(back, kmax=max(back.kmin, 2), qmax=10)
        assert report.holds


def test_colour_family_equations_cover_all_colours():
    eq = builtin_equation("schur-initial-one")
    assert set(eq.colours) == {"a", "b", "ab"}
    eq = builtin_equation("schur-initial-zero")
    assert set(eq.colours) == {"a", "b", "ab"}
