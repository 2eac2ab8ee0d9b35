"""Tests for coloured-system definitions, presets, orders, gaps, dilation."""

import dataclasses

import pytest

from wwords import (
    ColourDef,
    ColouredPart,
    ColouredSystem,
    DilationSpec,
    MatrixGap,
    Monomial,
    RankRule,
    RecurrenceState,
    SizeDomain,
    SystemSpecError,
    build_preset,
    dilate_system,
    dp_series,
    enumerate_series,
    preset_names,
    statistic_substitution,
    substitute,
)
from wwords.systems import (
    CHECK_WINDOW_LIMIT,
    DILATED_PRESETS,
    andrews_colour_data,
    andrews_colour_label,
)

from helpers import erased_zero_system


def P(size, colour, over=False):
    return ColouredPart(size, colour, over)


# ---------------------------------------------------------------------------
# size domains
# ---------------------------------------------------------------------------


def test_domain_membership_and_listing():
    odd = SizeDomain(3, 2, frozenset({1}))
    assert not odd.contains(1)
    assert odd.contains(3) and odd.contains(11)
    assert not odd.contains(4)
    assert odd.sizes_up_to(10) == [3, 5, 7, 9]

    free = SizeDomain(min_size=1)
    assert free.contains(1) and free.contains(100)
    assert not free.contains(0)
    assert free.sizes_up_to(4) == [1, 2, 3, 4]


def test_domain_dilation_without_modulus():
    free = SizeDomain(min_size=1)
    d = free.dilate(4, -3)
    assert d.modulus == 4 and d.residues == frozenset({1}) and d.min_size == 1
    assert d.sizes_up_to(13) == [1, 5, 9, 13]


def test_domain_dilation_with_modulus():
    odd_from_3 = SizeDomain(3, 2, frozenset({1}))
    d = odd_from_3.dilate(4, -6)
    assert d.modulus == 8 and d.residues == frozenset({6}) and d.min_size == 6
    assert d.sizes_up_to(30) == [6, 14, 22, 30]


def test_domain_validation():
    with pytest.raises(SystemSpecError):
        SizeDomain(1, 0, frozenset({0}))
    with pytest.raises(SystemSpecError):
        SizeDomain(1, 3, frozenset())


# ---------------------------------------------------------------------------
# presets build and serialize
# ---------------------------------------------------------------------------


ALL_FIXED_PRESETS = [
    "schur-weighted", "schur-dilated", "schur-dilated-mod3",
    "siladic-weighted", "siladic-weighted-convB", "siladic-dilated",
    "siladic-dilated-free", "schur-companion", "primc-weighted",
    "primc-dilated", "distinct-odd", "distinct-mod3", "distinct-mod4",
]


@pytest.mark.parametrize("name", ALL_FIXED_PRESETS)
def test_preset_builds_and_round_trips(name):
    sys = build_preset(name)
    assert sys.name.startswith(name.split("(")[0].split("-conv")[0])
    again = ColouredSystem.from_json(sys.to_json())
    assert again == sys


@pytest.mark.parametrize("name,r", [
    ("andrews-overpartitions", 1), ("andrews-overpartitions", 2),
    ("andrews-overpartitions", 3), ("primary-overpartitions", 1),
    ("primary-overpartitions", 2), ("primary-overpartitions", 3),
])
def test_parametric_presets_build(name, r):
    sys = build_preset(f"{name}({r})")
    assert sys.name == f"{name}-r{r}"
    assert sys == ColouredSystem.from_json(sys.to_json())


def test_preset_registry_listing():
    names = preset_names()
    assert "schur-weighted" in names
    assert "andrews-overpartitions(r)" in names
    with pytest.raises(SystemSpecError):
        build_preset("no-such-system")
    with pytest.raises(SystemSpecError):
        build_preset("andrews-overpartitions")  # r missing


@pytest.mark.parametrize("name", ["schur-weighted(5)", "distinct-odd(1)"])
def test_only_parametric_families_take_a_parameter(name):
    with pytest.raises(SystemSpecError, match="takes no parameter"):
        build_preset(name)


# ---------------------------------------------------------------------------
# two-colour distinct-part system: order and gaps
# ---------------------------------------------------------------------------


def test_schur_weighted_order_and_gaps():
    sys = build_preset("schur-weighted")
    # order on coloured integers: 1_ab < 1_a < 1_b < 2_ab < 2_a < 2_b < ...
    assert sys.rank_rule.rank(P(2, "ab")) == 3
    assert sys.rank_rule.rank(P(1, "a")) == 1
    assert sys.rank_rule.rank(P(1, "b")) == 2
    # gap 2 below an ab part and below ascending colour pairs, else 1
    assert sys.min_gap(P(5, "ab"), P(3, "a")) == 2
    assert sys.min_gap(P(5, "a"), P(4, "b")) == 2   # a < b ascending downward
    assert sys.min_gap(P(5, "a"), P(4, "a")) == 1
    assert sys.min_gap(P(5, "b"), P(4, "a")) == 1
    assert sys.min_gap(P(5, "b"), P(4, "ab")) == 1
    # smallest ab part is 2
    assert sys.part_validity(P(1, "ab")) is not None
    assert sys.part_validity(P(2, "ab")) is None


def test_schur_weighted_part_listing_order():
    sys = build_preset("schur-weighted")
    parts = sys.parts_up_to(2)
    assert [(p.size, p.colour) for p in parts] == [
        (1, "a"), (1, "b"), (2, "ab"), (2, "a"), (2, "b")]


# ---------------------------------------------------------------------------
# five-colour system: documented order segment, parity-dependent gaps
# ---------------------------------------------------------------------------


def test_five_colour_order_segment():
    sys = build_preset("siladic-weighted")
    # 1_ab < 1_a < 1_b2 < 1_b < 2_ab < 2_a < 3_a2 < 2_b < 3_ab < 3_a < 3_b2 < 3_b
    expected_ranks = {
        P(1, "ab"): 0, P(1, "a"): 1, P(1, "b2"): 2, P(1, "b"): 3,
        P(2, "ab"): 4, P(2, "a"): 5, P(3, "a2"): 6, P(2, "b"): 7,
        P(3, "ab"): 8, P(3, "a"): 9, P(3, "b2"): 10, P(3, "b"): 11,
    }
    for p, rk in expected_ranks.items():
        assert sys.rank_rule.rank(p) == rk


def test_five_colour_domains_and_conventions():
    sysA = build_preset("siladic-weighted")
    # squared colours live on odd sizes; a2 starts at 3
    assert sysA.part_validity(P(1, "a2")) is not None
    assert sysA.part_validity(P(3, "a2")) is None
    assert sysA.part_validity(P(4, "b2")) is not None
    # convention A: 1_ab and 1_b2 excluded, 1_a and 1_b allowed
    assert sysA.part_validity(P(1, "ab")) is not None
    assert sysA.part_validity(P(1, "b2")) is not None
    assert sysA.part_validity(P(1, "a")) is None
    assert sysA.part_validity(P(1, "b")) is None
    # convention B excludes 1_b as well
    sysB = build_preset("siladic-weighted-convB")
    assert sysB.part_validity(P(1, "b")) is not None
    assert sysB.part_validity(P(1, "a")) is None


def test_five_colour_parity_dependent_gaps():
    sys = build_preset("siladic-weighted")
    # rows are keyed by (colour, size parity): odd a-parts need 1 above ab,
    # even a-parts need 2
    assert sys.min_gap(P(5, "a"), P(4, "ab")) == 1
    assert sys.min_gap(P(4, "a"), P(3, "ab")) == 2
    assert sys.min_gap(P(5, "b"), P(4, "a")) == 1
    assert sys.min_gap(P(7, "b2"), P(3, "b2")) == 4
    assert sys.min_gap(P(3, "a2"), P(1, "a")) == 3
    assert sys.min_gap(P(4, "b"), P(3, "a2")) == 1


def test_part_validity_reasons():
    sys = build_preset("siladic-weighted")
    assert sys.part_validity(P(1, "ab")) is not None
    assert "forbidden" in sys.part_validity(P(1, "ab"))
    assert "domain" in sys.part_validity(P(2, "a2"))
    assert "unknown colour" in sys.part_validity(P(2, "zz"))
    with pytest.raises(SystemSpecError):  # no gap row for an even a2 part
        sys.min_gap(P(2, "a2"), P(1, "a"))


# ---------------------------------------------------------------------------
# dilation
# ---------------------------------------------------------------------------


def test_dilated_five_colour_domains():
    sys = build_preset("siladic-dilated")
    doms = {c.label: c.domain for c in sys.colours}
    assert doms["a"].sizes_up_to(13) == [1, 5, 9, 13]
    assert doms["b"].sizes_up_to(15) == [3, 7, 11, 15]
    assert doms["a2"].sizes_up_to(22) == [6, 14, 22]
    # 0_ab and 2_b2 map from the forbidden small parts
    assert (0, "ab") in sys.forbidden_parts
    assert (2, "b2") in sys.forbidden_parts
    assert sys.part_validity(P(0, "ab")) is not None
    assert sys.part_validity(P(4, "ab")) is None
    assert sys.part_validity(P(2, "b2")) is not None
    assert sys.part_validity(P(10, "b2")) is None
    # every size 3..qmax is covered by exactly one colour class (1,2 excluded
    # parts exist at 1 (colour a) but not 2)
    assert sys.part_validity(P(1, "a")) is None
    assert all(sys.part_validity(P(2, c.label)) is not None
               for c in sys.colours)


def test_dilated_five_colour_rank_is_size_order():
    sys = build_preset("siladic-dilated")
    assert sys.rank_rule.mult == 4
    assert all(off == 0 for off in sys.rank_rule.offsets.values())


def test_dilated_five_colour_gap_entries():
    sys = build_preset("siladic-dilated")
    gap = sys.gap
    assert isinstance(gap, MatrixGap) and gap.class_modulus == 8
    # D'(x,y) = 4 D(x,y) + o_x - o_y with o = (a,b,ab,a2,b2) -> (-3,-1,-4,-6,-2)
    assert gap.rows["a|1"]["a"] == 8       # 4*2 - 3 + 3
    assert gap.rows["a|1"]["ab"] == 5      # 4*1 - 3 + 4
    assert gap.rows["a|5"]["a2"] == 4 * 3 - 3 + 6
    assert gap.rows["b|3"]["a"] == 4 * 1 - 1 + 3
    assert gap.rows["ab|0"]["b2"] == 4 * 3 - 4 + 2
    assert gap.rows["a2|6"]["b"] == 4 * 3 - 6 + 1
    assert gap.rows["b2|2"]["b"] == 4 * 3 - 2 + 1
    assert set(gap.rows) == {"a|1", "a|5", "b|3", "b|7",
                             "ab|0", "ab|4", "a2|6", "b2|2"}
    assert sys.min_gap(P(9, "a"), P(4, "ab")) == 5


def test_companion_dilation_ranks():
    sys = build_preset("schur-companion")
    offs = sys.rank_rule.offsets
    assert sys.rank_rule.mult == 4
    assert offs == {"a": -1, "b": 1, "ab": 0, "a2": -2, "b2": 2}
    # so at equal size: a2 < a < ab < b < b2
    ranks = sorted((sys.rank_rule.rank(P(6, c)), c)
                   for c in ("a", "b", "ab", "a2", "b2"))
    assert [c for _, c in ranks] == ["a2", "a", "ab", "b", "b2"]


def test_four_colour_dilated_matrix_is_exactly_the_documented_one():
    sys = build_preset("primc-dilated")
    assert isinstance(sys.gap, MatrixGap) and sys.gap.class_modulus is None
    assert sys.gap.rows == {
        "a": {"a": 4, "b": 1, "c": 3, "d": 2},
        "b": {"a": 3, "b": 0, "c": 2, "d": 1},
        "c": {"a": 1, "b": 2, "c": 0, "d": 3},
        "d": {"a": 2, "b": 3, "c": 1, "d": 4},
    }


def test_four_colour_dilated_domains_and_order():
    sys = build_preset("primc-dilated")
    doms = {c.label: c.domain for c in sys.colours}
    assert doms["a"].sizes_up_to(5) == [1, 3, 5]   # odd
    assert doms["b"].sizes_up_to(6) == [2, 4, 6]   # even
    assert doms["c"].sizes_up_to(6) == [2, 4, 6]
    assert doms["d"].sizes_up_to(7) == [3, 5, 7]   # odd, no part 1
    assert sys.part_validity(P(1, "d")) is not None
    # displayed order 1_a < 2_b < 2_c < 3_d < 3_a < 4_b < ...
    seq = [P(1, "a"), P(2, "b"), P(2, "c"), P(3, "d"), P(3, "a"), P(4, "b")]
    ranks = [sys.rank_rule.rank(p) for p in seq]
    assert ranks == sorted(ranks) and len(set(ranks)) == len(ranks)


def test_dilation_to_negative_gaps_builds_and_commutes():
    # shifting a by 2 makes gap(b, a) and gap(b, ab) negative; the dilated
    # order still agrees with them, so construction accepts the system
    base = build_preset("schur-weighted")
    d = DilationSpec(1, var_shifts={"a": 2, "b": 0})
    dilated = dilate_system(base, d)
    assert dilated.gap.rows["b"] == {"a": -1, "b": 1, "ab": -1}
    for qmax in (12, 20):
        expected = substitute(enumerate_series(base, qmax),
                              statistic_substitution(d), qmax)
        assert enumerate_series(dilated, qmax) == expected
        assert dp_series(dilated, qmax) == expected


def test_dilation_rejects_negative_sizes():
    base = build_preset("schur-weighted")
    with pytest.raises(SystemSpecError):
        dilate_system(base, DilationSpec(1, var_shifts={"a": -5, "b": 0}))


def test_dilation_rejects_unknown_variables():
    base = build_preset("primc-weighted")
    with pytest.raises(SystemSpecError, match="'t', 'zz'"):
        dilate_system(base, DilationSpec(2, var_shifts={"zz": 3, "a": -1, "t": 1}))


def test_overline_columns_follow_dilation_and_relabelling():
    gap = MatrixGap({"x": {"x": 0, "x~": 1, "y": 2},
                     "y": {"x": 1, "y": 0, "y~": 1}})
    assert gap.min_gap(P(3, "x"), P(1, "x", True)) == 1
    assert gap.min_gap(P(3, "x"), P(1, "y", True)) == 2  # no y~ column: plain
    # an overlined column shifts by its plain colour's offset
    assert gap.dilate(2, {"x": 0, "y": 1}).rows == {
        "x": {"x": 0, "x~": 2, "y": 3}, "y": {"x": 3, "y": 0, "y~": 2}}
    assert gap.relabel({"x": "p"}).rows == {
        "p": {"p": 0, "p~": 1, "y": 2}, "y": {"p": 1, "y": 0, "y~": 1}}
    by_parity = MatrixGap({"x|0": {"x~": 1}}, class_modulus=2)
    assert by_parity.relabel({"x": "p"}).rows == {"p|0": {"p~": 1}}


def test_statistic_substitution_matches_dilation_spec():
    sub = statistic_substitution(DILATED_PRESETS["siladic-dilated"][1])
    assert sub.qpower == 4
    mono, shift = sub.images["a"]
    assert mono == Monomial.var("a") and shift == -3
    mono, shift = sub.images["b"]
    assert mono == Monomial.var("b") and shift == -1


def test_dilated_preset_registry():
    assert DILATED_PRESETS["primc-dilated"][1].modulus == 2
    names = preset_names()
    for name, (source, _) in DILATED_PRESETS.items():
        # each is listed and named, and its source is a weighted preset
        assert name in names and build_preset(name).name == name
        assert source in names and source not in DILATED_PRESETS
    assert "distinct-odd" not in DILATED_PRESETS


# ---------------------------------------------------------------------------
# four-colour weighted system
# ---------------------------------------------------------------------------


def test_four_colour_weighted_gaps_and_marker():
    sys = build_preset("primc-weighted")
    assert sys.gap.rows["b"]["b"] == 0          # repeated b parts allowed
    assert sys.gap.rows["c"]["c"] == 0
    assert sys.gap.rows["d"]["d"] == 2
    assert sys.gap.rows["c"]["a"] == 0          # same size, lower colour a
    assert sys.erased_vars == ("b",)
    assert [v for v in sys.variables()
            if v not in sys.erased_vars] == ["a", "c", "d"]
    assert "b" in sys.variables()


def test_part_weight_leaves_out_erased_variables():
    sys = build_preset("primc-weighted")
    assert sys.part_weight(ColouredPart(3, "b")) == Monomial.one()
    assert sys.part_weight(ColouredPart(3, "a")) == Monomial.var("a")
    assert sys.colour("b").weight == Monomial.var("b")


def test_erased_variables_read_from_json_must_be_carried():
    data = build_preset("primc-weighted").to_json()
    data["erased"] = ["b", "c"]
    assert ColouredSystem.from_json(data).erased_vars == ("b", "c")
    data["erased"] = ["bb"]
    with pytest.raises(ValueError, match=r"\['bb'\] carried by no colour weight"):
        ColouredSystem.from_json(data)


def test_overline_marker_may_not_be_a_weight_variable():
    # the marker multiplies every plain part, so sharing a name with a
    # colour variable would count plain parts into that colour
    sys = build_preset("primary-overpartitions(2)")
    with pytest.raises(SystemSpecError, match="'u1' is also a colour weight"):
        dataclasses.replace(sys, overline_marker="u1")
    data = sys.to_json()
    data["overline_marker"] = 5
    with pytest.raises(TypeError, match="expected a string"):
        ColouredSystem.from_json(data)


def test_size_zero_parts_of_erased_weight_refused():
    # the size-0 part weighs 1 once b is erased, so it repeats at no cost in
    # size or degree: the erased series has an infinite q^0 coefficient,
    # which no cap bounds.  Every engine refuses it (the table below); with
    # b kept, the engines run and agree
    sys = erased_zero_system()
    with pytest.raises(SystemSpecError, match="size-0 parts of weight 1"):
        sys.graded_parts(4, 3)
    kept = dataclasses.replace(sys, erased_vars=())
    assert enumerate_series(kept, 4, 3) == dp_series(kept, 4, 3)


def _engines(d):
    """Every engine that runs a system under the dilation d, or undilated
    (d None): the undilated ones also run under the identity dilation."""
    graded_by = d or DilationSpec(1, {})
    run = [lambda s, q, dm: dp_series(s, q, dm, dilation=graded_by),
           lambda s, q, dm: RecurrenceState(s, q, dm, "largest", d)]
    if d is None:
        run += [enumerate_series, dp_series]
    return run


@pytest.mark.parametrize("make,degmax,dilation,match", [
    pytest.param(lambda: build_preset("primary-overpartitions(1)"), None, None,
                 "degree bound \\(degmax\\)", id="size-0-without-degmax"),
    pytest.param(erased_zero_system, 3, None, "size-0 parts of weight 1",
                 id="size-0-of-weight-1"),
    pytest.param(lambda: build_preset("schur-weighted"), None,
                 DilationSpec(1, {"a": -1}), "1_a sits at size 0.*degmax",
                 id="dilated-to-0-without-degmax"),
    pytest.param(lambda: build_preset("schur-weighted"), 3,
                 DilationSpec(1, {"a": -2}), "1_a dilates to size -1",
                 id="dilated-below-0"),
    pytest.param(lambda: build_preset("primary-overpartitions(1)"), 3,
                 DilationSpec(1, {"t": 1}), "'t', which no colour weight",
                 id="shift-on-overline-marker"),
])
def test_every_engine_refuses_alike(make, degmax, dilation, match):
    """One termination rule, ``ColouredSystem.graded_parts``: each refused
    input raises the same SystemSpecError from every engine it applies to."""
    sys = make()
    messages = set()
    for engine in _engines(dilation):
        with pytest.raises(SystemSpecError, match=match) as refused:
            engine(sys, 4, degmax)
        messages.add(str(refused.value))
    assert len(messages) == 1, messages


def test_every_engine_refuses_a_negative_qmax():
    # the bound is checked where the parts are listed, before any table
    for engine in _engines(None):
        with pytest.raises(ValueError, match="qmax must be >= 0"):
            engine(build_preset("schur-weighted"), -1, None)


# ---------------------------------------------------------------------------
# overpartition systems
# ---------------------------------------------------------------------------


def test_composite_colour_data():
    w, width, lo, hi = andrews_colour_data(1)
    assert (w, width, lo, hi) == (Monomial.var("u1"), 1, 1, 1)
    w, width, lo, hi = andrews_colour_data(6)
    assert w == Monomial.from_dict({"u2": 1, "u3": 1})
    assert (width, lo, hi) == (2, 2, 3)
    assert andrews_colour_label(5) == "u1u3"
    with pytest.raises(SystemSpecError):
        andrews_colour_data(0)


def test_overpartition_system_rank_and_order():
    sys = build_preset("andrews-overpartitions(2)")
    assert [c.label for c in sys.colours] == ["u1", "u2", "u1u2"]
    assert sys.rank_rule.rank(P(0, "u1")) == 0
    assert sys.rank_rule.rank(P(0, "u2")) == 1
    assert sys.rank_rule.rank(P(0, "u1u2")) == 2
    assert sys.rank_rule.rank(P(1, "u1")) == 3
    assert sys.to_json()["min_size"] == 0 and sys.has_zero_parts


def test_overpartition_difference_rule():
    sys = build_preset("andrews-overpartitions(2)")
    # gap = w(lower) + chi(lower overlined) - 1 + delta(upper, lower)
    assert sys.min_gap(P(3, "u1"), P(3, "u1")) == 0
    assert sys.min_gap(P(3, "u1"), P(3, "u1", True)) == 1
    assert sys.min_gap(P(3, "u1"), P(2, "u2")) == 1          # 1 < 2: delta
    assert sys.min_gap(P(3, "u2"), P(3, "u1")) == 0
    assert sys.min_gap(P(3, "u1"), P(2, "u1u2")) == 1        # w = 2
    assert sys.min_gap(P(3, "u1"), P(2, "u1u2", True)) == 2
    assert sys.min_gap(P(3, "u1u2"), P(2, "u1u2")) == 1
    assert sys.min_gap(P(3, "u1u2"), P(2, "u1u2", True)) == 2


def test_overpartition_marker_weights():
    sys = build_preset("andrews-overpartitions(2)")
    t = Monomial.var("t")
    assert sys.part_weight(P(3, "u1")) == Monomial.var("u1") * t
    assert sys.part_weight(P(3, "u1", True)) == Monomial.var("u1")
    assert sys.part_weight(P(0, "u1u2")) == Monomial.from_dict(
        {"u1": 1, "u2": 1, "t": 1})


def test_free_overpartition_rule():
    sys = build_preset("primary-overpartitions(2)")
    # descending colour index within a size; overlined copy listed first
    assert sys.min_gap(P(3, "u2"), P(3, "u1")) == 0
    assert sys.min_gap(P(3, "u1"), P(3, "u2")) == 1
    assert sys.min_gap(P(3, "u1"), P(3, "u1")) == 0
    assert sys.min_gap(P(3, "u1", True), P(3, "u1")) == 0
    assert sys.min_gap(P(3, "u1"), P(3, "u1", True)) == 1
    assert sys.min_gap(P(3, "u1", True), P(3, "u1", True)) == 1
    assert sys.min_gap(P(3, "u2", True), P(3, "u1", True)) == 0


def test_overline_ordering_in_part_listing():
    sys = build_preset("primary-overpartitions(2)")
    parts = sys.parts_up_to(1)
    labelled = [(p.size, p.colour, p.over) for p in parts]
    assert labelled == [
        (0, "u1", False), (0, "u1", True), (0, "u2", False), (0, "u2", True),
        (1, "u1", False), (1, "u1", True), (1, "u2", False), (1, "u2", True)]


# ---------------------------------------------------------------------------
# counting presets
# ---------------------------------------------------------------------------


def test_counting_presets_domains():
    odd = build_preset("distinct-odd")
    assert odd.colour("a").weight.is_one()
    assert odd.colour("a").domain.sizes_up_to(9) == [1, 3, 5, 7, 9]
    assert odd.min_gap(P(5, "a"), P(3, "a")) == 2

    m3 = build_preset("distinct-mod3")
    assert m3.colour("a").domain.sizes_up_to(7) == [1, 4, 7]
    assert m3.colour("b").domain.sizes_up_to(8) == [2, 5, 8]
    assert m3.min_gap(P(4, "a"), P(2, "b")) == 1

    m4 = build_preset("distinct-mod4")
    assert m4.colour("a").domain.sizes_up_to(9) == [1, 5, 9]
    assert m4.colour("b").domain.sizes_up_to(11) == [3, 7, 11]


def test_free_colour_variant_of_dilated_five_colour_system():
    free = build_preset("siladic-dilated-free")
    conc = build_preset("siladic-dilated")
    assert [c.label for c in free.colours] == ["x1", "x3", "x0", "x6", "x2"]
    assert free.colour("x1").weight == Monomial.var("x1")
    # domains carried over from the concrete system
    assert free.colour("x1").domain == conc.colour("a").domain
    assert free.colour("x2").domain == conc.colour("b2").domain
    assert (0, "x0") in free.forbidden_parts and (2, "x2") in free.forbidden_parts
    # gaps agree with the concrete system under the relabeling
    assert free.gap.rows["x1|1"]["x0"] == conc.gap.rows["a|1"]["ab"]
    assert free.gap.rows["x2|2"]["x3"] == conc.gap.rows["b2|2"]["b"]
    assert free.min_gap(P(9, "x1"), P(4, "x0")) == 5


def test_schur_dilated_free_colour_preset_matches_dilated_concrete():
    free = build_preset("schur-dilated-mod3")
    conc = build_preset("schur-dilated")
    relabel = {"a": "a", "b": "b", "ab": "c"}
    for up in ("a", "b", "ab"):
        for low in ("a", "b", "ab"):
            assert (free.gap.rows[relabel[up]][relabel[low]]
                    == conc.gap.rows[up][low])
    for old, new in relabel.items():
        assert (conc.colour(old).domain.sizes_up_to(20)
                == free.colour(new).domain.sizes_up_to(20))


# ---------------------------------------------------------------------------
# construction-time validation catches bad systems
# ---------------------------------------------------------------------------


def _tiny_system(rank_offsets, gap_rows):
    return ColouredSystem(
        name="tiny",
        colours=(
            ColourDef("a", Monomial.var("a"), SizeDomain(min_size=1)),
            ColourDef("b", Monomial.var("b"), SizeDomain(min_size=1)),
        ),
        gap=MatrixGap(gap_rows),
        rank_rule=RankRule(2, rank_offsets),
    )


def test_rank_collision_rejected():
    with pytest.raises(SystemSpecError, match="collision"):
        _tiny_system({"a": 0, "b": 0}, {"a": {"a": 1, "b": 1},
                                        "b": {"a": 1, "b": 1}})


def test_gap_order_disagreement_rejected():
    # rank says a < b at each size, but the gap rule lets a same-size b sit
    # below an a part
    with pytest.raises(SystemSpecError, match="disagree"):
        _tiny_system({"a": -2, "b": -1}, {"a": {"a": 1, "b": 0},
                                          "b": {"a": 1, "b": 1}})


def test_disagreement_beyond_any_window_rejected():
    # a 44_a part admits 45_b directly below it, the first b part, though
    # b parts rank above a parts of the same size and of the next one
    with pytest.raises(SystemSpecError, match="45_b may sit directly below 44_a"):
        ColouredSystem(
            name="far",
            colours=(ColourDef("a", Monomial.var("a"), SizeDomain(min_size=1)),
                     ColourDef("b", Monomial.var("b"), SizeDomain(min_size=45))),
            gap=MatrixGap({"a": {"a": 1, "b": -1}, "b": {"a": 2, "b": 1}}),
            rank_rule=RankRule(2, {"a": 0, "b": 1}),
        )


def test_negative_part_sizes_rejected():
    def one_colour(forbidden):
        return ColouredSystem(
            name="neg",
            colours=(ColourDef("a", Monomial.var("a"), SizeDomain(min_size=-1)),),
            gap=MatrixGap({"a": {"a": 1}}), rank_rule=RankRule(1, {"a": 0}),
            forbidden_parts=forbidden)

    with pytest.raises(SystemSpecError, match="negative size -1"):
        one_colour(frozenset())
    assert one_colour(frozenset({(-1, "a")})).parts_up_to(1) == [P(0, "a"), P(1, "a")]


@pytest.mark.parametrize("change", [
    pytest.param({"gap": {"a": {"a": CHECK_WINDOW_LIMIT, "b": 2},
                          "b": {"a": 1, "b": 1}}}, id="gap"),
    pytest.param({"domain": SizeDomain(min_size=1, modulus=CHECK_WINDOW_LIMIT,
                                       residues=frozenset({1}))}, id="modulus"),
    pytest.param({"domain": SizeDomain(min_size=2 ** 63)}, id="minimum-size"),
    pytest.param({"forbidden": frozenset({(2 ** 40, "b")})}, id="forbidden-part"),
])
def test_validity_window_beyond_the_limit_rejected(change):
    """A window that would take the check minutes and gigabytes is refused
    before any of it is walked."""
    with pytest.raises(SystemSpecError, match="validity check would walk"):
        ColouredSystem(
            name="wide",
            colours=(
                ColourDef("a", Monomial.var("a"), SizeDomain(min_size=1)),
                ColourDef("b", Monomial.var("b"),
                          change.get("domain", SizeDomain(min_size=1))),
            ),
            gap=MatrixGap(change.get("gap", {"a": {"a": 1, "b": 2},
                                             "b": {"a": 1, "b": 1}})),
            rank_rule=RankRule(2, {"a": -2, "b": -1}),
            forbidden_parts=change.get("forbidden", frozenset()),
        )


def test_incomplete_matrix_rejected():
    with pytest.raises(SystemSpecError):
        _tiny_system({"a": -2, "b": -1}, {"a": {"a": 1},
                                          "b": {"a": 1, "b": 1}})


def test_valid_tiny_system_accepted():
    sys = _tiny_system({"a": -2, "b": -1}, {"a": {"a": 1, "b": 2},
                                            "b": {"a": 1, "b": 1}})
    assert sys.part_key(P(1, "a")) < sys.part_key(P(1, "b"))


def test_duplicate_colour_labels_rejected():
    with pytest.raises(SystemSpecError, match="duplicate"):
        ColouredSystem(
            name="dup",
            colours=(
                ColourDef("a", Monomial.var("a"), SizeDomain()),
                ColourDef("a", Monomial.var("a"), SizeDomain()),
            ),
            gap=MatrixGap({"a": {"a": 1}}),
            rank_rule=RankRule(1, {"a": 0}),
        )


@pytest.mark.parametrize("label", ["a~", "a|1"])
def test_colour_labels_cannot_hold_gap_marks(label):
    with pytest.raises(SystemSpecError, match="mark gap-matrix"):
        ColouredSystem(
            name="marked",
            colours=(ColourDef(label, Monomial.var("a"), SizeDomain()),),
            gap=MatrixGap({label: {label: 1}}),
            rank_rule=RankRule(1, {label: 0}),
        )


# ---------------------------------------------------------------------------
# JSON round trips for custom systems
# ---------------------------------------------------------------------------


def test_custom_system_json_round_trip():
    sys = _tiny_system({"a": -2, "b": -1}, {"a": {"a": 1, "b": 2},
                                            "b": {"a": 1, "b": 1}})
    data = sys.to_json()
    again = ColouredSystem.from_json(data)
    assert again == sys
    assert again.to_json() == data


def test_overpartition_json_round_trip():
    sys = build_preset("primary-overpartitions(3)")
    data = sys.to_json()
    assert data["gap"]["kind"] == "matrix"
    assert ColouredSystem.from_json(data) == sys
    data["gap"] = {"kind": "free-overpartition", "r": 3}
    assert ColouredSystem.from_json(data) == sys


@pytest.mark.parametrize("name,gap", [
    ("andrews-overpartitions(2)", {"kind": "andrews", "r": 2}),
    ("primary-overpartitions(2)", {"kind": "free-overpartition", "r": 2}),
    ("andrews-overpartitions(2)", {"kind": "matrix", "overline_extra": True,
                                   "rows": {"u1": {"u1": 0, "u2": 1, "u1u2": 1},
                                            "u2": {"u1": 0, "u2": 0, "u1u2": 1},
                                            "u1u2": {"u1": 0, "u2": 0, "u1u2": 1}}}),
])
def test_older_gap_json_still_loads(name, gap):
    sys = build_preset(name)
    data = sys.to_json()
    data["gap"] = gap
    loaded = ColouredSystem.from_json(data)
    assert loaded == sys
    f = enumerate_series(loaded, 8, 3)
    # coefficient sums at q^0..q^8 under degmax 3, as the gap-rule classes
    # these kinds once named gave them
    assert [sum(f.coefficient(n).terms.values()) for n in range(9)] == [
        10, 18, 25, 38, 47, 62, 75, 92, 107]
