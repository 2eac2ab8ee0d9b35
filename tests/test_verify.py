"""Tests for the identity registry and the multi-engine verifier."""

import dataclasses

import pytest

import oracles
from wwords import (
    Monomial,
    Polynomial,
    ProductFactor,
    ProductSpec,
    SubstitutionMap,
    TruncatedSeries,
    build_preset,
    count_partitions,
    dilate_system,
    dp_series,
    enumerate_series,
    list_partitions,
    product_expand,
    substitute,
)
from wwords import verify
from wwords.systems import DILATED_PRESETS
from wwords.verify import (
    ENGINES,
    VerificationError,
    check_statistics,
    coefficient_table,
    format_coefficient_table,
    identity_case,
    identity_cases,
    identity_names,
    verify_identity,
)

from helpers import cap_degree, constant

REPORT_KEYS = {"identity", "qmax", "degmax", "engines", "equal",
               "first_mismatch", "conventions", "ms"}

EXPECTED_NAMES = {
    "theorem-1", "theorem-2", "schur-dilated", "theorem-3", "theorem-4",
    "theorem-5", "theorem-6", "theorem-7", "primc-conjecture",
    "theorem-8-r1", "theorem-8-r2", "theorem-8-r3",
}


def poly(terms):
    return Polynomial({Monomial.from_dict(v): c for v, c in terms})


# ---------------------------------------------------------------------------
# registry shape
# ---------------------------------------------------------------------------


def test_registry_covers_documented_cases():
    cases = identity_cases()
    assert set(cases) == EXPECTED_NAMES
    assert len(cases) == 12
    assert identity_names() == list(cases)


def test_unknown_identity_lists_known_names():
    with pytest.raises(VerificationError) as err:
        identity_case("theorem-99")
    assert "theorem-2" in str(err.value)


def test_every_case_builds_and_declares_engines():
    for case in identity_cases().values():
        build_preset(case.side_b)
        if case.side_a is not None:
            build_preset(case.side_a)
        engines = case.applicable_engines()
        assert set(engines) <= set(ENGINES)
        assert "enum" in engines and "recurrence" in engines
        assert ("product" in engines) == (case.product is not None)
        assert ("dilation" in engines) == (case.side_b in DILATED_PRESETS)


# ---------------------------------------------------------------------------
# every case verifies
# ---------------------------------------------------------------------------

# reduced orders keep this module fast; the documented defaults are
# exercised by the acceptance suite
VERIFY_ORDERS = {
    "theorem-1": 40,
    "theorem-4": 40,
    "theorem-5": 40,
    "theorem-6": 16,
    "theorem-7": 24,
    "primc-conjecture": 24,
}


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_identity_verifies(name):
    case = identity_case(name)
    qmax = VERIFY_ORDERS.get(name, case.qmax)
    report = verify_identity(case, qmax=qmax)
    assert report.equal is True
    assert report.first_mismatch is None
    assert report.identity == name
    assert report.qmax == qmax
    assert report.engines == case.applicable_engines()


def test_theorem_2_at_full_documented_order():
    report = verify_identity("theorem-2")
    assert report.equal is True
    assert report.qmax == 30
    assert set(report.engines) == {"enum", "recurrence", "product"}


def test_theorem_2_product_matches_independent_expansion():
    case = identity_case("theorem-2")
    series = enumerate_series(build_preset("schur-weighted"), 18)
    expected = oracles.expand_product(
        [{"sign": f.sign, "vars": dict(f.mono.items), "start": f.start,
          "mod": f.mod, "power": f.power} for f in case.product.factors], 18)
    for n in range(19):
        got = {tuple(sorted(m.items)): c
               for m, c in series.coefficient(n).terms.items()}
        assert got == expected[n]


def test_primc_conjecture_counts_are_partition_numbers():
    series = dp_series(build_preset("primc-dilated"), 40)
    series = series.specialize({"a": 1, "c": 1, "d": 1})
    expected = oracles.partition_numbers(40)
    for n in range(41):
        assert constant(series.coefficient(n)) == expected[n]


def test_theorem_1_side_a_matches_independent_distinct_odd_counts():
    counts = count_partitions(build_preset("distinct-odd"), 40)
    assert counts == oracles.distinct_odd_counts(40)


# ---------------------------------------------------------------------------
# engine selection
# ---------------------------------------------------------------------------


def test_inapplicable_engine_error_lists_applicable():
    with pytest.raises(VerificationError) as err:
        verify_identity("theorem-8-r1", engines=["product"])
    msg = str(err.value)
    assert "product" in msg and "enum" in msg and "recurrence" in msg
    with pytest.raises(VerificationError, match="not applicable"):
        verify_identity("theorem-2", engines=["dilation"])


def test_unknown_engine_rejected():
    with pytest.raises(VerificationError, match="unknown engine"):
        verify_identity("theorem-2", engines=["magic"])
    with pytest.raises(VerificationError, match="no engines"):
        verify_identity("theorem-2", engines=[])


def test_engine_subsets_run_independently():
    a = verify_identity("theorem-2", qmax=15, engines=["enum", "product"])
    b = verify_identity("theorem-2", qmax=15, engines=["recurrence", "product"])
    assert a.equal and b.equal
    assert a.engines == ("enum", "product")
    assert b.engines == ("recurrence", "product")


def test_dilation_engine_alone_agrees_with_product():
    report = verify_identity("theorem-4", qmax=40,
                             engines=["dilation", "product"])
    assert report.equal is True


# ---------------------------------------------------------------------------
# conventions (exactly one small-part choice works)
# ---------------------------------------------------------------------------


def test_conventions_resolve_to_exactly_one():
    report = verify_identity("theorem-3")
    assert report.equal is True
    assert report.conventions == {"passed": ["A"], "failed": ["B"],
                                  "resolved": "A"}
    assert report.first_mismatch is None


def test_conventions_require_product_engine():
    with pytest.raises(VerificationError, match="product"):
        verify_identity("theorem-3", engines=["enum", "recurrence"])
    with pytest.raises(VerificationError, match="enum or recurrence"):
        verify_identity("theorem-3", engines=["product"])


def test_conventions_indistinguishable_at_a_short_order():
    # at q^0 both conventions match the product
    with pytest.raises(VerificationError, match="indistinguishable"):
        verify_identity("theorem-3", qmax=0)


def test_non_convention_reports_have_empty_conventions():
    assert verify_identity("theorem-2", qmax=10).conventions == {}


# ---------------------------------------------------------------------------
# mismatch reporting
# ---------------------------------------------------------------------------


def wrong_product_case():
    case = identity_case("theorem-2")
    wrong = ProductSpec([ProductFactor(-1, Monomial.var("a"), 1, 1, -1),
                         ProductFactor(-1, Monomial.var("b"), 2, 1, -1)])
    return dataclasses.replace(case, product=wrong)


def test_mismatch_is_located_exactly():
    report = verify_identity(wrong_product_case(), qmax=10)
    assert report.equal is False
    mism = report.first_mismatch
    assert mism is not None
    # the corrupted product drops the b-coloured part of size 1
    assert mism["n"] == 1
    assert mism["monomial"] == {"b": 1}
    assert mism["lhs"] == "1"
    assert mism["rhs"] == "0"


def wrong_conventions_case():
    """theorem-3 with the wrong product, which no convention matches."""
    return dataclasses.replace(identity_case("theorem-3"),
                               product=wrong_product_case().product)


def test_conventions_all_failing_report_in_request_order():
    report = verify_identity(wrong_conventions_case(), qmax=10)
    assert report.equal is False
    assert report.conventions == {"passed": [], "failed": ["A", "B"],
                                  "resolved": None}
    # the first convention's B side, enumerated first, against the product
    assert report.first_mismatch == {"n": 1, "monomial": {"b": 1},
                                     "lhs": "1", "rhs": "0"}
    swapped = verify_identity(wrong_conventions_case(), qmax=10,
                              engines=["product", "recurrence"])
    assert swapped.first_mismatch == {"n": 1, "monomial": {"b": 1},
                                      "lhs": "0", "rhs": "1"}


def test_unequal_implies_mismatch_populated():
    for qmax in (1, 5, 9):
        report = verify_identity(wrong_product_case(), qmax=qmax)
        assert report.equal is False
        assert report.first_mismatch is not None


def test_report_json_schema():
    report = verify_identity("theorem-2", qmax=12)
    data = report.to_json()
    assert set(data) == REPORT_KEYS
    assert data["identity"] == "theorem-2"
    assert data["qmax"] == 12
    assert data["degmax"] is None
    assert data["engines"] == ["enum", "recurrence", "product"]
    assert data["equal"] is True
    assert data["first_mismatch"] is None
    assert data["conventions"] == {}
    assert isinstance(data["ms"], int) and data["ms"] >= 0
    bad = verify_identity(wrong_product_case(), qmax=8).to_json()
    assert set(bad["first_mismatch"]) == {"n", "monomial", "lhs", "rhs"}


def test_reports_are_reproducible_modulo_duration():
    runs = [verify_identity("theorem-3", qmax=18).to_json() for _ in range(2)]
    for data in runs:
        data.pop("ms")
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------


def test_table_of_two_colour_product():
    case = identity_case("theorem-2")
    rows = coefficient_table(product_expand(case.product, 10), 2)
    assert [row["coefficient"] for row in rows] == ["1", "a + b", "a + b + a*b"]
    assert rows[1]["terms"] == [
        {"monomial": {"a": 1}, "coefficient": "1"},
        {"monomial": {"b": 1}, "coefficient": "1"},
    ]


def test_table_matches_displayed_free_colour_prefix():
    series = enumerate_series(build_preset("schur-dilated-mod3"), 5)
    expected = [
        poly([({}, 1)]),
        poly([({"a": 1}, 1)]),
        poly([({"b": 1}, 1)]),
        poly([({"c": 1}, 1)]),
        poly([({"a": 1}, 1)]),
        poly([({"a": 2}, 1), ({"b": 1}, 1)]),
    ]
    rows = coefficient_table(series, 5)
    for n in range(6):
        assert series.coefficient(n) == expected[n]
        assert rows[n]["coefficient"] == str(expected[n])


def test_table_of_zero_series_is_all_zero():
    rows = coefficient_table(TruncatedSeries.zero(3), 3)
    assert [row["coefficient"] for row in rows] == ["0"] * 4
    assert all(row["terms"] == [] for row in rows)


def test_table_range_checked():
    series = TruncatedSeries.one(4)
    with pytest.raises(VerificationError, match="outside"):
        coefficient_table(series, 5)
    with pytest.raises(VerificationError, match="outside"):
        coefficient_table(series, -1)


def test_table_formatting_is_stable():
    rows = coefficient_table(TruncatedSeries.one(10), 10)
    text = format_coefficient_table(rows)
    lines = text.splitlines()
    assert len(lines) == 11
    assert lines[0].startswith("q^0 ")
    assert lines[0].endswith(": 1")
    assert lines[10].startswith("q^10 ")
    assert format_coefficient_table([]) == ""


# ---------------------------------------------------------------------------
# sampled statistic rules
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["theorem-4", "theorem-5"])
def test_textual_statistics_match_weights(name):
    result = check_statistics(name)
    assert result["ok"] is True
    assert result["samples"] == 200
    assert result["pool"] > 200
    assert result["mismatches"] == []
    assert result["seed"] == 2026


def test_statistics_deterministic_and_seedable():
    first = check_statistics("theorem-4")
    second = check_statistics("theorem-4")
    assert first == second
    other = check_statistics("theorem-4", seed=7, samples=50)
    assert other["ok"] is True and other["samples"] == 50


@pytest.mark.parametrize("samples", [0, -1])
def test_statistics_refuse_fewer_than_one_sample(samples):
    # no sample would check nothing and still report ok
    with pytest.raises(VerificationError, match="samples must be at least 1"):
        check_statistics("theorem-4", samples=samples)


def test_misstated_rule_is_reported(monkeypatch):
    # siladic-mod4 with u's mod-8 residue 6 read as 2
    variables, cap, terms = verify._STATISTIC_RULES["siladic-mod4"]
    terms = tuple((0, 2, None, 8, {2}) if t == (0, 2, None, 8, {6}) else t
                  for t in terms)
    monkeypatch.setitem(verify._STATISTIC_RULES, "siladic-mod4",
                        (variables, cap, terms))
    result = check_statistics("theorem-4")
    assert result["ok"] is False
    assert 0 < len(result["mismatches"]) <= 5
    for entry in result["mismatches"]:
        assert set(entry) == {"partition", "textual", "weights"}
    # the first mismatch at seed 2026 pins the pool's order and the sample
    assert result["mismatches"][0] == {
        "partition": ["22_a2", "9_a", "3_b"],
        "textual": [1, 1],
        "weights": [3, 1],
    }


def test_statistics_unavailable_for_plain_cases():
    with pytest.raises(VerificationError, match="statistic"):
        check_statistics("theorem-2")


# ---------------------------------------------------------------------------
# textual difference conditions of the dilated systems
# ---------------------------------------------------------------------------


def siladic_textual_counts(bound):
    """Counts of partitions with no part 2, gaps >= 5, and the mod-8
    residue conditions at gaps 5..8 — stated entirely on part sizes."""
    allowed = {5: {1, 4}, 6: {1, 3, 5, 7}, 7: {0, 1, 3, 4, 6, 7},
               8: {0, 1, 3, 4, 5, 7}}

    def pair_ok(upper, lower):
        gap = upper - lower
        if gap < 5:
            return False
        return upper % 8 in allowed.get(gap, {upper % 8})

    counts = [0] * (bound + 1)

    def grow(total, last):
        counts[total] += 1
        for size in range(1, bound - total + 1):
            if size == 2 or (last is not None and not pair_ok(last, size)):
                continue
            grow(total + size, size)

    grow(0, None)
    return counts


def test_dilated_gap5_system_matches_textual_conditions():
    assert (count_partitions(build_preset("siladic-dilated"), 30)
            == siladic_textual_counts(30))


def test_companion_gaps_match_textual_conditions():
    sys = build_preset("schur-companion")
    parts = [p for p in sys.parts_up_to(30) if not p.over]

    def textual_gap(upper, lower):
        chi = 1 if lower.colour in ("a2", "b2") else 0
        if upper.colour in ("a2", "b2"):
            return 6 + chi
        if upper.size % 6 in (0, 4):
            return 5 + chi
        return 4 + chi

    for upper in parts:
        for lower in parts:
            diff = upper.size - lower.size
            assert ((diff >= sys.min_gap(upper, lower))
                    == (diff >= textual_gap(upper, lower))), (upper, lower)


def test_companion_primed_parts_live_in_the_documented_residues():
    sys = build_preset("schur-companion")
    for part in sys.parts_up_to(40):
        if part.colour == "a2":
            assert part.size % 6 == 5
        elif part.colour == "b2":
            assert part.size % 6 == 1
        else:
            assert part.size % 3 == {"a": 1, "b": 2, "ab": 0}[part.colour]
    # 1' is not a part: the smallest primed-b part is 7
    assert all(p.size != 1 for p in sys.parts_up_to(10)
               if p.colour in ("a2", "b2"))


# ---------------------------------------------------------------------------
# cross-checks of case plumbing
# ---------------------------------------------------------------------------


def test_theorem_8_sides_differ_as_systems_but_agree_as_series():
    prim = build_preset("primary-overpartitions(2)")
    comp = build_preset("andrews-overpartitions(2)")
    assert len(prim.colours) == 2 and len(comp.colours) == 3
    report = verify_identity("theorem-8-r2", qmax=10, degmax=6)
    assert report.equal is True
    assert report.degmax == 6


# cases that set colour variables to 1
DROPPING_CASES = ("theorem-1", "primc-conjecture")


def test_dropping_cases_are_listed():
    cases = identity_cases()
    assert {n for n, c in cases.items() if c.erased} == set(DROPPING_CASES)
    # only the systems erase them: no product side carries one
    for name in DROPPING_CASES:
        case = cases[name]
        if case.product is not None:
            carried = {v for f in case.product.factors for v, _ in f.mono.items}
            assert not carried & set(case.erased), name


def test_dilated_presets_build_the_b_sides():
    # each dilated preset is its source dilated, up to name and
    # description, and every case with the dilation engine has one as its
    # B side, so the engine and the B side share one dilation
    for name, (source, d) in DILATED_PRESETS.items():
        b = build_preset(name)
        got = dilate_system(build_preset(source), d)
        assert dataclasses.replace(got, name=b.name,
                                   description=b.description) == b, name
    dilated = {n: c.side_b for n, c in identity_cases().items()
               if "dilation" in c.applicable_engines()}
    assert len(dilated) == 6
    assert set(dilated.values()) <= set(DILATED_PRESETS)


@pytest.mark.parametrize("name", ["theorem-6", "theorem-7", *DROPPING_CASES])
def test_degree_cap_below_qmax_holds_on_erased_cases(name):
    # erased variables leave the part weights, so every engine counts the
    # same degree and a cap below qmax is faithful inside its window
    case = identity_case(name)
    report = verify_identity(name, qmax=16, degmax=6)
    assert report.equal is True, report.first_mismatch
    assert report.engines == case.applicable_engines()
    side_b = build_preset(case.side_b)
    side_b = dataclasses.replace(
        side_b, erased_vars=side_b.erased_vars + case.erased)
    assert enumerate_series(side_b, 16, 6) == \
        cap_degree(enumerate_series(side_b, 16), 6)
    assert verify_identity(name, qmax=10, degmax=3).equal is True


def test_explicit_degmax_override_is_reported():
    report = verify_identity("theorem-8-r1", qmax=8, degmax=5)
    assert report.qmax == 8 and report.degmax == 5


def test_relation_substitution_matches_manual_expansion():
    # the free-colour system with c -> ab equals the mod-3 product and the
    # concrete B side; doing the substitution by hand on the raw series
    # must give the same result
    case = identity_case("schur-dilated")
    raw = enumerate_series(build_preset("schur-dilated-mod3"), 12)
    sub = SubstitutionMap(1, {"c": (Monomial.from_dict({"a": 1, "b": 1}), 0)})
    manual = substitute(raw, sub, 12)
    assert manual == product_expand(case.product, 12)
    assert manual == enumerate_series(build_preset(case.side_b), 12)
