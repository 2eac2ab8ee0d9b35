"""The series kernel seen through the engines: the recurrence on generated
systems against enumeration, its tables against the brute-force oracle and
its G/E lookups against fresh sums, dilation against substitution, the DP
under a dilation against the dilated system, erasing against setting to 1
afterwards, specialization against direct evaluation, and product factors
with large exponents."""

import random
import time
from collections import Counter
from dataclasses import replace

import pytest

from wwords import (
    ColouredPart,
    ColouredSystem,
    DilationSpec,
    Monomial,
    Polynomial,
    ProductFactor,
    ProductSpec,
    RecurrenceState,
    SystemSpecError,
    TruncatedSeries,
    build_preset,
    dilate_system,
    dp_series,
    enumerate_series,
    euler_factorize,
    product_expand,
    statistic_substitution,
    substitute,
)

from helpers import cap_degree, random_system, reexpand, series
from oracles import brute_force_partitions, expand_product, system_order_fault


def _random_cases(seed: int):
    """(system, qmax, degmax) for the generated systems construction accepts."""
    rng = random.Random(seed)
    for attempt in range(150):
        sys = random_system(rng, attempt)
        if sys is None:
            continue
        qmax = rng.randrange(6, 11)
        degmax = (rng.randrange(3, 6) if sys.has_zero_parts or rng.random() < 0.3
                  else None)
        yield sys, qmax, degmax


def test_recurrence_matches_enumeration_on_random_systems():
    checked = {"all": 0, "zero": 0, "erased": 0, "degmax": 0, "over": 0}
    for sys, qmax, degmax in _random_cases(31337):
        expected = enumerate_series(sys, qmax, degmax)
        for direction in ("largest", "smallest"):
            got = RecurrenceState(sys, qmax, degmax, direction).total_series()
            assert got == expected, (sys.to_json(), qmax, degmax, direction)
        checked["all"] += 1
        checked["zero"] += sys.has_zero_parts
        checked["erased"] += bool(sys.erased_vars)
        checked["degmax"] += degmax is not None
        checked["over"] += sys.overline_marker is not None
    assert min(checked.values()) >= 3, checked


def _random_system_json(rng: random.Random, index: int) -> dict:
    """The JSON document of a small system that may break any validity
    rule: negative gaps and sizes, multi-residue domains, gap rows by size
    parity, forbidden parts, overlines, and now and then a missing gap
    entry or rank offset."""
    labels = ["c0", "c1", "c2"][: rng.randrange(1, 4)]
    colours = []
    for label in labels:
        domain = {"min": -1 if rng.random() < 0.1 else rng.randrange(4)}
        if rng.random() < 0.4:
            modulus = rng.randrange(2, 4)
            domain.update(modulus=modulus, residues=sorted(
                rng.sample(range(modulus), rng.randrange(1, modulus + 1))))
        colours.append({"label": label, "weight": {label: 1}, "domain": domain,
                        "overline": rng.random() < 0.25})
    class_modulus = 2 if rng.random() < 0.3 else None
    row_keys = [label if class_modulus is None else f"{label}|{r}"
                for label in labels for r in range(class_modulus or 1)]
    rows = {}
    for rk in row_keys:
        rows[rk] = {c: rng.randrange(-2, 0) if rng.random() < 0.1
                    else rng.randrange(4) for c in labels}
        rows[rk].update({f"{c}~": rng.randrange(-1, 5)
                         for c in labels if rng.random() < 0.3})
    if rng.random() < 0.05:
        rk = rng.choice(row_keys)
        del rows[rk][rng.choice(labels)]
    offsets = dict(zip(labels, rng.sample(range(-4, 5), len(labels))))
    if rng.random() < 0.02:
        del offsets[rng.choice(labels)]
    forbidden = sorted({(rng.randrange(-1, 5), rng.choice(labels))
                        for _ in range(rng.choice([0, 0, 1, 2]))})
    gap = {"kind": "matrix", "rows": rows}
    if class_modulus:
        gap["class_modulus"] = class_modulus
    return {"name": f"random-{index}", "colours": colours,
            "rank": {"mult": rng.randrange(2, 5), "offsets": offsets},
            "gap": gap, "forbidden": [list(f) for f in forbidden]}


def test_construction_refuses_what_an_all_pairs_scan_refuses():
    """Construction accepts exactly the generated systems that the oracle's
    all-pairs scan accepts, and the recurrence, which no longer checks the
    order itself, agrees with enumeration on every one it accepts."""
    rng = random.Random(5150)
    refused, accepted = Counter(), Counter()
    for index in range(1000):
        data = _random_system_json(rng, index)
        fault = system_order_fault(data)
        try:
            sys = ColouredSystem.from_json(data)
        except SystemSpecError as exc:
            assert fault is not None, (data, str(exc))
            refused[fault] += 1
            continue
        assert fault is None, (data, fault)
        degmax = 3 if sys.has_zero_parts else None
        expected = enumerate_series(sys, 7, degmax)
        for direction in ("largest", "smallest"):
            got = RecurrenceState(sys, 7, degmax, direction).total_series()
            assert got == expected, (data, direction)
        accepted["all"] += 1
        accepted["negative gap"] += any(g < 0 for cols in sys.gap.rows.values()
                                        for g in cols.values())
        accepted["parity rows"] += sys.gap.class_modulus is not None
        accepted["forbidden"] += bool(sys.forbidden_parts)
        accepted["overline"] += any(c.overline_allowed for c in sys.colours)
        accepted["residues"] += any(len(c.domain.residues) > 1 for c in sys.colours)
        accepted["zero parts"] += sys.has_zero_parts
    assert len(refused) == 5 and min(refused.values()) >= 10, refused
    assert min(accepted.values()) >= 10, accepted


def _assert_dilation_commutes(sys, d, qmax, degmax):
    """Both engines on the dilated system, and the DP under the dilation,
    equal the substituted series.  Shifts are non-negative, so the
    undilated series to qmax covers it."""
    dilated = dilate_system(sys, d)
    expected = substitute(enumerate_series(sys, qmax, degmax),
                          statistic_substitution(d), qmax, degmax)
    assert enumerate_series(dilated, qmax, degmax) == expected
    assert dp_series(dilated, qmax, degmax) == expected
    assert dp_series(sys, qmax, degmax, d) == expected


def test_dilation_commutes_with_substitution_on_random_systems():
    rng = random.Random(2024)
    checked = {"all": 0, "over": 0, "zero": 0, "modulus": 0}
    refused = 0
    for sys, qmax, degmax in _random_cases(31337):
        carried = sorted({v for c in sys.colours for v, _ in c.weight.items})
        # enumeration erases a variable before substitution sees it
        shifts = {v: 0 if v in sys.erased_vars else rng.randrange(3)
                  for v in carried}
        d = DilationSpec(rng.randrange(1, 4), shifts)
        try:
            _assert_dilation_commutes(sys, d, qmax, degmax)
        except SystemSpecError:
            refused += 1  # construction refused the dilated system
            continue
        checked["all"] += 1
        checked["over"] += sys.overline_marker is not None
        checked["zero"] += sys.has_zero_parts
        checked["modulus"] += d.modulus > 1
    assert min(checked.values()) >= 20 and refused == 0, (checked, refused)


@pytest.mark.parametrize("name", [
    "andrews-overpartitions(1)", "andrews-overpartitions(2)",
    "andrews-overpartitions(3)", "primary-overpartitions(2)",
    "primary-overpartitions(3)"])
@pytest.mark.parametrize("modulus", [2, 3])
def test_overpartition_presets_dilate(name, modulus):
    _assert_dilation_commutes(build_preset(name), DilationSpec(modulus, {}),
                              9, 3)


def test_dp_under_a_dilation_is_the_dilated_series():
    """Under a dilation the DP gives the dilated system's series, or refuses
    exactly where the dilated system is refused: on generated systems with
    negative, large and erased-variable shifts, with and without a degree
    cap.  An erased variable leaves the part weights but keeps its shift,
    as ``dilate_system`` dilates by the colours' full weights."""
    rng = random.Random(1717)
    seen = Counter()
    for sys, qmax, own_degmax in _random_cases(31337):
        carried = sorted({v for c in sys.colours for v, _ in c.weight.items})
        for degmax in (None, own_degmax or 4):
            shifts = {v: rng.choice([-2, -1, 0, 1, 2, qmax]) for v in carried}
            d = DilationSpec(rng.randrange(1, 5), shifts)
            try:
                expected = enumerate_series(dilate_system(sys, d), qmax, degmax)
            except SystemSpecError as exc:
                with pytest.raises(SystemSpecError):
                    dp_series(sys, qmax, degmax, d)
                seen["refused, " + ("size 0" if "size-0" in str(exc)
                                    else "negative size")] += 1
                continue
            assert dp_series(sys, qmax, degmax, d) == expected, (
                sys.to_json(), d, qmax, degmax)
            seen["equal"] += 1
            seen["negative shift"] += min(shifts.values(), default=0) < 0
            seen["shift qmax"] += qmax in shifts.values()
            seen["erased, shifted"] += any(shifts.get(v) for v in sys.erased_vars)
            seen["zero parts lifted"] += sys.has_zero_parts and degmax is None
            seen["degmax" if degmax is not None else "no degmax"] += 1
    assert min(seen.values()) >= 5 and len(seen) == 9, seen


def test_erasing_is_setting_to_one_after_the_dilation():
    """Erasing variables from the part weights gives the full-weight series
    with those variables set to 1 afterwards, in enumeration, in the DP and
    in the DP under a dilation that shifts the erased variables too: an
    erased variable keeps its shift and leaves only the monomial.  Under a
    degree cap the full-weight series is capped after specializing, and a
    system is refused exactly where the erased system is."""
    rng = random.Random(2718)
    seen = Counter()
    for sys, qmax, _ in _random_cases(4242):
        carried = sorted({v for c in sys.colours for v, _ in c.weight.items})
        if not carried:
            continue
        erased = tuple(rng.sample(carried, rng.randrange(1, len(carried) + 1)))
        full = replace(sys, erased_vars=())
        ones = {v: 1 for v in erased}
        top = max(c.weight.degree for c in sys.colours) + bool(
            sys.overline_marker)
        sys = replace(sys, erased_vars=erased)
        # caps below the full weight's degree too
        for degmax in (None, rng.randrange(1, 5)):
            # a full-weight term of at most degmax kept degree has at most
            # qmax parts of positive size and degmax of size 0
            full_degmax = None if degmax is None else top * (qmax + degmax)
            shifts = {v: rng.choice([-2, -1, 0, 1, 2, qmax]) for v in carried}
            d = DilationSpec(rng.randrange(1, 5), shifts)
            for label, engine, dilated in (("enum", enumerate_series, False),
                                           ("dp", dp_series, False),
                                           ("dilated dp", dp_series, True)):
                try:
                    got = (dp_series(sys, qmax, degmax, d) if dilated
                           else engine(sys, qmax, degmax))
                except SystemSpecError:
                    with pytest.raises(SystemSpecError):
                        enumerate_series(dilate_system(sys, d) if dilated
                                         else sys, qmax, degmax)
                    seen["refused"] += 1
                    continue
                oracle = dilate_system(full, d) if dilated else full
                expected = cap_degree(enumerate_series(
                    oracle, qmax, full_degmax).specialize(ones), degmax)
                assert got == expected, (sys.to_json(), label, d, qmax, degmax)
                seen[label] += 1
                seen["erased, shifted"] += dilated and any(
                    shifts[v] for v in erased)
                seen["degmax" if degmax is not None else "no degmax"] += 1
    assert min(seen.values()) >= 5 and len(seen) == 7, seen


def _dilated_refuses(sys, d, qmax, degmax) -> bool:
    """Whether the engines refuse the dilated system: its construction
    refuses it, or a size-0 part has no degree cap or weight 1."""
    try:
        dilated = dilate_system(sys, d)
    except SystemSpecError:
        return True
    return any(degmax is None or dilated.part_weight(p).degree == 0
               for p in dilated.parts_up_to(0))


def test_grades_are_the_dilated_systems_sizes():
    """On generated systems under random dilations, each (p, w, g) that
    ``graded_parts`` lists is the part g of p's colour and overline in
    ``dilate_system(sys, d)``, of weight w there, and the dilated system
    has no other part of size <= qmax within the cap; both sides refuse
    alike.  Undilated, the largest-part DP places exactly the listed
    parts."""
    rng = random.Random(4711)
    seen = Counter()
    for sys, qmax, own_degmax in _random_cases(31337):
        # a cap of 1 leaves out the parts of degree-2 weights
        for degmax in (None, own_degmax or 4, 1):
            shifts = {v: rng.choice([-2, -1, 0, 1, 2, qmax])
                      for v in sorted(sys.carried_vars)}
            d = DilationSpec(rng.randrange(1, 5), shifts)
            if _dilated_refuses(sys, d, qmax, degmax):
                with pytest.raises(SystemSpecError):
                    sys.graded_parts(qmax, degmax, d)
                seen["refused"] += 1
            else:
                dilated = dilate_system(sys, d)
                want = [(p, dilated.part_weight(p))
                        for p in dilated.parts_up_to(qmax)]
                want = [(p, w) for p, w in want
                        if degmax is None or w.degree <= degmax]
                got = [(ColouredPart(g, p.colour, p.over), w)
                       for p, w, g in sys.graded_parts(qmax, degmax, d)]
                assert got == want, (sys.to_json(), d, qmax, degmax)
                seen["equal"] += 1
                seen["capped out"] += degmax is not None and any(
                    w.degree > degmax for w in map(
                        dilated.part_weight, dilated.parts_up_to(qmax)))
            try:
                listed = [p for p, _, _ in sys.graded_parts(qmax, degmax)]
            except SystemSpecError:
                with pytest.raises(SystemSpecError):
                    RecurrenceState(sys, qmax, degmax)
                seen["undilated refused"] += 1
                continue
            assert RecurrenceState(sys, qmax, degmax).parts() == listed
            seen["undilated"] += 1
    assert min(seen.values()) >= 5 and len(seen) == 5, seen


def test_dp_refuses_a_shift_no_weight_carries():
    # the overline marker and an unknown variable: the DP once shifted every
    # plain part by the first and ignored the second
    sys = build_preset("primary-overpartitions(1)")
    for shifts in ({"t": 1}, {"zz": 5}):
        d = DilationSpec(1, shifts)
        with pytest.raises(SystemSpecError, match="no colour weight"):
            dilate_system(sys, d)
        with pytest.raises(SystemSpecError, match="no colour weight"):
            dp_series(sys, 3, 3, d)


def _snapshot(f: TruncatedSeries) -> list[dict]:
    return [dict(f.coefficient(n).terms) for n in range(f.qmax + 1)]


def test_tables_of_both_orders_match_brute_force():
    """Each E_p of the largest-part order is the series of the chains whose
    largest part is p, each G the series of the chains whose parts all have
    keys up to its own, and the smallest-part order's total the series of
    all chains, by the oracle's search on generated systems, with and
    without a degree cap.  The running sums the tables are built from hold
    only the buckets that the parts still to come read; a bucket cut too
    early would miss terms here.  In the largest-part order a sum's parts
    come in rising size, in the smallest-part order in falling size, where
    only the least size still to come gives the right cut."""
    rng = random.Random(5151)
    checked = Counter()
    for sys, qmax, own_degmax in _random_cases(31337):
        if sys.has_zero_parts:
            continue  # the oracle's search needs positive sizes
        parts = sys.parts_up_to(qmax)
        chains = brute_force_partitions(
            qmax, parts, lambda p: p.size,
            lambda upper, lower: upper.size - lower.size >= sys.min_gap(upper, lower))
        for degmax in (None, own_degmax or rng.randrange(1, 5)):
            # (largest part or None, size, weight) of each chain within degmax
            found = []
            for chain in chains:
                w = Monomial.one()
                for p in chain:
                    w = w * sys.part_weight(p)
                if degmax is None or w.degree <= degmax:
                    found.append((chain[0] if chain else None,
                                  sum(p.size for p in chain), w))

            def table(keep):
                out = [{} for _ in range(qmax + 1)]
                for largest, n, w in found:
                    if keep(largest):
                        out[n][w] = out[n].get(w, 0) + 1
                return out

            case = (sys.to_json(), qmax, degmax)
            state = RecurrenceState(sys, qmax, degmax)
            for p in parts:
                assert _snapshot(state.E(p.size, p.colour, p.over)) == table(
                    lambda largest: largest == p), (case, p)
            for size in range(1, qmax + 1):
                for c in sys.colours:
                    key = (sys.rank_rule.rank(ColouredPart(size, c.label)), 1)
                    assert _snapshot(state.G(size, c.label)) == table(
                        lambda largest: largest is None
                        or sys.part_key(largest) <= key), (case, size, c.label)
            smallest = RecurrenceState(sys, qmax, degmax, "smallest")
            assert _snapshot(smallest.total_series()) == table(
                lambda largest: True), case
            checked["all"] += 1
            checked["degmax"] += degmax is not None
            checked["over"] += sys.overline_marker is not None
            checked["erased"] += bool(sys.erased_vars)
    assert min(checked.values()) >= 5, checked


def test_lookups_equal_a_fresh_sum_in_any_order():
    """G and E asked in a shuffled order, twice: each G equals 1 plus the E
    of every part within its key, and no answer changes after the fact."""
    rng = random.Random(4242)
    erased_and_capped = 0
    for sys, qmax, degmax in _random_cases(31337):
        state = RecurrenceState(sys, qmax, degmax)
        parts = state.parts()
        queries = [("E", p.size, p.colour, p.over) for p in parts]
        queries += [("G", size, c.label, False)
                    for size in range(qmax + 1) for c in sys.colours]
        first = {}
        for _ in range(2):
            rng.shuffle(queries)
            for kind, size, colour, over in queries:
                if kind == "E":
                    got = state.E(size, colour, over)
                else:
                    got = state.G(size, colour)
                    key = (sys.rank_rule.rank(ColouredPart(size, colour)), 1)
                    expected = TruncatedSeries.one(qmax, degmax)
                    for p in parts:
                        if sys.part_key(p) <= key:
                            expected = expected + state.E(p.size, p.colour, p.over)
                    assert got == expected, (sys.to_json(), qmax, degmax, size, colour)
                query = (kind, size, colour, over)
                assert _snapshot(got) == first.setdefault(query, _snapshot(got))
        erased_and_capped += bool(sys.erased_vars) and degmax is not None
    assert erased_and_capped >= 1


def _evaluate(poly: Polynomial, point: dict[str, int]) -> int:
    total = 0
    for mono, coeff in poly.terms.items():
        for name, exp in mono.items:
            coeff *= point[name] ** exp
        total += coeff
    return total


def test_specialize_matches_direct_evaluation():
    rng = random.Random(8080)
    names = ["a", "b", "c"]
    for _ in range(30):
        qmax = 6
        f = series({n: {
            Monomial([(v, rng.randrange(3)) for v in names]): rng.randrange(-4, 5)
            for _ in range(rng.randrange(4))} for n in range(qmax + 1)}, qmax)
        assignments = {v: rng.choice([-2, -1, 0, 2, 3])
                       for v in rng.sample(names, rng.randrange(1, 4))}
        g = f.specialize(assignments)
        point = {**{v: rng.randrange(-3, 4) for v in names}, **assignments}
        for n in range(qmax + 1):
            assert all(v not in assignments for m in g.coefficient(n).terms
                       for v in m.variables())
            assert _evaluate(g.coefficient(n), point) == \
                _evaluate(f.coefficient(n), point)


def test_large_exponents_expand_and_round_trip_quickly():
    a, b = Monomial.var("a"), Monomial.var("b")
    started = time.perf_counter()
    spec = ProductSpec([ProductFactor(1, a, 1, 2, 300),
                        ProductFactor(-1, b, 2, 3, -450),
                        ProductFactor(1, Monomial.one(), 3, 5, 777)])
    f = product_expand(spec, 16)
    assert reexpand(euler_factorize(f), 16) == f
    assert product_expand(spec.negate_powers(), 16) * f == TruncatedSeries.one(16)
    # (1 + 7q) carries exponents past 10^9 by q^12
    g = series({0: {"1": 1}, 1: {"1": 7}}, 12)
    table = euler_factorize(g)
    assert max(abs(e) for _, _, e in table) > 10 ** 9
    assert reexpand(table, 12) == g
    assert time.perf_counter() - started < 1.0


def test_large_exponent_matches_unit_step_oracle():
    factors = [{"sign": -1, "vars": {"a": 1}, "start": 1, "mod": 2, "power": -200},
               {"sign": 1, "vars": {"b": 2}, "start": 2, "mod": 3, "power": 150}]
    ours = product_expand(ProductSpec(
        ProductFactor(f["sign"], Monomial.from_dict(f["vars"]), f["start"],
                      f["mod"], f["power"]) for f in factors), 8)
    ref = expand_product(factors, 8)
    for n in range(9):
        assert {tuple(m.items): c for m, c in ours.coefficient(n).terms.items()} \
            == ref[n]
