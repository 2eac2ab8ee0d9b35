"""Every output check passes a correct output and rejects one with a single
coefficient changed, so that no check can pass vacuously.

    python3 -m pytest bench/test_reference.py

The correct outputs are built from the references themselves, in the JSON
layout the worker writes; the package is not needed.
"""

from __future__ import annotations

import copy

import pytest

import reference as R

REFS = R.References()


def factors_json(factors) -> list:
    return [{"coeff": {"sign": s, "vars": dict(m)}, "start": start,
             "mod": mod, "power": power}
            for s, m, start, mod, power in factors]


def bump(series: dict, n: int) -> dict:
    """The series with the first coefficient at q^n raised by one."""
    out = copy.deepcopy(series)
    row = out["coefficients"][n]
    if row:
        row[0][0] += 1
    else:
        row.append([1, {}])
    return out


def product_json(factors, qmax, degmax=None) -> dict:
    return R.series_to_json(REFS.product(factors, qmax, degmax), degmax)


def verify_op(identity="theorem-2", equal=True, conventions=None) -> dict:
    return {"report": {"identity": identity, "equal": equal,
                       "first_mismatch": None, "conventions": conventions or {}}}


def search_op(substitution, factors, period, qmax, total) -> dict:
    return {"qmax": qmax, "candidates_total": total,
            "product_like": [{"substitution": substitution, "period": period,
                              "pattern": {"product": factors_json(factors)}}]}


def op(kind, result) -> dict:
    return {"name": kind, "kind": kind, "error": None, "result": result}


def correct_outputs():
    return {
        "verify": verify_op(),
        "expand": {"case": "theorem-6", "series": product_json(R.CRYSTAL, 9, 9)},
        "counts": {"counts": R.distinct_odd_counts(30)},
        "partition-series": {"series": R.series_to_json(
            [{(): p} for p in R.partition_numbers(20)])},
        "statistics": {"statistics": {"identity": "theorem-4", "ok": True,
                                      "samples": 200, "mismatches": []}},
        "equation": {"report": {"name": "primc-eg", "system": "primc-weighted",
                                "holds": True, "failures": []},
                     "total": product_json(R.CRYSTAL, 9)},
        "search-schur": search_op({"c": {"a": 1, "b": 1}}, R.MOD3, 6, 18, 9),
        "search-siladic": dict(
            search_op({c: R.SILADIC_DOCUMENTED[c] for c in ("x0", "x2", "x6")},
                      R.MOD4, 8, 24, 729),
            pinned={"x1": {"a": 1}, "x3": {"b": 1}}),
        "recognize": {"case": "theorem-4", "input": product_json(R.MOD4, 16),
                      "pattern": {"product": factors_json(R.MOD4)}},
    }


def test_every_check_is_exercised():
    assert set(correct_outputs()) == set(R.CHECKS)


@pytest.mark.parametrize("kind", sorted(R.CHECKS))
def test_correct_output_passes(kind):
    assert R.check_operation(op(kind, correct_outputs()[kind]), REFS) == []


def _tampered():
    """(kind, label, output with one coefficient or one verdict changed)."""
    good = correct_outputs()
    out = []

    def variant(kind, label, edit):
        result = copy.deepcopy(good[kind])
        edit(result)
        out.append((kind, label, result))

    variant("expand", "series", lambda r: r.update(series=bump(r["series"], 5)))
    variant("counts", "count", lambda r: r["counts"].__setitem__(
        17, r["counts"][17] + 1))
    variant("partition-series", "series",
            lambda r: r.update(series=bump(r["series"], 12)))
    variant("equation", "total", lambda r: r.update(total=bump(r["total"], 7)))
    variant("equation", "holds", lambda r: r["report"].update(holds=False))
    variant("verify", "equal", lambda r: r["report"].update(equal=False))
    variant("statistics", "ok", lambda r: r["statistics"].update(ok=False))
    variant("recognize", "input", lambda r: r.update(input=bump(r["input"], 9)))
    # a pattern with one factor's exponent changed expands to another series
    variant("recognize", "pattern",
            lambda r: r["pattern"]["product"][1].update(power=-2))
    variant("search-schur", "pattern",
            lambda r: r["product_like"][0]["pattern"]["product"][0].update(power=-2))
    variant("search-schur", "count", lambda r: r.update(candidates_total=10))
    variant("search-schur", "substitution",
            lambda r: r["product_like"][0].update(substitution={"c": {"a": 1}}))
    variant("search-siladic", "pattern",
            lambda r: r["product_like"][0]["pattern"]["product"][1].update(power=-2))
    variant("search-siladic", "period",
            lambda r: r["product_like"][0].update(period=16))
    variant("search-siladic", "count", lambda r: r.update(candidates_total=730))
    variant("search-siladic", "substitution",
            lambda r: r["product_like"][0].update(
                substitution={"x0": {"a": 1}, "x2": {"b": 2}, "x6": {"a": 2}}))
    return out


@pytest.mark.parametrize("kind,label,result", _tampered(),
                         ids=[f"{k}-{label}" for k, label, _ in _tampered()])
def test_changed_output_is_rejected(kind, label, result):
    assert R.check_operation(op(kind, result), REFS) != []


def test_theorem_3_needs_exactly_one_convention():
    one = {"passed": ["A"], "failed": ["B"], "resolved": "A"}
    both = {"passed": ["A", "B"], "failed": [], "resolved": None}
    for conventions, ok in ((one, True), (both, False)):
        result = verify_op("theorem-3", True, conventions)
        assert (R.check_operation(op("verify", result), REFS) == []) is ok


def test_an_operation_that_raised_is_a_problem():
    failed = {"name": "verify:x", "kind": "verify", "error": "ValueError: x",
              "result": None}
    assert R.check_operation(failed, REFS) != []


def test_references_match_known_values():
    # OEIS A000041 and A000700
    assert R.partition_numbers(12) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    assert R.distinct_odd_counts(12) == [1, 1, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3]
    # 1/(q;q) expanded factor by factor gives p(n)
    assert [row.get((), 0) for row in REFS.product(R.PARTITIONS, 12)] == \
        R.partition_numbers(12)
