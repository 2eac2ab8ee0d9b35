"""Tests for the command-line interface."""

import dataclasses
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import wwords.verify
from wwords import (
    MatrixGap,
    Monomial,
    ProductFactor,
    ProductSpec,
    TruncatedSeries,
    build_preset,
    enumerate_series,
    identity_case,
    list_partitions,
    product_expand,
)
from wwords.algebra import EXPONENT_BOUND
from wwords.cli import main
from wwords.recurrence import builtin_equation

from helpers import erased_zero_system

B2_MATRIX = {
    "a": {"a": 4, "b": 1, "c": 3, "d": 2},
    "b": {"a": 3, "b": 0, "c": 2, "d": 1},
    "c": {"a": 1, "b": 2, "c": 0, "d": 3},
    "d": {"a": 2, "b": 3, "c": 1, "d": 4},
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(["--format", "json", *argv])
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# list-presets
# ---------------------------------------------------------------------------


class TestListPresets:
    def test_text_lists_systems_and_identities(self):
        code, out, err = run(["list-presets"])
        assert code == 0
        assert "schur-weighted" in out
        assert "theorem-2" in out
        assert out.index("systems:") < out.index("identities:")

    def test_json_document(self):
        code, doc, _ = run_json(["list-presets"])
        assert code == 0
        assert set(doc) == {"presets", "identities"}
        assert "primc-weighted" in doc["presets"]
        assert "theorem-8-r3" in doc["identities"]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class TestVerify:
    def test_verified_identity_exits_zero(self):
        code, doc, _ = run_json(["verify", "theorem-2", "--qmax", "12"])
        assert code == 0
        assert doc["equal"] is True
        assert doc["first_mismatch"] is None
        assert doc["qmax"] == 12
        # timing is omitted so JSON output is reproducible byte for byte
        assert set(doc) == {"identity", "qmax", "degmax", "engines", "equal",
                            "first_mismatch", "conventions"}

    def test_text_and_json_verdicts_agree(self):
        code_t, out_t, _ = run(["verify", "theorem-2", "--qmax", "12"])
        code_j, doc, _ = run_json(["verify", "theorem-2", "--qmax", "12"])
        assert code_t == code_j == 0
        assert "equal: yes" in out_t
        assert "elapsed-ms:" in out_t
        assert doc["equal"] is True

    def test_json_runs_are_byte_identical(self):
        argv = ["--format", "json", "verify", "theorem-2", "--qmax", "10"]
        outs = [run(argv)[1] for _ in range(2)]
        assert outs[0] == outs[1]

    def test_engine_subset_is_respected(self):
        code, doc, _ = run_json(["verify", "theorem-2", "--qmax", "10",
                                 "--engines", "enum,product"])
        assert code == 0
        assert doc["engines"] == ["enum", "product"]

    def test_corrupted_gap_matrix_reports_mismatch(self, monkeypatch):
        pristine = wwords.verify.build_preset

        def corrupted(name):
            system = pristine(name)
            if name != "schur-weighted":
                return system
            rows = {rk: dict(cols) for rk, cols in system.gap.rows.items()}
            first_row = next(iter(rows))
            first_col = next(iter(rows[first_row]))
            rows[first_row][first_col] += 1
            return dataclasses.replace(
                system, gap=MatrixGap(rows, system.gap.class_modulus))

        monkeypatch.setattr(wwords.verify, "build_preset", corrupted)
        code, doc, _ = run_json(["verify", "theorem-2", "--qmax", "12"])
        assert code == 1
        assert doc["equal"] is False
        mismatch = doc["first_mismatch"]
        assert mismatch is not None
        assert set(mismatch) == {"n", "monomial", "lhs", "rhs"}
        # the report is still emitted in text mode too
        code_t, out_t, _ = run(["verify", "theorem-2", "--qmax", "12"])
        assert code_t == 1
        assert "equal: no" in out_t
        assert "first mismatch" in out_t

    def test_unknown_identity_is_usage_error(self):
        code, out, err = run(["--format", "json", "verify", "no-such"])
        assert code == 2
        assert "unknown identity" in err
        assert "usage:" in err
        assert json.loads(out) == {"error": err.splitlines()[0][len("error: "):]}

    def test_indistinguishable_conventions_are_usage_error(self):
        code, out, err = run(["--format", "json", "verify", "theorem-3",
                              "--qmax", "0"])
        assert code == 2
        assert "indistinguishable" in err
        assert json.loads(out) == {"error": err.splitlines()[0][len("error: "):]}

    def test_conventions_all_failing_exit_one(self, monkeypatch):
        cases = wwords.verify.identity_cases()
        wrong = ProductSpec([ProductFactor(-1, Monomial.var("a"), 1, 1, -1),
                             ProductFactor(-1, Monomial.var("b"), 2, 1, -1)])
        cases["theorem-3"] = dataclasses.replace(cases["theorem-3"],
                                                 product=wrong)
        monkeypatch.setattr(wwords.verify, "identity_cases", lambda: cases)
        code, doc, _ = run_json(["verify", "theorem-3", "--qmax", "10"])
        assert code == 1
        assert doc["conventions"] == {"passed": [], "failed": ["A", "B"],
                                      "resolved": None}
        # engines in request order: enumeration's 1 before the product's 0
        assert doc["first_mismatch"] == {"n": 1, "monomial": {"b": 1},
                                         "lhs": "1", "rhs": "0"}

    def test_inapplicable_engine_is_engine_error(self):
        code, out, err = run(["verify", "theorem-2", "--engines", "dilation"])
        assert code == 2
        assert "not applicable" in err
        assert out == ""

    def test_unknown_flag_is_usage_error(self):
        code, out, err = run(["verify", "theorem-2", "--bogus"])
        assert code == 2
        assert "usage:" in err

    def test_statistics_check_uses_seed(self):
        argv = ["--format", "json", "--seed", "11", "verify", "theorem-4",
                "--qmax", "24", "--statistics", "--samples", "25"]
        code, out, _ = run(argv)
        doc = json.loads(out)
        assert code == 0
        assert doc["statistics"]["ok"] is True
        assert doc["statistics"]["seed"] == 11
        assert doc["statistics"]["samples"] == 25
        assert run(argv)[1] == out  # reproducible with the same seed

    def test_statistics_unavailable_is_engine_error(self):
        code, _, err = run(["verify", "theorem-2", "--qmax", "10",
                            "--statistics"])
        assert code == 2
        assert "statistic" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "theorem-6", "--qmax", "12", "--degmax", "5"],
        ["check-eq", "primc-eg", "--qmax", "12", "--degmax", "3"],
        ["check-eq", "primc-qdiff", "--qmax", "12", "--degmax", "2"],
        ["verify", "primc-conjecture", "--qmax", "28", "--degmax", "25"],
        ["verify", "primc-conjecture", "--qmax", "8", "--degmax", "3"],
        ["verify", "theorem-1", "--qmax", "20", "--degmax", "3"],
    ])
    def test_cap_below_qmax_on_erased_variables_holds(self, argv):
        # erased variables leave the part weights, so the cap counts the
        # same degree on both sides; these runs once exited 2 or 1
        code, doc, err = run_json(argv)
        assert code == 0, err
        assert doc.get("equal", doc.get("holds")) is True


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------


class TestExpand:
    def test_expand_known_product(self):
        code, doc, _ = run_json(["expand", "--product", "theorem-2",
                                 "--qmax", "6"])
        assert code == 0
        expected = product_expand(identity_case("theorem-2").product, 6)
        assert TruncatedSeries.from_json(doc["series"]) == expected
        assert doc["table"][1]["coefficient"] == "a + b"

    def test_expand_text_table(self):
        code, out, _ = run(["expand", "--product", "theorem-2", "--qmax", "3"])
        assert code == 0
        assert "q^0 : 1" in out
        assert "q^1 : a + b" in out

    def test_expand_product_file(self, tmp_path):
        path = tmp_path / "product.json"
        path.write_text(json.dumps(identity_case("theorem-2").product.to_json()))
        code_file, doc_file, _ = run_json(["expand", "--product", str(path),
                                           "--qmax", "8"])
        code_name, doc_name, _ = run_json(["expand", "--product", "theorem-2",
                                           "--qmax", "8"])
        assert code_file == code_name == 0
        assert doc_file["table"] == doc_name["table"]

    def test_q0_factor_needs_degmax_whatever_its_power(self, tmp_path):
        # (1 + a)^1000000 at q^0 would cost a million terms at any qmax
        path = tmp_path / "product.json"
        path.write_text(json.dumps([{"coeff": {"sign": -1, "vars": {"a": 1}},
                                     "start": 0, "mod": 1, "power": -10 ** 6}]))
        argv = ["expand", "--product", str(path), "--qmax", "2"]
        code, _, err = run(argv)
        assert code == 2
        assert "needs a degmax cap" in err
        code, doc, _ = run_json([*argv, "--degmax", "1"])
        assert code == 0
        assert doc["table"][0]["coefficient"] == "1 + 1000000*a"

    def test_unknown_product_source(self):
        code, _, err = run(["expand", "--product", "no-such", "--qmax", "5"])
        assert code == 2
        assert "unknown product" in err

    def test_identity_without_product_rejected(self):
        code, _, err = run(["expand", "--product", "theorem-1", "--qmax", "5"])
        assert code == 2
        assert "no product side" in err


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


class TestEnumerate:
    def test_series_matches_library(self):
        code, doc, _ = run_json(["enumerate", "schur-weighted", "--qmax", "8"])
        assert code == 0
        expected = enumerate_series(build_preset("schur-weighted"), 8)
        assert TruncatedSeries.from_json(doc["series"]) == expected

    def test_list_partitions(self):
        code, doc, _ = run_json(["enumerate", "schur-weighted", "--list", "4"])
        assert code == 0
        expected = list_partitions(build_preset("schur-weighted"), 4)
        assert doc["count"] == len(expected) == 9
        assert doc["partitions"][0] == [str(p) for p in expected[0]]

    def test_list_zero_size_text(self):
        code, out, _ = run(["enumerate", "schur-weighted", "--list", "0"])
        assert code == 0
        assert "(empty)" in out

    def test_system_file_round_trip(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(build_preset("schur-weighted").to_json()))
        code_a, doc_a, _ = run_json(["enumerate", str(path), "--qmax", "6"])
        code_b, doc_b, _ = run_json(["enumerate", "schur-weighted",
                                     "--qmax", "6"])
        assert code_a == code_b == 0
        assert doc_a == doc_b

    def test_system_file_with_negative_sizes_is_engine_error(self, tmp_path):
        path = tmp_path / "neg.json"
        path.write_text(json.dumps({
            "name": "neg",
            "colours": [{"label": "a", "weight": {"a": 1}, "domain": {"min": -1}}],
            "rank": {"mult": 1, "offsets": {"a": 0}},
            "gap": {"kind": "matrix", "rows": {"a": {"a": 1}}}}))
        code, out, err = run(["enumerate", str(path), "--qmax", "4",
                              "--degmax", "2"])
        assert code == 2 and out == ""
        assert "negative size -1" in err

    def test_size_zero_parts_of_erased_weight_is_engine_error(self, tmp_path):
        # a size-0 part that weighs only an erased variable repeats without end
        path = tmp_path / "system.json"
        path.write_text(json.dumps(erased_zero_system().to_json()))
        code, out, err = run(["enumerate", str(path), "--qmax", "3",
                              "--degmax", "3"])
        assert code == 2 and out == ""
        assert "size-0 parts of weight 1" in err

    @pytest.mark.parametrize("argv", [
        ["enumerate", "primary-overpartitions(2)", "--qmax", "6"],
        ["enumerate", "andrews-overpartitions(2)", "--list", "4"]])
    def test_size_zero_parts_without_degmax_is_engine_error(self, argv):
        # both walks read graded_parts, whose termination rule refuses them
        code, out, err = run(argv)
        assert code == 2 and out == "" and "Traceback" not in err
        assert "size-0 parts need a degree bound (degmax)" in err

    @pytest.mark.parametrize("marker,reason", [
        (5, "expected a string"), (["t"], "expected a string"),
        (True, "expected a string"),
        ("u1", "overline marker 'u1' is also a colour weight variable")])
    def test_bad_overline_marker_is_refused(self, tmp_path, marker,
                                            reason):
        data = build_preset("primary-overpartitions(2)").to_json()
        path = tmp_path / "system.json"
        argv = ["enumerate", str(path), "--qmax", "3", "--degmax", "2"]
        path.write_text(json.dumps(data))
        assert run(argv)[0] == 0
        data["overline_marker"] = marker
        path.write_text(json.dumps(data))
        code, out, err = run(argv)
        assert code == 2 and out == ""
        assert reason in err and "Traceback" not in err

    def test_parametric_preset(self):
        code, doc, _ = run_json(["enumerate", "primary-overpartitions(1)",
                                 "--qmax", "5", "--degmax", "4"])
        assert code == 0
        assert doc["system"] == "primary-overpartitions-r1"

    def test_parameter_on_plain_preset_is_usage_error(self):
        code, _, _ = run(["enumerate", "schur-weighted(5)", "--qmax", "3"])
        assert code == 2

    @pytest.mark.parametrize("name, reason", [
        ("andrews-overpartitions(0)", "needs r >= 1"),
        ("schur-weighted(5)", "takes no parameter"),
    ])
    def test_refused_preset_reports_why(self, name, reason):
        code, _, err = run(["enumerate", name, "--degmax", "3", "--qmax", "3"])
        assert code == 2
        assert reason in err
        assert "not a readable file" not in err

    def test_unknown_system(self):
        code, _, err = run(["enumerate", "no-such", "--qmax", "5"])
        assert code == 2
        assert "unknown system" in err
        assert "schur-weighted" in err  # usage lists the presets

    @pytest.mark.parametrize("argv", [
        ["discover", "schur-dilated-mod3", "--primaries", "a,b",
         "--qmax", "18"],
        ["verify", "theorem-4", "--qmax", "10", "--engines",
         "recurrence,product", "--statistics"],
    ])
    def test_max_nodes_env_bound_reaches_every_walk(self, monkeypatch, argv):
        monkeypatch.setenv("WWORDS_MAX_NODES", "5")
        code, _, err = run(argv)
        assert code == 2
        assert "WWORDS_MAX_NODES" in err and "5 partitions" in err

    def test_max_nodes_env_bound(self, monkeypatch):
        monkeypatch.setenv("WWORDS_MAX_NODES", "5")
        code, _, err = run(["enumerate", "schur-weighted", "--qmax", "20"])
        assert code == 2
        assert "5" in err
        monkeypatch.setenv("WWORDS_MAX_NODES", "grit")
        code, _, err = run(["enumerate", "schur-weighted", "--qmax", "6"])
        assert code == 2
        assert "integer" in err
        monkeypatch.setenv("WWORDS_MAX_NODES", "-3")
        code, _, err = run(["enumerate", "schur-weighted", "--qmax", "6"])
        assert code == 2
        assert "positive" in err


# ---------------------------------------------------------------------------
# dilate
# ---------------------------------------------------------------------------


class TestDilate:
    def test_crystal_dilation_prints_expected_matrix(self):
        code, doc, _ = run_json([
            "dilate", "primc-weighted", "--modulus", "2",
            "--offsets", '{"a": -1, "b": 0, "c": 0, "d": 1}'])
        assert code == 0
        assert doc["dilated"]["gap"]["rows"] == B2_MATRIX

    def test_text_matrix_rows(self):
        code, out, _ = run([
            "dilate", "primc-weighted", "--modulus", "2",
            "--offsets", '{"a": -1, "b": 0, "c": 0, "d": 1}'])
        assert code == 0
        rows = {}
        in_matrix = False
        for line in out.splitlines():
            if line.strip() == "gap matrix:":
                in_matrix = True
                continue
            if in_matrix and line.strip():
                cells = line.split()
                if cells[0] in B2_MATRIX and len(cells) == 5:
                    rows[cells[0]] = [int(c) for c in cells[1:]]
        assert rows == {
            "a": [4, 1, 3, 2], "b": [3, 0, 2, 1],
            "c": [1, 2, 0, 3], "d": [2, 3, 1, 4]}

    def test_bad_offsets_json(self):
        code, _, err = run(["dilate", "schur-weighted", "--modulus", "3",
                            "--offsets", "{bad"])
        assert code == 2
        assert "not valid JSON" in err

    def test_offsets_must_be_integer_map(self):
        code, _, err = run(["dilate", "schur-weighted", "--modulus", "3",
                            "--offsets", '{"a": 0.5}'])
        assert code == 2
        assert "integers" in err

    def test_unknown_shift_variable_is_usage_error(self):
        code, _, err = run(["dilate", "primc-weighted", "--modulus", "2",
                            "--offsets", '{"zz": 3}'])
        assert code == 2
        assert "'zz'" in err

    def test_overpartition_preset_dilates(self):
        argv = ["dilate", "andrews-overpartitions(2)", "--modulus", "2",
                "--offsets", "{}"]
        code, doc, _ = run_json(argv)
        assert code == 0
        assert doc["dilated"]["gap"]["rows"]["u1"]["u1u2~"] == 4
        code, out, _ = run(argv)
        assert code == 0
        matrix = out[out.index("gap matrix:"):].splitlines()[2:]
        assert len(matrix) == 3 and all("-" not in row for row in matrix)

    def test_inconsistent_dilation_is_engine_error(self):
        code, _, err = run(["dilate", "schur-weighted", "--modulus", "1",
                            "--offsets", '{"a": -9, "b": 0}'])
        assert code == 2
        assert "negative" in err


# ---------------------------------------------------------------------------
# check-eq
# ---------------------------------------------------------------------------


class TestCheckEq:
    def test_builtin_equation_holds(self):
        code, doc, _ = run_json(["check-eq", "schur-rec-a",
                                 "--kmax", "6", "--qmax", "15"])
        assert code == 0
        assert doc["holds"] is True
        assert doc["k_range"] == [1, 6]
        assert doc["failures"] == []

    def test_equation_file(self, tmp_path):
        path = tmp_path / "eq.json"
        path.write_text(json.dumps(builtin_equation("schur-rec-a").to_json()))
        code, doc, _ = run_json(["check-eq", str(path),
                                 "--kmax", "4", "--qmax", "12"])
        assert code == 0
        assert doc["holds"] is True

    def test_tampered_equation_fails_with_report(self, tmp_path):
        data = builtin_equation("schur-rec-a").to_json()
        data["rhs"] = data["rhs"][:1]  # drop a term: the identity now fails
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        code, doc, _ = run_json(["check-eq", str(path),
                                 "--kmax", "4", "--qmax", "12"])
        assert code == 1
        assert doc["holds"] is False
        assert doc["failures"]

    def test_unknown_equation(self):
        code, _, err = run(["check-eq", "no-such", "--kmax", "3"])
        assert code == 2
        assert "unknown equation" in err
        assert "schur-rec-a" in err


# ---------------------------------------------------------------------------
# discover
# ---------------------------------------------------------------------------


class TestDiscover:
    def test_reports_product_like_candidates(self):
        code, doc, _ = run_json(["discover", "schur-dilated-mod3",
                                 "--primaries", "a,b", "--qmax", "18",
                                 "--top", "3"])
        assert code == 0
        assert doc["candidates_total"] == 9
        assert doc["product_like_total"] == 1
        top = doc["candidates"][0]
        assert top["substitution"] == {"c": {"a": 1, "b": 1}}
        assert top["period"] == 6
        assert len(doc["candidates"]) == 3

    def test_discover_is_byte_reproducible(self):
        argv = ["--format", "json", "discover", "schur-dilated-mod3",
                "--primaries", "a,b", "--qmax", "12", "--max-exponent", "1"]
        assert run(argv)[1] == run(argv)[1]

    def test_oversized_search_is_engine_error(self):
        code, _, err = run(["discover", "siladic-dilated-free",
                            "--primaries", "a,b", "--qmax", "24",
                            "--max-exponent", "3"])
        assert code == 2
        assert "exceeds" in err

    def test_empty_primaries_rejected(self):
        code, _, err = run(["discover", "schur-dilated-mod3",
                            "--primaries", " , ", "--qmax", "12"])
        assert code == 2
        assert "--primaries" in err


# ---------------------------------------------------------------------------
# euler-factor
# ---------------------------------------------------------------------------


class TestEulerFactor:
    def test_factorizes_series_file(self, tmp_path):
        f = product_expand(identity_case("theorem-2").product, 12)
        path = tmp_path / "series.json"
        path.write_text(json.dumps(f.to_json()))
        code, doc, _ = run_json(["euler-factor", "--series", str(path)])
        assert code == 0
        assert doc["factors"][0] == {"monomial": {"a": 1}, "n": 1, "exponent": 1}
        assert doc["pattern"]["period"] == 2

    def test_accepts_expand_document(self, tmp_path):
        _, expand_out, _ = run(["--format", "json", "expand",
                                "--product", "theorem-2", "--qmax", "10"])
        path = tmp_path / "expanded.json"
        path.write_text(expand_out)
        code, doc, _ = run_json(["euler-factor", "--series", str(path)])
        assert code == 0
        assert doc["pattern"]["period"] == 2

    def test_non_unit_constant_is_engine_error(self, tmp_path):
        doubled = TruncatedSeries.one(6) + TruncatedSeries.one(6)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doubled.to_json()))
        code, _, err = run(["euler-factor", "--series", str(path)])
        assert code == 2
        assert "constant" in err

    def test_missing_file(self):
        code, _, err = run(["euler-factor", "--series", "/no/such/file.json"])
        assert code == 2
        assert "cannot read" in err

    def test_malformed_series_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"nope": 1}')
        code, _, err = run(["euler-factor", "--series", str(path)])
        assert code == 2
        assert "coefficients" in err


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["enumerate", "schur-weighted", "--qmax", "-1"],
    ["enumerate", "schur-weighted", "--list", "-1"],
    ["enumerate", "schur-weighted", "--degmax", "-1"],
    ["verify", "theorem-2", "--qmax", "-1"],
    ["verify", "theorem-2", "--degmax", "-1"],
    ["check-eq", "schur-rec-a", "--qmax", "-1"],
    ["check-eq", "schur-rec-a", "--degmax", "-1"],
    ["expand", "--product", "theorem-2", "--qmax", "-1"],
    ["expand", "--product", "theorem-2", "--qmax", "4", "--degmax", "-1"],
    ["discover", "schur-dilated-mod3", "--primaries", "a,b", "--qmax", "-1"],
    ["enumerate", "schur-weighted", "--qmax", "ten"],
    ["verify", "theorem-4", "--qmax", "8", "--statistics", "--samples", "-1"],
    ["verify", "theorem-4", "--qmax", "8", "--statistics", "--samples", "0"],
    ["discover", "schur-dilated-mod3", "--primaries", "a,b", "--qmax", "12",
     "--top", "-1"],
])
def test_bad_order_is_usage_error(argv):
    proc = subprocess.run([sys.executable, "-m", "wwords.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "usage:" in proc.stderr


# ---------------------------------------------------------------------------
# malformed input files
# ---------------------------------------------------------------------------


def _good_input(kind):
    """A valid input document of each kind, and the command that reads it."""
    if kind == "system":
        return (build_preset("distinct-odd").to_json(),
                lambda path: ["enumerate", path, "--qmax", "3"])
    if kind == "product":
        return (identity_case("theorem-2").product.to_json(),
                lambda path: ["expand", "--product", path, "--qmax", "3"])
    if kind == "equation":
        return (builtin_equation("schur-rec-a").to_json(),
                lambda path: ["check-eq", path, "--qmax", "4"])
    product = identity_case("theorem-2").product
    return (product_expand(product, 4).to_json(),
            lambda path: ["euler-factor", "--series", path])


@pytest.mark.parametrize("kind,spoil", [
    pytest.param("system", lambda d: d.pop("gap"), id="system-no-gap"),
    pytest.param("system",
                 lambda d: d["colours"][0]["domain"].update(modulus="2"),
                 id="system-string-modulus"),
    pytest.param("system", lambda d: d["gap"].update(rows=[]),
                 id="system-rows-list"),
    pytest.param("system", lambda d: d.update(erased="bc"),
                 id="system-string-erased"),
    pytest.param("system", lambda d: d.update(erased=["bb"]),
                 id="system-uncarried-erased"),
    pytest.param("system", lambda d: d.update(erased=[1]),
                 id="system-number-erased"),
    pytest.param("system", lambda d: d.update(name=["x", {"y": 1}]),
                 id="system-list-name"),
    pytest.param("system", lambda d: d.update(description=7),
                 id="system-number-description"),
    pytest.param("system", lambda d: d["colours"][0].update(label=7),
                 id="system-number-label"),
    pytest.param("system", lambda d: d.update(forbidden=[[1, 7]]),
                 id="system-number-forbidden-colour"),
    pytest.param("system", lambda d: d["gap"].update(class_modulus=0),
                 id="system-zero-class-modulus"),
    pytest.param("system",
                 lambda d: d["colours"][0]["domain"].pop("modulus"),
                 id="system-residues-without-modulus"),
    pytest.param("product", lambda d: d[0].pop("start"),
                 id="product-no-start"),
    pytest.param("product", lambda d: d[1].update(power="x"),
                 id="product-word-power"),
    pytest.param("equation", lambda d: d.pop("lhs"), id="equation-no-lhs"),
    pytest.param("equation", lambda d: d.update(kmin="k"),
                 id="equation-word-kmin"),
    pytest.param("equation", lambda d: d["rhs"][1].update(size=5),
                 id="equation-scalar-size"),
    pytest.param("equation", lambda d: d["lhs"][0].update(size=[1]),
                 id="equation-short-size"),
    pytest.param("equation", lambda d: d.update(system=[]),
                 id="equation-list-system"),
    pytest.param("equation", lambda d: d["lhs"][0].update(colour=["a"]),
                 id="equation-list-colour"),
    pytest.param("equation", lambda d: d.update(colours="ab"),
                 id="equation-string-colours"),
    pytest.param("series", lambda d: d.update(qmax="q"),
                 id="series-word-qmax"),
    pytest.param("series", lambda d: d["coefficients"].append(5),
                 id="series-scalar-coefficient"),
])
def test_malformed_input_file_is_usage_error(tmp_path, kind, spoil):
    doc, argv = _good_input(kind)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    assert run(argv(str(path)))[0] == 0
    spoil(doc)
    path.write_text(json.dumps(doc))
    code, _, err = run(argv(str(path)))
    assert code == 2, err
    assert str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind,spoil", [
    pytest.param("product", lambda d: d[0]["coeff"].update(vars={"a": 1.5}),
                 id="product-float-exponent"),
    pytest.param("product", lambda d: d[0].update(power=1.5),
                 id="product-float-power"),
    pytest.param("product", lambda d: d[0].update(start=True),
                 id="product-bool-start"),
    pytest.param("series", lambda d: d["coefficients"][1][0].__setitem__(0, 1.5),
                 id="series-float-coefficient"),
    pytest.param("series", lambda d: d.update(qmax=4.0), id="series-float-qmax"),
    pytest.param("system", lambda d: d["rank"].update(mult=1.0),
                 id="system-float-rank"),
    pytest.param("system", lambda d: d["gap"]["rows"]["a"].update(a=2.5),
                 id="system-float-gap"),
    pytest.param("equation", lambda d: d["rhs"][1].update(size=[1, -1.0]),
                 id="equation-float-size"),
])
def test_non_integer_number_is_usage_error(tmp_path, kind, spoil):
    """A JSON number that is not an integer is refused, not truncated."""
    doc, argv = _good_input(kind)
    spoil(doc)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "wwords.cli",
                           *argv(str(path))], capture_output=True, text=True)
    assert proc.returncode == 2, proc.stdout
    assert "expected an integer" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("kind,spoil", [
    pytest.param("system", lambda d: d["colours"][0].update(overline="false"),
                 id="system-string-overline"),
    pytest.param("system", lambda d: d["colours"][0].update(overline=1),
                 id="system-number-overline"),
    pytest.param("equation", lambda d: d["rhs"][1].update(over="false"),
                 id="equation-string-over"),
])
def test_non_boolean_flag_is_usage_error(tmp_path, kind, spoil):
    """A JSON flag that is not true or false is refused, not coerced."""
    doc, argv = _good_input(kind)
    spoil(doc)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "wwords.cli",
                           *argv(str(path))], capture_output=True, text=True)
    assert proc.returncode == 2, proc.stdout
    assert "expected a boolean" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("exponent", [
    pytest.param(EXPONENT_BOUND, id="factor-at-the-bound"),
    pytest.param(EXPONENT_BOUND // 2, id="square-at-the-bound"),
])
def test_exponent_at_the_bound_is_engine_error(tmp_path, exponent):
    """An exponent the monomial codes cannot hold, read from the file or
    reached by the expansion, is refused by the variable's name."""
    doc = identity_case("theorem-2").product.to_json()
    doc[0]["coeff"]["vars"] = {"a": exponent}
    path = tmp_path / "product.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "wwords.cli", "expand",
                           "--product", str(path), "--qmax", "4"],
                          capture_output=True, text=True)
    assert proc.returncode == 2, proc.stdout
    assert f"exponent {EXPONENT_BOUND} of variable 'a'" in proc.stderr
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


class TestEntryPoints:
    def test_help_exits_zero(self):
        code, out, _ = run(["--help"])
        assert code == 0

    def test_module_is_runnable(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wwords.cli", "list-presets"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "schur-weighted" in proc.stdout

    @pytest.mark.parametrize("fmt, qmax", [("json", "40"), ("text", "100")])
    def test_reader_closing_the_pipe_early_keeps_the_exit_code(self, fmt, qmax):
        # each prints over 100 kB, more than a pipe holds, so the write is
        # still going when the reader stops
        proc = subprocess.Popen(
            [sys.executable, "-m", "wwords.cli", "--format", fmt, "expand",
             "--product", "theorem-2", "--qmax", qmax],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == 0, err
        assert err == ""

    def test_console_script_installed(self):
        exe = shutil.which("wwords")
        assert exe, "console script 'wwords' not on PATH"
        proc = subprocess.run([exe, "--format", "json", "list-presets"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "presets" in json.loads(proc.stdout)
