"""Fuzzing of the four JSON loaders (system, equation, product, series) and
of the CLI commands that read their files.

Each example takes a valid document, replaces, deletes or adds up to three
of its nodes (huge and at-the-bound integers, floats, booleans, strings,
null, empty containers), and then

* calls the loader: it may refuse the document only with a package error or
  with one of the errors ``cli._from_json`` reports as a malformed file;
* runs the command that reads the file through ``cli.main``: no exception
  may escape, the exit code is 0 or 2, and 1 only for an equation that was
  checked and does not hold.

The commands carry their own order bounds (``--qmax``, ``--degmax``,
``--kmax``), so that a huge number in the file cannot ask for unbounded work,
except that product documents also run through ``expand`` with ``--qmax``
alone, and equation documents through ``check-eq`` without ``--kmax``: a
product's cost must follow qmax, not a power in the file, and an equation
check must stop once its terms no longer change with k, not at the file's
``kmax_default``.  Every run must end within ``RUN_SECONDS``.
"""

import io
import json
import signal
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from wwords import (  # noqa: E402
    ColouredSystem,
    EquationSpec,
    ProductSpec,
    TruncatedSeries,
    build_preset,
    identity_case,
    product_expand,
)
from wwords.algebra import EXPONENT_BOUND  # noqa: E402
from wwords.cli import _PACKAGE_ERRORS, main  # noqa: E402
from wwords.recurrence import builtin_equation  # noqa: E402

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)

#: what cli._from_json turns into a usage error naming the file
MALFORMED = (LookupError, TypeError, AttributeError, ValueError)
#: wall-clock bound on one command; each takes milliseconds when it ends
RUN_SECONDS = 5


class Overran(Exception):
    """A command ran past RUN_SECONDS."""


def _documents():
    """Per kind: a valid document, its loader, and the command reading it."""
    theorem_2 = identity_case("theorem-2").product
    return {
        "system": (build_preset("distinct-odd").to_json(), ColouredSystem,
                   lambda p: ["enumerate", p, "--qmax", "3", "--degmax", "3"]),
        # an overline marker and size-0 parts, which need the degree cap
        "system-overlined": (build_preset("primary-overpartitions(1)").to_json(),
                             ColouredSystem,
                             lambda p: ["enumerate", p, "--qmax", "3",
                                        "--degmax", "3"]),
        # a gap class modulus, forbidden parts and residue domains with
        # parity rows
        "system-parity-rows": (build_preset("siladic-weighted").to_json(),
                               ColouredSystem,
                               lambda p: ["enumerate", p, "--qmax", "3",
                                          "--degmax", "3"]),
        "equation": (builtin_equation("schur-rec-a").to_json(), EquationSpec,
                     lambda p: ["check-eq", p, "--qmax", "4", "--kmax", "3"]),
        "equation-uncapped": (builtin_equation("schur-rec-a").to_json(),
                              EquationSpec,
                              lambda p: ["check-eq", p, "--qmax", "4"]),
        "product": (theorem_2.to_json(), ProductSpec,
                    lambda p: ["expand", "--product", p, "--qmax", "4",
                               "--degmax", "4"]),
        "product-uncapped": (theorem_2.to_json(), ProductSpec,
                             lambda p: ["expand", "--product", p, "--qmax", "4"]),
        "series": (product_expand(theorem_2, 4).to_json(), TruncatedSeries,
                   lambda p: ["euler-factor", "--series", p]),
    }


DOCUMENTS = _documents()

values = st.one_of(
    st.sampled_from([EXPONENT_BOUND, EXPONENT_BOUND - 1, EXPONENT_BOUND // 2,
                     2 ** 63, -2 ** 63, 10 ** 30, -1, 0, 1, 2]),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.sampled_from(["a", "b", "x"]),
                    st.integers(-2, EXPONENT_BOUND), max_size=2),
)


def _paths(node, path=()):
    """The path of every node below the root, parents first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def spoiled(draw, kind):
    doc = json.loads(json.dumps(DOCUMENTS[kind][0]))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parent_path, key = draw(st.sampled_from(paths))
        parent = doc
        for step in parent_path:
            parent = parent[step]
        action = draw(st.sampled_from(["replace", "replace", "delete", "add"]))
        if action == "replace":
            parent[key] = draw(values)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(["x", "extra", "degmax"]))] = draw(values)
        else:
            parent.append(draw(values))
    return doc


def _overran(signum, frame):
    raise Overran(f"the command ran past {RUN_SECONDS} s")


def _run_bounded(argv: list[str]) -> int:
    """cli.main(argv), interrupted by Overran after RUN_SECONDS."""
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.setitimer(signal.ITIMER_REAL, RUN_SECONDS)
    try:
        return main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _check(kind, doc, tmp_path):
    _, loader, argv = DOCUMENTS[kind]
    try:
        loader.from_json(doc)
    except (*_PACKAGE_ERRORS, *MALFORMED):
        pass
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = _run_bounded(["--format", "json", *argv(str(path))])
    report = json.loads(out.getvalue())
    assert code in (0, 1, 2), err.getvalue()
    if code == 1:
        assert kind.startswith("equation") and report["holds"] is False, (
            err.getvalue())
    if code == 2:
        assert set(report) == {"error"} and err.getvalue().startswith("error: ")


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_unspoiled_documents_load_and_run(kind, tmp_path):
    doc, loader, argv = DOCUMENTS[kind]
    assert loader.from_json(doc).to_json() == doc
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    with redirect_stdout(io.StringIO()):
        assert _run_bounded(argv(str(path))) == 0


def test_huge_kmax_default_ends(tmp_path):
    # checking each k up to 10^12 once kept this run from ending
    doc = {**DOCUMENTS["equation-uncapped"][0], "kmax_default": 10 ** 12}
    path = tmp_path / "equation.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with redirect_stdout(out):
        assert _run_bounded(["--format", "json", "check-eq", str(path),
                             "--qmax", "4"]) == 0
    assert json.loads(out.getvalue())["k_range"] == [1, 10 ** 12]


@pytest.mark.parametrize("keep_coefficients,code", [(False, 1), (True, 2)])
def test_huge_negative_kmin_ends(tmp_path, keep_coefficients, code):
    # checking each k from -10^12 kept this run from ending; without its
    # coefficients every G below k = 0 is 0, and with them a q^k turns
    # negative at kmin
    doc = {**DOCUMENTS["equation-uncapped"][0], "kmin": -10 ** 12}
    for side in () if keep_coefficients else ("lhs", "rhs"):
        doc[side] = [{n: v for n, v in t.items() if n != "coeff"}
                     for t in doc[side]]
    path = tmp_path / "equation.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert _run_bounded(["--format", "json", "check-eq", str(path),
                             "--qmax", "4"]) == code
    report = json.loads(out.getvalue())
    if code == 1:
        assert report["k_range"] == [-10 ** 12, 15]
        assert report["failures"][0]["k"] == 1
    else:
        assert "negative at k=-1000000000000" in report["error"]


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_spoiled_documents_give_package_errors_only(kind, tmp_path):
    @FUZZ
    @given(spoiled(kind))
    def check(doc):
        _check(kind, doc, tmp_path)

    check()
