"""The three workloads: their set-up, their operations, and the plain JSON
each operation's output is turned into for the checks in ``reference.py``.

Each workload function does the set-up (imports, presets, registries) and
returns the operations in an order shuffled by the seed.  An operation's
``run`` makes the package calls the matching ``wwords`` subcommand makes,
looked up on the package when it runs so that the tracer's wrappers are
seen; its ``convert`` runs after the operation's timed span.

The orders keep one round of each workload within 1.5 to 4 s on a 2-core
machine, so that a run repeats every operation several times and can
report each one's median; bench/README.md lists which cases
run below their registered orders and why.
"""

from __future__ import annotations

import random
from typing import Any, Callable, NamedTuple

import wwords


class Operation(NamedTuple):
    name: str
    kind: str                       # selects the check in reference.CHECKS
    run: Callable[[], Any]
    convert: Callable[[Any], dict]


#: identity cases run below their registered order: (qmax, degmax)
IDENTITY_ORDERS = {
    "theorem-1": (30, None), "theorem-4": (30, None), "theorem-5": (30, None),
    "theorem-2": (20, None), "schur-dilated": (20, None),
    "theorem-3": (20, None),
    "theorem-6": (14, 14), "theorem-7": (16, None),
    "primc-conjecture": (16, None),
    "theorem-8-r2": (10, 7), "theorem-8-r3": (7, 5),
}
THEOREM_1_COUNT_ORDER = 30
STATISTICS_CASES = ("theorem-4", "theorem-5")

EQUATION_QMAX = 14
EQUATION_KMAX = {"primc-qdiff": 14}

SEARCH_PRIMARIES = ("a", "b")
SEARCH_MAX_EXPONENT = 2
SCHUR_SEARCH = ("schur-dilated-mod3", 18)
#: the siladic search runs with two of its five free colours already
#: assigned their documented images, which leaves 9**3 = 729 candidates
#: instead of 59,049; period 8 still needs q24
SILADIC_SEARCH = ("siladic-dilated-free", 24)
SILADIC_PINNED = {"x1": "a", "x3": "b"}
RECOGNIZE_QMAX = 24


def _shuffled(ops: list[Operation], seed: int) -> list[Operation]:
    random.Random(seed).shuffle(ops)
    return ops


def _report_json(report) -> dict:
    doc = report.to_json()
    doc.pop("ms")  # wall time; the benchmark times operations itself
    return {"report": doc}


def identities(seed: int) -> list[Operation]:
    """Every identity case with every applicable engine, its product side,
    the two counting specializations and the sampled statistics."""
    cases = wwords.identity_cases()
    dilated_two_colour = wwords.build_preset("siladic-dilated")
    dilated_crystal = wwords.build_preset("primc-dilated")
    ops = []
    for name, case in cases.items():
        qmax, degmax = IDENTITY_ORDERS.get(name, (case.qmax, case.degmax))
        ops.append(Operation(
            f"verify:{name}", "verify",
            lambda case=case, q=qmax, d=degmax:
                wwords.verify_identity(case, q, d),
            _report_json))
        if case.product is not None:
            ops.append(Operation(
                f"expand:{name}", "expand",
                lambda case=case, q=qmax, d=degmax:
                    wwords.product_expand(case.product, q, d),
                lambda s, name=name: {"case": name, "series": s.to_json()}))
    ops.append(Operation(
        "counts:theorem-1", "counts",
        lambda: wwords.count_partitions(dilated_two_colour,
                                        THEOREM_1_COUNT_ORDER),
        lambda counts: {"counts": counts}))
    q = IDENTITY_ORDERS["primc-conjecture"][0]
    ops.append(Operation(
        "partition-series:primc-conjecture", "partition-series",
        lambda: wwords.dp_series(dilated_crystal, q).specialize(
            {"a": 1, "c": 1, "d": 1}),
        lambda s: {"series": s.to_json()}))
    for name in STATISTICS_CASES:
        ops.append(Operation(
            f"statistics:{name}", "statistics",
            lambda case=cases[name]: wwords.check_statistics(case, seed=seed),
            lambda stats: {"statistics": stats}))
    return _shuffled(ops, seed)


def equations(seed: int) -> list[Operation]:
    """Every registered equation at one order, each on a recurrence state
    the workload builds, so that the state's total series can be checked."""
    specs = wwords.builtin_equations()
    systems = {name: wwords.build_preset(name)
               for name in {s.system for s in specs}}

    def check(spec):
        system = systems[spec.system]
        state = wwords.RecurrenceState(system, EQUATION_QMAX,
                                       direction="largest")
        report = wwords.check_equation(spec, system,
                                       EQUATION_KMAX.get(spec.name),
                                       EQUATION_QMAX, state=state)
        return report, state.total_series()

    ops = [Operation(f"equation:{spec.name}", "equation",
                     lambda spec=spec: check(spec),
                     lambda out: {"report": out[0].to_json(),
                                  "total": out[1].to_json()})
           for spec in specs]
    return _shuffled(ops, seed)


def discovery(seed: int) -> list[Operation]:
    """Two colour-relation searches and the recognition of every registry
    product."""
    cases = wwords.identity_cases()
    ops = []
    schur_preset, schur_q = SCHUR_SEARCH
    siladic_preset, siladic_q = SILADIC_SEARCH
    siladic = wwords.relabel_colours(
        wwords.build_preset(siladic_preset), {},
        {colour: wwords.Monomial.var(image)
         for colour, image in SILADIC_PINNED.items()},
        f"{siladic_preset}-pinned")
    pinned = {colour: {image: 1} for colour, image in SILADIC_PINNED.items()}
    for kind, preset, system, qmax, extra in (
            ("search-schur", schur_preset, wwords.build_preset(schur_preset),
             schur_q, {}),
            ("search-siladic", siladic_preset, siladic, siladic_q,
             {"pinned": pinned})):
        ops.append(Operation(
            f"{kind}:{preset}", kind,
            lambda system=system, q=qmax: wwords.search_relations(
                system, SEARCH_PRIMARIES, q, SEARCH_MAX_EXPONENT),
            lambda found, q=qmax, extra=extra: {
                "qmax": q, "candidates_total": len(found), **extra,
                "product_like": [c.to_json() for c in found
                                 if c.product_like]}))

    def recognize(product):
        f = wwords.product_expand(product, RECOGNIZE_QMAX)
        return f, wwords.recognize_periodic_product(f)

    for name, case in cases.items():
        if case.product is not None:
            ops.append(Operation(
                f"recognize:{name}", "recognize",
                lambda product=case.product: recognize(product),
                lambda out, name=name: {
                    "case": name, "input": out[0].to_json(),
                    "pattern": out[1].to_json() if out[1] else None}))
    return _shuffled(ops, seed)


WORKLOADS = {"identities": identities, "equations": equations,
             "discovery": discovery}
