"""Named identity verification.

Each registered :class:`IdentityCase` states one partition identity: a
coloured system with difference conditions (the B side) whose generating
function is claimed to equal an independently computed A side — an infinite
product, a plainly countable second system, or both.  ``verify_identity``
computes every requested engine to the same truncation order and compares
the series they return pairwise, exactly.  A B side dilated by q -> q^m,
v -> v*q^shift(v) is a row of ``systems.DILATED_PRESETS``, which states
its weighted source and dilation once.  A case's erased variables (set to
1) leave the part weights of every system it runs.

Engines:

``enum``
    direct enumeration of the B side (and of the A side when the A side is
    itself a coloured system);
``recurrence``
    the part-by-part recurrence of :mod:`wwords.recurrence` (its
    smallest-part order, which builds totals fastest);
``product``
    expansion of the stated infinite product;
``dilation``
    for a case whose B side is a dilated preset: run the recurrence on its
    weighted source with the tables graded by dilated size, which gives
    the dilated series without building the dilated system.

A report never claims more than coefficient-level equality to the verified
order; it is evidence, not a proof.
"""

from __future__ import annotations

import random
import time
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, replace
from functools import cache

from .algebra import (Monomial, ProductFactor, ProductSpec, TruncatedSeries,
                      product_expand)
from .enumeration import (enumerate_series, partition_weight,
                          partitions_by_size)
from .recurrence import dp_series
from .systems import (DILATED_PRESETS, ColouredPart, ColouredSystem,
                      build_preset)

__all__ = [
    "ENGINES",
    "IdentityCase",
    "Report",
    "VerificationError",
    "check_statistics",
    "coefficient_table",
    "format_coefficient_table",
    "identity_case",
    "identity_cases",
    "identity_names",
    "verify_identity",
]


class VerificationError(ValueError):
    """Unusable engine selection, unknown case, or malformed table request."""


#: canonical engine order; reports list engines in request order
ENGINES = ("enum", "recurrence", "product", "dilation")


# ---------------------------------------------------------------------------
# case model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCase:
    """One verifiable identity.

    ``side_b`` names the preset system carrying the difference conditions.
    The A side is ``product`` (an infinite product), ``side_a`` (a second
    system counting the same objects), or both.  ``erased`` names the
    variables the identity sets to 1: every system the case runs leaves
    them out of its part weights, keeping their dilation shifts.  The
    ``dilation`` engine applies when ``side_b`` is a dilated preset.  A
    case with ``conventions`` tries each named variant of the B side and
    asserts that exactly one matches the A side.  ``statistic`` names a
    textual part-counting rule checked against colour weights by sampling
    (see :func:`check_statistics`).
    """

    name: str
    side_b: str
    product: ProductSpec | None = None
    side_a: str | None = None
    qmax: int = 30
    degmax: int | None = None
    erased: tuple[str, ...] = ()
    conventions: Mapping[str, str] | None = None
    statistic: str | None = None

    def applicable_engines(self) -> tuple[str, ...]:
        out = ["enum", "recurrence"]
        if self.product is not None:
            out.append("product")
        if self.side_b in DILATED_PRESETS:
            out.append("dilation")
        return tuple(out)


@dataclass
class Report:
    """Outcome of one verification run.

    ``equal`` means every computed series agreed pairwise on every
    coefficient up to the verified order.  When ``equal`` is false,
    ``first_mismatch`` holds the smallest disagreeing exponent, the
    smallest disagreeing monomial at that exponent, and both coefficients.
    ``conventions`` records how a multi-convention case was resolved.
    ``ms`` is wall-clock duration; it is the only nondeterministic field.
    """

    identity: str
    qmax: int
    degmax: int | None
    engines: tuple[str, ...]
    equal: bool
    first_mismatch: dict | None
    conventions: dict
    ms: int

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "qmax": self.qmax,
            "degmax": self.degmax,
            "engines": list(self.engines),
            "equal": self.equal,
            "first_mismatch": self.first_mismatch,
            "conventions": dict(self.conventions),
            "ms": self.ms,
        }


# ---------------------------------------------------------------------------
# series production
# ---------------------------------------------------------------------------


@cache
def _case_preset(name: str, erased: tuple[str, ...]) -> ColouredSystem:
    """Built and checked once per key.  The erased variables some colour
    weight carries leave the part weights; the constructor refuses
    erasing another."""
    sys = build_preset(name)
    return replace(sys, erased_vars=sys.erased_vars + tuple(
        v for v in erased if v in sys.carried_vars))


def _engine_series(case: IdentityCase, engine: str, side_b: str,
                   qmax: int, degmax: int | None) -> list[TruncatedSeries]:
    """Every series one engine contributes, with ``side_b`` as the B side."""
    def system(name: str) -> ColouredSystem:
        return (_case_preset(name, case.erased) if case.erased
                else build_preset(name))

    if engine == "product":
        return [product_expand(case.product, qmax, degmax)]
    if engine == "dilation":
        source, dilation = DILATED_PRESETS[case.side_b]
        return [dp_series(system(source), qmax, degmax, dilation)]
    run = enumerate_series if engine == "enum" else dp_series
    return [run(system(name), qmax, degmax)
            for name in (side_b, case.side_a) if name is not None]


def _first_mismatch(fa: TruncatedSeries,
                    fb: TruncatedSeries) -> dict | None:
    for n in range(min(fa.qmax, fb.qmax) + 1):
        ta, tb = fa.coefficient(n).terms, fb.coefficient(n).terms
        if ta != tb:
            mono = min((m for m in ta.keys() | tb.keys()
                        if ta.get(m, 0) != tb.get(m, 0)), key=Monomial.sort_key)
            return {
                "n": n,
                "monomial": dict(mono.items),
                "lhs": str(ta.get(mono, 0)),
                "rhs": str(tb.get(mono, 0)),
            }
    return None


def _compare_all(series: list[TruncatedSeries]) -> tuple[bool, dict | None]:
    # agreeing on 0..qmax is an equivalence, so comparing each series with
    # the first finds the pair that comparing all pairs would find first
    for other in series[1:]:
        mismatch = _first_mismatch(series[0], other)
        if mismatch is not None:
            return False, mismatch
    return True, None


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def verify_identity(case: IdentityCase | str, qmax: int | None = None,
                    degmax: int | None = None,
                    engines: Iterable[str] | None = None) -> Report:
    """Compute every requested engine and compare each result with the first.

    ``qmax`` and ``degmax`` left at ``None`` take the case's own values,
    so a case's degree cap cannot be lifted, only lowered.  ``engines``
    defaults to every engine applicable to the case; requesting an
    inapplicable one raises :class:`VerificationError` listing the
    applicable set.  A case's erased variables leave the part weights of
    every system it runs, so every engine counts the same degree, and a
    ``degmax`` below ``qmax`` compares the same capped series.
    """
    if isinstance(case, str):
        case = identity_case(case)
    started = time.monotonic()
    if qmax is None:
        qmax = case.qmax
    if degmax is None:
        degmax = case.degmax
    applicable = case.applicable_engines()
    if engines is None:
        chosen = applicable
    else:
        chosen = tuple(dict.fromkeys(engines))
        if not chosen:
            raise VerificationError("no engines requested")
        for eng in chosen:
            if eng not in ENGINES:
                raise VerificationError(
                    f"unknown engine {eng!r}; engines: {', '.join(ENGINES)}")
            if eng not in applicable:
                raise VerificationError(
                    f"engine {eng!r} is not applicable to {case.name}; "
                    f"applicable engines: {', '.join(applicable)}")

    if case.conventions:
        if "product" not in chosen:
            raise VerificationError(
                f"{case.name} resolves its small-part convention against the "
                "product side; include the 'product' engine")
        if not any(e in ("enum", "recurrence") for e in chosen):
            raise VerificationError(
                f"{case.name} needs a system engine (enum or recurrence) to "
                "attempt each convention")
    passed: list[str | None] = []
    failed: list[str | None] = []
    mismatch: dict | None = None
    for conv_name, preset in (case.conventions or {None: case.side_b}).items():
        ok, first = _compare_all([
            f for eng in chosen
            for f in _engine_series(case, eng, preset, qmax, degmax)])
        (passed if ok else failed).append(conv_name)
        mismatch = mismatch or first
    equal = len(passed) == 1
    conventions: dict = {}
    if case.conventions:
        conventions = {"passed": passed, "failed": failed,
                       "resolved": passed[0] if equal else None}
        if not equal and mismatch is None:
            raise VerificationError(
                f"conventions {passed} of {case.name} are indistinguishable "
                f"at qmax={qmax}; raise qmax")
    if equal:
        mismatch = None

    ms = int((time.monotonic() - started) * 1000)
    return Report(identity=case.name, qmax=qmax, degmax=degmax,
                  engines=chosen, equal=equal, first_mismatch=mismatch,
                  conventions=conventions, ms=ms)


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------


def coefficient_table(f: TruncatedSeries, upto: int) -> list[dict]:
    """Rows ``{"n", "coefficient", "terms"}`` for q^0 .. q^upto.

    Term order within a row is the graded-lexicographic monomial order, so
    the table is deterministic.
    """
    if upto < 0 or upto > f.qmax:
        raise VerificationError(
            f"table range 0..{upto} is outside the series window 0..{f.qmax}")
    rows = []
    for n in range(upto + 1):
        poly = f.coefficient(n)
        rows.append({
            "n": n,
            "coefficient": str(poly),
            "terms": [{"monomial": dict(mono.items), "coefficient": str(c)}
                      for mono, c in poly.sorted_terms()],
        })
    return rows


def format_coefficient_table(rows: list[dict]) -> str:
    if not rows:
        return ""
    width = len(str(rows[-1]["n"]))
    return "\n".join(
        f"q^{row['n']:<{width}} : {row['coefficient']}" for row in rows)


# ---------------------------------------------------------------------------
# textual statistic rules
# ---------------------------------------------------------------------------


#: rule name -> ((u variable, v variable), pool cap, terms).  A term
#: (i, n, colours, m, residues) reads: each part whose colour is in colours
#: (any colour when None) and whose size mod m is in residues adds n to
#: count i, u for 0 and v for 1
_STATISTIC_RULES = {
    "siladic-mod4": (("a", "b"), 36, (
        (0, 1, None, 4, {0, 1}),
        (0, 2, None, 8, {6}),
        (1, 1, None, 4, {0, 3}),
        (1, 2, None, 8, {2}),
    )),
    # the mod-3 companion: a2, b2 are its primed colours, the rest ordinary
    "companion-mod6": (("a", "b"), 28, (
        (0, 1, {"a", "b", "ab"}, 3, {0, 1}),
        (0, 2, {"a2", "b2"}, 6, {5}),
        (1, 1, {"a", "b", "ab"}, 3, {0, 2}),
        (1, 2, {"a2", "b2"}, 6, {1}),
    )),
}


def _textual_counts(terms, parts: tuple[ColouredPart, ...]) -> list[int]:
    """[u, v] of a partition under one rule's terms."""
    counts = [0, 0]
    for p in parts:
        for i, n, colours, m, residues in terms:
            if (colours is None or p.colour in colours) and p.size % m in residues:
                counts[i] += n
    return counts


def check_statistics(case: IdentityCase | str, samples: int = 200,
                     seed: int = 2026) -> dict:
    """Sample valid partitions of the case's system and check that the
    textual part-counting rule reproduces the colour-weight exponents.

    The pool is every valid partition of 0 up to the rule's pool cap;
    ``samples`` of them are drawn with the seeded generator (all of them
    when the pool is smaller); fewer than one sample is refused.
    """
    if samples < 1:
        raise VerificationError(f"samples must be at least 1, not {samples}")
    if isinstance(case, str):
        case = identity_case(case)
    if case.statistic is None:
        raise VerificationError(
            f"{case.name} has no sampled-statistic rule")
    variables, max_n, terms = _STATISTIC_RULES[case.statistic]
    sys_b = build_preset(case.side_b)
    pool = [chain for chains in partitions_by_size(sys_b, max_n)
            for chain in chains]
    rng = random.Random(seed)
    chosen = pool if len(pool) <= samples else rng.sample(pool, samples)
    mismatches = []
    for partition in chosen:
        weight, _total = partition_weight(sys_b, partition)
        expected = [weight.exponent(v) for v in variables]
        got = _textual_counts(terms, partition)
        if got != expected:
            mismatches.append({
                "partition": [str(p) for p in partition],
                "textual": got,
                "weights": expected,
            })
    return {
        "identity": case.name,
        "statistic": case.statistic,
        "seed": seed,
        "pool": len(pool),
        "samples": len(chosen),
        "ok": not mismatches,
        "mismatches": mismatches[:5],
    }


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


def _poch(var: str, start: int, mod: int) -> ProductFactor:
    """One factor family (1 + var*q^start)(1 + var*q^(start+mod))..."""
    return ProductFactor(-1, Monomial.var(var), start, mod, -1)


def _two_colour_product() -> ProductSpec:
    """(1+aq^1)(1+aq^2)... times (1+bq^1)(1+bq^2)...: distinct parts in two
    colours."""
    return ProductSpec([_poch("a", 1, 1), _poch("b", 1, 1)])


def _mod3_product() -> ProductSpec:
    """Distinct a-coloured parts = 1 (mod 3) and b-coloured parts = 2 (mod 3)."""
    return ProductSpec([_poch("a", 1, 3), _poch("b", 2, 3)])


def _mod4_product() -> ProductSpec:
    """Distinct a-coloured parts = 1 (mod 4) and b-coloured parts = 3 (mod 4)."""
    return ProductSpec([_poch("a", 1, 4), _poch("b", 3, 4)])


def _crystal_product() -> ProductSpec:
    """Odd distinct parts coloured a or d over unrestricted parts and
    c-coloured odd parts."""
    return ProductSpec([
        _poch("a", 1, 2),
        _poch("d", 1, 2),
        ProductFactor(1, Monomial.one(), 1, 1, 1),
        ProductFactor(1, Monomial.var("c"), 1, 2, 1),
    ])


def _crystal_dilated_product() -> ProductSpec:
    """The crystal product after q -> q^2 with the documented colour shifts."""
    return ProductSpec([
        _poch("a", 1, 4),
        _poch("d", 3, 4),
        ProductFactor(1, Monomial.one(), 2, 2, 1),
        ProductFactor(1, Monomial.var("c"), 2, 4, 1),
    ])


def _partition_product() -> ProductSpec:
    """1/(q;q): all ordinary partitions."""
    return ProductSpec([ProductFactor(1, Monomial.one(), 1, 1, 1)])


def identity_cases() -> dict[str, IdentityCase]:
    """The registry, keyed by case name, in documentation order."""
    cases = [
        # both colour statistics erased, the gap-5 mod-8 system counts distinct odd parts
        IdentityCase(
            name="theorem-1",
            side_b="siladic-dilated",
            side_a="distinct-odd",
            erased=("a", "b"),
            qmax=60),
        # three-colour distinct-part system vs distinct parts in two free colours
        IdentityCase(
            name="theorem-2",
            side_b="schur-weighted",
            product=_two_colour_product(),
            qmax=30),
        # mod-3 gap system, the m=3 dilation of theorem-2's, vs distinct parts = 1, 2 mod 3
        IdentityCase(
            name="schur-dilated",
            side_b="schur-dilated",
            product=_mod3_product(),
            qmax=30),
        # five-colour parity-gap system vs distinct parts in two free colours; one convention works
        IdentityCase(
            name="theorem-3",
            side_b="siladic-weighted",
            product=_two_colour_product(),
            conventions={"A": "siladic-weighted",
                         "B": "siladic-weighted-convB"},
            qmax=30),
        # gap-5 mod-8 system, statistics (u, v) from part residues, vs distinct parts = 1, 3 mod 4
        IdentityCase(
            name="theorem-4",
            side_b="siladic-dilated",
            product=_mod4_product(),
            statistic="siladic-mod4",
            qmax=60),
        # ordinary/primed gaps 4..7, the m=3 dilation of theorem-3's, vs distinct parts = 1, 2 mod 3
        IdentityCase(
            name="theorem-5",
            side_b="schur-companion",
            product=_mod3_product(),
            statistic="companion-mod6",
            qmax=60),
        # four-colour crystal system (b erased) vs the product: numerators a, d, denominators 1, c
        IdentityCase(
            name="theorem-6",
            side_b="primc-weighted",
            product=_crystal_product(),
            qmax=25,
            degmax=25),
        # parity-split crystal system vs the dilated mixed product (m=2 dilation of theorem-6)
        IdentityCase(
            name="theorem-7",
            side_b="primc-dilated",
            product=_crystal_dilated_product(),
            qmax=50),
        # all colour statistics erased, the parity-split crystal system counts ordinary partitions
        IdentityCase(
            name="primc-conjecture",
            side_b="primc-dilated",
            product=_partition_product(),
            erased=("a", "c", "d"),
            qmax=40),
    ]
    # 2^r - 1 composite colours, gaps w + chi - 1 + delta, vs overpartitions in r primary colours
    for r, qm, dm in ((1, 12, 8), (2, 12, 8), (3, 10, 6)):
        cases.append(IdentityCase(
            name=f"theorem-8-r{r}",
            side_b=f"andrews-overpartitions({r})",
            side_a=f"primary-overpartitions({r})",
            qmax=qm,
            degmax=dm))
    return {c.name: c for c in cases}


def identity_names() -> list[str]:
    return list(identity_cases())


def identity_case(name: str) -> IdentityCase:
    cases = identity_cases()
    if name not in cases:
        raise VerificationError(
            f"unknown identity {name!r}; known: {', '.join(cases)}")
    return cases[name]
