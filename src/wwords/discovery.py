"""Discovery tools: periodic-product recognition and colour-relation search.

Two instruments for exploring a coloured system whose generating function is
not yet understood:

* :func:`recognize_periodic_product` inspects the Euler factorization of a
  series and decides whether the factor exponents settle into a repeating
  pattern ``table[n] == table[n + m]`` past a short initial segment.  When
  they do, it packages the pattern as a :class:`~wwords.algebra.ProductSpec`
  and re-expands it; a pattern is returned only if the re-expansion
  reproduces the input exactly, so a recognized pattern is always sound
  (recognition may fail, but it may not lie).

* :func:`search_relations` hunts for monomial substitutions of a system's
  free colour variables that turn its generating function into a periodic
  product.  Each free variable ranges over monomials in a chosen set of
  primary variables with bounded exponents; candidates are scored by whether
  the substituted series is product-like and by how many distinct Euler
  factor families one period carries.

The search factorizes the unsubstituted series once, on the early window
that its filter compares.  Substituting variables by monomials maps each
Euler factor ``(1 - mono * q^n)`` to a factor at the same ``q`` power, so
the substituted table's rows are the relabelled rows with colliding entries
summed.  Two invariants of that merge filter the candidates once per search
instead of relabelling per candidate: a row's exponent total does not
depend on the candidate, which decides the (period, initial) pairs alive on
an early window, and its first moment in one primary coordinate is affine
in that coordinate of the images, which decides each live pair per
coordinate.  Only the survivors are substituted and handed to
:func:`recognize_periodic_product`, which alone decides whether a series is
a product and what its pattern is.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .algebra import (
    Monomial,
    ProductFactor,
    ProductSpec,
    SubstitutionMap,
    TruncatedSeries,
    euler_factorize,
    product_expand,
    substitute,
)
from .enumeration import enumerate_series
from .systems import ColouredSystem

__all__ = [
    "DiscoveryError",
    "PeriodicPattern",
    "RelationCandidate",
    "recognize_periodic_product",
    "search_relations",
]

#: Hard ceiling on the number of substitutions a relation search may visit.
SEARCH_SPACE_LIMIT = 1_000_000


class DiscoveryError(ValueError):
    """Raised for invalid discovery requests (bad order, oversized search)."""


# ---------------------------------------------------------------------------
# Periodic-product recognition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodicPattern:
    """A verified periodic Euler-factor pattern for a series.

    ``period`` is the minimal period ``m`` of the factor table, ``initial``
    the minimal number ``s <= m`` of leading positions excluded from the
    pattern, and ``spec`` an infinite-product specification whose expansion
    reproduces the recognized series on its whole window.
    ``factors_per_period`` counts the distinct factor families inside one
    period (positions ``initial + 1 .. initial + period``).
    """

    period: int
    initial: int
    spec: ProductSpec
    factors_per_period: int

    def to_json(self) -> dict:
        return {
            "period": self.period,
            "initial": self.initial,
            "factors_per_period": self.factors_per_period,
            "product": self.spec.to_json(),
        }


def _pairs(qmax: int) -> list[tuple[int, int]]:
    """Candidate (period, initial) pairs for a window ``0..qmax``, smallest first.

    Periods up to ``qmax // 3`` are considered, so every accepted pattern is
    witnessed by at least two full repetitions inside the window; each period
    allows initial segments ``0 <= initial <= period``.
    """
    return [(m, s) for m in range(1, qmax // 3 + 1) for s in range(m + 1)]


def _periods(rows: Sequence[Mapping], pairs, upto: int) -> list[tuple[int, int]]:
    """The pairs with rows[n] == rows[n + period] on degrees initial+1..upto."""
    return [(m, s) for m, s in pairs
            if all(rows[n] == rows[n + m] for n in range(s + 1, upto - m + 1))]


def _pattern_factors(rows: Sequence[Mapping[Monomial, int]],
                     m: int, s: int) -> list[ProductFactor]:
    """Factor list realizing the given periodic rows.

    Positions ``s + 1 .. s + m`` become one factor family each per monomial,
    repeating with step ``m``.  A position ``n <= s`` outside the pattern is
    realized as a quotient of two families offset by one period, which leaves
    a single net factor at ``n``.
    """
    factors: list[ProductFactor] = []
    for n in range(1, s + 1):
        for mono in sorted(rows[n]):
            e = rows[n][mono]
            factors.append(ProductFactor(1, mono, n, m, e))
            factors.append(ProductFactor(1, mono, n + m, m, -e))
    for p in range(s + 1, s + m + 1):
        for mono in sorted(rows[p]):
            factors.append(ProductFactor(1, mono, p, m, rows[p][mono]))
    return factors


def recognize_periodic_product(f: TruncatedSeries) -> PeriodicPattern | None:
    """Recognize a periodic infinite-product shape in a series.

    The series is Euler-factorized (its constant term must be 1) and the
    factor exponents at each ``q`` power are tested for periodicity.  On
    success the periodic pattern is re-expanded and compared against the
    input on the whole window; ``None`` is returned when no period is found
    *or* when the re-expansion check fails, so any returned pattern is a
    proven product representation up to the truncation order.  The window
    is the series' own, ``0..f.qmax``: to recognize a shorter window, pass
    ``f.truncate(n)``.
    """
    qmax = f.qmax
    # euler_factorize lists each (mono, n) once, with e != 0 and n <= qmax
    rows: list[dict] = [{} for _ in range(qmax + 1)]
    for mono, n, e in euler_factorize(f):
        rows[n][mono] = e
    if all(not row for row in rows):
        return PeriodicPattern(1, 0, ProductSpec([]), 0)
    found = _periods(rows, _pairs(qmax), qmax)
    if not found:
        return None
    m, s = found[0]
    spec = ProductSpec(_pattern_factors(rows, m, s))
    if product_expand(spec, qmax, f.degmax) != f:
        return None
    nfactors = sum(len(rows[p]) for p in range(s + 1, s + m + 1))
    return PeriodicPattern(m, s, spec, nfactors)


# ---------------------------------------------------------------------------
# Colour-relation search
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RelationCandidate:
    """One substitution of free colour variables, with its recognition result.

    ``substitution`` maps each free variable to a monomial in the primary
    variables (the empty monomial erases the colour).  ``pattern`` is the
    recognized periodic product of the substituted series when one exists.
    A search makes one per substitution, tens of thousands of them, so an
    instance holds its fields in slots and carries no ``__dict__``.
    """

    substitution: tuple[tuple[str, Monomial], ...]
    product_like: bool
    pattern: PeriodicPattern | None

    @property
    def period(self) -> int | None:
        return self.pattern.period if self.pattern else None

    @property
    def factors_per_period(self) -> int | None:
        return self.pattern.factors_per_period if self.pattern else None

    def to_json(self) -> dict:
        data = {
            "substitution": {v: mono.to_json() for v, mono in self.substitution},
            "product_like": self.product_like,
            "period": self.period,
            "factors_per_period": self.factors_per_period,
        }
        if self.pattern is not None:
            data["pattern"] = self.pattern.to_json()
        return data


def _early_window(qmax: int) -> int:
    """Smallest window on which no (period, initial) pair is vacuous: the
    loosest pair (m, m), m = qmax // 3, still gets checked at degree 2m + 1.

    The invariant filter reads the Euler table on this window and nowhere
    else, so the search factorizes only the series truncated to it.
    """
    return min(qmax, 2 * (qmax // 3) + 1)


def _survivors(table, free: Sequence[str], prims: Sequence[str], max_exponent: int,
               qmax: int) -> set[tuple[tuple[int, ...], ...]] | None:
    """The substitutions whose early Euler-factor rows may be periodic.

    A substitution is a tuple holding, per free variable, its image's
    exponent vector on ``prims``.  Substitution merges the entries of a row
    that collide, so per ``other`` key (the variables neither free nor
    primary) two invariants of the row follow:

    * its exponent total is the same for every substitution;
    * its first moment in ``prims[j]``, the sum of each exponent times the
      entry's power of ``prims[j]`` once substituted, is
      ``const_j + sum_i lin_i * c_i``: affine in the ``j``-th coordinates
      ``c`` of the images alone.

    ``rows[n] == rows[n + m]`` needs both to agree, so a (period, initial)
    pair whose totals differ is dead, and on a live pair each coordinate is
    decided over the ``(max_exponent + 1) ** len(free)`` coordinate
    vectors.  Both sides are compared as differences, so an ``other`` key
    whose entries cancel counts as absent, as it does in a substituted row.
    A substitution is kept when, for some live pair, its coordinate vectors
    pass on every coordinate.  ``None`` means the window is too short for
    any pair, and then every substitution must be recognized.

    Only the entries of ``table`` with ``n <= _early_window(qmax)`` are
    read, so a table of the series truncated to that window gives the same
    set: a factor step at degree ``n`` writes only buckets ``n`` and above,
    so the entries up to the window do not depend on the buckets past it.
    """
    pairs = _pairs(qmax)
    if not pairs:
        return None
    window = _early_window(qmax)
    nprims, nfree = len(prims), len(free)
    # a moment vector holds const_0 .. const_{nprims-1}, then lin_0 .. lin_{nfree-1}
    index = {v: j for j, v in enumerate([*prims, *free])}
    totals: list[dict] = [dict() for _ in range(window + 1)]
    moments: list[dict] = [dict() for _ in range(window + 1)]
    for mono, n, e in table:
        if n > window:
            continue
        other = tuple((v, k) for v, k in mono.items if v not in index)
        totals[n][other] = totals[n].get(other, 0) + e
        moment = moments[n].setdefault(other, [0] * (nprims + nfree))
        for v, k in mono.items:
            if v in index:
                moment[index[v]] += e * k
    totals = [{o: t for o, t in row.items() if t} for row in totals]

    coords = list(itertools.product(range(max_exponent + 1), repeat=nfree))
    zero = [0] * (nprims + nfree)
    keep = set()
    for m, s in _periods(totals, pairs, window):
        conditions: set[tuple[int, ...]] = set()
        for n in range(s + 1, window - m + 1):
            lo, hi = moments[n], moments[n + m]
            for other in lo.keys() | hi.keys():
                d = tuple(x - y for x, y in zip(lo.get(other, zero),
                                                hi.get(other, zero)))
                if any(d):
                    conditions.add(d)
        diffs = [(d[:nprims], d[nprims:]) for d in conditions]
        passing: list[list] = [[] for _ in range(nprims)]
        for c in coords:
            # test one difference at a time; stop once no primary passes
            alive = range(nprims)
            for const, lin in diffs:
                dot = sum(a * x for a, x in zip(lin, c))
                alive = [j for j in alive if const[j] + dot == 0]
                if not alive:
                    break
            for j in alive:
                passing[j].append(c)
        # one coordinate vector per primary, transposed to one image per free
        keep.update(tuple(zip(*cs)) for cs in itertools.product(*passing))
    return keep


def search_relations(system: ColouredSystem,
                     primaries: Sequence[str],
                     qmax: int,
                     max_exponent: int = 2) -> list[RelationCandidate]:
    """Search substitutions of free colours that make the series a product.

    Every colour variable of ``system`` neither listed in ``primaries`` nor
    erased is free; each free variable independently ranges over monomials
    ``prod(primary ** e)`` with ``0 <= e <= max_exponent``.  Primaries are
    never substituted.  The system's series is enumerated once to order
    ``qmax``.  Its Euler factors are built only on the early window that
    the invariant filter compares (:func:`_early_window`): the table of the
    truncated series is exactly the full table's entries up to that window,
    in the same order, since a factor step writes no bucket below its own
    degree.  Candidates that pass the filter are substituted on the whole
    window and passed to :func:`recognize_periodic_product`, which
    factorizes and re-expands each one to order ``qmax``; product-like
    candidates carry the :class:`PeriodicPattern` it returns.

    Candidates are returned sorted best first: product-like before not,
    fewer factor families per period before more, and enumeration order
    (free variables sorted, exponent vectors in lexicographic order) breaks
    ties, so the result is deterministic.
    """
    if qmax < 1:
        raise DiscoveryError("search needs a positive truncation order")
    if max_exponent < 0:
        raise DiscoveryError("max_exponent must be non-negative")
    prims = list(primaries)
    if not prims or len(set(prims)) != len(prims):
        raise DiscoveryError("primaries must be a non-empty list of distinct variables")
    free = sorted(set(system.variables()) - set(prims) - set(system.erased_vars))

    per_var = (max_exponent + 1) ** len(prims)
    total = per_var ** len(free)
    if total > SEARCH_SPACE_LIMIT:
        raise DiscoveryError(
            f"search space of {total} substitutions exceeds {SEARCH_SPACE_LIMIT}; "
            "reduce max_exponent or the number of free colours")

    base = enumerate_series(system, qmax)
    keep = _survivors(euler_factorize(base.truncate(_early_window(qmax))),
                      free, prims, max_exponent, qmax)

    vecs = list(itertools.product(range(max_exponent + 1), repeat=len(prims)))
    image_monos = {vec: Monomial.from_dict({p: e for p, e in zip(prims, vec) if e})
                   for vec in vecs}
    # one (variable, image) pair per free variable and image, shared by
    # every candidate's substitution
    choices = [[(v, image_monos[vec]) for vec in vecs] for v in free]
    found: list[RelationCandidate] = []
    rest: list[RelationCandidate] = []
    for images, sub in zip(itertools.product(vecs, repeat=len(free)),
                           itertools.product(*choices)):
        if keep is None or images in keep:
            mapping = SubstitutionMap(1, {v: (mono, 0) for v, mono in sub})
            pattern = recognize_periodic_product(
                substitute(base, mapping, qmax, base.degmax))
            if pattern is not None:
                found.append(RelationCandidate(sub, True, pattern))
                continue
        rest.append(RelationCandidate(sub, False, None))
    # Stable sort keeps enumeration order among equal scores.
    found.sort(key=lambda c: c.pattern.factors_per_period)
    return found + rest
