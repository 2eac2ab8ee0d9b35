"""Direct enumeration of coloured partitions.

This engine builds generating functions the slow, obviously-correct way: a
walk that reaches every valid partition by its own path, largest part
first, and counts it once.  It shares no recursion logic, and no table,
with the recurrence engine, so agreement between the two is a real
cross-check.

Its parts and their weights come from ``ColouredSystem.graded_parts``,
which holds the termination rule every engine shares.

The walk runs over continuation states.  What may follow a chain depends
on its last part's rule (the largest size of each lower (colour, over)
group that may sit directly below it: the gap is read once per gap-matrix
row, part size and group), the size still free below qmax and, under a
degree cap, the colour degree still free below degmax.  A state keyed by
the rule and the degree room is built the first time the walk needs it
and lists only the parts that fit below the rule within that degree room,
ascending by size.  The parts that fit a size room are a prefix of it,
and the walk stops at the first part beyond: it tries no other part that
it cannot place.  A continuation that no part could extend is counted as
a partition but never pushed.

A state holds no count: many chains end in the same state, and the walk
goes through it once for each, adding each of its continuations as a
partition of its own.  That is why every partition is still visited, and
why the node budget counts them all.  A chain is carried as a label: the
packed exponent code of its weight (see ``algebra``), turned back into a
monomial once per distinct (size, code); the tuple of its parts when the
parts themselves are asked for; or 0 when only counts are.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from functools import cache
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .algebra import Monomial, TruncatedSeries, _of_code
from .systems import ColouredPart, ColouredSystem

DEFAULT_MAX_NODES = 10_000_000
_MAX_NODES_ENV = "WWORDS_MAX_NODES"


class EnumerationLimitError(RuntimeError):
    """The partition walk exceeded its node budget, or that budget is not a
    positive integer.  The one budget is the ``WWORDS_MAX_NODES``
    environment variable (default ``DEFAULT_MAX_NODES`` partitions), read
    when a walk starts, for the CLI and the library alike."""


def _node_budget() -> int:
    raw = os.environ.get(_MAX_NODES_ENV)
    if raw is None:
        return DEFAULT_MAX_NODES
    try:
        value = int(raw)
    except ValueError:
        raise EnumerationLimitError(
            f"{_MAX_NODES_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise EnumerationLimitError(f"{_MAX_NODES_ENV} must be positive")
    return value


def _coerce_part(part) -> ColouredPart:
    if isinstance(part, ColouredPart):
        return part
    return ColouredPart(*part)


def partition_weight(sys: ColouredSystem,
                     parts: Iterable[ColouredPart]) -> tuple[Monomial, int]:
    """(product of part weights, total size) for a partition."""
    weight = Monomial.one()
    total = 0
    for p in parts:
        p = _coerce_part(p)
        weight = weight * sys.part_weight(p)
        total += p.size
    return weight, total


def is_valid_partition(sys: ColouredSystem,
                       parts: Sequence) -> tuple[bool, str]:
    """Check a largest-first sequence of parts against the system's rules.

    Returns (True, "") or (False, reason) naming the first violation.
    """
    coerced = [_coerce_part(p) for p in parts]
    for i, p in enumerate(coerced):
        reason = sys.part_validity(p)
        if reason is not None:
            return False, f"part {i + 1} ({p}): {reason}"
    for i in range(len(coerced) - 1):
        upper, lower = coerced[i], coerced[i + 1]
        need = sys.min_gap(upper, lower)
        if upper.size - lower.size < need:
            return False, (
                f"parts {i + 1} and {i + 2} ({upper} over {lower}): "
                f"difference {upper.size - lower.size} is below the "
                f"required {need}")
    return True, ""


def _walk(sys: ColouredSystem, qmax: int, degmax: int | None,
          label: Callable[[ColouredPart, Monomial], object],
          root) -> list[dict]:
    """Count every valid partition of size at most qmax, and of colour
    degree at most degmax, by its label: one dict label -> count per size.

    ``root`` is the empty partition's label and ``label(p, w)`` that of a
    part p of weight w; a chain's label is root + label(p1, w1) + ... .
    The walk keeps its own stack, so neither the number of parts nor the
    degree room is bounded by Python's recursion limit.
    """
    budget = _node_budget()
    # a lower part's (colour, over) group fixes its weight, and with the
    # upper part its gap; each group's parts come ascending by size.
    # Without a cap every degree reads 0, so every part fits any room
    grouped: dict[tuple[str, bool], tuple[Monomial, list[ColouredPart]]] = {}
    for p, w, _ in sys.graded_parts(qmax, degmax):
        grouped.setdefault((p.colour, p.over), (w, []))[1].append(p)
    groups = list(grouped.values())
    reps = [group[0] for _, group in groups]
    sizes = [[p.size for p in group] for _, group in groups]
    degs = [0 if degmax is None else w.degree for w, _ in groups]
    top = max(degs, default=0)
    # a part's rule: per group, the largest size that may sit directly
    # below it.  The gap reads only the part's gap-matrix row, so parts of
    # one row and size share a rule; the last rule, every part up to
    # qmax, is the empty chain's
    rules: dict[tuple[str, int], int] = {}
    limits: list[list[int]] = []
    rule_of: dict[ColouredPart, int] = {}
    for _, group in groups:
        for p in group:
            rule = rules.setdefault((sys.gap.row_class(p), p.size), len(limits))
            if rule == len(limits):
                limits.append([p.size - sys.min_gap(p, rep) for rep in reps])
            rule_of[p] = rule
    limits.append([qmax] * len(reps))
    # need[rule][d]: the least size room in which some part fits below a
    # part of that rule with degree room d (qmax + 1 if none ever does)
    need = [[min((row[0] for row, lim, dg in zip(sizes, lims, degs)
                  if dg <= d and row[0] <= lim), default=qmax + 1)
             for d in range(top + 1)] for lims in limits]
    # one entry per part, shared by every state it continues:
    # (size, label, rule, degree, need of its rule)
    entries = [[(p.size, label(p, w), rule_of[p], deg, need[rule_of[p]])
                for p in group] for (w, group), deg in zip(groups, degs)]
    # a state: the parts that may follow a part of one rule within a
    # degree room, ascending by size, so that a size room is a prefix
    states: dict[int, list] = {}

    def build(rule: int, deg: int) -> list:
        fits = []
        for row, lim, dg, group in zip(sizes, limits[rule], degs, entries):
            if dg <= deg:
                fits += group[:bisect_right(row, lim)]
        fits.sort(key=itemgetter(0))
        states[rule * (top + 1) + deg] = fits
        return fits

    out: list[dict] = [{} for _ in range(qmax + 1)]
    out[0][root] = 1
    visited = 0
    stack = [(len(limits) - 1, qmax, 0 if degmax is None else degmax, root)]
    pop, push = stack.pop, stack.append
    while stack:
        rule, room, deg, chain = pop()
        d = deg if deg < top else top
        fits = states.get(rule * (top + 1) + d) or build(rule, d)
        total = qmax - room
        for s, step, rule2, dg, needs in fits:
            if s > room:
                break
            visited += 1
            key = chain + step
            bucket = out[total + s]
            bucket[key] = bucket.get(key, 0) + 1
            deg2 = deg - dg
            if room - s >= needs[deg2 if deg2 < top else top]:
                push((rule2, room - s, deg2, key))
        if visited > budget:
            raise EnumerationLimitError(
                f"enumeration exceeded {budget} partitions; raise the "
                f"limit via the {_MAX_NODES_ENV} environment variable")
    return out


def enumerate_series(sys: ColouredSystem, qmax: int,
                     degmax: int | None = None) -> TruncatedSeries:
    """Generating function sum(weight * q^size) over all valid partitions,
    truncated beyond q^qmax, by direct enumeration.

    The weights are ``part_weight``'s, so erased variables never enter the
    codes, and degmax bounds the degree of the variables the series keeps.
    """
    # each step adds exponents below the bound, and every prefix of a
    # partition is one too: before a field of a sum could carry into the
    # next, a prefix holds an exponent at the bound, and _of_code raises
    coded = _walk(sys, qmax, degmax, lambda p, w: w._code, 0)
    return TruncatedSeries([{_of_code(c): n for c, n in bucket.items()}
                            for bucket in coded], degmax)


def _rank_order(sys: ColouredSystem) -> Callable[[tuple[ColouredPart, ...]], list]:
    """The sort key ordering chains by their rank sequences."""
    key = cache(sys.part_key)  # every part recurs in many partitions
    return lambda chain: list(map(key, chain))


def partitions_by_size(sys: ColouredSystem, n: int,
                       degmax: int | None = None) -> list[list[tuple[ColouredPart, ...]]]:
    """The valid partitions of each size 0..n from one walk, each listed
    largest part first; the partitions of one size are ordered
    lexicographically by their rank sequences."""
    order = _rank_order(sys)
    return [sorted(chains, key=order)
            for chains in _walk(sys, n, degmax, lambda p, w: (p,), ())]


def list_partitions(sys: ColouredSystem, n: int,
                    degmax: int | None = None) -> list[tuple[ColouredPart, ...]]:
    """All valid partitions of total size exactly n, in the order of
    :func:`partitions_by_size`; only size n is sorted."""
    return sorted(_walk(sys, n, degmax, lambda p, w: (p,), ())[n],
                  key=_rank_order(sys))


def count_partitions(sys: ColouredSystem, qmax: int,
                     degmax: int | None = None) -> list[int]:
    """Number of valid partitions of each 0..qmax (weights ignored)."""
    return [sum(by_label.values())
            for by_label in _walk(sys, qmax, degmax, lambda p, w: 0, 0)]
