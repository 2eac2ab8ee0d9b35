"""Direct enumeration of coloured partitions.

This engine builds generating functions the slow, obviously-correct way: a
depth-first walk over every valid partition, largest part first, checking the
gap condition between consecutive parts.  It shares no recursion logic with
the recurrence engine, so agreement between the two is a real cross-check.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

from .algebra import Monomial, TruncatedSeries
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


def _prepare(sys: ColouredSystem, qmax: int, degmax: int | None):
    if qmax < 0:
        raise ValueError("qmax must be >= 0")
    sys.check_termination(degmax)
    parts = sys.parts_up_to(qmax)
    if degmax is not None:
        parts = [p for p in parts if sys.part_weight(p).degree <= degmax]
    below: dict[ColouredPart, list[ColouredPart]] = {}
    for p in parts:
        cands = []
        for p2 in parts:
            if p2.size <= p.size - sys.min_gap(p, p2):
                cands.append(p2)
        below[p] = cands
    return parts, below


def _walk(sys: ColouredSystem, qmax: int, degmax: int | None, visit):
    """Run the DFS, calling visit(chain, weight, total) at every partition.

    The empty partition is visited first with weight 1 and total 0.  The
    walk keeps its own stack, one frame per part of the current chain, so
    the number of parts is not bounded by Python's recursion limit.
    """
    parts, below = _prepare(sys, qmax, degmax)
    budget = _node_budget()
    count = 0
    weights = {p: sys.part_weight(p) for p in parts}
    degs = {p: w.degree for p, w in weights.items()}

    visit((), Monomial.one(), 0)
    chain: list[ColouredPart] = []
    # frames: (parts that may come next, weight of the chain, its size)
    stack = [(iter(parts), Monomial.one(), 0)]
    while stack:
        candidates, weight, total = stack[-1]
        for p in candidates:
            t = total + p.size
            if t > qmax or (degmax is not None
                            and weight.degree + degs[p] > degmax):
                continue
            count += 1
            if count > budget:
                raise EnumerationLimitError(
                    f"enumeration exceeded {budget} partitions; raise the "
                    f"limit via the {_MAX_NODES_ENV} environment variable")
            w = weight * weights[p]
            chain.append(p)
            visit(tuple(chain), w, t)
            stack.append((iter(below[p]), w, t))
            break
        else:
            stack.pop()
            if stack:
                chain.pop()


def enumerate_series(sys: ColouredSystem, qmax: int,
                     degmax: int | None = None) -> TruncatedSeries:
    """Generating function sum(weight * q^size) over all valid partitions,
    truncated beyond q^qmax, by direct enumeration.

    Weight degrees are bounded by degmax *before* erased variables are set
    to 1; erasure happens on the final series.
    """
    buckets: list[dict[Monomial, int]] = [dict() for _ in range(qmax + 1)]

    def visit(chain, weight, total):
        buckets[total][weight] = buckets[total].get(weight, 0) + 1

    _walk(sys, qmax, degmax, visit)
    series = TruncatedSeries(buckets, degmax)
    if sys.erased_vars:
        series = series.specialize({v: 1 for v in sys.erased_vars})
    return series


def list_partitions(sys: ColouredSystem, n: int,
                    degmax: int | None = None) -> list[tuple[ColouredPart, ...]]:
    """All valid partitions of total size exactly n, each listed largest part
    first, ordered lexicographically by their rank sequences."""
    found: list[tuple[ColouredPart, ...]] = []

    def visit(chain, weight, total):
        if total == n:
            found.append(chain)

    _walk(sys, n, degmax, visit)
    found.sort(key=lambda ch: [sys.part_key(p) for p in ch])
    return found


def count_partitions(sys: ColouredSystem, qmax: int,
                     degmax: int | None = None) -> list[int]:
    """Number of valid partitions of each 0..qmax (weights ignored)."""
    counts = [0] * (qmax + 1)

    def visit(chain, weight, total):
        counts[total] += 1

    _walk(sys, qmax, degmax, visit)
    return counts
