"""Independent reference implementations used to freeze expected values.

Nothing in this file imports the package under test.  Series here are plain
``list[dict]`` structures: entry n is a dict mapping a monomial key (a sorted
tuple of (variable, exponent) pairs) to an integer coefficient.  The
arithmetic is deliberately naive — straight convolutions and recursions — so
it shares no code or conventions with the package.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm


Key = tuple[tuple[str, int], ...]

ONE: Key = ()


def key_of(vars_: dict[str, int]) -> Key:
    return tuple(sorted((v, e) for v, e in vars_.items() if e))


def key_mul(k1: Key, k2: Key) -> Key:
    merged: dict[str, int] = {}
    for v, e in k1:
        merged[v] = merged.get(v, 0) + e
    for v, e in k2:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items()))


def key_pow(k: Key, p: int) -> Key:
    return tuple((v, e * p) for v, e in k)


def series_one(qmax: int) -> list[dict[Key, int]]:
    s: list[dict[Key, int]] = [{} for _ in range(qmax + 1)]
    s[0][ONE] = 1
    return s


def series_mul(a: list[dict[Key, int]], b: list[dict[Key, int]],
               qmax: int) -> list[dict[Key, int]]:
    out: list[dict[Key, int]] = [{} for _ in range(qmax + 1)]
    for i in range(qmax + 1):
        if not a[i]:
            continue
        for j in range(qmax + 1 - i):
            if not b[j]:
                continue
            tgt = out[i + j]
            for k1, c1 in a[i].items():
                for k2, c2 in b[j].items():
                    k = key_mul(k1, k2)
                    c = tgt.get(k, 0) + c1 * c2
                    if c:
                        tgt[k] = c
                    else:
                        del tgt[k]
    return out


def _single_factor(sign: int, key: Key, n: int, power: int,
                   qmax: int) -> list[dict[Key, int]]:
    """(1 - sign * x * q^n)^(-power) for power in {1, -1}, naively."""
    s = series_one(qmax)
    if power == -1:                      # the factor itself: 1 - sign x q^n
        if n <= qmax:
            s[n][key] = s[n].get(key, 0) - sign
            if not s[n][key]:
                del s[n][key]
        return s
    assert power == 1                    # geometric series 1/(1 - sign x q^n)
    k = 1
    while k * n <= qmax and n > 0:
        s[k * n][key_pow(key, k)] = sign ** k
        k += 1
    return s


def expand_product(factors: list[dict], qmax: int) -> list[dict[Key, int]]:
    """Expand factors given as {'sign','vars','start','mod','power'} dicts.

    Each entry means  prod_{j>=0} (1 - sign * x^vars * q^(start+j*mod))^(-power).
    """
    acc = series_one(qmax)
    for f in factors:
        sign = f.get("sign", 1)
        key = key_of(f.get("vars", {}))
        power = f["power"]
        step = f["mod"]
        n = f["start"]
        if n == 0:
            raise ValueError("oracle only handles factors starting at q^1 or later")
        while n <= qmax:
            unit = 1 if power > 0 else -1
            for _ in range(abs(power)):
                acc = series_mul(acc, _single_factor(sign, key, n, unit, qmax), qmax)
            n += step
    return acc


def coeffs_at_one(series: list[dict[Key, int]]) -> list[int]:
    """Collapse all colour variables to 1."""
    return [sum(d.values()) for d in series]


# ---------------------------------------------------------------------------
# classical counting sequences
# ---------------------------------------------------------------------------


def partition_numbers(qmax: int) -> list[int]:
    """p(0..qmax) via the pentagonal-number recurrence."""
    p = [0] * (qmax + 1)
    p[0] = 1
    for n in range(1, qmax + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def distinct_odd_counts(qmax: int) -> list[int]:
    """Number of partitions of n into distinct odd parts, by direct recursion."""

    @lru_cache(maxsize=None)
    def count(n: int, largest_allowed: int) -> int:
        if n == 0:
            return 1
        total = 0
        part = min(largest_allowed, n)
        if part % 2 == 0:
            part -= 1
        while part >= 1:
            total += count(n - part, part - 2)
            part -= 2
        return total

    return [count(n, n if n % 2 else n - 1) for n in range(qmax + 1)]


def distinct_part_counts(qmax: int) -> list[int]:
    """Number of partitions of n into distinct parts (any residue)."""

    @lru_cache(maxsize=None)
    def count(n: int, largest_allowed: int) -> int:
        if n == 0:
            return 1
        total = 0
        for part in range(min(largest_allowed, n), 0, -1):
            total += count(n - part, part - 1)
        return total

    return [count(n, n) for n in range(qmax + 1)]


def overpartition_numbers(qmax: int) -> list[int]:
    """Number of overpartitions of n: expand prod (1+q^k)/(1-q^k) naively."""
    coeffs = [0] * (qmax + 1)
    coeffs[0] = 1
    for k in range(1, qmax + 1):
        # multiply by (1 + q^k)
        nxt = coeffs[:]
        for i in range(qmax + 1 - k):
            nxt[i + k] += coeffs[i]
        coeffs = nxt
        # multiply by 1/(1 - q^k)
        for i in range(k, qmax + 1):
            coeffs[i] += coeffs[i - k]
    return coeffs


# ---------------------------------------------------------------------------
# brute-force coloured partition enumeration
# ---------------------------------------------------------------------------


def brute_force_partitions(qmax: int, parts: list, size_of, allowed_pair):
    """All finite non-increasing chains of 'parts' with total size <= qmax.

    ``parts``: candidate part objects;  ``size_of(p)``: positive int;
    ``allowed_pair(upper, lower)``: may ``lower`` sit directly below
    ``upper``?  Chains are built largest part first, every adjacent pair must
    be allowed, and a part may only follow itself if allowed_pair says so.
    Returns a list of chains (tuples), including the empty chain.
    """
    results = [()]

    def extend(chain, remaining):
        for p in parts:
            s = size_of(p)
            if s > remaining:
                continue
            if chain and not allowed_pair(chain[-1], p):
                continue
            new = chain + (p,)
            results.append(new)
            extend(new, remaining - s)

    extend((), qmax)
    return results


def chain_weight_key(chain, vars_of) -> Key:
    """Product of per-part variable dicts, as a monomial key."""
    k: Key = ONE
    for p in chain:
        k = key_mul(k, key_of(vars_of(p)))
    return k


def series_from_chains(chains, qmax: int, size_of, vars_of) -> list[dict[Key, int]]:
    out: list[dict[Key, int]] = [{} for _ in range(qmax + 1)]
    for chain in chains:
        n = sum(size_of(p) for p in chain)
        if n > qmax:
            continue
        k = chain_weight_key(chain, vars_of)
        out[n][k] = out[n].get(k, 0) + 1
    return out


# ---------------------------------------------------------------------------
# system validity by an all-pairs scan
# ---------------------------------------------------------------------------


def system_order_fault(data: dict) -> str | None:
    """Why a matrix-gap system, given as its JSON document, cannot be
    processed in rank order -- a missing rank offset or gap entry, a part
    of negative size, two parts of one rank, or a part that may sit
    directly below a part of smaller (rank, overline) key -- or None.

    Every pair of parts up to a window is scanned.  Above every minimum
    size and forbidden part, validity repeats with the period of the
    domains and the gap rows, and a pair shifted by it keeps its gap and
    its rank difference.  A colliding or disagreeing pair lies at most
    max(|gap|, offset spread / mult) apart, so a window that far past two
    periods above that region holds a shifted copy of each.
    """
    colours = data["colours"]
    mult, offsets = data["rank"]["mult"], data["rank"]["offsets"]
    rows = data["gap"]["rows"]
    cmod = data["gap"].get("class_modulus")
    forbidden = {(s, c) for s, c in data.get("forbidden", ())}
    if any(c["label"] not in offsets for c in colours):
        return "rank offset missing"
    period = lcm(cmod or 1, *(c["domain"].get("modulus") or 1 for c in colours))
    stable = max([c["domain"]["min"] for c in colours]
                 + [s + 1 for s, _ in forbidden])
    spread = max(offsets.values()) - min(offsets.values())
    widest = max((abs(g) for cols in rows.values() for g in cols.values()),
                 default=0)
    top = stable + 2 * period + max(widest, spread // mult + 1)

    parts = []
    for c in colours:
        dom = c["domain"]
        for s in range(dom["min"], top + 1):
            if dom.get("modulus") and s % dom["modulus"] not in dom["residues"]:
                continue
            if (s, c["label"]) in forbidden:
                continue
            if s < 0:
                return "negative size"
            parts.append((s, c["label"], False))
            if c.get("overline"):
                parts.append((s, c["label"], True))

    def key(p):
        return mult * p[0] + offsets[p[1]], p[2]

    def gap(upper, lower):
        row = rows.get(upper[1] if cmod is None
                       else f"{upper[1]}|{upper[0] % cmod}", {})
        if lower[2] and lower[1] + "~" in row:
            return row[lower[1] + "~"]
        return row.get(lower[1])

    ranks = set()
    for p in parts:
        if not p[2]:
            if key(p)[0] in ranks:
                return "rank collision"
            ranks.add(key(p)[0])
    for upper in parts:
        for lower in parts:
            g = gap(upper, lower)
            if g is None:
                return "gap entry missing"
            if upper[0] - lower[0] >= g and key(upper) < key(lower):
                return "gap rule and order disagree"
    return None


# ---------------------------------------------------------------------------
# Euler-factor rows relabelled by a substitution
# ---------------------------------------------------------------------------


def relabel_rows(table, images: dict[str, Key], window: int) -> list[dict[Key, int]]:
    """Per-degree exponent rows of an Euler table after substitution.

    ``table`` holds ``(monomial key, n, e)`` triples meaning the factor
    ``(1 - x * q^n)^(-e)``; each variable in ``images`` is replaced by its
    image key.  A factor stays at its q power, so the substituted table's
    row n is the relabelled row with colliding entries summed and zero sums
    dropped.  Rows above ``window`` are left out.
    """
    rows: list[dict[Key, int]] = [{} for _ in range(window + 1)]
    for items, n, e in table:
        if n > window:
            continue
        key = ONE
        for v, k in items:
            key = key_mul(key, key_pow(images[v], k) if v in images else ((v, k),))
        merged = rows[n].get(key, 0) + e
        if merged:
            rows[n][key] = merged
        else:
            rows[n].pop(key, None)
    return rows


def row_periods(rows: list[dict[Key, int]], qmax: int,
                upto: int) -> list[tuple[int, int]]:
    """The (period m, initial s) pairs, 1 <= m <= qmax // 3 and 0 <= s <= m,
    with rows[n] == rows[n + m] on degrees s + 1 .. upto."""
    return [(m, s) for m in range(1, qmax // 3 + 1) for s in range(m + 1)
            if all(rows[n] == rows[n + m] for n in range(s + 1, upto - m + 1))]
