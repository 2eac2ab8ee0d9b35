"""Reference values computed without the wwords package, and the output checks.

Nothing here imports ``wwords``: the references are written from the
statements of the identities, so a check compares the package against
independent code, never against itself.

A series is a list indexed by the power of q; entry n is a dict mapping a
monomial key (a sorted tuple of ``(variable, exponent)`` pairs, ``()`` for 1)
to its integer coefficient.  A product factor is the tuple
``(sign, monomial key, start, mod, power)`` and stands for
``prod_{j >= 0} (1 - sign * monomial * q^(start + j*mod))^(-power)``, the
meaning of one factor family in the package's product JSON.

Every ``check_*`` function takes the plain JSON one operation produced and
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

from math import comb

# ---------------------------------------------------------------------------
# monomials and truncated series
# ---------------------------------------------------------------------------


def mono_key(exponents: dict) -> tuple:
    return tuple(sorted((v, int(e)) for v, e in exponents.items() if e))


def _mono_mul(a: tuple, b: tuple) -> tuple:
    merged = dict(a)
    for v, e in b:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items()))


def _mono_pow(a: tuple, k: int) -> tuple:
    return tuple((v, e * k) for v, e in a) if k else ()


def _degree(a: tuple) -> int:
    return sum(e for _, e in a)


def one(qmax: int) -> list[dict]:
    return [{(): 1}] + [dict() for _ in range(qmax)]


def multiply(f: list[dict], g: list[dict], qmax: int,
             degmax: int | None = None) -> list[dict]:
    """Schoolbook product of two series, truncated at q^qmax and, when
    ``degmax`` is set, at total colour degree ``degmax``."""
    out = [dict() for _ in range(qmax + 1)]
    for i, fi in enumerate(f[:qmax + 1]):
        for j, gj in enumerate(g[:qmax + 1 - i]):
            bucket = out[i + j]
            for m1, c1 in fi.items():
                for m2, c2 in gj.items():
                    m = _mono_mul(m1, m2)
                    if degmax is not None and _degree(m) > degmax:
                        continue
                    bucket[m] = bucket.get(m, 0) + c1 * c2
    return [{m: c for m, c in b.items() if c} for b in out]


def _binomial_series(sign: int, mono: tuple, n: int, exponent: int,
                     qmax: int) -> list[dict]:
    """(1 - sign*mono*q^n)^exponent, truncated at q^qmax, for n >= 1."""
    out = one(qmax)
    for k in range(1, qmax // n + 1):
        if exponent >= 0:
            c = comb(exponent, k) * (-sign) ** k
        else:
            c = comb(-exponent + k - 1, k) * sign ** k
        if c:
            out[n * k][_mono_pow(mono, k)] = c
    return out


def expand_product(factors, qmax: int, degmax: int | None = None) -> list[dict]:
    """Multiply out every factor of every family up to q^qmax, one at a time."""
    acc = one(qmax)
    for sign, mono, start, mod, power in factors:
        if start < 1 or mod < 1:
            raise ValueError(f"factor family must start at q^1 or later: "
                             f"{(sign, mono, start, mod, power)}")
        for n in range(start, qmax + 1, mod):
            acc = multiply(acc, _binomial_series(sign, mono, n, -power, qmax),
                           qmax, degmax)
    return acc


def factors_from_json(data: list) -> list[tuple]:
    """Factor tuples from the package's product JSON (``ProductSpec.to_json``)."""
    return [(int(f["coeff"].get("sign", 1)), mono_key(f["coeff"].get("vars", {})),
             int(f["start"]), int(f["mod"]), int(f["power"])) for f in data]


def series_from_json(data: dict) -> list[dict]:
    """A series from the package's series JSON (``TruncatedSeries.to_json``)."""
    out = []
    for poly in data["coefficients"]:
        row: dict = {}
        for c, exps in poly:
            key = mono_key(exps)
            row[key] = row.get(key, 0) + int(c)
        out.append({m: c for m, c in row.items() if c})
    return out


def series_to_json(series: list[dict], degmax: int | None = None) -> dict:
    """The package's series JSON layout for a reference series."""
    return {"qmax": len(series) - 1, "degmax": degmax,
            "coefficients": [[[c, dict(m)] for m, c in sorted(row.items())]
                             for row in series]}


def first_difference(got: list[dict], want: list[dict]) -> str | None:
    if len(got) != len(want):
        return f"window 0..{len(got) - 1}, expected 0..{len(want) - 1}"
    for n, (a, b) in enumerate(zip(got, want)):
        if a != b:
            mono = min(m for m in set(a) | set(b) if a.get(m, 0) != b.get(m, 0))
            return (f"q^{n} coefficient of {dict(mono) or 1}: got {a.get(mono, 0)}, "
                    f"expected {b.get(mono, 0)}")
    return None


# ---------------------------------------------------------------------------
# counting sequences
# ---------------------------------------------------------------------------


def partition_numbers(nmax: int) -> list[int]:
    """p(0..nmax) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * nmax
    for n in range(1, nmax + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[n - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def distinct_odd_counts(nmax: int) -> list[int]:
    """Partitions of 0..nmax into distinct odd parts, each odd part used at
    most once (a 0/1 knapsack over the odd numbers)."""
    counts = [1] + [0] * nmax
    for part in range(1, nmax + 1, 2):
        for n in range(nmax, part - 1, -1):
            counts[n] += counts[n - part]
    return counts


# ---------------------------------------------------------------------------
# the identities' product sides, written from their statements
# ---------------------------------------------------------------------------


def _distinct(var: str | None, start: int, mod: int) -> tuple:
    """(1 + var*q^start)(1 + var*q^(start+mod))...: distinct parts."""
    return (-1, mono_key({var: 1} if var else {}), start, mod, -1)


def _unrestricted(var: str | None, start: int, mod: int) -> tuple:
    """1/((1 - var*q^start)(1 - var*q^(start+mod))...): repeatable parts."""
    return (1, mono_key({var: 1} if var else {}), start, mod, 1)


TWO_COLOUR = [_distinct("a", 1, 1), _distinct("b", 1, 1)]
MOD3 = [_distinct("a", 1, 3), _distinct("b", 2, 3)]
MOD4 = [_distinct("a", 1, 4), _distinct("b", 3, 4)]
CRYSTAL = [_distinct("a", 1, 2), _distinct("d", 1, 2),
           _unrestricted(None, 1, 1), _unrestricted("c", 1, 2)]
CRYSTAL_DILATED = [_distinct("a", 1, 4), _distinct("d", 3, 4),
                   _unrestricted(None, 2, 2), _unrestricted("c", 2, 4)]
PARTITIONS = [_unrestricted(None, 1, 1)]

#: product side of each identity case that has one
CASE_PRODUCTS = {
    "theorem-2": TWO_COLOUR,
    "schur-dilated": MOD3,
    "theorem-3": TWO_COLOUR,
    "theorem-4": MOD4,
    "theorem-5": MOD3,
    "theorem-6": CRYSTAL,
    "theorem-7": CRYSTAL_DILATED,
    "primc-conjecture": PARTITIONS,
}

#: the full generating function of each system the equations are stated on
#: (primc-weighted erases b, which leaves the crystal product)
SYSTEM_PRODUCTS = {
    "schur-weighted": TWO_COLOUR,
    "siladic-weighted": TWO_COLOUR,
    "primc-weighted": CRYSTAL,
}

#: the colour assignment of the five-class system documented for theorem 4
SILADIC_DOCUMENTED = {"x1": {"a": 1}, "x3": {"b": 1}, "x0": {"a": 1, "b": 1},
                      "x2": {"b": 2}, "x6": {"a": 2}}


class References:
    """Naive product expansions, each computed once on first use."""

    def __init__(self):
        self._cache: dict = {}

    def product(self, factors: list, qmax: int, degmax: int | None = None):
        key = (repr(factors), qmax, degmax)
        if key not in self._cache:
            self._cache[key] = expand_product(factors, qmax, degmax)
        return self._cache[key]


# ---------------------------------------------------------------------------
# output checks, one per operation kind
# ---------------------------------------------------------------------------


def _series_problem(label: str, data: dict, want: list[dict]) -> list[str]:
    diff = first_difference(series_from_json(data), want)
    return [] if diff is None else [f"{label}: {diff}"]


def _pattern_problem(label: str, pattern: dict | None, want: list[dict],
                     refs: References, degmax: int | None = None) -> list[str]:
    if pattern is None:
        return [f"{label}: no periodic product recognized"]
    qmax = len(want) - 1
    got = refs.product(factors_from_json(pattern["product"]), qmax, degmax)
    diff = first_difference(got, want)
    return [] if diff is None else [f"{label}: pattern expands wrongly: {diff}"]


def check_verify(result: dict, refs: References) -> list[str]:
    report = result["report"]
    problems = []
    if report["equal"] is not True:
        problems.append(f"{report['identity']}: engines disagree: "
                        f"{report['first_mismatch']}")
    if report["identity"] == "theorem-3":
        conv = report["conventions"]
        if len(conv.get("passed", ())) != 1 or conv.get("resolved") is None:
            problems.append(f"theorem-3: conventions not resolved to exactly "
                            f"one: {conv}")
    return problems


def check_expand(result: dict, refs: References) -> list[str]:
    series = result["series"]
    want = refs.product(CASE_PRODUCTS[result["case"]], series["qmax"],
                        series["degmax"])
    return _series_problem(f"{result['case']} product", series, want)


def check_counts(result: dict, refs: References) -> list[str]:
    """theorem-1: the dilated two-colour system counts distinct odd parts."""
    counts = result["counts"]
    want = distinct_odd_counts(len(counts) - 1)
    if counts != want:
        n = next((i for i, (a, b) in enumerate(zip(counts, want)) if a != b),
                 min(len(counts), len(want)))
        return [f"theorem-1 counts differ from distinct odd parts at n={n}"]
    return []


def check_partition_series(result: dict, refs: References) -> list[str]:
    """primc-conjecture: with a = c = d = 1 the series is sum p(n) q^n."""
    series = result["series"]
    want = [{(): p} for p in partition_numbers(series["qmax"])]
    return _series_problem("primc-conjecture specialization", series, want)


def check_statistics(result: dict, refs: References) -> list[str]:
    stats = result["statistics"]
    if stats["ok"] is not True or stats["samples"] < 1:
        return [f"{stats['identity']}: sampled statistics failed: "
                f"{stats['mismatches'][:1]}"]
    return []


def check_equation(result: dict, refs: References) -> list[str]:
    report = result["report"]
    problems = []
    if report["holds"] is not True:
        problems.append(f"{report['name']}: equation fails: "
                        f"{report['failures'][:1]}")
    total = result["total"]
    want = refs.product(SYSTEM_PRODUCTS[report["system"]], total["qmax"],
                        total["degmax"])
    problems += _series_problem(f"{report['name']} state total", total, want)
    return problems


def _substitution(candidate: dict) -> dict:
    return {v: dict(m) for v, m in candidate["substitution"].items()}


def check_search_schur(result: dict, refs: References) -> list[str]:
    problems = []
    if result["candidates_total"] != 9:
        problems.append(f"schur search tried {result['candidates_total']} "
                        "candidates, expected 9")
    hits = result["product_like"]
    if [_substitution(c) for c in hits] != [{"c": {"a": 1, "b": 1}}]:
        problems.append(f"schur search: product-like candidates "
                        f"{[_substitution(c) for c in hits]}, expected only c = ab")
        return problems
    want = refs.product(MOD3, result["qmax"])
    return problems + _pattern_problem("schur c = ab", hits[0]["pattern"],
                                       want, refs)


def check_search_siladic(result: dict, refs: References) -> list[str]:
    free = len(SILADIC_DOCUMENTED) - len(result["pinned"])
    problems = []
    if result["candidates_total"] != 9 ** free:
        problems.append(f"siladic search tried {result['candidates_total']} "
                        f"candidates, expected {9 ** free}")
    hits = result["product_like"]
    found = [{**result["pinned"], **_substitution(c)} for c in hits]
    if found != [SILADIC_DOCUMENTED] or hits[0]["period"] != 8:
        return problems + [
            "siladic search: the documented assignment with period 8 is not "
            f"the only product-like candidate (found {found}, periods "
            f"{[c['period'] for c in hits]})"]
    want = refs.product(MOD4, result["qmax"])
    return problems + _pattern_problem("siladic documented assignment",
                                       hits[0]["pattern"], want, refs)


def check_recognize(result: dict, refs: References) -> list[str]:
    series = result["input"]
    want = refs.product(CASE_PRODUCTS[result["case"]], series["qmax"],
                        series["degmax"])
    problems = _series_problem(f"{result['case']} recognizer input", series, want)
    return problems + _pattern_problem(f"{result['case']} recognized pattern",
                                       result["pattern"], want, refs,
                                       series["degmax"])


CHECKS = {
    "verify": check_verify,
    "expand": check_expand,
    "counts": check_counts,
    "partition-series": check_partition_series,
    "statistics": check_statistics,
    "equation": check_equation,
    "search-schur": check_search_schur,
    "search-siladic": check_search_siladic,
    "recognize": check_recognize,
}


def check_operation(op: dict, refs: References) -> list[str]:
    """Problems with one operation record written by the worker."""
    if op.get("error"):
        return [f"{op['name']}: raised {op['error']}"]
    return CHECKS[op["kind"]](op["result"], refs)
