"""Exact arithmetic for truncated q-series with polynomial colour coefficients.

Everything in this module is exact: coefficients are arbitrary-precision
integers attached to monomials in named colour variables, and a series is
truncated at a fixed q-order ``qmax`` (optionally also at a total colour
degree ``degmax``).  The pieces fit together as

    Monomial        a^2*b              (immutable, interned)
    TruncatedSeries sum c_n(vars) q^n  for n = 0..qmax
    Polynomial      3*a^2*b - c        (read-only view of one c_n)
    ProductSpec     prod (1 - c q^(start+j*mod))^(-power)
    SubstitutionMap q -> q^m, var -> monomial * q^shift

Monomials are ordered graded-lexicographically; ties inside a degree are
broken by the variable names themselves (alphabetical), so the order is a
fixed property of the data and does not depend on construction order.
They are interned: there is one instance per value, so the dict lookups
of every kernel compare and hash them by identity.  Their hash is not
stable across processes, and no output depends on it.

Each monomial is interned by its packed exponent code: one int with a
``FIELD_BITS``-wide field per variable name, the field given to a name
the first time it is seen.  Every exponent is below ``EXPONENT_BOUND`` =
2^(FIELD_BITS - 1), so a field of the sum of two codes is below
2^FIELD_BITS and cannot carry into the next one: the sum is the code of
the product, and a product is one int addition and one lookup in the
intern table, with no cache of products beside it.  A code the table does
not hold goes through :func:`_of_code`, which splits it into its fields
and hands them to the constructor; the constructor refuses an exponent at
the bound with :class:`AlgebraError`.  With weights of exponent 1, as in every
registered system, reaching the bound takes more than 2^31 parts, far past
any truncation order the engines can run.

A series is stored as buckets (``list[dict[Monomial, int]]``, index =
power of q, no zero coefficients), and every series operation in the
package runs on one of two kernels over them.  One adds into buckets:
:func:`_add_shifted` adds a shifted, scaled copy of one series into
another, and :func:`_factor_step` multiplies or divides by a binomial
factor ``(1 - c*mono*q^n)^|e|`` in one pass; a product expansion
multiplies before it divides.  The other moves terms: :func:`_map_terms`
sends each term to a new monomial and power of q, as ``substitute`` and
``specialize`` do.  The kernels only ever write into buckets they have
just made; a series, once built, never changes its buckets.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod
from typing import Callable, Iterable, Mapping


class AlgebraError(ValueError):
    """Base class for arithmetic contract violations."""


class TruncationMismatch(AlgebraError):
    """Two series with different q-truncations were combined."""


class SubstitutionError(AlgebraError):
    """A substitution would produce undefined or negative q-exponents."""


class ProductSpecError(AlgebraError):
    """A product specification violates its well-formedness rules."""


class FactorizationError(AlgebraError):
    """A series cannot be factorized (constant term is not 1)."""


def _json_int(value: object) -> int:
    """An integer read from JSON: floats, booleans and strings are refused
    rather than coerced."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _json_str(value: object) -> str:
    """A string read from JSON: numbers, lists and null are refused."""
    if type(value) is not str:
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _json_strs(value: object) -> tuple[str, ...]:
    """A list of strings read from JSON: a bare string is refused rather
    than read as its characters."""
    if type(value) is not list:
        raise TypeError(f"expected a list of strings, got {value!r}")
    return tuple(map(_json_str, value))


def _json_bool(value: object) -> bool:
    """A boolean read from JSON: strings and numbers are refused rather
    than coerced."""
    if type(value) is not bool:
        raise TypeError(f"expected a boolean, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------

#: width of one variable's field in a packed exponent code
FIELD_BITS = 32
#: every exponent is below this bound, so adding two codes cannot carry
EXPONENT_BOUND = 1 << (FIELD_BITS - 1)
#: the bit offset of each variable's field, assigned when the name is first seen
_FIELDS: dict[str, int] = {}
#: the one instance of each monomial, by its packed exponent code
_INTERNED: dict[int, "Monomial"] = {}


class Monomial:
    """A product of variables with positive integer exponents.

    Internally a sorted tuple of (name, exponent) pairs; the empty tuple is
    the monomial 1.  Instances are immutable and interned: the constructor
    returns the one instance for each value, so equal monomials are the same
    object and compare and hash by identity.  A hash is therefore stable
    within a process but not across processes; pickling and copying keep
    one instance per value.

    Each instance also carries its packed exponent code, an int holding
    each exponent in its variable's ``FIELD_BITS``-wide field, and is
    interned by it.  The constructor refuses an exponent at or above
    ``EXPONENT_BOUND``, so each field of the sum of two codes stays below
    ``2**FIELD_BITS`` and no carry reaches the next field: the sum is the
    product's code, and the product of two interned monomials is one int
    addition and one lookup.  A code the table does not hold goes through
    :func:`_of_code`, which checks it with the constructor.
    """

    __slots__ = ("_items", "_code", "_degree")

    def __new__(cls, items: Iterable[tuple[str, int]] = ()) -> "Monomial":
        merged: dict[str, int] = {}
        for name, exp in items:
            if exp == 0:
                continue
            if exp < 0:
                raise AlgebraError(f"negative exponent for variable {name!r}")
            merged[name] = merged.get(name, 0) + exp
        code = 0
        for name, exp in merged.items():
            if exp >= EXPONENT_BOUND:
                # the refusal names the alphabetically first variable over the bound
                name = min(n for n, e in merged.items() if e >= EXPONENT_BOUND)
                raise AlgebraError(
                    f"exponent {merged[name]} of variable {name!r} is not below 2^{FIELD_BITS - 1}")
            offset = _FIELDS.get(name)
            if offset is None:
                offset = _FIELDS[name] = len(_FIELDS) * FIELD_BITS
            code += exp << offset
        mono = _INTERNED.get(code)
        if mono is None:
            mono = _INTERNED[code] = object.__new__(cls)
            mono._items = tuple(sorted(merged.items()))
            mono._code = code
            mono._degree = sum(merged.values())
        return mono

    def __reduce__(self):
        # pickle, copy and deepcopy all rebuild through the constructor
        return Monomial, (self._items,)

    @classmethod
    def one(cls) -> "Monomial":
        return _MONOMIAL_ONE

    @classmethod
    def var(cls, name: str, exp: int = 1) -> "Monomial":
        return cls(((name, exp),))

    @classmethod
    def from_dict(cls, d: Mapping[str, int]) -> "Monomial":
        return cls((name, _json_int(e)) for name, e in d.items())

    @property
    def items(self) -> tuple[tuple[str, int], ...]:
        return self._items

    @property
    def degree(self) -> int:
        return self._degree

    def exponent(self, name: str) -> int:
        for n, e in self._items:
            if n == name:
                return e
        return 0

    def variables(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self._items)

    def is_one(self) -> bool:
        return not self._items

    def __mul__(self, other: "Monomial") -> "Monomial":
        return _of_code(self._code + other._code)

    def __pow__(self, k: int) -> "Monomial":
        if k < 0:
            raise AlgebraError("monomials cannot be raised to negative powers")
        # below the bound in total, each field of code * k is too
        if self._degree * k < EXPONENT_BOUND:
            return _of_code(self._code * k)
        return Monomial((n, e * k) for n, e in self._items)

    def sort_key(self) -> tuple:
        """Graded-lexicographic key: degree first, then the item tuple."""
        return (self._degree, self._items)

    def __lt__(self, other: "Monomial") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        if not self._items:
            return "1"
        return "*".join(n if e == 1 else f"{n}^{e}" for n, e in self._items)

    def __repr__(self) -> str:
        return f"Monomial({str(self)})"

    def to_json(self) -> dict[str, int]:
        return {n: e for n, e in self._items}


_MONOMIAL_ONE = Monomial()


def _of_code(code: int) -> Monomial:
    """The interned monomial of a packed code.

    No field of code may have carried into the next one, as holds for the
    sum of two codes, for code * k when the degree times k is below the
    bound, and for the enumeration's walk.  A code that no monomial holds
    yet is split into its fields, which go through the constructor: a
    field at or above the bound raises there.
    """
    mono = _INTERNED.get(code)
    if mono is not None:
        return mono
    field, items = (1 << FIELD_BITS) - 1, []
    for name in _FIELDS:  # the field at offset i*FIELD_BITS is the i-th name
        if not code:
            break
        if exp := code & field:
            items.append((name, exp))
        code >>= FIELD_BITS
    return Monomial(items)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    """A read-only view of one series coefficient: a sparse integer
    polynomial in the colour variables, stored as a dict Monomial -> nonzero
    int.  The arithmetic lives on :class:`TruncatedSeries`."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self._terms: dict[Monomial, int] = {
            m: c for m, c in (terms or {}).items() if c != 0}

    @classmethod
    def _raw(cls, terms: dict[Monomial, int]) -> "Polynomial":
        # internal: a view of terms, which hold no zero coefficients
        p = cls.__new__(cls)
        p._terms = terms
        return p

    @property
    def terms(self) -> Mapping[Monomial, int]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted(self._terms.items(), key=lambda t: t[0].sort_key())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in self.sorted_terms():
            if mono.is_one():
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = str(mono)
            else:
                body = f"{abs(coeff)}*{mono}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)})"

    def to_json(self) -> list:
        return [[c, m.to_json()] for m, c in self.sorted_terms()]

    @classmethod
    def from_json(cls, data: list) -> "Polynomial":
        """Duplicate monomials are merged and zero sums dropped."""
        out: dict[Monomial, int] = {}
        for coeff, vars_ in data:
            m = Monomial.from_dict(vars_)
            out[m] = out.get(m, 0) + _json_int(coeff)
        return cls(out)


# ---------------------------------------------------------------------------
# the bucket kernel: list[dict[Monomial, int]], index = power of q
# ---------------------------------------------------------------------------


def _zero_buckets(qmax: int) -> list[dict[Monomial, int]]:
    if qmax < 0:
        raise AlgebraError("qmax must be non-negative")
    return [{} for _ in range(qmax + 1)]


def _one_buckets(qmax: int) -> list[dict[Monomial, int]]:
    out = _zero_buckets(qmax)
    out[0][_MONOMIAL_ONE] = 1
    return out


def _add_bucket(dst: dict, src: dict, mono: Monomial, coeff: int,
                limit: int | None) -> None:
    """dst += coeff * mono * src over the monomials of src with degree at
    most limit (None: all of them)."""
    code, interned = mono._code, _INTERNED
    for m, c in src.items():
        if limit is not None and m._degree > limit:
            continue
        m2 = interned.get(m._code + code) or _of_code(m._code + code)
        v = dst.get(m2, 0) + c * coeff
        if v:
            dst[m2] = v
        else:
            del dst[m2]


def _add_shifted(dst: list[dict], src: list[dict], s: int = 0,
                 mono: Monomial = _MONOMIAL_ONE, coeff: int = 1,
                 degmax: int | None = None) -> None:
    """dst += coeff * mono * q^s * src, dropping what lands above dst's last
    bucket or above colour degree degmax."""
    if coeff == 1 and not mono._items and degmax is None:
        for bucket, extra in zip(dst[s:], src):
            for m, c in extra.items():
                v = bucket.get(m, 0) + c
                if v:
                    bucket[m] = v
                else:
                    del bucket[m]
        return
    limit = None if degmax is None else degmax - mono._degree
    if limit is not None and limit < 0:
        return
    for bucket, extra in zip(dst[s:], src):
        if extra:
            _add_bucket(bucket, extra, mono, coeff, limit)


def _factor_step(f: list[dict], c: int, mono: Monomial, n: int, e: int,
                 degmax: int | None = None) -> None:
    """Multiply f in place by (1 - c*mono*q^n)^e; a negative e divides.

    One pass for any |e|: multiplying runs from the top bucket down and
    dividing from the bottom up, and each bucket takes at most
    min(|e|, qmax/n) binomial terms of (1 - x)^|e|.  At n = 0 the factor is
    graded by colour degree alone: mono must carry a colour, and degmax
    bounds the terms it takes, which |e| would not bound at all when
    dividing and only by |e| itself when multiplying.
    """
    if e == 0:
        return
    power, d = abs(e), mono._degree
    if n == 0:
        if d == 0:
            raise ProductSpecError("(1 - c)^e with constant c cannot be expanded")
        if degmax is None:
            raise ProductSpecError(
                "a q^0 factor needs a degmax cap to truncate its expansion")
        kmax = degmax // d
        if e > 0:
            kmax = min(kmax, power)
        old = [dict(b) for b in f]
        for k in range(1, kmax + 1):
            coeff = (comb(power, k) * (-c) ** k if e > 0
                     else comb(power + k - 1, k) * c ** k)
            _add_shifted(f, old, 0, mono ** k, coeff, degmax)
        return
    qmax = len(f) - 1
    kmax = min(power, qmax // n)
    if degmax is not None and d:
        kmax = min(kmax, degmax // d)
    sign = 1 if e > 0 else -1
    terms = [(k * n, mono ** k, sign * comb(power, k) * (-c) ** k,
              None if degmax is None else degmax - k * d)
             for k in range(1, kmax + 1)]
    for i in (range(qmax, n - 1, -1) if e > 0 else range(n, qmax + 1)):
        dst = f[i]
        for shift, mk, coeff, limit in terms:
            if shift > i:
                break
            if f[i - shift]:
                _add_bucket(dst, f[i - shift], mk, coeff, limit)


def _map_terms(src: list[dict[Monomial, int]],
               image: Callable[[Monomial], tuple[Monomial, int, int]],
               qpower: int, new_qmax: int,
               degmax: int | None = None) -> list[dict[Monomial, int]]:
    """New buckets holding factor * c * mu' * q^(qpower*n + shift) for each
    term c * mu * q^n of src, where image(mu) = (mu', shift, factor).

    image runs once per distinct monomial of src.  Terms that land above
    new_qmax or above colour degree degmax are dropped, and so are sums
    that cancel; a negative exponent raises SubstitutionError.
    """
    images: dict[Monomial, tuple[Monomial, int, int]] = {}
    out = _zero_buckets(new_qmax)
    for n, bucket in enumerate(src):
        base = qpower * n
        for mono, coeff in bucket.items():
            img = images.get(mono)
            if img is None:
                img = images[mono] = image(mono)
            new_mono, shift, factor = img
            e = base + shift
            if e < 0:
                raise SubstitutionError(
                    f"term {mono}*q^{n} maps to negative exponent q^{e}")
            if e > new_qmax or (degmax is not None and new_mono._degree > degmax):
                continue
            dst = out[e]
            v = dst.get(new_mono, 0) + coeff * factor
            if v:
                dst[new_mono] = v
            else:
                dst.pop(new_mono, None)
    return out


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------


class TruncatedSeries:
    """A q-series known exactly through order qmax.

    ``buckets[n]`` maps each monomial of the coefficient of q^n to its
    nonzero integer coefficient, so ``qmax = len(buckets) - 1``.  The series
    takes the buckets as they are and never changes them; neither may the
    caller afterwards.  If ``degmax`` is set, monomials of total colour
    degree above it have been dropped and the series is only faithful
    inside that degree window.
    """

    __slots__ = ("qmax", "degmax", "_b")

    def __init__(self, buckets: list[dict[Monomial, int]],
                 degmax: int | None = None):
        if not buckets:
            raise AlgebraError("qmax must be non-negative")
        self._b = buckets
        self.qmax = len(buckets) - 1
        self.degmax = degmax

    @classmethod
    def one(cls, qmax: int, degmax: int | None = None) -> "TruncatedSeries":
        return cls(_one_buckets(qmax), degmax)

    @classmethod
    def zero(cls, qmax: int, degmax: int | None = None) -> "TruncatedSeries":
        return cls(_zero_buckets(qmax), degmax)

    def coefficient(self, n: int) -> Polynomial:
        if not 0 <= n <= self.qmax:
            raise AlgebraError(f"coefficient of q^{n} outside truncation 0..{self.qmax}")
        return Polynomial._raw(self._b[n])

    def _merged_degmax(self, other: "TruncatedSeries", op: str) -> int | None:
        if self.qmax != other.qmax:
            raise TruncationMismatch(
                f"cannot {op} series with qmax {self.qmax} and {other.qmax}")
        if self.degmax is None:
            return other.degmax
        if other.degmax is None:
            return self.degmax
        return min(self.degmax, other.degmax)

    def _plus(self, other: "TruncatedSeries", sign: int) -> "TruncatedSeries":
        dm = self._merged_degmax(other, "add" if sign > 0 else "subtract")
        out = _zero_buckets(self.qmax)
        _add_shifted(out, self._b, degmax=dm)
        _add_shifted(out, other._b, coeff=sign, degmax=dm)
        return TruncatedSeries(out, dm)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._plus(other, 1)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._plus(other, -1)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        dm = self._merged_degmax(other, "multiply")
        # one shifted copy of the series with more terms per term of the other
        small, large = sorted((self._b, other._b),
                              key=lambda b: sum(map(len, b)))
        out = _zero_buckets(self.qmax)
        for s, bucket in enumerate(small):
            for mono, coeff in bucket.items():
                _add_shifted(out, large, s, mono, coeff, dm)
        return TruncatedSeries(out, dm)

    def truncate(self, new_qmax: int) -> "TruncatedSeries":
        if new_qmax > self.qmax:
            raise AlgebraError("cannot extend a truncated series")
        return TruncatedSeries(self._b[: new_qmax + 1], self.degmax)

    def specialize(self, assignments: Mapping[str, int]) -> "TruncatedSeries":
        """Set named variables to integer values (typically 1)."""
        def image(mono: Monomial) -> tuple[Monomial, int, int]:
            kept = [(n, e) for n, e in mono._items if n not in assignments]
            factor = prod(assignments[n] ** e for n, e in mono._items
                          if n in assignments)
            return (mono if len(kept) == len(mono._items) else Monomial(kept),
                    0, factor)
        return TruncatedSeries(_map_terms(self._b, image, 1, self.qmax),
                               self.degmax)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._b == other._b

    def __str__(self) -> str:
        rows = []
        for n, bucket in enumerate(self._b):
            if bucket:
                c = Polynomial._raw(bucket)
                rows.append(f"({c})*q^{n}" if n else f"({c})")
        return " + ".join(rows) if rows else "0"

    def __repr__(self) -> str:
        return f"TruncatedSeries(qmax={self.qmax}, {str(self)})"

    def to_json(self) -> dict:
        return {
            "qmax": self.qmax,
            "degmax": self.degmax,
            "coefficients": [Polynomial._raw(b).to_json() for b in self._b],
        }

    @classmethod
    def from_json(cls, data: dict) -> "TruncatedSeries":
        qmax = _json_int(data["qmax"])
        degmax = data.get("degmax")
        buckets = [Polynomial.from_json(c)._terms for c in data["coefficients"]]
        if len(buckets) != qmax + 1:
            raise AlgebraError("coefficient list must have qmax+1 entries")
        return cls(buckets, None if degmax is None else _json_int(degmax))


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubstitutionMap:
    """q -> q^qpower together with var -> image_monomial * q^shift.

    Images may be the empty monomial (erasing a variable) and shifts may be
    negative as long as every produced q-exponent stays non-negative.
    Variables not listed are left untouched.
    """

    qpower: int
    images: Mapping[str, tuple[Monomial, int]]

    def __post_init__(self):
        if self.qpower < 1:
            raise SubstitutionError("q must map to a positive power of q")
        object.__setattr__(self, "images", dict(self.images))

    def max_negative_shift(self) -> int:
        """Largest |shift| among negative shifts (0 if none)."""
        return max((-s for _, s in self.images.values() if s < 0), default=0)

    def apply_monomial(self, mono: Monomial) -> tuple[Monomial, int]:
        """Image of a monomial and the total q-shift it picks up.  The
        image goes through the constructor, which refuses an exponent at
        the bound."""
        items, shift = [], 0
        for name, exp in mono._items:
            img = self.images.get(name)
            if img is None:
                items.append((name, exp))
            else:
                items.extend((n, e * exp) for n, e in img[0]._items)
                shift += img[1] * exp
        return Monomial(items), shift

    def to_json(self) -> dict:
        return {
            "qpower": self.qpower,
            "images": {
                name: {"vars": m.to_json(), "shift": s}
                for name, (m, s) in sorted(self.images.items())
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "SubstitutionMap":
        images = {
            name: (Monomial.from_dict(img["vars"]), _json_int(img["shift"]))
            for name, img in data.get("images", {}).items()
        }
        return cls(_json_int(data.get("qpower", 1)), images)


def substitute(f: TruncatedSeries, sub: SubstitutionMap, new_qmax: int,
               degmax: int | None = None) -> TruncatedSeries:
    """Apply a substitution map to a series, re-truncating at new_qmax.

    A term c * mu * q^n maps to c * mu' * q^(qpower*n + shift(mu)).  Terms
    that land above new_qmax are dropped; a negative exponent is an error.

    Soundness of the output window: terms of f beyond f.qmax are unknown, so
    we require qpower*f.qmax - neg*D >= new_qmax where neg is the largest
    negative shift and D bounds the colour degree of any coefficient.  D is
    f.degmax when set; otherwise the bound D = n (degree of the coefficient
    of q^n at most n) is used after being checked on the visible window.
    Series whose coefficients violate that growth pattern must carry an
    explicit degmax before being substituted with negative shifts.
    """
    m = sub.qpower
    neg = sub.max_negative_shift()
    if neg > 0:
        if f.degmax is not None:
            if m * f.qmax - neg * f.degmax < new_qmax:
                raise SubstitutionError(
                    "substitution window too small: "
                    f"{m}*{f.qmax} - {neg}*{f.degmax} < {new_qmax}")
        else:
            for n, bucket in enumerate(f._b):
                if any(mono._degree > n for mono in bucket):
                    raise SubstitutionError(
                        "negative shifts need a degree bound: coefficient of "
                        f"q^{n} has colour degree above {n}; set degmax on the input")
            if (m - neg) * f.qmax < new_qmax:
                raise SubstitutionError(
                    "substitution window too small: "
                    f"({m} - {neg})*{f.qmax} < {new_qmax}")
    else:
        if m * f.qmax < new_qmax:
            raise SubstitutionError(
                f"substitution window too small: {m}*{f.qmax} < {new_qmax}")

    return TruncatedSeries(
        _map_terms(f._b, lambda mono: (*sub.apply_monomial(mono), 1),
                   m, new_qmax, degmax), degmax)


# ---------------------------------------------------------------------------
# product specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductFactor:
    """One factor family prod_{j>=0} (1 - sign*mono*q^(start+j*mod))^(-power)."""

    sign: int
    mono: Monomial
    start: int
    mod: int
    power: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ProductSpecError("factor sign must be +1 or -1")
        if self.mod < 1:
            raise ProductSpecError("factor modulus must be positive")
        if self.start < 0:
            raise ProductSpecError("factor start must be non-negative")
        if self.start == 0 and self.mono.degree == 0:
            raise ProductSpecError(
                "factor at q^0 must carry a colour (otherwise it is not 1 + higher order)")

    def to_json(self) -> dict:
        return {
            "coeff": {"sign": self.sign, "vars": self.mono.to_json()},
            "start": self.start,
            "mod": self.mod,
            "power": self.power,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ProductFactor":
        coeff = data["coeff"]
        return cls(
            sign=_json_int(coeff.get("sign", 1)),
            mono=Monomial.from_dict(coeff.get("vars", {})),
            start=_json_int(data["start"]),
            mod=_json_int(data["mod"]),
            power=_json_int(data["power"]),
        )


@dataclass(frozen=True)
class ProductSpec:
    """A finite list of factor families describing an infinite product."""

    factors: tuple[ProductFactor, ...]

    def __init__(self, factors: Iterable[ProductFactor]):
        object.__setattr__(self, "factors", tuple(factors))

    def negate_powers(self) -> "ProductSpec":
        return ProductSpec(
            ProductFactor(f.sign, f.mono, f.start, f.mod, -f.power)
            for f in self.factors)

    def to_json(self) -> list:
        return [f.to_json() for f in self.factors]

    @classmethod
    def from_json(cls, data: list) -> "ProductSpec":
        return cls(ProductFactor.from_json(f) for f in data)


def product_expand(spec: ProductSpec, qmax: int,
                   degmax: int | None = None) -> TruncatedSeries:
    """Expand a product specification into a truncated series.

    Finite families (``power < 0``) go before the dividing ones, each group
    in spec order.  The product commutes, so the result is the same, and a
    division then cancels against its numerator as it runs: an Euler
    quotient ``(x^2 q^2; q^2m) / (x q; q^m)`` never builds every power of x.
    """
    acc = _one_buckets(qmax)
    for fac in sorted(spec.factors, key=lambda f: f.power > 0):
        # a start-0 factor occurs once at q^0, then the family continues
        for n in range(fac.start, qmax + 1, fac.mod):
            _factor_step(acc, fac.sign, fac.mono, n, -fac.power, degmax)
    return TruncatedSeries(acc, degmax)


# ---------------------------------------------------------------------------
# euler factorization
# ---------------------------------------------------------------------------


def euler_factorize(f: TruncatedSeries) -> list[tuple[Monomial, int, int]]:
    """Greedy factorization of a unit series into (1 - mono*q^n)^(-e) factors.

    Returns the exponent table as (mono, n, e) triples meaning
    f = prod (1 - mono*q^n)^(-e), exactly within the truncation window.
    Entries are emitted degree by degree; within a degree the remainder's
    terms are peeled lowest monomial first (graded lex), which makes the
    table canonical.  The table is unique for this factor basis, so the
    emission order only affects bookkeeping, never the exponents.
    """
    if f._b[0] != {_MONOMIAL_ONE: 1}:
        raise FactorizationError("series constant term must be exactly 1")
    table: list[tuple[Monomial, int, int]] = []
    rem = [dict(b) for b in f._b]
    for n in range(1, f.qmax + 1):
        # removing one factor leaves the other terms of q^n as they are
        for mono, t in sorted(rem[n].items(), key=lambda mt: mt[0].sort_key()):
            table.append((mono, n, t))
            _factor_step(rem, 1, mono, n, t, f.degmax)
    return table

