"""Recurrence-based computation of generating functions, and equation checks.

The engine adds parts one at a time.  In the largest-part order it
computes, for every coloured part p in rank order, the series
E_p = generating function of valid partitions whose largest part is exactly
p, via

    E_p = weight(p) * q^size(p) * (1 + sum of E_p' over parts p' admissible
          directly below p),

closing self-admissible parts (min_gap(p, p) <= 0) with a geometric series.
The sum in brackets is a running sum kept per gap-matrix row class: it
holds the E tables of the parts admissible directly below the class's
latest part, a set that only grows as the class's parts get larger.  E_p
reads only its buckets 0..qmax-size(p), so each E table enters a running
sum only up to bucket qmax - (least size among the class's parts still to
come): every bucket a later part reads gets every term, and no term is
built that no part reads.  G_p is the cumulative sum 1 + sum of E at ranks
<= rank(p), which equation checks look up.  The parts a G covers are a
prefix of the rank order, so each new G is the nearest shorter cached
prefix sum plus the E tables in between.

The smallest-part order is the same recursion run in reverse rank order,
each part the new smallest one, with running sums kept per (colour,
overline) group.  It answers no G/E lookups but builds the full generating
function (everything with size <= qmax) faster, so ``dp_series`` uses it.
There a group's parts still to come are smaller, so its running sums are
cut hardly at all.

Parts, weights and grades come from ``ColouredSystem.graded_parts``, as
in the enumeration walk: erased variables never enter the tables, and
one rule refuses what no engine can stop on.

Under a dilation (``dp_series(..., dilation=d)``) the tables are graded by
dilated size: a part of size n whose colour weighs mu, erased variables
included, sits at g = m*n + sum of shift(v)*exponent(v) over mu, the size
of its dilated part, and the total is the series of the dilated system,
as ``dilate_system`` builds it.  ``graded_parts`` refuses the parts and
shifts that the dilated system refuses, so no g is negative, and a chain
past qmax stays past it.  The running sums are cut at qmax - g in the
same way.

The module also models the recurrences / initial conditions / functional
equations / q-difference equations such systems satisfy, as EquationSpec
objects checkable to any truncation order.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

from .algebra import (
    Monomial,
    SubstitutionMap,
    TruncatedSeries,
    _add_shifted,
    _factor_step,
    _json_bool,
    _json_int,
    _json_str,
    _json_strs,
    _one_buckets,
    _zero_buckets,
    substitute,
)
from .systems import ColouredPart, ColouredSystem, DilationSpec, build_preset


class RecurrenceError(ValueError):
    """The recurrence engine hit an inconsistency or unusable input."""


class EquationRangeError(RecurrenceError):
    """An equation was evaluated at a k outside its regular range."""


# ---------------------------------------------------------------------------
# the recurrence state
# ---------------------------------------------------------------------------


class RecurrenceState:
    """E_p / G_p tables for a system.

    direction "largest" (the default) builds largest-part tables in rank
    order, which answer G/E lookups; "smallest" builds smallest-part tables
    in reverse rank order, which give only the total series.  G is answered
    from prefix sums of the E tables, cached by the number of parts they
    cover.  The E tables are whole; the running sums they are built from
    hold only the buckets that the parts still to come read (see the
    module docstring).  The parts, weights and grades are
    ``sys.graded_parts(qmax, degmax, dilation)``'s.  A ``dilation``
    grades the tables by dilated size and keeps only the total.
    """

    def __init__(self, sys: ColouredSystem, qmax: int,
                 degmax: int | None = None, direction: str = "largest",
                 dilation: DilationSpec | None = None):
        if direction not in ("largest", "smallest"):
            raise ValueError(f"unknown direction {direction!r}")
        self.sys = sys
        self.qmax = qmax
        self.degmax = degmax
        self.direction = direction
        self.dilation = dilation
        self._E: list[list[dict]] = []
        self._build()
        # G by the number of parts it covers; each series owns its buckets,
        # which a longer prefix copies before adding to them
        self._g_cache: dict[int, TruncatedSeries] = {
            0: TruncatedSeries.one(qmax, degmax)}

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        sys, qmax, degmax = self.sys, self.qmax, self.degmax
        # each part with g <= qmax and within degmax: its weight and g
        placed = {p: (w, g)
                  for p, w, g in sys.graded_parts(qmax, degmax, self.dilation)}
        self._total: list[dict] = _one_buckets(qmax)
        parts = list(placed)
        # sign +1 takes parts in rank order, each the new largest part, with
        # the next part below as its neighbour; sign -1 takes them in reverse
        # as the new smallest part, with the next part above.  Either way a
        # neighbour n of p is admissible iff
        #     sign*size(n) <= sign*size(p) - gap(upper, lower).
        sign = 1 if self.direction == "largest" else -1
        if sign < 0:
            parts.reverse()
        self._parts = parts
        self._index = {p: i for i, p in enumerate(parts)}
        # ascending in the largest-part order, the one where G bisects it
        self._keys = [sys.part_key(p) for p in parts]

        # the gap reads only the upper part's lane (its gap-matrix row) and
        # the lower part's (colour, over) group: neighbours are classed by
        # their own side and running sums keyed by p's side, so one
        # representative stands for each class, and signed sizes rise along
        # each class in processing order -- one monotone pointer per
        # (sum, class) pair does the work.  Every admissible neighbour of p
        # comes before p: a ColouredSystem refuses, when it is built, a gap
        # rule that lets a part of larger key sit directly below another
        def group(p):
            return p.colour, p.over

        lane = sys.gap.row_class
        nb_class, sum_key = (group, lane) if sign > 0 else (lane, group)
        members: dict = {}
        for i, p in enumerate(parts):
            members.setdefault(nb_class(p), []).append(i)
        classes = [(c, idx, [sign * parts[i].size for i in idx], parts[idx[0]])
                   for c, idx in sorted(members.items())]
        sums: dict = {}
        ptrs: dict = {}

        # a running sum is read only through E_p = w q^g (1 + acc), which
        # reads buckets 0..qmax-g of acc; what is added at part i is read by
        # the parts of its key from i on, so it fills buckets up to qmax -
        # (least g among them), every bucket that any of them reads
        ends = [0] * len(parts)
        least: dict = {}
        for i in reversed(range(len(parts))):
            key = sum_key(parts[i])
            least[key] = min(least.get(key, qmax), placed[parts[i]][1])
            ends[i] = qmax + 1 - least[key]

        for i, p in enumerate(parts):
            key = sum_key(p)
            acc = sums.setdefault(key, _zero_buckets(qmax))
            read = acc[:ends[i]]
            for c, idx, signed, rep in classes:
                gap = sys.min_gap(p, rep) if sign > 0 else sys.min_gap(rep, p)
                bound = sign * p.size - gap
                ptr = ptrs.get((key, c), 0)
                while ptr < len(idx) and idx[ptr] < i and signed[ptr] <= bound:
                    _add_shifted(read, self._E[idx[ptr]])
                    ptr += 1
                ptrs[key, c] = ptr

            # E_p = w q^g (1 + acc), closed geometrically by 1/(1 - w q^g)
            # when p may sit directly next to itself; the part list already
            # holds only grades <= qmax and weights within degmax
            w, g = placed[p]
            E_p = _zero_buckets(qmax)
            E_p[g][w] = 1
            _add_shifted(E_p, acc, g, w, 1, degmax)
            if sys.min_gap(p, p) <= 0:
                _factor_step(E_p, 1, w, g, -1, degmax)
            self._E.append(E_p)
            _add_shifted(self._total, E_p)

    # -- lookups --------------------------------------------------------------

    def total_series(self) -> TruncatedSeries:
        return TruncatedSeries(self._total, self.degmax)

    def parts(self) -> list[ColouredPart]:
        return list(self._parts)

    def E(self, size: int, colour: str, over: bool = False) -> TruncatedSeries:
        """Series for partitions whose largest part is exactly size_colour."""
        self._require_largest()
        if size < 0 or (size == 0 and not self.sys.has_zero_parts):
            return TruncatedSeries.zero(self.qmax, self.degmax)
        p = ColouredPart(size, colour, over)
        idx = self._index.get(p)
        if idx is None:
            self.sys.colour(colour)  # unknown colour -> error
            return TruncatedSeries.zero(self.qmax, self.degmax)
        return TruncatedSeries(self._E[idx], self.degmax)

    def G(self, size: int, colour: str) -> TruncatedSeries:
        """Series for partitions with every part of rank <= rank(size_colour).

        G at size 0 is 1 and at negative sizes 0 for systems with positive
        minimum part size, matching the recurrences' initial conditions.
        """
        self._require_largest()
        if size < 0:
            return TruncatedSeries.zero(self.qmax, self.degmax)
        if size == 0 and not self.sys.has_zero_parts:
            return TruncatedSeries.one(self.qmax, self.degmax)
        self.sys.colour(colour)
        key = (self.sys.rank_rule.rank(ColouredPart(size, colour, False)), 1)
        # parts run in rank order, so the parts G covers are a prefix
        n = bisect_right(self._keys, key)
        cached = self._g_cache.get(n)
        if cached is None:
            # the nearest shorter cached prefix plus the E tables in between
            start = max(m for m in self._g_cache if m < n)
            buckets = [dict(b) for b in self._g_cache[start]._b]
            for E_p in self._E[start:n]:
                _add_shifted(buckets, E_p)
            cached = self._g_cache[n] = TruncatedSeries(buckets, self.degmax)
        return cached

    def _require_largest(self) -> None:
        if self.direction != "largest" or self.dilation is not None:
            raise RecurrenceError(
                "G/E lookups need largest-part tables and no dilation; this "
                f"state was built with direction {self.direction!r}, "
                f"dilation {self.dilation}")


def dp_series(sys: ColouredSystem, qmax: int, degmax: int | None = None,
              dilation: DilationSpec | None = None) -> TruncatedSeries:
    """Full generating function up to q^qmax via the recurrence engine, in
    the smallest-part order: a total needs no G/E lookups.  With a
    ``dilation``, the generating function of ``dilate_system(sys,
    dilation)`` up to q^qmax: a part's grade reads its colour's full
    weight, erased variables included (see the module docstring)."""
    return RecurrenceState(sys, qmax, degmax, "smallest",
                           dilation).total_series()


# ---------------------------------------------------------------------------
# equations
# ---------------------------------------------------------------------------


Affine = tuple[int, int]  # (alpha, beta) meaning alpha*k + beta


def _affine_eval(e: Affine, k: int) -> int:
    return e[0] * k + e[1]


def _json_affine(value: object) -> Affine:
    """An affine index read from JSON: exactly two integers."""
    if type(value) is not list or len(value) != 2:
        raise TypeError(f"expected an [alpha, beta] pair, got {value!r}")
    return _json_int(value[0]), _json_int(value[1])


def _affine_str(e: Affine, var: str = "k") -> str:
    alpha, beta = e
    if alpha == 0:
        return str(beta)
    head = {1: var, -1: f"-{var}"}.get(alpha, f"{alpha}{var}")
    if beta == 0:
        return head
    return f"{head}{beta:+d}"


@dataclass(frozen=True)
class EqTerm:
    """coeff * SERIES, where SERIES is G/E at an affine index, optionally with
    a substitution applied, or the constant 1 (kind "const").

    coeff = (sum of c * vars * q^(affine in k)) / product of (1 - q^(affine)).
    """

    kind: str                                  # "G" | "E" | "const"
    colour: str | None = None                  # may be "x" (family placeholder)
    size: Affine | None = None
    over: bool = False
    poly: tuple[tuple[int, tuple, Affine], ...] = ((1, (), (0, 0)),)
    den: tuple[Affine, ...] = ()
    sub: SubstitutionMap | None = None

    def __post_init__(self):
        if self.kind not in ("G", "E", "const"):
            raise RecurrenceError(f"unknown term kind {self.kind!r}")
        if self.kind != "const" and (self.colour is None or self.size is None):
            raise RecurrenceError(f"{self.kind} term needs colour and size")

    def coefficient_buckets(self, k: int, qmax: int) -> list[dict]:
        out = _zero_buckets(qmax)
        for c, items, qexp in self.poly:
            e = _affine_eval(qexp, k)
            if e < 0:
                raise EquationRangeError(
                    f"coefficient exponent q^({_affine_str(qexp)}) is negative "
                    f"at k={k}; restrict the k range")
            if e <= qmax and c:
                _add_shifted(out, [{Monomial(items): c}], e)
        for dexp in self.den:
            e = _affine_eval(dexp, k)
            if e <= 0:
                raise EquationRangeError(
                    f"denominator 1 - q^({_affine_str(dexp)}) vanishes or is "
                    f"singular at k={k}; restrict the k range")
            _factor_step(out, 1, Monomial.one(), e, -1)
        return out

    def add_to(self, out: list[dict], state: RecurrenceState, k: int,
               colour_binding: str | None) -> None:
        """out += this term at k, capped at the state's degmax."""
        qmax = state.qmax
        coeff = self.coefficient_buckets(k, qmax)
        if self.kind == "const":
            base = _one_buckets(0)
        else:
            colour = self.colour
            if colour == "x":
                if colour_binding is None:
                    raise RecurrenceError(
                        "term uses placeholder colour 'x' but the equation "
                        "declares no colour family")
                colour = colour_binding
            size = _affine_eval(self.size, k)
            if self.kind == "G":
                series = state.G(size, colour)
            else:
                series = state.E(size, colour, self.over)
            if self.sub is not None:
                series = substitute(series, self.sub, qmax)
            base = series._b
        # one shifted copy of the table per term of the small coefficient
        for s, bucket in enumerate(coeff):
            for mono, c in bucket.items():
                _add_shifted(out, base, s, mono, c, state.degmax)

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind != "const":
            out["colour"] = self.colour
            out["size"] = list(self.size)
            if self.over:
                out["over"] = True
        out["coeff"] = {
            "poly": [[c, dict(items), list(qexp)] for c, items, qexp in self.poly],
        }
        if self.den:
            out["coeff"]["den"] = [list(d) for d in self.den]
        if self.sub is not None:
            out["sub"] = self.sub.to_json()
        return out

    @classmethod
    def from_json(cls, data: dict) -> "EqTerm":
        coeff = data.get("coeff", {})
        poly_json = coeff.get("poly", [[1, {}, [0, 0]]])
        poly = tuple((_json_int(c), Monomial.from_dict(vars_).items, _json_affine(e))
                     for c, vars_, e in poly_json)
        den = tuple(map(_json_affine, coeff.get("den", ())))
        sub = data.get("sub")
        return cls(
            kind=data["kind"],
            colour=None if data.get("colour") is None else _json_str(data["colour"]),
            size=_json_affine(data["size"]) if "size" in data else None,
            over=_json_bool(data.get("over", False)),
            poly=poly,
            den=den,
            sub=SubstitutionMap.from_json(sub) if sub else None,
        )


def _term(kind: str, colour: str | None = None, size: Affine | None = None,
          poly=None, den: tuple[Affine, ...] = (),
          sub: SubstitutionMap | None = None, over: bool = False) -> EqTerm:
    if poly is None:
        poly = [(1, {}, (0, 0))]
    norm = tuple((c, Monomial.from_dict(vars_).items, (e[0], e[1]))
                 for c, vars_, e in poly)
    return EqTerm(kind=kind, colour=colour, size=size, over=over,
                  poly=norm, den=tuple(den), sub=sub)


@dataclass(frozen=True)
class EquationSpec:
    name: str
    system: str
    kmin: int
    kmax_default: int
    lhs: tuple[EqTerm, ...]
    rhs: tuple[EqTerm, ...]
    colours: tuple[str, ...] | None = None    # bindings for placeholder "x"
    note: str = ""

    def to_json(self) -> dict:
        out: dict = {
            "name": self.name,
            "system": self.system,
            "kmin": self.kmin,
            "kmax_default": self.kmax_default,
            "lhs": [t.to_json() for t in self.lhs],
            "rhs": [t.to_json() for t in self.rhs],
        }
        if self.colours:
            out["colours"] = list(self.colours)
        if self.note:
            out["note"] = self.note
        return out

    @classmethod
    def from_json(cls, data: dict) -> "EquationSpec":
        return cls(
            name=_json_str(data["name"]),
            system=_json_str(data["system"]),
            kmin=_json_int(data["kmin"]),
            kmax_default=_json_int(data.get("kmax_default", data["kmin"])),
            lhs=tuple(EqTerm.from_json(t) for t in data["lhs"]),
            rhs=tuple(EqTerm.from_json(t) for t in data["rhs"]),
            colours=_json_strs(data.get("colours", [])) or None,
            note=_json_str(data.get("note", "")),
        )


@dataclass
class EquationReport:
    name: str
    system: str
    kmin: int
    kmax: int
    qmax: int
    holds: bool
    failures: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "system": self.system,
            "k_range": [self.kmin, self.kmax],
            "qmax": self.qmax,
            "holds": self.holds,
            "failures": self.failures,
        }


def _sum_terms(terms: Sequence[EqTerm], state: RecurrenceState, k: int,
               colour: str | None) -> TruncatedSeries:
    out = _zero_buckets(state.qmax)
    for t in terms:
        t.add_to(out, state, k, colour)
    return TruncatedSeries(out, state.degmax)


def _failures(spec: EquationSpec, state: RecurrenceState, k: int) -> list[dict]:
    """The failure entries of k, one per colour binding whose sides differ."""
    out = []
    for colour in spec.colours or (None,):
        lhs = _sum_terms(spec.lhs, state, k, colour)
        rhs = _sum_terms(spec.rhs, state, k, colour)
        if lhs != rhs:
            n = next(i for i in range(state.qmax + 1)
                     if lhs.coefficient(i) != rhs.coefficient(i))
            out.append({
                "k": k,
                **({"colour": colour} if colour else {}),
                "first_mismatch_exponent": n,
                "lhs_coefficient": str(lhs.coefficient(n)),
                "rhs_coefficient": str(rhs.coefficient(n)),
            })
    return out


def _settled_k(spec: EquationSpec, state: RecurrenceState, start: int,
               sign: int) -> int | None:
    """The k nearest to start on sign's side of it (the least k >= start
    for sign 1, the greatest k <= start for sign -1) from which no term of
    the equation changes as k moves further that way, or None if some
    coefficient or denominator exponent falls as k moves that way (it
    turns negative and raises EquationRangeError at some k instead) or a
    G names a colour the rank rule does not know.

    Moving k down is moving -k up, so each form alpha*k + beta is read as
    (sign*alpha)*j + beta with j = sign*k, and the rule below is the one
    for a rising j.  A term stops changing once its coefficient and
    denominator exponents with alpha > 0 are past qmax (a monomial times
    q^e is then 0 and 1/(1 - q^e) is 1), a G of alpha > 0 covers every
    part of the table, an E of alpha > 0 is past it, and a G or E of
    alpha < 0 has a negative size; forms with alpha = 0 never change.
    """
    rule, qmax = state.sys.rank_rule, state.qmax
    last = state._keys[-1][0] if state._keys else None

    def reach(e: Affine, target: int) -> int:
        """The least j with e(j) >= target, for alpha > 0."""
        return -((e[1] - target) // e[0])

    ks = [sign * start]
    for t in spec.lhs + spec.rhs:
        for alpha, beta in [qexp for _, _, qexp in t.poly] + list(t.den):
            if sign * alpha < 0:
                return None
            if alpha:
                ks.append(reach((sign * alpha, beta), qmax + 1))
        if t.kind == "const" or t.size[0] == 0:
            continue
        size = (sign * t.size[0], t.size[1])
        if size[0] < 0:
            ks.append(reach((-size[0], -size[1]), 1))
        elif t.kind == "E":
            ks.append(reach(size, qmax + 1))
        else:
            colours = (spec.colours or (None,)) if t.colour == "x" else (t.colour,)
            for colour in colours:
                offset = rule.offsets.get(colour)
                if offset is None:
                    return None
                # a G covers the table from the least size whose rank
                # reaches the last part's; below size 1 it may be 1 instead
                cover = (1 if last is None
                         else max(1, reach((rule.mult, offset), last)))
                ks.append(reach(size, cover))
    return sign * max(ks)


def check_equation(spec: EquationSpec, sys: ColouredSystem | None = None,
                   kmax: int | None = None, qmax: int = 30,
                   degmax: int | None = None,
                   state: RecurrenceState | None = None) -> EquationReport:
    """Evaluate both sides for every k in range (and every colour binding)
    and compare the truncated series exactly.  Past the k at which no term
    changes any more (``_settled_k``) every k repeats that k's verdict, so
    the check stops there.  Below the k under which no term changes either,
    every k repeats kmin's verdict, so when kmin holds the check goes on
    from there.  The report keeps the requested range.  A given ``state``
    must have been built for the same system, qmax and degmax."""
    if sys is None:
        sys = build_preset(spec.system)
    if kmax is None:
        kmax = spec.kmax_default
    if kmax < spec.kmin:
        raise EquationRangeError(
            f"equation {spec.name} is declared for k >= {spec.kmin}")
    if state is None:
        state = RecurrenceState(sys, qmax, degmax)
    elif (state.sys, state.qmax, state.degmax) != (sys, qmax, degmax):
        raise RecurrenceError(
            f"the recurrence state was built for {state.sys.name} at qmax "
            f"{state.qmax}, degmax {state.degmax}; the check asks for "
            f"{sys.name} at qmax {qmax}, degmax {degmax}")
    settled = _settled_k(spec, state, spec.kmin, 1)
    top = kmax if settled is None else min(kmax, settled)
    low = _settled_k(spec, state, top, -1)
    failures = _failures(spec, state, spec.kmin)
    first = spec.kmin if failures or low is None else max(spec.kmin, low)
    for k in range(first + 1, top + 1):
        failures += _failures(spec, state, k)
    return EquationReport(spec.name, sys.name, spec.kmin, kmax, qmax,
                          not failures, failures)


# ---------------------------------------------------------------------------
# the documented equations
# ---------------------------------------------------------------------------


def _sigma_swap() -> SubstitutionMap:
    """(q; a, b) -> (q; b, aq): swap the colour variables, shifting the new
    b-argument by one power of q."""
    return SubstitutionMap(1, {
        "a": (Monomial.var("b"), 0),
        "b": (Monomial.var("a"), 1),
    })


def _q_shift_both() -> SubstitutionMap:
    """(q; a, b) -> (q; aq, bq)."""
    return SubstitutionMap(1, {
        "a": (Monomial.var("a"), 1),
        "b": (Monomial.var("b"), 1),
    })


def builtin_equations() -> list[EquationSpec]:
    """Every recurrence / initial condition / functional equation the
    documented systems satisfy, with validated k ranges."""
    eqs: list[EquationSpec] = []

    # -- two-colour distinct-part system ------------------------------------
    eqs.append(EquationSpec(
        name="schur-rec-a", system="schur-weighted", kmin=1, kmax_default=15,
        lhs=(_term("G", "a", (1, 0)),),
        rhs=(_term("G", "ab", (1, 0)),
             _term("G", "a", (1, -1), poly=[(1, {"a": 1}, (1, 0))])),
        note="G_k_a = G_k_ab + a q^k G_(k-1)_a"))
    eqs.append(EquationSpec(
        name="schur-rec-b", system="schur-weighted", kmin=1, kmax_default=15,
        lhs=(_term("G", "b", (1, 0)),),
        rhs=(_term("G", "a", (1, 0)),
             _term("G", "b", (1, -1), poly=[(1, {"b": 1}, (1, 0))])),
        note="G_k_b = G_k_a + b q^k G_(k-1)_b"))
    eqs.append(EquationSpec(
        name="schur-rec-ab", system="schur-weighted", kmin=1, kmax_default=15,
        lhs=(_term("G", "ab", (1, 0)),),
        rhs=(_term("G", "b", (1, -1)),
             _term("G", "b", (1, -2), poly=[(1, {"a": 1, "b": 1}, (1, 0))])),
        note="G_k_ab = G_(k-1)_b + ab q^k G_(k-2)_b"))
    eqs.append(EquationSpec(
        name="schur-initial-one", system="schur-weighted", kmin=0,
        kmax_default=0, colours=("a", "b", "ab"),
        lhs=(_term("G", "x", (0, 0)),),
        rhs=(_term("const"),),
        note="G_0_x = 1"))
    eqs.append(EquationSpec(
        name="schur-initial-zero", system="schur-weighted", kmin=0,
        kmax_default=0, colours=("a", "b", "ab"),
        lhs=(_term("G", "x", (0, -1)),),
        rhs=(),
        note="G_(-1)_x = 0"))
    eqs.append(EquationSpec(
        name="schur-functional", system="schur-weighted", kmin=0,
        kmax_default=12,
        lhs=(_term("G", "ab", (1, 2)),),
        rhs=(_term("G", "b", (1, 0),
                   poly=[(1, {}, (0, 0)), (1, {"a": 1}, (0, 1)),
                         (1, {"b": 1}, (0, 1)), (1, {"a": 1, "b": 1}, (0, 2))],
                   sub=_q_shift_both()),),
        note="G_(k+2)_ab(q;a,b) = (1+aq)(1+bq) G_k_b(q;aq,bq)"))

    # -- five-colour system --------------------------------------------------
    eqs.append(EquationSpec(
        name="siladic-rec-ab-odd", system="siladic-weighted", kmin=0,
        kmax_default=12,
        lhs=(_term("G", "ab", (2, 1)),),
        rhs=(_term("G", "b", (2, 0)),
             _term("G", "a", (2, -1), poly=[(1, {"a": 1, "b": 1}, (2, 1))])),
        note="G_(2k+1)_ab = G_2k_b + ab q^(2k+1) G_(2k-1)_a"))
    eqs.append(EquationSpec(
        name="siladic-sigma-ab-odd", system="siladic-weighted", kmin=1,
        kmax_default=10,
        lhs=(_term("G", "ab", (2, 1)),),
        rhs=(_term("G", "a", (2, 0),
                   poly=[(1, {}, (0, 0)), (1, {"a": 1}, (0, 1))],
                   sub=_sigma_swap()),),
        note="G_(2k+1)_ab(q;a,b) = (1+aq) G_2k_a(q;b,aq)"))
    eqs.append(EquationSpec(
        name="siladic-sigma-b2", system="siladic-weighted", kmin=0,
        kmax_default=10,
        lhs=(_term("G", "b2", (2, 1)),),
        rhs=(_term("G", "b", (2, 0),
                   poly=[(1, {}, (0, 0)), (1, {"a": 1}, (0, 1))],
                   sub=_sigma_swap()),),
        note="G_(2k+1)_b2(q;a,b) = (1+aq) G_2k_b(q;b,aq)"))
    eqs.append(EquationSpec(
        name="siladic-sigma-ab-even", system="siladic-weighted", kmin=0,
        kmax_default=10,
        lhs=(_term("G", "ab", (2, 2)),),
        rhs=(_term("G", "a", (2, 1),
                   poly=[(1, {}, (0, 0)), (1, {"a": 1}, (0, 1))],
                   sub=_sigma_swap()),),
        note="G_(2k+2)_ab(q;a,b) = (1+aq) G_(2k+1)_a(q;b,aq)"))
    eqs.append(EquationSpec(
        name="siladic-sigma-a2", system="siladic-weighted", kmin=1,
        kmax_default=10,
        lhs=(_term("G", "a2", (2, 1)),),
        rhs=(_term("G", "b", (2, -1),
                   poly=[(1, {}, (0, 0)), (1, {"a": 1}, (0, 1))],
                   sub=_sigma_swap()),),
        note="G_(2k+1)_a2(q;a,b) = (1+aq) G_(2k-1)_b(q;b,aq)"))

    # -- four-colour system --------------------------------------------------
    eqs.append(EquationSpec(
        name="primc-eg", system="primc-weighted", kmin=2, kmax_default=12,
        lhs=(_term("G", "a", (1, 0)),
             _term("G", "d", (1, -1), poly=[(-1, {}, (0, 0))])),
        rhs=(_term("E", "b", (1, -1), poly=[(1, {"a": 1}, (1, 0))]),
             _term("G", "d", (1, -2), poly=[(1, {"a": 1}, (1, 0))])),
        note="G_k_a - G_(k-1)_d = a q^k (E_(k-1)_b + G_(k-2)_d)"))
    eqs.append(EquationSpec(
        name="primc-qdiff", system="primc-weighted", kmin=3, kmax_default=12,
        lhs=(_term("G", "d", (1, 0),
                   poly=[(1, {}, (0, 0)), (-1, {"c": 1}, (1, 0))]),),
        rhs=(_term("G", "d", (1, -1),
                   poly=[(1, {}, (0, 0)), (-1, {"c": 1}, (2, 0))],
                   den=((1, 0),)),
             _term("G", "d", (1, -2),
                   poly=[(1, {"a": 1}, (1, 0)), (1, {"d": 1}, (1, 0)),
                         (1, {"a": 1, "d": 1}, (2, 0))],
                   den=((1, -1),)),
             _term("G", "d", (1, -3),
                   poly=[(1, {"a": 1, "d": 1}, (2, -1))],
                   den=((1, -2),))),
        note="(1-cq^k) G_k_d = (1-cq^2k)/(1-q^k) G_(k-1)_d + "
             "(aq^k+dq^k+adq^2k)/(1-q^(k-1)) G_(k-2)_d + "
             "adq^(2k-1)/(1-q^(k-2)) G_(k-3)_d"))
    return eqs


def builtin_equation(name: str) -> EquationSpec:
    for eq in builtin_equations():
        if eq.name == name:
            return eq
    known = ", ".join(e.name for e in builtin_equations())
    raise RecurrenceError(f"unknown equation {name!r}; known: {known}")
