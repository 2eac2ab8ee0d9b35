"""Coloured-integer partition systems: colours, orders, gaps, dilation.

A ColouredSystem bundles everything needed to decide which sequences of
coloured parts are valid partitions: a list of colours (each with a weight
monomial and a size domain), a rank rule (the total order on coloured
integers), a gap matrix giving the minimal difference between adjacent
parts, and explicit forbidden parts.  Every system, the overpartition
families included, states its gap condition as one MatrixGap; a column
"colour~" gives the gap to an overlined lower part.  Systems are
immutable and checked once, when they are built, against every rule the
engines rely on; dilation produces a new system with sizes k -> m*k + o_x
and correspondingly transformed gaps, ranks, and domains.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cache
from math import lcm
from typing import Callable, Mapping, NamedTuple

from .algebra import (Monomial, SubstitutionMap, _json_bool, _json_int,
                      _json_str, _json_strs)


class SystemSpecError(ValueError):
    """A system definition violates its well-formedness rules."""


#: the most part sizes per colour the validity check walks; a system whose
#: gaps, moduli, minimum sizes or forbidden parts need more is refused
CHECK_WINDOW_LIMIT = 1 << 20


# ---------------------------------------------------------------------------
# parts, domains, colours
# ---------------------------------------------------------------------------


class ColouredPart(NamedTuple):
    size: int
    colour: str
    over: bool = False

    def __str__(self) -> str:
        bar = "~" if self.over else ""
        return f"{self.size}{bar}_{self.colour}"


@dataclass(frozen=True)
class SizeDomain:
    """Allowed part sizes: size >= min_size and, if a modulus is given,
    size mod modulus in residues."""

    min_size: int = 1
    modulus: int | None = None
    residues: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.modulus is None and self.residues:
            raise SystemSpecError("domain residues need a modulus")
        if self.modulus is not None:
            if self.modulus < 1:
                raise SystemSpecError("domain modulus must be positive")
            object.__setattr__(
                self, "residues",
                frozenset(r % self.modulus for r in self.residues))
            if not self.residues:
                raise SystemSpecError("residue domain must allow something")

    def contains(self, size: int) -> bool:
        if size < self.min_size:
            return False
        if self.modulus is None:
            return True
        return size % self.modulus in self.residues

    def sizes_up_to(self, bound: int) -> list[int]:
        return [s for s in range(self.min_size, bound + 1) if self.contains(s)]

    def dilate(self, m: int, offset: int) -> "SizeDomain":
        # a domain without a modulus is modulus 1 with residue 0
        mod, residues = (self.modulus, self.residues) if self.modulus else (1, {0})
        return SizeDomain(min_size=m * self.min_size + offset, modulus=m * mod,
                          residues=frozenset(m * r + offset for r in residues))

    def to_json(self) -> dict:
        out: dict = {"min": self.min_size}
        if self.modulus is not None:
            out["modulus"] = self.modulus
            out["residues"] = sorted(self.residues)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "SizeDomain":
        modulus = data.get("modulus")
        return cls(
            min_size=_json_int(data.get("min", 1)),
            modulus=None if modulus is None else _json_int(modulus),
            residues=frozenset(map(_json_int, data.get("residues", ()))),
        )


@dataclass(frozen=True)
class ColourDef:
    label: str
    weight: Monomial
    domain: SizeDomain
    overline_allowed: bool = False

    def to_json(self) -> dict:
        out = {
            "label": self.label,
            "weight": self.weight.to_json(),
            "domain": self.domain.to_json(),
        }
        if self.overline_allowed:
            out["overline"] = True
        return out

    @classmethod
    def from_json(cls, data: dict) -> "ColourDef":
        return cls(
            label=_json_str(data["label"]),
            weight=Monomial.from_dict(data.get("weight", {})),
            domain=SizeDomain.from_json(data.get("domain", {})),
            overline_allowed=_json_bool(data.get("overline", False)),
        )


# ---------------------------------------------------------------------------
# gap rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixGap:
    """The minimal difference between adjacent parts, as a matrix.

    Rows are keyed by the upper part's row class — either its colour, or
    "colour|size mod class_modulus" when row conditions depend on the size
    residue.  Columns are keyed by the lower part's colour; a column
    "colour~" holds the gap to an overlined lower part, and where a row has
    none the plain column serves overlined parts too.
    """

    rows: Mapping[str, Mapping[str, int]]
    class_modulus: int | None = None

    def __post_init__(self):
        if self.class_modulus is not None and self.class_modulus < 1:
            raise SystemSpecError("gap class modulus must be positive")
        frozen = {rk: dict(cols) for rk, cols in self.rows.items()}
        object.__setattr__(self, "rows", frozen)

    def row_class(self, part: ColouredPart) -> str:
        if self.class_modulus is None:
            return part.colour
        return f"{part.colour}|{part.size % self.class_modulus}"

    def min_gap(self, upper: ColouredPart, lower: ColouredPart) -> int:
        rk = self.row_class(upper)
        try:
            row = self.rows[rk]
            if lower.over and lower.colour + "~" in row:
                return row[lower.colour + "~"]
            return row[lower.colour]
        except KeyError:
            raise SystemSpecError(
                f"gap matrix has no entry for row {rk!r}, column {lower.colour!r}")

    def dilate(self, m: int, offsets: Mapping[str, int]) -> "MatrixGap":
        old_mod = self.class_modulus
        new_mod = None if old_mod is None else m * old_mod
        new_rows: dict[str, dict[str, int]] = {}
        for rk, cols in self.rows.items():
            if old_mod is None:
                colour, new_rk = rk, rk
            else:
                colour, res = rk.rsplit("|", 1)
                new_rk = f"{colour}|{(m * int(res) + offsets[colour]) % new_mod}"
            new_rows[new_rk] = {
                column: m * g + offsets[colour] - offsets[column.removesuffix("~")]
                for column, g in cols.items()}
        return MatrixGap(new_rows, new_mod)

    def relabel(self, mapping: Mapping[str, str]) -> "MatrixGap":
        def rename(key: str, mark: str) -> str:
            colour, sep, rest = key.partition(mark)
            return mapping.get(colour, colour) + sep + rest

        return MatrixGap(
            {rename(rk, "|"): {rename(c, "~"): g for c, g in cols.items()}
             for rk, cols in self.rows.items()},
            self.class_modulus)

    def to_json(self) -> dict:
        out: dict = {"kind": "matrix",
                     "rows": {rk: dict(cols) for rk, cols in self.rows.items()}}
        if self.class_modulus is not None:
            out["class_modulus"] = self.class_modulus
        return out

    @classmethod
    def from_json(cls, data: dict, labels: list[str]) -> "MatrixGap":
        """Read a gap of kind "matrix", or of the older kinds "andrews" and
        "free-overpartition", which take the colour labels in list order."""
        kind = data.get("kind")
        if kind == "andrews":
            return _andrews_gap(labels)
        if kind == "free-overpartition":
            return _free_over_gap(labels)
        if kind != "matrix":
            raise SystemSpecError(f"unknown gap rule kind {kind!r}")
        rows = {rk: {c: _json_int(g) for c, g in cols.items()}
                for rk, cols in data["rows"].items()}
        if data.get("overline_extra"):  # older files: +1 below an overlined part
            rows = _overlines_one_more(rows)
        modulus = data.get("class_modulus")
        return cls(rows, None if modulus is None else _json_int(modulus))


# ---------------------------------------------------------------------------
# rank rule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankRule:
    """rank(part) = mult * size + offsets[colour]; overlined copies share the
    rank of their non-overlined twin."""

    mult: int
    offsets: Mapping[str, int]

    def __post_init__(self):
        if self.mult < 1:
            raise SystemSpecError("rank multiplier must be positive")
        object.__setattr__(self, "offsets", dict(self.offsets))

    def rank(self, part: ColouredPart) -> int:
        try:
            return self.mult * part.size + self.offsets[part.colour]
        except KeyError:
            raise SystemSpecError(f"rank rule has no offset for colour {part.colour!r}")

    def dilate(self, m: int, colour_offsets: Mapping[str, int]) -> "RankRule":
        # rank expressed in dilated sizes: scale ranks by m (order-preserving)
        # and rewrite mult*k + B as mult*size' + (m*B - mult*o_x).
        return RankRule(self.mult, {
            x: m * b - self.mult * colour_offsets[x]
            for x, b in self.offsets.items()})

    def relabel(self, mapping: Mapping[str, str]) -> "RankRule":
        return RankRule(self.mult,
                        {mapping.get(x, x): b for x, b in self.offsets.items()})

    def to_json(self) -> dict:
        return {"mult": self.mult, "offsets": dict(self.offsets)}

    @classmethod
    def from_json(cls, data: dict) -> "RankRule":
        return cls(_json_int(data["mult"]),
                   {x: _json_int(b) for x, b in data["offsets"].items()})


# ---------------------------------------------------------------------------
# dilation spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DilationSpec:
    """A dilation as a substitution of the colour variables:
    q -> q^modulus and v -> v * q^var_shifts[v] (Siladic's theorem uses
    q -> q^4, a -> a*q^-3, b -> b*q^-1).

    The offset of a weight monomial (the amount added to m*size for a part
    of that weight; o_x for colour x) is the sum over its variables of
    exponent * var_shift; a variable with no shift has shift 0.
    """

    modulus: int
    var_shifts: Mapping[str, int]

    def __post_init__(self):
        if self.modulus < 1:
            raise SystemSpecError("dilation modulus must be positive")
        object.__setattr__(self, "var_shifts", dict(self.var_shifts))

    def offset_of(self, weight: Monomial) -> int:
        return sum(exp * self.var_shifts.get(name, 0)
                   for name, exp in weight.items)


# ---------------------------------------------------------------------------
# the system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColouredSystem:
    name: str
    colours: tuple[ColourDef, ...]
    gap: MatrixGap
    rank_rule: RankRule
    forbidden_parts: frozenset[tuple[int, str]] = frozenset()
    overline_marker: str | None = None
    erased_vars: tuple[str, ...] = ()
    description: str = ""

    _label_index: dict = field(default=None, repr=False, compare=False)
    #: the variables some colour weight carries, overline marker excluded
    carried_vars: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "colours", tuple(self.colours))
        object.__setattr__(self, "forbidden_parts",
                           frozenset((int(s), c) for s, c in self.forbidden_parts))
        object.__setattr__(self, "erased_vars", tuple(self.erased_vars))
        object.__setattr__(self, "carried_vars", frozenset(
            v for c in self.colours for v, _ in c.weight.items))
        unknown = sorted(set(self.erased_vars) - self.carried_vars)
        if unknown:
            raise SystemSpecError(f"erased {unknown} carried by no colour weight")
        index = {c.label: i for i, c in enumerate(self.colours)}
        if len(index) != len(self.colours):
            raise SystemSpecError("duplicate colour labels")
        for label in index:
            if "~" in label or "|" in label:
                raise SystemSpecError(f"colour label {label!r} holds '~' or '|', "
                                      "which mark gap-matrix columns and rows")
        if self.overline_marker in self.carried_vars:
            raise SystemSpecError(f"overline marker {self.overline_marker!r} "
                                  "is also a colour weight variable")
        object.__setattr__(self, "_label_index", index)
        self._check_validity()

    def _check_validity(self) -> None:
        """Refuse a system the engines cannot run: a colour with parts of
        negative size, a missing rank offset or gap entry, two parts of one
        rank, or a part that may sit directly below a part of smaller key
        (both engines add parts in key order).

        The check is exact on a finite window.  Above every minimum size
        and forbidden part, validity repeats with the period L of the
        domains and gap rows, and shifting a pair of parts by L keeps its
        gap and rank difference, so upper parts up to two periods past the
        largest gap stand for all.  The rank difference of a pair grows
        with its size difference, so of each lower column only the largest
        part admissible below an upper part can disagree with it, and only
        one part of each other colour can share its rank.
        """
        period = lcm(self.gap.class_modulus or 1,
                     *(c.domain.modulus or 1 for c in self.colours))
        stable = max([c.domain.min_size for c in self.colours]
                     + [s + 1 for s, _ in self.forbidden_parts], default=0)
        gaps = [0] + [g for cols in self.gap.rows.values() for g in cols.values()]
        top = stable + max(gaps) + 2 * period  # upper parts: sizes below top
        window = top - min(gaps) - min((c.domain.min_size for c in self.colours),
                                       default=0)
        if window > CHECK_WINDOW_LIMIT:
            raise SystemSpecError(
                f"the validity check would walk {window} part sizes per colour, "
                f"more than {CHECK_WINDOW_LIMIT}: a gap, modulus, minimum size "
                "or forbidden part is too large")
        sizes = {c.label: [s for s in c.domain.sizes_up_to(top - min(gaps))
                           if (s, c.label) not in self.forbidden_parts]
                 for c in self.colours}
        for label, valid in sizes.items():
            if valid[0] < 0:
                raise SystemSpecError(
                    f"colour {label!r} has parts of negative size {valid[0]}")
        rank, mult = self.rank_rule.rank, self.rank_rule.mult
        # an overlined upper part has its plain twin's gaps and a larger key
        columns = [ColouredPart(0, d.label, over) for d in self.colours
                   for over in (False, True)[: 1 + d.overline_allowed]]
        for c in self.colours:
            for s in sizes[c.label]:
                if s >= top:
                    break
                upper = ColouredPart(s, c.label)
                for column in columns:
                    size, rem = divmod(rank(upper) - rank(column), mult)
                    twin = column._replace(size=size)
                    if (not rem and not column.over and column.colour != c.label
                            and self.part_validity(twin) is None):
                        raise SystemSpecError(f"rank collision: {upper} and "
                                              f"{twin} share rank {rank(upper)}")
                    below = sizes[column.colour]
                    i = bisect_right(below, s - self.min_gap(upper, column))
                    if i == 0:
                        continue
                    lower = column._replace(size=below[i - 1])
                    if self.part_key(upper) < self.part_key(lower):
                        raise SystemSpecError(
                            "gap rule and order disagree: "
                            f"{lower} may sit directly below {upper}, "
                            f"but rank({upper}) < rank({lower})")

    # -- lookups ------------------------------------------------------------

    def colour(self, label: str) -> ColourDef:
        try:
            return self.colours[self._label_index[label]]
        except KeyError:
            raise SystemSpecError(f"unknown colour {label!r}")

    def variables(self) -> list[str]:
        marker = {self.overline_marker} if self.overline_marker else set()
        return sorted(self.carried_vars | marker)

    @property
    def has_zero_parts(self) -> bool:
        return any(c.domain.contains(0) and (0, c.label) not in self.forbidden_parts
                   for c in self.colours)

    # -- parts --------------------------------------------------------------

    def part_validity(self, part: ColouredPart) -> str | None:
        """None if valid, else a human-readable reason."""
        if part.colour not in self._label_index:
            return f"unknown colour {part.colour!r}"
        c = self.colour(part.colour)
        if part.over and not c.overline_allowed:
            return f"colour {part.colour!r} does not admit overlined parts"
        if not c.domain.contains(part.size):
            return f"size {part.size} outside the domain of colour {part.colour!r}"
        if (part.size, part.colour) in self.forbidden_parts:
            return f"part {part} is explicitly forbidden"
        return None

    def part_weight(self, part: ColouredPart) -> Monomial:
        """The colour weight less the erased variables, times the overline
        marker on a plain part: the one weight every engine builds from."""
        w = self.colour(part.colour).weight
        if self.erased_vars:
            w = Monomial((v, e) for v, e in w.items if v not in self.erased_vars)
        if self.overline_marker and not part.over:
            w = w * Monomial.var(self.overline_marker)
        return w

    def min_gap(self, upper: ColouredPart, lower: ColouredPart) -> int:
        return self.gap.min_gap(upper, lower)

    def part_key(self, part: ColouredPart) -> tuple[int, int]:
        """(rank, overline flag): the engines' processing order."""
        return (self.rank_rule.rank(part), 1 if part.over else 0)

    def parts_up_to(self, max_size: int) -> list[ColouredPart]:
        """All valid parts with size <= max_size, ascending by part_key."""
        out: list[ColouredPart] = []
        for c in self.colours:
            for s in c.domain.sizes_up_to(max_size):
                if (s, c.label) in self.forbidden_parts:
                    continue
                out.append(ColouredPart(s, c.label, False))
                if c.overline_allowed:
                    out.append(ColouredPart(s, c.label, True))
        out.sort(key=self.part_key)
        return out

    def graded_parts(self, qmax: int, degmax: int | None = None,
                     dilation: DilationSpec | None = None
                     ) -> list[tuple[ColouredPart, Monomial, int]]:
        """(part, part_weight, g) for every part an engine places, ascending
        by part_key: g <= qmax and, under a cap, degree <= degmax.  g is the
        size, or under a dilation the dilated part's, m*size + the offset of
        the colour's full weight (erased variables included).

        The one termination rule: a part at g = 0 repeats at no cost in
        size, so it needs degmax and a weight that keeps a variable once
        erased variables are set to 1; g < 0, and a shift on a variable no
        colour weight carries, are refused as the dilated system is."""
        if qmax < 0:
            raise ValueError("qmax must be >= 0")
        d = dilation or DilationSpec(1, {})
        _check_shifts_carried(self, d)
        offsets = {c.label: d.offset_of(c.weight) for c in self.colours}
        weights: dict[tuple, Monomial] = {}  # per (colour, over) = p[1:]
        out = []
        # g rises with size along each colour
        for p in self.parts_up_to(
                (qmax - min(offsets.values(), default=0)) // d.modulus):
            w = weights.get(p[1:])
            if w is None:
                w = weights[p[1:]] = self.part_weight(p)
            g = d.modulus * p.size + offsets[p.colour]
            if g < 0:
                raise SystemSpecError(f"part {p} dilates to size {g} < 0, "
                                      "which the dilated system refuses")
            if g == 0 and degmax is None:
                raise SystemSpecError(f"part {p} sits at size 0: size-0 parts "
                                      "need a degree bound (degmax) for the "
                                      "engines to stop")
            if g == 0 and w.degree == 0:
                raise SystemSpecError(f"part {p} sits at size 0: size-0 parts "
                                      "of weight 1 (erased variables set to 1) "
                                      "repeat without end under any cap")
            if g <= qmax and (degmax is None or w.degree <= degmax):
                out.append((p, w, g))
        return out

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        out: dict = {
            "name": self.name,
            "min_size": 0 if self.has_zero_parts else 1,
            "colours": [c.to_json() for c in self.colours],
            "rank": self.rank_rule.to_json(),
            "gap": self.gap.to_json(),
            "forbidden": sorted([s, c] for s, c in self.forbidden_parts),
        }
        if self.overline_marker:
            out["overline_marker"] = self.overline_marker
        if self.erased_vars:
            out["erased"] = list(self.erased_vars)
        if self.description:
            out["description"] = self.description
        return out

    @classmethod
    def from_json(cls, data: dict) -> "ColouredSystem":
        colours = tuple(ColourDef.from_json(c) for c in data["colours"])
        return cls(
            name=_json_str(data.get("name", "custom")),
            colours=colours,
            gap=MatrixGap.from_json(data["gap"], [c.label for c in colours]),
            rank_rule=RankRule.from_json(data["rank"]),
            forbidden_parts=frozenset((_json_int(s), _json_str(c))
                                      for s, c in data.get("forbidden", ())),
            overline_marker=(None if data.get("overline_marker") is None
                             else _json_str(data["overline_marker"])),
            erased_vars=_json_strs(data.get("erased", [])),
            description=_json_str(data.get("description", "")),
        )


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def andrews_colour_data(i: int) -> tuple[Monomial, int, int, int]:
    """(weight, w, v, z) for composite colour index i >= 1: weight is the
    product of primary variables u_k over set bits of i, w the number of set
    bits, v/z the least/greatest set-bit position (1-based)."""
    if i < 1:
        raise SystemSpecError("colour index must be >= 1")
    bits = [k + 1 for k in range(i.bit_length()) if (i >> k) & 1]
    weight = Monomial((f"u{k}", 1) for k in bits)
    return weight, len(bits), bits[0], bits[-1]


def andrews_colour_label(i: int) -> str:
    bits = [k + 1 for k in range(i.bit_length()) if (i >> k) & 1]
    return "".join(f"u{k}" for k in bits)


def _overlines_one_more(rows: Mapping[str, Mapping[str, int]]) -> dict:
    """Add a "colour~" column one above each plain column."""
    return {rk: {**cols, **{f"{c}~": g + 1 for c, g in cols.items()}}
            for rk, cols in rows.items()}


def _andrews_gap(labels: list[str]) -> MatrixGap:
    """w(lower) + chi(lower overlined) - 1 + delta(upper, lower), where the
    colour at list position i - 1 is the subset of primary colours given by
    the set bits of i, w is the subset size, and delta(x, y) = 1 when
    max(x) < min(y)."""
    data = [andrews_colour_data(i)[1:] for i in range(1, len(labels) + 1)]
    return MatrixGap(_overlines_one_more({
        upper: {lower: w - 1 + (z < v) for lower, (w, v, _) in zip(labels, data)}
        for upper, (_, _, z) in zip(labels, data)}))


def _free_over_gap(labels: list[str]) -> MatrixGap:
    """Canonical listing of unrestricted coloured overpartitions: equal
    sizes run with colour position non-increasing downward and the
    overlined copy of a (size, colour) ahead of its plain copies, so the
    gap is [pos(upper) < pos(lower)], plus 1 below an equal colour when the
    lower part is overlined."""
    return MatrixGap({
        upper: {**{lower: int(i < j) for j, lower in enumerate(labels)},
                **{f"{lower}~": int(i <= j) for j, lower in enumerate(labels)}}
        for i, upper in enumerate(labels)})


def _check_shifts_carried(sys: ColouredSystem, d: DilationSpec) -> None:
    """Refuse a dilation that shifts a variable which no colour weight of
    the system carries, such as the overline marker."""
    unknown = sorted(set(d.var_shifts) - sys.carried_vars)
    if unknown:
        raise SystemSpecError(
            f"dilation shifts {', '.join(map(repr, unknown))}, which no "
            f"colour weight of {sys.name!r} carries")


def dilate_system(sys: ColouredSystem, d: DilationSpec,
                  name: str | None = None) -> ColouredSystem:
    """Map sizes k -> m*k + o_x and transform domains, gaps, ranks, and
    forbidden parts accordingly.  A gap g from upper colour x to lower
    colour y becomes m*g + o_x - o_y; a "y~" column uses the offset of y.
    Every shifted variable must be carried by some colour weight."""
    _check_shifts_carried(sys, d)
    m = d.modulus
    offsets = {c.label: d.offset_of(c.weight) for c in sys.colours}
    new_colours = []
    for c in sys.colours:
        dom = c.domain.dilate(m, offsets[c.label])
        new_colours.append(replace(c, domain=dom))
    new_forbidden = set()
    for s, label in sys.forbidden_parts:
        new_forbidden.add((m * s + offsets[label], label))
    return ColouredSystem(
        name=name or f"{sys.name}-dilated-m{m}",
        colours=tuple(new_colours),
        gap=sys.gap.dilate(m, offsets),
        rank_rule=sys.rank_rule.dilate(m, offsets),
        forbidden_parts=frozenset(new_forbidden),
        overline_marker=sys.overline_marker,
        erased_vars=sys.erased_vars,
        description=f"{sys.description} (dilated q -> q^{m})".strip(),
    )


def statistic_substitution(d: DilationSpec) -> SubstitutionMap:
    """Series-level substitution matching dilate_system: q -> q^m and each
    weight variable v -> v * q^shift(v)."""
    images = {v: (Monomial.var(v), s) for v, s in d.var_shifts.items()}
    return SubstitutionMap(d.modulus, images)


def relabel_colours(sys: ColouredSystem, label_map: Mapping[str, str],
                    weight_map: Mapping[str, Monomial],
                    name: str) -> ColouredSystem:
    """Rename colours and replace their weight monomials (used to build
    free-colour variants of concrete systems)."""
    new_colours = tuple(
        replace(c, label=label_map.get(c.label, c.label),
                weight=weight_map.get(c.label, c.weight))
        for c in sys.colours)
    return ColouredSystem(
        name=name,
        colours=new_colours,
        gap=sys.gap.relabel(label_map),
        rank_rule=sys.rank_rule.relabel(label_map),
        forbidden_parts=frozenset(
            (s, label_map.get(c, c)) for s, c in sys.forbidden_parts),
        overline_marker=sys.overline_marker,
        erased_vars=(),
        description=f"{sys.name} with free colour variables",
    )


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _mono(d: Mapping[str, int]) -> Monomial:
    return Monomial.from_dict(d)


def _schur_weighted() -> ColouredSystem:
    # two free colours a, b and the composite ab; order ab < a < b at each size
    colours = (
        ColourDef("ab", _mono({"a": 1, "b": 1}), SizeDomain(min_size=2)),
        ColourDef("a", _mono({"a": 1}), SizeDomain(min_size=1)),
        ColourDef("b", _mono({"b": 1}), SizeDomain(min_size=1)),
    )
    gap = MatrixGap({
        "a": {"a": 1, "b": 2, "ab": 1},
        "b": {"a": 1, "b": 1, "ab": 1},
        "ab": {"a": 2, "b": 2, "ab": 2},
    })
    rank = RankRule(3, {"ab": -3, "a": -2, "b": -1})
    return ColouredSystem(
        name="schur-weighted", colours=colours, gap=gap, rank_rule=rank,
        description="distinct parts in colours ab < a < b with gap 2 after "
                    "ab-coloured parts or ascending colour pairs",
    )


def _schur_dilated_mod3() -> ColouredSystem:
    # schur-dilated with a free colour c for its ab, one per residue mod 3
    colours = (
        ColourDef("a", _mono({"a": 1}), SizeDomain(1, 3, frozenset({1}))),
        ColourDef("b", _mono({"b": 1}), SizeDomain(1, 3, frozenset({2}))),
        ColourDef("c", _mono({"c": 1}), SizeDomain(3, 3, frozenset({0}))),
    )
    gap = MatrixGap({
        "a": {"a": 3, "b": 5, "c": 4},
        "b": {"a": 4, "b": 3, "c": 5},
        "c": {"a": 5, "b": 4, "c": 6},
    })
    rank = RankRule(1, {"a": 0, "b": 0, "c": 0})
    return ColouredSystem(
        name="schur-dilated-mod3", colours=colours, gap=gap, rank_rule=rank,
        description="parts >= 3 apart coloured by residue mod 3 (free colours)",
    )


def _siladic_weighted(convention: str = "A") -> ColouredSystem:
    colours = (
        ColourDef("a", _mono({"a": 1}), SizeDomain(min_size=1)),
        ColourDef("b", _mono({"b": 1}), SizeDomain(min_size=1)),
        ColourDef("ab", _mono({"a": 1, "b": 1}), SizeDomain(min_size=1)),
        ColourDef("a2", _mono({"a": 2}), SizeDomain(3, 2, frozenset({1}))),
        ColourDef("b2", _mono({"b": 2}), SizeDomain(1, 2, frozenset({1}))),
    )
    gap = MatrixGap({
        "a|1": {"a": 2, "b": 2, "ab": 1, "a2": 2, "b2": 2},
        "b2|1": {"a": 2, "b": 3, "ab": 2, "a2": 2, "b2": 4},
        "b|1": {"a": 1, "b": 2, "ab": 1, "a2": 2, "b2": 2},
        "ab|0": {"a": 2, "b": 2, "ab": 2, "a2": 3, "b2": 3},
        "a|0": {"a": 2, "b": 2, "ab": 2, "a2": 3, "b2": 3},
        "a2|1": {"a": 3, "b": 3, "ab": 3, "a2": 4, "b2": 4},
        "b|0": {"a": 1, "b": 2, "ab": 1, "a2": 1, "b2": 3},
        "ab|1": {"a": 2, "b": 3, "ab": 2, "a2": 2, "b2": 3},
    }, class_modulus=2)
    rank = RankRule(4, {"a": -3, "b": -1, "ab": -4, "a2": -6, "b2": -2})
    forbidden: set[tuple[int, str]] = {(1, "ab"), (1, "b2")}
    if convention == "B":
        forbidden.add((1, "b"))
    elif convention != "A":
        raise SystemSpecError(f"unknown small-part convention {convention!r}")
    return ColouredSystem(
        name="siladic-weighted" + ("" if convention == "A" else "-conv" + convention),
        colours=colours, gap=gap, rank_rule=rank,
        forbidden_parts=frozenset(forbidden),
        description="five-colour system with parity-dependent gaps; small-part "
                    f"convention {convention}",
    )


def _primc_weighted() -> ColouredSystem:
    colours = (
        ColourDef("a", _mono({"a": 1}), SizeDomain(min_size=1)),
        ColourDef("b", _mono({"b": 1}), SizeDomain(min_size=1)),
        ColourDef("c", _mono({"c": 1}), SizeDomain(min_size=1)),
        ColourDef("d", _mono({"d": 1}), SizeDomain(min_size=1)),
    )
    gap = MatrixGap({
        "a": {"a": 2, "b": 1, "c": 2, "d": 2},
        "b": {"a": 1, "b": 0, "c": 1, "d": 1},
        "c": {"a": 0, "b": 1, "c": 0, "d": 2},
        "d": {"a": 0, "b": 1, "c": 0, "d": 2},
    })
    rank = RankRule(4, {"a": -4, "b": -3, "c": -2, "d": -1})
    return ColouredSystem(
        name="primc-weighted", colours=colours, gap=gap, rank_rule=rank,
        erased_vars=("b",),
        description="four-colour crystal-base system; b tracked internally "
                    "and erased on output",
    )


def _overpartitions(name: str, weights: Mapping[str, Monomial],
                    gap_rule: Callable[[list[str]], MatrixGap],
                    description: str) -> ColouredSystem:
    """Colours in rank order at each size, each admitting size-0 and
    overlined parts; gap_rule builds the matrix from the labels."""
    labels = list(weights)
    return ColouredSystem(
        name=name,
        colours=tuple(ColourDef(x, w, SizeDomain(min_size=0), overline_allowed=True)
                      for x, w in weights.items()),
        gap=gap_rule(labels),
        rank_rule=RankRule(len(labels), {x: i for i, x in enumerate(labels)}),
        overline_marker="t",
        description=description,
    )


def _andrews_overpartitions(r: int) -> ColouredSystem:
    n = 2 ** r - 1
    weights = {andrews_colour_label(i): andrews_colour_data(i)[0]
               for i in range(1, n + 1)}
    return _overpartitions(
        f"andrews-overpartitions-r{r}", weights, _andrews_gap,
        f"overpartitions in {n} composite colours with the "
        "w + chi - 1 + delta difference rule")


def _primary_overpartitions(r: int) -> ColouredSystem:
    weights = {f"u{i}": Monomial.var(f"u{i}") for i in range(1, r + 1)}
    return _overpartitions(
        f"primary-overpartitions-r{r}", weights, _free_over_gap,
        f"unrestricted overpartitions in {r} primary colours")


def _distinct_odd() -> ColouredSystem:
    colours = (ColourDef("a", Monomial.one(), SizeDomain(1, 2, frozenset({1}))),)
    return ColouredSystem(
        name="distinct-odd", colours=colours,
        gap=MatrixGap({"a": {"a": 2}}),
        rank_rule=RankRule(1, {"a": 0}),
        description="partitions into distinct odd parts (uncoloured counting)",
    )


def _distinct_residues(name: str, modulus: int, residues: tuple[int, ...],
                       vars_: tuple[str, ...]) -> ColouredSystem:
    colours = tuple(
        ColourDef(v, Monomial.var(v), SizeDomain(1, modulus, frozenset({res})))
        for v, res in zip(vars_, residues))
    rows = {v: {w: 1 for w in vars_} for v in vars_}
    return ColouredSystem(
        name=name, colours=colours,
        gap=MatrixGap(rows),
        rank_rule=RankRule(1, {v: 0 for v in vars_}),
        description=f"distinct parts in residue classes {residues} mod {modulus}",
    )


def _siladic_dilated_free() -> ColouredSystem:
    base = build_preset("siladic-dilated")
    label_map = {"a": "x1", "b": "x3", "ab": "x0", "a2": "x6", "b2": "x2"}
    weight_map = {old: Monomial.var(new) for old, new in label_map.items()}
    return relabel_colours(base, label_map, weight_map, "siladic-dilated-free")


_PRESET_BUILDERS = {
    "schur-weighted": _schur_weighted,
    "schur-dilated-mod3": _schur_dilated_mod3,
    "siladic-weighted": lambda: _siladic_weighted("A"),
    "siladic-weighted-convB": lambda: _siladic_weighted("B"),
    "siladic-dilated-free": _siladic_dilated_free,
    "primc-weighted": _primc_weighted,
    "distinct-odd": _distinct_odd,
    "distinct-mod3": lambda: _distinct_residues(
        "distinct-mod3", 3, (1, 2), ("a", "b")),
    "distinct-mod4": lambda: _distinct_residues(
        "distinct-mod4", 4, (1, 3), ("a", "b")),
}

#: dilated preset -> (weighted source, dilation): each is built as
#: dilate_system(build_preset(source), dilation), and the verifier's
#: dilation engine runs the source graded by the same dilation
DILATED_PRESETS = {
    "siladic-dilated": ("siladic-weighted",
                        DilationSpec(4, var_shifts={"a": -3, "b": -1})),
    "schur-companion": ("siladic-weighted",
                        DilationSpec(3, var_shifts={"a": -2, "b": -1})),
    "primc-dilated": ("primc-weighted",
                      DilationSpec(2, var_shifts={"a": -1, "b": 0, "c": 0, "d": 1})),
    "schur-dilated": ("schur-weighted",
                      DilationSpec(3, var_shifts={"a": -2, "b": -1})),
}

_PARAMETRIC_PRESETS = {
    "andrews-overpartitions": _andrews_overpartitions,
    "primary-overpartitions": _primary_overpartitions,
}


def preset_names() -> list[str]:
    """Registry listing; parametric families are listed with an (r) suffix."""
    return (sorted([*_PRESET_BUILDERS, *DILATED_PRESETS])
            + [f"{p}(r)" for p in _PARAMETRIC_PRESETS])


@cache
def build_preset(name: str) -> ColouredSystem:
    """Build a named preset.  Parametric families take their parameter r
    inline, as in 'andrews-overpartitions(2)'.  Systems are immutable, so
    each preset is built and checked once per process."""
    base, r = name, None
    if "(" in name and name.endswith(")"):
        base, arg = name[:-1].split("(", 1)
        try:
            r = int(arg)
        except ValueError:
            raise SystemSpecError(f"bad preset parameter in {name!r}")
    if base in _PARAMETRIC_PRESETS:
        if r is None or r < 1:
            raise SystemSpecError(f"{base} needs r >= 1")
        return _PARAMETRIC_PRESETS[base](r)
    if r is not None:
        raise SystemSpecError(f"preset {base!r} takes no parameter")
    if base in DILATED_PRESETS:
        source, d = DILATED_PRESETS[base]
        return dilate_system(build_preset(source), d, base)
    try:
        builder = _PRESET_BUILDERS[base]
    except KeyError:
        raise SystemSpecError(
            f"unknown preset {name!r}; known: {', '.join(preset_names())}")
    return builder()
