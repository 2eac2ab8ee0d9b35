"""End-to-end acceptance checks: ten criteria, one test per criterion.

Every assertion is exact integer / polynomial equality -- tolerance zero.
Criteria with a runtime budget enforce it against a monotonic clock; the
others carry no time limit.  Each test also prints a one-line
``AC-n: PASS/FAIL`` summary (visible under ``pytest -s``), and running
``pytest -v`` on this file yields exactly one verdict line per criterion.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from contextlib import contextmanager

import oracles
from wwords import (
    DilationSpec,
    Monomial,
    ProductFactor,
    ProductSpec,
    SubstitutionMap,
    TruncatedSeries,
    build_preset,
    builtin_equations,
    check_equation,
    count_partitions,
    dilate_system,
    dp_series,
    enumerate_series,
    euler_factorize,
    preset_names,
    product_expand,
    recognize_periodic_product,
    search_relations,
    substitute,
    verify_identity,
)
from wwords.verify import identity_case

from helpers import poly, reexpand, series

# Gap matrix obtained by dilating the four-colour weighted system with
# modulus 2 and size shifts a:-1, b:0, c:0, d:1 (checked entry-for-entry
# in AC-5).
B2_ROWS = {
    "a": {"a": 4, "b": 1, "c": 3, "d": 2},
    "b": {"a": 3, "b": 0, "c": 2, "d": 1},
    "c": {"a": 1, "b": 2, "c": 0, "d": 3},
    "d": {"a": 2, "b": 3, "c": 1, "d": 4},
}


@contextmanager
def criterion(name: str, budget: float | None = None):
    """Time a criterion body, enforce its budget, print one verdict line."""
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL ({time.monotonic() - start:.1f}s)")
        raise
    elapsed = time.monotonic() - start
    if budget is not None and elapsed >= budget:
        print(f"{name}: FAIL ({elapsed:.1f}s, budget {budget:.0f}s)")
        raise AssertionError(
            f"{name} exceeded its {budget:.0f}s budget: {elapsed:.1f}s"
        )
    note = f", budget {budget:.0f}s" if budget is not None else ""
    print(f"{name}: PASS ({elapsed:.1f}s{note})")


def test_ac01_two_colour_engines_agree_with_product():
    """Direct enumeration, the DP recurrence, and the infinite-product
    expansion all give the same two-colour series through q^30."""
    with criterion("AC-1", budget=10.0):
        system = build_preset("schur-weighted")
        enum = enumerate_series(system, 30)
        dp = dp_series(system, 30)
        prod = product_expand(identity_case("theorem-2").product, 30)
        assert enum == dp
        assert dp == prod


def test_ac02_free_colour_prefix_and_colour_merge():
    """The free three-colour series starts 1, a, b, c, a, a^2+b, and
    merging c := ab turns it into the substituted two-colour product."""
    with criterion("AC-2"):
        free = enumerate_series(build_preset("schur-dilated-mod3"), 30)
        prefix = [poly({"1": 1}), poly({"a": 1}), poly({"b": 1}),
                  poly({"c": 1}), poly({"a": 1}), poly({"a^2": 1, "b": 1})]
        assert [free.coefficient(n) for n in range(6)] == prefix

        merge = SubstitutionMap(
            1, {"c": (Monomial.from_dict({"a": 1, "b": 1}), 0)})
        merged = substitute(free, merge, 30)
        assert merged == product_expand(
            identity_case("schur-dilated").product, 30)


def test_ac03_small_part_convention_is_resolved():
    """Exactly one of the two candidate small-part conventions makes both
    engines match the product through q^30; record which one."""
    with criterion("AC-3", budget=60.0):
        report = verify_identity("theorem-3", qmax=30)
        assert report.equal
        assert len(report.conventions["passed"]) == 1
        assert len(report.conventions["failed"]) == 1
        # the resolved convention: minimum part size 1 on the unmarked
        # colours (variant "A"); variant "B" fails the comparison
        assert report.conventions == {
            "passed": ["A"], "failed": ["B"], "resolved": "A"}


def test_ac04_specialized_counts_match_distinct_odd_parts():
    """With both colour weights erased, the dilated two-colour system
    counts exactly the partitions into distinct odd parts for n <= 60.
    The distinct-odd counts are themselves cross-checked against an
    independent direct recursion."""
    with criterion("AC-4", budget=60.0):
        dilated = count_partitions(build_preset("siladic-dilated"), 60)
        distinct_odd = count_partitions(build_preset("distinct-odd"), 60)
        reference = oracles.distinct_odd_counts(60)
        assert distinct_odd == reference
        assert dilated == reference


def test_ac05_dilations_commute_with_enumeration():
    """Dilating the weighted system and then enumerating agrees with
    substituting into the weighted series, for all three dilations; and
    the four-colour modulus-2 dilation reproduces the expected gap
    matrix entry-for-entry.  (No runtime budget.)"""
    with criterion("AC-5"):
        for name, qmax in (
            ("theorem-5", 60),   # companion dilation of the mod-3 system
            ("theorem-4", 60),   # mod-4 dilation of the two-colour system
            ("theorem-7", 50),   # modulus-2 dilation of the four-colour system
        ):
            report = verify_identity(name, qmax=qmax,
                                     engines=("enum", "dilation"))
            assert report.equal, (name, report.first_mismatch)

        dilation = DilationSpec(2, var_shifts={"a": -1, "b": 0, "c": 0, "d": 1})
        dilated = dilate_system(build_preset("primc-weighted"), dilation)
        assert dilated.gap.rows == B2_ROWS


def test_ac06_four_colour_identity_and_partition_specialization():
    """Both engines match the four-colour product through q^25; with
    a = c = d = 1 the dilated four-colour series reduces to the ordinary
    partition generating function through q^40, cross-checked by
    brute-force partition counting."""
    with criterion("AC-6", budget=120.0):
        graded = verify_identity("theorem-6", qmax=25, degmax=25,
                                 engines=("enum", "recurrence", "product"))
        assert graded.equal, graded.first_mismatch

        conjecture = verify_identity("primc-conjecture", qmax=40)
        assert conjecture.equal, conjecture.first_mismatch

        series = dp_series(build_preset("primc-dilated"), 40).specialize(
            {"a": 1, "c": 1, "d": 1})
        chains = oracles.brute_force_partitions(
            40, list(range(1, 41)),
            lambda part: part,
            lambda upper, lower: lower <= upper)
        by_size = Counter(sum(chain) for chain in chains)
        reference = [by_size[n] for n in range(41)]
        # the brute-force counts agree with the pentagonal recurrence...
        assert reference == oracles.partition_numbers(40)
        # ...and with the specialized series, coefficient by coefficient
        assert [series.coefficient(n) for n in range(41)] == [
            poly({"1": p}) for p in reference]


def test_ac07_builtin_equation_registry_holds():
    """Every registered recurrence / functional equation holds at
    qmax = 40, with the q-difference family checked for 3 <= k <= 15."""
    with criterion("AC-7", budget=120.0):
        equations = builtin_equations()
        assert len(equations) == 13
        for equation in equations:
            kmax = 15 if equation.name == "primc-qdiff" else None
            report = check_equation(equation, kmax=kmax, qmax=40)
            assert report.holds, (equation.name, report.failures[:1])
            if equation.name == "primc-qdiff":
                assert report.to_json()["k_range"] == [3, 15]


def test_ac08_overpartition_families_agree():
    """A-side and B-side graded counts agree for the overpartition
    families r = 1, 2 (n <= 12, degree cap 8) and r = 3 (n <= 10,
    degree cap 6)."""
    with criterion("AC-8", budget=300.0):
        for name, qmax, cap in (
            ("theorem-8-r1", 12, 8),
            ("theorem-8-r2", 12, 8),
            ("theorem-8-r3", 10, 6),
        ):
            report = verify_identity(name, qmax=qmax, degmax=cap)
            assert report.equal, (name, report.first_mismatch)


def test_ac09_discovery_recovers_colour_relations():
    """The relation search recovers c = ab as the unique product-like
    merge of the three-colour system, recovers the documented assignment
    for the five-class dilated system, and the periodic-product
    recognizer round-trips every registry product."""
    with criterion("AC-9", budget=120.0):
        merges = search_relations(build_preset("schur-dilated-mod3"),
                                  ["a", "b"], 18, max_exponent=2)
        assert len(merges) == 9
        product_like = [c for c in merges if c.product_like]
        assert len(product_like) == 1
        assert dict(product_like[0].substitution) == {
            "c": Monomial.from_dict({"a": 1, "b": 1})}

        classes = search_relations(build_preset("siladic-dilated-free"),
                                   ["a", "b"], 24, max_exponent=2)
        documented = {
            "x1": Monomial.var("a"),
            "x3": Monomial.var("b"),
            "x0": Monomial.from_dict({"a": 1, "b": 1}),
            "x2": Monomial.from_dict({"b": 2}),
            "x6": Monomial.from_dict({"a": 2}),
        }
        hits = [c for c in classes
                if c.product_like and dict(c.substitution) == documented]
        assert len(hits) == 1
        assert hits[0].period == 8

        for name in ("theorem-2", "schur-dilated", "theorem-3", "theorem-4",
                     "theorem-5", "theorem-6", "theorem-7",
                     "primc-conjecture"):
            f = product_expand(identity_case(name).product, 30)
            pattern = recognize_periodic_product(f)
            assert pattern is not None, name
            assert product_expand(pattern.spec, 30, f.degmax) == f, name


def test_ac10_engine_equivalence_and_algebra_properties():
    """The DP recurrence and direct enumeration agree on every preset,
    and the algebra layer passes 100 seeded random instances each of the
    substitution-homomorphism, product/inverse, and factorization
    round-trip properties.  (No runtime budget.)"""
    with criterion("AC-10"):
        for name in preset_names():
            if name.endswith("(r)"):
                continue
            system = build_preset(name)
            assert dp_series(system, 20) == enumerate_series(system, 20), name
        # the overpartition families admit size-0 parts, so a degree cap
        # is required for the series to be well-defined at each order
        for family in ("andrews-overpartitions", "primary-overpartitions"):
            for r, qmax, cap in ((1, 20, 8), (2, 20, 8), (3, 10, 6)):
                system = build_preset(f"{family}({r})")
                dp = dp_series(system, qmax, degmax=cap)
                enum = enumerate_series(system, qmax, degmax=cap)
                assert dp == enum, (family, r)

        rng = random.Random(2026)
        two_vars = ["a", "b"]
        three_vars = ["a", "b", "c"]

        def rand_series(qmax: int) -> TruncatedSeries:
            coeffs = {}
            for n in range(qmax + 1):
                terms = coeffs[n] = {}
                for _ in range(rng.randrange(3)):
                    mono = Monomial([(v, rng.randrange(2)) for v in two_vars])
                    if mono.degree <= n:  # keep the deg <= n discipline
                        terms[mono] = rng.randrange(-2, 3)
            return series(coeffs, qmax)

        def rand_spec(powers: list[int]) -> ProductSpec:
            return ProductSpec([
                ProductFactor(
                    rng.choice([1, -1]),
                    Monomial.from_dict(
                        {rng.choice(three_vars): rng.randrange(1, 3)}),
                    rng.randrange(1, 4),
                    rng.randrange(1, 4),
                    rng.choice(powers),
                )
                for _ in range(rng.randrange(1, 4))
            ])

        # substitution is a ring homomorphism: sub(f*g) == sub(f)*sub(g)
        for _ in range(100):
            qmax = 8
            f = rand_series(qmax)
            g = rand_series(qmax)
            sub = SubstitutionMap(2, {
                "a": (Monomial.var("b"), rng.choice([-1, 0, 1])),
                "b": (Monomial.var("a"), rng.choice([0, 1])),
            })
            # output window 8 is safe: (2-1)*8 >= 8
            lhs = substitute(f * g, sub, qmax)
            rhs = substitute(f, sub, qmax) * substitute(g, sub, qmax)
            assert lhs == rhs

        # a product times its power-negated mirror expands to 1
        for _ in range(100):
            spec = rand_spec([-2, -1, 1, 2])
            f = product_expand(spec, 10)
            g = product_expand(spec.negate_powers(), 10)
            assert f * g == TruncatedSeries.one(10)

        # factorize then re-expand is the identity on unit series
        for _ in range(100):
            f = product_expand(rand_spec([-1, 1, 2]), 9)
            assert reexpand(euler_factorize(f), 9) == f
