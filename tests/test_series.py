"""The power-series lower-bound machinery.

Root values asserted to tight tolerances here were produced once by the
earlier grid-and-bisection routine and are frozen as regression numbers;
coarse digits by independent analysis of the numerator polynomials.
"""

import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from avoidance import series
from avoidance.patterns import Pattern, doubled_patterns_upto
from avoidance.series import (
    BRACKET_WIDTH,
    SeriesSpec,
    _exact,
    _value_and_slope,
    certify_threeavoidable,
    check_bound_against_counts,
    distinct_prefix_len,
    evaluate,
    smallest_positive_root,
    spec_full,
    spec_prefix,
)

import oracles


def assert_bracket_proven(spec: SeriesSpec, r) -> None:
    # the integer sign check behind a found root: P(lo) > 0 >= P(hi) at
    # lo, hi = root -/+ bracket/2, with hi below every pole
    half = Fraction(r.bracket) / 2
    above = _exact(spec, Fraction(r.root) + half)
    assert above is not None
    assert _exact(spec, Fraction(r.root) - half)[0] > 0 >= above[0]


class TestSeriesSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SeriesSpec(m=3, terms=((0, 2),))
        with pytest.raises(ValueError):
            SeriesSpec(m=3, terms=((3, 0),))
        with pytest.raises(ValueError):
            SeriesSpec(m=3, terms=())

    @pytest.mark.parametrize("m", [0, -4])
    def test_rejects_alphabet_below_one(self, m):
        # the terms alone are valid here, so only m can be at fault
        with pytest.raises(ValueError, match="alphabet"):
            SeriesSpec(m=m, terms=((1, 1), (1, 1)))
        with pytest.raises(ValueError, match="alphabet"):
            spec_prefix("ABAB", m, 2)

    @pytest.mark.parametrize("m,terms", [
        (2.5, ((1, 2), (1, 2))),  # once reported a root with a float "proof"
        (3, ((3, 1.5), (3, 2))),
        (3, ((3.0, 2),)),
        (True, ((1, 1),)),  # bools were once taken for 1 and 0
        (3, ((True, 1),)),
        (3, ((1, False),)),
    ])
    def test_rejects_non_integers(self, m, terms):
        # the sign check of a root's bracket is a proof only on integers
        with pytest.raises(ValueError, match="integers"):
            SeriesSpec(m=m, terms=terms)

    @pytest.mark.parametrize("m,terms", [
        (10 ** 400, ((1, 1),)),  # once an OverflowError in pole_radius
        (3, ((10 ** 400, 1),)),
        (2 ** 1024 - 2 ** 970, ((1, 1),)),  # the least int float() rejects
        (3, ((1, 2 ** 1024),)),
    ], ids=["m", "c", "m-least", "w"])
    def test_rejects_values_beyond_float(self, m, terms):
        with pytest.raises(ValueError, match="float"):
            SeriesSpec(m=m, terms=terms)

    @pytest.mark.parametrize("v", [1, 2, 3, 10 ** 300, 2 ** 1023,
                                   2 ** 1024 - 2 ** 970 - 1],
                             ids=["1", "2", "3", "1e300", "2^1023", "max"])
    @pytest.mark.parametrize("w", [1, 2, 5, 60])
    def test_values_up_to_float_max_raise_nothing(self, v, w):
        for spec in (SeriesSpec(v, ((v, w),)), SeriesSpec(3, ((v, w),)),
                     SeriesSpec(v, ((1, w),))):
            evaluate(spec, 0.0)
            r = smallest_positive_root(spec)
            if r.found:
                assert 0 < r.bracket <= min(BRACKET_WIDTH, r.root)
                assert_bracket_proven(spec, r)
            else:
                assert r.scan_min >= 0

    def test_pole_radius(self):
        spec = SeriesSpec(m=3, terms=((3, 2),))
        assert math.isclose(spec.pole_radius, 3 ** (-1 / 2))
        spec2 = SeriesSpec(m=3, terms=((3, 2), (1, 1)))
        # the unit-coefficient term poles at x=1, the other earlier
        assert math.isclose(spec2.pole_radius, 3 ** (-1 / 2))


class TestSpecFull:
    def test_length_nine_family(self):
        spec = spec_full("AAABBCCDD", 3)
        assert spec.m == 3
        assert spec.terms == ((3, 3), (3, 2), (3, 2), (3, 2))

    def test_abab(self):
        assert spec_full("ABAB", 3).terms == ((3, 2), (3, 2))

    def test_alphabet_is_coefficient(self):
        assert spec_full("AA", 7).terms == ((7, 2),)

    def test_rejects_non_doubled(self):
        with pytest.raises(ValueError):
            spec_full("ABA", 3)


class TestSpecPrefix:
    def test_abab_two_prefix(self):
        assert spec_prefix("ABAB", 3, 2).terms == ((1, 1), (1, 1))

    def test_four_distinct_prefix(self):
        assert spec_prefix("ABCDABCD", 3, 4).terms == ((1, 1),) * 4

    def test_mixed_prefix_and_free_variables(self):
        spec = spec_prefix("ABCADBDCEE", 3, 3)
        assert spec.terms == ((1, 1), (1, 1), (1, 1), (3, 2), (3, 2))

    def test_rejects_repeated_prefix(self):
        with pytest.raises(ValueError):
            spec_prefix("ABACBDCEDE", 3, 3)  # prefix ABA repeats A

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_prefix_length_below_one(self, k):
        with pytest.raises(ValueError, match="prefix length"):
            spec_prefix("AABB", 3, k)

    def test_rejects_once_occurring_prefix_variable(self):
        with pytest.raises(ValueError):
            spec_prefix("ABCC", 3, 2)  # B never recurs: not doubled

    @pytest.mark.parametrize("p, k", [("A", 1), ("AA", 1), ("ABAB", 2),
                                      ("ABCDABCD", 4), ("ABCADBDC", 3)])
    def test_distinct_prefix_len(self, p, k):
        assert distinct_prefix_len(p) == k


class TestEvaluate:
    def test_value_at_zero_is_one(self):
        for terms in [((3, 2),), ((1, 1), (3, 3))]:
            assert evaluate(SeriesSpec(m=3, terms=terms), 0.0) == 1.0

    def test_domain_error_at_pole(self):
        spec = SeriesSpec(m=3, terms=((3, 2),))
        with pytest.raises(ValueError):
            evaluate(spec, spec.pole_radius)
        with pytest.raises(ValueError):
            evaluate(spec, -0.1)

    def test_near_zero_at_published_roots(self):
        assert abs(evaluate(SeriesSpec(m=3, terms=((1, 1),) * 4), 0.3819)) < 1e-3
        assert abs(
            evaluate(SeriesSpec(m=3, terms=((3, 3), (3, 2), (3, 2), (3, 2))), 0.34)
        ) < 1e-3

    @given(
        m=st.integers(1, 7),
        terms=st.lists(st.tuples(st.integers(1, 7), st.integers(1, 6)),
                       min_size=1, max_size=5),
        frac=st.floats(0, 1, exclude_min=True, exclude_max=True),
    )
    # a point where reordering the loop's operations changes the last bit
    @example(m=3, terms=[(1, 1), (1, 1)], frac=0.33)
    def test_newton_step_value_is_evaluate_bit_for_bit(self, m, terms, frac):
        # Newton's method reads P from the pass that also gives P'
        spec = SeriesSpec(m=m, terms=tuple(terms))
        x = frac * spec.pole_radius
        assume(0 < x < spec.pole_radius)
        assert _value_and_slope(spec, x)[0].hex() == evaluate(spec, x).hex()

    @pytest.mark.parametrize(
        "m,terms",
        [
            (3, ((3, 3), (3, 2), (3, 2), (3, 2))),
            (3, ((1, 1), (1, 1), (1, 1), (1, 1))),
            (7, ((7, 2),)),
            (3, ((1, 1), (1, 1), (3, 2), (3, 2))),
        ],
    )
    def test_closed_form_matches_truncated_series(self, m, terms):
        # guards the product-form algebra against the raw power series;
        # the tolerance is the geometric tail bound of the truncation
        x, n_terms = 0.3, 60
        spec = SeriesSpec(m=m, terms=terms)
        assert x < spec.pole_radius
        want = oracles.truncated_series_value(m, terms, x, n_terms=n_terms)
        tail = sum(
            (c * x**w) ** (n_terms // w + 1) / (1 - c * x**w) for c, w in terms
        )
        assert math.isclose(
            evaluate(spec, x), want, rel_tol=0, abs_tol=1e-9 + 3 * tail
        )


class TestSmallestPositiveRoot:
    def test_length_nine_family_root(self):
        r = smallest_positive_root(spec_full("AAABBCCDD", 3))
        assert r.found
        assert abs(r.root - 0.3400023409109351) < 1e-10
        assert r.growth > 2.941
        assert math.isclose(r.growth, 1 / r.root)

    def test_abcd_prefix_family_root(self):
        r = smallest_positive_root(spec_prefix("ABCDABCD", 3, 4))
        assert abs(r.root - 0.38196601125036583) < 1e-10

    def test_five_variable_specs(self):
        ra = smallest_positive_root(
            SeriesSpec(m=3, terms=((3, 3), (3, 2), (3, 2), (3, 2), (3, 2)))
        )
        rb = smallest_positive_root(
            SeriesSpec(m=3, terms=((1, 1), (1, 1), (1, 1), (3, 2), (3, 2)))
        )
        assert abs(ra.root - 0.3363222013424875) < 1e-10
        assert abs(rb.root - 0.35208402595778543) < 1e-10

    def test_aa_is_inconclusive_over_three_letters(self):
        # numerator 9x^3 - 3x + 1 stays positive on the domain; the minimum
        # of P sits at the root of 9x^4 - 6x^2 - 2x + 1 in (0, 1/sqrt(3))
        r = smallest_positive_root(spec_full("AA", 3))
        assert not r.found
        assert r.root is None
        assert r.scan_min > 0
        assert abs(r.scan_min - 0.46718057248434847) < 1e-15

    @pytest.mark.parametrize("spec", [SeriesSpec(4, ((1, 1),)),
                                      SeriesSpec(8, ((2, 1),))])
    def test_tangent_is_not_a_root(self, spec):
        # P = (1-2x)^2/(1-x) and (1-4x)^2/(1-2x): zero at the tangent
        # point but positive on both sides, so no bracket changes sign
        r = smallest_positive_root(spec)
        assert not r.found
        assert 0 <= r.scan_min < 1e-12

    def test_unproven_newton_limit_falls_back_to_the_minimum(
            self, monkeypatch):
        # P = (1-10x)^2/(1-5x) touches 0 at x = 1/10: Newton's method
        # converges there, the bracket's sign check fails (two _exact
        # calls), and the minimum of P is reported from a third
        calls = []
        exact = series._exact
        monkeypatch.setattr(series, "_exact",
                            lambda *args: calls.append(args) or exact(*args))
        r = smallest_positive_root(SeriesSpec(20, ((5, 1),)))
        assert not r.found
        assert 0 <= r.scan_min < 1e-20
        assert len(calls) == 3
        calls.clear()
        # the other tangent never converges: only the minimum is taken
        assert not smallest_positive_root(SeriesSpec(4, ((1, 1),))).found
        assert len(calls) == 1

    @pytest.mark.parametrize("spec, root", [
        (SeriesSpec(10 ** 11, ((1, 1),)), 1e-11),
        (SeriesSpec(10 ** 15, ((1, 1),)), 1e-15),
        (SeriesSpec(10 ** 300, ((10 ** 300, 2),)), 1e-300),
        (SeriesSpec(10 ** 300, ((10 ** 300, 5),)), 1e-300),
    ], ids=["1e11", "1e15", "1e300-w2", "1e300-w5"])
    def test_bracket_is_no_wider_than_the_root(self, spec, root):
        # a fixed 1e-12 bracket reached below 0 for the 1e15 spec, and
        # left the 1e300 roots absent with a negative scan_min
        r = smallest_positive_root(spec)
        assert r.found
        assert math.isclose(r.root, root, rel_tol=1e-9)
        assert math.isclose(r.growth, 1 / root, rel_tol=1e-9)
        assert r.bracket == min(BRACKET_WIDTH, r.root)
        assert_bracket_proven(spec, r)

    def test_roots_closer_than_the_bracket_are_bracketed_exactly(self):
        # P = (1 - m x + m c x^2)/(1 - c x) with m = 4c + 1 has two roots
        # 1/(2c) -/+ 1/(2c sqrt(m)), 5e-10 -/+ 7.9e-15: a bracket of 1e-12
        # around Newton's limit holds both, but P < 0 between them
        c = 10 ** 9
        spec = SeriesSpec(4 * c + 1, ((c, 1),))
        r = smallest_positive_root(spec)
        assert r.found
        assert 0 < r.bracket <= BRACKET_WIDTH
        assert r.scan_min <= 0
        assert abs(r.root - 5e-10) < BRACKET_WIDTH
        # P(hi) <= 0 puts hi between the roots, so (lo, hi] holds the first
        assert_bracket_proven(spec, r)

    def test_aa_over_seven_letters_has_root(self):
        r = smallest_positive_root(spec_full("AA", 7))
        assert r.found
        assert abs(r.root - 0.19384226684160027) < 1e-10
        assert abs(r.root - 0.2) < 0.01

    def test_bracket_width_and_sign_change(self):
        spec = spec_full("AAABBCCDD", 3)
        r = smallest_positive_root(spec)
        assert r.bracket <= BRACKET_WIDTH * 1.01
        # the root is simple, so P must change sign just outside the bracket
        assert evaluate(spec, r.root - 1e-9) > 0 > evaluate(spec, r.root + 1e-9)

    def test_root_is_zero_of_polynomial_numerator(self):
        # P(x) * (1 - 3x^2)^3 * (1 - 3x^3) expands to an integer
        # polynomial; the root must satisfy it to near machine precision
        r = smallest_positive_root(spec_full("AAABBCCDD", 3))
        x = r.root
        value = (
            1 - 3 * x - 9 * x**2 + 24 * x**3 + 36 * x**4 - 54 * x**5
            - 108 * x**6 + 243 * x**8 + 162 * x**9 - 243 * x**10
        )
        assert abs(value) < 1e-9

    def test_exact_sign_is_undefined_from_the_pole_on(self):
        # x/(1-x) has its pole at 1: no sign exists there or beyond
        spec = SeriesSpec(3, ((1, 1),))
        assert _exact(spec, Fraction(1)) is None
        assert _exact(spec, Fraction(3, 2)) is None


def _pattern_specs() -> set[SeriesSpec]:
    """Every distinct full and prefix spec over three letters of the
    canonical doubled patterns with at most 5 variables and length at
    most 10."""
    specs = set()
    for p in doubled_patterns_upto(5, 10):
        specs.add(spec_full(p, 3))
        for k in range(1, distinct_prefix_len(p) + 1):
            specs.add(spec_prefix(p, 3, k))
    return specs


def _assert_scan_matches_oracle(spec: SeriesSpec) -> bool:
    """Check one spec against the grid oracle and the exact closed form;
    True iff both found a root or both found none."""
    # Newton's method and the bisection on P' only evaluate P and P'
    # inside the domain; no point there may warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = smallest_positive_root(spec)
    root, bracket, scan_min = oracles.scan_first_root(
        evaluate, spec, width=BRACKET_WIDTH)
    if got.found:
        half = Fraction(got.bracket) / 2
        assert got.bracket <= BRACKET_WIDTH
        assert oracles.exact_value(spec, Fraction(got.root) - half) > 0
        assert oracles.exact_value(spec, Fraction(got.root) + half) <= 0
        assert got.scan_min <= 0
    if got.found != (root is not None):
        # only a tangent, where the grid may see a sign change that no
        # bracket proves (or miss a dip that one does)
        assert abs(got.scan_min) < 1e-9
        return False
    if got.found:
        assert abs(got.root - root) <= 1e-12
    else:
        # the true minimum lies below every grid sample
        assert got.scan_min <= scan_min + 1e-15
    return True


class TestScanMatchesScalarOracle:
    def test_on_every_pattern_spec(self):
        specs = _pattern_specs()
        assert len(specs) >= 235
        for spec in specs:
            assert _assert_scan_matches_oracle(spec)

    @given(
        m=st.integers(1, 7),
        terms=st.lists(st.tuples(st.integers(1, 7), st.integers(1, 6)),
                       min_size=1, max_size=5),
    )
    @example(m=4, terms=[(1, 1)])  # tangent at 1/2
    def test_on_random_specs(self, m, terms):
        _assert_scan_matches_oracle(SeriesSpec(m=m, terms=tuple(terms)))

    def test_root_inside_the_first_step(self):
        # the root lies below the oracle's first grid point, so the
        # oracle's bisection starts from 0
        spec = SeriesSpec(m=20000, terms=((1, 1), (1, 1)))
        assert _assert_scan_matches_oracle(spec)
        assert smallest_positive_root(spec).root < 1e-4

    def test_pole_inside_the_first_step_gives_an_empty_scan(self):
        # P'(0) = 20000 - 3 > 0, so the minimum of P is P(0) = 1
        spec = SeriesSpec(m=3, terms=((20000, 1),))
        assert spec.pole_radius < 1e-4
        r = smallest_positive_root(spec)
        assert (r.found, r.scan_min) == (False, 1.0)
        assert oracles.scan_first_root(evaluate, spec) == (None, None, 1.0)


def _random_spec_pair(rng: random.Random) -> tuple[SeriesSpec, SeriesSpec]:
    n = rng.randint(1, 4)
    terms = tuple((rng.choice([1, 3]), rng.randint(1, 3)) for _ in range(n))
    bumped = tuple((c, w + rng.randint(0, 2)) for c, w in terms)
    return SeriesSpec(m=3, terms=terms), SeriesSpec(m=3, terms=bumped)


def test_root_monotonicity_under_term_weakening():
    # raising any w_j pointwise can only pull the first root down
    rng = random.Random(5)
    found_pairs = 0
    for _ in range(300):
        spec1, spec2 = _random_spec_pair(rng)
        r1 = smallest_positive_root(spec1)
        if not r1.found:
            continue
        r2 = smallest_positive_root(spec2)
        assert r2.found
        assert r2.root <= r1.root + 1e-9
        found_pairs += 1
    assert found_pairs >= 50


class TestCertify:
    def test_length_nine_family_is_conclusive_via_full(self):
        rep = certify_threeavoidable(Pattern("AAABBCCDD"))
        assert rep.conclusive
        assert rep.best.strategy == "full"
        assert abs(rep.best.result.root - 0.3400023409109351) < 1e-10

    def test_abcd_prefixed_is_conclusive_via_prefix(self):
        rep = certify_threeavoidable(Pattern("ABCDABCD"))
        assert rep.conclusive
        assert rep.best.strategy == "prefix4"
        assert abs(rep.best.result.root - 0.38196601125036583) < 1e-10

    def test_sporadic_pattern_is_inconclusive(self):
        rep = certify_threeavoidable(Pattern("ABACBDCD"))
        assert not rep.conclusive
        assert [a.strategy for a in rep.attempts] == ["full", "prefix2"]
        assert all(not a.result.found for a in rep.attempts)

    def test_rejects_non_doubled(self):
        with pytest.raises(ValueError):
            certify_threeavoidable(Pattern("ABC"))


class TestCheckBound:
    def test_passes_on_true_counts(self):
        spec = spec_full("AAABBCCDD", 3)
        counts = [1, 3, 9, 27, 81, 243, 729, 2187, 6561, 19602]
        assert check_bound_against_counts(spec, counts)

    def test_base_cases(self):
        spec = spec_full("AAABBCCDD", 3)
        assert check_bound_against_counts(spec, [1])
        assert check_bound_against_counts(spec, [1, 3])

    def test_fails_on_deflated_counts(self):
        spec = spec_full("AAABBCCDD", 3)
        assert not check_bound_against_counts(spec, [1, 3, 8])

    def test_absent_root_is_an_error(self):
        with pytest.raises(ValueError):
            check_bound_against_counts(spec_full("AA", 3), [1, 3])
