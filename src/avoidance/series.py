"""Power-series growth certificates for pattern-avoiding languages.

A spec represents P(x) = 1 - m*x + prod_j ( c_j x^{w_j} / (1 - c_j x^{w_j}) ),
with m and every c_j, w_j an integer that float() can represent. A
positive root x0 of P certifies that the language has at least x0^{-i}
words of each length i, hence exponential growth 1/x0. One term rule turns
a doubled pattern into a spec: a variable of a chosen all-distinct head is
determined by the rest and gives (1, occurrences - 1), every other
variable is free and gives (m, occurrences). The "full" strategy takes an
empty head, "prefix" the first k symbols.

The product is a power series with non-negative coefficients, so on
[0, pole_radius) P is convex and at least 1 - m*x. Its first root is found
by Newton's method from 1/m, each step reading P and P' from one pass over
the terms, and reported only with a bracket of at most
min(BRACKET_WIDTH, root) whose sign change is proven in integer
arithmetic; without one the root is absent, and scan_min is the minimum
of P.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .patterns import Pattern, is_doubled, variables

BRACKET_WIDTH = 1e-12


@dataclass(frozen=True)
class SeriesSpec:
    m: int
    terms: tuple[tuple[int, int], ...]  # (c_j, w_j), c_j >= 1, w_j >= 1

    def __post_init__(self) -> None:
        # _exact's sign check is a proof only in integer arithmetic
        values = (self.m, *(v for term in self.terms for v in term))
        if not all(type(v) is int for v in values):  # bool is no integer here
            raise ValueError(f"m={self.m!r} and terms {self.terms!r} "
                             "must be integers")
        if max(values) >= 2 ** 1024 - 2 ** 970:  # the least int float() rejects
            raise ValueError("m and terms must fit in a float")
        if self.m < 1:
            raise ValueError(f"alphabet size m={self.m} must be at least 1")
        if not self.terms:
            raise ValueError("spec needs at least one term")
        if any(c < 1 or w < 1 for c, w in self.terms):
            raise ValueError(f"bad term in {self.terms}")

    @cached_property
    def pole_radius(self) -> float:
        return min(c ** (-1.0 / w) for c, w in self.terms)


@dataclass(frozen=True)
class RootResult:
    root: Optional[float]
    growth: Optional[float]
    bracket: Optional[float]
    scan_min: float

    @property
    def found(self) -> bool:
        return self.root is not None


def _spec(p: str, m: int, head: str) -> SeriesSpec:
    """The term rule: (1, occ - 1) for each variable of head, determined by
    the rest, and (m, occ) for every other, free variable."""
    if not is_doubled(p):
        raise ValueError(f"{p} is not doubled; a lone variable defeats the count")
    return SeriesSpec(m, tuple(
        (1, p.count(v) - 1) if v in head else (m, p.count(v))
        for v in variables(p)[0]))


def spec_full(p: str, m: int) -> SeriesSpec:
    """One term (m, occurrences of X_j) per variable: every image letter is
    a free choice."""
    return _spec(p, m, "")


def distinct_prefix_len(p: str) -> int:
    """Length of the longest prefix of p whose symbols are all distinct."""
    seen: set[str] = set()
    for c in p:
        if c in seen:
            break
        seen.add(c)
    return len(seen)


def spec_prefix(p: str, m: int, k: int) -> SeriesSpec:
    """Terms for a pattern whose first k symbols are k distinct variables:
    those variables are determined by the tail, contributing (1, occ-1);
    the remaining variables stay free with (m, occ)."""
    if k < 1:
        raise ValueError(f"prefix length k={k} must be at least 1")
    head = p[:k]
    if len(head) < k or len(set(head)) != k:
        raise ValueError(f"first {k} symbols of {p} are not distinct")
    return _spec(p, m, head)


def evaluate(spec: SeriesSpec, x: float) -> float:
    """Closed-form P(x); defined on [0, pole_radius)."""
    if x < 0 or x >= spec.pole_radius:
        raise ValueError(f"x={x} outside [0, {spec.pole_radius})")
    return _value_and_slope(spec, x)[0] if x else 1.0


def _value_and_slope(spec: SeriesSpec, x: float) -> tuple[float, float]:
    """(P(x), P'(x)) for 0 < x < pole_radius from one pass over the terms;
    evaluate reads P from here. Each factor g = t/(1-t), t = c x^w, has
    g'/g = w / (x (1-t))."""
    prod, rate = 1.0, 0.0
    for c, w in spec.terms:
        t = c * x ** w
        prod *= t / (1.0 - t)
        rate += w / (1.0 - t)
    return 1.0 - spec.m * x + prod, prod * rate / x - spec.m


def _exact(spec: SeriesSpec, x: Fraction) -> Optional[tuple[int, int]]:
    """P(x) at a rational x = n/d as (numerator, positive denominator), or
    None unless x lies below every pole. The numerator
    (d - m n) prod(d^w - c n^w) + d prod(c n^w) has the sign of P(x), and
    each d^w - c n^w is positive exactly when x is below its pole."""
    n, d = x.numerator, x.denominator
    gaps = hits = 1
    for c, w in spec.terms:
        hit = c * n ** w
        if d ** w <= hit:
            return None
        gaps *= d ** w - hit
        hits *= hit
    return (d - spec.m * n) * gaps + d * hits, d * gaps


def smallest_positive_root(spec: SeriesSpec) -> RootResult:
    """The first root x of P in (0, pole_radius), proven to lie in a
    bracket of at most min(BRACKET_WIDTH, x), or its absence together with
    the minimum of P.

    Every coefficient of the product's power series is non-negative, so on
    [0, pole_radius) P is convex and P(x) >= 1 - m*x. Hence the first root
    lies past 1/m, {P <= 0} is an interval, and the minimum of P lies where
    the increasing P' crosses 0 (or at 0 when P'(0) >= 0). Newton's method
    started at 1/m meets P > 0 and P' < 0 at each iterate before the root,
    and convexity keeps every tangent's zero at or below the root: the
    iterates climb to it without overshooting. An iterate where P' >= 0,
    or one past the pole, shows there is no root.

    A root x is reported only when the integer sign check of ``_exact``
    proves P(lo) > 0 >= P(hi) at the rationals lo, hi = x -/+ width/2,
    width = min(BRACKET_WIDTH, x) so that lo > 0, with hi below every pole;
    then the first root lies in (lo, hi], the bracket is width, growth is
    1/x and scan_min is P(hi) <= 0. Otherwise P is taken at a point within
    BRACKET_WIDTH of its minimiser, found by bisecting on the sign of P'.
    If P <= 0 there (two roots closer than the bracket), bisecting on the
    exact sign of P from (0, that point] brackets the first root instead,
    with x the midpoint and a width of at most min(BRACKET_WIDTH, x).
    Else the root is absent (a tangent) and scan_min is that minimum, of
    exact sign: 0 or just above it, never below.
    """
    lo, hi = 0.0, spec.pole_radius  # P' < 0 at lo unless lo = 0
    x = 1.0 / spec.m
    while x < hi:
        value, slope = _value_and_slope(spec, x)
        if slope >= 0.0:
            hi = x
            break
        lo, nxt = x, x - value / slope
        if nxt <= x:
            # converged: P(x) <= 0 in floating point, or the step vanished
            width = min(BRACKET_WIDTH, x)
            half = Fraction(width) / 2
            below = _exact(spec, Fraction(x) - half)
            above = _exact(spec, Fraction(x) + half)
            if above is not None and below[0] > 0 >= above[0]:
                return RootResult(x, 1.0 / x, width, above[0] / above[1])
            break
        x = nxt
    while hi - lo > BRACKET_WIDTH:
        mid = (lo + hi) / 2
        if _value_and_slope(spec, mid)[1] < 0.0:
            lo = mid
        else:
            hi = mid
    num, den = _exact(spec, Fraction(lo))
    if num > 0:
        return RootResult(None, None, None, num / den)
    # P(lo) <= 0, so the first root lies in (0, lo] although no bracket
    # around Newton's limit held (two roots closer than it): bisecting on
    # the exact sign of P keeps P(a) > 0 >= P(b) until b - a is small enough
    a, b, value = Fraction(0), Fraction(lo), num / den
    while b - a > min(BRACKET_WIDTH, a):
        mid = (a + b) / 2
        num, den = _exact(spec, mid)
        if num > 0:
            a = mid
        else:
            b, value = mid, num / den
    x = float((a + b) / 2)
    return RootResult(x, 1.0 / x, float(b - a), value)


@dataclass(frozen=True)
class Attempt:
    strategy: str
    spec: SeriesSpec
    result: RootResult


@dataclass(frozen=True)
class CertificationReport:
    pattern: Pattern
    attempts: tuple[Attempt, ...]

    @property
    def conclusive(self) -> bool:
        return any(a.result.found for a in self.attempts)

    @property
    def best(self) -> Optional[Attempt]:
        found = [a for a in self.attempts if a.result.found]
        return min(found, key=lambda a: a.result.root) if found else None


def certify_threeavoidable(p: str) -> CertificationReport:
    """Try the full strategy and every available prefix strategy over a
    ternary alphabet; conclusive iff some P(x) has a positive root.

    The ten sporadic doubled patterns are exactly the ones for which every
    strategy here comes back inconclusive.
    """
    pat = Pattern(p)
    specs = {"full": spec_full(pat, 3)}
    for k in range(2, distinct_prefix_len(pat) + 1):
        # one string per strategy name, however many reports a caller keeps
        specs[sys.intern(f"prefix{k}")] = spec_prefix(pat, 3, k)
    return CertificationReport(pat, tuple(
        Attempt(name, spec, smallest_positive_root(spec))
        for name, spec in specs.items()))


def check_bound_against_counts(spec: SeriesSpec, counts) -> bool:
    """True iff n_i * hi^i >= 1 for all provided i, in exact rationals.

    hi = root + bracket/2 is the proven upper end of the root's bracket, so
    the series bound n_i >= x0^{-i} at the true root x0 <= hi implies
    n_i >= hi^{-i}; that weaker, proven bound is what is tested."""
    res = smallest_positive_root(spec)
    if not res.found:
        raise ValueError("spec has no positive root; nothing to check")
    hi = Fraction(res.root) + Fraction(res.bracket) / 2
    return all(n * hi ** i >= 1 for i, n in enumerate(counts))
