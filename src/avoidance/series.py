"""Power-series growth certificates for pattern-avoiding languages.

A spec represents P(x) = 1 - m*x + prod_j ( c_j x^{w_j} / (1 - c_j x^{w_j}) ).
A positive root x0 of P certifies that the language has at least x0^{-i}
words of each length i, hence exponential growth 1/x0. Two ways of reading
a doubled pattern yield specs: counting every variable freely ("full"), or
treating the variables of an all-distinct prefix as determined by the rest
("prefix").

The first root is located on a grid of step SCAN_STEP, evaluated in one
numpy pass, and then bisected to a bracket of BRACKET_WIDTH.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .patterns import Pattern, is_doubled

SCAN_STEP = 1e-4
BRACKET_WIDTH = 1e-12


@dataclass(frozen=True)
class SeriesSpec:
    m: int
    terms: tuple[tuple[int, int], ...]  # (c_j, w_j), c_j >= 1, w_j >= 1

    def __post_init__(self) -> None:
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


def _occurrence_counts(p: str) -> list[tuple[str, int]]:
    seen = sorted(set(p), key=p.index)
    return [(v, p.count(v)) for v in seen]


def spec_full(p: str, m: int) -> SeriesSpec:
    """One term (m, occurrences of X_j) per variable: every image letter is
    a free choice."""
    if not is_doubled(p):
        raise ValueError(f"{p} is not doubled; a lone variable defeats the count")
    return SeriesSpec(m, tuple((m, occ) for _, occ in _occurrence_counts(p)))


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
    if not is_doubled(p):
        raise ValueError(f"{p} is not doubled")
    if k < 1:
        raise ValueError(f"prefix length k={k} must be at least 1")
    head = p[:k]
    if len(head) < k or len(set(head)) != k:
        raise ValueError(f"first {k} symbols of {p} are not distinct")
    terms = []
    for v, occ in _occurrence_counts(p):
        if v in head:
            if occ < 2:
                raise ValueError(f"determined variable {v} occurs only once")
            terms.append((1, occ - 1))
        else:
            terms.append((m, occ))
    return SeriesSpec(m, tuple(terms))


def _closed_form(spec: SeriesSpec, x):
    """P at x, a float or an array of points inside the domain."""
    prod = 1.0
    for c, w in spec.terms:
        t = c * x ** w
        prod *= t / (1.0 - t)
    return 1.0 - spec.m * x + prod


def evaluate(spec: SeriesSpec, x: float) -> float:
    """Closed-form P(x); defined on [0, pole_radius)."""
    if x < 0 or x >= spec.pole_radius:
        raise ValueError(f"x={x} outside [0, {spec.pole_radius})")
    return _closed_form(spec, x)


def smallest_positive_root(spec: SeriesSpec) -> RootResult:
    """Find the first grid point of (0, pole_radius) where P <= 0, then
    bisect between it and the point before.

    P is evaluated on the whole grid SCAN_STEP, 2*SCAN_STEP, ... in one
    numpy pass; the grid is a running sum, so its points are the floats of
    repeated ``x += SCAN_STEP``. The step is fine enough for every spec
    arising here (the roots are simple and well separated from 0). scan_min
    is the least value of P on the grid up to the first root, or on the
    whole grid when there is none, so a near-miss is visible; P(0) = 1
    caps it at 1.
    """
    hi = spec.pole_radius
    # two spare points absorb the rounding of the running sum; the cut
    # keeps exactly the points below the pole
    xs = np.cumsum(np.full(int(hi / SCAN_STEP) + 2, SCAN_STEP))
    xs = xs[xs < hi]
    vs = _closed_form(spec, xs)
    hits = np.flatnonzero(vs <= 0.0)
    if not hits.size:
        return RootResult(None, None, None, float(vs.min(initial=1.0)))
    i = int(hits[0])
    scan_min = float(vs[:i + 1].min())  # at most vs[i] <= 0
    lo, hi2 = (float(xs[i - 1]) if i else 0.0), float(xs[i])
    while hi2 - lo > BRACKET_WIDTH:
        mid = (lo + hi2) / 2
        if evaluate(spec, mid) <= 0.0:
            hi2 = mid
        else:
            lo = mid
    root = (lo + hi2) / 2
    return RootResult(root, 1.0 / root, hi2 - lo, scan_min)


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
    attempts = [Attempt("full", *_try(spec_full(pat, 3)))]
    for k in range(2, distinct_prefix_len(pat) + 1):
        # one string per strategy name, however many reports a caller keeps
        name = sys.intern(f"prefix{k}")
        attempts.append(Attempt(name, *_try(spec_prefix(pat, 3, k))))
    return CertificationReport(pat, tuple(attempts))


def _try(spec: SeriesSpec) -> tuple[SeriesSpec, RootResult]:
    return spec, smallest_positive_root(spec)


def check_bound_against_counts(spec: SeriesSpec, counts) -> bool:
    """True iff n_i >= x0^{-i} for all provided i, with relative slack 1e-9
    absorbing the root's floating-point error."""
    res = smallest_positive_root(spec)
    if not res.found:
        raise ValueError("spec has no positive root; nothing to check")
    inv = 1.0 / res.root
    return all(n >= inv ** i * (1.0 - 1e-9) for i, n in enumerate(counts))
