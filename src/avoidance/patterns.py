"""Patterns over variables A-Z, occurrence search, the enumeration and
filtering pipeline for doubled patterns, and n-splitted words.

An occurrence of a pattern p in a word w is a non-erasing morphism h
(variable -> non-empty word) with h(p) a factor of w. The search here is
exhaustive backtracking and doubles as a decision procedure; enumeration
reproduces the sporadic candidate lists up to reversal symmetry.

The backtracking tries image lengths in increasing order and prunes with
where each variable must occur again: the image of a variable that recurs
in p has to reappear in w past the least length of the pattern letters in
between. In a doubled pattern every variable recurs, so image lengths are
bounded by the repeats of the host word, which are short in the images of
(5/4+)-free words that the corpus morphisms produce. A search restricted
to occurrences ending at the end of the word (min_end = |w|, every
extension test of avoider counting) first matches the mirrored pattern at
the start of the mirrored word and stops there if that fails.
"""

from __future__ import annotations

import os
import string
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional

from .words import DISPLAY

VARS = string.ascii_uppercase


class Pattern(str):
    """A non-empty word over the variable alphabet A-Z."""

    # no per-instance __dict__: the enumeration caches hold tens of
    # thousands of patterns
    __slots__ = ()

    def __new__(cls, text: str) -> "Pattern":
        if not text:
            raise ValueError("pattern must be non-empty")
        if any(c not in VARS for c in text):
            raise ValueError(f"pattern letters must be A-Z: {text!r}")
        return super().__new__(cls, text)

    @property
    def var_count(self) -> int:
        return len(set(self))

    @property
    def is_canonical(self) -> bool:
        return self == canonicalize(self)


def map_workers(fn: Callable, jobs: Iterable, workers: int = 1) -> Iterator:
    """fn over jobs, results lazily in job order: in-process when one
    process suffices, else from a process pool of min(workers, cpu count,
    number of jobs). A caller that stops early skips the rest: in-process
    the rest never runs, and closing the iterator (or dropping it) shuts
    the pool down with its pending jobs cancelled.

    fn must be a module-level function so the pool can pickle it.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    jobs = list(jobs)
    size = min(workers, os.cpu_count() or 1, len(jobs))
    return _lazy_map(fn, jobs, size)


def _lazy_map(fn: Callable, jobs: list, size: int) -> Iterator:
    if size <= 1:
        yield from map(fn, jobs)
        return
    pool = ProcessPoolExecutor(max_workers=size)
    try:
        yield from pool.map(fn, jobs)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


@dataclass(frozen=True)
class Occurrence:
    """h(p) sits at [start, start+length) in the host word; images are
    per-variable, all non-empty."""

    start: int
    images: dict[str, str]

    def substitute(self, p: str) -> str:
        return "".join(self.images[c] for c in p)


def canonicalize(raw: str) -> Pattern:
    """Rename variables by order of first appearance; idempotent."""
    ren: dict[str, str] = {}
    out = []
    for c in raw:
        if c not in ren:
            ren[c] = VARS[len(ren)]
        out.append(ren[c])
    return Pattern("".join(out))


def reverse(p: str) -> Pattern:
    """Canonical form of the mirrored pattern (same avoidability index)."""
    return canonicalize(p[::-1])


def is_doubled(p: str) -> bool:
    """True iff every variable occurs at least twice."""
    return all(p.count(c) >= 2 for c in set(p))


def find_occurrence(p: str, w: str, max_image_total: int | None = None,
                    min_end: int = 0) -> Optional[Occurrence]:
    """First occurrence of p in w, or None (the search is complete).

    "First" means least start position, then least image lengths taken in
    order of first appearance of the variables in p; the backtracking scans
    p left to right, binding each newly met variable to every feasible
    length in increasing order, with immediate mismatch pruning for bound
    variables and a remaining-minimum-length prune.

    Two prunes cut only lengths and calls that cannot match, so the first
    occurrence is the same as without them:

    - recurrence: a variable that occurs again later in p needs its image
      to occur again at least `gap` letters past its end, `gap` being the
      least length of the pattern letters in between; once a length fails
      that, every longer one does, and the binding loop stops;
    - suffix mirror: when min_end >= len(w) an occurrence must end at the
      end of w, so the reversed pattern is first matched at position 0 of
      the reversed word, and the forward search runs only if that succeeds.

    max_image_total caps |h(p)| (default |w|). min_end keeps only
    occurrences ending at position >= min_end; incremental callers use it
    to skip the already-searched prefix of w. The recursion depth is the
    number of distinct variables, at most 26 for a Pattern, whatever |p|.
    """
    n = len(w)
    plen = len(p)
    budget = n if max_image_total is None or max_image_total > n else max_image_total
    if plen == 0 or budget < plen or n < plen or min_end > n:
        return None
    if min_end == n:
        mirror, _, _ = _matcher(p[::-1], w[::-1], 0)
        if mirror(0, 0, budget) < 0:
            return None
    match, images, order = _matcher(p, w, min_end)
    for start in range(max(0, min_end - budget), n - plen + 1):
        end = match(0, start, min(n, start + budget))
        if end >= 0:
            occ = Occurrence(start, dict(zip(order, images)))
            # paranoia costs little next to the search itself
            assert occ.substitute(p) == w[start:end]
            return occ
    return None


@lru_cache(maxsize=64)
def _variables(p: str) -> tuple[tuple[str, ...], tuple[int, ...]]:
    # the variables in order of first appearance, and p as their indices
    order = tuple(sorted(set(p), key=p.index))
    index = {c: i for i, c in enumerate(order)}
    return order, tuple(index[c] for c in p)


def _matcher(p: str, w: str, min_end: int) -> tuple[Callable, list, tuple]:
    """match(t, pos, limit) -> end of an occurrence of p[t:] at pos within
    w[:limit] (ending at >= min_end), or -1, with the images it bound left
    in the returned list, indexed like the returned variables (in order of
    first appearance); on -1 the images bound by the call are reset."""
    order, pvars = _variables(p)
    plen = len(pvars)
    images: list[Optional[str]] = [None] * len(order)
    find = w.find
    startswith = w.startswith

    def match(t: int, pos: int, limit: int) -> int:
        # bound variables need no choice: check them without recursing
        while t < plen:
            v = pvars[t]
            img = images[v]
            if img is None:
                break
            if not startswith(img, pos, limit):
                return -1
            pos += len(img)
            t += 1
        else:
            return pos if pos >= min_end else -1
        # least length of the letters after t other than v, and of those
        # before the next v (gap), unbound variables counting one letter
        rest = same = gap = 0
        for u in pvars[t + 1:]:
            if u == v:
                if not same:
                    gap = rest
                same += 1
            else:
                other = images[u]
                rest += 1 if other is None else len(other)
        lmax = (limit - pos - rest) // (1 + same)
        for l in range(1, lmax + 1):
            img = w[pos:pos + l]
            if same and find(img, pos + l + gap, limit) < 0:
                break
            images[v] = img
            end = match(t + 1, pos + l, limit)
            if end >= 0:
                return end
        images[v] = None
        return -1

    return match, images, order


@lru_cache(maxsize=32)
def doubled_patterns_upto(max_vars: int, max_len: int) -> tuple[Pattern, ...]:
    """All canonical doubled patterns q with v(q) <= max_vars and
    2 <= |q| <= max_len, ordered by (length, lexicographic)."""
    out: list[Pattern] = []
    for length in range(2, max_len + 1):
        out.extend(_doubled_of_length(length, max_vars, exactly_twice=False))
    return tuple(out)


def _doubled_of_length(length: int, max_vars: int,
                       exactly_twice: bool) -> list[Pattern]:
    """Canonical patterns of the given length with every variable occurring
    at least twice (exactly twice if requested), at most max_vars variables.
    Canonical forms are exactly the restricted growth strings."""
    out: list[Pattern] = []
    seq: list[int] = []
    counts: list[int] = []

    def rec() -> None:
        if len(seq) == length:
            if all(c >= 2 for c in counts):
                out.append(Pattern("".join(VARS[i] for i in seq)))
            return
        rem = length - len(seq)
        for v in range(len(counts) + 1):
            if v == len(counts):
                if v >= max_vars or rem < 2:
                    break
                counts.append(0)
            elif exactly_twice and counts[v] >= 2:
                continue
            counts[v] += 1
            # every deficient variable still needs its missing occurrences
            need = sum(2 - c for c in counts if c < 2)
            if need <= rem - 1:
                seq.append(v)
                rec()
                seq.pop()
            counts[v] -= 1
            if counts[v] == 0:
                counts.pop()

    rec()
    return sorted(out)


def pattern_contains_doubled(p: str, max_vars: int
                             ) -> Optional[tuple[Pattern, Occurrence]]:
    """Search p, read as a word over its own variables, for an occurrence
    of any doubled pattern q with v(q) <= max_vars and |q| <= |p|; returns
    the first hit in (length, lex) order of q, or None."""
    host = _pattern_as_word(p)
    for q in doubled_patterns_upto(max_vars, len(p)):
        occ = find_occurrence(q, host)
        if occ is not None:
            return q, occ
    return None


def _pattern_as_word(p: str) -> str:
    # variables become display letters so the occurrence engine can host them
    return "".join(DISPLAY[ord(c) - 65] for c in p)


def find_doubled_factor(p: str) -> Optional[Pattern]:
    """Shortest contiguous factor of p that is doubled after
    canonicalization (literal factor, not renamed); None if there is none."""
    n = len(p)
    for length in range(2, n + 1):
        for start in range(n - length + 1):
            f = p[start:start + length]
            if all(f.count(c) >= 2 for c in set(f)):
                return Pattern(f)
    return None


def _survives_containment(chunk: tuple[str, ...]) -> list[str]:
    return [p for p in chunk if pattern_contains_doubled(p, len(set(p)) - 1) is None]


def enumerate_remaining(v: int, workers: int = 1) -> list[Pattern]:
    """The doubled patterns with v variables not settled by the series
    method: length exactly 2v, keeping only those where neither the pattern
    nor its reversal starts with all-distinct variables (those prefix shapes
    are certified by the series module, and reversal preserves the
    avoidability index), that contain no doubled occurrence on fewer
    variables, deduplicated modulo reversal keeping the lexicographically
    smaller form; sorted.
    """
    if v not in (4, 5):
        raise ValueError("enumeration is defined for v in {4, 5}")
    k = 4 if v == 4 else 3
    prefix = VARS[:k]
    candidates = [p for p in _doubled_of_length(2 * v, v, exactly_twice=True)
                  if not p.startswith(prefix) and not reverse(p).startswith(prefix)]
    chunks = [tuple(candidates[i::workers])
              for i in range(min(workers, len(candidates)))]
    kept = {p for part in map_workers(_survives_containment, chunks, workers)
            for p in part}
    return sorted(Pattern(p) for p in kept
                  if not (reverse(p) in kept and reverse(p) < p))


def is_n_splitted(w: str, n: int) -> bool:
    """|w| divisible by n and each of the n equal blocks contains every
    letter occurring in w."""
    if n < 1:
        raise ValueError("n must be positive")
    if len(w) % n:
        return False
    letters = set(w)
    b = len(w) // n
    return all(set(w[i * b:(i + 1) * b]) >= letters for i in range(n))


@dataclass(frozen=True)
class SplittedReport:
    factor: str
    offset: int
    n: int
    depth: int


def find_splitted_factor(w: str, n: int) -> SplittedReport:
    """Locate an n-splitted factor of w by the inductive descent: a word of
    length n^k over k letters is either n-splitted or has a block missing
    a letter, and that block has length n^(k-1) over at most k-1 letters.

    Requires |w| = n^k with k the number of distinct letters of w.
    """
    if n < 1:
        raise ValueError("n must be positive")
    k = len(set(w))
    if k == 0 or len(w) != n ** k:
        raise ValueError(f"need |w| = n^k with k = distinct letters; "
                         f"got |w|={len(w)}, k={k}, n={n}")
    offset = 0
    cur = w
    depth = 0
    while not is_n_splitted(cur, n):
        letters = set(cur)
        b = len(cur) // n
        for i in range(n):
            block = cur[i * b:(i + 1) * b]
            if not set(block) >= letters:
                offset += i * b
                cur = block
                depth += 1
                break
    return SplittedReport(cur, offset, n, depth)


def splitted_to_pattern(w: str) -> tuple[Pattern, Occurrence]:
    """Read a 2-splitted word as a pattern occurrence with distinct
    length-1 images; the resulting pattern is doubled (each letter appears
    in both halves)."""
    if not is_n_splitted(w, 2):
        raise ValueError(f"{w!r} is not 2-splitted")
    pattern = canonicalize(w)
    return pattern, Occurrence(0, dict(zip(pattern, w)))
