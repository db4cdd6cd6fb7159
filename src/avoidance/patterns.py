"""Patterns over variables A-Z, occurrence search, the enumeration and
filtering pipeline for doubled patterns, and n-splitted words.

Inside the library a pattern is a plain str over A-Z. `Pattern` is the
check where outside text becomes a pattern: a CLI argument, a corpus name,
the symbols given to `canonicalize`, and the argument of the public entry
points that take any string (`certify.count_avoiding`,
`series.certify_threeavoidable`, `spectral.ae_matrix`). The generators
here build and yield plain str.

An occurrence of a pattern p in a word w is a non-erasing morphism h
(variable -> non-empty word) with h(p) a factor of w. The search here is
exhaustive backtracking and doubles as a decision procedure; enumeration
reproduces the sporadic candidate lists up to reversal symmetry.

Canonical patterns are the restricted growth strings. One depth-first walk
of their prefixes, over every length up to the bound at once, gives both
the doubled patterns that containment searches for and the candidates of
the enumeration. The enumeration runs one job per worker, a round-robin
chunk of candidates, searched pattern-major: each smaller doubled pattern
is tried once in every candidate of the chunk still free of a hit, so
consecutive searches share their pattern.

The backtracking tries image lengths in increasing order and prunes with
where each variable must occur again: the image of a variable that recurs
in p has to reappear in w past the least length of the pattern letters in
between, and early enough to leave room for the least length of the
letters after that copy. In a doubled pattern every variable recurs, so
image lengths are bounded by the repeats of the host word, which are short
in the images of (5/4+)-free words that the corpus morphisms produce. A
search restricted to occurrences ending at or past min_end > 0 is anchored
at the end: it first matches the mirrored pattern in the mirrored word at
each end from |w| down to min_end, and stops there if none matches. That
is one end for each extension test of avoider counting (min_end = |w|) and
the q ends of the last block of a verify window.
"""

from __future__ import annotations

import os
import string
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional

VARS = string.ascii_uppercase


class Pattern(str):
    """A non-empty word over the variable alphabet A-Z: the check where
    outside text becomes a pattern. Library code passes plain str."""

    def __new__(cls, text: str) -> "Pattern":
        if not text:
            raise ValueError("pattern must be non-empty")
        if any(c not in VARS for c in text):
            raise ValueError(f"pattern letters must be A-Z: {text!r}")
        return super().__new__(cls, text)


def map_workers(fn: Callable, jobs: Iterable, workers: int = 1) -> Iterator:
    """fn over jobs, results lazily in job order: in-process when one
    process suffices, else from a process pool of _pool_size(workers, number
    of jobs) processes. A caller that stops early skips the rest:
    in-process the rest never runs, and closing the iterator (or dropping
    it) shuts the pool down with its pending jobs cancelled.

    fn must be a module-level function so the pool can pickle it. Each of
    the three callers passes independent jobs: a verify window
    (certify.verify_entry), a first letter (certify.count_avoiding), or,
    for enumerate_remaining, one round-robin chunk of candidates per
    worker, searched pattern-major.
    """
    jobs = list(jobs)
    return _lazy_map(fn, jobs, _pool_size(workers, len(jobs)))


def _pool_size(workers: int, n_jobs: int) -> int:
    """Processes map_workers runs n_jobs on: min(workers, cpu count,
    n_jobs), one meaning in-process; ValueError unless workers >= 1."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return min(workers, os.cpu_count() or 1, n_jobs)


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
    """Rename the symbols of raw, any symbols, to A, B, ... by order of
    first appearance; idempotent. ValueError beyond 26 distinct symbols."""
    order, indices = variables(raw)
    if len(order) > len(VARS):
        raise ValueError(f"{len(order)} symbols exceed the 26 variables A-Z")
    return Pattern("".join(VARS[i] for i in indices))


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
      least length of the pattern letters in between, and to end early
      enough to leave the least length of the pattern letters after that
      copy before the limit; neither bound depends on the image length, so
      once a length fails, every longer one does, and the binding loop
      stops;
    - end anchor: when min_end > 0 an occurrence must end at one of the
      positions min_end..len(w), so the reversed pattern is first matched
      in the reversed word from each of those ends, and the forward search
      runs only if one succeeds.

    max_image_total caps |h(p)| (default |w|); a negative cap is a
    ValueError. min_end keeps only occurrences ending at position >=
    min_end; incremental callers use it to skip the already-searched prefix
    of w. The recursion depth is the number of distinct variables, at most
    26 for a Pattern, whatever |p|.
    """
    if max_image_total is not None and max_image_total < 0:
        raise ValueError(f"image cap {max_image_total} must be non-negative")
    n = len(w)
    plen = len(p)
    budget = n if max_image_total is None or max_image_total > n else max_image_total
    if plen == 0 or budget < plen or n < plen or min_end > n:
        return None
    if min_end > 0:
        # an occurrence ending at n - s is a mirrored one starting at s; no
        # min()/max() in this loop: they made avoider counting 5-10% slower
        mirror, _, _ = _matcher(p[::-1], w[::-1], 0)
        s = 0
        while mirror(0, s, s + budget if s + budget < n else n) < 0:
            s += 1
            if s > n - min_end or s > n - plen:
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
def variables(p: str) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The variables of p in order of first appearance, and p as their
    indices in that order."""
    order = tuple(sorted(set(p), key=p.index))
    index = {c: i for i, c in enumerate(order)}
    return order, tuple(index[c] for c in p)


def _matcher(p: str, w: str, min_end: int) -> tuple[Callable, list, tuple]:
    """match(t, pos, limit) -> end of an occurrence of p[t:] at pos within
    w[:limit] (ending at >= min_end), or -1, with the images it bound left
    in the returned list, indexed like the returned variables (in order of
    first appearance); on -1 the images bound by the call are reset."""
    order, pvars = variables(p)
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
        # the next copy of v must leave room for the least length after it
        bound = limit - (rest - gap) - (same - 1)
        for l in range(1, lmax + 1):
            img = w[pos:pos + l]
            if same and find(img, pos + l + gap, bound) < 0:
                break
            images[v] = img
            end = match(t + 1, pos + l, limit)
            if end >= 0:
                return end
        images[v] = None
        return -1

    return match, images, order


@lru_cache(maxsize=32)
def doubled_patterns_upto(max_vars: int, max_len: int) -> tuple[str, ...]:
    """All canonical doubled patterns q with v(q) <= max_vars and
    2 <= |q| <= max_len, ordered by (length, lexicographic)."""
    return tuple(sorted(_doubled_walk(max_vars, max_len, False), key=len))


def _doubled_walk(max_vars: int, max_len: int, exactly_twice: bool
                  ) -> list[str]:
    """Canonical patterns with 2..max_len letters, at most max_vars
    variables, and every variable occurring at least twice (exactly twice
    if requested), in lexicographic order.

    Canonical forms are exactly the restricted growth strings, so this is
    one depth-first walk of their prefixes, each before its extensions; once
    counts the variables seen exactly once, and a prefix is extended only
    while the letters left can still repeat each of them. The walk is its
    own small recursion rather than a words.grow client: a cold
    doubled_patterns_upto(4, 10) through grow took about twice as long, and
    every process of the enumeration pool pays that once, for its chunk.
    """
    out: list[str] = []
    counts = [0] * max_vars  # occurrences of each variable in the prefix

    def extend(prefix: str, once: int) -> None:
        if prefix and not once:
            out.append(prefix)
        for v, c in enumerate(counts):
            after = once + (c == 0) - (c == 1)
            # each variable seen once needs a letter after this one
            if after < max_len - len(prefix) and not (exactly_twice and c == 2):
                counts[v] += 1
                extend(prefix + VARS[v], after)
                counts[v] -= 1
            if not c:
                break  # only the first unused variable may come next

    extend("", 0)
    return out


def pattern_contains_doubled(p: str, max_vars: int
                             ) -> Optional[tuple[str, Occurrence]]:
    """Search p, read as a word over its own variables, for an occurrence
    of any doubled pattern q with v(q) <= max_vars and |q| <= |p|; returns
    the first hit in (length, lex) order of q, or None. The search only
    compares letters, so p hosts the occurrence as it is, and the images
    are factors of p."""
    return _first_doubled_hits([p], max_vars)[0]


def _first_doubled_hits(hosts: list[str], max_vars: int
                        ) -> list[Optional[tuple[str, Occurrence]]]:
    """pattern_contains_doubled(p, max_vars) for each p of hosts, a
    non-empty list of patterns of one length, searched pattern-major: each
    q is tried once in every host still without a hit, a host drops out at
    its first hit, and the walk stops when none is left. Each host gets
    the searches of its own (length, lex) loop up to its first hit, but
    consecutive searches share q, so variables(q) is a cache hit."""
    hits: list[Optional[tuple[str, Occurrence]]] = [None] * len(hosts)
    free = dict(enumerate(hosts))
    for q in doubled_patterns_upto(max_vars, len(hosts[0])):
        for i, p in list(free.items()):
            occ = find_occurrence(q, p)
            if occ is not None:
                hits[i] = q, occ
                del free[i]
        if not free:
            break
    return hits


def find_doubled_factor(p: str) -> Optional[str]:
    """Shortest contiguous factor of p that is doubled after
    canonicalization (literal factor, not renamed); None if there is none."""
    n = len(p)
    for length in range(2, n + 1):
        for start in range(n - length + 1):
            f = p[start:start + length]
            if is_doubled(f):
                return f
    return None


def _fewer_variable_free(chunk: list[str]) -> list[bool]:
    # one enumeration job: which candidates of the chunk, all on the same
    # v variables, contain no doubled pattern on fewer variables
    return [hit is None for hit in
            _first_doubled_hits(chunk, len(set(chunk[0])) - 1)]


def enumerate_remaining(v: int, workers: int = 1) -> list[str]:
    """The doubled patterns with v variables not settled by the series
    method: length exactly 2v, keeping only those where neither the pattern
    nor its reversal starts with all-distinct variables (those prefix shapes
    are certified by the series module, and reversal preserves the
    avoidability index), that contain no doubled occurrence on fewer
    variables, deduplicated modulo reversal keeping the lexicographically
    smaller form; sorted. The candidates come from the same walk as
    doubled_patterns_upto. The containment search runs as one map_workers
    job per worker, a round-robin chunk of candidates, searched
    pattern-major: each smaller doubled pattern is tried once in every
    candidate of the chunk still free of a hit.
    """
    if v not in (4, 5):
        raise ValueError("enumeration is defined for v in {4, 5}")
    k = 4 if v == 4 else 3
    prefix = VARS[:k]
    candidates = [p for p in _doubled_walk(v, 2 * v, True) if len(p) == 2 * v
                  and not p.startswith(prefix) and not reverse(p).startswith(prefix)]
    n = _pool_size(workers, len(candidates))
    chunks = [candidates[i::n] for i in range(n)]
    kept = {p for chunk, free in zip(chunks, map_workers(
        _fewer_variable_free, chunks, workers))
        for p, ok in zip(chunk, free) if ok}
    return sorted(p for p in kept
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
    offset, depth, cur = 0, 0, w
    while True:
        k, b = len(set(cur)), len(cur) // n
        i = next((i for i in range(0, len(cur), b)
                  if len(set(cur[i:i + b])) < k), None)
        if i is None:
            return SplittedReport(cur, offset, n, depth)
        offset, cur, depth = offset + i, cur[i:i + b], depth + 1


def splitted_to_pattern(w: str) -> tuple[Pattern, Occurrence]:
    """Read a 2-splitted word as a pattern occurrence with distinct
    length-1 images; the resulting pattern is doubled (each letter appears
    in both halves)."""
    if not is_n_splitted(w, 2):
        raise ValueError(f"{w!r} is not 2-splitted")
    pattern = canonicalize(w)
    return pattern, Occurrence(0, dict(zip(pattern, w)))
