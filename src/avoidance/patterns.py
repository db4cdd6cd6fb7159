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
the enumeration. The enumeration searches its candidates pattern-major:
each smaller doubled pattern is tried once in every candidate still free of
a hit, so consecutive searches share their pattern. map_workers is the
one place that splits the work of the --workers options over processes.

The backtracking tries image lengths in increasing order and prunes with
where each variable must occur again: the image of a variable that recurs
in p has to reappear in w past the least length of the pattern letters in
between, and early enough to leave room for the least length of the
letters after that copy. In a doubled pattern every variable recurs, so
image lengths are bounded by the repeats of the host word, which are short
in the images of (5/4+)-free words that the corpus morphisms produce.
When the letter after a newly met variable is already bound, only the
lengths at which that letter's image follows in w are tried. A
search restricted to occurrences ending at or past min_end > 0 is anchored
at the end: it first matches the mirrored pattern in the mirrored word at
each end from |w| down to min_end, and stops there if none matches. That
is one end for each extension test of avoider counting (min_end = |w|) and
the q ends of the last block of a verify window.

The matcher is compiled once per pattern and kept in a cache; each search
rebinds it to its host. It branches only at the first occurrence of a
variable, and a row per first occurrence, built the first time a search
reaches it, holds what that step needs: which later letters are bound, the
jump letter, and the run of bound letters up to the next first occurrence.
Because searches share the matcher, find_occurrence is not reentrant
across threads; the library parallelises with processes only.
"""

from __future__ import annotations

import os
import string
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional

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


def map_workers(fn: Callable, items: Iterable, workers: int = 1) -> list:
    """[fn(chunk) for each chunk of items]: the one place that splits work
    over processes. The items are dealt round-robin into n = min(workers,
    cpu count, number of items) chunks, items[i::n]. With n <= 1, fn runs
    in-process, once, on the whole list in order (empty if there are no
    items); otherwise each chunk, never empty, runs in its own process of
    a pool of n. ValueError unless workers >= 1.

    fn must pickle (a module-level function, or a partial of one), and a
    chunk result says which items it covers, so callers combine the results
    without knowing the deal, and outputs are the same for any worker
    count. The callers:

    - certify.verify_entry: items are (window index, preimage suffix)
      pairs; a chunk returns its first hit, so a pooled verify stops each
      chunk at its own first hit, and the report takes the least index;
    - certify.count_avoiding: items are first letters; a chunk grows the
      avoiders from all of its letters and counts them by length, and the
      Counters are summed;
    - enumerate_remaining: items are candidates; a chunk returns those
      with no smaller doubled pattern, searched pattern-major, and the
      results are unioned.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    items = list(items)
    n = min(workers, os.cpu_count() or 1, len(items))
    if n <= 1:
        return [fn(items)]
    with ProcessPoolExecutor(n) as pool:
        return list(pool.map(fn, [items[i::n] for i in range(n)]))


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

    Three cuts skip only lengths and calls that cannot match, so the first
    occurrence is the same as without them:

    - recurrence: a variable that occurs again later in p needs its image
      to occur again at least `gap` letters past its end, `gap` being the
      least length of the pattern letters in between, and to end early
      enough to leave the least length of the pattern letters after that
      copy before the limit; neither bound depends on the image length, so
      once a length fails, every longer one does, and the binding loop
      stops;
    - jump: when the pattern letter right after a newly met variable is
      already bound, the variable's image can only end where that letter's
      image starts, so the binding loop finds those positions in w, in
      increasing order, and skips the lengths in between;
    - end anchor: when min_end > 0 an occurrence must end at one of the
      positions min_end..len(w), so the reversed pattern is first matched
      in the reversed word from each of those ends, and the forward search
      runs only if one succeeds.

    max_image_total caps |h(p)| (default |w|); a negative cap is a
    ValueError. min_end keeps only occurrences ending at position >=
    min_end; incremental callers use it to skip the already-searched prefix
    of w. The recursion depth is the number of distinct variables, at most
    26 for a Pattern, whatever |p|.

    The matcher of p is compiled once, with one row per first occurrence of
    a variable, each built the first time a search reaches it, and every
    call rebinds that one matcher to w (_compile). Two threads searching
    for the same pattern at once would share it: the function is not
    reentrant across threads, and map_workers splits work over processes.
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
        bind, mirror, _, _ = _compile(p[::-1])
        bind(w[::-1], 0)
        s = 0
        while mirror(0, s, s + budget if s + budget < n else n) < 0:
            s += 1
            if s > n - min_end or s > n - plen:
                return None
    bind, match, images, order = _compile(p)
    bind(w, min_end)
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
    index = {c: i for i, c in enumerate(dict.fromkeys(p))}
    return tuple(index), tuple(map(index.__getitem__, p))


@lru_cache(maxsize=64)
def _compile(p: str) -> tuple[Callable, Callable, list, tuple]:
    """The matcher of p, compiled once: (bind, match, images, order).

    bind(w, min_end) points match at the host w. Then match(k, pos, limit)
    -> end of an occurrence of p[t:] at pos within w[:limit] (ending at >=
    min_end), or -1, where t is the first occurrence of variable k in p
    (match(0, ...) searches all of p); on a hit, images holds the image of
    each variable, indexed like order (the variables in order of first
    appearance).

    The search branches only at a first occurrence t, and there the bound
    variables are exactly those met before t. So a row per first
    occurrence, built by _row the first time a search reaches it, says
    which letters after t are bound, and the search reads only images that
    it bound itself on the current path: images needs no clearing between
    searches, and a stale image from an earlier host is never read. The
    cache keeps each matcher's last host alive until it is rebound.
    """
    order, pvars = variables(p)
    images: list[Optional[str]] = [None] * len(order)
    rows: list[Optional[tuple]] = [None] * len(order)
    w = find = startswith = min_end = None

    def bind(host, least_end):
        nonlocal w, find, startswith, min_end
        w, find, startswith, min_end = host, host.find, host.startswith, least_end

    def match(k, pos, limit):
        r = rows[k]
        if r is None:
            r = rows[k] = _row(pvars, k)
        same, gap, gap_bound, tail, tail_bound, jump, run, nk = r
        for u in gap_bound:
            gap += len(images[u])
        for u in tail_bound:
            tail += len(images[u])
        lmax = (limit - pos - gap - tail) // (1 + same)
        # the next copy of k must leave room for the least length after it
        bound = limit - tail - (same - 1)
        # k's image ends at j; when the next letter is bound, only where
        # its image starts
        top = pos + lmax
        nxt = None if jump is None else images[jump]
        j = pos + 1 if nxt is None else find(nxt, pos + 1, top + len(nxt))
        while 0 < j <= top:
            img = w[pos:j]
            if same and find(img, j + gap, bound) < 0:
                break
            images[k] = img
            # the bound letters up to the next first occurrence; find has
            # placed the jump letter already
            end = j if nxt is None else j + len(nxt)
            for u in run:
                other = images[u]
                if not startswith(other, end, limit):
                    break
                end += len(other)
            else:
                if nk < 0:
                    if end >= min_end:
                        return end
                else:
                    end = again()(nk, end, limit)
                    if end >= 0:
                        return end
            j = j + 1 if nxt is None else find(nxt, j + 1, top + len(nxt))
        return -1

    # match reaches itself through a weak reference: a closure cell would
    # make each matcher a cycle, and the matchers that the enumeration
    # evicts from the cache would pile up until a full garbage collection
    again = weakref.ref(match)
    return bind, match, images, order


def _row(pvars: tuple[int, ...], k: int) -> tuple:
    """The plan of the search at the first occurrence t of variable k in
    pvars (a pattern as variable indices in order of first appearance),
    where exactly the variables below k are bound: (same, gap, gap_bound,
    tail, tail_bound, jump, run, next).

    same counts the copies of k after t. The letters between t and the next
    copy of k (all letters after t if there is none) make the gap, the
    other letters after that copy, not k, the tail; gap and tail count
    their unbound letters, one letter each, and gap_bound and tail_bound
    list their bound ones, whose image lengths are added. jump is the next
    letter if it is bound, else None. run is the letters after t, and after
    jump, which the search places with find, up to the next first
    occurrence; all of them are bound once k is. next is k + 1, or -1 when
    run ends the pattern."""
    t = pvars.index(k)
    after = pvars[t + 1:]
    same = gap = tail = 0
    gap_bound: list[int] = []
    tail_bound: list[int] = []
    run = len(after)
    for i, u in enumerate(after):
        if u == k:
            same += 1
        elif u > k:
            if run > i:
                run = i
            if same:
                tail += 1
            else:
                gap += 1
        elif same:
            tail_bound.append(u)
        else:
            gap_bound.append(u)
    jump = after[0] if after and after[0] < k else None
    return (same, gap, tuple(gap_bound), tail, tuple(tail_bound), jump,
            after[0 if jump is None else 1:run], k + 1 if run < len(after) else -1)


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


def _fewer_variable_free(chunk: list[str]) -> list[str]:
    # the candidates of the chunk, all on the same v variables, that
    # contain no doubled pattern on fewer variables
    return [p for p, hit in zip(
        chunk, _first_doubled_hits(chunk, len(set(chunk[0])) - 1)) if not hit]


def enumerate_remaining(v: int, workers: int = 1) -> list[str]:
    """The doubled patterns with v variables not settled by the series
    method: length exactly 2v, keeping only those where neither the pattern
    nor its reversal starts with all-distinct variables (those prefix shapes
    are certified by the series module, and reversal preserves the
    avoidability index), that contain no doubled occurrence on fewer
    variables, deduplicated modulo reversal keeping the lexicographically
    smaller form; sorted. The candidates come from the same walk as
    doubled_patterns_upto; map_workers splits their containment search.
    """
    if v not in (4, 5):
        raise ValueError("enumeration is defined for v in {4, 5}")
    k = 4 if v == 4 else 3
    prefix = VARS[:k]
    candidates = [p for p in _doubled_walk(v, 2 * v, True) if len(p) == 2 * v
                  and not p.startswith(prefix) and not reverse(p).startswith(prefix)]
    kept = set().union(*map_workers(_fewer_variable_free, candidates, workers))
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
