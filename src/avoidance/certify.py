"""The ten-entry morphism corpus, bounded avoidance verification over
(5/4+)-free preimages, and brute-force factor-complexity counting.

Each corpus entry pairs a sporadic doubled pattern with a 5-letter-to-binary
uniform morphism; the claim behind it is that images of (5/4+)-free words
avoid the pattern. verify_entry checks a bounded slice of that claim and
reports nothing stronger: no occurrence with total image length up to the
cap inside the image of any free preimage up to the length bound.

That slice is a finite set of windows: an occurrence of total length at
most cap that ends in the last q-letter block of an image lies in the image
of the last t = ceil(cap/q) + 1 letters of its preimage, so each distinct
such suffix is searched once. Preimages longer than t add no window.
Searches and avoider counting shard over processes with
patterns.map_workers; reports and counts are the same for any worker count.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Optional

from .patterns import Occurrence, Pattern, find_occurrence, map_workers
from .series import certify_threeavoidable, check_bound_against_counts
from .words import DISPLAY, MAX_ALPHABET, Word, generate_free_words

FREE_EXPONENT = Fraction(5, 4)
DEFAULT_PREIMAGE_LEN = 6


@dataclass(frozen=True)
class Morphism:
    images: tuple[str, ...]  # binary words, one per domain letter

    def __post_init__(self) -> None:
        if not self.images:
            raise ValueError("morphism needs at least one image")
        q = len(self.images[0])
        if q == 0 or any(len(img) != q for img in self.images):
            raise ValueError("images must share one positive length")
        if any(set(img) - {"0", "1"} for img in self.images):
            raise ValueError("images must be binary")

    @property
    def domain_size(self) -> int:
        return len(self.images)

    @property
    def uniform_len(self) -> int:
        return len(self.images[0])


@dataclass(frozen=True)
class CorpusEntry:
    pattern: Pattern
    morphism: Morphism
    ae: float

    @property
    def morphism_id(self) -> str:
        return self.pattern.lower()


@dataclass(frozen=True)
class VerificationReport:
    pattern: Pattern
    morphism_id: str
    max_preimage_len: int
    image_cap: int
    preimages_checked: int
    passed: bool
    counterexample: Optional[tuple[Word, Occurrence]]
    windows_searched: int  # distinct preimage suffixes searched to the verdict
    effective_cap: int  # min(image_cap, max_preimage_len * q): no window is longer


def parse_morphism(text: str) -> Morphism:
    """Parse lines "d -> bits" (d a domain letter, '#' starts a comment);
    all images must share one length."""
    images: dict[int, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            left, right = line.split("->")
            d = int(left.strip())
            img = right.strip()
        except ValueError as e:
            raise ValueError(f"line {lineno}: expected 'd -> bits'") from e
        if d in images:
            raise ValueError(f"line {lineno}: duplicate image for {d}")
        images[d] = img
    if sorted(images) != list(range(len(images))):
        raise ValueError(f"domain letters must be 0..k-1, got {sorted(images)}")
    return Morphism(tuple(images[i] for i in range(len(images))))


def load_morphism(path) -> Morphism:
    with open(path) as fh:
        return parse_morphism(fh.read())


# (pattern, avoidability exponent) for the shipped corpus, in file order
# matching data/morphisms/<pattern lowercased>.txt
_CORPUS_SPECS = (
    ("ABACBDCD", 1.381966011),
    ("ABACDBDC", 1.333333333),
    ("ABACDCBD", 1.340090632),
    ("ABCADBDC", 1.292893219),
    ("ABCADCBD", 1.295597743),
    ("ABCADCDB", 1.327621756),
    ("ABCBDADC", 1.302775638),
    ("ABACBDCEDE", 1.366025404),
    ("ABACDBCEDE", 1.302775638),
    ("ABACDBDECE", 1.320416579),
)


def corpus() -> list[CorpusEntry]:
    """The ten shipped entries, uniform lengths 17,33,28,21,22,26,33,15,18,22."""
    root = resources.files("avoidance").joinpath("data/morphisms")
    entries = []
    for name, ae in _CORPUS_SPECS:
        text = root.joinpath(f"{name.lower()}.txt").read_text()
        entries.append(CorpusEntry(Pattern(name), parse_morphism(text), ae))
    return entries


def apply_morphism(m: Morphism, w: str) -> Word:
    """Concatenate images; |result| = uniform_len * |w|."""
    codes = Word(str(w)).codes
    if codes and max(codes) >= m.domain_size:
        raise ValueError(f"{w!r} has letters outside domain of size {m.domain_size}")
    return Word("".join(m.images[d] for d in codes), alphabet_size=2)


def _window_blocks(image_cap: int, q: int) -> int:
    # an occurrence of total length <= cap ending inside the last block
    # spans at most ceil(cap/q) + 1 consecutive blocks
    return -(-image_cap // q) + 1


def verify_entry(entry: CorpusEntry, max_preimage_len: int = DEFAULT_PREIMAGE_LEN,
                 image_cap: int | None = None, workers: int = 1
                 ) -> VerificationReport:
    """Check that no (5/4+)-free preimage up to the length bound has an
    image containing an occurrence of the entry's pattern with total image
    length <= image_cap (default twice the uniform length).

    The stream is prefix-closed, so each preimage only needs the
    occurrences ending in its last block, and those lie in the image of
    its last t = ceil(cap/q) + 1 letters. The check is therefore one search
    per distinct suffix of length t, in order of first appearance; the
    first hit is reported at the preimage where its suffix first appears.
    """
    q = entry.morphism.uniform_len
    cap = 2 * q if image_cap is None else image_cap
    if max_preimage_len < 1 or cap < 1:
        raise ValueError("caps must be positive")
    tail = _window_blocks(cap, q)
    first: dict[str, tuple[int, Word]] = {}  # suffix -> (stream index, preimage)
    checked = 0
    for checked, w in enumerate(generate_free_words(5, FREE_EXPONENT,
                                                    max_preimage_len), 1):
        first.setdefault(w[-tail:], (checked, w))
    keys = list(first)
    jobs = [(entry.pattern, entry.morphism, key, cap) for key in keys]
    effective = min(cap, max_preimage_len * q)
    with closing(map_workers(_search_window, jobs, workers)) as hits:
        searched = 0
        for searched, (key, rel) in enumerate(zip(keys, hits), 1):
            if rel is not None:
                index, w = first[key]
                occ = Occurrence(rel.start + (len(w) - len(key)) * q, rel.images)
                return VerificationReport(entry.pattern, entry.morphism_id,
                                          max_preimage_len, cap, index, False,
                                          (w, occ), searched, effective)
    return VerificationReport(entry.pattern, entry.morphism_id,
                              max_preimage_len, cap, checked, True, None,
                              searched, effective)


def _search_window(job) -> Optional[Occurrence]:
    # occurrences in the image of a preimage suffix that end in its last block
    pattern, morphism, key, cap = job
    window = apply_morphism(morphism, key)
    return find_occurrence(pattern, window, cap,
                           min_end=(len(key) - 1) * morphism.uniform_len + 1)


def count_avoiding(p: str, m: int, up_to: int, workers: int = 1) -> list[int]:
    """n_i = number of words of length i over Sigma_m with no occurrence of
    p, for i = 0..up_to, by DFS over the prefix tree, one job per first
    letter.

    After each appended letter only occurrences ending at the new position
    are tested: the avoiding language is factorial, so any other occurrence
    was already caught when its own end position was appended.
    """
    pat = Pattern(p)
    if not 1 <= m <= MAX_ALPHABET:
        raise ValueError(f"alphabet size {m} outside 1..{MAX_ALPHABET}")
    if up_to < 0:
        raise ValueError(f"up_to must be non-negative, got {up_to}")
    counts = [1] + [0] * up_to
    jobs = [(first, str(pat), m, up_to) for first in range(m)] if up_to else []
    for sub in map_workers(_count_shard, jobs, workers):
        for i, c in enumerate(sub):
            counts[i] += c
    return counts


def _count_shard(args) -> list[int]:
    first, p, m, up_to = args
    counts = [0] * (up_to + 1)
    plen = len(p)
    letters = DISPLAY[:m]

    def rec(w: str) -> None:
        counts[len(w)] += 1
        if len(w) == up_to:
            return
        for a in letters:
            w2 = w + a
            if len(w2) >= plen and \
                    find_occurrence(p, w2, min_end=len(w2)) is not None:
                continue
            rec(w2)

    root = DISPLAY[first]
    if len(root) < plen or find_occurrence(p, root, min_end=1) is None:
        rec(root)
    return counts


def cross_check(p: str, m: int, up_to: int) -> bool:
    """Certify p by series over a ternary alphabet, count avoiders by DFS,
    and confirm n_i >= x0^{-i} at every tested length."""
    report = certify_threeavoidable(p)
    if not report.conclusive:
        raise ValueError(f"series method is inconclusive for {p}")
    best = report.best
    if m != best.spec.m:
        raise ValueError(f"certificate is for alphabet size {best.spec.m}, not {m}")
    counts = count_avoiding(p, m, up_to)
    return check_bound_against_counts(best.spec, counts)
