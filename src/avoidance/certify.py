"""The ten-entry morphism corpus, bounded avoidance verification over
(5/4+)-free words over the morphism's domain, and brute-force
factor-complexity counting.

Each corpus entry pairs a sporadic doubled pattern with a 5-letter-to-binary
uniform morphism; the claim behind it is that images of (5/4+)-free words
avoid the pattern. verify_entry checks a bounded slice of that claim and
reports nothing stronger: no occurrence with total image length up to the
cap inside the image of any free preimage up to the length bound.

That slice is a finite set of windows: an occurrence of total length at
most cap that ends in the last q-letter block of an image lies in the image
of the last t = ceil(cap/q) + 1 letters of its preimage, so each distinct
such suffix is searched once. Preimages longer than t add no window.
The windows and the first letters of avoider counting are split over
processes by patterns.map_workers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from importlib import resources
from typing import Optional

from .patterns import Occurrence, Pattern, find_occurrence, map_workers
from .series import certify_threeavoidable, check_bound_against_counts
from .spectral import avoidability_exponent
from .words import (DISPLAY, MAX_ALPHABET, generate_free_words, grow,
                    letter_indices)

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


# field order is the key order of `avoid verify --json`
@dataclass(frozen=True)
class VerificationReport:
    pattern: Pattern
    morphism_id: str
    max_preimage_len: int
    image_cap: int
    effective_cap: int  # min(image_cap, max_preimage_len * q): no window is longer
    preimages_checked: int
    windows_searched: int  # distinct preimage suffixes searched to the verdict
    passed: bool
    counterexample: Optional[tuple[str, Occurrence]]  # (preimage, occurrence)


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


def corpus() -> list[CorpusEntry]:
    """One entry per data/morphisms/<pattern>.txt, in (variables,
    lexicographic) order, each with the avoidability exponent spectral
    computes for its pattern."""
    root = resources.files("avoidance").joinpath("data/morphisms")
    files = {Pattern(f.name.removesuffix(".txt").upper()): f
             for f in root.iterdir() if f.name.endswith(".txt")}
    return [CorpusEntry(p, parse_morphism(files[p].read_text()),
                        avoidability_exponent(p).ae)
            for p in sorted(files, key=lambda p: (len(p), p))]


def apply_morphism(m: Morphism, w: str) -> str:
    """Concatenate the images of the letters of w, a word over the display
    alphabet; |result| = uniform_len * |w|. ValueError on a letter outside
    the display alphabet or the morphism's domain."""
    indices = letter_indices(w)
    if indices and max(indices) >= m.domain_size:
        raise ValueError(f"{w!r} has letters outside domain of size {m.domain_size}")
    return "".join(m.images[d] for d in indices)


def verify_entry(entry: CorpusEntry, max_preimage_len: int = DEFAULT_PREIMAGE_LEN,
                 image_cap: int | None = None, workers: int = 1
                 ) -> VerificationReport:
    """Check that no preimage up to the length bound, among the
    (5/4+)-free words over the morphism's domain, has an image containing
    an occurrence of the entry's pattern with total image length <=
    image_cap (default twice the uniform length).

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
    tail = -(-cap // q) + 1
    first: dict[str, tuple[int, str]] = {}  # suffix -> (stream index, preimage)
    checked = 0
    found = None
    stream = generate_free_words(entry.morphism.domain_size, FREE_EXPONENT,
                                 max_preimage_len)
    for checked, w in enumerate(stream, 1):
        first.setdefault(w[-tail:], (checked, w))
    keys = list(first)
    searched = len(keys)
    hits = map_workers(partial(_first_hit, entry.pattern, entry.morphism, cap),
                       enumerate(keys), workers)
    hit = min(filter(None, hits), default=None)
    if hit is not None:
        i, rel = hit
        searched = i + 1
        checked, w = first[keys[i]]
        found = (w, Occurrence(rel.start + (len(w) - len(keys[i])) * q,
                               rel.images))
    return VerificationReport(entry.pattern, entry.morphism_id,
                              max_preimage_len, cap,
                              min(cap, max_preimage_len * q), checked,
                              searched, found is None, found)


def _first_hit(pattern: str, morphism: Morphism, cap: int, chunk: list
               ) -> Optional[tuple[int, Occurrence]]:
    # the first (window index, occurrence) of the chunk's (index, preimage
    # suffix) pairs, for occurrences in the image of the suffix that end in
    # its last block
    for i, key in chunk:
        occ = find_occurrence(pattern, apply_morphism(morphism, key), cap,
                              min_end=(len(key) - 1) * morphism.uniform_len + 1)
        if occ is not None:
            return i, occ
    return None


def count_avoiding(p: str, m: int, up_to: int, workers: int = 1) -> list[int]:
    """n_i = number of words of length i over Sigma_m with no occurrence of
    p, for i = 0..up_to, by DFS over the prefix tree (words.grow), with the
    first letters split by map_workers; each new word is searched only for
    occurrences ending at its last letter.
    """
    pat = Pattern(p)
    if not 1 <= m <= MAX_ALPHABET:
        raise ValueError(f"alphabet size {m} outside 1..{MAX_ALPHABET}")
    if up_to < 0:
        raise ValueError(f"up_to must be non-negative, got {up_to}")
    lengths = sum(map_workers(partial(_count_shard, str(pat), m, up_to),
                              DISPLAY[:m] if up_to else "", workers), Counter())
    return [1] + [lengths[n] for n in range(1, up_to + 1)]


def _count_shard(p: str, m: int, up_to: int, firsts: list[str]) -> Counter:
    # avoiders by length, grown from one chunk of first letters
    plen = len(p)
    avoiders = grow(firsts, DISPLAY[:m], up_to, lambda w: len(w) < plen
                    or find_occurrence(p, w, min_end=len(w)) is None)
    return Counter(map(len, avoiders))


def cross_check(p: str, up_to: int) -> bool:
    """Certify p by series, count its avoiders over the certificate's
    alphabet by DFS over the prefix tree (words.grow), and confirm
    n_i >= x0^{-i} at every tested length."""
    report = certify_threeavoidable(p)
    if not report.conclusive:
        raise ValueError(f"series method is inconclusive for {p}")
    spec = report.best.spec
    return check_bound_against_counts(spec, count_avoiding(p, spec.m, up_to))
