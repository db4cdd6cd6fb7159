"""Words over small alphabets: periods, fractional exponents, and
generation of alpha+-free words.

A word is a string over the display alphabet '0'-'9' then 'a'-'p'
(alphabet sizes up to 26). Exponents are exact rationals throughout;
the alpha+ condition ("no factor of exponent strictly greater than
alpha") is decided by integer cross-multiplication, never floats.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

# Exact rational arithmetic; numerator/denominator, lowest terms,
# exact comparison all come with the type.
Rational = Fraction

DISPLAY = "0123456789abcdefghijklmnop"
MAX_ALPHABET = len(DISPLAY)

_CODE = {c: i for i, c in enumerate(DISPLAY)}


class Word(str):
    """A word over Sigma_m, rendered as display letters.

    >>> Word("0110").alphabet_size
    2
    >>> Word("0110", alphabet_size=3).alphabet_size
    3
    """

    alphabet_size: int

    def __new__(cls, text: str, alphabet_size: int | None = None) -> "Word":
        w = super().__new__(cls, text)
        codes = [_CODE.get(c) for c in text]
        if any(c is None for c in codes):
            raise ValueError(f"letter outside display alphabet in {text!r}")
        implied = max(codes, default=-1) + 1
        if alphabet_size is None:
            alphabet_size = implied
        if alphabet_size < implied or alphabet_size > MAX_ALPHABET:
            raise ValueError(f"alphabet_size {alphabet_size} invalid for {text!r}")
        w.alphabet_size = alphabet_size
        return w

    @property
    def codes(self) -> tuple[int, ...]:
        return tuple(_CODE[c] for c in self)


def from_codes(codes, alphabet_size: int | None = None) -> Word:
    return Word("".join(DISPLAY[c] for c in codes), alphabet_size)


def smallest_period(w: str) -> int:
    """Least p >= 1 with w[i] == w[i+p] for all valid i.

    Computed from the prefix function (longest proper border): the
    smallest period of w is |w| minus the length of its longest border.

    >>> smallest_period("0101")
    2
    >>> smallest_period("011")
    3
    >>> smallest_period("01010")
    2
    """
    n = len(w)
    if n == 0:
        raise ValueError("smallest_period of empty word")
    border = [0] * n
    k = 0
    for i in range(1, n):
        while k and w[i] != w[k]:
            k = border[k - 1]
        if w[i] == w[k]:
            k += 1
        border[i] = k
    return n - border[n - 1]


def exponent(w: str) -> Rational:
    """|w| / smallest_period(w), in lowest terms.

    >>> exponent("0101")
    Fraction(2, 1)
    >>> exponent("01010")
    Fraction(5, 2)
    """
    return Fraction(len(w), smallest_period(w))


def is_alpha_plus_free(w: str, alpha: Rational) -> bool:
    """True iff no factor of w has exponent strictly greater than alpha.

    Factors of exponent exactly alpha are allowed: this is the alpha+
    condition, and the strictness of the comparison is the whole point,
    so it is done exactly on integers.
    """
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    # every factor is a suffix of some prefix: check each prefix at its
    # last letter, as the generator does
    return all(_extension_ok(w[:n], alpha.numerator, alpha.denominator)
               for n in range(2, len(w) + 1))


def _extension_ok(codes: Sequence, num: int, den: int) -> bool:
    """Check only suffixes ending at the last letter of codes.

    Sound for incremental generation: every other factor was certified
    when its own last letter was appended. For each shift p, the longest
    suffix of period p has length p + (longest common suffix of the word
    and itself shifted by p); exponent > alpha for some suffix iff it
    holds for one of these maximal ones.
    """
    n = len(codes)
    for p in range(1, n):
        lcs = 0
        i = n - 1 - p
        while i >= 0 and codes[i] == codes[i + p]:
            lcs += 1
            i -= 1
        if (p + lcs) * den > num * p:
            return False
    return True


def generate_free_words(k: int, alpha: Rational, max_len: int) -> Iterator[Word]:
    """Stream every alpha+-free word over Sigma_k with 1 <= |w| <= max_len.

    Emission is in lexicographic order with prefixes first (depth-first
    extension); a branch dies as soon as a suffix ending at the new
    letter exceeds the exponent bound.
    """
    if k < 1 or k > MAX_ALPHABET:
        raise ValueError(f"alphabet size {k} out of range")
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    num, den = alpha.numerator, alpha.denominator
    codes: list[int] = []

    def rec() -> Iterator[Word]:
        for a in range(k):
            codes.append(a)
            if _extension_ok(codes, num, den):
                yield from_codes(codes, k)
                if len(codes) < max_len:
                    yield from rec()
            codes.pop()

    if max_len >= 1:
        yield from rec()


def count_free_words(k: int, alpha: Rational, max_len: int) -> list[int]:
    """Counts per length of the stream above; index 0 counts the empty word."""
    counts = [0] * (max_len + 1)
    counts[0] = 1
    for w in generate_free_words(k, alpha, max_len):
        counts[len(w)] += 1
    return counts
