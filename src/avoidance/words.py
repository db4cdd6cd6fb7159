"""Words over small alphabets: periods, fractional exponents, and
generation of alpha+-free words by grow, the one depth-first walker for
both factorial languages (certify counts pattern avoiders with it too).

A word is a plain str over the display alphabet '0'-'9' then 'a'-'p'
(alphabet sizes up to 26). Words that come from outside the program are
checked once, by letter_indices, which also gives their letters as
indices 0..25. Exponents are exact Fractions throughout; the alpha+
condition ("no factor of exponent strictly greater than alpha") is decided
by integer cross-multiplication, never floats.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Iterator

DISPLAY = "0123456789abcdefghijklmnop"
MAX_ALPHABET = len(DISPLAY)

_INDEX = {c: i for i, c in enumerate(DISPLAY)}


def letter_indices(w: str) -> list[int]:
    """The letters of w as indices into DISPLAY; ValueError on any other
    letter.

    >>> letter_indices("0a1")
    [0, 10, 1]
    """
    try:
        return [_INDEX[c] for c in w]
    except KeyError:
        raise ValueError(f"letter outside display alphabet in {w!r}") from None


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


def exponent(w: str) -> Fraction:
    """|w| / smallest_period(w), in lowest terms.

    >>> exponent("0101")
    Fraction(2, 1)
    >>> exponent("01010")
    Fraction(5, 2)
    """
    return Fraction(len(w), smallest_period(w))


def is_alpha_plus_free(w: str, alpha: Fraction) -> bool:
    """True iff no factor of w has exponent strictly greater than alpha.

    Factors of exponent exactly alpha are allowed: this is the alpha+
    condition, and the strictness of the comparison is the whole point,
    so it is done exactly on integers.
    """
    num, den = _ratio(alpha)
    # every factor is a suffix of some prefix: check each prefix at its
    # last letter, as the generator does
    return all(_extension_ok(w[:n], num, den) for n in range(2, len(w) + 1))


def _ratio(alpha: Fraction) -> tuple[int, int]:
    """alpha as numerator and denominator; ValueError unless it is an int
    or a Fraction of at least 1, since the exponent test is exact only on
    rationals."""
    if not isinstance(alpha, (int, Fraction)):
        raise ValueError(f"alpha={alpha!r} must be an int or a Fraction")
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    return alpha.numerator, alpha.denominator


def _extension_ok(w: str, num: int, den: int) -> bool:
    """Check only suffixes ending at the last letter of w, as grow needs.

    For each shift p, the longest suffix of period p has length p +
    (longest common suffix of the word and itself shifted by p); exponent
    > alpha for some suffix iff it holds for one of these maximal ones.
    """
    n = len(w)
    for p in range(1, n):
        lcs = 0
        i = n - 1 - p
        while i >= 0 and w[i] == w[i + p]:
            lcs += 1
            i -= 1
        if (p + lcs) * den > num * p:
            return False
    return True


def grow(roots: Iterable[str], letters: str, max_len: int,
         ok: Callable[[str], bool]) -> Iterator[str]:
    """Depth-first walk of a factorial language: each word that passes ok,
    from the roots extended by letters while shorter than max_len, in
    lexicographic order with prefixes first. A failing word's subtree is
    never entered, so ok need only test the factors ending at the last
    letter: the others were tested when their own last letter was added.

    >>> tested = []
    >>> list(grow("01", "01", 2, lambda w: tested.append(w) or w != "1"))
    ['0', '00', '01']
    >>> tested  # '10' and '11' are never tested
    ['0', '00', '01', '1']
    """
    stack = list(roots)[::-1]
    backwards = letters[::-1]
    while stack:
        w = stack.pop()
        if ok(w):
            yield w
            if len(w) < max_len:
                stack.extend([w + a for a in backwards])


def generate_free_words(k: int, alpha: Fraction, max_len: int) -> Iterator[str]:
    """Stream every alpha+-free word over Sigma_k with 1 <= |w| <= max_len
    in grow's order from the one-letter words; a branch dies as soon as a
    suffix ending at the new letter exceeds the exponent bound. The
    arguments are checked at the call, before the first word."""
    if k < 1 or k > MAX_ALPHABET:
        raise ValueError(f"alphabet size {k} out of range")
    num, den = _ratio(alpha)
    if max_len < 0:
        raise ValueError(f"max_len must be non-negative, got {max_len}")
    letters = DISPLAY[:k]
    return grow(letters if max_len else "", letters, max_len,
                lambda w: _extension_ok(w, num, den))


def count_free_words(k: int, alpha: Fraction, max_len: int) -> list[int]:
    """Counts per length of the stream above; index 0 counts the empty word."""
    lengths = Counter(map(len, generate_free_words(k, alpha, max_len)))
    return [1] + [lengths[n] for n in range(1, max_len + 1)]
