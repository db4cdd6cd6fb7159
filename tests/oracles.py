"""Independent brute-force reference implementations.

Everything here trades speed for obviousness: direct definitions,
exhaustive loops, no shared code with the package under test.
"""

import itertools
from fractions import Fraction

import numpy as np


def naive_smallest_period(w: str) -> int:
    for p in range(1, len(w) + 1):
        if all(w[i] == w[i + p] for i in range(len(w) - p)):
            return p
    raise AssertionError("unreachable for nonempty w")


def naive_exponent(w: str) -> Fraction:
    return Fraction(len(w), naive_smallest_period(w))


def naive_is_free(w: str, alpha: Fraction) -> bool:
    # check every factor against the exponent bound
    for i in range(len(w)):
        for j in range(i + 1, len(w) + 1):
            if naive_exponent(w[i:j]) > alpha:
                return False
    return True


def filter_free_words(k: int, alpha: Fraction, max_len: int) -> list[str]:
    alphabet = "0123456789"[:k]
    out = []
    for n in range(1, max_len + 1):
        for tup in itertools.product(alphabet, repeat=n):
            w = "".join(tup)
            if naive_is_free(w, alpha):
                out.append(w)
    return out


def brute_occurrence(p: str, w: str) -> bool:
    """Existence of a non-erasing occurrence, by trying every
    assignment of image lengths to the distinct variables."""
    variables = sorted(set(p))
    occ = {v: p.count(v) for v in variables}
    n = len(w)
    for start in range(n):
        avail = n - start
        # image length per variable is bounded by what the other
        # occurrences leave over
        ranges = []
        for v in variables:
            hi = (avail - (len(p) - occ[v])) // occ[v]
            if hi < 1:
                break
            ranges.append(range(1, hi + 1))
        else:
            for combo in itertools.product(*ranges):
                lengths = dict(zip(variables, combo))
                total = sum(lengths[v] for v in p)
                if total > avail:
                    continue
                images: dict[str, str] = {}
                pos = start
                for v in p:
                    seg = w[pos : pos + lengths[v]]
                    if images.setdefault(v, seg) != seg:
                        break
                    pos += lengths[v]
                else:
                    return True
    return False


def brute_first_occurrence(p: str, w: str, cap=None, min_end: int = 0):
    """The first occurrence as (start, images), or None: the least start,
    then the least tuple of image lengths with the variables in order of
    first appearance, among occurrences with total image length <= cap
    (default unbounded) that end at position >= min_end."""
    variables = sorted(set(p), key=p.index)
    n = len(w)
    for start in range(n):
        # itertools.product runs through the length tuples in lex order
        ranges = [range(1, n - start + 1) for _ in variables]
        for combo in itertools.product(*ranges):
            lengths = dict(zip(variables, combo))
            total = sum(lengths[v] for v in p)
            end = start + total
            if end > n or end < min_end or (cap is not None and total > cap):
                continue
            images: dict[str, str] = {}
            pos = start
            for v in p:
                seg = w[pos : pos + lengths[v]]
                if images.setdefault(v, seg) != seg:
                    break
                pos += lengths[v]
            else:
                return start, images
    return None


def truncated_series_value(m: int, terms, x: float, n_terms: int = 60) -> float:
    """1 - m*x + sum a_i x^i with the a_i obtained by convolving the
    geometric series of each term, truncated at degree n_terms."""
    prod = [0.0] * (n_terms + 1)
    prod[0] = 1.0
    for c, w in terms:
        geo = [0.0] * (n_terms + 1)
        power = float(c)
        deg = w
        while deg <= n_terms:
            geo[deg] = power
            power *= c
            deg += w
        nxt = [0.0] * (n_terms + 1)
        for i, a in enumerate(prod):
            if a == 0.0:
                continue
            for j in range(1, n_terms + 1 - i):
                if geo[j]:
                    nxt[i + j] += a * geo[j]
        prod = nxt
    acc = 1.0 - m * x
    for i in range(1, n_terms + 1):
        acc += prod[i] * x**i
    return acc


def charpoly(mat) -> list[int]:
    """Integer coefficients of det(lambda*I - M), highest degree first,
    by cofactor expansion over polynomial entries."""
    size = len(mat)

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def poly_add(a, b):
        n = max(len(a), len(b))
        a = a + [0] * (n - len(a))
        b = b + [0] * (n - len(b))
        return [x + y for x, y in zip(a, b)]

    # entry (i, j) of lambda*I - M as coefficient list, low degree first
    entries = [
        [
            [-int(mat[i][j]), 1] if i == j else [-int(mat[i][j])]
            for j in range(size)
        ]
        for i in range(size)
    ]

    def det(rows, cols):
        if len(cols) == 1:
            return entries[rows[0]][cols[0]]
        acc = [0]
        for k, j in enumerate(cols):
            minor = det(rows[1:], cols[:k] + cols[k + 1 :])
            term = poly_mul(entries[rows[0]][j], minor)
            if k % 2:
                term = [-x for x in term]
            acc = poly_add(acc, term)
        return acc

    low_first = det(list(range(size)), list(range(size)))
    return [int(c) for c in reversed(low_first)]


def spectral_radius_by_roots(mat) -> float:
    roots = np.roots(charpoly(mat))
    return float(max(abs(r) for r in roots))


def full_search_count(find_occurrence, p, m: int, up_to: int) -> list[int]:
    """DFS counter that re-runs an unrestricted occurrence search on
    every extension; the factorial-language prune is the only thing
    shared with the fast counter."""
    counts = [1] + [0] * up_to
    alphabet = "0123456789"[:m]

    def rec(w: str) -> None:
        counts[len(w)] += 1
        if len(w) == up_to:
            return
        for a in alphabet:
            w2 = w + a
            if find_occurrence(p, w2) is None:
                rec(w2)

    for a in alphabet:
        if find_occurrence(p, a) is None:
            rec(a)
    return counts
