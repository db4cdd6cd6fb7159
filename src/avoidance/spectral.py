"""Avoidability exponent of a doubled pattern via the between-occurrence
count matrix and its Perron root.

For a doubled pattern of length 2v (every variable exactly twice), M[i][j]
counts occurrences of X_i strictly inside the span of the two X_j; with
beta the largest eigenvalue of M, AE(p) = 1 + 1/(beta + 1). M is
non-negative, so beta is its Perron root: the spectral radius, which is
itself an eigenvalue and the largest real part in the spectrum. It is read
off one numpy eigenvalue call; on every doubled pattern with at most 5
variables, each exactly twice, that is within 2e-8 of the exact root,
defective cases such as the nilpotent M of ABBA included. The matrix
orientation is fixed by the ABACDCBD reference matrix
[[0,1,0,0],[1,0,0,1],[0,2,0,1],[0,1,1,0]]; its transpose has the same
spectrum, so beta and AE are unaffected either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .patterns import Pattern


@dataclass(frozen=True)
class AEMatrix:
    size: int
    entries: np.ndarray  # (size, size) non-negative ints

    def __post_init__(self) -> None:
        try:
            arr = np.asarray(self.entries, dtype=np.int64)
        except ValueError as exc:
            raise ValueError(f"entries are not a square integer array: {exc}")
        if arr.shape != (self.size, self.size):
            raise ValueError("entries shape does not match size")
        if (arr < 0).any():
            raise ValueError("entries must be non-negative")
        object.__setattr__(self, "entries", arr)


@dataclass(frozen=True)
class AEResult:
    pattern: Pattern
    matrix: AEMatrix
    beta: float
    ae: float
    iterations: int = 0  # always 0; perfbench/tracing.py still reads it


def ae_matrix(p: str) -> AEMatrix:
    """Between-occurrence count matrix of a doubled pattern of length 2v."""
    pat = Pattern(p)
    order = sorted(set(pat), key=pat.index)
    spans = {}
    for v in order:
        if pat.count(v) != 2:
            raise ValueError(f"variable {v} must occur exactly twice in {pat}")
        first = pat.index(v)
        spans[v] = (first, pat.index(v, first + 1))
    v_count = len(order)
    m = np.zeros((v_count, v_count), dtype=int)
    for j, vj in enumerate(order):
        lo, hi = spans[vj]
        between = pat[lo + 1:hi]
        for i, vi in enumerate(order):
            m[i, j] = between.count(vi)
    return AEMatrix(v_count, m)


def perron_root(mat: AEMatrix) -> float:
    """Spectral radius of a non-negative matrix: the largest real part of
    its eigenvalues (the Perron root is a real eigenvalue of maximal
    modulus)."""
    return float(max(np.linalg.eigvals(mat.entries).real))


def avoidability_exponent(p: str) -> AEResult:
    """AE(p) = 1 + 1/(beta + 1) with beta the Perron root of ae_matrix(p)."""
    mat = ae_matrix(p)
    beta = perron_root(mat)
    return AEResult(Pattern(p), mat, beta, 1.0 + 1.0 / (beta + 1.0))
