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

from .patterns import Pattern, variables


@dataclass(frozen=True)
class AEMatrix:
    size: int
    entries: np.ndarray  # square array of non-negative ints, else ValueError

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries)
        if arr.dtype.kind not in "iu" or arr.shape != (self.size, self.size):
            raise ValueError(f"entries must be a {self.size}x{self.size} "
                             "integer array")
        arr = arr.astype(np.int64)  # a uint64 beyond int64 wraps negative
        if (arr < 0).any():
            raise ValueError("entries must be non-negative int64 values")
        object.__setattr__(self, "entries", arr)


@dataclass(frozen=True)
class AEResult:
    pattern: str
    matrix: AEMatrix
    beta: float
    ae: float
    iterations: int = 0  # always 0; perfbench/tracing.py still reads it


def ae_matrix(p: str) -> AEMatrix:
    """Between-occurrence count matrix of a doubled pattern of length 2v."""
    pat = Pattern(p)
    order, _ = variables(pat)
    for v in order:
        if pat.count(v) != 2:
            raise ValueError(f"variable {v} must occur exactly twice in {pat}")
    between = [pat[pat.index(v) + 1:pat.rindex(v)] for v in order]
    return AEMatrix(len(order), [[span.count(vi) for span in between]
                                 for vi in order])


def perron_root(mat: AEMatrix) -> float:
    """Spectral radius of a non-negative matrix: the largest real part of
    its eigenvalues (the Perron root is a real eigenvalue of maximal
    modulus)."""
    return float(max(np.linalg.eigvals(mat.entries).real))


def avoidability_exponent(p: str) -> AEResult:
    """AE(p) = 1 + 1/(beta + 1) with beta the Perron root of ae_matrix(p)."""
    mat = ae_matrix(p)
    beta = perron_root(mat)
    return AEResult(p, mat, beta, 1.0 + 1.0 / (beta + 1.0))
