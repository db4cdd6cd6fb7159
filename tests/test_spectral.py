import math
import random

import numpy as np
import pytest

from avoidance.patterns import Pattern, reverse
from avoidance.spectral import (
    AEMatrix,
    ae_matrix,
    avoidability_exponent,
    perron_root,
)

import oracles

# the between-occurrence counting matrix for ABACDCBD, fixed reference
ABACDCBD_MATRIX = [
    [0, 1, 0, 0],
    [1, 0, 0, 1],
    [0, 2, 0, 1],
    [0, 1, 1, 0],
]

# nine-decimal AE values for the ten exception patterns
AE_VALUES = {
    "ABACBDCD": 1.381966011,
    "ABACDBDC": 1.333333333,
    "ABACDCBD": 1.340090632,
    "ABCADBDC": 1.292893219,
    "ABCADCBD": 1.295597743,
    "ABCADCDB": 1.327621756,
    "ABCBDADC": 1.302775638,
    "ABACBDCEDE": 1.366025404,
    "ABACDBCEDE": 1.302775638,
    "ABACDBDECE": 1.320416579,
}


class TestAEMatrix:
    def test_reference_matrix(self):
        m = ae_matrix(Pattern("ABACDCBD"))
        assert m.size == 4
        assert [[int(x) for x in row] for row in m.entries] == ABACDCBD_MATRIX

    def test_two_variable_cases(self):
        m = ae_matrix(Pattern("ABAB"))
        assert [[int(x) for x in row] for row in m.entries] == [[0, 1], [1, 0]]
        z = ae_matrix(Pattern("AABB"))
        assert [[int(x) for x in row] for row in z.entries] == [[0, 0], [0, 0]]

    def test_requires_exactly_two_occurrences(self):
        with pytest.raises(ValueError):
            ae_matrix(Pattern("AAA"))
        with pytest.raises(ValueError):
            ae_matrix(Pattern("ABA"))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            AEMatrix(size=2, entries=((0, -1), (0, 0)))

    def test_rejects_ragged_entries(self):
        with pytest.raises(ValueError):
            AEMatrix(size=2, entries=((0, 1),))


class TestPerronRoot:
    def test_reference_value(self):
        beta = perron_root(AEMatrix(size=4, entries=tuple(map(tuple, ABACDCBD_MATRIX))))
        assert abs(beta - 1.9403926636612265) < 1e-9
        assert abs(beta - 1.9403) < 1e-3

    def test_zero_matrix(self):
        assert perron_root(AEMatrix(size=2, entries=((0, 0), (0, 0)))) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_permutation_matrix_converges_despite_periodicity(self):
        # eigenvalues 1 and -1 share the spectral radius
        beta = perron_root(AEMatrix(size=2, entries=((0, 1), (1, 0))))
        assert abs(beta - 1.0) < 1e-9

    def test_agrees_with_characteristic_polynomial(self):
        rng = random.Random(17)
        for _ in range(40):
            size = rng.randint(2, 5)
            entries = tuple(
                tuple(rng.randint(0, 3) for _ in range(size)) for _ in range(size)
            )
            beta = perron_root(AEMatrix(size=size, entries=entries))
            want = oracles.spectral_radius_by_roots(entries)
            assert math.isclose(beta, want, rel_tol=1e-8, abs_tol=1e-8)

    def test_agrees_with_numpy_eigvals_on_reference(self):
        ev = np.linalg.eigvals(np.array(ABACDCBD_MATRIX, dtype=float))
        assert abs(perron_root(
            AEMatrix(size=4, entries=tuple(map(tuple, ABACDCBD_MATRIX)))
        ) - max(abs(ev))) < 1e-9


class TestAvoidabilityExponent:
    def test_reference_pattern(self):
        res = avoidability_exponent(Pattern("ABACDCBD"))
        assert abs(res.beta - 1.9403926636612265) < 1e-9
        assert abs(res.ae - 1.340090632233741) < 1e-12
        assert res.ae == 1 + 1 / (res.beta + 1)

    @pytest.mark.parametrize("p,want", sorted(AE_VALUES.items()))
    def test_published_values(self, p, want):
        assert abs(avoidability_exponent(Pattern(p)).ae - want) < 1e-6

    @pytest.mark.parametrize("p", sorted(AE_VALUES))
    def test_reversal_invariance(self, p):
        a = avoidability_exponent(Pattern(p)).ae
        b = avoidability_exponent(reverse(Pattern(p))).ae
        assert abs(a - b) < 1e-9

    def test_range_on_all_small_doubled_patterns(self):
        # every variable occurring exactly twice keeps AE in (1, 2]; the
        # defective cases (nilpotent M, e.g. ABBA) are among the 1069
        from avoidance.patterns import _doubled_of_length

        checked = 0
        for v in range(1, 6):
            for p in _doubled_of_length(2 * v, v, exactly_twice=True):
                res = avoidability_exponent(Pattern(p))
                want = oracles.spectral_radius_by_roots(res.matrix.entries)
                assert abs(res.beta - want) < 1e-6, p
                assert 1.0 < res.ae <= 2.0, p
                checked += 1
        assert checked == 1069

    @pytest.mark.parametrize("p,beta", [
        ("ABBA", 0.0), ("AABBCDDC", 0.0), ("ABACDDCEBE", math.sqrt(2)),
    ])
    def test_closed_form_roots(self, p, beta):
        res = avoidability_exponent(Pattern(p))
        assert abs(res.beta - beta) < 1e-8
        assert abs(res.ae - (1 + 1 / (beta + 1))) < 1e-8

    def test_extremes(self):
        assert avoidability_exponent(Pattern("AABB")).ae == pytest.approx(2.0)
        assert avoidability_exponent(Pattern("ABAB")).ae == pytest.approx(1.5)

