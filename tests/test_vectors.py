"""Vector tests: L2 row normalization and the clipped cosine that margin
search computes from normalized rows, with their invariants."""

import numpy as np
import pytest

from bitextkit import knn, normalize_rows
from bitextkit.errors import DimMismatchError, ZeroVectorError


def cosine(u, v) -> float:
    """The cosine knn reports for one query against one candidate."""
    return float(knn([u], [v], 1)[1][0, 0])


def test_l2_normalize_three_four_five():
    assert np.allclose(normalize_rows([[3.0, 4.0]]), [[0.6, 0.8]], atol=1e-12)
    out = normalize_rows([[3.0, 4.0], [0.0, -2.0], [5.0, 12.0]])
    assert np.allclose(out, [[0.6, 0.8], [0.0, -1.0], [5 / 13, 12 / 13]], atol=1e-12)


def test_l2_normalize_identity_on_unit_vectors():
    assert np.array_equal(normalize_rows([[1.0, 0.0, 0.0]]), [[1.0, 0.0, 0.0]])
    assert np.array_equal(normalize_rows(np.eye(4)), np.eye(4))


def test_l2_normalize_zero_vector_raises():
    with pytest.raises(ZeroVectorError):
        normalize_rows([[0.0, 0.0]])
    with pytest.raises(ZeroVectorError):
        normalize_rows([[1e-13, 0.0]])
    with pytest.raises(ZeroVectorError, match="row 1"):
        normalize_rows([[1.0, 0.0], [1e-13, 0.0]])


def test_l2_normalize_rejects_non_finite():
    with pytest.raises(ValueError):
        normalize_rows([[np.inf, 1.0]])


def test_l2_normalize_output_norm_and_scale_invariance():
    rng = np.random.default_rng(42)
    for _ in range(200):
        rows = rng.normal(size=(int(rng.integers(1, 6)), int(rng.integers(1, 12))))
        if np.linalg.norm(rows, axis=1).min() <= 1e-6:
            continue
        scales = rng.uniform(1e-3, 1e3, size=(rows.shape[0], 1))
        a = normalize_rows(rows)
        b = normalize_rows(scales * rows)
        assert np.abs(np.linalg.norm(a, axis=1) - 1.0).max() <= 1e-6
        assert np.allclose(a, b, atol=1e-7)


def test_cosine_orthogonal_and_45_degrees():
    assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert abs(cosine([1.0, 1.0], [1.0, 0.0]) - 0.70710678) <= 1e-8


def test_cosine_24_over_25():
    assert abs(cosine([3.0, 4.0], [4.0, 3.0]) - 0.96) <= 1e-12


def test_cosine_errors():
    with pytest.raises(DimMismatchError):
        cosine([1.0, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(ZeroVectorError):
        cosine([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ZeroVectorError):
        cosine([1.0, 0.0], [0.0, 0.0])


def test_cosine_symmetric_scale_invariant_clamped():
    rng = np.random.default_rng(7)
    for _ in range(300):
        dim = int(rng.integers(1, 10))
        u = rng.normal(size=dim)
        v = rng.normal(size=dim)
        if min(np.linalg.norm(u), np.linalg.norm(v)) <= 1e-6:
            continue
        c = cosine(u, v)
        assert -1.0 <= c <= 1.0
        assert cosine(v, u) == c
        assert abs(cosine(3.5 * u, 0.25 * v) - c) <= 1e-12


def test_cosine_of_normalized_inputs_matches():
    rng = np.random.default_rng(11)
    for _ in range(100):
        u = rng.normal(size=6)
        v = rng.normal(size=6)
        base = cosine(u, v)
        normed = cosine(*normalize_rows([u, v]))
        assert abs(base - normed) <= 1e-6


def test_cosine_clamps_rounding_excursions():
    v = np.full(64, 0.1)
    assert cosine(v, v) == 1.0
    assert cosine(v, -v) == -1.0


def test_normalize_rows_unit_norms():
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(17, 5))
    out = normalize_rows(mat)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


def test_normalize_rows_reports_zero_row_index():
    mat = np.ones((4, 3))
    mat[2] = 0.0
    with pytest.raises(ZeroVectorError, match="row 2"):
        normalize_rows(mat)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_normalize_rows_reports_non_finite_row_index(bad):
    mat = np.ones((4, 3))
    mat[1, 2] = bad
    with pytest.raises(ValueError, match="row 1"):
        normalize_rows(mat)


def test_normalize_rows_rejects_vectors():
    with pytest.raises(DimMismatchError):
        normalize_rows(np.ones(4))
    with pytest.raises(DimMismatchError):
        normalize_rows(np.ones((2, 2, 2)))
