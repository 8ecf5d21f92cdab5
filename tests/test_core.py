import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fusenav.core import (
    DataError,
    GpsFix,
    InvalidQuaternionError,
    level_heading_quat,
    quat_conjugate,
    quat_from_small_angle,
    quat_multiply,
    quat_normalize,
    quat_rotate,
    quat_to_matrix,
    quat_to_rotation_vector,
    skew,
)


def rotation_matrix_oracle(q):
    """Independent quaternion -> matrix construction for cross-checking."""
    w, x, y, z = q
    # build from the sandwich product on the basis vectors
    cols = []
    for e in np.eye(3):
        u = np.array([0.0, *e])
        res = _hamilton(_hamilton(q, u), np.array([w, -x, -y, -z]))
        cols.append(res[1:])
    return np.column_stack(cols)


def _hamilton(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def random_unit_quat(rng):
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


def test_normalize_identity_and_scaling():
    assert_allclose(quat_normalize([1, 0, 0, 0]), [1, 0, 0, 0])
    assert_allclose(quat_normalize([2, 0, 0, 0]), [1, 0, 0, 0])
    # norm of (1,1,1,1) is 2
    assert_allclose(quat_normalize([1, 1, 1, 1]), [0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_normalize_preserves_direction_and_unit_norm():
    rng = np.random.default_rng(7)
    for _ in range(200):
        q = rng.standard_normal(4) * rng.uniform(0.1, 50.0)
        qn = quat_normalize(q)
        assert abs(np.linalg.norm(qn) - 1.0) < 1e-12
        assert_allclose(np.cross(qn[1:], q[1:]), 0.0, atol=1e-9 * np.linalg.norm(q))


def test_normalize_zero_raises():
    with pytest.raises(InvalidQuaternionError):
        quat_normalize([0.0, 0.0, 0.0, 0.0])


def test_rotate_identity_and_z90():
    assert_allclose(quat_rotate([1, 0, 0, 0], [1, 2, 3]), [1, 2, 3])
    q90 = quat_from_small_angle([0, 0, math.pi / 2])
    assert_allclose(quat_rotate(q90, [1, 0, 0]), [0, 1, 0], atol=1e-12)


def test_rotate_conjugate_inverts():
    rng = np.random.default_rng(3)
    for _ in range(100):
        q = random_unit_quat(rng)
        v = rng.standard_normal(3)
        assert_allclose(quat_rotate(quat_conjugate(q), quat_rotate(q, v)), v, atol=1e-9)


def test_rotate_matches_matrix_oracle():
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        q = random_unit_quat(rng)
        v = rng.standard_normal(3)
        assert_allclose(quat_rotate(q, v), rotation_matrix_oracle(q) @ v, atol=1e-9)
        assert abs(np.linalg.norm(quat_rotate(q, v)) - np.linalg.norm(v)) < 1e-9


def test_quat_to_matrix_batched_rows_match_single():
    rng = np.random.default_rng(12)
    q = rng.standard_normal((2, 50, 4))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    batched = quat_to_matrix(q)
    assert batched.shape == (2, 50, 3, 3)
    for i, j in np.ndindex(2, 50):
        assert np.array_equal(batched[i, j], quat_to_matrix(q[i, j]))


def test_quat_to_matrix_matches_rotate():
    rng = np.random.default_rng(11)
    for _ in range(500):
        q = random_unit_quat(rng)
        v = rng.standard_normal(3)
        assert_allclose(quat_to_matrix(q) @ v, quat_rotate(q, v), atol=1e-11)


def test_small_angle_zero_and_axis_angle():
    assert_allclose(quat_from_small_angle([0, 0, 0]), [1, 0, 0, 0])
    got = quat_from_small_angle([0, 0, math.pi / 2])
    # axis-angle formula: (cos(pi/4), 0, 0, sin(pi/4))
    assert_allclose(got, [math.sqrt(2) / 2, 0, 0, math.sqrt(2) / 2], atol=1e-12)


def test_small_angle_composition_first_order():
    eps = 1e-5
    single = quat_from_small_angle([eps, 0, 0])
    twice = quat_multiply(single, single)
    direct = quat_from_small_angle([2 * eps, 0, 0])
    # finite-difference check: composing twice equals the doubled angle to O(eps^2)
    assert_allclose(twice, direct, atol=10 * eps**2)


def test_small_angle_fallback_branch_is_normalized():
    q = quat_from_small_angle([1e-10, -2e-10, 5e-11])
    assert abs(np.linalg.norm(q) - 1.0) < 1e-15


def test_rotation_vector_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(500):
        rv = rng.standard_normal(3)
        rv *= rng.uniform(0, 3.0) / max(np.linalg.norm(rv), 1e-12)
        assert_allclose(quat_to_rotation_vector(quat_from_small_angle(rv)), rv, atol=1e-9)


def test_unit_norm_preserved_under_many_compositions():
    # long composition chains must not drift off the unit sphere
    rng = np.random.default_rng(1)
    q = np.array([1.0, 0.0, 0.0, 0.0])
    worst = 0.0
    for _ in range(10**6 // 100):
        for _ in range(100):
            q = quat_multiply(q, quat_from_small_angle(rng.standard_normal(3) * 0.01))
        q = quat_normalize(q)
        worst = max(worst, abs(np.linalg.norm(q) - 1.0))
    assert worst < 1e-9


def test_skew_matches_cross_product():
    rng = np.random.default_rng(9)
    for _ in range(100):
        a, b = rng.standard_normal((2, 3))
        assert_allclose(skew(a) @ b, np.cross(a, b), atol=1e-12)


def test_level_heading_quat_frame_convention():
    # facing east: body x -> east, body y (right) -> south, body z -> down
    q = level_heading_quat(0.0)
    assert_allclose(quat_rotate(q, [1, 0, 0]), [1, 0, 0], atol=1e-12)
    assert_allclose(quat_rotate(q, [0, 1, 0]), [0, -1, 0], atol=1e-12)
    assert_allclose(quat_rotate(q, [0, 0, 1]), [0, 0, -1], atol=1e-12)
    # facing north: body x -> north
    qn = level_heading_quat(math.pi / 2)
    assert_allclose(quat_rotate(qn, [1, 0, 0]), [0, 1, 0], atol=1e-12)


def test_gps_fix_range_validation():
    GpsFix(0.0, 45.0, 90.0, 10.0)
    with pytest.raises(ValueError):
        GpsFix(0.0, 91.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        GpsFix(0.0, 0.0, -181.0, 0.0)


@pytest.mark.parametrize(
    "t, alt", [(math.nan, 0.0), (math.inf, 0.0), (0.0, math.nan), (0.0, -math.inf)]
)
def test_gps_fix_rejects_non_finite_time_and_altitude(t, alt):
    with pytest.raises(DataError, match="non-finite"):
        GpsFix(t, 37.0, -122.0, alt)
