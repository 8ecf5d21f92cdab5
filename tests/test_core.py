import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fusenav.core import (
    DataError,
    GpsFix,
    hamilton,
    level_heading_quat,
    quat_to_matrix,
    rotation_entries,
    rotvec_quat,
    unit,
)
from test_localizer import rotation_vector, skew  # test helpers


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


def rotate(q, v):
    """R(q) v, the rotation of 3-vector v by unit quaternion q."""
    return quat_to_matrix(q) @ np.asarray(v, dtype=float)


def conjugate(q):
    return np.asarray(q, dtype=float) * [1.0, -1.0, -1.0, -1.0]


def test_normalize_identity_and_scaling():
    assert_allclose(unit([1.0, 0.0, 0.0, 0.0]), [1, 0, 0, 0])
    assert_allclose(unit([2.0, 0.0, 0.0, 0.0]), [1, 0, 0, 0])
    # norm of (1,1,1,1) is 2
    assert_allclose(unit([1.0, 1.0, 1.0, 1.0]), [0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_normalize_preserves_direction_and_unit_norm():
    rng = np.random.default_rng(7)
    for _ in range(200):
        q = rng.standard_normal(4) * rng.uniform(0.1, 50.0)
        qn = np.array(unit(q.tolist()))
        assert abs(np.linalg.norm(qn) - 1.0) < 1e-12
        assert_allclose(np.cross(qn[1:], q[1:]), 0.0, atol=1e-9 * np.linalg.norm(q))


def test_normalize_zero_raises():
    with pytest.raises(DataError, match="cannot normalize quaternion of norm 0.0"):
        unit([0.0, 0.0, 0.0, 0.0])


def test_rotate_identity_and_z90():
    assert_allclose(rotate([1, 0, 0, 0], [1, 2, 3]), [1, 2, 3])
    q90 = rotvec_quat([0.0, 0.0, math.pi / 2])
    assert_allclose(rotate(q90, [1, 0, 0]), [0, 1, 0], atol=1e-12)


def test_rotate_conjugate_inverts():
    rng = np.random.default_rng(3)
    for _ in range(100):
        q = random_unit_quat(rng)
        v = rng.standard_normal(3)
        assert_allclose(rotate(conjugate(q), rotate(q, v)), v, atol=1e-9)


def test_rotate_matches_matrix_oracle():
    rng = np.random.default_rng(42)
    q = rng.standard_normal((10_000, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    v = rng.standard_normal((10_000, 3))
    got = np.einsum("nij,nj->ni", quat_to_matrix(q), v)
    want = [rotation_matrix_oracle(x) @ y for x, y in zip(q, v)]
    assert_allclose(got, want, atol=1e-9)
    assert_allclose(np.linalg.norm(got, axis=1), np.linalg.norm(v, axis=1), rtol=0, atol=1e-9)


def test_quat_to_matrix_batched_rows_match_single():
    rng = np.random.default_rng(12)
    q = rng.standard_normal((2, 50, 4))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    batched = quat_to_matrix(q)
    assert batched.shape == (2, 50, 3, 3)
    for i, j in np.ndindex(2, 50):
        assert np.array_equal(batched[i, j], quat_to_matrix(q[i, j]))


def test_quat_to_matrix_matches_rotate():
    # R(q) v against the sandwich product q (x) (0, v) (x) q*
    rng = np.random.default_rng(11)
    for _ in range(500):
        q = random_unit_quat(rng)
        v = rng.standard_normal(3)
        sandwich = _hamilton(_hamilton(q, [0.0, *v]), conjugate(q))
        assert_allclose(quat_to_matrix(q) @ v, sandwich[1:], atol=1e-11)


def test_small_angle_zero_and_axis_angle():
    assert_allclose(rotvec_quat([0.0, 0.0, 0.0]), [1, 0, 0, 0])
    got = rotvec_quat([0.0, 0.0, math.pi / 2])
    # axis-angle formula: (cos(pi/4), 0, 0, sin(pi/4))
    assert_allclose(got, [math.sqrt(2) / 2, 0, 0, math.sqrt(2) / 2], atol=1e-12)


def test_small_angle_composition_first_order():
    eps = 1e-5
    single = rotvec_quat([eps, 0.0, 0.0])
    twice = hamilton(single, single)
    direct = rotvec_quat([2 * eps, 0.0, 0.0])
    # finite-difference check: composing twice equals the doubled angle to O(eps^2)
    assert_allclose(twice, direct, atol=10 * eps**2)


def test_small_angle_fallback_branch_is_normalized():
    q = rotvec_quat([1e-10, -2e-10, 5e-11])
    assert abs(np.linalg.norm(q) - 1.0) < 1e-15


def test_rotation_vector_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(500):
        rv = rng.standard_normal(3)
        rv *= rng.uniform(0, 3.0) / max(np.linalg.norm(rv), 1e-12)
        assert_allclose(rotation_vector(rotvec_quat(rv.tolist())), rv, atol=1e-9)


def test_unit_norm_preserved_under_many_compositions():
    # long composition chains must not drift off the unit sphere; the
    # increments come as one stack and compose on floats, as in propagate
    rng = np.random.default_rng(1)
    q = (1.0, 0.0, 0.0, 0.0)
    worst = 0.0
    for _ in range(10**6 // 100):
        for d in rotvec_quat(rng.standard_normal((100, 3)) * 0.01).tolist():
            q = hamilton(q, d)
        q = unit(q)
        worst = max(worst, abs(math.hypot(*q) - 1.0))
    assert worst < 1e-9


def test_skew_matches_cross_product():
    rng = np.random.default_rng(9)
    for _ in range(100):
        a, b = rng.standard_normal((2, 3))
        assert_allclose(skew(a) @ b, np.cross(a, b), atol=1e-12)


def test_level_heading_quat_frame_convention():
    # facing east: body x -> east, body y (right) -> south, body z -> down
    q = level_heading_quat(0.0)
    assert_allclose(rotate(q, [1, 0, 0]), [1, 0, 0], atol=1e-12)
    assert_allclose(rotate(q, [0, 1, 0]), [0, -1, 0], atol=1e-12)
    assert_allclose(rotate(q, [0, 0, 1]), [0, 0, -1], atol=1e-12)
    # facing north: body x -> north
    qn = level_heading_quat(math.pi / 2)
    assert_allclose(rotate(qn, [1, 0, 0]), [0, 1, 0], atol=1e-12)


def test_stacked_quaternion_helpers_equal_per_row_calls():
    rng = np.random.default_rng(12)
    headings = np.concatenate([[0.0, -0.0, math.pi, -math.pi / 2], rng.uniform(-7, 7, 60)])
    stacked = level_heading_quat(headings)
    rows = np.array([level_heading_quat(float(h)) for h in headings])
    assert stacked.shape == (64, 4)
    assert np.array_equal(stacked, rows)
    assert np.array_equal(np.signbit(stacked), np.signbit(rows))  # zeros keep sign
    a, b = rng.standard_normal((2, 64, 4))
    products = np.array(hamilton(a.T, b.T)).T
    assert np.array_equal(products, [hamilton(x.tolist(), y.tolist()) for x, y in zip(a, b)])
    broadcast = np.array(hamilton(a.T, b[0].tolist())).T
    assert np.array_equal(broadcast, [hamilton(x.tolist(), b[0].tolist()) for x in a])


def _oracle_rotvec_quat(theta):
    """Axis-angle quaternion of ``theta``; below 1e-8 rad (1, theta/2), normalized."""
    theta = np.asarray(theta, dtype=float)
    angle = np.linalg.norm(theta)
    if angle < 1e-8:
        q = np.array([1.0, *(theta / 2)])
        return q / np.linalg.norm(q)
    return np.array([math.cos(angle / 2), *(math.sin(angle / 2) * theta / angle)])


def _kernel_cases(rng):
    """Random unit and non-unit quaternions and rotation vectors, large and
    below the 1e-8 rad branch."""
    q = rng.standard_normal((40, 4)) * rng.uniform(0.1, 10.0, (40, 1))
    theta = rng.standard_normal((40, 3)) * np.repeat([[1.0], [1e-9]], 20, axis=0)
    return q, theta


def test_component_kernels_match_oracles_on_floats():
    rng = np.random.default_rng(21)
    q, theta = _kernel_cases(rng)
    small = 0
    for a, b, t in zip(q, q[::-1], theta):
        a_f, b_f, t_f = a.tolist(), b.tolist(), t.tolist()
        for got in (hamilton(a_f, b_f), unit(a_f), rotvec_quat(t_f)):
            assert all(type(c) is float for c in got)
        assert_allclose(hamilton(a_f, b_f), _hamilton(a, b), rtol=1e-15, atol=1e-14)
        assert_allclose(unit(a_f), a / np.linalg.norm(a), rtol=1e-15, atol=1e-16)
        assert_allclose(rotvec_quat(t_f), _oracle_rotvec_quat(t), rtol=1e-15, atol=1e-16)
        u = a / np.linalg.norm(a)
        assert_allclose(
            np.reshape(rotation_entries(u.tolist()), (3, 3)),
            rotation_matrix_oracle(u),
            atol=1e-15,
        )
        small += np.linalg.norm(t) < 1e-8
    assert small == 20


def test_component_kernels_match_oracles_on_stacks():
    # hamilton and rotation_entries also run on stacks: level_heading_quat
    # and quat_to_matrix call them so
    rng = np.random.default_rng(22)
    q, _ = _kernel_cases(rng)
    u = q / np.linalg.norm(q, axis=1, keepdims=True)
    products = np.array(hamilton(q.T, q[::-1].T)).T
    assert_allclose(products, [_hamilton(a, b) for a, b in zip(q, q[::-1])], rtol=1e-15, atol=1e-14)
    entries = np.array(rotation_entries(u.T)).T.reshape(-1, 3, 3)
    assert_allclose(entries, [rotation_matrix_oracle(x) for x in u], atol=1e-15)
    # the stacked kernels equal the float kernels row by row, bit for bit
    assert np.array_equal(products, [hamilton(a, b) for a, b in zip(q.tolist(), q[::-1].tolist())])
    assert np.array_equal(quat_to_matrix(u), [quat_to_matrix(x) for x in u])
    assert np.array_equal(entries, [np.reshape(rotation_entries(x), (3, 3)) for x in u.tolist()])


def _oracle_rotation_entries(q):
    """R(q)'s entries as the component expressions, each product formed
    where it is used."""
    w, x, y, z = q
    return (
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    )


def _oracle_quat_to_matrix(q):
    q = np.asarray(q, dtype=float)
    entries = _oracle_rotation_entries(np.moveaxis(q, -1, 0))
    return np.stack(entries, axis=-1).reshape(q.shape[:-1] + (3, 3))


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want)), "sign of zero"


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 1100), seed=st.integers(0, 2**32 - 1), zeros=st.floats(0.0, 0.5))
def test_rotation_kernel_equals_component_expressions(n, seed, zeros):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((n, 4))
    # components zeroed with their signs kept put signed zeros in the products
    q[rng.random((n, 4)) < zeros] *= 0.0
    q[~q.any(axis=1), 0] = 1.0
    u = q / np.linalg.norm(q, axis=1, keepdims=True)
    for got, want in zip(rotation_entries(u.T), _oracle_rotation_entries(u.T), strict=True):
        assert_bitwise(got, want)
    assert_bitwise(quat_to_matrix(u), _oracle_quat_to_matrix(u))
    assert_bitwise(quat_to_matrix(u[-1]), _oracle_quat_to_matrix(u[-1]))
    floats = u[0].tolist()
    assert_bitwise(rotation_entries(floats), _oracle_rotation_entries(floats))


def _float_rotvec_quat(theta):
    """The one-vector formula on floats with libm's sqrt, sin and cos: what
    the attitude loop computed per sample before the stack form."""
    tx, ty, tz = theta
    angle = math.sqrt(tx * tx + ty * ty + tz * tz)
    if angle < 1e-8:
        return unit((1.0, 0.5 * tx, 0.5 * ty, 0.5 * tz))
    half = 0.5 * angle
    k = math.sin(half) / angle
    return math.cos(half), k * tx, k * ty, k * tz


_BELOW, _AT, _ABOVE = np.nextafter(1e-8, 0.0), 1e-8, np.nextafter(1e-8, 1.0)
_UNDER_PI = np.nextafter(math.pi, 0.0)
# zeros of both signs, subnormals, the small-angle branch's edge and pi's
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, _BELOW, -_AT, _AT, _ABOVE, -_UNDER_PI]


@st.composite
def _rotation_vectors(draw):
    """Mixed-sign components, or one axis at a special or random angle."""
    if draw(st.booleans()):
        part = st.sampled_from(_SPECIAL) | st.floats(-1.8, 1.8)  # |theta| < pi
        return draw(st.tuples(part, part, part))
    row = [0.0, 0.0, 0.0]
    angle = draw(st.sampled_from(_SPECIAL) | st.floats(-_UNDER_PI, _UNDER_PI))
    row[draw(st.integers(0, 2))] = angle
    return tuple(row)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_rotation_vectors(), min_size=1, max_size=64))
@example(rows=[(_BELOW, 0.0, 0.0), (0.0, -_AT, 0.0), (0.0, 0.0, _ABOVE), (0.0, -0.0, 5e-324)])
@example(rows=[(-0.0, -0.0, -0.0), (0.0, 0.0, 0.0), (1e-9, -0.0, -1e-9), (-0.5, -0.0, 0.0)])
def test_rotvec_quat_stack_equals_its_rows_bit_for_bit(rows):
    theta = np.array(rows, dtype=float)
    stacked = rotvec_quat(theta)
    assert stacked.shape == (len(rows), 4)
    alone = [rotvec_quat(row) for row in theta]
    assert all(type(c) is float for q in alone for c in q)
    floats = [_float_rotvec_quat(row) for row in theta.tolist()]
    assert np.array_equal(stacked.view(np.uint64), np.array(alone).view(np.uint64))
    assert np.array_equal(stacked.view(np.uint64), np.array(floats).view(np.uint64))


def test_rotvec_quat_boundary_rows_take_both_branches():
    # just below 1e-8 rad the first-order form, from 1e-8 on the exact one
    (below, at, above) = (rotvec_quat([x, 0.0, 0.0]) for x in (_BELOW, _AT, _ABOVE))
    assert below == unit((1.0, 0.5 * _BELOW, 0.0, 0.0))
    assert at == (math.cos(0.5 * _AT), math.sin(0.5 * _AT) / _AT * _AT, 0.0, 0.0)
    assert above[1] == math.sin(0.5 * _ABOVE) / _ABOVE * _ABOVE


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
def test_normalize_zero_or_non_finite_norm_raises(bad):
    with pytest.raises(DataError, match=f"cannot normalize quaternion of norm {abs(bad)}"):
        unit([bad, 0.0, 0.0, 0.0])


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
