import numpy as np
import pytest
from numpy.testing import assert_allclose

from fusenav.core import DataError, NumericalError
from fusenav.sonar_ekf import (
    SonarFusionConfig,
    SonarFusionState,
    fused_distance,
    init,
    predict,
    run_fusion,
    update,
)


def kalman_oracle(z_seq, r, q, p0_scale=1.0):
    """Textbook linear KF with identity transition/observation, explicit inv."""
    x = np.array(z_seq[0], dtype=float)
    p = np.eye(2) * p0_scale
    xs, ps = [x.copy()], [p.copy()]
    for z in z_seq[1:]:
        p = p + q
        k = p @ np.linalg.inv(p + r)
        x = x + k @ (np.asarray(z, dtype=float) - x)
        p = (np.eye(2) - k) @ p
        xs.append(x.copy())
        ps.append(p.copy())
    return xs, ps


def test_init_state_and_covariance():
    cfg = SonarFusionConfig()
    s = init([2.0, 2.0], cfg)
    assert_allclose(s.x, [2.0, 2.0])
    # initial prediction-estimate covariance is the unit matrix
    assert_allclose(s.p, np.eye(2))
    s2 = init([0.5, 0.6], cfg)
    assert_allclose(s2.x, [0.5, 0.6])


def test_init_rejects_non_positive():
    with pytest.raises(DataError):
        init([-1.0, 2.0], SonarFusionConfig())
    with pytest.raises(DataError):
        init([0.0, 2.0], SonarFusionConfig())


def test_predict_adds_q():
    cfg = SonarFusionConfig()
    s = init([2.0, 2.0], cfg)
    s1 = predict(s, cfg)
    assert_allclose(s1.p, np.diag([1.001, 1.0]))
    assert_allclose(s1.x, s.x)
    # q = 0 leaves p unchanged; two predicts add 2q
    cfg0 = SonarFusionConfig(q=np.zeros((2, 2)))
    assert_allclose(predict(s, cfg0).p, s.p)
    s2 = predict(predict(s, cfg), cfg)
    assert_allclose(s2.p, np.diag([1.002, 1.0]))


def test_single_update_posterior_variance():
    # scalar Kalman: p*r/(p+r) with p=1, r=0.09
    cfg = SonarFusionConfig()
    s = update(init([2.0, 2.0], cfg), [2.1, 1.9], cfg)
    expected = 0.09 / 1.09
    assert_allclose(np.diag(s.p), [expected, expected], atol=1e-9)


def test_zero_innovation_keeps_state_contracts_p():
    cfg = SonarFusionConfig()
    s = init([2.0, 2.2], cfg)
    s1 = update(s, [2.0, 2.2], cfg)
    assert_allclose(s1.x, s.x, atol=1e-15)
    assert np.trace(s1.p) < np.trace(s.p)


def test_repeated_constant_measurement_converges_to_mean():
    cfg = SonarFusionConfig()
    s = init([2.0, 2.2], cfg)
    for _ in range(1000):
        s = update(predict(s, cfg), [2.0, 2.2], cfg)
    assert abs(fused_distance(s) - 2.1) < 0.01


def test_fused_distance_is_mean():
    s = SonarFusionState(x=np.array([2.0, 2.2]), p=np.eye(2))
    assert fused_distance(s) == pytest.approx(2.1)
    s2 = SonarFusionState(x=np.array([2.0, 2.0]), p=np.eye(2))
    assert fused_distance(s2) == pytest.approx(2.0)
    # linearity: scaling both components scales the output
    s3 = SonarFusionState(x=3.0 * s.x, p=np.eye(2))
    assert fused_distance(s3) == pytest.approx(3.0 * fused_distance(s))


def test_singular_innovation_covariance_is_numerical_error():
    # P0 = 0 and R = 0 leave S = Q = diag(0.001, 0) at the first update
    cfg = SonarFusionConfig(r=np.zeros((2, 2)), initial_p_scale=0.0)
    s = predict(init([2.0, 2.0], cfg), cfg)
    with pytest.raises(NumericalError, match="singular"):
        update(s, [2.0, 2.0], cfg)


def test_trace_never_increases_on_update():
    cfg = SonarFusionConfig()
    rng = np.random.default_rng(2)
    s = init([2.0, 2.0], cfg)
    for _ in range(500):
        s = predict(s, cfg)
        before = np.trace(s.p)
        s = update(s, 2.0 + rng.normal(0, 0.3, 2), cfg)
        assert np.trace(s.p) <= before + 1e-15
        assert_allclose(s.p, s.p.T, atol=1e-15)
        assert np.min(np.linalg.eigvalsh(s.p)) >= -1e-12


def test_matches_generic_kalman_oracle():
    cfg = SonarFusionConfig()
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = rng.integers(5, 40)
        z_seq = 2.0 + rng.normal(0, 0.3, size=(n, 2))
        z_seq = np.abs(z_seq) + 0.01
        xs, ps = kalman_oracle(z_seq, cfg.r, cfg.q)
        s = init(z_seq[0], cfg)
        for k in range(1, n):
            s = update(predict(s, cfg), z_seq[k], cfg)
            assert_allclose(s.x, xs[k], atol=1e-12)
            assert_allclose(s.p, ps[k], atol=1e-12)


def test_fused_variance_below_each_raw_sensor():
    # two sensors, sigma=0.3, fixed 2.0 m target: the fusion output must be
    # steadier than either raw stream
    cfg = SonarFusionConfig()
    rng = np.random.default_rng(5)
    z = 2.0 + rng.normal(0, 0.3, size=(10_000, 2))
    fused = []
    s = init(z[0], cfg)
    for k in range(1, len(z)):
        s = update(predict(s, cfg), z[k], cfg)
        fused.append(fused_distance(s))
    assert np.var(fused) < np.var(z[:, 0])
    assert np.var(fused) < np.var(z[:, 1])


def test_bracketing_measurements_bound_posterior():
    # Holds whenever the two gains are equal (symmetric process noise):
    # the posterior mean is then a convex combination of the prior mean and
    # the measurement mean.  The asymmetric default q = diag(0.001, 0)
    # de-balances the gains and admits ~1e-3 m excursions past the bracket,
    # so the sandwich property is checked under the symmetric config.
    cfg = SonarFusionConfig(q=np.diag([0.001, 0.001]))
    rng = np.random.default_rng(21)
    for _ in range(100):
        s = init(np.abs(2.0 + rng.normal(0, 0.3, 2)) + 0.01, cfg)
        for _ in range(200):
            s = predict(s, cfg)
            z = np.abs(2.0 + rng.normal(0, 0.3, 2)) + 0.01
            prior_fused = fused_distance(s)
            s = update(s, z, cfg)
            if min(z) <= prior_fused <= max(z):
                assert min(z) - 1e-12 <= fused_distance(s) <= max(z) + 1e-12


def test_missing_echo_masks_row():
    cfg = SonarFusionConfig()
    s = init([2.0, 2.0], cfg)
    s1 = update(s, [1.5, -1.0], cfg, valid=(True, False))
    # masked row untouched: component 1 keeps its prior state and variance
    assert s1.x[1] == pytest.approx(2.0)
    assert s1.p[1, 1] == pytest.approx(1.0)
    assert s1.x[0] != pytest.approx(2.0)
    # both masked: state passes through
    s2 = update(s, [9.0, 9.0], cfg, valid=(False, False))
    assert_allclose(s2.x, s.x)
    assert_allclose(s2.p, s.p)


def test_nonlinear_hooks_are_used():
    # a contrived shrinking transition: x -> 0.5x with Jacobian 0.5*I
    cfg = SonarFusionConfig(
        transition=lambda x: 0.5 * x,
        transition_jacobian=lambda x: 0.5 * np.eye(2),
    )
    s = init([2.0, 2.0], cfg)
    s1 = predict(s, cfg)
    assert_allclose(s1.x, [1.0, 1.0])
    assert_allclose(s1.p, 0.25 * np.eye(2) + cfg.q)


def test_run_fusion_waits_for_first_full_pair():
    cfg = SonarFusionConfig()
    stream = [
        (np.array([2.0, 2.0]), (True, False)),
        (np.array([2.0, 2.1]), (True, True)),
        (np.array([2.1, 2.0]), (True, True)),
    ]
    states = list(run_fusion(stream, cfg))
    assert states[0] is None
    assert_allclose(states[1].x, [2.0, 2.1])
    assert states[2] is not None
