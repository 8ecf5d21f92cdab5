import importlib.resources
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fusenav import cli, sim, sonar_ekf
from fusenav.core import CHANNELS, SonarChannel, SonarLog, StreamError
from fusenav.sonar_ekf import (
    P0,
    Q,
    R,
    SonarFusionState,
    fuse_front_pair,
    fused_distance,
    init,
    predict,
    update,
)
from test_perception import sonar_log

WALK110 = importlib.resources.files("fusenav") / "scenarios" / "walk110.cfg"
CITY = Path(__file__).resolve().parents[1] / "perfbench" / "city.cfg"


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


def matrix_update(x, p, z, r, valid):
    """The 2-state matrix EKF update the scalar filters replaced (identity
    models): invalid rows masked out with ``np.ix_``, gain by LAPACK solve."""
    rows = [i for i in range(2) if valid[i]]
    if not rows:
        return x, p
    h = np.eye(2)[rows]
    sc = h @ p @ h.T + r[np.ix_(rows, rows)]
    k = np.linalg.solve(sc.T, (p @ h.T).T).T
    x = x + k @ (np.asarray(z, dtype=float)[rows] - x[rows])
    p = (np.eye(2) - k @ h) @ p
    return x, 0.5 * (p + p.T)


def run_fusion(pairs):
    """One state per ``(z, valid)`` pair, as ``fuse_front_pair`` steps them:
    None until the first fully valid pair initializes the filter."""
    state, out = None, []
    for z, valid in pairs:
        if state is not None:
            state = update(predict(state), z, valid=valid)
        elif valid[0] and valid[1]:
            state = init(z)
        out.append(state)
    return out


def matrix_fusion(pairs):
    """(x, P) per pair of the matrix filter, with fuse_front_pair's start rule."""
    r, q = np.diag(R), np.diag(Q)
    out, x, p = [], None, None
    for z, valid in pairs:
        if x is None:
            if valid[0] and valid[1]:
                x, p = np.array(z, dtype=float), P0 * np.eye(2)
        else:
            p = p + q
            x, p = matrix_update(x, 0.5 * (p + p.T), z, r, valid)
        out.append(None if x is None else (x, p))
    return out


def assert_matches_matrix(state, ref):
    x, p = ref
    assert_allclose(state.x, x, rtol=1e-12, atol=0)
    assert_allclose(state.p, np.diag(p), rtol=1e-12, atol=0)
    assert p[0, 1] == 0.0 and p[1, 0] == 0.0


def test_init_state_and_covariance():
    s = init([2.0, 2.0])
    assert_allclose(s.x, [2.0, 2.0])
    # initial prediction-estimate covariance is the unit matrix
    assert_allclose(s.p, (1.0, 1.0))
    s2 = init([0.5, 0.6])
    assert_allclose(s2.x, [0.5, 0.6])


@pytest.mark.parametrize("z", [-1.0, 0.0, float("nan")])
@pytest.mark.parametrize("row", [0, 3])
def test_sonar_log_rejects_an_echo_without_positive_range(z, row):
    # the pair that would initialize the filter, or a later one that would update it
    ranges = np.full(4, 2.0)
    ranges[row] = z
    with pytest.raises(StreamError) as info:
        front_log(ranges.reshape(2, 2), np.ones((2, 2), dtype=bool))
    assert (info.value.stream, info.value.index) == ("sonar", row)
    assert str(info.value) == f"column 'range': an echo needs a positive range, got {z!r}"


def test_masked_range_is_never_read():
    # a row without an echo takes any range, and the filter does not read it
    log = front_log([[2.0, 2.0], [float("nan"), -1.0]], [[True, True], [False, False]])
    assert not log.range_m.flags.writeable and not log.valid.flags.writeable
    assert fuse_front_pair(log).fused.tolist() == [2.0, 2.0]
    s = init([2.0, 2.0])
    assert update(s, [float("nan"), 2.0], valid=(False, True)).x[0] == 2.0


def test_predict_adds_q():
    s = init([2.0, 2.0])
    s1 = predict(s)
    assert_allclose(s1.p, (1.001, 1.0))
    assert_allclose(s1.x, s.x)
    # two predicts add 2q
    s2 = predict(predict(s))
    assert_allclose(s2.p, (1.002, 1.0))


def test_single_update_posterior_variance():
    # scalar Kalman: p*r/(p+r) with p=1, r=0.09
    s = update(init([2.0, 2.0]), [2.1, 1.9])
    expected = 0.09 / 1.09
    assert_allclose(s.p, [expected, expected], atol=1e-9)


def test_zero_innovation_keeps_state_contracts_p():
    s = init([2.0, 2.2])
    s1 = update(s, [2.0, 2.2])
    assert_allclose(s1.x, s.x, atol=1e-15)
    assert sum(s1.p) < sum(s.p)


def test_repeated_constant_measurement_converges_to_mean():
    s = init([2.0, 2.2])
    for _ in range(1000):
        s = update(predict(s), [2.0, 2.2])
    assert abs(fused_distance(s) - 2.1) < 0.01


def test_fused_distance_is_mean():
    s = SonarFusionState(x=(2.0, 2.2), p=(1.0, 1.0))
    assert fused_distance(s) == pytest.approx(2.1)
    s2 = SonarFusionState(x=(2.0, 2.0), p=(1.0, 1.0))
    assert fused_distance(s2) == pytest.approx(2.0)
    # linearity: scaling both components scales the output
    s3 = SonarFusionState(x=(3.0 * s.x[0], 3.0 * s.x[1]), p=(1.0, 1.0))
    assert fused_distance(s3) == pytest.approx(3.0 * fused_distance(s))


def test_trace_never_increases_on_update():
    rng = np.random.default_rng(2)
    s = init([2.0, 2.0])
    for _ in range(500):
        s = predict(s)
        before = sum(s.p)
        s = update(s, 2.0 + rng.normal(0, 0.3, 2))
        assert sum(s.p) <= before + 1e-15
        # P = diag(p): symmetric by construction, its eigenvalues are p
        assert min(s.p) >= -1e-12


def test_matches_generic_kalman_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = rng.integers(5, 40)
        z_seq = 2.0 + rng.normal(0, 0.3, size=(n, 2))
        z_seq = np.abs(z_seq) + 0.01
        xs, ps = kalman_oracle(z_seq, np.diag(R), np.diag(Q))
        s = init(z_seq[0])
        for k in range(1, n):
            s = update(predict(s), z_seq[k])
            assert_allclose(s.x, xs[k], atol=1e-12)
            assert_allclose(s.p, np.diag(ps[k]), atol=1e-12)
            # the full-matrix filter never correlates the two sensors
            assert ps[k][0, 1] == 0.0 and ps[k][1, 0] == 0.0


def test_matches_masked_matrix_update():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        z = np.abs(2.0 + rng.normal(0, 0.3, size=(n, 2))) + 0.01
        valid = (rng.random((n, 2)) < 0.7).tolist()
        pairs = list(zip(z.tolist(), valid))
        for state, ref in zip(run_fusion(pairs), matrix_fusion(pairs), strict=True):
            assert (state is None) == (ref is None)
            if state is not None:
                assert_matches_matrix(state, ref)


def front_log(z, valid, dt=0.05):
    """A SonarLog of front rows alone: one tick per (z1, z2) pair."""
    z, valid = np.asarray(z, dtype=float), np.asarray(valid, dtype=bool)
    t = np.repeat(np.arange(len(z)) * dt, 2)
    channel = np.full(t.shape, CHANNELS.index(SonarChannel.FRONT))
    return SonarLog(t, channel, z.ravel(), valid.ravel())


def scenario_log(path):
    sc = cli.load_scenario(path)
    return sim.synth_sonar(sim.gen_walk(sc), replace(sc, seed=0))


def block_edge_log():
    """Masked ticks on each side of a block edge of fuse_front_pair's loop,
    whose blocks start at the first full pair: that pair is the log's tick
    _BLOCK - 1, and ticks _BLOCK, 2 * _BLOCK - 2 and 2 * _BLOCK - 1 are
    masked."""
    edge = sonar_ekf._BLOCK
    rng = np.random.default_rng(3)
    z = 1.0 + rng.random((2 * edge + 40, 2))
    valid = np.ones(z.shape, dtype=bool)
    valid[: edge - 1, 1] = False
    valid[[edge, 2 * edge - 2, 2 * edge - 1]] = [(True, False), (False, True), (False, False)]
    return front_log(z, valid)


FRONT_LOGS = {
    "walk110": lambda: scenario_log(WALK110),
    "city": lambda: scenario_log(CITY),
    "block_edge": block_edge_log,
    "no_full_pair": lambda: front_log([[2.0, 9.0], [1.5, 2.5]], [[True, False], [False, True]]),
}


@pytest.mark.parametrize("make_log", FRONT_LOGS.values(), ids=FRONT_LOGS.keys())
def test_fuse_front_pair_matches_matrix_filter_on_walk110(make_log):
    log = make_log()
    front = log.channel == CHANNELS.index(SonarChannel.FRONT)
    ticks = log.t[front][::2].tolist()
    pairs = list(zip(log.range_m[front].reshape(-1, 2).tolist(), log.valid[front].reshape(-1, 2).tolist()))
    assert not all(map(all, (v for _, v in pairs)))  # the log has masked ticks
    # the per-tick loop's rows, from the tick that initializes the filter on
    rows = [(tk, *z, fused_distance(s), *s.p) for tk, (z, _), s in zip(ticks, pairs, run_fusion(pairs))
            if s is not None]
    fused = np.array(fuse_front_pair(log))
    want = np.array(rows, dtype=float).reshape(-1, 6).T
    assert fused.shape == want.shape
    assert np.array_equal(fused.view(np.uint64), want.view(np.uint64))
    refs = [ref for ref in matrix_fusion(pairs) if ref is not None]
    assert len(refs) == fused.shape[1]
    for k, (x, p) in enumerate(refs):
        assert_allclose(fused[3:, k], [x.mean(), p[0, 0], p[1, 1]], rtol=1e-12, atol=0)


def test_fuse_front_pair_memory_is_its_columns():
    # 100,000 ticks of front rows; the six float64 result columns are 48 B a tick
    n = 100_000
    rng = np.random.default_rng(7)
    log = front_log(1.0 + rng.random((n, 2)), rng.random((n, 2)) < 0.8, dt=0.01)
    tracemalloc.start()
    try:
        fused = fuse_front_pair(log)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fused.t.shape == (n - int(log.valid.reshape(-1, 2).all(axis=1).argmax()),)
    assert peak <= 64 * n + 2**20, f"{peak / n:.0f} B a tick"


def test_fused_variance_below_each_raw_sensor():
    # two sensors, sigma=0.3, fixed 2.0 m target: the fusion output must be
    # steadier than either raw stream
    rng = np.random.default_rng(5)
    z = 2.0 + rng.normal(0, 0.3, size=(10_000, 2))
    fused = []
    s = init(z[0])
    for k in range(1, len(z)):
        s = update(predict(s), z[k])
        fused.append(fused_distance(s))
    assert np.var(fused) < np.var(z[:, 0])
    assert np.var(fused) < np.var(z[:, 1])


def test_bracketing_measurements_bound_posterior():
    # Holds whenever the two gains are equal: the posterior mean is then a
    # convex combination of the prior mean and the measurement mean.  The
    # asymmetric Q = (0.001, 0) de-balances the gains at every predict and
    # admits ~1e-3 m excursions past the bracket, so the sandwich property
    # is checked over updates alone, which keep the two variances equal.
    rng = np.random.default_rng(21)
    for _ in range(100):
        s = init(np.abs(2.0 + rng.normal(0, 0.3, 2)) + 0.01)
        for _ in range(200):
            z = np.abs(2.0 + rng.normal(0, 0.3, 2)) + 0.01
            prior_fused = fused_distance(s)
            s = update(s, z)
            assert s.p[0] == s.p[1]
            if min(z) <= prior_fused <= max(z):
                assert min(z) - 1e-12 <= fused_distance(s) <= max(z) + 1e-12


def test_missing_echo_masks_row():
    s = init([2.0, 2.0])
    s1 = update(s, [1.5, -1.0], valid=(True, False))
    # masked row untouched: component 1 keeps its prior state and variance
    assert s1.x[1] == pytest.approx(2.0)
    assert s1.p[1] == pytest.approx(1.0)
    assert s1.x[0] != pytest.approx(2.0)
    # both masked: state passes through
    s2 = update(s, [9.0, 9.0], valid=(False, False))
    assert_allclose(s2.x, s.x)
    assert_allclose(s2.p, s.p)


def test_fuse_front_pair_waits_for_first_full_pair():
    f = SonarChannel.FRONT
    log = sonar_log(
        (0.0, f, 2.0, True), (0.0, f, 9.0, False),
        (0.1, f, 2.0, True), (0.1, f, 2.1, True),
        (0.2, f, 2.1, True), (0.2, f, 2.0, True),
    )
    fused = fuse_front_pair(log)
    assert fused.t.tolist() == [0.1, 0.2]
    assert fused.fused[0] == pytest.approx(2.05)
    assert fused.p11[0] == P0


def test_bench_reads_masked_ticks_from_update(monkeypatch):
    # perfbench/layers.py counts sonar_ekf.masked_ticks with _masked, which
    # reads update's ``valid`` from its arguments: fuse_front_pair's calls
    # must carry it where _masked looks, or the bench silently reads 0.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from layers import _masked

    masked = []
    real_update = sonar_ekf.update

    def traced_update(*args, **kwargs):
        result = real_update(*args, **kwargs)
        masked.append(_masked(args, kwargs, result))
        return result

    monkeypatch.setattr(sonar_ekf, "update", traced_update)
    sc = cli.load_scenario(WALK110)
    log = sim.synth_sonar(sim.gen_walk(sc), replace(sc, seed=0))
    fuse_front_pair(log)

    front = log.channel == CHANNELS.index(SonarChannel.FRONT)
    valid = log.valid[front].reshape(-1, 2)
    first = int(np.argmax(valid.all(axis=1)))  # the tick that initializes the filter
    after_init = valid[first + 1 :]
    assert len(masked) == len(after_init)
    assert sum(masked) == int((~after_init.all(axis=1)).sum()) > 0
