import numpy as np
import pytest

from spherelab import attack
from spherelab.attack import (
    AttackConfig,
    estimate_mean_distance,
    run_attack,
    worst_case_loss,
)
from spherelab.dataset import SphereConfig, sample_batch
from spherelab.models import QuadraticNet, Quadric, quad_perfect_init, quadric_gram
from spherelab.rng import RngStream

R = 1.3


def spike_net(n: int, alpha1: float = 2.0, alpha_rest: float = 0.7572,
              b: float = -26.514) -> QuadraticNet:
    """Quadratic net with one inflated ellipsoid coefficient, axis-aligned."""
    alphas = np.full(n, alpha_rest)
    alphas[0] = alpha1
    w1 = np.diag(np.sqrt(alphas * (-b)))
    return QuadraticNet(w1, 1.0, b)


def crossing_coordinate(alpha1: float, alpha_rest: float) -> float:
    # Inner-shell boundary: alpha1 z1^2 + alpha_rest (1 - z1^2) = 1.
    return np.sqrt((1.0 - alpha_rest) / (alpha1 - alpha_rest))


def chord_from_e2(c: float) -> float:
    # Great-circle crossing point toward e1 at |x1| = c, seen from e2.
    return float(np.sqrt(c * c + (1.0 - np.sqrt(1.0 - c * c)) ** 2))


def test_attack_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(mode="sideways")
    with pytest.raises(ValueError):
        AttackConfig(steps=0)
    with pytest.raises(ValueError):
        AttackConfig(step_size=-0.1)
    with pytest.raises(ValueError, match="finite"):
        AttackConfig(step_size=float("inf"))
    assert AttackConfig(mode="nearest").eta == 0.001
    assert AttackConfig(mode="worst").eta == 0.01
    for name, value in (("starts", 2.5), ("starts", 100.0), ("steps", True),
                        ("steps", np.float64(3))):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            AttackConfig(**{name: value})
    cfg = AttackConfig(steps=np.int64(3), starts=np.int16(2))
    assert (cfg.steps, cfg.starts) == (3, 2)
    assert type(cfg.steps) is int and type(cfg.starts) is int


def test_perfect_net_attack_fails_from_all_starts():
    net = quad_perfect_init(50, 60)
    cfg = AttackConfig(mode="nearest", steps=300, step_size=0.01, starts=100)
    results = run_attack(net, SphereConfig(n=50), cfg, RngStream(3), shell="both")
    assert all(not r.found for r in results)


def test_spike_net_found_from_axis_saddle_start():
    # e2 is an exact constrained stationary point of the axis-aligned net;
    # the jitter must break it and the crossing lies on the great circle
    # toward e1.
    n = 50
    net = spike_net(n)
    x = np.zeros(n)
    x[1] = 1.0
    cfg = AttackConfig(mode="nearest", steps=1000, step_size=0.01)
    res = attack._pgd_batch(net, x[None], np.array([0]), cfg, RngStream(9))[0]
    assert res.found
    c = crossing_coordinate(2.0, 0.7572)
    assert c == pytest.approx(0.4421, abs=2e-4)
    assert res.distance <= chord_from_e2(c) + 0.02
    assert abs(res.x_adv[0]) >= c - 1e-6


def test_iterate_norms_preserved():
    net = spike_net(20)
    cfg = AttackConfig(mode="worst", steps=200, step_size=0.01, starts=10)
    results = run_attack(net, SphereConfig(n=20), cfg, RngStream(5), shell="both")
    for r in results:
        assert r.norm_drift <= 1e-9
        assert abs(np.linalg.norm(r.x_adv) - np.linalg.norm(r.x_start)) \
            <= 1e-9 * np.linalg.norm(r.x_start)


@pytest.mark.parametrize("mode", ["nearest", "worst"])
def test_zero_gradient_start_is_stationary_not_found(mode):
    # w = 0: the logit is -1 everywhere, so inner starts are correct and
    # the input gradient is exactly zero; no step is ever taken.
    # One step runs in x, the threshold's steps in the eigenbasis.
    m = 12
    net = QuadraticNet(np.eye(m), 0.0, -1.0)
    for steps in (1, attack._EIGENBASIS_STEPS):
        cfg = AttackConfig(mode=mode, steps=steps, starts=6)
        for r in run_attack(net, SphereConfig(n=m), cfg, RngStream(31)):
            assert r.stationary
            assert not r.found
            assert r.steps_used == 0
            assert r.norm_drift == 0.0
            if mode == "nearest":
                assert r.x_adv is None and r.distance is None
            else:
                assert np.array_equal(r.x_adv, r.x_start) and r.distance == 0.0


def test_worst_mode_found_is_the_sign_of_the_kept_iterates_logit():
    net = spike_net(30)
    cfg = AttackConfig(mode="worst", steps=150, step_size=0.01, starts=30)
    results = run_attack(net, SphereConfig(n=30), cfg, RngStream(33), shell="both")
    w, b = float(net.w), float(net.b)
    outcomes = set()
    for r in results:
        label = int(np.linalg.norm(r.x_start) > 1.0 + 1e-9)
        hidden = net.W1 @ r.x_adv
        logit = w * float(hidden @ hidden) + b
        assert r.found == (int(logit > 0.0) != label)
        outcomes.add(r.found)
    assert outcomes == {True, False}


def test_nearest_mode_returns_at_first_error():
    net = spike_net(30)
    cfg = AttackConfig(mode="nearest", steps=1000, step_size=0.01, starts=40)
    results = run_attack(net, SphereConfig(n=30), cfg, RngStream(7))
    found = [r for r in results if r.found]
    assert found
    for r in found:
        # The crossing coordinate certifies the returned point is an error.
        z1 = abs(r.x_adv[0])
        assert z1 >= crossing_coordinate(2.0, 0.7572) - 1e-9
        assert r.steps_used <= cfg.steps


def test_worst_mode_runs_full_budget_and_tracks_max_loss():
    net = spike_net(30)
    cfg = AttackConfig(mode="worst", steps=150, step_size=0.01, starts=8)
    results = run_attack(net, SphereConfig(n=30), cfg, RngStream(11))
    for r in results:
        assert r.x_adv is not None
        # Best-loss iterate is at least as lossy as the start.
        start_logit = float(net.logits(r.x_start[None])[0])
        y = 0.0 if abs(np.linalg.norm(r.x_start) - 1.0) < 1e-6 else 1.0
        from spherelab.models import sigmoid_ce_loss
        assert r.final_loss >= sigmoid_ce_loss(start_logit, y) - 1e-12


def test_smaller_steps_never_increase_distance_by_more_than_one_step():
    n = 40
    net = spike_net(n)
    sphere = SphereConfig(n=n)
    coarse = estimate_mean_distance(
        net, sphere, AttackConfig(mode="nearest", steps=2000, step_size=0.01, starts=20),
        RngStream(13))
    fine = estimate_mean_distance(
        net, sphere, AttackConfig(mode="nearest", steps=20000, step_size=0.001, starts=20),
        RngStream(13))
    assert coarse.successes == fine.successes == 20
    assert fine.dmean <= coarse.dmean + 0.01


def test_inflating_an_alpha_grows_the_error_set_and_shrinks_dmean():
    n = 40
    sphere = SphereConfig(n=n)
    cfg = AttackConfig(mode="nearest", steps=3000, step_size=0.01, starts=20)
    d_small = estimate_mean_distance(spike_net(n, alpha1=1.5), sphere, cfg, RngStream(15))
    d_big = estimate_mean_distance(spike_net(n, alpha1=2.5), sphere, cfg, RngStream(15))
    assert d_small.successes and d_big.successes
    assert d_big.dmean <= d_small.dmean + 0.01


@pytest.mark.parametrize("shell", ["inner", "outer", "both"])
def test_run_attack_starts_are_a_hand_built_shell_draw(shell):
    n, starts = 6, 40
    sphere = SphereConfig(n=n)
    cfg = AttackConfig(mode="worst", steps=1, starts=starts)
    results = run_attack(quad_perfect_init(n, n), sphere, cfg, RngStream(8).child(6), shell)
    s = RngStream(8).child(6).child(0)
    outer = s.coins(starts) if shell == "both" else np.full(starts, shell == "outer")
    u = s.normals(starts * n).reshape(starts, n)
    ref = u / np.sqrt((u * u).sum(axis=1))[:, None]
    ref[outer] *= R
    if shell == "both":
        assert 0 < outer.sum() < starts
    assert np.stack([r.x_start for r in results]).tobytes() == ref.tobytes()


def test_estimate_requires_nearest_mode():
    with pytest.raises(ValueError):
        estimate_mean_distance(spike_net(5), SphereConfig(n=5),
                               AttackConfig(mode="worst"), RngStream(1))


def test_estimate_flags_total_failure():
    net = quad_perfect_init(20, 25)
    cfg = AttackConfig(mode="nearest", steps=100, step_size=0.01, starts=10)
    stats = estimate_mean_distance(net, SphereConfig(n=20), cfg, RngStream(17))
    assert stats.all_failed
    assert stats.failures == 10
    assert np.isnan(stats.dmean)


def test_worst_case_loss_not_below_start_loss():
    net = quad_perfect_init(20, 25)
    sphere = SphereConfig(n=20)
    xs, ys = sample_batch(sphere, RngStream(25), 10)
    cfg = AttackConfig(mode="worst", steps=50, step_size=0.01, starts=10)
    wl = worst_case_loss(net, xs, ys, cfg, RngStream(27))
    from spherelab.models import sigmoid_ce_loss
    start_losses = sigmoid_ce_loss(net.logits(xs), ys)
    assert wl >= np.max(start_losses) - 1e-12


def test_worst_case_loss_refuses_a_nearest_mode_config():
    xs, ys = sample_batch(SphereConfig(n=5), RngStream(25), 4)
    with pytest.raises(ValueError, match="worst mode"):
        worst_case_loss(spike_net(5), xs, ys, AttackConfig(mode="nearest", steps=5),
                        RngStream(27))


def test_worst_case_loss_refuses_a_malformed_batch_before_any_job(monkeypatch):
    xs, ys = sample_batch(SphereConfig(n=5), RngStream(25), 4)
    cfg = AttackConfig(mode="worst", steps=5)
    rows = np.arange(4)[:, None]
    jobs = []
    monkeypatch.setattr(attack, "_shard_map", lambda fn, items: jobs.append(items))
    for X0, labels, match in ((xs[:0], ys[:0], "X0 must be a nonempty 2-D batch"),
                              (xs[0], ys[:1], "X0 must be a nonempty 2-D batch"),
                              (xs, ys[:3], "labels must be one per row of X0"),
                              (xs, ys[:, None], "labels must be one per row of X0"),
                              (np.where(rows == 1, 0.0, xs), ys, "X0 row 1 is not a finite"),
                              (np.where(rows == 2, np.nan, xs), ys, "X0 row 2 is not a finite"),
                              (np.where(rows == 0, np.inf, xs), ys, "X0 row 0 is not a finite"),
                              (xs, np.where(rows[:, 0] == 3, 2.0, ys), "labels must each be 0"),
                              (xs, np.where(rows[:, 0] == 0, np.nan, ys), "labels must each be 0"),
                              (xs, ys - 0.5, "labels must each be 0")):
        with pytest.raises(ValueError, match=match):
            worst_case_loss(spike_net(5), X0, labels, cfg, RngStream(27))
    assert jobs == []


# ---------------------------------------------------------------------------
# Blocks of starts on the pool


def result_bytes(r) -> list:
    return [None if v is None else np.asarray(v, dtype=np.float64).tobytes()
            for v in vars(r).values()]


@pytest.mark.parametrize("mode", ["nearest", "worst"])
def test_pooled_blocks_equal_a_serial_in_order_run_byte_for_byte(monkeypatch, mode):
    # 123 starts make three blocks; 50 starts make one block, one pool job too.
    # Each split runs in x (threshold out of reach) and in the eigenbasis.
    net, sphere = spike_net(20), SphereConfig(n=20)
    for starts, split, threshold in ((123, [50, 50, 23], 10**9), (50, [50], 10**9),
                                     (123, [50, 50, 23], 1), (50, [50], 1)):
        monkeypatch.setattr(attack, "_EIGENBASIS_STEPS", threshold)
        cfg = AttackConfig(mode=mode, steps=300, step_size=0.01, starts=starts)
        pooled = run_attack(net, sphere, cfg, RngStream(41), shell="both")
        blocks = []

        def serial_map(fn, jobs):
            parts = [fn(job) for job in jobs]
            blocks.extend(len(part) for part in parts)
            return parts

        with monkeypatch.context() as patch:
            patch.setattr(attack, "_shard_map", serial_map)
            serial = run_attack(net, sphere, cfg, RngStream(41), shell="both")
        assert blocks == split
        assert 0 < sum(r.found for r in pooled) < cfg.starts
        assert len({r.steps_used for r in pooled}) > 2
        assert [result_bytes(r) for r in pooled] == [result_bytes(r) for r in serial]


class ChildLog:
    """Hands out the children of ``stream`` and records the indices asked for."""

    def __init__(self, stream: RngStream) -> None:
        self.stream, self.asked = stream, []

    def child(self, index: int) -> RngStream:
        self.asked.append(index)
        return self.stream.child(index)


def test_saddle_jitter_is_keyed_by_the_row_of_the_whole_batch():
    # Row 60 is row 10 of the second block; e2 is the spike net's saddle.
    n = 20
    xs, labels = sample_batch(SphereConfig(n=n), RngStream(43), 61, "inner")
    xs[60] = np.eye(n)[1]
    cfg = AttackConfig(mode="worst", steps=20, step_size=0.01, starts=61)
    log = ChildLog(RngStream(45))
    worst_case_loss(spike_net(n), xs, labels, cfg, log)
    assert set(log.asked) == {60}


# ---------------------------------------------------------------------------
# Quadratic nets in the quadric's eigenbasis


def uneven_quad(n: int = 12, h: int = 8) -> QuadraticNet:
    """A random quadratic net with h < n: distinct eigenvalues and a null space."""
    return QuadraticNet.init_random(n, h, RngStream(51))


@pytest.mark.parametrize("shell", ["inner", "outer"])
@pytest.mark.parametrize("mode", ["nearest", "worst"])
def test_eigenbasis_pgd_follows_x_space_pgd_from_the_same_starts(monkeypatch, mode, shell):
    net = uneven_quad()
    lam = np.linalg.eigvalsh(net.W1.T @ net.W1)
    assert len(np.unique(np.round(lam, 8))) >= 3 and net.h != net.n
    sphere = SphereConfig(n=net.n)
    cfg = AttackConfig(mode=mode, steps=50, step_size=0.01, starts=40)
    monkeypatch.setattr(attack, "_EIGENBASIS_STEPS", 1)
    in_z = run_attack(net, sphere, cfg, RngStream(53), shell)
    xs, labels = sample_batch(sphere, RngStream(53).child(0), cfg.starts, shell)
    in_x = attack._pgd_batch(net, xs, labels, cfg, RngStream(53).child(1))
    # No start of these draws ties: the two paths take the same steps.
    assert [r.found for r in in_z] == [r.found for r in in_x]
    assert 0 < sum(r.found for r in in_x) < cfg.starts
    assert [r.steps_used for r in in_z] == [r.steps_used for r in in_x]
    for z, x in zip(in_z, in_x):
        assert z.x_start.tobytes() == x.x_start.tobytes()
        assert (z.x_adv is None) == (x.x_adv is None)
        if x.x_adv is not None:
            assert abs(z.distance - x.distance) <= 1e-12 * x.distance
            np.testing.assert_allclose(z.x_adv, x.x_adv, rtol=0, atol=1e-12)


def test_run_attack_picks_its_path_by_budget(monkeypatch):
    # The steps pick the path, whatever the number of starts.
    net, sphere = uneven_quad(), SphereConfig(n=12)
    threshold = attack._EIGENBASIS_STEPS
    eighs = []
    eigh = np.linalg.eigh

    def counted(a):
        eighs.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)

    def ran(cfg) -> list:
        return list(map(result_bytes, run_attack(net, sphere, cfg, RngStream(55))))

    def in_x(cfg) -> list:
        xs, labels = sample_batch(sphere, RngStream(55).child(0), cfg.starts, "inner")
        return list(map(result_bytes, attack._pgd_batch(net, xs, labels, cfg,
                                                        RngStream(55).child(1))))

    def worst(steps, starts):
        return AttackConfig(mode="worst", steps=steps, step_size=0.01, starts=starts)

    for cfg in (worst(threshold - 1, 1), worst(10, 100), worst(1, threshold)):
        assert ran(cfg) == in_x(cfg)
    with monkeypatch.context() as patch:
        patch.setattr(attack, "quadric_gram", lambda _net: None)  # a Gram matrix not finite
        assert ran(worst(threshold, 1)) == in_x(worst(threshold, 1))
    assert eighs == []

    def never(*_args):
        raise AssertionError("the net's own pass ran on the eigenbasis path")

    monkeypatch.setattr(net, "logits", never)
    monkeypatch.setattr(net, "input_grad", never)
    for starts in (1, 100):
        for mode in ("nearest", "worst"):
            cfg = AttackConfig(mode=mode, steps=threshold, step_size=0.01, starts=starts)
            eighs.clear()
            run_attack(net, sphere, cfg, RngStream(55))
            assert eighs == [(12, 12)]


def test_spike_net_saddle_start_escapes_on_the_eigenbasis_path(monkeypatch):
    n = 50
    e2 = np.eye(n)[1:2]
    monkeypatch.setattr(attack, "sample_batch", lambda *_args: (e2.copy(), np.zeros(1)))
    cfg = AttackConfig(mode="nearest", steps=1000, step_size=0.01, starts=1)
    assert cfg.steps >= attack._EIGENBASIS_STEPS
    net = spike_net(n)
    # e2 is an axis of the quadric's eigenbasis too, so the jitter breaks it in z.
    assert np.count_nonzero(e2 @ Quadric(net, quadric_gram(net)).V) == 1
    res = run_attack(net, SphereConfig(n=n), cfg, RngStream(9))[0]
    assert res.found and res.x_start.tobytes() == e2[0].tobytes()
    c = crossing_coordinate(2.0, 0.7572)
    assert res.distance <= chord_from_e2(c) + 0.02
    assert abs(res.x_adv[0]) >= c - 1e-6
    assert res.distance == float(np.linalg.norm(res.x_adv - e2[0]))
