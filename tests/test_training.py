import json
import math
import sys
import threading

import numpy as np
import pytest

from spherelab import training
from spherelab.dataset import SphereConfig, make_training_set
from spherelab.models import MlpNet, QuadraticNet, quad_perfect_init
from spherelab.rng import RngStream
from spherelab.training import (
    AdamState,
    MetricsWriter,
    ProbeConfig,
    TrainConfig,
    adam_step,
    evaluate_error_rate,
    train,
)


def small_quad(seed=0, n=10, h=12):
    return QuadraticNet.init_random(n, h, RngStream(seed).child(3))


# ---------------------------------------------------------------------------
# adam_step


def test_adam_zero_gradient_leaves_params_unchanged():
    params = {"p": np.arange(6.0).reshape(2, 3)}
    before = params["p"].copy()
    state = AdamState.for_params(params)
    adam_step(params, {"p": np.zeros((2, 3))}, state)
    assert (params["p"] == before).all()
    assert state.t == 1


def test_adam_constant_gradient_step_size_approaches_lr():
    params = {"p": np.array(0.0)}
    state = AdamState.for_params(params, lr=1e-3)
    g = {"p": np.array(3.7)}
    prev = float(params["p"])
    for _ in range(200):
        adam_step(params, g, state)
        step = prev - float(params["p"])
        prev = float(params["p"])
    assert step == pytest.approx(1e-3, rel=0.05)


def test_adam_quadratic_bowl_descends_monotonically_after_warmup():
    lr, beta1, beta2, eps, warmup = 0.01, 0.9, 0.999, 1e-8, 50
    params = {"theta": np.array(1.0)}
    state = AdamState.for_params(params, lr=lr)
    # Reference: Kingma & Ba (2015), Algorithm 1, in plain Python floats.
    ref, m, v = 1.0, 0.0, 0.0
    history = [1.0]  # history[t] is theta after step t
    for t in range(1, 601):
        g = 2.0 * ref
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        ref -= lr * (m / (1.0 - beta1 ** t)) / (math.sqrt(v / (1.0 - beta2 ** t)) + eps)
        adam_step(params, {"theta": np.array(2.0 * float(params["theta"]))}, state)
        history.append(float(params["theta"]))
        assert abs(history[t] - ref) <= 1e-15, f"step {t}: {history[t]!r} != {ref!r}"

    # Momentum carries theta past the minimum (first sign change at step 353), so |theta|
    # falls strictly only until then; later swings peak at 2.0e-6, 1.4e-8, 2.2e-10.
    flips = [t for t in range(1, 601) if (history[t] < 0) != (history[t - 1] < 0)]
    assert all(abs(history[t]) < abs(history[t - 1]) for t in range(warmup + 1, flips[0]))

    step_bound = lr * (1.0 - beta1) / math.sqrt(1.0 - beta2)
    assert all(abs(history[t] - history[t - 1]) <= step_bound for t in range(1, 601))

    peaks = [max(abs(x) for x in history[a:b]) for a, b in zip(flips, flips[1:] + [601])]
    assert all(b < a for a, b in zip(peaks, peaks[1:]))
    assert all(p < abs(history[warmup]) for p in peaks)
    assert abs(history[-1]) < 0.2


def test_adam_shape_mismatch():
    params = {"p": np.zeros(3)}
    state = AdamState.for_params(params)
    with pytest.raises(ValueError):
        adam_step(params, {"p": np.zeros(4)}, state)


# ---------------------------------------------------------------------------
# train loop


def test_zero_step_run_returns_model_unchanged():
    net = small_quad()
    w1 = net.W1.copy()
    cfg = TrainConfig(steps=0, seed=1)
    result = train(net, cfg, SphereConfig(n=10, seed=1))
    assert (result.model.W1 == w1).all()
    assert result.completed_steps == 0
    assert result.metrics[0].step == 0


def test_training_is_bit_deterministic():
    sphere = SphereConfig(n=10, seed=2)
    runs = []
    for _ in range(2):
        net = small_quad(seed=2)
        cfg = TrainConfig(steps=50, batch_size=8, seed=2, metric_every=25)
        train(net, cfg, sphere)
        runs.append({k: v.copy() for k, v in net.params().items()})
    for k in runs[0]:
        assert (runs[0][k] == runs[1][k]).all(), k


def test_metric_records_step_keyed_and_monotone():
    net = small_quad(seed=3)
    cfg = TrainConfig(steps=10, batch_size=4, seed=3, metric_every=3)
    result = train(net, cfg, SphereConfig(n=10, seed=3))
    steps = [m.step for m in result.metrics]
    assert steps == sorted(steps)
    assert steps[0] == 0 and steps[-1] == 10
    for m in result.metrics:
        assert np.isfinite(m.eval_loss)


def test_fixed_mode_draws_with_replacement_from_the_stored_set():
    sphere = SphereConfig(n=6, seed=4)
    ds = make_training_set(sphere, 32)
    net = small_quad(seed=4, n=6, h=8)
    cfg = TrainConfig(steps=20, batch_size=8, seed=4, dataset=ds, metric_every=10)
    result = train(net, cfg, sphere)
    assert result.completed_steps == 20


def test_fixed_dataset_dimension_checked():
    ds = make_training_set(SphereConfig(n=6, seed=4), 16)
    net = small_quad(seed=4)
    with pytest.raises(ValueError):
        train(net, TrainConfig(steps=5, dataset=ds, seed=4), SphereConfig(n=10, seed=4))


def test_fixed_large_n_matches_online_statistically():
    # With a fixed set much larger than the draws, loss windows from fixed
    # and online training are indistinguishable (overlapping 3-sigma bands).
    sphere = SphereConfig(n=16, seed=5)
    windows = {}
    for name, ds in (("online", None), ("fixed", make_training_set(sphere, 200_000))):
        net = QuadraticNet.init_random(16, 20, RngStream(5).child(3))
        cfg = TrainConfig(steps=600, batch_size=50, seed=5, dataset=ds,
                          metric_every=100)
        result = train(net, cfg, sphere)
        windows[name] = np.array([m.train_loss for m in result.metrics[1:]])
    a, b = windows["online"], windows["fixed"]
    sem = 3.0 * (np.abs(a).mean() + np.abs(b).mean()) / 2 / np.sqrt(100 * 50)
    assert np.abs(a - b).max() <= max(3 * sem, 0.02)


def test_abort_on_nonfinite_loss_restores_snapshot():
    net = small_quad(seed=6)
    net.W1 *= 1e200  # first forward overflows
    w1 = net.W1.copy()
    cfg = TrainConfig(steps=10, batch_size=4, seed=6)
    result = train(net, cfg, SphereConfig(n=10, seed=6))
    assert result.aborted
    assert "step 1" in result.abort_reason
    assert (net.W1 == w1).all()


def test_alpha_cadence_and_early_stop():
    net = quad_perfect_init(10, 12)
    cfg = TrainConfig(steps=100, batch_size=4, seed=7, alpha_every=1,
                      stop_on_perfect=True, metric_every=50)
    result = train(net, cfg, SphereConfig(n=10, seed=7))
    assert result.first_perfect_step == 1
    assert result.completed_steps == 1
    assert result.metrics[-1].alpha_violations == 0


def test_stop_on_perfect_requires_alpha_cadence():
    with pytest.raises(ValueError):
        TrainConfig(steps=10, stop_on_perfect=True)


def test_probe_cadence_and_worst_loss_metric():
    net = small_quad(seed=8)
    cfg = TrainConfig(steps=20, batch_size=4, seed=8, metric_every=10,
                      probe=ProbeConfig(every=10, starts=4, steps=20, step_size=0.01))
    result = train(net, cfg, SphereConfig(n=10, seed=8))
    probed = [m for m in result.metrics if m.worst_loss is not None]
    assert probed[0].step == 0
    assert {m.step for m in probed} >= {0, 10, 20}
    for m in probed:
        assert m.worst_loss > 0


def test_metrics_file_schema_and_records(tmp_path):
    path = tmp_path / "metrics.jsonl"
    net = small_quad(seed=9)
    cfg = TrainConfig(steps=6, batch_size=4, seed=9, metric_every=3,
                      metrics_path=str(path))
    train(net, cfg, SphereConfig(n=10, seed=9))
    lines = path.read_text().strip().splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == "spherelab-metrics/1"
    records = [json.loads(line) for line in lines[1:]]
    assert [r["step"] for r in records] == [0, 3, 6]


@pytest.fixture
def opened_writers(monkeypatch):
    """Every MetricsWriter that train() opens during the test."""
    opened = []

    class Recording(MetricsWriter):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    monkeypatch.setattr(training, "MetricsWriter", Recording)
    return opened


def test_dataset_mismatch_opens_no_metrics_file(tmp_path, opened_writers):
    path = tmp_path / "metrics.jsonl"
    ds = make_training_set(SphereConfig(n=6, seed=4), 16)
    cfg = TrainConfig(steps=5, dataset=ds, seed=4, metrics_path=str(path))
    with pytest.raises(ValueError, match="dimension"):
        train(small_quad(seed=4), cfg, SphereConfig(n=10, seed=4))
    assert opened_writers == []
    assert not path.exists()


def test_metrics_file_closed_when_a_step_raises(tmp_path, opened_writers):
    path = tmp_path / "metrics.jsonl"
    net = small_quad(seed=9)
    calls = []

    def failing_backward(cache, ys):
        calls.append(1)
        if len(calls) == 3:
            raise FloatingPointError("injected")
        return QuadraticNet.backward(net, cache, ys)

    net.backward = failing_backward
    cfg = TrainConfig(steps=6, batch_size=4, seed=9, metric_every=2,
                      metrics_path=str(path))
    with pytest.raises(FloatingPointError, match="injected"):
        train(net, cfg, SphereConfig(n=10, seed=9))
    assert len(opened_writers) == 1 and opened_writers[0]._f.closed
    records = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    assert [r["step"] for r in records] == [0, 2]


def test_mlp_trains_and_batch_size_validated():
    sphere = SphereConfig(n=6, seed=10)
    net = MlpNet.init_random(6, (8,), RngStream(10).child(3))
    with pytest.raises(ValueError):
        train(net, TrainConfig(steps=5, batch_size=1, seed=10), sphere)
    result = train(net, TrainConfig(steps=30, batch_size=8, seed=10,
                                    metric_every=15), sphere)
    assert result.completed_steps == 30
    assert np.isfinite(result.metrics[-1].eval_loss)


def test_model_dim_checked():
    net = small_quad(seed=11)
    with pytest.raises(ValueError):
        train(net, TrainConfig(steps=1, seed=11), SphereConfig(n=11, seed=11))


# ---------------------------------------------------------------------------
# evaluate_error_rate


def test_perfect_net_one_million_samples_rule_of_three():
    net = quad_perfect_init(50, 60)
    est = evaluate_error_rate(net, SphereConfig(n=50), 10**6, RngStream(12))
    assert est.errors == 0
    assert est.rate == 0.0
    assert est.upper95 == pytest.approx(3e-6)


def test_single_sample_rate_in_zero_one():
    net = small_quad(seed=13)
    est = evaluate_error_rate(net, SphereConfig(n=10), 1, RngStream(13))
    assert est.rate in (0.0, 1.0)


def test_error_rate_counts_split_by_sphere():
    # A net that always answers "outer" errs on every inner sample only.
    net = QuadraticNet(np.zeros((2, 4)), 1.0, 5.0)
    est = evaluate_error_rate(net, SphereConfig(n=4), 1000, RngStream(14))
    assert est.errors_inner == 500
    assert est.errors_outer == 0
    assert est.rate == 0.5


def test_error_rate_chunking_invariance():
    # Counts reduce identically regardless of chunk size because chunks
    # are keyed substreams.
    import spherelab.training as tr
    net = small_quad(seed=15)
    sphere = SphereConfig(n=10)
    a = evaluate_error_rate(net, sphere, 10_000, RngStream(15))
    original = tr._EVAL_CHUNK
    tr._EVAL_CHUNK = 1024
    try:
        b = evaluate_error_rate(net, sphere, 10_000, RngStream(15))
    finally:
        tr._EVAL_CHUNK = original
    assert (a.errors_inner, a.errors_outer) != (None, None)
    assert a.rate == pytest.approx(b.rate, abs=0.02)


def test_error_rate_counts_equal_a_serial_loop_over_the_child_layout():
    # 3 inner and 3 outer chunks of 4096, the last ones partial, and an odd
    # total: the outer shell gets the extra sample.
    samples = 2 * (2 * 4096 + 1000) + 1
    net = small_quad(seed=17)
    unit = RngStream(1).normal_matrix(999, 10)
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    net.b = np.array(-1.3 * float(np.median(net.logits(unit) - net.b)))  # errs on both shells
    sphere = SphereConfig(n=10)
    stream = RngStream(17).child(5)
    expected = []
    for shell, total, radius in ((0, samples // 2, 1.0), (1, samples - samples // 2, sphere.R)):
        errors = 0
        for chunk, start in enumerate(range(0, total, 4096)):
            count = min(4096, total - start)
            z = stream.child(2 * chunk + shell).normals(count * sphere.n)
            z = z.reshape(count, sphere.n)
            z = radius * (z / np.sqrt((z * z).sum(axis=1))[:, None])
            logits = net.logits(z)
            errors += int((logits <= 0.0).sum() if shell else (logits > 0.0).sum())
        expected.append(errors)
    est = evaluate_error_rate(net, sphere, samples, stream)
    assert 0 < expected[0] < samples // 2 and 0 < expected[1] < samples // 2
    assert (est.errors_inner, est.errors_outer) == tuple(expected)
    assert est.samples == samples


def test_concurrent_error_rate_calls_share_the_pool_and_agree():
    # More caller threads than cores feed one pool; a short switch interval
    # makes their jobs interleave.
    net = small_quad(seed=18)
    sphere = SphereConfig(n=10)
    expected = evaluate_error_rate(net, sphere, 20_001, RngStream(18))
    results = [None] * 6

    def run(k):
        results[k] = evaluate_error_rate(net, sphere, 20_001, RngStream(18))

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert expected.errors > 0
    assert results == [expected] * len(results)


def test_broken_net_rate_consistent_with_clt_estimate():
    # One inflated coefficient at n=500: the CLT estimate is astronomically
    # small, and indeed a million samples see no errors.
    from spherelab.geometry import clt_error_rate
    from spherelab.models import alpha_spectrum
    alphas = np.full(500, 0.7572)
    alphas[0] = 2.0
    w1 = np.diag(np.sqrt(alphas * 26.514))
    net = QuadraticNet(w1, 1.0, -26.514)
    est = evaluate_error_rate(net, SphereConfig(n=500), 10**6, RngStream(16))
    spec = alpha_spectrum(net, 1.3)
    clt_inner = clt_error_rate(spec, "inner")
    band = 3 * np.sqrt(max(clt_inner, 1e-30) / 10**6) + 1e-6
    assert abs(est.rate - clt_inner) <= band
