import json
import math
import sys
import threading

import numpy as np
import pytest

import spherelab
from spherelab import attack, require_bool, rng, training
from spherelab.attack import AttackConfig, estimate_mean_distance, worst_case_loss
from spherelab.training import _ADAM_BLOCK, _ADAM_JOB
from spherelab.dataset import SphereConfig, sample_batch
from spherelab.models import MlpNet, QuadraticNet, quad_perfect_init, sigmoid_ce_loss
from spherelab.rng import (
    CHILD_DATASET, CHILD_ERROR_MC, CHILD_EVAL, CHILD_MINIBATCH, CHILD_NEAREST_PROBE, CHILD_PROBE,
    RngStream, pool_workers)
from spherelab.training import (
    METRICS_SCHEMA,
    MetricsRecord,
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


def zero_moments(params):
    """Adam's m and v for ``params``, as ``train()`` builds them."""
    return ({k: np.zeros_like(p) for k, p in params.items()},
            {k: np.zeros_like(p) for k, p in params.items()})


def all_bytes(*dicts):
    return [{k: a.tobytes() for k, a in d.items()} for d in dicts]


def test_adam_zero_gradient_leaves_params_unchanged():
    params = {"p": np.arange(6.0).reshape(2, 3)}
    before = params["p"].copy()
    m, v = zero_moments(params)
    adam_step(params, {"p": np.zeros((2, 3))}, m, v, 1, 1e-4)
    assert (params["p"] == before).all()
    assert not m["p"].any() and not v["p"].any()


def test_adam_constant_gradient_step_size_approaches_lr():
    params = {"p": np.array(0.0)}
    m, v = zero_moments(params)
    g = {"p": np.array(3.7)}
    prev = float(params["p"])
    for t in range(1, 201):
        adam_step(params, g, m, v, t, 1e-3)
        step = prev - float(params["p"])
        prev = float(params["p"])
    assert step == pytest.approx(1e-3, rel=0.05)


def test_adam_quadratic_bowl_descends_monotonically_after_warmup():
    lr, beta1, beta2, eps, warmup = 0.01, 0.9, 0.999, 1e-8, 50
    params = {"theta": np.array(1.0)}
    moments = zero_moments(params)
    # Reference: Kingma & Ba (2015), Algorithm 1, in plain Python floats.
    ref, m, v = 1.0, 0.0, 0.0
    history = [1.0]  # history[t] is theta after step t
    for t in range(1, 601):
        g = 2.0 * ref
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        ref -= lr * (m / (1.0 - beta1 ** t)) / (math.sqrt(v / (1.0 - beta2 ** t)) + eps)
        adam_step(params, {"theta": np.array(2.0 * float(params["theta"]))}, *moments, t, lr)
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


def reference_adam(p, m, v, g, t, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam's ufunc sequence over whole arrays, one temporary per operation."""
    m[...] = m * beta1 + g * (1.0 - beta1)
    v[...] = v * beta2 + (g * g) * (1.0 - beta2)
    p[...] = p - (m / (np.sqrt(v / (1.0 - beta2 ** t)) + eps)) * (lr / (1.0 - beta1 ** t))


# Sizes on either side of a block and of a job of blocks, a matrix that
# spans several jobs, and a 0-d scalar.
ADAM_SHAPES = {"below": (_ADAM_BLOCK - 1,), "block": (_ADAM_BLOCK,), "above": (_ADAM_BLOCK + 1,),
               "below_job": (_ADAM_JOB * _ADAM_BLOCK - 1,), "job": (_ADAM_JOB * _ADAM_BLOCK,),
               "above_job": (_ADAM_JOB * _ADAM_BLOCK + 1,), "matrix": (5, 3 * _ADAM_BLOCK + 1),
               "scalar": ()}


def adam_run(shapes, steps=5):
    """``steps`` Adam updates of normal parameters by normal gradients: params, m, v, gradients."""
    stream = RngStream(20180108, 21)
    params = {k: stream.normals(math.prod(s)).reshape(s) for k, s in shapes.items()}
    m, v = zero_moments(params)
    history = []
    for t in range(1, steps + 1):
        grads = {k: stream.normals(math.prod(s)).reshape(s) for k, s in shapes.items()}
        adam_step(params, grads, m, v, t, 1e-3)
        history.append(grads)
    return params, m, v, history


def test_blocked_adam_equals_a_whole_array_reference_byte_for_byte():
    params, m, v, history = adam_run(ADAM_SHAPES)
    stream = RngStream(20180108, 21)
    ref = {k: [stream.normals(math.prod(s)).reshape(s), np.zeros(s), np.zeros(s)]
           for k, s in ADAM_SHAPES.items()}
    for t, grads in enumerate(history, start=1):
        for k, (rp, rm, rv) in ref.items():
            reference_adam(rp, rm, rv, grads[k], t)
    for k, (rp, rm, rv) in ref.items():
        assert params[k].tobytes() == rp.tobytes(), k
        assert m[k].tobytes() == rm.tobytes(), k
        assert v[k].tobytes() == rv.tobytes(), k
    assert sum(-(-math.prod(s) // _ADAM_BLOCK) for s in ADAM_SHAPES.values()) == 34


def test_pooled_adam_equals_a_serial_in_order_map_byte_for_byte(monkeypatch):
    # 34 blocks make 9 jobs, the last of two blocks; one job of blocks is
    # one pool job too. Each is the same split every step.
    one_job = {"job": (_ADAM_JOB * _ADAM_BLOCK,)}
    for shapes, split in ((ADAM_SHAPES, list(range(0, 34, _ADAM_JOB))), (one_job, [0])):
        *pooled, pooled_history = adam_run(shapes, steps=3)
        firsts = []

        def serial_map(fn, jobs):
            firsts.append(list(jobs))
            return [fn(job) for job in jobs]

        with monkeypatch.context() as patch:
            patch.setattr(training, "_shard_map", serial_map)
            *serial, history = adam_run(shapes, steps=3)
        assert firsts == [split] * 3
        assert len(history) == len(pooled_history) == 3
        assert all_bytes(*serial) == all_bytes(*pooled)


def test_adam_holds_one_block_of_scratch_per_running_job(monkeypatch, traced_peak):
    # 34 blocks in 9 jobs, run one at a time: a scratch per job, not per
    # step, is 1 block, where 9 would be 2.25 MiB and whole arrays 8.5 MiB.
    monkeypatch.setattr(training, "_shard_map", lambda fn, jobs: [fn(job) for job in jobs])
    stream = RngStream(3)
    params = {k: stream.normals(math.prod(s)).reshape(s) for k, s in ADAM_SHAPES.items()}
    grads = {k: stream.normals(math.prod(s)).reshape(s) for k, s in ADAM_SHAPES.items()}
    m, v = zero_moments(params)
    assert traced_peak(adam_step, params, grads, m, v, 1, 1e-4) < 1.5 * _ADAM_BLOCK * 8
    # One update ran: from zero moments, m is (1 - beta1) g.
    assert all(np.array_equal(m[k], grads[k] * (1.0 - 0.9)) for k in ADAM_SHAPES)


def updated_once(lr=0.1):
    """Two parameters after one Adam update, with their moments."""
    params = {"a": np.arange(3.0), "b": np.arange(4.0)}
    m, v = zero_moments(params)
    adam_step(params, {"a": np.ones(3), "b": np.ones(4)}, m, v, 1, lr)
    return params, m, v


@pytest.mark.parametrize("bad_grads,match", [
    ({"a": np.ones(3), "b": np.ones(5)}, "'b'"),
    ({"a": np.ones(3)}, "no gradient for parameter 'b'"),
])
def test_adam_rejects_a_bad_gradient_before_updating_anything(bad_grads, match):
    params, m, v = updated_once()
    before = all_bytes(params, m, v)
    with pytest.raises(ValueError, match=match):
        adam_step(params, bad_grads, m, v, 2, 0.1)
    assert all_bytes(params, m, v) == before


@pytest.mark.parametrize("t,lr,match", [
    (0, 0.1, "^t must be >= 1, got 0"), (-1, 0.1, "^t must be >= 1, got -1"),
    (1.5, 0.1, "^t must be an integer, got 1.5"), (True, 0.1, "^t must be an integer, got True"),
    (2, 0, "^lr must be finite and > 0, got 0"), (2, -1e-4, "^lr must be finite and > 0"),
    (2, float("nan"), "^lr must be finite and > 0, got nan"),
    (2, float("inf"), "^lr must be finite and > 0, got inf"),
])
def test_adam_rejects_a_bad_step_or_rate_before_updating_anything(t, lr, match):
    # Unchecked, lr = nan made every parameter NaN, lr < 0 stepped uphill
    # and t = -1 divided by zero.
    params, m, v = updated_once()
    before = all_bytes(params, m, v)
    with pytest.raises(ValueError, match=match):
        adam_step(params, {"a": np.ones(3), "b": np.ones(4)}, m, v, t, lr)
    assert all_bytes(params, m, v) == before


def test_adam_rejects_a_parameter_without_moments():
    params = {"a": np.arange(3.0), "b": np.arange(2.0)}
    m, v = zero_moments({"a": params["a"]})
    with pytest.raises(ValueError, match="no Adam moments for parameter 'b'"):
        adam_step(params, {"a": np.ones(3), "b": np.ones(2)}, m, v, 1, 1e-4)
    assert params["a"].tolist() == [0.0, 1.0, 2.0]
    assert not m["a"].any() and not v["a"].any()


def test_adam_rejects_a_parameter_it_cannot_update_in_place():
    params = {"p": np.zeros((4, 3)).T}
    with pytest.raises(ValueError, match="C-contiguous"):
        adam_step(params, {"p": np.ones((3, 4))}, *zero_moments(params), 1, 1e-4)


def test_adam_shape_mismatch():
    params = {"p": np.zeros(3)}
    m, v = zero_moments(params)
    with pytest.raises(ValueError):
        adam_step(params, {"p": np.zeros(4)}, m, v, 1, 1e-4)


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
    net = small_quad(seed=4, n=6, h=8)
    cfg = TrainConfig(steps=20, batch_size=8, seed=4, train_set_size=32, metric_every=10)
    result = train(net, cfg, sphere)
    assert result.completed_steps == 20


def test_fixed_batches_index_the_set_drawn_from_the_sphere_seed():
    # The run seed (9) differs from the sphere seed (4), which alone defines the set.
    sphere = SphereConfig(n=6, seed=4)
    cfg = TrainConfig(steps=5, batch_size=8, seed=9, train_set_size=32, metric_every=5)
    net = small_quad(seed=4, n=6, h=8)
    seen = []
    forward, backward = net.forward, net.backward

    def recording_forward(xs):
        seen.append([xs.copy()])
        return forward(xs)

    def recording_backward(cache, ys):
        seen[-1].append(ys.copy())
        return backward(cache, ys)

    net.forward, net.backward = recording_forward, recording_backward
    train(net, cfg, sphere)
    xs, labels = sample_batch(sphere, RngStream(sphere.seed).child(CHILD_DATASET), 32)
    minibatch = RngStream(cfg.seed).child(CHILD_MINIBATCH)
    assert len(seen) == 5
    for step, (batch_xs, batch_ys) in enumerate(seen, start=1):
        idx = (minibatch.child(step).uniforms(8) * 32).astype(np.int64)
        assert batch_xs.tobytes() == xs[idx].tobytes()
        assert batch_ys.tobytes() == labels[idx].tobytes()


def test_fixed_large_n_matches_online_statistically():
    # With a fixed set much larger than the draws, loss windows from fixed
    # and online training are indistinguishable (overlapping 3-sigma bands).
    sphere = SphereConfig(n=16, seed=5)
    windows = {}
    for name, size in (("online", 0), ("fixed", 200_000)):
        net = QuadraticNet.init_random(16, 20, RngStream(5).child(3))
        cfg = TrainConfig(steps=600, batch_size=50, seed=5, train_set_size=size,
                          metric_every=100)
        result = train(net, cfg, sphere)
        windows[name] = np.array([m.train_loss for m in result.metrics[1:]])
    a, b = windows["online"], windows["fixed"]
    sem = 3.0 * (np.abs(a).mean() + np.abs(b).mean()) / 2 / np.sqrt(100 * 50)
    assert np.abs(a - b).max() <= max(3 * sem, 0.02)


def test_abort_on_nonfinite_loss_restores_snapshot(tmp_path):
    path = tmp_path / "metrics.jsonl"
    net = small_quad(seed=6)
    net.W1 *= 1e200  # first forward overflows
    w1 = net.W1.copy()
    cfg = TrainConfig(steps=10, batch_size=4, seed=6, metrics_path=path)
    with pytest.warns(RuntimeWarning, match="invalid value"):
        result = train(net, cfg, SphereConfig(n=10, seed=6))
    assert result.aborted
    assert result.abort_reason == "non-finite training loss at step 1"
    assert (net.W1 == w1).all()
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line.get("step") for line in lines[1:]] == [0, 1]
    assert lines[-1] == {"step": 1, "event": "aborted", "reason": result.abort_reason}


def test_abort_with_an_eigenbasis_sized_error_eval_restores_snapshot():
    # The error Monte Carlo of record 0 sees the overflowing Gram matrix and
    # takes the default path; the first step then aborts as above.
    net = small_quad(seed=6)
    net.W1 *= 1e200
    w1 = net.W1.copy()
    cfg = TrainConfig(steps=10, batch_size=4, seed=6, error_eval_samples=8 * 10)
    with pytest.warns(RuntimeWarning, match="invalid value"):
        result = train(net, cfg, SphereConfig(n=10, seed=6))
    assert result.aborted
    assert "step 1" in result.abort_reason
    assert (net.W1 == w1).all()
    assert result.metrics[0].error_rate == 0.5  # every inner point, no outer one


def test_mlp_abort_restores_batch_norm_statistics_with_the_parameters():
    # Step 1 moves every parameter by about lr, so the train-mode forward of
    # step 2 overflows and writes NaN into the running statistics before
    # its loss is seen to be non-finite.
    net = MlpNet.init_random(6, (8, 5), RngStream(11).child(3))
    cfg = TrainConfig(steps=10, batch_size=4, seed=11, lr=1e305)
    # With metric_every at its default, the last snapshot is the step-0 state.
    snapshot = {k: v.copy() for k, v in net.state().items()}
    with pytest.warns(RuntimeWarning) as caught:
        result = train(net, cfg, SphereConfig(n=6, seed=11))
    assert any("overflow" in str(w.message) for w in caught)
    assert result.aborted and result.completed_steps == 1
    assert "step 2" in result.abort_reason
    state = net.state()
    assert state.keys() == snapshot.keys()
    assert all(state[k].tobytes() == snapshot[k].tobytes() for k in state)
    assert np.isfinite(net.logits(RngStream(12).normal_matrix(5, 6))).all()


def test_alpha_cadence_and_early_stop():
    net = quad_perfect_init(10, 12)
    cfg = TrainConfig(steps=100, batch_size=4, seed=7, alpha_every=1,
                      stop_on_perfect=True, metric_every=50)
    result = train(net, cfg, SphereConfig(n=10, seed=7))
    assert result.first_perfect_step == 1
    assert result.completed_steps == 1
    assert result.metrics[-1].alpha_violations == 0


def test_alpha_checks_of_a_net_with_b_at_least_zero_record_none():
    # The spectrum is defined for b < 0 only; b stays near 0.5 over 3 steps.
    net = QuadraticNet(RngStream(7).normal_matrix(12, 10), 1.0, 0.5)
    cfg = TrainConfig(steps=3, batch_size=4, seed=7, alpha_every=1, metric_every=1)
    result = train(net, cfg, SphereConfig(n=10, seed=7))
    assert [m.step for m in result.metrics] == [0, 1, 2, 3]
    assert [m.alpha_violations for m in result.metrics] == [None] * 4
    assert result.first_perfect_step is None and float(net.b) > 0


def test_perfect_init_stops_at_step_one_at_paper_scale():
    net = quad_perfect_init(500, 1000)
    cfg = TrainConfig(steps=50, seed=5, alpha_every=1, stop_on_perfect=True)
    result = train(net, cfg, SphereConfig(n=500, seed=5))
    assert result.first_perfect_step == 1
    assert result.completed_steps == 1
    assert [m.alpha_violations for m in result.metrics] == [0, 0]


def test_alpha_cadence_every_other_step_at_paper_scale():
    net = quad_perfect_init(500, 1000)
    cfg = TrainConfig(steps=4, seed=6, alpha_every=2)
    result = train(net, cfg, SphereConfig(n=500, seed=6))
    assert [(m.step, m.alpha_violations) for m in result.metrics] == [(0, 0), (2, 0), (4, 0)]


def test_alpha_checks_on_an_mlp_are_refused_before_the_metrics_file_opens(
        tmp_path, opened_writers):
    path = tmp_path / "metrics.jsonl"
    net = MlpNet.init_random(6, (8, 5), RngStream(11).child(3))
    before = {k: v.copy() for k, v in net.state().items()}
    cfg = TrainConfig(steps=6, batch_size=4, seed=11, alpha_every=2, stop_on_perfect=True,
                      metrics_path=str(path))
    with pytest.raises(ValueError, match="alpha_every > 0 needs a QuadraticNet"):
        train(net, cfg, SphereConfig(n=6, seed=11))
    assert opened_writers == []
    assert not path.exists()
    assert all(net.state()[k].tobytes() == v.tobytes() for k, v in before.items())


def test_stop_on_perfect_requires_alpha_cadence():
    with pytest.raises(ValueError):
        TrainConfig(steps=10, stop_on_perfect=True)


def test_metric_and_probe_cadences_must_be_positive():
    with pytest.raises(ValueError, match="metric_every"):
        TrainConfig(steps=10, metric_every=0)
    with pytest.raises(ValueError, match="every must be >= 1"):
        ProbeConfig(every=0)


def test_a_negative_run_seed_is_refused_when_the_config_is_built():
    # RngStream refuses it too, but only once train() starts.
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        TrainConfig(steps=1, seed=-1)


@pytest.mark.parametrize("name,value,in_probe", [
    ("eval_batch", 0, False), ("error_eval_samples", -5, False), ("alpha_every", -3, False),
    ("steps", 0, True), ("starts", 0, True),
    ("step_size", -1.0, True), ("step_size", 0.0, True),
    ("lr", 0.0, False), ("lr", -1e-4, False), ("lr", float("nan"), False),
    ("step_size", float("inf"), True), ("lr", float("inf"), False), ("train_set_size", -1, False),
    ("steps", 3.5, False), ("steps", True, False), ("batch_size", 4.5, False),
    ("seed", 1.0, False), ("train_set_size", 40.5, False), ("metric_every", False, False),
    ("eval_batch", np.float64(8), False), ("error_eval_samples", 100.0, False),
    ("alpha_every", True, False), ("every", 2.5, True), ("starts", 4.0, True),
    ("steps", True, True), ("nearest", "no", True), ("nearest", 0, True), ("nearest", None, True),
    ("metrics_path", 1, False), ("metrics_path", True, False), ("metrics_path", 2.5, False),
    ("metrics_path", 0, False), ("metrics_path", "", False), ("metrics_path", b"m.jsonl", False),
    ("probe", {"every": 2}, False), ("probe", 2, False), ("probe", "every", False),
    ("seed", 2**64, False),
])
def test_bad_config_raises_at_construction_and_opens_no_metrics_file(
        name, value, in_probe, tmp_path, opened_writers):
    path = tmp_path / "metrics.jsonl"
    built = []
    with pytest.raises(ValueError, match=name):
        kwargs = {"steps": 5, "batch_size": 4, "metrics_path": str(path)}
        kwargs.update({"probe": ProbeConfig(**{name: value})} if in_probe else {name: value})
        built.append(TrainConfig(**kwargs))
        train(small_quad(), built[0], SphereConfig(n=10))
    assert built == []
    assert opened_writers == []
    assert not path.exists()


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


def test_nearest_probe_dmean_is_the_mean_distance_on_its_keyed_stream():
    sphere = SphereConfig(n=10, seed=8)
    probe = ProbeConfig(every=10, starts=6, steps=20, step_size=0.01, nearest=True)
    cfg = TrainConfig(steps=20, batch_size=4, seed=8, metric_every=10, probe=probe)
    result = train(small_quad(seed=8), cfg, sphere)
    probed = [m for m in result.metrics if m.worst_loss is not None]
    assert [m.step for m in probed] == [0, 10, 20]
    attack_cfg = AttackConfig(mode="nearest", starts=6)
    nearest_stream = RngStream(8).child(CHILD_NEAREST_PROBE)
    for record in probed:
        # The model as it was at the probe: the same run stopped at that step.
        net = small_quad(seed=8)
        train(net, TrainConfig(steps=record.step, batch_size=4, seed=8), sphere)
        stats = estimate_mean_distance(net, sphere, attack_cfg, nearest_stream.child(record.step))
        assert stats.successes > 0
        assert record.attack_dmean == stats.dmean


def test_worst_probe_at_step_k_runs_on_child_one_plus_k_over_the_child_zero_batch(monkeypatch):
    # Probes every 2 steps and at the final step 7, records every 3: a
    # probe's step is neither its index among the probes nor among the records.
    sphere = SphereConfig(n=10, seed=8)
    probe = ProbeConfig(every=2, starts=4, steps=20, step_size=0.01)
    cfg = TrainConfig(steps=7, batch_size=4, seed=8, metric_every=3, probe=probe)
    calls = []

    def spy(model, X0, labels, attack_cfg, stream):
        calls.append((X0, labels, stream.path))
        return worst_case_loss(model, X0, labels, attack_cfg, stream)

    monkeypatch.setattr(attack, "worst_case_loss", spy)
    result = train(small_quad(seed=8), cfg, sphere)
    assert [m.step for m in result.metrics] == [0, 2, 3, 4, 6, 7]
    probed = [m for m in result.metrics if m.worst_loss is not None]
    assert [m.step for m in probed] == [0, 2, 4, 6, 7]
    probe_stream = RngStream(8).child(CHILD_PROBE)
    xs, ys = sample_batch(sphere, probe_stream.child(0), 4)
    attack_cfg = AttackConfig(mode="worst", steps=20, step_size=0.01, starts=4)
    assert len(calls) == len(probed)
    for record, (X0, labels, path) in zip(probed, calls):
        assert path == probe_stream.child(1 + record.step).path
        assert X0.tobytes() == xs.tobytes() and labels.tobytes() == ys.tobytes()
        # The model as it was at the probe: the same run stopped at that step.
        net = small_quad(seed=8)
        train(net, TrainConfig(steps=record.step, batch_size=4, seed=8), sphere)
        assert record.worst_loss == worst_case_loss(net, xs, ys, attack_cfg,
                                                    probe_stream.child(1 + record.step))


def test_a_record_reads_the_draws_of_its_step_whatever_the_record_cadence():
    # Records every 2 and every 3 steps share steps 0, 6 and 12, where the
    # two runs hold records 3 and 2, then 6 and 4: each record's eval batch,
    # error-rate chunks and probes are keyed by its step alone.
    sphere = SphereConfig(n=10, seed=24)
    runs = []
    for every in (2, 3):
        cfg = TrainConfig(steps=12, batch_size=4, seed=24, metric_every=every,
                          error_eval_samples=400, eval_batch=64,
                          probe=ProbeConfig(every=every, starts=4, steps=5, nearest=True))
        runs.append({m.step: m for m in train(small_quad(seed=24), cfg, sphere).metrics})
    assert sorted(runs[0].keys() & runs[1].keys()) == [0, 6, 12]
    for step in (0, 6, 12):
        a, b = (run[step].to_dict() | {"train_loss": None} for run in runs)  # windows differ
        assert a == b
        assert 0 < a["error_rate"] < 1 and "attack_dmean" in a
    # The eval and error-MC draws of step 6 are child 6 of their streams.
    net = small_quad(seed=24)
    train(net, TrainConfig(steps=6, batch_size=4, seed=24), sphere)
    xs, ys = sample_batch(sphere, RngStream(24, CHILD_EVAL, 6), 64)
    assert runs[0][6].eval_loss == float(np.mean(sigmoid_ce_loss(net.logits(xs), ys)))
    assert runs[0][6].error_rate == evaluate_error_rate(
        net, sphere, 400, RngStream(24, CHILD_ERROR_MC, 6)).rate


def test_train_loss_is_the_mean_batch_loss_since_the_previous_record():
    # Records fall at metric_every 6, alpha_every 5, probe every 4 and the
    # final step 13, so their windows are 4, 1, 1, 2, 2, 2 and 1 steps.
    sphere = SphereConfig(n=10, seed=5)
    net = small_quad(seed=5)
    losses = []

    def forward(xs):
        logits, cache = QuadraticNet.forward(net, xs)
        ys = (np.linalg.norm(xs, axis=1) > (1 + sphere.R) / 2).astype(np.uint8)
        losses.append(float(np.mean(sigmoid_ce_loss(logits, ys))))
        return logits, cache

    net.forward = forward
    cfg = TrainConfig(steps=13, batch_size=4, seed=5, metric_every=6, alpha_every=5,
                      probe=ProbeConfig(every=4, starts=2, steps=2))
    result = train(net, cfg, sphere)
    steps = [m.step for m in result.metrics]
    assert steps == [0, 4, 5, 6, 8, 10, 12, 13] and len(losses) == 13
    assert result.metrics[0].train_loss is None
    for previous, record in zip(steps, result.metrics[1:]):
        window = losses[previous:record.step]
        assert record.train_loss == pytest.approx(sum(window) / len(window), rel=1e-12)


def test_nearest_probe_omits_dmean_when_every_start_fails():
    probe = ProbeConfig(every=2, starts=6, steps=10, nearest=True)
    cfg = TrainConfig(steps=4, batch_size=4, seed=3, metric_every=2, alpha_every=2,
                      probe=probe)
    result = train(quad_perfect_init(10, 12), cfg, SphereConfig(n=10, seed=3))
    probed = [m for m in result.metrics if m.worst_loss is not None]
    assert [m.step for m in probed] == [0, 2, 4]
    for m in probed:
        assert m.attack_dmean is None
        assert "attack_dmean" not in m.to_dict()
    assert all(m.alpha_violations == 0 for m in result.metrics)


def test_a_paper_length_run_probed_every_ten_steps_trains():
    # 10^6 steps key draws up to child(1 + 10^6) of the probe stream.
    cfg = TrainConfig(steps=1_000_000, metric_every=1, alpha_every=1, stop_on_perfect=True,
                      probe=ProbeConfig(every=10, starts=2, steps=2))
    result = train(quad_perfect_init(10, 12), cfg, SphereConfig(n=10, seed=1))
    assert result.completed_steps == result.first_perfect_step == 1
    assert [m.step for m in result.metrics] == [0, 1]
    assert all(m.worst_loss is not None for m in result.metrics)


def test_bool_fields_take_a_bool_or_numpy_bool_and_store_a_bool(tmp_path):
    # 'False' once stopped a run at its first perfect step, and 'no' turned
    # nearest probes on.
    with pytest.raises(ValueError, match="^stop_on_perfect must be a bool, got 'False'$"):
        TrainConfig(steps=50, batch_size=4, alpha_every=1, stop_on_perfect="False")
    with pytest.raises(ValueError, match="^nearest must be a bool, got 'no'$"):
        ProbeConfig(nearest="no")
    for bad in (np.float64(1.0), np.int8(0), [True]):
        with pytest.raises(ValueError, match="^flag must be a bool"):
            require_bool("flag", bad)
    assert require_bool("flag", np.True_) is True and require_bool("flag", False) is False
    path = tmp_path / "metrics.jsonl"
    cfg = TrainConfig(steps=1, batch_size=4, alpha_every=1, stop_on_perfect=np.True_,
                      probe=ProbeConfig(every=1, starts=2, steps=2, nearest=np.False_),
                      metrics_path=str(path))
    assert cfg.stop_on_perfect is True and cfg.probe.nearest is False
    train(small_quad(), cfg, SphereConfig(n=10))
    header = json.loads(path.read_text().splitlines()[0])
    assert header["train"]["stop_on_perfect"] is True
    assert header["train"]["probe"]["nearest"] is False


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


def test_metrics_header_records_versions_simd_and_both_configs(tmp_path):
    path = tmp_path / "metrics.jsonl"
    sphere = SphereConfig(n=10, R=1.4, seed=21)
    probe = ProbeConfig(every=2, starts=2, steps=3)
    cfg = TrainConfig(steps=2, batch_size=4, seed=21, metric_every=2, error_eval_samples=10,
                      train_set_size=16, probe=probe, metrics_path=path)
    train(small_quad(seed=21), cfg, sphere)
    header = json.loads(path.read_text().splitlines()[0])
    assert header["schema"] == METRICS_SCHEMA
    assert header["spherelab_version"] == spherelab.__version__
    assert header["numpy_version"] == np.__version__
    numpy_config = np.show_config(mode="dicts")
    assert header["numpy_simd_found"] == numpy_config["SIMD Extensions"]["found"]
    blas = numpy_config["Build Dependencies"]["blas"]
    assert header["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert all(isinstance(v, str) and v for v in header["blas"].values())
    # numpy's wheel bundles OpenBLAS, so its thread count can be asked.
    assert type(header["blas_threads"]) is int and header["blas_threads"] >= 1
    assert header["blas_threads"] == training._blas_threads()
    # The pool that train() used has the worker count the header names.
    assert header["pool_workers"] == pool_workers() == rng._pool._max_workers
    sphere_dict = {"n": 10, "R": 1.4, "seed": 21}
    assert header["sphere"] == sphere_dict
    assert header["train"] == {
        "steps": 2, "batch_size": 4, "lr": 1e-4, "seed": 21,
        "train_set_size": 16, "metric_every": 2, "eval_batch": 1000,
        "error_eval_samples": 10, "alpha_every": 0, "stop_on_perfect": False,
        "probe": {"every": 2, "starts": 2, "steps": 3, "step_size": 0.01, "nearest": False},
        "metrics_path": str(path)}


def test_metrics_header_records_no_blas_threads_when_openblas_cannot_be_asked(
        tmp_path, monkeypatch):
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    path = tmp_path / "metrics.jsonl"
    train(small_quad(), TrainConfig(steps=0, metrics_path=path), SphereConfig(n=10))
    assert json.loads(path.read_text().splitlines()[0])["blas_threads"] is None


def test_numpy_integer_sizes_train_as_ints_and_write_a_json_manifest(tmp_path):
    lines = []
    for i, ints in enumerate((int, np.int64)):
        path = tmp_path / f"metrics{i}.jsonl"
        probe = ProbeConfig(every=ints(2), starts=ints(2), steps=ints(3))
        cfg = TrainConfig(steps=ints(2), batch_size=ints(4), seed=ints(3), train_set_size=ints(16),
                          metric_every=ints(2), eval_batch=ints(8), error_eval_samples=ints(10),
                          alpha_every=ints(2), probe=probe, metrics_path=path)
        train(small_quad(seed=3), cfg, SphereConfig(n=ints(10), seed=ints(3)))
        lines.append(path.read_text().splitlines())
    header, numpy_header = (json.loads(run[0]) for run in lines)
    assert numpy_header["train"].pop("metrics_path") != header["train"].pop("metrics_path")
    assert numpy_header == header
    assert lines[1][1:] == lines[0][1:]


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
    cfg = TrainConfig(steps=5, train_set_size=16, seed=4, metrics_path=str(path))
    with pytest.raises(ValueError, match="dim"):
        train(small_quad(seed=4), cfg, SphereConfig(n=6, seed=4))
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


@pytest.fixture
def minibatch_draws(monkeypatch):
    """Draws made on a run's minibatch streams: ``sample_batch`` calls online, ``uniforms`` fixed.

    ``draws["seed"]`` picks the run. Each draw on a stream
    ``RngStream(seed, CHILD_MINIBATCH, k)`` logs the name of the thread it
    runs on and its key k in ``draws["made"]``; draw number
    ``draws["fail_at"]`` (counted from 1) raises instead.
    """
    draws = {"seed": None, "made": [], "running": 0, "fail_at": None}
    sample, uniforms = training.sample_batch, RngStream.uniforms

    def counted(stream, fn, *args):
        if (draws["running"] or stream.seed != draws["seed"]  # the coins inside a sample_batch
                or len(stream.path) != 2 or stream.path[0] != CHILD_MINIBATCH):
            return fn(*args)
        draws["running"] += 1
        try:
            draws["made"].append((threading.current_thread().name, stream.path[1]))
            if len(draws["made"]) == draws["fail_at"]:
                raise FloatingPointError("injected draw failure")
            return fn(*args)
        finally:
            draws["running"] -= 1

    monkeypatch.setattr(training, "sample_batch",
                        lambda config, stream, *a: counted(stream, sample, config, stream, *a))
    monkeypatch.setattr(RngStream, "uniforms",
                        lambda self, count: counted(self, uniforms, self, count))
    return draws


@pytest.mark.parametrize("fixed", [False, True])
def test_minibatches_are_drawn_on_the_caller_thread_one_per_step(fixed, minibatch_draws):
    # Every batch is drawn on the caller thread, one per step, on the child keyed by its step.
    sphere = SphereConfig(n=10, seed=13)
    minibatch_draws["seed"] = 13
    cfg = TrainConfig(steps=9, batch_size=4, seed=13, train_set_size=64 if fixed else 0,
                      metric_every=4)
    result = train(small_quad(seed=13), cfg, sphere)
    assert result.completed_steps == 9
    assert minibatch_draws["made"] == [(threading.current_thread().name, k) for k in range(1, 10)]


def test_an_early_stop_draws_no_batch_past_its_last_step(minibatch_draws):
    # The run stops after step 1, and only step 1's batch was drawn.
    minibatch_draws["seed"] = 7
    cfg = TrainConfig(steps=100, batch_size=4, seed=7, alpha_every=1,
                      stop_on_perfect=True, metric_every=50)
    result = train(quad_perfect_init(10, 12), cfg, SphereConfig(n=10, seed=7))
    assert result.completed_steps == 1
    assert minibatch_draws["made"] == [(threading.current_thread().name, 1)]


def test_an_abort_draws_no_batch_past_the_aborted_step(minibatch_draws):
    # The overflow is seen at step 1, and only step 1's batch was drawn.
    net = small_quad(seed=6)
    net.W1 *= 1e200
    minibatch_draws["seed"] = 6
    with pytest.warns(RuntimeWarning, match="invalid value"):
        result = train(net, TrainConfig(steps=10, batch_size=4, seed=6),
                       SphereConfig(n=10, seed=6))
    assert result.aborted and result.completed_steps == 0
    assert minibatch_draws["made"] == [(threading.current_thread().name, 1)]


def test_a_failing_batch_draw_propagates_and_leaves_no_draw_running(
        tmp_path, opened_writers, minibatch_draws):
    path = tmp_path / "metrics.jsonl"
    minibatch_draws.update(seed=9, fail_at=4)
    cfg = TrainConfig(steps=6, batch_size=4, seed=9, metric_every=2, metrics_path=str(path))
    with pytest.raises(FloatingPointError, match="injected draw failure"):
        train(small_quad(seed=9), cfg, SphereConfig(n=10, seed=9))
    assert len(opened_writers) == 1 and opened_writers[0]._f.closed
    records = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    assert [r["step"] for r in records] == [0, 2]
    assert [k for _, k in minibatch_draws["made"]] == [1, 2, 3, 4]
    assert minibatch_draws["running"] == 0


def test_concurrent_train_calls_share_the_pool_and_agree():
    # 100 x 1400 first-layer weights are 5 Adam blocks, so every step maps 2
    # jobs on the pool while the other callers' jobs queue there too; more
    # callers than cores and a short switch interval interleave them.
    sphere = SphereConfig(n=100, seed=15)
    cfg = TrainConfig(steps=6, batch_size=8, seed=15, metric_every=3)

    def run():
        net = QuadraticNet.init_random(100, 1400, RngStream(15).child(3))
        result = train(net, cfg, sphere)
        return [m.to_dict() for m in result.metrics], net.W1.tobytes()

    expected = run()
    results = [None] * 6

    def work(k):
        results[k] = run()

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(results))]
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
    assert results == [expected] * len(results)


def test_metrics_writer_flushes_a_schema_header_then_each_event(tmp_path):
    path = tmp_path / "metrics.jsonl"
    writer = MetricsWriter(path, {"seed": 3})
    writer.write(MetricsRecord(step=0, train_loss=None, eval_loss=0.5))
    writer.write_event({"event": "abort", "step": 1})
    lines = path.read_text().splitlines()
    writer.close()
    assert [json.loads(line) for line in lines] == [
        {"schema": METRICS_SCHEMA, "seed": 3}, {"step": 0, "eval_loss": 0.5},
        {"event": "abort", "step": 1}]
    assert writer._f.closed


def test_mlp_trains_and_batch_size_validated():
    sphere = SphereConfig(n=6, seed=10)
    net = MlpNet.init_random(6, (8,), RngStream(10).child(3))
    with pytest.raises(ValueError):
        train(net, TrainConfig(steps=5, batch_size=1, seed=10), sphere)
    result = train(net, TrainConfig(steps=30, batch_size=8, seed=10,
                                    metric_every=15), sphere)
    assert result.completed_steps == 30
    assert np.isfinite(result.metrics[-1].eval_loss)


def test_paper_scale_mlp_training_holds_one_gradient_set(traced_peak):
    # 500 -> 1000 x 1000 is 11.5 MiB of state: Adam's m and v, the record
    # snapshot and one gradient set are 46 MiB, and a 1000-row eval adds two
    # 7.6 MiB activations (54 MiB in all). Gradients kept alive through the
    # eval (67 MiB) or an eval through forward's cache (69 MiB) pass 62.
    net = MlpNet.init_random(500, (1000, 1000), RngStream(5))
    cfg = TrainConfig(steps=4, batch_size=50, metric_every=2, eval_batch=1000, seed=6)
    assert traced_peak(train, net, cfg, SphereConfig(n=500)) < 62 * 2**20


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


def quad_erring_on_both_shells(seed, n, h):
    """A random quadratic net with b at -1.3 times its median inner ``|W1 x|^2``.

    With h small against n, or n small, ``|W1 x|^2`` spreads enough that
    the net errs on a share of both shells.
    """
    net = small_quad(seed=seed, n=n, h=h)
    unit = RngStream(1).normal_matrix(999, n)
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    net.b = np.array(-1.3 * float(np.median(net.logits(unit) - net.b)))
    return net


def serial_error_flags(sphere, samples, stream, logit):
    """Per-sample error flags (inner, outer) of a serial loop over the paired layout.

    Chunk i draws the normals of up to 512 directions from ``stream.child(i)``;
    each direction is one outer sample, and the first ``samples // 2`` are also
    the inner samples. ``logit(z, r)`` labels the rows of normals ``z`` on the
    shell of radius ``r``.
    """
    inner, outer = [], []
    directions = samples - samples // 2
    for chunk, start in enumerate(range(0, directions, 512)):
        count = min(512, directions - start)
        z = stream.child(chunk).normals(count * sphere.n).reshape(count, sphere.n)
        inner.append(logit(z, 1.0) > 0.0)
        outer.append(logit(z, sphere.R) <= 0.0)
    return np.concatenate(inner)[:samples // 2], np.concatenate(outer)


def shell_points_logit(net):
    """``logit`` of :func:`serial_error_flags` through the net's shell points."""
    return lambda z, r: net.logits(r * (z / np.sqrt((z * z).sum(axis=1))[:, None]))


def eigenbasis_logit(net):
    """``logit`` of :func:`serial_error_flags` in the quadric's eigenbasis:
    r^2 (z^2 . c) / |z|^2 + b with c = w lambda, lambda the eigenvalues of W1^T W1."""
    c = float(net.w) * np.linalg.eigvalsh(net.W1.T @ net.W1)
    return lambda z, r: (r * r) * ((z * z) @ c / (z * z).sum(axis=1)) + float(net.b)


def test_error_rate_counts_equal_a_serial_loop_over_the_child_layout():
    # 3 chunks of directions, the last one partial (101 directions, 100 of
    # them also inner samples), and an odd total: the outer shell gets the
    # extra sample. At n = 282 the call is below 8 samples per dimension,
    # so it takes the default path.
    samples = 2 * (2 * 512 + 100) + 1
    sphere = SphereConfig(n=282)
    assert samples < 8 * sphere.n
    net = quad_erring_on_both_shells(17, sphere.n, 12)
    stream = RngStream(17).child(5)
    inner, outer = serial_error_flags(sphere, samples, stream, shell_points_logit(net))
    assert (inner.size, outer.size) == (samples // 2, samples - samples // 2)
    expected = (int(inner.sum()), int(outer.sum()))
    est = evaluate_error_rate(net, sphere, samples, stream)
    assert 0 < expected[0] < samples // 2 and 0 < expected[1] < samples // 2
    assert (est.errors_inner, est.errors_outer) == expected
    assert est.samples == samples


@pytest.mark.parametrize("h", [12, 4])  # a full-rank and a rank-4 Gram matrix
def test_eigenbasis_counts_equal_a_serial_loop_over_the_child_layout(h):
    # The chunks of the test above, at n = 10: a sample errs by the sign of
    # r^2 (z^2 . c) / |z|^2 + b, z the normals of its direction.
    samples = 2 * (2 * 512 + 100) + 1
    sphere = SphereConfig(n=10)
    assert samples >= 8 * sphere.n
    net = quad_erring_on_both_shells(17, sphere.n, h)
    stream = RngStream(17).child(5)
    inner, outer = serial_error_flags(sphere, samples, stream, eigenbasis_logit(net))
    expected = (int(inner.sum()), int(outer.sum()))
    est = evaluate_error_rate(net, sphere, samples, stream)
    assert 0 < expected[0] < samples // 2 and 0 < expected[1] < samples // 2
    assert (est.errors_inner, est.errors_outer) == expected


def test_no_direction_errs_on_both_shells_of_a_net_with_b_below_zero():
    # An inner error needs q > -b and an outer one R^2 q <= -b, which
    # cannot both hold when b < 0. So the paired counts covary by at most
    # 0, and upper95 stays conservative.
    samples = 2 * (2 * 512 + 100) + 1
    for sphere, h, logit in ((SphereConfig(n=282), 12, shell_points_logit),
                             (SphereConfig(n=10), 12, eigenbasis_logit),
                             (SphereConfig(n=10), 4, eigenbasis_logit)):
        net = quad_erring_on_both_shells(17, sphere.n, h)
        assert float(net.b) < 0
        inner, outer = serial_error_flags(sphere, samples, RngStream(17).child(5), logit(net))
        assert inner.any() and outer[:inner.size].any()
        assert not (inner & outer[:inner.size]).any()


def test_default_path_outer_points_are_the_outer_batch_of_the_same_child(monkeypatch):
    # Chunk 0 has 512 directions and chunk 1 has 4, 3 of them also inner
    # samples. The rows an MlpNet labels are those of sample_batch on the
    # chunk's child: the inner batch's first rows, then the outer batch.
    monkeypatch.setattr(training, "_shard_map", lambda fn, jobs: [fn(job) for job in jobs])
    sphere = SphereConfig(n=10)
    mlp = MlpNet.init_random(10, (6,), RngStream(3))
    seen = []
    monkeypatch.setattr(mlp, "logits", lambda xs: seen.append(xs.copy()) or np.ones(len(xs)))
    samples = 2 * (512 + 3) + 1
    est = evaluate_error_rate(mlp, sphere, samples, RngStream(22))
    assert (est.errors_inner, est.errors_outer) == (samples // 2, 0)
    stream = RngStream(22)
    assert len(seen) == 4
    for chunk, (count, inner) in enumerate([(512, 512), (4, 3)]):
        inner_xs, outer_xs = seen[2 * chunk:2 * chunk + 2]
        expected_inner = sample_batch(sphere, stream.child(chunk), count, "inner")[0]
        expected_outer = sample_batch(sphere, stream.child(chunk), count, "outer")[0]
        assert inner_xs.tobytes() == expected_inner[:inner].tobytes()
        assert outer_xs.tobytes() == expected_outer.tobytes()


@pytest.mark.parametrize("n,h,samples", [(10, 12, 80), (10, 12, 79), (500, 12, 20_000),
                                         (500, 12, 3999)])  # eigenbasis, default path
def test_error_rate_draws_one_direction_per_outer_sample(monkeypatch, n, h, samples):
    # A 20 000-sample call at n = 500 draws 5 * 10^6 normals, not 10^7.
    net = small_quad(n=n, h=h)
    drawn = []
    normals = RngStream.normals

    def counting(self, count):
        drawn.append(count)
        return normals(self, count)

    monkeypatch.setattr(RngStream, "normals", counting)
    evaluate_error_rate(net, SphereConfig(n=n), samples, RngStream(23))
    assert sum(drawn) == (samples - samples // 2) * n


def test_eight_samples_per_dimension_select_the_eigenbasis_for_a_quadratic_net_only(
        monkeypatch):
    batches = []

    def counting(*args, **kwargs):
        batches.append(args[2])
        return sample_batch(*args, **kwargs)

    monkeypatch.setattr(training, "sample_batch", counting)
    sphere = SphereConfig(n=10)
    mlp = MlpNet.init_random(10, (6,), RngStream(3))
    nan_b = small_quad()
    nan_b.b[...] = np.nan  # set in place, past the constructor's check, as in a diverged run
    for model, samples, default_path in ((small_quad(), 80, False), (small_quad(), 79, True),
                                         (mlp, 80, True), (nan_b, 80, True)):
        batches.clear()
        evaluate_error_rate(model, sphere, samples, RngStream(4))
        assert sum(batches) == (samples - samples // 2 if default_path else 0)


def test_a_net_whose_gram_matrix_overflows_keeps_the_default_path(monkeypatch):
    net = small_quad(seed=6)
    net.W1 *= 1e200  # W1^T W1 overflows, and eigvalsh would raise
    sphere = SphereConfig(n=10)
    est = evaluate_error_rate(net, sphere, 800, RngStream(6))
    monkeypatch.setattr(training, "_EIGENBASIS_SAMPLES_PER_DIM", 10**9)
    assert est == evaluate_error_rate(net, sphere, 800, RngStream(6))
    assert (est.errors_inner, est.errors_outer) == (400, 0)  # every logit is +inf


@pytest.mark.parametrize("samples", [80, 79])  # eigenbasis, default path
def test_an_error_rate_chunk_with_a_row_of_exact_zero_normals_raises(monkeypatch, samples):
    draw = RngStream.normal_matrix

    def with_a_zero_row(self, rows, cols):
        z = draw(self, rows, cols)
        z[0] = 0.0
        return z

    monkeypatch.setattr(RngStream, "normal_matrix", with_a_zero_row)
    with pytest.raises(ValueError, match="10 exact zero normals"):
        evaluate_error_rate(small_quad(), SphereConfig(n=10), samples, RngStream(6))


def test_eigenbasis_inner_rate_of_a_two_valued_spectrum_is_an_f_tail():
    # alpha = 1.6 on 50 axes and 0.9 on 450, behind a random rotation. An
    # inner point errs when 0.6 chi2_50 > 0.1 chi2_450, that is when an
    # F(50, 450) variate exceeds 1.5; every R^2 alpha exceeds 1, so no
    # outer point errs.
    from scipy.stats import f
    n, samples = 500, 2 * 10**5
    q, _ = np.linalg.qr(np.random.default_rng(26).standard_normal((n, n)))
    alphas = np.concatenate([np.full(50, 1.6), np.full(450, 0.9)])
    net = QuadraticNet(np.sqrt(alphas)[:, None] * q, 1.0, -1.0)  # w = -b: alpha = s^2
    est = evaluate_error_rate(net, SphereConfig(n=n), samples, RngStream(26))
    p = f.sf(1.5, 50, 450)
    assert p == pytest.approx(0.018632, abs=1e-6)
    inner = samples // 2
    assert abs(est.errors_inner / inner - p) <= 6 * math.sqrt(p * (1 - p) / inner)
    assert est.errors_outer == 0


def test_both_paths_count_errors_with_one_law(monkeypatch):
    sphere, samples = SphereConfig(n=40), 40_000
    net = quad_erring_on_both_shells(40, sphere.n, 4)
    eigen = evaluate_error_rate(net, sphere, samples, RngStream(40))
    monkeypatch.setattr(training, "_EIGENBASIS_SAMPLES_PER_DIM", 10**9)
    default = evaluate_error_rate(net, sphere, samples, RngStream(41))
    for a, b, count in ((eigen.errors_inner, default.errors_inner, samples // 2),
                        (eigen.errors_outer, default.errors_outer, samples - samples // 2)):
        p = (a + b) / (2 * count)
        assert 0.01 < p < 0.99
        assert abs(a - b) / count <= 6 * math.sqrt(p * (1 - p) * 2 / count)


def test_error_rate_holds_one_chunk_per_running_job(monkeypatch, traced_peak):
    # n = 500, h = 1000, in the eigenbasis: a 512-row chunk's normals are
    # 2 MB, and so is the 500 x 500 Gram matrix, gone before any chunk runs.
    # A 4096-row chunk's points and activations were 49 MB.
    monkeypatch.setattr(training, "_shard_map", lambda fn, jobs: [fn(job) for job in jobs])
    net = QuadraticNet.init_random(500, 1000, RngStream(19))
    peak = traced_peak(evaluate_error_rate, net, SphereConfig(n=500), 20_000, RngStream(19))
    assert peak < 4 * 10**6


def test_default_path_error_rate_holds_one_logits_block_per_running_job(monkeypatch,
                                                                          traced_peak):
    # Below 8 samples per dimension: a 512-row chunk's points and one
    # logits block of activations are 6 MB.
    monkeypatch.setattr(training, "_shard_map", lambda fn, jobs: [fn(job) for job in jobs])
    net = QuadraticNet.init_random(500, 1000, RngStream(19))
    peak = traced_peak(evaluate_error_rate, net, SphereConfig(n=500), 3999, RngStream(19))
    assert peak < 12 * 10**6


def test_paper_size_training_loop_holds_moments_snapshot_eval_points_and_one_block(traced_peak):
    # The eval's 1000 points go through logits in 512-row blocks, and dW1 is
    # scaled in place, so no 1000 x h activation or second gradient is alive.
    n, h, eval_batch = 500, 1000, 1000
    net = QuadraticNet.init_random(n, h, RngStream(45))
    param_bytes = sum(p.nbytes for p in net.params().values())
    state_bytes = sum(v.nbytes for v in net.state().values())
    bound = (2 * param_bytes  # Adam's m and v
             + state_bytes  # the snapshot
             + eval_batch * n * 8  # the eval points
             + 512 * h * 8  # one logits block of hidden activations
             + 2**20)  # minibatches, labels and Adam's job scratch
    cfg = TrainConfig(steps=4, metric_every=2, eval_batch=eval_batch, seed=46)
    peak = traced_peak(train, net, cfg, SphereConfig(n=n))
    assert peak < bound


def test_error_rate_keys_chunks_past_the_old_child_limit_and_checks_arguments_first(
        monkeypatch):
    # Chunk i keys child i and holds up to 512 directions, so 10^8 samples
    # (5 * 10^7 directions, each also an inner sample) key children up to
    # 97656, past 65534, the last child index before version 0.5.0.
    queued = []

    def record(fn, jobs):
        queued.extend(jobs)
        counts = fn(jobs[-1])  # a chunk past the old limit draws and counts both shells
        assert len(counts) == 2 and all(type(count) is int for count in counts)
        return [(0, 0)] * len(jobs)

    monkeypatch.setattr(training, "_shard_map", record)
    est = evaluate_error_rate(small_quad(), SphereConfig(n=10), 10**8, RngStream(20))
    assert est.samples == 10**8 and est.errors == 0
    assert [child for child, _, _ in queued] == list(range(97657))
    assert queued[-1] == (97656, 128, 128)
    assert sum(count for _, count, _ in queued) == sum(inner for *_, inner in queued) == 5 * 10**7

    def refuse(fn, jobs):
        raise AssertionError("a job was queued")

    monkeypatch.setattr(training, "_shard_map", refuse)
    for samples in (1000.5, 1000.0, "1000"):
        with pytest.raises(ValueError, match="samples must be an integer"):
            evaluate_error_rate(small_quad(), SphereConfig(n=10), samples, RngStream(20))
    with pytest.raises(ValueError, match="model dim 10 != sphere dim 11"):
        evaluate_error_rate(small_quad(), SphereConfig(n=11), 1000, RngStream(20))


@pytest.mark.parametrize("samples,errors,upper", [
    (100, 99, 1.0), (10, 9, 1.0), (2, 0, 1.0),  # 1.00637, 1.05606 and 1.5 unclipped
    (100, 5, 0.05 + 1.645 * np.sqrt(0.05 * 0.95 / 100)),
])
def test_error_upper95_is_clipped_at_one(samples, errors, upper):
    assert training.ErrorRateEstimate(samples, errors - errors // 2, errors // 2).upper95 == upper


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


@pytest.mark.slow
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
