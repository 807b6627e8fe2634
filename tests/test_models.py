import dataclasses

import numpy as np
import pytest
from conftest import gradient_check, mean_loss

from spherelab import models, training
from spherelab.attack import AttackConfig, run_attack
from spherelab.dataset import SphereConfig
from spherelab.linalg import singular_values
from spherelab.models import (
    AlphaSpectrum,
    MlpNet,
    QuadraticNet,
    Quadric,
    UnsupportedRegimeError,
    alpha_spectrum,
    classify,
    is_perfect,
    quad_perfect_init,
    quadric_gram,
    sigmoid,
    sigmoid_ce_loss,
)
from spherelab.rng import RngStream

R = 1.3


def logit_fn(p):
    return float(np.log(p / (1.0 - p)))


def solve_perfect_targets(R=1.3, p_inner=0.0016, p_outer=0.9994):
    """Independent 2x2 solve for the perfect-init scalars."""
    li, lo = logit_fn(p_inner), logit_fn(p_outer)
    ws2 = (lo - li) / (R * R - 1.0)
    b = li - ws2
    return ws2, b, li, lo


# ---------------------------------------------------------------------------
# quad_logit


def test_quad_logit_boundary_point():
    net = QuadraticNet(np.eye(2), 1.0, -1.0)
    assert float(net.logits(np.array([1.0, 0.0])[None])[0]) == pytest.approx(0.0, abs=1e-15)


def test_quad_logit_hand_arithmetic():
    net = QuadraticNet(np.diag([2.0, 1.0]), 1.0, -1.0)
    assert float(net.logits(np.array([1.0, 0.0])[None])[0]) == pytest.approx(3.0, abs=1e-15)


def test_quadratic_net_refuses_a_flat_w1_and_non_finite_parameters():
    with pytest.raises(ValueError, match=r"W1 must be 2-D, got shape \(3,\)"):
        QuadraticNet(np.ones(3), 1.0, -1.0)
    with pytest.raises(ValueError, match="h must be >= 1, got 0"):
        QuadraticNet(np.zeros((0, 5)), 1.0, -1.0)
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        QuadraticNet(np.zeros((3, 0)), 1.0, -1.0)
    for W1, w, b in ((np.array([[np.inf]]), 1.0, -1.0), (np.eye(2), np.nan, -1.0),
                     (np.eye(2), 1.0, -np.inf)):
        with pytest.raises(ValueError, match="parameters must be finite"):
            QuadraticNet(W1, w, b)
    # "1" once raised numpy's bare TypeError from isfinite, and True was stored as 1.0.
    for w, b, name in (("1", -1.0, "w"), (True, -1.0, "w"), (1.0, None, "b"),
                       (1.0, np.True_, "b"), (1.0, np.array([-1.0]), "b")):
        with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
            QuadraticNet(np.eye(2), w, b)
    net = QuadraticNet(np.eye(2), np.float32(0.5), np.int64(-1))
    assert (float(net.w), float(net.b)) == (0.5, -1.0)
    copy = QuadraticNet(net.W1, net.w, net.b)  # a net's own w and b are 0-d arrays
    assert (float(copy.w), float(copy.b)) == (0.5, -1.0)


def test_quad_logit_dimension_mismatch():
    net = QuadraticNet(np.eye(3), 1.0, -1.0)
    with pytest.raises(ValueError):
        net.logits(np.ones((4, 5)))


def test_quad_logit_matches_rotated_alpha_form():
    # Independent oracle: rotate by V from LAPACK's SVD and evaluate
    # (-b) * (sum alpha_i z_i^2 - 1).
    stream = RngStream(17)
    for _ in range(5):
        net = QuadraticNet.init_random(6, 9, stream)
        spec = alpha_spectrum(net, R)
        _, s, vt = np.linalg.svd(net.W1)
        x = stream.normals(6)
        z = vt @ x
        expected = (-float(net.b)) * (np.sum(spec.alphas * z * z) - 1.0)
        assert float(net.logits(x[None])[0]) == pytest.approx(expected, rel=1e-8)


def test_quad_logit_permutation_invariance_for_isotropic_w1():
    w1 = np.zeros((8, 5))
    np.fill_diagonal(w1, 0.7)
    net = QuadraticNet(w1, 1.2, -2.0)
    x = RngStream(23).normals(5)
    perm = np.array([3, 1, 4, 0, 2])
    logit, permuted = net.logits(np.stack([x, x[perm]]))
    assert permuted == pytest.approx(logit, rel=1e-12)


@pytest.mark.parametrize("h", [7, 15])  # narrower and wider than the input
def test_quadric_passes_in_z_equal_the_nets_in_x(h):
    net = QuadraticNet.init_random(11, h, RngStream(19))
    net.w[...], net.b[...] = 1.7, -0.9
    quadric = Quadric(net, quadric_gram(net))
    X = RngStream(21).normal_matrix(30, 11)
    y = (np.arange(30) % 2).astype(float)
    Z = X @ quadric.V
    assert (quadric.n, quadric.h) == (11, 11)
    np.testing.assert_allclose(quadric.logits(Z), net.logits(X), rtol=1e-12, atol=0)
    np.testing.assert_allclose(quadric.forward(Z)[0], net.logits(X), rtol=1e-12, atol=0)
    g_x = net.input_grad(X, y)
    g_back = quadric.input_grad(Z, y) @ quadric.V.T
    assert (np.linalg.norm(g_back - g_x, axis=1) <= 1e-12 * np.linalg.norm(g_x, axis=1)).all()


def test_quadric_refuses_the_parameter_surface_it_does_not_have():
    net = QuadraticNet.init_random(6, 4, RngStream(19))
    quadric = Quadric(net, quadric_gram(net))
    _, cache = quadric.forward(np.eye(6))
    # Each call past quadric.W1 once raised a bare AttributeError.
    sphere = SphereConfig(n=6)
    for call in (quadric.params, quadric.state, lambda: quadric.backward(cache, np.zeros(6)),
                 lambda: Quadric.init_random(6, 4, RngStream(1)), lambda: quadric.W1,
                 lambda: training.evaluate_error_rate(quadric, sphere, 8 * 6, RngStream(1)),
                 lambda: run_attack(quadric, sphere, AttackConfig(mode="nearest", steps=30),
                                    RngStream(1)),
                 lambda: alpha_spectrum(quadric, R)):
        with pytest.raises(TypeError, match="a Quadric has no parameters"):
            call()


def test_quadric_gram_is_none_when_the_gram_matrix_overflows():
    net = QuadraticNet.init_random(6, 4, RngStream(19))
    assert quadric_gram(net).tobytes() == (net.W1.T @ net.W1).tobytes()
    net.W1 *= 1e200
    assert quadric_gram(net) is None


# ---------------------------------------------------------------------------
# alpha_spectrum / is_perfect


def test_alpha_spectrum_orthonormal_rows():
    s = 1.7
    w1 = np.zeros((6, 4))
    np.fill_diagonal(w1, s)
    net = QuadraticNet(w1, 0.9, -2.5)
    spec = alpha_spectrum(net, R)
    np.testing.assert_allclose(spec.alphas, 0.9 * s * s / 2.5, rtol=1e-12)
    assert not spec.padded


@pytest.mark.parametrize("h", [500, 1000])
def test_alpha_spectrum_recovers_planted_singular_values_at_paper_scale(h):
    # W1 = diag(s) Q with Q orthogonal has singular values s exactly, so the
    # oracle is the planted s itself; h = 1000 appends zero rows, which
    # leaves the singular values unchanged.
    n, w, b = 500, 0.8, -30.0
    stream = RngStream(2018)
    q, _ = np.linalg.qr(stream.child(0).normal_matrix(n, n))
    s = 0.5 + 6.0 * stream.child(1).uniforms(n)
    w1 = np.zeros((h, n))
    w1[:n] = s[:, None] * q
    np.testing.assert_allclose(singular_values(w1), np.sort(s)[::-1], rtol=1e-12, atol=0.0)
    spec = alpha_spectrum(QuadraticNet(w1, w, b), R)
    assert not spec.padded
    np.testing.assert_allclose(spec.alphas, np.sort(w * s * s / -b)[::-1],
                               rtol=1e-12, atol=0.0)


def test_alpha_spectrum_requires_negative_b():
    net = QuadraticNet(np.eye(3), 1.0, 0.5)
    with pytest.raises(UnsupportedRegimeError):
        alpha_spectrum(net, R)


def test_alpha_spectrum_refuses_a_nan_b():
    # Parameters are set in place during training, past the constructor's check.
    net = QuadraticNet(np.eye(3), 1.0, -1.0)
    net.b[...] = np.nan
    with pytest.raises(UnsupportedRegimeError, match="b=nan"):
        alpha_spectrum(net, R)


def test_alpha_spectrum_rejects_a_radius_outside_the_shells_rule():
    net = QuadraticNet(np.eye(3), 1.0, -1.0)
    for radius in (0.5, 1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="outer radius must be finite and > 1"):
            alpha_spectrum(net, radius)


def test_alpha_spectrum_pads_when_hidden_narrower_than_input():
    net = QuadraticNet(np.ones((2, 5)), 1.0, -1.0)
    spec = alpha_spectrum(net, R)
    assert spec.padded
    assert spec.alphas.shape == (5,)
    assert (spec.alphas[2:] == 0.0).all()


def test_decision_region_empty_iff_alphas_below_one():
    # With diagonal W1 the rotation is the identity, so axis points +-e_i
    # probe each alpha directly: the inner shell has errors iff some
    # alpha_i > 1.
    for alphas in ([0.9, 0.8, 0.7], [1.4, 0.8, 0.7]):
        w1 = np.diag(np.sqrt(alphas))
        net = QuadraticNet(w1, 1.0, -1.0)  # alpha_i = s_i^2
        axis_hits = []
        for i in range(3):
            for sign in (1.0, -1.0):
                e = np.zeros(3)
                e[i] = sign
                axis_hits.append(float(net.logits(e[None])[0]) > 0)
        assert any(axis_hits) == (max(alphas) > 1.0)


def test_is_perfect_counts_violations():
    ok = AlphaSpectrum(np.full(5, 0.7572), R)
    assert is_perfect(ok) == (True, 0)
    bad = AlphaSpectrum(np.array([1.01, 0.9, 0.8]), R)
    assert is_perfect(bad) == (False, 1)
    boundary = AlphaSpectrum(np.array([1.0 / (R * R), 1.0]), R)
    assert is_perfect(boundary) == (True, 0)


def test_alpha_spectrum_checks_its_fields():
    alphas = np.full(3, 0.9)
    for radius in (0.0, -1.3, float("nan"), float("inf"), "1.3", True):
        with pytest.raises(ValueError, match="^R must"):
            AlphaSpectrum(alphas, radius)
    for bad in (np.full((2, 3), 0.9), np.float64(0.9)):
        with pytest.raises(ValueError, match="alphas must be 1-D"):
            AlphaSpectrum(bad, R)
    with pytest.raises(ValueError, match="padded must be a bool"):
        AlphaSpectrum(alphas, R, padded=1)
    spec = AlphaSpectrum(alphas, 1.0)  # radius 1 stays: test_geometry builds one
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.R = 0.0  # would skip the checks
    assert spec.R == 1.0


def test_a_nan_alpha_is_a_violation():
    assert is_perfect(AlphaSpectrum(np.array([np.nan, 0.9]), 1.3)) == (False, 1)
    net = QuadraticNet(np.eye(3), 1.0, -1.0)
    net.w[...] = np.nan  # a diverged run: every alpha is NaN
    assert is_perfect(alpha_spectrum(net, R)) == (False, 3)


# ---------------------------------------------------------------------------
# quad_perfect_init


def test_perfect_init_solves_the_two_shell_system():
    ws2, b, li, lo = solve_perfect_targets()
    net = quad_perfect_init(500, 1000)
    s = np.linalg.norm(net.W1[0])
    assert float(net.w) * s * s == pytest.approx(ws2, rel=1e-12)
    assert float(net.b) == pytest.approx(b, rel=1e-12)
    assert ws2 == pytest.approx(20.078, abs=5e-3)
    assert b == pytest.approx(-26.514, abs=5e-3)
    assert li == pytest.approx(-6.436, abs=5e-4)
    assert lo == pytest.approx(7.418, abs=5e-4)
    spec = alpha_spectrum(net, R)
    np.testing.assert_allclose(spec.alphas, ws2 / -b, rtol=1e-10)
    assert ws2 / -b == pytest.approx(0.7572, abs=2e-4)
    assert 1.0 / (R * R) <= ws2 / -b <= 1.0


def test_perfect_init_inner_probability():
    net = quad_perfect_init(20, 30)
    stream = RngStream(4)
    for _ in range(10):
        x = stream.normals(20)
        x /= np.linalg.norm(x)
        assert sigmoid(net.logits(x[None]))[0] == pytest.approx(0.0016, abs=1e-6)


def test_perfect_init_outer_probability():
    net = quad_perfect_init(20, 30)
    x = RngStream(6).normals(20)
    x *= R / np.linalg.norm(x)
    assert sigmoid(net.logits(x[None]))[0] == pytest.approx(0.9994, abs=1e-6)


def test_perfect_init_is_perfect():
    net = quad_perfect_init(50, 80)
    assert is_perfect(alpha_spectrum(net, R)) == (True, 0)
    # The two target logits have opposite signs, so alpha = w s^2 / (-b) lies
    # in [1/R^2, 1] whatever R is: from the float after 1 up to 1e8.
    for radius in (np.nextafter(1.0, 2.0), *np.geomspace(1.0 + 1e-12, 1e8, 400)):
        ws2, b, _, _ = solve_perfect_targets(float(radius))
        assert float(quad_perfect_init(2, 3, float(radius)).b) == b
        assert 1.0 / (radius * radius) <= ws2 / -b <= 1.0


def test_perfect_init_has_nonzero_gradients():
    net = quad_perfect_init(10, 12)
    stream = RngStream(8)
    x = stream.normals(10)
    x /= np.linalg.norm(x)
    logits, cache = net.forward(x[None, :])
    grads = net.backward(cache, np.array([0.0]))
    assert np.linalg.norm(grads["W1"]) > 0


def test_perfect_init_validation():
    with pytest.raises(ValueError, match="h must be >= 10, got 5"):
        quad_perfect_init(10, 5)
    with pytest.raises(ValueError, match="h must be an integer"):
        quad_perfect_init(10, 12.0)
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        QuadraticNet.init_random(0, 3, RngStream(1))
    for radius in (1.0, 0.5, float("nan"), float("inf")):  # 1.0 divided by zero
        with pytest.raises(ValueError, match="outer radius must be finite and > 1"):
            quad_perfect_init(5, 5, R=radius)


# ---------------------------------------------------------------------------
# sigmoid_ce_loss


def test_classify_sends_zero_of_either_sign_to_inner():
    logits = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, np.inf, -np.inf])
    labels = classify(logits)
    assert labels.dtype == np.uint8
    assert labels.tolist() == [0, 0, 1, 0, 1, 0, 1, 0]
    assert classify(-0.0) == 0 and classify(5e-324) == 1


def test_loss_at_zero_logit():
    assert sigmoid_ce_loss(0.0, 1) == pytest.approx(np.log(2.0), rel=1e-12)


def test_loss_large_logit_stable():
    val = sigmoid_ce_loss(100.0, 1)
    assert 0.0 < val < 1e-43
    assert np.isfinite(sigmoid_ce_loss(1e6, 0))
    assert np.isfinite(sigmoid_ce_loss(-1e6, 1))


def test_loss_matches_perfect_init_inner():
    _, _, li, _ = solve_perfect_targets()
    assert sigmoid_ce_loss(li, 0) == pytest.approx(0.001601, abs=2e-6)


# ---------------------------------------------------------------------------
# MLP forward


def test_mlp_zero_weights_returns_readout_bias():
    net = MlpNet(4, (6, 5))
    net.b_out.fill(0.25)
    X = RngStream(10).normal_matrix(8, 4)
    for logits in (net.forward(X)[0], net.logits(X)):
        np.testing.assert_allclose(logits, 0.25, atol=1e-12)


def test_mlp_eval_mode_deterministic():
    net = MlpNet.init_random(5, (7, 7), RngStream(12))
    X = RngStream(13).normal_matrix(6, 5)
    a = net.logits(X)
    b = net.logits(X)
    assert (a == b).all()


def test_mlp_train_mode_normalizes_batch():
    net = MlpNet.init_random(5, (16,), RngStream(14))
    X = RngStream(15).normal_matrix(64, 5) * 3.0 + 1.0
    _, cache = net.forward(X)
    xhat = cache["layers"][0]["xhat"]
    assert np.abs(xhat.mean(axis=0)).max() <= 1e-7
    assert np.abs(xhat.var(axis=0) - 1.0).max() <= 1e-5


def test_mlp_rejects_singleton_train_batch():
    net = MlpNet.init_random(5, (4,), RngStream(16))
    with pytest.raises(ValueError):
        net.forward(np.ones((1, 5)))
    with pytest.raises(ValueError, match=r"hidden\[0\] must be an integer, got 2.5"):
        MlpNet(5, (2.5,))
    with pytest.raises(ValueError, match=r"hidden\[0\] must be >= 1, got 0"):
        MlpNet(5, (0,))
    with pytest.raises(ValueError, match="at least one hidden layer"):
        MlpNet(5, ())
    for hidden in (1000, 2.5, "32"):
        with pytest.raises(ValueError, match="hidden must list at least one hidden layer width"):
            MlpNet(500, hidden)


def moved_mlp(n, hidden, seed) -> MlpNet:
    """A net with nonzero biases and betas, gammas off 1 and running statistics off 0 and 1."""
    stream = RngStream(seed)
    net = MlpNet.init_random(n, hidden, stream.child(0))
    for i, width in enumerate(net.hidden):
        net.bs[i] = stream.child(10 + i).normals(width)
        net.gammas[i] = 1.0 + 0.5 * stream.child(20 + i).normals(width)
        net.betas[i] = stream.child(30 + i).normals(width)
    net.b_out = np.array(0.125)
    for k in range(3):
        net.forward(stream.child(40 + k).normal_matrix(50, n) * 2.0 + 0.5)
    assert not (net.run_means[-1] == 0.0).any() and not (net.run_vars[0] == 1.0).any()
    return net


def reference_eval_pass(net, X):
    """The eval pass written out of place: one new array per operation.

    Returns the logits and, per hidden layer, its output and 1 / std.
    """
    act, layers = X, []
    for i in range(len(net.hidden)):
        inv_std = 1.0 / np.sqrt(net.run_vars[i] + 1e-5)
        z = act @ net.Ws[i].T + net.bs[i]
        act = np.maximum(net.gammas[i] * ((z - net.run_means[i]) * inv_std) + net.betas[i], 0.0)
        layers.append((act, inv_std))
    return act @ net.w_out + float(net.b_out), layers


@pytest.mark.parametrize("n, hidden, rows", [(7, (6, 4), 9), (500, (1000, 1000), 1000)],
                         ids=["small", "paper"])
def test_mlp_logits_have_the_bits_of_the_eval_forward_pass(n, hidden, rows):
    net = moved_mlp(n, hidden, 31)
    X = RngStream(32).normal_matrix(rows, n)
    logits = net.logits(X)
    assert logits.shape == (rows,)
    assert logits.tobytes() == reference_eval_pass(net, X)[0].tobytes()


def test_mlp_logits_keep_no_per_layer_cache(traced_peak):
    # One 1000 x 1000 activation is 7.6 MiB; the pass holds at most two.
    net = MlpNet.init_random(500, (1000, 1000), RngStream(33))
    X = RngStream(34).normal_matrix(1000, 500)
    assert traced_peak(net.logits, X) < 24 * 2**20


def unblocked_logits(net, X):
    """One pass over all rows: the quadratic ``_pass``, or the MLP's out-of-place eval pass."""
    return net._pass(X)[2] if net.family == "quadratic" else reference_eval_pass(net, X)[0]


@pytest.mark.parametrize("family", ["quadratic", "mlp"])
def test_logits_run_per_512_row_block_with_the_bits_of_an_unblocked_pass(family):
    # 500-wide layers: a GEMM split into row blocks moves the last bit of
    # some rows on OpenBLAS, so an unblocked 1300-row pass would not equal
    # the concatenation of its blocks.
    assert models._LOGIT_BLOCK == training._EVAL_CHUNK == 512
    if family == "quadratic":
        net = QuadraticNet.init_random(500, 500, RngStream(38))
        net.w = np.array(0.7)
    else:
        net = moved_mlp(500, (500, 500), 38)
    X = RngStream(39).normal_matrix(1300, 500)
    blocks = [net.logits(X[a:b]) for a, b in ((0, 512), (512, 1024), (1024, 1300))]
    assert net.logits(X).tobytes() == np.concatenate(blocks).tobytes()
    for rows in (X[:512], X[1024:], X[7:8]):
        assert net.logits(rows).tobytes() == unblocked_logits(net, rows).tobytes()


@pytest.mark.parametrize("family, limit_mib", [("quadratic", 8), ("mlp", 16)])
def test_paper_size_logits_call_holds_one_block_of_activations(family, limit_mib, traced_peak):
    # Unblocked, 20 000 rows held 153 MiB (h = 1000) and 305 MiB (two 1000-wide
    # layers); one 512-row block is 3.9 MiB per 1000-wide activation.
    net = (QuadraticNet.init_random(500, 1000, RngStream(40)) if family == "quadratic"
           else MlpNet.init_random(500, (1000, 1000), RngStream(40)))
    X = RngStream(41).normal_matrix(20_000, 500)
    assert traced_peak(net.logits, X) < limit_mib * 2**20


def test_mean_loss_is_the_mean_ce_of_forward_logits_and_keeps_running_stats():
    net = moved_mlp(7, (6, 4), 35)
    X = RngStream(36).normal_matrix(12, 7)
    y = RngStream(37).coins(12).astype(float)
    before = {k: v.copy() for k, v in net.state().items()}
    loss = mean_loss(net, X, y)
    assert all(v.tobytes() == before[k].tobytes() for k, v in net.state().items())
    logits, _ = net.forward(X)
    assert loss == float(np.mean(sigmoid_ce_loss(logits, y)))


# ---------------------------------------------------------------------------
# backward / gradient_check


def test_quad_b_gradient_is_mean_sigmoid_residual():
    stream = RngStream(20)
    net = QuadraticNet.init_random(6, 8, stream)
    X = stream.normal_matrix(10, 6)
    y = stream.coins(10).astype(float)
    logits, cache = net.forward(X)
    grads = net.backward(cache, y)
    assert float(grads["b"]) == pytest.approx(
        float(np.mean(sigmoid(logits) - y)), rel=1e-12)


def test_quad_weight_gradient_has_the_bits_of_the_scaled_product():
    # dW1 is scaled in place; an IEEE product commutes, so it keeps the bits
    # of (2w) * ((H * dl) ^T X) computed as a new array.
    net = QuadraticNet.init_random(500, 1000, RngStream(42))
    net.w = np.array(0.37)
    X = RngStream(43).normal_matrix(50, 500)
    y = RngStream(44).coins(50).astype(float)
    logits, cache = net.forward(X)
    dl = (sigmoid(logits) - y) / 50
    expected = (2.0 * 0.37) * ((cache["H"] * dl[:, None]).T @ X)
    assert net.backward(cache, y)["W1"].tobytes() == expected.tobytes()


def test_gradient_zero_at_strict_minimum_of_bias_only_problem():
    # Freeze everything but b: the mean loss over one inner point at logit
    # f + b and one outer point at logit g + b is strictly minimized where
    # sigmoid(f+b) + sigmoid(g+b) = 1, i.e. b = -(f+g)/2.
    w1 = np.diag([1.0, 2.0])
    net = QuadraticNet(w1, 1.0, 0.0)
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    f = 1.0  # w * (W1 x0)^2
    g = 4.0
    net.b.fill(-(f + g) / 2.0)
    logits, cache = net.forward(X)
    grads = net.backward(cache, np.array([0.0, 1.0]))
    assert abs(float(grads["b"])) < 1e-14


def test_gradient_check_quadratic():
    stream = RngStream(21)
    net = QuadraticNet.init_random(5, 7, stream)
    X = stream.normal_matrix(6, 5)
    y = stream.coins(6).astype(float)
    assert gradient_check(net, X, y) <= 1e-4


def test_gradient_check_mlp_train_mode():
    stream = RngStream(22)
    net = MlpNet.init_random(6, (8,), stream)
    X = stream.normal_matrix(4, 6)
    y = stream.coins(4).astype(float)
    assert gradient_check(net, X, y) <= 1e-4


def test_gradient_check_mlp_two_hidden_layers():
    stream = RngStream(24)
    net = MlpNet.init_random(4, (6, 5), stream)
    X = stream.normal_matrix(5, 4)
    y = stream.coins(5).astype(float)
    assert gradient_check(net, X, y) <= 1e-4


@pytest.mark.parametrize("n, hidden, rows", [(7, (6, 4), 9), (500, (1000, 1000), 50)],
                         ids=["small", "paper"])
def test_mlp_input_grad_has_the_bits_of_the_out_of_place_chain_rule(n, hidden, rows):
    # 50 rows: one PGD block at paper size.
    net = moved_mlp(n, hidden, 45)
    X = RngStream(46).normal_matrix(rows, n)
    y = RngStream(47).coins(rows).astype(float)
    logits, layers = reference_eval_pass(net, X)
    d_act = np.outer(sigmoid(logits) - y, net.w_out)
    for i in reversed(range(len(net.hidden))):
        out, inv_std = layers[i]
        d_act = (d_act * (out > 0.0) * net.gammas[i] * inv_std) @ net.Ws[i]
    assert net.input_grad(X, y).tobytes() == d_act.tobytes()


def test_input_grad_matches_finite_differences():
    stream = RngStream(28)
    for net in (QuadraticNet.init_random(5, 6, stream),
                MlpNet.init_random(5, (7,), stream),
                moved_mlp(5, (7, 6), 29)):
        if isinstance(net, MlpNet):
            net.forward(stream.normal_matrix(16, 5))
        X = stream.normal_matrix(3, 5)
        y = np.array([0.0, 1.0, 0.0])
        grad = net.input_grad(X, y)
        eps = 1e-6
        for i in range(3):
            for j in range(5):
                up = X.copy()
                up[i, j] += eps
                down = X.copy()
                down[i, j] -= eps
                if isinstance(net, MlpNet):
                    lu = net.logits(up[i:i + 1])[0]
                    ld = net.logits(down[i:i + 1])[0]
                else:
                    lu = float(net.logits(up[i][None])[0])
                    ld = float(net.logits(down[i][None])[0])
                num = (sigmoid_ce_loss(lu, y[i]) - sigmoid_ce_loss(ld, y[i])) / (2 * eps)
                assert grad[i, j] == pytest.approx(num, rel=1e-4, abs=1e-9)
