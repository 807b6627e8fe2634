import os
import signal
import threading

import numpy as np
import pytest
from scipy import integrate

from spherelab.linalg import singular_values, top_principal_components
from spherelab.rng import _NORMAL_BLOCK, RngStream, _shard_map
from spherelab.special import normal_cdf, normal_pdf, normal_quantile


# ---------------------------------------------------------------------------
# Oracles


def cdf_by_quadrature(x: float) -> float:
    """Independent Phi oracle: adaptive quadrature of the normal density."""
    val, err = integrate.quad(normal_pdf, 0.0, x, epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-12
    return 0.5 + val


def quantile_by_bisection(p: float, iters: int = 200) -> float:
    """Independent quantile oracle: bisection on normal_cdf."""
    lo, hi = -40.0, 40.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def charpoly_roots_3x3(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric 3x3 via closed-form characteristic
    polynomial coefficients and companion-matrix root finding."""
    tr = np.trace(a)
    minors = (
        a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
        + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
        + a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    )
    det = np.linalg.det(a)
    # lambda^3 - tr lambda^2 + minors lambda - det = 0
    roots = np.roots([1.0, -tr, minors, -det])
    return np.sort(roots.real)[::-1]


# ---------------------------------------------------------------------------
# normal_cdf / normal_quantile


def test_cdf_at_zero():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)


def test_cdf_saturates():
    assert abs(normal_cdf(40.0) - 1.0) < 1e-15
    assert normal_cdf(-40.0) < 1e-300


def test_cdf_matches_quadrature_oracle():
    for x in [1.0, -1.0, 0.31, 2.5, -3.7, 5.0]:
        assert normal_cdf(x) == pytest.approx(cdf_by_quadrature(x), abs=1e-12)


def test_cdf_at_one_reference_value():
    assert normal_cdf(1.0) == pytest.approx(0.841344746, abs=1e-9)


def test_cdf_monotone():
    xs = np.linspace(-8.0, 8.0, 2001)
    vals = [normal_cdf(x) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # Strictly increasing wherever float64 can still resolve 1 - Phi.
    xs = np.linspace(-8.0, 5.0, 1301)
    vals = [normal_cdf(x) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_quantile_at_half():
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("p", [0.99, 0.999])
def test_quantile_matches_bisection_oracle(p):
    assert normal_quantile(p) == pytest.approx(quantile_by_bisection(p), abs=1e-9)


def test_quantile_reference_values():
    assert normal_quantile(0.99) == pytest.approx(2.32635, abs=1e-5)
    assert normal_quantile(0.999) == pytest.approx(3.09023, abs=1e-5)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.3, 1.5])
def test_quantile_domain_errors(p):
    with pytest.raises(ValueError):
        normal_quantile(p)


def test_quantile_round_trip_over_full_range():
    ps = np.concatenate([
        np.geomspace(1e-12, 0.4, 200),
        1.0 - np.geomspace(1e-12, 0.4, 200),
        [0.5],
    ])
    for p in ps:
        assert abs(normal_cdf(normal_quantile(p)) - p) <= 1e-9


def test_quantile_of_cdf_identity_on_interval():
    for x in np.linspace(-6.0, 6.0, 121):
        assert normal_quantile(normal_cdf(x)) == pytest.approx(x, abs=1e-8)


# ---------------------------------------------------------------------------
# RngStream


def test_normals_moments_seed1():
    z = RngStream(1).normals(10**6)
    assert abs(z.mean()) < 4.0 / np.sqrt(10**6)
    assert abs(z.var() - 1.0) < 0.01


def test_same_seed_identical_sequences():
    a = RngStream(1).normals(10**4)
    b = RngStream(1).normals(10**4)
    assert (a == b).all()


def test_raw_words_bit_identical():
    assert (RngStream(7, 3).raw(64) == RngStream(7, 3).raw(64)).all()


def test_chunking_does_not_change_the_stream():
    s1 = RngStream(9)
    joined = np.concatenate([s1.normals(3), s1.normals(2)])
    assert (joined == RngStream(9).normals(5)).all()
    s2 = RngStream(9)
    u = np.concatenate([s2.uniforms(7), s2.uniforms(1)])
    assert (u == RngStream(9).uniforms(8)).all()


def reference_normals(seed: int, stream: int, count: int) -> np.ndarray:
    """Box-Muller cosine branch over all words at once, from raw words."""
    words = RngStream(seed, stream).raw(2 * count).reshape(count, 2)
    u1 = ((words[:, 0] >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    u2 = (words[:, 1] >> np.uint64(11)) * 2.0**-53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


@pytest.mark.parametrize("count", [1, _NORMAL_BLOCK - 1, _NORMAL_BLOCK,
                                   _NORMAL_BLOCK + 1, 3 * _NORMAL_BLOCK + 5])
def test_blocked_normals_equal_a_whole_array_reference(count):
    s = RngStream(20180108, 5)
    z = s.normals(count)
    assert z.dtype == np.float64 and z.shape == (count,)
    assert z.tobytes() == reference_normals(20180108, 5, count).tobytes()
    # The call consumed exactly 2 * count words.
    assert (s.raw(3) == RngStream(20180108, 5).raw(2 * count + 3)[-3:]).all()


def test_normals_of_zero_draws_consume_nothing():
    s = RngStream(4)
    assert s.normals(0).shape == (0,)
    assert (s.raw(2) == RngStream(4).raw(2)).all()


def test_shard_map_keeps_job_order_and_uses_the_pool():
    names = []

    def job(i):
        names.append(threading.current_thread().name)
        return i * i

    assert _shard_map(job, range(37)) == [i * i for i in range(37)]
    assert _shard_map(job, []) == []
    assert all(name.startswith("spherelab-shard") for name in names)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_shard_map_works_in_a_forked_child():
    # The child inherits the parent's pool object but none of its threads.
    assert _shard_map(abs, range(-50, 0)) == list(range(50, 0, -1))
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        signal.alarm(20)
        os._exit(0 if _shard_map(abs, [-3, -4]) == [3, 4] else 1)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


def test_shard_map_refuses_nested_jobs():
    with pytest.raises(RuntimeError, match="inside a sharded job"):
        _shard_map(lambda _: _shard_map(abs, [1]), [0])


def test_substreams_are_distinct_and_reproducible():
    root = RngStream(42)
    a = root.child(1)
    b = root.child(2)
    assert a.stream != b.stream
    assert not np.array_equal(a.raw(16), b.raw(16))
    assert (root.child(1).raw(16) == RngStream(42).child(1).raw(16)).all()


def test_child_paths_never_collide():
    seen = set()
    root = RngStream(0)
    for i in range(40):
        ci = root.child(i)
        seen.add(ci.stream)
        for j in range(40):
            seen.add(ci.child(j).stream)
    assert len(seen) == 40 + 40 * 40


def test_uniform_bounds():
    u = RngStream(5).uniforms(10**5)
    assert (u >= 0.0).all() and (u < 1.0).all()


def test_normals_finite():
    z = RngStream(11).normals(10**5)
    assert np.isfinite(z).all()


# ---------------------------------------------------------------------------
# singular_values


def test_singular_values_identity():
    np.testing.assert_allclose(singular_values(np.eye(3)), [1.0, 1.0, 1.0], atol=1e-14)


def test_singular_values_diagonal():
    np.testing.assert_allclose(singular_values(np.diag([3.0, 4.0])), [4.0, 3.0], atol=1e-12)


def test_singular_values_against_charpoly_oracle():
    stream = RngStream(123)
    for trial in range(5):
        m = stream.normal_matrix(5, 3)
        gram_eigs = charpoly_roots_3x3(m.T @ m)
        expected = np.sqrt(np.clip(gram_eigs, 0.0, None))
        got = singular_values(m)
        np.testing.assert_allclose(got, expected, rtol=1e-8)


def test_singular_values_of_orthogonal_matrix_are_one():
    q, _ = np.linalg.qr(RngStream(321).normal_matrix(6, 6))
    np.testing.assert_allclose(singular_values(q), np.ones(6), atol=1e-10)


def test_singular_values_wide_matrix_uses_smaller_gram():
    m = RngStream(8).normal_matrix(3, 50)
    s = singular_values(m)
    assert s.shape == (3,)
    np.testing.assert_allclose(s, np.linalg.svd(m, compute_uv=False), rtol=1e-8)


def test_singular_values_rejects_nonfinite():
    with pytest.raises(ValueError):
        singular_values(np.array([[1.0, np.nan], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# top_principal_components


def test_pca_points_on_an_axis():
    stream = RngStream(55)
    xs = stream.normals(200)
    data = np.zeros((200, 3))
    data[:, 0] = xs
    directions, variances = top_principal_components(data, 1)
    assert abs(abs(directions[0, 0]) - 1.0) < 1e-10
    assert np.linalg.norm(directions[0, 1:]) < 1e-10
    assert variances[0] == pytest.approx(np.var(xs, ddof=1), rel=1e-10)


def test_pca_isotropic_cloud_has_flat_spectrum():
    data = RngStream(77).normal_matrix(10**5, 3)
    _, variances = top_principal_components(data, 3)
    assert variances.max() / variances.min() < 1.05


def test_pca_recovers_anisotropic_variances():
    stream = RngStream(99)
    scales = np.array([2.0, 1.0, 0.5])
    data = stream.normal_matrix(20000, 3) * scales
    directions, variances = top_principal_components(data, 3)
    np.testing.assert_allclose(variances, scales**2, rtol=0.05)
    # Leading direction aligned with the widest axis.
    assert abs(directions[0, 0]) > 0.99


def test_pca_directions_orthonormal():
    data = RngStream(101).normal_matrix(500, 8) * np.arange(1, 9)[::-1]
    directions, variances = top_principal_components(data, 5)
    gram = directions @ directions.T
    np.testing.assert_allclose(np.diag(gram), np.ones(5), atol=1e-10)
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-8
    assert all(a >= b for a, b in zip(variances, variances[1:]))


def test_pca_validates_arguments():
    with pytest.raises(ValueError):
        top_principal_components(np.zeros((1, 3)), 1)
    with pytest.raises(ValueError):
        top_principal_components(np.zeros((10, 3)), 4)
