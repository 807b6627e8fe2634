import math
import os
import signal
import threading

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy import integrate, stats

from spherelab.linalg import singular_values
from spherelab.rng import RngStream, _shard_map
from spherelab.special import normal_cdf, normal_quantile


# ---------------------------------------------------------------------------
# Oracles


def density(t: float) -> float:
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def cdf_by_quadrature(x: float) -> float:
    """Independent Phi oracle: adaptive quadrature of the normal density."""
    val, err = integrate.quad(density, 0.0, x, epsabs=1e-14, epsrel=1e-13)
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
    assert (RngStream(7, 3, 1).raw(64) == RngStream(7, 3, 1).raw(64)).all()


def test_chunking_does_not_change_the_stream():
    s1 = RngStream(9)
    joined = np.concatenate([s1.normals(3), s1.normals(2)])
    assert (joined == RngStream(9).normals(5)).all()
    s2 = RngStream(9)
    u = np.concatenate([s2.uniforms(7), s2.uniforms(1)])
    assert (u == RngStream(9).uniforms(8)).all()
    s3 = RngStream(9)
    c = np.concatenate([s3.chisquares(499, 3), s3.chisquares(499, 4)])
    assert c.tobytes() == RngStream(9).chisquares(499, 7).tobytes()


def philox(seed: int, *path: int) -> Philox:
    """The Philox of ``RngStream(seed, *path)``: key ``[seed, path[0] + 1]``, then
    counter ``[0, path[1] + 1, path[2] + 1, path[3] + 1]``, 0 for a missing level."""
    words = [index + 1 for index in path] + [0] * (4 - len(path))
    return Philox(key=np.array([seed, words[0]], dtype=np.uint64),
                  counter=np.array([0, *words[1:]], dtype=np.uint64))


def key_and_counter(stream: RngStream) -> tuple[tuple[int, ...], tuple[int, ...]]:
    state = stream._bits.state["state"]
    return tuple(map(int, state["key"])), tuple(map(int, state["counter"]))


@pytest.mark.parametrize("count", [1, 16383, 49157])
def test_normals_are_numpys_ziggurat_over_the_stream_philox(count):
    s = RngStream(20180108, 5, 0, 2)
    z = s.normals(count)
    assert z.dtype == np.float64 and z.shape == (count,)
    bits = philox(20180108, 5, 0, 2)
    assert z.tobytes() == Generator(bits).standard_normal(count).tobytes()
    # The call consumed exactly the words of the reference draws.
    assert (s.raw(3) == bits.random_raw(3)).all()


def test_normals_follow_the_standard_normal_distribution():
    s = RngStream(20180108, 6)
    assert stats.kstest(s.normals(10**6), stats.norm.cdf).pvalue > 1e-3
    # Tails: |z| > 4 has probability 2 Phi(-4); count it in 10^7 draws.
    draws, p = 10**7, 2.0 * stats.norm.cdf(-4.0)
    tail = sum(int((np.abs(s.normals(10**6)) > 4.0).sum()) for _ in range(draws // 10**6))
    assert abs(tail - draws * p) <= 6.0 * math.sqrt(draws * p * (1.0 - p))


def draw_interleaved(raw, uniforms, normals) -> list[np.ndarray]:
    return [raw(5), normals(3), uniforms(4), normals(16385), raw(2), uniforms(1), normals(1)]


def test_interleaved_raw_uniform_and_normal_draws_replay_in_order():
    s = RngStream(7, 2, 9)
    drawn = draw_interleaved(s.raw, s.uniforms, s.normals)
    again = RngStream(7, 2, 9)
    for a, b in zip(drawn, draw_interleaved(again.raw, again.uniforms, again.normals)):
        assert a.tobytes() == b.tobytes()
    # One Philox serves all three kinds, in call order; a uniform is the
    # generator's own double (the top 53 bits of one word).
    bits = philox(7, 2, 9)
    gen = Generator(bits)
    for a, b in zip(drawn, draw_interleaved(bits.random_raw, gen.random, gen.standard_normal)):
        assert a.tobytes() == b.tobytes()


def test_uniforms_are_the_top_53_bits_of_one_word():
    # The oracle is the formula itself, (word >> 11) * 2**-53, on a twin stream;
    # raw words and normals between the calls keep the two in step.
    s, twin = RngStream(11, 4, 2), RngStream(11, 4, 2)
    for count in (0, 1, 3, 100_003):
        u = s.uniforms(count)
        assert u.tobytes() == ((twin.raw(count) >> np.uint64(11)) * 2.0**-53).tobytes()
        assert (s.raw(3) == twin.raw(3)).all()
        assert s.normals(5).tobytes() == twin.normals(5).tobytes()
    assert key_and_counter(s) == key_and_counter(twin)
    assert s._bits.state["buffer_pos"] == twin._bits.state["buffer_pos"]


def test_normals_of_zero_draws_consume_nothing():
    s = RngStream(4)
    assert s.normals(0).shape == (0,)
    assert (s.raw(2) == RngStream(4).raw(2)).all()


@pytest.mark.parametrize("count", [1, 7, 16385])
@pytest.mark.parametrize("df", [0.5, 4.0, 499])
def test_chisquares_are_numpys_over_the_stream_philox(df, count):
    s = RngStream(20180108, 12, 3, 0, 1)
    x = s.chisquares(df, count)
    assert x.dtype == np.float64 and x.shape == (count,)
    bits = philox(20180108, 12, 3, 0, 1)
    assert x.tobytes() == Generator(bits).chisquare(df, count).tobytes()
    assert (s.raw(3) == bits.random_raw(3)).all()


@pytest.mark.parametrize("df", [0.5, 4.0, 499])
def test_chisquares_follow_the_chi_square_distribution(df):
    draws = RngStream(20180108, 13).chisquares(df, 10**5)
    assert stats.kstest(draws, stats.chi2(df).cdf).pvalue > 1e-3


@pytest.mark.parametrize("n", [5, 500])
def test_x1_squared_of_a_sphere_point_is_beta(n):
    # x_1 = g / sqrt(g^2 + c), with c ~ chi2(n - 1), is the first coordinate
    # of a uniform point on the sphere in R^n, so x_1^2 ~ Beta(1/2, (n - 1)/2).
    s = RngStream(20180108, 14)
    g = s.normals(10**5)
    x1_squared = g * g / (g * g + s.chisquares(n - 1, 10**5))
    assert stats.kstest(x1_squared, stats.beta(0.5, (n - 1) / 2).cdf).pvalue > 1e-3


# Each drawing method with the name of its size argument.
DRAWS = {
    "raw": ("count", lambda s, k: s.raw(k)),
    "uniforms": ("count", lambda s, k: s.uniforms(k)),
    "coins": ("count", lambda s, k: s.coins(k)),
    "normals": ("count", lambda s, k: s.normals(k)),
    "chisquares": ("count", lambda s, k: s.chisquares(499, k)),
    "normal_matrix_rows": ("rows", lambda s, k: s.normal_matrix(k, 3)),
    "normal_matrix_cols": ("cols", lambda s, k: s.normal_matrix(3, k)),
}


@pytest.mark.parametrize("method", sorted(DRAWS))
def test_draw_counts_must_be_integers_at_least_zero_and_a_refusal_draws_nothing(method):
    name, draw = DRAWS[method]
    for bad, message in ((True, "must be an integer, got True"),
                         (2.5, "must be an integer, got 2.5"), (-1, "must be >= 0, got -1")):
        s = RngStream(7)
        with pytest.raises(ValueError, match=f"^{name} {message}$"):
            draw(s, bad)
        assert (s.raw(4) == RngStream(7).raw(4)).all()
    assert draw(RngStream(7), np.int64(5)).tobytes() == draw(RngStream(7), 5).tobytes()


def test_normal_matrix_of_two_negative_sizes_draws_nothing():
    # It once drew two normals and then failed in numpy's reshape.
    s = RngStream(7)
    with pytest.raises(ValueError, match="^rows must be >= 0, got -1$"):
        s.normal_matrix(-1, -2)
    assert (s.raw(4) == RngStream(7).raw(4)).all()


@pytest.mark.parametrize("df", [0, -1.0, float("nan"), float("inf")])
def test_chisquares_need_finite_positive_degrees_of_freedom(df):
    s = RngStream(7)
    with pytest.raises(ValueError, match="df must be finite and > 0"):
        s.chisquares(df, 3)
    assert (s.raw(4) == RngStream(7).raw(4)).all()


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
    assert (a.path, b.path, a.child(3).path) == ((1,), (2,), (1, 3))
    assert not np.array_equal(a.raw(16), b.raw(16))
    assert (root.child(1).raw(16) == RngStream(42).child(1).raw(16)).all()
    assert (root.child(1).child(3).raw(16) == RngStream(42, 1, 3).raw(16)).all()


def test_child_paths_never_collide():
    # Every path of depth <= 4 over these indices takes its own (key, counter),
    # and drawing moves only counter word 0, so the streams stay apart.
    indices = (0, 1, 65534, 65535, 2**64 - 2)
    paths = [()]
    for depth in range(4):
        paths += [(*path, i) for path in paths if len(path) == depth for i in indices]
    assert len(paths) == 1 + 5 + 25 + 125 + 625
    seen = set()
    for path in paths:
        s = RngStream(0, *path)
        seen.add(key_and_counter(s))
        key, counter = key_and_counter(s)
        s.raw(9)  # nine words take three blocks of four
        assert key_and_counter(s) == (key, (3, *counter[1:]))
    assert len(seen) == len(paths)


@pytest.mark.parametrize("seed", [0, 20180108, 2**64 - 1])
def test_root_and_depth_one_streams_keep_the_words_of_key_seed_and_one_plus_index(seed):
    # The layout of version 0.4.0 keyed these streams the same way.
    assert RngStream(seed).raw(9).tobytes() == Philox(
        key=np.array([seed, 0], dtype=np.uint64)).random_raw(9).tobytes()
    for k in (0, 1, 8, 65534):
        assert RngStream(seed).child(k).normals(5).tobytes() == Generator(Philox(
            key=np.array([seed, 1 + k], dtype=np.uint64))).standard_normal(5).tobytes()


def test_a_stream_repr_names_its_seed_and_path():
    assert repr(RngStream(5, 1, 2)) == "RngStream(5, 1, 2)" == repr(RngStream(5).child(1).child(2))


def test_stream_seed_index_and_child_index_must_be_integers_in_range():
    # 2.5 once keyed the stream of child(2), and True the seed 1.
    for bad in (2.5, True):
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {bad}$"):
            RngStream(bad)
        with pytest.raises(ValueError, match=f"^child index must be an integer, got {bad}$"):
            RngStream(1, 0, bad)
        with pytest.raises(ValueError, match=f"^child index must be an integer, got {bad}$"):
            RngStream(1).child(bad)
    assert (RngStream(1).child(np.int64(2)).raw(8) == RngStream(1).child(2).raw(8)).all()
    path = RngStream(1, np.uint64(3)).path
    assert path == (3,) and type(path[0]) is int
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        RngStream(-1)
    with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
        RngStream(2**64)
    with pytest.raises(ValueError, match="child index must be >= 0, got -1"):
        RngStream(1).child(-1)
    last = RngStream(1, 2**64 - 2, 2**64 - 2, 2**64 - 2).child(2**64 - 2)
    assert last.path == (2**64 - 2,) * 4
    out_of_range = r"^child index must be in \[0, 2\*\*64 - 2\], got 18446744073709551615$"
    with pytest.raises(ValueError, match=out_of_range):
        RngStream(1, 2**64 - 1)
    s = RngStream(1, 0)
    with pytest.raises(ValueError, match=out_of_range):
        s.child(2**64 - 1)
    with pytest.raises(ValueError, match="^a stream path has at most 4 child indices, got 5$"):
        last.child(0)
    # A refused child draws nothing, from its parent or anywhere else.
    assert (s.raw(4) == RngStream(1, 0).raw(4)).all()
    assert (last.raw(4) == RngStream(1, *last.path).raw(4)).all()
    with pytest.raises(ValueError, match="at most 4 child indices"):
        RngStream(1, 0, 0, 0, 0, 0)


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


@pytest.mark.parametrize("m", [np.ones(3), np.ones((2, 2, 2)), np.zeros((0, 3))],
                         ids=["1-d", "3-d", "empty"])
def test_singular_values_rejects_what_is_not_a_nonempty_matrix(m):
    with pytest.raises(ValueError, match="nonempty 2-D matrix"):
        singular_values(m)
