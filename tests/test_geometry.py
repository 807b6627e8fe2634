import math

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import brentq
from scipy.stats import f, norm

from spherelab import geometry
from spherelab.geometry import (
    InfeasibleTargetError,
    bound_curve,
    clt_error_rate,
    minimal_subspace_fraction,
    theorem_bound,
)
from spherelab.models import AlphaSpectrum
from spherelab.rng import RngStream

R = 1.3


def clt_z(gamma: np.ndarray) -> float:
    """mu_hat / sigma_hat of X = sum (gamma_i - 1) u_i^2, by exact sums."""
    centered = [float(g) - 1.0 for g in gamma]
    mu_hat = math.fsum(centered)
    sigma_hat = math.sqrt(2.0 * math.fsum(c * c for c in centered))
    return mu_hat / sigma_hat


def test_clt_error_rate_keeps_deep_tails():
    # One inflated coefficient at n=500: both shells' rates are far below
    # 1e-16, where 1 - (1 - Phi) rounds to exactly 0.
    alphas = np.full(500, 0.7572)
    alphas[0] = 2.0
    spec = AlphaSpectrum(alphas, R)
    inner = clt_error_rate(spec, "inner")
    outer = clt_error_rate(spec, "outer")
    expected_inner = norm.cdf(clt_z(alphas))
    expected_outer = norm.cdf(-clt_z(R * R * alphas))
    assert 0.0 < expected_inner < 1e-50 and 0.0 < expected_outer < 1e-50
    assert inner == pytest.approx(expected_inner, rel=1e-12, abs=0.0)
    assert outer == pytest.approx(expected_outer, rel=1e-12, abs=0.0)


def test_clt_error_rate_tails_of_one_statistic_sum_to_one():
    # With R = 1 both shells see the same X, so the two rates are its two
    # tails. Standardised draws plus an offset of 0.02 give
    # z = 500 * 0.02 / sqrt(2 * 500 * (1 + 0.02**2)) ~ 0.32 for any stream,
    # so both rates are near one half.
    u = RngStream(31).normals(500)
    alphas = 1.0 + 0.01 * ((u - u.mean()) / u.std() + 0.02)
    spec = AlphaSpectrum(alphas, 1.0)
    inner = clt_error_rate(spec, "inner")
    outer = clt_error_rate(spec, "outer")
    assert 0.05 < inner < 0.95
    assert inner == pytest.approx(norm.cdf(clt_z(alphas)), rel=1e-12, abs=0.0)
    assert abs(inner + outer - 1.0) <= 1e-15


def test_clt_error_rate_of_a_boundary_on_the_shell_is_zero():
    # gamma = 1 everywhere gives sigma_hat = 0: alpha = 1 on the inner shell,
    # and R^2 alpha = 4 * 0.25 on the outer shell of radius 2.
    assert clt_error_rate(AlphaSpectrum(np.ones(40), 2.0), "inner") == 0.0
    assert clt_error_rate(AlphaSpectrum(np.full(40, 0.25), 2.0), "outer") == 0.0


def test_clt_error_rate_warns_below_thirty_dimensions_and_names_the_two_shells():
    with pytest.warns(UserWarning, match="n=29 < 30"):
        clt_error_rate(AlphaSpectrum(np.full(29, 0.9), R), "inner")
    with pytest.raises(ValueError, match="shell must be 'inner' or 'outer', got 'both'"):
        clt_error_rate(AlphaSpectrum(np.full(40, 0.9), R), "both")


def mc_error_rate(alphas, R, shell, samples, stream):
    """Sampling oracle for shell error rates, serial.

    A uniform shell point is u/|u| with u Gaussian, so the sign of
    sum (gamma_i - 1) x_i^2 is the sign of sum (gamma_i - 1) u_i^2. Chunk i
    of 16384 samples draws from ``stream.child(i)``.
    """
    gamma = np.asarray(alphas, dtype=np.float64) * (1.0 if shell == "inner" else R * R)
    hits = 0
    for chunk, start in enumerate(range(0, samples, 16384)):
        count = min(16384, samples - start)
        u = stream.child(chunk).normals(count * gamma.size).reshape(count, gamma.size)
        stat = (u * u) @ (gamma - 1.0)
        hits += int((stat > 0.0).sum() if shell == "inner" else (stat < 0.0).sum())
    return hits / samples


def test_two_valued_spectrum_inner_rate_is_an_f_tail():
    # 50 coefficients of 1.6 and 450 of 0.9: an inner point errs when
    # 0.6 * A > 0.1 * B with A ~ chi2(50), B ~ chi2(450), i.e. when
    # (A / 50) / (B / 450) > 1.5, an F(50, 450) tail.
    alphas = np.concatenate([np.full(50, 1.6), np.full(450, 0.9)])
    exact = f.sf(1.5, 50, 450)
    assert exact == pytest.approx(0.01863, abs=5e-6)
    samples = 10**5
    se = math.sqrt(exact * (1.0 - exact) / samples)
    estimate = mc_error_rate(alphas, R, "inner", samples, RngStream(20180108).child(5))
    assert abs(estimate - exact) <= 6.0 * se
    # The paper's CLT estimate gives 0.01267 here, 32 % low: 14 SE of the
    # oracle away from the exact tail.
    clt = clt_error_rate(AlphaSpectrum(alphas, R), "inner")
    assert clt == pytest.approx(0.01267, abs=5e-6)
    assert 0.3 < 1.0 - clt / exact < 0.34


# ---------------------------------------------------------------------------
# Minimal subspace fraction


def equalized_truncated_rate(n: int, k: int, R: float) -> tuple[float, float]:
    """(b, rate) where the CLT rates of thresholding the first k of n squared
    coordinates at b are equal on both shells, by a scipy root find."""
    def z(b, gamma):  # mu_hat / sigma_hat for k coefficients gamma / b, n - k zeros
        c = gamma / b - 1.0
        return (k * c - (n - k)) / math.sqrt(2.0 * (k * c * c + (n - k)))

    def gap(b):
        return norm.logcdf(z(b, 1.0)) - norm.logcdf(-z(b, R * R))

    b = brentq(gap, 0.999 * k / n, 1.001 * R * R * k / n, xtol=1e-15, rtol=1e-15)
    return b, float(norm.cdf(z(b, 1.0)))


@pytest.mark.parametrize("target,k", [(1e-2, 126), (1e-4, 236), (1e-8, 344),
                                      (1e-12, 395), (1e-20, 445), (1e-40, 487)])
def test_minimal_subspace_fraction_is_the_smallest_k_meeting_the_target(target, k):
    # The CLT k column of the ROADMAP's minimal-subspace table, n = 500, R = 1.3.
    result = minimal_subspace_fraction(500, target, R)
    assert result.k == k and result.fraction == k / 500
    b, rate = equalized_truncated_rate(500, k, R)
    assert rate <= target < equalized_truncated_rate(500, k - 1, R)[1]
    assert result.b == pytest.approx(b, rel=1e-12)
    assert result.achieved_rate == pytest.approx(rate, rel=1e-9)


def test_minimal_subspace_fraction_equalizes_each_k_once(monkeypatch):
    # k = n, then 9 bisection steps over k = 1, ..., 499; the chosen k is
    # one of them, and its value is reused rather than computed again.
    calls = []
    equalize = geometry._equalized_rates

    def counting(n, k, radius):
        calls.append(k)
        return equalize(n, k, radius)

    expected = equalize(500, 126, R)
    monkeypatch.setattr(geometry, "_equalized_rates", counting)
    result = minimal_subspace_fraction(500, 1e-2, R)
    assert (result.k, result.b, result.achieved_rate) == (126, *expected)
    assert len(calls) == 10 == len(set(calls)) and calls[0] == 500 and 126 in calls


def test_minimal_subspace_fraction_rejects_unreachable_and_invalid_targets():
    # k = n reaches only about 1.3e-56 at n = 500.
    assert equalized_truncated_rate(500, 500, R)[1] == pytest.approx(1.3e-56, rel=0.05)
    with pytest.raises(InfeasibleTargetError, match="k=n=500"):
        minimal_subspace_fraction(500, 1e-300, R)
    for target in (0.0, -1e-3, 0.5, 0.7, float("nan"), "0.01", None, True):
        with pytest.raises(ValueError, match="target error"):
            minimal_subspace_fraction(500, target, R)
    with pytest.raises(ValueError, match="n >= 30"):
        minimal_subspace_fraction(29, 1e-2, R)
    for n in (100.5, True):
        with pytest.raises(ValueError, match=f"n must be an integer, got {n}"):
            minimal_subspace_fraction(n, 1e-2, R)
    for radius in (float("nan"), float("inf"), 1.0, 0.5):
        with pytest.raises(ValueError, match="outer radius must be finite and > 1"):
            minimal_subspace_fraction(100, 0.01, radius)


# ---------------------------------------------------------------------------
# Cap distances


def chord(x1, t):
    """Distance on the unit sphere from height x1 < t to the cap x_1 >= t."""
    return np.sqrt((t - x1) ** 2 + (math.sqrt(1.0 - t * t) - np.sqrt(1.0 - x1 * x1)) ** 2)


@pytest.mark.parametrize("formula", ["paper", "exact_chord"])
def test_mc_cap_distance_equals_a_serial_in_order_loop(formula):
    # Six chunks of 16384 points, the last one partial; chunk c draws its
    # normals and then its chi-squares from stream.child(c), and every mu
    # and both columns use that one sample. At this seed adding the chunk
    # sums in reverse order changes the last bit of both columns of point 0.
    n, mus, samples = 5, [0.3, 0.05], 5 * 16384 + 777
    j = ["paper", "exact_chord"].index(formula)
    stream = RngStream(23).child(9)
    curve = bound_curve(n, mus, samples, stream)
    assert (curve.n, curve.samples) == (n, samples)
    assert [p.mu for p in curve.points] == mus
    totals = [0.0] * len(mus)
    for chunk, start in enumerate(range(0, samples, 16384)):
        count, chunk_stream = min(16384, samples - start), stream.child(chunk)
        g = chunk_stream.normals(count)
        c = chunk_stream.chisquares(n - 1, count)
        x1, far = g / np.sqrt(g * g + c), np.sqrt(c / (g * g + c))  # far = sqrt(1 - x1^2)
        for i, mu in enumerate(mus):
            t = theorem_bound(mu, n)
            if formula == "paper":
                d = np.maximum(math.sqrt(2.0) * (t - x1), 0.0)
            else:
                d = np.where(x1 < t, np.sqrt((t - x1) ** 2 + (math.sqrt(1.0 - t * t) - far) ** 2),
                             0.0)
            totals[i] += float(d.sum())
    for mu, p, total in zip(mus, curve.points, totals):
        assert p.d_theory == theorem_bound(mu, n)
        assert (p.d_mc_paper_formula, p.d_mc_exact_chord)[j] == total / samples


@pytest.mark.parametrize("mus", [[0.1], [0.3, 1e-2, 1e-4]])
def test_bound_curve_draws_samples_normals_and_chisquares_whatever_the_mus(monkeypatch, mus):
    # Each chunk stream's next words are those of a fresh one after
    # normals(count) and chisquares(n - 1, count), so a curve draws exactly
    # `samples` of each, for one mu or three.
    n, samples = 20, 2 * 16384 + 11
    children, child = [], RngStream.child

    def recording_child(self, index):
        children.append((index, child(self, index)))
        return children[-1][1]

    monkeypatch.setattr(RngStream, "child", recording_child)
    stream = RngStream(41).child(2)
    children.clear()
    bound_curve(n, mus, samples, stream)
    monkeypatch.undo()
    assert [index for index, _ in children] == [0, 1, 2]
    for (index, drawn), count in zip(children, [16384, 16384, 11]):
        fresh = stream.child(index)
        fresh.normals(count)
        fresh.chisquares(n - 1, count)
        assert (drawn.raw(4) == fresh.raw(4)).all()


def test_bound_curve_of_no_mu_queues_no_job(monkeypatch):
    def no_chunks(*args):
        raise AssertionError("a chunk was drawn")

    monkeypatch.setattr(geometry, "_cap_distance_sums", no_chunks)
    curve = bound_curve(7, [], 10**4, RngStream(1))
    assert (curve.n, curve.samples, curve.points) == (7, 10**4, [])


def test_mc_cap_distance_exact_chord_matches_quadrature_at_n500():
    # On the unit sphere in R^n, x_1 has density proportional to
    # (1 - x^2)^((n - 3) / 2) on [-1, 1].
    n, mu, samples = 500, 1e-2, 40_000
    t = theorem_bound(mu, n)

    def density(x):
        return (1.0 - x * x) ** ((n - 3) / 2)

    def moment(power):
        return integrate.quad(lambda x: chord(x, t) ** power * density(x), -1.0, t,
                              points=[0.0], epsabs=0.0, epsrel=1e-12, limit=200)[0]

    mass = integrate.quad(density, -1.0, 1.0, points=[0.0], epsabs=0.0,
                          epsrel=1e-12, limit=200)[0]
    mean = moment(1) / mass
    se = math.sqrt((moment(2) / mass - mean * mean) / samples)
    estimate = bound_curve(n, [mu], samples, RngStream(29)).points[0].d_mc_exact_chord
    assert abs(estimate - mean) <= 6.0 * se
    assert abs(mean - theorem_bound(mu, n)) < 0.01 * mean


def test_mc_cap_distance_memory_stays_one_row_block_per_job(traced_peak):
    # A whole 16384 x 500 chunk matrix is 65.5 MB; a chunk holds a few
    # arrays of its 16384 values of x_1.
    stream = RngStream(20180108, 3)
    bound_curve(500, [1e-2], 20_000, stream)  # warm up
    assert traced_peak(bound_curve, 500, [1e-2], 20_000, stream) < 8e6


def test_bound_curve_needs_enough_samples():
    with pytest.raises(ValueError, match="samples must be >= 10000, got 9999"):
        bound_curve(7, [1e-2], 10**4 - 1, RngStream(1))


@pytest.mark.parametrize("mu", [0.5, 0.3, 0.1, 1e-2, 1e-4, 1e-8, 1e-12, 1e-16, 2.24e-25,
                                1e-100, 1e-300])
@pytest.mark.parametrize("n", [2, 500, 10_000])
def test_theorem_bound_is_the_gaussian_quantile_over_sqrt_n(mu, n):
    expected = norm.isf(mu) / math.sqrt(n)
    assert theorem_bound(mu, n) == pytest.approx(expected, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("mu", [0.0, -1e-3, 0.5000001, 1.0, float("nan"), "0.1", None, True])
def test_cap_measure_outside_zero_half_rejected(mu):
    with pytest.raises(ValueError, match="cap measure"):
        theorem_bound(mu, 10)


def test_theorem_bound_accepts_the_closed_end_and_rejects_low_dimension():
    assert math.copysign(1.0, theorem_bound(0.5, 10)) == 1.0 and theorem_bound(0.5, 10) == 0.0
    assert theorem_bound(1e-300, 10) == pytest.approx(norm.isf(1e-300) / math.sqrt(10), rel=1e-12)
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match="n must be >= 2"):
            theorem_bound(0.1, n)
    for n in (5.5, 5.0, True):
        with pytest.raises(ValueError, match="n must be an integer"):
            theorem_bound(0.1, n)
    assert theorem_bound(0.1, np.int64(5)) == theorem_bound(0.1, 5)


def test_exact_chord_rejects_a_cap_higher_than_the_pole(monkeypatch):
    # n = 7, mu = 1e-4: t = Phi^-1(1 - 1e-4)/sqrt(7) = 1.41 > 1, so the cap
    # boundary circle does not exist.
    def no_chunks(*args):
        raise AssertionError("a chunk was drawn")

    monkeypatch.setattr(geometry, "_cap_distance_sums", no_chunks)
    pattern = r"n = 7 .*mu = 0\.0001 .*t = 1\.406"
    with pytest.raises(ValueError, match=pattern):
        bound_curve(7, [1e-2, 1e-4], 10**4, RngStream(1))
    with pytest.raises(ValueError, match="samples must be an integer"):
        bound_curve(5, [0.1], 2e4, RngStream(1))
    with pytest.raises(ValueError, match="n must be an integer"):
        bound_curve(5.0, [0.1], 2 * 10**4, RngStream(1))
    for mus in (0.01, np.float64(0.01), [[0.01]]):
        with pytest.raises(ValueError, match="mus must be a sequence of cap measures"):
            bound_curve(10, mus, 10**4, RngStream(1))

