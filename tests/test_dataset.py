import numpy as np
import pytest

from spherelab.dataset import _SPHERE_BLOCK, SphereConfig, sample_batch, sphere_points
from spherelab.rng import CHILD_DATASET, RngStream


def test_config_validation():
    with pytest.raises(ValueError):
        SphereConfig(n=1)
    with pytest.raises(ValueError):
        SphereConfig(n=10, R=1.0)
    with pytest.raises(ValueError):
        SphereConfig(n=10, R=0.9)
    for radius in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            SphereConfig(n=5, R=radius)


def test_samples_land_on_a_shell():
    cfg = SphereConfig(n=20, seed=3)
    xs, labels = sample_batch(cfg, RngStream(cfg.seed).child(6), 50, shell="both")
    assert labels.dtype == np.uint8 and set(labels.tolist()) <= {0, 1}
    target = np.where(labels == 0, 1.0, cfg.R)
    assert np.abs(np.linalg.norm(xs, axis=1) - target).max() <= 1e-9


def test_batch_samples_land_on_shells():
    cfg = SphereConfig(n=500, seed=5)
    xs, labels = sample_batch(cfg, RngStream(5), 1000)
    norms = np.linalg.norm(xs, axis=1)
    assert np.abs(norms[labels == 0] - 1.0).max() <= 1e-9
    assert np.abs(norms[labels == 1] - cfg.R).max() <= 1e-9


def test_inner_coordinate_variance_matches_one_over_n():
    # Coordinates of a uniform point on the unit shell have variance 1/n.
    cfg = SphereConfig(n=500, seed=11)
    xs, labels = sample_batch(cfg, RngStream(11), 10**5)
    inner = xs[labels == 0]
    var = inner.var(axis=0).mean()
    assert abs(var - 1.0 / cfg.n) < 0.05 / cfg.n


def reference_sphere_points(stream: RngStream, count: int, n: int) -> np.ndarray:
    """One whole-matrix pass: all normals first, then every row scaled at once."""
    u = stream.normals(count * n).reshape(count, n)
    return u / np.sqrt((u * u).sum(1))[:, None]


@pytest.mark.parametrize("n,count", [
    (n, count)
    for n in (500, 3)
    for rows in [_SPHERE_BLOCK // n]
    for count in (rows - 1, rows, rows + 1, 3 * rows + 5)
] + [(500, 0),
     (_SPHERE_BLOCK + 7, 3)])  # n above the block: one row per block
def test_blocked_sphere_points_equal_a_whole_matrix_reference(n, count):
    s = RngStream(20180108, 11)
    z = sphere_points(s, count, n)
    assert z.dtype == np.float64 and z.shape == (count, n) and z.flags.c_contiguous
    assert z.tobytes() == reference_sphere_points(RngStream(20180108, 11), count, n).tobytes()
    # The call consumed exactly the words of its normals.
    fresh = RngStream(20180108, 11)
    fresh.normal_matrix(count, n)
    assert (s.raw(3) == fresh.raw(3)).all()


@pytest.mark.parametrize("shell", ["inner", "outer"])
def test_fixed_shell_batch_is_sphere_points_and_draws_no_coin(shell):
    cfg = SphereConfig(n=7, seed=4)
    s = RngStream(20180108, 12)
    xs, labels = sample_batch(cfg, s, 300, shell)
    ref_stream = RngStream(20180108, 12)
    ref = sphere_points(ref_stream, 300, cfg.n)
    if shell == "outer":
        ref *= cfg.R
    assert xs.tobytes() == ref.tobytes()
    assert labels.dtype == np.uint8 and (labels == (shell == "outer")).all()
    assert (s.raw(3) == ref_stream.raw(3)).all()  # no coin words were taken


def test_sample_batch_rejects_an_unknown_shell_or_count():
    cfg = SphereConfig(n=4)
    with pytest.raises(ValueError, match="shell must be"):
        sample_batch(cfg, RngStream(1), 5, "middle")
    with pytest.raises(ValueError, match="count"):
        sample_batch(cfg, RngStream(1), 0, "inner")


def training_set(cfg: SphereConfig, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The fixed training set ``train()`` builds for ``train_set_size=N`` on ``cfg``."""
    return sample_batch(cfg, RngStream(cfg.seed).child(CHILD_DATASET), N)


def test_fixed_seed_reproduces_dataset():
    cfg = SphereConfig(n=10, seed=123)
    a_xs, a_labels = training_set(cfg, 500)
    b_xs, b_labels = training_set(cfg, 500)
    assert (a_xs == b_xs).all()
    assert (a_labels == b_labels).all()


def test_training_set_size_and_shells():
    cfg = SphereConfig(n=8, seed=1)
    xs, labels = training_set(cfg, 1000)
    assert len(xs) == 1000 and len(labels) == 1000
    norms = np.linalg.norm(xs, axis=1)
    on_inner = np.abs(norms - 1.0) <= 1e-9
    on_outer = np.abs(norms - cfg.R) <= 1e-9
    assert (on_inner | on_outer).all()
    assert xs.shape == (1000, 8) and set(labels.tolist()) <= {0, 1}


def test_class_balance_binomial():
    # Class counts are binomial(N, 1/2): stay within 4 sigma of N/2.
    cfg = SphereConfig(n=16, seed=2)
    _, labels = training_set(cfg, 10**6)
    outer = int(labels.sum())
    assert abs(outer - 500_000) < 4 * np.sqrt(10**6 / 4)


def test_different_seeds_give_disjoint_sets():
    a, _ = training_set(SphereConfig(n=6, seed=1), 200)
    b, _ = training_set(SphereConfig(n=6, seed=2), 200)
    rows_a = {row.tobytes() for row in a}
    rows_b = {row.tobytes() for row in b}
    assert not rows_a & rows_b


def test_rotational_symmetry_of_the_mean():
    # Mean of m uniform shell points has coordinates ~ N(0, 1/(n m)).
    cfg = SphereConfig(n=50, seed=9)
    xs, labels = sample_batch(cfg, RngStream(9), 10**5)
    inner = xs[labels == 0]
    m = inner.shape[0]
    bound = 5.0 * np.sqrt(1.0 / (cfg.n * m)) * np.sqrt(cfg.n)
    assert np.linalg.norm(inner.mean(axis=0)) <= bound

