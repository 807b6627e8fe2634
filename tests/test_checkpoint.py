import gzip
import json

import numpy as np
import pytest

from spherelab.checkpoint import load_checkpoint, save_checkpoint
from spherelab.models import MlpNet, QuadraticNet
from spherelab.rng import RngStream

CREATED = {"seed": 20180108, "R": 1.3, "n": 7, "note": "round trip"}


def same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def quad_net() -> QuadraticNet:
    # Values spanning many binades, so a lossy float format would show.
    w1 = RngStream(1).normal_matrix(5, 7) * np.logspace(-300, 300, 7)
    return QuadraticNet(w1, 0.1 + 2.0**-40, -np.pi)


def mlp_net() -> MlpNet:
    stream = RngStream(2)
    net = MlpNet.init_random(7, (6, 4), stream.child(0))
    for i, width in enumerate(net.hidden):
        net.bs[i] = stream.child(10 + i).normals(width)
        net.gammas[i] = 1.0 + stream.child(20 + i).normals(width)
        net.betas[i] = stream.child(30 + i).normals(width)
    net.b_out = np.array(1.0 / 3.0)
    # Train-mode passes move the batch-norm running statistics off 0 and 1.
    for k in range(3):
        net.forward(stream.child(40 + k).normal_matrix(9, 7), mode="train")
    assert not (net.run_means[0] == 0.0).all() and not (net.run_vars[1] == 1.0).all()
    return net


@pytest.mark.parametrize("name", ["quad.json", "quad.json.gz"])
def test_quadratic_round_trip_is_bit_exact(tmp_path, name):
    net = quad_net()
    path = tmp_path / name
    save_checkpoint(path, net, CREATED)
    loaded, meta = load_checkpoint(path)
    assert isinstance(loaded, QuadraticNet)
    assert same_bits(loaded.W1, net.W1)
    assert same_bits(loaded.w, net.w) and same_bits(loaded.b, net.b)
    assert meta == {"created": CREATED, "family": "quadratic", "dims": {"n": 7, "h": 5}}


@pytest.mark.parametrize("name", ["mlp.json", "mlp.json.gz"])
def test_mlp_round_trip_is_bit_exact_with_batch_norm_stats(tmp_path, name):
    net = mlp_net()
    path = tmp_path / name
    save_checkpoint(path, net, CREATED)
    loaded, meta = load_checkpoint(path)
    assert isinstance(loaded, MlpNet)
    assert loaded.n == 7 and loaded.hidden == (6, 4)
    for field in ("Ws", "bs", "gammas", "betas", "run_means", "run_vars"):
        ours, theirs = getattr(net, field), getattr(loaded, field)
        assert len(ours) == len(theirs) == 2
        assert all(same_bits(a, b) for a, b in zip(ours, theirs)), field
    assert same_bits(loaded.w_out, net.w_out) and same_bits(loaded.b_out, net.b_out)
    assert meta == {"created": CREATED, "family": "mlp", "dims": {"n": 7, "hidden": [6, 4]}}
    x = RngStream(3).normal_matrix(11, 7)
    assert same_bits(loaded.logits(x), net.logits(x))


def test_gz_path_writes_gzip(tmp_path):
    path = tmp_path / "net.json.gz"
    save_checkpoint(path, quad_net())
    raw = path.read_bytes()
    assert raw[:2] == b"\x1f\x8b"
    assert json.loads(gzip.decompress(raw))["family"] == "quadratic"
    _, meta = load_checkpoint(path)
    assert meta["created"] == {}


def rewrite(path, **changes) -> None:
    doc = json.loads(path.read_text())
    doc.update(changes)
    path.write_text(json.dumps(doc))


def test_unknown_schema_rejected(tmp_path):
    path = tmp_path / "net.json"
    save_checkpoint(path, quad_net())
    rewrite(path, schema="spherelab-checkpoint/999")
    with pytest.raises(ValueError, match="schema"):
        load_checkpoint(path)


def test_unknown_family_rejected(tmp_path):
    path = tmp_path / "net.json"
    save_checkpoint(path, quad_net())
    rewrite(path, family="transformer")
    with pytest.raises(ValueError, match="family"):
        load_checkpoint(path)


@pytest.mark.parametrize("model", [object(), {"W1": [[1.0]]}, None])
def test_unsupported_model_raises_type_error(tmp_path, model):
    path = tmp_path / "net.json"
    with pytest.raises(TypeError):
        save_checkpoint(path, model)
    assert not path.exists()
