import gzip
import json

import numpy as np
import pytest

from spherelab.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from spherelab.models import MlpNet, QuadraticNet
from spherelab.rng import RngStream

CREATED = {"seed": 20180108, "R": 1.3, "n": 7, "note": "round trip"}


def same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_state(a, b) -> bool:
    x, y = a.state(), b.state()
    return x.keys() == y.keys() and all(same_bits(x[k], y[k]) for k in x)


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
    assert same_state(loaded, net)
    assert list(loaded.state()) == ["W1", "w", "b"]
    assert meta == {"created": CREATED, "family": "quadratic", "dims": {"n": 7, "h": 5}}


@pytest.mark.parametrize("name", ["mlp.json", "mlp.json.gz"])
def test_mlp_round_trip_is_bit_exact_with_batch_norm_stats(tmp_path, name):
    net = mlp_net()
    path = tmp_path / name
    save_checkpoint(path, net, CREATED)
    loaded, meta = load_checkpoint(path)
    assert isinstance(loaded, MlpNet)
    assert loaded.n == 7 and loaded.hidden == (6, 4)
    assert same_state(loaded, net)
    assert {"run_mean0", "run_var0", "run_mean1", "run_var1"} <= loaded.state().keys()
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


def test_version_1_document_rejected_as_an_unknown_schema(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({
        "schema": "spherelab-checkpoint/1", "family": "quadratic", "created": {},
        "dims": {"n": 1, "h": 1}, "params": {"W1": [1.0], "w": 1.0, "b": -1.0}}))
    with pytest.raises(ValueError, match="schema"):
        load_checkpoint(path)


def edit_state(path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc["state"])
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("edit, message", [
    (lambda state: state.pop("run_var1"), r"missing \['run_var1'\], extra \[\]"),
    (lambda state: state.update(w_skip=[0.0]), r"missing \[\], extra \['w_skip'\]"),
    (lambda state: state["b0"].append(0.0), "'b0' is not a flat list of the 6 values"),
    (lambda state: state.update(b_out=1.0), "'b_out' is not a flat list of the 1 values"),
    (lambda state: state["gamma1"].__setitem__(2, float("nan")), "'gamma1' holds non-finite"),
], ids=["missing", "extra", "wrong-size", "not-a-list", "nan"])
def test_state_that_does_not_fit_the_dims_raises_checkpoint_error(tmp_path, edit, message):
    path = tmp_path / "net.json"
    save_checkpoint(path, mlp_net())
    edit_state(path, edit)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_non_finite_state_is_not_saved(tmp_path):
    net = mlp_net()
    net.run_vars[1][3] = np.inf
    path = tmp_path / "net.json"
    with pytest.raises(CheckpointError, match=r"non-finite values of \['run_var1'\]"):
        save_checkpoint(path, net)
    assert not path.exists()


def test_batch_norm_constants_must_match(tmp_path):
    path = tmp_path / "net.json"
    save_checkpoint(path, mlp_net())
    rewrite(path, batch_norm={"epsilon": 1e-3, "momentum": 0.99})
    with pytest.raises(CheckpointError, match="batch-norm"):
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
