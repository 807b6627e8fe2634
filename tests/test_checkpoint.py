import gzip
import io
import json
import os
import zipfile

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
        net.forward(stream.child(40 + k).normal_matrix(9, 7))
    assert not (net.run_means[0] == 0.0).all() and not (net.run_vars[1] == 1.0).all()
    return net


# The archive goes to exactly the path given, whatever its suffix.
@pytest.mark.parametrize("name", ["quad.json"])
def test_quadratic_round_trip_is_bit_exact(tmp_path, name):
    net = quad_net()
    path = tmp_path / name
    save_checkpoint(path, net, CREATED)
    assert os.listdir(tmp_path) == [name]
    loaded, meta = load_checkpoint(path)
    assert isinstance(loaded, QuadraticNet)
    assert same_state(loaded, net)
    assert list(loaded.state()) == ["W1", "w", "b"]
    assert meta == {"created": CREATED, "family": "quadratic", "dims": {"n": 7, "h": 5}}


@pytest.mark.parametrize("name", ["mlp.json"])
def test_mlp_round_trip_is_bit_exact_with_batch_norm_stats(tmp_path, name):
    net = mlp_net()
    path = tmp_path / name
    save_checkpoint(path, net, CREATED)
    assert os.listdir(tmp_path) == [name]
    loaded, meta = load_checkpoint(path)
    assert isinstance(loaded, MlpNet)
    assert loaded.n == 7 and loaded.hidden == (6, 4)
    assert same_state(loaded, net)
    assert {"run_mean0", "run_var0", "run_mean1", "run_var1"} <= loaded.state().keys()
    assert meta == {"created": CREATED, "family": "mlp", "dims": {"n": 7, "hidden": [6, 4]}}
    x = RngStream(3).normal_matrix(11, 7)
    assert same_bits(loaded.logits(x), net.logits(x))


def read_members(source) -> dict[str, np.ndarray]:
    """Each ``.npy`` member of a zip archive, read with zipfile and numpy's npy reader only."""
    with zipfile.ZipFile(source) as z:
        return {name.removesuffix(".npy"): np.lib.format.read_array(z.open(name),
                                                                   allow_pickle=False)
                for name in z.namelist()}


def write_members(path, members: dict, allow_pickle: bool = False) -> None:
    with zipfile.ZipFile(path, "w") as z:
        for name, value in members.items():
            with z.open(f"{name}.npy", "w") as f:
                np.lib.format.write_array(f, np.asanyarray(value), allow_pickle=allow_pickle)


def header_of(members: dict) -> dict:
    return json.loads(members["header"].tobytes().decode("utf-8"))


@pytest.mark.parametrize("make", [quad_net, mlp_net], ids=["quadratic", "mlp"])
def test_file_is_an_npz_of_flat_float64_state_members_and_a_json_header(tmp_path, make):
    net = make()
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net, CREATED)
    with zipfile.ZipFile(path) as z:
        names = z.namelist()
    state = net.state()
    assert names == ["header.npy", *(f"{name}.npy" for name in state)]
    members = read_members(path)
    header = members.pop("header")
    assert header.dtype == np.uint8 and header.ndim == 1
    expected = {"schema": "spherelab-checkpoint/3", "family": net.family, "created": CREATED}
    if isinstance(net, MlpNet):
        expected |= {"dims": {"n": 7, "hidden": [6, 4]},
                     "batch_norm": {"epsilon": 1e-5, "momentum": 0.99}}
    else:
        expected |= {"dims": {"n": 7, "h": 5}}
    assert json.loads(header.tobytes().decode("utf-8")) == expected
    for name, a in state.items():
        member = members[name]
        assert member.dtype.str == "<f8" and member.shape == (a.size,)
        assert member.tobytes() == a.tobytes()


def rewrite(path, **changes) -> None:
    members = read_members(path)
    header = header_of(members) | changes
    members["header"] = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    write_members(path, members)


def test_unknown_schema_rejected(tmp_path):
    path = tmp_path / "net.ckpt"
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


@pytest.mark.parametrize("name", ["net.json", "net.json.gz"])
def test_version_2_json_document_rejected_as_an_unknown_schema(tmp_path, name):
    doc = json.dumps({
        "schema": "spherelab-checkpoint/2", "family": "quadratic", "created": {},
        "dims": {"n": 1, "h": 1}, "state": {"W1": [1.0], "w": [1.0], "b": [-1.0]}})
    path = tmp_path / name
    path.write_bytes(gzip.compress(doc.encode()) if name.endswith(".gz") else doc.encode())
    with pytest.raises(ValueError, match="spherelab-checkpoint/3") as exc:
        load_checkpoint(path)
    assert not isinstance(exc.value, CheckpointError)


def edit_state(path, edit) -> None:
    members = read_members(path)
    header = members.pop("header")
    edit(members)
    write_members(path, {"header": header, **members})


@pytest.mark.parametrize("edit, message", [
    (lambda state: state.pop("run_var1"), r"missing \['run_var1'\], extra \[\]"),
    (lambda state: state.update(w_skip=np.zeros(1)), r"missing \[\], extra \['w_skip'\]"),
    (lambda state: state.update(b0=np.append(state["b0"], 0.0)),
     "'b0' is not a flat array of the 6 values"),
    (lambda state: state.update(b_out=state["b_out"].reshape(())),
     "'b_out' is not a flat array of the 1 values"),
    (lambda state: state.update(w0=state["w0"].reshape(6, 7)),
     "'w0' is not a flat array of the 42 values"),
    (lambda state: state["gamma1"].__setitem__(2, np.nan), "'gamma1' holds non-finite"),
    (lambda state: state.update(w1=state["w1"].astype(np.float32)), "'w1' holds float32"),
    (lambda state: state.update(w_out=state["w_out"].astype(">f8")), "'w_out' holds >f8"),
], ids=["missing", "extra", "wrong-size", "not-flat", "wrong-shape", "nan", "float32",
        "big-endian"])
def test_state_that_does_not_fit_the_dims_raises_checkpoint_error(tmp_path, edit, message):
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, mlp_net())
    edit_state(path, edit)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_missing_header_raises_checkpoint_error(tmp_path):
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, quad_net())
    members = read_members(path)
    del members["header"]
    write_members(path, members)
    with pytest.raises(CheckpointError, match="no 'header' member"):
        load_checkpoint(path)


def npy_bytes(a: np.ndarray, version=None) -> bytes:
    out = io.BytesIO()
    np.lib.format.write_array(out, a, version=version)
    return out.getvalue()


def replace_member(path, name: str, raw: bytes) -> None:
    """Rewrite the archive at ``path`` with member ``name`` holding ``raw`` bytes."""
    with zipfile.ZipFile(path) as z:
        members = {member: z.read(member) for member in z.namelist()}
    members[f"{name}.npy"] = raw
    with zipfile.ZipFile(path, "w") as z:
        for member, data in members.items():
            z.writestr(member, data)


@pytest.mark.parametrize("raw, message", [
    (npy_bytes(np.frombuffer(b'{"a": 1}', dtype=np.uint8).reshape(2, 4)),
     "'header' is not a flat uint8 array"),
    (npy_bytes(np.arange(3.0)), "'header' is not a flat uint8 array"),
    (npy_bytes(np.frombuffer(b"\xff{}", dtype=np.uint8)), "'header' is not UTF-8 JSON"),
    (npy_bytes(np.frombuffer(b"[1, 2]", dtype=np.uint8)), "'header' is not a JSON object"),
    (b"not an npy array", "member 'header' is not an npy array"),
], ids=["2-d", "float64", "not-utf8", "json-list", "not-npy"])
def test_a_malformed_header_raises_checkpoint_error(tmp_path, raw, message):
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, quad_net())
    replace_member(path, "header", raw)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize("raw, message", [
    (npy_bytes(np.zeros(5 * 7), version=(2, 0)), r"npy format version \(2, 0\)"),
    (npy_bytes(np.zeros(5 * 7))[:-8], "the member ends before its values do"),
], ids=["npy-2.0", "short-data"])
def test_a_state_member_of_npy_version_2_or_cut_short_raises_checkpoint_error(
        tmp_path, raw, message):
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, quad_net())
    replace_member(path, "W1", raw)
    with pytest.raises(CheckpointError, match=f"member 'W1' cannot be read: {message}"):
        load_checkpoint(path)


@pytest.mark.parametrize("family, dims", [
    ("quadratic", {"n": 7}), ("quadratic", {"n": 7, "h": -5}), ("quadratic", [7, 5]),
    ("mlp", {"n": 7, "hidden": []}), ("mlp", {"n": 7, "hidden": 6}),
])
def test_dims_that_describe_no_net_raise_checkpoint_error(tmp_path, family, dims):
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, quad_net() if family == "quadratic" else mlp_net())
    rewrite(path, dims=dims)
    with pytest.raises(CheckpointError, match=f"do not describe a {family} net"):
        load_checkpoint(path)


@pytest.mark.parametrize("name", ["net.ckpt"])
@pytest.mark.parametrize("keep", [0.3, 0.7, 0.99])
def test_truncated_file_raises_checkpoint_error(tmp_path, name, keep):
    path = tmp_path / name
    save_checkpoint(path, mlp_net())
    raw = path.read_bytes()
    path.write_bytes(raw[:int(keep * len(raw))])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_corrupt_member_raises_checkpoint_error(tmp_path):
    net = mlp_net()
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net)
    raw = bytearray(path.read_bytes())
    at = raw.find(net.Ws[0].tobytes()) + 100
    raw[at] ^= 0x40
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="'w0' cannot be read"):
        load_checkpoint(path)


UNPICKLED = []


def _unpickled(value):
    UNPICKLED.append(value)
    return value


class Tripwire:
    """Records it was unpickled, were an object member ever unpickled."""

    def __reduce__(self):
        return _unpickled, ("object member",)


def test_object_member_is_never_unpickled(tmp_path):
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, quad_net())
    members = read_members(path)
    members["w"] = np.array([Tripwire()], dtype=object)
    write_members(path, members, allow_pickle=True)
    with pytest.raises(CheckpointError, match="'w' cannot be read"):
        load_checkpoint(path)
    assert UNPICKLED == []


def test_non_finite_state_is_not_saved(tmp_path):
    net = mlp_net()
    net.run_vars[1][3] = np.inf
    path = tmp_path / "net.json"
    with pytest.raises(CheckpointError, match=r"non-finite values of \['run_var1'\]"):
        save_checkpoint(path, net)
    assert not path.exists()


def test_batch_norm_constants_must_match(tmp_path):
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, mlp_net())
    rewrite(path, batch_norm={"epsilon": 1e-3, "momentum": 0.99})
    with pytest.raises(CheckpointError, match="batch-norm"):
        load_checkpoint(path)


def test_unknown_family_rejected(tmp_path):
    path = tmp_path / "net.ckpt"
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


def paper_mlp() -> MlpNet:
    # 500 -> 1000 x 1000: 11.5 MiB of state, 7.6 MiB of it the second weight matrix.
    return MlpNet.init_random(500, (1000, 1000), RngStream(4))


def test_save_streams_members_to_the_file(tmp_path, traced_peak):
    net = paper_mlp()
    assert traced_peak(save_checkpoint, tmp_path / "net.ckpt", net) < 16 * 2**20


def test_load_holds_the_model_and_one_member(tmp_path, traced_peak):
    net = paper_mlp()
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net)
    assert traced_peak(load_checkpoint, path) < 36 * 2**20


def test_load_reads_each_member_into_the_model(tmp_path, traced_peak):
    # The model's 11.5 MiB plus a read buffer; a temporary copy of w1 would add 7.6 MiB.
    net = paper_mlp()
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net)
    assert traced_peak(load_checkpoint, path) < 14 * 2**20
