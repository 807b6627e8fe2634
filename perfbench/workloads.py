"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Each workload is built from ``(size, seed)`` and offers

- ``setup()``: build the inputs and warm every code path up (timed as
  ``setup_s``);
- ``prepare()``: untimed per-pass state, such as a fresh copy of the model;
- ``execute(job)``: the timed pass, returning ``(raw, phases)``, phases
  being wall seconds of its parts;
- ``verify(raw)``: ``(check name, passed)`` pairs from references that
  share no code with spherelab (see :mod:`oracles`);
- ``digest(raw)``: a hash of every output, equal for equal seeds;
- ``rate(raw, phases, wall)``: samples per second of its sampling phase;
- ``finish(raw, workdir)``: checks on work that follows the timed passes;
- ``summary(raw)``: a few output values for the report.

Library calls go through module attributes (``training.train``), so a
tracer that swaps those attributes sees every call.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import os
import tempfile
import time

import numpy as np

import oracles
from spherelab import attack, checkpoint, dataset, geometry, models, rng, training

R = 1.3
# Streams for the inputs the benchmark builds itself; the library's own
# registry in spherelab.rng uses children 1-7.
_CHILD_ORTHOGONAL = 16
_CHILD_SPECTRUM = 17
_CHILD_CURVE = 18
_CHILD_WARMUP = 19
_Z = 6.0  # standard errors a Monte Carlo check allows


@dataclasses.dataclass(frozen=True)
class Size:
    """Problem sizes shared by the workloads."""

    n: int
    quad_hidden: int
    mlp_hidden: tuple[int, ...]
    batch: int
    quad_steps: int
    relu_steps: int
    metric_every: int
    eval_batch: int
    probe_every: int
    probe_starts: int
    probe_steps: int
    planted_errors: int  # alphas placed above 1 in quad_analyze
    error_samples: int  # per call of evaluate_error_rate
    error_calls: int
    attack_starts: int
    attack_steps: int
    curve_mus: tuple[float, ...]
    curve_samples: int


# The paper's scale: n = 500, R = 1.3, quadratic h = 1000, MLP 1000x1000,
# batch 50, attacks of 1000 steps.
PAPER = Size(n=500, quad_hidden=1000, mlp_hidden=(1000, 1000), batch=50,
             quad_steps=400, relu_steps=700, metric_every=100, eval_batch=1000,
             probe_every=350, probe_starts=10, probe_steps=200, planted_errors=5,
             error_samples=20_000, error_calls=10, attack_starts=100,
             attack_steps=1000, curve_mus=(1e-2, 1e-4), curve_samples=20_000)
# Seconds-long runs of the same code paths, for the benchmark's own tests.
SMALL = Size(n=40, quad_hidden=80, mlp_hidden=(32, 32), batch=20,
             quad_steps=400, relu_steps=700, metric_every=100, eval_batch=200,
             probe_every=350, probe_starts=4, probe_steps=10, planted_errors=2,
             error_samples=2000, error_calls=2, attack_starts=10,
             attack_steps=1000, curve_mus=(1e-2,), curve_samples=10_000)
SIZES = {"paper": PAPER, "small": SMALL}


def _hash(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str((part.dtype.str, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def _model_arrays(model) -> dict[str, np.ndarray]:
    arrays = dict(model.params())
    if isinstance(model, models.MlpNet):
        for i in range(len(model.hidden)):
            arrays[f"run_mean{i}"] = model.run_means[i]
            arrays[f"run_var{i}"] = model.run_vars[i]
    return arrays


def _same_bits(a, b) -> bool:
    x, y = _model_arrays(a), _model_arrays(b)
    return x.keys() == y.keys() and all(
        x[k].dtype == y[k].dtype and x[k].shape == y[k].shape
        and x[k].tobytes() == y[k].tobytes() for k in x)


class TrainWorkload:
    """``train()`` on fresh online batches from a seeded initial model."""

    def __init__(self, name: str, family: str, size: Size, seed: int) -> None:
        self.name = name
        self.family = family
        self.size = size
        self.seed = seed
        self.sphere = dataset.SphereConfig(n=size.n, R=R, seed=seed)
        probe = None
        if family == "mlp":
            probe = training.ProbeConfig(every=size.probe_every, starts=size.probe_starts,
                                         steps=size.probe_steps, step_size=0.01)
        steps = size.quad_steps if family == "quadratic" else size.relu_steps
        self.cfg = training.TrainConfig(
            steps=steps, batch_size=size.batch, seed=seed,
            metric_every=size.metric_every, eval_batch=size.eval_batch, probe=probe)
        self.model0 = None

    def config(self) -> dict:
        model = ({"family": "quadratic", "n": self.size.n, "h": self.size.quad_hidden}
                 if self.family == "quadratic" else
                 {"family": "mlp", "n": self.size.n, "hidden": list(self.size.mlp_hidden)})
        return {"sphere": dataclasses.asdict(self.sphere),
                "train": dataclasses.asdict(self.cfg), "model": model}

    def setup(self) -> None:
        stream = rng.RngStream(self.seed).child(rng.CHILD_INIT)
        if self.family == "quadratic":
            self.model0 = models.QuadraticNet.init_random(self.size.n, self.size.quad_hidden,
                                                          stream)
        else:
            self.model0 = models.MlpNet.init_random(self.size.n, self.size.mlp_hidden, stream)
        probe = self.cfg.probe and dataclasses.replace(self.cfg.probe, every=2, steps=2)
        warm = dataclasses.replace(self.cfg, steps=2, metric_every=2, probe=probe)
        training.train(copy.deepcopy(self.model0), warm, self.sphere)

    def prepare(self):
        return copy.deepcopy(self.model0)

    def execute(self, model):
        return training.train(model, self.cfg, self.sphere), {}

    def verify(self, result) -> list[tuple[str, bool]]:
        losses = [m.eval_loss for m in result.metrics]
        losses += [m.train_loss for m in result.metrics if m.train_loss is not None]
        return [
            ("train.completed", not result.aborted
             and result.completed_steps == self.cfg.steps),
            ("train.losses_finite", all(math.isfinite(x) for x in losses)),
            ("train.eval_loss_fell",
             result.metrics[-1].eval_loss < result.metrics[0].eval_loss),
        ]

    def digest(self, result) -> str:
        arrays = _model_arrays(result.model)
        return _hash([m.to_dict() for m in result.metrics], result.completed_steps,
                     *(arrays[k] for k in sorted(arrays)))

    def rate(self, result, phases, wall: float) -> float:
        return result.completed_steps * self.cfg.batch_size / wall

    def finish(self, result, workdir) -> list[tuple[str, bool]]:
        """Checkpoint round trip of the ReLU net's final parameters."""
        if self.family != "mlp":
            return []
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=workdir) as tmp:
            path = os.path.join(tmp, "model.json")
            checkpoint.save_checkpoint(path, result.model, created={"seed": self.seed})
            loaded, _ = checkpoint.load_checkpoint(path)
        return [("checkpoint.round_trip_bits", _same_bits(result.model, loaded))]

    def summary(self, result) -> dict:
        return {"eval_loss_first": result.metrics[0].eval_loss,
                "eval_loss_last": result.metrics[-1].eval_loss,
                "worst_loss": [m.worst_loss for m in result.metrics
                               if m.worst_loss is not None]}


@dataclasses.dataclass
class AnalyzeOutput:
    spectrum: models.AlphaSpectrum
    perfect: bool
    violations: int
    clt: tuple[float, float]
    errors: list  # one ErrorRateEstimate per call
    error_call_s: list[float]
    attacks: list
    curve: geometry.BoundCurve


class AnalyzeWorkload:
    """The post-training analysis of a constructed quadratic net.

    ``W1 = diag(s) Q`` with ``Q`` a seeded random orthogonal matrix, so the
    singular values of W1 are exactly ``s``. With ``w = 0.5`` and
    ``b = -2`` the ellipsoid coefficients are ``alpha = s^2 / 4``: all but
    ``planted_errors`` of them are drawn strictly inside [1/R^2, 1], the
    rest in [1.5, 2). The net never errs on the outer shell. At n = 500 it
    errs on an unsampleably small part of the inner shell, and yet PGD
    reaches an error from every inner start.
    """

    name = "quad_analyze"
    w = 0.5
    b = -2.0

    def __init__(self, size: Size, seed: int) -> None:
        self.size = size
        self.seed = seed
        self.sphere = dataset.SphereConfig(n=size.n, R=R, seed=seed)
        self.attack_cfg = attack.AttackConfig(mode="nearest", steps=size.attack_steps,
                                              starts=size.attack_starts)
        self._references = None

    def config(self) -> dict:
        return {"sphere": dataclasses.asdict(self.sphere),
                "model": {"family": "quadratic", "n": self.size.n, "h": self.size.n,
                          "w": self.w, "b": self.b,
                          "planted_errors": self.size.planted_errors},
                "error_samples": self.size.error_samples,
                "error_calls": self.size.error_calls,
                "attack": dataclasses.asdict(self.attack_cfg), "attack_shell": "inner",
                "curve_mus": list(self.size.curve_mus),
                "curve_samples": self.size.curve_samples}

    def setup(self) -> None:
        n = self.size.n
        root = rng.RngStream(self.seed)
        q, r = np.linalg.qr(root.child(_CHILD_ORTHOGONAL).normal_matrix(n, n))
        self.Q = q * np.sign(np.diag(r))
        u = root.child(_CHILD_SPECTRUM).uniforms(n)
        lo = 1.0 / (R * R)
        alphas = lo + (1.0 - lo) * (0.01 + 0.98 * u)
        k = self.size.planted_errors
        alphas[:k] = 1.5 + 0.5 * u[:k]
        self.alphas = alphas
        self.s = np.sqrt(alphas * -self.b / self.w)
        self.net = models.QuadraticNet(self.s[:, None] * self.Q, self.w, self.b)
        warm = root.child(_CHILD_WARMUP)
        models.alpha_spectrum(models.QuadraticNet(self.net.W1[:8, :8], self.w, self.b), R)
        training.evaluate_error_rate(self.net, self.sphere, 64, warm.child(0))
        attack.run_attack(self.net, self.sphere,
                          attack.AttackConfig(mode="nearest", steps=2, starts=2), warm.child(1))

    def prepare(self):
        return None

    def execute(self, _):
        """The four phases, with the error-rate calls spread between the others.

        Spread over the whole pass, the fastest call (see ``rate``) can come
        from any quiet moment of the host during the pass.
        """
        root = rng.RngStream(self.seed)
        mc = root.child(rng.CHILD_ERROR_MC)
        errors, error_call_s = [], []

        def error_mc(calls: int) -> None:
            for _ in range(calls):
                c0 = time.perf_counter()
                errors.append(training.evaluate_error_rate(
                    self.net, self.sphere, self.size.error_samples, mc.child(len(errors))))
                error_call_s.append(time.perf_counter() - c0)

        slots = [len(s) for s in np.array_split(np.arange(self.size.error_calls), 4)]
        error_mc(slots[0])
        t0 = time.perf_counter()
        spectrum = models.alpha_spectrum(self.net, R)
        perfect, violations = models.is_perfect(spectrum)
        clt = (geometry.clt_error_rate(spectrum, "inner"),
               geometry.clt_error_rate(spectrum, "outer"))
        t1 = time.perf_counter()
        error_mc(slots[1])
        t2 = time.perf_counter()
        attacks = attack.run_attack(self.net, self.sphere, self.attack_cfg,
                                    root.child(rng.CHILD_ATTACK), shell="inner")
        t3 = time.perf_counter()
        error_mc(slots[2])
        t4 = time.perf_counter()
        curve = geometry.bound_curve(self.size.n, list(self.size.curve_mus),
                                     self.size.curve_samples, root.child(_CHILD_CURVE))
        t5 = time.perf_counter()
        error_mc(slots[3])
        out = AnalyzeOutput(spectrum, perfect, violations, clt, errors, error_call_s,
                            attacks, curve)
        return out, {"spectrum_s": t1 - t0, "error_mc_s": sum(error_call_s),
                     "attack_s": t3 - t2, "curve_s": t5 - t4}

    def _reference(self) -> dict:
        """Oracle values, computed once per run and outside the timed passes."""
        if self._references is None:
            n = self.size.n
            chords = {}
            for mu in self.size.curve_mus:
                t = oracles.normal_upper_quantile(mu) / math.sqrt(n)
                chords[mu] = (t, *oracles.cap_chord_moments(n, t))
            self._references = {
                "errors": oracles.shell_error_rates(
                    self.alphas, R, self.size.error_samples * self.size.error_calls,
                    self.seed),
                "chords": chords,
            }
        return self._references

    def verify(self, out: AnalyzeOutput) -> list[tuple[str, bool]]:
        ref = self._reference()
        expected = np.sort(self.alphas)[::-1]
        planted = sum(1 for a in self.alphas if a > 1.0)
        checks = [
            ("spectrum.alphas", out.spectrum.alphas.shape == expected.shape
             and bool(np.allclose(out.spectrum.alphas, expected, rtol=1e-9, atol=0.0))),
            ("spectrum.violations", out.violations == planted and not out.perfect),
        ]
        ref_inner, ref_outer = ref["errors"]
        calls = self.size.error_calls
        inner = calls * (self.size.error_samples // 2)
        outer = calls * self.size.error_samples - inner
        checks += [
            ("error_mc.samples", len(out.errors) == calls
             and all(e.samples == self.size.error_samples for e in out.errors)),
            ("error_mc.inner", oracles.counts_agree(
                sum(e.errors_inner for e in out.errors), ref_inner, inner, inner)),
            ("error_mc.outer", oracles.counts_agree(
                sum(e.errors_outer for e in out.errors), ref_outer, outer, outer)),
        ]
        for res in out.attacks:
            r0 = float(np.linalg.norm(res.x_start))
            checks.append(("attack.start_on_inner_shell", abs(r0 - 1.0) <= 1e-12))
            if res.found:
                x = res.x_adv
                logit = float(oracles.quad_logits(self.Q, self.s, self.w, self.b, x)[0])
                checks += [
                    ("attack.adv_on_start_shell",
                     abs(float(np.linalg.norm(x)) - r0) <= 1e-9 * r0),
                    # Label 0 (inner): an error is a positive logit; a tie
                    # within rounding of the logit's size counts either way.
                    ("attack.adv_misclassified", logit > -1e-9),
                    ("attack.distance",
                     abs(res.distance - float(np.linalg.norm(x - res.x_start))) <= 1e-12),
                ]
        samples = out.curve.samples
        for p in out.curve.points:
            t, mean, sd = ref["chords"][p.mu]
            se = sd / math.sqrt(samples)
            checks += [
                ("curve.theorem_bound", abs(p.d_theory - t) <= 1e-9 * t),
                ("curve.exact_chord_vs_quadrature", abs(p.d_mc_exact_chord - mean) <= _Z * se),
                # theorem_bound is a Gaussian approximation; the allowance adds
                # its gap to the exact mean, which is under 2 SE at n = 500.
                ("curve.exact_chord_vs_theorem_bound",
                 abs(p.d_mc_exact_chord - p.d_theory) <= _Z * se + abs(mean - t)),
            ]
        return checks

    def digest(self, out: AnalyzeOutput) -> str:
        attacks = []
        for res in out.attacks:
            attacks += [[res.found, res.steps_used, res.stationary, res.final_loss],
                        res.x_start, res.x_adv if res.found else np.empty(0)]
        curve = [[p.mu, p.d_theory, p.d_mc_paper_formula, p.d_mc_exact_chord]
                 for p in out.curve.points]
        return _hash(out.spectrum.alphas, out.violations, list(out.clt),
                     [[e.samples, e.errors_inner, e.errors_outer] for e in out.errors],
                     curve, *attacks)

    def rate(self, out: AnalyzeOutput, phases, wall: float) -> float:
        """Rate of the fastest error-rate call.

        The calls stream 16 MB arrays, so memory traffic of other tenants
        slows some of them by up to a third; interference only adds time,
        and the fastest call is the steadiest estimate of the code's own
        rate.
        """
        return self.size.error_samples / min(out.error_call_s)

    def finish(self, out, workdir) -> list[tuple[str, bool]]:
        return []

    def summary(self, out: AnalyzeOutput) -> dict:
        found = [r.distance for r in out.attacks if r.found]
        return {"violations": out.violations, "clt_rate": list(out.clt),
                "error_mc": [sum(e.errors_inner for e in out.errors),
                             sum(e.errors_outer for e in out.errors)],
                "attack_found": len(found), "attack_starts": len(out.attacks),
                "attack_dmean": float(np.mean(found)) if found else None,
                "curve": [[p.mu, p.d_theory, p.d_mc_exact_chord, p.d_mc_paper_formula]
                          for p in out.curve.points]}


def make(name: str, size: Size, seed: int):
    if name == "quad_train":
        return TrainWorkload(name, "quadratic", size, seed)
    if name == "relu_train":
        return TrainWorkload(name, "mlp", size, seed)
    if name == "quad_analyze":
        return AnalyzeWorkload(size, seed)
    raise ValueError(f"unknown workload {name!r}")
