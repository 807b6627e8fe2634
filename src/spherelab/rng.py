"""Deterministic random streams on top of the Philox counter generator.

Every stochastic component of the library draws from an :class:`RngStream`.
``RngStream(seed, *path)`` is keyed by a seed and a path of at most four
child indices, each in [0, 2**64 - 2]; ``child(i)`` appends ``i``. Its
Philox-4x64 key is ``[seed, path[0] + 1]`` and its initial counter
``[0, path[1] + 1, path[2] + 1, path[3] + 1]``, 0 for a missing level, so
distinct paths differ in key or counter. numpy's Philox advances counter
word 0 first, so a stream keeps to its own counter range for 2**64 - 1
blocks of four words: substreams are disjoint by construction, not just
with high probability. The library's deepest path has four indices
(nearest probes, step, PGD, jitter row). Version 0.5.0 moved the
streams of depth 2 or more; the root (key ``[seed, 0]``) and depth-1
(``[seed, 1 + k]``) streams kept their words. Raw words are the counter
words; a uniform (numpy's ``Generator.random``, the top 53 bits of a word)
and a coin take one word each.

Normals are numpy's ziggurat (``Generator.standard_normal``) run over the
stream's own Philox, so they and the raw words are consumed from one
counter sequence, in call order. A draw takes a variable number of words
(about 1.02 on average: one, plus more on the rare draws that land in the
wedges or the tail), and the tails are not truncated. The ziggurat keeps
no state outside the Philox counter, so nothing depends on how draws are
chunked across calls: ``normals(3)`` followed by ``normals(2)`` yields the
same five values as ``normals(5)``. Chi-square draws are numpy's
(``Generator.chisquare``) over the same Philox, under the same terms: a
variable number of words per draw, consumed in call order with the other
kinds, and the same values for any split of the draws across calls.
Under NEP 19 numpy may change the algorithms behind ``Generator`` between
versions, so normals and chi-squares, and with them shell points, initial
weights, cap distances and anything computed from those, are
bit-identical for one numpy version; they have been checked on one numpy
build on one CPU feature set only. The metrics header of a training run
records the numpy version and its SIMD extensions.

Every count and size is checked (a Python or numpy integer >= 0, not a
``bool``) before any word is drawn, so a refused call leaves the stream
where it was.

The error-rate Monte Carlo (chunks keyed by substreams), the attacks
(blocks of starts) and the Adam updates (jobs of blocks) run on a
process-wide thread pool (:func:`_shard_map`) with one worker per CPU
this process may run on; no caller special-cases a lone job. numpy
releases the GIL in the Philox generator, the ufuncs and BLAS, so the
jobs run in parallel and, being keyed or elementwise, give the same bits
in any order. (The cap-distance Monte Carlo sums its keyed chunks on the
caller thread.)

Stream-index registry (children of a root stream, see :meth:`RngStream.child`):

====== ==================================================================
child  purpose
====== ==================================================================
1      fixed training set (a child of the sphere seed, not the run seed)
2      minibatch of step k (child k): online draws or fixed-set indices
3      model initialization
4      fresh evaluation samples of the record at step k (child k)
5      error-rate Monte Carlo of the record at step k (child k)
6      attack starts and saddle jitter
7      in-training probe batch (child 0) and step k's worst probe (1 + k)
8      in-training nearest-mode probe at step k (child k)
====== ==================================================================
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.random import Philox

from spherelab import require_above, require_int, require_seed

_U64 = np.uint64
_DEPTH = 4  # path levels: one in the key, three in the counter

# Registry constants (see module docstring).
CHILD_DATASET = 1
CHILD_MINIBATCH = 2
CHILD_INIT = 3
CHILD_EVAL = 4
CHILD_ERROR_MC = 5
CHILD_ATTACK = 6
CHILD_PROBE = 7
CHILD_NEAREST_PROBE = 8


class RngStream:
    """A seeded, splittable source of uniform and normal variates.

    A stream is single-owner: share work across consumers by deriving
    children with :meth:`child`, never by handing the same instance to two
    of them.
    """

    def __init__(self, seed: int, *path: int) -> None:
        seed = require_seed(seed)
        if len(path) > _DEPTH:
            raise ValueError(f"a stream path has at most {_DEPTH} child indices, got {len(path)}")
        for index in path:
            if require_int("child index", index, 0) > 2**64 - 2:
                raise ValueError(f"child index must be in [0, 2**64 - 2], got {index}")
        self.seed, self.path = seed, tuple(int(index) for index in path)
        words = [index + 1 for index in self.path] + [0] * (_DEPTH - len(path))
        self._bits = Philox(key=np.array([self.seed, words[0]], dtype=_U64),
                            counter=np.array([0, *words[1:]], dtype=_U64))
        self._gen = np.random.Generator(self._bits)

    def __repr__(self) -> str:
        return f"RngStream({', '.join(map(str, (self.seed, *self.path)))})"

    def child(self, index: int) -> "RngStream":
        """Substream ``RngStream(seed, *path, index)``; a depth-4 stream has none."""
        return RngStream(self.seed, *self.path, index)

    def raw(self, count: int) -> np.ndarray:
        """Next ``count`` raw 64-bit words from the counter sequence."""
        return self._bits.random_raw(require_int("count", count, 0))

    def uniforms(self, count: int) -> np.ndarray:
        """Uniform float64 in [0, 1), one word per draw: numpy's ``Generator.random``."""
        return self._gen.random(require_int("count", count, 0))

    def coins(self, count: int) -> np.ndarray:
        """Fair boolean coin flips, one word per draw."""
        return self.uniforms(count) < 0.5

    def normals(self, count: int) -> np.ndarray:
        """Standard normal draws: numpy's ziggurat over this stream's Philox.

        The draws consume the stream's words in sequence with :meth:`raw`,
        a variable number per draw, so a stream replays the same values
        for any split of its draws across calls. No tail is truncated.
        """
        return self._gen.standard_normal(require_int("count", count, 0))

    def chisquares(self, df: float, count: int) -> np.ndarray:
        """Chi-square draws with ``df`` > 0 degrees of freedom.

        numpy's ``Generator.chisquare`` over this stream's Philox, under
        the contract of :meth:`normals`.
        """
        require_above("df", df, 0)
        return self._gen.chisquare(df, require_int("count", count, 0))

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Convenience: ``rows * cols`` normal draws reshaped row-major."""
        rows, cols = require_int("rows", rows, 0), require_int("cols", cols, 0)
        return self.normals(rows * cols).reshape(rows, cols)


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_worker = threading.local()


def _mark_worker() -> None:
    _worker.active = True


def _forget_pool() -> None:
    """In a forked child: drop the pool, whose threads stayed in the parent."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def pool_workers() -> int:
    """Worker count of the process-wide pool.

    One worker per CPU in this process's affinity mask (the CPU count
    where the platform has no mask).
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _shard_map(fn, jobs) -> list:
    """``[fn(job) for job in jobs]``, run on the process-wide thread pool.

    The pool has :func:`pool_workers` threads and is created on first use.
    Results come back in job order. A job waiting on jobs queued behind it
    could deadlock the pool, so ``fn`` must not call ``_shard_map`` itself:
    a nested call raises ``RuntimeError``.
    """
    global _pool
    if getattr(_worker, "active", False):
        raise RuntimeError("_shard_map called from inside a sharded job")
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=pool_workers(), initializer=_mark_worker,
                                       thread_name_prefix="spherelab-shard")
        pool = _pool
    return list(pool.map(fn, jobs))
