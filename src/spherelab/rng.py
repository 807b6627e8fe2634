"""Deterministic random streams on top of the Philox counter generator.

Every stochastic component of the library draws from an :class:`RngStream`.
A stream is keyed by a ``(seed, stream_index)`` pair; distinct pairs select
independent Philox-4x64 counter sequences, so substreams never overlap and
a given stream replays bit-identically on every platform.

Uniform doubles are built from the generator's raw 64-bit words directly
(top 53 bits), and normal draws use the Box-Muller cosine branch with a
fixed two-words-per-draw layout. Nothing depends on how draws are chunked
across calls: ``normals(3)`` followed by ``normals(2)`` yields the same
five values as ``normals(5)``. Within one call the normals are computed in
fixed blocks of draws, so the working arrays stay cache-sized; each block
runs the same word layout and arithmetic as one whole-array pass would, so
the bits do not depend on the block size.

Monte Carlo loops whose chunks are keyed by substreams run their chunks on
a process-wide thread pool (:func:`_shard_map`) with one worker per CPU
this process may run on; numpy releases the GIL in the Philox generator,
the ufuncs and BLAS, so the chunks run in parallel and, being keyed, give
the same bits in any order.

Stream-index registry (children of a root stream, see :meth:`RngStream.child`):

====== =================================
child  purpose
====== =================================
1      fixed training-set materialization
2      online training minibatches
3      model initialization
4      fresh evaluation samples
5      error-rate Monte Carlo
6      attack starts and saddle jitter
7      in-training attack probes
====== =================================
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.random import Philox

_U64 = np.uint64
_INV_2_53 = 2.0**-53
_CHILD_BASE = 65536  # children pack into base-65536 digits of the stream index
_NORMAL_BLOCK = 16384  # draws per block: 256 KiB of Philox words

# Registry constants (see module docstring).
CHILD_DATASET = 1
CHILD_MINIBATCH = 2
CHILD_INIT = 3
CHILD_EVAL = 4
CHILD_ERROR_MC = 5
CHILD_ATTACK = 6
CHILD_PROBE = 7


class RngStream:
    """A seeded, splittable source of uniform and normal variates.

    A stream is single-owner: share work across consumers by deriving
    children with :meth:`child`, never by handing the same instance to two
    of them.
    """

    def __init__(self, seed: int, stream: int = 0) -> None:
        if not 0 <= int(seed) < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
        if not 0 <= int(stream) < 2**64:
            raise ValueError(f"stream index must be an unsigned 64-bit integer, got {stream}")
        self.seed = int(seed)
        self.stream = int(stream)
        self._bits = Philox(key=np.array([self.seed, self.stream], dtype=_U64))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream})"

    def child(self, index: int) -> "RngStream":
        """Derive substream number ``index`` of this stream.

        Child indices pack into base-65536 digits of the 64-bit stream
        index, so distinct derivation paths (up to depth 4, fan-out 65535)
        map to distinct Philox keys and therefore non-overlapping streams.
        """
        if not 0 <= index < _CHILD_BASE - 1:
            raise ValueError(f"child index must be in [0, {_CHILD_BASE - 2}], got {index}")
        packed = self.stream * _CHILD_BASE + 1 + index
        if packed >= 2**64:
            raise ValueError("substream nesting too deep: stream index overflows 64 bits")
        return RngStream(self.seed, packed)

    def raw(self, count: int) -> np.ndarray:
        """Next ``count`` raw 64-bit words from the counter sequence."""
        return self._bits.random_raw(count)

    def uniforms(self, count: int) -> np.ndarray:
        """Uniform float64 in [0, 1), one word per draw."""
        return (self.raw(count) >> _U64(11)) * _INV_2_53

    def coins(self, count: int) -> np.ndarray:
        """Fair boolean coin flips, one word per draw."""
        return self.uniforms(count) < 0.5

    def normals(self, count: int) -> np.ndarray:
        """Standard normal draws via the Box-Muller cosine branch.

        Draw ``i`` consumes words ``2i`` and ``2i + 1``: the first maps to
        u1 in (0, 1] (shifted so the log never sees zero), the second to
        u2 in [0, 1). The value is sqrt(-2 ln u1) * cos(2 pi u2). The sine
        twin is discarded to keep consumption chunk-invariant. The (0, 1]
        shift truncates the tails at about 8.57 sigma, an event of
        probability ~1e-17 per draw.
        """
        out = np.empty(count)
        u1 = np.empty(min(count, _NORMAL_BLOCK))
        u2 = np.empty_like(u1)
        for start in range(0, count, _NORMAL_BLOCK):
            size = min(_NORMAL_BLOCK, count - start)
            a, b = u1[:size], u2[:size]
            words = self.raw(2 * size)
            words >>= _U64(11)
            words[0::2] += _U64(1)
            np.multiply(words[0::2], _INV_2_53, out=a)
            np.multiply(words[1::2], _INV_2_53, out=b)
            np.log(a, out=a)
            a *= -2.0
            np.sqrt(a, out=a)
            b *= 2.0 * np.pi
            np.cos(b, out=b)
            np.multiply(a, b, out=out[start:start + size])
        return out

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Convenience: ``rows * cols`` normal draws reshaped row-major."""
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


def _shard_map(fn, jobs) -> list:
    """``[fn(job) for job in jobs]``, run on the process-wide thread pool.

    The pool has one worker per CPU in this process's affinity mask (the
    CPU count where the platform has no mask) and is created on first use.
    Results come back in job order. ``fn`` must not call ``_shard_map``
    itself: a job waiting on jobs queued behind it could deadlock the pool,
    so a nested call raises ``RuntimeError``.
    """
    global _pool
    if getattr(_worker, "active", False):
        raise RuntimeError("_shard_map called from inside a sharded job")
    with _pool_lock:
        if _pool is None:
            try:
                workers = len(os.sched_getaffinity(0))
            except AttributeError:
                workers = os.cpu_count() or 1
            _pool = ThreadPoolExecutor(max_workers=workers, initializer=_mark_worker,
                                       thread_name_prefix="spherelab-shard")
    return list(_pool.map(fn, jobs))
