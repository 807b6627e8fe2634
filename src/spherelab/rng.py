"""Deterministic random streams on top of the Philox counter generator.

Every stochastic component of the library draws from an :class:`RngStream`.
A stream is keyed by a ``(seed, stream_index)`` pair; distinct pairs select
independent Philox-4x64 counter sequences, so substreams never overlap.
Raw words, uniforms and coins are the counter words, shifted and scaled
exactly (a uniform is the top 53 bits of one word), and replay
bit-identically wherever numpy's Philox does.

Normals are numpy's ziggurat (``Generator.standard_normal``) run over the
stream's own Philox, so they and the raw words are consumed from one
counter sequence, in call order. A draw takes a variable number of words
(about 1.02 on average: one, plus more on the rare draws that land in the
wedges or the tail), and the tails are not truncated. The ziggurat keeps
no state outside the Philox counter, so nothing depends on how draws are
chunked across calls: ``normals(3)`` followed by ``normals(2)`` yields the
same five values as ``normals(5)``. Under NEP 19 numpy may change the
algorithms behind ``Generator`` between versions, so normals, and with
them shell points, initial weights and anything computed from those, are
bit-identical for one numpy version; they have been checked on one numpy
build on one CPU feature set only. The metrics header of a training run
records the numpy version and its SIMD extensions.

Monte Carlo loops whose chunks are keyed by substreams (error rates and
cap distances), attacks of more than one block of starts and Adam updates
of more than one job of blocks run their chunks on a process-wide thread
pool (:func:`_shard_map`) with one worker per CPU this process may run on;
numpy releases the GIL in the Philox generator, the ufuncs and BLAS, so
the chunks run in parallel and, being keyed or elementwise, give the same
bits in any order. Training draws each next minibatch on the same pool
with :func:`prefetch`, one draw ahead of the step that uses it, in order
and from one stream, so the words drawn are those of a serial loop.

Stream-index registry (children of a root stream, see :meth:`RngStream.child`):

====== ==================================================================
child  purpose
====== ==================================================================
1      fixed training set (a child of the sphere seed, not the run seed)
2      training minibatches (online draws or fixed-set indices)
3      model initialization
4      fresh evaluation samples
5      error-rate Monte Carlo
6      attack starts and saddle jitter
7      in-training probe starts (child 0) and worst-mode probes
8      in-training nearest-mode probes
====== ==================================================================
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

    def __init__(self, seed: int, stream: int = 0) -> None:
        if not 0 <= int(seed) < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
        if not 0 <= int(stream) < 2**64:
            raise ValueError(f"stream index must be an unsigned 64-bit integer, got {stream}")
        self.seed = int(seed)
        self.stream = int(stream)
        self._bits = Philox(key=np.array([self.seed, self.stream], dtype=_U64))
        self._normals = np.random.Generator(self._bits)

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
        """Standard normal draws: numpy's ziggurat over this stream's Philox.

        The draws consume the stream's words in sequence with :meth:`raw`,
        a variable number per draw, so a stream replays the same values
        for any split of its draws across calls. No tail is truncated.
        """
        return self._normals.standard_normal(count)

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


def pool_workers() -> int:
    """Worker count of the process-wide pool.

    One worker per CPU in this process's affinity mask (the CPU count
    where the platform has no mask).
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pool_for(caller: str) -> ThreadPoolExecutor:
    """The process-wide pool of :func:`pool_workers` threads, created on first use.

    A job waiting on jobs queued behind it could deadlock the pool, so a
    call from a job raises ``RuntimeError``.
    """
    global _pool
    if getattr(_worker, "active", False):
        raise RuntimeError(f"{caller} called from inside a sharded job")
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=pool_workers(), initializer=_mark_worker,
                                       thread_name_prefix="spherelab-shard")
        return _pool


def _shard_map(fn, jobs) -> list:
    """``[fn(job) for job in jobs]``, run on the process-wide thread pool.

    Results come back in job order. ``fn`` must not call ``_shard_map`` or
    :func:`prefetch` itself: a nested call raises ``RuntimeError``.
    """
    return list(_pool_for("_shard_map").map(fn, jobs))


def prefetch(fn, count: int):
    """Yield ``fn()`` ``count`` times, each call made one item ahead on the pool.

    Call ``k + 1`` runs on a worker of the process-wide pool while the
    caller holds item ``k``, and it is submitted only after call ``k`` has
    returned, so the calls run one at a time and in order, and never more
    than ``count`` of them. An exception from a call is raised where its
    item would have been yielded. Closing the generator early waits for
    the pending call and drops its item, so no call outlives the
    generator. Like :func:`_shard_map`, it refuses to run inside a pool
    job (``RuntimeError``, raised here rather than at the first item).
    """
    pool = _pool_for("prefetch")

    def items():
        pending = pool.submit(fn) if count > 0 else None
        try:
            for k in range(count):
                item = pending.result()
                pending = pool.submit(fn) if k + 1 < count else None
                yield item
        finally:
            if pending is not None:
                pending.exception()  # waits; neither the item nor its error is wanted

    return items()
