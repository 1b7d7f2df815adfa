"""Dense vector primitives, Holder-conjugate exponents, and seeded RNG streams.

Everything downstream (problems, optimizers, bound checks) goes through this
module for norms and sampling, so the stream-splitting scheme is fixed here
once.
"""
from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ConjugatePair",
    "RngStream",
    "norm",
    "draw_blocks",
    "sample_unit_sphere",
    "row_dot",
    "norm_rows",
]

_VALID_Q = (1.0, 2.0, math.inf)


@dataclass(frozen=True)
class ConjugatePair:
    """Holder-conjugate exponent pair (q, p) with 1/p + 1/q = 1.

    Only q in {1, 2, inf} is constructible; p is derived, never stored
    independently, so the pair cannot go out of sync.
    """

    q: float

    def __post_init__(self) -> None:
        qf = float(self.q)
        if qf not in _VALID_Q:
            raise ValueError(f"q must be one of {{1, 2, inf}}, got {self.q!r}")
        object.__setattr__(self, "q", qf)

    @property
    def p(self) -> float:
        if self.q == 1.0:
            return math.inf
        if self.q == 2.0:
            return 2.0
        return 1.0

    def dim_root(self, d: int) -> float:
        """d ** (1/q): equals d, sqrt(d), 1 for q = 1, 2, inf."""
        return float(d) ** (1.0 / self.q)


def _derive_child_seed(seed: int, label: str) -> int:
    # Stable across platforms/processes: label splitting must not depend on
    # Python's randomized hash().
    h = hashlib.blake2b(f"{seed}:{label}".encode("utf-8"), digest_size=8)
    return int.from_bytes(h.digest(), "little")


class RngStream:
    """Deterministic random stream keyed by a seed in [0, 2**64).

    Backed by the Philox counter-based bit generator, which produces the same
    sequence on every platform for a given key. ``child(label)`` derives an
    independent stream from (seed, label) via a stable hash, so subsystems can
    split randomness without coordinating draw order.
    """

    __slots__ = ("seed", "generator")

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        self.seed = int(seed)
        self.generator = np.random.Generator(np.random.Philox(key=self.seed))

    def child(self, label: str) -> "RngStream":
        return RngStream(_derive_child_seed(self.seed, label))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed})"


def norm(v: np.ndarray, p: float) -> float:
    """l_p norm for p in {1, 2, inf}. Empty vectors are rejected upstream."""
    v = np.asarray(v, dtype=np.float64)
    if p == 1:
        return float(np.add.reduce(np.abs(v)))
    if p == 2:
        return float(math.sqrt(v @ v))
    if p == math.inf:
        return float(np.maximum.reduce(np.abs(v))) if v.size else 0.0
    raise ValueError(f"p must be one of {{1, 2, inf}}, got {p!r}")


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (S, d) stacks, or of stacks that
    broadcast against each other over their leading axes.

    Each entry is one BLAS dot (np.vecdot), bit-identical to `a[s] @ b[s]`;
    einsum and `(a * b).sum(1)` sum in other orders and are not.
    """
    return np.vecdot(a, b)


def norm_rows(v: np.ndarray, p: float, out: np.ndarray | None = None) -> np.ndarray:
    """`norm(row, p)` of every row of an (S, d) stack, bit for bit; with
    `out`, an (S,) array, written into it."""
    if p == 1:
        return np.add.reduce(np.abs(v), axis=1, out=out)
    if p == 2:
        return np.sqrt(row_dot(v, v), out=out)
    if p == math.inf:
        return np.maximum.reduce(np.abs(v), axis=1, out=out)
    raise ValueError(f"p must be one of {{1, 2, inf}}, got {p!r}")


def _steps_by_calls(gen, n: int, width: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.empty(steps, dtype=np.int64)
    noise = np.empty((steps, width))
    for j in range(steps):
        idx[j] = int(gen.integers(1, n, endpoint=True)) - 1
        if width:
            noise[j] = gen.uniform(-1.0, 1.0, width)
    return idx, noise


_CAST_WORDS = 1 << 12


def _decode_steps(gens: Sequence, n: int, width: int, idx: np.ndarray, noise: np.ndarray) -> None:
    """Fill idx (steps, S) and noise (steps, S, width), steps even, with the
    draws of `steps` steps of every generator gens[s], decoded from raw
    Philox words.

    Generator's rules for these calls: a bounded integer with range n - 1 <
    2^32 is Lemire's multiply-shift on a 32-bit half-word (low half of a
    fresh 64-bit word first, the high half buffered in the bit generator for
    the next bounded integer); a uniform double is -1 + 2 (w >> 11) 2^-53 on
    one whole word. With no half-word buffered, the words of steps 2k and
    2k + 1 are [int][noise 2k][noise 2k + 1]: each stream's noise words go
    from its random_raw output straight into its column of noise, viewed as
    uint64, and are made doubles there for every stream at once; its int
    words go into one small (S, steps / 2) array whose indices are decoded
    for every stream at once. A stream goes through the calls themselves
    when it has no Philox bit generator (or n > 2^32), when it starts on a
    buffered half-word, or, rewound, when one of its half-words falls in
    Lemire's rejection zone: that rare draw consumes extra half-words.
    """
    steps, S = idx.shape
    int_words = int(n > 1)  # integers(1, 1) consumes nothing
    period = int_words + 2 * width  # words per pair of steps
    pairs = steps // 2
    ints = np.empty((S, int_words * pairs), dtype="<u8")
    bits = noise.view(np.uint64)  # the noise words, before they become doubles
    slow, saved = [], {}
    for s, gen in enumerate(gens):
        bitgen = getattr(gen, "bit_generator", None)
        if not isinstance(bitgen, np.random.Philox) or n > 0x100000000:
            slow.append(s)
            continue
        state = bitgen.state
        if int_words and state["has_uint32"]:
            slow.append(s)
            continue
        saved[s] = state
        words = bitgen.random_raw(pairs * period).reshape(pairs, period)
        if int_words:
            ints[s] = words[:, 0]
        if width:
            bits[:, s].reshape(pairs, 2, width)[...] = words[:, int_words:].reshape(pairs, 2, width)
    if int_words:
        # little-endian half-words of the int words: low, high, low, ...
        m = ints.view("<u4") * np.uint64(n)
        np.right_shift(m.T, 32, out=idx, casting="unsafe")
        threshold = (0x100000000 - n) % n
        rejected = ((m & 0xFFFFFFFF) < threshold).any(axis=1) if threshold else ()
        for s in map(int, np.flatnonzero(rejected)):
            if s in saved:  # rewound, and replayed below
                gens[s].bit_generator.state = saved[s]
                slow.append(s)
    else:
        idx[...] = 0
    if width:
        np.right_shift(bits, 11, out=bits)
        # 2 (w >> 11) 2^-53 = (w >> 11) 2^-52 exactly. A cast in place copies
        # its input first, so it goes a few thousand words at a time.
        rows = max(1, _CAST_WORDS // (S * width))
        for k in range(0, steps, rows):
            np.multiply(bits[k:k + rows], 2.0 ** -52, out=noise[k:k + rows])
        noise -= 1.0
    for s in slow:
        idx[:, s], noise[:, s] = _steps_by_calls(gens[s], n, width, steps)


# float64 elements that one block of draws fills, over all its streams and
# steps taken together: the indices, the noise and what the caller
# precomputes from them
_DRAW_ELEMENTS = 1 << 16


def draw_blocks(rngs: Sequence[RngStream], n: int, width: int, T: int, extra: int = 0):
    """Yields (t0, idx, noise) per block of steps t0, t0 + 1, ... < T: the
    0-based component indices (steps, S) and noise cubes (steps, S, width)
    of every stream in rngs, column s bit-identical to calling
    `integers(1, n, endpoint=True)` and then, if width > 0,
    `uniform(-1, 1, width)` on rngs[s] once per step. The arrays are views
    of buffers that the next block reuses. A block is as long as keeps its
    index, its noise and the caller's `extra` float64s per stream and step
    within _DRAW_ELEMENTS, rounded down to even, so each block starts on no
    buffered half-word. An odd last block decodes one step more than it
    yields: only after an even T is each stream where the calls leave it.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_philox_decoder()
    gens = [rng.generator for rng in rngs]
    S = len(gens)
    block = max(2, min(T, _DRAW_ELEMENTS // (max(S, 1) * (1 + width + extra))) & ~1)
    idx, noise = np.empty((block, S), dtype=np.int64), np.empty((block, S, width))
    for t0 in range(0, T, block):
        steps = min(block, T - t0)
        decoded = steps + steps % 2
        _decode_steps(gens, n, width, idx[:decoded], noise[:decoded])
        yield t0, idx[:steps], noise[:steps]


@functools.cache
def _check_philox_decoder() -> None:
    """Once per process, before the first decoded block: numpy promises no
    stable Generator streams across versions, and the decoder copies
    Generator's internals, so confirm them on a short prefix of two
    streams."""
    keys = (20230522, 20230523)
    calls = [np.random.Generator(np.random.Philox(key=k)) for k in keys]
    blocks = [np.random.Generator(np.random.Philox(key=k)) for k in keys]
    ok = True
    # two even blocks, then a call that continues from them
    for steps in (4, 6):
        idx, noise = np.empty((steps, 2), dtype=np.int64), np.empty((steps, 2, 3))
        _decode_steps(blocks, 50, 3, idx, noise)
        for s, gen in enumerate(calls):
            want_idx, want_noise = _steps_by_calls(gen, 50, 3, steps)
            ok = ok and np.array_equal(idx[:, s], want_idx) and np.array_equal(noise[:, s], want_noise)
    for a, b in zip(calls, blocks):
        ok = ok and a.integers(1, 50, endpoint=True) == b.integers(1, 50, endpoint=True)
    if not ok:
        raise RuntimeError(
            f"numpy {np.__version__}: Generator(Philox) draws differ from the block "
            "decoder in signopt.vecmath, so runs would not reproduce their "
            "documented draw order; use a numpy whose Philox streams match"
        )


def sample_unit_sphere(rng: RngStream, d: int) -> np.ndarray:
    """Uniform direction on the unit sphere: normalized standard Gaussian."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    while True:
        w = rng.generator.standard_normal(d)
        l2 = math.sqrt(w @ w)
        if l2 > 0.0:  # zero draw has probability ~0 but guard the division
            return w / l2
