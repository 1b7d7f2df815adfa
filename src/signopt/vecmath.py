"""Dense vector primitives, Holder-conjugate exponents, and seeded RNG streams.

Everything downstream (problems, optimizers, bound checks) goes through this
module for elementwise sign, norms, and sampling, so the sign(0) = +1
convention and the stream-splitting scheme are fixed here once.
"""
from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConjugatePair",
    "RngStream",
    "sign_vec",
    "norm",
    "sample_steps",
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
    """Deterministic random stream keyed by a 64-bit seed.

    Backed by the Philox counter-based bit generator, which produces the same
    sequence on every platform for a given key. ``child(label)`` derives an
    independent stream from (seed, label) via a stable hash, so subsystems can
    split randomness without coordinating draw order.
    """

    __slots__ = ("seed", "generator")

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
        self.seed = int(seed) % (1 << 64)
        self.generator = np.random.Generator(np.random.Philox(key=self.seed))

    def child(self, label: str) -> "RngStream":
        return RngStream(_derive_child_seed(self.seed, label))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed})"


def sign_vec(v: np.ndarray) -> np.ndarray:
    """Elementwise sign with sign(0) = +1, so the output is always in {-1, +1}."""
    return np.where(np.asarray(v) >= 0.0, 1.0, -1.0)


def norm(v: np.ndarray, p: float) -> float:
    """l_p norm for p in {1, 2, inf}. Empty vectors are rejected upstream."""
    v = np.asarray(v, dtype=np.float64)
    if p == 1:
        return float(np.abs(v).sum())
    if p == 2:
        return float(math.sqrt(v @ v))
    if p == math.inf:
        return float(np.abs(v).max()) if v.size else 0.0
    raise ValueError(f"p must be one of {{1, 2, inf}}, got {p!r}")


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (S, d) stacks.

    Each entry is one BLAS dot, bit-identical to `a[s] @ b[s]`; einsum and
    `(a * b).sum(1)` sum in other orders and are not.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def norm_rows(v: np.ndarray, p: float) -> np.ndarray:
    """`norm(row, p)` of every row of an (S, d) stack, bit for bit."""
    if p == 1:
        return np.abs(v).sum(axis=1)
    if p == 2:
        return np.sqrt(row_dot(v, v))
    if p == math.inf:
        return np.abs(v).max(axis=1)
    raise ValueError(f"p must be one of {{1, 2, inf}}, got {p!r}")


def _steps_by_calls(gen, n: int, width: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.empty(steps, dtype=np.int64)
    noise = np.empty((steps, width))
    for j in range(steps):
        idx[j] = int(gen.integers(1, n, endpoint=True)) - 1
        if width:
            noise[j] = gen.uniform(-1.0, 1.0, width)
    return idx, noise


def _steps_from_philox(
    bitgen: np.random.Philox, n: int, width: int, steps: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Decode the draws of `steps` steps from raw Philox words.

    Generator's rules for these calls: a bounded integer with range n - 1 <
    2^32 is Lemire's multiply-shift on a 32-bit half-word (low half of a
    fresh 64-bit word first, the high half buffered in the bit generator for
    the next bounded integer); a uniform double is -1 + 2 (w >> 11) 2^-53 on
    one whole word. Returns None, with the bit generator rewound, if any
    half-word falls in Lemire's rejection zone: that rare draw consumes
    extra half-words, and the caller replays the block through Generator.
    """
    saved = bitgen.state
    has, buf = saved["has_uint32"], saved["uinteger"]
    n_int = (steps + 1 - has) // 2 if n > 1 else 0
    words = bitgen.random_raw(steps * width + n_int)
    if n > 1:
        k = np.arange(n_int)
        int_pos = (2 * k + has) * width + k  # the fresh word opens its step
        halves = np.empty(has + 2 * n_int, dtype=np.uint64)
        halves[:has] = buf
        ints = words[int_pos]
        halves[has::2] = ints & 0xFFFFFFFF
        halves[has + 1::2] = ints >> 32
        m = halves[:steps] * np.uint64(n)
        if np.any((m & 0xFFFFFFFF) < (0x100000000 - n) % n):
            bitgen.state = saved
            return None
        idx = (m >> 32).astype(np.int64)
        words = np.delete(words, int_pos)
        has_end = int(halves.size > steps)
        if has or has_end:  # with both 0 the buffered half is never read
            state = bitgen.state
            state["has_uint32"] = has_end
            state["uinteger"] = int(halves[-1])
            bitgen.state = state
    else:  # integers(1, 1) consumes nothing
        idx = np.zeros(steps, dtype=np.int64)
    noise = (words >> 11).astype(np.float64).reshape(steps, width)
    noise *= 2.0 ** -52  # = 2 (w >> 11) 2^-53, exactly
    noise -= 1.0
    return idx, noise


def sample_steps(rng: RngStream, n: int, width: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The draws of `steps` optimizer steps, decoded as one block.

    Step j draws `integers(1, n, endpoint=True)` and then, if width > 0,
    `uniform(-1, 1, width)`. Returns the 0-based indices (steps,) and the
    noise (steps, width), bit-identical to making those calls in that order,
    and leaves the stream where the calls would. A Philox stream is decoded
    from its raw words; any other generator (or a rejected Lemire draw, or
    n > 2^32) goes through the calls themselves.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    gen = rng.generator
    bitgen = getattr(gen, "bit_generator", None)
    if isinstance(bitgen, np.random.Philox) and n <= 0x100000000:
        _check_philox_decoder()
        out = _steps_from_philox(bitgen, n, width, steps)
        if out is not None:
            return out
    return _steps_by_calls(gen, n, width, steps)


@functools.cache
def _check_philox_decoder() -> None:
    """Once per process, before the first decoded block: numpy promises no
    stable Generator streams across versions, and the decoder copies
    Generator's internals, so confirm them on a short prefix."""
    calls = np.random.Generator(np.random.Philox(key=20230522))
    blocks = np.random.Generator(np.random.Philox(key=20230522))
    ok = True
    for steps in (3, 4):  # the second block starts on a buffered half-word
        want = _steps_by_calls(calls, 50, 3, steps)
        got = _steps_from_philox(blocks.bit_generator, 50, 3, steps)
        ok = ok and got is not None and all(np.array_equal(a, b) for a, b in zip(got, want))
    ok = ok and calls.integers(1, 50, endpoint=True) == blocks.integers(1, 50, endpoint=True)
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
