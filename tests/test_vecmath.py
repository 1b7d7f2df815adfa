"""Norm primitives, the oracles' sign convention, and the seeded RNG streams.

The frozen sequences below pin the exact random draws: the counter-based
generator plus the hash-derived child seeding must keep producing these
numbers on any platform, or every recorded trace in the repo silently changes
meaning.
"""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from signopt import vecmath
from signopt.oracles import sign_vec
from signopt.vecmath import (
    ConjugatePair,
    RngStream,
    norm,
    norm_rows,
    row_dot,
    sample_steps,
    sample_unit_sphere,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
vectors = st.lists(finite_floats, min_size=1, max_size=12).map(np.asarray)


def _cube(rng, d):
    """One step's noise, uniform(-1, 1, d); with n = 1 no index is drawn."""
    return sample_steps([rng], 1, d, 1)[1][0, 0]


# ---------------------------------------------------------------- pairs

def test_conjugate_pairs():
    assert ConjugatePair(1.0).p == math.inf
    assert ConjugatePair(2.0).p == 2.0
    assert ConjugatePair(math.inf).p == 1.0


def test_conjugate_pair_rejects_other_q():
    for bad in (0.5, 1.5, 3.0, -1.0, 0.0):
        with pytest.raises(ValueError):
            ConjugatePair(bad)


def test_dim_root():
    assert ConjugatePair(1.0).dim_root(9) == 9.0
    assert ConjugatePair(2.0).dim_root(9) == 3.0
    assert ConjugatePair(math.inf).dim_root(9) == 1.0


# ---------------------------------------------------------------- rng streams

def test_uniform_cube_frozen_sequence():
    got = _cube(RngStream(123), 5)
    expect = [
        0.03401047702995741,
        -0.6323992393850921,
        -0.5743254710896648,
        -0.5800615930329824,
        -0.27436750097921836,
    ]
    np.testing.assert_allclose(got, expect, rtol=0, atol=0)


def test_uniform_cube_frozen_sequence_seed0():
    got = _cube(RngStream(0), 3)
    expect = [-0.9769064914273369, -0.5169016068745638, -0.7771482889701236]
    np.testing.assert_allclose(got, expect, rtol=0, atol=0)


def test_sample_steps_index_frozen_sequence():
    got = sample_steps([RngStream(123)], 7, 0, 8)[0][:, 0] + 1
    assert got.tolist() == [2, 4, 3, 2, 2, 2, 1, 2]


def test_unit_sphere_frozen_sequence():
    got = sample_unit_sphere(RngStream(2024), 3)
    expect = [0.024762193595296727, -0.39688615761822527, -0.9175337659505454]
    np.testing.assert_allclose(got, expect, rtol=0, atol=0)


def test_child_seeds_frozen():
    root = RngStream(123)
    assert root.child("data").seed == 4881396823979292876
    assert root.child("x1").seed == 1940047060139360423


def test_same_seed_same_stream():
    a = _cube(RngStream(99), 16)
    b = _cube(RngStream(99), 16)
    np.testing.assert_array_equal(a, b)


def test_children_are_decorrelated():
    root = RngStream(5)
    a = _cube(root.child("a"), 32)
    b = _cube(root.child("b"), 32)
    assert not np.array_equal(a, b)
    # and child derivation is pure: re-deriving gives the same stream
    c = _cube(RngStream(5).child("a"), 32)
    np.testing.assert_array_equal(a, c)


def test_sample_steps_index_range_and_coverage():
    draws = sample_steps([RngStream(7)], 5, 0, 20_000)[0][:, 0] + 1
    assert draws.min() == 1 and draws.max() == 5
    freqs = np.bincount(draws, minlength=6)[1:] / len(draws)
    # uniform to within ~5 sigma of the binomial stderr
    assert np.all(np.abs(freqs - 0.2) < 5 * math.sqrt(0.2 * 0.8 / len(draws)))


def test_uniform_cube_moments():
    u = _cube(RngStream(11), 100_000)
    assert np.all(u >= -1.0) and np.all(u < 1.0)
    assert abs(u.mean()) < 4 * math.sqrt(1 / 3 / len(u))
    assert abs(u.var() - 1 / 3) < 0.005


def test_unit_sphere_is_unit():
    for seed in range(5):
        z = sample_unit_sphere(RngStream(seed), 12)
        assert abs(norm(z, 2) - 1.0) < 1e-12


# ---------------------------------------------------------------- sign

def test_sign_zero_is_plus_one():
    np.testing.assert_array_equal(sign_vec(np.array([0.0, -0.0, 1.5, -2.0])),
                                  [1.0, 1.0, 1.0, -1.0])


@given(vectors)
def test_sign_values_and_idempotence(v):
    s = sign_vec(v)
    assert set(np.unique(s)) <= {-1.0, 1.0}
    np.testing.assert_array_equal(sign_vec(s), s)


# ---------------------------------------------------------------- norms

def test_norm_examples():
    v = np.array([3.0, -4.0, 0.0])
    assert norm(v, 1) == 7.0
    assert norm(v, 2) == 5.0
    assert norm(v, math.inf) == 4.0


def test_norm_rejects_other_p():
    with pytest.raises(ValueError):
        norm(np.ones(2), 3.0)


@given(vectors)
def test_norm_ordering(v):
    assert norm(v, math.inf) <= norm(v, 2) + 1e-9 * (1 + norm(v, 2))
    assert norm(v, 2) <= norm(v, 1) + 1e-9 * (1 + norm(v, 1))


@given(vectors, st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_norm_homogeneity(v, c):
    for p in (1.0, 2.0, math.inf):
        assert norm(c * v, p) == pytest.approx(abs(c) * norm(v, p), rel=1e-9, abs=1e-9)


@given(vectors)
def test_holder_inequality(v):
    u = np.arange(1.0, len(v) + 1.0)
    inner = abs(float(u @ v))
    for q in (1.0, 2.0, math.inf):
        pair = ConjugatePair(q)
        bound = norm(u, q) * norm(v, pair.p)
        assert inner <= bound * (1 + 1e-12) + 1e-12


# ---------------------------------------------------------------- row-wise ops

@pytest.mark.parametrize("d", [1, 4, 5, 10, 100])
def test_row_dot_and_norm_rows_match_one_row_ops_bitwise(d):
    gen = RngStream(d).generator
    a = gen.standard_normal((300, d))
    b = gen.standard_normal((300, d))
    np.testing.assert_array_equal(row_dot(a, b), [u @ v for u, v in zip(a, b)])
    # the run loop's shapes: rows against an (S, d) stack and a (2, S, d)
    # one, and the rows of a step-major snapshot chunk (size + 1, S, d): a
    # whole row chunk[slot] and the prefix chunk[slot, :S'] left after seeds
    # drop out
    stack = gen.standard_normal((2, 300, d))
    np.testing.assert_array_equal(row_dot(a, stack), [[u @ v for u, v in zip(a, m)] for m in stack])
    chunk = gen.standard_normal((7, 300, d))
    dist = np.zeros((7, 300))  # the chunk's distances, (size + 1, S)
    for rows in (chunk[3], chunk[6, :200]):
        np.testing.assert_array_equal(row_dot(a[:len(rows)], rows), [u @ v for u, v in zip(a, rows)])
        np.testing.assert_array_equal(row_dot(rows, rows), [v @ v for v in rows])
        for p in (1.0, 2.0, math.inf):
            out = norm_rows(rows, p, out=dist[5, :len(rows)])
            assert out.base is dist
            np.testing.assert_array_equal(dist[5, :len(rows)], [norm(u, p) for u in rows])
    for p in (1.0, 2.0, math.inf):
        np.testing.assert_array_equal(norm_rows(a, p), [norm(u, p) for u in a])
        out = np.empty(7)[::2][:3]  # a strided destination, as a trace column slice may be
        norm_rows(chunk[5, :3], p, out=out)
        np.testing.assert_array_equal(out, [norm(u, p) for u in chunk[5, :3]])
    with pytest.raises(ValueError):
        norm_rows(a, 3.0)


# ---------------------------------------------------------------- block draws

def _draws_by_calls(gen, n, width, steps):
    idx, noise = [], []
    for _ in range(steps):
        idx.append(int(gen.integers(1, n, endpoint=True)) - 1)
        if width:
            noise.append(gen.uniform(-1.0, 1.0, width))
    return np.array(idx), np.array(noise).reshape(steps, width)


def _words_consumed(gen, key):
    """64-bit Philox words the generator has used, found by locating its
    next raw word in a fresh copy of the stream."""
    nxt = gen.bit_generator.random_raw()
    fresh = np.random.Philox(key=key).random_raw(100_000)
    return int(np.flatnonzero(fresh == nxt)[0])


# odd lengths leave a buffered high half-word for the next block, even ones
# starting on a buffered half end on one too
BLOCKS = (1, 2, 3, 5, 4, 7, 1, 6, 2, 8)


@pytest.mark.parametrize("n", [1, 2, 7, 50, 2**32])
@pytest.mark.parametrize("width", [0, 1, 3])
def test_sample_steps_matches_generator_calls(n, width):
    blocks, calls = RngStream(99), RngStream(99)
    for steps in BLOCKS:
        idx, noise = sample_steps([blocks], n, width, steps)
        want_idx, want_noise = _draws_by_calls(calls.generator, n, width, steps)
        np.testing.assert_array_equal(idx[:, 0], want_idx)
        np.testing.assert_array_equal(noise[:, 0], want_noise)
        assert idx.shape == (steps, 1) and noise.shape == (steps, 1, width)
    # the stream continues where the calls leave it, buffered half included
    assert blocks.generator.integers(1, 9, endpoint=True) == calls.generator.integers(1, 9, endpoint=True)
    assert blocks.generator.random() == calls.generator.random()


def test_sample_steps_exact_under_lemire_rejection():
    # range 2^31: about half of all 32-bit half-words land in Lemire's
    # rejection zone, so most blocks hit a rejection and must be replayed
    n, width, key = 2**31 + 1, 3, 4242
    blocks = RngStream(key)
    calls = np.random.Generator(np.random.Philox(key=key))
    for steps in BLOCKS + BLOCKS:
        idx, noise = sample_steps([blocks], n, width, steps)
        want_idx, want_noise = _draws_by_calls(calls, n, width, steps)
        np.testing.assert_array_equal(idx[:, 0], want_idx)
        np.testing.assert_array_equal(noise[:, 0], want_noise)
    assert blocks.generator.integers(1, n, endpoint=True) == calls.integers(1, n, endpoint=True)
    draws = 2 * sum(BLOCKS) + 1
    no_rejection_words = (draws - 1) * width + (draws + 1) // 2
    assert _words_consumed(calls, key) > no_rejection_words  # rejections did occur


class _ProxyGenerator:
    """Exposes only the two calls and no bit generator, as a tracing
    wrapper would."""

    def __init__(self, seed):
        gen = RngStream(seed).generator
        self.integers, self.uniform = gen.integers, gen.uniform


class _ProxyStream:
    def __init__(self, seed):
        self.generator = _ProxyGenerator(seed)


def test_sample_steps_goes_through_calls_without_a_philox_generator():
    idx, noise = sample_steps([_ProxyStream(5)], 50, 4, 9)
    want_idx, want_noise = _draws_by_calls(RngStream(5).generator, 50, 4, 9)
    np.testing.assert_array_equal(idx[:, 0], want_idx)
    np.testing.assert_array_equal(noise[:, 0], want_noise)


def test_sample_steps_decodes_a_mixed_batch_like_the_calls(monkeypatch):
    # range 2^31: a half-word is rejected with probability about 1/2. Seeds
    # 22 and 155 draw no rejected half-word in their first 7 draws, seed 0
    # draws one in its first 4.
    n, width = 2**31 + 1, 3
    buffered = RngStream(5)
    sample_steps([buffered], n, width, 1)  # an odd block leaves a half-word buffered
    streams = [RngStream(22), buffered, RngStream(0), _ProxyStream(6), RngStream(155)]
    calls = [RngStream(22).generator, RngStream(5).generator, RngStream(0).generator,
             RngStream(6).generator, RngStream(155).generator]
    _draws_by_calls(calls[1], n, width, 1)

    by_calls = []
    real = vecmath._steps_by_calls

    def spy(gen, *args):
        by_calls.append(next(s for s, st in enumerate(streams) if st.generator is gen))
        return real(gen, *args)

    monkeypatch.setattr(vecmath, "_steps_by_calls", spy)
    # through the calls: the buffered stream (which 4 steps leave buffered
    # again), the rejecting one in its first block, and the proxy. The odd
    # second block leaves the decoded streams on a buffered half-word.
    for steps, want_by_calls in ((4, [1, 2, 3]), (3, [1, 3])):
        by_calls.clear()
        idx, noise = sample_steps(streams, n, width, steps)
        for s, gen in enumerate(calls):
            want_idx, want_noise = _draws_by_calls(gen, n, width, steps)
            np.testing.assert_array_equal(idx[:, s], want_idx)
            np.testing.assert_array_equal(noise[:, s], want_noise)
        assert sorted(by_calls) == want_by_calls
    for stream, gen in zip(streams, calls):
        assert stream.generator.integers(1, n, endpoint=True) == gen.integers(1, n, endpoint=True)
        assert np.array_equal(stream.generator.uniform(-1.0, 1.0, 2), gen.uniform(-1.0, 1.0, 2))


def test_sample_steps_rejects_empty_range():
    with pytest.raises(ValueError):
        sample_steps([RngStream(0)], 0, 3, 4)


def test_decoder_self_check(monkeypatch):
    check = vecmath._check_philox_decoder.__wrapped__
    check()  # the installed numpy decodes exactly

    def off_by_one_ulp(gens, n, width, idx, noise):
        real(gens, n, width, idx, noise)
        noise[:] = np.nextafter(noise, 2.0)

    real = vecmath._decode_steps
    monkeypatch.setattr(vecmath, "_decode_steps", off_by_one_ulp)
    with pytest.raises(RuntimeError, match="Philox"):
        check()
