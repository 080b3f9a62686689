"""The package's generator against numpy's: ``random_doubles(seed, count)``
must be ``np.random.default_rng(seed).random(count)`` bit for bit, and
``uniform(seed, shape, low, high)`` must be
``np.random.default_rng(seed).uniform(low, high, shape)``.

NEP 19 does not promise that numpy's stream stays the same across
releases.  The goldens pin the reports built from it; these tests pin the
stream itself, so a numpy release that changes it fails here, next to the
generator that has to follow it."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from coincidia import _pcg64
from coincidia._pcg64 import MEMO_SIZE, random_doubles, uniform
from coincidia.bvp3 import check_h1, check_h2
from coincidia.errors import ConfigurationError
from coincidia.pendulum import (_CHECK_PROBE_PAIRS, _EXPANSIVE_PROBE_PAIRS, _EXPANSIVE_PROBE_SEED,
                                _probe_pairs, check_expansive)
from coincidia.registry import bvp3_example, pendulum_pa
from coincidia.stability import _PROBE_SAMPLES, _PROBE_SEED, _PROBE_SPAN, _probe

# 2^200 + 12345 has seven 32-bit words, more than SeedSequence's pool of four
SEEDS = [*range(64), 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 1, 2 ** 200 + 12345,
         _EXPANSIVE_PROBE_SEED, _PROBE_SEED]
COUNTS = [0, 1, 7, 400, 1000, 1400]


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestStream:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_default_rng(self, seed):
        for count in COUNTS:
            expected = np.random.default_rng(seed).random(count)
            np.testing.assert_array_equal(bits(random_doubles(seed, count)), bits(expected))

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint32(7), True])
    def test_numpy_and_bool_integers_are_seeds(self, seed):
        np.testing.assert_array_equal(bits(random_doubles(seed, 9)),
                                      bits(np.random.default_rng(seed).random(9)))

    @pytest.mark.parametrize("seed", [0, 5, _PROBE_SEED, 2 ** 64 + 1])
    @pytest.mark.parametrize("shape, low, high", [
        (1000, 0.0, _PROBE_SPAN),
        ((3, 7), -2.5, 0.75),
        ((200, 7), np.array([1e-9] + [-5.0] * 6), np.array([1.0] + [5.0] * 6)),
        ((2, _CHECK_PROBE_PAIRS), -5.0, 5.0),
    ])
    def test_uniform_matches_default_rng(self, seed, shape, low, high):
        expected = np.random.default_rng(seed).uniform(low, high, shape)
        drawn = uniform(seed, shape, low, high)
        assert drawn.shape == expected.shape
        np.testing.assert_array_equal(bits(drawn), bits(expected))

    def test_uniform_halves_are_consecutive_calls(self):
        rng = np.random.default_rng(3)
        first, second = rng.uniform(-5.0, 5.0, 50), rng.uniform(-5.0, 5.0, 50)
        x, y = uniform(3, (2, 50), -5.0, 5.0)
        np.testing.assert_array_equal(bits(x), bits(first))
        np.testing.assert_array_equal(bits(y), bits(second))

    @pytest.mark.parametrize("seed", [0, 3, _EXPANSIVE_PROBE_SEED])
    @pytest.mark.parametrize("pairs", [_EXPANSIVE_PROBE_PAIRS, _CHECK_PROBE_PAIRS])
    def test_pendulum_pairs_are_two_uniform_calls(self, seed, pairs):
        rng = np.random.default_rng(seed)
        x, y = rng.uniform(-5.0, 5.0, pairs), rng.uniform(-5.0, 5.0, pairs)
        px, py, _ = _probe_pairs(lambda r: r, seed, pairs)
        np.testing.assert_array_equal(bits(px), bits(x))
        np.testing.assert_array_equal(bits(py), bits(y))

    def test_stability_probes_are_one_uniform_call(self):
        expected = np.sort(np.random.default_rng(_PROBE_SEED).uniform(0.0, _PROBE_SPAN,
                                                                      _PROBE_SAMPLES))
        probes, _ = _probe(lambda t: t, "phi")
        np.testing.assert_array_equal(bits(probes), bits(expected))


class TestMemo:
    def test_result_is_read_only_and_shared(self):
        a = random_doubles(5, 10)
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.5
        assert random_doubles(5, 10) is a
        assert random_doubles(np.int64(5), 10) is a

    def test_memo_is_bounded(self):
        for seed in range(1000, 1000 + 3 * MEMO_SIZE):
            random_doubles(seed, 3)
        info = _pcg64._draw.cache_info()
        assert info.maxsize == MEMO_SIZE
        assert info.currsize <= MEMO_SIZE

    def test_an_evicted_pair_is_drawn_again_with_the_same_bits(self):
        first = random_doubles(2 ** 40, 50).copy()
        for seed in range(2000, 2000 + 2 * MEMO_SIZE):
            random_doubles(seed, 1)
        np.testing.assert_array_equal(bits(random_doubles(2 ** 40, 50)), bits(first))

    def test_threads_sharing_the_memo_draw_the_same_bits(self):
        # more seeds than the memo holds, so threads evict each other's entries
        seeds = list(range(3000, 3000 + 2 * MEMO_SIZE))
        expected = {s: bits(np.random.default_rng(s).random(64)) for s in seeds}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(random_doubles, s, 64) for s in seeds * 20]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for s, got in zip(seeds * 20, results):
            np.testing.assert_array_equal(bits(got), expected[s])
        assert _pcg64._draw.cache_info().currsize <= MEMO_SIZE


class TestBadSeeds:
    @pytest.mark.parametrize("seed", [-1, -(2 ** 70), 1.5, 2.0, "3", None])
    def test_generator_rejects(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            random_doubles(seed, 4)

    def test_check_h1_rejects_a_negative_seed(self):
        with pytest.raises(ConfigurationError, match="nonnegative"):
            check_h1(bvp3_example(), -1)

    def test_check_h2_rejects_a_fractional_seed(self):
        with pytest.raises(ConfigurationError, match="integer"):
            check_h2(bvp3_example(), 1.5)

    def test_check_expansive_rejects_a_negative_seed(self):
        with pytest.raises(ConfigurationError, match="nonnegative"):
            check_expansive(pendulum_pa(), -3)
