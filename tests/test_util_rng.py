"""Tests for the deterministic RNG facilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.util.rng import (
    _SEED_CHUNK,
    SeedBank,
    logistic,
    pcg64_seeds,
    probit,
    seeded_normals,
    spread_evenly,
    stable_hash,
    stable_normal,
    stable_normal_array,
    stable_uniform,
    stable_uniform_array,
)


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("a", 1, "b") == stable_hash("a", 1, "b")

    def test_order_sensitive(self):
        assert stable_hash("a", "b") != stable_hash("b", "a")

    def test_boundary_sensitive(self):
        # ("ab", "c") must differ from ("a", "bc") despite equal concatenation.
        assert stable_hash("ab", "c") != stable_hash("a", "bc")

    def test_range(self):
        for parts in (("x",), ("y", 2), (3.5, None)):
            value = stable_hash(*parts)
            assert 0 <= value < 2**64

    def test_distinct_inputs_distinct_outputs(self):
        values = {stable_hash("key", i) for i in range(10_000)}
        assert len(values) == 10_000  # no collisions in a small sample


class TestStableDraws:
    def test_uniform_open_interval(self):
        for i in range(1000):
            u = stable_uniform("u-test", i)
            assert 0.0 < u < 1.0

    def test_uniform_mean_near_half(self):
        us = [stable_uniform("mean-test", i) for i in range(4000)]
        assert abs(np.mean(us) - 0.5) < 0.02

    def test_normal_moments(self):
        zs = [stable_normal("z-test", i) for i in range(4000)]
        assert abs(np.mean(zs)) < 0.06
        assert abs(np.std(zs) - 1.0) < 0.05

    def test_normal_deterministic(self):
        assert stable_normal("k", 7) == stable_normal("k", 7)

    def test_array_variants_deterministic(self):
        a = stable_normal_array(100, "arr", 1)
        b = stable_normal_array(100, "arr", 1)
        np.testing.assert_array_equal(a, b)
        u = stable_uniform_array(50, "arr", 2)
        assert u.shape == (50,)
        assert np.all((u >= 0) & (u < 1))

    def test_array_negative_size_rejected(self):
        with pytest.raises(ValueError):
            stable_normal_array(-1, "x")
        with pytest.raises(ValueError):
            stable_uniform_array(-1, "x")


class TestBatchedSeeding:
    """The vectorized SeedSequence/PCG64 port against NumPy itself."""

    EDGES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]

    def _entropies(self) -> list[int]:
        rng = np.random.default_rng(42)
        wide = rng.integers(0, 2**64 - 1, size=8_000, dtype=np.uint64, endpoint=True)
        narrow = rng.integers(0, 2**32, size=2_000, dtype=np.uint64)
        return self.EDGES + [int(e) for e in wide] + [int(e) for e in narrow]

    @staticmethod
    def _numpy_seeds(entropies):
        lcg = [np.random.PCG64(np.random.SeedSequence(e)).state["state"] for e in entropies]
        return [s["state"] for s in lcg], [s["inc"] for s in lcg]

    def test_seeds_match_numpy(self):
        entropies = self._entropies()
        assert len(entropies) > 10_000
        assert pcg64_seeds(entropies) == self._numpy_seeds(entropies)

    def test_single_and_empty_batches(self):
        for e in self.EDGES:
            assert pcg64_seeds([e]) == self._numpy_seeds([e])
        assert pcg64_seeds([]) == ([], [])

    def test_seeded_normals_match_fresh_generators(self):
        # Crosses a seeding-chunk boundary, and each stream draws enough to
        # leave the generator's state far from where the next one starts.
        entropies = self._entropies()[: _SEED_CHUNK + 3]
        got = list(seeded_normals(iter(entropies), 9))
        assert len(got) == len(entropies)
        for e, draws in zip(entropies, got):
            expected = np.random.default_rng(np.random.SeedSequence(e)).standard_normal(9)
            np.testing.assert_array_equal(draws, expected)

    def test_seeded_normals_empty(self):
        assert list(seeded_normals([], 5)) == []
        assert [d.shape for d in seeded_normals([3, 4], 0)] == [(0,), (0,)]


class TestSeedBank:
    def test_same_seed_same_stream(self):
        g1 = SeedBank(42).generator("stream")
        g2 = SeedBank(42).generator("stream")
        np.testing.assert_array_equal(g1.random(10), g2.random(10))

    def test_different_names_different_streams(self):
        bank = SeedBank(42)
        a = bank.generator("a").random(10)
        b = bank.generator("b").random(10)
        assert not np.allclose(a, b)

    def test_fork_independence(self):
        bank = SeedBank(42)
        child = bank.fork("child")
        a = bank.generator("x").random(5)
        b = child.generator("x").random(5)
        assert not np.allclose(a, b)

    def test_fork_deterministic(self):
        a = SeedBank(1).fork("c").generator("g").random(3)
        b = SeedBank(1).fork("c").generator("g").random(3)
        np.testing.assert_array_equal(a, b)

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            SeedBank("not-an-int")  # type: ignore[arg-type]

    def test_integers_helper(self):
        vals = SeedBank(3).integers("ints", 0, 10, 100)
        assert vals.shape == (100,)
        assert vals.min() >= 0 and vals.max() < 10


class TestSpreadEvenly:
    def test_sums_to_total(self):
        counts = spread_evenly(100, [1, 2, 3, 4])
        assert sum(counts) == 100

    def test_proportionality(self):
        counts = spread_evenly(100, [1, 1, 2])
        assert counts == [25, 25, 50]

    def test_zero_weights(self):
        counts = spread_evenly(5, [0, 0, 0])
        assert sum(counts) == 5

    def test_empty(self):
        assert spread_evenly(10, []) == []

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            spread_evenly(10, [1, -1])


class TestScalarHelpers:
    def test_probit_symmetry(self):
        assert probit(0.5) == pytest.approx(0.0, abs=1e-9)
        assert probit(0.975) == pytest.approx(1.96, abs=0.01)

    def test_probit_clipping(self):
        assert np.isfinite(probit(0.0))
        assert np.isfinite(probit(1.0))

    def test_logistic(self):
        assert logistic(0.0) == pytest.approx(0.5)
        assert logistic(100.0) == pytest.approx(1.0)
        assert logistic(-100.0) == pytest.approx(0.0, abs=1e-30)
