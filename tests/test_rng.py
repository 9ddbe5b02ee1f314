import numpy as np
import pytest

from locosparse.errors import ConfigError
from locosparse.rng import CounterRng, derive_seed, mix64


def test_word_stream_matches_splitmix64_reference():
    # published splitmix64 output sequence for seed 0
    words = CounterRng(0)._words(3)
    assert [int(w) for w in words] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_mix64_stays_in_64_bits():
    for z in (0, 1, 2**63, 2**64 - 1, 0xDEADBEEF):
        assert 0 <= mix64(z) < 2**64


def test_mix64_avalanche_on_single_bit_flip():
    # flipping one input bit should flip roughly half the output bits
    base = mix64(0x123456789ABCDEF0)
    for bit in (0, 17, 41, 63):
        other = mix64(0x123456789ABCDEF0 ^ (1 << bit))
        flipped = bin(base ^ other).count("1")
        assert 10 <= flipped <= 54


def test_derive_seed_deterministic_and_distinct():
    a = derive_seed(7, "batch", 0)
    b = derive_seed(7, "batch", 0)
    c = derive_seed(7, "batch", 1)
    d = derive_seed(8, "batch", 0)
    assert a == b
    assert a != c
    assert a != d
    assert c != d


def test_derive_seed_order_sensitive():
    assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")


def test_derive_seed_string_vs_int_parts_differ():
    assert derive_seed(0, 1) != derive_seed(0, "1")


def test_derive_seed_rejects_unsupported_part_type():
    with pytest.raises(ConfigError):
        derive_seed(0, 1.5)


def test_uniforms_deterministic_and_in_range():
    rng = CounterRng(42)
    u = rng.uniforms(10000)
    assert u.shape == (10000,)
    assert np.all(u >= 0.0)
    assert np.all(u < 1.0)
    again = CounterRng(42).uniforms(10000)
    assert np.array_equal(u, again)


def test_uniforms_chunking_invariance():
    # drawing in pieces must give the same stream as drawing at once
    rng_a = CounterRng(99)
    parts = np.concatenate([rng_a.uniforms(3), rng_a.uniforms(5), rng_a.uniforms(2)])
    whole = CounterRng(99).uniforms(10)
    assert np.array_equal(parts, whole)


def test_normals_chunking_invariance():
    rng_a = CounterRng(7)
    parts = np.concatenate([rng_a.normals(4), rng_a.normals(6)])
    whole = CounterRng(7).normals(10)
    assert np.array_equal(parts, whole)


def test_integers_chunking_invariance():
    rng_a = CounterRng(5)
    parts = np.concatenate([rng_a.integers(3, 100), rng_a.integers(7, 100)])
    whole = CounterRng(5).integers(10, 100)
    assert np.array_equal(parts, whole)


def test_uniform_moments():
    u = CounterRng(1).uniforms(200000)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_uniform_equidistribution_chi_square():
    u = CounterRng(12345).uniforms(100000)
    counts, _ = np.histogram(u, bins=20, range=(0.0, 1.0))
    expected = 100000 / 20
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # 19 degrees of freedom: mean 19, std ~6.2; allow a generous band
    assert chi2 < 60.0


def test_normal_moments():
    z = CounterRng(2).normals(200000)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02
    # skewness and excess kurtosis of a standard normal are both 0
    assert abs(float((z ** 3).mean())) < 0.05
    assert abs(float((z ** 4).mean()) - 3.0) < 0.1


def test_normals_are_finite():
    z = CounterRng(3).normals(100001)
    assert np.all(np.isfinite(z))


def test_integers_range_and_coverage():
    k = CounterRng(4).integers(50000, 13)
    assert k.dtype == np.int64
    assert k.min() >= 0
    assert k.max() <= 12
    assert len(np.unique(k)) == 13


def test_integers_uniformity():
    k = CounterRng(11).integers(130000, 13)
    counts = np.bincount(k, minlength=13)
    expected = 130000 / 13
    assert np.all(np.abs(counts - expected) < 6.0 * np.sqrt(expected))


def test_integers_bound_validation():
    rng = CounterRng(0)
    with pytest.raises(ConfigError):
        rng.integers(4, 0)
    with pytest.raises(ConfigError):
        rng.integers(4, -3)
    with pytest.raises(ConfigError):
        rng.integers(4, 2**31)


def test_different_seeds_give_different_streams():
    a = CounterRng(0).uniforms(64)
    b = CounterRng(1).uniforms(64)
    assert not np.array_equal(a, b)


def test_zero_count_draws():
    rng = CounterRng(6)
    assert rng.uniforms(0).size == 0
    assert rng.normals(0).size == 0
    assert rng.integers(0, 5).size == 0
    # a zero-size draw must not advance the stream
    assert np.array_equal(rng.uniforms(4), CounterRng(6).uniforms(4))
