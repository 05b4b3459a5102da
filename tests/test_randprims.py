import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tprslab.errors import DomainOverflow, ValidationError
from tprslab.linalg import symmetric_projector
from tprslab.randprims import (
    KEY_BYTES,
    MAX_WIDTH,
    KeyedPermutation,
    PhaseFunction,
    RngSeed,
    draw_key_words,
    key_words,
    sample_haar_block,
)

from .util import feistel_apply_oracle, key_word_oracle, phase_bit_oracle


def _words(key: bytes) -> np.ndarray:
    return key_words(np.frombuffer(key, dtype=np.uint8)[None, :])


class TestKeyedPermutation:
    @pytest.mark.parametrize("rounds", [3, 4])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_exhaustive_bijection(self, n, rounds):
        table = KeyedPermutation.apply_block(_words(b"exhaustive-key!!"), np.arange(2**n, dtype=np.uint64), n, rounds)
        assert sorted(table.tolist()) == list(range(2**n))

    def test_n4_all_distinct(self):
        outs = KeyedPermutation.apply_block(_words(b"sixteen-points!!"), np.arange(16, dtype=np.uint64), 4, 4)
        assert len(set(outs.tolist())) == 16

    def test_determinism(self):
        xs = np.arange(64, dtype=np.uint64)
        a = KeyedPermutation.apply_block(_words(b"same-key-same!!!"), xs, 6, 4)
        b = KeyedPermutation.apply_block(_words(b"same-key-same!!!"), xs, 6, 4)
        assert np.array_equal(a, b)

    def test_adaptive_rounds_small_width(self):
        assert KeyedPermutation.default_rounds(2) > 4
        assert KeyedPermutation.default_rounds(10) == 4


class TestVectorisedFeistel:
    @settings(max_examples=60, deadline=None)
    @given(key=st.binary(min_size=1, max_size=24), n=st.integers(1, MAX_WIDTH), rounds=st.integers(1, 9))
    def test_block_matches_python_int_oracle(self, key, n, rounds):
        xs = sorted({0, 1, 2**n - 1, (0x5A5A5A & (2**n - 1))})
        images = KeyedPermutation.apply_block(_words(key), np.array(xs, dtype=np.uint64), n, rounds)
        assert images.tolist() == [feistel_apply_oracle(key, n, rounds, x) for x in xs]

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 11])
    def test_block_rows_match_oracles(self, n):
        rng = np.random.default_rng(n)
        keys = [bytes(rng.bytes(KEY_BYTES)) for _ in range(7)]
        words = key_words(np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(7, KEY_BYTES))
        xs = np.arange(2**n, dtype=np.uint64)
        rounds = KeyedPermutation.default_rounds(n)
        images = KeyedPermutation.apply_block(words[:, None], xs, n, rounds)
        for key, row in zip(keys, images):
            assert row.tolist() == [feistel_apply_oracle(key, n, rounds, x) for x in range(2**n)]
        bits = PhaseFunction.keyed_bits(words[:, None], xs)
        for key, row in zip(keys, bits):
            assert row.tolist() == [phase_bit_oracle(key, x) for x in range(2**n)]

    def test_widths_beyond_uint64_are_rejected(self):
        top = 2**MAX_WIDTH - 1
        assert PhaseFunction.keyed(MAX_WIDTH, b"wide").eval(top) in (0, 1)
        for n in (MAX_WIDTH + 1, 128):
            with pytest.raises(ValidationError):
                PhaseFunction.keyed(n, b"wide")

    def test_key_word_matches_oracle(self):
        for key in (b"", b"k", b"det", b"exhaustive-key!!", bytes(range(23))):
            assert int(key_words(np.frombuffer(key, dtype=np.uint8)[None, :])[0]) == key_word_oracle(key)

    def test_draw_key_words_is_one_bytes_call(self):
        a = draw_key_words(RngSeed(4).generator(), 5)
        raw = RngSeed(4).generator().bytes(5 * KEY_BYTES)
        assert [int(w) for w in a] == [key_word_oracle(raw[i : i + KEY_BYTES]) for i in range(0, len(raw), KEY_BYTES)]

    def test_phase_bits_match_oracle(self):
        f = PhaseFunction.keyed(7, b"phase-oracle-key")
        assert [f.eval(x) for x in range(128)] == [phase_bit_oracle(b"phase-oracle-key", x) for x in range(128)]


class TestPhaseFunction:
    def test_zero_kind(self):
        f = PhaseFunction.zero(4)
        assert all(f.eval(x) == 0 for x in range(16))

    def test_table_reproducible(self):
        f1 = PhaseFunction.random_table(5, RngSeed(9).generator())
        f2 = PhaseFunction.random_table(5, RngSeed(9).generator())
        assert np.array_equal(f1.eval_many(range(32)), f2.eval_many(range(32)))

    def test_keyed_bias(self):
        f = PhaseFunction.keyed(8, b"bias-probe-key!!")
        bits = f.eval_many(range(256)).astype(float)
        assert abs(bits.mean() - 0.5) <= 0.1

    def test_keyed_deterministic(self):
        f = PhaseFunction.keyed(6, b"det")
        assert list(f.eval_many(range(64))) == list(f.eval_many(range(64)))

    def test_overflow(self):
        with pytest.raises(DomainOverflow):
            PhaseFunction.zero(3).eval(8)


class TestHaarSampler:
    def test_norm(self):
        for seed in range(100):
            (amps,) = sample_haar_block(3, 1, RngSeed(seed).generator())
            assert abs(np.linalg.norm(amps) - 1) <= 1e-12

    def test_first_amplitude_moment(self):
        block = sample_haar_block(1, 10000, RngSeed(3).generator())
        mean = float(np.mean(np.abs(block[:, 0]) ** 2))
        assert abs(mean - 0.5) <= 0.01

    def test_two_copy_moment_matches_symmetric_projector(self):
        block = sample_haar_block(1, 100000, RngSeed(5).generator())
        rows = np.einsum("si,sj->sij", block, block).reshape(-1, 4)
        moment = np.einsum("si,sj->ij", rows, rows.conj()) / len(block)
        assert np.max(np.abs(moment - symmetric_projector(1, 2) / 3)) <= 0.02

    def test_unitary_invariance(self):
        theta = 0.7
        u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex)
        block = sample_haar_block(1, 100000, RngSeed(6).generator()) @ u.T
        mean = float(np.mean(np.abs(block[:, 0]) ** 2))
        assert abs(mean - 0.5) <= 0.01
        rows = np.einsum("si,sj->sij", block, block).reshape(-1, 4)
        moment = np.einsum("si,sj->ij", rows, rows.conj()) / len(block)
        assert np.max(np.abs(moment - symmetric_projector(1, 2) / 3)) <= 0.02

    def test_seed_reproducibility(self):
        a = sample_haar_block(2, 3, RngSeed(44).generator())
        b = sample_haar_block(2, 3, RngSeed(44).generator())
        assert np.array_equal(a, b)
