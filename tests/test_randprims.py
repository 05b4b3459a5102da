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


class TestKeyedPermutation:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 11, 12])
    def test_exhaustive_bijection(self, n):
        p = KeyedPermutation(n, b"exhaustive-key!!")
        table = p.table()
        assert sorted(table) == list(range(2**n))

    def test_invert_round_trip(self):
        p = KeyedPermutation(8, b"roundtrip-key!!!")
        for x in range(256):
            assert p.invert(p.apply(x)) == x
            assert p.apply(p.invert(x)) == x

    def test_identity_key_convention(self):
        p = KeyedPermutation(5, b"")
        table = p.table()
        assert sorted(table) == list(range(32))

    def test_n4_all_distinct(self):
        p = KeyedPermutation(4, b"sixteen-points!!")
        outs = [p.apply(x) for x in range(16)]
        assert len(set(outs)) == 16

    def test_determinism(self):
        a = KeyedPermutation(6, b"same-key-same!!!")
        b = KeyedPermutation(6, b"same-key-same!!!")
        assert np.array_equal(a.table(), b.table())

    def test_domain_overflow(self):
        p = KeyedPermutation(3, b"k")
        with pytest.raises(DomainOverflow):
            p.apply(8)

    def test_adaptive_rounds_small_width(self):
        rng = np.random.default_rng(0)
        p = KeyedPermutation.from_rng(2, rng)
        assert p.rounds > 4
        assert KeyedPermutation.from_rng(10, rng).rounds == 4

    def test_odd_rounds_invertible(self):
        p = KeyedPermutation(5, b"odd-round-key!!!", rounds=3)
        for x in range(32):
            assert p.invert(p.apply(x)) == x


class TestVectorisedFeistel:
    @settings(max_examples=200, deadline=None)
    @given(
        key=st.binary(max_size=24),
        n=st.integers(1, MAX_WIDTH),
        rounds=st.integers(1, 9),
        data=st.data(),
    )
    def test_invert_apply_round_trip(self, key, n, rounds, data):
        p = KeyedPermutation(n, key, rounds)
        x = data.draw(st.integers(0, 2**n - 1))
        assert p.invert(p.apply(x)) == x
        assert p.apply(p.invert(x)) == x

    @settings(max_examples=60, deadline=None)
    @given(key=st.binary(max_size=24), n=st.integers(1, MAX_WIDTH), rounds=st.integers(1, 9))
    def test_scalar_matches_python_int_oracle(self, key, n, rounds):
        p = KeyedPermutation(n, key, rounds)
        for x in {0, 1, 2**n - 1, (0x5A5A5A & (2**n - 1))}:
            assert p.apply(x) == feistel_apply_oracle(key, n, rounds, x)

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 11])
    def test_block_rows_match_scalar_keys(self, n):
        rng = np.random.default_rng(n)
        keys = [bytes(rng.bytes(KEY_BYTES)) for _ in range(7)]
        words = key_words(np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(7, KEY_BYTES))
        xs = np.arange(2**n, dtype=np.uint64)
        rounds = KeyedPermutation.default_rounds(n)
        images = KeyedPermutation.apply_block(words[:, None], xs, n, rounds)
        for key, row in zip(keys, images):
            p = KeyedPermutation(n, key, rounds)
            assert row.tolist() == p.table().tolist()
            assert [p.invert(int(y)) for y in row] == xs.tolist()
        bits = PhaseFunction.keyed_bits(words[:, None], xs)
        for key, row in zip(keys, bits):
            assert row.tolist() == PhaseFunction.keyed(n, key).eval_many(range(2**n)).tolist()

    def test_widths_beyond_uint64_are_rejected(self):
        top = 2**MAX_WIDTH - 1
        p = KeyedPermutation(MAX_WIDTH, b"wide")
        assert p.invert(p.apply(top)) == top
        assert PhaseFunction.keyed(MAX_WIDTH, b"wide").eval(top) in (0, 1)
        for n in (MAX_WIDTH + 1, 128):
            with pytest.raises(ValidationError):
                KeyedPermutation(n, b"wide")
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
