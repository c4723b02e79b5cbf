"""Unit tests for keyed RNG derivation."""

import numpy as np
from hypothesis import given, strategies as st

from repro import rng as rng_mod


class TestDerive:
    def test_same_key_same_stream(self):
        a = rng_mod.derive(7, "chip", 0)
        b = rng_mod.derive(7, "chip", 0)
        assert np.array_equal(a.random(16), b.random(16))

    def test_different_key_different_stream(self):
        a = rng_mod.derive(7, "chip", 0)
        b = rng_mod.derive(7, "chip", 1)
        assert not np.array_equal(a.random(16), b.random(16))

    def test_different_seed_different_stream(self):
        a = rng_mod.derive(7, "chip", 0)
        b = rng_mod.derive(8, "chip", 0)
        assert not np.array_equal(a.random(16), b.random(16))

    def test_key_parts_are_not_concatenation_ambiguous(self):
        # ("ab", "c") must differ from ("a", "bc").
        a = rng_mod.derive(7, "ab", "c")
        b = rng_mod.derive(7, "a", "bc")
        assert not np.array_equal(a.random(16), b.random(16))

    def test_bytes_and_str_parts_distinct(self):
        a = rng_mod.derive(7, b"x")
        b = rng_mod.derive(7, "x")
        # bytes and the identical string should still derive the same digest
        # input only if their encodings collide; blake2b input includes raw
        # bytes for both, so these are equal by design -- document behaviour.
        assert np.array_equal(a.random(4), b.random(4))

    def test_derive_seed_deterministic(self):
        assert rng_mod.derive_seed(1, "a") == rng_mod.derive_seed(1, "a")
        assert rng_mod.derive_seed(1, "a") != rng_mod.derive_seed(1, "b")

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    def test_derive_total_function(self, seed, key):
        generator = rng_mod.derive(seed, key)
        value = generator.random()
        assert 0.0 <= value < 1.0


class TestDeriveMany:
    def test_states_equal_derive_key_by_key(self):
        """5,000 keys of the shapes chips and beds derive, plus odd parts:
        every generator starts in ``derive``'s state and draws alike."""
        keys = [(name, chip_id) for chip_id in range(1000)
                for name in ("retention", "dpd", "vrt", "read", "placement")]
        keys[::97] = [("chip-variation", i, "B") for i in range(len(keys[::97]))]
        keys += [(), ("",), (b"raw", -3), ("ünï", 2**70)]
        derived = rng_mod.derive_many(368, keys)
        assert len(derived) == len(keys) >= 5000
        for key, generator in zip(keys, derived):
            assert generator.bit_generator.state == rng_mod.derive(368, *key).bit_generator.state
        assert derived[-1].random() == rng_mod.derive(368, *keys[-1]).random()
        assert rng_mod.derive_many(368, []) == []

    def test_seed_sequence_mix_of_short_integers(self):
        """Integers with zero high 32-bit words, whose seed sequences see
        fewer than four entropy words, mix as numpy's ``SeedSequence``."""
        values = [0, 1, 5, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1, 2**64,
                  2**95 + 7, 2**96 - 1, 2**96, 2**127, 2**128 - 1]
        values += [(0xDEADBEEF << shift) & (2**128 - 1) for shift in range(0, 128, 8)]
        words = np.frombuffer(
            b"".join(v.to_bytes(16, "little") for v in values), dtype="<u4"
        ).reshape(-1, 4)
        states = rng_mod._seed_sequence_states(words)
        for value, state in zip(values, states):
            want = np.random.SeedSequence(value).generate_state(4, np.uint64)
            assert np.array_equal(state, want), hex(value)
