"""Tests for the stable hash pair h1/h2."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.hashing import fnv1a_64, h1, h2, splitmix64, stable_hash
from tests.conftest import equal_spellings


class TestFnv1a:
    def test_known_vector_empty(self):
        # FNV-1a offset basis for empty input.
        assert fnv1a_64(b"") == 0xCBF29CE484222325

    def test_known_vector_a(self):
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C

    def test_distinct_inputs_distinct_outputs(self):
        values = {fnv1a_64(f"key-{i}".encode()) for i in range(10_000)}
        assert len(values) == 10_000

    def test_result_fits_64_bits(self):
        assert fnv1a_64(b"x" * 1000) < 1 << 64


class TestSplitmix:
    def test_deterministic(self):
        assert splitmix64(12345) == splitmix64(12345)

    def test_zero_input_nonzero_output(self):
        assert splitmix64(0) != 0

    def test_bijective_like_no_collisions_small_range(self):
        outs = {splitmix64(i) for i in range(100_000)}
        assert len(outs) == 100_000


class TestH1H2Independence:
    def test_h1_h2_differ_on_same_key(self):
        for key in ("tenant-1", 42, b"bytes"):
            assert h1(key) != h2(key)

    def test_h1_stable_across_types_consistently(self):
        # Same value => same hash; int vs str must differ (they are not
        # equal, and `=` never matches one with the other).
        assert h1(7) == h1(7)
        assert h1("7") != h1(7)

    def test_bool_not_confused_with_int(self):
        # `=` matches True with 1 and False with 0, so each bool is one
        # routing key with the int it equals, and only with that one.
        assert h1(True) == h1(1) != h1(0)
        assert h2(False) == h2(0) != h2(1)

    def test_mod_n_roughly_uniform(self):
        n = 64
        counts = [0] * n
        for i in range(64_000):
            counts[h1(f"tenant-{i}") % n] += 1
        expected = 1000
        assert all(abs(c - expected) < expected * 0.25 for c in counts)

    def test_h2_offset_roughly_uniform_within_s(self):
        s = 8
        counts = [0] * s
        for i in range(8_000):
            counts[h2(i) % s] += 1
        assert all(abs(c - 1000) < 250 for c in counts)


class TestStableHash:
    def test_seed_changes_output(self):
        assert stable_hash("k", seed=1) != stable_hash("k", seed=2)

    def test_seed_zero_is_raw_fnv(self):
        assert stable_hash("abc", seed=0) == fnv1a_64(b"abc")

    def test_negative_ints_supported(self):
        assert stable_hash(-5) != stable_hash(5)

    def test_arbitrary_objects_hash_via_repr(self):
        assert stable_hash((1, 2)) == stable_hash((1, 2))
        assert stable_hash((1, 2)) != stable_hash((2, 1))


class TestEqualKeys:
    """Keys ``=`` equates are one routing key: ``h1``/``h2`` encode a
    ``str``, ``int``, ``float`` or ``bool`` by value."""

    def test_numeric_spellings(self):
        assert {h1(k) for k in (5, 5.0)} == {h1(5)}
        assert {h2(k) for k in (1, 1.0, True)} == {h2(1)}
        assert {h2(k) for k in (0, 0.0, -0.0, False)} == {h2(0)}
        assert h2(2.5) != h2(2) and h2(2.5) != h2(3)
        assert h2(2**53 + 1) != h2(float(2**53 + 1))  # no float is that precise

    def test_strings_stand_alone(self):
        assert h2("5") != h2(5)

    def test_keys_whose_equals_cannot_be_listed(self):
        # Only the four scalar types hash by value; a tuple hashes by repr.
        assert (1, 2) == (1.0, 2)
        assert h2((1, 2)) != h2((1.0, 2))

    def test_spellings_hash_alike(self):
        assert {type(k) for k in equal_spellings(0)} == {int, float, bool}
        assert len({h2(k) for k in equal_spellings(0)}) == 1


@given(st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans(), st.text()))
def test_property_equal_keys_are_one_class(key):
    """Every key ``==`` *key* hashes as *key* does under ``h1`` and ``h2``."""
    for other in equal_spellings(key):
        assert h1(other) == h1(key)
        assert h2(other) == h2(key)


@given(st.one_of(st.integers(), st.text(), st.binary()))
def test_property_hashes_deterministic(key):
    assert h1(key) == h1(key)
    assert h2(key) == h2(key)


@given(st.integers(min_value=0, max_value=2**62))
def test_property_splitmix_in_range(value):
    assert 0 <= splitmix64(value) < 1 << 64
