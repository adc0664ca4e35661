import numpy as np
import pytest
from hypothesis import given, strategies as st

from srampuf.bitvec import (
    BitVector,
    DumpFormatError,
    format_hex_dump,
    hamming_distance,
    parse_hex_dump,
)

from _oracles import random_bits


def bv(s: str) -> BitVector:
    return BitVector.from01(s)


class TestXor:
    def test_identity_element(self):
        assert bv("1010") ^ bv("0000") == bv("1010")

    def test_self_inverse(self):
        assert bv("1010") ^ bv("1010") == bv("0000")

    def test_bitwise(self):
        assert bv("1100") ^ bv("1010") == bv("0110")

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            bv("10") ^ bv("101")


class TestHammingDistance:
    def test_reflexive(self):
        x = bv("100101")
        assert hamming_distance(x, x) == 0

    def test_complement(self):
        assert hamming_distance(bv("0000"), bv("1111")) == 4

    def test_direct_count(self):
        assert hamming_distance(bv("1010"), bv("1001")) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            hamming_distance(bv("10"), bv("100"))


class TestDumpFormat:
    def test_lsb_first(self):
        v = parse_hex_dump("00000001\n")
        assert v[0] == 1 and v.count() == 1

    def test_msb_position(self):
        v = parse_hex_dump("80000000\n")
        assert v[31] == 1 and v.count() == 1

    def test_word_concatenation(self):
        v = parse_hex_dump("FFFFFFFF\n00000000\n")
        assert len(v) == 64
        assert v[:32].count() == 32 and v[32:].count() == 0

    def test_blank_lines_and_case(self):
        assert parse_hex_dump("\n  deadBEEF  \n\n") == parse_hex_dump("DEADBEEF\n")

    def test_wrong_width_reports_line(self):
        with pytest.raises(DumpFormatError, match="line 2") as exc:
            parse_hex_dump("00000000\n1234\n")
        assert exc.value.lineno == 2

    def test_non_hex_reports_line(self):
        with pytest.raises(DumpFormatError, match="line 1"):
            parse_hex_dump("0000XYZ0\n")

    def test_serialize_requires_word_multiple(self):
        with pytest.raises(ValueError):
            format_hex_dump(bv("101"))

    @given(st.lists(st.integers(0, 2**32 - 1), max_size=50))
    def test_round_trip_is_canonical(self, words):
        messy = "".join(f"  {w:08x}\n\n" for w in words)
        canonical = "".join(f"{w:08X}\n" for w in words)
        parsed = parse_hex_dump(messy)
        assert format_hex_dump(parsed) == canonical
        assert parse_hex_dump(canonical) == parsed


class TestAlgebraicProperties:
    @given(st.data())
    def test_xor_involution_and_commutativity(self, data):
        n = data.draw(st.integers(0, 128))
        a = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n).map(BitVector))
        b = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n).map(BitVector))
        assert (a ^ b) ^ b == a
        assert a ^ b == b ^ a

    @given(st.data())
    def test_xor_associativity_and_triangle(self, data):
        n = data.draw(st.integers(1, 128))
        fixed = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(BitVector)
        a, b, c = data.draw(fixed), data.draw(fixed), data.draw(fixed)
        assert (a ^ b) ^ c == a ^ (b ^ c)
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


class TestBitVector:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="only 0 and 1"):
            BitVector([0, 2, 1])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            BitVector(np.zeros((2, 2), dtype=np.uint8))

    def test_immutable(self):
        v = bv("1010")
        with pytest.raises(ValueError):
            v.bits[0] = 1

    def test_byte_packing_convention(self):
        # bit 0 lands in the MSB of byte 0
        assert bv("10000000").to_bytes() == b"\x80"
        assert bv("00000001").to_bytes() == b"\x01"
        assert BitVector.from_bytes(b"\x80\x01") == bv("1000000000000001")

    def test_to_bytes_needs_multiple_of_eight(self):
        with pytest.raises(ValueError):
            bv("1010101").to_bytes()

    def test_take_and_flips(self):
        v = bv("0110")
        assert v.take([3, 0, 2]) == bv("001")
        assert v.with_flips([0, 3]) == bv("1111")

    def test_round_trip_bytes(self):
        rng = np.random.default_rng(5)
        v = random_bits(rng, 128)
        assert BitVector.from_bytes(v.to_bytes()) == v

    def test_to01(self):
        assert bv("10011").to01() == "10011"
