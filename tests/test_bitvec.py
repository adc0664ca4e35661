import numpy as np
import pytest
from hypothesis import given, strategies as st

from srampuf.analytics import flip_rate_summary
from srampuf.bitvec import (
    BitVector,
    DumpFormatError,
    format_hex_dump,
    parse_hex_dump,
)
from srampuf.enroll import Mask
from srampuf.keygen import apply_mask

from _oracles import random_bits


def bv(s: str) -> BitVector:
    return BitVector.from01(s)


def distance(a: BitVector, b: BitVector) -> int:
    return int(np.count_nonzero((a ^ b).bits))


def mask_of(positions, base_offset=0) -> Mask:
    positions = np.asarray(positions)
    return Mask(device_id="", positions=positions, threshold=1, sample_count=2,
                base_offset=base_offset, window_length=int(positions[-1]) + 1)


def max_flips(reference: BitVector, reading: BitVector) -> int:
    """Masked distance as flip_rate_summary counts it, over a 128-bit identity mask."""
    mask = mask_of(np.arange(128))
    summary = flip_rate_summary(mask, apply_mask(reference, mask), {"c": [reading]})
    return summary["c"].max_flips


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


# Response distances are counted by flip_rate_summary, as the popcount of
# XORed 16-byte responses.
class TestHammingDistance:
    def test_reflexive(self):
        x = bv("100101" * 22)
        assert max_flips(x, x) == 0

    def test_complement(self):
        assert max_flips(bv("0" * 128), bv("1" * 128)) == 128

    def test_direct_count(self):
        assert max_flips(bv("1010" * 32), bv("1001" + "1010" * 31)) == 2

    def test_length_mismatch(self):
        mask = mask_of(np.arange(128))
        with pytest.raises(ValueError, match="16 bytes"):
            flip_rate_summary(mask, bytes(15), {"c": [bv("0" * 128)]})


class TestDumpFormat:
    def test_lsb_first(self):
        v = parse_hex_dump("00000001\n")
        assert v[0] == 1 and np.count_nonzero(v.bits) == 1

    def test_msb_position(self):
        v = parse_hex_dump("80000000\n")
        assert v[31] == 1 and np.count_nonzero(v.bits) == 1

    def test_word_concatenation(self):
        v = parse_hex_dump("FFFFFFFF\n00000000\n")
        assert len(v) == 64
        assert np.count_nonzero(v[:32].bits) == 32 and np.count_nonzero(v[32:].bits) == 0

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
        assert distance(a, b) == distance(b, a)
        assert distance(a, c) <= distance(a, b) + distance(b, c)


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
        # apply_mask packs the response with bit 0 in the MSB of byte 0
        mask = mask_of(np.arange(128))
        assert apply_mask(bv("1" + "0" * 127), mask) == b"\x80" + bytes(15)
        assert apply_mask(bv("00000001" + "0" * 120), mask) == b"\x01" + bytes(15)
        assert apply_mask(bv("1000000000000001" + "0" * 112), mask) == b"\x80\x01" + bytes(14)

    def test_take_and_flips(self):
        # apply_mask gathers the bits at base_offset + positions, in order
        v = bv("0110" * 65)
        assert apply_mask(v, mask_of(2 * np.arange(128) + 1, base_offset=2)) == b"\x55" * 16
        assert bv("0110").with_flips([0, 3]) == bv("1111")

    def test_round_trip_bytes(self):
        rng = np.random.default_rng(5)
        v = random_bits(rng, 128)
        packed = apply_mask(v, mask_of(np.arange(128)))
        assert BitVector(np.unpackbits(np.frombuffer(packed, dtype=np.uint8))) == v

    def test_to01(self):
        assert bv("10011").to01() == "10011"
