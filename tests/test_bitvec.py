import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from srampuf import bitvec
from srampuf.analytics import flip_rate_summary
from srampuf._kv import TextFormatError
from srampuf.bitvec import BitVector, format_hex_dump, load_dump, parse_hex_dump
from srampuf.enroll import Mask
from srampuf.keygen import apply_mask

from _oracles import from01 as bv, oracle_hex_dump, random_bits, to01


def same(a: BitVector, b: BitVector) -> bool:
    return np.array_equal(a.bits, b.bits)


def distance(a: BitVector, b: BitVector) -> int:
    return int(np.count_nonzero(a.bits != b.bits))


def mask_of(positions, base_offset=0) -> Mask:
    positions = np.asarray(positions)
    return Mask(device_id="", positions=positions, threshold=1, sample_count=2,
                base_offset=base_offset, window_length=int(positions[-1]) + 1)


def max_flips(reference: BitVector, reading: BitVector) -> int:
    """Masked distance as flip_rate_summary counts it, over a 128-bit identity mask."""
    mask = mask_of(np.arange(128))
    summary = flip_rate_summary(mask, apply_mask(reference, mask), {"c": [reading]})
    return summary["c"].max_flips


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
        assert v.bits[0] == 1 and np.count_nonzero(v.bits) == 1

    def test_msb_position(self):
        v = parse_hex_dump("80000000\n")
        assert v.bits[31] == 1 and np.count_nonzero(v.bits) == 1

    def test_word_concatenation(self):
        v = parse_hex_dump("FFFFFFFF\n00000000\n")
        assert len(v) == 64
        assert np.count_nonzero(v.bits[:32]) == 32 and np.count_nonzero(v.bits[32:]) == 0

    def test_blank_lines_and_case(self):
        assert same(parse_hex_dump("\n  deadBEEF  \n\n"), parse_hex_dump("DEADBEEF\n"))

    def test_empty_dump_is_empty_reading(self):
        assert len(parse_hex_dump("\n\n")) == 0

    def test_wrong_width_reports_line(self):
        with pytest.raises(TextFormatError, match="dump: line 2"):
            parse_hex_dump("00000000\n1234\n")

    def test_non_hex_reports_line(self):
        with pytest.raises(TextFormatError, match="line 1"):
            parse_hex_dump("0000XYZ0\n")

    @pytest.mark.parametrize("word", ["-1234567", "+1234567", "1_234567", "0x123456"])
    def test_signs_separators_and_prefixes_are_not_hex(self, word):
        with pytest.raises(TextFormatError, match="line 2: not hexadecimal"):
            parse_hex_dump(f"00000000\n{word}\n")

    def test_load_names_the_file(self, tmp_path):
        path = tmp_path / "sample-00007.hex"
        path.write_text("00000000\n" * 6 + "12G4\n")
        with pytest.raises(TextFormatError, match=re.escape(f"{path}: line 7: expected 8 hex digits")):
            load_dump(path)

    def test_serialize_requires_word_multiple(self):
        with pytest.raises(ValueError):
            format_hex_dump(bv("101"))

    def test_format_matches_per_word_oracle(self):
        rng = np.random.default_rng(3)
        lengths = [0, 32, 120_000, *(32 * rng.integers(2, 4000, size=8)).tolist()]
        for n in lengths:
            reading = random_bits(rng, n)
            assert format_hex_dump(reading) == oracle_hex_dump(reading), n

    @given(st.lists(st.integers(0, 2**32 - 1), max_size=50))
    def test_round_trip_is_canonical(self, words):
        messy = "".join(f"  {w:08x}\n\n" for w in words)
        canonical = "".join(f"{w:08X}\n" for w in words)
        parsed = parse_hex_dump(messy)
        assert format_hex_dump(parsed) == canonical
        assert same(parse_hex_dump(canonical), parsed)

    # The writer's own form is read on a fast path; every other accepted form
    # goes to the line-by-line parser. The two must agree.
    @given(st.lists(st.integers(0, 2**32 - 1), max_size=50))
    def test_fast_path_agrees_with_parser(self, words):
        canonical = "".join(f"{w:08X}\n" for w in words)
        assert bitvec._writer_form(canonical) == bitvec._parse_lines(canonical, "dump")
        expected = parse_hex_dump(canonical).packed
        assert np.array_equal(parse_hex_dump(canonical.lower()).packed, expected)
        for line_end in ("\n\n", "\r\n", " \n"):
            text = canonical.replace("\n", line_end)
            assert bitvec._writer_form(text) is None or not words
            assert np.array_equal(parse_hex_dump(text).packed, expected)

    @pytest.mark.parametrize("text, message", [
        ("0000 000\n", "line 1: not hexadecimal"),
        ("00000000\n\t0000000\n", "line 2: expected 8 hex digits"),
        ("0000é000\n", "line 1: not hexadecimal"),
        ("00000000\n0000000", "line 2: expected 8 hex digits"),
    ])
    def test_bad_line_in_the_writer_shape_is_named(self, text, message):
        assert bitvec._writer_form(text) is None
        with pytest.raises(TextFormatError, match=message):
            parse_hex_dump(text)


class TestAlgebraicProperties:
    @given(st.data())
    def test_distance_symmetry_and_triangle(self, data):
        n = data.draw(st.integers(1, 128))
        fixed = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(BitVector)
        a, b, c = data.draw(fixed), data.draw(fixed), data.draw(fixed)
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

    def test_copies_its_input(self):
        source = np.array([1, 0, 1, 0], dtype=np.uint8)
        v = BitVector(source)
        source[0] = 0
        assert to01(v) == "1010"

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
        assert same(bv("0110").with_flips([0, 3]), bv("1111"))

    def test_flips_refuse_repeated_positions(self):
        with pytest.raises(ValueError, match="repeat"):
            bv("0110").with_flips([1, 1])

    def test_round_trip_bytes(self):
        rng = np.random.default_rng(5)
        v = random_bits(rng, 128)
        packed = apply_mask(v, mask_of(np.arange(128)))
        assert same(BitVector(np.unpackbits(np.frombuffer(packed, dtype=np.uint8))), v)

    def test_to01(self):
        assert to01(bv("10011")) == "10011"
