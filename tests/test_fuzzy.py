import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srampuf.fuzzy import (
    COLUMN_CODES,
    HelperData,
    ReproduceFailure,
    correct,
    generate,
    helper_from_text,
    helper_to_text,
    load_helper,
    reproduce,
    save_helper,
    syndrome,
)
from srampuf._kv import TextFormatError
from srampuf.analytics import flip_rate_summary
from srampuf.enroll import Mask
from srampuf.keygen import KeyMaterial, derive_key

from _oracles import (code_offset_definition, flip_bits, oracle_code_offset_decode,
                      oracle_encode, oracle_syndrome, outcome, random_bytes, weight, xor)


def random_codeword(rng) -> bytes:
    return oracle_encode(random_bytes(rng, 120))


class TestHammingCode:
    def test_zero_maps_to_zero(self):
        assert oracle_encode(bytes(15)) == bytes(16)
        assert syndrome(bytes(16)) == generate(bytes(16)).syndrome == 0

    def test_codewords_have_zero_syndrome(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            assert syndrome(random_codeword(rng)) == 0

    def test_systematic(self):
        # bits 0..119 hold the message: any message, completed by a parity
        # byte alone, is a codeword
        rng = np.random.default_rng(2)
        message = random_bytes(rng, 120)
        codeword = oracle_encode(message)
        assert codeword[:15] == message and syndrome(codeword) == 0

    def test_unit_messages_have_weight_three_or_more(self):
        # brute force over all 120 single-bit messages pins the minimum distance
        for i in range(120):
            codeword = oracle_encode(flip_bits(bytes(15), [i]))
            assert weight(codeword) >= 3, f"unit message {i} gives weight {weight(codeword)}"

    def test_linear(self):
        # so the helper's syndrome XOR a reading's is its error pattern's
        rng = np.random.default_rng(3)
        for _ in range(30):
            a, b = random_bytes(rng, 128), random_bytes(rng, 128)
            assert syndrome(xor(a, b)) == syndrome(a) ^ syndrome(b)

    def test_wrong_lengths(self):
        with pytest.raises(ValueError):
            syndrome(bytes(17))
        with pytest.raises(ValueError):
            correct(bytes(15))

    def test_syndrome_matches_bitwise_oracle(self):
        rng = np.random.default_rng(6)
        words = [bytes(16), bytes([0xFF] * 16)]
        words += [flip_bits(bytes(16), [i]) for i in range(128)]
        words += [random_bytes(rng, 128) for _ in range(1000)]
        for word in words:
            assert syndrome(word) == oracle_syndrome(word), word.hex()

    def test_column_codes_distinct_and_in_range(self):
        codes = COLUMN_CODES
        assert isinstance(codes, tuple) and len(set(codes)) == 128
        assert min(codes) == 1 and max(codes) <= 255
        # odd weight everywhere, so no double flip's syndrome is a column code
        assert all(bin(c).count("1") % 2 for c in codes)
        # parity bit b is bit 120 + b, in byte 15, with column code 2**b
        assert codes[120:] == tuple(1 << b for b in range(8))


class TestCorrection:
    def test_valid_word_unchanged(self):
        rng = np.random.default_rng(4)
        c = random_codeword(rng)
        assert correct(c) == c

    def test_every_single_flip_corrected(self):
        rng = np.random.default_rng(5)
        c = random_codeword(rng)
        for j in range(128):
            assert correct(flip_bits(c, [j])) == c, f"flip at {j} not corrected"

    def test_double_flips_never_return_original(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            c = random_codeword(rng)
            pairs = rng.choice(128, size=(40, 2), replace=True)
            for j, k in pairs:
                if j == k:
                    continue
                word = flip_bits(c, [j, k])
                try:
                    result = correct(word)
                except ReproduceFailure:
                    continue
                assert result != c
                assert syndrome(result) == 0  # miscorrection still lands on a codeword

    def test_uncorrectable_syndrome(self):
        # flipping the columns coded 127 and 128 yields syndrome 255
        rng = np.random.default_rng(7)
        c = random_codeword(rng)
        word = flip_bits(c, [COLUMN_CODES.index(127), COLUMN_CODES.index(128)])
        with pytest.raises(ReproduceFailure, match=r"\(syndrome 255\)"):
            correct(word)


class TestGenerate:
    def test_deterministic(self):
        rng = np.random.default_rng(8)
        y = random_bytes(rng, 128)
        assert generate(y) == generate(y)

    def test_offset_xor_response_is_codeword(self):
        """For any codeword c, the code offset y ^ c XOR the response is a
        codeword, and the helper's syndrome is that offset's syndrome."""
        rng = np.random.default_rng(9)
        for _ in range(25):
            y = random_bytes(rng, 128)
            helper = generate(y)
            for codeword in (bytes(16), random_codeword(rng)):
                offset = xor(y, codeword)
                assert syndrome(xor(offset, y)) == 0
                assert helper.syndrome == syndrome(offset) == oracle_syndrome(offset)


class TestReproduce:
    def test_identity(self):
        rng = np.random.default_rng(12)
        y = random_bytes(rng, 128)
        helper = generate(y)
        assert reproduce(y, helper) == y

    def test_all_single_flips_reproduce(self):
        rng = np.random.default_rng(13)
        y = random_bytes(rng, 128)
        helper = generate(y)
        for j in range(128):
            assert reproduce(flip_bits(y, [j]), helper) == y

    def test_double_flips_never_reproduce(self):
        rng = np.random.default_rng(14)
        y = random_bytes(rng, 128)
        helper = generate(y)
        successes = 0
        pairs = list(itertools.combinations(range(0, 128, 5), 2))
        for j, k in pairs:
            try:
                if reproduce(flip_bits(y, [j, k]), helper) == y:
                    successes += 1
            except ReproduceFailure:
                pass
        assert successes == 0, f"{successes} of {len(pairs)} double flips reproduced"

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 2**32),
           st.sets(st.integers(0, 127), max_size=3))
    def test_round_trip_property(self, bits_seed, codeword_seed, flips):
        """Round trip, and a reading 0-3 flips away decodes as the decoder
        that shares no code with the library's syndrome decodes it, with the
        offset of a random codeword."""
        y = random_bytes(np.random.default_rng(bits_seed), 128)
        helper = generate(y)
        offset = xor(y, random_codeword(np.random.default_rng(codeword_seed)))
        assert reproduce(y, helper) == y
        noisy = flip_bits(y, flips)
        assert (outcome(reproduce, noisy, helper)
                == outcome(oracle_code_offset_decode, noisy, offset))
        if len(flips) <= 1:
            assert reproduce(noisy, helper) == y


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_reproduce_matches_code_offset_definition(seed):
    """The clean reading, every single and double flip, 2,000 triple flips
    and 500 readings of other devices give ``o ^ correct(reading ^ o)``, or
    its refusal with the same message, for the offset ``o = response ^ c`` of
    each of four codewords ``c``: the helper is what every offset shares."""
    rng = np.random.default_rng(seed)
    y = random_bytes(rng, 128)
    helper = generate(y)
    triples = [rng.choice(128, 3, replace=False) for _ in range(2000)]
    flips = [*itertools.chain.from_iterable(itertools.combinations(range(128), k)
                                            for k in range(3)), *triples]
    assert len(flips) == 1 + 128 + 8128 + 2000
    readings = [flip_bits(y, positions) for positions in flips]
    readings += [random_bytes(rng, 128) for _ in range(500)]
    got = [outcome(reproduce, noisy, helper) for noisy in readings]
    for codeword in (bytes(16), *(random_codeword(rng) for _ in range(3))):
        offset = xor(y, codeword)
        assert got == [outcome(code_offset_definition, noisy, offset) for noisy in readings]
    refused = 0
    for positions, noisy, result in zip(flips, readings, got):
        if isinstance(result, str):
            refused += 1
        else:
            assert type(result) is bytes and weight(xor(result, noisy)) <= 1, list(positions)
    assert refused == 8128


HELPER = HelperData(syndrome=0)
# Every entry of the key path that takes bytes of one size, with a wrong-sized
# value; all of them state the rule in the same words.
SIZE_REFUSALS = {
    "syndrome": (lambda: syndrome(bytes(15)), "word must be 16 bytes, got 15"),
    "generate": (lambda: generate(bytes(17)), "response must be 16 bytes, got 17"),
    "reproduce-short": (lambda: reproduce(bytes(15), HELPER),
                        "noisy response must be 16 bytes, got 15"),
    "reproduce-long": (lambda: reproduce(bytes(17), HELPER),
                       "noisy response must be 16 bytes, got 17"),
    "derive-key": (lambda: derive_key(bytes(15)), "response must be 16 bytes, got 15"),
    "key-material": (lambda: KeyMaterial(digest=bytes(31)), "digest must be 32 bytes, got 31"),
    "flip-rate-summary": (lambda: flip_rate_summary(
        Mask(device_id="", positions=np.arange(128), threshold=1, sample_count=2), bytes(15), {}),
        "reference response must be 16 bytes, got 15"),
}


@pytest.mark.parametrize("call, message", SIZE_REFUSALS.values(), ids=list(SIZE_REFUSALS))
def test_wrong_size_is_refused_in_one_wording(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestHelperFile:
    def test_round_trip_text(self):
        rng = np.random.default_rng(15)
        helper = generate(random_bytes(rng, 128), mask_sha256="ab" * 32)
        text = helper_to_text(helper)
        assert helper_from_text(text) == helper
        assert helper_to_text(helper_from_text(text)) == text

    def test_round_trip_file(self, tmp_path):
        rng = np.random.default_rng(16)
        helper = generate(random_bytes(rng, 128))
        path = tmp_path / "dev-b.helper"
        save_helper(path, helper)
        assert load_helper(path) == helper
        save_helper(tmp_path / "again.helper", load_helper(path))
        assert (tmp_path / "again.helper").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("key, value", [
        pytest.param("n", "x", id="n"), pytest.param("k", "x", id="k"),
        pytest.param("r", "x", id="r"), ("code", "bch-255"), ("n", "255"), ("k", "64"),
        ("r", "9")])
    def test_rejects_bad_code_parameter(self, key, value):
        # v4 fixes the code by its format, so a code or parameter line, as a
        # v3 helper held, is an unknown key whatever its value
        rng = np.random.default_rng(18)
        bad = helper_to_text(generate(random_bytes(rng, 128))) + f"{key} = {value}\n"
        with pytest.raises(TextFormatError, match=f"^helper data: line 4: unknown key '{key}'$"):
            helper_from_text(bad)

    def test_each_format_names_one_code(self):
        text = helper_to_text(generate(bytes(16)))
        assert text == "format = srampuf-helper-v4\nmask_sha256 = \nsyndrome = 0\n"
        # every retired format is refused by its format line, whatever it holds
        v3 = text.replace("-v4", "-v3") + "code = hsiao-128-120\n"
        for fmt, code in (("v1", "hamming-128-120"), ("v3", "hsiao-128-120")):
            with pytest.raises(TextFormatError, match="^helper data: unsupported format "
                                                      f"'srampuf-helper-{fmt}'; run genkey again$"):
                helper_from_text(v3.replace("-v3", f"-{fmt}").replace("hsiao-128-120", code))
        # neither the code nor the device is a field: a helper holds its
        # syndrome and its mask binding
        for field in ("code", "device_id"):
            with pytest.raises(TypeError):
                HelperData(syndrome=0, **{field: "x"})

    def test_rejects_missing_key(self):
        with pytest.raises(TextFormatError, match="missing keys"):
            helper_from_text("format = srampuf-helper-v4\n")
