import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srampuf import fuzzy
from srampuf.fuzzy import (
    COLUMN_CODES,
    HelperData,
    ReproduceFailure,
    correct,
    encode,
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
                      oracle_syndrome, outcome, random_bytes, weight, xor)


def random_codeword(rng) -> bytes:
    return encode(random_bytes(rng, 120))


class TestHammingCode:
    def test_zero_maps_to_zero(self):
        assert encode(bytes(15)) == bytes(16)

    def test_codewords_have_zero_syndrome(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            assert syndrome(random_codeword(rng)) == 0

    def test_systematic(self):
        rng = np.random.default_rng(2)
        message = random_bytes(rng, 120)
        assert encode(message)[:15] == message

    def test_unit_messages_have_weight_three_or_more(self):
        # brute force over all 120 single-bit messages pins the minimum distance
        for i in range(120):
            codeword = encode(flip_bits(bytes(15), [i]))
            assert weight(codeword) >= 3, f"unit message {i} gives weight {weight(codeword)}"

    def test_linear(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m1, m2 = random_bytes(rng, 120), random_bytes(rng, 120)
            assert xor(encode(m1), encode(m2)) == encode(xor(m1, m2))

    def test_wrong_lengths(self):
        with pytest.raises(ValueError):
            encode(bytes(16))
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
        assert len(set(codes.tolist())) == 128
        assert codes.min() == 1 and codes.max() <= 255
        # odd weight everywhere, so no double flip's syndrome is a column code
        assert all(bin(c).count("1") % 2 for c in codes.tolist())
        # parity bit b is bit 120 + b, in byte 15, with column code 2**b
        assert codes[120:].tolist() == [1 << b for b in range(8)]
        assert not codes.flags.writeable


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
        codes = COLUMN_CODES.tolist()
        word = flip_bits(c, [codes.index(127), codes.index(128)])
        with pytest.raises(ReproduceFailure, match=r"\(syndrome 255\)"):
            correct(word)


class TestGenerate:
    def test_deterministic(self):
        rng = np.random.default_rng(8)
        y = random_bytes(rng, 128)
        assert generate(y, 1234).code_offset == generate(y, 1234).code_offset

    def test_offset_xor_response_is_codeword(self):
        rng = np.random.default_rng(9)
        for seed in range(25):
            y = random_bytes(rng, 128)
            helper = generate(y, seed)
            assert syndrome(xor(helper.code_offset, y)) == 0

    def test_seeds_give_distinct_offsets(self):
        rng = np.random.default_rng(10)
        y = random_bytes(rng, 128)
        offsets = {generate(y, seed).code_offset for seed in range(1000)}
        assert len(offsets) == 1000

    def test_unseeded_codeword_is_os_entropy(self, monkeypatch):
        drawn = bytes(range(0x11, 0x20))
        requested = []

        def token_bytes(n):
            requested.append(n)
            return drawn

        monkeypatch.setattr(fuzzy.secrets, "token_bytes", token_bytes)
        y = random_bytes(np.random.default_rng(12), 128)
        helper = generate(y)
        assert requested == [15]
        assert xor(helper.code_offset, y) == encode(drawn)

    def test_offset_is_128_bits(self):
        rng = np.random.default_rng(11)
        helper = generate(random_bytes(rng, 128), 0)
        assert len(helper.code_offset) * 8 == 128
        with pytest.raises(ValueError):
            generate(random_bytes(rng, 120), 0)

    def test_helper_rejects_wrong_offset_length(self):
        with pytest.raises(ValueError):
            HelperData(code_offset=bytes(8))


class TestReproduce:
    def test_identity(self):
        rng = np.random.default_rng(12)
        y = random_bytes(rng, 128)
        helper = generate(y, 99)
        assert reproduce(y, helper) == y

    def test_all_single_flips_reproduce(self):
        rng = np.random.default_rng(13)
        y = random_bytes(rng, 128)
        helper = generate(y, 7)
        for j in range(128):
            assert reproduce(flip_bits(y, [j]), helper) == y

    def test_double_flips_never_reproduce(self):
        rng = np.random.default_rng(14)
        y = random_bytes(rng, 128)
        helper = generate(y, 21)
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
        that shares no code with the library's syndrome decodes it."""
        y = random_bytes(np.random.default_rng(bits_seed), 128)
        helper = generate(y, codeword_seed)
        assert reproduce(y, helper) == y
        noisy = flip_bits(y, flips)
        assert outcome(reproduce, noisy, helper) == outcome(oracle_code_offset_decode, noisy, helper)
        if len(flips) <= 1:
            assert reproduce(noisy, helper) == y


def test_offset_syndrome_is_the_offset_syndrome_computed_once(monkeypatch):
    rng = np.random.default_rng(41)
    helpers = [generate(random_bytes(rng, 128), seed) for seed in range(20)]
    calls = []

    def counting_syndrome(word):
        calls.append(word)
        return syndrome(word)

    monkeypatch.setattr(fuzzy, "syndrome", counting_syndrome)
    for helper in helpers:
        for _ in range(3):
            assert helper.offset_syndrome == syndrome(helper.code_offset) == oracle_syndrome(
                helper.code_offset)
            reproduce(helper.code_offset, helper)
    assert len(calls) == 20


def test_offset_syndrome_is_no_field():
    """The cached syndrome plays no part in equality, hashing, ``replace``
    or the helper's text, and ``replace`` never carries it to a new offset."""
    rng = np.random.default_rng(42)
    a = generate(random_bytes(rng, 128), 1, device_id="dev-a", mask_sha256="ab" * 32)
    b = helper_from_text(helper_to_text(a))
    s = a.offset_syndrome
    assert "offset_syndrome" in vars(a) and "offset_syndrome" not in vars(b)
    assert a == b and hash(a) == hash(b) and helper_to_text(a) == helper_to_text(b)
    assert "offset_syndrome" not in {f.name for f in dataclasses.fields(HelperData)}
    same = dataclasses.replace(a, device_id="dev-b")
    assert "offset_syndrome" not in vars(same) and same.offset_syndrome == s
    other = random_bytes(rng, 128)
    moved = dataclasses.replace(a, code_offset=other)
    assert moved.offset_syndrome == syndrome(other) and moved != a


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_reproduce_matches_code_offset_definition(seed):
    """The clean reading, every single and double flip and 2,000 triple flips
    give the definition's response, or its refusal with the same message."""
    rng = np.random.default_rng(seed)
    y = random_bytes(rng, 128)
    helper = generate(y, seed)
    triples = [rng.choice(128, 3, replace=False) for _ in range(2000)]
    flips = [*itertools.chain.from_iterable(itertools.combinations(range(128), k)
                                            for k in range(3)), *triples]
    assert len(flips) == 1 + 128 + 8128 + 2000
    refused = 0
    for positions in flips:
        noisy = flip_bits(y, positions)
        got = outcome(reproduce, noisy, helper)
        assert got == outcome(code_offset_definition, noisy, helper), list(positions)
        if isinstance(got, str):
            refused += 1
        else:
            assert type(got) is bytes and weight(xor(got, noisy)) <= 1
    assert refused == 8128


HELPER = HelperData(code_offset=bytes(16))
# Every entry of the key path that takes bytes of one size, with a wrong-sized
# value; all of them state the rule in the same words.
SIZE_REFUSALS = {
    "syndrome": (lambda: syndrome(bytes(15)), "word must be 16 bytes, got 15"),
    "encode": (lambda: encode(bytes(16)), "message must be 15 bytes, got 16"),
    "helper": (lambda: HelperData(code_offset=bytes(8)), "code offset must be 16 bytes, got 8"),
    "generate": (lambda: generate(bytes(17), 0), "response must be 16 bytes, got 17"),
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
        helper = generate(random_bytes(rng, 128), 3, device_id="dev-a", mask_sha256="ab" * 32)
        text = helper_to_text(helper)
        assert helper_from_text(text) == helper
        assert helper_to_text(helper_from_text(text)) == text

    def test_round_trip_file(self, tmp_path):
        rng = np.random.default_rng(16)
        helper = generate(random_bytes(rng, 128), 4, device_id="dev-b")
        path = tmp_path / "dev-b.helper"
        save_helper(path, helper)
        assert load_helper(path) == helper
        save_helper(tmp_path / "again.helper", load_helper(path))
        assert (tmp_path / "again.helper").read_bytes() == path.read_bytes()

    def test_rejects_bad_offset(self):
        rng = np.random.default_rng(17)
        text = helper_to_text(generate(random_bytes(rng, 128), 5))
        with pytest.raises(TextFormatError):
            helper_from_text(text.replace("code_offset = ", "code_offset = ZZ"))

    def test_rejects_spaced_offset(self):
        # 32 characters, but only 11 bytes once fromhex drops the spaces
        text = helper_to_text(generate(bytes(16), 5))
        offset = text.splitlines()[-1].partition(" = ")[2]
        with pytest.raises(TextFormatError, match="code_offset"):
            helper_from_text(text.replace(offset, "00 11 22 33 44 55 66 77 88 99 AA"))

    @pytest.mark.parametrize("key, value", [
        pytest.param("n", "x", id="n"), pytest.param("k", "x", id="k"),
        pytest.param("r", "x", id="r"), ("code", "bch-255"), ("n", "255"), ("k", "64"),
        ("r", "9")])
    def test_rejects_bad_code_parameter(self, key, value):
        rng = np.random.default_rng(18)
        lines = helper_to_text(generate(random_bytes(rng, 128), 6)).splitlines(keepends=True)
        bad = "".join(f"{key} = {value}\n" if line.startswith(f"{key} = ") else line
                      for line in lines)
        with pytest.raises(TextFormatError, match=f"'{key}'"):
            helper_from_text(bad)

    def test_each_format_names_one_code(self):
        text = helper_to_text(generate(bytes(16), 5))
        assert text.startswith("format = srampuf-helper-v2\n")
        assert "code = hsiao-128-120\n" in text
        # the retired v1 format is refused whichever code it names
        v1 = text.replace("srampuf-helper-v2", "srampuf-helper-v1")
        for code in ("hamming-128-120", "hsiao-128-120"):
            with pytest.raises(TextFormatError,
                               match="^helper data: unsupported format 'srampuf-helper-v1'$"):
                helper_from_text(v1.replace("hsiao-128-120", code))
        # the code is no field: a helper holds only the v2 code's offset
        with pytest.raises(TypeError):
            HelperData(code_offset=bytes(16), code="hsiao-128-120")

    def test_rejects_missing_key(self):
        with pytest.raises(TextFormatError, match="missing keys"):
            helper_from_text("format = srampuf-helper-v2\n")
