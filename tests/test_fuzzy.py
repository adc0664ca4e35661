import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srampuf import fuzzy
from srampuf.bitvec import BitVector
from srampuf.fuzzy import (
    HammingCode,
    HelperData,
    ReproduceFailure,
    UncorrectableError,
    generate,
    helper_from_text,
    helper_to_text,
    load_helper,
    reproduce,
    save_helper,
)
from srampuf._kv import TextFormatError

from _oracles import random_bits

CODE = HammingCode()


def random_codeword(rng) -> BitVector:
    return CODE.encode(random_bits(rng, CODE.k))


class TestHammingCode:
    def test_zero_maps_to_zero(self):
        assert CODE.encode(BitVector.zeros(120)) == BitVector.zeros(128)

    def test_codewords_have_zero_syndrome(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            assert CODE.syndrome(random_codeword(rng)) == 0

    def test_systematic(self):
        rng = np.random.default_rng(2)
        message = random_bits(rng, 120)
        assert CODE.encode(message)[:120] == message

    def test_unit_messages_have_weight_three_or_more(self):
        # brute force over all 120 single-bit messages pins the minimum distance
        for i in range(120):
            codeword = CODE.encode(BitVector.zeros(120).with_flips([i]))
            assert codeword.count() >= 3, f"unit message {i} gives weight {codeword.count()}"

    def test_linear(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m1, m2 = random_bits(rng, 120), random_bits(rng, 120)
            assert CODE.encode(m1) ^ CODE.encode(m2) == CODE.encode(m1 ^ m2)

    def test_wrong_lengths(self):
        with pytest.raises(ValueError):
            CODE.encode(BitVector.zeros(128))
        with pytest.raises(ValueError):
            CODE.correct(BitVector.zeros(120))

    def test_column_codes_distinct_and_in_range(self):
        codes = CODE.column_codes
        assert len(set(codes.tolist())) == 128
        assert codes.min() == 1 and codes.max() == 128


class TestCorrection:
    def test_valid_word_unchanged(self):
        rng = np.random.default_rng(4)
        c = random_codeword(rng)
        assert CODE.correct(c) == c

    def test_every_single_flip_corrected(self):
        rng = np.random.default_rng(5)
        c = random_codeword(rng)
        for j in range(128):
            assert CODE.correct(c.with_flips([j])) == c, f"flip at {j} not corrected"

    def test_double_flips_never_return_original(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            c = random_codeword(rng)
            pairs = rng.choice(128, size=(40, 2), replace=True)
            for j, k in pairs:
                if j == k:
                    continue
                word = c.with_flips([int(j), int(k)])
                try:
                    result = CODE.correct(word)
                except UncorrectableError:
                    continue
                assert result != c
                assert CODE.syndrome(result) == 0  # miscorrection still lands on a codeword

    def test_uncorrectable_syndrome(self):
        # flipping the columns coded 127 and 128 yields syndrome 255
        rng = np.random.default_rng(7)
        c = random_codeword(rng)
        codes = CODE.column_codes.tolist()
        word = c.with_flips([codes.index(127), codes.index(128)])
        with pytest.raises(UncorrectableError) as exc:
            CODE.correct(word)
        assert exc.value.syndrome == 255


class TestGenerate:
    def test_deterministic(self):
        rng = np.random.default_rng(8)
        y = random_bits(rng, 128)
        assert generate(y, 1234).code_offset == generate(y, 1234).code_offset

    def test_offset_xor_response_is_codeword(self):
        rng = np.random.default_rng(9)
        for seed in range(25):
            y = random_bits(rng, 128)
            helper = generate(y, seed)
            assert CODE.syndrome(helper.code_offset ^ y) == 0

    def test_seeds_give_distinct_offsets(self):
        rng = np.random.default_rng(10)
        y = random_bits(rng, 128)
        offsets = {generate(y, seed).code_offset.to_bytes() for seed in range(1000)}
        assert len(offsets) == 1000

    def test_unseeded_codeword_is_os_entropy(self, monkeypatch):
        drawn = bytes(range(0x11, 0x20))
        requested = []

        def token_bytes(n):
            requested.append(n)
            return drawn

        monkeypatch.setattr(fuzzy.secrets, "token_bytes", token_bytes)
        y = random_bits(np.random.default_rng(12), 128)
        helper = generate(y)
        assert requested == [15]
        assert helper.code_offset ^ y == CODE.encode(BitVector.from_bytes(drawn))

    def test_offset_is_128_bits(self):
        rng = np.random.default_rng(11)
        helper = generate(random_bits(rng, 128), 0)
        assert len(helper.code_offset) == 128
        with pytest.raises(ValueError):
            generate(random_bits(rng, 127), 0)

    def test_helper_rejects_wrong_offset_length(self):
        with pytest.raises(ValueError):
            HelperData(code_offset=BitVector.zeros(64))


class TestReproduce:
    def test_identity(self):
        rng = np.random.default_rng(12)
        y = random_bits(rng, 128)
        helper = generate(y, 99)
        assert reproduce(y, helper) == y

    def test_all_single_flips_reproduce(self):
        rng = np.random.default_rng(13)
        y = random_bits(rng, 128)
        helper = generate(y, 7)
        for j in range(128):
            assert reproduce(y.with_flips([j]), helper) == y

    def test_double_flips_never_reproduce(self):
        rng = np.random.default_rng(14)
        y = random_bits(rng, 128)
        helper = generate(y, 21)
        successes = 0
        pairs = list(itertools.combinations(range(0, 128, 5), 2))
        for j, k in pairs:
            try:
                if reproduce(y.with_flips([j, k]), helper) == y:
                    successes += 1
            except ReproduceFailure:
                pass
        assert successes == 0, f"{successes} of {len(pairs)} double flips reproduced"

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 2**32))
    def test_round_trip_property(self, bits_seed, codeword_seed):
        y = random_bits(np.random.default_rng(bits_seed), 128)
        assert reproduce(y, generate(y, codeword_seed)) == y


class TestHelperFile:
    def test_round_trip_text(self):
        rng = np.random.default_rng(15)
        helper = generate(random_bits(rng, 128), 3, device_id="dev-a", mask_sha256="ab" * 32)
        text = helper_to_text(helper)
        assert helper_from_text(text) == helper
        assert helper_to_text(helper_from_text(text)) == text

    def test_round_trip_file(self, tmp_path):
        rng = np.random.default_rng(16)
        helper = generate(random_bits(rng, 128), 4, device_id="dev-b")
        path = tmp_path / "dev-b.helper"
        save_helper(path, helper)
        assert load_helper(path) == helper
        save_helper(tmp_path / "again.helper", load_helper(path))
        assert (tmp_path / "again.helper").read_bytes() == path.read_bytes()

    def test_rejects_bad_offset(self):
        rng = np.random.default_rng(17)
        text = helper_to_text(generate(random_bits(rng, 128), 5))
        with pytest.raises(TextFormatError):
            helper_from_text(text.replace("code_offset = ", "code_offset = ZZ"))

    @pytest.mark.parametrize("key, value", [
        pytest.param("n", "x", id="n"), pytest.param("k", "x", id="k"),
        pytest.param("r", "x", id="r"), ("code", "bch-255"), ("n", "255"), ("k", "64"),
        ("r", "9")])
    def test_rejects_bad_code_parameter(self, key, value):
        rng = np.random.default_rng(18)
        lines = helper_to_text(generate(random_bits(rng, 128), 6)).splitlines(keepends=True)
        bad = "".join(f"{key} = {value}\n" if line.startswith(f"{key} = ") else line
                      for line in lines)
        with pytest.raises(TextFormatError, match=f"'{key}'"):
            helper_from_text(bad)

    def test_rejects_missing_key(self):
        with pytest.raises(TextFormatError, match="missing keys"):
            helper_from_text("format = srampuf-helper-v1\n")
