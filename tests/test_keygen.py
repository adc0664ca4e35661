import dataclasses

import numpy as np
import pytest

from srampuf import enroll
from srampuf.bitvec import BitVector
from srampuf.enroll import Mask, build_mask, mask_fingerprint
from srampuf.fuzzy import ReproduceFailure, generate, helper_from_text, helper_to_text
from srampuf.keygen import KeyMaterial, apply_mask, derive_key, generate_key, reproduce_key
from srampuf.simulate import Calibration, collect_samples, new_device

from _oracles import (code_offset_definition, flip_bits, outcome, random_bits, random_bytes,
                      weight, xor)

# SHA-256 of sixteen zero bytes (FIPS 180-4 reference value)
ZERO_RESPONSE_DIGEST = "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"


def identity_mask(length=128, device_id="dev"):
    return Mask(device_id=device_id, positions=np.arange(length), threshold=1,
                sample_count=2, window_length=1216, num_windows=1)


def random_mask(rng, span=2432, device_id="dev"):
    positions = np.sort(rng.choice(span, size=128, replace=False))
    return Mask(device_id=device_id, positions=positions, threshold=4,
                sample_count=300, window_length=1216, num_windows=2)


class TestApplyMask:
    def test_identity_prefix(self):
        rng = np.random.default_rng(0)
        raw = random_bits(rng, 300)
        assert apply_mask(raw, identity_mask()) == np.packbits(raw.bits[:128]).tobytes()

    def test_all_ones(self):
        rng = np.random.default_rng(1)
        raw = BitVector(np.ones(2432, dtype=np.uint8))
        assert weight(apply_mask(raw, random_mask(rng))) == 128

    def test_mask_of_127_positions_refused(self):
        mask = identity_mask(127)
        raw = random_bits(np.random.default_rng(3), 300)
        helper = generate(bytes(16), 1, mask_sha256=mask.fingerprint)
        message = "^mask selects 127 positions; a response needs 128$"
        with pytest.raises(ValueError, match=message):
            apply_mask(raw, mask)
        with pytest.raises(ValueError, match=message):
            reproduce_key(raw, mask, helper)

    def test_too_short_names_range(self):
        rng = np.random.default_rng(2)
        mask = random_mask(rng)
        last = int(mask.positions[-1])
        with pytest.raises(ValueError, match=f"0..{last}"):
            apply_mask(BitVector(np.zeros(last, dtype=np.uint8)), mask)

    def test_noiseless_device_constant_responses(self):
        cal = Calibration(unstable_fraction=0.0)
        device = new_device(5, num_bits=2432, calibration=cal)
        samples = collect_samples(device, cal.condition("NTNA"), 20, seed0=0)
        mask = build_mask(samples[:2], threshold=4)
        responses = {apply_mask(s, mask) for s in samples}
        assert len(responses) == 1


class TestDeriveKey:
    def test_pinned_zero_vector(self):
        key = derive_key(bytes(16))
        assert key.hex() == ZERO_RESPONSE_DIGEST

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        y = random_bytes(rng, 128)
        assert derive_key(y).digest == derive_key(y).digest

    def test_split_halves(self):
        rng = np.random.default_rng(4)
        key = derive_key(random_bytes(rng, 128))
        assert key.key1 + key.key2 == key.digest
        assert len(key.key1) == len(key.key2) == 16
        assert len(key.digest) * 8 == 256

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            derive_key(bytes(15))

    def test_avalanche(self):
        rng = np.random.default_rng(8)
        worst = 256
        for _ in range(1000):
            y = random_bytes(rng, 128)
            flipped = flip_bits(y, [rng.integers(128)])
            diff = weight(xor(derive_key(y).digest, derive_key(flipped).digest))
            worst = min(worst, diff)
        assert worst >= 100, f"weakest avalanche changed only {worst} of 256 bits"

    def test_digest_validation(self):
        with pytest.raises(ValueError):
            KeyMaterial(digest=b"short")


class TestPipeline:
    def setup_method(self):
        self.rng = np.random.default_rng(7)
        self.mask = random_mask(self.rng)
        self.raw = random_bits(self.rng, 2432)

    def test_deterministic(self):
        a = generate_key(self.raw, self.mask, seed=11)
        b = generate_key(self.raw, self.mask, seed=11)
        assert a[0] == b[0] and a[1].digest == b[1].digest

    def test_key_independent_of_codeword_seed(self):
        helper_a, key_a = generate_key(self.raw, self.mask, seed=1)
        helper_b, key_b = generate_key(self.raw, self.mask, seed=2)
        assert key_a.digest == key_b.digest
        assert helper_a.code_offset != helper_b.code_offset

    def test_round_trip(self):
        helper, key = generate_key(self.raw, self.mask, seed=3)
        assert reproduce_key(self.raw, self.mask, helper).digest == key.digest

    def test_single_masked_flip_everywhere(self):
        helper, key = generate_key(self.raw, self.mask, seed=4)
        for j in range(128):
            noisy = self.raw.with_flips([int(self.mask.positions[j])])
            assert reproduce_key(noisy, self.mask, helper).digest == key.digest

    def test_unmasked_noise_is_invisible(self):
        helper, key = generate_key(self.raw, self.mask, seed=5)
        unmasked = np.setdiff1d(np.arange(2432), self.mask.positions)
        noisy = self.raw.with_flips(unmasked)
        assert reproduce_key(noisy, self.mask, helper).digest == key.digest

    def test_double_masked_flip_fails_or_differs(self):
        helper, key = generate_key(self.raw, self.mask, seed=6)
        reproduced_original = 0
        for j, k in [(0, 1), (0, 127), (5, 90), (119, 127), (40, 41)]:
            noisy = self.raw.with_flips([int(self.mask.positions[j]), int(self.mask.positions[k])])
            try:
                if reproduce_key(noisy, self.mask, helper).digest == key.digest:
                    reproduced_original += 1
            except ReproduceFailure:
                pass
        assert reproduced_original == 0

    @pytest.mark.parametrize("seed", [51, 52, 53])
    def test_reproduce_key_matches_its_definition(self, seed):
        """The clean reading, every masked single flip and 300 each of masked
        double and triple flips give the key of the code-offset definition's
        response, or its refusal with the same message; so does the helper
        read back from its text, whose offset syndrome is computed afresh."""
        rng = np.random.default_rng(seed)
        mask, raw = random_mask(rng), random_bits(rng, 2432)
        helper, key = generate_key(raw, mask, seed)
        where = mask.positions.tolist()
        flips = [[], *([p] for p in where),
                 *(rng.choice(where, k, replace=False).tolist() for k in (2, 3) for _ in range(300))]
        for current in (helper, helper_from_text(helper_to_text(helper))):
            refused = 0
            for positions in flips:
                noisy = raw.with_flips(positions)
                got = outcome(lambda r, h: reproduce_key(r, mask, h).digest, noisy, current)
                assert got == outcome(lambda r, h: derive_key(code_offset_definition(
                    apply_mask(r, mask), h)).digest, noisy, current), positions
                refused += isinstance(got, str)
                if len(positions) < 2:
                    assert got == key.digest
            assert refused == 300   # every double flip, and no triple flip

    def test_mask_text_formatted_once_per_mask(self, monkeypatch):
        formatted = []

        def counting_mask_to_text(mask):
            formatted.append(mask)
            return real_mask_to_text(mask)

        real_mask_to_text = enroll.mask_to_text
        monkeypatch.setattr(enroll, "mask_to_text", counting_mask_to_text)
        helper, key = generate_key(self.raw, self.mask, seed=9)
        for _ in range(10):
            assert reproduce_key(self.raw, self.mask, helper).digest == key.digest
        assert len(formatted) == 1 and formatted[0] is self.mask

    def test_replaced_mask_gets_its_own_fingerprint(self):
        helper, _ = generate_key(self.raw, self.mask, seed=10)
        other = dataclasses.replace(self.mask, threshold=self.mask.threshold + 1)
        assert mask_fingerprint(other) != mask_fingerprint(self.mask)
        with pytest.raises(ValueError, match="different mask"):
            reproduce_key(self.raw, other, helper)

    def test_mask_mismatch_rejected(self):
        helper, _ = generate_key(self.raw, self.mask, seed=8)
        other = random_mask(np.random.default_rng(99))
        with pytest.raises(ValueError, match="different mask"):
            reproduce_key(self.raw, other, helper)

    def test_helper_of_another_device_refused_bound_or_unbound(self):
        # A helper made from another device's response decodes this device's
        # reading to a wrong key about half the time, so no such helper may
        # reach the decoder: neither one bound to the other device's mask nor
        # one bound to no mask at all.
        cal = Calibration()
        enrolled = []
        for seed in (0, 1):
            device = new_device(seed, num_bits=2432, calibration=cal)
            samples = collect_samples(device, cal.condition("NTNA"), 30, seed0=0)
            enrolled.append((samples[0], build_mask(samples, threshold=4)))
        (raw, mask), (other_raw, other_mask) = enrolled
        other_response = apply_mask(other_raw, other_mask)
        for seed in range(20):
            for mask_sha256 in ("", other_mask.fingerprint):
                helper = generate(other_response, seed, mask_sha256=mask_sha256)
                with pytest.raises(ValueError,
                                   match="^helper data was generated for a different mask$"):
                    reproduce_key(raw, mask, helper)


class TestUniqueness:
    def test_distinct_devices_distinct_keys(self):
        cal = Calibration()
        keys = set()
        for seed in range(15):
            device = new_device(seed, num_bits=2432, calibration=cal)
            samples = collect_samples(device, cal.condition("NTNA"), 30, seed0=0)
            mask = build_mask(samples, threshold=4, device_id=device.device_id)
            _, key = generate_key(samples[0], mask, seed=1)
            keys.add(key.key1)
        # 15 devices give 105 pairwise comparisons; all key1 values distinct
        assert len(keys) == 15
