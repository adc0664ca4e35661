"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (visible with ``pytest -rA`` or ``-s``)."""

import time

import numpy as np

from srampuf.analytics import block_stability, window_flip_rate
from srampuf.bitvec import load_dump, save_dump
from srampuf.enroll import (
    Mask,
    build_mask,
    load_mask,
    save_mask,
    weight_positions,
)
from srampuf.fuzzy import (
    ReproduceFailure,
    correct,
    generate,
    load_helper,
    reproduce,
    save_helper,
    syndrome,
)
from srampuf.keygen import apply_mask, derive_key, generate_key, reproduce_key
from srampuf.registry import Registry, RegistryEntry, load_registry, save_registry
from srampuf.simulate import Calibration, collect_samples, new_device, power_up_sample

from _oracles import (flip_bits, oracle_encode, oracle_weights, random_bits, random_bytes, weight,
                      xor)


class Criterion:
    """Prints one `[acceptance] criterion N PASS/FAIL` line per criterion."""

    def __init__(self, number: int, title: str):
        self.number = number
        self.title = title
        self.detail = ""

    def note(self, detail: str) -> None:
        self.detail = detail

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "FAIL" if exc_type else "PASS"
        suffix = f" ({self.detail})" if self.detail else ""
        print(f"[acceptance] criterion {self.number} {status}: {self.title}{suffix}")
        return False


def test_criterion_1_exhaustive_single_error_recovery():
    with Criterion(1, "all 12,800 single-bit flips reproduce the enrolled response") as c:
        rng = np.random.default_rng(1001)
        start = time.monotonic()
        successes = 0
        for trial in range(100):
            y = random_bytes(rng, 128)
            helper = generate(y)
            for j in range(128):
                if reproduce(flip_bits(y, [j]), helper) == y:
                    successes += 1
        elapsed = time.monotonic() - start
        assert successes == 12_800
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
        c.note(f"12800/12800 in {elapsed:.2f}s")


def test_criterion_2_round_trip_identity():
    with Criterion(2, "generate then reproduce on the same dump is key-identical, 1000 cases") as c:
        rng = np.random.default_rng(1002)
        for trial in range(1000):
            raw = random_bits(rng, 2432)
            positions = np.sort(rng.choice(2432, size=128, replace=False))
            mask = Mask(device_id=f"case-{trial}", positions=positions, threshold=4,
                        sample_count=300, window_length=1216, num_windows=2)
            helper, key = generate_key(raw, mask)
            assert reproduce_key(raw, mask, helper).digest == key.digest
        c.note("1000/1000 identical 256-bit keys")


def test_criterion_3_weight_oracle_equivalence():
    with Criterion(3, "run weights match the boundary-distance oracle on 10,000 maps") as c:
        rng = np.random.default_rng(1003)
        for trial in range(10_000):
            n = int(rng.integers(1, 4097))
            density = rng.uniform(0.05, 0.95)
            stable = rng.random(n) < density
            got = weight_positions(stable)
            expected = oracle_weights(stable)
            assert np.array_equal(got, expected)
        c.note("10,000 maps up to 4096 bits, exact")


def test_criterion_4_threshold_monotonicity(default_sweep):
    with Criterion(4, "selected counts never grow with the threshold") as c:
        rng = np.random.default_rng(1004)
        for trial in range(1000):
            n = int(rng.integers(64, 4097))
            stable = rng.random(n) < rng.uniform(0.3, 0.95)
            weights = weight_positions(stable)
            counts = [np.count_nonzero(weights >= t) for t in range(1, 9)]
            assert all(a >= b for a, b in zip(counts, counts[1:]))
        # each condition repeats every block's selected count
        means = [np.mean([r.selected_count for r in default_sweep if r.threshold == t])
                 for t in (1, 2, 3, 4, 5)]
        assert all(a > b for a, b in zip(means, means[1:])), means
        c.note("1000 random maps non-increasing; device block means "
               + " > ".join(f"{m:.1f}" for m in means))


def test_criterion_5_default_calibration(enrolled_device):
    with Criterion(5, "block stability in [0.72, 0.78] and enrollment flip rate 24.9% +/- 2") as c:
        samples = enrolled_device["enroll"]
        fractions = np.array([r.stable_fraction for r in block_stability(samples)])
        assert fractions.size == 98
        in_band = float(np.mean((fractions >= 0.72) & (fractions <= 0.78)))
        assert in_band >= 0.90, f"only {in_band:.0%} of blocks in band"
        rate = window_flip_rate(samples)
        assert abs(rate - 0.249) <= 0.02, f"window flip rate {rate:.3f}"
        c.note(f"{in_band:.0%} of 98 blocks in band, flip rate {rate*100:.2f}%")


def test_criterion_6_end_to_end_stability():
    with Criterion(6, "10 devices at threshold 4: stable responses and keys per condition") as c:
        start = time.monotonic()
        cal = Calibration()
        targets = {"NTNA": 0.01, "HTNA": 0.0133, "NTWA": 0.01667}
        floors = {"NTNA": 0.99, "HTNA": 0.97, "NTWA": 0.97}
        tallies = {kind: {"n": 0, "flipped": 0, "at_most_one": 0} for kind in targets}
        reproduced = 0
        reproducible = 0
        for device_seed in range(100, 110):
            device = new_device(device_seed, calibration=cal)
            enroll_samples = collect_samples(device, cal.condition("NTNA"), 300, seed0=0)
            mask = build_mask(enroll_samples, threshold=4, device_id=device.device_id)
            helper, key = generate_key(enroll_samples[0], mask)
            reference = apply_mask(enroll_samples[0], mask)
            for kind, seed0 in (("NTNA", 10_000), ("HTNA", 20_000), ("NTWA", 30_000)):
                condition = cal.condition(kind)
                tally = tallies[kind]
                for k in range(300):
                    sample = power_up_sample(device, condition, seed0 + k)
                    flips = weight(xor(apply_mask(sample, mask), reference))
                    tally["n"] += 1
                    tally["flipped"] += flips > 0
                    tally["at_most_one"] += flips <= 1
                    if flips <= 1:
                        reproducible += 1
                        if reproduce_key(sample, mask, helper).digest == key.digest:
                            reproduced += 1
        details = []
        for kind in ("NTNA", "HTNA", "NTWA"):
            tally = tallies[kind]
            share_ok = tally["at_most_one"] / tally["n"]
            flip_rate = tally["flipped"] / tally["n"]
            assert share_ok >= floors[kind], f"{kind}: only {share_ok:.4f} with <=1 flip"
            assert abs(flip_rate - targets[kind]) <= 0.02, f"{kind}: flip rate {flip_rate:.4f}"
            details.append(f"{kind} {flip_rate*100:.2f}% flips, {share_ok*100:.2f}% <=1")
        assert reproduced == reproducible, "a <=1-flip sample failed to reproduce the key"
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"took {elapsed:.0f}s, budget 120s"
        c.note("; ".join(details) + f"; {reproduced} keys reproduced in {elapsed:.0f}s")


def test_criterion_7_hamming_code_soundness():
    with Criterion(7, "129 distinct syndromes and no silent two-flip survival") as c:
        rng = np.random.default_rng(1007)
        zero = bytes(16)
        syndromes = {syndrome(zero)}
        syndromes.update(syndrome(flip_bits(zero, [j])) for j in range(128))
        assert len(syndromes) == 129
        checked = 0
        for trial in range(1000):
            codeword = oracle_encode(random_bytes(rng, 120))
            for _ in range(10):
                j, k = rng.choice(128, size=2, replace=False)
                word = flip_bits(codeword, [j, k])
                try:
                    result = correct(word)
                except ReproduceFailure:
                    checked += 1
                    continue
                assert result != codeword, f"double flip ({j},{k}) silently survived"
                checked += 1
        assert checked == 10_000
        c.note(f"129 syndromes distinct, {checked} two-flip words never silent")


def test_criterion_8_format_round_trips(tmp_path):
    with Criterion(8, "mask/helper/registry/dump files are save-load-save stable, 100 each") as c:
        rng = np.random.default_rng(1008)
        for trial in range(100):
            span = int(rng.integers(1, 5)) * 1216
            size = int(rng.integers(1, 129))
            positions = np.sort(rng.choice(span, size=size, replace=False))
            mask = Mask(device_id=f"m{trial}", positions=positions,
                        threshold=int(rng.integers(1, 9)),
                        sample_count=int(rng.integers(2, 500)),
                        base_offset=int(rng.integers(0, 4)) * 32,
                        window_length=1216, num_windows=span // 1216)
            path = tmp_path / "roundtrip.mask"
            save_mask(path, mask)
            first = path.read_bytes()
            save_mask(path, load_mask(path))
            assert path.read_bytes() == first

            helper = generate(random_bytes(rng, 128), mask_sha256=rng.bytes(32).hex())
            hpath = tmp_path / "roundtrip.helper"
            save_helper(hpath, helper)
            first = hpath.read_bytes()
            save_helper(hpath, load_helper(hpath))
            assert hpath.read_bytes() == first

            registry = Registry()
            for d in range(int(rng.integers(1, 5))):
                registry.add(RegistryEntry(
                    device_id=f"dev-{trial}-{d}", mask_file=f"dev-{trial}-{d}.mask",
                    mask_sha256=rng.bytes(32).hex(),
                    created="2026-08-10T00:00:00Z",
                    helper_file=f"dev-{trial}-{d}.helper" if rng.random() < 0.5 else "",
                    helper_sha256=rng.bytes(32).hex() if rng.random() < 0.5 else ""))
            rpath = tmp_path / "roundtrip.registry"
            save_registry(rpath, registry)
            first = rpath.read_bytes()
            save_registry(rpath, load_registry(rpath))
            assert rpath.read_bytes() == first

            dump = random_bits(rng, int(rng.integers(1, 80)) * 32)
            dpath = tmp_path / "roundtrip.hex"
            save_dump(dpath, dump)
            first = dpath.read_bytes()
            save_dump(dpath, load_dump(dpath))
            assert dpath.read_bytes() == first
        c.note("100 randomized instances per format")


# SHA-256 of sixteen zero bytes per FIPS 180-4, then ten reference digests
# computed once with Python's hashlib and frozen here.
PINNED_ZERO = "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"
FROZEN_SHA_VECTORS = [
    ("2f640fe4613b3050e3a5412ac3b920b3", "0ec8b4550a7fc631ac4e5dfd35169f32a26f8a868dec31cfb1143c7446e9d18d"),
    ("1d7575e1fe36eca5e08fc145619da9ee", "726bb600cf8d2eca415b2642ce423ac9027ffbebddef79f411bb8f073aa8d184"),
    ("2c5b2502eb19c62ea29723939c8d93c7", "419aab57f86598c5bd33675a2a9f80c129049e1521a0230745ce237476a32fd3"),
    ("90d17e5ddb2c30379ee15bfdddae028c", "8a53d9e7ffdd518552d03ffbc001ca32c56d6ee32304ad47582be9a4c4437e61"),
    ("adeda7b127efec84f7a4a3395d45f2de", "5c732fc4848a8e744bba6bb8d3789f174beaf1ab700eecf074ef27d5f8520dfe"),
    ("1f38131c827388b9dc6dcbaa91303f7a", "49a4971eb4f005d0b68b9c443bd2a33309c08f680f84958ba8e5d1179d1fb635"),
    ("0b635ef44717c3efdb62683c3fabee9d", "c03de005ea373b7f2c1d0838d7d51c50952507ea8f5ba3a52ff31a2f4fd9e28c"),
    ("6515ea07b771880760b91ee2e885c1fc", "e71081abaaeb4eccc0cf803643bea68137074c6f6882cbe5e5dbaa5bdbdec0a9"),
    ("bc66eff0388422d0adfe3dfef26fd6ee", "b0328e98d0658c0dc8761bc1147be7d4f3d4cd102feb0cc9e134f0323c481f0a"),
    ("77faf96ec3a6e1f7288b520dabe72163", "2b1355604cc2eb2a67f3c7f508ec286397d0220966dc8e65f7cbeaa4de5e0a1f"),
]


def test_criterion_9_sha256_conformance():
    with Criterion(9, "key derivation matches pinned SHA-256 reference vectors") as c:
        assert derive_key(bytes(16)).hex() == PINNED_ZERO
        for input_hex, digest_hex in FROZEN_SHA_VECTORS:
            response = bytes.fromhex(input_hex)
            key = derive_key(response)
            assert key.hex() == digest_hex
            assert (key.key1 + key.key2).hex() == digest_hex
        c.note("zero vector plus 10 frozen vectors exact")
