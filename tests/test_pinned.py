"""Outputs of the key path that must not move when its internals change.

The digests were recorded once and are frozen here: helper files and keys
for seeded enrollments, that every double flip is refused, how many triple
flips decode to a wrong codeword, and the characterization report of the
shared 300-sample device.
"""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from srampuf.analytics import (
    block_reports_to_csv,
    block_stability,
    flip_rate_summary,
    sweep_to_csv,
    window_flip_rate,
)
from srampuf.bitvec import BitVector
from srampuf.cli import EXIT_OK, EXIT_USAGE, main
from srampuf.enroll import Mask, build_mask, load_mask, save_mask
from srampuf.fuzzy import (COLUMN_CODES, ReproduceFailure, correct, helper_from_text,
                           helper_to_text)
from srampuf.keygen import apply_mask, generate_key, reproduce_key
from srampuf.registry import file_sha256, load_registry, save_registry
from srampuf.simulate import Calibration, collect_samples, new_device

# device seed -> (SHA-256 of the v2 helper text, key hex); 4864 bits, 40
# NTNA samples, threshold 4, codeword seed = device seed. A key is the
# SHA-256 of the masked response, so it does not depend on the helper's code.
PINNED_HELPERS = {
    7: ("426728e7c062f2a80c9f03d78ed2a3eaa86863a748e7c12a014826f4c23e2924",
        "2067a9af60e93b02a9dc5291f2b16055e3d7be6075c27d2ea178f935203d68ce"),
    101: ("082f95ec6e1a592f6bbae0425c39fc400816fd350d8dd99f5848e11ab3d02795",
          "44c1355dd5513675ec27542168ac69192b212c6fab31106954150efc29abcb28"),
    3: ("d7525912bb07d015b151c3fefd8fee4bb2195afde0959eb63315d516bb4db7e8",
        "4d13ce4608376e9c5cf011975b3437fab451e970dac1922c04f59a4201d954b8"),
}

# SHA-256 of each characterization output for the shared enrolled device
# (device 7; 300 NTNA enrollment samples and 300 test samples per condition)
PINNED_REPORT = {
    "stability_csv": "6505473eeda99a6a0ec3b44f94e7eefa4aa2b4a19bad0b906dd85db3475cad0f",
    "sweep_csv": "eac4aa3cdf559363560ab3a3e72977a8b6c5873af8315850b3d0a4ba60fff8a6",
    "mask": "de46d7f31609a447b3f27e934faeef6bb7743f6875f005aa91a25d691015abe9",
    "summary": "f11a9d066fbe39036dbc42b454da06cf93d235458c5c8f3f89e07e7f95c5b47d",
    "flip_rate": "99aa8d28ced5af83fdac0a58152b2a47a403a04d85e00973d1e72349820c38fd",
}

ZERO_HELPER_V2 = (
    "format = srampuf-helper-v2\n"
    "device_id = \n"
    "code = hsiao-128-120\n"
    "n = 128\n"
    "k = 120\n"
    "r = 8\n"
    "mask_sha256 = \n"
    "code_offset = 00000000000000000000000000000000\n"
)


def identity_mask(length=128):
    return Mask(device_id="", positions=np.arange(length), threshold=1, sample_count=2)


def seeded_enrollment(device_seed):
    cal = Calibration()
    device = new_device(device_seed, num_bits=4864, calibration=cal)
    samples = collect_samples(device, cal.condition("NTNA"), 40)
    return samples, build_mask(samples, 4, device_id=device.device_id)


@pytest.mark.parametrize("device_seed", sorted(PINNED_HELPERS))
def test_seeded_helper_and_key_pinned(device_seed):
    samples, mask = seeded_enrollment(device_seed)
    helper, key = generate_key(samples[0], mask, device_seed)
    text_sha = hashlib.sha256(helper_to_text(helper).encode("ascii")).hexdigest()
    assert (text_sha, key.hex()) == PINNED_HELPERS[device_seed]


def test_characterization_report_pinned(enrolled_device, default_sweep):
    samples, test = enrolled_device["enroll"], enrolled_device["test"]
    mask = build_mask(samples, 4, device_id=enrolled_device["device"].device_id)
    summary = flip_rate_summary(mask, apply_mask(samples[0], mask), test)
    outputs = {
        "stability_csv": block_reports_to_csv(block_stability(samples)),
        "sweep_csv": sweep_to_csv(default_sweep),
        "mask": ",".join(map(str, mask.positions.tolist())),
        "summary": repr(sorted((c, s.sample_count, s.flipped_samples, s.max_flips)
                               for c, s in summary.items())),
        "flip_rate": repr(window_flip_rate(samples)),
    }
    digests = {name: hashlib.sha256(text.encode("ascii")).hexdigest()
               for name, text in outputs.items()}
    assert digests == PINNED_REPORT


def test_every_double_flip_refused_v2():
    # All-zero response and all-zero offset: the committed codeword is zero,
    # so a reading's error pattern is the reading itself. All 8,128 double
    # flips are refused.
    mask = identity_mask()
    helper = dataclasses.replace(helper_from_text(ZERO_HELPER_V2), mask_sha256=mask.fingerprint)
    zero = BitVector(np.zeros(128, dtype=np.uint8))
    enrolled = reproduce_key(zero, mask, helper).digest
    refused, wrong = 0, 0
    for j, k in itertools.combinations(range(128), 2):
        try:
            wrong += reproduce_key(zero.with_flips([j, k]), mask, helper).digest != enrolled
        except ReproduceFailure:
            refused += 1
    assert (refused, wrong) == (8128, 0)


# (decoded to a wrong codeword, refused) of all 341,376 triple flips: every
# odd-weight byte is a column code, so every triple is miscorrected.
PINNED_TRIPLES = (341_376, 0)


def test_triple_flips_pinned():
    # The error pattern of a triple flip against the zero codeword is the
    # word itself. correct() keeps a zero syndrome, flips the bit of a column
    # code (never one of the three, as no two columns are equal) and refuses
    # any other, so no triple is decoded back to the zero codeword.
    triples = np.array(list(itertools.combinations(range(128), 3)))
    syndromes = np.bitwise_xor.reduce(COLUMN_CODES[triples], axis=1)
    refused = ~np.isin(syndromes, np.append(COLUMN_CODES, 0))
    assert (int((~refused).sum()), int(refused.sum())) == PINNED_TRIPLES
    # the decoder itself agrees on every 41st triple
    for triple, expect_refused in zip(triples[::41], refused[::41]):
        word = np.packbits(np.isin(np.arange(128), triple)).tobytes()
        try:
            assert correct(word) != bytes(16) and not expect_refused
        except ReproduceFailure:
            assert expect_refused


def test_127_position_mask_refused(tmp_path):
    short = identity_mask(127)
    raw = BitVector(np.zeros(1216, dtype=np.uint8))
    with pytest.raises(ValueError, match="128"):
        generate_key(raw, short, 1)
    with pytest.raises(ValueError, match="128"):
        reproduce_key(raw, short, dataclasses.replace(helper_from_text(ZERO_HELPER_V2),
                                                      mask_sha256=short.fingerprint))

    dumps = tmp_path / "dumps"
    registry_path = tmp_path / "registry.txt"
    assert main(["simulate", "--out-dir", str(dumps), "--device-seed", "77",
                 "-n", "40", "--num-bits", "4864"]) == EXIT_OK
    assert main(["enroll", "--dumps", str(dumps), "--registry", str(registry_path),
                 "--device-id", "dev-a"]) == EXIT_OK
    mask_path = tmp_path / "dev-a.mask"
    mask = load_mask(mask_path)
    save_mask(mask_path, dataclasses.replace(mask, positions=mask.positions[:127]))
    registry = load_registry(registry_path)
    registry.entries["dev-a"] = dataclasses.replace(registry.get("dev-a"),
                                                    mask_sha256=file_sha256(mask_path))
    save_registry(registry_path, registry)
    assert main(["genkey", "--dump", str(dumps / "sample-00000.hex"),
                 "--registry", str(registry_path), "--device-id", "dev-a",
                 "--seed", "1"]) == EXIT_USAGE
