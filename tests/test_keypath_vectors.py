"""Known-answer vectors for the key path, in ``tests/vectors/keypath.txt``.

The file gives masks with the helper data made through them, and readings as
the dump words each mask reaches, with the key hex each reading reproduces or
``refuse``. Checking it needs no simulator, so a port of the key path (mask,
syndrome decoder, SHA-256) can run it as it stands. One test checks every
case through ``reproduce_key``; the other regenerates the file from the
simulator and compares bytes, so the file cannot drift from the code. After a
declared change to the key path, rewrite the file with

    PYTHONPATH=src python tests/test_keypath_vectors.py
"""

from pathlib import Path

import numpy as np

from srampuf._kv import format_kv_block, parse_kv_block
from srampuf.bitvec import WORD_BITS, format_hex_dump, parse_hex_dump
from srampuf.enroll import DEFAULT_WINDOW_LENGTH, Mask, build_mask
from srampuf.fuzzy import HelperData, ReproduceFailure
from srampuf.keygen import generate_key, reproduce_key
from srampuf.simulate import Calibration, collect_samples, new_device

VECTORS = Path(__file__).parent / "vectors" / "keypath.txt"

HEADER = """\
# Known-answer vectors for the srampuf key path, written from the simulator
# by tests/test_keypath_vectors.py; do not edit by hand.
#
# A mask block names a mask, gives its fields and the helper data made
# through it (mask_sha256 and syndrome). A case block gives one reading of a
# mask: the dump words from word first_word on, which hold every masked bit,
# and the key hex that reproducing gives, or "refuse".
#
# Dump bit i is bit i % 32 of word i // 32, counted from the word's least
# significant bit. Response bit j is dump bit base_offset + positions[j],
# packed most significant bit first into 16 bytes. The error syndrome is the
# helper's syndrome XOR the reading's response's: zero keeps the response,
# the column code of one bit flips that bit, and any other value refuses the
# reading (srampuf.fuzzy defines the column codes). The key is the SHA-256
# of the corrected response. mask_sha256 is the SHA-256 of the mask's
# srampuf-mask-v1 file text, which these fields fix; reproducing refuses a
# helper whose mask_sha256 is not that of the mask.
"""

# The integer mask fields, and a mask block's keys in the order it gives them
INT_FIELDS = ("base_offset", "window_length", "num_windows", "threshold", "sample_count")
MASK_KEYS = ("mask", "device_id", *INT_FIELDS, "positions", "mask_sha256", "syndrome")
KEYS = (*MASK_KEYS, "case", "first_word", "words", "key")

# Seeded devices of 4864 bits, enrolled from 40 NTNA samples at threshold 4,
# each read again by the next one's first sample
DEVICES = (7, 101, 3)
# Response bits flipped in a device's cases: the first and last message
# bits, the last parity bit, a double and a triple flip
DEVICE_FLIPS = ((0,), (119,), (127,), (0, 127), (0, 1, 2))
# Edge masks over device 7's first sample: (name, base_offset, positions)
EDGE_MASKS = (
    ("byte-edges", 0, np.arange(64).repeat(2) * 8 + np.tile([0, 7], 64)),
    ("word-edges", 0, np.arange(64).repeat(2) * 32 + np.tile([0, 31], 64)),
    ("odd-offset", 1219, np.arange(128) * 9),
)
EDGE_FLIPS = ((0,), (127,), (0, 127))


def device_samples(seed: int):
    cal = Calibration()
    device = new_device(seed, num_bits=4864, calibration=cal)
    return device, collect_samples(device, cal.condition("NTNA"), 40)


def mask_block(name: str, mask: Mask, helper: HelperData) -> str:
    values = [name, mask.device_id, *(str(getattr(mask, f)) for f in INT_FIELDS),
              ",".join(map(str, mask.positions.tolist())), helper.mask_sha256,
              str(helper.syndrome)]
    return format_kv_block(zip(MASK_KEYS, values, strict=True))


def case_block(name: str, label: str, mask: Mask, helper: HelperData, reading) -> str:
    absolute = mask.base_offset + mask.positions
    first, last = int(absolute[0]) // WORD_BITS, int(absolute[-1]) // WORD_BITS
    words = format_hex_dump(reading).split()[first:last + 1]
    try:
        key = reproduce_key(reading, mask, helper).hex()
    except ReproduceFailure:
        key = "refuse"
    return format_kv_block([("case", f"{name}: {label}"), ("mask", name),
                            ("first_word", str(first)), ("words", ",".join(words)),
                            ("key", key)])


def flip_cases(name, mask, helper, reading, flips):
    blocks = [case_block(name, "clean", mask, helper, reading)]
    for bits in flips:
        flipped = reading.with_flips(mask.base_offset + mask.positions[list(bits)])
        label = f"response bit{'s' * (len(bits) > 1)} {', '.join(map(str, bits))} flipped"
        blocks.append(case_block(name, label, mask, helper, flipped))
    return blocks


def keypath_text() -> str:
    """The vectors file, regenerated from the simulator."""
    enrolled = [device_samples(seed) for seed in DEVICES]
    blocks = [HEADER]
    for k, (device, samples) in enumerate(enrolled):
        mask = build_mask(samples, 4, device_id=device.device_id)
        helper, _ = generate_key(samples[0], mask)
        other, other_samples = enrolled[(k + 1) % len(enrolled)]
        blocks += [mask_block(device.device_id, mask, helper),
                   *flip_cases(device.device_id, mask, helper, samples[0], DEVICE_FLIPS),
                   case_block(device.device_id, f"a reading of {other.device_id}", mask,
                              helper, other_samples[0])]
    reading = enrolled[0][1][0]
    for name, base_offset, positions in EDGE_MASKS:
        mask = Mask(device_id=name, positions=positions, threshold=1, sample_count=2,
                    base_offset=base_offset,
                    num_windows=int(positions[-1]) // DEFAULT_WINDOW_LENGTH + 1)
        helper, _ = generate_key(reading, mask)
        blocks += [mask_block(name, mask, helper),
                   *flip_cases(name, mask, helper, reading, EDGE_FLIPS)]
    return "\n".join(blocks)


def read_vectors(text: str) -> tuple[dict[str, dict[str, str]], list[dict[str, str]]]:
    """The file's mask blocks by name, and its case blocks in file order."""
    masks, cases = {}, []
    for block in text.split("\n\n"):
        fields = parse_kv_block(block, keys=KEYS, what="keypath vectors")
        if "case" in fields:
            cases.append(fields)
        elif fields:
            masks[fields["mask"]] = fields
    return masks, cases


def test_every_case_reproduces_its_key_or_is_refused():
    masks, cases = read_vectors(VECTORS.read_text(encoding="ascii"))
    assert len(masks) == len(DEVICES) + len(EDGE_MASKS)
    assert len(cases) == (len(DEVICES) * (len(DEVICE_FLIPS) + 2)
                          + len(EDGE_MASKS) * (len(EDGE_FLIPS) + 1))
    for case in cases:
        fields = masks[case["mask"]]
        mask = Mask(device_id=fields["device_id"],
                    positions=np.array(fields["positions"].split(","), dtype=np.int64),
                    **{f: int(fields[f]) for f in INT_FIELDS})
        assert mask.fingerprint == fields["mask_sha256"], case["mask"]
        helper = HelperData(syndrome=int(fields["syndrome"]), mask_sha256=fields["mask_sha256"])
        reading = parse_hex_dump("00000000\n" * int(case["first_word"])
                                 + case["words"].replace(",", "\n"))
        try:
            got = reproduce_key(reading, mask, helper).hex()
        except ReproduceFailure:
            got = "refuse"
        assert got == case["key"], case["case"]


def test_file_is_what_the_simulator_gives():
    assert VECTORS.read_bytes() == keypath_text().encode("ascii")


if __name__ == "__main__":
    VECTORS.parent.mkdir(exist_ok=True)
    VECTORS.write_bytes(keypath_text().encode("ascii"))
