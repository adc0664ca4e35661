"""Code-offset fuzzy extractor over a shortened Hamming(128, 120) code.

``generate`` commits a random codeword against an enrolled 128-bit response
and publishes only their XOR (the helper data). ``reproduce`` recovers the
enrolled response from any later reading that differs in at most one bit.
The helper reveals at most the code redundancy (8 bits) about the response.

Responses, codewords and offsets are 16 bytes; bit ``i`` sits in byte
``i // 8`` at mask ``0x80 >> (i % 8)`` (bit 0 in the most-significant bit of
byte 0).

Code layout
-----------
A binary Hamming code with 8 parity bits shortened to length 128. Every
codeword bit ``i`` carries a column code: bits 0..119 (bytes 0..14) map, in
ascending order, to the non-powers-of-two in 1..128 and hold the message;
parity bit ``b`` sits at index ``120 + b``, in byte 15, with column code
``2**b``. The syndrome of a word is the XOR of the column codes of its set
bits, so a single flipped bit yields its own column code (1..128) and any
value above 128 proves at least two flips. Minimum distance is 3: of the
8,128 double flips only the 127 whose syndrome exceeds 128 are refused; the
rest are corrected to a different codeword.

``COLUMN_CODES`` is the one definition of the code. Two read-only tables are
derived from it at import: per byte position, the XOR of the column codes for
each of the 256 byte values, so a syndrome is 16 lookups; and the bit index
of each column code, so a correction is one lookup.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

import numpy as np

from ._kv import (
    TextFormatError,
    atomic_write_text,
    format_kv_block,
    parse_int,
    parse_kv_block,
    require_keys,
)

HELPER_FORMAT = "srampuf-helper-v1"
CODE_NAME = "hamming-128-120"
N, K, R = 128, 120, 8   # codeword, message and parity bits


class ReproduceFailure(Exception):
    """The noisy response is too far from the enrolled one; re-sample the SRAM."""


def _column_codes() -> np.ndarray:
    parity = [1 << b for b in range(R)]
    message = [p for p in range(1, N + 1) if p not in parity]
    codes = np.array(message + parity, dtype=np.int64)
    codes.flags.writeable = False
    return codes


COLUMN_CODES = _column_codes()


def _byte_syndromes(codes: list[int]) -> tuple[tuple[int, ...], ...]:
    """Per byte position, the syndrome of each byte value at that position."""
    tables = []
    for j in range(N // 8):
        table = [0]
        # Bits 7, 6, ..., 0 of the byte sit at masks 0x01, 0x02, ..., 0x80;
        # each doubles the table with its code XORed in.
        for code in reversed(codes[8 * j:8 * j + 8]):
            table += [s ^ code for s in table]
        tables.append(tuple(table))
    return tuple(tables)


_BYTE_SYNDROMES = _byte_syndromes(COLUMN_CODES.tolist())
_BIT_OF_CODE = {code: i for i, code in enumerate(COLUMN_CODES.tolist())}


def _xor(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)} bytes")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def syndrome(word: bytes) -> int:
    """XOR of the column codes of the word's set bits; 0 for a codeword."""
    if len(word) != N // 8:
        raise ValueError(f"word must be {N // 8} bytes, got {len(word)}")
    s = 0
    for table, value in zip(_BYTE_SYNDROMES, word):
        s ^= table[value]
    return s


def encode(message: bytes) -> bytes:
    """Append the parity byte that zeroes the syndrome to a 15-byte message."""
    if len(message) != K // 8:
        raise ValueError(f"message must be {K // 8} bytes, got {len(message)}")
    acc = syndrome(message + b"\0")
    return message + bytes([sum(((acc >> b) & 1) << (7 - b) for b in range(R))])


def correct(word: bytes) -> bytes:
    """Return the nearest codeword, fixing at most one flipped bit.

    Raises :class:`ReproduceFailure` when the syndrome proves two or more
    flips. A double flip whose syndrome lands on a valid column is
    miscorrected to a different codeword; that limit is inherent to a
    distance-3 code.
    """
    s = syndrome(word)
    if s == 0:
        return word
    if s > N:
        raise ReproduceFailure(f"correction failed (syndrome {s}); re-sample the device")
    i = _BIT_OF_CODE[s]
    fixed = bytearray(word)
    fixed[i // 8] ^= 0x80 >> (i % 8)
    return bytes(fixed)


@dataclass(frozen=True)
class HelperData:
    """Public error-correction data for one enrolled response.

    ``code_offset`` is response XOR random-codeword, 16 bytes; publishing it
    leaks at most ``R`` bits about the response.
    """

    code_offset: bytes
    device_id: str = ""
    mask_sha256: str = ""

    def __post_init__(self):
        if len(self.code_offset) != N // 8:
            raise ValueError(f"code offset must be {N // 8} bytes, got {len(self.code_offset)}")


def generate(response: bytes, seed: int | None = None, *, device_id: str = "",
             mask_sha256: str = "") -> HelperData:
    """Commit a fresh random codeword against an enrolled 16-byte response.

    The codeword is independent of the response. Its 120 message bits come
    from the OS CSPRNG unless ``seed`` asks for reproducible PCG64 bits, which
    are for tests and benchmarks only: they carry no secrecy.
    """
    if len(response) != N // 8:
        raise ValueError(f"response must be {N // 8} bytes, got {len(response)}")
    if seed is None:
        message = secrets.token_bytes(K // 8)
    else:
        rng = np.random.default_rng(seed)
        message = np.packbits(rng.integers(0, 2, size=K, dtype=np.uint8)).tobytes()
    return HelperData(code_offset=_xor(response, encode(message)), device_id=device_id,
                      mask_sha256=mask_sha256)


def reproduce(noisy_response: bytes, helper: HelperData) -> bytes:
    """Recover the enrolled response from a reading within distance 1 of it.

    Raises :class:`ReproduceFailure` when correction detects that more bits
    flipped than the code can repair; callers should re-sample rather than
    continue with a wrong key.
    """
    return _xor(helper.code_offset, correct(_xor(noisy_response, helper.code_offset)))


def helper_to_text(helper: HelperData) -> str:
    pairs = [
        ("format", HELPER_FORMAT),
        ("device_id", helper.device_id),
        ("code", CODE_NAME),
        ("n", str(N)),
        ("k", str(K)),
        ("r", str(R)),
        ("mask_sha256", helper.mask_sha256),
        ("code_offset", helper.code_offset.hex().upper()),
    ]
    return format_kv_block(pairs)


def helper_from_text(text: str) -> HelperData:
    fields = parse_kv_block(text, what="helper data")
    require_keys(fields, ["format", "device_id", "code", "n", "k", "r",
                          "mask_sha256", "code_offset"], what="helper data")
    if fields["format"] != HELPER_FORMAT:
        raise TextFormatError(f"helper data: unsupported format {fields['format']!r}")
    if fields["code"] != CODE_NAME:
        raise TextFormatError(f"helper data: key 'code' must be {CODE_NAME!r}, got {fields['code']!r}")
    for key, value in (("n", N), ("k", K), ("r", R)):
        if parse_int(fields, key, what="helper data") != value:
            raise TextFormatError(f"helper data: key {key!r} must be {value} for {CODE_NAME}")
    offset_hex = fields["code_offset"]
    try:
        offset = bytes.fromhex(offset_hex)
    except ValueError:
        raise TextFormatError("helper data: code_offset is not hexadecimal") from None
    # fromhex skips spaces, so both lengths are checked
    if len(offset_hex) != N // 4 or len(offset) != N // 8:
        raise TextFormatError(f"helper data: code_offset must be {N // 4} hex digits")
    return HelperData(code_offset=offset, device_id=fields["device_id"],
                      mask_sha256=fields["mask_sha256"])


def save_helper(path, helper: HelperData) -> None:
    atomic_write_text(path, helper_to_text(helper))


def load_helper(path) -> HelperData:
    with open(path, "r", encoding="ascii") as fh:
        return helper_from_text(fh.read())
