"""Code-offset fuzzy extractor over a 128-bit SEC-DED code with 120 message bits.

``generate`` commits a random codeword against an enrolled 128-bit response
and publishes only their XOR (the helper data). ``reproduce`` recovers the
enrolled response from any later reading that differs in at most one bit,
and refuses every reading that differs in exactly two. The helper reveals at
most the code redundancy (8 bits) about the response.

Responses, codewords and offsets are 16 bytes; bit ``i`` sits in byte
``i // 8`` at mask ``0x80 >> (i % 8)`` (bit 0 in the most-significant bit of
byte 0).

Code layout
-----------
Every codeword bit ``i`` carries an 8-bit column code, and the syndrome of a
word is the XOR of the column codes of its set bits. Parity bit ``b`` sits at
index ``120 + b``, in byte 15, with column code ``2**b``; bits 0..119 (bytes
0..14) hold the message. The code is ``hsiao-128-120``: the message columns
are the 8-bit values of odd weight 3 or more, in ascending order (Hsiao, IBM
J. R&D 14(4), 1970). Every column then has odd weight, so a single flip
yields its own column code, while a double flip yields an even-weight
nonzero syndrome that is no column code, and is refused. Minimum distance is
4, and every odd-weight byte is a column code, so every triple flip (all
341,376 of them) is corrected to a wrong codeword; only a key check catches it.

Only ``srampuf-helper-v2`` files are read; v1 files, written with a
distance-3 Hamming code, are refused as an unsupported format.

``COLUMN_CODES`` is the one definition of the code; ``correct`` refuses any
syndrome that is not a column code. Two read-only tables are derived from it at
import: per byte position, the syndrome of each of the 256 byte values, so a
syndrome is one written-out XOR of 16 per-byte lookups; and the bit index of
each column code, so a correction is one lookup. ``reproduce`` XORs the reading's
syndrome into the helper's cached offset syndrome and flips the reading's own
bit; for a linear code the contract and outcomes are those of correcting the codeword.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kv import (TextFormatError, atomic_write_text, clip, format_kv_block, parse_int,
                  read_record, read_text)

HELPER_FORMAT = "srampuf-helper-v2"
CODE_NAME = "hsiao-128-120"
N, K, R = 128, 120, 8   # codeword, message and parity bits


class ReproduceFailure(Exception):
    """The noisy response is too far from the enrolled one; re-sample the SRAM."""


# column codes: the message columns, then parity columns 2**b
COLUMN_CODES = np.array([v for v in range(256) if bin(v).count("1") % 2 and v & (v - 1)]
                        + [1 << b for b in range(R)], dtype=np.int64)
COLUMN_CODES.flags.writeable = False
# The code parameters every helper states; the helper keys in helper_to_text's order
_PARAMETERS = {"n": N, "k": K, "r": R}
HELPER_KEYS = ("format", "device_id", "code", *_PARAMETERS, "mask_sha256", "code_offset")


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


def require_size(what: str, value: bytes, size: int) -> None:
    if len(value) != size:
        raise ValueError(f"{what} must be {size} bytes, got {len(value)}")


def _lookups(word: bytes) -> int:
    """Syndrome of a 16-byte word: one written-out XOR of its 16 per-byte lookups."""
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = word
    t = _BYTE_SYNDROMES
    return (t[0][b0] ^ t[1][b1] ^ t[2][b2] ^ t[3][b3] ^ t[4][b4] ^ t[5][b5]
            ^ t[6][b6] ^ t[7][b7] ^ t[8][b8] ^ t[9][b9] ^ t[10][b10]
            ^ t[11][b11] ^ t[12][b12] ^ t[13][b13] ^ t[14][b14] ^ t[15][b15])


def syndrome(word: bytes) -> int:
    """XOR of the column codes of the word's set bits; 0 for a codeword."""
    require_size("word", word, N // 8)
    return _lookups(word)


def encode(message: bytes) -> bytes:
    """Append the parity byte that zeroes the syndrome to a 15-byte message."""
    require_size("message", message, K // 8)
    acc = syndrome(message + b"\0")
    return message + bytes([sum(((acc >> b) & 1) << (7 - b) for b in range(R))])


def _flip_column(word: bytes, s: int) -> bytes:
    """``word`` with the bit of column code ``s`` flipped; refuses any other nonzero ``s``."""
    if (i := _BIT_OF_CODE.get(s)) is None:
        raise ReproduceFailure(f"correction failed (syndrome {s}); re-sample the device")
    return (int.from_bytes(word, "big") ^ (1 << (N - 1 - i))).to_bytes(N // 8, "big")


def correct(word: bytes) -> bytes:
    """Return the nearest codeword, fixing at most one flipped bit.

    Raises :class:`ReproduceFailure` when the syndrome is no column code,
    which proves two or more flips: every double flip does. A triple flip
    lands on a column code and is corrected to a different codeword.
    """
    s = syndrome(word)
    return _flip_column(word, s) if s else word


@dataclass(frozen=True)
class HelperData:
    """Public error-correction data for one enrolled response.

    ``code_offset`` is response XOR random-codeword, 16 bytes;
    publishing it leaks at most ``R`` bits about the response.
    """

    code_offset: bytes
    device_id: str = ""
    mask_sha256: str = ""

    def __post_init__(self):
        require_size("code offset", self.code_offset, N // 8)

    @cached_property
    def offset_syndrome(self) -> int:
        """Syndrome of ``code_offset``, computed once per helper; not a field."""
        return syndrome(self.code_offset)


def generate(response: bytes, seed: int | None = None, *, device_id: str = "",
             mask_sha256: str = "") -> HelperData:
    """Commit a fresh random codeword against an enrolled 16-byte response.

    The codeword is independent of the response. Its 120 message bits come
    from the OS CSPRNG unless ``seed`` asks for reproducible PCG64 bits, which
    are for tests and benchmarks only: they carry no secrecy.
    """
    require_size("response", response, N // 8)
    if seed is None:
        message = secrets.token_bytes(K // 8)
    else:
        rng = np.random.default_rng(seed)
        message = np.packbits(rng.integers(0, 2, size=K, dtype=np.uint8)).tobytes()
    return HelperData(code_offset=bytes(a ^ b for a, b in zip(response, encode(message))),
                      device_id=device_id, mask_sha256=mask_sha256)


def reproduce(noisy_response: bytes, helper: HelperData) -> bytes:
    """Recover the enrolled response from a reading within distance 1 of it.

    Flips the reading's bit whose column code is the syndrome of reading XOR offset,
    the helper's cached offset syndrome XOR the reading's own; every outcome,
    refusal or miscorrection, is ``offset ^ correct(reading ^ offset)``.

    Raises :class:`ReproduceFailure` when correction detects that more bits
    flipped than the code can repair; callers should re-sample rather than
    continue with a wrong key.
    """
    require_size("noisy response", noisy_response, N // 8)
    s = helper.offset_syndrome ^ _lookups(noisy_response)
    return _flip_column(noisy_response, s) if s else noisy_response


def helper_to_text(helper: HelperData) -> str:
    values = [HELPER_FORMAT, helper.device_id, CODE_NAME,
              *map(str, _PARAMETERS.values()), helper.mask_sha256, helper.code_offset.hex().upper()]
    return format_kv_block(zip(HELPER_KEYS, values, strict=True))


def helper_from_text(text: str) -> HelperData:
    fields = read_record(text, HELPER_KEYS, HELPER_FORMAT, what="helper data")
    if fields["code"] != CODE_NAME:
        raise TextFormatError(
            f"helper data: key 'code' must be {CODE_NAME!r}, got {clip(fields['code'])!r}")
    for key, value in _PARAMETERS.items():
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
    return helper_from_text(read_text(path))
