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
0..14) hold the message. In ``hsiao-128-120``, the code every new helper
uses, the message columns are the 8-bit values of odd weight 3 or more, in
ascending order (Hsiao, IBM J. R&D 14(4), 1970). Every column then has odd
weight, so a single flip yields its own column code, while a double flip
yields an even-weight nonzero syndrome that is no column code, and is
refused. Minimum distance is 4. A triple flip can still land on a column
code and be corrected to a different codeword; the key check downstream is
the only guard left there.

Helpers written as ``srampuf-helper-v1`` use ``hamming-128-120``, whose
message columns are the non-powers-of-two in 1..128: a shortened Hamming
code of distance 3. They are still read and reproduced, but 8,001 of their
8,128 double flips are corrected to a different codeword.

``COLUMNS`` is the one definition of both codes; ``correct`` refuses any
syndrome that is not a column code of the helper's code. Two read-only
tables are derived per code at import: per byte position, the XOR of the
column codes for each of the 256 byte values, so a syndrome is 16 lookups;
and the bit index of each column code, so a correction is one lookup.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

import numpy as np

from ._kv import (TextFormatError, atomic_write_text, format_kv_block, parse_int, read_record,
                  read_text)

HELPER_FORMAT = "srampuf-helper-v2"
CODE_NAME = "hsiao-128-120"
N, K, R = 128, 120, 8   # codeword, message and parity bits


class ReproduceFailure(Exception):
    """The noisy response is too far from the enrolled one; re-sample the SRAM."""


def _column_codes(message) -> np.ndarray:
    codes = np.array(list(message) + [1 << b for b in range(R)], dtype=np.int64)
    codes.flags.writeable = False
    return codes


# code name -> column codes: message columns, then parity columns 2**b
COLUMNS = {
    "hamming-128-120": _column_codes(p for p in range(1, N + 1) if p & (p - 1)),
    CODE_NAME: _column_codes(v for v in range(256) if bin(v).count("1") % 2 and v & (v - 1)),
}
COLUMN_CODES = COLUMNS[CODE_NAME]
# helper format -> the one code it is written with
_CODE_OF_FORMAT = {"srampuf-helper-v1": "hamming-128-120", HELPER_FORMAT: CODE_NAME}
_FORMAT_OF_CODE = {code: fmt for fmt, code in _CODE_OF_FORMAT.items()}
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


_BYTE_SYNDROMES = {name: _byte_syndromes(codes.tolist()) for name, codes in COLUMNS.items()}
_BIT_OF_CODE = {name: {code: i for i, code in enumerate(codes.tolist())}
                for name, codes in COLUMNS.items()}


def _xor(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)} bytes")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def syndrome(word: bytes, code: str = CODE_NAME) -> int:
    """XOR of the column codes of the word's set bits; 0 for a codeword."""
    if len(word) != N // 8:
        raise ValueError(f"word must be {N // 8} bytes, got {len(word)}")
    s = 0
    for table, value in zip(_BYTE_SYNDROMES[code], word):
        s ^= table[value]
    return s


def encode(message: bytes) -> bytes:
    """Append the parity byte that zeroes the syndrome to a 15-byte message."""
    if len(message) != K // 8:
        raise ValueError(f"message must be {K // 8} bytes, got {len(message)}")
    acc = syndrome(message + b"\0")
    return message + bytes([sum(((acc >> b) & 1) << (7 - b) for b in range(R))])


def correct(word: bytes, code: str = CODE_NAME) -> bytes:
    """Return the nearest codeword of ``code``, fixing at most one flipped bit.

    Raises :class:`ReproduceFailure` when the syndrome is no column code,
    which proves two or more flips: under ``hsiao-128-120`` every double flip
    does. A flip pattern whose syndrome lands on a column code (three flips,
    or two under ``hamming-128-120``) is corrected to a different codeword.
    """
    s = syndrome(word, code)
    if s == 0:
        return word
    i = _BIT_OF_CODE[code].get(s)
    if i is None:
        raise ReproduceFailure(f"correction failed (syndrome {s}); re-sample the device")
    fixed = bytearray(word)
    fixed[i // 8] ^= 0x80 >> (i % 8)
    return bytes(fixed)


@dataclass(frozen=True)
class HelperData:
    """Public error-correction data for one enrolled response.

    ``code_offset`` is response XOR random-codeword of ``code``, 16 bytes;
    publishing it leaks at most ``R`` bits about the response.
    """

    code_offset: bytes
    device_id: str = ""
    mask_sha256: str = ""
    code: str = CODE_NAME

    def __post_init__(self):
        if len(self.code_offset) != N // 8:
            raise ValueError(f"code offset must be {N // 8} bytes, got {len(self.code_offset)}")
        if self.code not in COLUMNS:
            raise ValueError(f"unknown code {self.code!r}")


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
    return _xor(helper.code_offset,
                correct(_xor(noisy_response, helper.code_offset), helper.code))


def helper_to_text(helper: HelperData) -> str:
    values = [_FORMAT_OF_CODE[helper.code], helper.device_id, helper.code,
              *map(str, _PARAMETERS.values()), helper.mask_sha256, helper.code_offset.hex().upper()]
    return format_kv_block(zip(HELPER_KEYS, values, strict=True))


def helper_from_text(text: str) -> HelperData:
    fields = read_record(text, HELPER_KEYS, _CODE_OF_FORMAT, what="helper data")
    code = _CODE_OF_FORMAT[fields["format"]]
    if fields["code"] != code:
        raise TextFormatError(f"helper data: key 'code' must be {code!r}, got {fields['code']!r}")
    for key, value in _PARAMETERS.items():
        if parse_int(fields, key, what="helper data") != value:
            raise TextFormatError(f"helper data: key {key!r} must be {value} for {code}")
    offset_hex = fields["code_offset"]
    try:
        offset = bytes.fromhex(offset_hex)
    except ValueError:
        raise TextFormatError("helper data: code_offset is not hexadecimal") from None
    # fromhex skips spaces, so both lengths are checked
    if len(offset_hex) != N // 4 or len(offset) != N // 8:
        raise TextFormatError(f"helper data: code_offset must be {N // 4} hex digits")
    return HelperData(code_offset=offset, device_id=fields["device_id"],
                      mask_sha256=fields["mask_sha256"], code=code)


def save_helper(path, helper: HelperData) -> None:
    atomic_write_text(path, helper_to_text(helper))


def load_helper(path) -> HelperData:
    return helper_from_text(read_text(path))
