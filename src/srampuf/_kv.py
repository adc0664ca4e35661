"""Shared plumbing for the flat text files (dump, mask, helper, registry, calibration).

All are line-oriented ASCII read through :func:`read_text`, and all but dumps
are ``key = value`` blocks that stay diffable without tooling. Writers emit
keys in a fixed order, so save -> load -> save is byte-identical, and write
only values that read back unchanged (:func:`is_value`). Files are opened only
here: to read or lock, by :func:`open_regular`; to write, by :func:`atomic_write_text`.
"""

from __future__ import annotations

import contextlib
import errno
import os
import re
import stat
import tempfile
from typing import BinaryIO


class TextFormatError(ValueError):
    """A structured text file does not match its expected format."""


def is_value(value: str) -> bool:
    """The one value rule: printable ASCII without surrounding blanks, maybe
    empty. Exactly these values read back from a ``key = value`` line."""
    return value.isascii() and value.isprintable() and value == value.strip()


# The rule's non-empty values as a regular expression, for whole-file fast
# paths: printable characters that neither start nor end with a space; one
# run and a lookbehind, not a repeated group, keep the match fast
VALUE_PATTERN = "[!-~][ -~]*(?<! )"

# A decimal integer as int() reads it, once stripped: sign, then digits that
# single underscores may separate
_DECIMAL = re.compile(r"([+-]?)([0-9]+(?:_[0-9]+)*)")


def clip(text: str) -> str:
    """``text`` as an error line echoes it: its first 40 characters, then
    ``...`` when it is longer, so no input makes a long line."""
    return text if len(text) <= 40 else text[:40] + "..."


def to_int(text: str, what: str) -> int:
    """``int(text)``, or one TextFormatError that names ``what``, clips its
    echo and says why: not an integer, or a decimal integer too long for
    ``int()`` to read (4,300 digits by default) and so too large or too small."""
    try:
        return int(text)
    except ValueError:
        match = _DECIMAL.fullmatch(text.strip())
    if match is None:
        raise TextFormatError(f"{what} is not an integer: {clip(text)!r}")
    sign, digits = match.groups()
    try:    # the limit counts leading zeros, which add nothing to the value
        return int(sign + (digits.replace("_", "").lstrip("0") or "0"))
    except ValueError:
        reason = "too small" if sign == "-" else "too large"
        raise TextFormatError(f"{what} is {reason}: {clip(text)!r}") from None


def open_regular(path, refusal: str | None = None, flags: int = 0,
                 refusals: dict[int, str] | None = None) -> BinaryIO:
    """The file at ``path`` opened to read, with ``flags`` added, never waiting
    on a FIFO's writer. Anything but a regular file is refused before a byte
    is read, with ``refusal`` or by default ``<path>: not a regular file``,
    and an open that fails with an errno of ``refusals`` with its text."""
    refusal = refusal or f"{path}: not a regular file"
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK | flags, 0o666)
    except OSError as exc:  # a directory (O_CREAT), link (O_NOFOLLOW) or socket fails it
        text = {errno.EISDIR: refusal, errno.ELOOP: refusal, errno.ENXIO: refusal,
                **(refusals or {})}.get(exc.errno)
        if text is None:
            raise
        raise ValueError(text) from None
    if stat.S_ISREG(os.fstat(fd).st_mode):
        return os.fdopen(fd, "rb")
    os.close(fd)
    raise ValueError(refusal)


def read_text(path, data: bytes | None = None) -> str:
    """The file at ``path`` as ASCII text with universal newlines, decoded
    from ``data`` when its bytes are already read; a byte that is not ASCII
    raises naming the file and its line."""
    if data is None:
        with open_regular(path) as fh:
            data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = read_text(path, data[:exc.start]).count("\n") + 1
        raise TextFormatError(
            f"{path}: line {line}: byte 0x{data[exc.start]:02x} is not ASCII") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def parse_kv_block(text: str, *, keys, what: str = "file",
                   first_line: int = 1) -> dict[str, str]:
    """Parse ``key = value`` lines into a dict, refusing any key not in ``keys``.
    Blank lines and ``#`` comments skipped; errors number ``text``'s first
    line ``first_line``."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.split("\n"), start=first_line):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise TextFormatError(
                f"{what}: line {lineno}: expected 'key = value', got {clip(line)!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise TextFormatError(f"{what}: line {lineno}: empty key")
        if key not in keys:
            raise TextFormatError(f"{what}: line {lineno}: unknown key {clip(key)!r}")
        if key in out:
            raise TextFormatError(f"{what}: line {lineno}: duplicate key {key!r}")
        if not is_value(value):
            raise TextFormatError(f"{what}: line {lineno}: key {key!r}: value {clip(value)!r} "
                                  f"is not printable ASCII")
        out[key] = value
    return out


def format_kv_block(pairs) -> str:
    """Format ``(key, value)`` pairs as ``key = value`` lines that
    :func:`parse_kv_block` reads back exactly; keys must be ASCII identifiers."""
    lines = []
    for key, value in pairs:
        if not (key.isascii() and key.isidentifier()):
            raise TextFormatError(f"cannot write key {key!r}")
        if not is_value(value):
            raise TextFormatError(f"key {key!r}: cannot write value {value!r}")
        lines.append(f"{key} = {value}\n")
    return "".join(lines)


def require_keys(fields: dict[str, str], keys, *, what: str) -> None:
    missing = [k for k in keys if k not in fields]
    if missing:
        raise TextFormatError(f"{what}: missing keys: {', '.join(missing)}")


def read_record(text: str, keys: tuple[str, ...], fmt: str, *, what: str) -> dict[str, str]:
    """Parse one ``key = value`` record that holds every key of ``keys`` and
    whose ``format`` is ``fmt``."""
    fields = parse_kv_block(text, what=what, keys=keys)
    require_keys(fields, keys, what=what)
    if fields["format"] != fmt:
        raise TextFormatError(f"{what}: unsupported format {clip(fields['format'])!r}")
    return fields


def parse_int(fields: dict[str, str], key: str, *, what: str) -> int:
    value = to_int(fields[key], f"{what}: key {key!r}")
    if not -2**63 <= value < 2**63:
        raise TextFormatError(f"{what}: key {key!r} does not fit in 64 bits: {clip(str(value))}")
    return value


def atomic_write_text(path: str | os.PathLike[str], text: str) -> None:
    """Write a file via temp-file-then-rename so readers never see partial
    content; an error that names a file names ``path``, not the temp file."""
    path = os.fspath(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-",
                                   suffix=os.path.basename(path))
        try:
            with os.fdopen(fd, "w", encoding="ascii", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename is None:
            raise
        raise OSError(exc.errno, exc.strerror, path) from None
