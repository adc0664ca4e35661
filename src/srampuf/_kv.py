"""Shared plumbing for the flat text files (dump, mask, helper, registry, calibration).

All are line-oriented ASCII read through :func:`read_text`, and all but dumps
are ``key = value`` blocks that stay diffable without tooling. Writers emit
keys in a fixed order, so save -> load -> save is byte-identical, and write
only values that read back unchanged (:func:`is_value`).
"""

from __future__ import annotations

import os
import tempfile


class TextFormatError(ValueError):
    """A structured text file does not match its expected format."""


def is_value(value: str) -> bool:
    """The one value rule: printable ASCII without surrounding blanks, maybe
    empty. Exactly these values read back from a ``key = value`` line."""
    return value.isascii() and value.isprintable() and value == value.strip()


# The rule's non-empty values as a regular expression, for whole-file fast
# paths: runs of visible characters joined by runs of spaces
VALUE_PATTERN = "[!-~]+(?: +[!-~]+)*"


def read_text(path, data: bytes | None = None) -> str:
    """The file at ``path`` as ASCII text with universal newlines, decoded
    from ``data`` when its bytes are already read; a byte that is not ASCII
    raises naming the file and its line."""
    if data is None:
        with open(path, "rb") as fh:
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
            raise TextFormatError(f"{what}: line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise TextFormatError(f"{what}: line {lineno}: empty key")
        if key not in keys:
            raise TextFormatError(f"{what}: line {lineno}: unknown key {key!r}")
        if key in out:
            raise TextFormatError(f"{what}: line {lineno}: duplicate key {key!r}")
        if not is_value(value):
            raise TextFormatError(f"{what}: line {lineno}: key {key!r}: value {value!r} "
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
        raise TextFormatError(f"{what}: unsupported format {fields['format']!r}")
    return fields


def parse_int(fields: dict[str, str], key: str, *, what: str) -> int:
    try:
        value = int(fields[key])
    except ValueError:
        raise TextFormatError(f"{what}: key {key!r} is not an integer: {fields[key]!r}") from None
    if not -2**63 <= value < 2**63:
        raise TextFormatError(f"{what}: key {key!r} does not fit in 64 bits: {value}")
    return value


def atomic_write_text(path: str | os.PathLike[str], text: str) -> None:
    """Write a file via temp-file-then-rename so readers never see partial content."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
