"""Shared plumbing for the flat text formats (mask, helper, registry, calibration).

All on-disk artifacts are line-oriented ``key = value`` blocks so they stay
diffable and inspectable without tooling. Writers emit keys in a fixed order,
which is what makes save -> load -> save byte-identical.
"""

from __future__ import annotations

import os
import tempfile


class TextFormatError(ValueError):
    """A structured text file does not match its expected format."""


def parse_kv_block(text: str, *, what: str = "file", first_line: int = 1) -> dict[str, str]:
    """Parse ``key = value`` lines into a dict. Blank lines and ``#`` comments
    skipped; errors number ``text``'s first line ``first_line``."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=first_line):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise TextFormatError(f"{what}: line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise TextFormatError(f"{what}: line {lineno}: empty key")
        if key in out:
            raise TextFormatError(f"{what}: line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def format_kv_block(pairs: list[tuple[str, str]]) -> str:
    """Format pairs as ``key = value`` lines. Keys must be identifiers and
    values printable (no line break) without surrounding whitespace, so
    :func:`parse_kv_block` reads back exactly these pairs."""
    for key, value in pairs:
        if not key.isidentifier():
            raise TextFormatError(f"cannot write key {key!r}")
        if not value.isprintable() or value != value.strip():
            raise TextFormatError(f"key {key!r}: cannot write value {value!r}")
    return "".join(f"{key} = {value}\n" for key, value in pairs)


def require_keys(fields: dict[str, str], keys: list[str], *, what: str) -> None:
    missing = [k for k in keys if k not in fields]
    if missing:
        raise TextFormatError(f"{what}: missing keys: {', '.join(missing)}")


def parse_int(fields: dict[str, str], key: str, *, what: str) -> int:
    try:
        return int(fields[key])
    except ValueError:
        raise TextFormatError(f"{what}: key {key!r} is not an integer: {fields[key]!r}") from None


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
