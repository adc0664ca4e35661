"""Flat-file enrollment registry.

One structured text file lists every enrolled device with references to its
mask and helper files (stored as siblings) and the SHA-256 of each referenced
file. The mask file is the only record of how a device was enrolled; the
registry holds no copy of its parameters. A referenced file is read through
:func:`read_verified`, which hashes the same bytes it returns, so any
corruption of a mask or helper is caught before a key is derived from it,
and only the files a command reads are checked. A file exactly in the
writer's form is read by one pattern that also holds the bare-file-name
rule, with no per-entry checks; a save of such a registry reuses the text of
every entry still equal to what was read, and formats and checks only the
entries added or changed since the load. Commands that change the
registry do their load -> change -> save under :func:`locked`, so concurrent
writers do not drop each other's entries. Keys themselves are never
persisted; at most an opt-in debug key hash is recorded for cross-checking
reproduction. Only ``srampuf-registry-v2`` files are read; v1 is refused.
"""

from __future__ import annotations

import errno
import fcntl
import hashlib
import os
import re
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from operator import attrgetter

from ._kv import (VALUE_PATTERN, TextFormatError, atomic_write_text, format_kv_block,
                  parse_kv_block, read_text, require_keys)

REGISTRY_FORMAT = "srampuf-registry-v2"


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class RegistryEntry:
    """One enrolled device and the files that reproduce its key.

    The fields are the entry's keys, in file order: those without a default
    are required, and the rest are written only when non-empty. An entry is a
    plain value: callers update it with ``dataclasses.replace`` and store the
    result in :attr:`Registry.entries`.
    """

    device_id: str
    mask_file: str
    mask_sha256: str
    created: str
    helper_file: str = ""
    helper_sha256: str = ""
    key_sha256: str = ""      # debug only, opt-in

    def to_pairs(self) -> list[tuple[str, str]]:
        # vars() holds the fields in declaration order, the order __init__ sets them in
        return [(key, value) for key, value in vars(self).items() if value or _ENTRY_KEYS[key]]


# RegistryEntry's keys in file order, each mapped to whether every entry
# must hold it
_ENTRY_KEYS = {f.name: f.default is MISSING for f in fields(RegistryEntry)}
_REQUIRED_ENTRY_KEYS = [key for key, required in _ENTRY_KEYS.items() if required]
_FILE_KEYS = ("mask_file", "helper_file")
# An entry's field values in file order, as the fast path's match groups hold them
_entry_values = attrgetter(*_ENTRY_KEYS)


@dataclass
class Registry:
    """In-memory view of one registry file; device ids are unique."""

    entries: dict[str, RegistryEntry] = field(default_factory=dict)
    # Device id -> its entry's match in the text the fast path read; a save
    # reuses that text while the entry still holds the values read.
    _read: dict[str, re.Match] = field(default_factory=dict, init=False, repr=False,
                                       compare=False)

    def add(self, entry: RegistryEntry) -> None:
        if entry.device_id in self.entries:
            raise ValueError(f"device {entry.device_id!r} is already enrolled")
        self.entries[entry.device_id] = entry

    def get(self, device_id: str) -> RegistryEntry:
        try:
            return self.entries[device_id]
        except KeyError:
            raise ValueError(f"device {device_id!r} is not enrolled") from None


def registry_to_text(registry: Registry) -> str:
    parts = [_HEADER]
    for device_id in sorted(registry.entries):
        entry = registry.entries[device_id]
        read = registry._read.get(device_id)
        if read is not None and _entry_values(entry) == read.groups(""):
            parts.append(read[0])
            continue
        pairs = entry.to_pairs()
        parts.append("\n" + format_kv_block(pairs))
        _check_file_names(dict(pairs), f"registry entry {device_id!r}")
    return "".join(parts)


def registry_from_text(text: str) -> Registry:
    registry = _writer_form(text)
    return _parse_registry(text) if registry is None else registry


_HEADER = f"format = {REGISTRY_FORMAT}\n"
# A value that is a bare file name: visible characters but '/' and '\', and
# not '.' or '..', ended by a newline in a file or by the end of a lone name
_BARE_NAME_PATTERN = r"(?!\.\.?(?:\n|\Z))[!-.0-\[\]-~]+(?: +[!-.0-\[\]-~]+)*"
# One entry exactly as registry_to_text writes it: a blank line, then its keys
# in field order, the optional ones only when set.
_ENTRY_RE = re.compile("\n" + "".join(
    f"(?:{key} = ({_BARE_NAME_PATTERN if key in _FILE_KEYS else VALUE_PATTERN})\n)"
    + ("" if required else "?") for key, required in _ENTRY_KEYS.items()))


def _check_file_names(values: dict[str, str], what: str) -> None:
    """Refuse a ``mask_file`` or ``helper_file`` in ``values`` that does not
    name a file in the registry's own directory; ``values`` pass the value rule."""
    for key in _FILE_KEYS:
        name = values.get(key)
        if name is not None and not re.fullmatch(_BARE_NAME_PATTERN, name):
            raise TextFormatError(f"{what}: key {key!r} must be a bare file name: {name!r}")


def _writer_form(text: str) -> Registry | None:
    """The registry ``text`` holds if it is exactly in the writer's form, else
    None; the registry keeps each entry's match for :func:`registry_to_text`.

    Never raises: any other text goes to :func:`_parse_registry`, which reads
    every accepted form and names the line of any fault."""
    if not text.startswith(_HEADER):
        return None
    pos = len(_HEADER)
    read = {}
    for match in _ENTRY_RE.finditer(text, pos):
        if match.start() != pos or match[1] in read:
            return None
        pos = match.end()
        read[match[1]] = match
    if pos != len(text):
        return None
    registry = Registry({device_id: RegistryEntry(*match.groups(""))
                         for device_id, match in read.items()})
    registry._read = read
    return registry


def _blocks(text: str):
    """Yield each block of ``text`` as its first line's number and its lines;
    lines that are empty or hold only whitespace separate blocks."""
    lines = text.split("\n")
    start = 0
    for i, line in enumerate([*lines, ""]):
        if not line.strip():
            if i > start:
                yield start + 1, lines[start:i]
            start = i + 1


def _parse_registry(text: str) -> Registry:
    blocks = _blocks(text)
    first_line, lines = next(blocks, (0, None))
    if lines is None:
        raise TextFormatError("registry: empty file")
    header = parse_kv_block("\n".join(lines), what="registry header", first_line=first_line,
                            keys=("format",))
    if header.get("format") != REGISTRY_FORMAT:
        raise TextFormatError(f"registry: unsupported format {header.get('format')!r}")
    entries: dict[str, RegistryEntry] = {}
    first_lines: dict[str, int] = {}
    for first_line, lines in blocks:
        values = parse_kv_block("\n".join(lines), what="registry entry", first_line=first_line,
                                keys=_ENTRY_KEYS)
        what = f"registry entry at line {first_line}"
        require_keys(values, _REQUIRED_ENTRY_KEYS, what=what)
        _check_file_names(values, what)
        device_id = values["device_id"]
        if device_id in first_lines:
            raise TextFormatError(f"{what}: device_id {device_id!r} is also listed at line "
                                  f"{first_lines[device_id]}")
        first_lines[device_id] = first_line
        entries[device_id] = RegistryEntry(**values)
    return Registry(entries)


def save_registry(path, registry: Registry) -> None:
    atomic_write_text(path, registry_to_text(registry))


def load_registry(path) -> Registry:
    """Parse a registry file; referenced files are checked when they are read."""
    try:
        text = read_text(path)
    except FileNotFoundError:
        raise ValueError(f"registry file not found: {path}") from None
    return registry_from_text(text)


@contextmanager
def locked(registry_path):
    """Hold an exclusive ``flock`` on the sibling ``<registry>.lock`` file."""
    with open(f"{os.fspath(registry_path)}.lock", "a") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        yield


def sibling_path(registry_path, name: str) -> str:
    """Path of the file ``name`` in the directory of the registry file."""
    return os.path.join(os.path.dirname(os.path.abspath(registry_path)), name)


def read_verified(registry_path, entry: RegistryEntry, what: str) -> str:
    """Read ``entry``'s ``"mask"`` or ``"helper"`` file once and return its
    text, after checking those bytes against the recorded SHA-256. A symbolic
    link is refused unopened, so no read leaves the registry's directory."""
    name, expected = getattr(entry, f"{what}_file"), getattr(entry, f"{what}_sha256")
    path = sibling_path(registry_path, name)
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NOFOLLOW)
    except OSError as exc:
        problem = {errno.ENOENT: "is missing", errno.ELOOP: "is a symbolic link"}.get(exc.errno)
        if problem is None:
            raise
        raise ValueError(f"device {entry.device_id!r}: {what} file {name!r} {problem}") from None
    with os.fdopen(fd, "rb") as fh:
        data = fh.read()
    actual = hashlib.sha256(data).hexdigest()
    if actual != expected:
        raise ValueError(
            f"device {entry.device_id!r}: {what} file {name!r} does not match its recorded "
            f"fingerprint (expected {expected[:12]}.., found {actual[:12]}..)"
        )
    return read_text(path, data)
