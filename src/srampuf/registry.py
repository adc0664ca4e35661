"""Flat-file enrollment registry.

One structured text file lists every enrolled device with references to its
mask and helper files and the SHA-256 of each. Only this module names, writes
and hashes those files: :func:`update_entry` writes ``<id>.mask`` or
``<id>.helper`` beside the registry for an id that passes
:func:`check_device_id`, so no command writes outside the registry's
directory. The mask file is the only record of how a device was enrolled. A
referenced file is read through :func:`read_verified`, which hashes the same
bytes it returns, so a corrupt mask or helper is caught before a key is
derived from it, and only the files a command reads are checked. Every
command reads the registry through one check, which gives its text in the
writer's form: text already in that form, device ids ascending, is checked in
one split on an entry pattern that also holds the bare-file-name rule, and
any other is parsed line by line and formatted once. :func:`read_entry`
builds only the entry asked for, and :func:`update_entry` writes the text
back with only its entry spliced in, under :func:`locked`, so concurrent
writers do not drop each other's entries. Every file is opened by
``_kv.open_regular``, so only a regular file is read or locked; the registry
may be a symbolic link to one, a referenced file or the lock file may not.
Keys are never persisted; at most an opt-in debug key hash is recorded.
Only ``srampuf-registry-v2`` files are read; v1 is refused.
"""

from __future__ import annotations

import errno
import fcntl
import hashlib
import os
import re
from bisect import bisect_left
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, replace
from datetime import datetime, timezone
from operator import lt

from ._kv import (VALUE_PATTERN, TextFormatError, atomic_write_text, clip, format_kv_block,
                  open_regular, parse_kv_block, read_text, require_keys)

REGISTRY_FORMAT = "srampuf-registry-v2"
# The one device-id rule: an id and its suffix make a bare file name, and the
# longest, atomic_write_text's temp name ".tmp-XXXXXXXX<id>.helper", fits in 255 bytes
_DEVICE_ID_RE = re.compile(r"^[A-Za-z0-9._-]+$")
_MAX_DEVICE_ID = 255 - len(".tmp-XXXXXXXX.helper")


def check_device_id(device_id: str) -> None:
    """Refuse an id that :data:`_DEVICE_ID_RE` does not match in full, or
    one longer than ``_MAX_DEVICE_ID`` (235) characters."""
    if not _DEVICE_ID_RE.fullmatch(device_id):
        raise ValueError(f"device id {clip(device_id)!r} must match {_DEVICE_ID_RE.pattern}")
    if len(device_id) > _MAX_DEVICE_ID:
        raise ValueError(f"device id {clip(device_id)!r} is longer than {_MAX_DEVICE_ID} "
                         "characters")


def file_sha256(path) -> str:
    with open_regular(path) as fh:
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


@dataclass
class Registry:
    """In-memory view of one registry file; device ids are unique."""

    entries: dict[str, RegistryEntry] = field(default_factory=dict)

    def add(self, entry: RegistryEntry) -> None:
        _check_enrolled(entry.device_id, entry.device_id in self.entries, create=True)
        self.entries[entry.device_id] = entry

    def get(self, device_id: str) -> RegistryEntry:
        _check_enrolled(device_id, device_id in self.entries, create=False)
        return self.entries[device_id]


def registry_to_text(registry: Registry) -> str:
    return "".join([_HEADER, *(_entry_text(device_id, registry.entries[device_id])
                               for device_id in sorted(registry.entries))])


def _entry_text(device_id: str, entry: RegistryEntry) -> str:
    """``entry`` as the writer writes it, with the blank line before it; a
    file name that is not bare is refused, naming ``device_id``."""
    pairs = entry.to_pairs()
    text = "\n" + format_kv_block(pairs)
    _check_file_names(dict(pairs), f"registry entry {device_id!r}")
    return text


_HEADER = f"format = {REGISTRY_FORMAT}\n"
# A value that is a bare file name: VALUE_PATTERN without '/' and '\', and
# not '.' or '..', ended by a newline in a file or by the end of a lone name
_BARE_NAME_PATTERN = r"(?!\.\.?(?:\n|\Z))[!-.0-\[\]-~][ -.0-\[\]-~]*(?<! )"


def _entry_re(captured) -> re.Pattern[str]:
    """One entry as registry_to_text writes it, the values of the keys in
    ``captured`` as groups: a blank line, then its keys in field order, the
    optional ones only when set, the required ones maybe empty but mask_file
    (an empty alternative matches faster than a '?' on a group)."""
    return re.compile("\n" + "".join(
        f"(?:{key} = ({'' if key in captured else '?:'}"
        f"{_BARE_NAME_PATTERN if key in _FILE_KEYS else VALUE_PATTERN + '|' * required})\n"
        + (")" if required else "|)") for key, required in _ENTRY_KEYS.items()))


_ENTRY_RE = _entry_re(_ENTRY_KEYS)
# Splitting a file on its entries leaves the text around them, and their ids
_ENTRY_ID_RE = _entry_re(("device_id",))


def _check_file_names(values: dict[str, str], what: str) -> None:
    """Refuse a ``mask_file`` or ``helper_file`` in ``values`` that does not
    name a file in the registry's own directory; ``values`` pass the value rule."""
    for key in _FILE_KEYS:
        name = values.get(key)
        if name is not None and not re.fullmatch(_BARE_NAME_PATTERN, name):
            raise TextFormatError(f"{what}: key {key!r} must be a bare file name: {name!r}")


def _writer_ids(text: str) -> list[str] | None:
    """The device ids of ``text``, ascending, if it is exactly what
    :func:`registry_to_text` writes, else None. One pass that never raises:
    the file splits on the entries into the header and nothing else."""
    parts = _ENTRY_ID_RE.split(text)
    ids = parts[1::2]
    writer = parts[0] == _HEADER and not any(parts[2::2]) and all(map(lt, ids, ids[1:]))
    return ids if writer else None


def _checked(text: str) -> tuple[str, list[str]]:
    """``text`` in the writer's form, checked, and its device ids, ascending.
    Text already in that form is kept as it is; any other is parsed line by
    line and formatted once, which :func:`_writer_ids` accepts in turn."""
    ids = _writer_ids(text)
    if ids is None:
        registry = registry_from_text(text)
        text, ids = registry_to_text(registry), sorted(registry.entries)
    return text, ids


def _locate(text: str, ids: list[str], device_id: str) -> tuple[int, re.Match[str] | None]:
    """Where ``device_id``'s entry starts in ``text``, as :func:`_checked`
    gives it with ``ids``, or where it would be inserted, and the entry's
    match when the device is enrolled."""
    at = bisect_left(ids, device_id)
    start = text.index(f"\n\ndevice_id = {ids[at]}\n") + 1 if at < len(ids) else len(text)
    return start, _ENTRY_RE.match(text, start) if ids[at:at + 1] == [device_id] else None


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


def registry_from_text(text: str) -> Registry:
    blocks = _blocks(text)
    first_line, lines = next(blocks, (0, None))
    if lines is None:
        raise TextFormatError("registry: empty file")
    header = parse_kv_block("\n".join(lines), what="registry header", first_line=first_line,
                            keys=("format",))
    if (fmt := header.get("format")) != REGISTRY_FORMAT:
        raise TextFormatError(f"registry: unsupported format {fmt and clip(fmt)!r}")
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


def _registry_file(path):
    """The registry file opened, a regular file or a symbolic link to one."""
    return open_regular(path, f"registry file is not a regular file: {path}",
                        refusals={errno.ENOENT: f"registry file not found: {path}"})


def _registry_text(path) -> str:
    with _registry_file(path) as fh:
        return read_text(path, fh.read())


def load_registry(path) -> Registry:
    """Parse a registry file; referenced files are checked when they are read."""
    return registry_from_text(_registry_text(path))


def read_entry(path, device_id: str) -> RegistryEntry:
    """``load_registry(path).get(device_id)`` for an id that passes
    :func:`check_device_id`, building only the entry asked for."""
    check_device_id(device_id)
    _, match = _locate(*_checked(_registry_text(path)), device_id)
    _check_enrolled(device_id, match is not None, create=False)
    return RegistryEntry(*match.groups(""))


def update_entry(path, device_id: str, make_file: Callable[[str | None], tuple[str, str]], *,
                 create: bool = False) -> str:
    """Write ``device_id``'s file beside the registry at ``path`` and its
    entry with the file's SHA-256; return the file's path. With ``create``
    the device must not be enrolled, ``make_file(None)`` gives the text of
    ``<id>.mask`` and a missing registry reads as empty, its directory made.
    Otherwise ``make_file`` gets the verified mask text and gives that of
    ``<id>.helper`` and the key hash to record. The id is checked first, and a
    registry that is not regular, or missing without ``create``, is refused
    before the lock file is made. Under :func:`locked`, the text is read and
    checked once and written back with this entry spliced in."""
    check_device_id(device_id)
    if not create or os.path.exists(path):
        _registry_file(path).close()
    else:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    name = f"{device_id}.{'mask' if create else 'helper'}"
    file_path = sibling_path(path, name)
    with locked(path):
        text = _HEADER if create and not os.path.exists(path) else _registry_text(path)
        text, ids = _checked(text)
        start, match = _locate(text, ids, device_id)
        _check_enrolled(device_id, match is not None, create)
        entry = RegistryEntry(*match.groups("")) if match else None
        file_text, key_sha256 = make_file(None if create else read_verified(path, entry, "mask"))
        atomic_write_text(file_path, file_text)
        digest = hashlib.sha256(file_text.encode("ascii")).hexdigest()
        if create:
            created = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
            entry = RegistryEntry(device_id, name, digest, created)
        else:
            entry = replace(entry, helper_file=name, helper_sha256=digest, key_sha256=key_sha256)
        end = match.end() if match else start
        atomic_write_text(path, text[:start] + _entry_text(device_id, entry) + text[end:])
    return file_path


def _check_enrolled(device_id: str, enrolled: bool, create: bool) -> None:
    """Refuse to create an entry that exists, or to change one that does not."""
    if enrolled and create:
        raise ValueError(f"device {device_id!r} is already enrolled")
    if not enrolled and not create:
        raise ValueError(f"device {device_id!r} is not enrolled")


@contextmanager
def locked(registry_path):
    """Hold an exclusive ``flock`` on the sibling ``<registry>.lock`` file, made
    when missing; one that is not a regular file, a symbolic link too, is refused."""
    lock = f"{os.fspath(registry_path)}.lock"
    with open_regular(lock, flags=os.O_CREAT | os.O_NOFOLLOW) as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        yield


def sibling_path(registry_path, name: str) -> str:
    """Path of the file ``name`` in the directory of the registry file."""
    return os.path.join(os.path.dirname(os.path.abspath(registry_path)), name)


def read_verified(registry_path, entry: RegistryEntry, what: str) -> str:
    """Read ``entry``'s ``"mask"`` or ``"helper"`` file once and return its
    text, after checking those bytes against the recorded SHA-256. A symbolic
    link is refused unopened, so no read leaves the registry's directory, and
    anything but a regular file, such as a FIFO or a directory, is refused unread."""
    name, expected = getattr(entry, f"{what}_file"), getattr(entry, f"{what}_sha256")
    path = sibling_path(registry_path, name)
    where = f"device {entry.device_id!r}: {what} file {name!r}"
    with open_regular(path, f"{where} is not a regular file", os.O_NOFOLLOW,
                      {errno.ENOENT: f"{where} is missing",
                       errno.ELOOP: f"{where} is a symbolic link"}) as fh:
        data = fh.read()
    actual = hashlib.sha256(data).hexdigest()
    if actual != expected:
        raise ValueError(f"{where} does not match its recorded fingerprint "
                         f"(expected {expected[:12]}.., found {actual[:12]}..)")
    return read_text(path, data)
