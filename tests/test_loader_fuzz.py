"""Generated hostile input for the key path's loaders.

Hypothesis replaces, inserts and deletes bytes of the mask, helper and dump
that ``reproduce`` reads, and rewrites the registry's file hashes to match,
as whoever can write those files can. Whatever the bytes, ``reproduce`` must
end with a key (0), a usage error (2) or a refused reading (3), never a
traceback, and a refusal is exactly one ``error:`` line.
"""

import hashlib
import io
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import event, given, settings, strategies as st

from srampuf.cli import EXIT_OK, EXIT_REPRODUCE_FAILURE, EXIT_USAGE, main

TARGETS = {"mask": "dev-a.mask", "helper": "dev-a.helper", "dump": "reading.hex"}
# Bytes that the loaders turn on, and some that no loader accepts
PIECES = [*(bytes([digit]) for digit in b"0123456789ABCDEF"), b"", b"f", b"x", b"-", b",",
          b",,", b"=", b" = ", b" ", b"\t", b"#", b"\n", b"\r\n", b"\r", b"\x00", b"\xe9",
          b"99999999999999999999", b"format", b"positions", b"target_len", b"code_offset"]


@pytest.fixture(scope="module")
def enrolled(tmp_path_factory):
    """The bytes of dev-a's mask, helper and registry after genkey, and of a
    reading of it, in a directory whose files each example overwrites."""
    work = tmp_path_factory.mktemp("fuzz")
    dumps, registry = work / "dumps", work / "registry.txt"
    with redirect_stdout(io.StringIO()):
        assert main(["simulate", "--out-dir", str(dumps), "--device-seed", "77", "-n", "8",
                     "--num-bits", "4864"]) == EXIT_OK
        assert main(["enroll", "--dumps", str(dumps), "--registry", str(registry),
                     "--device-id", "dev-a"]) == EXIT_OK
        assert main(["genkey", "--dump", str(dumps / "sample-00000.hex"), "--registry",
                     str(registry), "--device-id", "dev-a", "--seed", "1"]) == EXIT_OK
    (work / "reading.hex").write_bytes((dumps / "sample-00001.hex").read_bytes())
    return work, {name: (work / name).read_bytes()
                  for name in (*TARGETS.values(), "registry.txt")}


@st.composite
def mutations(draw):
    """Up to four edits, each of one target: a piece or one or two bytes
    written over as many bytes, or in place of a span of up to 8 bytes, which
    deletes or inserts when either is empty."""
    edits = []
    for _ in range(draw(st.integers(1, 4))):
        target = draw(st.sampled_from(sorted(TARGETS)))
        new = draw(st.one_of(st.sampled_from(PIECES), st.binary(min_size=1, max_size=2)))
        length = draw(st.one_of(st.just(len(new)), st.integers(0, 8)))
        edits.append((target, draw(st.floats(0, 1)), length, new))
    return edits


def mutated(files, edits):
    """``files`` with ``edits`` made, and the registry's mask and helper
    hashes rewritten to match the edited bytes."""
    files = dict(files)
    for target, at, length, new in edits:
        data = files[TARGETS[target]]
        start = int(at * len(data))
        files[TARGETS[target]] = data[:start] + new + data[start + length:]
    registry = files["registry.txt"].decode("ascii")
    for what in ("mask", "helper"):
        digest = hashlib.sha256(files[TARGETS[what]]).hexdigest()
        registry = re.sub(f"(?m)^{what}_sha256 = .*$", f"{what}_sha256 = {digest}", registry)
    files["registry.txt"] = registry.encode("ascii")
    return files


@settings(max_examples=300, deadline=None)
@given(edits=mutations())
def test_reproduce_survives_mutated_files(enrolled, edits):
    work, files = enrolled
    for name, data in mutated(files, edits).items():
        (work / name).write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["reproduce", "--dump", str(work / "reading.hex"), "--registry",
                     str(work / "registry.txt"), "--device-id", "dev-a"])
    event(f"exit {code}")
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_REPRODUCE_FAILURE)
    if code == EXIT_OK:
        assert (out.getvalue(), err.getvalue()) == ("key reproduced for dev-a\n", "")
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert err.getvalue().endswith("\n")
