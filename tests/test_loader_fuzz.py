"""Generated hostile input for the loaders.

Hypothesis replaces, inserts and deletes bytes of the mask, helper and dump
that ``reproduce`` reads, and rewrites the registry's file hashes to match,
as whoever can write those files can; ``genkey`` reads the same files. It
writes calibrations for
``simulate --config`` and ``--set``, and puts one mangled dump among valid
ones for ``enroll``, ``stats`` and ``sweep``. It also writes whole argument
lists for ``reproduce`` and ``genkey``. Whatever the bytes or arguments, a
command ends with its own exit codes, never a traceback or a warning, and a
refusal is exactly one ``error:`` line.
"""

import hashlib
import io
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import event, example, given, settings, strategies as st

from srampuf.cli import EXIT_INSUFFICIENT_BITS, EXIT_OK, EXIT_REPRODUCE_FAILURE, EXIT_USAGE, main
from srampuf.registry import load_registry
from srampuf.simulate import Calibration, calibration_to_text

TARGETS = {"mask": "dev-a.mask", "helper": "dev-a.helper", "dump": "reading.hex"}
# Bytes that the loaders turn on, and some that no loader accepts
PIECES = [*(bytes([digit]) for digit in b"0123456789ABCDEF"), b"", b"f", b"x", b"-", b",",
          b",,", b"=", b" = ", b" ", b"\t", b"#", b"\n", b"\r\n", b"\r", b"\x00", b"\xe9",
          b"99999999999999999999", b"format", b"positions", b"target_len", b"syndrome",
          b"code_offset", b"code", b"device_id", b"mask_sha256", b"-v3", b"256"]


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
                     str(registry), "--device-id", "dev-a"]) == EXIT_OK
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
        assert_one_error_line(out.getvalue(), err.getvalue())


@settings(max_examples=300, deadline=None)
@example(edits=[])
@given(edits=mutations())
def test_genkey_survives_mutated_files(enrolled, edits):
    """``genkey`` reads the mask, registry and dump that ``reproduce`` does,
    mutated alike; whatever it exits with, the registry it leaves still
    parses."""
    work, files = enrolled
    for name, data in mutated(files, edits).items():
        (work / name).write_bytes(data)
    code, out, err = run(["genkey", "--dump", str(work / "reading.hex"), "--registry",
                          str(work / "registry.txt"), "--device-id", "dev-a"])
    event(f"exit {code}")
    assert code in (EXIT_OK, EXIT_USAGE)
    if code == EXIT_OK:
        assert (out, err) == (f"helper data written to {work / 'dev-a.helper'}\n", "")
    else:
        assert_one_error_line(out, err)
    load_registry(work / "registry.txt")


# An error line names at most a path and echoes at most 40 characters of the
# input, so even the 10^5-character keys, values and dump lines stay under this
MAX_ERROR_LINE = 400


def assert_one_error_line(out: str, err: str) -> None:
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert len(err) <= MAX_ERROR_LINE, err[:MAX_ERROR_LINE]


def run(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)``'s exit code, stdout and stderr; a warning fails the
    test, since the command line would print it as more lines."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# The default calibration file's ``key = value`` lines, without its comment
CALIBRATION_KEYS = calibration_to_text(Calibration()).split("\n")[1:-1]
# Values that each field's reader turns on: in range, out of range, not a
# number, past 64 bits, and long enough to pass any digit limit
VALUES = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "0.5", "0.25", "1.0", "1.5", "1e-300", "1e308",
                     "-1", "1.0001", "2.5", "nan", "NaN", "-nan", "inf", "-inf", "Infinity",
                     "1e400", "0x10", "1_000", "", " ", "=", "#", "x", "\t1"]),
    st.integers(2**63 - 2, 2**80).map(str),
    st.integers(-2**80, -2**63 + 1).map(str),
    st.tuples(st.sampled_from("19.x"), st.integers(1000, 10**5)).map(lambda c: c[0] * c[1]),
    st.text(alphabet=st.characters(codec="ascii"), max_size=6),
)
KEYS = st.one_of(st.sampled_from([line.partition(" = ")[0] for line in CALIBRATION_KEYS]),
                 st.sampled_from(["", "ntna_multiplier", "Cluster_radius", "#cluster_radius",
                                  "x" * 10**5]))
ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def calibration_files(draw):
    """Some of the default file's lines, in any order, with up to three lines
    put in among them: a repeat of a line (a repeated key), ``key = value``
    with any key and value, or a value alone. Each line has its own ending."""
    lines = draw(st.lists(st.sampled_from(CALIBRATION_KEYS), unique=True))
    for _ in range(draw(st.integers(0, 3))):
        line = draw(st.one_of(st.sampled_from(CALIBRATION_KEYS),
                              st.tuples(KEYS, st.sampled_from([" = ", "=", " =  ", ""]), VALUES)
                              .map("".join),
                              VALUES))
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "".join(line + draw(ENDINGS) for line in lines)


@settings(max_examples=300, deadline=None)
@example(config=None, overrides=["cluster_radius=9223372036854775808"], kind="NTNA")
@example(config="cluster_radius = 9223372036854775806\r\n", overrides=[], kind="HTNA")
@example(config="htna_multiplier = 1.5\r\nhtna_multiplier = 1.5\r\n", overrides=[], kind="HTNA")
@example(config=None, overrides=["htna_multiplier=nan", "ntwa_multiplier = inf"], kind="NTWA")
@example(config=f"cluster_mix = 0.{'5' * 10**5}\n", overrides=[], kind="NTNA")
@given(config=st.one_of(st.none(), calibration_files()),
       overrides=st.lists(st.tuples(KEYS, st.sampled_from(["=", " = ", "==", ""]),
                                    VALUES, st.sampled_from(["", "\r\n", "\n"]))
                          .map("".join), max_size=3),
       kind=st.sampled_from(["NTNA", "HTNA", "NTWA"]))
def test_simulate_survives_hostile_calibrations(tmp_path_factory, config, overrides, kind):
    work = tmp_path_factory.mktemp("calibration")
    argv = ["simulate", "--out-dir", str(work / "dumps"), "--device-seed", "3", "-n", "1",
            "--num-bits", "64", "--condition", kind]
    if config is not None:
        (work / "cal.cfg").write_bytes(config.encode("ascii"))
        argv += ["--config", str(work / "cal.cfg")]
    code, out, err = run(argv + [f"--set={item}" for item in overrides])
    event(f"exit {code}")
    assert code in (EXIT_OK, EXIT_USAGE)
    if code == EXIT_OK:
        assert (out, err) == (f"wrote 1 {kind} dump(s) of 64 bits to {work / 'dumps'}\n", "")
        assert len((work / "dumps" / "sample-00000.hex").read_bytes()) == 2 * 9   # two words
    else:
        assert_one_error_line(out, err)


DUMP_COMMANDS = ("enroll", "stats", "sweep")


@pytest.fixture(scope="module")
def dump_dirs(tmp_path_factory):
    """A directory of four valid dumps, and each command's exit code, output
    and written mask when it reads them."""
    work = tmp_path_factory.mktemp("dumps")
    with redirect_stdout(io.StringIO()):
        assert main(["simulate", "--out-dir", str(work / "valid"), "--device-seed", "5",
                     "-n", "4", "--num-bits", "2432"]) == EXIT_OK
    files = {path.name: path.read_bytes() for path in sorted((work / "valid").iterdir())}
    expected = {command: dump_command(work, command, work / "valid") for command in DUMP_COMMANDS}
    assert all(code == EXIT_OK for code, *_ in expected.values())
    return work, files, expected


def dump_command(work, command: str, dumps) -> tuple[int, str, str, bytes | None]:
    """``command`` run on the directory ``dumps`` (both roles for ``sweep``),
    with the mask it wrote, if any; ``enroll`` starts from a fresh registry."""
    for name in ("registry.txt", "dev-a.mask"):
        (work / name).unlink(missing_ok=True)
    argv = {"enroll": ["enroll", "--dumps", str(dumps), "--registry", str(work / "registry.txt"),
                       "--device-id", "dev-a", "--window-length", "608", "--threshold", "2"],
            "stats": ["stats", "--dumps", str(dumps), "--block-size", "608"],
            "sweep": ["sweep", "--enroll-dumps", str(dumps), "--test-dumps", f"NTNA={dumps}",
                      "--block-size", "608", "--thresholds", "1,2"]}[command]
    code, out, err = run(argv)
    mask = work / "dev-a.mask"
    return code, out, err, mask.read_bytes() if mask.exists() else None


def crlf(lines, at):
    return [line.replace(b"\n", b"\r\n") for line in lines[:at]] + lines[at:]


def lowercase(lines, at):
    return lines[:at] + [line.lower() for line in lines[at:]]


def wrong_length(lines, at, size):
    return lines[:at] + [(lines[at][:8] * 2)[:size] + b"\n"] + lines[at + 1:]


def long_line(lines, at, char):
    return lines[:at] + [char * 10**5 + b"\n"] + lines[at:]


@settings(max_examples=150, deadline=None)
@example(command="enroll", victim=0, mutation=(crlf, ()), at=1.0)
@example(command="stats", victim=1, mutation=(lowercase, ()), at=0.0)
@example(command="sweep", victim=3, mutation=(wrong_length, (9,)), at=0.5)
@example(command="enroll", victim=2, mutation=(long_line, (b"A",)), at=0.2)
@given(command=st.sampled_from(DUMP_COMMANDS), victim=st.integers(0, 3),
       mutation=st.sampled_from([(crlf, ()), (lowercase, ()),
                                 *((wrong_length, (size,)) for size in (0, 1, 7, 9, 16)),
                                 *((long_line, (char,)) for char in (b"A", b"0", b"x", b" A"))]),
       at=st.floats(0, 1))
def test_dump_commands_survive_one_mangled_dump(dump_dirs, command, victim, mutation, at):
    """One dump of the directory mangled at line ``at``, a fraction of its
    lines (CRLF before it, lowercase from it on): exit 0 only with the bytes the valid directory gives, else 2,
    or 5 for an enrollment short of stable bits, in one ``error:`` line."""
    work, files, expected = dump_dirs
    mangled = work / "mangled"
    mangled.mkdir(exist_ok=True)
    for index, (name, data) in enumerate(files.items()):
        if index == victim:
            lines = data.splitlines(keepends=True)
            edit, args = mutation
            data = b"".join(edit(lines, min(int(at * len(lines)), len(lines) - 1), *args))
        (mangled / name).write_bytes(data)
    code, out, err, mask = dump_command(work, command, mangled)
    event(f"{command} exit {code}")
    assert code in ((EXIT_OK, EXIT_USAGE, EXIT_INSUFFICIENT_BITS) if command == "enroll"
                    else (EXIT_OK, EXIT_USAGE))
    if code == EXIT_OK:
        assert (code, out, err, mask) == expected[command]
    else:
        assert_one_error_line(out, err)


# Pieces of a key command's argument list: its options whole, abbreviated
# (ambiguous or not), unknown, and the bare option markers
OPTIONS = ["--dump", "--registry", "--device-id", "--seed", "--debug", "--d", "--de", "--du",
           "--dev", "--deb", "--r", "--s", "--x", "-x", "-", "--"]
# Paths by name, written <name> in an argument: the enrolled dump, copies of
# it with one and two flips inside dev-a's mask, the registry, a missing file
# and a directory
PATHS = {"clean": "dumps/sample-00000.hex", "one": "one-flip.hex", "two": "two-flips.hex",
         "registry": "registry.txt", "missing": "missing.txt", "dir": "dumps"}
# Values no file gives: what the int reader turns on, ids the device-id rule
# refuses, and text past every length limit
VALUES_TEXT = ["", "1", "-1", "x", "=", "dev-a", "dev-b", "../evil", "1" * 5000, "x" * 10**5]
ARGUMENT_VALUES = st.sampled_from([f"<{name}>" for name in PATHS] + VALUES_TEXT)


@pytest.fixture(scope="module")
def key_work(enrolled):
    """``enrolled``'s directory, with the one- and two-flip dumps written."""
    work, files = enrolled
    restore(work, files)
    for count, name in ((1, "one"), (2, "two")):
        assert run(["flip", "--dump", str(work / PATHS["clean"]), "--out", str(work / PATHS[name]),
                    "--count", str(count), "--seed", "1", "--mask", str(work / "dev-a.mask")]
                   )[0] == EXIT_OK
    return work, files


def restore(work, files) -> None:
    for name, data in files.items():
        (work / name).write_bytes(data)


@st.composite
def key_argument_lists(draw):
    """A key command with its three required options, each given as two
    arguments, joined by ``=`` or left out, in any order, and up to four
    pieces put in among them: an option with a value as the next argument
    or after ``=``, an option alone or a value alone."""
    pieces = []
    for option, value in draw(st.permutations([("--dump", draw(st.sampled_from(["<clean>", "<one>",
                                                                                "<two>"]))),
                                               ("--registry", "<registry>"),
                                               ("--device-id", "dev-a")])):
        form = draw(st.sampled_from(["apart", "joined", "left out"]))
        pieces += {"apart": [[option, value]], "joined": [[f"{option}={value}"]],
                   "left out": []}[form]
    pairs = st.tuples(st.sampled_from(OPTIONS), ARGUMENT_VALUES)
    for _ in range(draw(st.integers(0, 4))):
        piece = draw(st.one_of(pairs.map(list), pairs.map(lambda p: ["=".join(p)]),
                               st.sampled_from(OPTIONS).map(lambda o: [o]),
                               ARGUMENT_VALUES.map(lambda v: [v])))
        pieces.insert(draw(st.integers(0, len(pieces))), piece)
    return [draw(st.sampled_from(["reproduce", "genkey"]))] + sum(pieces, [])


VALID = ["--registry", "<registry>", "--device-id", "dev-a"]


@settings(max_examples=300, deadline=None)
@example(argv=["reproduce", "--dump", "<one>", *VALID, "--debug"])
@example(argv=["reproduce", "--dump", "<two>", *VALID])
@example(argv=["genkey", "--dump", "<clean>", *VALID, "--debug"])
@example(argv=["genkey", "--dump", "<clean>", *VALID, "--d=" + "x" * 10**5])
@example(argv=["reproduce", "--dump", "<clean>", *VALID, "--debug=" + "x" * 10**5])
@given(argv=key_argument_lists())
def test_key_commands_survive_whole_argument_lists(key_work, argv):
    """Whatever the arguments, ``reproduce`` exits 0, 2 or 3 and ``genkey``
    0 or 2, never by a traceback, and a refusal is one ``error:`` line."""
    work, files = key_work
    restore(work, files)
    code, out, err = run([re.sub(r"<(\w+)>", lambda m: str(work / PATHS[m[1]]), arg)
                          for arg in argv])
    event(f"{argv[0]} exit {code}")
    assert code in ((EXIT_OK, EXIT_USAGE, EXIT_REPRODUCE_FAILURE) if argv[0] == "reproduce"
                    else (EXIT_OK, EXIT_USAGE))
    if code == EXIT_OK:
        assert err == "" and out
    else:
        assert_one_error_line(out, err)
