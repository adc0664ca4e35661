"""A stateful model of the key commands: ``enroll``, ``genkey`` and ``reproduce``.

Hypothesis drives ``cli.main`` through random sequences of the three
commands on a fresh registry and checks them against a small model: which
id is enrolled from which device, and which key each id's genkey reading
gives. After every command:

- a refused command (any nonzero exit) leaves every file byte-identical;
- the registry, once written, parses;
- a reading within masked distance 1 of the genkey reading gives the
  model's key, and one at distance 2 exits 3.

A reading farther away, from the same device or from the other one, has
no single outcome today: see :func:`far_outcomes`.
"""

import contextlib
import hashlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant, precondition, rule,
                                 run_state_machine_as_test)

from srampuf.bitvec import load_dump, save_dump
from srampuf.cli import EXIT_KEY_MISMATCH, EXIT_OK, EXIT_REPRODUCE_FAILURE, EXIT_USAGE, main
from srampuf.enroll import load_mask
from srampuf.registry import load_registry
from srampuf.simulate import Calibration, collect_samples, new_device

from _oracles import oracle_apply_mask, weight, xor

DEVICES = (77, 78)
N_DUMPS = 12
NUM_BITS = 4864        # four 1216-bit windows
IDS = ("dev-a", "dev-b")


def far_outcomes(key_hash_stored: bool, debug: bool) -> set[int]:
    """Exit codes a reproduce may give at masked distance 3 or more from the
    genkey reading, as a reading of the other device is. A syndrome that is a
    column code, or 0, gives a wrong key: exit 0, or exit 4 when
    ``reproduce --debug`` checks the key hash that ``genkey --debug`` stored.
    Any other syndrome is refused with exit 3."""
    wrong_key = EXIT_KEY_MISMATCH if key_hash_stored and debug else EXIT_OK
    return {wrong_key, EXIT_REPRODUCE_FAILURE}


@pytest.fixture(scope="module")
def dump_dirs(tmp_path_factory):
    """Per device, a directory of its 12 NTNA dumps."""
    cal = Calibration()
    root = tmp_path_factory.mktemp("model-dumps")
    dirs = {}
    for seed in DEVICES:
        device = new_device(seed, NUM_BITS, calibration=cal)
        dirs[seed] = root / f"device-{seed}"
        dirs[seed].mkdir()
        for i, sample in enumerate(collect_samples(device, cal.condition("NTNA"), N_DUMPS)):
            save_dump(dirs[seed] / f"sample-{i:05d}.hex", sample)
    return dirs


def run(*argv: str) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert err.getvalue().count("\n") == (code != EXIT_OK), err.getvalue()
    return code, out.getvalue()


def printed_key(stdout: str) -> bytes:
    halves = [line.split(" = ")[1] for line in stdout.splitlines()
              if line.startswith(("key1 = ", "key2 = "))]
    assert len(halves) == 2, stdout
    return bytes.fromhex("".join(halves))


def snapshot(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class KeyCommands(RuleBasedStateMachine):
    def __init__(self, dump_dirs):
        super().__init__()
        self.dump_dirs = dump_dirs
        self.root = Path(tempfile.mkdtemp(prefix="key-model-"))
        self.registry_dir = self.root / "registry"
        self.registry = self.registry_dir / "registry.txt"
        self.reading_path = self.root / "reading.hex"
        self.device = {}    # enrolled id -> device seed
        self.keyed = {}     # id -> (mask, genkey reading, key digest, key hash stored)

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    def dump(self, seed: int, index: int) -> Path:
        return self.dump_dirs[seed] / f"sample-{index:05d}.hex"

    def command(self, *argv: str) -> tuple[int, str]:
        """Run one key command; a refused one must leave every file as it was."""
        before = snapshot(self.registry_dir) if self.registry_dir.exists() else None
        code, stdout = run(*argv, "--registry", str(self.registry))
        if code != EXIT_OK:
            after = snapshot(self.registry_dir) if self.registry_dir.exists() else None
            assert after == before, f"refused {argv[0]} (exit {code}) changed files"
        return code, stdout

    @precondition(lambda self: len(self.device) < len(IDS))
    @rule(device_id=st.sampled_from(IDS), seed=st.sampled_from(DEVICES))
    def enroll(self, device_id, seed):
        code, _ = self.command("enroll", "--dumps", str(self.dump_dirs[seed]),
                               "--device-id", device_id)
        if device_id in self.device:
            assert code == EXIT_USAGE
            return
        assert code == EXIT_OK
        self.device[device_id] = seed

    @precondition(lambda self: self.device)
    @rule(device_id=st.sampled_from(IDS), index=st.integers(0, N_DUMPS - 1), debug=st.booleans())
    def genkey(self, device_id, index, debug):
        seed = self.device.get(device_id, DEVICES[0])
        path = self.dump(seed, index)
        code, stdout = self.command("genkey", "--dump", str(path), "--device-id", device_id,
                                    *(["--debug"] * debug))
        if device_id not in self.device:
            assert code == EXIT_USAGE
            return
        assert code == EXIT_OK
        reading = load_dump(path)
        mask = load_mask(self.registry_dir / f"{device_id}.mask")
        key = hashlib.sha256(oracle_apply_mask(reading, mask)).digest()
        if debug:
            assert printed_key(stdout) == key
        self.keyed[device_id] = (mask, reading, key, debug)

    @precondition(lambda self: self.keyed)
    @rule(data=st.data(), debug=st.booleans())
    def reproduce(self, data, debug):
        device_id = data.draw(st.sampled_from(sorted(self.keyed)), label="device_id")
        mask, genkey_reading, key, key_hash_stored = self.keyed[device_id]
        flips = data.draw(st.sampled_from((0, 1, 2, 3, "other device")), label="flips")
        if flips == "other device":
            other = DEVICES[1 - DEVICES.index(self.device[device_id])]
            reading = load_dump(self.dump(other, data.draw(st.integers(0, N_DUMPS - 1))))
        else:
            chosen = data.draw(st.lists(st.integers(0, mask.target_len - 1), min_size=flips,
                                        max_size=flips, unique=True), label="masked positions")
            reading = genkey_reading.with_flips(mask.base_offset + mask.positions[chosen])
        save_dump(self.reading_path, reading)
        distance = weight(xor(oracle_apply_mask(reading, mask),
                              oracle_apply_mask(genkey_reading, mask)))
        code, stdout = self.command("reproduce", "--dump", str(self.reading_path),
                                    "--device-id", device_id, *(["--debug"] * debug))
        if distance <= 1:
            assert code == EXIT_OK
            if debug:
                assert printed_key(stdout) == key
        elif distance == 2:
            assert code == EXIT_REPRODUCE_FAILURE
        else:
            assert code in far_outcomes(key_hash_stored, debug)
            if code == EXIT_OK and debug:
                assert printed_key(stdout) != key

    @invariant()
    def registry_parses(self):
        if self.registry.exists():
            assert set(load_registry(self.registry).entries) == set(self.device)
        else:
            assert not self.device


def test_key_commands_follow_the_model(dump_dirs):
    run_state_machine_as_test(
        lambda: KeyCommands(dump_dirs),
        settings=settings(max_examples=100, stateful_step_count=25, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow]))
