"""The four benchmark workloads, the recorder they report to, and their checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned. Only the call into ``srampuf`` is timed;
the checks on its outputs run between operations, outside the timing.

The timed loops of ``reproduce`` and ``cli`` use only readings within one
flip of the enrolled response, which must give the enrolled key; any other
outcome is a failure. Readings further away are run once per invocation,
untimed, by ``probe``: each must be refused. A wrong key there is
``MISCORRECTED``, a known defect of the program (the distance-3 extractor
cannot detect most double flips). It is reported as ``miscorrected_share``
and not counted as a failed operation; any other wrong outcome of a probe
fails the run.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import re
import shutil
from array import array
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

from srampuf import analytics, bitvec, cli, enroll, fuzzy, keygen, registry, simulate

from tracing import CHECK, SETUP

DEFAULT_SEED = 7
ENROLL_SAMPLES = 300
THRESHOLD = 4
THRESHOLDS = (1, 2, 3, 4, 5)
CONDITIONS = ("NTNA", "HTNA", "NTWA")
TEST_SEED0 = {"NTNA": 10_000, "HTNA": 20_000, "NTWA": 30_000}  # as tests/conftest.py
HELPER_SEED = 90210
LIVE_DEVICES = 4
REGISTRY_ENTRIES = 256
NATURAL_PER_CONDITION = 5
BLOCK = 16          # timed readings per block: 15 natural, 1 with one flip
BLOCKS_PER_DEVICE = 4
PROBES_PER_DEVICE = 64      # untimed two-flip readings per device, in reproduce
CLI_PROBES_PER_DEVICE = 4   # the same, as dump files, in cli
CLI_REPRODUCES_PER_GENKEY = 8
WARMUP_SAMPLES = 10

MISCORRECTED = "miscorrected"

EXIT_OUTCOMES = {0: "key", 3: "refused", 4: "wrong_key"}
_KEY_LINE = re.compile(r"key([12])\s*[=:]\s*([0-9a-fA-F]{32})")


def device_seed(seed: int, k: int) -> int:
    """Seed of the k-th device a workload draws; k = 0 is the workload seed."""
    return seed + 1000 * k


# --- independent oracles -------------------------------------------------

def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dumps_digest(samples) -> str:
    """SHA-256 over the packed bits of every sample, in order."""
    h = hashlib.sha256()
    for sample in samples:
        h.update(np.packbits(sample.bits).tobytes())
    return h.hexdigest()


def mask_digest(mask) -> str:
    return sha256_hex(",".join(str(int(p)) for p in mask.positions).encode())


def window_stack(samples, lo: int, hi: int) -> np.ndarray:
    """Samples x bits lo..hi-1, the data the oracles recompute from."""
    return np.stack([s.bits[lo:hi] for s in samples])


def run_depths(stable) -> list[int]:
    """Depth of each cell inside its run of stable cells (1 at either end of
    the run, 0 for an unstable cell), by a plain scan in both directions."""
    forward, run = [], 0
    for is_stable in stable:
        run = run + 1 if is_stable else 0
        forward.append(run)
    depths, run = [0] * len(forward), 0
    for i in range(len(forward) - 1, -1, -1):
        run = run + 1 if stable[i] else 0
        depths[i] = min(forward[i], run)
    return depths


def mask_oracle(stack: np.ndarray, mask, threshold: int) -> bool:
    """Every mask position has run-depth weight >= threshold in its window,
    recomputed from the raw samples."""
    stable = (stack == stack[0]).all(axis=0)
    length = mask.window_length
    for w in range(mask.num_windows):
        lo = mask.base_offset + w * length
        depths = run_depths(stable[lo:lo + length].tolist())
        inside = mask.positions[(mask.positions >= w * length) & (mask.positions < (w + 1) * length)]
        if any(depths[int(p) - w * length] < threshold for p in inside):
            return False
    return True


def masked_distance(raw, mask, reference_bits: np.ndarray) -> int:
    return int(np.count_nonzero(raw.bits[mask.base_offset + mask.positions] != reference_bits))


def judge(distance: int, outcome: str) -> str | None:
    """Failure category of a reproduction outcome ("key", "refused" or
    "wrong_key") at a masked distance, or None when the outcome is right.

    A reading within one flip must give the enrolled key. A reading further
    away is expected to be refused; it may give the enrolled key, and never
    a wrong key.
    """
    if outcome == "wrong_key":
        return MISCORRECTED if distance >= 2 else "wrong_key"
    if outcome == "refused" and distance <= 1:
        return "refused_within_radius"
    return None


# --- recorder ------------------------------------------------------------

class Recorder:
    """Latencies per operation kind, failures per category, output digests."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        # Compact arrays, so that their growth barely moves peak memory.
        self.latency_ns: dict[str, array] = defaultdict(lambda: array("q"))
        self.mid_s: dict[str, array] = defaultdict(lambda: array("d"))  # when each call ran
        self.failures: Counter[str] = Counter()
        self.notes: list[str] = []
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.probed = 0
        self.miscorrected = 0

    def timed(self, kind: str, function, *args, caught=None):
        """Time one call; returns (result, raised). An exception of type
        ``caught`` ends the call without a result; any other propagates."""
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id = self.attempted
            root = tracer.begin(f"op.{kind}")
        raised = False
        result = None
        start = perf_counter_ns()
        try:
            result = function(*args)
        except Exception as exc:
            if caught is None or not isinstance(exc, caught):
                raise
            raised = True
        elapsed = perf_counter_ns() - start
        if tracer is not None:
            tracer.end(root)
            tracer.op_id = CHECK
        self.latency_ns[kind].append(elapsed)
        self.mid_s[kind].append((start + elapsed / 2) / 1e9)
        self.attempted += 1
        return result, raised

    def outcome(self, failures: list[str]) -> None:
        """Close the last operation: it failed if any category is given."""
        for category in failures:
            self.failures[category] += 1
            if category != "check" and len(self.notes) < 20:
                self.notes.append(f"op {self.attempted - 1}: {category}")
        if failures:
            self.failed += 1
        if "wrong_key" in failures and self.tracer is not None:
            self.tracer.counts["fuzzy.wrong_key"] += 1

    def setup_check(self, name: str, ok: bool) -> None:
        """An output check on set-up results counts as one attempt."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures["check"] += 1
            self.notes.append(f"set-up check failed: {name}")

    def probe(self, failure: str | None) -> None:
        """Record one untimed reading beyond the correction radius. A wrong
        key is the known miscorrection and is counted apart; any other
        failure fails the run."""
        self.probed += 1
        if failure == MISCORRECTED:
            self.miscorrected += 1
        elif failure is not None:
            self.setup_check(f"probe {failure}", False)

    @property
    def miscorrected_share(self) -> float:
        return self.miscorrected / self.probed if self.probed else 0.0

    def check(self, name: str, ok: bool, failures: list[str]) -> None:
        if not ok:
            failures.append("check")
            if len(self.notes) < 20:
                self.notes.append(f"op {self.attempted - 1}: check failed: {name}")

    @property
    def correct(self) -> bool:
        return not self.failures


# --- workloads -----------------------------------------------------------

class Workload:
    name = ""
    primary = ""        # operation kind whose latency is reported

    def setup(self, seed: int, work: Path):
        raise NotImplementedError

    def check_setup(self, state, rec: Recorder) -> None:
        """Checks on set-up outputs, run once after the timed set-ups."""

    def op(self, state, i: int, rec: Recorder) -> None:
        raise NotImplementedError

    def probe(self, state, rec: Recorder) -> None:
        """Untimed readings beyond the correction radius, run once after the
        measurement."""


def enroll_one(seed: int, device_id: str, helper_seed: int):
    """Library enrollment of one fresh device, as a user runs it."""
    cal = simulate.Calibration()
    device = simulate.new_device(seed, calibration=cal, device_id=device_id)
    samples = simulate.collect_samples(device, cal.condition("NTNA"), ENROLL_SAMPLES)
    mask = enroll.build_mask(samples, THRESHOLD, device_id=device_id)
    helper, key = keygen.generate_key(samples[0], mask, helper_seed)
    return device, samples, mask, helper, key


@dataclasses.dataclass
class Enrolled:
    """One enrolled device, with what its checks need."""

    device: object
    mask: object
    helper: object
    key: object
    reference: np.ndarray      # masked enrollment response
    stack: np.ndarray          # enrollment samples over the mask's windows
    dumps: str                 # digest of the enrollment samples

    @classmethod
    def of(cls, device, samples, mask, helper, key):
        end = mask.base_offset + mask.num_windows * mask.window_length
        return cls(device, mask, helper, key, samples[0].bits[mask.base_offset + mask.positions],
                   window_stack(samples, 0, end), dumps_digest(samples))


def check_enrolled(rec: Recorder, label: str | None, item: Enrolled, failures=None) -> None:
    """Mask and key oracles; with a label, also record the output digests."""
    checks = {
        "mask_oracle": mask_oracle(item.stack, item.mask, THRESHOLD),
        "key_oracle": item.key.digest == hashlib.sha256(
            np.packbits(item.reference).tobytes()).digest(),
    }
    for name, ok in checks.items():
        if failures is None:
            rec.setup_check(f"{label}.{name}", ok)
        else:
            rec.check(name, ok, failures)
    if label is not None:
        rec.digests[f"{label}.dumps"] = item.dumps
        rec.digests[f"{label}.mask"] = mask_digest(item.mask)
        rec.digests[f"{label}.key"] = sha256_hex(item.key.digest)


def reading_pool(seed: int, k: int, item: Enrolled, blocks: int, probes: int):
    """Readings of one device, split at the correction radius.

    Returns (within, beyond), lists of (reading, masked distance). ``within``
    is ``blocks`` blocks of 16 readings that must give the enrolled key: 15
    natural readings cycling NTNA/HTNA/NTWA, then one with a flip injected at
    a masked position of a natural reading that matches the enrolled
    response. ``beyond`` is every natural reading more than one flip away,
    then ``probes`` readings with two flips injected the same way; each must
    be refused.
    """
    device, mask, reference = item.device, item.mask, item.reference
    cal = device.calibration
    # Sampled one by one so that every collect_samples span is a 300-sample set.
    natural = [simulate.power_up_sample(device, cal.condition(kind), TEST_SEED0[kind] + n)
               for n in range(NATURAL_PER_CONDITION) for kind in CONDITIONS]
    distances = [masked_distance(r, mask, reference) for r in natural]
    clean = next(r for r, d in zip(natural, distances) if d == 0)
    rng = np.random.default_rng([seed, k])

    def flipped(flips):
        positions = rng.choice(mask.positions, size=flips, replace=False)
        reading = clean.with_flips(mask.base_offset + positions)
        return reading, masked_distance(reading, mask, reference)

    near = [(r, d) for r, d in zip(natural, distances) if d <= 1]
    within, n = [], 0
    for _ in range(blocks):
        for _ in range(BLOCK - 1):
            within.append(near[n % len(near)])
            n += 1
        within.append(flipped(1))
    beyond = [(r, d) for r, d in zip(natural, distances) if d > 1]
    return within, beyond + [flipped(2) for _ in range(probes)]


class EnrollWorkload(Workload):
    """One operation enrolls a fresh device: new_device -> collect_samples(300)
    -> build_mask(T=4) -> generate_key."""

    name = "enroll"
    primary = "device"
    digest_devices = 2      # devices whose outputs are pinned at the default seed

    def setup(self, seed, work):
        # Warm-up on a throwaway short enrollment so lazy initialisation
        # is not charged to the first measured device.
        cal = simulate.Calibration()
        device = simulate.new_device(device_seed(seed, 999), calibration=cal)
        samples = [simulate.power_up_sample(device, cal.condition("NTNA"), n)
                   for n in range(WARMUP_SAMPLES)]
        mask = enroll.build_mask(samples, THRESHOLD)
        keygen.generate_key(samples[0], mask, HELPER_SEED)
        return {"seed": seed, "next": 0}

    def op(self, state, i, rec):
        n = state["next"]
        state["next"] += 1
        result, raised = rec.timed(
            "device", enroll_one, device_seed(state["seed"], n), f"device-{n}",
            HELPER_SEED + n, caught=enroll.InsufficientStableBitsError)
        if raised:
            rec.outcome(["insufficient_bits"])
            return
        samples = result[1]
        item = Enrolled.of(*result)
        failures = []
        check_enrolled(rec, f"device{n}" if n < self.digest_devices else None, item, failures)
        recovered = keygen.reproduce_key(samples[-1], item.mask, item.helper)
        rec.check("helper_round_trip", recovered.digest == item.key.digest, failures)
        rec.outcome(failures)


class CharacterizeWorkload(Workload):
    """One operation is a full characterization report over fixed samples."""

    name = "characterize"
    primary = "report"

    def setup(self, seed, work):
        cal = simulate.Calibration()
        device = simulate.new_device(device_seed(seed, 0), calibration=cal)
        return {
            "device": device,
            "enroll": simulate.collect_samples(device, cal.condition("NTNA"), ENROLL_SAMPLES),
            "test": {kind: simulate.collect_samples(device, cal.condition(kind),
                                                    ENROLL_SAMPLES, seed0=TEST_SEED0[kind])
                     for kind in CONDITIONS},
            "first": None,
        }

    @staticmethod
    def report(state):
        samples, test = state["enroll"], state["test"]
        blocks = analytics.block_stability(samples)
        sweep = analytics.threshold_sweep(samples, test, thresholds=THRESHOLDS)
        mask = enroll.build_mask(samples, THRESHOLD, device_id=state["device"].device_id)
        summary = analytics.flip_rate_summary(mask, keygen.apply_mask(samples[0], mask), test)
        flip_rate = analytics.window_flip_rate(samples)
        return (analytics.block_reports_to_csv(blocks), analytics.sweep_to_csv(sweep),
                mask, summary, flip_rate)

    def check_setup(self, state, rec):
        rec.digests["dumps"] = dumps_digest(
            state["enroll"] + [s for kind in CONDITIONS for s in state["test"][kind]])

    def op(self, state, i, rec):
        result, raised = rec.timed("report", self.report, state,
                                    caught=enroll.InsufficientStableBitsError)
        if raised:
            rec.outcome(["insufficient_bits"])
            return
        blocks_csv, sweep_csv, mask, summary, flip_rate = result
        outputs = {"stability_csv": sha256_hex(blocks_csv.encode()),
                   "sweep_csv": sha256_hex(sweep_csv.encode()),
                   "mask": mask_digest(mask),
                   "summary": sha256_hex(repr(sorted(
                       (c, s.sample_count, s.flipped_samples, s.max_flips)
                       for c, s in summary.items())).encode()),
                   "flip_rate": sha256_hex(repr(flip_rate).encode())}
        failures = []
        if state["first"] is None:
            state["first"] = outputs
            self._oracles(state, blocks_csv, sweep_csv, mask, summary, flip_rate, rec, failures)
            rec.digests.update(outputs)
        else:
            rec.check("same_report", outputs == state["first"], failures)
        rec.outcome(failures)

    @staticmethod
    def _oracles(state, blocks_csv, sweep_csv, mask, summary, flip_rate, rec, failures):
        samples = state["enroll"]
        length = len(samples[0])
        block = enroll.DEFAULT_WINDOW_LENGTH
        unstable = np.zeros(length, dtype=bool)
        for lo in range(0, length, block):
            chunk = window_stack(samples, lo, lo + block)
            unstable[lo:lo + chunk.shape[1]] = (chunk != chunk[0]).any(axis=0)
        rows = list(csv.DictReader(io.StringIO(blocks_csv)))
        rec.check("block_stable_counts", len(rows) == length // block and all(
            int(r["stable_count"]) == block - int(np.count_nonzero(
                unstable[int(r["block_index"]) * block:(int(r["block_index"]) + 1) * block]))
            for r in rows), failures)
        rec.check("window_flip_rate",
                  abs(flip_rate - np.count_nonzero(unstable) / length) < 1e-12, failures)
        selected = defaultdict(dict)
        for r in csv.DictReader(io.StringIO(sweep_csv)):
            selected[(r["condition"], int(r["block_index"]))][int(r["threshold"])] = \
                int(r["selected_count"])
        rec.check("sweep_monotone", bool(selected) and all(
            [by_t[t] for t in sorted(by_t)] == sorted(by_t.values(), reverse=True)
            for by_t in selected.values()), failures)
        depths = {b: np.array(run_depths((~unstable[b * block:(b + 1) * block]).tolist()))
                  for b in range(length // block)}
        rec.check("sweep_selected_counts", len(selected) == len(CONDITIONS) * len(depths) and all(
            by_t == {t: int(np.count_nonzero(depths[b] >= t)) for t in THRESHOLDS}
            for (_, b), by_t in selected.items()), failures)
        stack = window_stack(samples, 0, mask.base_offset + mask.num_windows * mask.window_length)
        rec.check("mask_oracle", mask_oracle(stack, mask, THRESHOLD), failures)
        reference = samples[0].bits[mask.base_offset + mask.positions]
        rec.check("flip_summary", all(
            s.flipped_samples == sum(masked_distance(r, mask, reference) > 0
                                     for r in state["test"][c])
            and s.max_flips == max(masked_distance(r, mask, reference)
                                   for r in state["test"][c])
            for c, s in summary.items()) and sorted(summary) == sorted(CONDITIONS), failures)


class ReproduceWorkload(Workload):
    """One operation is one reproduce_key on an in-memory reading."""

    name = "reproduce"
    primary = "key"

    def setup(self, seed, work):
        devices, pool, beyond = [], [], []
        for k in range(LIVE_DEVICES):
            item = Enrolled.of(*enroll_one(device_seed(seed, k), f"live-{k}", HELPER_SEED + k))
            devices.append(item)
            within, far = reading_pool(seed, k, item, BLOCKS_PER_DEVICE, PROBES_PER_DEVICE)
            pool += [(k, r, d) for r, d in within]
            beyond += [(k, r, d) for r, d in far]
        return {"devices": devices, "pool": pool, "beyond": beyond}

    def check_setup(self, state, rec):
        for k, item in enumerate(state["devices"]):
            check_enrolled(rec, f"live{k}", item)

    def op(self, state, i, rec):
        k, reading, distance = state["pool"][i % len(state["pool"])]
        item = state["devices"][k]
        key, refused = rec.timed("key", keygen.reproduce_key, reading, item.mask, item.helper,
                                 caught=fuzzy.ReproduceFailure)
        outcome = "refused" if refused else (
            "key" if key.digest == item.key.digest else "wrong_key")
        failure = judge(distance, outcome)
        rec.outcome([failure] if failure else [])

    def probe(self, state, rec):
        for k, reading, distance in state["beyond"]:
            item = state["devices"][k]
            try:
                key = keygen.reproduce_key(reading, item.mask, item.helper)
                outcome = "key" if key.digest == item.key.digest else "wrong_key"
            except fuzzy.ReproduceFailure:
                outcome = "refused"
            rec.probe(judge(distance, outcome))


class CliWorkload(Workload):
    """In-process ``srampuf`` commands against a 256-entry registry on disk.

    Each measured segment starts with one ``enroll`` from a 300-dump
    directory, then cycles ``genkey --debug`` and ``reproduce --debug`` at
    1:8 over dump files of the four live devices. The probe runs
    ``reproduce`` on two-flip dump files of each live device.
    """

    name = "cli"
    primary = "reproduce"

    def setup(self, seed, work):
        reg_dir, dumps_dir, readings = work / "registry", work / "enroll-dumps", work / "readings"
        for d in (reg_dir, dumps_dir, readings):
            d.mkdir(parents=True)
        registry_path = str(reg_dir / "registry.txt")
        state = {"registry": registry_path, "dumps": str(dumps_dir), "live": [],
                 "readings": [], "beyond": [], "enrolls": 0}
        for k in range(LIVE_DEVICES):
            device_id = f"live-{k}"
            device, samples, mask, helper, key = enroll_one(device_seed(seed, k), device_id,
                                                            HELPER_SEED + k)
            item = Enrolled.of(device, samples, mask, helper, key)
            if k == 0:
                for n, sample in enumerate(samples):
                    bitvec.save_dump(dumps_dir / f"sample-{n:05d}.hex", sample)
                filler_sample = samples[0]
            genkey_dump = str(readings / f"{device_id}-genkey.hex")
            bitvec.save_dump(genkey_dump, samples[0])
            within, beyond = reading_pool(seed, k, item, 1, CLI_PROBES_PER_DEVICE)
            for label, pool, files in (("near", within, state["readings"]),
                                       ("far", beyond, state["beyond"])):
                files.append([])
                for n, (reading, distance) in enumerate(pool):
                    path = str(readings / f"{device_id}-{label}-{n:02d}.hex")
                    bitvec.save_dump(path, reading)
                    files[-1].append((path, distance))
            state["live"].append((device_id, genkey_dump, item))
            del samples

        # live-0 is enrolled by the CLI; the other entries copy its entry's shape.
        exits = [self.run_cli(["enroll", "--dumps", str(dumps_dir), "--registry", registry_path,
                               "--device-id", "live-0", "--threshold", str(THRESHOLD)])[0]]
        book = registry.load_registry(registry_path)
        template = book.get("live-0")
        state["cli_mask0"] = enroll.load_mask(reg_dir / template.mask_file)
        for device_id, _, item in state["live"][1:]:
            enroll.save_mask(reg_dir / f"{device_id}.mask", item.mask)
            book.add(entry_like(template, device_id=device_id, mask_file=f"{device_id}.mask",
                                mask_sha256=registry.file_sha256(reg_dir / f"{device_id}.mask"),
                                num_windows=item.mask.num_windows))
        for f in range(REGISTRY_ENTRIES - LIVE_DEVICES):
            device_id = f"filler-{f:03d}"
            mask = dataclasses.replace(state["cli_mask0"], device_id=device_id)
            helper, _ = keygen.generate_key(filler_sample, mask, f)
            enroll.save_mask(reg_dir / f"{device_id}.mask", mask)
            fuzzy.save_helper(reg_dir / f"{device_id}.helper", helper)
            book.add(entry_like(
                template, device_id=device_id, mask_file=f"{device_id}.mask",
                mask_sha256=registry.file_sha256(reg_dir / f"{device_id}.mask"),
                helper_file=f"{device_id}.helper",
                helper_sha256=registry.file_sha256(reg_dir / f"{device_id}.helper")))
        registry.save_registry(registry_path, book)
        state["genkey_out"] = []
        for k in range(LIVE_DEVICES):
            code, out = self.run_cli(self.genkey_argv(state, k, HELPER_SEED + k))
            exits.append(code)
            state["genkey_out"].append(out)
        state["setup_exits"] = exits
        return state

    @staticmethod
    def run_cli(argv, rec=None, kind=""):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            if rec is None:
                code = cli.main(argv)
            else:
                code, _ = rec.timed(kind, cli.main, argv)
        return code, out.getvalue()

    @staticmethod
    def genkey_argv(state, k, seed):
        device_id, dump, _ = state["live"][k]
        return ["genkey", "--dump", dump, "--registry", state["registry"],
                "--device-id", device_id, "--seed", str(seed), "--debug"]

    @staticmethod
    def reproduce_argv(state, k, path):
        return ["reproduce", "--dump", path, "--registry", state["registry"],
                "--device-id", state["live"][k][0], "--debug"]

    @staticmethod
    def printed_key(out: str) -> bytes | None:
        halves = dict(_KEY_LINE.findall(out))
        if set(halves) != {"1", "2"}:
            return None
        return bytes.fromhex(halves["1"] + halves["2"])

    def check_setup(self, state, rec):
        rec.setup_check("setup_exit_codes", all(c == 0 for c in state["setup_exits"]))
        first = state["live"][0][2]
        rec.setup_check("cli_mask_equals_library_mask", np.array_equal(
            state["cli_mask0"].positions, first.mask.positions))
        rec.digests["dumps"] = first.dumps
        for k, (device_id, dump, item) in enumerate(state["live"]):
            rec.setup_check(f"{device_id}.mask_oracle", mask_oracle(item.stack, item.mask,
                                                                    THRESHOLD))
            rec.setup_check(f"{device_id}.genkey_key",
                            self.printed_key(state["genkey_out"][k]) == item.key.digest)
            rec.digests[f"live{k}.mask"] = mask_digest(item.mask)
            rec.digests[f"live{k}.key"] = sha256_hex(item.key.digest)

    def op(self, state, i, rec):
        failures = []
        if i == 0:
            device_id = f"bench-{state['enrolls']}"
            state["enrolls"] += 1
            code, _ = self.run_cli(["enroll", "--dumps", state["dumps"], "--registry",
                                    state["registry"], "--device-id", device_id,
                                    "--threshold", str(THRESHOLD)], rec, "enroll")
            if code != 0:
                rec.outcome(["exit_code"])
                return
            first = state["live"][0][2]
            mask = enroll.load_mask(Path(state["registry"]).parent / f"{device_id}.mask")
            rec.check("enroll_mask", np.array_equal(mask.positions, first.mask.positions)
                      and mask_oracle(first.stack, mask, THRESHOLD), failures)
            rec.outcome(failures)
            return
        cycle, step = divmod(i - 1, CLI_REPRODUCES_PER_GENKEY + 1)
        k = cycle % LIVE_DEVICES
        _, _, item = state["live"][k]
        if step == 0:
            code, out = self.run_cli(self.genkey_argv(state, k, HELPER_SEED + cycle),
                                     rec, "genkey")
            if code != 0:
                rec.outcome(["exit_code"])
                return
            rec.check("genkey_key", self.printed_key(out) == item.key.digest, failures)
            rec.outcome(failures)
            return
        half = (cycle // LIVE_DEVICES) % 2
        path, distance = state["readings"][k][half * CLI_REPRODUCES_PER_GENKEY + step - 1]
        code, _ = self.run_cli(self.reproduce_argv(state, k, path), rec, "reproduce")
        if code not in EXIT_OUTCOMES:
            rec.outcome(["exit_code"])
            return
        failure = judge(distance, EXIT_OUTCOMES[code])
        rec.outcome([failure] if failure else [])

    def probe(self, state, rec):
        for k, files in enumerate(state["beyond"]):
            for path, distance in files:
                code, _ = self.run_cli(self.reproduce_argv(state, k, path))
                rec.probe(judge(distance, EXIT_OUTCOMES[code])
                          if code in EXIT_OUTCOMES else "exit_code")


def entry_like(template, **fields):
    """A registry entry shaped like ``template``, with the given fields set
    where the entry type has them."""
    known = {f.name for f in dataclasses.fields(template)}
    return dataclasses.replace(template, **{k: v for k, v in fields.items() if k in known})


WORKLOADS = {w.name: w for w in (EnrollWorkload(), CharacterizeWorkload(),
                                 ReproduceWorkload(), CliWorkload())}


def measure(workload: Workload, state, seconds: float, rec: Recorder, speed) -> int:
    """Closed loop with one client for ``seconds``, and until the workload's
    main operation has run at least once, with reference bursts between
    operations; returns operations run."""
    speed.burst()
    deadline = perf_counter() + seconds
    i = 0
    while i == 0 or perf_counter() < deadline or not rec.latency_ns[workload.primary]:
        workload.op(state, i, rec)
        speed.maybe_burst()
        i += 1
    speed.burst()
    return i


def timed_setups(workload: Workload, seed: int, work: Path, reps: int, speed, tracer=None):
    """Set up ``reps`` times in fresh directories, with a reference burst
    before and after each; returns (state, [(seconds, midpoint)])."""
    times, state = [], None
    for rep in range(reps):
        state = None
        rep_dir = work / f"setup-{rep}"
        if rep_dir.exists():
            shutil.rmtree(rep_dir)
        rep_dir.mkdir(parents=True)
        speed.burst()
        if tracer is not None:
            tracer.op_id = SETUP
        start = perf_counter()
        state = workload.setup(seed, rep_dir)
        end = perf_counter()
        times.append((end - start, (start + end) / 2))
        if tracer is not None:
            tracer.op_id = CHECK
        speed.burst()
        if rep + 1 < reps:
            shutil.rmtree(rep_dir)
    return state, times
