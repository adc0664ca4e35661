"""Command-line front end tying simulation, enrollment, and key handling together.

Exit codes: 0 success; 2 usage or input error (bad arguments, malformed or
mismatched files, unknown device, a request too large to allocate); 3 key
reproduction failure (re-sample the device); 4 reproduced key does not match
the stored debug key hash; 5 not enough stable bits to fill a mask at the
requested threshold.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import os
import re
import sys
from datetime import datetime, timezone

import numpy as np

from . import analytics, enroll, fuzzy, keygen, registry as reg, simulate
from ._kv import atomic_write_text, format_kv_block
from .bitvec import WORD_BITS, SampleSet, load_dump, save_dump

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REPRODUCE_FAILURE = 3
EXIT_KEY_MISMATCH = 4
EXIT_INSUFFICIENT_BITS = 5

_DEVICE_ID_RE = re.compile(r"^[A-Za-z0-9._-]+$")


def _load_calibration(args) -> simulate.Calibration:
    cal = simulate.load_calibration(args.config) if args.config else simulate.Calibration()
    merged = {key: str(value) for key, value in dataclasses.asdict(cal).items()}
    for item in args.set or []:
        key, sep, value = (part.strip() for part in item.partition("="))
        if not sep:
            raise ValueError(f"--set expects key=value, got {item!r}")
        if key not in merged:
            raise ValueError(f"unknown calibration key {key!r}")
        merged[key] = value
    return simulate.parse_calibration(format_kv_block(merged.items()))


def _load_dumps(directory: str, minimum: int = 1) -> SampleSet:
    """The ``*.hex`` dumps in ``directory``, in name order, as one SampleSet
    filled row by row; dumps of differing lengths are refused, and names that
    start with ``.`` (a temp file left by an interrupted write) are skipped."""
    if not os.path.isdir(directory):
        raise ValueError(f"not a directory: {directory}")
    names = sorted(n for n in os.listdir(directory) if n.endswith(".hex") and n[0] != ".")
    if len(names) < minimum:
        raise ValueError(f"{directory} holds {len(names)} dump(s); need at least {minimum}")
    first = load_dump(os.path.join(directory, names[0]))
    packed = np.empty((len(names), first.packed.size), dtype=np.uint8)
    packed[0] = first.packed
    for row, name in enumerate(names[1:], start=1):
        dump = load_dump(os.path.join(directory, name))
        if len(dump) != len(first):
            raise ValueError(f"{directory}: {name} holds {len(dump)} bits, but {names[0]} "
                             f"holds {len(first)}")
        packed[row] = dump.packed
    return SampleSet(packed, len(first))


def _int_list(flag: str, text: str) -> list[int]:
    try:
        return [int(item) for item in text.split(",")]
    except ValueError as exc:      # int() names the bad item
        raise ValueError(f"{flag}: {exc}") from None


def _write_csv(text: str, out: str | None) -> None:
    if out:
        atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


def cmd_simulate(args) -> int:
    if args.num_bits % WORD_BITS:
        raise ValueError(f"--num-bits {args.num_bits} is not a multiple of {WORD_BITS}: "
                         f"a dump holds whole {WORD_BITS}-bit words")
    cal = _load_calibration(args)
    condition = cal.condition(args.condition)
    device = simulate.new_device(args.device_seed, num_bits=args.num_bits, calibration=cal)
    samples = simulate.collect_samples(device, condition, args.count, args.seed0)
    os.makedirs(args.out_dir, exist_ok=True)
    for seed, sample in enumerate(samples, start=args.seed0):
        save_dump(os.path.join(args.out_dir, f"sample-{seed:05d}.hex"), sample)
    print(f"wrote {args.count} {args.condition} dump(s) of {args.num_bits} bits to {args.out_dir}")
    return EXIT_OK


def cmd_enroll(args) -> int:
    if not _DEVICE_ID_RE.match(args.device_id):
        raise ValueError(f"device id {args.device_id!r} must match {_DEVICE_ID_RE.pattern}")
    samples = _load_dumps(args.dumps, minimum=2)
    mask_name = f"{args.device_id}.mask"
    mask_path = reg.sibling_path(args.registry, mask_name)
    os.makedirs(os.path.dirname(mask_path), exist_ok=True)
    with reg.locked(args.registry):
        if os.path.exists(args.registry):
            registry = reg.load_registry(args.registry)
        else:
            registry = reg.Registry()
        if args.device_id in registry.entries:
            raise ValueError(f"device {args.device_id!r} is already enrolled")

        mask = enroll.build_mask(
            samples,
            threshold=args.threshold,
            window_length=args.window_length,
            base_offset=args.base_offset,
            device_id=args.device_id,
        )
        enroll.save_mask(mask_path, mask)
        registry.add(reg.RegistryEntry(
            device_id=args.device_id,
            mask_file=mask_name,
            mask_sha256=mask.fingerprint,
            created=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        ))
        reg.save_registry(args.registry, registry)
    print(f"enrolled {args.device_id}: {mask.target_len} positions from "
          f"{mask.num_windows} window(s) at threshold {mask.threshold}")
    return EXIT_OK


def _load_enrolled_mask(registry_path: str, device_id: str):
    registry = reg.load_registry(registry_path)
    entry = registry.get(device_id)
    mask = enroll.mask_from_text(reg.read_verified(registry_path, entry, "mask"))
    return registry, entry, mask


def _print_key(key: keygen.KeyMaterial) -> None:
    print(f"key1 = {key.key1.hex().upper()}")
    print(f"key2 = {key.key2.hex().upper()}")


def cmd_genkey(args) -> int:
    helper_name = f"{args.device_id}.helper"
    helper_path = reg.sibling_path(args.registry, helper_name)
    with reg.locked(args.registry):
        registry, entry, mask = _load_enrolled_mask(args.registry, args.device_id)
        raw = load_dump(args.dump)
        helper, key = keygen.generate_key(raw, mask, args.seed)
        helper_text = fuzzy.helper_to_text(helper)
        atomic_write_text(helper_path, helper_text)
        helper_sha = hashlib.sha256(helper_text.encode("ascii")).hexdigest()
        key_sha = hashlib.sha256(key.digest).hexdigest() if args.debug else ""
        registry.entries[args.device_id] = dataclasses.replace(
            entry, helper_file=helper_name, helper_sha256=helper_sha, key_sha256=key_sha)
        reg.save_registry(args.registry, registry)
    print(f"helper data written to {helper_path}")
    if args.debug:
        _print_key(key)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    _, entry, mask = _load_enrolled_mask(args.registry, args.device_id)
    if not entry.helper_file:
        raise ValueError(f"device {args.device_id!r} has no helper data yet; run genkey first")
    helper = fuzzy.helper_from_text(reg.read_verified(args.registry, entry, "helper"))
    raw = load_dump(args.dump)
    key = keygen.reproduce_key(raw, mask, helper)
    print(f"key reproduced for {args.device_id}")
    if args.debug:
        _print_key(key)
        if entry.key_sha256:
            actual = hashlib.sha256(key.digest).hexdigest()
            if actual != entry.key_sha256:
                print("reproduced key does not match the stored key hash", file=sys.stderr)
                return EXIT_KEY_MISMATCH
            print("key hash matches the enrolled key")
    return EXIT_OK


def cmd_stats(args) -> int:
    samples = _load_dumps(args.dumps, minimum=2)
    reports = analytics.block_stability(samples, block_size=args.block_size)
    skipped = samples.length % args.block_size
    _write_csv(analytics.block_reports_to_csv(reports), args.out)
    if skipped:
        print(f"note: {skipped} trailing bits did not fill a block and were skipped",
              file=sys.stderr)
    return EXIT_OK


def cmd_sweep(args) -> int:
    enroll_samples = _load_dumps(args.enroll_dumps, minimum=2)
    test_samples = {}
    for item in args.test_dumps:
        condition, sep, directory = item.partition("=")
        if not sep:
            raise ValueError(f"--test-dumps expects CONDITION=DIR, got {item!r}")
        if condition in test_samples:
            raise ValueError(f"--test-dumps gives condition {condition!r} more than once")
        test_samples[condition] = _load_dumps(directory, minimum=1)
    thresholds = tuple(_int_list("--thresholds", args.thresholds))
    rows = analytics.threshold_sweep(enroll_samples, test_samples,
                                     thresholds=thresholds, block_size=args.block_size)
    _write_csv(analytics.sweep_to_csv(rows), args.out)
    return EXIT_OK


def cmd_flip(args) -> int:
    raw = load_dump(args.dump)
    if args.positions:
        positions = _int_list("--positions", args.positions)
    elif args.count is not None:
        if args.seed is None:
            raise ValueError("--count needs --seed for a reproducible choice")
        if args.mask:
            mask = enroll.load_mask(args.mask)
            pool = mask.base_offset + mask.positions
        else:
            pool = np.arange(len(raw))
        if not 0 <= args.count <= pool.size:
            raise ValueError(f"--count {args.count} is outside 0..{pool.size}, "
                             f"the number of bits to choose from")
        rng = np.random.default_rng(args.seed)
        positions = pool[rng.choice(pool.size, size=args.count, replace=False)].tolist()
    else:
        raise ValueError("give --positions or --count")
    bad = [p for p in positions if not 0 <= p < len(raw)]
    if bad:
        raise ValueError(f"positions out of range for a {len(raw)}-bit dump: {bad}")
    save_dump(args.out, raw.with_flips(positions))
    print(f"flipped {len(positions)} bit(s): {','.join(str(p) for p in sorted(positions))}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared, so callers
    must not modify it; parsing keeps no state between calls, as every parse
    starts from a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="srampuf",
        description="SRAM power-up PUF toolkit: simulate devices, enroll stable-bit "
                    "masks, and generate/reproduce keys via a SEC-DED code-offset "
                    "fuzzy extractor.",
        epilog="exit codes: 0 ok, 2 usage/input error, 3 reproduce failure, "
               "4 debug key-hash mismatch, 5 insufficient stable bits",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    device, dump, csv = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    device.add_argument("--registry", required=True)
    device.add_argument("--device-id", required=True)
    dump.add_argument("--dump", required=True)
    csv.add_argument("--block-size", type=int, default=enroll.DEFAULT_WINDOW_LENGTH)
    csv.add_argument("--out", help="CSV path (stdout when omitted)")

    p = sub.add_parser("simulate", help="write power-up dumps for a simulated device")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--device-seed", type=int, required=True)
    p.add_argument("--condition", default="NTNA",
                   help=f"one of {', '.join(simulate.Calibration().conditions())}")
    p.add_argument("-n", "--count", type=int, default=300)
    p.add_argument("--num-bits", type=int, default=simulate.DEFAULT_NUM_BITS)
    p.add_argument("--seed0", type=int, default=0, help="seed of the first sample")
    p.add_argument("--config", help="calibration file (key = value lines)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one calibration value (repeatable)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("enroll", parents=[device],
                       help="build a stable-bit mask from dumps and register it")
    p.add_argument("--dumps", required=True, help="directory of enrollment dumps (*.hex)")
    p.add_argument("--threshold", type=int, default=4)
    p.add_argument("--window-length", type=int, default=enroll.DEFAULT_WINDOW_LENGTH)
    p.add_argument("--base-offset", type=int, default=0)
    p.set_defaults(func=cmd_enroll)

    p = sub.add_parser("genkey", parents=[dump, device],
                       help="generate helper data (and keys) from a dump")
    p.add_argument("--seed", type=int, help="reproducible codeword seed, for tests only; "
                                            "the OS CSPRNG draws the codeword when omitted")
    p.add_argument("--debug", action="store_true",
                   help="print the keys and store a key hash for verification")
    p.set_defaults(func=cmd_genkey)

    p = sub.add_parser("reproduce", parents=[dump, device],
                       help="reproduce the enrolled key from a fresh dump")
    p.add_argument("--debug", action="store_true", help="print the keys")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("stats", parents=[csv], help="per-block stability statistics as CSV")
    p.add_argument("--dumps", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("sweep", parents=[csv],
                       help="threshold sweep with per-condition flip tallies as CSV")
    p.add_argument("--enroll-dumps", required=True)
    p.add_argument("--test-dumps", action="append", required=True, metavar="CONDITION=DIR")
    p.add_argument("--thresholds", default=",".join(map(str, analytics.DEFAULT_THRESHOLDS)))
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("flip", parents=[dump],
                       help="copy a dump with chosen bits inverted (test tool)")
    p.add_argument("--out", required=True)
    p.add_argument("--positions", help="comma-separated global bit indices")
    p.add_argument("--count", type=int, help="flip this many randomly chosen bits")
    p.add_argument("--seed", type=int, help="RNG seed for --count")
    p.add_argument("--mask", help="restrict --count choices to this mask's positions")
    p.set_defaults(func=cmd_flip)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except fuzzy.ReproduceFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REPRODUCE_FAILURE
    except enroll.InsufficientStableBitsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT_BITS
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
