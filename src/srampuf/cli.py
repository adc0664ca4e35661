"""Command-line front end tying simulation, enrollment, and key handling together.

Exit codes: 0 success; 2 usage or input error (bad arguments, malformed or
mismatched files, unknown device, a request too large to allocate); 3 key
reproduction failure (re-sample the device); 4 reproduced key does not match
the stored debug key hash; 5 not enough stable bits to fill a mask at the
requested threshold.
"""

from __future__ import annotations

import argparse
import ast
import errno
import functools
import hashlib
import os
import re
import sys

import numpy as np

from . import analytics, enroll, fuzzy, keygen, registry as reg, simulate
from ._kv import atomic_write_text, clip, format_kv_block, parse_kv_block, read_text, to_int
from .bitvec import WORD_BITS, SampleSet, load_dump, save_dump

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REPRODUCE_FAILURE = 3
EXIT_KEY_MISMATCH = 4
EXIT_INSUFFICIENT_BITS = 5


def _load_calibration(args) -> simulate.Calibration:
    """The ``--config`` settings, overridden by ``--set`` items read as lines of that file."""
    keys = simulate._CALIBRATION_TYPES
    settings = (parse_kv_block(read_text(args.config), keys=keys, what="calibration")
                if args.config else {})
    lines = [item.strip() for item in args.set or []]
    for item, line in zip(args.set or [], lines):
        if len(line.splitlines()) != 1 or line.startswith("#"):
            raise ValueError(f"--set expects key=value, got {clip(item)!r}")
    settings.update(parse_kv_block("\n".join(lines), keys=keys, what="--set"))
    return simulate.parse_calibration(format_kv_block(settings.items()))


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
    reg.check_device_id(args.device_id)
    samples = _load_dumps(args.dumps, minimum=2)
    # Built before any file is made, so a refused enrollment leaves none; the
    # registry writes it only once the device is known not to be enrolled
    mask = enroll.build_mask(samples, threshold=args.threshold, window_length=args.window_length,
                             base_offset=args.base_offset, device_id=args.device_id)
    mask_text = enroll.mask_to_text(mask)
    reg.update_entry(args.registry, args.device_id, lambda _: (mask_text, ""), create=True)
    print(f"enrolled {args.device_id}: {mask.target_len} positions from "
          f"{mask.num_windows} window(s) at threshold {mask.threshold}")
    return EXIT_OK


def _print_key(key: keygen.KeyMaterial) -> None:
    print(f"key1 = {key.key1.hex().upper()}")
    print(f"key2 = {key.key2.hex().upper()}")


def cmd_genkey(args) -> int:
    key = None

    def helper_text(mask_text: str) -> tuple[str, str]:
        nonlocal key
        mask = enroll.mask_from_text(mask_text)
        helper, key = keygen.generate_key(load_dump(args.dump), mask)
        return (fuzzy.helper_to_text(helper),
                hashlib.sha256(key.digest).hexdigest() if args.debug else "")

    helper_path = reg.update_entry(args.registry, args.device_id, helper_text)
    print(f"helper data written to {helper_path}")
    if args.debug:
        _print_key(key)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    entry = reg.read_entry(args.registry, args.device_id)
    mask = enroll.mask_from_text(reg.read_verified(args.registry, entry, "mask"))
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
            raise ValueError(f"--test-dumps expects CONDITION=DIR, got {clip(item)!r}")
        if condition in test_samples:
            raise ValueError(f"--test-dumps gives condition {clip(condition)!r} more than once")
        test_samples[condition] = _load_dumps(directory, minimum=1)
    thresholds = tuple(to_int(item, "--thresholds item") for item in args.thresholds.split(","))
    rows = analytics.threshold_sweep(enroll_samples, test_samples,
                                     thresholds=thresholds, block_size=args.block_size)
    _write_csv(analytics.sweep_to_csv(rows), args.out)
    return EXIT_OK


def cmd_flip(args) -> int:
    raw = load_dump(args.dump)
    if args.positions:
        positions = [to_int(item, "--positions item") for item in args.positions.split(",")]
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
        raise ValueError(f"{len(bad)} position(s) out of range for a {len(raw)}-bit dump, "
                         f"first {clip(str(bad[0]))!r}")
    save_dump(args.out, raw.with_flips(positions))
    print(f"flipped {len(positions)} bit(s): {','.join(str(p) for p in sorted(positions))}")
    return EXIT_OK


# The two argparse refusals that echo a whole argument, as argparse words them
_AMBIGUOUS = re.compile(r"(ambiguous option: )(.*)( could match .*)", re.DOTALL)
_IGNORED = re.compile(r"(argument \S+: ignored explicit argument )(.*)", re.DOTALL)


class _Parser(argparse.ArgumentParser):
    """Refuses by raising ValueError, which ``main`` prints as one line, and
    echoes at most 40 characters of an unknown command or argument, an
    ambiguous option or a value given to an option that takes none; reads
    ``type=int`` by :func:`to_int` and ``--opt=--`` as the value ``--``, as
    Python 3.13 does (3.10-3.12 give ``[]``)."""

    def error(self, message):
        if match := _AMBIGUOUS.fullmatch(message):
            message = f"{match[1]}{clip(match[2])}{match[3]}"
        elif match := _IGNORED.fullmatch(message):
            # argparse formats the value with %r
            message = f"{match[1]}{clip(ast.literal_eval(match[2]))!r}"
        raise ValueError(message)

    def parse_args(self, args=None, namespace=None):
        namespace, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized argument {clip(extras[0])!r}")
        return namespace

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            self.error(f"unknown {action.dest} {clip(value)!r}; "
                       f"expected one of {', '.join(action.choices)}")

    def _get_value(self, action, arg_string):
        if action.type is int:
            return to_int(arg_string, "/".join(action.option_strings))
        return super()._get_value(action, arg_string)

    def _get_values(self, action, arg_strings):
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared, so callers
    must not modify it; parsing keeps no state between calls, as every parse
    starts from a fresh namespace."""
    parser = _Parser(
        prog="srampuf",
        description="SRAM power-up PUF toolkit: simulate devices, enroll stable-bit "
                    "masks, and generate/reproduce keys via a SEC-DED syndrome "
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
                   help="one calibration file line; overrides --config (repeatable, once per key)")
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
    p.add_argument("--seed", type=int, help="ignored: no value is drawn; "
                                            "kept until perfbench stops passing it")
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
    """Run one command; only ``--help`` leaves by SystemExit, any refusal is one line."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except fuzzy.ReproduceFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REPRODUCE_FAILURE
    except enroll.InsufficientStableBitsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT_BITS
    except (ValueError, OSError, MemoryError) as exc:
        if getattr(exc, "errno", None) == errno.ENAMETOOLONG and isinstance(exc.filename, str):
            exc.filename = clip(exc.filename)   # no file has this name: echo it as input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
