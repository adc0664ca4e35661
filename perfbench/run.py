"""srampuf benchmark: one workload per invocation, one process, one thread.

    python3 perfbench/run.py --workload reproduce --seed 7 --seconds 15 --trace 0

Run from the root of a source tree; the package is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with the package untouched.
``--trace 1`` is the separate traced run: it times half of the run untraced
and half with every layer function wrapped in spans, and reports per-layer
metrics, the share of operation time under no layer span and the tracing
overhead. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread limits above)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 3
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"


def import_package():
    """Import srampuf from this tree's src/, and from nowhere else."""
    if not (SRC / "srampuf" / "__init__.py").is_file():
        sys.exit(f"perfbench: no srampuf package under {SRC}")
    sys.path.insert(0, str(SRC))
    import srampuf
    if Path(srampuf.__file__).resolve().parent != (SRC / "srampuf").resolve():
        sys.exit(f"perfbench: srampuf was imported from {srampuf.__file__}, not {SRC}")


def git_rev(root: Path) -> str | None:
    """Commit of the tree, read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "srampuf").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def figures(workload, rec, speed, setups, nominal: bool) -> dict:
    """Throughput, latencies of the main operation (ms) and median set-up
    time, either at nominal speed or as measured.

    Throughput is operations over the time spent inside them, so the
    benchmark's own checks and reference bursts do not count.
    """
    def seconds(kind):
        raw = np.frombuffer(rec.latency_ns[kind], dtype=np.int64) / 1e9
        return raw * speed.scale(np.frombuffer(rec.mid_s[kind])) if nominal else raw

    kinds = [kind for kind, values in rec.latency_ns.items() if values]
    busy = sum(float(seconds(kind).sum()) for kind in kinds)
    ops = sum(len(rec.latency_ns[kind]) for kind in kinds)
    setup = [t * float(speed.scale(mid)) if nominal else t for t, mid in setups]
    return {"ops_per_s": ops / busy,
            "primary_ms": seconds(workload.primary) * 1e3
            if workload.primary in kinds else np.array([]),
            "setup_s": statistics.median(setup)}


def end_to_end(nominal: dict, peak_rss_mb: float) -> dict:
    """The gated metrics: throughput, median latency of the main operation
    and set-up time at nominal speed, and peak memory."""
    return {
        "ops_per_s": {"value": nominal["ops_per_s"], "unit": "1/s"},
        "op_p50_ms": {"value": float(np.median(nominal["primary_ms"])), "unit": "ms"},
        "setup_s": {"value": nominal["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def named_lines(workload, rec, nominal: dict, measured: dict, metrics: dict) -> list[str]:
    """The workload's end-to-end metrics under their per-workload names, at
    nominal speed with the measured figure beside them."""
    def pair(key, scale=1.0, q=None):
        values = [nominal[key], measured[key]]
        if q is not None:
            n = len(nominal[key])
            if q > 50 and n * (100 - q) / 100 < 10:
                return f"n/a ({n} samples leave fewer than 10 beyond p{q})"
            values = [np.percentile(v, q) for v in values]
            return f"{values[0] * scale:.6g} (measured {values[1] * scale:.6g}, n={n})"
        return f"{values[0] * scale:.6g} (measured {values[1] * scale:.6g})"

    rate = ("ops_per_s", "1/s")
    names = {
        "enroll": [("enroll_devices_per_s", *rate)],
        "characterize": [("characterize_reports_per_s", *rate)],
        "reproduce": [("reproduce_keys_per_s", *rate),
                      ("reproduce_p50_us", "primary_ms", "us", 50),
                      ("reproduce_p99_us", "primary_ms", "us", 99)],
        "cli": [("cli_commands_per_s", *rate),
                ("cli_reproduce_p50_ms", "primary_ms", "ms", 50),
                ("cli_reproduce_p95_ms", "primary_ms", "ms", 95)],
    }[workload.name]
    lines = [f"metric {name} = "
             + pair(key, 1e3 if unit == "us" else 1.0, *rest) + f" {unit}"
             for name, key, unit, *rest in names]
    lines.append(f"metric setup_s = {pair('setup_s')} s")
    lines.append(f"metric peak_rss_mb = {metrics['peak_rss_mb']['value']:.6g} MB")
    lines.append(f"metric failed_share = {rec.failed / rec.attempted:.6g} ratio")
    if rec.probed:
        lines.append(f"metric miscorrected_share = {rec.miscorrected_share:.6g} ratio "
                     f"({rec.miscorrected} wrong keys from {rec.probed} readings beyond "
                     "one flip, untimed)")
    return lines


def check_digests(workload_name: str, seed: int, rec) -> None:
    """At the default seed, outputs must hash to the values pinned in
    expected_digests.json; other seeds rely on the oracles alone."""
    from workloads import DEFAULT_SEED
    if seed != DEFAULT_SEED:
        return
    expected = json.loads((HERE / "expected_digests.json").read_text()).get(workload_name, {})
    for name, digest in sorted(expected.items()):
        if name in rec.digests:
            rec.setup_check(f"digest {name}", rec.digests[name] == digest)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["enroll", "characterize", "reproduce", "cli"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_package()
    from speed import NOMINAL_BURST_S, Speedometer
    from tracing import Tracer, per_layer_metrics, uncovered_share
    from workloads import WORKLOADS, Recorder, measure, timed_setups

    workload = WORKLOADS[args.workload]
    speed = Speedometer()
    tracer = Tracer() if args.trace else None
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    rec = Recorder()
    try:
        if tracer is not None:
            tracer.install()
        state, setups = timed_setups(workload, args.seed, work, SETUP_REPS, speed, tracer)
        if tracer is not None:
            tracer.uninstall()
        workload.check_setup(state, rec)
        if tracer is None:
            measure(workload, state, args.seconds, rec, speed)
        else:
            measure(workload, state, args.seconds / 2, rec, speed)
            untraced = len(rec.latency_ns[workload.primary])
            rec.tracer = tracer
            tracer.install()
            traced_ops = measure(workload, state, args.seconds / 2, rec, speed)
            tracer.uninstall()
        workload.probe(state, rec)
        del state
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    # Read before the metrics are computed, whose arrays grow with the number
    # of operations and are not part of the workload.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_digests(args.workload, args.seed, rec)

    nominal = figures(workload, rec, speed, setups, nominal=True)
    measured = figures(workload, rec, speed, setups, nominal=False)
    if tracer is None:
        metrics = end_to_end(nominal, peak_rss_mb)
        lines = named_lines(workload, rec, nominal, measured, metrics)
    else:
        metrics = per_layer_metrics(tracer, traced_ops, speed.scale)
        primary = nominal["primary_ms"]
        overhead = (float(np.median(primary[untraced:]) / np.median(primary[:untraced])) - 1
                    if 0 < untraced < len(primary) else 0.0)
        for name, value in (("trace.uncovered_share",
                             uncovered_share(tracer.spans(), tracer.names)),
                            ("trace.overhead", overhead),
                            ("failed_share", rec.failed / rec.attempted),
                            ("miscorrected_share", rec.miscorrected_share)):
            metrics[name] = {"value": value, "unit": "ratio"}
        lines = [f"metric {name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_reps": SETUP_REPS,
        "setup_s": {"measured": [t for t, _ in setups],
                    "nominal": [t * float(speed.scale(mid)) for t, mid in setups]},
        "reference_burst_ms": {"nominal": NOMINAL_BURST_S * 1e3,
                               "mean": speed.mean_burst_s() * 1e3},
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "git_rev": git_rev(ROOT), "src_sha256": src_sha256(),
        "ops": {kind: len(v) for kind, v in rec.latency_ns.items() if v},
        "primary_ms": {key: {"n": len(f["primary_ms"]),
                             **{f"p{q}": float(np.percentile(f["primary_ms"], q))
                                for q in (50, 95, 99)}}
                       for key, f in (("nominal", nominal), ("measured", measured))
                       if f["primary_ms"].size},
        "ops_per_s": {"nominal": nominal["ops_per_s"], "measured": measured["ops_per_s"]},
        "attempted": rec.attempted, "failed": rec.failed,
        "failures": dict(rec.failures), "notes": rec.notes,
        "beyond_radius": {"readings": rec.probed, "miscorrected": rec.miscorrected},
        "digests": rec.digests, "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        np.savez(OUT_DIR / f"{args.workload}-spans.npz", names=np.array(tracer.names),
                 spans=tracer.spans())
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"git_rev={record['git_rev']} cpus={os.cpu_count()} "
          f"python={platform.python_version()} numpy={np.__version__}")
    print(f"ops {json.dumps(record['ops'])} failures {json.dumps(record['failures'])}")
    print("\n".join(lines))
    print(json.dumps({"correct": rec.correct, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
