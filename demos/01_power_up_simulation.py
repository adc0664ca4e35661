"""Simulating SRAM power-up behavior.
=====================================

Every SRAM cell wakes up with a preferred value; some cells are rock solid,
others flicker between power cycles. This walk-through builds a simulated
device, takes repeated power-up samples, and looks at the statistics the
rest of the toolkit is built on.
"""

import numpy as np

from srampuf import (
    Calibration,
    block_stability,
    collect_samples,
    mark_stability,
    new_device,
    window_flip_rate,
)

# A device is a deterministic function of its seed, geometry, and calibration.
# 120,000 bits is the default geometry: 3,750 words of 32 bits.
cal = Calibration()
device = new_device(seed=7, calibration=cal)
print(f"device {device.device_id}: {device.num_bits} bits")
print(f"calibration: {cal.unstable_fraction:.1%} latent unstable cells, "
      f"cluster radius {cal.cluster_radius}, edge flip prob {cal.flip_prob_edge}")

# Collect a 300-sample enrollment run at normal temperature, no aging (NTNA).
print("\ncollecting 300 power-up samples at NTNA...")
samples = collect_samples(device, cal.condition("NTNA"), 300, seed0=0)

# Positions whose value never changed across all samples are "stable".
stable = mark_stability(samples)
print(f"stable positions: {stable.mean():.1%} "
      f"(so {1 - stable.mean():.1%} flipped at least once)")
print(f"flip rate vs the first sample: {window_flip_rate(samples):.1%}")

# Split the window into 1,216-bit blocks; the stable share per block should
# concentrate between 72% and 78%.
reports = block_stability(samples)
fractions = np.array([r.stable_fraction for r in reports])
in_band = np.mean((fractions >= 0.72) & (fractions <= 0.78))
print(f"\n{len(reports)} blocks of 1216 bits "
      f"(trailing {device.num_bits % 1216} bits unused)")
print(f"stable share: min {fractions.min():.3f}, median {np.median(fractions):.3f}, "
      f"max {fractions.max():.3f}; {in_band:.0%} inside [0.72, 0.78]")

# Stable cells cluster: a stable cell flanked by stable cells is the norm,
# which is what makes depth-based bit selection work.
def mean_run_length(marks):
    padded = np.concatenate(([0], marks.astype(np.int8), [0]))
    edges = np.diff(padded)
    return float(np.mean(np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)))

rng = np.random.default_rng(0)
shuffled = stable.copy()
rng.shuffle(shuffled)
print(f"\nmean stable-run length: {mean_run_length(stable):.2f} "
      f"vs {mean_run_length(shuffled):.2f} for a shuffled control")

# Heat and aging scale every cell's flip probability. Compare per-sample flip
# rates against a fixed reference sample.
reference = samples[0]
# A condition is its kind; the calibration holds each kind's multiplier.
print("\nper-sample flip rate vs reference (mean over 100 fresh samples):")
for kind, multiplier in cal.conditions().items():
    fresh = collect_samples(device, kind, 100, seed0=50_000)
    rate = np.mean([np.count_nonzero(s.bits != reference.bits) / len(s) for s in fresh])
    print(f"  {kind}: {rate:.2%} (noise multiplier {multiplier})")

# A calibration with no unstable cells gives a perfectly noiseless device;
# handy for pinning down pipeline behavior in tests.
quiet = new_device(seed=7, num_bits=2432, calibration=Calibration(unstable_fraction=0.0))
a, b = collect_samples(quiet, cal.condition("NTNA"), 2, seed0=0)
print(f"\nnoiseless calibration: two samples identical? {np.array_equal(a.bits, b.bits)}")
