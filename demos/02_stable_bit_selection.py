"""Selecting the most stable bits.
==================================

Raw power-up responses are too noisy to hash directly, so enrollment picks
out positions that are not just stable but surrounded by stable neighbors.
This script walks the three stages: mark stability, weight positions by
cluster depth, and filter by a threshold.
"""

import numpy as np

from srampuf import (
    BitVector,
    Calibration,
    build_mask,
    collect_samples,
    mark_stability,
    new_device,
    weight_positions,
)

# Stage 1: stability marks. A toy window shows the idea: positions that ever
# flip across the samples are U, the rest S.
toy = [BitVector(row) for row in np.array([[0, 1, 1, 0, 0, 1, 1, 1, 0, 1],
                                           [0, 1, 0, 0, 0, 1, 1, 1, 0, 1],
                                           [0, 1, 1, 0, 0, 1, 1, 1, 0, 0]])]
marks = mark_stability(toy)
print("toy samples:", ", ".join("".join(map(str, s.bits)) for s in toy))
print("stability:  ", "".join("S" if s else "U" for s in marks))

# Stage 2: weights. Inside each run of S cells the weight counts the distance
# to the nearest unstable neighbor (or window edge): ends weigh 1, a run of
# five peaks at 3 in the middle.
demo = np.array([c == "S" for c in "USSSSSUUSSSSU"])
weights = weight_positions(demo)
print("\npattern:", "USSSSSUUSSSSU")
print("weights:", "".join(str(w) for w in weights))

# Stage 3: thresholding. Higher thresholds keep only cells deep inside large
# stable clusters. On a real-size device the counts fall quickly.
cal = Calibration()
device = new_device(seed=7, calibration=cal)
print("\nenrolling device from 300 NTNA samples...")
samples = collect_samples(device, cal.condition("NTNA"), 300, seed0=0)

# mark_stability marks every bit; a slice of the marks picks out one block.
marks = mark_stability(samples)
window_weights = weight_positions(marks[:1216])
print("positions selected in the first 1216-bit block, by threshold:")
for threshold in range(1, 7):
    chosen = np.count_nonzero(window_weights >= threshold)
    print(f"  T={threshold}: {chosen:4d}")

# Per-block averages over the whole device tell the same story. The same
# marks, reshaped to one row per block, end their runs at block edges.
num_blocks = device.num_bits // 1216
block_weights = weight_positions(marks[:num_blocks * 1216].reshape(num_blocks, 1216))
print(f"\nmean selected positions per block over all {num_blocks} blocks:")
for threshold in range(1, 7):
    total = np.count_nonzero(block_weights >= threshold)
    print(f"  T={threshold}: {total / num_blocks:7.2f}")

# A mask takes the first 128 qualifying positions, spilling into the next
# 1216-bit window when one block does not yield enough.
mask = build_mask(samples, threshold=4, device_id=device.device_id)
print(f"\nmask at T=4: {mask.target_len} positions from {mask.num_windows} window(s), "
      f"first five: {[int(p) for p in mask.positions[:5]]}")

mask5 = build_mask(samples, threshold=5, device_id=device.device_id)
print(f"mask at T=5: {mask5.target_len} positions from {mask5.num_windows} window(s)")
