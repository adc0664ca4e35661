"""End to end: from power-up noise to a stable 256-bit key.
===========================================================

The whole pipeline in one sitting: enroll a simulated device, publish its
helper data (the response's 8-bit syndrome, bound to the mask), then
reproduce the key from fresh noisy readings under normal, heated, and aged
conditions. The same flow is available from the command line via
`srampuf simulate / enroll / genkey / reproduce`.
"""

import numpy as np

from srampuf import (
    Calibration,
    apply_mask,
    build_mask,
    collect_samples,
    generate_key,
    new_device,
    reproduce_key,
)
from srampuf.fuzzy import ReproduceFailure, helper_to_text

cal = Calibration()
device = new_device(seed=2029, calibration=cal)

# Enrollment (server side): sample the device many times, keep the 128
# deepest-cluster stable positions.
print("enrolling from 300 NTNA samples at threshold 4...")
enrollment = collect_samples(device, cal.condition("NTNA"), 300, seed0=0)
mask = build_mask(enrollment, threshold=4, device_id=device.device_id)
print(f"mask: {mask.target_len} positions over {mask.num_windows} window(s)")

# Helper-data generation: one dump in, public helper data and the keys out.
# Nothing is drawn, so the same dump always gives the same helper.
helper, key = generate_key(enrollment[0], mask)
print(f"key1 = {key.key1.hex().upper()}")
print(f"key2 = {key.key2.hex().upper()}")
# The helper file holds only what reproduction reads: the fingerprint of the
# mask it was made through, and the response's syndrome.
print("helper file:\n" + helper_to_text(helper), end="")

# Reproduction (device side): fresh power-ups, mask, helper, hash. Count how
# often the derived key matches the enrolled one. Responses are 16 bytes, so
# the masked flips are the set bits of their XOR.
reference = int.from_bytes(apply_mask(enrollment[0], mask), "big")
for kind, seed0 in (("NTNA", 10_000), ("HTNA", 20_000), ("NTWA", 30_000)):
    matches = 0
    flips_seen = []
    failures = 0
    for sample in collect_samples(device, cal.condition(kind), 300, seed0=seed0):
        response = int.from_bytes(apply_mask(sample, mask), "big")
        flips_seen.append((response ^ reference).bit_count())
        try:
            if reproduce_key(sample, mask, helper).digest == key.digest:
                matches += 1
        except ReproduceFailure:
            failures += 1
    print(f"{kind}: {matches}/300 keys reproduced, worst masked flips "
          f"{max(flips_seen)}, refusals {failures}")

# Inject faults by hand to see the error-correction boundary: one flipped
# masked bit is transparent, two is not.
raw = enrollment[0]
one_flip = raw.with_flips([int(mask.positions[64])])
print(f"\n1 masked flip  -> same key? "
      f"{reproduce_key(one_flip, mask, helper).digest == key.digest}")
two_flips = raw.with_flips([int(mask.positions[0]), int(mask.positions[1])])
try:
    same = reproduce_key(two_flips, mask, helper).digest == key.digest
    print(f"2 masked flips -> same key? {same} (miscorrected, caught by a key check)")
except ReproduceFailure as exc:
    print(f"2 masked flips -> refused: {exc}")

# Noise outside the mask never matters.
unmasked = np.setdiff1d(np.arange(5000), mask.base_offset + mask.positions)
noisy = raw.with_flips(unmasked)
print(f"{unmasked.size} unmasked flips -> same key? "
      f"{reproduce_key(noisy, mask, helper).digest == key.digest}")
