"""SRAM power-up PUF toolkit.

Simulates noisy SRAM power-up behavior, enrolls devices by selecting highly
stable bit positions, and turns masked responses into stable 256-bit keys
through a SEC-DED code-offset fuzzy extractor and SHA-256.
"""

from .analytics import (
    BlockReport,
    FlipRateSummary,
    SweepRow,
    block_stability,
    flip_rate_summary,
    threshold_sweep,
    window_flip_rate,
)
from .bitvec import (
    BitVector,
    format_hex_dump,
    load_dump,
    parse_hex_dump,
    save_dump,
)
from .enroll import (
    InsufficientStableBitsError,
    Mask,
    build_mask,
    load_mask,
    mark_stability,
    mask_fingerprint,
    save_mask,
    weight_positions,
)
from .fuzzy import (
    HelperData,
    ReproduceFailure,
    generate,
    load_helper,
    reproduce,
    save_helper,
)
from .keygen import KeyMaterial, apply_mask, derive_key, generate_key, reproduce_key
from .registry import Registry, RegistryEntry, load_registry, save_registry
from .simulate import (
    Calibration,
    DeviceModel,
    collect_samples,
    load_calibration,
    new_device,
    power_up_sample,
)

__version__ = "0.1.0"
