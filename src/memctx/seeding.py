"""Counter-based RNG streams.

All randomness in the repo flows through Philox generators keyed by a
root seed plus an integer path, so every component draws from an
independent, platform-stable stream.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream"]


def stream(root_seed, *path) -> np.random.Generator:
    """Derive an independent Philox stream from (root_seed, *path).

    ``root_seed`` and any path element may themselves be (nested) tuples
    of ints, such as a previously split seed; they are flattened in order.
    """
    entropy = _flatten((root_seed, *path))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _flatten(seed) -> list:
    if isinstance(seed, (tuple, list)):
        return [i for part in seed for i in _flatten(part)]
    return [int(seed)]
