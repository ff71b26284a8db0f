"""Run configuration: a strict JSON document with nested blocks.

Unknown keys are rejected with their field path; numbers must be finite
(``NaN`` and ``Infinity`` are refused) and never ``true``/``false``;
cross-field constraints (the divisibility of the desk geometry and of the
DiT's width, and a condition schedule that starts at frame 0 with codes
inside the vocabulary) are validated before any compute starts.
"""

from __future__ import annotations

import json
import math

from .compressor import VARIANTS

__all__ = ["ConfigError", "load_config", "validate_config", "DEFAULTS"]


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "seed": 0,
    "dataset": {
        "seed": 100,
        "size": 48,
        "vocab": 16,
        "static": False,
    },
    "encoder": {
        "rate": [4, 4, 2],
        "variant": "dual",
        "chunk_len": 8,
    },
    "dit": {
        "inner_dim": 64,
        "blocks": 4,
        "heads": 4,
        "lora_rank": 0,
    },
    "diffusion": {
        # training timesteps concentrate near t=1: memory is only consulted
        # when the noisy clip carries little information, so high-noise
        # coverage is what drives context usage during retrieval training
        "mu": 2.0,
        "sigma": 0.8,
        "shift": 1.0,
        "sample_steps": 8,
    },
    "training": {
        "steps": 2000,
        "batch": 4,
        "lr": 3e-3,
        "omega_policy": "uniform",
        "freeze_encoder": False,
        "log_every": 50,
        "eval_every": 0,
    },
    "rollout": {
        "n_steps": 4,
        "window_frames": 0,
        "condition_schedule": [[0, 0]],
        "seed_scene": 0,
    },
    "output": {
        "dir": "runs/default",
    },
}

# type(v) is int, not isinstance: JSON true/false load as bool, a subclass of int
_VALIDATORS = {
    "seed": lambda v: type(v) is int,
    "dataset.seed": lambda v: type(v) is int,
    "dataset.size": lambda v: type(v) is int and v >= 1,
    "dataset.vocab": lambda v: type(v) is int and v >= 1,
    "dataset.static": lambda v: isinstance(v, bool),
    "encoder.rate": lambda v: (
        isinstance(v, list) and len(v) == 3 and all(type(r) is int and r >= 1 for r in v)
    ),
    "encoder.variant": lambda v: v in VARIANTS,
    "encoder.chunk_len": lambda v: type(v) is int and v >= 1,
    "dit.inner_dim": lambda v: type(v) is int and v >= 8,
    "dit.blocks": lambda v: type(v) is int and v >= 1,
    "dit.heads": lambda v: type(v) is int and v >= 1,
    "dit.lora_rank": lambda v: type(v) is int and v >= 0,
    "diffusion.mu": lambda v: type(v) in (int, float) and math.isfinite(v),
    "diffusion.sigma": lambda v: type(v) in (int, float) and 0 < v < math.inf,
    "diffusion.shift": lambda v: type(v) in (int, float) and 0 < v < math.inf,
    "diffusion.sample_steps": lambda v: type(v) is int and v >= 1,
    "training.steps": lambda v: type(v) is int and v >= 1,
    "training.batch": lambda v: type(v) is int and v >= 1,
    "training.lr": lambda v: type(v) in (int, float) and 0 < v < math.inf,
    "training.omega_policy": lambda v: v in ("uniform", "fixed-endpoints"),
    "training.freeze_encoder": lambda v: isinstance(v, bool),
    "training.log_every": lambda v: type(v) is int and v >= 1,
    "training.eval_every": lambda v: type(v) is int and v >= 0,
    "rollout.n_steps": lambda v: type(v) is int and v >= 1,
    "rollout.window_frames": lambda v: type(v) is int and v >= 0,
    "rollout.condition_schedule": lambda v: (
        isinstance(v, list)
        and len(v) >= 1
        and all(isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e) for e in v)
    ),
    "rollout.seed_scene": lambda v: type(v) is int,
    "output.dir": lambda v: isinstance(v, str) and v,
}


def _merge(defaults, user, path=""):
    out = {}
    for key, dval in defaults.items():
        here = f"{path}{key}"
        if key in user:
            uval = user[key]
            if isinstance(dval, dict):
                if not isinstance(uval, dict):
                    raise ConfigError(f"field {here} must be a block, got {type(uval).__name__}")
                out[key] = _merge(dval, uval, here + ".")
            else:
                out[key] = uval
        else:
            out[key] = json.loads(json.dumps(dval)) if isinstance(dval, (dict, list)) else dval
    unknown = set(user) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config key {path + sorted(unknown)[0]!r}")
    return out


def validate_config(user: dict) -> dict:
    """Merge onto defaults, reject unknown keys, check fields and divisibility."""
    cfg = _merge(DEFAULTS, user)
    for path, check in _VALIDATORS.items():
        blocks = path.split(".")
        v = cfg
        for b in blocks:
            v = v[b]
        if not check(v):
            raise ConfigError(f"invalid value for {path}: {v!r}")
    r_h, r_w, r_t = cfg["encoder"]["rate"]
    for name, r in (("r_h", r_h), ("r_w", r_w)):
        if r & (r - 1):
            raise ConfigError(f"encoder.rate {name} must be a power of two, got {r}")
    if cfg["encoder"]["chunk_len"] % r_t:
        raise ConfigError(
            f"encoder.chunk_len {cfg['encoder']['chunk_len']} not divisible by temporal rate {r_t}"
        )
    # desk latent geometry must divide cleanly
    from .data import DESK_LATENT

    t, h, w, _ = DESK_LATENT
    if t % cfg["encoder"]["chunk_len"]:
        raise ConfigError(f"latent length {t} not divisible by chunk_len {cfg['encoder']['chunk_len']}")
    if h % r_h or w % r_w:
        raise ConfigError(f"latent extents ({h}, {w}) not divisible by spatial rates ({r_h}, {r_w})")
    # attention splits the width across heads, and the rotary positions split each head's
    # feature pairs into a frame half and row and column quarters
    dim, heads = cfg["dit"]["inner_dim"], cfg["dit"]["heads"]
    if dim % heads or (dim // heads) % 8:
        raise ConfigError(f"dit.inner_dim {dim} must be dit.heads {heads} times a multiple of 8")
    schedule = cfg["rollout"]["condition_schedule"]
    first = min(start for start, _ in schedule)
    if first != 0:
        raise ConfigError(f"rollout.condition_schedule must start at frame 0, its earliest entry is at {first}")
    vocab = cfg["dataset"]["vocab"]
    for _, code in schedule:
        if not 0 <= code < vocab:
            raise ConfigError(f"rollout.condition_schedule code {code} is outside [0, {vocab})")
    return cfg


def load_config(path: str) -> dict:
    try:
        with open(path) as f:
            user = json.load(f)
    except ValueError as e:  # JSONDecodeError, or UnicodeDecodeError for bytes that are not text
        raise ConfigError(f"config {path} is not valid JSON: {e}") from None
    if not isinstance(user, dict):
        raise ConfigError("config root must be an object")
    return validate_config(user)
