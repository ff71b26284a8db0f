"""Run configuration: a strict JSON document with nested blocks.

Each field is checked on its own: unknown keys are rejected with their
field path, numbers must be finite (``NaN`` and ``Infinity`` are refused)
and never ``true``/``false``. Rules that tie fields together (the desk
geometry, the DiT's width, the condition schedule) belong to the models the
fields configure, and are checked when the CLI builds them.
"""

from __future__ import annotations

import json
import math
import sys

from .compressor import VARIANTS

__all__ = ["ConfigError", "load_config", "validate_config", "FIELDS"]


class ConfigError(ValueError):
    pass


def _int(lo=-math.inf):
    # type(v) is int, not isinstance: JSON true/false load as bool, a subclass of int
    return lambda v: type(v) is int and v >= lo


def _real(lo=-math.inf):
    """A number above ``lo`` that is finite as a float: the comparisons also refuse NaN, and
    an integer literal too large for a float, such as 10**400, which JSON loads as an int."""
    return lambda v: type(v) in (int, float) and lo < v and abs(v) <= sys.float_info.max


def _one_of(*choices):
    # compared with their type too, so that 0 and 1 are not false and true
    return lambda v: any(type(v) is type(c) and v == c for c in choices)


def _list_of(check, n=None):
    """A list of ``n`` items (or at least one) that each pass ``check``."""
    return lambda v: isinstance(v, list) and (len(v) == n if n else len(v) >= 1) and all(map(check, v))


# every config field as dotted path: (default, check); a path with a dot names a block's key
FIELDS = {
    "seed": (0, _int(0)),
    "dataset.seed": (100, _int(0)),
    "dataset.size": (48, _int(1)),
    "dataset.vocab": (16, _int(1)),
    "dataset.static": (False, _one_of(False, True)),
    "encoder.rate": ([4, 4, 2], _list_of(_int(1), n=3)),
    "encoder.variant": ("dual", _one_of(*VARIANTS)),
    "encoder.chunk_len": (8, _int(1)),
    "dit.inner_dim": (64, _int(8)),
    "dit.blocks": (4, _int(1)),
    "dit.heads": (4, _int(1)),
    "dit.lora_rank": (0, _int(0)),
    # training timesteps concentrate near t=1: memory is only consulted
    # when the noisy clip carries little information, so high-noise
    # coverage is what drives context usage during retrieval training
    "diffusion.mu": (2.0, _real()),
    "diffusion.sigma": (0.8, _real(0)),
    "diffusion.shift": (1.0, _real(0)),
    "diffusion.sample_steps": (8, _int(1)),
    "training.steps": (2000, _int(1)),
    "training.batch": (4, _int(1)),
    "training.lr": (3e-3, _real(0)),
    "training.omega_policy": ("uniform", _one_of("uniform", "fixed-endpoints")),
    "training.freeze_encoder": (False, _one_of(False, True)),
    "training.log_every": (50, _int(1)),
    "training.eval_every": (0, _int(0)),
    "rollout.n_steps": (4, _int(1)),
    "rollout.window_frames": (0, _int(0)),
    "rollout.condition_schedule": ([[0, 0]], _list_of(_list_of(_int(), n=2))),
    "rollout.seed_scene": (0, _int()),
    "output.dir": ("runs/default", lambda v: isinstance(v, str) and v != ""),
}


def validate_config(user: dict) -> dict:
    """Reject blocks that are not objects and unknown keys, fill in defaults and check each
    field on its own."""
    tops = dict.fromkeys(path.partition(".")[0] for path in FIELDS)  # top-level fields and blocks
    for block in (name for name in tops if name not in FIELDS and name in user):
        if not isinstance(user[block], dict):
            raise ConfigError(f"field {block} must be a block, got {type(user[block]).__name__}")
        unknown = sorted(key for key in user[block] if f"{block}.{key}" not in FIELDS)
        if unknown:
            raise ConfigError(f"unknown config key {block + '.' + unknown[0]!r}")
    unknown = sorted(set(user) - set(tops))
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    cfg = {}
    for path, (default, check) in FIELDS.items():
        block, _, key = path.rpartition(".")
        given, out = (user.get(block, {}), cfg.setdefault(block, {})) if block else (user, cfg)
        out[key] = given[key] if key in given else json.loads(json.dumps(default))
        if not check(out[key]):
            raise ConfigError(f"invalid value for {path}: {out[key]!r}")
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
