"""Quality metrics and the context-length budget calculator."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

__all__ = [
    "BudgetSpec",
    "budget_table",
    "psnr",
    "ssim",
    "PSNR_CAP_DB",
    "LATENT_DYNAMIC_RANGE",
]

PSNR_CAP_DB = 99.0
# Documented dynamic range of the latent generator contract ([-3, 3]).
LATENT_DYNAMIC_RANGE = 6.0


@dataclasses.dataclass(frozen=True)
class BudgetSpec:
    """Geometry for a context-length computation.

    ``vae_spatial`` is the total pixel-to-token spatial reduction of the
    uncompressed path (VAE times patchifier, e.g. 16 for the 8x VAE with
    a 2x patchifier); ``vae_temporal`` likewise for time.
    """

    width: int
    height: int
    fps: int
    duration_s: float
    vae_spatial: int = 16
    vae_temporal: int = 4

    def __post_init__(self):
        for name, value in dataclasses.asdict(self).items():
            if not 0 < value < math.inf:  # also refuses NaN
                raise ValueError(f"{name} must be positive and finite, got {value}")


def _floor(n: int, d: int, axis: str) -> int:
    if n % d != 0:
        warnings.warn(f"axis {axis}: {n} not divisible by {d}, flooring", stacklevel=3)
    return n // d


def budget_table(spec: BudgetSpec, rate_grid) -> list:
    """Rows of (rate, tokens, uncompressed, reduction, accounting) for a grid of
    memory-encoder rate triples (r_h, r_w, r_t).

    The token grid is worked out once: an extent the VAE stride does not
    divide floors, with one warning per floored axis.  A rate that tiles the
    grid divides each axis (``accounting`` "exact"); one that does not
    divides the token total by its volume and says so in its row's
    ``accounting`` ("total/volume"), not through a warning.
    """
    frames = spec.fps * spec.duration_s
    if not math.isfinite(frames):
        raise ValueError(f"frame count fps x duration is not finite: {frames}")
    w_tok = _floor(spec.width, spec.vae_spatial, "width")
    h_tok = _floor(spec.height, spec.vae_spatial, "height")
    t_tok = _floor(int(frames), spec.vae_temporal, "time")
    if min(w_tok, h_tok, t_tok) < 1:
        raise ValueError("geometry reduces to zero tokens")
    uncompressed = w_tok * h_tok * t_tok
    rows = []
    for r_h, r_w, r_t in rate_grid:
        if min(r_h, r_w, r_t) < 1:
            raise ValueError("compression rates must be >= 1")
        if h_tok % r_h or w_tok % r_w or t_tok % r_t:
            accounting, tokens = "total/volume", uncompressed // (r_h * r_w * r_t)
        else:
            accounting, tokens = "exact", (h_tok // r_h) * (w_tok // r_w) * (t_tok // r_t)
        rows.append(
            {
                "rate": f"{r_h}x{r_w}x{r_t}",
                "tokens": tokens,
                "uncompressed": uncompressed,
                "reduction": uncompressed / max(tokens, 1),
                "accounting": accounting,
            }
        )
    return rows


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """10*log10(range^2 / MSE) in dB over ``LATENT_DYNAMIC_RANGE``; identical
    inputs return the 99 dB cap."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"psnr shape mismatch: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * math.log10(LATENT_DYNAMIC_RANGE**2 / mse), PSNR_CAP_DB)


def _filter2d(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Separable 'valid' Gaussian filtering of a 2-d image."""
    size = kernel.size
    win = np.lib.stride_tricks.sliding_window_view(img, size, axis=0)
    img = np.tensordot(win, kernel, axes=([-1], [0]))
    win = np.lib.stride_tricks.sliding_window_view(img, size, axis=1)
    return np.tensordot(win, kernel, axes=([-1], [0]))


def ssim(a: np.ndarray, b: np.ndarray, window: int) -> float:
    """Mean structural similarity of (T, H, W, C) latents over frames and
    channels: a ``window``-wide Gaussian of sigma 1.5, with the stabilisers
    k1 = 0.01 and k2 = 0.03 of ``LATENT_DYNAMIC_RANGE``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"ssim shape mismatch: {a.shape} vs {b.shape}")
    t, h, w, c = a.shape
    if window > h or window > w:
        raise ValueError(f"ssim window {window} exceeds spatial extents ({h}, {w})")
    offsets = np.arange(window, dtype=np.float64) - (window - 1) / 2.0
    kern = np.exp(-(offsets**2) / (2 * 1.5**2))
    kern = kern / kern.sum()
    c1 = (0.01 * LATENT_DYNAMIC_RANGE) ** 2
    c2 = (0.03 * LATENT_DYNAMIC_RANGE) ** 2
    scores = []
    for ti in range(t):
        for ci in range(c):
            x, y = a[ti, :, :, ci], b[ti, :, :, ci]
            mx, my = _filter2d(x, kern), _filter2d(y, kern)
            vx = _filter2d(x * x, kern) - mx * mx
            vy = _filter2d(y * y, kern) - my * my
            cov = _filter2d(x * y, kern) - mx * my
            num = (2 * mx * my + c1) * (2 * cov + c2)
            den = (mx * mx + my * my + c1) * (vx + vy + c2)
            scores.append(np.mean(num / den))
    return float(np.mean(scores))
