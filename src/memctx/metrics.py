"""Quality metrics and the exact context-length budget calculator."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

__all__ = [
    "BudgetSpec",
    "BudgetReport",
    "context_length",
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
    """Geometry + reduction rates for a context-length computation.

    ``vae_spatial`` is the total pixel-to-token spatial reduction of the
    uncompressed path (VAE times patchifier, e.g. 16 for the 8x VAE with
    a 2x patchifier); ``vae_temporal`` likewise for time.  Memory-encoder
    token counts divide the uncompressed count by ``rate``'s r_h·r_w·r_t.
    """

    width: int
    height: int
    fps: int
    duration_s: float
    vae_spatial: int = 16
    vae_temporal: int = 4
    rate: tuple | None = None  # (r_h, r_w, r_t) of the memory encoder


@dataclasses.dataclass(frozen=True)
class BudgetReport:
    uncompressed: int
    compressed: int  # the history after the encoder; ``uncompressed`` without a rate
    accounting: str = "exact"  # "total/volume" when the rate does not tile the token grid


def _div(n: int, d: int, axis: str, exact: bool) -> int:
    if n % d != 0:
        if exact:
            raise ValueError(f"extent {n} on axis {axis} not divisible by rate {d}")
        warnings.warn(f"axis {axis}: {n} not divisible by {d}, flooring", stacklevel=4)
    return n // d


def context_length(spec: BudgetSpec, exact: bool = False) -> BudgetReport:
    """Token budget: uncompressed and compressed.

    Non-divisible extents floor with a warning unless ``exact`` is set,
    matching the approximate published-scale accounting; so does a rate
    that does not tile the token grid (``accounting`` says which held).
    """
    report = _budget(spec, exact)
    if report.accounting != "exact":
        r_h, r_w, r_t = spec.rate
        warnings.warn(
            f"rate {r_h}x{r_w}x{r_t} does not tile the token grid; using total/volume accounting",
            stacklevel=2,
        )
    return report


def _budget(spec: BudgetSpec, exact: bool) -> BudgetReport:
    """``context_length`` without the warning about a rate that does not tile the grid."""
    w_tok = _div(spec.width, spec.vae_spatial, "width", exact)
    h_tok = _div(spec.height, spec.vae_spatial, "height", exact)
    frames = int(spec.fps * spec.duration_s)
    t_tok = _div(frames, spec.vae_temporal, "time", exact)
    if min(w_tok, h_tok, t_tok) < 1:
        raise ValueError("geometry reduces to zero tokens")
    uncompressed = compressed = w_tok * h_tok * t_tok
    accounting = "exact"
    if spec.rate is not None:
        r_h, r_w, r_t = spec.rate
        if min(r_h, r_w, r_t) < 1:
            raise ValueError("compression rates must be >= 1")
        if h_tok % r_h or w_tok % r_w or t_tok % r_t:
            # published-scale accounting divides the token total by the
            # rate volume when the grid does not tile exactly
            if exact:
                _div(h_tok, r_h, "height", True)
                _div(w_tok, r_w, "width", True)
                _div(t_tok, r_t, "time", True)
            accounting = "total/volume"
            compressed = uncompressed // (r_h * r_w * r_t)
        else:
            compressed = (h_tok // r_h) * (w_tok // r_w) * (t_tok // r_t)
    return BudgetReport(uncompressed=uncompressed, compressed=compressed, accounting=accounting)


def budget_table(spec: BudgetSpec, rate_grid) -> list:
    """Rows of (rate, tokens, reduction, accounting) for a grid of rate triples.

    A rate that does not tile the token grid is counted as total/volume and
    says so in its row's ``accounting``, not through a warning.
    """
    rows = []
    for rate in rate_grid:
        rep = _budget(dataclasses.replace(spec, rate=tuple(rate)), exact=False)
        rows.append(
            {
                "rate": f"{rate[0]}x{rate[1]}x{rate[2]}",
                "tokens": rep.compressed,
                "uncompressed": rep.uncompressed,
                "reduction": rep.uncompressed / max(rep.compressed, 1),
                "accounting": rep.accounting,
            }
        )
    return rows


def psnr(a: np.ndarray, b: np.ndarray, max_value: float = LATENT_DYNAMIC_RANGE) -> float:
    """10*log10(max^2 / MSE) in dB; identical inputs return the 99 dB cap."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"psnr shape mismatch: {a.shape} vs {b.shape}")
    if max_value <= 0:
        raise ValueError("max_value must be positive")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * math.log10(max_value**2 / mse), PSNR_CAP_DB)


def _gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    x = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    k = np.exp(-(x**2) / (2 * sigma**2))
    return k / k.sum()


def _filter2d(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Separable 'valid' Gaussian filtering of a 2-d image."""
    size = kernel.size
    win = np.lib.stride_tricks.sliding_window_view(img, size, axis=0)
    img = np.tensordot(win, kernel, axes=([-1], [0]))
    win = np.lib.stride_tricks.sliding_window_view(img, size, axis=1)
    return np.tensordot(win, kernel, axes=([-1], [0]))


def ssim(
    a: np.ndarray,
    b: np.ndarray,
    window: int = 11,
    sigma: float = 1.5,
    max_value: float = LATENT_DYNAMIC_RANGE,
    k1: float = 0.01,
    k2: float = 0.03,
) -> float:
    """Mean structural similarity over frames and channels, Gaussian window."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"ssim shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim == 2:
        a = a[None, ..., None]
        b = b[None, ..., None]
    elif a.ndim == 3:
        a = a[None]
        b = b[None]
    t, h, w, c = a.shape
    if window > h or window > w:
        raise ValueError(f"ssim window {window} exceeds spatial extents ({h}, {w})")
    kern = _gaussian_kernel(window, sigma)
    c1 = (k1 * max_value) ** 2
    c2 = (k2 * max_value) ** 2
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

