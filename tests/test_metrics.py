"""Metrics and budget-calculator tests.

The budget fixtures pin the published-geometry token counts; PSNR/SSIM
are checked against direct-formula oracles and known identities.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memctx import metrics
from memctx.compressor import CompressionRate, EncoderModel
from memctx.seeding import stream

PUBLISHED = metrics.BudgetSpec(width=832, height=480, fps=24, duration_s=60)


# -- context-length budget ------------------------------------------------------


def _row(spec, rate):
    (row,) = metrics.budget_table(spec, [rate])
    return row


def test_published_geometry_uncompressed_count():
    row = _row(PUBLISHED, (1, 1, 1))
    # 52 * 30 * 360 independent hand computation
    assert (832 // 16) * (480 // 16) * (24 * 60 // 4) == 561_600
    assert row["uncompressed"] == 561_600
    assert row["tokens"] == 561_600


def test_twenty_second_4x4x2_count():
    row = _row(dataclasses.replace(PUBLISHED, duration_s=20.0), (4, 4, 2))
    assert row["accounting"] == "total/volume"  # 30 token rows do not tile by 4
    assert row["uncompressed"] == 187_200
    assert row["tokens"] == 5_850
    assert 4_500 <= row["tokens"] <= 6_500  # "about 5k"


def test_identity_rate_is_identity():
    row = _row(PUBLISHED, (1, 1, 1))
    assert row["tokens"] == row["uncompressed"]


def test_non_divisible_floors_with_warning():
    spec = dataclasses.replace(PUBLISHED, duration_s=20.0)  # 480 frames, 480/16=30 rows ok; time 120 ok
    spec = dataclasses.replace(spec, height=470)
    with pytest.warns(UserWarning, match="height") as record:
        rows = metrics.budget_table(spec, [(1, 1, 1), (2, 2, 1), (4, 4, 2)])
    assert len(record) == 1  # once per floored axis, not once per row
    assert rows[0]["uncompressed"] == 52 * (470 // 16) * 120


def test_budget_table_rows():
    rows = metrics.budget_table(PUBLISHED, [(1, 1, 1), (2, 2, 2), (4, 4, 2)])
    assert [r["rate"] for r in rows] == ["1x1x1", "2x2x2", "4x4x2"]
    assert rows[0]["tokens"] == 561_600
    assert rows[2]["reduction"] == pytest.approx(32.0)


def test_budget_table_rows_name_their_accounting_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = metrics.budget_table(PUBLISHED, [(2, 2, 2), (4, 4, 2)])
    assert [r["accounting"] for r in rows] == ["exact", "total/volume"]


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(metrics.BudgetSpec)])
@pytest.mark.parametrize("value", [0, -4, math.nan, math.inf], ids=str)
def test_budget_spec_refuses_a_value_not_positive_and_finite(field, value):
    """A zero VAE stride would divide by zero in budget_table; the spec refuses it, naming the field."""
    with pytest.raises(ValueError, match=f"{field} must be positive and finite, got {value}"):
        dataclasses.replace(PUBLISHED, **{field: value})


@given(
    r_h=st.sampled_from([1, 2, 4]),
    r_w=st.sampled_from([1, 2, 4]),
    r_t=st.sampled_from([1, 2, 3, 6]),
)
@settings(max_examples=25, deadline=None)
def test_budget_multiplicative_exact(r_h, r_w, r_t):
    """Halving one rate (where divisible) exactly doubles the count."""
    spec = dataclasses.replace(PUBLISHED, width=64 * 16, height=48 * 16, duration_s=12.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no axis floors
        rows = metrics.budget_table(spec, [(r_h, r_w, r_t), (max(r_h // 2, 1), r_w, r_t)])
    assert [r["accounting"] for r in rows] == ["exact", "exact"]
    assert rows[0]["tokens"] * (r_h * r_w * r_t) == rows[0]["uncompressed"]
    if r_h > 1 and r_h % 2 == 0:
        assert rows[1]["tokens"] == 2 * rows[0]["tokens"]


def test_budget_matches_compressor_token_count():
    """Single source of truth: calculator equals the encoder's emitted count."""
    t, h, w = 24, 8, 8
    spec = metrics.BudgetSpec(width=w, height=h, fps=1, duration_s=t, vae_spatial=1, vae_temporal=1)
    rates = [(1, 1, 1), (2, 2, 1), (2, 2, 2), (4, 4, 2)]
    for rate, row in zip(rates, metrics.budget_table(spec, rates)):
        enc = EncoderModel(CompressionRate(*rate), stream(0, 1), chunk_len=8)
        ctx = enc.compress(np.zeros((t, h, w, 4), dtype=np.float32))
        assert row["accounting"] == "exact"
        assert ctx.length == row["tokens"]


# -- PSNR -----------------------------------------------------------------------


def test_psnr_identical_inputs_hit_cap():
    a = np.ones((3, 4, 4, 2))
    assert metrics.psnr(a, a) == metrics.PSNR_CAP_DB


def test_psnr_mse_equal_to_max_squared_is_zero_db():
    a = np.zeros((8, 8))
    b = np.full((8, 8), metrics.LATENT_DYNAMIC_RANGE)
    assert metrics.psnr(a, b) == pytest.approx(0.0, abs=1e-12)


def test_psnr_matches_direct_formula():
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=(5, 6, 6, 4)), rng.normal(size=(5, 6, 6, 4))
    expected = 10.0 * math.log10(36.0 / np.mean((a - b) ** 2))
    assert metrics.psnr(a, b) == pytest.approx(expected, abs=1e-6)


def test_psnr_symmetry_and_permutation_invariance():
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=(6, 4, 4, 2)), rng.normal(size=(6, 4, 4, 2))
    assert metrics.psnr(a, b) == metrics.psnr(b, a)
    perm = rng.permutation(6)
    assert metrics.psnr(a[perm], b[perm]) == pytest.approx(metrics.psnr(a, b), abs=1e-12)


def test_psnr_validation():
    with pytest.raises(ValueError):
        metrics.psnr(np.zeros((2, 2)), np.zeros((3, 2)))


# -- SSIM -----------------------------------------------------------------------


def test_ssim_identical_is_one():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 16, 16, 3))
    assert metrics.ssim(a, a, window=11) == pytest.approx(1.0, abs=1e-12)


def test_ssim_sign_flip_is_negative():
    # zero-local-mean pattern, so only the inverted structure term survives
    i, j = np.indices((1, 16, 16, 1))[1:3]
    a = np.where((i + j) % 2 == 0, 1.0, -1.0)
    assert metrics.ssim(a, -a, window=11) < 0.0


def test_ssim_constant_perturbation_limit():
    base = np.full((1, 16, 16, 1), 1.3)
    s3 = metrics.ssim(base, base + 1e-3, window=11)
    s4 = metrics.ssim(base, base + 1e-4, window=11)
    assert s3 < s4 < 1.0 + 1e-12
    assert s4 > 0.999


def test_ssim_window_too_large():
    with pytest.raises(ValueError, match="window"):
        metrics.ssim(np.zeros((1, 8, 8, 1)), np.zeros((1, 8, 8, 1)), window=11)


def test_ssim_symmetry():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(1, 16, 16, 1)), rng.normal(size=(1, 16, 16, 1))
    assert metrics.ssim(a, b, window=11) == pytest.approx(metrics.ssim(b, a, window=11), abs=1e-12)
