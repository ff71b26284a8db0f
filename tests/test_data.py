"""Synthetic scene generator, toy VAE, index-set sampling, and latent file format."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memctx import checkpoint, data, seeding


# -- scene generation -------------------------------------------------------------


def test_scene_deterministic_and_in_range():
    spec = data.SceneSpec.random(3)
    a = data.generate_scene(spec, 24, 32, 32, seed=7)
    b = data.generate_scene(spec, 24, 32, 32, seed=7)
    assert a.shape == (24, 32, 32)
    assert np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_scene_seed_changes_content():
    spec = data.SceneSpec.random(3)
    a = data.generate_scene(spec, 24, 32, 32, seed=7)
    b = data.generate_scene(spec, 24, 32, 32, seed=8)
    assert not np.array_equal(a, b)


def test_static_scene_frames_identical():
    spec = data.SceneSpec.random(4, static=True)
    vid = data.generate_scene(spec, 16, 32, 32, seed=1)
    assert np.array_equal(vid, np.broadcast_to(vid[:1], vid.shape))


def test_moving_scene_frames_differ():
    spec = data.SceneSpec.random(4)
    vid = data.generate_scene(spec, 16, 64, 64, seed=1)
    assert not np.array_equal(vid[0], vid[1])


def _reference_bounce(p, span):
    period = 2.0 * span
    p = p % period
    if p > span:
        p = period - p
    return int(round(p))


def _reference_scene(spec, t_pixel, h_pixel, w_pixel, seed):
    """The frame-by-frame, sprite-by-sprite scalar renderer ``generate_scene`` vectorizes."""
    video = np.full((t_pixel, h_pixel, w_pixel), spec.background, dtype=np.float32)
    n = len(spec.sprite_intensities)
    for shot in range((t_pixel + spec.shot_len - 1) // spec.shot_len):
        rng = seeding.stream(seed, spec.condition_code, shot)
        pos = rng.uniform(0, 1, size=(n, 2))
        ang = rng.uniform(0, 2 * np.pi, size=n)
        t0 = shot * spec.shot_len
        for t in range(t0, min(t_pixel, t0 + spec.shot_len)):
            dt = 0.0 if spec.static else float(t - t0)
            for s in range(n):
                size = spec.sprite_sizes[s]
                span_h = max(h_pixel - size, 1)
                span_w = max(w_pixel - size, 1)
                vy = spec.speeds[s] * np.sin(ang[s])
                vx = spec.speeds[s] * np.cos(ang[s])
                y = _reference_bounce(pos[s, 0] * span_h + vy * dt, span_h)
                x = _reference_bounce(pos[s, 1] * span_w + vx * dt, span_w)
                video[t, y : y + size, x : x + size] = spec.sprite_intensities[s]
    return video


def _reference_encode(pixels):
    """The toy encoder as numpy's multi-axis means, whose summation order ``toy_vae_encode`` writes out."""
    rt, rh, rw = data.VAE_RATES
    t, h, w = pixels.shape
    blocks = pixels.reshape(t // rt, rt, h // rh, rh, w // rw, rw)
    mean = blocks.mean(axis=(1, 3, 5))
    hdiff = (blocks[..., : rw // 2].mean(axis=(1, 3, 5)) - blocks[..., rw // 2 :].mean(axis=(1, 3, 5))) / 2
    vdiff = (blocks[:, :, :, : rh // 2].mean(axis=(1, 3, 5)) - blocks[:, :, :, rh // 2 :].mean(axis=(1, 3, 5))) / 2
    tdiff = (blocks[:, : rt // 2].mean(axis=(1, 3, 5)) - blocks[:, rt // 2 :].mean(axis=(1, 3, 5))) / 2
    return np.stack([mean, hdiff, vdiff, tdiff], axis=-1).astype(np.float32)


_ORACLE_SHAPES = [(96, 64, 64)] * 50 + [(32, 64, 64)] * 50 + [(24, 32, 32)] * 50 + [(16, 64, 64)] * 50
_ORACLE_SHAPES += [(1536, 64, 64)] * 2


def test_scenes_and_latents_equal_the_scalar_renderer_and_numpy_means_bitwise():
    """Over 202 scene seeds, half of them static, the generator and the encoder give the references' bytes."""
    for i, shape in enumerate(_ORACLE_SHAPES):
        spec = data.SceneSpec.random((20, i), static=bool(i % 2))
        video = data.generate_scene(spec, *shape, seed=(i, 1))
        np.testing.assert_array_equal(video, _reference_scene(spec, *shape, (i, 1)))
        assert data.toy_vae_encode(video).tobytes() == _reference_encode(video).tobytes()


def test_bounce_reflects_and_rounds_halves_to_even_like_the_scalar_code():
    p = np.arange(-80.0, 80.0, 0.25)
    for span in (1, 5, 18):
        assert data._bounce(p, span) == [_reference_bounce(x, span) for x in p]


def test_sprite_wider_than_the_frame_clamps_its_span_and_clips():
    """A sprite of size >= H - 1 has a span of 1, and its slice runs past the frame's edge."""
    for static in (False, True):
        spec = dataclasses.replace(data.SceneSpec.random(6, static=static), sprite_sizes=(40, 31, 32))
        for seed in range(8):
            video = data.generate_scene(spec, 24, 32, 32, seed)
            np.testing.assert_array_equal(video, _reference_scene(spec, 24, 32, 32, seed))
            assert data.toy_vae_encode(video).tobytes() == _reference_encode(video).tobytes()


@given(
    blocks=st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(2, 4)),
    scale=st.sampled_from((1e-3, 1.0, 1e3)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_encoder_equals_numpy_means_bitwise_on_random_volumes(blocks, scale, seed):
    """Any float32 video of at least two blocks along each axis encodes to the reference's bytes.
    (With one block along W, numpy joins the block's pixel rows into one 64-wide sum.)"""
    shape = tuple(n * r for n, r in zip(blocks, data.VAE_RATES))
    pixels = (np.random.default_rng(seed).standard_normal(shape) * scale).astype(np.float32)
    assert data.toy_vae_encode(pixels).tobytes() == _reference_encode(pixels).tobytes()


def test_scene_divisibility_error():
    spec = data.SceneSpec.random(0)
    with pytest.raises(ValueError, match="T"):
        data.generate_scene(spec, 13, 32, 32, seed=0)


# -- toy VAE ----------------------------------------------------------------------


def test_vae_encode_shape():
    pix = np.random.default_rng(0).uniform(size=(8, 16, 16)).astype(np.float32)
    lat = data.toy_vae_encode(pix)
    assert lat.shape == (2, 2, 2, 4)


def test_vae_encode_mean_channel_oracle():
    pix = np.random.default_rng(2).uniform(size=(4, 8, 8)).astype(np.float32)
    lat = data.toy_vae_encode(pix)
    oracle = pix.reshape(1, 4, 1, 8, 1, 8).mean(axis=(1, 3, 5))
    assert np.allclose(lat[..., 0], oracle, atol=1e-6)


def test_vae_divisibility_error():
    with pytest.raises(ValueError):
        data.toy_vae_encode(np.zeros((5, 8, 8), dtype=np.float32))


def test_latent_scene_holds_one_pixel_video_at_a_time():
    """Rendering and encoding a desk-size scene peaks below two pixel videos' bytes: the encoder
    reads the rendered video in place, with no channel-mean copy of it."""
    video_bytes = np.prod(data.DESK_PIXEL) * np.dtype(np.float32).itemsize
    spec = data.SceneSpec.random(5)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()  # counted from here, also when the run already traces allocations
        before, _ = tracemalloc.get_traced_memory()
        data.make_latent_scene(spec, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 2 * video_bytes


def test_latent_standardization_near_unit_variance():
    lats = np.concatenate(
        [data.make_latent_scene(data.SceneSpec.random((50, i)), (50, i)) for i in range(12)]
    )
    stds = lats.reshape(-1, 4).std(axis=0)
    assert np.all(stds > 0.6) and np.all(stds < 1.6)
    assert abs(float(lats[..., 0].mean())) < 0.5


# -- index-set sampling --------------------------------------------------------------


def test_sample_omega_uniform_bounds():
    for k in range(40):
        om = data.sample_omega(24, (0, k))
        assert 1 <= len(om.indices) <= 3
        assert om.indices == tuple(sorted(set(om.indices)))
        assert all(0 <= i < 24 for i in om.indices)
        assert set(om.mask_noise_levels) == set(range(24)) - set(om.indices)
        for lvl in om.mask_noise_levels.values():
            assert 0.2 < lvl <= 1.0


def test_sample_omega_covers_all_positions():
    seen = set()
    for k in range(300):
        seen.update(data.sample_omega(24, (1, k)).indices)
    assert seen == set(range(24))


def test_sample_omega_fixed_endpoints():
    om = data.sample_omega(24, 5, policy="fixed-endpoints")
    assert om.indices == (23,)


def test_sample_omega_validation():
    with pytest.raises(ValueError):
        data.sample_omega(0, 1)
    with pytest.raises(ValueError):
        data.sample_omega(24, 1, policy="nope")


def test_frame_index_set_validation():
    with pytest.raises(ValueError):
        data.FrameIndexSet(indices=(), mask_noise_levels={}, total_frames=4)
    with pytest.raises(ValueError):
        data.FrameIndexSet(indices=(5,), mask_noise_levels={}, total_frames=4)
    with pytest.raises(ValueError):
        data.FrameIndexSet(indices=(0,), mask_noise_levels={}, total_frames=2)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_mask_levels_in_open_interval(seed):
    rng = np.random.default_rng(seed)
    levels = data.sample_mask_levels(rng, 64)
    assert np.all(levels > 0.2) and np.all(levels <= 1.0)


# -- latent file format ---------------------------------------------------------------


def test_training_and_rollout_load_neither_the_file_formats_nor_hashlib():
    """The MCTX and MCCK formats live in ``checkpoint``, which imports ``hashlib`` (and with it
    OpenSSL); a process that only makes scenes, trains and rolls out loads neither."""
    src = os.path.dirname(os.path.dirname(data.__file__))
    script = (
        "import sys; from memctx import training, rollout; "
        "assert 'memctx.checkpoint' not in sys.modules and 'hashlib' not in sys.modules, "
        "[m for m in ('memctx.checkpoint', 'hashlib') if m in sys.modules]"
    )
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert run.returncode == 0, run.stderr


def test_latents_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(9)
    for dtype in (np.float32, np.float64):
        arr = rng.normal(size=(6, 8, 8, 4)).astype(dtype)
        path = str(tmp_path / f"clip_{arr.dtype}.mctx")
        checkpoint.save_latents(path, arr)
        back = checkpoint.load_latents(path)
        assert back.dtype == arr.dtype
        assert np.array_equal(back, arr)


def test_latents_bad_magic(tmp_path):
    path = str(tmp_path / "bad.mctx")
    with open(path, "wb") as f:
        f.write(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValueError, match="magic"):
        checkpoint.load_latents(path)


def test_latents_truncated_file_is_refused(tmp_path):
    path = tmp_path / "clip.mctx"
    checkpoint.save_latents(str(path), np.ones((2, 4, 4, 4), np.float32))
    raw = path.read_bytes()
    for cut in (2, 12, len(raw) - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(checkpoint.LatentFileError, match="truncated"):
            checkpoint.load_latents(str(path))


def test_latents_with_bytes_after_the_end_are_refused(tmp_path):
    path = tmp_path / "clip.mctx"
    checkpoint.save_latents(str(path), np.ones((2, 4, 4, 4), np.float32))
    path.write_bytes(path.read_bytes() + b"\x00" * 7)
    with pytest.raises(checkpoint.LatentFileError, match="7 bytes after its end"):
        checkpoint.load_latents(str(path))


@pytest.mark.parametrize("dtype", [np.float16, np.int32])
def test_latents_refuse_dtypes_other_than_float32_and_float64(tmp_path, dtype):
    """Only float32 and float64 have a dtype tag; for any other dtype nothing is written."""
    with pytest.raises(ValueError, match=f"unsupported latent file dtype {np.dtype(dtype)}"):
        checkpoint.save_latents(str(tmp_path / "x.mctx"), np.zeros((2, 4, 4, 4), dtype))
    assert not list(tmp_path.iterdir())


def test_latents_rejects_non_4d(tmp_path):
    with pytest.raises(ValueError):
        checkpoint.save_latents(str(tmp_path / "x.mctx"), np.zeros((2, 2)))
