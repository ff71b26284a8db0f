"""Synthetic scene generator, toy VAE, index-set sampling, and latent file format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memctx import data


# -- scene generation -------------------------------------------------------------


def test_scene_deterministic_and_in_range():
    spec = data.SceneSpec.random(3)
    a = data.generate_scene(spec, 24, 32, 32, seed=7)
    b = data.generate_scene(spec, 24, 32, 32, seed=7)
    assert a.shape == (24, 32, 32, 1)
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


def test_scene_divisibility_error():
    spec = data.SceneSpec.random(0)
    with pytest.raises(ValueError, match="T"):
        data.generate_scene(spec, 13, 32, 32, seed=0)


# -- toy VAE ----------------------------------------------------------------------


def test_vae_encode_shape():
    pix = np.random.default_rng(0).uniform(size=(8, 16, 16, 1)).astype(np.float32)
    lat = data.toy_vae_encode(pix)
    assert lat.shape == (2, 2, 2, 4)


def test_vae_decode_then_encode_identity():
    """The decoder is a right inverse of the encoder on latent space."""
    rng = np.random.default_rng(1)
    lat = rng.normal(size=(3, 4, 4, 4)).astype(np.float32)
    again = data.toy_vae_encode(data.toy_vae_decode(lat))
    assert np.allclose(again, lat, atol=1e-5)


def test_vae_encode_mean_channel_oracle():
    pix = np.random.default_rng(2).uniform(size=(4, 8, 8, 1)).astype(np.float32)
    lat = data.toy_vae_encode(pix)
    oracle = pix.reshape(1, 4, 1, 8, 1, 8, 1).mean(axis=(1, 3, 5))[..., 0]
    assert np.allclose(lat[..., 0], oracle, atol=1e-6)


def test_vae_divisibility_error():
    with pytest.raises(ValueError):
        data.toy_vae_encode(np.zeros((5, 8, 8, 1), dtype=np.float32))


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


def test_latents_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(9)
    for dtype in (np.float32, np.float64):
        arr = rng.normal(size=(6, 8, 8, 4)).astype(dtype)
        path = str(tmp_path / f"clip_{arr.dtype}.mctx")
        data.save_latents(path, arr, meta={"seed": 9})
        back = data.load_latents(path)
        assert back.dtype == arr.dtype
        assert np.array_equal(back, arr)


def test_latents_bad_magic(tmp_path):
    path = str(tmp_path / "bad.mctx")
    with open(path, "wb") as f:
        f.write(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValueError, match="magic"):
        data.load_latents(path)


def test_latents_truncated_file_is_refused(tmp_path):
    path = tmp_path / "clip.mctx"
    data.save_latents(str(path), np.ones((2, 4, 4, 4), np.float32))
    raw = path.read_bytes()
    for cut in (2, 12, len(raw) - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(data.LatentFileError, match="truncated"):
            data.load_latents(str(path))


def test_latents_rejects_non_4d(tmp_path):
    with pytest.raises(ValueError):
        data.save_latents(str(tmp_path / "x.mctx"), np.zeros((2, 2)))
