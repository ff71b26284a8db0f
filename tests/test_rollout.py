"""Autoregressive session: streaming context growth, windows, determinism."""

import numpy as np
import pytest

from memctx import data, training
from memctx.rollout import RolloutSession


def _session(seed=0, **kw):
    enc, g = training.build_models(0, rate=(4, 4, 2))
    spec = data.SceneSpec.random(5, static=True)
    seed_clip = data.make_latent_scene(spec, 5, pixel_shape=(32, 64, 64))  # 8 latent frames
    return RolloutSession(g, enc, seed=seed, seed_clip=seed_clip, **kw), seed_clip


def test_streaming_context_grows_per_step():
    sess, seed_clip = _session()
    assert sess.generated_frames == 8
    assert sess.ctx.length == 16  # one compressed chunk
    sess.step()
    assert sess.generated_frames == 16
    assert sess.ctx.length == 32
    sess.step()
    assert sess.ctx.length == 48
    assert sess.full_history().shape == (24, 8, 8, 4)


def test_run_records():
    sess, _ = _session()
    video, records = sess.run(2)
    assert video.shape == (24, 8, 8, 4)
    assert [r["step"] for r in records] == [1, 2]
    assert records[-1]["context_length"] == 48
    assert all(np.isfinite(r["consistency_psnr"]) for r in records)
    assert all(np.isfinite(r["latency_ms"]) and r["latency_ms"] > 0 for r in records)


def test_run_records_the_memory_each_clip_read(monkeypatch):
    """``memory_tokens`` is the context the clip's sampler read, before the clip's own append;
    ``context_length`` is the length after it."""
    sess, _ = _session()
    read = []
    original = sess.dit.read_memory

    def recording(ctx, latent_hw):
        read.append(ctx.length)
        return original(ctx, latent_hw)

    monkeypatch.setattr(sess.dit, "read_memory", recording)
    _, records = sess.run(2)
    assert [r["memory_tokens"] for r in records] == read == [16, 32]
    assert [r["context_length"] for r in records] == [32, 48]


def test_rollout_deterministic():
    sess_a, _ = _session(seed=3)
    sess_b, _ = _session(seed=3)
    va, _ = sess_a.run(2)
    vb, _ = sess_b.run(2)
    assert np.array_equal(va, vb)


def test_rollout_seed_changes_output():
    sess_a, _ = _session(seed=3)
    sess_b, _ = _session(seed=4)
    # unlock the zero-initialized velocity head so seeds can differ
    for s in (sess_a, sess_b):
        s.dit.out_proj.weight.data[:] = np.random.default_rng(1).normal(
            0, 0.05, s.dit.out_proj.weight.shape
        )
    assert not np.array_equal(sess_a.run(1)[0], sess_b.run(1)[0])


def test_condition_schedule_switches():
    sess, _ = _session(condition_schedule=((0, 2), (16, 7)))
    assert sess.active_condition() == 2
    sess.step()  # now 16 frames generated
    assert sess.active_condition() == 7


def test_run_records_the_condition_each_clip_was_generated_with():
    # the switch to 7 lands exactly on the boundary after the first generated clip
    sess, _ = _session(condition_schedule=((0, 2), (16, 7)))
    _, records = sess.run(2)
    assert [r["condition"] for r in records] == [2, 7]


def test_condition_schedule_validation():
    enc, g = training.build_models(0)
    for schedule, match in ((((4, 1),), "must start at frame 0, its earliest entry is at 4"), ((), "is empty")):
        with pytest.raises(ValueError, match=match):
            RolloutSession(g, enc, seed=0, seed_clip=np.zeros((8, 8, 8, 4), np.float32), condition_schedule=schedule)


@pytest.mark.parametrize("schedule, frame", [(((0, 2), (0, 1)), 0), (((0, 1), (0, 2)), 0), (((0, 5), (8, 3), (8, 1)), 8)])
def test_condition_schedule_refuses_two_entries_at_one_frame(schedule, frame):
    """Such a schedule names two codes for one frame, and neither is the one to run."""
    enc, g = training.build_models(0)
    with pytest.raises(ValueError, match=f"two entries at frame {frame}"):
        RolloutSession(g, enc, seed=0, seed_clip=np.zeros((8, 8, 8, 4), np.float32), condition_schedule=schedule)


@pytest.mark.parametrize("code", [-1, 16, 2.7], ids=str)
def test_a_condition_code_outside_the_vocabulary_is_refused(code):
    """The default vocabulary is 16 codes: −1 would read code 15's row, 16 index past the table,
    and 2.7 run code 2."""
    match = "codes must be integers" if isinstance(code, float) else f"code {code} is outside the vocabulary of 16 codes"
    with pytest.raises(ValueError, match=match):  # at construction, before any clip is generated
        _session(condition_schedule=((0, 2), (16, code)))


def test_window_latents_tail():
    sess, seed_clip = _session(window_frames=5)
    win = sess.window_latents()
    assert win.shape == (5, 8, 8, 4)
    assert np.array_equal(win, seed_clip[-5:])
    sess.step()


class _Unread:
    """A history clip that fails any read."""

    def __getattr__(self, name):
        raise AssertionError(f"read .{name} of a clip outside the window")


def test_window_latents_reads_only_the_clips_it_covers():
    sess, _ = _session()
    rng = np.random.default_rng(0)
    clips = [rng.normal(size=(n, 8, 8, 4)).astype(np.float32) for n in (16, 8, 8, 8)]
    full = np.concatenate(clips)
    for w in (1, 7, 8, 9, 13, 16, 17, 24, 25, 39, 40, 41, 64):
        sess.window_frames, sess.history = w, list(clips)
        win = sess.window_latents()
        assert win.dtype == full.dtype and np.array_equal(win, full[-w:])
    sess.window_frames, sess.history = 13, [_Unread()] + clips[-2:]
    assert np.array_equal(sess.window_latents(), full[-13:])


def test_misaligned_seed_clip_rejected():
    enc, g = training.build_models(0)
    with pytest.raises(ValueError, match="misaligned"):
        RolloutSession(g, enc, seed=0, seed_clip=np.zeros((5, 8, 8, 4), np.float32))


def test_empty_session_errors():
    enc, g = training.build_models(0)
    with pytest.raises(TypeError, match="seed_clip"):  # the seed clip fixes the latent geometry
        RolloutSession(g, enc, seed=0)
    with pytest.raises(ValueError):
        _session()[0].run(0)


def test_tuple_seeded_session_runs():
    """Experiment recipes seed sessions with a (seed, stream) tuple."""
    sess_a, _ = _session(seed=(3, 0x2011))
    sess_b, _ = _session(seed=(3, 0x2011))
    assert np.array_equal(sess_a.run(1)[0], sess_b.run(1)[0])
