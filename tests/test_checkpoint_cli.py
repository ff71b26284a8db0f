"""Checkpoint format, config validation, and the command-line harness."""

import hashlib
import itertools
import json
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memctx import checkpoint, cli, compressor, config, data, diffusion, training
from memctx.tensor import Tensor, no_grad


# -- config ---------------------------------------------------------------------


def test_config_defaults_validate():
    cfg = config.validate_config({})
    assert cfg["training"]["steps"] == 2000
    assert cfg["encoder"]["rate"] == [4, 4, 2]


def test_config_rejects_unknown_key():
    with pytest.raises(config.ConfigError, match="unknown"):
        config.validate_config({"trainer": {}})
    with pytest.raises(config.ConfigError, match="unknown"):
        config.validate_config({"training": {"step": 10}})
    for flat in ({"training.steps": 10}, {"dataset.seed": 5}):  # a dotted path is not a top-level key
        with pytest.raises(config.ConfigError, match=f"unknown config key '{next(iter(flat))}'"):
            config.validate_config(flat)


def test_config_rejects_removed_dit_keys():
    for key, value in (("arch", "large_patchifier"), ("cross_attn", False)):
        with pytest.raises(config.ConfigError, match="unknown config key"):
            config.validate_config({"dit": {key: value}})
    cfg = config.validate_config({"encoder": {"variant": "large_patchifier"}})
    assert cfg["encoder"]["variant"] == "large_patchifier"


def test_cli_rejects_encoder_model_dim(tmp_path, capsys):
    """The encoder is as wide as dit.inner_dim; a separate width key would be ignored."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"encoder": {"model_dim": 32}}))
    assert cli.main(["pretrain", str(path)]) == cli.EXIT_CONFIG
    assert "unknown config key 'encoder.model_dim'" in capsys.readouterr().err


def test_config_field_validation():
    with pytest.raises(config.ConfigError, match="training.steps"):
        config.validate_config({"training": {"steps": 0}})
    with pytest.raises(config.ConfigError, match="r_h must be a power of two"):
        cli._build(config.validate_config({"encoder": {"rate": [3, 2, 1]}}))
    with pytest.raises(config.ConfigError, match="chunk length 8 not divisible by temporal rate 3"):
        cli._build(config.validate_config({"encoder": {"rate": [2, 2, 3]}}))


@pytest.mark.parametrize(
    "override",
    [
        {"training": {"lr": True}},
        {"training": {"steps": True}},
        {"dit": {"blocks": True}},
        {"encoder": {"rate": [4, 4, True]}},
        {"rollout": {"condition_schedule": [[False, 0]]}},
        {"diffusion": {"mu": False}},
    ],
    ids=["lr", "steps", "blocks", "rate", "schedule", "mu"],
)
def test_config_refuses_booleans_for_numbers(tmp_path, capsys, override):
    """JSON true/false load as bools, which Python counts as ints; no numeric field takes one."""
    with pytest.raises(config.ConfigError, match="invalid value"):
        config.validate_config(override)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(override))
    assert cli.main(["pretrain", str(path)]) == cli.EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err


@settings(max_examples=100, deadline=None)
@given(
    dim=st.sampled_from([8, 16, 32, 64, 96, 10, 48]),
    heads=st.sampled_from([1, 2, 4, 3]),
    vocab=st.integers(1, 40),
    first=st.sampled_from([0, 0, 0, 8, -8]),
    entries=st.lists(st.tuples(st.sampled_from([8, 16, 8, 0]), st.integers(-1, 20)), min_size=1, max_size=3),
    rate=st.tuples(st.sampled_from([1, 2, 4, 8, 3]), st.sampled_from([1, 2, 4, 8, 16]), st.integers(1, 4)),
    chunk_len=st.sampled_from([8, 24, 12, 4, 2, 6, 1, 5, 48]),
    variant=st.sampled_from(compressor.VARIANTS),
)
def test_config_that_validates_builds(dim, heads, vocab, first, entries, rate, chunk_len, variant):
    """A config is refused with a ConfigError, or its models build, the encoder compresses a desk
    history and the DiT embeds every scheduled code. Each start frame is the one before it plus
    a gap, so a schedule may start before or after frame 0, or name one frame twice (a 0 gap)."""
    starts = itertools.accumulate((gap for gap, _ in entries[1:]), initial=first)
    schedule = [[start, code] for start, (_, code) in zip(starts, entries)]
    user = {
        "dit": {"inner_dim": dim, "heads": heads, "blocks": 1},
        "dataset": {"vocab": vocab},
        "encoder": {"rate": list(rate), "chunk_len": chunk_len, "variant": variant},
        "rollout": {"condition_schedule": schedule},
    }
    try:
        enc, g = cli._build(config.validate_config(user))
    except config.ConfigError:
        return
    r_h, r_w, r_t = rate
    t, h, w, _ = data.DESK_LATENT
    with no_grad():
        ctx = enc.compress(np.zeros((1,) + data.DESK_LATENT, np.float32))
        rows = g.cond_emb(np.array([code for _, code in schedule]))
    assert ctx.length == (t // chunk_len) * (chunk_len // r_t) * (h // r_h) * (w // r_w)
    assert rows.shape == (len(schedule), dim)


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    with pytest.raises(config.ConfigError, match="JSON"):
        config.load_config(str(p))


# -- checkpoint format --------------------------------------------------------------


def _params(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "a.weight": Tensor(rng.normal(size=(4, 3)), requires_grad=True),
        "a.bias": Tensor(rng.normal(size=(3,)).astype(np.float32), requires_grad=True),
        "scalar": Tensor(np.float64(2.5), requires_grad=True),
    }


def test_checkpoint_round_trip_bitwise(tmp_path):
    path = str(tmp_path / "m.mcck")
    params = _params()
    cfg = {"seed": 1, "lr": 0.01}
    opt_arrays = {"m.a.weight": np.ones((4, 3), np.float64), "step": np.float64(7.0)}
    checkpoint.save_checkpoint(path, params, cfg, step=42, optimizer_arrays=opt_arrays)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the same config: no digest warning
        loaded, step, opt = checkpoint.load_checkpoint(path, cfg)
    assert step == 42
    for name, p in params.items():
        assert loaded[name].dtype == p.data.dtype
        assert np.array_equal(loaded[name], p.data)
    assert np.array_equal(opt["m.a.weight"], opt_arrays["m.a.weight"])


def test_checkpoint_digest_mismatch(tmp_path):
    path = str(tmp_path / "m.mcck")
    checkpoint.save_checkpoint(path, _params(), {"seed": 1}, step=1)
    with pytest.warns(UserWarning, match="different config"):
        params, step, _ = checkpoint.load_checkpoint(path, {"seed": 2})
    assert step == 1 and set(params) == set(_params())


def test_checkpoint_bad_magic(tmp_path):
    path = str(tmp_path / "junk.mcck")
    with open(path, "wb") as f:
        f.write(b"NOPE" + b"\x00" * 64)
    with pytest.raises(checkpoint.CheckpointMismatch, match="magic"):
        checkpoint.load_checkpoint(path)


def test_checkpoint_with_bytes_after_the_end_is_refused(tmp_path):
    path = tmp_path / "m.mcck"
    checkpoint.save_checkpoint(str(path), _params(), {"seed": 1}, step=1)
    path.write_bytes(path.read_bytes() + b"\x00" * 4)
    with pytest.raises(checkpoint.CheckpointMismatch, match="4 bytes after its end"):
        checkpoint.load_checkpoint(str(path))


def test_file_bytes_follow_the_documented_layouts(tmp_path):
    """MCTX: magic, version, shape, dtype tag, values. MCCK: magic, version, config digest,
    step, a table of (name length, name, ndim, shape, dtype tag, values), then a flag for
    the optimizer table that may follow."""
    for tag, dtype in enumerate((np.float32, np.float64)):
        arr = np.arange(2 * 1 * 3 * 2, dtype=dtype).reshape(2, 1, 3, 2)
        checkpoint.save_latents(str(tmp_path / "a.mctx"), arr)
        expected = b"MCTX" + struct.pack("<I4II", 1, 2, 1, 3, 2, tag) + arr.tobytes()
        assert (tmp_path / "a.mctx").read_bytes() == expected

    def table(name, arr, tag):  # a one-array table
        array_record = struct.pack(f"<I{arr.ndim}II", arr.ndim, *arr.shape, tag) + arr.tobytes()
        return struct.pack("<IH", 1, len(name)) + name.encode() + array_record

    weight = np.array([[1.5, -2.0, 0.25]], np.float32)
    moment = np.array([0.5, 4.0], np.float64)
    digest = hashlib.sha256(b'{"seed":1}').digest()
    head = b"MCCK" + struct.pack("<I", 2) + digest + struct.pack("<Q", 7) + table("w", weight, 0)
    path = tmp_path / "m.mcck"
    checkpoint.save_checkpoint(str(path), {"w": weight}, {"seed": 1}, step=7)
    assert path.read_bytes() == head + b"\x00"
    checkpoint.save_checkpoint(str(path), {"w": weight}, {"seed": 1}, step=7, optimizer_arrays={"m.w": moment})
    assert path.read_bytes() == head + b"\x01" + table("m.w", moment, 1)


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """A saved parameter table with optimizer state, and a path to write corrupt copies to."""
    tmp = tmp_path_factory.mktemp("corrupt")
    path = str(tmp / "m.mcck")
    opt_arrays = {"m.a.weight": np.ones((4, 3), np.float64), "step": np.float64(7.0)}
    checkpoint.save_checkpoint(path, _params(), {"seed": 1}, step=42, optimizer_arrays=opt_arrays)
    return open(path, "rb").read(), tmp / "corrupt.mcck"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupt_checkpoints_load_or_raise_mismatch(small_checkpoint, data):
    """Every truncation raises CheckpointMismatch; a one-byte flip either loads or
    raises CheckpointMismatch, never another exception."""
    blob, path = small_checkpoint
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    path.write_bytes(blob[:cut])
    with pytest.raises(checkpoint.CheckpointMismatch):
        checkpoint.load_checkpoint(str(path))

    at = data.draw(st.integers(0, len(blob) - 1), label="at")
    flipped = bytearray(blob)
    flipped[at] ^= data.draw(st.integers(1, 255), label="xor")
    path.write_bytes(bytes(flipped))
    try:
        params, step, opt = checkpoint.load_checkpoint(str(path))
    except checkpoint.CheckpointMismatch:
        return
    assert all(isinstance(a, np.ndarray) for a in params.values())
    assert isinstance(step, int) and (opt is None or isinstance(opt, dict))


def test_restore_into_shape_checked():
    params = _params()
    arrays = {k: p.data.copy() for k, p in params.items()}
    arrays["a.weight"] = np.zeros((2, 2))
    with pytest.raises(checkpoint.CheckpointMismatch, match="shape"):
        checkpoint.restore_into(params, arrays)
    del arrays["a.weight"]
    with pytest.raises(checkpoint.CheckpointMismatch, match="missing"):
        checkpoint.restore_into(params, arrays)
    arrays = {k: p.data.copy() for k, p in params.items()}
    arrays["b.weight"] = np.zeros((2, 2))
    with pytest.raises(checkpoint.CheckpointMismatch, match=r"the model lacks: \['b.weight'\]"):
        checkpoint.restore_into(params, arrays)


def test_restore_into_round_trips_model(tmp_path):
    enc, g = training.build_models(0)
    named = training.named_params(enc, g)
    path = str(tmp_path / "model.mcck")
    checkpoint.save_checkpoint(path, named, {"c": 1}, step=3)
    enc2, g2 = training.build_models(1)  # different init
    named2 = training.named_params(enc2, g2)
    loaded, _, _ = checkpoint.load_checkpoint(path)
    checkpoint.restore_into(named2, loaded)
    for name in named:
        assert np.array_equal(named[name].data, named2[name].data), name


# -- CLI ------------------------------------------------------------------------


def _tiny_cfg(tmp_path, **overrides):
    cfg = {
        "dataset": {"size": 2},
        "training": {"steps": 3, "batch": 1, "log_every": 1},
        "diffusion": {"sample_steps": 2},
        "rollout": {"n_steps": 1},
        "output": {"dir": str(tmp_path / "out")},
    }
    for block, vals in overrides.items():
        if isinstance(vals, dict):
            cfg.setdefault(block, {}).update(vals)
        else:  # a top-level field such as seed
            cfg[block] = vals
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_budget_prints_published_count(capsys):
    assert cli.main(["budget"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "561600" in out
    assert "4x4x2" in out


def test_cli_budget_csv(tmp_path, capsys):
    csv_path = str(tmp_path / "table.csv")
    assert cli.main(["budget", "--csv", csv_path]) == cli.EXIT_OK
    rows = open(csv_path).read().strip().splitlines()
    assert rows[0] == "rate,tokens,uncompressed,reduction,accounting"
    assert any(r.startswith("4x4x2,17550,561600,32") for r in rows)
    assert rows[1] == "1x1x1,561600,561600,1.0000,exact"
    assert rows[4] == "4x4x2,17550,561600,32.0000,total/volume"


BUDGET_TABLE = """\
uncompressed context length: 561600
    rate       tokens  reduction  accounting
   1x1x1       561600        1.0  exact
   2x2x1       140400        4.0  exact
   2x2x2        70200        8.0  exact
   4x4x2        17550       32.0  total/volume
   8x8x4         2193      256.1  total/volume
"""


def test_cli_budget_prints_the_table_and_nothing_on_stderr():
    """The default geometry's 4x4x2 and 8x8x4 rows do not tile the token grid: their rows say
    so, and the command prints no warning or source line."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from memctx import cli; sys.exit(cli.main(['budget']))"],
        capture_output=True, text=True, check=False, env={**os.environ, "PYTHONPATH": src},
    )
    assert run.returncode == cli.EXIT_OK
    assert run.stdout == BUDGET_TABLE
    assert run.stderr == ""


def test_cli_budget_warns_once_about_a_flooring_geometry(capsys):
    """A width the VAE stride does not divide floors with one warning, not one per budget call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        assert cli.main(["budget", "--width", "830"]) == cli.EXIT_OK
    flooring = [w for w in caught if "830 not divisible by 16, flooring" in str(w.message)]
    assert len(flooring) == 1
    assert capsys.readouterr().out.startswith("uncompressed context length: 550800\n")


def test_cli_pretrain_rollout_eval_pipeline(tmp_path, capsys):
    cfg_path = _tiny_cfg(tmp_path)
    assert cli.main(["pretrain", cfg_path]) == cli.EXIT_OK
    ckpt = str(tmp_path / "out" / "pretrain.mcck")
    assert os.path.exists(ckpt)
    assert os.path.exists(str(tmp_path / "out" / "pretrain.log"))

    assert cli.main(["rollout", cfg_path, ckpt]) == cli.EXIT_OK
    lat_path = str(tmp_path / "out" / "rollout.mctx")
    video = checkpoint.load_latents(lat_path)
    assert video.shape[0] == 16  # 8-frame seed clip + 1 generated clip

    out_json = str(tmp_path / "scores.json")
    assert cli.main(["eval", lat_path, lat_path, "--out", out_json]) == cli.EXIT_OK
    scores = json.load(open(out_json))
    assert scores["psnr"] == 99.0


def test_cli_finetune_from_pretrained(tmp_path, capsys):
    cfg_path = _tiny_cfg(tmp_path)
    assert cli.main(["pretrain", cfg_path]) == cli.EXIT_OK
    ckpt = str(tmp_path / "out" / "pretrain.mcck")
    assert cli.main(["finetune", cfg_path, "--pretrained", ckpt]) == cli.EXIT_OK
    assert os.path.exists(str(tmp_path / "out" / "finetune.mcck"))


def test_cli_pretrain_refuses_a_non_finite_loss(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(diffusion, "retrieval_loss", lambda *a, **kw: Tensor(np.array(np.nan)))
    assert cli.main(["pretrain", _tiny_cfg(tmp_path)]) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "training diverged at step 0" in err and "Traceback" not in err


def test_cli_finetune_refuses_a_one_chunk_history_before_building(tmp_path, capsys, monkeypatch):
    """A 24-frame chunk passes validation and pretrains, but a finetune step needs two chunks."""
    def no_models(*a, **kw):
        raise AssertionError("models built")

    monkeypatch.setattr(training, "build_models", no_models)
    cfg_path = _tiny_cfg(tmp_path, encoder={"chunk_len": 24})
    assert cli.main(["finetune", cfg_path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "encoder.chunk_len 24" in err and "two chunks per scene" in err and "Traceback" not in err


def test_cli_lora_finetune_from_plain_pretrain_checkpoint(tmp_path, capsys):
    """A LoRA fine-tune loads a plain pretrain checkpoint: base weights keep their names,
    the adapters start fresh, and the frozen bases come out as they went in."""
    assert cli.main(["pretrain", _tiny_cfg(tmp_path)]) == cli.EXIT_OK
    pretrain_path = str(tmp_path / "out" / "pretrain.mcck")
    pretrained, _, _ = checkpoint.load_checkpoint(pretrain_path)
    cfg_path = _tiny_cfg(tmp_path, dit={"lora_rank": 4})
    # a weights-only load checks names and shapes, not the config digest: no warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["finetune", cfg_path, "--pretrained", pretrain_path]) == cli.EXIT_OK
    assert [str(w.message) for w in caught] == []
    tuned, _, _ = checkpoint.load_checkpoint(str(tmp_path / "out" / "finetune.mcck"))
    wrapped = [name[: -len(".lora.A")] for name in tuned if name.endswith(".lora.A")]
    assert "dit.blocks.0.attn.wq" in wrapped and len(wrapped) == 4 + 7 * 4
    for base in wrapped:
        for suffix in (".w", ".b"):
            assert np.array_equal(tuned[base + suffix], pretrained[base + suffix]), base + suffix
    assert set(tuned) - set(pretrained) == {f"{b}.lora.{m}" for b in wrapped for m in "AB"}
    assert cli.main(["rollout", cfg_path, str(tmp_path / "out" / "finetune.mcck")]) == cli.EXIT_OK


def test_cli_refuses_position_named_dit_checkpoint(tmp_path, capsys):
    """Checkpoints that named DiT parameters by position (``dit.p000`` …) no longer load."""
    cfg_path = _tiny_cfg(tmp_path)
    assert cli.main(["pretrain", cfg_path]) == cli.EXIT_OK
    params, step, _ = checkpoint.load_checkpoint(str(tmp_path / "out" / "pretrain.mcck"))
    dit_names = [name for name in params if name.startswith("dit.")]
    old = {name: a for name, a in params.items() if not name.startswith("dit.")}
    old.update({f"dit.p{i:03d}": params[name] for i, name in enumerate(dit_names)})
    path = str(tmp_path / "old.mcck")
    checkpoint.save_checkpoint(path, old, config.load_config(cfg_path), step)
    capsys.readouterr()
    assert cli.main(["finetune", cfg_path, "--pretrained", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "missing parameters" in err and "Traceback" not in err


def test_cli_refuses_grid_keyed_position_table_checkpoint(tmp_path, capsys):
    """Checkpoints that keyed the chunk-position table by its token count (``enc.pos.16``) no longer load."""
    cfg_path = _tiny_cfg(tmp_path)
    assert cli.main(["pretrain", cfg_path]) == cli.EXIT_OK
    params, step, _ = checkpoint.load_checkpoint(str(tmp_path / "out" / "pretrain.mcck"))
    params["enc.pos.16"] = params.pop("enc.pos")
    path = str(tmp_path / "old.mcck")
    checkpoint.save_checkpoint(path, params, config.load_config(cfg_path), step)
    capsys.readouterr()
    assert cli.main(["rollout", cfg_path, path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "missing parameters" in err and "enc.pos" in err and "Traceback" not in err


def test_cli_refuses_a_2048_row_context_marker_checkpoint(tmp_path, capsys):
    """The context marker is one row; checkpoints of the 2,048-row table exit 2."""
    cfg_path = _tiny_cfg(tmp_path)
    assert cli.main(["pretrain", cfg_path]) == cli.EXIT_OK
    params, step, _ = checkpoint.load_checkpoint(str(tmp_path / "out" / "pretrain.mcck"))
    assert params["dit.ctx_emb.table"].shape == (1, 64)
    params["dit.ctx_emb.table"] = np.zeros((2048, 64), np.float32)
    path = str(tmp_path / "old.mcck")
    checkpoint.save_checkpoint(path, params, config.load_config(cfg_path), step)
    capsys.readouterr()
    assert cli.main(["rollout", cfg_path, path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "shape mismatch for dit.ctx_emb.table" in err and "Traceback" not in err


def test_cli_refuses_a_checkpoint_with_an_array_the_model_lacks(tmp_path, capsys):
    """A checkpoint that still holds a deleted table (here the old temporal position table)
    exits 2 for rollout and for a fine-tune from it, rather than loading without it."""
    cfg_path = _tiny_cfg(tmp_path)
    assert cli.main(["pretrain", cfg_path]) == cli.EXIT_OK
    params, step, _ = checkpoint.load_checkpoint(str(tmp_path / "out" / "pretrain.mcck"))
    params["dit.temporal_emb.table"] = np.zeros((192, 64), np.float32)
    path = str(tmp_path / "old.mcck")
    checkpoint.save_checkpoint(path, params, config.load_config(cfg_path), step)
    for argv in (["rollout", cfg_path, path], ["finetune", cfg_path, "--pretrained", path]):
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "the model lacks: ['dit.temporal_emb.table']" in err and "Traceback" not in err


def test_cli_resume_matches_straight_run(tmp_path):
    """3 steps straight == 2 steps + checkpointed resume for 1 more, bitwise."""
    cfg_a = _tiny_cfg(tmp_path, output={"dir": str(tmp_path / "a")})
    assert cli.main(["pretrain", cfg_a]) == cli.EXIT_OK

    short = json.load(open(cfg_a))
    short["training"]["steps"] = 2
    short["output"] = {"dir": str(tmp_path / "b")}
    cfg_b = tmp_path / "cfg_b.json"
    cfg_b.write_text(json.dumps(short))
    assert cli.main(["pretrain", str(cfg_b)]) == cli.EXIT_OK

    short["training"]["steps"] = 3
    cfg_b.write_text(json.dumps(short))
    ckpt_b = str(tmp_path / "b" / "pretrain.mcck")
    assert cli.main(["pretrain", str(cfg_b), "--resume", ckpt_b]) == cli.EXIT_OK

    pa, sa, _ = checkpoint.load_checkpoint(str(tmp_path / "a" / "pretrain.mcck"))
    pb, sb, _ = checkpoint.load_checkpoint(ckpt_b)
    assert sa == sb == 3
    for name in pa:
        assert np.array_equal(pa[name], pb[name]), name


def test_cli_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["pretrain", missing]) == cli.EXIT_CONFIG

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"training": {"steps": -1}}))
    assert cli.main(["pretrain", str(bad)]) == cli.EXIT_CONFIG

    cfg_path = _tiny_cfg(tmp_path)
    junk = tmp_path / "junk.mcck"
    junk.write_bytes(b"NOPE" + b"\x00" * 64)
    assert cli.main(["rollout", cfg_path, str(junk)]) == cli.EXIT_CONFIG


@pytest.mark.parametrize(
    "override, message",
    [
        ({"dit": {"heads": 3}}, "inner_dim 64 must be 3 heads of a multiple of 8 features"),
        ({"dit": {"inner_dim": 10, "heads": 2}}, "inner_dim 10 must be 2 heads of a multiple of 8 features"),
        ({"dit": {"inner_dim": 48, "heads": 4}}, "inner_dim 48 must be 4 heads of a multiple of 8 features"),
        ({"rollout": {"condition_schedule": [[0, -1]]}}, "code -1 is outside the vocabulary of 16 codes [0, 16)"),
        ({"dataset": {"vocab": 4}, "rollout": {"condition_schedule": [[0, 0], [8, 4]]}}, "code 4 is outside the vocabulary of 4 codes [0, 4)"),
        ({"rollout": {"condition_schedule": [[0, 5], [8, 3], [8, 1]]}}, "has two entries at frame 8"),
        ({"diffusion": {"mu": float("inf")}}, "diffusion.mu: inf"),
        ({"diffusion": {"mu": float("nan")}}, "diffusion.mu: nan"),
        ({"seed": -1}, "invalid value for seed: -1"),
        ({"dataset": {"seed": -5}}, "invalid value for dataset.seed: -5"),
        ({"training": {"lr": 10**400}}, "invalid value for training.lr: 1000"),  # JSON loads it as an int
    ],
    ids=["heads", "inner_dim", "head_width", "negative_code", "code_past_vocab", "repeated_start", "infinite_mu",
         "nan_mu", "negative_seed", "negative_dataset_seed", "lr_past_float"],
)
def test_cli_config_its_models_cannot_use_is_config_error(tmp_path, capsys, override, message):
    """Each of these validated and then failed mid-run (or trained on a non-finite constant);
    a negative seed fails in numpy's SeedSequence unless validation refuses it."""
    cfg_path = _tiny_cfg(tmp_path, **override)  # json writes inf and nan as Infinity and NaN
    assert cli.main(["pretrain", cfg_path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_cli_rollout_refuses_a_schedule_not_starting_at_frame_0(tmp_path, capsys):
    """Such a schedule is a config error (exit 2) when the CLI builds its models, before the
    checkpoint loads."""
    assert cli.main(["pretrain", _tiny_cfg(tmp_path)]) == cli.EXIT_OK
    ckpt = str(tmp_path / "out" / "pretrain.mcck")
    for schedule, first in (([[8, 0]], 8), ([[-1, 0]], -1), ([[16, 1], [8, 0]], 8)):
        cfg_path = _tiny_cfg(tmp_path, rollout={"condition_schedule": schedule})
        capsys.readouterr()
        assert cli.main(["rollout", cfg_path, ckpt]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"must start at frame 0, its earliest entry is at {first}" in err and "Traceback" not in err


def test_cli_refuses_a_version_1_checkpoint(tmp_path, capsys):
    """Version 1 checkpoints were trained with context tokens as joint rows; they exit 2."""
    cfg_path = _tiny_cfg(tmp_path)
    assert cli.main(["pretrain", cfg_path]) == cli.EXIT_OK
    blob = bytearray(open(str(tmp_path / "out" / "pretrain.mcck"), "rb").read())
    assert blob[4:8] == (2).to_bytes(4, "little")
    blob[4:8] = (1).to_bytes(4, "little")
    old = tmp_path / "v1.mcck"
    old.write_bytes(bytes(blob))
    for argv in (["rollout", cfg_path, str(old)], ["finetune", cfg_path, "--pretrained", str(old)]):
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unsupported checkpoint version 1" in err and "Traceback" not in err


def test_cli_condition_table_follows_the_dataset_vocabulary(tmp_path):
    """A vocabulary past the default 16 codes trains and rolls out with its own codes."""
    cfg_path = _tiny_cfg(tmp_path, dataset={"vocab": 64}, rollout={"condition_schedule": [[0, 63]]})
    assert cli.main(["pretrain", cfg_path]) == cli.EXIT_OK
    ckpt = str(tmp_path / "out" / "pretrain.mcck")
    params, _, _ = checkpoint.load_checkpoint(ckpt)
    assert params["dit.cond_emb.table"].shape == (64, 64)
    assert cli.main(["rollout", cfg_path, ckpt]) == cli.EXIT_OK


def test_cli_directory_in_place_of_a_file_is_config_error(tmp_path, capsys):
    """An OSError other than a missing file (here IsADirectoryError) exits 2, not with a traceback."""
    assert cli.main(["pretrain", str(tmp_path)]) == cli.EXIT_CONFIG
    assert cli.main(["eval", str(tmp_path), str(tmp_path)]) == cli.EXIT_CONFIG
    assert "Is a directory" in capsys.readouterr().err


def test_cli_config_that_is_not_text_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "binary.json"
    cfg.write_bytes(b"\xff\xfe\x00garbage")
    assert cli.main(["pretrain", str(cfg)]) == cli.EXIT_CONFIG
    assert "not valid JSON" in capsys.readouterr().err


def _corrupt_latents(path, how):
    checkpoint.save_latents(str(path), np.zeros((2, 4, 4, 4), np.float32))
    raw = path.read_bytes()
    overflow = raw[:8] + struct.pack("<4I", *[1 << 16] * 4) + raw[24:28]  # 2**64 values, which an int64 product wraps to 0
    corrupt = {
        "magic": b"NOPE" + raw[4:],
        "header": raw[:10],
        "payload": raw[:-4],
        "trailing": raw + b"\x00",
        "overflow": overflow,
    }
    path.write_bytes(corrupt[how])


@pytest.mark.parametrize("how", ["magic", "header", "payload", "trailing", "overflow"])
def test_cli_eval_corrupt_latent_file_is_config_error(tmp_path, capsys, how):
    good, bad = tmp_path / "good.mctx", tmp_path / "bad.mctx"
    checkpoint.save_latents(str(good), np.zeros((2, 4, 4, 4), np.float32))
    _corrupt_latents(bad, how)
    assert cli.main(["eval", str(bad), str(good)]) == cli.EXIT_CONFIG
    assert cli.main(["eval", str(good), str(bad)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("other_shape", [(2, 8, 8, 4), (0, 4, 4, 4)])
def test_cli_eval_latents_it_cannot_compare_are_config_error(tmp_path, capsys, other_shape):
    a, b = tmp_path / "a.mctx", tmp_path / "b.mctx"
    checkpoint.save_latents(str(a), np.zeros((2, 4, 4, 4), np.float32))
    checkpoint.save_latents(str(b), np.zeros(other_shape, np.float32))
    assert cli.main(["eval", str(a), str(b)]) == cli.EXIT_CONFIG
    assert "cannot compare" in capsys.readouterr().err


@pytest.mark.parametrize("shape", [(2, 0, 8, 4), (2, 8, 0, 4), (2, 8, 8, 0)], ids=["no_rows", "no_columns", "no_channels"])
def test_cli_eval_frames_with_no_pixels_are_config_error(tmp_path, capsys, shape):
    path = str(tmp_path / "a.mctx")
    checkpoint.save_latents(path, np.zeros(shape, np.float32))
    assert cli.main(["eval", path, path]) == cli.EXIT_CONFIG
    assert "cannot compare" in capsys.readouterr().err


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_cli_eval_non_finite_latents_are_config_error(tmp_path, capsys, value):
    """A NaN or an infinity would make the scores NaN, which strict JSON parsers reject."""
    latents = np.zeros((2, 8, 8, 4), np.float32)
    latents[1, 2, 3, 0] = value
    path = str(tmp_path / "a.mctx")
    checkpoint.save_latents(path, latents)
    assert cli.main(["eval", path, path]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "cannot compare" in captured.err and captured.out == ""


@pytest.mark.parametrize("value", [1e154, 1e80], ids=["psnr_difference", "ssim_product"])
def test_cli_eval_latents_whose_scores_overflow_are_config_error(tmp_path, capsys, value):
    """Finite float64 values past 1e75: checkerboards of +-1e154 against their negation
    overflow PSNR's squared difference, and of +-1e80 SSIM's products of four values."""
    a, b = tmp_path / "a.mctx", tmp_path / "b.mctx"
    latents = np.zeros((2, 8, 8, 4))
    latents[1] = value * (-1.0) ** np.indices((8, 8, 4)).sum(axis=0)
    checkpoint.save_latents(str(a), latents)
    checkpoint.save_latents(str(b), -latents)
    assert cli.main(["eval", str(a), str(b)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "cannot compare" in captured.err and captured.out == ""


def test_cli_eval_scores_latents_at_the_magnitude_bound(tmp_path, capsys):
    """Checkerboards of +-1e75 against their negation score without an overflow warning."""
    a, b = tmp_path / "a.mctx", tmp_path / "b.mctx"
    latents = np.zeros((2, 8, 8, 4))
    latents[1] = 1e75 * (-1.0) ** np.indices((8, 8, 4)).sum(axis=0)
    checkpoint.save_latents(str(a), latents)
    checkpoint.save_latents(str(b), -latents)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["eval", str(a), str(b)]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["frames_compared"] == 2


def test_cli_eval_ignores_frames_past_the_shorter_file(tmp_path, capsys):
    """Only the first frames of both files are compared, so a NaN after them is not read."""
    a, b = tmp_path / "a.mctx", tmp_path / "b.mctx"
    latents = np.zeros((3, 8, 8, 4), np.float32)
    checkpoint.save_latents(str(b), latents[:2])
    latents[2] = np.nan
    checkpoint.save_latents(str(a), latents)
    assert cli.main(["eval", str(a), str(b)]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["frames_compared"] == 2


@pytest.mark.parametrize("shape", [(2, 4, 8, 4), (2, 8, 4, 4)], ids=["short", "narrow"])
def test_cli_eval_fits_the_ssim_window_to_small_frames(tmp_path, capsys, shape):
    """The SSIM window shrinks to the smaller of a frame's height and width."""
    path = str(tmp_path / "a.mctx")
    checkpoint.save_latents(path, np.random.default_rng(3).normal(size=shape).astype(np.float32))
    assert cli.main(["eval", path, path]) == cli.EXIT_OK
    scores = json.loads(capsys.readouterr().out)
    assert scores["frames_compared"] == 2 and scores["ssim"] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "args",
    [
        ["--width", "0"],
        ["--height", "-480"],
        ["--fps", "nan"],
        ["--fps", "-24", "--duration", "-60"],  # the product alone would pass
        ["--duration", "inf"],
        ["--vae-spatial", "0"],
        ["--vae-temporal", "-4"],
        ["--width", "8"],  # positive, but less than one token wide
        ["--fps", "1e308", "--duration", "10"],  # each finite, the frame count not
    ],
)
def test_cli_budget_rejects_bad_geometry_as_config_error(args, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # flooring warnings on the way to the zero-token error
        assert cli.main(["budget", *args]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error:")


def test_cli_experiment_unknown_recipe(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["experiment", "nope"])
    assert exit_info.value.code == cli.EXIT_CONFIG
    assert "invalid choice: 'nope'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [["--scenes", "0"], ["--pretrain-steps", "-1"], ["--seeds", "-1"], ["--seeds", "0", "0"]],
    ids=["no_scenes", "negative_steps", "negative_seed", "repeated_seed"],
)
def test_cli_experiment_rejects_bad_recipe_before_training(args, tmp_path, capsys, monkeypatch):
    def no_training(*a, **kw):
        raise AssertionError("training ran")

    monkeypatch.setattr(training, "pretrain_retrieval", no_training)
    monkeypatch.setattr(training, "finetune_next_clip", no_training)
    argv = ["experiment", "pretrain", "--seeds", "0", "--pretrain-steps", "1", "--finetune-steps", "1",
            "--out-dir", str(tmp_path), *args]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_cli_large_patchifier_pretrain_finetune_rollout(tmp_path, capsys):
    cfg_path = _tiny_cfg(tmp_path, encoder={"variant": "large_patchifier"})
    out = tmp_path / "out"
    pretrained = str(out / "pretrain.mcck")
    assert cli.main(["pretrain", cfg_path]) == cli.EXIT_OK
    params, _, _ = checkpoint.load_checkpoint(pretrained)
    assert params["enc.patch_proj.w"].shape == (64, 2 * 4 * 4 * 4)
    assert not any(name.startswith("enc.conv") for name in params)
    assert cli.main(["finetune", cfg_path, "--pretrained", pretrained]) == cli.EXIT_OK
    assert cli.main(["rollout", cfg_path, str(out / "finetune.mcck")]) == cli.EXIT_OK
    assert checkpoint.load_latents(str(out / "rollout.mctx")).shape[0] == 16


def test_cli_resume_digest_ignores_step_budget_only(tmp_path):
    """Raising training.steps on resume is no config change; changing training.lr is."""
    cfg_path = _tiny_cfg(tmp_path, training={"steps": 2})
    assert cli.main(["pretrain", cfg_path]) == cli.EXIT_OK
    ckpt = str(tmp_path / "first.mcck")
    os.replace(str(tmp_path / "out" / "pretrain.mcck"), ckpt)

    longer = _tiny_cfg(tmp_path, training={"steps": 3}, output={"dir": str(tmp_path / "more")})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["pretrain", longer, "--resume", ckpt]) == cli.EXIT_OK
    assert not [w for w in caught if "different config" in str(w.message)]

    changed = _tiny_cfg(tmp_path, training={"steps": 3, "lr": 1e-3})
    with pytest.warns(UserWarning, match="different config"):
        assert cli.main(["pretrain", changed, "--resume", ckpt]) == cli.EXIT_OK


def test_cli_resume_past_the_step_budget_is_config_error(tmp_path, capsys):
    """A step-4 checkpoint resumed under 2 steps exits 2 and writes nothing; under 4 steps it is a no-op."""
    assert cli.main(["pretrain", _tiny_cfg(tmp_path, training={"steps": 4})]) == cli.EXIT_OK
    ckpt = str(tmp_path / "out" / "pretrain.mcck")
    params, _, _ = checkpoint.load_checkpoint(ckpt)

    shorter = _tiny_cfg(tmp_path, training={"steps": 2}, output={"dir": str(tmp_path / "short")})
    capsys.readouterr()
    assert cli.main(["pretrain", shorter, "--resume", ckpt]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "at step 4, past training.steps 2" in err and "Traceback" not in err
    assert not os.path.exists(tmp_path / "short" / "pretrain.mcck")

    same = _tiny_cfg(tmp_path, training={"steps": 4}, output={"dir": str(tmp_path / "same")})
    assert cli.main(["pretrain", same, "--resume", ckpt]) == cli.EXIT_OK
    again, step, opt = checkpoint.load_checkpoint(str(tmp_path / "same" / "pretrain.mcck"))
    assert step == 4 and opt["adam.step"][0] == 4
    assert all(np.array_equal(params[name], again[name]) for name in params)


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trained")
    cfg_path = _tiny_cfg(tmp)
    assert cli.main(["pretrain", cfg_path]) == cli.EXIT_OK
    return cfg_path, open(str(tmp / "out" / "pretrain.mcck"), "rb").read()


@pytest.mark.parametrize("cut", [20, 5000, -1], ids=["header", "param_table", "last_byte"])
def test_cli_truncated_checkpoint_is_config_error(trained_checkpoint, tmp_path, capsys, cut):
    cfg_path, blob = trained_checkpoint
    short = tmp_path / "short.mcck"
    short.write_bytes(blob[:cut])
    assert cli.main(["rollout", cfg_path, str(short)]) == cli.EXIT_CONFIG
    assert "truncated" in capsys.readouterr().err


def test_cli_checkpoint_with_bytes_after_the_end_is_config_error(trained_checkpoint, tmp_path, capsys):
    cfg_path, blob = trained_checkpoint
    long = tmp_path / "long.mcck"
    long.write_bytes(blob + b"\x00" * 4)
    assert cli.main(["rollout", cfg_path, str(long)]) == cli.EXIT_CONFIG
    assert "bytes after its end" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["name_not_utf8", "shape_past_the_file"])
def test_cli_corrupt_checkpoint_is_config_error(trained_checkpoint, tmp_path, capsys, field):
    """A first parameter name that is not UTF-8, or a first shape entry of 2**31
    (gigabytes of payload in a small file), exits 2 with an error line."""
    cfg_path, blob = trained_checkpoint
    blob = bytearray(blob)
    name_at = 4 + 4 + 32 + 8 + 4 + 2  # magic, version, digest, step, count, name length
    name_len = int.from_bytes(blob[name_at - 2 : name_at], "little")
    if field == "name_not_utf8":
        blob[name_at] = 0xFF
    else:
        shape_at = name_at + name_len + 4  # past the name and its dimension count
        blob[shape_at : shape_at + 4] = (2**31).to_bytes(4, "little")
    bad = tmp_path / "bad.mcck"
    bad.write_bytes(bytes(blob))
    assert cli.main(["rollout", cfg_path, str(bad)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_cli_rollout_past_frame_191_runs(tmp_path, capsys):
    """24 clips reach frame 199, past the 192 frames the DiT's position tables used to hold."""
    cfg_path = _tiny_cfg(tmp_path, training={"steps": 1}, rollout={"n_steps": 24})
    assert cli.main(["pretrain", cfg_path]) == cli.EXIT_OK
    ckpt = str(tmp_path / "out" / "pretrain.mcck")
    assert cli.main(["rollout", cfg_path, ckpt]) == cli.EXIT_OK
    video = checkpoint.load_latents(str(tmp_path / "out" / "rollout.mctx"))
    assert video.shape[0] == 8 + 24 * 8
    assert np.isfinite(video).all()


def test_resume_from_float64_checkpoint_is_float32(tmp_path):
    """Checkpoints written with float64 parameters and moments resume in the default dtype."""
    cfg_path = _tiny_cfg(tmp_path, training={"steps": 2})
    assert cli.main(["pretrain", cfg_path]) == cli.EXIT_OK
    ckpt = str(tmp_path / "out" / "pretrain.mcck")
    params, step, opt = checkpoint.load_checkpoint(ckpt)
    assert {a.dtype for a in params.values()} == {np.dtype(np.float32)}
    old = str(tmp_path / "float64.mcck")
    checkpoint.save_checkpoint(
        old,
        {k: a.astype(np.float64) for k, a in params.items()},
        config.load_config(cfg_path),
        step,
        {k: a.astype(np.float64) for k, a in opt.items()},
    )

    longer = _tiny_cfg(tmp_path, training={"steps": 3}, output={"dir": str(tmp_path / "resumed")})
    assert cli.main(["pretrain", longer, "--resume", old]) == cli.EXIT_OK
    params, step, opt = checkpoint.load_checkpoint(str(tmp_path / "resumed" / "pretrain.mcck"))
    assert step == 3
    assert {a.dtype for a in params.values()} == {np.dtype(np.float32)}
    moments = [a for k, a in opt.items() if k.startswith(("adam.m.", "adam.v."))]
    assert len(moments) == 2 * len(params)
    assert {a.dtype for a in moments} == {np.dtype(np.float32)}


def test_cli_resume_refuses_optimizer_state_under_other_names(tmp_path, capsys):
    """Moments are keyed by parameter name: position-keyed state (as older
    checkpoints wrote it) and state naming a parameter the model lacks both exit 2."""
    cfg_path = _tiny_cfg(tmp_path, training={"steps": 2})
    assert cli.main(["pretrain", cfg_path]) == cli.EXIT_OK
    params, step, opt = checkpoint.load_checkpoint(str(tmp_path / "out" / "pretrain.mcck"))
    assert {k[len("adam.m."):] for k in opt if k.startswith("adam.m.")} == set(params)

    names = list(training.named_params(*cli._build(config.load_config(cfg_path))))
    positional = {"adam.step": opt["adam.step"]}
    for i, name in enumerate(names):
        positional[f"adam.m.{i}"] = opt[f"adam.m.{name}"]
        positional[f"adam.v.{i}"] = opt[f"adam.v.{name}"]
    renamed = dict(opt)
    renamed["adam.m.enc.conv9.w"] = renamed.pop("adam.m.enc.conv0.w")
    renamed["adam.v.enc.conv9.w"] = renamed.pop("adam.v.enc.conv0.w")

    longer = _tiny_cfg(tmp_path, training={"steps": 3})
    for label, state in (("positional", positional), ("renamed", renamed)):
        path = str(tmp_path / f"{label}.mcck")
        checkpoint.save_checkpoint(path, params, config.load_config(cfg_path), step, state)
        capsys.readouterr()
        assert cli.main(["pretrain", longer, "--resume", path]) == cli.EXIT_CONFIG, label
        err = capsys.readouterr().err
        assert "does not fit this model" in err and "Traceback" not in err


@pytest.mark.parametrize("fault", ["misshaped", "unknown"])
def test_cli_resume_checks_the_second_moments_as_the_first(tmp_path, capsys, fault):
    """A second moment of the wrong shape, or one under a name the model lacks, exits 2 on resume."""
    cfg_path = _tiny_cfg(tmp_path, training={"steps": 2})
    assert cli.main(["pretrain", cfg_path]) == cli.EXIT_OK
    params, step, opt = checkpoint.load_checkpoint(str(tmp_path / "out" / "pretrain.mcck"))
    if fault == "misshaped":
        opt["adam.v.dit.blocks.0.attn.wk.b"] = np.zeros(3, np.float32)
    else:
        opt["adam.v.ghost"] = np.zeros(2, np.float32)
    path = str(tmp_path / f"{fault}.mcck")
    checkpoint.save_checkpoint(path, params, config.load_config(cfg_path), step, opt)
    capsys.readouterr()
    longer = _tiny_cfg(tmp_path, training={"steps": 3})
    assert cli.main(["pretrain", longer, "--resume", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "does not fit this model" in err and "adam.v." in err and "Traceback" not in err
