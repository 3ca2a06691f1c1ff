"""Config parsing tests: the key = value format, schema enforcement, value
parsers and the round trip through format_config."""

import pytest

from motionmoe.config import (RUN_SCHEMA, SYNTH_SCHEMA, ConfigError,
                              format_config, from_values, parse_config_file,
                              parse_config_text, schema_help)
from motionmoe.data import GeneratorSpec
from motionmoe.model import ModelConfig
from motionmoe.training import TrainSettings

DEFAULT_RUN_TEXT = """\
joints = 15
history_frames = 50
total_frames = 75
active_experts = 4
moe_layers = 1
expert_pool = ST,TT,TS,SS
scan_mode = bidirectional
expand = 2
state_dim = 16
conv_width = 4
dt_rank = 0
codec_hidden = 64
dropout = 0.1
scene_persons = 1
model_seed = 0
alpha = 1.0
beta = 1.0
lambda_hist = 0.1
epochs = 200
batch_size = 96
lr = 0.01
beta1 = 0.9
beta2 = 0.999
eps = 1e-08
grad_clip = 0.0
checkpoint_every = 0
train_seed = 0
dtype = float64
fps = 25.0
horizons = 0.2,0.6,1.0
root_joint = 0
train_data = 
val_data = 
out_dir = run
"""


class TestParsing:
    def test_defaults_fill_missing_keys(self):
        values = parse_config_text("", RUN_SCHEMA)
        assert values["joints"] == 15
        assert values["horizons"] == (0.2, 0.6, 1.0)
        assert values["expert_pool"] == ("ST", "TT", "TS", "SS")
        assert set(values) == set(RUN_SCHEMA)

    def test_comments_blank_lines_and_spacing(self):
        text = """
        # full-scale run
        joints = 13          # CHI3D-style skeleton
        epochs=5

        scan_mode =   forward
        """
        values = parse_config_text(text, RUN_SCHEMA)
        assert values["joints"] == 13
        assert values["epochs"] == 5
        assert values["scan_mode"] == "forward"

    def test_unknown_key_includes_location(self):
        with pytest.raises(ConfigError, match=r"my\.cfg:2: unknown key 'jonits'"):
            parse_config_text("epochs = 5\njonits = 15\n", RUN_SCHEMA, source="my.cfg")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key 'epochs'"):
            parse_config_text("epochs = 5\nepochs = 6\n", RUN_SCHEMA)

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_text("epochs 5\n", RUN_SCHEMA)

    def test_bad_value_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"<config>:1: bad value for 'epochs'"):
            parse_config_text("epochs = soon\n", RUN_SCHEMA)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config_file(tmp_path / "absent.cfg", RUN_SCHEMA)


class TestValueParsers:
    @pytest.mark.parametrize("key", ["n_experts", "flip_back"])
    def test_the_keys_removed_in_0_3_are_unknown(self, key):
        assert key not in RUN_SCHEMA
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config_text(f"{key} = 4", RUN_SCHEMA)

    def test_float_list(self):
        values = parse_config_text("horizons = 0.2, 0.6,1.0", RUN_SCHEMA)
        assert values["horizons"] == (0.2, 0.6, 1.0)

    def test_pool_uppercased(self):
        values = parse_config_text("expert_pool = st,tt, ts, ss", RUN_SCHEMA)
        assert values["expert_pool"] == ("ST", "TT", "TS", "SS")

    def test_mix_weights(self):
        values = parse_config_text("mix = walk:2, turn:1", SYNTH_SCHEMA)
        assert values["mix"] == {"walk": 2.0, "turn": 1.0}
        values = parse_config_text("mix = stop_go", SYNTH_SCHEMA)
        assert values["mix"] == {"stop_go": 1.0}
        with pytest.raises(ConfigError, match="unknown motion kind"):
            parse_config_text("mix = sprint:1", SYNTH_SCHEMA)


class TestRoundTrip:
    def test_format_then_parse_is_identity(self):
        text = ("joints = 3\nhistory_frames = 5\ntotal_frames = 8\n"
                "expert_pool = ST,TT\nactive_experts = 2\n"
                "horizons = 0.04,0.12\ndropout = 0.0\n")
        values = parse_config_text(text, RUN_SCHEMA)
        rendered = format_config(values, RUN_SCHEMA)
        assert parse_config_text(rendered, RUN_SCHEMA) == values

    def test_rendered_config_covers_schema(self):
        rendered = format_config(parse_config_text("", RUN_SCHEMA), RUN_SCHEMA)
        keys = [line.split(" = ")[0] for line in rendered.strip().splitlines()]
        assert keys == list(RUN_SCHEMA)

    def test_defaults_are_the_dataclasses_and_render_unchanged(self):
        values = parse_config_text("", RUN_SCHEMA)
        assert from_values(ModelConfig, values) == ModelConfig()
        assert from_values(TrainSettings, values) == TrainSettings(out_dir="run")
        assert format_config(values, RUN_SCHEMA) == DEFAULT_RUN_TEXT
        synth = parse_config_text("", SYNTH_SCHEMA)
        assert GeneratorSpec(**synth) == GeneratorSpec(frames=100)

    def test_dtype_accepts_only_float32_and_float64(self):
        assert parse_config_text("dtype = float32", RUN_SCHEMA)["dtype"] == "float32"
        with pytest.raises(ConfigError, match="bad value for 'dtype'"):
            parse_config_text("dtype = float16", RUN_SCHEMA)

    def test_schema_help_mentions_every_key(self):
        text = schema_help(RUN_SCHEMA)
        for key in RUN_SCHEMA:
            assert key in text


class TestBridges:
    def test_model_config_from_values(self):
        values = parse_config_text(
            "joints = 3\nhistory_frames = 5\ntotal_frames = 8\nmodel_seed = 4\n",
            RUN_SCHEMA)
        cfg = from_values(ModelConfig, values)
        assert (cfg.joints, cfg.history_frames, cfg.total_frames) == (3, 5, 8)
        assert cfg.seed == 4

    def test_invalid_combination_becomes_config_error(self):
        values = parse_config_text("history_frames = 80\n", RUN_SCHEMA)
        with pytest.raises(ConfigError, match="history_frames"):
            from_values(ModelConfig, values)

    def test_train_settings_from_values(self):
        values = parse_config_text(
            "epochs = 3\nlr = 0.5\nlambda_hist = 0.2\nhorizons = 0.04\n",
            RUN_SCHEMA)
        settings = from_values(TrainSettings, values)
        assert settings.epochs == 3
        assert settings.base_lr == 0.5
        assert settings.loss.lambda_hist == 0.2
        assert settings.horizons == (0.04,)

    def test_negative_loss_weight_becomes_config_error(self):
        values = parse_config_text("alpha = -1\n", RUN_SCHEMA)
        with pytest.raises(ConfigError, match="non-negative"):
            from_values(TrainSettings, values)

    @pytest.mark.parametrize("key,value,message", [
        ("expand", "0", "expand must be >= 1"),
        ("state_dim", "0", "state_dim must be >= 1"),
        ("conv_width", "0", "conv_width must be >= 1"),
        ("codec_hidden", "0", "codec_hidden must be >= 1"),
        ("dt_rank", "-3", "dt_rank must be >= 0"),
        ("model_seed", "-1", "seed must be >= 0"),
    ])
    def test_out_of_range_model_key_becomes_config_error(self, key, value, message):
        values = parse_config_text(f"{key} = {value}\n", RUN_SCHEMA)
        with pytest.raises(ConfigError, match=message):
            from_values(ModelConfig, values)

    @pytest.mark.parametrize("key,value,message", [
        ("epochs", "-1", "epochs must be >= 0"),
        ("batch_size", "0", "batch_size must be >= 1"),
        ("lr", "0", "base_lr must be > 0"),
        ("lr", "nan", "base_lr must be > 0"),
        ("grad_clip", "-1", "grad_clip must be >= 0"),
        ("checkpoint_every", "-2", "checkpoint_every must be >= 0"),
        ("train_seed", "-1", "seed must be >= 0"),
        ("beta1", "1.5", r"beta1 must be in \[0, 1\)"),
        ("beta1", "-0.1", r"beta1 must be in \[0, 1\)"),
        ("beta2", "1", r"beta2 must be in \[0, 1\)"),
        ("eps", "nan", "eps must be > 0 and finite"),
        ("eps", "-1", "eps must be > 0 and finite"),
        ("eps", "0", "eps must be > 0 and finite"),
        ("lr", "inf", "base_lr must be > 0 and finite"),
        ("fps", "inf", "fps must be > 0 and finite"),
        ("alpha", "nan", "non-negative and finite"),
        ("lambda_hist", "nan", "non-negative and finite"),
        ("beta", "inf", "non-negative and finite"),
    ])
    def test_out_of_range_training_key_becomes_config_error(self, key, value, message):
        values = parse_config_text(f"{key} = {value}\n", RUN_SCHEMA)
        with pytest.raises(ConfigError, match=message):
            from_values(TrainSettings, values)

    def test_range_edges_are_accepted(self):
        values = parse_config_text("dt_rank = 0\nmodel_seed = 0\ngrad_clip = 0\n"
                                   "checkpoint_every = 0\nbeta1 = 0\nbatch_size = 1\n",
                                   RUN_SCHEMA)
        assert from_values(ModelConfig, values).dt_rank == 0
        assert from_values(TrainSettings, values).beta1 == 0.0
