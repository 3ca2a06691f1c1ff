"""Config parsing tests: the key = value format, schema enforcement, value
parsers and the round trip through format_config."""

import pytest

from motionmoe.config import (RUN_SCHEMA, SYNTH_SCHEMA, ConfigError,
                              format_config, model_config_from,
                              parse_config_file, parse_config_text,
                              schema_help, train_settings_from)


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
    def test_bool_spellings(self):
        for text, expected in [("true", True), ("1", True), ("Yes", True),
                               ("on", True), ("false", False), ("0", False),
                               ("No", False), ("off", False)]:
            values = parse_config_text(f"flip_back = {text}", RUN_SCHEMA)
            assert values["flip_back"] is expected
        with pytest.raises(ConfigError, match="not a boolean"):
            parse_config_text("flip_back = maybe", RUN_SCHEMA)

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
                "expert_pool = ST,TT\nn_experts = 2\nactive_experts = 2\n"
                "flip_back = false\nhorizons = 0.04,0.12\ndropout = 0.0\n")
        values = parse_config_text(text, RUN_SCHEMA)
        rendered = format_config(values, RUN_SCHEMA)
        assert parse_config_text(rendered, RUN_SCHEMA) == values

    def test_rendered_config_covers_schema(self):
        rendered = format_config(parse_config_text("", RUN_SCHEMA), RUN_SCHEMA)
        keys = [line.split(" = ")[0] for line in rendered.strip().splitlines()]
        assert keys == list(RUN_SCHEMA)

    def test_schema_help_mentions_every_key(self):
        text = schema_help(RUN_SCHEMA)
        for key in RUN_SCHEMA:
            assert key in text


class TestBridges:
    def test_model_config_from_values(self):
        values = parse_config_text(
            "joints = 3\nhistory_frames = 5\ntotal_frames = 8\nmodel_seed = 4\n",
            RUN_SCHEMA)
        cfg = model_config_from(values)
        assert (cfg.joints, cfg.history_frames, cfg.total_frames) == (3, 5, 8)
        assert cfg.seed == 4

    def test_invalid_combination_becomes_config_error(self):
        values = parse_config_text("history_frames = 80\n", RUN_SCHEMA)
        with pytest.raises(ConfigError, match="history_frames"):
            model_config_from(values)

    def test_train_settings_from_values(self):
        values = parse_config_text(
            "epochs = 3\nlr = 0.5\nlambda_hist = 0.2\nhorizons = 0.04\n",
            RUN_SCHEMA)
        settings = train_settings_from(values)
        assert settings.epochs == 3
        assert settings.base_lr == 0.5
        assert settings.loss.lambda_hist == 0.2
        assert settings.horizons == (0.04,)

    def test_negative_loss_weight_becomes_config_error(self):
        values = parse_config_text("alpha = -1\n", RUN_SCHEMA)
        with pytest.raises(ConfigError, match="non-negative"):
            train_settings_from(values)

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
            model_config_from(values)

    @pytest.mark.parametrize("key,value,message", [
        ("batch_size", "0", "batch_size must be >= 1"),
        ("lr", "0", "base_lr must be > 0"),
        ("lr", "nan", "base_lr must be > 0"),
        ("grad_clip", "-1", "grad_clip must be >= 0"),
        ("checkpoint_every", "-2", "checkpoint_every must be >= 0"),
        ("train_seed", "-1", "seed must be >= 0"),
        ("beta1", "1.5", r"beta1 must be in \[0, 1\)"),
        ("beta1", "-0.1", r"beta1 must be in \[0, 1\)"),
        ("beta2", "1", r"beta2 must be in \[0, 1\)"),
    ])
    def test_out_of_range_training_key_becomes_config_error(self, key, value, message):
        values = parse_config_text(f"{key} = {value}\n", RUN_SCHEMA)
        with pytest.raises(ConfigError, match=message):
            train_settings_from(values)

    def test_range_edges_are_accepted(self):
        values = parse_config_text("dt_rank = 0\nmodel_seed = 0\ngrad_clip = 0\n"
                                   "checkpoint_every = 0\nbeta1 = 0\nbatch_size = 1\n",
                                   RUN_SCHEMA)
        assert model_config_from(values).dt_rank == 0
        assert train_settings_from(values).beta1 == 0.0
