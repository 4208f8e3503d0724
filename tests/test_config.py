import pytest

from testtrim.config import (CORPUS_KEYS, MODEL_KEYS, RunConfig, config_from_text,
                             config_to_text, load_config, save_config)


def test_defaults_roundtrip_through_text():
    cfg = RunConfig()
    again = config_from_text(config_to_text(cfg))
    assert again == cfg
    # and the text itself is a fixed point
    assert config_to_text(again) == config_to_text(cfg)


def test_non_default_values_roundtrip(tmp_path):
    cfg = RunConfig(corpus_circuits=12, corpus_patterns="exhaustive",
                    corpus_seed=99, corpus_netlist_dir="benches",
                    split_train_fraction=0.5, model_kind="linear",
                    model_alpha=0.25, policy_tau=0.85, out_dir="runs/x")
    path = tmp_path / "cfg.txt"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_comments_and_blanks_ignored():
    cfg = config_from_text("# hello\n\ncorpus.circuits = 3  # trailing\n")
    assert cfg.corpus_circuits == 3


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown key"):
        config_from_text("corpus.wibble = 1\n")


def test_malformed_line_rejected():
    with pytest.raises(ValueError, match="key = value"):
        config_from_text("corpus.circuits 3\n")


def test_validation_rules():
    with pytest.raises(ValueError, match="model.kind"):
        config_from_text("model.kind = forest\n")
    with pytest.raises(ValueError, match="train_fraction"):
        config_from_text("split.train_fraction = 1.5\n")
    with pytest.raises(ValueError, match="policy.tau"):
        config_from_text("policy.tau = 2.0\n")
    for text, key in (("model.alpha = nan", "model.alpha"),
                      ("model.lambda = -1", "model.lambda"),
                      ("model.gamma = 0", "model.gamma"),
                      ("model.landmark_cap = 0", "model.landmark_cap"),
                      ("corpus.min_inputs = 9\ncorpus.max_inputs = 3", "corpus.min_inputs"),
                      ("corpus.max_gates = 0", "corpus.max_gates"),
                      ("corpus.seed = 5\ncorpus.seed = 6",
                       "config lines 1 and 2 both set 'corpus.seed'")):
        with pytest.raises(ValueError, match=key):
            config_from_text(text + "\n")


def test_numeric_range_edges_accepted():
    cfg = config_from_text("model.alpha = 0\nmodel.lambda = 0\nmodel.gamma = 1e-9\n"
                           "model.iterations = 1\nmodel.landmark_cap = 1\n"
                           "corpus.circuits = 1\ncorpus.min_inputs = 1\n"
                           "corpus.max_inputs = 1\ncorpus.min_gates = 1\n"
                           "corpus.max_gates = 1\n")
    assert (cfg.model_alpha, cfg.model_lambda, cfg.corpus_max_inputs,
            cfg.corpus_max_gates) == (0.0, 0.0, 1, 1)


def test_tau_auto_and_numeric():
    assert config_from_text("policy.tau = auto\n").policy_tau == "auto"
    assert config_from_text("policy.tau = 0.75\n").policy_tau == 0.75


def test_out_dir_can_be_omitted_from_echo():
    cfg = RunConfig(out_dir="somewhere/else")
    text = config_to_text(cfg, CORPUS_KEYS + MODEL_KEYS)
    assert "out.dir" not in text
    # parsing the echo leaves out_dir at its default
    assert config_from_text(text).out_dir == RunConfig().out_dir


def test_prefixes_pick_keys_in_file_order():
    cfg = RunConfig(model_alpha=1e305, policy_tau=0.9)
    assert config_to_text(cfg, MODEL_KEYS).splitlines() == [
        "model.kind = kernel-logistic", "model.alpha = 1e+305", "model.lambda = 1.0",
        "model.gamma = 1.0", "model.iterations = 2000", "model.landmark_cap = 512",
        "model.seed = 3", "policy.tau = 0.9"]
    assert config_from_text(config_to_text(cfg, MODEL_KEYS)) == RunConfig(
        model_alpha=1e305, policy_tau=0.9)
