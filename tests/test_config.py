import pytest

from testtrim.config import (CORPUS_KEYS, MODEL_KEYS, RunConfig, config_from_text,
                             config_to_text, load_config, load_record, save_config)


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


def test_hash_inside_a_value_starts_no_comment(tmp_path):
    cfg = config_from_text("corpus.netlist_dir = benches/#1\n"
                           "corpus.circuits = 3\t# after a tab\n"
                           "#corpus.seed = 9\n")
    assert (cfg.corpus_netlist_dir, cfg.corpus_circuits, cfg.corpus_seed) == ("benches/#1", 3, 7)
    path = tmp_path / "config.txt"
    save_config(cfg, path, CORPUS_KEYS)
    assert load_config(path) == load_record(path, CORPUS_KEYS) == cfg


@pytest.mark.parametrize("value", ["benches #1", "#1", " benches", "benches\t", "a\nb", "a\rb"])
def test_value_that_would_not_read_back_is_refused(value):
    with pytest.raises(ValueError) as exc:
        config_to_text(RunConfig(corpus_netlist_dir=value), CORPUS_KEYS)
    assert str(exc.value) == (f"corpus.netlist_dir = {value!r} would not read back "
                              f"from a config file")


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


@pytest.mark.parametrize("text, overrides, message", [
    ("model.learning_rate = 1\n", (), "{path} line 1: unknown key 'model.learning_rate'"),
    ("\nsplit.train_fraction = 1.5\n", (),
     "{path} line 2: split.train_fraction must be in (0, 1), got 1.5"),
    ("corpus.patterns = 0\n", (),
     "{path} line 1: corpus.patterns must be at least 1 or 'exhaustive', got 0"),
    ("", [("--seed", "corpus.seed", "x")], "--seed: bad value for 'corpus.seed': 'x'"),
    ("", [("--tau", "policy.tau", "2")],
     "--tau: policy.tau must be in (0, 1) or 'auto', got 2.0"),
    # a file value is checked as it is read, before a flag replaces it
    ("policy.tau = 2\n", [("--tau", "policy.tau", "0.5")],
     "{path} line 1: policy.tau must be in (0, 1) or 'auto', got 2.0"),
    ("corpus.min_gates = 9\ncorpus.max_gates = 3\n", (),
     "{path}: corpus.min_gates 9 is above corpus.max_gates 3"),
], ids=["unknown key", "fraction out of range", "no pattern", "flag value does not parse",
        "flag value out of range", "file value out of range under a flag", "min above max"])
def test_errors_name_the_file_and_line_or_the_flag(tmp_path, text, overrides, message):
    path = tmp_path / "run.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        load_config(path, overrides)
    assert str(exc.value) == message.format(path=path)


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
