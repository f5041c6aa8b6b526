"""Command-line interface: subcommands, config handling, outputs, exit codes.

Most tests drive ``main(argv)`` in-process (it returns the exit code), with
one subprocess check that the installed console script is wired up.
"""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from ppdattack.harness import sep
from ppdattack.harness.cli import main
from ppdattack.harness.config import ExperimentConfig
from ppdattack.harness.sep import prepare_experiment


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


SYNTH_DOC = {"seed": 11, "dataset": {"n": 20, "beta": [1.0, -1.0], "sigma2": 1.0}}

POINT_DOC = {
    "seed": 11,
    "dataset": {"n": 200},
    "attack": {
        "type": "point",
        "eps_grid": [0.0, 0.3],
        "x0": [-0.1, 0.2],
        "repeats": 2,
        "strategies": ["analytic", "sgd"],
        "metric_mode": "exact",
        "optimizer": {"T": 30, "N": 8, "M": 8},
    },
}

GRADCHECK_DOC = {
    "seed": 3,
    "replicates": 600,
    "N": 16,
    "M": 16,
    "include_control": False,
    "mlmc": {"Lmax": 2},
}

ENTROPY_DOC = {
    "seed": 5,
    "n_id": 2,
    "n_ood": 2,
    "eps_grid": [0.0, 0.5],
    "T": 40,
    "N": 32,
    "M": 32,
    "bank_size": 200,
    "chain_burn_in": 300,
    "chain_thin": 2,
    "entropy_draws": 96,
    "retention_grid": [0.5, 1.0],
}


def test_synth_writes_dataset(tmp_path):
    cfg = write_config(tmp_path, SYNTH_DOC)
    out = tmp_path / "a"
    assert main(["synth", cfg, "--output-dir", str(out)]) == 0
    rows = read_rows(out / "synthetic.csv")
    assert rows[0] == ["x_0", "x_1", "y"]
    assert len(rows) == 21
    # every cell round-trips as a float
    np.array(rows[1:], dtype=float)


def test_synth_reproducible_and_seed_override(tmp_path):
    cfg = write_config(tmp_path, SYNTH_DOC)
    for d in ("a", "b", "c"):
        (tmp_path / d).mkdir()
    main(["synth", cfg, "--output-dir", str(tmp_path / "a")])
    main(["synth", cfg, "--output-dir", str(tmp_path / "b")])
    assert (tmp_path / "a" / "synthetic.csv").read_bytes() == \
        (tmp_path / "b" / "synthetic.csv").read_bytes()

    # --seed beats the config seed: output matches a config written with that seed
    main(["synth", cfg, "--seed", "12", "--output-dir", str(tmp_path / "c")])
    reseeded = write_config(tmp_path, dict(SYNTH_DOC, seed=12), name="cfg12.json")
    (tmp_path / "d").mkdir()
    main(["synth", reseeded, "--output-dir", str(tmp_path / "d")])
    assert (tmp_path / "c" / "synthetic.csv").read_bytes() == \
        (tmp_path / "d" / "synthetic.csv").read_bytes()
    assert (tmp_path / "c" / "synthetic.csv").read_bytes() != \
        (tmp_path / "a" / "synthetic.csv").read_bytes()


def test_synth_custom_out_path(tmp_path):
    cfg = write_config(tmp_path, SYNTH_DOC)
    target = tmp_path / "custom.csv"
    assert main(["synth", cfg, "--out", str(target)]) == 0
    assert target.exists()


def test_synth_emits_the_sweep_training_set(tmp_path):
    doc = {"seed": 4, "dataset": {"n": 30, "n_test": 12, "mode": "correlated",
                                  "beta": [0.5, -1.5]},
           "attack": {"x0": [0.0, 0.0]}}
    target = tmp_path / "train.csv"
    assert main(["synth", write_config(tmp_path, doc), "--out", str(target)]) == 0
    rows = np.array(read_rows(target)[1:], dtype=float)
    train = prepare_experiment(ExperimentConfig.from_dict(doc))[0]
    assert np.array_equal(rows[:, :-1], [[float(v) for v in r] for r in train.X])
    assert np.array_equal(rows[:, -1], [float(v) for v in train.y])


def test_attack_point_writes_trace(tmp_path, capsys):
    cfg = write_config(tmp_path, POINT_DOC)
    assert main(["attack", cfg, "--output-dir", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "trace.csv")
    assert rows[0] == ["iteration", "objective", "x_0", "x_1"]
    assert len(rows) == 2 + POINT_DOC["attack"]["optimizer"]["T"]  # header + T+1
    assert rows[1][1] == ""  # the initial point has no objective estimate
    assert float(rows[2][1]) >= 0.0
    out = capsys.readouterr().out
    assert "final |E[y] - target|" in out and "trace.csv" in out
    # the default single-run intensity is the top of the eps grid
    assert "eps=0.3" in out


def test_attack_ppd_trace_has_level_columns(tmp_path, capsys):
    doc = {
        "seed": 11,
        "dataset": {"n": 200},
        "attack": {
            "type": "ppd",
            "eps_grid": [0.0, 0.5],
            "x0_mode": "clean_mean",
            "x0": None,
            "mlmc": {"T": 20, "B": 1, "Lmax": 3, "eta": 0.5},
        },
    }
    cfg = write_config(tmp_path, doc)
    assert main(["attack", cfg, "--output-dir", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "trace.csv")
    assert rows[0] == ["iteration", "objective", "x_0", "x_1", "levels", "draws"]
    assert len(rows) == 22
    assert rows[1][4] == "" and rows[1][5] == ""
    assert int(rows[2][5]) >= 1  # posterior draws consumed on iteration 1
    assert "posterior draws consumed" in capsys.readouterr().out


def test_sweep_writes_records_and_summary(tmp_path, capsys):
    cfg = write_config(tmp_path, POINT_DOC)
    assert main(["sweep", cfg, "--output-dir", str(tmp_path)]) == 0
    raw = read_rows(tmp_path / "sep.csv")
    assert raw[0] == ["epsilon", "rep", "strategy", "metric", "value"]
    assert len(raw) == 1 + 2 * 2 * 2  # eps x reps x strategies
    summary = read_rows(tmp_path / "sep_summary.csv")
    assert summary[0] == ["strategy", "metric", "epsilon", "n", "mean", "se", "two_se"]
    assert "wrote" in capsys.readouterr().out


def test_sweep_fault_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # A ValueError inside a task is a fault, not a missing cell: the sweep
    # aborts before any CSV is written and the CLI reports it.
    def broken(*args, **kwargs):
        raise ValueError("injected fault")

    monkeypatch.setattr(sep, "run_point_attack", broken)
    cfg = write_config(tmp_path, POINT_DOC)
    assert main(["sweep", cfg, "--output-dir", str(tmp_path)]) == 2
    assert "injected fault" in capsys.readouterr().err
    assert not (tmp_path / "sep.csv").exists()


def test_validate_gradients_exit_codes(tmp_path, capsys):
    cfg = write_config(tmp_path, GRADCHECK_DOC)
    assert main(["validate-gradients", cfg, "--output-dir", str(tmp_path),
                 "--no-samples"]) == 0
    out = capsys.readouterr().out
    assert "validation PASSED" in out
    assert (tmp_path / "gradcheck.csv").exists()
    assert not (tmp_path / "gradcheck_samples.csv").exists()

    # an absurdly tight threshold turns the same run into a failure: the CLI
    # must exit nonzero (measured |z| in 0.14..1.62 at this seed)
    strict = write_config(tmp_path, dict(GRADCHECK_DOC, z_threshold=0.001),
                          name="strict.json")
    assert main(["validate-gradients", strict, "--output-dir", str(tmp_path),
                 "--no-samples"]) == 1
    assert "validation FAILED" in capsys.readouterr().out


@pytest.mark.parametrize("field, value", [("prior_precision", 0.0), ("sigma2", 0.0),
                                          ("target", float("nan")),
                                          ("clean_mean", float("nan"))])
def test_validate_gradients_bad_testbed_exits_2_and_writes_nothing(tmp_path, capsys, field,
                                                                    value):
    cfg = write_config(tmp_path, dict(GRADCHECK_DOC, **{field: value}))
    assert main(["validate-gradients", cfg, "--output-dir", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "gradcheck.csv").exists()


def test_validate_gradients_writes_samples_by_default(tmp_path):
    cfg = write_config(tmp_path, GRADCHECK_DOC)
    assert main(["validate-gradients", cfg, "--output-dir", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "gradcheck_samples.csv")
    assert rows[0] == ["estimator", "replicate", "coordinate", "value", "analytic"]
    assert len(rows) == 1 + 3 * 600 * 2  # estimators x replicates x coordinates


@pytest.mark.parametrize("field, value", [("prior_sd", 0.0), ("prior_sd", -1.0),
                                          ("chain_step", float("nan")), ("chain_thin", 0),
                                          ("chain_burn_in", -1), ("bank_size", 0)])
def test_entropy_bad_bank_fit_exits_2_and_writes_nothing(tmp_path, capsys, field, value):
    cfg = write_config(tmp_path, dict(ENTROPY_DOC, **{field: value}))
    assert main(["entropy", cfg, "--output-dir", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "entropy.csv").exists()
    assert not (tmp_path / "entropy_summary.csv").exists()


@pytest.mark.parametrize("command, doc, message", [
    ("entropy", dict(ENTROPY_DOC, n_per_class=0),
     "config field 'n_per_class' must be an integer >= 1, got 0"),
    ("entropy", dict(ENTROPY_DOC, blob_sd=-1.0),
     "config field 'blob_sd' must be a finite number >= 0, got -1.0"),
    ("sweep", dict(POINT_DOC, dataset={"n": 200, "n_test": -1}),
     "config field 'dataset.n_test' must be an integer >= 0, got -1"),
    # Unchecked, n = -1 failed inside numpy and n = 0 aimed at a zero posterior mean.
    ("validate-gradients", dict(GRADCHECK_DOC, n=-1), "config field 'n' must be an integer >= 1, got -1"),
    ("validate-gradients", dict(GRADCHECK_DOC, n=0), "config field 'n' must be an integer >= 1, got 0"),
    # Unchecked, a negative seed loaded and failed inside numpy, naming no field.
    ("validate-gradients", dict(GRADCHECK_DOC, seed=-1),
     "config field 'seed' must be an integer >= 0, got -1"),
    ("entropy", dict(ENTROPY_DOC, seed=-1), "config field 'seed' must be an integer >= 0, got -1"),
    ("sweep", dict(POINT_DOC, seed=-2), "config field 'seed' must be an integer >= 0, got -2"),
])
def test_out_of_range_sizes_exit_2_and_write_nothing(tmp_path, capsys, command, doc, message):
    cfg = write_config(tmp_path, doc)
    assert main([command, cfg, "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command, doc", [("validate-gradients", GRADCHECK_DOC),
                                          ("entropy", ENTROPY_DOC), ("sweep", POINT_DOC)])
def test_a_negative_seed_flag_exits_2_and_writes_nothing(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path, doc)
    assert main([command, cfg, "--seed", "-1", "--output-dir", str(tmp_path)]) == 2
    assert "config field 'seed' must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_entropy_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, ENTROPY_DOC)
    assert main(["entropy", cfg, "--output-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "ln(n_classes) = %.4f" % np.log(3.0) in out
    assert "mean ID entropy" in out
    raw = read_rows(tmp_path / "entropy.csv")
    assert raw[0] == ["epsilon", "rep", "strategy", "metric", "value"]
    metrics = {r[3] for r in raw[1:]}
    assert "predictive-entropy-id" in metrics
    assert "predictive-entropy-ood" in metrics
    assert any(m.startswith("selective-accuracy") for m in metrics)
    assert (tmp_path / "entropy_summary.csv").exists()


def test_bad_configs_exit_2(tmp_path, capsys):
    bad_key = write_config(tmp_path, {"sed": 3}, name="bad.json")
    assert main(["sweep", bad_key]) == 2
    assert capsys.readouterr().err.startswith("error:")

    assert main(["sweep", str(tmp_path / "missing.json")]) == 2
    not_json = tmp_path / "notjson.json"
    not_json.write_text("{nope")
    assert main(["sweep", str(not_json)]) == 2
    not_object = tmp_path / "arr.json"
    not_object.write_text("[1, 2]")
    assert main(["sweep", str(not_object)]) == 2
    wrong_length = write_config(tmp_path, dict(POINT_DOC, attack=dict(
        POINT_DOC["attack"], x0=[0.1, 0.2, 0.3])), name="len.json")
    assert main(["sweep", wrong_length, "--output-dir", str(tmp_path)]) == 2
    assert not (tmp_path / "sep.csv").exists()


@pytest.mark.parametrize("command, doc, field", [
    ("sweep", dict(POINT_DOC, attack=dict(POINT_DOC["attack"], optimizer={"N": 16.5})),
     "attack.optimizer.N"),
    ("sweep", dict(POINT_DOC, attack=dict(POINT_DOC["attack"], repeats=1.5)), "attack.repeats"),
    ("sweep", dict(POINT_DOC, attack=dict(POINT_DOC["attack"], optimizer={"T": True})),
     "attack.optimizer.T"),
    ("sweep", dict(POINT_DOC, attack=dict(POINT_DOC["attack"], optimizer={"eta": "0.1"})),
     "attack.optimizer.eta"),
    ("sweep", dict(POINT_DOC, seed=1.5), "seed"),
    ("sweep", dict(POINT_DOC, attack=dict(POINT_DOC["attack"], epsilon=False)), "attack.epsilon"),
    ("entropy", dict(ENTROPY_DOC, n_id=2.0), "n_id"),
    ("entropy", dict(ENTROPY_DOC, eta=None), "eta"),
    ("sweep", dict(POINT_DOC, attack=dict(POINT_DOC["attack"], optimizer={"eta_decay": "no"})),
     "attack.optimizer.eta_decay"),
    ("sweep", dict(POINT_DOC, attack=dict(POINT_DOC["attack"], strategies="sgd")),
     "attack.strategies"),
    # An array field's entries are checked too: numbers (no bool, string,
    # nested array or non-finite value), arrays of numbers or strings.
    ("entropy", dict(ENTROPY_DOC, retention_grid=["a"]), "retention_grid"),
    ("entropy", dict(ENTROPY_DOC, eps_grid=[[0.0]]), "eps_grid"),
    ("sweep", dict(POINT_DOC, attack=dict(POINT_DOC["attack"], eps_grid=[0.0, True])),
     "attack.eps_grid"),
    ("sweep", dict(POINT_DOC, attack=dict(POINT_DOC["attack"], x0=[-0.1, "0.2"])), "attack.x0"),
    ("sweep", dict(POINT_DOC, dataset={"n": 200, "beta": [-1.0, [2.0]]}), "dataset.beta"),
    ("sweep", dict(POINT_DOC, dataset={"n": 200, "mode": "correlated", "mixing": [1.0, 2.0]}),
     "dataset.mixing"),
    ("sweep", dict(POINT_DOC, attack=dict(POINT_DOC["attack"], strategies=["sgd", 1])),
     "attack.strategies"),
    ("validate-gradients", dict(GRADCHECK_DOC, beta=[-1.0, None]), "beta"),
    # A JSON integer too large for a float is not a number a float field
    # takes: unchecked, float() overflowed mid-validation with a traceback.
    ("validate-gradients", dict(GRADCHECK_DOC, target=10**400), "target"),
    ("sweep", dict(POINT_DOC, attack=dict(POINT_DOC["attack"], target=-10**400)),
     "attack.target"),
    ("sweep", dict(POINT_DOC, attack=dict(POINT_DOC["attack"], x0=[-0.1, 10**400])),
     "attack.x0"),
    ("sweep", dict(POINT_DOC, attack=dict(POINT_DOC["attack"], eps_grid=[0.0, 10**400])),
     "attack.eps_grid"),
    ("entropy", dict(ENTROPY_DOC, eps_grid=[0, 10**400]), "eps_grid"),
])
def test_mistyped_config_fields_exit_2(tmp_path, capsys, command, doc, field):
    # Caught at load with the field's name: not a TypeError or IndexError
    # traceback mid-run, nor a float seed silently truncated.
    cfg = write_config(tmp_path, doc)
    assert main([command, cfg, "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'%s'" % field in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command, doc", [
    ("sweep", {}),
    ("attack", {}),
    ("sweep", {"seed": 3, "dataset": {"n": 50}}),
])
def test_absent_attack_section_is_validated(tmp_path, capsys, command, doc):
    # An absent section is validated as an empty one, so the default attack's
    # missing explicit x0 is named at load, not found mid-run as a shape error.
    cfg = write_config(tmp_path, doc)
    assert main([command, cfg, "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "attack.x0 is required when x0_mode='explicit'" in err
    assert not list(tmp_path.glob("*.csv"))


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_console_script_is_installed(tmp_path):
    cfg = write_config(tmp_path, SYNTH_DOC)
    proc = subprocess.run(
        [sys.executable, "-m", "ppdattack.harness.cli", "synth", cfg,
         "--output-dir", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "synthetic.csv").exists()
    script = subprocess.run(["ppdattack", "--help"], capture_output=True, text=True)
    assert script.returncode == 0
    for sub in ("attack", "sweep", "validate-gradients", "entropy", "synth"):
        assert sub in script.stdout
