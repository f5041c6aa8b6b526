"""Experiment harness: configs, data plumbing, sweeps, and validation reports.

Stochastic checks pin their seeds and compare against closed forms where one
exists (clean rows of a sweep, standardisation statistics, mixture moments);
everything else is exercised structurally on deliberately tiny settings so
the whole file stays fast.
"""

import copy
import csv
import dataclasses
import functools
import hashlib
import json
import math
import re
import warnings
from typing import Annotated, Literal, get_args, get_origin, get_type_hints
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
import scipy.special
from scipy import stats

from ppdattack.attacks.feasible import FeasibleSet
from ppdattack.attacks.point import grad_J, reparam_grad_mu
from ppdattack.attacks.ppd import MlmcConfig, _objective_estimate
from ppdattack.bayes.conjugate import GaussianPosterior, NigPosterior, ppd_t_params
from ppdattack.bayes.likelihoods import logsumexp
from ppdattack.harness import gradcheck, sep
from ppdattack.harness.config import (
    AttackSpec,
    DatasetSpec,
    EntropySpec,
    ExperimentConfig,
    GradCheckSpec,
    MlmcSpec,
    ModelSpec,
    OptimizerSpec,
    _Spec,
)
from ppdattack.harness.data import gen_synthetic, load_dataset, write_dataset_csv
from ppdattack.harness.entropy import (
    class_directions,
    entropy_experiment,
    entropy_of,
    fit_softmax_bank,
    make_blob_data,
    make_eval_points,
    selective_accuracy,
)
from ppdattack.harness.gradcheck import (
    EstimatorCheck,
    GradCheckReport,
    run_gradcheck,
    validate_gradients,
    write_gradcheck_samples_csv,
)
from ppdattack.harness.predictor import fit_predictor
from ppdattack.harness.sep import (
    SepRecord,
    aggregate,
    aim_at_mean,
    compare_graybox_residuals,
    compare_norm_sparsity,
    prepare_experiment,
    run_sep,
    write_sep_csv,
    write_sep_summary_csv,
)
from rwm_reference import sequential_rwm


# ---------------------------------------------------------------------------
# configuration documents


def test_config_defaults_round_trip():
    # The default attack aims at the clean-mean instance, so the empty config
    # is the default one.
    assert ExperimentConfig.from_dict({}) == ExperimentConfig()
    cfg = ExperimentConfig.from_dict({"attack": {"x0_mode": "clean_mean"}})
    assert cfg.seed == 0
    assert cfg.attack.type == "point"
    assert cfg.attack.optimizer.T == 500
    assert cfg.attack.mlmc.M0 == 8


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"sed": 3})
    with pytest.raises(ValueError, match="attack"):
        ExperimentConfig.from_dict({"attack": {"bogus": 1}})
    with pytest.raises(ValueError, match="optimizer"):
        ExperimentConfig.from_dict({"attack": {"optimizer": {"learning_rate": 0.1}}})


@pytest.mark.parametrize("cls, doc, section", [
    (ExperimentConfig, {"bogus": 1}, "<root>"),
    (ExperimentConfig, {"dataset": {"bogus": 1}}, "dataset"),
    (ExperimentConfig, {"model": {"bogus": 1}}, "model"),
    (ExperimentConfig, {"attack": {"bogus": 1}}, "attack"),
    (ExperimentConfig, {"attack": {"optimizer": {"bogus": 1}}}, "attack.optimizer"),
    (ExperimentConfig, {"attack": {"mlmc": {"bogus": 1}}}, "attack.mlmc"),
    (GradCheckSpec, {"bogus": 1}, "<root>"),
    (GradCheckSpec, {"mlmc": {"bogus": 1}}, "mlmc"),
    (EntropySpec, {"bogus": 1}, "<root>"),
])
def test_config_rejects_unknown_keys_at_every_level(cls, doc, section):
    with pytest.raises(ValueError, match="unknown config keys in '%s': bogus$" % section):
        cls.from_dict(doc)


FLOATS = st.floats(-10.0, 10.0)
GRIDS = st.lists(st.floats(0.0, 5.0), min_size=1, max_size=5).map(lambda g: tuple(sorted(g)))
MLMC = st.builds(MlmcSpec, M0=st.integers(1, 8).map(lambda h: 2 * h), tau=st.floats(1.01, 3.0), R=st.integers(1, 4),
                 Lmax=st.integers(0, 8), B=st.integers(1, 8), untruncated=st.booleans())


def _json_round_trip(spec):
    return type(spec).from_dict(json.loads(json.dumps(dataclasses.asdict(spec))))


@settings(max_examples=50, deadline=None)
@given(beta=st.lists(FLOATS, min_size=1, max_size=4).map(tuple), mlmc=MLMC,
       replicates=st.integers(100, 10**5), z=st.floats(0.1, 10.0))
def test_gradcheck_spec_round_trips_through_json(beta, mlmc, replicates, z):
    spec = GradCheckSpec(beta=beta, mlmc=mlmc, replicates=replicates, z_threshold=z)
    spec.validate()
    assert _json_round_trip(spec) == spec


@settings(max_examples=50, deadline=None)
@given(grid=GRIDS, retention=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6).map(tuple),
       norm=st.sampled_from(["l1", "l2", "linf"]))
def test_entropy_spec_round_trips_through_json(grid, retention, norm):
    spec = EntropySpec(eps_grid=(0.0,) + grid, retention_grid=retention, norm=norm)
    spec.validate()
    assert _json_round_trip(spec) == spec


@settings(max_examples=50, deadline=None)
@given(beta=st.lists(FLOATS, min_size=2, max_size=2).map(tuple),
       mixing=st.lists(st.lists(FLOATS, min_size=2, max_size=2).map(tuple), min_size=2,
                       max_size=2).map(tuple),
       grid=GRIDS, x0=st.lists(FLOATS, min_size=2, max_size=2).map(tuple),
       strategies=st.lists(st.sampled_from(["analytic", "sgd", "fgsm"]), min_size=1,
                           unique=True).map(tuple),
       mlmc=MLMC, seed=st.integers(0, 2**31))
def test_experiment_config_round_trips_through_json(beta, mixing, grid, x0, strategies, mlmc,
                                                    seed):
    cfg = ExperimentConfig(
        seed=seed,
        dataset=DatasetSpec(beta=beta, mixing=mixing, mode="correlated"),
        attack=AttackSpec(eps_grid=grid, x0=x0, strategies=strategies, mlmc=mlmc,
                          optimizer=OptimizerSpec(T=25)),
    )
    cfg.dataset.validate()
    cfg.attack.validate()
    assert _json_round_trip(cfg) == cfg


def test_config_validates_grids_and_counts():
    with pytest.raises(ValueError, match="eps_grid"):
        AttackSpec.from_dict({"eps_grid": [0.5, 0.1]})
    with pytest.raises(ValueError, match="eps_grid"):
        AttackSpec.from_dict({"eps_grid": [-0.1, 0.5]})
    with pytest.raises(ValueError, match="repeats"):
        AttackSpec.from_dict({"repeats": 0})
    with pytest.raises(ValueError, match="strategies"):
        AttackSpec.from_dict({"x0": [0.0, 0.0], "strategies": ["sgd", "newton"]})
    with pytest.raises(ValueError, match="tau"):
        MlmcSpec.from_dict({"tau": 1.0})
    with pytest.raises(ValueError, match="eta"):
        OptimizerSpec.from_dict({"eta": 0.0})


@pytest.mark.parametrize("cls, doc, field", [
    (ExperimentConfig, {"attack": {"optimizer": {"eta_decay": "no"}}},
     "attack.optimizer.eta_decay"),
    (ExperimentConfig, {"attack": {"mlmc": {"untruncated": "false"}}}, "attack.mlmc.untruncated"),
    (ExperimentConfig, {"attack": {"mlmc": {"eta_decay": 0}}}, "attack.mlmc.eta_decay"),
    (ExperimentConfig, {"dataset": {"standardize": None}}, "dataset.standardize"),
    (ExperimentConfig, {"attack": {"x0": 5}}, "attack.x0"),
    (ExperimentConfig, {"attack": {"x0": [0.0, 0.0], "strategies": "sgd"}}, "attack.strategies"),
    (ExperimentConfig, {"attack": {"norm": 2}}, "attack.norm"),
    (ExperimentConfig, {"output_dir": None, "attack": {"x0_mode": "clean_mean"}}, "output_dir"),
    (EntropySpec, {"eps_grid": 0.5}, "eps_grid"),
    (GradCheckSpec, {"include_control": 1}, "include_control"),
])
def test_config_type_checks_bool_str_and_tuple_fields(cls, doc, field):
    # Unchecked, "no" loaded as a truthy string and switched step decay on,
    # and a bare "sgd" was read as the strategies 's', 'g' and 'd'.
    with pytest.raises(ValueError, match="config field '%s' must be" % field):
        cls.from_dict(doc)


@pytest.mark.parametrize("cls, doc, field", [
    (AttackSpec, {"x0": [0.0, 10**400]}, "x0"),
    (GradCheckSpec, {"target": 10**400}, "target"),
    (EntropySpec, {"eps_grid": [0, 1, -10**400]}, "eps_grid"),
])
def test_config_rejects_an_integer_too_large_for_a_float(cls, doc, field):
    # 10**400 < math.inf holds, so the range checks let it through, and the
    # spec's own float() or isfinite() then raised OverflowError.
    with pytest.raises(ValueError, match="config field '%s' must be" % field):
        cls.from_dict(doc)


@pytest.mark.parametrize("doc", ['{"target": Infinity}', '{"target": NaN}',
                                 '{"x0_value": -Infinity}', '{"x0": [0.0, NaN]}',
                                 '{"x0": [0.0, "1"]}'])
def test_attack_spec_rejects_a_non_finite_target_or_instance(doc):
    # json parses NaN and Infinity; unchecked, a sweep wrote residual2 = inf
    # for some cells and turned others into a warning and a missing cell.
    with pytest.raises(ValueError, match="config field '%s' must be" % next(iter(json.loads(doc)))):
        AttackSpec.from_dict({"x0": [0.0, 0.0], **json.loads(doc)})


def _leaf_fields(cls, path=()):
    """(dotted path, owning section, name, type with its bounds, default) of
    every field under the spec ``cls``, through its sections."""
    kinds = get_type_hints(cls, include_extras=True)
    for f in dataclasses.fields(cls):
        kind = kinds[f.name]
        if isinstance(kind, type) and issubclass(kind, _Spec):
            yield from _leaf_fields(kind, path + (f.name,))
        else:
            yield ".".join(path + (f.name,)), cls, f.name, kind, f.default


def _refused(kind):
    """JSON values a field of type ``kind`` refuses: an unlisted string for a
    Literal; NaN, +-Infinity and an integer too large for a float for a float;
    and each of those as the entry of an array."""
    if get_origin(kind) is Annotated:
        return _refused(get_args(kind)[0])
    if get_origin(kind) is Literal:
        return ["bogus"]
    if kind is float:
        return [math.nan, math.inf, -math.inf, 10**400]
    if get_origin(kind) is tuple:
        return [[v] for v in _refused(get_args(kind)[0])]
    return []


def _nested(path, value):
    for key in reversed(path.split(".")):
        value = {key: value}
    return value


SPECS = _Spec.__subclasses__()
LEAVES = [(cls, *leaf) for cls in SPECS for leaf in _leaf_fields(cls)]


@pytest.mark.parametrize("cls, path, value", [
    pytest.param(cls, path, value, id="%s:%s:%d" % (cls.__name__, path, i))
    for cls, path, _, _, kind, _ in LEAVES for i, value in enumerate(_refused(kind))])
def test_every_choice_and_float_field_refuses_what_its_annotation_excludes(cls, path, value):
    # Unchecked, {"epsilon": Infinity} ran an unbounded attack, and NaN in
    # entropy.blob_sd or model.prior_mean loaded and ran.
    with pytest.raises(ValueError, match="config field '%s' must be" % path):
        cls.from_dict(_nested(path, value))


def test_every_spec_field_has_an_annotation_the_loader_checks():
    from ppdattack.harness.config import _describe, _fits

    assert {ExperimentConfig, GradCheckSpec, EntropySpec, AttackSpec, MlmcSpec} <= set(SPECS)
    for cls, path, _, _, kind, default in LEAVES:
        assert _describe(kind), path
        assert default is None or _fits(default, kind), path


def _edges(kind):
    """(a value just past it, the value at it or None if the bound is open)
    for each bound on a number field of type ``kind``; for an array field,
    one-entry arrays of its entries' edges."""
    if get_origin(kind) is tuple:
        return [([past], None if at is None else [at]) for past, at in _edges(get_args(kind)[0])]
    if get_origin(kind) is not Annotated:
        return []
    number, *bounds = get_args(kind)
    edges = []
    for op, limit in bounds:
        limit, outward = number(limit), -1 if op.startswith(">") else 1
        past = limit + outward if number is int else math.nextafter(limit, outward * math.inf)
        edges.append((past, limit) if op.endswith("=") else (limit, None))
    return edges


def _as_python(value):
    return tuple(value) if isinstance(value, list) else value


# The one bound value a rule tying fields together refuses (M0 = 1 is odd).
CROSS_FIELD = {(MlmcSpec, "M0"): "mlmc.M0 must be even"}

EDGES = [(cls, path, owner, name, past, at) for cls, path, owner, name, kind, _ in LEAVES
         for past, at in _edges(kind)]


def test_every_bound_is_walked():
    assert len({(owner, name) for _, _, owner, name, _, _ in EDGES}) >= 50
    assert {(GradCheckSpec, "n"), (EntropySpec, "retention_grid"), (DatasetSpec, "split"),
            (MlmcSpec, "tau"), (AttackSpec, "eps_grid")} <= {(o, n) for _, _, o, n, _, _ in EDGES}


@pytest.mark.parametrize("cls, path, owner, name, past, at", [
    pytest.param(*edge, id="%s:%s:%r" % (edge[0].__name__, edge[1], edge[4])) for edge in EDGES])
def test_every_bound_refuses_a_value_just_past_it_and_takes_one_at_it(cls, path, owner, name,
                                                                       past, at):
    # From JSON the fault names the field's dotted path, in Python its name.
    with pytest.raises(ValueError, match="^config field '%s' must be " % re.escape(path)):
        cls.from_dict(_nested(path, past))
    with pytest.raises(ValueError, match="^config field '%s' must be " % name):
        owner(**{name: _as_python(past)})
    if at is None:
        return
    doc = _nested(path, at)
    if (owner, name) in CROSS_FIELD:
        with pytest.raises(ValueError, match=CROSS_FIELD[owner, name]):
            cls.from_dict(doc)
        return
    assert functools.reduce(getattr, path.split("."), cls.from_dict(doc)) == _as_python(at)
    assert getattr(owner(**{name: _as_python(at)}), name) == _as_python(at)


@pytest.mark.parametrize("build, name", [
    (lambda: GradCheckSpec(replicates=5), "replicates"),
    (lambda: AttackSpec(norm="l7"), "norm"),
    (lambda: MlmcSpec(tau=0.5), "tau"),
    (lambda: DatasetSpec(n=-3), "n"),
    (lambda: EntropySpec(n_per_class=0), "n_per_class"),
    (lambda: ExperimentConfig(model={"sigma2": 1.0}), "model"),
])
def test_specs_built_in_python_check_themselves(build, name):
    # Unchecked, each of these constructed and ran until something broke.
    with pytest.raises(ValueError, match="^config field '%s' must be " % name):
        build()


def test_specs_are_frozen_and_replace_checks_the_copy():
    spec = EntropySpec()
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.T = 0
    with pytest.raises(ValueError, match="config field 'T' must be an integer >= 1, got 0"):
        dataclasses.replace(spec, T=0)
    assert dataclasses.replace(spec, T=1).T == 1


def test_a_list_in_a_tuple_field_is_kept_as_a_tuple():
    # A frozen spec that kept the list could be neither hashed nor compared
    # equal to the same spec built with a tuple.
    spec = AttackSpec(eps_grid=[0.0, 0.1], x0_mode="clean_mean")
    same = AttackSpec(eps_grid=(0.0, 0.1), x0_mode="clean_mean")
    assert spec == same and hash(spec) == hash(same)
    mixing = DatasetSpec(mixing=[[1.0, 2.0], [3.0, 4.0]]).mixing
    assert mixing == ((1.0, 2.0), (3.0, 4.0)) and all(type(row) is tuple for row in mixing)


def test_attack_spec_rejects_a_negative_epsilon():
    # Caught at load, not inside FeasibleSet when the attack command starts.
    with pytest.raises(ValueError, match="config field 'epsilon' must be a finite number >= 0"):
        AttackSpec.from_dict({"x0": [0.0, 0.0], "epsilon": -0.1})
    assert AttackSpec.from_dict({"x0": [0.0, 0.0], "epsilon": 0}).epsilon == 0


def test_attack_spec_rejects_zero_test_instances():
    # Caught at load: a point sweep averaged no residuals into NaN, a ppd
    # sweep wrote no records.
    with pytest.raises(ValueError, match="x0_count"):
        AttackSpec.from_dict({"x0_mode": "test_sample", "x0_count": 0})


def test_attack_spec_rejects_an_empty_strategy_list():
    with pytest.raises(ValueError, match="strategies"):
        AttackSpec.from_dict({"x0": [0.0, 0.0], "strategies": []})


def test_prepare_experiment_rejects_an_instance_of_the_wrong_length():
    # Raised before any cell runs, not as a failed-cell warning in every cell.
    cfg = ExperimentConfig.from_dict({"dataset": {"n": 50},
                                      "attack": {"x0": [0.1, 0.2, 0.3]}})
    with pytest.raises(ValueError, match="2 covariates"):
        prepare_experiment(cfg)


def test_dataset_spec_validation():
    with pytest.raises(ValueError, match="path"):
        DatasetSpec.from_dict({"kind": "csv", "response": "y"})
    with pytest.raises(ValueError, match="split"):
        DatasetSpec.from_dict({"kind": "csv", "path": "f.csv", "response": "y",
                               "split": 1.2})
    with pytest.raises(ValueError, match="sigma2"):
        DatasetSpec.from_dict({"sigma2": -1.0})


def test_entropy_and_gradcheck_spec_validation():
    with pytest.raises(ValueError, match="eps_grid"):
        EntropySpec.from_dict({"eps_grid": [0.5, 1.0]})  # must start at 0
    with pytest.raises(ValueError, match="retention"):
        EntropySpec.from_dict({"retention_grid": [0.0, 0.5]})
    with pytest.raises(ValueError, match="replicates"):
        GradCheckSpec.from_dict({"replicates": 50})
    with pytest.raises(ValueError, match="z_threshold"):
        GradCheckSpec.from_dict({"z_threshold": -1.0})


@pytest.mark.parametrize("field, value", [("eta", 0.0), ("eta", -0.3), ("T", 0), ("N", 0),
                                          ("M", 0), ("entropy_draws", 0)])
def test_entropy_spec_rejects_an_unusable_optimizer(field, value):
    # Caught at load, not after the MCMC bank fit.
    with pytest.raises(ValueError, match="config field '%s' must be" % field):
        EntropySpec.from_dict({field: value})


def test_specs_reject_empty_populations_and_a_nonpositive_target_variance():
    # Caught at load: an empty population would average into NaN entropies,
    # and a nonpositive variance factor would fail later inside NormalAppd.
    for field in ("n_id", "n_ood"):
        with pytest.raises(ValueError, match=field):
            EntropySpec.from_dict({field: 0})
    for factor in (0.0, -1.0):
        with pytest.raises(ValueError, match="appd_var_factor"):
            GradCheckSpec.from_dict({"appd_var_factor": factor})


NAN = float("nan")


@pytest.mark.parametrize("cls, doc, message", [
    (GradCheckSpec, {"z_threshold": NAN}, "z_threshold"),
    (GradCheckSpec, {"appd_var_factor": NAN}, "appd_var_factor"),
    (ModelSpec, {"kind": "nig_linear", "a0": NAN}, "a0"),
    (ModelSpec, {"kind": "nig_linear", "b0": NAN}, "b0"),
    (DatasetSpec, {"sigma2": NAN}, "sigma2"),
    (MlmcSpec, {"eta": NAN}, "mlmc.eta"),
    (MlmcSpec, {"tau": NAN}, "mlmc.tau"),
    (EntropySpec, {"eta": NAN}, "entropy.eta"),
    (EntropySpec, {"eps_grid": [0.0, NAN, 1.0]}, "eps_grid"),
    (EntropySpec, {"eps_grid": [0.0, 0.5, NAN]}, "eps_grid"),
    (AttackSpec, {"x0": [0.0, 0.0], "eps_grid": [0.0, NAN]}, "eps_grid"),
    (AttackSpec, {"x0": [0.0, 0.0], "appd_var_factor": NAN}, "appd_var_factor"),
    (AttackSpec, {"x0": [0.0, 0.0], "appd_mean_shift": NAN}, "appd_mean_shift"),
    (OptimizerSpec, {"eta": NAN}, "eta"),
])
def test_specs_reject_nan_at_load(cls, doc, message):
    # A `<=` test lets NaN through; every float field is checked finite at
    # load, before any range check.  A NaN ppd target variance would otherwise
    # load and abort the sweep with a DegenerateLikelihoodError.
    with pytest.raises(ValueError, match="(%s|config field '%s') must be"
                       % (message, message.split(".")[-1])):
        cls.from_dict(doc)


@pytest.mark.parametrize("field, value", [
    ("prior_sd", 0.0), ("prior_sd", -1.0), ("prior_sd", NAN), ("chain_step", 0.0),
    ("chain_step", NAN), ("chain_step", float("inf")), ("chain_thin", 0),
    ("chain_burn_in", -1), ("bank_size", 0)])
def test_entropy_spec_rejects_an_unusable_bank_fit(field, value):
    # Caught at load: otherwise a zero prior_sd divides by zero mid-run, a
    # negative one acts as its absolute value, and a NaN step rejects every
    # proposal and keeps a bank of zero vectors.
    with pytest.raises(ValueError, match="(entropy.%s|config field '%s') must be" % (field, field)):
        EntropySpec.from_dict({field: value})


@pytest.mark.parametrize("cls, doc, message", [
    (EntropySpec, {"n_per_class": 0}, "config field 'n_per_class' must be an integer >= 1"),
    (EntropySpec, {"blob_sd": -1.0}, "config field 'blob_sd' must be a finite number >= 0"),
    (EntropySpec, {"blob_radius": -1.0}, "config field 'blob_radius' must be a finite number >= 0"),
    (EntropySpec, {"ood_radius": -4.0}, "config field 'ood_radius' must be a finite number >= 0"),
    (DatasetSpec, {"n_test": -1}, "config field 'n_test' must be an integer >= 0"),
    (GradCheckSpec, {"n": -1}, "config field 'n' must be an integer >= 1, got -1"),
    (GradCheckSpec, {"n": 0}, "config field 'n' must be an integer >= 1, got 0"),
    # Unchecked, a negative seed loaded and failed inside numpy, naming no field.
    (ExperimentConfig, {"seed": -2, "attack": {"x0": [0.0, 0.0]}},
     "config field 'seed' must be an integer >= 0, got -2"),
    (GradCheckSpec, {"seed": -1}, "config field 'seed' must be an integer >= 0, got -1"),
    (EntropySpec, {"seed": -1}, "config field 'seed' must be an integer >= 0, got -1"),
])
def test_specs_reject_out_of_range_sizes_at_load(cls, doc, message):
    # Unchecked, a study with no training points loaded and ran, negative
    # scales and radii loaded as their reflections, and a negative test-set
    # or gradient-check training size failed inside numpy.
    with pytest.raises(ValueError, match=message):
        cls.from_dict(doc)


def test_zero_scales_and_sizes_still_load():
    assert EntropySpec.from_dict({"blob_sd": 0.0, "blob_radius": 0.0, "ood_radius": 0.0})
    assert DatasetSpec.from_dict({"n_test": 0}).n_test == 0


@pytest.mark.parametrize("field, value, message", [
    ("prior_precision", 0.0, "prior_precision"), ("prior_precision", -1.0, "prior_precision"),
    ("sigma2", 0.0, "sigma2"), ("sigma2", float("nan"), "sigma2"),
    ("target", float("nan"), "target"), ("clean_mean", float("nan"), "clean_mean"),
    ("target", float("inf"), "target")])
def test_gradcheck_spec_rejects_an_unusable_testbed(field, value, message):
    # Caught at load with the model spec's messages: not an improper prior that
    # runs to the end, a failure mid-run, or z = inf on every coordinate.
    with pytest.raises(ValueError, match=message):
        GradCheckSpec.from_dict({field: value})


@pytest.mark.parametrize("mlmc, field", [({"eta": 0.0}, "mlmc.eta"), ({"eta": -0.1}, "mlmc.eta"),
                                         ({"M0": 7}, "mlmc.M0")])
def test_mlmc_spec_rejects_what_mlmc_config_rejects(mlmc, field):
    # caught at load, not as a warning and a missing cell in every attacked sweep cell
    with pytest.raises(ValueError, match=field):
        ExperimentConfig.from_dict({"attack": {"x0": [0.0, 0.0], "mlmc": mlmc}})
    with pytest.raises(ValueError, match=field):
        GradCheckSpec.from_dict({"mlmc": mlmc})


def test_config_from_json(tmp_path):
    doc = tmp_path / "cfg.json"
    doc.write_text(
        '{"seed": 7, "attack": {"eps_grid": [0.0, 0.2], '
        '"optimizer": {"T": 25}, "x0": [0.1, 0.2]}}'
    )
    cfg = ExperimentConfig.from_json(str(doc))
    assert cfg.seed == 7
    assert cfg.attack.eps_grid == (0.0, 0.2)
    assert cfg.attack.x0 == (0.1, 0.2)
    assert cfg.attack.optimizer.T == 25
    assert cfg.attack.optimizer.N == 64  # untouched default inside the section


# ---------------------------------------------------------------------------
# synthetic data and CSV ingestion


def test_synthetic_independent_moments():
    n = 1000
    rng = np.random.default_rng(np.random.SeedSequence((8, 0)))
    ds = gen_synthetic(n, (-1.0, 2.0), 1.0, rng)
    assert ds.X.shape == (n, 2) and ds.y.shape == (n,)
    # column means ~ N(0, 1/n); measured z = (-1.02, -0.61)
    assert np.all(np.abs(ds.X.mean(axis=0)) < 3.0 / np.sqrt(n))
    # cross-column correlation ~ N(0, 1/n); measured -0.032
    assert abs(np.corrcoef(ds.X.T)[0, 1]) < 3.0 / np.sqrt(n)
    # residual variance around sigma2, SE ~ sqrt(2/(n-1)); measured z = 1.67
    resid = ds.y - ds.X @ np.array([-1.0, 2.0])
    assert abs(resid.var(ddof=1) - 1.0) < 3.0 * np.sqrt(2.0 / (n - 1))


def test_synthetic_correlated_covariance():
    # X = Z A means cov(X) = A^T A = [[10, 14], [14, 20]], a 0.99 correlation
    rng = np.random.default_rng(np.random.SeedSequence((8, 1)))
    ds = gen_synthetic(100_000, (-1.0, 2.0), 1.0, rng, mode="correlated",
                       mixing=((1.0, 2.0), (3.0, 4.0)))
    corr = np.corrcoef(ds.X.T)[0, 1]
    assert abs(corr - 14.0 / np.sqrt(200.0)) < 0.01  # measured 0.98987
    cov = ds.X.T @ ds.X / ds.n
    assert np.allclose(cov, [[10.0, 14.0], [14.0, 20.0]], rtol=0.05)


def test_synthetic_same_seed_identical_bytes():
    a = gen_synthetic(100, (1.0, -1.0), 2.0, np.random.default_rng(np.random.SeedSequence((8, 2))))
    b = gen_synthetic(100, (1.0, -1.0), 2.0, np.random.default_rng(np.random.SeedSequence((8, 2))))
    assert a.X.tobytes() == b.X.tobytes()
    assert a.y.tobytes() == b.y.tobytes()
    with pytest.raises(ValueError):
        gen_synthetic(10, (1.0, 2.0), 1.0, np.random.default_rng(0), mode="weird")
    with pytest.raises(ValueError):
        gen_synthetic(10, (1.0, 2.0), 1.0, np.random.default_rng(0),
                      mode="correlated", mixing=((1.0,),))


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(np.random.SeedSequence((8, 3)))
    ds = gen_synthetic(10, (0.5, -1.5), 1.0, rng)
    path = tmp_path / "data.csv"
    write_dataset_csv(ds, str(path))
    # without an rng the split keeps file order, so train+test re-concatenates
    # to the original matrix bit for bit (repr round-trips float64)
    loaded = load_dataset(str(path), "y", split=0.7)
    assert loaded.train.n == 7 and loaded.test.n == 3
    X = np.vstack([loaded.train.X, loaded.test.X])
    y = np.concatenate([loaded.train.y, loaded.test.y])
    assert X.tobytes() == ds.X.tobytes()
    assert y.tobytes() == ds.y.tobytes()
    assert loaded.covariates == ("x_0", "x_1")


def test_csv_split_shuffles_reproducibly(tmp_path):
    ds = gen_synthetic(40, (0.5, -1.5), 1.0,
                       np.random.default_rng(np.random.SeedSequence((8, 4))))
    path = tmp_path / "data.csv"
    write_dataset_csv(ds, str(path))
    l1 = load_dataset(str(path), "y", rng=np.random.default_rng(17))
    l2 = load_dataset(str(path), "y", rng=np.random.default_rng(17))
    l3 = load_dataset(str(path), "y", rng=np.random.default_rng(18))
    assert l1.train.X.tobytes() == l2.train.X.tobytes()
    assert l1.train.X.tobytes() != l3.train.X.tobytes()
    assert not np.array_equal(l1.train.X, ds.X[:28])  # the shuffle moved rows


def test_csv_standardize_uses_training_stats(tmp_path):
    ds = gen_synthetic(50, (1.0, 2.0, -0.5), 1.0,
                       np.random.default_rng(np.random.SeedSequence((8, 5))))
    ds = type(ds)(X=ds.X * 3.0 + 5.0, y=ds.y)  # shift/scale so z-scoring matters
    path = tmp_path / "data.csv"
    write_dataset_csv(ds, str(path))
    loaded = load_dataset(str(path), "y", split=0.8, standardize=True)
    assert np.allclose(loaded.train.X.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(loaded.train.X.std(axis=0, ddof=0), 1.0, atol=1e-9)
    # the test split uses the training center/scale, not its own
    manual = (np.vstack([loaded.test.X]) * loaded.scale + loaded.center)
    assert np.allclose(manual, ds.X[40:], atol=1e-9)
    # response stays in original units
    assert np.allclose(loaded.train.y, ds.y[:40])


def test_csv_sweep_attacks_test_sample_instances(tmp_path):
    # The real-data sweep's path on a small CSV: a csv dataset, test-sample
    # instances and a target scaled by the mean response give one finite
    # rmse-to-target record per (eps, rep, strategy) cell.
    ds = gen_synthetic(60, (1.0, -0.5), 1.0, np.random.default_rng(np.random.SeedSequence((8, 6))))
    path = tmp_path / "data.csv"
    write_dataset_csv(ds, str(path))
    cfg = ExperimentConfig(
        seed=51, dataset=DatasetSpec(kind="csv", path=str(path), response="y", standardize=True),
        attack=AttackSpec(eps_grid=(0.0, 0.3), repeats=2, x0_mode="test_sample", x0_count=3,
                          target_mode="times_mean_response", target=2.0,
                          optimizer=OptimizerSpec(T=20)))
    res = run_sep(cfg)
    assert len(res.instances) == 3
    cells = [(r.epsilon, r.rep, r.strategy) for r in res.records if r.metric == "rmse-to-target"]
    assert sorted(cells) == sorted((e, rep, s) for e in (0.0, 0.3) for rep in range(2)
                                   for s in cfg.attack.strategies)
    assert all(np.isfinite(r.value) for r in res.records)
    with pytest.raises(ValueError, match="needs a test split"):
        prepare_experiment(dataclasses.replace(cfg, dataset=DatasetSpec()))


def test_csv_ingestion_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,y\n1,2,3\n")
    with pytest.raises(ValueError, match="response column"):
        load_dataset(str(path), "target")
    path.write_text("a,b,y\n1,two,3\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_dataset(str(path), "y")
    path.write_text("a,b,y\n1,2\n")
    with pytest.raises(ValueError, match="cells"):
        load_dataset(str(path), "y")
    path.write_text("a,a,y\n1,2,3\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_dataset(str(path), "y")
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_dataset(str(path), "y")
    path.write_text("a,b,y\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_dataset(str(path), "y")
    path.write_text("a,b,y\n1,1,3\n2,1,4\n")
    with pytest.raises(ValueError, match="constant"):
        load_dataset(str(path), "y", standardize=True)


# ---------------------------------------------------------------------------
# fitted predictors


@pytest.fixture(scope="module")
def train_data():
    rng = np.random.default_rng(np.random.SeedSequence((8, 0)))
    return gen_synthetic(1000, (-1.0, 2.0), 1.0, rng)


def test_fit_predictor_kinds(train_data):
    gaussian = fit_predictor(ModelSpec(kind="gaussian_linear"), train_data)
    assert isinstance(gaussian.posterior, GaussianPosterior)
    assert gaussian.dim == 2
    nig = fit_predictor(ModelSpec(kind="nig_linear"), train_data)
    assert isinstance(nig.posterior, NigPosterior)
    t = ppd_t_params(nig.posterior, np.array([0.3, -0.2]))
    assert t.df == 2.0 * nig.posterior.a_n
    assert nig.posterior.predictive_moments(np.array([0.3, -0.2])) == (t.loc, t.variance())


def test_predictor_monte_carlo_agrees_with_closed_form(train_data):
    pred = fit_predictor(ModelSpec(), train_data)
    x = np.array([0.3, -0.2])
    m, v = pred.posterior.predictive_moments(x)
    rng = np.random.default_rng(np.random.SeedSequence((8, 2)))
    est = pred.predictive_mean_mc(x, 40_000, rng)
    assert abs(est - m) < 3.0 * np.sqrt(v / 40_000)  # measured z = 0.24
    ys = np.array([m - 1.0, m, m + 2.0])
    # the distribution attack's plug-in objective at one outcome is -log ppd(y)
    cfg = MlmcConfig(FeasibleSet(x, 1.0, "l2"), obj_draws=4000)
    lp = np.array([-_objective_estimate(pred.likelihood, x, np.array([y]), cfg, pred.backend, rng)
                   for y in ys])
    exact = stats.norm.logpdf(ys, m, np.sqrt(v))
    assert np.allclose(lp, exact, atol=0.02)  # measured gaps <= 2.1e-4


# ---------------------------------------------------------------------------
# sweeps


def point_config(**attack_kw):
    attack_kw.setdefault("type", "point")
    attack_kw.setdefault("eps_grid", (0.0, 0.3))
    attack_kw.setdefault("repeats", 2)
    attack_kw.setdefault("strategies", ("analytic", "sgd"))
    attack_kw.setdefault("x0_mode", "clean_mean")
    attack_kw.setdefault("metric_mode", "exact")
    attack_kw.setdefault("optimizer", OptimizerSpec(eta=0.05, T=60, N=16, M=16))
    return ExperimentConfig(seed=11, dataset=DatasetSpec(n=400), model=ModelSpec(),
                            attack=AttackSpec(**attack_kw))


def test_prepare_experiment_aims_the_instance():
    cfg = point_config()
    _, _, defender, instances, targets = prepare_experiment(cfg)
    # clean_mean mode steers the clean predictive mean onto x0_value
    assert np.isclose(defender.posterior.mu_n @ instances[0], -0.5, atol=1e-12)
    assert targets == [3.0]
    cfg2 = point_config(target_mode="times_mean_response", target=2.0)
    train, _, _, _, targets2 = prepare_experiment(cfg2)
    assert np.isclose(targets2[0], 2.0 * train.y.mean())


def test_aggregate_recomputes_mean_and_se():
    records = [
        SepRecord(0.1, 0, "sgd", "m", 1.0),
        SepRecord(0.1, 1, "sgd", "m", 3.0),
        SepRecord(0.1, 2, "sgd", "m", 5.0),
        SepRecord(0.2, 0, "sgd", "m", 7.0),
    ]
    aggs = {(a.strategy, a.metric, a.epsilon): a for a in aggregate(records)}
    cell = aggs[("sgd", "m", 0.1)]
    vals = np.array([1.0, 3.0, 5.0])
    assert cell.n == 3
    assert np.isclose(cell.mean, vals.mean())
    assert np.isclose(cell.se, vals.std(ddof=1) / np.sqrt(3))
    assert np.isclose(cell.two_se, 2 * cell.se)
    single = aggs[("sgd", "m", 0.2)]
    assert single.n == 1 and single.se == 0.0


def test_sweep_clean_rows_reproduce_clean_metric():
    # at eps = 0 the feasible set is {x0}: the point metric must equal the
    # clean squared residual and the distribution metric must show zero KL
    # between the attacked and clean predictives
    res = run_sep(point_config())
    m0, _ = res.defender.posterior.predictive_moments(res.instances[0])
    for r in res.records:
        if r.epsilon == 0.0 and r.metric == "residual2":
            assert r.value == pytest.approx((m0 - 3.0) ** 2, abs=1e-12)

    cfg = ExperimentConfig(
        seed=12, dataset=DatasetSpec(n=400), model=ModelSpec(),
        attack=AttackSpec(type="ppd", eps_grid=(0.0, 0.5), repeats=2,
                          strategies=("sgd",), x0_mode="clean_mean",
                          metric_mode="exact",
                          mlmc=MlmcSpec(eta=0.5, T=40, B=2, Lmax=4, eta_decay=True)))
    res_ppd = run_sep(cfg)
    clean = [r for r in res_ppd.records if r.epsilon == 0.0 and r.metric == "kl-to-clean-ppd"]
    assert clean and all(r.value == 0.0 for r in clean)
    attacked = [r for r in res_ppd.records if r.epsilon == 0.5 and r.metric == "kl-to-clean-ppd"]
    assert attacked and all(r.value > 0.0 for r in attacked)


def test_nig_ppd_sweep_returns_every_cell():
    # The unknown-variance defender's predictive is a Student t: every cell is
    # scored against the clean t predictive at x0, so eps=0 shows zero KL.
    cfg = ExperimentConfig(
        seed=13, dataset=DatasetSpec(n=200), model=ModelSpec(kind="nig_linear"),
        attack=AttackSpec(type="ppd", eps_grid=(0.0, 0.5), repeats=1,
                          strategies=("sgd",), x0_mode="clean_mean", n_eval=64,
                          mlmc=MlmcSpec(T=3)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run_sep(cfg)
    assert [str(w.message) for w in caught] == []
    metrics = ("kl-to-appd", "kl-to-clean-ppd", "pred-var")
    assert sorted((r.epsilon, r.metric) for r in res.records) == [
        (eps, metric) for eps in (0.0, 0.5) for metric in metrics]
    clean = [r.value for r in res.records if r.epsilon == 0.0 and r.metric == "kl-to-clean-ppd"]
    assert clean == [0.0]


def test_sweep_reruns_bit_identical(tmp_path):
    res1 = run_sep(point_config())
    res2 = run_sep(point_config())
    p1, p2 = tmp_path / "sep1.csv", tmp_path / "sep2.csv"
    write_sep_csv(res1.records, str(p1))
    write_sep_csv(res2.records, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    with open(p1) as fh:
        header = next(csv.reader(fh))
    assert header == ["epsilon", "rep", "strategy", "metric", "value"]

    s1 = tmp_path / "sum.csv"
    write_sep_summary_csv(res1.aggregates, str(s1))
    with open(s1) as fh:
        header = next(csv.reader(fh))
    assert header == ["strategy", "metric", "epsilon", "n", "mean", "se", "two_se"]


def test_sweep_records_are_complete_and_seeded_per_task():
    res = run_sep(point_config())
    # 2 eps x 2 reps x 2 strategies, one metric each
    assert len(res.records) == 8
    # repetitions at eps > 0 under the stochastic strategy differ (fresh rng
    # per task) while the analytic strategy is deterministic
    sgd = [r.value for r in res.records if r.strategy == "sgd" and r.epsilon == 0.3]
    ana = [r.value for r in res.records if r.strategy == "analytic" and r.epsilon == 0.3]
    assert sgd[0] != sgd[1]
    assert ana[0] == ana[1]


def test_sweep_survives_a_failing_strategy():
    # the deterministic KL benchmark needs a known-variance posterior, so under
    # nig_linear the ppd analytic strategy fails per-task with a warning while
    # the sweep completes
    cfg = dataclasses.replace(point_config(type="ppd", repeats=1, mlmc=MlmcSpec(T=3)),
                              model=ModelSpec(kind="nig_linear"))
    with pytest.warns(RuntimeWarning, match="analytic"):
        res = run_sep(cfg)
    sgd_eps = {r.epsilon for r in res.records if r.strategy == "sgd"}
    ana_eps = {r.epsilon for r in res.records if r.strategy == "analytic"}
    assert sgd_eps == {0.0, 0.3}
    assert ana_eps == {0.0}  # the eps=0 short-circuit never reaches the solver


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
@pytest.mark.parametrize("model", ["gaussian_linear", "nig_linear"])
@pytest.mark.parametrize("attack", ["point", "ppd"])
def test_the_only_missing_sweep_cells_are_ppd_analytic_under_nig(attack, model, norm):
    # Every strategy has a solution on every ball, the point analytic one
    # through the dual norm; only the deterministic KL benchmark needs a
    # known-variance posterior.  No other cell may turn into a warning.
    cfg = ExperimentConfig(
        seed=5, dataset=DatasetSpec(n=200), model=ModelSpec(kind=model),
        attack=AttackSpec(type=attack, norm=norm, eps_grid=(0.0, 0.3), repeats=1,
                          x0_mode="clean_mean", n_eval=64,
                          optimizer=OptimizerSpec(T=5, N=8, M=8), mlmc=MlmcSpec(T=3)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run_sep(cfg)
    cells = {(r.epsilon, r.strategy) for r in res.records}
    every = {(eps, s) for eps in (0.0, 0.3) for s in ("analytic", "sgd", "fgsm")}
    missing = {(0.3, "analytic")} if (attack, model) == ("ppd", "nig_linear") else set()
    assert every - cells == missing
    assert [str(w.message) for w in caught] == [
        "strategy 'analytic' failed at eps=0.3 rep=0: deterministic KL benchmark needs a "
        "known-variance posterior"] * len(missing)


def test_sweep_aborts_on_a_fault_in_a_task(monkeypatch):
    # Only an inapplicable strategy or a stopped attack is a missing cell; a
    # fault anywhere else in a task propagates out of the sweep.
    def broken(*args, **kwargs):
        raise ZeroDivisionError("injected fault")

    monkeypatch.setattr(sep, "run_point_attack", broken)
    with pytest.raises(ZeroDivisionError, match="injected fault"):
        run_sep(point_config(repeats=1))


def test_aim_at_mean_sets_the_clean_predictive_mean():
    mu = np.array([0.7, -1.9, 0.05])
    for value in (-0.5, 3.0, 0.0):
        assert aim_at_mean(mu, value) @ mu == pytest.approx(value, abs=1e-14)
    with pytest.raises(ValueError, match="zero"):
        aim_at_mean(np.zeros(3), -0.5)


def test_norm_sparsity_report_counts_zeroed_coordinates():
    rows = compare_norm_sparsity([4], dim=6, n=300, T=150, N=32, M=32)
    assert rows[0]["seed"] == 4
    assert 0 <= rows[0]["zeros_l2"] <= 6 and 0 <= rows[0]["zeros_l1"] <= 6
    assert rows[0]["zeros_l1"] > rows[0]["zeros_l2"]  # measured 5 vs 0


def test_graybox_comparison_rows():
    rows = compare_graybox_residuals([0], eps_grid=(0.3,), T=120, N=32, M=32)
    assert len(rows) == 1
    row = rows[0]
    assert set(row) == {"seed", "epsilon", "residual_white", "residual_gray"}
    # the budget only allows eps * ||mu|| of movement toward the target, so
    # both residuals sit near the analytic floor |alpha| - eps * ||mu||
    assert row["residual_white"] > 2.0 and row["residual_gray"] > 2.0


# ---------------------------------------------------------------------------
# entropy experiment


def test_entropy_of_reference_values():
    assert entropy_of(np.full(3, 1.0 / 3.0)) == pytest.approx(np.log(3.0), abs=1e-12)
    assert entropy_of(np.array([1.0, 0.0, 0.0])) == 0.0
    # mixing any distribution toward uniform raises entropy monotonically
    onehot = np.array([1.0, 0.0, 0.0])
    uniform = np.full(3, 1.0 / 3.0)
    hs = [entropy_of((1 - t) * onehot + t * uniform) for t in np.linspace(0, 1, 11)]
    assert all(h2 > h1 for h1, h2 in zip(hs, hs[1:]))


# Entries of a probability vector: exact zeros, tiny (down to subnormal) and
# ordinary weights, normalised by their sum.
_weights = st.one_of(st.just(0.0), st.just(5e-324), st.floats(1e-310, 1e-300),
                     st.floats(1e-12, 1e-6), st.floats(1e-3, 1.0))


@settings(max_examples=300, deadline=None)
@given(w=st.lists(_weights, min_size=2, max_size=10).filter(lambda w: sum(w) > 0.0))
def test_entropy_of_equals_scipy_xlogy_bit_for_bit(w):
    p = np.array(w) / sum(w)
    want = float(-scipy.special.xlogy(p, p).sum())
    assert np.float64(entropy_of(p)).view(np.int64) == np.float64(want).view(np.int64)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_softmax_bank_matches_the_logsumexp_log_posterior_bit_for_bit(seed):
    # The bank fit's log posterior is w @ s minus a plain log-sum-exp, scored
    # for a batch of proposals at once; the Metropolis accept test reads it
    # only through a difference, so the bank and acceptance rate equal those
    # of a one-proposal-at-a-time chain on the observed-logit form below.
    spec = EntropySpec(seed=seed)
    X, y = make_blob_data(spec, np.random.default_rng(seed))
    Xt, idx = X.T, np.arange(y.size)

    def reference_log_post(w):
        logits = w.reshape(spec.n_classes, spec.dim) @ Xt
        ll = logits[y, idx] - logsumexp(logits, axis=0)
        return float(ll.sum()) - 0.5 / spec.prior_sd**2 * float(w @ w)

    rng, ref_rng = np.random.default_rng(100 + seed), np.random.default_rng(100 + seed)
    bank, rate = fit_softmax_bank(spec, X, y, rng)
    states, ref_rate = sequential_rwm(
        reference_log_post, np.zeros(spec.n_classes * spec.dim), spec.bank_size, ref_rng,
        step=spec.chain_step, burn_in=spec.chain_burn_in, thin=spec.chain_thin)
    assert np.array_equal(bank.batch.beta, states)
    assert rate == ref_rate
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_selective_accuracy_orders_by_entropy():
    ent = [0.1, 0.2, 0.3, 0.4]
    correct = [1.0, 1.0, 0.0, 0.0]
    assert selective_accuracy(ent, correct, 0.5) == 1.0
    assert selective_accuracy(ent, correct, 1.0) == 0.5
    assert selective_accuracy(ent, correct, 0.25) == 1.0


def test_class_directions_are_unit_spaced():
    dirs = class_directions(4)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
    assert np.allclose(dirs[0], [1.0, 0.0])
    angles = np.arctan2(dirs[:, 1], dirs[:, 0])
    gaps = np.diff(np.unwrap(angles))
    assert np.allclose(gaps, np.pi / 2.0)
    rotated = class_directions(4, rotation_deg=90.0)
    assert np.allclose(rotated[0], [0.0, 1.0], atol=1e-12)


def test_blob_data_shapes_and_labels():
    spec = EntropySpec(n_classes=3, n_per_class=10)
    X, y = make_blob_data(spec, np.random.default_rng(0))
    assert X.shape == (30, 2) and y.shape == (30,)
    assert np.array_equal(np.unique(y), [0, 1, 2])
    assert np.all(np.bincount(y) == 10)


@settings(max_examples=40, deadline=None)
@given(n_classes=st.integers(2, 5), dim=st.integers(2, 4), n_per_class=st.integers(1, 6),
       n_id=st.integers(1, 7), n_ood=st.integers(1, 7), seeds=st.tuples(st.integers(0, 2**32),
                                                                        st.integers(0, 2**32)))
def test_blob_sampler_matches_per_point_walk(n_classes, dim, n_per_class, n_id, n_ood, seeds):
    spec = EntropySpec(n_classes=n_classes, dim=dim, n_per_class=n_per_class, n_id=n_id,
                       n_ood=n_ood)

    def walk(rng, n, radius, rotation_deg, label_of):
        # one centre and one standard_normal(dim) per point, in order
        dirs = class_directions(n_classes, rotation_deg)
        X, y = np.empty((n, dim)), np.empty(n, dtype=int)
        for i in range(n):
            y[i] = label_of(i)
            center = np.zeros(dim)
            center[:2] = radius * dirs[y[i]]
            X[i] = center + spec.blob_sd * rng.standard_normal(dim)
        return X, y

    X, y = make_blob_data(spec, np.random.default_rng(seeds[0]))
    want_X, want_y = walk(np.random.default_rng(seeds[0]), n_classes * n_per_class,
                          spec.blob_radius, 0.0, lambda i: i // n_per_class)
    assert np.array_equal(X, want_X) and np.array_equal(y, want_y)

    X_id, y_id, X_ood = make_eval_points(spec, np.random.default_rng(seeds[1]))
    rng = np.random.default_rng(seeds[1])
    want_id, want_y_id = walk(rng, n_id, spec.blob_radius, 0.0, lambda i: i % n_classes)
    want_ood, _ = walk(rng, n_ood, spec.ood_radius, spec.ood_rotation_deg,
                       lambda i: i % n_classes)
    assert np.array_equal(X_id, want_id) and np.array_equal(y_id, want_y_id)
    assert np.array_equal(X_ood, want_ood)


def test_entropy_experiment_moves_both_populations():
    # tiny instance of the classifier experiment: inflation must raise mean
    # ID entropy, deflation must lower mean OOD entropy, and the selective
    # accuracy at half retention must fall once attacks are on
    spec = EntropySpec(seed=5, n_id=3, n_ood=3, eps_grid=(0.0, 1.0), T=60,
                       N=48, M=48, bank_size=300, chain_burn_in=400,
                       chain_thin=2, entropy_draws=128, retention_grid=(0.5, 1.0))
    res = entropy_experiment(spec)
    assert res.ln_p == pytest.approx(np.log(3.0))
    assert 0.05 < res.accept_rate < 0.95
    # measured at this seed: ID 0.135 -> 0.847, OOD 0.650 -> 0.223
    assert res.id_mean_entropy[1.0] > res.id_mean_entropy[0.0]
    assert res.ood_mean_entropy[1.0] < res.ood_mean_entropy[0.0]
    assert res.selective[(1.0, 0.5)] < res.selective[(0.0, 0.5)]  # 0.0 vs 1.0
    for r in res.records:
        if r.metric.startswith("predictive-entropy"):
            assert -1e-9 <= r.value <= np.log(3.0) + 1e-9
    # per eps: 3 ID, then 3 OOD, then 2 selective-accuracy records
    want = (["predictive-entropy-id"] * 3 + ["predictive-entropy-ood"] * 3
            + ["selective-accuracy-0.5", "selective-accuracy-1"])
    assert [(r.epsilon, r.metric) for r in res.records] == [(e, m) for e in (0.0, 1.0) for m in want]
    assert [r.rep for r in res.records[:6]] == [0, 1, 2, 0, 1, 2]


# ---------------------------------------------------------------------------
# gradient validation reports


def test_validate_gradients_small_run_passes():
    spec = GradCheckSpec(seed=3, replicates=600, N=16, M=16,
                         include_control=False, mlmc=MlmcSpec(Lmax=2, B=1))
    report = validate_gradients(spec)
    assert report.positives_ok  # measured |z| <= 1.62 across all six checks
    assert report.control_detected is None
    assert report.passed
    assert set(report.samples) == {"score", "reparam", "mlmc"}
    assert report.samples["score"].shape == (600, 2)
    # z columns recompute from the stored samples
    for c in report.checks:
        draws = report.samples[c.estimator][:, c.coordinate]
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert c.z == pytest.approx((draws.mean() - c.analytic) / se)


def test_chunk_size_leaves_the_samples_unchanged(monkeypatch):
    # Every estimator draws one block for all of a chunk's replicates (the
    # MLMC estimator three), so which numbers the samples are depends on
    # CHUNK, which is part of the gradient-check spec; their shapes do not.
    spec = GradCheckSpec(seed=3, replicates=600, N=16, M=16, mlmc=MlmcSpec(Lmax=2, B=1))
    monkeypatch.setattr(gradcheck, "CHUNK", 7)
    small = validate_gradients(spec).samples
    monkeypatch.setattr(gradcheck, "CHUNK", 10_000)
    whole = validate_gradients(spec).samples
    assert list(small) == list(whole) == ["score", "reparam", "mlmc", "score-shared-batch"]
    for name in small:
        assert small[name].shape == whole[name].shape == (600, 2)


# SHA-256 of the sample arrays' bytes at seed 0, tiny (100 replicates) and
# bench (10,000) size, as they were when the score and reparameterised
# estimators each drew their own joint sample: sharing the score estimator's
# samples moved only the reparameterised rows.
SAMPLE_DIGESTS = {
    100: {"score": "c23c55a260f5f48115f79558963910a00a40b614ccb63ed670747b5d92753b1a",
          "mlmc": "aebe37ad789a75a2bbfa16cbf444ea2f1b343d4383e3114e9c1a934fe4cf378d",
          "score-shared-batch":
              "ace070b888151b97105df0fdb36393f6e40524f804f514ea7a39b577bf14dc8a"},
    10000: {"score": "21c73ac28318eccf14ad5edc0664b8e573fd124cbc15d54eb8c885e638a7335d",
            "mlmc": "79793715255b94e1c2a20de0509546bbbdd3136a91e6d07e9f02baf57eecf579",
            "score-shared-batch":
                "3a9342dcb5cf2dec11946236a091020d4726fb33bdd21cbb5590b227a314cbd4"},
}


@pytest.mark.parametrize("replicates", sorted(SAMPLE_DIGESTS))
def test_score_mlmc_and_control_samples_match_their_digests(replicates):
    samples = validate_gradients(GradCheckSpec(seed=0, replicates=replicates)).samples
    got = {name: hashlib.sha256(np.ascontiguousarray(samples[name]).tobytes()).hexdigest()
           for name in SAMPLE_DIGESTS[replicates]}
    assert got == SAMPLE_DIGESTS[replicates]


@pytest.mark.parametrize("chunk", [7, None])
def test_reparam_reads_the_score_chunks_joint_samples(monkeypatch, chunk):
    # Each chunk draws one joint sample, which feeds both the score and the
    # reparameterised estimator (common random numbers).  Replaying each
    # chunk's generator state through grad_J gives both, bit for bit.
    if chunk is not None:
        monkeypatch.setattr(gradcheck, "CHUNK", chunk)
    calls, joint_sample = [], gradcheck._joint_sample

    def spy(prob, x, backend, rng, k, *args):
        calls.append((prob, x, backend, copy.deepcopy(rng), k))
        return joint_sample(prob, x, backend, rng, k, *args)

    monkeypatch.setattr(gradcheck, "_joint_sample", spy)
    spec = GradCheckSpec(seed=3, replicates=600, N=16, M=16, mlmc=MlmcSpec(Lmax=2, B=1))
    samples = validate_gradients(spec).samples
    step = gradcheck.CHUNK
    assert [k for *_, k in calls] == [min(step, 600 - i) for i in range(0, 600, step)]

    def replay(grad_mu=None):
        return np.concatenate([grad_J(prob, x, backend, copy.deepcopy(rng), k, grad_mu)
                               for prob, x, backend, rng, k in calls])

    np.testing.assert_array_equal(samples["score"], replay())
    np.testing.assert_array_equal(samples["reparam"], replay(reparam_grad_mu))


@pytest.mark.parametrize("seed", range(6))
def test_shared_batch_control_is_flagged(seed):
    # Aimed at the clean predictive mean, the control's bias stands clear of
    # its replicate spread: |z| 12.1-15.4 over seeds 0-29 at the default spec.
    report = validate_gradients(GradCheckSpec(seed=seed))
    assert report.control_detected is True
    assert report.passed


def test_control_setting_passes_with_independent_batches(monkeypatch):
    # At the control's own target and batch size the unbiased estimator is not
    # flagged (|z| <= 2.74 over seeds 0-9), so what the control detects is the
    # shared batch.
    monkeypatch.setattr(gradcheck, "grad_J", lambda *args, shared_batch=False: grad_J(*args))
    for seed in range(6):
        report = validate_gradients(GradCheckSpec(seed=seed))
        assert report.control_detected is False


def _csv_writer_bytes(report, path):
    """The bytes ``csv.writer`` writes for the samples CSV's rows."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["estimator", "replicate", "coordinate", "value", "analytic"])
        for name, arr in report.samples.items():
            for i, row in enumerate(arr):
                w.writerows([name, i, j, float(v), float(report.oracles[name][j])]
                            for j, v in enumerate(row))
    return path.read_bytes()


def _samples_report(samples, oracles):
    return GradCheckReport(checks=[], z_threshold=4.0, samples=samples, oracles=oracles,
                           control_included=True)


def test_samples_csv_has_the_bytes_csv_writer_writes(tmp_path, monkeypatch):
    # One, two and three coordinates; 3 and 5 replicates cross a slice
    # boundary, 2 fill one slice exactly, and one estimator has a single
    # replicate.  A name with a comma, quotes and a line break is quoted.
    monkeypatch.setattr(gradcheck, "CSV_SLICE", 2)
    samples = {"score": np.array([[0.1, -2.5e-300], [1e300, -0.0], [np.nan, np.inf]]),
               "score-shared-batch": np.array([[1 / 3], [-7.0], [2.0**-1074], [1e16], [-np.inf]]),
               "one": np.array([[1e-5, -1e-5, 0.5]]),
               'a,"b"\r\nc': np.array([[1.0, 2.0, 3.0], [4.0, -5.0, 6.0]])}
    oracles = {"score": np.array([0.3, -1e-17]), "score-shared-batch": np.array([np.pi]),
               "one": np.array([-0.0, 1e16, 2.0]), 'a,"b"\r\nc': np.array([0.0, 1.0, 1e-5])}
    report = _samples_report(samples, oracles)
    got = tmp_path / "got.csv"
    write_gradcheck_samples_csv(report, got)
    assert got.read_bytes() == _csv_writer_bytes(report, tmp_path / "want.csv")
    with open(got, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 3 * 2 + 5 + 3 + 2 * 3
    assert rows[-1][:3] == ['a,"b"\r\nc', "1", "2"]


@pytest.mark.parametrize("analytic", [[0.5], [0.5, 1.0, 2.0]])
def test_samples_csv_needs_one_analytic_value_per_coordinate(tmp_path, analytic):
    # Unchecked, a short oracle left cells of the column build unfilled (the
    # row-template writer dropped the coordinate), and a long one failed in a
    # slice assignment with an unrelated message.
    report = _samples_report({"score": np.zeros((3, 2))}, {"score": np.array(analytic)})
    with pytest.raises(ValueError, match="2 coordinates but %d analytic" % len(analytic)):
        write_gradcheck_samples_csv(report, tmp_path / "s.csv")


_ODD_FLOATS = st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.0**-1030,
                               1e16, -1e16, 1e-5, -1e-5, 1e15, 1e-4])
_FLOATS = st.one_of(_ODD_FLOATS, st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), per_slice=st.integers(1, 4))
def test_samples_csv_bytes_equal_csv_writer_on_any_floats(tmp_path_factory, data, per_slice):
    shapes = st.tuples(st.integers(1, 9), st.integers(1, 3))
    names = st.text(st.sampled_from('ab ,"\r\n-'), max_size=4)
    samples = data.draw(st.dictionaries(names, hnp.arrays(np.float64, shapes, elements=_FLOATS),
                                        min_size=1, max_size=3))
    oracles = {name: data.draw(hnp.arrays(np.float64, arr.shape[1], elements=_FLOATS))
               for name, arr in samples.items()}
    report = _samples_report(samples, oracles)
    out = tmp_path_factory.mktemp("samples")
    with mock.patch.object(gradcheck, "CSV_SLICE", per_slice):
        write_gradcheck_samples_csv(report, out / "got.csv")
    assert (out / "got.csv").read_bytes() == _csv_writer_bytes(report, out / "want.csv")


def test_gradcheck_pass_logic_requires_control_detection():
    def check(est, role, ok):
        return EstimatorCheck(estimator=est, role=role, coordinate=0,
                              replicates=10, mean=0.0, analytic=0.0, se=1.0,
                              z=0.0 if ok else 9.0, within_threshold=ok)

    good = [check("score", "positive", True), check("ctrl", "control", False)]
    rep = GradCheckReport(checks=good, z_threshold=4.0, samples={}, oracles={},
                          control_included=True)
    assert rep.passed

    # an unbiased-looking control means the test had no power: overall fail
    blind = [check("score", "positive", True), check("ctrl", "control", True)]
    rep = GradCheckReport(checks=blind, z_threshold=4.0, samples={}, oracles={},
                          control_included=True)
    assert rep.positives_ok and rep.control_detected is False and not rep.passed

    bad = [check("score", "positive", False), check("ctrl", "control", False)]
    rep = GradCheckReport(checks=bad, z_threshold=4.0, samples={}, oracles={},
                          control_included=True)
    assert not rep.passed


def test_run_gradcheck_writes_reports(tmp_path):
    spec = GradCheckSpec(seed=3, replicates=600, N=16, M=16,
                         include_control=False, mlmc=MlmcSpec(Lmax=2, B=1),
                         output_dir=str(tmp_path))
    report = run_gradcheck(spec)
    assert report.passed
    with open(tmp_path / "gradcheck.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["estimator", "role", "coordinate", "replicates", "mean",
                       "analytic", "se", "z", "within_threshold"]
    assert len(rows) == 1 + 6  # three estimators x two coordinates
    assert all(r[8] == "1" for r in rows[1:])
    with open(tmp_path / "gradcheck_samples.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["estimator", "replicate", "coordinate", "value", "analytic"]
