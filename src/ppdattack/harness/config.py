"""Experiment configuration: JSON documents mapped onto checked, frozen dataclasses.

Each CLI subcommand takes a single JSON config file; ``--seed`` on the command
line overrides the ``seed`` field.  Unknown keys are rejected so typos fail
loudly instead of silently running defaults.

A spec checks itself when it is built, from JSON through ``from_dict`` or in
Python, by the rule of :mod:`ppdattack._fields`: every field is checked
against its annotation (a number's bounds are ``Annotated`` metadata such as
``Count`` or ``Positive``), then ``validate`` checks the rules that tie
fields together.  A section field takes a spec of its class.  A fault names
its field, bare from the constructor and by its dotted path from
``from_dict``: ``config field 'attack.optimizer.T' must be an integer >= 1,
got 0``.  Specs are frozen, so a checked spec stays valid;
``dataclasses.replace`` makes a changed copy and checks it.  Arrays are kept
as (nested) tuples, so a spec hashes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Annotated, Literal

from .._fields import Checked, Count, NonNegative, Positive, Size, _Bound, _FieldError, _fields
from ..attacks.feasible import Norm


def _nondecreasing(grid):
    """True when each entry is at most the next."""
    return all(a <= b for a, b in zip(grid, grid[1:]))


def _dotted(path, name):
    return "%s.%s" % (path, name) if path else name


class _Spec(Checked):
    """A config section, built from JSON by ``from_dict``."""

    _owner = "config"

    @classmethod
    def from_dict(cls, data, path=""):
        """Build a section from a JSON object; ``path`` names it in error messages."""
        if not isinstance(data, dict):
            raise ValueError("config section '%s' must be an object" % path)
        unknown = sorted(set(data) - {name for name, _, _ in _fields(cls)})
        if unknown:
            raise ValueError("unknown config keys in '%s': %s" % (path or "<root>", ", ".join(unknown)))
        kwargs = {}
        for name, kind, _ in _fields(cls):
            if isinstance(kind, type) and issubclass(kind, _Spec):
                # An absent section is built as an empty one.
                kwargs[name] = kind.from_dict(data.get(name, {}), _dotted(path, name))
            elif name in data:
                kwargs[name] = data[name]
        try:
            return cls(**kwargs)
        except _FieldError as e:  # its sections are built, so one of its own fields
            raise _FieldError(cls._owner, _dotted(path, e.name), e.kind, data[e.name]) from None

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class DatasetSpec(_Spec):
    """Where the data comes from: a synthetic generator or a CSV file."""

    kind: Literal["synthetic", "csv"] = "synthetic"
    n: Count = 1000
    n_test: Size = 0
    beta: tuple[float, ...] = (-1.0, 2.0)
    sigma2: Positive = 1.0
    mode: Literal["independent", "correlated"] = "independent"
    # covariate covariance is A^T A
    mixing: tuple[tuple[float, ...], ...] = ((1.0, 2.0), (3.0, 4.0))
    path: str = None
    response: str = None
    split: Annotated[float, _Bound(">", 0), _Bound("<", 1)] = 0.7
    standardize: bool = False

    def validate(self):
        if self.kind == "csv":
            if not self.path:
                raise ValueError("dataset.path is required for kind='csv'")
            if not self.response:
                raise ValueError("dataset.response is required for kind='csv'")


@dataclass(frozen=True)
class ModelSpec(_Spec):
    """Defender/attacker model family and prior."""

    kind: Literal["gaussian_linear", "nig_linear"] = "gaussian_linear"
    sigma2: Positive = 1.0  # known noise variance (gaussian_linear)
    prior_mean: float = 0.0  # scalar broadcast over coefficients
    prior_precision: Positive = 1.0  # c: prior precision is c * I
    a0: Positive = 2.0
    b0: Positive = 2.0


@dataclass(frozen=True)
class OptimizerSpec(_Spec):
    """Projected-SGD settings for the point attack."""

    eta: Positive = 0.05
    T: Count = 500
    N: Count = 64
    M: Count = 64
    eta_decay: bool = True


@dataclass(frozen=True)
class MlmcSpec(_Spec):
    """Multilevel gradient settings for the distribution attack."""

    eta: Positive = 0.05
    T: Count = 300
    M0: Count = 8
    tau: Annotated[float, _Bound(">", 1)] = 1.5  # finite expected cost
    R: Count = 2
    Lmax: Size = 6
    B: Count = 1
    untruncated: bool = False
    eta_decay: bool = True

    def validate(self):
        if self.M0 % 2 != 0:
            raise ValueError("mlmc.M0 must be even so batches can be halved antithetically")


@dataclass(frozen=True)
class AttackSpec(_Spec):
    """What to attack and how to sweep it."""

    type: Literal["point", "ppd"] = "point"
    norm: Norm = "l2"
    eps_grid: tuple[NonNegative, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    epsilon: NonNegative = None  # single-run intensity; defaults to max(eps_grid)
    repeats: Count = 10
    target: float = 3.0  # point target G*
    target_mode: Literal["absolute", "times_mean_response"] = "absolute"
    appd_mean_shift: float = 0.0  # ppd target mean = clean mean + shift
    appd_var_factor: Positive = 4.0  # ppd target variance = factor * clean variance
    x0: tuple[float, ...] = None  # explicit attacked covariate vector
    x0_mode: Literal["explicit", "clean_mean", "test_sample"] = None  # explicit if x0 given, else clean_mean
    x0_value: float = -0.5  # clean predictive mean to aim the instance at
    x0_count: Count = 5  # instances when x0_mode == test_sample
    strategies: tuple[Literal["analytic", "sgd", "fgsm"], ...] = ("analytic", "sgd", "fgsm")
    n_eval: Annotated[int, _Bound(">=", 2)] = 512
    metric_mode: Literal["mc", "exact"] = "mc"
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    mlmc: MlmcSpec = field(default_factory=MlmcSpec)

    def validate(self):
        if not self.eps_grid or not _nondecreasing(self.eps_grid):
            raise ValueError("attack.eps_grid must be a non-empty nondecreasing grid")
        if self.x0_mode == "explicit" and self.x0 is None:
            raise ValueError("attack.x0 is required when x0_mode='explicit'")
        if self.x0 is not None and self.x0_mode in ("clean_mean", "test_sample"):
            raise ValueError("attack.x0 is given, but x0_mode=%r ignores it" % self.x0_mode)
        if not self.strategies:
            raise ValueError("attack.strategies must name at least one strategy")


@dataclass(frozen=True)
class ExperimentConfig(_Spec):
    """Top-level config for the ``attack``, ``sweep`` and ``synth`` subcommands."""

    seed: Size = 0
    output_dir: str = "."
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    attack: AttackSpec = field(default_factory=AttackSpec)


@dataclass(frozen=True)
class GradCheckSpec(_Spec):
    """Config for the ``validate-gradients`` subcommand.

    ``target`` is the point objective's target for the positive estimators
    only; the shared-batch control, at batch size ``control_batch``, aims at
    the clean predictive mean (see :mod:`ppdattack.harness.gradcheck`).
    """

    seed: Size = 0
    output_dir: str = "."
    replicates: Annotated[int, _Bound(">=", 100)] = 10000
    n: Count = 1000
    beta: tuple[float, ...] = (-1.0, 2.0)
    sigma2: Positive = 1.0
    prior_precision: Positive = 1.0
    clean_mean: float = -0.5
    target: float = 3.0
    N: Annotated[int, _Bound(">=", 2)] = 64
    M: Annotated[int, _Bound(">=", 2)] = 64
    appd_var_factor: Positive = 4.0
    control_batch: Annotated[int, _Bound(">=", 2)] = 4
    z_threshold: Positive = 4.0
    include_control: bool = True
    mlmc: MlmcSpec = field(default_factory=MlmcSpec)

    def model(self):
        """The known-variance Gaussian model the testbed fits."""
        return ModelSpec(sigma2=self.sigma2, prior_precision=self.prior_precision)


@dataclass(frozen=True)
class EntropySpec(_Spec):
    """Config for the ``entropy`` subcommand (toy classifier experiment)."""

    seed: Size = 0
    output_dir: str = "."
    n_classes: Annotated[int, _Bound(">=", 2)] = 3
    dim: Annotated[int, _Bound(">=", 2)] = 2
    n_per_class: Count = 25
    blob_radius: NonNegative = 1.2
    blob_sd: NonNegative = 0.45
    ood_radius: NonNegative = 4.0
    ood_rotation_deg: float = 60.0
    n_id: Count = 16
    n_ood: Count = 16
    eps_grid: tuple[NonNegative, ...] = (0.0, 0.5, 1.0, 2.0)
    norm: Norm = "l2"
    prior_sd: Positive = 1.2
    chain_burn_in: Size = 2000
    chain_thin: Count = 5
    bank_size: Count = 1200
    chain_step: Positive = 0.2
    eta: Positive = 0.3
    T: Count = 300
    N: Count = 192
    M: Count = 192
    eta_decay: bool = False
    entropy_draws: Count = 512
    retention_grid: tuple[Annotated[float, _Bound(">", 0), _Bound("<=", 1)], ...] = (
        0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

    def validate(self):
        if not self.eps_grid or self.eps_grid[0] != 0 or not _nondecreasing(self.eps_grid):
            raise ValueError("entropy.eps_grid must start at 0 and be nondecreasing")
