"""Experiment configuration: JSON documents mapped onto validated dataclasses.

Each CLI subcommand takes a single JSON config file; ``--seed`` on the command
line overrides the ``seed`` field.  Unknown keys are rejected so typos fail
loudly instead of silently running defaults, and every field is checked at
load against its annotation: an ``int`` field takes an integer, a ``float``
field a finite number (not NaN, not +-Infinity, not an integer too large for
a float), neither a bool; a ``bool`` field takes only true or false, a
``str`` field a string and a ``Literal`` field one of its strings.  A
``tuple`` field takes an array whose entries are each what its annotation
names.  A field whose default is None also takes None.  ``validate`` then
checks only ranges and rules that tie fields together.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass, field
from typing import Literal, get_args, get_origin, get_type_hints

from ..attacks.feasible import Norm


def _positive(*values):
    """True when every value is positive (NaN is not)."""
    return all(v > 0 for v in values)


def _nondecreasing(grid):
    """True when each entry is at most the next."""
    return all(a <= b for a, b in zip(grid, grid[1:]))


# The JSON values a field of the key's type takes, and their name; a bool
# never counts as a number, although Python makes it an int.
_SCALARS = {int: ((int,), "an integer"), float: ((int, float), "a finite number"),
            bool: ((bool,), "true or false"), str: ((str,), "a string")}
_FLOAT_MAX = sys.float_info.max  # NaN, +-inf and 10**400 all fail -_FLOAT_MAX <= v <= _FLOAT_MAX


def _fits(value, kind):
    """True when the JSON ``value`` is what a field of type ``kind`` takes."""
    if get_origin(kind) is Literal:
        return isinstance(value, str) and value in get_args(kind)
    if get_origin(kind) is tuple:  # every entry of an array field is of one kind
        return isinstance(value, (list, tuple)) and all(_fits(v, get_args(kind)[0]) for v in value)
    if not isinstance(value, _SCALARS[kind][0]) or isinstance(value, bool) and kind is not bool:
        return False
    return kind is not float or -_FLOAT_MAX <= value <= _FLOAT_MAX


def _describe(kind):
    """What a field of type ``kind`` takes, for an error message."""
    if get_origin(kind) is Literal:
        return "one of %s" % ", ".join(map(repr, get_args(kind)))
    if get_origin(kind) is tuple:
        return "an array, each entry %s" % _describe(get_args(kind)[0])
    return _SCALARS[kind][1]


def _tuples(value):
    if isinstance(value, (list, tuple)):
        return tuple(_tuples(v) for v in value)
    return value


class _Spec:
    """A config section: loaded from a JSON object, then validated."""

    def validate(self):
        pass

    @classmethod
    def from_dict(cls, data, path=""):
        """Build and validate a section; ``path`` names it in error messages."""
        if not isinstance(data, dict):
            raise ValueError("config section '%s' must be an object" % path)
        fields, kinds = {f.name: f for f in dataclasses.fields(cls)}, get_type_hints(cls)
        unknown = sorted(set(data) - set(fields))
        if unknown:
            raise ValueError("unknown config keys in '%s': %s" % (path or "<root>", ", ".join(unknown)))
        kwargs = {}
        for k, f in fields.items():
            name, kind = "%s.%s" % (path, k) if path else k, kinds[k]
            if isinstance(kind, type) and issubclass(kind, _Spec):
                # An absent section is validated as an empty one.
                kwargs[k] = kind.from_dict(data.get(k, {}), name)
            elif k in data:
                v = data[k]
                if not (v is None and f.default is None):
                    if not _fits(v, kind):
                        raise ValueError("config field '%s' must be %s, got %r"
                                         % (name, _describe(kind), v))
                    # JSON has no tuples: lists in tuple-typed fields become (nested)
                    # tuples, so a spec survives a round trip through asdict and json.
                    v = _tuples(v)
                kwargs[k] = v
        spec = cls(**kwargs)
        spec.validate()
        return spec

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class DatasetSpec(_Spec):
    """Where the data comes from: a synthetic generator or a CSV file."""

    kind: Literal["synthetic", "csv"] = "synthetic"
    n: int = 1000
    n_test: int = 0
    beta: tuple[float, ...] = (-1.0, 2.0)
    sigma2: float = 1.0
    mode: Literal["independent", "correlated"] = "independent"
    # covariate covariance is A^T A
    mixing: tuple[tuple[float, ...], ...] = ((1.0, 2.0), (3.0, 4.0))
    path: str = None
    response: str = None
    split: float = 0.7
    standardize: bool = False

    def validate(self):
        if self.n_test < 0:
            raise ValueError("dataset.n_test must be >= 0")
        if self.kind == "synthetic":
            if self.n < 1:
                raise ValueError("dataset.n must be >= 1")
            if not _positive(self.sigma2):
                raise ValueError("dataset.sigma2 must be positive")
        else:
            if not self.path:
                raise ValueError("dataset.path is required for kind='csv'")
            if not self.response:
                raise ValueError("dataset.response is required for kind='csv'")
            if not 0.0 < self.split < 1.0:
                raise ValueError("dataset.split must be in (0, 1)")


@dataclass
class ModelSpec(_Spec):
    """Defender/attacker model family and prior."""

    kind: Literal["gaussian_linear", "nig_linear"] = "gaussian_linear"
    sigma2: float = 1.0  # known noise variance (gaussian_linear)
    prior_mean: float = 0.0  # scalar broadcast over coefficients
    prior_precision: float = 1.0  # c: prior precision is c * I
    a0: float = 2.0
    b0: float = 2.0

    def validate(self):
        if not _positive(self.sigma2, self.prior_precision):
            raise ValueError("model.sigma2 and model.prior_precision must be positive")
        if not _positive(self.a0, self.b0):
            raise ValueError("model.a0 and model.b0 must be positive")


@dataclass
class OptimizerSpec(_Spec):
    """Projected-SGD settings for the point attack."""

    eta: float = 0.05
    T: int = 500
    N: int = 64
    M: int = 64
    eta_decay: bool = True

    def validate(self):
        if not _positive(self.eta) or min(self.T, self.N, self.M) < 1:
            raise ValueError("optimizer needs eta > 0 and T, N, M >= 1")


@dataclass
class MlmcSpec(_Spec):
    """Multilevel gradient settings for the distribution attack."""

    eta: float = 0.05
    T: int = 300
    M0: int = 8
    tau: float = 1.5
    R: int = 2
    Lmax: int = 6
    B: int = 1
    untruncated: bool = False
    eta_decay: bool = True

    def validate(self):
        if not self.tau > 1.0:
            raise ValueError("mlmc.tau must exceed 1 (finite expected cost)")
        if min(self.M0, self.R, self.B, self.T) < 1 or self.Lmax < 0:
            raise ValueError("mlmc sizes must be positive")
        if self.M0 % 2 != 0:
            raise ValueError("mlmc.M0 must be even so batches can be halved antithetically")
        if not _positive(self.eta):
            raise ValueError("mlmc.eta must be positive")


@dataclass
class AttackSpec(_Spec):
    """What to attack and how to sweep it."""

    type: Literal["point", "ppd"] = "point"
    norm: Norm = "l2"
    eps_grid: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    epsilon: float = None  # single-run intensity; defaults to max(eps_grid)
    repeats: int = 10
    target: float = 3.0  # point target G*
    target_mode: Literal["absolute", "times_mean_response"] = "absolute"
    appd_mean_shift: float = 0.0  # ppd target mean = clean mean + shift
    appd_var_factor: float = 4.0  # ppd target variance = factor * clean variance
    x0: tuple[float, ...] = None  # explicit attacked covariate vector
    x0_mode: Literal["explicit", "clean_mean", "test_sample"] = "explicit"
    x0_value: float = -0.5  # clean predictive mean to aim the instance at
    x0_count: int = 5  # instances when x0_mode == test_sample
    strategies: tuple[Literal["analytic", "sgd", "fgsm"], ...] = ("analytic", "sgd", "fgsm")
    n_eval: int = 512
    metric_mode: Literal["mc", "exact"] = "mc"
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    mlmc: MlmcSpec = field(default_factory=MlmcSpec)

    def validate(self):
        if not self.eps_grid or self.eps_grid[0] < 0 or not _nondecreasing(self.eps_grid):
            raise ValueError("attack.eps_grid must be a nondecreasing grid of nonnegative values")
        if self.epsilon is not None and self.epsilon < 0:
            raise ValueError("attack.epsilon must be nonnegative")
        if self.repeats < 1:
            raise ValueError("attack.repeats must be >= 1")
        if self.x0_mode == "explicit" and self.x0 is None:
            raise ValueError("attack.x0 is required when x0_mode='explicit'")
        if not _positive(self.appd_var_factor):
            raise ValueError("attack.appd_var_factor must be positive")
        if self.n_eval < 2:
            raise ValueError("attack.n_eval must be >= 2")
        if self.x0_count < 1:
            raise ValueError("attack.x0_count must be >= 1")
        if not self.strategies:
            raise ValueError("attack.strategies must name at least one strategy")


@dataclass
class ExperimentConfig(_Spec):
    """Top-level config for the ``attack``, ``sweep`` and ``synth`` subcommands."""

    seed: int = 0
    output_dir: str = "."
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    attack: AttackSpec = field(default_factory=AttackSpec)


@dataclass
class GradCheckSpec(_Spec):
    """Config for the ``validate-gradients`` subcommand.

    ``target`` is the point objective's target for the positive estimators
    only; the shared-batch control, at batch size ``control_batch``, aims at
    the clean predictive mean (see :mod:`ppdattack.harness.gradcheck`).
    """

    seed: int = 0
    output_dir: str = "."
    replicates: int = 10000
    n: int = 1000
    beta: tuple[float, ...] = (-1.0, 2.0)
    sigma2: float = 1.0
    prior_precision: float = 1.0
    clean_mean: float = -0.5
    target: float = 3.0
    N: int = 64
    M: int = 64
    appd_var_factor: float = 4.0
    control_batch: int = 4
    z_threshold: float = 4.0
    include_control: bool = True
    mlmc: MlmcSpec = field(default_factory=MlmcSpec)

    def model(self):
        """The known-variance Gaussian model the testbed fits."""
        return ModelSpec(sigma2=self.sigma2, prior_precision=self.prior_precision)

    def validate(self):
        self.model().validate()
        if self.replicates < 100:
            raise ValueError("gradcheck needs at least 100 replicates")
        if min(self.N, self.M, self.control_batch) < 2:
            raise ValueError("batch sizes must be >= 2")
        if not self.z_threshold > 0:
            raise ValueError("z_threshold must be positive")
        if not _positive(self.appd_var_factor):
            raise ValueError("appd_var_factor must be positive")


@dataclass
class EntropySpec(_Spec):
    """Config for the ``entropy`` subcommand (toy classifier experiment)."""

    seed: int = 0
    output_dir: str = "."
    n_classes: int = 3
    dim: int = 2
    n_per_class: int = 25
    blob_radius: float = 1.2
    blob_sd: float = 0.45
    ood_radius: float = 4.0
    ood_rotation_deg: float = 60.0
    n_id: int = 16
    n_ood: int = 16
    eps_grid: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0)
    norm: Norm = "l2"
    prior_sd: float = 1.2
    chain_burn_in: int = 2000
    chain_thin: int = 5
    bank_size: int = 1200
    chain_step: float = 0.2
    eta: float = 0.3
    T: int = 300
    N: int = 192
    M: int = 192
    eta_decay: bool = False
    entropy_draws: int = 512
    retention_grid: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

    def validate(self):
        if self.n_classes < 2 or self.dim < 2:
            raise ValueError("need n_classes >= 2 and dim >= 2")
        if self.n_id < 1 or self.n_ood < 1:
            raise ValueError("entropy.n_id and entropy.n_ood must be >= 1")
        if not self.eps_grid or self.eps_grid[0] != 0 or not _nondecreasing(self.eps_grid):
            raise ValueError("entropy.eps_grid must start at 0 and be nondecreasing")
        if any(not 0 < f <= 1 for f in self.retention_grid):
            raise ValueError("retention fractions must lie in (0, 1]")
        for name in ("eta", "prior_sd", "chain_step"):
            if not _positive(getattr(self, name)):
                raise ValueError("entropy.%s must be positive" % name)
        for name in ("T", "N", "M", "entropy_draws", "bank_size", "chain_thin", "n_per_class"):
            if getattr(self, name) < 1:
                raise ValueError("entropy.%s must be >= 1" % name)
        for name in ("chain_burn_in", "blob_radius", "blob_sd", "ood_radius"):
            if getattr(self, name) < 0:
                raise ValueError("entropy.%s must be >= 0" % name)
