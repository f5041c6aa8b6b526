"""Security evaluation sweeps: attack strength vs defender-evaluated damage.

``run_sep`` executes a grid of (epsilon, repetition, strategy) attack tasks and
records defender-evaluated metrics as flat records; aggregation to
mean +/- 2*SE bands is an independent pass over the records.  Every task seeds
its own generator from (seed, epsilon index, repetition, strategy index), so
the grid is order-independent, reproducible bit-for-bit, and safe to
parallelise externally.

A task that fails because its strategy does not apply to the model
(``UnsupportedModelError``) or because its attack stopped (a ``RuntimeError``
such as a non-finite gradient) is recorded as a missing cell with a warning.
Any other error, such as a bad setting, aborts the sweep.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from ..analytic import analytic_point, gaussian_kl, minimize_kl_multistart
from ..attacks.baselines import fgsm_like
from ..attacks.feasible import FeasibleSet
from ..attacks.functionals import response_functional
from ..attacks.graybox import EnsembleMember, MixtureBackend, MixtureLikelihood, ModelEnsemble
from ..attacks.point import PointAttackProblem, grad_J, run_point_attack
from ..attacks.ppd import MlmcConfig, NormalAppd, mlmc_grad, run_ppd_attack
from ..attacks.trace import format_float, write_csv
from ..bayes.conjugate import GaussianPosterior, NigPosterior, ppd_t_params
from ..exceptions import UnsupportedModelError
from .config import ExperimentConfig, MlmcSpec, ModelSpec
from .data import gen_synthetic, load_dataset
from .predictor import BayesPredictor, fit_predictor


@dataclass(frozen=True)
class SepRecord:
    """One defender-evaluated metric value for one attack task."""

    epsilon: float
    rep: int
    strategy: str
    metric: str
    value: float


@dataclass(frozen=True)
class SepAggregate:
    strategy: str
    metric: str
    epsilon: float
    n: int
    mean: float
    se: float
    two_se: float


def aggregate(records):
    """Mean and standard error per (strategy, metric, epsilon) cell.

    SE is the standard deviation over repetitions divided by sqrt(n); a single
    repetition gives SE = 0.
    """
    cells = {}
    for r in records:
        cells.setdefault((r.strategy, r.metric, r.epsilon), []).append(r.value)
    out = []
    for (strategy, metric, eps), vals in sorted(cells.items()):
        vals = np.asarray(vals, dtype=float)
        n = vals.size
        se = float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        out.append(
            SepAggregate(
                strategy=strategy, metric=metric, epsilon=eps, n=n,
                mean=float(vals.mean()), se=se, two_se=2.0 * se,
            )
        )
    return out


def write_sep_csv(records, path):
    """Raw records: columns epsilon, rep, strategy, metric, value."""
    write_csv(path, ["epsilon", "rep", "strategy", "metric", "value"],
              ([format_float(r.epsilon), r.rep, r.strategy, r.metric, format_float(r.value)]
               for r in records))


def write_sep_summary_csv(aggregates, path):
    """Aggregated curve: columns strategy, metric, epsilon, n, mean, se, two_se."""
    write_csv(path, ["strategy", "metric", "epsilon", "n", "mean", "se", "two_se"],
              ([a.strategy, a.metric, format_float(a.epsilon), a.n]
               + [format_float(v) for v in (a.mean, a.se, a.two_se)] for a in aggregates))


def _task_rngs(seed, eps_idx, rep, strat_idx):
    ss = np.random.SeedSequence((int(seed), int(eps_idx), int(rep), int(strat_idx)))
    attack_ss, eval_ss = ss.spawn(2)
    return np.random.default_rng(attack_ss), np.random.default_rng(eval_ss)


def aim_at_mean(mu_n, value):
    """The covariate along ``mu_n`` whose clean predictive mean ``x @ mu_n`` is ``value``."""
    nrm2 = float(mu_n @ mu_n)
    if nrm2 == 0.0:
        raise ValueError("posterior mean is zero; cannot aim an instance")
    return (value / nrm2) * mu_n


def _instances(cfg: ExperimentConfig, defender, test):
    mode = cfg.attack.x0_mode or ("explicit" if cfg.attack.x0 is not None else "clean_mean")
    if mode == "explicit":
        return [np.asarray(cfg.attack.x0, dtype=float)]
    if mode == "clean_mean":
        return [aim_at_mean(defender.posterior.mu_n, cfg.attack.x0_value)]
    if test is None or test.n == 0:
        raise ValueError("x0_mode='test_sample' needs a test split")
    k = min(cfg.attack.x0_count, test.n)
    return [test.X[i].copy() for i in range(k)]


def _point_target(cfg: ExperimentConfig, train):
    if cfg.attack.target_mode == "times_mean_response":
        return float(cfg.attack.target) * float(train.y.mean())
    return float(cfg.attack.target)


def point_problem(cfg, defender, feasible, g_star):
    """The point-attack problem a config's optimizer settings describe."""
    opt = cfg.attack.optimizer
    return PointAttackProblem(
        g=response_functional(), g_star=np.array([g_star]), model=defender.likelihood,
        feasible=feasible, eta=opt.eta, T=opt.T, N=opt.N, M=opt.M, eta_decay=opt.eta_decay,
    )


def mlmc_config(spec: MlmcSpec, feasible, record_objective=False):
    """The multilevel attack settings an ``MlmcSpec`` block describes."""
    return MlmcConfig(feasible=feasible, record_objective=record_objective, **asdict(spec))


def _attack_point_instance(strategy, cfg, defender, x0, g_star, eps, rng):
    if eps == 0.0:  # the feasible set is the singleton {x0}
        return np.asarray(x0, dtype=float).copy()
    feasible = FeasibleSet(center=x0, epsilon=eps, norm=cfg.attack.norm)
    if strategy == "analytic":
        return analytic_point(defender.posterior.mu_n, x0, g_star, eps, cfg.attack.norm).x_star
    prob = point_problem(cfg, defender, feasible, g_star)
    if strategy == "sgd":
        return run_point_attack(prob, defender.backend, rng).final_x
    gJ = grad_J(prob, x0, defender.backend, rng)[0]  # fgsm
    return fgsm_like(x0, gJ, eps, norm=cfg.attack.norm)


def _point_mean(defender, cfg, x, rng):
    if cfg.attack.metric_mode == "exact":
        return defender.posterior.predictive_moments(x)[0]
    return defender.predictive_mean_mc(x, cfg.attack.n_eval, rng)


def _attack_ppd_instance(strategy, cfg, defender, x0, appd, eps, rng):
    if eps == 0.0:  # the feasible set is the singleton {x0}
        return np.asarray(x0, dtype=float).copy()
    feasible = FeasibleSet(center=x0, epsilon=eps, norm=cfg.attack.norm)
    if strategy == "analytic":
        if not isinstance(defender.posterior, GaussianPosterior):
            raise UnsupportedModelError(
                "deterministic KL benchmark needs a known-variance posterior")
        return minimize_kl_multistart(appd, defender.posterior, feasible, rng).x
    cfg_m = mlmc_config(cfg.attack.mlmc, feasible)
    if strategy == "sgd":
        return run_ppd_attack(defender.likelihood, appd, cfg_m, defender.backend, rng).final_x
    g, _, _ = mlmc_grad(defender.likelihood, x0, appd, cfg_m, defender.backend, rng)  # fgsm
    return fgsm_like(x0, g[0], eps, norm=cfg.attack.norm)


def _ppd_metrics(defender, cfg, x0, clean_moments, x, appd, rng):
    # Scores the predictive at the attacked x against the target and against
    # the defender's clean predictive at x0 (its stored moments for a normal
    # one): in closed form for a normal predictive, by Monte Carlo for a t.
    post = defender.posterior
    m, v = post.predictive_moments(x)
    if isinstance(post, NigPosterior):
        induced, clean = ppd_t_params(post, x), ppd_t_params(post, x0)
        ys = appd.sample(cfg.attack.n_eval, rng)
        kl_appd = float(np.mean(appd.logpdf(ys) - induced.logpdf(ys)))
        ys2 = induced.sample(cfg.attack.n_eval, rng)
        kl_clean = float(np.mean(induced.logpdf(ys2) - clean.logpdf(ys2)))
    else:
        kl_appd = gaussian_kl(appd.mean, appd.var, m, v)
        kl_clean = gaussian_kl(m, v, *clean_moments)
    return {"kl-to-appd": kl_appd, "kl-to-clean-ppd": kl_clean, "pred-var": v}


@dataclass
class SepResult:
    records: list
    aggregates: list
    instances: list
    defender: BayesPredictor
    clean_targets: list  # per instance: g_star (point) or (appd, clean_params) (ppd)


def build_datasets(cfg: ExperimentConfig):
    """The (train, test) split a config describes; ``test`` is None when empty.

    A synthetic dataset draws the training set, then the test set, from the
    config seed's own generator stream, so the ``synth`` subcommand and a sweep
    see the same training set.
    """
    data_rng = np.random.default_rng(np.random.SeedSequence((int(cfg.seed), 771)))
    ds = cfg.dataset
    if ds.kind != "synthetic":
        loaded = load_dataset(ds.path, ds.response, split=ds.split,
                              standardize=ds.standardize, rng=data_rng)
        return loaded.train, loaded.test
    train = gen_synthetic(ds.n, ds.beta, ds.sigma2, data_rng, mode=ds.mode, mixing=ds.mixing)
    test = None
    if ds.n_test:
        test = gen_synthetic(ds.n_test, ds.beta, ds.sigma2, data_rng, mode=ds.mode,
                             mixing=ds.mixing)
    return train, test


def prepare_experiment(cfg: ExperimentConfig):
    """Build data, defender, attacked instances and targets for a config."""
    train, test = build_datasets(cfg)
    defender = fit_predictor(cfg.model, train)
    instances = _instances(cfg, defender, test)
    for x0 in instances:
        if x0.shape != (train.p,):
            raise ValueError("attacked instance has shape %s; the training data has %d "
                             "covariates" % (x0.shape, train.p))

    targets = []
    for x0 in instances:
        if cfg.attack.type == "point":
            targets.append(_point_target(cfg, train))
        else:
            m, v = defender.posterior.predictive_moments(x0)
            appd = NormalAppd(mean=m + cfg.attack.appd_mean_shift,
                              var=cfg.attack.appd_var_factor * v)
            targets.append((appd, (m, v)))
    return train, test, defender, instances, targets


def run_sep(cfg: ExperimentConfig) -> SepResult:
    """Run the full (epsilon x repetition x strategy) sweep for a config."""
    train, _, defender, instances, targets = prepare_experiment(cfg)
    grid = [float(e) for e in cfg.attack.eps_grid]
    records = []
    for ei, eps in enumerate(grid):
        for rep in range(cfg.attack.repeats):
            for si, strategy in enumerate(cfg.attack.strategies):
                rng_attack, rng_eval = _task_rngs(cfg.seed, ei, rep, si)
                try:
                    metrics = _run_task(cfg, defender, instances, targets, strategy,
                                        eps, rng_attack, rng_eval)
                except (UnsupportedModelError, RuntimeError) as err:  # a missing cell
                    warnings.warn(
                        "strategy %r failed at eps=%g rep=%d: %s" % (strategy, eps, rep, err),
                        RuntimeWarning,
                    )
                    continue
                for metric, value in metrics.items():
                    records.append(SepRecord(eps, rep, strategy, metric, float(value)))
    return SepResult(
        records=records, aggregates=aggregate(records), instances=instances,
        defender=defender, clean_targets=targets,
    )


def _run_task(cfg, defender, instances, targets, strategy, eps, rng_attack, rng_eval):
    if cfg.attack.type == "point":
        residuals = []
        for x0, g_star in zip(instances, targets):
            x_adv = _attack_point_instance(strategy, cfg, defender, x0, g_star, eps, rng_attack)
            mean = _point_mean(defender, cfg, x_adv, rng_eval)
            residuals.append(mean - g_star)
        residuals = np.asarray(residuals)
        if len(instances) == 1:
            return {"residual2": float(residuals[0] ** 2)}
        return {"rmse-to-target": float(np.sqrt(np.mean(residuals**2)))}

    out = {}
    for x0, (appd, clean_moments) in zip(instances, targets):
        x_adv = _attack_ppd_instance(strategy, cfg, defender, x0, appd, eps, rng_attack)
        metrics = _ppd_metrics(defender, cfg, x0, clean_moments, x_adv, appd, rng_eval)
        for k, v in metrics.items():
            out.setdefault(k, []).append(v)
    return {k: float(np.mean(v)) for k, v in out.items()}


def compare_graybox_residuals(seeds, eps_grid=(0.3, 0.5), n=1000, n_attacker=10,
                              beta=(-1.0, 2.0), sigma2=1.0, attacker_prior_precision=2.0,
                              clean_mean=-0.5, target=3.0, eta=0.05, T=400, N=64, M=64):
    """Paired white-box vs gray-box point attacks, defender-evaluated.

    Per seed, a defender posterior is fit on ``n`` points and an attacker
    posterior on a disjoint ``n_attacker``-point set from the same generator
    under a tighter prior.  Both attacks run the same stochastic optimizer;
    residuals are the defender's exact predictive means against the target.
    Returns one dict per (seed, epsilon) with both residuals.
    """
    rows = []
    for seed in seeds:
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 33)))
        defender_data = gen_synthetic(n, beta, sigma2, rng)
        attacker_data = gen_synthetic(n_attacker, beta, sigma2, rng)
        defender = fit_predictor(ModelSpec(sigma2=sigma2, prior_precision=1.0), defender_data)
        attacker = fit_predictor(
            ModelSpec(sigma2=sigma2, prior_precision=attacker_prior_precision), attacker_data)
        mu = defender.posterior.mu_n
        x0 = aim_at_mean(mu, clean_mean)
        ensemble = ModelEnsemble([EnsembleMember(attacker.likelihood, attacker.backend)])
        attacker_view = MixtureLikelihood(ensemble)
        attacker_backend = MixtureBackend(ensemble)
        for eps in eps_grid:
            prob = PointAttackProblem(
                g=response_functional(), g_star=np.array([float(target)]),
                model=defender.likelihood,
                feasible=FeasibleSet(center=x0, epsilon=float(eps), norm="l2"),
                eta=eta, T=T, N=N, M=M, eta_decay=True,
            )
            trace_white = run_point_attack(prob, defender.backend, rng)
            trace_gray = run_point_attack(replace(prob, model=attacker_view), attacker_backend, rng)
            rows.append({
                "seed": int(seed), "epsilon": float(eps),
                "residual_white": abs(float(trace_white.final_x @ mu) - float(target)),
                "residual_gray": abs(float(trace_gray.final_x @ mu) - float(target)),
            })
    return rows


def compare_norm_sparsity(seeds, dim=8, n=400, eps=0.25, target_shift=2.0,
                          eta=0.02, T=300, N=64, M=64, zero_tol=1e-6):
    """Run the same point attack under L1 and L2 balls and count zeroed coordinates.

    For each seed a fresh synthetic regression problem is built; the report
    lists, per seed, how many perturbation coordinates stayed below
    ``zero_tol`` in absolute value under each geometry.  L1 projections zero
    coordinates exactly; L2 projections generically touch all of them.
    """
    reports = []
    for seed in seeds:
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 4242)))
        beta = np.linspace(0.2, 2.0, dim) * np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)
        train = gen_synthetic(n, beta, 1.0, rng)
        defender = fit_predictor(ModelSpec(kind="gaussian_linear", sigma2=1.0), train)
        x0 = rng.standard_normal(dim) * 0.5
        m0, _ = defender.posterior.predictive_moments(x0)
        g_star = m0 + target_shift
        counts = {}
        for norm in ("l1", "l2"):
            feasible = FeasibleSet(center=x0, epsilon=eps, norm=norm)
            prob = PointAttackProblem(
                g=response_functional(), g_star=np.array([g_star]),
                model=defender.likelihood, feasible=feasible,
                eta=eta, T=T, N=N, M=M, eta_decay=True,
            )
            trace = run_point_attack(prob, defender.backend, rng)
            delta = trace.final_x - x0
            counts[norm] = int(np.sum(np.abs(delta) < zero_tol))
        reports.append({"seed": int(seed), "zeros_l1": counts["l1"], "zeros_l2": counts["l2"]})
    return reports
