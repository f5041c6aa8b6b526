"""Command-line entry point.

Subcommands
-----------
attack
    Run a single attack from an experiment config and write ``trace.csv``
    (columns: iteration, objective, x_0..x_{p-1}[, levels, draws]); prints a
    short trace summary.
sweep
    Run the full (epsilon x repetition x strategy) grid and write ``sep.csv``
    (epsilon, rep, strategy, metric, value) plus ``sep_summary.csv``
    (strategy, metric, epsilon, n, mean, se, two_se).
validate-gradients
    Replicate the gradient estimators against analytic oracles and write
    ``gradcheck.csv`` (estimator, role, coordinate, replicates, mean,
    analytic, se, z, within_threshold) plus ``gradcheck_samples.csv``
    histogram data.  Exits nonzero if validation fails.
entropy
    Run the toy classifier entropy experiment and write ``entropy.csv`` /
    ``entropy_summary.csv`` in the sweep record schema.
synth
    Emit the synthetic dataset a sweep with the same config would train on,
    as a CSV with header ``x_0..x_{p-1}, y``.

Every subcommand takes a single JSON config document; ``--seed`` overrides
the config's seed and ``--output-dir`` its output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from ..attacks.feasible import FeasibleSet
from ..attacks.point import run_point_attack
from ..attacks.ppd import run_ppd_attack
from .config import EntropySpec, ExperimentConfig, GradCheckSpec
from .data import write_dataset_csv
from .entropy import entropy_experiment
from .gradcheck import run_gradcheck
from .sep import (
    aggregate,
    build_datasets,
    mlmc_config,
    point_problem,
    prepare_experiment,
    run_sep,
    write_sep_csv,
    write_sep_summary_csv,
)


def _load_config(path, args):
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    if getattr(args, "seed", None) is not None:
        data["seed"] = args.seed
    if getattr(args, "output_dir", None):
        data["output_dir"] = args.output_dir
    return data


def _ensure_outdir(path):
    os.makedirs(path, exist_ok=True)
    return path


def cmd_attack(args):
    cfg = ExperimentConfig.from_dict(_load_config(args.config, args))
    _, _, defender, instances, targets = prepare_experiment(cfg)
    x0 = instances[0]
    eps = cfg.attack.epsilon if cfg.attack.epsilon is not None else cfg.attack.eps_grid[-1]
    eps = float(eps)
    feasible = FeasibleSet(center=x0, epsilon=eps, norm=cfg.attack.norm)
    rng = np.random.default_rng(np.random.SeedSequence((int(cfg.seed), 2024)))

    if cfg.attack.type == "point":
        g_star = targets[0]
        prob = point_problem(cfg, defender, feasible, g_star)
        trace = run_point_attack(prob, defender.backend, rng)
        headline = "final |E[y] - target| = %.6g" % trace.final_residual
    else:
        appd, _ = targets[0]
        cfg_m = mlmc_config(cfg.attack.mlmc, feasible, record_objective=True)
        trace = run_ppd_attack(defender.likelihood, appd, cfg_m, defender.backend, rng)
        headline = "final cross-entropy estimate = %.6g" % trace.final_residual

    out = os.path.join(_ensure_outdir(cfg.output_dir), "trace.csv")
    trace.write_csv(out)
    delta = trace.final_x - x0
    print("attack type=%s norm=%s eps=%g iterations=%d" % (
        cfg.attack.type, cfg.attack.norm, eps, trace.n_iters))
    print("x0      = %s" % np.array2string(np.asarray(x0), precision=6))
    print("x_final = %s" % np.array2string(trace.final_x, precision=6))
    print("perturbation norm = %.6g (budget %g)" % (feasible.perturbation_norm(trace.final_x), eps))
    print(headline)
    if trace.sample_cost is not None:
        print("posterior draws consumed = %d" % trace.total_sample_cost())
    print("wrote %s" % out)
    print("delta = %s" % np.array2string(delta, precision=6))
    return 0


def cmd_sweep(args):
    cfg = ExperimentConfig.from_dict(_load_config(args.config, args))
    result = run_sep(cfg)
    outdir = _ensure_outdir(cfg.output_dir)
    raw = os.path.join(outdir, "sep.csv")
    summary = os.path.join(outdir, "sep_summary.csv")
    write_sep_csv(result.records, raw)
    write_sep_summary_csv(result.aggregates, summary)
    print("sweep: %d records over %d epsilon values, %d strategies" % (
        len(result.records), len(set(r.epsilon for r in result.records)),
        len(set(r.strategy for r in result.records))))
    print("wrote %s" % raw)
    print("wrote %s" % summary)
    return 0


def cmd_validate_gradients(args):
    spec = GradCheckSpec.from_dict(_load_config(args.config, args))
    report = run_gradcheck(spec, write_samples=not args.no_samples)
    for c in report.checks:
        flag = "ok" if c.within_threshold else "FLAGGED"
        print("%-20s coord %d  mean % .6f  analytic % .6f  z % 8.3f  [%s]"
              % (c.estimator, c.coordinate, c.mean, c.analytic, c.z, flag))
    if report.control_included:
        print("negative control detected: %s" % report.control_detected)
    print("validation %s (|z| threshold %g)"
          % ("PASSED" if report.passed else "FAILED", report.z_threshold))
    print("wrote %s" % os.path.join(spec.output_dir, "gradcheck.csv"))
    return 0 if report.passed else 1


def cmd_entropy(args):
    spec = EntropySpec.from_dict(_load_config(args.config, args))
    result = entropy_experiment(spec)
    outdir = _ensure_outdir(spec.output_dir)
    raw = os.path.join(outdir, "entropy.csv")
    summary = os.path.join(outdir, "entropy_summary.csv")
    write_sep_csv(result.records, raw)
    write_sep_summary_csv(aggregate(result.records), summary)
    print("chain acceptance rate = %.3f" % result.accept_rate)
    print("ln(n_classes) = %.4f" % result.ln_p)
    for eps in result.eps_grid:
        print("eps=%-5g  mean ID entropy %.4f   mean OOD entropy %.4f"
              % (eps, result.id_mean_entropy[eps], result.ood_mean_entropy[eps]))
    print("wrote %s" % raw)
    print("wrote %s" % summary)
    return 0


def cmd_synth(args):
    doc = _load_config(args.config, args)
    # synth reads no attack setting, so a config without an attack section
    # needs no attacked instance.
    doc.setdefault("attack", {"x0_mode": "clean_mean"})
    cfg = ExperimentConfig.from_dict(doc)
    if cfg.dataset.kind != "synthetic":
        raise ValueError("synth requires dataset.kind == 'synthetic'")
    # The training set a sweep with this config would fit.
    data, _ = build_datasets(cfg)
    out = args.out or os.path.join(_ensure_outdir(cfg.output_dir), "synthetic.csv")
    write_dataset_csv(data, out)
    print("wrote %s (%d rows, %d covariates)" % (out, data.n, data.p))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ppdattack",
        description="Evasion attacks against Bayesian predictive distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("config", help="path to a JSON config document")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--output-dir", default=None, help="override config output directory")
        p.set_defaults(fn=fn)
        return p

    add("attack", cmd_attack, "run one attack and write trace.csv")
    add("sweep", cmd_sweep, "run the epsilon sweep and write sep.csv")
    p_val = add("validate-gradients", cmd_validate_gradients,
                "z-test gradient estimators against analytic oracles")
    p_val.add_argument("--no-samples", action="store_true",
                       help="skip writing the per-replicate histogram CSV")
    add("entropy", cmd_entropy, "run the toy classifier entropy experiment")
    p_synth = add("synth", cmd_synth, "emit a synthetic dataset CSV")
    p_synth.add_argument("--out", default=None, help="output CSV path")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
