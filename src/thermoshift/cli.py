"""Command-line front end.

Exit codes: 0 success, 2 validation error, 3 numerical failure.  Errors go
to stderr as one JSON object.  Outputs embed the config digest and the tool
version; identical config + seed give byte-identical files.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import __version__, wordcodes
from .config import (ConfigError, RunConfig, gauge_spec, parse_config,
                     read_config, require_object)
from .ergopt import (
    cohomologous_tilt,
    conditional_minima,
    ground_support_test,
    m_value,
    subaction,
)
from .kms import (
    gibbs_state,
    kms_iterate,
    projection_steps,
    random_start,
)
from .monomial import (
    AlgebraContext,
    AlgebraElement,
    gauge,
    multiply,
    represent,
    state_eval,
)
from .shiftspace import CylinderFunction, ShiftSpaceError, alpha_power, point_mass
from .transfer import (ConvergenceError, TransferOperator, boltzmann_weight,
                       rpf_solve)
from .verify import verify_all


def _word_key(w) -> str:
    return "".join(str(s) for s in w)


def _keys(model, depth: int) -> np.ndarray:
    """`_word_key` of each depth-`depth` word in table order: digits + 48 as ASCII."""
    if depth == 0:
        return np.array([""])
    digits = wordcodes.digits(wordcodes.admissible_codes(model, depth), depth,
                              model.alphabet_size)
    return (digits + 48).astype(np.uint8).view(f"S{depth}").ravel().astype(str)


def _table(model, depth: int, values: np.ndarray) -> dict:
    """Key -> real part of each entry of a depth-`depth` tabulation."""
    return dict(zip(_keys(model, depth).tolist(), np.real(values).tolist()))


def _emit(config: RunConfig, payload: dict) -> str:
    doc = {
        "tool": "thermoshift",
        "version": __version__,
        "config_digest": config.digest(),
        **payload,
    }
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise ConvergenceError(
            f"the {config.task} result holds a non-finite number") from None


def _emit_csv(config: RunConfig, header, rows) -> str:
    buf = io.StringIO()
    buf.write(f"# thermoshift {__version__} config_digest={config.digest()}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _write(config: RunConfig, text: str):
    if config.out_path:
        with open(config.out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _task_rpf(config: RunConfig) -> str:
    model = config.model
    if config.H is not None:
        weight = boltzmann_weight(config.H, config.beta)
    elif config.p is not None:
        weight = config.p
    else:
        weight = CylinderFunction.constant(model, 1.0)
    sol = rpf_solve(TransferOperator(model, weight), depth=config.numeric.depth,
                    tol=config.numeric.tol, max_iter=config.numeric.max_iter)
    return _emit(config, {
        "eigenvalue": sol.eigenvalue,
        "pressure": sol.pressure,
        "eigenfunction": _table(model, sol.eigenfunction.depth, sol.eigenfunction.values),
        "eigenmeasure": _table(model, sol.eigenmeasure.depth, sol.eigenmeasure.masses),
        "iterations": sol.iterations,
        "residual": sol.residual,
        "dual_residual": sol.dual_residual,
    })


def _task_kms(config: RunConfig) -> str:
    spec = gauge_spec(config)
    num = config.numeric
    depth = num.depth or spec.working_depth(num.N)
    rng = np.random.default_rng(num.seed)
    steps = projection_steps(spec, depth)
    results = []
    for _ in range(num.starts):
        phi0 = random_start(spec, depth, rng)
        results.append(kms_iterate(spec, phi0, steps, tol=num.tol))
    pairwise = float(np.max(
        [results[i].state.total_variation(results[j].state)
         for i in range(len(results)) for j in range(i + 1, len(results))],
        initial=0.0))
    state = results[0].state
    return _emit(config, {
        "state": _table(state.model, state.depth, state.masses),
        "per_start_agreement": pairwise,
        "last_change": float(np.max([r.history[-1] for r in results])),
        "iterations": [r.iterations for r in results],
    })


def _task_monomial_check(config: RunConfig) -> str:
    spec = gauge_spec(config)
    ctx = AlgebraContext(spec.model, spec.p)
    rng = np.random.default_rng(config.numeric.seed)
    depth = config.numeric.depth or (spec.working_depth(3) + 1)
    phi = gibbs_state(spec, depth=depth)

    def random_fn():
        n = len(wordcodes.admissible_codes(spec.model, 1))
        return CylinderFunction(spec.model, 1, rng.random(n) + 0.2)

    def random_elem():
        level = int(rng.integers(0, 3))
        return AlgebraElement.monomial(ctx, random_fn(), level, random_fn())

    hom_defect = kms_defect = 0.0
    for _ in range(50):
        x, y = random_elem(), random_elem()
        d = max(x.max_level(), y.max_level()) + 2
        hom_defect = np.maximum(hom_defect, np.abs(
            represent(multiply(x, y), d) - represent(x, d) @ represent(y, d)).max())
        lhs = state_eval(phi, multiply(x, gauge(spec, y, 1j * spec.beta)))
        rhs = state_eval(phi, multiply(y, x))
        kms_defect = np.maximum(kms_defect, abs(lhs - rhs))
    if not np.isfinite([hom_defect, kms_defect]).all():
        raise ConvergenceError(f"monomial-check defects at beta={spec.beta} are not "
                               f"finite: {hom_defect} and {kms_defect}")
    return _emit(config, {
        "homomorphism_defect": float(hom_defect),
        "kms_equality_defect": float(kms_defect),
        "samples": 50,
    })


def _task_optimize(config: RunConfig) -> str:
    model = config.model
    opt = m_value(model, config.H)
    V = subaction(model, config.H, m=opt.m)
    tilted = cohomologous_tilt(model, config.H, V)
    gsets = {n: sorted(_word_key(w) for w in conditional_minima(model, config.H, n).members)
             for n in range(1, 5)}
    fbar = -config.H.log() - opt.m
    slack = alpha_power(V, 1) - V - fbar
    eq_words = _keys(model, slack.depth)[np.abs(slack.values) <= 1e-10]
    return _emit(config, {
        "m": opt.m,
        "witness": _word_key(opt.witness_cycle),
        "ties": [_word_key(w) for w in opt.all_witnesses],
        "V": _table(model, V.depth, V.values),
        "equality_set": sorted(eq_words.tolist()),
        "tilted_H": _table(model, tilted.depth, tilted.values),
        "ground_sets": {str(n): ws for n, ws in gsets.items()},
    })


def _task_subaction(config: RunConfig) -> str:
    model = config.model
    opt = m_value(model, config.H)
    V = subaction(model, config.H, m=opt.m)
    return _emit(config, {"m": opt.m, "V": _table(model, V.depth, V.values),
                          "witness": _word_key(opt.witness_cycle)})


def _task_ground(config: RunConfig) -> str:
    spec = gauge_spec(config)
    n = config.numeric.N
    depth = config.numeric.depth or spec.working_depth(n)
    opt = m_value(config.model, spec.H)
    mu = point_mass(config.model, opt.witness_cycle, depth)
    report = ground_support_test(config.model, spec.p, spec.H, mu, n)
    report["witness_cycle"] = _word_key(opt.witness_cycle)
    if report["witness"] is not None:
        report["witness"] = _word_key(report["witness"])
    return _emit(config, report)


def _task_renewal(config: RunConfig) -> str:
    from .renewal import RenewalModel, phase_transition_report, pressure_curve
    m = RenewalModel(config.renewal_gamma, config.renewal_K)
    curve = pressure_curve(m, config.renewal_beta_grid)
    if config.out_format == "csv":
        return _emit_csv(config, ("beta", "pressure", "root_residual"),
                         [(f"{b:.10g}", f"{p:.12g}", f"{r:.3g}")
                          for b, p, r in curve.as_rows()])
    report = phase_transition_report(m)
    return _emit(config, {
        "gamma": m.gamma,
        "K": m.K,
        "curve": [{"beta": b, "pressure": p, "root_residual": r}
                  for b, p, r in curve.as_rows()],
        "transition": report,
    })


def _task_verify_all(config: RunConfig) -> str:
    report = verify_all(config)
    text = _emit(config, report)
    if not report["all_pass"]:
        _write(config, text)
        failing = [tag for tag, entry in report["tags"].items() if not entry["pass"]]
        raise ConvergenceError(f"verification failed for tags: {failing}")
    return text


_TASK_RUNNERS = {
    "rpf": _task_rpf,
    "kms": _task_kms,
    "monomial-check": _task_monomial_check,
    "optimize": _task_optimize,
    "subaction": _task_subaction,
    "ground": _task_ground,
    "renewal": _task_renewal,
    "verify-all": _task_verify_all,
}


def run(config: RunConfig) -> int:
    """Execute a validated config, floating-point warnings silenced (a
    non-finite result fails as a numerical error); returns the exit code."""
    try:
        with np.errstate(all="ignore"):
            text = _TASK_RUNNERS[config.task](config)
    except (ConfigError, ShiftSpaceError) as exc:
        sys.stderr.write(json.dumps({"error": "validation", "detail": str(exc)}) + "\n")
        return 2
    except ConvergenceError as exc:
        res = exc.residual  # null unless finite: JSON has no NaN or infinity
        sys.stderr.write(json.dumps(
            {"error": "numerical", "detail": str(exc),
             "residual": res if res is None or np.isfinite(res) else None}) + "\n")
        return 3
    _write(config, text)
    return 0


class _JsonErrorParser(argparse.ArgumentParser):
    """Reports a flag error as one JSON validation object on stderr, exit 2.

    Subparsers are built from the parent's class, so they report the same way.
    """

    def error(self, message):
        sys.stderr.write(json.dumps(
            {"error": "validation", "detail": f"{self.prog}: {message}"}) + "\n")
        self.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _JsonErrorParser(
        prog="thermoshift",
        description="Numerics for transfer operators, equilibrium states and "
                    "ergodic optimization on subshifts of finite type.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="task", required=True)
    for task in _TASK_RUNNERS:
        sp = sub.add_parser(task, help=f"run the {task} task")
        sp.add_argument("--config", required=True, help="path to a JSON config")
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        sp.add_argument("--format", choices=("json", "csv"), default=None)
        sp.add_argument("--seed", type=int, default=None)
        if task == "kms":
            sp.add_argument("--starts", type=int, default=None)
        if task == "renewal":
            sp.add_argument("--gamma", type=float, default=None)
            sp.add_argument("--K", type=int, default=None)
            sp.add_argument("--beta-grid", type=str, default=None,
                            help="comma-separated betas")
    return parser


# flag (argparse dest) -> the config section and key it overrides
_OVERRIDES = (("out", "output", "path"), ("format", "output", "format"),
              ("seed", "numeric", "seed"), ("starts", "numeric", "starts"),
              ("gamma", "renewal", "gamma"), ("K", "renewal", "K"),
              ("beta_grid", "renewal", "beta_grid"))


def _beta_grid(text: str) -> list[float]:
    try:
        return [float(b) for b in text.split(",")]
    except ValueError:
        raise ConfigError(
            f"--beta-grid must be comma-separated numbers, got {text!r}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a csv format in a file is ignored by verify-all, which runs on any
        # config; as a flag it asks for an output verify-all cannot write
        if args.task == "verify-all" and args.format == "csv":
            raise ConfigError("--format csv is for the renewal task, not 'verify-all'")
        raw = read_config(args.config)
        raw["task"] = args.task
        for flag, name, key in _OVERRIDES:
            value = getattr(args, flag, None)
            if value is not None:
                if flag == "beta_grid":
                    value = _beta_grid(value)
                raw[name] = {**require_object(raw.get(name, {}), name), key: value}
        config = parse_config(raw)
    except (OSError, ConfigError) as exc:
        sys.stderr.write(json.dumps({"error": "validation", "detail": str(exc)}) + "\n")
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
