"""Command-line surface: capacity, tradeoff, estimate, simulate, bounds.

Every command reads its settings on one path (`_command`): each setting
comes from its flag if the user set it, else from the `--config` JSON
object under the same name, else from the option's default, and is checked
as the flag is; it also loads the channel and the `--distortion` matrix.
A command body only computes; it returns a JSON report and, if the command
has one, a CSV table.

Every command is deterministic given (config, seed) and emits byte-identical
artifacts on re-runs.  Exit codes: 0 success, 1 `estimate`'s estimator
disagrees with the exhaustive oracle, 2 config or validation error (an
unwritable `--out` too), 3 infeasible budget or zero-capacity channel,
4 oracle guard breach when an exact cross-check was demanded, 5 a solver
that did not converge.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from pathlib import Path

import click
from click.core import ParameterSource
import numpy as np

from .capacity import (
    CapacityResult,
    det_capacity_distortion,
    det_feedback_capacity,
    image_size_bound,
    rand_capacity_distortion,
    rand_feedback_capacity,
    rate_of_code,
    shannon_capacity_avg,
    tradeoff_curve,
)
from .channel import StateDMC, load_channel
from .coding import build_id_code
from .errors import (
    IdsenseError,
    InfeasibleDistortion,
    NoConvergence,
    TooLargeToEnumerate,
    ZeroCapacityChannel,
)
from .estimation import (
    DistortionMatrix,
    _require_fit,
    distortion_profile,
    feasible_inputs,
    hamming_distortion,
    optimal_estimator,
)
from .fixtures import fixture_path
from .sim import (
    _json_rates,
    _rate_stderr,
    brute_force_estimator_distortion,
    exact_error_probabilities,
    monte_carlo,
    pairs_to_test,
)
from .typicality import typical_size_bounds

EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_GUARD = 4
EXIT_SOLVER = 5
# An a:b:step grid is refused above this many points, before any is built.
MAX_GRID_POINTS = 10_000


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _resolve_channel(name: str) -> tuple[StateDMC, "np.ndarray | None"]:
    path = Path(name)
    if not path.exists():
        path = Path(fixture_path(name))
        if not path.exists():
            _fail(EXIT_CONFIG, f"channel file {name!r} not found")
    try:
        return load_channel(path)
    except (IdsenseError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        _fail(EXIT_CONFIG, f"invalid channel file {name!r}: {exc}")


def _resolve_distortion(spec: str | None, ch: StateDMC,
                        inline: "np.ndarray | None") -> DistortionMatrix:
    if spec is None and inline is not None:
        matrix = inline
    elif spec is None or spec == "hamming":
        return hamming_distortion(ch.state_size)
    else:
        raw = _read_json(spec, "distortion")
        if isinstance(raw, dict) and "distortion" not in raw:
            _fail(EXIT_CONFIG, f"distortion file {spec!r} has no 'distortion' key")
        matrix = raw["distortion"] if isinstance(raw, dict) else raw
    try:
        dist = DistortionMatrix(d=np.asarray(matrix, dtype=float))
        _require_fit(ch, dist)
    except (IdsenseError, ValueError, TypeError) as exc:
        _fail(EXIT_CONFIG, f"invalid distortion matrix: {exc}")
    return dist


def _parse_grid(grid: str) -> list[float]:
    try:
        if ":" in grid:
            a, b, step = (float(v) for v in grid.split(":"))
            if not all(map(math.isfinite, (a, b, step))) or step <= 0 or b < a:
                raise ValueError("grid must be finite and ascending with positive step")
            if (b - a) / step >= MAX_GRID_POINTS:
                raise ValueError(f"grid has more than {MAX_GRID_POINTS} points")
            # the point count checked above also ends the loop where v += step
            # no longer moves v (a step below the ulp of v)
            count = round((b - a + 1e-12) / step) + 1
            values = []
            v = a
            while v <= b + 1e-12 and len(values) < count:
                values.append(round(v, 12))
                v += step
            return values
        values = [float(v) for v in grid.split(",") if v.strip() != ""]
        if not all(map(math.isfinite, values)):
            raise ValueError("grid values must be finite")
        if not values or any(x > y for x, y in zip(values, values[1:])):
            raise ValueError("grid must be nonempty and ascending")
        return values
    except ValueError as exc:
        _fail(EXIT_CONFIG, f"bad grid {grid!r}: {exc}")


def _emit(text: str, out: str | None):
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            _fail(EXIT_CONFIG, f"cannot write {out!r}: {exc}")
    else:
        click.echo(text, nl=False)


def _emit_json(data, out: str | None):
    _emit(json.dumps(data, sort_keys=True, indent=2) + "\n", out)


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _emit_csv(rows: list[list], out: str | None):
    text = "\n".join(",".join(_csv_cell(v) for v in row) for row in rows) + "\n"
    _emit(text, out)


def _read_json(path: str, what: str):
    """The JSON value in the `what` file at `path`; a file that is missing,
    unreadable (a directory, say) or not JSON exits 2."""
    if not Path(path).exists():
        _fail(EXIT_CONFIG, f"{what} file {path!r} not found")
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        _fail(EXIT_CONFIG, f"cannot read {what} file {path!r}: {exc}")
    except ValueError as exc:
        _fail(EXIT_CONFIG, f"{what} file {path!r} is not valid JSON: {exc}")


def _load_config(config: str | None) -> dict:
    if config is None:
        return {}
    data = _read_json(config, "config")
    if not isinstance(data, dict):
        _fail(EXIT_CONFIG, "config file must hold a JSON object")
    return data


def _finite(key: str, value) -> float:
    """value as a finite float; anything else, a JSON boolean too, exits 2."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = float(value)
    except (TypeError, ValueError):
        _fail(EXIT_CONFIG, f"{key} must be a number, got {value!r}")
    if not math.isfinite(value):
        _fail(EXIT_CONFIG, f"{key} must be finite, got {value}")
    return value


def _integer(key: str, value) -> int:
    """value as an int; a non-integral value (2.5, "four", true) exits 2."""
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return int(value)
    except (TypeError, ValueError, OverflowError):
        _fail(EXIT_CONFIG, f"{key} must be an integer, got {value!r}")


def _read(param: click.Parameter, value):
    """One setting, checked by its option's type whether it came from the
    flag, the config file or the default: strict integers, finite floats,
    and the type's own conversion for choices, strings and `--exact`."""
    key = param.name
    if isinstance(param.type, click.types.IntParamType):
        return _integer(key, value)
    if isinstance(param.type, click.types.FloatParamType):
        return _finite(key, value)
    if not isinstance(value, (str, bool) if param.is_flag else str):
        _fail(EXIT_CONFIG, f"{key} must be {'true or false' if param.is_flag else 'a string'}"
                           f", got {value!r}")
    try:
        return param.type.convert(value, param, None)
    except click.BadParameter as exc:
        _fail(EXIT_CONFIG, f"{key}: {exc.message}")


@click.group()
def main():
    """Identification capacities and codes for state-dependent channels."""


_COMMON = [
    click.option("--channel", default=None, help="channel JSON file or fixture name"),
    click.option("--config", default=None, help="JSON config pinning an experiment"),
    click.option("--format", type=click.Choice(["json", "csv"]), default="json"),
    click.option("--out", default=None, help="output path (default stdout)"),
]
_DISTORTION = click.option("--distortion", default=None,
                           help="distortion JSON file or 'hamming'")
_BUDGET = click.option("-D", "--budget", "budget", type=float, default=None)


def _command(*options, required=()):
    """A command of `main` with the common options and `options`.

    Each setting comes from its flag if the user set it, else from the
    config file, else from the option's default, and is checked by `_read`.
    `channel` and the `required` settings must be set.  The body is called
    with the channel and every other setting, `distortion` resolved to a
    `DistortionMatrix` if the command declares it.  It returns
    `(report, csv_rows)`, written as CSV when `format` is csv and the
    command has rows, else as JSON.  The one table of exit codes for library
    errors is here.
    """
    def decorate(body):
        @functools.wraps(body)
        def command(**flags):
            ctx = click.get_current_context()
            config = _load_config(flags.pop("config"))
            params = {param.name: param for param in ctx.command.params}
            settings = {}
            for key, value in flags.items():
                if ctx.get_parameter_source(key) is ParameterSource.DEFAULT \
                        and config.get(key) is not None:
                    value = config[key]
                settings[key] = None if value is None else _read(params[key], value)
            for key in ("channel", *required):
                if settings[key] is None:
                    _fail(EXIT_CONFIG, f"missing required parameter {key!r}")
            ch, inline = _resolve_channel(settings.pop("channel"))
            if "distortion" in settings:
                settings["distortion"] = _resolve_distortion(settings["distortion"], ch,
                                                             inline)
            try:
                report, rows = body(ch, **settings)
            except (ZeroCapacityChannel, InfeasibleDistortion) as exc:
                _fail(EXIT_INFEASIBLE, str(exc))
            except TooLargeToEnumerate as exc:
                _fail(EXIT_GUARD, str(exc))
            except NoConvergence as exc:
                _fail(EXIT_SOLVER, str(exc))
            except IdsenseError as exc:
                _fail(EXIT_CONFIG, str(exc))
            if settings["format"] == "csv" and rows is not None:
                _emit_csv(rows, settings["out"])
            else:
                _emit_json(report, settings["out"])

        for opt in reversed(_COMMON + list(options)):
            command = opt(command)
        return main.command()(command)
    return decorate


@_command()
def capacity(ch, **_):
    """Shannon and feedback ID capacities of the averaged channel."""
    shannon = shannon_capacity_avg(ch)
    det = det_feedback_capacity(ch)
    rand = rand_feedback_capacity(ch)
    report = {
        "shannon": shannon.value,
        "shannon_maximizer": shannon.maximizer.p.tolist(),
        "det_f": det.value,
        "det_f_maximizer": int(det.maximizer),
        "rand_f": rand.value,
        "rand_f_maximizer": rand.maximizer.p.tolist(),
        "rand_f_gap": rand.optimality_gap,
    }
    rows = [["quantity", "value"],
            ["shannon", shannon.value],
            ["det_f", det.value],
            ["rand_f", rand.value]]
    return report, rows


@_command(_DISTORTION,
          click.option("--grid", default=None, help="budgets as 'a:b:step' or 'a,b,c'"),
          click.option("--mode", type=click.Choice(["det", "rand", "both"]), default="det"),
          required=("grid",))
def tradeoff(ch, distortion, grid, mode, **_):
    """Capacity-distortion curve over a budget grid."""
    budgets = _parse_grid(grid)
    modes = ["det", "rand"] if mode == "both" else [mode]
    curves = {m: tradeoff_curve(ch, distortion, budgets, m) for m in modes}
    rows = [["mode", "D", "feasible", "value"]]
    for m in modes:
        for point in curves[m]:
            rows.append([m, point["D"], point["feasible"],
                         point["value"] if point["value"] is not None else ""])
    return {"grid": budgets, "curves": curves}, rows


@_command(_DISTORTION, _BUDGET)
def estimate(ch, distortion, budget, out, **_):
    """Optimal estimator table, distortion profile, and feasible input set."""
    table = optimal_estimator(ch, distortion)
    profile = distortion_profile(ch, distortion).per_input
    report = {
        "estimator": table.h.tolist(),
        "profile": profile.tolist(),
    }
    if budget is not None:
        report["budget"] = budget
        report["feasible_inputs"] = sorted(feasible_inputs(ch, distortion, budget))
    rows = [["x", "d_star"]] + [[x, float(v)] for x, v in enumerate(profile)]
    try:
        oracle_profile, _ = brute_force_estimator_distortion(ch, distortion)
    except TooLargeToEnumerate:
        return report, rows
    report["oracle_profile"] = oracle_profile.tolist()
    diff = float(np.abs(oracle_profile - profile).max())
    report["oracle_max_diff"] = diff
    if diff > 1e-9:
        _emit_json(report, out)
        _fail(1, f"estimator disagrees with the exhaustive oracle by {diff:.3e}")
    return report, rows


@_command(_DISTORTION, _BUDGET,
          click.option("--mode", type=click.Choice(["det", "rand"]), default="det"),
          click.option("--n", "n", type=int, default=None, help="pilot block length"),
          click.option("--identities", type=int, default=None),
          click.option("--colors", type=int, default=None),
          click.option("--eps", type=float, default=0.1),
          click.option("--trials", type=int, default=10_000),
          click.option("--seed", type=int, default=0),
          click.option("--exact", is_flag=True, default=False,
                       help="demand the exact error oracle alongside Monte Carlo"),
          required=("n", "identities", "colors"))
def simulate(ch, distortion, budget, mode, n, identities, colors, eps,
             trials, seed, exact, **_):
    """Build a feedback ID code, simulate it, and report errors + distortion."""
    if trials < 1:
        _fail(EXIT_CONFIG, "trials must be >= 1")
    if budget is None:
        budget = float(distortion_profile(ch, distortion).per_input.max())
    code = build_id_code(ch, distortion, budget, n, identities, colors, eps, mode, seed)
    tested = pairs_to_test(code, seed)
    if exact:  # the oracle first: its guard refuses before any trial is drawn
        oracle = exact_error_probabilities(code, ch, tested)
    report = monte_carlo(code, ch, distortion, trials, seed=seed)
    data = report.to_dict()
    data["code"] = code.to_dict()
    data["rate"] = rate_of_code(identities, code.m)
    det = det_feedback_capacity(ch)
    det_within_budget = det_capacity_distortion(ch, distortion, budget)
    data["image_size_log2_K1"] = image_size_bound(code.m, 0.5, ch.output_size, det.value)
    data["image_size_log2_K3"] = image_size_bound(code.m, 0.5, ch.output_size,
                                                  det_within_budget.value)
    if exact:
        data["exact_lambda1"], data["exact_lambda2"] = _json_rates(oracle["lambda1"],
                                                                   oracle["lambda2"])
    rows = [["i", "iprime", "trials", "accept_rate", "stderr"]]
    for (a, b) in tested:
        p = 1.0 - report.lambda1_per_identity[a] if a == b else report.lambda2_per_pair[(a, b)]
        rows.append([a, b, trials, p, _rate_stderr(p, trials)])
    rows.append([])
    rows.append(["t", "d_t_hat", "stderr"])
    for t in range(code.m):
        rows.append([t + 1, float(report.d_t_hat[t]),
                     float(report.d_t_stderr[t])])
    return data, rows


@_command(_DISTORTION, _BUDGET,
          click.option("--n", "n", type=int, default=None, help="blocklength"),
          click.option("--eps", type=float, default=0.1),
          click.option("--mu", type=float, default=0.5, help="converse slack in (0,1)"),
          required=("n",))
def bounds(ch, distortion, budget, n, eps, mu, **_):
    """Typical-set size exponents and image-size caps at a given blocklength.

    typical_log2_size_lower/upper are the size lemma's exponents
    n(H -+ c(eps)).  The lower one bounds log2 |T| only together with the
    typical set's mass factor, and only for large n.  The caps K1-K4 are
    `image_size_bound` over det_f, rand_f and, with -D, their
    distortion-constrained values.  JSON only.
    """
    def cap(result: CapacityResult) -> float:
        return image_size_bound(n, mu, ch.output_size, result.value)

    det = det_feedback_capacity(ch)
    lo, hi = typical_size_bounds(ch, int(det.maximizer), n, eps)
    report = {
        "n": n, "eps": eps, "mu": mu,
        "pilot": int(det.maximizer),
        "typical_log2_size_lower": lo,
        "typical_log2_size_upper": hi,
        "image_size_log2_K1": cap(det),
        "image_size_log2_K2": cap(rand_feedback_capacity(ch)),
    }
    if budget is not None:
        report["image_size_log2_K3"] = cap(det_capacity_distortion(ch, distortion, budget))
        report["image_size_log2_K4"] = cap(rand_capacity_distortion(ch, distortion, budget))
    return report, None


if __name__ == "__main__":
    main()
