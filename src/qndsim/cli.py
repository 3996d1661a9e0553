"""Command-line surface: run chains, sweep fidelities, optimize, validate.

Exit codes are a stable contract for scripting:
  0  success
  1  validation failure (``validate`` only; the report is still written)
  2  usage error (bad flags or unparsable values)
  3  domain error (degenerate phase, grid overflow, ...)

All numeric files are locale-independent: decimal points, fixed column
order, LF line endings, 17 significant digits.  Each command computes its
files in memory; ``main`` writes them, with a ``manifest.json`` listing
them, only once the command has returned.  So every run that exits 0 or 1
writes ``manifest.json`` and a run that exits 2 or 3 writes nothing.  The
manifest's ``config`` holds every parsed flag but ``--out`` and ``--seed``
(the seed has its own key), with ``--signal`` in canonical form, plus the
transmittivity and output squeeze factor that ``chain`` derives from phi.
An unset ``optimize --tol`` is recorded as null and takes the report
function's own default; ``report.json`` states the tolerance used.
Identical flags, seed and tool version reproduce identical numeric outputs.
``main`` may be called repeatedly in one process; the parser is built at its first call.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, checks
from .chain import (
    _check_indexable, check_phase, conditional_output, homodyne_distribution, make_outcome,
    sample_outcomes,
)
from .errors import InvalidParameterError, QndSimError
from .fidelity import OUTCOME_NODES
from .grids import (
    DEFAULT_GRID_POINTS,
    GaussianSpec,
    Grid,
    GridPolicy,
    WaveFunction,
    build_gaussian,
    build_state,
    density,
    format_state_spec,
    overlap,
    parse_state_spec,
)
from .optimize import (
    gaussian_trade_off_report,
    numeric_trade_off_curve,
    numeric_trade_off_report,
    trade_off,
    tune_phase,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

DEFAULT_SIGNAL = "gaussian:0,0.25"
DEFAULT_PHI = math.pi / 4
PHI_HELP = "interferometer phase (rad), only checked and recorded: F and G depend on x alone"


# ---------------------------------------------------------------------------
# argument parsing helpers (raise ArgumentTypeError -> argparse exits 2)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _seed_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer seed, got {text!r}") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must fit in 64 unsigned bits, got {value}")
    return value


def _outcome_arg(text: str) -> str | list[float]:
    """'sample:<n>' with n an integer > 0, or the list of fixed outcome values."""
    if text.startswith("sample:"):
        return f"sample:{_positive_int(text.partition(':')[2])}"
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an outcome value, a comma list of values, or sample:<n>; got {text!r}"
        ) from None


def _signal_arg(text: str) -> str:
    """The canonical --signal text: 'file:<path>' as given, or a spec's canonical text."""
    if text.startswith("file:"):
        if text == "file:":
            raise argparse.ArgumentTypeError("file: signal needs a path, got empty string")
        return text
    try:
        return format_state_spec(parse_state_spec(text))
    except InvalidParameterError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


# ---------------------------------------------------------------------------
# deterministic file output


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _csv(header: list[str], columns: list[np.ndarray]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in zip(*columns))
    return "\n".join(lines) + "\n"


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# signal loading


def _load_signal(signal: str, policy: GridPolicy) -> WaveFunction:
    kind, _, path = signal.partition(":")
    if kind == "file":
        try:
            data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        except ValueError as err:
            raise InvalidParameterError(f"signal file {path} is not numeric: {err}") from None
        if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 16:
            raise InvalidParameterError(
                f"signal file {path} must hold at least 16 rows of x,amplitude"
            )
        x, amp = data[:, 0], data[:, 1]
        grid = Grid(float(x[0]), float(x[-1]), len(x))
        if not np.allclose(x, grid.points, rtol=0.0, atol=1e-9 * (grid.x_max - grid.x_min)):
            raise InvalidParameterError(f"signal file {path} is not uniformly spaced")
        return WaveFunction.normalized(grid, amp)
    spec = parse_state_spec(signal)
    return build_state(spec, policy.grid_for([spec]))


def _check_bracket(args: argparse.Namespace) -> None:
    for flag, value in (("--x-min", args.x_min), ("--x-max", args.x_max)):
        if not math.isfinite(value):
            raise InvalidParameterError(f"{flag} must be finite, got {value}")
    if not 0 < args.x_min < args.x_max:
        raise InvalidParameterError(f"need 0 < --x-min < --x-max, got [{args.x_min}, {args.x_max}]")


def _state_summary(wf: WaveFunction) -> dict:
    return {
        "norm": wf.norm(),
        "mean": wf.mean(),
        "variance": wf.variance(),
    }


# ---------------------------------------------------------------------------
# commands: each returns (exit code, {file name: text}, the values it derives
# for the manifest's config beside the parsed flags)

Files = dict[str, str]


def cmd_chain(args: argparse.Namespace) -> tuple[int, Files, dict]:
    policy = GridPolicy(n_points=args.grid_n, halfspan=args.grid_span)
    probe_spec = GaussianSpec(mean=0.0, variance=args.probe_variance)
    check_phase(args.phi)
    signal = _load_signal(args.signal, policy)
    probe = build_gaussian(probe_spec, policy.grid_for([probe_spec]))

    homodyne = homodyne_distribution(signal, probe, args.phi)
    files = {"homodyne.csv": _csv(["x0", "p"], [homodyne.grid.points, homodyne.density])}

    summary: dict = {
        "signal": _state_summary(signal),
        "homodyne": {
            "mean": homodyne.mean(),
            "variance": homodyne.variance(),
            "integral": homodyne.total(),
        },
        "outcomes": [],
    }

    if isinstance(args.outcome, list):
        for i, x0 in enumerate(args.outcome):
            conditional = conditional_output(signal, probe, args.phi, x0)
            name = f"conditional_{i:02d}.csv"
            dist = density(conditional)
            files[name] = _csv(["x", "density"], [dist.grid.points, dist.density])
            event = make_outcome(homodyne, x0, args.phi)
            record = {
                "x0": event.x0,
                "raw_X": event.raw_X,
                "density_at_x0": event.density_at_x0,
                "file": name,
                "overlap_sq_with_signal": abs(overlap(signal, conditional)) ** 2,
            }
            record.update(_state_summary(conditional))
            summary["outcomes"].append(record)
    else:
        count = int(args.outcome.partition(":")[2])
        draws = sample_outcomes(homodyne, count, args.seed)
        files["samples.csv"] = _csv(["x0"], [draws])
        summary["samples"] = {
            "count": count,
            "mean": float(draws.mean()),
            "std": float(draws.std()),
            "seed": args.seed,
        }

    files["summary.json"] = _json(summary)
    cos_phi = math.cos(args.phi)
    return EXIT_OK, files, {"transmittivity": cos_phi**2, "output_squeeze_factor": cos_phi}


def cmd_sweep(args: argparse.Namespace) -> tuple[int, Files, dict]:
    _check_bracket(args)
    _check_indexable(args.steps, "--steps")
    check_phase(args.phi)
    xs = np.linspace(args.x_min, args.x_max, args.steps)

    if args.mode == "closed":
        pairs = [trade_off(float(x)) for x in xs]
    else:
        signal = _load_signal(args.signal, GridPolicy(n_points=args.grid_n))
        pairs = numeric_trade_off_curve(signal, xs, args.phi)

    f_col = np.array([p.F for p in pairs])
    g_col = np.array([p.G for p in pairs])
    sweep_csv = _csv(["x", "F", "G", "F_plus_G"], [xs, f_col, g_col, f_col + g_col])
    return EXIT_OK, {"sweep.csv": sweep_csv}, {}


def cmd_optimize(args: argparse.Namespace) -> tuple[int, Files, dict]:
    _check_bracket(args)
    check_phase(args.phi)
    policy = GridPolicy(n_points=args.grid_n)
    signal = _load_signal(args.signal, policy)
    search = {"lo": args.x_min, "hi": args.x_max}
    if args.tol is not None:  # unset: the report function's own default
        search["tol"] = args.tol
    if args.mode == "closed":
        report = gaussian_trade_off_report(**search)
    else:
        report = numeric_trade_off_report(signal, args.phi, **search)
    payload = dataclasses.asdict(report)
    payload["mode"] = args.mode
    if args.sigma_probe is not None:
        sigma_s = math.sqrt(signal.variance())
        payload["sigma_probe"] = args.sigma_probe
        payload["sigma_signal"] = sigma_s
        payload["tuned_phase"] = tune_phase(sigma_s, args.sigma_probe, report.x_m)
    return EXIT_OK, {"report.json": _json(payload)}, {}


def cmd_validate(args: argparse.Namespace) -> tuple[int, Files, dict]:
    results = checks.run(args.suite)
    all_passed = all(c["passed"] for c in results)
    for check in results:
        status = "PASS" if check["passed"] else "FAIL"
        print(
            f"[{status}] {check['name']}: measured {check['measured']:.3e} "
            f"{check['comparison']} {check['threshold']:.3e}"
        )
    report = _json({"suite": args.suite, "passed": all_passed, "checks": results})
    code = EXIT_OK if all_passed else EXIT_VALIDATION
    return code, {"report.json": report}, {}


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qndsim",
        description="Quadrature measurement-chain simulator and trade-off optimizer.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    chain = sub.add_parser("chain", help="Run the measurement chain once and dump densities.")
    chain.add_argument("--phi", type=float, required=True, help="interferometer phase (rad)")
    chain.add_argument("--probe-var", dest="probe_variance", metavar="PROBE_VAR", type=float,
                       required=True, help="probe density variance")
    chain.add_argument("--signal", type=_signal_arg, default=DEFAULT_SIGNAL)
    chain.add_argument(
        "--outcome",
        type=_outcome_arg,
        required=True,
        help="fixed outcome value(s) 'x0[,x1,...]' or 'sample:<n>'",
    )
    chain.add_argument("--seed", type=_seed_arg, default=0)
    chain.add_argument("--out", required=True, metavar="DIR")
    chain.add_argument("--grid-n", type=_positive_int, default=DEFAULT_GRID_POINTS)
    chain.add_argument("--grid-span", type=float, default=None, help="half-width override")

    sweep = sub.add_parser("sweep", help="Tabulate F, G, F+G over a range of filter ratios.")
    sweep.add_argument("--x-min", type=float, required=True)
    sweep.add_argument("--x-max", type=float, required=True)
    sweep.add_argument("--steps", type=_positive_int, required=True)
    sweep.add_argument("--mode", choices=("closed", "numeric"), required=True)
    sweep.add_argument("--signal", type=_signal_arg, default=DEFAULT_SIGNAL)
    sweep.add_argument("--phi", type=float, default=DEFAULT_PHI, help=PHI_HELP)
    sweep.add_argument("--grid-n", type=_positive_int, default=DEFAULT_GRID_POINTS)
    sweep.add_argument("--outcome-nodes", type=_positive_int, default=OUTCOME_NODES,
                       help="accepted and recorded in the manifest, but not read: the "
                       "numeric sweep filters the signal on its own grid, with no outcome grid")
    sweep.add_argument("--out", required=True, metavar="DIR")

    optimize = sub.add_parser("optimize", help="Locate the F+G maximum and the F=G crossing.")
    optimize.add_argument("--mode", choices=("closed", "numeric"), required=True)
    optimize.add_argument("--signal", type=_signal_arg, default=DEFAULT_SIGNAL)
    optimize.add_argument("--tol", type=float, default=None,
                          help="search tolerance (default: 1e-4 closed, 1e-3 numeric)")
    optimize.add_argument("--phi", type=float, default=DEFAULT_PHI, help=PHI_HELP)
    optimize.add_argument("--sigma-probe", type=float, default=None,
                          help="probe width; the report adds the phase that realizes x_m")
    optimize.add_argument("--x-min", type=float, default=0.2)
    optimize.add_argument("--x-max", type=float, default=5.0)
    optimize.add_argument("--grid-n", type=_positive_int, default=1024)
    optimize.add_argument("--out", required=True, metavar="DIR")

    validate = sub.add_parser("validate", help="Run the limit and pipeline consistency suites.")
    validate.add_argument("--suite", choices=("limits", "pipeline", "all"), default="all")
    validate.add_argument("--out", required=True, metavar="DIR")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built at the first `main` call and reused by every later one."""
    return build_parser()


_NOT_CONFIG = ("command", "out", "seed")  # seed: recorded at the manifest's top level


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help itself
        return int(exc.code or 0)
    try:
        # looked up at call time, not bound into the shared parser, so that a wrapper set
        # on a module attribute (a tracer's, a test's) runs while it is set
        code, files, derived = globals()[f"cmd_{args.command}"](args)
        flags = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
        manifest = {
            "command": args.command,
            "config": {**flags, **derived},
            "outputs": sorted(files),
            "seed": getattr(args, "seed", None),
            "tool_version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        files["manifest.json"] = _json(manifest)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out_dir / name).write_text(text, encoding="ascii", newline="\n")
        return code
    except (QndSimError, MemoryError) as exc:  # numpy's refused allocations are MemoryErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
