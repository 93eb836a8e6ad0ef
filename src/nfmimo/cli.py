"""Command-line front end: one subcommand per experiment kind.

Exit status is 0 only when every requested output was written; argument
and configuration problems report a descriptive message on stderr and a
nonzero status.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .geometry import _digits
from .harness import EXPERIMENT_KINDS, Experiment, load_config, run_experiment


def _parse_number_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated number list, got {text!r}") from None


def _parse_int_list(text: str) -> list[int]:
    try:
        return [_digits(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}") from None


def _add_common(sub: argparse.ArgumentParser, with_model: bool = True, model_default: str = "spherical") -> None:
    sub.add_argument("--config", type=Path, default=None, help="JSON scenario file (default: built-in profile)")
    sub.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sub.add_argument("--out", type=Path, default=Path("."), help="output directory (default: cwd)")
    sub.add_argument(
        "--realizations", dest="n_realizations", metavar="REALIZATIONS", type=int, default=500,
        help="Monte Carlo field count (default 500)",
    )
    if with_model:
        sub.add_argument(
            "--model",
            type=str,
            default=model_default,
            help=f"wavefront model: spherical | planar | subarray:HxV (default {model_default})",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfmimo",
        description=(
            "Near-field large-scale MIMO channel experiments: model error, "
            "operation counts, correlation statistics, and capacity sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="|".join(k.replace("_", "-") for k in EXPERIMENT_KINDS))

    p = sub.add_parser("rayleigh-table", help="near/far boundary for standard apertures")
    _add_common(p, with_model=False)

    p = sub.add_parser("error-vs-array", help="model error vs array side length")
    _add_common(p, model_default="planar")
    p.add_argument("--sides", type=_parse_int_list, default=[8, 16, 32, 64], help="comma-separated side lengths")
    p.add_argument("--t", type=float, default=0.0, help="evaluation time, s")

    p = sub.add_parser("error-vs-subarray", help="model error vs square tile size")
    _add_common(p, with_model=False)
    p.add_argument(
        "--p-max-list", type=_parse_int_list, default=[1, 2, 4, 8, 16, 30, 32, 64],
        help="comma-separated tile sizes",
    )
    p.add_argument("--t", type=float, default=0.0, help="evaluation time, s")

    p = sub.add_parser("complexity-sweep", help="operation counts vs square tile size")
    _add_common(p, with_model=False)
    p.add_argument(
        "--p-max-list", type=_parse_int_list, default=[1, 2, 4, 8, 16, 30],
        help="comma-separated tile sizes",
    )

    p = sub.add_parser("spatial-ccf", help="spatial cross-correlation vs antenna offset")
    _add_common(p)
    p.add_argument("--max-offset", type=int, default=None, help="largest horizontal element offset")
    p.add_argument("--dq", type=int, default=0, help="receive element offset")
    p.add_argument("--dt", type=float, default=0.0, help="time lag, s")
    p.add_argument("--t", type=float, default=0.0, help="evaluation time, s")

    p = sub.add_parser("temporal-acf", help="temporal autocorrelation vs time lag")
    _add_common(p)
    p.add_argument("--dt-max", type=float, default=0.05, help="largest time lag, s")
    p.add_argument("--points", type=int, default=101, help="number of lags")
    p.add_argument("--t", type=float, default=0.0, help="evaluation time, s")

    p = sub.add_parser("frequency-cf", help="frequency correlation vs frequency offset")
    _add_common(p)
    p.add_argument("--df-max", type=float, default=1e7, help="largest frequency offset, Hz")
    p.add_argument("--points", type=int, default=101, help="number of offsets")
    p.add_argument("--t", type=float, default=0.0, help="evaluation time, s")

    p = sub.add_parser("capacity-sweep", help="ensemble capacity vs SNR")
    _add_common(p)
    p.add_argument(
        "--snr-db", dest="snr_db_list", metavar="SNR_DB", type=_parse_number_list,
        default=[0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0],
        help="comma-separated SNR points, dB",
    )
    p.add_argument("--normalize-each", action="store_true", help="normalize every matrix exactly instead of in expectation")
    p.add_argument(
        "--phase-draws", type=int, default=1,
        help="ray-phase redraws averaged per field (variance reduction)",
    )
    p.add_argument("--t", type=float, default=0.0, help="evaluation time, s")

    return parser


# The sweep keys each kind records, each read from the parsed argument of the same name.
_SWEEP_KEYS = {
    "rayleigh_table": (),
    "error_vs_array": ("sides", "model", "t"),
    "error_vs_subarray": ("p_max_list", "t"),
    "complexity_sweep": ("p_max_list",),
    "spatial_ccf": ("model", "max_offset", "dq", "dt", "t", "n_realizations"),
    "temporal_acf": ("model", "dt_max", "points", "t", "n_realizations"),
    "frequency_cf": ("model", "df_max", "points", "t", "n_realizations"),
    "capacity_sweep": ("model", "snr_db_list", "normalize_each", "phase_draws", "t", "n_realizations"),
}


def _sweep_from_args(kind: str, args: argparse.Namespace) -> dict:
    """The sweep of kind from its parsed arguments; an unset --max-offset (None) stays out."""
    return {key: getattr(args, key) for key in _SWEEP_KEYS[kind] if getattr(args, key) is not None}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    kind = args.command.replace("-", "_")
    try:
        if args.n_realizations < 1:
            raise ValueError(f"--realizations must be >= 1, got {args.n_realizations}")
        cfg = load_config(args.config)
        exp = Experiment(kind=kind, sweep=_sweep_from_args(kind, args), seed=args.seed, output=args.out)
        manifest = run_experiment(exp, cfg)
    except (ValueError, OSError) as exc:
        print(f"nfmimo: error: {exc}", file=sys.stderr)
        return 2
    for name in sorted(manifest.outputs):
        print(f"wrote {exp.output / name}")
    print(f"wrote {exp.output / 'manifest.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
