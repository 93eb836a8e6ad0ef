"""Command-line front end: one subcommand per experiment kind.

Exit status is 0 only when every requested output was written; argument
and configuration problems report a descriptive message on stderr and a
nonzero status.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .geometry import _digits, _index, _number
from .harness import KINDS, SWEEP_KEYS, Experiment, load_config, run_experiment


def _flag_type(parse, expected: str):
    """An argparse type that reads a flag's text with parse; a ValueError reports "expected <expected>, got <text>"."""

    def read(text: str):
        try:
            return parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None

    return read


def _items(parse):
    """parse over the comma-separated items of a text; blank items are skipped."""
    return lambda text: [parse(tok.strip()) for tok in text.split(",") if tok.strip()]


_parse_real = _flag_type(_number, "a number")
_parse_number_list = _flag_type(_items(_number), "a comma-separated number list")
_parse_int_list = _flag_type(_items(_digits), "a comma-separated integer list")
# ASCII digits after at most one '-': negative values (a --dq offset, a bad --seed) reach the range checks.
_parse_int = _flag_type(
    lambda text: -_digits(text[1:]) if text.startswith("-") else _digits(text), "an integer of digits 0-9"
)


# How each sweep key of harness.SWEEP_KEYS reads from the command line: (flag, text parser, help).
# A parser of None makes a switch. Keys without an entry (rayleigh_table's grid) are library-only.
_FLAGS = {
    "model": ("--model", str, "wavefront model: spherical | planar | subarray:HxV"),
    "t": ("--t", _parse_real, "evaluation time, s"),
    "n_realizations": ("--realizations", _parse_int, "Monte Carlo field count"),
    "sides": ("--sides", _parse_int_list, "comma-separated side lengths"),
    "p_max_list": ("--p-max-list", _parse_int_list, "comma-separated tile sizes"),
    "max_offset": ("--max-offset", _parse_int, "largest horizontal element offset"),
    "dq": ("--dq", _parse_int, "receive element offset"),
    "dt": ("--dt", _parse_real, "time lag, s"),
    "points": ("--points", _parse_int, "number of lags or offsets"),
    "dt_max": ("--dt-max", _parse_real, "largest time lag, s"),
    "df_max": ("--df-max", _parse_real, "largest frequency offset, Hz"),
    "snr_db_list": ("--snr-db", _parse_number_list, "comma-separated SNR points, dB"),
    "normalize_each": ("--normalize-each", None, "normalize every matrix exactly instead of in expectation"),
    "phase_draws": ("--phase-draws", _parse_int, "ray-phase redraws averaged per field (variance reduction)"),
}


def _add_flag(sub: argparse.ArgumentParser, key: str, default) -> None:
    flag, parse, text = _FLAGS[key]
    if parse is None:
        sub.add_argument(flag, dest=key, action="store_true", default=default, help=text)
        return
    if callable(default):  # computed from the config when the flag is left out
        shown, default = "set by the config", None
    else:
        shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
    metavar = flag[2:].replace("-", "_").upper()
    sub.add_argument(flag, dest=key, metavar=metavar, type=parse, default=default, help=f"{text} (default {shown})")


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The nfmimo parser with every subcommand; only the subcommand named command gets its flags.

    A call parses one subcommand, so the flags of the other seven are never built.
    """
    parser = argparse.ArgumentParser(
        prog="nfmimo",
        description=(
            "Near-field large-scale MIMO channel experiments: model error, "
            "operation counts, correlation statistics, and capacity sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="|".join(k.replace("_", "-") for k in KINDS))
    for kind, (_, text, keys) in KINDS.items():
        name = kind.replace("_", "-")
        p = sub.add_parser(name, help=text, add_help=name == command)
        if name != command:  # never parses: no flags, not even -h
            continue
        p.add_argument("--config", type=Path, default=None, help="JSON scenario file (default: built-in profile)")
        p.add_argument("--seed", type=_parse_int, default=0, help="master seed (default 0)")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory (default: cwd)")
        if "n_realizations" not in keys:
            p.add_argument(
                "--realizations", dest="n_realizations", metavar="REALIZATIONS", type=_parse_int, default=None,
                help="accepted and unused: this kind draws no Monte Carlo fields",
            )
        for key, (_, default) in keys.items():
            if key in _FLAGS:
                _add_flag(p, key, default)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    kind = args.command.replace("-", "_")
    try:
        if args.n_realizations is not None:  # a kind without the key takes the flag unread, so it is checked here
            _index("--realizations", args.n_realizations)
        cfg = load_config(args.config)
        # Unset flags whose default comes from the config (None) stay out of the sweep and the manifest.
        sweep = {key: value for key in SWEEP_KEYS[kind] if (value := vars(args).get(key)) is not None}
        exp = Experiment(kind=kind, sweep=sweep, seed=args.seed, output=args.out)
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
