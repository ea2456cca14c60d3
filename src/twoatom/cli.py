"""Command-line front end.

Subcommands:
  run CONFIG [--out PATH]     execute a scenario configuration
  figure ID [--out PATH]      regenerate a preset's curve data
  validate CONFIG             parse and check a configuration

Exit codes: 0 success, 1 configuration error, 2 numerical error.  CSV
output is locale independent; trajectory records are written next to the
table as .records.jsonl and .records.txt companions.
"""
import argparse
import sys
from pathlib import Path

from .config import parse_config
from .errors import ConfigError, DomainError, TwoAtomError, ValidationError
from .figures import figure_preset
from .runner import run_scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoatom",
        description="Simulate the collective dynamics of two two-level "
                    "atoms in vacuum, squeezed-vacuum and bad-cavity "
                    "reservoirs.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario configuration")
    run_p.add_argument("config", type=Path)
    run_p.add_argument("--out", type=Path, default=None,
                       help="write CSV here instead of stdout")

    fig_p = sub.add_parser("figure", help="regenerate a preset's curve data")
    fig_p.add_argument("id", help="preset id, e.g. fig4")
    fig_p.add_argument("--out", type=Path, default=None)

    val_p = sub.add_parser("validate", help="check a configuration")
    val_p.add_argument("config", type=Path)
    return parser


def _emit(table, out: Path | None) -> None:
    csv_text = table.to_csv()
    if out is None:
        sys.stdout.write(csv_text)
    else:
        out.write_text(csv_text)
        for name, payload in table.sidecars.items():
            Path(f"{out}.{name}").write_text(payload)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            parse_config(args.config.read_text())
            print("configuration ok")
            return EXIT_OK
        if args.command == "run":
            cfg = parse_config(args.config.read_text())
        else:  # figure
            cfg = figure_preset(args.id)
    except (FileNotFoundError, ConfigError, ValidationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        table = run_scenario(cfg)
    except (ConfigError, ValidationError, DomainError) as exc:
        # bad parameters surfacing from inside the engine are still
        # configuration problems
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TwoAtomError, FloatingPointError) as exc:
        print(f"numerical error in scenario "
              f"'{cfg['scenario']}': {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    out = args.out
    if out is None and cfg.get("out"):
        out = Path(cfg["out"])
    _emit(table, out)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
