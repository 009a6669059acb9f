"""Command-line front end.

Subcommands: profile (compute a scenario and write CSV, optionally a
plot script), compare (profiles plus solver-difference columns),
validate (self-check suite, JSON report), scenarios (list built-ins).

A scenario is a built-in or `Scenario(label=section)` with the INI
section's keys and the flags --times, --x-max, --x-count and --solvers,
which are those keys, applied in one step, a flag over its key: one
table reads both, so an empty flag is refused as the empty key is.
Every input is computed or refused before a solver runs, one row per
refusal in `REFUSALS` of tests/test_cli.py: a key outside the table, a
value that cannot be read or that the scenario's parts refuse (the law
also where `sigma_trap` = 0 leaves it unused, the grid and the run past
`harness.MAX_ROWS` rows), a time too short for the contours or RTE's
spectra (`harness.check_times`), and `--plot` naming the `--out` file.

Exit codes: 0 success, 1 usage or configuration problem (a refusal
above, an unreadable input or unwritable output), 2 numeric failure
inside a solver (a ValueError raised once the scenario is built counts
as one; the message names the solver and time it happened at), 3
validation failures.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import replace
from pathlib import Path

from .errors import NumericFailureError
from .harness import (Scenario, builtin_scenarios, check_times, emit_csv,
                      emit_plot_script, run_scenario, validate)

_USAGE, _NUMERIC, _VALIDATION = 1, 2, 3


class _CliError(Exception):
    """A user-input problem; message goes to stderr, exit code 1."""


def _parse_times(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _parse_solvers(text: str) -> frozenset[str]:
    return frozenset(v.strip().upper() for v in text.split(","))


# every INI key, the flags --times, --x-max, --x-count and --solvers
# among them: the part of the scenario it sets, that part's field, and
# the reader of its text; any other key is an error
_SETTINGS = {
    "sigma_a": ("transport", "sigma_a", float),
    "sigma_s": ("transport", "sigma_s", float),
    "sigma_trap": ("transport", "sigma_trap", float),
    "speed": ("transport", "speed", float),
    "alpha": ("law", "alpha", float),
    "gamma": ("law", "gamma", float),
    "x_min": ("grid", "x_min", float),
    "x_max": ("grid", "x_max", float),
    "x_count": ("grid", "count", int),
    "times": ("scenario", "times", _parse_times),
    "solvers": ("scenario", "solvers", _parse_solvers),
    "n_ordinates": ("scenario", "n_ordinates", int),
}


def _settle(sc: Scenario, values) -> Scenario:
    """sc with each setting of `values` (key -> text) read and applied;
    each part is rebuilt once, so its checks see it whole. The law is
    checked even where zero trapping leaves it unused."""
    parts = {"law": {}, "transport": {}, "grid": {}, "scenario": {}}
    for key, text in values.items():
        part, field, read = _SETTINGS[key]
        try:
            parts[part][field] = read(text)
        except ValueError as exc:
            raise ValueError(f"{key} = {text!r}: {exc}") from exc
    law = replace(sc.transport.waiting, **parts["law"])
    transport = replace(sc.transport, waiting=law, **parts["transport"])
    grid = replace(sc.grid, **parts["grid"])
    return replace(sc, transport=transport, grid=grid, **parts["scenario"])


def _load_scenario(args, needed: frozenset[str] = frozenset()) -> Scenario:
    """The scenario named by --scenario with its INI section and then the
    flags given settled over it in one step, and the solvers in `needed`
    added; an invalid value, or a time too short, is a usage error."""
    flags = {key: text for key, text in vars(args).items()
             if key in _SETTINGS and text is not None}
    try:
        base, section = _base_scenario(args)
        sc = _settle(base, {**section, **flags})
        sc = replace(sc, solvers=sc.solvers | needed)
        check_times(sc)
        return sc
    except (ValueError, configparser.Error) as exc:
        raise _CliError(str(exc)) from exc


def _base_scenario(args) -> tuple[Scenario, dict[str, str]]:
    """The scenario to settle over, and its INI section (key -> text)."""
    name = args.scenario
    if args.config:
        parser = configparser.ConfigParser()
        if not parser.read(args.config):
            raise _CliError(f"cannot read config file {args.config}")
        if parser.has_section(name):
            # iterating a section includes the [DEFAULT] keys merged into it
            unknown = sorted(set(parser[name]) - set(_SETTINGS))
            if unknown:
                raise _CliError(f"unknown key(s) in [{name}]: "
                                f"{', '.join(unknown)}")
            return Scenario(label=name), dict(parser[name])
    builtins = builtin_scenarios()
    if name not in builtins:
        known = ", ".join(sorted(builtins))
        raise _CliError(f"unknown scenario '{name}' (built-ins: {known})")
    return builtins[name], {}


def _cmd_profile(args) -> int:
    if args.plot and Path(args.plot).resolve() == Path(args.out).resolve():
        raise _CliError(f"--plot and --out name one file, {args.out}")
    sc = _load_scenario(args)
    profiles = run_scenario(sc)
    emit_csv(profiles, args.out)
    print(f"{sc.label}: {len(profiles)} profiles -> {args.out}")
    if args.plot:
        emit_plot_script(profiles, args.plot, args.out, logy=args.logy)
        print(f"plot script -> {args.plot}")
    return 0


def _cmd_compare(args) -> int:
    sc = _load_scenario(args, needed=frozenset(("RTE", "FDE")))
    emit_csv(run_scenario(sc), args.out, differences=True)
    print(f"{sc.label}: comparison -> {args.out}")
    return 0


def _cmd_validate(args) -> int:
    report = validate(level=args.level)
    for entry in report:
        print(f"[{entry['status']:4s}] {entry['check']}: "
              f"measured {entry['measured']:.3e} vs {entry['tolerance']:.3e}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"report -> {args.out}")
    return 0 if all(e["status"] == "pass" for e in report) else _VALIDATION


def _cmd_scenarios(args) -> int:
    for name, sc in sorted(builtin_scenarios().items()):
        tp = sc.transport
        print(f"{name}: sigma_trap={tp.sigma_trap:g} gamma={tp.waiting.gamma:g} "
              f"t={','.join(f'{t:g}' for t in sc.times)} "
              f"x=[{sc.grid.x_min:g},{sc.grid.x_max:g}]x{sc.grid.count}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trapdiff",
        description="Trapped-transport and fractional-diffusion profiles.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p):
        p.add_argument("--scenario", required=True,
                       help="built-in name or section in --config")
        p.add_argument("--config", help="INI file with scenario sections")
        p.add_argument("--times", help="comma list overriding output times")
        p.add_argument("--x-max")
        p.add_argument("--x-count")
        p.add_argument("--solvers", help="comma list from RTE,FDE,NORMAL")

    p_profile = sub.add_parser("profile", help="compute profiles, write CSV")
    add_scenario_args(p_profile)
    p_profile.add_argument("--out", required=True, help="output CSV path")
    p_profile.add_argument("--plot", help="also write a gnuplot script here")
    p_profile.add_argument("--logy", action="store_true",
                           help="log-scale y axis in the plot script")
    p_profile.set_defaults(func=_cmd_profile)

    p_compare = sub.add_parser("compare",
                               help="profiles plus difference columns")
    add_scenario_args(p_compare)
    p_compare.add_argument("--out", required=True)
    p_compare.set_defaults(func=_cmd_compare)

    p_validate = sub.add_parser("validate", help="run the self-check suite")
    p_validate.add_argument("--level", choices=("fast", "full"),
                            default="fast")
    p_validate.add_argument("--out", help="write the JSON report here")
    p_validate.set_defaults(func=_cmd_validate)

    p_scen = sub.add_parser("scenarios", help="list built-in scenarios")
    p_scen.set_defaults(func=_cmd_scenarios)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return 0 if exc.code == 0 else _USAGE
    try:
        return args.func(args)
    except (_CliError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE
    except (NumericFailureError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return _NUMERIC


if __name__ == "__main__":
    sys.exit(main())
