"""Command-line front end.

Subcommands: profile (compute a scenario and write CSV, optionally a
plot script), compare (profiles plus solver-difference columns),
validate (self-check suite, JSON report), scenarios (list built-ins).

Every flag and INI value is checked before a solver runs: INI `alpha`
and `gamma` also when `sigma_trap` is zero and switches the waiting-time
law off, the section name, which becomes the scenario label, must not
contain a comma, a quote or a line break, and the times must be long
enough for the contours and RTE's spectra (`harness.check_times`).

Exit codes: 0 success, 1 usage or configuration problem (a bad flag or
INI value, an unknown INI key, a time too short, an unreadable
input or unwritable output), 2 numeric failure inside a solver (a
ValueError raised once the scenario is built counts as one; the message
names the solver and time it happened at), 3 validation failures.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import replace

from .errors import NumericFailureError
from .harness import (Scenario, SpatialGrid, builtin_scenarios,
                      check_times, emit_csv, emit_plot_script,
                      run_scenario, validate)
from .transport import TransportParams
from .waiting import WaitingTimeModel

_USAGE, _NUMERIC, _VALIDATION = 1, 2, 3


class _CliError(Exception):
    """A user-input problem; message goes to stderr, exit code 1."""


# every key _parse_config_scenario reads; any other key, the inversion
# rule's fixed constants among them, is an error
_INI_KEYS = frozenset((
    "sigma_a", "sigma_s", "sigma_trap", "alpha", "gamma", "speed",
    "times", "x_min", "x_max", "x_count", "solvers", "n_ordinates"))


def _parse_times(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _parse_solvers(text: str) -> frozenset[str]:
    return frozenset(v.strip().upper() for v in text.split(","))


def _parse_config_scenario(section: configparser.SectionProxy,
                           label: str) -> Scenario:
    # iterating a section includes the [DEFAULT] keys merged into it
    unknown = sorted(set(section) - _INI_KEYS)
    if unknown:
        raise _CliError(f"unknown key(s) in [{label}]: {', '.join(unknown)}")

    def get_float(key, default):
        return section.getfloat(key, fallback=default)

    # the law is checked even where zero trapping leaves it unused
    waiting = WaitingTimeModel(alpha=get_float("alpha", 0.5),
                               gamma=get_float("gamma", 0.1))
    transport = TransportParams(
        sigma_a=get_float("sigma_a", 1e-9),
        sigma_s=get_float("sigma_s", 1.0),
        sigma_trap=get_float("sigma_trap", 0.0),
        waiting=waiting,
        speed=get_float("speed", TransportParams.speed),
    )
    grid = SpatialGrid(get_float("x_min", 0.0), get_float("x_max", 15.0),
                       section.getint("x_count", fallback=151))
    solvers = section.get("solvers")
    return Scenario(
        label=label, transport=transport,
        times=_parse_times(section.get("times", "10")), grid=grid,
        solvers=(Scenario.solvers if solvers is None
                 else _parse_solvers(solvers)),
        n_ordinates=section.getint("n_ordinates",
                                   fallback=Scenario.n_ordinates))


def _load_scenario(args, needed: frozenset[str] = frozenset()) -> Scenario:
    """The scenario named by --scenario, from --config or the built-ins,
    with the flag overrides applied and the solvers in `needed` added;
    an invalid value, or a time too short to resolve, is a usage error."""
    try:
        sc = _apply_overrides(_base_scenario(args), args, needed)
        check_times(sc)
        return sc
    except (ValueError, configparser.Error) as exc:
        raise _CliError(str(exc)) from exc


def _base_scenario(args) -> Scenario:
    name = args.scenario
    if args.config:
        parser = configparser.ConfigParser()
        if not parser.read(args.config):
            raise _CliError(f"cannot read config file {args.config}")
        if parser.has_section(name):
            return _parse_config_scenario(parser[name], name)
    builtins = builtin_scenarios()
    if name not in builtins:
        known = ", ".join(sorted(builtins))
        raise _CliError(f"unknown scenario '{name}' (built-ins: {known})")
    return builtins[name]


def _apply_overrides(sc: Scenario, args, needed: frozenset[str]) -> Scenario:
    """Command-line flags win over config-file and built-in values; the
    solvers in `needed` are added to whichever solvers result."""
    changes = {}
    if args.times:
        changes["times"] = _parse_times(args.times)
    if args.x_max is not None or args.x_count is not None:
        changes["grid"] = replace(
            sc.grid,
            x_max=sc.grid.x_max if args.x_max is None else args.x_max,
            count=sc.grid.count if args.x_count is None else args.x_count)
    solvers = _parse_solvers(args.solvers) if args.solvers else sc.solvers
    return replace(sc, solvers=solvers | needed, **changes)


def _cmd_profile(args) -> int:
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
        p.add_argument("--x-max", dest="x_max", type=float)
        p.add_argument("--x-count", dest="x_count", type=int)
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
