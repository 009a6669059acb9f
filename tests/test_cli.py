"""End-to-end tests of the command-line interface via main(argv)."""

import argparse
import configparser
import json
import math
import re
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from trapdiff import cli, fde, harness
from trapdiff.errors import NumericFailureError
from trapdiff.ilt import contour, invert_reference
from trapdiff.specfun import gauss_legendre
from trapdiff.waiting import WaitingTimeModel


def test_scenarios_lists_builtins(capsys):
    assert cli.main(["scenarios"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 6
    assert out[0].startswith("fig1a:")
    assert out[-1].startswith("fig2c:")
    assert "sigma_trap=0.01" in out[1]  # fig1b
    assert "gamma=1" in out[2]          # fig1c


def test_profile_builtin_with_overrides(tmp_path, capsys):
    out_csv = tmp_path / "p.csv"
    rc = cli.main(["profile", "--scenario", "fig1a", "--out", str(out_csv),
                   "--solvers", "normal", "--x-max", "6", "--x-count", "4"])
    assert rc == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("x_cm,")
    assert len(lines) == 1 + 4
    assert lines[1].split(",")[5] == "fig1a"
    assert "fig1a" in capsys.readouterr().out  # one-line summary on stdout


def test_profile_writes_plot_script(tmp_path):
    out_csv = tmp_path / "p.csv"
    out_gp = tmp_path / "p.gp"
    rc = cli.main(["profile", "--scenario", "fig1a", "--out", str(out_csv),
                   "--plot", str(out_gp), "--logy",
                   "--solvers", "NORMAL", "--x-count", "3"])
    assert rc == 0
    text = out_gp.read_text()
    assert "set logscale y" in text
    assert str(out_csv) in text


def test_plot_script_selects_each_time_by_its_csv_cell(tmp_path):
    """A time with more than 6 significant digits: the plot script's
    selector compares column 5 against the CSV's own t text, so the
    curve is not empty."""
    out_csv = tmp_path / "p.csv"
    out_gp = tmp_path / "p.gp"
    rc = cli.main(["profile", "--scenario", "fig1a", "--out", str(out_csv),
                   "--plot", str(out_gp), "--times", "12.3456789",
                   "--solvers", "NORMAL", "--x-count", "3"])
    assert rc == 0
    cell = out_csv.read_text().splitlines()[1].split(",")[4]
    (literal,) = re.findall(r"column\(5\) == (\S+) \?", out_gp.read_text())
    assert literal == cell == "12.3456789"


def test_profile_unknown_scenario(tmp_path, capsys):
    rc = cli.main(["profile", "--scenario", "fig9z",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "unknown scenario" in capsys.readouterr().err


def test_profile_missing_out_flag():
    assert cli.main(["profile", "--scenario", "fig1a"]) == 1


def test_help_exits_clean():
    assert cli.main(["--help"]) == 0


def test_unknown_subcommand():
    assert cli.main(["frobnicate"]) == 1


CONFIG = """
[quick]
sigma_trap = 0
times = 7
x_max = 4
x_count = 5
solvers = NORMAL
"""


def test_config_section_with_cli_override(tmp_path):
    ini = tmp_path / "scen.ini"
    ini.write_text(CONFIG)
    out_csv = tmp_path / "q.csv"
    rc = cli.main(["profile", "--scenario", "quick", "--config", str(ini),
                   "--out", str(out_csv), "--times", "9"])
    assert rc == 0
    rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
    assert len(rows) == 5
    assert all(r[4] == "9" for r in rows)    # CLI --times beats config times=7
    assert all(r[1] == "" and r[2] == "" for r in rows)  # NORMAL only
    assert all(r[3] != "" for r in rows)
    assert float(rows[-1][0]) == 4.0


def test_ini_section_and_flags_are_settled_together(tmp_path, capsys):
    """A section that sets only x_min = 20 is checked with the flags
    applied: --x-max 30 makes its grid 20 to 30; without the flag the
    default x_max = 15 is refused as before."""
    ini = tmp_path / "far.ini"
    ini.write_text("[far]\nx_min = 20\n")
    out_csv = tmp_path / "far.csv"
    args = ["profile", "--scenario", "far", "--config", str(ini),
            "--solvers", "NORMAL", "--out", str(out_csv)]
    assert cli.main(args + ["--x-max", "30"]) == 0
    xs = [float(line.split(",")[0])
          for line in out_csv.read_text().splitlines()[1:]]
    assert (xs[0], xs[-1]) == (20.0, 30.0)
    out_csv.unlink()
    capsys.readouterr()
    assert cli.main(args) == 1
    assert ("need x_min < x_max, got [20.0, 15.0]"
            in capsys.readouterr().err)
    assert not out_csv.exists()


def test_config_missing_file(tmp_path, capsys):
    rc = cli.main(["profile", "--scenario", "quick",
                   "--config", str(tmp_path / "absent.ini"),
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "cannot read config" in capsys.readouterr().err


COMPARE_CONFIG = """
[tiny]
sigma_trap = 0.1
times = 10
x_max = 4
x_count = 3
solvers = NORMAL
"""


def test_compare_adds_difference_columns(tmp_path):
    ini = tmp_path / "scen.ini"
    ini.write_text(COMPARE_CONFIG)
    out_csv = tmp_path / "c.csv"
    rc = cli.main(["compare", "--scenario", "tiny", "--config", str(ini),
                   "--out", str(out_csv)])
    assert rc == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == ("x_cm,u_rte,u_de,u_normal,t_min,scenario,"
                        "diff_rte_de,reldiff_rte_de")
    for line in lines[1:]:
        cols = line.split(",")
        # compare forces the transport and fractional solvers on
        u_r, u_d = float(cols[1]), float(cols[2])
        assert cols[3] != ""  # NORMAL kept from the config
        assert float(cols[6]) == pytest.approx(u_r - u_d, rel=1e-6, abs=1e-15)
        assert float(cols[7]) == pytest.approx(abs(u_r - u_d) / abs(u_d),
                                               rel=1e-6, abs=1e-15)


def test_calls_share_one_parser_and_no_state(tmp_path, monkeypatch):
    """After a first call, `main` constructs no parser; a plotted profile,
    a refusal, a usage error and a compare leave nothing behind: the
    plain profile that follows writes no plot script and no difference
    columns."""
    assert cli.main(["scenarios"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    small = ["--scenario", "fig1a", "--times", "10", "--x-count", "3"]
    plot, first, compared, last = (tmp_path / name for name in
                                   ("p.gp", "p.csv", "c.csv", "q.csv"))
    assert cli.main(["profile", *small, "--solvers", "NORMAL",
                     "--out", str(first), "--plot", str(plot), "--logy"]) == 0
    assert "set logscale y" in plot.read_text()
    plot.unlink()
    assert cli.main(["profile", "--scenario", "fig9z",
                     "--out", str(tmp_path / "x.csv")]) == 1
    assert cli.main(["profile", "--scenario", "fig1a"]) == 1
    assert cli.main(["compare", *small, "--out", str(compared)]) == 0
    assert cli.main(["profile", *small, "--solvers", "NORMAL",
                     "--out", str(last)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "c.csv", "p.csv", "q.csv"]
    header = {p.name: p.read_text().splitlines()[0]
              for p in (first, compared, last)}
    assert [name for name, line in header.items()
            if line.endswith(",diff_rte_de,reldiff_rte_de")] == ["c.csv"]
    assert built == []


GENERAL_ALPHA_CONFIG = """
[frac]
sigma_trap = 0.1
alpha = {alpha}
times = 10,100
x_max = 10
x_count = 11
solvers = FDE
"""


@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_profile_fde_general_exponent(tmp_path, alpha):
    """FDE at alpha != 1/2 is computed, and matches the Talbot inversion
    of the numerical Fourier route."""
    ini = tmp_path / "frac.ini"
    ini.write_text(GENERAL_ALPHA_CONFIG.format(alpha=alpha))
    out_csv = tmp_path / "frac.csv"
    rc = cli.main(["profile", "--scenario", "frac", "--config", str(ini),
                   "--out", str(out_csv)])
    assert rc == 0
    p = fde.FdeParams(trap_strength=0.1**alpha * 0.1, diffusivity=1.0 / 3.0,
                      sigma_a=1e-9, alpha=alpha)
    rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
    assert len(rows) == 2 * 11
    for cols in rows:
        x, t, u = float(cols[0]), float(cols[4]), float(cols[2])
        if x not in (0.0, 1.0, 5.0, 10.0):
            continue
        want = invert_reference(lambda s: fde.laplace_density(p, x, s), t)
        assert abs(u - want) <= 1e-10 + 1e-8 * abs(want), (x, t)


MANY_ORDINATES_CONFIG = """
[fine]
n_ordinates = 120
times = 1
x_max = 1
x_count = 5
solvers = RTE
"""


def test_profile_many_ordinates_at_short_time(tmp_path):
    """At N = 120 and t = 1 the smallest eigenvalues lie a relative 1e-6
    from their quadrature rays, |nu| ~ 1e-6: a valid spectrum, computed
    and not reported as a ray collision."""
    ini = tmp_path / "fine.ini"
    ini.write_text(MANY_ORDINATES_CONFIG)
    out_csv = tmp_path / "fine.csv"
    rc = cli.main(["profile", "--scenario", "fine", "--config", str(ini),
                   "--out", str(out_csv)])
    assert rc == 0
    rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
    assert len(rows) == 5
    assert all(math.isfinite(float(cols[1])) for cols in rows)


# smallest certifiable relative gap between a secular root and its pole:
# below it the rounding of the dispersion residual, ~eps / gap, can pass
# the residual tolerance 1e-9
_GAP_BOUND = 4.0 * sys.float_info.epsilon / 1e-9
# (sigma_s, N) and a time near where fig1a's smallest gap meets the
# bound; the grid puts times at 0.5, 0.95, 1.05 and 2 times that
_SHORT_TIME_EDGES = [(0.1, 30, 0.235), (1.0, 30, 0.0235), (10.0, 30, 2.35e-3),
                     (100.0, 30, 2.35e-4), (1.0, 8, 1.85e-3),
                     (1.0, 60, 0.092), (1.0, 120, 0.37)]

SHORT_TIME_CONFIG = """
[short]
sigma_s = {sigma_s}
sigma_trap = 0.1
n_ordinates = {n}
times = {t!r}
x_max = 1
x_count = 3
solvers = RTE
"""


def _smallest_gap(sigma_s, n, t):
    """min over the contour nodes of |sigma_s / sigma_t(s)| times the
    smallest ordinate weight, from the law's transform node by node."""
    waiting = WaitingTimeModel(alpha=0.5, gamma=0.1)
    rho = [abs(sigma_s / (1e-9 + sigma_s
                          + (1.0 + 0.1 * waiting.laplace_survival(s)) * s))
           for s in contour(t)[0].tolist()]
    return min(rho) * min(gauss_legendre(n).weights)


@pytest.mark.parametrize("sigma_s, n, t", [
    (sigma_s, n, float(f"{factor * edge:.3g}"))
    for sigma_s, n, edge in _SHORT_TIME_EDGES
    for factor in (0.5, 0.95, 1.05, 2.0)])
def test_short_rte_times_are_computed_or_refused_up_front(
        tmp_path, capsys, sigma_s, n, t):
    """Where a root lies closer to its pole than the residual check can
    certify, the time is refused with exit 1 and no CSV; everywhere else
    the profile is computed. No point of the grid ends in a numeric
    failure (exit 2)."""
    ini = tmp_path / "short.ini"
    ini.write_text(SHORT_TIME_CONFIG.format(sigma_s=sigma_s, n=n, t=t))
    out_csv = tmp_path / "short.csv"
    rc = cli.main(["profile", "--scenario", "short", "--config", str(ini),
                   "--out", str(out_csv)])
    if _smallest_gap(sigma_s, n, t) < _GAP_BOUND:
        assert rc == 1
        assert "RTE cannot resolve" in capsys.readouterr().err
        assert not out_csv.exists()
    else:
        assert rc == 0
        assert out_csv.exists()


def test_rte_profile_builds_the_ordinate_rule_once(tmp_path, monkeypatch):
    """The up-front refusal and the run of one RTE command share the
    scenario's Gauss-Legendre rule, `Scenario.quadrature`."""
    built = []
    real = harness.gauss_legendre

    def counting(n):
        built.append(n)
        return real(n)

    monkeypatch.setattr(harness, "gauss_legendre", counting)
    rc = cli.main(["profile", "--scenario", "fig1a", "--solvers", "RTE",
                   "--out", str(tmp_path / "p.csv")])
    assert rc == 0
    assert built == [30]


def test_too_many_ordinates_are_refused_before_a_rule_is_built(
        tmp_path, capsys, monkeypatch):
    """RTE's memory grows as N^2 per time (40 MB at N = 240 on fig2a),
    so N = 241 is a usage error before any ordinate rule is built."""
    def no_rule(n):
        raise AssertionError("an ordinate rule was built")

    monkeypatch.setattr(harness, "gauss_legendre", no_rule)
    ini = tmp_path / "many.ini"
    ini.write_text("[many]\nn_ordinates = 241\n")
    out_csv = tmp_path / "m.csv"
    rc = cli.main(["profile", "--scenario", "many", "--config", str(ini),
                   "--out", str(out_csv)])
    assert rc == 1
    assert "240 ordinates, got 241" in capsys.readouterr().err
    assert not out_csv.exists()


_EXTREME_TIMES = [
    ("RTE", "1e-308", 1, "15"), ("RTE", "1e-300", 1, "15"),
    ("RTE", "1e300", 0, "15"), ("FDE", "1e-308", 1, "15"),
    ("FDE", "1e-300", 0, "15"), ("FDE", "1e300", 0, "15"),
    ("NORMAL", "1e-308", 0, "15"), ("NORMAL", "1e-300", 0, "15"),
    ("NORMAL", "1e-300", 0, "1e5"), ("NORMAL", "1e300", 0, "15")]


@pytest.mark.parametrize("solver, t, code, x_max", _EXTREME_TIMES, ids=[
    f"{solver}-{t}-{code}" + ("" if x_max == "15" else f"-x-max-{x_max}")
    for solver, t, code, x_max in _EXTREME_TIMES])
def test_extreme_times_are_computed_or_refused_up_front(tmp_path, solver, t,
                                                        code, x_max):
    """A time whose inversion contour would overflow (t < 5.9e-307 for
    RTE, 1.2e-306 for FDE), or at which RTE's spectra cannot be
    certified, exits 1 with no CSV; every other time writes finite
    values. None ends in a numeric failure (exit 2), and a RuntimeWarning
    on the way fails the test: NORMAL's heat-kernel exponent overflows
    to inf off x = 0 at such times, and exp(-inf) = 0 is its value."""
    out_csv = tmp_path / "x.csv"
    rc = cli.main(["profile", "--scenario", "fig1a", "--solvers", solver,
                   "--times", t, "--x-count", "3", "--x-max", x_max,
                   "--out", str(out_csv)])
    assert rc == code
    if code == 1:
        assert not out_csv.exists()
    else:
        rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
        values = [float(cell) for cols in rows for cell in cols[1:4] if cell]
        assert len(values) == 3 and all(map(math.isfinite, values))


class Refusal(NamedTuple):
    """One input that exits 1 before any solver runs, writing no file:
    its id, the setting it exercises, and the start of its message after
    "error: "; the lines of the INI section `section` and of [DEFAULT]
    (`lines` None: the built-in fig1a, no --config), the flags, and the
    commands that each refuse it."""

    case: str | None
    key: str
    expect: str
    lines: tuple[str, ...] | None = None
    flags: tuple[str, ...] = ()
    commands: tuple[str, ...] = ("profile",)
    section: str = "case"
    default: tuple[str, ...] = ()


_TRAP = ("sigma_trap = 0.1",)
_SMALL = ("times = 10", "x_max = 4", "x_count = 3")
_BOTH = ("profile", "compare")
_UNKNOWN = "unknown key(s) in [case]: "
_D0 = "diffusivity speed^2 / (3 sigma_s) must be finite"
_FINITE_TIMES = "times must be a nonempty list of positive, finite reals"

# every up-front refusal, one row each, grouped under the name of the test
# that reports it (each group keeps the name and ids its rows have always
# had); a new refusal is one more row
REFUSALS = {
    # a text that cannot be read as its key's type names the key; values
    # out of range, and a run too large to hold
    "test_bad_values_are_usage_errors": [
        Refusal("flag-times-abc", "times", "times = 'abc'", _TRAP,
                ("--times", "abc")),
        Refusal("flag-times-trailing-comma", "times", "times = '10,'", _TRAP,
                ("--times", "10,")),
        Refusal("ini-times-abc", "times", "times = 'abc'",
                (*_TRAP, "times = abc")),
        Refusal("ini-x-count", "x_count", "x_count = 'many'",
                (*_TRAP, "x_count = many")),
        Refusal("flag-x-count-abc", "x_count", "x_count = 'abc'", _TRAP,
                ("--x-count", "abc")),
        Refusal("ini-alpha-out-of-range", "alpha", "alpha must lie in (0, 1)",
                (*_TRAP, "alpha = 1.5")),
        Refusal("ini-speed-underflow", "speed", _D0,
                (*_TRAP, "speed = 1e-200")),
        Refusal("ini-sigma-s-underflow", "sigma_s", _D0,
                (*_TRAP, "sigma_s = 1.7e308")),
        Refusal("x-span-overflow", "x_max", "grid span x_max - x_min",
                (*_TRAP, "x_min = -1e308"), ("--x-max", "1e308")),
        Refusal("ini-no-ordinates", "n_ordinates", "need 1 to 240 ordinates",
                (*_TRAP, "n_ordinates = 0")),
        Refusal("ini-negative-trapping", "sigma_trap", "trapping rate must be",
                ("sigma_trap = -0.1",)),
        Refusal("flag-x-count-past-the-bound", "x_count",
                "grid needs 2 to 1000000 points, got 1000001", _TRAP,
                ("--x-count", "1000001")),
        Refusal("rows-past-the-bound", "x_count",
                "need at most 1000000 (x, t) rows", _TRAP,
                ("--x-count", "200001", "--times", "10,20,30,40,50")),
        Refusal("plot-over-out", "plot", "--plot and --out name one file",
                None, ("--solvers", "NORMAL", "--x-count", "3",
                       "--plot", "./x.csv")),
    ],
    # compare adds RTE after the flags are read
    "test_compare_refuses_a_short_rte_time": [
        Refusal(None, "times", "RTE cannot resolve t = 0.001", None,
                ("--times", "10,1e-3", "--solvers", "NORMAL"), ("compare",)),
    ],
    # an empty flag is refused as its empty key is, not left out
    "test_empty_flag_is_refused_like_its_ini_key": [
        Refusal(f"{flag}-{command}", flag[2:], expect, None, (flag, ""),
                (command,))
        for flag, expect in (("--times", "times = ''"),
                             ("--solvers", "solvers must be a nonempty"))
        for command in _BOTH],
    # the waiting-time law is the Pareto type: no non-Pareto law can run
    "test_family_key_is_rejected_up_front": [
        Refusal(family + ("" if solvers == "RTE" else f"-{solvers}"),
                "family", _UNKNOWN + "family",
                (*_TRAP, f"family = {family}", *_SMALL,
                 f"solvers = {solvers}"), commands=_BOTH)
        for family in ("pareto", "log-logistic", "frechet")
        for solvers in ("RTE", "FDE,NORMAL")],
    # steepness below 0.4566 folded the node map (FDE wrote 3.19e149)
    "test_folding_node_map_is_rejected_up_front": [
        Refusal(f"{solvers}-{steepness}", "steepness", _UNKNOWN + "steepness",
                (*_TRAP, f"steepness = {steepness}", *_SMALL,
                 f"solvers = {solvers}"))
        for solvers in ("FDE", "RTE") for steepness in ("1e-300", "0.3")],
    # the label is a CSV cell and a quoted gnuplot string
    "test_label_that_breaks_the_output_is_rejected": [
        Refusal(label, "label", "scenario label",
                (*_TRAP, *_SMALL, "solvers = NORMAL"), commands=_BOTH,
                section=label)
        for label in ("a,b'c", 'a"b')],
    "test_non_finite_config_values_are_rejected_up_front": [
        Refusal(line, line.split()[0], ("grid bounds" if line[0] == "x"
                                        else "rates and speed")
                + " must be finite", (*_TRAP, *_SMALL, line))
        for line in ("speed = inf", "speed = nan", "sigma_s = inf",
                     "sigma_a = nan", "x_min = -inf")],
    "test_non_finite_flags_are_rejected_up_front": [
        Refusal(case, flag[2:].replace("-", "_"), expect, None, (flag, text))
        for case, flag, text, expect in (
            ("times-nan", "--times", "nan", _FINITE_TIMES),
            ("times-inf", "--times", "inf", _FINITE_TIMES),
            ("times-list-nan", "--times", "10,nan", _FINITE_TIMES),
            ("x-max-inf", "--x-max", "inf", "grid bounds must be finite"),
            ("x-max-nan", "--x-max", "nan", "grid bounds must be finite"))],
    # gamma = inf once reached the solvers and exited 2
    "test_non_finite_waiting_scale_is_rejected_up_front": [
        Refusal(f"{solvers}-{gamma}", "gamma", "gamma must be positive",
                (*_TRAP, f"gamma = {gamma}", *_SMALL, f"solvers = {solvers}"),
                commands=_BOTH)
        for solvers in ("FDE", "RTE") for gamma in ("inf", "nan")],
    # the inversion rule is fixed: its former knobs are unknown keys, even
    # at the values the rule uses
    "test_overflowing_contour_reach_is_rejected_up_front": [
        Refusal(f"{solvers}-{line}", line.split()[0],
                _UNKNOWN + line.split()[0],
                (*_TRAP, line, *_SMALL, f"solvers = {solvers}"),
                commands=_BOTH)
        for solvers in ("NORMAL", "RTE")
        for line in ("truncation = 10000", "freq_scale = 0.001",
                     "contour_shift = 0.04", "freq_scale = 40",
                     "steepness = 6")],
    # finite settings whose FDE constant overflows
    "test_overflowing_fde_constants_are_refused_up_front": [
        Refusal("trap-strength", "gamma",
                "trap_strength gamma^alpha * sigma_trap must be finite",
                ("gamma = 1e300", "alpha = 0.99", "sigma_trap = 1e100",
                 *_SMALL)),
        Refusal("diffusivity", "sigma_s", _D0,
                ("sigma_s = 1e-300", "speed = 1e10", *_SMALL)),
    ],
    # D0 = speed^2 / (3 sigma_s) overflows to inf
    "test_overflowing_squares_are_refused_up_front": [
        Refusal("speed = 1e200", "speed", _D0,
                (*_TRAP, *_SMALL, "speed = 1e200")),
    ],
    # two times whose 9-digit CSV cells read the same would merge
    "test_repeated_times_are_rejected_up_front": [
        Refusal(f"{case}-{command}", "times", "times must not repeat", None,
                ("--times", times, "--x-count", "3"), (command,))
        for case, times in (("adjacent", "10,10"),
                            ("spelled-apart", "10,20,1e1"),
                            ("same-csv-cell", "10,10.0000000001"))
        for command in _BOTH],
    # more than 20,000 contour nodes per time cannot be asked for
    "test_too_fine_contour_step_is_rejected_up_front": [
        Refusal(f"{solvers}-{scale}", "freq_scale",
                "unknown key(s) in [far]: freq_scale",
                (*_TRAP, f"freq_scale = {scale}", *_SMALL,
                 f"solvers = {solvers}"), section="far")
        for solvers, scale in (("RTE", "1e5"), ("FDE", "5000"))],
    # a misspelt key does not fall back to the default of the one meant
    "test_unknown_config_key_is_rejected_up_front": [
        Refusal(case, "sigma_trp", _UNKNOWN + "sigma_trp",
                (*_TRAP, *line, *_SMALL, "solvers = FDE,NORMAL"),
                default=default)
        for case, default, line in (("in-section", (), ("sigma_trp = 0.5",)),
                                    ("in-default", ("sigma_trp = 0.5",), ()))],
    # alpha and gamma are checked where sigma_trap = 0 leaves them unused
    "test_waiting_law_is_checked_without_trapping": [
        Refusal(line, line.split()[0], expect,
                ("sigma_trap = 0", line, *_SMALL, "solvers = FDE"))
        for line, expect in (("alpha = 1.5", "alpha must lie in (0, 1)"),
                             ("gamma = -3", "gamma must be positive"),
                             ("alpha = 0", "alpha must lie in (0, 1)"),
                             ("gamma = nan", "gamma must be positive"))],
}


def _no_solver_may_run(sc):
    raise AssertionError("a solver ran")


def _table_test(rows):
    """One list of REFUSALS as a test, parametrized over its rows' ids
    (one row without an id: unparametrized). Each command of a row exits
    1 with its message, no solver runs and no file is written."""
    def test(tmp_path, capsys, monkeypatch, row):
        monkeypatch.setattr(cli, "run_scenario", _no_solver_may_run)
        monkeypatch.chdir(tmp_path)
        scenario = ["--scenario", "fig1a"]
        if row.lines is not None:
            Path("case.ini").write_text("\n".join(
                ["[DEFAULT]", *row.default, f"[{row.section}]", *row.lines]))
            scenario = ["--scenario", row.section, "--config", "case.ini"]
        for command in row.commands:
            assert cli.main([command, *scenario, "--out", "x.csv",
                             *row.flags]) == 1
            assert capsys.readouterr().err.startswith(f"error: {row.expect}")
        assert not Path("x.csv").exists()

    if rows[0].case is None:
        return lambda tmp_path, capsys, monkeypatch: test(
            tmp_path, capsys, monkeypatch, rows[0])
    return pytest.mark.parametrize("row", rows,
                                   ids=[row.case for row in rows])(test)


for _name, _rows in REFUSALS.items():
    globals()[_name] = _table_test(_rows)


def test_every_setting_has_a_refused_row():
    """Each key of the settings table is refused by at least one row."""
    keys = {row.key for rows in REFUSALS.values() for row in rows}
    assert set(cli._SETTINGS) <= keys


def test_readme_lists_the_ini_keys():
    """The README's list of INI keys is the set the parser accepts."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (listing,) = re.findall(r"The keys are (.*?);", readme, flags=re.S)
    assert set(re.findall(r"`(\w+)`", listing)) == set(cli._SETTINGS)


@pytest.mark.parametrize("flag, key, text", [
    ("--times", "times", "7,20"), ("--x-max", "x_max", "6"),
    ("--x-count", "x_count", "5"), ("--solvers", "solvers", "fde,normal")])
def test_each_flag_is_its_ini_key(tmp_path, flag, key, text):
    """A scenario flag over an INI section writes the same bytes as the
    key of the same name in that section."""
    csvs = []
    for lines, flags in ((f"{key} = {text}\n", []), ("", [flag, text])):
        ini = tmp_path / "one.ini"
        ini.write_text(f"[one]\nsigma_trap = 0.1\n{lines}")
        csvs.append(tmp_path / f"{len(csvs)}.csv")
        assert cli.main(["profile", "--scenario", "one", "--config", str(ini),
                         "--out", str(csvs[-1])] + flags) == 0
    assert csvs[0].read_bytes() == csvs[1].read_bytes()


def test_empty_ini_section_is_the_default_scenario(tmp_path, monkeypatch):
    """Every key left out of a section takes `Scenario`'s default."""
    seen = []

    def capture(sc):
        seen.append(sc)
        return []

    monkeypatch.setattr(cli, "run_scenario", capture)
    monkeypatch.setattr(cli, "emit_csv", lambda *args: None)
    ini = tmp_path / "empty.ini"
    ini.write_text("[empty]\n")
    assert cli.main(["profile", "--scenario", "empty", "--config", str(ini),
                     "--out", str(tmp_path / "x.csv")]) == 0
    assert seen == [harness.Scenario(label="empty")]


def test_value_error_inside_a_solver_is_not_a_usage_error(tmp_path, capsys,
                                                          monkeypatch):
    """Only building the scenario from flags and INI turns a ValueError
    into exit 1; one raised while a solver runs is a solver failure."""
    def broken(*args):
        raise ValueError("synthetic solver failure")

    monkeypatch.setattr(harness.transport, "spectra", broken)
    rc = cli.main(["profile", "--scenario", "fig1a", "--solvers", "RTE",
                   "--x-count", "3", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "numeric failure" in err and "synthetic solver failure" in err


def test_readme_ini_example_runs(tmp_path, capsys):
    """The INI example of the README runs as documented."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    ini = tmp_path / "cases.ini"
    ini.write_text(example)
    parser = configparser.ConfigParser()
    parser.read_string(example)
    (section,) = parser.sections()
    out_csv = tmp_path / "case.csv"
    rc = cli.main(["profile", "--scenario", section, "--config", str(ini),
                   "--out", str(out_csv)])
    assert rc == 0, capsys.readouterr().err
    rows = out_csv.read_text().splitlines()[1:]
    assert len(rows) == (len(parser[section]["times"].split(","))
                         * int(parser[section]["x_count"]))


def test_profile_at_a_million_minutes(tmp_path):
    """At t = 1e6 the contour nodes sit where sigma_s / sigma_t is within
    2e-4 of 1; the RTE profile is computed (it exited 2 when the secular
    iteration could not freeze the smallest root) and matches the
    Talbot inversion of the same transform to 1e-8."""
    out_csv = tmp_path / "late.csv"
    rc = cli.main(["profile", "--scenario", "fig1a", "--times", "1e6",
                   "--solvers", "RTE", "--x-count", "3", "--out",
                   str(out_csv)])
    assert rc == 0
    rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
    sc = harness.builtin_scenarios()["fig1a"]
    q = harness.gauss_legendre(sc.n_ordinates)
    for cols in rows:
        x = float(cols[0])
        want = invert_reference(lambda s: harness.transport.laplace_density(
            sc.transport, q, s, x), 1e6)
        assert abs(float(cols[1]) - want) <= 1e-8 * abs(want), x


def test_every_settings_draw_is_refused_or_finite():
    """Whole scenarios drawn over the INI keys, log-uniform where a key
    spans decades, each key's text read through `cli._settle`: every draw
    is refused with ValueError by the settings or `check_times`, before
    a solver runs, or all three solvers compute finite values."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def log_uniform(lo, hi):
        return st.floats(math.log10(lo), math.log10(hi)).map(
            lambda e: 10.0**e)

    def zero_or(lo, hi):
        return st.one_of(st.just(0.0), log_uniform(lo, hi))

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True,
                         database=None)
    # a step that underflows to 0 stacked every point on x = 0, and the
    # contour sum refused that grid mid-run
    @hypothesis.example(sigma_s=1.0, sigma_a=0.0, sigma_trap=0.0, gamma=1.0,
                        alpha=0.5, t=1.0, n=1, reach=5e-324)
    # fig1a's medium with sigma_s = 1e300: its square overflowed in the
    # dispersion check, an OverflowError rather than a ValueError; it
    # computes now
    @hypothesis.example(sigma_s=1e300, sigma_a=1e-9, sigma_trap=0.1,
                        gamma=0.1, alpha=0.5, t=10.0, n=30, reach=1.0)
    # fig1a's medium with sigma_s = 1e154: formed as 1 / sqrt(sigma_t^2 z),
    # the eigenvalues overflowed, and the run ended in exit 2
    @hypothesis.example(sigma_s=1e154, sigma_a=1e-9, sigma_trap=0.1,
                        gamma=0.1, alpha=0.5, t=10.0, n=30, reach=1.0)
    @hypothesis.given(sigma_s=log_uniform(1e-3, 1e20),
                      sigma_a=zero_or(1e-12, 10.0),
                      sigma_trap=zero_or(1e-4, 1e2),
                      gamma=log_uniform(1e-4, 1e4),
                      alpha=st.floats(0.01, 0.99),
                      t=log_uniform(1e-2, 1e4),
                      n=st.integers(1, 120),
                      reach=st.floats(0.0, 1.2, exclude_min=True))
    def check(sigma_s, sigma_a, sigma_trap, gamma, alpha, t, n, reach):
        values = {"sigma_s": sigma_s, "sigma_a": sigma_a,
                  "sigma_trap": sigma_trap, "gamma": gamma, "alpha": alpha,
                  "times": t, "n_ordinates": n, "x_max": reach * t,
                  "x_count": 61}
        try:
            sc = cli._settle(harness.Scenario(label="draw"),
                             {key: repr(v) for key, v in values.items()})
            harness.check_times(sc)
        except ValueError:
            return
        for profile in harness.run_scenario(sc):
            assert all(math.isfinite(u) for _, u in profile.points), (
                profile.solver, values)

    check()


def test_validate_fast_json_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = cli.main(["validate", "--level", "fast", "--out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert isinstance(report, list) and len(report) == 3
    assert all(e["status"] == "pass" for e in report)
    printed = capsys.readouterr().out
    assert "transport.eigenvalue_n1" in printed


def test_validate_rejects_bad_level():
    assert cli.main(["validate", "--level", "exhaustive"]) == 1


def test_numeric_failure_exit_code(tmp_path, monkeypatch, capsys):
    def boom(sc):
        raise NumericFailureError("synthetic blow-up", solver="RTE", x=1.0,
                                  t=10.0)

    monkeypatch.setattr(cli, "run_scenario", boom)
    rc = cli.main(["profile", "--scenario", "fig1a",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "numeric failure" in capsys.readouterr().err


def test_numeric_failure_message_says_where(tmp_path, capsys, monkeypatch):
    """A spectrum failure at a node of the t = 20 contour exits 2 with a
    line that names the solver and that time."""
    bad = len(contour(10.0)[0]) + 5

    def failing(*args):
        raise NumericFailureError("synthetic spectrum failure", node=bad)

    monkeypatch.setattr(harness.transport, "spectra", failing)
    rc = cli.main(["profile", "--scenario", "fig1a", "--times", "10,20,30",
                   "--x-count", "3", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: synthetic spectrum failure (")
    assert "solver=RTE" in err and "t=20.0" in err


def test_numeric_failure_without_context_prints_its_message(tmp_path, capsys,
                                                            monkeypatch):
    def boom(sc):
        raise NumericFailureError("synthetic blow-up")

    monkeypatch.setattr(cli, "run_scenario", boom)
    rc = cli.main(["profile", "--scenario", "fig1a",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err == "numeric failure: synthetic blow-up\n"


def test_validation_failure_exit_code(monkeypatch, capsys):
    def fake_validate(level):
        return [{"check": "synthetic.check", "status": "fail",
                 "measured": 1.0, "tolerance": 0.5}]

    monkeypatch.setattr(cli, "validate", fake_validate)
    rc = cli.main(["validate", "--level", "fast"])
    assert rc == 3
    assert "synthetic.check" in capsys.readouterr().out
