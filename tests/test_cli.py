"""End-to-end tests of the command-line interface via main(argv)."""

import configparser
import json
import math
import re
import sys
from pathlib import Path

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


def _no_solver_may_run(sc):
    raise AssertionError("a solver ran")


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


def test_compare_refuses_a_short_rte_time(tmp_path, capsys, monkeypatch):
    """compare adds RTE to the solvers after the flags are read; a time
    RTE cannot resolve is still a usage error before any solver runs."""
    monkeypatch.setattr(cli, "run_scenario", _no_solver_may_run)
    out_csv = tmp_path / "c.csv"
    rc = cli.main(["compare", "--scenario", "fig1a", "--times", "10,1e-3",
                   "--solvers", "NORMAL", "--out", str(out_csv)])
    assert rc == 1
    assert "RTE cannot resolve t = 0.001" in capsys.readouterr().err
    assert not out_csv.exists()


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


FAMILY_CONFIG = """
[llog]
sigma_trap = 0.1
family = {family}
times = 10
x_max = 4
x_count = 3
solvers = {solvers}
"""


@pytest.mark.parametrize("family", ["pareto", "log-logistic", "frechet"])
def test_family_key_is_rejected_up_front(tmp_path, capsys, monkeypatch,
                                         family):
    """The waiting-time law is the Pareto type, fixed by alpha and gamma
    alone, so a `family` line is an unknown key: a configuration error
    (exit 1) before any solver runs, for every solver set and with
    profile as with compare; a non-Pareto law can never run silently."""
    ini = tmp_path / "llog.ini"
    out_csv = tmp_path / "l.csv"
    monkeypatch.setattr(cli, "run_scenario", _no_solver_may_run)
    base = ["--scenario", "llog", "--config", str(ini), "--out", str(out_csv)]
    for solvers in ("RTE", "FDE,NORMAL"):
        ini.write_text(FAMILY_CONFIG.format(family=family, solvers=solvers))
        for command in ("profile", "compare"):
            assert cli.main([command] + base) == 1
            assert "family" in capsys.readouterr().err
    assert not out_csv.exists()


TRAP_FREE_CONFIG = """
[free]
sigma_trap = 0
{line}
times = 10
x_max = 4
x_count = 3
solvers = FDE
"""


@pytest.mark.parametrize("line", [
    "alpha = 1.5",
    "gamma = -3",
    "alpha = 0",
    "gamma = nan",
])
def test_waiting_law_is_checked_without_trapping(tmp_path, capsys,
                                                 monkeypatch, line):
    """alpha and gamma are checked even where sigma_trap = 0 leaves the
    waiting-time law unused: exit 1 before any solver runs, no CSV."""
    ini = tmp_path / "free.ini"
    ini.write_text(TRAP_FREE_CONFIG.format(line=line))
    out_csv = tmp_path / "free.csv"
    monkeypatch.setattr(cli, "run_scenario", _no_solver_may_run)
    rc = cli.main(["profile", "--scenario", "free", "--config", str(ini),
                   "--out", str(out_csv)])
    assert rc == 1
    assert line.split()[0] in capsys.readouterr().err
    assert not out_csv.exists()


INFINITE_SCALE_CONFIG = """
[slow]
sigma_trap = 0.1
gamma = {gamma}
times = 10
x_max = 4
x_count = 3
solvers = {solvers}
"""


@pytest.mark.parametrize("gamma", ["inf", "nan"])
@pytest.mark.parametrize("solvers", ["FDE", "RTE"])
def test_non_finite_waiting_scale_is_rejected_up_front(tmp_path, capsys,
                                                       monkeypatch, gamma,
                                                       solvers):
    """A non-finite gamma with trapping on is a configuration error: exit
    1 before any solver runs, through profile and compare, no CSV (gamma
    = inf used to reach the solvers and exit 2 with numpy warnings)."""
    ini = tmp_path / "slow.ini"
    ini.write_text(INFINITE_SCALE_CONFIG.format(gamma=gamma, solvers=solvers))
    out_csv = tmp_path / "slow.csv"
    monkeypatch.setattr(cli, "run_scenario", _no_solver_may_run)
    for command in ("profile", "compare"):
        rc = cli.main([command, "--scenario", "slow", "--config", str(ini),
                       "--out", str(out_csv)])
        assert rc == 1
        assert "gamma" in capsys.readouterr().err
    assert not out_csv.exists()


REACH_CONFIG = """
[far]
sigma_trap = 0.1
{line}
times = 10
x_max = 4
x_count = 3
solvers = {solvers}
"""


@pytest.mark.parametrize("line", ["truncation = 10000", "freq_scale = 0.001",
                                  "contour_shift = 0.04", "freq_scale = 40",
                                  "steepness = 6"])
@pytest.mark.parametrize("solvers", ["NORMAL", "RTE"])
def test_overflowing_contour_reach_is_rejected_up_front(tmp_path, capsys,
                                                        monkeypatch, line,
                                                        solvers):
    """The two inputs whose contour reach used to overflow the node map
    (a raw FloatingPointError traceback from the RTE or FDE stage, or a
    run with NORMAL alone) are still errors naming their key: exit 1
    before any solver runs, through profile and compare, no CSV. The
    inversion rule is fixed, so `truncation` and the former knobs
    `contour_shift`, `freq_scale` and `steepness` are unknown keys, even
    at the values the rule uses."""
    ini = tmp_path / "far.ini"
    ini.write_text(REACH_CONFIG.format(line=line, solvers=solvers))
    out_csv = tmp_path / "far.csv"
    monkeypatch.setattr(cli, "run_scenario", _no_solver_may_run)
    for command in ("profile", "compare"):
        rc = cli.main([command, "--scenario", "far", "--config", str(ini),
                       "--out", str(out_csv)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert line.split()[0] in err
    assert not out_csv.exists()


@pytest.mark.parametrize("solvers, freq_scale", [("RTE", "1e5"),
                                                 ("FDE", "5000")])
def test_too_fine_contour_step_is_rejected_up_front(tmp_path, capsys,
                                                    monkeypatch, solvers,
                                                    freq_scale):
    """A step so fine that a rule would place more than 20,000 nodes per
    time, which would exhaust memory, cannot be asked for: `freq_scale`
    is an unknown key, refused before any solver runs."""
    ini = tmp_path / "fine.ini"
    ini.write_text(REACH_CONFIG.format(line=f"freq_scale = {freq_scale}",
                                       solvers=solvers))
    monkeypatch.setattr(cli, "run_scenario", _no_solver_may_run)
    rc = cli.main(["profile", "--scenario", "far", "--config", str(ini),
                   "--out", str(tmp_path / "fine.csv")])
    assert rc == 1
    assert "unknown key(s) in [far]: freq_scale" in capsys.readouterr().err


def test_readme_lists_the_ini_keys():
    """The README's list of INI keys is the set the parser accepts."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (listing,) = re.findall(r"The keys are (.*?);", readme, flags=re.S)
    assert set(re.findall(r"`(\w+)`", listing)) == set(cli._SETTINGS)


@pytest.mark.parametrize("steepness", ["1e-300", "0.3"])
@pytest.mark.parametrize("solvers", ["FDE", "RTE"])
def test_folding_node_map_is_rejected_up_front(tmp_path, capsys, monkeypatch,
                                               steepness, solvers):
    """Below steepness 0.4566 the node map is not increasing, so nodes
    would fold back (FDE once wrote u_de = 3.19e149 at x = 0 for 1e-300
    and -0.155 for 0.3, with exit 0). The steepness is fixed at 6, so
    the key is unknown: exit 1 naming it before any solver runs, no
    CSV."""
    ini = tmp_path / "fold.ini"
    ini.write_text(REACH_CONFIG.format(line=f"steepness = {steepness}",
                                       solvers=solvers))
    out_csv = tmp_path / "fold.csv"
    monkeypatch.setattr(cli, "run_scenario", _no_solver_may_run)
    rc = cli.main(["profile", "--scenario", "far", "--config", str(ini),
                   "--out", str(out_csv)])
    assert rc == 1
    assert "steepness" in capsys.readouterr().err
    assert not out_csv.exists()


LABEL_CONFIG = """
[{label}]
sigma_trap = 0.1
times = 10
x_max = 4
x_count = 3
solvers = NORMAL
"""


@pytest.mark.parametrize("label", ["a,b'c", 'a"b'])
def test_label_that_breaks_the_output_is_rejected(tmp_path, capsys,
                                                  monkeypatch, label):
    """A section name becomes the scenario label, a CSV cell and a quoted
    gnuplot string; one with a comma or a quote exits 1, no CSV."""
    ini = tmp_path / "label.ini"
    ini.write_text(LABEL_CONFIG.format(label=label))
    out_csv = tmp_path / "label.csv"
    monkeypatch.setattr(cli, "run_scenario", _no_solver_may_run)
    for command in ("profile", "compare"):
        rc = cli.main([command, "--scenario", label, "--config", str(ini),
                       "--out", str(out_csv)])
        assert rc == 1
        assert "label" in capsys.readouterr().err
    assert not out_csv.exists()


TYPO_CONFIG = """
[DEFAULT]
{default}

[typo]
sigma_trap = 0.1
{line}
times = 10
x_max = 4
x_count = 3
solvers = FDE,NORMAL
"""


@pytest.mark.parametrize("default, line", [
    ("", "sigma_trp = 0.5"),
    ("sigma_trp = 0.5", ""),
], ids=["in-section", "in-default"])
def test_unknown_config_key_is_rejected_up_front(tmp_path, capsys,
                                                 monkeypatch, default, line):
    """A misspelt key is an error naming the key (exit 1), not a silent
    fall-back to the default of the key that was meant; keys that
    configparser merges in from [DEFAULT] are checked too."""
    ini = tmp_path / "typo.ini"
    ini.write_text(TYPO_CONFIG.format(default=default, line=line))
    monkeypatch.setattr(cli, "run_scenario", _no_solver_may_run)
    rc = cli.main(["profile", "--scenario", "typo", "--config", str(ini),
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "sigma_trp" in capsys.readouterr().err


@pytest.mark.parametrize("flags, line, key", [
    (["--times", "abc"], "", "times"),
    (["--times", "10,"], "", "times"),
    ([], "times = abc", "times"),
    ([], "x_count = many", "x_count"),
    (["--x-count", "abc"], "", "x_count"),
    ([], "alpha = 1.5", None),
    ([], "speed = 1e-200", None),
    ([], "sigma_s = 1.7e308", None),
    (["--x-max", "1e308"], "x_min = -1e308", None),
], ids=["flag-times-abc", "flag-times-trailing-comma", "ini-times-abc",
        "ini-x-count", "flag-x-count-abc", "ini-alpha-out-of-range",
        "ini-speed-underflow", "ini-sigma-s-underflow", "x-span-overflow"])
def test_bad_values_are_usage_errors(tmp_path, capsys, monkeypatch,
                                     flags, line, key):
    """A value that is refused is a usage error before any solver runs; a
    text that cannot be read as its key's type, from a flag or the INI,
    is refused with a message that names the key."""
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[bad]\nsigma_trap = 0.1\n{line}\n")
    monkeypatch.setattr(cli, "run_scenario", _no_solver_may_run)
    rc = cli.main(["profile", "--scenario", "bad", "--config", str(ini),
                   "--out", str(tmp_path / "x.csv")] + flags)
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: " if key is None else f"error: {key} = ")


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


@pytest.mark.parametrize("command", ["profile", "compare"])
@pytest.mark.parametrize("flag", ["--times", "--solvers"])
def test_empty_flag_is_refused_like_its_ini_key(tmp_path, capsys,
                                                monkeypatch, command, flag):
    """An empty --times or --solvers is a usage error before any solver
    runs, as the empty INI key is, not a flag silently left out."""
    monkeypatch.setattr(cli, "run_scenario", _no_solver_may_run)
    out_csv = tmp_path / "x.csv"
    rc = cli.main([command, "--scenario", "fig1a", flag, "",
                   "--out", str(out_csv)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_csv.exists()


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


@pytest.mark.parametrize("flags", [
    ["--times", "nan"],
    ["--times", "inf"],
    ["--times", "10,nan"],
    ["--x-max", "inf"],
    ["--x-max", "nan"],
], ids=["times-nan", "times-inf", "times-list-nan", "x-max-inf", "x-max-nan"])
def test_non_finite_flags_are_rejected_up_front(tmp_path, capsys,
                                               monkeypatch, flags):
    """Non-finite times and grid bounds are a usage error (exit 1),
    raised before any solver runs."""
    monkeypatch.setattr(cli, "run_scenario", _no_solver_may_run)
    rc = cli.main(["profile", "--scenario", "fig1a",
                   "--out", str(tmp_path / "x.csv")] + flags)
    assert rc == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["profile", "compare"])
@pytest.mark.parametrize("times", ["10,10", "10,20,1e1", "10,10.0000000001"],
                         ids=["adjacent", "spelled-apart", "same-csv-cell"])
def test_repeated_times_are_rejected_up_front(tmp_path, capsys, monkeypatch,
                                              command, times):
    """Two profiles at one time would be merged into one CSV block, so a
    repeated time is a usage error (exit 1) before any solver runs, and
    no file is written; so are two times whose 9-digit t_min cells read
    the same, which the plot script would select together."""
    monkeypatch.setattr(cli, "run_scenario", _no_solver_may_run)
    out_csv = tmp_path / "x.csv"
    rc = cli.main([command, "--scenario", "fig1a", "--times", times,
                   "--x-count", "3", "--out", str(out_csv)])
    assert rc == 1
    assert "repeat" in capsys.readouterr().err
    assert not out_csv.exists()


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


NON_FINITE_CONFIG = """
[odd]
sigma_trap = 0.1
times = 10
x_max = 4
x_count = 3
{line}
"""


@pytest.mark.parametrize("line", [
    "speed = inf",
    "speed = nan",
    "sigma_s = inf",
    "sigma_a = nan",
    "x_min = -inf",
])
def test_non_finite_config_values_are_rejected_up_front(tmp_path, capsys,
                                                        monkeypatch, line):
    ini = tmp_path / "odd.ini"
    ini.write_text(NON_FINITE_CONFIG.format(line=line))
    monkeypatch.setattr(cli, "run_scenario", _no_solver_may_run)
    rc = cli.main(["profile", "--scenario", "odd", "--config", str(ini),
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["speed = 1e200"])
def test_overflowing_squares_are_refused_up_front(tmp_path, capsys,
                                                  monkeypatch, line):
    """speed is refused once its square overflows, naming the key, exit
    1, before any solver runs: it enters squared in D0 = speed^2 /
    (3 sigma_s), where speed = 1e200 ended in a Python OverflowError in
    `fde.from_transport`. sigma_s, which nothing squares any more, is
    computed up to 1e300 (`test_acceptance`)."""
    ini = tmp_path / "odd.ini"
    ini.write_text(NON_FINITE_CONFIG.format(line=line))
    monkeypatch.setattr(cli, "run_scenario", _no_solver_may_run)
    rc = cli.main(["profile", "--scenario", "odd", "--config", str(ini),
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{line.split()[0]} = " in err and "square overflows" in err
    assert not (tmp_path / "x.csv").exists()


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
