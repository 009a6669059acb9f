"""The correctness gate: what it lets through and what it stops."""

import json
import math
import shutil

import pytest

import gate
import workloads


@pytest.fixture(scope="module")
def reference():
    return gate.load_reference()


def test_tolerance_allows_planned_shifts_but_not_a_lost_digit():
    ref, front = 0.2281849682433164, 10.0
    for solver in ("RTE", "FDE", "NORMAL"):
        assert gate.value_ok(solver, 2.0, ref * (1 + 6e-11), ref, front)
        assert gate.value_ok(solver, 2.0, ref * (1 + 1e-9), ref, front)
        assert gate.value_ok(solver, 2.0, float(f"{ref:.9g}"), ref, front)
        assert gate.value_ok(solver, 9.0, 3e-9 + 1e-10, 3e-9, front)
        assert not gate.value_ok(solver, 2.0, ref * (1 + 1e-8), ref, front)
        assert not gate.value_ok(solver, 2.0, math.nan, ref, front)


def test_past_the_front_only_transport_is_bounded_instead():
    front = 10.0
    assert gate.value_ok("RTE", 10.5, -5.1e-7, 3e-7, front)
    assert gate.value_ok("RTE", 10.5, 0.0, -5.1e-7, front)
    assert not gate.value_ok("RTE", 10.5, 1e-4, 1e-4, front)
    # the diffusion models have mass there; the ordinary rule holds
    assert not gate.value_ok("FDE", 10.5, 0.0, 1e-4, front)


def test_operation_counts_match_the_workloads(reference):
    expected = {"panels-rte": 906, "panels-fde": 1812, "late-times": 384}
    for name, count in expected.items():
        commands = workloads.build(name, 3, "out")
        assert gate.Checker(reference, commands).attempted == count


def test_seed_permutes_commands_without_changing_them():
    a = workloads.build("panels-fde", 1, "out")
    b = workloads.build("panels-fde", 2, "out")
    assert [c.argv for c in a] != [c.argv for c in b]
    assert sorted(c.argv for c in a) == sorted(c.argv for c in b)
    late = workloads.build("late-times", 5, "out")[0]
    times = late.argv[late.argv.index("--times") + 1].split(",")
    assert sorted(map(float, times)) == list(workloads.LATE_TIMES)


def _write_profile(path, ref, solvers, tweak=None):
    lines = [gate.PROFILE_HEADER]
    for i, x in enumerate(ref["x"]):
        cells = ["", "", ""]
        for solver in solvers:
            u = ref[solver][i]
            if tweak is not None:
                u = tweak(solver, i, u)
            cells[gate.COLUMN[solver] - 1] = f"{u:.9g}"
        lines.append(",".join([f"{x:.9g}", *cells, f"{ref['t']:.9g}",
                               ref["scenario"]]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def test_checker_passes_reference_csv_and_catches_one_bad_value(reference, tmp_path):
    commands = workloads.build("panels-fde", 0, str(tmp_path))
    checker = gate.Checker(reference, commands)
    for cmd in commands:
        ref = reference[workloads.series_key(*cmd.series[0])]
        _write_profile(cmd.out, ref, cmd.solvers)
        checker.check(cmd, 0)
    assert checker.correct and not checker.failed
    assert checker.max_rel_dev["FDE"] <= 5e-9  # 9-digit rounding only

    cmd = commands[0]
    ref = reference[workloads.series_key(*cmd.series[0])]
    _write_profile(cmd.out, ref, cmd.solvers,
                   tweak=lambda s, i, u: u * (1 + 2e-8) if (s, i) == ("FDE", 7) else u)
    checker.check(cmd, 0)
    assert checker.failed == {(workloads.series_key(*cmd.series[0]), "FDE", 7)}


def _write_compare(path, reference, cmd, diff_shift=0.0):
    """Rows as `trapdiff compare` prints them, from full-precision values."""
    lines = [gate.COMPARE_HEADER]
    for key in cmd.series:
        ref = reference[workloads.series_key(*key)]
        for i, x in enumerate(ref["x"]):
            u_r, u_d, u_n = ref["RTE"][i], ref["FDE"][i], ref["NORMAL"][i]
            diff = u_r - u_d + (diff_shift if i == 3 else 0.0)
            rel = abs(diff) / abs(u_d)
            lines.append(",".join(f"{v:.9g}" for v in (x, u_r, u_d, u_n, ref["t"]))
                         + f",{ref['scenario']},{diff:.9g},{rel:.9g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def test_compare_difference_columns_checked_up_to_rounding(reference, tmp_path):
    cmd = workloads.build("late-times", 0, str(tmp_path))[0]
    checker = gate.Checker(reference, [cmd])
    _write_compare(cmd.out, reference, cmd)
    checker.check(cmd, 0)
    assert checker.correct, checker.problems[:3]

    _write_compare(cmd.out, reference, cmd, diff_shift=1e-6)
    checker.check(cmd, 0)
    assert not checker.correct
    assert len(checker.failed) == 2 * len(cmd.series)


def test_failed_or_missing_command_fails_all_its_values(reference, tmp_path):
    commands = workloads.build("panels-rte", 0, str(tmp_path))
    checker = gate.Checker(reference, commands)
    checker.check(commands[0], 2)
    checker.check(commands[1], 0)  # no CSV written
    assert len(checker.failed) == 2 * 151
    assert not checker.correct


def test_altered_reference_values_are_refused(tmp_path, monkeypatch):
    copy = tmp_path / "values.json"
    shutil.copy(gate.VALUES, copy)
    raw = copy.read_bytes()
    copy.write_bytes(raw.replace(b"0.", b"1.", 1))
    monkeypatch.setattr(gate, "VALUES", str(copy))
    with pytest.raises(gate.ReferenceError):
        gate.load_reference()


def test_certification_covers_every_series(reference):
    with open(gate.CERTIFICATION, encoding="utf-8") as fh:
        cert = json.load(fh)
    assert cert["all_passed"]
    assert set(cert["series"]) == set(reference)
    for key, entry in cert["series"].items():
        for solver in ("RTE", "FDE", "NORMAL"):
            assert entry[solver]["passed"], (key, solver)
            assert entry[solver]["certified"] > 0
