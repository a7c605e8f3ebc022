import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cycproj import cli
from cycproj.catalog import get_entry
from cycproj.cli import (
    load_problem,
    problem_from_dict,
    problem_to_dict,
    read_trace,
    save_problem,
    write_trace,
)
from cycproj.engine import ProjectionStepError, alternating_project, cyclic_project
from cycproj.rates import ExponentOverflowError
from cycproj.sets import Ball, CapabilityError, Halfspace, NumericalError, ProjectionError, project, vnorm


# -- problem files ---------------------------------------------------------------


def test_problem_round_trip_bitwise(tmp_path):
    prob = get_entry("ex5.1").problem
    path = tmp_path / "p.json"
    save_problem(prob, str(path))
    back = load_problem(str(path))
    assert back.dimension == prob.dimension
    assert back.max_degree == prob.max_degree
    assert back.intersection_oracle == prob.intersection_oracle
    rng = np.random.default_rng(31)
    for _ in range(100):
        x = tuple(rng.uniform(-2, 2, size=2))
        for s1, s2 in zip(prob.sets, back.sets):
            for g1, g2 in zip(s1.constraints, s2.constraints):
                assert g1.evaluate(x) == g2.evaluate(x)  # bitwise


def test_problem_file_schema_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 2, "sets": []}')
    with pytest.raises(ValueError):
        load_problem(str(bad))
    bad.write_text('{"dimension": 2')
    with pytest.raises(ValueError) as exc_info:
        load_problem(str(bad))
    assert "line" in str(exc_info.value) and "column" in str(exc_info.value)
    with pytest.raises(ValueError):
        problem_from_dict({"dimension": 2, "sets": [{"constraints": [{"terms": [{"exponents": [1], "coefficient": 1.0}]}]}]})


def test_problem_hint_round_trip(tmp_path):
    # a problem file holds only the constraints; the closed form comes back from them
    prob = get_entry("ex5.7:d=2").problem
    doc = problem_to_dict(prob)
    assert all(set(sdoc) == {"name", "constraints"} for sdoc in doc["sets"])
    back = problem_from_dict(doc)
    assert back.sets[0].analytic_hint == prob.sets[0].analytic_hint == Halfspace((1.0, 0.0), 0.0)
    assert back.sets[1].analytic_hint is None


def _readme_problem_doc():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    return json.loads(blocks[0])


def test_readme_problem_file_loads_and_projects():
    # the documented schema must stay what the parser accepts
    problem = problem_from_dict(_readme_problem_doc())
    (disk,) = problem.sets
    assert isinstance(disk.analytic_hint, Ball)
    assert project(disk, (2.0, 0.0)) == (1.0, 0.0)
    assert problem.intersection_oracle.distance((0.0, 3.0)) == 3.0


# -- trace files -----------------------------------------------------------------


def test_trace_round_trip_bitwise(tmp_path):
    entry = get_entry("ex5.5")
    trace = cyclic_project(entry.problem, (0.0, 2.0), max_sweeps=100, stop_tol=1e-14)
    path = tmp_path / "t.csv"
    write_trace(trace, str(path))
    data = read_trace(str(path))
    assert data.ks == trace.ks
    assert data.set_indices == trace.set_indices
    assert data.residuals_before == trace.residuals_before  # 17 sig digits round-trip
    assert data.step_norms == trace.step_norms
    assert data.points == trace.iterates
    assert not data.thinned


def test_trace_thinned_flag_round_trip(tmp_path):
    entry = get_entry("ex5.5")
    A, B = entry.pair
    res = alternating_project(A, B, (0.0, 2.0), max_iters=600, stop_tol=1e-30, record_cap=100)
    path = tmp_path / "t.csv"
    write_trace(res.combined, str(path))
    first_line = path.read_text().splitlines()[0]
    assert "thinned=true" in first_line
    data = read_trace(str(path))
    assert data.thinned
    assert data.ks == res.combined.ks


@pytest.mark.parametrize("bad_row", ["3,0,0.5,0.25,0.3", "3,0,0.5"])
def test_read_trace_rejects_rows_of_wrong_width(tmp_path, bad_row):
    path = tmp_path / "t.csv"
    path.write_text(
        "k,set_index,residual_before,step_norm,x_0,x_1\r\n"
        "1,0,0.5,0.25,0.1,0.2\r\n"
        f"{bad_row}\r\n"
    )
    with pytest.raises(ValueError, match="k=3"):
        read_trace(str(path))
    args = ["rate", "--trace", str(path), "--n", "2", "--d", "2", "--window", "1:3"]
    assert cli.main(args) == 1


@pytest.mark.parametrize("bad_row, field", [("3,0.5,0.5,0.25,0.3,0.4", "int"),
                                             ("3,0,0.5,half,0.3,0.4", "float")])
def test_read_trace_names_the_file_and_line_of_a_malformed_number(tmp_path, capsys, bad_row, field):
    path = tmp_path / "t.csv"
    path.write_text(
        "# thinned=true\r\n"
        "k,set_index,residual_before,step_norm,x_0,x_1\r\n"
        "1,0,0.5,0.25,0.1,0.2\r\n"
        f"{bad_row}\r\n"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 4: .*{field}"):
        read_trace(str(path))
    args = ["rate", "--trace", str(path), "--n", "2", "--d", "2", "--window", "1:3"]
    assert cli.main(args) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: line 4: ")


@pytest.mark.parametrize("bad_row, reason", [(f"{10**30},0,0.5,0.25,0.3,0.4", "64-bit range"),
                                              (f"3,{10**30},0.5,0.25,0.3,0.4", "64-bit range"),
                                              ("3,-1,0.5,0.25,0.3,0.4", "negative set index -1"),
                                              ("1,1,0.5,0.25,0.3,0.4",
                                               "step indices must be strictly increasing (k=1)")])
def test_rate_rejects_an_index_the_int_columns_cannot_hold(tmp_path, capsys, bad_row, reason):
    path = tmp_path / "t.csv"
    path.write_text(
        "k,set_index,residual_before,step_norm,x_0,x_1\r\n"
        "1,0,0.5,0.25,0.1,0.2\r\n"
        f"{bad_row}\r\n"
    )
    args = ["rate", "--trace", str(path), "--n", "2", "--d", "2", "--window", "1:3"]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 3: ") and reason in err and "Traceback" not in err


def test_problem_file_non_finite_values_rejected(tmp_path):
    pfile = _write_disk_problem(tmp_path)
    base = json.loads(pfile.read_text())
    bad_oracle = dict(base, oracle={"type": "singleton", "point": [0.0, math.nan]})
    out = tmp_path / "run.csv"
    pfile.write_text(json.dumps(bad_oracle))  # writes the NaN literal, which json reads back
    with pytest.raises(ValueError):
        load_problem(str(pfile))
    assert cli.main(["run", "--problem", str(pfile), "--x0", "2,0", "--out", str(out)]) == 1
    assert not out.exists()


def _mixed_problem_doc():
    """ex5.7:d=2 (a halfspace, a power region and an oracle) plus a ball."""
    doc = problem_to_dict(get_entry("ex5.7:d=2").problem)
    doc["sets"].append(problem_to_dict(get_entry("ex5.5").problem)["sets"][0])
    return doc


def _load_doc_through_cli(tmp_path, capsys, doc):
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(doc))
    out = tmp_path / "run.csv"
    code = cli.main(["run", "--problem", str(pfile), "--x0", "1,1", "--sweeps", "2", "--out", str(out)])
    return code, capsys.readouterr().err, out


@pytest.mark.parametrize(
    "path, field",
    [
        (("dimension",), "'dimension'"),
        (("sets", 0, "constraints", 0, "terms", 0, "exponents", 0), "sets[0].constraints[0].terms[0].exponents"),
        (("sets", 1, "constraints", 0, "terms", 1, "coefficient"), "sets[1].constraints[0].terms[1].coefficient"),
        (("oracle", "point", 1), "'oracle.point'"),
        # the power region's degree, now carried only by its constraint's exponents
        (("sets", 1, "constraints", 0, "terms", 1, "exponents", 1), "sets[1].constraints[0].terms[1].exponents"),
    ],
)
def test_problem_file_rejects_booleans_as_numbers(tmp_path, capsys, path, field):
    doc = _mixed_problem_doc()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = True
    code, err, out = _load_doc_through_cli(tmp_path, capsys, doc)
    assert code == 1
    assert field in err and "must be" in err and "True" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "path, field",
    [
        (("sets", 1, "constraints", 0, "terms", 1, "coefficient"), "sets[1].constraints[0].terms[1].coefficient"),
        (("oracle", "point", 1), "'oracle.point'"),
    ],
)
def test_problem_file_rejects_integers_beyond_the_float_range(tmp_path, capsys, path, field):
    # a 400-digit integer literal has no float value
    doc = _mixed_problem_doc()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = -(10**400)
    code, err, out = _load_doc_through_cli(tmp_path, capsys, doc)
    assert code == 1
    assert err.startswith("error: ") and field in err and "float range" in err
    assert not out.exists()


def test_power_epigraph_hint_type_is_rejected(tmp_path, capsys):
    # the removed power_epigraph hint is not read: the file loads, and the power
    # region is projected from its constraint, as it is without the key
    doc = _mixed_problem_doc()
    plain = _load_doc_through_cli(tmp_path, capsys, doc)[2].read_bytes()
    doc["sets"][1]["hint"] = {"type": "power_epigraph", "degree": 2}
    assert problem_from_dict(doc).sets[1].analytic_hint is None
    code, err, out = _load_doc_through_cli(tmp_path, capsys, doc)
    assert (code, err) == (0, "")
    assert out.read_bytes() == plain


def test_wrong_ball_hint_in_problem_file_is_ignored(tmp_path, capsys):
    # an old file's hint key is not read; the ball comes from the constraint
    doc = _mixed_problem_doc()
    plain = _load_doc_through_cli(tmp_path, capsys, doc)[2].read_bytes()
    doc["sets"][2]["hint"] = {"type": "ball", "center": [5.0, 5.0], "radius": 0.5}
    assert problem_from_dict(doc).sets[2].analytic_hint == Ball((-1.0, 0.0), 1.0)
    code, err, out = _load_doc_through_cli(tmp_path, capsys, doc)
    assert (code, err) == (0, "")
    assert out.read_bytes() == plain


# -- run -------------------------------------------------------------------------


def test_cmd_run_example_and_norm_decreases(tmp_path):
    out = tmp_path / "run.csv"
    code = cli.main(
        ["run", "--example", "ex5.1", "--x0", "1,1", "--sweeps", "1000", "--out", str(out)]
    )
    assert code == 0
    data = read_trace(str(out))
    assert vnorm(data.points[-1]) < 1e-1


def test_cmd_run_fixed_point_start(tmp_path):
    out = tmp_path / "run.csv"
    code = cli.main(["run", "--example", "ex5.1", "--x0", "0,0", "--out", str(out)])
    assert code == 0
    data = read_trace(str(out))
    assert data.ks == [1, 2, 3, 4]  # one sweep of fixed points
    assert all(p == (0.0, 0.0) for p in data.points)


def test_cmd_run_input_errors(tmp_path):
    out = tmp_path / "run.csv"
    assert cli.main(["run", "--example", "ex5.1", "--out", str(out)]) == 1  # missing --x0
    assert cli.main(["run", "--example", "ex5.1", "--x0", "1,2,3", "--out", str(out)]) == 1
    assert cli.main(["run", "--example", "nope", "--x0", "1,1", "--out", str(out)]) == 1
    assert cli.main(["run", "--problem", "/nonexistent.json", "--x0", "1,1", "--out", str(out)]) == 1


@pytest.mark.parametrize("entry_id, message", [
    ("ex5.5:foo=1", "unknown parameter 'foo' in 'ex5.5:foo=1'; ex5.5 takes no parameters"),
    ("ex5.8:n=2,d=4", "unknown parameter 'd' in 'ex5.8:n=2,d=4'; ex5.8 takes n"),
    ("ex5.3:beta=1", "unknown parameter 'beta' in 'ex5.3:beta=1'; ex5.3 takes alpha"),
    ("ex5.8:n=2.5", "parameter 'n' in 'ex5.8:n=2.5' must be an integer, got '2.5'"),
    ("ex5.3:alpha=abc", "parameter 'alpha' in 'ex5.3:alpha=abc' must be a number, got 'abc'"),
    ("ex5.7:d=4,d=2", "parameter 'd' repeated in 'ex5.7:d=4,d=2'"),
    ("ex5.3:alpha=1e200", "parameter 'alpha' in 'ex5.3:alpha=1e200' is too large: the entry overflows the float range"),
], ids=["ex5.5", "ex5.8", "ex5.3", "ex5.8-non-integer", "ex5.3-non-number", "ex5.7-repeated", "ex5.3-overflow"])
def test_unknown_catalog_parameter_is_input_error(tmp_path, capsys, entry_id, message):
    out = tmp_path / "run.csv"
    assert cli.main(["run", "--example", entry_id, "--x0", "0,2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cmd_run_rejects_non_finite_start(tmp_path):
    out = tmp_path / "run.csv"
    assert cli.main(["run", "--example", "ex5.1", "--x0", "nan,0", "--out", str(out)]) == 1
    assert cli.main(["run", "--example", "ex5.1", "--x0", "1,inf", "--out", str(out)]) == 1
    assert not out.exists()


def test_cmd_run_overflow_is_solver_failure(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = cli.main(["run", "--example", "ex5.8:n=2", "--x0", "1e100,0", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert read_trace(str(out) + ".partial").ks == []


def test_cmd_run_negative_start(tmp_path):
    out = tmp_path / "run.csv"
    joined = tmp_path / "joined.csv"
    assert cli.main(["run", "--example", "ex5.5", "--x0", "-1.6,0.3", "--out", str(out)]) == 0
    assert cli.main(["run", "--example", "ex5.5", "--x0=-1.6,0.3", "--out", str(joined)]) == 0
    assert out.read_bytes() == joined.read_bytes()
    assert read_trace(str(out)).ks[0] == 1


@pytest.mark.parametrize(
    "args, message",
    [
        (["errorbound", "--example", "ex3.2:n=2,d=2", "--curve", "--t-lo", "-1e-3"], "--t-lo must be positive"),
        (["run", "--example", "ex5.5", "--x0", "-1e-3"], "--x0 has 1 coordinates"),
        (["errorbound", "--example", "ex5.5", "--center", "0,0", "--radius", "-5e-1"], "radius must be positive"),
        (["errorbound", "--example", "ex5.5", "--center", "0,0", "--theta", "-2e0"], "theta must be positive"),
    ],
)
def test_negative_value_with_exponent_reaches_its_option_check(tmp_path, capsys, args, message):
    out = tmp_path / "out"
    assert cli.main(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["run", "--example", "ex5.5", "--x0", "0,2", "--stop-tol", "-1e-3"],
         "argument --stop-tol: must be a positive number, got '-1e-3'"),
        (["run", "--example", "ex5.5", "--x0", "0,2", "--stop-tol", "nan"],
         "argument --stop-tol: must be a positive number, got 'nan'"),
        (["run", "--example", "ex5.5", "--x0", "0,2", "--sweeps", "0"],
         "argument --sweeps: must be an integer >= 1, got '0'"),
        (["run", "--example", "ex5.5", "--x0", "0,2", "--sweeps", "1e3"],
         "argument --sweeps: must be an integer >= 1, got '1e3'"),
        (["errorbound", "--example", "ex5.5", "--center", "0,0", "--samples", "0"],
         "argument --samples: must be an integer >= 1, got '0'"),
        (["errorbound", "--example", "ex3.2:n=2,d=2", "--curve", "--samples", "-5"],
         "argument --samples: must be an integer >= 1, got '-5'"),
        (["errorbound", "--example", "ex5.5", "--center", "0,0", "--seed", "-5"],
         "argument --seed: must be an integer >= 0, got '-5'"),
        (["run", "--example", "ex5.5", "--x0", "a,b"],
         "error: --x0 must be a comma-separated list of numbers: 'a,b'"),
        (["errorbound", "--curve", "--problem", "f.json"],
         "error: --curve mode requires --example with an attached curve"),
        (["errorbound", "--curve", "--example", "ex5.5"],
         "error: catalog entry ex5.5 has no curve attached"),
    ],
)
def test_option_checks_name_the_option(tmp_path, capsys, args, message):
    out = tmp_path / "out"
    assert cli.main(args + ["--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cmd_run_solver_failure_writes_partial(tmp_path):
    doc = {
        "dimension": 1,
        "sets": [
            {"name": "ok", "constraints": [{"terms": [{"exponents": [1], "coefficient": 1.0}]}]},
            {
                "name": "empty",
                "constraints": [
                    {
                        "terms": [
                            {"exponents": [2], "coefficient": 1.0},
                            {"exponents": [0], "coefficient": 1.0},
                        ]
                    }
                ],
            },
        ],
    }
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(doc))
    out = tmp_path / "run.csv"
    code = cli.main(["run", "--problem", str(pfile), "--x0", "5", "--out", str(out)])
    assert code == 2
    partial = read_trace(str(out) + ".partial")
    assert partial.points == [(0.0,)]
    assert not out.exists()


def test_cmd_run_halfspace_with_an_underflowing_normal_is_a_solver_failure(tmp_path, capsys):
    # <a, a> of the normal 1e-170 * e_2 underflows to 0, so the set has no closed
    # form; it used to reach the halfspace kernel and raise ZeroDivisionError
    doc = {
        "dimension": 2,
        "sets": [{"name": "tiny", "constraints": [{"terms": [{"exponents": [0, 1], "coefficient": 1e-170}]}]}],
    }
    pfile = tmp_path / "tiny.json"
    pfile.write_text(json.dumps(doc))
    out = tmp_path / "t.csv"
    code = cli.main(["run", "--problem", str(pfile), "--x0", "0,0.5", "--sweeps", "3", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert (tmp_path / "t.csv.partial").exists() and not out.exists()


def test_cmd_run_on_a_disk_of_radius_1000(tmp_path, capsys):
    # the ball kernel's point is exact to rounding, but the expanded residual
    # x^2 + y^2 - 2000x there is about 1e-10 to 1e-7, above FEASIBILITY_TOL =
    # 1e-10; the engine's post-step check must judge it against the size of
    # the constraint's terms there, about 4e6
    doc = {"dimension": 2, "sets": [
        {"name": "big-disk", "constraints": [{"terms": [
            {"exponents": [2, 0], "coefficient": 1.0}, {"exponents": [1, 0], "coefficient": -2000.0},
            {"exponents": [0, 2], "coefficient": 1.0}]}]},
        {"name": "halfplane", "constraints": [{"terms": [
            {"exponents": [0, 1], "coefficient": 1.0}, {"exponents": [0, 0], "coefficient": -300.0}]}]},
    ]}
    pfile = tmp_path / "big-disk.json"
    pfile.write_text(json.dumps(doc))
    out = tmp_path / "t.csv"
    code = cli.main(["run", "--problem", str(pfile), "--x0", "2500,900", "--sweeps", "50", "--out", str(out)])
    assert code == 0, capsys.readouterr().err


# -- rate ------------------------------------------------------------------------


def _write_synthetic_trace(path, points, dim=2):
    rows = ["k,set_index,residual_before,step_norm," + ",".join(f"x_{i}" for i in range(dim))]
    prev = points[0]
    for k, p in enumerate(points, start=1):
        sn = math.sqrt(sum((a - b) ** 2 for a, b in zip(p, prev)))
        rows.append(
            f"{k},{k % 2},{0.0:.17g},{sn:.17g}," + ",".join(f"{v:.17g}" for v in p)
        )
        prev = p
    path.write_text("\r\n".join(rows) + "\r\n")


def test_cmd_rate_geometric_trace(tmp_path):
    tr = tmp_path / "geo.csv"
    _write_synthetic_trace(tr, [(0.5**k, 0.0) for k in range(1, 61)])
    out = tmp_path / "report.json"
    code = cli.main(
        ["rate", "--trace", str(tr), "--n", "2", "--d", "1", "--window", "1:60",
         "--limit", "0,0", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["theoretical"] == {"kind": "linear"}
    assert report["chosen_model"] == "geometric"
    assert abs(report["geometric_fit"]["ratio"] - 0.5) <= 1e-9
    assert report["verdict"] == "CONSISTENT"
    assert report["errors_used"] == "distance-to-given-limit"


def test_cmd_rate_negative_limit(tmp_path):
    tr = tmp_path / "geo.csv"
    _write_synthetic_trace(tr, [(-1.0 + 0.5**k, 0.0) for k in range(1, 41)])
    out = tmp_path / "report.json"
    code = cli.main(
        ["rate", "--trace", str(tr), "--n", "2", "--d", "1", "--window", "1:40",
         "--limit", "-1,0", "--out", str(out)]
    )
    assert code == 0
    assert abs(json.loads(out.read_text())["geometric_fit"]["ratio"] - 0.5) <= 1e-9


def test_cmd_rate_short_window_is_input_error(tmp_path):
    tr = tmp_path / "geo.csv"
    _write_synthetic_trace(tr, [(0.5**k, 0.0) for k in range(1, 61)])
    assert cli.main(["rate", "--trace", str(tr), "--n", "2", "--d", "1", "--window", "1:5"]) == 1
    assert cli.main(["rate", "--trace", str(tr), "--n", "2", "--d", "1", "--window", "a:b"]) == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("limit", [[], ["--limit", "0,0"]])
def test_cmd_rate_non_finite_coordinate_in_window_is_input_error(tmp_path, capsys, bad, limit):
    # a NaN error used to exit 0 with "exponent": NaN, an inf one to fail in fsum
    tr = tmp_path / "geo.csv"
    _write_synthetic_trace(tr, [(0.5**k, bad if k == 30 else 0.0) for k in range(1, 61)])
    argv = ["rate", "--trace", str(tr), "--n", "2", "--d", "1", "--window", "10:50"] + limit
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: non-finite error ")
    # outside the window the coordinate is not read by the fit
    assert cli.main(argv[:-2 - len(limit)] + ["--window", "31:50", "--limit", "0,0"]) == 0


def test_cmd_rate_rejects_n_other_than_the_trace_dimension(tmp_path, capsys):
    tr = tmp_path / "geo.csv"
    _write_synthetic_trace(tr, [(0.5**k, 0.0) for k in range(1, 61)])
    out = tmp_path / "report.json"
    argv = ["rate", "--trace", str(tr), "--d", "2", "--window", "1:60", "--limit", "0,0", "--out", str(out)]
    assert cli.main(argv + ["--n", "3"]) == 1
    assert f"error: --n is 3, but {tr} has 2 coordinates" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(argv + ["--n", "2"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["rate", "--n", "2", "--d", "100000000000", "--window", "1:60", "--limit", "0,0"],
        ["run", "--example", "ex3.2:n=41,d=2", "--x0", "1"],
        ["errorbound", "--example", "ex3.2:n=41,d=2", "--center", "0"],
        ["errorbound", "--example", "ex3.2:n=41,d=2", "--curve"],
    ],
)
def test_exponent_overflow_is_input_error(tmp_path, capsys, argv):
    # the rate formula's integers leave the 64-bit range: an input error, not a traceback
    tr = tmp_path / "geo.csv"
    _write_synthetic_trace(tr, [(0.5**k, 0.0) for k in range(1, 61)])
    out = tmp_path / "run.csv"
    argv = argv + {"rate": ["--trace", str(tr)], "run": ["--out", str(out)]}.get(argv[0], [])
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceeds 64-bit range" in err
    assert not out.exists()


def test_unknown_catalog_id_prints_its_message_bare(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert cli.main(["run", "--example", "ex9.9", "--x0", "1,1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown catalog id 'ex9.9'; known: [") and err.endswith("]\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "exc, code",
    [
        (ValueError("bad input"), 1),
        (ExponentOverflowError("bad input"), 1),
        (CapabilityError("bad input"), 1),
        (OSError("bad input"), 1),
        (ProjectionError("solver failed"), 2),
        (NumericalError("solver failed"), 2),
        (ProjectionStepError("solver failed", 3, 1, None), 2),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_exit_code_follows_the_error_class(monkeypatch, capsys, exc, code):
    def failing(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_rate", failing)
    argv = ["rate", "--trace", "t.csv", "--n", "2", "--d", "2", "--window", "1:2"]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(exc) in err


def test_the_input_error_classes_are_value_errors():
    # so main's exit-1 clause names ValueError and OSError alone
    assert issubclass(ExponentOverflowError, ValueError) and not issubclass(ExponentOverflowError, OverflowError)
    assert issubclass(CapabilityError, ValueError)


def test_an_internal_key_error_is_not_an_input_error(monkeypatch):
    def failing(args):
        raise KeyError("a bug")

    monkeypatch.setattr(cli, "cmd_rate", failing)
    with pytest.raises(KeyError):
        cli.main(["rate", "--trace", "t.csv", "--n", "2", "--d", "2", "--window", "1:2"])


@pytest.mark.parametrize("header, limit, message", [
    ("k,set,residual_before,step_norm,x_0,x_1", [],
     "not a trace file (bad header ['k', 'set', 'residual_before', 'step_norm', 'x_0', 'x_1'])"),
    ("k,set_index,residual_before,step_norm,x_0,x_1", ["--limit", "0,0,0"],
     "--limit dimension does not match the trace"),
], ids=["bad-header", "limit-dimension"])
def test_cmd_rate_input_errors_name_their_cause(tmp_path, capsys, header, limit, message):
    path = tmp_path / "t.csv"
    path.write_text(f"{header}\r\n1,0,0.5,0.25,0.1,0.2\r\n2,1,0.5,0.25,0.3,0.4\r\n")
    out = tmp_path / "report.json"
    argv = ["rate", "--trace", str(path), "--n", "2", "--d", "2", "--window", "1:2", "--out", str(out)]
    assert cli.main(argv + limit) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cmd_rate_header_only_trace_is_input_error(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert cli.main(["run", "--example", "ex5.8:n=2", "--x0", "1e100,0", "--out", str(out)]) == 2
    partial = str(out) + ".partial"
    capsys.readouterr()
    for limit in ([], ["--limit", "0,0"]):
        argv = ["rate", "--trace", partial, "--n", "2", "--d", "4", "--window", "1:40"] + limit
        assert cli.main(argv) == 1
        assert "trace has no data rows" in capsys.readouterr().err


def test_cmd_rate_power_trace_default_errors(tmp_path):
    # distance to the final iterate: exclude the tail from the window
    tr = tmp_path / "pow.csv"
    _write_synthetic_trace(tr, [(k ** -0.5, 0.0) for k in range(1, 2001)])
    out = tmp_path / "report.json"
    code = cli.main(
        ["rate", "--trace", str(tr), "--n", "2", "--d", "2", "--window", "10:200", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["errors_used"] == "distance-to-final-recorded-iterate"
    assert report["chosen_model"] == "power"
    assert report["verdict"] == "CONSISTENT"


def test_cmd_rate_window_reaching_the_final_iterate_names_the_fixes(tmp_path, capsys):
    # without --limit the errors are distances to the final recorded iterate,
    # so the last row's error is 0 by construction
    trace = tmp_path / "ex55.csv"
    run = ["run", "--example", "ex5.5", "--x0", "0,2", "--sweeps", "200", "--out", str(trace)]
    assert cli.main(run) == 0
    capsys.readouterr()
    rate = ["rate", "--trace", str(trace), "--n", "2", "--d", "2", "--window"]
    assert cli.main(rate + ["100:400"]) == 1
    assert capsys.readouterr().err == (
        "error: --window 100:400 reaches k=400, the final recorded iterate, whose error is 0 because it is "
        "the default target; end the window before k=400 or pass --limit\n"
    )
    assert cli.main(rate + ["100:399"]) == 0
    assert cli.main(rate + ["100:400", "--limit", "0,0"]) == 0


# -- errorbound --------------------------------------------------------------------


def _write_disk_problem(tmp_path):
    doc = {
        "dimension": 2,
        "sets": [
            {
                "name": "disk",
                "constraints": [
                    {
                        "terms": [
                            {"exponents": [2, 0], "coefficient": 1.0},
                            {"exponents": [0, 2], "coefficient": 1.0},
                            {"exponents": [0, 0], "coefficient": -1.0},
                        ]
                    }
                ],
            }
        ],
        "oracle": None,
    }
    pfile = tmp_path / "disk.json"
    pfile.write_text(json.dumps(doc))
    return pfile


def test_cmd_errorbound_single_set(tmp_path):
    pfile = _write_disk_problem(tmp_path)
    out = tmp_path / "eb.json"
    code = cli.main(
        ["errorbound", "--problem", str(pfile), "--center", "0,0", "--theta", "1.0",
         "--samples", "60", "--radius", "2.0", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert abs(report["fitted_tau"] - 1.0) <= 1e-12
    assert report["seed"] == 7 and report["radius"] == 2.0


def test_cmd_errorbound_negative_center(tmp_path):
    pfile = _write_disk_problem(tmp_path)
    reports = []
    for center in (["--center", "-0.5,0"], ["--center=-0.5,0"]):
        out = tmp_path / f"eb{len(reports)}.json"
        code = cli.main(
            ["errorbound", "--problem", str(pfile)] + center
            + ["--samples", "30", "--radius", "2.0", "--out", str(out)]
        )
        assert code == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["samples_used"] > 0


def test_nan_numeric_options_are_input_errors(tmp_path):
    out = tmp_path / "run.csv"
    run = ["run", "--example", "ex5.1", "--x0", "1,1", "--out", str(out)]
    assert cli.main(run + ["--stop-tol", "nan"]) == 1
    assert not out.exists()
    probe = ["errorbound", "--example", "ex5.5", "--center", "0,0", "--samples", "20"]
    assert cli.main(probe + ["--theta", "nan"]) == 1
    assert cli.main(probe + ["--radius", "nan"]) == 1
    assert cli.main(probe + ["--radius", "inf"]) == 1


def test_errorbound_theta_past_the_float_range_is_an_input_error(tmp_path, capsys):
    # distances up to 100 to the power 1000 overflow a float
    out = tmp_path / "eb.json"
    code = cli.main(["errorbound", "--example", "ex5.5", "--center", "0,0", "--theta", "1000",
                     "--samples", "5", "--radius", "100", "--seed", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --theta 1000.0 is too large") and "Traceback" not in err
    assert not out.exists()


def test_cmd_errorbound_infeasible_center(tmp_path):
    assert cli.main(
        ["errorbound", "--example", "ex5.5", "--center", "3,3", "--samples", "60"]
    ) == 1


def test_cmd_errorbound_accepts_a_boundary_center_of_a_disk_of_radius_1e5(tmp_path, capsys):
    # x^2 + y^2 - 2e5 x at this boundary point is 3.8e-6, all of it rounding
    # of terms about 7e10; the center check is feasible's, as the projections'
    doc = {"dimension": 2, "sets": [
        {"name": "disk", "constraints": [{"terms": [
            {"exponents": [2, 0], "coefficient": 1.0}, {"exponents": [1, 0], "coefficient": -2e5},
            {"exponents": [0, 2], "coefficient": 1.0}]}]},
        {"name": "halfplane", "constraints": [{"terms": [{"exponents": [0, 1], "coefficient": 1.0}]}]},
    ]}
    pfile = tmp_path / "disk.json"
    pfile.write_text(json.dumps(doc))
    out = tmp_path / "eb.json"
    code = cli.main(["errorbound", "--problem", str(pfile), "--center=176484.21872844885,-64421.7687237691",
                     "--samples", "40", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert json.loads(out.read_text())["heuristic_distances"] is True


@pytest.mark.parametrize("center", ["1e-3,0", "1e-9,0"])
def test_cmd_errorbound_refuses_a_center_outside_a_unit_disk(tmp_path, capsys, center):
    # ex5.5's left disk is x^2 + y^2 + 2x <= 0, about 2e-3 and 2e-9 at these
    # centers; its terms there are far below 1, so feasible's bound is 1e-10
    out = tmp_path / "eb.json"
    code = cli.main(["errorbound", "--example", "ex5.5", "--center", center, "--samples", "40", "--out", str(out)])
    assert code == 1
    assert "center is infeasible for set 'left-disk'" in capsys.readouterr().err
    assert not out.exists()


def test_cmd_errorbound_curve_mode(tmp_path):
    out = tmp_path / "curve.json"
    code = cli.main(
        ["errorbound", "--example", "ex3.2:n=2,d=2", "--curve", "--samples", "50",
         "--t-lo", "1e-3", "--t-hi", "1e-1", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert abs(report["exponent"] - 0.25) <= 1e-3
    assert report["mode"] == "curve"


def test_errorbound_curve_past_the_float_range_is_an_input_error(tmp_path, capsys):
    # the chain's first constraint at the curve point for t = 1e80 is 1e320
    out = tmp_path / "curve.json"
    code = cli.main(["errorbound", "--example", "ex3.2:n=2,d=2", "--curve", "--samples", "50",
                     "--t-lo", "1e-3", "--t-hi", "1e80", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --t-hi 1e+80 is too large") and "Traceback" not in err
    assert not out.exists()


# the curve-mode errorbound JSON on ex3.2, IEEE-754 doubles and an x86-64 glibc ``pow``
EX32_CURVE_SHA = "93843877945a4b8b39cef149b50f6114d6a837d866af9e9cb4f759213ee2a413"


def test_ex32_projections_are_solver_failures_and_its_curve_keeps_its_bytes(tmp_path, capsys):
    # the gradient of ex3.2's first set {x_1^d <= 0} vanishes on the set, so a
    # projection onto it has no KKT point: a run and a ball probe exit 2,
    # while the curve mode, which only evaluates residuals, is unchanged
    out = tmp_path / "c.csv"
    args = ["run", "--example", "ex3.2:n=2,d=4", "--x0", "0.3,0.2", "--sweeps", "10", "--out", str(out)]
    assert cli.main(args) == 2
    assert "no KKT point found for set 'chain-0'" in capsys.readouterr().err
    assert not out.exists() and read_trace(str(out) + ".partial").ks == []
    probe = tmp_path / "eb.json"
    args = ["errorbound", "--example", "ex3.2:n=2,d=2", "--center", "0,0", "--out", str(probe)]
    assert cli.main(args) == 2
    assert "no KKT point found for set 'chain-0'" in capsys.readouterr().err
    assert not probe.exists()
    curve = tmp_path / "curve.json"
    assert cli.main(["errorbound", "--example", "ex3.2:n=2,d=2", "--curve", "--samples", "50",
                     "--t-lo", "1e-3", "--t-hi", "1e-1", "--out", str(curve)]) == 0
    assert hashlib.sha256(curve.read_bytes()).hexdigest() == EX32_CURVE_SHA


def _disk(cx):
    # the unit disk about (cx, 0)
    return {"terms": [{"exponents": [2, 0], "coefficient": 1.0}, {"exponents": [1, 0], "coefficient": -2.0 * cx},
                      {"exponents": [0, 2], "coefficient": 1.0},
                      {"exponents": [0, 0], "coefficient": cx * cx - 1.0}]}


def test_errorbound_refinement_failure_is_a_solver_failure(tmp_path, capsys):
    # without an oracle the probe refines each sample by cyclic projections; the
    # tangent disks meet only at 0 with antiparallel gradients, so a projection
    # onto them has no KKT point and the run fails at its first step
    doc = {"dimension": 2, "sets": [
        {"name": "tangent-disks", "constraints": [_disk(-1.0), _disk(1.0)]},
        {"name": "halfplane", "constraints": [{"terms": [{"exponents": [1, 0], "coefficient": 1.0},
                                                         {"exponents": [0, 0], "coefficient": -1.0}]}]},
    ]}
    pfile = tmp_path / "tangent.json"
    pfile.write_text(json.dumps(doc))
    out = tmp_path / "eb.json"
    code = cli.main(["errorbound", "--problem", str(pfile), "--center", "0,0", "--samples", "5",
                     "--radius", "0.5", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: projection onto set 0 ('tangent-disks') failed at step 1: no KKT point found")
    assert not out.exists()


def test_errorbound_exponent_past_64_bits_is_an_input_error(tmp_path, capsys):
    # a constraint of degree 10^10: the probe's kappa(2, 2 * 10^10) leaves the 64-bit range
    doc = {"dimension": 2, "sets": [{"name": "flat", "constraints": [{"terms": [
        {"exponents": [10**10, 0], "coefficient": 1.0}, {"exponents": [0, 2], "coefficient": 1.0},
        {"exponents": [0, 0], "coefficient": -1.0}]}]}]}
    pfile = tmp_path / "flat.json"
    pfile.write_text(json.dumps(doc))
    out = tmp_path / "eb.json"
    assert cli.main(["errorbound", "--problem", str(pfile), "--center", "0,0", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: kappa(2,20000000000) = ") and err.endswith(" exceeds 64-bit range\n")
    assert not out.exists()


def test_cmd_errorbound_missing_center(capsys):
    assert cli.main(["errorbound", "--example", "ex5.5", "--samples", "60"]) == 1
    assert capsys.readouterr().err == "error: --center is required unless --curve is given\n"


@pytest.mark.parametrize("sets, args, message", [
    # ex5.5's tangent disks with no oracle: refinement converges too slowly to certify
    ([{"name": "left-disk", "constraints": [_disk(-1.0)]}, {"name": "right-disk", "constraints": [_disk(1.0)]}],
     ["--samples", "3", "--radius", "0.5"],
     "distance to the intersection could not be certified; provide an oracle"),
    # every sample falls inside the disk of radius 2, so none measures a distance
    ([{"name": "disk", "constraints": [{"terms": [
        {"exponents": [2, 0], "coefficient": 1.0}, {"exponents": [0, 2], "coefficient": 1.0},
        {"exponents": [0, 0], "coefficient": -4.0}]}]}],
     ["--radius", "0.1"],
     "too few informative samples to fit an exponent"),
], ids=["uncertified", "uninformative"])
def test_errorbound_probe_that_cannot_fit_is_an_input_error(tmp_path, capsys, sets, args, message):
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps({"dimension": 2, "sets": sets}))
    out = tmp_path / "eb.json"
    assert cli.main(["errorbound", "--problem", str(pfile), "--center", "0,0", "--out", str(out)] + args) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_uncertified_refinement_computes_the_exact_distances_before_it_refuses(tmp_path, capsys, monkeypatch):
    # the tangent disks' refinement runs out of sweeps, so the final sweep's
    # bound on the refined point's distances exceeds the certificate's
    # tolerance, and the m exact distances are computed before the refusal
    from cycproj import analysis

    calls = []
    distance = analysis.distance

    def counting(s, x):
        calls.append(s.name)
        return distance(s, x)

    monkeypatch.setattr(analysis, "distance", counting)
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps({"dimension": 2, "sets": [
        {"name": "left-disk", "constraints": [_disk(-1.0)]}, {"name": "right-disk", "constraints": [_disk(1.0)]}]}))
    args = ["errorbound", "--problem", str(pfile), "--center", "0,0", "--samples", "3", "--radius", "0.5"]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == "error: distance to the intersection could not be certified; provide an oracle\n"
    assert calls == ["left-disk", "right-disk"]


@pytest.mark.parametrize("center, count", [("0,0,0", 3), ("0", 1)])
def test_cmd_errorbound_center_of_the_wrong_length_names_the_option(tmp_path, capsys, center, count):
    out = tmp_path / "eb.json"
    assert cli.main(["errorbound", "--example", "ex5.5", "--center", center, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --center has {count} coordinates, problem dimension is 2\n"
    assert not out.exists()


# -- replicate ----------------------------------------------------------------------


def test_cmd_replicate_ex55(capsys):
    assert cli.main(["replicate", "--id", "ex5.5"]) == 0
    out = capsys.readouterr().out
    assert "alpha_1e6" in out
    assert "PASS" in out
    assert "FAIL" not in out


def test_cmd_replicate_ex53(capsys):
    assert cli.main(["replicate", "--id", "ex5.3"]) == 0
    out = capsys.readouterr().out
    assert "closed-form match k<=50" in out
    assert "FAIL" not in out


def test_cmd_replicate_unknown_id():
    assert cli.main(["replicate", "--id", "ex7.7"]) == 1


@pytest.mark.parametrize("entry_id", ["ex5.8:n=3", "ex5.7:d=4"])
def test_cmd_replicate_refuses_an_id_with_parameters(capsys, entry_id):
    # the checks are written for fixed parameters, which a suffix would not change
    assert cli.main(["replicate", "--id", entry_id]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: unknown replicate id {entry_id!r}; known, without parameters: "
                            "['ex3.2', 'ex5.1', 'ex5.3', 'ex5.5', 'ex5.7', 'ex5.8']\n")


# stdout of `replicate --all`, IEEE-754 doubles and an x86-64 glibc ``pow``
REPLICATE_ALL_SHA = "930be621427f1a57918278394dc63cc460d7c1f5dc3db2da6b2390f1c631b348"


def test_cmd_replicate_all_covers_catalog(capsys):
    assert cli.main(["replicate", "--all"]) == 0
    out = capsys.readouterr().out
    entries = {line.split()[0] for line in out.splitlines() if line.strip()}
    assert len(entries) >= 6
    assert "FAIL" not in out
    assert hashlib.sha256(out.encode()).hexdigest() == REPLICATE_ALL_SHA


# -- end-to-end: run a long trace, then fit its rate through the CLI ---------


def test_cmd_run_then_rate_on_tangent_disks(tmp_path):
    trace_path = tmp_path / "ex55.csv"
    code = cli.main(
        ["run", "--example", "ex5.5", "--x0", "0,2", "--sweeps", "50000",
         "--stop-tol", "1e-300", "--out", str(trace_path)]
    )
    assert code == 0
    report_path = tmp_path / "rate.json"
    code = cli.main(
        ["rate", "--trace", str(trace_path), "--n", "2", "--d", "2",
         "--window", "10000:100000", "--limit", "0,0", "--out", str(report_path)]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["theoretical"] == {"kind": "power_law", "rho": 1.0 / 6.0}
    assert report["chosen_model"] == "power"
    assert -0.52 <= report["power_fit"]["exponent"] <= -0.48
    assert report["verdict"] == "CONSISTENT"


@pytest.mark.parametrize(
    "bounds, option",
    [
        (["--t-lo", "0"], "--t-lo"),
        (["--t-lo=-1e-3"], "--t-lo"),
        (["--t-lo", "nan"], "--t-lo"),
        (["--t-lo", "inf"], "--t-lo"),
        (["--t-hi", "nan"], "--t-hi"),
        (["--t-hi", "inf"], "--t-hi"),
        (["--t-lo", "0.1", "--t-hi", "0.001"], "--t-hi"),
        (["--t-lo", "0.1", "--t-hi", "0.1"], "--t-hi"),
    ],
)
def test_cmd_errorbound_curve_rejects_bad_parameter_range(tmp_path, capsys, bounds, option):
    out = tmp_path / "curve.json"
    args = ["errorbound", "--example", "ex3.2:n=2,d=2", "--curve", "--samples", "50",
            "--out", str(out)] + bounds
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option} must be")
    assert not out.exists()


def test_cli_never_needs_numpy(tmp_path):
    # cycproj needs nothing beyond CPython: with numpy blocked before the
    # import, a fresh interpreter runs every subcommand, the KKT Newton
    # projections, the probe's sampler and the curve grid included
    script = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import cycproj
from cycproj import cli
d = sys.argv[1]
assert cli.main(["run", "--example", "ex5.5", "--x0", "0,2", "--sweeps", "200",
                 "--stop-tol", "1e-300", "--out", d + "/ex55.csv"]) == 0
assert cli.main(["run", "--example", "ex5.8:n=3", "--x0", "2,1,0", "--sweeps", "50",
                 "--out", d + "/ex58.csv"]) == 0
assert cli.main(["rate", "--trace", d + "/ex55.csv", "--n", "2", "--d", "2",
                 "--window", "10:400", "--limit", "0,0", "--out", d + "/rate.json"]) == 0
assert cli.main(["errorbound", "--example", "ex5.5", "--center", "0,0", "--samples", "40",
                 "--radius", "0.5", "--seed", "1", "--out", d + "/ball.json"]) == 0
assert cli.main(["errorbound", "--example", "ex3.2:n=2,d=2", "--curve", "--samples", "50",
                 "--t-lo", "1e-3", "--t-hi", "1e-1", "--out", d + "/curve.json"]) == 0
assert cli.main(["replicate", "--all"]) == 0
"""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for name in ("ex58.csv", "rate.json", "ball.json", "curve.json"):
        assert (tmp_path / name).exists(), name
    assert "FAIL" not in proc.stdout


@pytest.mark.parametrize(
    "lo, hi",
    [(-3, -1), (math.log10(1e-3), math.log10(1e-1))],
    ids=["replicate-grid", "readme-grid"],
)
def test_logspace_follows_numpy_logspace(lo, hi):
    # same exponents as numpy.linspace, bit for bit; numpy's power and libm's
    # pow may then round a point differently, by at most one ulp
    ts = cli._logspace(lo, hi, 50)
    assert ts == [10.0**y for y in np.linspace(lo, hi, 50).tolist()]
    for t, ref in zip(ts, np.logspace(lo, hi, 50).tolist()):
        assert abs(t - ref) <= math.ulp(ref)


def test_logspace_of_one_point_is_its_lower_end():
    assert cli._logspace(-3.0, -1.0, 1) == [10.0**-3.0]


def test_cmd_errorbound_curve_of_one_sample_is_input_error(tmp_path, capsys):
    out = tmp_path / "curve.json"
    args = ["errorbound", "--example", "ex3.2:n=2,d=2", "--curve", "--samples", "1", "--out", str(out)]
    assert cli.main(args) == 1
    assert "fewer than 2 informative points" in capsys.readouterr().err
    assert not out.exists()
