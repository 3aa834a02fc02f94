import contextlib
import csv
import dataclasses
import io
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcorr import BellDiagonalState, cli, detect_transition, make_trajectory, random_density_matrix
from qcorr.batch import render_batch_report, run_batch_campaigns
from qcorr.bloch import bloch_decompose
from qcorr.cli import main
from qcorr import io as qio
from qcorr.io import (
    ConfigError,
    StateFormatError,
    build_config,
    dump_json,
    format_float,
    load_state_file,
    parse_config_file,
    render_table,
    serialize_trajectory,
)
import qcorr.measures
from qcorr.measures import UNITS_DEVIATION, UNITS_FULL, _spectral_negativity, negativity, \
    report_from_record, scaled_record
from qcorr.protocol import run_direct_protocol


def write_bell_file(path, c, mode="deviation"):
    path.write_text(json.dumps({"kind": "bell", "c": list(c), "mode": mode}))
    return str(path)


def write_state_file(path, rho):
    rho = np.asarray(rho, dtype=complex)
    path.write_text(json.dumps({"kind": "matrix", "dim": len(rho), "re": rho.real.tolist(),
                                "im": rho.imag.tolist()}))


def test_format_float_fifteen_digits():
    assert format_float(0.1 + 0.2) == "0.3"
    assert format_float(1.0 / 3.0) == "0.333333333333333"
    assert format_float(1e-5) == "1e-05"


def test_dump_json_deterministic():
    doc = {"a": 1, "b": [0.1, None, "x"], "c": np.array([1.5, 2.5])}
    assert dump_json(doc) == dump_json(doc)
    parsed = json.loads(dump_json(doc))
    assert parsed["b"] == [0.1, None, "x"]
    assert parsed["c"] == [1.5, 2.5]


def trajectory_rows(traj):
    """One dict per grid point, as the row-wise trajectory writer built them."""
    for i, t in enumerate(traj.times):
        rep = traj.reports[i]
        yield {
            "t": float(t),
            "c1": float(traj.bell_coeffs[i, 0]),
            "c2": float(traj.bell_coeffs[i, 1]),
            "c3": float(traj.bell_coeffs[i, 2]),
            "d_g": rep.d_g,
            "q": rep.q,
            "q_n": rep.q_n,
            "negativity": rep.negativity,
        }


def serialize_trajectory_by_rows(traj, fmt):
    """Reference writer: the row dicts as a JSON list, or a CSV line per dict."""
    records = list(trajectory_rows(traj))
    if fmt == "json":
        return dump_json(records) + "\n"
    keys = list(records[0])
    lines = [",".join(keys)]
    lines += [",".join("" if rec[k] is None else format_float(rec[k]) for k in keys)
              for rec in records]
    return "\n".join(lines) + "\n"


@settings(max_examples=80)
@given(
    c=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    mode=st.sampled_from(["full", "deviation"]),
    n_points=st.integers(5, 300),
    include_local_bloch=st.booleans(),
)
@example(c=(0.5, -0.06, 0.24), mode="deviation", n_points=251, include_local_bloch=True)
@example(c=(0.9, -0.9, 0.8), mode="full", n_points=5, include_local_bloch=False)
def test_serialize_trajectory_equals_row_writer(c, mode, n_points, include_local_bloch):
    try:
        state = BellDiagonalState(*c, mode=mode)
    except ValueError:  # outside the Bell tetrahedron
        assume(False)
    traj = make_trajectory(state, n_points=n_points, include_local_bloch=include_local_bloch)
    for fmt in ("csv", "json"):
        assert serialize_trajectory(traj, fmt) == serialize_trajectory_by_rows(traj, fmt)


def render_csv_by_cells(table):
    """CSV of float-array columns written one f-string per cell, NaN as an empty cell."""
    cells = [["" if v != v else f"{v:.15g}" for v in col.tolist()] for col in table.values()]
    return "\n".join([",".join(table), *map(",".join, zip(*cells))]) + "\n"


SPECIAL_FLOATS = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310,
                  2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308, 0.1, 1e16]


@settings(max_examples=150)
@given(columns=st.integers(1, 4),
       values=st.lists(st.floats() | st.sampled_from(SPECIAL_FLOATS), max_size=80))
@example(columns=1, values=SPECIAL_FLOATS)
@example(columns=2, values=[])
def test_csv_float_columns_equal_cell_writer(columns, values):
    n = len(values) // columns
    table = {f"k{j}": np.array(values[j * n:(j + 1) * n]) for j in range(columns)}
    assert render_table(table, "csv") == render_csv_by_cells(table)


def render_mixed_by_cells(table):
    """CSV written cell by cell: a float array's NaN empty, a list's None empty, its text as
    is and its numbers as in JSON; rows as zip counts them, up to the shortest column."""
    def cell(v, in_array):
        if in_array:
            return "" if v != v else f"{v:.15g}"
        return "" if v is None else v if isinstance(v, str) else dump_json(v)
    cells = [[cell(v, isinstance(col, np.ndarray)) for v in
              (col.tolist() if isinstance(col, np.ndarray) else col)] for col in table.values()]
    return "\n".join([",".join(table), *map(",".join, zip(*cells))]) + "\n"


_LIST_CELLS = st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20),
                        st.floats() | st.sampled_from(SPECIAL_FLOATS),
                        st.sampled_from(["nan", "inf", "%s", "100%", "a,nan", "", "eps^0"]))


@settings(max_examples=150)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 6)), min_size=1, max_size=5),
       st.lists(st.floats() | st.sampled_from(SPECIAL_FLOATS), min_size=30, max_size=30),
       st.lists(_LIST_CELLS, min_size=30, max_size=30))
@example(kinds=[(True, 3), (False, 3)], numbers=SPECIAL_FLOATS * 3, cells=["nan"] * 30)
def test_csv_mixed_tables_equal_cell_writer(kinds, numbers, cells):
    # float arrays and lists in one table, of equal or unequal lengths: NaN, -0.0, inf
    # and 5e-324 in both, and list text that holds "nan" or "%" kept as is
    table = {}
    for j, (is_array, n) in enumerate(kinds):
        start = 5 * j
        table[f"k{j}"] = (np.array(numbers[start:start + n]) if is_array
                          else cells[start:start + n])
    assert render_table(table, "csv") == render_mixed_by_cells(table)


def _csv_matches(text, records):
    """csv.DictReader recovers every record: same keys, None as an empty cell,
    text as is and numbers to the 15 digits written."""
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        assert list(row) == list(rec)
        for key, value in rec.items():
            if value is None:
                assert row[key] == ""
            elif isinstance(value, str):
                assert row[key] == value
            else:
                assert float(row[key]) == pytest.approx(value, rel=1e-14, abs=1e-300)


def test_csv_round_trip():
    traj = make_trajectory(BellDiagonalState(0.5, -0.06, 0.24, mode="deviation"),
                           n_points=51, include_local_bloch=True)
    records = list(trajectory_rows(traj))
    q_n = [rec["q_n"] for rec in records]
    assert None in q_n and any(v is not None for v in q_n)  # empty and filled cells
    _csv_matches(serialize_trajectory(traj, "csv"), records)
    results = run_batch_campaigns(20, 4, dims=(2, 3))
    _csv_matches(render_batch_report(results, "csv"), [dataclasses.asdict(r) for r in results])


def test_int_and_bool_array_columns_write_json_values():
    # as a list column writes them, in CSV as in JSON
    arrays = {"a": np.array([12345678901234567, -3]), "b": np.array([True, False]),
              "c": np.array([0.5, np.nan])}
    lists = {"a": [12345678901234567, -3], "b": [True, False], "c": [0.5, None]}
    assert render_table(arrays, "csv") == "a,b,c\n12345678901234567,true,0.5\n-3,false,\n"
    for fmt in ("csv", "json"):
        assert render_table(arrays, fmt) == render_table(lists, fmt)


def test_cli_protocol_output_key_order(tmp_path, capsys):
    path = write_bell_file(tmp_path / "b.json", [0.5, -0.3, 0.2], mode="full")
    out = tmp_path / "protocol.json"
    keys = ["budget", "x_est", "c_est", "readout_count", "shots", "seed", "direct",
            "tomography", "max_measure_difference"]
    assert main(["protocol", "--state", path, "--output", str(out)]) == 0
    assert list(json.loads(out.read_text())) == keys
    assert main(["protocol", "--state", path, "--output", str(out),
                 "--shots", "100", "--seed", "3"]) == 0
    assert list(json.loads(out.read_text())) == keys + ["x_error", "c_error"]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:  # the document is JSON only
        main(["protocol", "--state", path, "--format", "csv"])
    assert exc.value.code == 2


def test_state_file_matrix_roundtrip(tmp_path):
    rho = random_density_matrix(4, seed=3)
    path = tmp_path / "state.json"
    write_state_file(path, rho)
    loaded = load_state_file(path)
    assert type(loaded) is np.ndarray and loaded.dtype == complex
    assert np.max(np.abs(loaded - rho)) <= 1e-15


def test_state_file_bell(tmp_path):
    path = write_bell_file(tmp_path / "b.json", [0.5, -0.06, 0.24])
    loaded = load_state_file(path)
    assert type(loaded) is BellDiagonalState
    assert loaded == BellDiagonalState(0.5, -0.06, 0.24, mode="deviation")


@pytest.mark.parametrize(
    "doc,field",
    [
        ({"kind": "matrix", "re": [[1]], "im": [[0]]}, "dim"),
        ({"kind": "matrix", "dim": 2, "re": [[1]], "im": [[0]]}, "re"),
        ({"kind": "matrix", "dim": 1, "re": [[1]], "im": [[0, 0]]}, "im"),
        ({"kind": "bell", "c": [0.1, 0.2]}, "c"),
        ({"kind": "bell", "c": [0.1, 0.2, 0.3], "mode": "weird"}, "mode"),
        ({"kind": "spaghetti"}, "kind"),
        ({"kind": "matrix", "dim": True, "re": [[1]], "im": [[0]]}, "dim"),
        ({"kind": "matrix", "dim": 1, "re": [[True]], "im": [[0]]}, "re"),
        ({"kind": "matrix", "dim": 1, "re": [["1"]], "im": [[0]]}, "re"),
        ({"kind": "matrix", "dim": 1, "re": [[1]], "im": [[float("nan")]]}, "im"),
        ({"kind": "matrix", "dim": 2, "re": [[1, 0], [0]], "im": [[0, 0], [0, 0]]}, "re"),
        ({"kind": "bell", "c": [True, 0, 0]}, "c"),
        ({"kind": "bell", "c": [float("inf"), 0, 0], "mode": "deviation"}, "c"),
        ({"kind": "bell", "c": [10**400, 0, 0]}, "c"),
    ],
)
def test_state_file_field_errors(tmp_path, doc, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(StateFormatError) as err:
        load_state_file(path)
    message = str(err.value).removeprefix(f"{path}: ")
    # the message names the field: quoted, or as the unknown kind
    assert f"field {field!r}" in message or message.startswith(f"unknown {field} ")


def test_state_file_truncated(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"kind": "bell", "c": [0.1,')
    with pytest.raises(StateFormatError, match="JSON"):
        load_state_file(path)


@pytest.mark.parametrize("raw, message", [
    (b'\xef\xbb\xbf{"kind": "bell", "c": [0.1, 0.2, 0.3]}',
     "{path}: not valid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig): "
     "line 1 column 1 (char 0))"),
    (b'{"kind": "bell", "c": [0.1, 0.2, \xff]}',
     "'utf-8' codec can't decode byte 0xff in position 33: invalid start byte"),
    (b'{"kind": "bell",\r\n "c": [0.1,\r\n 0.2,, 0.3]}',  # positions count one newline
     "{path}: not valid JSON (Expecting value: line 3 column 6 (char 34))"),
    (b'{"kind":\r"bell", "c": ]}',
     "{path}: not valid JSON (Expecting value: line 2 column 14 (char 22))"),
])
def test_cli_state_file_encoding_errors_exit_2(tmp_path, capsys, raw, message):
    # a state file is UTF-8 JSON: a BOM and invalid UTF-8 are refused, and JSON errors
    # are placed as in the file read as text
    path = tmp_path / "s.json"
    path.write_bytes(raw)
    assert main(["measure", "--state", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.format(path=path)}\n"
    assert captured.out == ""


def test_config_parse_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        """
        # reference run
        state.c = 0.5, -0.06, 0.24
        state.mode = deviation
        relaxation.t1_a = 3.57
        grid.n_points = 51
        output = out.csv
        """
    )
    raw = parse_config_file(cfg_file)
    cfg = build_config(raw)
    assert cfg.state_coeffs == (0.5, -0.06, 0.24)
    assert cfg.n_points == 51
    assert cfg.format == "csv"
    assert cfg.output == "out.csv"
    assert cfg.relaxation.t1_a == 3.57


def test_config_unknown_key(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("gridd.n_points = 3\n")
    with pytest.raises(ConfigError, match="gridd.n_points"):
        parse_config_file(cfg_file)
    cfg_file.write_text("shots = 100\n")
    with pytest.raises(ConfigError, match="unknown config key 'shots'"):
        parse_config_file(cfg_file)
    with pytest.raises(ConfigError, match="unknown config key 'bogus'"):
        build_config({"state.c": "0.1 0.1 0.1", "bogus": "x"})


def test_config_consistency_rules():
    with pytest.raises(ConfigError, match="exactly one"):
        build_config({})
    with pytest.raises(ConfigError, match="at most one"):
        build_config({"state.c": "0.1 0.1 0.1", "grid.t_max": "1", "grid.dt": "0.1"})


def test_cli_measure_reference_state(tmp_path, capsys):
    path = write_bell_file(tmp_path / "rho2.json", [0.5, -0.06, 0.24])
    assert main(["measure", "--state", path]) == 0
    out = capsys.readouterr().out
    assert "d_g = 0.0306\n" in out
    assert "q_n = 0.12\n" in out
    assert "units = eps^2/eps^1" in out


def test_cli_measure_matrix_file(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    write_state_file(path, np.eye(4, dtype=complex) / 4.0)
    assert main(["measure", "--state", str(path)]) == 0
    out = capsys.readouterr().out
    assert "d_g = 0" in out


def test_config_rejects_fractional_integers():
    with pytest.raises(ConfigError, match="grid.n_points.*integer"):
        build_config({"state.c": "0.1 0.1 0.1", "grid.n_points": "2.7"})
    cfg = build_config({"state.c": "0.1 0.1 0.1", "grid.n_points": "51.0"})
    assert cfg.n_points == 51


def test_cli_measure_nan_matrix_exit_2(tmp_path, capsys):
    path = tmp_path / "nan.json"
    re_part = (np.eye(4) / 4.0).tolist()
    re_part[1][2] = float("nan")
    path.write_text(json.dumps({"kind": "matrix", "dim": 4, "re": re_part,
                                "im": np.zeros((4, 4)).tolist()}))
    assert main(["measure", "--state", str(path)]) == 2
    captured = capsys.readouterr()
    assert "'re'" in captured.err and "non-finite" in captured.err
    assert "nan" not in captured.out


def test_cli_measure_infinite_bell_exit_2(tmp_path, capsys):
    path = write_bell_file(tmp_path / "inf.json", [float("inf"), 0.0, 0.0])
    assert main(["measure", "--state", path]) == 2
    captured = capsys.readouterr()
    assert "'c'" in captured.err and "non-finite" in captured.err
    assert captured.out == ""
    # a bad --epsilon is a bad flag, not a bad state
    rho2 = write_bell_file(tmp_path / "rho2.json", [0.5, -0.06, 0.24])
    for command in ("measure", "protocol"):
        for eps in ("inf", "nan", "0", "-1"):
            assert main([command, "--state", rho2, "--epsilon", eps]) == 2
            captured = capsys.readouterr()
            assert "--epsilon" in captured.err
            assert captured.out == ""
    # coefficients too large for a float: a bad state named by its coefficients,
    # with no numpy warning on the way
    huge = write_bell_file(tmp_path / "huge.json", [1e308, 1e308, 0.0])
    for command in ("measure", "protocol"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--state", huge]) == 3
        captured = capsys.readouterr()
        assert "(1e+308, 1e+308, 0.0) overflow" in captured.err
        assert captured.out == ""


def test_cli_measure_bool_coefficient_exit_2(tmp_path, capsys):
    path = write_bell_file(tmp_path / "bool.json", [True, 0, 0])
    assert main(["measure", "--state", path]) == 2
    assert "'c'" in capsys.readouterr().err


def test_cli_measure_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "matrix", "re": [[1]], "im": [[0]]}')
    assert main(["measure", "--state", str(path)]) == 2
    assert "dim" in capsys.readouterr().err


def test_cli_measure_invalid_state_exit_3(tmp_path, capsys):
    bad = np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex)
    path = tmp_path / "nonpsd.json"
    write_state_file(path, bad)
    assert main(["measure", "--state", str(path)]) == 3
    err = capsys.readouterr().err
    assert "smallest eigenvalue" in err and "-0.1" in err


def test_cli_measure_writes_report(tmp_path, capsys):
    path = write_bell_file(tmp_path / "rho1.json", [0.2, -0.2, 0.2])
    out = tmp_path / "report.json"
    assert main(["measure", "--state", path, "--output", str(out), "--format", "json"]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["d_g"] == pytest.approx(0.04, abs=1e-12)
    assert doc["theta"] is None


def test_cli_evolve_detects_transition(tmp_path, capsys):
    path = write_bell_file(tmp_path / "rho2.json", [0.5, -0.06, 0.24])
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--state", path, "--output", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "t_star = 0.124360762436076 (index 107)" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "t,c1,c2,c3,d_g,q,q_n,negativity"
    assert len(lines) == 252


def test_cli_evolve_monotone_state_no_transition(tmp_path, capsys):
    path = write_bell_file(tmp_path / "rho1.json", [0.2, -0.2, 0.2])
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--state", path, "--output", str(out), "--points", "60"]) == 0
    assert "t_star = none" in capsys.readouterr().out


def test_cli_evolve_requires_output(tmp_path, capsys):
    path = write_bell_file(tmp_path / "rho1.json", [0.2, -0.2, 0.2])
    assert main(["evolve", "--state", path]) == 2
    assert "output" in capsys.readouterr().err


def test_cli_evolve_rejects_matrix_state(tmp_path, capsys):
    path = tmp_path / "m.json"
    write_state_file(path, np.eye(4, dtype=complex) / 4.0)
    assert main(["evolve", "--state", str(path), "--output", str(tmp_path / "t.csv")]) == 2
    assert "bell" in capsys.readouterr().err


def test_cli_evolve_rejects_unphysical_deviation_state(tmp_path, capsys):
    out = tmp_path / "t.csv"
    # eps * c = (1, 1, 0) has a negative Bell population; 1e308 overflows
    for c, message in (([1e5, 1e5, 0.0], "smallest eigenvalue"),
                       ([1e308, 1e308, 0.0], "overflow")):
        path = write_bell_file(tmp_path / "dev.json", c)
        assert main(["evolve", "--state", path, "--output", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_cli_evolve_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "traj.json"
    cfg.write_text(
        "state.c = 0.5 -0.06 0.24\n"
        "state.mode = deviation\n"
        "grid.n_points = 40\n"
        f"output = {out}\n"
        "format = json\n"
    )
    assert main(["evolve", "--config", str(cfg)]) == 0
    capsys.readouterr()
    rows = json.loads(out.read_text())
    assert len(rows) == 40
    assert rows[0]["c1"] == pytest.approx(0.5, abs=1e-12)
    for line, name in (("relaxation.j_coupling = 0", "j_coupling"),
                       ("relaxation.t2_b = inf", "t2_b")):
        bad = tmp_path / f"{name}.cfg"
        bad.write_text(cfg.read_text() + line + "\n")
        assert main(["evolve", "--config", str(bad)]) == 2
        assert name in capsys.readouterr().err


def test_cli_evolve_flags_beat_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "traj.json"
    cfg.write_text(f"state.c = 0.5 -0.06 0.24\ngrid.n_points = 51\noutput = {out}\n")
    assert main(["evolve", "--config", str(cfg), "--points", "21", "--format", "json"]) == 0
    capsys.readouterr()
    assert len(json.loads(out.read_text())) == 21
    # a flag's text is parsed like the config value it replaces
    out.unlink()
    assert main(["evolve", "--config", str(cfg), "--points", "2.5"]) == 2
    assert "'grid.n_points': expected an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, key, file_value, text", [
    (["--state", "b.json"], "state.file", "a.json", "b.json"),
    (["--t-max", "2.5"], "grid.t_max", "1.0", "2.5"),
    (["--dt", "0.02"], "grid.dt", "0.01", "0.02"),
    (["--points", "21"], "grid.n_points", "51", "21"),
    (["--epsilon", "2e-5"], "relaxation.epsilon", "1e-5", "2e-5"),
    (["--include-local-bloch"], "include_local_bloch", "no", "True"),
    (["--no-include-local-bloch"], "include_local_bloch", "yes", "False"),
    (["--output", "b.csv"], "output", "a.csv", "b.csv"),
    (["--format", "json"], "format", "csv", "json"),
])
def test_cli_evolve_every_flag_overrides_its_config_key(tmp_path, flag, key, file_value, text):
    state = {} if key == "state.file" else {"state.c": "0.5 -0.06 0.24"}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**state, key: file_value}.items()))

    def resolved(*argv):
        return cli._evolve_config(cli._parse(["evolve", "--config", str(cfg), *argv]))

    # the flag's text replaces the file's value of its key, and nothing else
    assert resolved(*flag) == build_config({**state, key: text})
    assert resolved() == build_config({**state, key: file_value}) != resolved(*flag)


def test_cli_evolve_short_grid_writes_no_file(tmp_path, capsys):
    path = write_bell_file(tmp_path / "rho2.json", [0.5, -0.06, 0.24])
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--state", path, "--output", str(out), "--points", "3"]) == 2
    assert "at least 5 points" in capsys.readouterr().err
    assert not out.exists()


def test_cli_evolve_refuses_a_short_grid_before_computing_it(tmp_path, capsys, monkeypatch):
    # the config is refused while it is read: no trajectory is built for it
    calls = []
    monkeypatch.setattr(cli, "make_trajectory", lambda *a, **k: calls.append(a))
    path = write_bell_file(tmp_path / "b.json", [0.5, -0.06, 0.24])
    for points in ("3", "1", "-2"):
        assert main(["evolve", "--state", path, "--output", str(tmp_path / "t.csv"),
                     "--points", points]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: grid.n_points must be at least 5 points for the "
                                f"transition search, got {points}\n")
        assert captured.out == ""
    assert calls == []


def test_cli_protocol_budget_and_agreement(tmp_path, capsys):
    path = write_bell_file(tmp_path / "b.json", [0.5, -0.3, 0.2], mode="full")
    out = tmp_path / "protocol.json"
    assert main(["protocol", "--state", path, "--output", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "budget: direct: 12, tomography: 15" in stdout
    doc = json.loads(out.read_text())
    assert doc["max_measure_difference"] <= 1e-10
    assert doc["readout_count"] == 12


def test_cli_protocol_shots_need_seed(tmp_path, capsys):
    path = write_bell_file(tmp_path / "b.json", [0.5, -0.3, 0.2], mode="full")
    assert main(["protocol", "--state", path, "--shots", "100"]) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--shots", "0", "--seed", "1"], "--shots must be an integer in 1..2**63 - 1, got 0"),
    (["--shots", "-5", "--seed", "1"], "--shots must be an integer in 1..2**63 - 1, got -5"),
    (["--shots", "5"], "--seed is mandatory whenever --shots is set"),
])
def test_cli_protocol_shot_errors_name_the_flags(tmp_path, capsys, argv, message):
    path = write_bell_file(tmp_path / "b.json", [0.5, -0.3, 0.2], mode="full")
    assert main(["protocol", "--state", path, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_cli_protocol_shot_mode_reproducible(tmp_path, capsys):
    path = write_bell_file(tmp_path / "b.json", [0.5, -0.3, 0.2], mode="full")
    out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
    for out in (out1, out2):
        assert main(
            ["protocol", "--state", path, "--shots", "10000", "--seed", "5",
             "--output", str(out)]
        ) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert "x_error" in doc and "c_error" in doc


def test_cli_parser_built_once():
    assert cli._parsers() is cli._parsers()


#: argvs of every command's valid forms, every argparse error and help
DISPATCH_ARGVS = [
    ["measure", "--state", "s.json"],
    ["measure", "--state=s.json", "--epsilon", "1e-4", "--no-include-local-bloch",
     "--output", "o.csv", "--format", "json"],
    ["measure", "--stat", "s.json", "--include-local-bloch", "--epsilon", "-2"],
    ["measure", "--state", "a.json", "--state", "b.json"],
    ["evolve"],
    ["evolve", "--config", "c.cfg", "--state", "b.json", "--t-max", "0.3", "--points", "40",
     "--epsilon", "2e-5", "--no-include-local-bloch", "--output", "o.json", "--format", "json"],
    ["evolve", "--dt", "0.004", "--include-local-bloch"],
    ["protocol", "--state", "s.json"],
    ["protocol", "--state", "s.json", "--shots", "100", "--seed", "3", "--epsilon", "1e-3",
     "--output", "p.json"],
    ["batch"],
    ["batch", "--n", "5", "--seed", "-1", "--dims", "2,3", "--output", "b.csv",
     "--format", "json"],
    # usage errors and help
    [], ["-h"], ["--help"], ["--he"], ["-h", "measure"], ["measure", "-h"], ["evolve", "--help"],
    ["protocol", "--h"], ["batch", "-h", "--n", "x"], ["frobnicate"], ["Measure"], ["--bogus"],
    ["--bogus", "measure", "--state", "s.json"], ["--", "measure", "--state", "s.json"],
    ["measure"], ["measure", "--state"], ["measure", "--state", "s.json", "--bogus"],
    ["measure", "--state", "s.json", "-x"], ["measure", "--state", "s.json", "extra"],
    ["measure", "--state", "s.json", "-5"], ["measure", "--state", "s.json", "--"],
    ["measure", "--", "--state", "s.json"], ["measure", "--state", "s.json", "--format", "xml"],
    ["measure", "--state", "s.json", "--epsilon", "abc"],
    ["measure", "--state", "s.json", "--include-local-bloch=yes"],
    ["evolve", "--points"], ["evolve", "--bogus", "1", "--also"],
    ["protocol", "--state", "s.json", "--shots", "abc"], ["protocol", "--seed", "1"],
    ["batch", "--n"], ["batch", "--n", "2", "extra", "more"],
]


def _parsed(parse, argv, capsys):
    """(the namespace's items in order, or the SystemExit code) and the captured
    stdout and stderr."""
    try:
        result = list(vars(parse(argv)).items())
    except SystemExit as exc:
        result = ("exit", exc.code)
    return result, capsys.readouterr()


@pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=" ".join)
def test_cli_dispatch_parses_as_the_top_level_parser(argv, capsys):
    # each call parses with its command's parser alone, with the same namespace, or
    # the same exit code and messages, as the top-level parser gives
    top, _ = cli._parsers()
    assert _parsed(cli._parse, argv, capsys) == _parsed(top.parse_args, argv, capsys)


def test_cli_dispatch_parses_the_command_alone(monkeypatch):
    # a complete command line never reaches the top-level parser
    top, _ = cli._parsers()
    monkeypatch.setattr(top, "parse_args", None)
    assert cli._parse(["measure", "--state", "s.json"]).command == "measure"


def test_cli_consecutive_calls_share_no_state(tmp_path, capsys):
    bell = write_bell_file(tmp_path / "b.json", [0.5, -0.3, 0.2], mode="full")
    a, b = tmp_path / "a.json", tmp_path / "b_out.json"
    assert main(["protocol", "--state", bell, "--shots", "10", "--seed", "1",
                 "--output", str(a)]) == 0
    assert main(["protocol", "--state", bell, "--output", str(b)]) == 0
    doc = json.loads(b.read_text())
    assert "x_error" not in doc and doc["shots"] is None
    # a state with local Bloch vectors, so the flag changes the report
    matrix = tmp_path / "m.json"
    write_state_file(matrix, random_density_matrix(4, seed=3))
    capsys.readouterr()
    assert main(["measure", "--state", str(matrix)]) == 0
    default = capsys.readouterr().out
    assert main(["measure", "--state", str(matrix), "--no-include-local-bloch"]) == 0
    assert capsys.readouterr().out != default
    assert main(["measure", "--state", str(matrix)]) == 0
    assert capsys.readouterr().out == default
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--state", str(matrix), "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["measure", "--state", str(matrix)]) == 0
    assert capsys.readouterr().out == default


def test_cli_unwritable_output_exit_2(tmp_path, capsys):
    bell = write_bell_file(tmp_path / "b.json", [0.5, -0.06, 0.24])
    target = tmp_path / "missing" / "out.csv"
    for argv in (["measure", "--state", bell], ["protocol", "--state", bell],
                 ["evolve", "--state", bell, "--points", "21"],
                 ["batch", "--n", "5", "--seed", "1"]):
        assert main(argv + ["--output", str(target)]) == 2, argv
        captured = capsys.readouterr()
        assert f"cannot write {target}" in captured.err
        assert captured.out == "", argv  # no report of a run that failed
    assert not target.parent.exists()


def test_cli_protocol_shots_beyond_int64_exit_2(tmp_path, capsys):
    bell = write_bell_file(tmp_path / "b.json", [0.5, -0.3, 0.2], mode="full")
    assert main(["protocol", "--state", bell, "--shots", str(2**63),
                 "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert "shots" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("shots", [[], ["--shots", "100", "--seed", "1"]])
def test_cli_protocol_overflowing_epsilon_exit_2(tmp_path, capsys, shots):
    # shot readouts (about 1e-2 off) divided by eps = 1e-200 overflow S; at
    # eps = 1e-110 S is finite but the squares of its entries overflow. Exact
    # readouts are taken in eps units: they overflow S only for coefficients
    # as large as 1e200, which eps = 1e-201 keeps a state
    c, epsilons = ([0.5, -0.06, 0.24], ("1e-110", "1e-200")) if shots \
        else ([1e200, -1e199, 5e199], ("1e-201",))
    bell = write_bell_file(tmp_path / "b.json", c)
    out = tmp_path / "protocol.json"
    for epsilon in epsilons:
        assert main(["protocol", "--state", bell, "--epsilon", epsilon,
                     "--output", str(out)] + shots) == 2
        captured = capsys.readouterr()
        assert "--epsilon" in captured.err
        assert captured.out == ""
        assert not out.exists()


def test_cli_protocol_stacked_reports_equal_single_calls(tmp_path, monkeypatch, capsys):
    stacked = []

    def recording(*args, **kwargs):
        reports = report_from_record(*args, **kwargs)
        stacked.append(reports)
        return reports

    monkeypatch.setattr(cli, "report_from_record", recording)
    bell = write_bell_file(tmp_path / "b.json", [0.5, -0.06, 0.24])  # deviation, q_n set
    matrix = tmp_path / "m.json"
    write_state_file(matrix, random_density_matrix(4, rank=2, seed=8))
    for path, shots in ((bell, None), (bell, 500), (str(matrix), None), (str(matrix), 500)):
        stacked.clear()
        argv = ["protocol", "--state", path]
        if shots is not None:
            argv += ["--shots", str(shots), "--seed", "2"]
        assert main(argv) == 0
        assert len(stacked) == 1  # one measure call per protocol run
        rho, deviation, eps = cli._load_state(path, None)
        # a deviation state's exact readouts and decomposition are its deviation's
        source = rho if deviation is None else deviation
        direct = run_direct_protocol(source)
        if shots:
            direct, _ = scaled_record(run_direct_protocol(rho, shots=shots, seed=2),
                                      epsilon=eps)
        tomo = bloch_decompose(source, 2)
        units = UNITS_FULL if deviation is None else UNITS_DEVIATION
        neg = negativity(rho)
        assert list(stacked[0]) == [report_from_record(direct, negativity=neg, units=units),
                                    report_from_record(tomo, negativity=neg, units=units)]
    capsys.readouterr()


def test_cli_protocol_diagonalizes_its_state_once(tmp_path, monkeypatch, capsys):
    # the direct and tomography reports share the state's one negativity
    items = []

    def spectral(rho):
        items.append(len(rho.reshape(-1, 4, 4)))
        return _spectral_negativity(rho)

    monkeypatch.setattr(qcorr.measures, "_spectral_negativity", spectral)
    matrix = tmp_path / "m.json"
    write_state_file(matrix, random_density_matrix(4, rank=1, seed=8))  # pure: outside the ball
    assert main(["protocol", "--state", str(matrix)]) == 0
    assert sum(items) == 1
    capsys.readouterr()


def test_cli_batch_ok(tmp_path, capsys):
    out = tmp_path / "batch.csv"
    assert main(["batch", "--n", "40", "--seed", "9", "--output", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "closed_vs_eig[d=2]" in stdout
    assert "violations=0" in stdout
    assert out.read_text().startswith("name,samples,violations,worst,tolerance")


def test_cli_batch_violation_exit_4(monkeypatch, capsys):
    from qcorr import batch as batch_mod
    from qcorr.batch import CampaignResult

    def fake_campaigns(n, seed, dims):
        return [CampaignResult("forced", n, 3, 1.0, 1e-9)]

    monkeypatch.setattr(batch_mod, "run_batch_campaigns", fake_campaigns)
    assert main(["batch", "--n", "5"]) == 4
    assert "violations detected" in capsys.readouterr().err


def test_cli_batch_rejects_bad_dims(capsys):
    assert main(["batch", "--dims", "1,2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("dims", ["2,abc", "2.5", "3,,x"])
def test_cli_batch_names_dims_when_a_part_is_no_integer(dims, capsys):
    assert main(["batch", "--n", "2", "--dims", dims]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --dims must list dimensions >= 2, got {dims!r}\n"
    assert captured.out == ""


@pytest.mark.parametrize("n", ["0", "-3"])
def test_cli_batch_names_n(n, capsys):
    assert main(["batch", "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --n must be at least 1, got {n}\n"
    assert captured.out == ""


def test_cli_negative_seed_names_the_flag(tmp_path, capsys):
    bell = write_bell_file(tmp_path / "b.json", [0.5, -0.3, 0.2], mode="full")
    for argv, seed in ((["batch", "--n", "3", "--seed", "-1"], -1),
                       (["protocol", "--state", bell, "--shots", "10", "--seed", "-4"], -4),
                       (["protocol", "--state", bell, "--seed", "-4"], -4)):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err == f"error: --seed must be a non-negative integer, got {seed}\n"
        assert captured.out == "", argv


@pytest.mark.parametrize("level", ["verbose", "", "10"])
def test_unknown_log_level_exits_2(tmp_path, monkeypatch, capsys, level):
    path = write_bell_file(tmp_path / "rho2.json", [0.5, -0.06, 0.24])
    monkeypatch.setenv("QCORR_LOG", level)
    for _ in range(2):  # every call, not only the one that configures logging
        assert main(["measure", "--state", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: QCORR_LOG must name a logging level")
        assert repr(level) in captured.err
    monkeypatch.setenv("QCORR_LOG", "debug")
    assert main(["measure", "--state", path]) == 0
    capsys.readouterr()


def test_log_env_var_does_not_change_output(tmp_path, monkeypatch, capsys):
    path = write_bell_file(tmp_path / "rho2.json", [0.5, -0.06, 0.24])
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["evolve", "--state", path, "--output", str(out1), "--points", "30"]) == 0
    monkeypatch.setenv("QCORR_LOG", "DEBUG")
    assert main(["evolve", "--state", path, "--output", str(out2), "--points", "30"]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def _shifted_state(seed, shift):
    """A valid two-qubit state document with ``shift`` added to every real part,
    so that some fuzzed documents pass every check."""
    rho = random_density_matrix(4, seed=seed)
    return {"kind": "matrix", "dim": 4, "re": (rho.real + shift).tolist(),
            "im": rho.imag.tolist()}


_NUMBERS = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, -1e-320, 0.25]),
    st.booleans(),
    st.text(max_size=3),
)
_MATRICES = st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(_NUMBERS, min_size=n, max_size=n), min_size=n, max_size=n)
)
_STATE_DOCS = st.one_of(
    st.fixed_dictionaries({
        "kind": st.just("bell"),
        "c": st.lists(_NUMBERS, min_size=2, max_size=4),
        "mode": st.sampled_from(["full", "deviation", "weird"]),
    }),
    st.fixed_dictionaries({
        "kind": st.just("matrix"),
        "dim": st.one_of(st.integers(-1, 6), _NUMBERS),
        "re": _MATRICES,
        "im": _MATRICES,
    }),
    st.builds(_shifted_state, st.integers(0, 2**16),
              st.sampled_from([0.0, 1e-13, 1e-3, float("nan")])),
    st.dictionaries(st.sampled_from(["kind", "c", "re", "dim"]), _NUMBERS, max_size=3),
    st.lists(_NUMBERS, max_size=3),
)
_EPSILONS = st.one_of(
    st.none(),
    st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e-5", "0.5", "1", "1e300", "x"]),
)


_HUGE_BELL = {"kind": "bell", "c": [1e308, 1e308, 0.0], "mode": "deviation"}


@given(st.sampled_from(["measure", "protocol"]), _STATE_DOCS, _EPSILONS)
@example(command="measure", doc=_HUGE_BELL, epsilon=None)
@example(command="protocol", doc=_HUGE_BELL, epsilon=None)
@settings(max_examples=150)
def test_cli_fuzz_state_documents(tmp_path_factory, command, doc, epsilon):
    path = tmp_path_factory.mktemp("fuzz") / "state.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity literals included
    argv = [command, "--state", str(path)]
    if epsilon is not None:
        argv += ["--epsilon", epsilon]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a numpy warning fails the test
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a non-numeric --epsilon
            code = exc.code
    assert code in (0, 2, 3), err.getvalue()
    if code == 0:
        printed = out.getvalue().lower()
        assert "nan" not in printed and "inf" not in printed, printed


_EVOLVE_VALUES = st.sampled_from(
    ["nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "0", "-1", "1", "5", "7", "2.5",
     "0.01", "1e-3", "0.5 -0.06 0.24", "0.5,0.1", "1e308 1e308 0", "nan 0 0", "x", "",
     "true", "deviation", "full", "json", "csv"]
)
_EVOLVE_LINES = st.one_of(
    st.builds("{} = {}".format,
              st.sampled_from(["state.c", "state.mode", "relaxation.t1_a", "relaxation.t2_b",
                               "relaxation.epsilon", "relaxation.j_coupling", "grid.t_max",
                               "grid.dt", "grid.n_points", "include_local_bloch", "format"]),
              _EVOLVE_VALUES),
    st.sampled_from(["no equals sign", "bogus = 1", "= 3", "# comment", "state.c ="]),
)
_EVOLVE_FLAG_VALUES = st.sampled_from(
    ["nan", "inf", "-inf", "1e308", "1e-320", "0", "-1", "3", "5", "9", "2.5", "1e-3", "x"]
)


@given(st.lists(_EVOLVE_LINES, max_size=6),
       st.lists(st.tuples(st.sampled_from(["--dt", "--t-max", "--points", "--epsilon"]),
                          _EVOLVE_FLAG_VALUES), max_size=3),
       st.booleans())
@example(lines=["state.c = 1e308 1e308 0"], flags=[], inline_state=True)
@example(lines=[], flags=[("--dt", "1e308")], inline_state=False)
@example(lines=["relaxation.t1_a = 1e-320"], flags=[], inline_state=True)
@settings(max_examples=100, deadline=None)
def test_cli_fuzz_evolve(tmp_path_factory, lines, flags, inline_state):
    tmp = tmp_path_factory.mktemp("evolve")
    cfg = tmp / "run.cfg"
    cfg.write_text("\n".join((["state.c = 0.5 -0.06 0.24"] if inline_state else []) + lines))
    out = tmp / "traj.csv"
    argv = ["evolve", "--config", str(cfg), "--output", str(out)]
    if not inline_state:
        argv += ["--state", write_bell_file(tmp / "rho2.json", [0.5, -0.06, 0.24])]
    for flag, value in flags:
        argv += [f"{flag}={value}"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a numpy warning fails the test
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a non-numeric flag value
            code = exc.code
    assert code in (0, 2, 3), stderr.getvalue()
    if code == 0:
        printed = (stdout.getvalue() + out.read_text()).lower()
        assert "nan" not in printed and "inf" not in printed, printed
    else:
        assert not out.exists()


@pytest.mark.parametrize("command", ["measure", "protocol"])
@pytest.mark.parametrize("epsilon", ["1e-3", "1e-10", "1e-12", "1e-14", "1e-200"])
def test_cli_deviation_outputs_do_not_depend_on_epsilon(tmp_path, capsys, command, epsilon):
    # the measures are read off the deviation in eps units, so stdout and the output file
    # are those at the default eps = 1e-5, and d_g is the Bell-diagonal value
    # 2 (sum c_i^2 - max c_i^2) / 4 to round-off, however far eps rounds I/4 + eps * dev
    for i, c in enumerate(([0.5, -0.06, 0.24], [0.8, -0.7, 0.45])):
        bell = write_bell_file(tmp_path / f"b{i}.json", c)
        runs = []
        for eps in ("1e-5", epsilon):
            out = tmp_path / f"{i}_{eps}.out"
            assert main([command, "--state", bell, "--epsilon", eps, "--output", str(out)]) == 0
            runs.append((capsys.readouterr().out, out.read_bytes()))
        assert runs[1] == runs[0]
        squares = np.square(c)
        want = 2.0 * (squares.sum() - squares.max()) / 4.0
        printed = [float(v) for v in re.findall(r"^d_g = (\S+)$", runs[1][0], re.MULTILINE)]
        assert len(printed) == (1 if command == "measure" else 2)
        assert all(abs(d_g - want) <= 1e-15 * want for d_g in printed), printed


def test_cli_refuses_coefficients_that_overflow_s(tmp_path, capsys):
    # at eps = 1e-201 coefficients of 1e200 make a state, but S squares them past the
    # float range: measure and protocol stop at one check, before any output
    bell = write_bell_file(tmp_path / "b.json", [1e200, -1e199, 5e199])
    out = tmp_path / "out.json"
    errors = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a numpy warning fails the test
        for command in ("measure", "protocol"):
            assert main([command, "--state", bell, "--epsilon", "1e-201",
                         "--output", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            errors.append(captured.err)
    assert errors[0] == errors[1] and "too large" in errors[0]


@pytest.mark.parametrize("command", ["measure", "protocol", "evolve"])
def test_cli_epsilon_follows_the_polarization_rule(tmp_path, capsys, command):
    # every command takes RelaxationParams' rule, 0 < eps <= 1; measure and protocol
    # name the flag, evolve the config key the flag sets
    bell = write_bell_file(tmp_path / "b.json", [0.1, -0.1, 0.1])
    out = tmp_path / "out.csv"
    assert main([command, "--state", bell, "--epsilon", "2", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    name = "relaxation parameters: epsilon" if command == "evolve" else "--epsilon"
    assert f"{name} must lie in (0, 1], got 2.0" in captured.err


@pytest.mark.parametrize("command", ["measure", "protocol"])
def test_cli_keeps_an_epsilon_the_state_resolves(tmp_path, capsys, command):
    bell = write_bell_file(tmp_path / "b.json", [0.5, -0.06, 0.24])
    for epsilon in ("1e-4", "1e-5", "1e-9"):
        assert main([command, "--state", bell, "--epsilon", epsilon]) == 0
        assert "d_g = 0.0306" in capsys.readouterr().out
    zero = write_bell_file(tmp_path / "z.json", [0.0, 0.0, 0.0])  # I/4 holds exact zeros
    assert main([command, "--state", zero, "--epsilon", "1e-12"]) == 0
    capsys.readouterr()


def test_evolve_points_cap_follows_the_memory_estimate():
    # build_config only: no grid is allocated, here or in a build without the cap
    cap, per_point = qio.MAX_POINTS, qio.EVOLVE_BYTES_PER_POINT
    assert cap * per_point <= qio.EVOLVE_MEMORY_BUDGET < (cap + 1) * per_point
    raw = {"state.c": "0.5 -0.06 0.24"}
    assert build_config({**raw, "grid.n_points": str(cap)}).n_points == cap
    with pytest.raises(ConfigError, match=f"grid.n_points {cap + 1} is above the cap"):
        build_config({**raw, "grid.n_points": str(cap + 1)})


@pytest.mark.parametrize("points", ["11", "1e12", "1e300"])
def test_cli_evolve_refuses_points_above_the_cap(tmp_path, capsys, monkeypatch, points):
    # a cap of 10 points: the refusal is seen without a large grid, and a build
    # without the cap fails at the setattr instead of allocating
    monkeypatch.setattr(qio, "MAX_POINTS", 10)
    out = tmp_path / "traj.csv"
    argv = ["evolve", "--state", write_bell_file(tmp_path / "b.json", [0.5, -0.06, 0.24]),
            "--points", points, "--output", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "grid.n_points" in captured.err and "above the cap of 10 points" in captured.err
    assert captured.out == "" and not out.exists()
    assert main(argv[:3] + ["--points", "10", "--output", str(out)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_evolve_memory_per_point_within_the_estimate(fmt):
    # traced peak of one small evolve run (about 3 MB), against the per-point estimate
    n = 2000
    state = BellDiagonalState(0.5, -0.06, 0.24, mode="deviation")
    tracemalloc.start()
    try:
        traj = make_trajectory(state, n_points=n, include_local_bloch=True)
        detect_transition(traj)
        serialize_trajectory(traj, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * qio.EVOLVE_BYTES_PER_POINT
