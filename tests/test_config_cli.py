"""Configuration loading and the command-line surface."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from su11otto import (
    InterferometerAngles,
    carnot,
    chi_from,
    sensitivity,
    stage_energies,
    works_and_heats,
)
from su11otto import cli
from su11otto.cli import build_parser, main
from su11otto.config import DEFAULTS, OracleConfig, load_config
from su11otto.errors import ConfigError
from su11otto.gate import GateRecord, GateResult
from su11otto.reports import fmt, write_csv


class TestConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg.engine.omega1 == 0.1
        assert cfg.engine.t_cold == 0.01
        assert cfg.derivative_mode == "chain"
        assert cfg.zeta_panels == (2.0, 3.0, 3.4, 4.0)

    def test_partial_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sweep": {"phi_points": 500}}))
        cfg = load_config(path)
        assert cfg.phi_points == 500
        assert cfg.engine.omega2 == 1.0  # untouched defaults survive

    def test_unknown_key_fatal(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sweep": {"phi_pionts": 500}}))
        with pytest.raises(ConfigError, match="phi_pionts"):
            load_config(path)

    def test_unknown_section_fatal(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"swep": {}}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_physics_fatal(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"engine": {"omega1": 2.0}}))  # above omega2
        with pytest.raises(ConfigError, match="engine"):
            load_config(path)

    def test_bad_json_fatal(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_defaults_dict_is_complete(self):
        assert set(DEFAULTS) == {"engine", "sweep", "metrology", "oracle", "circuit"}

    @pytest.mark.parametrize(
        "override",
        [
            # the five inputs the loader used to accept
            {"circuit": {"rapidity_absolute": "false"}},  # bool("false") is True
            {"sweep": {"phi_points": 2000.9}},  # int() truncated it to 2000
            {"oracle": {"leak_tol": -1}},  # unknown: the truncation budgets are fock constants
            {"oracle": {"beta_omega": []}},
            {"sweep": {"zeta_panels": "2"}},  # iterated into (2.0,)
            {"sweep": {"zeta_panels": []}},  # a 0-row cycle sweep, a header-only summary
            # the remaining type and oracle rules
            {"engine": {"omega1": True}},
            {"sweep": {"zeta_panels": [2.0, "3"]}},
            {"metrology": {"derivative_mode": 1}},
            {"oracle": {"n_max": 0}},
            {"oracle": {"algebra_n_max": 1}},
            # the dense ladder record would need a 4225x4225 matrix
            {"oracle": {"algebra_n_max": 64}},
            {"oracle": {"convergence_n": 0}},  # unknown too
            {"oracle": {"thermal_leak_tol": 0.0}},
            {"oracle": {"zeta_grid": [0.4, -0.1]}},
            {"oracle": {"phi_grid": []}},
            # non-finite leaves: an infinite budget would switch the truncation guard
            # off (an unknown key as well); an infinite temperature divides by zero
            # in the bath factor
            {"oracle": {"leak_tol": math.inf}},
            {"engine": {"t_hot": math.inf}},
            {"engine": {"t_hot": 10**400}},  # past the float range: float() overflows
            {"sweep": {"zeta_panels": [2.0, math.nan]}},
            {"metrology": {"zeta_bracket": [-math.inf, 8.0]}},
            # an empty stop-time sweep
            {"circuit": {"t_f_points": 0}},
            {"circuit": {"t_f_points": -5}},
            # the range rules of the sweep, metrology and circuit blocks
            {"sweep": {"phi_points": 7}},
            {"metrology": {"zeta_bracket": [8.0, 0.5]}},
            {"metrology": {"zeta_bracket": [0.5, 4.0, 8.0]}},
            # a negative squeezing strength: snl would report a negative zeta_SNL,
            # figure3 a figure3_zeta-2.csv panel
            {"metrology": {"zeta_bracket": [-8.0, -0.5]}},
            {"sweep": {"zeta_panels": [-2.0]}},
            {"circuit": {"inductance_h": 0.0}},
            {"circuit": {"n_cell": 1}},
            {"circuit": {"t_hot_kelvin": 0.01}},
            # a section that is not a table
            {"engine": 3},
            # values whose %g labels coincide: figure3 would write figure3_zeta3.csv
            # twice, and the oracle would print each [bw=1,...] record twice
            {"sweep": {"zeta_panels": [3.0000001, 3.0000002]}},
            {"oracle": {"beta_omega": [1.0, 1.0000001]}},
        ],
    )
    def test_wrong_type_or_invalid_value_fatal(self, tmp_path, override):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(override))
        (section, block), = override.items()
        where = f"{section}.{next(iter(block))}" if isinstance(block, dict) else section
        with pytest.raises(ConfigError, match=where):
            load_config(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read config file"),
            ("[1, 2]", "must contain a JSON object"),
            # json.loads refuses this many digits with a plain ValueError where
            # Python limits int conversion; elsewhere the float widening refuses it
            ('{"engine": {"t_hot": %s}}' % ("9" * 5000), "not valid JSON|engine.t_hot"),
        ],
    )
    def test_unusable_file_fatal(self, tmp_path, text, message):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    def test_truncation_budget_is_not_a_setting(self, tmp_path):
        # a budget of 1e300 would switch the guard off and turn the 5 default
        # skips into formula fails
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"oracle": {"leak_tol": 1e300}}))
        with pytest.raises(ConfigError, match=r"^unknown config key: oracle\.leak_tol$"):
            load_config(path)

    def test_settable_surface_is_pinned(self):
        # adding a config key or a global option is a deliberate edit of this list
        def paths(table, prefix=""):
            for key, value in table.items():
                if isinstance(value, dict):
                    yield from paths(value, f"{prefix}{key}.")
                else:
                    yield prefix + key

        assert sorted(paths(DEFAULTS)) == [
            "circuit.amp_a", "circuit.amp_b", "circuit.capacitance_f",
            "circuit.inductance_h", "circuit.josephson_scale_j_per_f", "circuit.mode_index",
            "circuit.n_cell", "circuit.rapidity", "circuit.rapidity_absolute",
            "circuit.t_cold_kelvin", "circuit.t_f_points", "circuit.t_hot_kelvin",
            "engine.omega1", "engine.omega2", "engine.t_cold", "engine.t_hot",
            "metrology.derivative_mode", "metrology.zeta_bracket",
            "oracle.algebra_n_max", "oracle.beta_omega", "oracle.n_max", "oracle.phi_grid",
            "oracle.zeta_grid",
            "sweep.phi_points", "sweep.zeta_panels",
        ]
        options = {
            opt for action in build_parser()._actions for opt in action.option_strings
        }
        assert options - {"-h", "--help"} == {"--config", "--out"}

    def test_integer_stands_for_number(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"engine": {"t_hot": 2}, "sweep": {"zeta_panels": [2, 3]}}))
        cfg = load_config(path)
        assert type(cfg.engine.t_hot) is float and cfg.engine.t_hot == 2.0
        assert all(type(z) is float for z in cfg.zeta_panels)

    def test_oracle_block_is_typed_and_frozen(self):
        oracle = load_config().oracle
        assert isinstance(oracle, OracleConfig)
        assert oracle.beta_omega == (0.25, 0.5, 1.0) and oracle.n_max == 120
        with pytest.raises(AttributeError):
            oracle.n_max = 10


class TestConvertCommand:
    def test_module_entry_point_runs_the_command(self):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        run = subprocess.run(
            [sys.executable, "-m", "su11otto.cli", "convert", "--zeta", "1", "--phi", "1"],
            capture_output=True, text=True, env=env,
        )
        assert run.returncode == 0
        assert "chi=" in run.stdout

    def test_forward(self, capsys):
        assert main(["convert", "--zeta", "2", "--phi", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "chi=0.36057837857760944" in out
        assert "round-trip residual" in out

    def test_inverse(self, capsys):
        assert main(["convert", "--chi", "1.0", "--theta", str(math.pi / 2)]) == 0
        out = capsys.readouterr().out
        assert "zeta=0.5" in out

    def test_identity_notice(self, capsys):
        assert main(["convert", "--zeta", "0", "--phi", "1.0"]) == 0
        assert "identity" in capsys.readouterr().out

    def test_incompatible_endpoints_exit_code(self, capsys):
        assert main(["convert", "--chi", "1.0", "--theta", "0.05"]) == 1
        assert "incompatible" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, name",
        [(["--chi", "1", "--theta", "nan"], "theta"), (["--zeta", "1", "--phi", "nan"], "phi")],
    )
    def test_non_finite_input_names_the_field(self, capsys, argv, name):
        assert main(["convert", *argv]) == 1
        assert f"error: {name} must be finite, got nan" in capsys.readouterr().err

    def test_usage_error(self):
        with pytest.raises(SystemExit):
            main(["convert", "--zeta", "2"])


class TestCsvCommands:
    def test_cycle_schema(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"zeta_panels": [2.0], "phi_points": 50}}))
        assert main(["--config", str(cfg), "--out", str(tmp_path), "cycle"]) == 0
        lines = (tmp_path / "cycle_sweep.csv").read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "phi,zeta,chi,w_ab,q_bc,w_cd,q_da,w_net,eta,eta_norm,w_fric"
        assert len([l for l in lines if not l.startswith("#")]) == 50  # header + 49 rows

    def test_figure4_identity_column(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "figure4"]) == 0
        rows = [
            l.split(",")
            for l in (tmp_path / "figure4_coupling.csv").read_text().splitlines()
            if not l.startswith("#")
        ][1:]
        assert all(float(r[3]) < 1e-10 for r in rows)

    def test_float_round_trip_is_bit_exact(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"zeta_panels": [3.4], "phi_points": 64}}))
        assert main(["--config", str(cfg), "--out", str(tmp_path), "figure3"]) == 0
        rows = [
            l.split(",")
            for l in (tmp_path / "figure3_zeta3.4.csv").read_text().splitlines()
            if not l.startswith("#")
        ][1:]
        from su11otto import sensitivity
        from su11otto.config import load_config as lc

        engine = lc(cfg).engine
        phi = float(rows[10][0])
        pt = sensitivity(engine, 3.4, phi, "chain")
        assert float(rows[10][1]) == pt.delta_phi_n  # exact, 17 significant digits
        nan, inf = math.nan, math.inf
        assert [fmt(v) for v in (nan, -nan, inf, -inf)] == ["nan", "nan", "inf", "-inf"]

    def test_snl_outside_engine_regime_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"engine": {"omega1": 0.5, "omega2": 1.0, "t_hot": 50.0, "t_cold": 30.0}}
        ))
        assert main(["--config", str(cfg), "--out", str(tmp_path), "snl"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_oracle_undersized_basis_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"oracle": {"n_max": 10}}))
        assert main(["--config", str(cfg), "--out", str(tmp_path), "oracle"]) == 1
        assert "increase n_max" in capsys.readouterr().err

    def test_oracle_summary_counts_the_printed_records(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"oracle": {
            "n_max": 60, "algebra_n_max": 6, "beta_omega": [1.0, 2.0],
            "zeta_grid": [0.2, 2.5], "phi_grid": [0.5, 2.0],
        }}))
        assert main(["--config", str(cfg), "--out", str(tmp_path), "oracle"]) == 2
        *records, summary = capsys.readouterr().out.splitlines()
        printed = Counter(line.split()[0] for line in records)
        counts = re.fullmatch(
            r"wrote .*: (\d+) pass, (\d+) fail, (\d+) discrepancy, (\d+) skipped", summary
        ).groups()
        markers = ("PASS", "FAIL", "DISCREPANCY", "SKIP")
        assert [int(n) for n in counts] == [printed[m] for m in markers]
        assert set(printed) <= set(markers) and printed["SKIP"] > 0

    def test_oracle_overflowing_chi_exits_one(self, tmp_path, capsys):
        # zeta = 400 overflows sinh(zeta)^2, so chi is inf: the oracle stops on
        # the typed endpoint error before any grid read, and prints no record
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"oracle": {
            "n_max": 60, "algebra_n_max": 6, "beta_omega": [1.0],
            "zeta_grid": [0.2, 400.0], "phi_grid": [0.5],
        }}))
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = main(["--config", str(cfg), "--out", str(tmp_path), "oracle"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert "error: chi must be finite and >= 0, got inf" in err

    def test_oracle_variance_arbitration_basis_is_named(self, tmp_path, capsys):
        # every configured bath fits n_max = 40; the variance arbitration's
        # beta_h omega2 = 0.5 does not, and the error says which keys set it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"oracle": {
            "n_max": 40, "beta_omega": [1.0], "zeta_grid": [0.4], "phi_grid": [0.5],
        }}))
        assert main(["--config", str(cfg), "--out", str(tmp_path), "oracle"]) == 1
        err = capsys.readouterr().err
        assert "error: the variance arbitration's hot state" in err
        assert all(key in err for key in ("engine.t_hot", "engine.omega2", "oracle.n_max"))
        assert "beta*omega = 0.5" in err

    def test_static_circuit_reports_clean_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"circuit": {"amp_b": 0.0}}))
        assert main(["--config", str(cfg), "--out", str(tmp_path), "circuit"]) == 1
        assert "static line" in capsys.readouterr().err

    def test_unwritable_output_directory_reports_clean_error(self, tmp_path, capsys):
        # the output directory would sit inside a regular file
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"zeta_panels": [2.0], "phi_points": 16}}))
        assert main(["--config", str(cfg), "--out", str(blocker / "x"), "cycle"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        tmp = tmp_path / "x.csv.tmp"

        class Unprintable(str):
            # a str cell, so its column passes the type check; printing it
            # fails on the second row, once the temp file is open
            def __str__(self):
                raise RuntimeError(f"unprintable cell (temp file open: {tmp.exists()})")

        with pytest.raises(RuntimeError, match=r"unprintable cell \(temp file open: True\)"):
            write_csv(tmp_path / "x.csv", ("a", "b"), [1.0, 2.0], ["ok", Unprintable()])
        assert list(tmp_path.iterdir()) == []

    def test_derivative_mode_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "sweep": {"zeta_panels": [2.0], "phi_points": 32},
            "metrology": {"derivative_mode": "paper"},
        }))
        assert main(["--config", str(cfg), "--out", str(tmp_path), "figure3"]) == 0
        text = (tmp_path / "figure3_zeta2.csv").read_text()
        assert ",paper" in text and ",chain" not in text


_TEXT = st.text(st.characters(codec="utf-8", exclude_characters="\x00"))
_CELLS = {
    float: st.floats(allow_subnormal=True) | st.sampled_from(
        [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300,
         math.nan, math.inf, -math.inf]),
    bool: st.booleans(),
    int: st.integers(),
    str: _TEXT,  # no NUL, which numpy str arrays drop from the end of a cell
}


# a typed ndarray column takes its conversion from its dtype kind: (cells, dtype)
_TYPED = [
    (_CELLS[float], np.float64),
    (st.floats(width=32, allow_subnormal=True), np.float32),
    (st.integers(-2**63, 2**63 - 1), np.int64),
    (st.integers(0, 2**64 - 1), np.uint64),
    (_CELLS[bool], np.bool_),
    (_TEXT, np.str_),
]


@st.composite
def _csv_tables(draw):
    """(names, each column's Python cells, the columns as handed to `write_csv`, comments)."""
    n_rows = draw(st.integers(0, 12))
    cells, passed = [], []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            strategy, dtype = draw(st.sampled_from(_TYPED))
            column = np.array(draw(st.lists(strategy, min_size=n_rows, max_size=n_rows)), dtype=dtype)
        else:
            # a list, a tuple, an object array, or an ndarray of inferred dtype
            # (ints past int64 give dtype object; no rows gives float64)
            kind = draw(st.sampled_from(list(_CELLS)))
            column = draw(st.sampled_from([list, tuple, np.array, lambda c: np.array(c, dtype=object)]))(
                draw(st.lists(_CELLS[kind], min_size=n_rows, max_size=n_rows)))
        cells.append(column.tolist() if isinstance(column, np.ndarray) else list(column))
        passed.append(column)
    names = [f"c{i}" for i in range(len(passed))]
    return names, cells, passed, draw(st.lists(_TEXT, max_size=3))


class TestWriteCsv:
    """`write_csv` against the cell-by-cell `fmt` reference."""

    @given(_csv_tables())
    def test_bytes_equal_the_per_cell_reference(self, tmp_path_factory, drawn):
        names, columns, passed, comments = drawn
        path = tmp_path_factory.getbasetemp() / "property.csv"
        write_csv(path, names, *passed, header_comments=comments)
        expected = "".join(
            [f"# {line}\n" for line in comments] + [",".join(names) + "\n"]
            + [",".join(fmt(v) for v in row) + "\n" for row in zip(*columns)]
        )
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("cells, held", [
        ([1.0, "x"], "<class 'float'> and <class 'str'>"),
        ([1, 2.5], "<class 'float'> and <class 'int'>"),
        ([True, 1], "<class 'bool'> and <class 'int'>"),
        (["", 0.0], "<class 'float'> and <class 'str'>"),
        ([1j, 2j], "<class 'complex'>"),
        (np.array([1j]), "<class 'complex'>"),
        ([np.True_], "<class 'numpy.bool"),  # numpy.bool_ before numpy 2
    ])
    def test_mixed_or_unprintable_column_is_refused_by_name(self, tmp_path, cells, held):
        # refused before the temp file opens, not printed cell by cell
        with pytest.raises(TypeError, match=re.escape(f"column 'b' holds {held}")):
            write_csv(tmp_path / "x.csv", ("a", "b"), np.zeros(len(cells)), cells)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.uint64, np.bool_,
                                       np.str_, object])
    def test_zero_row_columns_write_the_header_alone(self, tmp_path, dtype):
        path = write_csv(tmp_path / "x.csv", ("a", "b"), np.array([], dtype=dtype), [],
                         header_comments=["c"])
        assert path.read_bytes() == b"# c\na,b\n"

    @pytest.mark.parametrize("names, columns, message", [
        (("a", "b"), ([1.0, 2.0], [1.0]), r"names \('a', 'b'\) for columns of lengths \[2, 1\]"),
        (("a", "b"), (np.zeros(2), ()), r"names \('a', 'b'\) for columns of lengths \[2, 0\]"),
        (("a", "b", "c"), (np.zeros(3), ["x"] * 3, np.zeros(4, bool)), r"lengths \[3, 3, 4\]"),
        (("a",), ([1.0], [2.0]), r"names \('a',\) for columns of lengths \[1, 1\]"),
        (("a", "b"), ([1.0],), r"names \('a', 'b'\) for columns of lengths \[1\]"),
        ((), ([1.0],), r"names \(\) for columns of lengths \[1\]"),
    ])
    def test_ragged_or_misnamed_columns_are_refused(self, tmp_path, names, columns, message):
        # refused before the output directory is made, so before the temp file opens
        with pytest.raises(ValueError, match=message):
            write_csv(tmp_path / "sub" / "x.csv", names, *columns)
        assert list(tmp_path.iterdir()) == []


_RECORDS = st.lists(st.builds(
    GateRecord,
    quantity=st.text("abcxyz_0123456789[]=,.->", min_size=1, max_size=40),
    analytic=_CELLS[float],
    oracle=_CELLS[float],
    tolerance=st.floats(0.0, 1.0),
    n_max=st.integers(0, 400),
    leakage=st.floats(0.0, 1.0) | st.sampled_from([5e-324, 1.5e-8]),
    status=st.sampled_from(["pass", "fail", "discrepancy", "skipped"]),
), max_size=8)


@given(records=_RECORDS)
def test_oracle_report_cells_are_each_records_own_formatting(tmp_path_factory, records):
    # `cmd_oracle` formats each record's analytic and oracle once for stdout
    # and the report: every line and cell must be the per-record `fmt` and
    # `.3e` formatting it replaces, whatever the values
    out = tmp_path_factory.getbasetemp() / "oracle-property"
    markers = {"pass": "PASS", "fail": "FAIL", "discrepancy": "DISCREPANCY", "skipped": "SKIP"}
    stdout = io.StringIO()
    with mock.patch.object(cli, "run_gate", lambda *a, **k: GateResult(records)):
        with contextlib.redirect_stdout(stdout):
            cli.cmd_oracle(argparse.Namespace(out=str(out)), load_config())
    *lines, summary = stdout.getvalue().splitlines()
    assert lines == [
        f"{markers[r.status]:11s} {r.quantity}  analytic={fmt(r.analytic)} "
        f"oracle={fmt(r.oracle)} abs_err={r.abs_err:.3e}"
        for r in records
    ]
    assert summary.startswith("wrote ")
    rows = [l for l in (out / "oracle_report.csv").read_text().splitlines() if not l.startswith("#")]
    assert rows == ["quantity,analytic,oracle,abs_err,rel_err,n_max,leakage"] + [
        ",".join(map(fmt, (r.quantity, r.analytic, r.oracle, r.abs_err, r.rel_err, r.n_max, r.leakage)))
        for r in records
    ]


def _csv_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    cols = lines[0].split(",")
    return [dict(zip(cols, (float(v) if v not in ("chain", "paper") else v
                            for v in l.split(",")))) for l in lines[1:]]


def _agrees(got, want, scale=0.0):
    """Relative 1e-12, plus 1e-12 * scale for cells formed by cancellation."""
    if not np.isfinite(want):
        return got == want or (np.isnan(got) and np.isnan(want))
    return abs(got - want) <= 1e-12 * (abs(want) + scale)


def _scalar_cycle(engine, zeta, phi):
    """Per-point reference: the report at chi(zeta, phi) and its cancellation scale max|h|."""
    chi = chi_from(InterferometerAngles(zeta=zeta, phi=phi))
    rep = works_and_heats(engine, chi)
    energies = stage_energies(engine, chi)
    for value in (*vars(rep).values(), *vars(energies).values()):
        # reports.fmt prints a 0-d array through str(), which would change CSV bytes
        assert not isinstance(value, np.ndarray)
        assert fmt(value) == fmt(value.item() if hasattr(value, "item") else value)
    return chi, rep, max(abs(h) for h in vars(energies).values())


class TestArraySweepsMatchScalarPath:
    """The vectorized cycle/figure3 panels against the per-point scalar path."""

    CONFIG = {"sweep": {"zeta_panels": [2.0, 3.4], "phi_points": 64}}

    def test_every_row(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        for command in ("cycle", "figure3"):
            assert main(["--config", str(cfg), "--out", str(tmp_path), command]) == 0
        engine = load_config(cfg).engine
        eta_c = carnot(engine)

        def eta_cells(rep, h):
            h_eta = h / abs(rep.q_bc)  # eta = w_net / q_bc inherits w_net's absolute error
            return {"eta": (rep.eta, h_eta), "eta_norm": (rep.eta / eta_c, h_eta / eta_c)}

        rows = _csv_rows(tmp_path / "cycle_sweep.csv")
        assert len(rows) == 2 * 63
        for row in rows:
            chi, rep, h = _scalar_cycle(engine, row["zeta"], row["phi"])
            expected = {
                "chi": (chi, 0.0), "w_ab": (rep.w_ab, h), "q_bc": (rep.q_bc, h),
                "w_cd": (rep.w_cd, h), "q_da": (rep.q_da, h), "w_net": (rep.w_net, h),
                "w_fric": (rep.w_fric, 0.0), **eta_cells(rep, h),
            }
            for col, (want, scale) in expected.items():
                assert _agrees(row[col], want, scale), (col, row[col], want)

        for zeta, name in ((2.0, "figure3_zeta2.csv"), (3.4, "figure3_zeta3.4.csv")):
            rows = _csv_rows(tmp_path / name)
            assert len(rows) == 63
            for row in rows:
                pt = sensitivity(engine, zeta, row["phi"], "chain")
                assert all(type(v) in (float, bool) for v in vars(pt).values())
                _, rep, h = _scalar_cycle(engine, zeta, row["phi"])
                expected = {
                    "delta_phi_n": (pt.delta_phi_n, 0.0), "delta_phi_h": (pt.delta_phi_h, 0.0),
                    "snl": (pt.snl, 0.0), "norm_n": (pt.norm_n, 0.0), "norm_h": (pt.norm_h, 0.0),
                    **eta_cells(rep, h),
                }
                for col, (want, scale) in expected.items():
                    assert _agrees(row[col], want, scale), (col, row[col], want)
