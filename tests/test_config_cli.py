"""Configuration loading and the command-line surface."""

import json
import math

import numpy as np
import pytest

from su11otto import (
    InterferometerAngles,
    carnot,
    chi_from,
    sensitivity,
    stage_energies,
    works_and_heats,
)
from su11otto.cli import main
from su11otto.config import DEFAULTS, OracleConfig, load_config
from su11otto.errors import ConfigError
from su11otto.reports import fmt


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
            {"oracle": {"leak_tol": -1}},  # every point would be skipped
            {"oracle": {"beta_omega": []}},
            {"sweep": {"zeta_panels": "2"}},  # iterated into (2.0,)
            {"sweep": {"zeta_panels": []}},  # a 0-row cycle sweep, a header-only summary
            # the remaining type and oracle rules
            {"engine": {"omega1": True}},
            {"sweep": {"zeta_panels": [2.0, "3"]}},
            {"metrology": {"derivative_mode": 1}},
            {"oracle": {"n_max": 0}},
            {"oracle": {"algebra_n_max": 1}},
            # the dense algebra records would need a 4225x4225 matrix
            {"oracle": {"algebra_n_max": 64}},
            {"oracle": {"convergence_n": 0}},
            {"oracle": {"thermal_leak_tol": 0.0}},
            {"oracle": {"zeta_grid": [0.4, -0.1]}},
            {"oracle": {"phi_grid": []}},
            # non-finite leaves: an infinite budget switched the truncation guard
            # off; an infinite temperature divided by zero in the bath factor
            {"oracle": {"leak_tol": math.inf}},
            {"engine": {"t_hot": math.inf}},
            {"sweep": {"zeta_panels": [2.0, math.nan]}},
            {"metrology": {"zeta_bracket": [-math.inf, 8.0]}},
            # an empty stop-time sweep
            {"circuit": {"t_f_points": 0}},
            {"circuit": {"t_f_points": -5}},
            # the range rules of the sweep, metrology and circuit blocks
            {"sweep": {"phi_points": 7}},
            {"metrology": {"zeta_bracket": [8.0, 0.5]}},
            {"metrology": {"zeta_bracket": [0.5, 4.0, 8.0]}},
            {"circuit": {"inductance_h": 0.0}},
            {"circuit": {"n_cell": 1}},
            {"circuit": {"t_hot_kelvin": 0.01}},
            # a section that is not a table
            {"engine": 3},
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
        [(None, "cannot read config file"), ("[1, 2]", "must contain a JSON object")],
    )
    def test_unusable_file_fatal(self, tmp_path, text, message):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_config(path)

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

    def test_oracle_thermal_leak_tol_reaches_every_stage(self, tmp_path, capsys):
        # the grid state (bw=1) fits the 1e-14 budget at n_max=60; the variance
        # arbitration's hot state (bw=0.5) leaks ~1.1e-13, so the budget must reach it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"oracle": {
            "n_max": 60, "algebra_n_max": 6, "beta_omega": [1.0], "zeta_grid": [0.4],
            "phi_grid": [0.9], "thermal_leak_tol": 1e-14,
        }}))
        assert main(["--config", str(cfg), "--out", str(tmp_path), "oracle"]) == 1
        assert "thermal tail beyond n_max=60" in capsys.readouterr().err

    def test_static_circuit_reports_clean_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"circuit": {"amp_b": 0.0}}))
        assert main(["--config", str(cfg), "--out", str(tmp_path), "circuit"]) == 1
        assert "static line" in capsys.readouterr().err

    def test_derivative_mode_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"zeta_panels": [2.0], "phi_points": 32}}))
        assert main(
            ["--config", str(cfg), "--out", str(tmp_path), "--derivative-mode", "paper", "figure3"]
        ) == 0
        text = (tmp_path / "figure3_zeta2.csv").read_text()
        assert ",paper" in text and ",chain" not in text


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
