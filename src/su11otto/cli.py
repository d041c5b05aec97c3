"""Command-line surface: sweeps, headline-number reproduction and the oracle gate.

Subcommands
-----------
convert   map (zeta, phi) <-> (chi, theta) with round-trip residuals
cycle     work/heat/efficiency sweep over phi for each configured zeta
figure3   per-zeta sensitivity + efficiency panels and their summary
figure4   coupling coefficients Re/Im{alpha beta} over a rapidity sweep
snl       threshold squeezing and efficiency at the shot-noise line
circuit   end-to-end transmission-line scenario report
oracle    closed forms vs the Fock-basis oracle; exit 2 on recorded
          formula discrepancies (expected on the defaults: the printed
          energy variance and the coth^2 derivative lose the arbitration)

Exit codes: 0 success, 1 hard failure, 2 discrepancy-only.
Every CSV is deterministic: rerunning a command reproduces it byte for byte.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .config import ScenarioConfig, load_config
from .core import (
    InterferometerAngles,
    ProtocolEndpoints,
    angles_from,
    chi_from,
    chi_max,
    chi_of,
    phi_max,
    theta_from,
)
from .cycle import carnot, otto_ideal, works_and_heats
from .errors import EngineError, NoSolutionError
from .metrology import delta_phi, snl, solve_zeta_snl, supersensitivity_range
from .reports import fmt, write_csv


def _deferred(name: str):
    """Module `name` (kept if already loaded), else registered to execute on its first
    attribute read: only the commands that run a deferred layer pay for it.  Not a
    local import, because bench/spans.py indexes `sys.modules` for every module it
    wraps; local imports can replace this once the benchmark reads a run manifest."""
    if name not in sys.modules:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[spec.parent], name.rpartition(".")[2], module)
    return sys.modules[name]


_deferred("su11otto.gammafn")
_deferred("su11otto.fock")
circuit_mod = _deferred("su11otto.circuit")
gate = _deferred("su11otto.gate")

UNITS_HEADER = "units: hbar = k_B = 1; frequencies and temperatures on a common energy scale"
INPUT_HEADER = "expansion input state: hot thermal at (beta_h, omega2); N_in + 1 = coth(beta_h*omega2/2)"


def _phi_grid(phi_points: int) -> np.ndarray:
    # open grid: phi = j*pi/N for j = 1 .. N-1 (the endpoints are degenerate)
    return np.arange(1, phi_points) * math.pi / phi_points


def _cells(values, repeat: int = 1) -> list[str]:
    # a grid or constant shared by many rows, formatted once
    return list(map(fmt, np.ravel(values).tolist())) * repeat


def _engine_header(config: ScenarioConfig) -> list[str]:
    e = config.engine
    return [
        UNITS_HEADER,
        f"engine: omega1={fmt(e.omega1)} omega2={fmt(e.omega2)} t_hot={fmt(e.t_hot)} t_cold={fmt(e.t_cold)}",
    ]


def cmd_convert(args, config: ScenarioConfig) -> int:
    given = "zeta" if args.zeta is not None else "chi"
    try:  # refuse an input past float64's range by its name, not by the inf it turns into
        with np.errstate(over="raise"):
            if args.zeta is not None:
                angles = InterferometerAngles(zeta=args.zeta, phi=args.phi)
                if angles.phi == 0.0 or angles.zeta == 0.0:
                    print(f"zeta={fmt(angles.zeta)} phi={fmt(angles.phi)} -> chi=0 "
                          "(identity transformation; theta undefined)")
                    return 0
                chi = chi_from(angles)
                theta = theta_from(angles)
                forward = (f"zeta={fmt(angles.zeta)} phi={fmt(angles.phi)} -> "
                           f"chi={fmt(chi)} theta={fmt(theta)}")
                try:  # the forward map is valid: only its rounding can lose the way back
                    back = angles_from(ProtocolEndpoints(chi=chi, theta=theta)) if chi > 0.0 else None
                except NoSolutionError:
                    back = None
                if back is None:
                    why = ("chi rounds to 0 there, and chi = 0 has no unique angles" if chi == 0.0 else
                           "the inverse needs tan^2(theta) > sinh^2(chi/2), and here the two differ "
                           "by less than their rounding")
                    print(f"{forward} (round trip cannot be resolved in float64: {why})")
                    return 0
                residual = max(abs(back.zeta - angles.zeta), abs(back.phi - angles.phi))
                print(f"{forward} (round-trip residual {residual:.3e})")
            else:
                endpoints = ProtocolEndpoints(chi=args.chi, theta=args.theta)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")  # held here, and issued below if they stand
                    angles = angles_from(endpoints)
                inverse = (f"chi={fmt(endpoints.chi)} theta={fmt(endpoints.theta)} -> "
                           f"zeta={fmt(angles.zeta)} phi={fmt(angles.phi)}")
                if angles.zeta == 0.0:  # for a chi > 0, which angles_from alone admits
                    print(f"{inverse} (round trip cannot be resolved in float64: sinh^2(chi/2) underflows "
                          "to 0 there, so the inverse reads chi = 0 and returns the identity)")
                    return 0
                for w in caught:  # the inverse is resolved, so its warnings stand
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
                chi = chi_from(angles)
                theta = theta_from(angles)
                residual = max(abs(chi - endpoints.chi), abs(math.cos(theta) - math.cos(endpoints.theta)))
                print(f"{inverse} (round-trip residual {residual:.3e})")
            return 0
    except FloatingPointError:
        raise ValueError(f"{given}={fmt(getattr(args, given))} is too large: the map between "
                         "(zeta, phi) and (chi, theta) overflows float64 there") from None


def cmd_cycle(args, config: ScenarioConfig) -> int:
    engine = config.engine
    eta_c = carnot(engine)
    phis = _phi_grid(config.phi_points)
    panels = []
    for zeta in config.zeta_panels:
        chi = chi_of(zeta, phis)
        rep = works_and_heats(engine, chi)
        panels.append((chi, rep.w_ab, rep.q_bc, rep.w_cd, rep.q_da, rep.w_net, rep.eta,
                       rep.eta / eta_c, rep.w_fric))
    phi_cells = _cells(phis, len(panels))
    path = write_csv(
        Path(args.out) / "cycle_sweep.csv",
        ("phi", "zeta", "chi", "w_ab", "q_bc", "w_cd", "q_da", "w_net", "eta", "eta_norm", "w_fric"),
        phi_cells, [c for zeta in config.zeta_panels for c in _cells(zeta, phis.size)],
        *map(np.concatenate, zip(*panels)),
        header_comments=_engine_header(config)
        + ["sign convention: positive = energy into the working substance"],
    )
    print(f"wrote {path} ({len(phi_cells)} rows)")
    return 0


def cmd_figure3(args, config: ScenarioConfig) -> int:
    engine = config.engine
    mode = config.derivative_mode
    eta_c = carnot(engine)
    eta_o = otto_ideal(engine)
    chi_bound = chi_max(engine)
    phis = _phi_grid(config.phi_points)
    phi_cells = _cells(phis)
    header = _engine_header(config) + [INPUT_HEADER, f"derivative_mode: {mode}"]
    summary_rows = []
    for zeta in config.zeta_panels:
        d_n, d_h = delta_phi(engine, zeta, phis, mode)
        benchmark = snl(engine, zeta)
        norm_n, norm_h = d_n / benchmark, d_h / benchmark
        eta = works_and_heats(engine, chi_of(zeta, phis)).eta
        path = write_csv(
            Path(args.out) / f"figure3_zeta{zeta:g}.csv",
            ("phi", "delta_phi_n", "delta_phi_h", "snl", "norm_n", "norm_h",
             "eta", "eta_norm", "derivative_mode"),
            phi_cells, d_n, d_h, _cells(benchmark, phis.size), norm_n, norm_h,
            eta, eta / eta_c, [mode] * phis.size,
            header_comments=header + [f"zeta: {fmt(zeta)}"],
        )
        rng_n = supersensitivity_range(engine, zeta, "number", mode)
        rng_h = supersensitivity_range(engine, zeta, "energy", mode)
        min_norm_n, min_norm_h = norm_n.min(), norm_h.min()
        summary_rows.append((zeta, eta_o, eta_c, phi_max(zeta, chi_bound), min_norm_n, min_norm_h,
                             rng_n.lo, rng_n.hi, rng_n.empty, rng_h.lo, rng_h.hi, rng_h.empty, mode))
        print(f"panel zeta={zeta:g}: min norm dphi_N={min_norm_n:.4f} "
              f"min norm dphi_H={min_norm_h:.4f} "
              f"supersensitive(N)={'-' if rng_n.empty else f'({rng_n.lo:.4f},{rng_n.hi:.4f})'} "
              f"supersensitive(H)={'-' if rng_h.empty else f'({rng_h.lo:.4f},{rng_h.hi:.4f})'} "
              f"-> {path}")
    spath = write_csv(
        Path(args.out) / "figure3_summary.csv",
        ("zeta", "eta_otto", "eta_carnot", "phi_max", "min_norm_n", "min_norm_h",
         "range_n_lo", "range_n_hi", "range_n_empty",
         "range_h_lo", "range_h_hi", "range_h_empty", "derivative_mode"),
        *zip(*summary_rows),
        header_comments=header,
    )
    print(f"eta_otto={fmt(eta_o)} eta_carnot={fmt(eta_c)}  wrote {spath}")
    return 0


FIG4_OMEGA_I = 1.0
FIG4_OMEGA_F = 0.35
FIG4_NU_GRID = np.linspace(0.2, 100.0, 500)  # includes nu = 5 and 50 exactly


def cmd_figure4(args, config: ScenarioConfig) -> int:
    pairs = [circuit_mod.bogoliubov(FIG4_OMEGA_I, FIG4_OMEGA_F, float(nu)) for nu in FIG4_NU_GRID]
    re_ab, im_ab = zip(*map(circuit_mod.coupling_coefficients, pairs))
    residual = [pair.identity_residual for pair in pairs]
    path = write_csv(
        Path(args.out) / "figure4_coupling.csv",
        ("nu", "re_alphabeta", "im_alphabeta", "identity_residual"),
        FIG4_NU_GRID, re_ab, im_ab, residual,
        header_comments=[
            f"reference ramp frequencies: omega_i={fmt(FIG4_OMEGA_I)} omega_f={fmt(FIG4_OMEGA_F)}",
            "nu in units of omega_i"],
    )
    print(f"wrote {path} ({len(pairs)} rows); worst |alpha|^2-|beta|^2 residual {max(residual):.3e}")
    return 0


def cmd_snl(args, config: ScenarioConfig) -> int:
    engine = config.engine
    rows = []
    print(f"{'observable':>10} {'mode':>6} {'zeta_snl':>10} {'phi_snl':>10} "
          f"{'chi_snl':>10} {'eta_snl':>10} {'min/snl':>10}")
    for observable in ("energy", "number"):
        for mode in ("chain", "paper"):
            sol = solve_zeta_snl(engine, observable, mode, zeta_bracket=config.zeta_bracket)
            rows.append((observable, mode, sol.zeta_snl, sol.phi_snl, sol.chi_snl, sol.eta_snl,
                         sol.delta_phi_min, sol.snl_value, sol.delta_phi_min / sol.snl_value))
            print(f"{observable:>10} {mode:>6} {sol.zeta_snl:10.5f} {sol.phi_snl:10.6f} "
                  f"{sol.chi_snl:10.6f} {sol.eta_snl:10.6f} "
                  f"{sol.delta_phi_min / sol.snl_value:10.6f}")
    path = write_csv(
        Path(args.out) / "snl_solutions.csv",
        ("observable", "derivative_mode", "zeta_snl", "phi_snl", "chi_snl", "eta_snl",
         "delta_phi_min", "snl", "norm_min"),
        *zip(*rows),
        header_comments=_engine_header(config) + [
            INPUT_HEADER, "solver: coarse scan + golden section in phi, bisection in zeta"],
    )
    print(f"wrote {path}")
    return 0


def cmd_circuit(args, config: ScenarioConfig) -> int:
    mode = config.derivative_mode
    report = circuit_mod.circuit_scenario(config.circuit, derivative_mode=mode)
    pair = report.pair
    n = report.t_f.size
    header = [
        UNITS_HEADER,
        f"kelvin -> rad/s conversion: k_B/hbar = {fmt(circuit_mod.KELVIN_TO_RAD_PER_S)}",
        f"rapidity convention: {'absolute rad/s' if config.circuit.rapidity_absolute else 'units of expansion omega_i'}",
        f"expansion ramp: omega_i={fmt(pair.omega_i)} omega_f={fmt(pair.omega_f)} rad/s, "
        f"|beta|^2={fmt(pair.n_created)}",
        f"derivative_mode: {mode}",
        f"reference values (not asserted): eta_norm={circuit_mod.REFERENCE_ETA_NORM:g} "
        f"dphi_norm={circuit_mod.REFERENCE_DPHI_NORM:g}",
    ]
    path = write_csv(
        Path(args.out) / "circuit_scenario.csv",
        ("t_f", "theta", "zeta", "phi", "chi", "eta", "eta_norm", "dphi_h", "dphi_norm", "flags"),
        report.t_f, report.theta, report.zeta, report.phi, _cells(report.chi, n),
        _cells(report.eta, n), _cells(report.eta_norm, n), report.dphi_h,
        report.dphi_norm, np.where(report.flagged, "no-solution", ""),
        header_comments=header,
    )
    print(f"expansion ramp: omega_i={report.engine.omega2:.6e} omega_f={report.engine.omega1:.6e} rad/s")
    print(f"chi={report.chi:.6f} (engine bound chi_max={report.chi_max:.6f}) "
          f"eta={report.eta:.6f} eta_norm={report.eta_norm:.6f}")
    if (b := report.best) is not None:
        print(f"sensitivity-optimal t_f={report.t_f[b]:.6e} s: "
              f"dphi_norm={report.dphi_norm[b]:.6f} (zeta={report.zeta[b]:.4f}, "
              f"phi={report.phi[b]:.6f})")
        print(f"deviation from reference normalized pair: "
              f"eta_norm {report.eta_norm_deviation:+.4f}, dphi_norm {report.dphi_norm_deviation:+.4f}")
    print(f"wrote {path} ({n} rows, {int(report.flagged.sum())} flagged sweep points)")
    return 0


def cmd_oracle(args, config: ScenarioConfig) -> int:
    oracle = config.oracle
    result = gate.run_gate(config.engine, n_max=oracle.n_max, algebra_n_max=oracle.algebra_n_max,
                           beta_omegas=oracle.beta_omega, zeta_grid=oracle.zeta_grid,
                           phi_grid=oracle.phi_grid)
    records = result.records
    # each value cell formatted once, for stdout and the report alike
    analytic, oracle_cells = ([fmt(getattr(r, name)) for r in records] for name in ("analytic", "oracle"))
    abs_err = [r.abs_err for r in records]
    markers = {"pass": "PASS", "fail": "FAIL", "discrepancy": "DISCREPANCY", "skipped": "SKIP"}
    sys.stdout.write("".join(
        f"{markers[r.status]:11s} {r.quantity}  analytic={a} oracle={o} abs_err={e:.3e}\n"
        for r, a, o, e in zip(records, analytic, oracle_cells, abs_err)))
    path = write_csv(
        Path(args.out) / "oracle_report.csv",
        ("quantity", "analytic", "oracle", "abs_err", "rel_err", "n_max", "leakage"),
        [r.quantity for r in records], analytic, oracle_cells, abs_err,
        *([getattr(r, name) for r in records] for name in ("rel_err", "n_max", "leakage")),
        header_comments=_engine_header(config) + [
            "status legend: discrepancy = printed formula contradicted by the oracle "
            "(exit code 2); skipped = outside the truncation guard at this n_max",
        ],
    )
    counts = result.counts
    print(f"wrote {path}: {counts['pass']} pass, {counts['fail']} fail, "
          f"{counts['discrepancy']} discrepancy, {counts['skipped']} skipped")
    return result.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su11otto",
        description="Two-mode squeezed Otto engine: sweeps, metrology and oracle gate",
    )
    parser.add_argument("--config", help="JSON config file overriding the built-in defaults")
    parser.add_argument("--out", default="out", help="output directory for CSV reports")
    sub = parser.add_subparsers(dest="command", required=True)

    p_convert = sub.add_parser("convert", help="map between (zeta, phi) and (chi, theta)")
    group_z = p_convert.add_argument_group("interferometer coordinates")
    group_z.add_argument("--zeta", type=float)
    group_z.add_argument("--phi", type=float)
    group_c = p_convert.add_argument_group("protocol endpoints")
    group_c.add_argument("--chi", type=float)
    group_c.add_argument("--theta", type=float)
    p_convert.set_defaults(func=cmd_convert)

    for name, func, help_text in (
        ("cycle", cmd_cycle, "work/heat/efficiency sweep"),
        ("figure3", cmd_figure3, "sensitivity and efficiency panels"),
        ("figure4", cmd_figure4, "coupling-coefficient rapidity sweep"),
        ("snl", cmd_snl, "shot-noise-limit squeezing and efficiency"),
        ("circuit", cmd_circuit, "transmission-line scenario report"),
        ("oracle", cmd_oracle, "closed forms vs the Fock oracle"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "convert":
        have_angles = args.zeta is not None or args.phi is not None
        have_endpoints = args.chi is not None or args.theta is not None
        if have_angles == have_endpoints or (
            have_angles and (args.zeta is None or args.phi is None)
        ) or (have_endpoints and (args.chi is None or args.theta is None)):
            parser.error("convert needs either --zeta and --phi, or --chi and --theta")
    try:
        config = load_config(args.config)
        return args.func(args, config)
    except (EngineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
