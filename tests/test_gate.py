"""The gate's equivalence grid against a point-by-point reference loop, and its
algebra records against dense products of the same blocks."""

import collections.abc
import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fock_reference as ref
from su11otto.core import (
    EngineConfig,
    chi_of,
    theta_of,
)
from su11otto.fock import (
    LEAK_TOL,
    FockWorkspace,
    evolution_endpoint,
    thermal_state,
    unitary_equiv,
    unitary_product,
)
from su11otto import core, fock, gate, metrology
from su11otto.gate import (
    GateRecord,
    _admitted_records,
    _algebra_records,
    _cmp,
    _equivalence_records,
    run_gate,
)

N_MAX = 30
# the cold bath first: at n_max = 30, (zeta, phi) = (0.9, 1.5) and (0.6, 3.0) are
# admitted at beta omega = 3 and skipped at beta omega = 1, (0.9, 3.0) skipped at both.
# The point (1, 0.9, 0.5) is admitted yet records mean_n_un1_vs_un2 and
# mean_n_un1_vs_tiev as `fail` (1.4e-8 > 1e-8): the guard bounds a probability,
# not the error of a mean
BETA_OMEGAS = (3.0, 1.0)
ZETAS = (0.6, 0.9)
PHIS = (0.5, 1.5, 3.0)
# a hot bath cold enough (beta_h omega2 = 2) for the variance records at n_max = 30
CONFIG = EngineConfig(omega1=0.1, omega2=1.0, t_hot=0.5, t_cold=0.01)


def _reference_records():
    """Each (beta omega, zeta, phi) point read alone on a fresh workspace, tiev
    from its own `evolution_endpoint` operator, |U|^2 p per stored sector,
    where the gate reads the un2 grid."""
    records = []
    for bw in BETA_OMEGAS:
        for zeta in ZETAS:
            for phi in PHIS:
                ws = FockWorkspace(N_MAX)
                state = thermal_state(ws, bw, 1.0)
                chi, theta = float(chi_of(zeta, phi)), float(theta_of(zeta, phi))
                tag = f"[bw={bw:g},zeta={zeta:g},phi={phi:g}]"
                un1 = unitary_product(ws, (zeta,), (phi,), [state])
                un2 = unitary_equiv(ws, [chi], [state])
                tiev = ref.reads(evolution_endpoint(-chi, -theta, ws), state)
                leak = max(un1.occupancy[0, 0], un2.occupancy[0, 0], tiev[2])
                if leak > LEAK_TOL:
                    nan = math.nan
                    records.append(
                        GateRecord(f"equivalence{tag}", nan, nan, 1e-8, N_MAX, leak, "skipped")
                    )
                    continue
                reads = {"un1": un1.read(0, 0), "un2": un2.read(0, 0), "tiev": tiev}
                defects = {"un1": un1.defect[0], "un2": un2.defect[0], "tiev": un2.defect[0]}
                records.extend(_admitted_records(defects, reads, N_MAX, bw, chi, tag))
    return records


def _fields(records):
    # repr keeps every bit of a float and lets nan equal nan
    return [repr(dataclasses.astuple(r)) for r in records]


def _same_records(grid, reference):
    """Every record's quantity, status, tolerance and basis, and its values to
    the rounding of the routes: the means to 1e-12, and the leakage, a
    boundary mass near 1e-20 and below, to 1e-14 of its square root."""
    assert [(r.quantity, r.status, r.tolerance, r.n_max) for r in grid] == [
        (r.quantity, r.status, r.tolerance, r.n_max) for r in reference
    ]
    for a, b in zip(grid, reference):
        for got, want in ((a.analytic, b.analytic), (a.oracle, b.oracle)):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13, nan_ok=True), a.quantity
        assert a.leakage == pytest.approx(b.leakage, rel=1e-9, abs=1e-14 * b.leakage**0.5)


def test_equivalence_grid_matches_point_by_point_reference(monkeypatch):
    # each form is read once for the whole grid, un2 also for the convergence
    # record's two bases; tiev reads the un2 read
    calls = dict.fromkeys(("unitary_product", "unitary_equiv", "evolution_endpoint"), 0)
    for name in calls:
        build = getattr(fock, name)

        def counted(*args, name=name, build=build, **kwargs):
            calls[name] += 1
            return build(*args, **kwargs)

        monkeypatch.setattr(gate, name, counted, raising=False)
    result = run_gate(
        CONFIG,
        n_max=N_MAX,
        algebra_n_max=4,
        beta_omegas=BETA_OMEGAS,
        zeta_grid=ZETAS,
        phi_grid=PHIS,
    )
    grid = [
        r for r in result.records
        if ",zeta=" in r.quantity and not r.quantity.startswith("truncation_convergence")
    ]
    assert calls == {"unitary_product": 1, "unitary_equiv": 3, "evolution_endpoint": 0}
    reference = _reference_records()
    _same_records(grid, reference)
    # each point's bounds are those of its own zeta's rotation and phases, to the bit
    defects = [(a.oracle, b.oracle) for a, b in zip(grid, reference) if "defect" in a.quantity]
    assert defects and all(a == b for a, b in defects)
    skipped = [r.quantity for r in grid if r.status == "skipped"]
    assert skipped == [
        "equivalence[bw=3,zeta=0.9,phi=3]",
        "equivalence[bw=1,zeta=0.6,phi=3]",
        "equivalence[bw=1,zeta=0.9,phi=1.5]",
        "equivalence[bw=1,zeta=0.9,phi=3]",
    ]
    # the tiev records read the un2 read to the bit
    admitted = [r for r in grid if r.quantity.startswith("mean_n_un2_vs_tiev")]
    assert admitted and all(r.abs_err == 0.0 for r in admitted)


@pytest.mark.parametrize("builder", ["unitary_product", "unitary_equiv"])
def test_point_skipped_when_any_one_form_trips(monkeypatch, builder):
    # one form's guard reads an occupancy past the budget at every point, the
    # other keeps its own: every point must be skipped at every bath
    build = getattr(gate, builder)

    def tripping(*args, **kwargs):
        read = build(*args, **kwargs)
        return dataclasses.replace(read, occupancy=read.occupancy + 2.0 * LEAK_TOL)

    monkeypatch.setattr(gate, builder, tripping)
    ws = FockWorkspace(N_MAX)
    states = [(bw, thermal_state(ws, bw, 1.0)) for bw in BETA_OMEGAS]
    records = _equivalence_records(ws, states, ZETAS, PHIS)
    assert [r.status for r in records] == ["skipped"] * (len(BETA_OMEGAS) * len(ZETAS) * len(PHIS))


def _scale_rotation(monkeypatch, ws):
    """`fock._rotation` with cos(zeta sigma) of sector 5's singular value 3
    scaled by 1 + 1e-9 at the squeeze angle zeta = 0.6, which un1 reads (un2
    reads the rotation at chi).  Sector 5 (26 states) is the sixth of the first
    bucket (width 32, so 16 singular values) at n_max = 30."""
    build = fock._rotation

    def scaled(sigma, angles):
        c, s = build(sigma, angles)
        if sigma is ws.kx_eig[0][0] and list(angles) == [0.6]:
            c = c.copy()
            c[5, 3] *= 1.0 + 1e-9
        return c, s

    monkeypatch.setattr(fock, "_rotation", scaled)


def _scale_phases(monkeypatch, ws):
    """`fock._kz_phases` with the phases of sector 5, the sixth of the first
    bucket at n_max = 30, scaled by 1 + 1e-9."""
    build = fock._kz_phases

    def scaled(ws, angles):
        stacks = [z.copy() for z in build(ws, angles)]
        stacks[0][5] *= 1.0 + 1e-9
        return tuple(stacks)

    monkeypatch.setattr(fock, "_kz_phases", scaled)


def _scale_column(ws, which):
    """The workspace with column 3 of sector 5's signed factor U~ (which = 1)
    or V~ (which = 2) of `kx_eig` scaled by 1 + 1e-9, for every read of it."""
    assert len(ws.buckets[0].sizes) > 5
    # sector 5 (26 states) is the sixth of the first bucket (width 32) at n_max = 30
    factors = [list(f) for f in ws.kx_eig]
    factors[0][which] = factors[0][which].copy()
    factors[0][which][5, :, 3] *= 1.0 + 1e-9
    vars(ws)["kx_eig"] = tuple(map(tuple, factors))


@pytest.mark.parametrize(
    "mutate, names",
    [
        (_scale_rotation, {"un1"}),
        (_scale_phases, {"un1"}),
        (lambda mp, ws: _scale_column(ws, 1), {"un1", "un2", "tiev"}),
        (lambda mp, ws: _scale_column(ws, 2), {"un1", "un2", "tiev"}),
    ],
    ids=["unitary_product-un1", "unitary_product-phase-un1", "unitary_equiv-un2",
         "unitary_equiv-v-un2"],
)
def test_scaled_core_block_fails_its_defect_record(monkeypatch, mutate, names):
    # a 1e-9 error in one factor is no longer unitary: the defect records of the
    # forms that read it, and only those, must fail.  Each record is a bound
    # from its form's factors: un1's rotation at zeta and its phases P, un2's
    # rotation at chi (tiev reads un2's record), and the signed factors U~ and
    # V~ of `kx_eig`, which both forms read, un1 as the factors of its squeeze
    ws = FockWorkspace(N_MAX)
    mutate(monkeypatch, ws)
    states = [(3.0, thermal_state(ws, 3.0, 1.0))]
    records = _equivalence_records(ws, states, (0.6,), (0.5,))
    defects = {r.quantity: r.status for r in records if r.quantity.startswith("unitarity_defect")}
    assert defects == {
        f"unitarity_defect[{form}][bw=3,zeta=0.6,phi=0.5]": "fail" if form in names else "pass"
        for form in ("un1", "un2", "tiev")
    }


@pytest.mark.parametrize(
    "name, mutant, failing",
    [
        ("n_out", lambda n_in, chi: core.n_out(n_in, chi) + 0.5, "mean_h_vs_closed_form"),
        ("_variance_n", lambda c, chi: metrology._variance_n(c, chi) * (1.0 + 1e-5),
         "delta2_n_formula"),
    ],
)
def test_mutated_closed_form_fails_its_record(monkeypatch, name, mutant, failing):
    # <H> and Delta^2 N are read against the shipped closed forms, `n_out` and
    # the formula of `metrology.variance_n`: a mutant of either (n_out's
    # - 1 -> - 0.5, Delta^2 N off by 1e-5) must fail its record, and only that one
    ws = FockWorkspace(N_MAX)
    states = [(3.0, thermal_state(ws, 3.0, 1.0))]
    assert all(r.status == "pass" for r in _equivalence_records(ws, states, (0.6,), (0.5,)))
    monkeypatch.setattr(gate, name, mutant)
    records = _equivalence_records(ws, states, (0.6,), (0.5,))
    assert [r.quantity for r in records if r.status != "pass"] == [
        f"{failing}[bw=3,zeta=0.6,phi=0.5]"
    ]


def test_kernels_and_grams_run_per_zeta_and_per_workspace(monkeypatch):
    # the cost shape of the grid: per (zeta, bucket), the squeeze kernel once,
    # then one sandwich M_N and one R per state that the squeezed guard admits
    # (one dense `BlockOperator.__matmul__` each, Y already scaled by the
    # diagonal), none per (zeta, phi), and no Gram
    # of a squeeze; a Gram of kx_eig's factors once per workspace whose bound a
    # record reads: the grid's alone, as the convergence record reads each of
    # its bases' <N> and guard, with no <N^2> row, and builds no squeeze
    ws = FockWorkspace(N_MAX)
    states = [thermal_state(ws, bw, 1.0) for bw in BETA_OMEGAS]

    def admitted(zeta):
        y = fock._exp_i_ky(ws, zeta)
        return sum(float(y.boundary_weights @ s.probs) <= LEAK_TOL for s in states)

    # the grid admits both baths at each zeta; at zeta = 1.2 the hot bath is refused
    sandwiches = {zeta: 1 + admitted(zeta) for zeta in (*ZETAS, 1.2)}
    assert sandwiches == {0.6: 3, 0.9: 3, 1.2: 2}
    log, grams, bases = [], [], []
    kernel, gram = fock._squeeze, fock._gram_minus_one
    equiv, matmul = gate.unitary_equiv, fock.BlockOperator.__matmul__

    def counted_kernel(u, *args):
        log.append(("kernel", 2 * u.shape[-1]))
        return kernel(u, *args)

    def counted_matmul(a, b):
        dense = not (a.is_diagonal or b.is_diagonal)  # the W^3 product the tracer prices
        log.append(("matmul" if dense else "diagonal", a.stacks[0].shape[-1]))
        return matmul(a, b)

    def counted_gram(b):
        grams.append(b.shape[-1])
        return gram(b)

    def counted_equiv(ws, *args, **kwargs):
        read = equiv(ws, *args, **kwargs)
        bases.append((ws.n_max, kwargs["with_variance"], len(read.moments)))
        return read

    monkeypatch.setattr(fock, "_squeeze", counted_kernel)
    monkeypatch.setattr(fock.BlockOperator, "__matmul__", counted_matmul)
    monkeypatch.setattr(fock, "_gram_minus_one", counted_gram)
    monkeypatch.setattr(gate, "unitary_equiv", counted_equiv)
    run_gate(
        CONFIG,
        n_max=N_MAX,
        algebra_n_max=4,
        beta_omegas=BETA_OMEGAS,
        zeta_grid=ZETAS,
        phi_grid=PHIS,
    )
    widths = [b.width for b in ws.buckets]

    def shape(zetas):
        return [
            event
            for zeta in zetas
            for w in widths
            for event in [("kernel", w)] + [("matmul", w)] * sandwiches[zeta]
        ]

    assert log == shape(ZETAS)
    assert bases == [(N_MAX, True, 3), (60, False, 2), (120, False, 2)]
    assert sorted(grams) == sorted(b.width // 2 for b in ws.buckets)
    # a refused state's R is never formed, at every phi of its zeta
    log.clear()
    unitary_product(ws, (1.2,), PHIS, states)
    assert log == shape((1.2,))


def test_a_gate_run_leaves_no_workspace_and_fock_no_cache(monkeypatch):
    # a process may run the gate again and again (the benchmark repeats whole
    # oracle passes in one worker), so a run keeps nothing for the next: every
    # workspace it builds dies with its result, and `fock` holds no array, cache
    # or mutable container beside its constants, at module or class level; a
    # cache of workspaces, or a scratch kept past its read, fails here
    built, init = [], FockWorkspace.__init__

    def tracked_init(self, n_max):
        init(self, n_max)
        built.append(weakref.ref(self))

    monkeypatch.setattr(FockWorkspace, "__init__", tracked_init)
    result = run_gate(
        CONFIG, n_max=N_MAX, algebra_n_max=4, beta_omegas=BETA_OMEGAS, zeta_grid=ZETAS, phi_grid=PHIS
    )
    assert result.records and len(built) >= 3  # the grid's, the algebra's and the convergence bases
    del result
    gc.collect()
    assert [w() for w in built] == [None] * len(built)
    kept = (np.ndarray, collections.abc.MutableMapping, collections.abc.MutableSequence, collections.abc.MutableSet)
    owners = [vars(fock)] + [vars(c) for c in vars(fock).values() if getattr(c, "__module__", None) == fock.__name__]
    for owner in owners:
        for name, value in owner.items():
            if not name.startswith("__"):
                assert not isinstance(value, kept) and not hasattr(value, "cache_info"), name


def test_partition_function_closed_form():
    # the record compares (2 sinh(bw/2))^-2 with q / (1 - q)^2, q = exp(-bw)
    state = thermal_state(FockWorkspace(60), 0.5, 1.0)
    _, rec = gate._thermal_records([(0.5, state)])
    assert rec.quantity == "thermal_partition_fn[bw=0.5]" and rec.status == "pass"
    assert rec.oracle == pytest.approx((2.0 * math.sinh(0.25)) ** -2, rel=1e-15)


@pytest.mark.parametrize("relative", [False, True])
@pytest.mark.parametrize("analytic, oracle", [(math.nan, 1.0), (1.0, math.nan)])
def test_nan_value_fails(analytic, oracle, relative):
    rec = gate._cmp("q", analytic, oracle, 1e-8, N_MAX, relative=relative)
    assert rec.status == "fail" and math.isnan(rec.rel_err)
    # a NaN error is never within tolerance: it takes whatever status a miss takes
    for miss in ("fail", "discrepancy", "skipped"):
        rec = gate._cmp("q", analytic, oracle, 1e-8, N_MAX, relative=relative, miss=miss)
        assert rec.status == miss and math.isnan(rec.rel_err)


def test_skipped_record_carries_the_worst_guarded_occupancy():
    # the leakage of a point the guard refuses says how far past LEAK_TOL it was
    ws = FockWorkspace(N_MAX)
    states = [(bw, thermal_state(ws, bw, 1.0)) for bw in BETA_OMEGAS]
    records = _equivalence_records(ws, states, ZETAS, PHIS)
    skipped = [r for r in records if r.status == "skipped"]
    assert len(skipped) == 4
    assert all(math.isfinite(r.leakage) and r.leakage > LEAK_TOL for r in skipped)


@pytest.mark.parametrize(
    "statuses, code",
    [
        (("pass", "skipped"), gate.EXIT_OK),
        (("pass", "discrepancy"), gate.EXIT_DISCREPANCY_ONLY),
        (("discrepancy", "fail", "pass"), gate.EXIT_HARD_FAILURE),
    ],
)
def test_exit_code_reports_the_worst_status(statuses, code):
    records = [GateRecord("q", 1.0, 1.0, 1e-8, N_MAX, 0.0, status) for status in statuses]
    assert gate.GateResult(records).exit_code == code


def _kx_blocks(ws):
    """Per stored sector, the dense K_x block assembled from `ws.kx_band`."""
    return ref.kx(ws).blocks


def _dense_ladder_deviation(ws, algebra_n_max):
    """max |K_x - (a1+ a2+ + a1 a2)/2| over the full basis on
    `FockWorkspace(algebra_n_max)` (the grid's own when the sizes agree), K_x
    assembled densely, mirror blocks included, against (P^T + P)/2 with
    P = a (x) a."""
    small = ws if ws.n_max == algebra_n_max else FockWorkspace(algebra_n_max)
    kx_dense = ref.to_dense(ref.kx(small))
    a = ref.annihilator(algebra_n_max)
    ladder = np.kron(a, a)  # a1 a2; a1+ a2+ is its transpose
    return np.max(np.abs(kx_dense - (ladder.T + ladder) / 2.0))


def _product_form_algebra_records(ws, algebra_n_max):
    """The algebra records from dense products of the workspace's own blocks: K_x
    assembled from `ws.kx_band`, K_y its quarter turn D K_x D+ and K_z the dense
    diag(K_z), read on the interior blocks.

    Each residual is in the units of the band record it checks, as
    `_algebra_records` scales them: row j of a residual built from products of
    q generators is divided by K_z,j^(q - 1).  So the three commutator records
    are relative to K_z,j, and `jacobi_identity` and
    `casimir_commutes_generators` (the Casimir's commutator with each
    generator) relative to K_z,j^2.  In these units the double-precision
    readings stay below 1e-14 up to n_max = 60 (3.5e-15 at 30); the absolute
    Casimir residual reads 1.4e-12 at n_max = 30, past the 1e-12 tolerance.
    """

    def comm(a, b):
        return a @ b - b @ a

    phase_cycle = np.array([1.0, -1j, -1.0, 1j])
    dev_xy = dev_yz = dev_zx = dev_jac = dev_cas = 0.0
    for sec, kz_diag, kx_block in zip(ws.sectors, ref.per_sector(ws, ws.kz), _kx_blocks(ws)):
        m = sec.size
        kx = kx_block.astype(complex)
        ph = phase_cycle[np.arange(m) % 4]
        ky = (ph[:, None] * kx) * ph.conj()[None, :]
        kz = np.diag(kz_diag.astype(complex))
        in1, in2 = slice(0, max(m - 1, 0)), slice(0, max(m - 2, 0))

        def dev(mat, sl, power):
            block = mat[sl, sl] / kz_diag[sl, None] ** power
            return float(np.max(np.abs(block))) if block.size else 0.0

        c_xy, c_yz, c_zx = comm(kx, ky), comm(ky, kz), comm(kz, kx)
        dev_xy = max(dev_xy, dev(c_xy + 1j * kz, in1, 1))
        dev_yz = max(dev_yz, dev(c_yz - 1j * kx, in1, 1))
        dev_zx = max(dev_zx, dev(c_zx - 1j * ky, in1, 1))
        dev_jac = max(dev_jac, dev(comm(kx, c_yz) + comm(ky, c_zx) + comm(kz, c_xy), in2, 2))
        casimir = kz @ kz - kx @ kx - ky @ ky
        dev_cas = max(dev_cas, *(dev(comm(casimir, g), in2, 2) for g in (kx, ky, kz)))
    kz_dense = ref.to_dense(ref.diagonal(ws, ws.kz))
    n_dense = ref.to_dense(ref.diagonal(ws, ws.n))
    n_max = ws.n_max
    return [
        _cmp("comm_xy_plus_i_kz", 0.0, dev_xy, 1e-12, n_max),
        _cmp("comm_yz_minus_i_kx", 0.0, dev_yz, 1e-12, n_max),
        _cmp("comm_zx_minus_i_ky", 0.0, dev_zx, 1e-12, n_max),
        _cmp("jacobi_identity", 0.0, dev_jac, 1e-12, n_max),
        _cmp("casimir_commutes_generators", 0.0, dev_cas, 1e-12, n_max),
        _cmp(
            "kz_minus_half_n_plus_1",
            0.0,
            float(np.max(np.abs(kz_dense - (n_dense + np.eye(ws.dim)) / 2))),
            0.0,
            n_max,
        ),
        _cmp(
            "comm_kz_n", 0.0, float(np.max(np.abs(kz_dense @ n_dense - n_dense @ kz_dense))), 0.0,
            n_max,
        ),
        _cmp("vacuum_kz", 0.5, float(kz_dense[0, 0]), 0.0, n_max),
        _cmp(
            "kx_ladder_representation",
            0.0,
            _dense_ladder_deviation(ws, algebra_n_max),
            1e-13,
            algebra_n_max,
        ),
    ]


def _per_sector_algebra_records(ws, algebra_n_max):
    """The algebra records as a loop over the stored sectors' dense K_x blocks
    computed them, with the ladder placement from the dense kron(a, a): the
    reference of `_algebra_records`' one vectorised pass, record for record."""
    dev_xy = dev_step = dev_cas = dev_kz_half = dev_kz_n = 0.0
    kzs, ns = ref.per_sector(ws, ws.kz), ref.per_sector(ws, ws.n)
    for sec, kx, kz, n in zip(ws.sectors, _kx_blocks(ws), kzs, ns):
        b = np.diagonal(kx, 1)
        # 0 exactly when the block is symmetric tridiagonal with a zero diagonal
        shape = np.max(np.abs(kx - np.diag(b, 1) - np.diag(b, -1)))
        b2 = np.concatenate(([0.0], b * b))  # b_j-1^2 for j = 0 ... m - 1
        kz_in = kz[:-1]  # the interior rows
        k = (sec.d + 1) / 2.0
        xy = np.abs(2.0 * (b2[1:] - b2[:-1]) - kz_in) / kz_in
        cas = np.abs(kz_in * kz_in - 2.0 * (b2[1:] + b2[:-1]) - k * (k - 1.0)) / (kz_in * kz_in)
        dev_xy = max(dev_xy, shape, np.max(xy, initial=0.0))
        dev_step = max(dev_step, shape, np.max(np.abs(np.diff(kz) - 1.0), initial=0.0))
        dev_cas = max(dev_cas, np.max(cas, initial=0.0))
        dev_kz_half = max(dev_kz_half, np.max(np.abs(kz - (n + 1.0) / 2.0)))
        dev_kz_n = max(dev_kz_n, np.max(np.abs(kz * n - n * kz)))
    n_max = ws.n_max
    return [
        _cmp("comm_xy_plus_i_kz", 0.0, dev_xy, 1e-12, n_max),
        _cmp("comm_yz_minus_i_kx", 0.0, dev_step, 1e-12, n_max),
        _cmp("comm_zx_minus_i_ky", 0.0, dev_step, 1e-12, n_max),
        _cmp("jacobi_identity", 0.0, max(dev_xy, dev_step), 1e-12, n_max),
        _cmp("casimir_commutes_generators", 0.0, dev_cas, 1e-12, n_max),
        _cmp("kz_minus_half_n_plus_1", 0.0, dev_kz_half, 0.0, n_max),
        _cmp("comm_kz_n", 0.0, dev_kz_n, 0.0, n_max),
        _cmp("vacuum_kz", 0.5, ref.per_sector(ws, ws.kz)[0][0], 0.0, n_max),
        _cmp(
            "kx_ladder_representation",
            0.0,
            _dense_ladder_deviation(ws, algebra_n_max),
            1e-13,
            algebra_n_max,
        ),
    ]


def _bits(x):
    return x.dtype, x.shape, np.ascontiguousarray(x).tobytes()


@settings(max_examples=40)
@example(n_max=7, algebra_n_max=7)
@example(n_max=8, algebra_n_max=12)
@example(n_max=9, algebra_n_max=2)
@example(n_max=16, algebra_n_max=9)
@example(n_max=17, algebra_n_max=8)
@given(n_max=st.integers(1, 40), algebra_n_max=st.integers(2, 12))
def test_band_route_is_bit_identical_to_the_dense_blocks(n_max, algebra_n_max):
    # kx_eig's parity blocks, built from the band, are the even-row x odd-column
    # blocks of the dense tridiagonal assembled from the same band, and its
    # singular values are those of the dense blocks; the vectorised records equal
    # the per-sector loop's, the blockwise ladder check the dense kron's
    ws = FockWorkspace(n_max)
    stacks = zip(ws.buckets, ws._parity_blocks(), ref.kx(ws).stacks, ws.kx_eig)
    for bucket, parity, kx, (sigma, _, _) in stacks:
        for j, m in enumerate(bucket.sizes):
            dense = kx[j, 0:m:2, 1:m:2]
            assert _bits(parity[j, : -(-m // 2), : m // 2]) == _bits(dense)
            _, s, _ = np.linalg.svd(dense)
            assert _bits(sigma[j, : len(s)]) == _bits(s)
    reference = _per_sector_algebra_records(ws, algebra_n_max)
    assert _fields(_algebra_records(ws, algebra_n_max)) == _fields(reference)


def _statuses(records):
    return [(r.quantity, r.status, r.n_max) for r in records]


@pytest.mark.parametrize("n_max", [8, 30])
def test_band_records_match_the_dense_reference(n_max):
    # the O(m) band identities and the dense products classify every record alike
    ws = FockWorkspace(n_max)
    band = _algebra_records(ws, n_max)
    assert _statuses(band) == _statuses(_product_form_algebra_records(ws, n_max))
    assert all(r.status == "pass" for r in band)


def test_band_records_hold_at_the_grid_basis():
    # the residuals are relative: at n_max = 120, b_j^2 rounds at the ulp of
    # ~K_z^2, and the absolute residuals would reach past 1e-12
    records = _algebra_records(FockWorkspace(120), 2)
    assert all(r.abs_err <= 1e-13 for r in records)


def _band_under_the_root(ws):
    band = 0.5 * np.sqrt((ws._n1 + 1) * (ws._n2 + 1) + 0.01)
    band[ws.last] = 0.0
    return {"kx_band": band}


def _kz_scaled(ws):
    return {"kz": ws.kz * (1.0 + 1e-9)}


def _band_shifted_one_row(ws):
    # sector d = 2's band moves one row down: its last entry now leaves the sector
    band = ws.kx_band.copy()
    first, last = ws.last[1] + 1, ws.last[2]
    band[first + 1 : last + 1], band[first] = band[first:last], 0.0
    return {"kx_band": band}


def _idx_swapped_with_its_mirror(ws):
    # sector d = 3 placed at the indices of sector -3, n2 (n_max + 1) + n1
    sectors = list(ws.sectors)
    s = sectors[3]
    sectors[3] = dataclasses.replace(s, idx=s.n2 * (ws.n_max + 1) + s.n1)
    return {"sectors": tuple(sectors)}


BOTH_ROUTES = ("_algebra_records", "_product_form_algebra_records")


@pytest.mark.parametrize(
    "mutate, failing, routes",
    [
        (_band_under_the_root, {"comm_xy_plus_i_kz", "casimir_commutes_generators"}, BOTH_ROUTES),
        (_kz_scaled, {"comm_yz_minus_i_kx", "comm_zx_minus_i_ky"}, BOTH_ROUTES),
        (
            _band_shifted_one_row,
            {"comm_xy_plus_i_kz", "casimir_commutes_generators", "kx_ladder_representation"},
            BOTH_ROUTES,
        ),
        # the dense route writes a sector and its mirror as a pair, so it cannot
        # tell which of the two holds which index
        (_idx_swapped_with_its_mirror, {"kx_ladder_representation"}, ("_algebra_records",)),
    ],
    ids=["band+0.01-under-the-root", "kz-scaled-1e-9", "band-shifted-one-row",
         "idx-swapped-with-its-mirror"],
)
def test_mutated_workspace_fails_the_algebra_records(mutate, failing, routes):
    # the mutation replaces the workspace's cached band, K_z diagonal or sectors,
    # on the basis the ladder record reads too: every route named must fail the
    # records the mutation breaks
    ws = FockWorkspace(12)
    vars(ws).update(mutate(ws))
    for route in routes:
        failed = {r.quantity for r in globals()[route](ws, ws.n_max) if r.status == "fail"}
        assert failing <= failed, route
