"""Truncated-Fock machinery: basis bookkeeping, generators, thermal states,
unitaries and the truncation guards."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import fock_reference as ref
from su11otto import fock
from su11otto.config import DEFAULTS
from su11otto.core import chi_of, theta_of
from su11otto.errors import TruncationError
from su11otto.fock import (
    LEAK_TOL,
    THERMAL_BOUNDARY_TOL,
    THERMAL_LEAK_TOL,
    FockWorkspace,
    Tridiagonal,
    _exp_i_ky,
    _phase_kz,
    GridRead,
    boundary_occupancy,
    evolution_endpoint,
    evolved_boundary_occupancy,
    expect,
    hamiltonian_final,
    thermal_state,
    unitary_equiv,
    unitary_product,
    variance,
)
from su11otto.gate import _algebra_records

MEAN_N_BETA_HALF = 3.0829881650735965683  # coth(0.25) - 1


def _boundary_masks(ws):
    """Per stored sector, the states with n1 = n_max or n2 = n_max."""
    return [(s.n1 == ws.n_max) | (s.n2 == ws.n_max) for s in ws.sectors]


def _block_generators(ws):
    """K_x as dense blocks from the workspace's band, and K_y = D K_x D+, its
    quarter turn about K_z."""
    kx = ref.kx(ws)
    d = ref.quarter_phases(ws)
    return kx, d @ kx @ ref.dag(d)


def _dense_reads(u, bw):
    """<N>, Delta^2 N and the boundary mass of U rho U+ by dense linear
    algebra: |U|^2 p with U written out over the full basis and the thermal
    weights q^(n1+n2) (1-q)^2 over the full, unfolded basis."""
    n_max = u.ws.n_max
    n1, n2 = np.divmod(np.arange(u.ws.dim), n_max + 1)
    n = (n1 + n2).astype(float)
    pops = np.abs(ref.to_dense(u)) ** 2 @ ref.thermal_weights(n_max, bw)
    mean = n @ pops
    edge = pops[(n1 == n_max) | (n2 == n_max)].sum()
    return mean, (n * n) @ pops - mean**2, edge


def _close(got, want, rel=1e-12, mass_abs=1e-26):
    """(mean, variance, boundary mass) against a reference (mean, variance,
    mass), the variance only where `got` holds one (un1 reads no <N^2>): the
    moments relative to rel.  A mass m = sum_j p_j |u_j|^2 read from
    entries u_j that each route rounds by ~1e-16 moves by up to
    ~2 sqrt(m) 1e-16, so the mass is compared within 1e-14 sqrt(m), and
    within mass_abs, below which both routes read rounding noise."""
    moments = list(got[:-1])
    assert moments == pytest.approx(list(want[: len(moments)]), rel=rel)
    assert got[-1] >= 0.0
    assert got[-1] == pytest.approx(want[-1], rel=rel, abs=mass_abs + 1e-14 * math.sqrt(want[-1]))


def _moments(read, i=0, j=0):
    """<N>, Delta^2 N where the form reads <N^2>, and the boundary mass of
    `read` at state i and point j, taken past the guard."""
    mean, *second, edge = read.moments[:, i, j].tolist()
    return (mean, *(x - mean * mean for x in second), edge)


def _close_read(read, i, j, want, rel=1e-12, mass_abs=1e-26):
    """`_moments` of `read` against a reference by `_close`.  un1 forms no <N>
    for a state that its squeezed guard refuses, whose R it never builds:
    that <N> is NaN, `read` must refuse the point, and the mass alone is
    compared."""
    got = _moments(read, i, j)
    if math.isnan(got[0]):
        with pytest.raises(TruncationError):
            read.read(i, j)
        got, want = got[-1:], want[-1:]
    _close(got, want, rel, mass_abs)


def test_public_surface_is_pinned():
    # a new export, a test-only reference route included, is a deliberate edit of this list
    assert sorted(fock.__all__) == [
        "BlockOperator", "FockWorkspace", "GridRead", "ThermalState", "Tridiagonal",
        "boundary_occupancy", "evolution_endpoint", "evolved_boundary_occupancy", "expect",
        "hamiltonian_final", "thermal_state", "unitary_equiv", "unitary_product",
        "variance",
    ]
    assert all(hasattr(fock, name) for name in fock.__all__)


def test_grid_read_surface_is_pinned():
    # `read` is the one read of a form's moments, and it holds the leakage
    # guard; `defect` is taken from the moduli when first read: a new field or
    # public member is a deliberate edit of these lists
    assert [f.name for f in dataclasses.fields(GridRead)] == [
        "ws", "label", "moments", "occupancy", "moduli",
    ]
    public = sorted(name for name in dir(GridRead) if not name.startswith("_"))
    assert public == ["defect", "read"]


class TestWorkspace:
    def test_dimensions(self):
        ws = FockWorkspace(7)
        assert ws.dim == 64
        assert len(ws.sectors) == ws.n_max + 1
        assert [s.d for s in ws.sectors] == list(range(ws.n_max + 1))
        # a stored sector d > 0 stands for itself and its mirror -d
        assert sum((1 if s.d == 0 else 2) * s.size for s in ws.sectors) == ws.dim

    def test_index_bookkeeping(self):
        # each global index is covered exactly once by a stored index or its mirror
        ws = FockWorkspace(5)
        seen = []
        for s in ws.sectors:
            assert np.all(s.n1 - s.n2 == s.d)
            assert np.all(s.idx == s.n1 * 6 + s.n2)
            seen.extend(s.idx.tolist())
            if s.d > 0:
                seen.extend((s.n2 * 6 + s.n1).tolist())
        assert sorted(seen) == list(range(ws.dim))

    @pytest.mark.parametrize("n_max", [1, 2, 7, 30])
    def test_boundary_state_is_the_last_of_its_sector(self, n_max):
        # every boundary read takes row or entry -1 of a stored sector
        ws = FockWorkspace(n_max)
        for mask in _boundary_masks(ws):
            assert np.flatnonzero(mask).tolist() == [len(mask) - 1]
        rng = np.random.default_rng(n_max)
        op = ref.block_operator(ws, [rng.normal(size=(s.size, s.size)) for s in ws.sectors])
        masked = [(b[m] ** 2).sum(axis=0) for b, m in zip(op.blocks, _boundary_masks(ws))]
        assert np.array_equal(op.boundary_weights, np.concatenate(masked))


class TestGenerators:
    def test_vacuum_kz_eigenvalue(self):
        ws = FockWorkspace(4)
        assert ref.to_dense(ref.diagonal(ws, ws.kz))[0, 0] == 0.5

    def test_kz_is_half_n_plus_one(self):
        ws = FockWorkspace(6)
        assert np.array_equal(
            ref.to_dense(ref.diagonal(ws, ws.kz)),
            (ref.to_dense(ref.diagonal(ws, ws.n)) + np.eye(ws.dim)) / 2.0,
        )

    def test_ladder_representation(self):
        ws = FockWorkspace(5)
        a1, a2 = ref.ladder(ws.n_max)
        kx_ref, ky_ref, kz_ref = ref.generators(ws.n_max)
        kx, ky = _block_generators(ws)
        assert np.max(np.abs(ref.to_dense(kx) - kx_ref)) < 1e-14
        assert np.max(np.abs(ref.to_dense(ky) - ky_ref)) < 1e-14
        assert np.max(np.abs(ref.to_dense(ref.diagonal(ws, ws.kz)) - kz_ref)) < 1e-14
        n = ref.diagonal(ws, ws.n)
        assert np.max(np.abs(ref.to_dense(n) - (a1.T @ a1 + a2.T @ a2))) < 1e-14

    def test_dense_operators_commute_with_the_mode_swap(self):
        # the mirror blocks of the dense assembly must sit at the swapped indices
        ws = FockWorkspace(6)
        a1, a2 = ref.ladder(ws.n_max)
        kx, ky = _block_generators(ws)
        kz = ref.diagonal(ws, ws.kz)
        n = ws.n_max + 1
        swap = np.zeros((ws.dim, ws.dim))
        for n1 in range(n):
            for n2 in range(n):
                swap[n2 * n + n1, n1 * n + n2] = 1.0
        assert np.array_equal(swap @ a1 @ swap, a2)
        ops = (
            kx,
            ky,
            kz,
            ref.product_form(0.7, 1.3, ws),
            ref.endpoint_form(0.9, 0.4, ws),
            evolution_endpoint(-0.6, 1.1, ws),
        )
        for op in ops:
            dense = ref.to_dense(op)
            assert np.array_equal(swap @ dense, dense @ swap)
        # the stacks keep their dtype: real generators and kernels stay real
        for op in (kx, kz, ref.diagonal(ws, ws.n), _exp_i_ky(ws, 0.7)):
            assert ref.to_dense(op).dtype == np.float64
        assert ref.to_dense(ops[3]).dtype == np.complex128

    def test_ky_is_an_exact_quarter_turn_of_kx(self):
        # sectors longer than 100 states: (-1j) ** k loses exactness there
        ws = FockWorkspace(120)
        d = ref.quarter_phases(ws)
        kx_op, turned = _block_generators(ws)
        for s, phase, kx, ky in zip(ws.sectors, d.diags, kx_op.blocks, turned.blocks):
            assert np.array_equal(phase, np.array([1, -1j, -1, 1j])[np.arange(s.size) % 4])
            # K_y = i (a1 a2 - a1+ a2+)/2: i times the upper minus the lower band of K_x
            assert np.array_equal(ky, 1j * (np.triu(kx) - np.tril(kx)))

    def test_algebra_suite_passes_at_small_basis(self):
        records = _algebra_records(FockWorkspace(12), 12)
        assert all(r.status == "pass" for r in records)


class TestThermalState:
    def test_zero_temperature_is_vacuum(self):
        ws = FockWorkspace(20)
        state = thermal_state(ws, 1e3, 1.0)
        assert state.mean_number() == pytest.approx(0.0, abs=1e-12)
        # the first stored entry is the vacuum: sector d = 0 at n2 = 0
        assert state.probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_mean_occupation_matches_closed_form(self):
        state = thermal_state(FockWorkspace(60), 0.5, 1.0)
        assert state.mean_number() == pytest.approx(MEAN_N_BETA_HALF, abs=1e-7)

    def test_trace_normalized_and_leakage_reported(self):
        ws = FockWorkspace(120)
        state = thermal_state(ws, 0.25, 1.0)
        assert float(state.probs.sum()) == pytest.approx(1.0, abs=1e-14)
        # geometric tail: 1 - (1 - q^(n_max+1))^2 with q = exp(-beta omega)
        q = math.exp(-0.25)
        assert state.leakage == pytest.approx(
            1.0 - (1.0 - q**121) ** 2, rel=1e-3
        )
        assert state.leakage < THERMAL_LEAK_TOL

    @pytest.mark.parametrize("beta, omega", [(math.nan, 1.0), (1.0, math.inf), (-1.0, 1.0)])
    def test_non_finite_or_nonpositive_temperature_rejected(self, beta, omega):
        with pytest.raises(ValueError, match=r"beta\*omega must be positive and finite"):
            thermal_state(FockWorkspace(10), beta, omega)

    def test_undersized_basis_rejected(self):
        with pytest.raises(TruncationError, match="thermal tail beyond n_max=10"):
            thermal_state(FockWorkspace(10), 0.25, 1.0)

    def test_populated_boundary_rejected(self):
        # q = 0.01 at n_max = 5: the cut tail (~2e-12) fits THERMAL_LEAK_TOL, but the
        # boundary state |5, 0> holds (1 - q)^2 q^5 ~ 1e-10
        ws = FockWorkspace(5)
        with pytest.raises(TruncationError, match=f"exceeds {THERMAL_BOUNDARY_TOL:.0e}"):
            thermal_state(ws, math.log(100.0), 1.0)
        assert thermal_state(ws, math.log(1e3), 1.0).leakage < THERMAL_LEAK_TOL


def _grid_read(name, a, b, ws, states):
    """The gate's read of one form at the one point (a, b), against each of
    `states`: (zeta, phi) for the product form, (chi, theta) for the endpoint
    form, which reads chi alone, and (f_y, f_z) for the time-ordered form, whose
    populations the gate reads from the endpoint form at -f_y."""
    if name == "unitary_product":
        return unitary_product(ws, (a,), (b,), states)
    if name == "evolution_endpoint":
        a, b = -a, -b
    return unitary_equiv(ws, [a], states)


# each form's operator on the same two scalar arguments, multiplied out
OPERATORS = {
    "unitary_product": ref.product_form,
    "unitary_equiv": ref.endpoint_form,
    "evolution_endpoint": evolution_endpoint,
}


class TestUnitaries:
    def test_zero_squeezing_is_pure_phase(self):
        ws = FockWorkspace(8)
        u = ref.product_form(0.0, 0.7, ws)
        for block, kz in zip(u.blocks, ref.per_sector(ws, ws.kz)):
            assert np.max(np.abs(block - np.diag(np.exp(-0.7j * kz)))) < 1e-14
        # and the read leaves the thermal populations where they were
        state = thermal_state(ws, 5.0, 1.0)
        mean, edge = unitary_product(ws, (0.0,), (0.7,), [state]).read(0, 0)
        assert mean == pytest.approx(state.mean_number(), rel=1e-14)
        assert edge == pytest.approx(state.probs[ws.last].sum(), rel=1e-12, abs=1e-30)

    def test_zero_phase_is_identity(self):
        ws = FockWorkspace(8)
        u = ref.product_form(1.1, 0.0, ws)
        for block in u.blocks:
            assert np.max(np.abs(block - np.eye(block.shape[0]))) < 1e-12
        state = thermal_state(ws, 5.0, 1.0)
        # the intermediate squeeze trips the guard at n_max = 8, so the read
        # forms no R and no <N> there and refuses the point; the final state is
        # the thermal one, boundary mass included
        read = unitary_product(ws, (1.1,), (0.0,), [state])
        with pytest.raises(TruncationError, match="unitary_product: boundary occupancy"):
            read.read(0, 0)
        assert math.isnan(read.moments[0, 0, 0])
        assert read.moments[-1, 0, 0] == pytest.approx(state.probs[ws.last].sum(), rel=1e-9)
        # admitted at n_max = 30, where the read gives the thermal mean
        ws = FockWorkspace(30)
        state = thermal_state(ws, 5.0, 1.0)
        mean, _ = unitary_product(ws, (1.1,), (0.0,), [state]).read(0, 0)
        assert mean == pytest.approx(state.mean_number(), rel=1e-12)

    def test_zero_chi_equiv_is_identity(self):
        ws = FockWorkspace(8)
        u = ref.endpoint_form(0.0, 1.2, ws)
        for block in u.blocks:
            assert np.max(np.abs(block - np.eye(block.shape[0]))) < 1e-13
        state = thermal_state(ws, 5.0, 1.0)
        read = unitary_equiv(ws, [0.0], [state])
        assert read.read(0, 0)[0] == pytest.approx(state.mean_number(), rel=1e-14)
        assert read.defect[0] < 1e-13

    def test_pure_phase_endpoint_preserves_diagonal_averages(self):
        ws = FockWorkspace(30)
        state = thermal_state(ws, 1.0, 1.0)
        assert ref.reads(evolution_endpoint(0.0, 1.3, ws), state)[0] == pytest.approx(
            state.mean_number(), abs=1e-12
        )
        mean = _grid_read("evolution_endpoint", 0.0, 1.3, ws, [state]).read(0, 0)[0]
        assert mean == pytest.approx(state.mean_number(), abs=1e-12)

    def test_unitarity_defects(self):
        ws = FockWorkspace(30)
        for u in (
            ref.product_form(0.8, 0.7, ws),
            ref.endpoint_form(0.9, 0.4, ws),
            evolution_endpoint(-0.9, -0.4, ws),
        ):
            assert u.unitarity_defect() < 1e-12

    @pytest.mark.parametrize("build", ["unitary_equiv", "evolution_endpoint"])
    def test_real_core_record_bounds_its_exact_gram(self, build):
        # un2's record, which tiev reads too, bounds the defect of the exact
        # W R W^T of `kx_eig`'s factors and the computed rotation at chi,
        # summed in extended precision, whose own rounding is ~1e-18; and that
        # W R W^T is the exp(i chi K_y) both forms build, to rounding
        ws = FockWorkspace(40)
        state = thermal_state(ws, 3.0, 1.0)
        args = {"unitary_equiv": (0.9, 0.4), "evolution_endpoint": (-0.9, -0.4)}[build]
        read = _grid_read(build, *args, ws, [state])
        built = _exp_i_ky(ws, 0.9)
        exact = 0.0
        for (sigma, u, v), y in zip(ws.kx_eig, built.stacks):
            c, s = np.cos(0.9 * sigma)[:, None, :], np.sin(0.9 * sigma)[:, None, :]
            u, v, c, s = (a.astype(np.longdouble) for a in (u, v, c, s))
            wide = np.empty(y.shape, np.longdouble)
            wide[:, 0::2, 0::2], wide[:, 1::2, 1::2] = (u * c) @ u.mT, (v * c) @ v.mT
            wide[:, 1::2, 0::2], wide[:, 0::2, 1::2] = (v * s) @ u.mT, -(u * s) @ v.mT
            assert np.max(np.abs(wide - y)) < 1e-15
            gram = wide.mT @ wide - np.eye(y.shape[-1])
            exact = max(exact, float(np.max(np.abs(gram))))
        half = 21  # the rows of U~ at n_max = 40
        gamma = half * 2.0**-53 / (1 - half * 2.0**-53)
        assert read.defect[0] >= ws.kx_eig_gram_norms[0] + gamma
        assert exact <= read.defect[0] < 1e-12

    def test_three_forms_share_diagonal_averages(self):
        ws = FockWorkspace(40)
        state = thermal_state(ws, 1.0, 1.0)
        zeta, phi = 0.5, 1.1
        chi, theta = float(chi_of(zeta, phi)), float(theta_of(zeta, phi))
        means = [
            unitary_product(ws, (zeta,), (phi,), [state]).read(0, 0)[0],
            unitary_equiv(ws, [chi], [state]).read(0, 0)[0],
            ref.reads(evolution_endpoint(-chi, -theta, ws), state)[0],
        ]
        analytic = (state.mean_number() + 1.0) * math.cosh(chi) - 1.0
        assert means[0] == pytest.approx(means[1], abs=1e-10)
        assert means[1] == pytest.approx(means[2], abs=1e-12)
        assert means[1] == pytest.approx(analytic, abs=1e-9)

    @pytest.mark.parametrize("zeta", DEFAULTS["oracle"]["zeta_grid"])
    @pytest.mark.parametrize("phi", DEFAULTS["oracle"]["phi_grid"])
    def test_time_ordered_form_is_the_equiv_chain_times_a_phase(self, zeta, phi):
        # the gate reads the tiev records from the un2 read: U_tiev = U_equiv
        # exp(i theta K_z), and the outer phase moves no population
        ws = FockWorkspace(30)
        chi, theta = float(chi_of(zeta, phi)), float(theta_of(zeta, phi))
        tiev = evolution_endpoint(-chi, -theta, ws)
        shifted = ref.endpoint_form(chi, theta, ws) @ _phase_kz(ws, theta)
        for a, b in zip(tiev.blocks, shifted.blocks):
            assert np.max(np.abs(a - b)) <= 1e-14
        state = thermal_state(ws, 3.0, 1.0)
        read = _grid_read("evolution_endpoint", -chi, -theta, ws, [state])
        mean, second, edge = read.moments[:, 0, 0]
        _close((mean, second - mean * mean, edge), ref.reads(tiev, state), rel=1e-11, mass_abs=1e-24)

    def test_phis_share_the_squeeze_and_its_boundary_weights(self):
        # the squeezed state's boundary row guards every phi of its zeta: it is
        # exp(i zeta K_y)'s, the endpoint form's at chi = zeta, read from the
        # same factors by the same helper, and the kernel's Y's last row to
        # rounding; a grid of phis reads what each phi reads alone
        ws = FockWorkspace(30)
        y = _exp_i_ky(ws, 0.9)
        states = [thermal_state(ws, bw, 1.0) for bw in (3.0, 1.0)]
        read = unitary_product(ws, (0.9,), (0.5, 1.5), states)
        squeezed = unitary_equiv(ws, [0.9], states).moments[-1]
        assert np.array_equal(read.occupancy, np.maximum(read.moments[-1], squeezed))
        kernel = np.array([y.boundary_weights @ state.probs for state in states])
        assert squeezed[:, 0] == pytest.approx(kernel, rel=1e-12)
        for j, phi in enumerate((0.5, 1.5)):
            alone = unitary_product(ws, (0.9,), (phi,), states)
            assert np.allclose(alone.moments[..., 0], read.moments[..., j], rtol=1e-13, atol=1e-28)

    def test_truncation_guard_trips_on_aggressive_squeezing(self):
        ws = FockWorkspace(28)
        # fits comfortably unsqueezed
        state = thermal_state(ws, 1.0, 1.0)
        read = unitary_product(ws, (2.5,), (1.0,), [state])
        with pytest.raises(TruncationError, match="unitary_product: boundary occupancy"):
            read.read(0, 0)

    def test_guard_reads_the_interior_phase(self):
        # the phase between squeeze and anti-squeeze stops them cancelling, so the
        # final state leaks past the budget although squeeze and un-squeeze alone do not
        ws = FockWorkspace(30)
        state = thermal_state(ws, 2.0, 1.0)
        d, y = ref.quarter_phases(ws), _exp_i_ky(ws, 0.8)
        read = unitary_product(ws, (0.8,), (3.0,), [state])
        with pytest.raises(TruncationError):
            read.read(0, 0)
        # exp(+-0.8 i K_x) = D+ exp(+-0.8 i K_y) D as whole factors
        squeeze = ref.dag(d) @ y @ d
        anti_squeeze = ref.dag(d) @ ref.block_operator(ws, [b.T for b in y.blocks]) @ d
        factors = (squeeze, _phase_kz(ws, -3.0), anti_squeeze)
        product = ref.product_form(0.8, 3.0, ws)
        assert boundary_occupancy(product, state) > LEAK_TOL
        assert evolved_boundary_occupancy(factors, state) >= boundary_occupancy(product, state)
        assert read.moments[-1, 0, 0] == pytest.approx(boundary_occupancy(product, state), rel=1e-12)

    def test_boundary_occupancy_small_in_guarded_regime(self):
        ws = FockWorkspace(60)
        state = thermal_state(ws, 1.0, 1.0)
        read = unitary_equiv(ws, [0.6], [state])
        assert read.read(0, 0)[2] == read.occupancy[0, 0] < 1e-12
        assert boundary_occupancy(ref.endpoint_form(0.6, 0.0, ws), state) < 1e-12


# at n_max = 30 each form at these arguments is admitted for the cold state
# (beta omega = 3) and trips the guard for the hot one (beta omega = 1)
_CHI, _THETA = float(chi_of(0.9, 1.5)), float(theta_of(0.9, 1.5))
BAND_ARGS = {
    "unitary_product": (0.9, 1.5),
    "unitary_equiv": (_CHI, _THETA),
    "evolution_endpoint": (-_CHI, -_THETA),
}


def _cold_state(ws):
    """The vacuum to 1e-17, admitted by the thermal guard at every n_max."""
    return thermal_state(ws, 40.0, 1.0)


class TestProductDefectBound:
    """un1's unitarity defect is a bound from its factors (`_product_defect_bound`):
    un2's bound on Y = W R W^T at the squeeze's rotation, composed with P."""

    @settings(max_examples=60)
    @given(
        n_max=st.integers(2, 40),
        zeta=st.floats(0.0, 1.5),
        phi=st.floats(0.0, 2.0 * math.pi),
    )
    def test_bound_is_never_below_the_gram_defect(self, n_max, zeta, phi):
        # the exact C = Y^T P Y of `kx_eig`'s factors, the computed rotation at
        # zeta and the computed phases, in extended precision (its own rounding
        # ~1e-18): the bound certifies the factors, not the read's rounding
        ws = FockWorkspace(n_max)
        read = unitary_product(ws, (zeta,), (phi,), [_cold_state(ws)])
        exact = 0.0
        phases = fock._kz_phases(ws, (-phi,))
        for (sigma, u, v), p in zip(ws.kx_eig, phases):
            c, s = (x.astype(np.longdouble) for x in fock._rotation(sigma, (zeta,)))
            u, v = u.astype(np.longdouble), v.astype(np.longdouble)
            y = np.empty((len(u), 2 * u.shape[-1], 2 * u.shape[-1]), np.longdouble)
            y[:, 0::2, 0::2], y[:, 1::2, 1::2] = (u * c.mT) @ u.mT, (v * c.mT) @ v.mT
            y[:, 1::2, 0::2], y[:, 0::2, 1::2] = (v * s.mT) @ u.mT, -(u * s.mT) @ v.mT
            core = y.mT @ (p.astype(np.clongdouble) * y)
            gram = core.conj().mT @ core - np.eye(y.shape[-1])
            exact = max(exact, float(np.max(np.abs(gram))))
        assert exact <= read.defect[0] < 1e-11

    @staticmethod
    def _derived(m, delta, eta, eps_y, eps_p):
        """un2's and un1's bounds as the `fock` docstring derives them, in exact
        rationals and without the allowance for evaluating them in floats."""
        u = Fraction(1, 2**53)

        def gamma(k):
            return k * u / (1 - k * u)

        def moduli(eps):
            return (Fraction(eps) + gamma(2)) / (1 - gamma(2))

        def conjugation(g, e):
            return g + e * (1 + g) + g * (1 + e) * (1 + g)

        kappa = (1 + Fraction(delta)) / (1 - gamma(m))
        g = (Fraction(eta) + m * gamma(m) * kappa) / (1 - gamma(m))
        un2 = conjugation(g, moduli(eps_y))
        return un2, conjugation(un2, moduli(eps_p)), 1 + gamma(64)

    @pytest.mark.parametrize(
        "m, delta, eta, eps_y, eps_p",
        [
            (1, 0.0, 0.0, 0.0, 0.0),
            (21, 2.7e-15, 6.2e-15, 4.4e-16, 2.2e-16),
            (61, 3.1e-15, 1.7e-14, 6.7e-16, 4.4e-16),
            (476, 1e-12, 3e-11, 1e-13, 1e-14),
            # inputs of distinct sizes, so that every term and factor shows
            (7, 1e-3, 2e-2, 3e-4, 5e-3),
            (3, 0.1, 0.3, 0.05, 0.2),
        ],
    )
    def test_bounds_are_their_derivation(self, m, delta, eta, eps_y, eps_p):
        # each float bound is at least its exact value, and above it by no more
        # than its allowance 1 + gamma_64 and a few ulp: a dropped or padded
        # term fails.  un1 carries un2's allowance inside it, twice in its
        # b (1 + e) (1 + b) term, and one of its own
        un2, un1, allowance = self._derived(m, delta, eta, eps_y, eps_p)
        got2 = Fraction(fock._equiv_defect_bound(m, delta, eta, eps_y))
        got1 = Fraction(fock._product_defect_bound(m, delta, eta, eps_y, eps_p))
        ulps = 1 + Fraction(4, 2**53)
        assert un2 <= got2 <= un2 * allowance * ulps
        assert un1 <= got1 <= un1 * allowance**3 * ulps

    @pytest.mark.parametrize("n_max", [60, 120])
    def test_bound_stays_below_1e11_to_n_max_120(self, n_max):
        # the bound grows with the factors' half-block size m and with each
        # input, so m = 61 (n_max = 120) at inputs above any measured here bounds
        # every n_max <= 120
        ws = FockWorkspace(n_max)
        delta, eta = ws.kx_eig_gram_norms
        assert delta < 1e-13 and eta < 1e-12
        cap = fock._product_defect_bound(61, 1e-13, 1e-12, 1e-15, 1e-15)
        assert unitary_product(ws, (1.5,), (2.0,), [_cold_state(ws)]).defect[0] < cap < 1e-11

    def test_bound_reaches_the_gate_tolerance_near_n_max_900(self):
        # the m^2 u terms alone, m = (n_max + 2) // 2: past n_max ~ 950 the
        # record would fail falsely, the safe direction
        bound = fock._product_defect_bound
        assert bound(460, 0.0, 0.0, 0.0, 0.0) < 1e-10 < bound(480, 0.0, 0.0, 0.0, 0.0)

    def test_chain_retains_its_weights_not_a_core(self, monkeypatch):
        # a read of three zetas at many phis keeps its moments, occupancies and
        # defects plus a small fixed overhead, and no squeeze: it builds, reads
        # and lets go one bucket's Y at a time, so its peak is one bucket's
        # working set beside the moments and the per-bucket inputs, never a
        # whole Y
        ws = FockWorkspace(60)
        states = [thermal_state(ws, bw, 1.0) for bw in (1.0, 2.0, 3.0)]
        unitary_product(ws, (0.7,), (0.3,), states)  # builds kx_eig and its Grams, kept by ws
        y_bytes = sum(s.nbytes for s in _exp_i_ky(ws, 0.7).stacks)
        bucket_bytes = max(s.nbytes for s in _exp_i_ky(ws, 0.7).stacks)
        phis = np.linspace(0.1, 3.0, 10)
        kernel, live = fock._squeeze, []

        def traced_kernel(*args):
            live.append(tracemalloc.get_traced_memory()[0])
            return kernel(*args)

        monkeypatch.setattr(fock, "_squeeze", traced_kernel)
        tracemalloc.start()
        try:
            read = unitary_product(ws, (0.3, 0.7, 1.1), phis, states)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = read.moments.nbytes + read.occupancy.nbytes + read.defect.nbytes
        assert retained <= kept + 16_384 < bucket_bytes
        assert len(live) == 3 * len(ws.buckets)
        # live at the first kernel call: the padded diagonals of N and each state,
        # the 2 x 10 phase columns, the populations and one zeta's rotations
        padded = 8 * sum(b.width * len(b.sizes) for b in ws.buckets)
        inputs = padded * (1 + len(states) + 2 * len(phis) + 1) + 8 * len(states) * len(ws.n)
        assert live[0] < inputs + 16_384
        # from the second kernel call on, the read's scratch is alive: Y, Y
        # scaled by a diagonal, M_N and R, each the largest bucket's size, lent
        # again to every bucket; no earlier bucket's Y, nor its sandwiches, is
        # alive beside it when the next is built
        assert live[1] - live[0] < 4 * bucket_bytes + 16_384
        assert max(live[1:]) - live[1] < 16_384
        # above that, the scratch and one bucket's smaller temporaries at once;
        # a read that held whole squeezes peaked near 3 Y
        assert peak - live[0] < 5 * bucket_bytes < 3 * y_bytes


class TestKeptChains:
    """One read, kept across states, is guarded against each of them."""

    @staticmethod
    def _guard(read, state):
        try:
            return read.read(state, 0)
        except TruncationError:
            return None

    @pytest.mark.parametrize("name", sorted(BAND_ARGS))
    def test_repeat_call_reguards_every_state(self, name):
        args = BAND_ARGS[name]
        ws = FockWorkspace(30)
        # the hot state comes second and must still trip; the cold one after it
        # must still be admitted, with the reads it had the first time
        states = [thermal_state(ws, bw, 1.0) for bw in (3.0, 1.0, 3.0)]
        read = _grid_read(name, *args, ws, states)
        decisions = [self._guard(read, i) for i in range(3)]
        assert decisions[1] is None
        assert decisions[0] is not None and decisions[2] == decisions[0]
        # the same decisions and reads as one state at a time on fresh workspaces
        for bw, decision in zip((3.0, 1.0), decisions):
            fresh_ws = FockWorkspace(30)
            fresh = self._guard(_grid_read(name, *args, fresh_ws, [thermal_state(fresh_ws, bw, 1.0)]), 0)
            assert (fresh is None) == (decision is None)
            assert fresh is None or fresh == pytest.approx(decision, rel=1e-13, abs=1e-28)

    def test_state_of_another_workspace_rejected(self):
        ws, other = FockWorkspace(12), FockWorkspace(12)
        state = thermal_state(other, 3.0, 1.0)
        with pytest.raises(ValueError, match="different workspaces"):
            unitary_product(ws, (0.4,), (0.7,), [state])
        with pytest.raises(ValueError, match="different workspaces"):
            unitary_equiv(ws, [0.4], [state])


class TestInputChecks:
    """Each read refuses what it cannot read before any work, and the guard
    refuses a NaN occupancy."""

    @pytest.mark.parametrize("n_max", [2.5, 3.0, True, "7"])
    def test_non_integer_basis_size_rejected(self, n_max):
        with pytest.raises(ValueError, match="n_max must be an integer >= 1"):
            FockWorkspace(n_max)
        assert FockWorkspace(np.int64(7)).n_max == 7

    @pytest.mark.parametrize(
        "zetas, phis, name",
        [((math.nan,), (0.2,), "zeta"), ((0.4, -math.inf), (0.2,), "zeta"), ((0.4,), (0.2, math.inf), "phi")],
    )
    def test_product_form_refuses_a_non_finite_angle(self, zetas, phis, name):
        ws = FockWorkspace(12)
        state = thermal_state(ws, 3.0, 1.0)
        with pytest.raises(ValueError, match=f"^{name} must be finite, got"):
            unitary_product(ws, zetas, phis, [state])
        assert "kx_eig" not in vars(ws)

    @pytest.mark.parametrize("name", ["unitary_product", "unitary_equiv"])
    def test_empty_state_list_rejected(self, name):
        with pytest.raises(ValueError, match="^states must hold at least one thermal state"):
            _grid_read(name, 0.4, 0.7, FockWorkspace(12), [])

    def test_guard_refuses_a_nan_occupancy(self):
        ws = FockWorkspace(12)
        read = unitary_equiv(ws, [0.4], [thermal_state(ws, 3.0, 1.0)])
        assert len(read.read(0, 0)) == 3
        broken = dataclasses.replace(read, occupancy=np.full_like(read.occupancy, math.nan))
        with pytest.raises(TruncationError, match="boundary occupancy nan exceeds"):
            broken.read(0, 0)


class TestAgainstDenseExponentials:
    """Each form against scipy's expm of dense generators made from the
    ladder operators, so no block of the oracle is reused: its operator, and
    the grid read's moments against |U|^2 p over the full basis."""

    TOL = 1e-12

    @pytest.fixture(scope="class")
    def dense(self):
        return (FockWorkspace(10), *ref.generators(10))

    @staticmethod
    def _points():
        rng = np.random.default_rng(4033)
        return [rng.uniform((0.1, 0.1, -1.5), (1.5, 3.0, 1.5)) for _ in range(4)]

    @staticmethod
    def _check_reads(read, unitaries):
        # bw = 3 at n_max = 10: the thermal guard admits it, and the reads are
        # compared whether or not the squeezing trips the leakage guard
        for j, u in enumerate(unitaries):
            n1, n2 = np.divmod(np.arange(len(u)), 11)
            n = (n1 + n2).astype(float)
            pops = np.abs(u) ** 2 @ ref.thermal_weights(10, 3.0)
            edge = pops[(n1 == 10) | (n2 == 10)].sum()
            mean = n @ pops
            _close_read(read, 0, j, (mean, (n * n) @ pops - mean * mean, edge), rel=1e-11)

    def test_unitary_product(self, dense):
        ws, kx, _, kz = dense
        points = self._points()
        for zeta, phi, _ in points:
            expected = expm(-1j * zeta * kx) @ expm(-1j * phi * kz) @ expm(1j * zeta * kx)
            assert np.max(np.abs(ref.to_dense(ref.product_form(zeta, phi, ws)) - expected)) < self.TOL
            read = unitary_product(ws, (zeta,), (phi,), [thermal_state(ws, 3.0, 1.0)])
            self._check_reads(read, [expected])

    def test_unitary_equiv(self, dense):
        ws, _, ky, kz = dense
        points = self._points()
        unitaries = []
        for chi, theta, _ in points:
            expected = expm(1j * theta * kz) @ expm(1j * chi * ky) @ expm(-1j * theta * kz)
            assert np.max(np.abs(ref.to_dense(ref.endpoint_form(chi, theta, ws)) - expected)) < self.TOL
            unitaries.append(expected)
        # every point of the grid at once
        chis = [chi for chi, _, _ in points]
        self._check_reads(unitary_equiv(ws, chis, [thermal_state(ws, 3.0, 1.0)]), unitaries)

    def test_real_kernel(self, dense):
        ws, _, ky, _ = dense
        for s, _, s_neg in self._points():
            for angle in (s, s_neg):
                y = _exp_i_ky(ws, angle)
                assert np.max(np.abs(ref.to_dense(y) - expm(1j * angle * ky))) < self.TOL

    def test_evolution_endpoint(self, dense):
        ws, _, ky, kz = dense
        signs = set()
        for _, f_z, f_y in self._points():
            expected = expm(-1j * f_z * kz) @ expm(-1j * f_y * ky)
            u = evolution_endpoint(f_y, f_z, ws)
            assert np.max(np.abs(ref.to_dense(u) - expected)) < self.TOL
            signs.add(np.sign(f_y))
        assert signs == {-1.0, 1.0}


class TestRealKernel:
    """exp(i s K_y) as one real orthogonal block per sector."""

    @pytest.mark.parametrize("n_max", [1, 2, 5])
    def test_parity_block_kernel_matches_dense_exponential(self, n_max):
        # n_max = 1 and 2 have a 1x1 sector with no odd state; odd sizes give U
        # one more column than V, a null column with singular value 0.  Each
        # bucket packs its sectors' U and V (ceil(m/2) and floor(m/2) square)
        # with the identity and their singular values with 0
        ws = FockWorkspace(n_max)
        for bucket, (sigma, u, v) in zip(ws.buckets, ws.kx_eig):
            eye = np.eye(bucket.width // 2)
            assert sigma.shape == (len(bucket.sizes), len(eye)) and u.shape == v.shape == (*sigma.shape, len(eye))
            for j, m in enumerate(bucket.sizes):
                for factor, real in ((u[j], -(-m // 2)), (v[j], m // 2)):
                    assert np.array_equal(factor[real:], eye[real:])
                    assert np.array_equal(factor[:, real:], eye[:, real:])
                assert not np.any(sigma[j, m // 2:])
        _, ky, _ = ref.generators(n_max)
        for angle in (0.9, -1.7):
            expected = expm(1j * angle * ky)
            assert np.max(np.abs(ref.to_dense(_exp_i_ky(ws, angle)) - expected)) < 1e-13

    def test_blocks_are_real_orthogonal_checkerboards(self):
        ws = FockWorkspace(120)
        for s in (0.4, 1.2, -2.3):
            for y, y_back in zip(_exp_i_ky(ws, s).blocks, _exp_i_ky(ws, -s).blocks):
                m = y.shape[0]
                assert y.dtype == np.float64
                assert np.max(np.abs(y.T @ y - np.eye(m))) <= 1e-13
                # the cos(s K_x) part is even in s and lives on j - k even, the
                # sin(s K_x) part odd in s on j - k odd: each is exactly zero on
                # the other's checkerboard, so neither leaks into the other
                odd = np.subtract.outer(np.arange(m), np.arange(m)) % 2 == 1
                assert not np.any((y + y_back)[odd])
                assert not np.any((y - y_back)[~odd])


class TestBucketPadding:
    """Sectors padded to the next multiple of 8 across the bucket edges: the
    padding of every unitary factor is exactly the identity, and every read
    gives it weight 0 (`fock` module docstring)."""

    @settings(max_examples=20)
    @example(n_max=7, zeta=1.5, phi=2.0)
    @example(n_max=8, zeta=0.9, phi=1.3)
    @example(n_max=9, zeta=0.4, phi=3.0)
    @example(n_max=16, zeta=1.2, phi=0.7)
    @example(n_max=17, zeta=0.0, phi=5.5)
    @given(n_max=st.integers(1, 40), zeta=st.floats(0.0, 1.5), phi=st.floats(0.0, 2.0 * math.pi))
    def test_padding_is_the_identity_and_weighs_nothing(self, n_max, zeta, phi):
        ws = FockWorkspace(n_max)
        chi, theta = float(chi_of(zeta, phi)), float(theta_of(zeta, phi))
        y = _exp_i_ky(ws, zeta)
        un1 = ref.product_form(zeta, phi, ws)
        un2 = ref.endpoint_form(chi, theta, ws)
        tiev = evolution_endpoint(-chi, -theta, ws)  # its phase is built on the padded K_z
        assert [b.width for b in ws.buckets] == list(range(8 * math.ceil((n_max + 1) / 8), 0, -8))
        for op in (y, un1, un2, tiev):
            for b, stack in zip(ws.buckets, op.stacks):
                positions = np.arange(b.width)
                real = positions < b.sizes[:, None]
                padded = ~(real[:, :, None] & real[:, None, :])
                eye = np.broadcast_to(np.eye(b.width), stack.shape)
                assert np.array_equal(stack[padded], eye[padded])
                boundary = stack[np.arange(len(b.sizes)), b.sizes - 1]
                assert not np.any(boundary[~real])
            assert len(op.boundary_weights) == len(ws.n)
        # the grid reads of the padded stacks against the per-sector reads of
        # the real blocks alone
        state = _cold_state(ws)
        read1 = unitary_product(ws, (zeta,), (phi,), [state])
        read2 = unitary_equiv(ws, [chi], [state])
        for read, op in ((read1, un1), (read2, un2)):
            _close_read(read, 0, 0, ref.reads(op, state), rel=1e-9, mass_abs=1e-30)
        # the views and dense assembly of the stacks against dense exponentials
        ref_y = ref.blockwise(n_max, lambda p, kz: expm(-zeta * (p - p.T) / 2.0))
        ref_un1 = ref.blockwise(n_max, ref.product_block(zeta, phi))
        assert np.max(np.abs(ref.to_dense(y) - ref_y)) < 1e-12
        assert np.max(np.abs(ref.to_dense(un1) - ref_un1)) < 1e-12


# each form at n_max = 30; at (0.9, 0.5) the intermediate squeeze of the
# product form holds more boundary weight than its final state
SUMMARY_CASES = sorted(BAND_ARGS.items()) + [("unitary_product", (0.9, 0.5))]


class TestChainSummaries:
    """Each form's grid read against dense linear algebra on its product, over
    the full basis with no sector folding."""

    @pytest.mark.parametrize("name, args", SUMMARY_CASES)
    def test_moments_and_guard_match_the_product_route(self, name, args):
        ws = FockWorkspace(30)
        states = [thermal_state(ws, bw, 1.0) for bw in (1.0, 3.0)]
        read = _grid_read(name, *args, ws, states)
        for i, bw in enumerate((1.0, 3.0)):
            reference = _dense_reads(OPERATORS[name](*args, ws), bw)
            _close_read(read, i, 0, reference, rel=1e-12)
            partials = [reference[2]]
            if name == "unitary_product":
                # the intermediate squeeze exp(i zeta K_x) has the |.|^2 of exp(i zeta K_y)
                squeeze = evolution_endpoint(-args[0], 0.0, ws)
                partials.append(_dense_reads(squeeze, bw)[2])
            assert read.occupancy[i, 0] == pytest.approx(max(partials), rel=1e-9, abs=1e-26)
            if max(partials) > LEAK_TOL:
                with pytest.raises(TruncationError):
                    read.read(i, 0)
            else:
                _close(read.read(i, 0), reference, rel=1e-12)

    @pytest.mark.parametrize("n_max", [1, 7, 8, 9, 30])
    def test_product_weights_are_those_of_its_lazy_core(self, n_max):
        # un1's read is that of its core Y^T P Y, formed here from the same Y
        # and P and read per sector as |core|^2 p; the read itself forms no core
        ws = FockWorkspace(n_max)
        y = _exp_i_ky(ws, 0.6)
        state = _cold_state(ws)
        read = unitary_product(ws, (0.6,), (1.3,), [state])
        core = ref.block_operator(ws, [b.T for b in y.blocks]) @ _phase_kz(ws, -1.3) @ y
        _close_read(read, 0, 0, ref.reads(core, state), rel=1e-12, mass_abs=1e-30)


@settings(max_examples=12)
@example(n_max=20, zeta=1.2, zeta2=0.5, phi=2.5, bw=1.5)
@example(n_max=25, zeta=0.3, zeta2=1.4, phi=0.2, bw=4.0)
@given(
    n_max=st.integers(20, 32),
    zeta=st.floats(0.0, 1.5),
    zeta2=st.floats(0.0, 1.5),
    phi=st.floats(0.0, 2.0 * math.pi),
    bw=st.floats(1.5, 4.0),
)
def test_grid_reads_match_the_dense_exponentials(n_max, zeta, zeta2, phi, bw):
    # both grid reads against |U|^2 p of dense `expm`s on the `kron` ladder
    # blocks: every n_max has sectors of every size 1 ... n_max + 1, so the
    # last state of a sector sits at even and at odd positions; every boundary
    # mass is a sum of squares, never negative.  The product form reads the
    # grid (zeta, zeta2) x (phi, 0) at its zeta-major index, which a second phi
    # tells from the phi-major one
    ws = FockWorkspace(n_max)
    state = thermal_state(ws, bw, 1.0)
    chi, theta = float(chi_of(zeta, phi)), float(theta_of(zeta, phi))
    un1 = unitary_product(ws, (zeta, zeta2), (phi, 0.0), [state])
    un2 = unitary_equiv(ws, [chi], [state])
    forms = [(un2, 0, ref.endpoint_block(chi, theta))] + [
        (un1, j, ref.product_block(z, p))
        for j, (z, p) in enumerate((z, p) for z in (zeta, zeta2) for p in (phi, 0.0))
    ]
    for read, j, block in forms:
        _close_read(read, 0, j, ref.dense_reads(n_max, block, bw), rel=1e-10, mass_abs=1e-26)
    for read in (un1, un2):
        assert np.all(read.moments[-1] >= 0.0) and np.all(read.occupancy >= 0.0)


@settings(max_examples=6)
@example(n_max=30, zeta=1.2, phi=0.5, bw=1.0, bw2=4.0)
@example(n_max=30, zeta=0.8, phi=3.0, bw=2.0, bw2=4.0)
@given(
    n_max=st.integers(28, 32),
    zeta=st.floats(0.5, 2.0),
    phi=st.floats(0.0, 2.0 * math.pi),
    bw=st.floats(1.0, 4.0),
    bw2=st.floats(1.0, 4.0),
)
def test_refused_states_are_never_read(n_max, zeta, phi, bw, bw2):
    # zeta reaches past the squeezed guard at these bases, so one read holds
    # states it refuses beside states it admits (the first example); the second
    # trips the final guard alone, at phi = 3 for bw = 2.  A state the squeezed
    # guard refuses has no R, and `read` refuses each of its points; every
    # admitted point reads
    # the dense reference's <N> and boundary mass, and every guarded
    # occupancy is the worse of the squeezed and the final boundary mass
    ws = FockWorkspace(n_max)
    read = unitary_product(ws, (zeta,), (phi, 0.0), [thermal_state(ws, b, 1.0) for b in (bw, bw2)])
    for i, b in enumerate((bw, bw2)):
        squeezed = ref.dense_reads(n_max, ref.endpoint_block(zeta, 0.0), b)[2]
        for j, p in enumerate((phi, 0.0)):
            reference = ref.dense_reads(n_max, ref.product_block(zeta, p), b)
            worst = max(squeezed, reference[2])
            tol = 1e-26 + 1e-14 * math.sqrt(worst)  # as `_close` compares a mass
            assert read.occupancy[i, j] == pytest.approx(worst, rel=1e-9, abs=tol)
            assert math.isnan(read.moments[0, i, j]) == (squeezed > LEAK_TOL)
            if read.occupancy[i, j] > LEAK_TOL:
                with pytest.raises(TruncationError):
                    read.read(i, j)
            else:
                _close(read.read(i, j), reference, rel=1e-10)


@settings(max_examples=25, deadline=None)
@example(n_max=4, chis=[0.0, 2.5], zetas=[0.7], phis=[0.0, -3.0], bws=[8.0])
@given(
    n_max=st.integers(4, 40),
    chis=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3),
    zetas=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=2),
    phis=st.lists(st.floats(-2.0 * math.pi, 2.0 * math.pi), min_size=1, max_size=3),
    bws=st.lists(st.floats(1.0, 8.0), min_size=1, max_size=2),
)
def test_lazy_bounds_and_mean_only_reads_are_the_full_reads(n_max, chis, zetas, phis, bws):
    # a read forms no Gram until its defect is read, and a mean-only read of
    # the endpoint form is the full read without its <N^2> row, bit for bit;
    # each bound is `_equiv_defect_bound` or `_product_defect_bound` of the
    # moduli of its own rotations and phases, recomputed here one angle at a time
    ws = FockWorkspace(n_max)
    try:
        states = [thermal_state(ws, bw, 1.0) for bw in bws]
    except TruncationError:
        assume(False)
    full = unitary_equiv(ws, chis, states)
    mean_only = unitary_equiv(ws, chis, states, with_variance=False)
    product = unitary_product(ws, zetas, phis, states)
    assert "kx_eig_gram_norms" not in vars(ws) and "sectors" not in vars(ws)
    assert np.array_equal(mean_only.moments, full.moments[[0, 2]])
    assert np.array_equal(mean_only.occupancy, full.occupancy)
    half, norms = (n_max + 2) // 2, ws.kx_eig_gram_norms

    def rotation(angle):
        parts = (fock._rotation(sigma, (angle,)) for sigma, _, _ in ws.kx_eig)
        return max(float(np.max(np.abs(1.0 - (c * c + s * s)))) for c, s in parts)

    def phases(phi):
        p = np.exp(1j * (ws.kz * -phi))
        return float(np.max(np.abs(1.0 - (p.real**2 + p.imag**2))))

    equiv = [fock._equiv_defect_bound(half, *norms, rotation(chi)) for chi in chis]
    assert full.defect.tolist() == mean_only.defect.tolist() == equiv
    assert product.defect.tolist() == [
        fock._product_defect_bound(half, *norms, rotation(zeta), phases(phi))
        for zeta in zetas for phi in phis
    ]


_ANGLES = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3)
_GRID_READS = st.one_of(
    st.tuples(st.just("equiv"), st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3), st.booleans()),
    st.tuples(st.just("product"), _ANGLES, st.lists(st.floats(-6.3, 6.3), min_size=1, max_size=3)),
)


def _grid_arrays(read):
    return read.moments, read.occupancy, read.moduli


def _same_read(a, b) -> bool:
    """Bit for bit, NaN positions included."""
    return all(np.array_equal(x, y, equal_nan=True) for x, y in zip(_grid_arrays(a), _grid_arrays(b)))


@settings(max_examples=15, deadline=None)
@example(n_max=40, bws=[1.0, 4.0], reads=[("product", [0.3, 1.6], [0.5, 2.0]), ("equiv", [1.1], True),
                                          ("product", [1.6, -0.8], [3.0]), ("equiv", [0.2, 2.5], False)])
@given(
    n_max=st.integers(4, 40),
    bws=st.lists(st.floats(1.0, 8.0), min_size=1, max_size=2),
    reads=st.lists(_GRID_READS, min_size=2, max_size=4),
)
def test_reads_reusing_scratch_are_those_of_a_fresh_workspace(n_max, bws, reads):
    # each grid read reuses its scratch buffers across its zetas and buckets
    # (module docstring, Scratch): interleaved reads on one workspace must be
    # the same reads on a fresh one bit for bit, no read may change what an
    # earlier one returned, and a product read's zetas are each zeta read alone
    # (read on fresh workspaces in reverse order, so no buffer of theirs holds
    # what the joint read's previous zeta left there)

    def grid_read(ws, kind, angles, extra):
        states = [thermal_state(ws, bw, 1.0) for bw in bws]
        if kind == "equiv":
            return unitary_equiv(ws, angles, states, with_variance=extra)
        return unitary_product(ws, angles, extra, states)

    ws = FockWorkspace(n_max)
    try:
        [thermal_state(ws, bw, 1.0) for bw in bws]
    except TruncationError:
        assume(False)
    done = []
    for read in reads:
        got = grid_read(ws, *read)
        for _, earlier, arrays in done:
            assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(_grid_arrays(earlier), arrays))
        done.append((read, got, [a.copy() for a in _grid_arrays(got)]))
    for (kind, angles, extra), got, _ in done:
        assert _same_read(got, grid_read(FockWorkspace(n_max), kind, angles, extra))
        if kind == "product":
            n = len(extra)
            for i in reversed(range(len(angles))):
                alone = grid_read(FockWorkspace(n_max), kind, angles[i : i + 1], extra)
                at = slice(i * n, (i + 1) * n)
                assert np.array_equal(got.moments[..., at], alone.moments, equal_nan=True)
                assert np.array_equal(got.occupancy[:, at], alone.occupancy)
                assert np.array_equal(got.moduli[at], alone.moduli)


class TestPopulations:
    def test_population_route_matches_operator_route(self):
        # <N> of each form's grid read, and Delta^2 N of each that reads <N^2>,
        # against the evolved operator U+ (N + 1) U = 2 [cosh(chi) K_z - sinh(chi) K_x] (`hamiltonian_final` at
        # unit frequency), and its boundary mass against the dense reference, for
        # each form at seeded points inside the guard
        ws = FockWorkspace(40)
        rng = np.random.default_rng(20240611)
        for _ in range(4):
            bw, zeta, phi = rng.uniform(1.0, 3.0), rng.uniform(0.05, 0.6), rng.uniform(0.1, 3.0)
            state = thermal_state(ws, bw, 1.0)
            chi, theta = float(chi_of(zeta, phi)), float(theta_of(zeta, phi))
            for name, args in (
                ("unitary_product", (zeta, phi)),
                ("unitary_equiv", (chi, theta)),
                ("evolution_endpoint", (-chi, -theta)),
            ):
                mean, *var, edge = _grid_read(name, *args, ws, [state]).read(0, 0)
                evolved = hamiltonian_final(1.0, -chi, ws)
                assert mean + 1.0 == pytest.approx(expect(evolved, state), rel=1e-12)
                # un1 reads no <N^2>: the gate takes Delta^2 N from un2
                want = [] if name == "unitary_product" else [variance(evolved, state)]
                assert var == pytest.approx(want, rel=1e-12)
                assert edge == pytest.approx(
                    _dense_reads(OPERATORS[name](*args, ws), bw)[2], rel=1e-9, abs=1e-26
                )


class TestHamiltonianFinal:
    def test_reduces_to_number_form_at_zero_fy(self):
        ws = FockWorkspace(10)
        h = hamiltonian_final(0.7, 0.0, ws)
        assert np.max(np.abs(h.diagonal - 0.7 * (ws.n + 1.0))) < 1e-14
        assert not np.any(h.band)

    @settings(max_examples=30)
    @example(omega_f=0.35, f_y=-0.9, bw=1.0)
    @example(omega_f=2.0, f_y=2.0, bw=4.0)
    @given(
        omega_f=st.floats(0.0, 2.0, exclude_min=True, allow_subnormal=False),
        f_y=st.floats(-2.0, 2.0),
        bw=st.floats(1.0, 4.0),
    )
    def test_matches_the_ladder_generators(self, omega_f, f_y, bw):
        # <H> and Delta^2 H read from the diagonal and band against the dense
        # H made from the ladder operators and the thermal weights over the
        # full, unfolded basis.  n_max = 27 is the least basis the thermal
        # guard admits at bw = 1 (its boundary state holds 7.5e-13 there);
        # its 28 sectors fill four buckets
        ws = FockWorkspace(27)
        h = hamiltonian_final(omega_f, f_y, ws)
        dense = ref.hamiltonian(ws.n_max, omega_f, f_y)
        # the entries at the stored states first: both reads are even in the
        # band, so only the entries see its sign
        idx = np.concatenate([s.idx for s in ws.sectors])
        stored, scale = dense[np.ix_(idx, idx)], np.max(np.abs(dense))
        assert np.max(np.abs(np.diagonal(stored) - h.diagonal)) <= 1e-13 * scale
        assert np.max(np.abs(np.diagonal(stored, 1) - h.band[:-1])) <= 1e-13 * scale
        assert h.band[-1] == 0.0
        p = ref.thermal_weights(ws.n_max, bw)
        mean = np.diagonal(dense) @ p
        second = (dense * dense).sum(axis=1) @ p  # (H^2)_jj, H real symmetric
        state = thermal_state(ws, bw, 1.0)
        # the absolute term admits only the underflow of omega_f^2 near 1e-308
        assert expect(h, state) == pytest.approx(mean, rel=1e-12, abs=1e-300)
        assert variance(h, state) == pytest.approx(second - mean * mean, rel=1e-11, abs=1e-300)

    def test_thermal_average_closed_form(self):
        ws = FockWorkspace(60)
        beta, omega_i, omega_f, chi = 1.0, 1.0, 0.35, 0.9
        state = thermal_state(ws, beta, omega_i)
        h = hamiltonian_final(omega_f, -chi, ws)
        analytic = omega_f * math.cosh(chi) / math.tanh(beta * omega_i / 2.0)
        assert expect(h, state) == pytest.approx(analytic, abs=1e-9)

    def test_variance_is_affine_image_of_number_variance(self):
        ws = FockWorkspace(80)
        beta, omega_f, chi = 0.5, 0.1, 0.36057837857760945
        state = thermal_state(ws, beta, 1.0)
        h = hamiltonian_final(omega_f, -chi, ws)
        coth = 1.0 / math.tanh(beta / 2.0)
        expected = omega_f**2 * 0.5 * (math.cosh(2 * chi) * coth**2 - 1.0)
        assert variance(h, state) == pytest.approx(expected, rel=1e-9)


class TestExpectations:
    def test_vacuum_number_expectation(self):
        ws = FockWorkspace(20)
        state = thermal_state(ws, 1e3, 1.0)
        n = Tridiagonal(ws, ws.n, np.zeros_like(ws.n))
        assert expect(n, state) == pytest.approx(0.0, abs=1e-12)

    def test_thermal_number_expectation(self):
        ws = FockWorkspace(60)
        state = thermal_state(ws, 0.5, 1.0)
        n = Tridiagonal(ws, ws.n, np.zeros_like(ws.n))
        assert expect(n, state) == pytest.approx(MEAN_N_BETA_HALF, abs=1e-7)

    def test_workspace_mismatch_rejected(self):
        ws_a, ws_b = FockWorkspace(10), FockWorkspace(12)
        state = thermal_state(ws_b, 3.0, 1.0)
        with pytest.raises(ValueError):
            expect(hamiltonian_final(0.35, -0.9, ws_a), state)

    def test_dense_assembly_guard(self):
        ws = FockWorkspace(80)
        op = ref.diagonal(ws, ws.n)
        with pytest.raises(ValueError):
            ref.to_dense(op)

    def test_diagonal_fast_path_matches_generic(self):
        # n_max = 7 stacks 8 sectors of width 8: there a (k, W) diagonal taken for
        # a (k, W, W) block would broadcast without an error
        for n_max in (7, 12):
            ws = FockWorkspace(n_max)
            kx, _ = _block_generators(ws)
            diag = ref.diagonal(ws, ws.n)
            phase = _phase_kz(ws, 0.7)
            for a, b in ((diag, kx), (kx, diag), (diag, phase)):
                dense = ref.to_dense(a) @ ref.to_dense(b)
                assert np.max(np.abs(ref.to_dense(a @ b) - dense)) < 1e-14
            assert (diag @ phase).is_diagonal


class TestImmutability:
    @pytest.mark.parametrize("attr", ["blocks", "diags"])
    def test_assignment_raises(self, attr):
        ws = FockWorkspace(4)
        op = ref.diagonal(ws, ws.n)
        with pytest.raises(AttributeError):
            setattr(op, attr, getattr(op, attr))
