"""Truncated-Fock machinery: basis bookkeeping, generators, thermal states,
unitaries and the truncation guards."""

import contextlib
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import fock_reference as ref
from su11otto import fock
from su11otto.config import DEFAULTS
from su11otto.core import ProtocolEndpoints, chi_of, theta_of
from su11otto.errors import TruncationError
from su11otto.fock import (
    LEAK_TOL,
    THERMAL_BOUNDARY_TOL,
    THERMAL_LEAK_TOL,
    FockWorkspace,
    Tridiagonal,
    _exp_i_ky,
    _phase_kz,
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


def test_public_surface_is_pinned():
    # a new export, a test-only reference route included, is a deliberate edit of this list
    assert sorted(fock.__all__) == [
        "BlockOperator", "Chain", "FockWorkspace", "ThermalState", "Tridiagonal",
        "boundary_occupancy", "evolution_endpoint", "evolved_boundary_occupancy", "expect",
        "hamiltonian_final", "thermal_state", "unitary_equiv", "unitary_product",
        "variance",
    ]
    assert all(hasattr(fock, name) for name in fock.__all__)


def test_chain_surface_is_pinned():
    # `read` is the one read of a chain's moments, and it holds the leakage
    # guard: a new field or public method is a deliberate edit of these lists
    assert [f.name for f in dataclasses.fields(fock.Chain)] == [
        "ws", "form_core", "outer", "weights", "label", "defect_bound",
    ]
    public = sorted(name for name in dir(fock.Chain) if not name.startswith("_"))
    assert public == ["core", "defect", "defect_bound", "occupancy", "read"]


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
            ref.product(unitary_product(_exp_i_ky(ws, 0.7), 1.3)),
            ref.product(unitary_equiv(ProtocolEndpoints(0.9, 0.4), ws)),
            ref.product(evolution_endpoint(-0.6, 1.1, ws)),
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


class TestUnitaries:
    def test_zero_squeezing_is_pure_phase(self):
        ws = FockWorkspace(8)
        u = ref.product(unitary_product(_exp_i_ky(ws, 0.0), 0.7))
        for block, kz in zip(u.blocks, ref.per_sector(ws, ws.kz)):
            assert np.max(np.abs(block - np.diag(np.exp(-0.7j * kz)))) < 1e-14

    def test_zero_phase_is_identity(self):
        ws = FockWorkspace(8)
        u = ref.product(unitary_product(_exp_i_ky(ws, 1.1), 0.0))
        for block in u.blocks:
            assert np.max(np.abs(block - np.eye(block.shape[0]))) < 1e-12

    def test_zero_chi_equiv_is_identity(self):
        ws = FockWorkspace(8)
        u = ref.product(unitary_equiv(ProtocolEndpoints(chi=0.0, theta=1.2), ws))
        for block in u.blocks:
            assert np.max(np.abs(block - np.eye(block.shape[0]))) < 1e-13

    def test_pure_phase_endpoint_preserves_diagonal_averages(self):
        ws = FockWorkspace(30)
        state = thermal_state(ws, 1.0, 1.0)
        chain = evolution_endpoint(0.0, 1.3, ws)
        assert chain.read(state)[0] == pytest.approx(state.mean_number(), abs=1e-12)

    def test_unitarity_defects(self):
        ws = FockWorkspace(30)
        for chain in (
            unitary_product(_exp_i_ky(ws, 0.8), 0.7),
            unitary_equiv(ProtocolEndpoints(chi=0.9, theta=0.4), ws),
            evolution_endpoint(-0.9, -0.4, ws),
        ):
            assert ref.product(chain).unitarity_defect() < 1e-12

    @pytest.mark.parametrize("build", ["unitary_equiv", "evolution_endpoint"])
    def test_real_core_record_bounds_its_exact_gram(self, build):
        # a built real core's record is its computed Gram plus gamma_m kappa, the
        # most the exact defect can exceed it by: at or above the Gram's defect
        # summed in extended precision, whose own rounding is ~1e-18
        ws = FockWorkspace(40)
        chain = BUILDERS[build](0.9, 0.4, ws)
        wide = [b.astype(np.longdouble) for b in chain.core.blocks]
        exact = max(float(np.max(np.abs(b.T @ b - np.eye(len(b))))) for b in wide)
        gamma_m = 41 * 2.0**-53 / (1 - 41 * 2.0**-53)
        assert chain.defect >= chain.core.unitarity_defect() + gamma_m
        assert exact <= chain.defect < 1e-13

    def test_three_forms_share_diagonal_averages(self):
        ws = FockWorkspace(40)
        state = thermal_state(ws, 1.0, 1.0)
        zeta, phi = 0.5, 1.1
        chi, theta = float(chi_of(zeta, phi)), float(theta_of(zeta, phi))
        means = []
        for chain in (
            unitary_product(_exp_i_ky(ws, zeta), phi),
            unitary_equiv(ProtocolEndpoints(chi, theta), ws),
            evolution_endpoint(-chi, -theta, ws),
        ):
            means.append(chain.read(state)[0])
        analytic = (state.mean_number() + 1.0) * math.cosh(chi) - 1.0
        assert means[0] == pytest.approx(means[1], abs=1e-10)
        assert means[1] == pytest.approx(means[2], abs=1e-12)
        assert means[1] == pytest.approx(analytic, abs=1e-9)

    @pytest.mark.parametrize("zeta", DEFAULTS["oracle"]["zeta_grid"])
    @pytest.mark.parametrize("phi", DEFAULTS["oracle"]["phi_grid"])
    def test_time_ordered_form_is_the_equiv_chain_times_a_phase(self, zeta, phi):
        # the gate reads the tiev records from the un2 chain: both have the
        # core exp(i chi K_y), and U_tiev = U_equiv exp(i theta K_z)
        ws = FockWorkspace(30)
        chi, theta = float(chi_of(zeta, phi)), float(theta_of(zeta, phi))
        tiev = evolution_endpoint(-chi, -theta, ws)
        un2 = unitary_equiv(ProtocolEndpoints(chi, theta), ws)
        assert all(np.array_equal(a, b) for a, b in zip(tiev.core.blocks, un2.core.blocks))
        assert np.array_equal(tiev.weights, un2.weights)
        shifted = ref.product(un2) @ _phase_kz(ws, theta)
        for a, b in zip(ref.product(tiev).blocks, shifted.blocks):
            assert np.max(np.abs(a - b)) <= 1e-14

    def test_phis_share_the_squeeze_and_its_boundary_weights(self):
        # the squeezed state's boundary row is memoised on the shared kernel and
        # is each chain's last weights row; the moments' boundary row is the
        # core's last rows
        ws = FockWorkspace(30)
        y = _exp_i_ky(ws, 0.9)
        chains = [unitary_product(y, phi) for phi in (0.5, 1.5)]
        assert vars(y)["boundary_weights"] is y.boundary_weights
        for chain in chains:
            assert chain.weights.shape == (4, len(y.boundary_weights))
            assert np.array_equal(chain.weights[3], y.boundary_weights)
            assert np.array_equal(chain.weights[2], chain.core.boundary_weights)

    def test_truncation_guard_trips_on_aggressive_squeezing(self):
        ws = FockWorkspace(28)
        # fits comfortably unsqueezed
        state = thermal_state(ws, 1.0, 1.0)
        chain = unitary_product(_exp_i_ky(ws, 2.5), 1.0)
        with pytest.raises(TruncationError, match="unitary_product: boundary occupancy"):
            chain.read(state)

    def test_guard_reads_the_interior_phase(self):
        # the phase between squeeze and anti-squeeze stops them cancelling, so the
        # final state leaks past the budget although squeeze and un-squeeze alone do not
        ws = FockWorkspace(30)
        state = thermal_state(ws, 2.0, 1.0)
        d, y = ref.quarter_phases(ws), _exp_i_ky(ws, 0.8)
        chain = unitary_product(y, 3.0)
        with pytest.raises(TruncationError):
            chain.read(state)
        # exp(+-0.8 i K_x) = D+ exp(+-0.8 i K_y) D as whole factors
        squeeze = ref.dag(d) @ y @ d
        anti_squeeze = ref.dag(d) @ ref.block_operator(ws, [b.T for b in y.blocks]) @ d
        factors = (squeeze, _phase_kz(ws, -3.0), anti_squeeze)
        product = ref.product(chain)
        assert boundary_occupancy(product, state) > LEAK_TOL
        assert evolved_boundary_occupancy(factors, state) >= boundary_occupancy(product, state)

    def test_boundary_occupancy_small_in_guarded_regime(self):
        ws = FockWorkspace(60)
        state = thermal_state(ws, 1.0, 1.0)
        chain = unitary_equiv(ProtocolEndpoints(chi=0.6, theta=0.0), ws)
        assert chain.read(state)[2] == chain.occupancy(state) < 1e-12
        assert boundary_occupancy(ref.product(chain), state) < 1e-12


# each builder on two scalar arguments: (zeta, phi), (chi, theta) and (f_y, f_z)
BUILDERS = {
    "unitary_product": lambda a, b, ws: unitary_product(_exp_i_ky(ws, a), b),
    "unitary_equiv": lambda a, b, ws: unitary_equiv(ProtocolEndpoints(a, b), ws),
    "evolution_endpoint": evolution_endpoint,
}
# at n_max = 30 each builder's chain at these arguments is admitted for the
# cold state (beta omega = 3) and trips the guard for the hot one (beta omega = 1)
_CHI, _THETA = float(chi_of(0.9, 1.5)), float(theta_of(0.9, 1.5))
BAND_ARGS = {
    "unitary_product": (0.9, 1.5),
    "unitary_equiv": (_CHI, _THETA),
    "evolution_endpoint": (-_CHI, -_THETA),
}


class TestProductDefectBound:
    """The un1 core's unitarity defect is a bound from its factors (`Chain.defect`)."""

    @settings(max_examples=60)
    @given(
        n_max=st.integers(2, 40),
        zeta=st.floats(0.0, 1.5),
        phi=st.floats(0.0, 2.0 * math.pi),
    )
    def test_bound_is_never_below_the_gram_defect(self, n_max, zeta, phi):
        chain = unitary_product(_exp_i_ky(FockWorkspace(n_max), zeta), phi)
        assert chain.defect_bound is not None
        assert chain.core.unitarity_defect() <= chain.defect < 1e-11

    @pytest.mark.parametrize("n_max", [60, 120])
    def test_bound_stays_below_1e11_to_n_max_120(self, n_max):
        # the bound grows with the largest block size m and with each input, so
        # m = 121 at inputs above any measured here bounds every n_max <= 120
        y = _exp_i_ky(FockWorkspace(n_max), 1.5)
        delta, eta = y.gram_norms
        assert delta < 1e-13 and eta < 1e-12
        cap = fock._product_defect_bound(121, 1e-13, 1e-12, 1e-15)
        assert unitary_product(y, 2.0).defect < cap < 1e-11

    def test_bound_reaches_the_gate_tolerance_near_n_max_900(self):
        # the m^2 u term alone: a false `fail` past there, the safe direction
        bound = fock._product_defect_bound
        assert bound(880, 0.0, 0.0, 0.0) < 1e-10 < bound(940, 0.0, 0.0, 0.0)

    def test_chain_retains_its_weights_not_a_core(self):
        # the chain keeps Y, which every phi shares, and reads its weights from the
        # core one bucket at a time: it retains its weights plus a small fixed
        # overhead (its outer phases are two angles), and beside P Y, its one
        # operator product, the build never holds a second complex core
        y = _exp_i_ky(FockWorkspace(60), 0.7)
        unitary_product(y, 0.3)  # memoises Y's Gram norms and boundary weights
        core_bytes = 2 * sum(s.nbytes for s in y.stacks)  # complex, in Y's shape, as is P Y
        tracemalloc.start()
        try:
            chain = unitary_product(y, 0.9)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < chain.weights.nbytes + 16_384
        assert peak < core_bytes + 0.75 * core_bytes  # P Y, and under 3/4 of a core beside it
        assert chain.defect == chain.defect_bound and "core" not in vars(chain)


def _same_blocks(u, v):
    return all(np.array_equal(a, b) for a, b in zip(u.blocks, v.blocks))


class TestKeptChains:
    """One chain, kept across states, is guarded against each of them."""

    @staticmethod
    def _guard(chain, bw):
        ws = chain.ws
        try:
            return chain.read(thermal_state(ws, bw, 1.0))
        except TruncationError:
            return None

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_repeat_call_reguards_every_state(self, name):
        build, args = BUILDERS[name], BAND_ARGS[name]
        chain = build(*args, FockWorkspace(30))
        # the hot state comes second and must still trip; the cold one after it
        # must still be admitted, with the reads it had the first time
        decisions = [self._guard(chain, bw) for bw in (3.0, 1.0, 3.0)]
        assert decisions[1] is None
        assert decisions[0] is not None and decisions[2] == decisions[0]
        # the same decisions and the same product as builds on fresh workspaces
        fresh = [self._guard(build(*args, FockWorkspace(30)), bw) for bw in (3.0, 1.0)]
        assert decisions[:2] == fresh
        assert _same_blocks(ref.product(chain), ref.product(build(*args, FockWorkspace(30))))

    def test_state_of_another_workspace_rejected(self):
        chain = unitary_product(_exp_i_ky(FockWorkspace(12), 0.4), 0.7)
        state = thermal_state(FockWorkspace(12), 3.0, 1.0)
        with pytest.raises(ValueError, match="different workspaces"):
            chain.read(state)


class TestAgainstDenseExponentials:
    """Each builder against scipy's expm of dense generators made from the
    ladder operators, so no block of the oracle is reused."""

    TOL = 1e-12

    @pytest.fixture(scope="class")
    def dense(self):
        return (FockWorkspace(10), *ref.generators(10))

    @staticmethod
    def _points():
        rng = np.random.default_rng(4033)
        return [rng.uniform((0.1, 0.1, -1.5), (1.5, 3.0, 1.5)) for _ in range(4)]

    def test_unitary_product(self, dense):
        ws, kx, _, kz = dense
        for zeta, phi, _ in self._points():
            expected = expm(-1j * zeta * kx) @ expm(-1j * phi * kz) @ expm(1j * zeta * kx)
            u = ref.product(unitary_product(_exp_i_ky(ws, zeta), phi))
            assert np.max(np.abs(ref.to_dense(u) - expected)) < self.TOL

    def test_unitary_equiv(self, dense):
        ws, _, ky, kz = dense
        for chi, theta, _ in self._points():
            expected = expm(1j * theta * kz) @ expm(1j * chi * ky) @ expm(-1j * theta * kz)
            u = ref.product(unitary_equiv(ProtocolEndpoints(chi, theta), ws))
            assert np.max(np.abs(ref.to_dense(u) - expected)) < self.TOL

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
            u = ref.product(evolution_endpoint(f_y, f_z, ws))
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


def _blockwise_reference(n_max, block):
    """The dense (n_max+1)^2 matrix of an operator that conserves n1 - n2: each
    imbalance block is block(pair, kz) of that block of the ladder product
    a1 a2 = a (x) a and of the K_z diagonal, states labelled on the full basis,
    so no block, stack or index of the oracle is reused."""
    a = ref.annihilator(n_max)
    pair = np.kron(a, a)
    n1, n2 = np.divmod(np.arange(len(pair)), n_max + 1)
    kz = (n1 + n2 + 1) / 2.0
    out = np.zeros(pair.shape, complex)
    for d in range(-n_max, n_max + 1):
        idx = np.flatnonzero(n1 - n2 == d)
        out[np.ix_(idx, idx)] = block(pair[np.ix_(idx, idx)], kz[idx])
    return out


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
        un1 = unitary_product(y, phi)
        un2 = unitary_equiv(ProtocolEndpoints(chi, theta), ws)
        assert [b.width for b in ws.buckets] == list(range(8 * math.ceil((n_max + 1) / 8), 0, -8))
        for op in (y, un1.core, un2.core):
            for b, stack, rows in zip(ws.buckets, op.stacks, ws.moment_rows):
                positions = np.arange(b.width)
                real = positions < b.sizes[:, None]
                padded = ~(real[:, :, None] & real[:, None, :])
                eye = np.broadcast_to(np.eye(b.width), stack.shape)
                assert np.array_equal(stack[padded], eye[padded])
                # the moment rows n, n^2 and the boundary, one-hot on the last real state
                assert not np.any(rows.transpose(1, 0, 2)[:, ~real])
                assert np.array_equal(rows[:, 2], positions == b.sizes[:, None] - 1)
                moments = rows @ np.abs(stack) ** 2
                assert not np.any(moments.transpose(1, 0, 2)[:, ~real])
                boundary = stack[np.arange(len(b.sizes)), b.sizes - 1]
                assert not np.any(boundary[~real])
            assert len(op.boundary_weights) == len(ws.n)
        # C-ordered, so that each read is a row dot product: column-major weights
        # made `Chain.read` sum sequentially, ~3x the rounding at n_max = 120
        assert un1.weights.flags.c_contiguous and un2.weights.flags.c_contiguous
        # the views and dense assembly of the stacks against dense exponentials
        ref_y = _blockwise_reference(n_max, lambda p, kz: expm(-zeta * (p - p.T) / 2.0))

        def product_block(p, kz):
            kx = (p + p.T) / 2.0
            return expm(-1j * zeta * kx) @ np.diag(np.exp(-1j * phi * kz)) @ expm(1j * zeta * kx)

        ref_un1 = _blockwise_reference(n_max, product_block)
        assert np.max(np.abs(ref.to_dense(y) - ref_y)) < 1e-12
        assert np.max(np.abs(ref.to_dense(ref.product(un1)) - ref_un1)) < 1e-12


# the chain of each builder at n_max = 30; at (0.9, 0.5) the intermediate squeeze
# of unitary_product holds more boundary weight than its final state
SUMMARY_CASES = sorted(BAND_ARGS.items()) + [("unitary_product", (0.9, 0.5))]


class TestChainSummaries:
    """The dot-product reads of a chain against dense linear algebra on its
    product, over the full basis with no sector folding."""

    @pytest.mark.parametrize("name, args", SUMMARY_CASES)
    def test_moments_and_guard_match_the_product_route(self, name, args):
        ws = FockWorkspace(30)
        chain = BUILDERS[name](*args, ws)
        for bw in (1.0, 3.0):
            state = thermal_state(ws, bw, 1.0)
            reference = _dense_reads(ref.product(chain), bw)
            mean, second, edge = chain.weights[:3] @ state.probs
            assert (mean, second - mean * mean, edge) == pytest.approx(reference, rel=1e-13)
            partials = [reference[2]]
            if name == "unitary_product":
                # the intermediate squeeze exp(i zeta K_x) has the |.|^2 of exp(i zeta K_y)
                squeeze = ref.product(evolution_endpoint(-args[0], 0.0, ws))
                partials.append(_dense_reads(squeeze, bw)[2])
            assert chain.occupancy(state) == pytest.approx(max(partials), rel=1e-13)
            if max(partials) > LEAK_TOL:
                with pytest.raises(TruncationError):
                    chain.read(state)
            else:
                assert chain.read(state) == pytest.approx(reference, rel=1e-13)

    @pytest.mark.parametrize("n_max", [1, 7, 8, 9, 30])
    def test_product_weights_are_those_of_its_lazy_core(self, n_max):
        # un1's reads reach the weights alone; its core, formed on first read from
        # the products its weights were read from, gives rows 0-2 bit for bit
        ws = FockWorkspace(n_max)
        chain = unitary_product(_exp_i_ky(ws, 0.6), 1.3)
        state = thermal_state(ws, 40.0, 1.0)
        chain.occupancy(state)
        with contextlib.suppress(TruncationError):
            chain.read(state)
        assert "core" not in vars(chain)
        stacks = chain.core.stacks
        moments = [(r @ fock._abs2(c)).transpose(1, 0, 2) for r, c in zip(ws.moment_rows, stacks)]
        assert np.array_equal(chain.weights[:3], ws._gather(moments))


class TestPopulations:
    def test_population_route_matches_operator_route(self):
        # <N> and Delta^2 N of a chain's |U|^2 p read against the evolved operator
        # U+ (N + 1) U = 2 [cosh(chi) K_z - sinh(chi) K_x] (`hamiltonian_final` at
        # unit frequency), and its boundary mass against the dense reference, for
        # each builder at seeded points inside the guard
        ws = FockWorkspace(40)
        rng = np.random.default_rng(20240611)
        for _ in range(4):
            bw, zeta, phi = rng.uniform(1.0, 3.0), rng.uniform(0.05, 0.6), rng.uniform(0.1, 3.0)
            state = thermal_state(ws, bw, 1.0)
            chi, theta = float(chi_of(zeta, phi)), float(theta_of(zeta, phi))
            for chain in (
                unitary_product(_exp_i_ky(ws, zeta), phi),
                unitary_equiv(ProtocolEndpoints(chi, theta), ws),
                evolution_endpoint(-chi, -theta, ws),
            ):
                mean, var, edge = chain.read(state)
                evolved = hamiltonian_final(1.0, -chi, ws)
                assert mean + 1.0 == pytest.approx(expect(evolved, state), rel=1e-12)
                assert var == pytest.approx(variance(evolved, state), rel=1e-12)
                assert edge == pytest.approx(_dense_reads(ref.product(chain), bw)[2], rel=1e-12)


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
