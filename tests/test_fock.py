"""Truncated-Fock machinery: basis bookkeeping, generators, thermal states,
unitaries and the truncation guards."""

import dataclasses
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from su11otto import fock
from su11otto.config import DEFAULTS
from su11otto.core import ProtocolEndpoints, chi_of, theta_of
from su11otto.errors import TruncationError
from su11otto.fock import (
    LEAK_TOL,
    THERMAL_BOUNDARY_TOL,
    THERMAL_LEAK_TOL,
    BlockOperator,
    FockWorkspace,
    _dense_annihilator,
    _exp_i_ky,
    _phase_kz,
    _quarter_phases,
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


def _ladder(n_max):
    """Dense a1 = a (x) 1 and a2 = 1 (x) a on the full (n_max + 1)^2 basis."""
    a, eye = _dense_annihilator(n_max), np.eye(n_max + 1)
    return np.kron(a, eye), np.kron(eye, a)


def _dense_generators(n_max):
    """Dense K_x, K_y and K_z from the ladder operators, so no block of the
    oracle is reused."""
    a1, a2 = _ladder(n_max)
    pair = a1 @ a2  # a1+ a2+ is its transpose
    kz = (a1.T @ a1 + a2.T @ a2 + np.eye(len(pair))) / 2.0
    return (pair.T + pair) / 2.0, 1j * (pair - pair.T) / 2.0, kz


def _block_generators(ws):
    """K_x from the workspace's blocks and K_y = D K_x D+, its quarter turn
    about K_z."""
    kx = BlockOperator(ws, ws.kx_blocks)
    d = _quarter_phases(ws)
    return kx, d @ kx @ d.dag()


def _dense_reads(u, bw):
    """<N>, Delta^2 N and the boundary mass of U rho U+ by dense linear
    algebra: |U|^2 p with U from `to_dense()` and the thermal weights
    q^(n1+n2) (1-q)^2 written out over the full, unfolded basis."""
    n_max = u.ws.n_max
    n1, n2 = np.divmod(np.arange(u.ws.dim), n_max + 1)
    n = (n1 + n2).astype(float)
    q = math.exp(-bw)
    p = q**n * (1.0 - q) ** 2
    pops = np.abs(u.to_dense()) ** 2 @ (p / p.sum())
    mean = n @ pops
    edge = pops[(n1 == n_max) | (n2 == n_max)].sum()
    return mean, (n * n) @ pops - mean**2, edge


def test_public_surface_is_pinned():
    # a new export, a test-only reference route included, is a deliberate edit of this list
    assert sorted(fock.__all__) == [
        "BlockOperator", "Chain", "FockWorkspace", "ThermalState",
        "boundary_occupancy", "evolution_endpoint", "evolved_boundary_occupancy", "expect",
        "hamiltonian_final", "thermal_state", "unitary_equiv", "unitary_product",
        "variance",
    ]
    assert all(hasattr(fock, name) for name in fock.__all__)


def test_chain_surface_is_pinned():
    # `read` is the one read of a chain's moments, and it holds the leakage
    # guard: a new field or public method is a deliberate edit of these lists
    assert [f.name for f in dataclasses.fields(fock.Chain)] == [
        "core", "before", "after", "weights", "label", "defect_bound",
    ]
    public = sorted(name for name in dir(fock.Chain) if not name.startswith("_"))
    assert public == ["defect", "defect_bound", "occupancy", "product", "read"]


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
        op = BlockOperator(ws, [rng.normal(size=(s.size, s.size)) for s in ws.sectors])
        masked = [(b[m] ** 2).sum(axis=0) for b, m in zip(op.blocks, _boundary_masks(ws))]
        assert np.array_equal(op.boundary_weights, np.concatenate(masked))


class TestGenerators:
    def test_vacuum_kz_eigenvalue(self):
        ws = FockWorkspace(4)
        assert BlockOperator.from_diagonal(ws, ws.kz_diags).to_dense()[0, 0] == 0.5

    def test_kz_is_half_n_plus_one(self):
        ws = FockWorkspace(6)
        assert np.array_equal(
            BlockOperator.from_diagonal(ws, ws.kz_diags).to_dense(),
            (BlockOperator.from_diagonal(ws, ws.n_diags).to_dense() + np.eye(ws.dim)) / 2.0,
        )

    def test_ladder_representation(self):
        ws = FockWorkspace(5)
        a1, a2 = _ladder(ws.n_max)
        kx_ref, ky_ref, kz_ref = _dense_generators(ws.n_max)
        kx, ky = _block_generators(ws)
        assert np.max(np.abs(kx.to_dense() - kx_ref)) < 1e-14
        assert np.max(np.abs(ky.to_dense() - ky_ref)) < 1e-14
        assert np.max(np.abs(BlockOperator.from_diagonal(ws, ws.kz_diags).to_dense() - kz_ref)) < 1e-14
        n = BlockOperator.from_diagonal(ws, ws.n_diags)
        assert np.max(np.abs(n.to_dense() - (a1.T @ a1 + a2.T @ a2))) < 1e-14

    def test_dense_operators_commute_with_the_mode_swap(self):
        # the mirror blocks of to_dense() must sit at the swapped indices
        ws = FockWorkspace(6)
        a1, a2 = _ladder(ws.n_max)
        kx, ky = _block_generators(ws)
        kz = BlockOperator.from_diagonal(ws, ws.kz_diags)
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
            unitary_product(_exp_i_ky(ws, 0.7), 1.3).product,
            unitary_equiv(ProtocolEndpoints(0.9, 0.4), ws).product,
            evolution_endpoint(-0.6, 1.1, ws).product,
        )
        for op in ops:
            dense = op.to_dense()
            assert np.array_equal(swap @ dense, dense @ swap)
        # to_dense() keeps the blocks' dtype: real generators and kernels stay real
        for op in (kx, kz, BlockOperator.from_diagonal(ws, ws.n_diags), _exp_i_ky(ws, 0.7)):
            assert op.to_dense().dtype == np.float64
        assert ops[3].to_dense().dtype == np.complex128

    def test_ky_is_an_exact_quarter_turn_of_kx(self):
        # sectors longer than 100 states: (-1j) ** k loses exactness there
        ws = FockWorkspace(120)
        d = _quarter_phases(ws)
        _, turned = _block_generators(ws)
        for s, phase, kx, ky in zip(ws.sectors, d.diags, ws.kx_blocks, turned.blocks):
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
        u = unitary_product(_exp_i_ky(ws, 0.0), 0.7).product
        for block, kz in zip(u.blocks, ws.kz_diags):
            assert np.max(np.abs(block - np.diag(np.exp(-0.7j * kz)))) < 1e-14

    def test_zero_phase_is_identity(self):
        ws = FockWorkspace(8)
        u = unitary_product(_exp_i_ky(ws, 1.1), 0.0).product
        for block in u.blocks:
            assert np.max(np.abs(block - np.eye(block.shape[0]))) < 1e-12

    def test_zero_chi_equiv_is_identity(self):
        ws = FockWorkspace(8)
        u = unitary_equiv(ProtocolEndpoints(chi=0.0, theta=1.2), ws).product
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
            assert chain.product.unitarity_defect() < 1e-12

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
        shifted = un2.product @ _phase_kz(ws, theta)
        for a, b in zip(tiev.product.blocks, shifted.blocks):
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
        d, y = _quarter_phases(ws), _exp_i_ky(ws, 0.8)
        chain = unitary_product(y, 3.0)
        with pytest.raises(TruncationError):
            chain.read(state)
        # exp(+-0.8 i K_x) = D+ exp(+-0.8 i K_y) D as whole factors
        squeeze = d.dag() @ y @ d
        anti_squeeze = d.dag() @ BlockOperator(ws, [b.T for b in y.blocks]) @ d
        factors = (squeeze, _phase_kz(ws, -3.0), anti_squeeze)
        assert boundary_occupancy(chain.product, state) > LEAK_TOL
        assert evolved_boundary_occupancy(factors, state) >= boundary_occupancy(
            chain.product, state
        )

    def test_boundary_occupancy_small_in_guarded_regime(self):
        ws = FockWorkspace(60)
        state = thermal_state(ws, 1.0, 1.0)
        chain = unitary_equiv(ProtocolEndpoints(chi=0.6, theta=0.0), ws)
        assert chain.read(state)[2] == chain.occupancy(state) < 1e-12
        assert boundary_occupancy(chain.product, state) < 1e-12


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

    def test_chain_does_not_keep_its_squeeze_alive(self):
        # the chain keeps floats from Y, so each zeta's squeeze is freed once
        # the caller drops it, before the next zeta's is built
        y = _exp_i_ky(FockWorkspace(20), 0.7)
        alive = weakref.ref(y)
        chain = unitary_product(y, 0.9)
        del y
        assert alive() is None
        assert chain.defect == chain.defect_bound


def _same_blocks(u, v):
    return all(np.array_equal(a, b) for a, b in zip(u.blocks, v.blocks))


class TestKeptChains:
    """One chain, kept across states, is guarded against each of them."""

    @staticmethod
    def _guard(chain, bw):
        ws = chain.product.ws
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
        assert _same_blocks(chain.product, build(*args, FockWorkspace(30)).product)

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
        return (FockWorkspace(10), *_dense_generators(10))

    @staticmethod
    def _points():
        rng = np.random.default_rng(4033)
        return [rng.uniform((0.1, 0.1, -1.5), (1.5, 3.0, 1.5)) for _ in range(4)]

    def test_unitary_product(self, dense):
        ws, kx, _, kz = dense
        for zeta, phi, _ in self._points():
            ref = expm(-1j * zeta * kx) @ expm(-1j * phi * kz) @ expm(1j * zeta * kx)
            u = unitary_product(_exp_i_ky(ws, zeta), phi).product
            assert np.max(np.abs(u.to_dense() - ref)) < self.TOL

    def test_unitary_equiv(self, dense):
        ws, _, ky, kz = dense
        for chi, theta, _ in self._points():
            ref = expm(1j * theta * kz) @ expm(1j * chi * ky) @ expm(-1j * theta * kz)
            u = unitary_equiv(ProtocolEndpoints(chi, theta), ws).product
            assert np.max(np.abs(u.to_dense() - ref)) < self.TOL

    def test_real_kernel(self, dense):
        ws, _, ky, _ = dense
        for s, _, s_neg in self._points():
            for angle in (s, s_neg):
                y = _exp_i_ky(ws, angle)
                assert np.max(np.abs(y.to_dense() - expm(1j * angle * ky))) < self.TOL

    def test_evolution_endpoint(self, dense):
        ws, _, ky, kz = dense
        signs = set()
        for _, f_z, f_y in self._points():
            ref = expm(-1j * f_z * kz) @ expm(-1j * f_y * ky)
            u = evolution_endpoint(f_y, f_z, ws).product
            assert np.max(np.abs(u.to_dense() - ref)) < self.TOL
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
        _, ky, _ = _dense_generators(n_max)
        for angle in (0.9, -1.7):
            ref = expm(1j * angle * ky)
            assert np.max(np.abs(_exp_i_ky(ws, angle).to_dense() - ref)) < 1e-13

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
    a = _dense_annihilator(n_max)
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
        assert np.max(np.abs(y.to_dense() - ref_y)) < 1e-12
        assert np.max(np.abs(un1.product.to_dense() - ref_un1)) < 1e-12


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
            reference = _dense_reads(chain.product, bw)
            mean, second, edge = chain.weights[:3] @ state.probs
            assert (mean, second - mean * mean, edge) == pytest.approx(reference, rel=1e-13)
            partials = [reference[2]]
            if name == "unitary_product":
                # the intermediate squeeze exp(i zeta K_x) has the |.|^2 of exp(i zeta K_y)
                squeeze = evolution_endpoint(-args[0], 0.0, ws).product
                partials.append(_dense_reads(squeeze, bw)[2])
            assert chain.occupancy(state) == pytest.approx(max(partials), rel=1e-13)
            if max(partials) > LEAK_TOL:
                with pytest.raises(TruncationError):
                    chain.read(state)
            else:
                assert chain.read(state) == pytest.approx(reference, rel=1e-13)


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
                assert edge == pytest.approx(_dense_reads(chain.product, bw)[2], rel=1e-12)


class TestHamiltonianFinal:
    def test_reduces_to_number_form_at_zero_fy(self):
        ws = FockWorkspace(10)
        h = hamiltonian_final(0.7, 0.0, ws)
        for block, nd in zip(h.blocks, ws.n_diags):
            assert np.max(np.abs(block - 0.7 * np.diag(nd + 1.0))) < 1e-14

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
        n = BlockOperator.from_diagonal(ws, ws.n_diags)
        assert expect(n, state) == pytest.approx(0.0, abs=1e-12)

    def test_thermal_number_expectation(self):
        ws = FockWorkspace(60)
        state = thermal_state(ws, 0.5, 1.0)
        n = BlockOperator.from_diagonal(ws, ws.n_diags)
        assert expect(n, state) == pytest.approx(
            MEAN_N_BETA_HALF, abs=1e-7
        )

    def test_workspace_mismatch_rejected(self):
        ws_a, ws_b = FockWorkspace(10), FockWorkspace(12)
        state = thermal_state(ws_b, 3.0, 1.0)
        with pytest.raises(ValueError):
            expect(BlockOperator.from_diagonal(ws_a, ws_a.n_diags), state)

    def test_hermiticity_is_read_from_the_blocks(self):
        # a diagonal of complex phases is not Hermitian, whatever built it
        ws = FockWorkspace(12)
        state = thermal_state(ws, 3.0, 1.0)
        phases = BlockOperator.from_diagonal(ws, [np.exp(1j * 0.7 * kz) for kz in ws.kz_diags])
        for read in (expect, variance):
            with pytest.raises(ValueError, match="Hermitian"):
                read(phases, state)
        for op in (hamiltonian_final(0.35, -0.9, ws), BlockOperator.from_diagonal(ws, ws.n_diags)):
            assert op.is_hermitian
            assert math.isfinite(expect(op, state)) and variance(op, state) > 0.0

    def test_variance_rejects_non_hermitian_operator(self):
        ws = FockWorkspace(12)
        state = thermal_state(ws, 3.0, 1.0)
        u = unitary_product(_exp_i_ky(ws, 0.3), 0.5).product
        with pytest.raises(ValueError, match="Hermitian"):
            variance(u, state)

    def test_dense_assembly_guard(self):
        ws = FockWorkspace(80)
        op = BlockOperator.from_diagonal(ws, ws.n_diags)
        with pytest.raises(ValueError):
            op.to_dense()

    def test_diagonal_fast_path_matches_generic(self):
        # n_max = 7 stacks 8 sectors of width 8: there a (k, W) diagonal taken for
        # a (k, W, W) block would broadcast without an error
        for n_max in (7, 12):
            ws = FockWorkspace(n_max)
            kx, _ = _block_generators(ws)
            diag = BlockOperator.from_diagonal(ws, ws.n_diags)
            phase = _phase_kz(ws, 0.7)
            for a, b in ((diag, kx), (kx, diag), (diag, phase)):
                assert np.max(np.abs((a @ b).to_dense() - a.to_dense() @ b.to_dense())) < 1e-14
            assert (diag @ phase).is_diagonal


class TestImmutability:
    @pytest.mark.parametrize("attr", ["blocks", "diags"])
    def test_assignment_raises(self, attr):
        ws = FockWorkspace(4)
        op = BlockOperator.from_diagonal(ws, ws.n_diags)
        with pytest.raises(AttributeError):
            setattr(op, attr, getattr(op, attr))

    def test_constructor_freezes_block_lists(self):
        ws = FockWorkspace(3)
        blocks = [np.eye(s.size) for s in ws.sectors]
        op = BlockOperator(ws, blocks, diags=[np.ones(s.size) for s in ws.sectors])
        blocks.append(np.eye(2))
        assert isinstance(op.blocks, tuple) and isinstance(op.diags, tuple)
        assert len(op.blocks) == len(ws.sectors)
