"""Brute-force verification engine on a truncated two-mode Fock space.

Everything the closed-form modules claim is re-derivable here by direct
linear algebra: generator matrices, unitaries built from exponentials of
Hermitian generators, thermal density matrices, expectation values and
variances.

Basis and blocking
------------------
States |n1, n2> with 0 <= n1, n2 <= n_max, global index n1*(n_max+1) + n2.
Every generator used here commutes with the mode imbalance n1 - n2, so all
heavy operations run block-diagonally per imbalance sector d = n1 - n2
(block size n_max - |d| + 1).  That turns one dim^3 = (n_max+1)^6 dense
cost into a sum of small-block costs and is what makes n_max = 120
routine.

K_x, K_y, K_z, N, the thermal state and the boundary layer are all
unchanged by the mode swap a1 <-> a2, which maps sector -d onto sector d
position by position.  So only the sectors d >= 0 are stored: the block of
sector -d is the mode-swap image of the block of sector d, identical entry
for entry.  The multiplicity lives in one place: `ThermalState.probs`
carries weight 2 for every d > 0, so populations and traces are folded
(each d > 0 entry holds both mirror states) and every trace over the stored
sectors counts both.  `BlockOperator.to_dense()`, which assembles the full
matrix for small-basis algebra checks, is the one place that writes the
mirror blocks out.

Every exponential comes from one cached eigendecomposition of K_x: the
eigenvectors are real, so exp(-i s K_x) is the conjugate of exp(i s K_x),
and K_y and its exponentials are the K_x ones turned a quarter turn about
K_z by the exact phases diag((-i)^k).

Operators are immutable: blocks, diagonal and the `hermitian` flag are
fixed at construction.  An evolved observable U+ O U comes from
`O.heisenberg(U)`, which carries O's hermiticity over, so callers never
patch flags after the fact.

Truncation honesty
------------------
Truncation corrupts matrix elements near the n_max boundary first, and
squeezing amplifies tails, so variances break before means.  Thermal
states report their tail leakage and refuse to renormalize silently past
a tolerance.  The unitaries do not depend on the state, so each unitary
builder returns a `Chain`: the product and |.|^2 of the boundary rows of
every squeezed partial product of that very product, interior phases
included.  `Chain.guard(state, leak_tol)` checks the boundary occupancy
of each of them against a leakage budget and raises instead of letting
quietly wrong numbers through; one chain can be guarded against any
number of states.

For the Fock-diagonal states used here, `evolved_populations` gives the
diagonal of U rho U+, from which the moments of N and the boundary mass
follow without forming U+ N U.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .core import InterferometerAngles, ProtocolEndpoints
from .errors import TruncationError

__all__ = [
    "FockWorkspace",
    "BlockOperator",
    "ThermalState",
    "GeneratorSet",
    "Chain",
    "thermal_state",
    "unitary_product",
    "unitary_equiv",
    "evolution_endpoint",
    "hamiltonian_final",
    "number_operator",
    "expect",
    "variance",
    "boundary_occupancy",
    "evolved_boundary_occupancy",
    "evolved_populations",
]

_DENSE_LIMIT = 4096  # refuse to assemble dense matrices larger than this
_IMAG_RESIDUE_TOL = 1e-10


@dataclass(frozen=True)
class Sector:
    """One conserved-imbalance block: the states with n1 - n2 = d."""

    d: int  # >= 0; sector -d is its mode-swap image
    n1: np.ndarray
    n2: np.ndarray
    idx: np.ndarray  # global indices, ordered by n2 ascending

    @property
    def size(self) -> int:
        return len(self.idx)


class FockWorkspace:
    """Truncated two-mode basis with per-sector caches over d = 0 ... n_max.

    The eigendecomposition of the K_x block is computed once per sector and
    reused by every exponential, so repeated unitary construction costs
    only matrix multiplies.
    """

    def __init__(self, n_max: int):
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        self.n_max = int(n_max)
        self.dim = (self.n_max + 1) ** 2
        sectors = []
        for d in range(self.n_max + 1):
            n2 = np.arange(0, self.n_max - d + 1)
            n1 = n2 + d
            sectors.append(Sector(d=d, n1=n1, n2=n2, idx=n1 * (self.n_max + 1) + n2))
        self.sectors: tuple[Sector, ...] = tuple(sectors)

    @cached_property
    def kz_diags(self) -> tuple[np.ndarray, ...]:
        return tuple((s.n1 + s.n2 + 1) / 2.0 for s in self.sectors)

    @cached_property
    def n_diags(self) -> tuple[np.ndarray, ...]:
        return tuple((s.n1 + s.n2).astype(float) for s in self.sectors)

    @cached_property
    def kx_blocks(self) -> tuple[np.ndarray, ...]:
        out = []
        for s in self.sectors:
            m = s.size
            kx = np.zeros((m, m))
            if m > 1:
                off = 0.5 * np.sqrt((s.n1[:-1] + 1.0) * (s.n2[:-1] + 1.0))
                rows = np.arange(m - 1)
                kx[rows + 1, rows] = off
                kx[rows, rows + 1] = off
            out.append(kx)
        return tuple(out)

    @cached_property
    def kx_eig(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return tuple(np.linalg.eigh(kx) for kx in self.kx_blocks)

    @cached_property
    def boundary_masks(self) -> tuple[np.ndarray, ...]:
        return tuple((s.n1 == self.n_max) | (s.n2 == self.n_max) for s in self.sectors)


@dataclass(frozen=True, eq=False, repr=False)
class BlockOperator:
    """Immutable operator stored as one dense block per stored sector d >= 0.

    The operator is mode-swap symmetric: the block of sector -d is that of
    sector d.  `diags` is set for diagonal operators, letting products with
    them run in O(m^2) per block instead of a full matrix multiply; pass
    `blocks=None` with `diags` and the dense blocks are only built when
    read.  `hermitian` is fixed at construction; `variance` accepts only
    Hermitian operators.
    """

    ws: FockWorkspace
    blocks: Sequence | None
    hermitian: bool = False
    diags: tuple | None = None

    def __post_init__(self):
        if self.diags is not None:
            object.__setattr__(self, "diags", tuple(self.diags))
        blocks = _DiagonalBlocks(self.diags) if self.blocks is None else tuple(self.blocks)
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def from_diagonal(cls, ws: FockWorkspace, diags, *, hermitian=True) -> "BlockOperator":
        return cls(ws, None, hermitian=hermitian, diags=[np.asarray(v) for v in diags])

    def dag(self) -> "BlockOperator":
        blocks = [b.conj().T for b in self.blocks]
        diags = None if self.diags is None else [v.conj() for v in self.diags]
        return BlockOperator(self.ws, blocks, hermitian=self.hermitian, diags=diags)

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        if not isinstance(other, BlockOperator):
            return NotImplemented
        if other.ws is not self.ws:
            raise ValueError("operators live on different workspaces")
        if self.diags is not None and other.diags is not None:
            diags = [u * v for u, v in zip(self.diags, other.diags)]
            return BlockOperator(self.ws, None, diags=diags)
        if self.diags is not None:
            blocks = [v[:, None] * b for v, b in zip(self.diags, other.blocks)]
        elif other.diags is not None:
            blocks = [b * v[None, :] for b, v in zip(self.blocks, other.diags)]
        else:
            blocks = [a @ b for a, b in zip(self.blocks, other.blocks)]
        return BlockOperator(self.ws, blocks)

    def heisenberg(self, u: "BlockOperator") -> "BlockOperator":
        """Heisenberg-picture image U+ O U of this operator under the unitary u.

        Hermitian exactly when O is, since u is unitary.
        """
        return replace(u.dag() @ (self @ u), hermitian=self.hermitian)

    def diagonal(self) -> list[np.ndarray]:
        if self.diags is not None:
            return [np.asarray(v) for v in self.diags]
        return [np.diagonal(b) for b in self.blocks]

    def to_dense(self) -> np.ndarray:
        if self.ws.dim > _DENSE_LIMIT:
            raise ValueError(
                f"dense assembly of a {self.ws.dim}x{self.ws.dim} matrix exceeds the "
                f"{_DENSE_LIMIT} limit"
            )
        out = np.zeros((self.ws.dim, self.ws.dim), dtype=complex)
        for s, b in zip(self.ws.sectors, self.blocks):
            out[np.ix_(s.idx, s.idx)] = b
            if s.d > 0:
                mirror = s.n2 * (self.ws.n_max + 1) + s.n1
                out[np.ix_(mirror, mirror)] = b
        return out

    def unitarity_defect(self) -> float:
        return max(
            float(np.max(np.abs(b.conj().T @ b - np.eye(b.shape[0]))))
            for b in self.blocks
        )


class _DiagonalBlocks(Sequence):
    """The dense np.diag blocks of a diagonal operator, built on first read."""

    def __init__(self, diags):
        self._diags = diags

    @cached_property
    def _dense(self) -> tuple:
        return tuple(np.diag(v) for v in self._diags)

    def __len__(self) -> int:
        return len(self._diags)

    def __getitem__(self, i):
        return self._dense[i]


class GeneratorSet:
    """K_x, K_y and K_z on the workspace, plus dense a1/a2 on demand.

    K_x = (a1+ a2+ + a1 a2)/2, K_y = i (a1 a2 - a1+ a2+)/2,
    K_z = (a1+ a1 + a2 a2+)/2 = (N + 1)/2; the commutators
    [K_x, K_y] = -i K_z, [K_y, K_z] = i K_x, [K_z, K_x] = i K_y hold on the
    interior block of the truncated space.
    """

    def __init__(self, ws: FockWorkspace):
        self.ws = ws
        self.kx = BlockOperator(ws, [b.copy() for b in ws.kx_blocks], hermitian=True)
        self.ky = _quarter_turn(self.kx)
        self.kz = BlockOperator.from_diagonal(ws, ws.kz_diags)

    @cached_property
    def a1(self) -> np.ndarray:
        """Dense annihilator of mode 1; breaks the imbalance blocking, so dense only."""
        return np.kron(_dense_annihilator(self.ws.n_max), np.eye(self.ws.n_max + 1))

    @cached_property
    def a2(self) -> np.ndarray:
        return np.kron(np.eye(self.ws.n_max + 1), _dense_annihilator(self.ws.n_max))


def _dense_annihilator(n_max: int) -> np.ndarray:
    a = np.zeros((n_max + 1, n_max + 1))
    ns = np.arange(1, n_max + 1)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


@dataclass(frozen=True)
class ThermalState:
    """Gibbs state of two degenerate oscillators, diagonal in the Fock basis.

    probs hold the per-sector diagonal after renormalizing away the
    truncation tail, folded over the mode swap: only the sectors d >= 0 are
    stored, sector -d is the mode-swap image of sector d, and every d > 0
    entry carries weight 2 (its own state and its mirror), so the probs sum
    to 1 and a trace over the stored sectors counts both mirrors.
    partition_function is the exact closed form [2 sinh(beta omega / 2)]^-2
    and leakage the tail weight that was cut.
    """

    ws: FockWorkspace
    beta: float
    omega: float
    probs: tuple
    partition_function: float
    leakage: float

    def mean_number(self) -> float:
        return float(
            sum(nd @ p for nd, p in zip(self.ws.n_diags, self.probs))
        )


def thermal_state(
    ws: FockWorkspace, beta: float, omega: float, *, leak_tol: float
) -> ThermalState:
    """Thermal state with diagonal weights exp(-beta omega (n1+n2+1)) / Z.

    Raises TruncationError when the retained basis misses more than
    leak_tol of the distribution, or when the boundary layer itself is
    populated above 1e-12 (squeezing applied later would amplify it).
    """
    if beta * omega <= 0.0:
        raise ValueError(f"beta*omega must be positive, got beta={beta}, omega={omega}")
    # weights e^{-beta omega (n1+n2+1)} / Z rewritten as q^(n1+n2) (1-q)^2 with
    # q = e^{-beta omega}: identical distribution, but stable deep in the
    # zero-temperature limit where Z itself underflows
    q = math.exp(-beta * omega)
    norm = (1.0 - q) ** 2
    z = math.exp(-beta * omega) / norm if norm > 0.0 else math.inf
    raw = [norm * q ** (s.n1 + s.n2).astype(float) for s in ws.sectors]
    folded = [p if s.d == 0 else 2.0 * p for s, p in zip(ws.sectors, raw)]
    retained = float(sum(p.sum() for p in folded))
    leakage = 1.0 - retained
    if leakage > leak_tol:
        raise TruncationError(
            f"thermal tail beyond n_max={ws.n_max} holds {leakage:.3e} > {leak_tol:.1e} "
            f"of the weight (beta*omega = {beta * omega:.3g}); increase n_max"
        )
    # per state, not folded over the mirror pair
    boundary = max(
        float(p[m].max()) if m.any() else 0.0 for p, m in zip(raw, ws.boundary_masks)
    )
    if boundary > 1e-12:
        raise TruncationError(
            f"thermal occupancy {boundary:.3e} at the n_max boundary exceeds 1e-12"
        )
    probs = tuple(p / retained for p in folded)
    return ThermalState(
        ws=ws, beta=beta, omega=omega, probs=probs, partition_function=z, leakage=leakage
    )


def _exp_i_kx(ws: FockWorkspace, s: float) -> BlockOperator:
    """exp(i s K_x) per sector from the cached eigendecomposition (exactly unitary)."""
    blocks = []
    for lam, vec in ws.kx_eig:
        blocks.append((vec * np.exp(1j * s * lam)) @ vec.T)
    return BlockOperator(ws, blocks)


def _quarter_turn(op: BlockOperator) -> BlockOperator:
    """D op D+ with D = diag((-i)^k) per sector, k the position in the sector.

    D is exp(-i pi/2 K_z) up to a phase per sector, so this quarter turn
    about K_z takes K_x to K_y and exp(i s K_x) to exp(i s K_y).
    """
    blocks = []
    for sec, b in zip(op.ws.sectors, op.blocks):
        # numpy's complex power is exact only below k = 100
        d = (-1j) ** (np.arange(sec.size) % 4)
        blocks.append((d[:, None] * b) * d.conj()[None, :])
    return BlockOperator(op.ws, blocks, hermitian=op.hermitian)


def _phase_kz(ws: FockWorkspace, s: float) -> BlockOperator:
    diags = [np.exp(1j * s * kz) for kz in ws.kz_diags]
    return BlockOperator.from_diagonal(ws, diags, hermitian=False)


def _boundary_rows(op: BlockOperator) -> tuple:
    """|op|^2 on the boundary rows of every sector: all a boundary read needs."""
    return tuple(
        np.abs(block[mask, :]) ** 2 for block, mask in zip(op.blocks, op.ws.boundary_masks)
    )


def _occupancy(rows, state: ThermalState) -> float:
    """Total boundary weight of op rho op+ from the `_boundary_rows` of op."""
    w = 0.0
    for r, p in zip(rows, state.probs):
        w += float((r @ p).sum())
    return w


def boundary_occupancy(op: BlockOperator, state: ThermalState) -> float:
    """Total weight of op rho op+ on the n_max boundary layer."""
    if op.ws is not state.ws:
        raise ValueError("operator and state live on different workspaces")
    return _occupancy(_boundary_rows(op), state)


def evolved_populations(u: BlockOperator, state: ThermalState) -> list[np.ndarray]:
    """Per-sector diagonal of U rho U+ for the Fock-diagonal state: |U|^2 p.

    One array per stored sector d >= 0.  Like `ThermalState.probs` they are
    folded over the mode swap: a d > 0 entry is the population of a state
    plus that of its mirror in sector -d, so plain sums are full traces.
    """
    if u.ws is not state.ws:
        raise ValueError("operator and state live on different workspaces")
    return [(np.abs(b) ** 2) @ p for b, p in zip(u.blocks, state.probs)]


@dataclass(frozen=True)
class Chain:
    """A unitary product with the `_boundary_rows` of each guarded partial
    product, in the order they act on the state, and the name of its builder.

    The product does not depend on the state, so one chain serves every
    state it is guarded against.
    """

    product: BlockOperator
    guarded_rows: tuple
    label: str

    def guard(self, state: ThermalState, leak_tol: float) -> float:
        """Worst boundary occupancy of the state along the chain; raises
        TruncationError at the first partial product past leak_tol."""
        if self.product.ws is not state.ws:
            raise ValueError("operator and state live on different workspaces")
        worst = 0.0
        for rows in self.guarded_rows:
            worst = max(worst, _occupancy(rows, state))
            if worst > leak_tol:
                raise TruncationError(
                    f"{self.label}: boundary occupancy {worst:.3e} exceeds leakage budget "
                    f"{leak_tol:.1e} at n_max={state.ws.n_max}; increase n_max or reduce "
                    "the squeezing"
                )
        return worst


def _compose(label: str, factors) -> Chain:
    """Compose `factors` (ordered as applied to the state) into one chain.

    Each partial product is formed once; its boundary rows are kept after
    every non-diagonal factor, since diagonal phases move no population.
    """
    acc = None
    guarded = []
    for f in factors:
        acc = f if acc is None else f @ acc
        if f.diags is None:
            guarded.append(_boundary_rows(acc))
    return Chain(acc, tuple(guarded), label)


def evolved_boundary_occupancy(factors, state: ThermalState) -> float:
    """Worst boundary occupancy along the chain rho -> F1 rho F1+ -> (F2 F1) rho ....

    `factors` are the unitary factors ordered as they are applied to the
    state (rightmost factor of the operator product first); interior phases
    act on the partial products.
    """
    return _compose("chain", factors).guard(state, math.inf)


def unitary_product(angles: InterferometerAngles, ws: FockWorkspace) -> Chain:
    """The chain of the squeeze / phase / anti-squeeze product
    exp(-i zeta K_x) exp(-i phi K_z) exp(i zeta K_x), the anti-squeeze
    taken as the complex conjugate of the squeeze.

    The chain guards the intermediate squeezed state and the final state
    (the intermediate squeeze is the binding constraint: it spreads the
    state by zeta even when the composed chi is small).
    """
    squeeze = _exp_i_kx(ws, angles.zeta)
    anti_squeeze = BlockOperator(ws, [b.conj() for b in squeeze.blocks])
    return _compose("unitary_product", (squeeze, _phase_kz(ws, -angles.phi), anti_squeeze))


def unitary_equiv(endpoints: ProtocolEndpoints, ws: FockWorkspace) -> Chain:
    """The chain of the endpoint form exp(i theta K_z) exp(i chi K_y) exp(-i theta K_z)."""
    factors = (
        _phase_kz(ws, -endpoints.theta),
        _quarter_turn(_exp_i_kx(ws, endpoints.chi)),
        _phase_kz(ws, endpoints.theta),
    )
    return _compose("unitary_equiv", factors)


def evolution_endpoint(f_y_tf: float, f_z_tf: float, ws: FockWorkspace) -> Chain:
    """The chain of the time-ordered endpoint unitary exp(-i f_z K_z) exp(-i f_y K_y)."""
    factors = (_quarter_turn(_exp_i_kx(ws, -f_y_tf)), _phase_kz(ws, -f_z_tf))
    return _compose("evolution_endpoint", factors)


def hamiltonian_final(omega_f: float, f_y_tf: float, ws: FockWorkspace) -> BlockOperator:
    """End-of-stroke Heisenberg Hamiltonian
    2 omega_f [cosh(f_y) K_z - sinh(f_y) K_x]; reduces to omega_f (N + 1)
    at f_y = 0."""
    ch, sh = math.cosh(f_y_tf), math.sinh(f_y_tf)
    blocks = []
    for kz, kx in zip(ws.kz_diags, ws.kx_blocks):
        blocks.append(2.0 * omega_f * (ch * np.diag(kz) - sh * kx))
    return BlockOperator(ws, blocks, hermitian=True)


def number_operator(ws: FockWorkspace) -> BlockOperator:
    return BlockOperator.from_diagonal(ws, ws.n_diags)


def expect(op: BlockOperator, state: ThermalState) -> float:
    """Tr[O rho] for the diagonal state; warns if the imaginary residue
    exceeds 1e-10 (it should only ever be rounding noise)."""
    if op.ws is not state.ws:
        raise ValueError("operator and state live on different workspaces")
    val = sum(complex(np.dot(d, p)) for d, p in zip(op.diagonal(), state.probs))
    if abs(val.imag) > _IMAG_RESIDUE_TOL:
        warnings.warn(
            f"expectation has imaginary residue {val.imag:.3e}", stacklevel=2
        )
    return float(val.real)


def variance(op: BlockOperator, state: ThermalState) -> float:
    """Tr[O^2 rho] - Tr[O rho]^2 for a Hermitian O, from the row norms of O
    instead of forming O^2."""
    if op.ws is not state.ws:
        raise ValueError("operator and state live on different workspaces")
    if not op.hermitian:
        raise ValueError("variance needs a Hermitian operator")
    mean = expect(op, state)
    # (O^2)_jj = sum_k |O_jk|^2 for Hermitian O
    second = sum(
        float(np.dot((np.abs(b) ** 2).sum(axis=1), p))
        for b, p in zip(op.blocks, state.probs)
    )
    return second - mean * mean
