"""Brute-force verification engine on a truncated two-mode Fock space.

Everything the closed-form modules claim is re-derivable here by direct
linear algebra: generator matrices, unitaries built from exponentials of
Hermitian generators, thermal density matrices, expectation values and
variances.

Basis and blocking
------------------
States |n1, n2> with 0 <= n1, n2 <= n_max, global index n1*(n_max+1) + n2.
Every generator used here commutes with the mode imbalance n1 - n2, so all
heavy operations run block-diagonally over the imbalance sectors
d = n1 - n2 (block size n_max - |d| + 1).  That turns one
dim^3 = (n_max+1)^6 dense cost into a sum of small-block costs and is what
makes n_max = 120 routine.

K_x, K_y, K_z, N, the thermal state and the boundary layer are all
unchanged by the mode swap a1 <-> a2, which maps sector -d onto sector d
position by position.  So only the sectors d >= 0 are stored: the block of
sector -d is the mode-swap image of the block of sector d, identical entry
for entry.  The multiplicity lives in one place: `ThermalState.probs`
carries weight 2 for every d > 0, so populations and traces are folded
(each d > 0 entry holds both mirror states) and every trace over the stored
sectors counts both.  `BlockOperator.to_dense()`, which assembles the full
matrix for the small-basis ladder check and the tests, is the one place
that writes the mirror blocks out, in the blocks' own dtype (real for K_x,
K_z and N).  `FockWorkspace.kx_stacks` is the one construction of the K_x
band, in double precision; the gate's algebra records read the workspace's
own blocks.

Size-bucketed stacks.  No kernel loops over sectors: each stored sector is
padded to the next multiple of _PAD = 8 states, and the sectors of one
padded size W form a bucket, held as one (k, W, W) stack of blocks (one
(k, W) stack of diagonals), so each kernel is one numpy call per bucket,
ceil((n_max + 1) / 8) of them.  The padding invariant, which every kernel
keeps and relies on:

* the padded rows and columns of every unitary factor are exactly the
  identity: `kx_eig`'s padded U and V are the identity and its padded
  singular values 0, so exp(i s K_y) is the identity there; the padded K_z
  is 0, so every phase there is exactly 1; products of such factors keep
  it.  Padding adds only exact zeros to every sum, which round nothing, so
  every rounding bound below keeps m the largest real block size;
* every read gives the padding weight 0: the padded entries of the moment
  and boundary rows are 0, a Gram there reads exactly 0, and each sector's
  boundary row is its last real state, not its last padded one;
* what leaves the stacks (`ThermalState.probs`, `Chain.weights`, boundary
  weights) is in the unpadded layout, the stored sectors concatenated,
  gathered through the one workspace index `FockWorkspace.index`;
  `BlockOperator.blocks` and `.diags` are per-sector views into the stacks.

Every exponential is the one real kernel `_exp_i_ky`: exp(i s K_y) is
real orthogonal in the Fock basis (Yurke, McCall & Klauder, PRA 33, 4033
(1986)).  K_x is tridiagonal with a zero diagonal, so it only couples the
even positions E of a sector to the odd ones O: K_x = [[0, B], [B^T, 0]]
with the bidiagonal B = U S V^T of size ceil(m/2) x floor(m/2).  Hence
cos(s K_x) is U cos(sS) U^T on EE (1 on U's null column when m is odd) and
V cos(sS) V^T on OO, and sin(s K_x) is U sin(sS) V^T on EO and its
transpose on OE: the even checkerboard (j - k even) holds the cosine and
the odd one the sine, each exactly zero on the other.  The quarter turn
D = diag((-i)^k) about K_z gives
exp(i s K_y)_jk = (-1)^floor((j-k)/2) [cos or sin](s K_x)_jk.  Then
exp(+-i s K_x) = D+ exp(+-i s K_y) D exactly, and exp(-i s K_y) is the
transpose of exp(i s K_y).  On the padded factors the three half-size
products and the checkerboard scatter are one batched call each per
bucket.

Operators are immutable: their stacks are fixed at construction, and an
operator reads its hermiticity from them, once, when `expect` or
`variance` first asks.

Truncation honesty
------------------
Truncation corrupts matrix elements near the n_max boundary first, and
squeezing amplifies tails, so variances break before means.  The boundary
layer is the states with n1 = n_max or n2 = n_max; in a stored sector
d >= 0, n1 = n2 + d <= n_max caps n2 at n_max - d, so its one boundary
state is its last (n2 = n_max - d), and every boundary read is a read of
its last real row or entry.  The three
budgets are module constants, not settings: a thermal state refuses to
cut more than THERMAL_LEAK_TOL of its weight or to hold more than
THERMAL_BOUNDARY_TOL on a boundary state, and `Chain.read(state)`, the one
read of a chain's moments, raises past a boundary occupancy of LEAK_TOL
instead of letting quietly wrong numbers through.  The unitaries do not
depend on the state, so each builder states its product U = L C R as a
`Chain` (L, R the outer diagonal phases, the core C the rest, interior
phases included), which reduces it once to the weights of the core and,
when read, its unitarity defect.  Outer phases move no population, and with e
the largest |1 - |phase|^2| of L and R,
U+ U - 1 = R+ (C+ C - 1) R + R+ C+ (L+ L - 1) C R + (R+ R - 1), so
defect(U) <= defect(C) + 2 e to first order (e = 0 for the exact D
phases, 1 ulp for exp(i theta K_z)).  Each read against a state is a dot
product with its one population vector.  The tests check these reads
against dense linear algebra: |U|^2 p with U from `to_dense()` and the
thermal weights written out over the full, unfolded basis.

Unitarity of the product form
-----------------------------
The product form's core C = Y^T P Y (Y = exp(i zeta K_y) real and shared
by every phi, P = exp(-i phi K_z) diagonal) forms no Gram of its own.
Exactly, C+ C - 1 = G + Y^T (P+ P - 1) Y + Y^T P+ (Y Y^T - 1) P Y with
G = Y^T Y - 1, and ||Y Y^T - 1||_2 = ||G||_2 for square Y.  So one real
Gram per zeta, memoised on Y (`gram_norms`), and max |1 - |p|^2|, O(m) per
phi, bound its defect, plus the rounding of that Gram, of fl(P Y) and of
the real product Y^T fl(P Y) (`Chain.defect` derives every term).  The
bound is ~m^2 u for the largest block size m and u = 2^-53: 1.97e-12 at
n_max = 120 and 5.5e-13 at 60, against measured Gram defects near 1e-14.
Alone it reaches the gate's 1e-10 near n_max = 900 (m = 919), where the
record would fail falsely, the safe direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate

import numpy as np

from .core import ProtocolEndpoints
from .errors import TruncationError

__all__ = [
    "FockWorkspace",
    "BlockOperator",
    "ThermalState",
    "Chain",
    "thermal_state",
    "unitary_product",
    "unitary_equiv",
    "evolution_endpoint",
    "hamiltonian_final",
    "expect",
    "variance",
    "boundary_occupancy",
    "evolved_boundary_occupancy",
]

_DENSE_LIMIT = 4096  # refuse to assemble dense matrices larger than this
_PAD = 8  # every stored sector is padded to a multiple of this many states

LEAK_TOL = 1e-8  # boundary occupancy of an evolved state
THERMAL_LEAK_TOL = 1e-10  # thermal tail weight cut off past n_max
THERMAL_BOUNDARY_TOL = 1e-12  # per boundary state: later squeezing amplifies it
_UNIT_ROUNDOFF = 2.0**-53


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


@dataclass(frozen=True)
class Bucket:
    """The stored sectors padded to one `width`, a run of consecutive d: each
    holds sizes[j] real states, and all of them fill `flat` of the padded
    concatenation (module docstring)."""

    sizes: np.ndarray
    width: int
    flat: slice


class FockWorkspace:
    """Truncated two-mode basis over the stored sectors d = 0 ... n_max, its
    caches built on first use as size-bucketed stacks (module docstring).

    The SVD of each sector's K_x parity block is computed once and packed
    into its bucket's stacks, so repeated unitary construction costs only
    batched matrix multiplies.
    """

    def __init__(self, n_max: int):
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        self.n_max = int(n_max)
        self.dim = (self.n_max + 1) ** 2
        self._sizes = sizes = self.n_max + 1 - np.arange(self.n_max + 1)
        self._widths = -(-sizes // _PAD) * _PAD
        starts = np.cumsum(sizes) - sizes
        # the stored states, sector after sector (the unpadded layout); n2 is a
        # state's position in its sector, n its number of quanta
        self._n2 = n2 = np.arange(sizes.sum()) - np.repeat(starts, sizes)
        self._n1 = n1 = n2 + np.repeat(np.arange(self.n_max + 1), sizes)
        self.n = (n1 + n2).astype(float)
        self.last = np.cumsum(sizes) - 1  # each sector's boundary state, its last
        # where each stored state sits in the padded concatenation of the sectors
        self.index = np.repeat(np.cumsum(self._widths) - self._widths, sizes) + n2
        self._cuts = starts[1:]
        per_sector = [np.split(a, self._cuts) for a in (n1, n2, n1 * (self.n_max + 1) + n2)]
        self.sectors: tuple[Sector, ...] = tuple(map(Sector, range(self.n_max + 1), *per_sector))

    @cached_property
    def buckets(self) -> tuple[Bucket, ...]:
        widths, ends = self._widths, np.cumsum(self._widths)
        cuts = [0, *(np.flatnonzero(np.diff(widths)) + 1), self.n_max + 1]
        return tuple(
            Bucket(self._sizes[a:b], int(widths[a]), slice(ends[a] - widths[a], ends[b - 1]))
            for a, b in zip(cuts, cuts[1:])
        )

    def _padded(self, values, fill=0.0) -> tuple[np.ndarray, ...]:
        """Per bucket, (..., k, W) views of `values` over the stored states,
        padded with `fill`."""
        lead = np.shape(values)[:-1]
        out = np.full((*lead, self._widths.sum()), fill, np.result_type(values, fill))
        out[..., self.index] = values
        return tuple(out[..., b.flat].reshape(*lead, len(b.sizes), b.width) for b in self.buckets)

    def _gather(self, stacks) -> np.ndarray:
        """Per-bucket (..., k, W) stacks in the unpadded layout (..., states),
        C-ordered: a row read by `Chain.read` is then one contiguous dot."""
        flat = np.concatenate([s.reshape(*s.shape[:-2], -1) for s in stacks], axis=-1)
        return flat.take(self.index, axis=-1)

    def _views(self, stacks) -> tuple[np.ndarray, ...]:
        """Per sector, the view of its real part in per-bucket (k, W, W) or
        (k, W) stacks."""
        return tuple(
            s[j, :m, :m] if s.ndim == 3 else s[j, :m]
            for b, s in zip(self.buckets, stacks) for j, m in enumerate(b.sizes)
        )

    def _pack(self, arrays, diagonal: bool) -> tuple[np.ndarray, ...]:
        """Per-sector blocks (or diagonals) copied into per-bucket stacks whose
        padding is the identity."""
        arrays = [np.asarray(a) for a in arrays]
        dtype = np.result_type(*{a.dtype for a in arrays})
        stacks = tuple(
            np.ones((len(b.sizes), b.width), dtype) if diagonal
            else np.tile(np.eye(b.width, dtype=dtype), (len(b.sizes), 1, 1))
            for b in self.buckets
        )
        for view, a in zip(self._views(stacks), arrays, strict=True):
            view[...] = a
        return stacks

    @cached_property
    def kz_diags(self) -> tuple[np.ndarray, ...]:
        return tuple(np.split((self.n + 1.0) / 2.0, self._cuts))

    @cached_property
    def n_diags(self) -> tuple[np.ndarray, ...]:
        return tuple(np.split(self.n, self._cuts))

    @cached_property
    def kz_stacks(self) -> tuple[np.ndarray, ...]:
        """Per bucket, the K_z diagonals, 0 on the padding."""
        return self._padded((self.n + 1.0) / 2.0)

    @cached_property
    def kx_stacks(self) -> tuple[np.ndarray, ...]:
        """Per bucket, the K_x blocks: the band 1/2 sqrt((n1+1)(n2+1)), from the
        exact integer product, between each state and the next of its sector;
        0 on the padding."""
        band = 0.5 * np.sqrt(((self._n1 + 1) * (self._n2 + 1)).astype(float))
        band[self.last] = 0.0
        below = (off[:, None, :] * np.eye(off.shape[-1], k=-1) for off in self._padded(band))
        return tuple(b + b.mT for b in below)

    @cached_property
    def kx_blocks(self) -> tuple[np.ndarray, ...]:
        return self._views(self.kx_stacks)

    @cached_property
    def kx_eig(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per bucket, stacks (S, T U, T V) of width W/2 from one SVD
        B = U S V^T per sector of the bidiagonal even-row x odd-column block
        of K_x (module docstring): the rows of U (square) and V signed by
        T = diag((-1)^floor(k/2)), k the row's position in the sector, as
        `_exp_i_ky` reads them, and S given one entry per column of U, a
        singular value 0 for U's null column when the sector size is odd.
        The padding is the identity in U and V and 0 in S."""
        signs = 1.0 - 2.0 * (np.arange(self.n_max // 2 + 1) % 2)
        packed = []
        for b, kx in zip(self.buckets, self.kx_stacks):
            k, half = len(b.sizes), b.width // 2
            sigma = np.zeros((k, half))
            us, vs = np.tile(np.eye(half), (2, k, 1, 1))
            for j, m in enumerate(b.sizes):
                u, s, vt = np.linalg.svd(kx[j, 0:m:2, 1:m:2])
                sigma[j, : len(s)] = s
                us[j, : len(u), : len(u)] = signs[: len(u), None] * u
                vs[j, : len(vt), : len(vt)] = signs[: len(vt), None] * vt.T
            packed.append((sigma, us, vs))
        return tuple(packed)

    @cached_property
    def moment_rows(self) -> tuple[np.ndarray, ...]:
        """Per bucket, (k, 3, W) stacks of the rows n, n^2 and boundary (one-hot
        on each sector's last real state) that `_chain` multiplies into
        |core|^2; 0 on the padding."""
        boundary = np.zeros_like(self.n)
        boundary[self.last] = 1.0
        rows = self._padded(np.stack((self.n, self.n * self.n, boundary)))
        return tuple(np.ascontiguousarray(r.transpose(1, 0, 2)) for r in rows)


@dataclass(frozen=True, init=False, eq=False, repr=False)
class BlockOperator:
    """Immutable operator on the stored sectors d >= 0, one stack per size bucket.

    The operator is mode-swap symmetric: the block of sector -d is that of
    sector d.  `stacks` holds, per bucket, the padded (k, W, W) blocks or,
    for a diagonal operator (`is_diagonal`), the padded (k, W) diagonals,
    whose products with blocks run in O(W^2) per block.  `blocks` and
    `diags` are per-sector views into them, made when read.  `expect` and
    `variance` accept only Hermitian operators.
    """

    ws: FockWorkspace
    stacks: tuple
    is_diagonal: bool

    def __init__(self, ws: FockWorkspace, blocks, diags=None):
        """From per-sector `blocks`, or from per-sector `diags` in their place,
        copied once into stacks padded with the identity."""
        diagonal = diags is not None
        self._hold(ws, ws._pack(diags if diagonal else blocks, diagonal), diagonal)

    @classmethod
    def _of(cls, ws: FockWorkspace, stacks, diagonal: bool = False) -> "BlockOperator":
        op = cls.__new__(cls)
        op._hold(ws, stacks, diagonal)
        return op

    def _hold(self, ws, stacks, diagonal):
        for name, value in (("ws", ws), ("stacks", tuple(stacks)), ("is_diagonal", diagonal)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_diagonal(cls, ws: FockWorkspace, diags) -> "BlockOperator":
        return cls(ws, None, diags=diags)

    def dag(self) -> "BlockOperator":
        stacks = [s.conj() if self.is_diagonal else s.conj().mT for s in self.stacks]
        return BlockOperator._of(self.ws, stacks, self.is_diagonal)

    @cached_property
    def is_hermitian(self) -> bool:
        """Each block equals its conjugate transpose exactly; a diagonal is real."""
        return all(
            np.array_equal(s, s.conj() if self.is_diagonal else s.conj().mT) for s in self.stacks
        )

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        if not isinstance(other, BlockOperator):
            return NotImplemented
        _same_workspace(self, other)
        pairs = zip(self.stacks, other.stacks)
        if self.is_diagonal and other.is_diagonal:
            return BlockOperator._of(self.ws, [v * w for v, w in pairs], diagonal=True)
        if self.is_diagonal:
            stacks = [v[..., None] * b for v, b in pairs]
        elif other.is_diagonal:
            stacks = [b * v[:, None, :] for b, v in pairs]
        else:
            stacks = [_mm(a, b) for a, b in pairs]
        return BlockOperator._of(self.ws, stacks)

    @cached_property
    def _dense(self) -> tuple:
        """The (k, W, W) stacks; a diagonal operator's are built on first read."""
        if not self.is_diagonal:
            return self.stacks
        return tuple(v[..., None] * np.eye(v.shape[-1]) for v in self.stacks)

    @cached_property
    def blocks(self) -> tuple:
        return self.ws._views(self._dense)

    @cached_property
    def diags(self) -> tuple | None:
        return self.ws._views(self.stacks) if self.is_diagonal else None

    def to_dense(self) -> np.ndarray:
        """The full matrix, mirror blocks included, in the blocks' common dtype."""
        if self.ws.dim > _DENSE_LIMIT:
            raise ValueError(
                f"dense assembly of a {self.ws.dim}x{self.ws.dim} matrix exceeds the "
                f"{_DENSE_LIMIT} limit"
            )
        out = np.zeros((self.ws.dim, self.ws.dim), dtype=self.stacks[0].dtype)
        for s, b in zip(self.ws.sectors, self.blocks):
            out[np.ix_(s.idx, s.idx)] = b
            if s.d > 0:
                mirror = s.n2 * (self.ws.n_max + 1) + s.n1
                out[np.ix_(mirror, mirror)] = b
        return out

    @cached_property
    def boundary_weights(self) -> np.ndarray:
        """Boundary-row column sums of |op|^2 over the concatenated sectors:
        the squared last real row of each block."""
        last = [s[np.arange(len(b.sizes)), b.sizes - 1] for b, s in zip(self.ws.buckets, self._dense)]
        return self.ws._gather([_abs2(row) for row in last])

    def unitarity_defect(self) -> float:
        return max(float(np.max(np.abs(_gram_minus_one(s)))) for s in self._dense)

    @cached_property
    def gram_norms(self) -> tuple[float, float]:
        """(delta, eta) over the Grams G = fl(b+ b) - 1 of the blocks: the largest
        |G| entry, and the largest row or column sum of |G|, which is >= ||G||_2."""
        grams = (np.abs(_gram_minus_one(s)) for s in self._dense)
        norms = [(g.max(), max(g.sum(axis=1).max(), g.sum(axis=2).max())) for g in grams]
        return tuple(float(v) for v in np.max(norms, axis=0))


def _gram_minus_one(b: np.ndarray) -> np.ndarray:
    gram = b.conj().mT @ b
    diagonal = np.arange(gram.shape[-1])
    gram[..., diagonal, diagonal] -= 1.0
    return gram


def _same_workspace(a, b):
    """b, once it is checked to live on a's workspace."""
    if a.ws is not b.ws:
        raise ValueError(f"{type(a).__name__} and {type(b).__name__} live on different workspaces")
    return b


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over stacks; a real a times a complex b runs as one real product
    a @ [Re | Im], b viewed as real with interleaved columns, not as a complex
    product."""
    if np.isrealobj(a) and np.iscomplexobj(b):
        b = np.ascontiguousarray(b)
        return (a @ b.view(b.real.dtype)).view(b.dtype)
    return a @ b


def _dense_annihilator(n_max: int) -> np.ndarray:
    a = np.zeros((n_max + 1, n_max + 1))
    ns = np.arange(1, n_max + 1)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


@dataclass(frozen=True)
class ThermalState:
    """Gibbs state of two degenerate oscillators, diagonal in the Fock basis.

    probs is the diagonal after renormalizing away the truncation tail, one
    vector over the concatenated stored sectors d >= 0 that every read dots.
    Sector -d is the mode-swap image of sector d, so every d > 0 entry
    carries weight 2 (its own state and its mirror): probs sums to 1 and a
    trace over the stored sectors counts both mirrors.  leakage is the tail
    weight that was cut.
    """

    ws: FockWorkspace
    probs: np.ndarray
    leakage: float

    def mean_number(self) -> float:
        return float(self.ws.n @ self.probs)


def thermal_state(ws: FockWorkspace, beta: float, omega: float) -> ThermalState:
    """Thermal state with diagonal weights exp(-beta omega (n1+n2+1)) / Z.

    Raises TruncationError when the retained basis misses more than
    THERMAL_LEAK_TOL of the distribution, or when a boundary state itself
    is populated above THERMAL_BOUNDARY_TOL.
    """
    if not 0.0 < beta * omega < math.inf:
        raise ValueError(f"beta*omega must be positive and finite, got beta={beta}, omega={omega}")
    # weights e^{-beta omega (n1+n2+1)} / Z rewritten as q^(n1+n2) (1-q)^2 with
    # q = e^{-beta omega}: identical distribution, but stable deep in the
    # zero-temperature limit where Z itself underflows
    q = math.exp(-beta * omega)
    norm = (1.0 - q) ** 2
    raw = norm * q**ws.n
    folded = np.where(ws._n1 > ws._n2, 2.0 * raw, raw)
    retained = float(folded.sum())
    leakage = 1.0 - retained
    if leakage > THERMAL_LEAK_TOL:
        raise TruncationError(
            f"thermal tail beyond n_max={ws.n_max} holds {leakage:.3e} > {THERMAL_LEAK_TOL:.1e} "
            f"of the weight (beta*omega = {beta * omega:.3g}); increase n_max"
        )
    # per state, not folded over the mirror pair
    boundary = float(raw[ws.last].max())
    if boundary > THERMAL_BOUNDARY_TOL:
        raise TruncationError(
            f"thermal occupancy {boundary:.3e} at the n_max boundary exceeds {THERMAL_BOUNDARY_TOL:.0e}"
        )
    return ThermalState(ws=ws, probs=folded / retained, leakage=leakage)


def _exp_i_ky(ws: FockWorkspace, s: float) -> BlockOperator:
    """exp(i s K_y) as real orthogonal blocks, one batched kernel per bucket.

    The sign (-1)^floor((j-k)/2) of entry jk (module docstring) is t_j t_k,
    t_k = (-1)^floor(k/2), negated where j is even and k odd.  With the
    signed singular vectors U~ = T U and V~ = T V of `kx_eig`, the block is
    U~ cos(sS) U~^T on EE (cos(0) = 1 on U's null column), V~ cos(sS) V~^T
    on OO, V~ sin(sS) U~^T on OE and minus its transpose on EO: three
    half-size products, and the known zeros of each checkerboard part are
    never computed.  On the padding, S = 0 and U~ = V~ = 1 give the identity
    (module docstring), and the extra columns of V~ sin(sS) U~^T are 0."""
    stacks = []
    for sigma, u, v in ws.kx_eig:
        cos, sin = np.cos(s * sigma)[:, None, :], np.sin(s * sigma)[:, None, :]
        y = np.empty((len(sigma), *(2 * sigma.shape[1],) * 2))
        y[:, 0::2, 0::2] = (u * cos) @ u.mT
        y[:, 1::2, 1::2] = (v * cos) @ v.mT
        y[:, 1::2, 0::2] = oe = (v * sin) @ u.mT
        # from oe, not from y: numpy 2.4 misreads a transposed view of y here
        np.negative(oe.mT, out=y[:, 0::2, 1::2])
        stacks.append(y)
    return BlockOperator._of(ws, stacks)


def _quarter_phases(ws: FockWorkspace) -> BlockOperator:
    """D = diag((-i)^k), k the position in the sector, exactly; 1 on the padding."""
    cycle = np.array([1.0, -1j, -1.0, 1j])
    return BlockOperator._of(ws, ws._padded(cycle[ws._n2 % 4], fill=1.0), diagonal=True)


def _phase_kz(ws: FockWorkspace, s: float) -> BlockOperator:
    return BlockOperator._of(ws, [np.exp(1j * s * kz) for kz in ws.kz_stacks], diagonal=True)


def _abs2(b: np.ndarray) -> np.ndarray:
    return b * b if np.isrealobj(b) else b.real**2 + b.imag**2


def boundary_occupancy(op: BlockOperator, state: ThermalState) -> float:
    """Total weight of op rho op+ on the n_max boundary layer."""
    return float(op.boundary_weights @ _same_workspace(op, state).probs)


@dataclass(frozen=True)
class Chain:
    """A unitary product reduced once to what its reads need, and its builder's name.

    Each builder states its chain through `_chain`.  `before` and `after`
    are the outer diagonal factors around the `core`.  The rows of
    `weights` are n^T |core|^2, (n^2)^T |core|^2 and boundary^T |core|^2
    over the concatenated sectors, then the `boundary_weights` of each
    squeezed partial product of the core.  `defect_bound`, where the
    builder gives one, is a proven bound on the core's unitarity defect
    from its factors (`unitary_product`).  The product is formed only
    when read.
    """

    core: BlockOperator
    before: tuple
    after: tuple
    weights: np.ndarray
    label: str
    defect_bound: float | None = None

    @cached_property
    def product(self) -> BlockOperator:
        return reduce(lambda acc, f: f @ acc, (*self.before, self.core, *self.after))

    @cached_property
    def defect(self) -> float:
        """Unitarity defect max |C+ C - 1| of the core C, which bounds the
        product's (module docstring): the `defect_bound` if there is one,
        else the core's own Gram.

        `unitary_product`'s bound for C = fl(Y^T fl(P Y)), Y real, P diagonal,
        with u = 2^-53, gamma_k = k u / (1 - k u) (Higham, Accuracy and
        Stability of Numerical Algorithms, 2nd ed., sec. 3.5) and m the
        largest block size (the bound grows with m and each input, so the
        worst inputs over the blocks bound every block):

        * inputs: delta = max |G^| and eta = the largest row or column sum of
          |G^|, >= ||G^||_2, with G^ = fl(Y^T Y) - 1 (Y's `gram_norms`; the
          - 1 is exact by Sterbenz while delta < 1/2, and past that the bound
          exceeds any tolerance), and e^ = max |1 - fl(|p|^2)| over P.
        * exact G = Y^T Y - 1: |G^ - G| <= gamma_m |Y|^T |Y|, so every column
          has |y_j|^2 = 1 + G_jj <= kappa = (1 + delta) / (1 - gamma_m), every
          |G - G^|_jk <= gamma_m kappa, and ||G||_2 <= g =
          (eta + m gamma_m kappa) / (1 - gamma_m), the division covering the
          rounding of eta's sums; max |1 - |p|^2| <= e = (e^ + gamma_2) / (1 - gamma_2).
        * exact core: C+ C - 1 = G + Y^T Q Y + Y^T P+ H P Y, Q = P+ P - 1,
          H = Y Y^T - 1, and ||H||_2 = ||G||_2 for square Y (same
          eigenvalues).  By Cauchy-Schwarz on the columns,
          |C+ C - 1|_jk <= delta + gamma_m kappa + e kappa + (1 + e) kappa g.
        * rounding: fl(P Y) rounds each part of each entry once, u |P| |Y|,
          and Y^T fl(P Y) is one real product on `_mm`'s interleaved view,
          gamma_m |Y|^T |fl(P Y)| in each part.  So every entry of the
          computed core's error R is <= rho = gamma_(m+1) sqrt(1 + e) kappa,
          every column of R has norm <= sqrt(m) rho, and every column
          Y^T P y_j of C norm <= ||Y||_2 sqrt((1 + e) kappa) <= c =
          sqrt((1 + g)(1 + e) kappa).  R adds C+ R + R+ C + R+ R to
          C+ C - 1, entrywise <= 2 sqrt(m) rho c + m rho^2.

        The sum, times 1 + gamma_64 for the rounding of evaluating it, is the
        bound.  It certifies Y, P and the rounding of the one product
        expression, not a core altered after it is built.
        """
        return self.core.unitarity_defect() if self.defect_bound is None else self.defect_bound

    def occupancy(self, state: ThermalState) -> float:
        """Worst boundary occupancy of the state after any guarded partial product."""
        return max(self._dots(state)[2:])

    def read(self, state: ThermalState) -> tuple[float, float, float]:
        """<N>, Delta^2 N and the boundary mass of U rho U+; raises
        TruncationError past an `occupancy` of LEAK_TOL."""
        mean, second, *boundary = self._dots(state)
        worst = max(boundary)
        if worst > LEAK_TOL:
            raise TruncationError(
                f"{self.label}: boundary occupancy {worst:.3e} exceeds leakage budget "
                f"{LEAK_TOL:.1e} at n_max={state.ws.n_max}; increase n_max or reduce "
                "the squeezing"
            )
        return mean, second - mean * mean, boundary[0]

    def _dots(self, state: ThermalState) -> list[float]:
        return (self.weights @ _same_workspace(self.core, state).probs).tolist()


def _chain(
    label: str, core: BlockOperator, before=(), after=(), squeezed=(), defect_bound=None
) -> Chain:
    """The chain `before`, `core`, `after`, each ordered as applied to the state.

    The outer diagonal phases `before` and `after` move no population, so
    every read is of the core: the moment rows from |core|^2, taken once,
    whose boundary row is the core's `boundary_weights` bit for bit (it is
    one-hot on each sector's last state), then those of each `squeezed`
    partial product of the core.
    """
    ws = core.ws
    moments = [(r @ _abs2(c)).transpose(1, 0, 2) for r, c in zip(ws.moment_rows, core.stacks)]
    weights = np.vstack([ws._gather(moments), *(s.boundary_weights for s in squeezed)])
    return Chain(core, before, after, weights, label, defect_bound)


def evolved_boundary_occupancy(factors, state: ThermalState) -> float:
    """Worst boundary occupancy along rho -> F1 rho F1+ -> (F2 F1) rho ...,
    `factors` ordered as applied to the state (rightmost operator first),
    read after each non-diagonal factor (diagonal phases move no population)."""
    partials = accumulate(factors, lambda acc, f: f @ acc)
    return max(boundary_occupancy(p, state) for p, f in zip(partials, factors) if not f.is_diagonal)


def unitary_product(y: BlockOperator, phi: float) -> Chain:
    """The chain of the squeeze / phase / anti-squeeze product
    exp(-i zeta K_x) exp(-i phi K_z) exp(i zeta K_x) = D+ Y^T P Y D, with
    Y = exp(i zeta K_y) = `_exp_i_ky(ws, zeta)` real, P = exp(-i phi K_z)
    and D = diag((-i)^k) outer.  Y depends on zeta alone, so a caller
    builds it once and passes the same operator for every phi; the boundary
    weights of the squeezed state are memoised on it.

    It guards the intermediate squeezed state Y D and the final state (the
    intermediate squeeze is the binding constraint: it spreads the state
    by zeta even when the composed chi is small).  The core's unitarity
    defect is the bound of `Chain.defect`, from Y's memoised `gram_norms`
    and P's phases; the chain keeps floats, not Y."""
    ws = y.ws
    d = _quarter_phases(ws)
    p = _phase_kz(ws, -phi)
    core = BlockOperator._of(ws, [b.mT for b in y.stacks]) @ (p @ y)
    eps_p = max(float(np.max(np.abs(1.0 - _abs2(v)))) for v in p.stacks)
    bound = _product_defect_bound(ws.n_max + 1, *y.gram_norms, eps_p)
    return _chain("unitary_product", core, (d,), (d.dag(),), squeezed=(y,), defect_bound=bound)


def _product_defect_bound(m: int, delta: float, eta: float, eps_p: float) -> float:
    """The bound of `Chain.defect` on the unitarity defect of fl(Y^T fl(P Y)),
    term by term as derived there."""
    g_m = _gamma(m)
    kappa = (1.0 + delta) / (1.0 - g_m)
    g = (eta + m * g_m * kappa) / (1.0 - g_m)
    e = (eps_p + _gamma(2)) / (1.0 - _gamma(2))
    exact = delta + g_m * kappa + e * kappa + (1.0 + e) * kappa * g
    rho = _gamma(m + 1) * math.sqrt(1.0 + e) * kappa
    c = math.sqrt((1.0 + g) * (1.0 + e) * kappa)
    return (exact + 2.0 * math.sqrt(m) * rho * c + m * rho * rho) * (1.0 + _gamma(64))


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u the unit roundoff of double."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def unitary_equiv(endpoints: ProtocolEndpoints, ws: FockWorkspace) -> Chain:
    """The chain of the endpoint form exp(i theta K_z) exp(i chi K_y) exp(-i theta K_z);
    its core is the real exp(i chi K_y)."""
    theta = endpoints.theta
    core = _exp_i_ky(ws, endpoints.chi)
    return _chain("unitary_equiv", core, (_phase_kz(ws, -theta),), (_phase_kz(ws, theta),))


def evolution_endpoint(f_y_tf: float, f_z_tf: float, ws: FockWorkspace) -> Chain:
    """The chain of the time-ordered endpoint unitary exp(-i f_z K_z) exp(-i f_y K_y);
    its core is the real exp(-i f_y K_y)."""
    return _chain("evolution_endpoint", _exp_i_ky(ws, -f_y_tf), after=(_phase_kz(ws, -f_z_tf),))


def hamiltonian_final(omega_f: float, f_y_tf: float, ws: FockWorkspace) -> BlockOperator:
    """End-of-stroke Heisenberg Hamiltonian
    2 omega_f [cosh(f_y) K_z - sinh(f_y) K_x]; reduces to omega_f (N + 1)
    at f_y = 0."""
    ch, sh = math.cosh(f_y_tf), math.sinh(f_y_tf)
    stacks = [
        2.0 * omega_f * (ch * (kz[..., None] * np.eye(kz.shape[-1])) - sh * kx)
        for kz, kx in zip(ws.kz_stacks, ws.kx_stacks)
    ]
    return BlockOperator._of(ws, stacks)


def expect(op: BlockOperator, state: ThermalState) -> float:
    """Tr[O rho] for a Hermitian O and the diagonal state."""
    probs = _same_workspace(op, state).probs
    if not op.is_hermitian:
        raise ValueError("expect needs a Hermitian operator")
    diagonal = [np.diagonal(s, axis1=1, axis2=2) for s in op._dense]
    return float(op.ws._gather(diagonal).real @ probs)


def variance(op: BlockOperator, state: ThermalState) -> float:
    """Tr[O^2 rho] - Tr[O rho]^2 for a Hermitian O, from the row norms of O
    instead of forming O^2."""
    mean = expect(op, state)
    # (O^2)_jj = sum_k |O_jk|^2 for Hermitian O
    second = float(op.ws._gather([_abs2(s).sum(axis=2) for s in op._dense]) @ state.probs)
    return second - mean * mean
