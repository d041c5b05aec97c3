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
sectors counts both.  No matrix over the full basis is assembled here:
only the tests' dense reference writes the mirror blocks out.
`FockWorkspace.kx_band` is the one construction of K_x, in double
precision, O(states): `kx_eig` builds its parity blocks from it,
`hamiltonian_final` scales it into the band of its `Tridiagonal`, and the
gate's algebra records read it with the workspace's own K_z and N
diagonals.

Size-bucketed stacks.  No kernel loops over sectors, apart from the one-time
SVD of each sector's K_x parity block in `kx_eig`: each stored sector is
padded to the next multiple of _PAD = 8 states, and a bucket is a run of
consecutive sectors of one padded size W, held as one (k, W, W) stack of
blocks (one (k, W) stack of diagonals), so each kernel is one numpy call per
bucket.  The sectors of one width form one bucket unless its stack k W^2
would pass _STACK_ENTRIES = 2^16 entries (512 KiB of doubles): such a run is
split into the fewest consecutive, near-equal buckets of at most
max(1, _STACK_ENTRIES // W^2) sectors, so a read's stacks are bounded by the
budget instead of growing as 8 W^2.  Nothing splits up to n_max = 94; at
n_max = 120 the runs of widths 96 ... 120 split in two, and the
ceil((n_max + 1) / 8) = 16 runs are 20 buckets.  Splitting regroups only the
sums over sectors.  The padding invariant, which every kernel keeps and
relies on:

* the padded rows and columns of every unitary factor are exactly the
  identity: `kx_eig`'s padded U and V are the identity and its padded
  singular values 0, so exp(i s K_y) is the identity there; the padded K_z
  is 0, so every phase there is exactly 1; products of such factors keep
  it.  Padding adds only exact zeros to every sum, which round nothing, so
  every rounding bound below keeps m the largest real block size;
* every read gives the padding weight 0: the padded entries of every
  observable and state diagonal are 0, a Gram there reads exactly 0, and
  each sector's boundary row is its last real state, not its last padded
  one;
* what leaves the stacks (`ThermalState.probs`, boundary weights) is in the
  unpadded layout, the stored sectors concatenated, gathered through the
  one workspace index `FockWorkspace.index`; `BlockOperator.blocks` and
  `.diags` are per-sector views into the stacks.

Every exponential is the one real kernel `_squeeze`, a bucket of
exp(i s K_y) (`_exp_i_ky` stacks them), real orthogonal in the Fock basis
(Yurke, McCall & Klauder, PRA 33, 4033 (1986)).  K_x is tridiagonal with a
zero diagonal, so it only couples the even positions E of a sector to the
odd ones O: K_x = [[0, B], [B^T, 0]] with the bidiagonal B = U S V^T of
size ceil(m/2) x floor(m/2).  Hence
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

Operators are immutable: a `BlockOperator` holds the stacks it is given,
and its per-sector views and reads are made from them when first read.
The one observable read as an operator, the end-of-stroke Hamiltonian, is
real symmetric tridiagonal by construction, so it is held as a
`Tridiagonal`, its diagonal and band over the stored states, which
`expect` and `variance` read in O(states).

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
THERMAL_BOUNDARY_TOL on a boundary state, and `GridRead.read`, the one
read of a form's moments, raises past a boundary occupancy of LEAK_TOL
instead of letting quietly wrong numbers through.  The unitaries do not
depend on the state, and outer K_z phases move no population, so the
gate's two forms are read at once for every thermal state and grid point,
one size bucket at a time, and never formed.  The tests check these reads
against |U|^2 p for dense exponentials over the full, unfolded basis.

Grid reads
----------
Each form is read once for a whole grid into one `GridRead`.  Each moment
is Tr(X U rho U+) for X = N (and N^2, un2 only, for a caller that reads
Delta^2 N: the truncation-convergence record reads <N> and the guard) and
the diagonal state rho, a real series in the grid's angles (o the
entrywise product):

* un2 = exp(i theta K_z) Y(chi) exp(-i theta K_z), Y(chi) = exp(i chi K_y)
  = W R W^T up to the exact interleave of the even and odd positions E and
  O, with W = diag(U~, V~) the signed factors of `kx_eig` and
  R = [[C, -S], [S, C]], C, S = cos, sin(chi S) (`unitary_equiv`):
      <X> = c^T [(U~^T X_E U~) o (U~^T rho_E U~) + (V~^T X_O V~) o (V~^T rho_O V~)] c
          + s^T [(V~^T X_O V~) o (U~^T rho_E U~) + (U~^T X_E U~) o (V~^T rho_O V~)] s,
  c, s = cos, sin(chi S): half-size congruences once, O(m^2) per chi;
* un1 = D+ Y^T P Y D, Y = Y(zeta), P = exp(-i phi K_z) (`unitary_product`):
  with C = Y^T P Y, M_N = Y N Y^T, R = Y rho Y^T, Tr(N C rho C+) = Tr(M_N P R P+):
      <N> = c^T (R o M_N) c + s^T (R o M_N) s,  c, s = cos, sin(phi K_z):
  the sandwiches once per zeta, O(m^2) per phi, the points zeta-major.  Y
  is built and read one bucket at a time (`_squeeze`).

The boundary mass is sum_j rho_j |U_(last, j)|^2, a sum of squares of each
sector's evolved boundary row, never a quadratic form in the boundary
projector, whose cancellations can read a negative mass.  un1 also guards
its squeezed state, whose mass is un2's at chi = zeta (`_last_row_mass`,
from the factors, before any Y is built): a state refused there is refused
at every phi, and its R is never formed.

Scratch.  A read writes its per-bucket stacks into buffers it reuses over
its zetas and buckets (`_Scratch`), as regrowing them took fresh pages at
every point: un1's Y, Y scaled by a diagonal (its head holds `_squeeze`'s
half-size products), M_N and R; un2's factor scaled by one diagonal at a
time, the congruences of its r observables and S states on each parity, and
the two Hadamard sums of one observable over every state fed to `_series`,
2 (r + S) + 2 S + 1 half-size (k, W/2, W/2) stacks in all.  Each is made on
first request for the read's largest k W^2 and dies with the read.  A
smaller bucket's view of its head holds stale entries, a larger bucket's
padding among them, and the padding invariant holds as each is overwritten
before it is read: `_squeeze` writes all four checkerboard parts of Y, and
every other use is the whole `out` of a numpy call.

Unitarity bounds
----------------
`GridRead.defect` bounds max |U+ U - 1| for the exact unitary of the
computed factors (u = 2^-53, gamma_k = k u / (1 - k u); Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., sec. 3.5).  A real factor F of
block size <= m whose Gram G^ = fl(F^T F) - 1 reads delta = max |G^| and
eta = the largest row or column sum of |G^|, >= ||G^||_2 (`_gram_norms`;
the - 1 is exact by Sterbenz while delta < 1/2, and past that the bound
exceeds any tolerance), has |G^ - G| <= gamma_m |F|^T |F| for the exact
G = F^T F - 1, so every column has |f_j|^2 = 1 + G_jj <= kappa =
(1 + delta) / (1 - gamma_m) and ||G||_2 <= g = (eta + m gamma_m kappa) /
(1 - gamma_m), the division covering the rounding of eta's sums; phases
whose computed moduli read e^ = max |1 - fl(|p|^2)| have
max |1 - |p|^2| <= e = (e^ + gamma_2) / (1 - gamma_2).  The bound is taken
when first read, so a basis whose bound no record reads forms no Gram.

Both forms compose X = F M F^T, F square with ||F^T F - 1||_2 <= g and
||M+ M - 1||_2 <= e: with H = F F^T - 1 (||H||_2 = ||G||_2, F square) and
Q = M+ M - 1, X+ X - 1 = H + F Q F^T + F M+ G M F^T exactly, and
||F||_2^2 <= 1 + g, ||M||_2^2 <= 1 + e, so ||X+ X - 1||_2 (and every entry)
is <= g + e (1 + g) + g (1 + e) (1 + g), evaluated times 1 + gamma_64
(`_conjugation_bound`).  Each certifies its factors, not the read's
rounding, as neither read forms U; the pairwise mean records check that:

* un2 (and tiev, which reads it): Y(chi) = W R W^T, g from the Grams of U~
  and V~ once per workspace (`kx_eig_gram_norms`, m their rows), e from
  each chi's R, R^T R - 1 = diag(q, q), q = c^2 + s^2 - 1 (C and S
  commute) (`_equiv_defect_bound`): 8.6e-13 at n_max = 120;
* un1: C = Y^T P Y, Y = Y(zeta), so g is un2's bound at zeta's R and e
  P's moduli per phi (`_product_defect_bound`): 1.72e-12 at n_max = 120,
  O(1) per point.  Its m gamma_m terms alone reach the gate's 1e-10 near
  n_max = 950, where the record would fail falsely, the safe direction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import TruncationError

__all__ = [
    "FockWorkspace",
    "BlockOperator",
    "Tridiagonal",
    "ThermalState",
    "GridRead",
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

_PAD = 8  # every stored sector is padded to a multiple of this many states
_STACK_ENTRIES = 2**16  # a bucket's k W^2 stack past this is split, unless k = 1

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
    """Stored sectors padded to one `width`, consecutive d: each holds
    sizes[j] real states, and all of them fill `flat` of the padded
    concatenation.  A run of one width past the stack budget is several
    buckets (module docstring)."""

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
        if isinstance(n_max, bool) or not isinstance(n_max, numbers.Integral) or n_max < 1:
            raise ValueError(f"n_max must be an integer >= 1, got {n_max!r}")
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

    @cached_property
    def sectors(self) -> tuple[Sector, ...]:
        """Per stored sector, its states: built when first read, by the ladder record alone."""
        n1, n2 = self._n1, self._n2
        per_sector = [np.split(a, self.last[:-1] + 1) for a in (n1, n2, n1 * (self.n_max + 1) + n2)]
        return tuple(map(Sector, range(self.n_max + 1), *per_sector))

    @cached_property
    def buckets(self) -> tuple[Bucket, ...]:
        """The stored sectors in order, as runs of one padded width W, each run
        of k sectors split into the fewest near-equal parts of at most
        max(1, _STACK_ENTRIES // W^2) sectors (module docstring)."""
        widths, ends = self._widths, np.cumsum(self._widths)
        runs = np.split(np.arange(self.n_max + 1), np.flatnonzero(np.diff(widths)) + 1)
        parts = (np.array_split(d, -(-len(d) // max(1, _STACK_ENTRIES // widths[d[0]] ** 2))) for d in runs)
        return tuple(
            Bucket(self._sizes[d], int(widths[d[0]]), slice(ends[d[0]] - widths[d[0]], ends[d[-1]]))
            for run in parts for d in run
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
        C-ordered, so that a row dotted with a state is one contiguous dot."""
        flat = np.concatenate([s.reshape(*s.shape[:-2], -1) for s in stacks], axis=-1)
        return flat.take(self.index, axis=-1)

    def _views(self, stacks) -> tuple[np.ndarray, ...]:
        """Per sector, the view of its real part in per-bucket (k, W, W) or
        (k, W) stacks."""
        return tuple(
            s[j, :m, :m] if s.ndim == 3 else s[j, :m]
            for b, s in zip(self.buckets, stacks) for j, m in enumerate(b.sizes)
        )

    @cached_property
    def kz(self) -> np.ndarray:
        """The K_z diagonal (n + 1)/2 over the stored states."""
        return (self.n + 1.0) / 2.0

    @cached_property
    def kz_stacks(self) -> tuple[np.ndarray, ...]:
        """Per bucket, the K_z diagonals, 0 on the padding."""
        return self._padded(self.kz)

    @cached_property
    def kx_band(self) -> np.ndarray:
        """K_x[j, j+1] = K_x[j+1, j] over the stored states: the band
        1/2 sqrt((n1+1)(n2+1)), from the exact integer product, between each
        state and the next of its sector, and 0 at each sector's last state."""
        band = 0.5 * np.sqrt(((self._n1 + 1) * (self._n2 + 1)).astype(float))
        band[self.last] = 0.0
        return band

    def _parity_blocks(self):
        """Per bucket, (k, W/2, W/2) stacks of the bidiagonal even-row x
        odd-column blocks B of K_x, straight from the band and made as they
        are read: B[i, i] = band[2i], B[i, i-1] = band[2i-1]; sector j's block
        is [j, :ceil(m/2), :floor(m/2)]."""
        for band in self._padded(self.kx_band):
            i = np.arange(band.shape[-1] // 2)
            block = np.zeros((len(band), len(i), len(i)))
            block[:, i, i], block[:, i[1:], i[:-1]] = band[:, 0::2], band[:, 1:-1:2]
            yield block

    @cached_property
    def kx_eig(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per bucket, stacks (S, T U, T V) of width W/2 from one SVD
        B = U S V^T per sector of the bidiagonal even-row x odd-column block
        of K_x (`_parity_blocks`, module docstring): the rows of U (square)
        and V signed by T = diag((-1)^floor(k/2)), k the row's position in
        the sector, as `_exp_i_ky` reads them, and S given one entry per
        column of U, a singular value 0 for U's null column when the sector
        size is odd.  The padding is the identity in U and V and 0 in S."""
        packed = []
        for b, blocks in zip(self.buckets, self._parity_blocks()):
            k, half = len(b.sizes), b.width // 2
            sigma, (us, vs) = np.zeros((k, half)), np.zeros((2, k, half, half))
            for j, m in enumerate(b.sizes):
                u, s, vt = np.linalg.svd(blocks[j, : -(-m // 2), : m // 2])
                sigma[j, : len(s)] = s
                us[j, : len(u), : len(u)], vs[j, : len(vt), : len(vt)] = u, vt.T
            # one sign mask per factor, (-1)^i on row i of a real block and 1 on
            # the padding, then the identity on the padded diagonal
            i = np.arange(half)
            for f, rows in ((us, -(-b.sizes // 2)), (vs, b.sizes // 2)):
                real = i < rows[:, None]
                f *= np.where(real, 1.0 - 2.0 * (i % 2), 1.0)[..., None]
                f[:, i, i] = np.where(real, f[:, i, i], 1.0)
            packed.append((sigma, us, vs))
        return tuple(packed)

    @cached_property
    def kx_eig_gram_norms(self) -> tuple[float, float]:
        """`_gram_norms` over the signed factors U~ and V~ of `kx_eig`, the
        factor Grams of both forms' bounds (module docstring)."""
        return _gram_norms(np.concatenate((u, v)) for _, u, v in self.kx_eig)


@dataclass(frozen=True, eq=False)
class _BucketSpace:
    """One bucket of a workspace as a space of its own: a read that streams
    one bucket at a time multiplies `BlockOperator`s of it, one stack each,
    and writes a dense product into `out`, a buffer of the read's scratch."""

    buckets: tuple[Bucket]
    out: np.ndarray
    _views = FockWorkspace._views


class _Scratch:
    """The buffers of one grid read (module docstring, Scratch)."""

    def __init__(self, ws: FockWorkspace):
        self._most, self._flat = max(len(b.sizes) * b.width**2 for b in ws.buckets), {}

    def __call__(self, key: str, width: int, *shape: int) -> np.ndarray:
        """Buffer `key` as `shape`, (..., k, m, m) for k sectors padded to
        `width`, each key's shapes one multiple of k width^2."""
        size = math.prod(shape)
        if key not in self._flat:
            self._flat[key] = np.empty(size * self._most // (shape[-3] * width * width))
        return self._flat[key][:size].reshape(shape)


@dataclass(frozen=True, eq=False, repr=False)
class BlockOperator:
    """Immutable operator on the stored sectors d >= 0, one stack per size bucket.

    The operator is mode-swap symmetric: the block of sector -d is that of
    sector d.  `stacks` is a tuple holding, per bucket, the padded
    (k, W, W) blocks or, for a diagonal operator (`is_diagonal`), the
    padded (k, W) diagonals, whose products with blocks run in O(W^2) per
    block; the builders make them with the padding of the module
    docstring, and the operator holds them as given.  `blocks` and `diags`
    are per-sector views into them, made when read.
    """

    ws: FockWorkspace
    stacks: tuple
    is_diagonal: bool = False

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        if not isinstance(other, BlockOperator):
            return NotImplemented
        _same_workspace(self.ws, other)
        pairs = zip(self.stacks, other.stacks)
        if self.is_diagonal and other.is_diagonal:
            return BlockOperator(self.ws, tuple(v * w for v, w in pairs), True)
        if self.is_diagonal:
            stacks = tuple(v[..., None] * b for v, b in pairs)
        elif other.is_diagonal:
            stacks = tuple(b * v[:, None, :] for b, v in pairs)
        else:
            out = getattr(self.ws, "out", None)  # a `_BucketSpace` lends its scratch
            stacks = tuple(np.matmul(a, b, out=out) for a, b in pairs)
        return BlockOperator(self.ws, stacks)

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

    @cached_property
    def boundary_weights(self) -> np.ndarray:
        """Boundary-row column sums of |op|^2 over the concatenated sectors:
        the squared last real row of each block."""
        last = [s[np.arange(len(b.sizes)), b.sizes - 1] for b, s in zip(self.ws.buckets, self._dense)]
        return self.ws._gather([_abs2(row) for row in last])

    def unitarity_defect(self) -> float:
        return max(float(np.max(np.abs(_gram_minus_one(s)))) for s in self._dense)


def _gram_norms(stacks) -> tuple[float, float]:
    """(delta, eta) over the Grams G = fl(b+ b) - 1 of the blocks of `stacks`:
    the largest |G| entry, and the largest row or column sum of |G|, which
    is >= ||G||_2."""
    grams = (np.abs(_gram_minus_one(s)) for s in stacks)
    norms = [(g.max(), max(g.sum(axis=1).max(), g.sum(axis=2).max())) for g in grams]
    return tuple(float(v) for v in np.max(norms, axis=0))


def _gram_minus_one(b: np.ndarray) -> np.ndarray:
    gram = b.conj().mT @ b
    diagonal = np.arange(gram.shape[-1])
    gram[..., diagonal, diagonal] -= 1.0
    return gram


def _same_workspace(ws, b):
    """b, once it is checked to live on the workspace ws."""
    if ws is not b.ws:
        raise ValueError(f"{type(b).__name__} and its operator live on different workspaces")
    return b


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
    """exp(i s K_y) as real orthogonal blocks: the stack of `_squeeze` per bucket."""
    return BlockOperator(ws, tuple(_squeeze(u, v, *_rotation(sigma, (s,))) for sigma, u, v in ws.kx_eig))


def _rotation(sigma: np.ndarray, angles) -> tuple[np.ndarray, np.ndarray]:
    """cos, sin(a S) of one bucket's singular values S for each angle a:
    sigma (k, h) and the angles (P,) give (k, h, P) each."""
    a = np.multiply.outer(sigma, angles)
    return np.cos(a), np.sin(a)


def _squeeze(u: np.ndarray, v: np.ndarray, cos: np.ndarray, sin: np.ndarray, scratch=None):
    """A bucket's (k, W, W) stack of exp(i s K_y) from its `_rotation` at s.

    The sign (-1)^floor((j-k)/2) of entry jk (module docstring) is t_j t_k,
    t_k = (-1)^floor(k/2), negated where j is even and k odd.  With the
    signed singular vectors U~ = T U and V~ = T V of `kx_eig`, the block is
    U~ cos(sS) U~^T on EE (cos(0) = 1 on U's null column), V~ cos(sS) V~^T
    on OO, V~ sin(sS) U~^T on OE and minus its transpose on EO: three
    half-size products, and the known zeros of each checkerboard part are
    never computed.  On the padding, S = 0 and U~ = V~ = 1 give the identity
    (module docstring), and the extra columns of V~ sin(sS) U~^T are 0.  Y
    and the half-size buffers are the read's `scratch` if given, else new."""
    k, h = u.shape[:2]
    lend = scratch or (lambda key, width, *shape: np.empty(shape))
    # the halves are the head of the buffer that `_product_moments` scales Y into
    y, (scaled, product) = lend("y", 2 * h, k, 2 * h, 2 * h), lend("scaled", 2 * h, 4, k, h, h)[:2]
    for f, g, t, rows, cols in ((u, u, cos, 0, 0), (v, v, cos, 1, 1), (v, u, sin, 1, 0)):
        y[:, rows::2, cols::2] = np.matmul(np.multiply(f, t.mT, out=scaled), g.mT, out=product)
    # from the OE product, not from y: numpy 2.4 misreads a transposed view of y here
    np.negative(product.mT, out=y[:, 0::2, 1::2])
    return y


def _last_row_mass(bucket: Bucket, u, v, c, s, probs: np.ndarray) -> np.ndarray:
    """sum_j rho_j Y_(last, j)^2 over a bucket for Y = exp(i a K_y) at each
    angle of the `_rotation` c, s, never formed: probs (states, k, W) gives
    (states, P).  The last row is w o c on E and w o s on O, w U~'s last row,
    for an odd sector size; w o s and w o c, w V~'s last row, for even."""
    j, m = np.arange(len(bucket.sizes)), bucket.sizes
    odd_size = (m % 2 == 1)[:, None, None]
    w = np.where(odd_size[..., 0], u[j, (m - 1) // 2], v[j, (m - 2) // 2])[..., None]
    rows_e = (w * np.where(odd_size, c, s)).mT @ u.mT
    rows_o = (w * np.where(odd_size, s, c)).mT @ v.mT
    return _mass(probs[:, :, 0::2], rows_e * rows_e) + _mass(probs[:, :, 1::2], rows_o * rows_o)


def _kz_phases(ws: FockWorkspace, angles) -> tuple[np.ndarray, ...]:
    """Per bucket, the (k, W, n) phases exp(i a K_z) of the n angles a, 1 on
    the padding."""
    return tuple(np.exp(1j * np.multiply.outer(kz, angles)) for kz in ws.kz_stacks)


def _phase_kz(ws: FockWorkspace, s: float) -> BlockOperator:
    return BlockOperator(ws, tuple(z[..., 0] for z in _kz_phases(ws, (s,))), True)


def _abs2(b: np.ndarray) -> np.ndarray:
    return b * b if np.isrealobj(b) else b.real**2 + b.imag**2


def boundary_occupancy(op: BlockOperator, state: ThermalState) -> float:
    """Total weight of op rho op+ on the n_max boundary layer."""
    return float(op.boundary_weights @ _same_workspace(op.ws, state).probs)


@dataclass(frozen=True, eq=False, repr=False)
class GridRead:
    """One form's moments at every (thermal state, grid point), and the name of its read.

    `moments` is (rows, states, points): <N>, then <N^2> where the caller
    reads it (un2 alone), then the boundary mass of U rho U+.  `occupancy`
    is (states, points), the worst boundary mass after any guarded partial
    product.  `moduli` is (points, 1), each chi's rotation moduli read (un2),
    or (points, 2), the squeeze's and the phases' (un1), from which `defect`,
    the (points,) bound on the unitarity defect of the form's factors
    (module docstring), is taken when first read.
    """

    ws: FockWorkspace
    label: str
    moments: np.ndarray
    occupancy: np.ndarray
    moduli: np.ndarray

    @cached_property
    def defect(self) -> np.ndarray:
        half, norms = (self.ws.n_max + 2) // 2, self.ws.kx_eig_gram_norms
        bound = _equiv_defect_bound if self.moduli.shape[1] == 1 else _product_defect_bound
        return np.array([bound(half, *norms, *eps) for eps in self.moduli.tolist()])

    def read(self, state: int, point: int) -> tuple[float, ...]:
        """<N>, Delta^2 N where the form reads <N^2>, and the boundary mass of
        U rho U+ at the state and point of these indices; raises
        TruncationError past an `occupancy` of LEAK_TOL, or at a NaN one."""
        worst = float(self.occupancy[state, point])
        if not worst <= LEAK_TOL:
            raise TruncationError(
                f"{self.label}: boundary occupancy {worst:.3e} exceeds leakage budget "
                f"{LEAK_TOL:.1e} at n_max={self.ws.n_max}; increase n_max or reduce "
                "the squeezing"
            )
        mean, *second, boundary = self.moments[:, state, point].tolist()
        return (mean, *(x - mean * mean for x in second), boundary)


def _populations(ws: FockWorkspace, states) -> np.ndarray:
    """The (states, stored states) populations of `states`, each on ws."""
    if len(states) == 0:
        raise ValueError("states must hold at least one thermal state")
    return np.stack([_same_workspace(ws, state).probs for state in states])


def _series(h: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The sum over a bucket's sectors of c^T h c for each angle: h
    (..., k, W, W) and the angles' columns c (k, W, P) give (..., P)."""
    hc = h @ c
    return np.multiply(hc, c, out=hc).sum(axis=(-3, -2))


def _mass(probs: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """sum_j rho_j row_j^2 over a bucket's sectors: the populations
    (states, k, W) and the squared rows (k, P, W) give (states, P)."""
    return (probs.transpose(1, 0, 2) @ squares.mT).sum(axis=0)


def _congruence(f: np.ndarray, diagonals: np.ndarray, scaled: np.ndarray, out: np.ndarray) -> np.ndarray:
    """F^T diag(x) F for each diagonal x into `out`, one x at a time through
    `scaled`: f and scaled (k, h, h) and diagonals (Q, k, h) give (Q, k, h, h)."""
    for x, o in zip(diagonals, out):
        np.matmul(np.multiply(f, x[..., None], out=scaled).mT, f, out=o)
    return out


def unitary_product(ws: FockWorkspace, zetas, phis, states) -> GridRead:
    """The product form exp(-i zeta K_x) exp(-i phi K_z) exp(i zeta K_x) =
    D+ Y^T P Y D read at every (zeta, phi) of `zetas` x `phis`, zeta-major,
    for every thermal state of `states`: Y = `_exp_i_ky(ws, zeta)`, P =
    exp(-i phi K_z), and D = diag((-i)^k), exp(-i (pi/2) K_z) times one
    unit-modulus constant per sector, an outer phase.  It guards the squeezed
    state Y D, the binding constraint (it spreads the state by zeta even when
    the composed chi is small), and the final state.  A state whose squeezed
    state is past LEAK_TOL is refused at every phi of that zeta, so its R is
    never formed and its <N> there is NaN, which `read` never returns.  Every
    zeta and phi must be finite."""
    _finite("zeta", zetas), _finite("phi", phis)
    probs = _populations(ws, states)
    phases = _kz_phases(ws, -np.asarray(phis, float))
    eps = np.max([np.max(np.abs(1.0 - _abs2(z)), axis=(0, 1)) for z in phases], axis=0)
    # per bucket, the diagonals of N and each state, and the (k, W, 2 n)
    # columns cos(phi K_z), then -sin(phi K_z), which replace the phases
    diagonals = ws._padded(np.vstack((ws.n, probs)))
    columns = [np.concatenate((z.real, z.imag), axis=-1) for z in phases]
    del phases
    n = len(phis)
    moments = np.zeros((2, len(probs), len(zetas) * n))
    occupancy, eps_ys, scratch = np.zeros(moments.shape[1:]), [], _Scratch(ws)
    for i, zeta in enumerate(zetas):
        at = slice(i * n, (i + 1) * n)  # zeta's points
        parts = [(b, u, v, *_rotation(sigma, (zeta,))) for b, (sigma, u, v) in zip(ws.buckets, ws.kx_eig)]
        squeezed = sum(_last_row_mass(*part, d[1:]) for part, d in zip(parts, diagonals))[:, 0]
        admitted = squeezed <= LEAK_TOL
        for (b, u, v, c, s), d, col in zip(parts, diagonals, columns):  # one bucket's Y at a time
            y = _squeeze(u, v, c, s, scratch)
            moments[:, :, at] += _product_moments(b, y, d, col, admitted, scratch)
        moments[0, ~admitted, at] = np.nan
        occupancy[:, at] = np.maximum(moments[1, :, at], squeezed[:, None])
        eps_ys.append(max(float(np.max(np.abs(1.0 - (c * c + s * s)))) for *_, c, s in parts))
    moduli = np.column_stack((np.repeat(eps_ys, n), np.tile(eps, len(zetas))))
    return GridRead(ws, "unitary_product", moments, occupancy, moduli)


def _product_moments(bucket: Bucket, y: np.ndarray, diagonals: np.ndarray, c: np.ndarray, admitted, scratch):
    """One bucket's (2, states, n) share of `unitary_product` at one zeta:
    <N> of each `admitted` state and every state's boundary mass, from the
    bucket's Y, the diagonals of N and each state, and the 2 n columns c.
    Each sandwich Y diag(x) Y^T scales Y into the read's scratch and writes
    M_N or R there by one product on a `_BucketSpace`; M_N o R is formed in R."""
    n, k, w = c.shape[-1] // 2, len(bucket.sizes), bucket.width
    scaled = scratch("scaled", w, k, w, w)

    def sandwich(x, key):
        space = _BucketSpace((bucket,), scratch(key, w, k, w, w))
        left = BlockOperator(space, (np.multiply(y, x[:, None, :], out=scaled),))
        return (left @ BlockOperator(space, (y.mT,))).stacks[0]

    out = np.zeros((2, len(diagonals) - 1, n))
    m_n = sandwich(diagonals[0], "m_n")
    for j in np.flatnonzero(admitted):
        r = sandwich(diagonals[1 + j], "r")
        q = _series(np.multiply(m_n, r, out=r), c)
        out[0, j] = q[:n] + q[n:]
    last = y[np.arange(len(bucket.sizes)), :, bucket.sizes - 1]  # Y[:, last], (k, W)
    rows = (last[:, :, None] * c).mT @ y
    squares = np.multiply(rows, rows, out=rows)
    out[1] = _mass(diagonals[1:], squares[:, :n]) + _mass(diagonals[1:], squares[:, n:])
    return out


def unitary_equiv(ws: FockWorkspace, chis, states, *, with_variance: bool = True) -> GridRead:
    """The endpoint form exp(i theta K_z) exp(i chi K_y) exp(-i theta K_z) read
    at every chi of `chis` for every thermal state of `states`, at any theta.
    Its outer phases move no population, so every read is of exp(i chi K_y):
    the series in chi of the module docstring on the signed factors of
    `kx_eig`, every chi at once per bucket, and its last row.  Its <N^2> row
    is formed only `with_variance`, for a caller that reads Delta^2 N; its
    unitarity defect is `_equiv_defect_bound` from the workspace's
    `kx_eig_gram_norms` and each chi's rotation.  Every chi must be finite
    and >= 0."""
    chis = _finite("chi", chis, 0.0)
    probs = _populations(ws, states)
    r = 2 if with_variance else 1  # the rows of N, then N^2
    moments = np.zeros((r + 1, len(probs), len(chis)))
    eps = np.zeros(len(chis))
    # per bucket, the diagonals of the r observables and each state
    diagonals = ws._padded(np.vstack((ws.n, ws.n * ws.n)[:r] + (probs,)))
    scratch = _Scratch(ws)
    for b, (sigma, u, v), d in zip(ws.buckets, ws.kx_eig, diagonals):
        c, s = _rotation(sigma, chis)
        eps = np.maximum(eps, np.max(np.abs(1.0 - (c * c + s * s)), axis=(0, 1)))
        scaled = scratch("scaled", b.width, *u.shape)
        even, odd = (scratch(key, b.width, len(d), *u.shape) for key in ("even", "odd"))
        even, odd = _congruence(u, d[..., 0::2], scaled, even), _congruence(v, d[..., 1::2], scaled, odd)
        r_e, r_o = even[r:], odd[r:]
        total, term = (scratch(key, b.width, len(probs), *u.shape) for key in ("total", "term"))
        for i, x_e, x_o in zip(range(r), even, odd):  # one observable at a time, every state at once
            np.add(np.multiply(x_e, r_e, out=total), np.multiply(x_o, r_o, out=term), out=total)
            cos_terms = _series(total, c)
            np.add(np.multiply(x_o, r_e, out=total), np.multiply(x_e, r_o, out=term), out=total)
            moments[i] += cos_terms + _series(total, s)
        moments[r] += _last_row_mass(b, u, v, c, s, d[r:])
    return GridRead(ws, "unitary_equiv", moments, moments[r], eps[:, None])


def _finite(name: str, values, lo: float = -math.inf) -> np.ndarray:
    """`values` as floats, once each is finite and >= lo."""
    values = np.asarray(values, dtype=float)
    bad = values[~(np.isfinite(values) & (values >= lo))]
    if bad.size:
        raise ValueError(f"{name} must be finite{' and >= 0' if lo == 0.0 else ''}, got {bad[0]}")
    return values


def evolution_endpoint(f_y_tf: float, f_z_tf: float, ws: FockWorkspace) -> BlockOperator:
    """The time-ordered endpoint unitary exp(-i f_z K_z) exp(-i f_y K_y).  It is
    the endpoint form at (chi, theta) = (-f_y, -f_z) times the outer phase
    exp(i theta K_z), so the gate reads it from `unitary_equiv`."""
    return _phase_kz(ws, -f_z_tf) @ _exp_i_ky(ws, -f_y_tf)


def evolved_boundary_occupancy(factors, state: ThermalState) -> float:
    """Worst boundary occupancy along rho -> F1 rho F1+ -> (F2 F1) rho ...,
    `factors` ordered as applied to the state (rightmost operator first),
    read after each non-diagonal factor (diagonal phases move no population)."""
    partials = accumulate(factors, lambda acc, f: f @ acc)
    return max(boundary_occupancy(p, state) for p, f in zip(partials, factors) if not f.is_diagonal)


def _conjugation_bound(g: float, eps: float) -> float:
    """g + e (1 + g) + g (1 + e) (1 + g) >= ||X+ X - 1||_2 for X = F M F^T, F
    square with ||F^T F - 1||_2 <= g, and e >= ||M+ M - 1||_2 from the moduli
    eps that M reads (module docstring), times 1 + gamma_64 for evaluating it."""
    e = (eps + _gamma(2)) / (1.0 - _gamma(2))
    return (g + e * (1.0 + g) + g * (1.0 + e) * (1.0 + g)) * (1.0 + _gamma(64))


def _equiv_defect_bound(m: int, delta: float, eta: float, eps: float) -> float:
    """un2's bound for Y = W R W^T: g >= ||W^T W - 1||_2 from the Gram reads
    (delta, eta) of W's blocks of size <= m, and R's moduli."""
    g_m = _gamma(m)
    kappa = (1.0 + delta) / (1.0 - g_m)
    return _conjugation_bound((eta + m * g_m * kappa) / (1.0 - g_m), eps)


def _product_defect_bound(m: int, delta: float, eta: float, eps_y: float, eps_p: float) -> float:
    """un1's bound for C = Y^T P Y: un2's at the squeeze's rotation, whose
    moduli read eps_y, and P's moduli."""
    return _conjugation_bound(_equiv_defect_bound(m, delta, eta, eps_y), eps_p)


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u the unit roundoff of double."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


@dataclass(frozen=True, eq=False, repr=False)
class Tridiagonal:
    """Real symmetric tridiagonal operator on the stored sectors, mode-swap
    symmetric like `BlockOperator`: its `diagonal` T[j, j] and its `band`
    T[j, j+1] = T[j+1, j] over the concatenated stored states, the band 0
    at each sector's last state, so no entry couples two sectors."""

    ws: FockWorkspace
    diagonal: np.ndarray
    band: np.ndarray


def hamiltonian_final(omega_f: float, f_y_tf: float, ws: FockWorkspace) -> Tridiagonal:
    """End-of-stroke Heisenberg Hamiltonian
    2 omega_f [cosh(f_y) K_z - sinh(f_y) K_x], held as its diagonal and band
    (K_x is the band `ws.kx_band`); reduces to omega_f (N + 1) at f_y = 0."""
    scale = 2.0 * omega_f
    return Tridiagonal(
        ws, scale * (math.cosh(f_y_tf) * ws.kz), scale * (-math.sinh(f_y_tf) * ws.kx_band)
    )


def expect(op: Tridiagonal, state: ThermalState) -> float:
    """Tr[O rho] for the diagonal state: its populations against O's diagonal."""
    return float(op.diagonal @ _same_workspace(op.ws, state).probs)


def variance(op: Tridiagonal, state: ThermalState) -> float:
    """Tr[O^2 rho] - Tr[O rho]^2 from the diagonal of O^2, O(states):
    (O^2)_jj = O_jj^2 + b_(j-1)^2 + b_j^2 with b the band.  The band is 0 at
    each sector's last state, so b_(j-1) is 0 at each sector's first."""
    mean = expect(op, state)
    squares = op.band * op.band
    second = op.diagonal * op.diagonal + squares
    second[1:] += squares[:-1]
    return float(second @ state.probs) - mean * mean
