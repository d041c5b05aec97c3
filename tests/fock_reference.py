"""Dense reference for the tests of `su11otto.fock`.

`fock` holds only what the gate runs: operators as size-bucketed stacks over
the stored sectors d >= 0, observables as their diagonal and band, and the
two endpoint forms as grid reads that never form a unitary.  The tests check
it against what is built here, from the public layout alone (a workspace's
`sectors`, its per-sector views `_views`, an operator's stacks) or from the
ladder operators on the full (n_max + 1)^2 basis:

* `block_operator` and `diagonal` pack per-sector blocks or diagonals into
  stacks padded with the identity, as the builders pad theirs;
* `kx` is K_x as dense blocks, tridiagonal from `FockWorkspace.kx_band`;
  `quarter_phases` is the exact D = diag((-i)^k) and `dag` an operator's
  adjoint;
* `to_dense` writes an operator out over the full basis, mirror blocks
  included, in its stacks' dtype;
* `product_form` and `endpoint_form` multiply the two forms out of the
  oracle's own factors, and `reads` reads an operator's moments per stored
  sector from |U|^2 p: the per-point route the grid reads replace;
* `generators`, `hamiltonian` and `thermal_weights` are K_x, K_y, K_z, the
  end-of-stroke Hamiltonian and the thermal populations over the full,
  unfolded basis, from `kron` ladder operators, so no block of the oracle
  is reused; `imbalance_blocks` and `blockwise` build an operator that
  conserves n1 - n2 from the blocks of the same ladder product, with
  `product_block` and `endpoint_block` the forms as dense `expm`s, and
  `dense_reads` reads it from those blocks.
"""

import numpy as np
from scipy.linalg import expm

from su11otto.fock import BlockOperator, _exp_i_ky

DENSE_LIMIT = 4096  # refuse to assemble dense matrices larger than this


def per_sector(ws, values):
    """Per stored sector, its slice of `values` over the concatenated states."""
    return np.split(values, np.cumsum([s.size for s in ws.sectors])[:-1])


def block_operator(ws, arrays, is_diagonal=False):
    """Per-sector blocks, or diagonals when `is_diagonal`, copied into
    per-bucket stacks whose padding is the identity."""
    arrays = [np.asarray(a) for a in arrays]
    dtype = np.result_type(*(a.dtype for a in arrays))
    stacks = tuple(
        np.ones((len(b.sizes), b.width), dtype) if is_diagonal
        else np.tile(np.eye(b.width, dtype=dtype), (len(b.sizes), 1, 1))
        for b in ws.buckets
    )
    for view, a in zip(ws._views(stacks), arrays, strict=True):
        view[...] = a
    return BlockOperator(ws, stacks, is_diagonal)


def diagonal(ws, values):
    """The diagonal operator of `values` over the concatenated stored states."""
    return block_operator(ws, per_sector(ws, values), is_diagonal=True)


def kx(ws):
    """K_x as dense blocks: symmetric tridiagonal with a zero diagonal and
    `ws.kx_band` beside it, whose last entry in each sector is 0."""
    blocks = [np.diag(b[:-1], 1) + np.diag(b[:-1], -1) for b in per_sector(ws, ws.kx_band)]
    return block_operator(ws, blocks)


def quarter_phases(ws):
    """D = diag((-i)^k), k the position in the sector, exactly; 1 on the padding."""
    return diagonal(ws, np.array([1.0, -1j, -1.0, 1j])[ws._n2 % 4])


def dag(op):
    """The adjoint of a `BlockOperator`."""
    stacks = tuple(s.conj() if op.is_diagonal else s.conj().mT for s in op.stacks)
    return BlockOperator(op.ws, stacks, op.is_diagonal)


def to_dense(op):
    """The full matrix of a `BlockOperator`, mirror blocks included, in its
    stacks' dtype."""
    ws = op.ws
    if ws.dim > DENSE_LIMIT:
        raise ValueError(
            f"dense assembly of a {ws.dim}x{ws.dim} matrix exceeds the {DENSE_LIMIT} limit"
        )
    out = np.zeros((ws.dim, ws.dim), dtype=op.stacks[0].dtype)
    for s, b in zip(ws.sectors, op.blocks):
        out[np.ix_(s.idx, s.idx)] = b
        if s.d > 0:
            mirror = s.n2 * (ws.n_max + 1) + s.n1
            out[np.ix_(mirror, mirror)] = b
    return out


def phase(ws, s):
    """exp(i s K_z) as a diagonal operator."""
    return diagonal(ws, np.exp(1j * s * ws.kz))


def product_form(zeta, phi, ws):
    """un1 = exp(-i zeta K_x) exp(-i phi K_z) exp(i zeta K_x) = D+ Y^T P Y D from
    the oracle's squeeze Y = exp(i zeta K_y), P = exp(-i phi K_z) and the
    exact D."""
    y, d = _exp_i_ky(ws, zeta), quarter_phases(ws)
    y_t = block_operator(ws, [b.T for b in y.blocks])
    return dag(d) @ y_t @ phase(ws, -phi) @ y @ d


def endpoint_form(chi, theta, ws):
    """un2 = exp(i theta K_z) exp(i chi K_y) exp(-i theta K_z) from the oracle's
    exp(i chi K_y)."""
    return phase(ws, theta) @ _exp_i_ky(ws, chi) @ phase(ws, -theta)


def reads(op, state):
    """<N>, Delta^2 N and the boundary mass of op rho op+, the populations
    |op|^2 p per stored sector against the state's folded populations."""
    ws = op.ws
    pops = np.concatenate(
        [np.abs(b) ** 2 @ p for b, p in zip(op.blocks, per_sector(ws, state.probs))]
    )
    mean = ws.n @ pops
    return mean, (ws.n * ws.n) @ pops - mean * mean, pops[ws.last].sum()


def annihilator(n_max):
    """The one-mode a on n = 0 ... n_max."""
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)


def ladder(n_max):
    """Dense a1 = a (x) 1 and a2 = 1 (x) a on the full (n_max + 1)^2 basis."""
    a, eye = annihilator(n_max), np.eye(n_max + 1)
    return np.kron(a, eye), np.kron(eye, a)


def generators(n_max):
    """Dense K_x, K_y and K_z from the ladder operators, as Kronecker products:
    a1 a2 = a (x) a and a1+ a1 + a2+ a2 = a+a (x) 1 + 1 (x) a+a."""
    a, eye = annihilator(n_max), np.eye(n_max + 1)
    pair = np.kron(a, a)  # a1+ a2+ is its transpose
    number = np.kron(a.T @ a, eye) + np.kron(eye, a.T @ a)
    kz = (number + np.eye(len(pair))) / 2.0
    return (pair.T + pair) / 2.0, 1j * (pair - pair.T) / 2.0, kz


def imbalance_blocks(n_max, block):
    """(indices, block) for each imbalance d = n1 - n2 of the full basis: the
    block is block(pair, kz) of that block of the ladder product
    a1 a2 = a (x) a and of the K_z diagonal, states labelled on the full
    basis, so no block, stack or index of the oracle is reused."""
    a = annihilator(n_max)
    pair = np.kron(a, a)
    n1, n2 = np.divmod(np.arange(len(pair)), n_max + 1)
    kz = (n1 + n2 + 1) / 2.0
    for d in range(-n_max, n_max + 1):
        idx = np.flatnonzero(n1 - n2 == d)
        yield idx, block(pair[np.ix_(idx, idx)], kz[idx])


def blockwise(n_max, block):
    """The dense (n_max + 1)^2 matrix of the `imbalance_blocks`."""
    dim = (n_max + 1) ** 2
    out = np.zeros((dim, dim), complex)
    for idx, b in imbalance_blocks(n_max, block):
        out[np.ix_(idx, idx)] = b
    return out


def product_block(zeta, phi):
    """The `imbalance_blocks` block of un1: expm(-i zeta K_x) diag(exp(-i phi K_z))
    expm(i zeta K_x)."""

    def block(pair, kz):
        kx = (pair + pair.T) / 2.0
        return expm(-1j * zeta * kx) @ np.diag(np.exp(-1j * phi * kz)) @ expm(1j * zeta * kx)

    return block


def endpoint_block(chi, theta):
    """The `imbalance_blocks` block of un2: exp(i theta K_z) expm(i chi K_y)
    exp(-i theta K_z), K_y = i (a1 a2 - a1+ a2+)/2."""

    def block(pair, kz):
        phase = np.exp(1j * theta * kz)
        return phase[:, None] * expm(1j * chi * (1j * (pair - pair.T) / 2.0)) * phase.conj()

    return block


def dense_reads(n_max, block, bw):
    """<N>, Delta^2 N and the boundary mass of U rho U+ for the U of the
    `imbalance_blocks`: |U|^2 p block by block with the thermal weights over
    the full, unfolded basis."""
    p = thermal_weights(n_max, bw)
    pops = np.zeros(len(p))
    for idx, u in imbalance_blocks(n_max, block):
        pops[idx] = np.abs(u) ** 2 @ p[idx]
    n1, n2 = np.divmod(np.arange(len(p)), n_max + 1)
    n = (n1 + n2).astype(float)
    mean = n @ pops
    return mean, (n * n) @ pops - mean * mean, pops[(n1 == n_max) | (n2 == n_max)].sum()


def hamiltonian(n_max, omega_f, f_y):
    """Dense 2 omega_f [cosh(f_y) K_z - sinh(f_y) K_x]."""
    kx_dense, _, kz_dense = generators(n_max)
    return 2.0 * omega_f * (np.cosh(f_y) * kz_dense - np.sinh(f_y) * kx_dense)


def thermal_weights(n_max, bw):
    """The thermal populations q^(n1+n2) (1-q)^2, q = exp(-bw), over the full,
    unfolded basis, renormalised to the truncated basis."""
    n1, n2 = np.divmod(np.arange((n_max + 1) ** 2), n_max + 1)
    q = np.exp(-bw)
    p = q ** (n1 + n2) * (1.0 - q) ** 2
    return p / p.sum()
