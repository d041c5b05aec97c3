"""Dense reference for the tests of `su11otto.fock`.

`fock` holds only what the gate runs: operators as size-bucketed stacks over
the stored sectors d >= 0, observables as their diagonal and band.  The tests
check it against what is built here, from the public layout alone (a
workspace's `sectors`, its per-sector views `_views`, an operator's stacks)
or from the ladder operators on the full (n_max + 1)^2 basis:

* `block_operator` and `diagonal` pack per-sector blocks or diagonals into
  stacks padded with the identity, as the builders pad theirs;
* `kx` is K_x as dense blocks, tridiagonal from `FockWorkspace.kx_band`;
  `quarter_phases` is the exact D = diag((-i)^k) and `dag` an operator's
  adjoint;
* `to_dense` writes an operator out over the full basis, mirror blocks
  included, in its stacks' dtype; `product` multiplies out a chain;
* `generators`, `hamiltonian` and `thermal_weights` are K_x, K_y, K_z, the
  end-of-stroke Hamiltonian and the thermal populations over the full,
  unfolded basis, from `kron` ladder operators, so no block of the oracle
  is reused.
"""

import numpy as np

from su11otto.fock import BlockOperator

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


def product(chain):
    """The unitary exp(i b K_z) core exp(i a K_z) of a `Chain`, `outer = (a, b)`."""
    ws, (a, b) = chain.ws, chain.outer
    return diagonal(ws, np.exp(1j * b * ws.kz)) @ chain.core @ diagonal(ws, np.exp(1j * a * ws.kz))


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
