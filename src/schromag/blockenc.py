"""Matrix-level block-encoding algebra with numerical verification.

An (alpha, m, eps) encoding embeds A/alpha in the top-left corner of a
unitary acting on m ancilla qubits.  Encodings here are explicit dense
unitaries carrying their claimed parameters plus the reference matrix
they are supposed to encode, so every claim can be checked by measuring
|| reference - alpha * (<0^m| (x) I) U (|0^m> (x) I) ||_2 directly.
Compositions record the parameters the standard combination rules
predict and must verify against the arithmetic combination of their
references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EncodingError
from .linalg import as_cmatrix, require_square

VERIFY_SLACK = 1e-10
UNITARITY_TOL = 1e-10

# explicit (1, 1, 0) encoding of |0><1| used by the decomposition tests
U_ZERO_ONE = np.array(
    [
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
        [0, 0, 1, 0],
    ],
    dtype=np.complex128,
)


@dataclass
class BlockEncoding:
    u: np.ndarray
    alpha: float
    m: int
    eps: float
    n: int
    reference: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.u = as_cmatrix(self.u)
        self.reference = as_cmatrix(self.reference)
        dim = (1 << self.m) * self.n
        if self.u.shape != (dim, dim):
            raise ValueError(
                f"unitary shape {self.u.shape} != (2^{self.m} * {self.n})"
            )
        gap = np.linalg.norm(self.u @ self.u.conj().T - np.eye(dim), 2)
        if gap > UNITARITY_TOL:
            raise EncodingError(
                f"matrix is not unitary: ||U U^H - I|| = {gap:.3e}",
                measured=gap,
            )

    def encoded_block(self) -> np.ndarray:
        return self.u[: self.n, : self.n]


def verify(be: BlockEncoding) -> float:
    """Measured epsilon against the reference; raises when the claim fails."""
    measured = np.linalg.norm(be.reference - be.alpha * be.encoded_block(), 2)
    if measured > be.eps + VERIFY_SLACK:
        raise EncodingError(
            f"encoding claim violated: measured eps {measured:.3e} "
            f"> claimed {be.eps:.3e} + {VERIFY_SLACK:.0e}",
            measured=measured,
            claimed=be.eps,
        )
    return float(measured)


def dilate(a, alpha: float) -> BlockEncoding:
    """Single-ancilla unitary dilation of a/alpha.

    Built from the SVD so the off-diagonal square roots commute exactly
    with the corner block; tiny negative rounding eigenvalues of
    I - (sigma/alpha)^2 are clamped at zero.
    """
    a = require_square(as_cmatrix(a))
    n = a.shape[0]
    w, s, xh = np.linalg.svd(a)
    if alpha < s[0] * (1.0 - 1e-12):
        raise ValueError(f"alpha={alpha} is below the spectral norm {s[0]:.6g}")
    comp = np.sqrt(np.clip(1.0 - (s / alpha) ** 2, 0.0, None))
    top_right = (w * comp) @ w.conj().T
    bottom_left = (xh.conj().T * comp) @ xh
    u = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    u[:n, :n] = a / alpha
    u[:n, n:] = top_right
    u[n:, :n] = bottom_left
    u[n:, n:] = -a.conj().T / alpha
    return BlockEncoding(u=u, alpha=float(alpha), m=1, eps=0.0, n=n, reference=a)


@dataclass
class StatePrepPair:
    p_l: np.ndarray
    p_r: np.ndarray
    beta: float
    b_qubits: int


def build_state_prep_pair(y) -> StatePrepPair:
    """Unitaries whose first columns realize y/||y||_1 as overlaps c_j* d_j.

    Magnitudes split as sqrt(|y_j|/beta) on both sides with the sign (or
    phase) carried by the right member; entries past len(y) are zero in
    both first columns.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("y must be a nonempty vector")
    beta = float(np.sum(np.abs(y)))
    if beta == 0.0:
        raise ValueError("y must be nonzero")
    b = max(1, math.ceil(math.log2(y.size)))
    dim = 1 << b
    mags = np.sqrt(np.abs(y) / beta)
    col_l = np.zeros(dim, dtype=np.complex128)
    col_r = np.zeros(dim, dtype=np.complex128)
    col_l[: y.size] = mags
    col_r[: y.size] = mags * np.sign(y)
    return StatePrepPair(
        p_l=_complete_unitary(col_l),
        p_r=_complete_unitary(col_r),
        beta=beta,
        b_qubits=b,
    )


def _complete_unitary(first_col: np.ndarray) -> np.ndarray:
    dim = first_col.size
    m = np.eye(dim, dtype=np.complex128)
    m[:, 0] = first_col
    q, _ = np.linalg.qr(m)
    # QR fixes the first column only up to phase
    pivot = int(np.argmax(np.abs(first_col)))
    q *= first_col[pivot] / q[pivot, 0]
    return q


def compose_product(be1: BlockEncoding, be2: BlockEncoding) -> BlockEncoding:
    """Encode A1 A2 with (a1*a2, m1+m2, a1*e2 + a2*e1)."""
    if be1.n != be2.n:
        raise ValueError("operand system dimensions differ")
    n = be1.n
    a1, a2 = 1 << be1.m, 1 << be2.m
    # basis order (anc1, anc2, sys): U2 extends by kron, U1 needs the
    # spectator ancilla threaded through the middle
    u2bar = np.kron(np.eye(a1), be2.u)
    t = be1.u.reshape(a1, n, a1, n)
    u1bar = np.einsum("isjt,ab->iasjbt", t, np.eye(a2)).reshape(a1 * a2 * n, a1 * a2 * n)
    u = u1bar @ u2bar
    return BlockEncoding(
        u=u,
        alpha=be1.alpha * be2.alpha,
        m=be1.m + be2.m,
        eps=be1.alpha * be2.eps + be2.alpha * be1.eps,
        n=n,
        reference=be1.reference @ be2.reference,
    )


def compose_tensor(be1: BlockEncoding, be2: BlockEncoding) -> BlockEncoding:
    """Encode A1 (x) A2 with (a1*a2, m1+m2, a1^2 e2 + a2^2 e1 + e1 e2)."""
    a1, n1 = 1 << be1.m, be1.n
    a2, n2 = 1 << be2.m, be2.n
    t = np.kron(be1.u, be2.u).reshape(a1, n1, a2, n2, a1, n1, a2, n2)
    dim = a1 * a2 * n1 * n2
    u = t.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(dim, dim)
    return BlockEncoding(
        u=u,
        alpha=be1.alpha * be2.alpha,
        m=be1.m + be2.m,
        eps=be1.alpha**2 * be2.eps + be2.alpha**2 * be1.eps + be1.eps * be2.eps,
        n=n1 * n2,
        reference=np.kron(be1.reference, be2.reference),
    )


def compose_sum(bes: list[BlockEncoding], y) -> BlockEncoding:
    """Encode sum_j y_j A_j through a select unitary sandwiched by a
    state-preparation pair.

    All operands must share (alpha, m, n); the result carries
    (alpha*beta, m+b, alpha*eps_op): the state-preparation pair is exact
    up to rounding and adds no term of its own.
    """
    y = np.asarray(y, dtype=float)
    if len(bes) != y.size:
        raise ValueError("one coefficient per operand required")
    alpha = bes[0].alpha
    m = bes[0].m
    n = bes[0].n
    for be in bes:
        if be.alpha != alpha or be.m != m or be.n != n:
            raise ValueError("sum operands must share (alpha, m, n)")
    pair = build_state_prep_pair(y)
    sel_dim = 1 << pair.b_qubits
    inner = (1 << m) * n
    w = np.zeros((sel_dim * inner, sel_dim * inner), dtype=np.complex128)
    for j in range(sel_dim):
        proj = np.zeros((sel_dim, sel_dim))
        proj[j, j] = 1.0
        block = bes[j].u if j < len(bes) else np.eye(inner)
        w += np.kron(proj, block)
    u = np.kron(pair.p_l.conj().T, np.eye(inner)) @ w @ np.kron(pair.p_r, np.eye(inner))
    eps_op = max(be.eps for be in bes)
    reference = sum(float(y[j]) * bes[j].reference for j in range(len(bes)))
    return BlockEncoding(
        u=u,
        alpha=alpha * pair.beta,
        m=m + pair.b_qubits,
        eps=alpha * eps_op,
        n=n,
        reference=reference,
    )
