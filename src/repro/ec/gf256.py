"""GF(2^8) arithmetic, vectorised with numpy lookup tables.

The field is GF(2)[x] / (x^8 + x^4 + x^3 + x^2 + 1) (0x11D, the polynomial
used by most storage erasure codes).  Multiplication uses exp/log tables;
bulk operations (``mul_bytes``, ``addmul``) operate on whole numpy arrays so
Reed-Solomon encoding of megabyte stripes is table-lookup bound, matching
the HPC guide's "vectorise the hot loop" idiom.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GF_POLY",
    "EXP",
    "LOG",
    "MUL_MAPS",
    "add",
    "mul",
    "div",
    "inv",
    "pow_",
    "mul_bytes",
    "addmul",
    "matmul",
    "matinv",
    "vandermonde",
]

GF_POLY = 0x11D
ORDER = 255


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    exp = np.zeros(512, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int16)
    x = 1
    for i in range(ORDER):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= GF_POLY
    # Duplicate so exp[LOG[a] + LOG[b]] never needs a modulo.
    exp[ORDER : 2 * ORDER] = exp[:ORDER]
    exp[2 * ORDER :] = exp[: 512 - 2 * ORDER]
    log[0] = -1  # sentinel; log(0) is undefined
    return exp, log


EXP, LOG = _build_tables()

#: 256x256 full multiplication table for vectorised coefficient-times-buffer.
_MUL_TABLE = np.zeros((256, 256), dtype=np.uint8)
for _a in range(1, 256):
    _la = int(LOG[_a])
    _MUL_TABLE[_a, 1:] = EXP[(_la + LOG[1:]).astype(np.int32)]

#: the same table as 256 ``bytes.translate`` maps: MUL_MAPS[c][b] == c * b
MUL_MAPS = [_row.tobytes() for _row in _MUL_TABLE]


def add(a: int, b: int) -> int:
    """Field addition (= subtraction = XOR)."""
    return a ^ b


def mul(a: int, b: int) -> int:
    """Field multiplication of two scalars."""
    if a == 0 or b == 0:
        return 0
    return int(EXP[int(LOG[a]) + int(LOG[b])])


def div(a: int, b: int) -> int:
    """Field division ``a / b``; raises on division by zero."""
    if b == 0:
        raise ZeroDivisionError("GF(256) division by zero")
    if a == 0:
        return 0
    return int(EXP[(int(LOG[a]) - int(LOG[b])) % ORDER])


def inv(a: int) -> int:
    """Multiplicative inverse."""
    if a == 0:
        raise ZeroDivisionError("GF(256) zero has no inverse")
    return int(EXP[ORDER - int(LOG[a])])


def pow_(a: int, n: int) -> int:
    """``a ** n`` in the field."""
    if n == 0:
        return 1
    if a == 0:
        return 0
    return int(EXP[(int(LOG[a]) * n) % ORDER])


def mul_bytes(coef: int, buf: np.ndarray) -> np.ndarray:
    """Multiply every byte of ``buf`` by scalar ``coef`` (vectorised)."""
    if coef == 0:
        return np.zeros_like(buf)
    if coef == 1:
        return buf.copy()
    return _MUL_TABLE[coef][buf]


def addmul(dst: np.ndarray, coef: int, src: np.ndarray) -> None:
    """``dst ^= coef * src`` in place — the RS encoding inner loop."""
    if coef == 0:
        return
    if coef == 1:
        np.bitwise_xor(dst, src, out=dst)
    else:
        np.bitwise_xor(dst, _MUL_TABLE[coef][src], out=dst)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(256); inputs are uint8 2-D arrays."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for k in range(a.shape[1]):
        col = a[:, k]
        row = b[k, :]
        # outer product contribution, vectorised by row
        for i in range(a.shape[0]):
            addmul(out[i], int(col[i]), row)
    return out


def matinv(m: np.ndarray) -> np.ndarray:
    """Invert a square matrix over GF(256) by Gauss-Jordan elimination."""
    m = np.array(m, dtype=np.uint8)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("matrix must be square")
    aug = np.concatenate([m, np.eye(n, dtype=np.uint8)], axis=1)
    for col in range(n):
        # Find pivot.
        pivot = None
        for r in range(col, n):
            if aug[r, col] != 0:
                pivot = r
                break
        if pivot is None:
            raise np.linalg.LinAlgError("singular matrix over GF(256)")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        # Normalise pivot row.
        pv = inv(int(aug[col, col]))
        aug[col] = mul_bytes(pv, aug[col])
        # Eliminate other rows.
        for r in range(n):
            if r != col and aug[r, col] != 0:
                addmul(aug[r], int(aug[r, col]), aug[col])
    return aug[:, n:]


def vandermonde(rows: int, cols: int) -> np.ndarray:
    """Vandermonde matrix V[i,j] = i^j over GF(256) (systematic RS builder)."""
    v = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(rows):
        for j in range(cols):
            v[i, j] = pow_(i, j)
    return v
