"""Exact integer matrix kernel: Smith/Hermite normal forms, unimodular
completion and transport, and integer linear-system solving.

All arithmetic is arbitrary-precision Python int; intermediate entry growth
in the normal-form reductions is therefore harmless.  Matrices are
immutable values; every operation returns fresh objects.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    BadParameters,
    DimensionMismatch,
    NoMutualFactorization,
    NotLeftInvertible,
    ParseError,
)
from .semiring import as_int


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major, at least 1x1."""

    data: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.data or not self.data[0]:
            raise BadParameters("matrix must have at least one row and one column")
        width = len(self.data[0])
        for row in self.data:
            if len(row) != width:
                raise BadParameters("ragged matrix rows")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise BadParameters(f"non-integer matrix entry {x!r}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        try:
            return cls(tuple(tuple(operator.index(x) for x in row) for row in rows))
        except TypeError as exc:
            raise BadParameters(f"non-integer matrix entry: {exc}") from exc

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def cols(self) -> int:
        return len(self.data[0])

    def row(self, i: int) -> tuple[int, ...]:
        return self.data[i]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.data)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.data)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        bt = list(zip(*other.data))
        return IntMatrix(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in bt) for row in self.data)
        )

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector of length {len(v)} against {self.rows}x{self.cols}")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.data)

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "data": [list(r) for r in self.data]}

    @classmethod
    def from_json(cls, obj: dict) -> "IntMatrix":
        try:
            m = cls.from_rows([[as_int(x) for x in row] for row in obj["data"]])
            shape = {key: as_int(obj[key]) for key in ("rows", "cols") if key in obj}
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad matrix object: {exc}") from exc
        for key, size in (("rows", m.rows), ("cols", m.cols)):
            if shape.get(key, size) != size:
                raise ParseError(f"matrix '{key}' field disagrees with data")
        return m


def det(A: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    if A.rows != A.cols:
        raise DimensionMismatch("determinant of a non-square matrix")
    n = A.rows
    a = [list(row) for row in A.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            sel = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if sel is None:
                return 0
            a[k], a[sel] = a[sel], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _ident_list(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _snf_core(a: list[list[int]]):
    """In-place SNF of ``a``; returns (P, Pinv, Q, Qinv) as lists with
    P . A0 . Q = a and the inverses exact."""
    m, n = len(a), len(a[0])
    P, Pi = _ident_list(m), _ident_list(m)
    Q, Qi = _ident_list(n), _ident_list(n)

    def row_add(i, j, k):  # row_i += k*row_j
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        P[i] = [x + k * y for x, y in zip(P[i], P[j])]
        for r in range(m):
            Pi[r][j] -= k * Pi[r][i]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        P[i], P[j] = P[j], P[i]
        for r in range(m):
            Pi[r][i], Pi[r][j] = Pi[r][j], Pi[r][i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        P[i] = [-x for x in P[i]]
        for r in range(m):
            Pi[r][i] = -Pi[r][i]

    def col_add(j, i, k):  # col_j += k*col_i
        for r in range(m):
            a[r][j] += k * a[r][i]
        for r in range(n):
            Q[r][j] += k * Q[r][i]
        Qi[i] = [x - k * y for x, y in zip(Qi[i], Qi[j])]

    def col_swap(i, j):
        for r in range(m):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(n):
            Q[r][i], Q[r][j] = Q[r][j], Q[r][i]
        Qi[i], Qi[j] = Qi[j], Qi[i]

    t = 0
    while t < min(m, n):
        while True:
            piv = None
            for i in range(t, m):
                for j in range(t, n):
                    v = abs(a[i][j])
                    if v and (piv is None or v < abs(a[piv[0]][piv[1]])):
                        piv = (i, j)
            if piv is None:
                return P, Pi, Q, Qi  # rest of the matrix is zero
            if piv[0] != t:
                row_swap(t, piv[0])
            if piv[1] != t:
                col_swap(t, piv[1])
            changed = False
            for i in range(t + 1, m):
                if a[i][t]:
                    row_add(i, t, -(a[i][t] // a[t][t]))
                    changed = changed or a[i][t] != 0
            for j in range(t + 1, n):
                if a[t][j]:
                    col_add(j, t, -(a[t][j] // a[t][t]))
                    changed = changed or a[t][j] != 0
            if changed:
                continue  # smaller remainders appeared: refetch the pivot
            bad = next(
                ((i, j) for i in range(t + 1, m) for j in range(t + 1, n) if a[i][j] % a[t][t]),
                None,
            )
            if bad is None:
                break
            row_add(t, bad[0], 1)  # pull the offending row in and reduce again
        if a[t][t] < 0:
            row_neg(t)
        t += 1
    return P, Pi, Q, Qi


def _snf_full(A: IntMatrix):
    a = [list(row) for row in A.data]
    P, Pi, Q, Qi = _snf_core(a)
    return (
        IntMatrix.from_rows(P),
        IntMatrix.from_rows(Pi),
        IntMatrix.from_rows(a),
        IntMatrix.from_rows(Q),
        IntMatrix.from_rows(Qi),
    )


def snf(A: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: returns (P, D, Q) with P.A.Q = D, P and Q
    unimodular, D = diag(a1..ar, 0..) with each ai > 0 dividing the next."""
    P, _, D, Q, _ = _snf_full(A)
    return P, D, Q


def invariant_factors(D: IntMatrix) -> tuple[int, ...]:
    return tuple(D.data[i][i] for i in range(min(D.rows, D.cols)) if D.data[i][i] != 0)


def _hnf_core(a: list[list[int]]):
    """Column-style HNF in place; returns (U, pivots) with A0 . U = a.

    Shape: column echelon with pivot rows strictly increasing, pivots
    positive, and every entry left of a pivot in its row reduced into
    [0, pivot).  Zero columns end up rightmost.
    """
    m, n = len(a), len(a[0])
    U = _ident_list(n)

    def col_add(j, i, k):
        for r in range(m):
            a[r][j] += k * a[r][i]
        for r in range(n):
            U[r][j] += k * U[r][i]

    def col_swap(i, j):
        for r in range(m):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(n):
            U[r][i], U[r][j] = U[r][j], U[r][i]

    def col_neg(j):
        for r in range(m):
            a[r][j] = -a[r][j]
        for r in range(n):
            U[r][j] = -U[r][j]

    pivots = []
    c = 0
    for r in range(m):
        if c == n:
            break
        while True:
            jmin = None
            for j in range(c, n):
                v = abs(a[r][j])
                if v and (jmin is None or v < abs(a[r][jmin])):
                    jmin = j
            if jmin is None:
                break
            if jmin != c:
                col_swap(c, jmin)
            done = True
            for j in range(c + 1, n):
                if a[r][j]:
                    col_add(j, c, -(a[r][j] // a[r][c]))
                    done = done and a[r][j] == 0
            if done:
                break
        if a[r][c] == 0:
            continue
        if a[r][c] < 0:
            col_neg(c)
        for j in range(c):
            q = a[r][j] // a[r][c]
            if q:
                col_add(j, c, -q)
        pivots.append((r, c))
        c += 1
    return U, pivots


def hnf(A: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Column Hermite normal form: returns (H, U) with A.U = H and U
    unimodular; H is the unique column-echelon form described in
    ``_hnf_core``."""
    a = [list(row) for row in A.data]
    U, _ = _hnf_core(a)
    return IntMatrix.from_rows(a), IntMatrix.from_rows(U)


def lattice_solve(A: IntMatrix, b: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Some integer z with A.z = b, or None when no such z exists."""
    if len(b) != A.rows:
        raise DimensionMismatch(f"rhs of length {len(b)} against {A.rows}x{A.cols}")
    a = [list(row) for row in A.data]
    U, pivots = _hnf_core(a)
    n = A.cols
    y = [0] * n
    resid = [int(x) for x in b]
    pivot_by_row = {r: c for r, c in pivots}
    for r in range(A.rows):
        c = pivot_by_row.get(r)
        if c is None:
            if resid[r] != 0:
                return None
            continue
        if resid[r] % a[r][c]:
            return None
        y[c] = resid[r] // a[r][c]
        if y[c]:
            for i in range(r, A.rows):
                resid[i] -= y[c] * a[i][c]
    z = [sum(U[i][j] * y[j] for j in range(n)) for i in range(n)]
    return tuple(z)


def _block_diag(top: IntMatrix, bottom_n: int) -> IntMatrix:
    k = top.rows
    rows = [list(top.data[i]) + [0] * bottom_n for i in range(k)]
    for i in range(bottom_n):
        rows.append([0] * k + [1 if j == i else 0 for j in range(bottom_n)])
    return IntMatrix.from_rows(rows)


def _complete_unimodular_pair(A: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """(A', A'^-1) with A' in GL(m, Z) whose first n columns are A."""
    m, n = A.rows, A.cols
    P, Pi, D, Q, Qi = _snf_full(A)
    ok = m >= n and all(D.data[i][i] == 1 for i in range(n))
    if not ok:
        raise NotLeftInvertible(
            f"{m}x{n} matrix has no integer left inverse (its columns do not span a direct summand)"
        )
    # A = Pinv . (E_n; 0) . Qinv, so Pinv . blockdiag(Qinv, E) has column prefix A.
    ext = _block_diag(Qi, m - n)
    ext_inv = _block_diag(Q, m - n)
    return Pi @ ext, ext_inv @ P


def complete_unimodular(A: IntMatrix) -> IntMatrix:
    """Extend A (m x n, m >= n, columns spanning a direct summand of Z^m)
    to a unimodular m x m matrix whose first n columns equal A."""
    return _complete_unimodular_pair(A)[0]


def _solve_rows_through(C: IntMatrix, M: IntMatrix) -> Optional[IntMatrix]:
    """Integer X with X.C = M, i.e. every row of M written in rows of C."""
    Ct = C.transpose()
    rows = []
    for i in range(M.rows):
        x = lattice_solve(Ct, M.row(i))
        if x is None:
            return None
        rows.append(list(x))
    return IntMatrix.from_rows(rows)


def unimodular_transport(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    """T in GL(m, Z) with T.A = B, assuming A and B generate the same row
    lattice (each is an integer multiple of the other; checked)."""
    if (A.rows, A.cols) != (B.rows, B.cols):
        raise DimensionMismatch("transport requires matrices of equal shape")
    if _solve_rows_through(A, B) is None or _solve_rows_through(B, A) is None:
        raise NoMutualFactorization(
            "matrices do not factor through each other over the integers"
        )
    m = A.rows
    # Basis of the common row lattice from the HNF of A^T.
    a_t = [list(row) for row in A.transpose().data]
    _, pivots = _hnf_core(a_t)
    k = len(pivots)
    if k == 0:
        return IntMatrix.identity(m)
    C = IntMatrix.from_rows([[a_t[i][j] for i in range(len(a_t))] for _, j in pivots])
    MA = _solve_rows_through(C, A)
    MB = _solve_rows_through(C, B)
    assert MA is not None and MB is not None
    Aext, Aext_inv = _complete_unimodular_pair(MA)
    Bext, _ = _complete_unimodular_pair(MB)
    return Bext @ Aext_inv
