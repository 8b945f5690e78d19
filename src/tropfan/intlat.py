"""Exact integer matrix kernel: Smith/Hermite normal forms, unimodular
completion and transport, and integer linear-system solving.

All arithmetic is arbitrary-precision Python int, so entries never
overflow, but their growth costs time.  There are two elimination
kernels.  Fraction-free (Bareiss) elimination ``_bareiss`` computes the
determinant and solves systems of full column rank: it keeps every entry
a minor of the input and builds no transform, and such a system has at
most one solution, so nothing more is needed.  Everything else runs on
the column HNF ``_hnf_core``, which reduces each row left of its pivot and
keeps the unimodular transform that the answers are read from; its
docstring gives the three rules that keep its work and entries small.
The Smith form alternates the HNF on A and A^T, which keeps its
transforms on random 24x24 matrices in [-9, 9] within about twice the bit
length of the determinant.  ``hnf`` is the one function that returns a
Hermite transform; only ``evalmap.is_smooth`` (with no transform), the
Smith form and transport run the kernel themselves.  Matrices are
immutable values; every operation returns fresh objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from .errors import (
    BadParameters,
    DimensionMismatch,
    NoMutualFactorization,
    NotLeftInvertible,
    ParseError,
    malformed,
)
from .semiring import as_index, as_int, as_ints, as_tuple, from_checked


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major, at least 1x1."""

    data: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        try:
            data = tuple(map(as_ints, as_tuple(self.data)))
        except TypeError as exc:
            raise BadParameters(f"non-integer matrix entry: {exc}") from exc
        object.__setattr__(self, "data", data)
        if not data or not data[0]:
            raise BadParameters("matrix must have at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise BadParameters("ragged matrix rows")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls(rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        n = as_index(n)
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def cols(self) -> int:
        return len(self.data[0])

    def col(self, j: int) -> tuple[int, ...]:
        j = as_index(j)
        return tuple(row[j] for row in self.data)

    def transpose(self) -> "IntMatrix":
        return from_checked(IntMatrix, tuple(zip(*self.data)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        bt = list(zip(*other.data))
        return from_checked(
            IntMatrix, tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in bt) for row in self.data)
        )

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        v = as_ints(v)
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector of length {len(v)} against {self.rows}x{self.cols}")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.data)

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "data": [list(r) for r in self.data]}

    @classmethod
    def from_json(cls, obj: dict) -> "IntMatrix":
        with malformed("bad matrix object"):
            rows = [as_ints(row, as_int) for row in as_tuple(obj["data"])]
        m = cls.from_rows(rows)
        with malformed("bad matrix object"):
            shape = {key: as_int(obj[key]) for key in ("rows", "cols") if key in obj}
        for key, size in (("rows", m.rows), ("cols", m.cols)):
            if shape.get(key, size) != size:
                raise ParseError(f"matrix '{key}' field disagrees with data")
        return m


def _bareiss(a: list[list[int]], ncols: int) -> int:
    """Fraction-free Gaussian elimination (Bareiss, Math. Comp. 22, 1968)
    of the first ``ncols`` columns of ``a`` in place, swapping rows to
    find pivots.  Returns the sign of the row permutation, or 0 as soon
    as a column has no pivot (``a`` is then left half-eliminated).

    After a full run, row k < ncols starts with k zeros and the pivot
    a[k][k], the leading (k+1)-minor of the permuted rows; rows from
    ``ncols`` on are zero in the first ``ncols`` columns.  Every entry is
    a minor of the input, so each division is exact and entries grow no
    further than minors do.  Columns past ``ncols`` (a right-hand side)
    are carried along.
    """
    sign, prev = 1, 1
    for k in range(ncols):
        sel = next((i for i in range(k, len(a)) if a[i][k]), None)
        if sel is None:
            return 0
        if sel != k:
            a[k], a[sel] = a[sel], a[k]
            sign = -sign
        pk = a[k]
        piv = pk[k]
        cols = range(k + 1, len(pk))
        for row in a[k + 1:]:
            f = row[k]
            for j in cols:
                row[j] = (row[j] * piv - f * pk[j]) // prev
            row[k] = 0
        prev = piv
    return sign


def det(A: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    if A.rows != A.cols:
        raise DimensionMismatch("determinant of a non-square matrix")
    a = [list(row) for row in A.data]
    # a column without a pivot makes the sign, and so the product, 0
    return _bareiss(a, A.cols) * a[-1][-1]


def _ident_list(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _transpose(a: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*a)]


def _hnf_core(a: list[list[int]], U: list[list[int]]) -> list[tuple[int, int]]:
    """Column-style HNF of ``a`` in place; returns the pivots as (row,
    column) pairs.  The column operations multiply ``a`` on the right by a
    unimodular R, and ``U`` (rows as wide as ``a``) by the same R, so
    U = E before the call gives A.U = a after it.  ``U`` may be empty, for
    callers that read only H and the pivots: no transform is then built.

    Shape: column echelon with pivot rows strictly increasing, pivots
    positive, and every entry left of a pivot in its row reduced into
    [0, pivot).  Zero columns end up rightmost.

    Three rules keep the work and the entries small:

    1. Nearest-integer quotients.  Each Euclid round on row r moves its
       entry p of least absolute value to column c and takes col_j -=
       q*col_c with q the integer nearest x/p, so every remainder lies in
       [-|p|/2, |p|/2] rather than [0, |p|) and the rounds are fewer.
    2. Only live rows.  Column c does not change within a round, so the
       round's first update collects the rows whose column-c entry is
       nonzero and the later ones touch only those.  The left reductions
       likewise skip the rows where the column they add is 0.
    3. Left reductions last.  Once the echelon is complete, the pivot
       columns are reduced from the last one leftwards: column j by the
       pivot columns right of it, top pivot first.  Every column added is
       then final, so no unreduced entry is ever multiplied in.  The order
       leaves (H, U) unchanged: the reductions add pivot columns to pivot
       columns, so they multiply the echelon's pivot columns on the right
       by an integer T, and as those columns are independent, the unique
       H fixes T.

    H is unique, and so is U when A has full column rank; otherwise U's
    kernel columns (those of the zero columns of H) depend on the
    quotients taken.
    """
    n = len(a[0])
    pivots = []
    boths = []  # for each pivot (r, c), the rows a[r:] + U
    c = 0
    for r, arow in enumerate(a):
        if c == n:
            break
        # The rows above r are 0 from column c on, so no operation of this
        # step changes them.
        both = a[r:] + U
        while True:
            jmin, p = None, 0
            for j in range(c, n):
                v = abs(arow[j])
                if v and (not p or v < p):
                    jmin, p = j, v
            if jmin is None:
                break
            if jmin != c:
                for row in both:
                    row[c], row[jmin] = row[jmin], row[c]
            pc = arow[c]
            live = None
            done = True
            for j in range(c + 1, n):
                x = arow[j]
                if x:
                    q = x // pc
                    if 2 * abs(x - q * pc) > p:
                        q += 1
                    if live is None:
                        live = []
                        for row in both:
                            v = row[c]
                            if v:
                                row[j] -= q * v
                                live.append(row)
                    else:
                        for row in live:
                            row[j] -= q * row[c]
                    done = done and arow[j] == 0
            if done:
                break
        if arow[c] == 0:
            continue
        if arow[c] < 0:
            for row in both:
                row[c] = -row[c]
        pivots.append((r, c))
        boths.append(both)
        c += 1
    # The pivot columns are 0..c-1, and pivot row k of a is boths[k][0].
    for j in range(c - 2, -1, -1):
        for k in range(j + 1, c):
            rows = boths[k]
            q = rows[0][j] // rows[0][k]
            if q:
                for row in rows:
                    v = row[k]
                    if v:
                        row[j] -= q * v
    return pivots


def snf(A: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: returns (P, D, Q) with P.A.Q = D, P and Q
    unimodular, D = diag(a1..ar, 0..) with each ai > 0 dividing the next.

    Alternates the column HNF of A (column operations, kept in Q) with the
    column HNF of A^T (row operations, kept in P^T) until A is diagonal
    (Kannan and Bachem, SIAM J. Comput. 8, 1979).  Where d_i does not
    divide d_j, row j is added to row i and the next HNF of that 2x2 block
    leaves gcd and lcm on the diagonal.
    """
    m, n = A.rows, A.cols
    a = [list(row) for row in A.data]
    Q, Pt = _ident_list(n), _ident_list(m)
    while True:
        _hnf_core(a, Q)
        if any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
            at = _transpose(a)
            _hnf_core(at, Pt)
            a = _transpose(at)
            continue
        d = [a[i][i] for i in range(min(m, n)) if a[i][i]]
        pair = next(
            ((i, j) for i in range(len(d)) for j in range(i + 1, len(d)) if d[j] % d[i]), None
        )
        if pair is None:
            return tuple(from_checked(IntMatrix, tuple(map(tuple, x))) for x in (zip(*Pt), a, Q))
        i, j = pair
        a[i][j] = d[j]
        for row in Pt:
            row[i] += row[j]


def invariant_factors(D: IntMatrix) -> tuple[int, ...]:
    return tuple(D.data[i][i] for i in range(min(D.rows, D.cols)) if D.data[i][i] != 0)


def hnf(A: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Column Hermite normal form: returns (H, U) with A.U = H and U
    unimodular; H is the unique column-echelon form described in
    ``_hnf_core``."""
    a = [list(row) for row in A.data]
    U = _ident_list(A.cols)
    _hnf_core(a, U)
    return from_checked(IntMatrix, tuple(map(tuple, a))), from_checked(IntMatrix, tuple(map(tuple, U)))


def lattice_solve(A: IntMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """Some integer z with A.z = b, or None when no such z exists.

    When A has full column rank the rational solution, if any, is unique,
    so z is the only answer; it is found by fraction-free elimination of
    [A | b], whose entries stay minors of [A | b].  Otherwise the column
    HNF A.U = H answers z = U.y, with y substituted down the rows of H:
    the first row r with H_rc != 0 is column c's pivot row, as the rows
    above it are 0 from column c on, and gives the integer y_c =
    (b_r - H_r.y) / H_rc; every other row needs b_r = H_r.y.
    """
    if len(b) != A.rows:
        raise DimensionMismatch(f"rhs of length {len(b)} against {A.rows}x{A.cols}")
    b = as_ints(b)
    m, n = A.rows, A.cols
    a = [list(row) + [x] for row, x in zip(A.data, b)]
    if m >= n and _bareiss(a, n):
        # each row from n on now reads 0 = c, with c an (n+1)-minor of
        # [A | b]; b lies in the column space of A iff every such c is 0
        if any(row[n] for row in a[n:]):
            return None
        # the top rows are triangular with last pivot d, the determinant
        # of the n rows used, so by Cramer's rule x = d.z is integral and
        # back substitution divides exactly
        d = a[n - 1][n - 1]
        x = [0] * n
        for i in range(n - 1, -1, -1):
            row = a[i]
            x[i] = (d * row[n] - sum(row[j] * x[j] for j in range(i + 1, n))) // row[i]
        if any(v % d for v in x):
            return None
        return tuple(v // d for v in x)
    H, U = hnf(A)
    y = []  # y_c for the pivot columns c found so far
    for row, x in zip(H.data, b):
        x -= sum(h * v for h, v in zip(row, y))
        if len(y) < n and row[len(y)] and x % row[len(y)] == 0:
            y.append(x // row[len(y)])
        elif x:  # a residual that no pivot takes up
            return None
    return U.apply(y + [0] * (n - len(y)))


def complete_unimodular(A: IntMatrix) -> IntMatrix:
    """Extend A (m x n, m >= n, columns spanning a direct summand of Z^m)
    to a unimodular m x m matrix whose first n columns equal A."""
    m, n = A.rows, A.cols
    # A^T.V = (E_n | 0) says V^T.A = (E_n ; 0), so A is the column prefix
    # of V^-T; a summand of Z^m is exactly what makes that HNF appear.
    H, V = hnf(A.transpose())
    if m < n or H.data != tuple(tuple(int(i == j) for j in range(m)) for i in range(n)):
        raise NotLeftInvertible(
            f"{m}x{n} matrix has no integer left inverse (its columns do not span a direct summand)"
        )
    return hnf(V)[1].transpose()  # V is unimodular, so its HNF is E and its transform V^-1


def unimodular_transport(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    """T in GL(m, Z) with T.A = B, assuming A and B generate the same row
    lattice (each is an integer multiple of the other; checked)."""
    if (A.rows, A.cols) != (B.rows, B.cols):
        raise DimensionMismatch("transport requires matrices of equal shape")
    m = A.rows
    # A^T.U = H and B^T.V = H' with H, H' the unique HNFs of the two row
    # lattices, so they agree iff the lattices do, and then
    # B = (U.V^-1)^T . A.
    at, bt = _transpose(A.data), _transpose(B.data)
    U, V = _ident_list(m), _ident_list(m)
    _hnf_core(at, U)
    _hnf_core(bt, V)
    if at != bt:
        raise NoMutualFactorization(
            "matrices do not factor through each other over the integers"
        )
    _hnf_core(V, U)  # V is unimodular: reducing it to E turns U into U.V^-1
    return from_checked(IntMatrix, tuple(zip(*U)))
