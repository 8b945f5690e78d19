import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_lattice_solve,
    frac_det,
    frac_unique_solve,
    minor_divisor_factors,
    rand_matrix,
    rand_unimodular,
    reference_hnf_core,
    xgcd_hnf,
)
from tropfan import (
    DimensionMismatch,
    IntMatrix,
    NoMutualFactorization,
    NotLeftInvertible,
    ParseError,
    complete_unimodular,
    det,
    hnf,
    invariant_factors,
    lattice_solve,
    snf,
    unimodular_transport,
)
from tropfan.intlat import _hnf_core


def rand_low_rank(rng, m, n):
    """An m x n matrix of rank at most min(m, n) - 1, or zero for 1 x 1."""
    r = rng.randint(0, min(m, n) - 1)
    if r == 0:
        return IntMatrix.from_rows([[0] * n for _ in range(m)])
    return rand_matrix(rng, m, r, -4, 4) @ rand_matrix(rng, r, n, -4, 4)


def frac_inverse(rows):
    """Inverse over Q by the adjugate, from first principles."""
    n = len(rows)
    d = frac_det(rows)

    def minor(r, c):
        return [row[:c] + row[c + 1:] for i, row in enumerate(rows) if i != r]

    return [[(-1) ** (i + j) * frac_det(minor(j, i)) / d for j in range(n)] for i in range(n)]


def bits(M):
    return max(abs(x).bit_length() for row in M.data for x in row)


small_matrix = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-30, 30), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


class TestIntMatrix:
    def test_construction_validation(self):
        from tropfan import BadParameters

        with pytest.raises(BadParameters):
            IntMatrix.from_rows([])
        with pytest.raises(BadParameters):
            IntMatrix.from_rows([[]])
        with pytest.raises(BadParameters):
            IntMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(BadParameters):
            IntMatrix.from_rows([[1, "2"]])
        with pytest.raises(BadParameters):
            IntMatrix.from_rows([[1.5, 2]])

    def test_matmul_apply_transpose(self):
        A = IntMatrix.from_rows([[1, 2], [3, 4]])
        B = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert (A @ B).data == ((2, 1), (4, 3))
        assert A.apply((1, 1)) == (3, 7)
        assert A.transpose().data == ((1, 3), (2, 4))
        with pytest.raises(DimensionMismatch):
            A @ IntMatrix.from_rows([[1, 2, 3]])
        with pytest.raises(DimensionMismatch):
            A.apply((1, 2, 3))

    def test_json_round_trip(self):
        A = IntMatrix.from_rows([[1, -2, 3], [4, 5, -6]])
        assert IntMatrix.from_json(A.to_json()) == A
        # decimal strings for big entries
        big = IntMatrix.from_json({"data": [["123456789012345678901", "-2"]]})
        assert big.data[0][0] == 123456789012345678901
        with pytest.raises(ParseError):
            IntMatrix.from_json({"data": [[1.5]]})
        with pytest.raises(ParseError):
            IntMatrix.from_json({"rows": 3, "data": [[1]]})
        with pytest.raises(ParseError):
            IntMatrix.from_json({})


class TestDet:
    def test_known(self):
        assert det(IntMatrix.identity(3)) == 1
        assert det(IntMatrix.from_rows([[2, 0], [0, 3]])) == 6
        assert det(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1
        with pytest.raises(DimensionMismatch):
            det(IntMatrix.from_rows([[1, 2]]))

    def test_against_fraction_elimination(self):
        rng = random.Random(20)
        for _ in range(150):
            n = rng.randint(1, 5)
            A = rand_matrix(rng, n, n, -20, 20)
            assert det(A) == int(frac_det([list(r) for r in A.data]))


class TestSNF:
    def check_contract(self, A):
        P, D, Q = snf(A)
        assert (P @ A @ Q).data == D.data
        assert abs(det(P)) == 1 and abs(det(Q)) == 1
        fac = invariant_factors(D)
        # diagonal, nonnegative, divisibility chain
        for i in range(D.rows):
            for j in range(D.cols):
                if i != j:
                    assert D.data[i][j] == 0
        assert all(f > 0 for f in fac)
        for a, b in zip(fac, fac[1:]):
            assert b % a == 0
        # off the chain everything is zero
        r = len(fac)
        for i in range(min(D.rows, D.cols)):
            if i >= r:
                assert D.data[i][i] == 0
        return fac

    def test_known_values(self):
        A = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert list(self.check_contract(A)) == [2, 2, 156]
        assert list(invariant_factors(snf(IntMatrix.identity(4))[1])) == [1, 1, 1, 1]
        Zero = IntMatrix.from_rows([[0, 0], [0, 0]])
        assert list(invariant_factors(snf(Zero)[1])) == []

    def test_oracle_agreement(self):
        rng = random.Random(21)
        for _ in range(120):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            A = rand_matrix(rng, m, n, -25, 25)
            fac = self.check_contract(A)
            assert list(fac) == minor_divisor_factors([list(r) for r in A.data])
        # rectangular and rank-deficient shapes up to 6 x 6
        rng = random.Random(31)
        for i in range(40):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            A = rand_low_rank(rng, m, n) if i % 2 else rand_matrix(rng, m, n)
            fac = self.check_contract(A)
            assert list(fac) == minor_divisor_factors([list(r) for r in A.data])

    def test_transform_growth(self):
        # the transforms stay within a small multiple of det's bit length
        # (a global-pivot Smith reduction reaches about 12x here)
        rng = random.Random(32)
        for _ in range(3):
            A = rand_matrix(rng, 24, 24)
            P, D, Q = snf(A)
            assert (P @ A @ Q) == D
            d = abs(det(A))
            assert d and max(bits(P), bits(Q)) <= 4 * d.bit_length()

    def test_unimodular_invariance(self):
        rng = random.Random(22)
        for _ in range(60):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            A = rand_matrix(rng, m, n)
            U = rand_unimodular(rng, m)
            V = rand_unimodular(rng, n)
            assert invariant_factors(snf(A)[1]) == invariant_factors(snf(U @ A @ V)[1])

    @given(small_matrix)
    def test_contract_property(self, rows):
        self.check_contract(IntMatrix.from_rows(rows))


class TestHNF:
    def check_contract(self, A):
        H, U = hnf(A)
        assert (A @ U).data == H.data
        assert abs(det(U)) == 1
        # column echelon with positive pivots and reduced entries to the left
        pivots = []
        for j in range(H.cols):
            col = [H.data[i][j] for i in range(H.rows)]
            nz = [i for i, x in enumerate(col) if x]
            if not nz:
                assert not any(
                    H.data[i][jj] for jj in range(j + 1, H.cols) for i in range(H.rows)
                )
                break
            top = nz[0]
            if pivots:
                assert top > pivots[-1][0]
            piv = H.data[top][j]
            assert piv > 0
            for jj in range(j):
                assert 0 <= H.data[top][jj] < piv
            pivots.append((top, j))
        return H, U

    def test_known(self):
        A = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        H, _ = self.check_contract(A)
        assert H.data == ((2, 0, 0), (0, 6, 0), (22, 12, 52))

    def test_random_contract(self):
        rng = random.Random(23)
        for _ in range(150):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            self.check_contract(rand_matrix(rng, m, n))

    def test_h_matches_oracle_and_pinned_digest(self):
        # H is unique: it must agree with an independent extended-gcd
        # reduction, and with the digest of the H's that the earlier
        # two-engine intlat gave on this sweep
        rng = random.Random(29)
        digest = hashlib.sha256()
        for i in range(300):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            A = rand_low_rank(rng, m, n) if i % 3 == 2 else rand_matrix(rng, m, n)
            H = hnf(A)[0]
            assert [list(row) for row in H.data] == xgcd_hnf(A.data)
            digest.update(repr(H.data).encode())
        assert digest.hexdigest() == "79e8f8bceae9eb37a9c5cee27297a5860f4e53e7e00b5852ea161b5d4e4edc26"

    def test_uniqueness_under_column_ops(self):
        # H is a lattice invariant: post-composing with a unimodular matrix
        # changes U but not H
        rng = random.Random(24)
        for _ in range(60):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            A = rand_matrix(rng, m, n)
            V = rand_unimodular(rng, n)
            assert hnf(A)[0] == hnf(A @ V)[0]

    @given(small_matrix)
    def test_contract_property(self, rows):
        self.check_contract(IntMatrix.from_rows(rows))


class BitsWritten(list):
    """A matrix row that records the largest bit length written into it."""

    top = 0

    def __setitem__(self, j, v):
        BitsWritten.top = max(BitsWritten.top, abs(v).bit_length())
        super().__setitem__(j, v)


def kernel_input(rng, t):
    """A matrix for the HNF kernel: random, rank-deficient, with zero
    rows and columns put in, or with 12-digit entries, in shapes 1..12."""
    m, n = rng.randint(1, 12), rng.randint(1, 12)
    kind = t % 4
    if kind == 1:
        return [list(r) for r in rand_low_rank(rng, m, n).data]
    if kind == 3:
        return [list(r) for r in rand_matrix(rng, m, n, 1 - 10**12, 10**12 - 1).data]
    a = [list(r) for r in rand_matrix(rng, m, n).data]
    if kind == 2:
        for i in rng.sample(range(m), rng.randint(0, m)):
            a[i] = [0] * n
        for j in rng.sample(range(n), rng.randint(0, n)):
            for row in a:
                row[j] = 0
    return a


def carried_rows(rng, n):
    """Rows the kernel carries along besides E, as snf and transport pass
    them: none, a unimodular matrix, or any integer matrix n wide."""
    kind = rng.randrange(3)
    if kind == 0:
        return []
    if kind == 1:
        return [list(r) for r in rand_unimodular(rng, n).data]
    return [list(r) for r in rand_matrix(rng, rng.randint(1, 6), n, -50, 50).data]


class TestHnfKernel:
    def test_against_reference_kernel(self):
        # the kernel against the earlier one: the pivots and H are equal,
        # and so is everything carried when A has full column rank, where
        # the transform is unique; otherwise R (carried in as E) is a
        # unimodular transform to H, and the other carried rows are W.R
        rng = random.Random(2525)
        seen = Counter()
        for t in range(3000):
            a = kernel_input(rng, t)
            n = len(a[0])
            W = carried_rows(rng, n)
            E = [[int(i == j) for j in range(n)] for i in range(n)]
            a0, a1 = [r[:] for r in a], [r[:] for r in a]
            U0, U1 = [r[:] for r in W + E], [r[:] for r in W + E]
            pivots = _hnf_core(a1, U1)
            assert pivots == reference_hnf_core(a0, U0), a
            assert a1 == a0, a
            R = IntMatrix.from_rows(U1[len(W):])
            if len(pivots) == n:
                assert U1 == U0, a
            else:
                assert (IntMatrix.from_rows(a) @ R).data == tuple(map(tuple, a1))
                assert abs(det(R)) == 1
                if W:
                    assert (IntMatrix.from_rows(W) @ R).data == tuple(map(tuple, U1[:len(W)]))
            seen[len(pivots) == n, U1 == U0] += 1
        # full rank, and deficient with and without a changed transform
        assert len(seen) == 3 and min(seen.values()) > 300, seen

    def test_without_a_transform(self):
        # an empty U carries nothing, and leaves H and the pivots exactly as
        # they are with U = E
        rng = random.Random(2626)
        deficient = 0
        for t in range(1200):
            a = kernel_input(rng, t)
            n = len(a[0])
            bare, full = [r[:] for r in a], [r[:] for r in a]
            pivots = _hnf_core(bare, [])
            assert pivots == _hnf_core(full, [[int(i == j) for j in range(n)] for i in range(n)]), a
            assert bare == full, a
            deficient += len(pivots) < n
        # full column rank and rank-deficient inputs both
        assert min(deficient, 1200 - deficient) > 300, deficient

    @pytest.mark.parametrize("m, n", [(24, 24), (20, 20), (24, 16), (12, 12)])
    def test_intermediate_growth(self, m, n):
        # no value the kernel writes is longer than twice the longest entry
        # it returns; with each pivot's left reductions made as soon as it
        # was found, the 24 x 24 input had 689-bit values written against
        # 90 bits returned (147 written with the reductions last)
        rng = random.Random(2526)
        a = [BitsWritten(r) for r in rand_matrix(rng, m, n).data]
        U = [BitsWritten(int(i == j) for j in range(n)) for i in range(n)]
        BitsWritten.top = 0
        _hnf_core(a, U)
        returned = max(abs(x).bit_length() for row in a + U for x in row)
        assert BitsWritten.top <= 2 * returned, (BitsWritten.top, returned)


class TestLatticeSolve:
    def test_known(self):
        A = IntMatrix.from_rows([[2, 0], [0, 3]])
        assert lattice_solve(A, (4, 9)) == (2, 3)
        assert lattice_solve(A, (1, 0)) is None  # 1 not a multiple of 2
        A = IntMatrix.from_rows([[1, 2], [2, 4]])  # rank 1
        z = lattice_solve(A, (3, 6))
        assert z is not None and A.apply(z) == (3, 6)
        assert lattice_solve(A, (3, 5)) is None  # inconsistent
        with pytest.raises(DimensionMismatch):
            lattice_solve(A, (3, 6, 9))

    @pytest.mark.parametrize("rows, b, want", [
        ([[0, 2], [3, 1]], (4, 5), (1, 2)),  # zero leading entry: rows swap
        ([[0, 2], [3, 1]], (1, 5), None),  # (3/2, 1/2)
        ([[1, 2], [3, 4]], (5, 11), (1, 2)),  # determinant -2
        ([[1, 2], [3, 4]], (1, 0), None),  # (-2, 3/2)
        ([[-5]], (15,), (-3,)),  # 1 x 1
        ([[2]], (1,), None),  # 2z = 1
        ([[1, 0], [0, 1], [1, 1]], (1, 2, 3), (1, 2)),
        ([[1, 0], [0, 1], [1, 1]], (1, 2, 4), None),  # inconsistent only in the last row
        ([[2, 1], [4, 3], [6, 5], [2, 2]], (4, 10, 16, 6), (1, 2)),
        ([[0, 0], [0, 0]], (0, 0), (0, 0)),  # zero matrix
        ([[0, 0], [0, 0]], (0, 1), None),
        ([[0, 3], [0, 6]], (3, 6), (0, 1)),  # zero column: the Hermite path answers
    ])
    def test_pinned(self, rows, b, want):
        assert lattice_solve(IntMatrix.from_rows(rows), b) == want

    def test_against_brute_force(self):
        rng = random.Random(25)
        hits = misses = 0
        for _ in range(200):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            A = rand_matrix(rng, m, n, -3, 3)
            b = tuple(rng.randint(-6, 6) for _ in range(m))
            z = lattice_solve(A, b)
            if z is not None:
                hits += 1
                assert A.apply(z) == b
            else:
                misses += 1
                assert brute_lattice_solve(A, b, 9) is None
        assert hits and misses

    @staticmethod
    def check_against_fractions(A, b, box=None):
        """lattice_solve against Gauss-Jordan over Q: the unique rational
        solution when the columns are independent, else a verified
        solution or, when ``box`` is given, a brute-force miss."""
        z = lattice_solve(A, b)
        want = frac_unique_solve([list(r) for r in A.data], b)
        if want == "rank-deficient":
            if z is not None:
                assert A.apply(z) == tuple(b)
            elif box is not None:
                assert brute_lattice_solve(A, b, box) is None
        elif want == "inconsistent" or any(q.denominator != 1 for q in want):
            assert z is None
        else:
            assert z == want
        return z, want

    @given(
        st.integers(1, 4).flatmap(lambda m: st.integers(1, 3).flatmap(lambda n: st.tuples(
            st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=m, max_size=m),
            st.lists(st.integers(-4, 4), min_size=n, max_size=n),
            st.lists(st.integers(-1, 1), min_size=m, max_size=m),
        )))
    )
    def test_fraction_property(self, system):
        rows, z0, shift = system
        A = IntMatrix.from_rows(rows)
        self.check_against_fractions(A, [v + e for v, e in zip(A.apply(z0), shift)], box=5)

    def test_fraction_sweep(self):
        # 3,000 systems up to 8 x 6, built so that each outcome occurs:
        # integral, rational but not integral (a row or a column scaled by
        # 3), inconsistent (tall, one entry of b moved) and rank-deficient.
        # The digest pins the answers.  The rank-deficient ones are read off
        # the HNF transform, whose kernel columns depend on the quotients
        # the kernel takes, so they move with them.
        rng = random.Random(36)
        digest = hashlib.sha256()
        seen = Counter()
        kinds = ("integral", "row3", "col3", "inconsistent", "deficient")
        for t in range(3000):
            kind = kinds[t % len(kinds)]
            n = rng.randint(1, 6)
            m = rng.randint(1, 8) if kind == "deficient" else rng.randint(n + (kind == "inconsistent"), 8)
            A = rand_low_rank(rng, m, n) if kind == "deficient" else rand_matrix(rng, m, n, -6, 6)
            z0 = [rng.randint(-5, 5) for _ in range(n)]
            a = [list(r) for r in A.data]
            if kind == "row3":
                i = rng.randrange(m)
                a[i] = [3 * x for x in a[i]]
            elif kind == "col3":
                j = rng.randrange(n)
                for row in a:
                    row[j] *= 3
            A = IntMatrix.from_rows(a)
            b = list(A.apply(z0))
            if kind == "row3":  # row i of A.z is a multiple of 3, b_i is not
                b[i] += rng.choice((1, 2))
            elif kind == "col3":  # b = A.(z0 + e_j / 3)
                b = [v + row[j] // 3 for v, row in zip(b, a)]
            elif kind == "inconsistent" or (kind == "deficient" and rng.random() < 0.5):
                b[rng.randrange(m)] += rng.choice((-1, 1))
            z, want = self.check_against_fractions(A, b, box=3 if n <= 3 else None)
            seen["rational" if isinstance(want, tuple) else want, z is not None] += 1
            digest.update(repr(z).encode())
        # solved and unsolved, full rank or not; inconsistent is never solved
        assert len(seen) == 5 and min(seen.values()) > 250, seen
        assert digest.hexdigest() == "be9d2342a88081a448af0f016a173156f9ca163b1bdda5451bc6df3c4d916130"

    def test_solution_verified(self):
        rng = random.Random(26)
        for _ in range(150):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            A = rand_matrix(rng, m, n, -8, 8)
            z0 = tuple(rng.randint(-5, 5) for _ in range(n))
            b = A.apply(z0)
            z = lattice_solve(A, b)
            assert z is not None and A.apply(z) == b


class TestCompleteUnimodular:
    def test_extends_column_prefix(self):
        rng = random.Random(27)
        for _ in range(80):
            n = rng.randint(1, 5)
            k = rng.randint(1, n)
            U = rand_unimodular(rng, n)
            A = IntMatrix.from_rows([list(U.data[i][:k]) for i in range(n)])
            E = complete_unimodular(A)
            assert E.rows == E.cols == n
            assert abs(det(E)) == 1
            for j in range(k):
                assert E.col(j) == A.col(j)

    def test_single_primitive_column(self):
        E = complete_unimodular(IntMatrix.from_rows([[2], [1]]))
        assert abs(det(E)) == 1 and E.col(0) == (2, 1)
        assert complete_unimodular(IntMatrix.from_rows([[1], [0]])).col(0) == (1, 0)

    def test_accepts_exactly_the_summands(self):
        # columns span a direct summand iff m >= n and the n x n minors are
        # coprime, i.e. n unit invariant factors
        rng = random.Random(33)
        accepted = rejected = 0
        for _ in range(300):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            A = rand_matrix(rng, m, n, -2, 2)
            summand = m >= n and minor_divisor_factors([list(r) for r in A.data]) == [1] * n
            try:
                E = complete_unimodular(A)
            except NotLeftInvertible:
                assert not summand
                rejected += 1
                continue
            assert summand
            accepted += 1
            assert E.rows == E.cols == m and abs(det(E)) == 1
            assert all(E.col(j) == A.col(j) for j in range(n))
        assert accepted > 50 and rejected > 50

    def test_rejects_non_summand(self):
        with pytest.raises(NotLeftInvertible):
            complete_unimodular(IntMatrix.from_rows([[2], [4]]))
        with pytest.raises(NotLeftInvertible):
            complete_unimodular(IntMatrix.from_rows([[1, 0], [0, 2]]))
        with pytest.raises(NotLeftInvertible):
            # wider than tall: columns cannot be independent
            complete_unimodular(IntMatrix.from_rows([[1, 0]]))

    def test_completions_pinned(self):
        # a completion is not unique, so only a digest shows that the one
        # returned did not move: 800 inputs, alternately a column prefix of
        # a random unimodular matrix and a small random matrix, which is
        # mostly not a summand
        rng = random.Random(3536)
        digest = hashlib.sha256()
        rejected = 0
        for t in range(800):
            if t % 2:
                m = rng.randint(1, 7)
                k, U = rng.randint(1, m), rand_unimodular(rng, m)
                A = IntMatrix.from_rows([row[:k] for row in U.data])
            else:
                A = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 4), -3, 3)
            try:
                out = complete_unimodular(A).data
            except NotLeftInvertible:
                out = None
                rejected += 1
            digest.update(repr(out).encode())
        assert 200 < rejected < 350
        assert digest.hexdigest() == "3ad94d08e8ca6481a5154872368691f3962a00775aed119dc24a9a5b7b1544de"


class TestTransport:
    def test_round_trip(self):
        rng = random.Random(28)
        for _ in range(80):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            A = rand_matrix(rng, m, n, -6, 6)
            U = rand_unimodular(rng, m)
            B = U @ A
            T = unimodular_transport(A, B)
            assert (T @ A).data == B.data
            assert abs(det(T)) == 1
        # rank-deficient inputs
        rng = random.Random(34)
        for _ in range(40):
            m = rng.randint(1, 5)
            A = rand_low_rank(rng, m, rng.randint(1, 5))
            U = rand_unimodular(rng, m)
            B = U @ A
            T = unimodular_transport(A, B)
            assert (T @ A).data == B.data
            assert abs(det(T)) == 1

    def test_equals_b_times_a_inverse(self):
        # for invertible A the transport is unique
        rng = random.Random(35)
        checked = 0
        for _ in range(100):
            n = rng.randint(1, 5)
            A = rand_matrix(rng, n, n, -6, 6)
            if det(A) == 0:
                continue
            B = rand_unimodular(rng, n) @ A
            Ainv = frac_inverse([list(r) for r in A.data])
            want = [[sum(Fraction(b) * x for b, x in zip(row, col)) for col in zip(*Ainv)] for row in B.data]
            assert [list(r) for r in unimodular_transport(A, B).data] == want
            checked += 1
        assert checked > 80

    @pytest.mark.parametrize("a, b", [
        ([[1, 2], [2, 4], [0, 0]], [[0, 0], [1, 2], [3, 6]]),  # rank 1, 3 x 2
        ([[2, 4, 6], [1, 2, 3]], [[1, 2, 3], [0, 0, 0]]),  # rank 1, 2 x 3
        ([[1, 0], [0, 1], [1, 1]], [[1, 1], [0, 1], [1, 2]]),  # full column rank, 3 x 2
        ([[0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0]]),  # zero
        ([[3, 0, 1]], [[-3, 0, -1]]),  # one row
    ])
    def test_pinned_shapes(self, a, b):
        A, B = IntMatrix.from_rows(a), IntMatrix.from_rows(b)
        T = unimodular_transport(A, B)
        assert T.rows == T.cols == A.rows and abs(det(T)) == 1
        assert T @ A == B

    def test_errors(self):
        A = IntMatrix.from_rows([[1, 0], [0, 1]])
        with pytest.raises(DimensionMismatch):
            unimodular_transport(A, IntMatrix.from_rows([[1, 0, 0]]))
        # same row lattice required in both directions
        with pytest.raises(NoMutualFactorization):
            unimodular_transport(A, IntMatrix.from_rows([[2, 0], [0, 2]]))
        with pytest.raises(NoMutualFactorization):
            unimodular_transport(IntMatrix.from_rows([[2, 0], [0, 2]]), A)
        for a, b in [
            ([[1, 2], [2, 4]], [[2, 4], [0, 0]]),  # Z(1,2) against 2Z(1,2)
            ([[1, 0, 0], [0, 0, 0]], [[0, 1, 0], [0, 0, 0]]),
            ([[1, 0], [0, 1], [0, 0]], [[1, 0], [1, 0], [0, 0]]),  # rank 2 against rank 1
        ]:
            with pytest.raises(NoMutualFactorization):
                unimodular_transport(IntMatrix.from_rows(a), IntMatrix.from_rows(b))
