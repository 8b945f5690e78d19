"""Max-plus Laurent polynomials: arithmetic, evaluation, initial forms,
canonical function form, decidable function equality, and localization at
a point into the graded extension.

A polynomial is a sparse map from integer exponent vectors to rational
coefficients, read as p |-> max_u (a_u + u . p).  The empty map is the
bottom polynomial (the function identically NEG_INF); a stored coefficient
is never NEG_INF.

Evaluation is exact integer arithmetic: :func:`semiring.as_scaled` scales
the point to its least common denominator d and the coefficients to
theirs, L, so every term value L*d*(a_u + u.p) is an int, and only the
answer becomes a Fraction.

Canonicalization removes exactly the terms that never strictly attain the
maximum anywhere.  It searches for these extreme terms output-sensitively
(Clarkson, FOCS 1994), on the coefficients scaled to integers by L, which
maps the witnesses p to L*p and leaves every answer unchanged.  It keeps
E, the terms already known to be kept, and asks for each undecided term i
whether the strict system a_i + u_i.p > a_v + v.p (v in E) is feasible.
If not, i is dropped: E is part of the other terms.  If it is, every term
is evaluated at the witness p; of the terms attaining the maximum there,
the one with the lexicographically largest exponent strictly wins at
p + (e, e^2, ..., e^n) for small e > 0, so it is kept.  If that is i, i is
decided; otherwise that term joins E without an LP and i is asked again.
It cannot already be in E, because i beats E strictly at p.  So every LP
has at most as many rows as there are kept terms.  Asking about i again
adds the new term's row to i's LP (``_lp.Tableau.add_row``), and
``_lp.find_point`` resumes it from the basis it ended on rather than
solving it from scratch; its witness, in integers, needs no Fraction.
Canonical forms are what germs are carried by.  Equality as functions needs
none: a polynomial is the max of its terms, so P <= Q iff no term of P
strictly beats every term of Q anywhere, one LP per term of P that Q's term
of the same exponent does not dominate.

Every LP here is a ``_lp.Tableau`` of integer rows, each the least
integer multiple of its rational row (``_rival_row``).  :func:`canonicalize`
starts E, with no LP, from the term that wins at p = 0 and, for each j and
s = +-1, the term lex-largest in (s*u_j, u): a Newton polytope vertex, which
strictly wins far out in its normal cone.  :func:`fn_witness` scales the
coefficients of both sides to integers by one L, so that term (u, a) beats
rival (v, b) where (v - u).p < (a - b) / L; times L // g, for
g = gcd(a - b, L), that is the least integer row.
A germ's two parts, the Boolean initial form and the value, come from one
evaluation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import _lp
from .errors import (
    BadParameters,
    DimensionMismatch,
    EmptyPolynomial,
    ParseError,
    malformed,
)
from .semiring import (BOOL_ONE, NEG_INF, TEXT_BOTTOM, TExt, TropValue, as_index, as_int, as_ints, as_scaled,
                       as_trop, from_checked, is_bottom_text, text)

Term = tuple[tuple[int, ...], Fraction]


def _int_rows(terms: Sequence[Term]) -> tuple[list[tuple[tuple[int, ...], int]], int]:
    """The rows (u, L*a_u) and L, the least common denominator of the
    coefficients."""
    coeffs, L = as_scaled([c for _, c in terms])
    return [(u, a) for (u, _), a in zip(terms, coeffs)], L


def _require_point(p: Sequence, num_vars: int):
    """Raise DimensionMismatch unless p has num_vars coordinates."""
    if len(p) != num_vars:
        raise DimensionMismatch(f"point of length {len(p)} in {num_vars} variables")


def _exponent(u: Sequence[int], num_vars: int) -> tuple[int, ...]:
    """u as an exponent vector in num_vars variables."""
    u = as_ints(u)
    if len(u) != num_vars:
        raise DimensionMismatch(f"exponent {u} in {num_vars} variables")
    return u


@dataclass(frozen=True)
class LaurentPoly:
    """num_vars plus lex-sorted (exponent, coefficient) pairs."""

    num_vars: int
    terms: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "num_vars", as_index(self.num_vars))
        if self.num_vars < 0:
            raise BadParameters("negative variable count")
        terms = tuple([(_exponent(u, self.num_vars), c) for u, c in self.terms])
        object.__setattr__(self, "terms", terms)
        prev = None
        for u, c in terms:
            if isinstance(c, type(NEG_INF)):
                raise BadParameters("stored coefficient may not be bottom")
            if not isinstance(c, (int, Fraction)) or isinstance(c, bool):
                raise TypeError(f"coefficient {c!r} is not an exact rational")
            if prev is not None and not (prev < u):
                raise BadParameters("terms must be strictly lex-sorted")
            prev = u

    # -- construction -----------------------------------------------------

    @classmethod
    def make(cls, num_vars: int, items: Iterable[tuple[Sequence[int], TropValue]]) -> "LaurentPoly":
        """Normalizing factory: merges duplicate exponents by max and drops
        bottom coefficients."""
        num_vars = cls(num_vars, ()).num_vars
        acc: dict[tuple[int, ...], Fraction] = {}
        for u, c in items:
            u, c = _exponent(u, num_vars), as_trop(c)
            if c is not NEG_INF and (u not in acc or c > acc[u]):
                acc[u] = c
        return from_checked(cls, num_vars, tuple(sorted(acc.items())))

    @classmethod
    def zero(cls, num_vars: int) -> "LaurentPoly":
        return cls(num_vars, ())

    @classmethod
    def one(cls, num_vars: int) -> "LaurentPoly":
        return cls.constant(num_vars, 0)

    @classmethod
    def constant(cls, num_vars: int, c) -> "LaurentPoly":
        return cls.make(num_vars, [((0,) * num_vars, c)])

    @classmethod
    def monomial(cls, num_vars: int, exp: Sequence[int], coeff=0) -> "LaurentPoly":
        return cls.make(num_vars, [(exp, coeff)])

    # -- structure ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_boolean(self) -> bool:
        return all(c == 0 for _, c in self.terms)

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def support(self) -> tuple[tuple[int, ...], ...]:
        return tuple(u for u, _ in self.terms)

    def coeff(self, exp: Sequence[int]) -> TropValue:
        exp = _exponent(exp, self.num_vars)
        return next((c for u, c in self.terms if u == exp), NEG_INF)

    def _require_same_vars(self, other: "LaurentPoly"):
        if self.num_vars != other.num_vars:
            raise DimensionMismatch(
                f"polynomials in {self.num_vars} and {other.num_vars} variables"
            )

    # -- semiring operations -------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._require_same_vars(other)
        return LaurentPoly.make(self.num_vars, list(self.terms) + list(other.terms))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._require_same_vars(other)
        prods = [
            (tuple(a + b for a, b in zip(u, v)), cu + cv)
            for u, cu in self.terms
            for v, cv in other.terms
        ]
        return LaurentPoly.make(self.num_vars, prods)

    def __pow__(self, k: int) -> "LaurentPoly":
        k = as_index(k)
        if k < 0:
            raise BadParameters("negative power of a polynomial")
        out = LaurentPoly.one(self.num_vars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shift(self, a: Sequence) -> "LaurentPoly":
        """P(a + x): adds u.a to each coefficient."""
        vals, scale = self._values(a)
        return from_checked(
            LaurentPoly, self.num_vars, tuple((u, Fraction(v, scale)) for (u, _), v in zip(self.terms, vals))
        )

    # -- evaluation ----------------------------------------------------------

    def _values(self, p: Sequence) -> tuple[list[int], int]:
        """The term values at p as the integers L*d*(a_u + u.p) over their
        scale L*d, where L and d are the least common denominators of the
        coefficients and of the point."""
        _require_point(p, self.num_vars)
        rows, L = _int_rows(self.terms)
        q, d = as_scaled(p)
        q = [L * x for x in q]
        mul = operator.mul
        return [d * a + sum(map(mul, u, q)) for u, a in rows], L * d

    def eval(self, p: Sequence) -> TropValue:
        vals, scale = self._values(p)
        return Fraction(max(vals), scale) if vals else NEG_INF

    def initial_form(self, p: Sequence) -> "LaurentPoly":
        """Sub-polynomial of the terms attaining the maximum at p."""
        if not self.terms:
            raise EmptyPolynomial("the bottom polynomial has no initial form")
        vals, _ = self._values(p)
        top = max(vals)
        kept = tuple(t for t, v in zip(self.terms, vals) if v == top)
        return from_checked(LaurentPoly, self.num_vars, kept)

    def boolean_part(self) -> "LaurentPoly":
        """Same support, every coefficient replaced by the tropical one (0)."""
        return from_checked(LaurentPoly, self.num_vars, tuple((u, BOOL_ONE) for u, _ in self.terms))

    def __str__(self) -> str:
        return poly_to_text(self)


@dataclass(frozen=True)
class CanonicalFn:
    """Canonical representative of a polynomial's function class.

    Structural equality of CanonicalFn values decides equality as
    functions; produce them only through :func:`canonicalize`.  The
    arithmetic operators re-canonicalize, so CanonicalFn works as a
    carrier for graded (germ) arithmetic.
    """

    num_vars: int
    terms: tuple[Term, ...]

    @property
    def poly(self) -> LaurentPoly:
        return from_checked(LaurentPoly, self.num_vars, self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "CanonicalFn") -> "CanonicalFn":
        return canonicalize(self.poly + other.poly)

    def __mul__(self, other: "CanonicalFn") -> "CanonicalFn":
        return canonicalize(self.poly * other.poly)

    def __str__(self) -> str:
        return poly_to_text(self.poly)


def _rival_row(term: Term, rival: Term, L: int = 1) -> tuple:
    """The least integer row ``(c, r)`` with ``c . p < r`` iff ``term``
    strictly beats ``rival`` at p, on coefficients scaled by L."""
    (u, a), (v, b) = term, rival
    # a + u.p > b + v.p  <=>  (v - u).p < (a - b) / L, times L // g
    g = math.gcd(a - b, L)
    c = tuple(map(operator.sub, v, u))
    if g != L:  # never when L = 1, as for every row canonicalize builds
        s = L // g
        c = tuple([s * x for x in c])
    return c, (a - b) // g


def _last_max(vals: list) -> int:
    """The index of the last largest value.  Of lex-sorted terms with these
    values at p, that term has the largest exponent, so it strictly wins at
    p + (e, e^2, ..., e^n) for small e > 0."""
    return len(vals) - 1 - vals[::-1].index(max(vals))


def canonicalize(P: LaurentPoly) -> CanonicalFn:
    """Drop exactly the terms dominated everywhere by the max of the rest."""
    rows, _ = _int_rows(P.terms)
    kept = [False] * len(rows)
    confirmed = []  # the rows known to be kept
    if rows:
        # At p = 0, the point a tableau with no rows finds, the values are
        # the coefficients: that winner is kept without an LP, as are the
        # coordinate-extreme vertices (see the module docstring).
        firsts = [_last_max([b for _, b in rows])]
        for col in zip(*[u for u, _ in rows]):
            firsts += [_last_max(list(col)), _last_max([-x for x in col])]
        for w in dict.fromkeys(firsts):
            kept[w] = True
            confirmed.append(rows[w])
    mul = operator.mul
    for i, row in enumerate(rows):
        if kept[i]:
            continue
        lp = _lp.Tableau([(*_rival_row(row, v), True) for v in confirmed], P.num_vars)
        while (found := _lp.find_point(lp, P.num_vars)) is not None:
            # The witness p = xs / D, with D > 0, in integers; the values
            # of the scaled rows at p, times D.
            xs, D = found
            w = _last_max([D * b + sum(map(mul, v, xs)) for v, b in rows])
            kept[w] = True
            confirmed.append(rows[w])
            if w == i:
                break
            lp.add_row(*_rival_row(row, rows[w]), True)
    return CanonicalFn(P.num_vars, tuple(t for t, k in zip(P.terms, kept) if k))


def fn_eq(P: LaurentPoly, Q: LaurentPoly) -> bool:
    """True iff P and Q agree as functions everywhere."""
    return fn_witness(P, Q) is None


def fn_witness(P: LaurentPoly, Q: LaurentPoly) -> Optional[tuple]:
    """None when fn_eq; otherwise a rational point where the values differ:
    the first point found where a term of one side beats all of the other."""
    P._require_same_vars(Q)
    rows, L = _int_rows(P.terms + Q.terms)
    k = len(P.terms)
    for A, B in ((rows[:k], rows[k:]), (rows[k:], rows[:k])):
        coeffs = dict(B)
        for u, a in A:
            if u in coeffs and coeffs[u] >= a:  # dominated: no LP needed
                continue
            lp = _lp.Tableau([(*_rival_row((u, a), rival, L), True) for rival in B], P.num_vars)
            found = _lp.find_point(lp, P.num_vars)
            if found is not None:
                xs, D = found
                return tuple(Fraction(x, D) for x in xs)
    return None


def germ_localize(P: LaurentPoly, p: Sequence) -> TExt:
    """The germ of P at p: (canonical Boolean initial form, value at p),
    or the bottom element for the bottom polynomial.  Both parts come from
    one evaluation."""
    _require_point(p, P.num_vars)
    if not P:
        return TEXT_BOTTOM
    vals, scale = P._values(p)
    top = max(vals)
    terms = tuple((u, BOOL_ONE) for (u, _), v in zip(P.terms, vals) if v == top)
    return text(canonicalize(from_checked(LaurentPoly, P.num_vars, terms)), Fraction(top, scale))


def germ_eq(P: LaurentPoly, Q: LaurentPoly, p: Sequence) -> bool:
    """True iff P and Q agree on some neighborhood of p, that is iff their
    germs there are equal."""
    P._require_same_vars(Q)
    return germ_localize(P, p) == germ_localize(Q, p)


def germ_safe_radius(P: LaurentPoly, p: Sequence) -> Fraction:
    """A radius delta > 0 such that P equals its initial form at p on the
    whole open max-norm ball of radius delta around p.

    With s = min slack of the dropped terms and M = max pairwise 1-norm of
    exponent differences, delta = s / (1 + M) works: moving q from p by
    less than delta changes any difference of two term values by less than
    M * delta < s, so kept terms keep beating dropped ones.
    """
    if not P:
        raise EmptyPolynomial("the bottom polynomial has no localization radius")
    vals, scale = P._values(p)
    top = max(vals)
    slacks = [top - v for v in vals if v < top]
    if not slacks:
        return Fraction(1)
    spread = max(
        sum(abs(a - b) for a, b in zip(u, v))
        for i, (u, _) in enumerate(P.terms)
        for v, _ in P.terms[i + 1 :]
    )
    return Fraction(min(slacks), scale * (1 + spread))


# ---------------------------------------------------------------------------
# Text and JSON formats.
# ---------------------------------------------------------------------------

# The most variables polynomial text may name or ask for: every term holds
# an exponent tuple this long, so a larger count would cost memory in
# proportion to a number read from the input.
MAX_TEXT_VARS = 1024

_ALIASES = {"x": 1, "y": 2, "z": 3, "w": 4}


def _var_index(name: str) -> int:
    """The index of a variable name: an alias, or ``x`` and a decimal
    index."""
    idx = _ALIASES.get(name)
    if idx is not None:
        return idx
    digits = name[1:]
    if name[:1] == "x" and digits.isdecimal():
        try:
            idx = int(digits)
        except ValueError as exc:  # past sys.get_int_max_str_digits()
            raise ParseError(f"bad variable index: {exc}") from exc
        if idx < 1:
            raise ParseError(f"variable indices start at 1, got {name!r}")
        if idx > MAX_TEXT_VARS:
            raise ParseError(f"variable index {idx} above the limit {MAX_TEXT_VARS}")
        return idx
    raise ParseError(f"unknown variable {name!r} (use x1..xn or x, y, z, w)")


def _var_name(i: int, num_vars: int) -> str:
    if num_vars <= 4:
        return "xyzw"[i]
    return f"x{i + 1}"


def _rational(factor: str) -> Optional[tuple[int, int]]:
    """``(p, q)`` for a factor ``p`` or ``p/q`` in decimal digits, with an
    optional leading ``-`` (which negates p), else None; q may be 0."""
    neg = factor[0] == "-"
    num, slash, den = (factor[1:] if neg else factor).partition("/")
    # isdecimal() accepts exactly the digits that \d matches (Unicode Nd),
    # and int() reads each of them
    if not num.isdecimal() or (slash and not den.isdecimal()):
        return None
    try:
        p, q = int(num), int(den) if slash else 1
    except ValueError as exc:  # past sys.get_int_max_str_digits()
        raise ParseError(f"bad coefficient: {exc}") from exc
    return (-p if neg else p), q


def parse_poly_text(text: str, num_vars: Optional[int] = None) -> LaurentPoly:
    """Parse ``c*x1^e1*...`` terms joined by '+'; '-inf' is the bottom
    polynomial.  An omitted coefficient means the tropical one (0).

    One pass: a term's coefficient factors are summed as an integer
    numerator and denominator, and make one Fraction per term."""
    num_vars = None if num_vars is None else as_index(num_vars)
    if num_vars is not None and num_vars < 0:
        raise BadParameters(f"negative variable count {num_vars}")
    if num_vars is not None and num_vars > MAX_TEXT_VARS:
        raise BadParameters(f"variable count {num_vars} above the limit {MAX_TEXT_VARS}")
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial text")
    raw_terms = []
    max_idx = 0
    for piece in s.split("+"):
        piece = piece.strip()
        if not piece:
            raise ParseError(f"empty term in {text!r}")
        if is_bottom_text(piece):
            continue
        num, den = 0, 1
        exps: dict[int, int] = {}
        for factor in piece.split("*"):
            factor = factor.strip()
            if not factor:
                raise ParseError(f"empty factor in term {piece!r}")
            pq = _rational(factor)
            if pq is not None:
                p, q = pq
                if not q:
                    raise ParseError(f"zero denominator in {factor!r}")
                num, den = num * q + p * den, den * q
                continue
            name, caret, power = factor.partition("^")
            idx = _var_index(name.strip())
            try:
                e = int(power) if caret else 1
            except ValueError as exc:
                raise ParseError(f"bad exponent in factor {factor!r}") from exc
            exps[idx] = exps.get(idx, 0) + e
            if idx > max_idx:
                max_idx = idx
        raw_terms.append((Fraction(num, den) if den != 1 else Fraction(num), exps))
    n = num_vars if num_vars is not None else max(max_idx, 1)
    if max_idx > n:
        raise ParseError(f"variable x{max_idx} out of range for {n} variables")
    pairs = []
    for c, exps in raw_terms:
        u = [0] * n
        for i, e in exps.items():
            u[i - 1] = e
        pairs.append((tuple(u), c))
    return LaurentPoly.make(n, pairs)


def poly_to_text(P: LaurentPoly) -> str:
    if not P:
        return str(NEG_INF)
    pieces = []
    for u, c in P.terms:
        factors = []
        if c != 0:
            factors.append(str(c))
        for i, e in enumerate(u):
            if e:
                name = _var_name(i, P.num_vars)
                factors.append(name if e == 1 else f"{name}^{e}")
        pieces.append("*".join(factors) or "0")
    return " + ".join(pieces)


def poly_to_json(P: LaurentPoly) -> dict:
    return {
        "vars": P.num_vars,
        "terms": [{"coeff": str(c), "exp": list(u)} for u, c in P.terms],
    }


def poly_from_json(obj: dict) -> LaurentPoly:
    with malformed("bad polynomial object"):
        n = as_int(obj["vars"])
        items = []
        for t in obj["terms"]:
            coeff = NEG_INF if is_bottom_text(t["coeff"]) else as_trop(t["coeff"])
            items.append((as_ints(t["exp"], as_int), coeff))
    for u, _ in items:
        if len(u) != n:  # make's DimensionMismatch, a parse error in a file
            raise ParseError(f"exponent {u} in {n} variables")
    return LaurentPoly.make(n, items)


def parse_point(text: str, num_vars: Optional[int] = None) -> tuple[Fraction, ...]:
    """Comma-separated rational coordinates: ``p``, ``p/q`` or decimals,
    without exponents.  Empty or blank text is the point with no coordinates."""
    with malformed(f"bad point {text!r}"):
        point = tuple(as_trop(part.strip()) for part in text.split(",")) if text.strip() else ()
    if num_vars is not None and len(point) != as_index(num_vars):
        raise ParseError(f"point {text!r} has {len(point)} coordinates, expected {num_vars}")
    return point
