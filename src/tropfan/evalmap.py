"""The weighted evaluation of Boolean polynomials on a fan's rays, the
ray-function semiring it lands in, fan reconstruction, realizability,
kernel equality, lattice image membership, and the smoothness test.

A ray function assigns an integer to every ray (or is the all-bottom
function).  Evaluating a Boolean polynomial f on a fan X gives the ray
function rho |-> w_rho * f(d_rho); the columns w_rho * d_rho form the
fan's generator matrix, from which the fan itself is recoverable.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Union

from . import _lp
from .errors import (
    BadParameters,
    DimensionMismatch,
    NonBooleanInput,
    NotBalanced,
    NotRealizable,
    ParseError,
    ZeroVector,
    malformed,
)
from .fan import WeightedFan, check_balancing, primitive
from .intlat import IntMatrix, _hnf_core, _ident_list, hnf
from .laurent import LaurentPoly
from .semiring import BOOL_ONE, NEG_INF, TropValue, as_index, as_int, as_ints, from_checked, is_bottom_text

#: the default of image_membership's ``bound``, which is checked and not read
DEFAULT_MEMBER_BOUND = 64


@dataclass(frozen=True)
class RayFunction:
    """Integer value per ray of a fixed fan; values None means the bottom
    function (every ray at -inf)."""

    fan: WeightedFan
    values: Optional[tuple[int, ...]]

    def __post_init__(self):
        if self.values is not None:
            if len(self.values) != len(self.fan.rays):
                raise DimensionMismatch(
                    f"{len(self.values)} values for {len(self.fan.rays)} rays"
                )
            object.__setattr__(self, "values", as_ints(self.values))

    @property
    def is_bottom(self) -> bool:
        return self.values is None

    def degree(self) -> TropValue:
        """Sum of the values; the bottom function has degree -inf."""
        if self.values is None:
            return NEG_INF
        return sum(self.values)

    def __getitem__(self, i: int) -> Union[int, object]:
        if self.values is None:
            return NEG_INF
        return self.values[i]

    def to_json(self) -> dict:
        names = self.fan.ray_labels()
        if self.values is None:
            return {"rays": names, "values": [str(NEG_INF)] * len(names)}
        return {"rays": names, "values": list(self.values)}

    @classmethod
    def from_json(cls, fan: WeightedFan, obj: dict) -> "RayFunction":
        with malformed("bad ray function object"):
            values = obj["values"]
            if isinstance(values, (str, dict)):
                raise TypeError(f"{values!r} is not a list of values")
            values = list(values)
            rays = list(obj["rays"]) if "rays" in obj else None
        if rays is not None and rays != fan.ray_labels():
            raise ParseError("ray names do not match the fan's sorted rays")
        bottoms = [is_bottom_text(v) for v in values]
        if all(bottoms) and values:
            return cls(fan, None)
        if any(bottoms):
            raise ParseError("-inf entries are only allowed when every entry is -inf")
        with malformed("bad ray function values"):
            values = as_ints(values, as_int)
        return cls(fan, values)


def degree(F: RayFunction) -> TropValue:
    return F.degree()


def eval_map(X: WeightedFan, f: LaurentPoly) -> RayFunction:
    """rho |-> w_rho * f(d_rho); the bottom polynomial maps to bottom.

    This is exact in integers: every coefficient of a Boolean f is 0 and
    every direction d_rho is a primitive integer vector, so f(d_rho) is
    max_u u . d_rho, a maximum of integer dot products.  One pass over the
    terms checks each coefficient and takes its exponent's dot products
    with every direction.
    """
    if f.num_vars != X.ambient_dim:
        raise DimensionMismatch(
            f"polynomial in {f.num_vars} variables on a fan of dimension {X.ambient_dim}"
        )
    mul, rays = operator.mul, X.rays
    directions = [ray.direction for ray in rays]
    per_term = []  # u . d_rho for every ray, one list per term
    for u, c in f.terms:
        if c:
            raise NonBooleanInput("weighted evaluation needs every coefficient equal to 0")
        per_term.append([sum(map(mul, u, d)) for d in directions])
    if not per_term:
        return from_checked(RayFunction, X, None)
    return from_checked(RayFunction, X, tuple([ray.weight * max(vs) for ray, vs in zip(rays, zip(*per_term))]))


def generator_matrix(X: WeightedFan) -> IntMatrix:
    """Columns are the weighted primitive directions, in ray order."""
    gens = [ray.generator for ray in X.rays]
    return IntMatrix.from_rows([[g[i] for g in gens] for i in range(X.ambient_dim)])


def is_realizable(M: IntMatrix) -> bool:
    """True iff M is the generator matrix of some fan: the fan built from
    its columns exists and is balanced (see :func:`reconstruct_fan`)."""
    try:
        reconstruct_fan(M)
    except NotRealizable:
        return False
    return True


def reconstruct_fan(M: IntMatrix) -> WeightedFan:
    """Inverse of generator_matrix: the fan built from M's columns, each a
    weight times a primitive direction; NotRealizable unless it exists and
    is balanced."""
    try:
        X = WeightedFan.build(M.rows, [(M.col(j), 1) for j in range(M.cols)])
    except (ZeroVector, BadParameters):
        X = None
    if X is None or not check_balancing(X):
        raise NotRealizable("matrix has a zero column, positively parallel columns, or unbalanced rows")
    return X


def ker_eq(X: WeightedFan, f: LaurentPoly, g: LaurentPoly) -> bool:
    """True iff f and g agree on the support of X, i.e. at every ray
    direction (homogeneity extends this along each ray).  The weights are
    positive, so that is equality of the weighted evaluations."""
    return eval_map(X, f).values == eval_map(X, g).values


def linear_relations(M: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the integer relations among the columns of M: the columns
    of the HNF transform U (M.U = H) where H has a zero column."""
    H, U = hnf(M)
    return [U.col(j) for j in range(M.cols) if not any(H.col(j))]


@dataclass(frozen=True)
class SmoothReport:
    smooth: bool
    reason: Optional[str] = None


def is_smooth(X: WeightedFan) -> SmoothReport:
    """Decide smoothness at the origin.

    Requires balancing.  Smooth iff every weight is 1 and the rows of the
    generator matrix generate the full degree-zero lattice; dropping the
    lex-last ray's coordinate is an isomorphism of that lattice with
    Z^{k-1} for balanced inputs.  The remaining n x (k-1) matrix M is
    read through the column HNF of M^T, whose rows are the generators of
    every ray but the lex-last and whose columns generate the same
    lattice as the rows of M.  Its pivot rows strictly increase, so its
    rank is the pivot count; at rank k-1 its pivot columns are lower
    triangular, so the index of the lattice in Z^{k-1} is the pivot
    product.  These are the rank and the product of the invariant factors
    that the Smith form of M would give, and no transform is built.
    """
    if not check_balancing(X):
        raise NotBalanced("smoothness is only defined for balanced fans")
    for ray in X.rays:
        if ray.weight != 1:
            return SmoothReport(False, f"weight {ray.weight} on ray {ray.label()}")
    k = len(X.rays)
    a = [list(ray.generator) for ray in X.rays[:-1]]
    pivots = _hnf_core(a, [])
    if len(pivots) < k - 1:
        return SmoothReport(False, f"rank {len(pivots)} < {k - 1}")
    index = math.prod([a[r][c] for r, c in pivots])
    if index != 1:
        return SmoothReport(False, f"lattice index {index}")
    return SmoothReport(True, None)


@functools.lru_cache(maxsize=1024)
def _tight_search(gens: tuple, a: int) -> tuple:
    """The search at ray a among the weighted directions ``gens``, apart
    from the values: ``(lift, kept, plan, dropped, free)``, all read in the
    exponents z.  Each round over the undecided rays asks one LP for a y
    in C = {g_a . y = 0, g_c . y <= 0} with s . y < 0, s the sum of their
    g_b, and none once s lies along g_a; a y found, made primitive, drops
    each b with g_b . y < 0.  ``free`` sums these y, and each (b, l_b) of
    ``dropped`` has l_b = -g_b . free > 0.  The column HNF [g_a; g_K] U = H
    over the kept rays K has rank r: the z tight at a are ``lift . (q, w)``,
    ``lift`` the first r columns of U, and each (b, H_b[0]) of ``kept``
    gives the row ``H_b[1:r] . w <= G(b) - q H_b[0]``, and ``plan`` is the
    Fourier-Motzkin plan of these rows."""
    n, mul, g = len(gens[a]), operator.mul, gens[a]
    others = [b for b in range(len(gens)) if b != a]
    kept, ys = others, []
    while True:
        s = tuple(map(sum, zip(*[gens[b] for b in kept])))  # () once none is left
        if sum(map(mul, g, s)) ** 2 == sum(map(mul, g, g)) * sum(map(mul, s, s)):  # s along g_a
            break
        lp = _lp.Tableau([(g, 0, False), (tuple([-x for x in g]), 0, False)]
                         + [(gens[c], 0, False) for c in others] + [(s, 0, True)], n)
        found = _lp.find_point(lp, n)
        if found is None:
            break
        ys.append(primitive(found[0])[1])
        kept = [b for b in kept if not sum(map(mul, gens[b], ys[-1]))]
    free = tuple([sum(col) for col in zip(*ys)]) or (0,) * n
    dropped = tuple([(b, -sum(map(mul, gens[b], free))) for b in others if b not in kept])
    H, U = [list(g)] + [list(gens[b]) for b in kept], _ident_list(n)
    rank = len(_hnf_core(H, U))  # row 0 of H is now (w_a, 0, ..., 0)
    return (tuple([tuple(u[:rank]) for u in U]), tuple([(b, h[0]) for b, h in zip(kept, H[1:])]),
            _lp._plan(tuple([tuple(h[1:rank]) for h in H[1:]])), dropped, free)


def _tight_exponent(gens: tuple, values, a: int) -> Optional[tuple]:
    """An integer z with every ``gens[b] . z <= values[b]`` and equality at
    b = a (``gens[a]`` not 0), or None when there is none."""
    lift, kept, plan, dropped, free = _tight_search(gens, a)
    q, rem = divmod(values[a], math.gcd(*gens[a]))
    if rem:
        return None
    w = _lp.integer_point_search(plan, [values[b] - q * c for b, c in kept])[0]
    if w is None:
        return None
    qw, mul = (q, *w), operator.mul
    z = tuple([sum(map(mul, row, qw)) for row in lift])
    if dropped:
        t = max([0] + [-((values[b] - sum(map(mul, gens[b], z))) // l) for b, l in dropped])
        z = tuple([x + t * f for x, f in zip(z, free)])
    return z


def image_membership(
    X: WeightedFan, G: RayFunction, bound: int = DEFAULT_MEMBER_BOUND
) -> Optional[LaurentPoly]:
    """Decide whether G is the weighted evaluation of some Boolean
    polynomial, returning such a polynomial or None for a proven
    non-member.  ``bound`` is checked and not read.

    G is a member iff for every ray a some integer z satisfies
    z . g_b <= G(b) at all rays b with equality at a; the witness is then
    the max of the monomials x^z.  Every value w_rho * f(d_rho) is a
    multiple of its ray's weight, so a value that is not is a proof of
    non-membership before any search.  So is a negative degree on a
    balanced fan: the values (M^T z)_b of a term sum to z . sum_b g_b = 0,
    so M^T z <= G forces deg G >= 0.  The search at ray a is exact in
    two steps on the exponents themselves, cached per fan and ray
    (Schrijver 1986, sections 4.1 and 12.2):

    1. Row b is dropped when a recession direction y has g_a . y = 0,
       every other g_c . y <= 0 and g_b . y < 0: rounds ask one LP each
       of the sum s of the undecided rows, none once s lies along g_a, so
       the last round leaves a relation modulo g_a positive on every kept
       row (s itself, or by Farkas).  So the sum y_N of the rounds' points
       is 0 on g_a and the kept rows and < 0 on the dropped ones: a tight
       point of the kept rows plus t y_N, t large, meets them all.
    2. The column HNF [g_a; g_K] U = H of g_a over the kept rows has
       row 0 (w_a, 0, ..., 0) and rank r.  The tight z are
       U (q, w, 0, ..., 0), q = G(a) / w_a and w in Z^(r-1); row b reads
       H_b[1:r] . w <= G(b) - q H_b[0], and the positive relation leaves
       {w : H_b[1:r] . w <= 0 for all kept b} = {0}, a bounded region.

    A ray is not searched when an exponent already found is tight there,
    so the witness has at most one term per ray, and possibly fewer.
    """
    try:
        bound = as_index(bound)
    except TypeError:
        raise TypeError(f"search bound is an integer, got {bound!r}") from None
    if bound < 0:
        raise BadParameters(f"search bound must be nonnegative, got {bound}")
    if G.fan is not X and G.fan != X:
        raise DimensionMismatch("ray function belongs to a different fan")
    values = G.values
    if values is None:
        return LaurentPoly.zero(X.ambient_dim)
    if any(map(operator.mod, values, [ray.weight for ray in X.rays])):
        return None
    if G.degree() < 0 and check_balancing(X):
        return None
    gens, mul = tuple([ray.generator for ray in X.rays]), operator.mul
    exponents = []
    for a, (gen, value) in enumerate(zip(gens, values)):
        if value in [sum(map(mul, z, gen)) for z in exponents]:
            continue
        z = _tight_exponent(gens, values, a)
        if z is None:
            return None
        exponents.append(z)
    # distinct: a ray is searched only when no exponent found is tight there
    witness = from_checked(LaurentPoly, X.ambient_dim, tuple([(z, BOOL_ONE) for z in sorted(exponents)]))
    if eval_map(X, witness).values != values:
        raise AssertionError("witness must reproduce the input")
    return witness
