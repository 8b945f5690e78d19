"""Fan morphisms as integer matrices, pullbacks of polynomials and ray
functions, geometricity of extensionally-given homomorphisms, and their
realization as actual fan morphisms.

A morphism from a fan X (ambient n) to a fan Y (ambient m) is an m x n
integer matrix sending every ray of X into the support of Y (the origin
counts).  Pulling a polynomial back substitutes the j-th target variable
by the monomial with exponent row j of the matrix, so evaluation commutes:
pullback(Q) at p equals Q at T.p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import (
    BadParameters,
    CompositionMismatch,
    DimensionMismatch,
    InvalidMorphism,
    NoIntegerSolution,
    NonBooleanInput,
    NotGeometric,
)
from .evalmap import RayFunction, eval_map, generator_matrix
from .fan import Ray, WeightedFan, support_contains
from .intlat import IntMatrix, lattice_solve
from .laurent import LaurentPoly
from .semiring import from_checked


def _leaving_ray(T: IntMatrix, X: WeightedFan, Y: WeightedFan) -> Optional[Ray]:
    """The first ray of X that T maps off the support of Y, or None."""
    if T.cols != X.ambient_dim or T.rows != Y.ambient_dim:
        raise DimensionMismatch(
            f"{T.rows}x{T.cols} matrix between dimensions {X.ambient_dim} -> {Y.ambient_dim}"
        )
    return next((ray for ray in X.rays if not support_contains(Y, T.apply(ray.direction))), None)


def validate_morphism(T: IntMatrix, X: WeightedFan, Y: WeightedFan) -> bool:
    """True iff T maps every ray direction of X into the support of Y."""
    return _leaving_ray(T, X, Y) is None


@dataclass(frozen=True)
class FanMorphism:
    """Support-preserving integer-linear map between two fans."""

    source: WeightedFan
    target: WeightedFan
    matrix: IntMatrix

    def __post_init__(self):
        bad = _leaving_ray(self.matrix, self.source, self.target)
        if bad is not None:
            raise InvalidMorphism(f"image of ray {bad.label()} leaves the target support")

    def apply(self, v) -> tuple[int, ...]:
        return self.matrix.apply(v)


def pullback_poly(mu: FanMorphism, Q: LaurentPoly) -> LaurentPoly:
    """Substitute each target variable y_j by the monomial x^{row j}."""
    T = mu.matrix
    if Q.num_vars != T.rows:
        raise DimensionMismatch(f"polynomial in {Q.num_vars} variables pulled back along {T.rows} rows")
    # exponent v pulls back to sum_j v_j * (row j of T), which is T^t v
    Tt = T.transpose()
    return LaurentPoly.make(T.cols, [(Tt.apply(v), c) for v, c in Q.terms])


def pullback_evalmap(mu: FanMorphism, f: LaurentPoly) -> RayFunction:
    """Pull the weighted evaluation of f on the target back to the source:
    rho |-> w_rho * f(T d_rho), which is eval_map of pullback_poly.

    Raises pullback_poly's DimensionMismatch when f is not in the target's
    variables, then NonBooleanInput when f is not Boolean, also where T
    merges f's terms into a Boolean pullback (x + -1*y when T's two rows
    are equal): f itself has no weighted evaluation, and eval_map sees
    only the pullback."""
    pulled = pullback_poly(mu, f)
    if not f.is_boolean:
        raise NonBooleanInput("weighted evaluation needs every coefficient equal to 0")
    return eval_map(mu.source, pulled)


def compose(mu2: FanMorphism, mu1: FanMorphism) -> FanMorphism:
    """The morphism T2.T1, defined when mu1's target is mu2's source."""
    if mu1.target != mu2.source:
        raise CompositionMismatch("target fan of the first morphism must equal source of the second")
    return FanMorphism(mu1.source, mu2.target, mu2.matrix @ mu1.matrix)


@dataclass(frozen=True)
class HomSpec:
    """Extensional homomorphism data: for each coordinate function of the
    source fan's ambient space, its image as a degree-zero ray function on
    the target fan.

    A realization, when it exists, is a FanMorphism *from* ``target``
    *to* ``source`` (pullbacks are contravariant).
    """

    source: WeightedFan
    target: WeightedFan
    images: tuple[RayFunction, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if len(self.images) != self.source.ambient_dim:
            raise DimensionMismatch(
                f"{len(self.images)} images for {self.source.ambient_dim} source coordinates"
            )
        for H in self.images:
            if H.fan != self.target:
                raise DimensionMismatch("every image must be a ray function on the target fan")
            if H.degree() != 0:
                raise BadParameters("generator images must have degree 0")


def induced_homspec(mu: FanMorphism) -> HomSpec:
    """The generator images of mu's pullback (always geometric): the
    pullback of y_j is the Boolean monomial x^(row j of T), so image j
    is rho |-> row_j(T) . g_rho, with g_rho = w_rho d_rho the generator
    of the source ray rho."""
    X = mu.source
    vecs = [mu.apply(ray.generator) for ray in X.rays]
    images = tuple(from_checked(RayFunction, X, col) for col in zip(*vecs))
    return HomSpec(mu.target, X, images)


def check_geometric(h: HomSpec) -> bool:
    """True iff at every target ray the stacked image vector is a
    nonnegative rational multiple of some source generator column, that
    is zero or on a source ray."""
    return all(support_contains(h.source, vec) for vec in zip(*(H.values for H in h.images)))


def realize_morphism(h: HomSpec) -> FanMorphism:
    """Build the fan morphism whose pullback sends each source coordinate
    to the prescribed image.

    Solves row_i(T) . gen(rho) = H_i(rho) over the integers simultaneously
    for all rays rho of the target fan.  Then T . gen(rho) is the stacked
    image vector at rho, which check_geometric put at the origin or on a
    ray of the source, so T preserves support.  Only the action on the
    target's support is contractual; off the span of the generators the
    integer solution is the canonical Hermite one.
    """
    if not check_geometric(h):
        raise NotGeometric("some image vector leaves the cone of the source generators")
    X, Y = h.target, h.source
    A = generator_matrix(X).transpose()  # k x n
    rows = []
    for i, H in enumerate(h.images):
        t = lattice_solve(A, H.values)
        if t is None:
            raise NoIntegerSolution(
                f"image {i} is not an integer combination of the target generators"
            )
        if A.apply(t) != H.values:
            raise AssertionError("lattice solve must reproduce the image on every ray")
        rows.append(list(t))
    return FanMorphism(X, Y, IntMatrix.from_rows(rows))


def extract_ray_map(mu: FanMorphism) -> dict[str, Optional[str]]:
    """For each source ray, the label of the target ray its image lies on
    (None when it collapses to the origin)."""
    out = {}
    for ray in mu.source.rays:
        image = mu.target.ray_of(mu.apply(ray.direction))
        out[ray.label()] = None if image is None else image.label()
    return out
