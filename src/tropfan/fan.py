"""Weighted one-dimensional ray fans: primitive directions, the balancing
condition, support membership, JSON I/O, and the standard smooth models.

This module is the one definition of a fan and of its support.  A fan
stores pairwise-distinct primitive integer directions with positive
integer weights, sorted lexicographically by direction so that equality
is set equality and every downstream matrix/output ordering is
deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from .errors import BadParameters, DimensionMismatch, ZeroVector, malformed
from .semiring import as_index, as_int, as_ints, as_scaled, as_tuple, from_checked


def primitive(v: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Factor a nonzero integer vector as weight * primitive direction."""
    v = as_ints(v)
    if not any(v):
        raise ZeroVector("the zero vector has no direction")
    g = math.gcd(*v)
    return g, v if g == 1 else tuple(x // g for x in v)


@dataclass(frozen=True)
class Ray:
    """Primitive integer direction with a positive integer weight."""

    direction: tuple[int, ...]
    weight: int

    def __post_init__(self):
        d = as_ints(self.direction)
        object.__setattr__(self, "direction", d)
        if not any(d):
            raise ZeroVector("ray direction may not be zero")
        if math.gcd(*d) != 1:
            raise BadParameters(f"direction {d} is not primitive")
        try:
            weight = as_index(self.weight)
        except TypeError:
            weight = None
        if weight is None or weight < 1:
            raise BadParameters(f"weight must be a positive integer, got {self.weight!r}")
        object.__setattr__(self, "weight", weight)

    @functools.cached_property
    def generator(self) -> tuple[int, ...]:
        """weight * direction — the column this ray contributes."""
        return tuple(self.weight * x for x in self.direction)

    def label(self) -> str:
        return "(" + ",".join(str(x) for x in self.direction) + ")"


@dataclass(frozen=True)
class WeightedFan:
    """Ambient dimension plus lex-sorted rays with distinct directions."""

    ambient_dim: int
    rays: tuple[Ray, ...]

    def __post_init__(self):
        object.__setattr__(self, "ambient_dim", as_index(self.ambient_dim))
        object.__setattr__(self, "rays", as_tuple(self.rays))
        if self.ambient_dim < 1:
            raise BadParameters("ambient dimension must be at least 1")
        if not self.rays:
            raise BadParameters("a fan needs at least one ray")
        dirs = []
        for ray in self.rays:
            if len(ray.direction) != self.ambient_dim:
                raise DimensionMismatch(
                    f"ray {ray.direction} in ambient dimension {self.ambient_dim}"
                )
            dirs.append(ray.direction)
        for a, b in zip(dirs, dirs[1:]):
            if a >= b:
                raise BadParameters(f"duplicate ray direction {a}" if a == b else "rays must be lex-sorted")

    @classmethod
    def build(cls, ambient_dim: int, items: Iterable[tuple[Sequence[int], int]]) -> "WeightedFan":
        """Normalizing factory: primitivizes each direction, absorbing the
        extracted gcd into the weight; duplicate directions are an error."""
        rays = []
        for vec, w in items:
            w = as_index(w)
            if w < 1:
                raise BadParameters(f"weight must be positive, got {w}")
            g, d = primitive(vec)
            rays.append(from_checked(Ray, d, w * g))
        rays.sort(key=lambda r: r.direction)
        return cls(ambient_dim, tuple(rays))

    def ray_of(self, v: Sequence) -> Ray | None:
        """The ray whose direction is a positive rational multiple of v, or
        None when v is zero or lies on no ray.  A v of the wrong length
        raises DimensionMismatch.  The coordinates of v are ints or exact
        rationals; floats, booleans and -inf raise TypeError.
        v is scaled to integers and reduced by :func:`primitive`, so the
        answer is the ray with that direction."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch(f"vector of length {len(v)} in dimension {self.ambient_dim}")
        v = as_scaled(v)[0]
        if not any(v):
            return None
        d = primitive(v)[1]
        return next((ray for ray in self.rays if ray.direction == d), None)

    def ray_labels(self) -> list[str]:
        return [r.label() for r in self.rays]

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "rays": [{"direction": list(r.direction), "weight": r.weight} for r in self.rays],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "WeightedFan":
        with malformed("bad fan object"):
            n = as_int(obj["ambient_dim"])
            items = [(as_ints(e["direction"], as_int), as_int(e["weight"])) for e in as_tuple(obj["rays"])]
        return cls.build(n, items)


def check_balancing(X: WeightedFan) -> bool:
    """True iff the weighted directions sum to the zero vector."""
    return not any(map(sum, zip(*[ray.generator for ray in X.rays])))


def standard_model(n: int, r: int) -> WeightedFan:
    """The balanced fan on e_1..e_{r-1} and e_0 = -(e_1 + ... + e_{r-1}),
    all weights 1, inside dimension n; requires 2 <= r <= n + 1."""
    n, r = as_index(n), as_index(r)
    if not 2 <= r <= n + 1:
        raise BadParameters(f"need 2 <= r <= n + 1, got r={r}, n={n}")
    items: list[tuple[list[int], int]] = []
    for i in range(r - 1):
        e = [0] * n
        e[i] = 1
        items.append((e, 1))
    items.append(([-1] * (r - 1) + [0] * (n - r + 1), 1))
    return WeightedFan.build(n, items)


def support_contains(X: WeightedFan, v: Sequence) -> bool:
    """True iff v is zero or a positive rational multiple of some ray
    direction."""
    # ray_of first: it rejects floats before any() could read 0.0 as zero
    return X.ray_of(v) is not None or not any(v)
