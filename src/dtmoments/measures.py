"""Planar measure models exposed through their mixed moments M(r, s).

The moment engine consumes nothing about a base measure except the numbers
M(r, s) = integral of z^r * conj(z)^s.  The models here give those numbers in
closed form, exactly over rationals wherever the parameters allow:

* ``Atomic``      -- finitely many weighted point masses
* ``UniformDisk`` -- uniform on the disk of a given radius
* ``UniformAnnulus`` -- uniform on the annulus with radii sqrt(c-1), sqrt(c)
* ``UniformEllipse`` -- uniform on the solid ellipse attached to an elliptic
  deformation with half-parameters (a, b); realized as the push-forward of the
  uniform unit disk under z -> alpha*z + beta*conj(z) with real alpha, beta
* ``MomentTable`` -- explicit table up to a declared degree
* ``ScaledMeasure`` -- push-forward under multiplication by a fixed scalar

Sampling lives elsewhere; these models are pure moment oracles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from fractions import Fraction
from math import comb

from .errors import WordParseError
from .exact import (CQ_ONE, CQ_ZERO, ComplexRational, MomentValue, as_cq, order, parse_rational,
                    positive, tagged)


@dataclass(frozen=True)
class Atomic:
    """Finitely many atoms (location, weight); weights must sum to 1."""

    atoms: tuple[tuple[ComplexRational, Fraction], ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple((as_cq(loc), parse_rational(w)) for loc, w in self.atoms))
        if sum((w for _, w in self.atoms), Fraction(0)) != 1:
            raise ValueError("atomic weights must sum to exactly 1")
        if any(w <= 0 for _, w in self.atoms):
            raise ValueError("atomic weights must be positive")

    @classmethod
    def delta(cls, location: ComplexRational | Fraction | int | str) -> "Atomic":
        return cls(((location, Fraction(1)),))

    def moment(self, r: int, s: int) -> ComplexRational:
        if (r, s) == (0, 0):
            return CQ_ONE  # the weights sum to exactly 1
        total = CQ_ZERO
        for loc, w in self.atoms:
            total = total + w * (loc**r * loc.conjugate() ** s)
        return total


@dataclass(frozen=True)
class UniformDisk:
    """Uniform probability measure on the disk of radius R about 0.

    A rational radius gives exact moments; a float radius gives floats.
    """

    radius: Fraction | float

    def __post_init__(self):
        object.__setattr__(self, "radius", positive(self.radius, "disk radius"))

    def moment(self, r: int, s: int):
        return tagged(self.radius ** (2 * r) / (r + 1) if r == s else 0 * self.radius)


@dataclass(frozen=True)
class UniformAnnulus:
    """Uniform measure on the annulus with radii sqrt(c-1) and sqrt(c), c >= 1.

    The squared modulus is then uniform on [c-1, c], which is what makes these
    the base measures of the free Poisson family.
    """

    c: Fraction | float

    def __post_init__(self):
        object.__setattr__(self, "c", positive(self.c, "annulus parameter"))
        if self.c < 1:
            raise ValueError("annulus parameter must satisfy c >= 1 and be finite")

    def moment(self, r: int, s: int):
        c = self.c
        return tagged((c ** (r + 1) - (c - 1) ** (r + 1)) / (r + 1) if r == s else 0 * c)


@dataclass(frozen=True)
class UniformEllipse:
    """Uniform measure on the solid ellipse with semi-axes 2a^2/sqrt(a^2+b^2)
    and 2b^2/sqrt(a^2+b^2) along the real and imaginary axes.

    Moments come from writing the measure as the image of the uniform unit
    disk under z -> alpha*z + beta*conj(z); only alpha^2, beta^2 and
    alpha*beta enter any moment, and those are rational in a, b.
    """

    a: Fraction | float
    b: Fraction | float

    def __post_init__(self):
        object.__setattr__(self, "a", positive(self.a, "ellipse parameters"))
        object.__setattr__(self, "b", positive(self.b, "ellipse parameters"))

    def _alpha_beta_products(self):
        # alpha, beta are half the sum and half the difference of the semi-axes;
        # taken in closed form, a near-circular ellipse loses no float digits
        # to cancellation
        a2, b2 = self.a * self.a, self.b * self.b
        return a2 + b2, (a2 - b2) ** 2 / (a2 + b2), a2 - b2

    def moment(self, r: int, s: int):
        alpha_sq, beta_sq, alpha_beta = self._alpha_beta_products()
        total = 0 * alpha_sq
        if (r - s) % 2 == 1:
            return tagged(total)
        for i in range(r + 1):
            j = i - (r - s) // 2
            if not 0 <= j <= s:
                continue
            p = i + s - j  # unit-disk moment degree; equals r - i + j
            u = i + j
            v = (r + s) - u
            if u % 2 == 0:
                coeff = alpha_sq ** (u // 2) * beta_sq ** (v // 2)
            else:
                coeff = alpha_beta * alpha_sq ** ((u - 1) // 2) * beta_sq ** ((v - 1) // 2)
            total += comb(r, i) * comb(s, j) * coeff / (p + 1)
        return tagged(total)


@dataclass(frozen=True)
class MomentTable:
    """Explicit mixed moments up to a declared maximal total degree.

    Entries are stored for (r, s); a missing entry is read as the conjugate
    of (s, r), so only one triangle need be given.  As for any measure, M(s, r)
    must be the conjugate of M(r, s), and M(r, r) = E|z|^(2r) real and >= 0.
    """

    max_degree: int
    entries: tuple[tuple[tuple[int, int], ComplexRational], ...]

    def __post_init__(self):
        d = order(self.max_degree, "max_degree", 0)
        what = f"order of a max_degree {d} table"
        table = {(order(r, what, 0), order(s, what, 0)): as_cq(v) for (r, s), v in self.entries}
        object.__setattr__(self, "max_degree", d)
        if table.get((0, 0), CQ_ONE) != CQ_ONE:
            raise ValueError("M(0, 0) must be 1")
        for (r, s), v in table.items():
            if r + s > d:
                raise ValueError(f"M({r}, {s}) exceeds max_degree {d}")
            if r == s and not (v.is_real() and v.re >= 0):
                raise ValueError(f"M({r}, {r}) = {v!r} must be real and >= 0")
            if (s, r) in table and table[s, r] != v.conjugate():
                raise ValueError(f"M({r}, {s}) and M({s}, {r}) must be conjugates")
        object.__setattr__(self, "entries", tuple(sorted(table.items())))
        conjugates = {(s, r): v.conjugate() for (r, s), v in table.items()}
        object.__setattr__(self, "_lookup", {(0, 0): CQ_ONE, **conjugates, **table})  # not a field

    def moment(self, r: int, s: int) -> ComplexRational:
        r, s = order(r, least=0), order(s, least=0)
        order(r + s, "moment degree", most=self.max_degree)
        return self._lookup.get((r, s), CQ_ZERO)


@dataclass(frozen=True)
class ScaledMeasure:
    """Push-forward of a base model under multiplication by ``lam``."""

    base: "MeasureModel"
    lam: ComplexRational

    def __post_init__(self):
        object.__setattr__(self, "lam", as_cq(self.lam))
        if self.lam == CQ_ZERO:
            raise ValueError("scaling by zero is rejected")

    def moment(self, r: int, s: int) -> ComplexRational:
        return self.lam**r * self.lam.conjugate() ** s * self.base.moment(r, s)


MeasureModel = Atomic | UniformDisk | UniformAnnulus | UniformEllipse | MomentTable | ScaledMeasure


def mixed_moment(mu: MeasureModel, r: int, s: int) -> MomentValue:
    """M(r, s) of the model, tagged with the backend that produced it."""
    return MomentValue.wrap(mu.moment(order(r, least=0), order(s, least=0)))


def scale(mu: MeasureModel, lam: ComplexRational) -> MeasureModel:
    """The measure of ``lam * z`` when z is distributed by ``mu``."""
    scaled = ScaledMeasure(mu, lam)
    if isinstance(mu, Atomic):
        return Atomic(tuple((scaled.lam * loc, w) for loc, w in mu.atoms))
    if isinstance(mu, ScaledMeasure):
        return ScaledMeasure(mu.base, scaled.lam * mu.lam)
    return scaled


def conjugate(mu: MeasureModel) -> MeasureModel:
    """The measure of conj(z); mixed moments get their orders swapped."""
    if isinstance(mu, Atomic):
        return Atomic(tuple((loc.conjugate(), w) for loc, w in mu.atoms))
    if isinstance(mu, (UniformDisk, UniformAnnulus, UniformEllipse)):
        return mu  # invariant under conjugation
    if isinstance(mu, MomentTable):
        return MomentTable(
            mu.max_degree, tuple(((s, r), v) for (r, s), v in mu.entries)
        )
    return ScaledMeasure(conjugate(mu.base), mu.lam.conjugate())


# -- JSON specification ------------------------------------------------------


def _only(obj: dict, *keys: str) -> dict:
    """``obj``, if it holds no key outside ``keys``."""
    unread = sorted(set(obj) - set(keys))
    if unread:
        raise ValueError(f"unknown keys {unread}")
    return obj


def _cq_from_json(obj: dict) -> ComplexRational:
    """A value's ``re`` and optional ``im``, as the shorthand ``delta:<re>[,<im>]``."""
    return ComplexRational(obj["re"], obj.get("im", 0))


_SHAPES = {"disk": UniformDisk, "annulus": UniformAnnulus, "ellipse": UniformEllipse}


def measure_from_json(spec) -> MeasureModel:
    """Build a model from its JSON object (or JSON text) specification.

    Accepted forms:
      {"type": "atomic", "atoms": [{"re": ..., "im": ..., "w": "p/q"}, ...]}
      {"type": "disk", "radius": "p/q"}
      {"type": "annulus", "c": "p/q"}
      {"type": "ellipse", "a": ..., "b": ...}
      {"type": "table", "max_degree": d, "entries": [{"r": r, "s": s, "re": ..., "im": ...}]}

    A disk, annulus or ellipse names its model's fields.  A malformed spec (an
    unknown type or key, a missing field, a field that does not parse, "1/0"
    included, an order that is not an integer) raises ``WordParseError``; a
    well-formed spec outside its model's domain raises the model's own
    ``ValueError``.
    """
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as e:
            raise WordParseError(f"bad measure JSON: {e}") from None
    if not isinstance(spec, dict) or "type" not in spec:
        raise WordParseError("measure spec must be an object with a 'type' field")
    kind = spec["type"]
    if kind not in ("atomic", "table", *_SHAPES):
        raise WordParseError(f"unknown measure type {kind!r}")
    try:
        if kind == "atomic":
            _only(spec, "type", "atoms")
            atoms = tuple((_cq_from_json(_only(a, "re", "im", "w")), parse_rational(a["w"]))
                          for a in spec["atoms"])
            model, params = Atomic, [atoms]
        elif kind == "table":
            _only(spec, "type", "max_degree", "entries")
            entries = tuple(
                ((order(e["r"]), order(e["s"])), _cq_from_json(_only(e, "r", "s", "re", "im")))
                for e in spec["entries"])
            model, params = MomentTable, [order(spec["max_degree"]), entries]
        else:
            model = _SHAPES[kind]
            names = [field.name for field in fields(model)]
            _only(spec, "type", *names)
            params = [parse_rational(spec[name]) for name in names]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise WordParseError(f"bad measure spec {spec!r}: {type(e).__name__}: {e}") from None
    return model(*params)  # a spec outside the model's domain raises its ValueError
