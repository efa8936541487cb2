"""Exact-rational two-dimensional rate-region engine.

Regions are intersections of halfplanes a1*d1 + a2*d2 <= b with big-integer
rational coefficients; a region's vertices are derived from its halfplanes
(the feasible pairwise line intersections) on first use.  One catalog maps
the eight theorem ids of the CLI surface to their regions: thm2-thm6 are
rows of one table of (required three-state schedule, halfplanes), and
`THEOREM_IDS` is the catalog's keys.  A bounded-variable linear system with
Fourier-Motzkin elimination reproduces converse derivations symbolically.
Every rational in the JSON forms is `fraction_json`'s [numerator,
denominator] pair.  No floats appear anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .errors import (
    ArityMismatch,
    BadParams,
    BadWeights,
    InnerNotContained,
    SymmetryViolated,
    Unbounded,
    UnknownTheorem,
    UnknownVariable,
)
from .model import StateLabel, StateSchedule

Point = tuple[Fraction, Fraction]


def fraction_json(x: Fraction) -> list[int]:
    """A rational as its JSON form, the pair [numerator, denominator]."""
    return [x.numerator, x.denominator]


def _json_fraction(value, what: str) -> Fraction:
    """Inverse of fraction_json; anything but an integer pair with a
    nonzero denominator raises BadParams naming `what`."""
    if (not isinstance(value, list) or len(value) != 2
            or any(type(v) is not int for v in value) or value[1] == 0):
        raise BadParams(f"{what} must be [numerator, denominator] with a nonzero "
                        f"integer denominator, got {value!r}")
    return Fraction(value[0], value[1])


@dataclass(frozen=True)
class HalfPlane:
    """a1*d1 + a2*d2 <= b, exact rationals, (a1, a2) != (0, 0)."""

    a1: Fraction
    a2: Fraction
    b: Fraction

    def __post_init__(self):
        if self.a1 == 0 and self.a2 == 0:
            raise ValueError("halfplane normal must be nonzero")

    def holds(self, point: Point) -> bool:
        return self.a1 * point[0] + self.a2 * point[1] <= self.b


_NONNEG = (
    HalfPlane(Fraction(-1), Fraction(0), Fraction(0)),
    HalfPlane(Fraction(0), Fraction(-1), Fraction(0)),
)


def _intersect(p: HalfPlane, q: HalfPlane) -> Point | None:
    det = p.a1 * q.a2 - p.a2 * q.a1
    if det == 0:
        return None
    d1 = (p.b * q.a2 - p.a2 * q.b) / det
    d2 = (p.a1 * q.b - p.b * q.a1) / det
    return (d1, d2)


def _recession_ray_exists(planes: Sequence[HalfPlane]) -> bool:
    """Exact 2-D unboundedness test via candidate extreme rays: the axes,
    the diagonal and both directions of every boundary line (none is zero,
    since no normal is)."""
    rays = [(1, 0), (0, 1), (1, 1)]
    rays += [ray for hp in planes for ray in ((-hp.a2, hp.a1), (hp.a2, -hp.a1))]
    return any(all(hp.a1 * r1 + hp.a2 * r2 <= 0 for hp in planes) for r1, r2 in rays)


@dataclass(frozen=True)
class RegionPolytope:
    """Bounded region: its halfplanes, nonnegativity included, and notes."""

    halfplanes: tuple[HalfPlane, ...]
    notes: tuple[str, ...] = ()

    @staticmethod
    def from_halfplanes(planes: Iterable[HalfPlane],
                        notes: Iterable[str] = ()) -> "RegionPolytope":
        planes = tuple(planes) + _NONNEG
        if _recession_ray_exists(planes):
            raise Unbounded("region has a recession ray")
        return RegionPolytope(halfplanes=planes, notes=tuple(notes))

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        """The feasible pairwise intersections of the halfplanes' lines,
        sorted lexicographically."""
        points = {_intersect(p, q) for p, q in combinations(self.halfplanes, 2)}
        points.discard(None)
        return tuple(sorted(point for point in points
                            if all(hp.holds(point) for hp in self.halfplanes)))

    def to_json_dict(self) -> dict:
        return {
            "inequalities": [[n for x in (hp.a1, hp.a2, hp.b) for n in fraction_json(x)]
                             for hp in self.halfplanes],
            "vertices": [[n for x in v for n in fraction_json(x)] for v in self.vertices],
        }


def contains(region: RegionPolytope, point) -> bool:
    point = (Fraction(point[0]), Fraction(point[1]))
    return all(hp.holds(point) for hp in region.halfplanes)


def region_equal(a: RegionPolytope, b: RegionPolytope) -> bool:
    return a.vertices == b.vertices


def max_sum(region: RegionPolytope) -> Fraction:
    return max((v[0] + v[1] for v in region.vertices), default=Fraction(0))


def symmetric_corner(region: RegionPolytope) -> Fraction:
    """Largest t with (t, t) inside the region."""
    bounds = [hp.b / (hp.a1 + hp.a2) for hp in region.halfplanes if hp.a1 + hp.a2 > 0]
    if not bounds:
        raise Unbounded("no halfplane bounds the diagonal")
    return max(min(bounds), Fraction(0))


@dataclass(frozen=True)
class BoundGapReport:
    contained: bool
    inner_max_sum: Fraction
    outer_max_sum: Fraction
    inner_symmetric: Fraction
    outer_symmetric: Fraction

    @property
    def symmetric_gap(self) -> Fraction:
        return self.outer_symmetric - self.inner_symmetric


def bound_gap(inner: RegionPolytope, outer: RegionPolytope) -> BoundGapReport:
    """Verify inner containment and report the sum/symmetric-point gaps."""
    for vertex in inner.vertices:
        if not contains(outer, vertex):
            raise InnerNotContained(f"inner vertex {vertex} escapes the outer region")
    return BoundGapReport(
        contained=True,
        inner_max_sum=max_sum(inner),
        outer_max_sum=max_sum(outer),
        inner_symmetric=symmetric_corner(inner),
        outer_symmetric=symmetric_corner(outer),
    )


def time_share(points: Sequence[tuple[tuple, Fraction]]) -> Point:
    """Exact convex combination of SDoF points."""
    weights = [Fraction(w) for _, w in points]
    if any(w < 0 for w in weights):
        raise BadWeights("weights must be nonnegative")
    if sum(weights, Fraction(0)) != 1:
        raise BadWeights(f"weights sum to {sum(weights, Fraction(0))}, expected 1")
    return tuple(sum((Fraction(pt[k]) * w for (pt, _), w in zip(points, weights)),
                     Fraction(0)) for k in (0, 1))


# -- theorem catalog -------------------------------------------------------------

_PAIR_LABELS = {StateLabel.parse(s) for s in ("PP", "PD", "DP", "DD")}


def wiretap_sdof(schedule: StateSchedule) -> Fraction:
    """Ceiling for a single confidential stream: 1 - lambda_DD / 3."""
    if schedule.arity != 2:
        raise ArityMismatch("wiretap schedules use two-state labels")
    return 1 - schedule.fraction(StateLabel.parse("DD")) / 3


def _require_pair(schedule: StateSchedule, theorem: str) -> StateSchedule:
    if schedule is None:
        raise BadParams(f"{theorem} needs a two-state schedule")
    if schedule.arity != 2:
        raise ArityMismatch(f"{theorem} needs a two-state schedule")
    if not set(schedule.fractions) <= _PAIR_LABELS:
        raise ArityMismatch(f"{theorem}: unknown pair labels")
    return schedule


def _hp(a1, a2, b) -> HalfPlane:
    return HalfPlane(Fraction(a1), Fraction(a2), Fraction(b))


def _ceiling(theorem: str, schedule: StateSchedule | None) -> RegionPolytope:
    """The degenerate interval [0, d_s] on the d1 axis."""
    ds = wiretap_sdof(_require_pair(schedule, theorem))
    return RegionPolytope.from_halfplanes([_hp(1, 0, ds), _hp(0, 1, 0)])


_HALVES = {"PDD": Fraction(1, 2), "DPD": Fraction(1, 2)}
# the fixed hybrid states (thm2-thm4) and the outer/inner bounds of the
# symmetric alternation (thm5/thm6): the three-state schedule each assumes,
# and its halfplanes (a1, a2, b)
_THREE_STATE = {
    "thm2": ({"PPD": 1}, ((1, 0, 1), (0, 1, 1), (1, 1, 2))),
    "thm3": ({"PDP": 1}, ((1, 0, 1), (1, 2, 2))),
    "thm4": ({"DDP": 1}, ((1, 2, 2), (2, 1, 2))),
    "thm5": (_HALVES, ((16, 4, 17), (4, 16, 17))),
    "thm6": (_HALVES, ((15, 14, 15), (14, 15, 15))),
}


def _three_state(theorem: str, schedule: StateSchedule | None) -> RegionPolytope:
    """A `_THREE_STATE` region; a schedule, if given, must be the one it assumes."""
    required, planes = _THREE_STATE[theorem]
    if schedule is not None:
        if schedule.arity != 3:
            raise ArityMismatch(f"{theorem} needs a three-state schedule")
        if any(schedule.fraction(StateLabel.parse(s)) != w for s, w in required.items()):
            raise BadParams(f"{theorem} assumes the schedule " + ",".join(
                f"{s}={w}" for s, w in required.items()))
    return RegionPolytope.from_halfplanes(_hp(*plane) for plane in planes)


def _broadcast(theorem: str, schedule: StateSchedule | None) -> RegionPolytope:
    """The broadcast outer (thm7) or inner (thm8) bound over a symmetric
    two-state schedule."""
    schedule = _require_pair(schedule, theorem)
    lam_pd = schedule.fraction(StateLabel.parse("PD"))
    if lam_pd != schedule.fraction(StateLabel.parse("DP")):
        raise SymmetryViolated(f"{theorem} assumes equal PD and DP fractions")
    lam_pp = schedule.fraction(StateLabel.parse("PP"))
    ds = wiretap_sdof(schedule)
    if theorem == "thm7":
        rhs = 2 + 2 * lam_pp + 2 * lam_pd
        return RegionPolytope.from_halfplanes([
            _hp(1, 0, ds), _hp(0, 1, ds),
            _hp(3, 1, rhs), _hp(1, 3, rhs),
        ])
    ds_low = ds - 6 * lam_pd / 11
    rhs = 1 + (lam_pp + lam_pd) / 2
    planes = [_hp(1, 0, ds), _hp(0, 1, ds)]
    notes: list[str] = []
    if ds_low <= 0:
        notes.append(
            "degenerate inner-bound weight: d_s_low <= 0, cross constraints dropped"
        )
    else:
        planes.append(HalfPlane(1 / ds_low, Fraction(1, 2), rhs))
        planes.append(HalfPlane(Fraction(1, 2), 1 / ds_low, rhs))
    return RegionPolytope.from_halfplanes(planes, notes=notes)


_CATALOG = {"thm1": _ceiling, **dict.fromkeys(_THREE_STATE, _three_state),
            "thm7": _broadcast, "thm8": _broadcast}
THEOREM_IDS = tuple(_CATALOG)


def region_from_theorem(theorem: str, schedule: StateSchedule | None = None
                        ) -> RegionPolytope:
    """Exact region for one catalog entry, with schedule substituted.

    thm1 (single confidential stream) accepts any two-state schedule and
    returns the degenerate interval [0, d_s] on the d1 axis; thm2-thm4 are
    fixed hybrid states; thm5/thm6 are the outer/inner bounds for the
    symmetric two-state alternation; thm7/thm8 are the broadcast outer/inner
    bounds over symmetric two-state schedules.
    """
    theorem = theorem.lower()
    if theorem not in _CATALOG:
        raise UnknownTheorem(f"unknown catalog entry {theorem!r}")
    return _CATALOG[theorem](theorem, schedule)


# -- bounded-variable systems and Fourier-Motzkin elimination ---------------------

@dataclass(frozen=True)
class LinearInequality:
    """sum coeffs[var] * var <= rhs, exact rationals."""

    coeffs: Mapping[str, Fraction]
    rhs: Fraction

    def coef(self, var: str) -> Fraction:
        return self.coeffs.get(var, Fraction(0))

    def normalized(self) -> "LinearInequality":
        """The same row scaled to coprime integer coefficients and right side."""
        values = (self.rhs, *self.coeffs.values())
        denom = math.lcm(*(v.denominator for v in values))
        scale = Fraction(denom, math.gcd(*(v.numerator * denom // v.denominator
                                           for v in values)) or 1)
        return LinearInequality(
            coeffs={v: c * scale for v, c in self.coeffs.items() if c != 0},
            rhs=self.rhs * scale,
        )


@dataclass(frozen=True)
class BoundedTermSystem:
    """Nonnegative named variables with optional upper bounds, plus linear
    inequalities tying them to the kept coordinates d1, d2."""

    variables: tuple[str, ...]                  # eliminable variables
    upper: Mapping[str, Fraction | None]        # None marks free-nonnegative
    inequalities: tuple[LinearInequality, ...]

    def all_rows(self) -> list[LinearInequality]:
        rows = list(self.inequalities)
        for var in self.variables:
            rows.append(LinearInequality({var: Fraction(-1)}, Fraction(0)))
            bound = self.upper.get(var)
            if bound is not None:
                rows.append(LinearInequality({var: Fraction(1)}, Fraction(bound)))
        return rows


def make_inequality(coeffs: Mapping[str, object], rhs) -> LinearInequality:
    return LinearInequality(
        coeffs={v: Fraction(c) for v, c in coeffs.items() if Fraction(c) != 0},
        rhs=Fraction(rhs),
    )


def _check_consistent(row: LinearInequality) -> None:
    """Reject a row with no nonzero coefficient and a negative right side."""
    if row.rhs < 0 and not any(row.coeffs.values()):
        raise BadParams("system is infeasible: 0 <= negative")


def _dedupe_rows(rows: Iterable[LinearInequality]) -> list[LinearInequality]:
    """Drop tautologies, exact duplicates and pairwise-dominated rows."""
    norm: dict[tuple, Fraction] = {}
    for row in rows:
        r = row.normalized()
        if not r.coeffs:
            _check_consistent(r)
            continue
        key = tuple(sorted(r.coeffs.items()))
        if key not in norm or r.rhs < norm[key]:
            norm[key] = r.rhs
    return [LinearInequality(dict(key), rhs) for key, rhs in sorted(norm.items())]


def fm_eliminate(system: BoundedTermSystem, var: str) -> BoundedTermSystem:
    """Project the system onto the remaining variables.

    Standard pairing of every upper constraint on `var` with every lower
    constraint; bound rows of `var` participate and are consumed.  Redundancy
    is pruned by exact pairwise dominance only, which is enough at these
    sizes.
    """
    if var not in system.variables:
        raise UnknownVariable(f"{var!r} is not an eliminable variable")
    rows = system.all_rows()
    upper = [row for row in rows if row.coef(var) > 0]
    lower = [row for row in rows if row.coef(var) < 0]
    # each (upper, lower) pair scaled so that `var` cancels; a zero
    # coefficient left in a row is dropped when `_dedupe_rows` normalizes it
    combined = [row for row in rows if row.coef(var) == 0] + [
        LinearInequality({v: up.coef(v) * -lo.coef(var) + lo.coef(v) * up.coef(var)
                          for v in {*up.coeffs, *lo.coeffs} - {var}},
                         up.rhs * -lo.coef(var) + lo.rhs * up.coef(var))
        for up in upper for lo in lower]
    remaining = tuple(v for v in system.variables if v != var)
    # nonnegativity of surviving variables is already implied by the
    # variable table; drop the redundant single-variable lower rows
    final = tuple(row for row in _dedupe_rows(combined)
                  if not (len(row.coeffs) == 1 and row.rhs >= 0 and all(
                      v in remaining and c < 0 for v, c in row.coeffs.items())))
    return BoundedTermSystem(
        variables=remaining,
        upper={v: system.upper.get(v) for v in remaining},
        inequalities=final,
    )


def project_to_coordinates(system: BoundedTermSystem) -> BoundedTermSystem:
    """Eliminate every named variable, leaving rows over d1 and d2 only."""
    for var in system.variables:
        system = fm_eliminate(system, var)
    return system


def projection_region(system: BoundedTermSystem) -> RegionPolytope:
    """Region over (d1, d2) described by the fully eliminated system."""
    return projected_region(project_to_coordinates(system))


def projected_region(projected: BoundedTermSystem) -> RegionPolytope:
    """Region over (d1, d2) described by an already eliminated system."""
    planes = []
    for row in projected.inequalities:
        extra = set(row.coeffs) - {"d1", "d2"}
        if extra:
            raise UnknownVariable(f"rows still mention {sorted(extra)}")
        if row.coef("d1") or row.coef("d2"):
            planes.append(HalfPlane(row.coef("d1"), row.coef("d2"), row.rhs))
    return RegionPolytope.from_halfplanes(planes)


def converse_alternation_system() -> BoundedTermSystem:
    """Bounded-term encoding of the converse derivation for the symmetric
    two-state alternation.

    Variables are block-normalized differential entropies: a (full first
    receiver output, bounded by 1), b and c (the two half-block adversary
    outputs, bounded by 1/2), e (half-block second receiver output, bounded
    by 1/2) and the free nonnegative slack f.  Eliminating them yields the
    outer-bound facet 4*d1 + d2 <= 17/4.
    """
    return BoundedTermSystem(
        variables=("a", "b", "c", "e", "f"),
        upper={"a": Fraction(1), "b": Fraction(1, 2), "c": Fraction(1, 2),
               "e": Fraction(1, 2), "f": None},
        inequalities=(
            make_inequality({"d1": 1, "a": -1, "b": Fraction(1, 2)}, 0),
            make_inequality({"d1": 1, "a": -1, "f": 1}, 0),
            make_inequality(
                {"d1": 1, "d2": 1, "b": -1, "c": Fraction(-3, 2), "e": -1, "f": -1}, 0),
        ),
    )


def system_to_json_dict(system: BoundedTermSystem) -> dict:
    return {
        "variables": [
            {"name": v, "upper": None if system.upper.get(v) is None else
             fraction_json(system.upper[v])}
            for v in system.variables
        ],
        "inequalities": [
            {"coeffs": {v: fraction_json(c) for v, c in sorted(row.coeffs.items())},
             "rhs": fraction_json(row.rhs)}
            for row in system.inequalities
        ],
    }


def _json_objects(payload, key: str) -> list:
    items = payload.get(key) if isinstance(payload, Mapping) else None
    if not isinstance(items, list) or not all(isinstance(e, Mapping) for e in items):
        raise BadParams(f"system {key!r} must be a list of objects, got {items!r}")
    return items


def system_from_json_dict(payload: Mapping) -> BoundedTermSystem:
    """Inverse of system_to_json_dict; malformed input, a variable declared
    twice or named d1 or d2, a coefficient of anything but a declared
    variable, d1 or d2, or a row that reads 0 <= negative raises BadParams."""
    variables = []
    upper: dict[str, Fraction | None] = {}
    for entry in _json_objects(payload, "variables"):
        name = entry.get("name")
        if not isinstance(name, str):
            raise BadParams(f"variable name must be a string, got {name!r}")
        if name in upper or name in ("d1", "d2"):
            raise BadParams(f"variable {name!r} is declared twice" if name in upper
                            else f"variable {name!r} names a kept coordinate")
        variables.append(name)
        bound = entry.get("upper")
        upper[name] = None if bound is None else _json_fraction(bound, f"upper of {name}")
    rows = []
    for row in _json_objects(payload, "inequalities"):
        coeffs = row.get("coeffs")
        if not isinstance(coeffs, Mapping):
            raise BadParams(f"inequality coeffs must be an object, got {coeffs!r}")
        undeclared = set(coeffs) - set(upper) - {"d1", "d2"}
        if undeclared:
            raise BadParams(f"inequality names undeclared variable {min(undeclared)!r}")
        rows.append(LinearInequality(
            {v: _json_fraction(c, f"coefficient of {v}") for v, c in coeffs.items()},
            _json_fraction(row.get("rhs"), "rhs")))
        _check_consistent(rows[-1])
    return BoundedTermSystem(tuple(variables), upper, tuple(rows))
