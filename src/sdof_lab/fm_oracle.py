"""Independent oracle for Fourier-Motzkin projections.

The projection of a bounded polytope equals the convex hull of its projected
vertices.  This module enumerates the lifted polytope's vertices exactly
(fraction-free integer elimination over all constraint subsets), hulls their
(d1, d2) shadows, and compares that polygon with the eliminator's projected
region as exact counter-clockwise vertex cycles, so agreement means the two
regions are equal.  It shares no code with the eliminator.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import lcm
from typing import Sequence

from .errors import SdofLabError
from .regions import (
    BoundedTermSystem,
    RegionPolytope,
    contains,
    make_inequality,
    projection_region,
)

Point = tuple[Fraction, Fraction]


def _system_rows(system: BoundedTermSystem) -> tuple[tuple[str, ...], list]:
    order = ("d1", "d2") + tuple(system.variables)
    rows: list[tuple[list[Fraction], Fraction]] = []
    for ineq in system.all_rows():
        rows.append(([ineq.coef(v) for v in order], ineq.rhs))
    for axis in range(2):
        vec = [Fraction(0)] * len(order)
        vec[axis] = Fraction(-1)
        rows.append((vec, Fraction(0)))
    return order, rows


def _integer_rows(rows) -> list[tuple[list[int], int]]:
    """Each row scaled by the lcm of its denominators: same halfspace, integer
    coefficients."""
    out = []
    for vec, b in rows:
        scale = lcm(b.denominator, *(c.denominator for c in vec))
        out.append(([int(c * scale) for c in vec], int(b * scale)))
    return out


def _bareiss_step(row: list[int], pivot: list[int], col: int, prev: int) -> list[int]:
    """One fraction-free elimination step: clears `row[col]`; every entry stays
    a minor of the input rows, so the division is exact."""
    p, f = pivot[col], row[col]
    return [(p * a - f * b) // prev for a, b in zip(row, pivot)]


def _basic_solutions(rows: list[tuple[list[int], int]], dim: int):
    """Yield (numerators, det), det > 0, for every nonsingular subset of `dim`
    rows, solved as equalities: the solution is numerators / det.

    Subsets are walked depth first in combination order, and each level runs
    one Bareiss step on the candidates after the chosen row, so subsets that
    share a prefix share its elimination.  A candidate that reduces to zero is
    dependent on the prefix, so no subset extending the prefix with it is
    nonsingular: it is dropped from the whole subtree.
    """
    pivots: list[tuple[int, list[int]]] = []     # (pivot column, reduced row)

    def extend(cands: list[list[int]], prev: int):
        need = dim - len(pivots)
        if need == 0:
            yield _back_substitute(pivots, dim)
            return
        for i in range(len(cands) - need + 1):
            row = cands[i]
            col = next(j for j in range(dim) if row[j])
            children = [_bareiss_step(c, row, col, prev) for c in cands[i + 1:]]
            pivots.append((col, row))
            yield from extend([c for c in children if any(c[:dim])], row[col])
            pivots.pop()

    yield from extend([vec + [b] for vec, b in rows if any(vec)], 1)


def _back_substitute(pivots: list[tuple[int, list[int]]], dim: int):
    """det * x from a Bareiss echelon form whose last pivot is +-det."""
    det = pivots[-1][1][pivots[-1][0]]
    nums = [0] * dim
    for col, row in reversed(pivots):
        acc = det * row[dim] - sum(row[j] * nums[j] for j in range(dim) if j != col)
        nums[col] = acc // row[col]
    if det < 0:
        return [-x for x in nums], -det
    return nums, det


def lifted_vertices(system: BoundedTermSystem) -> list[tuple[Fraction, ...]]:
    """All vertices of the lifted feasible polytope, exactly.

    Every nonsingular subset of `dim` rows is solved in integers; a solution
    is kept when it satisfies every row, tested as sum(c * num) <= b * det,
    and only kept solutions become Fractions.
    """
    order, rows = _system_rows(system)
    dim = len(order)
    int_rows = _integer_rows(rows)
    verts: set[tuple[Fraction, ...]] = set()
    for nums, det in _basic_solutions(int_rows, dim):
        if all(sum(c * x for c, x in zip(vec, nums)) <= b * det
               for vec, b in int_rows):
            verts.add(tuple(Fraction(x, det) for x in nums))
    return sorted(verts)


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points: Sequence[Point]) -> list[Point]:
    """Monotone-chain hull, counterclockwise, exact."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _on_segment(a: Point, b: Point, p: Point) -> bool:
    if _cross(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def in_hull(hull: Sequence[Point], p: Point) -> bool:
    if not hull:
        return False
    if len(hull) == 1:
        return p == hull[0]
    if len(hull) == 2:
        return _on_segment(hull[0], hull[1], p)
    for a, b in zip(hull, hull[1:] + [hull[0]]):
        if _cross(a, b, p) < 0:
            return False
    return True


def shadow_hull(system: BoundedTermSystem) -> list[Point]:
    return convex_hull([(v[0], v[1]) for v in lifted_vertices(system)])


def grid_agreement(system: BoundedTermSystem,
                   step: Fraction = Fraction(1, 64)) -> tuple[bool, str]:
    """Compare eliminator and hull membership over a dense rational grid.

    The grid covers the hull's bounding box plus a margin, so it samples both
    feasible points (which must satisfy the projection) and boundary-exterior
    points (which must violate it).  It misses features finer than `step`;
    `hull_agreement` is the exact check.  Nothing in the package calls this;
    the benchmark tracer (perfbench/tracing.py) binds it and `in_hull` by name.
    """
    hull = shadow_hull(system)
    if not hull:
        return False, "lifted polytope is empty"
    region: RegionPolytope = projection_region(system)
    margin = Fraction(1, 8)
    x_hi = max(p[0] for p in hull) + margin
    y_hi = max(p[1] for p in hull) + margin

    x = Fraction(0)
    while x <= x_hi:
        y = Fraction(0)
        while y <= y_hi:
            point = (x, y)
            want = in_hull(hull, point)
            got = contains(region, point)
            if want != got:
                return False, f"disagreement at {point}: hull {want}, fm {got}"
            y += step
        x += step
    return True, ""


def hull_agreement(system: BoundedTermSystem) -> tuple[bool, str]:
    """Compare the shadow hull of the lifted vertices with the eliminator's
    projected region as exact counter-clockwise vertex cycles.

    Fails closed: an empty lifted polytope or an error in the eliminator is a
    disagreement.  The message names the first vertex where the cycles differ.
    """
    hull = shadow_hull(system)
    if not hull:
        return False, "lifted polytope is empty"
    try:
        fm = convex_hull(projection_region(system).vertices)
    except SdofLabError as exc:
        return False, f"elimination failed: {exc}"
    for i, (want, got) in enumerate(zip_longest(hull, fm)):
        if want != got:
            return False, f"vertex {i} of the cycle: hull {_show(want)}, fm {_show(got)}"
    return True, ""


def _show(point: Point | None) -> str:
    return "none" if point is None else f"({point[0]}, {point[1]})"


def oracle_catalog() -> dict[str, BoundedTermSystem]:
    """Bounded-term systems exercised against the hull oracle."""
    from .regions import converse_alternation_system

    slack_pair = BoundedTermSystem(
        variables=("a",),
        upper={"a": Fraction(1)},
        inequalities=(
            make_inequality({"d1": 1, "a": -1}, 0),
            make_inequality({"d1": 1, "d2": 1, "a": -2}, 0),
        ),
    )
    wedge = BoundedTermSystem(
        variables=("y",),
        upper={"y": None},
        inequalities=(
            make_inequality({"d1": 1, "y": 1}, 2),
            make_inequality({"d1": 1, "y": -1}, 0),
            make_inequality({"d2": 1}, 1),
        ),
    )
    converse_lite = BoundedTermSystem(
        variables=("a", "b", "c", "e"),
        upper={"a": Fraction(1), "b": Fraction(1, 2), "c": Fraction(1, 2),
               "e": Fraction(1, 2)},
        inequalities=(
            make_inequality({"d1": 1, "a": -1, "b": Fraction(1, 2)}, 0),
            make_inequality(
                {"d1": 1, "d2": 1, "b": -1, "c": Fraction(-3, 2), "e": -1}, 0),
        ),
    )
    return {
        "slack_pair": slack_pair,
        "wedge": wedge,
        "converse_lite": converse_lite,
        "converse": converse_alternation_system(),
    }
