"""Exact rational regions, catalog entries, Fourier-Motzkin elimination."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdof_lab.errors import (
    ArityMismatch,
    BadWeights,
    InnerNotContained,
    SymmetryViolated,
    Unbounded,
    UnknownTheorem,
    UnknownVariable,
)
from sdof_lab import fm_oracle
from sdof_lab.fm_oracle import (
    convex_hull,
    grid_agreement,
    hull_agreement,
    lifted_vertices,
    oracle_catalog,
    shadow_hull,
)
from sdof_lab.model import validate_schedule
from sdof_lab.regions import (
    BoundedTermSystem,
    HalfPlane,
    RegionPolytope,
    bound_gap,
    contains,
    converse_alternation_system,
    fm_eliminate,
    make_inequality,
    project_to_coordinates,
    projection_region,
    region_equal,
    region_from_theorem,
    symmetric_corner,
    system_from_json_dict,
    system_to_json_dict,
    time_share,
)

F = Fraction


def _hp(a1, a2, b):
    return HalfPlane(F(a1), F(a2), F(b))


def _pair(**lam):
    return validate_schedule({k.upper(): v for k, v in lam.items()})


class TestPolytope:
    def test_unit_square(self):
        region = RegionPolytope.from_halfplanes([_hp(1, 0, 1), _hp(0, 1, 1)])
        assert region.vertices == (
            (F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1)))

    def test_every_vertex_on_two_planes(self):
        region = region_from_theorem("thm4")
        for v in region.vertices:
            active = sum(
                1 for hp in region.halfplanes
                if hp.a1 * v[0] + hp.a2 * v[1] == hp.b)
            assert active >= 2

    def test_unbounded_rejected(self):
        with pytest.raises(Unbounded):
            RegionPolytope.from_halfplanes([_hp(1, -1, 0)])

    def test_contains(self):
        region = region_from_theorem("thm3")
        assert contains(region, (F(1), F(1, 2)))
        assert not contains(region, (F(1), F(1)))
        assert contains(region_from_theorem("thm5"), (F(15, 29), F(15, 29)))
        assert contains(region_from_theorem("thm2"), (F(1), F(1)))

    def test_json_format(self):
        payload = region_from_theorem("thm2").to_json_dict()
        assert [16, 1, 4, 1, 17, 1] not in payload["inequalities"]
        assert [1, 1, 1, 1, 2, 1] in payload["inequalities"]
        assert [1, 1, 1, 1] in payload["vertices"]


class TestCatalog:
    def test_thm1_formula(self):
        region = region_from_theorem("thm1", _pair(dd=1))
        assert max(v[0] for v in region.vertices) == F(2, 3)
        region = region_from_theorem("thm1", _pair(pp="1/4", pd="1/4",
                                                   dp="1/4", dd="1/4"))
        assert max(v[0] for v in region.vertices) == F(11, 12)

    def test_thm1_degenerate_axis(self):
        region = region_from_theorem("thm1", _pair(pd=1))
        assert region.vertices == ((F(0), F(0)), (F(1), F(0)))

    def test_thm1_arity(self):
        with pytest.raises(ArityMismatch):
            region_from_theorem("thm1", validate_schedule({"PDD": 1}))

    def test_fixed_state_vertices(self):
        assert (F(1), F(1)) in region_from_theorem("thm2").vertices
        assert (F(1), F(1, 2)) in region_from_theorem("thm3").vertices
        assert set(region_from_theorem("thm4").vertices) == {
            (F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(2, 3), F(2, 3))}

    def test_alternation_bounds(self):
        assert (F(17, 20), F(17, 20)) in region_from_theorem("thm5").vertices
        thm6 = region_from_theorem("thm6")
        for point in ((F(1), F(0)), (F(0), F(1)), (F(15, 29), F(15, 29))):
            assert point in thm6.vertices

    def test_broadcast_bounds_coincide_at_pure_states(self):
        for lam in ({"pp": 1}, {"dd": 1}):
            outer = region_from_theorem("thm7", _pair(**lam))
            inner = region_from_theorem("thm8", _pair(**lam))
            assert region_equal(outer, inner)

    def test_broadcast_alternation_gap(self):
        sched = _pair(pd="1/2", dp="1/2")
        outer = region_from_theorem("thm7", sched)
        inner = region_from_theorem("thm8", sched)
        assert symmetric_corner(outer) == F(3, 4)
        assert symmetric_corner(inner) == F(2, 3)

    def test_broadcast_symmetry_required(self):
        with pytest.raises(SymmetryViolated):
            region_from_theorem("thm7", _pair(pd="2/3", dp="1/3"))

    def test_thm8_degenerate_weight_flagged(self):
        # unreachable through validated schedules (the weight is provably
        # positive there), so drive the guard with a raw schedule object
        from sdof_lab.model import StateLabel, StateSchedule

        raw = StateSchedule(fractions={
            StateLabel.parse("PD"): F(2), StateLabel.parse("DP"): F(2)})
        region = region_from_theorem("thm8", raw)
        assert region.notes and "degenerate" in region.notes[0]
        # cross constraints dropped: the region collapses to the d_s square
        assert set(region.vertices) == {
            (F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))}

    def test_unknown_theorem(self):
        with pytest.raises(UnknownTheorem):
            region_from_theorem("thm9")

    @given(st.lists(st.integers(min_value=0, max_value=8), min_size=4, max_size=4)
           .filter(lambda ws: sum(ws) > 0))
    @settings(max_examples=40)
    def test_thm1_equals_per_state_time_share(self, weights):
        """The ceiling point is the exact blend of the per-state scheme rates."""
        total = sum(weights)
        lam = {label: F(w, total)
               for label, w in zip(("PP", "PD", "DP", "DD"), weights)}
        region = region_from_theorem("thm1", validate_schedule(lam))
        per_state = {"PP": F(1), "PD": F(1), "DP": F(1), "DD": F(2, 3)}
        blended = time_share([
            ((per_state[label], F(0)), frac) for label, frac in lam.items()])
        assert max(v[0] for v in region.vertices) == blended[0]


class TestBoundGap:
    def test_inner_outer(self):
        report = bound_gap(region_from_theorem("thm6"), region_from_theorem("thm5"))
        assert report.contained
        assert report.inner_max_sum == F(30, 29)
        assert report.outer_max_sum == F(17, 10)
        assert report.inner_symmetric == F(15, 29)
        assert report.outer_symmetric == F(17, 20)

    def test_self_gap_zero(self):
        report = bound_gap(region_from_theorem("thm4"), region_from_theorem("thm4"))
        assert report.symmetric_gap == 0

    def test_not_contained(self):
        square = RegionPolytope.from_halfplanes([_hp(1, 0, 1), _hp(0, 1, 1)])
        with pytest.raises(InnerNotContained):
            bound_gap(square, region_from_theorem("thm3"))


class TestTimeShare:
    def test_wiretap_blend(self):
        point = time_share([
            ((F(1), F(0)), F(1, 4)), ((F(1), F(0)), F(1, 4)),
            ((F(1), F(0)), F(1, 4)), ((F(2, 3), F(0)), F(1, 4)),
        ])
        assert point == (F(11, 12), F(0))

    def test_asymmetric_example(self):
        point = time_share([
            ((F(2, 3), F(2, 3)), F(1, 3)),
            ((F(1), F(0)), F(2, 3)),
        ])
        assert point[0] + point[1] == F(10, 9)

    def test_identity(self):
        assert time_share([((F(1, 2), F(1, 3)), F(1))]) == (F(1, 2), F(1, 3))

    def test_bad_weights(self):
        with pytest.raises(BadWeights):
            time_share([((F(1), F(0)), F(1, 2))])
        with pytest.raises(BadWeights):
            time_share([((F(1), F(0)), F(3, 2)), ((F(0), F(0)), F(-1, 2))])

    @given(st.lists(st.tuples(
        st.fractions(min_value=0, max_value=1),
        st.fractions(min_value=0, max_value=1),
        st.integers(min_value=1, max_value=5)), min_size=1, max_size=4))
    @settings(max_examples=50)
    def test_convexity(self, raw):
        total = sum(w for _, _, w in raw)
        points = [((d1, d2), F(w, total)) for d1, d2, w in raw]
        mix = time_share(points)
        assert min(p[0][0] for p in points) <= mix[0] <= max(p[0][0] for p in points)


class TestFmElimination:
    def test_hand_projection(self):
        system = BoundedTermSystem(
            variables=("y",),
            upper={"y": None},
            inequalities=(
                make_inequality({"d1": 1, "y": 1}, 2),
                make_inequality({"d1": 1, "y": -1}, 0),
            ),
        )
        projected = fm_eliminate(system, "y")
        rows = {tuple(sorted(r.normalized().coeffs.items())): r.normalized().rhs
                for r in projected.inequalities}
        assert rows == {(("d1", F(1)),): F(1)}

    def test_one_sided_variable_drops_out(self):
        system = BoundedTermSystem(
            variables=("y",),
            upper={"y": None},
            inequalities=(
                make_inequality({"d1": 1, "y": -1}, 0),   # only lower bounds on y
                make_inequality({"d1": 1}, 5),
            ),
        )
        projected = fm_eliminate(system, "y")
        rows = {tuple(sorted(r.normalized().coeffs.items())): r.normalized().rhs
                for r in projected.inequalities}
        assert rows == {(("d1", F(1)),): F(5)}

    def test_unknown_variable(self):
        system = converse_alternation_system()
        with pytest.raises(UnknownVariable):
            fm_eliminate(system, "zzz")

    def test_converse_projection_facet(self):
        projected = project_to_coordinates(converse_alternation_system())
        normalized = {
            tuple(sorted(r.normalized().coeffs.items())): r.normalized().rhs
            for r in projected.inequalities
        }
        assert normalized[(("d1", F(16)), ("d2", F(4)))] == F(17)

    def test_converse_projection_peak(self):
        region = projection_region(converse_alternation_system())
        assert max(4 * v[0] + v[1] for v in region.vertices) == F(17, 4)

    def test_json_roundtrip(self):
        system = converse_alternation_system()
        rebuilt = system_from_json_dict(system_to_json_dict(system))
        assert rebuilt.variables == system.variables
        assert rebuilt.upper == dict(system.upper)
        assert len(rebuilt.inequalities) == len(system.inequalities)


class TestFmOracle:
    @pytest.mark.parametrize("name", ["slack_pair", "wedge", "converse_lite"])
    def test_grid_agreement_small_systems(self, name):
        ok, msg = grid_agreement(oracle_catalog()[name])
        assert ok, msg

    @pytest.mark.parametrize("name, count", [
        ("slack_pair", 5), ("wedge", 6), ("converse_lite", 50), ("converse", 86)])
    def test_lifted_vertices_are_vertices(self, name, count):
        """Each vertex satisfies every row and is pinned by `dim` linearly
        independent active rows, checked with Fractions."""
        system = oracle_catalog()[name]
        order, rows = fm_oracle._system_rows(system)
        verts = lifted_vertices(system)
        assert len(verts) == count == len(set(verts))
        for vert in verts:
            values = [sum(c * x for c, x in zip(vec, vert)) for vec, _ in rows]
            assert all(v <= b for v, (_, b) in zip(values, rows)), vert
            active = [vec for v, (vec, b) in zip(values, rows) if v == b]
            assert _rational_rank(active) == len(order), vert

    def test_sliver_caught_exactly_but_not_by_grid(self, monkeypatch):
        """Moving one projected vertex by 1/1000 is invisible on the 1/64 grid
        and rejected by the exact cycle comparison."""
        system = oracle_catalog()["slack_pair"]
        assert shadow_hull(system) == [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(2))]
        # d1 + d2 <= 2 tilted about (0, 2): the vertex (1, 1) becomes (1, 1001/1000)
        sliver = RegionPolytope.from_halfplanes(
            [HalfPlane(F(1), F(0), F(1)), HalfPlane(F(999), F(1000), F(2000))])
        monkeypatch.setattr(fm_oracle, "projection_region", lambda _system: sliver)
        assert grid_agreement(system) == (True, "")
        ok, msg = hull_agreement(system)
        assert not ok
        assert msg == "vertex 2 of the cycle: hull (1, 1), fm (1, 1001/1000)"

    def test_hull_agreement_fails_closed(self, monkeypatch):
        empty = BoundedTermSystem(
            variables=("a",), upper={"a": F(1)},
            inequalities=(make_inequality({"d1": 1, "a": 1}, -1),))
        assert hull_agreement(empty) == (False, "lifted polytope is empty")

        def broken(_system):
            raise Unbounded("region has a recession ray")

        monkeypatch.setattr(fm_oracle, "projection_region", broken)
        ok, msg = hull_agreement(oracle_catalog()["wedge"])
        assert not ok and msg == "elimination failed: region has a recession ray"

    def test_converse_shadow_hull_matches_projection(self):
        system = converse_alternation_system()
        hull = shadow_hull(system)
        region = projection_region(system)
        assert hull == convex_hull(region.vertices)
        assert set(hull) == set(region.vertices)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_single_aux_systems(self, seed):
        import random

        gen = random.Random(seed)
        rs = lambda: F(gen.randint(-3, 3), gen.randint(1, 4))
        system = BoundedTermSystem(
            variables=("a",),
            upper={"a": F(gen.randint(1, 4), gen.randint(1, 2))},
            inequalities=(
                make_inequality({"d1": 1, "a": rs()}, F(gen.randint(0, 3))),
                make_inequality({"d1": rs(), "d2": 1, "a": rs()},
                                F(gen.randint(0, 3))),
                make_inequality({"d1": 1}, 3),
                make_inequality({"d2": 1}, 3),
            ),
        )
        ok, msg = grid_agreement(system, step=F(1, 16))
        assert ok, msg
        ok, msg = hull_agreement(system)
        assert ok, msg


def _rational_rank(rows):
    """Rank of a list of Fraction rows by plain Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank
