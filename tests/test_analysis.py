"""Information measures: closed forms, slopes, oracles, symmetry."""

import math
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from sdof_lab import analysis, rng
from sdof_lab.analysis import (
    DEFAULT_GRID,
    achievable_rate,
    check_output_symmetry,
    fit_slope,
    gaussian_mi,
    gaussian_mi_stacked,
    leakage_slope,
    mc_mi_oracle,
    prelogs,
    rate_slope,
)
from sdof_lab.errors import (
    BadParams, DimensionTooLarge, EmptySystem, GridTooSmall, UnknownSymbolId,
)
from sdof_lab.model import EVE, RX1, RX2, PowerBudget, Topology, sample_channel
from sdof_lab.precoding import (
    EffectiveLinearSystem, SymbolDecl, assemble_effective_system, identifiability_check,
    identifiable_symbols,
)
from sdof_lab.schemes import SCHEME_IDS, build_scheme, leak_series, rate_series, run_scheme

STEP5_GRID = tuple(2.0 ** e for e in range(20, 61, 5))
# the CLI's whole exponent range, negative exponents included
WIDE_GRID = tuple(2.0 ** e for e in (-1000, -300, -7, 0, 12, 300, 1000))


def _system(scheme_id, seed=0, **params):
    spec = build_scheme(scheme_id, **params)
    channels = sample_channel(spec.topology, spec.n_slots, seed)
    trace = run_scheme(spec, channels, PowerBudget(1e4), "noiseless", seed)
    return spec, assemble_effective_system(trace)


@cache
def _systems(scheme_id, n_seeds=20):
    """Each seed's system, assembled alone, and all of them as one stack."""
    spec = build_scheme(scheme_id)
    power = PowerBudget(DEFAULT_GRID[0])
    singles = [assemble_effective_system(run_scheme(
                   spec, sample_channel(spec.topology, spec.n_slots, seed), power,
                   "noiseless", seed))
               for seed in range(n_seeds)]
    stack = replace(singles[0], matrices={
        node: np.stack([system.matrices[node] for system in singles])
        for node in singles[0].matrices})
    return spec, singles, stack


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _scalar_system():
    return EffectiveLinearSystem(
        symbols=(SymbolDecl("s", RX1),),
        matrices={RX1: np.array([[1.0 + 0j]])},
    )


class TestGaussianMi:
    def test_nulled_adversary_is_exactly_zero(self):
        spec, system = _system("MR_PDP")
        assert gaussian_mi(system, EVE, ["v1", "v2", "w"], 2.0 ** 40).bits == 0.0

    def test_vanishing_power(self):
        spec, system = _system("MR_PPD")
        assert gaussian_mi(system, EVE, ["v", "w"], 1e-12).bits <= 1e-6

    def test_bounded_leakage_across_powers(self):
        spec, system = _system("MR_PPD")
        low = gaussian_mi(system, EVE, ["v", "w"], 2.0 ** 20).bits
        high = gaussian_mi(system, EVE, ["v", "w"], 2.0 ** 40).bits
        assert abs(high - low) <= 0.5

    def test_scalar_channel_value(self):
        system = _scalar_system()
        got = gaussian_mi(system, RX1, ["s"], 100.0).bits
        assert math.isclose(got, math.log2(101.0), rel_tol=1e-12)

    @pytest.mark.parametrize("scheme_id,node", [
        ("BC_S1_43", RX1), ("MR_DDP", RX2), ("WT_DD_23", RX1),
        ("MR_S30_29_A", RX1), ("SUB_SECURE_MULTICAST", RX2),
    ])
    def test_monotone_in_power(self, scheme_id, node):
        spec, system = _system(scheme_id)
        values = [achievable_rate(system, node, p).bits for p in DEFAULT_GRID]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_chain_consistency(self):
        spec, system = _system("WT_DD_23", seed=4)
        p = 2.0 ** 30
        all_msgs = list(system.message_sids())
        whole = gaussian_mi(system, EVE, all_msgs, p).bits
        first = gaussian_mi(system, EVE, ["v1"], p).bits
        rest = gaussian_mi(system, EVE, ["v2"], p, known=["v1"]).bits
        assert abs(whole - first - rest) <= 1e-6

    def test_empty_system_raises(self):
        system = EffectiveLinearSystem(
            symbols=(SymbolDecl("s", RX1),),
            matrices={RX1: np.zeros((0, 1), dtype=complex)},
        )
        with pytest.raises(EmptySystem):
            gaussian_mi(system, RX1, ["s"], 10.0)

    def test_zero_power_rate(self):
        spec, system = _system("BC_PP_S2")
        assert achievable_rate(system, RX1, 0.0).bits == 0.0

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, STEP5_GRID], ids=["5", "9"])
    def test_one_svd_per_matrix_for_a_grid(self, monkeypatch, grid):
        spec, system = _system("BC_S1_43")
        secret = system.message_sids(RX1)
        _, is_secret = system.split_columns(secret)
        assert is_secret.any() and not is_secret.all()
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(analysis.np.linalg, "svd", counting)
        results = gaussian_mi(system, RX1, secret, grid)
        assert len(calls) == 2
        assert [r.power for r in results] == list(grid)

    @pytest.mark.parametrize("scheme_id", SCHEME_IDS)
    def test_grid_call_is_bit_identical(self, scheme_id):
        """The grid call equals the scalar calls and a fresh SVD per power."""
        def old_logdet_bits(mat, p):
            if mat.size == 0:
                return 0.0
            sv = np.linalg.svd(mat, compute_uv=False)
            return float(np.sum(np.log2(1.0 + p * sv ** 2)))

        spec, system = _system(scheme_id)
        cases = [(node, system.message_sids(node), ())
                 for node in (RX1, RX2) if system.message_sids(node)]
        cases += [(adv, sorted(secret), spec.adversary_known.get(adv, frozenset()))
                  for adv, secret in sorted(spec.protected.items())]
        assert cases
        for node, secret, known in cases:
            kept, is_secret = system.split_columns(secret, known)
            full = system.matrices[node][:, kept]
            for grid in (DEFAULT_GRID, STEP5_GRID):
                results = gaussian_mi(system, node, secret, grid, known=known)
                assert results == [gaussian_mi(system, node, secret, p, known=known)
                                   for p in grid]
                assert [r.bits for r in results] == [
                    max(old_logdet_bits(full, p)
                        - old_logdet_bits(full[:, ~is_secret], p), 0.0)
                    for p in grid], (node, grid)


# the entry points that resolve symbol ids to columns, each asked about
# EVE's view of `secret` given `known`
_RESOLVERS = {
    "identifiability_check":
        lambda system, secret, known: identifiability_check(system, EVE, secret, known),
    "identifiable_symbols":
        lambda system, secret, known: identifiable_symbols(system, EVE, secret, known),
    "gaussian_mi":
        lambda system, secret, known: gaussian_mi(system, EVE, secret, 1e4, known=known),
    "mc_mi_oracle":
        lambda system, secret, known: mc_mi_oracle(system, EVE, secret, 1e4,
                                                   n_samples=100, known=known),
}


@pytest.mark.parametrize("entry", sorted(_RESOLVERS))
def test_every_entry_point_resolves_symbols_alike(entry):
    """A secret (or target) that is also known raises the same error,
    naming the symbol, at every entry point: none answers 0 bits for it,
    which would read as "no leakage".  An unknown symbol raises alike."""
    _, system = _system("MR_PDP")
    with pytest.raises(BadParams, match="symbol 'w' is both a target and known"):
        _RESOLVERS[entry](system, ["v1", "w"], ["w"])
    with pytest.raises(UnknownSymbolId, match="nope"):
        _RESOLVERS[entry](system, ["v1"], ["nope"])


class TestStacked:
    """The stacked analysis gives every system the bits of its own call."""

    @pytest.mark.parametrize("scheme_id", SCHEME_IDS)
    def test_stacked_calls_equal_one_item_calls(self, scheme_id):
        spec, singles, stack = _systems(scheme_id)
        for node in spec.topology.nodes():
            secret = sorted(spec.protected.get(node, singles[0].message_sids()))
            known = spec.adversary_known.get(node, frozenset())
            for grid in (DEFAULT_GRID, STEP5_GRID):
                rates = gaussian_mi_stacked(stack, node, stack.message_sids(node), grid)
                leaks = gaussian_mi_stacked(stack, node, secret, grid, known)
                assert rates.shape == leaks.shape == (len(singles), len(grid))
                for seed, system in enumerate(singles):
                    assert _bits(rates[seed]) == _bits(
                        [r.bits for r in achievable_rate(system, node, grid)]), (node, seed)
                    assert _bits(leaks[seed]) == _bits(
                        [r.bits for r in gaussian_mi(system, node, secret, grid,
                                                     known=known)]), (node, seed)

    @pytest.mark.parametrize("scheme_id", SCHEME_IDS)
    def test_scheme_series_and_prelogs_equal_one_system_calls(self, scheme_id):
        """`rate_series`, `leak_series` and `prelogs` give each system of a
        stack the bits of its own `achievable_rate`, `gaussian_mi`,
        `rate_slope` and `leakage_slope` calls, and zero prelogs on a
        one-power grid."""
        composite = scheme_id.startswith("MR_S30_29")
        spec, singles, stack = _systems(scheme_id, 1 if composite else 5)
        rates = rate_series(spec, stack, DEFAULT_GRID)
        leaks = leak_series(spec, stack, DEFAULT_GRID)
        assert list(rates) == [node for node in (RX1, RX2)
                               if node in spec.topology.nodes() and spec.message_sids(node)]
        assert list(leaks) == sorted(spec.protected)
        rate_prelogs = prelogs(rates, spec.n_slots, DEFAULT_GRID)
        leak_prelogs = prelogs(leaks, spec.n_slots, DEFAULT_GRID)

        def hexes(values):
            return [float(v).hex() for v in values]

        for i, system in enumerate(singles):
            for node, values in rates.items():
                assert hexes(values[i]) == hexes(
                    r.bits for r in achievable_rate(system, node, DEFAULT_GRID)), (node, i)
                assert float(rate_prelogs[node][i]).hex() == rate_slope(
                    system, node, spec.n_slots, DEFAULT_GRID).slope.hex(), (node, i)
            for adv, values in leaks.items():
                secret, known = sorted(spec.protected[adv]), spec.adversary_known[adv]
                assert hexes(values[i]) == hexes(
                    r.bits for r in gaussian_mi(system, adv, secret, DEFAULT_GRID,
                                                known=known)), (adv, i)
                assert float(leak_prelogs[adv][i]).hex() == leakage_slope(
                    system, adv, secret, spec.n_slots, known,
                    DEFAULT_GRID).slope.hex(), (adv, i)
        for series in (rates, leaks):
            flat = prelogs({key: values[:, :1] for key, values in series.items()},
                           spec.n_slots, DEFAULT_GRID[:1])
            assert list(flat) == list(series)
            assert all(hexes(values) == [(0.0).hex()] * len(singles)
                       for values in flat.values())

    def test_one_svd_per_column_set_for_a_stack(self, monkeypatch):
        spec, singles, stack = _systems("BC_S1_43")
        calls = []
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(analysis.np.linalg, "svd", counting)
        gaussian_mi_stacked(stack, RX1, stack.message_sids(RX1), STEP5_GRID)
        assert len(calls) == 2 and all(shape[0] == len(singles) for shape in calls)

    def test_empty_stack_raises(self):
        system = EffectiveLinearSystem(
            symbols=(SymbolDecl("s", RX1),),
            matrices={RX1: np.zeros((3, 0, 1), dtype=complex)},
        )
        with pytest.raises(EmptySystem):
            gaussian_mi_stacked(system, RX1, ["s"], DEFAULT_GRID)

    def test_clamp_checked_at_every_system_and_power(self, monkeypatch):
        """A value below the clamp tolerance at any one (system, power) of a
        stack fails the call; one within it is clamped to zero."""
        spec, singles, stack = _systems("MR_PDP")
        secret = sorted(spec.protected[EVE])
        known = spec.adversary_known.get(EVE, frozenset())
        assert gaussian_mi_stacked(stack, EVE, secret, DEFAULT_GRID, known).max() < 1e-11
        kept, _ = stack.split_columns(secret, known)
        logdet = analysis._logdet_bits
        for at, nudge in [((0, 0), 1e-8), ((7, 2), 1e-8), ((19, 4), 1e-8), ((7, 2), 5e-10)]:
            def nudged(mats, powers):
                out = logdet(mats, powers)
                if mats.shape[-1] < len(kept):        # the nuisance columns
                    out[at] += nudge
                return out

            monkeypatch.setattr(analysis, "_logdet_bits", nudged)
            if nudge > 1e-9:
                with pytest.raises(AssertionError, match="below clamp tolerance"):
                    gaussian_mi_stacked(stack, EVE, secret, DEFAULT_GRID, known)
            else:
                assert gaussian_mi_stacked(stack, EVE, secret, DEFAULT_GRID, known)[at] == 0.0


class TestSlopes:
    def test_analytic_single_stream(self):
        est = fit_slope([math.log2(1 + p) for p in DEFAULT_GRID], 1, DEFAULT_GRID)
        assert 0.999 <= est.slope <= 1.001

    def test_grid_too_small(self):
        with pytest.raises(GridTooSmall):
            fit_slope([8.0], 1, [8.0])
        with pytest.raises(GridTooSmall):
            fit_slope([8.0, 4.0], 1, [8.0, 4.0])

    @pytest.mark.parametrize("n_series", [1, 2, 3, 5, 8, 37])
    def test_2d_fit_equals_per_row_fits(self, n_series):
        """One polyfit over a stack of series gives each series the slope
        of its own fit, bit for bit."""
        gen = np.random.default_rng(n_series)
        for grid in (DEFAULT_GRID, STEP5_GRID):
            xs = np.log2(grid)
            values = gen.normal(size=(n_series, len(grid))) * 3 + gen.uniform(0, 6, (n_series, 1)) * xs
            est = fit_slope(values, 7, grid)
            assert est.slope.shape == (n_series,)
            for row, slope in zip(values, est.slope):
                alone = fit_slope(row.tolist(), 7, grid)
                assert _bits(alone.slope) == _bits(slope)

    @pytest.mark.parametrize("scheme_id", ["BC_S2_43", "BC_DD_S1", "MR_S30_29_A"])
    @pytest.mark.parametrize("grid", [DEFAULT_GRID, STEP5_GRID], ids=["5", "9"])
    def test_2d_fit_of_simulated_values_equals_per_row_fits(self, scheme_id, grid):
        """Also where one np.polyfit over a 2-D y would not be exact: on the
        9-power grid its several-right-hand-side solve differs from the lone
        solves in the last bits for some of these series."""
        spec, singles, stack = _systems(scheme_id)
        series = np.concatenate(
            [gaussian_mi_stacked(stack, node, stack.message_sids(node), grid)
             for node in (RX1, RX2)]
            + [gaussian_mi_stacked(stack, adv, sorted(secret), grid,
                                   spec.adversary_known.get(adv, frozenset()))
               for adv, secret in sorted(spec.protected.items())])
        est = fit_slope(series, spec.n_slots, grid)
        for row, slope in zip(series, est.slope):
            alone = fit_slope(row.tolist(), spec.n_slots, grid)
            assert _bits(alone.slope) == _bits(slope)

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, STEP5_GRID, WIDE_GRID],
                             ids=["5", "9", "wide"])
    def test_slopes_are_polyfits(self, grid):
        """Every slope, of a lone series and of each row of a stack, is
        np.polyfit's slope of that series over log2(P), bit for bit."""
        gen = np.random.default_rng(len(grid))
        xs = np.log2(grid)
        random = gen.normal(size=(6, len(grid))) * 3 + gen.uniform(0, 6, (6, 1)) * xs
        simulated = []
        for scheme_id in ("BC_S2_43", "MR_S30_29_A"):
            spec, _, stack = _systems(scheme_id)
            simulated += [gaussian_mi_stacked(stack, node, stack.message_sids(node), grid)
                          for node in (RX1, RX2)]
            simulated += [gaussian_mi_stacked(stack, adv, sorted(secret), grid,
                                              spec.adversary_known.get(adv, frozenset()))
                          for adv, secret in sorted(spec.protected.items())]
        for series, slots in ((random, 7), (np.concatenate(simulated), 29)):
            want = [np.polyfit(xs, row / slots, 1)[0].hex() for row in series]
            assert [slope.hex() for slope in fit_slope(series, slots, grid).slope.tolist()] \
                == want
            assert [fit_slope(row.tolist(), slots, grid).slope.hex() for row in series] \
                == want

    def test_degenerate_fit_warns_as_polyfit_does(self):
        # two powers one ulp apart share their log2, so the fit has rank one
        grid = (2.0 ** 60, np.nextafter(2.0 ** 60, math.inf))
        with pytest.warns(np.exceptions.RankWarning):
            np.polyfit(np.log2(grid), [1.0, 2.0], 1)
        with pytest.warns(np.exceptions.RankWarning):
            fit_slope([1.0, 2.0], 1, grid)

    def test_rate_slopes_match_nominal(self):
        spec, system = _system("BC_PP_S2")
        for node in (RX1, RX2):
            assert abs(rate_slope(system, node, 1).slope - 1.0) <= 0.05

    def test_bc43_block_rate(self):
        spec, system = _system("BC_S1_43")
        est = fit_slope(
            [achievable_rate(system, RX1, p).bits for p in DEFAULT_GRID], 1, DEFAULT_GRID)
        assert abs(est.slope - 4.0) <= 0.05

    def test_leakage_slope_bounded(self):
        spec, system = _system("MR_PPD")
        est = leakage_slope(system, EVE, ["v", "w"], 1)
        assert abs(est.slope) <= 0.05

    def test_composite_rate_slope(self):
        spec, system = _system("MR_S30_29_A", seed=2)
        est = rate_slope(system, RX1, spec.n_slots)
        assert abs(est.slope - 15.0 / 29.0) <= 0.05

    def test_every_scheme_tracks_its_accounting(self):
        """Measured prelog matches the exact bookkeeping for the whole library."""
        from sdof_lab.schemes import SCHEME_IDS, accounting

        for scheme_id in SCHEME_IDS:
            spec, system = _system(scheme_id, seed=3)
            nominal = accounting(spec).nominal_sdof
            for node in (RX1, RX2):
                if not system.message_sids(node):
                    continue
                est = rate_slope(system, node, spec.n_slots)
                assert abs(est.slope - float(nominal[node])) <= 0.05, \
                    (scheme_id, node, est.slope)


MC_PINNED = [
    ("0x1.713818f7b2cb5p+3", "0x1.2961d09e0c0a0p-8"),
    ("0x1.be56bab21376bp-1", "0x1.938e73fe42f78p-9"),
    ("0x1.4a03e4e02a834p+3", "0x1.2b1ee44309090p-8"),
    ("0x1.1db8079ca9582p+1", "0x1.09599b0e8476ap-8"),
    ("0x1.7e1cc2c895e5fp+4", "0x1.a6673ffc21bcdp-8"),
    ("0x1.cfda3a9781473p-1", "0x1.9878f756523f0p-9"),
    ("0x1.9fd555823576bp+4", "0x1.a716806d05bd4p-8"),
    ("-0x1.7fa7a47a55e5fp-54", "0x1.439b24ff04b7ap-53"),
    ("0x1.15f4162c9ce87p+1", "0x1.0713e8e836dc5p-8"),
    ("0x1.8fb045da6ef74p-58", "0x1.4a448937b5185p-55"),
]


def _whole_array_oracle(system, node, secret, p, n_samples, seed, known):
    """(bits, std_error) of the Monte-Carlo oracle with every sample's
    array formed whole, as one pass over all rows."""
    r_keep, secret_mask = analysis._kept_columns(system, node, secret, known)
    d = r_keep.shape[0]
    gen = rng.stream(seed, "mc-mi", node)
    s = rng.complex_normal(gen, (n_samples, r_keep.shape[1]))
    noise = rng.complex_normal(gen, (n_samples, d))
    y = math.sqrt(p) * (s @ r_keep.T) + noise
    c_full = np.eye(d) + p * (r_keep @ r_keep.conj().T)
    r_nuis = r_keep[:, ~secret_mask]
    c_cond = np.eye(d) + p * (r_nuis @ r_nuis.conj().T)
    mean = math.sqrt(p) * (s[:, secret_mask] @ r_keep[:, secret_mask].T)

    def quad(values, cov):
        w = values @ np.linalg.inv(np.linalg.cholesky(cov)).T
        return np.sum(np.square(w.real) + np.square(w.imag), axis=1)

    ln2 = math.log(2.0)
    per_sample = (
        (quad(y, c_full) - quad(y - mean, c_cond)) / ln2
        + (np.linalg.slogdet(c_full)[1] - np.linalg.slogdet(c_cond)[1]) / ln2
    )
    return (float(np.mean(per_sample)),
            float(np.std(per_sample, ddof=1) / math.sqrt(n_samples)))


@pytest.fixture(scope="module")
def mc_cases():
    from sdof_lab import acceptance

    return acceptance._mc_cases()


class TestMcOracle:
    def test_scalar_channel(self):
        system = _scalar_system()
        est = mc_mi_oracle(system, RX1, ["s"], 100.0, n_samples=200_000, seed=3)
        assert abs(est.bits - math.log2(101.0)) <= 0.02 * math.log2(101.0)
        assert est.std_error is not None

    def test_agreement_with_closed_form(self):
        spec, system = _system("MR_PPD", seed=8)
        exact = gaussian_mi(system, EVE, ["v", "w"], 1e4).bits
        est = mc_mi_oracle(system, EVE, ["v", "w"], 1e4, n_samples=200_000, seed=8)
        assert abs(est.bits - exact) <= max(0.02 * exact, 0.05)

    def test_zero_block(self):
        spec, system = _system("MR_PDP", seed=1)
        est = mc_mi_oracle(system, EVE, ["v1", "v2", "w"], 1e4,
                           n_samples=100_000, seed=1)
        assert abs(est.bits) <= max(3 * est.std_error, 1e-9)

    def test_dimension_cap(self):
        spec, system = _system("MR_S30_29_A")
        with pytest.raises(DimensionTooLarge):
            mc_mi_oracle(system, RX1, ["x0.0"], 1e4, n_samples=1000)

    def test_whitened_forms_match_solved_forms(self, monkeypatch):
        """On criterion 9's cases, every quadratic form y^H C^-1 y the oracle
        takes by whitening matches a per-sample `solve` within 1e-12 of the
        case's largest form (both carry cond(C) * eps of error, up to 1.2e-12
        of a sample's own form where that form is small).  The forms come in
        row chunks; every row of both forms of all 10 cases is checked."""
        from sdof_lab import acceptance

        whitener, quad = analysis._whitener, analysis._quad
        # id(whitener) -> that form's covariance and running counts; holding
        # the whitener keeps its id unique
        forms = {}

        def recorded(cov):
            got = whitener(cov)
            forms[id(got)] = {"cov": cov, "whitener": got, "rows": 0,
                              "error": 0.0, "largest": 0.0}
            return got

        def checked(values, factor):
            got = quad(values, factor)
            form = forms[id(factor)]
            solved = np.linalg.solve(form["cov"], values.T).T
            want = np.einsum("ij,ij->i", values.conj(), solved).real
            form["rows"] += len(values)
            form["error"] = max(form["error"], np.max(np.abs(got - want)))
            form["largest"] = max(form["largest"], np.max(np.abs(want)))
            return got

        monkeypatch.setattr(analysis, "_whitener", recorded)
        monkeypatch.setattr(analysis, "_quad", checked)
        assert acceptance.criterion_9().status == "PASS"
        assert [form["rows"] for form in forms.values()] == [200_000] * 20
        errors = [form["error"] / form["largest"] for form in forms.values()]
        assert max(errors) <= 1e-12, errors

    def test_pinned_bits(self, mc_cases):
        """`float.hex` of (bits, std_error) of criterion 9's 10 cases, as
        the whole-array oracle gave them before it ran in row chunks."""
        from sdof_lab import acceptance

        got = [tuple(value.hex() for value in (est.bits, est.std_error))
               for est in (mc_mi_oracle(system, node, secret, acceptance._MC_POWER,
                                        n_samples=acceptance._MC_SAMPLES,
                                        seed=seed, known=known)
                           for _, system, node, secret, known, seed in mc_cases)]
        assert got == MC_PINNED

    @pytest.mark.parametrize("n_samples", [
        analysis.MC_CHUNK_ROWS // 4, analysis.MC_CHUNK_ROWS, 3 * analysis.MC_CHUNK_ROWS + 77])
    def test_chunks_equal_whole_array_reference(self, mc_cases, n_samples):
        """Below one chunk, exactly one chunk, and a count that is not a
        multiple of the chunk, the oracle's bits are the whole-array
        formula's for every case of criterion 9."""
        for label, system, node, secret, known, seed in mc_cases:
            want = _whole_array_oracle(system, node, secret, 1e4, n_samples, seed, known)
            est = mc_mi_oracle(system, node, secret, 1e4, n_samples=n_samples,
                               seed=seed, known=known)
            assert (est.bits, est.std_error) == want, label

    @pytest.mark.parametrize("n_samples", [200_000, 400_000])
    def test_peak_memory_is_the_per_sample_arrays(self, monkeypatch, mc_cases, n_samples):
        """On the largest case (BC_S1_43/rx2) no variate block is held
        whole: the traced peak stays within 24 bytes per sample (the
        per-sample terms and the two temporaries of their standard
        deviation) plus 4 MiB for the chunk buffers, at 200k and 400k
        samples.  No memory mapping, which tracemalloc would not see, may
        hold them instead."""
        import mmap
        import tracemalloc

        from sdof_lab import acceptance

        def no_mapping(*args, **kwargs):
            raise AssertionError("the oracle maps memory that tracemalloc does not see")

        monkeypatch.setattr(mmap, "mmap", no_mapping)
        (_, system, node, secret, known, seed), = [
            case for case in mc_cases if case[0] == "BC_S1_43/rx2"]
        tracemalloc.start()
        try:
            mc_mi_oracle(system, node, secret, acceptance._MC_POWER,
                         n_samples=n_samples, seed=seed, known=known)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 24 * n_samples + 4 * 2**20, peak

    @pytest.mark.parametrize("n_rows, widths", [
        (analysis.MC_CHUNK_ROWS // 4, (2, 2, 3, 3)),
        (2 * analysis.MC_CHUNK_ROWS + 77, (4, 4, 1, 1)),
        (3 * analysis.MC_CHUNK_ROWS + 5, (0, 0, 2, 2)),
    ], ids=["below-one-chunk", "not-divided", "k-0"])
    def test_block_streams_draw_the_blocks_of_one_whole_draw(self, n_rows, widths):
        """Each positioned generator, drawn in `MC_CHUNK_ROWS`-row chunks,
        gives bit for bit its block of one whole draw of the substream."""
        whole = rng.stream(5, "mc-mi", RX1).standard_normal(n_rows * sum(widths))
        gens = analysis._block_streams(rng.stream(5, "mc-mi", RX1), n_rows, widths)
        assert len(gens) == len(widths)
        offset = 0
        for gen, width in zip(gens, widths):
            chunks = [gen.standard_normal((min(analysis.MC_CHUNK_ROWS, n_rows - start), width))
                      for start in range(0, n_rows, analysis.MC_CHUNK_ROWS)]
            block = whole[offset:offset + n_rows * width].reshape(n_rows, width)
            assert np.array_equal(np.concatenate(chunks), block)
            offset += n_rows * width

    def test_every_column_known(self):
        """With every symbol known no column is kept: the variates of `s`
        are empty arrays and the estimate is exactly 0."""
        spec, system = _system("MR_PPD")
        est = mc_mi_oracle(system, EVE, [], 1e4, n_samples=1000,
                           known=[sym.sid for sym in spec.symbols])
        assert (est.bits, est.std_error) == (0.0, 0.0)

    @pytest.mark.parametrize("chunk_rows, labels", [
        (1, ("WT_PP/rx1", "BC_PP_S2/rx1")), (1000, None)], ids=["chunk-1", "chunk-1000"])
    def test_bits_do_not_depend_on_the_chunk_size(self, monkeypatch, mc_cases,
                                                  chunk_rows, labels):
        """With chunks of 1 row (the two 1x1 cases) and of 1000 rows (every
        case), over 2001 samples, which 1000 does not divide, the oracle's
        bits are the whole-array formula's."""
        monkeypatch.setattr(analysis, "MC_CHUNK_ROWS", chunk_rows)
        n_samples = 2001
        cases = [case for case in mc_cases if labels is None or case[0] in labels]
        assert len(cases) == len(labels or mc_cases)
        for label, system, node, secret, known, seed in cases:
            want = _whole_array_oracle(system, node, secret, 1e4, n_samples, seed, known)
            est = mc_mi_oracle(system, node, secret, 1e4, n_samples=n_samples,
                               seed=seed, known=known)
            assert (est.bits, est.std_error) == want, label

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_too_few_samples_raise(self, n_samples):
        with pytest.raises(ValueError):
            mc_mi_oracle(_scalar_system(), RX1, ["s"], 100.0, n_samples=n_samples)

    @pytest.mark.parametrize("estimate", [math.nan, math.inf])
    def test_criterion_9_fails_on_a_non_finite_estimate(self, monkeypatch, estimate):
        from sdof_lab import acceptance

        monkeypatch.setattr(analysis, "mc_mi_oracle", lambda *args, **kwargs: analysis.MiResult(
            bits=estimate, power=1e4, std_error=estimate))
        result = acceptance.criterion_9()
        assert result.status == "FAIL"
        assert len(result.detail.split("; ")) == 10

    @pytest.mark.parametrize("shift", [0.1, -0.1])
    def test_criterion_9_catches_a_shifted_closed_form(self, monkeypatch, shift):
        from sdof_lab import acceptance

        exact = analysis.gaussian_mi
        monkeypatch.setattr(analysis, "gaussian_mi", lambda *args, **kwargs: replace(
            exact(*args, **kwargs), bits=exact(*args, **kwargs).bits + shift))
        result = acceptance.criterion_9()
        assert result.status == "FAIL"
        # every case whose tolerance is the 0.05-bit floor
        failed = [case.split(":")[0] for case in result.detail.split("; ")]
        assert failed == ["WT_PD/eve", "WT_DD_23/eve", "MR_PPD/eve", "MR_DDP/eve",
                          "BC_S1_43/rx2", "BC_PP_S2/rx1"]


class TestOutputSymmetry:
    def test_independent_twin_within_three_se(self):
        rep = check_output_symmetry(Topology.wiretap(), n_trials=1000, seed=0)
        assert rep.abs_gap <= 3 * rep.std_error

    def test_zero_input_exact(self):
        rep = check_output_symmetry(Topology.wiretap(), n_trials=1000, seed=0,
                                    zero_input=True)
        noise_entropy = math.log2(math.pi * math.e)
        assert abs(rep.entropy_actual - noise_entropy) <= 1e-9
        assert rep.abs_gap <= 1e-9

    def test_twin_equals_actual_exact(self):
        rep = check_output_symmetry(Topology.wiretap(), n_trials=1000, seed=7,
                                    twin_equals_actual=True)
        assert rep.abs_gap <= 1e-9

    def test_gap_definition(self):
        rep = check_output_symmetry(Topology.broadcast(), n_trials=1000, seed=5)
        assert rep.abs_gap == abs(rep.entropy_actual - rep.entropy_twin)
