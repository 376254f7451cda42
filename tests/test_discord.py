import ast
import importlib
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdiscord import (
    DensityMatrix,
    Dqc1Instance,
    MeasurementBasis,
    ScalingFitError,
    discord,
    dqc1_discord,
    embed,
    fit_polarization_scaling,
    haar_discord_prediction,
    haar_discord_survey,
    haar_random_unitary,
    is_zero_discord,
    jones_unitary,
    mutual_information,
    named_state,
    output_state,
    pauli_realize,
    tensor,
)
from qdiscord.discord import (
    GRID,
    MAX_SERIES_TERMS,
    NMR_POLARIZATION,
    _avg_conditional_entropy,
    _bias_information,
    _even_power_traces,
    _series_discord,
    _series_table,
    _series_terms,
)
from qdiscord.linalg import PAULI_1Q, bloch_blocks, entropy_from_eigenvalues

from .conftest import random_classical_quantum_state, random_density_matrix, random_product_state
from .oracles import (
    bloch_vector,
    bounded_brent_dqc1_discord,
    dqc1_bracket,
    nelder_mead_discord,
    projective_average,
    projectors,
)

I2 = PAULI_1Q["I"]
X = PAULI_1Q["X"]
Z = PAULI_1Q["Z"]

Z_BASIS = MeasurementBasis(0.0, 0.0)

DIAGNOSTICS = {"grid", "grid_min", "refine_nfev", "converged", "polish_gain"}


def assert_diagnostics(res) -> None:
    """Both engines report the same five diagnostics, the gain exactly."""
    assert set(res.diagnostics) == DIAGNOSTICS
    assert res.diagnostics["polish_gain"] == res.diagnostics["grid_min"] - res.conditional_term


def classical_zz_state() -> DensityMatrix:
    return DensityMatrix((np.eye(4) + tensor(Z, Z)) / 4)


class TestMeasurementBasis:
    @settings(deadline=None, max_examples=50)
    @given(st.floats(-10, 10), st.floats(-10, 10))
    def test_projectors_complete_and_idempotent(self, theta, phi):
        e0, e1 = projectors(MeasurementBasis(theta, phi))
        np.testing.assert_allclose(e0 + e1, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(e0 @ e0, e0, atol=1e-12)
        np.testing.assert_allclose(e1 @ e1, e1, atol=1e-12)

    def test_canonical_ranges(self):
        b = MeasurementBasis(-0.3, 7.0)
        assert 0 <= b.theta <= np.pi
        assert 0 <= b.phi < 2 * np.pi


class TestConditionalState:
    """The unnormalised conditional B blocks (rho_B +- n.Gamma)/2."""

    @pytest.mark.parametrize("part", [(1, 1), (1, 2), (1, 3)])
    def test_matches_projector_blocks(self, part):
        # oracle: Tr_A[(E_+- (+) I) rho] with E_+- built explicitly from the basis
        rho = random_density_matrix(sum(part), seed=31)
        db = rho.dim // 2
        rho_b, gammas = bloch_blocks(rho)
        for basis in (Z_BASIS, MeasurementBasis(1.1, 2.2), MeasurementBasis(2.7, 5.9)):
            n_gamma = np.einsum("i,ibc->bc", bloch_vector(basis), gammas)
            for sign, e in zip((1, -1), projectors(basis)):
                block = np.einsum(
                    "ibic->bc", (np.kron(e, np.eye(db)) @ rho.entries).reshape(2, db, 2, db)
                )
                np.testing.assert_allclose((rho_b + sign * n_gamma) / 2, block, atol=1e-12)


class TestMutualInformation:
    def test_product_state_zero(self):
        assert abs(mutual_information(named_state("product-fixture"))) < 1e-9

    def test_bell_two_bits(self):
        assert mutual_information(named_state("bell")) == pytest.approx(2.0, abs=1e-12)

    def test_classical_zz_one_bit(self):
        # eigenvalue-enumeration oracle: spectra are (1/2,1/2,0,0), marginals I/2
        rho = classical_zz_state()
        h_ab = entropy_from_eigenvalues(np.array([0.5, 0.5, 0.0, 0.0]))
        oracle = 1.0 + 1.0 - h_ab
        assert mutual_information(rho) == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(1.0, abs=1e-12)


class TestDiscord:
    def test_product_state_zero(self):
        assert discord(named_state("product-fixture")).discord < 1e-9

    def test_random_product_states_zero(self):
        for seed in range(5):
            rho = random_product_state(2, seed)
            assert discord(rho).discord < 1e-9

    def test_bell_one_bit(self):
        res = discord(named_state("bell"))
        assert res.discord == pytest.approx(1.0, abs=1e-6)
        assert res.mutual_information == pytest.approx(2.0, abs=1e-9)
        assert res.classical_correlations == pytest.approx(1.0, abs=1e-6)

    def test_classical_zz_zero_with_z_argmin(self):
        res = discord(classical_zz_state())
        assert res.discord < 1e-9
        # argmin along +-z
        assert min(res.argmin_basis.theta, np.pi - res.argmin_basis.theta) < 1e-3

    def test_decomposition_consistent(self):
        rho = random_density_matrix(3, seed=17)
        res = discord(rho)
        gap = res.mutual_information - res.classical_correlations
        assert res.discord == pytest.approx(gap, abs=1e-9)

    def test_nonnegative_on_random_states(self):
        # 200 states across two-to-four total qubits
        sizes = [2] * 80 + [3] * 80 + [4] * 40
        for seed, n_qubits in enumerate(sizes):
            rho = random_density_matrix(n_qubits, seed=seed)
            assert discord(rho).discord >= -1e-9

    def test_local_unitary_invariance(self):
        rho = random_density_matrix(3, seed=11)
        d0 = discord(rho).discord
        for seed in range(20):
            ua = haar_random_unitary(2, 100 + seed)
            ub = haar_random_unitary(4, 200 + seed)
            u = np.kron(ua, ub)
            rotated = DensityMatrix(u @ rho.entries @ u.conj().T)
            assert abs(discord(rotated).discord - d0) < 1e-7

    def test_monotone_in_bias_for_jones(self):
        u = jones_unitary()
        values = [
            discord(output_state(Dqc1Instance(eps, u))).discord
            for eps in np.arange(0.0, 1.01, 0.1)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_grid_doubling_robust_on_fixtures(self, monkeypatch):
        module = importlib.import_module("qdiscord.discord")
        assert module.GRID == 64
        for name in ("bell", "product-fixture", "initial-dqc1", "final-dqc1"):
            rho = named_state(name)
            d64 = discord(rho).discord
            with monkeypatch.context() as patch:
                patch.setattr(module, "GRID", 128)
                d128 = discord(rho)
            assert d128.diagnostics["grid"] == 128
            assert abs(d64 - d128.discord) < 1e-8


def _werner(p: float) -> DensityMatrix:
    return DensityMatrix(p * named_state("bell").entries + (1 - p) * np.eye(4) / 4)


def _pure_product(a: np.ndarray, b: np.ndarray) -> DensityMatrix:
    v = np.kron(a, b).astype(complex)
    return DensityMatrix(np.outer(v, v.conj()))


# Named fixtures, flat objectives (every direction a minimum) and null
# outcomes, the Jones circuit outputs, and random states of one to three B qubits.
DENSE_CASES = {
    **{name: (lambda name=name: named_state(name))
       for name in ("bell", "product-fixture", "initial-dqc1", "final-dqc1")},
    "werner-0.3": lambda: _werner(0.3),
    "werner-1/3": lambda: _werner(1 / 3),
    "maximally-mixed": lambda: _werner(0.0),
    "|00>": lambda: _pure_product(np.array([1, 0]), np.array([1, 0])),
    "|+0>": lambda: _pure_product(np.array([1, 1]) / np.sqrt(2), np.array([1, 0])),
    "classical-zz": classical_zz_state,
    **{f"jones-eps{eps}": (lambda eps=eps: output_state(Dqc1Instance(eps, jones_unitary())))
       for eps in (0.1, 0.5, 1.0)},
    **{f"random-1+{nb}-seed{seed}": (lambda nb=nb, seed=seed: random_density_matrix(1 + nb, seed))
       for nb in (1, 2, 3) for seed in range(20)},
}


class TestDenseSearch:
    """discord()'s hemisphere grid and gradient polish against the 64 x 64
    theta-phi grid and Nelder-Mead search it replaced."""

    @pytest.mark.parametrize("part", [(1, 1), (1, 2), (1, 3)])
    def test_gradient_matches_central_differences(self, part):
        # along tangent directions t of the sphere: t.grad = d/ds f(normalize(n + s t))
        rng = np.random.default_rng(5)
        step = 1e-6
        for seed in range(5):
            rho_b, gammas = bloch_blocks(random_density_matrix(sum(part), seed=seed))
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            _, grad = _avg_conditional_entropy(rho_b, gammas, n[None], grad=True)
            for _ in range(2):
                t = rng.standard_normal(3)
                t -= (t @ n) * n
                t /= np.linalg.norm(t)
                ends = np.stack([n + step * t, n - step * t])
                ends /= np.linalg.norm(ends, axis=1, keepdims=True)
                f_plus, f_minus = _avg_conditional_entropy(rho_b, gammas, ends)
                assert (f_plus - f_minus) / (2 * step) == pytest.approx(t @ grad[0], abs=1e-7)

    @pytest.mark.parametrize("name", list(DENSE_CASES))
    def test_matches_nelder_mead_oracle(self, name):
        rho = DENSE_CASES[name]()
        res = discord(rho)
        oracle = nelder_mead_discord(rho)
        for key, value in oracle.items():
            assert abs(getattr(res, key) - value) <= 1e-12, key
        assert_diagnostics(res)
        assert res.diagnostics["converged"]
        assert res.diagnostics["polish_gain"] >= 0

    def test_nonconvergence_is_reported(self, monkeypatch):
        monkeypatch.setattr(importlib.import_module("qdiscord.discord"), "MAX_ITER", 1)
        diag = discord(random_density_matrix(3, seed=3)).diagnostics
        assert diag["converged"] is False
        assert diag["refine_nfev"] >= 2 and diag["polish_gain"] >= 0


class TestProjectiveAverage:
    def test_fixed_point_for_diagonal_states(self):
        rho = classical_zz_state()
        np.testing.assert_allclose(
            projective_average(rho, Z_BASIS).entries, rho.entries, atol=1e-14
        )

    def test_bell_dephases(self):
        out = projective_average(named_state("bell"), Z_BASIS)
        expected = np.diag([0.5, 0, 0, 0.5]).astype(complex)
        np.testing.assert_allclose(out.entries, expected, atol=1e-14)

    def test_erases_x_coherence(self):
        rho = DensityMatrix(tensor((I2 + X) / 2, I2 / 2))
        out = projective_average(rho, Z_BASIS)
        np.testing.assert_allclose(out.entries, np.eye(4) / 4, atol=1e-14)

    def test_idempotent(self):
        rho = random_density_matrix(3, seed=23)
        b = MeasurementBasis(0.9, 4.0)
        once = projective_average(rho, b)
        twice = projective_average(once, b)
        assert np.abs(once.entries - twice.entries).max() < 1e-12


class TestIsZeroDiscord:
    def test_product_state(self):
        verdict = is_zero_discord(named_state("product-fixture"))
        assert verdict.is_zero and verdict.basis is not None

    def test_bell_state(self):
        verdict = is_zero_discord(named_state("bell"))
        assert not verdict.is_zero
        # oracle minimum over bases is 1/sqrt(2)
        assert verdict.distance == pytest.approx(1 / np.sqrt(2), abs=1e-6)

    def test_dqc1_output_half_bias(self):
        rho = output_state(Dqc1Instance(0.5, jones_unitary()))
        verdict = is_zero_discord(rho)
        assert not verdict.is_zero
        assert verdict.distance > 1e-3

    def test_consistency_with_discord_and_invariance(self):
        for seed in range(5):
            for rho in (
                random_classical_quantum_state(2, seed),
                random_product_state(2, seed),
            ):
                verdict = is_zero_discord(rho)
                assert verdict.is_zero
                assert discord(rho).discord < 1e-6
                averaged = projective_average(rho, verdict.basis)
                assert np.linalg.norm(rho.entries - averaged.entries) < 1e-6

    @pytest.mark.parametrize("alpha", [1e-3, 1.4e-5, 1e-7, 1e-8])
    def test_verdict_holds_at_nmr_polarization(self, alpha):
        # the distance and its scale sqrt(tr G / 2) both shrink with alpha,
        # so their ratio, and the verdict, do not
        for name in ("final-dqc1", "bell"):
            assert not is_zero_discord(embed(named_state(name), alpha)).is_zero
        for n_b in (1, 2, 3):
            for seed in range(20):
                for make in (random_classical_quantum_state, random_product_state):
                    assert is_zero_discord(embed(make(n_b, seed), alpha)).is_zero, (n_b, seed)

    @pytest.mark.parametrize("part", [(1, 1), (1, 2), (1, 3)])
    def test_closed_form_distance_is_minimum_over_bases(self, part):
        # oracle: the explicit dephasing, at the returned basis and on a dense
        # theta-phi sample of bases
        thetas = np.linspace(0.0, np.pi, 25)
        phis = np.linspace(0.0, 2 * np.pi, 48, endpoint=False)
        for seed in range(2):
            rho = random_density_matrix(sum(part), seed=seed)

            def distance(basis):
                return np.linalg.norm(rho.entries - projective_average(rho, basis).entries)

            verdict = is_zero_discord(rho)
            assert verdict.distance == pytest.approx(distance(verdict.basis), abs=1e-12)
            sampled = min(distance(MeasurementBasis(t, p)) for t in thetas for p in phis)
            assert sampled >= verdict.distance - 1e-12


class TestDqc1Discord:
    """The eigenphase closed form against the dense search on the output state."""

    EPSILONS = (1e-3, 3e-3, 1e-2, 0.1, 0.5, 1.0)

    @pytest.mark.parametrize(
        "unitary",
        [jones_unitary(), haar_random_unitary(8, 1), haar_random_unitary(16, 2),
         haar_random_unitary(32, 3)],
        ids=["jones", "haar8", "haar16", "haar32"],
    )
    def test_matches_dense_discord(self, unitary):
        eigphases = np.angle(np.linalg.eigvals(unitary))
        for eps in self.EPSILONS:
            fast = dqc1_discord(eigphases, eps)
            dense = discord(output_state(Dqc1Instance(eps, unitary)))
            np.testing.assert_allclose(fast.discord, dense.discord, rtol=1e-9, atol=1e-13)
            np.testing.assert_allclose(
                fast.mutual_information, dense.mutual_information, rtol=1e-9, atol=1e-13
            )

    @pytest.mark.parametrize(
        "unitary", [np.eye(8), np.kron(np.kron(Z, I2), I2)], ids=["identity", "ZII"]
    )
    def test_zero_discord_unitaries_exactly_zero(self, unitary):
        eigphases = np.angle(np.linalg.eigvals(unitary))
        for eps in self.EPSILONS:
            assert dqc1_discord(eigphases, eps).discord == 0.0

    def test_bias_information_pure_limit(self):
        # g(+-1) = 1 with no RuntimeWarning from atanh(+-1), which would fail the test
        assert _bias_information(np.array([-1.0, 0.0, 1.0])).tolist() == [1.0, 0.0, 1.0]

    @pytest.mark.parametrize("x", [1e-8, 1e-5, 0.3, 0.99])
    def test_bias_information_takes_its_atanh(self, x):
        x = np.array([-x, x])
        assert _bias_information(x).tobytes() == _bias_information(x, np.arctanh(x)).tobytes()

    @pytest.mark.parametrize("x", [1e-8, 1e-5, 0.3, 0.99, 1 - 2**-53])
    def test_bias_information_unmasked_below_one_is_bit_identical(self, x):
        # below |x| = 1 (every bias eps < 1) the pure-limit mask changes no bit
        x = np.array([-x, 0.0, x])
        assert _bias_information(x, None, False).tobytes() == _bias_information(x).tobytes()


POLISH_UNITARIES = {
    "jones": jones_unitary(),
    "identity": np.eye(8),
    "ZII": np.kron(np.kron(Z, I2), I2),
    "haar2": haar_random_unitary(2, 0),
    "haar8": haar_random_unitary(8, 1),
    "haar16": haar_random_unitary(16, 2),
    "haar32": haar_random_unitary(32, 3),
}
POLISH_EPSILONS = (7e-6, 1.4e-5, 1e-3, 0.1, 0.5, 0.99, 1.0)


class TestNewtonPolish:
    """The phi polish of dqc1_discord against the bounded Brent search it
    replaced. eps = 1 puts pure directions, where f'' is infinite, on the
    grid of the Jones unitary at grids 1 to 3."""

    @pytest.mark.parametrize("grid", [8, 64])
    @pytest.mark.parametrize("name", list(POLISH_UNITARIES))
    def test_matches_bounded_brent_search(self, monkeypatch, name, grid):
        monkeypatch.setattr(importlib.import_module("qdiscord.discord"), "GRID", grid)
        lam = np.angle(np.linalg.eigvals(POLISH_UNITARIES[name]))
        for eps in POLISH_EPSILONS:
            res = dqc1_discord(lam, eps)
            assert_diagnostics(res)
            assert res.diagnostics["grid"] == grid
            oracle = bounded_brent_dqc1_discord(lam, eps, grid)
            np.testing.assert_allclose(res.discord, oracle, rtol=1e-9, atol=1e-13)
            assert res.diagnostics["converged"]
            if grid == 64 and eps < 1:  # Newton, not bisection (about 22 halvings)
                assert res.diagnostics["refine_nfev"] <= 10

    @pytest.mark.parametrize("grid", [1, 2, 3])
    @pytest.mark.parametrize("name", list(POLISH_UNITARIES))
    def test_coarse_grid_ends_at_a_local_minimum(self, monkeypatch, name, grid):
        # cells this wide can hold several local minima, and neither search is
        # global: each must end at one, no higher than the grid minimum
        monkeypatch.setattr(importlib.import_module("qdiscord.discord"), "GRID", grid)
        lam = np.angle(np.linalg.eigvals(POLISH_UNITARIES[name]))
        for eps in POLISH_EPSILONS:
            res = dqc1_discord(lam, eps)
            assert res.diagnostics["converged"]
            assert res.diagnostics["polish_gain"] >= 0
            phi = res.argmin_basis.phi
            here = dqc1_bracket(lam, eps, phi)[0]
            near = dqc1_bracket(lam, eps, [phi - 1e-6, phi + 1e-6])
            assert np.all(near >= here - 1e-12 * abs(here)), (eps, near - here)

    @pytest.mark.parametrize("grid", [1, 2, 3])
    def test_jones_pure_direction_on_the_grid(self, monkeypatch, grid):
        # the grid point phi = 0 makes three conditional blocks pure at eps = 1
        monkeypatch.setattr(importlib.import_module("qdiscord.discord"), "GRID", grid)
        lam = np.angle(np.linalg.eigvals(jones_unitary()))
        for eps in POLISH_EPSILONS:
            value = dqc1_discord(lam, eps).discord
            oracle = bounded_brent_dqc1_discord(lam, eps, grid)
            assert value <= oracle + 1e-13 + 1e-9 * oracle

    def test_nonconvergence_is_reported(self, monkeypatch):
        module = importlib.import_module("qdiscord.discord")
        monkeypatch.setattr(module, "MAX_ITER", 1)
        monkeypatch.setattr(module, "GRID", 1)
        lam = np.angle(np.linalg.eigvals(jones_unitary()))
        diag = dqc1_discord(lam, 1.0).diagnostics
        assert diag["converged"] is False and diag["refine_nfev"] == 1

    @pytest.mark.parametrize("eps", [1.4e-5, 0.5, 1.0])
    @pytest.mark.parametrize("name", ["jones", "haar32"])
    def test_one_bracket_evaluation_per_step(self, monkeypatch, name, eps):
        # the grid reads the bracket's value alone; derivatives come from one
        # point at the grid minimum, then one per Newton step at its trial point
        module = importlib.import_module("qdiscord.discord")
        point, value, calls, values = module._bracket_point, module._bracket_value, [], []

        def counted(*args):
            calls.append(args)
            return point(*args)

        def counted_value(*args):
            values.append(args)
            return value(*args)

        monkeypatch.setattr(module, "_bracket_point", counted)
        monkeypatch.setattr(module, "_bracket_value", counted_value)
        lam = np.angle(np.linalg.eigvals(POLISH_UNITARIES[name]))
        steps = dqc1_discord(lam, eps).diagnostics["refine_nfev"]
        assert len(calls) == steps + 1
        assert all(np.shape(args[2]) == () for args in calls)
        assert len(values) == len(calls) + 1
        assert np.shape(values[0][0]) == (module.GRID, lam.size)

    @pytest.mark.parametrize("eps", [0.5, 1.0])
    def test_grid_values_equal_the_bracket_points(self, eps):
        # the grid's value-only path and the polish's point share one f, bit
        # for bit, also at eps = 1, where both take g's pure limit
        module = importlib.import_module("qdiscord.discord")
        lam = eigphases_of(haar_random_unitary(32, 2))
        phis = np.arange(module.GRID) * (np.pi / module.GRID)
        want = module._bracket_point(lam, eps, phis)[0]
        grid_min = dqc1_discord(lam, eps).diagnostics["grid_min"]
        assert grid_min == math.log2(lam.size) + float(want.min())
        c = np.cos(lam - phis[:, None])
        got = module._bracket_value(eps * c, eps * (c.sum(axis=-1) / lam.size))
        assert got.tobytes() == want.tobytes()

    def test_converged_newton_step_ends_both_searches(self, monkeypatch):
        # Newton converges here within three steps, and a step that rounds to
        # no move must end the search rather than bisect toward a cell end
        module = importlib.import_module("qdiscord.discord")
        u, eps = haar_random_unitary(32, 2), 1.4e-5
        assert dqc1_discord(eigphases_of(u), eps).diagnostics["refine_nfev"] <= 5
        polish, calls = module._newton_polish, []

        def counted(point, vals):
            def counted_point(phi):
                calls.append(phi)
                return point(phi)

            return polish(counted_point, vals)

        monkeypatch.setattr(module, "_newton_polish", counted)
        even = _even_power_traces(u, _series_terms(eps))
        _series_discord(complex(np.trace(u)) / u.shape[0], even, eps)
        assert len(calls) <= 6


def test_oracles_use_no_private_qdiscord_names():
    # an oracle that calls the engine's own helpers would check them against themselves
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qdiscord"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def eigphases_of(u: np.ndarray) -> np.ndarray:
    return np.angle(np.linalg.eigvals(u))


def polyfit_extrapolation(
    unitary: np.ndarray, alpha: float, epsilons=(1e-2, 3e-3, 1e-3)
) -> tuple[float, float]:
    """Oracle: (exponent, c * alpha^2) from a log-log line through
    dqc1_discord at moderate biases."""
    lam = eigphases_of(unitary)
    ds = [dqc1_discord(lam, eps).discord for eps in epsilons]
    slope, intercept = np.polyfit(np.log(epsilons), np.log(ds), 1)
    return float(slope), math.exp(intercept) * alpha**2


SMALL_POLARIZATION_UNITARIES = {
    "jones": jones_unitary(),
    "identity": np.eye(8),
    "ZII": np.kron(np.kron(Z, I2), I2),
    "haar8": haar_random_unitary(8, 1),
    "haar32": haar_random_unitary(32, 3),
}


class TestSmallPolarization:
    def test_jones_endpoint(self):
        value = fit_polarization_scaling(jones_unitary(), alpha=1.4e-5).value
        assert value == pytest.approx(5.4e-11, rel=0.15)

    def test_fit_exponent_quadratic(self):
        fit = fit_polarization_scaling(jones_unitary())
        assert 1.98 < fit.exponent < 2.02

    @pytest.mark.parametrize(
        "unitary",
        list(SMALL_POLARIZATION_UNITARIES.values()),
        ids=list(SMALL_POLARIZATION_UNITARIES),
    )
    def test_closed_form_matches_direct_discord(self, unitary):
        alpha = 1.4e-5
        fit = fit_polarization_scaling(unitary, alpha=alpha)
        direct = dqc1_discord(eigphases_of(unitary), alpha).discord
        np.testing.assert_allclose(fit.value, direct, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("name", ["jones", "haar8", "haar32"])
    def test_polyfit_oracle_agrees(self, name):
        unitary = SMALL_POLARIZATION_UNITARIES[name]
        fit = fit_polarization_scaling(unitary)
        slope, value = polyfit_extrapolation(unitary, fit.alpha)
        assert abs(slope - 2.0) < 0.02
        assert value == pytest.approx(fit.value, rel=1e-4)

    @pytest.mark.parametrize("name", ["jones", "haar8", "haar32"])
    def test_optimal_angle_matches_search(self, name):
        lam = eigphases_of(SMALL_POLARIZATION_UNITARIES[name])
        tau1, tau2 = np.exp(1j * lam).mean(), np.exp(2j * lam).mean()
        phi_star = np.angle(tau2 - tau1**2) / 2
        gap = (dqc1_discord(lam, 1e-3).argmin_basis.phi - phi_star) % np.pi
        assert min(gap, np.pi - gap) < 1e-6

    def test_identity_short_circuits_to_zero(self):
        assert fit_polarization_scaling(np.eye(8), alpha=1e-5).value == 0.0

    @pytest.mark.parametrize("label", ["".join(p) for p in itertools.product("IXYZ", repeat=3)])
    def test_pauli_unitary_is_zero_discord_family(self, label):
        fit = fit_polarization_scaling(np.array(pauli_realize(label), dtype=complex), alpha=1e-5)
        assert fit.value == 0.0
        assert fit.exponent == 2.0

    @pytest.mark.parametrize("delta", [1e-3, 3e-4, 1e-4])
    def test_near_zero_coefficient_counts_as_zero(self, delta):
        # c2 is 3e-14, 2e-16 and -5e-17 here, and D(alpha) is 6e-24, 0 and 0:
        # zero within DEGENERATE_DISCORD, so the direct value is held to an
        # absolute, not a relative, tolerance
        u = np.diag(np.exp(1j * np.array([0.0, delta, 2 * delta, 0.0])))
        assert fit_polarization_scaling(u).value == 0.0

    def test_exponent_is_measured_at_alpha_and_half(self):
        lam = eigphases_of(jones_unitary())
        fit = fit_polarization_scaling(jones_unitary(), alpha=0.05)
        ratio = dqc1_discord(lam, 0.05).discord / dqc1_discord(lam, 0.025).discord
        assert fit.exponent == pytest.approx(math.log2(ratio), abs=1e-12)
        assert fit.exponent != 2.0

    def test_scaling_violation_raises(self):
        # outside the quadratic regime the measured exponent drifts past 2.02
        with pytest.raises(ScalingFitError, match="exponent"):
            fit_polarization_scaling(jones_unitary(), alpha=0.3)


# Both sides of the series limit: alpha up to about 0.6445 takes the series, above it is refused.
FIT_ALPHAS = (1e-150, 1.4e-5, 1e-3, 0.05, 0.3, 0.6, 0.7, 0.9)
SERIES_LIMIT = 0.6445
PAST_SERIES_LIMIT = (0.645, 0.7, 0.9, 1.0)
SERIES_LIMIT_MESSAGE = f"{MAX_SERIES_TERMS}-term series limit"


def remainder_within(alpha: float, n: int) -> bool:
    """Whether the remainder bound past n terms, over eps^2, is within 2^-53 DEGENERATE_DISCORD."""
    remainder = 2 * alpha ** (2 * n)
    return remainder <= 2.0**-53 * 1e-12 * (2 * n + 2) * (2 * n + 1) * math.log(2) * (
        1 - alpha**2
    )


def eigphase_c2(lam: np.ndarray) -> float:
    tau1, tau2 = np.exp(1j * lam).mean(), np.exp(2j * lam).mean()
    return (1 - abs(tau1) ** 2 - abs(tau2 - tau1**2)) / (4 * math.log(2))


# tau_1 = tau_2 = 0, so the j = 2 harmonic of the series bracket places its minimum
SERIES_UNITARIES = {
    **SMALL_POLARIZATION_UNITARIES,
    "quarter_turns": np.kron(np.diag([1, 1j, -1, -1j]), I2),
}


class TestSeriesFit:
    """The fit's D(alpha), D(alpha/2) and c2 from Tr U, Tr U^2m and the
    Taylor series of g, against dqc1_discord on the eigenphases."""

    @pytest.mark.parametrize("alpha, terms", [(1e-150, 1), (1.4e-5, 3), (0.05, 10), (0.64, 64)])
    def test_term_count(self, alpha, terms):
        # the fewest terms whose remainder bound is within the tolerance
        assert _series_terms(alpha) == terms
        assert remainder_within(alpha, terms)
        assert not remainder_within(alpha, terms - 1)

    @pytest.mark.parametrize("alpha", [0.6444551, *PAST_SERIES_LIMIT])
    def test_term_count_past_the_limit_is_refused(self, alpha):
        assert not remainder_within(alpha, MAX_SERIES_TERMS)
        with pytest.raises(ScalingFitError, match=f"alpha {alpha:g} .*{SERIES_LIMIT_MESSAGE}"):
            _series_terms(alpha)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("name", list(SMALL_POLARIZATION_UNITARIES))
    def test_even_power_traces_match_eigenphases(self, name, n):
        u = SMALL_POLARIZATION_UNITARIES[name]
        lam = eigphases_of(u)
        taus = [np.exp(2j * m * lam).mean() for m in range(1, n + 1)]
        np.testing.assert_allclose(_even_power_traces(u, n), taus, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("alpha", [a for a in FIT_ALPHAS if a < SERIES_LIMIT])
    @pytest.mark.parametrize("name", list(SERIES_UNITARIES))
    def test_series_matches_eigenphase_engine(self, name, alpha):
        u = SERIES_UNITARIES[name]
        lam = eigphases_of(u)
        even = _even_power_traces(u, _series_terms(alpha))
        tau1 = complex(np.trace(u)) / u.shape[0]
        for eps in (alpha, alpha / 2):
            oracle = dqc1_discord(lam, eps).discord
            value = _series_discord(tau1, even, eps)
            assert value == pytest.approx(oracle, rel=1e-12, abs=1e-15 * eps**2)

    @pytest.mark.parametrize("alpha", FIT_ALPHAS)
    @pytest.mark.parametrize("name", list(SMALL_POLARIZATION_UNITARIES))
    def test_direct_and_exponent_match_eigenphase_engine(self, name, alpha):
        u = SMALL_POLARIZATION_UNITARIES[name]
        if alpha > SERIES_LIMIT:  # the fit has no route there, whatever the engine gives
            with pytest.raises(ScalingFitError, match=SERIES_LIMIT_MESSAGE):
                fit_polarization_scaling(u, alpha=alpha)
            return
        lam = eigphases_of(u)
        direct, half = (dqc1_discord(lam, eps).discord for eps in (alpha, alpha / 2))
        if eigphase_c2(lam) <= 1e-12:  # the zero-discord family: exponent 2, unmeasured
            fit = fit_polarization_scaling(u, alpha=alpha)
            assert fit.coefficient == 0.0 and fit.exponent == 2.0
            assert fit.direct == pytest.approx(direct, abs=1e-15 * alpha**2)
            return
        exponent = math.log2(direct / half)
        if not abs(exponent - 2) < 0.02:
            # the fit refuses where the eigenphase engine's exponent leaves [1.98, 2.02]
            with pytest.raises(ScalingFitError, match=f"= {exponent:.4f} outside"):
                fit_polarization_scaling(u, alpha=alpha)
            return
        fit = fit_polarization_scaling(u, alpha=alpha)
        assert fit.direct == pytest.approx(direct, rel=1e-12)
        assert fit.exponent == pytest.approx(exponent, rel=1e-12)

    @pytest.mark.parametrize("name", list(SMALL_POLARIZATION_UNITARIES))
    def test_coefficient_matches_eigenphase_c2(self, name):
        u = SMALL_POLARIZATION_UNITARIES[name]
        c2 = eigphase_c2(eigphases_of(u))
        fit = fit_polarization_scaling(u, alpha=1.4e-5)
        if c2 <= 1e-12:
            assert fit.coefficient == 0.0
        else:
            assert fit.coefficient == pytest.approx(c2, rel=4e-16, abs=0)

    @pytest.mark.parametrize("name", ["jones", "haar32"])
    def test_nmr_scale_fit_takes_no_eigendecomposition(self, monkeypatch, name):
        def refused(*args, **kwargs):
            raise AssertionError("eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", refused)
        fit = fit_polarization_scaling(SMALL_POLARIZATION_UNITARIES[name], alpha=1.4e-5)
        assert 1.98 < fit.exponent < 2.02

    @pytest.mark.parametrize("alpha", PAST_SERIES_LIMIT)
    @pytest.mark.parametrize("name", ["jones", "identity", "ZII"])
    def test_fit_refused_past_the_series_limit(self, monkeypatch, name, alpha):
        # refused before any trace of a power of U or eigendecomposition, even
        # for the zero-discord family, whose discord is 0 at every alpha
        def refused(*args, **kwargs):
            raise AssertionError("U decomposed or multiplied")

        monkeypatch.setattr(np.linalg, "eigvals", refused)
        monkeypatch.setattr(importlib.import_module("qdiscord.discord"), "_even_power_traces",
                            refused)
        with pytest.raises(ScalingFitError) as err:
            fit_polarization_scaling(SMALL_POLARIZATION_UNITARIES[name], alpha=alpha)
        assert str(err.value) == (
            f"alpha {alpha:g} is past the {MAX_SERIES_TERMS}-term series limit (alpha above "
            "about 0.6445): the small-polarization fit does not extrapolate there"
        )


class TestSeriesTable:
    """The series tables are built once per N and shared by every call."""

    @pytest.mark.parametrize("n", [1, 3, 10, MAX_SERIES_TERMS])
    def test_table_is_read_only(self, n):
        table = _series_table(n)
        assert _series_table(n) is table
        assert table.harmonics.shape == (GRID, n)
        assert not table.harmonics.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table.harmonics[0, 0] = 0.0
        for column in table[:-1]:
            assert isinstance(column, tuple) and len(column) == n
        assert [len(w) for w in table.weights] == list(range(n, 0, -1))

    def test_key_includes_the_grid(self, monkeypatch):
        module = importlib.import_module("qdiscord.discord")
        u, eps = SMALL_POLARIZATION_UNITARIES["haar32"], 1.4e-5
        tau1 = complex(np.trace(u)) / u.shape[0]
        even = _even_power_traces(u, _series_terms(eps))
        first = _series_discord(tau1, even, eps)
        polish, sizes = module._newton_polish, []

        def counted(point, vals):
            sizes.append(vals.size)
            return polish(point, vals)

        # the table is cached per N alone, so a patched GRID needs a fresh one
        _series_table.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(module, "_newton_polish", counted)
            patch.setattr(module, "GRID", 8)
            coarse = _series_discord(tau1, even, eps)
            assert _series_table(_series_terms(eps)).harmonics.shape == (8, 3)
        _series_table.cache_clear()
        assert sizes == [8]
        assert coarse == pytest.approx(first, rel=1e-12)
        assert _series_discord(tau1, even, eps) == first

    @pytest.mark.parametrize("name", list(SMALL_POLARIZATION_UNITARIES))
    def test_cached_table_matches_eigenphase_engine(self, name):
        u, alpha = SMALL_POLARIZATION_UNITARIES[name], 1.4e-5
        lam = eigphases_of(u)
        even = _even_power_traces(u, _series_terms(alpha))
        tau1 = complex(np.trace(u)) / u.shape[0]
        _series_table.cache_clear()
        for eps in (alpha, alpha / 2):
            fresh = _series_discord(tau1, even, eps)
            assert _series_discord(tau1, even, eps) == fresh
            oracle = dqc1_discord(lam, eps).discord
            assert fresh == pytest.approx(oracle, rel=1e-15, abs=1e-15 * eps**2)


class TestHaarSurveyArguments:
    @pytest.mark.parametrize("n_seeds", [0, -1])
    def test_refuses_fewer_than_one_seed(self, n_seeds):
        with pytest.raises(ValueError, match=f"^n_seeds {n_seeds} must be at least 1$"):
            haar_discord_survey(n_seeds, dim=8)

    def test_refuses_a_negative_start_seed(self):
        with pytest.raises(ValueError, match="^start_seed -1 must be non-negative$"):
            haar_discord_survey(1, dim=8, start_seed=-1)

    def test_start_seed_draws_that_seed(self):
        value = fit_polarization_scaling(haar_random_unitary(8, 11)).value
        assert haar_discord_survey(1, dim=8, start_seed=11)[0] == value

    def test_alpha_only_rescales_the_values(self):
        # c2 depends on U alone, so the survey's values are c2 alpha^2
        scale = (1e-3 / NMR_POLARIZATION) ** 2
        at_nmr = haar_discord_survey(20, dim=32)
        np.testing.assert_allclose(haar_discord_survey(20, dim=32, alpha=1e-3), scale * at_nmr,
                                   rtol=1e-15, atol=0)

    def test_alpha_past_the_series_limit_is_refused(self):
        with pytest.raises(ScalingFitError, match="^alpha 0.9 is past the 64-term series limit"):
            haar_discord_survey(1, dim=8, alpha=0.9)


class TestHaarPrediction:
    def test_closed_form(self):
        assert haar_discord_prediction(32, 1.4e-5) == pytest.approx(6.78543e-11, rel=1e-6)
        assert haar_discord_prediction(32, 2.8e-5) == pytest.approx(
            4 * haar_discord_prediction(32, 1.4e-5), rel=1e-15
        )

    @pytest.mark.parametrize("dim", [8, 16])
    def test_surveys_from_dimension_8_meet_it_within_4_standard_errors(self, dim):
        values = haar_discord_survey(2000, dim=dim)
        stderr = values.std(ddof=1) / np.sqrt(values.size)
        assert abs(values.mean() - haar_discord_prediction(dim)) <= 4 * stderr

    def test_dimension_2_discord_is_identically_zero(self):
        # |tau_1|^2 + |tau_2 - tau_1^2| = 1 for every 2 x 2 unitary, so c2 = 0
        for seed in range(20):
            lam = np.linalg.eigvals(haar_random_unitary(2, seed))
            tau1, tau2 = lam.mean(), (lam**2).mean()
            assert abs(tau1) ** 2 + abs(tau2 - tau1**2) == pytest.approx(1.0, abs=1e-12)
        assert not haar_discord_survey(20, dim=2).any()
