"""Exactly solvable baselines: spectra, wavefunctions, oracle agreement."""

import math
import random

import numpy as np
import pytest

from pdmtpt.numeric_verify import (
    count_nodes,
    inner_product,
    interior_samples,
    solve_spectrum,
)
from pdmtpt.tpt_exact import (
    ExactOneParam,
    ExactTwoParam,
    energy_one_param,
    energy_two_param,
)
from references import (
    potential_one_param,
    potential_two_param,
    stencil_residual,
    superpotentials_one_param,
    superpotentials_two_param,
    wavefn_one_param,
    wavefn_two_param,
)


def test_constant_mass_spectrum_one_param():
    p = ExactOneParam(2.0, 0.0)
    assert [energy_one_param(p, n) for n in range(3)] == pytest.approx([4.0, 9.0, 16.0])


def test_constant_mass_spectrum_two_param():
    p = ExactTwoParam(2.0, 2.0, 0.0)
    assert [energy_two_param(p, n) for n in range(3)] == pytest.approx(
        [16.0, 36.0, 64.0]
    )


def test_deformed_ground_energy_value():
    p = ExactOneParam(2.0, -0.5)
    assert energy_one_param(p, 0) == pytest.approx(3.686141, abs=5e-7)
    assert energy_one_param(p, 0) == pytest.approx(p.lam * (p.lam - p.alpha), rel=1e-15)


def test_lambda_defining_relations():
    rng = np.random.default_rng(7)
    for _ in range(25):
        big_a = 1.0 + 4.0 * rng.uniform()
        alpha = rng.uniform(-0.9, 3.0)
        p = ExactOneParam(big_a, alpha)
        assert p.lam * (p.lam - 1.0 - alpha) == pytest.approx(
            big_a * (big_a - 1.0), rel=1e-12
        )
        assert energy_one_param(p, 0) == pytest.approx(
            p.lam * (p.lam - alpha), rel=1e-12
        )
    for _ in range(25):
        big_a = 1.0 + 4.0 * rng.uniform()
        big_b = 1.0 + 4.0 * rng.uniform()
        alpha = rng.uniform(-0.9, 0.9)
        q = ExactTwoParam(big_a, big_b, alpha)
        assert q.lam * (q.lam - 1.0 + alpha) == pytest.approx(
            big_a * (big_a - 1.0), rel=1e-12
        )
        assert q.mu * (q.mu - 1.0 - alpha) == pytest.approx(
            big_b * (big_b - 1.0), rel=1e-12
        )
        e0 = (q.lam + q.mu) ** 2 + 2.0 * alpha * (q.lam - q.mu)
        assert energy_two_param(q, 0) == pytest.approx(e0, rel=1e-12)


def test_reflection_swaps_wells():
    p = ExactTwoParam(2.4, 1.7, 0.55)
    q = ExactTwoParam(1.7, 2.4, -0.55)
    for n in range(6):
        assert energy_two_param(p, n) == pytest.approx(
            energy_two_param(q, n), rel=1e-12
        )


def test_parameter_validation():
    with pytest.raises(ValueError):
        ExactOneParam(1.0, 0.3)
    with pytest.raises(ValueError):
        ExactOneParam(0.5, 0.3)
    with pytest.raises(ValueError):
        ExactOneParam(2.0, -1.0)
    with pytest.raises(ValueError):
        ExactTwoParam(2.0, 1.0, 0.3)
    with pytest.raises(ValueError):
        ExactTwoParam(0.9, 2.0, 0.3)
    with pytest.raises(ValueError):
        ExactTwoParam(2.0, 2.0, 1.0)


def test_wavefn_one_param_shape():
    p = ExactOneParam(2.0, -0.5)
    assert wavefn_one_param(p, 0, 0.0) == pytest.approx(1.0)
    assert wavefn_one_param(p, 1, 0.0) == 0.0
    xs = np.linspace(-math.pi / 2 + 1e-4, math.pi / 2 - 1e-4, 2001)
    assert count_nodes(wavefn_one_param(p, 2, xs)) == 2
    with pytest.raises(ValueError):
        wavefn_one_param(p, 0, math.pi / 2)


def test_wavefn_two_param_shape():
    p = ExactTwoParam(2.0, 2.0, 0.5)
    xs = np.linspace(1e-4, math.pi / 2 - 1e-4, 2001)
    assert np.all(wavefn_two_param(p, 0, xs) > 0.0)
    assert count_nodes(wavefn_two_param(p, 1, xs)) == 1
    # polynomial argument stays inside the orthogonality interval
    c2 = np.cos(2.0 * xs)
    t = (c2 + p.alpha) / (1.0 + p.alpha * c2)
    assert np.all(np.abs(t) <= 1.0 + 1e-12)


def test_superpotential_split_consistency():
    p = ExactOneParam(2.7, 0.3)
    w, w_prime = superpotentials_one_param(p)
    assert w.lam == (p.lam,)
    assert w_prime.lam == (p.lam_prime,)
    q = ExactTwoParam(2.0, 3.0, -0.4)
    w2, w2p = superpotentials_two_param(q)
    assert w2.lam == (q.lam,) and w2.mu == (q.mu,)
    assert w2p.lam == (q.lam_prime,) and w2p.mu == (q.mu_prime,)


@pytest.mark.parametrize("big_a", [2.0, 2.7])
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.3])
def test_oracle_agreement_one_param(big_a, alpha):
    p = ExactOneParam(big_a, alpha)
    spectrum = solve_spectrum(
        lambda x: potential_one_param(p, x), p.deforming, n_levels=5, grid_size=4000
    )
    closed = np.array([energy_one_param(p, n) for n in range(5)])
    np.testing.assert_allclose(spectrum.eigenvalues, closed, rtol=1e-6)


def test_oracle_agreement_two_param():
    p = ExactTwoParam(2.0, 2.5, 0.4)
    spectrum = solve_spectrum(
        lambda x: potential_two_param(p, x), p.deforming, n_levels=5, grid_size=4000
    )
    closed = np.array([energy_two_param(p, n) for n in range(5)])
    np.testing.assert_allclose(spectrum.eigenvalues, closed, rtol=1e-6)


def test_oracle_error_bar_bounds_its_true_error_on_the_baselines():
    """The calibration set: one random.Random(11) stream draws 40 wells per
    family, `one` first: A (and B) from [1.0001, 1.5] for the first 8, at
    the weak power-law wall, and from [1.5, 8] for the rest, then alpha from
    [-0.8, 0.8].  Four levels each at N = 1000 and N = 4000 give 640 levels,
    whose closed-form energies are exact.

    Observed: no under-claim; the claimed error is 3.4 to 5.4e7 times the
    true one (median 2.1e4), and the worst true error is 1.3e-5 relative
    (level 3 of a two-parameter well with A, B about 1.04, at N = 1000).
    """
    rng = random.Random(11)
    under = []
    for family in ("one", "two"):
        for i in range(40):
            box = (1.0001, 1.5) if i < 8 else (1.5, 8.0)
            if family == "one":
                p = ExactOneParam(rng.uniform(*box), rng.uniform(-0.8, 0.8))
                potential, energy = potential_one_param, energy_one_param
            else:
                p = ExactTwoParam(rng.uniform(*box), rng.uniform(*box), rng.uniform(-0.8, 0.8))
                potential, energy = potential_two_param, energy_two_param
            for grid_size in (1000, 4000):
                spectrum = solve_spectrum(lambda x: potential(p, x), p.deforming, 4, grid_size)
                under += [
                    (p, grid_size, k)
                    for k in range(4)
                    if spectrum.errors[k] < abs(spectrum.eigenvalues[k] - energy(p, k))
                ]
    assert under == []


@pytest.mark.parametrize("n", range(4))
def test_residual_one_param(n):
    p = ExactOneParam(2.0, -0.5)
    xs = interior_samples(p.deforming, 41)
    r = stencil_residual(
        lambda x: wavefn_one_param(p, n, x),
        lambda x: potential_one_param(p, x),
        p.deforming,
        energy_one_param(p, n),
        xs,
    )
    assert r < 1e-7


@pytest.mark.parametrize("n", range(4))
def test_residual_two_param(n):
    p = ExactTwoParam(2.0, 2.0, 0.5)
    xs = interior_samples(p.deforming, 41)
    r = stencil_residual(
        lambda x: wavefn_two_param(p, n, x),
        lambda x: potential_two_param(p, x),
        p.deforming,
        energy_two_param(p, n),
        xs,
    )
    assert r < 1e-7


def test_orthogonality_one_param():
    p = ExactOneParam(2.0, -0.5)
    df = p.deforming
    fns = [lambda x, n=n: wavefn_one_param(p, n, x) for n in range(4)]
    norms = [math.sqrt(inner_product(fn, fn, df)) for fn in fns]
    for i in range(4):
        for j in range(i + 1, 4):
            overlap = inner_product(fns[i], fns[j], df) / (norms[i] * norms[j])
            assert abs(overlap) < 1e-8


def test_orthogonality_two_param():
    p = ExactTwoParam(2.0, 2.5, 0.4)
    df = p.deforming
    fns = [lambda x, n=n: wavefn_two_param(p, n, x) for n in range(4)]
    norms = [math.sqrt(inner_product(fn, fn, df)) for fn in fns]
    for i in range(4):
        for j in range(i + 1, 4):
            overlap = inner_product(fns[i], fns[j], df) / (norms[i] * norms[j])
            assert abs(overlap) < 1e-8
