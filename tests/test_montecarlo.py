import math

import numpy as np
import pytest

from babai_refine import (
    Point2,
    SimConfig,
    babai_error_probability,
    babai_nearest_plane,
    babai_batch,
    exact_nearest_batch,
    exact_nearest_point,
    make_generator,
    quantizer_12,
    quantizer_21,
    run_batch_12,
    run_batch_21,
    run_batch_infinite,
    run_infinite_rounds,
    run_single_round_12,
    run_single_round_21,
    sample_cell_arrays,
    sample_uniform_babai_cell,
    simulate,
)


def test_sampler_determinism(params_main):
    idx = np.arange(1000, dtype=np.uint64)
    a1, a2 = sample_cell_arrays(params_main, idx, seed=42)
    b1, b2 = sample_cell_arrays(params_main, idx, seed=42)
    assert np.array_equal(a1, b1) and np.array_equal(a2, b2)
    c1, _ = sample_cell_arrays(params_main, idx, seed=43)
    assert not np.array_equal(a1, c1)
    pt = sample_uniform_babai_cell(params_main, 7, seed=42)
    assert pt == (a1[7], a2[7])


def test_sampler_supports(params_main):
    idx = np.arange(100_000, dtype=np.uint64)
    x1, x2 = sample_cell_arrays(params_main, idx, seed=3)
    h = params_main.rsin / 2
    assert np.all((x1 > -0.5) & (x1 <= 0.5))
    assert np.all((x2 > -h) & (x2 <= h))


def test_sampler_moments(params_main):
    n = 1_000_000
    idx = np.arange(n, dtype=np.uint64)
    x1, x2 = sample_cell_arrays(params_main, idx, seed=3)
    h = params_main.rsin / 2
    sig1 = (1.0 / math.sqrt(12.0)) / math.sqrt(n)
    sig2 = (params_main.rsin / math.sqrt(12.0)) / math.sqrt(n)
    assert abs(x1.mean()) < 4 * sig1
    assert abs(x2.mean()) < 4 * sig2
    corr = np.corrcoef(x1, x2)[0, 1]
    assert abs(corr) < 4 / math.sqrt(n)


def test_sampler_ks_uniform(params_main):
    n = 1_000_000
    idx = np.arange(n, dtype=np.uint64)
    x1, _ = sample_cell_arrays(params_main, idx, seed=3)
    u = np.sort(x1 + 0.5)
    i = np.arange(1, n + 1)
    d = np.max(np.maximum(i / n - u, u - (i - 1) / n))
    assert d < 1.63 / math.sqrt(n)  # alpha = 0.01 critical value


def test_babai_batch_matches_scalar(params_main):
    gen = make_generator(params_main)
    rng = np.random.default_rng(5)
    x1 = rng.uniform(-3, 3, size=500)
    x2 = rng.uniform(-3, 3, size=500)
    u1, u2 = babai_batch(params_main, x1, x2)
    for i in range(500):
        want = babai_nearest_plane(Point2(x1[i], x2[i]), gen)
        assert (u1[i], u2[i]) == want


def test_exact_nearest_batch_matches_scalar(params_main):
    gen = make_generator(params_main)
    rng = np.random.default_rng(7)
    x1 = rng.uniform(-3, 3, size=500)
    x2 = rng.uniform(-3, 3, size=500)
    e1, e2 = exact_nearest_batch(params_main, x1, x2)
    for i in range(500):
        want = exact_nearest_point(Point2(x1[i], x2[i]), gen)
        assert (e1[i], e2[i]) == want


def test_batch_12_matches_scalar(params_main):
    q = quantizer_12(params_main, 2, 3)
    x1, x2 = sample_cell_arrays(params_main, np.arange(2000, dtype=np.uint64), seed=11)
    out = run_batch_12(params_main, 2, 3, x1, x2)
    for i in range(2000):
        t = run_single_round_12(Point2(x1[i], x2[i]), params_main, q)
        assert out["u1_symbol"][i] == t.messages[0].symbol
        assert out["u2_symbol"][i] == t.messages[1].symbol
        assert math.isclose(out["u1_bits"][i], t.messages[0].ideal_bits, rel_tol=1e-12)
        assert math.isclose(out["u2_bits"][i], t.messages[1].ideal_bits, rel_tol=1e-12)
        assert (out["dec1"][i], out["dec2"][i]) == t.decision


def test_batch_21_matches_scalar(params_main):
    q = quantizer_21(params_main, 4)
    x1, x2 = sample_cell_arrays(params_main, np.arange(2000, dtype=np.uint64), seed=13)
    out = run_batch_21(params_main, 4, x1, x2)
    for i in range(2000):
        t = run_single_round_21(Point2(x1[i], x2[i]), params_main, q)
        assert out["u2_symbol"][i] == t.messages[0].symbol
        assert out["u1_symbol"][i] == t.messages[1].symbol
        assert math.isclose(out["u2_bits"][i], t.messages[0].ideal_bits, rel_tol=1e-12)
        assert math.isclose(out["u1_bits"][i], t.messages[1].ideal_bits, rel_tol=1e-12)
        assert (out["dec1"][i], out["dec2"][i]) == t.decision


def test_batch_infinite_matches_scalar(params_main):
    x1, x2 = sample_cell_arrays(params_main, np.arange(2000, dtype=np.uint64), seed=17)
    out = run_batch_infinite(params_main, x1, x2)
    for i in range(2000):
        t = run_infinite_rounds(Point2(x1[i], x2[i]), params_main)
        assert out["halted"][i] == t.halted
        assert out["rounds"][i] == t.rounds
        assert math.isclose(out["bits"][i], t.total_bits, rel_tol=1e-12)
        assert (out["dec1"][i], out["dec2"][i]) == t.decision


def test_simulate_babai_only(params_main):
    cfg = SimConfig(params=params_main, scheme="babai_only", trials=200_000, seed=1)
    rep = simulate(cfg)
    pred = babai_error_probability(params_main)
    assert rep.predicted_pe == pred
    assert abs(rep.empirical_pe - pred) < 4 * rep.empirical_pe_stderr
    assert rep.mean_bits == 0.0 and rep.unhalted_count == 0
    assert rep.trials == 200_000 and rep.seed == 1


def test_simulate_single_trial(params_main):
    rep = simulate(SimConfig(params=params_main, scheme="infinite", trials=1, seed=9))
    assert rep.mean_bits_stderr == 0.0
    assert rep.mean_rounds_stderr == 0.0
    assert rep.empirical_pe in (0.0, 1.0)


def test_simulate_reproducible(params_main):
    cfg = SimConfig(params=params_main, scheme="12", trials=50_000, seed=5, n1=2, n2=3)
    assert simulate(cfg) == simulate(cfg)


def test_simulate_12_matches_formula(params_main):
    cfg = SimConfig(params=params_main, scheme="12", trials=400_000, seed=2, n1=2, n2=3)
    rep = simulate(cfg)
    assert abs(rep.empirical_pe - rep.predicted_pe) < 3.5 * rep.empirical_pe_stderr
    # mean total bits is the exact rate for this scheme
    assert abs(rep.mean_bits - rep.predicted_bits) < 3.5 * rep.mean_bits_stderr
    assert rep.mean_rounds == 1.0


def test_simulate_21_matches_formula(params_main):
    cfg = SimConfig(params=params_main, scheme="21", trials=400_000, seed=2, n=4)
    rep = simulate(cfg)
    assert abs(rep.empirical_pe - rep.predicted_pe) < 3.5 * rep.empirical_pe_stderr


def test_simulate_infinite_zero_error(params_main):
    cfg = SimConfig(params=params_main, scheme="infinite", trials=200_000, seed=3)
    rep = simulate(cfg)
    assert rep.empirical_pe == 0.0
    assert rep.unhalted_count == 0
    assert abs(rep.mean_bits - rep.predicted_bits) < 3.5 * rep.mean_bits_stderr
    assert abs(rep.mean_rounds - rep.predicted_rounds) < 3.5 * rep.mean_rounds_stderr


def test_stage_two_improves_on_babai(params_main):
    seed = 21
    base = simulate(
        SimConfig(params=params_main, scheme="babai_only", trials=200_000, seed=seed)
    )
    for scheme, kw in (("12", {"n1": 1, "n2": 1}), ("21", {"n": 1})):
        rep = simulate(
            SimConfig(params=params_main, scheme=scheme, trials=200_000, seed=seed, **kw)
        )
        assert rep.empirical_pe <= base.empirical_pe


def test_simconfig_validation(params_main):
    with pytest.raises(ValueError):
        SimConfig(params=params_main, scheme="12", trials=10, seed=0)  # sizes missing
    with pytest.raises(ValueError):
        SimConfig(params=params_main, scheme="nope", trials=10, seed=0)
    with pytest.raises(ValueError):
        SimConfig(params=params_main, scheme="infinite", trials=0, seed=0)
    with pytest.raises(ValueError, match="max_rounds must be >= 1"):
        SimConfig(params=params_main, scheme="infinite", trials=10, seed=0, max_rounds=0)
    with pytest.raises(ValueError, match="max_rounds must be >= 1"):
        run_batch_infinite(params_main, np.zeros(3), np.zeros(3), max_rounds=0)
    with pytest.raises(ValueError):
        sample_uniform_babai_cell(params_main, -1, seed=0)
