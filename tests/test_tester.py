"""Monte Carlo Bell sampling, the two decision procedures, and the 4-copy
physical cross-check."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import random_real_states, random_states
from stab_lab import charfn, cli
from stab_lab.charfn import bell_diff_distribution, char_function, exact_R
from stab_lab.clifford import (
    enumerate_stabilizers,
    stabilizer_at,
    stabilizer_to_statevector,
    stabilizer_unit_matrix,
)
from stab_lab.measures import counterexample_state, random_low_rank_state
from stab_lab.states import (
    MAX_QUBITS,
    FamilySpec,
    StateVector,
    haar_unit,
    make_state,
    sign_table,
)
from stab_lab.tester import (
    _CHUNK,
    MAX_CORPUS,
    MAX_SHOTS,
    TesterError,
    _draw,
    bell_difference_sample,
    bell_pair_distribution,
    calibrate,
    estimate_R,
    four_copy_difference_law,
    rank_vs_haar_test,
    sampler_vs_four_copy_tv,
    tolerant_test,
)


def test_shots_are_deterministic_under_seed(t_state):
    a = bell_difference_sample(t_state, 200, seed=7)
    b = bell_difference_sample(t_state, 200, seed=7)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = bell_difference_sample(t_state, 200, seed=8)
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def _draw_corpus():
    """Haar, t_tensor, uniform, basis and counterexample states at n = 1..6,
    random rank-1/2/3 combinations at n <= 4 (rank 1 is a stabilizer state,
    whose q vanishes off a subspace), and stabilizer states blended with
    weight 1e-12 of a Haar state, whose q has entries from 1e-16 to 1e-12."""
    out = {}
    for n in range(1, MAX_QUBITS + 1):
        out[f"haar.n{n}"] = random_states(n, 1, seed=n)[0]
        for kind in ("t_tensor", "uniform", "basis"):
            out[f"{kind}.n{n}"] = make_state(FamilySpec(kind, n, x0=(1 << n) - 1))
        out[f"counterexample.n{n}"] = counterexample_state(n, seed=n)
    for n in range(1, 5):
        for k in (1, 2, 3):
            rng = np.random.default_rng(10 * n + k)
            out[f"rank{k}.n{n}"] = random_low_rank_state(n, k, rng)
        spec = FamilySpec("interpolate", n, seed=n, eps=1e-12, stab=stabilizer_at(n, 5))
        out[f"blend.n{n}"] = make_state(spec)
    return out


DRAW_CORPUS = _draw_corpus()


@pytest.mark.parametrize("name", DRAW_CORPUS)
def test_draw_equals_generator_choice(name):
    # The oracle is numpy's own weighted draw; a numpy release that changes
    # Generator.choice shows up here.
    state = DRAW_CORPUS[name]
    t = char_function(state.normalized())
    q = bell_diff_distribution(t)
    cases = [(seed, shots) for seed in range(20) for shots in (1, 7, 10_000)]
    for seed, shots in cases + [(20, 2 * _CHUNK + 7)]:  # the last spans three chunks
        rng = np.random.default_rng(seed)
        z = rng.choice(len(q), size=shots, p=q / q.sum())
        same = rng.random(shots) < 0.5 * (1.0 + t.flat()[z])
        zs, agree = bell_difference_sample(state, shots, seed)
        assert zs.dtype == np.int64 and np.array_equal(zs, z)
        assert np.array_equal(agree, same)


class _GivenUniforms:
    """Stands in for a Generator whose next uniforms are given."""

    def __init__(self, u):
        self.u = u

    def random(self, shots):
        assert shots == len(self.u)
        return self.u.copy()


def test_draw_breaks_ties_like_searchsorted_right():
    # A uniform equal to a cdf entry has probability ~0 under a real
    # generator, so the seeded oracle never meets one: feed them directly.
    rng = np.random.default_rng(3)
    tiny = np.concatenate([[0.5], np.full(40, 1e-13), [0.5]])
    for probs in (
        np.full(8, 1 / 8),
        np.array([0.0, 0.25, 0.0, 0.25, 0.5, 0.0]),
        np.array([0.0, 0.0, 1.0, 0.0]),  # a point mass: one rise
        tiny,
        rng.random(64) * (rng.random(64) < 0.5),
    ):
        probs = probs / probs.sum()
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        below = cdf[cdf < 1]
        u = np.concatenate(
            [below, np.nextafter(below, 0), [0.0, np.nextafter(1.0, 0)], rng.random(50)]
        )
        want = np.searchsorted(cdf, u, side="right")
        assert np.array_equal(_draw(_GivenUniforms(u), probs, len(u)), want)


def _guide_edge_cases():
    """Distributions at the edges of _draw's guide table."""
    # n = 6: a single outcome holds mass ~1, so each cell next to it holds
    # about 1,000 rises and the binary search runs over wide bounds.
    crowded = np.full(4096, 1e-7)
    crowded[2048] = 1 - 4095e-7
    # Dyadic: with 13 rises K = 32 and every c*K is a multiple of 1/2, so
    # rises lie on cell edges (the ceil in the guide), some cells hold two.
    counts = [6, 1, 1, 0, 2, 8, 0, 1, 3, 4, 0, 10, 2, 1, 5, 20]
    return {"crowded": crowded, "dyadic": np.array(counts) / 64}


GUIDE_EDGE_CASES = _guide_edge_cases()


@pytest.mark.parametrize("name", GUIDE_EDGE_CASES)
def test_draw_guide_edge_cases(name):
    probs = GUIDE_EDGE_CASES[name]
    for seed in range(10):
        want = np.random.default_rng(seed).choice(len(probs), size=2 * _CHUNK + 7, p=probs)
        assert np.array_equal(_draw(np.random.default_rng(seed), probs, len(want)), want)
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    K = 1 << (2 * int(np.count_nonzero(probs)) - 1).bit_length()
    edges = np.arange(K) / K
    u = np.concatenate([cdf[cdf < 1], edges, np.nextafter(edges[1:], 0)])
    u = np.concatenate([u, np.nextafter(u[u > 0], 0), (cdf[:-1] + cdf[1:]) / 2])
    want = np.searchsorted(cdf, u, side="right")
    assert np.array_equal(_draw(_GivenUniforms(u), probs, len(u)), want)


def test_draw_keeps_per_chunk_memory():
    # Two shot-length arrays, u and z, take 15.3 MiB of 1,000,000 shots and
    # the peak reads 17.8 MiB; lookup arrays of full length would read 40.8.
    q = bell_diff_distribution(char_function(make_state(FamilySpec("t_tensor", 6))))
    probs = q / q.sum()
    tracemalloc.start()
    try:
        _draw(np.random.default_rng(0), probs, 1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_draw_corpus_has_zeros_and_tiny_masses():
    qs = {name: bell_diff_distribution(char_function(s)) for name, s in DRAW_CORPUS.items()}
    assert (qs["basis.n6"] == 0).sum() == 4096 - 64
    assert (qs["rank1.n4"] == 0).any()
    assert ((qs["blend.n4"] > 0) & (qs["blend.n4"] < 1e-9)).sum() >= 200


def test_shot_support_matches_distribution(t_state):
    q = bell_diff_distribution(char_function(t_state))
    support = {z for z in range(len(q)) if q[z] > 0}
    zs, _ = bell_difference_sample(t_state, 500, seed=0)
    for z in zs:
        assert z in support


def test_stabilizer_estimate_is_exactly_one():
    # q is supported where f = 1, so every agreement bit comes up true
    for s in enumerate_stabilizers(2)[::11]:
        state = stabilizer_to_statevector(s)
        assert estimate_R(state, shots=300, seed=3) == 1.0


def test_magic_state_frequencies_within_three_sigma(t_state):
    shots = 10_000
    zs, _ = bell_difference_sample(t_state, shots, seed=1)
    counts = np.bincount(zs, minlength=4)
    for z, p in enumerate([3 / 8, 1 / 8, 1 / 4, 1 / 4]):
        sigma = math.sqrt(p * (1 - p) / shots)
        assert abs(counts[z] / shots - p) <= 3 * sigma


def test_estimator_is_unbiased(t_state):
    # mean of R-hat over many runs approaches exact_R within 3 standard errors
    runs, shots = 200, 400
    vals = [estimate_R(t_state, shots, seed=s) for s in range(runs)]
    se = np.std(vals, ddof=1) / math.sqrt(runs)
    assert abs(np.mean(vals) - exact_R(t_state)) <= 3 * se + 1e-12


def test_error_decays_like_inverse_sqrt_shots():
    state = random_states(3, 1, seed=13)[0]
    truth = exact_R(state)
    shot_grid = [100, 1000, 10_000]
    errs = []
    for shots in shot_grid:
        devs = [
            abs(estimate_R(state, shots, seed=s) - truth) for s in range(40)
        ]
        errs.append(np.mean(devs))
    slope = np.polyfit(np.log10(shot_grid), np.log10(errs), 1)[0]
    assert abs(slope + 0.5) < 0.15


def test_tolerant_test_verdicts(t_state):
    stab = stabilizer_to_statevector(enumerate_stabilizers(2)[9])
    close = tolerant_test(stab, eps1=0.9, eps2=0.3, shots=2000, seed=0)
    assert close.verdict == "close"
    assert np.isclose(close.threshold, 0.9**8 / 2)
    haar = StateVector.from_unit(haar_unit(4, np.random.default_rng(5)))
    far = tolerant_test(haar, eps1=0.9, eps2=0.3, shots=2000, seed=0)
    assert far.verdict == "far"
    # explicit threshold overrides the default
    forced = tolerant_test(stab, 0.9, 0.3, shots=100, seed=0, threshold=1.5)
    assert forced.verdict == "far"


def test_tolerant_test_validation(t_state):
    with pytest.raises(TesterError):
        tolerant_test(t_state, eps1=0.3, eps2=0.9, shots=100)
    with pytest.raises(TesterError):
        tolerant_test(t_state, eps1=1.2, eps2=0.3, shots=100)
    with pytest.raises(TesterError):
        bell_difference_sample(t_state, shots=0)
    with pytest.raises(TesterError):
        bell_difference_sample(t_state, shots=MAX_SHOTS + 1)
    with pytest.raises(TesterError, match=f"corpus_size must be at most {MAX_CORPUS}"):
        calibrate(2, 1, corpus_size=MAX_CORPUS + 1)
    for probs in ([np.nan, 1.0], [np.inf, 1.0], np.zeros(4)):
        with pytest.raises(TesterError, match="not finite and positive"):
            _draw(np.random.default_rng(0), np.asarray(probs), 10)


def test_rank_vs_haar_requires_calibration(t_state):
    with pytest.raises(TesterError):
        rank_vs_haar_test(t_state, k=1, shots=100)
    with pytest.raises(TesterError):
        rank_vs_haar_test(t_state, k=0, shots=100, thresholds={(1, 1): 0.5})


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_tester_rejects_non_finite_threshold(threshold):
    state = make_state(FamilySpec("t_tensor", 2))
    with pytest.raises(TesterError, match="finite"):
        tolerant_test(state, 0.9, 0.3, shots=1000, threshold=threshold)
    with pytest.raises(TesterError, match="finite"):
        rank_vs_haar_test(state, k=2, shots=1000, thresholds={(2, 2): threshold})


def test_rank_vs_haar_decisions():
    thresholds = {(3, 1): 0.55}
    rng = np.random.default_rng(2)
    stab = stabilizer_to_statevector(enumerate_stabilizers(3)[77])
    close = rank_vs_haar_test(stab, k=1, shots=2000, seed=1, thresholds=thresholds)
    assert close.verdict == "close"
    haar = StateVector.from_unit(haar_unit(3, rng))
    far = rank_vs_haar_test(haar, k=1, shots=2000, seed=1, thresholds=thresholds)
    assert far.verdict == "far"


def _calibrate_per_state(n, k, seed, corpus_size, shots):
    """calibrate as the loop it replaced, one estimate_R call per state: the
    oracle of the batched corpus."""
    rng = np.random.default_rng(seed)
    low, haar = [], []
    for _ in range(corpus_size):
        ls = random_low_rank_state(n, k, rng)
        low.append(estimate_R(ls, shots, seed=int(rng.integers(0, 2**63))))
        hs = StateVector.from_unit(haar_unit(n, rng))
        haar.append(estimate_R(hs, shots, seed=int(rng.integers(0, 2**63))))
    med_low, med_haar = float(np.median(low)), float(np.median(haar))
    return {
        "n": n, "k": k, "seed": seed, "corpus_size": corpus_size, "shots": shots,
        "median_low_rank": med_low, "median_haar": med_haar,
        "threshold": 0.5 * (med_low + med_haar),
    }


def _hex(entry):
    return {key: v.hex() if isinstance(v, float) else v for key, v in entry.items()}


@pytest.mark.parametrize("n, k", [(2, 1), (3, 2), (4, 2)])
@pytest.mark.parametrize("cap", [1, None, 1 << 30])
def test_calibrate_equals_the_per_state_loop(n, k, cap, monkeypatch):
    # cap 1 gives every state its own chunk, and 2^30 one chunk for all
    if cap is not None:
        monkeypatch.setattr(charfn, "_CHUNK_BYTES", cap)
    for seed in range(3):
        args = dict(n=n, k=k, seed=seed, corpus_size=9 + seed, shots=300 + 11 * seed)
        assert _hex(calibrate(**args)) == _hex(_calibrate_per_state(**args))


def test_calibrate_is_deterministic_and_separating():
    a = calibrate(2, 1, seed=0, corpus_size=20, shots=500)
    b = calibrate(2, 1, seed=0, corpus_size=20, shots=500)
    assert a == b
    assert a["median_low_rank"] > a["threshold"] > a["median_haar"]
    assert a["median_low_rank"] == 1.0  # rank-1 states are stabilizers


def test_bell_pair_distribution_normalized(t_state):
    p = bell_pair_distribution(t_state)
    assert np.isclose(p.sum(), 1.0, atol=1e-12)
    assert p.min() >= -1e-15


def test_four_copy_law_matches_sampler_for_real_states():
    rng = np.random.default_rng(4)
    for n in range(1, MAX_QUBITS + 1):
        for _ in range(3):
            vec = rng.standard_normal(1 << n)
            state = StateVector.from_unit(vec / np.linalg.norm(vec))
            assert sampler_vs_four_copy_tv(state) < 1e-14


def test_four_copy_law_matches_sampler_for_complex_states(t_state):
    # conjugation effects cancel in the XOR difference law, so the
    # distribution-level sampler agrees even off the real locus
    assert sampler_vs_four_copy_tv(t_state) < 1e-14
    rng = np.random.default_rng(6)
    for _ in range(3):
        state = StateVector.from_unit(haar_unit(2, rng))
        assert sampler_vs_four_copy_tv(state) < 1e-14
    for n in range(1, MAX_QUBITS + 1):
        assert sampler_vs_four_copy_tv(make_state(FamilySpec("t_tensor", n))) < 1e-14
        for state in random_states(n, 3, seed=n):
            assert sampler_vs_four_copy_tv(state) < 1e-14


def test_four_copy_hand_value(t_state):
    # single-measurement law for the magic state, then self-convolved
    p = bell_pair_distribution(t_state)
    assert np.allclose(p, [1 / 4, 1 / 4, 1 / 2, 0], atol=1e-12)
    q = four_copy_difference_law(t_state)
    assert np.allclose(q, [3 / 8, 1 / 8, 1 / 4, 1 / 4], atol=1e-12)


def _bell_pair_by_labels(state):
    """Oracle for bell_pair_distribution: one inner product per label z."""
    n, N = state.n, state.N
    u = state.unit()
    idx = np.arange(N)
    p = np.zeros(1 << (2 * n))
    for z in range(1 << (2 * n)):
        y, alpha = z >> n, z & (N - 1)
        signs = sign_table(N, alpha)
        amp = np.sum(u[idx ^ y] * signs[idx ^ y] * u) / np.sqrt(N)
        p[z] = abs(amp) ** 2
    return p / p.sum()


def _self_convolution_by_z1(p):
    """Oracle for the XOR self-convolution: one shifted add per z1."""
    M = len(p)
    out = np.zeros(M)
    for z1 in range(M):
        out[z1 ^ np.arange(M)] += p[z1] * p
    return out


def test_four_copy_law_matches_label_loops():
    for n in (1, 2, 3):
        corpus = [
            make_state(FamilySpec("t_tensor", n)),
            *random_states(n, 2, seed=20 + n),
            *random_real_states(n, 2, seed=30 + n),
        ]
        for state in corpus:
            p = _bell_pair_by_labels(state)
            assert np.abs(bell_pair_distribution(state) - p).max() < 1e-14
            if n <= 2:
                want = _self_convolution_by_z1(p)
                assert np.abs(four_copy_difference_law(state) - want).max() < 1e-14


def test_four_copy_size_cap():
    big = StateVector(MAX_QUBITS + 1, np.ones(1 << (MAX_QUBITS + 1)))
    with pytest.raises(TesterError):
        bell_pair_distribution(big)
    with pytest.raises(TesterError):
        four_copy_difference_law(big)


def test_calibrate_reproduces_committed_thresholds():
    # entries only: the version header names the commit that wrote the file
    path = Path(__file__).resolve().parents[1] / "data" / "thresholds.json"
    for entry in json.loads(path.read_text())["entries"]:
        args = {key: entry[key] for key in ("n", "k", "seed", "corpus_size", "shots")}
        assert calibrate(**args) == entry


def test_calibrate_checks_shots_before_the_table(capsys):
    # a shot count outside [1, MAX_SHOTS] is refused before the stabilizer
    # table (9.4 MB at n = 4) is looked up, let alone built
    before = stabilizer_unit_matrix.cache_info()
    for shots in (0, -5, MAX_SHOTS + 1):
        with pytest.raises(TesterError, match=r"shots must be in \[1, 10000000\]"):
            calibrate(4, 2, shots=shots)
    with pytest.raises(TesterError, match="corpus_size must be at most 10000"):
        calibrate(4, 2, corpus_size=10**9)
    assert cli.main(["calibrate", "--n", "4", "--k", "2", "--shots", "0"]) == cli.EXIT_USAGE
    assert "shots must be in [1, 10000000]" in capsys.readouterr().err
    assert stabilizer_unit_matrix.cache_info() == before
