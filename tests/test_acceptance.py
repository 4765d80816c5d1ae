"""Acceptance gate: eleven end-to-end criteria, one printed PASS/FAIL line
each (run with -s to see them inline).  Exact identities are held to 1e-9 or
tighter; statistical criteria use 3-standard-error bands or a 1/3 error-rate
budget on fixed seeded corpora."""

import functools
import math

import numpy as np
import pytest

from conftest import random_real_states, random_states
from stab_lab.charfn import (
    bell_diff_distribution,
    char_function,
    char_tables,
    chunk_states,
    exact_R,
    symplectic_fourier,
    table_R,
)
from stab_lab.clifford import (
    apply_clifford,
    balance,
    enumerate_stabilizers,
    expected_stabilizer_count,
    fourth_moment,
    random_real_clifford,
    stabilizer_to_statevector,
    stabilizer_unit_matrix,
    stabilizer_vectors,
)
from stab_lab.gf2 import Subspace, dot, symplectic_form
from stab_lab.measures import (
    gowers3,
    gowers_norm_direct,
    gram_lambda_min,
    lambda_star_scan,
    quantize_overlap,
    random_low_rank_state,
    stabilizer_fidelity,
    stabilizer_rank,
)
from stab_lab.states import (
    FamilySpec,
    StateVector,
    haar_unit,
    make_state,
    quadratic_parity,
    walsh_hadamard,
)
from stab_lab.tester import (
    bell_difference_sample,
    estimate_R,
    four_copy_difference_law,
    rank_vs_haar_test,
    tolerant_test,
)
from stab_lab.witness import extract_stabilizer, sample_zeta, split_real

TOL = 1e-9


def _criterion(k, note=""):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = f"CRITERION {k}" + (f" ({note})" if note else "")
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{label} FAIL")
                raise
            print(f"{label} PASS")

        return wrapper

    return deco


def _mixed_corpus(per_n=25, n_max=4, seed=0):
    """Seeded random states, roughly half complex / half real per size."""
    out = []
    for n in range(1, n_max + 1):
        k_real = per_n // 2
        out += random_states(n, per_n - k_real, seed=seed + n)
        out += random_real_states(n, k_real, seed=seed + 100 + n)
    return out


# ---------------------------------------------------------------------------
# 1. Exact identity suite


def _check_identities(state, xor_cache, rng):
    t = char_function(state)
    n, N = t.n, t.N
    flat = t.flat()
    M = len(flat)
    # mean of the table recovers the squared norm (Parseval)
    assert abs(flat.sum() / N - state.norm_sq() ** 2) < TOL
    # triple-convolution additivity
    if M not in xor_cache:
        idx = np.arange(M)
        xor_cache[M] = idx[:, None] ^ idx[None, :]
    lhs = flat @ (flat[xor_cache[M]] @ flat) / N**2
    assert abs(lhs - (flat**3).sum() / N) < TOL
    # self-duality under the symplectic Fourier transform
    assert np.abs(symplectic_fourier(t.f) - t.f).max() < TOL
    # subspace sums dominate every coset shift
    for _ in range(3):
        V = Subspace.from_vectors(2 * n, [int(v) for v in rng.integers(0, M, 3)])
        elems = np.array(list(V))
        base = flat[elems].sum()
        shifts = flat[elems[:, None] ^ np.arange(M)[None, :]].sum(axis=0)
        assert shifts.max() <= base + TOL
    # real amplitudes kill every entry with <y, alpha> = 1
    if np.abs(state.g.imag).max() < 1e-12:
        y = np.arange(N)
        parity = np.zeros((N, N), dtype=bool)
        for yy in range(N):
            parity[yy] = [dot(yy, a) == 1 for a in range(N)]
        assert flat.reshape(N, N)[parity].max(initial=0.0) < TOL


@_criterion(1)
def test_criterion_01_identity_suite():
    xor_cache = {}
    rng = np.random.default_rng(0)
    for state in _mixed_corpus(per_n=25, seed=0):
        _check_identities(state, xor_cache, rng)
    # Every stabilizer table at n <= 4 (37,866 of them), through the batch
    # kernels a chunk at a time. The triple sum is table_R, the XOR
    # self-convolution q = f*f against f, which the gather form above checks
    # on the mixed corpus.
    for n in range(1, 5):
        N = 1 << n
        g = stabilizer_vectors(enumerate_stabilizers(n))
        step = chunk_states(n)
        for at in range(0, len(g), step):
            f = char_tables(g[at : at + step])
            flat = f.reshape(len(f), -1)
            assert np.abs(flat.sum(axis=1) / N - 1.0).max() < TOL
            lhs = table_R(flat)
            assert np.abs(lhs - (flat**3).sum(axis=1) / N).max() < TOL
            assert np.abs(symplectic_fourier(f) - f).max() < TOL
    # character-sum lemma over subspaces of the doubled space
    for n in (1, 2, 3):
        M = 1 << (2 * n)
        for _ in range(20):
            S = Subspace.from_vectors(2 * n, [int(v) for v in rng.integers(0, M, 3)])
            zp = int(rng.integers(0, M))
            total = sum(1 - 2 * symplectic_form(n, z, zp) for z in S)
            in_perp = all(symplectic_form(n, b, zp) == 0 for b in S.basis)
            assert total == (len(S) if in_perp else 0)
    # fourth-moment identity for products of real functions
    for n in (2, 3):
        N = 1 << n
        idx = np.arange(N)
        for _ in range(10):
            f = rng.standard_normal(N)
            g = rng.standard_normal(N)
            lhs = float(np.sum(walsh_hadamard(f * g).real ** 4))
            rhs = sum(
                np.mean((f[idx ^ y] * f) * (g[idx ^ y] * g)) ** 2 for y in range(N)
            ) / N
            assert abs(lhs - rhs) < TOL


# ---------------------------------------------------------------------------
# 2-4. Norm equivalences and the sandwich


@_criterion(2)
def test_criterion_02_gowers_equivalence():
    for state in _mixed_corpus(per_n=25, seed=7):
        assert abs(gowers3(state) - gowers_norm_direct(state, 3)) < TOL
    t = make_state(FamilySpec("t_tensor", 1))
    assert abs(gowers3(t) - 0.75) < 1e-10


@_criterion(3)
def test_criterion_03_stabilizer_characterization():
    for n, count in ((1, 6), (2, 60), (3, 1080), (4, 36720)):
        stabs = enumerate_stabilizers(n)
        assert len(stabs) == count == expected_stabilizer_count(n)
    for n in (1, 2, 3):
        for s in enumerate_stabilizers(n):
            assert abs(gowers3(stabilizer_to_statevector(s)) - 1.0) < 1e-10
    corpus = []
    for n in (1, 2, 3, 4):
        corpus += random_states(n, 63, seed=40 + n)
        corpus += random_real_states(n, 62, seed=80 + n)
    assert len(corpus) == 500
    for state in corpus:
        assert gowers3(state) < 1 - 1e-6


@_criterion(4)
def test_criterion_04_sandwich():
    for n in range(1, 7):
        corpus = random_states(n, 3, seed=60 + n)
        corpus.append(make_state(FamilySpec("t_tensor", n)))
        corpus += random_real_states(n, 2, seed=70 + n)
        for state in corpus:
            g = gowers3(state)
            R = exact_R(state)
            assert g**2 - TOL <= R <= g + TOL
    assert abs(exact_R(make_state(FamilySpec("t_tensor", 1))) - 0.625) < 1e-10


# ---------------------------------------------------------------------------
# 5. Bell simulator fidelity of law


@_criterion(5)
def test_criterion_05_bell_law_and_unbiasedness():
    corpus = [
        make_state(FamilySpec("t_tensor", 1)),
        make_state(FamilySpec("t_tensor", 2)),
        random_states(2, 1, seed=5)[0],
        random_real_states(2, 1, seed=5)[0],
    ]
    shots = 100_000
    for state in corpus:
        phys = four_copy_difference_law(state)
        q = bell_diff_distribution(char_function(state))
        assert 0.5 * np.abs(q - phys).sum() < 1e-10
        zs, _ = bell_difference_sample(state, shots, seed=17)
        counts = np.bincount(zs, minlength=len(phys))
        for z, p in enumerate(phys):
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / shots)
            assert abs(counts[z] / shots - p) <= 3 * sigma + 1e-6
    state = corpus[2]
    runs, per = 1000, 100
    vals = [estimate_R(state, per, seed=s) for s in range(runs)]
    se = np.std(vals, ddof=1) / math.sqrt(runs)
    assert abs(np.mean(vals) - exact_R(state)) <= 3 * se


# ---------------------------------------------------------------------------
# 6. Tolerant tester at desk scale


@_criterion(6)
def test_criterion_06_tolerant_tester():
    n = 4
    rng = np.random.default_rng(7)
    stabs = enumerate_stabilizers(n)
    close_states = []
    while len(close_states) < 100:
        s = stabilizer_to_statevector(stabs[rng.integers(len(stabs))])
        eps = rng.uniform(0, 0.4)
        vec = math.sqrt(1 - eps) * s.unit() + math.sqrt(eps) * haar_unit(n, rng)
        state = StateVector.from_unit(vec / np.linalg.norm(vec))
        if stabilizer_fidelity(state)[0] >= 0.6:  # verified exhaustively
            close_states.append(state)
    far_states = [StateVector.from_unit(haar_unit(n, rng)) for _ in range(100)]
    errors = 0
    for i, state in enumerate(close_states):
        d = tolerant_test(state, eps1=0.9, eps2=0.3, shots=10_000, seed=1000 + i)
        errors += d.verdict != "close"
    for i, state in enumerate(far_states):
        d = tolerant_test(state, eps1=0.9, eps2=0.3, shots=10_000, seed=2000 + i)
        errors += d.verdict != "far"
    assert errors / 200 <= 1 / 3


# ---------------------------------------------------------------------------
# 7. Extraction pipeline contracts


def _all_quadratic_phase_states(n):
    N = 1 << n
    out = []
    row_choices = [
        [r for r in range(N) if not (r & ((1 << (i + 1)) - 1))] for i in range(n)
    ]
    def rec(i, rows):
        if i == n:
            for alpha in range(N):
                q_upper = [r | (alpha & 1 << j) for j, r in enumerate(rows)]
                q = quadratic_parity(np.arange(N), q_upper)
                vec = (1.0 - 2.0 * q) / math.sqrt(N)
                out.append(StateVector.from_unit(vec.astype(complex)))
            return
        for r in row_choices[i]:
            rec(i + 1, rows + [r])
    rec(0, [])
    return out


@_criterion(7)
def test_criterion_07_pipeline_contracts():
    # every run below exercises the internal monotonicity / quadratic-law /
    # Fourier-identity assertions; any violation raises PipelineError
    corpus = []
    for n in (1, 2, 3):
        quads = _all_quadratic_phase_states(n)
        for state in quads:
            _, overlap, _ = extract_stabilizer(state, seed=0)
            assert overlap >= 1 - TOL
        corpus += quads[:4]
    t = make_state(FamilySpec("t_tensor", 1))
    _, t_overlap, _ = extract_stabilizer(t, seed=0)
    assert 0.7286 <= t_overlap <= 0.85356
    corpus += [t, make_state(FamilySpec("t_tensor", 2))]
    corpus += random_states(3, 6, seed=71)
    corpus += random_real_states(3, 4, seed=72)
    for state in corpus:
        _, overlap, _ = extract_stabilizer(state, seed=0)
        fid, _ = stabilizer_fidelity(state)
        assert overlap <= fid + TOL


# ---------------------------------------------------------------------------
# 8. Linearity-sampling statistics


@_criterion(8)
def test_criterion_08_zeta_statistics():
    corpus = random_states(3, 8, seed=80)
    corpus.append(make_state(FamilySpec("t_tensor", 3)))
    corpus.append(
        make_state(
            FamilySpec(
                "interpolate", 3, seed=1, eps=0.3, stab=enumerate_stabilizers(3)[64]
            )
        )
    )
    draws_per_state = 20  # 200 draws in total
    for state in corpus:
        part, _, _ = split_real(state)
        _, balanced = balance(part, seed=0)
        t = char_function(balanced)
        gamma = gowers3(balanced) ** 0.125
        delta = gamma**2 / 6
        flat = t.flat()
        R = float((flat**3).sum()) / t.N
        bound = (R - 3 * delta) / 27 - 2 / t.N
        Ls = [
            sample_zeta(t, delta, seed=s).L_value for s in range(draws_per_state)
        ]
        se = np.std(Ls, ddof=1) / math.sqrt(len(Ls)) if len(Ls) > 1 else 0.0
        assert np.mean(Ls) >= bound - 3 * se - TOL


# ---------------------------------------------------------------------------
# 9. Real Cliffords are an orthogonal 2-design


@_criterion(9)
def test_criterion_09_two_design_and_balance():
    for n in (1, 2, 3, 4):
        N = 1 << n
        vec = np.random.default_rng(90 + n).standard_normal(N)
        state = StateVector.from_unit((vec / np.linalg.norm(vec)).astype(complex))
        vals = np.empty(2000)
        for i in range(len(vals)):
            C = random_real_clifford(n, seed=i)
            vals[i] = fourth_moment(apply_clifford(C, state))
        target = 3 / (N + 2)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - target) <= 3 * se
    # balancing succeeds within the try budget on a mixed corpus
    corpus = _mixed_corpus(per_n=10, n_max=4, seed=91)
    corpus += [make_state(FamilySpec("t_tensor", n)) for n in (1, 2, 3, 4)]
    for state in corpus:
        part, _, _ = split_real(state)
        _, balanced = balance(part, seed=0)
        assert fourth_moment(balanced) <= 3 / state.N + 1e-12


# ---------------------------------------------------------------------------
# 10. Gram machinery


@_criterion(10, note="eighth-root form; literal quarter-root form is xfail")
def test_criterion_10_gram_machinery():
    # every nonzero pairwise overlap is e^(i pi ell/4) 2^(-m/2), exactly
    for n in (1, 2, 3):
        V = stabilizer_unit_matrix(n)
        G = V.conj() @ V.T
        mag = np.abs(G)
        nz = mag > 1e-10
        m = np.rint(-2 * np.log2(np.where(nz, mag, 1.0)))
        ell = np.rint(np.angle(G) / (math.pi / 4))
        recon = np.exp(1j * math.pi * ell / 4) * 2.0 ** (-m / 2)
        assert np.abs(np.where(nz, G - recon, 0)).max() < 1e-10
    # the two-state eigenvalue floor is flat across sizes
    rows = lambda_star_scan(2, 3)
    for r in rows:
        if r.k == 2:
            assert abs(r.min_lambda - (1 - 1 / math.sqrt(2))) < 1e-12
            assert r.exhaustive
    # fidelity floor F >= lambda_min / k on random spanning combinations
    rng = np.random.default_rng(10)
    checked = 0
    while checked < 200:
        n = int(rng.integers(1, 3))
        stabs = enumerate_stabilizers(n)
        k = int(rng.integers(2, 4))
        if k > len(stabs):
            continue
        idx = rng.choice(len(stabs), size=k, replace=False)
        _, lam = gram_lambda_min([stabs[i] for i in idx])
        if lam < 1e-9:
            continue
        vecs = np.array([stabilizer_to_statevector(stabs[i]).unit() for i in idx])
        coeffs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        vec = coeffs @ vecs
        state = StateVector.from_unit(vec / np.linalg.norm(vec))
        fid, _ = stabilizer_fidelity(state)
        assert fid >= lam / k - TOL
        checked += 1
    # exact ranks by exhaustive subset search
    assert stabilizer_rank(make_state(FamilySpec("t_tensor", 1)))[0] == 2
    assert stabilizer_rank(make_state(FamilySpec("t_tensor", 2)))[0] == 2


@pytest.mark.xfail(
    strict=True,
    reason="quarter-root Gram quantization is false: <+|+i> = (1+i)/2 has an "
    "eighth-root phase at magnitude 2^(-1/2)",
)
@_criterion(10, note="literal quarter-root quantization")
def test_criterion_10_literal_gram_quantization():
    for n in (1, 2, 3):
        V = stabilizer_unit_matrix(n)
        G = V.conj() @ V.T
        it = np.nditer(G, flags=["multi_index"])
        for val in it:
            v = complex(val)
            assert abs(v) < 1e-10 or quantize_overlap(v) is not None


# ---------------------------------------------------------------------------
# 11. Calibrated low-rank vs Haar separation


@_criterion(11)
def test_criterion_11_rank_vs_haar():
    import json
    import os

    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "data", "thresholds.json")) as fh:
        entries = json.load(fh)["entries"]
    thresholds = {(e["n"], e["k"]): e["threshold"] for e in entries}
    assert (4, 2) in thresholds
    rng = np.random.default_rng(11)
    errors = 0
    for i in range(100):
        low = random_low_rank_state(4, 2, rng)
        d = rank_vs_haar_test(low, 2, 10_000, seed=3000 + i, thresholds=thresholds)
        errors += d.verdict != "close"
        haar = StateVector.from_unit(haar_unit(4, rng))
        d = rank_vs_haar_test(haar, 2, 10_000, seed=4000 + i, thresholds=thresholds)
        errors += d.verdict != "far"
    assert errors / 200 <= 1 / 3
