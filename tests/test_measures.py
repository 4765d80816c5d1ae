"""Complexity measures, Gram machinery, and the relations experiment."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_states
from stab_lab import measures
from stab_lab.clifford import (
    StabilizerState,
    enumerate_stabilizers,
    stabilizer_at,
    stabilizer_to_statevector,
    stabilizer_unit_matrix,
)
from stab_lab.measures import (
    MAX_TRIALS,
    RANK_RESIDUAL_TOL,
    SINGULAR_TOL,
    MeasureError,
    _first_hit,
    counterexample_state,
    delta_k_probe,
    gowers3,
    gowers_norm_direct,
    gram_lambda_min,
    lambda_star_scan,
    measure_report,
    quantize_overlap,
    quantize_overlap_eighth,
    random_low_rank_state,
    relations_experiment,
    stabilizer_fidelity,
    stabilizer_rank,
)
from stab_lab.states import FamilySpec, StateVector, haar_unit, make_state

ZERO = StabilizerState(1, 0, (), 0, ())
ONE = StabilizerState(1, 1, (), 0, ())
PLUS = StabilizerState(1, 0, (1,), 0, (0,))
PLUS_I = StabilizerState(1, 0, (1,), 1, (0,))


def test_gowers_direct_known_values(t_state):
    uniform = make_state(FamilySpec("uniform", 2))
    assert np.isclose(gowers_norm_direct(uniform, 3), 1.0, atol=1e-12)
    basis = make_state(FamilySpec("basis", 2, x0=2))
    assert np.isclose(gowers_norm_direct(basis, 3), 1.0, atol=1e-12)
    assert np.isclose(gowers_norm_direct(t_state, 3), 0.75, atol=1e-12)


def test_gowers_table_equals_direct():
    for n in (1, 2, 3):
        for state in random_states(n, 4, seed=30 + n):
            assert np.isclose(
                gowers3(state), gowers_norm_direct(state, 3), atol=1e-9
            )


def test_gowers_degree_validation():
    state = make_state(FamilySpec("uniform", 2))
    with pytest.raises(MeasureError):
        gowers_norm_direct(state, 4)


def test_gowers_multiplicative(t_state, t2_state):
    assert np.isclose(gowers3(t2_state), gowers3(t_state) ** 2, atol=1e-10)
    assert np.isclose(gowers3(t2_state), 0.5625, atol=1e-10)


def test_gowers_characterizes_stabilizers():
    for s in enumerate_stabilizers(2)[::5]:
        assert np.isclose(gowers3(stabilizer_to_statevector(s)), 1.0, atol=1e-10)
    for state in random_states(2, 10, seed=4):
        assert gowers3(state) < 1 - 1e-6


def test_fidelity_known_values(t_state):
    zero3 = make_state(FamilySpec("basis", 3))
    fid, wit = stabilizer_fidelity(zero3)
    assert np.isclose(fid, 1.0, atol=1e-12)
    assert np.isclose(
        stabilizer_to_statevector(wit).overlap_sq(zero3), 1.0, atol=1e-12
    )
    fid_t, wit_t = stabilizer_fidelity(t_state)
    assert np.isclose(fid_t, math.cos(math.pi / 8) ** 2, atol=1e-12)


def test_fidelity_matches_independent_loop():
    state = random_states(2, 1, seed=77)[0]
    fid, _ = stabilizer_fidelity(state)
    brute = max(
        stabilizer_to_statevector(s).overlap_sq(state)
        for s in enumerate_stabilizers(2)
    )
    assert np.isclose(fid, brute, atol=1e-12)


def test_rank_known_values(t_state, t2_state):
    for s in enumerate_stabilizers(1):
        assert stabilizer_rank(stabilizer_to_statevector(s))[0] == 1
    assert stabilizer_rank(t_state)[0] == 2
    assert stabilizer_rank(t2_state)[0] == 2


def test_rank_witness_spans():
    from stab_lab.clifford import stabilizer_unit_matrix

    state = make_state(FamilySpec("t_tensor", 2))
    rank, wit = stabilizer_rank(state)
    S = stabilizer_unit_matrix(2)[list(wit)]
    coeffs, res, *_ = np.linalg.lstsq(S.T, state.unit(), rcond=None)
    recon = S.T @ coeffs
    assert np.abs(recon - state.unit()).max() < 1e-9


def test_rank_approximate_mode(t_state):
    # a big enough delta turns the magic state into a rank-1 approximation
    rank, wit = stabilizer_rank(t_state, delta=0.6)
    assert rank == 1


def test_rank_bounds_at_n3():
    state = random_states(3, 1, seed=5)[0]
    rank, wit = stabilizer_rank(state)
    assert rank == (3, 8)
    assert wit is None
    stab3 = stabilizer_to_statevector(enumerate_stabilizers(3)[100])
    assert stabilizer_rank(stab3)[0] == 1


def test_rank_validation():
    with pytest.raises(MeasureError):
        stabilizer_rank(random_states(4, 1)[0])
    with pytest.raises(MeasureError):
        stabilizer_rank(random_states(1, 1)[0], delta=-0.1)
    with pytest.raises(MeasureError, match="hyperplane table capped at n = 2"):
        measures._hyperplanes(3)


def _subset_search(S, v, r, thr):
    """Oracle: walk itertools.combinations of S's rows in 4096-subset chunks
    and score each subset by a pseudo-inverse of its Gram matrix; the first
    subset with squared residual <= thr wins, else None."""
    combos = itertools.combinations(range(len(S)), r)
    while True:
        chunk = np.array(list(itertools.islice(combos, 4096)), dtype=int)
        if chunk.size == 0:
            return None
        A = S[chunk]
        G = A.conj() @ A.swapaxes(1, 2)
        b = A.conj() @ v
        Ginv = np.linalg.pinv(G, rcond=1e-12, hermitian=True)
        proj = np.einsum("ki,kij,kj->k", b.conj(), Ginv, b).real
        res = np.maximum(float(np.vdot(v, v).real) - proj, 0.0)
        hits = np.flatnonzero(res <= thr)
        if len(hits):
            return tuple(int(i) for i in chunk[hits[0]])


def _subset_rank(state, delta=0.0):
    """Oracle for stabilizer_rank: the same caps and bound pair."""
    thr = max(delta, RANK_RESIDUAL_TOL) ** 2 + RANK_RESIDUAL_TOL
    S = stabilizer_unit_matrix(state.n)
    r_cap = state.N if state.n <= 2 else 2
    for r in range(1, r_cap + 1):
        hit = _subset_search(S, state.unit(), r, thr)
        if hit is not None:
            return r, hit
    return (3, state.N), None


@functools.lru_cache(maxsize=None)
def _dependent_triples(n):
    """The dependent triples of enumerated stabilizers at n, in order."""
    S = stabilizer_unit_matrix(n)
    return [
        trio
        for trio in itertools.combinations(range(len(S)), 3)
        if np.linalg.matrix_rank(S[list(trio)], tol=1e-9) < 3
    ]


def _combination(n, picks, complex_coeffs, rng):
    S = stabilizer_unit_matrix(n)
    coeffs = rng.standard_normal(len(picks))
    if complex_coeffs:
        coeffs = coeffs + 1j * rng.standard_normal(len(picks))
    vec = coeffs @ S[picks]
    return StateVector.from_unit(vec / np.linalg.norm(vec))


@st.composite
def rank_inputs(draw):
    """Haar states and real or complex combinations of 1-4 enumerated
    stabilizers at n <= 2, some of them with Haar noise of norm 0.1; some
    combinations start with the first dependent triple (|0>, |1>, |+> at
    n = 1), so prefixes carry a dependent row."""
    n = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    delta = draw(st.sampled_from([0.0, 1e-6, 0.05, 0.2, 0.3, 0.6, 0.9]))
    kind = draw(st.sampled_from(["haar", "combination", "noisy", "dependent"]))
    if kind == "haar":
        return random_states(n, 1, seed=int(rng.integers(2**31)))[0], delta
    M = len(stabilizer_unit_matrix(n))
    picks = list(rng.choice(M, size=int(rng.integers(1, 5)), replace=False))
    if kind == "dependent":
        trio = list(_dependent_triples(n)[0])
        picks = trio + [p for p in picks if p not in trio][:1]
    state = _combination(n, picks, draw(st.booleans()), rng)
    if kind == "noisy":
        vec = state.unit() + 0.1 * haar_unit(n, rng)
        state = StateVector.from_unit(vec / np.linalg.norm(vec))
    return state, delta


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=rank_inputs())
def test_rank_matches_subset_oracle(case):
    state, delta = case
    assert stabilizer_rank(state, delta) == _subset_rank(state, delta)


def test_first_hit_rounding_dependent_rows_add_nothing():
    # stabilizer_rank never meets a dependent prefix row at n <= 2 (its first
    # four rows are independent), so search tables that start with a
    # dependent triple. Random global phases leave a dependent row a
    # projected norm^2 near 1e-32 instead of exactly 0; scored as a
    # direction, such a row turns about 2 in 100 of these 4-subset misses
    # into hits.
    S = stabilizer_unit_matrix(2)
    triples = _dependent_triples(2)
    for seed in range(300):
        rng = np.random.default_rng(seed)
        trio = triples[rng.integers(len(triples))]
        rows = list(trio) + list(rng.integers(0, len(S), 5))
        U = S[rows] * np.exp(2j * np.pi * rng.random(len(rows)))[:, None]
        v = haar_unit(2, rng)
        thr = float(rng.choice([0.3, 0.6])) ** 2 + RANK_RESIDUAL_TOL
        for r in (3, 4):
            assert _first_hit(U, v, r, thr) == _subset_search(U, v, r, thr)


@pytest.mark.parametrize("n, count", [(1, 6), (2, 1500)])
def test_hyperplane_table(n, count):
    # against an SVD of every (N - 1)-subset in itertools.combinations
    # order: each independent subset's hyperplane, keyed by the stabilizer
    # rows its normal annihilates, is held exactly once, under the first
    # subset that spans it, and the build stays small
    S = stabilizer_unit_matrix(n)
    M, N = S.shape
    measures._hyperplanes.cache_clear()
    tracemalloc.start()
    try:
        normals, subsets = measures._hyperplanes(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert len(normals) == len(subsets) == count
    assert np.allclose(np.linalg.norm(normals, axis=1), 1, atol=1e-12)
    combos = np.array(list(itertools.combinations(range(M), N - 1)))
    _, sv, vh = np.linalg.svd(S[combos])
    independent = sv[:, -1] > 1e-6
    # sum_j c_j u_j = 0 on the span, for c the conjugated last row of vh
    held = np.abs(vh[independent, -1].conj() @ S.T) < 1e-6
    first = {}
    for subset, rows in zip(combos[independent].tolist(), held):
        first.setdefault(np.packbits(rows).tobytes(), tuple(subset))
    keys = [np.packbits(np.abs(S @ c) < 1e-6).tobytes() for c in normals]
    assert keys == list(first)
    assert [tuple(row) for row in subsets.tolist()] == list(first.values())


def test_rank_matches_subset_oracle_n3():
    # rank-2 hits at the first, a middle and the last pair in pair order that
    # is its own first witness (every later pair spans a plane that an
    # earlier pair spans too)
    rng = np.random.default_rng(3)
    cases = [
        (random_states(3, 1, seed=11)[0], 0.0, ((3, 8), None)),
        (stabilizer_to_statevector(enumerate_stabilizers(3)[500]), 0.0, (1, (500,))),
        (_combination(3, [0, 1], True, rng), 0.0, (2, (0, 1))),
        (_combination(3, [300, 700], True, rng), 0.0, (2, (300, 700))),
        (_combination(3, [1071, 1075], False, rng), 0.0, (2, (1071, 1075))),
        (make_state(FamilySpec("t_tensor", 3)), 0.6, (2, (0, 568))),
    ]
    for state, delta, want in cases:
        got = stabilizer_rank(state, delta)
        assert got == _subset_rank(state, delta)
        assert got == want


def test_rank_miss_n3_memory():
    state = random_states(3, 1, seed=12)[0]
    stabilizer_unit_matrix(3)  # the cached table is not the search's memory
    tracemalloc.start()
    try:
        rank, wit = stabilizer_rank(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rank, wit) == ((3, 8), None)
    assert peak < 16 * 2**20


def test_gram_known_values():
    _, lam = gram_lambda_min([ZERO, ONE])
    assert np.isclose(lam, 1.0, atol=1e-12)
    gram, lam = gram_lambda_min([ZERO, PLUS])
    assert np.isclose(abs(gram.entries[0, 1]), 1 / math.sqrt(2), atol=1e-12)
    assert np.isclose(lam, 1 - 1 / math.sqrt(2), atol=1e-12)
    _, lam = gram_lambda_min([ZERO, ZERO])
    assert lam < 1e-9  # singular


@pytest.mark.parametrize("order", [1, -1])
def test_gram_rejects_mixed_qubit_counts(order):
    states = [stabilizer_at(1, 0), stabilizer_at(2, 5)][::order]
    with pytest.raises(MeasureError, match="one qubit count"):
        gram_lambda_min(states)


def test_gram_psd_and_hermitian():
    states = [enumerate_stabilizers(2)[i] for i in (0, 7, 21, 40)]
    gram, lam = gram_lambda_min(states)
    assert np.allclose(gram.entries, gram.entries.conj().T)
    assert np.allclose(np.diag(gram.entries), 1.0)
    assert lam >= -1e-10


def test_quantization_quarter_and_eighth():
    assert quantize_overlap(0.5 + 0j) == (0, 2)
    assert quantize_overlap(1j / math.sqrt(2)) == (1, 1)
    assert quantize_overlap(0.3) is None
    # the plus/plus-i overlap has magnitude 2^(-1/2) but an eighth-root phase
    val = stabilizer_to_statevector(PLUS).inner(stabilizer_to_statevector(PLUS_I))
    assert quantize_overlap(val) is None
    assert quantize_overlap_eighth(val) == (1, 1)


def test_eighth_root_quantization_all_pairs_n2():
    vecs = [stabilizer_to_statevector(s).unit() for s in enumerate_stabilizers(2)]
    mat = np.array(vecs)
    gram = mat.conj() @ mat.T
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            v = gram[i, j]
            assert abs(v) < 1e-10 or quantize_overlap_eighth(v) is not None


def test_lambda_star_scan_values():
    rows = lambda_star_scan(2, 2, "exhaustive")
    by_kn = {(r.k, r.n): r for r in rows}
    assert by_kn[(1, 1)].min_lambda == 1.0
    assert np.isclose(by_kn[(2, 1)].min_lambda, 1 - 1 / math.sqrt(2), atol=1e-12)
    assert np.isclose(by_kn[(2, 2)].min_lambda, 1 - 1 / math.sqrt(2), atol=1e-12)


def test_lambda_star_scan_budget_and_sampled(monkeypatch):
    # the budget is checked before any table is built: (3, 3) is refused
    # without scanning n = 1..3 first
    requested = []

    def recording_table(n):
        requested.append(n)
        return stabilizer_unit_matrix(n)

    monkeypatch.setattr(measures, "stabilizer_unit_matrix", recording_table)
    with pytest.raises(MeasureError, match=r"\(k=3, n=3\)"):
        lambda_star_scan(3, 3, "exhaustive")
    assert requested == []
    for k_max, n_max in ((0, 1), (2, 0)):
        with pytest.raises(MeasureError):
            lambda_star_scan(k_max, n_max)
    # the caps are checked before any table is built (n = 5 has none)
    for k_max, n_max in ((9, 1), (2, 5)):
        with pytest.raises(MeasureError):
            lambda_star_scan(k_max, n_max, "sampled")
    for trials in (-5, 0, MAX_TRIALS + 1):
        with pytest.raises(MeasureError):
            lambda_star_scan(2, 1, "sampled", trials=trials)
    rows = lambda_star_scan(2, 2, "sampled", trials=50, seed=1)
    sampled = [r for r in rows if r.k == 2]
    assert all(r.samples == 50 and not r.exhaustive for r in sampled)
    assert all(r.min_lambda >= 1 - 1 / math.sqrt(2) - 1e-9 for r in sampled)


def _scan_oracle(S, subsets):
    """One eigvalsh per subset, as the scan ran before it grouped equal Gram
    matrices: the smallest lambda_min at or above SINGULAR_TOL and the first
    subset reaching it, or (inf, None). Whole-array, in blocks of 65,536."""
    subsets = np.asarray(subsets, dtype=int)
    best, wit = math.inf, None
    for lo in range(0, len(subsets), 1 << 16):
        block = subsets[lo:lo + (1 << 16)]
        V = S[block]
        lams = np.linalg.eigvalsh(np.einsum("kin,kjn->kij", V.conj(), V))[:, 0]
        lams[lams < SINGULAR_TOL] = math.inf
        i = int(np.argmin(lams))
        if lams[i] < best:
            best, wit = float(lams[i]), tuple(int(x) for x in block[i])
    return best, wit


def test_batched_eigvalsh_matches_per_subset_loop():
    # equal input bits give equal eigenvalues: a batch's lambda_min is the
    # one each subset's own eigvalsh gives, bit for bit
    S = stabilizer_unit_matrix(2)
    subsets = np.array(list(itertools.combinations(range(len(S)), 3))[::10])
    V = S[subsets]
    batched = np.linalg.eigvalsh(np.einsum("kin,kjn->kij", V.conj(), V))[:, 0]
    for c, lam in zip(subsets, batched):
        W = S[c]
        assert np.linalg.eigvalsh(np.einsum("in,jn->ij", W.conj(), W))[0] == lam


@pytest.mark.parametrize("k,n", sorted(measures._EXHAUSTIVE_BUDGET))
def test_lambda_star_scan_exhaustive_matches_oracle(k, n):
    S = stabilizer_unit_matrix(n)
    row = lambda_star_scan(k, n)[-1]
    assert (row.k, row.n, row.exhaustive, row.samples) == (k, n, True, 0)
    best, wit = _scan_oracle(S, list(itertools.combinations(range(len(S)), k)))
    assert (row.min_lambda, row.witness) == (best, wit)


def test_lambda_star_scan_k1_rows_are_exact():
    # a 1 x 1 Gram matrix of a unit vector is [1], so both modes give the
    # k = 1 rows lambda_min 1.0 on state 0, though the computed diagonal
    # reads 1 - 2^-52 at state 2 for n = 1 and at state 8 for n = 3
    for n, state in ((1, 2), (3, 8)):
        V = stabilizer_unit_matrix(n)[[[state]]]
        assert np.linalg.eigvalsh(np.einsum("kin,kjn->kij", V.conj(), V))[0, 0] < 1
    rows = lambda_star_scan(3, 2) + lambda_star_scan(2, 3, "sampled", trials=20)
    assert [r for r in rows if r.k == 1] == [
        measures.ScanRow(1, n, 1.0, (0,), True, 0) for n in (1, 2, 1, 2, 3)
    ]


@pytest.mark.parametrize("k,n", sorted(measures._EXHAUSTIVE_BUDGET))
def test_pair_table_gram_is_the_subset_einsum(k, n):
    # the exhaustive scan reads each subset's Gram matrix off the pair
    # table; it must be byte for byte the per-subset einsum (a strided
    # sample of the 582,660 pairs at n = 3)
    S = stabilizer_unit_matrix(n)
    codes, values = measures._pair_codes(S)
    combos = itertools.combinations(range(len(S)), k)
    subsets = np.array(list(itertools.islice(combos, 0, None, 97 if n == 3 else 1)))
    V = S[subsets]
    G = np.einsum("kin,kjn->kij", V.conj(), V)
    read = values[codes[subsets[:, :, None], subsets[:, None, :]]]
    assert read.tobytes() == G.tobytes()
    # values are distinct by their bytes
    assert len(np.unique(values.view(np.int64).reshape(-1, 2), axis=0)) == len(values)


@pytest.mark.parametrize("M,k", [*itertools.product(range(13), range(5)), (60, 3)])
def test_combination_blocks_match_itertools(M, k):
    want = list(itertools.combinations(range(M), k))
    for size in (1, 7, 4096):
        blocks = list(measures._combination_blocks(M, k, size))
        assert all(0 < len(block) <= size for block in blocks)
        assert [tuple(row) for block in blocks for row in block.tolist()] == want


def test_lambda_star_scan_n3_memory():
    stabilizer_unit_matrix(3)  # the cached table is not the scan's memory
    tracemalloc.start()
    try:
        row = lambda_star_scan(2, 3)[-1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (row.k, row.n, row.witness) == (2, 3, (120, 128))
    assert peak < 8 * 2**20


def test_gram_lambda_min_is_the_scan_einsum():
    # one Gram formula: a scan row's witness states give back its
    # min_lambda exactly, and every 37th triple at n = 2 its own einsum
    # eigenvalue (a matmul Gram matrix differs in the last bit on some)
    rows = lambda_star_scan(3, 2) + lambda_star_scan(2, 3)[-1:]
    rows += lambda_star_scan(8, 3, "sampled", trials=200, seed=5)
    for row in rows:
        if row.k > 1 and row.witness is not None:
            stabs = enumerate_stabilizers(row.n)
            _, lam = gram_lambda_min([stabs[i] for i in row.witness])
            assert lam == row.min_lambda
    S = stabilizer_unit_matrix(2)
    stabs = enumerate_stabilizers(2)
    subsets = np.array(list(itertools.combinations(range(len(S)), 3)))[::37]
    V = S[subsets]
    lams = np.linalg.eigvalsh(np.einsum("kin,kjn->kij", V.conj(), V))[:, 0]
    for subset, want in zip(subsets, lams):
        assert gram_lambda_min([stabs[i] for i in subset])[1] == want


def test_lambda_star_scan_rows_do_not_depend_on_chunk(monkeypatch):
    runs = []
    for chunk in (7, 4096):
        monkeypatch.setattr(measures, "_CHUNK", chunk)
        runs.append(
            lambda_star_scan(3, 2)
            + lambda_star_scan(8, 3, "sampled", trials=300, seed=3)
        )
    assert runs[0] == runs[1]


@pytest.mark.parametrize("k_max,n_max,trials,seed", [(8, 3, 500, 2), (4, 4, 300, 3)])
def test_lambda_star_scan_sampled_matches_oracle(k_max, n_max, trials, seed):
    # replay the scan's draws: per n, per k >= 2 with k <= #states, trials
    # sorted draws without replacement from one generator
    rows = lambda_star_scan(k_max, n_max, "sampled", trials=trials, seed=seed)
    rng = np.random.default_rng(seed)
    by_kn = {(r.k, r.n): r for r in rows}
    for n in range(1, n_max + 1):
        S = stabilizer_unit_matrix(n)
        for k in range(2, k_max + 1):
            if k > len(S):
                draws = []
            else:
                draws = [np.sort(rng.choice(len(S), size=k, replace=False))
                         for _ in range(trials)]
            row = by_kn[(k, n)]
            assert row.samples == len(draws) and not row.exhaustive
            best, wit = _scan_oracle(S, np.reshape(draws, (-1, k)))
            assert (row.min_lambda, row.witness) == (best, wit)


def test_gram_eigenvalue_fidelity_floor():
    # for phi spanned by k independent stabilizers, F >= lambda_min(G)/k
    rng = np.random.default_rng(0)
    enum2 = enumerate_stabilizers(2)
    for _ in range(40):
        k = int(rng.integers(2, 4))
        idx = rng.choice(len(enum2), size=k, replace=False)
        gram, lam = gram_lambda_min([enum2[i] for i in idx])
        if lam < 1e-9:
            continue
        state = random_low_rank_state(2, k, np.random.default_rng(int(idx[0])))
        fid, _ = stabilizer_fidelity(state)
        # the bound must hold for the specific spanning set of that state,
        # so rebuild the state from this gram's stabilizers
        vecs = np.array(
            [stabilizer_to_statevector(enum2[i]).unit() for i in idx]
        )
        coeffs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        vec = coeffs @ vecs
        vec /= np.linalg.norm(vec)
        fid, _ = stabilizer_fidelity(StateVector.from_unit(vec))
        assert fid >= lam / k - 1e-9


def test_gowers_cauchy_schwarz_floor():
    for n in (1, 2, 3):
        for state in random_states(n, 5, seed=50 + n):
            fid, _ = stabilizer_fidelity(state)
            assert gowers3(state) >= fid**4 - 1e-9


def test_measure_report_roundtrip(t_state):
    report = measure_report(t_state)
    d = report.to_dict()
    assert d["rank"] == 2
    assert np.isclose(d["gowers3_pow8"], 0.75)
    assert np.isclose(d["fidelity"], math.cos(math.pi / 8) ** 2)


def test_measure_report_rank_bounds_at_n4():
    # above the rank-search cap the report gives a bound pair, and a state
    # with fidelity below 1 is not a stabilizer state, so its rank is >= 2
    haar = measure_report(make_state(FamilySpec("haar", 4, seed=0)).normalized())
    assert haar.fidelity < 0.5
    assert haar.rank == (2, 16)
    uniform = measure_report(make_state(FamilySpec("uniform", 4)))
    assert uniform.rank == (1, 16)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_measure_report_witness_index(n):
    # the report takes the scan's argmax index; searching the enumeration
    # for the witness state is the oracle, and the witness attains the fidelity
    table = enumerate_stabilizers(n)
    specs = [FamilySpec("basis", n), FamilySpec("t_tensor", n)]
    specs += [FamilySpec("haar", n, seed=s) for s in range(3)]
    for spec in specs:
        state = make_state(spec).normalized()
        fid, wit = stabilizer_fidelity(state)
        report = measure_report(state)
        assert report.fidelity == fid
        assert report.fidelity_witness == table.index(wit)
        assert wit == table[report.fidelity_witness]
        overlap = stabilizer_to_statevector(wit).overlap_sq(state)
        assert np.isclose(overlap, fid, atol=1e-12)


def test_counterexample_family():
    for seed in range(3):
        psi = counterexample_state(2, seed)
        assert psi.is_normalized(1e-9)
        fid, _ = stabilizer_fidelity(psi)
        assert fid >= 0.25 - 1e-9


def test_relations_experiment_structure():
    specs = [
        FamilySpec("uniform", 1),
        FamilySpec("t_tensor", 1),
        FamilySpec("haar", 2, seed=2),
    ]
    report = relations_experiment(specs, seed=0)
    assert len(report["rows"]) == 3
    t_row = report["rows"][1]
    assert t_row["rank"] == 2
    assert np.isclose(t_row["one_minus_gowers3"], 0.25, atol=1e-10)
    assert report["checks"]["rank1_is_stabilizer"]
    assert report["checks"]["counterexample_fidelity_floor"]
    again = relations_experiment(specs, seed=0)
    assert report == again  # deterministic under fixed seed


def test_relations_rejects_large_n():
    with pytest.raises(MeasureError):
        relations_experiment([FamilySpec("haar", 3, seed=0)])


def test_delta_k_probe_reports():
    out = delta_k_probe(2, 2, trials=10, seed=0)
    assert 0 < out["min_fidelity"] <= 1
    assert out["ref"] == 0.25
