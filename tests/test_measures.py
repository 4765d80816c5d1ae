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
from stab_lab import cli, measures
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
from stab_lab.states import (
    FamilySpec,
    StateVector,
    haar_unit,
    make_state,
    walsh_hadamard,
)

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


@pytest.mark.parametrize("n", range(1, 7))
def test_gowers_direct_low_degrees_match_walsh_identities(n):
    """U^1 is |ghat(0)|^2 and U^2 is sum_alpha |ghat(alpha)|^4."""
    corpus = random_states(n, 3, seed=50 + n) + [
        make_state(FamilySpec("t_tensor", n)),
        make_state(FamilySpec("basis", n, x0=(1 << n) - 1)),
    ]
    for state in corpus:
        ghat = walsh_hadamard(state.g)
        assert abs(gowers_norm_direct(state, 1) - abs(ghat[0]) ** 2) <= 1e-12
        assert abs(gowers_norm_direct(state, 2) - np.sum(np.abs(ghat) ** 4)) <= 1e-12


def test_gowers_degree_validation():
    for d, n in [(0, 2), (4, 2), (3, 5)]:
        state = make_state(FamilySpec("uniform", n))
        with pytest.raises(MeasureError):
            gowers_norm_direct(state, d)


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
    # a NaN delta fails every residual test, which would read as a miss
    for n, k in ((2, 50), (3, 100)):
        stab = stabilizer_to_statevector(stabilizer_at(n, k))
        with pytest.raises(MeasureError, match="nonnegative"):
            stabilizer_rank(stab, float("nan"))
    with pytest.raises(MeasureError, match="span tables capped at n = 2"):
        measures._span_table(3)


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


def _first_hit(U, w, depth, thr):
    """Oracle: the lexicographically first depth-subset of U's rows whose
    span leaves w a squared residual <= thr, or None. U and w arrive with
    the span of the chosen prefix already projected out; a row whose
    projected norm^2 is at most SINGULAR_TOL is dependent and adds nothing
    to the span, as a pseudo-inverse of the subset's Gram matrix would drop
    it. stabilizer_rank does not call it: it is the full pair sweep behind
    the floor pair step and the span table's pairs, and by its prefix
    recursion for r >= 3. Depth 1 is _row_hit. Depth 2 scores every pair,
    _PAIR_ROWS rows of i at a time (_pair_residual), and the first hit in
    row-major order is the first pair."""
    M, rows = len(U), measures._PAIR_ROWS
    Uc, nrm, inv, b, w2 = terms = measures._row_terms(U, w)
    if depth == 1:
        return measures._row_hit(terms, thr)
    if depth == 2:
        upper = ~np.tri(rows, dtype=bool)  # column c > row a of a block
        for lo in range(0, M - 1, rows):
            hi = min(lo + rows, M - 1)
            h = hi - lo
            G = Uc[lo:hi] @ U[lo:].T  # G[a, c] = <u_{lo+a}, u_{lo+c}>
            res = measures._pair_residual(
                G, b[lo:hi, None], inv[lo:hi, None], b[lo:], nrm[lo:], w2
            )
            ok = res <= thr
            ok[:, :h] &= upper[:h, :h]
            hits = np.flatnonzero(ok)
            if len(hits):
                a, c = divmod(int(hits[0]), M - lo)
                return lo + a, lo + c
        return None
    for p in range(M - depth + 1):
        rest = U[p + 1:] - np.outer(U[p + 1:] @ U[p].conj() * inv[p], U[p])
        hit = _first_hit(rest, w - b[p] * inv[p] * U[p], depth - 1, thr)
        if hit is not None:
            return (p,) + tuple(p + 1 + h for h in hit)
    return None


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
    # stabilizer_rank does not call _first_hit, the oracle of its steps, so
    # drive the prefix recursion directly, on tables that start with a
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


@pytest.mark.parametrize(
    "n, r, count", [(1, 1, 6), (2, 1, 60), (2, 2, 710), (2, 3, 1500)]
)
def test_span_tables(n, r, count):
    # against an SVD of every r-subset in itertools.combinations order: each
    # independent subset's span, keyed by the stabilizer rows it holds, is
    # held exactly once, in the table's r group, under the first subset that
    # spans it, as the quadratic form of its complement projector; the build
    # stays small
    S = stabilizer_unit_matrix(n)
    M, N = S.shape
    measures._span_table.cache_clear()
    tracemalloc.start()
    try:
        A, subsets, index = measures._span_table(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert A.shape == (len(subsets), N * N) and len(index) == N * N
    # C-contiguous for the one product, and shared read-only
    assert A.flags.c_contiguous and not A.flags.writeable
    sizes = [len(subset) for subset in subsets]
    assert sizes == sorted(sizes) and set(sizes) == set(range(1, N))
    group = [k for k, size in enumerate(sizes) if size == r]
    assert len(group) == count
    combos = np.array(list(itertools.combinations(range(M), r)))
    _, sv, vh = np.linalg.svd(S[combos])
    independent = sv[:, -1] > 1e-6
    # the conjugated rows of vh past r: an orthonormal basis C of the
    # complement of the subset's span, so ||C y||^2 is y's squared residual
    comps = vh[independent, r:].conj()
    held = np.sum(np.abs(comps @ S.T) ** 2, axis=1) < 1e-12
    first = {}
    for subset, rows, comp in zip(combos[independent].tolist(), held, comps):
        first.setdefault(np.packbits(rows).tobytes(), (tuple(subset), comp))
    held = A[group] @ measures._form_coords(S, index).T < 1e-12
    assert [np.packbits(rows).tobytes() for rows in held] == list(first)
    assert [subsets[k] for k in group] == [subset for subset, _ in first.values()]
    # each row's form is ||C y||^2 on random unit y
    rng = np.random.default_rng(31 + r)
    y = rng.standard_normal((count, N)) + 1j * rng.standard_normal((count, N))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    form = np.einsum("kd,kd->k", A[group], measures._form_coords(y, index))
    comps = np.array([comp for _, comp in first.values()])
    residual = np.sum(np.abs(comps @ y[:, :, None]) ** 2, axis=(1, 2))
    assert np.abs(form - residual).max() < 1e-14


@pytest.mark.parametrize("n, r", [(1, 1), (2, 1), (2, 2), (2, 3)])
def test_span_tables_reach_every_span(n, r):
    # a seeded complex combination of each span's first subset has rank r
    # and that subset as its witness, so no span is shadowed
    rng = np.random.default_rng(28 + r)
    for subset in measures._span_table(n)[1]:
        if len(subset) == r:
            state = _combination(n, list(subset), True, rng)
            assert stabilizer_rank(state) == (r, subset)


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


def test_rank_pairs_across_block_edges_n3():
    # the full pair sweep, the oracle of the n = 3 floor pair step, scores
    # _PAIR_ROWS rows of i per block: pairs whose i is the last row of a
    # block, the first row of the next or of the short last block, and pairs
    # that end at the last row; the first, fourth and last are their own
    # first witness
    assert measures._PAIR_ROWS == 32  # the pairs below sit on 32-row edges
    S = stabilizer_unit_matrix(3)
    thr = RANK_RESIDUAL_TOL**2 + RANK_RESIDUAL_TOL
    rng = np.random.default_rng(4)
    cases = [
        ((31, 32), (31, 32)),
        ((32, 33), (4, 6)),
        ((31, 1079), (31, 1046)),
        ((32, 40), (32, 40)),
        ((1056, 1079), (1056, 1079)),
    ]
    for pair, witness in cases:
        state = _combination(3, list(pair), True, rng)
        assert _first_hit(S, state.unit(), 2, thr) == witness
        got = stabilizer_rank(state)
        assert got == _subset_rank(state)
        assert got == (2, witness)


def _floor_step(state, delta):
    """The n = 3 floor pair step and the full sweep it replaces."""
    S = stabilizer_unit_matrix(state.n)
    v = state.unit()
    thr = max(delta, RANK_RESIDUAL_TOL) ** 2 + RANK_RESIDUAL_TOL
    terms = measures._row_terms(S, v)
    return measures._floor_pair_hit(S, terms, thr), _first_hit(S, v, 2, thr)


def test_floor_pair_step_matches_sweep_n3():
    # seeded Haar states and real and complex combinations of 1-3
    # stabilizers, over the delta grid: the step is the sweep's first hit.
    # stabilizer_rank meets _subset_rank where the sweep hits early or the
    # rank is 1; elsewhere the oracle's full scan (1.2 s a miss) is left to
    # test_rank_matches_subset_oracle_n3, and the sweep stands for it
    M = len(stabilizer_unit_matrix(3))
    rng = np.random.default_rng(26)
    states = random_states(3, 3, seed=26)
    for k in (1, 2, 3):
        for complex_coeffs in (False, True):
            picks = list(rng.choice(M, size=k, replace=False))
            states.append(_combination(3, picks, complex_coeffs, rng))
    oracle_calls = 0
    for state in states:
        for delta in (0.0, 1e-6, 0.1, 0.3, 0.6, 0.95, 2.0):
            step, sweep = _floor_step(state, delta)
            assert step == sweep
            got = stabilizer_rank(state, delta)
            if got[0] == 1 or (step is not None and step[0] < 64):
                oracle_calls += 1
                assert got == _subset_rank(state, delta)
            else:
                assert got == ((2, step) if step else ((3, 8), None))
    assert oracle_calls >= 30


def _edge_state(S, i, j):
    """The unit vector of span{s_i, s_j} that overlaps the pair least:
    |<s_i|v>|^2 + |<s_j|v>|^2 = 1 - |g|, the least eigenvalue of the pair's
    Gram matrix, with g = <s_i|s_j>."""
    g = np.vdot(S[i], S[j])
    vec = S[i] - np.conj(g) / abs(g) * S[j]
    return vec / np.linalg.norm(vec)


def _beta_sum(S, v, i, j, delta):
    """beta_i + beta_j, the pair's share that the Gram floor bounds."""
    thr = max(delta, RANK_RESIDUAL_TOL) ** 2 + RANK_RESIDUAL_TOL
    b = S.conj() @ v
    return (abs(b[i]) ** 2 + abs(b[j]) ** 2) / (np.vdot(v, v).real - thr)


@pytest.mark.parametrize(
    "pair", [(0, 568), (1, 1053), (5, 999), (916, 1069), (1006, 1033)]
)
def test_floor_pair_step_overlap_floor_edge_n3(pair):
    # |g|^2 = 1/8: the state of the pair's plane on the floor 1 - |g|, whose
    # first witness is the pair, the least of the two stabilizers its plane
    # holds
    S = stabilizer_unit_matrix(3)
    i, j = pair
    assert np.isclose(abs(np.vdot(S[i], S[j])) ** 2, 1 / 8, atol=1e-12)
    v = _edge_state(S, i, j)
    floor = 1 - 2**-1.5
    assert 1 <= _beta_sum(S, v, i, j, 0.0) / floor <= 1 + 1e-8
    state = StateVector.from_unit(v)
    assert _floor_step(state, 0.0) == (pair, pair)
    assert stabilizer_rank(state) == (2, pair)


@pytest.mark.parametrize("pair", [(0, 120), (1, 433), (2, 497), (4, 179)])
def test_floor_pair_step_half_floor_edge_n3(pair):
    # |g|^2 = 1/4: the state of the pair's plane on the floor 1/2 is the
    # third stabilizer of the plane, so it is rank 1. Tilt it in the plane
    # by 0.6 thr and lift it off the plane by 0.5 thr (squared norms, delta
    # = 0.01): the pair leaves it within thr, no single stabilizer does, and
    # the pair's beta sum is within 4e-4 of 1/2, below a floor raised to
    # 0.51. Many pairs near the third stabilizer hit too, so only pairs that
    # start at a basis state are their state's first witness
    S = stabilizer_unit_matrix(3)
    i, j = pair
    assert np.isclose(abs(np.vdot(S[i], S[j])) ** 2, 1 / 4, atol=1e-12)
    delta = 0.01
    thr = delta**2 + RANK_RESIDUAL_TOL
    low = _edge_state(S, i, j)
    assert np.isclose(np.abs(S.conj() @ low).max(), 1, atol=1e-12)
    high = S[i] - np.vdot(low, S[i]) * low  # in the plane, orthogonal to low
    high /= np.linalg.norm(high)
    Q, _ = np.linalg.qr(S[[i, j]].T)
    off = haar_unit(3, np.random.default_rng(i))
    off -= Q @ (Q.conj().T @ off)
    off /= np.linalg.norm(off)
    tilt, lift = 0.6 * thr, 0.5 * thr
    v = math.sqrt(1 - tilt - lift) * low + math.sqrt(tilt) * high
    v += math.sqrt(lift) * off
    assert 0.5 <= _beta_sum(S, v, i, j, delta) <= 0.5 + 4e-4
    state = StateVector.from_unit(v)
    assert _floor_step(state, delta) == (pair, pair)
    assert stabilizer_rank(state, delta) == (2, pair)


def _near_pairs(n):
    """The table's Gram matrix and its pairs i < j at |g|^2 = 1/2, the
    largest overlap of distinct stabilizer states, in lexicographic order."""
    S = stabilizer_unit_matrix(n)
    gram = S.conj() @ S.T
    i, j = np.nonzero(np.triu(np.abs(np.abs(gram) ** 2 - 0.5) < 0.125, 1))
    return gram, i, j


def _plane_states(gram, i, j):
    """The table states in the plane of the near pairs (i[k], j[k]), as a
    bool row per pair: s lies in span{s_i, s_j} when its squared overlaps
    with s_i and with the unit 2^(1/2) (s_j - g s_i), g = <s_i|s_j>, add
    up to 1."""
    g = gram[i, j][:, None]
    w = np.abs(gram[i]) ** 2 + 2 * np.abs(gram[j] - g.conj() * gram[i]) ** 2
    return w > 1 - 1e-9


@pytest.mark.parametrize("n, count", [(1, 12), (2, 360), (3, 15120)])
def test_near_pairs_partition(n, count):
    # the one floor max(1/2, 1 - |g|) of the pair step rests on this: every
    # pair of distinct table states sits at |g|^2 = 1/2 or at |g|^2 <= 1/4
    gram, i, j = _near_pairs(n)
    assert len(i) == count
    g2 = np.abs(gram) ** 2
    assert np.abs(g2[i, j] - 0.5).max() < 1e-12
    others = np.triu(np.ones(g2.shape, bool), 1)
    others[i, j] = False
    assert g2[others].max() <= 0.25 + 1e-12


def test_near_pairs_are_never_first_witness_n3():
    # why the step may hold near pairs to the floor 1/2: at n <= 3 a near
    # pair's plane holds six table states, and the least pair of them is
    # orthogonal and comes before the near pair, so it leaves a state within
    # thr whenever the near pair does (in exact arithmetic). Checked for
    # every near pair
    for n in (1, 2, 3):
        gram, I, J = _near_pairs(n)
        for lo in range(0, len(I), 1024):
            i, j = I[lo:lo + 1024], J[lo:lo + 1024]
            rows, cols = np.nonzero(_plane_states(gram, i, j))
            assert np.array_equal(np.bincount(rows, minlength=len(i)), [6] * len(i))
            members = cols.reshape(-1, 6)  # each row sorted, as nonzero gives it
            first, second = members[:, 0], members[:, 1]
            assert np.abs(gram[first, second]).max() < 1e-12
            assert np.all((first < i) | ((first == i) & (second < j)))
    # and the state of a near pair's plane on its own floor 1 - 2^(-1/2)
    # has that orthogonal pair as its witness
    S = stabilizer_unit_matrix(3)
    _, I, J = _near_pairs(3)
    for i, j in zip(I[::1009].tolist(), J[::1009].tolist()):
        state = StateVector.from_unit(_edge_state(S, i, j))
        step, sweep = _floor_step(state, 0.0)
        assert step == sweep
        assert step < (i, j)
        assert abs(np.vdot(S[step[0]], S[step[1]])) < 1e-12


def _sweep_residual(S, v, i, j):
    """v's squared residual against span{s_i, s_j}, i < j, with the very
    bits _first_hit's sweep computes it with: the same block product and
    _pair_residual."""
    Uc, nrm, inv, b, w2 = measures._row_terms(S, v)
    lo = i - i % measures._PAIR_ROWS
    hi = min(lo + measures._PAIR_ROWS, len(S) - 1)
    G = Uc[lo:hi] @ S[lo:].T
    res = measures._pair_residual(
        G, b[lo:hi, None], inv[lo:hi, None], b[lo:], nrm[lo:], w2
    )
    return float(res[i - lo, j - lo])


def _in_place_pair_residual(G, b_i, inv_i, b_j, nrm_j, w2):
    """_pair_residual as the rank search once ran it, in place in G and in
    two float buffers and a bool one: the reference for its bytes."""
    nj, res, ok = np.empty(G.shape), np.empty(G.shape), np.empty(G.shape, bool)
    np.abs(G, out=nj)
    nj **= 2
    nj *= inv_i
    np.subtract(nrm_j, nj, out=nj)
    np.conjugate(G, out=G)
    G *= b_i * inv_i
    np.subtract(b_j, G, out=G)
    w2p = w2 - np.abs(b_i) ** 2 * inv_i
    np.abs(G, out=res)
    res **= 2
    np.greater(nj, SINGULAR_TOL, out=ok)
    np.divide(res, nj, out=res, where=ok)
    np.logical_not(ok, out=ok)
    np.copyto(res, 0.0, where=ok)
    np.subtract(w2p, res, out=res)
    return res


def test_pair_residual_keeps_the_in_place_bytes_n3():
    # the closed form applies the in-place protocol's operations in its
    # order, so every residual has the same bytes: 5 Haar states x 12 blocks
    S = stabilizer_unit_matrix(3)
    M = len(S)
    rng = np.random.default_rng(29)
    for _ in range(5):
        Uc, nrm, inv, b, w2 = measures._row_terms(S, haar_unit(3, rng))
        for lo in rng.choice(np.arange(0, M - 1, measures._PAIR_ROWS), 12, False):
            hi = min(lo + measures._PAIR_ROWS, M - 1)
            args = b[lo:hi, None], inv[lo:hi, None], b[lo:], nrm[lo:], w2
            G = Uc[lo:hi] @ S[lo:].T
            want = _in_place_pair_residual(G.copy(), *args)
            assert measures._pair_residual(G, *args).tobytes() == want.tobytes()


def test_floor_pair_step_at_near_plane_ties_n3():
    # the step's caveat: states at squared distance t from a near pair's
    # plane, with thr at that residual as the sweep computes it and at the
    # floats on either side. Where the step and the sweep differ, the sweep
    # took a near pair because its plane's orthogonal pair, which comes
    # first, rounded just above thr; the step then finds a later pair of the
    # plane within thr, or none
    S = stabilizer_unit_matrix(3)
    gram, I, J = _near_pairs(3)
    rng = np.random.default_rng(27)
    differ = 0
    for k in rng.choice(len(I), 40, replace=False).tolist():
        i, j = int(I[k]), int(J[k])
        Q, _ = np.linalg.qr(S[[i, j]].T)
        x = Q @ (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        off = haar_unit(3, rng)
        off -= Q @ (Q.conj().T @ off)
        t = float(rng.choice([1e-3, 0.02]))
        v = math.sqrt(1 - t) * x / np.linalg.norm(x)
        v += math.sqrt(t) * off / np.linalg.norm(off)
        tie = _sweep_residual(S, v, i, j)
        terms = measures._row_terms(S, v)
        for thr in (np.nextafter(tie, 0), tie, np.nextafter(tie, 1)):
            step = measures._floor_pair_hit(S, terms, thr)
            sweep = _first_hit(S, v, 2, thr)
            if step == sweep:
                continue
            differ += 1
            p, q = sweep
            assert np.isclose(abs(gram[p, q]) ** 2, 0.5, atol=1e-12)
            members = np.flatnonzero(_plane_states(gram, np.array([p]), np.array([q])))
            first = tuple(members[:2].tolist())
            assert abs(gram[first]) < 1e-12 and first < sweep
            assert _sweep_residual(S, v, *first) > thr
            if step is not None:
                assert step > sweep
                assert _sweep_residual(S, v, *step) <= thr
    assert differ  # the caveat is real: rounding ties do occur


def _long_residual(S, v, pair):
    """v's squared residual against the span of S's rows in pair, by
    Gram-Schmidt in long double: a reference for rounding ties."""
    w = v.astype(np.clongdouble)
    basis = []
    for k in pair:
        u = S[k].astype(np.clongdouble)
        for e in basis:
            u = u - np.sum(e.conj() * u) * e
        basis.append(u / np.sqrt(np.sum(np.abs(u) ** 2)))
        w = w - np.sum(basis[-1].conj() * w) * basis[-1]
    return float(np.sum(np.abs(w) ** 2))


def test_span_table_at_plane_ties_n2():
    # the span table's caveat: its quadratic form rounds differently from
    # the sweep's closed form. States at squared distance t from the plane
    # of a random pair, with thr at that pair's residual as the sweep
    # computes it and at the floats on either side. No single stabilizer
    # state is within thr, so the table's first hit, when it names a pair,
    # is stabilizer_rank's r = 2 answer at that thr. Where it and the sweep
    # differ, the one that skipped the earlier of the two named pairs
    # computed that pair, or its plane, just above thr: its exact residual
    # is within 8 eps of thr (2.5 eps was the most seen). The later pair, if
    # any, may span another plane well inside thr; it is within thr + 8 eps
    S = stabilizer_unit_matrix(2)
    pairs = list(itertools.combinations(range(len(S)), 2))
    rng = np.random.default_rng(28)
    tol = 8 * np.finfo(float).eps
    differ = 0
    for k in rng.choice(len(pairs), 40, replace=False).tolist():
        i, j = pairs[k]
        Q, _ = np.linalg.qr(S[[i, j]].T)
        x = Q @ (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        off = haar_unit(2, rng)
        off -= Q @ (Q.conj().T @ off)
        t = float(rng.choice([1e-3, 0.02]))
        v = math.sqrt(1 - t) * x / np.linalg.norm(x)
        v += math.sqrt(t) * off / np.linalg.norm(off)
        tie = _sweep_residual(S, v, i, j)
        for thr in (np.nextafter(tie, 0), tie, np.nextafter(tie, 1)):
            hit = measures._table_hit(2, v, thr)
            assert hit is None or len(hit) >= 2
            step = hit if hit is not None and len(hit) == 2 else None
            sweep = _first_hit(S, v, 2, thr)
            if step == sweep:
                continue
            differ += 1
            first, *later = sorted(p for p in (step, sweep) if p is not None)
            assert abs(_long_residual(S, v, first) - thr) <= tol
            assert all(_long_residual(S, v, p) <= thr + tol for p in later)
    assert differ  # the caveat is real: rounding ties do occur


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_table_opens_with_the_computational_basis(n):
    # stabilizer_rank's r = N step rests on this: rows 0..N-1 span C^N
    N = 2**n
    assert np.array_equal(stabilizer_unit_matrix(n)[:N], np.eye(N))


@pytest.mark.parametrize("n", [1, 2])
def test_rank_full_step_is_the_basis(n):
    # Haar states miss every r < N; the r = N answer is the first N-subset,
    # as the prefix recursion finds it
    S = stabilizer_unit_matrix(n)
    N = 2**n
    thr = RANK_RESIDUAL_TOL**2 + RANK_RESIDUAL_TOL
    for state in random_states(n, 5, seed=40 + n):
        v = state.unit()
        assert stabilizer_rank(state) == (N, tuple(range(N)))
        assert _first_hit(S, v, N, thr) == tuple(range(N))
        assert all(_first_hit(S, v, r, thr) is None for r in range(1, N))


def test_rank_miss_n3_memory():
    # the floor pair step works _PAIR_ROWS rows of the sorted table and
    # _SCORE_CHUNK candidates at a time: a warm miss peaked at 1.14 MiB.
    # It keeps no cache of its own; the table is built before the trace, by
    # a first call
    state = random_states(3, 1, seed=12)[0]
    assert stabilizer_rank(state) == ((3, 8), None)
    tracemalloc.start()
    try:
        rank, wit = stabilizer_rank(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rank, wit) == ((3, 8), None)
    assert peak < 1.4 * 2**20  # the measured peak and a 0.26 MiB margin


def test_gram_known_values():
    _, lam = gram_lambda_min([ZERO, ONE])
    assert np.isclose(lam, 1.0, atol=1e-12)
    gram, lam = gram_lambda_min([ZERO, PLUS])
    assert np.isclose(abs(gram[0, 1]), 1 / math.sqrt(2), atol=1e-12)
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
    assert gram.shape == (4, 4) and not gram.flags.writeable
    assert np.allclose(gram, gram.conj().T)
    assert np.allclose(np.diag(gram), 1.0)
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
    rows = lambda_star_scan(2, 2)
    by_kn = {(r.k, r.n): r for r in rows}
    assert by_kn[(1, 1)].min_lambda == 1.0
    assert np.isclose(by_kn[(2, 1)].min_lambda, 1 - 1 / math.sqrt(2), atol=1e-12)
    assert np.isclose(by_kn[(2, 2)].min_lambda, 1 - 1 / math.sqrt(2), atol=1e-12)


def test_lambda_star_scan_budget_and_sampled(monkeypatch):
    # the sizes, the caps (n = 5 has no table) and trials are checked before
    # any table is built; trials even when every row would be exhaustive
    requested = []

    def recording_table(n):
        requested.append(n)
        return stabilizer_unit_matrix(n)

    monkeypatch.setattr(measures, "stabilizer_unit_matrix", recording_table)
    for k_max, n_max in ((0, 1), (2, 0), (9, 1), (2, 5)):
        with pytest.raises(MeasureError):
            lambda_star_scan(k_max, n_max)
    for trials in (-5, 0, MAX_TRIALS + 1):
        with pytest.raises(MeasureError, match="trials"):
            lambda_star_scan(2, 1, trials=trials)
    assert requested == []
    # each row chooses its scan: the budget's rows are exhaustive, and
    # (3, 3), above it, is sampled
    rows = lambda_star_scan(3, 3, trials=50, seed=1)
    assert [(r.k, r.n, r.exhaustive, r.samples) for r in rows] == [
        (k, n, (k, n) != (3, 3), 50 if (k, n) == (3, 3) else 0)
        for n in (1, 2, 3) for k in (1, 2, 3)
    ]
    # the rows of an all-exhaustive scan, made without a generator
    def no_generator(seed):
        raise AssertionError("an all-exhaustive scan made a generator")

    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", no_generator)
        assert rows[:6] == lambda_star_scan(3, 2)
    # a pair of distinct stabilizer states has |<s|t>| <= 2^(-1/2)
    sampled = lambda_star_scan(2, 4, trials=50, seed=1)[-1]
    assert (sampled.k, sampled.n, sampled.exhaustive, sampled.samples) == (
        2, 4, False, 50
    )
    assert sampled.min_lambda >= 1 - 1 / math.sqrt(2) - 1e-9


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
    # a 1 x 1 Gram matrix of a unit vector is [1], so every scan gives the
    # k = 1 rows lambda_min 1.0 on state 0, though the computed diagonal
    # reads 1 - 2^-52 at state 2 for n = 1 and at state 8 for n = 3
    for n, state in ((1, 2), (3, 8)):
        V = stabilizer_unit_matrix(n)[[[state]]]
        assert np.linalg.eigvalsh(np.einsum("kin,kjn->kij", V.conj(), V))[0, 0] < 1
    rows = lambda_star_scan(3, 2) + lambda_star_scan(3, 3, trials=20)
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
    rows += lambda_star_scan(8, 3, trials=200, seed=5)
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
    # (2, 3) leaves the budget here, so that every (k, 3) row samples: in
    # blocks of 7 the exhaustive (2, 3) row would take 83,000 blocks. At
    # seed 4 the sampled (2, 3) minimum is met in several blocks of 7, so
    # the earlier block must keep the tie
    budget = measures._EXHAUSTIVE_BUDGET - {(2, 3)}
    monkeypatch.setattr(measures, "_EXHAUSTIVE_BUDGET", budget)
    runs = []
    for chunk in (7, 4096):
        monkeypatch.setattr(measures, "_CHUNK", chunk)
        runs.append(
            lambda_star_scan(3, 2)
            + lambda_star_scan(8, 3, trials=300, seed=3)
            + lambda_star_scan(8, 3, trials=300, seed=4)
        )
    assert runs[0] == runs[1]
    assert [r.exhaustive for r in runs[0][-7:]] == [False] * 7


@pytest.mark.parametrize("k_max,n_max,trials,seed", [(8, 3, 500, 2), (4, 4, 300, 3)])
def test_lambda_star_scan_sampled_matches_oracle(k_max, n_max, trials, seed):
    # replay the scan's draws: per n, per k >= 2 outside the exhaustive
    # budget with k <= #states, trials sorted draws without replacement
    # from one generator
    rows = lambda_star_scan(k_max, n_max, trials=trials, seed=seed)
    rng = np.random.default_rng(seed)
    by_kn = {(r.k, r.n): r for r in rows}
    for n in range(1, n_max + 1):
        S = stabilizer_unit_matrix(n)
        for k in range(2, k_max + 1):
            if (k, n) in measures._EXHAUSTIVE_BUDGET:
                assert by_kn[(k, n)].exhaustive
                continue
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


def test_low_rank_size_caps_come_before_the_table(capsys):
    # k outside [1, 36720] at n = 4, or n above the table's cap, is refused
    # before the stabilizer table is looked up, let alone built
    before = stabilizer_unit_matrix.cache_info()
    rng = np.random.default_rng(0)
    for k in (0, 36721, 40000):
        want = rf"^k must be in \[1, 36720\] at n = 4, got {k}$"
        with pytest.raises(MeasureError, match=want):
            random_low_rank_state(4, k, rng)
    with pytest.raises(MeasureError, match=r"n must be in \[1, 4\]"):
        random_low_rank_state(5, 2, rng)
    assert cli.main(["calibrate", "--n", "4", "--k", "40000"]) == cli.EXIT_USAGE
    assert "k must be in [1, 36720] at n = 4, got 40000" in capsys.readouterr().err
    assert stabilizer_unit_matrix.cache_info() == before
