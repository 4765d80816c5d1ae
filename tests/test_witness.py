"""Stage-by-stage checks of the stabilizer-witness extraction pipeline."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_real_states, random_states
from stab_lab import witness
from stab_lab.charfn import CharTable, char_function
from stab_lab.clifford import balance, stabilizer_at, stabilizer_to_statevector
from stab_lab.gf2 import AffineMap, LinMap, linmap_from_images, nullspace, span_points
from stab_lab.measures import counterexample_state, stabilizer_fidelity
from stab_lab.states import FamilySpec, StateVector, make_state, quadratic_parity
from stab_lab.witness import (
    PipelineError,
    best_affine_map,
    drop_shift,
    extract_quadratic,
    extract_stabilizer,
    graph_sum,
    sample_zeta,
    split_real,
    symmetrize_map,
    zero_diagonal_map,
)


def _quad_state(n, g_signs):
    return StateVector(n, np.asarray(g_signs, dtype=complex))


def _signs(n, q_upper):
    """(-1)^q(x) for every x, q in StabilizerState.q_upper's convention."""
    return 1 - 2 * quadratic_parity(np.arange(1 << n), q_upper)


XOR_STATE = _quad_state(2, [1, 1, 1, -1])  # phase x1*x2


# ---------------------------------------------------------------------------
# split_real


def test_split_real_passthrough():
    state = random_real_states(2, 1, seed=0)[0]
    out, nu, which = split_real(state)
    assert which == "real"
    assert np.isclose(nu, 1.0)
    assert np.allclose(out.g, state.g)


def test_split_imaginary_input():
    state = random_real_states(2, 1, seed=1)[0]
    rotated = StateVector(2, 1j * state.g)
    out, nu, which = split_real(rotated)
    assert which == "imaginary"
    assert np.isclose(nu, 1.0)
    assert np.allclose(out.g, state.g)


def test_split_real_t_state(t_state):
    out, nu, which = split_real(t_state)
    assert np.isclose(nu, 0.75)
    expected = np.array([1.0, math.sqrt(2) / 2]) / math.sqrt(0.75)
    assert np.allclose(out.g, expected)
    assert out.is_normalized(1e-12)


def test_split_real_guarantee():
    from stab_lab.measures import gowers3

    for state in random_states(2, 5, seed=2):
        out, nu, _ = split_real(state)
        assert gowers3(out) >= gowers3(state) / (2**8 * nu**4) - 1e-9


# ---------------------------------------------------------------------------
# zeta sampling


def test_zeta_uniform_state_is_forced():
    t = char_function(make_state(FamilySpec("uniform", 2)))
    zs = sample_zeta(t, delta=0.5, seed=0)
    assert zs.zeta == (0, 0, 0, 0)
    assert zs.L_value == 1.0


def test_zeta_quadratic_phase_is_linear_graph():
    t = char_function(XOR_STATE)
    zs = sample_zeta(t, delta=0.5, seed=0)
    # rows are point masses on the graph of the symplectic map of the phase
    m = LinMap(2, (0b10, 0b01))  # swap map from x1*x2
    assert zs.zeta == tuple(m(y) for y in range(4))
    assert zs.L_value == 1.0


def test_zeta_rejects_unbalanced_table():
    t = char_function(make_state(FamilySpec("basis", 2)))
    assert t.row_sums().max() > 3  # basis states are maximally unbalanced
    with pytest.raises(PipelineError):
        sample_zeta(t, delta=0.1)


def test_zeta_deterministic_and_valid():
    state = random_real_states(3, 1, seed=3)[0]
    _, balanced = balance(state, seed=0)
    t = char_function(balanced)
    a = sample_zeta(t, delta=0.05, seed=9)
    b = sample_zeta(t, delta=0.05, seed=9)
    assert a == b
    assert 0.0 <= a.L_value <= 1.0


@pytest.mark.parametrize("n", range(1, 7))
def test_zeta_equals_per_row_choice(n):
    # The oracle draws each row with mass through Generator.choice, in row
    # order from one generator; sample_zeta draws them all at once. The
    # sparse tables have empty rows and zero entries inside the others.
    N = 1 << n
    rng = np.random.default_rng(n)
    sparse = rng.random((10, N, N)) * (rng.random((10, N, N)) < 0.4) * (2 / N)
    sparse[:, rng.random(N) < 0.3] = 0.0
    tables = [_balanced_table(random_states(n, 1, seed=s)[0]) for s in range(10)]
    tables += [CharTable(n, f) for f in sparse]
    for seed, t in enumerate(tables):
        rows = t.row_sums()
        rng = np.random.default_rng(seed)
        zeta = [
            int(rng.choice(t.N, p=t.f[y] / rows[y])) if rows[y] > 0 else 0
            for y in range(t.N)
        ]
        assert sample_zeta(t, delta=0.05, seed=seed).zeta == tuple(zeta)


# ---------------------------------------------------------------------------
# affine map search


def test_best_affine_map_uniform():
    t = char_function(make_state(FamilySpec("uniform", 2)))
    amap, val = best_affine_map(t)
    assert amap.linear.cols == (0, 0)
    assert amap.shift == 0
    assert np.isclose(val, 4.0)


def test_best_affine_map_quadratic_phase():
    t = char_function(XOR_STATE)
    amap, val = best_affine_map(t)
    assert amap.linear.cols == (0b10, 0b01)
    assert amap.shift == 0
    assert np.isclose(val, 4.0)


def test_best_affine_map_t_state(t_state):
    t = char_function(t_state)
    amap, val = best_affine_map(t)
    assert np.isclose(val, 1.5)  # f(0,0) + max(f(1,0), f(1,1))
    assert amap.shift == 0


def _round(amap, t):
    """amap through the three rounding stages, each checking its law."""
    l0, _ = drop_shift(amap, t)
    ls, _ = symmetrize_map(l0, t)
    return zero_diagonal_map(ls, t)


def test_best_affine_map_beats_random_candidates():
    rng = np.random.default_rng(0)
    # a real-state table: the zero-diagonal law holds only there
    t = _balanced_table(random_states(3, 1, seed=6)[0])
    _, best_val = best_affine_map(t)
    for _ in range(50):
        cols = tuple(int(c) for c in rng.integers(0, 8, size=3))
        cand = AffineMap(LinMap(3, cols), int(rng.integers(0, 8)))
        assert _round(cand, t)[1] <= best_val + 1e-12


def test_best_affine_map_n5_beats_zero_map():
    state = random_states(5, 1, seed=1)[0]
    t = char_function(state)
    amap, val = best_affine_map(t)
    assert val > 0
    assert val >= graph_sum(t, AffineMap(LinMap.zero(5), 0)) - 1e-12


def _enumerate_affine_maps(t):
    """Oracle: score every (columns, shift) by gathering its graph, 4096 maps
    at a time, and summing over y in the recursion's tree order (pairs of
    adjacent y first); the first maximum wins and is valued by graph_sum."""
    n, N = t.n, t.N
    best_sum, best_idx = -1.0, None
    shifts = np.arange(N)
    for start in range(0, 1 << (n * n), 1 << 12):
        ms = np.arange(start, min(start + (1 << 12), 1 << (n * n)))
        cols = [(ms >> ((n - 1 - j) * n)) & (N - 1) for j in range(n)]
        images = span_points(cols)
        gathered = t.f[
            np.arange(N)[None, :, None],
            images[:, :, None] ^ shifts[None, None, :],
        ]  # [maps, y, shift]
        while gathered.shape[1] > 1:
            gathered = gathered[:, 0::2] + gathered[:, 1::2]
        vals = gathered[:, 0]
        local = int(np.argmax(vals))
        if float(vals.flat[local]) > best_sum:
            best_sum = float(vals.flat[local])
            best_idx = (int(ms[local // N]), int(local % N))
    m, shift = best_idx
    cols = tuple(int((m >> ((n - 1 - j) * n)) & (N - 1)) for j in range(n))
    amap = AffineMap(LinMap(n, cols), shift)
    return amap, graph_sum(t, amap)


def _random_table(n, kind, seed, scale=1.0):
    """A nonnegative table: "quarters" are quantized to quarters, which
    forces exact ties; "ulps" sit within a few ulps of 1, where sums in
    different orders round differently; "plain" are uniform."""
    rng = np.random.default_rng(seed)
    shape = (1 << n, 1 << n)
    if kind == "ulps":
        return CharTable(n, 1 + rng.integers(0, 4, shape) * 2.0**-52)
    f = rng.random(shape) * scale
    if kind == "quarters":
        f = np.round(f * 4) / 4
    return CharTable(n, f)


@st.composite
def random_tables(draw, n_max, n_min=1):
    """Half quarters, a quarter ulps, a quarter plain; see _random_table."""
    n = draw(st.integers(n_min, n_max))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["plain", "quarters", "quarters", "ulps"]))
    scale = 1.0 if kind == "ulps" else draw(st.sampled_from([1.0, 0.1, 3.0]))
    return _random_table(n, kind, seed, scale)


def _balanced_table(state):
    return char_function(balance(split_real(state)[0], seed=0)[1])


N4_CORPUS = {
    "uniform": lambda: char_function(make_state(FamilySpec("uniform", 4))),
    "t_tensor raw": lambda: char_function(make_state(FamilySpec("t_tensor", 4))),
    "t_tensor balanced": lambda: _balanced_table(
        make_state(FamilySpec("t_tensor", 4))
    ),
    "haar balanced": lambda: _balanced_table(random_states(4, 1, seed=3)[0]),
    "counterexample balanced": lambda: _balanced_table(counterexample_state(4, 0)),
    # Exact ties: 0/1 Lagrangian indicators and quarter-quantized tables;
    # near-ties: entries a few ulps apart
    **{
        f"stabilizer {k}": lambda k=k: char_function(
            stabilizer_to_statevector(stabilizer_at(4, k))
        )
        for k in (0, 20_000, 36_719)
    },
    **{
        f"{kind} {seed}": lambda kind=kind, seed=seed: _random_table(4, kind, seed)
        for kind in ("quarters", "ulps")
        for seed in (0, 1)
    },
}


def test_best_affine_map_constant_table_n4_stays_small():
    # Every symmetric zero-diagonal map ties exactly, so the smallest mask,
    # the zero map, wins; the scan's arrays must stay small on the way.
    t = CharTable(4, np.full((16, 16), 0.1))
    tracemalloc.start()
    try:
        amap, val = best_affine_map(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert amap == AffineMap(LinMap.zero(4), 0)
    assert val == _enumerate_affine_maps(t)[1]
    assert peak < 4 * 2**20


def _zero_diagonal_oracle(t):
    """Oracle for best_affine_map's scan: every symmetric zero-diagonal
    map in mask order (entry (i, j), i < j, at bit j(j-1)/2 + i), its graph
    gathered and summed over y = 0..N-1 in sequence; first maximum wins."""
    n, N = t.n, t.N
    pairs = [(i, j) for j in range(n) for i in range(j)]
    best_val, best = -math.inf, None
    for start in range(0, 1 << len(pairs), 1 << 12):
        masks = np.arange(start, min(start + (1 << 12), 1 << len(pairs)))
        cols = np.zeros((n, len(masks)), dtype=np.int64)
        for bit, (i, j) in enumerate(pairs):
            on = (masks >> bit) & 1
            cols[j] |= on << i
            cols[i] |= on << j
        gathered = t.f[np.arange(N), span_points(cols)]
        acc = gathered[:, 0]
        for y in range(1, N):
            acc = acc + gathered[:, y]
        local = int(np.argmax(acc))
        if acc[local] > best_val:
            best_val = float(acc[local])
            best = LinMap(n, tuple(int(c) for c in cols[:, local]))
    return AffineMap(best, 0), best_val


def _assert_scan_matches_oracle(t):
    amap, val = best_affine_map(t)
    want_map, want_val = _zero_diagonal_oracle(t)
    assert val == graph_sum(t, amap)
    if ((t.f * 4) % 1 == 0).all():  # exact sums: ties break by mask order
        assert amap == want_map
        assert val == want_val
    else:
        assert amap.shift == 0
        assert amap.linear.is_symmetric() and amap.linear.diagonal() == 0
        assert abs(val - want_val) <= 1e-12


# 80 examples draw 12 tables at n = 5 and 14 at n = 6, where the scan's
# levels are deepest
@settings(max_examples=80, deadline=None, derandomize=True)
@given(t=random_tables(6))
def test_zero_diagonal_scan_matches_oracle(t):
    _assert_scan_matches_oracle(t)


@pytest.mark.parametrize("name", sorted(N4_CORPUS))
def test_zero_diagonal_scan_matches_oracle_n4(name):
    _assert_scan_matches_oracle(N4_CORPUS[name]())


BALANCED_INPUTS = pytest.mark.parametrize(
    "state",
    [
        lambda n: random_states(n, 1, seed=n)[0],
        lambda n: make_state(FamilySpec("t_tensor", n)),
        lambda n: counterexample_state(n, 0),
    ],
    ids=["haar", "t_tensor", "counterexample"],
)


@pytest.mark.parametrize("n", [5, 6])
@BALANCED_INPUTS
def test_zero_diagonal_scan_matches_oracle_balanced(n, state):
    _assert_scan_matches_oracle(_balanced_table(state(n)))


def _scan_per_block_size(t, monkeypatch):
    """best_affine_map(t) with one top column per block, the arithmetic of a
    loop over the columns, and with every top column in one block."""
    out = []
    for cap in (1, 1 << 30):
        monkeypatch.setattr(witness, "_SCAN_BLOCK", cap)
        amap, val = best_affine_map(t)
        out.append((amap, val.hex()))
    return out


@pytest.mark.parametrize("n", [5, 6])
@BALANCED_INPUTS
def test_zero_diagonal_scan_ignores_block_size(n, state, monkeypatch):
    one, whole = _scan_per_block_size(_balanced_table(state(n)), monkeypatch)
    assert one == whole


def test_zero_diagonal_scan_ties_across_blocks(monkeypatch):
    # every map ties exactly on a constant table, so the first block's zero
    # map must win against each later block
    t = CharTable(6, np.full((64, 64), 0.1))
    for amap, _ in _scan_per_block_size(t, monkeypatch):
        assert amap == AffineMap(LinMap.zero(6), 0)


@pytest.mark.parametrize("n", [5, 6])
def test_zero_diagonal_scan_stays_small(n):
    t = _balanced_table(random_states(n, 1, seed=n)[0])
    tracemalloc.start()
    try:
        best_affine_map(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_zero_diagonal_scan_reaches_affine_optimum_small_n():
    # On balanced tables of real states the best symmetric zero-diagonal
    # map scores the exhaustive affine optimum: 60 of 60 inputs. The same
    # 30 inputs at n = 4 agree too, but enumerating them takes 4 s.
    for n in (2, 3):
        states = [make_state(FamilySpec("haar", n, seed=s)) for s in range(25)]
        states += [counterexample_state(n, s) for s in range(5)]
        for state in states:
            t = _balanced_table(state)
            scan_val = best_affine_map(t)[1]
            assert abs(scan_val - _enumerate_affine_maps(t)[1]) <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize(
    "state",
    [
        lambda n: random_states(n, 1, seed=n)[0],
        lambda n: counterexample_state(n, 0),
    ],
    ids=["haar", "counterexample"],
)
def test_rounding_any_affine_map_ends_no_heavier_than_scan(n, state):
    # Every one of the 2^(n^2 + n) affine maps, through the three stages
    t = _balanced_table(state(n))
    scan_val = best_affine_map(t)[1]
    for cols in itertools.product(range(t.N), repeat=n):
        for shift in range(t.N):
            amap = AffineMap(LinMap(n, cols), shift)
            assert _round(amap, t)[1] <= scan_val + 1e-9


# The corpus tables of real states: the stage laws are theorems only there
@pytest.mark.parametrize(
    "name",
    ["counterexample balanced", "haar balanced", "stabilizer 0",
     "t_tensor balanced", "uniform"],
)
def test_rounding_affine_optimum_ends_no_heavier_than_scan_n4(name):
    t = N4_CORPUS[name]()
    rounded = _round(_enumerate_affine_maps(t)[0], t)[1]
    assert rounded <= best_affine_map(t)[1] + 1e-9


# ---------------------------------------------------------------------------
# map rounding stages


def test_drop_shift_examples(t_state):
    t = char_function(t_state)
    shifted = AffineMap(LinMap.identity(1), 1)
    l0, val = drop_shift(shifted, t)
    assert l0 == LinMap.identity(1)
    assert np.isclose(val, 1.5)
    assert np.isclose(graph_sum(t, shifted), 0.5)


def test_drop_shift_property():
    rng = np.random.default_rng(4)
    for state in random_real_states(3, 5, seed=7):
        t = char_function(state)
        cols = tuple(int(c) for c in rng.integers(0, 8, size=3))
        amap = AffineMap(LinMap(3, cols), int(rng.integers(0, 8)))
        l0, val = drop_shift(amap, t)
        assert val >= graph_sum(t, amap) - 1e-12


def test_symmetrize_example():
    t = char_function(XOR_STATE)
    asym = LinMap(2, (0, 0b01))  # matrix [[0,1],[0,0]]
    ls, val = symmetrize_map(asym, t)
    # l + l^T is the swap, so Y = {0} and the zero completion is the zero
    # map; it meets the quadratic law's bound 2^2 / 4 with equality
    assert ls == LinMap.zero(2)
    assert np.isclose(val, 1.0)
    assert np.isclose(graph_sum(t, asym) ** 2 / t.N, val)


def test_symmetrize_identity_on_symmetric_input():
    t = char_function(XOR_STATE)
    sym = LinMap(2, (0b10, 0b01))
    ls, val = symmetrize_map(sym, t)
    assert ls == sym
    assert np.isclose(val, graph_sum(t, sym))


def test_symmetrize_eta_squared_law():
    rng = np.random.default_rng(8)
    for state in random_real_states(3, 5, seed=9):
        t = char_function(state)
        cols = tuple(int(c) for c in rng.integers(0, 8, size=3))
        l = LinMap(3, cols)
        ls, val = symmetrize_map(l, t)
        assert ls.is_symmetric()
        assert val >= graph_sum(t, l) ** 2 / t.N - 1e-9


def _symmetrize_by_p_basis(l):
    """Oracle for symmetrize_map: the bilinear form <., l .> written in the
    basis (basis of Y, complement of Y), mirrored where one argument lies
    off Y = ker(l + l^T) and zero where both do, mapped back: the zero
    completion."""
    n = l.n
    Y = nullspace(n, (l.add(l.transpose())).transpose().cols)
    p_basis = list(Y.basis) + list(Y.complement_basis())
    k = Y.dim
    B = np.zeros((n, n), dtype=int)
    for a in range(n):
        for b in range(n):
            if b < k:
                B[a, b] = (p_basis[a] & l(p_basis[b])).bit_count() & 1
            elif a < k:
                B[a, b] = (p_basis[b] & l(p_basis[a])).bit_count() & 1
    b_cols = tuple(int(sum((B[a, b] << a) for a in range(n))) for b in range(n))
    p_inv = linmap_from_images(n, [(p, 1 << a) for a, p in enumerate(p_basis)])
    return p_inv.transpose().compose(LinMap(n, b_cols).compose(p_inv))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_symmetrize_matches_p_basis_construction(n, seed, data):
    t = char_function(random_real_states(n, 1, seed=seed)[0])
    cols = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    l = LinMap(n, tuple(cols))
    ls, val = symmetrize_map(l, t)
    assert ls == _symmetrize_by_p_basis(l)
    assert val == graph_sum(t, ls)


def test_zero_diagonal_examples(t_state):
    # n=1: the only symmetric map with nonzero diagonal is [1]
    t = char_function(split_real(t_state)[0])
    lz, val = zero_diagonal_map(LinMap(1, (1,)), t)
    assert lz == LinMap.zero(1)
    assert val >= graph_sum(t, LinMap(1, (1,))) - 1e-12
    # n=2 identity: correction by v=(1,1) gives the swap map
    lz2 = zero_diagonal_map(
        LinMap.identity(2), char_function(XOR_STATE)
    )[0]
    assert lz2.cols == (0b10, 0b01)


def test_zero_diagonal_monotone_on_real_states():
    rng = np.random.default_rng(11)
    for state in random_real_states(3, 5, seed=12):
        t = char_function(state)
        # random symmetric map
        cols = [0, 0, 0]
        for i in range(3):
            for j in range(i, 3):
                if rng.integers(0, 2):
                    cols[j] |= 1 << i
                    cols[i] |= 1 << j
        l = LinMap(3, tuple(cols))
        lz, val = zero_diagonal_map(l, t)
        assert lz.diagonal() == 0
        assert val >= graph_sum(t, l) - 1e-12


def test_zero_diagonal_rejects_asymmetric():
    t = char_function(XOR_STATE)
    with pytest.raises(PipelineError):
        zero_diagonal_map(LinMap(2, (0, 0b01)), t)


def _on_graph(l):
    """The table that is 1 on each graph point of l and 0 elsewhere."""
    f = np.zeros((1 << l.n, 1 << l.n))
    f[np.arange(1 << l.n), l.images()] = 1
    return CharTable(l.n, f)


# Hand-made tables that no state has, each breaking one stage's law: the
# shift holds the only mass, the diagonal holds the only mass, and the
# zero completion of [[0,1],[0,0]] holds 2 of the 4^2 / 4 the law needs.
@pytest.mark.parametrize(
    "stage, args, law",
    [
        (drop_shift, (AffineMap(LinMap.zero(1), 1), CharTable(1, [[0, 1], [0, 0]])),
         "shift removal"),
        (zero_diagonal_map, (LinMap(1, (1,)), CharTable(1, [[0, 0], [0, 1]])),
         "zero-diagonal monotonicity"),
        (symmetrize_map, (LinMap(2, (0, 0b01)), _on_graph(LinMap(2, (0, 0b01)))),
         "quadratic law"),
    ],
    ids=["shift", "zero_diagonal", "quadratic"],
)
def test_stage_law_failure_names_the_law(stage, args, law):
    with pytest.raises(PipelineError, match=f"^{law} failed"):
        stage(*args)


# ---------------------------------------------------------------------------
# quadratic extraction


def test_extract_quadratic_exact_phase():
    l = LinMap(2, (0b10, 0b01))
    t = char_function(XOR_STATE)
    q_upper, corr = extract_quadratic(XOR_STATE.g, l, t)
    assert np.isclose(corr, 1.0)
    assert q_upper == (0b10, 0)
    assert np.allclose(_signs(2, q_upper), XOR_STATE.g.real)


def test_extract_quadratic_trivial():
    g = np.ones(4)
    t = char_function(_quad_state(2, g))
    q_upper, corr = extract_quadratic(g, LinMap.zero(2), t)
    assert np.isclose(corr, 1.0)
    assert q_upper == (0, 0)


def test_extract_quadratic_t_real_part(t_state):
    tilde, _, _ = split_real(t_state)
    t = char_function(tilde)
    q_upper, corr = extract_quadratic(tilde.g, LinMap.zero(1), t)
    expected = (2 / math.sqrt(3) + math.sqrt(2 / 3)) / 2
    assert np.isclose(corr, expected, atol=1e-9)
    assert q_upper == (0,)


def test_extract_quadratic_tie_takes_least_alpha():
    # |0> has |ghat(0)| = |ghat(1)|: both linear phases correlate equally
    zero = make_state(FamilySpec("basis", 1, x0=0))
    q_upper, corr = extract_quadratic(zero.g, LinMap.zero(1), char_function(zero))
    assert q_upper == (0,)
    assert np.isclose(corr, math.sqrt(2) / 2)


def test_extract_quadratic_validation():
    t = char_function(XOR_STATE)
    with pytest.raises(PipelineError):
        extract_quadratic(np.ones(4), LinMap.identity(2), t)  # nonzero diagonal
    with pytest.raises(PipelineError):
        extract_quadratic(np.ones(4) * 1j, LinMap.zero(2), t)  # complex input
    # a table that is not g's fails the fourth-moment identity
    with pytest.raises(PipelineError, match="fourth-moment"):
        extract_quadratic(np.ones(4), LinMap.zero(2), t)
    with pytest.raises(PipelineError):
        extract_quadratic(np.ones(4), LinMap.zero(2), CharTable(1, np.ones((2, 2))))


@pytest.mark.parametrize(
    "rows", [(0b110, 0b100, 0), (0b111, 0b100, 0b100)], ids=["strict", "diagonal"]
)
def test_quadratic_poly_cocycle(rows):
    # q(x+y) + q(x) + q(y) = <y, M x>; a diagonal (linear) part cancels
    m = LinMap(3, (0b110, 0b101, 0b011))  # symmetric closure of the strict rows
    vals = quadratic_parity(np.arange(8), rows)
    for x in range(8):
        for y in range(8):
            lhs = vals[x ^ y] ^ vals[x] ^ vals[y]
            rhs = bin(y & m(x)).count("1") & 1
            assert lhs == rhs


# ---------------------------------------------------------------------------
# full pipeline


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pipeline_recovers_quadratic_phase_states(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        signs = 1 - 2 * rng.integers(0, 2, size=1 << n)
        state = _quad_state(n, signs)
        # restrict to genuinely quadratic phases: check recovery overlap
        wit, overlap, trace = extract_stabilizer(state, seed=0)
        if np.isclose(overlap, 1.0, atol=1e-9):
            continue
        # non-quadratic sign patterns may legitimately score below 1, but
        # the trace contracts still hold; genuinely quadratic inputs are
        # covered by the deterministic cases below
        assert overlap > 0


def test_pipeline_exact_on_explicit_quadratics():
    cases = [
        _quad_state(2, [1, 1, 1, -1]),
        _quad_state(3, _signs(3, (0b111, 0b100, 0b100))),
        make_state(FamilySpec("uniform", 3)),
    ]
    # seeded real quadratic phases at n = 5, 6, where the map search is the
    # zero-diagonal scan
    for n in (5, 6):
        rng = np.random.default_rng(n)
        for _ in range(30):
            strict = [int(r) >> (i + 1) << (i + 1)
                      for i, r in enumerate(rng.integers(0, 1 << n, size=n))]
            alpha = int(rng.integers(0, 1 << n))
            rows = [r | (alpha & 1 << i) for i, r in enumerate(strict)]
            cases.append(_quad_state(n, _signs(n, rows)))
    for state in cases:
        wit, overlap, trace = extract_stabilizer(state, seed=0)
        assert np.isclose(overlap, 1.0, atol=1e-9)


def test_pipeline_t_state_bounds(t_state):
    wit, overlap, trace = extract_stabilizer(t_state, seed=0)
    floor = trace.nu * trace.correlation**2
    assert overlap >= floor - 1e-9
    assert 0.7285 <= overlap <= 0.85356
    fid, _ = stabilizer_fidelity(t_state)
    assert overlap <= fid + 1e-9


def test_pipeline_soundness_random():
    for n in (2, 3):
        for state in random_states(n, 3, seed=60 + n):
            wit, overlap, trace = extract_stabilizer(state, seed=1)
            fid, _ = stabilizer_fidelity(state)
            assert 0 < overlap <= fid + 1e-9
            vals = trace.stage_values
            assert vals["linear"] >= vals["affine"] - 1e-9
            assert vals["symmetric"] >= vals["linear"] ** 2 / state.N - 1e-9
            assert vals["zero_diagonal"] >= vals["symmetric"] - 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pipeline_symmetrization_keeps_linear_mass(n):
    """The map search returns a symmetric map, so the zero completion
    returns it and the symmetric stage keeps the linear stage's mass
    exactly."""
    specs = [FamilySpec("t_tensor", n), FamilySpec("uniform", n)]
    specs += [FamilySpec("haar", n, seed=seed) for seed in range(10)]
    for spec in specs:
        _, _, trace = extract_stabilizer(make_state(spec), seed=0)
        assert trace.stage_values["symmetric"] == trace.stage_values["linear"]


def test_pipeline_witness_is_the_returned_overlap(t_state):
    from stab_lab.clifford import stabilizer_to_statevector

    wit, overlap, _ = extract_stabilizer(t_state, seed=0)
    recomputed = stabilizer_to_statevector(wit).overlap_sq(t_state)
    assert np.isclose(recomputed, overlap, atol=1e-9)


def test_pipeline_requires_normalized():
    with pytest.raises(ValueError):
        extract_stabilizer(StateVector(1, np.array([2.0, 0], dtype=complex)))


def test_interpolation_overlap_trend():
    """Mean extracted overlap decreases as stabilizer -> Haar interpolation
    strength grows (Spearman correlation at most -0.8)."""
    from stab_lab.clifford import enumerate_stabilizers

    eps_grid = np.linspace(0.0, 1.0, 6)
    # a real anchor (no imaginary phases), so extraction is exact at eps=0
    stab = next(
        s
        for s in enumerate_stabilizers(3)
        if s.ell == 0 and len(s.basis) == 3 and any(s.q_upper)
    )
    means = []
    for eps in eps_grid:
        overlaps = []
        for seed in range(8):
            state = make_state(
                FamilySpec("interpolate", 3, seed=seed, eps=float(eps), stab=stab)
            )
            overlaps.append(extract_stabilizer(state, seed=0)[1])
        means.append(np.mean(overlaps))
    ranks_x = np.argsort(np.argsort(eps_grid))
    ranks_y = np.argsort(np.argsort(means))
    rho = np.corrcoef(ranks_x, ranks_y)[0, 1]
    assert rho <= -0.8
