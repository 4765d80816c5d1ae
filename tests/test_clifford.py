"""Clifford circuits, Weyl operators, and the stabilizer canonical form."""

import functools
import itertools
import json
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from conftest import random_real_states, random_states
from stab_lab import clifford
from stab_lab.clifford import (
    MAX_CIRCUIT_QUBITS,
    BalanceError,
    CliffordCircuit,
    GateError,
    StabilizerState,
    apply_clifford,
    apply_weyl,
    balance,
    enumerate_stabilizers,
    expected_stabilizer_count,
    fourth_moment,
    random_real_clifford,
    stabilizer_at,
    stabilizer_from_statevector,
    stabilizer_to_statevector,
    stabilizer_unit_matrix,
    stabilizer_vectors,
    weyl_expectation,
)
from stab_lab.gf2 import all_subspaces, dot
from stab_lab.states import FamilySpec, StateVector, make_state


def _gate_matrix(n, gate):
    """Dense unitary oracle for a single gate."""
    N = 1 << n
    H1 = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    Z1 = np.diag([1, -1])
    S1 = np.diag([1, 1j])
    U = np.eye(N, dtype=complex)
    if gate[0] in ("H", "Z", "S"):
        single = {"H": H1, "Z": Z1, "S": S1}[gate[0]]
        mats = [single if i == gate[1] else np.eye(2) for i in range(n)]
        # qubit i is bit i of the index, so kron in reverse order
        U = mats[-1]
        for m in mats[-2::-1]:
            U = np.kron(U, m)
    else:
        c, t = gate[1], gate[2]
        U = np.zeros((N, N))
        for x in range(N):
            U[x ^ ((((x >> c) & 1)) << t), x] = 1
    return U


@pytest.mark.parametrize("seed", range(5))
def test_apply_clifford_matches_dense_oracle(seed):
    rng = random.Random(seed)
    n = rng.choice([1, 2, 3])
    gates = []
    for _ in range(6):
        kind = rng.choice(["H", "CNOT"])
        if kind == "CNOT" and n > 1:
            i, j = rng.sample(range(n), 2)
            gates.append(("CNOT", i, j))
        elif kind == "H":
            gates.append(("H", rng.randrange(n)))
    circuit = CliffordCircuit(n, tuple(gates))
    state = random_states(n, 1, seed=seed)[0]
    out = apply_clifford(circuit, state)
    vec = state.unit()
    for gate in gates:
        vec = _gate_matrix(n, gate) @ vec
    assert np.allclose(out.unit(), vec)


def _apply_clifford_oracle(circuit, state):
    """The reference apply_clifford is checked against: one decoded gate at
    a time on a numpy array, with fresh index arrays and masks per gate."""
    if circuit.n != state.n:
        raise GateError("circuit and state sizes differ")
    g = np.array(state.g, dtype=complex)
    N = state.N
    idx = np.arange(N)
    for gate in circuit.gates:
        if gate[0] == "H":
            q = 1 << gate[1]
            lo = (idx & q) == 0
            a, b = g[idx[lo]], g[idx[lo] | q]
            g[idx[lo]] = (a + b) / math.sqrt(2)
            g[idx[lo] | q] = (a - b) / math.sqrt(2)
        else:  # CNOT control -> target, |x> -> |x ^ (x_c << t)>
            c, t = gate[1], gate[2]
            perm = idx ^ (((idx >> c) & 1) << t)
            g = g[perm]
    return StateVector(state.n, g)


def _planted_zero_state(n, rng, seed):
    """A state like the pipeline's real ones (split_real parts, quadratic
    signs): +-1 at seed 0, Gaussian otherwise, with an imaginary part in
    {-1, 0, 1} at seed 2, and zeros planted so that sums cancel to exact
    zeros."""
    N = 1 << n
    g = rng.choice([-1.0, 1.0], size=N) if seed == 0 else rng.normal(size=N)
    if seed == 2:
        g = g + 1j * rng.choice([-1.0, 0.0, 1.0], size=N)
    g[rng.integers(0, N, size=N // 2)] = 0
    return StateVector(n, g)


def _full_table_word(n, seed, depth=120):
    """A seeded word over every gate code of the n-qubit table: the n H
    codes and the n^2 - n CNOT codes."""
    picks = np.random.default_rng(seed).integers(0, n * n, size=depth)
    return CliffordCircuit._from_word(n, picks.astype(np.uint8).tobytes())


@pytest.mark.parametrize("n", range(1, 7))
def test_apply_clifford_equals_gate_loop_oracle(n):
    # Haar states, and planted-zero states, so that H meets exact zeros and
    # sums that cancel to them
    rng = np.random.default_rng(n)
    for seed in range(8):
        circuit = _full_table_word(n, seed)
        haar = random_states(n, 1, seed=seed)[0]
        for state in (haar, _planted_zero_state(n, rng, seed % 3)):
            out = apply_clifford(circuit, state)
            assert np.array_equal(out.g, _apply_clifford_oracle(circuit, state).g)


@pytest.mark.parametrize("n", range(1, 7))
def test_apply_clifford_equals_oracle_on_default_real_words(n):
    # Haar states, and states like the pipeline's real ones (split_real
    # parts, quadratic signs) with planted zeros, so that sums cancel to
    # exact zeros.
    rng = np.random.default_rng(n)
    for seed in range(3):
        circuit = random_real_clifford(n, seed=seed)
        planted = _planted_zero_state(n, rng, seed)
        for state in (random_states(n, 1, seed=seed)[0], planted):
            out = apply_clifford(circuit, state)
            assert np.array_equal(out.g, _apply_clifford_oracle(circuit, state).g)


@pytest.mark.parametrize("n", range(3, 7))
def test_balance_equals_balance_through_oracle(n, monkeypatch):
    # Haar states mostly pass as they are; a Haar state leaning on one basis
    # vector needs drawn circuits and keeps generic amplitudes.
    states = random_states(n, 3, seed=n)
    lean = states[0].unit() + 2.0 * np.eye(1 << n)[1]
    states.append(StateVector.from_unit(lean / np.linalg.norm(lean)))
    results = [balance(state, seed=n) for state in states]
    assert any(circuit.word for circuit, _ in results)
    monkeypatch.setattr(clifford, "apply_clifford", _apply_clifford_oracle)
    for state, (circuit, out) in zip(states, results):
        want_circuit, want = balance(state, seed=n)
        assert circuit == want_circuit
        assert np.array_equal(out.g, want.g)


def test_first_word_memory_at_n6():
    # apply_clifford's one cache is _halves(n), about 19 KB of ints at
    # n = 6; a table of the (y, y ^ w) pairs for each (f, w) would hold 5 MB
    clifford._halves.cache_clear()
    circuit = _full_table_word(6, 0)
    state = random_states(6, 1, seed=0)[0]
    tracemalloc.start()
    try:
        apply_clifford(circuit, state)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024


@pytest.mark.parametrize("n", range(1, 7))
def test_inverse_is_the_reversed_word(n):
    # H and CNOT are involutions, so the inverse reverses the gates
    words = [CliffordCircuit(n, ()), CliffordCircuit(n, (("H", n - 1),))]
    words += [_full_table_word(n, seed, depth=60) for seed in range(6)]
    for circuit in words:
        assert circuit.inverse().gates == circuit.gates[::-1]
        assert circuit.inverse().inverse() == circuit


def test_random_real_clifford_rejects_bad_sizes():
    for n in (0, -1, MAX_CIRCUIT_QUBITS + 1):
        with pytest.raises(GateError):
            random_real_clifford(n)


def test_circuit_validation():
    for name in ("X", "S", "Z"):  # every word is H/CNOT, so S and Z are unknown
        with pytest.raises(GateError, match=f"unknown gate {name}"):
            CliffordCircuit(1, ((name, 0),))
    with pytest.raises(GateError):
        CliffordCircuit(1, (("H", 1),))
    with pytest.raises(GateError):
        CliffordCircuit(2, (("CNOT", 1, 1),))
    with pytest.raises(GateError, match="malformed"):
        CliffordCircuit(2, (("H",),))
    with pytest.raises(GateError, match="capped"):
        CliffordCircuit(MAX_CIRCUIT_QUBITS + 1, ())


@pytest.mark.parametrize("seed", range(5))
def test_circuit_inverse_roundtrip(seed):
    circuit = _full_table_word(3, seed=seed, depth=30)
    state = random_states(3, 1, seed=seed)[0]
    back = apply_clifford(circuit.inverse(), apply_clifford(circuit, state))
    assert np.allclose(back.g, state.g)


def test_real_circuits_stay_real():
    circuit = _full_table_word(3, seed=7, depth=50)
    state = StateVector.from_unit(np.ones(8) / math.sqrt(8))
    out = apply_clifford(circuit, state)
    assert np.abs(out.g.imag).max() < 1e-12
    assert out.is_normalized(1e-12)


@pytest.mark.parametrize("n", range(1, 7))
def test_circuit_word_round_trip(n):
    rng = random.Random(n)
    names = ["H"] + (["CNOT"] if n > 1 else [])
    gates = []
    for _ in range(200):
        name = rng.choice(names)
        qubits = rng.sample(range(n), 2) if name == "CNOT" else [rng.randrange(n)]
        gates.append((name, *qubits))
    circuit = CliffordCircuit(n, gates)
    assert circuit.gates == tuple(gates)
    assert len(circuit.word) == len(gates)
    assert circuit == CliffordCircuit(n, tuple(gates))
    assert hash(circuit) == hash(CliffordCircuit(n, tuple(gates)))
    # the gate table: H_i at code i, then CNOT_ij, n^2 codes in all
    table, codes = clifford._gate_codes(n)
    cnots = [("CNOT", i, j) for i in range(n) for j in range(n) if i != j]
    assert list(table) == [("H", i) for i in range(n)] + cnots
    assert len(table) == n * n
    assert all(codes[gate] == k for k, gate in enumerate(table))


@pytest.mark.parametrize("n", range(1, 7))
def test_random_real_clifford_draws_from_the_real_pool(n):
    # a word has only H and CNOT gates: each step's sweep at most 4m - 1
    # gates on its m qubits, two of them H, so 2n^2 + n gates in all
    for seed in range(20):
        gates = random_real_clifford(n, seed=seed).gates
        assert {g[0] for g in gates} <= {"H", "CNOT"}
        assert len(gates) <= sum(4 * m - 1 for m in range(1, n + 1)) == 2 * n * n + n
        assert sum(g[0] == "H" for g in gates) <= 2 * n


def _word_matrix(circuit):
    """The real N x N matrix of a real word, modulo sign: its first nonzero
    entry made positive."""
    C = np.eye(1 << circuit.n)
    for gate in circuit.gates:
        C = _gate_matrix(circuit.n, gate).real @ C
    return C * np.sign(C.flat[np.flatnonzero(np.abs(C) > 1e-9)[0]])


def test_random_real_clifford_n1_reaches_both():
    # O+(2, 2) has two elements, the identity and the swap of X and Z; the
    # draw is uniform on them, so 200 seeds miss one with probability
    # 2 (1/2)^200. Their words are the empty word and H, one of each
    # determinant
    words = {random_real_clifford(1, seed=seed) for seed in range(200)}
    assert words == {CliffordCircuit(1, ()), CliffordCircuit(1, (("H", 0),))}
    dets = sorted(round(np.linalg.det(_word_matrix(circuit))) for circuit in words)
    assert dets == [-1, 1]


def _real_clifford_group(n):
    """The real Clifford group on n qubits modulo sign, as an (|G|, N, N)
    array: a breadth-first search over products of the H, Z and CNOT
    matrices, keyed by each product with its first nonzero entry made
    positive."""
    gates = [(name, i) for name in ("H", "Z") for i in range(n)]
    gates += [("CNOT", i, j) for i in range(n) for j in range(n) if i != j]
    gens = [_gate_matrix(n, g).real for g in gates]
    found = {}
    frontier = [np.eye(1 << n)]
    while frontier:
        grown = []
        for C in frontier:
            C = C * np.sign(C.flat[np.flatnonzero(np.abs(C) > 1e-9)[0]])
            key = tuple(np.round(C, 9).ravel())
            if key not in found:
                found[key] = C
                grown += [g @ C for g in gens]
        frontier = grown
    return np.array(list(found.values()))


@pytest.mark.parametrize("n, order", [(1, 8), (2, 1152)])
def test_real_clifford_group_balances_on_average(n, order):
    # the balancing lemma, exactly: the real Clifford group is an orthogonal
    # 2-design, so for every real unit psi the group mean of
    # sum_x (C psi)(x)^4 is 3 / (N + 2), and by Markov's inequality at least
    # 2 / (N + 2) of the group brings it to balance's threshold 3 / N
    group = _real_clifford_group(n)
    assert len(group) == order
    N = 1 << n
    for state in random_real_states(n, 20, seed=17 + n):
        moments = np.sum((group @ state.unit().real) ** 4, axis=1)
        assert abs(moments.mean() - 3 / (N + 2)) <= 1e-12
        assert np.mean(moments <= 3 / N) >= 2 / (N + 2)


def _singular(n, z):
    """Q(y, alpha) = <y, alpha> = 0 for the symplectic point z."""
    y, alpha = z >> n, z & ((1 << n) - 1)
    return dot(y, alpha) == 0


def _paired(n, v, w):
    return dot(v >> n, w) ^ dot(w >> n, v) == 1


def _step_choices(n, k):
    """Every (v, w) of the step at qubit k, by brute force: v a nonzero
    Q-singular point of qubits k..n-1, w a singular point of them with
    <v, w> = 1."""
    qubits = ((1 << n) - (1 << k)) * ((1 << n) + 1)
    points = [z for z in range(1 << (2 * n)) if not z & ~qubits and _singular(n, z)]
    return [(v, w) for v in points if v for w in points if _paired(n, v, w)]


def _orthogonal_plus_order(n):
    """|O+(2n, 2)| = 2 q^(n(n-1)) (q^n - 1) prod_{i<n} (q^(2i) - 1), q = 2."""
    return 2 * 2 ** (n * (n - 1)) * (2**n - 1) * math.prod(
        4**i - 1 for i in range(1, n)
    )


def _word_action(circuit):
    """The symplectic action of a word on the Paulis, bit-sliced: row r holds,
    at bit b, bit r of the image of the basis point 1 << b under conjugation.
    H_i swaps y_i and alpha_i, and CNOT_ct adds y_c to y_t and alpha_t to
    alpha_c; the signs are dropped."""
    n = circuit.n
    rows = [1 << r for r in range(2 * n)]
    for gate in circuit.gates:
        if gate[0] == "H":
            i = gate[1]
            rows[i], rows[n + i] = rows[n + i], rows[i]
        else:
            c, t = gate[1], gate[2]
            rows[n + t] ^= rows[n + c]
            rows[c] ^= rows[t]
    return tuple(rows)


def _matrix_action(C):
    """The same action read off a dense real Clifford C: C P_z C^T is
    +-X^y Z^alpha, with y the row of the nonzero entry of column 0 and
    alpha_i set where column 1 << i's entry differs in sign from it."""
    n = int(C.shape[0]).bit_length() - 1
    rows = [0] * (2 * n)
    for b in range(2 * n):
        M = C @ _pauli_matrix(n, 1 << b) @ C.T
        y = int(np.argmax(np.abs(M[:, 0])))
        flips = [np.sign(M[y ^ 1 << i, 1 << i]) != np.sign(M[y, 0]) for i in range(n)]
        image = y << n | sum(int(f) << i for i, f in enumerate(flips))
        for r in range(2 * n):
            rows[r] |= (image >> r & 1) << b
    return tuple(rows)


@pytest.mark.parametrize("n, order", [(1, 2), (2, 72), (3, 40_320)])
def test_random_real_clifford_choice_tree_is_o_plus(n, order, monkeypatch):
    # every leaf of the sampler's choice tree (a (v, w) pair per step) acts
    # on the Paulis by a different map that keeps Q and the pairing, and
    # there are |O+(2n, 2)| of them, so the leaves are O+(2n, 2) and uniform
    # choices give a uniform element. At n = 1, 2 they are also the actions
    # of the 8 and 1,152 matrices of the enumerated real Clifford group
    monkeypatch.setattr(clifford, "_sweep", functools.cache(clifford._sweep))
    steps = [_step_choices(n, k) for k in range(n)]
    actions = {
        _word_action(clifford._real_clifford_word(n, pairs))
        for pairs in itertools.product(*steps)
    }
    assert math.prod(map(len, steps)) == len(actions) == order
    assert order == _orthogonal_plus_order(n)
    rows = np.array(sorted(actions))[:, :, None]
    images = np.sum((rows >> np.arange(2 * n) & 1) << np.arange(2 * n)[:, None], axis=1)
    y, alpha = images >> n, images & ((1 << n) - 1)
    assert not np.any(np.bitwise_count(y & alpha) & 1)  # each image singular
    pairing = y[:, :, None] & alpha[:, None, :] ^ y[:, None, :] & alpha[:, :, None]
    basis = np.arange(2 * n)
    want = np.abs(basis[:, None] - basis) == n  # X_i pairs with Z_i only
    assert np.array_equal(np.bitwise_count(pairing) & 1, np.broadcast_to(want, pairing.shape))
    if n <= 2:
        assert actions == {_matrix_action(C) for C in _real_clifford_group(n)}


@pytest.mark.parametrize("n", range(1, 7))
def test_step_counts_multiply_to_the_group_order(n):
    # the step with m qubits has (2^m - 1)(2^(m-1) + 1) choices of v and
    # 4^(m-1) of w for each; together that is |O+(2n, 2)|
    counts = [(2**m - 1) * (2 ** (m - 1) + 1) * 4 ** (m - 1) for m in range(1, n + 1)]
    assert math.prod(counts) == _orthogonal_plus_order(n)
    if n <= 3:  # the choice tree is walked whole at n = 1, 2, 3
        assert math.prod(counts) == (2, 72, 40_320)[n - 1]
        assert len(_step_choices(n, 0)) == counts[-1]
    # by brute force at every n: the nonzero singular points, and the
    # singular points paired with a few of them
    points = [z for z in range(1, 1 << (2 * n)) if _singular(n, z)]
    assert len(points) == (2**n - 1) * (2 ** (n - 1) + 1)
    for v in points[:: max(1, len(points) // 5)]:
        assert sum(_paired(n, v, w) for w in points) == 4 ** (n - 1)


def _pauli_matrix(n, z):
    """X^y Z^alpha as a dense matrix, for the symplectic point z."""
    y, alpha = z >> n, z & ((1 << n) - 1)
    N = 1 << n
    P = np.zeros((N, N))
    for x in range(N):
        P[x ^ y, x] = (-1) ** dot(alpha, x)
    return P


@pytest.mark.parametrize("n", [3, 4])
def test_sweep_takes_the_pair_to_x_and_z_of_its_qubit(n):
    # D P_v D^T = +-X_k and D P_w D^T = +-Z_k for the sweep D of (v, w),
    # checked with dense matrices on random pairs of every step
    rng = random.Random(n)
    for k in range(n):
        qubits = ((1 << n) - (1 << k)) * ((1 << n) + 1)
        for _ in range(40):
            v = w = 0
            while not v or not _singular(n, v):
                v = rng.getrandbits(2 * n) & qubits
            while not (_singular(n, w) and _paired(n, v, w)):
                w = rng.getrandbits(2 * n) & qubits
            sweep = clifford._sweep(n, k, v, w)
            circuit = CliffordCircuit._from_word(n, sweep)
            assert {g[0] for g in circuit.gates} <= {"H", "CNOT"}
            D = _word_matrix(circuit)
            for point, image in ((v, 1 << (n + k)), (w, 1 << k)):
                got = D @ _pauli_matrix(n, point) @ D.T
                want = _pauli_matrix(n, image)
                assert np.allclose(got, want) or np.allclose(got, -want)


def _balance_law_case():
    """A real n = 2 state that the identity leaves unbalanced, and p, the
    exact fraction of the real Clifford group that brings it to 3 / N."""
    group = _real_clifford_group(2)
    state = next(
        s for s in random_real_states(2, 20, seed=28) if fourth_moment(s) > 3 / 4
    )
    moments = np.sum((group @ state.unit().real) ** 4, axis=1)
    assert np.abs(moments - 3 / 4).min() > 1e-6  # no rounding tie at 3 / N
    return state, float(np.mean(moments <= 3 / 4))


def test_balance_first_try_follows_the_group_fraction():
    # the balancing law as seeded counts: the draw is exactly uniform on
    # O+(2n, 2), and the fourth moment is constant on each real-Pauli coset,
    # so balance's first try balances a state with probability p, the exact
    # fraction of the real Clifford group that brings it to 3 / N. Over
    # 2,000 seeds, the seeds on which balance returns its first draw are
    # Binomial(2000, p), here within 3 sigma
    state, p = _balance_law_case()
    assert p == 5 / 6
    hits = 0
    for seed in range(2000):
        draw = int(np.random.default_rng(seed).integers(0, 2**63))
        hits += balance(state, seed)[0] == random_real_clifford(2, seed=draw)
    assert abs(hits - 2000 * p) <= 3 * math.sqrt(2000 * p * (1 - p))


def test_balance_try_counts_follow_the_geometric_law(monkeypatch):
    # the tries are independent uniform draws, so the number balance makes
    # is geometric with mean 1 / p = 6 / 5 and variance (1 - p) / p^2; over
    # the same 2,000 seeds the mean count is within 3 sigma of 6 / 5
    state, p = _balance_law_case()
    draws = []
    monkeypatch.setattr(
        clifford,
        "random_real_clifford",
        lambda n, seed: draws.append(seed) or random_real_clifford(n, seed),
    )
    counts = []
    for seed in range(2000):
        draws.clear()
        balance(state, seed)
        counts.append(len(draws))
    assert min(counts) >= 1
    sigma = math.sqrt((1 - p) / p**2 / len(counts))
    assert abs(np.mean(counts) - 1 / p) <= 3 * sigma


def test_random_real_clifford_deterministic():
    # O+(2, 2) has two elements, so at n = 1 two seeds collide half the time;
    # there twenty seeds must give both words
    for n in range(1, 7):
        a = random_real_clifford(n, seed=5)
        assert a == random_real_clifford(n, seed=5)
        if n >= 2:
            assert a != random_real_clifford(n, seed=6)
    assert len({random_real_clifford(1, seed=seed) for seed in range(20)}) == 2


def _weyl_matrix(n, z):
    N = 1 << n
    y, alpha = z >> n, z & (N - 1)
    W = np.zeros((N, N), dtype=complex)
    for x in range(N):
        sign = (-1) ** bin(alpha & x).count("1")
        W[x ^ y, x] = sign
    return (1j ** bin(y & alpha).count("1")) * W


@pytest.mark.parametrize("n", [1, 2, 3])
def test_weyl_matches_dense_oracle(n):
    state = random_states(n, 1, seed=n)[0]
    for z in range(1 << (2 * n)):
        out = apply_weyl(state, z)
        expect = _weyl_matrix(n, z) @ state.unit()
        assert np.allclose(out.unit(), expect)
        exp = weyl_expectation(state, z)
        y, alpha = z >> n, z & ((1 << n) - 1)
        dense = np.vdot(state.unit(), _weyl_matrix(n, (y << n)) @ np.diag(
            [(-1) ** bin(alpha & x).count("1") for x in range(1 << n)]
        ) @ state.unit())
        assert abs(exp - dense) < 1e-10


@pytest.mark.parametrize("z", [-1, -16, 16, 1 << 40])
def test_weyl_label_out_of_range(z):
    state = random_states(2, 1, seed=0)[0]
    for weyl in (apply_weyl, weyl_expectation):
        with pytest.raises(GateError, match="Weyl label"):
            weyl(state, z)


def test_weyl_t_state_values(t_state):
    # f-values of the single-qubit magic state: 1, 0, 1/2, 1/2
    f = [abs(weyl_expectation(t_state, z)) ** 2 for z in range(4)]
    assert np.allclose(f, [1.0, 0.0, 0.5, 0.5], atol=1e-12)


def test_stabilizer_counts():
    for n in range(1, 5):
        assert expected_stabilizer_count(n) == (1 << n) * math.prod(
            (1 << k) + 1 for k in range(1, n + 1)
        )
    assert len(enumerate_stabilizers(1)) == 6
    assert len(enumerate_stabilizers(2)) == 60
    assert len(enumerate_stabilizers(3)) == 1080


@functools.lru_cache(maxsize=None)
def oracle_enumeration(n):
    """The nested-loop enumerator: subspaces in all_subspaces order, then the
    sorted coset offsets, ell, and the q_upper rows in itertools.product
    order (row i over the values with no bit below i)."""
    out = []
    for sub in all_subspaces(n):
        m = sub.dim
        offsets = sorted({sub.reduce(x) for x in range(1 << n)})
        rowmasks = [((1 << m) - 1) & ~((1 << i) - 1) for i in range(m)]
        for offset in offsets:
            for ell in range(1 << m):
                for rows in itertools.product(
                    *[[r for r in range(1 << m) if r & ~mask == 0] for mask in rowmasks]
                ):
                    out.append(StabilizerState(n, offset, sub.basis, ell, rows))
    return tuple(out)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unit_matrix_bytes_equal_oracle(n):
    oracle = stabilizer_vectors(oracle_enumeration(n)) / math.sqrt(1 << n)
    assert stabilizer_unit_matrix(n).tobytes() == oracle.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stabilizer_at_matches_enumeration(n):
    states = enumerate_stabilizers(n)
    assert states == oracle_enumeration(n)
    assert tuple(stabilizer_at(n, k) for k in range(len(states))) == states
    for k in (-1, len(states)):
        with pytest.raises(IndexError):
            stabilizer_at(n, k)


@pytest.mark.parametrize(
    "build, message",
    [
        (enumerate_stabilizers, "stabilizer enumeration capped at n = 4"),
        (stabilizer_unit_matrix, "stabilizer enumeration capped at n = 4"),
        (lambda n: stabilizer_at(n, 0), "stabilizer enumeration capped at n = 4"),
    ],
)
def test_enumeration_capped_at_n4(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(5)


def test_cold_unit_matrix_memory():
    # the table is filled block by block from the layout in ell chunks of at
    # most 2^14 amplitudes (256 KiB): no StabilizerState is made, and nothing
    # but the table itself is large
    MiB = 1 << 20
    for cached in (stabilizer_unit_matrix, enumerate_stabilizers, clifford._layout):
        cached.cache_clear()
    tracemalloc.start()
    try:
        table = stabilizer_unit_matrix(4)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained <= table.nbytes + MiB
    assert peak < table.nbytes + MiB
    assert enumerate_stabilizers.cache_info().currsize == 0


def test_stabilizer_enumeration_is_duplicate_free():
    for n in (1, 2):
        mat = stabilizer_unit_matrix(n)
        gram = np.abs(mat.conj() @ mat.T)
        off = gram - np.eye(len(mat))
        assert off.max() < 1 - 1e-9  # no two states are equal up to phase


def test_stabilizer_statevector_normalized():
    for s in enumerate_stabilizers(2):
        vec = stabilizer_to_statevector(s)
        assert vec.is_normalized(1e-12)


def _canonical_form_unit(s):
    """Per-point oracle: amplitude sqrt(N / 2^m) * i^<ell,y> * (-1)^Q(y) on
    x(y) = offset + sum_i y_i basis_i, Q(y) = sum_i y_i <q_upper_i, y>."""
    N = 1 << s.n
    g = np.zeros(N, dtype=complex)
    scale = math.sqrt(N / (1 << s.m))
    for y in range(1 << s.m):
        x, q = s.offset, 0
        for i, (b, row) in enumerate(zip(s.basis, s.q_upper)):
            if (y >> i) & 1:
                x ^= b
                q ^= dot(row, y)
        g[x] = scale * ((1j ** dot(s.ell, y)) * (1 - 2 * q))
    return g / math.sqrt(N)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unit_matrix_bit_identical_to_canonical_form(n):
    mat = stabilizer_unit_matrix(n)
    states = enumerate_stabilizers(n)
    rows = range(len(states))
    if n == 4:
        rows = np.random.default_rng(4).choice(len(states), size=500, replace=False)
    oracle = np.array([_canonical_form_unit(states[k]) for k in rows])
    assert np.array_equal(mat[list(rows)].view(np.float64), oracle.view(np.float64))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_canonical_form_roundtrip(n):
    states = enumerate_stabilizers(n)
    phases = np.exp(2j * np.pi * np.random.default_rng(n).random(len(states)))
    for s, phase in zip(states, phases):
        vec = stabilizer_to_statevector(s)
        assert stabilizer_from_statevector(StateVector(n, vec.g * phase)) == s


def test_canonical_form_roundtrip_with_global_phase():
    s = enumerate_stabilizers(2)[17]
    vec = stabilizer_to_statevector(s)
    rotated = StateVector(2, vec.g * np.exp(0.3j))
    back = stabilizer_from_statevector(rotated)
    assert np.isclose(
        abs(stabilizer_to_statevector(back).inner(rotated)), 1.0, atol=1e-9
    )


def test_from_statevector_rejects_non_stabilizer(t_state):
    with pytest.raises(ValueError):
        stabilizer_from_statevector(t_state)
    with pytest.raises(ValueError, match="zero vector"):
        stabilizer_from_statevector(StateVector(2, np.zeros(4)))
    with pytest.raises(ValueError, match="not an affine subspace"):
        stabilizer_from_statevector(StateVector(2, [2 / 3**0.5] * 3 + [0]))
    # four points, a power of two, but {0, 1, 2, 4} is no coset of a plane
    g = np.zeros(8, dtype=complex)
    g[[0, 1, 2, 4]] = 2**0.5
    with pytest.raises(ValueError, match="not an affine subspace"):
        stabilizer_from_statevector(StateVector(3, g))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_from_statevector_rejects_one_amplitude_off(n):
    """A stabilizer vector with one support amplitude scaled by 1 + 1e-6 is
    not a stabilizer state: the one amplitude-wise check rejects it."""
    rng = np.random.default_rng(n)
    for s in enumerate_stabilizers(n):
        g = stabilizer_to_statevector(s).g.copy()
        g[rng.choice(np.flatnonzero(g))] *= 1 + 1e-6
        with pytest.raises(ValueError, match="not those of a stabilizer"):
            stabilizer_from_statevector(StateVector(n, g))


def test_stabilizer_json_roundtrip():
    s = StabilizerState(3, 0b101, (0b110, 0b001), ell=0b10, q_upper=(0b11, 0b10))
    back = StabilizerState.from_json(s.to_json())
    assert back == s
    data = json.loads(s.to_json())
    assert data["n"] == 3
    assert data["offset"] == "101"


@pytest.mark.parametrize(
    "args, message",
    [
        ((1, 5, ()), "offset 5 does not fit n = 1"),
        ((1, -1, ()), "offset -1 does not fit n = 1"),
        ((1, 0, (0,), 0, (0,)), "basis vectors must lie in [1, 2^1)"),
        ((1, 0, (2,), 0, (0,)), "basis vectors must lie in [1, 2^1)"),
        ((1, 0, (1,), 2, (0,)), "ell 2 does not fit m = 1"),
        ((1, 0, (1,), 0, (0b10,)), "q_upper rows must be upper triangular in [0, 2^1)"),
        ((2, 0, (1, 2), 0, (0, 0b01)),
         "q_upper rows must be upper triangular in [0, 2^2)"),
        ((2, 0, (1, 2), 0, (0,)), "need one q_upper row per basis vector"),
    ],
    ids=["offset_high", "offset_negative", "basis_zero", "basis_high", "ell_high",
         "row_high", "row_lower", "row_count"],
)
def test_stabilizer_state_rejects_bits_outside_widths(args, message):
    # a stray row bit would give one vector two forms, and an offset beyond n
    # would index past the vector when it is built
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        StabilizerState(*args)


def test_fourth_moment_extremes():
    basis = make_state(FamilySpec("basis", 3, x0=5))
    assert np.isclose(fourth_moment(basis), 1.0)
    uniform = make_state(FamilySpec("uniform", 3))
    assert np.isclose(fourth_moment(uniform), 1.0 / 8)


def test_balance_reaches_threshold():
    # basis states are maximally unbalanced; balance must fix them
    for n in (2, 3):
        state = make_state(FamilySpec("basis", n, x0=1))
        circuit, out = balance(state, seed=3)
        assert fourth_moment(out) <= 3.0 / state.N + 1e-9
        assert {g[0] for g in circuit.gates} <= {"H", "CNOT"}
        assert np.allclose(apply_clifford(circuit, state).g, out.g)


def test_balance_identity_short_circuit():
    uniform = make_state(FamilySpec("uniform", 2))
    circuit, out = balance(uniform)
    assert circuit.gates == ()
    assert out is uniform


def test_balance_error_message():
    err = BalanceError(tries=7, best_moment=0.5)
    assert "7" in str(err) and "0.5" in str(err)
    assert err.tries == 7 and err.best_moment == 0.5
