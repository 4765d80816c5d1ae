"""Characteristic tables, their exact identities, and the Bell difference
distribution, each checked against independent brute-force oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_real_states, random_states
from stab_lab import charfn
from stab_lab.charfn import (
    CharTable,
    TableError,
    bell_diff_distribution,
    char_function,
    char_table_csv,
    char_tables,
    chunk_states,
    diff_laws,
    exact_R,
    symplectic_fourier,
    table_R,
)
from stab_lab.clifford import enumerate_stabilizers, stabilizer_to_statevector
from stab_lab.gf2 import Subspace, dot, perp
from stab_lab.measures import gowers3, table_gowers3
from stab_lab.states import FamilySpec, StateFormatError, StateVector, fwht, make_state


def _brute_char(state):
    """Direct double loop over the definition |<phi| X^y Z^a |phi>|^2."""
    n, N = state.n, state.N
    u = state.unit()
    f = np.zeros((N, N))
    for y in range(N):
        for a in range(N):
            amp = sum(
                np.conj(u[x ^ y]) * (-1) ** bin(a & x).count("1") * u[x]
                for x in range(N)
            )
            f[y, a] = abs(amp) ** 2
    return f


@pytest.mark.parametrize("n", [1, 2, 3])
def test_char_function_matches_brute_force(n):
    for state in random_states(n, 3, seed=n):
        t = char_function(state)
        assert np.abs(t.f - _brute_char(state)).max() < 1e-10


def test_known_single_qubit_tables(t_state):
    zero = char_function(make_state(FamilySpec("basis", 1)))
    assert np.allclose(zero.f, [[1, 1], [0, 0]], atol=1e-12)
    plus = char_function(
        StateVector(1, np.array([1, 1], dtype=complex))
    )
    assert np.allclose(plus.f, [[1, 0], [1, 0]], atol=1e-12)
    t = char_function(t_state)
    assert np.allclose(t.flat(), [1, 0, 0.5, 0.5], atol=1e-12)


def test_table_mean_is_squared_norm():
    # (1/N) sum f = <phi|phi>^2 holds with and without normalization
    state = random_states(3, 1, seed=42)[0]
    assert np.isclose(char_function(state).mean(), 1.0, atol=1e-10)
    scaled = StateVector(3, state.g * 1.3)
    assert np.isclose(
        char_function(scaled).mean(), scaled.norm_sq() ** 2, atol=1e-9
    )


def test_real_state_vanishing():
    # real amplitudes force f(y, alpha) = 0 whenever <y, alpha> = 1
    for state in random_real_states(3, 5, seed=1):
        t = char_function(state)
        for y in range(t.N):
            for a in range(t.N):
                if dot(y, a):
                    assert t.f[y, a] < 1e-18


def test_symplectic_fourier_self_dual_on_char_tables():
    for n in (1, 2, 3):
        for state in random_states(n, 2, seed=10 + n):
            t = char_function(state)
            assert np.abs(symplectic_fourier(t.f) - t.f).max() < 1e-10


def test_symplectic_fourier_matches_definition():
    # generic (non-characteristic) tables transform nontrivially but exactly
    rng = np.random.default_rng(0)
    f = rng.random((2, 2))
    out = symplectic_fourier(f).reshape(-1)
    from stab_lab.gf2 import symplectic_form

    for z in range(4):
        direct = sum(
            (-1) ** symplectic_form(1, z, zp) * f.flat[zp] for zp in range(4)
        ) / 2
        assert np.isclose(out[z], direct)


def test_stabilizer_table_is_lagrangian_indicator():
    # the support is a 2^n-element subspace on which the symplectic form
    # vanishes, and every supported value is exactly 1
    for s in enumerate_stabilizers(2)[::7]:
        t = char_function(stabilizer_to_statevector(s))
        support = [z for z in range(16) if t.flat()[z] > 1e-9]
        assert len(support) == 4
        assert np.allclose(t.flat()[support], 1.0, atol=1e-10)
        sub = Subspace.from_vectors(4, support)
        assert sub.dim == 2
        assert perp(sub).basis == sub.basis


def test_graph_shift_inequality():
    # sum over a subspace dominates the sum over any of its cosets
    for state in random_states(2, 5, seed=3):
        flat = char_function(state).flat()
        sub = Subspace.from_vectors(4, [0b0101, 0b0011])
        base = sum(flat[z] for z in sub)
        for zp in range(16):
            shifted = sum(flat[z ^ zp] for z in sub)
            assert shifted <= base + 1e-10


def test_real_tables_take_the_real_transform_path():
    # A table is real, so q and its symplectic transform are computed in
    # real arithmetic; they equal the real part of the complex path bit for bit.
    states = random_states(3, 2, seed=4) + [make_state(FamilySpec("t_tensor", 4))]
    for state in states:
        t = char_function(state)
        hat = fwht(t.flat().astype(complex))
        q_complex = np.maximum(fwht(hat * hat).real / len(hat) ** 2, 0.0)
        q = bell_diff_distribution(t)
        assert q.dtype == np.float64 and np.array_equal(q, q_complex)
        f_complex = fwht(fwht(t.f.astype(complex), axis=0), axis=1).real.T / t.N
        f = symplectic_fourier(t.f)
        assert f.dtype == np.float64 and np.array_equal(f, f_complex)


def test_bell_distribution_brute_force(t_state):
    q = bell_diff_distribution(char_function(t_state))
    assert np.allclose(q, [3 / 8, 1 / 8, 1 / 4, 1 / 4], atol=1e-12)
    for state in random_states(2, 3, seed=8):
        t = char_function(state)
        flat = t.flat()
        M = len(flat)
        q = bell_diff_distribution(t)
        brute = np.array(
            [np.mean(flat * flat[np.arange(M) ^ z]) for z in range(M)]
        )
        assert np.abs(q - brute).max() < 1e-12
        assert np.isclose(q.sum(), 1.0, atol=1e-9)


def test_triple_convolution_identity():
    # (1/N^2) sum f(z1) f(z2) f(z1+z2) collapses to (1/N) sum f^3
    for n in (1, 2, 3):
        state = random_states(n, 1, seed=20 + n)[0]
        t = char_function(state)
        flat = t.flat()
        assert np.isclose(exact_R(state), np.sum(flat**3) / t.N, atol=1e-10)


def test_exact_R_known_value(t_state):
    assert np.isclose(exact_R(t_state), 0.625, atol=1e-12)


def test_exact_R_multiplicative(t_state, t2_state):
    assert np.isclose(exact_R(t2_state), exact_R(t_state) ** 2, atol=1e-10)


def test_table_shape_validation():
    with pytest.raises(TableError):
        CharTable(2, np.zeros((2, 2)))
    with pytest.raises(TableError):
        char_function(StateVector(7, np.ones(128, dtype=complex)))


def test_overflowing_amplitudes_raise():
    # Finite amplitudes whose squares overflow: the norm is inf, so
    # normalizing would return zeros, and the tables hold inf - inf = nan.
    huge = StateVector(1, [1e200, 1e200])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StateFormatError, match="squared norm inf"):
            huge.normalized()
        with pytest.raises(TableError, match="not finite"):
            gowers3(huge)
        with pytest.raises(TableError, match="not finite"):
            exact_R(huge)


def test_csv_rendering():
    t = char_function(make_state(FamilySpec("basis", 1)))
    lines = char_table_csv(t).strip().splitlines()
    assert lines[0] == "y_bits,alpha_bits,f_value"
    assert len(lines) == 5
    assert lines[1].startswith("0,0,")


def _per_state(g):
    """One state's table, law, gowers3 and R by the per-state expressions
    that the batch kernels replaced: the oracle of the batched values."""
    N = len(g)
    idx = np.arange(N)
    deriv = g[None, :] * np.conj(g[idx[:, None] ^ idx[None, :]])
    f = np.abs(fwht(deriv, axis=1) / N) ** 2
    flat = f.reshape(-1)
    hat = fwht(flat)
    q = np.maximum(fwht(hat * hat) / len(flat) ** 2, 0.0)
    return f, q, float(np.sum(f**2) / N), float(np.dot(q, flat))


def _kind_state(kind, n, seed):
    if kind == "haar":
        return random_states(n, 1, seed=seed)[0]
    if kind == "real":
        return random_real_states(n, 1, seed=seed)[0]
    return make_state(FamilySpec(kind, n, x0=seed % (1 << n)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 6),
    kinds=st.lists(st.sampled_from(["haar", "real", "basis", "t_tensor"]), min_size=1, max_size=6),
    seed=st.integers(0, 2**16),
    cap=st.sampled_from([1, 1 << 30]),
)
def test_batched_kernels_equal_per_state_values(n, kinds, seed, cap):
    # cap 1 makes every state its own chunk; 2^30 puts the batch in one
    states = [_kind_state(kind, n, seed + i) for i, kind in enumerate(kinds)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charfn, "_CHUNK_BYTES", cap)
        f = char_tables(np.array([state.g for state in states]))
        flat = f.reshape(len(f), -1)
        q, r, g3, sf = diff_laws(flat), table_R(flat), table_gowers3(f), symplectic_fourier(f)
    for b, state in enumerate(states):
        f1, q1, g31, r1 = _per_state(state.g)
        t = char_function(state)
        assert f[b].tobytes() == f1.tobytes() == t.f.tobytes()
        assert q[b].tobytes() == q1.tobytes() == bell_diff_distribution(t).tobytes()
        assert float(g3[b]).hex() == g31.hex() == gowers3(state).hex()
        assert float(r[b]).hex() == r1.hex() == exact_R(state).hex()
        sf1 = fwht(fwht(f1, axis=0), axis=1).T / state.N
        assert sf[b].tobytes() == sf1.tobytes() == symplectic_fourier(t.f).tobytes()


def test_char_tables_memory_stays_per_chunk():
    # 32 chunks at n = 4: past the output, the peak holds one chunk's
    # temporaries (the derivative array and the transform's two buffers),
    # not the 24 MiB of the whole batch's
    g = np.array([state.g for state in random_states(4, 32 * chunk_states(4), seed=9)])
    char_tables(g[:1])  # the cached XOR index
    tracemalloc.start()
    try:
        f = char_tables(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - f.nbytes <= 4 * charfn._CHUNK_BYTES
