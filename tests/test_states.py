"""Statevector container, Walsh-Hadamard analysis, families, and JSON I/O."""

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stab_lab.states import (
    MAX_QUBITS,
    FamilySpec,
    StateFormatError,
    StateVector,
    convolve,
    dot_parity,
    dump_state_json,
    fwht,
    haar_unit,
    load_state_json,
    make_state,
    sign_table,
    walsh_hadamard,
)


def _random_complex(n, seed):
    rng = np.random.default_rng(seed)
    N = 1 << n
    return rng.standard_normal(N) + 1j * rng.standard_normal(N)


@given(st.integers(1, 5), st.integers(0, 10**6))
def test_fwht_is_scaled_involution(n, seed):
    g = _random_complex(n, seed)
    again = fwht(fwht(g))
    assert np.allclose(again, (1 << n) * g)


@given(st.integers(1, 5), st.integers(0, 10**6))
def test_walsh_roundtrip_and_parseval(n, seed):
    g = _random_complex(n, seed)
    ghat = walsh_hadamard(g)
    assert np.allclose(fwht(ghat), g)  # sum-normalized inverse
    assert np.isclose(np.sum(np.abs(ghat) ** 2), np.mean(np.abs(g) ** 2))


@given(st.integers(1, 4), st.integers(0, 10**6))
def test_walsh_matches_definition(n, seed):
    g = _random_complex(n, seed)
    N = 1 << n
    ghat = walsh_hadamard(g)
    for alpha in range(N):
        direct = np.mean([(-1) ** bin(alpha & x).count("1") * g[x] for x in range(N)])
        assert abs(ghat[alpha] - direct) < 1e-10


@given(st.integers(1, 4), st.integers(0, 10**6))
def test_convolution_oracle(n, seed):
    f = _random_complex(n, seed)
    g = _random_complex(n, seed + 1)
    N = 1 << n
    conv = convolve(f, g)
    for x in range(N):
        direct = np.mean([f[y] * g[x ^ y] for y in range(N)])
        assert abs(conv[x] - direct) < 1e-9


def test_fwht_axis_handling():
    a = _random_complex(2, 0).reshape(2, 2)
    col = fwht(a, axis=0)
    for j in range(2):
        assert np.allclose(col[:, j], fwht(a[:, j]))


def test_fwht_dtype_contract():
    # Real input stays real and equals the real part of the complex
    # transform bit for bit; complex input stays complex.
    rng = np.random.default_rng(11)
    cases = [
        (functools.partial(fwht, axis=axis), rng.standard_normal(shape))
        for shape, axis in (((64,), -1), ((8, 4), 0), ((8, 4), 1))
    ]
    cases.append((walsh_hadamard, rng.standard_normal(64)))
    for transform, a in cases:
        real, cplx = transform(a), transform(a.astype(complex))
        assert real.dtype == np.float64 and cplx.dtype == np.complex128
        assert np.array_equal(real, cplx.real) and not cplx.imag.any()
    assert fwht(np.arange(8)).dtype == np.float64
    f, g = rng.standard_normal(32), rng.standard_normal(32)
    conv = convolve(f, g)
    assert conv.dtype == np.float64
    assert np.array_equal(conv, convolve(f.astype(complex), g.astype(complex)).real)
    assert convolve(f, g + 1j).dtype == np.complex128


def _fwht_radix2(a, axis=-1):
    """The in-place radix-2 transform: the oracle for fwht's bytes."""
    a = np.asarray(a)
    a = np.moveaxis(np.array(a, dtype=np.result_type(a, float)), axis, -1)
    N = a.shape[-1]
    h = 1
    while h < N:
        a = a.reshape(a.shape[:-1] + (N // (2 * h), 2, h))
        x, y = a[..., 0, :].copy(), a[..., 1, :].copy()
        a[..., 0, :] = x + y
        a[..., 1, :] = x - y
        a = a.reshape(a.shape[:-3] + (N,))
        h *= 2
    return np.moveaxis(a, -1, axis)


def test_fwht_is_radix2_bit_for_bit():
    rng = np.random.default_rng(5)
    makers = {
        "bool": lambda shape: rng.random(shape) < 0.5,
        "int64": lambda shape: rng.integers(-9, 10, shape),
        "float64": rng.standard_normal,
        "complex128": lambda shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
    }
    for n in range(13):
        N = 1 << n
        for make in makers.values():
            cases = [(make(N), 0), (make(N), -1)]
            cases += [(make((N, 3)), 0), (make((3, N)), 1), (make((3, N)), -1)]
            cases += [(make((N, 2, 3)), 0), (make((2, N, 3)), 1), (make((2, 3, N)), -1)]
            cases += [(make((N, 3)).T, -1), (make((3, N)).T, 0)]  # transposed views
            for a, axis in cases:
                before = a.copy()
                got, want = fwht(a, axis=axis), _fwht_radix2(a, axis=axis)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                assert np.array_equal(a, before)  # the input is left unmodified


def test_fwht_rejects_non_power_of_two():
    with pytest.raises(StateFormatError):
        fwht(np.ones(3))


@given(st.integers(0, 255), st.integers(0, 255))
def test_dot_parity_matches_bit_count(value, mask):
    assert dot_parity(np.array([value]), mask)[0] == (value & mask).bit_count() % 2


def test_sign_table_small():
    assert list(sign_table(4, 0b01)) == [1, -1, 1, -1]
    assert list(sign_table(4, 0b11)) == [1, -1, -1, 1]


def test_statevector_conventions():
    state = make_state(FamilySpec("uniform", 2))
    assert np.allclose(state.g, 1.0)
    assert state.is_normalized()
    assert np.allclose(state.unit(), 0.5)
    back = StateVector.from_unit(state.unit())
    assert np.allclose(back.g, state.g)


def test_inner_product_convention():
    a = make_state(FamilySpec("basis", 2, x0=1))
    b = make_state(FamilySpec("basis", 2, x0=1))
    c = make_state(FamilySpec("basis", 2, x0=2))
    assert np.isclose(a.inner(b), 1.0)
    assert np.isclose(a.inner(c), 0.0)
    assert np.isclose(a.overlap_sq(make_state(FamilySpec("uniform", 2))), 0.25)


def test_state_vector_rejects_non_finite_amplitudes():
    for bad in ([np.nan, 1.0], [np.inf, 1.0], [1.0, complex(0.0, -np.inf)]):
        with pytest.raises(StateFormatError, match="finite"):
            StateVector(1, bad)


def test_normalized_and_zero_vector():
    s = StateVector(1, np.array([2.0, 0.0], dtype=complex))
    assert s.normalized().is_normalized()
    with pytest.raises(StateFormatError):
        StateVector(1, np.zeros(2, dtype=complex)).normalized()


def test_family_basis_and_t_tensor():
    basis = make_state(FamilySpec("basis", 2, x0=3))
    assert np.allclose(basis.unit(), [0, 0, 0, 1])
    t2 = make_state(FamilySpec("t_tensor", 2))
    phase = np.exp(1j * math.pi / 4)
    assert np.allclose(t2.g, [1, phase, phase, phase**2])


def test_family_haar_deterministic_and_normalized():
    a = make_state(FamilySpec("haar", 3, seed=9))
    b = make_state(FamilySpec("haar", 3, seed=9))
    c = make_state(FamilySpec("haar", 3, seed=10))
    assert np.allclose(a.g, b.g)
    assert not np.allclose(a.g, c.g)
    assert a.is_normalized(1e-12)


def test_family_interpolate_endpoints():
    from stab_lab.clifford import StabilizerState, stabilizer_to_statevector

    stab = StabilizerState(2, 0, (1, 2), 0, (0, 0))
    s_end = make_state(FamilySpec("interpolate", 2, seed=4, eps=0.0, stab=stab))
    assert np.isclose(
        s_end.overlap_sq(stabilizer_to_statevector(stab)), 1.0, atol=1e-12
    )
    h_end = make_state(FamilySpec("interpolate", 2, seed=4, eps=1.0, stab=stab))
    assert h_end.is_normalized(1e-9)
    with pytest.raises(StateFormatError):
        make_state(FamilySpec("interpolate", 2, eps=1.5, stab=stab))


def test_unknown_family_rejected():
    with pytest.raises(StateFormatError):
        make_state(FamilySpec("bogus", 1))


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("haar", 0),
        FamilySpec("haar", -1),
        FamilySpec("uniform", MAX_QUBITS + 1),
        FamilySpec("haar", 10**12),
        FamilySpec("basis", 2, x0=4),
        FamilySpec("basis", 2, x0=-1),
        FamilySpec("stabilizer", 2),
        FamilySpec("interpolate", 2, eps=0.5),
    ],
)
def test_family_rejects_bad_arguments(spec):
    with pytest.raises(StateFormatError):
        make_state(spec)


def test_json_roundtrip():
    state = make_state(FamilySpec("haar", 2, seed=11))
    text = dump_state_json(state)
    data = json.loads(text)
    assert data["n"] == 2
    assert len(data["amplitudes"]) == 4
    back = load_state_json(text)
    assert np.allclose(back.g, state.g)


def test_json_rejects_malformed():
    with pytest.raises(StateFormatError):
        load_state_json("not json")
    with pytest.raises(StateFormatError):
        load_state_json(json.dumps({"n": 2, "amplitudes": [[1.0, 0.0]]}))
    for text in (
        '{"n": 1, "amplitudes": [[NaN, 0.0], [0.0, 0.0]]}',
        '{"n": 1, "amplitudes": [[1.0, -Infinity], [0.0, 0.0]]}',
        '{"n": Infinity, "amplitudes": [[1.0, 0.0]]}',
        '{"n": 1, "amplitudes": [["a", "b"], [0.0, 0.0]]}',
        json.dumps({"n": 0, "amplitudes": [[1.0, 0.0]]}),
        json.dumps({"n": 10**12, "amplitudes": [[1.0, 0.0]]}),
        json.dumps({"n": 1.5, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}),
        json.dumps({"n": True, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}),
        json.dumps({"n": "1", "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}),
    ):
        with pytest.raises(StateFormatError):
            load_state_json(text)


def test_json_norm_tolerance():
    vec = [[0.8, 0.0], [0.0, 0.0]]  # norm 0.8, far from 1
    text = json.dumps({"n": 1, "amplitudes": vec})
    with pytest.raises(StateFormatError):
        load_state_json(text)


def test_haar_unit_is_unit():
    rng = np.random.default_rng(0)
    vec = haar_unit(4, rng)
    assert np.isclose(np.linalg.norm(vec), 1.0)
