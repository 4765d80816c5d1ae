"""Dense statevector representation and Boolean Fourier analysis.

Amplitudes are stored in the g-convention: |phi> = N^(-1/2) sum_x g(x)|x>
with N = 2^n, so the uniform state has g identically 1 and a normalized state
has E_x[|g(x)|^2] = 1. The JSON interchange format uses unit-vector
amplitudes and is converted at the boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gf2 import span_points

NORM_TOL = 1e-12
JSON_NORM_TOL = 1e-6
MAX_QUBITS = 6  # 4^6 doubles per characteristic table


class StateFormatError(ValueError):
    pass


def dot_parity(values: np.ndarray, mask: int) -> np.ndarray:
    """<v, mask> over F2, elementwise, as an int64 0/1 array."""
    return np.bitwise_count(np.asarray(values) & mask).astype(np.int64) & 1


def quadratic_parity(values: np.ndarray, rows) -> np.ndarray:
    """sum_i x_i <rows[i], x> over F2 for each x in values, as an int64 0/1
    array. rows holds ints, or equally shaped integer arrays for a batch of
    forms (batch axes first, values on the last axis of the result).

    By bilinearity this is <x, R(x)>, where R(x) is the XOR of the rows
    picked by the low bits of x."""
    x = np.asarray(values)
    picked = span_points(rows)[..., x & ((1 << len(rows)) - 1)]
    return dot_parity(x, picked)


def sign_table(N: int, alpha: int) -> np.ndarray:
    """x -> (-1)^<x, alpha> for x in range(N)."""
    return 1 - 2 * dot_parity(np.arange(N), alpha)


@dataclass(frozen=True)
class StateVector:
    n: int
    g: np.ndarray  # complex amplitudes in the g-convention, length 2^n

    def __post_init__(self):
        g = np.asarray(self.g, dtype=complex)
        g.setflags(write=False)
        object.__setattr__(self, "g", g)
        if len(g) != 1 << self.n:
            raise StateFormatError(f"expected {1 << self.n} amplitudes, got {len(g)}")
        if not np.isfinite(g).all():
            raise StateFormatError("amplitudes must be finite")

    @property
    def N(self) -> int:
        return 1 << self.n

    def unit(self) -> np.ndarray:
        """Amplitudes in the unit-vector convention."""
        return self.g / math.sqrt(self.N)

    @staticmethod
    def from_unit(vec: np.ndarray) -> "StateVector":
        vec = np.asarray(vec, dtype=complex)
        n = int(len(vec)).bit_length() - 1
        if 1 << n != len(vec):
            raise StateFormatError("amplitude count is not a power of 2")
        return StateVector(n, vec * math.sqrt(len(vec)))

    def norm_sq(self) -> float:
        """E_x |g(x)|^2; equals 1 for normalized states."""
        return float(np.mean(np.abs(self.g) ** 2))

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        return abs(self.norm_sq() - 1.0) <= tol

    def normalized(self) -> "StateVector":
        nrm = math.sqrt(self.norm_sq())
        if not 0 < nrm < math.inf:  # the zero vector, or squares that overflow
            raise StateFormatError(f"cannot normalize: squared norm {nrm**2}")
        return StateVector(self.n, self.g / nrm)

    def inner(self, other: "StateVector") -> complex:
        """<self|other> = E_x[conj(g_self) g_other]."""
        if self.n != other.n:
            raise StateFormatError("qubit counts differ")
        return complex(np.mean(np.conj(self.g) * other.g))

    def overlap_sq(self, other: "StateVector") -> float:
        return abs(self.inner(other)) ** 2


def fwht(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform along one axis.

    The output dtype is np.result_type(a, float): real (or integer) input
    gives float64 and complex input gives complex128. The transform only
    adds and subtracts, so a real input's float64 output equals, bit for
    bit, the real part of the transform of the same input cast to complex
    (whose imaginary parts stay exact zeros). Constant-geometry (Pease) form,
    bit 0 first: its bytes equal the radix-2 form's (tests/test_states.py)."""
    a = np.asarray(a)
    last = axis in (-1, a.ndim - 1)
    src = a if last else np.moveaxis(a, axis, -1)
    src = src.astype(np.result_type(a, float), order="C")  # the one copy
    N = src.shape[-1]
    if N & (N - 1):
        raise StateFormatError("length must be a power of 2")
    dst, h = np.empty_like(src), N >> 1
    for _ in range(N.bit_length() - 1):
        np.add(src[..., 0::2], src[..., 1::2], out=dst[..., :h])
        np.subtract(src[..., 0::2], src[..., 1::2], out=dst[..., h:])
        src, dst = dst, src
    return src if last else np.moveaxis(src, -1, axis)


def walsh_hadamard(g: np.ndarray) -> np.ndarray:
    """ghat(alpha) = E_x[(-1)^<alpha,x> g(x)] (expectation normalization).
    The dtype follows fwht: real input gives a real result."""
    return fwht(g) / len(g)


def convolve(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(f*g)(x) = E_y[f(y) g(x+y)], via the transform domain."""
    if len(f) != len(g):
        raise StateFormatError("lengths differ")
    return fwht(fwht(f) * fwht(g)) / len(f) ** 2


@dataclass(frozen=True)
class FamilySpec:
    """Recipe for a named test state; deterministic given (spec, seed)."""

    kind: str  # basis | uniform | haar | t_tensor | interpolate
    n: int
    x0: int = 0
    seed: int = 0
    eps: float = 0.0
    stab: Optional[object] = None  # StabilizerState anchor for interpolate


def haar_unit(n: int, rng: np.random.Generator) -> np.ndarray:
    N = 1 << n
    vec = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    return vec / np.linalg.norm(vec)


def _check_qubits(n: int) -> None:
    if not 1 <= n <= MAX_QUBITS:
        raise StateFormatError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")


def make_state(spec: FamilySpec) -> StateVector:
    _check_qubits(spec.n)
    n, N = spec.n, 1 << spec.n
    if spec.kind == "interpolate" and spec.stab is None:
        raise StateFormatError("family 'interpolate' needs a stabilizer anchor")
    if spec.kind == "basis":
        if not 0 <= spec.x0 < N:
            raise StateFormatError(f"basis index must be in [0, {N}), got {spec.x0}")
        g = np.zeros(N, dtype=complex)
        g[spec.x0] = math.sqrt(N)
        return StateVector(n, g)
    if spec.kind == "uniform":
        return StateVector(n, np.ones(N, dtype=complex))
    if spec.kind == "haar":
        rng = np.random.default_rng(spec.seed)
        return StateVector.from_unit(haar_unit(n, rng))
    if spec.kind == "t_tensor":
        phase = np.exp(1j * math.pi / 4)
        g = phase ** np.array([x.bit_count() for x in range(N)])
        return StateVector(n, g.astype(complex))
    if spec.kind == "interpolate":
        if not 0.0 <= spec.eps <= 1.0:
            raise StateFormatError("interpolation weight must be in [0, 1]")
        from . import clifford

        s = clifford.stabilizer_to_statevector(spec.stab).unit()
        rng = np.random.default_rng(spec.seed)
        h = haar_unit(n, rng)
        vec = math.sqrt(1.0 - spec.eps) * s + math.sqrt(spec.eps) * h
        nrm = np.linalg.norm(vec)
        if nrm < 1e-12:
            raise StateFormatError("interpolated vector vanished")
        return StateVector.from_unit(vec / nrm)
    raise StateFormatError(f"unknown family kind: {spec.kind!r}")


def dump_state_json(state: StateVector) -> str:
    unit = state.unit()
    return json.dumps(
        {"n": state.n, "amplitudes": [[float(a.real), float(a.imag)] for a in unit]}
    )


def load_state_json(text: str) -> StateVector:
    try:
        data = json.loads(text)
        n = data["n"]
        vec = np.array([complex(re, im) for re, im in data["amplitudes"]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise StateFormatError(f"malformed state file: {exc}") from exc
    if type(n) is not int:  # bool is an int subclass, and JSON true is not a count
        raise StateFormatError(f"qubit count must be a JSON integer, got {n!r}")
    _check_qubits(n)
    if len(vec) != 1 << n:
        raise StateFormatError(f"expected {1 << n} amplitudes, got {len(vec)}")
    if not np.isfinite(vec).all():
        raise StateFormatError("amplitudes must be finite")
    nrm = float(np.linalg.norm(vec))
    if abs(nrm - 1.0) > JSON_NORM_TOL:
        raise StateFormatError(
            f"vector norm {nrm} deviates from 1 by more than {JSON_NORM_TOL}; "
            "normalize the amplitudes"
        )
    return StateVector.from_unit(vec)
