"""The characteristic table f(y, alpha) = |<phi| X^y Z^alpha |phi>|^2 and the
exact Bell-difference quantities derived from it.

Tables are stored as (N, N) float arrays indexed [y, alpha]; the flat view in
z = (y << n) | alpha order is used for convolutions. The i^(y.alpha) Weyl
prefactor is deliberately absent: it cancels in every squared magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import InvariantError
from .states import MAX_QUBITS, StateVector, fwht


class TableError(ValueError, InvariantError):
    pass


@dataclass(frozen=True)
class CharTable:
    n: int
    f: np.ndarray  # shape (2^n, 2^n), nonnegative

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        f.setflags(write=False)
        object.__setattr__(self, "f", f)
        N = 1 << self.n
        if f.shape != (N, N):
            raise TableError(f"expected shape {(N, N)}, got {f.shape}")

    @property
    def N(self) -> int:
        return 1 << self.n

    def flat(self) -> np.ndarray:
        """Values in z = (y << n) | alpha order."""
        return self.f.reshape(-1)

    def row_sums(self) -> np.ndarray:
        """r(y) = sum_alpha f(y, alpha)."""
        return self.f.sum(axis=1)

    def mean(self) -> float:
        """(1/N) sum_z f(z); equals <phi|phi>^2 for the source state."""
        return float(self.f.sum() / self.N)


def char_function(state: StateVector) -> CharTable:
    """All 4^n values via one Walsh transform per phase-derivative row."""
    if state.n > MAX_QUBITS:
        raise TableError(f"tables capped at n = {MAX_QUBITS}")
    g = state.g
    N = state.N
    idx = np.arange(N)
    deriv = g[None, :] * np.conj(g[idx[:, None] ^ idx[None, :]])  # [y, x]
    f = np.abs(fwht(deriv, axis=1) / N) ** 2
    if not np.isfinite(f).all():
        raise TableError("the table is not finite: the amplitudes overflow")
    return CharTable(state.n, f)


def symplectic_fourier(t: CharTable) -> CharTable:
    """z -> (1/N) sum_z' (-1)^[z,z'] t(z'); the identity on valid tables."""
    # [(y,a),(y',a')] = <y,a'> + <a,y'>, so the symplectic transform is the
    # plain 2-axis Walsh transform with the output halves swapped.
    out = fwht(fwht(t.f, axis=0), axis=1).T / t.N
    return CharTable(t.n, out)


def bell_diff_distribution(t: CharTable) -> np.ndarray:
    """q = f * f with (f*g)(z) = E_w[f(w) g(z+w)] over F2^(2n), flat and
    z-ordered like t.flat(); sums to 1 for a normalized state."""
    flat = t.flat()
    M = len(flat)
    hat = fwht(flat)
    q = fwht(hat * hat) / M**2
    return np.maximum(q, 0.0)


def exact_R(state: StateVector) -> float:
    """sum_z q(z) f(z), computed exactly from the tables."""
    t = char_function(state)
    return float(np.dot(bell_diff_distribution(t), t.flat()))


def char_table_csv(t: CharTable) -> str:
    bits = [format(x, f"0{t.n}b") for x in range(t.N)]
    lines = ["y_bits,alpha_bits,f_value"]
    lines += (
        f"{bits[y]},{bits[a]},{value!r}"
        for y, row in enumerate(t.f.tolist())
        for a, value in enumerate(row)
    )
    return "\n".join(lines) + "\n"
