"""The characteristic table f(y, alpha) = |<phi| X^y Z^alpha |phi>|^2 and the
exact Bell-difference quantities derived from it.

Tables are stored as (N, N) float arrays indexed [y, alpha]; the flat view in
z = (y << n) | alpha order is used for convolutions. The i^(y.alpha) Weyl
prefactor is deliberately absent: it cancels in every squared magnitude.

The kernels take a leading batch axis: (B, N) amplitudes give (B, N, N)
tables, and their flat (B, 4^n) views give laws and values of R. A batch is
built chunk_states(n) states at a time, so one chunk's complex derivative
array stays under _CHUNK_BYTES. The single-state calls run the same kernels
without the batch axis, and a state's values are the same bits alone or in a
batch: every step is elementwise or runs along the last axis.
"""

from __future__ import annotations

import functools
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


# Bytes of one chunk's complex derivative array (1,024 states at n = 3, 64 at
# n = 4, 4 at n = 6); larger chunks spill the Walsh passes out of cache.
_CHUNK_BYTES = 1 << 18


def chunk_states(n: int) -> int:
    """States per chunk of char_tables at n qubits: the most whose complex
    derivative array fits in _CHUNK_BYTES, and at least one."""
    return max(1, _CHUNK_BYTES // (16 << 2 * n))


@functools.cache
def _xor_index(n: int) -> np.ndarray:
    """[y, x] -> x ^ y over range(2^n); read-only, since callers share it."""
    idx = np.arange(1 << n)
    out = idx[:, None] ^ idx[None, :]
    out.setflags(write=False)
    return out


def char_tables(g: np.ndarray) -> np.ndarray:
    """Tables f[..., y, alpha] of amplitudes g[..., x] in the g-convention:
    one state's (N,) gives (N, N), and a batch's (B, N) gives (B, N, N),
    built chunk_states(n) states at a time. One Walsh transform per
    phase-derivative row."""
    N = g.shape[-1]
    n = N.bit_length() - 1
    if n > MAX_QUBITS:
        raise TableError(f"tables capped at n = {MAX_QUBITS}")
    step = chunk_states(n)
    if g.ndim > 1 and len(g) > step:
        f = np.empty(g.shape + (N,))
        for at in range(0, len(g), step):
            f[at : at + step] = char_tables(g[at : at + step])
        return f
    # [..., y, x]; the index names the leading axes, since g[..., xor] takes
    # numpy's slower subspace path even for one state
    at_x = (slice(None),) * (g.ndim - 1) + (_xor_index(n),)
    deriv = g[..., None, :] * np.conj(g)[at_x]
    f = np.abs(fwht(deriv) / N) ** 2
    if not np.isfinite(f).all():
        raise TableError("the table is not finite: the amplitudes overflow")
    return f


def char_function(state: StateVector) -> CharTable:
    """The table of one state: char_tables without a batch axis."""
    return CharTable(state.n, char_tables(state.g))


def symplectic_fourier(f: np.ndarray) -> np.ndarray:
    """z -> (1/N) sum_z' (-1)^[z,z'] f(z') on each (N, N) table of f
    (..., N, N); the identity on valid tables."""
    # [(y,a),(y',a')] = <y,a'> + <a,y'>, so the symplectic transform is the
    # plain 2-axis Walsh transform with the output halves swapped.
    return fwht(fwht(f, axis=-2), axis=-1).swapaxes(-1, -2) / f.shape[-1]


def diff_laws(flat: np.ndarray) -> np.ndarray:
    """q = f * f with (f*g)(z) = E_w[f(w) g(z+w)] over F2^(2n) for each table
    of flat (..., 4^n), z-ordered like CharTable.flat(): laws of the same
    shape and order, each summing to 1 for a normalized state."""
    M = flat.shape[-1]
    hat = fwht(flat)
    q = fwht(hat * hat) / M**2
    return np.maximum(q, 0.0)


def bell_diff_distribution(t: CharTable) -> np.ndarray:
    """The law q = f * f of one table: diff_laws on t.flat()."""
    return diff_laws(t.flat())


def table_R(flat: np.ndarray) -> np.ndarray:
    """sum_z q(z) f(z) with q = diff_laws(flat), for each table of flat
    (..., 4^n). np.vecdot runs np.dot's kernel on each table, so a value is
    the same bits alone or in a batch; an einsum sums in another order and
    moves the last bits of some values."""
    return np.vecdot(diff_laws(flat), flat)


def exact_R(state: StateVector) -> float:
    """sum_z q(z) f(z), computed exactly from the state's table."""
    return float(table_R(char_function(state).flat()))


def char_table_csv(t: CharTable) -> str:
    bits = [format(x, f"0{t.n}b") for x in range(t.N)]
    lines = ["y_bits,alpha_bits,f_value"]
    lines += (
        f"{bits[y]},{bits[a]},{value!r}"
        for y, row in enumerate(t.f.tolist())
        for a, value in enumerate(row)
    )
    return "\n".join(lines) + "\n"
