"""Exact linear algebra over F2 using int bitsets.

Vectors in F2^n are Python ints with bit i holding coordinate i. Points of
the symplectic space F2^(2n) are packed as z = (y << n) | alpha. All
operations are pure functions on immutable values, except `rref_insert`, which
grows a row list in place. Whole spans (every XOR combination of a list of
vectors, see `span_points`) come back as numpy integer arrays indexed by the
combination bits y.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

# Covering-argument constants: a set with additive energy >= eps has a large
# intersection with an affine subspace, with quality eps^COVER_EXPONENT /
# COVER_CONSTANT. Vacuous as runtime thresholds at desk scale; kept as named
# documentation values only.
COVER_EXPONENT = 73
COVER_CONSTANT = 3 * 6**72

MAX_DIM = 64  # one machine word worth of coordinates


class DimensionMismatchError(ValueError):
    pass


def dot(x: int, y: int) -> int:
    """Standard inner product <x, y> over F2."""
    return (x & y).bit_count() & 1


def symp_pack(n: int, y: int, alpha: int) -> int:
    return (y << n) | alpha


def symp_unpack(n: int, z: int) -> tuple[int, int]:
    return z >> n, z & ((1 << n) - 1)


def symp_swap(n: int, z: int) -> int:
    """Swap the (y, alpha) halves of a symplectic point."""
    y, alpha = symp_unpack(n, z)
    return (alpha << n) | y


def symplectic_form(n: int, z1: int, z2: int) -> int:
    """[(y1,a1),(y2,a2)] = <y1,a2> + <y2,a1> over F2."""
    if max(z1, z2) >> (2 * n):
        raise DimensionMismatchError(f"point does not fit in F2^{2*n}")
    return dot(z1, symp_swap(n, z2))


def span_points(vectors) -> np.ndarray:
    """out[y] = XOR of vectors[i] over the set bits i of y, for every y in
    range(2^len(vectors)).

    The vectors are ints, or equally shaped integer arrays (a batch); for a
    batch the combination index y is the last axis of the result."""
    vecs = np.asarray(vectors)
    if not len(vecs):
        vecs = vecs.astype(np.int64)
    out = np.zeros(vecs.shape[1:] + (1,), dtype=vecs.dtype)
    for v in vecs:
        out = np.concatenate([out, out ^ v[..., None]], axis=-1)
    return out


def _reduce(rows: Sequence[int], v: int) -> int:
    """v minus every row whose pivot (highest set bit) v contains; rows must
    be fully reduced and in decreasing order."""
    for r in rows:
        v = min(v, v ^ r)
    return v


def rref_insert(rows: list[int], v: int) -> int:
    """Gauss-Jordan insert of v into rows, in place.

    rows is kept fully reduced with pivots at the highest set bits (each
    pivot bit set in its own row only) and sorted in decreasing order, which
    makes it the canonical basis of its span. Returns the reduced v: nonzero
    exactly when v was outside the span and has been added."""
    v = _reduce(rows, v)
    if v:
        pivot = 1 << (v.bit_length() - 1)
        rows[:] = sorted([r ^ v if r & pivot else r for r in rows] + [v], reverse=True)
    return v


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of F2^ambient_dim with a canonical RREF basis."""

    ambient_dim: int
    basis: tuple[int, ...] = ()

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[int]) -> "Subspace":
        if ambient_dim > MAX_DIM:
            raise DimensionMismatchError(f"dimension {ambient_dim} exceeds {MAX_DIM}")
        rows: list[int] = []
        for v in vectors:
            rref_insert(rows, v)
        return Subspace(ambient_dim, tuple(rows))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __len__(self) -> int:
        return 1 << self.dim

    def reduce(self, v: int) -> int:
        """Canonical coset representative of v (lexicographically smallest)."""
        return _reduce(self.basis, v)

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def __iter__(self) -> Iterator[int]:
        # basis[0] varies slowest, so it takes the highest combination bit
        return (int(v) for v in span_points(self.basis[::-1]))

    def complement_basis(self) -> tuple[int, ...]:
        """Vectors extending the basis to all of F2^ambient_dim."""
        rows = list(self.basis)
        return tuple(
            1 << i for i in range(self.ambient_dim) if rref_insert(rows, 1 << i)
        )


@dataclass(frozen=True)
class AffineSubspace:
    """Coset offset + direction, with the offset canonicalized so structural
    equality is set equality."""

    offset: int
    direction: Subspace

    def __post_init__(self):
        object.__setattr__(self, "offset", self.direction.reduce(self.offset))

    @property
    def ambient_dim(self) -> int:
        return self.direction.ambient_dim

    def __len__(self) -> int:
        return len(self.direction)

    def contains(self, v: int) -> bool:
        return self.direction.contains(v ^ self.offset)

    def __iter__(self) -> Iterator[int]:
        for d in self.direction:
            yield d ^ self.offset


@dataclass(frozen=True)
class LinMap:
    """Linear map F2^n -> F2^n stored as column images (cols[j] = image of e_j)."""

    n: int
    cols: tuple[int, ...]

    def __post_init__(self):
        if len(self.cols) != self.n:
            raise DimensionMismatchError("need one column per coordinate")

    @staticmethod
    def zero(n: int) -> "LinMap":
        return LinMap(n, (0,) * n)

    @staticmethod
    def identity(n: int) -> "LinMap":
        return LinMap(n, tuple(1 << j for j in range(n)))

    def __call__(self, y: int) -> int:
        acc = 0
        while y:
            j = (y & -y).bit_length() - 1
            acc ^= self.cols[j]
            y &= y - 1
        return acc

    def images(self) -> np.ndarray:
        """self(y) for every y in range(2^n)."""
        return span_points(self.cols)

    def transpose(self) -> "LinMap":
        cols = tuple(
            sum(((self.cols[i] >> j) & 1) << i for i in range(self.n))
            for j in range(self.n)
        )
        return LinMap(self.n, cols)

    def is_symmetric(self) -> bool:
        return self.cols == self.transpose().cols

    def diagonal(self) -> int:
        return sum(((self.cols[i] >> i) & 1) << i for i in range(self.n))

    def add(self, other: "LinMap") -> "LinMap":
        return LinMap(self.n, tuple(a ^ b for a, b in zip(self.cols, other.cols)))

    def compose(self, other: "LinMap") -> "LinMap":
        """self after other: x -> self(other(x))."""
        return LinMap(self.n, tuple(self(c) for c in other.cols))

    @staticmethod
    def rank_one(n: int, u: int, v: int) -> "LinMap":
        """The map x -> u * <v, x>."""
        return LinMap(n, tuple(u if (v >> j) & 1 else 0 for j in range(n)))


@dataclass(frozen=True)
class AffineMap:
    """y -> linear(y) + shift."""

    linear: LinMap
    shift: int = 0

    @property
    def n(self) -> int:
        return self.linear.n

    def __call__(self, y: int) -> int:
        return self.linear(y) ^ self.shift

    def images(self) -> np.ndarray:
        """self(y) for every y in range(2^n)."""
        return self.linear.images() ^ self.shift

    def graph(self) -> list[int]:
        """All packed points (y, map(y)); always 2^n of them."""
        n = self.n
        return [symp_pack(n, y, self(y)) for y in range(1 << n)]


def linmap_from_images(n: int, pairs: Sequence[tuple[int, int]]) -> LinMap:
    """Linear map sending each (v, w) pair v -> w; inputs must be independent
    and are completed by sending a complement basis to 0."""
    span = Subspace.from_vectors(n, (v for v, _ in pairs))
    if span.dim != len(pairs):
        raise ValueError("input vectors are not independent")
    # The graph rows (v << n) | w span {(x, map(x))}; their canonical basis
    # has pivots e_j << n, so row j reads (e_j << n) | map(e_j).
    rows: list[int] = []
    for v, w in list(pairs) + [(c, 0) for c in span.complement_basis()]:
        rref_insert(rows, (v << n) | w)
    return LinMap(n, tuple(r & ((1 << n) - 1) for r in reversed(rows)))


def phase_sum(S: Subspace, zp: int) -> int:
    """Sum over z in S of (-1)^[z, zp]; equals |S| on the symplectic
    complement of S and 0 elsewhere."""
    if S.ambient_dim % 2:
        raise DimensionMismatchError("symplectic space must have even dimension")
    n = S.ambient_dim // 2
    if zp >> S.ambient_dim:
        raise DimensionMismatchError("point does not fit the ambient space")
    return sum(1 - 2 * symplectic_form(n, z, zp) for z in S)


def perp(S: Subspace) -> Subspace:
    """Symplectic complement {z : [z, z'] = 0 for all z' in S}."""
    if S.ambient_dim % 2:
        raise DimensionMismatchError("symplectic space must have even dimension")
    n = S.ambient_dim // 2
    constraints = [symp_swap(n, b) for b in S.basis]
    return nullspace(S.ambient_dim, constraints)


def nullspace(ambient_dim: int, constraints: Sequence[int]) -> Subspace:
    """{z : <z, c> = 0 for every constraint c}."""
    rows = list(Subspace.from_vectors(ambient_dim, constraints).basis)
    pivots = [r.bit_length() - 1 for r in rows]
    free = [i for i in range(ambient_dim) if i not in pivots]
    basis = []
    for fidx in free:
        # each row holds fidx or not, plus its own pivot and no other pivot
        v = 1 << fidx
        for r, p in zip(rows, pivots):
            if dot(v, r):
                v |= 1 << p
        assert all(dot(v, r) == 0 for r in rows)
        basis.append(v)
    return Subspace.from_vectors(ambient_dim, basis)


def cover_affine_map(
    n: int, S: Iterable[int], V: AffineSubspace
) -> tuple[AffineMap, int]:
    """Affine map l: F2^n -> F2^n whose graph covers at least
    |S inter V| * |U| / |V| points of S, where U is the projection of V onto
    the first half of the coordinates.

    Builds a base map L with (u, L(u)) in V for all u in U, then picks the
    best coset translate of its graph by exhaustive scoring. Ties among
    equally-scoring translates break toward the lexicographically smallest
    resulting shift.
    """
    if V.ambient_dim != 2 * n:
        raise DimensionMismatchError("V must live in F2^(2n)")
    points = list(S)

    u0 = V.offset >> n
    U0 = Subspace.from_vectors(n, (b >> n for b in V.direction.basis))

    def smallest_partner(u: int) -> int:
        for a in range(1 << n):
            if V.contains(symp_pack(n, u, a)):
                return a
        raise ValueError("projection point has no partner in V")

    u0p = smallest_partner(u0)
    pairs = []
    for ui in U0.basis:
        uip = smallest_partner(u0 ^ ui)
        pairs.append((ui, uip ^ u0p))
    M = (
        linmap_from_images(n, pairs)
        if pairs
        else LinMap.zero(n)
    )
    base_shift = u0p ^ M(u0)

    # Translating the graph of y -> M(y) + b only changes the shift, so score
    # every achievable shift at once: point (y, a) lies on the graph with
    # shift c exactly when c = a + M(y).
    counts: dict[int, int] = {}
    for z in points:
        y, a = symp_unpack(n, z)
        c = a ^ M(y)
        counts[c] = counts.get(c, 0) + 1
    if counts:
        best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
        shift, count = best[0], best[1]
    else:
        shift, count = base_shift, 0
    return AffineMap(M, shift), count


def doubling_stats(n: int, S: Iterable[int]) -> tuple[float, float]:
    """(additive energy, sumset ratio) of a finite set in F2^(2n):
    energy = Pr_{z1,z2 in S}[z1+z2 in S], ratio = |S+S| / |S|."""
    points = list(dict.fromkeys(S))
    if not points:
        raise ValueError("S must be nonempty")
    pset = set(points)
    hits = sum(1 for z1 in points for z2 in points if z1 ^ z2 in pset)
    energy = hits / len(points) ** 2
    sumset = {z1 ^ z2 for z1 in points for z2 in points}
    return energy, len(sumset) / len(points)


def all_subspaces(n: int) -> list[Subspace]:
    """Every linear subspace of F2^n (desk scale: n <= 4), built as the RREF
    basis of each pivot pattern: row i is its pivot bit plus any bits below
    it that are not pivots. Sorted by dimension, then by the basis read in
    increasing order. That is the greedy least basis (each vector the least
    one of the subspace outside the span of those before), so a subspace
    comes where its first spanning set in itertools.combinations order
    would put it."""
    if n > 4:
        raise ValueError("subspace enumeration capped at n = 4")
    out = []
    for m in range(n + 1):
        for pivots in itertools.combinations(range(n - 1, -1, -1), m):
            mask = sum(1 << p for p in pivots)
            rows = [[1 << p | x for x in range(1 << p) if not x & mask] for p in pivots]
            out += (Subspace(n, basis) for basis in itertools.product(*rows))
    out.sort(key=lambda sub: (sub.dim, sub.basis[::-1]))
    return out
