"""Bitset linear algebra over F2: subspaces, symplectic structure, maps."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stab_lab.gf2 import (
    AffineMap,
    AffineSubspace,
    DimensionMismatchError,
    LinMap,
    Subspace,
    all_subspaces,
    cover_affine_map,
    dot,
    doubling_stats,
    linmap_from_images,
    nullspace,
    perp,
    phase_sum,
    rref_insert,
    span_points,
    symp_pack,
    symp_swap,
    symp_unpack,
    symplectic_form,
)

vec8 = st.integers(min_value=0, max_value=255)


@given(vec8, vec8, vec8)
def test_dot_is_bilinear(x, y, z):
    assert dot(x ^ y, z) == dot(x, z) ^ dot(y, z)
    assert dot(z, x ^ y) == dot(z, x) ^ dot(z, y)


@given(st.integers(1, 4), vec8, vec8)
def test_symp_pack_roundtrip(n, y, alpha):
    y &= (1 << n) - 1
    alpha &= (1 << n) - 1
    z = symp_pack(n, y, alpha)
    assert symp_unpack(n, z) == (y, alpha)
    assert symp_swap(n, symp_swap(n, z)) == z


@given(st.integers(1, 4), st.data())
def test_symplectic_form_alternating_bilinear(n, data):
    top = (1 << (2 * n)) - 1
    z1 = data.draw(st.integers(0, top))
    z2 = data.draw(st.integers(0, top))
    z3 = data.draw(st.integers(0, top))
    assert symplectic_form(n, z1, z1) == 0
    assert symplectic_form(n, z1, z2) == symplectic_form(n, z2, z1)
    assert symplectic_form(n, z1 ^ z2, z3) == (
        symplectic_form(n, z1, z3) ^ symplectic_form(n, z2, z3)
    )


def test_symplectic_form_dimension_check():
    with pytest.raises(DimensionMismatchError):
        symplectic_form(1, 4, 0)


@given(st.integers(1, 6), st.lists(st.integers(0, 63), max_size=6))
def test_subspace_membership_matches_enumeration(n, vectors):
    vectors = [v & ((1 << n) - 1) for v in vectors]
    sub = Subspace.from_vectors(n, vectors)
    elements = set(sub)
    assert len(elements) == len(sub) == 1 << sub.dim
    for v in range(1 << n):
        assert sub.contains(v) == (v in elements)


@given(st.integers(1, 6), st.lists(st.integers(0, 63), max_size=6))
def test_subspace_basis_is_canonical(n, vectors):
    vectors = [v & ((1 << n) - 1) for v in vectors]
    sub = Subspace.from_vectors(n, vectors)
    # any spanning set in any order gives the same basis
    resub = Subspace.from_vectors(n, reversed(list(sub)))
    assert sub.basis == resub.basis


@given(st.lists(st.integers(0, (1 << 10) - 1), max_size=12))
def test_rref_insert_keeps_canonical_form(vectors):
    rows = []
    for v in vectors:
        before = list(rows)
        added = rref_insert(rows, v)
        assert (added != 0) == (len(rows) == len(before) + 1)
        pivots = [r.bit_length() - 1 for r in rows]
        assert len(set(pivots)) == len(rows) and 0 not in rows
        for r, p in zip(rows, pivots):
            assert all((other >> p) & 1 == (other == r) for other in rows)
        assert rows == sorted(rows, reverse=True)
    assert tuple(rows) == Subspace.from_vectors(10, vectors).basis


@given(st.integers(1, 6), st.data())
def test_linmap_from_images_roundtrip(n, data):
    top = (1 << n) - 1
    inputs = Subspace.from_vectors(n, data.draw(st.lists(st.integers(0, top), max_size=n)))
    pairs = [(v, data.draw(st.integers(0, top))) for v in inputs.basis]
    m = linmap_from_images(n, pairs)
    for v, w in pairs:
        assert m(v) == w
    for c in inputs.complement_basis():
        assert m(c) == 0


@given(st.integers(1, 8), st.lists(st.integers(0, 255), max_size=8))
def test_nullspace_dimension(n, constraints):
    constraints = [c & ((1 << n) - 1) for c in constraints]
    rank = Subspace.from_vectors(n, constraints).dim
    ns = nullspace(n, constraints)
    assert ns.dim == n - rank
    assert all(dot(v, c) == 0 for v in ns.basis for c in constraints)


@given(st.integers(1, 5), st.lists(st.integers(0, 31), max_size=5))
def test_span_points_matches_xor_loop(n, vectors):
    vectors = [v & ((1 << n) - 1) for v in vectors]
    expected = []
    for y in range(1 << len(vectors)):
        acc = 0
        for i, v in enumerate(vectors):
            if (y >> i) & 1:
                acc ^= v
        expected.append(acc)
    assert span_points(vectors).tolist() == expected
    pairs = np.array([[v, v ^ 1] for v in vectors], dtype=np.int64).reshape(-1, 2)
    batch = span_points(pairs)  # two vector lists at once, y on the last axis
    assert batch.shape == (2, 1 << len(vectors))
    assert batch[0].tolist() == expected
    assert batch[1].tolist() == span_points([v ^ 1 for v in vectors]).tolist()


def test_complement_basis_completes():
    sub = Subspace.from_vectors(4, [0b1100, 0b0110])
    comp = sub.complement_basis()
    full = Subspace.from_vectors(4, sub.basis + comp)
    assert full.dim == 4


def test_affine_subspace_canonical_equality():
    direction = Subspace.from_vectors(3, [0b011])
    a = AffineSubspace(0b100, direction)
    b = AffineSubspace(0b111, direction)  # same coset
    assert a == b
    assert set(a) == {0b100, 0b111}


def _linmap_matrix(m: LinMap):
    return [[(m.cols[j] >> i) & 1 for j in range(m.n)] for i in range(m.n)]


@given(st.integers(1, 4), st.data())
def test_linmap_transpose_and_compose(n, data):
    cols_a = tuple(data.draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
    cols_b = tuple(data.draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
    a, b = LinMap(n, cols_a), LinMap(n, cols_b)
    assert a.transpose().transpose() == a
    mat_a = _linmap_matrix(a)
    mat_t = _linmap_matrix(a.transpose())
    assert all(mat_a[i][j] == mat_t[j][i] for i in range(n) for j in range(n))
    ab = a.compose(b)
    for x in range(1 << n):
        assert ab(x) == a(b(x))
        assert a.add(b)(x) == a(x) ^ b(x)


@given(st.integers(1, 4), st.data())
def test_linmap_linearity(n, data):
    cols = tuple(data.draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
    m = LinMap(n, cols)
    x = data.draw(st.integers(0, (1 << n) - 1))
    y = data.draw(st.integers(0, (1 << n) - 1))
    assert m(x ^ y) == m(x) ^ m(y)


def test_rank_one_map():
    m = LinMap.rank_one(3, 0b101, 0b011)
    for x in range(8):
        assert m(x) == (0b101 if dot(0b011, x) else 0)


def test_linmap_from_images():
    pairs = [(0b01, 0b11), (0b10, 0b01)]
    m = linmap_from_images(2, pairs)
    for v, w in pairs:
        assert m(v) == w
    with pytest.raises(ValueError):
        linmap_from_images(2, [(0b01, 0), (0b01, 1)])


@given(st.integers(1, 3), st.lists(st.integers(0, 63), max_size=4), st.data())
def test_phase_sum_oracle(n, vectors, data):
    top = (1 << (2 * n)) - 1
    vectors = [v & top for v in vectors]
    S = Subspace.from_vectors(2 * n, vectors)
    zp = data.draw(st.integers(0, top))
    expected = sum(1 - 2 * symplectic_form(n, z, zp) for z in S)
    assert phase_sum(S, zp) == expected
    in_perp = all(symplectic_form(n, b, zp) == 0 for b in S.basis)
    assert phase_sum(S, zp) == (len(S) if in_perp else 0)


@given(st.integers(1, 3), st.lists(st.integers(0, 63), max_size=4))
def test_perp_dimensions_and_involution(n, vectors):
    top = (1 << (2 * n)) - 1
    S = Subspace.from_vectors(2 * n, [v & top for v in vectors])
    P = perp(S)
    assert S.dim + P.dim == 2 * n
    assert perp(P).basis == S.basis
    for b in S.basis:
        for c in P.basis:
            assert symplectic_form(n, b, c) == 0


def test_nullspace_solves_constraints():
    ns = nullspace(4, [0b0011, 0b1100])
    assert ns.dim == 2
    for v in ns:
        assert dot(v, 0b0011) == 0 and dot(v, 0b1100) == 0


def _combination_subspaces(n):
    """Order oracle: for m = 1..n, each m-combination of nonzero vectors in
    itertools.combinations order, kept when it is independent and spans a
    subspace not seen before."""
    seen = {()}
    out = [Subspace(n, ())]
    for m in range(1, n + 1):
        for combo in itertools.combinations(range(1, 1 << n), m):
            sub = Subspace.from_vectors(n, combo)
            if sub.dim == m and sub.basis not in seen:
                seen.add(sub.basis)
                out.append(sub)
    return out


def test_all_subspaces_counts():
    # total number of subspaces of F2^n: sum of Gaussian binomials
    expected = {1: 2, 2: 5, 3: 16, 4: 67}
    for n, count in expected.items():
        subs = all_subspaces(n)
        assert len(subs) == count
        assert len({s.basis for s in subs}) == count
        assert subs == _combination_subspaces(n)


@given(st.integers(1, 3), st.data())
@settings(max_examples=50, deadline=None)
def test_cover_affine_map_guarantee(n, data):
    top = (1 << (2 * n)) - 1
    points = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=12))
    dirs = data.draw(st.lists(st.integers(0, top), max_size=3))
    offset = data.draw(st.integers(0, top))
    V = AffineSubspace(offset, Subspace.from_vectors(2 * n, dirs))
    amap, count = cover_affine_map(n, points, V)
    graph = set(amap.graph())
    assert count == sum(1 for z in points if z in graph)
    # covering guarantee |G(l) cap S| >= |S cap V| |U| / |V|
    s_cap_v = sum(1 for z in points if V.contains(z))
    U = Subspace.from_vectors(n, (b >> n for b in V.direction.basis))
    assert count >= s_cap_v * len(U) / len(V) - 1e-9


def test_doubling_stats_subspace_is_closed():
    S = Subspace.from_vectors(4, [0b0011, 0b1100])
    energy, ratio = doubling_stats(2, list(S))
    assert energy == 1.0
    assert ratio == 1.0


def test_doubling_stats_generic():
    energy, ratio = doubling_stats(2, [0b0000, 0b0001, 0b0010, 0b0100])
    # only pairs involving 0 (and the diagonal through 0) land back in S
    assert 0 < energy < 1
    assert ratio > 1.0


def test_affine_map_graph():
    amap = AffineMap(LinMap.identity(2), 0b01)
    graph = amap.graph()
    assert len(graph) == 4
    for z in graph:
        y, a = symp_unpack(2, z)
        assert a == y ^ 0b01
