"""Shared corpus builders and brute-force oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest

from posetlab.errors import BadChain, BadParams, IndexOutOfRange
from posetlab.extensions import enumerate_extensions
from posetlab.posets import MarkedTriple, Poset, build, check_marks
from posetlab.search import enumerate_posets, random_instance
from posetlab.vanishing import SupportRegion


def corpus(count: int, n_lo: int, n_hi: int, seed: int):
    """Deterministic random (poset, chain-triple) sample."""
    out = []
    idx = 0
    while len(out) < count:
        p, z = random_instance(seed, idx, n_lo, n_hi)
        idx += 1
        if z is not None:
            out.append((p, z))
    return out


def chain_triples(p: Poset):
    """All ordered triples z1 < z2 < z3 of one poset."""
    return [
        MarkedTriple(a, b, c)
        for a in range(p.n)
        for b in range(p.n)
        for c in range(p.n)
        if p.less(a, b) and p.less(b, c)
    ]


def oracle_f_entries(p: Poset, z: MarkedTriple) -> dict[tuple[int, int], int]:
    """F(k, l) by plain enumeration; independent of the DP route."""
    out: dict[tuple[int, int], int] = {}
    for w in enumerate_extensions(p):
        pos = {e: i + 1 for i, e in enumerate(w)}
        k, l = pos[z.z2] - pos[z.z1], pos[z.z3] - pos[z.z2]
        if k >= 1 and l >= 1:
            out[(k, l)] = out.get((k, l), 0) + 1
    return out


def dense_rows(F) -> list:
    """F as a list of rows, zero-padded to (n + 2) x (n + 2), cell by cell
    from ``F.entries``: the dict oracle for ``extensions._f_rows``."""
    size = F.n + 2
    rows = [[0] * size for _ in range(size)]
    for (k, l), v in F.entries.items():
        rows[k][l] = v
    return rows


def marked_sample():
    """Every marked poset on n <= 5 elements, then a seeded random sample."""
    for n in range(3, 6):
        for p in enumerate_posets(n):
            for z in chain_triples(p):
                yield p, z
    for index in range(300):
        p, z = random_instance(9, index, 3, 8)
        if z is not None:
            yield p, z


def is_extension(p: Poset, word) -> bool:
    """Whether ``word`` lists every element once with no element after one
    above it."""
    if sorted(word) != list(range(p.n)):
        return False
    seen = 0
    for x in word:
        if p.down[x] & ~seen:
            return False
        seen |= 1 << x
    return True


def tau(p: Poset, word, i: int) -> tuple[int, ...]:
    """Apply tau_i (1-based i in 1..n-1) to an extension word."""
    if not 1 <= i <= len(word) - 1:
        raise IndexOutOfRange(f"tau index {i} outside 1..{len(word) - 1}")
    a, b = word[i - 1], word[i]
    if p.up[a] >> b & 1:
        return tuple(word)
    if p.up[b] >> a & 1:
        raise ValueError("word is not a linear extension")
    w = list(word)
    w[i - 1], w[i] = b, a
    return tuple(w)


def flat_threshold(p: Poset, z: MarkedTriple) -> int:
    """Smallest t for which the poset is t-flat w.r.t. the marked set."""
    return max(1, max(p.b[u] + p.b_star[u] for u in z.as_tuple()) - 1)


def exists_extension_at(p: Poset, zs, positions) -> bool:
    """Is there an extension with the chain zs[i] at position positions[i]?

    ``zs`` must be distinct elements (``check_marks``), strictly
    chain-ordered, and ``positions`` strictly increasing within 1..n.
    """
    zs, positions = list(zs), list(positions)
    if len(zs) != len(positions) or not zs:
        raise BadChain("need one position per chain element")
    check_marks(p.n, zs)
    for x, y in zip(zs, zs[1:]):
        if not p.less(x, y):
            raise BadChain(f"marks not chain-ordered: {x} !< {y}")
    for a in positions:
        if not 1 <= a <= p.n:
            raise IndexOutOfRange(f"position {a} outside 1..{p.n}")
    if any(positions[i] >= positions[i + 1] for i in range(len(positions) - 1)):
        raise BadChain("positions must be strictly increasing")
    n = p.n
    for z, a in zip(zs, positions):
        if p.b[z] > a or p.b_star[z] > n - a + 1:
            return False
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            if positions[j] - positions[i] < p.interval(zs[i], zs[j]) - 1:
                return False
    return True


def hexagon_closure_check(region_or_points) -> bool:
    """Diagonal closure: (k,l) and (k+1,l+1) in S forces (k+1,l), (k,l+1) in S.

    Accepts a SupportRegion or any iterable of integer points.
    """
    if isinstance(region_or_points, SupportRegion):
        pts = region_or_points.points()
    else:
        pts = set(region_or_points)
    return all(
        (k + 1, l) in pts and (k, l + 1) in pts
        for (k, l) in pts
        if (k + 1, l + 1) in pts
    )


def width_bruteforce(p: Poset) -> int:
    """Maximum antichain by scanning all subsets; oracle for small n."""
    if p.n > 20:
        raise BadParams("brute-force width restricted to n <= 20")
    comparable = p.comparable
    best = 1
    for mask in range(1, 1 << p.n):
        bits = mask
        while bits:
            x = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            if (comparable[x] & mask) != 1 << x:
                break
        else:
            best = max(best, mask.bit_count())
    return best


def words_by_position(p: Poset, a: int) -> dict[int, list[tuple[int, ...]]]:
    """Extension words bucketed by the (1-based) position of ``a``."""
    out: dict[int, list[tuple[int, ...]]] = {}
    for w in enumerate_extensions(p):
        out.setdefault(w.index(a) + 1, []).append(w)
    return out


def oracle_n_counts(p: Poset, a: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for w in enumerate_extensions(p):
        pos = w.index(a) + 1
        out[pos] = out.get(pos, 0) + 1
    return out


def width_five_poset(n: int = 28, seed: int = 2006) -> Poset:
    """Five chains of near-equal length with random relations from a level
    of one chain to a higher level of another, never out of a chain's top
    element, so the five tops stay an antichain."""
    rng = random.Random(seed)
    ids = list(range(n))
    rng.shuffle(ids)
    chains = [ids[j::5] for j in range(5)]
    pairs = [(c[i], c[i + 1]) for c in chains for i in range(len(c) - 1)]
    for _ in range(15):
        lo, hi = rng.sample(chains, 2)
        a = rng.randrange(len(lo) - 1)
        if a + 1 < len(hi):
            pairs.append((lo[a], hi[rng.randrange(a + 1, len(hi))]))
    return build(n, pairs)


def interpolation_nodes(n: int) -> list[tuple[Fraction, Fraction]]:
    """Shifted principal lattice: (n-1)n/2 interior rational nodes,
    unisolvent for polynomials of total degree n-2."""
    m = n - 2
    den = m + 3
    return [
        (Fraction(a + 1, den), Fraction(b + 1, den))
        for a in range(m + 1)
        for b in range(m - a + 1)
    ]


def _solve_exact(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over the rationals; raises on singularity."""
    size = len(matrix)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            raise ArithmeticError("interpolation system is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][size] for r in range(size)]


def recover_f_from_volume(volume_at, n: int) -> dict[tuple[int, int], Fraction]:
    """Recover every F(k, l) exactly from evaluations of the slice volume.

    ``volume_at(s, t)`` must return exact rationals.  Fed
    ``geometry.volume_formula(F, s, t)``, it gets F back exactly when the
    formula's basis is unisolvent on ``interpolation_nodes(n)``: a check of
    the formula, not a second count of F.  The coefficients in
    the simplex basis s^{k-1} t^{l-1} (1-s-t)^{n-k-l} scaled by the inverse
    factorials are solved from the shifted-lattice evaluations.
    """
    cells = [(k, l) for k in range(1, n) for l in range(1, n - k + 1) if n - k - l >= 0]
    nodes = interpolation_nodes(n)
    assert len(nodes) == len(cells)
    matrix = []
    for s, t in nodes:
        u = 1 - s - t
        row = [
            s ** (k - 1) / factorial(k - 1)
            * t ** (l - 1) / factorial(l - 1)
            * u ** (n - k - l) / factorial(n - k - l)
            for (k, l) in cells
        ]
        matrix.append(row)
    values = [Fraction(volume_at(s, t)) for s, t in nodes]
    coeffs = _solve_exact(matrix, values)
    return {cell: c for cell, c in zip(cells, coeffs)}


@pytest.fixture(scope="session")
def small_poset_classes():
    """One representative per isomorphism class for every n <= 5."""
    return {n: enumerate_posets(n) for n in range(1, 6)}


@pytest.fixture(scope="session")
def poset_classes():
    """One representative per isomorphism class for every n <= 6: 405 posets."""
    return [p for n in range(1, 7) for p in enumerate_posets(n)]


@pytest.fixture(scope="session")
def medium_corpus():
    """60 random marked posets with 4 <= n <= 7 for module-level tests."""
    return corpus(60, 4, 7, seed=20240)


@pytest.fixture(scope="session")
def wide_corpus():
    """40 random marked posets with 6 <= n <= 8."""
    return corpus(40, 6, 8, seed=777)
