"""Order-polytope slice volumes as a statistical cross-check of F-tables.

The order polytope of P is the set of monotone vectors in the unit cube.
Fixing the two coordinate gaps v(z2) - v(z1) = s and v(z3) - v(z2) = t
slices it to an (n-2)-dimensional polytope whose volume, measured in the
coordinate chart that drops v(z2) and v(z3), is the polynomial

    V(s, t) = sum_{k,l} F(k,l) s^{k-1}/(k-1)! * t^{l-1}/(l-1)!
                          * (1-s-t)^{n-k-l}/(n-k-l)!

Two routes at work here: the exact rational evaluation of V, and
hit-or-miss Monte Carlo over the same chart.  The tests also recover
every F(k,l) from exact evaluations of V by polynomial interpolation;
since those evaluations come from F, that checks only that the
formula's basis is unisolvent on the interpolation nodes, not F itself.

``volume_formula`` sums V in integers: with s, t, 1-s-t = a/q, b/q, c/q
over one common denominator q, V(s, t) q^(n-2) (n-2)! is the integer
sum of F(k,l) (n-2)!/((k-1)! (l-1)! (n-k-l)!) a^(k-1) b^(l-1) c^(n-k-l),
and one Fraction is built from it at the end.

``volume_mc`` draws and tests its points in blocks of ``MC_BATCH`` rows,
into buffers allocated once per call: the point block takes
MC_BATCH x dim x 8 bytes (64 KiB per chart coordinate), and one float
and two boolean columns of MC_BATCH entries (80 KiB) go with it, so at
n <= 9 (dim <= 7) one block's working set stays under 0.6 MiB, inside a
typical L2 cache.  The hit count does not depend on the block size:
``Generator.random`` fills consecutive blocks from one stream in the
same order as a single (samples, dim) draw, each row is tested on its
own, and every test evaluates x_a - x_b + c <= 0 with the same IEEE
operations in the same order.

numpy is imported inside ``_count_hits``, the one function that draws, and
nowhere else in posetlab: every exact route, and every command but
``volume-mc``, runs without loading it and its ~12 MiB of resident memory.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm, sqrt

from .errors import BadParams, CycleDetected, DegenerateSlice
from .extensions import FTable
from .posets import MarkedTriple, Poset, _Record, normalize

MC_BATCH = 1 << 13  # sample rows drawn and tested per block


def volume_formula(F: FTable, s: Fraction, t: Fraction) -> Fraction:
    """Exact rational value of the slice-volume polynomial at (s, t)."""
    s, t = Fraction(s), Fraction(t)
    n = F.n
    q = lcm(s.denominator, t.denominator)
    a, b = s.numerator * (q // s.denominator), t.numerator * (q // t.denominator)
    c = q - a - b
    a_pow, b_pow, c_pow = ([x**i for i in range(n - 1)] for x in (a, b, c))
    total = 0
    for (k, l), v in F.entries.items():
        if v == 0 or k + l > n:
            continue
        # (n-2)! / ((k-1)! (l-1)! (n-k-l)!) as a product of two binomials
        total += (
            v * comb(n - 2, k - 1) * comb(n - k - 1, l - 1)
            * a_pow[k - 1] * b_pow[l - 1] * c_pow[n - k - l]
        )
    return Fraction(total, factorial(n - 2) * q ** (n - 2))


def _slice_system(p: Poset, z: MarkedTriple, s: Fraction, t: Fraction):
    """Affine constraint system over the chart coordinates.

    Chart: all coordinates except v(z2), v(z3); those are replaced by
    v(z1) + s and v(z1) + s + t.  Returns (columns, constraints) where each
    constraint (i, j, c) means  x_i - x_j + c <= 0; j is None in the cube
    bound x_i + c <= 0.  The caller has run ``normalize``, so a cover
    between two marks runs forward along z1, z2, z3, holds for every
    s, t > 0 and gives no constraint.

    Only cover relations give constraints.  Each reads v(a) <= v(b), and
    in exact arithmetic the one of any a < b is the sum of those along a
    chain of covers from a to b, so the polytope is the same.  So is the
    Monte Carlo hit count: sampled coordinates are multiples of 2^-53 in
    [0, 1), so x_i - x_j is exact, and the rounded x_i - x_j + c has the
    sign of the exact sum, so each test decides v(a) <= v(b) exactly.
    """
    z1, z2, z3 = z.as_tuple()
    cols = [x for x in range(p.n) if x not in (z2, z3)]
    col_of = {x: i for i, x in enumerate(cols)}
    sf, tf = float(s), float(t)

    def term(x):
        # (column index or None, constant offset)
        if x == z2:
            return col_of[z1], sf
        if x == z3:
            return col_of[z1], sf + tf
        return col_of[x], 0.0

    constraints = []
    for a, b in p.covers:
        ia, ca = term(a)
        ib, cb = term(b)
        if ia == ib:  # both marks
            continue
        constraints.append((ia, ib, ca - cb))
    # z2, z3 must stay inside the cube; lower bounds are implied by s,t > 0.
    constraints.append((col_of[z1], None, sf + tf - 1.0))
    return cols, constraints


class McEstimate(_Record):
    __slots__ = ("mean", "stderr", "hits", "samples")

    def within(self, exact: Fraction, sigmas: float = 3.0) -> bool:
        return abs(self.mean - float(exact)) <= sigmas * self.stderr


def volume_mc(
    p: Poset,
    z: MarkedTriple,
    s: Fraction,
    t: Fraction,
    samples: int,
    seed: int,
) -> McEstimate:
    """Hit-or-miss Monte Carlo estimate of the slice volume.

    Samples the chart cube uniformly and counts points satisfying every
    order constraint; the bounding box has unit volume, so the hit rate
    estimates the volume directly.  Raises DegenerateSlice when no
    extension respects the marked order at all.
    """
    s, t = Fraction(s), Fraction(t)
    if not (0 < s and 0 < t and s + t < 1):
        raise BadParams("need 0 < s, 0 < t, s + t < 1")
    if samples < 1 or seed < 0:
        raise BadParams(f"need samples >= 1 and seed >= 0, got {samples} and {seed}")
    try:
        normalize(p, z)  # once it succeeds, every extension realizes the gaps
    except CycleDetected:
        raise DegenerateSlice("no monotone vector realizes the two gaps") from None
    cols, constraints = _slice_system(p, z, s, t)
    hits = _count_hits(constraints, len(cols), samples, seed)
    mean = hits / samples
    stderr = sqrt(max(mean * (1.0 - mean), 0.0) / samples)
    return McEstimate(mean, stderr, hits, samples)


def _count_hits(constraints, dim: int, samples: int, seed: int) -> int:
    """Points among ``samples`` uniform draws from the unit ``dim``-cube
    (``numpy.random.default_rng(seed)``) that satisfy every constraint,
    drawn and tested ``MC_BATCH`` rows at a time.  Each constraint (i, j, c)
    is evaluated as x_i - x_j + c <= 0 in that order, reading 0.0 for
    j = None."""
    import numpy as np

    rng = np.random.default_rng(seed)
    rows = min(MC_BATCH, samples)
    pts = np.empty((rows, dim))
    diff = np.empty(rows)
    test = np.empty(rows, dtype=bool)
    ok = np.empty(rows, dtype=bool)
    hits = 0
    for start in range(0, samples, rows):
        m = min(rows, samples - start)
        block, d, t_m, ok_m = pts[:m], diff[:m], test[:m], ok[:m]
        rng.random(out=block)
        ok_m.fill(True)
        for ia, ib, c in constraints:
            if ib is None:
                np.subtract(block[:, ia], 0.0, out=d)
            else:
                np.subtract(block[:, ia], block[:, ib], out=d)
            np.add(d, c, out=d)
            np.less_equal(d, 0.0, out=t_m)
            np.logical_and(ok_m, t_m, out=ok_m)
        hits += int(np.count_nonzero(ok_m))
    return hits
