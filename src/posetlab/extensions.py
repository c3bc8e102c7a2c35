"""Linear-extension enumeration and exact gap statistics.

A linear extension of P is a word x_1...x_n (each element once) with no
x_j < x_i for j > i.  For a marked triple z1 < z2 < z3 the central object
is the table

    F(k, l) = #{ extensions : pos(z2) - pos(z1) = k, pos(z3) - pos(z2) = l },

computed exactly from the lattice of down-sets (order ideals), which
``lattice(p)`` builds once per poset within ``IDEAL_BUDGET`` ideals, with
e(P) and the chain counts from the empty ideal and to the full one; every
count is then one fold over it (``_fold``), with each ideal's counts
Kronecker-packed into a single Python int, first coordinate in the lowest
digits.  The fold does that work only between the first and the last
mark: the chain counts carry every path before and after that band.

* gap-phase fold (``f_table``) -- a normalized triple enters every
  extension in order, so the gaps k and l only grow: k while z1 alone is
  placed, l while z1 and z2 are.
* positional fold (``f_table_signed``, ``pair_gap_table``, ``n_vector``,
  ``positional_gap_counts``) -- any marks, gaps of either sign, absolute
  positions; a mark not yet placed moves on with each step.

Both are the same fold with different gap axes, each run in the gaps its
caller asks for.  The signed table of a chain triple, in any order, is F
of the chain, relabelled: each cell moves by a linear map with
coefficients in {-1, 0, 1}.  The latest fold is kept on the poset next to
the lattice, with its coordinates, so F and the signed table of any order
of the same chain triple are folded once and later calls only decode it
into a fresh dict; a fold in other coordinates replaces it.
``STATE_BUDGET`` bounds the widest layer's ideals times the folded slots;
it is checked once, before a fold, so a kept fold, which passed it, is
returned at once.

``enumerate_extensions`` stays lattice-free; with ``word_classes`` it is
the brute-force oracle the tests check both folds against.
``word_classes`` is the one caller that keeps every word (for the word
injections): it first compares e(P), read off the lattice, with
``WORD_BUDGET``.  The enumerator is an iterative depth-first walk over
bitmasks; it also supplies the words that ``injections`` certifies.  It and
the gap axes read the rows ``down`` and ``cover_up``, which the poset fills
in while it validates its relation.

Counts are exact big integers throughout; no floating point.
"""

from __future__ import annotations

from itertools import compress, product, repeat
from operator import itemgetter
from typing import NamedTuple

from .errors import BadChain, MalformedInput, TooLarge
from .posets import (
    SCHEMA, MarkedTriple, Poset, _check_size, _json_int, _json_list, _json_marks, _json_object,
    _Record, check_marks, is_normalized,
)

ENUMERATION_MAX = 14
# words a caller may keep at once: ~200 bytes and ~20 us (all four word
# injections) per word, so ~0.4 GiB and ~40 s at the budget
WORD_BUDGET = 1 << 21
STATE_BUDGET = 1 << 26  # widest lattice layer x folded slots, in one fold
IDEAL_BUDGET = 1 << 21  # ideals one lattice may keep: ~380 bytes each at peak, ~750 MiB in all


class IdealLattice(NamedTuple):
    """Order ideals of a poset, smallest first.

    ``ideals`` lists every ideal as a bitmask, layer by layer (all ideals of
    size i before those of size i + 1), so it starts with the empty ideal
    and ends with the full one.  ``succ[t]`` lists the indices of the
    ideals ``I | 1 << x`` covering ``I = ideals[t]``, in ascending x.
    ``widest`` is the size of the largest layer and ``count`` is e(P), the
    number of maximal chains from the empty ideal to the full one.
    ``ways[t]`` counts the chains from the empty ideal to ``ideals[t]`` and
    ``above[t]`` those from it to the full one, so ``ways[-1]`` and
    ``above[0]`` are both e(P).
    """

    ideals: list
    succ: list
    widest: int
    count: int
    ways: list
    above: list


def _build_lattice(p: Poset) -> IdealLattice:
    """One breadth-first pass over the ideals: x covers I by I | 1 << x when
    x is addable to I, that is, a minimal element of its complement.  Each
    ideal's addable set is found once, when the ideal is first reached from
    I by x: the addable set of I without x, plus the upper covers y of x
    whose down[y] now lies inside (De Loof, De Meyer & De Baets, Fundamenta
    Informaticae 71, 2006).  The forward chain counts ride along; the
    backward ones take one reverse pass over ``succ`` once every ideal is
    kept.  ``IDEAL_BUDGET`` is checked before each new ideal is kept, so
    TooLarge comes mid-layer, before the ideal that would go over it is
    kept."""
    down, cover_up = p.down, p.cover_up
    ideals, succ, ways = [0], [], [1]
    addable = [sum(1 << x for x, below in enumerate(down) if not below)]
    index = {0: 0}
    layer_end = widest = 1
    limit = IDEAL_BUDGET  # first index past the budget
    for t, ideal in enumerate(ideals):
        if t == layer_end:  # the next layer is complete
            widest = max(widest, len(ideals) - t)
            layer_end = len(ideals)
        w = ways[t]
        edges = []
        free = here = addable[t]
        while free:
            low = free & -free
            free ^= low
            nxt = ideal | low
            j = index.get(nxt)
            if j is None:
                j = len(ideals)
                if j >= limit:
                    raise TooLarge(f"ideal lattice exceeds {limit} ideals")
                index[nxt] = j
                ideals.append(nxt)
                ways.append(w)
                more = here ^ low
                covers = cover_up[low.bit_length() - 1]
                while covers:
                    y = covers & -covers
                    covers ^= y
                    below = down[y.bit_length() - 1]
                    if below & nxt == below:
                        more |= y
                addable.append(more)
            else:
                ways[j] += w
            edges.append(j)
        succ.append(edges)
    above = [1] * len(ideals)
    for t in range(len(ideals) - 2, -1, -1):
        w = 0
        for j in succ[t]:
            w += above[j]
        above[t] = w
    return IdealLattice(ideals, succ, widest, ways[-1], ways, above)


def lattice(p: Poset) -> IdealLattice:
    """The lattice of order ideals, built on first use and kept in
    ``p.__dict__["_lattice"]``.  Raises TooLarge as soon as it would hold
    more than ``IDEAL_BUDGET`` ideals; nothing is kept then."""
    lat = p.__dict__.get("_lattice")
    if lat is None:
        lat = p.__dict__["_lattice"] = _build_lattice(p)
    return lat


def enumerate_extensions(p: Poset):
    """Yield every linear extension exactly once, words in lexicographic order.

    Iterative depth-first walk.  ``free[d]`` is the set of minimal elements
    among those not placed in ``word[:d]`` and ``todo[d]`` the part of it
    not yet tried at position d, lowest element first.  Placing x frees
    only upper covers of x, so ``free[d + 1]`` is found from ``free[d]``
    and those covers alone (``p.cover_up``, kept on the poset).
    """
    if p.n > ENUMERATION_MAX:
        raise TooLarge(f"enumeration guarded at n <= {ENUMERATION_MAX}")
    n, down, covers_up = p.n, p.down, p.cover_up
    word, free, todo = [0] * n, [0] * n, [0] * n
    free[0] = todo[0] = sum(1 << x for x in range(n) if not down[x])
    used = d = 0
    last = n - 1
    while True:
        t = todo[d]
        if not t:
            if not d:
                return
            d -= 1
            used ^= 1 << word[d]
            continue
        low = t & -t
        todo[d] = t ^ low
        x = word[d] = low.bit_length() - 1
        if d == last:
            yield tuple(word)
            continue
        used |= low
        nxt = free[d] ^ low
        c = covers_up[x]
        while c:
            y = c & -c
            c ^= y
            if not down[y.bit_length() - 1] & ~used:
                nxt |= y
        d += 1
        free[d] = todo[d] = nxt


def word_classes(p: Poset, z: MarkedTriple) -> tuple[dict, dict]:
    """(classes, positions): every extension word, bucketed by its gap pair
    (k, l) and by the (1-based) position of z2, each bucket in
    lexicographic order.

    Keeps every word, so TooLarge above n = ENUMERATION_MAX (before any
    lattice is built) or when e(P) exceeds WORD_BUDGET, before any word is
    enumerated.  Requires z1 < z2 < z3 (BadChain otherwise), as ``f_table``.
    """
    if p.n > ENUMERATION_MAX:
        raise TooLarge(f"enumeration guarded at n <= {ENUMERATION_MAX}")
    if not is_normalized(p, z):
        raise BadChain("word_classes requires z1 < z2 < z3; call normalize() first")
    count = lattice(p).count
    if count > WORD_BUDGET:
        raise TooLarge(f"e(P) = {count} words exceeds the word budget {WORD_BUDGET}")
    z1, z2, z3 = z.as_tuple()
    classes: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    positions: dict[int, list[tuple[int, ...]]] = {}
    for w in enumerate_extensions(p):
        j = w.index(z2)
        classes.setdefault((j - w.index(z1), w.index(z3) - j), []).append(w)
        positions.setdefault(j + 1, []).append(w)
    return classes, positions


def count_extensions(p: Poset) -> int:
    """e(P): number of maximal chains in the cached ideal lattice."""
    return lattice(p).count


class FTable(_Record):
    """Exact nonnegative-integer map (k, l) -> F(k, l) for one marked poset.

    Immutable by contract once built.  Entries absent from the map are zero;
    nonzero entries satisfy k, l >= 1 and k + l <= n - 1.
    """

    __slots__ = ("n", "z", "entries")

    def __init__(
        self, n: int, z: MarkedTriple, entries: dict[tuple[int, int], int] | None = None
    ) -> None:
        self.n = n
        self.z = z
        self.entries = {} if entries is None else entries

    def get(self, k: int, l: int) -> int:
        return self.entries.get((k, l), 0)

    def total(self) -> int:
        return sum(self.entries.values())

    def support(self) -> set[tuple[int, int]]:
        return {kl for kl, v in self.entries.items() if v > 0}

    def grid(self, margin: int = 2):
        """All (k, l) with 1 <= k, l and k + l <= n - 1 + margin."""
        for k in range(1, self.n + margin):
            for l in range(1, self.n + margin - k):
                yield (k, l)

    def to_json_obj(self) -> dict:
        cells = [[k, l, str(v)] for (k, l), v in sorted(self.entries.items()) if v]
        return {"schema": SCHEMA, "n": self.n, "z": list(self.z.as_tuple()), "F": cells}

    @staticmethod
    def from_json_obj(obj: dict) -> "FTable":
        """Inverse of ``to_json_obj``.  MalformedInput for a missing key, a
        non-integer field, a cell that is not [k, l, count] or is repeated, a
        negative count or a cell outside the triangle k, l >= 1, k + l <= n - 1;
        a count may be an int or, as written, ``str`` of one.  IndexOutOfRange
        for n outside 1..MAX_ELEMENTS; the marks are read as in ``load_poset``."""
        obj = _json_object(obj, "table JSON")
        n = _json_int(obj.get("n"), "'n'")
        _check_size(n)
        z = _json_marks(obj.get("z"), n)
        entries = {}
        for cell in _json_list(obj.get("F"), "'F'"):
            k, l, v = _json_list(cell, "cell", 3)
            k, l = _json_int(k, "cell k"), _json_int(l, "cell l")
            v = _json_int(v, "cell count", text=True)
            if not (k >= 1 and l >= 1 and k + l <= n - 1):
                raise MalformedInput(f"cell ({k}, {l}) outside 1 <= k, l and k + l <= {n - 1}")
            if v < 0:
                raise MalformedInput(f"cell ({k}, {l}) has negative count {v}")
            if (k, l) in entries:
                raise MalformedInput(f"cell ({k}, {l}) appears twice")
            entries[k, l] = v
        return FTable(n, z, entries)


def _gap_axis(p: Poset, u: int | None, v: int) -> tuple[int, int, int]:
    """(sign, offset, size) such that sign * (pos(v) - pos(u)) + offset stays
    in 0..size-1 at every step of a fold; u = None stands for position 0.

    Every x has all of down[x] before it and all of up[x] after it, so
    pos(v) - pos(u) lies in -lo..hi, with lo and hi as computed here.  A
    mark not yet placed sits at the current step, so a gap starts at 0 and
    stays inside those bounds on the way; when u and v are ordered it never
    changes sign and is counted up from 0.
    """
    n, up, down = p.n, p.up, p.down
    if u is None:
        return 1, 0, n + 1 - up[v].bit_count()
    hi = n - 1 - up[v].bit_count() - down[u].bit_count()
    lo = n - 1 - up[u].bit_count() - down[v].bit_count()
    if up[u] >> v & 1:
        return 1, 0, hi + 1
    if up[v] >> u & 1:
        return -1, 0, lo + 1
    return 1, lo, lo + hi + 1


def _fold(p: Poset, coords: tuple) -> tuple[int, int, int, list[range]]:
    """(packed, nbytes, slots, axes): extension counts by the gaps
    pos(v) - pos(u), one digit per (u, v) in ``coords`` (u = None stands
    for position 0).

    One fold over the cached ideal lattice.  The coords are the mixed-radix
    digits of one slot number c (first one least significant), ``axes[d]``
    lists the gap of digit d at each of its values, and the full ideal's
    int ``packed`` holds the count of slot c in bits W*c .. W*c + W - 1
    (Kronecker packing).  W = 8 * nbytes is e(P).bit_length() rounded up to
    whole bytes; no slot overflows into the next, since a partial count at
    an ideal J is at most e(J) <= e(P).  A mark not yet placed moves on with
    the step, so all edges out of an ideal I shift by the same number of
    slots, the sum of the weights of the marks outside I.  Every digit stays
    on its ``_gap_axis``, which makes a negative (right) shift exact.

    Big-int work is done only in the band: the ideals that hold some marks
    but not all.  Before the first mark every step shifts by shift[0] >= 0
    (only u = None adds to it), so the value at an ideal t there is its
    chain count ``lat.ways[t]``, moved by W*origin plus shift[0] per step;
    an edge out of t that places a mark seeds the successor with it.  After
    the last mark nothing shifts, so an edge into an ideal j that holds
    every mark adds its value times ``lat.above[j]``, the chains from j to
    the full ideal, to ``packed``, and such ideals are skipped.  With one
    mark (``n_vector``) the band is empty: each path is seeded and closed
    at the edge that places the mark.

    The latest result is kept in ``p.__dict__["_fold"]`` as a (coords,
    result) pair, next to the lattice, so a later request in the same
    coordinates (a second ``f_table``, or the signed table of any order of
    the same chain triple, which is F relabelled) only decodes it; a
    request in other coordinates folds anew and replaces it.  Before it
    folds, TooLarge when the widest layer's ideals times the slots exceed
    ``STATE_BUDGET``; a kept fold passed that check, so it is returned as
    it is.
    """
    kept = p.__dict__.get("_fold")
    if kept is not None and kept[0] == coords:
        return kept[1]
    lat = lattice(p)
    nbytes = (lat.count.bit_length() + 7) // 8
    width = 8 * nbytes
    weight = {}  # bits a count moves per step of each mark
    origin, slots, axes = 0, 1, []
    for u, v in coords:
        sign, offset, size = _gap_axis(p, u, v)
        step = width * slots * sign
        weight[v] = weight.get(v, 0) + step
        if u is not None:
            weight[u] = weight.get(u, 0) - step
        origin += slots * offset
        slots *= size
        axes.append(range(-offset * sign, (size - offset) * sign, sign))  # gap of digit d
    if lat.widest * slots > STATE_BUDGET:
        raise TooLarge(f"{lat.widest} ideals x {slots} slots exceeds state budget {STATE_BUDGET}")
    shift = {0: sum(weight.values())}  # marks inside the ideal, as a mask -> bits
    mark_mask = 0
    for m, w in weight.items():
        bit = 1 << m
        mark_mask |= bit
        for mask, bits in list(shift.items()):
            shift[mask | bit] = bits - w
    ideals, ways, above = lat.ideals, lat.ways, lat.above
    start, s0 = width * origin, shift[0]  # s0 >= 0: only u = None adds to it
    held = [ideal & mark_mask for ideal in ideals]
    packed, vals = 0, [0] * len(ideals)
    for t, edges in enumerate(lat.succ):
        h = held[t]
        if h == mark_mask:  # after the last mark: closed on the way in
            continue
        if h:  # in the band: some marks placed, not all
            c, s = vals[t], shift[h]
            vals[t] = 0  # release it
            c = c << s if s >= 0 else c >> -s
            missing = mark_mask ^ h
            if missing & missing - 1:  # more than one mark missing: no edge closes
                for j in edges:
                    vals[j] += c
                continue
        else:  # before the first mark: the chain count, shifted once per step
            c = None
        for j in edges:
            hj = held[j]
            if not hj:
                continue
            if c is None:
                c = ways[t] << start + s0 * (ideals[t].bit_count() + 1)
            if hj == mark_mask:  # times every path on to the full ideal
                packed += c * above[j]
            else:
                vals[j] += c
    folded = packed, nbytes, slots, axes
    p.__dict__["_fold"] = coords, folded
    return folded


_REVERSED = itemgetter(slice(None, None, -1))


def _cells(p: Poset, gaps: tuple):
    """(key, count) for each nonzero count of extensions by the gaps
    pos(v) - pos(u), one per (u, v) in ``gaps`` (u = None stands for
    position 0), whose marks the caller has checked with
    ``posets.check_marks``; each key holds one gap per (u, v), in order.

    Decoded from ``_fold`` in the requested gaps as fresh ints, so no caller
    can change what is kept.  Raises TooLarge as ``_fold`` does.
    """
    packed, nbytes, slots, axes = _fold(p, gaps)
    hexes = packed.to_bytes(slots * nbytes, "big").hex(" ", nbytes).split()
    hexes.reverse()  # one hex string per slot, slot 0 first
    nonzero = list(map(("00" * nbytes).__ne__, hexes))
    # product() runs its last axis fastest: keys come highest digit first
    keys = map(_REVERSED, compress(product(*reversed(axes)), nonzero))
    return zip(keys, map(int, compress(hexes, nonzero), repeat(16)))


def _gap_counts(p: Poset, gaps: tuple) -> dict[tuple[int, ...], int]:
    """The cells of ``_cells`` as a fresh dict, key -> count."""
    return dict(_cells(p, gaps))


def f_table(p: Poset, z: MarkedTriple) -> FTable:
    """Exact F(k, l) by the gap-phase fold.

    Requires a normalized triple (z1 < z2 < z3), so the marks always enter
    any extension in order.  The phase rules (g1 grows with each step while
    only z1 is placed, g2 while z1 and z2 are) are the fold's shifts for
    the gaps (z1, z2) and (z2, z3), both counted up from 0.
    """
    if not is_normalized(p, z):
        raise BadChain("f_table requires z1 < z2 < z3; call normalize() first")
    z1, z2, z3 = z.as_tuple()
    return FTable(p.n, z, _gap_counts(p, ((z1, z2), (z2, z3))))


def positional_gap_counts(p: Poset, marks: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Counts of extensions by the absolute positions (1-based) of ``marks``.

    No order assumption on the marks.  Folded in the requested positions,
    one digit per mark, chain marks included, so the slots that
    ``STATE_BUDGET`` counts are the product of the marks' position ranges,
    and TooLarge can come at a smaller poset than for ``f_table`` of the
    same chain.
    """
    check_marks(p.n, marks)
    return _gap_counts(p, tuple((None, m) for m in marks))


def f_table_signed(p: Poset, z: MarkedTriple) -> dict[tuple[int, int], int]:
    """Signed gap table F'(a, b) with a = pos(z2) - pos(z1), b = pos(z3) - pos(z2).

    The triple need not be chain-ordered, so a and b may be negative.  When
    the marks form a chain c1 < c2 < c3 in P, in any order, the table is F
    of the chain, relabelled: with pos(c1) = 0, pos(c2) = k and pos(c3) =
    k + l, the cell (k, l) of ``f_table(p, MarkedTriple(c1, c2, c3))``
    moves to the requested gaps, each a difference of two of those
    positions, so every coefficient is in {-1, 0, 1}.  For the swapped
    triple (c2, c1, c3) that is F'(a, b) = F(-a, a + b).  Other marks are
    folded in the requested gaps.
    """
    z1, z2, z3 = marks = z.as_tuple()
    gaps = ((z1, z2), (z2, z3))
    check_marks(p.n, marks)
    down, up = p.down, p.up
    c1, c2, c3 = chain = sorted(marks, key=lambda m: down[m].bit_count())
    if not (up[c1] >> c2 & 1 and up[c2] >> c3 & 1):
        return _gap_counts(p, gaps)
    # pos(x) - pos(c1) as coefficients of (k, l); a gap is a difference of two
    at = {c1: (0, 0), c2: (1, 0), c3: (1, 1)}
    (a, b), (c, d) = [(at[v][0] - at[u][0], at[v][1] - at[u][1]) for u, v in gaps]
    F = _cells(p, ((c1, c2), (c2, c3)))  # the cells of f_table
    return {(a * k + b * l, c * k + d * l): v for (k, l), v in F}


def pair_gap_table(p: Poset, x: int, y: int) -> dict[int, int]:
    """Counts of extensions by the signed gap pos(y) - pos(x)."""
    check_marks(p.n, (x, y))
    return {g: v for (g,), v in _cells(p, ((x, y),))}


class NVector(_Record):
    """Counts N_k of extensions placing one marked element at position k."""

    __slots__ = ("n", "a", "counts")

    def __init__(self, n: int, a: int, counts: dict[int, int] | None = None) -> None:
        self.n = n
        self.a = a
        self.counts = {} if counts is None else counts

    def get(self, k: int) -> int:
        return self.counts.get(k, 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def to_json_obj(self) -> dict:
        return {
            "schema": SCHEMA,
            "n": self.n,
            "a": self.a,
            "N": [[k, str(v)] for k, v in sorted(self.counts.items()) if v],
        }


def n_vector(p: Poset, a: int) -> NVector:
    check_marks(p.n, (a,))
    return NVector(p.n, a, {k: v for (k,), v in _cells(p, ((None, a),))})

