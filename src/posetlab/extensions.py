"""Linear-extension enumeration and exact gap statistics.

A linear extension of P is a word x_1...x_n (each element once) with no
x_j < x_i for j > i.  For a marked triple z1 < z2 < z3 the central object
is the table

    F(k, l) = #{ extensions : pos(z2) - pos(z1) = k, pos(z3) - pos(z2) = l },

computed exactly from the lattice of down-sets (order ideals).  That
lattice is built once per poset and cached on it (``Poset.lattice``, which
also gives e(P)); every count is then one fold over it (``_fold``), with
each ideal's counts Kronecker-packed into a single Python int, first
coordinate in the lowest digits:

* gap-phase fold (``f_table``) -- a normalized triple enters every
  extension in order, so the gaps k and l only grow: k while z1 alone is
  placed, l while z1 and z2 are.
* positional fold (``f_table_signed``, ``pair_gap_table``, ``n_vector``,
  ``positional_gap_counts``) -- any marks, gaps of either sign, absolute
  positions; a mark not yet placed moves on with each step.

Both are the same fold with different gap axes.  Marks that form a chain
in P, in any order, are folded in entry-order coordinates (the gaps
between consecutive marks of the chain), so one digit moves at a time;
each nonzero cell is then re-keyed to the requested gaps by a linear map
with coefficients in {-1, 0, 1}.  The latest fold is kept on the poset
next to the lattice, with its coordinates, so every order of one chain
triple (F and the signed table of the swapped triple alike) is folded once
and later calls only decode it into a fresh dict; a fold in other
coordinates replaces it.  ``STATE_BUDGET`` bounds the widest layer's
ideals times the folded slots; it is checked once, before a fold, so a
kept fold, which passed it, is returned at once.

``enumerate_extensions`` and ``is_extension`` stay lattice-free; with
``word_classes`` they are the brute-force oracle the tests check both folds
against.  ``word_classes`` is the one caller that keeps every word (for the
word injections): it first compares e(P), read off the lattice, with
``WORD_BUDGET``.  The enumerator is an iterative depth-first walk over
bitmasks; it also supplies the words that ``injections`` certifies.  It and
the gap axes read the rows ``down`` and ``cover_up``, which the poset fills
in while it validates its relation.

Counts are exact big integers throughout; no floating point.
"""

from __future__ import annotations

from itertools import product
from operator import sub

from .errors import BadChain, BadParams, IndexOutOfRange, MalformedInput, TooLarge
from .posets import (
    SCHEMA, MarkedTriple, Poset, _json_int, _json_list, _json_marks, _json_object, _Record,
    is_normalized,
)

ENUMERATION_MAX = 14
# words a caller may keep at once: ~200 bytes and ~20 us (all four word
# injections) per word, so ~0.4 GiB and ~40 s at the budget
WORD_BUDGET = 1 << 21
STATE_BUDGET = 1 << 26  # widest lattice layer x folded slots, in one fold


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


def is_extension(p: Poset, word) -> bool:
    if sorted(word) != list(range(p.n)):
        return False
    seen = 0
    for x in word:
        if p.down[x] & ~seen:
            return False
        seen |= 1 << x
    return True


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
    count = p.lattice().count
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
    return p.lattice().count


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
        non-integer field, a cell that is not [k, l, count], a negative
        count or a cell outside the table's triangle k, l >= 1, k + l <= n - 1;
        a count may be an int or, as written, ``str`` of one.  The marks are
        read as in ``load_poset``."""
        obj = _json_object(obj, "table JSON")
        n = _json_int(obj.get("n"), "'n'")
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


def _entry_order(p: Poset, marks: tuple, gaps: tuple):
    """(coords, level): the gaps to fold for ``gaps``, and the map back.

    Marks forming a chain c1 < c2 < ... in P get the coords (c1, c2),
    (c2, c3), ..., led by (None, c1) when a gap is absolute.  pos(x) -
    pos(c1) (or pos(x)) is the sum of the first ``level[x]`` coords, so a
    gap (u, v) is the signed sum of coords between level[u] and level[v].
    Every caller's gaps tie all marks together, so this is one-to-one.
    (gaps, None) when the gaps already are in entry order, as in
    ``f_table`` and ``n_vector`` (only this scan is paid), or no chain.
    """
    up = p.up
    prev = gaps[0][0]
    for u, v in gaps:
        if u != prev or u is not None and not up[u] >> v & 1:
            break
        prev = v
    else:
        return gaps, None
    down = p.down
    order = sorted(marks, key=lambda m: down[m].bit_count())
    coords = [(None, order[0])] if any(u is None for u, _ in gaps) else []
    level = {None: 0, order[0]: len(coords)}
    for a, b in zip(order, order[1:]):
        if not up[a] >> b & 1:
            return gaps, None
        coords.append((a, b))
        level[b] = len(coords)
    return tuple(coords), level


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

    The latest result is kept in ``p.__dict__["_fold"]`` as a (coords,
    result) pair, next to the lattice, so a later request in the same
    coordinates (the signed table of a reordered chain triple, a second
    ``f_table``) only decodes it; a request in other coordinates folds anew
    and replaces it.  Before it folds, TooLarge when the widest layer's
    ideals times the slots exceed ``STATE_BUDGET``; a kept fold passed that
    check, so it is returned as it is.
    """
    kept = p.__dict__.get("_fold")
    if kept is not None and kept[0] == coords:
        return kept[1]
    lat = p.lattice()
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
    vals = [0] * len(lat.ideals)
    vals[0] = 1 << width * origin
    for t, (ideal, edges) in enumerate(zip(lat.ideals, lat.succ)):
        c, s = vals[t], shift[ideal & mark_mask]
        vals[t] = 0  # release it; the full ideal comes last, with shift 0
        c = c << s if s >= 0 else c >> -s
        for j in edges:
            vals[j] += c
    folded = c, nbytes, slots, axes
    p.__dict__["_fold"] = coords, folded
    return folded


def _gap_counts(p: Poset, marks: tuple, gaps: tuple) -> dict[tuple[int, ...], int]:
    """Counts of extensions by the gaps pos(v) - pos(u), one per (u, v) in
    ``gaps``, between the given ``marks`` (u = None stands for position 0).

    Folded (``_fold``) in the coordinates that ``_entry_order`` picks and
    decoded into a fresh dict, so no caller can change what is kept.
    Folded as asked, the gaps (z2, z1), (z1, z3) of a chain z1 < z2 < z3
    both move once z1 is placed, so counts sit at slots d * (1 + size0)
    and the ints are long.  In entry order one digit moves at a time and
    the first, lowest, opens first: until z2 is placed a count stays below
    slot n.  Cells are then re-keyed; non-chain marks have no entry order.

    Raises IndexOutOfRange for a mark that is not an element, BadParams for
    a repeated mark and TooLarge as ``_fold`` does.
    """
    n = p.n
    for m in marks:
        if not 0 <= m < n:
            raise IndexOutOfRange(f"marked element {m} outside 0..{n - 1}")
    if len(set(marks)) != len(marks):
        raise BadParams(f"marked elements must be distinct, got {list(marks)}")
    coords, level = _entry_order(p, marks, gaps)
    packed, nbytes, slots, axes = _fold(p, coords)
    # one hex string per slot, slot 0 first
    hexes = reversed(packed.to_bytes(slots * nbytes, "big").hex(" ", nbytes).split())
    zero = "00" * nbytes
    if level is None:
        # product() runs its last axis fastest: keys come highest digit first
        keys = product(*reversed(axes))
        return {key[::-1]: int(h, 16) for key, h in zip(keys, hexes) if h != zero}
    # re-key: at[i], the sum of the first i digits, is the position of the
    # mark at level i (from the chain's first mark, or from 0 when position 0
    # leads) over one period of slots, the span of those digits; each
    # requested gap is the difference of two of them, tiled to all slots
    at = [[0]]
    for axis in axes:
        at.append([s + g for g in axis for s in at[-1]])
    columns = []
    for u, v in gaps:
        hi, lo = at[level[v]], at[level[u]]
        period = max(len(hi), len(lo))
        gap = list(map(sub, hi * (period // len(hi)), lo * (period // len(lo))))
        columns.append(gap * (slots // period))
    return {key: int(h, 16) for key, h in zip(zip(*columns), hexes) if h != zero}


def f_table(p: Poset, z: MarkedTriple) -> FTable:
    """Exact F(k, l) by the gap-phase fold.

    Requires a normalized triple (z1 < z2 < z3), so the marks always enter
    any extension in order.  The phase rules (g1 grows with each step while
    only z1 is placed, g2 while z1 and z2 are) are the fold's shifts for
    the gaps (z1, z2) and (z2, z3), both counted up from 0.
    """
    if not is_normalized(p, z):
        raise BadChain("f_table requires z1 < z2 < z3; call normalize() first")
    z1, z2, z3 = marks = z.as_tuple()
    return FTable(p.n, z, _gap_counts(p, marks, ((z1, z2), (z2, z3))))


def positional_gap_counts(p: Poset, marks: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Counts of extensions by the absolute positions (1-based) of ``marks``.

    No order assumption on the marks.
    """
    return _gap_counts(p, marks, tuple((None, m) for m in marks))


def f_table_signed(p: Poset, z: MarkedTriple) -> dict[tuple[int, int], int]:
    """Signed gap table F'(a, b) with a = pos(z2) - pos(z1), b = pos(z3) - pos(z2).

    The triple need not be chain-ordered, so a and b may be negative.  A
    chain in another order is folded in entry order and re-keyed.
    """
    z1, z2, z3 = marks = z.as_tuple()
    return _gap_counts(p, marks, ((z1, z2), (z2, z3)))


def pair_gap_table(p: Poset, x: int, y: int) -> dict[int, int]:
    """Counts of extensions by the signed gap pos(y) - pos(x)."""
    counts = _gap_counts(p, (x, y), ((x, y),))
    return {g: v for (g,), v in counts.items()}


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
    counts = _gap_counts(p, (a,), ((None, a),))
    return NVector(p.n, a, {k: v for (k,), v in counts.items()})

