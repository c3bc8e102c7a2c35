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
mark: the chain counts carry every path before and after that band, and
the lattice keeps each ideal's addable set, so an ideal before the first
mark that cannot place one costs a single AND.  Below 2^64 every slot is
a machine word of 1, 2, 4 or 8 bytes, so ``_slot_counts`` reads all of
them back, slot 0 first, with one cast of the packed int's little-endian
bytes; wider slots, and every slot on a big-endian host, are converted one
word at a time.  ``_cells`` keeps the nonzero ones: it is the one decode
behind every count below.  The search, which needs F once per poset and
nothing else, takes it from ``_f_rows`` instead: one forward pass over the
ideals, layer by layer, that reads the closed relation rows alone (no
``Poset``), builds no lattice and hands F's slots over as rows.  It and
``_fold`` share their layout and shift rule (``_plan``).

Every fold is a gap-phase fold over a chain of marks, which enter every
extension in order, so each gap only grows: the first while only the
first mark is placed, the next while the first two are.  The signed
tables (``f_table_signed``, ``pair_gap_table``) take marks in any order:
each is the union, over the orders of the marks that P allows, of the
fold of P with that chain added, relabelled (``_orders``).  ``n_vector``
needs no fold: it sums chain counts over the edges that place its mark.
The latest fold is kept on the poset, next to the lattice (``_fold``).
``STATE_BUDGET`` bounds the widest layer's ideals times the folded slots;
it is checked once, before a fold, so a kept fold, which passed it, is
returned at once.  ``_f_rows`` checks it and ``IDEAL_BUDGET`` as each of
its layers grows, so it refuses the posets that ``f_table`` refuses.

``enumerate_extensions`` stays lattice-free; with ``word_classes`` it is
the brute-force oracle the tests check the folds against.
``word_classes`` is the one caller that keeps every word (for the word
injections): it first compares e(P), read off the lattice, with
``WORD_BUDGET``.  The enumerator is an iterative depth-first walk over
bitmasks; it also supplies the words that ``injections`` certifies.  It
reads the rows ``down`` and ``cover_up``, which the poset fills in while
it validates its relation.

Counts are exact big integers throughout; no floating point.
"""

from __future__ import annotations

import sys
from itertools import compress, permutations, product
from math import factorial
from operator import itemgetter
from struct import calcsize
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
# ideals one lattice may keep: ~380 bytes each at the build's peak and ~340
# kept (tracemalloc, CPython 3.11 on x86-64, lattices of 65 536-154 661
# ideals), ~750 MiB in all
IDEAL_BUDGET = 1 << 21
# the struct code of each machine word width (1, 2, 4 and 8 bytes), keyed by
# its size on this host.  A cast reads words in the host's byte order, and
# the fold packs little-endian, so a big-endian host has none and converts
# every slot on its own.
_WORD_CODES = {calcsize(code): code for code in "QIHB"} if sys.byteorder == "little" else {}
# bytes a count needs -> bytes of the machine word that holds it
_WORD_BYTES = {
    n: min(w for w in _WORD_CODES if w >= n) for n in range(1, max(_WORD_CODES, default=0) + 1)
}


class IdealLattice(NamedTuple):
    """Order ideals of a poset, smallest first.

    ``ideals`` lists every ideal as a bitmask, layer by layer (all ideals of
    size i before those of size i + 1), so it starts with the empty ideal
    and ends with the full one.  ``addable[t]`` is the bitmask of the
    elements x addable to ``I = ideals[t]``, the minimal elements of its
    complement, and ``succ[t]`` lists the indices of the ideals
    ``I | 1 << x`` covering I, in ascending x.
    ``widest`` is the size of the largest layer and ``count`` is e(P), the
    number of maximal chains from the empty ideal to the full one.
    ``ways[t]`` counts the chains from the empty ideal to ``ideals[t]`` and
    ``above[t]`` those from it to the full one, so ``ways[-1]`` and
    ``above[0]`` are both e(P).
    """

    ideals: list
    addable: list
    succ: list
    widest: int
    count: int
    ways: list
    above: list


def _build_lattice(p: Poset) -> IdealLattice:
    """One breadth-first pass over the ideals: x covers I by I | 1 << x when
    x is addable to I, that is, a minimal element of its complement.  Each
    ideal's addable set is found once, when the ideal is first reached from
    I by x, and kept for the fold: the addable set of I without x, plus the
    upper covers y of x whose down[y] now lies inside (De Loof, De Meyer &
    De Baets, Fundamenta Informaticae 71, 2006).  The forward chain counts
    ride along; the backward ones take one reverse pass over ``succ`` once
    every ideal is kept.  ``IDEAL_BUDGET`` is checked before each new ideal
    is kept, so TooLarge comes mid-layer, before the ideal that would go
    over it is kept."""
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
    return IdealLattice(ideals, addable, succ, widest, ways[-1], ways, above)


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
    _defaults = {"entries": dict}

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


def _gap_axis(up, down, u: int, v: int) -> int:
    """The values pos(v) - pos(u), u < v in the order closed as ``up`` and
    ``down``, takes in a fold: it starts at 0, only grows, and, as all of
    down[u] comes before u and all of up[v] after v, ends at most
    n - 1 - |up[v]| - |down[u]|."""
    return len(up) - up[v].bit_count() - down[u].bit_count()


def _plan(up, down, links: tuple, count: int) -> tuple:
    """(nbytes, slots, sizes, shift, mark_mask): the layout of a fold by
    the gaps between consecutive marks of a chain of the order closed as
    ``up`` and ``down``, one digit per link (u, v) in ``links``, whose
    counts are at most ``count``.

    The links are the mixed-radix digits of one slot number c (first one
    least significant), and ``sizes[d]`` is the ``_gap_axis`` of digit d,
    so slot 0 is every gap at 0.  A slot is W = 8 * nbytes bits:
    ``count.bit_length()`` rounded up to a machine word of 1, 2, 4 or 8
    bytes (``_WORD_BYTES``), so that ``_slot_counts`` reads every slot with
    one cast, and past 8 bytes to whole bytes.  The marks of a chain enter
    every ideal in order, so an ideal I holds a prefix of them, and all
    edges out of I move its counts by ``shift[I & mark_mask]`` bits: one
    step of the digit of the gap that is open, none when no gap is.
    """
    nbytes = (count.bit_length() + 7) // 8
    nbytes = _WORD_BYTES.get(nbytes, nbytes)
    width, slots, sizes = 8 * nbytes, 1, []
    shift, held = {0: 0}, 0  # the marks placed, as a mask -> bits
    for u, v in links:
        held |= 1 << u
        shift[held] = width * slots  # one step of this link's digit
        sizes.append(_gap_axis(up, down, u, v))
        slots *= sizes[-1]
    held |= 1 << v
    shift[held] = 0
    return nbytes, slots, sizes, shift, held


def _fold(p: Poset, links: tuple) -> tuple[int, int, int, list[int]]:
    """(packed, nbytes, slots, sizes): extension counts by the gaps
    pos(v) - pos(u) between consecutive marks of a chain of p, one digit
    per link (u, v) in ``links``.

    One fold over the cached ideal lattice, laid out by ``_plan`` for counts
    up to e(P): the full ideal's int ``packed`` holds the count of slot c in
    bits W*c .. W*c + W - 1 (Kronecker packing), and no slot overflows into
    the next, since a partial count at an ideal J is at most e(J) <= e(P).

    Big-int work is done only in the band: the ideals that hold some marks
    but not all; every digit is a gap between two marks, so nothing shifts
    outside it.  Before the first mark an ideal t holds its chain count
    ``lat.ways[t]`` in slot 0, which seeds each edge that places a mark;
    one whose addable set ``lat.addable[t]`` holds no mark has no such edge
    and is skipped with one AND.  After the last mark an edge into an ideal
    j adds its value times ``lat.above[j]``, the chains from j to the full
    ideal, to ``packed``, and such ideals are skipped.

    The latest result is kept in ``p.__dict__["_fold"]`` as a (links,
    result) pair, next to the lattice, so a later request for the same
    links (a second ``f_table``, or the signed table of any order of the
    same chain triple, which is F relabelled) only decodes it into a fresh
    dict; other links fold anew and replace it.  Before it folds, TooLarge
    when the widest layer's ideals times the slots exceed ``STATE_BUDGET``,
    a check that a kept fold has passed.
    """
    kept = p.__dict__.get("_fold")
    if kept is not None and kept[0] == links:
        return kept[1]
    lat = lattice(p)
    nbytes, slots, sizes, shift, mark_mask = _plan(p.up, p.down, links, lat.count)
    if lat.widest * slots > STATE_BUDGET:
        raise TooLarge(f"{lat.widest} ideals x {slots} slots exceeds state budget {STATE_BUDGET}")
    ideals, addable, ways, above = lat.ideals, lat.addable, lat.ways, lat.above
    held = [ideal & mark_mask for ideal in ideals]
    packed, vals = 0, [0] * len(ideals)
    for t, edges in enumerate(lat.succ):
        h = held[t]
        if h == mark_mask:  # after the last mark: closed on the way in
            continue
        if not h:  # before the first mark: the chain count in slot 0
            if addable[t] & mark_mask:  # some edge places a mark
                c = ways[t]
                for j in edges:
                    if held[j]:
                        vals[j] += c
            continue
        # in the band: some marks placed, not all
        c = vals[t] << shift[h]
        vals[t] = 0  # release it
        for j in edges:
            if held[j] == mark_mask:  # times every path on to the full ideal
                packed += c * above[j]
            else:
                vals[j] += c
    folded = packed, nbytes, slots, sizes
    p.__dict__["_fold"] = links, folded
    return folded


_REVERSED = itemgetter(slice(None, None, -1))


def _slot_counts(packed: int, nbytes: int, slots: int):
    """Every slot's count, slot 0 first, from the packed int's little-endian
    bytes: one cast to words of ``nbytes`` bytes when that is a key of
    ``_WORD_CODES`` (one-byte words are the ``bytes`` object itself), and
    otherwise one ``int.from_bytes`` per word, zeros included."""
    counts = packed.to_bytes(slots * nbytes, "little")
    if nbytes in _WORD_CODES:
        return memoryview(counts).cast(_WORD_CODES[nbytes]).tolist() if nbytes > 1 else counts
    return [int.from_bytes(counts[i:i + nbytes], "little") for i in range(0, len(counts), nbytes)]


def _cells(p: Poset, links: tuple):
    """(key, count) for each nonzero count of extensions by the gaps
    pos(v) - pos(u), one per link (u, v) of a chain of marks of p, checked
    by the caller with ``posets.check_marks``; each key holds one gap per
    link.

    Decoded from ``_fold`` for those links as fresh ints, so no caller
    can change what is kept: ``_slot_counts`` reads every slot, in one cast
    for the machine-word slots that ``_fold`` gives every count below 2^64
    on a little-endian host, and the keys and counts of the nonzero ones are
    zipped.  Raises TooLarge as ``_fold`` does.
    """
    packed, nbytes, slots, sizes = _fold(p, links)
    counts = _slot_counts(packed, nbytes, slots)
    # product() runs its last axis fastest: keys come highest digit first
    keys = map(_REVERSED, compress(product(*map(range, reversed(sizes))), counts))
    return zip(keys, filter(None, counts))


def f_table(p: Poset, z: MarkedTriple) -> FTable:
    """Exact F(k, l) by the gap-phase fold of the links (z1, z2) and
    (z2, z3).  Requires a normalized triple (z1 < z2 < z3), so the marks
    always enter any extension in order."""
    if not is_normalized(p, z):
        raise BadChain("f_table requires z1 < z2 < z3; call normalize() first")
    z1, z2, z3 = z.as_tuple()
    return FTable(p.n, z, dict(_cells(p, ((z1, z2), (z2, z3)))))


def _f_rows(up, down, cover_up, width: int, marks: tuple) -> list:
    """F as rows zero-padded to (n + 2) x (n + 2), ``rows[k][l]`` = F(k, l),
    for the marks (z1, z2, z3) of the order of the given width closed as
    ``up``, ``down`` and ``cover_up`` by ``posets._close``, counted by one
    forward pass over the order ideals, layer by layer, that needs no
    ``Poset`` and keeps nothing: no lattice, no fold.  BadChain as
    ``f_table``.

    Each layer is a dict from ideal to its packed counts, laid out by
    ``_plan`` in ``f_table``'s gaps and shifted as ``_fold`` shifts them:
    every edge out of an ideal I moves I's value by
    ``shift[I & mark_mask]``, one slot of the gap k while z1 alone is
    placed, one slot of the gap l while z1 and z2 are.  A new ideal's addable set is found as
    ``_build_lattice`` finds it, and the values ride on to the full ideal.
    The slot width is fixed before the pass, so it comes from a bound on
    e(P) instead of e(P) itself: each step of an extension places a minimal
    element of what is left, and those form an antichain of at most
    min(width, r) elements when r are left, so e(P) <= the product of
    min(width, r) over r = 2..n, that is width! * width ** (n - width); a
    partial count at an ideal J is at most e(J), under the same bound.
    The budgets are checked as each layer grows, before a new ideal is
    kept: TooLarge past ``IDEAL_BUDGET`` ideals in all or past
    ``STATE_BUDGET`` for a layer's ideals times the slots, so on exactly
    the inputs where ``f_table`` raises it.

    Both gaps count up from 0 and k is the first digit, so row k is every
    S1-th slot from slot k, S1 the size of the first axis.  The rows past
    the last gap k are one shared zero row, for readers only.
    """
    z1, z2, z3 = marks
    if not up[z1] >> z2 & up[z2] >> z3 & 1:
        raise BadChain("f_table requires z1 < z2 < z3; call normalize() first")
    n = len(up)
    bound = factorial(width) * width ** (n - width)
    nbytes, slots, sizes, shift, mark_mask = _plan(up, down, ((z1, z2), (z2, z3)), bound)
    cap = STATE_BUDGET // slots  # ideals one layer may hold
    vals = {0: 1}
    adds = {0: sum(1 << x for x, below in enumerate(down) if not below)}
    seen = 1  # ideals in every layer so far
    for _ in range(n):
        limit = min(cap, IDEAL_BUDGET - seen)
        new_vals, new_adds = {}, {}
        for ideal, c in vals.items():
            c <<= shift[ideal & mark_mask]
            free = here = adds[ideal]
            while free:
                low = free & -free
                free ^= low
                nxt = ideal | low
                if nxt in new_vals:
                    new_vals[nxt] += c
                    continue
                if len(new_vals) >= limit:
                    if seen + len(new_vals) >= IDEAL_BUDGET:
                        raise TooLarge(f"ideal lattice exceeds {IDEAL_BUDGET} ideals")
                    raise TooLarge(
                        f"a layer of over {cap} ideals x {slots} slots exceeds state budget "
                        f"{STATE_BUDGET}"
                    )
                new_vals[nxt] = c
                more = here ^ low
                covers = cover_up[low.bit_length() - 1]
                while covers:
                    y = covers & -covers
                    covers ^= y
                    below = down[y.bit_length() - 1]
                    if below & nxt == below:
                        more |= y
                new_adds[nxt] = more
        seen += len(new_vals)
        vals, adds = new_vals, new_adds
    (packed,) = vals.values()  # the full ideal's
    counts = _slot_counts(packed, nbytes, slots)
    size, s1 = n + 2, sizes[0]
    pad = [0] * (size - slots // s1)
    rows = [[*counts[k::s1], *pad] for k in range(s1)]
    rows += [[0] * size] * (size - s1)
    return rows


def _orders(p: Poset, marks: tuple):
    """(q, links, coefs) for each order c_1, ..., c_r of ``marks`` that p
    allows, after ``posets.check_marks``.

    An extension puts the marks in exactly one order that p allows, and
    those with the order c_1, ..., c_r are the extensions of q, p with the
    chain c_1 < ... < c_r added: a table by the gaps between the marks is
    the union over the orders of q's fold of the ``links`` (c_i, c_{i+1}).
    With pos(c_1) = 0, the gap pos(v) - pos(u) of two consecutive
    ``marks`` (u, v) is a sum of the chain's gaps with the signs in
    ``coefs``.  The order fixes the sign of every difference of two
    positions, so no two orders share a cell.  An order that p forbids is
    skipped with bit tests before any poset is built.  Marks that form a
    chain of p fold p itself, the one order p allows; any other order folds
    a new q and leaves p's kept fold alone.
    """
    check_marks(p.n, marks)
    up = p.up
    for chain in permutations(marks):
        placed = 0
        for m in chain:
            if up[m] & placed:  # p puts m below a mark before it
                break
            placed |= 1 << m
        else:
            links = tuple(zip(chain, chain[1:]))
            q = p
            if not all(up[u] >> v & 1 for u, v in links):
                rows = list(up)
                for u, v in links:
                    rows[u] |= 1 << v
                q = Poset(p.n, tuple(rows))
            # pos(v) - pos(u) holds the chain's gaps j with at[u] <= j < at[v]
            at = {m: i for i, m in enumerate(chain)}
            span = range(len(links))
            coefs = [[(j < at[v]) - (j < at[u]) for j in span] for u, v in zip(marks, marks[1:])]
            yield q, links, coefs


def f_table_signed(p: Poset, z: MarkedTriple) -> dict[tuple[int, int], int]:
    """Signed gap table F'(a, b) with a = pos(z2) - pos(z1), b = pos(z3) - pos(z2).

    The triple need not be chain-ordered, so a and b may be negative.  The
    table is the union, over the orders c1 < c2 < c3 of the marks that p
    allows (``_orders``), of F of that chain, relabelled: with pos(c1) = 0,
    pos(c2) = k and pos(c3) = k + l, the cell (k, l) moves to the requested
    gaps, each a difference of two of those positions.  For the swapped
    chain triple (c2, c1, c3) that is F'(a, b) = F(-a, a + b), read off the
    fold that ``f_table(p, MarkedTriple(c1, c2, c3))`` keeps.
    """
    return {
        (a * k + b * l, c * k + d * l): v
        for q, links, ((a, b), (c, d)) in _orders(p, z.as_tuple())
        for (k, l), v in _cells(q, links)
    }


def pair_gap_table(p: Poset, x: int, y: int) -> dict[int, int]:
    """Counts of extensions by the signed gap pos(y) - pos(x): the union,
    over the one or two orders of x and y that p allows (``_orders``), of
    that chain's one-gap fold, negated where y comes first."""
    return {a * g: v for q, links, ((a,),) in _orders(p, (x, y)) for (g,), v in _cells(q, links)}


class NVector(_Record):
    """Counts N_k of extensions placing one marked element at position k."""

    __slots__ = ("n", "a", "counts")
    _defaults = {"counts": dict}

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
    """N_k from the chain counts, with no fold: an extension puts a at
    position k when its chain takes an edge t -> j = I | a with |I| = k - 1,
    so N_k sums ways[t] * above[j] over the ideals t that a is addable to.
    A kept fold survives; TooLarge comes from ``lattice`` alone."""
    check_marks(p.n, (a,))
    ideals, addable, succ, _, _, ways, above = lattice(p)
    bit, counts = 1 << a, {}
    for t, free in enumerate(addable):
        if free & bit:
            k = ideals[t].bit_count() + 1
            j = succ[t][(free & bit - 1).bit_count()]  # succ[t] runs in ascending x
            counts[k] = counts.get(k, 0) + ways[t] * above[j]
    return NVector(p.n, a, counts)

