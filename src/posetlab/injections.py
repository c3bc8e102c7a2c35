"""Word-rewriting injections between gap classes, certified at runtime.

The adjacent-transposition operator on extension words

    tau_i : ... x_i x_{i+1} ...  ->  ... x_{i+1} x_i ...   if x_i || x_{i+1}
            unchanged                                       if x_i <  x_{i+1}

preserves extension-hood.  Composing such moves gives four explicit
injections, each certifying a ratio bound as an exact counting inequality:

* ``stanley``   N_k  ->  N_{k-1} x [1, t(a)]          (one marked element)
* ``transfer``  F(k+1,l+1) -> I x F(k,l+2)            (shift one unit of
                gap from the first to the second)
* ``shrink``    F(k+1,l)   -> I x F(k,l)
* ``grow``      F(k+1,l)   -> I x F(k+2,l)

Each I is a disjoint union of per-case integer boxes whose total size is
the bound being certified.  Case dispatch order is semantic: the images of
later cases are only disjoint from earlier ones because earlier cases were
ruled out first.  All moves are executed swap by swap with incomparability
checked at every step.  Every map, ``stanley`` included, is certified over
its full domain in bulk, by exact set checks on the (tag, payload, image)
keys of all words: payload ranges, class membership, the round trip where
there is an inverse, and global injectivity; keys are compared whole,
never by a hash alone.  Only a failed check walks the words one by one to
list those behind each error and collision.  No map's boxes repeat a tag,
so a key is (box index, image) inside the disjoint union of boxes.

``certify_map`` and ``certify_stanley`` take their words as buckets from
``extensions.word_classes``, which enumerates a poset's words once, unless
e(P) exceeds the word budget (TooLarge), bucketing each by its (k, l) gap
class and by the position of z2 in the same pass.  ``verify_injections``
checks both bucketings against the lattice counts (``f_table``,
``n_vector``) before it certifies anything.  The maps test order relations
on the bitmask rows ``Poset.up``, ``down`` and ``comparable``, not by
per-pair calls.

The ``transfer`` intervals use min(b(z1,z2) - 1, t*(z1)) for the case-2
box edge.  The edge cannot be tightened to b(z1,z2) - 2: the case-2 pivot
may sit directly after z1, and a 6-element poset realizing payload
b(z1,z2) - 1 lives in the test suite.
"""

from __future__ import annotations

from functools import partial
from math import prod
from operator import itemgetter

from .errors import BadParams, CaseExhaustion, HypothesesNotMet, NoPivot, PosetLabError
from .extensions import f_table, n_vector, word_classes
from .posets import SCHEMA, MarkedTriple, Poset, _Record

Word = tuple[int, ...]


def _move_right_past(comp, word, src: int, target: int) -> Word:
    """Swap word[src] rightward until it has just passed ``target``.

    ``comp`` is ``Poset.comparable``.  Every swap must be between
    incomparable elements (guaranteed by the case analyses; violation
    raises CaseExhaustion)."""
    e = word[src]
    ce = comp[e]
    for pos in range(src + 1, len(word)):
        passed = word[pos]
        if ce >> passed & 1:
            raise CaseExhaustion(f"blocked swap ({e},{passed})")
        if passed == target:
            return (*word[:src], *word[src + 1:pos + 1], e, *word[pos + 1:])
    raise CaseExhaustion("ran off the word while moving right")


def _move_left_before(comp, word, src: int, target: int) -> Word:
    """Swap word[src] leftward until it sits just before ``target``."""
    e = word[src]
    ce = comp[e]
    for pos in range(src - 1, -1, -1):
        passed = word[pos]
        if ce >> passed & 1:
            raise CaseExhaustion(f"blocked swap ({passed},{e})")
        if passed == target:
            return (*word[:pos], e, *word[pos:src], *word[src + 1:])
    raise CaseExhaustion("ran off the word while moving left")


def _zpos(word, z: MarkedTriple, k: int, l: int, dk: int, dl: int) -> int:
    """0-based index i of z1, validating gaps (k+dk, l+dl)."""
    i = word.index(z.z1)
    j = i + k + dk
    m = j + l + dl
    if 0 <= j < len(word) and 0 <= m < len(word) and word[j] == z.z2 and word[m] == z.z3:
        return i
    j, m = word.index(z.z2), word.index(z.z3)
    raise HypothesesNotMet(f"word has gaps {j - i},{m - j}, expected {k+dk},{l+dl}")


# -- single-element map -------------------------------------------------------


def phi_stanley(p: Poset, a: int, word) -> tuple[Word, int]:
    """Map a word with ``a`` at position k to (word with ``a`` at k-1, r).

    The pivot is the last element before ``a`` not below it; r = k - i is
    its distance to ``a`` and satisfies 1 <= r <= t(a).
    """
    kpos = word.index(a)  # 0-based; 1-based position is kpos+1
    below = p.down[a]
    for i in range(kpos - 1, -1, -1):
        if not below >> word[i] & 1:
            break
    else:
        raise NoPivot("every element before the mark lies below it")
    r = kpos - i
    if not 1 <= r <= p.t[a]:
        raise CaseExhaustion(f"stanley payload {r} outside [1, t(a)={p.t[a]}]")
    return _move_right_past(p.comparable, word, i, a), r


def phi_stanley_inverse(p: Poset, a: int, word, r: int) -> Word | None:
    """Reconstruct the preimage: move the element right after ``a`` back by r
    positions, provided it is incomparable to everything it passes."""
    kpos = word.index(a)
    if kpos + 1 >= len(word) or kpos + 1 < r:
        return None
    e = word[kpos + 1]
    ce = p.comparable[e]
    for j in range(kpos - r + 1, kpos + 1):
        if ce >> word[j] & 1:
            return None
    w = list(word)
    w.pop(kpos + 1)
    w.insert(kpos + 1 - r, e)
    return tuple(w)


# -- gap-pair maps ------------------------------------------------------------


def transfer_intervals(p: Poset, z: MarkedTriple, k: int, l: int):
    """Case boxes for F(k+1,l+1) -> I x F(k,l+2)."""
    z1, z2, z3 = z.as_tuple()
    edge = min(p.interval(z1, z2) - 1, p.t_star[z1])
    return [
        ("1", (min(p.t[z2], k),)),
        ("2.1", (edge, p.t_star[z3])),
        ("2.2", (edge, p.t[z2])),
    ]


def psi_transfer(p: Poset, z: MarkedTriple, k: int, l: int,
                 word) -> tuple[str, tuple[int, ...], Word]:
    """One unit of gap moves from the first gap to the second:
    domain word in F(k+1,l+1), image in F(k,l+2)."""
    z1, z2, z3 = z.z1, z.z2, z.z3
    comp, below2 = p.comparable, p.down[z2]
    i = _zpos(word, z, k, l, 1, 1)
    # Case 1: last element of the first block not below z2 hops past z2.
    for j in range(i + k, i, -1):
        if not below2 >> word[j] & 1:
            return "1", (i + k + 1 - j,), _move_right_past(comp, word, j, z2)
    # Case 2: first element of the first block incomparable to z1 hops
    # before z1, widening the second gap; a second move restores the first.
    comp1 = comp[z1]
    for j in range(i + 1, i + k + 1):
        if not comp1 >> word[j] & 1:
            break
    else:
        raise NoPivot("no case-2 pivot; F(k,l+2) must vanish")
    c1 = j - i
    w1 = _move_left_before(comp, word, j, z1)
    # 2.1: some element after z3 is not above it; pull it before z3.
    above3 = p.up[z3]
    for r in range(i + k + l + 3, p.n):
        if not above3 >> w1[r] & 1:
            return "2.1", (c1, r - (i + k + l + 2)), _move_left_before(comp, w1, r, z3)
    # 2.2: last element before z1 not below z2 hops past z2.
    for s in range(i - 1, -1, -1):
        if not below2 >> w1[s] & 1:
            return "2.2", (c1, i - s), _move_right_past(comp, w1, s, z2)
    raise CaseExhaustion("case 2.2 pivot missing; F(k,l+2) must vanish")


def shrink_intervals(p: Poset, z: MarkedTriple, k: int, l: int):
    """Case boxes for F(k+1,l) -> I x F(k,l)."""
    z1, z2, z3 = z.as_tuple()
    edge = min(p.interval(z1, z2) - 1, p.t[z2])
    return [
        ("1", (min(k, p.t_star[z1]),)),
        ("2", (min(k, p.t[z3] - 1),)),
        ("3.1", (edge, min(l - 1, p.t[z3]))),
        ("3.2", (edge, min(l - 1, p.t_star[z1] - 1))),
    ]


def psi_shrink(p: Poset, z: MarkedTriple, k: int, l: int,
               word) -> tuple[str, tuple[int, ...], Word]:
    """First gap shrinks by one: domain word in F(k+1,l), image in F(k,l)."""
    z1, z2, z3 = z.z1, z.z2, z.z3
    comp = p.comparable
    comp1, comp3 = comp[z1], comp[z3]
    i = _zpos(word, z, k, l, 1, 0)
    mid = range(i + k + 2, i + k + l + 1)
    # Case 1: first element of the first block incomparable to z1 hops before it.
    for j in range(i + 1, i + k + 1):
        if not comp1 >> word[j] & 1:
            return "1", (j - i,), _move_left_before(comp, word, j, z1)
    # Case 2: the middle block sits wholly inside the interval (z1, z3);
    # the last first-block element incomparable to z3 hops past z3.
    inside = p.up[z1] & p.down[z3]
    if all(inside >> word[r] & 1 for r in mid):
        for j in range(i + k, i, -1):
            if not comp3 >> word[j] & 1:
                return "2", (i + k + 1 - j,), _move_right_past(comp, word, j, z3)
        raise NoPivot("no case-2 pivot; F(k,l) must vanish")
    # Case 3: move the last first-block element incomparable to z2 past z2,
    # then repair the second gap with a middle-block move.
    comp2 = comp[z2]
    for j in range(i + k, i, -1):
        if not comp2 >> word[j] & 1:
            break
    else:
        raise NoPivot("no case-3 pivot; F(k,l) must vanish")
    s = i + k + 1 - j
    w1 = _move_right_past(comp, word, j, z2)  # gaps now (k, l+1), middles unshifted
    for r in reversed(mid):
        if not comp3 >> w1[r] & 1:
            return "3.1", (s, i + k + l + 1 - r), _move_right_past(comp, w1, r, z3)
    for r in mid:
        if not comp1 >> w1[r] & 1:
            return "3.2", (s, r - i - k - 1), _move_left_before(comp, w1, r, z1)
    raise CaseExhaustion("case 3 without a middle pivot")


def grow_intervals(p: Poset, z: MarkedTriple, k: int, l: int):
    """Case boxes for F(k+1,l) -> I x F(k+2,l)."""
    z1, z2, z3 = z.as_tuple()
    return [
        ("1", (p.t[z1],)),
        ("2.1", (p.t_star[z2] - 1,)),
        ("2.2", (min(l - 1, p.t_star[z2]), p.t_star[z3])),
    ]


def psi_grow(p: Poset, z: MarkedTriple, k: int, l: int,
             word) -> tuple[str, tuple[int, ...], Word]:
    """First gap grows by one: domain word in F(k+1,l), image in F(k+2,l)."""
    z1, z2, z3 = z.z1, z.z2, z.z3
    comp = p.comparable
    i = _zpos(word, z, k, l, 1, 0)
    # Case 1: last element before z1 incomparable to it hops just past z1.
    comp1 = comp[z1]
    for j in range(i - 1, -1, -1):
        if not comp1 >> word[j] & 1:
            return "1", (i - j,), _move_right_past(comp, word, j, z1)
    # Case 2: first element after z2 incomparable to z2 hops before z2.
    comp2 = comp[z2]
    for j in range(i + k + 2, p.n):
        if not comp2 >> word[j] & 1:
            break
    else:
        raise NoPivot("no case-2 pivot; F(k+2,l) must vanish")
    if j >= i + k + l + 2:
        return "2.1", (j - i - k - l - 1,), _move_left_before(comp, word, j, z2)
    c1 = j - i - k - 1
    w1 = _move_left_before(comp, word, j, z2)  # gaps now (k+2, l-1)
    comp3 = comp[z3]
    for r in range(i + k + l + 2, p.n):
        if not comp3 >> w1[r] & 1:
            return "2.2", (c1, r - i - k - l - 1), _move_left_before(comp, w1, r, z3)
    raise CaseExhaustion("case 2.2 without a tail pivot")


MAPS = {
    "transfer": (psi_transfer, transfer_intervals, (1, 1), (0, 2)),
    "shrink": (psi_shrink, shrink_intervals, (1, 0), (0, 0)),
    "grow": (psi_grow, grow_intervals, (1, 0), (2, 0)),
}
MAP_NAMES = ("stanley", *MAPS)  # every map ``verify_injections`` can certify


def interval_total(boxes) -> int:
    return sum(prod(max(d, 0) for d in dims) for _, dims in boxes)


# -- certification ------------------------------------------------------------


class InjectionCertificate(_Record):
    """Outcome of running one injection over its entire domain."""

    __slots__ = (
        "name", "k", "l", "domain_size", "image_size", "interval_total", "codomain_cells",
        "collisions", "errors",
    )
    _defaults = {"collisions": list, "errors": list}

    @property
    def codomain_bound(self) -> int:
        return self.interval_total * self.codomain_cells

    @property
    def ok(self) -> bool:
        return (
            not self.collisions
            and not self.errors
            and self.image_size == self.domain_size
            and self.domain_size <= self.codomain_bound
        )

    def to_json_obj(self) -> dict:
        return {
            "schema": SCHEMA,
            "type": "injection",
            "map": self.name,
            "k": self.k,
            "l": self.l,
            "domain_size": str(self.domain_size),
            "image_size": str(self.image_size),
            "interval_total": str(self.interval_total),
            "codomain_cells": str(self.codomain_cells),
            "codomain_bound": str(self.codomain_bound),
            "collisions": self.collisions[:16],
            "errors": self.errors[:16],
            "hashed": False,
            "ok": self.ok,
        }


def _in_box(dims, payload) -> bool:
    return len(payload) == len(dims) and all(1 <= v <= d for v, d in zip(payload, dims))


def _certify(cert, boxes, domain, target_set, where, step, inverse=None):
    """Run ``step(word) -> (tag, payload, image)`` over ``domain`` into ``cert``.

    Decided in bulk over the exact keys of all words: every image lies in
    ``target_set``, each distinct (tag, payload) pair in its box, the
    inverse (if any) gives back ``domain`` and no two keys are equal.  If a
    step raises or a check fails, ``_walk`` lists the words behind it."""
    box = dict(boxes)
    try:  # any raise hands the decision to the walk, which reports it
        keys = list(map(step, domain))
        if (target_set.issuperset(map(itemgetter(2), keys))
                and all(tag in box and _in_box(box[tag], payload)
                        for tag, payload in {(tag, payload) for tag, payload, _ in keys})
                and len(set(keys)) == len(keys)
                and (inverse is None
                     or [inverse(out, *payload) for _, payload, out in keys] == domain)):
            cert.image_size = len(keys)
            return cert
    except Exception:
        pass
    return _walk(cert, box, domain, target_set, where, step, inverse)


def _walk(cert, box, domain, target_set, where, step, inverse):
    """Explain a failed bulk decision word by word.  Per word, in this
    order: a raise, a payload outside ``box``, an image outside
    ``target_set`` and, given ``inverse``, ``inverse(image, *payload) !=
    word`` are errors; a repeated (tag, payload, image) key is a collision,
    found with an exact map of the keys seen."""
    seen: dict = {}
    for word in domain:
        try:
            tag, payload, out = step(word)
            dims = box.get(tag)
            if dims is None:
                raise CaseExhaustion(f"unknown case tag {tag}")
            if not _in_box(dims, payload):
                raise CaseExhaustion(f"payload {payload} outside box {tag}={dims}")
        except Exception as exc:  # certification must report, not crash
            cert.errors.append({"word": list(word), "error": str(exc)})
            continue
        if out not in target_set:
            cert.errors.append({"word": list(word), "error": f"image not in {where}"})
            continue
        if inverse is not None and inverse(out, *payload) != word:
            cert.errors.append({"word": list(word), "error": "round trip failed"})
            continue
        size = len(seen)
        first = seen.setdefault((tag, payload, out), word)
        if len(seen) == size:
            cert.collisions.append({"first": list(first), "second": list(word)})
    cert.image_size = len(seen)
    return cert


def _check_map_names(names, known) -> None:
    for name in names:
        if name not in known:
            raise BadParams(f"unknown map {name!r}; known maps: {', '.join(known)}")


def certify_map(
    p: Poset, z: MarkedTriple, k: int, l: int, name: str, classes: dict,
    target_sets: dict | None = None,
) -> InjectionCertificate:
    """Run one gap-pair injection over all of its domain and certify it.

    ``classes`` holds the words by gap pair, as ``word_classes`` gives
    them; ``target_sets`` keeps each target class's set across calls.
    Raises BadParams for a name not in MAPS and HypothesesNotMet when the
    target class is empty (bounds without their hypotheses are not claims).
    """
    _check_map_names((name,), MAPS)
    fn, intervals_fn, dom_shift, img_shift = MAPS[name]
    target = (k + img_shift[0], l + img_shift[1])
    targets = classes.get(target, [])
    if not targets:
        raise HypothesesNotMet(f"{name}: target class F{target} is empty")
    sets = {} if target_sets is None else target_sets
    if target not in sets:
        sets[target] = set(targets)
    domain = classes.get((k + dom_shift[0], l + dom_shift[1]), [])
    boxes = intervals_fn(p, z, k, l)
    cert = InjectionCertificate(
        name, k, l, len(domain), 0, interval_total(boxes), len(targets)
    )
    return _certify(cert, boxes, domain, sets[target], f"F{target}", partial(fn, p, z, k, l))


def stanley_intervals(p: Poset, a: int):
    """The one case box of the single-element map: r in [1, t(a)]."""
    return [("1", (p.t[a],))]


def certify_stanley(p: Poset, a: int, kpos: int, positions: dict) -> InjectionCertificate:
    """Certify the single-element map on N_kpos, including its round trip.

    ``positions`` holds the words by the (1-based) position of ``a``."""
    below = positions.get(kpos - 1, [])
    if not below:
        raise HypothesesNotMet("stanley: N_{k-1} is empty")
    domain = positions.get(kpos, [])
    cert = InjectionCertificate("stanley", kpos, None, len(domain), 0, p.t[a], len(below))

    def step(word):
        out, r = phi_stanley(p, a, word)
        return "1", (r,), out

    return _certify(cert, stanley_intervals(p, a), domain, set(below), "N_{k-1}", step,
                    partial(phi_stanley_inverse, p, a))


def verify_injections(p: Poset, z: MarkedTriple, maps=MAP_NAMES):
    """Certificates for every applicable (k, l) (or position) of each map.

    The words come from ``word_classes`` (TooLarge past the word budget,
    before any word is enumerated), bucketed by their (k, l) gap class and
    by the position of z2.  Both bucketings are checked against the counts
    of the lattice folds (``f_table``, ``n_vector``); a mismatch raises
    PosetLabError before any certificate is made; an unknown map name
    raises BadParams before any word is enumerated.
    """
    _check_map_names(maps, MAP_NAMES)
    classes, positions = word_classes(p, z)
    F = f_table(p, z)
    where = f"on covers {list(p.covers)} with z={list(z.as_tuple())}"
    if {kl: len(ws) for kl, ws in classes.items()} != F.entries:
        raise PosetLabError(f"gap classes by enumeration disagree with f_table {where}")
    if "stanley" in maps:
        nv = n_vector(p, z.z2)
        if {pos: len(ws) for pos, ws in positions.items()} != nv.counts:
            raise PosetLabError(f"positions of z2 by enumeration disagree with n_vector {where}")
    out: list[InjectionCertificate] = []
    target_sets: dict = {}
    for name in maps:
        if name == "stanley":
            for kpos in sorted(positions):
                if kpos - 1 in positions:
                    out.append(certify_stanley(p, z.z2, kpos, positions))
            continue
        _, _, dom_shift, img_shift = MAPS[name]
        for (kk, ll) in classes:
            k, l = kk - dom_shift[0], ll - dom_shift[1]
            if k >= 1 and l >= 1 and (k + img_shift[0], l + img_shift[1]) in classes:
                out.append(certify_map(p, z, k, l, name, classes, target_sets))
    return out
