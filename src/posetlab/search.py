"""Randomized and exhaustive search for inequality violations.

The random model: draw a linear order uniformly, keep each order-compatible
pair with probability p drawn per instance from {0.1, ..., 0.5}, close
transitively, and pick the marked triple uniformly among chains
z1 < z2 < z3.  The stream depends only on ``Random.seed``, ``getrandbits``
and ``random``: n, the order, p and the triple are read from
``getrandbits`` by CPython's rejection rule for ``Random._randbelow``
(``_below``), so they are the values ``randint``, ``shuffle`` and
``choice`` would draw, and each pair is kept when ``random()`` < p.
``run`` scans instance indices 0..budget-1 serially in one
thread, with one generator of its own that it reseeds for every index, so
any disjoint split of the index range (for example one process per range)
reproduces the same instances, and ``SearchSummary.absorb`` merges the
parts into the same summary.  With ``job.out`` set, each certificate is
appended and flushed as soon as it is found, so a killed run keeps
everything found before it stopped.

``_scan_instance`` decides an instance on its relation rows.  One pass
over the drawn rows (``_linked``) drops it, before any closure, when they
hold no 3-chain or more than ``width_max`` sources or sinks, which are
antichains of the closure.  The rest are closed by ``posets._close``; the
width comes from ``posets._max_matching``, the triple from ``_chains`` and
F's dense rows from ``extensions._f_rows``, all on the closed rows, with
no lattice.  ``_scan_table`` walks the (k, l) grid once: each point reads
its six cells once, a point whose six cells are zero counts as vacuous,
and cpc, cpc1 and cpc2 are decided by integer products and booleans, with
no call, tuple or verdict string per point.  Only at the first failure
does it build the instance's ``Poset`` and ``MarkedTriple``, which its
certificates and ``critical`` entries share.

Violations of the generalized product comparison (``gcpc``) are located
through the signed-gap reduction: a ``cpc2`` violation at (k, l) yields,
after swapping the roles of z1 and z2, a signed table F' with
F'(a, b) = F(-a, a+b), and the four cells at a = -k-1, b = k+l+1 violate
F'(a,b) F'(a+1,b+1) <= F'(a+1,b) F'(a,b+1).  Those four cells are cpc2's
own cells, so the certificate takes cpc2's products; ``verify_certificate``
recounts them on the signed table, which for a chain triple is F of the
chain, relabelled.  The certificates of one instance hold its poset, so
they are recounted on one lattice; a reloaded line builds its poset once.

``enumerate_posets`` lists one poset per isomorphism class for n <= 6,
de-duplicated by ``canonical_key``: the least relation code over the ranks
of the poset's linear extensions, exact for n <= 9.
"""

from __future__ import annotations

import json
import random
from bisect import insort
from contextlib import nullcontext

from .errors import BadChain, BadParams, MalformedInput, TooLarge
from .extensions import _build_lattice, _f_rows, enumerate_extensions, f_table, f_table_signed
from .inequalities import FAILS, TABLE_CHECKS, check_gcpc
from .posets import MAX_ELEMENTS, SCHEMA, MarkedTriple, Poset, _FrozenRecord, _Record, build
from .posets import _close, _json_int, _json_object, _max_matching, is_normalized, load_poset

SEARCH_TARGETS = ("cpc", "cpc1", "cpc2", "gcpc")

POSET_CLASS_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318}
ENUMERATION_MAX_N = 6
CANONICAL_EXACT_MAX = 9  # canonical_key walks every linear extension
SEED_STRIDE = 1_000_003  # index i of seed s draws from s * SEED_STRIDE + i: the budget cap


class SearchJob(_FrozenRecord):
    __slots__ = ("target", "n_max", "seed", "budget", "n_min", "width_max", "out")

    def __init__(
        self,
        target: str,
        n_max: int,
        seed: int,
        budget: int,
        n_min: int = 3,
        width_max: int | None = None,
        out: str | None = None,
    ) -> None:
        if target not in SEARCH_TARGETS:
            raise BadParams(f"target must be one of {SEARCH_TARGETS}")
        fields = dict(n_max=n_max, seed=seed, budget=budget, n_min=n_min, width_max=width_max)
        for name, value in fields.items():  # a bool is refused too
            if type(value) is not int and (value is not None or name != "width_max"):
                raise BadParams(f"{name} must be an integer, got {value!r}")
        if not 3 <= n_min <= n_max <= MAX_ELEMENTS:
            raise BadParams(f"need 3 <= n_min <= n_max <= {MAX_ELEMENTS}, got {n_min}, {n_max}")
        if not 0 <= budget <= SEED_STRIDE:  # a larger one repeats seed + 1's instances
            raise BadParams(f"budget must be in 0..{SEED_STRIDE}, got {budget}")
        if seed < 0:  # random.Random seeds with |a|, so -1 would alias another job
            raise BadParams(f"seed must be >= 0, got {seed}")
        if width_max is not None and width_max < 1:
            raise BadParams(f"width_max must be >= 1, got {width_max}")
        super().__init__(target, n_max, seed, budget, n_min, width_max, out)


class Certificate(_Record):
    """A violation, on the ``Poset`` and ``MarkedTriple`` it was counted on
    (for ``gcpc`` the swapped triple), with the check's indices and products
    and the index of the instance that produced it."""

    __slots__ = ("ineq", "poset", "z", "indices", "lhs", "rhs", "index")

    def to_json_obj(self) -> dict:
        return {
            "schema": SCHEMA,
            "type": "certificate",
            "ineq": self.ineq,
            "n": self.poset.n,
            "covers": [list(c) for c in self.poset.covers],
            "z": list(self.z.as_tuple()),
            "indices": self.indices,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "index": self.index,
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "Certificate":
        """Inverse of ``to_json_obj`` (``index`` optional).  MalformedInput
        for a missing key, a non-integer field or a field of the wrong shape;
        ``lhs`` and ``rhs`` may be ints or, as written, ``str`` of one.  The
        marked poset is read by ``load_poset`` and kept, so a cycle raises
        CycleDetected and redundant cover pairs are written back reduced.
        Marks that are not a chain z1 < z2 < z3 raise BadChain, as
        ``f_table`` would, except for ``gcpc``, whose marks are the swapped
        triple."""
        obj = _json_object(obj, "certificate")
        missing = [key for key in _CERTIFICATE_KEYS if key not in obj]
        if missing:
            raise MalformedInput(f"certificate lacks {', '.join(missing)}")
        ineq = obj["ineq"]
        if not isinstance(ineq, str):
            raise MalformedInput(f"certificate 'ineq' must be a string, got {ineq!r}")
        p, z, _ = load_poset(obj)
        if z is None:
            raise MalformedInput("certificate 'z' must be a list of 3, got None")
        if ineq != "gcpc" and not is_normalized(p, z):
            raise BadChain(f"{ineq} certificate marks must form a chain z1 < z2 < z3")
        indices = _json_object(obj["indices"], "'indices'")
        return Certificate(
            ineq, p, z,
            {key: _json_int(v, f"index {key!r}") for key, v in indices.items()},
            _json_int(obj["lhs"], "'lhs'", text=True),
            _json_int(obj["rhs"], "'rhs'", text=True),
            _json_int(obj.get("index", -1), "'index'"),
        )


_CERTIFICATE_KEYS = ("ineq", "n", "covers", "z", "indices", "lhs", "rhs")


def verify_certificate(cert: Certificate) -> bool:
    """Recount the table on the certificate's own poset and marks and
    confirm the recorded violation.  BadParams when ``ineq`` is not gcpc or
    a table check, or ``indices`` lacks a key that check reads; indices are
    read as on reload, and marks outside the poset raise IndexOutOfRange.
    The count goes through the lattice fold, kept on the poset, so the
    certificates of one instance share one lattice."""
    if cert.ineq != "gcpc" and cert.ineq not in TABLE_CHECKS:
        raise BadParams(f"certificate names an unknown check {cert.ineq!r}")
    missing = [key for key in ("klpq" if cert.ineq == "gcpc" else "kl") if key not in cert.indices]
    if missing:
        raise BadParams(f"{cert.ineq} certificate indices lack {', '.join(missing)}")
    idx = {key: _json_int(v, f"index {key!r}") for key, v in cert.indices.items()}
    if cert.ineq == "gcpc":
        rep = check_gcpc(f_table_signed(cert.poset, cert.z), idx["k"], idx["l"], idx["p"], idx["q"])
    else:
        rep = TABLE_CHECKS[cert.ineq](f_table(cert.poset, cert.z), idx["k"], idx["l"])
    return rep.lhs == cert.lhs and rep.rhs == cert.rhs and rep.verdict == FAILS


_COUNTERS = ("instances", "usable", "holds", "fails", "vacuous", "certificates")


class SearchSummary(_Record):
    __slots__ = ("target", *_COUNTERS, "min_slack", "critical")
    _defaults = {
        **dict.fromkeys(_COUNTERS, 0),
        "min_slack": list,  # up to 5 smallest positive slacks
        "critical": list,  # two-of-three violations (never expected)
    }

    def absorb(self, other: "SearchSummary") -> None:
        for name in _COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.min_slack = sorted(self.min_slack + other.min_slack)[:5]
        self.critical.extend(other.critical)

    def to_json_obj(self) -> dict:
        obj = {"schema": SCHEMA, "type": "summary", **dict(zip(self._fields, self._values(self)))}
        obj["min_slack"] = [str(s) for s in self.min_slack]
        return obj


def random_instance(seed: int, index: int, n_min: int, n_max: int):
    """Deterministic (poset, triple) for one instance index; triple is None
    when the sample has no 3-chain."""
    rng = random.Random()
    rows = _draw_rows(rng, seed, index, n_min, n_max)
    p = Poset(len(rows), tuple(rows))
    chains = _chains(p.up)
    if not chains:
        return p, None
    return p, MarkedTriple(*chains[_below(rng.getrandbits, len(chains))])


# Random.seed(int) hands the int to this C base seed and clears gauss_next,
# which nothing here reads, so calling the base directly gives the same stream
_reseed = random.Random.__base__.seed


def _below(getrandbits, m: int) -> int:
    """A draw from range(m) by CPython's ``Random._randbelow`` rule: m's
    bit length in bits, drawn again while the value is m or more (so m = 1
    still spends a draw)."""
    k = m.bit_length()
    r = getrandbits(k)
    while r >= m:
        r = getrandbits(k)
    return r


def _draw_rows(rng: random.Random, seed: int, index: int, n_min: int, n_max: int) -> list:
    """Reseed ``rng`` for one instance index and draw its relation rows:
    ``rows[x]`` holds the y drawn above x, not closed."""
    _reseed(rng, seed * SEED_STRIDE + index)
    getrandbits = rng.getrandbits
    n = n_min + _below(getrandbits, n_max - n_min + 1)  # randint(n_min, n_max)
    order = list(range(n))
    for i in range(n - 1, 0, -1):  # shuffle(order)
        j = _below(getrandbits, i + 1)
        order[i], order[j] = order[j], order[i]
    prob = (0.1, 0.2, 0.3, 0.4, 0.5)[_below(getrandbits, 5)]  # choice([0.1, ..., 0.5])
    rand = rng.random
    bits = [1 << x for x in order]
    rows = [0] * n
    for i in range(n):  # each kept pair order[i] < order[j], i < j, into its row
        row = 0
        for j in range(i + 1, n):
            if rand() < prob:
                row |= bits[j]
        rows[order[i]] = row
    return rows


def _linked(rows: list, width_max: int | None = None) -> int:
    """Nonzero exactly when the closure of ``rows`` has a 3-chain, that is
    when the rows hold a path u -> v -> w (some element is the head of a
    pair and has a nonempty row of its own), and, with ``width_max`` given,
    at most ``width_max`` sources (in no row) and sinks (empty rows): the
    minimal and the maximal elements of the closure, two antichains."""
    heads = tails = 0
    bit = 1
    for row in rows:
        if row:
            heads |= row
            tails |= bit
        bit <<= 1
    if width_max is not None and min(heads.bit_count(), tails.bit_count()) < len(rows) - width_max:
        return 0
    return heads & tails


def _chains(up) -> list:
    """All 3-chains a < b < c of the closed rows ``up`` in lexicographic
    order, found by walking the bits of up[a] and up[b] upwards."""
    chains = []
    for a, above_a in enumerate(up):
        while above_a:
            low = above_a & -above_a
            above_a ^= low
            b = low.bit_length() - 1
            above_b = up[b]
            while above_b:
                low = above_b & -above_b
                above_b ^= low
                chains.append((a, b, low.bit_length() - 1))
    return chains


def _scan_instance(job: SearchJob, index: int, summary: SearchSummary, rng: random.Random) -> list:
    """Scan one instance into ``summary``; returns its certificates.  The
    instance is ``random_instance``'s, drawn with ``rng``; a usable one goes
    to ``_scan_table`` as F's rows."""
    summary.instances += 1
    drawn = _draw_rows(rng, job.seed, index, job.n_min, job.n_max)
    width_max = job.width_max
    if not _linked(drawn, width_max):  # every index reseeds, so draws skipped here move no stream
        return []
    n = len(drawn)
    up, down, cover_up = _close(n, drawn)
    width = n - _max_matching(n, up)
    if width_max is not None and width > width_max:
        return []
    chains = _chains(up)
    marks = chains[_below(rng.getrandbits, len(chains))]
    summary.usable += 1
    rows = _f_rows(up, down, cover_up, width, marks)
    return _scan_table(
        job, index, summary, rows, lambda: (Poset(n, tuple(drawn)), MarkedTriple(*marks))
    )


def _scan_table(job: SearchJob, index: int, summary: SearchSummary, rows: list, instance) -> list:
    """Scan F's (k, l) grid, 1 <= k, l and k + l <= n, into ``summary``
    for ``job.target`` (gcpc through cpc2); returns the certificates.
    ``rows`` is F as ``extensions._f_rows`` gives it, and ``instance()``
    gives the instance's ``Poset`` and ``MarkedTriple``: it is called at
    the first failure, and every certificate and critical entry of the
    instance shares what it gave.

    Each point reads its six cells once.  cpc, cpc1 and cpc2 each compare
    a corner cell of their own (F(k, l), F(k+2, l), F(k, l+2)) times one
    of the three cells they share against the product of the other two,
    in check_cpc's, check_cpc1's and check_cpc2's orientation, and each is
    vacuous when its four cells are zero.  So where the shared cells are
    zero no product is nonzero: nothing fails, and the target holds with
    slack 0 or is vacuous as its own corner is nonzero or zero.  Elsewhere
    no comparison is vacuous.
    """
    target = job.target
    cpc, cpc1 = target == "cpc", target == "cpc1"
    cpc2 = not (cpc or cpc1)  # gcpc fails exactly where cpc2 does
    certs: list[Certificate] = []
    min_slack = summary.min_slack
    cutoff = min_slack[4] if len(min_slack) == 5 else None
    holds = vacuous = 0
    n = len(rows) - 2
    p = z = None
    for k in range(1, n):
        r0, r1, r2 = rows[k], rows[k + 1], rows[k + 2]
        for l in range(1, n - k + 1):
            f_kl, f_kl1, f_kl2 = r0[l], r0[l + 1], r0[l + 2]
            f_k1l, f_k1l1, f_k2l = r1[l], r1[l + 1], r2[l]
            if not (f_k1l or f_kl1 or f_k1l1):
                if cpc and f_kl or cpc1 and f_k2l or cpc2 and f_kl2:
                    holds += 1
                else:
                    vacuous += 1
                continue
            lhs0, rhs0 = f_kl * f_k1l1, f_k1l * f_kl1  # cpc
            lhs1, rhs1 = f_k2l * f_kl1, f_k1l * f_k1l1  # cpc1
            lhs2, rhs2 = f_kl2 * f_k1l, f_kl1 * f_k1l1  # cpc2
            fail0, fail1, fail2 = lhs0 > rhs0, lhs1 > rhs1, lhs2 > rhs2
            # a double failure among {cpc, cpc1, cpc2} is impossible; if one
            # ever shows up it is logged as critical, never discarded
            if fail0 + fail1 + fail2 >= 2:
                p, z = instance() if p is None else (p, z)
                summary.critical.append(
                    {"covers": [list(c) for c in p.covers], "z": list(z.as_tuple()),
                     "k": k, "l": l, "index": index}
                )
            if cpc2:
                failed, lhs, rhs = fail2, lhs2, rhs2
            elif cpc:
                failed, lhs, rhs = fail0, lhs0, rhs0
            else:
                failed, lhs, rhs = fail1, lhs1, rhs1
            if not failed:
                holds += 1
                slack = rhs - lhs
                if slack > 0 and (cutoff is None or slack < cutoff):
                    insort(min_slack, slack)
                    del min_slack[5:]
                    if len(min_slack) == 5:
                        cutoff = min_slack[4]
                continue
            summary.fails += 1
            if p is None:
                p, z = instance()
            if target == "gcpc":
                # signed-gap reduction: swap z1, z2 and translate indices; the
                # signed cells there are cpc2's cells, so lhs and rhs carry over
                a, b = -k - 1, k + l + 1
                marks = z.swapped12()
                indices = {"k": a, "l": b, "p": a + 1, "q": b + 1}
            else:
                marks, indices = z, {"k": k, "l": l}
            certs.append(Certificate(target, p, marks, indices, lhs, rhs, index))
            summary.certificates += 1
    summary.holds += holds
    summary.vacuous += vacuous
    return certs


def run(job: SearchJob):
    """Execute the job serially; returns (certificates, summary), both
    deterministic in (seed, budget, filters).  With ``job.out`` set, each
    certificate is appended and flushed there as soon as it is found."""
    summary = SearchSummary(job.target)
    certificates: list[Certificate] = []
    rng = random.Random()  # this run's own; reseeded for every instance
    with open(job.out, "a", encoding="utf-8") if job.out else nullcontext() as fh:
        for i in range(job.budget):
            for cert in _scan_instance(job, i, summary, rng):
                certificates.append(cert)
                if fh is not None:
                    fh.write(json.dumps(cert.to_json_obj()) + "\n")
                    fh.flush()
    return certificates, summary


# -- exhaustive small-poset enumeration --------------------------------------


def canonical_key(p: Poset) -> tuple[int, int]:
    """(n, code), equal exactly for isomorphic posets: the code is the least,
    over all linear extensions, of the relation written as bits rank(x) * n
    + rank(y) for x < y, ranks taken in that extension.  An isomorphism
    carries one poset's extensions onto the other's, and a code fixes its
    poset up to relabeling.  TooLarge above CANONICAL_EXACT_MAX, where e(P)
    may reach n!."""
    n = p.n
    if n > CANONICAL_EXACT_MAX:
        raise TooLarge(f"canonical form guarded at n <= {CANONICAL_EXACT_MAX}")
    pairs = p.relation_pairs()
    rank = [0] * n
    best = None
    for word in enumerate_extensions(p):
        for i, x in enumerate(word):
            rank[x] = i
        code = sum(1 << rank[x] * n + rank[y] for x, y in pairs)
        if best is None or code < best:
            best = code
    return n, best


def enumerate_posets(n: int):
    """One representative per isomorphism class, n <= 6.

    Grown by repeatedly attaching a new maximal element whose strict
    down-set is an order ideal, de-duplicated by ``canonical_key``.
    """
    if n > ENUMERATION_MAX_N:
        raise TooLarge(f"exhaustive enumeration guarded at n <= {ENUMERATION_MAX_N}")
    reps = [build(1, [])]
    for size in range(2, n + 1):
        seen = {}
        for p in reps:
            for ideal in _build_lattice(p).ideals:
                # the new element's row in the dual is the ideal, its strict down-set
                q = Poset(size, (*p.down, ideal)).dual()
                seen.setdefault(canonical_key(q), q)
        reps = list(seen.values())
    return reps
