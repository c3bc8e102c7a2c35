"""Randomized and exhaustive search for inequality violations.

The random model: draw a linear order uniformly, keep each order-compatible
pair with probability p drawn per instance from {0.1, ..., 0.5}, close
transitively, and pick the marked triple uniformly among chains
z1 < z2 < z3.  ``run`` scans instance indices 0..budget-1 serially in one
thread.  Each instance is seeded by its own index, so any disjoint split of
the index range (for example one process per range) reproduces the same
instances, and ``SearchSummary.absorb`` merges the parts into the same
summary.  With ``job.out`` set, each certificate is appended and flushed
as soon as it is found, so a killed run keeps everything found before it
stopped.

The scan reads the cells of F once per (k, l) and compares the cpc, cpc1
and cpc2 products as integers, and makes a Certificate only for a failure.

Violations of the generalized product comparison (``gcpc``) are located
through the signed-gap reduction: a ``cpc2`` violation at (k, l) yields,
after swapping the roles of z1 and z2, a signed table F' with
F'(a, b) = F(-a, a+b), and the four cells at a = -k-1, b = k+l+1 violate
F'(a,b) F'(a+1,b+1) <= F'(a+1,b) F'(a,b+1).  Those four cells are cpc2's
own cells, so the certificate takes cpc2's products; ``verify_certificate``
recounts them on the signed table, which for a chain triple is F of the
chain, relabelled.  Certificates embed the poset and re-verify from
scratch on reload.

``enumerate_posets`` lists one poset per isomorphism class for n <= 6,
de-duplicated by ``canonical_key``: the least relation code over the ranks
of the poset's linear extensions, exact for n <= 9.
"""

from __future__ import annotations

import json
import random
from bisect import insort
from contextlib import nullcontext

from .errors import BadParams, MalformedInput, TooLarge
from .extensions import FTable, enumerate_extensions, f_table, f_table_signed, lattice
from .inequalities import FAILS, HOLDS, TABLE_CHECKS, VACUOUS, check_gcpc
from .posets import MAX_ELEMENTS, SCHEMA, MarkedTriple, Poset, _FrozenRecord, _Record, build
from .posets import _check_index, _check_size, _json_covers, _json_int, _json_marks, _json_object

SEARCH_TARGETS = ("cpc", "cpc1", "cpc2", "gcpc")

POSET_CLASS_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318}
ENUMERATION_MAX_N = 6
CANONICAL_EXACT_MAX = 9  # canonical_key walks every linear extension


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
        if not 3 <= n_min <= n_max <= MAX_ELEMENTS:
            raise BadParams(f"need 3 <= n_min <= n_max <= {MAX_ELEMENTS}, got {n_min}, {n_max}")
        if budget < 0:
            raise BadParams(f"budget must be >= 0, got {budget}")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "budget", budget)
        object.__setattr__(self, "n_min", n_min)
        object.__setattr__(self, "width_max", width_max)
        object.__setattr__(self, "out", out)


class Certificate(_Record):
    __slots__ = ("ineq", "n", "covers", "z", "indices", "lhs", "rhs", "index")

    def __init__(
        self,
        ineq: str,
        n: int,
        covers: list,
        z: tuple[int, int, int],
        indices: dict,
        lhs: int,
        rhs: int,
        index: int,  # instance index that produced it
    ) -> None:
        self.ineq = ineq
        self.n = n
        self.covers = covers
        self.z = z
        self.indices = indices
        self.lhs = lhs
        self.rhs = rhs
        self.index = index

    def to_json_obj(self) -> dict:
        return {
            "schema": SCHEMA,
            "type": "certificate",
            "ineq": self.ineq,
            "n": self.n,
            "covers": [list(c) for c in self.covers],
            "z": list(self.z),
            "indices": self.indices,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "index": self.index,
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "Certificate":
        """Inverse of ``to_json_obj`` (``index`` optional).  MalformedInput
        for a missing key, a non-integer field or a field of the wrong shape;
        ``lhs`` and ``rhs`` may be ints or, as written, ``str`` of one.  n,
        the cover elements and the marks are checked as in ``load_poset``."""
        obj = _json_object(obj, "certificate")
        missing = [key for key in _CERTIFICATE_KEYS if key not in obj]
        if missing:
            raise MalformedInput(f"certificate lacks {', '.join(missing)}")
        if not isinstance(obj["ineq"], str):
            raise MalformedInput(f"certificate 'ineq' must be a string, got {obj['ineq']!r}")
        n = _json_int(obj["n"], "'n'")
        _check_size(n)
        covers, z = _json_covers(obj["covers"]), _json_marks(obj["z"], n)
        for x in (x for pair in covers for x in pair):
            _check_index(n, x)
        indices = _json_object(obj["indices"], "'indices'")
        return Certificate(
            obj["ineq"], n, covers, z.as_tuple(),
            {key: _json_int(v, f"index {key!r}") for key, v in indices.items()},
            _json_int(obj["lhs"], "'lhs'", text=True),
            _json_int(obj["rhs"], "'rhs'", text=True),
            _json_int(obj.get("index", -1), "'index'"),
        )


_CERTIFICATE_KEYS = ("ineq", "n", "covers", "z", "indices", "lhs", "rhs")


def verify_certificate(cert: Certificate) -> bool:
    """Recompute the embedded instance and confirm the recorded violation.
    BadParams when ``ineq`` is not gcpc or a table check, or ``indices``
    lacks a key that check reads; indices and marks are read as on reload."""
    if cert.ineq != "gcpc" and cert.ineq not in TABLE_CHECKS:
        raise BadParams(f"certificate names an unknown check {cert.ineq!r}")
    missing = [key for key in ("klpq" if cert.ineq == "gcpc" else "kl") if key not in cert.indices]
    if missing:
        raise BadParams(f"{cert.ineq} certificate indices lack {', '.join(missing)}")
    idx = {key: _json_int(v, f"index {key!r}") for key, v in cert.indices.items()}
    p = build(cert.n, cert.covers)
    z = _json_marks(cert.z, p.n)
    if cert.ineq == "gcpc":
        rep = check_gcpc(f_table_signed(p, z), idx["k"], idx["l"], idx["p"], idx["q"])
    else:
        rep = TABLE_CHECKS[cert.ineq](f_table(p, z), idx["k"], idx["l"])
    return rep.lhs == cert.lhs and rep.rhs == cert.rhs and rep.verdict == FAILS


class SearchSummary(_Record):
    __slots__ = (
        "target", "instances", "usable", "holds", "fails", "vacuous", "certificates",
        "min_slack", "critical",
    )

    def __init__(
        self,
        target: str,
        instances: int = 0,
        usable: int = 0,
        holds: int = 0,
        fails: int = 0,
        vacuous: int = 0,
        certificates: int = 0,
        min_slack: list | None = None,  # up to 5 smallest positive slacks
        critical: list | None = None,  # two-of-three violations (never expected)
    ) -> None:
        self.target = target
        self.instances = instances
        self.usable = usable
        self.holds = holds
        self.fails = fails
        self.vacuous = vacuous
        self.certificates = certificates
        self.min_slack = [] if min_slack is None else min_slack
        self.critical = [] if critical is None else critical

    def absorb(self, other: "SearchSummary") -> None:
        for name in ("instances", "usable", "holds", "fails", "vacuous", "certificates"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.min_slack = sorted(self.min_slack + other.min_slack)[:5]
        self.critical.extend(other.critical)

    def to_json_obj(self) -> dict:
        return {
            "schema": SCHEMA,
            "type": "summary",
            "target": self.target,
            "instances": self.instances,
            "usable": self.usable,
            "holds": self.holds,
            "fails": self.fails,
            "vacuous": self.vacuous,
            "certificates": self.certificates,
            "min_slack": [str(s) for s in self.min_slack],
            "critical": self.critical,
        }


def random_instance(seed: int, index: int, n_min: int, n_max: int):
    """Deterministic (poset, triple) for one instance index; triple is None
    when the sample has no 3-chain."""
    rng = random.Random(seed * 1_000_003 + index)
    n = rng.randint(n_min, n_max)
    order = list(range(n))
    rng.shuffle(order)
    prob = rng.choice([0.1, 0.2, 0.3, 0.4, 0.5])
    rand = rng.random
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n) if rand() < prob]
    p = build(n, pairs)
    chains = _chains(p)
    if not chains:
        return p, None
    return p, MarkedTriple(*rng.choice(chains))


def _chains(p: Poset) -> list:
    """All 3-chains a < b < c in lexicographic order, found by walking the
    bits of up[a] and up[b] upwards."""
    up = p.up
    chains = []
    for a in range(p.n):
        above_a = up[a]
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


_ALL_VACUOUS = ((VACUOUS, 0, 0),) * 3


def _cpc_trio(rows: list, k: int, l: int) -> tuple:
    """(verdict, lhs, rhs) of cpc, cpc1 and cpc2 at (k, l), in that order.

    ``rows[k][l]`` is F(k, l), zero-padded so that k + 2 and l + 2 are in
    range.  Same cells, orientation and vacuity rule (all four cells zero)
    as check_cpc, check_cpc1 and check_cpc2, in integers only.
    """
    r0, r1 = rows[k], rows[k + 1]
    f_kl, f_kl1, f_kl2 = r0[l], r0[l + 1], r0[l + 2]
    f_k1l, f_k1l1 = r1[l], r1[l + 1]
    f_k2l = rows[k + 2][l]
    shared = f_k1l or f_kl1 or f_k1l1  # read by all three comparisons
    if not (shared or f_kl or f_k2l or f_kl2):
        return _ALL_VACUOUS
    lhs, rhs = f_kl * f_k1l1, f_k1l * f_kl1
    cpc = (HOLDS if lhs <= rhs else FAILS, lhs, rhs) if shared or f_kl else (VACUOUS, 0, 0)
    lhs, rhs = f_k2l * f_kl1, f_k1l * f_k1l1
    cpc1 = (HOLDS if lhs <= rhs else FAILS, lhs, rhs) if shared or f_k2l else (VACUOUS, 0, 0)
    lhs, rhs = f_kl2 * f_k1l, f_kl1 * f_k1l1
    cpc2 = (HOLDS if lhs <= rhs else FAILS, lhs, rhs) if shared or f_kl2 else (VACUOUS, 0, 0)
    return cpc, cpc1, cpc2


def _dense_rows(F: FTable) -> list:
    """F as a list of rows, zero-padded to (n + 2) x (n + 2)."""
    size = F.n + 2
    rows = [[0] * size for _ in range(size)]
    for (k, l), v in F.entries.items():
        rows[k][l] = v
    return rows


_TRIO_SLOT = {"cpc": 0, "cpc1": 1, "cpc2": 2, "gcpc": 2}


def _scan_instance(job: SearchJob, index: int, summary: SearchSummary) -> list:
    """Scan one instance into ``summary``; returns its certificates."""
    summary.instances += 1
    certs: list[Certificate] = []
    p, z = random_instance(job.seed, index, job.n_min, job.n_max)
    if z is None:
        return certs
    if job.width_max is not None and p.width > job.width_max:
        return certs
    summary.usable += 1
    n = p.n
    rows = _dense_rows(f_table(p, z))
    slot = _TRIO_SLOT[job.target]
    min_slack = summary.min_slack
    cutoff = min_slack[4] if len(min_slack) == 5 else None
    holds = vacuous = 0
    for k in range(1, n):
        for l in range(1, n - k + 1):
            trio = _cpc_trio(rows, k, l)
            if trio is _ALL_VACUOUS:
                vacuous += 1
                continue
            # a double failure among {cpc, cpc1, cpc2} is impossible; if one
            # ever shows up it is logged as critical, never discarded
            if (trio[0][0] == FAILS) + (trio[1][0] == FAILS) + (trio[2][0] == FAILS) >= 2:
                summary.critical.append(
                    {"covers": [list(c) for c in p.covers], "z": list(z.as_tuple()),
                     "k": k, "l": l, "index": index}
                )
            verdict, lhs, rhs = trio[slot]
            if verdict == VACUOUS:
                vacuous += 1
                continue
            if verdict == HOLDS:
                holds += 1
                slack = rhs - lhs
                if slack > 0 and (cutoff is None or slack < cutoff):
                    insort(min_slack, slack)
                    del min_slack[5:]
                    if len(min_slack) == 5:
                        cutoff = min_slack[4]
                continue
            summary.fails += 1
            if job.target == "gcpc":
                # signed-gap reduction: swap z1, z2 and translate indices; the
                # signed cells there are cpc2's cells, so lhs and rhs carry over
                a, b = -k - 1, k + l + 1
                marks = z.swapped12().as_tuple()
                indices = {"k": a, "l": b, "p": a + 1, "q": b + 1}
            else:
                marks, indices = z.as_tuple(), {"k": k, "l": l}
            cert = Certificate(job.target, n, list(p.covers), marks, indices, lhs, rhs, index)
            certs.append(cert)
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
    with open(job.out, "a", encoding="utf-8") if job.out else nullcontext() as fh:
        for i in range(job.budget):
            for cert in _scan_instance(job, i, summary):
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
            for ideal in lattice(p).ideals:
                # the new element's row in the dual is the ideal, its strict down-set
                q = Poset(size, (*p.down, ideal)).dual()
                seen.setdefault(canonical_key(q), q)
        reps = list(seen.values())
    return reps
