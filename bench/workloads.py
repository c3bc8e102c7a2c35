"""The benchmark's three workloads: seeded inputs, one timed operation, checks.

Each workload is organised in rounds.  Round ``r`` gets fresh inputs made
from ``(seed, r)`` by the benchmark's own generators, so no poset is ever
reused and a cache keyed on poset contents gains nothing from repetition.
``execute`` holds only calls into posetlab and is the timed region;
``check`` runs afterwards, untimed, verifies every output and, for the
first ``prefix_rounds`` rounds, feeds the fingerprint: a SHA-256 over the
canonical result JSON plus exact counts that describe the inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction


class Fingerprint:
    """Canonical hash of results plus exact input and output counts."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self.counts: Counter = Counter()
        self.hists: dict[str, Counter] = {}
        self.max_bits = 0

    def add(self, obj) -> None:
        self._sha.update(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode())
        self._sha.update(b"\n")

    def hist(self, name: str, value: int) -> None:
        self.hists.setdefault(name, Counter())[value] += 1

    def bits(self, values) -> None:
        self.max_bits = max([self.max_bits] + [int(v).bit_length() for v in values])

    def digest(self) -> str:
        return self._sha.hexdigest()

    def summary(self) -> dict:
        return {
            "outputs_sha256": self.digest(),
            "counts": dict(sorted(self.counts.items())),
            "max_bits": self.max_bits,
            "hists": {k: {str(v): c for v, c in sorted(h.items())} for k, h in sorted(self.hists.items())},
        }


# -- helpers on the order relation, independent of posetlab's engines --------


def ideal_lattice_size(p) -> tuple[int, int]:
    """(number of order ideals, number of linear extensions) by a plain
    layer-by-layer walk over down-sets."""
    n = p.n
    down = [sum(1 << a for a in range(n) if p.up[a] >> b & 1) for b in range(n)]
    layer, ideals = {0: 1}, 1
    for _ in range(n):
        nxt: dict[int, int] = {}
        for ideal, ways in layer.items():
            for x in range(n):
                if not ideal >> x & 1 and not down[x] & ~ideal:
                    nxt[ideal | 1 << x] = nxt.get(ideal | 1 << x, 0) + ways
        layer = nxt
        ideals += len(layer)
    return ideals, layer[(1 << n) - 1]


def chain_triples(n: int, up) -> list[tuple[int, int, int]]:
    return [
        (a, b, c)
        for a in range(n)
        for b in range(n)
        if up[a] >> b & 1
        for c in range(n)
        if up[b] >> c & 1
    ]


def random_order_instance(rng: random.Random, n: int):
    """The random_instance model: a uniform linear order, each compatible
    pair kept with a probability drawn from {0.1, ..., 0.5}."""
    order = list(range(n))
    rng.shuffle(order)
    prob = rng.choice([0.1, 0.2, 0.3, 0.4, 0.5])
    return [(order[i], order[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < prob]


# -- search-gcpc ---------------------------------------------------------------


class SearchGcpc:
    """One operation is one random instance scanned by ``search.run``."""

    name = "search-gcpc"
    ops_per_round = 200  # budget of one search.run call, about 50 ms
    prefix_rounds = 20

    def make_round(self, m, seed: int, r: int) -> list:
        job = m.search.SearchJob(
            target="gcpc", n_min=3, n_max=8, width_max=3,
            seed=seed * 100_000 + r, budget=self.ops_per_round,
        )
        return [job]

    def ops(self, job) -> int:
        return job.budget

    def execute(self, m, job):
        certs, summary = m.search.run(job)
        return certs, summary, [m.search.verify_certificate(c) for c in certs]

    def check(self, m, job, result, fp: Fingerprint | None) -> int:
        certs, summary, verified = result
        if summary.instances != job.budget:
            return job.budget
        bad = {c.index for c, ok in zip(certs, verified) if not ok}
        bad |= {entry["index"] for entry in summary.critical}
        if fp is not None:
            fp.add(summary.to_json_obj())
            for c in certs:
                fp.add(c.to_json_obj())
                fp.bits([c.lhs, c.rhs])
            for key in ("instances", "usable", "holds", "fails", "vacuous", "certificates"):
                fp.counts[key] += getattr(summary, key)
            for i in range(job.budget):
                p, z = m.search.random_instance(job.seed, i, job.n_min, job.n_max)
                fp.hist("n", p.n)
                fp.hist("width", m.posets.width(p))
                fp.counts["ideals"] += ideal_lattice_size(p)[0]
        return len(bad)


# -- table-large ---------------------------------------------------------------


class TableLarge:
    """One operation is one width-5 marked poset with 26 <= n <= 32 run
    through the gap-phase DP, the signed positional DP, the one-mark DP and
    the support hexagon.  A round holds one poset of each n."""

    name = "table-large"
    ops_per_round = 7
    prefix_rounds = 8
    chains = 5
    relations_per_pair = 2

    def make_round(self, m, seed: int, r: int) -> list:
        return [self._poset(m, random.Random(f"{self.name}:{seed}:{r}:{j}"), 26 + j)
                for j in range(self.ops_per_round)]

    def _poset(self, m, rng: random.Random, n: int):
        # Five chains of near-equal length.  Each ordered pair of chains gets
        # the same number of cross relations, from a random level a of one
        # chain to level a + 1 of the other and never out of a chain's top
        # element: levels rise along every relation (no cycle) and the five
        # tops stay an antichain, so the width is exactly five.  The fixed
        # per-pair count keeps the lattice size, and so one operation's cost,
        # within about 10% across a round.
        lengths = [n // self.chains + (j < n % self.chains) for j in range(self.chains)]
        rng.shuffle(lengths)
        ids = list(range(n))
        rng.shuffle(ids)
        chains, start = [], 0
        for length in lengths:
            chains.append(ids[start:start + length])
            start += length
        pairs = [(c[a], c[a + 1]) for c in chains for a in range(len(c) - 1)]
        for lo in chains:
            for hi in chains:
                added = 0
                while added < self.relations_per_pair and hi is not lo:
                    a = rng.randrange(len(lo) - 1)
                    if a + 1 < len(hi):
                        pairs.append((lo[a], hi[a + 1]))
                        added += 1
        c = chains[rng.randrange(self.chains)]
        k = len(c)
        z = m.posets.MarkedTriple(c[k // 5], c[k // 2], c[k - 1 - k // 5])
        return m.posets.build(n, pairs), z

    def ops(self, item) -> int:
        return 1

    def execute(self, m, item):
        p, z = item
        return (
            m.extensions.f_table(p, z),
            m.extensions.f_table_signed(p, z.swapped12()),
            m.extensions.n_vector(p, z.z2),
            m.vanishing.support(p, z),
        )

    def check(self, m, item, result, fp: Fingerprint | None) -> int:
        p, z = item
        F, signed, nv, region = result
        e = m.extensions.count_extensions(p)
        # F(k, l) = S(-k, k + l) where S is the signed table of (z2, z1, z3)
        translated = {(-a, a + b): v for (a, b), v in signed.items() if v}
        ok = (
            translated == {kl: v for kl, v in F.entries.items() if v}
            and F.total() == sum(signed.values()) == nv.total() == e
            and region.points() == F.support()
        )
        if fp is not None:
            fp.add({
                "F": F.to_json_obj(),
                "S": [[a, b, str(v)] for (a, b), v in sorted(signed.items()) if v],
                "N": nv.to_json_obj(),
                "support": region.bounds_dict(),
            })
            ideals, _ = ideal_lattice_size(p)
            fp.hist("n", p.n)
            fp.hist("width", m.posets.width(p))
            fp.counts["posets"] += 1
            fp.counts["ideals"] += ideals
            fp.counts["cells"] += len(F.support())
            fp.counts["extensions"] += e
            fp.bits(F.entries.values())
        return 0 if ok else 1


# -- certify -------------------------------------------------------------------


class Certify:
    """One operation re-certifies one marked poset (7 <= n <= 9) by every
    independent route: all table checkers, Stanley bounds, the four word
    injections and the slice volume (exact formula against Monte Carlo)."""

    name = "certify"
    ops_per_round = 16
    prefix_rounds = 4
    # e(P) band: keeps one operation at 10-100 ms, so a run averages hundreds
    # of them instead of being decided by a few near-antichains with 10^5 words
    min_extensions, max_extensions = 500, 3000
    s, t = Fraction(1, 5), Fraction(1, 5)
    mc_samples = 100_000
    mc_sigmas = 5

    def make_round(self, m, seed: int, r: int) -> list:
        out = []
        for j in range(self.ops_per_round):
            rng = random.Random(f"{self.name}:{seed}:{r}:{j}")
            while True:
                n = rng.randint(7, 9)
                pairs = random_order_instance(rng, n)
                p = m.posets.build(n, pairs)
                triples = chain_triples(n, p.up)
                if triples and self.min_extensions <= ideal_lattice_size(p)[1] <= self.max_extensions:
                    break
            out.append((p, m.posets.MarkedTriple(*rng.choice(triples)), rng.randrange(1 << 32)))
        return out

    def ops(self, item) -> int:
        return 1

    def execute(self, m, item):
        p, z, mc_seed = item
        F = m.extensions.f_table(p, z)
        grid = [(k, l) for k in range(1, p.n) for l in range(1, p.n - k + 1)]
        reports = [fn(F, k, l) for fn in m.inequalities.TABLE_CHECKS.values() for k, l in grid]
        nv = m.extensions.n_vector(p, z.z2)
        positions = sorted(set(nv.counts) | {k + 1 for k in nv.counts})
        stanley = [m.inequalities.check_stanley(nv, k) for k in positions]
        certs = m.injections.verify_injections(p, z)
        exact = m.geometry.volume_formula(F, self.s, self.t)
        est = m.geometry.volume_mc(p, z, self.s, self.t, self.mc_samples, mc_seed)
        return F, reports, stanley, certs, exact, est

    def check(self, m, item, result, fp: Fingerprint | None) -> int:
        p, z, _ = item
        F, reports, stanley, certs, exact, est = result
        # hit-or-miss standard error from the exact volume, so a tiny volume
        # with zero hits is not judged by a zero sample deviation
        v = float(exact)
        se = math.sqrt(v * (1.0 - v) / est.samples)
        ok = (
            all(c.ok for c in certs)
            and not any(r.verdict == "fails" and r.ineq in ("main", "two-of-three") for r in reports)
            and abs(est.mean - v) <= self.mc_sigmas * se
        )
        if fp is not None:
            fp.add({
                "F": F.to_json_obj(),
                "checks": [r.to_json_obj() for r in reports + stanley],
                "injections": [c.to_json_obj() for c in certs],
                "volume": str(exact),
                "mc_hits": est.hits,
            })
            for r in reports + stanley:
                if r.verdict == "fails":
                    fp.counts["fails." + r.ineq] += 1
            ideals, e = ideal_lattice_size(p)
            fp.hist("n", p.n)
            fp.hist("width", m.posets.width(p))
            fp.counts["posets"] += 1
            fp.counts["ideals"] += ideals
            fp.counts["extensions"] += e
            fp.counts["injection_certificates"] += len(certs)
            fp.counts["domain_words"] += sum(c.domain_size for c in certs)
            fp.counts["mc_samples"] += est.samples
            fp.bits(F.entries.values())
        return 0 if ok else 1


WORKLOADS = {w.name: w for w in (SearchGcpc(), TableLarge(), Certify())}
