"""Acceptance suite: one test per criterion, one PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Every expected value here is either a closed form checked against the
exact DP, or a property verified over a fixed seeded corpus.  Every
criterion is expected to pass; a FAIL line is a regression.

* criterion 4 pins F(k,l+1) = F(k+1,l) = (k+l-1)! for the
  bottom-antichain-top family: once the marked middle element is placed,
  the k+l-1 free elements fill the remaining middle positions in any order.
* criterion 7 does not claim that cpc1/cpc2 hold on width-2 posets: they
  do not (5-, 6- and 7-element witnesses are pinned in test_inequalities,
  and no poset on at most 4 elements breaks either).
  Instead each width-2 cpc1/cpc2 failure in the sample must be confirmed
  by the brute-force gap-class oracle and mirrored on the dual poset, and
  the sample must contain at least one.
"""

from __future__ import annotations

import hashlib
import json
import time
from fractions import Fraction
from math import factorial

from conftest import chain_triples, corpus, recover_f_from_volume
from posetlab.extensions import FTable, f_table, n_vector, word_classes
from posetlab.families import (
    family_antichain,
    family_converse_tight,
    family_cpc2_witness,
    family_stanley_tight,
)
from posetlab.geometry import volume_formula, volume_mc
from posetlab.inequalities import (
    FAILS,
    check_converse,
    check_cpc,
    check_cpc1,
    check_cpc2,
    check_gcpc,
    check_half_cpc,
    check_half_cpc1,
    check_half_cpc2,
    check_logc1,
    check_logc2,
    check_logc3,
    check_logconcave_product,
    check_main,
    check_sqrt_lower,
    check_stanley,
    check_two_of_three,
    check_vanish_lower,
)
from posetlab.injections import verify_injections
from posetlab.posets import MarkedTriple, build, chain, normalize, params
from posetlab.search import SearchJob, enumerate_posets, run, verify_certificate
from posetlab.vanishing import support

ACCEPTANCE_SEED = 2024

# SHA-256 of criterion 8's output as the CLI streams it: one json.dumps line
# per certificate, in order, then the summary line; any change to the
# instances drawn, the cells counted or the bytes written changes it.
CRITERION_8_SHA256 = "1230863258812e0e54cca949c25c5ae89eee095e4063d5082919703826ebc7d4"


def _finish(num: int, budget: float, started: float, failures: list, detail: str = ""):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    print(f"\nacceptance criterion {num}: {status} ({elapsed:.1f}s) {detail}", flush=True)
    assert not failures, f"criterion {num}: " + " | ".join(str(f) for f in failures[:10])
    assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def test_criterion_1_cpc2_witness_family():
    started = time.perf_counter()
    failures = []
    for k in (1, 2, 3):
        for l in (2, 3, 4, 5):
            inst = family_cpc2_witness(k, l)
            F = f_table(inst.poset, inst.z)
            expect = {
                (k, l + 2): (l + 1) * l,
                (k + 1, l): 2 * (l - 1),
                (k, l + 1): 2 * l,
                (k + 1, l + 1): l * (l - 1),
            }
            for cell, v in expect.items():
                if F.get(*cell) != v:
                    failures.append(f"(k={k},l={l}) cell {cell}: {F.get(*cell)} != {v}")
            rep = check_cpc2(F, k, l)
            if rep.verdict != FAILS or rep.ratio != Fraction(l, l + 1):
                failures.append(f"(k={k},l={l}) cpc2 verdict {rep.verdict} ratio {rep.ratio}")
    _finish(1, 5.0, started, failures, "12 witness instances, ratio l/(l+1)")


def test_criterion_2_converse_tight_family():
    started = time.perf_counter()
    failures = []
    checked = 0
    for n in range(8, 13):
        for k in (2, 3):
            for l in (1, 2):
                if n - k - l - 3 < 1:
                    continue
                inst = family_converse_tight(n, k, l)
                F = f_table(inst.poset, inst.z)
                c = n - k - l - 2
                expect = {
                    (k, l): c,
                    (k + 1, l): (k - 1) * c,
                    (k, l + 1): 1 + (k - 1) * l * c,
                    (k + 1, l + 1): k - 1,
                }
                for cell, v in expect.items():
                    if F.get(*cell) != v:
                        failures.append(f"(n={n},k={k},l={l}) cell {cell}")
                A = F.get(k + 1, l) * F.get(k, l + 1)
                B = F.get(k, l) * F.get(k + 1, l + 1)
                if Fraction(A, B) != 1 + (k - 1) * l * c:
                    failures.append(f"(n={n},k={k},l={l}) cross-ratio")
                if check_converse(F, k, l).verdict != "holds":
                    failures.append(f"(n={n},k={k},l={l}) converse bound")
                checked += 1
    _finish(2, 30.0, started, failures, f"{checked} instances")


def test_criterion_3_stanley_tight_family():
    started = time.perf_counter()
    failures = []
    checked = 0
    for n in range(5, 10):
        for k in range(3, n - 1):
            inst = family_stanley_tight(n, k)
            nv = n_vector(inst.poset, inst.a)
            expect = {k - 1: n - k, k: (k - 1) * (n - k), k + 1: k - 1}
            for pos, v in expect.items():
                if nv.get(pos) != v:
                    failures.append(f"(n={n},k={k}) N_{pos}: {nv.get(pos)} != {v}")
            rep = check_stanley(nv, k)
            if rep.verdict != "holds" or rep.slack != 0:
                failures.append(f"(n={n},k={k}) ratio bound not an equality")
            checked += 1
    _finish(3, 10.0, started, failures, f"{checked} instances, ratio equality")


def test_criterion_4_antichain_family():
    started = time.perf_counter()
    failures = []
    for k in (1, 2, 3):
        for l in (1, 2, 3):
            inst = family_antichain(k, l)
            F = f_table(inst.poset, inst.z)
            for cell in [(k, l), (k + 1, l + 1), (k, l + 2), (k + 2, l)]:
                if F.get(*cell) != 0:
                    failures.append(f"(k={k},l={l}) expected zero at {cell}")
            # z1 is the unique minimum and z3 the unique maximum; z2 and the
            # m = k+l-1 free elements form an antichain in between.  Putting
            # z2 at position k+1 or k+2 leaves the m free elements to fill
            # the other middle positions in any order: m! each.
            expect = factorial(k + l - 1)
            if F.get(k, l + 1) != expect:
                failures.append(f"(k={k},l={l}) F(k,l+1)={F.get(k, l + 1)} != {expect}")
            if F.get(k + 1, l) != expect:
                failures.append(f"(k={k},l={l}) F(k+1,l)={F.get(k + 1, l)} != {expect}")
            # the product equality genuinely needs its positivity hypothesis:
            # the off-diagonal product is positive, the diagonal one is zero
            off_diag = F.get(k, l + 1) * F.get(k + 1, l)
            diag = F.get(k, l) * F.get(k + 1, l + 1)
            if not (off_diag > 0 and diag == 0):
                failures.append(f"(k={k},l={l}) equality violation pattern broken")
    _finish(4, 5.0, started, failures, "zeros + equality violation + (k+l-1)! closed forms")


def test_criterion_5_vanishing_oracle_equivalence():
    started = time.perf_counter()
    failures = []
    instances = 0
    for n in range(1, 6):
        for p in enumerate_posets(n):
            for z in chain_triples(p):
                F = f_table(p, z)
                region = support(p, z)
                for k in range(1, n + 2):
                    for l in range(1, n + 2):
                        if region.membership(k, l) != (F.get(k, l) > 0):
                            failures.append(f"exhaustive n={n} {p.covers} {z} ({k},{l})")
                instances += 1
    for p, z in corpus(500, 6, 8, seed=ACCEPTANCE_SEED):
        F = f_table(p, z)
        region = support(p, z)
        for k in range(1, p.n + 1):
            for l in range(1, p.n + 1):
                if region.membership(k, l) != (F.get(k, l) > 0):
                    failures.append(f"random {p.covers} {z} ({k},{l})")
        instances += 1
    _finish(5, 300.0, started, failures, f"{instances} marked posets, zero discrepancies")


def test_criterion_6_injection_certification():
    started = time.perf_counter()
    failures = []
    certs = 0
    for p, z in corpus(200, 3, 8, seed=ACCEPTANCE_SEED + 1):
        for cert in verify_injections(p, z):
            certs += 1
            if not cert.ok:
                failures.append(f"{cert.name} (k={cert.k},l={cert.l}) on {p.covers}: "
                                f"{cert.collisions[:1]}{cert.errors[:1]}")
            if cert.domain_size > cert.codomain_bound:
                failures.append(f"{cert.name} ratio bound broken on {p.covers}")
    _finish(6, 600.0, started, failures, f"200 posets, {certs} certificates")


def test_criterion_7_inequality_suite():
    started = time.perf_counter()
    failures = []
    table_checkers = [
        check_cpc,
        check_half_cpc,
        check_half_cpc1,
        check_half_cpc2,
        check_logc1,
        check_logc2,
        check_logc3,
        check_logconcave_product,
        check_sqrt_lower,
        check_vanish_lower,
        check_main,
        check_converse,
        check_two_of_three,
    ]
    sample = corpus(200, 3, 8, seed=ACCEPTANCE_SEED + 1)
    width2 = confirmed = 0
    for p, z in sample:
        F = f_table(p, z)
        for k in range(1, p.n + 1):
            for l in range(1, p.n + 1):
                for checker in table_checkers:
                    rep = checker(F, k, l)
                    if rep.verdict == FAILS:
                        failures.append(f"{rep.ineq} fails at ({k},{l}) on {p.covers}")
        for a in z.as_tuple():
            nv = n_vector(p, a)
            for k in range(1, p.n + 1):
                if check_stanley(nv, k).verdict == FAILS:
                    failures.append(f"stanley fails at {k} (mark {a}) on {p.covers}")
        if params(p).width == 2:
            width2 += 1
            cells = sorted(F.support())
            for (k, l) in cells:
                for (pp, qq) in cells:
                    if k <= pp and l <= qq and check_gcpc(F, k, l, pp, qq).verdict == FAILS:
                        failures.append(f"gcpc fails on width-2 {p.covers}")
            # width two does not protect cpc1/cpc2 (the width-two theorem covers
            # cpc and gcpc, checked above); each failure must be real (the
            # lattice-free oracle recounts the same four cells) and must mirror
            # on the dual poset, where F*(k,l) = F(l,k)
            oracle = dual = None
            for k in range(1, p.n + 1):
                for l in range(1, p.n + 1):
                    for check, mirror in ((check_cpc1, check_cpc2), (check_cpc2, check_cpc1)):
                        rep = check(F, k, l)
                        if rep.verdict != FAILS:
                            continue
                        if oracle is None:
                            classes = word_classes(p, z)[0]
                            oracle = FTable(p.n, z, {kl: len(ws) for kl, ws in classes.items()})
                            dual = f_table(p.dual(), z.reversed())
                        recount = check(oracle, k, l)
                        mirrored = mirror(dual, l, k)
                        where = f"width-2 {rep.ineq} fails at ({k},{l}) on {p.covers} z={z}"
                        if recount.verdict != FAILS or recount.cells != rep.cells:
                            failures.append(f"{where}; oracle recount {recount.cells}")
                        elif (mirrored.verdict, mirrored.lhs, mirrored.rhs) != (
                            FAILS, rep.lhs, rep.rhs
                        ):
                            failures.append(f"{where}; dual {mirrored.ineq} at ({l},{k}) "
                                            f"{mirrored.lhs} vs {mirrored.rhs}")
                        else:
                            confirmed += 1
    if not confirmed:
        failures.append("no width-2 cpc1/cpc2 failure found: nothing was confirmed")
    _finish(
        7, 900.0, started, failures,
        f"200 posets ({width2} width-2; {confirmed} width-2 cpc1/cpc2 failures "
        f"confirmed by oracle and dual)",
    )


def test_criterion_8_gcpc_falsification():
    started = time.perf_counter()
    failures = []
    job = SearchJob(target="gcpc", n_max=8, width_max=3, seed=42, budget=100_000)
    certs, summary = run(job)
    if len(certs) < 1:
        failures.append("no violation certificate emitted")
    for cert in certs:
        if not verify_certificate(cert):
            failures.append(f"certificate at index {cert.index} does not re-verify")
    lines = [json.dumps(c.to_json_obj()) + "\n" for c in certs]
    lines.append(json.dumps(summary.to_json_obj()) + "\n")
    if hashlib.sha256("".join(lines).encode()).hexdigest() != CRITERION_8_SHA256:
        failures.append("certificate and summary lines differ from the pinned digest")
    _finish(
        8, 600.0, started, failures,
        f"{summary.instances} instances, {len(certs)} certificates, all re-verified",
    )


def test_criterion_9_geometry():
    started = time.perf_counter()
    failures = []
    fixtures = [
        (chain(4), MarkedTriple(0, 1, 2)),
        normalize(build(4, [(0, 1), (0, 2)]), MarkedTriple(0, 1, 3)),
        (family_antichain(2, 1).poset, family_antichain(2, 1).z),
        normalize(build(5, [(0, 1), (0, 2), (1, 3), (2, 3)]), MarkedTriple(0, 1, 3)),
        (family_cpc2_witness(1, 2).poset, family_cpc2_witness(1, 2).z),
    ]
    points = [
        (Fraction(1, 5), Fraction(1, 5)),
        (Fraction(1, 4), Fraction(1, 3)),
        (Fraction(2, 5), Fraction(1, 5)),
    ]
    misses = 0
    for i, (p, z) in enumerate(fixtures):
        F = f_table(p, z)
        rec = recover_f_from_volume(lambda s, t: volume_formula(F, s, t), p.n)
        if {c: int(v) for c, v in rec.items() if v} != {c: v for c, v in F.entries.items() if v}:
            failures.append(f"fixture {i}: interpolation recovery not exact")
        for j, (s, t) in enumerate(points):
            exact = volume_formula(F, s, t)
            est = volume_mc(p, z, s, t, samples=1_000_000, seed=9000 + 10 * i + j)
            if not est.within(exact, sigmas=3.0):
                misses += 1
    if misses > 1:
        failures.append(f"{misses} of 15 cells outside 3 standard errors")
    _finish(9, 300.0, started, failures, f"15 MC cells, {misses} misses; recovery exact")
