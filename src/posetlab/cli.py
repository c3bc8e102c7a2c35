"""Command-line entry point.

Each subcommand returns its records, and ``main`` alone turns them into
stdout and an exit code.  Machine-readable JSON lines go to stdout, logs
to stderr; ``--human`` prints each of those lines as comma-separated
key=value pairs instead, without ``schema``.  Every line is built before
the first is written, so an error writes no stdout line.  Exit codes: 0
success, 1 when some line has ``"verdict": "fails"`` or ``"ok": false``,
2 on a usage error or a data error (input that is malformed, out of
range or too large).  A reader that closes the pipe early gets the same
exit code, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from . import families, geometry, injections, search, vanishing
from .errors import BadParams, MalformedInput, PosetLabError
from .extensions import f_table, n_vector
from .inequalities import (
    ALL_CHECK_IDS,
    FAILS,
    TABLE_CHECKS,
    check_gcpc,
    check_stanley,
    check_thin_flat,
)
from .posets import SCHEMA, load_poset, normalize, thin_threshold


def _read_poset(args, stdin, marked: bool = True):
    """(p, z, a) from ``--poset`` or stdin.  With ``marked``, z1 < z2 < z3
    is added to p, and an input without the triple z is a data error."""
    from_stdin = args.poset in (None, "-")
    try:
        if from_stdin:
            text = stdin.read()
        else:
            with open(args.poset, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        source = "stdin" if from_stdin else f"poset file {args.poset!r}"
        raise MalformedInput(f"cannot read {source}: {exc}") from None
    p, z, a = load_poset(text)
    if marked:
        if z is None:
            raise PosetLabError("poset JSON lacks a marked triple 'z'")
        p, z = normalize(p, z)
    return p, z, a


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise BadParams(f"not a fraction: {text!r}") from None


def _check_flags(args) -> None:
    """Refuse a flag that ``--ineq`` does not read, and ``--all`` with an
    index: either would otherwise be dropped without a word."""
    reads = {"stanley": "ka", "gcpc": "klpq", "thin": "klt"}.get(args.ineq, "kl")
    unread = [f"--{c}" for c in "klpqta" if c not in reads and getattr(args, c) is not None]
    if unread:
        raise BadParams(f"--ineq {args.ineq} does not read {' '.join(unread)}")
    if args.all and any(getattr(args, c) is not None for c in "klpq"):
        raise BadParams("--all takes no --k, --l, --p or --q")


def _indices(args, names: tuple):
    """The index arguments ``names`` as a tuple, or None for the whole grid
    (none of them given, as with ``--all``); a partial set is a usage error."""
    values = tuple(getattr(args, name) for name in names)
    if values == (None,) * len(names):
        return None
    if None in values:
        flags = " ".join(f"--{name}" for name in names)
        raise BadParams(f"give {flags} together, or none of them")
    return values


def cmd_table(args, stdin) -> list:
    p, z, _ = _read_poset(args, stdin)
    return [f_table(p, z)]


def cmd_vanish(args, stdin) -> list:
    p, z, _ = _read_poset(args, stdin)
    region = vanishing.support(p, z)
    return [{
        "schema": SCHEMA,
        "type": "vanish",
        "k": args.k,
        "l": args.l,
        "member": region.membership(args.k, args.l),
        "bounds": region.bounds_dict(),
    }]


def cmd_check(args, stdin) -> list:
    _check_flags(args)
    p, z, a = _read_poset(args, stdin, marked=args.ineq != "stanley")
    if args.ineq == "stanley":
        mark = args.a if args.a is not None else a
        if mark is None:
            if z is None:
                raise PosetLabError("stanley check needs --a or an 'a'/'z' field")
            mark = z.z2
        nv = n_vector(p, mark)
        ks = [args.k] if args.k is not None else sorted(
            set(nv.counts) | {k + 1 for k in nv.counts}
        )
        return [check_stanley(nv, k) for k in ks]
    given = _indices(args, ("k", "l", "p", "q") if args.ineq == "gcpc" else ("k", "l"))
    F = f_table(p, z)
    if args.ineq == "gcpc":
        cells = sorted(F.support())
        quads = [given] if given else [
            (k, l, pp, qq) for (k, l) in cells for (pp, qq) in cells if k <= pp and l <= qq
        ]
        return [check_gcpc(F, *quad) for quad in quads]
    kls = [given] if given else list(F.grid(margin=1))
    if args.ineq == "thin":
        t = args.t if args.t is not None else thin_threshold(p, z)
        return [check_thin_flat(F, p, t, k, l) for k, l in kls]
    return [TABLE_CHECKS[args.ineq](F, k, l) for k, l in kls]


def cmd_family(args, stdin) -> list:
    params = {name: getattr(args, name) for name in "nkl" if getattr(args, name) is not None}
    inst = families.build_family(args.id, **params)
    if not args.out:
        return [inst]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(inst.to_json_obj()) + "\n")
    return []


def cmd_verify_injections(args, stdin) -> list:
    p, z, _ = _read_poset(args, stdin)
    return injections.verify_injections(p, z, (args.map,) if args.map else injections.MAP_NAMES)


def cmd_search(args, stdin) -> list:
    job = search.SearchJob(
        target=args.target,
        n_max=args.n_max,
        n_min=args.n_min,
        width_max=args.width_max,
        seed=args.seed,
        budget=args.budget,
        out=args.out,
    )
    certs, summary = search.run(job)
    return [summary] if args.out else [*certs, summary]


def cmd_volume_mc(args, stdin) -> list:
    p, z, _ = _read_poset(args, stdin)
    s, t = _parse_fraction(args.s), _parse_fraction(args.t)
    exact = geometry.volume_formula(f_table(p, z), s, t)
    est = geometry.volume_mc(p, z, s, t, args.samples, args.seed)
    return [{
        "schema": SCHEMA,
        "type": "volume",
        "s": str(s),
        "t": str(t),
        "formula": str(exact),
        "formula_float": float(exact),
        "mc_mean": est.mean,
        "mc_stderr": est.stderr,
        "samples": est.samples,
        "within_3se": est.within(exact),
    }]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="posetlab")
    ap.add_argument("--human", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("table", help="exact F(k,l) table")
    sp.add_argument("--poset")
    sp.set_defaults(fn=cmd_table)

    sp = sub.add_parser("vanish", help="positivity test and its six bounds")
    sp.add_argument("--poset")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.set_defaults(fn=cmd_vanish)

    sp = sub.add_parser("check", help="evaluate one inequality family")
    sp.add_argument("--poset")
    sp.add_argument("--ineq", required=True, choices=ALL_CHECK_IDS)
    sp.add_argument("--k", type=int)
    sp.add_argument("--l", type=int)
    sp.add_argument("--p", type=int)
    sp.add_argument("--q", type=int)
    sp.add_argument("--t", type=int)
    sp.add_argument("--a", type=int)
    sp.add_argument("--all", action="store_true")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("family", help="build a named family instance")
    sp.add_argument("--id", required=True, choices=list(families.FAMILY_IDS))
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--l", type=int)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_family)

    sp = sub.add_parser("verify-injections", help="certify the word injections")
    sp.add_argument("--poset")
    sp.add_argument("--map", choices=injections.MAP_NAMES)
    sp.set_defaults(fn=cmd_verify_injections)

    sp = sub.add_parser("search", help="randomized violation search")
    sp.add_argument("--target", required=True, choices=list(search.SEARCH_TARGETS))
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--n-min", type=int, default=3)
    sp.add_argument("--width-max", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--budget", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_search)

    sp = sub.add_parser("volume-mc", help="Monte Carlo slice volume vs exact formula")
    sp.add_argument("--poset")
    sp.add_argument("--s", required=True)
    sp.add_argument("--t", required=True)
    sp.add_argument("--samples", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_volume_mc)
    return ap


def _line(obj: dict, human: bool) -> str:
    if human:
        return ", ".join(f"{k}={v}" for k, v in obj.items() if k != "schema") + "\n"
    return json.dumps(obj) + "\n"


def main(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    lines = []
    try:  # argparse prints usage errors and --help to sys.stderr and sys.stdout
        with redirect_stderr(stderr), redirect_stdout(stdout):
            args = parser.parse_args(argv)
    except SystemExit as exc:  # its text is flushed below, as records are
        code = 2 if exc.code not in (0, None) else 0
    else:
        try:
            objs = [r if isinstance(r, dict) else r.to_json_obj() for r in args.fn(args, stdin)]
        except (PosetLabError, OSError) as exc:
            print(f"error: {exc}", file=stderr)
            return 2
        code = 1 if any(obj.get("verdict") == FAILS or obj.get("ok") is False for obj in objs) else 0
        lines = [_line(obj, args.human) for obj in objs]
    try:
        stdout.writelines(lines)  # all built, then written
        stdout.flush()
    except BrokenPipeError:  # the reader left early: end quietly, as a Unix filter does
        if stdout is sys.stdout:  # so that the interpreter's last flush cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), stdout.fileno())
    except OSError as exc:
        print(f"error: {exc}", file=stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
