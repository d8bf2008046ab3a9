"""Command-line front end: invariants, quantum products, relation checks,
hyperelliptic count tables, and seed import/export.

Exit codes are a stable contract: 0 success, 1 usage or parse error (a
seed that contradicts the associativity equations, a ``hyper --gmin``
outside 0..d1+d2-1, a ``verify --id`` outside 1..17, and an insertion
list that is malformed or longer than MAX_INSERTIONS included, also the
l + k insertions a ``hyper`` query builds and the 3 + ytrunc insertions a
``gamma`` series reaches, and a ``--format`` the command
does not write: ``hyper`` writes text, json and csv, ``seeds-export``
text only, every other command text and json), 2 the
requested value is Unknown, 3 a relation verification failed.
Runs are deterministic: identical inputs and configuration produce
byte-identical output, and JSON output re-renders to itself.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from functools import lru_cache
from typing import List, Optional, Sequence

from . import chow, hyperelliptic, quantum
from .chow import UsageError
from .coeffring import rat_str
from .gw_engine import ConsistencyError, Engine, Unknown

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNKNOWN = 2
EXIT_VERIFY = 3


# The output formats each command writes; the others write text and json.
FORMATS = {"hyper": ("text", "json", "csv"), "seeds-export": ("text",)}


def build_engine(args) -> Engine:
    overrides = None
    path = args.seeds or os.environ.get("QHILB_SEEDS")
    if path:
        try:
            with open(path) as fh:
                overrides = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError("cannot read seed file %r: %s" % (path, exc)) from None
    return Engine(c_max=args.cmax,
                  enable_bidegree_vanishing=args.enable_bidegree_vanishing,
                  seed_overrides=overrides)


def parse_beta(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError("curve class must be a,b,c")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise UsageError("curve class components must be integers: %r" % text)


# The insertion list is built in memory, so its length is capped.
MAX_INSERTIONS = 1000


def parse_insertions(tokens: Sequence[str]) -> List[int]:
    """Tokens like T4^5 T13 (or bare 4^5 13) into a list of at most
    MAX_INSERTIONS basis indices, at least one."""
    out = _expand_insertions(tokens)
    if not out:
        raise UsageError("no insertions given")
    return out


def parse_classes(command: str, tokens: Sequence[str]) -> List[int]:
    """The positionals of ``product`` and ``gamma``: each one basis class
    (T4, 4 or T4^1), so T4^2 or T4^0 cannot stand for a different count."""
    out: List[int] = []
    for tok in tokens:
        ins = _expand_insertions([tok])
        if len(ins) != 1:
            raise UsageError("%s wants one basis class per argument, got %r" % (command, tok))
        out.extend(ins)
    return out


def _expand_insertions(tokens: Sequence[str]) -> List[int]:
    out: List[int] = []
    for tok in tokens:
        for piece in tok.split():
            name, caret, power = piece.partition("^")
            name = name.strip()
            if name.startswith("T"):
                name = name[1:]
            try:
                idx = int(name)
                mult = int(power) if caret else 1
            except ValueError:
                raise UsageError("bad insertion token %r" % piece)
            if not 0 <= idx < chow.BASIS_SIZE:
                raise UsageError("basis index out of range in %r" % piece)
            if mult < 0:
                raise UsageError("negative power in %r" % piece)
            if len(out) + mult > MAX_INSERTIONS:
                raise UsageError("more than %d insertions at %r" % (MAX_INSERTIONS, piece))
            out.extend([idx] * mult)
    return out


def render_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=2)


def value_payload(value) -> dict:
    if isinstance(value, Unknown):
        return {"state": "unknown", "reason": value.reason}
    return {"state": "known", "value": rat_str(value)}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_invariant(args) -> int:
    beta = parse_beta(args.beta)
    if beta[2] > args.cmax:
        raise UsageError(
            "truncation error: the class needs q3^%d but cmax is %d"
            % (beta[2], args.cmax))
    insertions = parse_insertions(args.ins)
    engine = build_engine(args)
    engine.tracing = args.trace
    value = engine.invariant(beta, insertions)
    provenance = engine.provenance_of(beta, insertions)
    steps = engine.stats["wdvv_instances"]
    if args.format == "json":
        payload = {
            "beta": list(beta),
            "insertions": [chow.BASIS_NAMES[i] for i in insertions],
            "result": value_payload(value),
            "provenance": provenance,
            "wdvv_instances": steps,
        }
        print(render_json(payload))
    else:
        if isinstance(value, Unknown):
            print("UNKNOWN")
            print("reason: %s" % value.reason)
        else:
            print(rat_str(value))
        print("provenance: %s" % provenance)
        print("wdvv instances used: %d" % steps)
    if args.trace:
        for rec in engine.trace_log:
            print("trace: %s" % rec.describe())
    return EXIT_UNKNOWN if isinstance(value, Unknown) else EXIT_OK


def cmd_product(args) -> int:
    i, j = parse_classes("product", [args.left, args.right])
    engine = build_engine(args)
    try:
        result = quantum.small_product(engine, i, j)
    except quantum.MissingInvariant as exc:
        print("missing invariant: %s" % exc, file=sys.stderr)
        return EXIT_UNKNOWN
    if args.format == "json":
        coords = {
            chow.BASIS_NAMES[k]: str(s)
            for k, s in enumerate(result.coords) if not s.is_zero()
        }
        print(render_json({
            "product": "%s*%s" % (chow.BASIS_NAMES[i], chow.BASIS_NAMES[j]),
            "c_max": args.cmax,
            "coordinates": coords,
        }))
    else:
        print("%s*%s = %s" % (chow.BASIS_NAMES[i], chow.BASIS_NAMES[j], result))
    return EXIT_OK


def cmd_verify(args) -> int:
    ids = None
    if not args.all:
        if not args.id:
            raise UsageError("verify wants --all or --id N [N ...]")
        ids = args.id
    engine = build_engine(args)
    residuals = quantum.verify_all(engine, ids)
    failures = {}
    lines = []
    for rel_id in sorted(residuals):
        res = residuals[rel_id]
        if res.is_zero():
            lines.append("relation %2d: pass" % rel_id)
        else:
            offending = {
                chow.BASIS_NAMES[k]: str(s)
                for k, s in enumerate(res.coords) if not s.is_zero()
            }
            failures[rel_id] = offending
            lines.append("relation %2d: FAIL residual %s" % (rel_id, offending))
    if args.format == "json":
        print(render_json({
            "c_max": args.cmax,
            "checked": sorted(residuals),
            "passed": sorted(i for i in residuals if i not in failures),
            "failures": failures,
        }))
    else:
        for line in lines:
            print(line)
        print("%d/%d relations pass at c_max=%d"
              % (len(residuals) - len(failures), len(residuals), args.cmax))
    return EXIT_VERIFY if failures else EXIT_OK


def cmd_hyper(args) -> int:
    query = hyperelliptic.HyperellipticQuery(args.d1, args.d2, args.l)
    needed_c = hyperelliptic.beta_of(query.d1, query.d2, args.gmin)[2]
    if needed_c > args.cmax:
        raise UsageError(
            "truncation error: genus %d needs q3^%d but cmax is %d"
            % (args.gmin, needed_c, args.cmax))
    if query.l + query.k > MAX_INSERTIONS:
        raise UsageError("more than %d insertions: l + k = %d"
                         % (MAX_INSERTIONS, query.l + query.k))
    engine = build_engine(args)
    table = hyperelliptic.count_table(query, engine, g_min=args.gmin)
    rows = table.rows(query.l)
    if args.format == "json":
        payload = {
            "d1": query.d1, "d2": query.d2, "l": query.l,
            "counts": [
                {"h": h, "count": (None if v is None else rat_str(v)),
                 "note": note}
                for (_, _, _, h, v, note) in rows
            ],
        }
        print(render_json(payload))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["d1", "d2", "l", "h", "count", "provenance"])
        for (d1, d2, l, h, v, note) in rows:
            writer.writerow([d1, d2, l, h, "UNKNOWN" if v is None else rat_str(v), note])
        sys.stdout.write(buf.getvalue())
    else:
        print("hyperelliptic counts for bidegree (%d,%d), l=%d:" % (query.d1, query.d2, query.l))
        for (_, _, _, h, v, note) in rows:
            shown = "UNKNOWN (%s)" % note if v is None else rat_str(v)
            print("  h=%d: %s" % (h, shown))
    unknown = any(v is None for (_, _, _, _, v, _) in rows)
    return EXIT_UNKNOWN if unknown else EXIT_OK


def cmd_gamma(args) -> int:
    ins = parse_classes("gamma", [args.i, args.j, args.k])
    engine = build_engine(args)
    series = quantum.gamma(engine, *ins, y_truncation=args.ytrunc)
    entries = []
    for (beta, ydeg), value in sorted(series.terms.items()):
        ys = " ".join(
            "y%d^%d" % (t + 4, e) if e > 1 else "y%d" % (t + 4)
            for t, e in enumerate(ydeg) if e
        )
        entries.append({
            "beta": list(beta),
            "y": ys or "1",
            "coefficient": None if isinstance(value, Unknown) else rat_str(value),
            "note": value.reason if isinstance(value, Unknown) else "",
        })
    if args.format == "json":
        print(render_json({"indices": ins, "terms": entries}))
    else:
        for entry in entries:
            coeff = "UNKNOWN" if entry["coefficient"] is None else entry["coefficient"]
            print("beta=%r y=%s -> %s %s"
                  % (tuple(entry["beta"]), entry["y"], coeff, entry["note"]))
        if not entries:
            print("0")
    flagged = any(e["coefficient"] is None for e in entries)
    return EXIT_UNKNOWN if flagged else EXIT_OK


def cmd_seeds_export(args) -> int:
    engine = build_engine(args)
    for line in engine.seeds.materialized_lines(args.cmax):
        print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports usage errors as UsageError (exit 1) instead of argparse's
    exit 2, which is the code for an Unknown result.  Subparsers inherit
    this class."""

    def error(self, message):
        raise UsageError("%s: %s" % (self.prog, message))


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qhilb",
        description="Exact quantum cohomology of the Hilbert square of a "
                    "quadric surface, with hyperelliptic curve counts.")
    parser.add_argument("--cmax", type=int, default=6,
                        help="q3 truncation order (default 6)")
    parser.add_argument("--ytrunc", type=int, default=2,
                        help="total y-degree bound for gamma series, 0..%d "
                             "(default 2)" % (MAX_INSERTIONS - 3))
    parser.add_argument("--seeds", metavar="PATH", default=None,
                        help="seed-override file (fallback: QHILB_SEEDS)")
    parser.add_argument("--enable-bidegree-vanishing", action="store_true",
                        help="zero the pure T4-power invariants below the "
                             "first admissible bidegree")
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--trace", action="store_true",
                        help="dump every associativity instance built")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariant", help="compute one Gromov-Witten invariant")
    p.add_argument("--beta", required=True, help="curve class a,b,c")
    p.add_argument("--ins", required=True, nargs="+",
                   help="insertions, e.g. T4^5 T13")

    p = sub.add_parser("product", help="quantum product of two basis classes")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("verify", help="check the ring presentation")
    p.add_argument("--all", action="store_true")
    p.add_argument("--id", type=int, nargs="+")

    p = sub.add_parser("hyper", help="hyperelliptic count table")
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--gmin", type=int, default=0)

    p = sub.add_parser("gamma", help="big-quantum coefficient series")
    p.add_argument("i")
    p.add_argument("j")
    p.add_argument("k")

    sub.add_parser("seeds-export",
                   help="dump the explicit seed entries and every seed the "
                        "rules give at the keys of one to three insertions "
                        "the engine looks up, up to cmax")

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # built on the first main call, not at import (which every process
    # start pays), and reused: parsing leaves no state in it
    return make_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.cmax < 0:
            raise UsageError("cmax must be >= 0")
        if args.ytrunc < 0:
            raise UsageError("ytrunc must be >= 0")
        if args.ytrunc > MAX_INSERTIONS - 3:
            raise UsageError("ytrunc must be <= %d: gamma takes 3 + ytrunc insertions, "
                             "at most %d" % (MAX_INSERTIONS - 3, MAX_INSERTIONS))
        formats = FORMATS.get(args.command, ("text", "json"))
        if args.format not in formats:
            raise UsageError("%s writes --format %s, not %s"
                             % (args.command, " or ".join(formats), args.format))
        # looked up at call time, so a replaced cmd_* function is the one run
        command = globals()["cmd_" + args.command.replace("-", "_")]
        return command(args)
    except (UsageError, ConsistencyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
