"""Command-line front end.

Reads algebra definition files, runs one computation per invocation and
prints a deterministic key/value report (or JSON with --json).  Exit
codes: 0 success, 1 parse or validation error or out of memory, 2
internal invariant failure.
"""

import argparse
import functools
import json
import sys
import time

from .algebra import Morphism, circ, bullet
from .definitions import (definition_from_algebra, parse_definition,
                          serialize_definition)
from .errors import ContractViolation, DefinitionError, DimensionMismatch
from .fields import field_name
from .koszul import (ContractedComplex, generalized_homology, koszul_K,
                     koszul_L, koszulity_check, tor_purity, verdict_string)
from .reduction import lemma3_check, reduction_operator
from .words import word_speller


class _Parser(argparse.ArgumentParser):
    # validation failures must exit 1, not argparse's default 2
    def error(self, message):
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


@functools.lru_cache(maxsize=None)
def _build_parser():
    # built once per process: parsing leaves the parser unchanged
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--nmax", type=int, default=None,
                        help="total-degree bound (default 2N+2)")
    common.add_argument("--imax", type=int, default=4,
                        help="homological-index bound (default 4)")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--field", default=None,
                        help="override the file's field: rational or gf:P")
    common.add_argument("--json", action="store_true", dest="as_json")
    common.add_argument("--timing", action="store_true")

    parser = _Parser(prog="nkoszul",
                     description="Exact computations on homogeneous algebras")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def cmd(name, nfiles=1, **extra):
        p = sub.add_parser(name, parents=[common], **extra)
        p.add_argument("files", nargs=nfiles, metavar="FILE")
        return p

    cmd("hilbert", help="graded dimensions up to --nmax")
    cmd("dual", help="definition of the dual algebra")
    cmd("circ", nfiles=2, help="white product of two algebras")
    cmd("bullet", nfiles=2, help="black product of two algebras")
    p = cmd("koszul-complex", help="position dimensions of the Koszul slices")
    p.add_argument("--family", choices=("K", "L"), default="K")
    p = cmd("homology", help="generalized homology of the chain slices")
    p.add_argument("--p", type=int, default=None,
                   help="which power to take kernels of (default: all)")
    p = cmd("contracted", help="homology of the contracted complex")
    p.add_argument("--p", type=int, default=None, help="default N-1")
    p.add_argument("--r", type=int, default=0)
    cmd("koszulity", help="exactness verdict for the contracted complex")
    cmd("tor", help="Tor dimensions from the bar complex, with purity")
    p = cmd("lemma3", help="does R commute with tensor powers of E")
    p.add_argument("--r", type=int, default=1)
    cmd("reduce", help="lexicographic reduction operator of the relations")
    return parser


def _load(path, field_override):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DefinitionError(str(exc), source=path) from None
    return parse_definition(text, source=path, field_override=field_override)


class _Report:
    """Ordered key/value pairs with one text and one JSON rendering."""

    def __init__(self):
        self.items = []

    def add(self, key, value):
        self.items.append((key, value))

    def text(self):
        lines = []
        for key, value in self.items:
            if isinstance(value, str) and "\n" in value:
                lines.append("%s:" % key)
                for part in value.rstrip("\n").split("\n"):
                    lines.append("  " + part)
            elif isinstance(value, (list, tuple)):
                lines.append("%s: %s" % (key, " ".join(str(v) for v in value)))
            elif isinstance(value, bool):
                lines.append("%s: %s" % (key, "true" if value else "false"))
            else:
                lines.append("%s: %s" % (key, value))
        return "\n".join(lines) + "\n"

    def json(self):
        return json.dumps(dict(self.items), sort_keys=True) + "\n"


def _header(report, args, defns, paths):
    report.add("command", args.command)
    for i, path in enumerate(paths):
        report.add("input" if len(paths) == 1 else "input%d" % (i + 1), path)
    main = defns[0]
    report.add("field", field_name(main.field))
    report.add("generators", list(main.generators))
    report.add("degree", main.degree)
    report.add("seed", args.seed)


def _bounds(args, N):
    nmax = args.nmax if args.nmax is not None else 2 * N + 2
    if nmax <= 0 or args.imax <= 0:
        raise DimensionMismatch("--nmax and --imax must be positive")
    return nmax, args.imax


def _run(args):
    report = _Report()
    defns = [_load(path, args.field) for path in args.files]
    algebras = [d.to_algebra() for d in defns]
    A = algebras[0]
    nmax, imax = _bounds(args, A.N)
    _header(report, args, defns, args.files)
    cmdname = args.command

    if cmdname == "hilbert":
        report.add("nmax", nmax)
        report.add("dims", A.hilbert_dims(nmax))
    elif cmdname == "dual":
        out = definition_from_algebra(A.dual())
        report.add("dual", serialize_definition(out))
    elif cmdname in ("circ", "bullet"):
        op = circ if cmdname == "circ" else bullet
        prod = op(algebras[0], algebras[1])
        out = definition_from_algebra(prod)
        report.add("product", serialize_definition(out))
    elif cmdname == "koszul-complex":
        ident = Morphism.identity(A)
        report.add("family", args.family)
        report.add("nmax", nmax)
        if args.family == "K":
            # a generator: the K slices are built one at a time
            slices = (("slice n=%d" % n, koszul_K(ident, n))
                      for n in range(nmax + 1))
        else:
            slices = (("chain delta=%d" % sl.delta, sl)
                      for sl in koszul_L(ident, nmax))
        for label, sl in slices:
            sl.verify_dN()
            report.add(label, [p.dim for p in sl.positions])
    elif cmdname == "homology":
        ps = [args.p] if args.p is not None else list(range(1, A.N))
        ident = Morphism.identity(A)
        report.add("nmax", nmax)
        for n in range(nmax + 1):
            sl = koszul_K(ident, n)
            for p in ps:
                h = generalized_homology(sl, p)
                dims = [h[(p, sl.positions[k].w_degree)]
                        for k in range(n + 1)]
                report.add("homology n=%d p=%d" % (n, p), dims)
    elif cmdname == "contracted":
        p = args.p if args.p is not None else A.N - 1
        cc = ContractedComplex(A, p, args.r)
        report.add("p", p)
        report.add("r", args.r)
        report.add("nmax", nmax)
        report.add("imax", imax)
        for i in range(imax + 1):
            report.add("h i=%d" % i,
                       [cc.homology_dim(i, t) for t in range(nmax + 1)])
        report.add("h0_expected", cc.expected_h0_dims(nmax))
    elif cmdname == "koszulity":
        report.add("nmax", nmax)
        report.add("verdict", verdict_string(koszulity_check(A, nmax)))
    elif cmdname == "tor":
        report.add("nmax", nmax)
        report.add("imax", imax)
        pure, table = tor_purity(A, imax, nmax)
        for i in range(imax + 1):
            report.add("tor i=%d" % i,
                       [table[(i, t)] for t in range(nmax + 1)])
        report.add("pure", pure)
    elif cmdname == "lemma3":
        res = lemma3_check(A.relations, args.r, A.dim_e)
        report.add("r", args.r)
        report.add("equal", res.equal)
        report.add("conclusion", res.conclusion)
    elif cmdname == "reduce":
        op = reduction_operator(A.relations)
        name = word_speller(defns[0].generators, A.N)
        report.add("relations", A.relations.dim)
        report.add("leading_words", [name(w) for w in op.leading_words])
        report.add("image_dim",
                   A.relations.ambient_dim - len(op.leading_words))
        for w in op.leading_words:
            terms = ["%s*%s" % (c, name(i))
                     for i, c in sorted(op.rewrites[w].items())]
            report.add("rewrite %s" % name(w),
                       " + ".join(terms) if terms else "0")
    return report


def main(argv=None):
    args = _build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        report = _run(args)
    except ValueError as exc:   # DefinitionError, DimensionMismatch too
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except MemoryError:
        sys.stderr.write("error: out of memory; the input is too large for "
                         "%s\n" % args.command)
        return 1
    except ContractViolation as exc:
        sys.stderr.write(
            "internal bug: %s (an invariant failed; please report)\n" % exc)
        return 2
    if args.timing:
        report.add("timing_ms", int((time.monotonic() - start) * 1000))
    sys.stdout.write(report.json() if args.as_json else report.text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
