"""The four benchmark workloads: their inputs, jobs and output checks.

A job is one ``nkoszul`` command line.  ``prepare`` writes a workload's
inputs for a seed and returns its jobs in the order one round runs them;
``check`` verifies one round's outputs and returns a list of errors.  Both
reach the program only through ``run(argv) -> (exit code, stdout)`` and, in
``check``, through the library package ``lib`` to rebuild objects whose
properties are tested.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import checks
import inputs

BIG_PRIME = 2147483647   # upper bound for QQ dims; divides no input denominator
P = 32003                # the modular field of the GF(p) workloads
DEMO_DIR = "demos/definitions"
REFERENCE = Path(__file__).resolve().parent / "reference" / "cli-demos.json"


def report_block(text, key):
    """The indented block under ``key:`` of a text report, as file text."""
    return checks.parse_report(text)[key] + "\n"


def write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return str(path)


def hilbert(run, path, nmax, field=None):
    argv = ["hilbert", "--nmax", str(nmax), path]
    if field:
        argv += ["--field", field]
    rc, out = run(argv)
    if rc != 0:
        return None
    return checks.int_list(checks.parse_report(out)["dims"])


def double_dual_errors(run, dual_path, rows, label):
    """`dual` of the written dual must span the input's relations again."""
    rc, out = run(["dual", dual_path])
    if rc != 0:
        return ["%s: dual of the dual failed" % label]
    back = checks.parse_definition_text(report_block(out, "dual"))[2]
    if checks.rref_qq(back) != checks.rref_qq(rows):
        return ["%s: dual(dual(A)) != A" % label]
    return []


class Job:
    __slots__ = ("key", "argv")

    def __init__(self, key, argv):
        self.key = key
        self.argv = argv


class TowerQQ:
    """`hilbert` over QQ on random algebras and on their duals."""

    name = "tower-qq"
    # (g, N, dim R, shape, density, nmax, run on the dual too): mid-range
    # relation ranks, each primal job 0.1-0.4 s over QQ.  Many inputs of
    # similar cost, so that neither the round time nor the median job hangs
    # on the coefficients one seed draws for one input.  Each shape gave one
    # Hilbert series for all of seeds 1-60.
    SLOTS = [(3, 3, 9, 0, 0.5, 5, True), (3, 3, 9, 1, 0.5, 5, True),
             (3, 3, 9, 3, 0.5, 5, True), (3, 3, 9, 10, 0.5, 5, True),
             (3, 3, 9, 33, 0.5, 5, False), (3, 3, 9, 39, 0.5, 5, False),
             (3, 3, 9, 19, 0.5, 5, False), (3, 3, 9, 54, 0.5, 5, False),
             (3, 3, 9, 28, 0.5, 5, False), (3, 3, 9, 34, 0.5, 5, False),
             (3, 3, 9, 48, 0.5, 5, False), (3, 3, 9, 30, 0.5, 5, False)]

    def prepare(self, seed, work, run):
        jobs, ctx = [], []
        for slot, (g, N, dim_r, shape, dens, nmax, on_dual) in \
                enumerate(self.SLOTS):
            alg = inputs.random_algebra("tower%d" % slot, shape, g, N, dim_r,
                                        dens, seed, slot)
            path = write(work / ("tower%d.alg" % slot), alg.text)
            rc, out = run(["dual", path])
            if rc != 0:
                raise RuntimeError("dual of %s failed" % path)
            dual_path = write(work / ("tower%d_dual.alg" % slot),
                              report_block(out, "dual"))
            for p in (path, dual_path) if on_dual else (path,):
                jobs.append(Job("hilbert " + p,
                                ["hilbert", "--nmax", str(nmax), p]))
            ctx.append((alg, path, dual_path, nmax))
        return jobs, ctx

    def check(self, ctx, outputs, run, lib):
        errors = []
        for alg, path, dual_path, nmax in ctx:
            own_rows = [{j: Fraction(c) for j, c in row.items()}
                        for row in alg.rows]
            dual_text = Path(dual_path).read_text()
            for p, rows, text in ((path, own_rows, alg.text),
                                  (dual_path,
                                   checks.parse_definition_text(dual_text)[2],
                                   dual_text)):
                out = outputs.get("hilbert " + p)
                if out is None:   # a dual the timed rounds leave out
                    out = run(["hilbert", "--nmax", str(nmax), p])[1]
                dims = checks.int_list(checks.parse_report(out)["dims"])
                if len(dims) != nmax + 1 or dims[0] != 1:
                    errors.append("%s: malformed dims %s" % (p, dims))
                    continue
                errors += [p + ": " + e for e in checks.tower_upper_bound_errors(
                    dims, hilbert(run, p, nmax, "gf:%d" % BIG_PRIME))]
                algebra = lib.parse_definition(text).to_algebra()
                errors += [p + ": " + e for e in
                           checks.tower_lower_bound_errors(algebra, rows, dims)]
            errors += double_dual_errors(run, dual_path, own_rows, path)
        return errors


class NComplexGFp:
    """Koszul N-complexes, their homology and Koszulity over GF(32003)."""

    name = "ncomplex-gfp"
    # (g, N, dim R, shape, density); default bounds nmax = 2N + 2
    SLOTS = [(2, 2, 1, 0, 0.5), (3, 2, 3, 0, 0.5), (3, 2, 4, 1, 0.5),
             (2, 3, 3, 0, 0.5), (2, 3, 4, 4, 0.5), (3, 3, 9, 0, 0.5),
             (2, 4, 6, 0, 0.5), (2, 4, 8, 1, 0.5), (3, 3, 12, 0, 0.5)]
    COMMANDS = [["koszul-complex", "--family", "K"],
                ["koszul-complex", "--family", "L"],
                ["homology"], ["contracted"], ["koszulity"]]
    SAMPLES = 4

    def prepare(self, seed, work, run):
        jobs, ctx = [], []
        for slot, (g, N, dim_r, shape, dens) in enumerate(self.SLOTS):
            alg = inputs.random_algebra("ncomplex%d" % slot, shape, g, N,
                                        dim_r, dens, seed, slot)
            path = write(work / ("ncomplex%d.alg" % slot), alg.text)
            for cmd in self.COMMANDS:
                jobs.append(Job(" ".join(cmd) + " " + path,
                                cmd + ["--field", "gf:%d" % P, path]))
            ctx.append((alg, path, random.Random(seed * 7919 + slot)))
        return jobs, ctx

    def check(self, ctx, outputs, run, lib):
        errors = []
        for alg, path, rng in ctx:
            errors += [path + ": " + e
                       for e in self._check_one(alg, path, rng, outputs, lib)]
        return errors

    def _check_one(self, alg, path, rng, outputs, lib):
        N = alg.N
        nmax = 2 * N + 2
        defn = lib.parse_definition(alg.text)
        A = lib.AlgebraDefinition("gf:%d" % P, defn.generators, defn.degree,
                                  defn.relations).to_algebra()
        ident = lib.Morphism.identity(A)
        errors = []
        slices = {}
        for n in range(nmax + 1):
            sl = lib.koszul_K(ident, n)
            mats = checks.dense_maps(sl, P)
            slices[n] = (mats, [sl.position_dim(k) for k in range(n + 1)])
            errors += checks.dN_errors("K slice %d" % n, mats, n + 1, N, P)
        for sl in lib.koszul_L(ident, nmax):
            errors += checks.dN_errors("L chain %d" % sl.delta,
                                       checks.dense_maps(sl, P),
                                       len(sl.positions), N, P)

        hom = checks.parse_report(outputs["homology " + path])
        entries = []
        for n in range(nmax + 1):
            for q in range(1, N):
                dims = checks.int_list(hom["homology n=%d p=%d" % (n, q)])
                if n == 0 and dims != [1]:
                    errors.append("slice 0 homology p=%d is %s" % (q, dims))
                if n in (N - 1, N) and any(dims):
                    errors.append("K(id) slice %d not acyclic (p=%d)" % (n, q))
                entries += [(n, q, k, d) for k, d in enumerate(dims)
                            if slices[n][1][k]]
        for n, q, k, d in rng.sample(entries, self.SAMPLES):
            mats, dims = slices[n]
            if checks.homology_at(mats, dims, k, q, N, P) != d:
                errors.append("homology n=%d p=%d position %d is not %d"
                              % (n, q, k, d))

        con = checks.parse_report(outputs["contracted " + path])
        h = {i: checks.int_list(con["h i=%d" % i]) for i in range(5)}
        if h[0] != [1] + [0] * nmax:
            errors.append("contracted H_0 is %s, expected K in degree 0" % h[0])
        for i, t in [(rng.randint(1, 4), rng.randint(0, nmax))
                     for _ in range(2)]:
            if checks.contracted_at(slices, N, N - 1, 0, i, t, P) != h[i][t]:
                errors.append("contracted h i=%d t=%d is not %d"
                              % (i, t, h[i][t]))
        verdict = checks.parse_report(outputs["koszulity " + path])["verdict"]
        witness = None
        if verdict.startswith("NotKoszul"):
            fields = dict(part.split("=") for part in
                          verdict[len("NotKoszul("):-1].split(", "))
            i, t, d = int(fields["i"]), int(fields["degree"]), int(fields["dim"])
            witness = (t, i)
            if d == 0 or checks.contracted_at(slices, N, N - 1, 0, i, t, P) != d:
                errors.append("%s is not confirmed" % verdict)
        elif verdict != "KoszulUpTo(%d)" % nmax:
            errors.append("unexpected verdict %s" % verdict)
        for i in range(1, 5):
            for t in range(nmax + 1):
                if h[i][t] and (witness is None or (t, i) < witness):
                    errors.append("%s, but contracted h i=%d t=%d is %d"
                                  % (verdict, i, t, h[i][t]))
        return errors


class TorBar:
    """`tor` from the bar complex on demo and random algebras, QQ and GF(p)."""

    name = "tor-bar"
    # Windows are the largest that finish in seconds.  Fourteen jobs: five
    # under 0.06 s, four of 0.07-0.11 s and five over 0.2 s, so the median
    # job falls in the middle of the second group.
    DEMOS = [("cubic", ["--nmax", "7", "--field", "gf:%d" % P]),
             ("cubic", ["--nmax", "6"]),
             ("cubic", ["--nmax", "6", "--field", "gf:%d" % P]),
             ("poly2", ["--nmax", "6"]),
             ("cubic_pair", ["--field", "gf:%d" % P]),
             ("cubic_pair", ["--nmax", "7"]),
             ("kt3", ["--nmax", "9"])]
    # ((g, N, dim R, shape, density), [(field, nmax), ...])
    SLOTS = [((2, 3, 3, 0, 0.5), [("rational", 6), ("gf:%d" % P, 7)]),
             ((2, 3, 5, 2, 0.5), [("rational", 6), ("gf:%d" % P, 6)]),
             ((2, 3, 4, 5, 0.5), [("rational", 6), ("gf:%d" % P, 6),
                                  ("gf:%d" % P, 7)])]

    def prepare(self, seed, work, run):
        jobs, ctx = [], []
        for name, extra in self.DEMOS:
            path = "%s/%s.alg" % (DEMO_DIR, name)
            argv = ["tor", path] + extra
            jobs.append(Job(" ".join(argv), argv))
            ctx.append((jobs[-1], path, Path(path).read_text(), extra))
        for slot, ((g, N, dim_r, shape, dens), windows) in \
                enumerate(self.SLOTS):
            alg = inputs.random_algebra("tor%d" % slot, shape, g, N, dim_r,
                                        dens, seed, slot)
            path = write(work / ("tor%d.alg" % slot), alg.text)
            for field, nmax in windows:
                extra = ["--nmax", str(nmax), "--field", field]
                argv = ["tor", path] + extra
                jobs.append(Job(" ".join(argv), argv))
                ctx.append((jobs[-1], path, alg.text, extra))
        return jobs, (ctx, work)

    def check(self, ctx, outputs, run, lib):
        errors = []
        ctx, work = ctx
        for job, path, text, extra in ctx:
            field = extra[extra.index("--field") + 1] if "--field" in extra \
                else None
            errors += [job.key + ": " + e for e in
                       tor_report_errors(outputs[job.key], text, field, run,
                                         path, work)]
        return errors


def relation_rank(rows, ncols, field):
    """dim R over the field named on the command line (QQ when None)."""
    if field in (None, "rational"):
        return len(checks.rref_qq(rows))
    p = int(field[3:])
    return checks.rank_mod_p(checks.rows_to_dense(rows, ncols, p), p)


def tor_report_errors(out, text, field, run=None, path=None, work=None):
    """Checks of one `tor` report; given `run`, also those needing more calls."""
    rep = checks.parse_report(out)
    nmax, imax = int(rep["nmax"]), int(rep["imax"])
    table = [checks.int_list(rep["tor i=%d" % i]) for i in range(imax + 1)]
    g, N, rows = checks.parse_definition_text(text)
    errors = checks.tor_errors(table, g, N, relation_rank(rows, g ** N, field),
                               nmax, imax)
    if run is None:
        return errors
    fargs = ["--field", field] if field else []
    dims = hilbert(run, path, nmax, field)
    errors += checks.tor_euler_errors(table, dims, imax)
    rc, out = run(["koszulity", "--nmax", str(nmax), path] + fargs)
    verdict = checks.parse_report(out)["verdict"]
    errors += checks.purity_errors(rep["pure"], verdict, nmax, imax)
    if verdict.startswith("KoszulUpTo"):
        rc, out = run(["dual", path] + fargs)
        dual_path = write(work / (Path(path).stem + "_dual.alg"),
                          report_block(out, "dual"))
        errors += checks.tor_koszul_errors(table, hilbert(run, dual_path, nmax,
                                                          field), N, nmax)
    return errors


class CliDemos:
    """Every command on every demo definition, plus circ/bullet on pairs."""

    name = "cli-demos"
    DEMOS = ["cubic", "cubic_pair", "kt3", "poly2", "wedge3"]
    COMMANDS = [["hilbert"], ["dual"], ["koszul-complex", "--family", "K"],
                ["koszul-complex", "--family", "L"], ["homology"],
                ["contracted"], ["koszulity"], ["tor", "--nmax", "6"],
                ["lemma3"], ["reduce"]]
    PAIRS = [("cubic", "wedge3"), ("cubic_pair", "kt3"), ("poly2", "poly2")]
    EXTRA = [("circ", "kt3", "wedge3")]   # an odd job count: 57
    CLOSED_FORMS = {"poly2": lambda n: list(range(1, n + 2)),
                    "kt3": lambda n: [1] * (n + 1),
                    "wedge3": lambda n: [1, 1, 1] + [0] * (n - 2)}

    @staticmethod
    def path(name):
        return "%s/%s.alg" % (DEMO_DIR, name)

    def prepare(self, seed, work, run):
        jobs = []
        for name in self.DEMOS:
            for cmd in self.COMMANDS:
                jobs.append(Job(" ".join(cmd + [name]), cmd + [self.path(name)]))
        ops = [(op, a, b) for a, b in self.PAIRS for op in ("circ", "bullet")]
        for op, a, b in ops + self.EXTRA:
            jobs.append(Job("%s %s %s" % (op, a, b),
                            [op, self.path(a), self.path(b)]))
        random.Random(seed).shuffle(jobs)
        return jobs, (jobs, work)

    def closed_form(self, key):
        cmd, name = key.split()[0], key.split()[-1]
        return cmd == "hilbert" and name in self.CLOSED_FORMS

    def check(self, ctx, outputs, run, lib):
        jobs, work = ctx
        errors = []
        dims = {}
        for name in self.DEMOS:
            text = Path(self.path(name)).read_text()
            g, N, rows = checks.parse_definition_text(text)
            rep = checks.parse_report(outputs["hilbert " + name])
            dims[name] = checks.int_list(rep["dims"])
            if name in self.CLOSED_FORMS:
                errors += checks.closed_form_errors(
                    name, dims[name],
                    self.CLOSED_FORMS[name](int(rep["nmax"])))
            dual_path = write(work / (name + "_dual.alg"),
                              report_block(outputs["dual " + name], "dual"))
            errors += double_dual_errors(run, dual_path, rows, name)
            if name == "poly2":
                errors += checks.closed_form_errors(
                    "dual of poly2", hilbert(run, dual_path, 6),
                    [1, 2, 1, 0, 0, 0, 0])
            errors += [name + ": " + e for e in tor_report_errors(
                outputs["tor --nmax 6 " + name], text, None)]
            hom = checks.parse_report(outputs["homology " + name])
            for q in range(1, N):
                if checks.int_list(hom["homology n=0 p=%d" % q]) != [1]:
                    errors.append("%s: slice 0 homology is not K" % name)
                for n in (N - 1, N):
                    if any(checks.int_list(hom["homology n=%d p=%d" % (n, q)])):
                        errors.append("%s: K(id) slice %d not acyclic"
                                      % (name, n))
        for a, b in self.PAIRS + [x[1:] for x in self.EXTRA]:
            key = "circ %s %s" % (a, b)
            prod = write(work / ("circ_%s_%s.alg" % (a, b)),
                         report_block(outputs[key], "product"))
            got = hilbert(run, prod, len(dims[a]) - 1)
            want = [x * y for x, y in zip(dims[a], dims[b])]
            if got != want:
                errors.append("%s: dims %s, expected %s" % (key, got, want))
        for job in jobs:
            rc, out = run(job.argv + ["--json"])
            errors += [job.key + ": " + e for e in
                       checks.text_json_errors(outputs[job.key], json.loads(out))]
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() \
            else {}
        for job in jobs:
            if not self.closed_form(job.key) and \
                    reference.get(job.key) != outputs[job.key]:
                errors.append("%s: report differs from %s"
                              % (job.key, REFERENCE.name))
        return errors

    def reference(self, outputs):
        """The reference file's content: every report with no closed form."""
        return {k: v for k, v in sorted(outputs.items())
                if not self.closed_form(k)}


WORKLOADS = {w.name: w for w in (TowerQQ(), NComplexGFp(), TorBar(), CliDemos())}
