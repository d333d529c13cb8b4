"""Self-test of the benchmark: its checks reject wrong answers, its inputs repeat.

Run from the root of a checkout:

    python3 bench/selftest.py

Each output check is fed a correct answer from the program, which it must
accept, and a deliberately corrupted copy, which it must reject: a wrong
Hilbert dimension, a wrong Tor table and a nonzero d^N.  Input generation
must give byte-identical files for the same seed and different ones for
another seed.  Exits 1 on the first failure.
"""

import os
import shutil
import sys
from pathlib import Path

import checks
import run
import workloads

WORK = Path(".bench_work") / "selftest"


def expect(label, accepted, rejected):
    if accepted or not rejected:
        raise SystemExit("FAIL %s: accepted %r, rejected %r"
                         % (label, accepted, rejected))
    print("PASS %s" % label)


def wrong_hilbert_dimension(lib, program):
    wl = workloads.TowerQQ()
    jobs, ctx = wl.prepare(1, WORK / "hilbert", program.run)
    alg, path, _, nmax = ctx[-1]
    dims = workloads.hilbert(program.run, path, nmax)
    upper = workloads.hilbert(program.run, path, nmax,
                              "gf:%d" % workloads.BIG_PRIME)
    rows = checks.parse_definition_text(alg.text)[2]
    algebra = lib.parse_definition(alg.text).to_algebra()
    good = (checks.tower_upper_bound_errors(dims, upper)
            + checks.tower_lower_bound_errors(algebra, rows, dims))
    for n in (len(dims) - 1, alg.N):
        bad = list(dims)
        bad[n] += 1
        expect("wrong Hilbert dimension in degree %d" % n, good,
               checks.tower_upper_bound_errors(bad, upper)
               + checks.tower_lower_bound_errors(algebra, rows, bad))
    expect("closed form of poly2", checks.closed_form_errors(
        "poly2", [1, 2, 3], [1, 2, 3]), checks.closed_form_errors(
        "poly2", [1, 2, 4], [1, 2, 3]))


def wrong_tor_table(program):
    path = "demos/definitions/poly2.alg"
    rc, out = program.run(["tor", "--nmax", "5", path])
    text = Path(path).read_text()
    good = workloads.tor_report_errors(out, text, None, program.run, path,
                                       WORK / "tor")
    for line, wrong in (("tor i=2: 0 0 1 0 0 0", "tor i=2: 0 0 1 1 0 0"),
                        ("tor i=1: 0 2 0 0 0 0", "tor i=1: 0 3 0 0 0 0"),
                        ("tor i=3: 0 0 0 0 0 0", "tor i=3: 0 0 0 1 0 0")):
        if line not in out:
            raise SystemExit("FAIL: poly2 Tor report lacks %r" % line)
        bad = out.replace(line, wrong)
        expect("wrong Tor table (%s)" % wrong, good,
               workloads.tor_report_errors(bad, text, None, program.run, path,
                                           WORK / "tor"))


def nonzero_dN(lib):
    alg = workloads.inputs.random_algebra("selftest", 0, 2, 3, 3, 0.5, 1, 0)
    defn = lib.parse_definition(alg.text)
    A = lib.AlgebraDefinition("gf:%d" % workloads.P, defn.generators,
                              defn.degree, defn.relations).to_algebra()
    sl = lib.koszul_K(lib.Morphism.identity(A), 6)
    mats = checks.dense_maps(sl, workloads.P)
    npos = len(sl.positions)
    good = checks.dN_errors("K slice 6", mats, npos, A.N, workloads.P)
    bad = dict(mats)
    k = max(bad)
    bad[k] = (bad[k] + 1) % workloads.P
    expect("nonzero d^N", good,
           checks.dN_errors("K slice 6", bad, npos, A.N, workloads.P))


def same_seed_same_inputs(program):
    def files(where):
        return {p.relative_to(where): p.read_bytes()
                for p in sorted(where.rglob("*.alg"))}

    for wl in workloads.WORKLOADS.values():
        runs = {}
        for label, seed in (("a", 7), ("b", 7), ("c", 8)):
            where = WORK / "inputs" / label / wl.name
            jobs, _ = wl.prepare(seed, where, program.run)
            argvs = [[a.replace(str(where), "WORK") for a in j.argv]
                     for j in jobs]
            runs[label] = (files(where), argvs)
        same = runs["a"] == runs["b"]
        differs = runs["a"] != runs["c"]
        if not same or not differs:
            raise SystemExit("FAIL inputs of %s: same seed identical %s, "
                             "other seed differs %s" % (wl.name, same, differs))
        print("PASS inputs of %s repeat for a seed and change with it"
              % wl.name)


def main():
    os.chdir(run.ROOT)
    shutil.rmtree(WORK, ignore_errors=True)
    lib, mods = run.import_program()
    program = run.Program(mods["cli"])
    wrong_hilbert_dimension(lib, program)
    wrong_tor_table(program)
    nonzero_dN(lib)
    same_seed_same_inputs(program)
    shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
