"""Seeded inputs of the benchmark workloads.

Every random algebra is written as a ``.alg`` definition file by this module's
own code; the program under test only ever reads those files.  The support of
each relation (which words appear) is fixed per input slot, so the Hilbert
series and the shape of every elimination are the same for every seed; the
seed draws the nonzero coefficients.  That keeps the amount of work per run
comparable across seeds while the arithmetic still changes with the seed.
"""

import random
from collections import namedtuple

NAMES = "xyzw"


def word_name(index, g, N):
    """Dot-separated generator names of the word with this lex index."""
    letters = []
    for _ in range(N):
        index, r = divmod(index, g)
        letters.append(NAMES[r])
    return ".".join(reversed(letters))


def relation_support(shape, g, N, dim_r, density):
    """Pivot word and support of every relation, from a fixed shape number.

    The pivot words are a random dim_r-subset of the words; each relation
    may also use the non-pivot words after its pivot (Schubert-cell form),
    each kept with the given probability.
    """
    rng = random.Random(shape)
    amb = g ** N
    pivots = sorted(rng.sample(range(amb), dim_r))
    pset = set(pivots)
    return [(p, [c for c in range(p + 1, amb)
                 if c not in pset and rng.random() < density])
            for p in pivots]


def relation_rows(support, seed, slot, span=4):
    """Integer relation rows {word index: coefficient} for one seed."""
    rng = random.Random(seed * 1009 + slot)
    rows = []
    for pivot, free in support:
        row = {pivot: 1}
        for c in free:
            row[c] = rng.randint(1, span) * rng.choice((1, -1))
        rows.append(row)
    return rows


def definition_text(g, N, rows, comment):
    lines = ["# " + comment, "field rational",
             "generators " + " ".join(NAMES[:g]), "degree %d" % N]
    for row in rows:
        parts = []
        for j in sorted(row):
            c = row[j]
            name = word_name(j, g, N)
            if parts:
                parts.append("%s %d*%s" % ("+" if c > 0 else "-", abs(c), name))
            else:
                parts.append("%d*%s" % (c, name))
        lines.append("relation " + " ".join(parts))
    return "\n".join(lines) + "\n"


# One generated input: generator count, degree, integer rows and file text.
Algebra = namedtuple("Algebra", ["g", "N", "rows", "text"])


def random_algebra(name, shape, g, N, dim_r, density, seed, slot):
    support = relation_support(shape, g, N, dim_r, density)
    rows = relation_rows(support, seed, slot)
    comment = "%s: g=%d N=%d dim R=%d shape %d seed %d" % (
        name, g, N, dim_r, shape, seed)
    return Algebra(g, N, rows, definition_text(g, N, rows, comment))
