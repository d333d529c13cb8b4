"""Plain-text algebra definition files.

Line-oriented format with keywords ``field``, ``generators``, ``degree``
and ``relation``; ``#`` starts a comment.  The first three head the file
at most once each; ``relation`` lines repeat.  Words are dot-separated
generator names (``x.y.x``), coefficients are integers or ``a/b``
fractions, terms are joined with ``+`` / ``-``::

    field rational
    generators x y
    degree 2
    relation 1*x.y - 1*y.x

Relations are held as sparse rows {word index: scalar}, the format of
``Subspace.rows``, with words indexed as in ``words``; a word is spelled
from its index (``word_speller``) only when a definition is printed.
Definitions compare structurally (field, generator count, degree and the
span of the relations); generator names are presentation only.
"""

import re

from .algebra import NHomogeneousAlgebra
from .errors import DefinitionError
from .fields import QQ, field_from_name, field_name
from .linalg import Subspace
from .words import word_index, word_speller

_TOKEN = re.compile(r"\S+")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*$")
_COEFF = re.compile(r"-?\d+(/\d+)?$")


class AlgebraDefinition:
    """Parsed content of a definition file.

    The constructor takes a field name and keeps only the ``field``;
    ``field_name`` spells it canonically (``gf:07`` as ``gf:7``).
    ``relations`` is a list of sparse rows {word index: scalar} over the
    words of length ``degree``, as in ``Subspace.rows``; their scalars are
    coerced into the definition's field when the span is taken.
    """

    def __init__(self, field_spec, generators, degree, relations):
        self.field = field_from_name(field_spec)
        self.generators = tuple(generators)
        self.degree = degree
        self.relations = relations

    def relation_subspace(self):
        return Subspace.from_vectors(
            self.field, len(self.generators) ** self.degree, self.relations)

    def to_algebra(self):
        return NHomogeneousAlgebra(
            len(self.generators), self.degree, self.relation_subspace(),
            gen_names=self.generators)

    def __eq__(self, other):
        if not isinstance(other, AlgebraDefinition):
            return NotImplemented
        return (self.field == other.field
                and len(self.generators) == len(other.generators)
                and self.degree == other.degree
                and self.relation_subspace() == other.relation_subspace())

    def __repr__(self):
        return "AlgebraDefinition(%s, generators=%r, degree=%d, %d relations)" % (
            field_name(self.field), list(self.generators), self.degree,
            len(self.relations))


def _fail(message, line, col, source):
    raise DefinitionError(message, line=line, col=col, source=source)


def _parse_coefficient(text, lineno, col, source):
    if not _COEFF.match(text):
        _fail("bad coefficient %r" % text, lineno, col, source)
    return text


def _parse_word(text, lineno, col, names, degree, source):
    parts = text.split(".")
    word = []
    at = col
    for part in parts:
        if part not in names:
            _fail("unknown generator %r" % part, lineno, at, source)
        word.append(names[part])
        at += len(part) + 1
    if degree is not None and len(word) != degree:
        _fail("word %r has length %d, expected %d" % (text, len(word), degree),
              lineno, col, source)
    return word_index(word, len(names))


def _parse_relation(tokens, lineno, names, degree, field, source):
    row = {}
    sign = 1
    expect_term = True
    for col, tok in tokens:
        if tok in ("+", "-"):
            if expect_term:
                _fail("misplaced %r" % tok, lineno, col, source)
            sign = 1 if tok == "+" else -1
            expect_term = True
            continue
        if not expect_term:
            _fail("missing '+' or '-' before %r" % tok, lineno, col, source)
        if "*" in tok:
            coeff_text, word_text = tok.split("*", 1)
            coeff = _parse_coefficient(coeff_text, lineno, col, source)
            word_col = col + len(coeff_text) + 1
        else:
            coeff, word_text, word_col = "1", tok, col
        j = _parse_word(word_text, lineno, word_col, names, degree, source)
        try:
            value = field.coerce(coeff)
        except ZeroDivisionError:
            _fail("coefficient %r is undefined over %r" % (coeff, field),
                  lineno, col, source)
        if sign < 0:
            value = field.neg(value)
        row[j] = field.add(row.get(j, field.zero), value)
        sign = 1
        expect_term = False
    if expect_term:
        _fail("relation ends with a dangling sign", lineno,
              tokens[-1][0] if tokens else 1, source)
    # repeated words may cancel
    return {j: c for j, c in row.items() if c}


def parse_definition(text, source=None, field_override=None):
    """Parse definition text; raises DefinitionError with line/column.

    A ``field_override`` (a field name) replaces the field of the file's
    ``field`` line: the coefficients are then read in that field.
    """
    field = QQ
    generators = None
    names = None
    degree = None
    pending = []  # relation token lists, validated once names/degree known
    headers = set()  # field/generators/degree: at most one line each
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = [(m.start() + 1, m.group()) for m in _TOKEN.finditer(line)]
        if not tokens:
            continue
        col0, keyword = tokens[0]
        rest = tokens[1:]
        if keyword in headers:
            _fail("repeated %r line" % keyword, lineno, col0, source)
        if keyword in ("field", "generators", "degree"):
            headers.add(keyword)
        if keyword == "field":
            if len(rest) != 1:
                _fail("expected one field name", lineno, col0, source)
            try:
                field = field_from_name(rest[0][1])
            except ValueError as exc:
                _fail(str(exc), lineno, rest[0][0], source)
        elif keyword == "generators":
            if not rest:
                _fail("no generator names", lineno, col0, source)
            generators = []
            for col, name in rest:
                if not _NAME.match(name):
                    _fail("bad generator name %r" % name, lineno, col, source)
                if name in generators:
                    _fail("duplicate generator %r" % name, lineno, col, source)
                generators.append(name)
            names = {n: i for i, n in enumerate(generators)}
        elif keyword == "degree":
            if len(rest) != 1 or not rest[0][1].isdecimal() or int(rest[0][1]) < 2:
                _fail("degree must be an integer >= 2", lineno,
                      rest[0][0] if rest else col0, source)
            degree = int(rest[0][1])
        elif keyword == "relation":
            if not rest:
                _fail("empty relation", lineno, col0, source)
            pending.append((lineno, rest))
        else:
            _fail("unknown keyword %r" % keyword, lineno, col0, source)
    if generators is None:
        _fail("missing 'generators' line", 1, 1, source)
    if degree is None:
        _fail("missing 'degree' line", 1, 1, source)
    if field_override:
        field = field_from_name(field_override)
    rows = (_parse_relation(toks, lineno, names, degree, field, source)
            for lineno, toks in pending)
    relations = [row for row in rows if row]
    return AlgebraDefinition(field_name(field), generators, degree, relations)


def serialize_definition(definition):
    """The definition as text, each relation row in ascending word order.

    ``definition_from_algebra(defn.to_algebra())`` holds the reduced
    relation rows, so its text is canonical.
    """
    names = definition.generators
    spell = word_speller(names, definition.degree)
    lines = ["field %s" % field_name(definition.field),
             "generators %s" % " ".join(names),
             "degree %d" % definition.degree]
    for row in definition.relations:
        parts = []
        for j, c in sorted(row.items()):
            text = "%s*%s" % (c, spell(j))
            if parts and text.startswith("-"):
                parts.append("- " + text[1:])
            elif parts:
                parts.append("+ " + text)
            else:
                parts.append(text)
        lines.append("relation %s" % " ".join(parts))
    return "\n".join(lines) + "\n"


def definition_from_algebra(algebra):
    """Express an algebra as a definition (canonical relation rows)."""
    generators = [n.replace("'", "_d") for n in algebra.gen_names]
    if (len(set(generators)) != len(generators)
            or not all(_NAME.match(n) for n in generators)):
        generators = ["g%d" % i for i in range(algebra.dim_e)]
    return AlgebraDefinition(field_name(algebra.field), generators, algebra.N,
                             list(algebra.relations.rows))
