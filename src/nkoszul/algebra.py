"""Graded algebras presented by homogeneous relations of a single degree N.

An algebra here is the tensor algebra of a g-dimensional space modulo the
two-sided ideal generated by a subspace R of the N-th tensor power.  The
degree-n component is the quotient of the n-th tensor power by
sum_{r+s=n-N} E^r (x) R (x) E^s.

The engine keeps, per degree, a monomial basis ("normal words": the
non-pivot words of the canonical row reduction of the degree-n relation
space) plus sparse matrices for right/left multiplication by generators.
Normal words are prefix-closed: the degree-n relation space contains
rel_{n-1} (x) E, whose reduced pivots are exactly (pivot word, letter),
so a non-pivot word of degree n has a non-pivot prefix.

A degree is built in two steps.  ``_build_next`` eliminates the relation
rows forward; the pivot columns, and so the basis, are then fixed.  The
tables need the back-substituted rows, so they are built only when
``component(n)`` is first asked for degree n: by the next degree's
assembly, ``lmul``, products and the Koszul operators.  ``dim`` and
``hilbert_dims`` read the basis alone and never back-substitute the top
degree.

Right multiplication is stored twice: ``rmul_cols`` in field scalars, and
``int_cols`` in plain integers over one common denominator ``den`` per
degree (over GF(p) the two are the same tables and ``den`` is 1).  The
relation rows of degree n are assembled from ``int_cols`` and integer
relation rows only: each assembled row is a positive multiple of its
field-scalar value, which the eliminator's primitive rows do not see.
Left multiplication, ``lmul``, is built from ``int_cols`` alone and kept
only as integers, scaled by ``lden`` = den_1 * ... * den_n (1 over GF(p),
where the integers are the field scalars); the Koszul operators read it,
and for the dual algebra B^! its transpose is the first-letter split of
the Koszul dual side (B^!)*.

Products, ``lmul`` and ``_times_word`` push sparse vectors through these
tables with ``sparsela.apply_cols``; ``sparsela.over_common_denominator``
turns ``rmul_cols`` into ``int_cols`` and ``den``.  Only ``_build_next``
keeps sums of its own (see there).
"""

from .errors import ContractViolation, DimensionMismatch
from .fields import QQ
from .linalg import Subspace, rank
from .sparsela import (Eliminator, SparseMatrix, apply_cols,
                       over_common_denominator, primitive_row, settled)
from .words import (annihilator, block_embed, index_word, interleaved_span,
                    tensor_subspace)

class GradedComponent:
    """Degree-n piece of an algebra: monomial basis plus generator actions.

    The basis (``normal_words``, ``word_pos``, ``dim``) is known after the
    forward elimination of the degree's relation rows.  The tables need
    the back-substituted rows; until they are built, ``elim`` holds the
    degree's eliminator and the tables are None.
    ``NHomogeneousAlgebra.component`` builds them on first use and drops
    ``elim``.
    """

    __slots__ = ("dim", "normal_words", "word_pos", "elim", "rmul_cols",
                 "int_cols", "den", "lden", "lmul_cols")

    def __init__(self, normal_words, elim):
        self.normal_words = normal_words
        self.word_pos = {w: i for i, w in enumerate(normal_words)}
        self.dim = len(normal_words)
        self.elim = elim            # forward-reduced, not yet finalized
        self.rmul_cols = None       # rmul_cols[letter][src pos] -> sparse col
        # the same tables as ints: rmul_cols[l][s] == int_cols[l][s] / den;
        # over GF(p) int_cols is rmul_cols and den is 1
        self.int_cols = None
        self.den = None
        # integer left multiplication, lden times the exact map
        self.lden = None
        self.lmul_cols = None       # built on demand


def _default_names(dim_e):
    return tuple("x%d" % i for i in range(dim_e))


class NHomogeneousAlgebra:
    """T(E)/(R) for R inside the N-th tensor power of E."""

    def __init__(self, dim_e, degree, relations, gen_names=None):
        if degree < 2:
            raise DimensionMismatch("relation degree must be at least 2")
        if dim_e < 0:
            raise DimensionMismatch("negative generator count")
        if relations.ambient_dim != dim_e ** degree:
            raise DimensionMismatch(
                "relations live in dimension %d, expected %d"
                % (relations.ambient_dim, dim_e ** degree))
        self.field = relations.field
        self.dim_e = dim_e
        self.N = degree
        self.relations = relations
        self.gen_names = (_default_names(dim_e) if gen_names is None
                          else tuple(gen_names))
        if len(self.gen_names) != dim_e:
            raise DimensionMismatch("need %d generator names" % dim_e)
        unit = GradedComponent((0,), None)
        unit.den = unit.lden = 1
        self._components = [unit]
        self._int_relation_rows = None
        self._dual = None
        self._products = {}

    # -- structural equality: same presentation over the same field
    def __eq__(self, other):
        return (isinstance(other, NHomogeneousAlgebra)
                and self.field == other.field
                and self.dim_e == other.dim_e
                and self.N == other.N
                and self.relations == other.relations)

    def __hash__(self):
        return hash((self.dim_e, self.N, self.relations))

    def __repr__(self):
        return "NHomogeneousAlgebra(%s: dim E=%d, N=%d, dim R=%d over %r)" % (
            ",".join(self.gen_names), self.dim_e, self.N, self.relations.dim,
            self.field)

    # -- graded engine -------------------------------------------------

    def int_relation_rows(self):
        """Relation rows as ints: primitive rows over QQ, as stored over GF(p)."""
        if self._int_relation_rows is None:
            rows = self.relations.rows
            if not self.field.p:
                rows = [primitive_row(row) for row in rows]
            self._int_relation_rows = rows
        return self._int_relation_rows

    def _basis(self, n):
        """Degree n, built up to its basis; its tables may still be pending."""
        if n < 0:
            raise DimensionMismatch("negative degree")
        while len(self._components) <= n:
            self._components.append(self._build_next())
        return self._components[n]

    def component(self, n):
        """Degree n with its tables, built for every pending degree <= n."""
        comp = self._basis(n)
        if comp.elim is not None:
            for k in range(1, n + 1):
                if self._components[k].elim is not None:
                    self._build_tables(k)
        return comp

    def dim(self, n):
        return self._basis(n).dim

    def hilbert_dims(self, n_max):
        return [self.dim(n) for n in range(n_max + 1)]

    def _build_next(self):
        """Degree n = len(tower): forward elimination and basis only.

        The normal words are the non-pivot columns, which the forward
        elimination already fixes; the eliminator is parked on the
        component for ``_build_tables``.  Reads the tables of degrees
        n-N+1 .. n-1.
        """
        n = len(self._components)
        g, N, p = self.dim_e, self.N, self.field.p
        prev = self._components[n - 1]
        elim = Eliminator(self.field)
        if n >= N and self.relations.dim and prev.dim:
            base = self._components[n - N]
            rel_rows = self.int_relation_rows()
            tables = [self.component(n - N + k).int_cols for k in range(1, N)]
            for pu in range(base.dim):
                # classes [u.v'] for every prefix v' of length N-1, all
                # scaled by the product of the den of the degrees passed;
                # they may hold zeros (mod p), and are only read, so a
                # class c * (one basis word) can share its column.  This
                # loop, and the row assembly below, are not apply_cols:
                # only the fed row is settled, so these sums skip the
                # zero test apply_cols makes on each one, and the GF(p)
                # towers run slower through apply_cols
                cur = {0: {pu: 1}}
                for cols_k in tables:
                    nxt = {}
                    for pidx, vec in cur.items():
                        head = pidx * g
                        if len(vec) == 1:
                            (src, c), = vec.items()
                            for letter, cols in enumerate(cols_k):
                                col = cols[src]
                                nxt[head + letter] = col if c == 1 else {
                                    j: c * v for j, v in col.items()}
                            continue
                        for letter, cols in enumerate(cols_k):
                            out = {}
                            get = out.get
                            for src, c in vec.items():
                                for j, v in cols[src].items():
                                    out[j] = get(j, 0) + c * v
                            nxt[head + letter] = out
                    cur = nxt
                for rel in rel_rows:
                    row = {}
                    get = row.get
                    for widx, c in rel.items():
                        vpre, last = divmod(widx, g)
                        for tpos, tc in cur[vpre].items():
                            col = tpos * g + last
                            row[col] = get(col, 0) + c * tc
                    # add() takes a GF(p) row over in stored form, so it
                    # is settled here; over QQ add() makes it primitive
                    if row:
                        elim.add(settled(row, p) if p else row)
        pivot_rows = elim.pivot_rows
        normal_words = []
        for col in range(prev.dim * g):
            if col not in pivot_rows:
                src, letter = divmod(col, g)
                normal_words.append(prev.normal_words[src] * g + letter)
        return GradedComponent(tuple(normal_words), elim)

    def _build_tables(self, n):
        """Back-substitute degree n and build its tables from the RREF.

        Degree n-1 must have its tables already: ``lden`` extends its own.
        """
        comp, prev = self._components[n], self._components[n - 1]
        field, g = self.field, self.dim_e
        comp.elim.finalize()
        pivot_rows = comp.elim.pivot_rows
        col_pos = {}
        for col in range(prev.dim * g):
            if col not in pivot_rows:
                col_pos[col] = len(col_pos)
        neg, one = field.neg, field.one
        rmul_cols = []
        for letter in range(g):
            cols_l = []
            for src in range(prev.dim):
                col = src * g + letter
                prow = pivot_rows.get(col)
                if prow is None:
                    cols_l.append({col_pos[col]: one})
                else:
                    cols_l.append({col_pos[c]: neg(v)
                                   for c, v in prow.items() if c != col})
            rmul_cols.append(cols_l)
        comp.rmul_cols = rmul_cols
        comp.int_cols, comp.den = over_common_denominator(field, rmul_cols)
        comp.lden = prev.lden * comp.den
        comp.elim = None

    def lmul(self, n):
        """Left multiplication by each generator, A_{n-1} -> A_n, as ints.

        The columns are ``component(n).lden`` times the exact maps: x_j * u
        for u = u'.letter is (x_j * u') * letter, so each column combines
        the integer columns of degree n-1 with ``int_cols``, and the
        scale gains a factor den_n per degree.  Over GF(p) they are the
        field tables (lden is 1).
        """
        comp = self.component(n)
        if comp.lmul_cols is None:
            g = self.dim_e
            if n == 1:
                comp.lmul_cols = [[{j: 1}] for j in range(g)]
            else:
                p = self.field.p
                prev = self.component(n - 1)
                prev2 = self.component(n - 2)
                lm_prev = self.lmul(n - 1)
                out = [[None] * prev.dim for _ in range(g)]
                for pos_u, widx in enumerate(prev.normal_words):
                    upre, letter = divmod(widx, g)
                    pos_upre = prev2.word_pos.get(upre)
                    if pos_upre is None:
                        raise ContractViolation("normal words not prefix-closed")
                    rm = comp.int_cols[letter]
                    for j in range(g):
                        out[j][pos_u] = apply_cols(p, rm, lm_prev[j][pos_upre])
                comp.lmul_cols = out
        return comp.lmul_cols

    def _times_word(self, vec, m, word):
        """Class of vec * word, for a sparse degree-m vec and a letter tuple."""
        p = self.field.p
        for deg, letter in enumerate(word, start=m + 1):
            vec = apply_cols(p, self.component(deg).rmul_cols[letter], vec)
        return vec

    def basis_product(self, m, pos_a, k, pos_b):
        """Memoized product of basis classes pos_a of A_m and pos_b of A_k."""
        key = (m, pos_a, k, pos_b)
        vec = self._products.get(key)
        if vec is None:
            word = index_word(self.component(k).normal_words[pos_b],
                              self.dim_e, k)
            vec = self._times_word({pos_a: self.field.one}, m, word)
            self._products[key] = vec
        return vec

    def vector_product(self, m, vec_a, k, vec_b):
        """Product in A_{m+k} of sparse vectors of degrees m and k."""
        product = self.basis_product
        cols, weights = {}, {}
        for pos_b, cb in vec_b.items():
            for pos_a, ca in vec_a.items():
                key = (pos_a, pos_b)
                cols[key] = product(m, pos_a, k, pos_b)
                weights[key] = ca * cb
        return apply_cols(self.field.p, cols, weights)

    # -- duality ----------------------------------------------------------

    def dual(self):
        """The algebra on the dual space presented by the annihilator of R."""
        if self._dual is None:
            rperp = annihilator(self.relations)
            names = tuple(nm + "'" for nm in self.gen_names)
            self._dual = NHomogeneousAlgebra(self.dim_e, self.N, rperp,
                                             gen_names=names)
        return self._dual


def _pair_names(a, b):
    names = tuple("%s_%s" % (na, nb) for na in a.gen_names
                  for nb in b.gen_names)
    if len(set(names)) != len(names):
        names = tuple("e%d" % i for i in range(len(names)))
    return names


def _check_product_args(a, b):
    if a.N != b.N:
        raise DimensionMismatch(
            "product factors have relation degrees %d and %d" % (a.N, b.N))
    if a.field != b.field:
        raise DimensionMismatch("product factors must share the field")


def circ(a, b):
    """The product with relations R (x) E'^N + E^N (x) R', interleaved."""
    _check_product_args(a, b)
    field, N = a.field, a.N
    ga, gb = a.dim_e, b.dim_e
    ra = block_embed(a.relations, gb, 0, N)
    rb = block_embed(b.relations, ga, N, 0)
    rel = interleaved_span(field, ra.rows + rb.rows, N, ga, gb)
    return NHomogeneousAlgebra(ga * gb, N, rel, gen_names=_pair_names(a, b))


def bullet(a, b):
    """The product with relations R (x) R', interleaved."""
    _check_product_args(a, b)
    N = a.N
    ga, gb = a.dim_e, b.dim_e
    rows = tensor_subspace(a.relations, b.relations).rows
    rel = interleaved_span(a.field, rows, N, ga, gb)
    return NHomogeneousAlgebra(ga * gb, N, rel, gen_names=_pair_names(a, b))


def _transported_rows(algebra, matrix):
    """The relation rows pushed through the N-th tensor power of matrix.

    A word goes to the Kronecker product of the matrix columns of its
    letters, formed factor by factor; the image lies in the N-th tensor
    power of the matrix's target space.
    """
    g, N, height = algebra.dim_e, algebra.N, matrix.nrows
    cols = matrix.cols
    images = []
    for rel in algebra.relations.rows:
        image = {}
        for widx, c in rel.items():
            terms = {0: c}
            for letter in index_word(widx, g, N):
                terms = {t * height + i: tc * v for t, tc in terms.items()
                         for i, v in cols[letter].items()}
            for t, tc in terms.items():
                image[t] = image.get(t, 0) + tc
        images.append(settled(image, algebra.field.p))
    return images


def _transported_relations(algebra, matrix):
    """Image of the relation space under the N-th tensor power of matrix."""
    return Subspace.from_vectors(algebra.field, matrix.nrows ** algebra.N,
                                 _transported_rows(algebra, matrix))


def is_morphism(source, target, matrix):
    """Does the linear map E -> E' send R into R'?"""
    if (source.N != target.N or source.field != target.field
            or matrix.field != source.field):
        return False
    if matrix.ncols != source.dim_e or matrix.nrows != target.dim_e:
        return False
    return all(target.relations.contains_vector(image)
               for image in _transported_rows(source, matrix))


class Morphism:
    """A relation-preserving linear map between generator spaces.

    ``matrix``, a ``SparseMatrix``, has the image of generator j as column j.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        if not is_morphism(source, target, matrix):
            raise DimensionMismatch(
                "map does not send relations into relations")
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def identity(cls, algebra):
        # the identity sends R onto R: no relation check to run
        ident = cls.__new__(cls)
        ident.source = ident.target = algebra
        ident.matrix = SparseMatrix.identity(algebra.field, algebra.dim_e)
        return ident

    def relations_image(self):
        return _transported_relations(self.source, self.matrix)

    def is_isomorphism(self):
        if self.source.dim_e != self.target.dim_e:
            return False
        if rank(self.matrix) != self.source.dim_e:
            return False
        return self.relations_image() == self.target.relations

    def __repr__(self):
        return "Morphism(%s -> %s)" % (",".join(self.source.gen_names),
                                       ",".join(self.target.gen_names))


def prop1_check(a, b, n_max):
    """Graded dimensions of circ(a, b) factor as products, degree by degree."""
    product = circ(a, b)
    return all(product.dim(n) == a.dim(n) * b.dim(n)
               for n in range(n_max + 1))


# -- stock algebras -----------------------------------------------------

def free_algebra(dim_e, degree, field=QQ, gen_names=None):
    rel = Subspace.zero(field, dim_e ** degree)
    return NHomogeneousAlgebra(dim_e, degree, rel, gen_names=gen_names)


def full_relations_algebra(dim_e, degree, field=QQ, gen_names=None):
    rel = Subspace.full(field, dim_e ** degree)
    return NHomogeneousAlgebra(dim_e, degree, rel, gen_names=gen_names)


def symmetric_algebra(dim_e, field=QQ, gen_names=None):
    """Commutative polynomials in dim_e variables (relation degree 2)."""
    vectors = [{i * dim_e + j: 1, j * dim_e + i: -1}
               for i in range(dim_e) for j in range(i + 1, dim_e)]
    rel = Subspace.from_vectors(field, dim_e ** 2, vectors)
    return NHomogeneousAlgebra(dim_e, 2, rel, gen_names=gen_names)
