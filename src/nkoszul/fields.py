"""Exact scalar arithmetic: the rationals and prime fields GF(p).

Scalars are plain Python objects (fractions.Fraction for the rationals,
ints in [0, p) for GF(p)), so sparse containers stay lightweight.  The
elimination kernel and the sparse sums of ``sparsela`` work on plain
integers and the characteristic ``p``: p over GF(p), 0 over QQ, which
also picks the kernel to run.  Field objects are read for the rest:
input scalars (``coerce``), the few scalar steps that build rows
outside the kernel (``zero``, ``one``, ``neg``, ``add``, ``mul``),
integer rows turned back into field scalars (``ratio``), the printed
name (``kind``), and whether two objects share a field (equality).
"""

from fractions import Fraction


class RationalField:
    """The field of rational numbers with exact arithmetic."""

    kind = "rational"
    p = 0

    def __init__(self):
        self.zero = self.coerce(0)
        self.one = self.coerce(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        return Fraction(x)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return self.one / a

    @staticmethod
    def ratio(n, d):
        """The scalar n/d of two integers, d nonzero."""
        return Fraction(n, d)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


# Miller-Rabin with the primes up to 41 as witnesses is exact below psi_13
# (Sorenson and Webster 2015); PrimeField refuses larger moduli
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def _is_prime(n):
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """GF(p) for a prime p; scalars are ints reduced into [0, p)."""

    kind = "prime"

    def __init__(self, p):
        if p >= _PSI_13:
            raise ValueError("modulus %r is not below %d, where primality "
                             "is certified" % (p, _PSI_13))
        if not _is_prime(p):
            raise ValueError("modulus %r is not prime" % (p,))
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        p = self.p
        if isinstance(x, int):
            return x % p
        if isinstance(x, str) and "/" in x:
            x = Fraction(x)
        if isinstance(x, Fraction):
            return x.numerator * self.inv(x.denominator) % p
        return int(x) % p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = RationalField()


def field_from_name(name):
    """Parse a field name: "rational" or "gf:P" with P prime."""
    if name == "rational":
        return QQ
    if name.startswith("gf:"):
        try:
            p = int(name[3:])
        except ValueError:
            raise ValueError("bad prime field name %r" % name) from None
        return PrimeField(p)
    raise ValueError("unknown field %r (expected 'rational' or 'gf:P')" % name)


def field_name(field):
    if field.kind == "rational":
        return "rational"
    return "gf:%d" % field.p
