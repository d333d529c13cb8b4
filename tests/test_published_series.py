"""Published closed forms: Yang-Mills and down-up algebras, N = 3.

The Yang-Mills algebra YM(g) has g generators and the g cubic relations
sum_l [x_l, [x_l, x_m]] = 0, one for each m (Connes and Dubois-Violette
2002, "Yang-Mills algebra").  The down-up algebra A(alpha, beta, 0) has
generators d, u and the relations d.d.u = alpha d.u.d + beta u.d.d and
d.u.u = alpha u.d.u + beta u.u.d (Benkart and Roby 1998, "Down-up
algebras"); YM(2) is A(2, -1, 0).  Both have the Hilbert series
1/((1 - t^2)(1 - g t + t^2)), with g = 2 for down-up (for every alpha and
beta), and for beta != 0 they are 3-Koszul of global dimension 3
(Kirkman, Musson and Passman 1999 for down-up): Tor is 1, g, g, 1 at
(i, t) = (0, 0), (1, 1), (2, 3), (3, 4) and 0 elsewhere.
"""

import pytest

from nkoszul.definitions import parse_definition
from nkoszul.koszul import koszulity_check, tor_purity, verdict_string

FIELDS = (None, "gf:32003")


def yang_mills(g):
    names = ["x%d" % i for i in range(1, g + 1)]
    lines = ["generators " + " ".join(names), "degree 3"]
    for m in names:
        # [l, [l, m]] = l.l.m - 2 l.m.l + m.l.l
        terms = ["+ %s.%s.%s - 2*%s.%s.%s + %s.%s.%s"
                 % (l, l, m, l, m, l, m, l, l) for l in names if l != m]
        lines.append("relation " + " ".join(terms)[2:])
    return "\n".join(lines) + "\n"


def down_up(alpha, beta):
    def relation(lead, a_word, b_word):
        terms = [lead] + ["%s %d*%s" % ("-" if c > 0 else "+", abs(c), w)
                          for c, w in ((alpha, a_word), (beta, b_word)) if c]
        return "relation " + " ".join(terms)
    return "generators d u\ndegree 3\n%s\n%s\n" % (
        relation("d.d.u", "d.u.d", "u.d.d"),
        relation("d.u.u", "u.d.u", "u.u.d"))


def closed_form_dims(g, n_max):
    """Coefficients of 1/((1 - t^2)(1 - g t + t^2)) through t^n_max."""
    a = []   # 1/(1 - g t + t^2)
    for n in range(n_max + 1):
        a.append((n == 0) + (g * a[n - 1] if n >= 1 else 0)
                 - (a[n - 2] if n >= 2 else 0))
    return [sum(a[n - 2 * j] for j in range(n // 2 + 1))
            for n in range(n_max + 1)]


def test_closed_form_dims_are_the_series():
    assert closed_form_dims(2, 6) == [1, 2, 4, 6, 9, 12, 16]
    assert closed_form_dims(3, 5) == [1, 3, 9, 24, 64, 168]


# (text, g, dims and Koszulity window, Tor window)
KOSZUL_CASES = {
    "down-up(1,1)": (down_up(1, 1), 2, 10, 6),
    "down-up(2,-1)": (down_up(2, -1), 2, 10, 6),
    "down-up(0,1)": (down_up(0, 1), 2, 10, 6),
    "YM2": (yang_mills(2), 2, 10, 6),
    "YM3": (yang_mills(3), 3, 8, 6),
    "YM4": (yang_mills(4), 4, 6, 5),
}


@pytest.mark.parametrize("case", sorted(KOSZUL_CASES))
def test_koszul_closed_forms(case):
    text, g, n_max, tor_max = KOSZUL_CASES[case]
    for field in FIELDS:
        A = parse_definition(text, field_override=field).to_algebra()
        assert A.hilbert_dims(n_max) == closed_form_dims(g, n_max)
        assert verdict_string(koszulity_check(A, n_max)) == (
            "KoszulUpTo(%d)" % n_max)
        pure, table = tor_purity(A, 4, tor_max)
        assert pure
        assert {key: d for key, d in table.items() if d} == {
            (0, 0): 1, (1, 1): g, (2, 3): g, (3, 4): 1}


def test_down_up_with_beta_zero_has_the_same_dims():
    for field in FIELDS:
        A = parse_definition(down_up(1, 0), field_override=field).to_algebra()
        assert A.hilbert_dims(10) == closed_form_dims(2, 10)
