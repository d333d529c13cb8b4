"""Definition files and the command-line tool."""

import json
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from nkoszul.definitions import (definition_from_algebra, parse_definition,
                                 serialize_definition)
from nkoszul.algebra import free_algebra, symmetric_algebra
from nkoszul.errors import DefinitionError
from nkoszul.fields import QQ

DEFINITIONS = Path(__file__).resolve().parent.parent / "demos" / "definitions"
WEDGE3 = "field rational\ngenerators d\ndegree 3\nrelation 1*d.d.d\n"
KXY = "generators x y\ndegree 2\nrelation 1*x.y - 1*y.x\n"
KT = "generators t\ndegree 2\n"
# repeated words add up; cancelled ones leave no term and no relation
REPEATED = ("generators x y\ndegree 2\nrelation x.y + 2*x.y - y.x\n"
            "relation x.y - x.y\n")
ZERO_MOD_7 = ("field gf:7\ngenerators x y\ndegree 2\nrelation 7*x.y\n"
              "relation 14*x.x + y.x\n")


def test_parse_wedge():
    defn = parse_definition(WEDGE3)
    A = defn.to_algebra()
    assert A.hilbert_dims(5) == [1, 1, 1, 0, 0, 0]


def test_parse_commutator():
    defn = parse_definition(KXY)
    assert defn.field == QQ
    A = defn.to_algebra()
    assert A.hilbert_dims(4) == [1, 2, 3, 4, 5]


def test_round_trip():
    for text in (WEDGE3, KXY, KT,
                 "field gf:7\ngenerators x y\ndegree 2\nrelation 3*x.y + 4*y.x\n",
                 "generators x y\ndegree 2\nrelation x.x + 1/2*y.y - y.x\n",
                 "generators x y\ndegree 2\nrelation x.y - x.y + y.y\n",
                 REPEATED, ZERO_MOD_7):
        defn = parse_definition(text)
        out = serialize_definition(defn)
        assert "0*" not in out and "relation \n" not in out
        again = parse_definition(out)
        assert again == defn
        assert serialize_definition(again) == out
    assert parse_definition(REPEATED).relations == [{1: 3, 2: -1}]
    assert parse_definition(ZERO_MOD_7).relations == [{2: 1}]
    # the field is held once: gf:07 and gf:7 name the same definition
    padded = parse_definition(ZERO_MOD_7.replace("gf:7", "gf:07"))
    assert padded == parse_definition(ZERO_MOD_7)
    assert serialize_definition(padded).startswith("field gf:7\n")


def test_comments_and_blank_lines():
    defn = parse_definition(
        "# header\n\ngenerators x y  # names\ndegree 2\n\nrelation 1*x.y\n")
    assert defn.generators == ("x", "y")
    assert len(defn.relations) == 1


def err(text):
    with pytest.raises(DefinitionError) as info:
        parse_definition(text, source="case.alg")
    return info.value


def test_error_unknown_generator():
    e = err("generators x y\ndegree 2\nrelation 1*x.z\n")
    assert (e.line, e.col) == (3, 14)
    assert "unknown generator 'z'" in e.message
    assert "case.alg:3:14" in str(e)


def test_error_wrong_word_length():
    e = err("generators x y\ndegree 2\nrelation 1*x.y.x\n")
    assert e.line == 3
    assert "length 3, expected 2" in e.message


def test_error_bad_coefficient():
    e = err("generators x y\ndegree 2\nrelation 1q*x.y\n")
    assert e.line == 3
    assert "bad coefficient" in e.message


def test_error_non_prime_modulus():
    e = err("field gf:10\ngenerators x\ndegree 2\n")
    assert e.line == 1
    assert "not prime" in e.message


def test_error_degree_is_a_decimal_integer():
    # "²" is a digit to str.isdigit but not a decimal to int()
    e = err("generators x\ndegree \u00b2\n")
    assert (e.line, e.col) == (2, 8)
    assert "degree must be an integer >= 2" in e.message


def test_error_missing_sections():
    assert "generators" in err("degree 2\n").message
    assert "degree" in err("generators x\n").message


def test_error_misplaced_signs():
    assert "misplaced" in err(
        "generators x y\ndegree 2\nrelation 1*x.y - - 1*y.x\n").message
    assert "dangling" in err(
        "generators x y\ndegree 2\nrelation 1*x.y -\n").message


@pytest.mark.parametrize("text, line, col, message", [
    (KXY.replace(" - 1*y.x", " 1*y.x"), 3, 16,
     "missing '+' or '-' before '1*y.x'"),
    ("field rational gf:7\n" + KXY, 1, 1, "expected one field name"),
    ("generators\ndegree 2\n", 1, 1, "no generator names"),
    ("generators x 2y\ndegree 2\n", 1, 14, "bad generator name '2y'"),
    ("generators x y x\ndegree 2\n", 1, 16, "duplicate generator 'x'"),
    ("generators x y\ndegree 2\nrelation\n", 3, 1, "empty relation"),
    ("generators x y\ndegree 2\nrelations 1*x.x\n", 3, 1,
     "unknown keyword 'relations'"),
    ("generators x y\ngenerators a b c\ndegree 2\n", 2, 1,
     "repeated 'generators' line"),
    ("generators x y\ndegree 2\ndegree 3\n", 3, 1,
     "repeated 'degree' line"),
    ("field rational\nfield gf:7\n" + KXY, 2, 1, "repeated 'field' line"),
])
def test_error_located(text, line, col, message):
    e = err(text)
    assert (e.line, e.col, e.message) == (line, col, message)


def test_structural_equality_ignores_names():
    a = parse_definition("generators d\ndegree 2\nrelation 1*d.d\n")
    b = parse_definition("generators z\ndegree 2\nrelation 2*z.z\n")
    assert a == b


def test_definition_from_algebra_round_trip():
    A = symmetric_algebra(2, gen_names=("x", "y"))
    defn = definition_from_algebra(A)
    assert defn.to_algebra() == A
    dual_def = definition_from_algebra(A.dual())
    assert dual_def.to_algebra() == A.dual()
    # the algebra's relation rows are handed over as they are
    for B in (A, A.dual()):
        assert definition_from_algebra(B).relations == list(B.relations.rows)
    # names the format cannot spell fall back to g0, g1, ...
    unspellable = free_algebra(2, 2, gen_names=("1x", "y"))
    assert definition_from_algebra(unspellable).generators == ("g0", "g1")


def run_cli(args, files, **kwargs):
    cmd = [sys.executable, "-m", "nkoszul.cli"] + args + [str(f) for f in files]
    return subprocess.run(cmd, capture_output=True, text=True, **kwargs)


@pytest.fixture
def defs(tmp_path):
    paths = {}
    for name, text in (("wedge3", WEDGE3), ("kxy", KXY), ("kt", KT)):
        p = tmp_path / (name + ".alg")
        p.write_text(text)
        paths[name] = p
    return paths


def test_cli_hilbert(defs):
    res = run_cli(["hilbert", "--nmax", "5"], [defs["wedge3"]])
    assert res.returncode == 0
    assert "dims: 1 1 1 0 0 0" in res.stdout


def test_cli_hilbert_of_a_degree_40_definition_in_1_gib(tmp_path):
    # R lies in a word space of dimension 2^40, but the tower through
    # degree 3 never reaches degree 40: parsing must not touch that space,
    # and neither must the reduction operator, which stores one rewrite,
    # nor bullet, whose R (x) R lies in a word space of dimension 4^40
    path = tmp_path / "deg40.alg"
    lead, words = "y." + ".".join("x" * 39), ".".join("x" * 40)
    path.write_text("generators x y\ndegree 40\nrelation %s - %s\n"
                    % (words, lead))
    pairs = ["%s.%s" % (first, ".".join(["x_x"] * 39))
             for first in ("x_x", "x_y", "y_x", "y_y")]
    square = "  relation 1*%s - 1*%s - 1*%s + 1*%s" % tuple(pairs)

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    for args, files, line in (
            (["hilbert", "--nmax", "3"], [path], "dims: 1 2 4 8"),
            (["reduce"], [path], "rewrite %s: 1*%s" % (lead, words)),
            (["bullet"], [path, path], square)):
        res = run_cli(args, files, preexec_fn=cap_address_space,
                      timeout=120)
        assert res.returncode == 0, res.stderr
        assert line in res.stdout.splitlines()


def test_cli_koszul_complex_of_a_degree_18_definition_in_192_mib(tmp_path):
    # K(id) reads the dual, whose relation space R^perp has 2^18 - 1 rows:
    # they are read off R's one reversed row, never eliminated
    path = tmp_path / "deg18.alg"
    path.write_text("generators x y\ndegree 18\nrelation %s - y.%s\n"
                    % (".".join("x" * 18), ".".join("x" * 17)))

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (192 << 20, 192 << 20))

    res = run_cli(["koszul-complex", "--nmax", "4"], [path],
                  preexec_fn=cap_address_space, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "slice n=4: 16 16 16 16 16" in res.stdout.splitlines()


def test_cli_dual_of_a_degree_18_definition_in_224_mib(tmp_path):
    # the dual's 2^18 - 1 relation rows go from the algebra to the report
    # as they are held, each word spelled only as its line is printed
    path = tmp_path / "deg18.alg"
    path.write_text("generators x y\ndegree 18\nrelation %s - y.%s\n"
                    % (".".join("x" * 18), ".".join("x" * 17)))
    first = "  relation 1*%s + 1*y_d.%s" % (".".join(["x_d"] * 18),
                                            ".".join(["x_d"] * 17))

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (224 << 20, 224 << 20))

    res = run_cli(["dual"], [path], preexec_fn=cap_address_space,
                  timeout=120)
    assert res.returncode == 0, res.stderr
    lines = [line for line in res.stdout.splitlines()
             if line.startswith("  relation ")]
    assert len(lines) == 2 ** 18 - 1
    assert lines[0] == first


def test_cli_out_of_memory_is_an_error_line():
    # R (x) E^40 lies in a word space of dimension 2^42: lemma3 cannot
    # hold it in 192 MiB, and must say so in one line, not a traceback
    path = DEFINITIONS / "poly2.alg"

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (192 << 20, 192 << 20))

    res = run_cli(["lemma3", "--r", "40"], [path],
                  preexec_fn=cap_address_space, timeout=120)
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("error:")
    assert len(res.stderr.splitlines()) == 1


def test_cli_dual_of_free_line(defs):
    res = run_cli(["dual"], [defs["kt"]])
    assert res.returncode == 0
    out = res.stdout[res.stdout.index("dual:"):]
    dual_def = parse_definition("\n".join(
        line.strip() for line in out.splitlines()[1:] if line.startswith("  ")))
    wedge2 = parse_definition("generators d\ndegree 2\nrelation 1*d.d\n")
    assert dual_def == wedge2


def test_cli_koszulity(defs):
    res = run_cli(["koszulity", "--nmax", "6"], [defs["kxy"]])
    assert res.returncode == 0
    assert "verdict: KoszulUpTo(6)" in res.stdout


def test_cli_json_mode(defs):
    res = run_cli(["tor", "--nmax", "4", "--imax", "2", "--json"],
                  [defs["kxy"]])
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["tor i=0"] == [1, 0, 0, 0, 0]
    assert data["tor i=1"] == [0, 2, 0, 0, 0]
    assert data["tor i=2"] == [0, 0, 1, 0, 0]
    assert data["pure"] is True


def test_cli_reports_are_byte_identical(defs):
    for mode in ([], ["--json"]):
        a = run_cli(["homology", "--nmax", "4"] + mode, [defs["wedge3"]])
        b = run_cli(["homology", "--nmax", "4"] + mode, [defs["wedge3"]])
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


def test_cli_exit_code_on_parse_error(tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("generators x y\ndegree 2\nrelation 1*x.q\n")
    res = run_cli(["hilbert"], [bad])
    assert res.returncode == 1
    assert "unknown generator" in res.stderr
    res = run_cli(["hilbert"], [tmp_path / "missing.alg"])
    assert res.returncode == 1


def test_cli_exit_code_on_validation_error(defs):
    res = run_cli(["hilbert", "--nmax", "0"], [defs["kxy"]])
    assert res.returncode == 1
    res = run_cli(["circ"], [defs["kxy"], defs["wedge3"]])
    assert res.returncode == 1
    assert "degrees 2 and 3" in res.stderr
    res = run_cli(["lemma3", "--r", "0"], [defs["kxy"]])
    assert res.returncode == 1


def test_cli_unknown_command_exits_one(defs):
    res = run_cli(["frobnicate"], [defs["kxy"]])
    assert res.returncode == 1


def test_cli_field_override(defs):
    res = run_cli(["hilbert", "--nmax", "3", "--field", "gf:7"],
                  [defs["kxy"]])
    assert res.returncode == 0
    assert "field: gf:7" in res.stdout
    assert "dims: 1 2 3 4" in res.stdout
    res = run_cli(["hilbert", "--nmax", "3", "--field", "gf:07"],
                  [defs["kxy"]])
    assert res.returncode == 0
    assert "field: gf:7" in res.stdout.splitlines()


def test_cli_reduce(defs):
    res = run_cli(["retry", "--nmax", "3"], [defs["kxy"]])
    assert res.returncode == 1
    res = run_cli(["reduce"], [defs["kxy"]])
    assert res.returncode == 0
    assert "leading_words: y.x" in res.stdout
    assert "rewrite y.x: 1*x.y" in res.stdout
    assert "image_dim: 3" in res.stdout


def test_cli_circ_unit(defs):
    res = run_cli(["circ"], [defs["kt"], defs["kxy"]])
    assert res.returncode == 0
    assert "product:" in res.stdout


def test_cli_coefficient_undefined_in_file_field(tmp_path):
    path = tmp_path / "third.alg"
    path.write_text("field gf:3\ngenerators x y\ndegree 2\n"
                    "relation x.x + 2/3*x.y - y.x\n")
    res = run_cli(["hilbert"], [path])
    assert res.returncode == 1
    assert "%s:4:16: coefficient '2/3' is undefined over GF(3)" % path \
        in res.stderr
    assert "Traceback" not in res.stderr


def test_cli_coefficient_undefined_under_field_override(tmp_path):
    path = tmp_path / "third.alg"
    path.write_text("generators x y\ndegree 2\nrelation 1/3*x.y - y.x\n")
    res = run_cli(["hilbert", "--field", "gf:3"], [path])
    assert res.returncode == 1
    assert "%s:3:10: coefficient '1/3' is undefined over GF(3)" % path \
        in res.stderr
    assert "Traceback" not in res.stderr
    res = run_cli(["hilbert", "--nmax", "3", "--field", "gf:5"], [path])
    assert res.returncode == 0
    assert "dims: 1 2 3 4" in res.stdout


def test_field_override_rereads_coefficients():
    # -1 read in GF(7) is 6; under a rational override it must stay -1
    text = "field gf:7\ngenerators x y\ndegree 2\nrelation x.y - 1*y.x\n"
    defn = parse_definition(text, field_override="rational")
    assert defn.field == QQ
    assert defn == parse_definition(KXY)


def test_cli_main_repeated_in_one_process(defs, capsys):
    # main reuses one parser per process; options of one call must not
    # leak into the next
    from nkoszul import cli
    w3, kxy = defs["wedge3"], defs["kxy"]
    runs = [(["koszul-complex", "--family", "L", "--nmax", "4"], w3),
            (["koszul-complex", "--nmax", "4"], w3),
            (["homology", "--p", "1", "--nmax", "4"], w3),
            (["homology", "--nmax", "4"], w3),
            (["contracted", "--p", "1", "--nmax", "4"], w3),
            (["contracted", "--nmax", "4"], w3),
            (["hilbert", "--nmax", "4", "--json"], kxy),
            (["hilbert", "--nmax", "4"], kxy)]
    outputs = []
    for args, path in runs:
        assert cli.main(args + [str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert len(set(outputs)) == len(outputs)
    for (args, path), out in zip(runs, outputs):
        fresh = run_cli(args, [path])
        assert fresh.returncode == 0
        assert fresh.stdout == out


def test_cli_bullet_rejects_mixed_fields(defs, tmp_path, capsys):
    from nkoszul import cli
    gf7 = tmp_path / "kxy7.alg"
    gf7.write_text("field gf:7\n" + KXY)
    assert cli.main(["bullet", str(defs["kxy"]), str(gf7)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: product factors must share the field\n"


def test_cli_circ_renames_colliding_pair_names(tmp_path, capsys):
    # x_y paired with z and x paired with y_z both spell x_y_z
    from nkoszul import cli
    left, right = tmp_path / "left.alg", tmp_path / "right.alg"
    left.write_text("generators x_y x\ndegree 2\nrelation x_y.x - x.x_y\n")
    right.write_text("generators z y_z\ndegree 2\nrelation z.y_z - y_z.z\n")
    assert cli.main(["circ", str(left), str(right)]) == 0
    out = capsys.readouterr().out
    assert "  generators e0 e1 e2 e3" in out.splitlines()
    assert out.count("  relation ") == 7


def test_cli_timing_appends_only_timing_ms(defs, capsys):
    from nkoszul import cli
    args = ["homology", "--nmax", "4", str(defs["wedge3"])]
    assert cli.main(args) == 0
    plain = capsys.readouterr().out
    assert cli.main(args + ["--timing"]) == 0
    timed = capsys.readouterr().out
    assert timed.startswith(plain)
    assert re.fullmatch(r"timing_ms: \d+\n", timed[len(plain):])
    assert cli.main(args + ["--json"]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert cli.main(args + ["--json", "--timing"]) == 0
    timed = json.loads(capsys.readouterr().out)
    ms = timed.pop("timing_ms")
    assert type(ms) is int and ms >= 0
    assert timed == plain
