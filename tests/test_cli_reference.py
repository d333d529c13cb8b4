"""The CLI reproduces the benchmark's reference reports byte for byte."""

import json
from pathlib import Path

from nkoszul import cli

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "bench" / "reference" / "cli-demos.json"
DEMOS = {path.stem for path in (ROOT / "demos" / "definitions").glob("*.alg")}


def argv_of(key):
    """A reference key ("tor --nmax 6 cubic") as the command line it names."""
    return ["demos/definitions/%s.alg" % word if word in DEMOS else word
            for word in key.split()]


def test_reference_reports_are_byte_identical(monkeypatch, capsys):
    reference = json.loads(REFERENCE.read_text())
    assert len(reference) > 50
    monkeypatch.chdir(ROOT)    # the reports name their inputs by this path
    for key, report in reference.items():
        assert cli.main(argv_of(key)) == 0, key
        assert capsys.readouterr().out == report, key
