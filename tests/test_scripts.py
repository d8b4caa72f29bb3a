"""The scripts under ``scripts/`` run to completion in-process."""

import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_demo_identities_runs(capsys):
    runpy.run_path(str(SCRIPTS / "demo_identities.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert out.count("verdict  : identity") == 3
    assert out.count("verdict  : not an identity") == 2
    assert "(consistent)" in out and "INCONSISTENT" not in out
    assert out.rstrip().splitlines()[-1].startswith("numeric  : ")
