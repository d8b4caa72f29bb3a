"""The CLI's bytes, pinned.

``cli_bytes.json`` holds a fixed corpus of invocations and, for each, one
sha256 over its exit code, stdout and stderr.  A change that should leave
the output alone must pass this test unchanged; a mismatch names the argv.

The corpus: the README examples, the criterion-8 texts as
``member --certify --verify --json`` and as ``reduce --json``, the chain
``(G(0)+...+G(n-1))^4`` members for n = 3, 4 and 6, and a few parse
errors.  The printed residuals are floating point, so the pinned bytes hold
for one platform's libm.

Regenerate the file (only when the output is meant to change) with

    PYTHONPATH=src python tests/test_cli_bytes.py --write
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from gamma_ideal.cli import main

PINNED = Path(__file__).with_name("cli_bytes.json")
IDENTITY = "G(0)*G(2)-G(1)^2-G(0)*G(1)"


def invoke(argv):
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def digest(argv) -> str:
    return hashlib.sha256(json.dumps(invoke(argv)).encode()).hexdigest()


def corpus():
    """The pinned invocations; used only to regenerate ``cli_bytes.json``."""
    from gamma_ideal.ideal import normal_form
    from gamma_ideal.poly import GammaPoly, gamma_poly_text
    from gamma_ideal.shifts import build_shift_system
    from strategies import random_poly

    argvs = [
        ["member", "0,1,2", IDENTITY, "--certify", "--verify"],
        ["member", "0,1,2", "G(0)*G(2)-G(1)^2"],
        ["classes", "0,1,2"],
        ["classes", "0,1,2", "--json"],
        ["reduce", "0,1,2", "G(0)*G(2)-G(1)^2"],
        ["reduce", "0,1,2", "G(0)*G(2)-G(1)^2", "--json"],
        ["member", "0,1,2", IDENTITY, "--json", "--certify", "--verify"],
        ["gamma", "--eval", "2.5+1.5i"],
        ["gamma", "--eval", "1/2", "--json"],
        ["selftest"],
        ["reduce", "0,1", "G(9)+("],
        ["reduce", "0,1", "G(1)+G(9)+G(8)"],
        ["reduce", "0,1", "G(5)/s"],
        ["reduce", "0,1", "s/(s+1)*G(0)"],
        ["member", "0,1,2", "G(7)+"],
    ]
    texts = [
        "0",
        "1",
        "s",
        "-s^3",
        "1/2",
        "(1/2)i",
        "G(0)",
        "s*G(0)^2",
        "-G(0)*G(1)+G(0)*G(2)-G(1)^2",
        "(s^2+s)*G(1)-G(2)",
    ]
    rng = random.Random(8)
    while len(texts) < 50:
        texts.append(gamma_poly_text(random_poly(3, rng, max_terms=4)))
    for text in texts:
        argvs.append(["member", "0,1,2", text, "--certify", "--verify", "--json"])
        argvs.append(["reduce", "0,1,2", text, "--json"])
    for n in (3, 4, 6):
        system = build_shift_system(list(range(n)))
        power = sum((GammaPoly.variable(n, k) for k in range(n)), GammaPoly.zero(n)) ** 4
        member = power - normal_form(power, system)
        shifts = ",".join(str(k) for k in range(n))
        argvs.append(["member", shifts, gamma_poly_text(member), "--certify", "--verify", "--json"])
    unique = {json.dumps(argv): argv for argv in argvs}  # the random texts repeat some
    return list(unique.values())


def pinned():
    return json.loads(PINNED.read_text())


@pytest.fixture(autouse=True)
def _no_seed_override(monkeypatch):
    monkeypatch.delenv("GAMMA_IDEAL_SEED", raising=False)


def test_cli_bytes_match_the_pinned_corpus():
    mismatched = [entry["argv"] for entry in pinned() if digest(entry["argv"]) != entry["sha256"]]
    for argv in mismatched:
        print("output changed:", json.dumps(argv)[:300])
    assert not mismatched, f"{len(mismatched)} invocations changed output"


def test_pinned_corpus_is_whole():
    entries = pinned()
    assert len(entries) == len({json.dumps(entry["argv"]) for entry in entries}) > 100


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_bytes.py --write")
    entries = [{"argv": argv, "sha256": digest(argv)} for argv in corpus()]
    PINNED.write_text("[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n")
    print(f"wrote {len(entries)} entries to {PINNED}")
