"""The CLI's bytes, pinned.

``cli_bytes.json`` holds a fixed corpus of invocations and, for each, one
sha256 over its exit code, stdout and stderr.  A change that should leave
the output alone must pass this test unchanged; a mismatch names the argv.

The corpus: the README examples, the criterion-8 texts as
``member --certify --verify --json`` and as ``reduce --json``, the chain
``(G(0)+...+G(n-1))^4`` members for n = 3, 4 and 6, a few parse errors,
``classes`` reports and duplicate-shift errors over out-of-order,
interleaved, complex, negative and long shift lists, and the parser's
edges after a ``--``: rejected and accepted texts, nesting at and past
``MAX_NESTING``, a 1200-term flat sum, divisors and shift-list entries that
are or are not constants once lowered, and the normal-form route over
multi-class, complex, negative and out-of-order shifts with gaps above one,
and the certificate route (``member --certify``) over two of those inputs.
Each criterion-8 or chain text that starts with ``-`` is pinned twice: as
written, which argparse rejects as an unknown option, and after a ``--``
separator, which reaches the command.  The printed residuals are floating
point, so the pinned bytes hold for one platform's libm.

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
# Shift lists whose classes are out of input order, interleaved, complex,
# negative or long.
CLASS_SHIFTS = [
    "2,0,1",
    "0,1/2,1,5/2,(1+i)/3,(4+i)/3",
    "-1/2,1/2,-3/2",
    ",".join(str(k) for k in range(40)),
]
# An identity over two classes given out of order: {2, 0, 1} and {1/2, 5/2}.
TWO_CLASS_IDENTITY = "G(0)-(s+1)*G(4)+G(3)*G(4)-(s+1/2)*(s+3/2)*G(1)*G(4)"
# Texts the parser rejects, each with a one-line error: junk characters,
# other scripts' digits, unknown names, unbalanced parentheses, a negative
# index, a missing or doubled exponent, an exponent of an exponent,
# division by a non-constant and float syntax.
PARSER_ERRORS = [
    "G(0)+$", "G(0).5", "s_1", "G(\u0663)", "s^\u00b2", "\u00e9*G(0)", "x", "G(0", "G)",
    "G(-1)", "s^", "2^^3", "G(0)^0^0", "G(1)/(1/s)", "1e3",
]
# Texts it accepts: Unicode whitespace, postfix i, and spaces between tokens.
PARSER_ACCEPTED = [
    "G(0)\t+\x1cs", "(1+i)i*G(0)", "2i^2*G(1)", "G (1) - s * G ( 0 )", "-(G(1)-s*G(0))",
]
# Lowering edges: divisors that are or are not nonzero constants once
# lowered, powers to the 0 as divisors, and a zero factor before a bad one.
LOWERING_EDGES = [
    "G(0)/(2*(1+i))", "G(0)/((s+1)-s)", "G(0)/(s-s)", "G(0)/0^0", "G(0)/G(1)^0", "G(0)/(2)^3",
    "0*(s/(s+1))", "0*G(0)/(s-s)", "(1+i)*s*G(0)/(1-i)", "G(0)/(s^0*(2i))",
]
# Shift lists whose entries are or are not constants once lowered.
SCALAR_EDGES = ["(1+i)/(1-i),0", "s,0", "0,(s-s)/2", "1/(2-2)"]
# The substitution route over one eight-member class, over three classes
# with gaps 2 and 3 and complex shifts, over negative shifts with a class out
# of input order and gaps 1, 1 and 2, and over a class out of input order;
# and a member whose certificate steps across two gaps.
NORMAL_FORM_ROUTE = [
    ["reduce", "--json", "--", "0,1,2,3,4,5,6,7",
     "(G(0)+G(1)+G(2)+G(3)+G(4)+G(5)+G(6)+G(7))^4"],
    ["reduce", "--json", "--", "0,2,5,1/2,3/2,(1+i)/3,(4+i)/3",
     "G(2)^3*G(4)-s*G(1)^2*G(6)+G(0)*G(2)*G(5)^2-(1/2)*G(1)^4"],
    ["reduce", "--json", "--", "-3/2,1/2,-1/2,5/2",
     "G(0)^2*G(3)-(s-3/2)*G(2)*G(1)^2+G(3)^3"],
    ["reduce", "--", "5,0,2", "G(0)*G(2)-G(1)^2"],
    ["member", "--certify", "--verify", "--json", "--", "-3/2,1/2,-1/2,5/2",
     "G(3)-(s+1/2)*(s+3/2)*G(1)"],
]
# The certificate route over the same three classes and the same
# out-of-order four-member class: cofactors with complex shifts, gaps of
# 1, 2 and 3 and exponents up to 4.
CERTIFY_ROUTE = [
    ["member", "--certify", "--verify", "--json", "--", "0,2,5,1/2,3/2,(1+i)/3,(4+i)/3",
     "G(2)^3*G(4)-s*G(1)^2*G(6)+G(0)*G(2)*G(5)^2-(1/2)*G(1)^4"],
    ["member", "--certify", "--", "-3/2,1/2,-1/2,5/2",
     "G(0)^2*G(3)-(s-3/2)*G(2)*G(1)^2+G(3)^3"],
]


def invoke(argv):
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def digest(argv) -> str:
    return hashlib.sha256(json.dumps(invoke(argv)).encode()).hexdigest()


def corpus():
    """The pinned invocations, in the order of ``cli_bytes.json``."""
    from gamma_ideal.ideal import normal_form
    from gamma_ideal.poly import GammaPoly, gamma_poly_text
    from gamma_ideal.shifts import build_shift_system
    from gamma_ideal.parser import MAX_NESTING
    from strategies import flat_sum, random_poly

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
    chains = []
    for n in (3, 4, 6):
        system = build_shift_system(list(range(n)))
        power = sum((GammaPoly.variable(n, k) for k in range(n)), GammaPoly.zero(n)) ** 4
        member = power - normal_form(power, system)
        chains.append((",".join(str(k) for k in range(n)), gamma_poly_text(member)))
    # Without "--" argparse reads a text starting with "-" as an option, so
    # the entries above and below pin its usage error; this form pins the output.
    for shifts, text in [("0,1,2", text) for text in texts] + chains:
        if text.startswith("-"):
            argvs.append(["member", "--certify", "--verify", "--json", "--", shifts, text])
            argvs.append(["reduce", "--json", "--", shifts, text])
    for shifts, text in chains:
        argvs.append(["member", shifts, text, "--certify", "--verify", "--json"])
    for shifts in CLASS_SHIFTS:
        argvs.append(["classes", shifts])
        argvs.append(["classes", shifts, "--json"])
        if shifts.startswith("-"):
            argvs.append(["classes", "--", shifts])
            argvs.append(["classes", "--json", "--", shifts])
    argvs.append(["classes", "0,1/2,1/2,0"])
    argvs.append(["classes", "0,0"])
    argvs.append(["member", "2,1/2,0,5/2,1", TWO_CLASS_IDENTITY, "--certify", "--verify", "--json"])
    nested = ["(" * depth + "G(1)-s*G(0)" + ")" * depth for depth in (MAX_NESTING, MAX_NESTING + 1)]
    for text in PARSER_ERRORS + PARSER_ACCEPTED + nested:
        argvs.append(["reduce", "--json", "--", "0,1", text])
    for shifts in ["0, 1/2, (1+i)/2", "0,1/0", " , "]:
        argvs.append(["classes", shifts])
    argvs.append(["reduce", "--json", "0,1,1/3,2/3", flat_sum(1200, seed=1200)])
    for text in LOWERING_EDGES:
        argvs.append(["reduce", "--json", "--", "0,1", text])
    for shifts in SCALAR_EDGES:
        argvs.append(["classes", shifts, "--json"])
    argvs.extend(NORMAL_FORM_ROUTE)
    argvs.extend(CERTIFY_ROUTE)
    argvs.append(["member", "0,1,2", IDENTITY, "--certify", "--json"])
    argvs.append(["member", "0,1,2", "G(0)*G(2)-G(1)^2", "--json"])
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


def test_pinned_corpus_is_the_generated_one():
    """A corpus that grows without regenerating ``cli_bytes.json`` fails."""
    assert [entry["argv"] for entry in pinned()] == corpus()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_bytes.py --write")
    entries = [{"argv": argv, "sha256": digest(argv)} for argv in corpus()]
    PINNED.write_text("[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n")
    print(f"wrote {len(entries)} entries to {PINNED}")
