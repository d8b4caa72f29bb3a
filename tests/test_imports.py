"""A cold process imports only what its command runs.

Each case runs in a fresh interpreter with ``PYTHONPATH=src`` and compares
``sys.modules`` at exit against a bare ``python -c pass``: the decision
procedure (``gamma_ideal.ideal``), the numeric oracle
(``gamma_ideal.numeric``), ``json``, ``dataclasses`` and ``fractions`` are
loaded only by the commands that use them.  The parser's tokenizer uses
``re``, which ``argparse`` loads anyway, even without the site packages.
"""

import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import gamma_ideal

SRC = Path(__file__).resolve().parent.parent / "src"
MARKER = "modules:"

#: Runs the CLI on its arguments, then reports every loaded module on stderr.
CLI_PROBE = (
    "import sys\n"
    "from gamma_ideal.cli import main\n"
    "main(sys.argv[1:])\n"
    f"print({MARKER!r}, *sorted(sys.modules), file=sys.stderr)\n"
)
IMPORT_PROBE = f"import sys, gamma_ideal\nprint({MARKER!r}, *sorted(sys.modules), file=sys.stderr)\n"
BASELINE_PROBE = f"import sys\nprint({MARKER!r}, *sorted(sys.modules), file=sys.stderr)\n"

IDENTITY = "G(0)*G(2)-G(1)^2-G(0)*G(1)"
NEVER_ON_THE_FAST_PATH = {"gamma_ideal.numeric", "dataclasses", "fractions"}


@lru_cache(maxsize=None)
def loaded(probe: str, *argv: str) -> frozenset:
    """Every module loaded at the end of ``python -c probe argv...``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("GAMMA_IDEAL_SEED", None)
    done = subprocess.run(
        [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    last = done.stderr.splitlines()[-1].split()
    assert last[0] == MARKER, done.stderr
    return frozenset(last[1:])


def added_by(*argv: str) -> frozenset:
    """The modules a CLI run loads beyond those of a bare interpreter."""
    return loaded(CLI_PROBE, *argv) - loaded(BASELINE_PROBE)


@pytest.mark.parametrize(
    "argv",
    [
        ("classes", "0,1,2,1/2"),
        ("classes", "--json", "0,1"),
        ("reduce", "0,1,2", IDENTITY),
        ("reduce", "--json", "--", "0,1", "G(1)-s*G(0)"),
        ("member", "0,1,2", IDENTITY),
        ("member", "--certify", "--json", "0,1,2", IDENTITY),
    ],
)
def test_exact_commands_load_no_oracle_dataclasses_or_fractions(argv):
    assert not NEVER_ON_THE_FAST_PATH & added_by(*argv)


@pytest.mark.parametrize("argv", [("classes", "0,1,2"), ("gamma", "--eval", "1/2")])
def test_classes_and_gamma_load_no_decision_procedure(argv):
    assert "gamma_ideal.ideal" not in added_by(*argv)


@pytest.mark.parametrize(
    "argv",
    [("classes", "0,1"), ("reduce", "0,1", "G(1)"), ("member", "0,1", "G(1)-s*G(0)"), ("gamma", "--eval", "2")],
)
def test_human_output_loads_no_json(argv):
    assert "json" not in added_by(*argv)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("member", "--verify", "0,1", "G(1)-s*G(0)"), {"gamma_ideal.ideal", "gamma_ideal.numeric"}),
        (("gamma", "--json", "--eval", "2"), {"gamma_ideal.numeric", "json"}),
        (("reduce", "--json", "0,1", "G(1)"), {"gamma_ideal.ideal", "json"}),
    ],
)
def test_commands_load_what_they_run(argv, expected):
    # the probe sees the modules a command does load
    assert expected <= added_by(*argv)


def modules_without_site(probe: str) -> set:
    """Every module loaded at the end of ``python -S -c probe``."""
    done = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys\n{probe}\nprint(*sys.modules)"],
        capture_output=True, text=True, timeout=60,
    )
    return set(done.stdout.split())


def test_argparse_loads_re_without_site():
    # So the parser's tokenizer adds no module to a CLI run, also on a host
    # where no site-packages hook loads re first.
    assert "re" not in modules_without_site("pass")
    assert "re" in modules_without_site("import argparse")


def test_importing_the_package_loads_no_submodule():
    package = loaded(IMPORT_PROBE)
    assert "gamma_ideal" in package
    assert not [name for name in package if name.startswith("gamma_ideal.")]


@pytest.mark.parametrize("name", gamma_ideal.__all__)
def test_every_export_resolves_and_is_listed(name):
    assert getattr(gamma_ideal, name) is not None
    assert name in dir(gamma_ideal)


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError):
        gamma_ideal.not_an_export


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from gamma_ideal import *", namespace)
    assert set(gamma_ideal.__all__) <= set(namespace)
