"""The verification suite: its dense commutation certificate, and that it
certifies under ``python -O`` and without numpy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import boolops
from boolops.operators import DiagonalOperator
from boolops.verify import run_suite

COMMUTATION = "pairwise commutation (dense)"


def run_python(*args):
    src = Path(boolops.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, encoding="utf-8", timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def corrupt_dense(monkeypatch, diagonal):
    """Make ``dense()`` of the operator with this diagonal carry a 1 at
    entry (0, 1); every other operator keeps its true matrix."""
    dense = DiagonalOperator.dense

    def corrupted(self, **kwargs):
        matrix = dense(self, **kwargs)
        if self.diagonal != diagonal:
            return matrix
        return ((matrix[0][0], 1, *matrix[0][2:]), *matrix[1:])

    monkeypatch.setattr(DiagonalOperator, "dense", corrupted)


def failures(arity):
    return {r.name: r.detail for r in run_suite(arity) if not r.passed}


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_commutation_fails_on_corrupt_observable(monkeypatch, arity):
    # The constant-true observable is no rank-1 projector, so only its
    # own dense matrix is wrong, and only the certificate reads it.
    corrupt_dense(monkeypatch, (1,) * (1 << arity))
    failed = failures(arity)
    assert list(failed) == [COMMUTATION]
    assert "is not the development of" in failed[COMMUTATION]


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_commutation_fails_on_noncommuting_rank1_projectors(monkeypatch, arity):
    corrupt_dense(monkeypatch, (1,) + (0,) * ((1 << arity) - 1))
    failed = failures(arity)
    assert failed[COMMUTATION] == "rank-1 projectors 0 and 1 do not commute"


def test_checks_fail_under_optimize():
    # `python -O` strips assert statements; a broken suite must still fail.
    out = run_python("-O", "-c", (
        "import sys\n"
        "from boolops.operators import DiagonalOperator\n"
        "from boolops.verify import run_suite\n"
        "assert False, 'asserts are live'\n"
        "DiagonalOperator.is_projector = property(lambda self: False)\n"
        "[r] = [r for r in run_suite(1) if r.name == 'projector idempotence']\n"
        "print(sys.flags.optimize, r.passed)\n"
    ))
    assert out == ["1", "False"]


def test_verify_runs_without_numpy():
    out = run_python("-c", (
        "import contextlib, io, sys\n"
        "sys.modules['numpy'] = None\n"
        "try:\n"
        "    import numpy\n"
        "except ImportError:\n"
        "    print('blocked')\n"
        "from boolops import cli\n"
        "for a in (1, 2, 3):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(['verify', '--arity', str(a)])\n"
        "    print(code)\n"
    ))
    assert out == ["blocked", "0", "0", "0"]
