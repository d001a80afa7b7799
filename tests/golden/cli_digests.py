"""Byte-identity gate for the ``boolops`` command line.

``cli_digests.txt`` beside this script holds one line per invocation: the
argv as a JSON list, the exit code, and the sha256 of what the command
wrote to standard output and to standard error, separated by tabs.  Each
argv runs in-process through ``boolops.cli.main``.

    PYTHONPATH=src python tests/golden/cli_digests.py          # rewrite the file
    PYTHONPATH=src python tests/golden/cli_digests.py --check  # compare it

``--check`` prints each line that differs and exits 1.  Without
``PYTHONPATH`` the script checks the installed package.  It uses the
standard library only, so a plain install without the test extras can
run it.  A change that alters output on purpose rewrites the file and
says which lines changed and why.

Left out on purpose: argparse usage errors, whose text differs between
Python versions, and structured ``expect`` on any state but ``uniform``
at an even arity.  There every amplitude and probability is a power of
two, so each float sum is exact; elsewhere the printed value may change
in its last bits, because ``sum()`` compensates rounding from Python
3.12 on.  Text ``expect`` prints 12 significant digits, so it is kept.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

DIGESTS = Path(__file__).with_name("cli_digests.txt")
MAX_ARITY = 14
STRUCTURED = ["--output", "structured"]

#: Formulas that together use every connective and the Unicode spellings,
#: each with an assignment to evaluate it at.
_MIXED = [
    ("x -> y", "10"),
    ("x <- y", "01"),
    ("x <-> !y", "11"),
    ("x !-> (y !<- z)", "101"),
    ("x nand (y nand z)", "110"),
    ("x nor y nor z", "000"),
    ("maj(x, y, z)", "011"),
    ("(x <-> y) <-> z", "100"),
    ("x ∧ ¬y ∨ z ⊕ r", "1001"),
    ("(x ⇒ y) ≡ (¬y ⇒ ¬x)", "01"),
    ("t & x | f", "1"),
]

#: The malformed inputs of the cli-small benchmark workload.
_PARSE_ERRORS = ["a & (b |", "(a | b", "a -> b -> c", "a $ b", "maj(a, b)", ""]
_DOMAIN_ERRORS = [
    ["eval", "a & b", "101"],
    ["eval", "a & b", "1x"],
    ["table", "a | b", "--vars", "a"],
    ["table", "a", "--vars", "a,a"],
    ["table", "a", "--vars", "a,1b"],
    ["table", "a & b & c", "--arity-cap", "2"],
    ["poly", "a & b & c", "--arity-cap", "2"],
    ["observable", "a & b & c", "--arity-cap", "2"],
    ["expect", "a & b & c", "uniform", "--arity-cap", "2"],
    ["table", "1", "--arity-cap", "-1"],
    ["expect", "a ^ b", "0,0,0,0"],
    ["expect", "a ^ b", "1,0,0"],
    ["expect", "a ^ b", "1,nan,0,0"],
    ["expect", "a ^ b", "1,zz,0,0"],
    ["index", "011"],
    ["index", "01a1"],
    ["index", ""],
    ["index", "--arity", "-1", "0"],
    ["index", "--arity", "2", "16"],
    ["index", "--arity", "2", "-1"],
    ["index", "--arity", "2", "1.5"],
    ["index", "--arity", "25", "0"],
    ["index", "--arity", "25", "abc"],
    ["verify", "--arity", "-1"],
    ["verify", "--arity", "0"],
    ["verify", "--arity", "4"],
    ["observable", "a & b", "--dense", "--dense-cap", "1"],
]


def _dense(n: int) -> str:
    """Parity of ``n`` variables: every monomial is present."""
    return " ^ ".join(f"v{i}" for i in range(n)) or "1"


def _sparse(n: int) -> str:
    """One true row: a conjunction of alternately negated variables."""
    return " & ".join(f"{'!' if i % 2 == 0 else ''}v{i}" for i in range(n)) or "0"


def invocations() -> list[list[str]]:
    """Every argv the digest file covers, in file order."""
    runs = []
    for n in range(MAX_ARITY + 1):
        bits = ("10" * n)[:n]
        index = str((1 << (1 << min(n, 8))) // 3)
        for formula in (_dense(n), _sparse(n)):
            for mode in ([], STRUCTURED):
                runs += [
                    ["table", formula, *mode],
                    ["poly", formula, *mode],
                    ["poly", formula, "--canonical", *mode],
                    ["observable", formula, *mode],
                    ["eval", formula, bits, *mode],
                ]
                if not mode or n % 2 == 0:
                    runs.append(["expect", formula, "uniform", *mode])
                if n <= 3:
                    runs.append(["observable", formula, "--dense", *mode])
        for mode in ([], STRUCTURED):
            runs.append(["index", "--arity", str(n), index, *mode])
            if n <= 6:
                runs.append(["index", ("01101001" * 8)[: 1 << n], *mode])
    for formula, bits in _MIXED:
        for mode in ([], STRUCTURED):
            runs += [
                ["table", formula, *mode],
                ["poly", formula, *mode],
                ["poly", formula, "--canonical", *mode],
                ["observable", formula, "--dense", *mode],
                ["eval", formula, bits, *mode],
            ]
        runs.append(["expect", formula, "uniform", "--vars", "x,y,z,r"])
    runs += [
        ["table", "x", "--vars", "x,y,z"],
        ["poly", "y", "--vars", "x,y,z", *STRUCTURED],
        ["observable", "x", "--vars", "y,x", "--dense"],
        ["expect", "x ^ y", "0.6,0,0,0.8j"],
        ["expect", "x", "1,1"],
        ["expect", "x", "(1+1j),1"],
        ["observable", "x ^ y ^ z", "--dense", "--dense-cap", "3"],
    ]
    for arity in ("1", "2", "3"):
        for mode in ([], STRUCTURED):
            runs.append(["verify", "--arity", arity, *mode])
    for text in _PARSE_ERRORS:
        for command in ("table", "poly", "observable"):
            runs.append([command, text])
    runs += _DOMAIN_ERRORS
    return runs


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_line(argv: list[str]) -> str:
    """Run ``argv`` through ``boolops.cli.main`` and describe its outcome."""
    from boolops.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    fields = (json.dumps(argv), str(code), _sha256(out.getvalue()), _sha256(err.getvalue()))
    return "\t".join(fields)


def read_digests() -> list[str]:
    return DIGESTS.read_text(encoding="utf-8").splitlines()


def mismatches(lines: list[str]) -> list[str]:
    """Each line of ``lines`` whose argv no longer gives the recorded
    outcome, with the outcome it gives now."""
    found = []
    for line in lines:
        now = digest_line(json.loads(line.split("\t", 1)[0]))
        if now != line:
            found.append(f"recorded {line}\n     now {now}")
    return found


def main() -> int:
    args = sys.argv[1:]
    if args == ["--check"]:
        lines = read_digests()
        found = mismatches(lines)
        print("\n".join(found) or f"all {len(lines)} invocations match")
        return 1 if found else 0
    if args:
        print(__doc__, file=sys.stderr)
        return 2
    lines = list(map(digest_line, invocations()))
    DIGESTS.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    print(f"wrote {len(lines)} invocations to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
