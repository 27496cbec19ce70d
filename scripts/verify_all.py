#!/usr/bin/env python3
"""One-shot reproduction of the headline checks.

Runs the category consistency reports, both gate-identity suites, the
group orders, the witness battery, and a short protocol Monte Carlo,
through the CLI so the output matches what CI sees.  Exits nonzero if
anything fails.  Works from a checkout without installing: when the
package is not importable it is taken from the checkout's ``src/``.
"""

import sys
from pathlib import Path

try:
    from metaplectic.cli import main as cli
except ModuleNotFoundError as exc:
    if exc.name != "metaplectic":
        raise
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from metaplectic.cli import main as cli

COMMANDS = [
    ["category", "check", "su2_4"],
    ["category", "check", "so5_2"],
    ["verify", "suite", "--category", "su2_4"],
    ["verify", "suite", "--category", "so5_2"],
    ["group", "order", "--model", "su2_4-qutrit", "--projective", "--expect", "216"],
    ["group", "order", "--model", "su2_4-qutrit", "--expect", "648"],
    ["group", "order", "--model", "su2_4-qubit", "--projective", "--expect", "12"],
    ["group", "order", "--model", "su2_4-qubit", "--expect", "24"],
    ["group", "order", "--model", "so5_2-qupit", "--projective", "--cap", "10000",
     "--expect", "3000"],
    ["witness", "qutrit"],
    ["witness", "imprimitivity", "--gate", "SUM3"],
    ["witness", "imprimitivity", "--gate", "SUM5"],
    ["witness", "qupit-chain", "--p", "5"],
    ["witness", "qupit-chain", "--p", "7"],
    ["witness", "so5-partial"],
    ["protocol", "flip", "--trials", "20000", "--rounds", "8", "--seed", "1"],
]


def main():
    failures = 0
    for argv in COMMANDS:
        print(f"$ metaplectic {' '.join(argv)}")
        code = cli(argv)
        if code != 0:
            failures += 1
            print(f"-> exit {code}", file=sys.stderr)
        print()
    if failures:
        print(f"{failures} command(s) failed", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
