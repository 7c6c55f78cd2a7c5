"""Golden CLI output: exit codes and machine-format bytes stay fixed.

Each command runs in-process through ``abcat.cli.main`` and is compared
with the recorded exit code, standard output and standard error, byte
for byte.  The commands are the seeded verification suites at seeds 0
and 5 (and once more in text format), the suites' option variants, the
``hx`` command, and every ``ab``, ``verify``, ``check``, ``colimit`` and
``limit`` operation on every fixture document (those of the wrong kind
record their exit code 2).

Regenerate the golden file after an intended output change with

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from abcat.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "cli_golden.jsonl"

SUITES = ("ab4", "ab5", "harting", "commute", "fixpoints", "notlex")
PER_FIXTURE = (("ab", "snf"), ("ab", "colimit"), ("ab", "limit"), ("ab", "sum"),
               ("ab", "coinvariants"), ("ab", "invariants"),
               ("verify", "ab4"), ("verify", "ab5"), ("verify", "harting"),
               ("verify", "commute"), ("verify", "fixpoints"), ("verify", "notlex"),
               ("check", "sifted"), ("check", "filtered"), ("check", "connected"),
               ("check", "final"), ("colimit",), ("limit",))
OTHER = (["hx", "--set", "a,b", "--cap", "2"],
         ["hx", "--set", "a,b,c", "--cap", "3"],
         ["hx", "--set", "a,a"],
         ["hx", "--set", "a,b,c", "--cap", "4", "--budget", "100"],
         ["verify", "harting", "--stability-cap", "3"],
         ["verify", "ab4", "--cap", "3", "--trials", "2"],
         ["verify", "commute", "--trials", "3", "--seed", "11"])


def golden_commands():
    """Argument lists, with fixture paths relative to the fixtures folder."""
    commands = [["verify", prop, "--seed", str(seed), "--format", "machine"]
                for prop in SUITES for seed in (0, 5)]
    for fixture in sorted(p.name for p in FIXTURES.glob("*.json")):
        commands.extend([*words, fixture, "--format", "machine"]
                        for words in PER_FIXTURE)
    commands.extend(argv + ["--format", "machine"] for argv in OTHER)
    commands.extend(["verify", prop, "--seed", "0"] for prop in SUITES)
    return commands


def run(argv):
    """(exit code, standard output, standard error) of one in-process call."""
    resolved = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    return code, out.getvalue(), err.getvalue()


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_cli_output_matches_golden():
    golden = load_golden()
    assert [rec["argv"] for rec in golden] == golden_commands()
    changed = [" ".join(rec["argv"]) for rec in golden
               if run(rec["argv"]) != (rec["code"], rec["out"], rec["err"])]
    assert changed == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_golden_cli.py --write")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        for argv in golden_commands():
            code, out, err = run(argv)
            fh.write(json.dumps({"argv": argv, "code": code, "out": out, "err": err},
                                sort_keys=True) + "\n")
