"""Smoke tests of the scripts: each runs to exit 0 on a small trial count,
and the counts a survey prints add up to the trials.  The README's
examples run too, as written."""

import io
import json
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
COUNT = re.compile(r"^  (\S.*?)\s+(\d+)  \(\d+\.\d%\)$")


def python(*args):
    """Run this interpreter on args in the repository root, with the
    library on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def launch(name, *args):
    return python(str(ROOT / "scripts" / name), *map(str, args))


def run_script(name, *args):
    proc = launch(name, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def counts(lines):
    """{label: count} of the ``  label  count  (pct%)`` lines."""
    return {m[1]: int(m[2]) for m in map(COUNT.match, lines) if m}


@pytest.mark.parametrize("fan", [None, "fixtures/L34.json"])
def test_membership_probe(fan):
    out = run_script("membership_probe.py", "--trials", 30, "--seed", 1, *(["--fan", fan] if fan else []))
    tally = counts(out.splitlines())
    assert set(tally) == {"member", "non-member"}
    assert sum(tally.values()) == 30


def test_smoothness_survey():
    out = run_script("smoothness_survey.py", "--trials", 20)
    head, *sections = out.split("\nambient dimension ")
    assert head.count("all smooth") == 4
    assert [s.split(" ", 1)[0] for s in sections] == ["2", "3", "4"]
    for section in sections:
        tally = counts(section.splitlines())
        assert set(tally) <= {"smooth", "weight > 1", "rank deficit", "lattice index"}
        assert sum(tally.values()) == 20


def test_cold_start():
    # one process per request and checkout, against this same checkout
    *table, last = run_script("cold_start.py", "-n", 1, "--against", ROOT).splitlines()
    requests = ["import tropfan", "poly eval", "fan smooth", "member", "snf"]
    assert [line[:16].strip() for line in table[1:]] == requests
    assert all(line.endswith(" of 1") for line in table[1:])
    seconds = json.loads(last)["seconds"]
    assert list(seconds) == requests
    assert all(len(times) == 1 and times[0] > 0 for sides in seconds.values() for times in sides.values())


@pytest.mark.parametrize("name, args", [
    ("membership_probe.py", ["--trials", 0]),
    ("membership_probe.py", ["--span", -1]),
    ("membership_probe.py", ["-n", 2, "-r", 9]),
    ("membership_probe.py", ["--fan", "fixtures/no_such_fan.json"]),
    ("membership_probe.py", ["--fan", "README.md"]),
    ("smoothness_survey.py", ["--max-weight", 0]),
    ("smoothness_survey.py", ["--trials", -1]),
    ("cold_start.py", ["-n", 0]),
    ("cold_start.py", ["--against", "fixtures"]),
])
def test_bad_arguments_are_usage_errors(name, args):
    # argparse's exit 2 with its one error line, never a traceback
    proc = launch(name, *args)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
    assert proc.stderr.splitlines()[-1].startswith(f"{name}: error: ")


def readme_block(heading, lang):
    """The first ```lang block after a README heading."""
    section = (ROOT / "README.md").read_text().split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_examples():
    # the quick tour prints what its comments say it prints
    tour = readme_block("## Library quick tour", "python")
    out = io.StringIO()
    with redirect_stdout(out):
        exec(tour, {})
    printed = out.getvalue().splitlines()
    calls = [line for line in tour.splitlines() if line.startswith("print(")]
    assert len(printed) == len(calls), printed
    stated = [(got, m[1]) for got, line in zip(printed, calls)
              if (m := re.search(r"# (True|False|-?\d+(?:/\d+)?)\b", line))]
    assert [want for _, want in stated] == ["1/2", "False", "True"]
    assert all(got == want for got, want in stated), stated
    # the experiment scripts run as the README writes them, on this interpreter
    commands = readme_block("## Experiment scripts", "sh").splitlines()
    assert len(commands) == 3
    for command in commands:
        interpreter, *args = shlex.split(command)
        assert interpreter == "python3"
        proc = python(*args)
        assert proc.returncode == 0 and "Traceback" not in proc.stderr, (command, proc.stderr)
