"""``cli.run`` answers a corpus of argv lists byte for byte as recorded.

The corpus, the files it reads and the answers (stdout, stderr and the exit
code of each request) are in ``cli_corpus.json``.  The answers were recorded
from the nested argparse dispatch at commit 47ade0f, once under each of
Python 3.10.13, 3.11.7, 3.12.1 and 3.13.0, whose argparse differ in some
usage text; an answer's key lists the versions that gave it.  So the test
does not grade the parser against itself.  Patch releases can change that
text too: 3.13.13 no longer quotes the choices of an invalid choice.  So an
answer keyed by a full release, recorded there only where it differs from
its minor version's, is read before the minor version's.

It runs under pytest, or without it::

    PYTHONPATH=src python tests/test_cli_corpus.py                    # run the tests
    PYTHONPATH=src python tests/test_cli_corpus.py --record           # add this version's answers
    PYTHONPATH=src python tests/test_cli_corpus.py --record-release   # add this release's differences
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from tropfan import cli

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).with_name("cli_corpus.json")
VERSION = "%d.%d" % sys.version_info[:2]
RELEASE = "%d.%d.%d" % sys.version_info[:3]


@contextlib.contextmanager
def _workdir(files):
    """A fresh working directory holding the fixtures and ``files``, with a
    fixed help width and no ``TROPFAN_MEMBER_BOUND``."""
    saved = os.getcwd(), os.environ.get("COLUMNS"), os.environ.pop("TROPFAN_MEMBER_BOUND", None)
    with tempfile.TemporaryDirectory() as tmp:
        for path in (ROOT / "fixtures").glob("*.json"):
            shutil.copy(path, tmp)
        for name, obj in files.items():
            Path(tmp, name).write_text(json.dumps(obj), encoding="utf-8")
        os.chdir(tmp)
        os.environ["COLUMNS"] = "80"
        try:
            yield
        finally:
            os.chdir(saved[0])
            for key, value in (("COLUMNS", saved[1]), ("TROPFAN_MEMBER_BOUND", saved[2])):
                os.environ.pop(key, None)
                if value is not None:
                    os.environ[key] = value


def answer(case) -> dict:
    """stdout, stderr and the exit code of one request; a case with
    ``sys_argv`` calls ``run()`` with that as ``sys.argv``."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.argv
    if "sys_argv" in case:
        sys.argv = list(case["sys_argv"])
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(None if "sys_argv" in case else list(case["argv"]))
    finally:
        sys.argv = saved
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def recorded(case):
    """The answer recorded under this Python's release, else under its
    version, or None."""
    for version in (RELEASE, VERSION):
        got = next((a for key, a in case["answers"].items() if version in key.split()), None)
        if got is not None:
            return got
    return None


def mismatches(corpus) -> list:
    with _workdir(corpus["files"]):
        return [(case.get("argv", case.get("sys_argv")), want, got) for case in corpus["cases"]
                if (want := recorded(case)) != (got := answer(case))]


def load():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_every_request_answers_as_recorded():
    corpus = load()
    if recorded(corpus["cases"][0]) is None:
        import pytest

        pytest.skip(f"no answers recorded under Python {VERSION}")
    bad = mismatches(corpus)
    assert not bad, f"{len(bad)} of {len(corpus['cases'])} requests answer differently, first: {bad[0]}"


def test_corpus_covers_every_subcommand():
    # each subcommand answers one valid request, and refuses a missing
    # argument, an extra positional and an unknown option
    corpus = load()
    _, leaves = cli._build_parser()
    codes = {}
    for case in corpus["cases"]:
        argv = case.get("argv", [])
        for path in leaves:
            if tuple(argv[:len(path)]) == path:
                codes.setdefault(path, []).append(next(iter(case["answers"].values()))["code"])
    assert sorted(codes) == sorted(leaves)
    assert all(codes[path].count(0) >= 1 and codes[path].count(2) >= 3 for path in leaves), codes
    assert len(corpus["cases"]) >= 60


def test_leaf_parser_sets_what_nesting_sets():
    # the namespace of every request the corpus answers, help aside, is the
    # full parser's, the group and command names included
    parser, _ = cli._build_parser()
    for case in load()["cases"]:
        first = next(iter(case["answers"].values()))
        if "argv" in case and first["code"] == 0 and not first["stdout"].startswith("usage:"):
            assert vars(cli._parse(case["argv"])) == vars(parser.parse_args(case["argv"])), case["argv"]


def _record(corpus, version):
    """Add this interpreter's answers to the corpus under ``version``.  A
    version's answer goes to the key of an equal answer when there is one,
    else under a key of its own; a release's goes under its own key, and
    only where it differs from the answer its version reads."""
    with _workdir(corpus["files"]):
        for case in corpus["cases"]:
            got = answer(case)
            answers = {key: a for key, a in case.get("answers", {}).items() if version not in key.split()}
            case["answers"] = answers
            if version == RELEASE:
                if recorded(case) != got:
                    answers[RELEASE] = got
                continue
            same = next((key for key, a in answers.items() if a == got), None)
            if same is None:
                answers[VERSION] = got
            else:
                answers[" ".join(sorted({*same.split(), VERSION}))] = answers.pop(same)
    CORPUS.write_text(json.dumps(corpus, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        _record(load(), VERSION)
    elif sys.argv[1:] == ["--record-release"]:
        _record(load(), RELEASE)
    else:
        bad = mismatches(load())
        for argv, want, got in bad:
            print(f"MISMATCH {argv}\n  recorded {want}\n  answered {got}")
        test_corpus_covers_every_subcommand()
        test_leaf_parser_sets_what_nesting_sets()
        print(f"Python {sys.version.split()[0]}: {len(bad)} mismatches")
        sys.exit(1 if bad else 0)
