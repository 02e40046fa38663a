"""Byte-identity of the command line against recorded invocations.

`tests/data/cli_golden.json` holds (exit code, stdout, stderr) of
`certiprob.cli.main` for every subcommand in all three formats, global
flags before and after the subcommand, the reachable error envelopes,
help at top, group and leaf level, and usage errors.  Arguments written
`{name}` stand for a file whose text is stored under `files`.  argparse
wraps help to the terminal width, so replays run with COLUMNS fixed to
the recorded value; help and usage text is compared only under the
Python minor version it was recorded with, since argparse's wording
differs between versions.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from certiprob import cli

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


def _argparse_text(case) -> bool:
    return case["exit"] == 2 or "--help" in case["argv"] or "-h" in case["argv"]


@pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=[" ".join(c["argv"]) for c in GOLDEN["cases"]]
)
def test_replay_is_byte_identical(case, tmp_path, monkeypatch):
    if _argparse_text(case) and "%d.%d" % sys.version_info[:2] != GOLDEN["python"]:
        pytest.skip(f"argparse text recorded under Python {GOLDEN['python']}")
    monkeypatch.setenv("COLUMNS", str(GOLDEN["columns"]))
    files = {}
    for name, text in GOLDEN["files"].items():
        files[name] = tmp_path / name
        files[name].write_text(text)
    argv = [str(files[a[1:-1]]) if a.startswith("{") else a for a in case["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert (code, out.getvalue(), err.getvalue()) == (
        case["exit"], case["stdout"], case["stderr"]
    )


def test_success_envelopes_are_strict_json(tmp_path, monkeypatch):
    # json.dumps writes inf and nan as Infinity and NaN, which RFC 8259 has
    # no form for; every recorded success is rerun in JSON and parsed with
    # those constants refused
    monkeypatch.setenv("COLUMNS", str(GOLDEN["columns"]))
    files = {}
    for name, text in GOLDEN["files"].items():
        files[name] = tmp_path / name
        files[name].write_text(text)

    def no_constant(name):
        raise ValueError(f"{name} in {' '.join(case['argv'])}")

    cases = [c for c in GOLDEN["cases"] if c["exit"] == 0 and not _argparse_text(c)]
    for case in cases:
        argv = [str(files[a[1:-1]]) if a.startswith("{") else a for a in case["argv"]]
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            assert cli.main(argv + ["--format", "json"]) == 0
        assert isinstance(json.loads(out.getvalue(), parse_constant=no_constant)["result"], dict)
