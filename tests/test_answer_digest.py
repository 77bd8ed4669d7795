"""tools/answer_digest.py compares answers only: a memo a representation
fills on first use is not part of the answer it is digested in.  Its
--workload option digests only the named workloads, and its digests of
seeds 1, 2 and 3 are pinned in tests/fixtures/answer_digest.golden.txt."""

import importlib.util
import json
import pathlib
import subprocess
import sys

from helpers import kronecker_rep
from quivermoduli import GF, JobConfig, stability_verdict

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _answer_digest():
    spec = importlib.util.spec_from_file_location(
        "answer_digest", ROOT / "tools" / "answer_digest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_filled_memo_leaves_the_digest_unchanged():
    plain = _answer_digest().plain
    w = kronecker_rep(GF(3), [1, 2])
    before = json.dumps(plain(w), sort_keys=True)
    assert stability_verdict(w, {"s": 1, "t": -1}, JobConfig()).is_stable
    assert w.certificates
    assert json.dumps(plain(w), sort_keys=True) == before


def _digest_lines(*args):
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "answer_digest.py"), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    return run.returncode, run.stdout.splitlines(), run.stderr


def test_workload_option_digests_only_the_named_workloads():
    code, both, err = _digest_lines("1", "--workload", "census_closure", "--workload", "stability_queries")
    assert code == 0, err
    assert [line.split()[:2] for line in both] == [["census_closure", "1"], ["stability_queries", "1"]]
    # the option may come before the seeds, and one workload digests alike alone
    code, alone, err = _digest_lines("--workload", "census_closure", "1")
    assert code == 0 and alone == both[:1], err
    code, _, err = _digest_lines("1", "--workload", "no_such_workload")
    assert code == 2 and "invalid choice" in err


def test_answers_match_the_golden_digest():
    # every answer of the four benchmark workloads at seeds 1, 2 and 3, as
    # the digest tool prints them; a changed line is a changed answer
    code, lines, err = _digest_lines("1", "2", "3")
    assert code == 0, err
    golden = (ROOT / "tests" / "fixtures" / "answer_digest.golden.txt").read_text().splitlines()
    assert lines == golden


def test_runs_started_at_once_both_print_the_golden_line():
    # the Hamilton files sit in one fixed directory, since the CLI's answers
    # print their paths; the tool's lock makes two runs started at once take
    # turns there instead of deleting each other's files
    command = [sys.executable, str(ROOT / "tools" / "answer_digest.py"), "--workload", "arith_pipeline", "1"]
    runs = [
        subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
        for _ in range(2)
    ]
    golden = (ROOT / "tests" / "fixtures" / "answer_digest.golden.txt").read_text().splitlines()
    for run in runs:
        out, err = run.communicate()
        assert run.returncode == 0, err
        assert out.splitlines() == [golden[3]]
