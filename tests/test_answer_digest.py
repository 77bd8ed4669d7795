"""tools/answer_digest.py compares answers only: a memo a representation
fills on first use is not part of the answer it is digested in."""

import importlib.util
import json
import pathlib

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
