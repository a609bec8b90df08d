"""The corpus script at toy size: the summary schema and --compare."""

import contextlib
import io
import json
import tempfile

import pytest

import corpus
from specdbl.diagnostics import example_counterexample
from specdbl.groups import FiniteAbelianGroup, random_subset
from specdbl.refine import RefineConfig

KEYS = {"corpus", "run", "orders", "size", "theorem", "epsilon", "alpha", "a_ratio", "doubling",
        "K", "actions", "a_star", "rho_star", "terminated", "certified", "verdicts", "audit_ok",
        "trace_sha256"}


def _toy_summaries():
    cfg = RefineConfig(epsilon=0.4, delta=0.3, seed=3, max_iterations=40)
    inputs = [("example1-n3", example_counterexample(3).members, 1),
              ("3x5x7-random", random_subset(FiniteAbelianGroup((3, 5, 7)), 20, seed=1), 2)]
    with tempfile.TemporaryDirectory() as workdir:
        return [corpus.summarise("toy", name, members, theorem, cfg, workdir)
                for name, members, theorem in inputs]


def test_summary_schema(tmp_path):
    summaries = _toy_summaries()
    for s in summaries:
        assert set(s) == KEYS
        assert s["audit_ok"] and s["terminated"] == "finished"
        assert s["actions"][-1] == "finish"
        assert sum(s["verdicts"].values()) == len(s["actions"])
        assert 1 <= s["a_star"] <= s["size"] and 0 < s["rho_star"] <= 1
        assert 0 < s["alpha"] <= 1 and len(s["trace_sha256"]) == 64
        assert s["a_ratio"] == s["size"] / s["a_star"]
        assert 1 <= s["doubling"] and 1 <= s["K"]
    assert summaries[0]["size"] == 15 and summaries[0]["orders"] == [2] * 6
    path = tmp_path / "summary.json"
    corpus.write_summary(path, summaries)
    assert corpus.read_summary(path) == json.loads(json.dumps(summaries))
    path.write_text(json.dumps({"version": 0, "runs": []}))
    with pytest.raises(ValueError, match="version"):
        corpus.read_summary(path)


def test_the_corpora_hold_their_stated_runs(tmp_path):
    c1 = list(corpus.runs("C1", tmp_path))
    assert len(c1) == 396 and len({name for name, *_ in c1}) == 396
    assert {theorem for _, _, theorem, _ in c1} == {1, 2}
    assert {(cfg.epsilon, cfg.delta, cfg.seed, cfg.max_iterations)
            for *_, cfg in c1} == {(0.1, 0.3, 3, 40), (0.4, 0.3, 3, 40)}
    again = list(corpus.runs("C1", tmp_path))  # fixed seeds: the same sets again
    assert all(a[1] == b[1] for a, b in zip(c1, again))


def test_compare_names_what_moved(tmp_path):
    old = _toy_summaries()
    new = json.loads(json.dumps(old))
    same = corpus.compare(old, new)
    assert len(same) == 3 and same[2].startswith("| toy | 2 |")
    assert same[2].endswith("| 0 | 0 |")  # no trace and no outcome moved
    new[1]["actions"] = ["minor", *new[1]["actions"]]
    new[1]["a_star"] += 1
    new[1]["trace_sha256"] = "0" * 64
    lines = corpus.compare(old, new)
    assert lines[2].endswith("| 1 | 1 |") and " -> " in lines[2]
    assert lines[-1].startswith("toy 3x5x7-random: actions ")
    assert "a_star" in lines[-1] and "rho_star" not in lines[-1]
    with pytest.raises(ValueError, match="different runs"):
        corpus.compare(old, new[:1])
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, summaries in zip(paths, (old, new)):
        corpus.write_summary(path, summaries)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert corpus.main(["--compare", *map(str, paths)]) == 0
    assert out.getvalue().splitlines() == lines
