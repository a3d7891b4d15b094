"""Tests for the A/B pair driver bench/ab.py, with no benchmark run."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "bench" / "ab.py"


@pytest.fixture
def ab():
    spec = importlib.util.spec_from_file_location("bench_ab", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairs_alternate_and_summary_follows_the_spec(ab, monkeypatch):
    bench = ab.spec()
    workloads = [w["name"] for w in bench["workloads"]]
    calls = []

    def stub(root, seed):
        side = "parent" if root == "/parent" else "change"
        calls.append(side)
        return f"{side} run {len(calls)}"

    monkeypatch.setattr(ab, "run", stub)
    runs = ab.pairs("/parent", 0, 4)
    assert calls == ["parent", "change", "change", "parent"] * 2
    assert [r["parent"] for r in runs] == [
        f"parent run {k}" for k in (1, 4, 5, 8)]

    def fake_runs(step):
        # the change moves each metric by step x its bound in three of
        # four pairs and by -step x its bound in the fourth
        return [{side: {wl: {"attempted": 10, "failed": int(side == "change"),
                             **{m["name"]: 100.0 * (1.0 + move * m["bound"])
                                for m in bench["end_to_end"]}}
                        for wl in workloads}
                 for side, move in (("parent", 0.0),
                                    ("change", step if i < 3 else -step))}
                for i in range(4)]

    for step in (0.999, 1.001, -0.999, -1.001):
        summary = ab.summarize(fake_runs(step))
        assert sorted(summary) == sorted(workloads)
        for wl in workloads:
            assert summary[wl]["failed"] == {"parent": [0] * 4,
                                             "change": [1] * 4}
            for m in bench["end_to_end"]:
                entry = summary[wl][m["name"]]
                up = (step > 0) == (m["better"] == "higher")
                assert entry["change_wins"] == (3 if up else 1)
                assert entry["parent_iqr_over_median"] == 0.0
                assert entry["within_bound"] is (up or abs(step) < 1.0)
