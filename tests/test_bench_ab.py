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
            assert summary[wl]["peak_rss_fit"] is None  # equal counts

    # peak RSS 40 MB + 16 KB a query on the parent, 30 MB + 8 KB on the
    # change, which attempts 50 queries more in every pair
    runs = fake_runs(0.0)
    for i, pair in enumerate(runs):
        for side, mb, kb in (("parent", 40.0, 16.0), ("change", 30.0, 8.0)):
            for r in pair[side].values():
                r["attempted"] = 100 * (i + 1) + 50 * (side == "change")
                r["peak_rss_mb"] = mb + kb / 1024.0 * r["attempted"]
    for entry in ab.summarize(runs).values():
        fit = entry["peak_rss_fit"]
        assert [*fit["parent"].values(), *fit["change"].values(),
                fit["change_mb_at_parent_median_attempted"]] == pytest.approx(
            [40.0, 16.0, 30.0, 8.0, 30.0 + 8.0 / 1024.0 * 250.0])
