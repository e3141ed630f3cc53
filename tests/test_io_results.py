"""Tests for result JSON serialization."""

import pytest

from repro.core.solver import MultiHitSolver
from repro.io.results import load_result, result_to_dict, save_result


@pytest.fixture
def solved(rng):
    t = rng.random((10, 30)) < 0.4
    n = rng.random((10, 30)) < 0.1
    return MultiHitSolver(hits=2).solve(t, n)


class TestRoundTrip:
    def test_save_load(self, solved, tmp_path):
        path = tmp_path / "result.json"
        save_result(solved, path)
        back = load_result(path)
        assert [c.genes for c in back.combinations] == [
            c.genes for c in solved.combinations
        ]
        assert back.params == solved.params
        assert back.uncovered == solved.uncovered
        assert back.counters.combos_scored == solved.counters.combos_scored
        assert back.counters.threads_bounded == solved.counters.threads_bounded > 0
        assert len(back.iterations) == len(solved.iterations)
        assert back.coverage == pytest.approx(solved.coverage)

    def test_dict_is_json_clean(self, solved):
        import json

        payload = json.dumps(result_to_dict(solved))
        assert "combinations" in payload

    def test_iteration_details_preserved(self, solved, tmp_path):
        path = tmp_path / "r.json"
        save_result(solved, path)
        back = load_result(path)
        for a, b in zip(solved.iterations, back.iterations):
            assert a.newly_covered == b.newly_covered
            assert a.tumor_words == b.tumor_words
            assert a.combination.genes == b.combination.genes


class TestVersionSkew:
    def test_loads_files_with_retired_counters(self, solved, tmp_path):
        """Files written by older engines carry counters no engine keeps:
        the block table's block counts, the best-first engine's thread
        counts and the sparse scoring body's four.  They load, and the
        kept counters survive."""
        import json

        payload = result_to_dict(solved)
        retired = {
            "blocks_scanned": 3, "blocks_skipped": 4,
            "threads_scanned": 9, "threads_skipped": 10,
            "strides_skipped_sparse": 5, "prefix_and_hits": 6,
            "zero_prefix_runs_skipped": 7, "word_reads_skipped": 8,
        }
        payload["counters"].update(retired)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        back = load_result(path)
        assert back.counters.combos_scored == solved.counters.combos_scored
        assert back.counters.word_reads == solved.counters.word_reads
        assert [c.genes for c in back.combinations] == [
            c.genes for c in solved.combinations
        ]
        for name in retired:
            assert getattr(back.counters, name, 0) == 0
