"""The comparison engine end-to-end (sockets: small, deterministic)."""

import json

import pytest

from repro.bench.report import write_artifact
from repro.compare import (
    COMPARE_SCHEMA,
    compare_to_dict,
    run_compare,
)


@pytest.fixture(scope="module")
def sockets_result():
    return run_compare("sockets")


class TestRunCompare:
    def test_claim_holds(self, sockets_result):
        assert sockets_result.holds
        assert all(c["holds"] for c in sockets_result.claim["checks"])

    def test_reproduces_the_section_4_3_numbers(self, sockets_result):
        ordered = sockets_result.summaries["baseline"]
        unordered = sockets_result.summaries["redesigned"]
        assert ordered["interface"] == "sockets-ordered"
        assert unordered["interface"] == "sockets-unordered"
        # The headline §4.3 numbers: unordered 13/13 conflict-free on the
        # scalable kernel, ordered 0/5.
        assert unordered["total_tests"] == 13
        assert unordered["conflict_free"]["scalefs"] == 13
        assert ordered["total_tests"] == 5
        assert ordered["conflict_free"]["scalefs"] == 0

    def test_sweeps_carry_both_sides(self, sockets_result):
        assert set(sockets_result.sweeps) == {"baseline", "redesigned"}
        assert sockets_result.sweeps["baseline"].interface \
            == "sockets-ordered"
        assert sockets_result.sweeps["redesigned"].interface \
            == "sockets-unordered"

    def test_cache_serves_the_second_run(self, tmp_path):
        cache = str(tmp_path / "cache.json")
        first = run_compare("sockets", cache=cache)
        second = run_compare("sockets", cache=cache)
        assert first.summaries == second.summaries
        assert all(s.computed_pairs == 0 and s.cached_pairs == 3
                   for s in second.sweeps.values())

    def test_cache_file_is_loaded_once_per_run(self, tmp_path, monkeypatch):
        from repro.pipeline import cache as cache_mod

        loads = []
        original = cache_mod.ResultCache.__init__

        def counting_init(self, path, *args, **kwargs):
            loads.append(path)
            return original(self, path, *args, **kwargs)

        monkeypatch.setattr(cache_mod.ResultCache, "__init__",
                            counting_init)
        run_compare("sockets", cache=str(tmp_path / "cache.json"))
        assert len(loads) == 1


class TestArtifact:
    def test_schema_round_trip(self, sockets_result, tmp_path):
        path = write_artifact(str(tmp_path / "compare_sockets.json"),
                              compare_to_dict(sockets_result))
        raw = json.load(open(path))
        assert raw["schema"] == COMPARE_SCHEMA
        assert raw["name"] == "sockets"
        assert raw["ncores"] == 4
        assert raw["tests_per_path"] == 1
        assert raw["baseline"]["interface"] == "sockets-ordered"
        assert raw["redesigned"]["interface"] == "sockets-unordered"
        for side in ("baseline", "redesigned"):
            summary = raw[side]["summary"]
            assert set(summary) >= {
                "interface", "ops", "pairs", "explored_paths",
                "commutative_paths", "commutative_fraction",
                "total_tests", "conflict_free",
                "conflict_free_fraction", "mismatches",
            }
        assert raw["claim"]["holds"] is True
        kinds = [c["kind"] for c in raw["claim"]["checks"]]
        assert "commutative_fraction_higher" in kinds
