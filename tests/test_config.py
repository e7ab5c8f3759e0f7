"""Tests for repro.config: cache geometry, system variants, scales."""

import dataclasses

import pytest

from repro.config import (
    CacheConfig,
    GAINESTOWN_8CORE,
    GAINESTOWN_16CORE,
    LINE_SHIFT,
    ReproScale,
    get_scale,
)
from repro.errors import WorkloadError


class TestCacheConfig:
    def test_table1_l1d_geometry(self):
        cfg = GAINESTOWN_8CORE.l1d
        assert cfg.size_bytes == 32 * 1024
        assert cfg.associativity == 8
        assert cfg.num_sets == 64

    def test_table1_l3_geometry(self):
        cfg = GAINESTOWN_8CORE.l3
        assert cfg.size_bytes == 8 * 1024 * 1024
        assert cfg.associativity == 16
        assert cfg.num_sets == 8192

    def test_num_sets_times_ways_times_line_is_size(self):
        for cfg in (GAINESTOWN_8CORE.l1i, GAINESTOWN_8CORE.l1d,
                    GAINESTOWN_8CORE.l2, GAINESTOWN_8CORE.l3):
            assert (cfg.num_sets * cfg.associativity) << LINE_SHIFT == cfg.size_bytes

    def test_invalid_geometry_rejected(self):
        with pytest.raises(WorkloadError):
            CacheConfig("bad", size_bytes=1000, associativity=3)


class TestSystemConfig:
    def test_default_matches_table1(self):
        rows = GAINESTOWN_8CORE.table_rows()
        assert rows["Branch predictor"] == "Pentium M"
        assert "128 entry" in rows["Core"]
        assert rows["L1-I cache"] == "32K, 4-way, LRU"
        assert rows["L1-D cache"] == "32K, 8-way, LRU"
        assert rows["L2 cache"] == "256K, 8-way, LRU"
        assert rows["L3 cache"] == "8M, 16-way, LRU"

    def test_with_cores(self):
        assert GAINESTOWN_8CORE.with_cores(16).num_cores == 16
        assert GAINESTOWN_16CORE.num_cores == 16
        # Original untouched (frozen dataclass copies).
        assert GAINESTOWN_8CORE.num_cores == 8

    def test_inorder_variant(self):
        inorder = GAINESTOWN_8CORE.as_inorder()
        assert not inorder.core.out_of_order
        assert inorder.core.max_outstanding_misses == 1
        assert GAINESTOWN_8CORE.core.out_of_order

    def test_frequency(self):
        assert GAINESTOWN_8CORE.core.frequency_ghz == pytest.approx(2.66)


class TestScales:
    def test_known_scales(self):
        for name in ("tiny", "small", "full"):
            scale = get_scale(name)
            assert scale.name == name
            assert scale.slice_size_per_thread > 0

    def test_warmup_must_cover_one_slice(self):
        # Sec. III-F; every shipped scale already satisfies it.
        for name in ("tiny", "small", "full"):
            scale = get_scale(name)
            assert scale.warmup_instructions >= scale.slice_size_per_thread
            edge = dataclasses.replace(
                scale, warmup_instructions=scale.slice_size_per_thread
            )
            assert edge.warmup_instructions == scale.slice_size_per_thread
        with pytest.raises(WorkloadError, match="warmup_instructions 999"):
            ReproScale(
                name="short", slice_size_per_thread=1000,
                warmup_instructions=999, input_scale={"test": 1.0},
            )

    def test_slice_size_scales_with_threads(self):
        scale = get_scale("small")
        assert scale.slice_size(8) == 8 * scale.slice_size_per_thread
        assert scale.slice_size(16) == 2 * scale.slice_size(8)

    def test_unknown_scale_rejected(self):
        with pytest.raises(WorkloadError):
            get_scale("enormous")

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert get_scale().name == "tiny"
        monkeypatch.delenv("REPRO_SCALE")
        assert get_scale().name == "small"

    def test_ref_larger_than_train(self):
        scale = get_scale("small")
        assert scale.input_scale["ref"] > scale.input_scale["train"]
