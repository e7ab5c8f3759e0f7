"""Simulated-system and scaling configuration.

:class:`SystemConfig` mirrors Table I of the paper (a Gainestown-like
out-of-order multicore as modelled by Sniper 7.4), plus the in-order core
variant used for the microarchitecture-portability experiment (Fig. 5b).

:class:`ReproScale` centralizes every scaled-down quantity of this
reproduction (slice sizes, warmup lengths); see DESIGN.md section 6.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from .errors import WorkloadError


#: log2 of the cache line size (64-byte lines at every level): a byte
#: address's line number is ``address >> LINE_SHIFT``.
LINE_SHIFT = 6


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    associativity: int
    hit_latency: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes % (self.associativity << LINE_SHIFT) != 0:
            raise WorkloadError(
                f"cache {self.name}: size {self.size_bytes} not divisible by "
                f"assoc*line ({self.associativity}*{1 << LINE_SHIFT})"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity << LINE_SHIFT)


@dataclass(frozen=True)
class CoreConfig:
    """One core's pipeline parameters (interval-model abstraction)."""

    frequency_ghz: float = 2.66
    dispatch_width: int = 4
    rob_entries: int = 128
    out_of_order: bool = True
    branch_mispredict_penalty: int = 15
    # Memory-level parallelism cap for overlapping long-latency misses in the
    # OoO model; the in-order model serializes misses (mlp 1).
    max_outstanding_misses: int = 8


@dataclass(frozen=True)
class MemoryConfig:
    """Latencies (cycles) beyond each cache level."""

    l2_latency: int = 8
    l3_latency: int = 30
    dram_latency: int = 120


@dataclass(frozen=True)
class SystemConfig:
    """Full simulated-system description (Table I of the paper)."""

    num_cores: int = 8
    core: CoreConfig = field(default_factory=CoreConfig)
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1-I", 32 * 1024, 4)
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1-D", 32 * 1024, 8)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("L2", 256 * 1024, 8)
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig("L3", 8 * 1024 * 1024, 16)
    )
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    branch_predictor: str = "pentium-m"

    def with_cores(self, num_cores: int) -> "SystemConfig":
        """Return a copy configured for ``num_cores`` cores."""
        return replace(self, num_cores=num_cores)

    def as_inorder(self) -> "SystemConfig":
        """Return the in-order variant used in Fig. 5b."""
        return replace(
            self,
            core=replace(self.core, out_of_order=False, dispatch_width=2,
                         max_outstanding_misses=1),
        )

    def table_rows(self) -> Dict[str, str]:
        """Rows matching Table I, for the tab01 benchmark harness."""
        core = self.core
        kind = "OoO" if core.out_of_order else "in-order"
        return {
            "Processor": f"{self.num_cores} cores, Gainestown-like microarch.",
            "Core": (f"{core.frequency_ghz:.2f} GHz, {core.rob_entries} entry "
                     f"ROB ({kind})"),
            "Branch predictor": "Pentium M",
            "L1-I cache": _cache_row(self.l1i),
            "L1-D cache": _cache_row(self.l1d),
            "L2 cache": _cache_row(self.l2),
            "L3 cache": _cache_row(self.l3),
        }


def _cache_row(cfg: CacheConfig) -> str:
    size = cfg.size_bytes
    if size >= 1024 * 1024:
        pretty = f"{size // (1024 * 1024)}M"
    else:
        pretty = f"{size // 1024}K"
    return f"{pretty}, {cfg.associativity}-way, LRU"


GAINESTOWN_8CORE = SystemConfig(num_cores=8)
GAINESTOWN_16CORE = SystemConfig(num_cores=16)


@dataclass(frozen=True)
class ReproScale:
    """Scaled-down quantities of this reproduction.

    The paper slices at ``N x 100M`` instructions for ``N`` threads and runs
    applications of 10^10..10^11 instructions.  Everything the paper reports
    is a ratio (error percentages, speedup = total work / region work), so we
    shrink both numerator and denominator uniformly and keep the shapes.
    """

    name: str
    # Per-thread slice size in instructions (paper: 100M).
    slice_size_per_thread: int
    # Warmup instructions prepended to a region checkpoint (global count).
    warmup_instructions: int
    # Multiplier applied to workload phase iteration counts per input class.
    input_scale: Dict[str, float]

    def __post_init__(self) -> None:
        # Sec. III-F: checkpoint warmup must cover at least one per-thread
        # slice of history, or a region starts from unrepresentative
        # microarchitectural state.
        if self.warmup_instructions < self.slice_size_per_thread:
            raise WorkloadError(
                f"scale {self.name!r}: warmup_instructions "
                f"{self.warmup_instructions} < slice_size_per_thread "
                f"{self.slice_size_per_thread}; warmup must cover at least "
                f"one per-thread slice"
            )

    def slice_size(self, nthreads: int) -> int:
        """Global slice-size target for an ``nthreads`` application."""
        return self.slice_size_per_thread * nthreads


_SCALES = {
    "tiny": ReproScale(
        name="tiny",
        slice_size_per_thread=2_000,
        warmup_instructions=4_000,
        input_scale={"test": 0.25, "train": 1.0, "ref": 6.0,
                     "A": 0.5, "B": 1.0, "C": 1.5},
    ),
    "small": ReproScale(
        name="small",
        slice_size_per_thread=8_000,
        warmup_instructions=16_000,
        input_scale={"test": 0.25, "train": 1.0, "ref": 12.0,
                     "A": 0.5, "B": 1.0, "C": 2.0},
    ),
    "full": ReproScale(
        name="full",
        slice_size_per_thread=25_000,
        warmup_instructions=50_000,
        input_scale={"test": 0.25, "train": 1.0, "ref": 25.0,
                     "A": 0.5, "B": 1.5, "C": 3.0},
    ),
}


def resolve_jobs(jobs: int, name: str = "jobs") -> int:
    """Worker processes for ``jobs``: ``0`` means "one worker per CPU".

    Raises :class:`WorkloadError` for a negative count; ``name`` is the
    setting the count came from, for the message.
    """
    if jobs < 0:
        raise WorkloadError(f"{name} must be >= 0, got {jobs}")
    return jobs or os.cpu_count() or 1


def default_jobs() -> int:
    """Default simulation parallelism.

    Honours the ``REPRO_JOBS`` environment variable (like ``REPRO_SCALE``
    for sizing), resolved by :func:`resolve_jobs`.  Falls back to ``1``
    (serial) — parallel dispatch is strictly opt-in.
    """
    raw = os.environ.get("REPRO_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        raise WorkloadError(
            f"REPRO_JOBS must be an integer, got {raw!r}"
        ) from None
    return resolve_jobs(jobs, "REPRO_JOBS")


def get_scale(name: str = "") -> ReproScale:
    """Look up a :class:`ReproScale` by name.

    With no argument, honours the ``REPRO_SCALE`` environment variable and
    falls back to ``small``.
    """
    key = name or os.environ.get("REPRO_SCALE", "small")
    try:
        return _SCALES[key]
    except KeyError:
        raise WorkloadError(
            f"unknown scale {key!r}; choose from {sorted(_SCALES)}"
        ) from None


def default_trace_value() -> Optional[str]:
    """The ``REPRO_TRACE`` environment value, or ``None`` when tracing is
    off.

    ``0``/``false``/``off``/``no`` (and unset/empty) disable tracing;
    ``1``/``true``/``on``/``yes`` enable it at the CLI's default trace
    path; anything else is taken as an explicit trace-file path.  This
    is a CLI-level default (``--trace`` overrides it) — the library only
    traces when its options carry a path explicitly.
    """
    raw = os.environ.get("REPRO_TRACE", "").strip()
    if raw.lower() in ("", "0", "false", "off", "no"):
        return None
    return raw
