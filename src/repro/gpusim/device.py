"""GPU device descriptions."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DeviceSpec", "V100"]


@dataclass(frozen=True)
class DeviceSpec:
    """The device parameters the timing model consumes."""

    name: str
    n_sms: int
    cores_per_sm: int
    clock_hz: float
    dram_bandwidth_bps: float
    dram_bytes: int
    max_threads_per_sm: int
    warp_size: int = 32

    @property
    def n_cores(self) -> int:
        return self.n_sms * self.cores_per_sm

    @property
    def peak_int_ops_per_s(self) -> float:
        """Peak simple-integer (bitwise AND / popcount) throughput."""
        return self.n_cores * self.clock_hz


# V100 SXM2 16 GB — the Summit GPU.
V100 = DeviceSpec(
    name="V100-SXM2-16GB",
    n_sms=80,
    cores_per_sm=64,
    clock_hz=1.53e9,
    dram_bandwidth_bps=900e9,
    dram_bytes=16 * 1024**3,
    max_threads_per_sm=2048,
)
