"""RPU as a :class:`~repro.platform.base.Platform`.

Decode wraps the analytical decoupled-pipeline model
(:func:`repro.analysis.perf_model.decode_step_perf`) plus the per-token
host turnaround, exactly as the serving layers always charged it, so
platform-routed numbers match the direct-model numbers bit-for-bit.

Prefill is new: the paper pairs the RPU with GPU prefill precisely
because a bandwidth-dense design is compute-light, but a unified fleet
API must still be able to *cost* an RPU in the prefill role (inverted
or emergency topologies).  Chunked prefill runs the prompt's kernel
FLOPs on the TMAC arrays at the same 70% sustained utilization the GPU
prefill model assumes (the paper's measured H100 point), so
prefill-role comparisons measure hardware rates, not assumed optimizer
skill; power comes from the per-CU pipeline power model at that
operating point.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.analysis.perf_model import decode_step_perf, decode_step_perf_row
from repro.arch.power import cu_power, decode_tdp_per_cu
from repro.arch.specs import CU_STATIC_POWER_W
from repro.arch.system import RpuSystem
from repro.models.flops import chunked_prefill_flops
from repro.models.workload import Workload
from repro.platform.base import HOST_TURNAROUND_S, Platform, StepCost

#: Sustained TMAC utilization during chunked prefill (parity with the
#: GPU prefill model's measured 70% compute utilization).
RPU_PREFILL_COMP_UTIL = 0.70

#: Memory/network activity during compute-bound prefill, mirroring the
#: GPU model's operating point (70% compute / 35% bandwidth).
RPU_PREFILL_MEM_UTIL = 0.35
RPU_PREFILL_NET_UTIL = 0.20


@dataclass(frozen=True)
class RpuPlatform(Platform):
    """An RPU board serving prefill and/or decode."""

    system: RpuSystem
    host_turnaround_s: float = HOST_TURNAROUND_S

    @property
    def name(self) -> str:
        return f"rpu-{self.system.num_cus}cu"

    @property
    def engine(self) -> RpuSystem:
        return self.system

    @property
    def tdp_w(self) -> float:
        """Decode-phase TDP (memory at full bandwidth): the RPU's
        design point and the paper's ISO-power comparison basis."""
        return decode_tdp_per_cu(self.system.cu) * self.system.num_cus

    @property
    def mem_capacity_bytes(self) -> float:
        return self.system.mem_capacity_bytes

    def prefill(
        self, workload: Workload, *, chunk_tokens: int = 2048
    ) -> tuple[float, float]:
        if workload.prefill_len == 0:
            return 0.0, CU_STATIC_POWER_W * self.system.num_cus
        flops = chunked_prefill_flops(workload, chunk_tokens)
        duration = flops / (self.system.peak_flops * RPU_PREFILL_COMP_UTIL)
        power = (
            cu_power(
                self.system.cu,
                mem_util=RPU_PREFILL_MEM_UTIL,
                comp_util=RPU_PREFILL_COMP_UTIL,
                net_util=RPU_PREFILL_NET_UTIL,
            ).total
            * self.system.num_cus
        )
        return duration, power

    def decode_step(
        self, workload: Workload, *, check_capacity: bool = True
    ) -> StepCost:
        result = decode_step_perf(
            self.system, workload, check_capacity=check_capacity
        )
        return StepCost(
            latency_s=result.latency_s + self.host_turnaround_s,
            energy_j=result.energy_per_step_j,
        )

    def decode_step_row(
        self, workload: Workload, seq_lens: Sequence[int]
    ) -> list[StepCost] | None:
        result = decode_step_perf_row(self.system, workload, seq_lens)
        if result is None:
            return None
        latencies = (result.latency_s + self.host_turnaround_s).tolist()
        energies = result.energy_per_step_j.tolist()
        return [
            StepCost(latency_s=latency, energy_j=energy)
            for latency, energy in zip(latencies, energies)
        ]
