"""The hardware-agnostic ``Platform`` interface.

The paper's claims are comparative -- RPU vs H100/H200 at ISO-TDP,
disaggregated vs GPU-only fleets -- but historically the repository
exposed two parallel APIs for the two hardware families
(``decode_step_perf(RpuSystem, ...)`` vs ``gpu.inference.decode_step``),
and the fleet simulator hardcoded GPU-prefill/RPU-decode pod types.
``Platform`` is the single surface both serving layers consume: what a
pod must know about its hardware to play *any* role in a fleet --

- **prefill cost**: (duration, average power) of computing a prompt's KV;
- **decode-step cost**: (latency, energy) of one token step for a batch;
- **KV capacity policy**: memory left for KV after the hosted weights;
- **dtype policy**: the storage dtypes the hardware prefers to serve at;
- **TDP**: the power envelope ISO-power sizing matches against;
- **hand-off cost**: the bandwidth at which KV streams *into* this
  platform's memory from a remote prefill engine.

Concrete implementations (:class:`repro.platform.RpuPlatform`,
:class:`repro.platform.GpuPlatform`) wrap the existing analytical
models unchanged, so platform-routed numbers are bit-identical to the
direct-model numbers -- pinned by the parity tests.  New hardware is a
new ``Platform`` subclass plus a registry entry; fleet topology becomes
configuration, not code.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.models.dtypes import DType

if TYPE_CHECKING:
    from collections.abc import Sequence

    from repro.models.config import ModelConfig
    from repro.models.workload import Workload

#: Ring-Station external network bandwidth (100 Gb Ethernet) -- the
#: default rate at which prefilled KV streams into a platform's memory.
KV_TRANSFER_BYTES_PER_S = 100e9 / 8

#: Host interrupt + token collection overhead per decode step (the
#: paper's deployment model: the host is interrupted once per token).
HOST_TURNAROUND_S = 2e-6


@dataclass(frozen=True)
class StepCost:
    """Cost of one decode step on a platform."""

    latency_s: float
    energy_j: float

    @property
    def avg_power_w(self) -> float:
        return self.energy_j / self.latency_s if self.latency_s else 0.0


class Platform(abc.ABC):
    """One hardware family's serving contract.

    Implementations must be cheap value objects (frozen dataclasses):
    the fleet simulator constructs pods from them freely and relies on
    their methods being pure functions of (platform, workload).
    """

    # -- identity ------------------------------------------------------
    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Human-readable platform label (e.g. ``rpu-128cu``)."""

    @property
    @abc.abstractmethod
    def engine(self) -> object:
        """The underlying system object (``RpuSystem``/``GpuSystem``/...)."""

    # -- envelope ------------------------------------------------------
    @property
    @abc.abstractmethod
    def tdp_w(self) -> float:
        """Sustained power envelope (the ISO-TDP sizing target)."""

    @property
    @abc.abstractmethod
    def mem_capacity_bytes(self) -> float:
        """Total memory capacity (weights + KV must fit here)."""

    def fits(self, required_bytes: float) -> bool:
        return self.mem_capacity_bytes >= required_bytes

    # -- step costs ----------------------------------------------------
    @abc.abstractmethod
    def prefill(self, workload: "Workload") -> tuple[float, float]:
        """(duration_s, average_power_w) of prefilling the workload's
        prompt (``workload.prefill_len`` tokens per sequence)."""

    @abc.abstractmethod
    def decode_step(
        self, workload: "Workload", *, check_capacity: bool = True
    ) -> StepCost:
        """Latency/energy of one decode step (every sequence in the
        batch advances one token).

        ``check_capacity=True`` raises :class:`ValueError` when the
        workload cannot fit -- the single-query contract.  With
        ``check_capacity=False`` the platform must return a best-effort
        cost instead (the fleet path: admission control already bounded
        the *reserved* footprint; the evaluated batch-mean point may
        transiently overshoot it).
        """

    def decode_step_row(
        self, workload: "Workload", seq_lens: "Sequence[int]"
    ) -> "list[StepCost] | None":
        """``decode_step(workload.with_seq_len(s), check_capacity=False)``
        for every ``s`` in ``seq_lens``, bit-identical, from one
        vectorized evaluation -- or ``None`` when the platform has no
        such path (the default), in which case callers use
        :meth:`decode_step` per context."""
        return None

    # -- KV policy -----------------------------------------------------
    def kv_budget_bytes(self, model: "ModelConfig", weight_dtype: DType) -> float:
        """Memory left for KV cache after hosting ``model``'s weights."""
        budget = self.mem_capacity_bytes - model.weight_bytes(weight_dtype.nbytes)
        if budget <= 0:
            raise ValueError(
                f"{model.name} weights do not fit in decode pod "
                f"({self.mem_capacity_bytes / 1e9:.0f} GB)"
            )
        return budget

    @property
    def kv_ingest_bytes_per_s(self) -> float:
        """Bandwidth at which remote prefill KV streams into this
        platform's memory (the disaggregation hand-off cost)."""
        return KV_TRANSFER_BYTES_PER_S

    # -- dtype policy --------------------------------------------------
    @property
    def preferred_weight_dtype(self) -> DType:
        """Weight storage dtype this hardware serves best."""
        return DType.MXFP4

    @property
    def preferred_kv_dtype(self) -> DType:
        """KV-cache storage dtype this hardware serves best."""
        return DType.FP8

    def __str__(self) -> str:
        return self.name
