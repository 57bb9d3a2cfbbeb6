"""Synthetic Google-cluster-like trace generator.

The paper drives its evaluation with one week of Google Cluster traces
(600+ VMs, 5-minute samples, per-VM memory utilization between 2% and
32%).  Those traces are not redistributable, so this generator synthesizes
traces with the statistical features the paper's machinery depends on:

* daily periodicity with per-VM phase and amplitude (ARIMA's signal),
* correlation groups — VMs sharing a group peak together (the structure
  correlation-aware allocation exploits),
* weekday/weekend modulation,
* per-VM and per-group AR(1) noise,
* abrupt bursts that defeat day-ahead prediction (Fig. 4's violations).

Generation needs only NumPy: every series' AR(1) innovations are drawn
straight into the output matrices, and each matrix is filtered by one
time-stepped recursion over all its rows
(:meth:`ClusterTraceGenerator.generate`).

Two weeks are generated by default: the policies train their forecasters
on week one and are evaluated on week two, mirroring the paper's protocol
("ARIMA considers the CPU and memory utilization from the previous week
and forecasts the next-day traces").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..perf.workload import MemoryClass
from ..units import SAMPLES_PER_DAY
from .dataset import TraceDataset
from .patterns import (
    _ar1_filter,
    _ar1_innovations,
    _burst_draws,
    diurnal_profile,
    weekly_modulation,
)
from .vm import VmSpec

_CLASS_ORDER = (MemoryClass.LOW, MemoryClass.MID, MemoryClass.HIGH)


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the synthetic cluster-trace generator.

    Attributes:
        n_vms: fleet size (the paper uses 600).
        n_days: trace length in days (default two weeks: train + evaluate).
        n_groups: number of correlation groups.
        class_weights: sampling weights of (low, mid, high)-mem classes.
        cpu_base_range_pct: per-VM mean CPU utilization range.
        cpu_diurnal_gain_range: diurnal amplitude as multiple of the base.
        cpu_noise_sigma_fraction: per-VM AR(1) noise sigma / base.
        group_noise_sigma_fraction: shared group AR(1) noise sigma / base.
        burst_rate_per_day: burst events per VM per day.
        burst_amplitude_fraction: burst amplitude as multiple of the base.
        mem_base_range_by_class: per-class memory base ranges in percent
            (low-mem VMs are small, high-mem VMs large, echoing the
            2-32% Google-trace range).
        mem_cpu_coupling: fraction of the CPU diurnal shape leaking into
            the memory trace.
        weekend_factor: weekday/weekend modulation depth.
        cpu_floor_pct: minimum CPU utilization (VMs are never fully idle).
        seed: PRNG seed; traces are fully reproducible.
    """

    n_vms: int = 600
    n_days: int = 14
    n_groups: int = 24
    class_weights: Tuple[float, float, float] = (0.40, 0.35, 0.25)
    cpu_base_range_pct: Tuple[float, float] = (2.5, 13.0)
    cpu_diurnal_gain_range: Tuple[float, float] = (0.7, 1.7)
    cpu_noise_sigma_fraction: float = 0.12
    group_noise_sigma_fraction: float = 0.10
    burst_rate_per_day: float = 0.25
    burst_amplitude_fraction: float = 1.2
    mem_base_range_by_class: Dict[str, Tuple[float, float]] = field(
        default_factory=lambda: {
            "low-mem": (1.5, 5.0),
            "mid-mem": (3.0, 9.0),
            "high-mem": (6.0, 18.0),
        }
    )
    mem_cpu_coupling: float = 0.25
    weekend_factor: float = 0.65
    cpu_floor_pct: float = 0.3
    seed: int = 2018

    def __post_init__(self) -> None:
        if self.n_vms < 1:
            raise ConfigurationError("n_vms must be >= 1")
        if self.n_days < 1:
            raise ConfigurationError("n_days must be >= 1")
        if self.n_groups < 1:
            raise ConfigurationError("n_groups must be >= 1")
        if abs(sum(self.class_weights) - 1.0) > 1.0e-9:
            raise ConfigurationError("class weights must sum to 1")
        lo, hi = self.cpu_base_range_pct
        if not (0.0 < lo <= hi):
            raise ConfigurationError("cpu base range must be 0 < lo <= hi")


class ClusterTraceGenerator:
    """Generates a reproducible :class:`TraceDataset` from a config."""

    def __init__(self, config: GeneratorConfig | None = None):
        self._config = config if config is not None else GeneratorConfig()

    @property
    def config(self) -> GeneratorConfig:
        """The generator configuration."""
        return self._config

    def generate(self) -> TraceDataset:
        """Generate the dataset (deterministic for a given config).

        Every random number is drawn in one fixed order: the group
        peaks and noise innovations, the VM classes, then per VM its
        group, shape, CPU innovations, bursts, memory base and memory
        innovations.  The innovations are drawn straight into the
        group-noise matrix and the output CPU and memory matrices, each
        matrix is filtered in place by one AR(1) recursion over all its
        rows, and each VM row is then rendered in place.  Bursts stay
        events until their row is rendered, so no transient outgrows
        the output.  The matrices are separate allocations: as views of
        one shared buffer they made the day-ahead fits that read them
        50-60% slower (``paper-week``, 2-CPU Xeon container).
        """
        cfg = self._config
        rng = np.random.default_rng(cfg.seed)
        n_samples = cfg.n_days * SAMPLES_PER_DAY
        n_groups, n_vms = cfg.n_groups, cfg.n_vms

        group_noise = np.empty((n_groups, n_samples))
        cpu = np.empty((n_vms, n_samples))
        mem = np.empty((n_vms, n_samples))

        # Business-hours biased peaks: most groups peak between samples
        # 110 (9:10) and 230 (19:10), a few off-peak (batch windows).
        group_phases = rng.uniform(110, 230, size=n_groups)
        night_groups = rng.random(n_groups) < 0.2
        group_phases[night_groups] = rng.uniform(
            0, 80, size=int(night_groups.sum())
        )
        for row in group_noise:
            _ar1_innovations(row, rng, cfg.group_noise_sigma_fraction, 0.9)

        class_choices = rng.choice(
            len(_CLASS_ORDER), size=n_vms, p=cfg.class_weights
        )
        specs: List[VmSpec] = []
        shapes = []
        for vm_id in range(n_vms):
            mem_class = _CLASS_ORDER[int(class_choices[vm_id])]
            group = int(rng.integers(0, n_groups))
            base = rng.uniform(*cfg.cpu_base_range_pct)
            gain = rng.uniform(*cfg.cpu_diurnal_gain_range)
            phase = group_phases[group] + rng.normal(0.0, 8.0)
            sharpness = rng.uniform(1.5, 3.0)
            _ar1_innovations(
                cpu[vm_id], rng, cfg.cpu_noise_sigma_fraction, 0.85
            )
            bursts = _burst_draws(n_samples, rng, cfg.burst_rate_per_day)
            mem_lo, mem_hi = cfg.mem_base_range_by_class[mem_class.label]
            mem_base = rng.uniform(mem_lo, mem_hi)
            _ar1_innovations(mem[vm_id], rng, 0.04, 0.95)
            specs.append(
                VmSpec(
                    vm_id=vm_id,
                    mem_class=mem_class,
                    cpu_base_pct=base,
                    mem_base_pct=mem_base,
                    group=group,
                )
            )
            shapes.append((gain, phase, sharpness, bursts))

        for series, phi in ((group_noise, 0.9), (cpu, 0.85), (mem, 0.95)):
            _ar1_filter(series, phi)
        weekly = weekly_modulation(n_samples, cfg.weekend_factor)
        for spec, shape in zip(specs, shapes):
            self._render(
                spec,
                shape,
                cpu[spec.vm_id],
                mem[spec.vm_id],
                group_noise[spec.group],
                weekly,
            )
        return TraceDataset(specs=tuple(specs), cpu_pct=cpu, mem_pct=mem)

    # -- internals --------------------------------------------------------

    def _render(
        self,
        spec: VmSpec,
        shape: Tuple[float, float, float, List[Tuple[int, int, float]]],
        cpu_row: np.ndarray,
        mem_row: np.ndarray,
        group_noise: np.ndarray,
        weekly: np.ndarray,
    ) -> None:
        """Turn one VM's filtered noise rows into its traces, in place.

        ``shape`` is the VM's diurnal gain, peak phase and sharpness and
        its burst events.  CPU is ``base * (weekly * (0.55 + gain *
        diurnal) + own noise + group noise + amplitude * burst mask)``
        and memory is ``mem_base * (1 + coupling * (diurnal - mean) +
        memory noise)``, each evaluated in that operation order and
        clipped.
        """
        cfg = self._config
        gain, phase, sharpness, bursts = shape
        diurnal = diurnal_profile(cpu_row.size, phase, sharpness)
        level = gain * diurnal
        level += 0.55
        level *= weekly
        level += cpu_row
        level += group_noise
        if bursts:
            # The mask is zero outside its events' span, and adding
            # zero changes no value there.
            lo = min(start for start, _, _ in bursts)
            hi = max(end for _, end, _ in bursts)
            mask = np.zeros(hi - lo)
            for start, end, amplitude in bursts:
                span = mask[start - lo : end - lo]
                np.maximum(span, amplitude, out=span)
            level[lo:hi] += cfg.burst_amplitude_fraction * mask
        np.multiply(spec.cpu_base_pct, level, out=cpu_row)
        np.clip(cpu_row, cfg.cpu_floor_pct, 100.0, out=cpu_row)

        diurnal -= diurnal.mean()
        diurnal *= cfg.mem_cpu_coupling
        diurnal += 1.0
        diurnal += mem_row
        np.multiply(spec.mem_base_pct, diurnal, out=mem_row)
        np.clip(mem_row, 0.5, 100.0, out=mem_row)


def default_dataset(
    n_vms: int = 600, n_days: int = 14, seed: int = 2018
) -> TraceDataset:
    """Convenience constructor for the paper-scale evaluation dataset."""
    return ClusterTraceGenerator(
        GeneratorConfig(n_vms=n_vms, n_days=n_days, seed=seed)
    ).generate()


def memory_heavy_dataset(
    n_vms: int = 300, n_days: int = 14, seed: int = 77
) -> TraceDataset:
    """A memory-dominated fleet that exercises EPACT's Algorithm 2.

    Memory bases are pushed toward the top of the Google-trace range so
    that ``N_mem >= N_cpu`` (the paper's case 2) holds in most slots.
    """
    config = GeneratorConfig(
        n_vms=n_vms,
        n_days=n_days,
        seed=seed,
        class_weights=(0.1, 0.3, 0.6),
        cpu_base_range_pct=(1.5, 6.0),
        mem_base_range_by_class={
            "low-mem": (8.0, 16.0),
            "mid-mem": (14.0, 26.0),
            "high-mem": (20.0, 40.0),
        },
    )
    return ClusterTraceGenerator(config).generate()
