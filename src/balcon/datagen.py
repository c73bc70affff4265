"""Seeded synthetic instance generation.

Lopsided mode reproduces the stress recipe: VMs are sampled from a flavor
ladder whose selection probability decreases with CPU size, sorted by load
angle descending, and packed First Fit over the hosts in id order.  The
angle-sorted packing saturates early hosts in CPU and late hosts in memory,
which starves free-space-only heuristics.  Uniform mode packs the same
samples in arrival order and yields far more balanced initial mappings.

Several knobs of the original recipe are unpublished (the flavor memory
distribution, the fill target, the retry policy); the choices here are fixed
reconstructions: memory uniform on [1, capacity/2], fill target 0.9, at most
100 placement failures per instance.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .classify import balance_factor
from .model import Flavor, Host, Instance, ResourceVec, VM

__all__ = [
    "GenConfig",
    "GenerationError",
    "MAX_PLACEMENT_FAILURES",
    "generate_flavors",
    "generate_instance",
    "instance_balance_factor",
]

MAX_PLACEMENT_FAILURES = 100

MODES = ("lopsided", "uniform")


class GenerationError(RuntimeError):
    """Generation failed (too many unplaceable samples or empty output)."""


@dataclass(frozen=True)
class GenConfig:
    seed: int
    num_hosts: int
    host_capacity: ResourceVec = ResourceVec(16, 32)
    num_flavors: int = 30
    target_fill: float = 0.9
    mode: str = "lopsided"

    def __post_init__(self) -> None:
        if self.num_hosts < 1:
            raise ValueError("num_hosts must be at least 1")
        if self.num_flavors < 1:
            raise ValueError("num_flavors must be at least 1")
        if not 0 < self.target_fill <= 1:
            raise ValueError("target_fill must lie in (0, 1]")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.host_capacity.cpu < 1:
            raise ValueError(f"host cpu capacity must be at least 1, got {self.host_capacity.cpu}")
        if self.host_capacity.mem < 2:
            raise ValueError("host memory capacity must be at least 2")


def generate_flavors(cfg: GenConfig, rng: random.Random) -> tuple[list[Flavor], list[Fraction]]:
    """Flavor ladder with CPU rising to the host capacity and sampling
    weights proportional to 1/cpu."""
    cap = cfg.host_capacity
    flavors: list[Flavor] = []
    weights: list[Fraction] = []
    for i in range(1, cfg.num_flavors + 1):
        cpu = max(1, round(i * cap.cpu / cfg.num_flavors))
        mem = rng.randint(1, cap.mem // 2)
        flavors.append(Flavor(i - 1, ResourceVec(cpu, mem)))
        weights.append(Fraction(1, cpu))
    return flavors, weights


def generate_instance(cfg: GenConfig) -> Instance:
    rng = random.Random(cfg.seed)
    flavors, _ = generate_flavors(cfg, rng)
    cap = cfg.host_capacity
    target_cpu = cfg.target_fill * (cfg.num_hosts * cap.cpu)
    target_mem = cfg.target_fill * (cfg.num_hosts * cap.mem)
    f_cpu = [f.demand.cpu for f in flavors]
    f_mem = [f.demand.mem for f in flavors]

    population = range(cfg.num_flavors)
    cum_weights = list(accumulate(1 / c for c in f_cpu))  # float(weights[f]) == 1 / f_cpu[f]
    chosen: list[int] = []
    total_cpu = 0
    total_mem = 0
    # every flavor demands >= 1 of each resource, so this terminates
    while total_cpu < target_cpu and total_mem < target_mem:
        f = rng.choices(population, cum_weights=cum_weights, k=1)[0]
        chosen.append(f)
        total_cpu += f_cpu[f]
        total_mem += f_mem[f]

    if cfg.mode == "lopsided":
        # Load angle descending, by cpu/mem over the common denominator of
        # the flavor memories: an exact integer per flavor, equal for equal
        # angles, so ties keep arrival order.
        den = math.lcm(*f_mem)
        angle = [c * (den // m) for c, m in zip(f_cpu, f_mem)]
        keys = [angle[f] for f in chosen]
        order = sorted(range(len(chosen)), key=keys.__getitem__, reverse=True)
    else:
        order = range(len(chosen))

    load_c = [0] * cfg.num_hosts
    load_m = [0] * cfg.num_hosts
    # Loads only grow, so a host that once failed to hold a flavor never
    # holds it later: First Fit for flavor f starts at first_fit[f].
    first_fit = [0] * cfg.num_flavors
    placements: list[tuple[int, int]] = []  # (flavor, host)
    failures = 0
    for idx in order:
        f = chosen[idx]
        c, m = f_cpu[f], f_mem[f]
        for h in range(first_fit[f], cfg.num_hosts):
            if load_c[h] + c <= cap.cpu and load_m[h] + m <= cap.mem:
                load_c[h] += c
                load_m[h] += m
                placements.append((f, h))
                first_fit[f] = h
                break
        else:
            first_fit[f] = cfg.num_hosts
            failures += 1
            if failures > MAX_PLACEMENT_FAILURES:
                raise GenerationError(
                    f"gave up after {failures} unplaceable samples (seed {cfg.seed})"
                )
    if not placements:
        raise GenerationError(f"no VMs generated (seed {cfg.seed})")

    used = sorted({h for _, h in placements})
    dense = {h: i for i, h in enumerate(used)}
    hosts = [Host(i, cap) for i in range(len(used))]
    vms = [VM(i, f) for i, (f, _) in enumerate(placements)]
    initial = [dense[h] for _, h in placements]
    return Instance(hosts, flavors, vms, initial)


def instance_balance_factor(inst: Instance) -> Fraction:
    """Balance factor of the initial mapping's free space, measured against
    the mean host capacity."""
    if not inst.hosts:
        raise ValueError("instance has no hosts")
    n = len(inst.hosts)
    s = (
        Fraction(sum(inst._cap_cpu), n),
        Fraction(sum(inst._cap_mem), n),
    )
    return balance_factor(s, range(n), inst.initial_mapping())
