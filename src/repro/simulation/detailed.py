"""The detailed-simulation step ("Sniper + McPAT" of the paper's framework).

For each benchmark: run SimPoint over its slice features, then characterise
each operational phase's representative slice across the *entire* resource
grid (core size x VF level x way allocation):

1. synthesise the representative slice's LLC access trace;
2. the LRU stack distances give the full miss curve: one compiled walk
   of each set's MRU-first stack, truncated at the way count
   (:func:`repro.cache.atd.stack_distances`);
3. greedy leading-miss grouping gives the ground-truth MLP grid: one
   compiled call groups the miss stream of each allocation under every
   core size, each distinct stream once (:func:`repro.mem.mlp.mlp_grid`);
4. the interval timing model and the power model evaluate all
   ``(c, f, w)`` points vectorised;
5. the *online* hardware readings (sampled ATD curve, quantised MLP-ATD
   table) are derived from the sampled-set subset of the same trace.
"""

from __future__ import annotations

from repro.cache.atd import atd_profile, stack_distances
from repro.cache.mlp_atd import quantize
from repro.config import SystemConfig
from repro.cpu.interval_model import PhaseExecution, timing_grid
from repro.cpu.power import energy_grid
from repro.mem.mlp import mlp_grid
from repro.simulation.database import PhaseRecord
from repro.workloads.address_gen import AccessTrace, generate_trace
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.phases import PhaseSpec
from repro.workloads.simpoint import run_simpoint, slice_features

__all__ = ["simulate_phase", "analyze_benchmark"]


def simulate_phase(
    system: SystemConfig,
    bench: str,
    phase_key: int,
    spec: PhaseSpec,
    weight: float,
    accesses_per_set: int = 1200,
) -> PhaseRecord:
    """Characterise one phase over the full configuration grid."""
    trace: AccessTrace = generate_trace(
        spec,
        nsets=system.llc.model_sets,
        accesses_per_set=accesses_per_set,
        seed_parts=(bench, phase_key),
    )
    ways = system.llc.ways
    dists = stack_distances(trace, ways, system.llc.model_sets)

    # Ground truth from the full trace.
    profile = atd_profile(dists, ways, trace.instructions)
    mpki_full = profile.mpki()
    mlp_full = mlp_grid(system, dists, trace.instr_pos, trace.chain_ids, spec.mlp_sensitivity)

    # Online hardware readings from the sampled sets of the same trace
    # (stack distances are per-set, so masking preserves them exactly).
    sample = system.llc.atd_sampled_sets
    mask = trace.set_ids < sample
    scale = sample / system.llc.model_sets
    sampled_profile = atd_profile(dists[mask], ways, trace.instructions, scale=scale)
    mpki_sampled = sampled_profile.mpki()
    # The MLP-ATD's overlap detector observes every in-flight miss (it sits
    # next to the MSHR file); only the per-way miss classification relies on
    # the ATD.  A set-thinned stream would destroy the burst structure that
    # overlap depends on, so the hardware reading is the full-density grid
    # with the unit's fixed-point quantisation as its estimation error.
    mlp_sampled = quantize(mlp_full)

    phase_exec = PhaseExecution(spec=spec, mpki=mpki_full, mlp=mlp_full)
    tpi, latency = timing_grid(system, phase_exec)
    epi = energy_grid(system, phase_exec, tpi)

    return PhaseRecord(
        bench=bench,
        phase_key=phase_key,
        weight=weight,
        apki=float(profile.apki()),
        epi_dyn=spec.epi_dyn,
        base_cpi=spec.base_cpi,
        ilp_sensitivity=spec.ilp_sensitivity,
        mlp_sensitivity=spec.mlp_sensitivity,
        mpki_full=mpki_full,
        mlp_full=mlp_full,
        tpi=tpi,
        latency=latency,
        epi=epi,
        mpki_sampled=mpki_sampled,
        mlp_sampled=mlp_sampled,
    )


def analyze_benchmark(
    system: SystemConfig,
    name: str,
    accesses_per_set: int = 1200,
    max_k: int = 8,
) -> tuple[dict[int, PhaseRecord], tuple[int, ...]]:
    """SimPoint + per-phase detailed simulation for one benchmark.

    Returns the phase records keyed by operational (cluster) phase id and the
    operational phase trace.  The representative slice of each cluster
    selects which *generative* phase spec is characterised -- if clustering
    merges two similar true phases, the medoid's spec stands in for both,
    exactly as a SimPoint representative stands in for its cluster.
    """
    bench = get_benchmark(name)
    features = slice_features(bench)
    sp = run_simpoint(features, max_k=max_k, seed_parts=(name,))
    true_trace = bench.phase_trace()

    records: dict[int, PhaseRecord] = {}
    for cluster, (rep_slice, weight) in enumerate(zip(sp.representatives, sp.weights)):
        true_pid = true_trace.sequence[rep_slice]
        spec = bench.spec_of(true_pid)
        records[cluster] = simulate_phase(
            system, name, cluster, spec, weight, accesses_per_set=accesses_per_set
        )
    return records, sp.phase_sequence()
