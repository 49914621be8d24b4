#!/usr/bin/env python
"""Bring your own benchmark: characterise a custom application model.

The library's benchmark catalogue is generative, so adding an application is
a matter of describing its phases: locality mixture, memory intensity,
dependence structure and ILP/MLP sensitivity.  This example defines a
two-phase "key-value store" model (a hash-lookup phase with dependent misses
and a compaction phase that streams), runs the detailed-simulation step for
it directly, inspects the resulting curves, and co-runs it against catalogue
apps under the coordinated manager.

Run:  python examples/custom_benchmark.py
"""

import numpy as np

from repro import default_system
from repro.simulation.detailed import simulate_phase
from repro.workloads.phases import PhaseSpec

KV_LOOKUP = PhaseSpec(
    phase_id=0,
    base_cpi=1.05,
    ilp_sensitivity=0.3,
    apki=24.0,
    working_sets=((3, 0.40), (9, 0.40), (48, 0.20)),
    streaming_frac=0.08,
    chain_break_prob=0.25,   # hash-chain walks: mostly dependent misses
    mlp_sensitivity=0.2,
    epi_dyn=1.1,
)

KV_COMPACTION = PhaseSpec(
    phase_id=1,
    base_cpi=0.7,
    ilp_sensitivity=0.4,
    apki=30.0,
    working_sets=((1, 1.0),),
    streaming_frac=0.97,     # sequential SSTable merge: pure streaming
    chain_break_prob=0.9,
    mlp_sensitivity=0.8,
    epi_dyn=0.95,
)


def main() -> None:
    system = default_system(ncores=4)
    print("characterising the custom phases over the full (c, f, w) grid...")
    records = {
        spec.phase_id: simulate_phase(
            system, "kvstore", spec.phase_id, spec, weight=0.5
        )
        for spec in (KV_LOOKUP, KV_COMPACTION)
    }

    ways = np.arange(1, system.llc.ways + 1)
    base = system.baseline_allocation()
    for pid, label in ((0, "lookup"), (1, "compaction")):
        rec = records[pid]
        print(f"\nphase {pid} ({label}):")
        print(f"  MPKI(w):  " + " ".join(f"{m:5.1f}" for m in rec.mpki_full[::3]))
        print(f"            at ways {[int(x) for x in ways[::3]]}")
        print(f"  MLP by core size at baseline ways: "
              + ", ".join(f"{c.name}={rec.mlp_full[i, base.ways - 1]:.2f}"
                          for i, c in enumerate(system.core_sizes)))
        print(f"  TPI at baseline: {rec.tpi_at(base):.3f} ns/instr, "
              f"EPI: {rec.epi_at(base):.3f} nJ/instr")

    lookup = records[0]
    print("\nwhat the RMA would see and decide for the lookup phase:")
    snap = lookup.observe(system, base)
    from repro.core.batch_opt import analytical_curves_batch
    from repro.core.local_opt import DimSpec
    from repro.core.models import Model2

    # One core's decision is a batch of one: model chain, QoS target at
    # strict baseline QoS (slack 0), then the per-way local optimisation.
    (curve,) = analytical_curves_batch(
        system, Model2, [snap], [lookup.mpki_sampled],
        [lookup.mlp_sampled], [0.0],
        DimSpec(core_indices=(system.baseline_core_index,)),
    )
    print(f"  {'ways':>4s} {'f* (GHz)':>9s} {'EPI (nJ/instr)':>15s}")
    for w in (2, 4, 8, 12, 16):
        if np.isfinite(curve.epi[w - 1]):
            f = system.vf.freqs_ghz[curve.freq_idx[w - 1]]
            print(f"  {w:4d} {f:9.1f} {curve.epi[w - 1]:15.3f}")
        else:
            print(f"  {w:4d} {'-- QoS infeasible --':>26s}")
    print("\nMore ways let the lookup phase hold its QoS at a lower VF point;")
    print("the energy curve above is exactly what the global optimiser trades.")


if __name__ == "__main__":
    main()
