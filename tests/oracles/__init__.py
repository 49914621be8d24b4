"""Executable references the production code is verified against.

* :mod:`tests.oracles.node_graph` -- the node-graph min-plus reduction
  (``global_optimize``, ``ReductionTree``), the golden reference of
  :class:`~repro.core.packed_tree.PackedReduction`;
* :mod:`tests.oracles.leaf_install` -- the value comparison of two
  curves (``same_curve``) and the Python leaf install
  (``ReferenceLeaves``), the golden reference of the packed reduction's
  compiled ``leaf_install``;
* :mod:`tests.oracles.reference_manager` -- the recompute-everything
  coordinated-manager pipeline and the node-graph clustered manager;
* :mod:`tests.oracles.change_sets` -- ``fold``, which applies a decision
  (a change set or a full map) to per-core state, so production change
  sets and the references' full maps compare as state after every
  decision;
* :mod:`tests.oracles.model_chain` -- the per-core NumPy model chain
  (``exec_cpi_estimate``, ``predict_tpi_grid``, ``predict_epi_grid``,
  ``qos_target_tpi``, ``local_optimize``), with its own system constants
  and local optimisation, the golden reference of the compiled curve
  chain behind :mod:`repro.core.batch_opt`;
* :mod:`tests.oracles.legacy_sim` -- the frozen pre-refactor simulator,
  the golden reference of :mod:`repro.simulation.engine`;
* :mod:`tests.oracles.engine_step` -- the scalar per-event engine step
  (``advance_core``, ``next_completion_scalar``, ``lanes_step``), the
  golden reference of the kernel's fused step over
  :class:`~repro.simulation.engine.core_state.CoreArrays` (one compiled
  call, its only implementation), and the per-core scheduler reads
  (``tpi``, ``remaining_ns``, ``is_valid``);
* :mod:`tests.oracles.leading_miss` -- the greedy per-miss grouping loop,
  the golden reference of :func:`repro.mem.mlp.leading_miss_groups`;
* :mod:`tests.oracles.mlp_grid` -- the per-allocation, per-core-size MLP
  grid, the golden reference of :func:`repro.mem.mlp.mlp_grid`;
* :mod:`tests.oracles.lru_stack` -- the per-set MRU-list walk and the
  access-by-access LRU cache, the golden references of
  :func:`repro.cache.atd.stack_distances` and its inclusion property.

None of them is on a production path; tests and the ``tools/bench_*``
speed-up benchmarks import them with the repository root on ``sys.path``.
The packed reduction's leaf install and solve, the engine step and the
managers' curve chain have one implementation each, in the compiled
library ``src/repro/_kernels.c`` (a working C compiler is required);
``leaf_install``, ``node_graph``, ``engine_step`` and ``model_chain`` are
the references they are held to.
"""
