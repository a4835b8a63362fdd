"""The space side of Figure 6: SIC's footprint vs IC's.

Figure 6 counts checkpoints; this benchmark weighs them — total influence
set entries plus oracle state — confirming that SIC's sparsity translates
into proportional memory savings, and that β controls the trade-off.  The
Figure 6 story is about the paper's *per-checkpoint* index copies, so the
comparison runs the literal algorithm (``repro.reference``); a second test
weighs the engine's shared ``VersionedInfluenceIndex``, whose physical size
is the distinct visible pairs regardless of checkpoint count.
"""

from repro.core.ic import InfluentialCheckpoints
from repro.core.sic import SparseInfluentialCheckpoints
from repro.experiments.memory import measure_footprint
from repro.reference import ReferenceIC, ReferenceSIC


def _run(framework, batches):
    for batch in batches:
        framework.process(batch)
    return framework


def test_footprint_measurement_cost(benchmark, tiny_config, tiny_batches):
    """measure_footprint itself must be cheap (pure counting)."""
    sic = _run(
        SparseInfluentialCheckpoints(
            window_size=tiny_config.window_size, k=tiny_config.k, beta=0.3
        ),
        tiny_batches,
    )
    footprint = benchmark(measure_footprint, sic)
    assert footprint.total_entries > 0


def test_sic_vs_ic_footprint(tiny_config, tiny_batches):
    """Print and assert the Figure 6 space story (reference indexes)."""
    ic = _run(
        ReferenceIC(
            window_size=tiny_config.window_size, k=tiny_config.k, beta=0.3
        ),
        tiny_batches,
    )
    results = {}
    for beta in (0.1, 0.3, 0.5):
        sic = _run(
            ReferenceSIC(
                window_size=tiny_config.window_size, k=tiny_config.k, beta=beta
            ),
            tiny_batches,
        )
        results[beta] = measure_footprint(sic)
    ic_footprint = measure_footprint(ic)
    print(f"\nIC : {ic_footprint.checkpoints} ckpts, "
          f"{ic_footprint.total_entries:,} entries")
    for beta, footprint in results.items():
        ratio = footprint.ratio_to(ic_footprint)
        print(
            f"SIC(beta={beta}): {footprint.checkpoints} ckpts, "
            f"{footprint.total_entries:,} entries ({ratio:.0%} of IC)"
        )
        assert ratio < 0.75
    assert results[0.5].total_entries <= results[0.1].total_entries


def test_shared_index_footprint(tiny_config, tiny_batches):
    """The shared plane stores distinct pairs once, not per checkpoint."""
    shared = _run(
        InfluentialCheckpoints(
            window_size=tiny_config.window_size, k=tiny_config.k, beta=0.3
        ),
        tiny_batches,
    )
    reference = _run(
        ReferenceIC(
            window_size=tiny_config.window_size, k=tiny_config.k, beta=0.3
        ),
        tiny_batches,
    )
    shared_fp = measure_footprint(shared)
    reference_fp = measure_footprint(reference)
    print(
        f"\nshared: {shared_fp.index_entries:,} pairs vs reference "
        f"{reference_fp.index_entries:,} per-checkpoint entries"
    )
    assert shared_fp.checkpoints == reference_fp.checkpoints
    assert shared_fp.index_entries * 5 < reference_fp.index_entries
