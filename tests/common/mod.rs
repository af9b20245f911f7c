//! What the integration suites share.

use flips::prelude::*;

/// The selector goldens' job: 12 FEMNIST parties, 4 rounds at 25 %
/// participation, a quarter of each cohort straggling, seed 11.
/// `tests/protocol_equivalence.rs` pins its history under every
/// selector; the recovery, guard, scale and privacy suites run it as
/// their oracle.
pub fn golden_builder(kind: SelectorKind) -> SimulationBuilder {
    SimulationBuilder::new(DatasetProfile::femnist())
        .parties(12)
        .rounds(4)
        .participation(0.25)
        .alpha(0.3)
        .selector(kind)
        .straggler_rate(0.25)
        .clustering_restarts(3)
        .test_per_class(8)
        .seed(11)
}
