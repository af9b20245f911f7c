//! Input generators and output digests. `--seed` reaches the program
//! only through this file: the same seed builds the same jobs, rosters
//! and updates, and the code under test sees nothing but those inputs.

use flips_core::prelude::*;

/// Sizes of one run. `full` is what `BENCHMARK.json` measures; `smoke`
/// is the same code on inputs small enough for the unit tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Untimed rounds before timing starts (none on `converge_flips`,
    /// whose first rounds are part of time-to-target).
    pub warmup_rounds: usize,
    pub converge_parties: usize,
    /// Rounds per `converge_flips` episode, and how many seeds derived
    /// from `--seed` its episodes cycle through. The round cost of this
    /// job depends on the seed by tens of percent (the partition and the
    /// clusters found in it decide how much data a cohort holds), so a
    /// run measures many short jobs on different seeds, not one long one.
    pub converge_rounds: usize,
    pub converge_seeds: usize,
    /// Rounds of the one full-length job behind the paper's metrics.
    pub paper_rounds: usize,
    pub converge_restarts: usize,
    /// Timed rounds per `wire_entropy` episode.
    pub wire_rounds: usize,
    /// Rounds per `run_socket` call.
    pub socket_rounds: usize,
    pub roster_parties: usize,
    /// Timed rounds per `roster_1m_tree` episode.
    pub roster_rounds: usize,
    /// Rounds of the stage replay and of each mini-run behind the
    /// per-layer table.
    pub layer_rounds: usize,
    /// Wall-clock budget of one probe, in milliseconds.
    pub probe_ms: u64,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            warmup_rounds: 5,
            converge_parties: 200,
            converge_rounds: 30,
            converge_seeds: 10,
            paper_rounds: 150,
            converge_restarts: 20,
            wire_rounds: 40,
            socket_rounds: 100,
            roster_parties: 1_000_000,
            roster_rounds: 30,
            layer_rounds: 24,
            probe_ms: 60,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            warmup_rounds: 1,
            converge_parties: 30,
            converge_rounds: 4,
            converge_seeds: 2,
            paper_rounds: 8,
            converge_restarts: 2,
            wire_rounds: 5,
            socket_rounds: 5,
            roster_parties: 20_000,
            roster_rounds: 4,
            layer_rounds: 4,
            probe_ms: 2,
        }
    }
}

/// The accuracy `converge_flips` counts rounds, bytes and seconds to.
/// Fixed by the benchmark: the ECG profile's own 0.60 is missed inside
/// 150 rounds by some seeds.
pub const CONVERGE_TARGET: f64 = 0.55;

/// The tracked model of three workloads: `Mlp[16, 256, 192, 10]`.
pub const MLP256_PARAMS: usize = 16 * 256 + 256 + 256 * 192 + 192 + 192 * 10 + 10;

/// Parties per roster round and inner nodes of its aggregation tree.
pub const ROSTER_COHORT: usize = 64;
pub const ROSTER_FANOUT: usize = 4;
/// Resident-segment budget of the spilled roster.
pub const ROSTER_BUDGET: usize = 8;

/// The paper's §5 cell: ECG (Conv1d 32/5/8/5, 5 local epochs), 20 %
/// participation, Dirichlet α = 0.3, FedYogi, FLIPS selection from the
/// TEE-backed private clustering with over-provisioning, 20 % stragglers.
pub fn converge_builder(seed: u64, rounds: usize, scale: &Scale) -> SimulationBuilder {
    SimulationBuilder::new(DatasetProfile::ecg())
        .parties(scale.converge_parties)
        .rounds(rounds)
        .participation(0.2)
        .alpha(0.3)
        .selector(SelectorKind::Flips)
        .straggler_rate(0.2)
        .clustering_restarts(scale.converge_restarts)
        .seed(seed)
}

pub fn mlp256_profile() -> DatasetProfile {
    let mut profile = DatasetProfile::femnist();
    profile.name = "femnist-mlp256".into();
    profile.model = ModelSpec::Mlp { dims: vec![16, 256, 192, 10] };
    profile
}

/// `bench_json`'s `mlp256_job` with the seed as a parameter: femnist
/// data, 55 626 parameters, 16 parties, 4 per round, random selection.
pub fn mlp256_job(seed: u64, rounds: usize, codec: ModelCodec) -> Result<FlJob, String> {
    SimulationBuilder::new(mlp256_profile())
        .parties(16)
        .rounds(rounds)
        .participation(0.25)
        .selector(SelectorKind::Random)
        .test_per_class(20)
        .codec(codec)
        .seed(seed)
        .build()
        .map(|(job, _)| job)
        .map_err(|e| format!("mlp256 job: {e}"))
}

pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Party `i` of the seeded roster: sample counts 5..=101, latency hints
/// spread over a decade so TiFL's tiers all fill, three label counts.
pub fn roster_record(seed: u64, i: usize) -> PartyRecord {
    let h = splitmix64(seed ^ (i as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    PartyRecord {
        data_size: 5 + h % 97,
        latency_hint: 0.05 + ((h >> 8) % 1000) as f64 / 1000.0,
        label_counts: vec![(h >> 20) % 13, (h >> 28) % 17, 3],
    }
}

/// `count` seeded update vectors of `dim` parameters, uniform in
/// ±0.05 — well inside the exact fold's domain.
pub fn synthetic_updates(seed: u64, count: usize, dim: usize) -> Vec<Vec<f32>> {
    (0..count)
        .map(|u| {
            let mut state = splitmix64(seed ^ 0x5EED_0000 ^ u as u64);
            (0..dim)
                .map(|_| {
                    state = splitmix64(state);
                    ((state >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 0.1
                })
                .collect()
        })
        .collect()
}

/// FNV-1a over a stream of words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn floats(&mut self, xs: &[f32]) {
        for x in xs {
            self.word(u64::from(x.to_bits()));
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Every field of every round record, bit for bit: two histories share a
/// digest only when the runs agreed on who was selected, who straggled,
/// every accuracy and loss, and every byte count.
pub fn history_digest(history: &History) -> u64 {
    let mut d = Digest::new();
    for r in history.records() {
        d.word(r.round as u64);
        for list in [&r.selected, &r.completed, &r.stragglers] {
            d.word(list.len() as u64);
            for &p in list.iter() {
                d.word(p as u64);
            }
        }
        d.word(r.accuracy.to_bits());
        for recall in &r.per_label_recall {
            d.word(recall.map_or(u64::MAX, f64::to_bits));
        }
        d.word(r.mean_train_loss.to_bits());
        d.word(r.bytes_down);
        d.word(r.bytes_up);
        d.word(r.round_duration.to_bits());
    }
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp256_has_the_tracked_parameter_count() {
        let job = mlp256_job(3, 1, ModelCodec::Raw).unwrap();
        assert_eq!(job.global_params().len(), MLP256_PARAMS);
        assert_eq!(MLP256_PARAMS, 55_626);
    }

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        assert_eq!(roster_record(7, 12_345), roster_record(7, 12_345));
        assert_ne!(roster_record(7, 12_345), roster_record(8, 12_345));
        let a = synthetic_updates(1, 2, 64);
        assert_eq!(a, synthetic_updates(1, 2, 64));
        assert_ne!(a, synthetic_updates(2, 2, 64));
        assert!(a.iter().flatten().all(|x| x.abs() <= 0.05));
    }
}
