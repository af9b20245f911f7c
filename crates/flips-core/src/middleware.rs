//! Private label-distribution clustering and TEE-backed selection — the
//! end-to-end flow of the paper's Figures 3 and 4.
//!
//! The ceremony implemented by [`FlipsMiddleware::cluster_privately`]:
//!
//! 1. the job operator loads the clustering code into an enclave on the
//!    aggregator and registers its measurement with the shared
//!    attestation server;
//! 2. every party challenges the enclave with a fresh nonce, sends the
//!    quote to the attestation server, and proceeds only on success;
//! 3. every party seals its (normalized) label distribution over its own
//!    secure channel; the ciphertext is opened *inside* the enclave. The
//!    distributions come from the parties themselves: the aggregator's
//!    roster never holds them;
//! 4. inside the enclave, the Davies-Bouldin elbow picks `k` and
//!    K-Means++ clusters the distributions (paper §3.1);
//! 5. the resulting [`flips_selection::FlipsSelector`] lives in enclave
//!    state; the aggregator interacts with it only through the
//!    [`TeeBackedSelector`] facade, which answers "who participates this
//!    round" without ever revealing label distributions or cluster
//!    membership (§3.3: "A party simply needs to know whether it is
//!    selected for a round").

use crate::FlipsError;
use bytes::BufMut;
use flips_clustering::{kmeans, optimal_k, ElbowConfig, KMeansConfig};
use flips_data::LabelDistribution;
use flips_fl::format::{put_f32s, Reader};
use flips_fl::FlError;
use flips_ml::rng::{derive_seed, seeded};
use flips_selection::{FlipsSelector, ParticipantSelector, PartyId, RoundFeedback, SelectionError};
use flips_tee::attestation::PlatformKey;
use flips_tee::{AttestationServer, Enclave, OverheadModel, SecureChannel, TeeError};
use rand::Rng;

/// The identity string measured as the enclave's code (stands in for the
/// enclave binary).
pub const CLUSTERING_CODE_ID: &[u8] = b"flips-label-distribution-clustering-v1";

/// Configuration of the private-clustering ceremony.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiddlewareConfig {
    /// Upper bound of the elbow scan (clamped to `parties − 1`).
    pub k_max: usize,
    /// K-Means restarts per candidate `k` (paper: T = 20).
    pub restarts: usize,
    /// Force a specific `k` instead of the elbow criterion (the
    /// k-sensitivity ablation).
    pub fixed_k: Option<usize>,
    /// Clamp the elbow's chosen `k` to at least this value (capped at
    /// `parties − 1`). On continuous Dirichlet-partitioned label
    /// distributions the DBI curve is shallow and the elbow tends to
    /// under-cluster — the paper's small-`k` failure mode ("the clusters
    /// cannot accurately represent the unique label distributions",
    /// §3.1). The simulation builder floors `k` at
    /// `min(2·labels, Nr)`; `None` disables the clamp.
    pub k_floor: Option<usize>,
    /// Enable Algorithm 1's straggler overprovisioning.
    pub overprovision: bool,
    /// TEE overhead model (§5.1 measures ≈5% under AMD SEV).
    pub overhead: OverheadModel,
    /// Seed for clustering restarts and channel establishment.
    pub seed: u64,
}

impl Default for MiddlewareConfig {
    fn default() -> Self {
        MiddlewareConfig {
            k_max: 30,
            restarts: 20,
            fixed_k: None,
            k_floor: None,
            overprovision: true,
            overhead: OverheadModel::sev_like(),
            seed: 0,
        }
    }
}

/// Enclave-guarded state: the provisioned distributions and, after
/// clustering, the live selector.
struct EnclaveState {
    /// Normalized label distributions in party order, as provisioned;
    /// moved into K-Means when clustering runs.
    distributions: Vec<Vec<f32>>,
    /// The Algorithm 1 selector, built after clustering.
    selector: Option<FlipsSelector>,
    /// Chosen number of clusters.
    k: usize,
}

/// The FLIPS middleware entry points.
#[derive(Debug, Clone, Copy)]
pub struct FlipsMiddleware;

impl FlipsMiddleware {
    /// Runs the full private-clustering ceremony over the parties' label
    /// distributions (party `i` holds `label_distributions[i]`) and
    /// returns the enclave-backed clustering.
    ///
    /// # Errors
    ///
    /// Fails if attestation fails, a sealed message is tampered with, or
    /// clustering cannot run (fewer than two parties, fewer than three
    /// with no `fixed_k`, bad `fixed_k`).
    pub fn cluster_privately(
        label_distributions: &[LabelDistribution],
        config: &MiddlewareConfig,
    ) -> Result<PrivateClustering, FlipsError> {
        let n = label_distributions.len();
        if n < 2 {
            return Err(FlipsError::InvalidConfig(format!(
                "private clustering needs at least 2 parties, got {n}"
            )));
        }
        match config.fixed_k {
            Some(k) if k == 0 || k > n => {
                return Err(FlipsError::InvalidConfig(format!("fixed_k = {k} must be in 1..={n}")));
            }
            None if n < 3 => {
                return Err(FlipsError::InvalidConfig(
                    "the elbow needs at least 3 parties; set fixed_k".into(),
                ));
            }
            _ => {}
        }

        let mut rng = seeded(derive_seed(config.seed, 0x7EE0));

        // (1) Load the enclave; register its measurement.
        let platform =
            PlatformKey::new(((rng.random::<u64>() as u128) << 64) | rng.random::<u64>() as u128);
        let enclave = Enclave::load(
            CLUSTERING_CODE_ID,
            EnclaveState { distributions: Vec::with_capacity(n), selector: None, k: 0 },
            platform,
            config.overhead,
        );
        let mut attestation = AttestationServer::new(platform);
        attestation.register(enclave.measurement());

        // (2)+(3) every party attests, then provisions over its channel.
        // The first failure stops the ceremony.
        for ld in label_distributions {
            let nonce: u64 = rng.random();
            let quote = enclave.quote(nonce);
            attestation.verify(&quote, nonce)?;

            let (mut party_end, enclave_end) = SecureChannel::establish(&mut rng);
            let sealed = party_end.seal(&encode_distribution(&ld.normalized()));
            enclave
                .enter(|state| -> Result<(), TeeError> {
                    let plain = enclave_end.open(&sealed)?;
                    state.distributions.push(decode_distribution(&plain)?);
                    Ok(())
                })
                .map_err(FlipsError::Tee)??;
        }

        // (4)+(5) cluster inside the enclave and stand up the selector.
        let cluster_seed = derive_seed(config.seed, 0xC1F5);
        let cfg = *config;
        let k = enclave
            .enter(move |state| -> Result<usize, FlipsError> {
                let points = std::mem::take(&mut state.distributions);
                let k = match cfg.fixed_k {
                    Some(k) => k,
                    None => {
                        let k_max = cfg.k_max.clamp(2, n - 1);
                        let elbow_cfg = ElbowConfig {
                            restarts: cfg.restarts.max(1),
                            ..ElbowConfig::new(k_max, cluster_seed)
                        };
                        let elbow_k = optimal_k(&points, elbow_cfg)?.k;
                        match cfg.k_floor {
                            Some(floor) => elbow_k.max(floor.min(n - 1)),
                            None => elbow_k,
                        }
                    }
                };
                let mut krng = seeded(derive_seed(cluster_seed, k as u64));
                let clustering = kmeans(&mut krng, &points, KMeansConfig::new(k))?;
                let mut clusters = clustering.members();
                clusters.retain(|c| !c.is_empty());
                let mut selector = FlipsSelector::new(clusters)?;
                if !cfg.overprovision {
                    selector = selector.without_overprovisioning();
                }
                state.k = k;
                state.selector = Some(selector);
                Ok(k)
            })
            .map_err(FlipsError::Tee)??;

        Ok(PrivateClustering { enclave, k, num_parties: n })
    }
}

/// The outcome of the private-clustering ceremony: an enclave holding the
/// clusters and the Algorithm 1 selector.
pub struct PrivateClustering {
    enclave: Enclave<EnclaveState>,
    k: usize,
    num_parties: usize,
}

impl std::fmt::Debug for PrivateClustering {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrivateClustering")
            .field("k", &self.k)
            .field("parties", &self.num_parties)
            .finish()
    }
}

impl PrivateClustering {
    /// The number of clusters chosen (the only clustering fact the
    /// aggregator learns; membership stays sealed).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of parties clustered.
    pub fn num_parties(&self) -> usize {
        self.num_parties
    }

    /// Total simulated TEE overhead incurred so far.
    pub fn tee_overhead(&self) -> std::time::Duration {
        self.enclave.total_overhead()
    }

    /// Enclave ECALL count (diagnostics).
    pub fn tee_entries(&self) -> u64 {
        self.enclave.entry_count()
    }

    /// Converts into a selector facade the FL runtime can drive. The
    /// enclave moves with it; destroying happens on drop, erasing all
    /// clustering state as the paper requires at job end.
    pub fn into_selector(self) -> TeeBackedSelector {
        TeeBackedSelector { enclave: self.enclave, num_parties: self.num_parties }
    }

    /// **Diagnostics only — leaks grouping structure.** Cluster sizes,
    /// used by tests and the benchmark harness to validate clustering
    /// quality. A production deployment would not expose this.
    pub fn debug_cluster_sizes(&self) -> Vec<usize> {
        self.enclave
            .enter(|state| {
                state
                    .selector
                    .as_ref()
                    .map(|s| s.clusters().iter().map(Vec::len).collect())
                    .unwrap_or_default()
            })
            .unwrap_or_default()
    }
}

/// A [`ParticipantSelector`] whose entire state lives inside the TEE.
pub struct TeeBackedSelector {
    enclave: Enclave<EnclaveState>,
    num_parties: usize,
}

impl std::fmt::Debug for TeeBackedSelector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TeeBackedSelector").field("parties", &self.num_parties).finish()
    }
}

impl TeeBackedSelector {
    /// Destroys the enclave, erasing clusters and selection state.
    pub fn destroy(&self) {
        self.enclave.destroy();
    }

    /// Total simulated TEE overhead incurred so far.
    pub fn tee_overhead(&self) -> std::time::Duration {
        self.enclave.total_overhead()
    }
}

impl ParticipantSelector for TeeBackedSelector {
    fn name(&self) -> &'static str {
        "flips"
    }

    fn select(&mut self, round: usize, target: usize) -> Result<Vec<PartyId>, SelectionError> {
        self.enclave
            .enter(|state| {
                state
                    .selector
                    .as_mut()
                    .expect("clustering ran before selection")
                    .select(round, target)
            })
            .map_err(|e| SelectionError::InvalidConfiguration(e.to_string()))?
    }

    fn report(&mut self, feedback: &RoundFeedback) {
        let _ = self.enclave.enter(|state| {
            if let Some(selector) = state.selector.as_mut() {
                selector.report(feedback);
            }
        });
    }

    fn num_parties(&self) -> usize {
        self.num_parties
    }
}

/// The provisioning payload: a `u32` count, then that many `f32`s, all
/// little-endian.
fn encode_distribution(normalized: &[f32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + normalized.len() * 4);
    buf.put_u32_le(normalized.len() as u32);
    put_f32s(&mut buf, normalized);
    buf
}

/// Reads [`encode_distribution`]'s bytes back. A payload that does not
/// decode exactly, or that carries a non-finite or negative entry, is an
/// integrity violation inside the enclave: no such distribution reaches
/// the elbow scan or K-Means.
fn decode_distribution(bytes: &[u8]) -> Result<Vec<f32>, TeeError> {
    let read = || -> Result<Vec<f32>, FlError> {
        let mut r = Reader::new(bytes, "label distribution");
        let n = r.len32(4)?;
        let values = r.f32s(n as u64)?.collect();
        r.finish()?;
        Ok(values)
    };
    match read() {
        Ok(values) if values.iter().all(|v| v.is_finite() && *v >= 0.0) => Ok(values),
        _ => Err(TeeError::IntegrityViolation),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Label distributions with `archetypes` clear groups.
    fn archetype_lds(archetypes: usize, labels: usize, per: usize) -> Vec<LabelDistribution> {
        let mut out = Vec::new();
        for a in 0..archetypes {
            for j in 0..per {
                let mut counts = vec![1u64; labels];
                counts[a % labels] = 100 + (j as u64 % 3);
                out.push(LabelDistribution::from_counts(counts));
            }
        }
        out
    }

    fn fast_config(seed: u64) -> MiddlewareConfig {
        MiddlewareConfig {
            restarts: 5,
            k_max: 12,
            overhead: OverheadModel::none(),
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn ceremony_discovers_the_archetype_count() {
        let lds = archetype_lds(5, 10, 8);
        let pc = FlipsMiddleware::cluster_privately(&lds, &fast_config(1)).unwrap();
        assert!(
            (4..=6).contains(&pc.k()),
            "expected k near 5, got {} (sizes {:?})",
            pc.k(),
            pc.debug_cluster_sizes()
        );
        assert_eq!(pc.num_parties(), 40);
    }

    #[test]
    fn clusters_group_same_archetype_parties() {
        let lds = archetype_lds(4, 8, 5);
        let cfg = MiddlewareConfig { fixed_k: Some(4), ..fast_config(2) };
        let pc = FlipsMiddleware::cluster_privately(&lds, &cfg).unwrap();
        let mut sizes = pc.debug_cluster_sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![5, 5, 5, 5]);
    }

    #[test]
    fn selector_serves_rounds_from_the_enclave() {
        let lds = archetype_lds(4, 8, 5);
        let cfg = MiddlewareConfig { fixed_k: Some(4), ..fast_config(3) };
        let pc = FlipsMiddleware::cluster_privately(&lds, &cfg).unwrap();
        let mut sel = pc.into_selector();
        let picks = sel.select(0, 8).unwrap();
        assert_eq!(picks.len(), 8);
        sel.report(&RoundFeedback {
            round: 0,
            selected: picks.clone(),
            completed: picks,
            ..Default::default()
        });
        assert_eq!(sel.select(1, 8).unwrap().len(), 8);
    }

    #[test]
    fn destroying_the_enclave_stops_selection() {
        let lds = archetype_lds(3, 6, 4);
        let cfg = MiddlewareConfig { fixed_k: Some(3), ..fast_config(4) };
        let mut sel = FlipsMiddleware::cluster_privately(&lds, &cfg).unwrap().into_selector();
        sel.destroy();
        assert!(sel.select(0, 3).is_err(), "destroyed enclave must refuse selection");
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let one = archetype_lds(1, 4, 1);
        assert!(FlipsMiddleware::cluster_privately(&one, &fast_config(5)).is_err());
        let lds = archetype_lds(2, 4, 3);
        let cfg = MiddlewareConfig { fixed_k: Some(0), ..fast_config(6) };
        assert!(FlipsMiddleware::cluster_privately(&lds, &cfg).is_err());
        let cfg = MiddlewareConfig { fixed_k: Some(99), ..fast_config(7) };
        assert!(FlipsMiddleware::cluster_privately(&lds, &cfg).is_err());
        // Two parties leave the elbow no range to scan: refused, not a
        // panic — but a fixed `k` still clusters them.
        let two = archetype_lds(2, 4, 1);
        assert!(FlipsMiddleware::cluster_privately(&two, &fast_config(8)).is_err());
        for k in 1..=2 {
            let cfg = MiddlewareConfig { fixed_k: Some(k), ..fast_config(8) };
            assert_eq!(FlipsMiddleware::cluster_privately(&two, &cfg).unwrap().k(), k);
        }
    }

    #[test]
    fn ceremony_is_seed_deterministic() {
        let lds = archetype_lds(4, 8, 6);
        let a = FlipsMiddleware::cluster_privately(&lds, &fast_config(8)).unwrap();
        let b = FlipsMiddleware::cluster_privately(&lds, &fast_config(8)).unwrap();
        assert_eq!(a.k(), b.k());
        assert_eq!(a.debug_cluster_sizes(), b.debug_cluster_sizes());
    }

    #[test]
    fn tee_accounting_reflects_provisioning() {
        let lds = archetype_lds(3, 6, 4);
        let cfg = MiddlewareConfig { fixed_k: Some(3), ..fast_config(9) };
        let pc = FlipsMiddleware::cluster_privately(&lds, &cfg).unwrap();
        // One ECALL per party provision + one clustering ECALL.
        assert_eq!(pc.tee_entries(), 12 + 1);
    }

    #[test]
    fn distribution_codec_round_trips() {
        let d = vec![0.25f32, 0.5, 0.125, 0.125];
        let bytes = encode_distribution(&d);
        assert_eq!(bytes.len(), 4 + 4 * d.len());
        assert_eq!(bytes[..4], 4u32.to_le_bytes());
        assert_eq!(bytes[4..8], 0.25f32.to_le_bytes());
        assert_eq!(decode_distribution(&bytes).unwrap(), d);
    }

    #[test]
    fn a_malformed_distribution_is_an_integrity_violation() {
        let good = encode_distribution(&[0.5, 0.5]);
        let mut lying = 10u32.to_le_bytes().to_vec();
        lying.extend_from_slice(&0.5f32.to_le_bytes());
        let mut trailing = good.clone();
        trailing.push(0);
        for (name, bytes) in [
            ("truncated prefix", &good[..2]),
            ("truncated values", &good[..good.len() - 1]),
            ("count beyond the payload", &lying[..]),
            ("trailing bytes", &trailing[..]),
        ] {
            assert!(
                matches!(decode_distribution(bytes), Err(TeeError::IntegrityViolation)),
                "{name}"
            );
        }
        // Well-formed bytes, hostile values: one such entry used to reach
        // K-Means and collapse the elbow.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.25] {
            let bytes = encode_distribution(&[0.5, bad, 0.5]);
            assert!(
                matches!(decode_distribution(&bytes), Err(TeeError::IntegrityViolation)),
                "entry {bad}"
            );
        }
        assert!(decode_distribution(&encode_distribution(&[0.0, -0.0, 1.0])).is_ok());
    }
}
