//! Private label-distribution clustering and TEE-backed selection — the
//! end-to-end flow of the paper's Figures 3 and 4, in two halves: the
//! aggregator holds a [`Ceremony`], which only ever sees sealed bytes,
//! and each party calls [`register`] with its own distribution.
//! [`FlipsMiddleware::cluster_privately`] composes them:
//!
//! 1. [`Ceremony::open`]: the job operator loads the clustering code into
//!    an enclave on the aggregator and registers its measurement with the
//!    shared attestation server;
//! 2. [`Ceremony::challenge`] hands a party a fresh nonce, the enclave's
//!    quote over it and its end of a new secure channel; in [`register`]
//!    the party has the attestation server verify the quote first;
//! 3. [`register`] then seals the party's (normalized) label distribution,
//!    and [`Ceremony::admit`] opens it *inside* the enclave, under the
//!    party's id: the aggregator never holds a distribution;
//! 4. [`Ceremony::close`]: inside the enclave, the Davies-Bouldin elbow
//!    picks `k` and K-Means++ clusters the distributions (paper §3.1);
//! 5. the resulting [`PrivateClustering`] keeps the Algorithm 1 selector
//!    in enclave state and answers "who participates this round" without
//!    ever revealing label distributions or cluster membership (§3.3: "A
//!    party simply needs to know whether it is selected for a round").

use crate::FlipsError;
use bytes::BufMut;
use flips_clustering::{kmeans, optimal_k, ElbowConfig, KMeansPoints};
use flips_data::LabelDistribution;
use flips_fl::format::{put_f32s, Reader};
use flips_fl::FlError;
use flips_ml::rng::{derive_seed, seeded};
use flips_selection::{FlipsSelector, ParticipantSelector, PartyId, RoundFeedback, SelectionError};
use flips_tee::attestation::PlatformKey;
use flips_tee::{
    AttestationServer, Enclave, OverheadModel, Quote, SealedMessage, SecureChannel, TeeError,
};
use rand::rngs::StdRng;
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
            seed: 0,
        }
    }
}

/// Enclave-guarded state: the admitted distributions and, after
/// clustering, the live selector.
struct EnclaveState {
    /// Normalized label distributions by party id (empty until admitted);
    /// moved into K-Means when clustering runs.
    distributions: Vec<Vec<f32>>,
    /// The Algorithm 1 selector, built after clustering.
    selector: Option<FlipsSelector>,
}

/// The FLIPS middleware entry points.
#[derive(Debug, Clone, Copy)]
pub struct FlipsMiddleware;

impl FlipsMiddleware {
    /// Runs the whole ceremony, party `i` holding `distributions[i]`:
    /// [`Ceremony::open`], then in id order [`Ceremony::challenge`] →
    /// [`register`] → [`Ceremony::admit`], then [`Ceremony::close`].
    ///
    /// # Errors
    ///
    /// The first refusal or failure of either half stops the ceremony.
    pub fn cluster_privately(
        distributions: &[LabelDistribution],
        config: &MiddlewareConfig,
    ) -> Result<PrivateClustering, FlipsError> {
        let labels = distributions.first().map_or(0, LabelDistribution::num_labels);
        let (mut ceremony, attestation) = Ceremony::open(distributions.len(), labels, config)?;
        for (party, own) in distributions.iter().enumerate() {
            let sealed = register(own, ceremony.challenge(party)?, &attestation)?;
            ceremony.admit(party, &sealed)?;
        }
        ceremony.close()
    }
}

/// What [`Ceremony::challenge`] hands one party: the nonce, the
/// enclave's quote over it and the party's end of a fresh secure channel.
#[derive(Debug)]
pub struct Challenge {
    nonce: u64,
    quote: Quote,
    channel: SecureChannel,
}

/// The party's half of the ceremony (steps 2 and 3): has the attestation
/// server verify the challenge's quote, then seals the party's own
/// normalized label distribution for [`Ceremony::admit`]. This is the only
/// function of the ceremony that takes a distribution.
///
/// # Errors
///
/// Fails, sealing nothing, when the quote does not verify.
pub fn register(
    own: &LabelDistribution,
    challenge: Challenge,
    attestation: &AttestationServer,
) -> Result<SealedMessage, FlipsError> {
    let Challenge { nonce, quote, mut channel } = challenge;
    attestation.verify(&quote, nonce)?;
    Ok(channel.seal(&encode_distribution(&own.normalized())))
}

/// Where one party stands in a [`Ceremony`].
enum Slot {
    Waiting,
    /// Challenged: the enclave's end of the party's channel.
    Challenged(SecureChannel),
    Admitted,
}

/// The aggregator's half of the ceremony. No method takes or returns a
/// label distribution: only sealed bytes come in, and only the clustering
/// goes out.
pub struct Ceremony {
    enclave: Enclave<EnclaveState>,
    slots: Vec<Slot>,
    labels: usize,
    rng: StdRng,
    config: MiddlewareConfig,
}

impl Ceremony {
    /// Loads the clustering enclave for `parties` parties whose
    /// distributions have `labels` labels, and stands up the shared
    /// attestation server trusting its measurement (step 1).
    ///
    /// # Errors
    ///
    /// Fails when clustering could never run: fewer than two parties,
    /// fewer than three with no `fixed_k`, or `fixed_k` outside
    /// `1..=parties`.
    pub fn open(
        parties: usize,
        labels: usize,
        config: &MiddlewareConfig,
    ) -> Result<(Ceremony, AttestationServer), FlipsError> {
        let n = parties;
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
        let platform =
            PlatformKey::new(((rng.random::<u64>() as u128) << 64) | rng.random::<u64>() as u128);
        let enclave = Enclave::load(
            CLUSTERING_CODE_ID,
            EnclaveState { distributions: vec![Vec::new(); n], selector: None },
            platform,
            OverheadModel::sev_like(),
        );
        let mut attestation = AttestationServer::new(platform);
        attestation.register(enclave.measurement());
        let slots = (0..n).map(|_| Slot::Waiting).collect();
        Ok((Ceremony { enclave, slots, labels, rng, config: *config }, attestation))
    }

    /// Challenges `party` (step 2) with a fresh nonce, the enclave's quote
    /// over it and a new secure channel, whose enclave end the ceremony
    /// keeps. Challenging again replaces an open challenge.
    ///
    /// # Errors
    ///
    /// Refuses, drawing nothing, a party outside the ceremony or one
    /// already admitted.
    pub fn challenge(&mut self, party: PartyId) -> Result<Challenge, FlipsError> {
        let refused = |why: &str| Err(FlipsError::Refused(party, why.into()));
        match self.slots.get(party) {
            None => return refused("not in this ceremony"),
            Some(Slot::Admitted) => return refused("already admitted"),
            Some(_) => {}
        }
        let nonce: u64 = self.rng.random();
        let quote = self.enclave.quote(nonce);
        let (channel, enclave_end) = SecureChannel::establish(&mut self.rng);
        self.slots[party] = Slot::Challenged(enclave_end);
        Ok(Challenge { nonce, quote, channel })
    }

    /// Admits `party`'s sealed registration (step 3): the enclave opens it
    /// over the party's channel and stores the distribution under the
    /// party's id, so the order of admission does not matter.
    ///
    /// # Errors
    ///
    /// Refuses, naming the party and leaving the ceremony as it was, a
    /// party outside it, unchallenged or already admitted (all before the
    /// enclave), and a message that does not open or decode to `labels`
    /// finite, non-negative entries (the challenge then stays open).
    pub fn admit(&mut self, party: PartyId, sealed: &SealedMessage) -> Result<(), FlipsError> {
        let refused = |why: String| FlipsError::Refused(party, why);
        let channel = match self.slots.get(party) {
            None => return Err(refused("not in this ceremony".into())),
            Some(Slot::Waiting) => return Err(refused("no open challenge".into())),
            Some(Slot::Admitted) => return Err(refused("already admitted".into())),
            Some(Slot::Challenged(channel)) => channel,
        };
        let labels = self.labels;
        self.enclave
            .enter(|state| {
                let plain = channel.open(sealed).map_err(|e| e.to_string())?;
                let values = decode_distribution(&plain).map_err(|e| e.to_string())?;
                if values.len() != labels {
                    return Err(format!("sealed {} labels, the job has {labels}", values.len()));
                }
                state.distributions[party] = values;
                Ok(())
            })?
            .map_err(refused)?;
        self.slots[party] = Slot::Admitted;
        Ok(())
    }

    /// Clusters inside the enclave and stands up the selector (steps 4
    /// and 5).
    ///
    /// # Errors
    ///
    /// Refuses while any party is not admitted; fails if clustering cannot
    /// run.
    pub fn close(self) -> Result<PrivateClustering, FlipsError> {
        if let Some(party) = self.slots.iter().position(|s| !matches!(s, Slot::Admitted)) {
            return Err(FlipsError::Refused(party, "not registered".into()));
        }
        let n = self.slots.len();
        let cluster_seed = derive_seed(self.config.seed, 0xC1F5);
        let cfg = self.config;
        let k = self
            .enclave
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
                let clustering = kmeans(&mut krng, &KMeansPoints::new(&points)?, k)?;
                let mut clusters = clustering.members();
                clusters.retain(|c| !c.is_empty());
                let mut selector = FlipsSelector::new(clusters)?;
                if !cfg.overprovision {
                    selector = selector.without_overprovisioning();
                }
                state.selector = Some(selector);
                Ok(k)
            })
            .map_err(FlipsError::Tee)??;

        Ok(PrivateClustering { enclave: self.enclave, k, num_parties: n })
    }
}

/// The outcome of the ceremony: an enclave holding the clusters and the
/// Algorithm 1 selector, serving selection as a [`ParticipantSelector`]
/// whose entire state lives inside the TEE. Dropping it destroys the
/// enclave, erasing all clustering state as the paper requires at job end.
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

    /// Total simulated TEE overhead incurred so far.
    pub fn tee_overhead(&self) -> std::time::Duration {
        self.enclave.total_overhead()
    }

    /// Enclave ECALL count (diagnostics).
    pub fn tee_entries(&self) -> u64 {
        self.enclave.entry_count()
    }

    /// Destroys the enclave, erasing clusters and selection state.
    pub fn destroy(&self) {
        self.enclave.destroy();
    }
}

impl ParticipantSelector for PrivateClustering {
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
        MiddlewareConfig { restarts: 5, k_max: 12, seed, ..Default::default() }
    }

    /// Cluster sizes. They leak grouping structure, so only tests read
    /// them, through the enclave (one ECALL).
    fn cluster_sizes(pc: &PrivateClustering) -> Vec<usize> {
        pc.enclave
            .enter(|state| {
                state
                    .selector
                    .as_ref()
                    .map(|s| s.clusters().iter().map(Vec::len).collect())
                    .unwrap_or_default()
            })
            .unwrap()
    }

    /// What a closed ceremony shows: `k`, its ECALLs so far, its cluster
    /// sizes and its first five selections.
    fn outcome(mut pc: PrivateClustering) -> (usize, u64, Vec<usize>, Vec<Vec<PartyId>>) {
        let entries = pc.tee_entries();
        let sizes = cluster_sizes(&pc);
        let picks = (0..5).map(|round| pc.select(round, 4).unwrap()).collect();
        (pc.k(), entries, sizes, picks)
    }

    #[test]
    fn ceremony_discovers_the_archetype_count() {
        let lds = archetype_lds(5, 10, 8);
        let pc = FlipsMiddleware::cluster_privately(&lds, &fast_config(1)).unwrap();
        assert!(
            (4..=6).contains(&pc.k()),
            "expected k near 5, got {} (sizes {:?})",
            pc.k(),
            cluster_sizes(&pc)
        );
        assert_eq!(pc.num_parties(), 40);
    }

    #[test]
    fn clusters_group_same_archetype_parties() {
        let lds = archetype_lds(4, 8, 5);
        let cfg = MiddlewareConfig { fixed_k: Some(4), ..fast_config(2) };
        let pc = FlipsMiddleware::cluster_privately(&lds, &cfg).unwrap();
        let mut sizes = cluster_sizes(&pc);
        sizes.sort_unstable();
        assert_eq!(sizes, vec![5, 5, 5, 5]);
    }

    #[test]
    fn selector_serves_rounds_from_the_enclave() {
        let lds = archetype_lds(4, 8, 5);
        let cfg = MiddlewareConfig { fixed_k: Some(4), ..fast_config(3) };
        let mut sel = FlipsMiddleware::cluster_privately(&lds, &cfg).unwrap();
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
        let mut sel = FlipsMiddleware::cluster_privately(&lds, &cfg).unwrap();
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
        assert_eq!(cluster_sizes(&a), cluster_sizes(&b));
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
    fn admission_order_does_not_matter() {
        // Uneven archetypes (3, 4, 5 and 6 parties), so a ceremony that
        // stored distributions in arrival order would cluster other ids.
        let lds: Vec<_> = (0..4)
            .flat_map(|a| {
                (0..a + 3).map(move |j| {
                    let mut counts = vec![1u64; 8];
                    counts[a] = 100 + j as u64 % 3;
                    LabelDistribution::from_counts(counts)
                })
            })
            .collect();
        let cfg = MiddlewareConfig { fixed_k: Some(4), ..fast_config(10) };
        let (mut ceremony, attestation) = Ceremony::open(lds.len(), 8, &cfg).unwrap();
        let sealed: Vec<_> = (lds.iter().enumerate())
            .map(|(party, own)| register(own, ceremony.challenge(party).unwrap(), &attestation))
            .collect::<Result<_, _>>()
            .unwrap();
        for (party, sealed) in sealed.iter().enumerate().rev() {
            ceremony.admit(party, sealed).unwrap();
        }
        let clean = FlipsMiddleware::cluster_privately(&lds, &cfg).unwrap();
        assert_eq!(outcome(ceremony.close().unwrap()), outcome(clean));
    }

    #[test]
    fn a_party_is_admitted_once() {
        let lds = archetype_lds(3, 6, 4);
        let cfg = MiddlewareConfig { fixed_k: Some(3), ..fast_config(11) };
        let (mut ceremony, attestation) = Ceremony::open(lds.len(), 6, &cfg).unwrap();
        for (party, own) in lds.iter().enumerate() {
            let sealed = register(own, ceremony.challenge(party).unwrap(), &attestation).unwrap();
            ceremony.admit(party, &sealed).unwrap();
            let again = ceremony.admit(party, &sealed).unwrap_err();
            assert!(matches!(again, FlipsError::Refused(p, _) if p == party), "{again}");
            let rechallenge = ceremony.challenge(party).unwrap_err();
            assert!(matches!(rechallenge, FlipsError::Refused(p, _) if p == party));
        }
        let closed = outcome(ceremony.close().unwrap());
        // Both refusals come before the enclave: no extra ECALL.
        assert_eq!(closed.1, 12 + 1);
        assert_eq!(closed, outcome(FlipsMiddleware::cluster_privately(&lds, &cfg).unwrap()));
    }

    #[test]
    fn a_tampered_registration_leaves_the_challenge_open() {
        let lds = archetype_lds(3, 6, 4);
        let cfg = MiddlewareConfig { fixed_k: Some(3), ..fast_config(12) };
        let (mut ceremony, attestation) = Ceremony::open(lds.len(), 6, &cfg).unwrap();
        for (party, own) in lds.iter().enumerate() {
            let sealed = register(own, ceremony.challenge(party).unwrap(), &attestation).unwrap();
            let mut tampered = sealed.clone();
            tampered.ciphertext[party] ^= 1;
            let err = ceremony.admit(party, &tampered).unwrap_err();
            assert!(matches!(err, FlipsError::Refused(p, _) if p == party), "{err}");
            ceremony.admit(party, &sealed).unwrap();
        }
        let (k, entries, sizes, picks) = outcome(ceremony.close().unwrap());
        let clean = outcome(FlipsMiddleware::cluster_privately(&lds, &cfg).unwrap());
        // Each refused message cost the ECALL that opened it, nothing more.
        assert_eq!((k, entries, sizes, picks), (clean.0, clean.1 + 12, clean.2, clean.3));
    }

    #[test]
    fn admit_and_close_refuse_missing_parties() {
        let lds = archetype_lds(3, 6, 4);
        let cfg = MiddlewareConfig { fixed_k: Some(3), ..fast_config(13) };
        let (mut ceremony, attestation) = Ceremony::open(lds.len(), 6, &cfg).unwrap();
        let sealed = register(&lds[0], ceremony.challenge(0).unwrap(), &attestation).unwrap();
        assert!(matches!(ceremony.admit(12, &sealed), Err(FlipsError::Refused(12, _))));
        assert!(matches!(ceremony.challenge(12), Err(FlipsError::Refused(12, _))));
        assert!(matches!(ceremony.admit(1, &sealed), Err(FlipsError::Refused(1, _))));
        for (party, own) in lds.iter().enumerate().take(11).skip(1) {
            let sealed = register(own, ceremony.challenge(party).unwrap(), &attestation).unwrap();
            ceremony.admit(party, &sealed).unwrap();
        }
        ceremony.admit(0, &sealed).unwrap();
        assert!(matches!(ceremony.close(), Err(FlipsError::Refused(11, _))));
    }

    #[test]
    fn register_refuses_a_quote_over_another_partys_nonce() {
        let lds = archetype_lds(3, 6, 4);
        let (mut ceremony, attestation) = Ceremony::open(12, 6, &fast_config(14)).unwrap();
        let (zero, one) = (ceremony.challenge(0).unwrap(), ceremony.challenge(1).unwrap());
        let swapped = Challenge { quote: one.quote, ..zero };
        let err = register(&lds[0], swapped, &attestation).unwrap_err();
        assert!(matches!(err, FlipsError::Tee(TeeError::AttestationFailed(_))), "{err}");
    }

    #[test]
    fn a_registration_with_another_label_count_is_refused_by_name() {
        let mut lds = archetype_lds(3, 6, 4);
        let honest = lds[5].clone();
        lds[5] = LabelDistribution::from_counts(vec![1; 7]);
        let cfg = MiddlewareConfig { fixed_k: Some(3), ..fast_config(15) };
        let err = FlipsMiddleware::cluster_privately(&lds, &cfg).unwrap_err();
        assert!(matches!(err, FlipsError::Refused(5, _)), "{err}");

        // The refusal leaves the slot empty: a fresh challenge admits the
        // honest distribution, and the clustering is the clean run's.
        let (mut ceremony, attestation) = Ceremony::open(12, 6, &cfg).unwrap();
        for (party, own) in lds.iter().enumerate() {
            let sealed = register(own, ceremony.challenge(party).unwrap(), &attestation).unwrap();
            if party == 5 {
                assert!(ceremony.admit(party, &sealed).is_err());
                let sealed = register(&honest, ceremony.challenge(5).unwrap(), &attestation);
                ceremony.admit(party, &sealed.unwrap()).unwrap();
            } else {
                ceremony.admit(party, &sealed).unwrap();
            }
        }
        lds[5] = honest;
        let (k, entries, sizes, picks) = outcome(ceremony.close().unwrap());
        let clean = outcome(FlipsMiddleware::cluster_privately(&lds, &cfg).unwrap());
        assert_eq!((k, entries, sizes, picks), (clean.0, clean.1 + 1, clean.2, clean.3));
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
