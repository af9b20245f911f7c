//! Information-flow tests of the FLIPS privacy architecture (paper §3.3):
//! attestation gates provisioning, sealed channels resist tampering,
//! enclave destruction erases clustering state, and no party's label
//! counts land in the aggregator's roster.

use flips::middleware::{FlipsMiddleware, MiddlewareConfig, CLUSTERING_CODE_ID};
use flips::prelude::*;
use flips::tee::attestation::PlatformKey;
use flips::tee::{AttestationServer, Enclave, Measurement, SecureChannel, TeeError};

mod common;
use common::golden_builder;

fn sample_lds() -> Vec<LabelDistribution> {
    (0..12)
        .map(|i| {
            let mut counts = vec![1u64; 5];
            counts[i % 5] = 50;
            LabelDistribution::from_counts(counts)
        })
        .collect()
}

fn fast_config(seed: u64) -> MiddlewareConfig {
    MiddlewareConfig { restarts: 3, k_max: 6, seed, ..Default::default() }
}

#[test]
fn attestation_rejects_unregistered_clustering_code() {
    // A rogue aggregator swaps in different enclave code: parties'
    // verification against the shared attestation server must fail.
    let platform = PlatformKey::new(42);
    let mut server = AttestationServer::new(platform);
    server.register(Measurement::of_code(CLUSTERING_CODE_ID));

    let rogue = Enclave::load(b"rogue-exfiltration-code", (), platform, OverheadModel::none());
    let quote = rogue.quote(777);
    assert!(matches!(server.verify(&quote, 777), Err(TeeError::AttestationFailed(_))));

    // The genuine enclave passes.
    let genuine = Enclave::load(CLUSTERING_CODE_ID, (), platform, OverheadModel::none());
    assert!(server.verify(&genuine.quote(778), 778).is_ok());
}

#[test]
fn attestation_rejects_foreign_platforms() {
    // A quote signed by a different platform key (e.g. an emulated TEE)
    // must not verify, even with the right measurement.
    let real = PlatformKey::new(1);
    let fake = PlatformKey::new(2);
    let mut server = AttestationServer::new(real);
    let m = Measurement::of_code(CLUSTERING_CODE_ID);
    server.register(m);
    assert!(server.verify(&fake.quote(m, 5), 5).is_err());
}

#[test]
fn sealed_label_distributions_resist_tampering_in_transit() {
    let mut rng = flips::ml::rng::seeded(3);
    let (mut party, enclave_end) = SecureChannel::establish(&mut rng);
    let mut sealed = party.seal(b"\x05\x00\x00\x00label-distribution-payload");
    // A man-in-the-middle flips one ciphertext bit.
    sealed.ciphertext[3] ^= 0x01;
    assert_eq!(enclave_end.open(&sealed), Err(TeeError::IntegrityViolation));
}

#[test]
fn ceremony_produces_selector_and_destroy_erases_it() {
    let mut selector = FlipsMiddleware::cluster_privately(&sample_lds(), &fast_config(1)).unwrap();
    assert!(selector.k() >= 2);
    assert_eq!(selector.select(0, 4).unwrap().len(), 4);
    selector.destroy();
    assert!(selector.select(1, 4).is_err(), "selection must fail after enclave destruction");
}

#[test]
fn dropping_the_selector_wipes_enclave_state() {
    // Drop = end of FL job; the enclave erases itself (paper: "deletes
    // all information at the end of the FL job"). Verified indirectly:
    // a fresh ceremony over the same inputs works identically, and the
    // dropped selector cannot be observed — so assert the Drop impl runs
    // without leaking by constructing and dropping many.
    for seed in 0..5 {
        let _selector =
            FlipsMiddleware::cluster_privately(&sample_lds(), &fast_config(seed)).unwrap();
        // dropped here
    }
}

#[test]
fn aggregator_facing_api_never_exposes_label_distributions() {
    // Compile-time-ish check expressed at runtime: the public surface of
    // PrivateClustering yields only party ids and counts. What we *can*
    // assert: selection output contains ids only, and the only clustering
    // fact the report carries is k.
    let report = SimulationBuilder::new(DatasetProfile::ecg())
        .parties(16)
        .rounds(4)
        .participation(0.25)
        .selector(SelectorKind::Flips)
        .clustering_restarts(3)
        .test_per_class(5)
        .seed(2)
        .run()
        .unwrap();
    assert!(report.meta.k.is_some());
    for r in report.history.records() {
        for &p in &r.selected {
            assert!(p < 16);
        }
    }
}

#[test]
fn label_counts_never_reach_the_spilled_roster() {
    // Paper §3.3: a party's label distribution reaches only the attested
    // enclave. The aggregator's roster, sealed here to disk segments,
    // must hold no party's counts, whichever selector the job runs.
    for kind in SelectorKind::all() {
        let dir = std::env::temp_dir().join(format!("flips-privacy-{}-{kind}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (job, _) = golden_builder(kind).spill_roster(&dir, 1).build().unwrap();
        let segments: Vec<Vec<u8>> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "flrs"))
            .map(|path| std::fs::read(path).unwrap())
            .collect();
        assert!(!segments.is_empty(), "{kind}: the roster was not spilled");
        for (party, endpoint) in job.into_parts().endpoints.iter().enumerate() {
            // A vector as FLRS writes it: u64 LE length ‖ u64 LE counts.
            let ld = endpoint.party().label_distribution();
            let mut needle = (ld.num_labels() as u64).to_le_bytes().to_vec();
            for count in ld.counts() {
                needle.extend_from_slice(&count.to_le_bytes());
            }
            for segment in &segments {
                assert!(
                    !segment.windows(needle.len()).any(|w| w == needle.as_slice()),
                    "{kind}: party {party}'s label counts are in a roster segment"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn tee_overhead_is_accounted_when_enabled() {
    let pc = FlipsMiddleware::cluster_privately(&sample_lds(), &fast_config(4)).unwrap();
    assert!(pc.tee_overhead() > std::time::Duration::ZERO);
    assert!(pc.tee_entries() >= 13, "12 provisions + clustering");
}
