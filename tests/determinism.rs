//! Reproducibility: a single master seed pins every stream in the system
//! (data synthesis, partitioning, clustering restarts, selection,
//! mini-batch order, straggler injection), so entire experiments replay
//! bit-for-bit — the property the 6-run-averaged tables rely on.

use flips::prelude::*;

fn builder(kind: SelectorKind, seed: u64) -> SimulationBuilder {
    SimulationBuilder::new(DatasetProfile::femnist())
        .parties(18)
        .rounds(6)
        .participation(0.3)
        .alpha(0.3)
        .selector(kind)
        .straggler_rate(0.2)
        .clustering_restarts(3)
        .test_per_class(8)
        .seed(seed)
}

fn run(kind: SelectorKind, seed: u64) -> SimulationReport {
    builder(kind, seed).run().unwrap()
}

#[test]
fn identical_seeds_replay_identically_for_every_selector() {
    for kind in SelectorKind::all() {
        let a = run(kind, 11);
        let b = run(kind, 11);
        assert_eq!(a.history, b.history, "{kind} diverged under identical seeds");
        assert_eq!(a.meta.k, b.meta.k);
    }
}

#[test]
fn different_seeds_diverge() {
    let a = run(SelectorKind::Random, 1);
    let b = run(SelectorKind::Random, 2);
    assert_ne!(
        a.history.accuracy_series(),
        b.history.accuracy_series(),
        "different seeds should explore different trajectories"
    );
}

/// The party end of a wire that hands the pool at most one frame per
/// pump: `try_recv` reports the wire quiet after every frame it yields.
struct OneFramePerPump<T> {
    inner: T,
    yielded: bool,
}

impl<T: Transport> Transport for OneFramePerPump<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), flips::fl::FlError> {
        self.inner.send(frame)
    }
    fn try_recv(&mut self) -> Result<Option<bytes::Bytes>, flips::fl::FlError> {
        if std::mem::take(&mut self.yielded) {
            return Ok(None);
        }
        let frame = self.inner.try_recv()?;
        self.yielded = frame.is_some();
        Ok(frame)
    }
}

#[test]
fn parallel_training_matches_sequential() {
    // Thread scheduling must not leak into results: `FlJob` trains each
    // cohort on every core, while here the lockstep party pool sees one
    // frame per pump, so every batch it trains holds one party and the
    // same seeded job's parties train one after another on one thread.
    for kind in [SelectorKind::Flips, SelectorKind::Random] {
        let par = run(kind, 7);
        let (job, _) = builder(kind, 7).build().unwrap();
        let JobParts { coordinator, endpoints, clock, latency, .. } = job.into_parts();
        let (agg_pipe, party_pipe) = duplex();
        let mut driver = MultiJobDriver::new(StreamTransport::new(agg_pipe));
        let id = driver.add_job(coordinator, Box::new(clock), latency).unwrap();
        let party_end = OneFramePerPump { inner: StreamTransport::new(party_pipe), yielded: false };
        let mut pool = PartyPool::new(party_end);
        pool.add_job(id, endpoints);
        run_lockstep(&mut driver, std::slice::from_mut(&mut pool)).unwrap();
        let seq = driver.history(id).unwrap();
        assert_eq!(seq, &par.history, "{kind}: parallel execution changed results");
    }
}

#[test]
fn selector_streams_are_independent_of_each_other() {
    // Running FLIPS first must not perturb a later Random run with the
    // same seed (no global RNG state).
    let first = run(SelectorKind::Random, 5);
    let _ = run(SelectorKind::Flips, 5);
    let second = run(SelectorKind::Random, 5);
    assert_eq!(first.history, second.history);
}
