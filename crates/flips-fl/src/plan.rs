//! The wire plan: which party lives on which link and who folds what
//! — decided once, here, and handed to the mechanisms as data.
//!
//! Every multi-link wire in the workspace (the in-memory lockstep
//! built by [`memory_wire`], `flips_net::run_socket` / `serve` /
//! `party_loop_with`, and the `flips-server` / `flips-party` binaries)
//! is a consumer of this module. Two deployment decisions live here
//! and nowhere else:
//!
//! - **Placement** — party `p` of every job lives on link
//!   `p % links` ([`place`], [`WireOptions::link_of`]). The assignment
//!   is a pure function, so two processes that parse the same config
//!   shard identically; nothing about a history depends on *which*
//!   deterministic assignment is used.
//! - **Tree mode** — a two-ended contract: every coordinator folds
//!   with the exact 256-bit sum and every link's pool acts as a tree
//!   inner node carrying the coordinator's sketch width — except for a
//!   job on latency-derived deadlines, whose pools keep shipping flat
//!   updates (the driver judges lateness per update).
//!
//! A job speaks its own codec on every link. [`split`] pins it on each
//! [`LinkShare`] out-of-band, so no pool trusts a wire notice for it.
//!
//! [`split`] turns a job set into the coordinator-side parts plus one
//! [`LinkShare`] per link; [`MultiJobDriver::install`] and
//! [`PartyPool::install`] are the two install sequences that consume
//! them, and [`memory_wire`] runs all three over in-memory links.

use crate::chaos::{ChaosSchedule, ChaosTransport};
use crate::codec::ModelCodec;
use crate::driver::MultiJobDriver;
use crate::guard::GuardConfig;
use crate::pool::PartyPool;
use crate::transport::{MemoryRouter, MemoryTransport, Transport};
use crate::{FlError, JobParts, PartyEndpoint};
use flips_selection::PartyId;

/// The deployment decisions every multi-link wire shares. The socket
/// runtime's option structs (`flips_net::SocketOptions`,
/// `flips_net::ServerOptions`) embed one and layer their own extras on
/// top; [`WithWire`] gives each of them the same three builders.
#[derive(Debug, Clone)]
pub struct WireOptions {
    /// Links the roster is split across (≥ 1): in-memory links, TCP
    /// connections or party processes.
    pub links: usize,
    /// Inbound guard plane installed on the driver (and, for the
    /// frame-size stage, on every link's pool). `None` runs unguarded.
    pub guard: Option<GuardConfig>,
    /// Seeded chaos schedule applied at the driver's uplink seam (a
    /// [`ChaosTransport`] around the router, so every uplink frame
    /// passes it whichever link it came from). `None` runs the wire
    /// untouched.
    pub chaos: Option<ChaosSchedule>,
    /// Aggregation-tree mode: every coordinator folds with the exact
    /// 256-bit sum ([`crate::Coordinator::set_exact_fold`]) and every
    /// link's pool ships one partial per round instead of per-party
    /// update frames ([`PartyPool::enable_tree`]) — coordinator fan-in
    /// becomes O(links). A job on latency-derived deadlines keeps flat
    /// updates on its links (see [`split`]). Histories are pinned
    /// bit-identical to the flat exact-fold run by
    /// `tests/scale_equivalence.rs`.
    pub tree: bool,
}

impl WireOptions {
    /// A plan over `links` links: no guard, no chaos, flat aggregation.
    pub fn new(links: usize) -> Self {
        WireOptions { links, guard: None, chaos: None, tree: false }
    }

    /// The link party `party` of every job lives on.
    pub fn link_of(&self, party: PartyId) -> usize {
        place(party as u64, self.links)
    }

    /// Rejects a plan no runtime can run: zero links, or `jobs == 0`.
    /// [`split`] checks; a runtime that is handed an already-split job
    /// set (a server about to block in `accept`) calls it up front.
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidConfig`] naming the offending count.
    pub fn admit(&self, jobs: usize) -> Result<(), FlError> {
        if self.links == 0 {
            return Err(FlError::InvalidConfig(
                "link count must be at least 1 (one link per shard or party process)".into(),
            ));
        }
        if jobs == 0 {
            return Err(FlError::InvalidConfig("no jobs to run".into()));
        }
        Ok(())
    }
}

/// The placement rule: frame destination `dest` (a party id) travels
/// link `dest % links`. The one [`crate::transport::Router`] calls this
/// with its own link count, whatever its links are made of; everything
/// else goes through [`WireOptions::link_of`].
pub fn place(dest: u64, links: usize) -> usize {
    (dest % links as u64) as usize
}

/// The shared builders of every options struct that embeds a
/// [`WireOptions`].
pub trait WithWire: Sized {
    /// The embedded wire plan.
    fn wire_mut(&mut self) -> &mut WireOptions;

    /// Installs an inbound guard plane on the run's driver and pools.
    #[must_use]
    fn with_guard(mut self, guard: GuardConfig) -> Self {
        self.wire_mut().guard = Some(guard);
        self
    }

    /// Applies a seeded chaos schedule to the run's uplink.
    #[must_use]
    fn with_chaos(mut self, chaos: ChaosSchedule) -> Self {
        self.wire_mut().chaos = Some(chaos);
        self
    }

    /// Enables aggregation-tree mode (see [`WireOptions::tree`]).
    #[must_use]
    fn with_tree(mut self) -> Self {
        self.wire_mut().tree = true;
        self
    }
}

impl WithWire for WireOptions {
    fn wire_mut(&mut self) -> &mut WireOptions {
        self
    }
}

/// One job's slice of a [`LinkShare`].
#[derive(Debug)]
pub struct ShareJob {
    /// The job id.
    pub job: u64,
    /// The job's codec, pinned out-of-band on this link (each link is an
    /// independent party-side process; trust-on-first-frame is not how
    /// a production shard would learn its codec).
    pub codec: ModelCodec,
    /// The endpoints this link owns, roster order.
    pub endpoints: Vec<PartyEndpoint>,
    /// Whether the link folds this job as an aggregation-tree inner
    /// node: never in flat mode or for a job on latency-derived
    /// deadlines.
    pub tree: bool,
}

/// Everything the party side of one link needs: which link it is and,
/// per job it serves, its endpoints, pinned codec and tree role.
#[derive(Debug)]
pub struct LinkShare {
    /// The link index (memory link, TCP link slot).
    pub link: usize,
    /// The jobs with at least one endpoint on this link, in job-set
    /// order.
    pub jobs: Vec<ShareJob>,
}

impl LinkShare {
    /// Endpoints on this link across all jobs.
    pub fn parties(&self) -> usize {
        self.jobs.iter().map(|j| j.endpoints.len()).sum()
    }
}

/// Splits a job set along `wire`: the coordinator-side parts (endpoints
/// taken out) and one [`LinkShare`] per link, every endpoint on exactly
/// the share [`WireOptions::link_of`] names.
///
/// In tree mode a job's pools are armed as inner nodes only when its
/// deadlines are injected: on a latency-derived policy the driver
/// judges lateness per update at uplink receive, and a pool that folded
/// a late update into its partial would hide it from that check. Such a
/// job ships flat updates to its (still exact-fold) coordinator, which
/// accepts them — the same bits as the flat exact fold.
///
/// # Errors
///
/// [`FlError::InvalidConfig`] for zero links or an empty job set.
pub fn split(
    jobs: Vec<JobParts>,
    wire: &WireOptions,
) -> Result<(Vec<JobParts>, Vec<LinkShare>), FlError> {
    wire.admit(jobs.len())?;
    let mut shares: Vec<LinkShare> =
        (0..wire.links).map(|link| LinkShare { link, jobs: Vec::new() }).collect();
    let mut coordinator_side = Vec::with_capacity(jobs.len());
    for mut parts in jobs {
        let job = parts.coordinator.job_id();
        let codec = parts.coordinator.codec();
        let tree = wire.tree && !parts.deadline.is_latency_derived();
        let mut slices: Vec<Vec<PartyEndpoint>> = (0..wire.links).map(|_| Vec::new()).collect();
        for endpoint in std::mem::take(&mut parts.endpoints) {
            slices[wire.link_of(endpoint.id())].push(endpoint);
        }
        for (share, endpoints) in shares.iter_mut().zip(slices) {
            if !endpoints.is_empty() {
                share.jobs.push(ShareJob { job, codec, endpoints, tree });
            }
        }
        coordinator_side.push(parts);
    }
    Ok((coordinator_side, shares))
}

impl<T: Transport> MultiJobDriver<ChaosTransport<T>> {
    /// Builds the coordinator side of a planned wire over `transport`:
    /// chaos seam (inert without a schedule), guard plane, then every
    /// job's coordinator-side parts. In tree mode every coordinator is
    /// switched to the exact fold — the coordinator half of the
    /// contract whose party half [`PartyPool::install`] applies.
    /// Endpoints still inside `jobs` are dropped: the party side lives
    /// wherever [`split`]'s shares went.
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidConfig`] for an invalid guard or a duplicate
    /// job id.
    pub fn install(transport: T, jobs: Vec<JobParts>, wire: &WireOptions) -> Result<Self, FlError> {
        let seam = match &wire.chaos {
            Some(schedule) => ChaosTransport::new(transport, schedule.clone()),
            None => ChaosTransport::inert(transport),
        };
        let mut driver = MultiJobDriver::new(seam);
        if let Some(guard) = wire.guard {
            driver.set_guard(guard)?;
        }
        for mut parts in jobs {
            if wire.tree {
                parts.coordinator.set_exact_fold(true);
            }
            driver.add_parts(parts)?;
        }
        Ok(driver)
    }
}

impl<T: Transport> PartyPool<T> {
    /// Builds the party side of one planned link over `transport`: the
    /// guard's frame-size cap, then per job the pinned codec, the
    /// endpoints and — in tree mode — the inner-node role.
    pub fn install(transport: T, share: LinkShare, guard: Option<&GuardConfig>) -> Self {
        let mut pool = PartyPool::new(transport);
        if let Some(guard) = guard {
            pool.set_guard(guard);
        }
        for ShareJob { job, codec, endpoints, tree } in share.jobs {
            pool.pin_codec(job, codec);
            pool.add_job(job, endpoints);
            if tree {
                pool.enable_tree(job);
            }
        }
        pool
    }
}

/// The driver and the per-link pools of a planned in-memory wire.
pub type MemoryWire =
    (MultiJobDriver<ChaosTransport<MemoryRouter>>, Vec<PartyPool<MemoryTransport>>);

/// Plans `jobs` over `wire.links` in-memory links and installs both
/// ends: [`split`], one [`MemoryTransport::pair`] per link (framed over
/// a [`crate::duplex`] pipe, as a TCP link is), the driver
/// behind a [`MemoryRouter`] ([`MultiJobDriver::install`]) and one pool
/// per share ([`PartyPool::install`]), `pools[i]` serving link `i`.
/// Hand both to [`crate::run_lockstep`] — one thread, so the run
/// replays down to the chaos draw — then read
/// [`MultiJobDriver::history`], [`MultiJobDriver::stats`] and the pools'
/// counters directly.
///
/// # Errors
///
/// As [`split`] and [`MultiJobDriver::install`].
pub fn memory_wire(jobs: Vec<JobParts>, wire: &WireOptions) -> Result<MemoryWire, FlError> {
    let (jobs, shares) = split(jobs, wire)?;
    let (driver_ends, pool_ends): (Vec<_>, Vec<_>) =
        shares.iter().map(|_| MemoryTransport::pair()).unzip();
    let driver = MultiJobDriver::install(MemoryRouter::new(driver_ends), jobs, wire)?;
    let pools = pool_ends
        .into_iter()
        .zip(shares)
        .map(|(end, share)| PartyPool::install(end, share, wire.guard.as_ref()))
        .collect();
    Ok((driver, pools))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoordinatorConfig, DeadlinePolicy, FlJob, FlJobConfig, LocalTrainingConfig};
    use flips_data::dataset::{balanced_test_set, generate_population};
    use flips_data::{partition, DatasetProfile, PartitionStrategy};
    use flips_selection::RandomSelector;
    use proptest::prelude::*;

    /// `jobs` seeded jobs of `parties` parties each; job `i` is seeded
    /// `i + 1` (distinct ids).
    fn job_set(parties: usize, jobs: usize) -> Vec<JobParts> {
        let profile = DatasetProfile::femnist().scaled(parties, 2);
        let pop = generate_population(&profile, profile.default_total_samples, 3);
        (0..jobs)
            .map(|i| {
                let parts = partition(&pop, parties, PartitionStrategy::Iid, 5, 3).unwrap();
                let config = FlJobConfig {
                    local: LocalTrainingConfig { epochs: 1, ..Default::default() },
                    ..FlJobConfig::new(CoordinatorConfig {
                        rounds: 1,
                        parties_per_round: 1,
                        seed: i as u64 + 1,
                        ..CoordinatorConfig::new(profile.model.clone())
                    })
                };
                let selector = Box::new(RandomSelector::new(parties, 3));
                FlJob::new(parts.parties, balanced_test_set(&profile, 2, 3), config, selector)
                    .unwrap()
                    .into_parts()
            })
            .collect()
    }

    /// A router over fresh memory links, one per share.
    fn router(shares: &[LinkShare]) -> MemoryRouter {
        MemoryRouter::new(shares.iter().map(|_| MemoryTransport::pair().0).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn split_places_every_endpoint_on_the_one_share_the_routers_name(
            parties in 1usize..14,
            links in 1usize..6,
            jobs in 1usize..4,
        ) {
            let wire = WireOptions::new(links);
            let set = job_set(parties, jobs);
            let ids: Vec<u64> = set.iter().map(|p| p.coordinator.job_id()).collect();
            let codecs: Vec<ModelCodec> = set.iter().map(|p| p.coordinator.codec()).collect();
            let (coordinator_side, shares) = split(set, &wire).unwrap();
            prop_assert_eq!(coordinator_side.len(), jobs);
            prop_assert!(coordinator_side.iter().all(|p| p.endpoints.is_empty()));
            prop_assert_eq!(shares.len(), links);
            for (&job, &codec) in ids.iter().zip(&codecs) {
                let mut seen = vec![0usize; parties];
                for (index, share) in shares.iter().enumerate() {
                    prop_assert_eq!(share.link, index);
                    for slice in share.jobs.iter().filter(|s| s.job == job) {
                        prop_assert!(!slice.endpoints.is_empty());
                        // Every link speaks the job's own codec.
                        prop_assert_eq!(slice.codec, codec);
                        for ep in &slice.endpoints {
                            seen[ep.id()] += 1;
                            // `link_of` for the split, `place` for both
                            // routers: one rule.
                            prop_assert_eq!(wire.link_of(ep.id()), index);
                            prop_assert_eq!(place(ep.id() as u64, links), index);
                        }
                    }
                }
                prop_assert!(seen.iter().all(|&n| n == 1), "job {job:#x}: {seen:?}");
            }
        }
    }

    #[test]
    fn tree_mode_arms_both_wire_ends_and_flat_mode_neither() {
        for tree in [false, true] {
            let mut wire = WireOptions::new(2);
            wire.tree = tree;
            let set = job_set(4, 2);
            let ids: Vec<u64> = set.iter().map(|p| p.coordinator.job_id()).collect();
            let (jobs, shares) = split(set, &wire).unwrap();
            let driver = MultiJobDriver::install(router(&shares), jobs, &wire).unwrap();
            for &job in &ids {
                assert_eq!(driver.coordinator(job).unwrap().exact_fold(), tree);
                for share in &shares {
                    assert_eq!(share.jobs.iter().find(|s| s.job == job).unwrap().tree, tree);
                }
            }
            for share in shares {
                let pool = PartyPool::install(MemoryTransport::pair().1, share, None);
                assert!(ids.iter().all(|job| pool.tree.contains_key(job) == tree));
            }
        }
    }

    #[test]
    fn tree_mode_leaves_a_latency_derived_job_on_flat_updates() {
        // One injected and one latency-derived job in the same tree-mode
        // set: only the first arms its pools — the driver must see the
        // second's updates one by one to judge them late — while both
        // coordinators fold exactly (an exact coordinator accepts flat
        // updates).
        let mut set = job_set(4, 2);
        set[1].deadline = DeadlinePolicy::LatencyQuantile { q: 0.5, slack: 1.1 };
        let ids: Vec<u64> = set.iter().map(|p| p.coordinator.job_id()).collect();
        let wire = WireOptions::new(2).with_tree();
        let (jobs, shares) = split(set, &wire).unwrap();
        for share in &shares {
            assert!(share.jobs[0].tree);
            assert!(!share.jobs[1].tree);
        }
        let driver = MultiJobDriver::install(router(&shares), jobs, &wire).unwrap();
        assert!(ids.iter().all(|&job| driver.coordinator(job).unwrap().exact_fold()));
    }

    #[test]
    fn zero_links_and_empty_job_sets_are_rejected_once() {
        let message = |r: Result<(), FlError>| match r {
            Err(FlError::InvalidConfig(m)) => m,
            other => panic!("expected InvalidConfig, got {other:?}"),
        };
        let zero = WireOptions::new(0);
        let links = "link count must be at least 1";
        assert!(message(split(job_set(2, 1), &zero).map(drop)).starts_with(links));
        assert!(message(memory_wire(job_set(2, 1), &zero).map(drop)).starts_with(links));
        assert!(message(zero.admit(1)).starts_with(links));
        let two = WireOptions::new(2);
        assert_eq!(message(split(Vec::new(), &two).map(drop)), "no jobs to run");
        assert_eq!(message(memory_wire(Vec::new(), &two).map(drop)), "no jobs to run");
        assert_eq!(message(two.admit(0)), "no jobs to run");
        assert!(two.admit(1).is_ok());
    }
}
