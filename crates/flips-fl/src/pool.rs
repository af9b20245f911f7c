//! The party side of the serialized wire: [`PartyPool`] holds every
//! job's [`PartyEndpoint`]s keyed by `(job, party)`, decoding inbound
//! frames, training, and encoding replies — and, in aggregation-tree
//! mode, folding its endpoints' updates into one exact partial per
//! round. [`run_lockstep`] alternates one [`MultiJobDriver`] and its
//! pools — one per link — on the calling thread.

use crate::aggtree::ExactWeightedSum;
use crate::codec::{CodecMap, ModelCodec, Negotiation, Role};
use crate::driver::MultiJobDriver;
use crate::guard::GuardConfig;
use crate::message::{deframe_with, frame_into, frame_job_of, PartialEntry, AGGREGATOR_DEST};
use crate::transport::{Transport, MAX_FRAME_BYTES};
use crate::{FlError, PartyEndpoint, WireMessage};
use bytes::BytesMut;
use flips_selection::PartyId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The party side of a serialized link: every job's endpoints, keyed by
/// `(job id, party id)`.
pub struct PartyPool<T: Transport> {
    transport: T,
    endpoints: BTreeMap<(u64, PartyId), PartyEndpoint>,
    /// Per-job payload codec state (receiver side of global models),
    /// negotiated from the codec each selection notice announces.
    codecs: CodecMap,
    /// Reused frame-encode scratch for uplink replies.
    scratch: BytesMut,
    /// Frames that failed to decode or addressed no registered endpoint.
    unroutable: u64,
    /// Routable frames the endpoint refused (direction/architecture
    /// protocol violations).
    rejected: u64,
    /// Frames dropped for a corrupt/mismatched model codec tag.
    codec_mismatch: u64,
    /// Selection notices dropped for trying to renegotiate a job codec.
    renegotiations_rejected: u64,
    /// Downlink frame-size cap, if a guard config was applied.
    max_frame: Option<usize>,
    /// Frames dropped by the size cap.
    oversized: u64,
    /// Jobs this pool folds as an aggregation-tree inner node
    /// ([`PartyPool::enable_tree`]), keyed by job id.
    tree: BTreeMap<u64, TreeJob>,
    /// Per-`(job, round)` partial fold accumulated since the last pump
    /// drain — one [`WireMessage::PartialUpdate`] is emitted per entry
    /// when the drain loop goes quiet, in ascending key order.
    tree_acc: BTreeMap<(u64, u64), (ExactWeightedSum, Vec<PartialEntry>)>,
}

/// Per-job state for a pool acting as an aggregation-tree inner node.
struct TreeJob {
    /// Selector-feedback sketch width the coordinator expects
    /// ([`crate::coordinator::Coordinator::sketch_dim`]).
    sketch_dim: usize,
    /// The last dispatched global this node saw, captured off the
    /// downlink so per-party sketches are taken against the exact bits
    /// the coordinator would have used.
    global: Option<(u64, Arc<[f32]>)>,
}

impl<T: Transport> std::fmt::Debug for PartyPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartyPool")
            .field("endpoints", &self.endpoints.len())
            .field("unroutable", &self.unroutable)
            .field("rejected", &self.rejected)
            .finish()
    }
}

impl<T: Transport> PartyPool<T> {
    /// An empty pool over `transport`.
    pub fn new(transport: T) -> Self {
        PartyPool {
            transport,
            endpoints: BTreeMap::new(),
            codecs: CodecMap::new(Role::Receiver),
            scratch: BytesMut::new(),
            unroutable: 0,
            rejected: 0,
            codec_mismatch: 0,
            renegotiations_rejected: 0,
            max_frame: None,
            oversized: 0,
            tree: BTreeMap::new(),
            tree_acc: BTreeMap::new(),
        }
    }

    /// Turns this pool into an aggregation-tree inner node for `job`:
    /// local updates its endpoints produce are folded into one exact
    /// 256-bit partial sum ([`ExactWeightedSum`]) per round and shipped
    /// uplink as a single [`WireMessage::PartialUpdate`] instead of
    /// O(parties) individual update frames. Fan-in at the coordinator
    /// becomes O(inner nodes).
    ///
    /// The receiving coordinator must be in exact-fold mode
    /// ([`crate::Coordinator::set_exact_fold`]); `sketch_dim` must match
    /// its configured sketch width, because selector-feedback sketches
    /// are computed *here*, against the dispatched global, and shipped
    /// inside the partial.
    ///
    /// Safety valve: an update the node cannot fold (no captured global
    /// yet, round mismatch after a resume, parameters outside the exact
    /// domain) is forwarded flat, unchanged — the exact coordinator
    /// merges mixed flat + partial cohorts bit-identically, so falling
    /// back never forks the history.
    pub fn enable_tree(&mut self, job: u64, sketch_dim: usize) {
        self.tree.insert(job, TreeJob { sketch_dim, global: None });
    }

    /// Whether `job` is folded at this node ([`PartyPool::enable_tree`]).
    pub fn tree_enabled(&self, job: u64) -> bool {
        self.tree.contains_key(&job)
    }

    /// Applies the guard plane's frame-size cap to this pool's inbound
    /// (downlink) frames. The party side trusts its own aggregator, so
    /// size is the only guard stage that applies down here — there is no
    /// per-party attribution or round-open signal on this side of the
    /// wire.
    pub fn set_guard(&mut self, config: &GuardConfig) {
        self.max_frame = Some(config.max_frame_bytes.min(MAX_FRAME_BYTES));
    }

    /// Frames dropped by the guard's size cap ([`PartyPool::set_guard`]).
    pub fn oversized(&self) -> u64 {
        self.oversized
    }

    /// Registers a job's endpoints (endpoint ids key the routing, the
    /// job id comes from each inbound message). The agreed architecture
    /// size is pinned on the job's codec state, so no wrong-length
    /// decoded model can ever become the job's delta reference.
    pub fn add_job(&mut self, job: u64, endpoints: Vec<PartyEndpoint>) {
        if let Some(ep) = endpoints.first() {
            self.codecs.expect_len(job, ep.party().num_params());
        }
        for ep in endpoints {
            self.endpoints.insert((job, ep.id()), ep);
        }
    }

    /// Endpoints registered.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// Whether the pool has no endpoints.
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// Frames this pool could not route (corrupt, or addressed to an
    /// unregistered `(job, party)`).
    pub fn unroutable(&self) -> u64 {
        self.unroutable
    }

    /// Routable frames an endpoint refused as protocol violations.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Frames dropped for a corrupt or mismatched model codec tag.
    pub fn codec_mismatch(&self) -> u64 {
        self.codec_mismatch
    }

    /// Selection notices dropped for trying to renegotiate a job codec.
    pub fn renegotiations_rejected(&self) -> u64 {
        self.renegotiations_rejected
    }

    /// The codec negotiated for a job, if any notice arrived yet.
    pub fn negotiated_codec(&self, job: u64) -> Option<ModelCodec> {
        self.codecs.codec_of(job)
    }

    /// The underlying transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Mutable access to the underlying transport — a socket-backed
    /// pool's event loop needs it to answer link-level control traffic
    /// and to resume buffered writes on write readiness.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Pins a job's codec from out-of-band configuration instead of
    /// trusting the first wire notice (trust-on-first-frame lets one
    /// forged notice wedge a job before its real notice arrives — see
    /// the trust-boundary notes in [`crate::codec`]). Subsequent
    /// notices must match or they are dropped and counted as
    /// renegotiations.
    ///
    /// A pool serves exactly one transport link, so this pin is
    /// naturally per-link: pin the codec the sender registered for
    /// *this link* ([`MultiJobDriver::set_link_codec`]), which may
    /// differ from the same job's codec on a sibling link.
    pub fn pin_codec(&mut self, job: u64, codec: ModelCodec) {
        self.codecs.register(job, codec);
    }

    /// Re-keys a job's receive-side delta reference (resume/restore —
    /// see [`CodecMap::seed_reference`]): both ends of the wire
    /// resynchronize to the same last-acknowledged global, so the next
    /// delta frame decodes against the exact bits it was encoded
    /// against. Returns `false` when the job's codec keeps no reference
    /// or the shape disagrees with the pinned architecture.
    pub fn seed_reference(&mut self, job: u64, round: u64, params: &[f32]) -> bool {
        self.codecs.seed_reference(job, round, params)
    }

    /// Processes every frame currently available: decode, route to the
    /// `(job, party)` endpoint, run the endpoint (training included),
    /// and send its replies back up the wire. Returns whether any frame
    /// was processed.
    ///
    /// Corrupt, unroutable and protocol-violating frames are counted
    /// and dropped — a bad frame must not take the pool (or any other
    /// job) down. That includes frames that *route* but that the
    /// endpoint refuses (a wrong-direction message, a model that does
    /// not match the agreed architecture): on the wire those are
    /// hostile traffic, mirroring how the coordinator bounces the
    /// symmetric cases with [`crate::Effect::Rejected`].
    ///
    /// # Errors
    ///
    /// Only transport failures propagate.
    pub fn pump(&mut self) -> Result<bool, FlError> {
        let mut progressed = false;
        while let Some(raw) = self.transport.try_recv()? {
            progressed = true;
            if self.max_frame.is_some_and(|cap| raw.len() > cap) {
                self.oversized += 1;
                continue;
            }
            let peeked_job = frame_job_of(&raw);
            let msg = match deframe_with(raw, &mut self.codecs) {
                Ok((dest, msg)) => {
                    if self.endpoints.contains_key(&(msg.job(), dest as PartyId)) {
                        (dest, msg)
                    } else {
                        self.unroutable += 1;
                        continue;
                    }
                }
                Err(FlError::CodecMismatch(_)) => {
                    // Only a job with a negotiated codec can genuinely
                    // mismatch; anything else is unroutable traffic.
                    if peeked_job.is_some_and(|j| self.codecs.codec_of(j).is_some()) {
                        self.codec_mismatch += 1;
                    } else {
                        self.unroutable += 1;
                    }
                    continue;
                }
                Err(_) => {
                    self.unroutable += 1;
                    continue;
                }
            };
            let (dest, msg) = msg;
            // The wire-level half of codec negotiation: the first
            // notice for a job pins the codec its model frames will be
            // decoded with; a conflicting notice is dropped before it
            // can reach (and confuse) an endpoint. Idempotent repeats
            // pass through — the endpoint re-acks and counts them.
            if let WireMessage::SelectionNotice { job, codec, .. } = &msg {
                if self.codecs.negotiate(*job, *codec) == Negotiation::Conflict {
                    self.renegotiations_rejected += 1;
                    continue;
                }
            }
            // Tree mode captures each dispatched global off the downlink
            // *before* the endpoint consumes it: folded updates need the
            // exact broadcast bits as the sketch reference.
            if let WireMessage::GlobalModel { job, round, params } = &msg {
                if let Some(tree) = self.tree.get_mut(job) {
                    tree.global = Some((*round, Arc::clone(params)));
                }
            }
            let endpoint = self.endpoints.get_mut(&(msg.job(), dest as PartyId)).expect("checked");
            let Ok(replies) = endpoint.handle(&msg) else {
                self.rejected += 1;
                continue;
            };
            for reply in replies {
                if self.try_fold_tree(&reply) {
                    continue;
                }
                frame_into(
                    AGGREGATOR_DEST,
                    &reply,
                    self.codecs.for_job(reply.job()),
                    &mut self.scratch,
                );
                self.transport.send(self.scratch.as_slice())?;
            }
        }
        // Ship one partial per (job, round) folded during this drain, in
        // deterministic ascending order. Emitting only once the wire is
        // quiet batches every update the drain produced; a round whose
        // updates arrive across several drains simply ships several
        // partials, which the exact coordinator merges bit-identically.
        for ((job, round), (sum, entries)) in std::mem::take(&mut self.tree_acc) {
            if entries.is_empty() {
                continue;
            }
            let msg = WireMessage::PartialUpdate {
                job,
                round,
                total_weight: sum.total_weight(),
                dim: sum.dim() as u32,
                limbs: sum.raw_limbs(),
                entries,
            };
            frame_into(AGGREGATOR_DEST, &msg, self.codecs.for_job(job), &mut self.scratch);
            self.transport.send(self.scratch.as_slice())?;
        }
        Ok(progressed)
    }

    /// Folds a tree-job local update into the round's partial
    /// accumulator. Returns `false` when the reply is not a foldable
    /// update — the caller then forwards it flat (the safety valve
    /// documented on [`PartyPool::enable_tree`]).
    fn try_fold_tree(&mut self, reply: &WireMessage) -> bool {
        let WireMessage::LocalUpdate {
            job,
            round,
            party,
            num_samples,
            mean_loss,
            duration,
            params,
        } = reply
        else {
            return false;
        };
        let Some(tree) = self.tree.get(job) else {
            return false;
        };
        let Some((g_round, global)) = tree.global.as_ref() else {
            return false;
        };
        if g_round != round || global.len() != params.len() {
            return false;
        }
        let (sum, entries) = self
            .tree_acc
            .entry((*job, *round))
            .or_insert_with(|| (ExactWeightedSum::new(params.len()), Vec::new()));
        // The fold validates everything (dimension, weight bounds, param
        // domain) before touching the limbs, so a refusal leaves the
        // accumulated partial intact and this one update goes up flat.
        let Ok(sketch) = sum.fold_sketched(params, *num_samples, global, tree.sketch_dim) else {
            return false;
        };
        entries.push(PartialEntry {
            party: *party,
            num_samples: *num_samples,
            mean_loss: *mean_loss,
            duration: *duration,
            sketch,
        });
        true
    }
}

/// Runs a driver and its in-process party pools — one per link, a
/// single-element slice for a point-to-point wire — to completion,
/// lock-step on the calling thread: pump the driver and every pool, in
/// slice order, until the wire is quiet in both directions on every
/// link, then advance the driver's clock; repeat until every job
/// finishes — or, if the driver is draining
/// ([`MultiJobDriver::begin_drain`]), until it reaches quiescence with
/// its partial histories intact.
///
/// Simulated time moves only on a provably quiet wire, so a deadline
/// can never overtake a reply still in flight, and nothing a round
/// records depends on arrival order (the coordinator's seat map is
/// ordered by party id): a job's history is the same for every link
/// count and every pool order, and a rerun replays every counter.
///
/// # Errors
///
/// Propagates the first driver/pool failure, and a
/// [`FlError::Protocol`] if the system stalls (quiet wire, no live
/// deadline, unfinished jobs — a wiring bug, e.g. endpoints registered
/// under the wrong job id).
pub fn run_lockstep<A: Transport, B: Transport>(
    driver: &mut MultiJobDriver<A>,
    pools: &mut [PartyPool<B>],
) -> Result<(), FlError> {
    driver.start()?;
    loop {
        loop {
            let mut progressed = driver.pump()?;
            for pool in pools.iter_mut() {
                progressed |= pool.pump()?;
            }
            if !progressed {
                break;
            }
        }
        if driver.is_finished() || driver.is_quiescent() {
            return Ok(());
        }
        if !driver.advance_clock()? {
            return Err(FlError::Protocol(
                "driver stalled: wire quiet, no live deadline, jobs unfinished".into(),
            ));
        }
    }
}
