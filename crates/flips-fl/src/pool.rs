//! The party side of the serialized wire: [`PartyPool`] holds every
//! job's [`PartyEndpoint`]s keyed by `(job, party)`, decoding inbound
//! frames, training, and encoding replies — and, in aggregation-tree
//! mode, folding its endpoints' updates into one exact partial per
//! round. One thread moves every frame; training and the delta-codec
//! uplink encode fan out: the models of one drain train together on
//! every core, each worker encoding the updates it trains, and the
//! replies go out in the order the models arrived. [`run_lockstep`]
//! alternates one [`MultiJobDriver`] and its pools — one per link — on
//! the calling thread.

use crate::aggtree::ExactWeightedSum;
use crate::codec::{CodecMap, CodecScratch, ModelCodec, Negotiation, Role};
use crate::driver::MultiJobDriver;
use crate::guard::GuardConfig;
use crate::message::{
    deframe_with, frame_dest, frame_into, frame_is_notice, frame_job_of, frame_model_of,
    frame_update_into, PartialEntry, AGGREGATOR_DEST,
};
use crate::party::Trainer;
use crate::transport::{Transport, MAX_FRAME_BYTES};
use crate::{FlError, PartyEndpoint, WireMessage};
use bytes::BytesMut;
use flips_selection::PartyId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The party side of a serialized link: every job's endpoints, keyed by
/// `(job id, party id)`.
pub struct PartyPool<T: Transport> {
    transport: T,
    endpoints: BTreeMap<(u64, PartyId), PartyEndpoint>,
    /// Each job's training workers' trainers, made by the first flush
    /// that trains the job ([`PartyEndpoint::handle_cohort`]).
    trainers: BTreeMap<u64, Vec<Trainer>>,
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
    /// ([`PartyPool::enable_tree`]), keyed by job id, each with the last
    /// dispatched global this node saw: captured off the downlink so
    /// per-party sketches are taken against the exact bits the
    /// coordinator would have used.
    pub(crate) tree: BTreeMap<u64, Option<Dispatched>>,
    /// Per-`(job, round)` partial fold accumulated since the last pump
    /// drain — one [`WireMessage::PartialUpdate`] is emitted per entry
    /// when the drain loop goes quiet, in ascending key order.
    tree_acc: BTreeMap<(u64, u64), (ExactWeightedSum, Vec<PartialEntry>)>,
    /// The drain's global models awaiting training, and every reply
    /// behind them ([`PartyPool::pump`]).
    outbox: Outbox,
}

/// One reply of a trained model.
enum Reply {
    /// Framed by its worker, ready to send.
    Framed(BytesMut),
    /// Left to the pump thread to frame, or to fold.
    Message(WireMessage),
}

/// Replies one drain has not sent yet, in wire order, and the batch of
/// global models whose training they wait on.
#[derive(Default)]
struct Outbox {
    /// The `(job, round)` every batched model carries.
    key: Option<(u64, u64)>,
    /// Endpoints holding a batched model.
    batched: BTreeSet<PartyId>,
    /// The first batched model's parameters.
    params: Option<Arc<[f32]>>,
    slots: Vec<Slot>,
}

enum Slot {
    /// A batched model for an endpoint; its update once trained.
    Model(PartyId, WireMessage),
    /// Replies already made.
    Ready(Vec<WireMessage>),
}

impl Outbox {
    /// Batches a global model for `dest`. A model with the first one's
    /// bits — the same broadcast, decoded again — shares them, so one
    /// decoded copy per batch waits for the flush, not one per endpoint.
    fn push_model(&mut self, dest: PartyId, mut msg: WireMessage) {
        if let WireMessage::GlobalModel { job, round, params } = &mut msg {
            self.key = Some((*job, *round));
            match &self.params {
                Some(first) if same_bits(first, params) => *params = Arc::clone(first),
                Some(_) => {}
                None => self.params = Some(Arc::clone(params)),
            }
        }
        self.batched.insert(dest);
        self.slots.push(Slot::Model(dest, msg));
    }

    /// Whether `frame` can be taken in without training the batch first:
    /// a model of the batch's `(job, round)`, or a selection notice, for
    /// an endpoint not in the batch. Both leave the batch's codec state
    /// as it is — the receiver's reference moves only on a newer round,
    /// and a notice moves the batch job's codec only when it pins it
    /// first — so every batched update encodes as if sent at once.
    fn admits(&self, frame: &[u8], codecs: &CodecMap) -> bool {
        let Some((job, round)) = self.key else {
            return true;
        };
        let Some(dest) = frame_dest(frame) else {
            return false;
        };
        let free = !self.batched.contains(&(dest as PartyId));
        if let Some(model) = frame_model_of(frame) {
            return model == (job, round) && free;
        }
        frame_is_notice(frame)
            && frame_job_of(frame).is_some_and(|j| j != job || free && codecs.codec_of(j).is_some())
    }
}

/// A global model as a round dispatched it: `(round, parameters)`.
type Dispatched = (u64, Arc<[f32]>);

fn same_bits(a: &Arc<[f32]>, b: &Arc<[f32]>) -> bool {
    Arc::ptr_eq(a, b)
        || a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.to_bits() == y.to_bits())
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
            trainers: BTreeMap::new(),
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
            outbox: Outbox::default(),
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
    /// ([`crate::Coordinator::set_exact_fold`]). Selector-feedback
    /// sketches are computed *here*, [`crate::SKETCH_DIM`] wide against
    /// the dispatched global, and shipped inside the partial.
    ///
    /// Safety valve: an update the node cannot fold (no captured global
    /// yet, round mismatch after a resume, parameters outside the exact
    /// domain) is forwarded flat, unchanged — the exact coordinator
    /// merges mixed flat + partial cohorts bit-identically, so falling
    /// back never forks the history.
    pub fn enable_tree(&mut self, job: u64) {
        self.tree.insert(job, None);
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
    /// A pool serves exactly one transport link, so this pin is per
    /// (link, job). Pin the job's own codec
    /// ([`MultiJobDriver::codec_of`]): every link speaks it, so a
    /// notice that disagrees is hostile.
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
    /// One thread moves every frame; training and the delta-codec
    /// update encode fan out. The global models of one `(job, round)`
    /// that a drain delivers to distinct endpoints train together, on
    /// every core, through the cohort trainer [`crate::FlJob`] uses, and
    /// each worker frames the flat updates it trains when the job's
    /// codec keeps a reference (raw and f16 updates, and tree-mode
    /// folds, stay on this thread); any other frame — or the end of the
    /// drain — trains the batch first. Replies leave in the order their
    /// frames arrived, so the wire, every endpoint and every codec see
    /// what they would if each frame were handled in turn.
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
        self.pump_on(flips_ml::parallel::threads(self.endpoints.len()))
    }

    /// [`PartyPool::pump`], training on at most `workers` threads; the
    /// wire carries the same bytes at every count.
    fn pump_on(&mut self, workers: usize) -> Result<bool, FlError> {
        let mut progressed = false;
        while let Some(raw) = self.transport.try_recv()? {
            progressed = true;
            if self.max_frame.is_some_and(|cap| raw.len() > cap) {
                self.oversized += 1;
                continue;
            }
            if !self.outbox.admits(&raw, &self.codecs) {
                self.flush(workers)?;
            }
            let peeked_job = frame_job_of(&raw);
            let (dest, msg) = match deframe_with(raw, &mut self.codecs) {
                Ok((dest, msg)) => {
                    if self.endpoints.contains_key(&(msg.job(), dest as PartyId)) {
                        (dest as PartyId, msg)
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
            // The wire-level half of codec negotiation: the first
            // notice for a job pins the codec its model frames will be
            // decoded with; a conflicting notice is dropped before it
            // can reach (and confuse) an endpoint. Idempotent repeats
            // pass through — the endpoint re-acks them. This map is the
            // party side's one codec table.
            if let WireMessage::SelectionNotice { job, codec, .. } = &msg {
                if self.codecs.negotiate(*job, *codec) == Negotiation::Conflict {
                    self.renegotiations_rejected += 1;
                    continue;
                }
            }
            if matches!(msg, WireMessage::GlobalModel { .. }) {
                self.outbox.push_model(dest, msg);
                continue;
            }
            let endpoint = self.endpoints.get_mut(&(msg.job(), dest)).expect("checked");
            match endpoint.handle(&msg) {
                Ok(replies) => self.outbox.slots.push(Slot::Ready(replies)),
                Err(_) => self.rejected += 1,
            }
        }
        self.flush(workers)?;
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

    /// Trains the batched models on up to `workers` threads, then sends
    /// the outbox in order (tree-mode updates fold instead).
    ///
    /// A delta codec's flat updates are framed in their training task,
    /// each worker in a scratch of its own, sized here (a buffer a worker
    /// first sizes stays in its thread's allocator arena) and held for
    /// this flush only, so the driver's turn can reuse the memory. Raw
    /// and f16 framing is a copy: those updates are framed here, like
    /// tree-mode updates that fail to fold.
    fn flush(&mut self, workers: usize) -> Result<(), FlError> {
        let Outbox { key, slots, .. } = std::mem::take(&mut self.outbox);
        let (job, _) = key.unwrap_or_default();
        let mut cohort = Vec::new();
        let mut models = Vec::new();
        for slot in &slots {
            if let Slot::Model(party, msg) = slot {
                cohort.push(self.endpoints.remove(&(job, *party)).expect("batched when routed"));
                models.push(msg);
            }
        }
        let workers = workers.clamp(1, models.len().max(1));
        let n = cohort.first().map_or(0, |ep| ep.party().num_params());
        let codec = self.codecs.get(job);
        let framed =
            (codec.codec().tracks_reference() && !self.tree.contains_key(&job)).then_some(codec);
        let mut scratches: Vec<CodecScratch> = (0..workers).map(|_| Default::default()).collect();
        if let Some(codec) = framed {
            for scratch in &mut scratches {
                scratch.reserve_encode(codec.codec(), n);
            }
        }
        let mut trainers = self.trainers.remove(&job).unwrap_or_default();
        let results = PartyEndpoint::handle_cohort(
            cohort.iter_mut().zip(models).collect(),
            &mut trainers,
            &mut scratches,
            |scratch, replies| -> Vec<Reply> {
                let encode = |reply| {
                    let mut frame = BytesMut::new();
                    match framed {
                        Some(codec)
                            if frame_update_into(
                                AGGREGATOR_DEST,
                                &reply,
                                codec,
                                scratch,
                                &mut frame,
                            ) =>
                        {
                            Reply::Framed(frame)
                        }
                        _ => Reply::Message(reply),
                    }
                };
                replies.into_iter().map(encode).collect()
            },
        );
        if !trainers.is_empty() {
            self.trainers.insert(job, trainers);
        }
        for endpoint in cohort {
            self.endpoints.insert((job, endpoint.id()), endpoint);
        }
        let mut results = results.into_iter();
        for slot in slots {
            let replies = match slot {
                Slot::Ready(replies) => {
                    for reply in replies {
                        self.send_reply(reply)?;
                    }
                    continue;
                }
                Slot::Model(_, msg) => {
                    // Tree mode captures each dispatched global before
                    // its update folds: folded updates need the exact
                    // broadcast bits as the sketch reference.
                    if let WireMessage::GlobalModel { job, round, params } = msg {
                        if let Some(global) = self.tree.get_mut(&job) {
                            *global = Some((round, params));
                        }
                    }
                    let Ok(replies) = results.next().expect("one result per model") else {
                        self.rejected += 1;
                        continue;
                    };
                    replies
                }
            };
            for reply in replies {
                match reply {
                    Reply::Framed(frame) => self.transport.send(frame.as_slice())?,
                    Reply::Message(reply) => self.send_reply(reply)?,
                }
            }
        }
        Ok(())
    }

    /// Folds `reply` if it is a tree-mode update, frames and sends it
    /// otherwise.
    fn send_reply(&mut self, reply: WireMessage) -> Result<(), FlError> {
        if self.try_fold_tree(&reply) {
            return Ok(());
        }
        frame_into(AGGREGATOR_DEST, &reply, self.codecs.for_job(reply.job()), &mut self.scratch);
        self.transport.send(self.scratch.as_slice())
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
        let Some(Some((g_round, global))) = self.tree.get(job) else {
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
        let Ok(sketch) = sum.fold_sketched(params, *num_samples, global) else {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::{FlJob, FlJobConfig};
    use crate::config::LocalTrainingConfig;
    use crate::coordinator::CoordinatorConfig;
    use crate::driver::DriverStats;
    use crate::message::deframe;
    use crate::transport::{duplex, PipeEnd, StreamTransport};
    use crate::History;
    use bytes::Bytes;
    use flips_data::dataset::{balanced_test_set, generate_population};
    use flips_data::DatasetProfile;
    use flips_selection::RandomSelector;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// The party end of the wire, recording every uplink frame and
    /// slipping scripted frames into the downlink behind the frame that
    /// prompted them.
    struct Tap<F> {
        inner: StreamTransport<PipeEnd>,
        script: F,
        pending: std::collections::VecDeque<Bytes>,
        sent: Vec<Vec<u8>>,
    }

    impl<F: FnMut(&[u8]) -> Vec<Bytes>> Transport for Tap<F> {
        fn send(&mut self, frame: &[u8]) -> Result<(), FlError> {
            self.sent.push(frame.to_vec());
            self.inner.send(frame)
        }

        fn try_recv(&mut self) -> Result<Option<Bytes>, FlError> {
            if let Some(frame) = self.pending.pop_front() {
                return Ok(Some(frame));
            }
            let frame = self.inner.try_recv()?;
            if let Some(frame) = &frame {
                self.pending.extend((self.script)(frame));
            }
            Ok(frame)
        }
    }

    /// Ten parties of 2–240 samples, four a round.
    fn job(seed: u64, codec: ModelCodec, straggler_rate: f64) -> FlJob {
        let profile = DatasetProfile::femnist().scaled(10, 30);
        let sizes = [3usize, 180, 7, 64, 2, 240, 15, 96, 5, 120];
        let datasets = (0..).zip(sizes).map(|(i, n)| generate_population(&profile, n, i)).collect();
        let config = FlJobConfig {
            straggler_rate,
            local: LocalTrainingConfig { epochs: 1, batch_size: 16, ..Default::default() },
            ..FlJobConfig::new(CoordinatorConfig {
                rounds: 4,
                parties_per_round: 4,
                codec,
                seed,
                ..CoordinatorConfig::new(profile.model.clone())
            })
        };
        let test = balanced_test_set(&profile, 10, 11);
        FlJob::new(datasets, test, config, Box::new(RandomSelector::new(10, seed))).unwrap()
    }

    /// What one pump leaves behind: uplink frames so far and every pool
    /// counter.
    type Snapshot = (usize, [u64; 5]);

    /// Three jobs on one pool: `flat` (raw codec, 20 % stragglers, the
    /// scripted frames), `delta` (DeltaEntropy) and `tree` (an
    /// aggregation-tree inner node), driven to the end on `workers`.
    fn run_on(workers: usize) -> (Vec<Vec<u8>>, Vec<Snapshot>, Vec<History>, DriverStats) {
        let (agg_end, party_end) = duplex();
        let mut driver = MultiJobDriver::new(StreamTransport::new(agg_end));
        let mut jobs = Vec::new();
        for (seed, codec, rate, tree) in [
            (1, ModelCodec::Raw, 0.2, false),
            (2, ModelCodec::DeltaEntropy, 0.0, false),
            (3, ModelCodec::Raw, 0.0, true),
        ] {
            let mut parts = job(seed, codec, rate).into_parts();
            parts.coordinator.set_exact_fold(tree);
            let (id, endpoints) = driver.add_parts(parts).unwrap();
            jobs.push((id, endpoints, tree));
        }
        let flat = jobs[0].0;

        // Each mid-drain, behind the first model of a flat-job round:
        // round 1 aborts that model's party, round 2 sends a model of
        // the wrong length to the next party, round 3 repeats the model.
        let firsts = Rc::new(RefCell::new(BTreeMap::new()));
        let seen = Rc::clone(&firsts);
        let script = move |frame: &[u8]| -> Vec<Bytes> {
            let Some((job, round)) = frame_model_of(frame).filter(|(job, _)| *job == flat) else {
                return Vec::new();
            };
            let party = frame_dest(frame).unwrap();
            if *seen.borrow_mut().entry(round).or_insert(party) != party {
                return Vec::new();
            }
            let mut codecs = CodecMap::new(Role::Sender);
            let mut out = BytesMut::new();
            match round {
                1 => {
                    let abort = WireMessage::Abort { job, round, party, reason: "test".into() };
                    frame_into(party, &abort, codecs.for_job(job), &mut out);
                }
                2 => {
                    let short =
                        WireMessage::GlobalModel { job, round, params: vec![0.5; 3].into() };
                    frame_into((party + 1) % 10, &short, codecs.for_job(job), &mut out);
                }
                3 => return vec![Bytes::from(frame.to_vec())],
                _ => return Vec::new(),
            }
            vec![Bytes::from(out.as_slice().to_vec())]
        };
        let tap = Tap {
            inner: StreamTransport::new(party_end),
            script,
            pending: Default::default(),
            sent: Vec::new(),
        };
        let mut pool = PartyPool::new(tap);
        for (id, endpoints, tree) in jobs {
            pool.add_job(id, endpoints);
            if tree {
                pool.enable_tree(id);
            }
        }

        let mut snapshots = Vec::new();
        driver.start().unwrap();
        while !driver.is_finished() {
            loop {
                let mut progressed = driver.pump().unwrap();
                progressed |= pool.pump_on(workers).unwrap();
                snapshots.push((
                    pool.transport().sent.len(),
                    [
                        pool.unroutable(),
                        pool.rejected(),
                        pool.codec_mismatch(),
                        pool.renegotiations_rejected(),
                        pool.oversized(),
                    ],
                ));
                if !progressed {
                    break;
                }
            }
            if !driver.is_finished() {
                assert!(driver.advance_clock().unwrap(), "stalled");
            }
        }
        let sent = std::mem::take(&mut pool.transport_mut().sent);
        // Each frame took effect in turn: the model the abort followed
        // still trained, and the repeated one trained twice.
        let updates = |round: u64| {
            let party = firsts.borrow()[&round];
            let of = |f: &Vec<u8>| match deframe(Bytes::from(f.clone())) {
                Ok((_, WireMessage::LocalUpdate { job, round: r, party: p, .. })) => {
                    (job, r, p) == (flat, round, party)
                }
                _ => false,
            };
            sent.iter().filter(|f| of(f)).count()
        };
        assert_eq!((updates(1), updates(3)), (1, 2), "{workers} workers");
        let histories =
            driver.job_ids().into_iter().map(|j| driver.history(j).unwrap().clone()).collect();
        (sent, snapshots, histories, driver.stats())
    }

    #[test]
    fn a_pool_holds_at_most_one_trainer_per_worker_and_job() {
        let held = |pool: &PartyPool<StreamTransport<PipeEnd>>| -> Vec<usize> {
            pool.trainers.values().map(Vec::len).collect()
        };
        for workers in [1, 2, 3] {
            // Two jobs of 16 parties each, on a wire this test drives.
            let (agg_end, party_end) = duplex();
            let mut wire = StreamTransport::new(agg_end);
            let mut pool = PartyPool::new(StreamTransport::new(party_end));
            let mut jobs = Vec::new();
            for seed in [1, 2] {
                let profile = DatasetProfile::femnist().scaled(16, 30);
                let datasets =
                    (0..16).map(|i| generate_population(&profile, 3 + 17 * i, i as u64)).collect();
                let config = FlJobConfig {
                    local: LocalTrainingConfig { epochs: 1, batch_size: 16, ..Default::default() },
                    ..FlJobConfig::new(CoordinatorConfig {
                        seed,
                        ..CoordinatorConfig::new(profile.model.clone())
                    })
                };
                let test = balanced_test_set(&profile, 10, 11);
                let selector = Box::new(RandomSelector::new(16, seed));
                let parts = FlJob::new(datasets, test, config, selector).unwrap().into_parts();
                let (id, global) = (parts.coordinator.job_id(), parts.coordinator.global_params());
                jobs.push((id, Arc::<[f32]>::from(global)));
                pool.add_job(id, parts.endpoints);
            }
            assert!(held(&pool).is_empty(), "construction made a trainer");
            let mut codecs = CodecMap::new(Role::Sender);
            let mut frame = BytesMut::new();
            let mut send = |to: u64, msg: &WireMessage| {
                frame_into(to, msg, codecs.for_job(msg.job()), &mut frame);
                wire.send(frame.as_slice()).unwrap();
            };
            // A drain of only notices and aborts trains nothing.
            for (job, _) in &jobs {
                for party in 0..16 {
                    let codec = ModelCodec::Raw;
                    send(
                        party,
                        &WireMessage::SelectionNotice { job: *job, round: 0, party, codec },
                    );
                    let reason = "test".into();
                    send(party, &WireMessage::Abort { job: *job, round: 0, party, reason });
                }
            }
            assert!(pool.pump_on(workers).unwrap());
            assert!(held(&pool).is_empty(), "{workers} workers: notices made a trainer");
            // Every party of both jobs trains three rounds.
            for round in 1..=3 {
                for (job, global) in &jobs {
                    for party in 0..16 {
                        let params = Arc::clone(global);
                        send(party, &WireMessage::GlobalModel { job: *job, round, params });
                    }
                    assert!(pool.pump_on(workers).unwrap());
                }
            }
            let held = held(&pool);
            assert_eq!(held.len(), 2, "{workers} workers: one trainer vector per job");
            assert!(held.iter().all(|n| (1..=workers).contains(n)), "{workers} workers: {held:?}");
            assert_eq!(pool.rejected(), 0);
        }
    }

    #[test]
    fn every_worker_count_sends_the_same_bytes() {
        let (sent, snapshots, histories, stats) = run_on(1);
        assert!(histories.iter().all(|h| h.len() == 4), "every job ran its budget");
        let (_, last) = snapshots.last().unwrap();
        assert_eq!(*last, [0, 1, 0, 0, 0], "the wrong-length model is the one rejected frame");
        assert!(stats.rejected_messages > 0, "the repeated model trains twice");
        let partial = |f: &Vec<u8>| {
            matches!(deframe(Bytes::from(f.clone())), Ok((_, WireMessage::PartialUpdate { .. })))
        };
        assert!(sent.iter().any(partial), "the tree job ships partials");
        for workers in [2, 3, 8] {
            let (s, n, h, d) = run_on(workers);
            assert!(s == sent, "{workers} workers: the uplink differs");
            assert!(n == snapshots, "{workers} workers: counters differ after some pump");
            assert!(h == histories, "{workers} workers: histories differ");
            assert_eq!(d, stats, "{workers} workers");
        }
    }
}
