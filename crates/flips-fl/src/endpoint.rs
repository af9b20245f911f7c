//! The party-side protocol endpoint.
//!
//! [`PartyEndpoint`] is the participant half of the sans-IO protocol: it
//! wraps a [`Party`] (private dataset + local model) and turns inbound
//! wire messages into outbound ones — a [`WireMessage::SelectionNotice`]
//! into a [`WireMessage::Heartbeat`] ack, a [`WireMessage::GlobalModel`]
//! into a trained [`WireMessage::LocalUpdate`]. Like the coordinator it
//! performs no I/O itself; the driver moves the messages.

use crate::codec::ModelCodec;
use crate::config::LocalTrainingConfig;
use crate::latency::LatencyModel;
use crate::message::WireMessage;
use crate::party::Party;
use crate::FlError;
use flips_ml::model::ModelSpec;
use flips_selection::PartyId;
use std::sync::Arc;

/// One participant's protocol endpoint.
pub struct PartyEndpoint {
    party: Party,
    job_id: u64,
    local: LocalTrainingConfig,
    proximal_mu: f32,
    latency: Arc<LatencyModel>,
    seed: u64,
    /// Highest round an [`WireMessage::Abort`] arrived for. Rounds are
    /// monotonic, so any `GlobalModel` at or below this high-water mark
    /// is stale and skipped without training.
    aborted_round: Option<u64>,
    /// The model-payload codec pinned by the first selection notice
    /// (negotiated once; a conflicting later notice is refused).
    negotiated: Option<ModelCodec>,
    /// Round of the last acked selection notice — detects redelivery.
    last_notice_round: Option<u64>,
    /// Redelivered selection notices (same round, same codec): acked
    /// again — an at-least-once transport may retransmit — but counted.
    duplicate_notices: u64,
    /// Notices refused because they tried to renegotiate the codec.
    rejected_renegotiations: u64,
}

impl std::fmt::Debug for PartyEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartyEndpoint")
            .field("party", &self.party.id())
            .field("job_id", &self.job_id)
            .finish()
    }
}

impl PartyEndpoint {
    /// Creates the endpoint for party `id` of job `job_id`.
    ///
    /// `latency` is the shared platform-heterogeneity model (the
    /// simulation's stand-in for real device speed); `seed` is the job
    /// master seed every training stream derives from.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: PartyId,
        data: flips_data::Dataset,
        spec: &ModelSpec,
        job_id: u64,
        local: LocalTrainingConfig,
        proximal_mu: f32,
        latency: Arc<LatencyModel>,
        seed: u64,
    ) -> Self {
        PartyEndpoint {
            party: Party::new(id, data, spec, seed),
            job_id,
            local,
            proximal_mu,
            latency,
            seed,
            aborted_round: None,
            negotiated: None,
            last_notice_round: None,
            duplicate_notices: 0,
            rejected_renegotiations: 0,
        }
    }

    /// This endpoint's party identifier.
    pub fn id(&self) -> PartyId {
        self.party.id()
    }

    /// Local sample count `n_i`.
    pub fn num_samples(&self) -> usize {
        self.party.num_samples()
    }

    /// The wrapped party (label-distribution provisioning and tests).
    pub fn party(&self) -> &Party {
        &self.party
    }

    /// Sizes the party's training buffers on the calling thread (see
    /// [`Party::reserve_buffers`]).
    pub fn reserve_buffers(&mut self) {
        self.party.reserve_buffers(&self.local);
    }

    /// The highest round an abort was received for, if any.
    pub fn aborted_round(&self) -> Option<u64> {
        self.aborted_round
    }

    /// The model-payload codec pinned by the first selection notice.
    pub fn negotiated_codec(&self) -> Option<ModelCodec> {
        self.negotiated
    }

    /// Redelivered selection notices seen (acked again, but counted).
    pub fn duplicate_notices(&self) -> u64 {
        self.duplicate_notices
    }

    /// Selection notices refused for trying to renegotiate the codec.
    pub fn rejected_renegotiations(&self) -> u64 {
        self.rejected_renegotiations
    }

    /// Hands each endpoint of `cohort` its message ([`PartyEndpoint::handle`])
    /// on one worker per entry of `states` and returns `finish` of each
    /// result's replies, in `cohort` order: the one cohort trainer of both
    /// drivers ([`crate::FlJob`] and [`crate::PartyPool`], which frames its
    /// updates in `finish`, each worker in its own state). Buffers are
    /// sized on the calling thread first: a worker allocates from its
    /// thread's own glibc arena, and buffers that outlive the round would
    /// keep that arena's memory resident. Workers claim the largest
    /// dataset first, so no long training starts last. Training is
    /// seed-deterministic per (round, party), so neither the claim order
    /// nor the worker count moves a bit.
    pub(crate) fn handle_cohort<S, R>(
        cohort: Vec<(&mut PartyEndpoint, &WireMessage)>,
        states: &mut [S],
        finish: impl Fn(&mut S, Vec<WireMessage>) -> R + Sync,
    ) -> Vec<Result<R, FlError>>
    where
        S: Send,
        R: Send,
    {
        let mut jobs: Vec<_> = cohort.into_iter().enumerate().collect();
        for (_, (ep, _)) in &mut jobs {
            ep.reserve_buffers();
        }
        // Stable, so equal sizes keep cohort order.
        jobs.sort_by_key(|(_, (ep, _))| std::cmp::Reverse(ep.num_samples()));
        let mut results = flips_ml::parallel::map_with(jobs, states, |state, (slot, (ep, msg))| {
            (slot, ep.handle(msg).map(|replies| finish(state, replies)))
        });
        results.sort_unstable_by_key(|(slot, _)| *slot);
        results.into_iter().map(|(_, result)| result).collect()
    }

    /// Consumes one aggregator message and produces the party's replies.
    ///
    /// - `SelectionNotice` → `Heartbeat` ack. The first notice pins the
    ///   job's model-payload codec; redelivered notices are idempotent
    ///   (acked again, counted) and a notice carrying a *different*
    ///   codec is refused without a reply — a job's codec is negotiated
    ///   exactly once;
    /// - `GlobalModel` → local training → `LocalUpdate`;
    /// - `Abort` → no reply (the round is noted as aborted);
    /// - messages stamped with a foreign job id are dropped without a
    ///   reply: answering would stamp *some* job id on the response, and
    ///   either choice lets one misrouted message mutate an innocent
    ///   job's round state (the coordinator's `Rejected` effects are the
    ///   observability point for misrouted traffic).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Protocol`] on direction violations (a party
    /// receiving a `LocalUpdate` or `Heartbeat`) and on a `GlobalModel`
    /// whose parameters do not match the agreed architecture.
    pub fn handle(&mut self, msg: &WireMessage) -> Result<Vec<WireMessage>, FlError> {
        let me = self.party.id() as u64;
        if msg.job() != self.job_id {
            return Ok(Vec::new());
        }
        match msg {
            WireMessage::SelectionNotice { round, codec, .. } => {
                match self.negotiated {
                    None => self.negotiated = Some(*codec),
                    Some(pinned) if pinned == *codec => {}
                    Some(_) => {
                        // Codec renegotiation mid-job: refuse without a
                        // reply (answering would ack a handshake this
                        // endpoint did not accept).
                        self.rejected_renegotiations += 1;
                        return Ok(Vec::new());
                    }
                }
                if self.last_notice_round == Some(*round) {
                    self.duplicate_notices += 1;
                }
                self.last_notice_round = Some(*round);
                Ok(vec![WireMessage::Heartbeat { job: self.job_id, round: *round, party: me }])
            }
            WireMessage::GlobalModel { round, params, .. } => {
                if self.aborted_round.is_some_and(|r| *round <= r) {
                    // The aggregator already told us this round (or a
                    // later one) is over — a reordering transport can
                    // deliver the model late; don't burn training on it.
                    return Ok(Vec::new());
                }
                if params.len() != self.party.num_params() {
                    return Err(FlError::Protocol(format!(
                        "global model has {} params, party {} architecture needs {}",
                        params.len(),
                        me,
                        self.party.num_params()
                    )));
                }
                let update = self.party.train(
                    params,
                    *round as usize,
                    &self.local,
                    self.proximal_mu,
                    &self.latency,
                    self.seed,
                );
                Ok(vec![WireMessage::LocalUpdate {
                    job: self.job_id,
                    round: *round,
                    party: me,
                    num_samples: update.num_samples as u64,
                    mean_loss: update.mean_loss,
                    duration: update.duration,
                    params: update.params,
                }])
            }
            WireMessage::Abort { round, .. } => {
                self.aborted_round = Some(self.aborted_round.map_or(*round, |r| r.max(*round)));
                Ok(Vec::new())
            }
            WireMessage::LocalUpdate { .. }
            | WireMessage::PartialUpdate { .. }
            | WireMessage::Heartbeat { .. } => Err(FlError::Protocol(format!(
                "party {me} received an aggregator-bound message: {msg:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flips_data::dataset::generate_population;
    use flips_data::DatasetProfile;
    use flips_ml::rng::seeded;

    fn endpoint(job_id: u64) -> PartyEndpoint {
        let profile = DatasetProfile::femnist();
        let data = generate_population(&profile, 60, 3);
        PartyEndpoint::new(
            4,
            data,
            &profile.model,
            job_id,
            LocalTrainingConfig { epochs: 1, ..Default::default() },
            0.0,
            Arc::new(LatencyModel::uniform(8)),
            42,
        )
    }

    fn global_params() -> Vec<f32> {
        DatasetProfile::femnist().model.build(&mut seeded(0)).params()
    }

    #[test]
    fn selection_notice_is_acked_with_a_heartbeat() {
        let mut ep = endpoint(7);
        let notice =
            WireMessage::SelectionNotice { job: 7, round: 3, party: 4, codec: ModelCodec::Raw };
        let replies = ep.handle(&notice).unwrap();
        assert_eq!(replies, vec![WireMessage::Heartbeat { job: 7, round: 3, party: 4 }]);
    }

    #[test]
    fn global_model_trains_and_returns_a_local_update() {
        let mut ep = endpoint(7);
        let msg = WireMessage::GlobalModel { job: 7, round: 0, params: global_params().into() };
        let replies = ep.handle(&msg).unwrap();
        assert_eq!(replies.len(), 1);
        match &replies[0] {
            WireMessage::LocalUpdate {
                job, round, party, num_samples, mean_loss, params, ..
            } => {
                assert_eq!((*job, *round, *party), (7, 0, 4));
                assert_eq!(*num_samples, 60);
                assert!(*mean_loss > 0.0);
                assert_eq!(params.len(), global_params().len());
            }
            other => panic!("expected LocalUpdate, got {other:?}"),
        }
    }

    #[test]
    fn foreign_job_messages_are_dropped_without_a_reply() {
        // Replying would stamp some job id on the response and let one
        // misrouted message drop an innocent party in whichever job the
        // reply lands in — so misrouted traffic is ignored entirely.
        let mut ep = endpoint(7);
        let msg = WireMessage::GlobalModel { job: 8, round: 0, params: global_params().into() };
        assert!(ep.handle(&msg).unwrap().is_empty());
        let notice =
            WireMessage::SelectionNotice { job: 8, round: 0, party: 4, codec: ModelCodec::Raw };
        assert!(ep.handle(&notice).unwrap().is_empty());
    }

    #[test]
    fn architecture_mismatch_is_a_protocol_error() {
        let mut ep = endpoint(7);
        let msg = WireMessage::GlobalModel { job: 7, round: 0, params: vec![0.0; 3].into() };
        assert!(matches!(ep.handle(&msg), Err(FlError::Protocol(_))));
    }

    #[test]
    fn abort_is_noted_and_unanswered() {
        let mut ep = endpoint(7);
        let msg = WireMessage::Abort { job: 7, round: 2, party: 4, reason: "deadline".into() };
        assert!(ep.handle(&msg).unwrap().is_empty());
        assert_eq!(ep.aborted_round(), Some(2));
    }

    #[test]
    fn global_model_for_an_aborted_round_is_not_trained() {
        // A reordering transport can deliver the round's model after its
        // abort; the endpoint must not waste training on it.
        let mut ep = endpoint(7);
        let abort = WireMessage::Abort { job: 7, round: 3, party: 4, reason: "deadline".into() };
        ep.handle(&abort).unwrap();
        let late = WireMessage::GlobalModel { job: 7, round: 3, params: global_params().into() };
        assert!(ep.handle(&late).unwrap().is_empty());
        // A newer abort must not forget older aborted rounds: after
        // Abort(5), the delayed model for round 3 stays skipped.
        let abort5 = WireMessage::Abort { job: 7, round: 5, party: 4, reason: "deadline".into() };
        ep.handle(&abort5).unwrap();
        let late3 = WireMessage::GlobalModel { job: 7, round: 3, params: global_params().into() };
        assert!(ep.handle(&late3).unwrap().is_empty());
        // A later round trains normally.
        let next = WireMessage::GlobalModel { job: 7, round: 6, params: global_params().into() };
        assert_eq!(ep.handle(&next).unwrap().len(), 1);
    }

    #[test]
    fn foreign_job_abort_is_ignored() {
        // Another job's abort must not cancel this job's round.
        let mut ep = endpoint(7);
        let msg = WireMessage::Abort { job: 8, round: 2, party: 4, reason: "not yours".into() };
        assert!(ep.handle(&msg).unwrap().is_empty());
        assert_eq!(ep.aborted_round(), None);
    }

    #[test]
    fn aggregator_bound_messages_are_direction_violations() {
        let mut ep = endpoint(7);
        let hb = WireMessage::Heartbeat { job: 7, round: 0, party: 4 };
        assert!(matches!(ep.handle(&hb), Err(FlError::Protocol(_))));
    }

    fn notice(round: u64, codec: ModelCodec) -> WireMessage {
        WireMessage::SelectionNotice { job: 7, round, party: 4, codec }
    }

    #[test]
    fn first_notice_pins_the_codec() {
        let mut ep = endpoint(7);
        assert_eq!(ep.negotiated_codec(), None);
        ep.handle(&notice(0, ModelCodec::DeltaLossless)).unwrap();
        assert_eq!(ep.negotiated_codec(), Some(ModelCodec::DeltaLossless));
    }

    #[test]
    fn duplicate_notices_are_idempotent_and_counted() {
        // An at-least-once transport may redeliver the notice within the
        // round window: the endpoint must re-ack (the lost-heartbeat
        // recovery path) while counting the redelivery — and the
        // coordinator's byte accounting already dedups the re-ack.
        let mut ep = endpoint(7);
        let n = notice(2, ModelCodec::DeltaLossless);
        assert_eq!(ep.handle(&n).unwrap().len(), 1);
        assert_eq!(ep.duplicate_notices(), 0);
        for dup in 1..=3 {
            let replies = ep.handle(&n).unwrap();
            assert_eq!(replies.len(), 1, "redelivered notice must still be acked");
            assert_eq!(ep.duplicate_notices(), dup);
        }
        // The next round's notice is not a duplicate.
        assert_eq!(ep.handle(&notice(3, ModelCodec::DeltaLossless)).unwrap().len(), 1);
        assert_eq!(ep.duplicate_notices(), 3);
    }

    #[test]
    fn codec_renegotiation_is_refused_without_a_reply() {
        let mut ep = endpoint(7);
        ep.handle(&notice(0, ModelCodec::DeltaLossless)).unwrap();
        let replies = ep.handle(&notice(1, ModelCodec::F16)).unwrap();
        assert!(replies.is_empty(), "a renegotiating notice must not be acked");
        assert_eq!(ep.rejected_renegotiations(), 1);
        assert_eq!(
            ep.negotiated_codec(),
            Some(ModelCodec::DeltaLossless),
            "the pinned codec must survive the renegotiation attempt"
        );
        // Matching notices keep working.
        assert_eq!(ep.handle(&notice(1, ModelCodec::DeltaLossless)).unwrap().len(), 1);
    }
}
