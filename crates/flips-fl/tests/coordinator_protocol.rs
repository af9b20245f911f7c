//! Pure state-machine tests of the sans-IO [`Coordinator`]: every round
//! phase — select → dispatch → partial updates → deadline close →
//! aggregate — is driven by hand-fed events, with zero I/O, zero threads
//! and zero training. Updates are fabricated wire messages, not model
//! outputs: the protocol does not care.

use flips_data::dataset::balanced_test_set;
use flips_data::DatasetProfile;
use flips_fl::aggtree::ExactWeightedSum;
use flips_fl::config::FlAlgorithm;
use flips_fl::coordinator::{Coordinator, CoordinatorConfig};
use flips_fl::events::{Effect, Event, RejectReason};
use flips_fl::history::RoundRecord;
use flips_fl::message::{PartialEntry, WireMessage};
use flips_fl::{FlError, SKETCH_DIM};
use flips_selection::{ParticipantSelector, PartyId, RoundFeedback, SelectionError};

/// The job id every coordinator here derives from its seed, 7.
const JOB: u64 = 0x3FD5_451C_4770_878F;

/// A deterministic policy selecting `cohort` every round, recording the
/// feedback it receives.
struct Scripted {
    n: usize,
    cohort: Vec<PartyId>,
    reports: Vec<(usize, Vec<PartyId>, Vec<PartyId>)>,
}

impl Scripted {
    fn new(n: usize, cohort: Vec<PartyId>) -> Self {
        Scripted { n, cohort, reports: Vec::new() }
    }
}

impl ParticipantSelector for Scripted {
    fn name(&self) -> &'static str {
        "scripted"
    }
    fn select(&mut self, _round: usize, _target: usize) -> Result<Vec<PartyId>, SelectionError> {
        Ok(self.cohort.clone())
    }
    fn report(&mut self, fb: &RoundFeedback) {
        self.reports.push((fb.round, fb.completed.clone(), fb.stragglers.clone()));
    }
    fn num_parties(&self) -> usize {
        self.n
    }
}

fn coordinator(rounds: usize, cohort: Vec<PartyId>) -> Coordinator {
    coordinator_running(FlAlgorithm::FedAvg, rounds, cohort)
}

fn coordinator_running(algorithm: FlAlgorithm, rounds: usize, cohort: Vec<PartyId>) -> Coordinator {
    let profile = DatasetProfile::femnist();
    let test = balanced_test_set(&profile, 4, 5);
    Coordinator::new(
        CoordinatorConfig {
            algorithm,
            rounds,
            parties_per_round: cohort.len().max(1),
            seed: 7,
            ..CoordinatorConfig::new(profile.model.clone())
        },
        8,
        test,
        Box::new(Scripted::new(8, cohort)),
    )
    .unwrap()
}

fn update(party: u64, round: u64, dim: usize, value: f32) -> Event {
    Event::UpdateReceived(WireMessage::LocalUpdate {
        job: JOB,
        round,
        party,
        num_samples: 10,
        mean_loss: 0.5,
        duration: 1.0 + party as f64,
        params: vec![value; dim],
    })
}

fn heartbeat(party: u64, round: u64) -> Event {
    Event::UpdateReceived(WireMessage::Heartbeat { job: JOB, round, party })
}

fn rejection(effects: &[Effect]) -> Option<RejectReason> {
    effects.iter().find_map(|e| match e {
        Effect::Rejected { reason, .. } => Some(*reason),
        _ => None,
    })
}

#[test]
fn open_round_dispatches_notice_and_model_per_party() {
    let mut c = coordinator(3, vec![1, 4, 6]);
    let effects = c.open_round().unwrap();
    assert_eq!(effects.len(), 6, "one notice + one model per party");
    for (i, &p) in [1usize, 4, 6].iter().enumerate() {
        match &effects[2 * i] {
            Effect::Send { to, msg: WireMessage::SelectionNotice { job, round, party, .. } } => {
                assert_eq!((*to, *job, *round, *party), (p, JOB, 0, p as u64));
            }
            other => panic!("expected SelectionNotice, got {other:?}"),
        }
        match &effects[2 * i + 1] {
            Effect::Send { to, msg: WireMessage::GlobalModel { params, .. } } => {
                assert_eq!(*to, p);
                assert_eq!(params.len(), c.global_params().len());
            }
            other => panic!("expected GlobalModel, got {other:?}"),
        }
    }
    assert_eq!(c.open_cohort(), Some(&[1usize, 4, 6][..]));
}

#[test]
fn deadline_close_aggregates_partials_and_aborts_stragglers() {
    let mut c = coordinator(3, vec![1, 4, 6]);
    let dim = c.global_params().len();
    c.open_round().unwrap();

    // Everyone acks; only parties 4 and 1 deliver before the deadline.
    for p in [1u64, 4, 6] {
        assert!(c.handle(heartbeat(p, 0)).unwrap().is_empty());
    }
    assert_eq!(c.heartbeats_this_round(), 3);
    assert!(c.handle(update(4, 0, dim, 2.0)).unwrap().is_empty());
    assert!(c.handle(update(1, 0, dim, 4.0)).unwrap().is_empty());

    let effects = c.handle(Event::DeadlineExpired).unwrap();
    // Straggler 6 is told to abort, then the round record lands.
    assert!(effects
        .iter()
        .any(|e| matches!(e, Effect::Send { to: 6, msg: WireMessage::Abort { .. } })));
    let record = effects
        .iter()
        .find_map(|e| match e {
            Effect::RoundClosed(r) => Some(r),
            _ => None,
        })
        .expect("round must close");
    assert_eq!(record.round, 0);
    assert_eq!(record.selected, vec![1, 4, 6]);
    assert_eq!(record.completed, vec![1, 4], "sorted by party id");
    assert_eq!(record.stragglers, vec![6]);
    assert_eq!(record.round_duration, 5.0, "slowest completing party (4)");
    // FedAvg with equal weights: global becomes the mean of 4.0 and 2.0.
    assert!(c.global_params().iter().all(|&g| (g - 3.0).abs() < 1e-6));
    assert_eq!(c.round(), 1);
    assert!(!c.is_finished());
}

#[test]
fn duplicate_updates_are_rejected_without_state_damage() {
    let mut c = coordinator(1, vec![2, 3]);
    let dim = c.global_params().len();
    c.open_round().unwrap();
    assert!(c.handle(update(2, 0, dim, 8.0)).unwrap().is_empty());

    // The same party again — with different parameters, which must NOT
    // replace the accepted ones (first-write-wins, as in XAIN's round
    // manager).
    let effects = c.handle(update(2, 0, dim, -99.0)).unwrap();
    assert_eq!(rejection(&effects), Some(RejectReason::DuplicateUpdate));

    let effects = c.handle(update(3, 0, dim, 4.0)).unwrap();
    // Cohort complete -> auto-close without an explicit deadline.
    let record = effects
        .iter()
        .find_map(|e| match e {
            Effect::RoundClosed(r) => Some(r.clone()),
            _ => None,
        })
        .expect("full cohort closes the round");
    assert_eq!(record.completed, vec![2, 3]);
    assert!(record.stragglers.is_empty());
    assert!(c.global_params().iter().all(|&g| (g - 6.0).abs() < 1e-6), "mean of 8 and 4");
    assert!(effects.iter().any(|e| matches!(e, Effect::JobFinished(_))));
    assert!(c.is_finished());
}

#[test]
fn foreign_and_malformed_updates_bounce() {
    let mut c = coordinator(2, vec![0, 1]);
    let dim = c.global_params().len();

    // Before any round is open.
    let effects = c.handle(update(0, 0, dim, 1.0)).unwrap();
    assert_eq!(rejection(&effects), Some(RejectReason::NoOpenRound));

    c.open_round().unwrap();
    // Wrong job id.
    let msg = WireMessage::LocalUpdate {
        job: JOB + 1,
        round: 0,
        party: 0,
        num_samples: 1,
        mean_loss: 0.0,
        duration: 0.0,
        params: vec![0.0; dim],
    };
    let effects = c.handle(Event::UpdateReceived(msg)).unwrap();
    assert_eq!(rejection(&effects), Some(RejectReason::WrongJob));

    // Wrong round (future).
    let effects = c.handle(update(0, 5, dim, 1.0)).unwrap();
    assert_eq!(rejection(&effects), Some(RejectReason::WrongRound));

    // Not selected / out of roster.
    let effects = c.handle(update(7, 0, dim, 1.0)).unwrap();
    assert_eq!(rejection(&effects), Some(RejectReason::NotSelected));
    let effects = c.handle(update(100, 0, dim, 1.0)).unwrap();
    assert_eq!(rejection(&effects), Some(RejectReason::NotSelected));

    // Parameter vector of the wrong architecture.
    let effects = c.handle(update(0, 0, dim + 1, 1.0)).unwrap();
    assert_eq!(rejection(&effects), Some(RejectReason::WrongModelSize));

    // A party echoing the aggregator's own message back.
    let echo = WireMessage::GlobalModel { job: JOB, round: 0, params: vec![0.0; dim].into() };
    let effects = c.handle(Event::UpdateReceived(echo)).unwrap();
    assert_eq!(rejection(&effects), Some(RejectReason::WrongDirection));

    // None of that perturbed the round: both parties can still complete.
    assert!(c.handle(update(0, 0, dim, 1.0)).unwrap().is_empty());
    let effects = c.handle(update(1, 0, dim, 1.0)).unwrap();
    assert!(effects.iter().any(|e| matches!(e, Effect::RoundClosed(_))));
}

#[test]
fn dropped_parties_close_as_stragglers() {
    let mut c = coordinator(2, vec![0, 1, 2]);
    let dim = c.global_params().len();
    c.open_round().unwrap();
    assert!(c.handle(Event::PartyDropped(1)).unwrap().is_empty());

    // An update from the dropped party is refused.
    let effects = c.handle(update(1, 0, dim, 1.0)).unwrap();
    assert_eq!(rejection(&effects), Some(RejectReason::PartyDropped));

    // The remaining parties complete -> the drop triggers no waiting.
    assert!(c.handle(update(0, 0, dim, 1.0)).unwrap().is_empty());
    let effects = c.handle(update(2, 0, dim, 1.0)).unwrap();
    let record = effects
        .iter()
        .find_map(|e| match e {
            Effect::RoundClosed(r) => Some(r.clone()),
            _ => None,
        })
        .expect("round closes once all live parties delivered");
    assert_eq!(record.completed, vec![0, 2]);
    assert_eq!(record.stragglers, vec![1]);
}

#[test]
fn party_abort_message_acts_as_a_drop() {
    let mut c = coordinator(2, vec![0, 1]);
    let dim = c.global_params().len();
    c.open_round().unwrap();
    let abort = WireMessage::Abort { job: JOB, round: 0, party: 1, reason: "low battery".into() };
    assert!(c.handle(Event::UpdateReceived(abort)).unwrap().is_empty());
    let effects = c.handle(update(0, 0, dim, 1.0)).unwrap();
    let record = effects
        .iter()
        .find_map(|e| match e {
            Effect::RoundClosed(r) => Some(r.clone()),
            _ => None,
        })
        .unwrap();
    assert_eq!(record.stragglers, vec![1]);
}

#[test]
fn foreign_job_abort_does_not_drop_a_party() {
    // Regression: on a multiplexed transport, another job's Abort with a
    // matching round number must bounce with WrongJob, not silently turn
    // a pending party into a straggler.
    let mut c = coordinator(2, vec![0, 1]);
    let dim = c.global_params().len();
    c.open_round().unwrap();
    let foreign =
        WireMessage::Abort { job: JOB + 1, round: 0, party: 1, reason: "not yours".into() };
    let effects = c.handle(Event::UpdateReceived(foreign)).unwrap();
    assert_eq!(rejection(&effects), Some(RejectReason::WrongJob));

    // Party 1 is still pending and can complete normally.
    assert!(c.handle(update(0, 0, dim, 1.0)).unwrap().is_empty());
    let effects = c.handle(update(1, 0, dim, 1.0)).unwrap();
    let record = effects
        .iter()
        .find_map(|e| match e {
            Effect::RoundClosed(r) => Some(r.clone()),
            _ => None,
        })
        .unwrap();
    assert_eq!(record.completed, vec![0, 1]);
    assert!(record.stragglers.is_empty());
}

#[test]
fn round_lifecycle_is_enforced() {
    let mut c = coordinator(1, vec![0, 1]);
    let dim = c.global_params().len();

    // A deadline with no open round is a benign no-op (late timer).
    assert!(c.handle(Event::DeadlineExpired).unwrap().is_empty());

    c.open_round().unwrap();
    assert!(matches!(c.open_round(), Err(FlError::Protocol(_))), "double open");

    c.handle(update(0, 0, dim, 1.0)).unwrap();
    c.handle(Event::DeadlineExpired).unwrap();
    assert!(c.is_finished());
    assert!(matches!(c.open_round(), Err(FlError::Protocol(_))), "open after finish");
}

#[test]
fn restore_refuses_optimizer_words_that_misfit_the_model() {
    // Moments one word long for a model of many more parameters are
    // refused at restore, not a panic in the first round after it.
    let mut c = coordinator_running(FlAlgorithm::fedyogi(), 2, vec![0, 1]);
    let global = c.global_params().to_vec();
    let restored =
        c.restore(Vec::new(), Vec::new(), global.clone(), &[0.0, 0.0, 1.0, 1.0], &[true; 8]);
    assert!(matches!(restored, Err(FlError::InvalidConfig(_))), "{restored:?}");

    // Fresh moments fit any model; the job then runs a round.
    let mut c = coordinator_running(FlAlgorithm::fedyogi(), 2, vec![0, 1]);
    c.restore(Vec::new(), Vec::new(), global.clone(), &[0.0, 0.0], &[true; 8]).unwrap();
    c.open_round().unwrap();
    c.handle(update(0, 0, global.len(), 1.0)).unwrap();
    c.handle(Event::DeadlineExpired).unwrap();
    assert_eq!(c.round(), 1);
}

#[test]
fn fully_straggled_round_leaves_the_model_unchanged() {
    let mut c = coordinator(2, vec![0, 1]);
    let before = c.global_params().to_vec();
    c.open_round().unwrap();
    let effects = c.handle(Event::DeadlineExpired).unwrap();
    let record = effects
        .iter()
        .find_map(|e| match e {
            Effect::RoundClosed(r) => Some(r.clone()),
            _ => None,
        })
        .unwrap();
    assert!(record.completed.is_empty());
    assert_eq!(record.stragglers, vec![0, 1]);
    assert_eq!(record.mean_train_loss, 0.0);
    assert_eq!(c.global_params(), before.as_slice());
}

#[test]
fn selector_feedback_flows_through_round_close() {
    // The selector learns only via the round-close event — check the
    // reported cohorts match the records.
    let profile = DatasetProfile::femnist();
    let test = balanced_test_set(&profile, 4, 5);
    let mut c = Coordinator::new(
        CoordinatorConfig {
            algorithm: FlAlgorithm::FedAvg,
            rounds: 2,
            parties_per_round: 2,
            seed: 7,
            ..CoordinatorConfig::new(profile.model.clone())
        },
        8,
        test,
        Box::new(Scripted::new(8, vec![3, 5])),
    )
    .unwrap();
    let dim = c.global_params().len();
    for round in 0..2u64 {
        c.open_round().unwrap();
        c.handle(update(3, round, dim, 1.0)).unwrap();
        c.handle(Event::DeadlineExpired).unwrap();
    }
    let h = c.history();
    assert_eq!(h.len(), 2);
    for r in h.records() {
        assert_eq!(r.completed, vec![3]);
        assert_eq!(r.stragglers, vec![5]);
    }
}

#[test]
fn coordinator_guards_against_malicious_selectors() {
    // Duplicates are deduplicated preserving order; out-of-roster ids
    // are a hard error.
    let mut c = coordinator(1, vec![5, 2, 5, 2, 7]);
    c.open_round().unwrap();
    assert_eq!(c.open_cohort(), Some(&[5usize, 2, 7][..]));

    let mut c = coordinator(1, vec![1, 8]);
    assert!(matches!(c.open_round(), Err(FlError::InvalidConfig(_))));

    let mut c = coordinator(1, vec![]);
    assert!(matches!(c.open_round(), Err(FlError::InvalidConfig(_))));
}

#[test]
fn stale_heartbeats_and_unknown_senders_are_rejected() {
    let mut c = coordinator(2, vec![0, 1]);
    let effects = c.handle(heartbeat(0, 0)).unwrap();
    assert_eq!(rejection(&effects), Some(RejectReason::NoOpenRound));
    // An abort with no round open reports the same state, not WrongRound.
    let idle_abort = WireMessage::Abort { job: JOB, round: 0, party: 0, reason: "x".into() };
    let effects = c.handle(Event::UpdateReceived(idle_abort)).unwrap();
    assert_eq!(rejection(&effects), Some(RejectReason::NoOpenRound));
    c.open_round().unwrap();
    let effects = c.handle(heartbeat(0, 3)).unwrap();
    assert_eq!(rejection(&effects), Some(RejectReason::WrongRound));
    let effects = c.handle(heartbeat(6, 0)).unwrap();
    assert_eq!(rejection(&effects), Some(RejectReason::NotSelected));
    assert_eq!(c.heartbeats_this_round(), 0);
}

#[test]
fn duplicate_heartbeats_within_the_window_count_bytes_once() {
    // An at-least-once transport can redeliver a heartbeat while its
    // round is still open; the ack is idempotent and must not inflate
    // bytes_up (histories stay bit-identical under duplicate delivery).
    use flips_fl::message::{heartbeat_bytes, local_update_bytes};
    let mut c = coordinator(1, vec![0]);
    let dim = c.global_params().len();
    c.open_round().unwrap();
    for _ in 0..3 {
        assert!(c.handle(heartbeat(0, 0)).unwrap().is_empty());
    }
    assert_eq!(c.heartbeats_this_round(), 1);
    let effects = c.handle(update(0, 0, dim, 1.0)).unwrap();
    let record = effects
        .iter()
        .find_map(|e| match e {
            Effect::RoundClosed(r) => Some(r.clone()),
            _ => None,
        })
        .unwrap();
    assert_eq!(record.bytes_up, (heartbeat_bytes() + local_update_bytes(dim)) as u64);
}

#[test]
fn bytes_account_every_message_on_the_wire() {
    use flips_fl::message::{
        global_model_bytes, heartbeat_bytes, local_update_bytes, selection_notice_bytes,
    };
    let mut c = coordinator(1, vec![0, 1]);
    let dim = c.global_params().len();
    c.open_round().unwrap();
    c.handle(heartbeat(0, 0)).unwrap();
    c.handle(update(0, 0, dim, 1.0)).unwrap();
    let effects = c.handle(Event::DeadlineExpired).unwrap();
    let record = effects
        .iter()
        .find_map(|e| match e {
            Effect::RoundClosed(r) => Some(r.clone()),
            _ => None,
        })
        .unwrap();
    let abort_bytes: u64 = effects
        .iter()
        .filter_map(|e| match e {
            Effect::Send { msg: msg @ WireMessage::Abort { .. }, .. } => {
                Some(msg.wire_size() as u64)
            }
            _ => None,
        })
        .sum();
    assert_eq!(
        record.bytes_down,
        2 * (selection_notice_bytes() + global_model_bytes(dim)) as u64 + abort_bytes
    );
    assert_eq!(record.bytes_up, (heartbeat_bytes() + local_update_bytes(dim)) as u64);
}

// ---------------------------------------------------------------------
// The round as a slot map: order-independence, refusal at the door,
// partial atomicity — under both sums.
// ---------------------------------------------------------------------

fn closed_record(effects: &[Effect]) -> Option<RoundRecord> {
    effects.iter().find_map(|e| match e {
        Effect::RoundClosed(r) => Some(r.clone()),
        _ => None,
    })
}

fn bits(params: &[f32]) -> Vec<u32> {
    params.iter().map(|x| x.to_bits()).collect()
}

/// A flat update with per-party weight, loss and parameters, so a
/// reordered fold or a mixed-up entry would show.
fn distinct_update(party: u64, dim: usize) -> Event {
    Event::UpdateReceived(WireMessage::LocalUpdate {
        job: JOB,
        round: 0,
        party,
        num_samples: 7 + 3 * party,
        mean_loss: 0.25 * party as f64,
        duration: 1.0 + party as f64,
        params: (0..dim).map(|i| (party as f32 + 0.37) * ((i % 11) as f32 - 4.6) * 1e-2).collect(),
    })
}

/// Every ordering of `0..n`, lexicographically.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = vec![(0..n).collect::<Vec<_>>()];
    loop {
        let mut p = out.last().unwrap().clone();
        let Some(i) = (0..n - 1).rev().find(|&i| p[i] < p[i + 1]) else { return out };
        let j = (i + 1..n).rev().find(|&j| p[j] > p[i]).unwrap();
        p.swap(i, j);
        p[i + 1..].reverse();
        out.push(p);
    }
}

#[test]
fn every_delivery_order_closes_the_same_round_under_both_sums() {
    // Cohort of five: 1, 2 and 4 deliver (1 twice — an at-least-once
    // redelivery), 5 is dropped, 7 never answers; 2's heartbeat is
    // replayed. The deadline closes the round after all seven events
    // landed, in each of their 5040 orders.
    for exact in [false, true] {
        let mut outcomes = Vec::new();
        for order in permutations(7) {
            let mut c = coordinator(2, vec![1, 2, 4, 5, 7]);
            c.set_exact_fold(exact);
            let dim = c.global_params().len();
            c.open_round().unwrap();
            let events = [
                distinct_update(1, dim),
                distinct_update(1, dim),
                distinct_update(2, dim),
                distinct_update(4, dim),
                Event::PartyDropped(5),
                heartbeat(2, 0),
                heartbeat(2, 0),
            ];
            let mut rejections = Vec::new();
            for &i in &order {
                let effects = c.handle(events[i].clone()).unwrap();
                assert!(closed_record(&effects).is_none(), "7 keeps the round open");
                rejections.extend(rejection(&effects));
            }
            assert_eq!(rejections, [RejectReason::DuplicateUpdate], "{order:?}");
            let record = closed_record(&c.handle(Event::DeadlineExpired).unwrap()).unwrap();
            outcomes.push((record, bits(c.global_params()), c.feedback_log()[0].clone()));
        }
        let (record, _, feedback) = &outcomes[0];
        assert_eq!(record.completed, vec![1, 2, 4]);
        assert_eq!(record.stragglers, vec![5, 7], "selection order");
        assert_eq!(feedback.update_sketch.len(), 3);
        assert!(
            outcomes.iter().all(|o| o == &outcomes[0]),
            "exact={exact}: an order moved the round"
        );
    }
}

#[test]
fn the_exact_sum_refuses_out_of_domain_updates_at_the_door() {
    let bad_update = |c: &Coordinator, num_samples: u64, poison: Option<f32>| {
        let mut params = vec![0.5; c.global_params().len()];
        if let Some(x) = poison {
            params[3] = x;
        }
        Event::UpdateReceived(WireMessage::LocalUpdate {
            job: JOB,
            round: 0,
            party: 1,
            num_samples,
            mean_loss: 0.5,
            duration: 2.0,
            params,
        })
    };
    let cases = [
        (10, Some(f32::NAN)),
        (10, Some(f32::INFINITY)),
        (10, Some(f32::NEG_INFINITY)),
        (10, Some(2_147_483_648.0)),
        (10, Some(-3e9)),
        (0, None),
        (1 << 32, None),
    ];
    for (num_samples, poison) in cases {
        let mut c = coordinator(2, vec![0, 1]);
        c.set_exact_fold(true);
        let dim = c.global_params().len();
        c.open_round().unwrap();
        assert!(c.handle(update(0, 0, dim, 2.0)).unwrap().is_empty());
        let effects = c.handle(bad_update(&c, num_samples, poison)).unwrap();
        assert_eq!(rejection(&effects), Some(RejectReason::WrongModelSize), "{poison:?}");
        assert!(c.open_cohort().is_some(), "the seat is still pending, so the round still waits");

        // ... so the sender closes out as a straggler and only party
        // 0's update reaches the model.
        let record = closed_record(&c.handle(Event::DeadlineExpired).unwrap()).unwrap();
        assert_eq!((record.completed, record.stragglers), (vec![0], vec![1]));
        assert!(c.global_params().iter().all(|&g| g == 2.0), "{num_samples} {poison:?}");

        // Still pending also means a later, sane copy is taken.
        c.open_round().unwrap();
        assert_eq!(
            rejection(&c.handle(bad_update(&c, num_samples, poison)).unwrap()),
            Some(RejectReason::WrongRound)
        );
        let retry = |party| update(party, 1, dim, 4.0);
        assert!(c.handle(retry(0)).unwrap().is_empty());
        let record = closed_record(&c.handle(retry(1)).unwrap()).unwrap();
        assert_eq!(record.completed, vec![0, 1]);
    }
}

/// A tree partial covering `parties`, folded from [`distinct_update`]s,
/// with `tamper` applied to its entries after the fold.
fn partial(parties: &[u64], dim: usize, tamper: impl FnOnce(&mut Vec<PartialEntry>)) -> Event {
    let mut sum = ExactWeightedSum::new(dim);
    let mut entries = Vec::new();
    for &p in parties {
        let Event::UpdateReceived(WireMessage::LocalUpdate {
            party,
            num_samples,
            mean_loss,
            duration,
            params,
            ..
        }) = distinct_update(p, dim)
        else {
            unreachable!()
        };
        sum.fold(&params, num_samples).unwrap();
        entries.push(PartialEntry {
            party,
            num_samples,
            mean_loss,
            duration,
            sketch: vec![0.0; SKETCH_DIM],
        });
    }
    tamper(&mut entries);
    Event::UpdateReceived(WireMessage::PartialUpdate {
        job: JOB,
        round: 0,
        total_weight: sum.total_weight(),
        entries,
        dim: dim as u32,
        limbs: sum.raw_limbs(),
    })
}

/// Control: cohort [0, 1, 2, 3] with 3 dropped and 2 already delivered;
/// 0 and 1 then deliver flat and the round closes. `hostile` is a
/// partial handed in before they do, refused for `culprit` alone.
fn round_after(
    hostile: Option<(Event, u64, RejectReason)>,
) -> (RoundRecord, Vec<u32>, RoundFeedback) {
    let mut c = coordinator(1, vec![0, 1, 2, 3]);
    c.set_exact_fold(true);
    let dim = c.global_params().len();
    c.open_round().unwrap();
    c.handle(Event::PartyDropped(3)).unwrap();
    assert!(c.handle(distinct_update(2, dim)).unwrap().is_empty());
    if let Some((partial, culprit, reason)) = hostile {
        let effects = c.handle(partial).unwrap();
        let expected = Effect::Rejected { party: Some(culprit as PartyId), round: 0, reason };
        assert_eq!(effects, [expected], "only the bad entry is named");
    }
    assert!(c.handle(distinct_update(0, dim)).unwrap().is_empty(), "0 is still pending");
    let effects = c.handle(distinct_update(1, dim)).unwrap();
    let record = closed_record(&effects).expect("1 was still pending, and the last");
    (record, bits(c.global_params()), c.feedback_log()[0].clone())
}

#[test]
fn a_partial_with_one_bad_entry_changes_nothing() {
    let control = round_after(None);
    let dim = coordinator(1, vec![0]).global_params().len();
    let hostile = [
        // Covers a party outside the cohort.
        (partial(&[0, 1, 6], dim, |_| {}), 6, RejectReason::NotSelected),
        // Covers the dropped party.
        (partial(&[0, 1, 3], dim, |_| {}), 3, RejectReason::PartyDropped),
        // Covers a party whose update is already in.
        (partial(&[0, 1, 2], dim, |_| {}), 2, RejectReason::DuplicateUpdate),
        // Names one party twice.
        (partial(&[0, 1, 1], dim, |_| {}), 1, RejectReason::DuplicateUpdate),
        // Ships a sketch of the wrong width.
        (partial(&[0, 1], dim, |e| e[1].sketch.push(0.0)), 1, RejectReason::WrongModelSize),
    ];
    for case in hostile {
        let label = format!("{:?} for party {}", case.2, case.1);
        assert!(round_after(Some(case)) == control, "{label}: the refused partial left a trace");
    }
}

#[test]
fn a_partial_whose_weights_saturate_is_refused_without_a_panic() {
    // Party 1's entry declares a weight outside the fold's 1..2³², and the
    // frame's total is what a saturating sum of the entries reads. Before
    // the entry check, `u64::MAX` matched the saturated sum, passed
    // `from_raw` and overflowed the weight add in `merge` (a panic in the
    // dev profile, a silently skewed mean in release).
    let control = round_after(None);
    let dim = coordinator(1, vec![0]).global_params().len();
    for weight in [u64::MAX, u64::MAX - 7, 1 << 32, 0] {
        let mut frame = partial(&[0, 1], dim, |e| e[1].num_samples = weight);
        let Event::UpdateReceived(WireMessage::PartialUpdate { total_weight, entries, .. }) =
            &mut frame
        else {
            unreachable!()
        };
        *total_weight = entries.iter().fold(0u64, |s, e| s.saturating_add(e.num_samples));
        let case = (frame, 1, RejectReason::WrongModelSize);
        assert!(round_after(Some(case)) == control, "weight {weight}: the partial left a trace");
    }
}
