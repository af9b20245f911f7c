//! Equivalence of the epoll socket runtime with the single-threaded
//! seeded goldens.
//!
//! The acceptance bar is the one every driver in this workspace has had
//! to clear, now over real TCP: a seeded run must be **bit-identical**
//! however it is executed. The single-threaded in-process run is the
//! golden oracle; 1-, 2- and 4-link socket topologies — kernel socket
//! buffers, epoll wakeup order, quiescence probes and all — must
//! reproduce it for every selector, and seeded chaos under the default
//! guard plane must leave the histories untouched exactly as it does on
//! the sharded wire.

use flips_core::prelude::*;
use flips_fl::{split, FlError, LinkShare};
use flips_net::link::prepare_stream;
use flips_net::{connect_with_retry, run_socket, serve, PartyLink, ServerOptions, SocketOptions};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// The shared workload (the sharded suite's latency shape): 12 parties,
/// 4 rounds, heterogeneous latency, deadline at 1.1× the observed
/// median round trip — tight enough that the slow tail misses rounds.
fn latency_builder(selector: SelectorKind, seed: u64) -> SimulationBuilder {
    SimulationBuilder::new(DatasetProfile::femnist())
        .parties(12)
        .rounds(4)
        .participation(0.25)
        .alpha(0.3)
        .selector(selector)
        .deadline(DeadlinePolicy::LatencyQuantile { q: 0.5, slack: 1.1 })
        .latency_sigma(0.8)
        .clustering_restarts(3)
        .test_per_class(8)
        .seed(seed)
}

/// The legacy injected-victims workload (the sharded suite's shape).
fn injected_builder(seed: u64) -> SimulationBuilder {
    SimulationBuilder::new(DatasetProfile::femnist())
        .parties(12)
        .rounds(4)
        .participation(0.25)
        .alpha(0.3)
        .selector(SelectorKind::Random)
        .straggler_rate(0.25)
        .clustering_restarts(3)
        .test_per_class(8)
        .seed(seed)
}

fn socket_history(builder: &SimulationBuilder, opts: &SocketOptions) -> History {
    let (job, meta) = builder.build().unwrap();
    let mut outcome = run_socket(vec![job.into_parts()], opts).unwrap();
    outcome.histories.remove(&meta.job_id).unwrap()
}

#[test]
fn every_selector_golden_replays_bit_exactly_over_tcp() {
    // The tentpole acceptance criterion: all five selector goldens,
    // 1, 2 and 4 TCP links — full `RoundRecord` equality against the
    // seeded in-process run.
    for selector in SelectorKind::all() {
        let golden = latency_builder(selector, 11).run().unwrap().history;
        for links in [1usize, 2, 4] {
            let history =
                socket_history(&latency_builder(selector, 11), &SocketOptions::new(links));
            assert_eq!(
                history, golden,
                "{selector:?} over {links} TCP link(s) diverged from the golden"
            );
        }
    }
}

#[test]
fn entropy_wire_replays_every_selector_golden_over_tcp() {
    // The entropy-stage acceptance bar, epoll flavor: all five selector
    // goldens over a 2-link TCP topology with `DeltaEntropy` negotiated
    // on both links — bit-identical to the seeded in-process run.
    for selector in SelectorKind::all() {
        let golden = latency_builder(selector, 11).run().unwrap().history;
        let history = socket_history(
            &latency_builder(selector, 11).codec(ModelCodec::DeltaEntropy),
            &SocketOptions::new(2),
        );
        assert_eq!(history, golden, "{selector:?} over the 2-link TCP entropy wire diverged");
    }
}

#[test]
fn socket_wire_counters_match_the_protocol_not_the_transport() {
    // Control traffic (hellos, probes, shutdowns) must be invisible in
    // the driver's counters: a socket run reports the same late-update
    // pressure and zero corruption, like any in-memory drive of the
    // same seed.
    let (job, _) = latency_builder(SelectorKind::Random, 11).build().unwrap();
    let outcome = run_socket(vec![job.into_parts()], &SocketOptions::new(2)).unwrap();
    assert_eq!(outcome.stats.corrupt_frames, 0);
    assert_eq!(outcome.stats.unknown_job_frames, 0);
    assert!(outcome.stats.late_updates > 0, "the workload must exercise deadline pressure");
    assert_eq!(outcome.link_unroutable, vec![0, 0]);
    assert_eq!(outcome.link_rejected, vec![0, 0]);
    assert_eq!(outcome.link_oversized, vec![0, 0]);
    assert!(outcome.breaker_transitions.is_empty());
    assert!(outcome.chaos_events.is_empty());
}

#[test]
fn guards_and_seeded_chaos_leave_socket_histories_untouched() {
    // The guard-plane acceptance bar over TCP: seeded chaos schedules
    // (duplicates, corrupt copies, delays, floods at an unowned job) on
    // the 2-link uplink with the default guards installed — the exact
    // suite the sharded runtime clears, so the chaos seam provably sees
    // the same frame sequence over sockets as over channels.
    let golden = latency_builder(SelectorKind::Random, 11).run().unwrap().history;
    for chaos_seed in [5u64, 77, 4242] {
        let opts = SocketOptions::new(2)
            .with_guard(GuardConfig::default())
            .with_chaos(ChaosSchedule::seeded(chaos_seed));
        let (job, meta) = latency_builder(SelectorKind::Random, 11).build().unwrap();
        let mut outcome = run_socket(vec![job.into_parts()], &opts).unwrap();
        let history = outcome.histories.remove(&meta.job_id).unwrap();
        assert_eq!(history, golden, "chaos seed {chaos_seed} moved the 2-link history");
        assert_eq!(outcome.stats.parties_ejected, 0, "seed {chaos_seed} tripped a breaker");
        assert!(outcome.breaker_transitions.is_empty());
        assert!(
            !outcome.chaos_events.is_empty(),
            "seed {chaos_seed} applied no chaos — the run proves nothing"
        );
    }
}

#[test]
fn multiple_jobs_share_the_socket_wire() {
    // Three jobs — different seeds, codecs and deadline models (the
    // sharded suite's exact mix) — run concurrently across the same
    // 2-link topology; each must finish with exactly its solo history.
    let configs: Vec<SimulationBuilder> = vec![
        latency_builder(SelectorKind::Random, 11).codec(ModelCodec::DeltaLossless),
        injected_builder(23),
        latency_builder(SelectorKind::Random, 37)
            .deadline(DeadlinePolicy::FixedSeconds { secs: 0.12 }),
    ];
    let solo: Vec<(u64, History)> = configs
        .iter()
        .map(|b| {
            let report = b.run().unwrap();
            (report.meta.job_id, report.history)
        })
        .collect();
    let jobs: Vec<_> = configs.iter().map(|b| b.build().unwrap().0.into_parts()).collect();
    let outcome = run_socket(jobs, &SocketOptions::new(2)).unwrap();
    assert_eq!(outcome.histories.len(), 3);
    for (id, history) in &solo {
        assert_eq!(
            outcome.histories.get(id),
            Some(history),
            "job {id:#x} diverged under socket multiplexing"
        );
    }
}

#[test]
fn a_severed_link_resumes_its_session_and_replays_the_golden() {
    // The link-loss tentpole over real TCP: worker 1 hard-severs its
    // connection mid-run (after 2 received data frames), reconnects
    // through the seeded backoff and resumes its session — retained
    // frames retransmit from the last acknowledged counters, so the
    // history is bit-identical to the never-dropped run and the
    // driver accounts exactly one loss and one resume.
    for selector in [SelectorKind::Random, SelectorKind::Flips] {
        let golden = latency_builder(selector, 11).run().unwrap().history;
        let (job, meta) = latency_builder(selector, 11).build().unwrap();
        let opts = SocketOptions { party_drop: Some((1, 2)), ..SocketOptions::new(2) };
        let mut outcome = run_socket(vec![job.into_parts()], &opts).unwrap();
        let history = outcome.histories.remove(&meta.job_id).unwrap();
        assert_eq!(history, golden, "{selector:?}: the resumed link moved the TCP history");
        assert_eq!(outcome.stats.links_lost, 1, "{selector:?}: wrong loss count");
        assert_eq!(outcome.stats.links_resumed, 1, "{selector:?}: wrong resume count");
        assert_eq!(outcome.stats.corrupt_frames, 0);
        assert_eq!(outcome.link_unroutable, vec![0, 0]);
    }
}

#[test]
fn a_severed_link_resumes_under_the_delta_entropy_codec() {
    // The hard case: the severed link speaks the stateful delta-entropy
    // wire. Retransmit-on-resume must preserve the exact frame sequence
    // (and thus the delta references on both ends) or decode breaks.
    let golden = latency_builder(SelectorKind::Random, 11).run().unwrap().history;
    let (job, meta) =
        latency_builder(SelectorKind::Random, 11).codec(ModelCodec::DeltaEntropy).build().unwrap();
    let opts = SocketOptions { party_drop: Some((0, 3)), ..SocketOptions::new(2) };
    let mut outcome = run_socket(vec![job.into_parts()], &opts).unwrap();
    let history = outcome.histories.remove(&meta.job_id).unwrap();
    assert_eq!(history, golden, "the resumed delta-entropy link moved the TCP history");
    assert_eq!(outcome.stats.links_lost, 1);
    assert_eq!(outcome.stats.links_resumed, 1);
    assert_eq!(outcome.stats.codec_mismatch_frames, 0);
}

/// How the hand-driven party below loses its first connection — one
/// variant per road a coordinator link can go down by.
#[derive(Debug, Clone, Copy)]
enum Outage {
    /// The socket closes over unread bytes, which makes the close an
    /// RST: the server's next read or write fails and the link absorbs
    /// the I/O error mid-pump.
    Reset,
    /// The party half-closes (FIN) and stays away: the server's sweep
    /// finds a clean EOF.
    Eof,
    /// The old connection stays healthy while the party redials: the
    /// reconnect's Hello is the first the server hears of any outage.
    Redial,
}

/// A party worker driven by hand — [`flips_net::party_loop_with`] minus
/// epoll — so the test chooses *how* the connection goes away once two
/// data frames are in. (`Reset` and `Eof` steer by waiting 150 ms for
/// the server to act; should a starved server miss that window the
/// outage merely travels the `Redial` road instead, and the count under
/// test is still exactly one.)
fn flapping_party(addr: SocketAddr, share: LinkShare, outage: Outage) -> Result<(), FlError> {
    let budget = Duration::from_secs(30);
    let dial = || -> Result<TcpStream, FlError> {
        let stream = connect_with_retry(addr, budget)?;
        prepare_stream(&stream)?;
        Ok(stream)
    };
    let shard = share.link as u32;
    let stream = dial()?;
    // A second handle keeps the first connection open until the test
    // lets go of it, whatever the link does with its own.
    let mut first = Some(stream.try_clone().expect("dup the socket"));
    let mut link = PartyLink::new(stream);
    link.set_resumable(true);
    link.send_hello(shard)?;
    link.await_hello_ack(budget)?;
    let mut pool = PartyPool::install(link, share, None);
    loop {
        let mut moved = false;
        while pool.pump()? {
            moved = true;
        }
        let link = pool.transport_mut();
        if let Some(first) = first.take_if(|_| link.data_received() >= 2) {
            match outage {
                Outage::Reset => {
                    // Stop reading; the idle server's next probe (or
                    // frame) lands unread, and closing over it resets.
                    std::thread::sleep(Duration::from_millis(150));
                    drop(first);
                }
                Outage::Eof => {
                    link.close();
                    std::thread::sleep(Duration::from_millis(150));
                    drop(first);
                }
                Outage::Redial => {} // `first` outlives the handshake below
            }
            link.resume_with(dial()?);
            link.send_hello(shard)?;
            let (received, _sent, fresh) = link.await_hello_ack(budget)?;
            assert!(!fresh, "{outage:?}: the server lost the session");
            link.retransmit_from(received)?;
        }
        while let Some(seq) = link.take_status_req() {
            link.send_status(seq)?;
        }
        link.flush()?;
        if link.is_shutdown() && !link.wants_write() {
            link.close();
            return Ok(());
        }
        if !moved {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

#[test]
fn an_outage_is_counted_once_on_every_road_a_link_goes_down() {
    // What the link's one-shot "just parked" flag existed for, asserted
    // where it matters: however the server comes to know a link is
    // gone — an absorbed I/O error, the sweep's EOF, or the party's own
    // reconnect — `links_lost` moves by exactly one, the resume by one,
    // and the history does not move at all.
    let golden = latency_builder(SelectorKind::Random, 11).run().unwrap().history;
    for outage in [Outage::Reset, Outage::Eof, Outage::Redial] {
        let (job, meta) = latency_builder(SelectorKind::Random, 11).build().unwrap();
        let opts = ServerOptions { resume: true, ..ServerOptions::new(1) };
        let (jobs, mut shares) = split(vec![job.into_parts()], &opts.wire).unwrap();
        let share = shares.pop().expect("one link, one share");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (served, party) = std::thread::scope(|scope| {
            let party = scope.spawn(move || flapping_party(addr, share, outage));
            let served = serve(&listener, jobs, &opts, None);
            (served, party.join().expect("party worker panicked"))
        });
        let mut served = served.unwrap_or_else(|e| panic!("{outage:?}: server failed: {e}"));
        party.unwrap_or_else(|e| panic!("{outage:?}: party failed: {e}"));
        assert_eq!(served.histories.remove(&meta.job_id).unwrap(), golden, "{outage:?}");
        assert_eq!(served.stats.links_lost, 1, "{outage:?}: one outage, one loss");
        assert_eq!(served.stats.links_resumed, 1, "{outage:?}: wrong resume count");
    }
}

#[test]
fn disconnect_chaos_replays_every_selector_golden_over_tcp() {
    // The seeded `Disconnect` fault at the chaos seam, epoll flavor:
    // the schedule severs the uplink and backlogs its frames until the
    // wire runs dry, on top of kernel socket buffers — every selector
    // golden must still replay bit-identically for three seeds.
    for selector in SelectorKind::all() {
        let golden = latency_builder(selector, 11).run().unwrap().history;
        let mut severed = 0usize;
        for chaos_seed in [5u64, 77, 4242] {
            let weights = ChaosWeights { disconnect: 2, ..ChaosWeights::default() };
            let opts = SocketOptions::new(2)
                .with_guard(GuardConfig::default())
                .with_chaos(ChaosSchedule::seeded(chaos_seed).weights(weights));
            let (job, meta) = latency_builder(selector, 11).build().unwrap();
            let mut outcome = run_socket(vec![job.into_parts()], &opts).unwrap();
            let history = outcome.histories.remove(&meta.job_id).unwrap();
            assert_eq!(
                history, golden,
                "{selector:?}: disconnect seed {chaos_seed} moved the TCP history"
            );
            assert_eq!(outcome.stats.parties_ejected, 0, "{selector:?}: seed {chaos_seed}");
            assert!(!outcome.chaos_events.is_empty(), "{selector:?}: seed {chaos_seed} was idle");
            severed += outcome
                .chaos_events
                .iter()
                .filter(|e| matches!(e.action, ChaosAction::Disconnect))
                .count();
        }
        assert!(severed > 0, "{selector:?}: no TCP seed severed a link — the suite is vacuous");
    }
}
