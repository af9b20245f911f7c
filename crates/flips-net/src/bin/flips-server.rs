//! The deployable FLIPS coordinator.
//!
//! `flips-server <config.toml> [--checkpoint-dir <dir>] [--restore]`
//! binds the config's listen address, waits for one `flips-party`
//! process per link, runs every configured job to completion behind
//! the epoll event loop — guard plane, health plane and all — then
//! keeps the health endpoint up for final scrapes until killed.
//!
//! `--checkpoint-dir <dir>` turns on the failure-recovery plane:
//! parties may reconnect and resume mid-run, and the coordinator
//! snapshots its full round state into `<dir>/checkpoint.bin` at every
//! round boundary. `--restore` (requires `--checkpoint-dir`) loads
//! that snapshot and continues the run from it — the remaining rounds
//! replay bit-identically to the uninterrupted run.
//!
//! Stdout is line-oriented and machine-readable (the e2e smoke test
//! parses it): `LISTENING <addr>`, `HEALTH <addr>`, one `JOB <id>
//! rounds=<n> accuracy=<a>` per finished job, then `RUN COMPLETE`.

#![forbid(unsafe_code)]

use flips_net::{render_server_metrics, serve, HealthPlane, NetConfig, ServerOptions};
use mio::{Events, Poll};
use std::io::Write;
use std::net::TcpListener;
use std::path::PathBuf;

const USAGE: &str = "usage: flips-server <config.toml> [--checkpoint-dir <dir>] [--restore]";

fn main() {
    if let Err(e) = run() {
        eprintln!("flips-server: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let mut config_path: Option<String> = None;
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut restore = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--checkpoint-dir" => {
                let dir = args.next().ok_or("--checkpoint-dir needs a directory")?;
                checkpoint_dir = Some(PathBuf::from(dir));
            }
            "--restore" => restore = true,
            _ if config_path.is_none() => config_path = Some(arg),
            _ => return Err(USAGE.into()),
        }
    }
    let path = config_path.ok_or(USAGE)?;
    if restore && checkpoint_dir.is_none() {
        return Err("--restore requires --checkpoint-dir".into());
    }
    let cfg = NetConfig::parse(&std::fs::read_to_string(&path)?)?;

    let listener = TcpListener::bind(&cfg.listen)?;
    println!("LISTENING {}", listener.local_addr()?);
    let health = cfg.health.as_deref().map(TcpListener::bind).transpose()?;
    if let Some(h) = &health {
        println!("HEALTH {}", h.local_addr()?);
    }
    std::io::stdout().flush()?;

    let (jobs, wire) = cfg.plan()?;
    for (spec, parts) in cfg.jobs.iter().zip(&jobs) {
        eprintln!(
            "flips-server: job {:#018x} ({} parties, {} rounds, {:?})",
            parts.coordinator.job_id(),
            parts.endpoints.len(),
            spec.rounds.unwrap_or(spec.profile.max_rounds),
            spec.selector
        );
    }

    let mut opts = ServerOptions { wire, ..ServerOptions::new(cfg.links) };
    if let Some(dir) = checkpoint_dir {
        // The checkpoint plane implies the resume plane: a server that
        // snapshots rounds also parks dead links for reconnects.
        opts.resume = true;
        if restore {
            let file = dir.join(flips_net::CHECKPOINT_FILE);
            let bytes = std::fs::read(&file)
                .map_err(|e| format!("cannot read checkpoint {}: {e}", file.display()))?;
            let cp = flips_fl::Checkpoint::decode(&bytes)?;
            eprintln!("flips-server: restoring from {} (tick {})", file.display(), cp.tick);
            opts.restore = Some(cp);
        }
        opts.checkpoint_dir = Some(dir);
    }
    // The health listener is cloned so scrapes keep working after the
    // run: the event loop's health plane serves it while jobs are live,
    // a plane of its own in the tail loop below once they finish.
    let in_loop_health = health.as_ref().map(TcpListener::try_clone).transpose()?;
    let outcome = serve(&listener, jobs, &opts, in_loop_health)?;

    for (id, history) in &outcome.histories {
        println!(
            "JOB {id:#018x} rounds={} accuracy={:.4}",
            history.len(),
            history.final_accuracy()
        );
    }
    println!("RUN COMPLETE");
    std::io::stdout().flush()?;

    if let Some(listener) = health {
        let transitions = outcome.breaker_transitions.len() as u64;
        let jobs = outcome.histories.len() as u64;
        let body = render_server_metrics(
            &outcome.stats,
            transitions,
            outcome.checkpoint_rounds,
            jobs,
            true,
        );
        let mut plane = HealthPlane::new(Some(listener))?;
        let mut poll = Poll::new()?;
        let mut events = Events::with_capacity(16);
        plane.register(poll.registry())?;
        loop {
            poll.poll(&mut events, None)?;
            for event in events.iter() {
                plane.handle(poll.registry(), event.token().0, &mut || body.clone())?;
            }
        }
    }
    Ok(())
}
