//! The deployable FLIPS party worker.
//!
//! `flips-party <config.toml> [slot] [--resume] [--drop-after <n>]`
//! reads the *same* config as
//! `flips-server`, rebuilds the same seeded jobs and wire plan, keeps
//! the share [`flips_fl::split`] places on its link slot (default
//! slot 0), connects out to the server and serves it with the
//! readiness-driven [`flips_net::party_loop_with`] until the coordinator's
//! shutdown notice.
//!
//! Both sides deriving the jobs from one file is the deployment story
//! for a simulation workspace: there is no model-state bootstrap
//! endpoint, the seed *is* the bootstrap. Every process binds its own
//! health plane: the config's `[party] health` address is the *base*,
//! and slot `s` serves `/healthz` + `/metrics` on `base port + s`, so
//! a deployment can scrape each party process individually.
//!
//! Stdout: `CONNECTED <addr>`, `PARTY HEALTH <addr>` (when configured),
//! then `PARTY COMPLETE parties=<n>` after a clean shutdown handshake.

#![forbid(unsafe_code)]

use flips_net::{connect_with_retry, party_loop_with, NetConfig, PartyOptions};
use std::io::Write;
use std::net::{TcpListener, ToSocketAddrs};
use std::time::Duration;

/// Resolves slot `slot`'s health address: the configured base address
/// with the port offset by the slot number.
fn slot_health_addr(base: &str, slot: usize) -> Result<String, String> {
    let (host, port) = base
        .rsplit_once(':')
        .ok_or_else(|| format!("party health address {base:?} has no port"))?;
    let port: u32 = port.parse().map_err(|_| format!("party health port {port:?} not a number"))?;
    let port = port + slot as u32;
    if port > u16::MAX as u32 {
        return Err(format!("party health port {port} out of range for slot {slot}"));
    }
    Ok(format!("{host}:{port}"))
}

fn main() {
    if let Err(e) = run() {
        eprintln!("flips-party: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let mut resume = false;
    let mut drop_after = None;
    let mut positional = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--resume" => resume = true,
            // Fault-injection knob for the recovery smoke tests: sever
            // the link once after this many received data frames and
            // exercise the reconnect/resume path against a live server.
            "--drop-after" => {
                let n = args.next().ok_or("--drop-after needs a frame count")?;
                drop_after = Some(n.parse::<u64>().map_err(|_| "--drop-after needs a number")?);
                resume = true;
            }
            _ => positional.push(arg),
        }
    }
    let path = positional
        .first()
        .ok_or("usage: flips-party <config.toml> [slot] [--resume] [--drop-after <frames>]")?
        .clone();
    let slot: usize = positional.get(1).map_or(Ok(0), |s| s.parse())?;
    let cfg = NetConfig::parse(&std::fs::read_to_string(&path)?)?;
    if slot >= cfg.links {
        return Err(format!(
            "link slot {slot} out of range: the config declares {} link(s)",
            cfg.links
        )
        .into());
    }

    let (jobs, wire) = cfg.plan()?;
    let (_, mut shares) = flips_fl::split(jobs, &wire)?;
    let share = shares.swap_remove(slot);
    for slice in &share.jobs {
        eprintln!(
            "flips-party: slot {slot} owns {} parties of job {:#018x}",
            slice.endpoints.len(),
            slice.job
        );
    }
    let parties = share.parties();

    let addr = cfg
        .connect
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| format!("connect address {:?} resolves to nothing", cfg.connect))?;
    let health = match cfg.party_health.as_deref() {
        Some(base) => Some(TcpListener::bind(slot_health_addr(base, slot)?)?),
        None => None,
    };
    let stream = connect_with_retry(addr, Duration::from_secs(60))?;
    println!("CONNECTED {addr}");
    if let Some(h) = &health {
        println!("PARTY HEALTH {}", h.local_addr()?);
    }
    std::io::stdout().flush()?;

    let opts = PartyOptions { resume_addr: resume.then_some(addr), drop_after };
    let pool = party_loop_with(stream, share, wire.guard.as_ref(), health, &opts)?;
    if pool.unroutable() > 0 || pool.rejected() > 0 {
        eprintln!(
            "flips-party: slot {slot} counters: unroutable={} rejected={}",
            pool.unroutable(),
            pool.rejected()
        );
    }
    println!("PARTY COMPLETE parties={parties}");
    Ok(())
}
