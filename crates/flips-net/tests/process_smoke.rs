//! End-to-end smoke test of the deployable binaries: a real
//! `flips-server` process and two real `flips-party` processes on TCP
//! loopback, driven exactly as a deployment would be — one shared TOML
//! config, separate OS processes, a Prometheus scrape over HTTP — and
//! checked against the seeded in-process golden.

use flips_core::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Reserves `n` consecutive loopback ports and returns the first: all
/// `n` are bound at once (party slot `s` binds the party-health base
/// plus `s`, so the base alone is not enough), then released for the
/// child processes to bind. A range handed out once is never handed out
/// again in this process — the tests here run in parallel, and the
/// kernel is free to assign a just-released ephemeral port twice. The
/// tiny race against another process grabbing one is acceptable in a
/// test.
fn free_ports(n: u16) -> u16 {
    static TAKEN: Mutex<Vec<u16>> = Mutex::new(Vec::new());
    let mut taken = TAKEN.lock().unwrap();
    loop {
        let first = TcpListener::bind("127.0.0.1:0").unwrap();
        let base = first.local_addr().unwrap().port();
        let Some(last) = base.checked_add(n - 1) else { continue };
        if (base..=last).any(|port| taken.contains(&port)) {
            continue;
        }
        let rest: Vec<_> = (base + 1..=last).map(|p| TcpListener::bind(("127.0.0.1", p))).collect();
        if rest.iter().all(Result::is_ok) {
            taken.extend(base..=last);
            return base;
        }
    }
}

/// Reads lines from a child's stdout until one starts with `prefix`,
/// with a deadline (the harness would otherwise hang on a wedged
/// child). Returns the full matching line.
fn await_line(reader: &mut impl BufRead, prefix: &str, timeout: Duration) -> String {
    let deadline = Instant::now() + timeout;
    let mut line = String::new();
    loop {
        assert!(Instant::now() < deadline, "timed out waiting for a {prefix:?} line");
        line.clear();
        let n = reader.read_line(&mut line).expect("child stdout readable");
        assert!(n > 0, "child closed stdout before printing {prefix:?}");
        if line.starts_with(prefix) {
            return line.trim_end().to_string();
        }
    }
}

fn scrape(addr: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("health endpoint reachable");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("health endpoint answers");
    response
}

struct KillOnDrop(Child);
impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn server_and_party_processes_complete_a_run_and_expose_metrics() {
    // Data, server health, and one party-health port per link slot.
    let data_port = free_ports(4);
    let (health_port, party_health_port) = (data_port + 1, data_port + 2);
    let config = format!(
        r#"
links = 2

[server]
listen = "127.0.0.1:{data_port}"
health = "127.0.0.1:{health_port}"

[party]
health = "127.0.0.1:{party_health_port}"

[guard]
max_frame_bytes = 1048576

[[job]]
dataset = "femnist"
seed = 11
parties = 12
rounds = 3
participation = 0.25
alpha = 0.3
selector = "random"
deadline = "latency-quantile"
deadline_q = 0.5
deadline_slack = 1.1
latency_sigma = 0.8
test_per_class = 8
clustering_restarts = 3
codec = "delta-lossless"
"#
    );
    let config_path = format!("{}/process_smoke.toml", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&config_path, &config).unwrap();

    // The golden: the same [[job]] block, run in-process.
    let golden = SimulationBuilder::new(DatasetProfile::femnist())
        .parties(12)
        .rounds(3)
        .participation(0.25)
        .alpha(0.3)
        .selector(SelectorKind::Random)
        .deadline(DeadlinePolicy::LatencyQuantile { q: 0.5, slack: 1.1 })
        .latency_sigma(0.8)
        .test_per_class(8)
        .clustering_restarts(3)
        .seed(11)
        .run()
        .unwrap()
        .history;

    let mut server = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_flips-server"))
            .arg(&config_path)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("flips-server spawns"),
    );
    let mut server_out = BufReader::new(server.0.stdout.take().unwrap());
    await_line(&mut server_out, "LISTENING ", Duration::from_secs(30));

    let spawn_party = |slot: usize| {
        KillOnDrop(
            Command::new(env!("CARGO_BIN_EXE_flips-party"))
                .arg(&config_path)
                .arg(slot.to_string())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .expect("flips-party spawns"),
        )
    };

    // Per-process party health: slot `s` serves on the configured base
    // port + s, every process, not only slot 0. Party 0 is scraped
    // before party 1 even exists — the run cannot start with a link
    // missing, so its health plane is provably live mid-wait.
    let mut party0 = spawn_party(0);
    let mut party0_out = BufReader::new(party0.0.stdout.take().unwrap());
    let health0 = await_line(&mut party0_out, "PARTY HEALTH ", Duration::from_secs(30));
    let health0_addr = health0.trim_start_matches("PARTY HEALTH ").to_string();
    assert!(
        health0_addr.ends_with(&format!(":{party_health_port}")),
        "slot 0 must bind the base party-health port: {health0}"
    );
    let healthz0 = scrape(&health0_addr, "/healthz");
    assert!(healthz0.contains("ok"), "party 0 healthz: {healthz0}");
    let metrics0 = scrape(&health0_addr, "/metrics");
    assert!(
        metrics0.contains("flips_party_endpoints") && metrics0.contains("flips_party_shard 0"),
        "party 0 metrics miss the party gauges:\n{metrics0}"
    );

    let mut party1 = spawn_party(1);
    let mut party1_out = BufReader::new(party1.0.stdout.take().unwrap());
    let health1 = await_line(&mut party1_out, "PARTY HEALTH ", Duration::from_secs(30));
    let health1_addr = health1.trim_start_matches("PARTY HEALTH ").to_string();
    assert!(
        health1_addr.ends_with(&format!(":{}", party_health_port + 1)),
        "slot 1 must bind base + 1, its own endpoint: {health1}"
    );
    let healthz1 = scrape(&health1_addr, "/healthz");
    assert!(healthz1.contains("ok"), "party 1 healthz: {healthz1}");

    let parties = vec![(party0, party0_out), (party1, party1_out)];

    // The run completes and reports the golden trajectory.
    let job_line = await_line(&mut server_out, "JOB ", Duration::from_secs(120));
    assert!(job_line.contains("rounds=3"), "server reported an unexpected round count: {job_line}");
    let expected_acc = format!("accuracy={:.4}", golden.final_accuracy());
    assert!(
        job_line.contains(&expected_acc),
        "server's final accuracy diverged from the in-process golden \
         ({job_line} vs {expected_acc})"
    );
    await_line(&mut server_out, "RUN COMPLETE", Duration::from_secs(30));

    // One Prometheus scrape against the finished server.
    let health_addr = format!("127.0.0.1:{health_port}");
    let metrics = scrape(&health_addr, "/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200 OK"), "scrape failed: {metrics}");
    for needle in [
        "# TYPE flips_frames_received_total counter",
        "flips_run_complete 1",
        "flips_jobs 1",
        "flips_parties_ejected_total 0",
    ] {
        assert!(metrics.contains(needle), "metrics miss {needle:?}:\n{metrics}");
    }
    let healthz = scrape(&health_addr, "/healthz");
    assert!(healthz.contains("ok"), "healthz: {healthz}");

    // Both parties exit zero after the shutdown handshake.
    for (mut party, out) in parties {
        let status = party.0.wait().expect("party waited");
        assert!(status.success(), "flips-party exited {status}");
        let lines: Vec<String> = out.lines().map(|l| l.unwrap()).collect();
        assert!(
            lines.iter().any(|l| l.starts_with("PARTY COMPLETE")),
            "party never reported completion: {lines:?}"
        );
    }
}

/// The shared recovery-suite config: 12 parties over 2 links, 3 seeded
/// rounds, guard installed — the exact `[[job]]` the main smoke runs.
fn recovery_config(data_port: u16, health_port: u16) -> String {
    format!(
        r#"
links = 2

[server]
listen = "127.0.0.1:{data_port}"
health = "127.0.0.1:{health_port}"

[guard]
max_frame_bytes = 1048576

[[job]]
dataset = "femnist"
seed = 11
parties = 12
rounds = 3
participation = 0.25
alpha = 0.3
selector = "random"
deadline = "latency-quantile"
deadline_q = 0.5
deadline_slack = 1.1
latency_sigma = 0.8
test_per_class = 8
clustering_restarts = 3
"#
    )
}

/// The same `[[job]]` block, run in-process: the golden trajectory.
fn recovery_golden() -> History {
    SimulationBuilder::new(DatasetProfile::femnist())
        .parties(12)
        .rounds(3)
        .participation(0.25)
        .alpha(0.3)
        .selector(SelectorKind::Random)
        .deadline(DeadlinePolicy::LatencyQuantile { q: 0.5, slack: 1.1 })
        .latency_sigma(0.8)
        .test_per_class(8)
        .clustering_restarts(3)
        .seed(11)
        .run()
        .unwrap()
        .history
}

fn assert_golden_job_line(server_out: &mut impl BufRead, golden: &History, context: &str) {
    let job_line = await_line(server_out, "JOB ", Duration::from_secs(120));
    assert!(job_line.contains("rounds=3"), "{context}: unexpected round count: {job_line}");
    let expected_acc = format!("accuracy={:.4}", golden.final_accuracy());
    assert!(
        job_line.contains(&expected_acc),
        "{context}: accuracy diverged from the golden ({job_line} vs {expected_acc})"
    );
    await_line(server_out, "RUN COMPLETE", Duration::from_secs(30));
}

#[test]
fn a_party_process_drops_its_link_and_resumes_against_the_live_server() {
    // The link-loss tentpole at full deployment fidelity: party 1
    // severs its TCP connection after two data frames, reconnects
    // through the seeded backoff and resumes its session. The run must
    // finish on the golden trajectory and the server must account the
    // loss, the resume and its boundary checkpoints in /metrics.
    let data_port = free_ports(2);
    let health_port = data_port + 1;
    let config = recovery_config(data_port, health_port);
    let config_path = format!("{}/process_resume.toml", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&config_path, &config).unwrap();
    let checkpoint_dir = format!("{}/process_resume_ckpt", env!("CARGO_TARGET_TMPDIR"));
    let _ = std::fs::remove_dir_all(&checkpoint_dir);
    let golden = recovery_golden();

    let mut server = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_flips-server"))
            .arg(&config_path)
            .arg("--checkpoint-dir")
            .arg(&checkpoint_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("flips-server spawns"),
    );
    let mut server_out = BufReader::new(server.0.stdout.take().unwrap());
    await_line(&mut server_out, "LISTENING ", Duration::from_secs(30));

    let mut party0 = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_flips-party"))
            .arg(&config_path)
            .arg("0")
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("flips-party 0 spawns"),
    );
    let mut party1 = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_flips-party"))
            .arg(&config_path)
            .arg("1")
            .arg("--drop-after")
            .arg("2")
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("flips-party 1 spawns"),
    );

    assert_golden_job_line(&mut server_out, &golden, "drop-resume run");

    let metrics = scrape(&format!("127.0.0.1:{health_port}"), "/metrics");
    assert!(metrics.contains("flips_links_lost_total 1"), "missing loss count:\n{metrics}");
    assert!(metrics.contains("flips_link_resumes_total 1"), "missing resume count:\n{metrics}");
    // One write per round close plus the final drain boundary.
    assert!(
        metrics.contains("flips_checkpoint_rounds_total 4"),
        "missing checkpoint count:\n{metrics}"
    );

    for (name, party) in [("party 0", &mut party0), ("party 1", &mut party1)] {
        let status = party.0.wait().expect("party waited");
        assert!(status.success(), "{name} exited {status}");
    }
}

#[test]
fn a_killed_server_restores_its_checkpoint_and_finishes_the_golden_run() {
    // Checkpoint/restore at full deployment fidelity: the coordinator
    // process is killed mid-job, restarted with `--restore`, and the
    // finished run must report exactly the uninterrupted golden.
    let data_port = free_ports(2);
    let health_port = data_port + 1;
    let config = recovery_config(data_port, health_port);
    let config_path = format!("{}/process_restore.toml", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&config_path, &config).unwrap();
    let checkpoint_dir = format!("{}/process_restore_ckpt", env!("CARGO_TARGET_TMPDIR"));
    let _ = std::fs::remove_dir_all(&checkpoint_dir);
    let checkpoint_file = format!("{checkpoint_dir}/checkpoint.bin");
    let golden = recovery_golden();

    let spawn_server = |restore: bool| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_flips-server"));
        cmd.arg(&config_path).arg("--checkpoint-dir").arg(&checkpoint_dir);
        if restore {
            cmd.arg("--restore");
        }
        KillOnDrop(
            cmd.stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .expect("flips-server spawns"),
        )
    };
    let spawn_party = |slot: usize| {
        KillOnDrop(
            Command::new(env!("CARGO_BIN_EXE_flips-party"))
                .arg(&config_path)
                .arg(slot.to_string())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .expect("flips-party spawns"),
        )
    };

    // Phase 1: run until the first boundary snapshot lands on disk,
    // then kill the whole deployment, parties first.
    {
        let mut server = spawn_server(false);
        let mut server_out = BufReader::new(server.0.stdout.take().unwrap());
        await_line(&mut server_out, "LISTENING ", Duration::from_secs(30));
        let _party0 = spawn_party(0);
        let _party1 = spawn_party(1);
        let deadline = Instant::now() + Duration::from_secs(120);
        while !std::path::Path::new(&checkpoint_file).exists() {
            assert!(Instant::now() < deadline, "no checkpoint was ever written");
            std::thread::sleep(Duration::from_millis(2));
        }
        // KillOnDrop tears everything down here — mid-run with high
        // probability, after the final boundary in the worst case.
    }

    // Phase 2: restore and finish with a fresh set of processes.
    let mut server = spawn_server(true);
    let mut server_out = BufReader::new(server.0.stdout.take().unwrap());
    await_line(&mut server_out, "LISTENING ", Duration::from_secs(30));
    let mut party0 = spawn_party(0);
    let mut party1 = spawn_party(1);

    assert_golden_job_line(&mut server_out, &golden, "restored run");

    let metrics = scrape(&format!("127.0.0.1:{health_port}"), "/metrics");
    assert!(
        metrics.contains("flips_checkpoint_rounds_total"),
        "missing checkpoint counter:\n{metrics}"
    );
    assert!(metrics.contains("flips_run_complete 1"), "missing completion gauge:\n{metrics}");

    for (name, party) in [("party 0", &mut party0), ("party 1", &mut party1)] {
        let status = party.0.wait().expect("party waited");
        assert!(status.success(), "{name} exited {status}");
    }
}
