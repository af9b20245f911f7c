//! One benchmark run: repeat a workload's episodes until `--seconds`
//! have been measured, fold the episodes into the metrics
//! `BENCHMARK.json` names, and render the result line.
//!
//! Host speed on a shared box drifts by tens of percent over seconds, so
//! no figure here is a mean over the whole run: rates are medians over
//! episodes and the round time is the median over every timed round.
//! The per-episode values are printed beside each median (the spread).

use crate::host;
use crate::jobs::{self, Scale};
use crate::json::Json;
use crate::layers;
use crate::schema::{self, END_TO_END};
use crate::stats::{mean, median, quantile};
use crate::trace::Tracer;
use crate::workloads::{self, Episode};
use std::collections::BTreeMap;
use std::time::Instant;

/// Episodes a pass completes at least: the set-up time is a median, and
/// a median of fewer than three is a single reading.
const MIN_EPISODES: usize = 3;

/// What one invocation prints as its last line.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in schema order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Per-episode values behind each end-to-end median.
    pub spread: BTreeMap<&'static str, Vec<f64>>,
    /// Digest of the outputs of the episode run on `--seed` itself.
    pub digest: u64,
}

impl Outcome {
    /// The result of the benchmark contract: exactly four keys.
    fn result(&self) -> Vec<(&'static str, Json)> {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = vec![("value", Json::Num(*value)), ("unit", Json::Str((*unit).into()))];
                (*name, Json::obj(entry))
            })
            .collect();
        vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ]
    }

    /// The last line of stdout.
    pub fn result_line(&self) -> String {
        Json::obj(self.result()).render()
    }

    /// The same, plus spreads and the digest — what `flbench run` stores.
    pub fn to_json(&self) -> Json {
        let spread = self
            .spread
            .iter()
            .map(|(name, values)| {
                (*name, Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()))
            })
            .collect();
        let mut pairs = self.result();
        pairs.push(("spread", Json::obj(spread)));
        pairs.push(("digest", Json::Str(format!("{:016x}", self.digest))));
        Json::obj(pairs)
    }

    /// Every metric by name and unit, for people, on stderr.
    pub fn print_table(&self, title: &str) {
        eprintln!("{title}");
        for (name, value, unit) in &self.metrics {
            let spread = self.spread.get(name).map_or(String::new(), |values| {
                let cells: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
                format!("   [{}]", cells.join(" "))
            });
            eprintln!("  {name:<36} {value:>16.4} {unit:<8}{spread}");
        }
        eprintln!(
            "  correct {}  attempted {}  failed {}  digest {:016x}",
            self.correct, self.attempted, self.failed, self.digest
        );
    }
}

/// Episodes of one pass and the bookkeeping around them.
struct Pass {
    episodes: Vec<Episode>,
    /// Seeds the episodes cycle through (`workloads::seed_cycle`).
    cycle: usize,
    tries: usize,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Pass {
    fn new(workload: &str, scale: &Scale) -> Pass {
        Pass {
            episodes: Vec::new(),
            cycle: workloads::seed_cycle(workload, scale),
            tries: 0,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Runs one episode. Episode `e` takes the `e mod cycle`-th seed
    /// derived from `--seed` (the 0th is `--seed` itself). An episode
    /// that errors is charged all its rounds as failed and reported,
    /// never swallowed.
    fn step(&mut self, workload: &str, seed: u64, scale: &Scale, tracer: &mut Tracer) {
        let slot = (self.episodes.len() % self.cycle) as u64;
        let episode_seed = if slot == 0 { seed } else { jobs::splitmix64(seed ^ slot) };
        let deep = self.episodes.is_empty();
        self.tries += 1;
        match workloads::episode(workload, episode_seed, scale, deep, tracer) {
            Ok(episode) => {
                self.attempted += episode.rounds_total as u64;
                for problem in &episode.problems {
                    self.problems.push(format!("episode {}: {problem}", self.episodes.len()));
                }
                self.episodes.push(episode);
            }
            Err(error) => {
                let rounds = workloads::planned_rounds(workload, scale) as u64;
                self.attempted += rounds;
                self.failed += rounds;
                eprintln!("flbench: {workload}: episode failed: {error}");
            }
        }
    }

    /// Whether the pass has what every count is computed from: one whole
    /// cycle of seeds, and at least [`MIN_EPISODES`]. A workload whose
    /// episodes keep failing still ends: after twice that many tries
    /// only the clock keeps the loop going.
    fn enough(&self) -> bool {
        let need = self.cycle.max(MIN_EPISODES);
        self.episodes.len() >= need || self.tries >= 2 * need
    }

    /// The first cycle of episodes: one per derived seed. Counts are
    /// read from these alone, so they do not depend on how many more
    /// episodes the clock allowed.
    fn first_cycle(&self) -> &[Episode] {
        &self.episodes[..self.cycle.min(self.episodes.len())]
    }

    /// Same inputs, same outputs: an episode must agree with the one a
    /// cycle earlier — same seed — on its digest and on every count.
    fn check_repeatable(&mut self) {
        for (i, episode) in self.episodes.iter().enumerate().skip(self.cycle) {
            let earlier = &self.episodes[i - self.cycle];
            if episode.digest != earlier.digest {
                self.problems.push(format!(
                    "episode {i} digest {:016x} differs from episode {}'s {:016x} on the same seed",
                    episode.digest,
                    i - self.cycle,
                    earlier.digest
                ));
            }
            if episode.bytes_per_round != earlier.bytes_per_round {
                self.problems.push(format!(
                    "episode {i} moved {} B/round, episode {} moved {} on the same seed",
                    episode.bytes_per_round,
                    i - self.cycle,
                    earlier.bytes_per_round
                ));
            }
        }
    }
}

fn per_episode(episodes: &[Episode], f: impl Fn(&Episode) -> f64) -> Vec<f64> {
    episodes.iter().map(f).collect()
}

fn pooled_round_ms(episodes: &[Episode]) -> Vec<f64> {
    episodes.iter().flat_map(|e| e.round_ms.iter().copied()).collect()
}

/// The untraced pass: the end-to-end metrics.
pub fn end_to_end(
    workload: &str,
    seed: u64,
    seconds: f64,
    scale: &Scale,
) -> Result<Outcome, String> {
    let calib_before = host::calib_ns();
    let mut tracer = Tracer::off();
    let mut pass = Pass::new(workload, scale);
    let start = Instant::now();
    while !pass.enough() || start.elapsed().as_secs_f64() < seconds {
        pass.step(workload, seed, scale, &mut tracer);
    }
    if pass.episodes.is_empty() {
        return Err(format!("{workload}: every episode failed"));
    }
    pass.check_repeatable();
    let calib_after = host::calib_ns();

    let episodes = &pass.episodes;
    let mut spread = BTreeMap::new();
    let mut metrics = Vec::new();
    for m in &END_TO_END {
        let values = match m.name {
            "setup_s" => per_episode(episodes, |e| e.setup_s),
            "rounds_per_s" => per_episode(episodes, Episode::rounds_per_s),
            "round_ms_p50" => per_episode(episodes, |e| median(&e.round_ms)),
            "cpu_ms_per_round" => per_episode(episodes, Episode::cpu_ms_per_round),
            "job_s" => per_episode(episodes, |e| e.job_s),
            "bytes_per_round" => per_episode(pass.first_cycle(), |e| e.bytes_per_round),
            "peak_rss_mb" => vec![host::peak_rss_mb()],
            other => unreachable!("end-to-end metric {other} has no measurement"),
        };
        let value = match m.name {
            "round_ms_p50" => median(&pooled_round_ms(episodes)),
            // A count, not a timing: the mean over the cycle's seeds.
            "bytes_per_round" => mean(&values),
            _ => median(&values),
        };
        metrics.push((m.name, value, m.unit));
        spread.insert(m.name, values);
    }
    eprintln!(
        "flbench: {workload}: {} episodes, {} timed rounds, host.calib_ns {calib_before:.0} -> {calib_after:.0}",
        episodes.len(),
        episodes.iter().map(|e| e.timed_rounds).sum::<usize>(),
    );
    for problem in &pass.problems {
        eprintln!("flbench: {workload}: WRONG OUTPUT: {problem}");
    }
    Ok(Outcome {
        correct: pass.problems.is_empty(),
        attempted: pass.attempted,
        failed: pass.failed,
        metrics,
        spread,
        digest: episodes[0].digest,
    })
}

/// The traced pass: episodes of the workload alternate untraced and
/// traced (their rate difference is the tracing overhead, their digests
/// must agree), then the per-layer table is measured.
pub fn per_layer(
    workload: &str,
    seed: u64,
    seconds: f64,
    scale: &Scale,
) -> Result<Outcome, String> {
    let calib = host::calib_ns();
    let mut tracer = Tracer::on();
    let mut off = Tracer::off();
    let (mut plain, mut traced) = (Pass::new(workload, scale), Pass::new(workload, scale));
    let start = Instant::now();
    loop {
        // One pair is enough here: no count is read from this pass.
        let paired = !plain.episodes.is_empty() && !traced.episodes.is_empty();
        if (paired || plain.tries >= MIN_EPISODES) && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        plain.step(workload, seed, scale, &mut off);
        traced.step(workload, seed, scale, &mut tracer);
    }
    if plain.episodes.is_empty() || traced.episodes.is_empty() {
        return Err(format!("{workload}: the traced pass could not complete an episode pair"));
    }
    let mut problems = Vec::new();
    plain.check_repeatable();
    traced.check_repeatable();
    if plain.episodes[0].digest != traced.episodes[0].digest {
        problems.push("traced and untraced episodes disagree on their digest".to_string());
    }
    problems.append(&mut plain.problems);
    problems.append(&mut traced.problems);

    let rate = |pass: &Pass| median(&per_episode(&pass.episodes, Episode::rounds_per_s));
    let overhead_pct = 100.0 * (rate(&plain) - rate(&traced)) / rate(&plain);
    let rounds: usize = traced.episodes.iter().map(|e| e.rounds_total).sum();
    let spans_path = std::path::Path::new(host::OUT_DIR).join(format!("spans-{workload}.tsv"));
    if let Err(e) = tracer.write_tsv(&spans_path) {
        eprintln!("flbench: cannot write {spans_path:?}: {e}");
    }
    eprintln!(
        "flbench: {workload}: {} spans over {rounds} traced rounds -> {}",
        tracer.spans().len(),
        spans_path.display()
    );

    let mut table = layers::measure(seed, scale)?;
    problems.append(&mut table.problems);
    table.values.insert("trace.overhead_pct", overhead_pct);
    // socket_train has one sample per call; its p90 is not a round's.
    table.values.insert("trace.round_ms_p90", quantile(&pooled_round_ms(&plain.episodes), 0.9));
    table.values.insert("host.calib_ns", calib);

    let mut metrics = Vec::new();
    for m in schema::per_layer() {
        let value = table
            .values
            .get(m.name)
            .copied()
            .ok_or_else(|| format!("per-layer metric {} was not measured", m.name))?;
        metrics.push((m.name, value, m.unit));
    }
    for problem in &problems {
        eprintln!("flbench: {workload}: WRONG OUTPUT: {problem}");
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: plain.attempted + traced.attempted + table.attempted,
        failed: plain.failed + traced.failed + table.failed,
        metrics,
        spread: BTreeMap::new(),
        digest: plain.episodes[0].digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failing_episode_is_charged_not_swallowed() {
        let scale = Scale::smoke();
        let mut pass = Pass::new("no_such_workload", &scale);
        pass.step("no_such_workload", 1, &scale, &mut Tracer::off());
        assert!(pass.episodes.is_empty());
        assert!(pass.failed > 0 && pass.failed == pass.attempted);
        // A run in which nothing succeeds ends, with an error and no result.
        assert!(end_to_end("no_such_workload", 1, 0.0, &scale).is_err());
    }
}
