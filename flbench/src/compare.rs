//! `flbench compare A.json B.json`: per workload and end-to-end metric,
//! both medians, both spreads, the change and a verdict against the
//! bound `BENCHMARK.json` fixes — one row per workload and metric.

use crate::json::Json;
use crate::schema::{self, Better};
use crate::stats::iqr_share;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The spread between a side's own episodes is wider than the bound:
    /// the medians cannot be told apart.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the run's median and its episode values.
#[derive(Debug, Clone)]
pub struct Side {
    pub median: f64,
    pub episodes: Vec<f64>,
}

/// `b` against `a`. `worse` is the share of `a`'s median by which `b`
/// is worse (negative when better).
pub fn verdict(a: &Side, b: &Side, better: Better, bound: f64) -> (f64, Verdict) {
    if a.median == b.median {
        return (0.0, Verdict::Same);
    }
    let worse = match better {
        Better::Lower => (b.median - a.median) / a.median,
        Better::Higher => (a.median - b.median) / a.median,
    };
    let spread = iqr_share(&a.episodes).max(iqr_share(&b.episodes));
    let lowest = |side: &Side| side.episodes.iter().copied().fold(f64::INFINITY, f64::min);
    let highest = |side: &Side| side.episodes.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    // Every episode of b better than every episode of a.
    let all_better = match better {
        Better::Lower => highest(b) < lowest(a),
        Better::Higher => lowest(b) > highest(a),
    };
    let v = if worse > bound {
        Verdict::Worse
    } else if all_better && -worse > spread {
        Verdict::Better
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    };
    (worse, v)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn side(run: &Json, workload: &str, metric: &str) -> Option<Side> {
    let result = run.get("workloads")?.get(workload)?.get("end_to_end")?;
    let median = result.get("metrics")?.get(metric)?.get("value")?.as_f64()?;
    let episodes = result
        .get("spread")
        .and_then(|s| s.get(metric))
        .and_then(Json::as_arr)
        .map(|values| values.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    Some(Side { median, episodes })
}

fn failed(run: &Json, workload: &str) -> f64 {
    run.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|r| r.get("failed"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::MAX)
}

pub fn compare_files(a_path: &str, b_path: &str, bounds_path: &str) -> Result<ExitCode, String> {
    let (a, b, manifest) = (load(a_path)?, load(b_path)?, load(bounds_path)?);
    let bound_of = |metric: &str| {
        manifest
            .get("end_to_end")
            .and_then(Json::as_arr)
            .and_then(|list| {
                list.iter().find(|m| m.get("name").and_then(Json::as_str) == Some(metric))
            })
            .and_then(|m| m.get("bound"))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{bounds_path} fixes no bound for {metric}"))
    };
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "A iqr%", "B iqr%", "worse%", "bound%"
    );
    let mut regressed = false;
    for w in &schema::WORKLOADS {
        for m in &schema::END_TO_END {
            let (Some(sa), Some(sb)) = (side(&a, w.name, m.name), side(&b, w.name, m.name)) else {
                return Err(format!("{}: {} is missing from one of the files", w.name, m.name));
            };
            let bound = bound_of(m.name)?;
            let (worse, v) = verdict(&sa, &sb, m.better, bound);
            regressed |= v == Verdict::Worse;
            println!(
                "{:<16} {:<18} {:>14.4} {:>14.4} {:>8.2} {:>8.2} {:>+8.2} {:>6.1}  {}",
                w.name,
                m.name,
                sa.median,
                sb.median,
                100.0 * iqr_share(&sa.episodes),
                100.0 * iqr_share(&sb.episodes),
                100.0 * worse,
                100.0 * bound,
                v.label()
            );
        }
        let (fa, fb) = (failed(&a, w.name), failed(&b, w.name));
        if fb > fa {
            regressed = true;
            println!("{:<16} failed rounds rose from {fa} to {fb}: worse", w.name);
        }
    }
    Ok(if regressed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, episodes: &[f64]) -> Side {
        Side { median, episodes: episodes.to_vec() }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let quiet = s(100.0, &[99.0, 100.0, 101.0, 100.0]);
        // Inside the bound and the spread is narrow: same.
        assert_eq!(
            verdict(&quiet, &s(104.0, &[103.0, 104.0, 105.0, 104.0]), Better::Lower, 0.1).1,
            Verdict::Same
        );
        // Beyond the bound: worse — and for a higher-is-better metric the sign flips.
        assert_eq!(
            verdict(&quiet, &s(115.0, &[114.0, 115.0, 116.0, 115.0]), Better::Lower, 0.1).1,
            Verdict::Worse
        );
        assert_eq!(
            verdict(&quiet, &s(85.0, &[84.0, 85.0, 86.0, 85.0]), Better::Higher, 0.1).1,
            Verdict::Worse
        );
        // Every episode better than every episode of the other side: better.
        assert_eq!(
            verdict(&quiet, &s(80.0, &[79.0, 80.0, 81.0, 80.0]), Better::Lower, 0.1).1,
            Verdict::Better
        );
        // A side noisier than the bound cannot resolve a small change.
        let noisy = s(102.0, &[80.0, 95.0, 109.0, 125.0]);
        assert_eq!(verdict(&quiet, &noisy, Better::Lower, 0.1).1, Verdict::Unresolved);
        // Identical counts are the same whatever the spread list holds.
        assert_eq!(
            verdict(&s(7.0, &[7.0]), &s(7.0, &[7.0]), Better::Lower, 0.01),
            (0.0, Verdict::Same)
        );
    }
}
