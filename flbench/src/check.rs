//! `flbench check BENCHMARK.json`: the file must name exactly what this
//! binary emits — same workloads, same metrics, same units and
//! directions, in the same order — and stay inside the contract's limits.

use crate::json::Json;
use crate::schema::{self, valid_name, valid_unit, Better};

fn keys_are(value: &Json, expected: &[&str], what: &str) -> Result<(), String> {
    let mut found = value.keys();
    let mut wanted = expected.to_vec();
    found.sort_unstable();
    wanted.sort_unstable();
    if found == wanted {
        Ok(())
    } else {
        Err(format!("{what}: keys {found:?}, expected exactly {wanted:?}"))
    }
}

fn text<'a>(entry: &'a Json, key: &str, what: &str) -> Result<&'a str, String> {
    entry.get(key).and_then(Json::as_str).ok_or_else(|| format!("{what}: {key} must be a string"))
}

fn list<'a>(doc: &'a Json, key: &str, min: usize, max: usize) -> Result<&'a [Json], String> {
    let items =
        doc.get(key).and_then(Json::as_arr).ok_or_else(|| format!("{key} must be a list"))?;
    if (min..=max).contains(&items.len()) {
        Ok(items)
    } else {
        Err(format!("{key} has {} entries, allowed {min} to {max}", items.len()))
    }
}

/// Compares one list of the file against the names this binary emits.
fn same_names(found: &[&str], emitted: &[&str], what: &str) -> Result<(), String> {
    for name in found {
        if !valid_name(name) {
            return Err(format!("{what}: {name:?} is not a valid name"));
        }
    }
    if found == emitted {
        return Ok(());
    }
    let missing: Vec<_> = emitted.iter().filter(|n| !found.contains(n)).collect();
    let extra: Vec<_> = found.iter().filter(|n| !emitted.contains(n)).collect();
    Err(format!(
        "{what} differ from what the binary emits: missing {missing:?}, unknown {extra:?}{}",
        if missing.is_empty() && extra.is_empty() { " (same names, different order)" } else { "" }
    ))
}

/// A metric's unit and direction must be the ones the binary emits.
fn same_unit(entry: &Json, name: &str, unit: &str, better: Better) -> Result<(), String> {
    let (found_unit, found_better) = (text(entry, "unit", name)?, text(entry, "better", name)?);
    if found_unit == unit && found_better == better.label() && valid_unit(found_unit) {
        Ok(())
    } else {
        Err(format!(
            "{name}: {found_unit}/{found_better} in the file, the binary emits {unit}/{}",
            better.label()
        ))
    }
}

/// Checks a parsed `BENCHMARK.json`.
pub fn check(doc: &Json) -> Result<(), String> {
    keys_are(
        doc,
        &["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"],
        "file",
    )?;
    let command = list(doc, "command", 1, 32)?;
    if command.iter().any(|c| c.as_str().is_none()) {
        return Err("command must be a list of strings".into());
    }
    let paths = list(doc, "paths", 1, 16)?;
    if paths.iter().all(|p| p.as_str() != Some("flbench")) {
        return Err("paths must contain \"flbench\"".into());
    }
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap_or(0.0);
    if seconds.fract() != 0.0 || !(1.0..=60.0).contains(&seconds) {
        return Err(format!("run_seconds {seconds} must be a whole number from 1 to 60"));
    }

    let workloads = list(doc, "workloads", 2, 8)?;
    let mut names = Vec::new();
    for w in workloads {
        keys_are(w, &["name", "why"], "workload")?;
        let name = text(w, "name", "workload")?;
        let why = text(w, "why", name)?;
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            return Err(format!("{name}: why must be one line of at most 200 characters"));
        }
        names.push(name);
    }
    let emitted: Vec<&str> = schema::WORKLOADS.iter().map(|w| w.name).collect();
    same_names(&names, &emitted, "workloads")?;

    let end_to_end = list(doc, "end_to_end", 1, 16)?;
    let mut names = Vec::new();
    for m in end_to_end {
        keys_are(m, &["name", "unit", "better", "bound"], "end_to_end metric")?;
        names.push(text(m, "name", "end_to_end metric")?);
    }
    let emitted: Vec<&str> = schema::END_TO_END.iter().map(|m| m.name).collect();
    same_names(&names, &emitted, "end_to_end metrics")?;
    for (m, known) in end_to_end.iter().zip(&schema::END_TO_END) {
        same_unit(m, known.name, known.unit, known.better)?;
        let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(-1.0);
        if !(bound > 0.0 && bound <= 0.25) {
            return Err(format!("{}: bound {bound} must be above 0 and at most 0.25", known.name));
        }
    }

    let per_layer = list(doc, "per_layer", 1, 128)?;
    let mut names = Vec::new();
    for m in per_layer {
        keys_are(m, &["name", "unit", "better"], "per_layer metric")?;
        names.push(text(m, "name", "per_layer metric")?);
    }
    let emitted: Vec<&str> = schema::per_layer().map(|m| m.name).collect();
    same_names(&names, &emitted, "per_layer metrics")?;
    for (m, known) in per_layer.iter().zip(schema::per_layer()) {
        same_unit(m, known.name, known.unit, known.better)?;
        // The interaction table: each layer metric names the end-to-end
        // metric and workload it should move (the contract's per_layer
        // entries have no room for it, so it lives in schema.rs).
        if let Some((metric, workload)) = known.moves {
            if !schema::END_TO_END.iter().any(|e| e.name == metric)
                || schema::workload(workload).is_none()
            {
                return Err(format!(
                    "{}: moves {metric} on {workload}, which do not exist",
                    known.name
                ));
            }
        }
    }
    Ok(())
}

pub fn check_file(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if text.len() > 64 * 1024 {
        return Err(format!("{path} is {} bytes, the limit is 64 KiB", text.len()));
    }
    check(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

    /// Keeps the committed file honest: `cargo test` in this package
    /// fails the moment the binary and `BENCHMARK.json` disagree.
    #[test]
    fn committed_benchmark_json_passes() {
        check_file(MANIFEST).unwrap();
    }

    #[test]
    fn drift_is_caught() {
        let text = std::fs::read_to_string(MANIFEST).unwrap();
        for (from, to, why) in [
            ("\"round_ms_p50\"", "\"round_ms_p51\"", "renamed metric"),
            ("\"wire_entropy\"", "\"wire_entropy2\"", "renamed workload"),
            ("\"unit\": \"1/s\"", "\"unit\": \"s\"", "changed unit"),
            ("\"better\": \"higher\"", "\"better\": \"lower\"", "flipped direction"),
            ("\"run_seconds\": ", "\"run_seconds\": 6", "run_seconds out of range"),
        ] {
            assert!(text.contains(from), "fixture lost {from}");
            let doc = Json::parse(&text.replacen(from, to, 1)).unwrap();
            assert!(check(&doc).is_err(), "{why} went unnoticed");
        }
        let Json::Obj(mut pairs) = Json::parse(&text).unwrap() else { panic!() };
        pairs.push(("extra".into(), Json::Null));
        assert!(check(&Json::Obj(pairs)).is_err(), "an extra key went unnoticed");
    }
}
