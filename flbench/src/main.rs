//! `flbench` — the repository's benchmark.
//!
//! ```text
//! flbench --workload W --seed N --seconds S --trace 0|1 [--smoke] [--detail FILE]
//!     one run of one workload; the last stdout line is the result JSON
//!     (`--trace 0`: every end-to-end metric; `--trace 1`: every per-layer metric);
//!     `--detail` also writes it, with per-episode spreads, to FILE
//! flbench run --seed N --out FILE [--seconds S] [--smoke]
//!     all four workloads, untraced then traced, into one JSON file
//! flbench compare A.json B.json [BENCHMARK.json]
//!     per workload x end-to-end metric: medians, spreads, delta, verdict
//! flbench check BENCHMARK.json
//!     the file names exactly what this binary emits
//! ```
//!
//! See `README.md` beside `Cargo.toml` for the metric glossary.

mod check;
mod compare;
mod host;
mod jobs;
mod json;
mod layers;
mod probes;
mod run;
mod schema;
#[cfg(test)]
mod smoke;
mod stats;
mod trace;
mod workloads;

use jobs::Scale;
use std::process::ExitCode;

/// `--name value` pairs and bare flags after the subcommand.
struct Args {
    positional: Vec<String>,
    options: Vec<(String, String)>,
    smoke: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args { positional: Vec::new(), options: Vec::new(), smoke: false };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--smoke" {
                parsed.smoke = true;
            } else if let Some(name) = arg.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                parsed.options.push((name.to_string(), value.clone()));
            } else {
                parsed.positional.push(arg.clone());
            }
        }
        Ok(parsed)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.options.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| v.parse::<T>().map_err(|_| format!("--{name} {v:?} is not a valid number")))
            .transpose()
    }

    fn scale(&self) -> Scale {
        if self.smoke {
            Scale::smoke()
        } else {
            Scale::full()
        }
    }
}

fn bench(args: &Args) -> Result<ExitCode, String> {
    let workload = args.get("workload").ok_or("--workload is required")?;
    if schema::workload(workload).is_none() {
        let names: Vec<&str> = schema::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {workload:?}; one of {names:?}"));
    }
    let seed: u64 = args.number("seed")?.ok_or("--seed is required")?;
    let seconds: f64 = args.number("seconds")?.ok_or("--seconds is required")?;
    let traced = match args.get("trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let outcome = if traced {
        run::per_layer(workload, seed, seconds, &args.scale())?
    } else {
        run::end_to_end(workload, seed, seconds, &args.scale())?
    };
    outcome.print_table(&format!(
        "{workload} seed {seed} ({})",
        if traced { "per-layer, traced pass" } else { "end-to-end, tracing off" }
    ));
    if let Some(path) = args.get("detail") {
        std::fs::write(path, outcome.to_json().render())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{}", outcome.result_line());
    Ok(ExitCode::SUCCESS)
}

/// `flbench run`: every workload, untraced then traced, each in a fresh
/// child process (its own peak RSS, allocator and page cache state),
/// collected into one file for `flbench compare`.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.number("seed")?.ok_or("--seed is required")?;
    let seconds: f64 = args.number("seconds")?.unwrap_or(15.0);
    let out = args.get("out").ok_or("--out is required")?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let scratch = host::TempDir::new("run")?;
    let detail = scratch.path().join("detail.json");
    let mut workloads = Vec::new();
    let mut failed = false;
    for w in &schema::WORKLOADS {
        let mut entry = vec![];
        for (key, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w.name, "--seed", &seed.to_string()]).args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                trace,
            ]);
            cmd.arg("--detail").arg(&detail);
            if args.smoke {
                cmd.arg("--smoke");
            }
            // stderr is inherited: the child's table and any failure
            // text reach the operator as they happen. `status` waits for
            // the child to end.
            let status = cmd
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("cannot start {exe:?}: {e}"))?;
            let result =
                std::fs::read_to_string(&detail).ok().and_then(|t| json::Json::parse(&t).ok());
            let _ = std::fs::remove_file(&detail);
            match (status.success(), result) {
                (true, Some(result)) => entry.push((key, result)),
                _ => {
                    failed = true;
                    eprintln!("flbench: {} --trace {trace} exited with {status}", w.name);
                    entry.push((key, json::Json::Null));
                }
            }
        }
        workloads.push((w.name, json::Json::obj(entry)));
    }
    let doc = json::Json::obj(vec![
        ("schema", json::Json::Str("flbench/run/v1".into())),
        ("seed", json::Json::Num(seed as f64)),
        ("seconds", json::Json::Num(seconds)),
        ("workloads", json::Json::obj(workloads)),
    ]);
    std::fs::write(out, doc.render_pretty()).map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("flbench: wrote {out}");
    Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    match argv.first().map(String::as_str) {
        Some("run") => run_all(&Args::parse(&argv[1..])?),
        Some("check") => {
            let path = argv.get(1).ok_or("usage: flbench check BENCHMARK.json")?;
            check::check_file(path)?;
            eprintln!("flbench: {path} names exactly what this binary emits");
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => {
            let (a, b) = match (argv.get(1), argv.get(2)) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err("usage: flbench compare A.json B.json [BENCHMARK.json]".into()),
            };
            let bounds = argv.get(3).map_or("BENCHMARK.json", String::as_str);
            compare::compare_files(a, b, bounds)
        }
        _ => bench(&Args::parse(argv)?),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("flbench: {message}");
            ExitCode::from(2)
        }
    }
}
