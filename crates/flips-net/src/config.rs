//! TOML configuration for the deployable binaries.
//!
//! One file describes a whole deployment — both `flips-server` and
//! `flips-party` read the *same* config, so the two sides provably
//! build the same seeded jobs (the party side keeps only the endpoints
//! its link slot owns; the server keeps the coordinator pieces):
//!
//! ```toml
//! links = 2
//!
//! [server]
//! listen = "127.0.0.1:7100"
//! health = "127.0.0.1:7101"
//!
//! [party]
//! connect = "127.0.0.1:7100"
//!
//! [guard]
//! max_frame_bytes = 1048576
//! rate_burst = 64
//! rate_per_round = 16
//! breaker_strikes = 3
//! breaker_cooldown_rounds = 2
//! admission_factor = 16
//!
//! [[job]]
//! dataset = "mit-bih-ecg"  # or "ham10000", "femnist", "fashion-mnist"
//! seed = 11
//! parties = 12
//! rounds = 4
//! selector = "random"
//! codec = "raw"
//! deadline = "latency-quantile"
//! deadline_q = 0.5
//! deadline_slack = 1.1
//! latency_sigma = 0.8
//! ```
//!
//! Each `[[job]]` fills one [`JobSpec`] — the same description
//! `SimulationBuilder` builds from — and [`NetConfig::parse`] checks it
//! with [`JobSpec::validate`], so a job the runtime would refuse fails at
//! parse time, before any data is generated. The keys, their defaults
//! (this parser's: six differ from `JobSpec::default()`'s paper values,
//! chosen so a loopback deployment runs in seconds) and their ranges:
//!
//! | key | default | valid |
//! |---|---|---|
//! | `dataset` | `"femnist"` | `"mit-bih-ecg"`, `"ham10000"`, `"femnist"`, `"fashion-mnist"` |
//! | `seed` | required | any non-negative integer; also fixes the job id |
//! | `parties` | required | ≥ 1 |
//! | `rounds` | required | ≥ 1 |
//! | `participation` | `0.25` | `(0, 1]` |
//! | `alpha` | `0.3` | finite, > 0 |
//! | `selector` | `"random"` | `"random"`, `"flips"`, `"oort"`, `"gradclus"`, `"tifl"` |
//! | `codec` | `"raw"` | `"raw"`, `"delta-lossless"`, `"delta-entropy"`, `"f16"`, `"topk:K"` with `1 ≤ K < 2³²` |
//! | `deadline` | `"injected"` | `"injected"`, `"latency-quantile"`, `"ewma"`, `"fixed"` |
//! | `deadline_q` | `0.9` | `[0, 1]`; read by `"latency-quantile"` |
//! | `deadline_slack` | `1.5` | finite, ≥ 0; read by `"latency-quantile"` and `"ewma"` |
//! | `ewma_alpha` | `0.3` | `(0, 1]`; read by `"ewma"` |
//! | `deadline_secs` | required by `"fixed"` | finite, > 0 |
//! | `latency_sigma` | `0.0` | finite, ≥ 0 |
//! | `straggler_rate` | `0.0` | `[0, 1)`; must be 0 unless `deadline = "injected"` |
//! | `test_per_class` | `8` | ≥ 1 |
//! | `clustering_restarts` | `3` | ≥ 1 |
//!
//! The parser is a deliberately minimal hand-rolled subset (this
//! workspace builds offline, so no crates.io `toml`): `[tables]`,
//! `[[arrays-of-tables]]`, `key = value` with string/integer/float/
//! boolean scalars, and `#` comments. Everything a deployment needs,
//! nothing it doesn't.

use flips_core::prelude::{
    DatasetProfile, DeadlinePolicy, GuardConfig, JobSpec, ModelCodec, SelectorKind,
    SimulationBuilder,
};
use flips_core::FlipsError;
use flips_fl::guard::{BreakerConfig, RateLimit};
use flips_fl::{FlError, JobParts, WireOptions};
use std::collections::BTreeMap;

/// A scalar TOML value (the subset the binaries need).
#[derive(Debug, Clone, PartialEq)]
enum TomlValue {
    /// A double-quoted string.
    Str(String),
    /// A signed integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
}

type Table = BTreeMap<String, TomlValue>;

/// A parsed TOML document: the root/named tables plus arrays-of-tables.
#[derive(Debug, Default, Clone, PartialEq)]
struct TomlDoc {
    /// Named tables; the root table lives under `""`.
    tables: BTreeMap<String, Table>,
    /// `[[name]]` arrays, in declaration order.
    arrays: BTreeMap<String, Vec<Table>>,
}

fn bad(line_no: usize, msg: impl std::fmt::Display) -> FlError {
    FlError::InvalidConfig(format!("config line {line_no}: {msg}"))
}

/// Parses one scalar value.
fn parse_value(raw: &str, line_no: usize) -> Result<TomlValue, FlError> {
    let raw = raw.trim();
    if let Some(rest) = raw.strip_prefix('"') {
        let Some(end) = rest.find('"') else {
            return Err(bad(line_no, "unterminated string"));
        };
        let tail = rest[end + 1..].trim();
        if !tail.is_empty() && !tail.starts_with('#') {
            return Err(bad(line_no, format!("trailing characters after string: {tail:?}")));
        }
        return Ok(TomlValue::Str(rest[..end].to_string()));
    }
    // Past the string case, a comment can be split off blindly.
    let raw = raw.split('#').next().unwrap_or_default().trim();
    match raw {
        "" => Err(bad(line_no, "missing value")),
        "true" => Ok(TomlValue::Bool(true)),
        "false" => Ok(TomlValue::Bool(false)),
        _ => {
            if raw.contains(['.', 'e', 'E']) {
                raw.parse::<f64>()
                    .map(TomlValue::Float)
                    .map_err(|_| bad(line_no, format!("not a float: {raw:?}")))
            } else {
                raw.parse::<i64>()
                    .map(TomlValue::Int)
                    .map_err(|_| bad(line_no, format!("not a number: {raw:?}")))
            }
        }
    }
}

/// Parses a TOML document (see the [module docs](self) for the
/// supported subset).
///
/// # Errors
///
/// [`FlError::InvalidConfig`] naming the offending line for any syntax
/// outside the subset.
fn parse_toml(text: &str) -> Result<TomlDoc, FlError> {
    enum Cursor {
        Table(String),
        Array(String),
    }
    let mut doc = TomlDoc::default();
    let mut cursor = Cursor::Table(String::new());
    for (i, raw_line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[") {
            let Some(name) = header.strip_suffix("]]") else {
                return Err(bad(line_no, "malformed [[array]] header"));
            };
            let name = name.trim().to_string();
            if name.is_empty() {
                return Err(bad(line_no, "empty [[array]] header"));
            }
            doc.arrays.entry(name.clone()).or_default().push(Table::new());
            cursor = Cursor::Array(name);
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let Some(name) = header.strip_suffix(']') else {
                return Err(bad(line_no, "malformed [table] header"));
            };
            let name = name.trim().to_string();
            if name.is_empty() {
                return Err(bad(line_no, "empty [table] header"));
            }
            doc.tables.entry(name.clone()).or_default();
            cursor = Cursor::Table(name);
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(bad(line_no, format!("expected `key = value`, got {line:?}")));
        };
        let key = key.trim().to_string();
        if key.is_empty() {
            return Err(bad(line_no, "empty key"));
        }
        let value = parse_value(value, line_no)?;
        let table = match &cursor {
            Cursor::Table(name) => doc.tables.entry(name.clone()).or_default(),
            Cursor::Array(name) => doc
                .arrays
                .get_mut(name)
                .and_then(|v| v.last_mut())
                .expect("array cursor points at a pushed table"),
        };
        if table.insert(key.clone(), value).is_some() {
            return Err(bad(line_no, format!("duplicate key {key:?}")));
        }
    }
    Ok(doc)
}

/// Typed accessors over one [`Table`].
struct Fields<'a> {
    table: &'a Table,
    context: &'a str,
}

impl<'a> Fields<'a> {
    fn missing(&self, key: &str) -> FlError {
        FlError::InvalidConfig(format!("{}: missing required key {key:?}", self.context))
    }

    fn wrong(&self, key: &str, want: &str) -> FlError {
        FlError::InvalidConfig(format!("{}: key {key:?} must be a {want}", self.context))
    }

    fn str_opt(&self, key: &str) -> Result<Option<String>, FlError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(TomlValue::Str(s)) => Ok(Some(s.clone())),
            Some(_) => Err(self.wrong(key, "string")),
        }
    }

    fn str_req(&self, key: &str) -> Result<String, FlError> {
        self.str_opt(key)?.ok_or_else(|| self.missing(key))
    }

    fn uint_opt(&self, key: &str) -> Result<Option<u64>, FlError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(TomlValue::Int(i)) if *i >= 0 => Ok(Some(*i as u64)),
            Some(_) => Err(self.wrong(key, "non-negative integer")),
        }
    }

    fn uint_req(&self, key: &str) -> Result<u64, FlError> {
        self.uint_opt(key)?.ok_or_else(|| self.missing(key))
    }

    /// A `u32` setting: a value past `u32::MAX` is refused, not wrapped.
    fn u32_opt(&self, key: &str) -> Result<Option<u32>, FlError> {
        let value = self.uint_opt(key)?.map(u32::try_from).transpose();
        value.map_err(|_| self.wrong(key, "non-negative integer up to 4294967295"))
    }

    fn float_opt(&self, key: &str) -> Result<Option<f64>, FlError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(TomlValue::Float(f)) => Ok(Some(*f)),
            Some(TomlValue::Int(i)) => Ok(Some(*i as f64)),
            Some(_) => Err(self.wrong(key, "number")),
        }
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), FlError> {
        for key in self.table.keys() {
            if !known.contains(&key.as_str()) {
                return Err(FlError::InvalidConfig(format!(
                    "{}: unknown key {key:?}",
                    self.context
                )));
            }
        }
        Ok(())
    }
}

/// A full deployment description (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// TCP links the roster is split across (placement is
    /// [`flips_fl::plan`]'s); also the number of party processes the
    /// server waits for.
    pub links: usize,
    /// The server's data-plane listen address.
    pub listen: String,
    /// The server's health/metrics listen address, if any.
    pub health: Option<String>,
    /// The address parties connect to (usually `listen` with a
    /// routable host).
    pub connect: String,
    /// The party-side health/metrics *base* address, if any: the
    /// `flips-party` process serving link slot `s` binds the base port
    /// plus `s`, so every party process exposes its own
    /// `/healthz`/`/metrics` endpoint.
    pub party_health: Option<String>,
    /// The inbound guard plane, if any.
    pub guard: Option<GuardConfig>,
    /// The jobs to run, in declaration order: each one seeded
    /// description, so both sides of the wire rebuild bit-identical
    /// protocol state machines from it.
    pub jobs: Vec<JobSpec>,
}

fn selector_from_name(name: &str) -> Result<SelectorKind, FlError> {
    match name {
        "random" => Ok(SelectorKind::Random),
        "flips" => Ok(SelectorKind::Flips),
        "oort" => Ok(SelectorKind::Oort),
        "gradclus" => Ok(SelectorKind::GradClus),
        "tifl" => Ok(SelectorKind::Tifl),
        other => Err(FlError::InvalidConfig(format!("unknown selector {other:?}"))),
    }
}

fn codec_from_name(name: &str) -> Result<ModelCodec, FlError> {
    if let Some(k) = name.strip_prefix("topk:") {
        let k: u32 = k.parse().map_err(|_| {
            FlError::InvalidConfig(format!("codec \"topk:{k}\": k must be a positive integer"))
        })?;
        return Ok(ModelCodec::TopK { k });
    }
    match name {
        "raw" => Ok(ModelCodec::Raw),
        "delta-lossless" => Ok(ModelCodec::DeltaLossless),
        "delta-entropy" => Ok(ModelCodec::DeltaEntropy),
        "f16" => Ok(ModelCodec::F16),
        other => Err(FlError::InvalidConfig(format!("unknown codec {other:?}"))),
    }
}

fn job_from_table(table: &Table, index: usize) -> Result<JobSpec, FlError> {
    let context = format!("[[job]] #{index}");
    let f = Fields { table, context: &context };
    f.reject_unknown(&[
        "dataset",
        "seed",
        "parties",
        "rounds",
        "participation",
        "alpha",
        "selector",
        "codec",
        "deadline",
        "deadline_q",
        "deadline_slack",
        "deadline_secs",
        "ewma_alpha",
        "latency_sigma",
        "straggler_rate",
        "test_per_class",
        "clustering_restarts",
    ])?;
    let deadline = match f.str_opt("deadline")?.as_deref().unwrap_or("injected") {
        "injected" => DeadlinePolicy::Injected,
        "latency-quantile" => DeadlinePolicy::LatencyQuantile {
            q: f.float_opt("deadline_q")?.unwrap_or(0.9),
            slack: f.float_opt("deadline_slack")?.unwrap_or(1.5),
        },
        "ewma" => DeadlinePolicy::Ewma {
            alpha: f.float_opt("ewma_alpha")?.unwrap_or(0.3),
            slack: f.float_opt("deadline_slack")?.unwrap_or(1.5),
        },
        "fixed" => DeadlinePolicy::FixedSeconds {
            secs: f.float_opt("deadline_secs")?.ok_or_else(|| {
                FlError::InvalidConfig(format!(
                    "{context}: deadline \"fixed\" requires deadline_secs"
                ))
            })?,
        },
        other => {
            return Err(FlError::InvalidConfig(format!(
                "{context}: unknown deadline policy {other:?}"
            )));
        }
    };
    let dataset = f.str_opt("dataset")?.unwrap_or_else(|| "femnist".to_string());
    let paper = JobSpec::default();
    let spec = JobSpec {
        profile: DatasetProfile::by_name(&dataset).ok_or_else(|| {
            FlError::InvalidConfig(format!("{context}: unknown dataset {dataset:?}"))
        })?,
        seed: f.uint_req("seed")?,
        parties: Some(f.uint_req("parties")? as usize),
        rounds: Some(f.uint_req("rounds")? as usize),
        participation: f.float_opt("participation")?.unwrap_or(0.25),
        alpha: f.float_opt("alpha")?.unwrap_or(paper.alpha),
        selector: selector_from_name(f.str_opt("selector")?.as_deref().unwrap_or("random"))?,
        codec: f.str_opt("codec")?.as_deref().map_or(Ok(paper.codec), codec_from_name)?,
        deadline,
        latency_sigma: f.float_opt("latency_sigma")?.unwrap_or(0.0),
        straggler_rate: f.float_opt("straggler_rate")?.unwrap_or(paper.straggler_rate),
        test_per_class: f.uint_opt("test_per_class")?.unwrap_or(8) as usize,
        clustering_restarts: f.uint_opt("clustering_restarts")?.unwrap_or(3) as usize,
        ..paper
    };
    spec.validate().map_err(|e| FlError::InvalidConfig(format!("{context}: {e}")))?;
    Ok(spec)
}

fn guard_from_table(table: &Table) -> Result<GuardConfig, FlError> {
    let f = Fields { table, context: "[guard]" };
    f.reject_unknown(&[
        "max_frame_bytes",
        "rate_burst",
        "rate_per_round",
        "breaker_strikes",
        "breaker_cooldown_rounds",
        "admission_factor",
    ])?;
    let defaults = GuardConfig::default();
    let rate_limit = match (f.u32_opt("rate_burst")?, f.u32_opt("rate_per_round")?) {
        (None, None) => None,
        (burst, per_round) => Some(RateLimit {
            burst: burst.unwrap_or(RateLimit::default().burst),
            per_round: per_round.unwrap_or(RateLimit::default().per_round),
        }),
    };
    let breaker = match f.u32_opt("breaker_strikes")? {
        None => None,
        Some(strikes) => Some(BreakerConfig {
            strike_threshold: strikes,
            cooldown_rounds: f
                .uint_opt("breaker_cooldown_rounds")?
                .unwrap_or(BreakerConfig::default().cooldown_rounds),
        }),
    };
    let guard = GuardConfig {
        max_frame_bytes: f
            .uint_opt("max_frame_bytes")?
            .map_or(defaults.max_frame_bytes, |v| v as usize),
        rate_limit,
        breaker,
        admission_factor: f.u32_opt("admission_factor")?,
    };
    guard.validate().map(|()| guard)
}

impl NetConfig {
    /// Parses a deployment config.
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidConfig`] for syntax errors, unknown keys or
    /// names, missing required keys, or a guard/job configuration the
    /// runtime itself would reject.
    pub fn parse(text: &str) -> Result<NetConfig, FlError> {
        let doc = parse_toml(text)?;
        for name in doc.tables.keys() {
            if !["", "server", "party", "guard"].contains(&name.as_str()) {
                return Err(FlError::InvalidConfig(format!("unknown table [{name}]")));
            }
        }
        for name in doc.arrays.keys() {
            if name != "job" {
                return Err(FlError::InvalidConfig(format!("unknown array [[{name}]]")));
            }
        }
        let empty = Table::new();
        let root = Fields { table: doc.tables.get("").unwrap_or(&empty), context: "config root" };
        root.reject_unknown(&["links"])?;
        let links = root.uint_opt("links")?.unwrap_or(1) as usize;
        if links == 0 {
            return Err(FlError::InvalidConfig("links must be at least 1".into()));
        }

        let server =
            Fields { table: doc.tables.get("server").unwrap_or(&empty), context: "[server]" };
        server.reject_unknown(&["listen", "health"])?;
        let party = Fields { table: doc.tables.get("party").unwrap_or(&empty), context: "[party]" };
        party.reject_unknown(&["connect", "health"])?;
        let listen = server.str_req("listen")?;
        let connect = party.str_opt("connect")?.unwrap_or_else(|| listen.clone());

        let guard = doc.tables.get("guard").map(guard_from_table).transpose()?;

        let job_tables = doc.arrays.get("job").map(Vec::as_slice).unwrap_or_default();
        if job_tables.is_empty() {
            return Err(FlError::InvalidConfig("at least one [[job]] is required".into()));
        }
        let jobs = job_tables
            .iter()
            .enumerate()
            .map(|(i, table)| job_from_table(table, i))
            .collect::<Result<Vec<_>, _>>()?;

        Ok(NetConfig {
            links,
            listen,
            health: server.str_opt("health")?,
            connect,
            party_health: party.str_opt("health")?,
            guard,
            jobs,
        })
    }

    /// Rebuilds every configured job from its seed and derives the wire
    /// plan — links and guard — the deployment shares. Both binaries
    /// call this on the same file, so the server's driver and every
    /// party's [`flips_fl::LinkShare`] come from one plan; jobs are
    /// returned in declaration order.
    ///
    /// # Errors
    ///
    /// Surfaces any job construction failure.
    pub fn plan(&self) -> Result<(Vec<JobParts>, WireOptions), FlipsError> {
        let mut wire = WireOptions::new(self.links);
        wire.guard = self.guard;
        let mut jobs = Vec::with_capacity(self.jobs.len());
        for spec in &self.jobs {
            jobs.push(SimulationBuilder::from(spec.clone()).build()?.0.into_parts());
        }
        Ok((jobs, wire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"
# A two-link deployment running one latency-deadline job.
links = 2

[server]
listen = "127.0.0.1:7100"
health = "127.0.0.1:7101"  # scrape me

[party]
connect = "127.0.0.1:7100"

[guard]
max_frame_bytes = 1048576
rate_burst = 64
rate_per_round = 16
breaker_strikes = 3
breaker_cooldown_rounds = 2
admission_factor = 16

[[job]]
seed = 11
parties = 12
rounds = 4
participation = 0.25
alpha = 0.3
selector = "random"
codec = "raw"
deadline = "latency-quantile"
deadline_q = 0.5
deadline_slack = 1.1
latency_sigma = 0.8
test_per_class = 8
clustering_restarts = 3
"#;

    #[test]
    fn full_config_parses() {
        let cfg = NetConfig::parse(FULL).unwrap();
        assert_eq!(cfg.links, 2);
        assert_eq!(cfg.listen, "127.0.0.1:7100");
        assert_eq!(cfg.health.as_deref(), Some("127.0.0.1:7101"));
        assert_eq!(cfg.connect, "127.0.0.1:7100");
        assert!(cfg.party_health.is_none());
        let guard = cfg.guard.expect("guard parsed");
        assert_eq!(guard.max_frame_bytes, 1 << 20);
        assert_eq!(guard.rate_limit, Some(RateLimit { burst: 64, per_round: 16 }));
        assert_eq!(guard.admission_factor, Some(16));
        assert_eq!(cfg.jobs.len(), 1);
        let job = &cfg.jobs[0];
        assert_eq!(job.seed, 11);
        assert_eq!(job.parties, Some(12));
        assert_eq!(job.selector, SelectorKind::Random);
        assert_eq!(job.deadline, DeadlinePolicy::LatencyQuantile { q: 0.5, slack: 1.1 });
    }

    /// `FULL` with one `[[job]]` line swapped for `lines` (the parser
    /// takes literal TOML only — every accepted name is spelled out in
    /// the tests below).
    fn full_with(line: &str, lines: &str) -> String {
        assert!(FULL.contains(line), "{line:?} is not a line of FULL");
        FULL.replace(line, lines)
    }

    #[test]
    fn every_deadline_policy_round_trips() {
        const LATENCY: &str =
            "deadline = \"latency-quantile\"\ndeadline_q = 0.5\ndeadline_slack = 1.1";
        for (toml, deadline) in [
            ("deadline = \"injected\"", DeadlinePolicy::Injected),
            ("", DeadlinePolicy::Injected),
            (
                "deadline = \"ewma\"\newma_alpha = 0.3\ndeadline_slack = 1.1",
                DeadlinePolicy::Ewma { alpha: 0.3, slack: 1.1 },
            ),
            ("deadline = \"ewma\"", DeadlinePolicy::Ewma { alpha: 0.3, slack: 1.5 }),
            (
                "deadline = \"fixed\"\ndeadline_secs = 0.12",
                DeadlinePolicy::FixedSeconds { secs: 0.12 },
            ),
            // An integer literal is a number too.
            ("deadline = \"fixed\"\ndeadline_secs = 2", DeadlinePolicy::FixedSeconds { secs: 2.0 }),
            (
                "deadline = \"latency-quantile\"",
                DeadlinePolicy::LatencyQuantile { q: 0.9, slack: 1.5 },
            ),
        ] {
            let cfg = NetConfig::parse(&full_with(LATENCY, toml)).unwrap();
            assert_eq!(cfg.jobs[0].deadline, deadline, "{toml:?}");
        }
        let err = NetConfig::parse(&full_with(LATENCY, "deadline = \"fixed\"")).unwrap_err();
        assert!(err.to_string().contains("deadline_secs"), "{err}");
    }

    #[test]
    fn every_selector_and_codec_round_trips() {
        for (name, selector) in [
            ("random", SelectorKind::Random),
            ("flips", SelectorKind::Flips),
            ("oort", SelectorKind::Oort),
            ("gradclus", SelectorKind::GradClus),
            ("tifl", SelectorKind::Tifl),
        ] {
            let toml = full_with("selector = \"random\"", &format!("selector = \"{name}\""));
            assert_eq!(NetConfig::parse(&toml).unwrap().jobs[0].selector, selector, "{name}");
        }
        assert_eq!(SelectorKind::all().len(), 5, "a new selector needs a config name");
        for (name, codec) in [
            ("raw", ModelCodec::Raw),
            ("delta-lossless", ModelCodec::DeltaLossless),
            ("delta-entropy", ModelCodec::DeltaEntropy),
            ("f16", ModelCodec::F16),
            ("topk:64", ModelCodec::TopK { k: 64 }),
            ("topk:4294967295", ModelCodec::TopK { k: u32::MAX }),
        ] {
            let toml = full_with("codec = \"raw\"", &format!("codec = \"{name}\""));
            assert_eq!(NetConfig::parse(&toml).unwrap().jobs[0].codec, codec, "{name}");
        }
        for name in ["mit-bih-ecg", "ham10000", "femnist", "fashion-mnist"] {
            let toml = full_with("seed = 11", &format!("dataset = \"{name}\"\nseed = 11"));
            assert_eq!(NetConfig::parse(&toml).unwrap().jobs[0].profile.name, name);
        }
        let toml = full_with("seed = 11", "dataset = \"mnist\"\nseed = 11");
        assert!(matches!(NetConfig::parse(&toml), Err(FlError::InvalidConfig(_))));
    }

    #[test]
    fn hostile_codec_names_are_rejected() {
        for bad in ["topk:0", "topk:", "topk:-3", "topk:4294967296", "entropy"] {
            let toml = full_with("codec = \"raw\"", &format!("codec = \"{bad}\""));
            assert!(NetConfig::parse(&toml).is_err(), "codec {bad:?} must be rejected");
        }
    }

    #[test]
    fn missing_required_keys_are_rejected() {
        // No [[job]] at all.
        let err = NetConfig::parse("links = 1\n[server]\nlisten = \"127.0.0.1:0\"\n").unwrap_err();
        assert!(err.to_string().contains("[[job]]"), "{err}");
        // A job without a seed.
        let err = NetConfig::parse(
            "links = 1\n[server]\nlisten = \"127.0.0.1:0\"\n[[job]]\nparties = 4\nrounds = 1\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("seed"), "{err}");
        // A server without a listen address.
        let err = NetConfig::parse("links = 1\n[[job]]\nseed = 1\nparties = 4\nrounds = 1\n")
            .unwrap_err();
        assert!(err.to_string().contains("listen"), "{err}");
    }

    #[test]
    fn unknown_names_are_rejected_not_ignored() {
        let base = "links = 1\n[server]\nlisten = \"127.0.0.1:0\"\n[[job]]\nseed = 1\nparties = 4\nrounds = 1\n";
        for (snippet, needle) in [
            (format!("{base}typo_key = 3\n"), "typo_key"),
            (format!("{base}selector = \"best\"\n"), "selector"),
            (format!("{base}codec = \"gzip\"\n"), "codec"),
            // A job speaks its one codec on every link: no per-link key.
            (format!("{base}link_codecs = \"raw\"\n"), "link_codecs"),
            (format!("{base}deadline = \"soon\"\n"), "deadline"),
            (format!("[unknown]\nx = 1\n{base}"), "unknown"),
            (format!("[[widgets]]\nx = 1\n{base}"), "widgets"),
        ] {
            let err = NetConfig::parse(&snippet).unwrap_err();
            assert!(err.to_string().contains(needle), "{snippet:?} -> {err}");
        }
    }

    #[test]
    fn guard_integers_past_u32_are_refused_by_name() {
        type Read = fn(&GuardConfig) -> u32;
        let keys: [(&str, &str, Read); 4] = [
            ("rate_burst = 64", "rate_burst", |g| g.rate_limit.unwrap().burst),
            ("rate_per_round = 16", "rate_per_round", |g| g.rate_limit.unwrap().per_round),
            ("breaker_strikes = 3", "breaker_strikes", |g| g.breaker.unwrap().strike_threshold),
            ("admission_factor = 16", "admission_factor", |g| g.admission_factor.unwrap()),
        ];
        for (line, key, read) in keys {
            // A cast `as u32` would read 2³² as 0 and 2³² + 1 as 1.
            for past in [4_294_967_296u64, 4_294_967_297] {
                let err = NetConfig::parse(&full_with(line, &format!("{key} = {past}")));
                let err = err.unwrap_err().to_string();
                assert!(err.contains(key) && err.contains("4294967295"), "{key} = {past}: {err}");
            }
            let cfg = NetConfig::parse(&full_with(line, &format!("{key} = 4294967295"))).unwrap();
            assert_eq!(read(&cfg.guard.expect("guard parsed")), u32::MAX, "{key}");
        }
    }

    #[test]
    fn syntax_errors_name_the_line() {
        for text in ["links 1", "links = ", "x = \"unterminated", "[bad\n", "links = 1e"] {
            let err = parse_toml(text).unwrap_err();
            assert!(err.to_string().contains("line 1"), "{text:?} -> {err}");
        }
        assert!(parse_toml("links = 1\nlinks = 2\n")
            .unwrap_err()
            .to_string()
            .contains("duplicate"));
    }

    #[test]
    fn zero_links_is_rejected() {
        let err = NetConfig::parse(
            "links = 0\n[server]\nlisten = \"127.0.0.1:0\"\n[[job]]\nseed = 1\nparties = 4\nrounds = 1\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("links"), "{err}");
    }

    #[test]
    fn a_bare_job_takes_the_parsers_defaults() {
        let cfg = NetConfig::parse(
            "[server]\nlisten = \"127.0.0.1:0\"\n[[job]]\nseed = 5\nparties = 9\nrounds = 2\n",
        )
        .unwrap();
        let job = &cfg.jobs[0];
        assert_eq!(job.profile, DatasetProfile::femnist());
        assert_eq!((job.seed, job.parties, job.rounds), (5, Some(9), Some(2)));
        assert_eq!((job.participation, job.alpha), (0.25, 0.3));
        assert_eq!((job.selector, job.codec), (SelectorKind::Random, ModelCodec::Raw));
        assert_eq!(job.deadline, DeadlinePolicy::Injected);
        assert_eq!((job.latency_sigma, job.straggler_rate), (0.0, 0.0));
        assert_eq!((job.test_per_class, job.clustering_restarts), (8, 3));
    }

    #[test]
    fn a_job_the_runtime_would_refuse_is_refused_at_parse_time() {
        const BASE: &str = "[server]\nlisten = \"127.0.0.1:0\"\n[[job]]\nseed = 1\n";
        for (lines, key) in [
            ("parties = 8\nrounds = 1\nparticipation = 0.0", "participation"),
            ("parties = 8\nrounds = 1\nparticipation = 2.0", "participation"),
            ("parties = 8\nrounds = 1\nstraggler_rate = 1.5", "straggler_rate"),
            (
                "parties = 8\nrounds = 1\nstraggler_rate = 0.2\ndeadline = \"ewma\"",
                "straggler_rate",
            ),
            (
                "parties = 8\nrounds = 1\ndeadline = \"latency-quantile\"\ndeadline_q = 2.0",
                "deadline_q",
            ),
            ("parties = 8\nrounds = 1\nalpha = -1.0", "alpha"),
            ("parties = 0\nrounds = 1", "parties"),
            ("parties = 8\nrounds = 0", "rounds"),
            ("parties = 8\nrounds = 1\ntest_per_class = 0", "test_per_class"),
            ("parties = 8\nrounds = 1\nlatency_sigma = -0.4", "latency_sigma"),
            ("parties = 8\nrounds = 1\nclustering_restarts = 0", "clustering_restarts"),
            ("parties = 8\nrounds = 1\ncodec = \"topk:0\"", "topk:0"),
        ] {
            let err = NetConfig::parse(&format!("{BASE}{lines}\n"));
            let err = err.expect_err(lines).to_string();
            assert!(err.contains(key) && err.contains("[[job]] #0"), "{lines:?} -> {err}");
        }
    }

    #[test]
    fn connect_defaults_to_the_listen_address() {
        let cfg = NetConfig::parse(
            "links = 1\n[server]\nlisten = \"127.0.0.1:7100\"\n[[job]]\nseed = 1\nparties = 4\nrounds = 1\n",
        )
        .unwrap();
        assert_eq!(cfg.connect, "127.0.0.1:7100");
    }
}
