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
//! strike_on_corrupt = true
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
//! The parser is a deliberately minimal hand-rolled subset (this
//! workspace builds offline, so no crates.io `toml`): `[tables]`,
//! `[[arrays-of-tables]]`, `key = value` with string/integer/float/
//! boolean scalars, and `#` comments. Everything a deployment needs,
//! nothing it doesn't.

use flips_core::prelude::{
    DatasetProfile, DeadlinePolicy, GuardConfig, ModelCodec, SelectorKind, SimulationBuilder,
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

    fn float_opt(&self, key: &str) -> Result<Option<f64>, FlError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(TomlValue::Float(f)) => Ok(Some(*f)),
            Some(TomlValue::Int(i)) => Ok(Some(*i as f64)),
            Some(_) => Err(self.wrong(key, "number")),
        }
    }

    fn bool_or(&self, key: &str, default: bool) -> Result<bool, FlError> {
        match self.table.get(key) {
            None => Ok(default),
            Some(TomlValue::Bool(b)) => Ok(*b),
            Some(_) => Err(self.wrong(key, "boolean")),
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

/// One job's full seeded description — enough for both sides of the
/// wire to rebuild bit-identical protocol state machines.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The dataset profile, by [`DatasetProfile::by_name`]: one of the
    /// paper's four, `"mit-bih-ecg"`, `"ham10000"`, `"femnist"` or
    /// `"fashion-mnist"`.
    pub dataset: String,
    /// Seed of every stream in the job (also determines the job id).
    pub seed: u64,
    /// Roster size.
    pub parties: usize,
    /// Round budget.
    pub rounds: usize,
    /// Fraction of the roster selected per round.
    pub participation: f64,
    /// Dirichlet non-IID concentration.
    pub alpha: f64,
    /// The participant-selection policy.
    pub selector: SelectorKind,
    /// The model-payload codec both sides pin (the job-wide default).
    pub codec: ModelCodec,
    /// Per-link codec overrides, one entry per link slot (empty = every
    /// link speaks [`JobSpec::codec`]). Parsed from the optional
    /// `link_codecs = "name,name,..."` key — comma-separated codec
    /// names, exactly `links` of them — so one job can run
    /// heterogeneous codecs across its links, pinned out-of-band on
    /// both wire ends.
    pub link_codecs: Vec<ModelCodec>,
    /// The round-deadline policy.
    pub deadline: DeadlinePolicy,
    /// Log-normal σ of the platform-heterogeneity model.
    pub latency_sigma: f64,
    /// Injected straggler rate (the [`DeadlinePolicy::Injected`] path).
    pub straggler_rate: f64,
    /// Held-out test samples per class.
    pub test_per_class: usize,
    /// k-means restarts of the label-distribution clustering.
    pub clustering_restarts: usize,
}

impl JobSpec {
    /// The codec link `slot` speaks for this job: the per-link override
    /// when `link_codecs` is configured, the job-wide default otherwise.
    fn link_codec(&self, slot: usize) -> ModelCodec {
        self.link_codecs.get(slot).copied().unwrap_or(self.codec)
    }

    /// The builder producing this job's seeded [`flips_fl::FlJob`] —
    /// identical on every process that parses the same config.
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidConfig`] for an unknown dataset name.
    pub fn builder(&self) -> Result<SimulationBuilder, FlError> {
        let profile = DatasetProfile::by_name(&self.dataset)
            .ok_or_else(|| FlError::InvalidConfig(format!("unknown dataset {:?}", self.dataset)))?;
        Ok(SimulationBuilder::new(profile)
            .parties(self.parties)
            .rounds(self.rounds)
            .participation(self.participation)
            .alpha(self.alpha)
            .selector(self.selector)
            .codec(self.codec)
            .deadline(self.deadline)
            .latency_sigma(self.latency_sigma)
            .straggler_rate(self.straggler_rate)
            .test_per_class(self.test_per_class)
            .clustering_restarts(self.clustering_restarts)
            .seed(self.seed))
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
    /// The jobs to run, in declaration order.
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
        if k == 0 {
            return Err(FlError::InvalidConfig("codec \"topk:0\": k must be at least 1".into()));
        }
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
        "link_codecs",
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
    let spec = JobSpec {
        dataset: f.str_opt("dataset")?.unwrap_or_else(|| "femnist".to_string()),
        seed: f.uint_req("seed")?,
        parties: f.uint_req("parties")? as usize,
        rounds: f.uint_req("rounds")? as usize,
        participation: f.float_opt("participation")?.unwrap_or(0.25),
        alpha: f.float_opt("alpha")?.unwrap_or(0.3),
        selector: selector_from_name(f.str_opt("selector")?.as_deref().unwrap_or("random"))?,
        codec: codec_from_name(f.str_opt("codec")?.as_deref().unwrap_or("raw"))?,
        link_codecs: match f.str_opt("link_codecs")? {
            None => Vec::new(),
            Some(names) => names
                .split(',')
                .map(|name| codec_from_name(name.trim()))
                .collect::<Result<Vec<_>, _>>()?,
        },
        deadline,
        latency_sigma: f.float_opt("latency_sigma")?.unwrap_or(0.0),
        straggler_rate: f.float_opt("straggler_rate")?.unwrap_or(0.0),
        test_per_class: f.uint_opt("test_per_class")?.unwrap_or(8) as usize,
        clustering_restarts: f.uint_opt("clustering_restarts")?.unwrap_or(3) as usize,
    };
    spec.builder()?; // surfaces an unknown dataset at parse time
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
        "strike_on_corrupt",
        "admission_factor",
    ])?;
    let defaults = GuardConfig::default();
    let rate_limit = match (f.uint_opt("rate_burst")?, f.uint_opt("rate_per_round")?) {
        (None, None) => None,
        (burst, per_round) => Some(RateLimit {
            burst: burst.unwrap_or(RateLimit::default().burst.into()) as u32,
            per_round: per_round.unwrap_or(RateLimit::default().per_round.into()) as u32,
        }),
    };
    let breaker = match f.uint_opt("breaker_strikes")? {
        None => None,
        Some(strikes) => Some(BreakerConfig {
            strike_threshold: strikes as u32,
            cooldown_rounds: f
                .uint_opt("breaker_cooldown_rounds")?
                .unwrap_or(BreakerConfig::default().cooldown_rounds),
            strike_on_corrupt: f
                .bool_or("strike_on_corrupt", BreakerConfig::default().strike_on_corrupt)?,
        }),
    };
    let guard = GuardConfig {
        max_frame_bytes: f
            .uint_opt("max_frame_bytes")?
            .map_or(defaults.max_frame_bytes, |v| v as usize),
        rate_limit,
        breaker,
        admission_factor: f.uint_opt("admission_factor")?.map(|v| v as u32),
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
        let mut jobs = Vec::with_capacity(job_tables.len());
        for (i, table) in job_tables.iter().enumerate() {
            let job = job_from_table(table, i)?;
            if !job.link_codecs.is_empty() && job.link_codecs.len() != links {
                return Err(FlError::InvalidConfig(format!(
                    "[[job]] #{i}: link_codecs names {} codec(s), but the deployment has {links} link(s)",
                    job.link_codecs.len()
                )));
            }
            jobs.push(job);
        }

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
    /// plan — links, guard, per-link codec overrides — the deployment
    /// shares. Both binaries call this on the same file, so the server's
    /// driver and every party's [`flips_fl::LinkShare`] come from one
    /// plan; jobs are returned in declaration order.
    ///
    /// # Errors
    ///
    /// Surfaces any job construction failure.
    pub fn plan(&self) -> Result<(Vec<JobParts>, WireOptions), FlipsError> {
        let mut wire = WireOptions::new(self.links);
        wire.guard = self.guard;
        let mut jobs = Vec::with_capacity(self.jobs.len());
        for spec in &self.jobs {
            let (job, meta) = spec.builder()?.build()?;
            for link in 0..self.links {
                let codec = spec.link_codec(link);
                if codec != spec.codec {
                    wire.link_codecs.push((meta.job_id, link, codec));
                }
            }
            jobs.push(job.into_parts());
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
strike_on_corrupt = true
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
        assert_eq!(job.parties, 12);
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
            assert_eq!(NetConfig::parse(&toml).unwrap().jobs[0].dataset, name);
        }
        let toml = full_with("seed = 11", "dataset = \"mnist\"\nseed = 11");
        assert!(matches!(NetConfig::parse(&toml), Err(FlError::InvalidConfig(_))));
    }

    #[test]
    fn per_link_codec_overrides_round_trip_and_validate() {
        let with = |names: &str| {
            NetConfig::parse(&full_with(
                "codec = \"raw\"",
                &format!("codec = \"raw\"\nlink_codecs = \"{names}\""),
            ))
        };
        // One name per link, every codec name accepted, blanks trimmed.
        for (names, codecs) in [
            ("delta-entropy,topk:128", [ModelCodec::DeltaEntropy, ModelCodec::TopK { k: 128 }]),
            ("raw, f16", [ModelCodec::Raw, ModelCodec::F16]),
            ("delta-lossless,raw", [ModelCodec::DeltaLossless, ModelCodec::Raw]),
        ] {
            let job = &with(names).unwrap().jobs[0];
            assert_eq!(job.link_codecs, codecs, "{names}");
            assert_eq!([job.link_codec(0), job.link_codec(1)], codecs, "{names}");
            assert_eq!(job.codec, ModelCodec::Raw, "the job-wide codec is untouched");
        }
        // No override: every slot falls back to the job-wide codec.
        assert_eq!(NetConfig::parse(FULL).unwrap().jobs[0].link_codec(1), ModelCodec::Raw);
        // A count that disagrees with `links` is a config error, not a
        // silently misrouted codec; so is an unknown name in the list.
        for names in ["delta-entropy", "raw,raw,raw"] {
            let err = with(names).unwrap_err();
            assert!(err.to_string().contains("link_codecs"), "{names}: {err}");
        }
        assert!(with("raw,gzip").is_err());
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
            (format!("{base}deadline = \"soon\"\n"), "deadline"),
            (format!("[unknown]\nx = 1\n{base}"), "unknown"),
            (format!("[[widgets]]\nx = 1\n{base}"), "widgets"),
        ] {
            let err = NetConfig::parse(&snippet).unwrap_err();
            assert!(err.to_string().contains(needle), "{snippet:?} -> {err}");
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
    fn connect_defaults_to_the_listen_address() {
        let cfg = NetConfig::parse(
            "links = 1\n[server]\nlisten = \"127.0.0.1:7100\"\n[[job]]\nseed = 1\nparties = 4\nrounds = 1\n",
        )
        .unwrap();
        assert_eq!(cfg.connect, "127.0.0.1:7100");
    }
}
