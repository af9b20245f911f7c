//! The roster store — bounded-memory party metadata at million-party
//! scale.
//!
//! Selector construction used to require the caller to materialize the
//! whole roster (sample counts, latency profiles, label distributions)
//! as dense vectors. At 10⁶ registered parties that is hundreds of
//! megabytes of mostly-cold descriptors held for the lifetime of the
//! job. [`RosterStore`] keeps those descriptors in fixed-size columnar
//! *segments* ([`SEGMENT_PARTIES`] records each, one column per field
//! from `push` on) and, in spill mode, pages them through a bounded LRU
//! of resident segments backed by sealed files on disk — in the
//! integrity envelope checkpoints use ([`crate::format`], magic `FLRS`),
//! so a truncated or bit-flipped segment is rejected on every page-in.
//!
//! The store implements [`CandidateSource`], which is how the baseline
//! selection policies consume it: one bulk column read each for Oort
//! and TiFL, and nothing at all for Random and GradClus. FLIPS never reads
//! it — label distributions go from the parties to its enclave, not
//! through the roster. Selection over a spilled roster is
//! *bit-identical* to selection over the same records held flat — the
//! scale-equivalence suite pins this.
//!
//! Spill/load traffic is observable: [`RosterStore::spilled`] and
//! [`RosterStore::loaded`] feed `DriverStats::{roster_spilled,
//! roster_loaded}` (via [`crate::MultiJobDriver::attach_roster`]) and
//! the flips-net Prometheus gauges.

use crate::format::{put_vec, seal, unseal, Reader};
use crate::FlError;
use bytes::BufMut;
use flips_selection::streaming::{CandidateSource, SourceError};
use flips_selection::PartyId;
use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Records per segment. 4096 keeps a segment's encoded size in the
/// hundreds-of-kilobytes range for typical label schemas — large enough
/// to amortize a file read, small enough that a handful of resident
/// segments stays far under any realistic budget.
pub const SEGMENT_PARTIES: usize = 4096;

/// One registered party's selection-relevant metadata.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PartyRecord {
    /// Local sample count (Oort's public metadata, the FedAvg weight).
    pub data_size: u64,
    /// Profiled training latency, seconds (TiFL tiering, Oort's
    /// preferred-duration calibration).
    pub latency_hint: f64,
    /// Raw per-label datapoint counts. No workspace selector reads them
    /// and `SimulationBuilder` stores none (FLIPS takes them from the
    /// parties); the column stays only until the next `FLRS` payload
    /// version drops it.
    pub label_counts: Vec<u64>,
}

/// Where a store keeps its segments.
enum Backing {
    /// Every segment resident — the flat path, zero I/O.
    Memory(Vec<FlatSegment>),
    /// Sealed segment files under `dir`, paged through a bounded LRU.
    Spill { dir: PathBuf, budget: usize, cache: Box<Mutex<SegmentCache>> },
}

/// The resident-segment LRU (spill mode only).
#[derive(Default)]
struct SegmentCache {
    /// Resident segments by index.
    resident: HashMap<usize, FlatSegment>,
    /// Access order, least-recent first.
    order: VecDeque<usize>,
    /// The buffer every page-in reads its file into.
    file: Vec<u8>,
    /// The last evicted segment: the next page-in decodes into its
    /// columns, so a miss at a full budget allocates nothing.
    spare: FlatSegment,
}

/// A segment as it is held, in either backing and while it is built:
/// one column per field, every label count in one buffer. Record `i`'s
/// counts are `labels[label_end[i − 1]..label_end[i]]`.
#[derive(Default)]
struct FlatSegment {
    data_size: Vec<u64>,
    latency: Vec<f64>,
    label_end: Vec<usize>,
    labels: Vec<u64>,
}

/// A bounded-memory, integrity-checked store of party records.
///
/// `Send + Sync`: the LRU sits behind a `Mutex`, the counters are
/// atomics — the epoll runtime reads rosters from its metrics thread
/// while the driver thread selects from them.
pub struct RosterStore {
    backing: Backing,
    num_parties: usize,
    /// Records per segment (the build-time geometry; addressing needs
    /// it without touching any segment).
    cap: usize,
    /// Segments written to disk (spill mode: every segment, once, at
    /// build time).
    spilled: AtomicU64,
    /// Segment files read back and accepted — see [`RosterStore::loaded`].
    loaded: AtomicU64,
}

impl std::fmt::Debug for RosterStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RosterStore")
            .field("parties", &self.num_parties)
            .field("spilled", &self.spilled.load(Ordering::Relaxed))
            .field("loaded", &self.loaded.load(Ordering::Relaxed))
            .finish()
    }
}

/// Incrementally builds a [`RosterStore`] without ever holding more
/// than one segment of pending records — the only way to assemble a
/// million-party roster under a memory budget.
pub struct RosterBuilder {
    /// `None` → in-memory store; `Some` → spill directory and resident
    /// budget.
    spill: Option<(PathBuf, usize)>,
    segment_cap: usize,
    /// The segment being filled; spill mode seals it and reuses its
    /// columns for the next one.
    pending: FlatSegment,
    /// Completed segments (in-memory mode) — spill mode flushes to disk
    /// instead.
    done: Vec<FlatSegment>,
    written: u64,
    count: usize,
    /// The first segment write that failed (spill mode). The segment it
    /// left pending no longer fits the roster's geometry, so every later
    /// `push` and `finish` is refused with it.
    failed: Option<String>,
}

impl RosterBuilder {
    /// A builder whose store keeps every segment resident.
    pub fn in_memory() -> Self {
        RosterBuilder {
            spill: None,
            segment_cap: SEGMENT_PARTIES,
            pending: FlatSegment::default(),
            done: Vec::new(),
            written: 0,
            count: 0,
            failed: None,
        }
    }

    /// A builder that seals each full segment to a file under `dir` and
    /// whose store keeps at most `budget` segments resident (minimum 1).
    ///
    /// # Errors
    ///
    /// Fails if `dir` cannot be created.
    pub fn spilling(dir: impl Into<PathBuf>, budget: usize) -> Result<Self, FlError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| FlError::Codec(format!("cannot create roster dir {dir:?}: {e}")))?;
        Ok(RosterBuilder { spill: Some((dir, budget.max(1))), ..RosterBuilder::in_memory() })
    }

    /// Overrides the records-per-segment cap (tests exercise paging
    /// with small segments; production uses [`SEGMENT_PARTIES`]). The
    /// cap is the roster's addressing geometry, so it is fixed from the
    /// first [`RosterBuilder::push`] on.
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidConfig`] once a record has been pushed: it was
    /// placed under the old cap.
    pub fn segment_cap(mut self, cap: usize) -> Result<Self, FlError> {
        if self.count > 0 {
            return Err(FlError::InvalidConfig(format!(
                "segment cap cannot change after {} record(s) were pushed",
                self.count
            )));
        }
        self.segment_cap = cap.max(1);
        Ok(self)
    }

    /// Appends the next party's record (party ids are assigned densely
    /// in push order).
    ///
    /// # Errors
    ///
    /// Propagates segment-file write failures (spill mode); after one,
    /// every later call fails too.
    pub fn push(&mut self, record: PartyRecord) -> Result<(), FlError> {
        self.refuse_if_failed()?;
        self.pending.push(&record);
        self.count += 1;
        if self.pending.len() >= self.segment_cap {
            self.flush()?;
        }
        Ok(())
    }

    /// Finishes the roster and returns the store.
    ///
    /// # Errors
    ///
    /// Propagates segment-file write failures (spill mode), this call's
    /// or an earlier one's.
    pub fn finish(mut self) -> Result<RosterStore, FlError> {
        self.refuse_if_failed()?;
        if self.pending.len() > 0 {
            self.flush()?;
        }
        let backing = match self.spill {
            None => Backing::Memory(self.done),
            Some((dir, budget)) => Backing::Spill { dir, budget, cache: Box::default() },
        };
        Ok(RosterStore {
            backing,
            num_parties: self.count,
            cap: self.segment_cap,
            spilled: AtomicU64::new(self.written),
            loaded: AtomicU64::new(0),
        })
    }

    fn refuse_if_failed(&self) -> Result<(), FlError> {
        match &self.failed {
            Some(e) => Err(FlError::Codec(format!("roster builder failed earlier: {e}"))),
            None => Ok(()),
        }
    }

    fn flush(&mut self) -> Result<(), FlError> {
        match &self.spill {
            None => self.done.push(std::mem::take(&mut self.pending)),
            Some((dir, _)) => {
                let path = segment_path(dir, self.written as usize);
                if let Err(e) = std::fs::write(&path, seal_segment(&self.pending)) {
                    let failed = self.failed.insert(format!("cannot write segment {path:?}: {e}"));
                    return Err(FlError::Codec(failed.clone()));
                }
                self.written += 1;
                self.pending.clear();
            }
        }
        Ok(())
    }
}

fn segment_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("seg-{index:08}.flrs"))
}

impl RosterStore {
    /// Convenience: an in-memory store over pre-built records.
    pub fn from_records(records: Vec<PartyRecord>) -> Self {
        let mut b = RosterBuilder::in_memory();
        for r in records {
            b.push(r).expect("in-memory push cannot fail");
        }
        b.finish().expect("in-memory finish cannot fail")
    }

    /// Registered parties.
    pub fn num_parties(&self) -> usize {
        self.num_parties
    }

    /// Segments written to disk so far.
    pub fn spilled(&self) -> u64 {
        self.spilled.load(Ordering::Relaxed)
    }

    /// Segment files read back from disk and accepted so far: every
    /// page-in into the resident set (per-party and bulk column reads),
    /// and every segment [`RosterStore::visit_all`] streams, which never
    /// becomes resident. A refused file is not counted; an in-memory store
    /// reads none.
    pub fn loaded(&self) -> u64 {
        self.loaded.load(Ordering::Relaxed)
    }

    /// Segments currently resident in memory. In-memory stores report
    /// their full segment count; spill stores never exceed their
    /// budget — the memory-ceiling smoke asserts this at 10⁶ parties.
    pub fn resident_segments(&self) -> usize {
        match &self.backing {
            Backing::Memory(segments) => segments.len(),
            Backing::Spill { cache, .. } => cache.lock().expect("roster lock").resident.len(),
        }
    }

    /// Reads one party's record through the cache.
    ///
    /// # Errors
    ///
    /// Out-of-range ids, unreadable or tampered segment files.
    pub fn record(&self, party: PartyId) -> Result<PartyRecord, FlError> {
        if party >= self.num_parties {
            return Err(FlError::Codec(format!(
                "party {party} out of range for roster of {}",
                self.num_parties
            )));
        }
        let mut record = PartyRecord::default();
        self.with_segment(party / self.cap, |s| s.copy_record(party % self.cap, &mut record))?;
        Ok(record)
    }

    /// Runs `f` over segment `seg` where it is resident. Spill mode pages
    /// it in on a miss (evicting least-recently used down to the budget)
    /// and marks it most-recently used.
    fn with_segment<R>(&self, seg: usize, f: impl FnOnce(&FlatSegment) -> R) -> Result<R, FlError> {
        let (dir, budget, cache) = match &self.backing {
            Backing::Memory(segments) => return Ok(f(&segments[seg])),
            Backing::Spill { dir, budget, cache } => (dir, *budget, cache),
        };
        let mut cache = cache.lock().expect("roster lock");
        if let Some(segment) = cache.resident.get(&seg) {
            let out = f(segment);
            cache.touch(seg);
            return Ok(out);
        }
        // Into the spare where it sits: a refused file leaves it.
        let SegmentCache { file, spare, .. } = &mut *cache;
        self.load_segment(dir, seg, file, spare)?;
        let segment = std::mem::take(spare);
        let out = f(&segment);
        cache.insert(seg, segment, budget);
        Ok(out)
    }

    /// Streams every segment (and record) in party-id order through
    /// `visit`. Spill mode reads each segment file once, touching the
    /// cache for none of them — a full scan must not evict the working
    /// set the per-party path has warmed.
    ///
    /// # Errors
    ///
    /// Unreadable or tampered segment files.
    pub fn visit_all(&self, visit: &mut dyn FnMut(PartyId, &PartyRecord)) -> Result<(), FlError> {
        let (mut file, mut paged, mut record) = Default::default();
        for s in 0..self.num_parties.div_ceil(self.cap) {
            let segment = match &self.backing {
                Backing::Memory(segments) => &segments[s],
                Backing::Spill { dir, .. } => {
                    self.load_segment(dir, s, &mut file, &mut paged)?;
                    &paged
                }
            };
            for i in 0..segment.len() {
                segment.copy_record(i, &mut record);
                visit(s * self.cap + i, &record);
            }
        }
        Ok(())
    }

    /// One column of every record, in party-id order, through
    /// [`RosterStore::with_segment`] segment by segment, ascending — as
    /// reading each party through [`RosterStore::record`] does: a
    /// resident segment is touched, a missing one paged in (evicting
    /// least-recently used), so `loaded()`, the resident set and the LRU
    /// order come out as that walk leaves them, at one lock and one
    /// column copy per segment instead of one lookup per party.
    fn column<T: Copy>(&self, of_segment: fn(&FlatSegment) -> &[T]) -> Result<Vec<T>, FlError> {
        let mut out = Vec::with_capacity(self.num_parties);
        for seg in 0..self.num_parties.div_ceil(self.cap) {
            self.with_segment(seg, |s| out.extend_from_slice(of_segment(s)))?;
        }
        Ok(out)
    }

    /// Reads segment `seg`'s file through `file` into `into` (both
    /// reused: no allocation once they have grown to a segment's size).
    /// A checksum-valid file of the wrong length — another segment's,
    /// copied over this one — is refused here, so no read indexes past
    /// what was decoded.
    fn load_segment(
        &self,
        dir: &Path,
        seg: usize,
        file: &mut Vec<u8>,
        into: &mut FlatSegment,
    ) -> Result<(), FlError> {
        let path = segment_path(dir, seg);
        file.clear();
        std::fs::File::open(&path)
            .and_then(|mut f| f.read_to_end(file))
            .map_err(|e| FlError::Codec(format!("cannot read segment {path:?}: {e}")))?;
        unseal_segment(file, into)?;
        let expected = (self.num_parties - seg * self.cap).min(self.cap);
        if into.len() != expected {
            return Err(FlError::Codec(format!(
                "segment {path:?} holds {} records, the roster's geometry needs {expected}",
                into.len()
            )));
        }
        self.loaded.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl FlatSegment {
    fn len(&self) -> usize {
        self.data_size.len()
    }

    /// Record `i`'s label counts.
    fn labels(&self, i: usize) -> &[u64] {
        let start = if i == 0 { 0 } else { self.label_end[i - 1] };
        &self.labels[start..self.label_end[i]]
    }

    /// Copies record `i` into `into`, reusing its label buffer.
    fn copy_record(&self, i: usize, into: &mut PartyRecord) {
        into.data_size = self.data_size[i];
        into.latency_hint = self.latency[i];
        into.label_counts.clear();
        into.label_counts.extend_from_slice(self.labels(i));
    }

    /// Appends one record.
    fn push(&mut self, record: &PartyRecord) {
        self.data_size.push(record.data_size);
        self.latency.push(record.latency_hint);
        self.labels.extend_from_slice(&record.label_counts);
        self.label_end.push(self.labels.len());
    }

    /// Empties every column, keeping its capacity.
    fn clear(&mut self) {
        self.data_size.clear();
        self.latency.clear();
        self.label_end.clear();
        self.labels.clear();
    }
}

impl SegmentCache {
    /// Marks `seg` most-recently used.
    fn touch(&mut self, seg: usize) {
        if self.order.back() != Some(&seg) {
            self.order.retain(|&s| s != seg);
            self.order.push_back(seg);
        }
    }

    /// Inserts a freshly loaded segment, evicting least-recently used
    /// residents down to `budget`.
    fn insert(&mut self, seg: usize, segment: FlatSegment, budget: usize) {
        self.resident.insert(seg, segment);
        self.touch(seg);
        while self.resident.len() > budget {
            let Some(victim) = self.order.pop_front() else { break };
            if let Some(evicted) = self.resident.remove(&victim) {
                self.spare = evicted;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Segment codec (sealed in crate::format's integrity envelope).
// ---------------------------------------------------------------------

/// Magic tag of a sealed roster segment.
const SEGMENT_MAGIC: [u8; 4] = *b"FLRS";

fn seal_segment(segment: &FlatSegment) -> Vec<u8> {
    seal(SEGMENT_MAGIC, |out| encode_segment(out, segment))
}

fn unseal_segment(bytes: &[u8], into: &mut FlatSegment) -> Result<(), FlError> {
    decode_segment(unseal(bytes, SEGMENT_MAGIC, "roster segment")?, into)
}

/// Writes a segment from its columns, record by record: the count, then
/// each record's size, latency and `u64`-prefixed label counts.
fn encode_segment(out: &mut Vec<u8>, segment: &FlatSegment) {
    out.put_u64_le(segment.len() as u64);
    for i in 0..segment.len() {
        out.put_u64_le(segment.data_size[i]);
        out.put_f64_le(segment.latency[i]);
        put_vec(out, segment.labels(i), |out, &c| out.put_u64_le(c));
    }
}

/// Decodes a segment payload into `into`'s columns, replacing what they
/// held (on an error they hold a prefix, which no caller reads).
///
/// One walk over the payload: each record is a 24-byte head (size,
/// latency, label count) and its label words. Each column is reserved
/// once, the label column for the words a well-formed payload holds
/// once its heads are set aside.
fn decode_segment(payload: &[u8], into: &mut FlatSegment) -> Result<(), FlError> {
    into.clear();
    let FlatSegment { data_size, latency, label_end, labels } = into;
    let mut r = Reader::new(payload, "roster segment");
    // Each record is at least 24 bytes, each label count 8: a hostile
    // count is refused before anything is reserved for it.
    let records = r.len(24)?;
    data_size.reserve_exact(records);
    latency.reserve_exact(records);
    label_end.reserve_exact(records);
    labels.reserve_exact((r.remaining() - 24 * records) / 8);
    for _ in 0..records {
        let head = r.array::<24>()?;
        let word = |k: usize| u64::from_le_bytes(head[8 * k..8 * k + 8].try_into().expect("8"));
        data_size.push(word(0));
        latency.push(f64::from_bits(word(1)));
        let counts = r.count(word(2), 8)?;
        let (words, _) = r.bytes(8 * counts)?.as_chunks::<8>();
        labels.extend(words.iter().map(|&w| u64::from_le_bytes(w)));
        label_end.push(labels.len());
    }
    r.finish()
}

impl CandidateSource for RosterStore {
    fn num_parties(&self) -> usize {
        self.num_parties
    }

    fn data_sizes(&self) -> Result<Vec<u64>, SourceError> {
        Ok(self.column(|s| &s.data_size)?)
    }

    fn latency_hints(&self) -> Result<Vec<f64>, SourceError> {
        Ok(self.column(|s| &s.latency)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("flips-roster-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// `records` pushed into one segment, as the builder pushes them.
    fn flat(records: &[PartyRecord]) -> FlatSegment {
        let mut segment = FlatSegment::default();
        records.iter().for_each(|r| segment.push(r));
        segment
    }

    /// The production (columnar) decoders, read back as records.
    fn decode_segment(payload: &[u8]) -> Result<Vec<PartyRecord>, FlError> {
        let mut segment = FlatSegment::default();
        super::decode_segment(payload, &mut segment)?;
        let mut records = vec![PartyRecord::default(); segment.len()];
        records.iter_mut().enumerate().for_each(|(i, r)| segment.copy_record(i, r));
        Ok(records)
    }

    fn unseal_segment(bytes: &[u8]) -> Result<Vec<PartyRecord>, FlError> {
        decode_segment(unseal(bytes, SEGMENT_MAGIC, "roster segment")?)
    }

    /// The production (columnar) encoders, fed records.
    fn seal_segment(records: &[PartyRecord]) -> Vec<u8> {
        super::seal_segment(&flat(records))
    }

    fn encode_segment(records: &[PartyRecord]) -> Vec<u8> {
        let mut payload = Vec::new();
        super::encode_segment(&mut payload, &flat(records));
        payload
    }

    /// The record-at-a-time encoder segments had before they were
    /// columnar from `push` on — the oracle for the one above.
    fn encode_records(records: &[PartyRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        put_vec(&mut out, records, |out, r| {
            out.put_u64_le(r.data_size);
            out.put_f64_le(r.latency_hint);
            put_vec(out, &r.label_counts, |out, &c| out.put_u64_le(c));
        });
        out
    }

    /// The record-at-a-time decoder resident segments had before they
    /// were columnar — the oracle for the one above.
    fn decode_records(payload: &[u8]) -> Result<Vec<PartyRecord>, FlError> {
        let mut r = Reader::new(payload, "roster segment");
        let records = r.vec(24, |r| {
            Ok(PartyRecord {
                data_size: r.u64()?,
                latency_hint: r.f64()?,
                label_counts: r.vec(8, Reader::u64)?,
            })
        })?;
        r.finish()?;
        Ok(records)
    }

    fn sample_records(n: usize) -> Vec<PartyRecord> {
        (0..n)
            .map(|p| PartyRecord {
                data_size: 10 + p as u64,
                latency_hint: 0.25 + p as f64 * 0.01,
                label_counts: vec![p as u64 % 5, 3, p as u64],
            })
            .collect()
    }

    #[test]
    fn spilled_store_reads_back_identically() {
        let dir = test_dir("roundtrip");
        let records = sample_records(25);
        let flat = RosterStore::from_records(records.clone());
        let mut b = RosterBuilder::spilling(&dir, 2).unwrap().segment_cap(4).unwrap();
        for r in records.clone() {
            b.push(r).unwrap();
        }
        let spill = b.finish().unwrap();
        assert_eq!(spill.num_parties(), 25);
        assert_eq!(spill.spilled(), 7, "ceil(25/4) segments written");
        for (p, want) in records.iter().enumerate() {
            assert_eq!(&spill.record(p).unwrap(), want);
            assert_eq!(&flat.record(p).unwrap(), want);
        }
        let mut a = Vec::new();
        let mut bb = Vec::new();
        flat.visit_all(&mut |p, r| a.push((p, r.clone()))).unwrap();
        spill.visit_all(&mut |p, r| bb.push((p, r.clone()))).unwrap();
        assert_eq!(a, bb);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_cap_is_refused_once_a_record_is_pushed() {
        // A cap changed mid-build would re-address every record already
        // pushed, so both backings refuse it; before the first push the
        // last cap set is the geometry.
        let dir = test_dir("cap");
        let records = sample_records(6);
        let backings = || [RosterBuilder::in_memory(), RosterBuilder::spilling(&dir, 1).unwrap()];
        for builder in backings() {
            let mut b = builder.segment_cap(4).unwrap();
            for r in &records[..3] {
                b.push(r.clone()).unwrap();
            }
            match b.segment_cap(2) {
                Err(FlError::InvalidConfig(m)) => assert!(m.contains("3 record(s)"), "{m}"),
                other => panic!("expected InvalidConfig, got {:?}", other.map(drop)),
            }
        }
        for builder in backings() {
            let mut b = builder.segment_cap(2).unwrap().segment_cap(4).unwrap();
            for r in &records {
                b.push(r.clone()).unwrap();
            }
            let store = b.finish().unwrap();
            for (p, want) in records.iter().enumerate() {
                assert_eq!(&store.record(p).unwrap(), want, "party {p}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lru_respects_budget_and_counts_loads() {
        let dir = test_dir("lru");
        let mut b = RosterBuilder::spilling(&dir, 2).unwrap().segment_cap(2).unwrap();
        for r in sample_records(10) {
            b.push(r).unwrap();
        }
        let store = b.finish().unwrap();
        assert_eq!(store.resident_segments(), 0, "nothing resident before first read");
        for p in 0..10 {
            let _ = store.record(p).unwrap();
            assert!(store.resident_segments() <= 2, "budget violated at party {p}");
        }
        assert_eq!(store.loaded(), 5, "each of the 5 segments paged in once");
        // Re-reading an evicted segment pages it in again.
        let _ = store.record(0).unwrap();
        assert_eq!(store.loaded(), 6);
        // Re-reading a resident one does not.
        let _ = store.record(1).unwrap();
        assert_eq!(store.loaded(), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn full_scan_does_not_disturb_the_cache() {
        let dir = test_dir("scan");
        let mut b = RosterBuilder::spilling(&dir, 1).unwrap().segment_cap(2).unwrap();
        for r in sample_records(8) {
            b.push(r).unwrap();
        }
        let store = b.finish().unwrap();
        let _ = store.record(0).unwrap();
        let mut n = 0;
        store.visit_all(&mut |_, _| n += 1).unwrap();
        assert_eq!(n, 8);
        assert_eq!(store.resident_segments(), 1);
        // Segment 0 is still the resident one: no page-in on re-read.
        let before = store.loaded();
        let _ = store.record(1).unwrap();
        assert_eq!(store.loaded(), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_truncation_and_bit_flip_is_rejected() {
        let records = sample_records(3);
        let sealed = seal_segment(&records);
        // Sanity: the intact envelope opens.
        assert!(unseal_segment(&sealed).is_ok());
        for len in 0..sealed.len() {
            assert!(unseal_segment(&sealed[..len]).is_err(), "truncation to {len} bytes accepted");
        }
        for byte in 0..sealed.len() {
            let mut damaged = sealed.clone();
            damaged[byte] ^= 0x01;
            assert!(unseal_segment(&damaged).is_err(), "bit flip at byte {byte} accepted");
        }
    }

    fn two_records() -> Vec<PartyRecord> {
        vec![
            PartyRecord { data_size: 7, latency_hint: 0.5, label_counts: vec![1, 2] },
            PartyRecord { data_size: 300, latency_hint: -1.25, label_counts: vec![9] },
        ]
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One sealed two-record segment, byte for byte: a field moved in
    /// both the writer and the reader still fails here.
    #[test]
    fn sealed_segment_holds_its_golden_bytes() {
        let sealed = seal_segment(&two_records());
        let golden = concat!(
            "464c525302000000d6eb4f7c1a7c547a02000000000000000700000000000000",
            "000000000000e03f020000000000000001000000000000000200000000000000",
            "2c01000000000000000000000000f4bf01000000000000000900000000000000",
        );
        assert_eq!(hex(&sealed), golden);
        assert_eq!(unseal_segment(&sealed).unwrap(), two_records());
    }

    /// The same segment as the parent commit sealed it — version 1,
    /// FNV-1a — committed as a file: it still opens, to the same records,
    /// over the same payload bytes, and reseals as today's version 2.
    #[test]
    fn version_1_segment_fixture_still_opens_and_reseals_as_version_2() {
        let v1: &[u8] = include_bytes!("../tests/fixtures/two_records.v1.flrs");
        let golden = concat!(
            "464c525301000000362a185888e1d50902000000000000000700000000000000",
            "000000000000e03f020000000000000001000000000000000200000000000000",
            "2c01000000000000000000000000f4bf01000000000000000900000000000000",
        );
        assert_eq!(hex(v1), golden, "the fixture is the parent commit's golden");
        let records = unseal_segment(v1).unwrap();
        assert_eq!(records, two_records());
        let v2 = seal_segment(&records);
        assert_eq!(v2, seal_segment(&two_records()));
        assert_eq!(v2[16..], v1[16..], "versions differ in the header alone");
    }

    /// The golden two records, a ragged five (one empty and one
    /// nine-word label list) and the empty segment.
    fn codec_inputs() -> [Vec<PartyRecord>; 3] {
        let mut ragged = sample_records(5);
        ragged[1].label_counts.clear();
        ragged[4].label_counts = vec![u64::MAX; 9];
        [two_records(), ragged, Vec::new()]
    }

    #[test]
    fn column_encoder_writes_the_record_encoders_bytes() {
        for records in codec_inputs() {
            assert_eq!(encode_segment(&records), encode_records(&records), "{records:?}");
        }
    }

    #[test]
    fn columnar_decode_agrees_with_the_record_decoder_on_any_bytes() {
        for records in codec_inputs() {
            let payload = encode_segment(&records);
            assert_eq!(decode_segment(&payload).unwrap(), records);
            let agree = |bytes: &[u8], what: &dyn std::fmt::Display| {
                match (decode_segment(bytes), decode_records(bytes)) {
                    // Compared as bytes: a flipped latency may be a NaN.
                    (Ok(flat), Ok(reference)) => {
                        assert_eq!(encode_segment(&flat), encode_segment(&reference), "{what}")
                    }
                    (Err(_), Err(_)) => {}
                    (flat, reference) => panic!("{what}: {flat:?} against {reference:?}"),
                }
            };
            for len in 0..=payload.len() {
                agree(&payload[..len], &format_args!("truncation to {len}"));
            }
            // Unchecksummed, a flipped bit may still decode (a count
            // moves a boundary, a value changes): then to the same records.
            for bit in 0..payload.len() * 8 {
                let mut damaged = payload.clone();
                damaged[bit / 8] ^= 1 << (bit % 8);
                agree(&damaged, &format_args!("bit {bit} flipped"));
            }
        }
    }

    /// A production-size segment, with ragged label columns, paged in
    /// through a spilled store: every record as the record decoder reads
    /// the file, and the label column holding exactly its words.
    #[test]
    fn a_full_segment_pages_in_as_the_record_decoder_reads_it() {
        let dir = test_dir("full");
        let n = SEGMENT_PARTIES + 5;
        let records: Vec<PartyRecord> = (0..n)
            .map(|p| PartyRecord {
                data_size: p as u64 * 31 + 1,
                latency_hint: p as f64 / 7.0 - 100.0,
                label_counts: (0..[0, 1, 3, 9][p % 4]).map(|l| (p * 10 + l) as u64).collect(),
            })
            .collect();
        let mut b = RosterBuilder::spilling(&dir, 1).unwrap();
        for r in records.clone() {
            b.push(r).unwrap();
        }
        let store = b.finish().unwrap();
        let mut read = Vec::new();
        for seg in 0..2 {
            let sealed = std::fs::read(segment_path(&dir, seg)).unwrap();
            let oracle =
                decode_records(unseal(&sealed, SEGMENT_MAGIC, "roster segment").unwrap()).unwrap();
            let first = seg * SEGMENT_PARTIES;
            for (i, want) in oracle.iter().enumerate() {
                assert_eq!(&store.record(first + i).unwrap(), want, "party {}", first + i);
            }
            let Backing::Spill { cache, .. } = &store.backing else { unreachable!() };
            let labels = &cache.lock().unwrap().resident[&seg].labels;
            let words: usize = oracle.iter().map(|r| r.label_counts.len()).sum();
            assert_eq!((labels.len(), labels.capacity()), (words, words), "segment {seg}");
            read.extend(oracle);
        }
        assert_eq!(read, records);
        assert_eq!(store.loaded(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A checksum-valid file in the wrong place: the short last segment
    /// copied over a full one (and the reverse) used to index past the
    /// decoded records.
    #[test]
    fn a_segment_of_the_wrong_length_is_an_error_not_a_panic() {
        let dir = test_dir("swapped");
        let mut b = RosterBuilder::spilling(&dir, 2).unwrap().segment_cap(4).unwrap();
        for r in sample_records(10) {
            b.push(r).unwrap();
        }
        let store = b.finish().unwrap();
        let (full, short) = (segment_path(&dir, 0), segment_path(&dir, 2));
        let (full_bytes, short_bytes) =
            (std::fs::read(&full).unwrap(), std::fs::read(&short).unwrap());
        std::fs::write(&full, &short_bytes).unwrap();
        std::fs::write(&short, &full_bytes).unwrap();
        for party in [0, 3, 8, 9] {
            let err = store.record(party).unwrap_err();
            assert!(matches!(&err, FlError::Codec(m) if m.contains("geometry")), "{err}");
        }
        assert!(store.visit_all(&mut |_, _| {}).is_err());
        assert_eq!(store.record(5).unwrap(), sample_records(10)[5], "segment 1 is intact");
        assert_eq!(store.loaded(), 1, "a refused file is not a load");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A failed segment write used to leave the full segment pending:
    /// the next push grew it past the cap, `finish` returned `Ok`, and
    /// the store served a neighbour's record for a party's.
    #[test]
    fn a_failed_segment_write_poisons_the_builder() {
        let dir = test_dir("poison");
        let mut b = RosterBuilder::spilling(&dir, 2).unwrap().segment_cap(4).unwrap();
        let records = sample_records(12);
        for r in &records[..3] {
            b.push(r.clone()).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
        let err = b.push(records[3].clone()).unwrap_err();
        assert!(matches!(&err, FlError::Codec(m) if m.contains("cannot write segment")), "{err}");
        std::fs::create_dir_all(&dir).unwrap();
        for r in &records[4..] {
            let err = b.push(r.clone()).unwrap_err();
            assert!(matches!(&err, FlError::Codec(m) if m.contains("failed earlier")), "{err}");
        }
        let err = b.finish().unwrap_err();
        assert!(matches!(&err, FlError::Codec(m) if m.contains("cannot write segment")), "{err}");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "no segment written after");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A refused page-in used to drop the spare it had taken, so the
    /// next one allocated its columns afresh.
    #[test]
    fn a_refused_page_in_keeps_the_spare_columns_and_is_not_a_load() {
        let dir = test_dir("spare");
        let mut b = RosterBuilder::spilling(&dir, 1).unwrap().segment_cap(4).unwrap();
        for r in sample_records(12) {
            b.push(r).unwrap();
        }
        let store = b.finish().unwrap();
        let spare_capacity = || {
            let Backing::Spill { cache, .. } = &store.backing else { unreachable!() };
            let cache = cache.lock().unwrap();
            (cache.spare.data_size.capacity(), cache.spare.labels.capacity())
        };
        // Segment 1 evicts segment 0, whose columns become the spare.
        let _ = (store.record(0).unwrap(), store.record(4).unwrap());
        let before = spare_capacity();
        assert!(before.0 >= 4 && before.1 >= 12, "{before:?}");
        let path = segment_path(&dir, 2);
        let intact = std::fs::read(&path).unwrap();
        let mut damaged = intact.clone();
        damaged[20] ^= 0x40;
        std::fs::write(&path, &damaged).unwrap();
        assert!(store.record(8).is_err());
        assert_eq!(spare_capacity(), before, "the refused load dropped the spare");
        assert_eq!(store.loaded(), 2, "a refused file is not a load");
        std::fs::write(&path, &intact).unwrap();
        assert_eq!(store.record(8).unwrap(), sample_records(12)[8]);
        assert_eq!(store.loaded(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn decoder_rejects_hostile_counts_and_trailing_bytes() {
        // Impossible record count.
        let mut payload = Vec::new();
        payload.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_segment(&payload).is_err());
        // Impossible label count inside a record.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&5u64.to_le_bytes());
        payload.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
        payload.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_segment(&payload).is_err());
        // Trailing garbage after a valid record stream.
        let mut ok = encode_segment(&sample_records(2));
        ok.push(0);
        assert!(decode_segment(&ok).is_err());
    }

    /// The resident segments, least-recently used first.
    fn lru(store: &RosterStore) -> Vec<usize> {
        let Backing::Spill { cache, .. } = &store.backing else { unreachable!() };
        let cache = cache.lock().unwrap();
        let mut resident: Vec<usize> = cache.resident.keys().copied().collect();
        resident.sort_unstable();
        let mut order: Vec<usize> = cache.order.iter().copied().collect();
        order.sort_unstable();
        assert_eq!(resident, order, "the LRU lists exactly the resident segments");
        cache.order.iter().copied().collect()
    }

    /// A bulk read gives each party's value and leaves the cache as the
    /// per-party walk it replaces leaves it: the same `loaded()` count,
    /// resident segments and LRU order, from a cold cache and from warm
    /// ones (a resident segment first, last or in the middle).
    #[test]
    fn bulk_reads_leave_the_cache_as_the_per_party_walk_does() {
        let records: Vec<PartyRecord> = sample_records(27);
        let spill = |name: &str| {
            let mut b = RosterBuilder::spilling(test_dir(name), 3).unwrap().segment_cap(4).unwrap();
            for r in records.clone() {
                b.push(r).unwrap();
            }
            b.finish().unwrap()
        };
        let sizes: Vec<u64> = records.iter().map(|r| r.data_size).collect();
        let bits = |l: &[f64]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let hints: Vec<f64> = records.iter().map(|r| r.latency_hint).collect();
        let flat = RosterStore::from_records(records.clone());
        assert_eq!(flat.data_sizes().unwrap(), sizes);
        assert_eq!(bits(&flat.latency_hints().unwrap()), bits(&hints));
        for (case, warm) in [&[][..], &[0], &[26], &[9, 2, 20], &[5, 25, 13, 1]].iter().enumerate()
        {
            let (walked, bulk) = (spill(&format!("walk-{case}")), spill(&format!("bulk-{case}")));
            for store in [&walked, &bulk] {
                for &p in warm.iter() {
                    store.record(p).unwrap();
                }
            }
            let by_party = |f: fn(PartyRecord) -> u64| {
                (0..records.len()).map(|p| f(walked.record(p).unwrap())).collect::<Vec<_>>()
            };
            assert_eq!(by_party(|r| r.latency_hint.to_bits()), bits(&hints), "case {case}");
            assert_eq!(bits(&bulk.latency_hints().unwrap()), bits(&hints), "case {case}");
            assert_eq!((bulk.loaded(), lru(&bulk)), (walked.loaded(), lru(&walked)), "case {case}");
            assert_eq!(by_party(|r| r.data_size), sizes, "case {case}");
            assert_eq!(bulk.data_sizes().unwrap(), sizes, "case {case}");
            assert_eq!((bulk.loaded(), lru(&bulk)), (walked.loaded(), lru(&walked)), "case {case}");
            for store in [walked, bulk] {
                let Backing::Spill { dir, .. } = &store.backing else { unreachable!() };
                std::fs::remove_dir_all(dir).unwrap();
            }
        }
    }

    /// A bit-flipped segment used to panic inside the roster reads that
    /// build TiFL's tiers and Oort's sample counts; the bulk reads refuse
    /// it, and so do both `from_source`s.
    #[test]
    fn a_tampered_segment_fails_selector_construction_without_a_panic() {
        use flips_selection::oort::{OortConfig, OortSelector};
        use flips_selection::tifl::{TiflConfig, TiflSelector};
        let dir = test_dir("tampered");
        let mut b = RosterBuilder::spilling(&dir, 2).unwrap().segment_cap(4).unwrap();
        for r in sample_records(10) {
            b.push(r).unwrap();
        }
        let store = b.finish().unwrap();
        let path = segment_path(&dir, 1);
        let mut damaged = std::fs::read(&path).unwrap();
        damaged[30] ^= 0x08;
        std::fs::write(&path, &damaged).unwrap();
        assert!(store.latency_hints().is_err());
        assert!(store.data_sizes().is_err());
        let err = TiflSelector::from_source(&store, TiflConfig::default(), 1).unwrap_err();
        assert!(err.to_string().contains("cannot read the roster"), "{err}");
        let err = OortSelector::from_source(&store, OortConfig::default(), 1).unwrap_err();
        assert!(err.to_string().contains("cannot read the roster"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_range_party_errors() {
        let store = RosterStore::from_records(sample_records(3));
        assert!(store.record(3).is_err());
        assert!(store.record(2).is_ok());
    }

    #[test]
    fn empty_roster_is_valid() {
        let store = RosterBuilder::in_memory().finish().unwrap();
        assert_eq!(store.num_parties(), 0);
        assert_eq!(store.resident_segments(), 0);
        let mut n = 0;
        store.visit_all(&mut |_, _| n += 1).unwrap();
        assert_eq!(n, 0);
    }
}
