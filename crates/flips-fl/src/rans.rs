//! A static-model range asymmetric numeral system (rANS) coder over
//! byte streams — the entropy stage behind
//! [`ModelCodec::DeltaEntropy`](crate::codec::ModelCodec::DeltaEntropy).
//!
//! PR 4's zero-RLE removes the all-zero runs of the shuffled XOR-delta
//! planes but transmits every literal byte at full width; the literals
//! are heavily skewed (low-mantissa churn concentrates a few byte
//! values), which is exactly the regime a static entropy coder wins in.
//! This module is a from-scratch byte-wise rANS (the build environment
//! has no compression crates): one frequency model per encoded block,
//! 12-bit quantization, 32-bit state with byte renormalization.
//!
//! ## Stream layout
//!
//! ```text
//! ┌────────────┬──────────────────────┬────────────┬────────────┐
//! │ bitmap: 32 │ u16 freq × present   │ state: u32 │ renorm …   │
//! └────────────┴──────────────────────┴────────────┴────────────┘
//! ```
//!
//! - `bitmap` — 256-bit presence map (bit `s` of byte `s / 8` set iff
//!   symbol `s` occurs); the frequency list that follows covers present
//!   symbols in ascending order.
//! - `freq` — quantized frequencies, each ≥ 1, summing to exactly
//!   `M = 4096` (validated on decode; any other sum is rejected before
//!   a single symbol is decoded).
//! - `state` — the encoder's final state, which is the decoder's
//!   *initial* state (rANS runs the two directions in opposite symbol
//!   order; the encoder walks the input backwards so the decoder emits
//!   forwards).
//! - `renorm` — the renormalization bytes, already reversed into decode
//!   order.
//!
//! ## How the work is ordered
//!
//! The layout fixes bytes, not the order they are produced in, and the
//! coder leans on that (a port need not — see `docs/WIRE.md` § 5.6):
//!
//! - **Lockstep planes.** A container is four independent streams, and
//!   one stream is one serial chain of state updates. `encode_planes`
//!   and `decode_planes` step every multi-symbol plane once per index
//!   in a single loop, so up to four chains are in flight at a time.
//! - **No division.** The encoder's `x / f` and `x % f` are a
//!   multiply-high against a per-symbol reciprocal, exact for the 31-bit
//!   state (`EncSym::new` carries the proof); the decoder reads
//!   symbol, frequency and offset from one packed word per slot.
//! - **Single-symbol planes skip the loop.** At frequency `M` a step maps
//!   every state to itself, so such a stream is its header and `L`: the
//!   encoder writes that, and the decoder — after the same header, state
//!   and length checks the loop would end on — fills the plane. Four
//!   all-zero planes, a same-round rebroadcast's delta, are one fixed
//!   byte string (`encode_zero_planes`): written, and recognized by the
//!   codec layer, without touching a plane.
//!
//! ## Hostile-input posture
//!
//! Decoding never panics and never loops: the caller states the exact
//! expected output length, byte exhaustion mid-renormalization is an
//! error, and a decode must end with the stream fully consumed and the
//! state back at `RANS_L` (the encoder's start state) — a cheap
//! integrity check that catches most truncations and bit flips outright.
//! A corruption that survives all checks decodes to *some* byte string,
//! exactly like a corrupted RLE stream: payload bits are not
//! self-describing, and the protocol layers above decide what a decoded
//! model is allowed to touch.

use crate::FlError;

/// Frequency quantization: all symbol frequencies sum to `1 << SCALE_BITS`.
pub(crate) const SCALE_BITS: u32 = 12;
/// The quantization total `M`.
pub(crate) const M: u32 = 1 << SCALE_BITS;
/// Lower bound of the normalized state interval `[L, 256·L)`.
pub(crate) const RANS_L: u32 = 1 << 23;
/// Bytes of the presence bitmap.
const BITMAP_BYTES: usize = 32;
/// Per-plane container kind: rANS-coded body.
const KIND_RANS: u8 = 0;
/// Per-plane container kind: raw body (the rANS stream would have been
/// at least as large — near-uniform planes).
const KIND_RAW: u8 = 1;
/// Planes per container: the four bytes of an `f32` delta.
const PLANES: usize = 4;

/// Grow-only coder scratch, owned by the
/// [`PayloadCodec`](crate::codec::PayloadCodec) so steady-state coding
/// allocates nothing: the encoder's renorm bytes and symbol tables, the
/// decoder's slot tables.
#[derive(Default)]
pub(crate) struct Scratch {
    /// One region per plane; renorm bytes are written back to front.
    renorm: Vec<u8>,
    /// One table per plane.
    enc: Vec<[EncSym; 256]>,
    /// One table per plane.
    dec: Vec<[u32; M as usize]>,
}

/// Symbol counts of `src`. Four sub-tables, because the delta planes
/// are zero-heavy and a single table serializes every increment of the
/// hot counter behind the store before it.
fn histogram(src: &[u8]) -> [u32; 256] {
    let mut sub = [[0u32; 256]; 4];
    let mut quads = src.chunks_exact(4);
    for q in &mut quads {
        for (t, &b) in sub.iter_mut().zip(q) {
            t[b as usize] += 1;
        }
    }
    for &b in quads.remainder() {
        sub[0][b as usize] += 1;
    }
    let [mut counts, b, c, d] = sub;
    for s in 0..256 {
        counts[s] += b[s] + c[s] + d[s];
    }
    counts
}

/// Quantizes `counts` (summing to `total > 0`) to frequencies with
/// `freq[s] ≥ 1` for every occurring symbol, 0 otherwise, summing to
/// exactly [`M`].
///
/// Deterministic: quantize proportionally (clamped up to 1), then repair
/// the rounding drift against the most frequent symbols, ties broken by
/// ascending symbol value.
fn quantize(counts: &[u32; 256], total: usize) -> [u16; 256] {
    let mut freqs = [0u16; 256];
    let mut sum: i64 = 0;
    for s in 0..256 {
        if counts[s] == 0 {
            continue;
        }
        let f = ((u64::from(counts[s]) * u64::from(M)) / total as u64).clamp(1, u64::from(M) - 1);
        freqs[s] = f as u16;
        sum += f as i64;
    }
    // Repair drift. Underflow goes to the single most frequent symbol;
    // overflow is shaved off the largest quantized frequencies (each can
    // give up `f - 1`, and 256 symbols at freq 1 sum to 256 < M, so the
    // loop always terminates).
    while sum != i64::from(M) {
        let (s, _) = freqs
            .iter()
            .enumerate()
            .max_by_key(|&(s, &f)| (f, std::cmp::Reverse(s)))
            .expect("non-empty table");
        if sum < i64::from(M) {
            let add = i64::from(M) - sum;
            freqs[s] = (i64::from(freqs[s]) + add) as u16;
            sum += add;
        } else {
            let give = (sum - i64::from(M)).min(i64::from(freqs[s]) - 1);
            freqs[s] = (i64::from(freqs[s]) - give) as u16;
            sum -= give;
        }
    }
    freqs
}

/// One symbol's encoder constants: the step
/// `x ← ((x / f) << SCALE_BITS) + x % f + start` becomes
/// `x + bias + q·cmpl_freq` with `q = ((x·rcp_freq) >> 32) >> rcp_shift`
/// — a multiply-high where there were a `div` and a `rem`.
#[derive(Clone, Copy, Default)]
struct EncSym {
    /// Renormalize while the state is at or above this.
    x_max: u32,
    rcp_freq: u32,
    bias: u32,
    /// `M − f`.
    cmpl_freq: u16,
    rcp_shift: u16,
}

impl EncSym {
    /// Constants for a symbol of frequency `freq ∈ 1..=M` whose slots
    /// begin at `start`.
    ///
    /// With `s = ⌈log₂ f⌉` and `rcp = ⌈2^(31+s) / f⌉`, the error
    /// `e = rcp·f − 2^(31+s)` is below `f ≤ 2^s`, so
    /// `x·rcp / 2^(31+s) = x/f + x·e / (f·2^(31+s))` exceeds `x/f` by
    /// less than `1/f` **as long as `x < 2³¹`** — then the floors agree
    /// and `q` is exactly `x / f`. The bound holds at every step: the
    /// state lives in `[L, 256·L) = [2²³, 2³¹)`, and renormalization
    /// runs first and leaves `x < x_max = 2¹⁹·f ≤ 2³¹`. (`rcp` fits 32
    /// bits because `f > 2^(s−1)`.) `f = 1` has no such reciprocal:
    /// `rcp = 2³² − 1` gives `q = x − 1`, and the bias makes up the
    /// difference — `x + (start + M − 1) + (x − 1)(M − 1) = x·M + start`.
    fn new(start: u32, freq: u32) -> EncSym {
        debug_assert!((1..=M).contains(&freq) && start + freq <= M);
        let x_max = ((RANS_L >> SCALE_BITS) << 8) * freq;
        let cmpl_freq = (M - freq) as u16;
        if freq == 1 {
            return EncSym {
                x_max,
                rcp_freq: u32::MAX,
                bias: start + M - 1,
                cmpl_freq,
                rcp_shift: 0,
            };
        }
        let shift = 32 - (freq - 1).leading_zeros();
        let rcp_freq = (1u64 << (shift + 31)).div_ceil(u64::from(freq));
        EncSym {
            x_max,
            rcp_freq: rcp_freq as u32,
            bias: start,
            cmpl_freq,
            rcp_shift: (shift - 1) as u16,
        }
    }

    /// `x / f` for `x < 2³¹` (`x − 1` at `f = 1`).
    #[inline(always)]
    fn quotient(&self, x: u32) -> u32 {
        ((u64::from(x) * u64::from(self.rcp_freq)) >> 32) as u32 >> self.rcp_shift
    }

    /// The encoder step for a renormalized state (`x < x_max`).
    #[inline(always)]
    fn step(&self, x: u32) -> u32 {
        x + self.bias + self.quotient(x) * u32::from(self.cmpl_freq)
    }
}

/// Upper bound on one plane's renorm bytes, plus the two bytes of
/// headroom the encoder's unconditional stores need. A step grows the
/// state by at most `log₂(M/f) ≤ 12` bits plus a rounding excess below
/// `log₂(1 + 2⁻¹¹)` (the renormalized state is at least `2¹¹·f`), and
/// the state itself stays within `[2²³, 2³¹)`: `n` symbols emit at most
/// `(12·n + n/1024 + 8) / 8` bytes.
fn renorm_cap(n: usize) -> usize {
    n + n / 2 + n / 4096 + 4
}

/// The indices of the `K` set flags of `live`, ascending.
fn live_ids<const K: usize>(live: [bool; PLANES]) -> [usize; K] {
    let mut ids = (0..PLANES).filter(|&p| live[p]);
    std::array::from_fn(|_| ids.next().expect("K live planes"))
}

/// Encodes the `K` live planes in lockstep, one symbol of each per
/// index, last symbol first (the decoder emits forwards): the planes are
/// independent streams, so their serial state chains overlap. Returns
/// every plane's final state and where in its `cap`-byte region of
/// `renorm` its bytes begin (an untouched `(L, cap)` for the others).
fn encode_lanes<const K: usize>(
    planes: [&[u8]; PLANES],
    live: [bool; PLANES],
    enc: &[[EncSym; 256]; PLANES],
    renorm: &mut [u8],
    cap: usize,
) -> [(u32, usize); PLANES] {
    let ids: [usize; K] = live_ids(live);
    let n = planes[0].len();
    // Equal lengths and one base per table and per buffer: the loop
    // below then keeps the `K` states and cursors in registers.
    let src = ids.map(|p| &planes[p][..n]);
    let tabs = ids.map(|p| &enc[p]);
    let renorm = &mut renorm[..PLANES * cap];
    let mut xs = [RANS_L; K];
    let mut ats = ids.map(|p| (p + 1) * cap);
    for i in (0..n).rev() {
        for k in 0..K {
            let (x, at) = (xs[k], ats[k]);
            let e = &tabs[k][src[k][i] as usize];
            // A 31-bit state sheds at most two bytes before it is below
            // `x_max ≥ 2¹⁹`. Both are stored unconditionally and the
            // cursor moves by the count: no data-dependent branch.
            let window = &mut renorm[at - 2..at];
            window[1] = x as u8;
            window[0] = (x >> 8) as u8;
            let shed = usize::from(x >= e.x_max) + usize::from((x >> 8) >= e.x_max);
            xs[k] = e.step(x >> (8 * shed));
            ats[k] = at - shed;
        }
    }
    let mut ends = [(RANS_L, cap); PLANES];
    for k in 0..K {
        ends[ids[k]] = (xs[k], ats[k] - ids[k] * cap);
    }
    ends
}

/// Appends one rANS plane block — container header, stream header,
/// `state`, `renorm` — unless it would not undercut the `n` raw bytes;
/// returns whether it did.
fn put_stream(freqs: &[u16; 256], state: u32, renorm: &[u8], n: usize, out: &mut Vec<u8>) -> bool {
    let present = freqs.iter().filter(|&&f| f != 0).count();
    let len = BITMAP_BYTES + 2 * present + 4 + renorm.len();
    if len >= n {
        return false;
    }
    out.push(KIND_RANS);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    let mut bitmap = [0u8; BITMAP_BYTES];
    for s in 0..256 {
        if freqs[s] != 0 {
            bitmap[s / 8] |= 1 << (s % 8);
        }
    }
    out.extend_from_slice(&bitmap);
    for &f in freqs.iter().filter(|&&f| f != 0) {
        out.extend_from_slice(&f.to_le_bytes());
    }
    out.extend_from_slice(&state.to_le_bytes());
    out.extend_from_slice(renorm);
    true
}

/// Encodes the four byte-shuffled delta planes of `planes` (4·n bytes,
/// `n > 0` — the codec layer falls back to its inline mode before ever
/// encoding an empty plane buffer) as four independent
/// `(kind: u8, len: u32, body)` blocks appended to `out`.
///
/// One frequency model per plane is the load-bearing choice: the
/// sign/exponent planes of an SGD-scale delta are almost entirely zero
/// while the low-mantissa plane is near-uniform, and a shared model
/// would charge every literal for the zeros' probability mass. A plane
/// whose rANS stream does not beat its raw size ships raw (`KIND_RAW`),
/// so the whole container is bounded by `4·n + 20` bytes — the codec
/// layer's inline fallback triggers before that ever reaches the wire.
pub(crate) fn encode_planes(planes: &[u8], n: usize, scratch: &mut Scratch, out: &mut Vec<u8>) {
    debug_assert!(n > 0 && planes.len() == PLANES * n, "rANS planes are never empty");
    let plane = |p: usize| &planes[p * n..(p + 1) * n];
    let cap = renorm_cap(n);
    scratch.renorm.resize(PLANES * cap, 0);
    scratch.enc.resize_with(PLANES, || [EncSym::default(); 256]);

    // A single-symbol plane (frequency `M`) never moves the state and
    // emits no byte: only multi-symbol planes run the coder.
    let mut freqs = [[0u16; 256]; PLANES];
    let mut live = [false; PLANES];
    for p in 0..PLANES {
        freqs[p] = quantize(&histogram(plane(p)), n);
        live[p] = u32::from(freqs[p][plane(p)[0] as usize]) != M;
        if live[p] {
            let mut start = 0;
            for (e, &f) in scratch.enc[p].iter_mut().zip(&freqs[p]) {
                if f != 0 {
                    *e = EncSym::new(start, u32::from(f));
                    start += u32::from(f);
                }
            }
        }
    }

    let all = std::array::from_fn(plane);
    let enc = <&[_; PLANES]>::try_from(&scratch.enc[..]).expect("one table per plane");
    let renorm = &mut scratch.renorm[..];
    let ends = match live.iter().filter(|&&l| l).count() {
        0 => [(RANS_L, cap); PLANES],
        1 => encode_lanes::<1>(all, live, enc, renorm, cap),
        2 => encode_lanes::<2>(all, live, enc, renorm, cap),
        3 => encode_lanes::<3>(all, live, enc, renorm, cap),
        _ => encode_lanes::<4>(all, live, enc, renorm, cap),
    };
    for p in 0..PLANES {
        let (state, at) = ends[p];
        let renorm = &scratch.renorm[p * cap + at..(p + 1) * cap];
        if !put_stream(&freqs[p], state, renorm, n, out) {
            out.push(KIND_RAW);
            out.extend_from_slice(&(n as u32).to_le_bytes());
            out.extend_from_slice(plane(p));
        }
    }
}

/// Appends the container [`encode_planes`] produces for `4·n` zero
/// bytes, in O(1): four single-symbol streams (or, below the stream's
/// own 38 bytes, four raw runs of zeros). No other byte string decodes
/// to all zeros through four rANS planes, so a receiver can recognize a
/// rebroadcast by comparing against it.
pub(crate) fn encode_zero_planes(n: usize, out: &mut Vec<u8>) {
    let mut freqs = [0u16; 256];
    freqs[0] = M as u16;
    for _ in 0..PLANES {
        if !put_stream(&freqs, RANS_L, &[], n, out) {
            out.push(KIND_RAW);
            out.extend_from_slice(&(n as u32).to_le_bytes());
            out.resize(out.len() + n, 0);
        }
    }
}

/// One parsed plane of a container.
#[derive(Clone, Copy)]
enum Body<'a> {
    /// Shipped raw: exactly `n` bytes.
    Raw(&'a [u8]),
    /// A single-symbol stream that passed every end-of-stream check.
    Fill(u8),
    /// A multi-symbol stream: the initial state and the renorm bytes
    /// (its slot table is built).
    Lane { state: u32, stream: &'a [u8] },
}

/// Splits the next plane block off `src` and validates everything that
/// precedes its first symbol: the container header, and for a rANS body
/// the frequency header (filling `slots`, the plane's
/// `slot → sym | freq << 8 | (slot − start) << 20` table) and the state.
///
/// A single-symbol stream is settled here, without a symbol loop: at
/// frequency `M` the decode step maps every state to itself, so the
/// loop would only carry the initial state to the same three checks —
/// inside the interval, no renorm bytes, equal to `L`.
fn parse_plane<'a>(
    src: &mut &'a [u8],
    n: usize,
    slots: &mut [u32; M as usize],
) -> Result<Body<'a>, FlError> {
    if src.len() < 5 {
        return Err(FlError::Codec("truncated plane header".into()));
    }
    let kind = src[0];
    let len = u32::from_le_bytes(src[1..5].try_into().expect("4 bytes")) as usize;
    if len > src.len() - 5 {
        return Err(FlError::Codec("plane body exceeds the stream".into()));
    }
    let (body, rest) = src[5..].split_at(len);
    *src = rest;
    match kind {
        KIND_RAW if len == n => return Ok(Body::Raw(body)),
        KIND_RAW => return Err(FlError::Codec(format!("raw plane of {len} bytes, need {n}"))),
        KIND_RANS => {}
        other => return Err(FlError::Codec(format!("unknown plane kind {other}"))),
    }

    if body.len() < BITMAP_BYTES {
        return Err(FlError::Codec("rANS header shorter than its bitmap".into()));
    }
    let (bitmap, rest) = body.split_at(BITMAP_BYTES);
    let present: usize = bitmap.iter().map(|b| b.count_ones() as usize).sum();
    if present == 0 || rest.len() < 2 * present + 4 {
        return Err(FlError::Codec("truncated rANS frequency table".into()));
    }
    let (freq_bytes, stream) = rest.split_at(2 * present);
    let mut freq_bytes = freq_bytes.chunks_exact(2);
    let mut acc: u32 = 0;
    let mut last = 0u8;
    for s in 0..256usize {
        if bitmap[s / 8] & (1 << (s % 8)) == 0 {
            continue;
        }
        let f = freq_bytes.next().expect("two bytes per present symbol");
        let f = u32::from(u16::from_le_bytes([f[0], f[1]]));
        if f == 0 || f > M - acc {
            return Err(FlError::Codec("rANS frequencies exceed the quantization total".into()));
        }
        // A single-symbol stream never reads its table (and 12 bits
        // could not hold its `f = M`).
        if present > 1 {
            for (bias, slot) in slots[acc as usize..(acc + f) as usize].iter_mut().enumerate() {
                *slot = s as u32 | f << 8 | (bias as u32) << 20;
            }
        }
        acc += f;
        last = s as u8;
    }
    if acc != M {
        return Err(FlError::Codec(format!("rANS frequencies sum to {acc}, need {M}")));
    }

    let (state, stream) = stream.split_at(4);
    let state = u32::from_le_bytes(state.try_into().expect("4 bytes"));
    if state < RANS_L {
        return Err(FlError::Codec("rANS state below the normalized interval".into()));
    }
    if present > 1 {
        return Ok(Body::Lane { state, stream });
    }
    end_of_stream(state, stream.len())?;
    Ok(Body::Fill(last))
}

/// The checks every stream ends on: fully consumed, state back at the
/// encoder's start state.
fn end_of_stream(state: u32, unread: usize) -> Result<(), FlError> {
    if unread != 0 {
        return Err(FlError::Codec("trailing bytes after the rANS stream".into()));
    }
    if state != RANS_L {
        return Err(FlError::Codec("rANS stream did not end at the start state".into()));
    }
    Ok(())
}

/// Decodes the `K` live planes in lockstep — `lanes` holds each one's
/// initial state and renorm bytes, `dec` its slot table — into their
/// planes of `outs`, then runs each lane's end-of-stream checks. Stops
/// at the first failure it meets, which with `K > 1` need not be the
/// lowest-numbered failing plane's.
fn decode_lanes<const K: usize>(
    lanes: &[(u32, &[u8]); PLANES],
    live: [bool; PLANES],
    dec: &[[u32; M as usize]; PLANES],
    outs: &mut [&mut [u8]; PLANES],
) -> Result<(), FlError> {
    let ids: [usize; K] = live_ids(live);
    let tabs = ids.map(|p| &dec[p]);
    let (mut xs, streams) = (ids.map(|p| lanes[p].0), ids.map(|p| lanes[p].1));
    let mut dsts = outs.iter_mut().zip(live).filter(|o| o.1).map(|o| &mut **o.0);
    let dsts: [&mut [u8]; K] =
        std::array::from_fn(|_| dsts.next().expect("one output plane per live lane"));
    let mut ats = [0usize; K];
    for i in 0..dsts[0].len() {
        for k in 0..K {
            let e = tabs[k][(xs[k] & (M - 1)) as usize];
            dsts[k][i] = e as u8;
            let mut x = ((e >> 8) & (M - 1)) * (xs[k] >> SCALE_BITS) + (e >> 20);
            while x < RANS_L {
                let Some(&b) = streams[k].get(ats[k]) else {
                    return Err(FlError::Codec("rANS stream exhausted mid-symbol".into()));
                };
                ats[k] += 1;
                x = (x << 8) | u32::from(b);
            }
            xs[k] = x;
        }
    }
    for k in 0..K {
        end_of_stream(xs[k], streams[k].len() - ats[k])?;
    }
    Ok(())
}

/// Decodes a container produced by [`encode_planes`] into exactly
/// `4·n` bytes, replacing `out`.
///
/// All four planes are parsed first; the multi-symbol ones are then
/// decoded in lockstep. Errors are reported as a plane-by-plane decoder
/// would meet them: the lowest-numbered bad plane's, whatever order the
/// lockstep loop found them in.
///
/// # Errors
///
/// [`FlError::Codec`] on truncation, an unknown plane kind, a
/// wrong-length raw plane, trailing bytes, or any per-plane rANS
/// failure: a malformed header (truncation, frequency sum ≠ `M`), a
/// state below the normalized interval, byte exhaustion mid-stream,
/// trailing bytes, or a final state other than the encoder's start
/// state.
pub(crate) fn decode_planes(
    mut src: &[u8],
    n: usize,
    scratch: &mut Scratch,
    out: &mut Vec<u8>,
) -> Result<(), FlError> {
    scratch.dec.resize_with(PLANES, || [0; M as usize]);
    let mut bodies = [Body::Fill(0); PLANES];
    let mut parsed = 0;
    let mut bad = None;
    for slots in &mut scratch.dec {
        match parse_plane(&mut src, n, slots) {
            Ok(body) => bodies[parsed] = body,
            Err(e) => {
                bad = Some(e);
                break;
            }
        }
        parsed += 1;
    }
    if bad.is_none() && !src.is_empty() {
        bad = Some(FlError::Codec("trailing bytes after the plane container".into()));
    }

    // The planes before the first unparseable one still decode: a bad
    // stream among them is the error a plane-by-plane decoder reports.
    out.resize(PLANES * n, 0);
    let (lo, hi) = out.split_at_mut(2 * n);
    let ((p0, p1), (p2, p3)) = (lo.split_at_mut(n), hi.split_at_mut(n));
    let mut outs = [p0, p1, p2, p3];
    let mut live = [false; PLANES];
    let mut lanes: [(u32, &[u8]); PLANES] = [(RANS_L, &[]); PLANES];
    for p in 0..parsed {
        match bodies[p] {
            Body::Raw(bytes) => outs[p].copy_from_slice(bytes),
            Body::Fill(sym) => outs[p].fill(sym),
            Body::Lane { state, stream } => (live[p], lanes[p]) = (true, (state, stream)),
        }
    }
    let dec = <&[_; PLANES]>::try_from(&scratch.dec[..]).expect("one table per plane");
    let lockstep = match live.iter().filter(|&&l| l).count() {
        0 => Ok(()),
        1 => decode_lanes::<1>(&lanes, live, dec, &mut outs),
        2 => decode_lanes::<2>(&lanes, live, dec, &mut outs),
        3 => decode_lanes::<3>(&lanes, live, dec, &mut outs),
        _ => decode_lanes::<4>(&lanes, live, dec, &mut outs),
    };
    if lockstep.is_err() {
        // Whichever lane tripped first by index: rerun them one at a
        // time for the lowest-numbered plane's error.
        for p in (0..PLANES).filter(|&p| live[p]) {
            let only = std::array::from_fn(|q| q == p);
            decode_lanes::<1>(&lanes, only, dec, &mut outs)?;
        }
    }
    lockstep?;
    bad.map_or(Ok(()), Err)
}

/// The coder as it stood before the lockstep rewrite: one plane at a
/// time, a `div` and a `rem` per symbol, a symbol loop even where the
/// stream is a single symbol. Kept verbatim as the oracle the production
/// coder is compared against — byte for byte on encode; accept set,
/// output and error on decode.
#[cfg(test)]
pub(crate) mod reference {
    use super::{FlError, BITMAP_BYTES, KIND_RANS, KIND_RAW, M, RANS_L, SCALE_BITS};

    /// Builds the quantized frequency table of `src`: `freq[s] ≥ 1` for
    /// every occurring symbol, 0 otherwise, summing to exactly [`M`].
    ///
    /// Deterministic: quantize proportionally (clamped up to 1), then repair
    /// the rounding drift against the most frequent symbols, ties broken by
    /// ascending symbol value.
    fn build_freqs(src: &[u8]) -> [u16; 256] {
        let mut counts = [0u64; 256];
        for &b in src {
            counts[b as usize] += 1;
        }
        let total = src.len() as u64;
        let mut freqs = [0u16; 256];
        let mut sum: i64 = 0;
        for s in 0..256 {
            if counts[s] == 0 {
                continue;
            }
            let f = ((counts[s] * u64::from(M)) / total).clamp(1, u64::from(M) - 1) as u16;
            freqs[s] = f;
            sum += i64::from(f);
        }
        // Repair drift. Underflow goes to the single most frequent symbol;
        // overflow is shaved off the largest quantized frequencies (each can
        // give up `f - 1`, and 256 symbols at freq 1 sum to 256 < M, so the
        // loop always terminates).
        while sum != i64::from(M) {
            let (s, _) = freqs
                .iter()
                .enumerate()
                .max_by_key(|&(s, &f)| (f, std::cmp::Reverse(s)))
                .expect("non-empty table");
            if sum < i64::from(M) {
                let add = i64::from(M) - sum;
                freqs[s] = (i64::from(freqs[s]) + add) as u16;
                sum += add;
            } else {
                let give = (sum - i64::from(M)).min(i64::from(freqs[s]) - 1);
                freqs[s] = (i64::from(freqs[s]) - give) as u16;
                sum -= give;
            }
        }
        freqs
    }

    /// Appends the rANS encoding of `src` (header + state + renorm bytes,
    /// see the [module docs](super)) to `out`. `src` must be non-empty — the
    /// codec layer falls back to its inline mode before ever encoding an
    /// empty plane buffer.
    pub(crate) fn encode(src: &[u8], out: &mut Vec<u8>) {
        debug_assert!(!src.is_empty(), "rANS blocks are never empty");
        let freqs = build_freqs(src);
        let mut starts = [0u32; 256];
        let mut acc = 0u32;
        for s in 0..256 {
            starts[s] = acc;
            acc += u32::from(freqs[s]);
        }

        // Header: presence bitmap, then the present symbols' frequencies.
        let mut bitmap = [0u8; BITMAP_BYTES];
        for s in 0..256 {
            if freqs[s] != 0 {
                bitmap[s / 8] |= 1 << (s % 8);
            }
        }
        out.extend_from_slice(&bitmap);
        for &f in freqs.iter().filter(|&&f| f != 0) {
            out.extend_from_slice(&f.to_le_bytes());
        }

        // Encode backwards so the decoder emits forwards. Renorm bytes come
        // out in reverse decode order; they are reversed into place below.
        let mut x: u32 = RANS_L;
        let renorm_from = out.len() + 4; // state goes first, bytes after
        let mut rev = Vec::new();
        for &b in src.iter().rev() {
            let f = u32::from(freqs[b as usize]);
            let x_max = ((RANS_L >> SCALE_BITS) << 8) * f;
            while x >= x_max {
                rev.push(x as u8);
                x >>= 8;
            }
            x = ((x / f) << SCALE_BITS) + (x % f) + starts[b as usize];
        }
        out.extend_from_slice(&x.to_le_bytes());
        out.extend(rev.iter().rev());
        debug_assert!(out.len() >= renorm_from);
    }

    /// Encodes the four byte-shuffled delta planes of `planes` (4·n bytes)
    /// as four independent `(kind: u8, len: u32, body)` blocks appended to
    /// `out`.
    ///
    /// One frequency model per plane is the load-bearing choice: the
    /// sign/exponent planes of an SGD-scale delta are almost entirely zero
    /// while the low-mantissa plane is near-uniform, and a shared model
    /// would charge every literal for the zeros' probability mass. A plane
    /// whose rANS stream does not beat its raw size ships raw (`KIND_RAW`),
    /// so the whole container is bounded by `4·n + 20` bytes — the codec
    /// layer's inline fallback triggers before that ever reaches the wire.
    pub(crate) fn encode_planes(planes: &[u8], n: usize, out: &mut Vec<u8>) {
        debug_assert_eq!(planes.len(), 4 * n);
        for p in 0..4 {
            let plane = &planes[p * n..(p + 1) * n];
            let start = out.len();
            out.push(KIND_RANS);
            out.extend_from_slice(&[0; 4]); // length, patched below
            encode(plane, out);
            let len = out.len() - start - 5;
            if len >= plane.len() {
                out.truncate(start);
                out.push(KIND_RAW);
                out.extend_from_slice(&(plane.len() as u32).to_le_bytes());
                out.extend_from_slice(plane);
            } else {
                out[start + 1..start + 5].copy_from_slice(&(len as u32).to_le_bytes());
            }
        }
    }

    /// Decodes a container produced by [`encode_planes`] into exactly
    /// `4·n` bytes, replacing `out`.
    ///
    /// # Errors
    ///
    /// [`FlError::Codec`] on truncation, an unknown plane kind, a
    /// wrong-length raw plane, trailing bytes, or any per-plane rANS
    /// failure.
    pub(crate) fn decode_planes(
        mut src: &[u8],
        n: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), FlError> {
        out.clear();
        for _ in 0..4 {
            if src.len() < 5 {
                return Err(FlError::Codec("truncated plane header".into()));
            }
            let kind = src[0];
            let len = u32::from_le_bytes(src[1..5].try_into().expect("4 bytes")) as usize;
            if len > src.len() - 5 {
                return Err(FlError::Codec("plane body exceeds the stream".into()));
            }
            let body = &src[5..5 + len];
            match kind {
                KIND_RAW => {
                    if len != n {
                        return Err(FlError::Codec(format!("raw plane of {len} bytes, need {n}")));
                    }
                    out.extend_from_slice(body);
                }
                KIND_RANS => decode(body, n, out)?,
                other => return Err(FlError::Codec(format!("unknown plane kind {other}"))),
            }
            src = &src[5 + len..];
        }
        if !src.is_empty() {
            return Err(FlError::Codec("trailing bytes after the plane container".into()));
        }
        Ok(())
    }

    /// Decodes a stream produced by [`encode`] into exactly `expect` bytes,
    /// appended to `out` (not cleared — plane decoding accumulates).
    ///
    /// # Errors
    ///
    /// [`FlError::Codec`] on a malformed header (truncation, frequency sum
    /// ≠ `M`), a state below the normalized interval, byte exhaustion
    /// mid-stream, trailing bytes, or a final state other than the
    /// encoder's start state.
    pub(crate) fn decode(src: &[u8], expect: usize, out: &mut Vec<u8>) -> Result<(), FlError> {
        if src.len() < BITMAP_BYTES {
            return Err(FlError::Codec("rANS header shorter than its bitmap".into()));
        }
        let (bitmap, rest) = src.split_at(BITMAP_BYTES);
        let present: usize = bitmap.iter().map(|b| b.count_ones() as usize).sum();
        if present == 0 || rest.len() < 2 * present + 4 {
            return Err(FlError::Codec("truncated rANS frequency table".into()));
        }
        let (freq_bytes, stream) = rest.split_at(2 * present);
        let mut freqs = [0u16; 256];
        let mut starts = [0u32; 256];
        let mut slot_sym = [0u8; M as usize];
        let mut acc: u32 = 0;
        let mut fi = 0;
        for s in 0..256usize {
            if bitmap[s / 8] & (1 << (s % 8)) == 0 {
                continue;
            }
            let f = u16::from_le_bytes([freq_bytes[fi], freq_bytes[fi + 1]]);
            fi += 2;
            if f == 0 || u32::from(f) > M - acc {
                return Err(FlError::Codec(
                    "rANS frequencies exceed the quantization total".into(),
                ));
            }
            freqs[s] = f;
            starts[s] = acc;
            for slot in acc..acc + u32::from(f) {
                slot_sym[slot as usize] = s as u8;
            }
            acc += u32::from(f);
        }
        if acc != M {
            return Err(FlError::Codec(format!("rANS frequencies sum to {acc}, need {M}")));
        }

        let mut x = u32::from_le_bytes(stream[..4].try_into().expect("4 bytes"));
        if x < RANS_L {
            return Err(FlError::Codec("rANS state below the normalized interval".into()));
        }
        let mut bytes = stream[4..].iter();
        out.reserve(expect);
        for _ in 0..expect {
            let slot = x & (M - 1);
            let s = slot_sym[slot as usize];
            out.push(s);
            x = u32::from(freqs[s as usize]) * (x >> SCALE_BITS) + slot - starts[s as usize];
            while x < RANS_L {
                let Some(&b) = bytes.next() else {
                    return Err(FlError::Codec("rANS stream exhausted mid-symbol".into()));
                };
                x = (x << 8) | u32::from(b);
            }
        }
        if bytes.next().is_some() {
            return Err(FlError::Codec("trailing bytes after the rANS stream".into()));
        }
        if x != RANS_L {
            return Err(FlError::Codec("rANS stream did not end at the start state".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `src` as plane 0 of a container whose other planes are zeros.
    fn with_zero_planes(src: &[u8]) -> Vec<u8> {
        let mut planes = src.to_vec();
        planes.resize(PLANES * src.len(), 0);
        planes
    }

    fn encode_all(planes: &[u8], n: usize) -> Vec<u8> {
        let mut enc = Vec::new();
        encode_planes(planes, n, &mut Scratch::default(), &mut enc);
        enc
    }

    fn decode_all(container: &[u8], n: usize) -> Result<Vec<u8>, FlError> {
        let mut out = Vec::new();
        decode_planes(container, n, &mut Scratch::default(), &mut out)?;
        Ok(out)
    }

    /// The rANS stream `src` encodes to (its plane block minus the
    /// five-byte container header).
    fn encode(src: &[u8]) -> Vec<u8> {
        let enc = encode_all(&with_zero_planes(src), src.len());
        assert_eq!(enc[0], KIND_RANS, "test premise: the plane does not escape to raw");
        let len = u32::from_le_bytes(enc[1..5].try_into().unwrap()) as usize;
        enc[5..5 + len].to_vec()
    }

    /// Decodes `stream` as plane 0 of `n` symbols (the other planes are
    /// zeros) and returns that plane.
    fn decode(stream: &[u8], n: usize) -> Result<Vec<u8>, FlError> {
        let mut container = vec![KIND_RANS];
        container.extend_from_slice(&(stream.len() as u32).to_le_bytes());
        container.extend_from_slice(stream);
        let mut zeros = Vec::new();
        encode_zero_planes(n, &mut zeros);
        container.extend_from_slice(&zeros[zeros.len() / PLANES..]);
        let mut planes = decode_all(&container, n)?;
        planes.truncate(n);
        Ok(planes)
    }

    fn roundtrip(src: &[u8]) -> Vec<u8> {
        let planes = with_zero_planes(src);
        let mut dec = decode_all(&encode_all(&planes, src.len()), src.len()).unwrap();
        dec.truncate(src.len());
        dec
    }

    #[test]
    fn roundtrips_skewed_and_uniform_streams() {
        let skewed: Vec<u8> =
            (0..10_000).map(|i| if i % 7 == 0 { (i % 11) as u8 } else { 0 }).collect();
        assert_eq!(decode(&encode(&skewed), skewed.len()).unwrap(), skewed);
        let uniform: Vec<u8> = (0..=255).cycle().take(4096).collect();
        assert_eq!(roundtrip(&uniform), uniform);
        let single = vec![42u8; 1];
        assert_eq!(roundtrip(&single), single);
    }

    #[test]
    fn all_zero_planes_collapse_to_the_header() {
        // A same-round rebroadcast's delta planes: one symbol, freq M.
        // Encoding M-aligned symbols never moves the state, so the
        // stream is header + state only — O(1) in the plane size.
        let zeros = vec![0u8; 1 << 20];
        let enc = encode(&zeros);
        assert_eq!(enc.len(), BITMAP_BYTES + 2 + 4, "got {} bytes", enc.len());
        assert_eq!(decode(&enc, zeros.len()).unwrap(), zeros);
        // The whole container is what the O(1) writer emits — down to
        // the sizes where the planes escape to raw.
        for n in [1, 38, 39, zeros.len() / 4] {
            let mut direct = Vec::new();
            encode_zero_planes(n, &mut direct);
            assert_eq!(encode_all(&zeros[..4 * n], n), direct, "n = {n}");
        }
    }

    #[test]
    fn skewed_streams_compress_below_raw() {
        // 90% zeros, the rest drawn from a few values: the shape of a
        // real delta plane. rANS must clearly beat 1 byte/symbol.
        let src: Vec<u8> =
            (0u32..50_000).map(|i| if i % 10 == 0 { (1 + i % 4) as u8 } else { 0 }).collect();
        let enc = encode(&src);
        assert!(enc.len() < src.len() / 2, "{} bytes for {} input", enc.len(), src.len());
    }

    #[test]
    fn freq_table_is_exact_and_deterministic() {
        let src: Vec<u8> = (0..1000).map(|i| (i % 3) as u8).collect();
        let f1 = quantize(&histogram(&src), src.len());
        let f2 = quantize(&histogram(&src), src.len());
        assert_eq!(f1, f2);
        assert_eq!(f1.iter().map(|&f| u32::from(f)).sum::<u32>(), M);
        assert!(f1[..3].iter().all(|&f| f >= 1));
        assert!(f1[3..].iter().all(|&f| f == 0));
    }

    #[test]
    fn worst_case_expansion_is_bounded() {
        // Adversarial planes touching all 256 symbols: the rANS header
        // alone is 544 bytes and the stream approaches 1 byte/symbol, so
        // each plane escapes to raw and the container stays within
        // 4·n + 20. (The codec layer falls back to inline mode before
        // ever shipping a container at or above the raw size.)
        let n = 4096usize;
        let planes: Vec<u8> =
            (0..4 * n as u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8).collect();
        let enc = encode_all(&planes, n);
        assert!(enc.len() <= 4 * n + 20, "{} bytes for {} hostile input", enc.len(), 4 * n);
        assert_eq!(decode_all(&enc, n).unwrap(), planes);
    }

    #[test]
    fn truncation_and_corruption_fail_cleanly() {
        let src: Vec<u8> = (0..2048).map(|i| (i % 5) as u8).collect();
        let enc = encode(&src);
        for cut in 0..enc.len() {
            assert!(decode(&enc[..cut], src.len()).is_err(), "decoded at cut {cut}");
        }
        // Claiming more output than the stream carries must fail (the
        // stream runs dry or the end-state check trips).
        assert!(decode(&enc, src.len() + 1).is_err());
        assert!(decode(&enc, src.len() - 1).is_err(), "short decode leaves residue");
        // A corrupt frequency table is rejected before any symbol work.
        let mut bad = enc.clone();
        bad[BITMAP_BYTES] ^= 0xFF;
        assert!(decode(&bad, src.len()).is_err());
    }

    #[test]
    fn plane_container_roundtrips_and_escapes_uniform_planes() {
        // Plane 0 near-uniform (raw escape), plane 1 skewed (rANS),
        // planes 2–3 all-zero (header-sized rANS) — the shape of a real
        // shuffled delta.
        let n = 4096usize;
        let mut planes = vec![0u8; 4 * n];
        for i in 0..n {
            planes[i] = (i as u32).wrapping_mul(0x9E37_79B9) as u8;
            planes[n + i] = if i % 11 == 0 { 3 } else { 0 };
        }
        let enc = encode_all(&planes, n);
        assert!(enc.len() < 4 * n / 2, "container must beat raw: {} bytes", enc.len());
        assert_eq!(enc[0], KIND_RAW, "uniform plane escapes to raw");
        assert_eq!(decode_all(&enc, n).unwrap(), planes);
        // Truncations and a forged plane kind all fail cleanly.
        for cut in 0..enc.len() {
            assert!(decode_all(&enc[..cut], n).is_err(), "decoded at cut {cut}");
        }
        let mut bad = enc.clone();
        bad[0] = 9;
        assert!(decode_all(&bad, n).is_err());
        assert!(decode_all(&enc, n - 1).is_err(), "wrong plane size is rejected");
    }

    #[test]
    fn bit_flips_never_panic() {
        let src: Vec<u8> = (0..512).map(|i| (i % 9) as u8).collect();
        let enc = encode(&src);
        for i in 0..enc.len() {
            for bit in 0..8 {
                let mut bad = enc.clone();
                bad[i] ^= 1 << bit;
                // Err or a wrong decode are both acceptable; not panicking
                // (and not looping) is the property.
                let _ = decode(&bad, src.len());
            }
        }
    }

    #[test]
    fn reciprocal_quotients_are_exact_below_two_to_the_31() {
        let old_step = |x: u32, f: u32, start: u32| ((x / f) << SCALE_BITS) + x % f + start;
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        for f in 1..=M {
            let start = if f == M { 0 } else { (M - f) / 2 };
            let e = EncSym::new(start, f);
            assert_eq!(u64::from(e.x_max), u64::from(f) << 19);
            let mut xs = vec![RANS_L, e.x_max - 1, e.x_max - f, (1 << 31) - 1];
            for _ in 0..8 {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let multiple = ((seed >> 33) as u32 % ((1 << 31) / f)).max(1) * f;
                xs.extend([multiple - 1, multiple, multiple + 1]);
            }
            for x in xs.into_iter().filter(|&x| x < 1 << 31) {
                // `f = 1` has no 32-bit reciprocal: its quotient is
                // `x − 1` by design and the bias absorbs the difference.
                let want = if f == 1 { x.saturating_sub(1) } else { x / f };
                assert_eq!(e.quotient(x), want, "x = {x}, f = {f}");
                if x < e.x_max {
                    assert_eq!(e.step(x), old_step(x, f, start), "x = {x}, f = {f}");
                }
            }
        }
    }

    /// A deterministic plane of one of the shapes the coder
    /// distinguishes.
    fn plane(kind: u64, n: usize, mut seed: u64) -> Vec<u8> {
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        (0..n)
            .map(|i| match kind {
                // Uniform: escapes to raw once the header is paid for.
                0 => next() as u8,
                // Skewed: mostly zeros, a geometric tail of literals.
                1 => (next().trailing_zeros() as u8).saturating_sub(2),
                // A single symbol.
                2 => seed as u8,
                // All 256 symbols present, most of them once.
                3 if i < 256 => i as u8,
                3 => (next() % 7) as u8,
                // Two symbols, one of them at frequency 1.
                _ => u8::from(i == n / 2) * 0xA5,
            })
            .collect()
    }

    fn planes(kinds: [u64; PLANES], n: usize, seed: u64) -> Vec<u8> {
        (0..PLANES).flat_map(|p| plane(kinds[p], n, seed ^ p as u64)).collect()
    }

    fn kinds() -> impl Strategy<Value = [u64; PLANES]> {
        (0u64..5, 0u64..5, 0u64..5, 0u64..5).prop_map(|(a, b, c, d)| [a, b, c, d])
    }

    /// New and reference decoders on one (possibly corrupt) container:
    /// the same verdict, the same error, the same bytes.
    fn assert_decoders_agree(container: &[u8], n: usize) {
        let mut want = Vec::new();
        let want = reference::decode_planes(container, n, &mut want).map(|()| want);
        let got = decode_all(container, n);
        match (got, want) {
            (Ok(got), Ok(want)) => assert_eq!(got, want),
            (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string()),
            (got, want) => panic!("new decoder {got:?}, reference {want:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The lockstep, division-free encoder writes the reference
        /// encoder's bytes, whatever mix of plane shapes and whichever
        /// subset of lanes is live.
        #[test]
        fn encoder_matches_the_reference_byte_for_byte(
            kinds in kinds(),
            pick in 0usize..16,
            seed in 0u64..u64::MAX,
        ) {
            let sizes = [1, 2, 3, 5, 4095, 4096, 4097];
            let n = sizes.get(pick).copied().unwrap_or(6 + (seed % 700) as usize);
            let planes = planes(kinds, n, seed);
            let mut want = Vec::new();
            reference::encode_planes(&planes, n, &mut want);
            let got = encode_all(&planes, n);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(decode_all(&got, n).unwrap(), planes);
        }

        /// Every truncation and every single-bit flip of a valid
        /// container: the decoders agree on the verdict, on every output
        /// byte when it decodes, and on the error when it does not — the
        /// lowest-numbered bad plane's, as the plane-by-plane reference
        /// reports it.
        #[test]
        fn decoder_matches_the_reference_on_every_truncation_and_bit_flip(
            kinds in kinds(),
            n in 1usize..72,
            seed in 0u64..u64::MAX,
        ) {
            let container = encode_all(&planes(kinds, n, seed), n);
            for cut in 0..=container.len() {
                assert_decoders_agree(&container[..cut], n);
            }
            let mut bad = container.clone();
            for bit in 0..8 * bad.len() {
                bad[bit / 8] ^= 1 << (bit % 8);
                assert_decoders_agree(&bad, n);
                bad[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn several_bad_planes_report_the_lowest_numbered_one() {
        let n = 600;
        let container = encode_all(&planes([1, 1, 1, 1], n, 7), n);
        let mut blocks = Vec::new();
        let mut rest = &container[..];
        while !rest.is_empty() {
            let len = 5 + u32::from_le_bytes(rest[1..5].try_into().unwrap()) as usize;
            blocks.push(rest[5..len].to_vec());
            rest = &rest[len..];
        }
        let frame = |streams: &[&[u8]]| -> Vec<u8> {
            let head = |s: &[u8]| [&[KIND_RANS][..], &(s.len() as u32).to_le_bytes()].concat();
            streams.iter().flat_map(|s| [head(s), s.to_vec()].concat()).collect()
        };
        let error_of =
            |stream: &[u8]| reference::decode(stream, n, &mut Vec::new()).unwrap_err().to_string();

        // Plane 0 carries one byte too many, which only its
        // end-of-stream check can see, after the lockstep loop.
        let trailing = [&blocks[0][..], &[0]].concat();
        // Plane 2 is cut short, so it runs dry inside the loop — before
        // plane 0's fault is found. The error is still plane 0's.
        let dry = &blocks[2][..blocks[2].len() - 20];
        assert_ne!(error_of(dry), error_of(&trailing), "premise: two different failures");
        let bad = frame(&[&trailing, &blocks[1], dry, &blocks[3]]);
        assert_eq!(decode_all(&bad, n).unwrap_err().to_string(), error_of(&trailing));
        assert_decoders_agree(&bad, n);

        // Likewise when the later fault is in the framing: a container
        // that ends inside plane 3 still reports plane 0's stream.
        let bad = frame(&[&trailing, &blocks[1], &blocks[2], &blocks[3]]);
        let bad = &bad[..bad.len() - 30];
        assert_eq!(decode_all(bad, n).unwrap_err().to_string(), error_of(&trailing));
        assert_decoders_agree(bad, n);
    }
}
