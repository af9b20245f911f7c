//! The format layer: how untrusted bytes become values, written once.
//!
//! Every hand-rolled format in this workspace — wire messages and their
//! params blocks ([`crate::message`], [`crate::codec`]), `FLCK`
//! snapshots ([`crate::checkpoint`]), `FLRS` roster segments
//! ([`crate::roster`]), flips-net's control frames and flips-core's
//! enclave label-distribution payload — is read through
//! one [`Reader`], which is where the decoder obligations of
//! `docs/WIRE.md` § 9 hold:
//!
//! 1. **Bounded.** Every accessor returns [`FlError::Codec`] when the
//!    input is too short — never a panic, never a read past the end.
//! 2. **No allocation for a hostile count.** [`Reader::count`] (and the
//!    length-prefix readers built on it) rejects a count whose elements
//!    cannot fit the bytes that remain *before* anything is allocated.
//! 3. **Exact.** [`Reader::finish`] rejects trailing bytes, and bool,
//!    option and enum tags accept only the values a writer produces, so
//!    whatever decodes re-encodes to the same bytes.
//!
//! The write side is [`BufMut`] for scalars plus the composite `put_*`
//! functions here, each the twin of the reader method of the same name.
//!
//! `FLCK` and `FLRS` files share one integrity envelope, `seal` /
//! `unseal`: `magic ‖ u32 version ‖ u64 digest ‖ payload`, the digest
//! named by the version and checked before a decoder sees a byte
//! (`docs/WIRE.md` § 8.2).

use crate::FlError;
use bytes::BufMut;
use std::collections::HashMap;

/// A bounds-checked little-endian cursor over untrusted bytes. Every
/// method that can fail fails with [`FlError::Codec`] and nothing else;
/// composite decoders propagate it, so a hostile input yields an error,
/// never a half-built value. (The small accessors are `#[inline]`: the
/// formats' decode loops live in other codegen units, and an
/// out-of-line call per scalar is what those loops would otherwise be.)
#[derive(Debug)]
pub struct Reader<'a> {
    /// The bytes not yet consumed.
    rest: &'a [u8],
    /// Length of the whole input.
    len: usize,
    /// What is being read ("checkpoint", "message", …): leads every
    /// error.
    what: &'static str,
}

macro_rules! scalar_readers {
    ($($name:ident),*) => {$(
        #[doc = concat!("Reads a little-endian `", stringify!($name), "`.")]
        #[inline]
        pub fn $name(&mut self) -> Result<$name, FlError> {
            Ok($name::from_le_bytes(*self.array()?))
        }
    )*};
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`; `what` names the format in
    /// errors.
    pub fn new(buf: &'a [u8], what: &'static str) -> Self {
        Reader { rest: buf, len: buf.len(), what }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn position(&self) -> usize {
        self.len - self.rest.len()
    }

    #[cold]
    pub(crate) fn bad(&self, msg: std::fmt::Arguments<'_>) -> FlError {
        FlError::Codec(format!("{}: {msg}", self.what))
    }

    #[cold]
    fn truncated(&self, n: usize) -> FlError {
        let (pos, have) = (self.position(), self.remaining());
        self.bad(format_args!("truncated: need {n} bytes at {pos}, have {have}"))
    }

    /// Requires `n` more bytes without consuming them.
    #[inline]
    pub fn need(&self, n: usize) -> Result<(), FlError> {
        if n > self.remaining() {
            return Err(self.truncated(n));
        }
        Ok(())
    }

    /// Consumes the next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], FlError> {
        self.need(n)?;
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    /// Consumes the next `N` bytes as an array: one bounds check, and
    /// no length left for the caller to check again.
    #[inline]
    pub(crate) fn array<const N: usize>(&mut self) -> Result<&'a [u8; N], FlError> {
        let Some((head, rest)) = self.rest.split_first_chunk() else {
            return Err(self.truncated(N));
        };
        self.rest = rest;
        Ok(head)
    }

    scalar_readers!(u8, u16, u32, u64, f32, f64);

    /// Reads a `u64` that must fit this platform's `usize`.
    #[inline]
    pub fn usize(&mut self) -> Result<usize, FlError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.bad(format_args!("{v} exceeds the address space")))
    }

    /// Reads a one-byte enum tag; `parse` refuses unknown values.
    pub fn tag<T>(
        &mut self,
        name: &str,
        parse: impl FnOnce(u8) -> Option<T>,
    ) -> Result<T, FlError> {
        let b = self.u8()?;
        parse(b).ok_or_else(|| self.bad(format_args!("invalid {name} tag {b:#04x}")))
    }

    /// Reads a strict bool: `0` or `1`, nothing else.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, FlError> {
        self.tag("bool", |b| [false, true].get(usize::from(b)).copied())
    }

    /// Reads an `Option`: a strict bool, then the value if present.
    #[inline]
    pub fn option<T>(
        &mut self,
        get: impl FnOnce(&mut Self) -> Result<T, FlError>,
    ) -> Result<Option<T>, FlError> {
        self.bool()?.then(|| get(self)).transpose()
    }

    /// Validates an element count against the input that remains: `n`
    /// elements of at least `min_elem_bytes` each must still fit.
    /// Everything that allocates by a count from the input goes through
    /// here first.
    #[inline]
    pub fn count(&self, n: u64, min_elem_bytes: usize) -> Result<usize, FlError> {
        usize::try_from(n)
            .ok()
            .filter(|n| n.checked_mul(min_elem_bytes).is_some_and(|need| need <= self.remaining()))
            .ok_or_else(|| {
                let have = self.remaining();
                self.bad(format_args!("count {n} impossible with {have} bytes left"))
            })
    }

    /// Reads a `u64` length prefix, validated by [`Reader::count`].
    #[inline]
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, FlError> {
        let n = self.u64()?;
        self.count(n, min_elem_bytes)
    }

    /// Reads a `u32` length prefix, validated by [`Reader::count`].
    #[inline]
    pub fn len32(&mut self, min_elem_bytes: usize) -> Result<usize, FlError> {
        let n = self.u32()?;
        self.count(n.into(), min_elem_bytes)
    }

    /// Reads `n` elements, `n` already validated by [`Reader::count`].
    #[inline]
    pub fn seq<T>(
        &mut self,
        n: usize,
        mut get: impl FnMut(&mut Self) -> Result<T, FlError>,
    ) -> Result<Vec<T>, FlError> {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(get(self)?);
        }
        Ok(v)
    }

    /// Reads a `u64`-prefixed sequence (the twin of [`put_vec`]).
    #[inline]
    pub fn vec<T>(
        &mut self,
        min_elem_bytes: usize,
        get: impl FnMut(&mut Self) -> Result<T, FlError>,
    ) -> Result<Vec<T>, FlError> {
        let n = self.len(min_elem_bytes)?;
        self.seq(n, get)
    }

    /// Reads a `u64`-prefixed map whose `u64` keys must strictly ascend
    /// — the one order [`put_map`] writes.
    pub fn map<V>(
        &mut self,
        min_value_bytes: usize,
        mut get: impl FnMut(&mut Self) -> Result<V, FlError>,
    ) -> Result<HashMap<usize, V>, FlError> {
        let n = self.len(8 + min_value_bytes)?;
        let mut map = HashMap::with_capacity(n);
        let mut last = None;
        for _ in 0..n {
            let key = self.usize()?;
            if last.is_some_and(|prev| prev >= key) {
                return Err(self.bad(format_args!("map keys not strictly ascending")));
            }
            last = Some(key);
            map.insert(key, get(self)?);
        }
        Ok(map)
    }

    /// Reads `count` little-endian `f32`s (the twin of [`put_f32s`]),
    /// validated by [`Reader::count`] before the caller allocates.
    pub fn f32s(&mut self, count: u64) -> Result<impl Iterator<Item = f32> + 'a, FlError> {
        let n = self.count(count, 4)?;
        let raw = self.bytes(4 * n)?.chunks_exact(4);
        Ok(raw.map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes"))))
    }

    /// Ends the read: the input must be consumed exactly.
    pub fn finish(self) -> Result<(), FlError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(self.bad(format_args!("{n} trailing bytes"))),
        }
    }
}

/// Writes a bool as `0` / `1`.
pub fn put_bool(out: &mut impl BufMut, v: bool) {
    out.put_u8(v.into());
}

/// Writes an `Option`: a bool, then the value if present.
pub fn put_option<B: BufMut, T>(out: &mut B, v: Option<T>, put: impl FnOnce(&mut B, T)) {
    put_bool(out, v.is_some());
    if let Some(v) = v {
        put(out, v);
    }
}

/// Writes a `u64`-prefixed sequence.
pub fn put_vec<B: BufMut, T>(out: &mut B, items: &[T], mut put: impl FnMut(&mut B, &T)) {
    out.put_u64_le(items.len() as u64);
    for item in items {
        put(out, item);
    }
}

/// Writes a `u64`-prefixed map ascending by key, so the bytes are
/// canonical whatever the `HashMap`'s iteration order.
pub fn put_map<B: BufMut, V>(
    out: &mut B,
    map: &HashMap<usize, V>,
    mut put: impl FnMut(&mut B, &V),
) {
    let mut entries: Vec<(&usize, &V)> = map.iter().collect();
    entries.sort_unstable_by_key(|(k, _)| **k);
    put_vec(out, &entries, |out, (k, v)| {
        out.put_u64_le(**k as u64);
        put(out, v);
    });
}

/// Writes `v` as little-endian `f32`s, no prefix (the raw model image).
pub fn put_f32s(out: &mut impl BufMut, v: &[f32]) {
    for &x in v {
        out.put_f32_le(x);
    }
}

/// The envelope version [`seal`] writes. Which digest guards a file is
/// data — this field — never an option: [`unseal`] follows the file.
pub(crate) const ENVELOPE_VERSION: u32 = 2;

/// Version 1's digest, FNV-1a-64 over the payload, a dependent multiply
/// per byte. Read-only: old files outlive the binary that wrote them.
fn fnv1a(_header: &[u8], payload: &[u8]) -> u64 {
    payload.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Lanes of the version-2 digest; a 64-byte block feeds each one word.
const LANES: usize = 8;
/// Its multiplier (odd); lane `i` starts from `(i + 1) · P mod 2⁶⁴`.
const P: u64 = 0x9e37_79b9_7f4a_7c15;

/// The digest's one step, a bijection of `h` for a fixed `w` and of `w`
/// for a fixed `h`: xor is, so is a multiply by an odd constant mod 2⁶⁴,
/// so is a rotation (high bits go where the next multiply spreads them).
#[inline]
fn mix(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(P).rotate_left(29)
}

/// Version 2's digest. The payload, zero-padded to whole blocks, is read
/// as little-endian `u64`s (the same value on every host), word `i`
/// mixed into lane `i mod 8`; the header word (magic ‖ version), the
/// payload length and the lanes are then folded into one `u64`.
///
/// What FNV-1a caught *for certain* still is: damage within one aligned
/// word — any single-bit or single-byte flip — changes its lane there,
/// every later step of lane and fold is a bijection, so the digest
/// changes; so too for the header word, which FNV never covered. Zero
/// bytes cut off the last block or added to it are lost in the padding
/// and move only the length, hence the digest. Wider damage passes with
/// probability 2⁻⁶⁴, as under FNV.
fn lane_digest(header: &[u8], payload: &[u8]) -> u64 {
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
    let mut lanes: [u64; LANES] = std::array::from_fn(|i| P.wrapping_mul(i as u64 + 1));
    let mut absorb = |block: &[u8]| {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, word(w));
        }
    };
    let mut blocks = payload.chunks_exact(8 * LANES);
    blocks.by_ref().for_each(&mut absorb);
    let tail = blocks.remainder();
    if !tail.is_empty() {
        let mut last = [0; 8 * LANES];
        last[..tail.len()].copy_from_slice(tail);
        absorb(&last);
    }
    [word(header), payload.len() as u64].iter().chain(&lanes).fold(0, |h, &w| mix(h, w))
}

/// Seals a payload in the envelope shared by `FLCK` and `FLRS` files, in
/// one buffer: 16 header bytes, what `write_payload` appends, then the
/// digest patched in.
pub(crate) fn seal(magic: [u8; 4], write_payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = [&magic[..], &ENVELOPE_VERSION.to_le_bytes(), &[0; 8]].concat();
    write_payload(&mut out);
    let digest = lane_digest(&out[..8], &out[16..]);
    out[8..16].copy_from_slice(&digest.to_le_bytes());
    out
}

/// Opens an envelope: wrong magic, a version other than 1 or 2 (never
/// guessed at), truncation and — by the digest the version names, over
/// the whole payload, on every call, before any field is interpreted —
/// damage anywhere all come back as [`FlError::Codec`].
pub(crate) fn unseal<'a>(
    bytes: &'a [u8],
    magic: [u8; 4],
    what: &'static str,
) -> Result<&'a [u8], FlError> {
    let mut r = Reader::new(bytes, what);
    if r.bytes(4)? != magic {
        return Err(r.bad(format_args!("bad magic")));
    }
    let digest = match r.u32()? {
        1 => fnv1a,
        ENVELOPE_VERSION => lane_digest,
        v => return Err(r.bad(format_args!("unsupported version {v} (this build reads 1 and 2)"))),
    };
    let stored = r.u64()?;
    let payload = &bytes[16..];
    if digest(&bytes[..8], payload) != stored {
        return Err(r.bad(format_args!("failed its checksum (corrupt or truncated)")));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flips_ml::rng::seeded;
    use rand::Rng;

    fn is_codec_error<T: std::fmt::Debug>(r: Result<T, FlError>) -> bool {
        matches!(r, Err(FlError::Codec(_)))
    }

    #[test]
    fn scalars_read_little_endian_and_advance() {
        let mut buf = Vec::new();
        buf.put_u8(7);
        buf.put_slice(&0xBEEFu16.to_le_bytes());
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_u64_le(u64::MAX - 1);
        buf.put_f32_le(-2.5);
        buf.put_f64_le(0.1);
        let mut r = Reader::new(&buf, "test");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.position(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f32().unwrap(), -2.5);
        assert_eq!(r.f64().unwrap(), 0.1);
        assert_eq!(r.remaining(), 0);
        r.finish().unwrap();
    }

    #[test]
    fn every_accessor_fails_cleanly_on_every_truncation() {
        // One of each shape; every strict prefix must be a Codec error
        // from whichever accessor runs dry, and leave nothing behind.
        let mut buf = Vec::new();
        buf.put_u32_le(9);
        put_bool(&mut buf, true);
        put_option(&mut buf, Some(5u64), |o, v| o.put_u64_le(v));
        put_vec(&mut buf, &[1u64, 2], |o, &v| o.put_u64_le(v));
        put_map(&mut buf, &HashMap::from([(3, 0.5f64), (1, 1.5)]), |o, &v| o.put_f64_le(v));
        buf.put_u32_le(2);
        put_f32s(&mut buf, &[1.0, f32::NAN]);
        type Shapes = (u32, bool, Option<u64>, Vec<u64>, HashMap<usize, f64>, Vec<f32>);
        let read = |bytes: &[u8]| -> Result<Shapes, FlError> {
            let mut r = Reader::new(bytes, "test");
            let out = (
                r.u32()?,
                r.bool()?,
                r.option(Reader::u64)?,
                r.vec(8, Reader::u64)?,
                r.map(8, Reader::f64)?,
                {
                    let n = r.u32()?;
                    r.f32s(n.into())?.collect()
                },
            );
            r.finish()?;
            Ok(out)
        };
        let (a, b, c, d, e, f) = read(&buf).unwrap();
        assert_eq!((a, b, c, d), (9, true, Some(5), vec![1, 2]));
        assert_eq!(e, HashMap::from([(1, 1.5), (3, 0.5)]));
        assert_eq!((f[0], f[1].is_nan()), (1.0, true));
        for cut in 0..buf.len() {
            assert!(is_codec_error(read(&buf[..cut])), "{cut}-byte prefix accepted");
        }
        buf.push(0);
        assert!(is_codec_error(read(&buf)), "trailing byte accepted");
    }

    #[test]
    fn counts_that_cannot_fit_are_refused_before_allocation() {
        // 2^60 elements would abort the process if `with_capacity` ran.
        for min in [1usize, 8, usize::MAX] {
            let mut buf = Vec::new();
            buf.put_u64_le(1 << 60);
            buf.put_slice(&[0; 64]);
            assert!(is_codec_error(Reader::new(&buf, "test").len(min)));
            assert!(is_codec_error(Reader::new(&buf, "test").vec(min, Reader::u8)));
            assert!(is_codec_error(Reader::new(&buf, "test").map(min.min(8), Reader::u8)));
        }
        let buf = [0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0];
        assert!(is_codec_error(Reader::new(&buf, "test").len32(1)));
        assert!(is_codec_error(Reader::new(&buf, "test").f32s(u64::MAX).map(|_| ())));
        assert!(is_codec_error(Reader::new(&buf, "test").count(3, 3)));
        // The largest count that does fit is accepted: the check is
        // `<=`, not `<`.
        assert_eq!(Reader::new(&buf, "test").count(2, 4).unwrap(), 2);
        assert_eq!(Reader::new(&buf, "test").count(8, 1).unwrap(), 8);
        assert_eq!(Reader::new(&[], "test").count(0, 8).unwrap(), 0);
    }

    #[test]
    fn tags_accept_only_what_a_writer_produces() {
        for byte in 0..=u8::MAX {
            let buf = [byte, 1, 0, 0, 0, 0, 0, 0, 0];
            let got = Reader::new(&buf, "test").bool();
            match byte {
                0 | 1 => assert_eq!(got.unwrap(), byte == 1),
                _ => assert!(is_codec_error(got), "bool byte {byte:#04x} accepted"),
            }
            let got = Reader::new(&buf, "test").option(Reader::u64);
            match byte {
                0 => assert_eq!(got.unwrap(), None),
                1 => assert_eq!(got.unwrap(), Some(1)),
                _ => assert!(is_codec_error(got), "option tag {byte:#04x} accepted"),
            }
            let got = Reader::new(&buf, "test").tag("kind", |b| (b < 3).then_some(b));
            assert_eq!(got.is_ok(), byte < 3);
        }
    }

    #[test]
    fn maps_must_ascend_strictly_and_write_sorted() {
        let map = HashMap::from([(9, 1u64), (2, 2), (5, 3)]);
        let mut buf = Vec::new();
        put_map(&mut buf, &map, |o, &v| o.put_u64_le(v));
        let keys: Vec<u64> =
            buf[8..].chunks(16).map(|c| u64::from_le_bytes(c[..8].try_into().unwrap())).collect();
        assert_eq!(keys, [2, 5, 9], "written ascending whatever the hash order");
        assert_eq!(Reader::new(&buf, "test").map(8, Reader::u64).unwrap(), map);
        // Swapped and duplicated keys are both refused.
        for (a, b) in [(5u64, 2u64), (2, 2)] {
            let mut evil = buf.clone();
            evil[8..16].copy_from_slice(&a.to_le_bytes());
            evil[24..32].copy_from_slice(&b.to_le_bytes());
            assert!(is_codec_error(Reader::new(&evil, "test").map(8, Reader::u64)));
        }
    }

    #[test]
    fn need_checks_without_consuming_and_errors_name_the_format() {
        let mut r = Reader::new(&[1, 2, 3], "widget");
        r.need(3).unwrap();
        assert_eq!(r.position(), 0);
        let err = r.need(4).unwrap_err().to_string();
        assert!(err.contains("widget") && err.contains("truncated"), "{err}");
        assert_eq!(r.bytes(2).unwrap(), [1, 2]);
        let err = r.finish().unwrap_err().to_string();
        assert!(err.contains("1 trailing"), "{err}");
    }

    /// The parent commit's sealed two-record roster segment: version 1.
    const SEGMENT_V1: &[u8] = include_bytes!("../tests/fixtures/two_records.v1.flrs");

    fn random_bytes(rng: &mut impl Rng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.random::<u32>() as u8).collect()
    }

    /// Version 2's digest as `docs/WIRE.md` § 8.2 words it, with none of
    /// production's blocks, slices or iterators: one lane at a time, each
    /// word assembled byte by byte, a byte past the end reading as zero.
    fn reference_digest(header: [u8; 8], payload: &[u8]) -> u64 {
        const P: u64 = 0x9e37_79b9_7f4a_7c15;
        let step = |h: u64, w: u64| (h ^ w).wrapping_mul(P).rotate_left(29);
        let byte = |bytes: &[u8], i: usize| u64::from(bytes.get(i).copied().unwrap_or(0));
        let padded = payload.len().div_ceil(64) * 64;
        let mut digest = 0;
        let mut header_word = 0;
        for i in 0..8 {
            header_word |= byte(&header, i) << (8 * i);
        }
        digest = step(digest, header_word);
        digest = step(digest, payload.len() as u64);
        for lane in 0..8 {
            let mut acc = P.wrapping_mul(lane as u64 + 1);
            let mut at = 8 * lane;
            while at < padded {
                let mut w = 0;
                for i in 0..8 {
                    w |= byte(payload, at + i) << (8 * i);
                }
                acc = step(acc, w);
                at += 64;
            }
            digest = step(digest, acc);
        }
        digest
    }

    #[test]
    fn lane_digest_agrees_with_its_scalar_reference_at_every_length() {
        let mut rng = seeded(0xD16E);
        let big = [1 << 16, (1 << 16) + 1, (1 << 16) + 63, 196_616];
        for len in (0..=160).chain(big) {
            let payload = random_bytes(&mut rng, len);
            let header: [u8; 8] = random_bytes(&mut rng, 8).try_into().unwrap();
            assert_eq!(lane_digest(&header, &payload), reference_digest(header, &payload), "{len}");
            // All zeros: only the folded length tells the lengths apart.
            let zeros = vec![0; len];
            assert_eq!(lane_digest(&header, &zeros), reference_digest(header, &zeros), "{len}");
        }
    }

    #[test]
    fn sealed_bytes_refuse_every_flip_cut_and_zero_extension_at_every_small_length() {
        let mut rng = seeded(0x5EA1);
        let open = |bytes: &[u8]| unseal(bytes, *b"FLRS", "test").map(<[u8]>::to_vec);
        // 0..=72 straddles the word (8) and block (64) boundaries. Each
        // length twice: random bytes, then zeros — the payload the zero
        // padding cannot be told from.
        for len in 0..=72 {
            for payload in [random_bytes(&mut rng, len), vec![0; len]] {
                let sealed = seal(*b"FLRS", |out| out.put_slice(&payload));
                assert_eq!(sealed.len(), 16 + len);
                assert_eq!(open(&sealed).unwrap(), payload);
                for bit in 0..8 * sealed.len() {
                    let mut evil = sealed.clone();
                    evil[bit / 8] ^= 1 << (bit % 8);
                    assert!(is_codec_error(open(&evil)), "len {len}: bit {bit} flipped, accepted");
                }
                for cut in 0..sealed.len() {
                    assert!(is_codec_error(open(&sealed[..cut])), "len {len}: cut to {cut}");
                }
                let mut longer = sealed;
                for extra in 1..=32 {
                    longer.push(0);
                    assert!(is_codec_error(open(&longer)), "len {len}: {extra} zero bytes added");
                }
            }
        }
    }

    #[test]
    fn the_version_field_picks_the_digest_and_relabelled_files_are_refused() {
        let payload = &SEGMENT_V1[16..];
        let v2 = seal(*b"FLRS", |out| out.put_slice(payload));
        assert_eq!((&v2[..4], &v2[4..8], &v2[16..]), (&b"FLRS"[..], &[2, 0, 0, 0][..], payload));
        for (file, version) in [(SEGMENT_V1, 1), (&v2[..], 2)] {
            assert_eq!(unseal(file, *b"FLRS", "test").unwrap(), payload, "version {version}");
            for relabel in 0..=9u8 {
                let mut evil = file.to_vec();
                evil[4] = relabel;
                let opened = unseal(&evil, *b"FLRS", "test");
                assert_eq!(opened.is_ok(), relabel == version, "{version} relabelled {relabel}");
            }
        }
        // Version 2 folds the header in: the same payload under the other
        // magic is another file (FNV-over-payload never covered this).
        for (from, to) in [(*b"FLRS", *b"FLCK"), (*b"FLCK", *b"FLRS")] {
            let mut evil = seal(from, |out| out.put_slice(payload));
            assert!(is_codec_error(unseal(&evil, to, "test")), "foreign magic accepted");
            evil[..4].copy_from_slice(&to);
            assert!(is_codec_error(unseal(&evil, to, "test")), "relabelled magic accepted");
        }
        let mut future = v2.clone();
        future[4] = 3;
        let err = unseal(&future, *b"FLRS", "test").unwrap_err().to_string();
        assert!(err.contains("reads 1 and 2"), "{err}");
    }

    #[test]
    fn version_1_files_keep_their_every_flip_and_cut_rejection() {
        for bit in 0..8 * SEGMENT_V1.len() {
            let mut evil = SEGMENT_V1.to_vec();
            evil[bit / 8] ^= 1 << (bit % 8);
            assert!(is_codec_error(unseal(&evil, *b"FLRS", "test")), "bit {bit} flipped");
        }
        for cut in 0..SEGMENT_V1.len() {
            assert!(is_codec_error(unseal(&SEGMENT_V1[..cut], *b"FLRS", "test")), "cut to {cut}");
        }
    }
}
