//! Offline stand-in for the `bytes` crate.
//!
//! Implements the subset the workspace's wire codecs use: [`Bytes`] as a
//! cheaply-cloneable, consumable view over shared storage, [`BytesMut`]
//! as a growable write buffer, and the little-endian cursor methods of
//! [`Buf`] / [`BufMut`].

use std::sync::Arc;

/// Read-side cursor operations.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// Consumes `n` bytes, returning them as a slice-backed copy.
    fn copy_take(&mut self, n: usize) -> Vec<u8>;

    /// Consumes one byte.
    fn get_u8(&mut self) -> u8 {
        self.copy_take(1)[0]
    }

    /// Consumes a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.copy_take(4).try_into().expect("4 bytes"))
    }

    /// Consumes a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.copy_take(8).try_into().expect("8 bytes"))
    }

    /// Consumes a little-endian `f32`.
    fn get_f32_le(&mut self) -> f32 {
        f32::from_le_bytes(self.copy_take(4).try_into().expect("4 bytes"))
    }

    /// Consumes a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_le_bytes(self.copy_take(8).try_into().expect("8 bytes"))
    }
}

/// Write-side cursor operations.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f32`.
    fn put_f32_le(&mut self, v: f32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

/// An immutable, cheaply-cloneable byte buffer with cursor semantics.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    /// Wraps a static slice (copied — the stand-in keeps one storage kind).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::copy_from_slice(bytes)
    }

    /// A buffer holding a copy of `data`, made in one allocation and one
    /// copy (a `Vec` first would cost a second: the shared storage is an
    /// `Arc<[u8]>`, which cannot adopt a `Vec`'s allocation).
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes { data: data.into(), start: 0, end: data.len() }
    }

    /// Length of the unconsumed view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the unconsumed view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The unconsumed view as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// A sub-view of the unconsumed range (shares storage).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.len(), "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Splits off the first `n` unconsumed bytes as a shared view,
    /// advancing this cursor past them — a zero-copy alternative to
    /// [`Buf::copy_take`] for length-prefixed payload sections.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` bytes remain.
    pub fn split_to(&mut self, n: usize) -> Bytes {
        assert!(n <= self.len(), "buffer underflow: need {n}, have {}", self.len());
        let out = Bytes { data: Arc::clone(&self.data), start: self.start, end: self.start + n };
        self.start += n;
        out
    }

    /// Copies the unconsumed view into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes { data: v.into(), start: 0, end }
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({:?})", self.as_slice())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl std::ops::Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Bytes {
    /// Consumes `N` bytes as a fixed-size array without allocating —
    /// the scalar `get_*` cursor methods ride on this, which matters:
    /// decoding a model message reads ~10⁵ scalars, and the trait's
    /// `copy_take` default would heap-allocate for every one.
    fn take_array<const N: usize>(&mut self) -> [u8; N] {
        assert!(N <= self.len(), "buffer underflow: need {N}, have {}", self.len());
        let out: [u8; N] =
            self.data[self.start..self.start + N].try_into().expect("length checked");
        self.start += N;
        out
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_take(&mut self, n: usize) -> Vec<u8> {
        assert!(n <= self.len(), "buffer underflow: need {n}, have {}", self.len());
        let out = self.data[self.start..self.start + n].to_vec();
        self.start += n;
        out
    }

    fn get_u8(&mut self) -> u8 {
        self.take_array::<1>()[0]
    }

    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take_array())
    }

    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take_array())
    }

    fn get_f32_le(&mut self) -> f32 {
        f32::from_le_bytes(self.take_array())
    }

    fn get_f64_le(&mut self) -> f64 {
        f64::from_le_bytes(self.take_array())
    }
}

/// A growable write buffer that freezes into [`Bytes`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut { data: Vec::new() }
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut { data: Vec::with_capacity(capacity) }
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes the buffer can hold before reallocating.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Reserves room for at least `additional` more bytes — encoders
    /// reserve a message's full size ahead so the `put_*` stream below
    /// never reallocates mid-message (grow-only, capacity is kept).
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Clears the contents, keeping capacity — the reuse point for a
    /// caller-owned encode scratch buffer.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// The written bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

/// The scalar `put_*` writes are overridden with fixed-size-array
/// appends (the write-side twin of [`Bytes`]' `take_array` reads):
/// encoding a model message writes ~10⁵ scalars, and with the message's
/// size reserved ahead each append is a bounds check plus a word store —
/// no reallocation, no per-scalar temporary.
impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    fn put_u32_le(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f32_le(&mut self, v: f32) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f64_le(&mut self, v: f64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }
}

/// As in the published crate, a plain `Vec<u8>` is a write buffer too
/// (formats that never freeze into [`Bytes`] write straight into one).
impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }

    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_le_primitives() {
        let mut w = BytesMut::with_capacity(32);
        w.put_u8(7);
        w.put_u32_le(0xDEAD_BEEF);
        w.put_u64_le(42);
        w.put_f32_le(1.5);
        let mut r = w.freeze();
        assert_eq!(r.remaining(), 1 + 4 + 8 + 4);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le(), 42);
        assert_eq!(r.get_f32_le(), 1.5);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn slice_shares_and_bounds_checks() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(s.as_slice(), &[2, 3, 4]);
        assert_eq!(b.len(), 5, "slicing must not consume the parent");
    }

    #[test]
    fn copy_from_slice_holds_the_slice() {
        let mut b = Bytes::copy_from_slice(&[1, 2, 3][1..]);
        assert_eq!(b.as_slice(), &[2, 3]);
        assert_eq!(b.get_u8(), 2);
        assert_eq!(Bytes::copy_from_slice(&[]), Bytes::new());
    }

    #[test]
    fn split_to_shares_storage_and_advances() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let head = b.split_to(2);
        assert_eq!(head.as_slice(), &[1, 2]);
        assert_eq!(b.as_slice(), &[3, 4, 5]);
        assert_eq!(b.get_u8(), 3, "cursor continues after the split");
    }

    #[test]
    fn writes_within_reserved_capacity_never_reallocate() {
        // The reserve-ahead contract: after reserving a message's size,
        // the whole put_* stream lands in place — same backing pointer,
        // same capacity, no mid-encode reallocation.
        let total = 1 + 4 + 8 + 4 + 8 + 7;
        let mut w = BytesMut::new();
        w.reserve(total);
        let cap = w.capacity();
        assert!(cap >= total);
        w.put_u8(1);
        let ptr = w.as_slice().as_ptr();
        w.put_u32_le(2);
        w.put_u64_le(3);
        w.put_f32_le(4.0);
        w.put_f64_le(5.0);
        w.put_slice(&[6; 7]);
        assert_eq!(w.len(), total);
        assert_eq!(w.capacity(), cap, "capacity grew despite reserve-ahead");
        assert_eq!(w.as_slice().as_ptr(), ptr, "buffer moved despite sufficient capacity");
    }

    #[test]
    fn clear_keeps_capacity_for_reuse() {
        let mut w = BytesMut::with_capacity(64);
        w.put_slice(&[1; 48]);
        let cap = w.capacity();
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.capacity(), cap, "clear must be grow-only");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn underflow_panics() {
        let mut b = Bytes::from(vec![1]);
        let _ = b.get_u32_le();
    }
}
