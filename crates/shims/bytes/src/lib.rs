//! Offline shim for the `bytes` crate surface used by this workspace.
//!
//! [`Bytes`] is an `Arc<Vec<u8>>` plus a window, so `clone`, [`Bytes::slice`] and
//! [`Buf::copy_to_bytes`] are all O(1) reference-count bumps — the zero-copy property
//! the message codec relies on. An empty buffer ([`Bytes::new`]) has no storage and
//! allocates nothing, as in the real crate. [`BytesMut`] is a thin `Vec<u8>` wrapper implementing
//! the [`BufMut`] writer surface, frozen into [`Bytes`] without copying the bytes
//! (the `Vec` moves behind the `Arc` as-is). [`BytesMut::split`] supports the real
//! crate's buffer-reuse idiom (`reserve` → write → `split().freeze()`); unlike the
//! real crate the detached portion does not share the parent's allocation, so reuse
//! here saves buffer *growth*, not the one allocation per frozen frame.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Cheaply cloneable, sliceable, immutable byte buffer.
#[derive(Clone)]
pub struct Bytes {
    /// `None`: the empty buffer `new` makes.
    data: Option<Arc<Vec<u8>>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes {
            data: None,
            start: 0,
            end: 0,
        }
    }

    /// A buffer copied from a static slice.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::copy_from_slice(bytes)
    }

    /// A buffer copied from an arbitrary slice.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    /// Number of bytes in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// O(1) sub-view sharing the same backing storage.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice {lo}..{hi} out of bounds of {}",
            self.len()
        );
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// View as a plain byte slice.
    pub fn as_slice(&self) -> &[u8] {
        match &self.data {
            Some(data) => &data[self.start..self.end],
            None => &[],
        }
    }

    /// Copy the view into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Some(Arc::new(v)),
            start: 0,
            end,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice().iter().take(64) {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        if self.len() > 64 {
            write!(f, "...")?;
        }
        write!(f, "\"")
    }
}

/// Reader surface over a byte cursor.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Advance the cursor.
    fn advance(&mut self, n: usize);
    /// Current unread bytes.
    fn chunk(&self) -> &[u8];

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Read a big-endian u32.
    fn get_u32(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_be_bytes(raw)
    }

    /// Read a big-endian u64.
    fn get_u64(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_be_bytes(raw)
    }

    /// Take `len` bytes off the front as an owned buffer.
    fn copy_to_bytes(&mut self, len: usize) -> Bytes;
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end of buffer");
        self.start += n;
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        // Zero copy: the returned view shares the backing Arc.
        let out = self.slice(0..len);
        self.advance(len);
        out
    }
}

/// Growable byte buffer, frozen into [`Bytes`] without copying.
#[derive(Default, Debug, Clone, PartialEq, Eq)]
pub struct BytesMut {
    vec: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            vec: Vec::with_capacity(cap),
        }
    }

    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.vec.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    /// Current allocation size.
    pub fn capacity(&self) -> usize {
        self.vec.capacity()
    }

    /// Ensure room for `additional` more bytes without reallocating mid-write.
    pub fn reserve(&mut self, additional: usize) {
        self.vec.reserve(additional);
    }

    /// Drop all written bytes, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.vec.clear();
    }

    /// Detach everything written so far into its own `BytesMut`, leaving this buffer
    /// empty but still holding its allocation — the reusable-encode-buffer idiom
    /// (`reserve` → write → `split().freeze()`). The detached bytes move; they are
    /// not copied.
    pub fn split(&mut self) -> BytesMut {
        let cap = self.vec.capacity();
        BytesMut {
            vec: std::mem::replace(&mut self.vec, Vec::with_capacity(cap)),
        }
    }

    /// Convert into an immutable [`Bytes`] without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.vec)
    }
}

/// Writer surface over a growable byte buffer.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a big-endian u32.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u64.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.vec.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_reader_writer() {
        let mut w = BytesMut::with_capacity(32);
        w.put_u32(0xDEAD_BEEF);
        w.put_u8(7);
        w.put_u64(42);
        w.put_slice(b"abc");
        let mut r = w.freeze();
        assert_eq!(r.remaining(), 4 + 1 + 8 + 3);
        assert_eq!(r.get_u32(), 0xDEAD_BEEF);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u64(), 42);
        assert_eq!(r.copy_to_bytes(3).as_slice(), b"abc");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn split_detaches_and_keeps_capacity() {
        let mut w = BytesMut::with_capacity(64);
        w.put_slice(b"frame-1");
        let first = w.split().freeze();
        assert_eq!(first.as_slice(), b"frame-1");
        assert!(w.is_empty(), "writer empty after split");
        assert!(w.capacity() >= 64, "allocation kept for reuse");
        w.put_slice(b"frame-2");
        let second = w.split().freeze();
        assert_eq!(second.as_slice(), b"frame-2");
        assert_eq!(first.as_slice(), b"frame-1", "detached frame unaffected");
        w.reserve(128);
        assert!(w.capacity() >= 128);
        w.put_u8(1);
        w.clear();
        assert!(w.is_empty());
    }

    #[test]
    fn slices_share_storage() {
        let b = Bytes::copy_from_slice(b"hello world");
        let s = b.slice(6..);
        assert_eq!(s.as_slice(), b"world");
        assert_eq!(b.len(), 11, "parent view unchanged");
        let s2 = s.slice(0..3);
        assert_eq!(s2.as_slice(), b"wor");
    }

    #[test]
    fn copy_to_bytes_is_zero_copy() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let head_ptr = b.as_slice().as_ptr();
        let taken = b.copy_to_bytes(2);
        assert_eq!(taken.as_slice(), &[1, 2]);
        assert_eq!(
            taken.as_slice().as_ptr(),
            head_ptr,
            "shares backing storage"
        );
        assert_eq!(b.as_slice(), &[3, 4, 5]);
    }

    #[test]
    fn equality_and_debug() {
        let a = Bytes::from_static(b"xy");
        let b = Bytes::from(vec![b'x', b'y']);
        assert_eq!(a, b);
        assert!(format!("{a:?}").contains("xy"));
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::new(), Bytes::from(Vec::new()));
        assert_eq!(Bytes::new().slice(..).as_slice(), b"");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::from_static(b"abc");
        let _ = b.slice(0..4);
    }
}
