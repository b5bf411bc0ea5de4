//! Offline shim for the `bytes` crate surface used by this workspace.
//!
//! [`Bytes`] is an `Arc<Vec<u8>>`, so `clone` is an O(1) reference-count bump. An
//! empty buffer ([`Bytes::new`]) has no storage and allocates nothing, as in the real
//! crate.

use std::ops::Deref;
use std::sync::Arc;

/// Cheaply cloneable, immutable byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    /// `None`: the empty buffer `new` makes.
    data: Option<Arc<Vec<u8>>>,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes { data: None }
    }

    /// A buffer copied from a static slice.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::copy_from_slice(bytes)
    }

    /// A buffer copied from an arbitrary slice.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    /// Number of bytes in the buffer.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// View as a plain byte slice.
    pub fn as_slice(&self) -> &[u8] {
        self.data.as_deref().map_or(&[], Vec::as_slice)
    }

    /// Copy the buffer into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
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
        Bytes {
            data: Some(Arc::new(v)),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_storage() {
        let b = Bytes::copy_from_slice(b"hello world");
        let c = b.clone();
        assert_eq!(c.as_slice().as_ptr(), b.as_slice().as_ptr());
        assert_eq!(c.to_vec(), b"hello world");
    }

    #[test]
    fn equality_and_debug() {
        let a = Bytes::from_static(b"xy");
        let b = Bytes::from(vec![b'x', b'y']);
        assert_eq!(a, b);
        assert!(format!("{a:?}").contains("xy"));
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::new(), Bytes::from(Vec::new()));
        assert_eq!(Bytes::from(String::from("s")).len(), 1);
    }
}
