//! Offline stand-in for the `bytes` crate.
//!
//! [`Bytes`] here is an `Arc<[u8]>`: immutable, cheap to clone, and
//! sufficient for the IPL payload container this workspace uses. The
//! zero-copy slicing machinery of the real crate is not reproduced.

use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted byte buffer.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes { data: v.into() }
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_clone_share_storage() {
        let b: Bytes = vec![1u8, 2, 3].into();
        let c = b.clone();
        assert_eq!(&*b, &[1, 2, 3]);
        assert_eq!(b, c);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
    }
}
