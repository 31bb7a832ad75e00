//! The byte buffer a v3 snapshot is read into.
//!
//! [`AlignedBytes`] is what [`Vfs::read_aligned`](super::vfs::Vfs::read_aligned)
//! returns and what [`load_compiled_arena`](super::v3::load_compiled_arena)
//! takes. The v3 loader bulk-decodes every column it serves into owned
//! vectors (see [`super::v3`]), so nothing reinterprets these bytes in
//! place and nothing needs them word-aligned: the buffer is a plain
//! byte vector. It keeps its name because benchmark and serving code
//! outside this crate reads snapshots through it.

/// An owned snapshot buffer.
pub struct AlignedBytes {
    bytes: Vec<u8>,
}

impl AlignedBytes {
    /// Copies `bytes` into a fresh buffer.
    pub fn from_bytes(bytes: &[u8]) -> AlignedBytes {
        AlignedBytes::from(bytes.to_vec())
    }

    /// The buffer contents.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

impl From<Vec<u8>> for AlignedBytes {
    /// Takes ownership of `bytes` without copying.
    fn from(bytes: Vec<u8>) -> AlignedBytes {
        AlignedBytes { bytes }
    }
}

impl std::fmt::Debug for AlignedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedBytes")
            .field("len", &self.len())
            .finish()
    }
}
