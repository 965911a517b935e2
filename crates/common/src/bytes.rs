//! Shared binary-codec primitives: fixed-width little-endian writers and
//! a bounds-checked read cursor.
//!
//! The message vocabulary's one codec (`rastor_core::codec`) and the wire
//! envelopes and control frames around it (`rastor_net::wire`) are built
//! on these, so the security-relevant invariants (bounds-checked reads,
//! the sequence-length allocation cap) live here exactly once.
//!
//! Malformed input surfaces as [`Error::Codec`], never a panic: whoever
//! produced the bytes (a Byzantine peer, a corrupt disk) owns them.

use crate::{Error, Result};

/// Append a `u32` in little-endian.
pub fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Append a `u64` in little-endian.
pub fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Append a sequence length as a `u32` prefix.
///
/// # Panics
///
/// Panics if `len` exceeds `u32::MAX` — sequences that large are a bug at
/// the call site, not a codec condition.
pub fn put_len(out: &mut Vec<u8>, len: usize) {
    put_u32(out, u32::try_from(len).expect("sequence fits a u32 length"));
}

/// Append a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_len(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// A bounds-checked cursor over a received body.
///
/// Every read is checked against the remaining buffer; decoding layers
/// build their domain types on top of these primitives (tag bytes,
/// integers, length-prefixed strings) and finish with [`Dec::done`] to
/// reject trailing garbage.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A cursor over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Consume exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// [`Error::Codec`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(Error::codec(format!(
                "truncated: wanted {n} bytes at offset {} of a {}-byte body",
                self.pos,
                self.buf.len()
            ))),
        }
    }

    /// Consume one byte.
    ///
    /// # Errors
    ///
    /// [`Error::Codec`] on exhaustion.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Consume a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`Error::Codec`] on exhaustion.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Consume a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`Error::Codec`] on exhaustion.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Consume the element count of a sequence whose elements each encode
    /// to at least `min_elem_len` bytes, rejecting a count the remaining
    /// bytes cannot hold — so `Vec::with_capacity(count)` allocates at most
    /// a constant factor of the body actually received, whatever count a
    /// Byzantine peer or a corrupt record claims.
    ///
    /// # Errors
    ///
    /// [`Error::Codec`] on exhaustion or an impossible count.
    ///
    /// # Panics
    ///
    /// Panics if `min_elem_len` is zero (a call-site bug: no encoded
    /// element is empty).
    pub fn seq_len(&mut self, min_elem_len: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n > remaining / min_elem_len {
            return Err(Error::codec(format!(
                "sequence length {n} exceeds what the {remaining} bytes remaining can hold \
                 (elements are at least {min_elem_len} bytes)"
            )));
        }
        Ok(n)
    }

    /// Consume a length-prefixed byte string (the inverse of
    /// [`put_bytes`]).
    ///
    /// # Errors
    ///
    /// [`Error::Codec`] on exhaustion or an impossible length.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.seq_len(1)?;
        self.take(n)
    }

    /// Assert the body is fully consumed.
    ///
    /// # Errors
    ///
    /// [`Error::Codec`] if trailing bytes remain.
    pub fn done(&self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(Error::codec(format!(
                "{} trailing bytes after a complete body",
                self.buf.len() - self.pos
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut out = Vec::new();
        put_u32(&mut out, 0xAABB_CCDD);
        put_u64(&mut out, 42);
        put_bytes(&mut out, b"hello");
        let mut d = Dec::new(&out);
        assert_eq!(d.u32().unwrap(), 0xAABB_CCDD);
        assert_eq!(d.u64().unwrap(), 42);
        assert_eq!(d.bytes().unwrap(), b"hello");
        d.done().unwrap();
    }

    #[test]
    fn exhaustion_is_a_codec_error() {
        let mut d = Dec::new(&[1, 2]);
        assert!(d.u32().is_err());
        // And the failed read consumed nothing usable: u8 still works.
        let mut d = Dec::new(&[1, 2]);
        assert_eq!(d.u8().unwrap(), 1);
        assert!(d.u64().is_err());
    }

    #[test]
    fn corrupt_sequence_lengths_cannot_demand_allocation() {
        let mut out = Vec::new();
        put_u32(&mut out, u32::MAX); // an absurd element count
        let mut d = Dec::new(&out);
        assert!(d.seq_len(1).is_err());
    }

    /// The count is bounded by what the remaining bytes can hold at the
    /// element's minimum size, not by the byte count itself.
    #[test]
    fn sequence_lengths_are_bounded_by_the_element_size() {
        let mut out = Vec::new();
        put_u32(&mut out, 3);
        out.extend_from_slice(&[0; 26]); // two 13-byte elements
        assert!(Dec::new(&out).seq_len(13).is_err());
        out.extend_from_slice(&[0; 13]);
        assert_eq!(Dec::new(&out).seq_len(13).unwrap(), 3);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let d = Dec::new(&[0]);
        assert!(d.done().is_err());
    }
}
