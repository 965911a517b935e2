//! Values, timestamps and timestamped pairs.
//!
//! A register stores opaque byte values. The single-writer protocols order
//! writes by a monotonically increasing [`Timestamp`]; the pair of the two is
//! a [`TsVal`], ordered lexicographically (timestamp first) so that `max`
//! over a set of pairs picks the freshest write.
//!
//! The initial register value is the distinguished ⊥ ([`Value::bottom`],
//! paired with timestamp 0 as [`TsVal::bottom`]), which by the paper's model
//! "is not a valid input value for a write operation".

use std::fmt;
use std::sync::Arc;

/// A write timestamp. `Timestamp(0)` is reserved for the initial value ⊥;
/// the `k`-th write of the single writer carries `Timestamp(k)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The timestamp of the initial value ⊥.
    pub const BOTTOM: Timestamp = Timestamp(0);

    /// The successor timestamp (used by the writer before each write).
    #[must_use]
    pub fn next(self) -> Timestamp {
        Timestamp(self.0 + 1)
    }

    /// Whether this is the initial-⊥ timestamp.
    pub fn is_bottom(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts{}", self.0)
    }
}

/// An opaque register value: an immutable, cheaply clonable byte string.
///
/// ```
/// use rastor_common::Value;
/// let v = Value::from_u64(7);
/// assert_eq!(v.as_u64(), Some(7));
/// assert!(!v.is_bottom());
/// assert!(Value::bottom().is_bottom());
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Value(Arc<[u8]>);

impl Value {
    /// The initial value ⊥ (the empty byte string, reserved: writers must
    /// never write it).
    pub fn bottom() -> Value {
        Value(Arc::from(&[][..]))
    }

    /// Build a value from raw bytes.
    ///
    /// An empty byte string denotes ⊥ and is rejected by write operations.
    pub fn from_bytes(bytes: impl Into<Vec<u8>>) -> Value {
        Value(Arc::from(bytes.into().into_boxed_slice()))
    }

    /// Build a value from borrowed bytes: one allocation and one copy,
    /// where [`Value::from_bytes`] on a slice makes two.
    pub fn copy_from_slice(bytes: &[u8]) -> Value {
        Value(Arc::from(bytes))
    }

    /// Convenience constructor encoding a `u64` big-endian.
    pub fn from_u64(x: u64) -> Value {
        Value::from_bytes(x.to_be_bytes().to_vec())
    }

    /// View the raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Decode a value created by [`Value::from_u64`].
    pub fn as_u64(&self) -> Option<u64> {
        let arr: [u8; 8] = self.0.as_ref().try_into().ok()?;
        Some(u64::from_be_bytes(arr))
    }

    /// Whether this is the initial value ⊥.
    pub fn is_bottom(&self) -> bool {
        self.0.is_empty()
    }

    /// Length of the payload in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the payload is empty (equivalent to [`Value::is_bottom`]).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_bottom() {
            write!(f, "⊥")
        } else if let Some(x) = self.as_u64() {
            write!(f, "Value({x})")
        } else {
            write!(f, "Value(0x")?;
            for b in self.0.iter().take(8) {
                write!(f, "{b:02x}")?;
            }
            if self.0.len() > 8 {
                write!(f, "…")?;
            }
            write!(f, ")")
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<u64> for Value {
    fn from(x: u64) -> Value {
        Value::from_u64(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::from_bytes(s.as_bytes().to_vec())
    }
}

impl AsRef<[u8]> for Value {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

/// A timestamped value pair `(ts, val)` — the unit of information objects
/// store and clients exchange.
///
/// Pairs order lexicographically by `(ts, val)`; since the single writer
/// issues distinct timestamps, genuine pairs are totally ordered by `ts`
/// alone, and comparing values only disambiguates forgeries in tests.
///
/// ```
/// use rastor_common::{Timestamp, TsVal, Value};
/// let old = TsVal::new(Timestamp(1), Value::from_u64(10));
/// let new = TsVal::new(Timestamp(2), Value::from_u64(20));
/// assert_eq!(old.max(new.clone()), new);
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TsVal {
    /// The write timestamp.
    pub ts: Timestamp,
    /// The written value.
    pub val: Value,
}

impl TsVal {
    /// Construct a pair.
    pub fn new(ts: Timestamp, val: Value) -> TsVal {
        TsVal { ts, val }
    }

    /// The initial pair `(0, ⊥)`.
    pub fn bottom() -> TsVal {
        TsVal {
            ts: Timestamp::BOTTOM,
            val: Value::bottom(),
        }
    }

    /// Whether this is the initial pair.
    pub fn is_bottom(&self) -> bool {
        self.ts.is_bottom()
    }
}

impl fmt::Display for TsVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.ts, self.val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_succession() {
        assert_eq!(Timestamp::BOTTOM.next(), Timestamp(1));
        assert!(Timestamp::BOTTOM.is_bottom());
        assert!(!Timestamp(3).is_bottom());
        assert!(Timestamp(2) < Timestamp(3));
    }

    #[test]
    fn bottom_value_is_empty() {
        assert!(Value::bottom().is_bottom());
        assert!(Value::bottom().is_empty());
        assert_eq!(Value::bottom().len(), 0);
        assert_eq!(Value::bottom(), Value::from_bytes(Vec::new()));
    }

    #[test]
    fn u64_roundtrip() {
        for x in [0u64, 1, 42, u64::MAX] {
            assert_eq!(Value::from_u64(x).as_u64(), Some(x));
        }
        assert_eq!(Value::from_bytes(vec![1, 2, 3]).as_u64(), None);
        assert_eq!(
            Value::copy_from_slice(&[1, 2, 3]),
            Value::from_bytes(vec![1, 2, 3])
        );
    }

    #[test]
    fn pairs_order_by_timestamp_first() {
        let a = TsVal::new(Timestamp(1), Value::from_u64(99));
        let b = TsVal::new(Timestamp(2), Value::from_u64(1));
        assert!(a < b);
        assert!(TsVal::bottom() < a);
    }

    #[test]
    fn value_is_cheap_to_clone() {
        let v = Value::from_bytes(vec![7; 1024]);
        let w = v.clone();
        assert_eq!(v, w);
        // Same backing allocation.
        assert!(std::ptr::eq(v.as_bytes().as_ptr(), w.as_bytes().as_ptr()));
    }

    #[test]
    fn debug_rendering() {
        assert_eq!(format!("{:?}", Value::bottom()), "⊥");
        assert_eq!(format!("{:?}", Value::from_u64(5)), "Value(5)");
        let raw = Value::from_bytes(vec![0xde, 0xad]);
        assert_eq!(format!("{raw:?}"), "Value(0xdead)");
    }

    #[test]
    fn display_pair() {
        let p = TsVal::new(Timestamp(3), Value::from_u64(8));
        assert_eq!(p.to_string(), "(ts3, Value(8))");
    }
}
