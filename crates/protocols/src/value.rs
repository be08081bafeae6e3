//! Replicated values and value–timestamp pairs.

use crate::timestamp::Timestamp;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An opaque replicated value.
///
/// Values are byte strings; helpers are provided for the common case of
/// numeric payloads used in tests and experiments.
///
/// Payloads of up to [`Value::INLINE_CAPACITY`] bytes live inside the
/// value itself, so cloning one — and with it every
/// [`TaggedValue`], [`SignedValue`](crate::crypto::SignedValue) and gossip
/// record the protocols exchange — is a fixed-size copy that never touches
/// the allocator.  Longer payloads spill to the heap.  Which representation
/// holds a payload is decided by its length alone and is invisible through
/// the API: equality, hashing and [`as_bytes`](Self::as_bytes) see only the
/// bytes.
///
/// # Examples
///
/// ```
/// use pqs_protocols::value::Value;
/// let v = Value::from_u64(7);
/// assert_eq!(v.as_u64(), Some(7));
/// assert_eq!(Value::new(vec![1, 2, 3]).as_bytes(), &[1, 2, 3]);
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct Value(Repr);

/// 22 payload bytes plus the length byte and the discriminant make the
/// inline variant exactly as large as the boxed slice's, so a `Value` is
/// three words — what the `Vec<u8>` it replaces occupied.
const INLINE_CAPACITY: usize = 22;

#[derive(Clone, Serialize, Deserialize)]
enum Repr {
    /// `bytes[..len]` is the payload; the tail stays zeroed.
    Inline {
        len: u8,
        bytes: [u8; INLINE_CAPACITY],
    },
    /// A payload longer than [`INLINE_CAPACITY`].
    Heap(Box<[u8]>),
}

impl Value {
    /// The longest payload stored without a heap allocation.
    pub const INLINE_CAPACITY: usize = INLINE_CAPACITY;

    /// Wraps raw bytes.
    pub fn new(bytes: Vec<u8>) -> Self {
        if bytes.len() <= INLINE_CAPACITY {
            Self::inline(&bytes)
        } else {
            Value(Repr::Heap(bytes.into_boxed_slice()))
        }
    }

    /// Copies a payload of at most [`INLINE_CAPACITY`] bytes inline.
    fn inline(payload: &[u8]) -> Self {
        let mut bytes = [0u8; INLINE_CAPACITY];
        bytes[..payload.len()].copy_from_slice(payload);
        Value(Repr::Inline {
            len: payload.len() as u8,
            bytes,
        })
    }

    /// Encodes a `u64` as a little-endian value.
    pub fn from_u64(v: u64) -> Self {
        Self::inline(&v.to_le_bytes())
    }

    /// Encodes a string.
    pub fn from_str_value(s: &str) -> Self {
        if s.len() <= INLINE_CAPACITY {
            Self::inline(s.as_bytes())
        } else {
            Value(Repr::Heap(s.as_bytes().into()))
        }
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Heap(bytes) => bytes,
        }
    }

    /// Decodes the value as a little-endian `u64`, if it is exactly 8 bytes.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_bytes().try_into().ok().map(u64::from_le_bytes)
    }

    /// Length of the value in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// Returns `true` for a zero-length value.
    pub fn is_empty(&self) -> bool {
        self.as_bytes().is_empty()
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Value").field(&self.as_bytes()).finish()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.as_u64() {
            Some(v) => write!(f, "u64:{v}"),
            None => write!(f, "bytes[{}]", self.len()),
        }
    }
}

impl From<Vec<u8>> for Value {
    fn from(bytes: Vec<u8>) -> Self {
        Value::new(bytes)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::from_u64(v)
    }
}

impl AsRef<[u8]> for Value {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

/// A value together with the timestamp of the write that produced it — the
/// `⟨v, t⟩` pairs exchanged by the Section 3.1 protocols.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TaggedValue {
    /// The written value.
    pub value: Value,
    /// The timestamp the writer attached to it.
    pub timestamp: Timestamp,
}

impl TaggedValue {
    /// Creates a value–timestamp pair.
    pub fn new(value: Value, timestamp: Timestamp) -> Self {
        TaggedValue { value, timestamp }
    }

    /// The pair every replica starts with: an empty value at
    /// [`Timestamp::ZERO`].
    pub fn initial() -> Self {
        TaggedValue {
            value: Value::new(Vec::new()),
            timestamp: Timestamp::ZERO,
        }
    }

    /// Returns whichever of the two pairs carries the higher timestamp.
    pub fn fresher(self, other: TaggedValue) -> TaggedValue {
        if other.timestamp > self.timestamp {
            other
        } else {
            self
        }
    }
}

impl fmt::Display for TaggedValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.value, self.timestamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrips() {
        assert_eq!(Value::from_u64(123).as_u64(), Some(123));
        assert_eq!(Value::new(vec![1, 2]).as_u64(), None);
        assert_eq!(Value::from_str_value("hi").as_bytes(), b"hi");
        assert_eq!(Value::from(9u64), Value::from_u64(9));
        assert_eq!(Value::from(vec![3u8]).len(), 1);
        assert!(Value::new(vec![]).is_empty());
        assert_eq!(Value::from_u64(5).as_ref().len(), 8);
    }

    #[test]
    fn representation_follows_length_and_stays_three_words() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
        assert_eq!(std::mem::size_of::<TaggedValue>(), 40);
        for len in [0, 8, INLINE_CAPACITY, INLINE_CAPACITY + 1, 64] {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let v = Value::new(bytes.clone());
            assert_eq!(v.as_bytes(), &bytes[..]);
            assert_eq!(v.len(), len);
            assert_eq!(
                matches!(v.0, Repr::Inline { .. }),
                len <= INLINE_CAPACITY,
                "length {len}"
            );
            assert_eq!(v.clone(), v);
            assert_eq!(format!("{v:?}"), format!("Value({bytes:?})"));
        }
        let long = "x".repeat(INLINE_CAPACITY + 1);
        assert_eq!(Value::from_str_value(&long).as_bytes(), long.as_bytes());
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::from_u64(4).to_string(), "u64:4");
        assert_eq!(Value::new(vec![1, 2, 3]).to_string(), "bytes[3]");
    }

    #[test]
    fn tagged_value_freshness() {
        let old = TaggedValue::new(Value::from_u64(1), Timestamp::new(1, 0));
        let newer = TaggedValue::new(Value::from_u64(2), Timestamp::new(2, 0));
        assert_eq!(old.clone().fresher(newer.clone()), newer);
        assert_eq!(newer.clone().fresher(old.clone()), newer);
        // Ties keep the receiver (self).
        let tie = TaggedValue::new(Value::from_u64(3), Timestamp::new(2, 0));
        assert_eq!(newer.clone().fresher(tie).value, Value::from_u64(2));
        assert_eq!(TaggedValue::initial().timestamp, Timestamp::ZERO);
        assert!(old.to_string().contains("u64:1"));
    }
}
