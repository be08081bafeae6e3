//! Writer-local timestamps.
//!
//! The access protocols of Section 3.1 attach a timestamp to every written
//! value: "(the writer) chooses a timestamp `t` greater than any timestamp
//! it has chosen in the past".  Readers pick the value with the highest
//! timestamp among the replies.  With a single writer a plain counter
//! suffices; we also carry the writer id so the same type works in
//! multi-writer experiments (ties broken by writer id, the classical
//! Lamport construction).

use crate::ClientId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A totally ordered logical timestamp `(counter, writer)`.
///
/// # Examples
///
/// ```
/// use pqs_protocols::timestamp::Timestamp;
/// let a = Timestamp::new(1, 7);
/// let b = Timestamp::new(2, 3);
/// assert!(a < b);
/// assert!(Timestamp::ZERO < a);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp {
    counter: u64,
    writer: ClientId,
}

impl Timestamp {
    /// The timestamp smaller than any real write (the initial value of every
    /// replica).
    pub const ZERO: Timestamp = Timestamp {
        counter: 0,
        writer: 0,
    };

    /// Creates a timestamp from a counter and the id of the writing client.
    pub fn new(counter: u64, writer: ClientId) -> Self {
        Timestamp { counter, writer }
    }

    /// The counter component.
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// The id of the client that produced this timestamp.
    pub fn writer(&self) -> ClientId {
        self.writer
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@c{}", self.counter, self.writer)
    }
}

/// A per-writer timestamp generator guaranteeing strict monotonicity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimestampIssuer {
    writer: ClientId,
    last: u64,
}

impl TimestampIssuer {
    /// Creates an issuer for the given writer, starting after
    /// [`Timestamp::ZERO`].
    pub fn new(writer: ClientId) -> Self {
        TimestampIssuer { writer, last: 0 }
    }

    /// The writer this issuer belongs to.
    pub fn writer(&self) -> ClientId {
        self.writer
    }

    /// Issues the next timestamp (strictly larger than every previous one).
    ///
    /// Not an [`Iterator`]: issuing is infallible and never exhausts, so an
    /// `Option`-returning iterator impl would misrepresent the contract.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Timestamp {
        self.last += 1;
        Timestamp::new(self.last, self.writer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_counter_then_writer() {
        assert!(Timestamp::new(1, 9) < Timestamp::new(2, 0));
        assert!(Timestamp::new(3, 1) < Timestamp::new(3, 2));
        assert_eq!(Timestamp::new(3, 2), Timestamp::new(3, 2));
        assert!(Timestamp::ZERO < Timestamp::new(1, 0));
    }

    #[test]
    fn display_and_accessors() {
        let t = Timestamp::new(5, 2);
        assert_eq!(t.counter(), 5);
        assert_eq!(t.writer(), 2);
        assert_eq!(t.to_string(), "5@c2");
    }

    #[test]
    fn issuer_is_strictly_monotone() {
        let mut issuer = TimestampIssuer::new(4);
        assert_eq!(issuer.writer(), 4);
        let mut prev = Timestamp::ZERO;
        for _ in 0..100 {
            let t = issuer.next();
            assert!(t > prev);
            assert_eq!(t.writer(), 4);
            prev = t;
        }
    }
}
