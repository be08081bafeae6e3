//! The universe of servers and server identifiers.
//!
//! The paper assumes "a universe `U` of servers, `|U| = n`, and a distinct
//! set of clients" (Section 2).  Servers are identified by dense indices
//! `0..n`, wrapped in the [`ServerId`] newtype so that indices into other
//! collections cannot be confused with server identities.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a single server in a universe.
///
/// Server ids are dense indices `0..n`; they are meaningful only relative to
/// the [`Universe`] they were created for.
///
/// # Examples
///
/// ```
/// use pqs_core::universe::ServerId;
/// let s = ServerId::new(3);
/// assert_eq!(s.index(), 3);
/// assert_eq!(format!("{s}"), "s3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ServerId(u32);

impl ServerId {
    /// Creates a server id from its dense index.
    pub fn new(index: u32) -> Self {
        ServerId(index)
    }

    /// The dense index of this server.
    pub fn index(self) -> u32 {
        self.0
    }

    /// The dense index as a `usize`, for indexing into vectors.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<u32> for ServerId {
    fn from(v: u32) -> Self {
        ServerId(v)
    }
}

impl From<ServerId> for u32 {
    fn from(v: ServerId) -> Self {
        v.0
    }
}

/// A universe of `n` servers, identified `0..n`.
///
/// # Examples
///
/// ```
/// use pqs_core::universe::Universe;
/// let u = Universe::new(100);
/// assert_eq!(u.size(), 100);
/// assert_eq!(u.servers().count(), 100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Universe {
    size: u32,
}

impl Universe {
    /// Creates a universe of `size` servers.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero; an empty universe admits no quorum system.
    pub fn new(size: u32) -> Self {
        assert!(size > 0, "a universe must contain at least one server");
        Universe { size }
    }

    /// Number of servers `n` in the universe.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Iterator over all server ids in the universe.
    pub fn servers(&self) -> impl Iterator<Item = ServerId> + '_ {
        (0..self.size).map(ServerId::new)
    }

    /// Returns `true` if `server` belongs to this universe.
    pub fn contains(&self, server: ServerId) -> bool {
        server.index() < self.size
    }

    /// `√n` as a float, used when converting the paper's `ℓ√n` quorum sizes.
    pub fn sqrt(&self) -> f64 {
        (self.size as f64).sqrt()
    }
}

impl fmt::Display for Universe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Universe(n={})", self.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_id_roundtrip() {
        let s = ServerId::new(7);
        assert_eq!(s.index(), 7);
        assert_eq!(s.as_usize(), 7usize);
        assert_eq!(u32::from(s), 7);
        assert_eq!(ServerId::from(7u32), s);
        assert_eq!(s.to_string(), "s7");
    }

    #[test]
    fn server_id_ordering() {
        assert!(ServerId::new(1) < ServerId::new(2));
        assert_eq!(ServerId::new(5), ServerId::new(5));
    }

    #[test]
    fn universe_basics() {
        let u = Universe::new(25);
        assert_eq!(u.size(), 25);
        assert!(u.contains(ServerId::new(0)));
        assert!(u.contains(ServerId::new(24)));
        assert!(!u.contains(ServerId::new(25)));
        assert_eq!(u.servers().count(), 25);
        assert!((u.sqrt() - 5.0).abs() < 1e-12);
        assert_eq!(u.to_string(), "Universe(n=25)");
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_universe_panics() {
        let _ = Universe::new(0);
    }

    #[test]
    fn servers_are_dense_and_ordered() {
        let u = Universe::new(5);
        let ids: Vec<u32> = u.servers().map(|s| s.index()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }
}
