//! Quorums: sets of servers drawn from a [`Universe`].
//!
//! A [`Quorum`] is an immutable set of servers tied to the universe it was
//! drawn from.  It exposes exactly the operations the paper's analysis
//! needs: cardinality, intersection size with another quorum, and whether
//! the intersection is contained in a (Byzantine) subset.

use crate::bitset::BitSet;
use crate::universe::{ServerId, Universe};
use crate::CoreError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An immutable set of servers from a particular universe.
///
/// # Examples
///
/// ```
/// use pqs_core::quorum::Quorum;
/// use pqs_core::universe::{ServerId, Universe};
///
/// let u = Universe::new(10);
/// let q1 = Quorum::from_indices(u, [0u32, 1, 2]).unwrap();
/// let q2 = Quorum::from_indices(u, [2u32, 3, 4]).unwrap();
/// assert_eq!(q1.len(), 3);
/// assert!(q1.intersects(&q2));
/// assert_eq!(q1.intersection_size(&q2), 1);
/// assert!(q1.contains(ServerId::new(1)));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Quorum {
    universe: Universe,
    members: BitSet,
}

impl Quorum {
    /// Builds a quorum from raw server indices.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ServerOutOfRange`] if any index is outside the
    /// universe.
    pub fn from_indices<I>(universe: Universe, indices: I) -> crate::Result<Self>
    where
        I: IntoIterator<Item = u32>,
    {
        let mut members = BitSet::new(universe.size() as usize);
        for idx in indices {
            if idx >= universe.size() {
                return Err(CoreError::ServerOutOfRange {
                    server: idx as u64,
                    universe: universe.size() as u64,
                });
            }
            members.insert(idx as usize);
        }
        Ok(Quorum { universe, members })
    }

    /// The quorum containing every server of the universe.
    pub fn full(universe: Universe) -> Self {
        Quorum {
            members: BitSet::full(universe.size() as usize),
            universe,
        }
    }

    /// The universe this quorum was drawn from.
    pub fn universe(&self) -> Universe {
        self.universe
    }

    /// Number of servers in the quorum.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the quorum contains no servers.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Returns `true` if `server` belongs to the quorum.
    pub fn contains(&self, server: ServerId) -> bool {
        self.members.contains(server.as_usize())
    }

    /// Iterator over the servers in the quorum, in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.members.iter().map(|i| ServerId::new(i as u32))
    }

    /// The servers as a sorted vector of ids.
    pub fn to_vec(&self) -> Vec<ServerId> {
        self.iter().collect()
    }

    /// A view of the underlying bitset.
    pub fn as_bitset(&self) -> &BitSet {
        &self.members
    }

    /// Number of servers shared with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the two quorums come from universes of different sizes.
    pub fn intersection_size(&self, other: &Quorum) -> usize {
        self.members.intersection_count(&other.members)
    }

    /// Returns `true` if the quorums share at least one server
    /// (the strict-quorum intersection property of Definition 2.2).
    pub fn intersects(&self, other: &Quorum) -> bool {
        self.members.intersects(&other.members)
    }

    /// The servers in both quorums.
    pub fn intersection(&self, other: &Quorum) -> Quorum {
        Quorum {
            universe: self.universe,
            members: self.members.intersection(&other.members),
        }
    }

    /// The servers of `self` that are *not* in `bad` — e.g. `Q ∩ Q′ ∖ B` in
    /// the masking analysis (Section 5).
    pub fn without(&self, bad: &Quorum) -> Quorum {
        Quorum {
            universe: self.universe,
            members: self.members.difference(&bad.members),
        }
    }

    /// Returns `true` if every server of this quorum lies inside `set` —
    /// the event `Q ∩ Q′ ⊆ B` from Definition 4.1 is
    /// `q1.intersection(&q2).is_subset_of(&byz)`.
    pub fn is_subset_of(&self, set: &Quorum) -> bool {
        self.members.is_subset_of(&set.members)
    }

    /// Size of `self ∩ other ∖ bad`, the number of *correct* servers that
    /// observe both quorums (the variable `Y` of Section 5.3).
    pub fn correct_overlap(&self, other: &Quorum, bad: &Quorum) -> usize {
        self.members
            .intersection(&other.members)
            .difference(&bad.members)
            .len()
    }

    /// Size of `self ∩ bad`, the number of faulty servers contacted
    /// (the variable `X` of Section 5.3).
    pub fn faulty_overlap(&self, bad: &Quorum) -> usize {
        self.members.intersection_count(&bad.members)
    }
}

impl fmt::Debug for Quorum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Quorum(n={}, {{", self.universe.size())?;
        let mut first = true;
        for s in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{}", s.index())?;
            first = false;
        }
        write!(f, "}})")
    }
}

impl fmt::Display for Quorum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for s in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}", s.index())?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u10() -> Universe {
        Universe::new(10)
    }

    #[test]
    fn construction_and_membership() {
        let q = Quorum::from_indices(u10(), [1u32, 3, 5]).unwrap();
        assert_eq!(q.len(), 3);
        assert!(!q.is_empty());
        assert!(q.contains(ServerId::new(3)));
        assert!(!q.contains(ServerId::new(2)));
        assert_eq!(q.universe().size(), 10);
        assert_eq!(
            q.to_vec(),
            vec![ServerId::new(1), ServerId::new(3), ServerId::new(5)]
        );
    }

    #[test]
    fn out_of_range_server_rejected() {
        let err = Quorum::from_indices(u10(), [1u32, 10]).unwrap_err();
        assert!(matches!(
            err,
            CoreError::ServerOutOfRange { server: 10, .. }
        ));
    }

    #[test]
    fn full_quorum_contains_everything() {
        let q = Quorum::full(u10());
        assert_eq!(q.len(), 10);
        for s in u10().servers() {
            assert!(q.contains(s));
        }
    }

    #[test]
    fn intersection_operations() {
        let a = Quorum::from_indices(u10(), [0u32, 1, 2, 3]).unwrap();
        let b = Quorum::from_indices(u10(), [2u32, 3, 4]).unwrap();
        assert!(a.intersects(&b));
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(a.intersection(&b).to_vec().len(), 2);
        let c = Quorum::from_indices(u10(), [7u32, 8]).unwrap();
        assert!(!a.intersects(&c));
        assert_eq!(a.intersection_size(&c), 0);
    }

    #[test]
    fn byzantine_overlap_helpers() {
        // Q = {0..4}, Q' = {3..7}, B = {3, 4}
        let q = Quorum::from_indices(u10(), 0u32..5).unwrap();
        let q2 = Quorum::from_indices(u10(), 3u32..8).unwrap();
        let b = Quorum::from_indices(u10(), [3u32, 4]).unwrap();
        // Q ∩ Q' = {3, 4} which is a subset of B.
        assert!(q.intersection(&q2).is_subset_of(&b));
        assert_eq!(q.correct_overlap(&q2, &b), 0);
        assert_eq!(q.faulty_overlap(&b), 2);
        // Make B smaller: Q ∩ Q' no longer inside B.
        let b_small = Quorum::from_indices(u10(), [3u32]).unwrap();
        assert!(!q.intersection(&q2).is_subset_of(&b_small));
        assert_eq!(q.correct_overlap(&q2, &b_small), 1);
    }

    #[test]
    fn without_removes_bad_servers() {
        let q = Quorum::from_indices(u10(), [0u32, 1, 2]).unwrap();
        let bad = Quorum::from_indices(u10(), [1u32, 5]).unwrap();
        let good = q.without(&bad);
        assert_eq!(good.to_vec(), vec![ServerId::new(0), ServerId::new(2)]);
    }

    #[test]
    fn display_and_debug() {
        let q = Quorum::from_indices(u10(), [1u32, 2]).unwrap();
        assert_eq!(q.to_string(), "{1,2}");
        let dbg = format!("{q:?}");
        assert!(dbg.contains("n=10"));
        let empty = Quorum::from_indices(u10(), std::iter::empty()).unwrap();
        assert_eq!(empty.to_string(), "{}");
        assert!(!format!("{empty:?}").is_empty());
    }

    #[test]
    fn equality_and_hashing() {
        use std::collections::HashSet;
        let a = Quorum::from_indices(u10(), [1u32, 2]).unwrap();
        let b = Quorum::from_indices(u10(), [2u32, 1]).unwrap();
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }
}
