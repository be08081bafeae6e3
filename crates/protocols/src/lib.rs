//! # pqs-protocols
//!
//! Replicated-data access protocols over probabilistic quorum systems, as
//! described in Sections 3.1, 4 and 5 of *Probabilistic Quorum Systems*
//! (Malkhi, Reiter, Wool, Wright).
//!
//! The paper shows how an ε-intersecting quorum system yields a
//! multi-reader, single-writer variable whose semantics approximate a *safe*
//! variable (Theorem 3.2), and how the dissemination and masking variants
//! preserve that guarantee under Byzantine server failures for
//! self-verifying and arbitrary data respectively (Theorems 4.2 and 5.2).
//! This crate implements those protocols against an in-memory replica
//! cluster with pluggable server behaviours (correct, crashed, Byzantine),
//! plus the lazy *diffusion* mechanism sketched in Section 1.1 that drives
//! the residual inconsistency further toward zero.
//!
//! ## Layout
//!
//! * [`timestamp`] — writer-local monotone timestamps.
//! * [`value`] — replicated values and value–timestamp pairs.
//! * [`crypto`] — simulated digital signatures for self-verifying data
//!   (a keyed hash over an in-memory key registry; see DESIGN.md for the
//!   substitution rationale).
//! * [`server`] — a single replica server: storage plus a failure
//!   behaviour, and the [`server::Record`] trait — plain or signed
//!   ⟨v, t⟩ pairs — that every record operation below is generic over.
//! * [`cluster`] — a universe of servers with per-server read/write
//!   probes, failure injection and per-server access accounting.
//! * [`register`] — the client protocol: one [`register::Register`] whose
//!   [`register::RegisterFlavor`] makes it the safe
//!   ([`register::SafeRegister`]), dissemination
//!   ([`register::DisseminationRegister`]) or masking
//!   ([`register::MaskingRegister`]) protocol, plus the sharded key–value
//!   facade ([`register::RegisterMap`]) that runs a flavor over any key.
//! * [`diffusion`] — epidemic propagation of the freshest value between
//!   correct servers: blind push gossip and the digest/delta exchange
//!   (per-key version summaries answered by only the records the summary's
//!   sender provably lacks).
//!
//! The three protocols are one algorithm (Sections 4 and 5 keep the
//! Section 3.1 write "as before"), so nothing here is written per record
//! kind: the plain/signed choice is a type parameter, taken once where a
//! protocol, a read mode or a message payload names it.
//!
//! ## Example
//!
//! ```rust
//! use pqs_core::probabilistic::EpsilonIntersecting;
//! use pqs_core::system::QuorumSystem;
//! use pqs_protocols::cluster::Cluster;
//! use pqs_protocols::register::SafeRegister;
//! use pqs_protocols::value::Value;
//! use rand::SeedableRng;
//!
//! let system = EpsilonIntersecting::with_target_epsilon(100, 1e-3).unwrap();
//! let mut cluster = Cluster::new(system.universe());
//! let mut register = SafeRegister::new(&system, 1);
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//!
//! register.write(&mut cluster, &mut rng, Value::from_u64(42)).unwrap();
//! let read = register.read(&mut cluster, &mut rng).unwrap();
//! assert_eq!(read.unwrap().value, Value::from_u64(42));
//! ```
#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster;
pub mod crypto;
pub mod diffusion;
pub mod register;
pub mod server;
pub mod timestamp;
pub mod value;

mod error;

pub use error::ProtocolError;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, ProtocolError>;

/// Identifier of a client (reader or writer) of the replicated service.
pub type ClientId = u32;
