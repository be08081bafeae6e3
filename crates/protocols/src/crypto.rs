//! Simulated digital signatures for self-verifying data.
//!
//! Section 4 assumes "data that servers can suppress but not undetectably
//! alter (such as digitally signed data)".  Deploying a real signature
//! scheme is orthogonal to the quorum analysis, so this workspace simulates
//! one with a keyed hash: each writer holds a secret [`SigningKey`]; a
//! [`KeyRegistry`] plays the role of the public-key infrastructure and lets
//! anyone *verify* a signature, but forging a signature for a key you do not
//! hold requires guessing a 64-bit secret — which the Byzantine server
//! behaviours in this workspace do not do.  This preserves exactly the
//! property the protocol analysis relies on while keeping the workspace
//! dependency-free.  (See DESIGN.md, "Substitutions".)

use crate::timestamp::Timestamp;
use crate::value::{TaggedValue, Value};
use crate::ClientId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// A writer's secret signing key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SigningKey {
    owner: ClientId,
    secret: u64,
}

impl SigningKey {
    /// Derives a key for `owner` from a seed (in a real deployment this
    /// would be generated randomly and distributed out of band).
    pub fn derive(owner: ClientId, seed: u64) -> Self {
        SigningKey {
            owner,
            secret: mix(seed ^ 0x9e37_79b9_7f4a_7c15, owner as u64 + 1),
        }
    }

    /// The client this key belongs to.
    pub fn owner(&self) -> ClientId {
        self.owner
    }

    /// Signs a value–timestamp pair.
    pub fn sign(&self, value: &Value, timestamp: Timestamp) -> Signature {
        Signature(tag(self.secret, self.owner, value, timestamp))
    }
}

/// A (simulated) signature over a value–timestamp pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Signature(u64);

/// The public side of the key registry: maps writers to verification
/// material.
///
/// # Examples
///
/// ```
/// use pqs_protocols::crypto::{KeyRegistry, SigningKey};
/// use pqs_protocols::timestamp::Timestamp;
/// use pqs_protocols::value::Value;
///
/// let mut registry = KeyRegistry::new();
/// let key = registry.register(3, 1234);
/// let v = Value::from_u64(10);
/// let ts = Timestamp::new(1, 3);
/// let sig = key.sign(&v, ts);
/// assert!(registry.verify(3, &v, ts, sig));
/// assert!(!registry.verify(3, &Value::from_u64(11), ts, sig));
/// ```
///
/// Clones share one map (every dissemination read session carries a
/// registry, so a clone must not copy the table);
/// [`register`](Self::register) on a shared registry copies it first, so
/// clones never observe each other's later registrations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeyRegistry {
    secrets: Arc<HashMap<ClientId, u64>>,
}

impl KeyRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a writer and returns its signing key.
    pub fn register(&mut self, owner: ClientId, seed: u64) -> SigningKey {
        let key = SigningKey::derive(owner, seed);
        Arc::make_mut(&mut self.secrets).insert(owner, key.secret);
        key
    }

    /// Returns `true` if `owner` has a registered key.
    pub fn knows(&self, owner: ClientId) -> bool {
        self.secrets.contains_key(&owner)
    }

    /// Verifies a signature allegedly produced by `owner` over the pair.
    pub fn verify(
        &self,
        owner: ClientId,
        value: &Value,
        timestamp: Timestamp,
        signature: Signature,
    ) -> bool {
        match self.secrets.get(&owner) {
            Some(&secret) => Signature(tag(secret, owner, value, timestamp)) == signature,
            None => false,
        }
    }

    /// Verifies a [`SignedValue`] end to end.
    pub fn verifies(&self, signed: &SignedValue) -> bool {
        self.verify(
            signed.writer,
            &signed.tagged.value,
            signed.tagged.timestamp,
            signed.signature,
        )
    }
}

/// A self-verifying record: value, timestamp, writer and signature — what
/// servers store under the dissemination protocol of Section 4 ("the
/// timestamps are assumed to be included as part of the self-verifying
/// data").
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SignedValue {
    /// The value–timestamp pair being certified.
    pub tagged: TaggedValue,
    /// The client that produced (and signed) the pair.
    pub writer: ClientId,
    /// Signature over the pair by the writer's key.
    pub signature: Signature,
}

impl SignedValue {
    /// Signs a value–timestamp pair with the given key.
    pub fn create(key: &SigningKey, value: Value, timestamp: Timestamp) -> Self {
        let signature = key.sign(&value, timestamp);
        SignedValue {
            tagged: TaggedValue::new(value, timestamp),
            writer: key.owner(),
            signature,
        }
    }

    /// The record every replica starts with: an unsigned placeholder at
    /// timestamp zero (it never verifies, so readers ignore it — matching
    /// the "⊥ if V′ is empty" case of the read protocol).
    pub fn unsigned_initial() -> Self {
        SignedValue {
            tagged: TaggedValue::initial(),
            writer: 0,
            signature: Signature(0),
        }
    }
}

/// A keyed tag (64-bit) over the record; plays the role of MAC/signature.
fn tag(secret: u64, owner: ClientId, value: &Value, timestamp: Timestamp) -> u64 {
    let mut acc = mix(secret, 0x517c_c1b7_2722_0a95);
    acc = mix(acc, owner as u64);
    acc = mix(acc, timestamp.counter());
    acc = mix(acc, timestamp.writer() as u64);
    for chunk in value.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        acc = mix(acc, u64::from_le_bytes(word));
    }
    acc = mix(acc, value.as_bytes().len() as u64);
    acc
}

/// A simple 64-bit mixing step (splitmix64 finalizer).
fn mix(state: u64, input: u64) -> u64 {
    let mut z = state ^ input.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (KeyRegistry, SigningKey) {
        let mut reg = KeyRegistry::new();
        let key = reg.register(7, 42);
        (reg, key)
    }

    #[test]
    fn sign_and_verify_roundtrip() {
        let (reg, key) = setup();
        let v = Value::from_u64(99);
        let ts = Timestamp::new(3, 7);
        let sig = key.sign(&v, ts);
        assert!(reg.verify(7, &v, ts, sig));
        assert!(reg.knows(7));
        assert!(!reg.knows(8));
    }

    #[test]
    fn verification_fails_on_any_tampering() {
        let (reg, key) = setup();
        let v = Value::from_u64(99);
        let ts = Timestamp::new(3, 7);
        let sig = key.sign(&v, ts);
        // Altered value.
        assert!(!reg.verify(7, &Value::from_u64(100), ts, sig));
        // Altered timestamp (replay at a higher timestamp).
        assert!(!reg.verify(7, &v, Timestamp::new(4, 7), sig));
        // Wrong claimed writer.
        assert!(!reg.verify(6, &v, ts, sig));
        // Unknown writer.
        assert!(!reg.verify(99, &v, ts, sig));
    }

    #[test]
    fn registry_clones_share_until_one_registers() {
        let (mut reg, _) = setup();
        let snapshot = reg.clone();
        assert!(Arc::ptr_eq(&reg.secrets, &snapshot.secrets));
        reg.register(8, 1);
        assert!(reg.knows(8));
        assert!(
            !snapshot.knows(8),
            "a clone keeps the table it was taken from"
        );
        assert!(snapshot.knows(7));
    }

    #[test]
    fn different_writers_produce_different_signatures() {
        let mut reg = KeyRegistry::new();
        let k1 = reg.register(1, 5);
        let k2 = reg.register(2, 5);
        let v = Value::from_u64(1);
        let ts = Timestamp::new(1, 1);
        assert_ne!(k1.sign(&v, ts), k2.sign(&v, ts));
    }

    #[test]
    fn signed_value_roundtrip_and_initial() {
        let (reg, key) = setup();
        let signed = SignedValue::create(&key, Value::from_u64(5), Timestamp::new(2, 7));
        assert!(reg.verifies(&signed));
        assert_eq!(signed.writer, 7);
        // Tampering with the stored record is detected.
        let mut forged = signed.clone();
        forged.tagged.value = Value::from_u64(6);
        assert!(!reg.verifies(&forged));
        // The initial placeholder never verifies.
        assert!(!reg.verifies(&SignedValue::unsigned_initial()));
    }

    #[test]
    fn signature_depends_on_value_length_extension() {
        let (_, key) = setup();
        let ts = Timestamp::new(1, 7);
        let a = key.sign(&Value::new(vec![1, 0]), ts);
        let b = key.sign(&Value::new(vec![1]), ts);
        assert_ne!(a, b, "length must be part of the tag");
    }
}
