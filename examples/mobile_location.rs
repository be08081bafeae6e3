//! The mobile-device location service of Section 1.1: a replicated location
//! directory over an ε-intersecting quorum system.
//!
//! Devices report cell changes through write quorums; callers look devices
//! up through read quorums. A stale answer only forwards the caller to the
//! previous cell, so availability — not strict consistency — is what
//! matters, which is exactly the trade probabilistic quorums make.
//!
//! Run with `cargo run --example mobile_location`.

use probabilistic_quorums::apps::location::{mobility_experiment, LocationDirectory};
use probabilistic_quorums::core::prelude::*;
use probabilistic_quorums::protocols::cluster::Cluster;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let stores = 300u32; // location stores
    let system = EpsilonIntersecting::with_target_epsilon(stores, 1e-3)?;
    println!("location directory over {stores} stores");
    println!("  quorum size     : {}", system.quorum_size());
    println!("  exact epsilon   : {:.2e}", system.epsilon());
    println!("  fault tolerance : {}", system.fault_tolerance());

    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let mut cluster = Cluster::new(system.universe());
    let mut directory = LocationDirectory::new(&system);

    // Healthy phase.
    let healthy = mobility_experiment(&mut directory, &mut cluster, &mut rng, 100, 64, 20, 2);
    println!("\nhealthy phase: 100 devices x 20 moves, 2 lookups per move");
    println!("  reachability : {:.4}", healthy.reachability());
    println!("  staleness    : {:.4}", healthy.staleness());

    // A third of the stores go down; callers still find devices.
    cluster.crash_all((0..stores / 3).map(ServerId::new));
    let degraded = mobility_experiment(&mut directory, &mut cluster, &mut rng, 100, 64, 5, 2);
    println!("\ndegraded phase: {} stores crashed", stores / 3);
    println!("  reachability : {:.4}", degraded.reachability());
    println!("  staleness    : {:.4}", degraded.staleness());

    // One device reports a move by hand; a caller then looks it up.
    let stored = directory.report_move(&mut cluster, &mut rng, 7, 12);
    let found = directory.lookup(&mut cluster, &mut rng, 7);
    println!("\ndevice 7 moves to cell 12 (stored: {stored}); a caller finds {found:?}");
    Ok(())
}
