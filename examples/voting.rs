//! The Costa Rica electronic-voting scenario of Section 1.1: voter-ID
//! locking over a (b, ε)-masking quorum system.
//!
//! A country-wide service of 1024 voting stations locks each voter ID the
//! first time it is presented. Some stations are corrupt (Byzantine) and
//! some are simply offline, yet first votes are accepted and repeat votes
//! are detected with near certainty.
//!
//! Run with `cargo run --example voting`.

use probabilistic_quorums::apps::voting::{repeat_voting_experiment, VoterLockService};
use probabilistic_quorums::core::prelude::*;
use probabilistic_quorums::protocols::cluster::Cluster;
use probabilistic_quorums::protocols::server::Behavior;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 1024u32; // voting stations acting as replicas of the lock records
    let byzantine = 30u32; // stations altered by bribed officials
    let offline = 100u32; // stations that are simply down on election day

    let system = ProbabilisticMasking::with_target_epsilon(n, byzantine, 1e-3)?;
    println!("voter-lock service over {n} stations");
    println!("  masking quorum size : {}", system.quorum_size());
    println!("  read threshold k    : {}", system.read_threshold());
    println!("  exact epsilon       : {:.2e}", system.epsilon());
    println!(
        "  strict masking limit would be b <= {}; we tolerate b = {byzantine}",
        probabilistic_quorums::core::byzantine::max_masking_threshold(n)
    );

    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut cluster = Cluster::new(system.universe());
    // Corrupt and crash stations.
    cluster.corrupt_all((0..byzantine).map(ServerId::new), Behavior::ByzantineForge);
    cluster.crash_all((byzantine..byzantine + offline).map(ServerId::new));

    let mut service = VoterLockService::new(&system, system.read_threshold());
    let voters = 2000u64;
    let repeats = 2u32;
    let stats = repeat_voting_experiment(&mut service, &mut cluster, &mut rng, voters, repeats);

    println!("\nelection-day run: {voters} voters, {repeats} repeat attempts each");
    println!("  first votes accepted : {}", stats.first_attempts_accepted);
    println!("  repeats rejected     : {}", stats.repeats_rejected);
    println!("  repeats missed       : {}", stats.repeats_accepted);
    println!("  unavailable attempts : {}", stats.unavailable);
    println!(
        "  undetected repeat rate: {:.4e}",
        stats.undetected_repeat_rate()
    );

    // Voter 0 voted at station 1 above; a new voter and a repeat, by hand.
    let fresh = service.cast_vote(&mut cluster, &mut rng, 5, voters);
    let repeat = service.cast_vote(&mut cluster, &mut rng, 99, 0);
    println!("\nvoter {voters} at station 5: {fresh:?}");
    println!("voter 0 again at station 99: {repeat:?}");
    Ok(())
}
