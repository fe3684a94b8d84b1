//! Shared fixtures for the Criterion benchmarks.
//!
//! Each benchmark regenerates a paper artifact (a table or figure) or
//! measures a core kernel; the fixtures here build the inputs once per
//! bench so the timed region is the algorithm, not the data generation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use crowdtz_core::{
    place_user, ActivityProfile, GenericProfile, PlacementHistogram, ProfileBuilder,
};
use crowdtz_forum::{CrowdComponent, ForumHost, ForumSpec, Scraper, SimulatedForum};
use crowdtz_synth::PopulationSpec;
use crowdtz_time::{RegionDb, Timestamp, TraceSet, TzOffset, UserTrace};
use crowdtz_tor::{FaultPlan, FaultRates, TorNetwork};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a single-region crowd of `users` synthetic users.
pub fn crowd(region: &str, users: usize, seed: u64) -> TraceSet {
    let db = RegionDb::extended();
    PopulationSpec::new(
        db.get(&region.into())
            .unwrap_or_else(|| panic!("unknown region {region}"))
            .clone(),
    )
    .users(users)
    .seed(seed)
    .posts_per_day(0.5)
    .generate()
}

/// Builds UTC activity profiles for a crowd (30-post threshold).
pub fn profiles(traces: &TraceSet) -> Vec<ActivityProfile> {
    ProfileBuilder::new().min_posts(30).build(traces)
}

/// Places profiles against the reference generic profile.
pub fn placement_histogram(profiles: &[ActivityProfile]) -> PlacementHistogram {
    let generic = GenericProfile::reference();
    let placements: Vec<_> = profiles.iter().map(|p| place_user(p, &generic)).collect();
    PlacementHistogram::from_placements(&placements)
}

/// One integer cumulative table per zone for O(24) inverse sampling of
/// post hours from the reference generic profile.
fn zone_cumulative_tables(generic: &GenericProfile) -> Vec<[u64; 24]> {
    (-11..=12)
        .map(|k| {
            let zone = generic.zone_profile(k);
            let mut cum = [0u64; 24];
            let mut acc = 0u64;
            for (h, c) in cum.iter_mut().enumerate() {
                acc += (zone.as_slice()[h] * 1e6) as u64 + 1;
                *c = acc;
            }
            cum
        })
        .collect()
}

/// Samples one user's posts (one per synthetic day) from a zone table.
fn sample_posts(table: &[u64; 24], posts_per_user: usize, rng: &mut StdRng) -> Vec<Timestamp> {
    let total = table[23];
    (0..posts_per_user)
        .map(|day| {
            let r = rng.gen_range(0..total);
            let hour = table.iter().position(|&c| r < c).unwrap();
            Timestamp::from_secs(day as i64 * 86_400 + hour as i64 * 3_600)
        })
        .collect()
}

/// Synthesizes `users` activity profiles spread round-robin across all 24
/// time zones, sampling each user's post hours from the reference generic
/// profile shifted to their zone.
///
/// This skips trace generation entirely (no population model, no per-post
/// civil-time bookkeeping), which is what makes the 100k-user placement
/// benchmarks affordable; the profiles still have the realistic diurnal
/// shape placement pruning sees in practice.
pub fn synthetic_profiles(users: usize, posts_per_user: usize, seed: u64) -> Vec<ActivityProfile> {
    let generic = GenericProfile::reference();
    let tables = zone_cumulative_tables(&generic);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..users)
        .map(|i| {
            let posts = sample_posts(&tables[i % tables.len()], posts_per_user, &mut rng);
            ActivityProfile::from_trace_offset(
                &UserTrace::new(format!("u{i:06}"), posts),
                TzOffset::UTC,
            )
            .expect("synthetic trace is non-empty")
        })
        .collect()
}

/// The trace-level counterpart of [`synthetic_profiles`]: the same
/// round-robin zone crowd, but returned as a [`TraceSet`] so benchmarks
/// can exercise the full trace → profile → placement path — batch
/// (`GeolocationPipeline::analyze`) or streaming
/// (`ConcurrentStreamingPipeline` writers).
pub fn synthetic_traces(users: usize, posts_per_user: usize, seed: u64) -> TraceSet {
    let generic = GenericProfile::reference();
    let tables = zone_cumulative_tables(&generic);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = TraceSet::default();
    for i in 0..users {
        let posts = sample_posts(&tables[i % tables.len()], posts_per_user, &mut rng);
        out.insert(UserTrace::new(format!("u{i:06}"), posts));
    }
    out
}

/// Publishes a simulated Italian forum behind a (possibly chaotic) Tor
/// network and returns a retrying scraper connected to it.
///
/// `fault_rate` is the total per-request fault probability, spread across
/// all fault kinds with [`FaultRates::mixed`]; `0.0` leaves the network
/// fault-free. The scraper keeps its default [`RetryPolicy`], so the
/// timed region includes retries, backoff accounting, and circuit
/// rebuilds — the overhead the chaos benchmarks measure.
///
/// [`RetryPolicy`]: crowdtz_forum::RetryPolicy
pub fn chaotic_scraper(users: usize, fault_rate: f64, seed: u64) -> Scraper {
    let spec = ForumSpec::new(
        "Bench Forum",
        vec![CrowdComponent::new("italy", 1.0)],
        users,
    )
    .seed(seed);
    let forum = SimulatedForum::generate(&spec);
    let mut network = TorNetwork::with_relays(40, seed);
    if fault_rate > 0.0 {
        network.set_fault_plan(FaultPlan::new(seed, FaultRates::mixed(fault_rate)));
    }
    let address = network
        .publish(ForumHost::new(forum).into_hidden_service(seed))
        .expect("publish bench forum");
    Scraper::new(network.connect(&address, seed).expect("connect"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaotic_scraper_completes_a_dump() {
        let mut scraper = chaotic_scraper(5, 0.15, 7);
        let report = scraper.dump().expect("dump survives chaos");
        assert_eq!(report.coverage(), 1.0);
        assert!(report.stats().faults_absorbed > 0);
    }

    #[test]
    fn synthetic_profiles_are_cheap_and_placeable() {
        let profs = synthetic_profiles(48, 40, 1);
        assert_eq!(profs.len(), 48);
        assert!(profs.iter().all(|p| p.post_count() == 40));
        let hist = placement_histogram(&profs);
        assert_eq!(hist.users(), 48);
    }

    #[test]
    fn synthetic_traces_rebuild_the_synthetic_profiles() {
        let profs = synthetic_profiles(24, 40, 9);
        let traces = synthetic_traces(24, 40, 9);
        assert_eq!(traces.len(), 24);
        assert_eq!(traces.total_posts(), 24 * 40);
        // Same RNG stream and zone tables: building profiles from the
        // traces recovers the profile fixture exactly.
        let rebuilt = profiles(&traces);
        assert_eq!(rebuilt.len(), profs.len());
        for (a, b) in rebuilt.iter().zip(&profs) {
            assert_eq!(a.user(), b.user());
            assert_eq!(a.distribution().as_slice(), b.distribution().as_slice());
        }
    }

    #[test]
    fn fixtures_build() {
        let traces = crowd("japan", 10, 1);
        let profiles = profiles(&traces);
        assert!(!profiles.is_empty());
        let hist = placement_histogram(&profiles);
        assert_eq!(hist.users(), profiles.len());
    }
}
