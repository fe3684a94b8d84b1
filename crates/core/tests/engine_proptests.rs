//! Property tests: the [`PlacementEngine`]'s precomputed-CDF kernel must be
//! indistinguishable from the naive per-call placement path for *arbitrary*
//! profiles — not just the shapes the unit tests pick by hand.

use crowdtz_core::{
    place_distribution, place_user, ActivityProfile, Batch, ConcurrentStreamingPipeline,
    GenericProfile, GeolocationPipeline, PlacementEngine, ZoneGrid,
};
use crowdtz_stats::{Distribution24, BINS};
use crowdtz_time::{Timestamp, TraceSet, TzOffset, UserTrace};
use proptest::prelude::*;

const GRIDS: [ZoneGrid; 3] = [ZoneGrid::Hourly, ZoneGrid::HalfHour, ZoneGrid::QuarterHour];

/// Strategy: an arbitrary valid 24-bin distribution.
fn distribution() -> impl Strategy<Value = Distribution24> {
    proptest::collection::vec(0.0_f64..100.0, BINS).prop_filter_map("needs mass", |v| {
        let arr: [f64; BINS] = v.try_into().ok()?;
        Distribution24::from_weights(&arr).ok()
    })
}

/// Strategy: an arbitrary activity profile, built the way real profiles
/// are — from a trace of posts, one post count per hour of day.
fn activity_profile() -> impl Strategy<Value = ActivityProfile> {
    proptest::collection::vec(0usize..20, BINS).prop_filter_map("needs posts", |counts| {
        let mut posts = Vec::new();
        let mut day = 0i64;
        for (hour, &times) in counts.iter().enumerate() {
            for _ in 0..times {
                posts.push(Timestamp::from_secs(day * 86_400 + hour as i64 * 3_600));
                day += 1;
            }
        }
        ActivityProfile::from_trace_offset(&UserTrace::new("u", posts), TzOffset::UTC)
    })
}

proptest! {
    /// The engine's pruned, precomputed-CDF placement is *bit-identical*
    /// to the naive scan over materialized zone profiles, for arbitrary
    /// generic curves and arbitrary user distributions.
    #[test]
    fn engine_matches_naive_for_arbitrary_distributions(
        local in distribution(),
        user in distribution(),
    ) {
        let generic = GenericProfile::from_distribution(local);
        let engine = PlacementEngine::new(&generic);
        let naive = place_distribution(&user, &generic);
        let fast = engine.place_distribution(&user);
        prop_assert_eq!(naive.0, fast.0, "zone differs");
        prop_assert_eq!(naive.1.to_bits(), fast.1.to_bits(), "emd differs");
    }

    /// Same identity through the full `ActivityProfile` path (the one the
    /// pipeline uses), against the paper's reference generic profile.
    #[test]
    fn engine_matches_naive_place_user(profile in activity_profile()) {
        let generic = GenericProfile::reference();
        let engine = PlacementEngine::new(&generic);
        prop_assert_eq!(place_user(&profile, &generic), engine.place(&profile));
    }

    /// `place_all` is order-stable and thread-count-invariant: the output
    /// for any worker count equals the sequential map, element for element.
    #[test]
    fn place_all_is_thread_count_invariant(
        profiles in proptest::collection::vec(activity_profile(), 1..24),
        threads in 2usize..9,
    ) {
        let engine = PlacementEngine::new(&GenericProfile::reference());
        let sequential = engine.place_all(&profiles, 1);
        let parallel = engine.place_all(&profiles, threads);
        prop_assert_eq!(sequential, parallel);
    }

    /// The flatness decision (§IV.C) from the precomputed uniform CDF
    /// agrees with the naive two-EMD comparison.
    #[test]
    fn is_flat_matches_naive(user in distribution()) {
        let generic = GenericProfile::reference();
        let engine = PlacementEngine::new(&generic);
        let uniform = Distribution24::uniform();
        let best_zone = (-11..=12)
            .map(|k| crowdtz_stats::circular_emd(&user, &generic.zone_profile(k)))
            .fold(f64::INFINITY, f64::min);
        let naive = crowdtz_stats::circular_emd(&user, &uniform) < best_zone;
        prop_assert_eq!(engine.is_flat(&user), naive);
    }
}

proptest! {
    // These walk full batches through the SoA kernel (and whole pipelines
    // below), so fewer but larger cases beat proptest's default 256.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The SoA batch kernel is byte-identical to the scalar per-user scan
    /// on every grid (24/48/96), across batch sizes that cross the 64-lane
    /// boundary (partial final batches included) and across thread counts.
    #[test]
    fn batch_kernel_matches_scalar_on_every_grid_and_thread_count(
        profiles in proptest::collection::vec(activity_profile(), 1..100),
        threads in (0usize..3).prop_map(|i| [1usize, 2, 8][i]),
    ) {
        let generic = GenericProfile::reference();
        for grid in GRIDS {
            let engine = PlacementEngine::with_grid(&generic, grid);
            let batch = engine.place_all(&profiles, threads);
            prop_assert_eq!(batch.len(), profiles.len());
            for (profile, got) in profiles.iter().zip(&batch) {
                let scalar = engine.place(profile);
                prop_assert_eq!(&scalar, got, "grid {} threads {}", grid, threads);
            }
        }
    }

    /// Full-pipeline identity: for each grid, a streaming snapshot over
    /// any shard count, with the placement cache on or off, carries the
    /// exact placements batch `analyze` produces — the cache and the
    /// shard partitioning are invisible to the numbers.
    #[test]
    fn pipeline_placements_invariant_to_shards_and_cache(
        crowds in proptest::collection::vec(
            proptest::collection::vec(0usize..8, BINS), 4..24,
        ),
        threads in (0usize..3).prop_map(|i| [1usize, 2, 8][i]),
    ) {
        let mut traces = TraceSet::new();
        for (i, counts) in crowds.iter().enumerate() {
            let mut posts = Vec::new();
            let mut day = 0i64;
            for (hour, &n) in counts.iter().enumerate() {
                for _ in 0..n {
                    posts.push(Timestamp::from_secs(day * 86_400 + hour as i64 * 3_600));
                    day += 1;
                }
            }
            if posts.is_empty() {
                continue;
            }
            traces.insert(UserTrace::new(format!("u{i}"), posts));
        }
        if traces.is_empty() {
            return Ok(());
        }
        for grid in GRIDS {
            let base = GeolocationPipeline::with_generic(GenericProfile::reference())
                .grid(grid)
                .threads(threads)
                .min_posts(1);
            let Ok(batch) = base.clone().analyze(&traces) else { continue };
            let deltas: Vec<(&str, &[Timestamp])> =
                traces.iter().map(|t| (t.id(), t.posts())).collect();
            for shards in [1usize, 4, 16] {
                for cache in [true, false] {
                    let streaming = ConcurrentStreamingPipeline::new(
                        base.clone().shards(shards).placement_cache(cache),
                    );
                    let ingest = Batch { ingest: &deltas, ..Batch::default() };
                    streaming.writer().apply(&ingest).unwrap();
                    let snap = streaming.publish().unwrap();
                    prop_assert_eq!(
                        batch.placements(),
                        snap.report().placements(),
                        "grid {} shards {} cache {}",
                        grid,
                        shards,
                        cache
                    );
                }
            }
        }
    }
}
