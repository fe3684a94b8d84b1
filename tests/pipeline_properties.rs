//! Cross-crate property tests: invariants of the full pipeline under
//! randomized worlds.

use crowdtz::core::{
    place_distribution, Batch, ConcurrentStreamingPipeline, GenericProfile, GeolocationPipeline,
    PlacementHistogram,
};
use crowdtz::synth::PopulationSpec;
use crowdtz::time::{HolidayCalendar, Region, RegionDb, TzOffset, Zone};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A synthetic fixed-offset crowd is always placed within ±2 zones of
    /// its home offset, for any offset and seed.
    #[test]
    fn placement_tracks_home_offset(offset in -11i32..=12, seed in 0u64..1_000) {
        let region = Region::new(
            "prop-region",
            "Prop Region",
            Zone::fixed(TzOffset::from_hours(offset).unwrap()),
            None,
            HolidayCalendar::none(),
        );
        let traces = PopulationSpec::new(region)
            .users(30)
            .posts_per_day(0.8)
            .seed(seed)
            .generate();
        let report = GeolocationPipeline::with_generic(GenericProfile::reference())
            .analyze(&traces)
            .expect("analyze");
        let mean = report.mixture().dominant().unwrap().mean;
        // Distance on the 24-zone circle.
        let diff = (mean - f64::from(offset)).rem_euclid(24.0);
        let circ = diff.min(24.0 - diff);
        prop_assert!(circ <= 2.0, "offset {offset}: mean {mean}");
    }

    /// Shifting every generic zone profile and re-placing is the identity:
    /// zone_profile(k) always places at k.
    #[test]
    fn zone_profiles_place_at_their_own_zone(k in -11i32..=12) {
        let generic = GenericProfile::reference();
        let (zone, emd) = place_distribution(&generic.zone_profile(k), &generic);
        prop_assert_eq!(zone, k);
        prop_assert!(emd < 1e-12);
    }

    /// The placement histogram is a probability vector whatever the crowd.
    #[test]
    fn histogram_is_normalized(seed in 0u64..500) {
        let db = RegionDb::table1();
        let traces = PopulationSpec::new(db.require(&"france".into()).unwrap().clone())
            .users(20)
            .posts_per_day(0.7)
            .seed(seed)
            .generate();
        let report = GeolocationPipeline::with_generic(GenericProfile::reference())
            .analyze(&traces)
            .expect("analyze");
        let total: f64 = report.histogram().fractions().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert_eq!(report.histogram().users(), report.users_classified());
        let xs = PlacementHistogram::xs();
        prop_assert_eq!(xs.len(), 24);
    }

    /// Mixture weights always sum to one and every component mean stays on
    /// the zone axis.
    #[test]
    fn mixture_component_invariants(seed in 0u64..500) {
        let db = RegionDb::table1();
        let mut traces = PopulationSpec::new(db.require(&"japan".into()).unwrap().clone())
            .users(25)
            .posts_per_day(0.7)
            .seed(seed)
            .generate();
        for t in PopulationSpec::new(db.require(&"brazil".into()).unwrap().clone())
            .users(25)
            .posts_per_day(0.7)
            .seed(seed ^ 0xB)
            .generate()
            .iter()
        {
            traces.insert(t.clone());
        }
        let report = GeolocationPipeline::with_generic(GenericProfile::reference())
            .analyze(&traces)
            .expect("analyze");
        let weights: f64 = report.mixture().components().iter().map(|c| c.weight).sum();
        prop_assert!((weights - 1.0).abs() < 1e-6);
        for c in report.mixture().components() {
            prop_assert!((-13.0..=14.0).contains(&c.mean), "mean {}", c.mean);
            prop_assert!(c.sigma > 0.0);
        }
    }

    /// Streaming ingestion is order- and chunking-independent: splitting
    /// every user's posts into arbitrary chunks and feeding them in an
    /// arbitrary interleaving yields a snapshot byte-identical to the
    /// one-shot batch analysis of the same traces.
    #[test]
    fn streaming_ingest_is_chunk_order_invariant(
        seed in 0u64..200,
        chunks in 1usize..=4,
        shuffle_seed in 0u64..1_000,
    ) {
        let db = RegionDb::table1();
        let traces = PopulationSpec::new(db.require(&"france".into()).unwrap().clone())
            .users(20)
            .posts_per_day(0.7)
            .seed(seed)
            .generate();

        // Split each user's posts into `chunks` index-slices, then feed
        // the (user, slice) pieces in a shuffled order.
        let mut pieces = Vec::new();
        for trace in traces.iter() {
            let posts = trace.posts();
            for c in 0..chunks {
                let piece = &posts[posts.len() * c / chunks..posts.len() * (c + 1) / chunks];
                if !piece.is_empty() {
                    pieces.push((trace.id(), piece));
                }
            }
        }
        pieces.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));

        let pipeline = || GeolocationPipeline::with_generic(GenericProfile::reference());
        let streaming = ConcurrentStreamingPipeline::new(pipeline());
        let writer = streaming.writer();
        for (user, piece) in pieces {
            let delta = Batch { ingest: &[(user, piece)], ..Batch::default() };
            writer.apply(&delta).unwrap();
        }
        let snapshot = streaming.publish().expect("snapshot");
        let batch = pipeline().analyze(&traces).expect("analyze");
        prop_assert_eq!(
            serde_json::to_string(snapshot.report()).unwrap(),
            serde_json::to_string(&batch).unwrap()
        );
    }
}
