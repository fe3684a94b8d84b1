//! Incremental (streaming) crowd geolocation — re-analysis cost
//! proportional to *what changed*, not to crowd size.
//!
//! [`StreamingPipeline`] is the crate-private state behind the one public
//! engine, [`ConcurrentStreamingPipeline`](crate::ConcurrentStreamingPipeline):
//! writers apply signed delta batches through a shared reference
//! ([`apply`](StreamingPipeline::apply)), and a publish takes the write
//! gate for a [`snapshot_with_coverage`](StreamingPipeline::snapshot_with_coverage).
//! [`GeolocationPipeline::analyze`] is "apply every trace as one batch to
//! a fresh engine, snapshot once", so the batch and incremental paths
//! cannot drift apart. Internally the engine keeps per-user **integer
//! accumulators** partitioned across hash shards:
//!
//! * each user's active slots are a sorted vector of `day·24 + hour` keys
//!   plus a 24-bin count of active slots per hour, so a delta is a pure
//!   update that never re-scans history;
//! * accumulators live in a [`ShardSet`] — N shards keyed by a stable
//!   hash of the user id, each with its own dirty set and lock — so a
//!   batch is routed once and each touched shard locked once; batch
//!   analysis spreads the shards over worker threads (see `shard.rs` for
//!   the determinism argument);
//! * only dirty users are re-profiled, and their CDFs go through a
//!   **placement cache** (quantized CDF → zone + EMD + flatness) on the
//!   long-lived [`PlacementEngine`], so a profile shape seen before —
//!   common at low post counts — skips the exact EMD scan entirely;
//! * the placement histogram is maintained as integer zone counts,
//!   updated by subtracting a re-placed user's old zone and adding the
//!   new one;
//! * the mixture fit is cached on the zone counts and reused outright
//!   while they do not change.
//!
//! # The identity guarantee
//!
//! A snapshot is **byte-identical** (serialized through `serde_json`) to
//! a from-scratch analysis of the same cumulative traces, for any thread
//! count, any shard count, and with the placement cache on or off. Four
//! choices make that exact rather than approximate:
//!
//! 1. All per-user state is integral (slot keys, hour counts, post
//!    counts), so delta updates commute with batching exactly, and
//!    shards merge at refresh time by draining dirty ids in globally
//!    sorted order — the same order for every shard count.
//! 2. The placement cache is probed sequentially and keyed on the
//!    full-precision CDF bits, so a hit returns a value computed from a
//!    bit-identical input (and hit/miss counts are thread-invariant).
//! 3. The crowd profile is **re-summed at snapshot time** from the cached
//!    per-user distributions in user-id order — an O(24·n) pass — rather
//!    than delta-updated in `f64`, because float addition is not
//!    associative and a running sum would drift.
//! 4. The zone-count histogram goes through
//!    [`PlacementHistogram::from_zone_counts`], which is float-identical
//!    to `from_placements`, and the fits are pure functions of that
//!    histogram (cold fits, reused outright when the zone counts did not
//!    change).

use std::sync::Arc;

use crowdtz_stats::{Distribution24, Histogram24, BINS};
use crowdtz_time::Timestamp;

use crate::crowd::CrowdProfile;
use crate::engine::{chunked_map, PlacementCache, PlacementEngine};
use crate::error::CoreError;
use crate::pipeline::{GeolocationPipeline, GeolocationReport};
use crate::placement::{PlacementHistogram, UserPlacement};
use crate::profile::ActivityProfile;
use crate::rows::Rows;
use crate::shard::{ShardSet, SharedIngestObs, UserAccumulator, UserAnalysis};
use crate::single::{MultiRegionFit, SingleRegionFit};

/// Observability handles, created once at construction so the per-post
/// ingest path pays one atomic add, not a registry lookup.
#[derive(Debug)]
struct StreamObs {
    observer: Arc<crowdtz_obs::Observer>,
    /// `streaming.posts_ingested`: posts across all deltas.
    posts: crowdtz_obs::Counter,
    /// `streaming.posts_retracted`: posts removed by signed deltas.
    retracted: crowdtz_obs::Counter,
    /// `streaming.deltas`: ingested non-empty deltas.
    deltas: crowdtz_obs::Counter,
    /// `streaming.dirty`: dirty-set size entering the last refresh.
    dirty: crowdtz_obs::Gauge,
    /// `streaming.snapshots`: snapshots taken.
    snapshots: crowdtz_obs::Counter,
    /// `placement.users`: users re-placed and kept by refreshes.
    placed: crowdtz_obs::Counter,
    /// `shard.NN.users`: users per shard as of the last refresh, one
    /// gauge per shard (the shard count is fixed at construction).
    shard_users: Vec<crowdtz_obs::Gauge>,
}

impl StreamObs {
    fn new(observer: Arc<crowdtz_obs::Observer>, shards: usize) -> StreamObs {
        StreamObs {
            posts: observer.counter("streaming.posts_ingested"),
            retracted: observer.counter("streaming.posts_retracted"),
            deltas: observer.counter("streaming.deltas"),
            dirty: observer.gauge("streaming.dirty"),
            snapshots: observer.counter("streaming.snapshots"),
            placed: observer.counter("placement.users"),
            shard_users: (0..shards)
                .map(|i| observer.gauge(&format!("shard.{i:02}.users")))
                .collect(),
            observer,
        }
    }
}

/// The last mixture fit, keyed by the exact zone counts it was computed
/// from: identical counts → identical histogram → the cached fit *is* the
/// refit, bit for bit.
#[derive(Debug)]
struct FitCache {
    zone_counts: Vec<usize>,
    single: SingleRegionFit,
    multi: MultiRegionFit,
}

/// Incremental version of [`GeolocationPipeline`]: apply post deltas as
/// they arrive, snapshot on demand. See the module docs.
#[derive(Debug)]
pub(crate) struct StreamingPipeline {
    pipeline: GeolocationPipeline,
    engine: PlacementEngine,
    /// Hash-partitioned per-user accumulators + dirty sets
    /// ([`GeolocationPipeline::shards`] sets the partition count).
    shards: ShardSet,
    /// CDF-keyed placement cache, persistent across refreshes
    /// ([`GeolocationPipeline::placement_cache`] toggles it).
    cache: PlacementCache,
    /// Kept users' profiles in user-id order — exactly the rows the
    /// batch pipeline would build, patched per dirty user. Every snapshot
    /// shares the chunks; a patch copies a chunk only while a live
    /// report still holds it, so a refresh stays O(dirty) however many
    /// reports are alive.
    kept_profiles: Rows<ActivityProfile>,
    /// Kept users' placements, parallel to `kept_profiles`.
    kept_placements: Rows<UserPlacement>,
    /// Users whose analysis is `Some` (at or above the activity
    /// threshold); `eligible − kept` is the flat-removed count.
    eligible: usize,
    /// Kept users per zone index (one slot per zone of the pipeline's
    /// grid) — the integer pre-image of the placement histogram,
    /// maintained by subtract-old / add-new on re-placement.
    zone_counts: Vec<usize>,
    fit_cache: Option<FitCache>,
    obs: Option<StreamObs>,
}

impl StreamingPipeline {
    /// Wraps a configured batch pipeline. The pipeline's generic profile,
    /// activity threshold, polishing flag, component cap, thread count,
    /// shard count, and placement-cache toggle all carry over; the
    /// placement engine is built once and reused across every refresh.
    pub(crate) fn new(pipeline: GeolocationPipeline) -> StreamingPipeline {
        let grid = pipeline.effective_grid();
        let engine = PlacementEngine::with_grid(pipeline.generic(), grid);
        let shards = ShardSet::new(pipeline.effective_shards());
        let obs = pipeline
            .obs()
            .map(|o| StreamObs::new(o, shards.shard_count()));
        let cache = PlacementCache::new(pipeline.placement_cache_enabled());
        StreamingPipeline {
            pipeline,
            engine,
            obs,
            shards,
            cache,
            kept_profiles: Rows::new(),
            kept_placements: Rows::new(),
            eligible: 0,
            zone_counts: vec![0; grid.zones()],
            fit_cache: None,
        }
    }

    /// Number of users ever ingested.
    pub(crate) fn users_tracked(&self) -> usize {
        self.shards.users_tracked()
    }

    /// Users whose profiles changed since the last refresh — the work the
    /// next snapshot will actually do.
    pub(crate) fn dirty_users(&self) -> usize {
        self.shards.dirty_len()
    }

    /// Total posts ingested across all users (duplicates included).
    pub(crate) fn posts_ingested(&self) -> usize {
        self.shards.posts_ingested()
    }

    /// Number of hash shards the accumulator store is partitioned into.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.shard_count()
    }

    /// Lifetime placement-cache `(hits, misses)`. With the cache disabled
    /// every resolution counts as a miss.
    pub(crate) fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Shard store access for the durable-persistence layer (`durable.rs`).
    pub(crate) fn shards_ref(&self) -> &ShardSet {
        &self.shards
    }

    /// Mutable shard store access for snapshot restore.
    pub(crate) fn shards_mut_ref(&mut self) -> &mut ShardSet {
        &mut self.shards
    }

    /// Recomputes every piece of derived state (kept vectors, eligible
    /// count, zone counts) from the accumulators' stored analyses — the
    /// last step of recovering a durable snapshot. The kept vectors are
    /// rebuilt in global user-id order, exactly the order incremental
    /// refreshes maintain, so a recovered engine continues byte-identical
    /// to one that never restarted. The fit cache is dropped: a cold
    /// refit is bit-identical anyway.
    pub(crate) fn rebuild_derived_state(&mut self) {
        let grid = self.engine.grid();
        let mut profiles = Rows::new();
        let mut placements = Rows::new();
        let mut eligible = 0usize;
        let mut zone_counts = vec![0usize; grid.zones()];
        for (_, acc) in self.shards.all_users_sorted() {
            let Some(a) = &acc.analysis else { continue };
            eligible += 1;
            if let Some(p) = &a.placement {
                zone_counts[grid.index_of_minutes(p.offset_minutes())] += 1;
            }
            if a.kept() {
                profiles.push(a.profile.clone());
                placements.push(a.placement.clone().expect("kept users are placed"));
            }
        }
        self.kept_profiles = profiles;
        self.kept_placements = placements;
        self.eligible = eligible;
        self.zone_counts = zone_counts;
        self.fit_cache = None;
    }

    /// Applies a batch of signed deltas through a **shared** reference —
    /// the one write path, for the concurrent engine's writers and for
    /// batch analysis alike.
    ///
    /// Each delta is absorbed into the user's accumulator, or released
    /// when `retract` is set. Timestamps are read in UTC (the
    /// anonymous-crowd convention the batch pipeline uses); duplicates and
    /// out-of-order arrivals are fine, and a timestamp whose (day, hour)
    /// slot is already active only bumps the slot's post count — exactly
    /// what a batch rebuild would conclude. Releasing posts the engine
    /// never saw is a no-op, and a user falling below the activity
    /// threshold drops out of the analysis at the next refresh, so the
    /// snapshot afterwards is byte-identical to an engine that never saw
    /// the retracted posts. Cost per delta: `O(k log k + s)` for `k` posts
    /// against `s` existing slots, independent of crowd size.
    ///
    /// The batch locks one shard at a time ([`ShardSet::apply_batch`],
    /// spread over `threads` workers) and every metric update is an
    /// atomic add, so any number of writer threads may call this at once;
    /// ingest deltas commute (see `shard.rs`), so the final accumulator
    /// state — and with it every later snapshot — is identical to a
    /// serial application of the same batches in any order. Retraction
    /// only commutes with the ingest of the *same* posts when it runs
    /// after it, so callers sequence a post's retraction after the batch
    /// that ingested it.
    pub(crate) fn apply(
        &self,
        deltas: &[(&str, &[Timestamp])],
        retract: bool,
        threads: usize,
        ingest_obs: Option<&SharedIngestObs>,
    ) {
        if deltas.is_empty() {
            return;
        }
        self.count_deltas(deltas, retract);
        self.shards
            .apply_batch(deltas, retract, threads, ingest_obs);
    }

    /// Counts a batch of signed deltas into the stream metrics (totals
    /// are order-free, so one add per batch). Empty deltas change nothing
    /// and are not counted.
    fn count_deltas(&self, deltas: &[(&str, &[Timestamp])], retract: bool) {
        if let Some(obs) = &self.obs {
            let posts: usize = deltas.iter().map(|(_, p)| p.len()).sum();
            if retract {
                obs.retracted.add(posts as u64);
            } else {
                obs.posts.add(posts as u64);
            }
            let non_empty = deltas.iter().filter(|(_, p)| !p.is_empty()).count();
            obs.deltas.add(non_empty as u64);
        }
    }

    /// Re-analyzes exactly the dirty users: drain every shard's dirty set
    /// in globally sorted id order, rebuild the changed profiles in
    /// parallel, resolve their CDFs through the placement cache (parallel
    /// exact scans for the misses only), and patch the zone counts and
    /// the shared kept rows sequentially. Chunking is order-stable and
    /// the cache probe is sequential, so the per-user results — and
    /// therefore every snapshot — are invariant to both the thread count
    /// and the shard count.
    fn refresh(&mut self) {
        if let Some(obs) = &self.obs {
            obs.dirty.set(self.shards.dirty_len() as f64);
        }
        if self.shards.dirty_len() == 0 {
            return;
        }
        // Clone the Arc into a local so the span guard does not hold a
        // borrow of `self` across the mutable refresh work below.
        let observer = self.obs.as_ref().map(|o| Arc::clone(&o.observer));
        let _s = crowdtz_obs::span!(observer, "streaming.refresh");
        let dirty: Vec<String> = self.shards.take_dirty_sorted();
        let min_posts = self.pipeline.min_posts_threshold();
        let polish = self.pipeline.polish_enabled();
        let threads = self.pipeline.effective_threads();
        // Phase 1 (parallel, pure): rebuild each dirty user's distribution
        // and CDF from its integer accumulator.
        let prepared: Vec<Option<(Distribution24, [f64; BINS])>> = {
            let work: Vec<&UserAccumulator> = self.shards.accs_for(&dirty);
            chunked_map(&work, threads, |&acc| Self::prepare_user(acc, min_posts))
        };
        // Phase 2: resolve the eligible CDFs through the placement cache
        // (sequential probe, parallel compute of the misses).
        let cdfs: Vec<[f64; BINS]> = prepared
            .iter()
            .filter_map(|p| p.as_ref().map(|&(_, cdf)| cdf))
            .collect();
        let resolved =
            self.engine
                .resolve_cdfs(&cdfs, &mut self.cache, threads, observer.as_deref());
        // Phase 3 (sequential): assemble analyses and patch shared state.
        let mut resolutions = resolved.into_iter();
        let mut placed = 0u64;
        for (id, prep) in dirty.into_iter().zip(prepared) {
            let acc = self.shards.acc_mut(&id).expect("dirty user exists");
            let old = acc.analysis.take();
            let analysis = prep.map(|(distribution, _)| {
                let r = resolutions
                    .next()
                    .expect("one resolution per eligible user");
                // Keep the user's name string from the last analysis, so
                // rows of unchanged and re-placed users alike stay put.
                let user = old.as_ref().map_or_else(
                    || Arc::from(id.as_str()),
                    |a| Arc::clone(a.profile.shared_user()),
                );
                let profile =
                    ActivityProfile::from_parts(user, distribution, acc.slots.len(), acc.posts);
                let flat = polish && r.flat;
                let placement = if flat {
                    None
                } else {
                    Some(UserPlacement::from_offset_minutes(
                        Arc::clone(profile.shared_user()),
                        r.zone_minutes,
                        r.emd,
                    ))
                };
                UserAnalysis {
                    profile,
                    flat,
                    placement,
                }
            });
            placed += u64::from(analysis.as_ref().is_some_and(UserAnalysis::kept));
            let grid = self.engine.grid();
            if let Some(p) = old.as_ref().and_then(|a| a.placement.as_ref()) {
                self.zone_counts[grid.index_of_minutes(p.offset_minutes())] -= 1;
            }
            if let Some(p) = analysis.as_ref().and_then(|a| a.placement.as_ref()) {
                self.zone_counts[grid.index_of_minutes(p.offset_minutes())] += 1;
            }
            self.eligible -= usize::from(old.is_some());
            self.eligible += usize::from(analysis.is_some());
            // Patch the kept rows at the user's id-ordered position.
            // Dirty users that stay kept (the steady state) are replaced
            // in place; membership changes shift the tail, and the
            // initial bulk ingest arrives in ascending id order, so every
            // insert is an append.
            let old_kept = old.as_ref().is_some_and(UserAnalysis::kept);
            let new_kept = analysis.as_ref().is_some_and(UserAnalysis::kept);
            let pos = self.kept_profiles.binary_search_by(|p| p.user().cmp(&id));
            match (old_kept, new_kept) {
                (_, true) => {
                    let a = analysis.as_ref().expect("kept analysis exists");
                    let profile = a.profile.clone();
                    let placement = a.placement.clone().expect("kept users are placed");
                    match pos {
                        Ok(i) => {
                            debug_assert!(old_kept);
                            self.kept_profiles.set(i, profile);
                            self.kept_placements.set(i, placement);
                        }
                        Err(i) => {
                            debug_assert!(!old_kept);
                            self.kept_profiles.insert(i, profile);
                            self.kept_placements.insert(i, placement);
                        }
                    }
                }
                (true, false) => {
                    let i = pos.expect("kept user is in the kept rows");
                    self.kept_profiles.remove(i);
                    self.kept_placements.remove(i);
                }
                (false, false) => {}
            }
            acc.analysis = analysis;
        }
        if let Some(obs) = &self.obs {
            obs.placed.add(placed);
            // Shard occupancy, as of this refresh.
            for (gauge, n) in obs.shard_users.iter().zip(self.shards.occupancy()) {
                gauge.set(n as f64);
            }
        }
    }

    /// One user's distribution + CDF from the integer accumulator —
    /// `None` below the activity threshold. Pure, so it fans out across
    /// worker threads; the flatness/placement decision happens in the
    /// cache-backed resolve step.
    fn prepare_user(
        acc: &UserAccumulator,
        min_posts: usize,
    ) -> Option<(Distribution24, [f64; BINS])> {
        if acc.posts < min_posts || acc.slots.is_empty() {
            return None;
        }
        let mut bins = [0.0_f64; BINS];
        for (dst, &c) in bins.iter_mut().zip(acc.hour_counts.iter()) {
            *dst = f64::from(c);
        }
        let distribution = Histogram24::from_bins(bins).normalized().ok()?;
        let cdf = distribution.cdf();
        Some((distribution, cdf))
    }

    /// Produces the current [`GeolocationReport`] for a crawl that
    /// covered a `coverage` fraction of the forum (1.0 for a complete
    /// one), doing work proportional to the dirty set (plus one cheap
    /// O(24·n) reduction). The report shares the kept profile/placement
    /// rows with the engine chunk by chunk — assembling it copies nothing
    /// per user, and holding an old report costs the next refresh one
    /// chunk copy per dirty user at most (see [`Rows`]). It is
    /// byte-identical to [`GeolocationPipeline::analyze_partial`] over the
    /// cumulative traces.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidCoverage`] when `coverage` is outside `(0, 1]`.
    /// * [`CoreError::EmptyCrowd`] when no user survives the filters.
    /// * [`CoreError::Stats`] when a fit fails.
    pub(crate) fn snapshot_with_coverage(
        &mut self,
        coverage: f64,
    ) -> Result<GeolocationReport, CoreError> {
        if !coverage.is_finite() || coverage <= 0.0 || coverage > 1.0 {
            return Err(CoreError::InvalidCoverage { coverage });
        }
        let observer = self.obs.as_ref().map(|o| Arc::clone(&o.observer));
        let _s = crowdtz_obs::span!(observer, "streaming.snapshot");
        if let Some(obs) = &self.obs {
            obs.snapshots.inc();
        }
        self.refresh();
        if self.kept_profiles.is_empty() {
            return Err(CoreError::EmptyCrowd);
        }
        let flat_removed = self.eligible - self.kept_profiles.len();
        // Re-summed (not delta-updated) in user-id order: f64 addition is
        // not associative, and the identity guarantee requires summing in
        // exactly this order — see the module docs.
        let crowd = CrowdProfile::aggregate(&self.kept_profiles)?;
        let histogram = PlacementHistogram::from_zone_counts(&self.zone_counts);
        let (single, multi) = {
            let _f = crowdtz_obs::span!(observer, "streaming.fit");
            self.refit(&histogram)?
        };
        Ok(GeolocationReport::from_parts(
            self.kept_profiles.clone(),
            flat_removed,
            crowd,
            self.kept_placements.clone(),
            histogram,
            single,
            multi,
            coverage,
            self.pipeline.effective_threads(),
        ))
    }

    /// The fit stage: a cache hit when the zone counts are unchanged (the
    /// fits are pure functions of the histogram), otherwise a cold fit.
    fn refit(
        &mut self,
        histogram: &PlacementHistogram,
    ) -> Result<(SingleRegionFit, MultiRegionFit), CoreError> {
        if let Some(cache) = &self.fit_cache {
            if cache.zone_counts == self.zone_counts {
                return Ok((cache.single.clone(), cache.multi.clone()));
            }
        }
        let single = SingleRegionFit::fit(histogram)?;
        let multi = MultiRegionFit::fit(histogram, self.pipeline.max_components_limit())?;
        self.fit_cache = Some(FitCache {
            zone_counts: self.zone_counts.clone(),
            single: single.clone(),
            multi: multi.clone(),
        });
        Ok((single, multi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdtz_synth::PopulationSpec;
    use crowdtz_time::{RegionDb, TraceSet, UserTrace};

    fn ingest(stream: &StreamingPipeline, user: &str, posts: &[Timestamp]) {
        stream.apply(&[(user, posts)], false, 1, None);
    }

    fn retract(stream: &StreamingPipeline, user: &str, posts: &[Timestamp]) {
        stream.apply(&[(user, posts)], true, 1, None);
    }

    /// Every trace as one batch, spread over two workers — what
    /// [`GeolocationPipeline::analyze`] does.
    fn ingest_all(stream: &StreamingPipeline, traces: &TraceSet) {
        let deltas: Vec<(&str, &[Timestamp])> =
            traces.iter().map(|t| (t.id(), t.posts())).collect();
        stream.apply(&deltas, false, 2, None);
    }

    fn snapshot(stream: &mut StreamingPipeline) -> Result<GeolocationReport, CoreError> {
        stream.snapshot_with_coverage(1.0)
    }

    fn crowd(region: &str, users: usize, seed: u64) -> TraceSet {
        let db = RegionDb::extended();
        PopulationSpec::new(db.get(&region.into()).unwrap().clone())
            .users(users)
            .seed(seed)
            .posts_per_day(0.5)
            .generate()
    }

    fn report_json(r: &GeolocationReport) -> String {
        serde_json::to_string(r).unwrap()
    }

    #[test]
    fn one_shot_ingest_matches_batch() {
        let traces = crowd("japan", 40, 7);
        let pipeline = GeolocationPipeline::default().threads(1);
        let mut stream = StreamingPipeline::new(pipeline.clone());
        ingest_all(&stream, &traces);
        let inc = snapshot(&mut stream).unwrap();
        let batch = pipeline.analyze(&traces).unwrap();
        assert_eq!(report_json(&inc), report_json(&batch));
    }

    #[test]
    fn incremental_rounds_match_batch_at_each_round() {
        // Split each user's history into 3 windows and ingest round by
        // round; after every round the snapshot must equal a from-scratch
        // batch analysis of the cumulative traces.
        let traces = crowd("italy", 30, 5);
        let pipeline = GeolocationPipeline::default().min_posts(10).threads(2);
        let mut stream = StreamingPipeline::new(pipeline.clone());
        let mut cumulative = TraceSet::new();
        for round in 0..3usize {
            for t in traces.iter() {
                let posts = t.posts();
                let chunk = &posts[posts.len() * round / 3..posts.len() * (round + 1) / 3];
                ingest(&stream, t.id(), chunk);
                for &p in chunk {
                    cumulative.record(t.id(), p);
                }
            }
            let inc = snapshot(&mut stream).unwrap();
            let batch = pipeline.analyze(&cumulative).unwrap();
            assert_eq!(report_json(&inc), report_json(&batch), "round {round}");
        }
        assert_eq!(cumulative.total_posts(), traces.total_posts());
    }

    #[test]
    fn dirty_set_shrinks_to_what_changed() {
        let traces = crowd("france", 20, 9);
        let mut stream = StreamingPipeline::new(GeolocationPipeline::default().threads(1));
        ingest_all(&stream, &traces);
        assert_eq!(stream.dirty_users(), stream.users_tracked());
        snapshot(&mut stream).unwrap();
        assert_eq!(stream.dirty_users(), 0);
        // Touch one user → exactly one dirty.
        let id = traces.iter().next().unwrap().id().to_owned();
        ingest(&stream, &id, &[Timestamp::from_secs(123_456_789)]);
        assert_eq!(stream.dirty_users(), 1);
        snapshot(&mut stream).unwrap();
        assert_eq!(stream.dirty_users(), 0);
    }

    #[test]
    fn duplicate_and_unordered_ingest_is_idempotent_on_slots() {
        let pipeline = GeolocationPipeline::default().min_posts(1).threads(1);
        let mut stream = StreamingPipeline::new(pipeline.clone());
        let t0 = Timestamp::from_secs(1_450_000_000);
        // Same slot three times, across two deltas, out of order.
        ingest(&stream, "u", &[t0 + 100, t0]);
        ingest(&stream, "u", &[t0 + 50]);
        let mut traces = TraceSet::new();
        for &ts in &[t0 + 100, t0, t0 + 50] {
            traces.record("u", ts);
        }
        let inc = snapshot(&mut stream).unwrap();
        let batch = pipeline.analyze(&traces).unwrap();
        assert_eq!(report_json(&inc), report_json(&batch));
        assert_eq!(inc.profiles()[0].active_slots(), 1);
        assert_eq!(inc.profiles()[0].post_count(), 3);
    }

    #[test]
    fn empty_delta_is_ignored_and_empty_crowd_errors() {
        let mut stream = StreamingPipeline::new(GeolocationPipeline::default());
        ingest(&stream, "ghost", &[]);
        assert_eq!(stream.users_tracked(), 0);
        assert!(matches!(snapshot(&mut stream), Err(CoreError::EmptyCrowd)));
        // A sub-threshold user is tracked but not classified.
        ingest(&stream, "quiet", &[Timestamp::from_secs(0)]);
        assert_eq!(stream.users_tracked(), 1);
        assert!(matches!(snapshot(&mut stream), Err(CoreError::EmptyCrowd)));
    }

    #[test]
    fn invalid_coverage_is_rejected() {
        let mut stream = StreamingPipeline::new(GeolocationPipeline::default());
        for bad in [0.0, -1.0, 1.5, f64::NAN] {
            assert!(matches!(
                stream.snapshot_with_coverage(bad),
                Err(CoreError::InvalidCoverage { .. })
            ));
        }
    }

    #[test]
    fn partial_coverage_matches_batch_partial() {
        let traces = crowd("japan", 30, 3);
        let pipeline = GeolocationPipeline::default().threads(1);
        let mut stream = StreamingPipeline::new(pipeline.clone());
        ingest_all(&stream, &traces);
        let inc = stream.snapshot_with_coverage(0.5).unwrap();
        let batch = pipeline.analyze_partial(&traces, 0.5).unwrap();
        assert_eq!(report_json(&inc), report_json(&batch));
        assert!(inc.is_partial());
    }

    #[test]
    fn unchanged_crowd_reuses_the_fit_cache() {
        let traces = crowd("malaysia", 30, 11);
        let mut stream = StreamingPipeline::new(GeolocationPipeline::default().threads(1));
        ingest_all(&stream, &traces);
        let a = snapshot(&mut stream).unwrap();
        // No ingest between snapshots: zone counts unchanged, cache hit.
        let b = snapshot(&mut stream).unwrap();
        assert_eq!(report_json(&a), report_json(&b));
    }

    #[test]
    fn accessors_report_progress() {
        let stream = StreamingPipeline::new(GeolocationPipeline::default().min_posts(1));
        assert_eq!(stream.users_tracked(), 0);
        assert_eq!(stream.posts_ingested(), 0);
        ingest(
            &stream,
            "a",
            &[Timestamp::from_secs(0), Timestamp::from_secs(3_600)],
        );
        assert_eq!(stream.users_tracked(), 1);
        assert_eq!(stream.posts_ingested(), 2);
        assert_eq!(stream.dirty_users(), 1);
    }

    #[test]
    fn shard_configuration_carries_over_and_never_changes_output() {
        let traces = crowd("france", 25, 21);
        let baseline = {
            let mut s = StreamingPipeline::new(GeolocationPipeline::default().shards(1).threads(2));
            ingest_all(&s, &traces);
            report_json(&snapshot(&mut s).unwrap())
        };
        for shards in [4usize, 16] {
            let mut s =
                StreamingPipeline::new(GeolocationPipeline::default().shards(shards).threads(2));
            assert_eq!(s.shard_count(), shards);
            ingest_all(&s, &traces);
            assert_eq!(s.shards.occupancy().len(), shards);
            assert_eq!(
                s.shards.occupancy().iter().sum::<usize>(),
                s.users_tracked(),
                "occupancy must partition the crowd"
            );
            assert_eq!(
                report_json(&snapshot(&mut s).unwrap()),
                baseline,
                "{shards} shards"
            );
        }
    }

    #[test]
    fn one_batch_matches_per_observation_deltas() {
        let traces = crowd("italy", 15, 23);
        let mut batch: Vec<(String, Timestamp)> = Vec::new();
        for t in traces.iter() {
            for &p in t.posts() {
                batch.push((t.id().to_owned(), p));
            }
        }
        let pipeline = GeolocationPipeline::default().min_posts(10).threads(2);
        let mut batched = StreamingPipeline::new(pipeline.clone());
        ingest_all(&batched, &traces);
        let mut serial = StreamingPipeline::new(pipeline);
        for (user, ts) in &batch {
            ingest(&serial, user, std::slice::from_ref(ts));
        }
        assert_eq!(batched.posts_ingested(), serial.posts_ingested());
        assert_eq!(
            report_json(&snapshot(&mut batched).unwrap()),
            report_json(&snapshot(&mut serial).unwrap())
        );
    }

    #[test]
    fn retraction_snapshot_matches_engine_that_never_saw_the_posts() {
        // Ingest A∪B, retract B: the snapshot must be byte-identical to
        // an engine fed A alone — including users B pushed over the
        // activity threshold who now drop back below it.
        let traces = crowd("japan", 25, 31);
        let all: Vec<&UserTrace> = traces.iter().collect();
        let pipeline = GeolocationPipeline::default().min_posts(10).threads(2);
        let mut stream = StreamingPipeline::new(pipeline.clone());
        for t in &all {
            ingest(&stream, t.id(), t.posts());
        }
        // B = the back half of every user's history.
        for t in &all {
            let posts = t.posts();
            retract(&stream, t.id(), &posts[posts.len() / 2..]);
        }
        let mut fresh = StreamingPipeline::new(pipeline);
        for t in &all {
            let posts = t.posts();
            ingest(&fresh, t.id(), &posts[..posts.len() / 2]);
        }
        assert_eq!(stream.posts_ingested(), fresh.posts_ingested());
        assert_eq!(
            report_json(&snapshot(&mut stream).unwrap()),
            report_json(&snapshot(&mut fresh).unwrap())
        );
    }

    #[test]
    fn retraction_interleaves_with_snapshots() {
        // Snapshot between ingest and retract: the intermediate refresh
        // must not disturb the final identity.
        let traces = crowd("brazil", 20, 33);
        let pipeline = GeolocationPipeline::default().min_posts(5).threads(1);
        let mut stream = StreamingPipeline::new(pipeline.clone());
        ingest_all(&stream, &traces);
        snapshot(&mut stream).unwrap();
        let dropped: Vec<(String, Vec<Timestamp>)> = traces
            .iter()
            .take(10)
            .map(|t| (t.id().to_owned(), t.posts().to_vec()))
            .collect();
        for (u, p) in &dropped {
            retract(&stream, u, p);
        }
        let mut fresh = StreamingPipeline::new(pipeline);
        for t in traces.iter().skip(10) {
            ingest(&fresh, t.id(), t.posts());
        }
        assert_eq!(
            report_json(&snapshot(&mut stream).unwrap()),
            report_json(&snapshot(&mut fresh).unwrap())
        );
    }

    #[test]
    fn placement_cache_hits_on_repeated_profiles() {
        // Every user posts at the same two slots → one distinct CDF.
        let pipeline = GeolocationPipeline::default().min_posts(1).threads(1);
        let mut stream = StreamingPipeline::new(pipeline.clone());
        let mut traces = TraceSet::new();
        let posts = [
            Timestamp::from_secs(20 * 3_600),
            Timestamp::from_secs(86_400 + 21 * 3_600),
        ];
        for i in 0..30 {
            let id = format!("u{i:02}");
            ingest(&stream, &id, &posts);
            for &p in &posts {
                traces.record(&id, p);
            }
        }
        let inc = snapshot(&mut stream).unwrap();
        let (hits, misses) = stream.cache_stats();
        assert_eq!(misses, 1, "one distinct profile shape");
        assert_eq!(hits, 29);
        // The cache never changes a byte: cache-off matches exactly.
        let off = {
            let mut s = StreamingPipeline::new(pipeline.placement_cache(false));
            ingest_all(&s, &traces);
            snapshot(&mut s).unwrap()
        };
        assert_eq!(report_json(&inc), report_json(&off));
    }

    /// `posts` posts for `user`, one per day at two evening hours that
    /// depend on the user — a placeable, non-flat profile.
    fn evening_posts(user: usize, first_day: i64, posts: usize) -> Vec<Timestamp> {
        (first_day..first_day + posts as i64)
            .map(|d| Timestamp::from_secs(d * 86_400 + (18 + (user % 3) as i64 + d % 2) * 3_600))
            .collect()
    }

    /// Chunks of `new` that `old` does not share.
    fn fresh_chunks<T>(old: &Rows<T>, new: &Rows<T>) -> usize {
        new.chunks()
            .iter()
            .filter(|c| !old.chunks().iter().any(|o| Arc::ptr_eq(o, c)))
            .count()
    }

    /// A snapshot taken while earlier reports are held copies only the
    /// chunks holding dirty users, leaves the held reports' bytes alone,
    /// and still equals a batch analysis — for a user who stays kept
    /// (set), crosses the activity threshold upwards (insert) and falls
    /// back below it (remove).
    #[test]
    fn held_reports_share_every_chunk_no_dirty_user_touches() {
        type Posts = std::collections::BTreeMap<String, Vec<Timestamp>>;
        let pipeline = GeolocationPipeline::default().min_posts(10).threads(1);
        let batch = |posts: &Posts| {
            let mut traces = TraceSet::new();
            for (user, ps) in posts {
                for &p in ps {
                    traces.record(user, p);
                }
            }
            report_json(&pipeline.analyze(&traces).unwrap())
        };
        let mut stream = StreamingPipeline::new(pipeline.clone());
        let mut posts = Posts::new();
        let feed =
            |stream: &mut StreamingPipeline, posts: &mut Posts, user: &str, new: Vec<Timestamp>| {
                ingest(stream, user, &new);
                posts.entry(user.to_owned()).or_default().extend(new);
            };
        for u in 0..1000 {
            feed(
                &mut stream,
                &mut posts,
                &format!("u{u:04}"),
                evening_posts(u, 0, 12),
            );
        }
        // Nine posts: one short of the threshold; sorts mid-crowd.
        feed(&mut stream, &mut posts, "u0150x", evening_posts(150, 0, 9));
        let first = snapshot(&mut stream).unwrap();
        let first_bytes = report_json(&first);
        assert_eq!(first_bytes, batch(&posts));
        assert!(first.profiles().chunks().len() > 10);

        // A kept user changes: one chunk per row list is copied.
        feed(&mut stream, &mut posts, "u0037", evening_posts(37, 100, 1));
        let second = snapshot(&mut stream).unwrap();
        let second_bytes = report_json(&second);
        assert_eq!(second_bytes, batch(&posts));
        assert_eq!(fresh_chunks(first.profiles(), second.profiles()), 1);
        assert_eq!(fresh_chunks(first.placements(), second.placements()), 1);

        // The tenth post makes u0150x kept: an insert into a full chunk,
        // which splits it into two fresh halves.
        let tenth = evening_posts(150, 9, 1);
        feed(&mut stream, &mut posts, "u0150x", tenth.clone());
        let third = snapshot(&mut stream).unwrap();
        assert_eq!(report_json(&third), batch(&posts));
        assert_eq!(third.users_classified(), second.users_classified() + 1);
        assert!(fresh_chunks(second.profiles(), third.profiles()) <= 2);
        assert!(fresh_chunks(second.placements(), third.placements()) <= 2);

        // Retracting that post drops u0150x again: a remove.
        retract(&stream, "u0150x", &tenth);
        posts
            .get_mut("u0150x")
            .unwrap()
            .retain(|p| !tenth.contains(p));
        let fourth = snapshot(&mut stream).unwrap();
        assert_eq!(report_json(&fourth), second_bytes);
        assert!(fresh_chunks(third.profiles(), fourth.profiles()) <= 1);
        assert!(fresh_chunks(third.placements(), fourth.placements()) <= 1);

        // Every held report still reads as it did when taken.
        assert_eq!(report_json(&first), first_bytes);
        assert_eq!(report_json(&second), second_bytes);
    }
}
