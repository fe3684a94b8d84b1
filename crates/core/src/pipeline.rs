//! The end-to-end geolocation pipeline — §V's experimental procedure.

use std::fmt;
use std::sync::Arc;

use crowdtz_stats::{pearson, FitQuality, GaussianMixture, StatsError};
use crowdtz_time::TraceSet;

use crowdtz_stats::BINS;

use crate::confidence::{bootstrap_components_threads, BootstrapConfig, ComponentConfidence};
use crate::crowd::CrowdProfile;
use crate::engine::{chunked_map, default_threads, PlacementCache, PlacementEngine};
use crate::error::CoreError;
use crate::generic::GenericProfile;
use crate::placement::{PlacementHistogram, UserPlacement, ZoneGrid};
use crate::profile::ActivityProfile;
use crate::rows::Rows;
use crate::shard::default_shards;
use crate::single::{MultiRegionFit, SingleRegionFit};
use crate::streaming::StreamingPipeline;

/// The full crowd-geolocation pipeline: profile → polish → place → fit.
///
/// Mirrors the experimental procedure the paper applies to every forum in
/// §V: build per-user profiles from UTC-normalized post times, drop
/// sub-threshold and flat users, place the rest by EMD, then uncover the
/// crowd's regions with a Gaussian-mixture fit.
///
/// [`analyze`](GeolocationPipeline::analyze) is implemented as
/// "ingest-then-snapshot" on a fresh [`StreamingPipeline`]: traces are
/// routed into hash-partitioned accumulator shards
/// ([`GeolocationPipeline::shards`]), profiles resolve through a
/// CDF-keyed placement cache
/// ([`GeolocationPipeline::placement_cache`]), and a single snapshot
/// produces the report. Every parallel stage uses order-stable chunked
/// reduction on [`GeolocationPipeline::threads`] workers, so reports are
/// byte-identical for any thread count — and any shard count.
#[derive(Debug, Clone)]
pub struct GeolocationPipeline {
    generic: GenericProfile,
    min_posts: usize,
    polish: bool,
    max_components: usize,
    threads: Option<usize>,
    shards: Option<usize>,
    placement_cache: bool,
    grid: Option<ZoneGrid>,
    observer: Option<Arc<crowdtz_obs::Observer>>,
}

impl GeolocationPipeline {
    /// A pipeline with the given generic profile, the paper's 30-post
    /// threshold, flat-profile polishing on, and up to 4 mixture
    /// components.
    pub fn with_generic(generic: GenericProfile) -> GeolocationPipeline {
        GeolocationPipeline {
            generic,
            min_posts: 30,
            polish: true,
            max_components: 4,
            threads: None,
            shards: None,
            placement_cache: true,
            grid: None,
            observer: None,
        }
    }

    /// Sets the active-user threshold.
    #[must_use]
    pub fn min_posts(mut self, min_posts: usize) -> GeolocationPipeline {
        self.min_posts = min_posts;
        self
    }

    /// Enables/disables the flat-profile filter.
    #[must_use]
    pub fn polish(mut self, polish: bool) -> GeolocationPipeline {
        self.polish = polish;
        self
    }

    /// Sets the maximum mixture size explored by model selection.
    #[must_use]
    pub fn max_components(mut self, max_components: usize) -> GeolocationPipeline {
        self.max_components = max_components.max(1);
        self
    }

    /// Sets the number of worker threads for profile building, polishing,
    /// placement, and the report's bootstrap (clamped to ≥ 1).
    ///
    /// When not set, [`default_threads`] applies: the `CROWDTZ_THREADS`
    /// environment variable, falling back to the machine's available
    /// parallelism. The thread count never changes the numbers — only the
    /// wall-clock.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> GeolocationPipeline {
        self.threads = Some(threads.max(1));
        self
    }

    /// Sets the number of hash shards the analysis engine partitions its
    /// per-user accumulators into (clamped to ≥ 1).
    ///
    /// When not set, [`default_shards`] applies: the `CROWDTZ_SHARDS`
    /// environment variable, falling back to 8. The shard count shapes
    /// only *where* state lives and how bulk ingestion parallelizes —
    /// analysis output is byte-identical for every shard count (asserted
    /// by `tests/sharding_determinism.rs`).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> GeolocationPipeline {
        self.shards = Some(shards.max(1));
        self
    }

    /// Sets the zone grid the placement engine scans (24 hourly, 48
    /// half-hour, or 96 quarter-hour zones).
    ///
    /// When not set, [`ZoneGrid::from_env`] applies: the `CROWDTZ_GRID`
    /// environment variable (`48`/`half`, `96`/`quarter`), falling back
    /// to the paper's hourly grid. Activity profiles stay 24-bin hourly
    /// on every grid; finer grids add candidate zones (e.g. Nepal's
    /// +5:45), widen the placement histogram to the grid's zone count,
    /// and keep everything else — thresholds, polishing, fits — working
    /// unchanged. On the default hourly grid, reports are byte-identical
    /// to previous releases.
    #[must_use]
    pub fn grid(mut self, grid: ZoneGrid) -> GeolocationPipeline {
        self.grid = Some(grid);
        self
    }

    /// The zone grid the placement engine will scan.
    pub fn effective_grid(&self) -> ZoneGrid {
        self.grid.unwrap_or_else(ZoneGrid::from_env)
    }

    /// Enables/disables the CDF-keyed placement cache (default: enabled).
    ///
    /// The cache maps a profile's full-precision CDF bits to its resolved
    /// zone, EMD, and flatness verdict, so repeated profile shapes —
    /// common at low post counts — skip the exact EMD scan. Results are
    /// byte-identical either way; disabling it exists for benchmarking
    /// and for the cache-on == cache-off determinism tests.
    #[must_use]
    pub fn placement_cache(mut self, enabled: bool) -> GeolocationPipeline {
        self.placement_cache = enabled;
        self
    }

    /// Attaches an observer: every analysis records stage spans
    /// (`pipeline.ingest` plus the streaming engine's
    /// `streaming.refresh` / `streaming.snapshot` / `streaming.fit`;
    /// `pipeline.placement` / `pipeline.polish` / `pipeline.fit` for
    /// [`analyze_profiles`](GeolocationPipeline::analyze_profiles)),
    /// placed-user counters, and the placement engine's pruning and
    /// cache statistics into it.
    ///
    /// Observation is strictly out-of-band — reports are byte-identical
    /// with or without an observer (asserted by `tests/obs_invariants.rs`).
    /// When no observer is attached, the pipeline falls back to the
    /// process-global one ([`crowdtz_obs::install_global`]), if any.
    #[must_use]
    pub fn observer(mut self, observer: Arc<crowdtz_obs::Observer>) -> GeolocationPipeline {
        self.observer = Some(observer);
        self
    }

    /// The observer in effect: the attached one, else the process global.
    pub(crate) fn obs(&self) -> Option<Arc<crowdtz_obs::Observer>> {
        self.observer.clone().or_else(crowdtz_obs::global)
    }

    /// The worker-thread count the pipeline will use.
    pub fn effective_threads(&self) -> usize {
        self.threads.unwrap_or_else(default_threads)
    }

    /// The shard count the analysis engine will use.
    pub fn effective_shards(&self) -> usize {
        self.shards.unwrap_or_else(default_shards)
    }

    /// Whether the CDF-keyed placement cache is enabled.
    pub fn placement_cache_enabled(&self) -> bool {
        self.placement_cache
    }

    /// The generic profile in use.
    pub fn generic(&self) -> &GenericProfile {
        &self.generic
    }

    /// The configured active-user threshold.
    pub fn min_posts_threshold(&self) -> usize {
        self.min_posts
    }

    /// Whether the flat-profile filter is enabled.
    pub fn polish_enabled(&self) -> bool {
        self.polish
    }

    /// The configured maximum mixture size.
    pub fn max_components_limit(&self) -> usize {
        self.max_components
    }

    /// Runs the pipeline on a crowd's traces (timestamps already
    /// UTC-normalized, e.g. by scraper calibration).
    ///
    /// # Errors
    ///
    /// * [`CoreError::EmptyCrowd`] when no user survives filtering.
    /// * [`CoreError::Stats`] when a numeric fit fails.
    pub fn analyze(&self, traces: &TraceSet) -> Result<GeolocationReport, CoreError> {
        self.analyze_partial(traces, 1.0)
    }

    /// Runs the pipeline on the traces of a **partial** dump — one whose
    /// crawl was interrupted and covered only a `coverage` fraction of the
    /// forum's threads (`ScrapeReport::coverage()` in `crowdtz-forum`).
    ///
    /// The analysis itself is unchanged — placements and fits use whatever
    /// posts the crawl gathered — but the report records the coverage and
    /// [widens its confidence](GeolocationReport::component_confidence)
    /// instead of silently pretending the dump was complete.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidCoverage`] when `coverage` is outside `(0, 1]`.
    /// * Everything [`analyze`](GeolocationPipeline::analyze) can return.
    pub fn analyze_partial(
        &self,
        traces: &TraceSet,
        coverage: f64,
    ) -> Result<GeolocationReport, CoreError> {
        if !coverage.is_finite() || coverage <= 0.0 || coverage > 1.0 {
            return Err(CoreError::InvalidCoverage { coverage });
        }
        // Batch analysis *is* streaming-once: ingest everything into a
        // fresh sharded engine, snapshot once. One implementation of
        // profile building, polishing, and placement for both paths —
        // the streaming identity guarantee (streaming.rs module docs) is
        // what used to keep two copies in lockstep.
        let obs = self.obs();
        let mut engine = StreamingPipeline::new(self.clone());
        {
            let _s = crowdtz_obs::span!(obs, "pipeline.ingest");
            engine.ingest_set(traces);
        }
        let report = engine.snapshot_with_coverage(coverage)?;
        if let Some(obs) = &obs {
            obs.counter("pipeline.users_placed")
                .add(report.users_classified() as u64);
            obs.counter("pipeline.flat_removed")
                .add(report.flat_removed() as u64);
            obs.counter("pipeline.analyses").inc();
        }
        Ok(report)
    }

    /// Runs polish → place → fit over prebuilt activity profiles —
    /// exposed for callers that synthesize or cache profiles directly
    /// (e.g. the 100k-user scale demo) and therefore bypass trace
    /// ingestion.
    ///
    /// Per-user CDFs resolve through the same cache-backed placement
    /// kernel the streaming engine uses
    /// ([`GeolocationPipeline::placement_cache`] applies here too, with a
    /// per-call cache), on
    /// [`effective_threads`](GeolocationPipeline::effective_threads)
    /// workers.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidCoverage`] when `coverage` is outside `(0, 1]`.
    /// * [`CoreError::EmptyCrowd`] when no profile survives polishing.
    /// * [`CoreError::Stats`] when a numeric fit fails.
    pub fn analyze_profiles(
        &self,
        profiles: Vec<ActivityProfile>,
        coverage: f64,
    ) -> Result<GeolocationReport, CoreError> {
        if !coverage.is_finite() || coverage <= 0.0 || coverage > 1.0 {
            return Err(CoreError::InvalidCoverage { coverage });
        }
        let threads = self.effective_threads();
        let obs = self.obs();
        let engine = PlacementEngine::with_grid(&self.generic, self.effective_grid());
        let mut cache = PlacementCache::new(self.placement_cache);
        let resolved = {
            let _s = crowdtz_obs::span!(obs, "pipeline.placement");
            let cdfs: Vec<[f64; BINS]> =
                chunked_map(&profiles, threads, |p| p.distribution().cdf());
            engine.resolve_cdfs(&cdfs, &mut cache, threads, obs.as_deref())
        };
        let (profiles, placements, flat_removed) = {
            let _s = crowdtz_obs::span!(obs, "pipeline.polish");
            let mut kept = Rows::new();
            let mut placements = Rows::new();
            let mut flat_removed = 0usize;
            for (profile, r) in profiles.into_iter().zip(resolved) {
                if self.polish && r.flat {
                    flat_removed += 1;
                } else {
                    placements.push(UserPlacement::from_offset_minutes(
                        Arc::clone(profile.shared_user()),
                        r.zone_minutes,
                        r.emd,
                    ));
                    kept.push(profile);
                }
            }
            (kept, placements, flat_removed)
        };
        if profiles.is_empty() {
            return Err(CoreError::EmptyCrowd);
        }
        let crowd = CrowdProfile::aggregate(&profiles)?;
        // Sized to the engine's grid (not the placements' covering grid)
        // so this path stays byte-identical to a streaming snapshot on the
        // same grid.
        let histogram =
            PlacementHistogram::from_placements_on_grid(placements.iter(), self.effective_grid());
        let (single, multi) = {
            let _s = crowdtz_obs::span!(obs, "pipeline.fit");
            (
                SingleRegionFit::fit(&histogram)?,
                MultiRegionFit::fit(&histogram, self.max_components)?,
            )
        };
        if let Some(obs) = &obs {
            obs.counter("placement.users").add(placements.len() as u64);
            obs.counter("pipeline.users_placed")
                .add(placements.len() as u64);
            obs.counter("pipeline.flat_removed")
                .add(flat_removed as u64);
            obs.counter("pipeline.analyses").inc();
        }
        Ok(GeolocationReport {
            profiles,
            flat_removed,
            crowd,
            placements,
            histogram,
            single,
            multi,
            coverage,
            threads,
        })
    }

    /// Pearson correlation between a crowd's UTC profile and the generic
    /// profile at a given offset — the paper reports 0.93 for CRD Club vs
    /// the generic Twitter profile.
    ///
    /// # Errors
    ///
    /// Propagates [`StatsError`] from the correlation computation.
    pub fn crowd_correlation(
        &self,
        crowd: &CrowdProfile,
        offset_hours: i32,
    ) -> Result<f64, StatsError> {
        pearson(
            crowd.distribution().as_slice(),
            self.generic.zone_profile(offset_hours).as_slice(),
        )
    }
}

impl Default for GeolocationPipeline {
    /// Pipeline using [`GenericProfile::reference`].
    fn default() -> GeolocationPipeline {
        GeolocationPipeline::with_generic(GenericProfile::reference())
    }
}

/// Everything the pipeline learned about a crowd.
///
/// Serializable — the streaming identity tests compare incremental and
/// batch reports byte-for-byte through `serde_json`.
///
/// The per-user profiles and placements are [`Rows`]: a report is an
/// immutable snapshot, so successive streaming reports share every
/// chunk of rows no dirty user touched instead of deep-copying ~n users
/// per snapshot. (`Rows` serializes as a plain JSON array, so the
/// byte-identity guarantee is unaffected.)
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct GeolocationReport {
    profiles: Rows<ActivityProfile>,
    flat_removed: usize,
    crowd: CrowdProfile,
    placements: Rows<UserPlacement>,
    histogram: PlacementHistogram,
    single: SingleRegionFit,
    multi: MultiRegionFit,
    coverage: f64,
    threads: usize,
}

impl GeolocationReport {
    /// Assembles a report from precomputed parts — used by the streaming
    /// pipeline, whose snapshots must be byte-identical to batch reports.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        profiles: Rows<ActivityProfile>,
        flat_removed: usize,
        crowd: CrowdProfile,
        placements: Rows<UserPlacement>,
        histogram: PlacementHistogram,
        single: SingleRegionFit,
        multi: MultiRegionFit,
        coverage: f64,
        threads: usize,
    ) -> GeolocationReport {
        GeolocationReport {
            profiles,
            flat_removed,
            crowd,
            placements,
            histogram,
            single,
            multi,
            coverage,
            threads,
        }
    }

    /// The per-user profiles that entered the analysis, in user-id order.
    pub fn profiles(&self) -> &Rows<ActivityProfile> {
        &self.profiles
    }

    /// Number of users the flat-profile filter removed.
    pub fn flat_removed(&self) -> usize {
        self.flat_removed
    }

    /// Number of users classified.
    pub fn users_classified(&self) -> usize {
        self.profiles.len()
    }

    /// Total posts contributing to the analysis.
    pub fn posts_classified(&self) -> usize {
        self.profiles.iter().map(ActivityProfile::post_count).sum()
    }

    /// The crowd's aggregate profile (UTC hours).
    pub fn crowd_profile(&self) -> &CrowdProfile {
        &self.crowd
    }

    /// Per-user placements, parallel to [`profiles`](Self::profiles).
    pub fn placements(&self) -> &Rows<UserPlacement> {
        &self.placements
    }

    /// The placement histogram over the analysis grid's zones (24 hourly
    /// zones by default; 48 or 96 when a finer [`ZoneGrid`] was selected).
    ///
    /// [`ZoneGrid`]: crate::ZoneGrid
    pub fn histogram(&self) -> &PlacementHistogram {
        &self.histogram
    }

    /// The single-Gaussian fit (§IV.A).
    pub fn single_fit(&self) -> &SingleRegionFit {
        &self.single
    }

    /// The Gaussian-mixture fit (§IV.B).
    pub fn multi_fit(&self) -> &MultiRegionFit {
        &self.multi
    }

    /// The selected mixture.
    pub fn mixture(&self) -> &GaussianMixture {
        self.multi.mixture()
    }

    /// Fraction of the forum the crawl behind this analysis covered
    /// (`1.0` unless the report came from
    /// [`analyze_partial`](GeolocationPipeline::analyze_partial)).
    pub fn coverage(&self) -> f64 {
        self.coverage
    }

    /// True when the underlying dump was incomplete.
    pub fn is_partial(&self) -> bool {
        self.coverage < 1.0
    }

    /// The worker-thread count the analysis ran with (and the bootstrap
    /// in [`component_confidence`](GeolocationReport::component_confidence)
    /// will use). Informational — the numbers are thread-count-invariant.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Bootstrap confidence for each mixture component, widened for
    /// coverage.
    ///
    /// The bootstrap resamples only the users the crawl actually saw; a
    /// dump covering a fraction *c* of the forum's threads sampled roughly
    /// *c* of the crowd, so the resampling standard error understates the
    /// uncertainty about the **full** crowd by a factor of about √c. Each
    /// component's `std_error` is therefore divided by √c — a complete
    /// dump (`c = 1`) is returned unchanged.
    ///
    /// # Errors
    ///
    /// Propagates fitting errors from
    /// [`bootstrap_components`](crate::bootstrap_components).
    pub fn component_confidence(
        &self,
        config: &BootstrapConfig,
    ) -> Result<Vec<ComponentConfidence>, StatsError> {
        let widen = 1.0 / self.coverage.sqrt();
        Ok(
            bootstrap_components_threads(&self.placements, config, self.threads)?
                .into_iter()
                .map(|mut c| {
                    c.std_error *= widen;
                    c
                })
                .collect(),
        )
    }

    /// Table II row for this crowd: mixture fit quality.
    pub fn quality(&self) -> FitQuality {
        self.multi.quality()
    }

    /// Renders the full report as terminal text: the placement chart with
    /// the fitted curve overlaid, and one line per uncovered component
    /// with the paper-style city labels.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        // The fitted curve is sampled at the histogram's own zone
        // coordinates so the overlay lines up on every grid width
        // (`fitted_series()` is fixed at the 24 hourly points).
        let fitted = self
            .multi
            .mixture()
            .density_all_wrapped(&self.histogram.zone_coords(), 24.0);
        let mut out = crowdtz_stats::render_overlay(
            &format!(
                "placement of {} users (bar = crowd fraction, · = fitted mixture)",
                self.users_classified()
            ),
            self.histogram.fractions(),
            &fitted,
        );
        let _ = writeln!(
            out,
            "{} users classified from {} posts ({} flat profiles removed)",
            self.users_classified(),
            self.posts_classified(),
            self.flat_removed
        );
        if self.is_partial() {
            let _ = writeln!(
                out,
                "partial dump: {:.0}% of threads covered — confidence widened x{:.2}",
                self.coverage * 100.0,
                1.0 / self.coverage.sqrt()
            );
        }
        for (zone, weight) in self.multi.time_zones() {
            let _ = writeln!(
                out,
                "  {:>3.0}% of the crowd in {}",
                weight * 100.0,
                crowdtz_time::zone_label(zone)
            );
        }
        let _ = writeln!(out, "fit quality: {}", self.quality());
        out
    }
}

impl fmt::Display for GeolocationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} users classified ({} flat removed), peak UTC{:+}",
            self.users_classified(),
            self.flat_removed,
            self.histogram.peak_zone()
        )?;
        if self.is_partial() {
            writeln!(f, "coverage: {:.0}% of threads", self.coverage * 100.0)?;
        }
        write!(f, "mixture: {}", self.multi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdtz_synth::{generate_bot, BotSpec, PopulationSpec};
    use crowdtz_time::RegionDb;

    fn crowd(region: &str, users: usize, seed: u64) -> TraceSet {
        let db = RegionDb::extended();
        PopulationSpec::new(db.get(&region.into()).unwrap().clone())
            .users(users)
            .seed(seed)
            .posts_per_day(0.5)
            .generate()
    }

    #[test]
    fn single_region_crowd_lands_on_home_zone() {
        let pipeline = GeolocationPipeline::default();
        for (region, offset) in [("japan", 9), ("malaysia", 8), ("russia-moscow", 3)] {
            let report = pipeline.analyze(&crowd(region, 50, 7)).unwrap();
            let dominant = report.mixture().dominant().unwrap();
            assert!(
                (dominant.mean - f64::from(offset)).abs() <= 1.5,
                "{region}: mean {} expected ~{offset}",
                dominant.mean
            );
            assert!(report.users_classified() > 30);
        }
    }

    #[test]
    fn mixture_splits_two_distant_regions() {
        let mut traces = crowd("japan", 60, 3); // UTC+9
        for t in crowd("brazil", 60, 4).iter() {
            // UTC-3
            traces.insert(t.clone());
        }
        let report = GeolocationPipeline::default().analyze(&traces).unwrap();
        assert!(report.mixture().len() >= 2, "{}", report.mixture());
        let means: Vec<f64> = report
            .mixture()
            .components()
            .iter()
            .map(|c| c.mean)
            .collect();
        assert!(means.iter().any(|m| (m - 9.0).abs() < 2.0), "{means:?}");
        assert!(means.iter().any(|m| (m + 3.0).abs() < 2.5), "{means:?}");
    }

    #[test]
    fn bots_are_removed() {
        let mut traces = crowd("italy", 40, 5);
        for b in 0..5 {
            traces.insert(generate_bot(
                &format!("bot{b}"),
                &BotSpec::default(),
                b as u64,
            ));
        }
        let report = GeolocationPipeline::default().analyze(&traces).unwrap();
        assert!(
            report.flat_removed() >= 4,
            "removed {}",
            report.flat_removed()
        );
        for p in report.placements() {
            assert!(!p.user().starts_with("bot"), "bot {} survived", p.user());
        }
    }

    #[test]
    fn polish_can_be_disabled() {
        let mut traces = crowd("italy", 20, 5);
        traces.insert(generate_bot("bot", &BotSpec::default(), 1));
        let report = GeolocationPipeline::default()
            .polish(false)
            .analyze(&traces)
            .unwrap();
        assert_eq!(report.flat_removed(), 0);
    }

    #[test]
    fn empty_crowd_errors() {
        let traces = TraceSet::new();
        assert!(matches!(
            GeolocationPipeline::default().analyze(&traces),
            Err(CoreError::EmptyCrowd)
        ));
    }

    #[test]
    fn min_posts_threshold_applies() {
        let traces = crowd("france", 30, 9);
        let strict = GeolocationPipeline::default()
            .min_posts(10_000)
            .analyze(&traces);
        assert!(matches!(strict, Err(CoreError::EmptyCrowd)));
    }

    #[test]
    fn crowd_correlation_high_at_home_zone() {
        let pipeline = GeolocationPipeline::default();
        let report = pipeline.analyze(&crowd("russia-moscow", 60, 11)).unwrap();
        let at_home = pipeline
            .crowd_correlation(report.crowd_profile(), 3)
            .unwrap();
        let far = pipeline
            .crowd_correlation(report.crowd_profile(), -9)
            .unwrap();
        assert!(at_home > 0.85, "correlation at home {at_home}");
        assert!(at_home > far);
    }

    #[test]
    fn quality_beats_baseline() {
        let report = GeolocationPipeline::default()
            .analyze(&crowd("malaysia", 80, 13))
            .unwrap();
        let baseline = report.single_fit().baseline(report.histogram()).unwrap();
        assert!(report.single_fit().quality().average < baseline.average);
    }

    #[test]
    fn report_accessors_and_display() {
        let report = GeolocationPipeline::default()
            .analyze(&crowd("japan", 40, 2))
            .unwrap();
        assert!(report.posts_classified() > 0);
        assert_eq!(report.placements().len(), report.users_classified());
        assert!(!report.profiles().is_empty());
        let text = report.to_string();
        assert!(text.contains("users classified"), "{text}");
    }

    #[test]
    fn max_components_caps_the_mixture() {
        // A two-region crowd forced through a single-component fit.
        let mut traces = crowd("japan", 30, 3);
        for t in crowd("brazil", 30, 4).iter() {
            traces.insert(t.clone());
        }
        let report = GeolocationPipeline::default()
            .max_components(1)
            .analyze(&traces)
            .unwrap();
        assert_eq!(report.mixture().len(), 1);
    }

    #[test]
    fn invalid_coverage_is_rejected() {
        let traces = crowd("italy", 20, 1);
        let pipeline = GeolocationPipeline::default();
        for bad in [0.0, -0.5, 1.01, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                pipeline.analyze_partial(&traces, bad),
                Err(CoreError::InvalidCoverage { .. })
            ));
        }
    }

    #[test]
    fn full_coverage_matches_plain_analyze() {
        let traces = crowd("italy", 40, 8);
        let pipeline = GeolocationPipeline::default();
        let full = pipeline.analyze(&traces).unwrap();
        assert_eq!(full.coverage(), 1.0);
        assert!(!full.is_partial());
        let explicit = pipeline.analyze_partial(&traces, 1.0).unwrap();
        assert_eq!(
            explicit.histogram().fractions(),
            full.histogram().fractions()
        );
    }

    #[test]
    fn partial_coverage_widens_confidence() {
        let traces = crowd("italy", 60, 8);
        let pipeline = GeolocationPipeline::default();
        let cfg = crate::BootstrapConfig {
            iterations: 40,
            ..crate::BootstrapConfig::default()
        };
        let full = pipeline.analyze(&traces).unwrap();
        let partial = pipeline.analyze_partial(&traces, 0.25).unwrap();
        assert!(partial.is_partial());
        let tight = full.component_confidence(&cfg).unwrap();
        let wide = partial.component_confidence(&cfg).unwrap();
        assert_eq!(tight.len(), wide.len());
        // Same placements, so the widening is exactly 1/sqrt(0.25) = 2.
        for (t, w) in tight.iter().zip(&wide) {
            assert!((w.std_error - 2.0 * t.std_error).abs() < 1e-9);
            assert_eq!(t.mean, w.mean);
        }
        // The partial report says so, in both renderings.
        assert!(
            partial.render().contains("partial dump"),
            "{}",
            partial.render()
        );
        assert!(partial.to_string().contains("coverage"), "{partial}");
        assert!(!full.render().contains("partial dump"));
    }

    #[test]
    fn render_includes_chart_and_city_labels() {
        let report = GeolocationPipeline::default()
            .analyze(&crowd("japan", 40, 2))
            .unwrap();
        let text = report.render();
        // The dominant zone rounds to UTC+8 or UTC+9 (small-crowd jitter);
        // either way a city label and the chart must be present.
        assert!(text.contains("Tokyo") || text.contains("Beijing"), "{text}");
        assert!(text.contains("% of the crowd in UTC+"), "{text}");
        assert!(text.contains("fit quality"), "{text}");
        assert!(text.contains('█'), "{text}");
    }
}
