//! Bootstrap confidence intervals for mixture components — an extension
//! beyond the paper.
//!
//! The paper reports point estimates for the uncovered time zones. For an
//! investigator, the natural follow-up question is *how sure* the method
//! is: resampling the classified users with replacement and refitting
//! yields an empirical standard error per component mean, turning
//! "the crowd is at UTC+1" into "UTC+1 ± 0.4 h".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crowdtz_stats::StatsError;

use crate::placement::{PlacementHistogram, UserPlacement};
use crate::single::MultiRegionFit;

/// Bootstrap summary for one mixture component.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComponentConfidence {
    /// The reference fit's component mean (zone coordinate).
    pub mean: f64,
    /// The reference fit's mixing weight.
    pub weight: f64,
    /// Bootstrap standard error of the mean.
    pub std_error: f64,
    /// Fraction of bootstrap fits in which a matching component appeared
    /// (within 3 h circularly) — a stability score.
    pub support: f64,
}

/// Configuration for the bootstrap.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BootstrapConfig {
    /// Number of bootstrap resamples.
    pub iterations: usize,
    /// RNG seed (the procedure is deterministic given the seed).
    pub seed: u64,
    /// Match radius (hours, circular) when pairing bootstrap components
    /// with reference components.
    pub match_radius: f64,
}

impl Default for BootstrapConfig {
    fn default() -> BootstrapConfig {
        BootstrapConfig {
            iterations: 200,
            seed: 0,
            match_radius: 3.0,
        }
    }
}

fn circular_distance(a: f64, b: f64) -> f64 {
    let d = (a - b).rem_euclid(24.0);
    d.min(24.0 - d)
}

/// Bootstraps the mixture fit over the classified users, using
/// [`default_threads`](crate::default_threads) worker threads.
///
/// See [`bootstrap_components_threads`] — the result is byte-identical
/// for every thread count, so the machine-dependent default changes only
/// the wall-clock, never the numbers.
///
/// # Errors
///
/// Propagates fitting errors; returns [`StatsError::NotEnoughData`] for an
/// empty placement list.
pub fn bootstrap_components<'a>(
    placements: impl IntoIterator<Item = &'a UserPlacement>,
    config: &BootstrapConfig,
) -> Result<Vec<ComponentConfidence>, StatsError> {
    bootstrap_components_threads(placements, config, crate::engine::default_threads())
}

/// Bootstraps the mixture fit over the classified users on `threads`
/// worker threads.
///
/// Resamples the placements with replacement `iterations` times, refits a
/// mixture with the reference component count each time, and matches each
/// bootstrap component to the nearest reference component (circularly,
/// within `match_radius`).
///
/// # Determinism
///
/// Each resample draws from its own RNG seeded as
/// `config.seed ^ resample_index`, resamples **indices** into the shared
/// placement list (no `UserPlacement` clones), and builds its histogram
/// straight from the sampled zone indices. Per-resample results are
/// reduced in resample order (contiguous chunks, concatenated in chunk
/// order), so the output is byte-identical for any thread count,
/// including 1.
///
/// # Errors
///
/// Propagates fitting errors; returns [`StatsError::NotEnoughData`] for an
/// empty placement list.
pub fn bootstrap_components_threads<'a>(
    placements: impl IntoIterator<Item = &'a UserPlacement>,
    config: &BootstrapConfig,
    threads: usize,
) -> Result<Vec<ComponentConfidence>, StatsError> {
    let placements: Vec<&UserPlacement> = placements.into_iter().collect();
    if placements.is_empty() {
        return Err(StatsError::NotEnoughData { got: 0, needed: 1 });
    }
    let reference_hist = PlacementHistogram::from_placements(placements.iter().copied());
    let reference = MultiRegionFit::fit(&reference_hist, 4)?;
    let k = reference.mixture().len();
    let ref_means: Vec<(f64, f64)> = reference
        .mixture()
        .components()
        .iter()
        .map(|c| (c.mean, c.weight))
        .collect();

    // Zone indices are extracted once; resampling only ever touches this
    // flat byte array, never the heap-backed placement records. The grid
    // is the coarsest one covering every placement, matching the
    // reference histogram built by `from_placements` above.
    let grid = crate::placement::ZoneGrid::covering(placements.iter().copied());
    let zone_indices: Vec<u8> = placements
        .iter()
        .map(|p| grid.index_of_minutes(p.offset_minutes()) as u8)
        .collect();
    let users = zone_indices.len();

    let resample_ids: Vec<u64> = (0..config.iterations as u64).collect();
    let ref_means_view = &ref_means;
    let zone_view = &zone_indices;
    // Each worker reuses one zone-count scratch buffer and appends its
    // matches to one flat output vector — no per-resample allocations.
    // Output order is (resample order, component order), exactly the
    // order the old per-resample Vec-of-Vecs reduction produced, so the
    // summary below is byte-identical.
    let matches: Vec<(usize, f64)> = crate::engine::chunked_map_with(
        &resample_ids,
        threads,
        || vec![0usize; grid.zones()],
        move |counts, &resample_index, out| {
            let mut rng = StdRng::seed_from_u64(config.seed ^ resample_index);
            counts.fill(0);
            for _ in 0..users {
                counts[zone_view[rng.gen_range(0..users)] as usize] += 1;
            }
            let hist = PlacementHistogram::from_zone_counts(counts);
            let Ok(fit) = MultiRegionFit::fit_k(&hist, k) else {
                return;
            };
            out.extend(fit.mixture().components().iter().filter_map(|c| {
                // Nearest reference component within the match radius.
                ref_means_view
                    .iter()
                    .enumerate()
                    .map(|(i, (m, _))| (i, circular_distance(c.mean, *m)))
                    .filter(|(_, d)| *d <= config.match_radius)
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .map(|(i, _)| (i, c.mean))
            }));
        },
    );

    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); k];
    for (idx, mean) in matches {
        samples[idx].push(mean);
    }

    Ok(ref_means
        .into_iter()
        .enumerate()
        .map(|(i, (mean, weight))| {
            let n = samples[i].len();
            let std_error = if n > 1 {
                let m = samples[i].iter().sum::<f64>() / n as f64;
                (samples[i].iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64).sqrt()
            } else {
                f64::INFINITY
            };
            ComponentConfidence {
                mean,
                weight,
                std_error,
                support: n as f64 / config.iterations.max(1) as f64,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaussian_placements(mean: f64, sigma: f64, n: usize, tag: &str) -> Vec<UserPlacement> {
        let mut out = Vec::new();
        let mut id = 0usize;
        for k in -11..=12 {
            let z = (f64::from(k) - mean) / sigma;
            let users = ((-0.5 * z * z).exp() * n as f64).round() as usize;
            for _ in 0..users {
                out.push(UserPlacement::new(format!("{tag}{id}"), k, 0.1));
                id += 1;
            }
        }
        out
    }

    #[test]
    fn single_region_bootstrap_is_tight_and_stable() {
        let placements = gaussian_placements(3.0, 2.0, 60, "u");
        let conf = bootstrap_components(
            &placements,
            &BootstrapConfig {
                iterations: 60,
                ..BootstrapConfig::default()
            },
        )
        .unwrap();
        assert_eq!(conf.len(), 1);
        let c = &conf[0];
        assert!((c.mean - 3.0).abs() < 0.5, "mean {}", c.mean);
        assert!(c.std_error < 1.0, "std error {}", c.std_error);
        assert!(c.support > 0.9, "support {}", c.support);
    }

    #[test]
    fn two_region_bootstrap_matches_components() {
        let mut placements = gaussian_placements(1.0, 2.0, 80, "eu");
        placements.extend(gaussian_placements(-6.0, 2.0, 40, "us"));
        let conf = bootstrap_components(
            &placements,
            &BootstrapConfig {
                iterations: 60,
                ..BootstrapConfig::default()
            },
        )
        .unwrap();
        assert_eq!(conf.len(), 2);
        // Heaviest first; both supported and tight.
        assert!(conf[0].weight > conf[1].weight);
        for c in &conf {
            assert!(c.support > 0.8, "support {}", c.support);
            assert!(c.std_error < 1.2, "std error {}", c.std_error);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let placements = gaussian_placements(0.0, 2.0, 40, "u");
        let cfg = BootstrapConfig {
            iterations: 30,
            seed: 9,
            ..BootstrapConfig::default()
        };
        let a = bootstrap_components(&placements, &cfg).unwrap();
        let b = bootstrap_components(&placements, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_errors() {
        assert!(bootstrap_components(&[], &BootstrapConfig::default()).is_err());
    }

    #[test]
    fn byte_identical_across_thread_counts() {
        let mut placements = gaussian_placements(2.0, 2.0, 50, "eu");
        placements.extend(gaussian_placements(-7.0, 2.0, 30, "us"));
        let cfg = BootstrapConfig {
            iterations: 40,
            seed: 5,
            ..BootstrapConfig::default()
        };
        let base = bootstrap_components_threads(&placements, &cfg, 1).unwrap();
        let base_json = serde_json::to_string(&base).unwrap();
        for threads in [2usize, 4, 8] {
            let other = bootstrap_components_threads(&placements, &cfg, threads).unwrap();
            assert_eq!(
                base_json,
                serde_json::to_string(&other).unwrap(),
                "{threads} threads"
            );
        }
    }

    /// Regression: the index-resampling fast path must reproduce the old
    /// clone-every-placement implementation exactly (same per-resample
    /// seeds), both per-resample histogram and final summary.
    #[test]
    fn index_resampling_matches_clone_resampling() {
        let mut placements = gaussian_placements(1.0, 2.0, 60, "eu");
        placements.extend(gaussian_placements(8.0, 2.0, 35, "asia"));
        let cfg = BootstrapConfig {
            iterations: 25,
            seed: 42,
            ..BootstrapConfig::default()
        };

        // The old path: clone sampled placements, build the histogram from
        // the cloned records, fit, match against the reference components.
        let reference_hist = PlacementHistogram::from_placements(&placements);
        let reference = MultiRegionFit::fit(&reference_hist, 4).unwrap();
        let k = reference.mixture().len();
        let ref_means: Vec<(f64, f64)> = reference
            .mixture()
            .components()
            .iter()
            .map(|c| (c.mean, c.weight))
            .collect();
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); k];
        for resample_index in 0..cfg.iterations as u64 {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ resample_index);
            let resampled: Vec<UserPlacement> = (0..placements.len())
                .map(|_| placements[rng.gen_range(0..placements.len())].clone())
                .collect();
            let hist = PlacementHistogram::from_placements(&resampled);

            // The index path must build the exact same histogram from the
            // same draws without materializing any UserPlacement.
            let mut rng2 = StdRng::seed_from_u64(cfg.seed ^ resample_index);
            let mut counts = [0usize; crate::placement::ZONE_COUNT];
            for _ in 0..placements.len() {
                let idx = rng2.gen_range(0..placements.len());
                counts[PlacementHistogram::index_of(placements[idx].zone_hours())] += 1;
            }
            assert_eq!(hist, PlacementHistogram::from_zone_counts(&counts));

            let Ok(fit) = MultiRegionFit::fit_k(&hist, k) else {
                continue;
            };
            for c in fit.mixture().components() {
                if let Some((idx, _)) = ref_means
                    .iter()
                    .enumerate()
                    .map(|(i, (m, _))| (i, circular_distance(c.mean, *m)))
                    .filter(|(_, d)| *d <= cfg.match_radius)
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                {
                    samples[idx].push(c.mean);
                }
            }
        }
        let old_style: Vec<ComponentConfidence> = ref_means
            .into_iter()
            .enumerate()
            .map(|(i, (mean, weight))| {
                let n = samples[i].len();
                let std_error = if n > 1 {
                    let m = samples[i].iter().sum::<f64>() / n as f64;
                    (samples[i].iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64).sqrt()
                } else {
                    f64::INFINITY
                };
                ComponentConfidence {
                    mean,
                    weight,
                    std_error,
                    support: n as f64 / cfg.iterations.max(1) as f64,
                }
            })
            .collect();

        for threads in [1usize, 4] {
            assert_eq!(
                old_style,
                bootstrap_components_threads(&placements, &cfg, threads).unwrap(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn circular_distance_wraps() {
        assert_eq!(circular_distance(12.0, -11.0), 1.0);
        assert_eq!(circular_distance(0.0, 12.0), 12.0);
        assert_eq!(circular_distance(-3.0, -3.0), 0.0);
    }
}
