//! The placement engine: precomputed zone-CDF kernels, a fixed-point SoA
//! batch kernel, and deterministic work-splitting parallelism for the
//! §IV.A hot path.
//!
//! [`place_user`](crate::place_user) re-materializes all 24 shifted zone
//! profiles — and re-accumulates their cumulative sums — for *every* user.
//! At the crowd sizes the ROADMAP targets (millions of users, multiplied
//! across forums) that is the dominant cost of the whole method. The
//! [`PlacementEngine`] precomputes, once per generic profile and
//! [`ZoneGrid`], every zone profile **and its CDF** (plus the uniform CDF
//! the §IV.C bot filter compares against), and places users through two
//! complementary kernels:
//!
//! * a **scalar** kernel ([`PlacementEngine::place_cdf`]) — one fused
//!   difference-and-pruning-bound sweep per zone, then exact O(n)
//!   selection ([`circular_emd_of_cdf_diff`]) in ascending-bound order;
//! * a **batch** kernel (used by [`PlacementEngine::place_all`] and the
//!   cached resolve path) — users are processed in structure-of-arrays
//!   batches of [`BATCH_USERS`]. Every CDF is folded into its quantized
//!   fixed-point quad planes (`crowdtz-stats`'s [`quad_fold`]), and the
//!   pruning lower bound for a whole lane block against each zone is one
//!   contiguous, branch-free `i32` loop ([`batch_quad_bounds`]) the
//!   compiler autovectorizes. Exact `f64` selection then runs in *waves*:
//!   every still-live lane contributes its next candidate zone to
//!   [`EMD_LANES`]-wide SIMD groups of the sorting-network EMD kernel,
//!   and lanes retire as the slack-adjusted integer bound proves no
//!   remaining zone can win.
//!
//! Quantization cannot change a result: the integer bound is only used to
//! *prune*, after subtracting a provable slack ([`prune_slack`]), so a
//! zone is skipped exactly when its true lower bound proves it cannot win.
//! The winning zone's distance is always evaluated by the same shared
//! exact kernel on the same `f64` CDF differences, and the argmin under
//! the (distance, index) order is visit-order-independent — so the batch
//! kernel, the scalar kernel, and [`place_user`](crate::place_user) are
//! all bit-identical on the hourly grid.
//!
//! # Zone grids
//!
//! The engine scans any [`ZoneGrid`]. Activity profiles stay 24-bin
//! hourly; on finer grids each user CDF is upsampled on the fly (each
//! hour's mass split evenly across the 2 or 4 sub-bins — exact power-of-
//! two divisions), and zone profiles are grid-resolution rotations of the
//! upsampled generic profile. Distances stay in **hours** of probability
//! mass: grid-bin distances are scaled by the bin width (1, 0.5 or 0.25 —
//! powers of two, so the scaling is exact and order-preserving).
//!
//! # Determinism under parallelism
//!
//! [`PlacementEngine::place_all`] splits users into fixed-size batches
//! *before* fanning batches across scoped worker threads in contiguous,
//! order-stable chunks, so batch composition — and with it every pruning
//! decision and metric — is identical for any thread count, including 1
//! (see `DESIGN.md` §9 and §14).

use std::collections::HashMap;
use std::sync::Arc;

use crowdtz_stats::{
    batch_min_argmin, batch_quad_bounds, circular_emd_of_cdf_diff_scratch, prune_slack, quad_fold,
    Distribution24, SortNetwork, BINS, CDF_FIXED_SCALE, EMD_LANES,
};

use crate::generic::GenericProfile;
use crate::placement::{UserPlacement, ZoneGrid};
use crate::profile::ActivityProfile;

/// Bucket bounds for the `placement.exact_evals_per_user` histogram on the
/// hourly grid: zones per evaluated profile that reached the exact EMD
/// evaluation (of 24 total). With the placement cache on, one observation
/// is recorded per cache **miss** — hits skip the scan entirely.
pub(crate) const EXACT_EVAL_BOUNDS: &[u64] = &[1, 2, 3, 4, 6, 8, 12, 24];

/// Per-grid bucket bounds for `placement.exact_evals_per_user`: the hourly
/// bounds extended to the grid's zone count, so pruning effectiveness is
/// visible at the same resolution on every grid.
pub(crate) fn exact_eval_bounds(grid: ZoneGrid) -> &'static [u64] {
    match grid {
        ZoneGrid::Hourly => EXACT_EVAL_BOUNDS,
        ZoneGrid::HalfHour => &[1, 2, 3, 4, 6, 8, 12, 24, 48],
        ZoneGrid::QuarterHour => &[1, 2, 3, 4, 6, 8, 12, 24, 48, 96],
    }
}

/// Users per structure-of-arrays batch in the batch placement kernel.
///
/// Batches are carved from the input *before* work is distributed over
/// threads, so batch composition (and therefore pruning behaviour and
/// metrics) never depends on the thread count. Within a batch the exact
/// evaluations run as *waves* of [`EMD_LANES`]-wide SIMD groups (see
/// [`PlacementEngine::resolve_batch`]); a large batch keeps late waves —
/// where only the hard lanes are still alive — densely packed instead of
/// padding a mostly-idle SIMD group per 64 users. 1024 lanes keep the
/// whole working set (grid CDFs + bound matrix + its transpose) around
/// 400 KiB on the hourly grid — L2-resident on anything current.
const BATCH_USERS: usize = 1024;

/// Cache key for a polished-profile CDF: the grid-resolution cumulative
/// values quantized at full `f64` precision via [`f64::to_bits`] (24, 48
/// or 96 words — the key width follows the grid). Placement, EMD, and the
/// flatness verdict are pure functions of exactly this grid-resolution
/// CDF, so two colliding profiles are guaranteed equal results and a hit
/// can never change anything. (Low-post-count profiles hit constantly: a
/// user with k active slots has a small finite set of possible CDFs.)
/// Shared, not boxed: the cache's map and its clock ring hold the same
/// key, so each resident entry stores its words once.
type CdfKey = std::sync::Arc<[u64]>;

/// Everything placement derives from one CDF: the EMD-closest zone, its
/// distance, and the §IV.C flatness verdict. A pure function of the CDF
/// (given the engine's generic profile and grid), which is what makes it
/// safe to cache and to reuse across users.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResolvedCdf {
    /// UTC offset (minutes east) of the EMD-closest zone.
    pub(crate) zone_minutes: i32,
    /// Circular EMD to that zone, in hours of probability mass.
    pub(crate) emd: f64,
    /// Whether the profile is closer to uniform than to every zone.
    pub(crate) flat: bool,
}

/// One lane's outcome from the batch kernel, with pruning accounting.
#[derive(Debug, Clone, Copy)]
struct BatchOutcome {
    resolved: ResolvedCdf,
    /// Zones that reached the exact EMD evaluation.
    exact_evals: u32,
    /// Zones skipped by the fixed-point batch bound.
    batch_prunes: u32,
}

/// Lanes per L1-resident sub-block of the bound phase. Assembly, bound
/// rows and the transpose all work on one sub-block at a time, so the
/// block-local buffers (`ufolds`, `bounds`) stay a few KiB regardless of
/// [`BATCH_USERS`] — the full-batch bound matrix only ever exists in its
/// lane-major transposed form. 64 lanes are 8 AVX2 `i32x8` vectors wide,
/// enough to saturate the vectorized bound sweep.
const BOUND_BLOCK: usize = 64;

/// Per-worker reusable scratch for the SoA batch kernel — every buffer the
/// kernel touches, sized once for [`BATCH_USERS`] lanes at the engine's
/// grid width and reused across batches so the hot path never allocates.
struct BatchScratch {
    /// Lane-major grid-resolution user CDFs: `ucdfs[u*bins + h]`.
    ucdfs: Vec<f64>,
    /// Plane-row-major quantized quad folds for one [`BOUND_BLOCK`]:
    /// `ufolds[h*block + u]` over `3 · bins/4` fold rows ([`quad_fold`]).
    ufolds: Vec<i32>,
    /// One lane's fold, before the row-major scatter.
    fold: Vec<i32>,
    /// Zone-major integer bound rows for one [`BOUND_BLOCK`]:
    /// `bounds[i*block + u]`.
    bounds: Vec<i32>,
    /// Per-lane running minimal bound for one [`BOUND_BLOCK`] — folded
    /// zone by zone during the bound sweep ([`batch_min_argmin`]).
    seed_min: Vec<i32>,
    /// Zone attaining `seed_min` (smallest index on ties) — each lane's
    /// first exact-evaluation candidate, for free out of the bound phase.
    seed_idx: Vec<u32>,
    /// Lane-major bound matrix for the whole batch: `tbounds[u*bins + i]`.
    /// Consumed destructively — the candidate scan overwrites a visited
    /// zone's bound with `i32::MAX`, which both marks it visited and keeps
    /// the scan a branch-free min over the row.
    tbounds: Vec<i32>,
    /// Per-lane current candidate zone for the next wave.
    cand: Vec<u32>,
    /// Lanes still scanning, compacted in place between waves.
    live: Vec<u32>,
    /// Per-lane best exact EMD so far (grid-step units).
    best_emd: Vec<f64>,
    /// Zone index achieving `best_emd` (smallest index on ties).
    best_idx: Vec<u32>,
    /// Per-lane exact-evaluation count (the `exact_evals` metric).
    evals: Vec<u32>,
    /// Per-lane §IV.C flatness verdict.
    flat: Vec<bool>,
    /// Bin-major CDF-difference columns for one SIMD group:
    /// `rows[h*EMD_LANES + t]`.
    rows: Vec<f64>,
    /// The group's [`EMD_LANES`] exact distances.
    emds: [f64; EMD_LANES],
}

impl BatchScratch {
    fn new(bins: usize) -> BatchScratch {
        BatchScratch {
            ucdfs: vec![0.0; BATCH_USERS * bins],
            ufolds: vec![0; (3 * bins / 4) * BOUND_BLOCK],
            fold: vec![0; 3 * bins / 4],
            bounds: vec![0; bins * BOUND_BLOCK],
            seed_min: vec![0; BOUND_BLOCK],
            seed_idx: vec![0; BOUND_BLOCK],
            tbounds: vec![0; BATCH_USERS * bins],
            cand: vec![0; BATCH_USERS],
            live: Vec::with_capacity(BATCH_USERS),
            best_emd: vec![0.0; BATCH_USERS],
            best_idx: vec![0; BATCH_USERS],
            evals: vec![0; BATCH_USERS],
            flat: vec![false; BATCH_USERS],
            rows: vec![0.0; bins * EMD_LANES],
            emds: [0.0; EMD_LANES],
        }
    }
}

/// [`row_min_unvisited`] at a compile-time width, so the min reduction
/// unrolls and vectorizes instead of looping over a runtime length.
#[inline]
fn row_min_w<const N: usize>(row: &[i32; N]) -> (usize, i32) {
    let mut m = i32::MAX;
    for &b in row.iter() {
        m = m.min(b);
    }
    let mut i = 0usize;
    while i < N - 1 && row[i] != m {
        i += 1;
    }
    (i, m)
}

/// The candidate scan's one step: the unvisited (`!= i32::MAX`) zone with
/// the smallest bound, smallest index on ties — as a branch-free vector
/// min over the row followed by a first-position match, which is exactly
/// the tie rule the scalar scan's strict `<` implements. Returns
/// `None` once every zone is visited (real bounds never reach `i32::MAX`:
/// they are at most `bins · 2 ·` [`CDF_FIXED_SCALE`] plus slack).
#[inline]
fn row_min_unvisited(row: &[i32]) -> Option<(usize, i32)> {
    let (i, m) = match row.len() {
        24 => row_min_w::<24>(row.try_into().expect("len checked")),
        48 => row_min_w::<48>(row.try_into().expect("len checked")),
        96 => row_min_w::<96>(row.try_into().expect("len checked")),
        _ => {
            let m = row.iter().copied().min().unwrap_or(i32::MAX);
            (row.iter().position(|&b| b == m).unwrap_or(0), m)
        }
    };
    if m == i32::MAX {
        return None;
    }
    Some((i, m))
}

/// CDF-keyed placement cache: quantized grid CDF → [`ResolvedCdf`],
/// bounded by **clock (second-chance) eviction**.
///
/// The cache is probed and filled **sequentially** (inside
/// [`PlacementEngine::resolve_cdfs`]) while only the missed computations
/// fan out across worker threads, so hit/miss/eviction counts — and
/// therefore the observability metrics — are identical for every thread
/// count and every shard count, preserving the workspace-wide
/// determinism invariant.
///
/// At `capacity` entries, each new key evicts one resident: a clock hand
/// sweeps the slot ring, giving slots whose reference bit was set by a
/// hit since the hand last passed a second chance (bit cleared, hand
/// advances) and evicting the first slot found unreferenced. Long-lived
/// deployments therefore keep hitting after crowd drift — stale CDFs
/// rotate out instead of permanently squatting the capacity the way the
/// old stop-inserting-at-capacity policy let them. Eviction only
/// forgets: a re-miss recomputes through the same resolve kernel, so
/// results are byte-identical under any eviction schedule.
#[derive(Debug, Clone)]
pub(crate) struct PlacementCache {
    /// Key → index into `slots`.
    map: HashMap<CdfKey, usize>,
    /// The clock ring: `(key, value, referenced)` per resident entry.
    slots: Vec<(CdfKey, ResolvedCdf, bool)>,
    /// Clock hand: the next eviction candidate.
    hand: usize,
    capacity: usize,
    enabled: bool,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PlacementCache {
    /// Resident entries before eviction starts. Each entry is ~0.25–1 KiB
    /// depending on grid, so the bound caps the cache near 1 GiB in the
    /// worst case — far above any realistic distinct-profile count, but
    /// finite.
    const DEFAULT_CAPACITY: usize = 1 << 20;

    /// An empty cache; when `enabled` is false every lookup misses and
    /// nothing is stored (used to prove cache-on == cache-off).
    pub(crate) fn new(enabled: bool) -> PlacementCache {
        PlacementCache {
            map: HashMap::new(),
            slots: Vec::new(),
            hand: 0,
            capacity: Self::DEFAULT_CAPACITY,
            enabled,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up a key, marking its slot referenced so the clock hand
    /// passes it over once before eviction.
    fn get(&mut self, key: &CdfKey) -> Option<ResolvedCdf> {
        let &i = self.map.get(key)?;
        self.slots[i].2 = true;
        Some(self.slots[i].1)
    }

    /// Inserts a key, evicting the clock hand's first second-chance
    /// victim when the ring is full. New entries start unreferenced, so
    /// a never-hit entry is the preferred victim over anything probed
    /// since the hand last swept by.
    fn insert(&mut self, key: CdfKey, entry: ResolvedCdf) {
        if self.capacity == 0 || self.map.contains_key(&key) {
            return;
        }
        if self.slots.len() < self.capacity {
            self.map.insert(key.clone(), self.slots.len());
            self.slots.push((key, entry, false));
            return;
        }
        // The sweep terminates: clearing bits as it goes, one full
        // revolution leaves every slot unreferenced.
        while self.slots[self.hand].2 {
            self.slots[self.hand].2 = false;
            self.hand = (self.hand + 1) % self.capacity;
        }
        let victim = self.hand;
        self.map.remove(&self.slots[victim].0);
        self.map.insert(key.clone(), victim);
        self.slots[victim] = (key, entry, false);
        self.hand = (victim + 1) % self.capacity;
        self.evictions += 1;
    }

    /// Lifetime `(hits, misses)` counts.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Lifetime count of entries rotated out by the clock hand.
    #[cfg(test)]
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Distinct CDFs currently stored.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

/// Number of worker threads to use by default: the `CROWDTZ_THREADS`
/// environment variable when set to a positive integer, otherwise the
/// machine's available parallelism (1 if that cannot be determined).
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("CROWDTZ_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Clamps a requested worker count to the machine's available parallelism
/// (and to at least 1).
///
/// Oversubscribing CPU-bound workers never helps and measurably hurts on
/// small hosts (a 1-CPU container running "4 threads" pays spawn and
/// scheduling cost for zero parallelism — the 0.92× bootstrap regression in
/// `BENCH_placement.json`). Results are unaffected: every parallel path in
/// this workspace is byte-identical for any thread count (DESIGN.md §9),
/// so the clamp is purely a performance guard. Benches record both the
/// requested and the effective (clamped) count.
pub fn clamped_threads(requested: usize) -> usize {
    let available = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    requested.max(1).min(available)
}

/// Maps `items` through `map` on up to `threads` scoped worker threads,
/// preserving input order.
///
/// Items are split into contiguous chunks, one per thread; chunk results
/// are concatenated in chunk order, so for a pure `map` the output is
/// identical for every thread count. Used by placement, profile building,
/// polishing, and the bootstrap.
pub(crate) fn chunked_map<T, U, F>(items: &[T], threads: usize, map: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = clamped_threads(threads).min(items.len().max(1));
    if threads == 1 {
        return items.iter().map(map).collect();
    }
    let chunk_len = items.len().div_ceil(threads);
    let map = &map;
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(move |_| chunk.iter().map(map).collect::<Vec<U>>()))
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for handle in handles {
            out.extend(handle.join().expect("worker thread panicked"));
        }
        out
    })
    .expect("thread scope failed")
}

/// Like [`chunked_map`], but each worker thread carries a reusable scratch
/// value built by `init`, and each item may emit any number of outputs by
/// appending to the worker's output vector.
///
/// Output order is (chunk order, item order within the chunk, append order
/// within the item) — i.e. exactly the order a sequential
/// `for item in items { fill(&mut scratch, item, &mut out) }` loop would
/// produce — so for a pure `fill` the result is byte-identical for every
/// thread count. Used where a per-item allocation would dominate (the
/// bootstrap's resample buffers, profile slot scratch).
pub(crate) fn chunked_map_with<T, U, S, I, F>(
    items: &[T],
    threads: usize,
    init: I,
    fill: F,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T, &mut Vec<U>) + Sync,
{
    let threads = clamped_threads(threads).min(items.len().max(1));
    if threads == 1 {
        let mut scratch = init();
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            fill(&mut scratch, item, &mut out);
        }
        return out;
    }
    let chunk_len = items.len().div_ceil(threads);
    let init = &init;
    let fill = &fill;
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| {
                scope.spawn(move |_| {
                    let mut scratch = init();
                    let mut out = Vec::with_capacity(chunk.len());
                    for item in chunk {
                        fill(&mut scratch, item, &mut out);
                    }
                    out
                })
            })
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for handle in handles {
            out.extend(handle.join().expect("worker thread panicked"));
        }
        out
    })
    .expect("thread scope failed")
}

/// Precomputed placement state for one generic profile on one [`ZoneGrid`].
///
/// ```
/// use crowdtz_core::{place_user, GenericProfile, PlacementEngine};
/// # use crowdtz_core::ActivityProfile;
/// use crowdtz_time::{Timestamp, TzOffset, UserTrace};
///
/// let engine = PlacementEngine::new(&GenericProfile::reference());
/// let trace = UserTrace::new("u", (0..40).map(|i| Timestamp::from_secs(i * 90_000)).collect());
/// let profile = ActivityProfile::from_trace_offset(&trace, TzOffset::UTC).unwrap();
/// // Bit-identical to the naive per-call path.
/// assert_eq!(engine.place(&profile), place_user(&profile, engine.generic()));
/// ```
#[derive(Debug, Clone)]
pub struct PlacementEngine {
    generic: GenericProfile,
    grid: ZoneGrid,
    /// CDF of the zone profile at grid index `i`, flattened zone-major:
    /// `zone_cdfs[i * bins .. (i + 1) * bins]` (index `i` ↔ offset
    /// [`ZoneGrid::minutes_of`]`(i)`).
    zone_cdfs: Vec<f64>,
    /// Quantized quad folds of each zone CDF, flattened zone-major
    /// (`3 · bins / 4` words per zone, see [`quad_fold`]) — the
    /// fixed-point side of the batch pruning bound.
    zone_folds: Vec<i32>,
    /// CDF of the uniform profile at grid resolution, for the §IV.C
    /// flatness check.
    uniform_cdf: Vec<f64>,
    /// The grid-width compare-exchange schedule driving the lane-parallel
    /// exact EMD kernel ([`SortNetwork::batch_emd`]).
    net: SortNetwork,
}

impl PlacementEngine {
    /// Precomputes the 24 hourly zone profiles and their CDFs — the
    /// paper's grid and the serde-compatible default.
    pub fn new(generic: &GenericProfile) -> PlacementEngine {
        PlacementEngine::with_grid(generic, ZoneGrid::Hourly)
    }

    /// Precomputes every zone profile of `grid` and its CDF.
    ///
    /// The generic profile stays 24-bin hourly; on finer grids each
    /// hour's probability mass is split evenly across the grid's sub-bins
    /// (an exact power-of-two division), and zone `i`'s profile is the
    /// upsampled local curve rotated by `i` grid bins.
    pub fn with_grid(generic: &GenericProfile, grid: ZoneGrid) -> PlacementEngine {
        let bins = grid.zones();
        let per = grid.per_hour();
        let inv = 1.0 / per as f64;
        // Upsampled local and uniform profiles at grid resolution.
        let mut local = vec![0.0_f64; bins];
        let mut uniform = vec![0.0_f64; bins];
        let local24 = generic.distribution();
        let uniform24 = Distribution24::uniform();
        for h in 0..BINS {
            let lw = local24.get(h) * inv;
            let uw = uniform24.get(h) * inv;
            for j in 0..per {
                local[h * per + j] = lw;
                uniform[h * per + j] = uw;
            }
        }
        let mut zone_cdfs = vec![0.0_f64; bins * bins];
        let fw = 3 * bins / 4;
        let mut zone_folds = vec![0i32; bins * fw];
        for i in 0..bins {
            // Zone i's profile in UTC bins: local activity shifted so that
            // UTC bin b reads the local curve at b + offset(i) — the same
            // rotation `GenericProfile::zone_profile` applies hourly.
            let units = i as i32 - (11 * per) as i32;
            let cdf = &mut zone_cdfs[i * bins..(i + 1) * bins];
            let mut acc = 0.0_f64;
            for (b, slot) in cdf.iter_mut().enumerate() {
                let src = (b as i32 + units).rem_euclid(bins as i32) as usize;
                acc += local[src];
                *slot = acc;
            }
            quad_fold(cdf, &mut zone_folds[i * fw..(i + 1) * fw]);
        }
        let mut uniform_cdf = vec![0.0_f64; bins];
        let mut acc = 0.0_f64;
        for (slot, &v) in uniform_cdf.iter_mut().zip(uniform.iter()) {
            acc += v;
            *slot = acc;
        }
        PlacementEngine {
            generic: generic.clone(),
            grid,
            zone_cdfs,
            zone_folds,
            uniform_cdf,
            net: SortNetwork::new(bins),
        }
    }

    /// The generic profile the engine was built from.
    pub fn generic(&self) -> &GenericProfile {
        &self.generic
    }

    /// The zone grid this engine scans.
    pub fn grid(&self) -> ZoneGrid {
        self.grid
    }

    /// Grid-bin width in hours (1, 0.5 or 0.25) — the exact power-of-two
    /// factor that converts bin-unit EMDs to hours.
    fn step_hours(&self) -> f64 {
        f64::from(self.grid.step_minutes()) / 60.0
    }

    /// Upsamples a 24-bin hourly CDF to grid resolution: each hour's mass
    /// is spread evenly over its sub-bins. At `per_hour == 1` this is a
    /// plain copy, so the hourly grid is bit-transparent.
    fn upsample_cdf(&self, cdf24: &[f64; BINS], out: &mut [f64]) {
        let per = self.grid.per_hour();
        if per == 1 {
            out.copy_from_slice(cdf24);
            return;
        }
        let inv = 1.0 / per as f64;
        let mut acc = 0.0_f64;
        let mut prev = 0.0_f64;
        for (h, &c) in cdf24.iter().enumerate() {
            let step = (c - prev) * inv;
            prev = c;
            for j in 0..per {
                acc += step;
                out[h * per + j] = acc;
            }
        }
    }

    /// The exact circular EMD (in grid-bin units) between a grid CDF and
    /// zone `i`, via the shared partition kernel on freshly computed
    /// `f64` differences.
    fn exact_zone_emd(&self, ucdf: &[f64], zone: usize, diffs: &mut [f64]) -> f64 {
        let bins = ucdf.len();
        let zcdf = &self.zone_cdfs[zone * bins..(zone + 1) * bins];
        for ((d, &u), &z) in diffs.iter_mut().zip(ucdf.iter()).zip(zcdf.iter()) {
            *d = u - z;
        }
        circular_emd_of_cdf_diff_scratch(diffs)
    }

    /// Scalar grid scan: the same quantized quad bounds as the batch
    /// kernel (one lane wide), with exact selection in ascending-bound
    /// order. Returns `(zone index, emd in bin units, exact evals)`.
    ///
    /// Pruning decisions use the slack-protected integer bound, never the
    /// raw `f64` antipodal sum: the float sum is only a real-arithmetic
    /// lower bound and can land a few ulps *above* the exact EMD, which
    /// on the dense 48/96-zone grids is enough to mis-prune a near-tied
    /// winner. The integer bound minus [`prune_slack`] is a true lower
    /// bound in `f64`, so the scalar and batch kernels provably select
    /// the same argmin under `(emd, zone index)`.
    fn scan_cdf_grid(&self, ucdf: &[f64]) -> (usize, f64, u32) {
        let bins = ucdf.len();
        let fw = 3 * bins / 4;
        let slack = prune_slack(bins);
        let mut fold = vec![0i32; fw];
        quad_fold(ucdf, &mut fold);
        let mut bounds = vec![0i32; bins];
        for i in 0..bins {
            batch_quad_bounds(
                &fold,
                &self.zone_folds[i * fw..(i + 1) * fw],
                1,
                &mut bounds[i..=i],
            );
        }
        let mut diffs = vec![0.0_f64; bins];
        let mut visited = vec![false; bins];
        let mut exact_evals = 0u32;
        let mut best_idx = usize::MAX;
        let mut best_emd = f64::INFINITY;
        loop {
            // Unvisited zone with the smallest bound; strict < keeps the
            // smallest index on ties.
            let mut i = usize::MAX;
            let mut min_bound = i32::MAX;
            for (j, &b) in bounds.iter().enumerate() {
                if !visited[j] && b < min_bound {
                    min_bound = b;
                    i = j;
                }
            }
            if i == usize::MAX {
                break;
            }
            let lower = f64::from(min_bound - slack) / CDF_FIXED_SCALE;
            if lower > best_emd {
                break;
            }
            visited[i] = true;
            // An equal-bound zone with a larger index can at best tie,
            // and ties go to the smaller index — skip the exact pass.
            if lower >= best_emd && i > best_idx {
                continue;
            }
            let d = self.exact_zone_emd(ucdf, i, &mut diffs);
            exact_evals += 1;
            if d < best_emd || (d == best_emd && i < best_idx) {
                best_emd = d;
                best_idx = i;
            }
        }
        (best_idx, best_emd, exact_evals)
    }

    /// Places a precomputed 24-bin user CDF through the scalar kernel,
    /// returning `(offset minutes east, emd in hours)`.
    pub fn place_cdf_minutes(&self, user_cdf: &[f64; BINS]) -> (i32, f64) {
        let mut ucdf = vec![0.0_f64; self.grid.zones()];
        self.upsample_cdf(user_cdf, &mut ucdf);
        let (idx, emd_bins, _) = self.scan_cdf_grid(&ucdf);
        (self.grid.minutes_of(idx), emd_bins * self.step_hours())
    }

    /// Places a precomputed 24-bin user CDF: the EMD-closest zone (whole
    /// hours, truncated towards zero on fractional grids) and its
    /// distance in hours.
    pub fn place_cdf(&self, user_cdf: &[f64; BINS]) -> (i32, f64) {
        let (minutes, emd) = self.place_cdf_minutes(user_cdf);
        (minutes / 60, emd)
    }

    /// Like [`place_cdf`](Self::place_cdf), additionally returning how many
    /// zones reached the exact EMD evaluation — the rest were pruned by
    /// the lower bound. Placement itself is unchanged; the count feeds
    /// the observability layer's pruning stats.
    pub fn place_cdf_counted(&self, user_cdf: &[f64; BINS]) -> (i32, f64, u32) {
        let mut ucdf = vec![0.0_f64; self.grid.zones()];
        self.upsample_cdf(user_cdf, &mut ucdf);
        let (idx, emd_bins, evals) = self.scan_cdf_grid(&ucdf);
        (
            self.grid.minutes_of(idx) / 60,
            emd_bins * self.step_hours(),
            evals,
        )
    }

    /// Places a bare hourly distribution (UTC hours), like
    /// [`place_distribution`](crate::place_distribution) but against the
    /// precomputed zone CDFs.
    pub fn place_distribution(&self, distribution: &Distribution24) -> (i32, f64) {
        self.place_cdf(&distribution.cdf())
    }

    /// Places one user — bit-identical to
    /// [`place_user`](crate::place_user) with the same generic profile on
    /// the hourly grid; on finer grids the placement carries the
    /// fractional offset (see [`UserPlacement::offset_minutes`]).
    pub fn place(&self, profile: &ActivityProfile) -> UserPlacement {
        let (minutes, emd) = self.place_cdf_minutes(&profile.distribution().cdf());
        UserPlacement::from_offset_minutes(Arc::clone(profile.shared_user()), minutes, emd)
    }

    /// The SoA batch kernel: resolves up to [`BATCH_USERS`] 24-bin CDFs
    /// at once through wave-scheduled, fixed-width SIMD evaluation.
    ///
    /// Phases, all deterministic in the input order:
    ///
    /// 1. **Assembly** — every CDF is upsampled to grid resolution
    ///    (lane-major) and folded into its quantized quad planes
    ///    ([`quad_fold`]) laid out fold-row-major across lanes.
    /// 2. **Bounds** — each zone costs one contiguous integer
    ///    [`batch_quad_bounds`] sweep over all lanes of one
    ///    [`BOUND_BLOCK`]; the same pass folds a running
    ///    [`batch_min_argmin`], so every lane leaves the sweep knowing
    ///    its smallest-indexed minimal-bound zone — exactly the first
    ///    candidate the scalar scan would pick. An in-cache transpose
    ///    then lays the bound matrix out lane-major for the candidate
    ///    scans.
    /// 3. **Waves** — each live lane holds one candidate zone per wave.
    ///    The wave's (lane, zone) tasks are packed into [`EMD_LANES`]-wide
    ///    groups and evaluated by the lane-parallel exact kernel
    ///    ([`SortNetwork::batch_emd`]): gather the CDF differences
    ///    column-per-task, sort all columns at once with the branch-free
    ///    compare-exchange network, reduce by in-order half sums. Between
    ///    waves each lane advances to its next unvisited zone in ascending
    ///    (integer bound, index) order, stopping — or tie-skipping —
    ///    under exactly the scalar scan's slack-adjusted rules, so the
    ///    per-lane evaluation *sequence* (and with it `exact_evals`) is
    ///    identical to [`Self::scan_cdf_grid`] on the same CDF. Groups
    ///    always run at full width; tail columns beyond the wave's tasks
    ///    are sorted as garbage and ignored, which costs nothing extra
    ///    because the kernel's cost is fixed per group.
    ///
    /// The winner is the argmin under (distance, zone index), and every
    /// exact distance comes from the shared sorted-half-sums kernel — so
    /// batch, scalar, and [`place_user`](crate::place_user) placements
    /// are bit-identical (`engine_proptests` pins this per grid, thread
    /// count, shard count, and cache mode).
    fn resolve_batch(
        &self,
        cdfs: &[[f64; BINS]],
        with_flat: bool,
        s: &mut BatchScratch,
        out: &mut Vec<BatchOutcome>,
    ) {
        let bins = self.grid.zones();
        let fw = 3 * bins / 4;
        let lanes = cdfs.len();
        debug_assert!(lanes <= BATCH_USERS);
        if lanes == 0 {
            return;
        }
        let slack = prune_slack(bins);
        let step_hours = self.step_hours();
        // On the hourly grid the "upsampled" CDF is the input CDF itself,
        // so the exact path gathers straight from `cdfs` and the lane-major
        // copy is skipped entirely.
        let hourly = self.grid.per_hour() == 1;
        let BatchScratch {
            ucdfs,
            ufolds,
            fold,
            bounds,
            seed_min,
            seed_idx,
            tbounds,
            cand,
            live,
            best_emd,
            best_idx,
            evals,
            flat,
            rows,
            emds,
        } = s;
        let (ucdfs, fold) = (&mut ucdfs[..], &mut fold[..]);
        let (tbounds, cand) = (&mut tbounds[..], &mut cand[..]);
        let (best_emd, best_idx) = (&mut best_emd[..], &mut best_idx[..]);
        let (evals, flat, rows) = (&mut evals[..], &mut flat[..], &mut rows[..]);
        let zone_cdfs = &self.zone_cdfs[..];
        fn ucdf_of<'a>(
            hourly: bool,
            cdfs: &'a [[f64; BINS]],
            ucdfs: &'a [f64],
            bins: usize,
            u: usize,
        ) -> &'a [f64] {
            if hourly {
                &cdfs[u]
            } else {
                &ucdfs[u * bins..(u + 1) * bins]
            }
        }

        // Phases 1+2, one L1-resident sub-block at a time: SoA assembly
        // (grid CDFs lane-major for the exact path, quantized folds
        // pair-major for the bound path), then the vectorized integer
        // bound sweep per zone, then an in-cache transpose into the
        // batch-wide lane-major bound matrix the candidate scans walk.
        let mut b0 = 0usize;
        while b0 < lanes {
            let bw = BOUND_BLOCK.min(lanes - b0);
            for u in 0..bw {
                if hourly {
                    quad_fold(&cdfs[b0 + u], fold);
                } else {
                    let ucdf = &mut ucdfs[(b0 + u) * bins..(b0 + u + 1) * bins];
                    self.upsample_cdf(&cdfs[b0 + u], ucdf);
                    quad_fold(ucdf, fold);
                }
                for (h, &v) in fold.iter().enumerate() {
                    ufolds[h * bw + u] = v;
                }
            }
            let smin = &mut seed_min[..bw];
            let sidx = &mut seed_idx[..bw];
            smin.fill(i32::MAX);
            for i in 0..bins {
                let row = &mut bounds[i * bw..(i + 1) * bw];
                row.fill(0);
                batch_quad_bounds(
                    &ufolds[..fw * bw],
                    &self.zone_folds[i * fw..(i + 1) * fw],
                    bw,
                    row,
                );
                // Fold the running per-lane (min bound, smallest zone)
                // while the row is still in cache — each lane leaves the
                // sweep knowing its first exact candidate, exactly the
                // zone the scalar scan's strict-< pass would pick.
                batch_min_argmin(row, i as u32, smin, sidx);
            }
            for u in 0..bw {
                let trow = &mut tbounds[(b0 + u) * bins..(b0 + u + 1) * bins];
                for (i, slot) in trow.iter_mut().enumerate() {
                    *slot = bounds[i * bw + u];
                }
                // Mark the seed visited now, while the row is hot.
                trow[sidx[u] as usize] = i32::MAX;
                cand[b0 + u] = sidx[u];
            }
            b0 += bw;
        }

        // Phase 3: wave-scheduled exact evaluation. Wave 1 is every lane
        // against its bound-argmin zone — already folded out of the bound
        // sweep (and marked visited) above; the scalar scan evaluates the
        // same zone unconditionally as its first candidate, since every
        // bound beats an infinite best.
        live.clear();
        for u in 0..lanes {
            best_emd[u] = f64::INFINITY;
            best_idx[u] = u32::MAX;
            evals[u] = 0;
            live.push(u as u32);
        }
        while !live.is_empty() {
            let groups = live.len().div_ceil(EMD_LANES);
            for g in 0..groups {
                let hi = ((g + 1) * EMD_LANES).min(live.len());
                // Gather one difference column per task; columns past the
                // group's end keep the previous group's (finite) values
                // and their results are never read.
                for (col, &lu) in live[g * EMD_LANES..hi].iter().enumerate() {
                    let u = lu as usize;
                    let zone = cand[u] as usize;
                    let ucdf = ucdf_of(hourly, cdfs, ucdfs, bins, u);
                    let zcdf = &zone_cdfs[zone * bins..(zone + 1) * bins];
                    for h in 0..bins {
                        rows[h * EMD_LANES + col] = ucdf[h] - zcdf[h];
                    }
                }
                self.net.batch_emd(rows, emds);
                for (col, &lu) in live[g * EMD_LANES..hi].iter().enumerate() {
                    let u = lu as usize;
                    let d = emds[col];
                    let i = cand[u];
                    evals[u] += 1;
                    if d < best_emd[u] || (d == best_emd[u] && i < best_idx[u]) {
                        best_emd[u] = d;
                        best_idx[u] = i;
                    }
                }
            }
            // Advance every live lane to its next candidate — the scalar
            // scan's selection loop, one step per lane: ascending
            // (bound, index), prune-stop when even the slack-adjusted
            // bound cannot win, tie-skip equal-bound zones with larger
            // indices.
            let mut kept = 0usize;
            for r in 0..live.len() {
                let u = live[r] as usize;
                let trow = &mut tbounds[u * bins..(u + 1) * bins];
                let mut keep = false;
                while let Some((min_i, min_b)) = row_min_unvisited(trow) {
                    // Conservative: after the slack, the integer bound is
                    // a true lower bound, so a pruned zone can neither
                    // beat nor tie the best.
                    let lower = f64::from(min_b - slack) / CDF_FIXED_SCALE;
                    if lower > best_emd[u] {
                        break;
                    }
                    trow[min_i] = i32::MAX;
                    // An equal-bound zone with a larger index can at best
                    // tie, and ties go to the smaller index — skip the
                    // exact pass but keep scanning.
                    if lower >= best_emd[u] && min_i as u32 > best_idx[u] {
                        continue;
                    }
                    cand[u] = min_i as u32;
                    keep = true;
                    break;
                }
                if keep {
                    live[kept] = u as u32;
                    kept += 1;
                }
            }
            live.truncate(kept);
        }

        // §IV.C flatness, batched the same way: one full-width wave of
        // every lane against the uniform CDF.
        if with_flat {
            for g in 0..lanes.div_ceil(EMD_LANES) {
                let hi = ((g + 1) * EMD_LANES).min(lanes);
                for u in g * EMD_LANES..hi {
                    let ucdf = ucdf_of(hourly, cdfs, ucdfs, bins, u);
                    let col = u - g * EMD_LANES;
                    for h in 0..bins {
                        rows[h * EMD_LANES + col] = ucdf[h] - self.uniform_cdf[h];
                    }
                }
                self.net.batch_emd(rows, emds);
                for u in g * EMD_LANES..hi {
                    flat[u] = emds[u - g * EMD_LANES] < best_emd[u];
                }
            }
        } else {
            flat[..lanes].fill(false);
        }

        for u in 0..lanes {
            out.push(BatchOutcome {
                resolved: ResolvedCdf {
                    zone_minutes: self.grid.minutes_of(best_idx[u] as usize),
                    emd: best_emd[u] * step_hours,
                    flat: flat[u],
                },
                exact_evals: evals[u],
                batch_prunes: bins as u32 - evals[u],
            });
        }
    }

    /// Resolves any number of CDFs through the batch kernel, fanning
    /// fixed-size batches across `threads` workers with one reusable
    /// [`BatchScratch`] per worker. Batches are carved before threading,
    /// so outcomes (including pruning counts) are byte-identical for
    /// every thread count.
    fn resolve_batches(
        &self,
        cdfs: &[[f64; BINS]],
        threads: usize,
        with_flat: bool,
    ) -> Vec<BatchOutcome> {
        let batches: Vec<&[[f64; BINS]]> = cdfs.chunks(BATCH_USERS).collect();
        chunked_map_with(
            &batches,
            threads,
            || BatchScratch::new(self.grid.zones()),
            |scratch, batch, out| self.resolve_batch(batch, with_flat, scratch, out),
        )
    }

    /// Places every profile through the SoA batch kernel, fanning the
    /// work across `threads` scoped worker threads with order-stable
    /// chunked reduction. The result is byte-identical for any thread
    /// count — and, on the hourly grid, to the scalar
    /// [`place`](Self::place) per profile.
    pub fn place_all(&self, profiles: &[ActivityProfile], threads: usize) -> Vec<UserPlacement> {
        let cdfs: Vec<[f64; BINS]> = chunked_map(profiles, threads, |p| p.distribution().cdf());
        let outcomes = self.resolve_batches(&cdfs, threads, false);
        profiles
            .iter()
            .zip(outcomes)
            .map(|(p, o)| {
                UserPlacement::from_offset_minutes(
                    Arc::clone(p.shared_user()),
                    o.resolved.zone_minutes,
                    o.resolved.emd,
                )
            })
            .collect()
    }

    /// Like [`place_all`](Self::place_all), additionally recording pruning
    /// statistics into `obs`: counters `placement.users`,
    /// `placement.exact_evals` and `placement.batch_prunes`, and the
    /// per-user histogram `placement.exact_evals_per_user` (bucketed per
    /// grid). Metric updates are commutative atomic adds, so totals are
    /// identical for any thread count, and the returned placements are
    /// byte-identical to [`place_all`].
    pub fn place_all_observed(
        &self,
        profiles: &[ActivityProfile],
        threads: usize,
        obs: Option<&crowdtz_obs::Observer>,
    ) -> Vec<UserPlacement> {
        let Some(obs) = obs else {
            return self.place_all(profiles, threads);
        };
        let users = obs.counter("placement.users");
        let exact = obs.counter("placement.exact_evals");
        let prunes = obs.counter("placement.batch_prunes");
        let per_user = obs.histogram(
            "placement.exact_evals_per_user",
            exact_eval_bounds(self.grid),
        );
        let cdfs: Vec<[f64; BINS]> = chunked_map(profiles, threads, |p| p.distribution().cdf());
        let outcomes = self.resolve_batches(&cdfs, threads, false);
        profiles
            .iter()
            .zip(outcomes)
            .map(|(p, o)| {
                users.inc();
                exact.add(u64::from(o.exact_evals));
                prunes.add(u64::from(o.batch_prunes));
                per_user.observe(u64::from(o.exact_evals));
                UserPlacement::from_offset_minutes(
                    Arc::clone(p.shared_user()),
                    o.resolved.zone_minutes,
                    o.resolved.emd,
                )
            })
            .collect()
    }

    /// The cache key of a 24-bin CDF: the full-precision bits of its
    /// grid-resolution upsampling — exactly the input of the pure
    /// resolve function, so colliding keys are guaranteed equal results.
    fn cdf_key(&self, cdf24: &[f64; BINS], scratch: &mut [f64]) -> CdfKey {
        self.upsample_cdf(cdf24, scratch);
        scratch.iter().map(|v| v.to_bits()).collect()
    }

    /// Resolves a batch of user CDFs through the placement cache:
    /// placement + EMD + flatness per CDF, computing the exact zone scan
    /// only for CDFs the cache has never seen.
    ///
    /// Three deterministic phases:
    ///
    /// 1. **Sequential probe** in input order: hits are answered from the
    ///    cache; the *first* occurrence of each unseen key joins the miss
    ///    list (later duplicates in the same batch wait for it).
    /// 2. **Parallel compute** of the unique misses through the SoA batch
    ///    kernel — the expensive part, order-stable by construction.
    /// 3. **Sequential insert + fill**: misses enter the cache (evicting
    ///    second-chance victims once it is at capacity) and every output
    ///    slot is assembled in input order.
    ///
    /// Because the probe is sequential, hit/miss/eviction counts are a
    /// pure function of the input sequence — identical for every thread
    /// count — and because a key hit only ever returns a value computed
    /// by the same kernel on a bit-identical grid CDF, the returned
    /// resolutions are byte-identical to a cache-off run.
    ///
    /// Observability (when `obs` is attached): counters
    /// `placement.cache_hits`, `placement.cache_misses`,
    /// `placement.cache_evictions`, `placement.exact_evals`,
    /// `placement.batch_prunes`, and one `placement.exact_evals_per_user`
    /// histogram observation per miss.
    pub(crate) fn resolve_cdfs(
        &self,
        cdfs: &[[f64; BINS]],
        cache: &mut PlacementCache,
        threads: usize,
        obs: Option<&crowdtz_obs::Observer>,
    ) -> Vec<ResolvedCdf> {
        let mut hits = 0u64;
        let evictions_before = cache.evictions;
        let mut key_scratch = vec![0.0_f64; self.grid.zones()];
        let (resolved, computed) = if cache.enabled {
            // Phase 1: sequential probe; dedup unseen keys within the batch.
            let mut out: Vec<Option<ResolvedCdf>> = Vec::with_capacity(cdfs.len());
            let mut miss_index: HashMap<CdfKey, usize> = HashMap::new();
            let mut keys: Vec<CdfKey> = Vec::with_capacity(cdfs.len());
            let mut miss_cdfs: Vec<[f64; BINS]> = Vec::new();
            for cdf in cdfs {
                let key = self.cdf_key(cdf, &mut key_scratch);
                if let Some(entry) = cache.get(&key) {
                    hits += 1;
                    out.push(Some(entry));
                } else {
                    match miss_index.entry(key.clone()) {
                        // In-batch duplicate of a pending miss: served by
                        // the one computation, so it counts as a hit —
                        // `hits + misses == resolutions`, always.
                        std::collections::hash_map::Entry::Occupied(_) => hits += 1,
                        std::collections::hash_map::Entry::Vacant(slot) => {
                            slot.insert(miss_cdfs.len());
                            miss_cdfs.push(*cdf);
                        }
                    }
                    out.push(None);
                }
                keys.push(key);
            }
            // Phase 2: compute unique misses in parallel.
            let computed = self.resolve_batches(&miss_cdfs, threads, true);
            // Phase 3: insert, then fill the waiting slots in input order.
            for (cdf, outcome) in miss_cdfs.iter().zip(&computed) {
                cache.insert(self.cdf_key(cdf, &mut key_scratch), outcome.resolved);
            }
            let resolved = out
                .into_iter()
                .zip(keys)
                .map(|(slot, key)| slot.unwrap_or_else(|| computed[miss_index[&key]].resolved))
                .collect();
            (resolved, computed)
        } else {
            // Cache disabled: every CDF is computed (and counted as a
            // miss), with no dedup — the exact pre-cache cost model.
            let computed = self.resolve_batches(cdfs, threads, true);
            let resolved = computed.iter().map(|o| o.resolved).collect();
            (resolved, computed)
        };
        let misses = computed.len() as u64;
        cache.hits += hits;
        cache.misses += misses;
        if let Some(obs) = obs {
            obs.counter("placement.cache_hits").add(hits);
            obs.counter("placement.cache_misses").add(misses);
            obs.counter("placement.cache_evictions")
                .add(cache.evictions - evictions_before);
            let exact = obs.counter("placement.exact_evals");
            let prunes = obs.counter("placement.batch_prunes");
            let per_miss = obs.histogram(
                "placement.exact_evals_per_user",
                exact_eval_bounds(self.grid),
            );
            for outcome in &computed {
                exact.add(u64::from(outcome.exact_evals));
                prunes.add(u64::from(outcome.batch_prunes));
                per_miss.observe(u64::from(outcome.exact_evals));
            }
        }
        resolved
    }

    /// The §IV.C flatness test: whether `distribution` is circular-EMD
    /// closer to the uniform profile than to every zone profile.
    ///
    /// Decision-identical to the naive check in [`crate::polish`] (both
    /// sides evaluate the shared exact kernel, and the bin-to-hour
    /// scaling is an exact power of two so the comparison is unchanged),
    /// but the uniform CDF is precomputed and the zone scan reuses the
    /// pruned placement kernel.
    pub fn is_flat(&self, distribution: &Distribution24) -> bool {
        let bins = self.grid.zones();
        let mut ucdf = vec![0.0_f64; bins];
        self.upsample_cdf(&distribution.cdf(), &mut ucdf);
        let (_, best_zone_emd, _) = self.scan_cdf_grid(&ucdf);
        let mut diffs = vec![0.0_f64; bins];
        for ((d, &u), &z) in diffs
            .iter_mut()
            .zip(ucdf.iter())
            .zip(self.uniform_cdf.iter())
        {
            *d = u - z;
        }
        circular_emd_of_cdf_diff_scratch(&mut diffs) < best_zone_emd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::place_user;
    use crowdtz_time::{Timestamp, TzOffset, UserTrace};

    fn profile_from_hours(name: &str, weights: &[(u8, usize)]) -> ActivityProfile {
        let mut posts = Vec::new();
        let mut day = 0i64;
        for &(hour, times) in weights {
            for _ in 0..times {
                posts.push(Timestamp::from_secs(day * 86_400 + i64::from(hour) * 3_600));
                day += 1;
            }
        }
        ActivityProfile::from_trace_offset(&UserTrace::new(name, posts), TzOffset::UTC).unwrap()
    }

    #[test]
    fn engine_matches_naive_place_user() {
        let generic = GenericProfile::reference();
        let engine = PlacementEngine::new(&generic);
        let shapes: Vec<ActivityProfile> = vec![
            profile_from_hours("a", &[(21, 10), (20, 6), (9, 3)]),
            profile_from_hours("b", &[(3, 8), (4, 8), (15, 2)]),
            profile_from_hours("c", &[(0, 5), (23, 5), (12, 5)]),
            profile_from_hours("flatish", &(0..24).map(|h| (h, 2)).collect::<Vec<_>>()),
        ];
        for p in &shapes {
            let naive = place_user(p, &generic);
            let fast = engine.place(p);
            assert_eq!(naive, fast, "user {}", p.user());
        }
    }

    #[test]
    fn batch_kernel_matches_scalar_on_every_grid() {
        let generic = GenericProfile::reference();
        let profiles: Vec<ActivityProfile> = (0..83)
            .map(|i| {
                profile_from_hours(
                    &format!("u{i:03}"),
                    &[((i % 24) as u8, 8), (((i * 7) % 24) as u8, 4)],
                )
            })
            .collect();
        for grid in [ZoneGrid::Hourly, ZoneGrid::HalfHour, ZoneGrid::QuarterHour] {
            let engine = PlacementEngine::with_grid(&generic, grid);
            let batch = engine.place_all(&profiles, 1);
            for (p, b) in profiles.iter().zip(&batch) {
                let scalar = engine.place(p);
                assert_eq!(&scalar, b, "{grid}, user {}", p.user());
            }
        }
    }

    #[test]
    fn place_all_is_order_stable_across_thread_counts() {
        let generic = GenericProfile::reference();
        let engine = PlacementEngine::new(&generic);
        let profiles: Vec<ActivityProfile> = (0..37)
            .map(|i| {
                profile_from_hours(
                    &format!("u{i:03}"),
                    &[((i % 24) as u8, 8), (((i * 7) % 24) as u8, 4)],
                )
            })
            .collect();
        let one = engine.place_all(&profiles, 1);
        for threads in [2, 3, 8, 64] {
            assert_eq!(
                one,
                engine.place_all(&profiles, threads),
                "{threads} threads"
            );
        }
        // Order matches input order.
        for (p, placed) in profiles.iter().zip(&one) {
            assert_eq!(p.user(), placed.user());
        }
    }

    #[test]
    fn quarter_grid_emd_never_exceeds_hourly_emd() {
        // Finer grids add candidate zones (every hourly zone is also a
        // quarter-hour zone with a bit-identical profile), so the best
        // distance can only improve.
        let generic = GenericProfile::reference();
        let hourly = PlacementEngine::new(&generic);
        let quarter = PlacementEngine::with_grid(&generic, ZoneGrid::QuarterHour);
        for i in 0..24u8 {
            let p = profile_from_hours("u", &[(i, 9), ((i + 3) % 24, 4)]);
            let coarse = hourly.place(&p);
            let fine = quarter.place(&p);
            assert!(
                fine.emd() <= coarse.emd() + 1e-12,
                "hour {i}: {} > {}",
                fine.emd(),
                coarse.emd()
            );
        }
    }

    #[test]
    fn is_flat_matches_naive_comparison() {
        let generic = GenericProfile::reference();
        let engine = PlacementEngine::new(&generic);
        let uniform = Distribution24::uniform();
        for dist in [
            Distribution24::uniform(),
            Distribution24::delta(21).mix(&uniform, 0.3),
            uniform.mix(&Distribution24::delta(13), 0.05),
            generic.zone_profile(3),
        ] {
            let naive_best = (-11..=12)
                .map(|k| crowdtz_stats::circular_emd(&dist, &generic.zone_profile(k)))
                .fold(f64::INFINITY, f64::min);
            let naive_flat = crowdtz_stats::circular_emd(&dist, &uniform) < naive_best;
            assert_eq!(engine.is_flat(&dist), naive_flat);
        }
    }

    #[test]
    fn empty_input_and_single_thread_edge_cases() {
        let engine = PlacementEngine::new(&GenericProfile::reference());
        assert!(engine.place_all(&[], 4).is_empty());
        let one = vec![profile_from_hours("solo", &[(21, 9)])];
        assert_eq!(engine.place_all(&one, 16).len(), 1);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn resolve_cdfs_matches_uncached_and_counts_hits() {
        let engine = PlacementEngine::new(&GenericProfile::reference());
        let profiles = [
            profile_from_hours("a", &[(21, 10), (20, 6), (9, 3)]),
            profile_from_hours("b", &[(3, 8), (4, 8), (15, 2)]),
            profile_from_hours("flatish", &(0..24).map(|h| (h, 2)).collect::<Vec<_>>()),
        ];
        // Repeat each CDF: a twice (in-batch duplicate), b twice across
        // calls, flatish once.
        let cdfs: Vec<[f64; BINS]> = [0usize, 0, 1, 2]
            .iter()
            .map(|&i| profiles[i].distribution().cdf())
            .collect();
        let mut on = PlacementCache::new(true);
        let mut off = PlacementCache::new(false);
        for threads in [1usize, 4] {
            let cached = engine.resolve_cdfs(&cdfs, &mut on, threads, None);
            let plain = engine.resolve_cdfs(&cdfs, &mut off, threads, None);
            for (c, p) in cached.iter().zip(&plain) {
                assert_eq!(c.zone_minutes, p.zone_minutes);
                assert_eq!(c.emd.to_bits(), p.emd.to_bits());
                assert_eq!(c.flat, p.flat);
            }
            // And both agree with the direct kernels.
            for (c, i) in cached.iter().zip([0usize, 0, 1, 2]) {
                let cdf = profiles[i].distribution().cdf();
                let (minutes, e) = engine.place_cdf_minutes(&cdf);
                assert_eq!(c.zone_minutes, minutes);
                assert_eq!(c.emd.to_bits(), e.to_bits());
                assert_eq!(c.flat, engine.is_flat(profiles[i].distribution()));
            }
        }
        // Call 1: 3 unique misses + 1 in-batch duplicate hit. Call 2
        // (threads=4): all 4 are map hits.
        assert_eq!(on.stats(), (5, 3));
        assert_eq!(on.len(), 3);
        // Disabled: everything is a miss, nothing is stored.
        assert_eq!(off.stats(), (0, 8));
        assert_eq!(off.len(), 0);
    }

    #[test]
    fn resolve_cdfs_is_grid_aware_and_cache_transparent() {
        let engine =
            PlacementEngine::with_grid(&GenericProfile::reference(), ZoneGrid::QuarterHour);
        let cdfs: Vec<[f64; BINS]> = (0..7)
            .map(|i| {
                profile_from_hours(&format!("u{i}"), &[((i * 5 % 24) as u8, 9), (2, 3)])
                    .distribution()
                    .cdf()
            })
            .collect();
        let mut on = PlacementCache::new(true);
        let mut off = PlacementCache::new(false);
        let cached = engine.resolve_cdfs(&cdfs, &mut on, 2, None);
        let cached_again = engine.resolve_cdfs(&cdfs, &mut on, 1, None);
        let plain = engine.resolve_cdfs(&cdfs, &mut off, 1, None);
        for ((a, b), c) in cached.iter().zip(&cached_again).zip(&plain) {
            assert_eq!(a.zone_minutes, b.zone_minutes);
            assert_eq!(a.zone_minutes, c.zone_minutes);
            assert_eq!(a.emd.to_bits(), b.emd.to_bits());
            assert_eq!(a.emd.to_bits(), c.emd.to_bits());
            // Quarter-hour zones carry minute-resolution offsets.
            assert_eq!(a.zone_minutes % 15, 0);
        }
        assert_eq!(on.stats(), (7, 7));
    }

    #[test]
    fn cache_capacity_bounds_insertion_but_not_results() {
        let engine = PlacementEngine::new(&GenericProfile::reference());
        let mut cache = PlacementCache::new(true);
        cache.capacity = 1;
        let cdfs: Vec<[f64; BINS]> = (0..4)
            .map(|i| {
                profile_from_hours(&format!("u{i}"), &[((i * 5 % 24) as u8, 9), (2, 3)])
                    .distribution()
                    .cdf()
            })
            .collect();
        let first = engine.resolve_cdfs(&cdfs, &mut cache, 1, None);
        assert_eq!(cache.len(), 1, "residency never exceeds capacity");
        let second = engine.resolve_cdfs(&cdfs, &mut cache, 1, None);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.zone_minutes, b.zone_minutes);
            assert_eq!(a.emd.to_bits(), b.emd.to_bits());
        }
        // Second call: one hit (the clock keeps the last-inserted entry
        // resident), three re-computed.
        assert_eq!(cache.stats(), (1, 7));
    }

    #[test]
    fn post_capacity_insert_still_caches_via_clock_eviction() {
        let engine = PlacementEngine::new(&GenericProfile::reference());
        let mut cache = PlacementCache::new(true);
        cache.capacity = 2;
        let cdfs: Vec<[f64; BINS]> = (0..3)
            .map(|i| {
                profile_from_hours(&format!("u{i}"), &[((i * 5 % 24) as u8, 9), (2, 3)])
                    .distribution()
                    .cdf()
            })
            .collect();
        // Fill to capacity with the first two CDFs.
        engine.resolve_cdfs(&cdfs[..2], &mut cache, 1, None);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);
        // A post-capacity miss evicts a victim instead of being dropped...
        engine.resolve_cdfs(&cdfs[2..], &mut cache, 1, None);
        assert_eq!(cache.len(), 2, "ring stays at capacity");
        assert_eq!(cache.evictions(), 1);
        // ...so re-probing it is a hit, not another miss.
        let (hits_before, misses_before) = cache.stats();
        engine.resolve_cdfs(&cdfs[2..], &mut cache, 1, None);
        assert_eq!(
            cache.stats(),
            (hits_before + 1, misses_before),
            "post-capacity insert must still cache"
        );
    }

    #[test]
    fn clock_gives_referenced_entries_a_second_chance() {
        let engine = PlacementEngine::new(&GenericProfile::reference());
        let mut cache = PlacementCache::new(true);
        cache.capacity = 2;
        let cdfs: Vec<[f64; BINS]> = (0..3)
            .map(|i| {
                profile_from_hours(&format!("v{i}"), &[((i * 7 % 24) as u8, 8), (5, 2)])
                    .distribution()
                    .cdf()
            })
            .collect();
        // Fill with {0, 1}, then hit 0 so its reference bit is set.
        engine.resolve_cdfs(&cdfs[..2], &mut cache, 1, None);
        engine.resolve_cdfs(&cdfs[..1], &mut cache, 1, None);
        // Inserting 2 must spare the referenced 0 and evict 1.
        engine.resolve_cdfs(&cdfs[2..], &mut cache, 1, None);
        let (hits_before, misses_before) = cache.stats();
        engine.resolve_cdfs(&cdfs[..1], &mut cache, 1, None);
        assert_eq!(
            cache.stats(),
            (hits_before + 1, misses_before),
            "0 survived"
        );
        engine.resolve_cdfs(&cdfs[1..2], &mut cache, 1, None);
        assert_eq!(
            cache.stats(),
            (hits_before + 1, misses_before + 1),
            "1 was the clock's victim"
        );
    }

    #[test]
    fn chunked_map_preserves_order() {
        let items: Vec<usize> = (0..101).collect();
        let doubled = chunked_map(&items, 7, |&i| i * 2);
        assert_eq!(doubled, items.iter().map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn clamped_threads_bounds() {
        assert_eq!(clamped_threads(0), 1);
        assert!(clamped_threads(1) == 1);
        let available = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(clamped_threads(10_000), available);
    }

    #[test]
    fn chunked_map_with_matches_sequential_multi_output() {
        let items: Vec<usize> = (0..53).collect();
        // Each item emits `i % 3` outputs through a reused scratch buffer.
        let run = |threads| {
            chunked_map_with(
                &items,
                threads,
                Vec::<usize>::new,
                |scratch, &i, out: &mut Vec<usize>| {
                    scratch.clear();
                    scratch.extend((0..i % 3).map(|j| i * 10 + j));
                    out.extend_from_slice(scratch);
                },
            )
        };
        let one = run(1);
        for threads in [2, 5, 64] {
            assert_eq!(one, run(threads), "{threads} threads");
        }
        assert!(chunked_map_with(
            &[] as &[usize],
            4,
            || (),
            |_, _, out: &mut Vec<usize>| {
                out.push(0);
            }
        )
        .is_empty());
    }
}
