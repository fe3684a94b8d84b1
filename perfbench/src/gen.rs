//! Seeded workload inputs: crowds with their own time-zone mix, their
//! posts, and the JSON bodies that carry them to the server.
//!
//! No user posts twice at the same second, so `(user, ts)` pairs are
//! unique and the oracle's survivor set is a plain set.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seconds per day.
pub const DAY: i64 = 86_400;
/// Seconds per week: the window tenants' bucket width.
pub const WEEK: i64 = 7 * DAY;
/// First local day the crawl crowds post on (2016-07-19).
pub const FIRST_DAY: i64 = 17_000;
/// Crawled posts fall on the days of a fixed span of forum history, so a
/// user's per-day state stops growing once it has posted on every day
/// of the span and a long run stays stationary.
pub const SPAN_DAYS: i64 = 7;

/// Relative posting activity per local hour: quiet nights, a working-day
/// plateau and an evening peak.
const DIURNAL: [u32; 24] = [
    4, 2, 1, 1, 1, 1, 2, 3, 5, 6, 6, 6, 6, 6, 6, 6, 7, 8, 10, 12, 12, 11, 9, 6,
];

/// UTC offsets (hours) the crowds' regions are drawn from.
const OFFSETS: [i64; 10] = [-8, -5, -3, 0, 1, 3, 5, 8, 9, 10];

/// An independent generator for one purpose (`stream`) of one seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One forum member: id, home offset and posts generated so far.
#[derive(Debug, Clone)]
pub struct User {
    /// Wire id.
    pub id: String,
    /// Home UTC offset in hours.
    pub offset: i64,
    posts: i64,
}

/// A crowd split over `regions` home offsets with random weights.
#[derive(Debug, Clone)]
pub struct Crowd {
    /// Members, in id order of creation.
    pub users: Vec<User>,
}

impl Crowd {
    /// `users` members named `{prefix}{i}`, over `regions` random
    /// offsets with random weights.
    pub fn new(rng: &mut StdRng, prefix: &str, users: usize, regions: usize) -> Crowd {
        let mut offsets = OFFSETS.to_vec();
        let mut mix = Vec::new();
        for _ in 0..regions.clamp(1, OFFSETS.len()) {
            let offset = offsets.swap_remove(rng.gen_range(0..offsets.len()));
            mix.push((offset, rng.gen_range(1..=4u32)));
        }
        Crowd::with_mix(prefix, users, &mix)
    }

    /// `users` members named `{prefix}{i}`, homes split over `mix`
    /// (`(offset hours, weight)` pairs) in exact proportion, so only the
    /// posts, not the crowd's composition, depend on the seed.
    pub fn with_mix(prefix: &str, users: usize, mix: &[(i64, u32)]) -> Crowd {
        let total: u32 = mix.iter().map(|&(_, w)| w).sum();
        let users = (0..users)
            .map(|i| {
                let mut pick = i as u32 % total;
                let offset = mix
                    .iter()
                    .find(|&&(_, w)| {
                        let hit = pick < w;
                        pick = pick.saturating_sub(w);
                        hit
                    })
                    .map_or(0, |&(o, _)| o);
                User {
                    id: format!("{prefix}{i}"),
                    offset,
                    posts: 0,
                }
            })
            .collect();
        Crowd { users }
    }

    /// The next post by `user`: its `k`-th post lands on day
    /// `k mod SPAN_DAYS` of the span at a diurnal hour, and at second
    /// `k div SPAN_DAYS` of that hour, which keeps it unique.
    pub fn next_post(&mut self, rng: &mut StdRng, user: usize) -> i64 {
        let User { offset, posts, .. } = &mut self.users[user];
        let k = *posts;
        *posts += 1;
        let day = FIRST_DAY + k % SPAN_DAYS;
        (day * DAY + diurnal_hour(rng) * 3_600 + (k / SPAN_DAYS) % 3_600) - *offset * 3_600
    }

    /// `count` posts by `user` on distinct local days inside week `week`,
    /// kept clear of the week's edges so no offset moves a post into a
    /// neighbouring week (window bucket).
    pub fn week_posts(&self, rng: &mut StdRng, user: usize, week: i64, count: usize) -> Vec<i64> {
        let mut days = [1i64, 2, 3, 4, 5];
        let mut out = Vec::with_capacity(count);
        for i in 0..count.min(days.len()) {
            let j = rng.gen_range(i..days.len());
            days.swap(i, j);
            out.push(post_at(rng, week * 7 + days[i], self.users[user].offset));
        }
        out
    }
}

/// A local hour drawn from the diurnal activity curve.
fn diurnal_hour(rng: &mut StdRng) -> i64 {
    let total: u32 = DIURNAL.iter().sum();
    let mut pick = rng.gen_range(0..total);
    for (h, &w) in DIURNAL.iter().enumerate() {
        if pick < w {
            return h as i64;
        }
        pick -= w;
    }
    0
}

/// A post at a diurnal local hour of local day `day` for home `offset`.
fn post_at(rng: &mut StdRng, day: i64, offset: i64) -> i64 {
    day * DAY + diurnal_hour(rng) * 3_600 + rng.gen_range(0..3_600i64) - offset * 3_600
}

/// One request's deltas: `(user index, posts)` groups.
pub type Batch = Vec<(usize, Vec<i64>)>;

/// Number of posts in a batch.
pub fn batch_posts(batch: &Batch) -> usize {
    batch.iter().map(|(_, posts)| posts.len()).sum()
}

/// The ingest/retract body the service parses:
/// `{"deltas":[{"user":"…","posts":[secs,…]},…]}`.
pub fn body(crowd: &Crowd, batch: &Batch) -> Vec<u8> {
    use std::fmt::Write;
    let mut out = String::with_capacity(16 + batch_posts(batch) * 12 + batch.len() * 32);
    out.push_str("{\"deltas\":[");
    for (i, (user, posts)) in batch.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"user\":\"{}\",\"posts\":[", crowd.users[*user].id);
        for (j, ts) in posts.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{ts}");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out.into_bytes()
}

/// Removes `count` random entries of `live` and returns them grouped by
/// user as a batch.
pub fn take_random(rng: &mut StdRng, live: &mut Vec<(u32, i64)>, count: usize) -> Batch {
    let mut taken: Vec<(u32, i64)> = (0..count.min(live.len()))
        .map(|_| live.swap_remove(rng.gen_range(0..live.len())))
        .collect();
    taken.sort_unstable();
    let mut batch: Batch = Vec::new();
    for (user, ts) in taken {
        match batch.last_mut() {
            Some((u, posts)) if *u == user as usize => posts.push(ts),
            _ => batch.push((user as usize, vec![ts])),
        }
    }
    batch
}

/// The flat `(user, ts)` entries of a batch.
pub fn flatten(batch: &Batch) -> impl Iterator<Item = (u32, i64)> + '_ {
    batch
        .iter()
        .flat_map(|(u, posts)| posts.iter().map(move |&ts| (*u as u32, ts)))
}
