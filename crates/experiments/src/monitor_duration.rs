//! Extension X6 — how long must one monitor a timestamp-less forum?
//!
//! §VII: *"One might need to monitor a sufficiently large number of days,
//! depending on the frequency of the posts, in order to collect 30 post
//! per user or more necessary to build meaningful profiles."* This
//! experiment quantifies that: monitor the same hidden forum for windows
//! of 1 week to a full year and report how many users become classifiable
//! and how accurate the placement is.
//!
//! The monitor feeds a [`ConcurrentStreamingPipeline`] through one
//! writer: each poll's batch of *new* observations is applied as one
//! batch across the engine's accumulator shards, and the report is an
//! incremental publish — byte-identical to re-analyzing the accumulated
//! traces from scratch, but touching only the users that actually posted
//! in the round.

use crowdtz_core::{ConcurrentStreamingPipeline, GenericProfile, GeolocationPipeline};
use crowdtz_forum::SimulatedForum;
use crowdtz_forum::{CrowdComponent, ForumHost, ForumSpec, Scraper, TimestampPolicy};
use crowdtz_time::{CivilDateTime, Timestamp};
use crowdtz_tor::TorNetwork;

use crate::report::{Config, ExperimentOutput};

/// Runs the monitoring-duration sweep.
pub fn run(config: &Config) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("monitor-duration", "§VII: how long to monitor?");
    let users = ((40.0 * config.scale * 4.0) as usize).max(30);
    let spec = ForumSpec::new(
        "Timestampless Forum",
        vec![CrowdComponent::new("italy", 1.0)],
        users,
    )
    .seed(config.seed ^ 0x40D)
    .posts_per_user_per_day(0.5)
    .policy(TimestampPolicy::Hidden);
    let forum = SimulatedForum::generate(&spec);
    let mut network = TorNetwork::with_relays(40, config.seed);
    let address = network
        .publish(ForumHost::new(forum).into_hidden_service(config.seed))
        .expect("publish");
    let pipeline = GeolocationPipeline::with_generic(GenericProfile::reference());
    let streaming = ConcurrentStreamingPipeline::new(pipeline);
    let writer = streaming.writer();

    // One monitor for the whole year: each round observes only the posts
    // since the previous round's end and streams them into the engine.
    let monitor_channel = network
        .connect(&address, config.seed ^ 0x40D)
        .expect("connect");
    let mut monitor = Scraper::new(monitor_channel).into_monitor();

    let start = Timestamp::from_civil_utc(CivilDateTime::new(2016, 1, 1, 0, 0, 0).expect("valid"));
    let mut previous_end = start;
    let mut classified_series = Vec::new();
    out.line(format!(
        "crowd: {users} Italian users at 0.5 posts/day; 30-minute polls"
    ));
    out.line(format!(
        "{:<10} {:>6} {:>6} {:>12} {:>14}",
        "window", "posts", "dirty", "classified", "dominant zone"
    ));
    for (label, days) in [
        ("1 week", 7i64),
        ("1 month", 30),
        ("3 months", 91),
        ("6 months", 182),
        ("12 months", 365),
    ] {
        let to = start + days * 86_400;
        monitor
            .run_batched(previous_end, to, 1_800, |batch| {
                let posts: Vec<(&str, Timestamp)> = batch
                    .iter()
                    .map(|(user, ts)| (user.as_str(), *ts))
                    .collect();
                writer.ingest_posts_ref(&posts).expect("in-memory ingest");
            })
            .expect("monitor");
        previous_end = to;
        let (posts, dirty) = (streaming.posts_ingested(), streaming.dirty_users());
        match streaming.publish() {
            Ok(published) => {
                let report = published.report();
                let mean = report.mixture().dominant().map(|c| c.mean).unwrap_or(99.0);
                out.line(format!(
                    "{label:<10} {posts:>6} {dirty:>6} {:>12} {:>+14.2}",
                    report.users_classified(),
                    mean
                ));
                classified_series.push((days, report.users_classified(), mean));
            }
            Err(_) => {
                out.line(format!(
                    "{label:<10} {posts:>6} {dirty:>6} {:>12} {:>14}",
                    0, "—"
                ));
                classified_series.push((days, 0, f64::NAN));
            }
        }
    }

    // Shape checks.
    let week = classified_series.iter().find(|(d, _, _)| *d == 7).copied();
    let year = classified_series
        .iter()
        .find(|(d, _, _)| *d == 365)
        .copied();
    let (week_classified, year_classified) = (
        week.map(|(_, c, _)| c).unwrap_or(0),
        year.map(|(_, c, _)| c).unwrap_or(0),
    );
    out.finding(
        "a week is not enough",
        "need enough days to collect ≥30 posts per user",
        format!("{week_classified} users classifiable after 1 week"),
        week_classified < users / 4,
    );
    out.finding(
        "classifiable users grow with the window",
        "monitor a sufficiently large number of days",
        format!("1 week: {week_classified} → 12 months: {year_classified}"),
        year_classified > week_classified && year_classified >= users * 3 / 4,
    );
    let year_mean = year.map(|(_, _, m)| m).unwrap_or(f64::NAN);
    out.finding(
        "full-year monitoring recovers the zone",
        "the methodology can still successfully be applied",
        format!("dominant zone {year_mean:+.2} (truth UTC+1)"),
        (year_mean - 1.0).abs() <= 1.5,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitoring_window_sweep_behaves() {
        let out = run(&Config::test());
        assert!(out.all_ok(), "{out}");
    }
}
