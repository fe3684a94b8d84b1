//! Crowd profiles — Eq. 2 of the paper.

use std::fmt;

use serde::{Deserialize, Serialize};

use crowdtz_stats::{Distribution24, StatsError, BINS};

use crate::profile::ActivityProfile;

/// The aggregated activity profile of a population (Eq. 2):
/// `P[h] = Σ_u P_u[h] / Σ_{u,h} P_u[h]` — since each `P_u` sums to one,
/// this is the arithmetic mean of the member distributions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrowdProfile {
    distribution: Distribution24,
    members: usize,
}

impl CrowdProfile {
    /// Aggregates user profiles into a crowd profile — a slice, a `Vec`
    /// or a report's [`Rows`](crate::Rows). The bins are summed in the
    /// order given, so the same profiles in the same order give the same
    /// bits whatever holds them.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::NotEnoughData`] when there are no profiles.
    pub fn aggregate<'a>(
        profiles: impl IntoIterator<Item = &'a ActivityProfile>,
    ) -> Result<CrowdProfile, StatsError> {
        let mut sum = [0.0_f64; BINS];
        let mut members = 0usize;
        for p in profiles {
            for (dst, &v) in sum.iter_mut().zip(p.distribution().as_slice()) {
                *dst += v;
            }
            members += 1;
        }
        if members == 0 {
            return Err(StatsError::NotEnoughData { got: 0, needed: 1 });
        }
        Ok(CrowdProfile {
            distribution: Distribution24::from_weights(&sum)?,
            members,
        })
    }

    /// Wraps an existing distribution as a crowd profile (e.g. a zone
    /// profile derived from the generic profile).
    pub fn from_distribution(distribution: Distribution24, members: usize) -> CrowdProfile {
        CrowdProfile {
            distribution,
            members,
        }
    }

    /// The crowd's hourly activity distribution.
    pub fn distribution(&self) -> &Distribution24 {
        &self.distribution
    }

    /// Number of member profiles aggregated.
    pub fn members(&self) -> usize {
        self.members
    }

    /// The crowd profile rotated by `hours` — used to shift a region's
    /// profile to a common time zone (§IV).
    #[must_use]
    pub fn shifted(&self, hours: i32) -> CrowdProfile {
        CrowdProfile {
            distribution: self.distribution.shifted(hours),
            members: self.members,
        }
    }
}

impl fmt::Display for CrowdProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "crowd of {} (peak {:02}h, trough {:02}h)",
            self.members,
            self.distribution.peak_hour(),
            self.distribution.trough_hour()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdtz_time::{CivilDateTime, Timestamp, TzOffset, UserTrace};

    fn profile_at_hours(user: &str, hours: &[u8]) -> ActivityProfile {
        let posts: Vec<Timestamp> = hours
            .iter()
            .enumerate()
            .map(|(day, &h)| {
                Timestamp::from_civil_utc(
                    CivilDateTime::new(2016, 3, 1 + day as u8, h, 0, 0).unwrap(),
                )
            })
            .collect();
        ActivityProfile::from_trace_offset(&UserTrace::new(user, posts), TzOffset::UTC).unwrap()
    }

    #[test]
    fn aggregate_is_mean_of_members() {
        let a = profile_at_hours("a", &[9]); // all mass at 9
        let b = profile_at_hours("b", &[21]); // all mass at 21
        let crowd = CrowdProfile::aggregate(&[a, b]).unwrap();
        assert!((crowd.distribution().get(9) - 0.5).abs() < 1e-12);
        assert!((crowd.distribution().get(21) - 0.5).abs() < 1e-12);
        assert_eq!(crowd.members(), 2);
    }

    #[test]
    fn aggregate_weighs_users_equally_not_posts() {
        // User a has 10× the posts of b; Eq. 2 still weighs profiles, so
        // each user contributes equally.
        let a = profile_at_hours("a", &[9; 10]); // one slot repeated? — use distinct days
        let a10 = {
            let posts: Vec<Timestamp> = (0..10)
                .map(|day| {
                    Timestamp::from_civil_utc(
                        CivilDateTime::new(2016, 3, 1 + day, 9, 0, 0).unwrap(),
                    )
                })
                .collect();
            ActivityProfile::from_trace_offset(&UserTrace::new("a", posts), TzOffset::UTC).unwrap()
        };
        let _ = a;
        let b = profile_at_hours("b", &[21]);
        let crowd = CrowdProfile::aggregate(&[a10, b]).unwrap();
        assert!((crowd.distribution().get(9) - 0.5).abs() < 1e-12);
        assert!((crowd.distribution().get(21) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_aggregate_fails() {
        assert!(CrowdProfile::aggregate(&[]).is_err());
    }

    #[test]
    fn shift_moves_profile() {
        let a = profile_at_hours("a", &[9]);
        let crowd = CrowdProfile::aggregate(&[a]).unwrap();
        assert_eq!(crowd.shifted(3).distribution().peak_hour(), 12);
        assert_eq!(crowd.shifted(-10).distribution().peak_hour(), 23);
    }

    #[test]
    fn display() {
        let a = profile_at_hours("a", &[9]);
        let crowd = CrowdProfile::aggregate(&[a]).unwrap();
        assert!(crowd.to_string().contains("crowd of 1"));
    }
}
