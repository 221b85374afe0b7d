//! Order statistics, the percentile rule, and the report digest.

use labelcount_serve::{ServiceReport, ServiceStatus};

/// Samples that must lie beyond a reported percentile. A p99 over fewer
/// than 1000 samples would rest on fewer than ten observations.
pub const MIN_TAIL: usize = 10;

/// The nearest-rank `q`-quantile of `samples` (`0 < q < 1`).
///
/// Fails when fewer than `min_tail` samples lie beyond it, so a
/// percentile is never published on too thin a tail.
pub fn percentile(samples: &[f64], q: f64, min_tail: usize) -> Result<f64, String> {
    assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1)");
    if samples.is_empty() {
        return Err("no samples".into());
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let beyond = sorted.len() - rank;
    if beyond < min_tail {
        return Err(format!(
            "p{} of {} samples has {beyond} samples beyond it; at least {min_tail} are required",
            q * 100.0,
            sorted.len()
        ));
    }
    Ok(sorted[rank - 1])
}

/// Accuracy of a mixed-roster stream: each estimator's NRMSE over its own
/// estimates, then the median across estimators. A pooled NRMSE would be
/// set by the single wildest estimate of the most heavy-tailed estimator
/// at small budgets; the median across the roster is not.
pub fn roster_nrmse(estimates: &[(&'static str, f64)], truth: f64) -> f64 {
    let mut by_estimator: Vec<(&str, Vec<f64>)> = Vec::new();
    for &(abbrev, e) in estimates {
        match by_estimator.iter_mut().find(|(a, _)| *a == abbrev) {
            Some((_, v)) => v.push(e),
            None => by_estimator.push((abbrev, vec![e])),
        }
    }
    let per: Vec<f64> = by_estimator
        .iter()
        .map(|(_, v)| labelcount_stats::nrmse(v, truth))
        .collect();
    labelcount_stats::percentile(&per, 50.0)
}

/// FNV-1a over 64-bit words.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn opt(&mut self, x: Option<f64>) {
        self.word(x.map_or(u64::MAX, f64::to_bits));
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A digest of everything deterministic in a service report: ids,
/// routing, statuses with their estimate or anytime bits, per-query
/// counters, and the serving and scheduling counters. The owning shard
/// and the configured shard count are left out, so the digest must match
/// between runs at different shard counts.
pub fn report_digest(r: &ServiceReport) -> u64 {
    let mut d = Digest::new();
    for o in &r.outcomes {
        d.word(o.id);
        d.word(o.tenant.0);
        d.word(o.graph.0);
        match &o.status {
            ServiceStatus::Completed(q) => {
                d.word(1);
                d.opt(q.estimate.as_ref().ok().copied());
                for c in [
                    q.logical_calls,
                    q.retry_charges,
                    q.backend_attempts,
                    q.rate_limited,
                    q.transient_errors,
                    q.latency_ticks,
                    u64::from(q.budget_exhausted),
                    q.bursts,
                    q.breaker_opens,
                    q.stale_served,
                ] {
                    d.word(c);
                }
            }
            ServiceStatus::Shed { backlog, anytime } => {
                d.word(2);
                d.word(*backlog as u64);
                d.opt(*anytime);
            }
            ServiceStatus::QuotaExhausted { anytime } => {
                d.word(3);
                d.opt(*anytime);
            }
            ServiceStatus::Throttled { anytime } => {
                d.word(4);
                d.opt(*anytime);
            }
            ServiceStatus::DeadlineAnytime {
                completed_replicates,
                anytime,
                ci_halfwidth,
                cancelled_at_tick,
            } => {
                d.word(5);
                d.word(*completed_replicates);
                d.opt(*anytime);
                d.word(ci_halfwidth.to_bits());
                d.word(*cancelled_at_tick);
            }
            ServiceStatus::UnknownGraph => d.word(6),
        }
    }
    let s = &r.serving;
    for c in [
        s.submitted,
        s.admitted,
        s.shed,
        s.quota_exhausted,
        s.quota_throttled,
        s.tenant_fairness.to_bits(),
    ] {
        d.word(c);
    }
    if let Some(c) = &r.scheduling {
        for x in [
            c.deadline_hits,
            c.cancellations,
            c.mean_slack_ticks.to_bits(),
            c.priority_inversions,
        ] {
            d.word(x);
        }
    }
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_fails_loudly_on_a_thin_tail() {
        let thin: Vec<f64> = (0..999).map(f64::from).collect();
        let err = percentile(&thin, 0.99, MIN_TAIL).unwrap_err();
        assert!(err.contains("9 samples beyond"), "{err}");
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&enough, 0.99, MIN_TAIL), Ok(989.0));
        assert_eq!(percentile(&enough, 0.5, MIN_TAIL), Ok(499.0));
        assert!(percentile(&[], 0.5, 0).is_err());
    }

    #[test]
    fn roster_nrmse_is_the_median_over_estimators() {
        let est = [
            ("a", 90.0),
            ("a", 110.0), // NRMSE 0.1
            ("b", 80.0),
            ("b", 120.0), // 0.2
            ("c", 100.0),
            ("c", 1000.0), // wild
        ];
        assert!((roster_nrmse(&est, 100.0) - 0.2).abs() < 1e-12);
    }
}
