//! Reading the server's Prometheus text exposition, the way an operator
//! would: the benchmark takes the reactor and runtime series from
//! `render_exposition()`, not from handles into the registry.

/// One `name{labels} value` line.
pub struct Sample<'a> {
    pub name: &'a str,
    pub labels: &'a str,
    pub value: f64,
}

pub fn samples(text: &str) -> impl Iterator<Item = Sample<'_>> {
    text.lines().filter(|line| !line.starts_with('#')).filter_map(|line| {
        let (series, value) = line.rsplit_once(' ')?;
        let value = match value {
            "+Inf" => f64::INFINITY,
            other => other.parse().ok()?,
        };
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => (name, rest.strip_suffix('}')?),
            None => (series, ""),
        };
        Some(Sample { name, labels, value })
    })
}

/// The sum of every series of family `name` (across label sets).
pub fn total(text: &str, name: &str) -> Option<f64> {
    let mut found = None;
    for sample in samples(text).filter(|s| s.name == name) {
        *found.get_or_insert(0.0) += sample.value;
    }
    found
}

/// The largest series of family `name`.
pub fn max(text: &str, name: &str) -> Option<f64> {
    samples(text).filter(|s| s.name == name).map(|s| s.value).reduce(f64::max)
}

fn label<'a>(labels: &'a str, key: &str) -> Option<&'a str> {
    labels.split(',').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then(|| v.trim_matches('"'))
    })
}

/// The `p`-quantile of histogram family `name`, summed over the label
/// sets whose `verb` is one of `verbs`, interpolated inside its bucket
/// the way `histogram_quantile` does. `None` without observations.
pub fn histogram_quantile(text: &str, name: &str, verbs: &[&str], p: f64) -> Option<f64> {
    let bucket_family = format!("{name}_bucket");
    // (upper bound, cumulative count), summed across the chosen verbs.
    let mut buckets: Vec<(f64, f64)> = Vec::new();
    for sample in samples(text).filter(|s| s.name == bucket_family) {
        if !label(sample.labels, "verb").is_some_and(|v| verbs.contains(&v)) {
            continue;
        }
        let le = match label(sample.labels, "le")? {
            "+Inf" => f64::INFINITY,
            bound => bound.parse().ok()?,
        };
        match buckets.iter_mut().find(|(bound, _)| *bound == le) {
            Some((_, count)) => *count += sample.value,
            None => buckets.push((le, sample.value)),
        }
    }
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last()?.1;
    if total == 0.0 {
        return None;
    }
    let rank = p * total;
    let mut lower = (0.0, 0.0);
    for &(le, cumulative) in &buckets {
        if cumulative >= rank {
            if le.is_infinite() {
                return Some(lower.0);
            }
            let inside = (rank - lower.1) / (cumulative - lower.1);
            return Some(lower.0 + inside * (le - lower.0));
        }
        lower = (le, cumulative);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "# HELP apcache_reactor_wakeups_total wake-ups\n\
        # TYPE apcache_reactor_wakeups_total counter\n\
        apcache_reactor_wakeups_total 1234\n\
        apcache_mailbox_depth{shard=\"0\"} 3\n\
        apcache_mailbox_depth{shard=\"1\"} 17\n\
        apcache_verb_latency_seconds_bucket{verb=\"read\",le=\"0.00001\"} 10\n\
        apcache_verb_latency_seconds_bucket{verb=\"read\",le=\"0.0001\"} 90\n\
        apcache_verb_latency_seconds_bucket{verb=\"read\",le=\"+Inf\"} 100\n\
        apcache_verb_latency_seconds_bucket{verb=\"write\",le=\"0.00001\"} 0\n\
        apcache_verb_latency_seconds_bucket{verb=\"write\",le=\"0.0001\"} 100\n\
        apcache_verb_latency_seconds_bucket{verb=\"write\",le=\"+Inf\"} 100\n\
        apcache_verb_latency_seconds_bucket{verb=\"metrics\",le=\"+Inf\"} 5\n";

    #[test]
    fn reads_counters_and_gauges() {
        assert_eq!(total(TEXT, "apcache_reactor_wakeups_total"), Some(1234.0));
        assert_eq!(total(TEXT, "apcache_mailbox_depth"), Some(20.0));
        assert_eq!(max(TEXT, "apcache_mailbox_depth"), Some(17.0));
        assert_eq!(total(TEXT, "apcache_missing"), None);
    }

    #[test]
    fn interpolates_a_histogram_quantile_across_verbs() {
        // read+write: 10 ≤ 10 µs, 190 ≤ 100 µs, 200 in all; rank 100 lies
        // (100-10)/(190-10) = half-way through the (10 µs, 100 µs] bucket.
        let q = histogram_quantile(TEXT, "apcache_verb_latency_seconds", &["read", "write"], 0.5);
        assert!((q.unwrap() - 0.000_055).abs() < 1e-9, "{q:?}");
        let none = histogram_quantile(TEXT, "apcache_verb_latency_seconds", &["lease"], 0.5);
        assert_eq!(none, None);
    }
}
