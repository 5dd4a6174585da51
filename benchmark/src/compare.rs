//! `benchmark compare A.json B.json`: two result files of the same
//! benchmark, every (workload, end-to-end metric) judged by the metric's
//! own bound and direction. It is how repeatability is checked and what
//! the pipeline runs for later PRs.

use crate::json::Json;
use crate::metrics::{Better, Def, END_TO_END};
use crate::stats::median;
use crate::workloads::WORKLOADS;

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    /// The runs of one side spread wider than the bound and the two
    /// sides overlap: the data cannot tell a change from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Distance between the first and third quartile as a share of the
/// median (0 for fewer than two runs).
fn spread(runs: &[f64]) -> f64 {
    if runs.len() < 2 {
        return 0.0;
    }
    let mut sorted = runs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    // The exclusive method of Python's statistics.quantiles(n=4).
    let quartile = |q: f64| {
        let pos = (q * (sorted.len() + 1) as f64 - 1.0).clamp(0.0, (sorted.len() - 1) as f64);
        let (lo, frac) = (pos.floor() as usize, pos.fract());
        let hi = (lo + 1).min(sorted.len() - 1);
        sorted[lo] + frac * (sorted[hi] - sorted[lo])
    };
    (quartile(0.75) - quartile(0.25)) / median(&sorted).abs().max(f64::MIN_POSITIVE)
}

/// Judge B (the change) against A (the base).
pub fn judge(def: &Def, a: &[f64], b: &[f64]) -> Verdict {
    let (base, change) = (median(a), median(b));
    let worse_by = match def.better {
        Better::Lower => (change - base) / base.abs(),
        Better::Higher => (base - change) / base.abs(),
    };
    let better = |x: f64, than: f64| match def.better {
        Better::Lower => x < than,
        Better::Higher => x > than,
    };
    if spread(a) > def.bound || spread(b) > def.bound {
        let clear_win = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
        return if clear_win { Verdict::Ok } else { Verdict::Unresolved };
    }
    if worse_by > def.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// The runs recorded for one (workload, metric) of a result file.
fn runs(doc: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let runs = doc.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)?.get("runs")?;
    runs.as_arr()?.iter().map(Json::as_f64).collect()
}

/// Print one row per (workload, metric); `Err` names what was worse.
pub fn compare(a_text: &str, b_text: &str) -> Result<(), String> {
    let a = Json::parse(a_text).map_err(|e| format!("first file: {e}"))?;
    let b = Json::parse(b_text).map_err(|e| format!("second file: {e}"))?;
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    let mut worse = Vec::new();
    for workload in &WORKLOADS {
        for def in &END_TO_END {
            let (Some(ra), Some(rb)) =
                (runs(&a, workload.name, def.name), runs(&b, workload.name, def.name))
            else {
                continue;
            };
            if ra.is_empty() || rb.is_empty() {
                continue;
            }
            let verdict = judge(def, &ra, &rb);
            let (ma, mb) = (median(&ra), median(&rb));
            println!(
                "{:<18} {:<16} {:>14.4} {:>14.4} {:>9.4} {:>6.2}  {}",
                workload.name,
                def.name,
                ma,
                mb,
                mb / ma,
                def.bound,
                verdict.as_str()
            );
            if verdict == Verdict::Worse {
                worse.push(format!("{}/{}", workload.name, def.name));
            }
        }
    }
    if worse.is_empty() {
        Ok(())
    } else {
        Err(format!("worse than the bound allows: {}", worse.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    #[test]
    fn bounds_apply_in_the_metric_s_direction() {
        let lat = end_to_end("lat_p99_us").unwrap(); // lower is better, bound 0.25
        assert_eq!(judge(lat, &[100.0], &[124.0]), Verdict::Ok);
        assert_eq!(judge(lat, &[100.0], &[126.0]), Verdict::Worse);
        assert_eq!(judge(lat, &[100.0], &[50.0]), Verdict::Ok);
        let ops = Def { name: "ops", unit: "ops/s", better: Better::Higher, bound: 0.25 };
        assert_eq!(judge(&ops, &[1000.0], &[760.0]), Verdict::Ok);
        assert_eq!(judge(&ops, &[1000.0], &[740.0]), Verdict::Worse);
        assert_eq!(judge(&ops, &[1000.0], &[5000.0]), Verdict::Ok);
    }

    #[test]
    fn noisy_sides_are_unresolved_unless_every_run_wins() {
        let lat = end_to_end("lat_p99_us").unwrap();
        let noisy = [80.0, 100.0, 120.0, 140.0, 90.0];
        assert_eq!(judge(lat, &noisy, &[100.0, 130.0, 150.0, 95.0, 105.0]), Verdict::Unresolved);
        assert_eq!(judge(lat, &noisy, &[60.0, 70.0, 75.0, 65.0, 72.0]), Verdict::Ok);
    }

    #[test]
    fn spread_is_the_interquartile_share_of_the_median() {
        // statistics.quantiles([1..=9], n=4) == [2.5, 5.0, 7.5]
        let runs: Vec<f64> = (1..=9).map(f64::from).collect();
        assert!((spread(&runs) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
