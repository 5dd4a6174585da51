//! The open-loop schedule: request `i` is due at `start + i · period`
//! whatever the server does, latency is timed from that due time, and
//! how late the generator itself ran is reported beside it.

use std::time::{Duration, Instant};

/// The sender sleeps until this long before a request is due, then
/// spins: sleeping alone overshoots by more than a request period.
const SPIN_MARGIN: Duration = Duration::from_micros(100);

#[derive(Clone, Copy)]
pub struct Schedule {
    start: Instant,
    period_ns: u64,
}

impl Schedule {
    pub fn new(start: Instant, rate_per_s: u64) -> Self {
        Schedule { start, period_ns: 1_000_000_000 / rate_per_s }
    }

    /// When request `index` is due.
    pub fn due(&self, index: u64) -> Instant {
        self.start + Duration::from_nanos(index * self.period_ns)
    }

    /// Block until `index` is due and return how late the generator is
    /// for it, in ns (0 when on time).
    pub fn wait_for(&self, index: u64) -> u64 {
        let due = self.due(index);
        if let Some(nap) = nap_before(due.saturating_duration_since(Instant::now())) {
            std::thread::sleep(nap);
        }
        loop {
            let now = Instant::now();
            if now >= due {
                return lateness_ns(now, due);
            }
            std::hint::spin_loop();
        }
    }
}

/// How long to sleep when a request is due in `ahead`: all but the spin
/// margin, or not at all inside it.
pub fn nap_before(ahead: Duration) -> Option<Duration> {
    ahead.checked_sub(SPIN_MARGIN).filter(|nap| !nap.is_zero())
}

/// How far past `due` the generator got to a request.
pub fn lateness_ns(now: Instant, due: Instant) -> u64 {
    now.saturating_duration_since(due).as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_evenly_spaced_from_the_start() {
        let start = Instant::now();
        let s = Schedule::new(start, 20_000);
        assert_eq!(s.due(0), start);
        assert_eq!(s.due(1) - s.due(0), Duration::from_micros(50));
        assert_eq!(s.due(600_000) - start, Duration::from_secs(30));
        // Spacing does not drift: due times come from the index, not
        // from when the previous request went out.
        assert_eq!(s.due(20_001) - s.due(20_000), Duration::from_micros(50));
    }

    #[test]
    fn naps_stop_short_of_the_due_time() {
        assert_eq!(nap_before(Duration::from_micros(500)), Some(Duration::from_micros(400)));
        assert_eq!(nap_before(Duration::from_micros(100)), None);
        assert_eq!(nap_before(Duration::from_micros(40)), None);
        assert_eq!(nap_before(Duration::ZERO), None);
    }

    #[test]
    fn lateness_counts_only_time_past_due() {
        let due = Instant::now();
        assert_eq!(lateness_ns(due, due), 0);
        assert_eq!(lateness_ns(due + Duration::from_micros(7), due), 7_000);
        assert_eq!(lateness_ns(due, due + Duration::from_micros(7)), 0, "early is not late");
    }

    #[test]
    fn a_late_generator_sends_at_once_and_reports_it() {
        // Start the schedule 2 ms in the past: request 0 is 2 ms late.
        let s = Schedule::new(Instant::now() - Duration::from_millis(2), 1_000);
        let late = s.wait_for(0);
        assert!((2_000_000..50_000_000).contains(&late), "late by {late} ns");
        // Request 10 is due 8 ms from now: waiting returns on time.
        let before = Instant::now();
        let late = s.wait_for(10);
        assert!(before.elapsed() >= Duration::from_millis(7));
        assert!(late < 5_000_000, "late by {late} ns");
    }
}
