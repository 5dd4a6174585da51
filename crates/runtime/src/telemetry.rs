//! The runtime's observability spine: one [`RuntimeTelemetry`] per
//! deployment, shared by every handle, actor, and (through
//! [`RuntimeHandle::telemetry`](crate::RuntimeHandle::telemetry)) the
//! wire layer above.
//!
//! The latency instrumentation lives at the completion queue, not in the
//! shard actors: a ticket's clock starts when `submit_*` registers the
//! op and stops when the op settles, so the histogram measures exactly
//! what a client experiences — mailbox admission, actor service, and
//! completion delivery. The store's per-read hot path is untouched (its
//! own counters are the [`StoreMetrics`](apcache_store::StoreMetrics)
//! the exposition renders directly), so a read hit pays nothing for
//! being observable (`store.read_hit_ns` in `BENCHMARK.json` times it).

use std::time::Duration;

use apcache_telemetry::{
    Counter, Histogram, Registry, TraceKind, TraceRing, LATENCY_BUCKETS_SECONDS,
};

/// The verb labels of the per-verb latency histogram family, in
/// registration order. `"lease"` covers grant and release; `"tick"`
/// covers both `advance_time` and `push_stats` (same fan-out, same leg
/// shape).
pub const VERBS: [&str; 9] = [
    "read",
    "write",
    "write_batch",
    "aggregate",
    "metrics",
    "subscribe",
    "unsubscribe",
    "lease",
    "tick",
];

/// Default trace-ring capacity: deep enough to hold the full lifecycle
/// (submit + dispatch + completion) of a few hundred requests.
pub const DEFAULT_TRACE_CAPACITY: usize = 1_024;

/// Per-runtime metrics registry plus trace ring. Created at
/// [`Runtime::launch`](crate::Runtime::launch) and shared by reference
/// through every handle.
pub struct RuntimeTelemetry {
    registry: Registry,
    trace: TraceRing,
    /// Pre-registered per-verb latency histograms so the settle path
    /// never takes the registry's registration lock.
    verb_latency: Vec<(&'static str, Histogram)>,
    pushes: Counter,
    lease_expirations: Counter,
}

impl Default for RuntimeTelemetry {
    fn default() -> Self {
        RuntimeTelemetry::new()
    }
}

impl RuntimeTelemetry {
    /// A fresh registry and trace ring with the default trace capacity.
    pub fn new() -> Self {
        RuntimeTelemetry::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A fresh registry with an explicit trace-ring capacity.
    pub fn with_trace_capacity(capacity: usize) -> Self {
        let registry = Registry::new();
        let verb_latency = VERBS
            .iter()
            .map(|verb| {
                let h = registry.histogram(
                    "apcache_verb_latency_seconds",
                    "Submit-to-completion latency of runtime verbs, in seconds.",
                    &LATENCY_BUCKETS_SECONDS,
                    &[("verb", verb)],
                );
                (*verb, h)
            })
            .collect();
        let pushes = registry.counter(
            "apcache_pushes_total",
            "Push events streamed to live subscription tickets.",
            &[],
        );
        let lease_expirations = registry.counter(
            "apcache_lease_expirations_total",
            "TTL leases that lapsed and widened their interval to the fallback.",
            &[],
        );
        RuntimeTelemetry {
            registry,
            trace: TraceRing::new(capacity),
            verb_latency,
            pushes,
            lease_expirations,
        }
    }

    /// The metric registry. Layers above the runtime (the wire server,
    /// benches) register their own series here so one exposition covers
    /// the whole serving stack.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The request-lifecycle trace ring.
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    pub(crate) fn observe_verb(&self, verb: &'static str, elapsed: Duration) {
        if let Some((_, h)) = self.verb_latency.iter().find(|(v, _)| *v == verb) {
            h.observe(elapsed.as_secs_f64());
        }
    }

    pub(crate) fn record(
        &self,
        kind: TraceKind,
        ticket: u64,
        verb: &'static str,
        shard: Option<u32>,
    ) {
        self.trace.record(kind, ticket, verb, shard);
    }

    pub(crate) fn push_delivered(&self) {
        self.pushes.inc();
    }

    pub(crate) fn leases_expired(&self, n: usize) {
        if n > 0 {
            self.lease_expirations.add(n as u64);
        }
    }
}
