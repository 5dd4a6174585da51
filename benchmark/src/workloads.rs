//! The four workloads. Names are fixed: later issues cite them.

/// Shares of writes and aggregates in the request stream; the rest are
/// point reads.
pub struct Mix {
    pub write: f64,
    pub aggregate: f64,
}

/// How point reads draw their precision constraint.
pub enum ReadProfile {
    /// `Absolute(δ)`, δ ~ U[lo, hi]: wide enough that adapted widths fit
    /// and nearly every read is a cache hit.
    Loose { lo: f64, hi: f64 },
    /// One read in ten `Exact`, one in ten `Relative(0.01)`, the rest
    /// `Absolute(δ)` with δ ~ U[0, hi]: tight enough that reads force
    /// query-initiated refreshes.
    Tight { hi: f64 },
}

/// Who decides when the next request goes out.
pub enum Loop {
    /// Independent arrivals: one connection, `rate` requests per second
    /// evenly spaced, sent on schedule whatever the server does.
    Open { rate: u64 },
    /// Callers that wait: `connections` × `window` requests in flight,
    /// each settled reply releasing the next request.
    Closed { connections: usize, window: usize },
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub keys: usize,
    /// Cache capacity per shard; `None` is unbounded (the key set fits).
    pub capacity_per_shard: Option<usize>,
    pub mix: Mix,
    pub reads: ReadProfile,
    pub aggregate_delta_avg: f64,
    pub load: Loop,
    /// Each connection subscribes to this many of its hottest keys.
    pub subscribe_hottest: usize,
    /// The store logs to a spool with `FsyncPolicy::Always`, and the
    /// run ends with a simulated crash and a timed recovery.
    pub durable: bool,
    /// Every timed window opens fresh connections.
    pub reconnect_each_window: bool,
    /// Untimed requests before the timed phase, so widths converge and
    /// caches fill. 100 000 except where most requests cost an fsync.
    pub warmup_ops: u64,
    /// Requests the traced run replays through each layer in turn.
    pub ladder_ops: usize,
}

impl Workload {
    pub fn connections(&self) -> usize {
        match self.load {
            Loop::Open { .. } => 1,
            Loop::Closed { connections, .. } => connections,
        }
    }
}

/// Shards of the served store (fixed, not derived from the host).
pub const SHARDS: usize = 2;
/// The timed phase is cut into this many windows; a run reports the
/// median window of every timing metric.
pub const WINDOWS: usize = 5;

pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "point_open",
        why: "Open loop, 20 000 req/s over 4 096 keys, nearly every read a cache hit: latency under independent arrivals, where codec, reactor round, mailbox hop and harvest are the cost and the store is not.",
        keys: 4_096,
        capacity_per_shard: None,
        mix: Mix { write: 0.1, aggregate: 0.0 },
        reads: ReadProfile::Loose { lo: 20.0, hi: 60.0 },
        aggregate_delta_avg: 40.0,
        load: Loop::Open { rate: 20_000 },
        subscribe_hottest: 0,
        durable: false,
        reconnect_each_window: false,
        warmup_ops: 100_000,
        ladder_ops: 100_000,
    },
    Workload {
        name: "pipelined_closed",
        why: "Closed loop, 2 connections x window 32 through the product's pipelined client, fresh connections per window: saturation throughput, where coalescing, TCP_NODELAY/writev and harvest batching show.",
        keys: 4_096,
        capacity_per_shard: None,
        mix: Mix { write: 0.1, aggregate: 0.0 },
        reads: ReadProfile::Loose { lo: 20.0, hi: 60.0 },
        aggregate_delta_avg: 40.0,
        load: Loop::Closed { connections: 2, window: 32 },
        subscribe_hottest: 0,
        durable: false,
        reconnect_each_window: true,
        warmup_ops: 100_000,
        ladder_ops: 100_000,
    },
    Workload {
        name: "precision_churn",
        why: "Closed loop, 2 x window 8 over 65 536 keys with a cache for a quarter, tight constraints, aggregates and push: most reads miss, so escapes, refreshes and eviction do the work; Omega is the headline.",
        keys: 65_536,
        capacity_per_shard: Some(8_192),
        mix: Mix { write: 0.3, aggregate: 0.1 },
        reads: ReadProfile::Tight { hi: 8.0 },
        aggregate_delta_avg: 40.0,
        load: Loop::Closed { connections: 2, window: 8 },
        subscribe_hottest: 32,
        durable: false,
        reconnect_each_window: false,
        warmup_ops: 100_000,
        ladder_ops: 100_000,
    },
    Workload {
        name: "ingest_durable",
        why: "Closed loop, 2 x window 32, 80 % writes into a spool that fsyncs every record, then a crash and a timed recovery: group commit shows here and nowhere else, as does a read-path gain that slows writes.",
        keys: 4_096,
        capacity_per_shard: None,
        mix: Mix { write: 0.8, aggregate: 0.0 },
        reads: ReadProfile::Loose { lo: 20.0, hi: 60.0 },
        aggregate_delta_avg: 40.0,
        load: Loop::Closed { connections: 2, window: 32 },
        subscribe_hottest: 0,
        durable: true,
        reconnect_each_window: false,
        warmup_ops: 10_000,
        ladder_ops: 4_000,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
