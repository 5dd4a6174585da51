//! The metric tables: every name the benchmark prints, its unit, which
//! way is better, and — for end-to-end metrics — how far the median may
//! worsen before it is a regression. `BENCHMARK.json` at the repo root
//! carries the same tables; a test holds the two equal.

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// What a user of the system sees, per workload, tracing off.
pub static END_TO_END: [Def; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("lat_p99_us", "us", Lower, 0.25),
    e2e("omega_per_kop", "cost/kop", Lower, 0.25),
    e2e("rss_mb", "MiB", Lower, 0.25),
];

/// Single layers (layer = crate name), from the traced run. No bounds:
/// they explain a move of an end-to-end metric, they are not gated.
/// `ops_per_s`, `lat_p50_us` and `cpu_us_per_op` head the list:
/// end-to-end by nature, but on this sandbox their run-to-run spread is
/// beyond any bound the pipeline allows — the first two on the pipelined
/// closed loops (README, "First readings"), the third whenever the host
/// changes state under a set of runs (README, "Two host states").
pub static PER_LAYER: [Def; 58] = [
    layer("ops_per_s", "ops/s", Higher),
    layer("lat_p50_us", "us", Lower),
    layer("cpu_us_per_op", "us/op", Lower),
    layer("agg_p50_us", "us", Lower),
    layer("recover_us_per_record", "us", Lower),
    layer("failed_share", "ratio", Lower),
    layer("wire.encode_req_ns", "ns", Lower),
    layer("wire.decode_req_ns", "ns", Lower),
    layer("wire.encode_resp_ns", "ns", Lower),
    layer("wire.decode_resp_ns", "ns", Lower),
    layer("wire.bytes_in_per_op", "B/op", Lower),
    layer("wire.bytes_out_per_op", "B/op", Lower),
    layer("reactor.tcp_rtt_ns", "ns", Lower),
    layer("reactor.loopback_rtt_ns", "ns", Lower),
    layer("reactor.socket_self_ns", "ns", Lower),
    layer("reactor.self_ns", "ns", Lower),
    layer("reactor.cpu_us_per_op", "us/op", Lower),
    layer("reactor.runq_wait_us_per_op", "us/op", Lower),
    layer("reactor.ctxsw_per_op", "1/op", Lower),
    layer("reactor.wakeups_per_kop", "1/kop", Lower),
    layer("reactor.coalesced_per_kop", "1/kop", Higher),
    layer("reactor.accept_us", "us", Lower),
    layer("runtime.hop_ns", "ns", Lower),
    layer("runtime.self_ns", "ns", Lower),
    layer("runtime.submit_ns", "ns", Lower),
    layer("runtime.harvest_ns_per_op", "ns/op", Lower),
    layer("runtime.shard_cpu_us_per_op", "us/op", Lower),
    layer("runtime.shard_runq_wait_us_per_op", "us/op", Lower),
    layer("runtime.mailbox_depth_max", "count", Lower),
    layer("runtime.verb_latency_p50_us", "us", Lower),
    layer("shard.call_ns", "ns", Lower),
    layer("shard.route_self_ns", "ns", Lower),
    layer("shard.imbalance", "ratio", Lower),
    layer("store.read_hit_ns", "ns", Lower),
    layer("store.read_miss_ns", "ns", Lower),
    layer("store.write_ns", "ns", Lower),
    layer("store.write_escape_ns", "ns", Lower),
    layer("store.hit_ratio", "ratio", Higher),
    layer("store.vr_per_kop", "1/kop", Lower),
    layer("store.qr_per_kop", "1/kop", Lower),
    layer("store.served_width_mean", "width", Lower),
    layer("store.cached_share", "ratio", Higher),
    layer("queries.aggregate_ns", "ns", Lower),
    layer("queries.refreshed_per_aggregate", "count", Lower),
    layer("queries.rounds_per_aggregate", "count", Lower),
    layer("push.events_per_kop", "1/kop", Lower),
    layer("spool.append_never_ns", "ns", Lower),
    layer("spool.append_always_ns", "ns", Lower),
    layer("spool.fsync_self_ns", "ns", Lower),
    layer("spool.bytes_per_write", "B", Lower),
    layer("spool.segments", "count", Lower),
    layer("spool.replay_records_per_s", "1/s", Higher),
    layer("telemetry.scrape_us", "us", Lower),
    layer("telemetry.scrape_bytes", "B", Lower),
    layer("benchmark.server_setup_ms", "ms", Lower),
    layer("benchmark.gen_late_p99_us", "us", Lower),
    layer("benchmark.client_cpu_us_per_op", "us/op", Lower),
    layer("benchmark.trace_overhead_pct", "%", Lower),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` is what the pipeline reads; these tables are
    /// what the binary prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let field = |item: &Json, key: &str| item.get(key).and_then(Json::as_str).map(String::from);
        for (section, defs, bounded) in
            [("end_to_end", &END_TO_END[..], true), ("per_layer", &PER_LAYER[..], false)]
        {
            let listed = doc.get(section).and_then(Json::as_arr).expect(section);
            assert_eq!(listed.len(), defs.len(), "{section} length");
            for (item, def) in listed.iter().zip(defs) {
                assert_eq!(field(item, "name").as_deref(), Some(def.name));
                assert_eq!(field(item, "unit").as_deref(), Some(def.unit), "{}", def.name);
                assert_eq!(field(item, "better").as_deref(), Some(def.better.as_str()));
                let bound = item.get("bound").and_then(Json::as_f64);
                assert_eq!(bound, bounded.then_some(def.bound), "{} bound", def.name);
            }
        }
        let listed = doc.get("workloads").and_then(Json::as_arr).expect("workloads");
        assert_eq!(listed.len(), WORKLOADS.len());
        for (item, workload) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(field(item, "name").as_deref(), Some(workload.name));
            assert_eq!(field(item, "why").as_deref(), Some(workload.why));
            assert!(workload.why.len() <= 200, "{} why is too long", workload.name);
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(def.bound <= 0.25);
        }
    }
}
