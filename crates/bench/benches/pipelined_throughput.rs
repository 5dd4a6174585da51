//! Regenerates the pipelined wire-protocol measurement: loopback
//! round-trip throughput by in-flight window × shard count, with the
//! window = 1 row as the strict call-reply (PR 4-equivalent) baseline —
//! plus the reactor connection sweep (100/1k/10k open connections ×
//! window {1,32}), which asserts the
//! reactor's window-32 throughput retention from 100 → 1k connections
//! and writes the machine-readable record (`BENCH_reactor.json` at the
//! workspace root).

fn main() {
    for table in apcache_bench::experiments::pipelined::run() {
        table.print();
    }
    let (table, json) = apcache_bench::experiments::reactor::run();
    table.print();
    // Anchor to the workspace root so the record lands in the same place
    // no matter which directory cargo invokes the bench from.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_reactor.json");
    std::fs::write(path, &json).expect("write BENCH_reactor.json");
    println!("wrote {path}");
}
