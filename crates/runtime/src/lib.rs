//! # apcache-runtime
//!
//! The **concurrent serving layer** of the workspace: an actor-per-shard
//! runtime that turns the synchronous [`ShardedStore`] fleet into a
//! non-blocking front-end for many client threads — hand-rolled on `std`
//! threads, mutexes, and condvars only (no async executor), so it builds
//! offline anywhere the rest of the workspace does.
//!
//! ## Design
//!
//! * **One OS-thread actor per shard.** Each actor exclusively owns one
//!   [`PrecisionStore`], which therefore
//!   stays exactly as single-threaded and lock-free as the paper's
//!   per-cache protocol; all concurrency lives in the mailboxes. This is
//!   the classical isolation of per-domain precision state: protocol
//!   state never crosses a thread boundary, messages do.
//! * **Bounded mailboxes with backpressure.** Every actor drains a FIFO
//!   [`mailbox`](mailbox::mailbox) of [`Request`]s; producers that
//!   outrun a shard park on its full mailbox until the actor catches up.
//!   [`RuntimeHandle::write_nowait`] is the fire-and-forget path: it pays
//!   only the admission toll, never waits for the outcome.
//! * **Tickets and completions.** Every verb has a non-blocking
//!   `submit_*` form returning a [`Ticket`]; outcomes land out of order
//!   in the handle's [`CompletionQueue`], harvested with
//!   [`poll`](CompletionQueue::poll) / [`wait`](CompletionQueue::wait) /
//!   [`wait_ticket`](CompletionQueue::wait_ticket) — an io_uring-style
//!   split of *issuing* from *settling* that decouples logical client
//!   count from thread count. The blocking verbs are `submit` +
//!   `wait_ticket` wrappers, nothing more.
//! * **Scatter/gather aggregates.** A deployment-wide aggregate splits
//!   its precision budget by the rules in [`apcache_shard::plan`]
//!   (`δ·n_s/n` for SUM, `δ·n_s` for AVG-as-SUM, full `δ` for MAX/MIN),
//!   enqueues every shard's leg before awaiting any reply (the shards
//!   work concurrently), and merges the bounded partial answers with the
//!   same interval arithmetic as [`ShardedStore`] — the shared
//!   [`AggregatePlan`](apcache_shard::plan::AggregatePlan) state machine
//!   runs the Relative probe → local-certificates → derived-budget
//!   refinement as up to three rounds of submitted tickets, parked in
//!   the completion queue and advanced by whichever thread harvests, so
//!   a long refinement interleaves with unrelated traffic instead of
//!   holding a client thread. Actors never message each other, so the
//!   runtime has no deadlock cycles by construction.
//! * **Push subscriptions, leases, and the shard timer wheel.** A
//!   [`RuntimeHandle::subscribe`] returns a long-lived streaming [`Ticket`]
//!   whose completion queue receives one [`Outcome::Push`] per filtered
//!   change of the watched key's cached interval — turning the poll-based
//!   server into the paper's push-at-heart refresh stream. TTL **leases**
//!   ([`RuntimeHandle::lease`]) ride each shard's hierarchical timer wheel
//!   (`apcache_push::timeq`): a leased interval whose TTL lapses without a
//!   source contact is widened, truth-preservingly, to the lease's
//!   fallback and pushed exactly once. The push-side clock is the logical
//!   time carried by served traffic plus explicit
//!   [`advance_time`](RuntimeHandle::advance_time) calls (deterministic),
//!   optionally backed by a wall-clock tick thread
//!   ([`RuntimeConfig::tick_interval`]).
//! * **Draining shutdown.** [`Runtime::shutdown`] acknowledges, per
//!   shard, that every previously enqueued request has been served, then
//!   closes the mailboxes and joins the actors — no accepted write is
//!   ever lost. [`Runtime::into_store`] additionally hands back the
//!   reassembled [`ShardedStore`] in the runtime's exact final state.
//!
//! With a single client the runtime is **bit-identical** to a
//! [`ShardedStore`] under θ = 1 (see `tests/runtime_conformance.rs`): the
//! mailboxes impose the caller's order per shard, the budget splits and
//! merge folds are the same code, and the single-shard delegation path is
//! preserved.
//!
//! ## Quick example
//!
//! ```
//! use apcache_runtime::Runtime;
//! use apcache_shard::{AggregateKind, Constraint, ShardedStoreBuilder};
//!
//! let store = ShardedStoreBuilder::new()
//!     .shards(4)
//!     .source("cpu_load", 40.0)
//!     .source("mem_used", 900.0)
//!     .source("disk_io", 120.0)
//!     .build()
//!     .unwrap();
//! let runtime = Runtime::launch(store).unwrap();
//!
//! // Clone one handle per client thread; all verbs are thread-safe.
//! let handle = runtime.handle();
//! let reader = {
//!     let handle = handle.clone();
//!     std::thread::spawn(move || {
//!         handle.read(&"cpu_load", Constraint::Absolute(5.0), 0).unwrap()
//!     })
//! };
//! handle.write_nowait(&"mem_used", 905.0, 0).unwrap(); // fire-and-forget
//! assert!(reader.join().unwrap().answer.contains(40.0));
//!
//! // Aggregates scatter to the shard actors and gather the merged bound.
//! let out = handle
//!     .aggregate(
//!         AggregateKind::Sum,
//!         &["cpu_load", "mem_used", "disk_io"],
//!         Constraint::Absolute(50.0),
//!         1_000,
//!     )
//!     .unwrap();
//! assert!(out.answer.width() <= 50.0 + 1e-9);
//!
//! // Draining shutdown: the write above is guaranteed applied.
//! let store = runtime.into_store().unwrap();
//! assert_eq!(store.value(&"mem_used"), Some(905.0));
//! ```
//!
//! [`ShardedStore`]: apcache_shard::ShardedStore
//! [`Request`]: request::Request

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(rust_2018_idioms)]

mod actor;
pub mod backend;
pub mod completion;
pub mod error;
pub mod mailbox;
pub mod oneshot;
pub mod request;
pub mod runtime;
pub mod telemetry;

pub use completion::{Completion, CompletionQueue, Outcome, SubscriptionSender, Ticket};
pub use error::RuntimeError;
pub use request::Request;
pub use runtime::{
    Runtime, RuntimeConfig, RuntimeHandle, RuntimeMetrics, DEFAULT_MAILBOX_CAPACITY,
};
pub use telemetry::{RuntimeTelemetry, DEFAULT_TRACE_CAPACITY, VERBS};

// Observability vocabulary, re-exported so wire-layer and operator code
// need one import root.
pub use apcache_telemetry::{Exposition, MetricKind, Registry, TraceEvent, TraceKind, TraceRing};

// Re-export the serving vocabulary so runtime callers need one import root.
pub use apcache_push::{FallbackWidth, LeaseConfig, PushEvent, PushFilter, PushReason, PushReport};
pub use apcache_queries::AggregateKind;
pub use apcache_shard::{ShardRouter, ShardedStore, ShardedStoreBuilder};
pub use apcache_store::{
    AggregateOutcome, Answer, Constraint, InitialWidth, PolicySpec, PrecisionStore, ReadResult,
    StoreBuilder, StoreError, StoreMetrics, WriteOutcome,
};

#[cfg(test)]
mod tests {
    use super::*;
    use apcache_core::Rng;

    fn fleet(shards: usize, n_keys: u64) -> ShardedStore<u64> {
        let mut b = ShardedStoreBuilder::new()
            .shards(shards)
            .rng(Rng::seed_from_u64(7))
            .initial_width(InitialWidth::Fixed(10.0));
        for k in 0..n_keys {
            b = b.source(k, 100.0 * k as f64);
        }
        b.build().unwrap()
    }

    #[test]
    fn reads_writes_and_metrics_route_to_actors() {
        let runtime = Runtime::launch(fleet(4, 16)).unwrap();
        let h = runtime.handle();
        assert_eq!(h.shard_count(), 4);
        assert_eq!(h.len(), 16);
        let r = h.read(&3, Constraint::Absolute(10.0), 0).unwrap();
        assert!(!r.refreshed);
        assert!(r.answer.contains(300.0));
        let w = h.write(&3, 600.0, 1_000).unwrap(); // escapes [295, 305]
        assert!(w.escaped());
        h.write_nowait(&5, 501.0, 1_000).unwrap();
        let m = h.metrics().unwrap();
        assert_eq!(m.merged().totals().reads, 1);
        assert_eq!(m.merged().vr_count(), 1);
        assert_eq!(m.per_shard().len(), 4);
        // The fire-and-forget write has been applied once we observe the
        // final store.
        let store = runtime.into_store().unwrap();
        assert_eq!(store.value(&5), Some(501.0));
        assert_eq!(store.value(&3), Some(600.0));
    }

    #[test]
    fn unknown_keys_rejected_without_messaging_any_actor() {
        let runtime = Runtime::launch(fleet(2, 4)).unwrap();
        let h = runtime.handle();
        assert!(matches!(
            h.read(&99, Constraint::Exact, 0),
            Err(RuntimeError::Store(StoreError::UnknownKey))
        ));
        assert!(matches!(h.write(&99, 0.0, 0), Err(RuntimeError::Store(StoreError::UnknownKey))));
        assert!(matches!(
            h.write_nowait(&99, 0.0, 0),
            Err(RuntimeError::Store(StoreError::UnknownKey))
        ));
        assert!(h.write_nowait(&0, f64::NAN, 0).is_err());
        assert!(matches!(
            h.aggregate(AggregateKind::Sum, &[0, 99], Constraint::Exact, 0),
            Err(RuntimeError::Store(StoreError::UnknownKey))
        ));
        assert_eq!(h.metrics().unwrap().merged().total_cost(), 0.0);
    }

    #[test]
    fn aggregates_scatter_and_merge_within_budget() {
        let runtime = Runtime::launch(fleet(4, 16)).unwrap();
        let h = runtime.handle();
        let keys: Vec<u64> = (0..16).collect();
        let truth: f64 = (0..16).map(|k| 100.0 * k as f64).sum();
        for delta in [1_000.0, 40.0, 8.0, 0.0] {
            let out =
                h.aggregate(AggregateKind::Sum, &keys, Constraint::Absolute(delta), 0).unwrap();
            assert!(out.answer.width() <= delta + 1e-9, "delta={delta}");
            assert!(out.answer.contains(truth), "delta={delta}");
        }
        // Relative: loose ρ certified from cache, tight ρ escalates.
        let out = h.aggregate(AggregateKind::Sum, &keys, Constraint::Relative(0.5), 0).unwrap();
        assert!(out.refreshed.is_empty());
        let out = h.aggregate(AggregateKind::Sum, &keys, Constraint::Relative(0.001), 0).unwrap();
        assert!(!out.refreshed.is_empty());
        assert!(out.answer.contains(truth));
        // Empty aggregates mirror the synchronous façades.
        let none: &[u64] = &[];
        let out = h.aggregate(AggregateKind::Sum, none, Constraint::Absolute(1.0), 0).unwrap();
        assert_eq!((out.answer.lo(), out.answer.hi()), (0.0, 0.0));
        assert!(h.aggregate(AggregateKind::Avg, none, Constraint::Absolute(1.0), 0).is_err());
        runtime.shutdown().unwrap();
    }

    #[test]
    fn checkpoint_fans_out_and_recovery_resumes_the_fleet() {
        let dir =
            std::env::temp_dir().join(format!("apcache-runtime-spool-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir = dir.to_str().unwrap().to_string();
        let mut b = ShardedStoreBuilder::new()
            .shards(2)
            .rng(Rng::seed_from_u64(7))
            .initial_width(InitialWidth::Fixed(10.0))
            .with_spool(dir.clone());
        for k in 0..8u64 {
            b = b.source(k, 100.0 * k as f64);
        }
        let runtime = Runtime::launch(b.build().unwrap()).unwrap();
        let h = runtime.handle();
        for k in 0..8u64 {
            h.write(&k, 100.0 * k as f64 + 500.0, 10).unwrap(); // escape → VR
            h.read(&k, Constraint::Absolute(50.0), 20).unwrap(); // QR
        }
        // Fan the checkpoint out to every actor; each snapshot is a
        // consistent cut of its shard's mailbox history.
        h.checkpoint().unwrap();
        let reference = runtime.into_store().unwrap();
        let recovered = ShardedStore::<u64>::recover(&dir).unwrap();
        assert_eq!(recovered.shard_count(), 2);
        for k in 0..8u64 {
            assert_eq!(recovered.value(&k), reference.value(&k), "key {k}");
            assert_eq!(recovered.internal_width(&k), reference.internal_width(&k), "key {k}");
            assert_eq!(
                recovered.cached_interval(&k, 20),
                reference.cached_interval(&k, 20),
                "key {k}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn handles_error_after_shutdown() {
        let runtime = Runtime::launch(fleet(2, 4)).unwrap();
        let h = runtime.handle();
        runtime.shutdown().unwrap();
        assert!(matches!(h.read(&0, Constraint::Exact, 0), Err(RuntimeError::Closed)));
        assert!(matches!(h.write_nowait(&0, 1.0, 0), Err(RuntimeError::Closed)));
        assert!(matches!(h.metrics(), Err(RuntimeError::Closed)));
    }

    #[test]
    fn concurrent_clients_on_disjoint_keys_all_land() {
        let runtime = Runtime::launch(fleet(4, 64)).unwrap();
        let clients: Vec<_> = (0..8u64)
            .map(|c| {
                let h = runtime.handle();
                std::thread::spawn(move || {
                    let mine: Vec<u64> = (0..64).filter(|k| k % 8 == c).collect();
                    for t in 1..=50u64 {
                        for &k in &mine {
                            h.write_nowait(&k, k as f64 + t as f64, t * 1_000).unwrap();
                        }
                        let r =
                            h.read(&mine[(t % 8) as usize], Constraint::Exact, t * 1_000).unwrap();
                        assert!(r.answer.is_exact());
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        let m = runtime.handle().metrics().unwrap();
        assert_eq!(m.merged().totals().writes, 8 * 50 * 8);
        assert_eq!(m.merged().totals().reads, 8 * 50);
        runtime.shutdown().unwrap();
    }

    #[test]
    fn tickets_settle_out_of_order_on_one_thread() {
        let runtime = Runtime::launch(fleet(4, 16)).unwrap();
        let h = runtime.handle();
        // Fill a window of heterogeneous submissions without blocking.
        let writes: Vec<Ticket> =
            (0..16).map(|k| h.submit_write(&k, 1_000.0 + k as f64, 500).unwrap()).collect();
        let reads: Vec<Ticket> =
            (0..16).map(|k| h.submit_read(&k, Constraint::Absolute(5.0), 500).unwrap()).collect();
        let keys: Vec<u64> = (0..16).collect();
        let agg = h.submit_aggregate(AggregateKind::Sum, &keys, Constraint::Exact, 500).unwrap();
        let m = h.submit_metrics().unwrap();
        // Tickets are monotone within the queue.
        let mut all: Vec<u64> = writes.iter().chain(&reads).map(|t| t.0).collect();
        all.push(agg.0);
        all.push(m.0);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        // Harvest out of order: the aggregate first, then whatever comes.
        match h.wait_ticket(agg).unwrap() {
            Outcome::Aggregate(out) => {
                assert!(out.answer.is_exact());
            }
            other => panic!("unexpected {other:?}"),
        }
        let mut harvested = 0;
        while let Some(completion) = h.wait() {
            completion.outcome.unwrap();
            harvested += 1;
        }
        assert_eq!(harvested, 16 + 16 + 1); // writes + reads + metrics
        assert_eq!(h.completions().outstanding(), 0);
        // Settled tickets cannot be redeemed twice.
        assert!(matches!(h.wait_ticket(agg), Err(RuntimeError::UnknownTicket(t)) if t == agg));
        runtime.shutdown().unwrap();
    }

    #[test]
    fn blocking_verbs_and_tickets_share_one_queue_without_stealing() {
        let runtime = Runtime::launch(fleet(2, 8)).unwrap();
        let h = runtime.handle();
        // A pending ticket survives interleaved blocking calls on the
        // same handle: wait_ticket targets its own completion only.
        let pending = h.submit_read(&3, Constraint::Absolute(1e9), 100).unwrap();
        for t in 1..=10u64 {
            h.write(&(t % 8), t as f64 * 3.0, t * 1_000).unwrap();
        }
        let keys: Vec<u64> = (0..8).collect();
        h.aggregate(AggregateKind::Max, &keys, Constraint::Relative(0.01), 20_000).unwrap();
        match h.wait_ticket(pending).unwrap() {
            Outcome::Read(r) => assert!(r.answer.contains(300.0)),
            other => panic!("unexpected {other:?}"),
        }
        // Handle clones are independent logical clients: their queues
        // and ticket sequences do not interfere.
        let other = h.clone();
        let t_other = other.submit_read(&0, Constraint::Exact, 30_000).unwrap();
        assert!(matches!(h.wait_ticket(t_other), Err(RuntimeError::UnknownTicket(_))));
        assert!(matches!(other.wait_ticket(t_other).unwrap(), Outcome::Read(_)));
        runtime.shutdown().unwrap();
    }

    #[test]
    fn relative_aggregate_rounds_interleave_with_unrelated_tickets() {
        // A tight-ρ multi-shard Relative aggregate needs escalation
        // rounds; submitting unrelated traffic after it and harvesting
        // everything must settle all tickets (the rounds advance from
        // the harvesting calls, not from a parked client thread).
        let runtime = Runtime::launch(fleet(4, 16)).unwrap();
        let h = runtime.handle();
        let keys: Vec<u64> = (0..16).collect();
        let agg =
            h.submit_aggregate(AggregateKind::Sum, &keys, Constraint::Relative(0.001), 0).unwrap();
        let unrelated: Vec<Ticket> =
            (0..16).map(|k| h.submit_read(&k, Constraint::Absolute(50.0), 0).unwrap()).collect();
        for t in unrelated {
            assert!(matches!(h.wait_ticket(t).unwrap(), Outcome::Read(_)));
        }
        match h.wait_ticket(agg).unwrap() {
            Outcome::Aggregate(out) => {
                assert!(!out.refreshed.is_empty(), "tight rho must escalate");
                let truth: f64 = (0..16).map(|k| 100.0 * k as f64).sum();
                assert!(out.answer.contains(truth));
            }
            other => panic!("unexpected {other:?}"),
        }
        runtime.shutdown().unwrap();
    }

    #[test]
    fn aggregate_ticket_settles_closed_when_shutdown_lands_between_rounds() {
        // A tight-ρ multi-shard aggregate needs an escalation round.
        // Shut the runtime down after round 1 has drained but before any
        // harvest advances the plan: issuing round 2 then fails on the
        // closed mailboxes, and the ticket must settle with Closed — not
        // vanish (the regression was wait_ticket reporting UnknownTicket
        // and wait() seeing an idle queue).
        let runtime = Runtime::launch(fleet(4, 16)).unwrap();
        let h = runtime.handle();
        let keys: Vec<u64> = (0..16).collect();
        let agg =
            h.submit_aggregate(AggregateKind::Sum, &keys, Constraint::Relative(0.0001), 0).unwrap();
        runtime.shutdown().unwrap(); // drains the probe legs, closes mailboxes
        match h.wait_ticket(agg) {
            Err(RuntimeError::Closed) => {}
            other => panic!("ticket lost across shutdown: {other:?}"),
        }
        assert_eq!(h.completions().outstanding(), 0);
    }

    #[test]
    fn poll_is_nonblocking_and_wait_drains_to_none() {
        let runtime = Runtime::launch(fleet(2, 4)).unwrap();
        let h = runtime.handle();
        assert!(h.wait().is_none(), "empty queue has nothing to wait for");
        let t = h.submit_write(&0, 5.0, 0).unwrap();
        // Poll until it settles (the actor runs concurrently).
        let completion = loop {
            if let Some(c) = h.poll() {
                break c;
            }
            std::thread::yield_now();
        };
        assert_eq!(completion.ticket, t);
        assert!(h.poll().is_none());
        runtime.shutdown().unwrap();
    }

    #[test]
    fn drain_ready_and_wait_timeout_serve_an_event_loop() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let runtime = Runtime::launch(fleet(2, 8)).unwrap();
        let h = runtime.handle();
        // An empty queue: drain_ready never parks, wait_timeout expires.
        assert!(h.completions().drain_ready(16).is_empty());
        let started = std::time::Instant::now();
        assert!(h.completions().wait_timeout(std::time::Duration::from_millis(5)).is_none());
        assert!(started.elapsed() >= std::time::Duration::from_millis(5));
        // The waker fires (outside the queue locks) when completions land.
        let wakes = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&wakes);
        h.completions().set_waker(Some(Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        })));
        let tickets: Vec<Ticket> =
            (0..8).map(|k| h.submit_write(&k, 7.0 * k as f64, 100).unwrap()).collect();
        // Harvest in bounded batches without ever blocking; a poller
        // woken by the hook would interleave exactly like this spin.
        let mut batch = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while batch.len() < tickets.len() {
            let n = h.completions().drain_ready_into(&mut batch, 3);
            assert!(n <= 3);
            assert!(std::time::Instant::now() < deadline, "completions never surfaced");
            std::thread::yield_now();
        }
        assert!(wakes.load(Ordering::SeqCst) >= 1, "waker must fire on readiness");
        let mut settled: Vec<u64> = batch.iter().map(|c| c.ticket.0).collect();
        settled.sort_unstable();
        let mut expected: Vec<u64> = tickets.iter().map(|t| t.0).collect();
        expected.sort_unstable();
        assert_eq!(settled, expected);
        // wait_timeout returns a completion promptly when one is pending,
        // even with nothing outstanding at call time on another clone.
        let t = h.submit_read(&0, Constraint::Absolute(5.0), 200).unwrap();
        let completion = h
            .completions()
            .wait_timeout(std::time::Duration::from_secs(10))
            .expect("pending ticket settles within the timeout");
        assert_eq!(completion.ticket, t);
        h.completions().set_waker(None);
        runtime.shutdown().unwrap();
    }

    #[test]
    fn tiny_mailboxes_exercise_backpressure_without_deadlock() {
        let cfg = RuntimeConfig { mailbox_capacity: 1, ..RuntimeConfig::default() };
        let runtime = Runtime::launch_with(fleet(2, 8), cfg).unwrap();
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let h = runtime.handle();
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        h.write_nowait(&(i % 8), (w * 1_000 + i) as f64, i).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let store = runtime.into_store().unwrap();
        assert_eq!(store.metrics().merged().totals().writes, 4 * 500);
    }

    #[test]
    fn subscriptions_stream_filtered_pushes_until_unsubscribed() {
        let runtime = Runtime::launch(fleet(2, 8)).unwrap();
        let h = runtime.handle();
        let (sub, snapshot) = h.subscribe(&3, PushFilter::Always, 0).unwrap();
        assert!(snapshot.contains(300.0)); // seeded cache: [295, 305]
                                           // An in-bound write leaves the cached interval untouched (no
                                           // refresh), and the registry dedups unchanged bits: no push.
        let w = h.write(&3, 304.0, 500).unwrap();
        assert!(!w.escaped());
        assert!(h.poll().is_none(), "unchanged interval must not push");
        // An escaping write triggers a value-initiated refresh, and the
        // actor queues the push before acking the write — so it is
        // already harvestable once the blocking write returns.
        let w = h.write(&3, 600.0, 1_000).unwrap();
        assert!(w.escaped());
        let completion = h.poll().expect("push queued before write ack");
        assert_eq!(completion.ticket, sub);
        match completion.outcome.unwrap() {
            Outcome::Push(event) => {
                assert_eq!(event.key, 3);
                assert_eq!(event.reason, PushReason::Changed);
                assert!(event.interval.contains(600.0));
            }
            other => panic!("unexpected {other:?}"),
        }
        let stats = h.push_stats().unwrap();
        assert_eq!(stats.subscribers, 1);
        assert_eq!(stats.watched_keys, 1);
        // Close the stream: the ack says it existed, the subscription
        // ticket settles with SubscriptionEnded, and a second
        // unsubscribe of the dead ticket is rejected locally.
        assert!(h.unsubscribe(sub).unwrap());
        match h.wait_ticket(sub).unwrap() {
            Outcome::SubscriptionEnded => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            matches!(h.submit_unsubscribe(sub), Err(RuntimeError::UnknownTicket(t)) if t == sub)
        );
        assert_eq!(h.push_stats().unwrap().subscribers, 0);
        runtime.shutdown().unwrap();
    }

    #[test]
    fn violates_filter_only_pushes_constraint_escapes() {
        let runtime = Runtime::launch(fleet(1, 4)).unwrap();
        let h = runtime.handle();
        // Only care when the interval gets wider than 12.
        let (sub, _) =
            h.subscribe(&2, PushFilter::Violates(Constraint::Absolute(12.0)), 0).unwrap();
        let w = h.write(&2, 204.0, 100).unwrap(); // inside [195, 205]: QR shrinks
        assert!(!w.escaped());
        assert!(h.poll().is_none(), "narrowing stays within the constraint");
        let w = h.write(&2, 500.0, 200).unwrap(); // escape: VR recenters + grows
        assert!(w.escaped());
        // Growth alone need not violate 12.0; force it wide via repeated escapes.
        let mut pushed = h.poll().is_some();
        let mut value = 500.0;
        let mut now = 300;
        while !pushed {
            value = -value;
            assert!(h.write(&2, value, now).unwrap().escaped());
            pushed = h.poll().is_some();
            now += 100;
        }
        h.unsubscribe(sub).unwrap();
        runtime.shutdown().unwrap();
    }

    #[test]
    fn lapsed_leases_widen_to_fallback_and_push_exactly_once() {
        let runtime = Runtime::launch(fleet(2, 8)).unwrap();
        let h = runtime.handle();
        let (sub, snapshot) = h.subscribe(&5, PushFilter::Always, 0).unwrap();
        assert!((snapshot.width() - 10.0).abs() < 1e-12);
        let cfg = LeaseConfig { ttl_ms: 1_000, fallback: FallbackWidth::Fixed(40.0) };
        h.lease(&5, cfg, 0).unwrap();
        assert_eq!(h.push_stats().unwrap().leases, 1);
        // Within TTL: nothing lapses.
        let report = h.advance_time(900).unwrap();
        assert_eq!(report.expired, 0);
        assert!(h.poll().is_none());
        // Past TTL: the interval widens to the fallback, one push.
        let report = h.advance_time(2_000).unwrap();
        assert_eq!(report.expired, 1);
        let completion = h.poll().expect("lease lapse pushes");
        assert_eq!(completion.ticket, sub);
        match completion.outcome.unwrap() {
            Outcome::Push(event) => {
                assert_eq!(event.reason, PushReason::LeaseExpired);
                assert!((event.interval.width() - 40.0).abs() < 1e-12);
                assert!(event.interval.contains(500.0));
            }
            other => panic!("unexpected {other:?}"),
        }
        // The lapse fired once; further advances push nothing new.
        let report = h.advance_time(10_000).unwrap();
        assert_eq!(report.expired, 0);
        assert!(h.poll().is_none());
        // A source contact that escapes the widened interval refreshes
        // (recentring it) and pushes the post-write interval.
        assert!(h.write(&5, 600.0, 11_000).unwrap().escaped());
        assert!(h.poll().is_some());
        // Release: the next lapse horizon never fires.
        assert!(h.release_lease(&5, 11_000).unwrap());
        assert_eq!(h.push_stats().unwrap().leases, 0);
        assert_eq!(h.advance_time(100_000).unwrap().expired, 0);
        h.unsubscribe(sub).unwrap();
        runtime.shutdown().unwrap();
    }

    #[test]
    fn invalid_lease_configs_and_unknown_keys_rejected_before_enqueue() {
        let runtime = Runtime::launch(fleet(1, 2)).unwrap();
        let h = runtime.handle();
        let bad = LeaseConfig { ttl_ms: 0, fallback: FallbackWidth::Unbounded };
        assert!(matches!(
            h.submit_lease(&0, bad, 0),
            Err(RuntimeError::Store(StoreError::Config(_)))
        ));
        let cfg = LeaseConfig { ttl_ms: 100, fallback: FallbackWidth::Factor(2.0) };
        assert!(matches!(
            h.submit_lease(&99, cfg, 0),
            Err(RuntimeError::Store(StoreError::UnknownKey))
        ));
        assert!(matches!(
            h.submit_subscribe(&99, PushFilter::Always, 0),
            Err(RuntimeError::Store(StoreError::UnknownKey))
        ));
        // Releasing a never-granted lease is a clean false.
        assert!(!h.release_lease(&0, 0).unwrap());
        runtime.shutdown().unwrap();
    }

    #[test]
    fn runtime_shutdown_ends_live_subscriptions() {
        let runtime = Runtime::launch(fleet(2, 4)).unwrap();
        let h = runtime.handle();
        let (sub, _) = h.subscribe(&1, PushFilter::Always, 0).unwrap();
        runtime.shutdown().unwrap();
        // The actor dropped its registry on drain; the streaming ticket
        // settles with SubscriptionEnded instead of stranding a waiter.
        match h.wait_ticket(sub).unwrap() {
            Outcome::SubscriptionEnded => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(h.completions().outstanding(), 0);
    }

    #[test]
    fn wall_clock_ticker_expires_leases_without_traffic() {
        let cfg = RuntimeConfig {
            tick_interval: Some(std::time::Duration::from_millis(5)),
            ..RuntimeConfig::default()
        };
        let runtime = Runtime::launch_with(fleet(1, 2), cfg).unwrap();
        let h = runtime.handle();
        let (sub, _) = h.subscribe(&0, PushFilter::Always, 0).unwrap();
        let cfg = LeaseConfig { ttl_ms: 20, fallback: FallbackWidth::Fixed(99.0) };
        h.lease(&0, cfg, 0).unwrap();
        // No traffic at all: the tick thread's wall clock must lapse the
        // lease and deliver the widening push.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let event = loop {
            if let Some(completion) = h.poll() {
                match completion.outcome.unwrap() {
                    Outcome::Push(event) => break event,
                    other => panic!("unexpected {other:?}"),
                }
            }
            assert!(std::time::Instant::now() < deadline, "ticker never fired");
            std::thread::sleep(std::time::Duration::from_millis(1));
        };
        assert_eq!(event.reason, PushReason::LeaseExpired);
        assert!((event.interval.width() - 99.0).abs() < 1e-12);
        h.unsubscribe(sub).unwrap();
        runtime.shutdown().unwrap();
    }

    /// An empty store with the fleet's tuning, for elastic growth.
    fn empty_store() -> PrecisionStore<u64> {
        StoreBuilder::new().initial_width(InitialWidth::Fixed(10.0)).build().unwrap()
    }

    #[test]
    fn add_shard_live_migrates_keys_and_converged_widths() {
        // Two identical fleets take identical traffic; one reshards
        // mid-stream. Every key's final value AND adaptive width must be
        // bit-identical — migration carries protocol state, not just data.
        let reference = Runtime::launch(fleet(2, 32)).unwrap();
        let mut elastic = Runtime::launch(fleet(2, 32)).unwrap();
        let rh = reference.handle();
        let eh = elastic.handle();
        let drive = |h: &RuntimeHandle<u64>, t: u64| {
            for k in 0..32u64 {
                let v = 100.0 * k as f64 + if t % 3 == 0 { 400.0 } else { t as f64 };
                h.write(&k, v, t * 1_000).unwrap();
            }
        };
        for t in 1..=20u64 {
            drive(&rh, t);
            drive(&eh, t);
        }
        let new_id = elastic.add_shard(empty_store()).unwrap();
        assert_eq!(elastic.shard_count(), 3);
        assert_eq!(elastic.shard_ids(), vec![0, 1, new_id]);
        for t in 21..=40u64 {
            drive(&rh, t);
            drive(&eh, t);
        }
        let ref_store = reference.into_store().unwrap();
        let el_store = elastic.into_store().unwrap();
        let mut moved = 0;
        for k in 0..32u64 {
            assert_eq!(el_store.value(&k), ref_store.value(&k), "key {k}");
            assert_eq!(el_store.internal_width(&k), ref_store.internal_width(&k), "key {k}");
            if el_store.shard_of(&k) == new_id as usize {
                moved += 1;
            }
        }
        assert!(moved > 0, "the new shard must have taken ownership of some keys");
    }

    #[test]
    fn remove_shard_rehomes_residents_and_returns_drained_store() {
        let mut runtime = Runtime::launch(fleet(3, 24)).unwrap();
        let h = runtime.handle();
        for k in 0..24u64 {
            h.write(&k, 5.0 * k as f64, 1_000).unwrap();
        }
        let drained = runtime.remove_shard(1).unwrap();
        assert!(drained.is_empty(), "every resident must have been rehomed");
        assert_eq!(runtime.shard_count(), 2);
        assert_eq!(runtime.shard_ids(), vec![0, 2]);
        for k in 0..24u64 {
            let r = h.read(&k, Constraint::Exact, 2_000).unwrap();
            assert!(r.answer.contains(5.0 * k as f64), "key {k} lost its last write");
        }
        // Shrink to one shard; the last one is irremovable, as is an id
        // that is not on the ring.
        runtime.remove_shard(0).unwrap();
        assert!(matches!(runtime.remove_shard(2), Err(RuntimeError::Store(StoreError::Config(_)))));
        assert!(matches!(
            runtime.remove_shard(99),
            Err(RuntimeError::Store(StoreError::Config(_)))
        ));
        for k in 0..24u64 {
            assert!(h.read(&k, Constraint::Exact, 3_000).is_ok());
        }
        runtime.shutdown().unwrap();
    }

    #[test]
    fn add_shard_rejects_nonempty_store() {
        let mut runtime = Runtime::launch(fleet(2, 8)).unwrap();
        let populated = StoreBuilder::new().source(999u64, 1.0).build().unwrap();
        assert!(matches!(
            runtime.add_shard(populated),
            Err(RuntimeError::Store(StoreError::Config(_)))
        ));
        assert_eq!(runtime.shard_count(), 2);
    }

    #[test]
    fn subscriptions_and_leases_survive_migration() {
        let mut runtime = Runtime::launch(fleet(1, 16)).unwrap();
        let h = runtime.handle();
        // Watch and lease every key, then grow the ring so some keys
        // migrate off shard 0 mid-subscription.
        let subs: Vec<(u64, Ticket)> =
            (0..16u64).map(|k| (k, h.subscribe(&k, PushFilter::Always, 0).unwrap().0)).collect();
        let cfg = LeaseConfig { ttl_ms: 5_000, fallback: FallbackWidth::Fixed(77.0) };
        for k in 0..16u64 {
            h.lease(&k, cfg, 0).unwrap();
        }
        let new_id = runtime.add_shard(empty_store()).unwrap();
        let migrated: Vec<u64> = (0..16u64).filter(|k| h.shard_of(k) == new_id as usize).collect();
        assert!(!migrated.is_empty(), "growth must remap some watched keys");
        // Push-side occupancy moved with the keys, not dropped.
        let stats = h.push_stats().unwrap();
        assert_eq!(stats.subscribers, 16);
        assert_eq!(stats.watched_keys, 16);
        assert_eq!(stats.leases, 16);
        // A migrated key's stream keeps flowing from its new shard.
        let k = migrated[0];
        let sub = subs.iter().find(|(key, _)| *key == k).unwrap().1;
        assert!(h.write(&k, 100.0 * k as f64 + 600.0, 1_000).unwrap().escaped());
        let completion = h.poll().expect("push queued before write ack");
        assert_eq!(completion.ticket, sub);
        match completion.outcome.unwrap() {
            Outcome::Push(event) => {
                assert_eq!(event.key, k);
                assert_eq!(event.reason, PushReason::Changed);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Its lease migrated with its absolute deadline: renewed by the
        // write above at t=1000, it lapses past 6000 and pushes once.
        let report = h.advance_time(10_000).unwrap();
        assert_eq!(report.expired, 16);
        let mut lease_pushes = 0;
        while let Some(completion) = h.poll() {
            match completion.outcome.unwrap() {
                Outcome::Push(event) => {
                    if event.reason == PushReason::LeaseExpired {
                        lease_pushes += 1;
                        if event.key == k {
                            assert!((event.interval.width() - 77.0).abs() < 1e-12);
                        }
                    }
                }
                Outcome::TimeAdvanced(_) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(lease_pushes, 16, "every lease lapses exactly once, wherever its key lives");
        // Unsubscribing a migrated stream routes by key and finds it.
        assert!(h.unsubscribe(sub).unwrap());
        match h.wait_ticket(sub).unwrap() {
            Outcome::SubscriptionEnded => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(h.push_stats().unwrap().subscribers, 15);
        runtime.shutdown().unwrap();
    }

    #[test]
    fn reads_racing_reshards_block_or_forward_never_tear() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        // Four reader threads hammer exact reads while the main thread
        // grows and shrinks the ring. Every read must land on whichever
        // shard owns the key when the topology guard admits it — never an
        // UnknownKey from a half-flipped ring, never a stale value.
        let mut runtime = Runtime::launch(fleet(2, 32)).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let h = runtime.handle();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut reads = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for k in 0..32u64 {
                            let r = h.read(&k, Constraint::Exact, 1_000).unwrap();
                            assert!(r.answer.contains(100.0 * k as f64));
                            reads += 1;
                        }
                    }
                    reads
                })
            })
            .collect();
        let mut added = Vec::new();
        for _ in 0..3 {
            added.push(runtime.add_shard(empty_store()).unwrap());
        }
        runtime.remove_shard(0).unwrap();
        runtime.remove_shard(added[0]).unwrap();
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            assert!(reader.join().unwrap() > 0);
        }
        assert_eq!(runtime.shard_count(), 3);
        // The fleet still answers for every key after the churn.
        let store = runtime.into_store().unwrap();
        for k in 0..32u64 {
            assert_eq!(store.value(&k), Some(100.0 * k as f64));
        }
    }
}
