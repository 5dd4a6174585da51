//! The actor-per-shard runtime: launch, handle, actors, shutdown.

use std::collections::HashSet;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use apcache_core::{Interval, TimeMs};
use apcache_push::{LeaseConfig, PushFilter, PushReport};
use apcache_queries::AggregateKind;
use apcache_shard::plan::empty_aggregate;
use apcache_shard::{ShardRouter, ShardedStore};
use apcache_store::{
    AggregateOutcome, Constraint, PrecisionStore, ReadResult, StoreError, StoreMetrics,
    WriteOutcome,
};

use apcache_telemetry::{Exposition, TraceEvent};

use crate::actor::ShardActor;
use crate::completion::{Completion, CompletionQueue, Outcome, Ticket};
use crate::error::RuntimeError;
use crate::mailbox::{mailbox, MailboxSender};
use crate::oneshot::reply_slot;
use crate::request::Request;
use crate::telemetry::RuntimeTelemetry;

/// Tuning for [`Runtime::launch_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Mailbox capacity per shard actor: how many requests may queue
    /// before senders park (the backpressure bound). Values below 1 are
    /// treated as 1.
    pub mailbox_capacity: usize,
    /// When `Some`, the runtime spawns a wall-clock tick thread that
    /// sends a fire-and-forget [`Request::Tick`] to every shard at this
    /// interval, so leases lapse even on idle shards. `None` (the
    /// default) leaves the push-side clock entirely to served traffic
    /// and explicit [`advance_time`](RuntimeHandle::advance_time) calls —
    /// the deterministic mode the conformance suites rely on.
    pub tick_interval: Option<Duration>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig { mailbox_capacity: DEFAULT_MAILBOX_CAPACITY, tick_interval: None }
    }
}

/// Default per-shard mailbox capacity: deep enough to keep an actor busy
/// under bursts, shallow enough that a stalled shard pushes back on its
/// producers within microseconds of work.
pub const DEFAULT_MAILBOX_CAPACITY: usize = 1_024;

/// The deployment shape at one instant: the ring, the ring id of each
/// mailbox slot, and the mailbox senders themselves.
///
/// Lives behind the [`Shared`] `RwLock`: every submission routes and
/// enqueues under a *read* guard, while elastic resharding
/// ([`Runtime::add_shard`] / [`Runtime::remove_shard`]) holds the *write*
/// half across export → install → ring flip. Requests that race a
/// migration therefore block on the guard and route against the new ring
/// when it lifts — block-or-forward, never a torn read. The actors
/// themselves never touch this lock, so a parked submitter (full
/// mailbox, held read guard) cannot deadlock the drain.
pub(crate) struct Topology<K> {
    pub(crate) router: ShardRouter,
    /// `ids[slot]` is the ring id served by `senders[slot]`. Dense at
    /// launch; arbitrary after elastic add/remove (ids never recycle).
    pub(crate) ids: Vec<u32>,
    pub(crate) senders: Vec<MailboxSender<Request<K>>>,
}

impl<K: Hash + Ord + Clone> Topology<K> {
    /// The mailbox slot serving ring id `id`, if it is on the ring.
    pub(crate) fn slot_of_id(&self, id: u32) -> Option<usize> {
        self.ids.iter().position(|&x| x == id)
    }

    /// The mailbox slot owning `key` under the current ring.
    pub(crate) fn slot_for_key(&self, key: &K) -> usize {
        self.slot_of_id(self.router.route(key)).expect("routed id is on the ring")
    }
}

/// What the handles share: the elastic topology and the key directory
/// (mutated only by migration through the handle-level import/export
/// surface; the runtime itself serves a fixed population registered at
/// build time — elastic key *insertion* is a follow-on).
pub(crate) struct Shared<K> {
    pub(crate) topology: RwLock<Topology<K>>,
    pub(crate) keys: RwLock<HashSet<K>>,
    /// The deployment's metrics registry + trace ring, shared by every
    /// handle (and, through them, the wire layer above).
    pub(crate) telemetry: Arc<RuntimeTelemetry>,
}

/// The owner of the shard actors: spawns them on launch, joins them on
/// shutdown. Cloneable [`RuntimeHandle`]s (from
/// [`handle`](Runtime::handle)) do the actual serving from any thread.
pub struct Runtime<K> {
    shared: Arc<Shared<K>>,
    /// `(ring id, join handle)` per live actor, so elastic removal can
    /// join exactly the retired shard's thread.
    threads: Vec<(u32, thread::JoinHandle<PrecisionStore<K>>)>,
    ticker: Option<TickThread>,
    cfg: RuntimeConfig,
}

/// The optional wall-clock tick thread (see
/// [`RuntimeConfig::tick_interval`]).
struct TickThread {
    stop: Arc<AtomicBool>,
    thread: thread::JoinHandle<()>,
}

impl<K: Hash + Ord + Clone + Send + Sync + 'static> Runtime<K> {
    /// Launch one actor thread per shard of `store`, with default tuning.
    pub fn launch(store: ShardedStore<K>) -> Result<Self, RuntimeError> {
        Runtime::launch_with(store, RuntimeConfig::default())
    }

    /// Launch one actor thread per shard of `store`. Each actor takes
    /// ownership of its `PrecisionStore` — the store stays single-threaded
    /// and lock-free; all concurrency lives in the mailboxes.
    pub fn launch_with(store: ShardedStore<K>, cfg: RuntimeConfig) -> Result<Self, RuntimeError> {
        let keys: HashSet<K> = store.keys().cloned().collect();
        let (router, shards) = store.into_parts();
        let mut senders: Vec<MailboxSender<Request<K>>> = Vec::with_capacity(shards.len());
        let mut threads: Vec<(u32, thread::JoinHandle<PrecisionStore<K>>)> =
            Vec::with_capacity(shards.len());
        for (i, shard) in shards.into_iter().enumerate() {
            let (tx, rx) = mailbox::<Request<K>>(cfg.mailbox_capacity);
            let spawned =
                thread::Builder::new().name(format!("apcache-shard-{i}")).spawn(move || {
                    let mut actor = ShardActor::new(shard);
                    while let Some(request) = rx.recv() {
                        actor.serve(request);
                    }
                    actor.into_store()
                });
            let thread = match spawned {
                Ok(thread) => thread,
                Err(e) => {
                    // Unwind a partial launch: closing the mailboxes ends
                    // the already-running actors (recv returns None), so
                    // no thread is left parked forever.
                    for sender in &senders {
                        sender.close();
                    }
                    for (_, thread) in threads {
                        let _ = thread.join();
                    }
                    return Err(RuntimeError::Spawn(e.to_string()));
                }
            };
            senders.push(tx);
            threads.push((i as u32, thread));
        }
        let ids: Vec<u32> = (0..senders.len() as u32).collect();
        let shared = Arc::new(Shared {
            topology: RwLock::new(Topology { router, ids, senders }),
            keys: RwLock::new(keys),
            telemetry: Arc::new(RuntimeTelemetry::new()),
        });
        let ticker = match cfg.tick_interval {
            None => None,
            Some(interval) => match spawn_ticker(&shared, interval) {
                Ok(ticker) => Some(ticker),
                Err(e) => {
                    for sender in &shared.topology.read().expect("topology lock poisoned").senders {
                        sender.close();
                    }
                    for (_, thread) in threads {
                        let _ = thread.join();
                    }
                    return Err(e);
                }
            },
        };
        Ok(Runtime { shared, threads, ticker, cfg })
    }

    /// A serving handle with its own fresh completion queue (share a
    /// handle's *clone* per client thread; each clone is an independent
    /// logical client).
    pub fn handle(&self) -> RuntimeHandle<K> {
        let queue = CompletionQueue::new(Arc::clone(&self.shared));
        RuntimeHandle { shared: Arc::clone(&self.shared), queue }
    }

    /// Number of shard actors.
    pub fn shard_count(&self) -> usize {
        self.shared.topology.read().expect("topology lock poisoned").senders.len()
    }

    /// The ring ids of the live shards, in mailbox-slot order.
    pub fn shard_ids(&self) -> Vec<u32> {
        self.shared.topology.read().expect("topology lock poisoned").ids.clone()
    }

    /// Grow the deployment by one shard actor serving `store` (an empty
    /// store built with the same tuning as the fleet), **live-migrating**
    /// every resident key the new ring reassigns to it.
    ///
    /// The migration runs under the topology write lock: submissions
    /// block, each source shard's mailbox drains up to the export point
    /// (mailbox FIFO is the barrier), and the detached state — values,
    /// adaptive widths, vote histories, cached intervals, per-key
    /// metrics, TTL leases with absolute deadlines, and live subscription
    /// watches with their dedup bits — is installed on the new actor
    /// before the ring flips. A remapped key resumes the paper's protocol
    /// on its new shard exactly where it left off, and its subscribers'
    /// streams continue uninterrupted. Returns the new shard's ring id.
    pub fn add_shard(&mut self, store: PrecisionStore<K>) -> Result<u32, RuntimeError> {
        if !store.is_empty() {
            return Err(RuntimeError::Store(StoreError::Config(
                "add_shard requires an empty store: resident keys would not be on the ring".into(),
            )));
        }
        let mut topo = self.shared.topology.write().expect("topology lock poisoned");
        let mut router = topo.router.clone();
        let new_id = router.add_shard();
        let (tx, rx) = mailbox::<Request<K>>(self.cfg.mailbox_capacity);
        let thread = thread::Builder::new()
            .name(format!("apcache-shard-{new_id}"))
            .spawn(move || {
                let mut actor = ShardActor::new(store);
                while let Some(request) = rx.recv() {
                    actor.serve(request);
                }
                actor.into_store()
            })
            .map_err(|e| RuntimeError::Spawn(e.to_string()))?;
        // Which resident keys does the new ring reassign? Group them by
        // the slot that currently owns them, in sorted order so migration
        // batches are deterministic.
        let keys = self.shared.keys.read().expect("key directory lock poisoned");
        let mut moving: Vec<&K> = keys.iter().filter(|k| router.route(k) == new_id).collect();
        moving.sort();
        let mut per_slot: Vec<Vec<K>> = vec![Vec::new(); topo.senders.len()];
        for key in moving {
            per_slot[topo.slot_for_key(key)].push(key.clone());
        }
        drop(keys);
        for (slot, batch) in per_slot.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let (reply, bundle) = reply_slot();
            topo.senders[slot]
                .send(Request::Export { keys: batch, reply })
                .map_err(|_| RuntimeError::Closed)?;
            let bundle =
                bundle.recv().map_err(|_| RuntimeError::ActorGone)?.map_err(RuntimeError::Store)?;
            let (ack, done) = reply_slot();
            tx.send(Request::Install { bundle, ack }).map_err(|_| RuntimeError::Closed)?;
            done.recv().map_err(|_| RuntimeError::ActorGone)?.map_err(RuntimeError::Store)?;
        }
        topo.router = router;
        topo.ids.push(new_id);
        topo.senders.push(tx);
        drop(topo);
        self.threads.push((new_id, thread));
        Ok(new_id)
    }

    /// Shrink the deployment by retiring the shard with ring id `id`:
    /// under the topology write lock, its mailbox drains (FIFO barrier),
    /// every resident key is live-migrated — full protocol plus push-side
    /// state, as in [`add_shard`](Runtime::add_shard) — to its new owner
    /// under the post-removal ring, the ring flips, and the retired actor
    /// is joined. Returns its (drained, empty) store. Errors if `id` is
    /// not on the ring or is the last shard.
    pub fn remove_shard(&mut self, id: u32) -> Result<PrecisionStore<K>, RuntimeError> {
        let mut topo = self.shared.topology.write().expect("topology lock poisoned");
        let slot = topo.slot_of_id(id).ok_or_else(|| {
            RuntimeError::Store(StoreError::Config(format!("shard {id} is not on the ring")))
        })?;
        let mut router = topo.router.clone();
        router.remove_shard(id).map_err(RuntimeError::Store)?;
        // The retiring shard's residents, grouped by new owner (sorted
        // for deterministic batches).
        let keys = self.shared.keys.read().expect("key directory lock poisoned");
        let mut resident: Vec<&K> = keys.iter().filter(|k| topo.router.route(k) == id).collect();
        resident.sort();
        let mut groups: Vec<(u32, Vec<K>)> = Vec::new();
        for key in resident {
            let owner = router.route(key);
            match groups.iter_mut().find(|(o, _)| *o == owner) {
                Some((_, batch)) => batch.push(key.clone()),
                None => groups.push((owner, vec![key.clone()])),
            }
        }
        drop(keys);
        for (owner, batch) in groups {
            let (reply, bundle) = reply_slot();
            topo.senders[slot]
                .send(Request::Export { keys: batch, reply })
                .map_err(|_| RuntimeError::Closed)?;
            let bundle =
                bundle.recv().map_err(|_| RuntimeError::ActorGone)?.map_err(RuntimeError::Store)?;
            let target = topo.slot_of_id(owner).expect("owner is on the post-removal ring");
            let (ack, done) = reply_slot();
            topo.senders[target]
                .send(Request::Install { bundle, ack })
                .map_err(|_| RuntimeError::Closed)?;
            done.recv().map_err(|_| RuntimeError::ActorGone)?.map_err(RuntimeError::Store)?;
        }
        topo.router = router;
        topo.ids.remove(slot);
        let sender = topo.senders.remove(slot);
        sender.close();
        drop(topo);
        let pos = self
            .threads
            .iter()
            .position(|(tid, _)| *tid == id)
            .expect("retired shard's actor thread is tracked");
        let (_, thread) = self.threads.remove(pos);
        thread.join().map_err(|_| RuntimeError::ActorGone)
    }

    /// Drain and stop the actors: every request enqueued before this call
    /// is fully processed (acknowledged per shard), further sends fail
    /// with [`RuntimeError::Closed`], and the actor threads are joined.
    pub fn shutdown(mut self) -> Result<(), RuntimeError> {
        self.finish().map(|_| ())
    }

    /// Shut down (draining, as [`shutdown`](Runtime::shutdown)) and
    /// reassemble the synchronous [`ShardedStore`] from the actors'
    /// stores — the runtime's exact final state, e.g. for conformance
    /// checks or for relaunching with a different topology. After elastic
    /// resharding the reassembly keeps the live ring (ids are preserved,
    /// not renumbered), so routing stays bit-identical.
    pub fn into_store(mut self) -> Result<ShardedStore<K>, RuntimeError> {
        let parts = self.finish()?;
        let router = self.shared.topology.read().expect("topology lock poisoned").router.clone();
        ShardedStore::from_routed_parts(router, parts).map_err(RuntimeError::Store)
    }

    /// Common shutdown path: stop the tick thread, mark the end of each
    /// mailbox, wait for the drain acknowledgements, join the actors.
    /// Returns `(ring id, store)` per shard.
    fn finish(&mut self) -> Result<Vec<(u32, PrecisionStore<K>)>, RuntimeError> {
        self.stop_ticker();
        {
            let topo = self.shared.topology.read().expect("topology lock poisoned");
            let mut acks = Vec::with_capacity(topo.senders.len());
            for sender in &topo.senders {
                let (tx, rx) = reply_slot();
                // A closed mailbox means this shard already finished.
                if sender.send(Request::Shutdown { ack: tx }).is_ok() {
                    acks.push(rx);
                }
                sender.close();
            }
            for ack in acks {
                // ReplyDropped here means the actor died before draining;
                // the join below surfaces it.
                let _ = ack.recv();
            }
        }
        let mut shards = Vec::with_capacity(self.threads.len());
        for (id, thread) in self.threads.drain(..) {
            shards.push((id, thread.join().map_err(|_| RuntimeError::ActorGone)?));
        }
        Ok(shards)
    }
}

impl<K> Runtime<K> {
    /// Stop and join the wall-clock tick thread, if one is running.
    /// Idempotent; called before the mailboxes close so the ticker never
    /// races a shutdown with doomed sends.
    fn stop_ticker(&mut self) {
        if let Some(ticker) = self.ticker.take() {
            ticker.stop.store(true, Ordering::Release);
            ticker.thread.thread().unpark();
            let _ = ticker.thread.join();
        }
    }
}

impl<K> Drop for Runtime<K> {
    fn drop(&mut self) {
        // Explicit shutdown()/into_store() already drained `threads`; an
        // abandoned runtime still closes its mailboxes (draining them) and
        // joins, so actor threads never outlive the owner.
        self.stop_ticker();
        for sender in &self.shared.topology.read().expect("topology lock poisoned").senders {
            sender.close();
        }
        for (_, thread) in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Spawn the wall-clock tick thread: every `interval` it sends a
/// fire-and-forget [`Request::Tick`] stamped with the milliseconds
/// elapsed since launch to every shard, exiting when the runtime stops it
/// (or the mailboxes close).
fn spawn_ticker<K: Hash + Ord + Clone + Send + Sync + 'static>(
    shared: &Arc<Shared<K>>,
    interval: Duration,
) -> Result<TickThread, RuntimeError> {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let shared = Arc::clone(shared);
    let thread = thread::Builder::new()
        .name("apcache-push-tick".into())
        .spawn(move || {
            let origin = Instant::now();
            loop {
                thread::park_timeout(interval);
                if flag.load(Ordering::Acquire) {
                    return;
                }
                let now = origin.elapsed().as_millis() as TimeMs;
                // Fresh topology read per tick: shards added after launch
                // get ticks too, and a tick never races a reshard.
                let topo = shared.topology.read().expect("topology lock poisoned");
                for sender in &topo.senders {
                    if sender.send(Request::Tick { now: Some(now), reply: None }).is_err() {
                        return; // mailboxes closed: shutdown underway
                    }
                }
            }
        })
        .map_err(|e| RuntimeError::Spawn(e.to_string()))?;
    Ok(TickThread { stop, thread })
}

/// Deployment metrics gathered from the actors: per-shard snapshots plus
/// their merged rollup (owned clones — unlike
/// [`ShardedMetrics`](apcache_shard::ShardedMetrics), the live counters
/// stay on the actor threads).
#[derive(Debug, Clone)]
pub struct RuntimeMetrics<K> {
    per_shard: Vec<StoreMetrics<K>>,
    merged: StoreMetrics<K>,
}

impl<K: Ord + Clone> RuntimeMetrics<K> {
    /// Assemble from per-shard snapshots in shard-id order, computing the
    /// merged rollup.
    pub(crate) fn from_shards(per_shard: Vec<StoreMetrics<K>>) -> Self {
        let mut merged = StoreMetrics::new();
        for m in &per_shard {
            merged.merge(m);
        }
        RuntimeMetrics { per_shard, merged }
    }

    /// The merged rollup: every counter summed across shards.
    pub fn merged(&self) -> &StoreMetrics<K> {
        &self.merged
    }

    /// Per-shard snapshots, indexed by shard id.
    pub fn per_shard(&self) -> &[StoreMetrics<K>] {
        &self.per_shard
    }

    /// Metrics of one shard.
    pub fn shard(&self, shard: usize) -> Option<&StoreMetrics<K>> {
        self.per_shard.get(shard)
    }
}

/// A cheaply-cloneable client of the runtime.
///
/// Every verb exists in two forms:
///
/// * **`submit_*`** — non-blocking: route the request to the owning
///   shard's mailbox (parking only on mailbox admission, the
///   backpressure toll) and return a [`Ticket`]. Outcomes are harvested
///   out of order from the handle's [`CompletionQueue`] via
///   [`poll`](RuntimeHandle::poll) / [`wait`](RuntimeHandle::wait) /
///   [`wait_ticket`](RuntimeHandle::wait_ticket) — so one thread can
///   multiplex arbitrarily many logical requests.
/// * **blocking** — `submit` + `wait_ticket`, nothing more; the
///   convenience form for call-reply code.
///
/// Cloning a handle creates an independent logical client with its own
/// completion queue and ticket sequence (tickets are queue-scoped).
pub struct RuntimeHandle<K> {
    pub(crate) shared: Arc<Shared<K>>,
    pub(crate) queue: CompletionQueue<K>,
}

impl<K: Hash + Ord + Clone + Send + Sync + 'static> Clone for RuntimeHandle<K> {
    fn clone(&self) -> Self {
        RuntimeHandle {
            shared: Arc::clone(&self.shared),
            queue: CompletionQueue::new(Arc::clone(&self.shared)),
        }
    }
}

impl<K: Hash + Ord + Clone + Send + Sync + 'static> RuntimeHandle<K> {
    /// Number of shard actors (at this instant — elastic resharding may
    /// change it).
    pub fn shard_count(&self) -> usize {
        self.shared.topology.read().expect("topology lock poisoned").senders.len()
    }

    /// The per-shard mailbox bound this runtime was launched with — the
    /// depth at which producers park. Serving doors size their own
    /// submit budgets below it so a saturated socket backpressures into
    /// its read buffer instead of blocking the submitting thread.
    pub fn mailbox_capacity(&self) -> usize {
        self.shared
            .topology
            .read()
            .expect("topology lock poisoned")
            .senders
            .iter()
            .map(MailboxSender::capacity)
            .min()
            .unwrap_or(DEFAULT_MAILBOX_CAPACITY)
    }

    /// The *ring id* of the shard that owns `key` under the current ring.
    /// Advisory after elastic resharding: the owner may change on the
    /// next flip (the submission paths route atomically; this accessor is
    /// for observability).
    pub fn shard_of(&self, key: &K) -> usize {
        self.shared.topology.read().expect("topology lock poisoned").router.route(key) as usize
    }

    /// Whether `key` is a registered source.
    pub fn contains_key(&self, key: &K) -> bool {
        self.shared.keys.read().expect("key directory lock poisoned").contains(key)
    }

    /// Number of registered sources.
    pub fn len(&self) -> usize {
        self.shared.keys.read().expect("key directory lock poisoned").len()
    }

    /// Whether the runtime serves no sources.
    pub fn is_empty(&self) -> bool {
        self.shared.keys.read().expect("key directory lock poisoned").is_empty()
    }

    /// This handle's completion queue — clone it to hand the harvesting
    /// side to a dedicated reactor thread while others submit.
    pub fn completions(&self) -> &CompletionQueue<K> {
        &self.queue
    }

    /// Harvest the next finished completion without blocking (see
    /// [`CompletionQueue::poll`]).
    pub fn poll(&self) -> Option<Completion<K>> {
        self.queue.poll()
    }

    /// Block for the next completion, any ticket; `None` when nothing is
    /// outstanding (see [`CompletionQueue::wait`]).
    pub fn wait(&self) -> Option<Completion<K>> {
        self.queue.wait()
    }

    /// Block for one specific ticket's outcome (see
    /// [`CompletionQueue::wait_ticket`]).
    pub fn wait_ticket(&self, ticket: Ticket) -> Result<Outcome<K>, RuntimeError> {
        self.queue.wait_ticket(ticket)
    }

    /// Reject unregistered keys before any message is sent (mirrors
    /// `ShardedStore`, which never charges a shard for an unroutable
    /// request). Routing itself happens later, inside the queue, under
    /// the topology guard — never here, where a reshard could invalidate
    /// it between resolution and enqueue.
    fn ensure_key(&self, key: &K) -> Result<(), RuntimeError> {
        if !self.shared.keys.read().expect("key directory lock poisoned").contains(key) {
            return Err(RuntimeError::Store(StoreError::UnknownKey));
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Submission surface: every verb as a ticket.
    // -----------------------------------------------------------------

    /// Submit a point read; harvest a [`Outcome::Read`].
    pub fn submit_read(
        &self,
        key: &K,
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<Ticket, RuntimeError> {
        self.ensure_key(key)?;
        let owned = key.clone();
        self.queue.submit_keyed(key, "read", move |reply| Request::Read {
            key: owned,
            constraint,
            now,
            reply,
        })
    }

    /// Submit a write; harvest a [`Outcome::Write`].
    pub fn submit_write(&self, key: &K, value: f64, now: TimeMs) -> Result<Ticket, RuntimeError> {
        self.ensure_key(key)?;
        let owned = key.clone();
        self.queue.submit_keyed(key, "write", move |reply| Request::Write {
            key: owned,
            value,
            now,
            reply: Some(reply),
        })
    }

    /// Submit a batch of writes (validated up front, one scattered leg
    /// per owning shard, applied in slice order within each shard);
    /// harvest a [`Outcome::Write`] with the summed refresh count.
    pub fn submit_write_batch(
        &self,
        items: &[(K, f64)],
        now: TimeMs,
    ) -> Result<Ticket, RuntimeError> {
        for (key, value) in items {
            if !value.is_finite() {
                return Err(RuntimeError::Store(
                    apcache_core::error::ProtocolError::NonFiniteValue(*value).into(),
                ));
            }
            self.ensure_key(key)?;
        }
        if items.is_empty() {
            // An empty batch refreshes nothing; settle it locally.
            return Ok(self.queue.complete_immediately(
                Outcome::Write(WriteOutcome { refreshes: 0 }),
                "write_batch",
            ));
        }
        self.queue.submit_batch(items, now)
    }

    /// Submit a deployment-wide bounded aggregate; harvest a
    /// [`Outcome::Aggregate`].
    ///
    /// Single-shard key sets delegate the whole constraint to the owning
    /// actor untouched (bit-identical to the unsharded store); multi-
    /// shard sets park an
    /// [`AggregatePlan`](apcache_shard::plan::AggregatePlan) in the
    /// completion queue, so the Relative probe → escalate rounds run as
    /// submitted tickets that interleave with this handle's other traffic
    /// instead of holding the client thread.
    pub fn submit_aggregate(
        &self,
        kind: AggregateKind,
        keys: &[K],
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<Ticket, RuntimeError> {
        constraint.validate().map_err(RuntimeError::Store)?;
        if keys.is_empty() {
            let outcome = empty_aggregate(kind).map_err(RuntimeError::Store)?;
            return Ok(self.queue.complete_immediately(Outcome::Aggregate(outcome), "aggregate"));
        }
        for key in keys {
            self.ensure_key(key)?;
        }
        self.queue.submit_aggregate(kind, keys, constraint, now)
    }

    /// Submit a deployment-metrics gather (one leg per shard); harvest a
    /// [`Outcome::Metrics`].
    pub fn submit_metrics(&self) -> Result<Ticket, RuntimeError> {
        self.queue.submit_metrics()
    }

    /// Open a push subscription on `key`: the returned ticket first
    /// yields [`Outcome::Subscribed`] (with the cached snapshot), then
    /// streams one [`Outcome::Push`] per filtered interval change —
    /// without ever settling — until an unsubscribe or runtime shutdown
    /// closes it with [`Outcome::SubscriptionEnded`].
    pub fn submit_subscribe(
        &self,
        key: &K,
        filter: PushFilter,
        now: TimeMs,
    ) -> Result<Ticket, RuntimeError> {
        self.ensure_key(key)?;
        let owned = key.clone();
        self.queue.submit_subscription(key, move |sub| Request::Subscribe {
            key: owned,
            filter,
            now,
            sub,
        })
    }

    /// Submit an unsubscribe for a live subscription ticket; harvest an
    /// [`Outcome::Unsubscribed`]. Fails with
    /// [`RuntimeError::UnknownTicket`] if `sub` is not a live
    /// subscription on this handle's queue. Routed by the watched *key*,
    /// not the subscribe-time shard — migration may have moved the watch.
    pub fn submit_unsubscribe(&self, sub: Ticket) -> Result<Ticket, RuntimeError> {
        let key = self.queue.subscription_key(sub).ok_or(RuntimeError::UnknownTicket(sub))?;
        let owned = key.clone();
        self.queue.submit_keyed(&key, "unsubscribe", move |reply| Request::Unsubscribe {
            id: sub.0,
            key: owned,
            reply,
        })
    }

    /// Submit a TTL-lease grant/renewal on `key`; harvest an
    /// [`Outcome::Leased`]. The config is validated before anything is
    /// enqueued.
    pub fn submit_lease(
        &self,
        key: &K,
        cfg: LeaseConfig,
        now: TimeMs,
    ) -> Result<Ticket, RuntimeError> {
        if !cfg.validate() {
            return Err(RuntimeError::Store(StoreError::Config(format!(
                "invalid lease config: ttl_ms={}, fallback={:?}",
                cfg.ttl_ms, cfg.fallback
            ))));
        }
        self.ensure_key(key)?;
        let owned = key.clone();
        self.queue.submit_keyed(key, "lease", move |reply| Request::Lease {
            key: owned,
            cfg: Some(cfg),
            now,
            reply,
        })
    }

    /// Submit a lease release on `key`; harvest an [`Outcome::Leased`]
    /// whose `active` says whether a lease existed.
    pub fn submit_release_lease(&self, key: &K, now: TimeMs) -> Result<Ticket, RuntimeError> {
        self.ensure_key(key)?;
        let owned = key.clone();
        self.queue.submit_keyed(key, "lease", move |reply| Request::Lease {
            key: owned,
            cfg: None,
            now,
            reply,
        })
    }

    /// Submit a logical-time advance to every shard (lapsed leases expire
    /// and push); harvest an [`Outcome::TimeAdvanced`] with the merged
    /// push report.
    pub fn submit_advance_time(&self, now: TimeMs) -> Result<Ticket, RuntimeError> {
        self.queue.submit_tick(Some(now))
    }

    /// Checkpoint every shard's store into its durable spool (blocking):
    /// each actor snapshots its full state and compacts its log, a no-op
    /// for shards without a spool. The sends go out under one topology
    /// read guard, so the fan-out addresses a consistent fleet; per
    /// shard, mailbox FIFO makes the snapshot a consistent cut of that
    /// shard's history. Returns once every shard's snapshot is durable.
    pub fn checkpoint(&self) -> Result<(), RuntimeError> {
        let acks = {
            let topo = self.shared.topology.read().expect("topology lock poisoned");
            let mut acks = Vec::with_capacity(topo.senders.len());
            for sender in &topo.senders {
                let (tx, rx) = reply_slot();
                sender.send(Request::Checkpoint { ack: tx }).map_err(|_| RuntimeError::Closed)?;
                acks.push(rx);
            }
            acks
        };
        for ack in acks {
            ack.recv().map_err(|_| RuntimeError::ActorGone)?.map_err(RuntimeError::Store)?;
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Blocking surface: submit + wait_ticket, nothing else.
    // -----------------------------------------------------------------

    /// Read `key` to the given precision on its owning shard (blocking:
    /// [`submit_read`](RuntimeHandle::submit_read) +
    /// [`wait_ticket`](RuntimeHandle::wait_ticket)).
    pub fn read(
        &self,
        key: &K,
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<ReadResult, RuntimeError> {
        match self.wait_ticket(self.submit_read(key, constraint, now)?)? {
            Outcome::Read(result) => Ok(result),
            _ => unreachable!("read tickets settle as read outcomes"),
        }
    }

    /// Push a new exact value for `key` and wait for the outcome.
    pub fn write(&self, key: &K, value: f64, now: TimeMs) -> Result<WriteOutcome, RuntimeError> {
        match self.wait_ticket(self.submit_write(key, value, now)?)? {
            Outcome::Write(outcome) => Ok(outcome),
            _ => unreachable!("write tickets settle as write outcomes"),
        }
    }

    /// Fire-and-forget write: validated and enqueued (parking while the
    /// shard's mailbox is full — that is the backpressure), then the
    /// caller moves on without a ticket. The write is applied in mailbox
    /// order; a draining shutdown still processes it.
    pub fn write_nowait(&self, key: &K, value: f64, now: TimeMs) -> Result<(), RuntimeError> {
        if !value.is_finite() {
            return Err(RuntimeError::Store(
                apcache_core::error::ProtocolError::NonFiniteValue(value).into(),
            ));
        }
        self.ensure_key(key)?;
        let topo = self.shared.topology.read().expect("topology lock poisoned");
        let slot = topo.slot_for_key(key);
        topo.senders[slot]
            .send(Request::Write { key: key.clone(), value, now, reply: None })
            .map_err(|_| RuntimeError::Closed)
    }

    /// Apply a batch of writes with one routing pass (blocking form of
    /// [`submit_write_batch`](RuntimeHandle::submit_write_batch)).
    ///
    /// Unlike [`ShardedStore::write_batch`], atomicity covers only the
    /// validation phase: if the runtime is shut down mid-scatter, legs
    /// already accepted by their mailboxes are still applied (the drain
    /// guarantee) while the caller sees [`RuntimeError::Closed`].
    pub fn write_batch(
        &self,
        items: &[(K, f64)],
        now: TimeMs,
    ) -> Result<WriteOutcome, RuntimeError> {
        match self.wait_ticket(self.submit_write_batch(items, now)?)? {
            Outcome::Write(outcome) => Ok(outcome),
            _ => unreachable!("batch tickets settle as write outcomes"),
        }
    }

    /// Bounded aggregate over `keys` (blocking form of
    /// [`submit_aggregate`](RuntimeHandle::submit_aggregate)): the
    /// constraint dispatch — including the Relative probe →
    /// local-certificates → derived-budget refinement — is the shared
    /// [`AggregatePlan`](apcache_shard::plan::AggregatePlan), literally the same state machine the
    /// synchronous façade folds with, so the two cannot drift.
    pub fn aggregate(
        &self,
        kind: AggregateKind,
        keys: &[K],
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<AggregateOutcome<K>, RuntimeError> {
        match self.wait_ticket(self.submit_aggregate(kind, keys, constraint, now)?)? {
            Outcome::Aggregate(outcome) => Ok(outcome),
            _ => unreachable!("aggregate tickets settle as aggregate outcomes"),
        }
    }

    /// Snapshot deployment metrics (blocking form of
    /// [`submit_metrics`](RuntimeHandle::submit_metrics)).
    pub fn metrics(&self) -> Result<RuntimeMetrics<K>, RuntimeError> {
        match self.wait_ticket(self.submit_metrics()?)? {
            Outcome::Metrics(metrics) => Ok(metrics),
            _ => unreachable!("metrics tickets settle as metrics outcomes"),
        }
    }

    /// Open a push subscription and wait for its acknowledgement: the
    /// live subscription ticket plus the cached snapshot at subscribe
    /// time. Pushes are then harvested from the completion queue like any
    /// other completion (`poll`/`wait`), tagged with the returned ticket.
    pub fn subscribe(
        &self,
        key: &K,
        filter: PushFilter,
        now: TimeMs,
    ) -> Result<(Ticket, Interval), RuntimeError> {
        let ticket = self.submit_subscribe(key, filter, now)?;
        match self.wait_ticket(ticket)? {
            Outcome::Subscribed { interval } => Ok((ticket, interval)),
            Outcome::SubscriptionEnded => Err(RuntimeError::ActorGone),
            _ => unreachable!("subscription tickets stream subscription outcomes"),
        }
    }

    /// Close a live subscription and wait for the acknowledgement:
    /// whether the shard still had it registered. The subscription
    /// ticket itself settles with [`Outcome::SubscriptionEnded`].
    pub fn unsubscribe(&self, sub: Ticket) -> Result<bool, RuntimeError> {
        match self.wait_ticket(self.submit_unsubscribe(sub)?)? {
            Outcome::Unsubscribed { existed } => Ok(existed),
            _ => unreachable!("unsubscribe tickets settle as unsubscribed outcomes"),
        }
    }

    /// Grant or renew a TTL lease on `key` (blocking form of
    /// [`submit_lease`](RuntimeHandle::submit_lease)).
    pub fn lease(&self, key: &K, cfg: LeaseConfig, now: TimeMs) -> Result<(), RuntimeError> {
        match self.wait_ticket(self.submit_lease(key, cfg, now)?)? {
            Outcome::Leased { .. } => Ok(()),
            _ => unreachable!("lease tickets settle as leased outcomes"),
        }
    }

    /// Release the lease on `key`, returning whether one existed
    /// (blocking form of
    /// [`submit_release_lease`](RuntimeHandle::submit_release_lease)).
    pub fn release_lease(&self, key: &K, now: TimeMs) -> Result<bool, RuntimeError> {
        match self.wait_ticket(self.submit_release_lease(key, now)?)? {
            Outcome::Leased { active } => Ok(active),
            _ => unreachable!("lease tickets settle as leased outcomes"),
        }
    }

    /// Advance the push-side logical clock on every shard — lapsed
    /// leases widen their intervals and push — and return the merged
    /// push report (blocking form of
    /// [`submit_advance_time`](RuntimeHandle::submit_advance_time)).
    pub fn advance_time(&self, now: TimeMs) -> Result<PushReport, RuntimeError> {
        match self.wait_ticket(self.submit_advance_time(now)?)? {
            Outcome::TimeAdvanced(report) => Ok(report),
            _ => unreachable!("tick tickets settle as time-advanced outcomes"),
        }
    }

    /// Submit a push-side occupancy snapshot (subscribers, watched keys,
    /// leases) without advancing any clock; harvest an
    /// [`Outcome::TimeAdvanced`] carrying the merged report. The
    /// non-blocking form behind [`push_stats`](RuntimeHandle::push_stats),
    /// public so pipelined servers can multiplex it like any other verb.
    pub fn submit_push_stats(&self) -> Result<Ticket, RuntimeError> {
        self.queue.submit_tick(None)
    }

    /// Snapshot push-side occupancy (subscribers, watched keys, leases)
    /// without advancing any clock.
    pub fn push_stats(&self) -> Result<PushReport, RuntimeError> {
        match self.wait_ticket(self.submit_push_stats()?)? {
            Outcome::TimeAdvanced(report) => Ok(report),
            _ => unreachable!("tick tickets settle as time-advanced outcomes"),
        }
    }

    // -----------------------------------------------------------------
    // Observability surface.
    // -----------------------------------------------------------------

    /// The deployment's telemetry: the metric registry (register layer-
    /// specific series here — the wire server does) and the trace ring.
    /// One instance per runtime, shared by every handle.
    pub fn telemetry(&self) -> &RuntimeTelemetry {
        &self.shared.telemetry
    }

    /// Copy out the runtime's request-lifecycle trace ring, oldest event
    /// first (see [`apcache_telemetry::TraceRing`]).
    pub fn trace_dump(&self) -> Vec<TraceEvent> {
        self.shared.telemetry.trace().dump()
    }

    /// Render the full Prometheus-style text exposition for this
    /// deployment: the store counter families (from a fresh
    /// [`metrics`](RuntimeHandle::metrics) gather, so they agree exactly
    /// with the `StoreMetrics` rollup — including after shard
    /// migrations, whose counters travel with the keys), the push-side
    /// occupancy gauges (from [`push_stats`](RuntimeHandle::push_stats)),
    /// and every series registered in the
    /// [`telemetry`](RuntimeHandle::telemetry) registry (verb latency
    /// histograms, wire-layer counters, mailbox-depth gauges sampled
    /// here at scrape time).
    pub fn render_exposition(&self) -> Result<String, RuntimeError> {
        let metrics = self.metrics()?;
        let report = self.push_stats()?;
        Ok(self.render_with(metrics, report))
    }

    /// Ticketed form of [`render_exposition`](RuntimeHandle::render_exposition):
    /// renders now (on the submitting thread) and settles the returned
    /// ticket immediately with [`Outcome::Exposition`]. The internal
    /// metrics/push-stats gathers run on a scratch handle clone so their
    /// waits never touch *this* handle's queue, which a pipelined server
    /// is harvesting for its connections.
    pub fn submit_exposition(&self) -> Result<Ticket, RuntimeError> {
        let scratch = self.clone();
        let metrics = scratch.metrics()?;
        let report = scratch.push_stats()?;
        let text = self.render_with(metrics, report);
        Ok(self.queue.complete_immediately(Outcome::Exposition(text), "exposition"))
    }

    /// The rendering body shared by the blocking and ticketed scrape
    /// forms. Queue-occupancy gauges sample *this* handle's queue — for
    /// the ticketed form that is the serving queue, which is the one an
    /// operator cares about.
    fn render_with(&self, metrics: RuntimeMetrics<K>, report: PushReport) -> String {
        let registry = self.shared.telemetry.registry();
        // Sample occupancy into registry gauges at scrape time: mailbox
        // depth per shard (racy snapshots, for monitoring) and this
        // handle's completion-queue occupancy.
        {
            let topo = self.shared.topology.read().expect("topology lock poisoned");
            for (slot, sender) in topo.senders.iter().enumerate() {
                let id = topo.ids[slot].to_string();
                registry
                    .gauge(
                        "apcache_mailbox_depth",
                        "Requests queued in a shard actor's mailbox (snapshot at scrape).",
                        &[("shard", &id)],
                    )
                    .set(sender.len() as i64);
            }
        }
        registry
            .gauge(
                "apcache_completion_outstanding",
                "Tickets submitted on the scraping handle's queue and not yet settled.",
                &[],
            )
            .set(self.queue.outstanding() as i64);
        registry
            .gauge(
                "apcache_completion_ready",
                "Settled completions on the scraping handle's queue not yet harvested.",
                &[],
            )
            .set(self.queue.ready_len() as i64);
        let mut out = Exposition::new();
        metrics.merged().render_into(&mut out);
        report.render_into(&mut out);
        registry.render(&mut out);
        out.finish()
    }
}
