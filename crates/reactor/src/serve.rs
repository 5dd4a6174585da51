//! The reactor: a small fixed pool of worker threads, each parking one
//! [`Poller`] over its own set of nonblocking connections, in front of
//! the actor runtime's ticketed surface.
//!
//! Each worker is **single-threaded end to end**: it owns its
//! connections, its poller, and a fresh [`RuntimeHandle`] clone (its
//! own completion queue). One loop iteration adopts injected
//! connections, polls for readiness, pumps ready sockets through the
//! `Conn` state machine (decode → submit), harvests the completion
//! queue, encodes answers **coalesced per connection** (one socket
//! write carries every frame that became ready this round), and flushes.
//! Completions landing while the worker is parked wake it through the
//! queue's waker hook — no busy polling, no thread per connection.

use std::collections::HashMap;
use std::hash::Hash;
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use apcache_runtime::{Outcome, RuntimeHandle};
use apcache_telemetry::{Counter, Gauge, TraceKind};
use apcache_wire::{KeyCodec, WireError};

use crate::conn::{Conn, RouteMap, SeqHash};
use crate::poller::{build_poller, Interest, PollEvents, Poller, PollerKind, RawFd};

/// A byte stream the reactor can drive: nonblocking reads/writes, plus
/// either a raw fd (kernel pollers watch it) or a ready hook (the
/// stream calls back when bytes arrive — the loopback transport's
/// mode). Implemented for [`std::net::TcpStream`] and
/// [`LoopbackStream`](apcache_wire::LoopbackStream).
///
/// A worker readies each stream once, when it adopts it, with
/// [`adopt`](ReactorStream::adopt); a stream that cannot be readied is
/// closed unserved.
pub trait ReactorStream: Read + Write + Send + 'static {
    /// Ready the stream for the reactor: nonblocking reads and writes,
    /// and on TCP Nagle's algorithm off. Each round already coalesces a
    /// connection's ready frames into one write, so Nagle could only
    /// hold a reply back until the peer's delayed ACK.
    fn adopt(&self) -> io::Result<()>;

    /// The raw fd a kernel poller can watch, if the stream has one.
    fn raw_fd(&self) -> Option<RawFd>;

    /// Install (or clear) a readiness callback, fired whenever bytes
    /// arrive or the peer closes. Returns whether the stream supports
    /// hooks — a stream with neither an fd nor hooks degrades to the
    /// mailbox poller's paced mode.
    fn set_ready_hook(&self, hook: Option<Arc<dyn Fn() + Send + Sync>>) -> bool;
}

impl ReactorStream for std::net::TcpStream {
    fn adopt(&self) -> io::Result<()> {
        self.set_nonblocking(true)?;
        self.set_nodelay(true)
    }

    #[cfg(unix)]
    fn raw_fd(&self) -> Option<RawFd> {
        Some(std::os::unix::io::AsRawFd::as_raw_fd(self))
    }

    #[cfg(not(unix))]
    fn raw_fd(&self) -> Option<RawFd> {
        None
    }

    fn set_ready_hook(&self, _hook: Option<Arc<dyn Fn() + Send + Sync>>) -> bool {
        false // readiness comes from the kernel via the fd
    }
}

impl ReactorStream for apcache_wire::LoopbackStream {
    fn adopt(&self) -> io::Result<()> {
        self.set_nonblocking(true);
        Ok(())
    }

    fn raw_fd(&self) -> Option<RawFd> {
        None
    }

    fn set_ready_hook(&self, hook: Option<Arc<dyn Fn() + Send + Sync>>) -> bool {
        apcache_wire::LoopbackStream::set_ready_hook(self, hook);
        true
    }
}

/// The safety-net park bound, far below the drain grace: how stale a
/// worker can be about cross-thread state (the stop flag, forced-close
/// deadlines) when no event wakes it sooner. Events always wake
/// immediately.
const POLL_TIMEOUT: Duration = Duration::from_millis(25);

/// Reactor tuning. The defaults: a handful of workers, the platform's
/// best poller, a two-second drain grace.
#[derive(Clone, Debug)]
pub struct ReactorConfig {
    /// Worker threads (each owns a poller and a share of the
    /// connections). Clamped to at least 1.
    pub workers: usize,
    /// Which readiness backend to use.
    pub poller: PollerKind,
    /// How long connections still open at a stop get to finish on their
    /// own — answer what is in flight, complete their own `Shutdown`
    /// handshakes (a `ClientPool` drains its members one after another,
    /// so the first member's `Shutdown` must not cut the rest off) —
    /// before being force-closed.
    pub drain_grace: Duration,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        let workers = thread::available_parallelism().map(|n| n.get().min(4)).unwrap_or(2);
        ReactorConfig { workers, poller: PollerKind::Auto, drain_grace: Duration::from_secs(2) }
    }
}

/// The reactor-wide registry series.
#[derive(Clone)]
struct ReactorCounters {
    /// Response/push frames that shared a socket write with an earlier
    /// frame from the same harvest round.
    coalesced: Counter,
    /// Connections currently open across all workers.
    open: Gauge,
    /// Worker wake-ups that carried work (kernel events, hook marks, or
    /// explicit wakes).
    wakeups: Counter,
    /// Connections force-closed when the drain grace expired.
    forced: Counter,
}

impl ReactorCounters {
    fn register(registry: &apcache_telemetry::Registry) -> Self {
        ReactorCounters {
            coalesced: registry.counter(
                "apcache_push_frames_coalesced_total",
                "Response and push frames that rode a socket write already carrying an earlier frame.",
                &[],
            ),
            open: registry.gauge(
                "apcache_connections_open",
                "Connections currently open across reactor workers.",
                &[],
            ),
            wakeups: registry.counter(
                "apcache_reactor_wakeups_total",
                "Reactor worker wake-ups that carried readiness events or explicit wakes.",
                &[],
            ),
            forced: registry.counter(
                "apcache_wire_forced_closes_total",
                "Idle or lingering connections force-closed at listener teardown.",
                &[],
            ),
        }
    }
}

/// One worker's cross-thread face: where to inject connections, how to
/// wake its parked poller.
struct Mailbox<S> {
    inbox: Arc<Mutex<Vec<S>>>,
    waker: Arc<dyn Fn() + Send + Sync>,
}

/// State shared by the workers and the reactor's front handle.
struct Shared<S> {
    stop: AtomicBool,
    /// Set (once) when the stop is triggered: the instant after which
    /// still-open connections are force-closed.
    deadline: Mutex<Option<Instant>>,
    /// Run on the first stop trigger (e.g. dial the listener so a
    /// blocking accept loop observes the flag).
    stop_hooks: Mutex<Vec<Box<dyn Fn() + Send>>>,
    /// Poller tokens, unique for the reactor's lifetime (from 1: the
    /// epoll wake channel reserves `u64::MAX`).
    next_token: AtomicU64,
    round_robin: AtomicUsize,
    mailboxes: Vec<Mailbox<S>>,
    drain_grace: Duration,
}

impl<S> Shared<S> {
    /// Flip the stop flag (idempotent), arm the forced-close deadline,
    /// fire the stop hooks, and wake every worker.
    fn trigger_stop(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            let mut deadline = self.deadline.lock().expect("deadline lock poisoned");
            if deadline.is_none() {
                *deadline = Some(Instant::now() + self.drain_grace);
            }
            drop(deadline);
            for hook in self.stop_hooks.lock().expect("stop hooks poisoned").iter() {
                hook();
            }
        }
        for mailbox in &self.mailboxes {
            (mailbox.waker)();
        }
    }

    fn deadline_passed(&self) -> bool {
        self.deadline
            .lock()
            .expect("deadline lock poisoned")
            .is_some_and(|deadline| Instant::now() >= deadline)
    }
}

/// An event-driven serving core: a fixed pool of poller-driven worker
/// threads fronting one runtime. Connections are injected with
/// [`add_connection`](Reactor::add_connection) (round-robin across
/// workers) and live until their peer shuts down, disconnects, or the
/// reactor stops.
pub struct Reactor<S> {
    shared: Arc<Shared<S>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl<S: ReactorStream> Reactor<S> {
    /// Spawn the worker pool in front of `handle`'s runtime. `KeyCodec`
    /// is `apcache_store`'s key trait — the one a spooled store needs too.
    pub fn launch<K>(handle: &RuntimeHandle<K>, config: ReactorConfig) -> io::Result<Self>
    where
        K: KeyCodec + Hash + Ord + Clone + Send + Sync + 'static,
    {
        let counters = ReactorCounters::register(handle.telemetry().registry());
        let worker_count = config.workers.max(1);
        let mut pollers = Vec::with_capacity(worker_count);
        let mut mailboxes = Vec::with_capacity(worker_count);
        for _ in 0..worker_count {
            let poller = build_poller(config.poller)?;
            mailboxes
                .push(Mailbox { inbox: Arc::new(Mutex::new(Vec::new())), waker: poller.waker() });
            pollers.push(poller);
        }
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            deadline: Mutex::new(None),
            stop_hooks: Mutex::new(Vec::new()),
            next_token: AtomicU64::new(1),
            round_robin: AtomicUsize::new(0),
            mailboxes,
            drain_grace: config.drain_grace,
        });
        let mut workers = Vec::with_capacity(worker_count);
        for (index, poller) in pollers.into_iter().enumerate() {
            let inbox = Arc::clone(&shared.mailboxes[index].inbox);
            let shared = Arc::clone(&shared);
            // A handle clone is a fresh logical client with its own
            // completion queue: this worker's tickets are its own.
            let handle = handle.clone();
            let counters = counters.clone();
            workers.push(
                thread::Builder::new()
                    .name(format!("apcache-reactor-{index}"))
                    .spawn(move || worker_loop(poller, inbox, shared, handle, counters))?,
            );
        }
        Ok(Reactor { shared, workers })
    }

    /// Hand one connection to the next worker in round-robin order. The
    /// worker adopts it on its next wake-up: it readies the stream with
    /// [`ReactorStream::adopt`] (nonblocking mode, plus Nagle off on
    /// TCP) and registers it. A stream that cannot be readied is closed
    /// instead.
    pub fn add_connection(&self, stream: S) {
        let index =
            self.shared.round_robin.fetch_add(1, Ordering::Relaxed) % self.shared.mailboxes.len();
        let mailbox = &self.shared.mailboxes[index];
        mailbox.inbox.lock().expect("reactor inbox poisoned").push(stream);
        (mailbox.waker)();
    }

    /// Whether a client `Shutdown` (or [`join`](Reactor::join)) has
    /// stopped the reactor.
    pub fn stopped(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Register a hook run on the first stop trigger — before the drain
    /// grace starts counting. [`serve_reactor`] uses one to unblock its
    /// accept loop.
    pub fn on_stop(&self, hook: impl Fn() + Send + 'static) {
        self.shared.stop_hooks.lock().expect("stop hooks poisoned").push(Box::new(hook));
    }

    /// Stop and wait for every worker: open connections get the
    /// configured drain grace to finish their handshakes, then are
    /// force-closed; each worker thread is joined before returning, so
    /// no request is in flight afterwards.
    pub fn join(self) {
        self.shared.trigger_stop();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// One worker: the whole per-connection life cycle on one thread.
fn worker_loop<K, S>(
    mut poller: Box<dyn Poller>,
    inbox: Arc<Mutex<Vec<S>>>,
    shared: Arc<Shared<S>>,
    handle: RuntimeHandle<K>,
    counters: ReactorCounters,
) where
    K: KeyCodec + Hash + Ord + Clone + Send + Sync + 'static,
    S: ReactorStream,
{
    let mut conns: HashMap<u64, Conn<S>, SeqHash> = HashMap::default();
    let mut route: RouteMap = RouteMap::default();
    // Per-worker cap on requests submitted but not yet harvested. Shard
    // mailboxes are bounded and park their producers when full; a
    // worker that decoded past that bound would block inside `submit` —
    // one saturating connection stalling every socket the worker owns.
    // Held at half the runtime's bound so even a worst-case
    // single-shard skew leaves headroom: the pump stops decoding here
    // (bytes wait in the read buffer) and resumes as harvested
    // completions free room.
    let submit_cap = (handle.mailbox_capacity() / 2).max(1);
    // Completions landing while this worker is parked in the poller
    // must wake it: bridge the queue's notifications into the poller.
    handle.completions().set_waker(Some(poller.waker()));
    let ready_marker = poller.ready_marker();
    let mut events = PollEvents::default();
    let mut completions = Vec::new();
    let mut to_close: Vec<u64> = Vec::new();
    // Connections this round did anything to: readiness, a harvested
    // completion, a lost-ticket fault. The ack/flush/interest sweep
    // visits only these — an idle connection costs nothing per round,
    // which is what keeps 10k mostly-idle connections cheap.
    let mut touched: Vec<u64> = Vec::new();
    // Tokens whose registration just happened: their bytes (or their
    // HTTP request, or EOF) may predate the hook install / fd
    // registration, so their first round treats them as ready.
    let mut initially_ready: Vec<u64> = Vec::new();
    // Connections the submit budget stalled with decodable frames still
    // buffered: re-pumped every round (no new readiness will announce
    // those bytes) until the backlog clears.
    let mut deferred: Vec<u64> = Vec::new();

    loop {
        touched.clear();
        // ------------------------------------------------------ adopt
        let injected: Vec<S> = {
            let mut inbox = inbox.lock().expect("reactor inbox poisoned");
            inbox.drain(..).collect()
        };
        for stream in injected {
            // A stream left blocking would park this worker, and every
            // connection it owns, on its first read. Dropping it closes
            // it unserved.
            if stream.adopt().is_err() {
                continue;
            }
            let token = shared.next_token.fetch_add(1, Ordering::Relaxed);
            let marker = Arc::clone(&ready_marker);
            stream.set_ready_hook(Some(Arc::new(move || marker(token))));
            let _ = poller.register(token, stream.raw_fd(), Interest::Read);
            conns.insert(token, Conn::new(token, stream));
            counters.open.add(1);
            handle.telemetry().trace().record(TraceKind::ConnOpen, 0, "", None);
            initially_ready.push(token);
        }

        // ------------------------------------------------------- park
        events.ready.clear();
        events.woken = false;
        let timeout = if initially_ready.is_empty() { POLL_TIMEOUT } else { Duration::ZERO };
        if poller.poll(&mut events, timeout).is_err() {
            // A failed poll is unrecoverable for this worker; behave as
            // a stop so its connections drain through the grace path.
            shared.trigger_stop();
        }
        if events.woken || !events.ready.is_empty() {
            counters.wakeups.inc();
        }
        events.ready.append(&mut initially_ready);
        events.ready.append(&mut deferred);
        events.ready.sort_unstable();
        events.ready.dedup();

        // ----------------------------------------------- pump sockets
        // The round's submit allowance: completions already waiting in
        // the queue are about to be harvested, so only entries still on
        // the actors count against the cap. The floor of one keeps a
        // route pinned by long-lived subscriptions from starving
        // control frames (their own unsubscribes) forever.
        let pending = route.len().saturating_sub(handle.completions().ready_len());
        let mut budget = submit_cap.saturating_sub(pending).max(1);
        for &token in &events.ready {
            let Some(conn) = conns.get_mut(&token) else { continue };
            // Writable readiness: move queued bytes first so a peer
            // draining slowly frees buffer space before we read more.
            if !conn.flush() {
                continue; // reaped below via should_close
            }
            conn.on_readable(&handle, &mut route, &mut budget);
            if conn.is_stalled() {
                deferred.push(token);
            }
        }

        // ------------------------------------------------- harvest
        loop {
            completions.clear();
            if handle.completions().drain_ready_into(&mut completions, 1024) == 0 {
                break;
            }
            for completion in completions.drain(..) {
                // Subscription tickets stream: the Subscribed ack and
                // every Push reuse the mapping, which only
                // SubscriptionEnded retires — everything else settles
                // its ticket with exactly one frame.
                let streaming = matches!(
                    completion.outcome,
                    Ok(Outcome::Subscribed { .. }) | Ok(Outcome::Push(_))
                );
                let entry = if streaming {
                    route.get(&completion.ticket).copied()
                } else {
                    route.remove(&completion.ticket)
                };
                // Unrouted completions are orphans (a closed
                // connection's answers, a teardown unsubscribe's ack):
                // their peer is gone or never asked, so they are
                // dropped.
                let Some(entry) = entry else { continue };
                let Some(conn) = conns.get_mut(&entry.conn) else { continue };
                touched.push(entry.conn);
                if !streaming {
                    conn.retire();
                }
                let ended = matches!(completion.outcome, Ok(Outcome::SubscriptionEnded));
                conn.ship_outcome(completion.outcome, entry.request_id);
                if !ended {
                    conn.frames_this_round += 1;
                }
            }
        }

        // The harvest freed submit room: re-pump budget-stalled
        // connections in the same round rather than park on the poller
        // with decodable frames waiting. Whatever stalls again carries
        // to the next round's ready set (a completion wake follows —
        // stalling implies outstanding work on the actors).
        if !deferred.is_empty() {
            let pending = route.len().saturating_sub(handle.completions().ready_len());
            let mut budget = submit_cap.saturating_sub(pending).max(1);
            for &token in &std::mem::take(&mut deferred) {
                let Some(conn) = conns.get_mut(&token) else { continue };
                conn.on_readable(&handle, &mut route, &mut budget);
                if conn.is_stalled() {
                    deferred.push(token);
                }
            }
        }

        // Lost-ticket fallback: tickets are mapped, yet the queue has
        // nothing outstanding and nothing ready — no completion can
        // ever arrive for them (every registered op settles exactly
        // once). Fail them as answers instead of waiting forever.
        if !route.is_empty()
            && handle.completions().outstanding() == 0
            && handle.completions().ready_len() == 0
        {
            for (_, entry) in route.drain() {
                if let Some(conn) = conns.get_mut(&entry.conn) {
                    touched.push(entry.conn);
                    conn.retire();
                    conn.fault_in_flight(entry.request_id);
                }
            }
        }

        // ------------------------------------- acks, flush, interest
        let stop = shared.stop.load(Ordering::SeqCst);
        let force = stop && shared.deadline_passed();
        to_close.clear();
        touched.extend_from_slice(&events.ready);
        if stop {
            // Stop phases must visit every connection (sibling drains,
            // the forced-close deadline); the full scan is bounded by
            // the grace period, not the steady state.
            touched.extend(conns.keys().copied());
        }
        touched.sort_unstable();
        touched.dedup();
        for &token in &touched {
            let Some(conn) = conns.get_mut(&token) else { continue };
            // Frames that became ready together left in one socket
            // write: everything past the first coalesced.
            let frames = std::mem::take(&mut conn.frames_this_round);
            if frames > 1 {
                counters.coalesced.add(frames - 1);
            }
            conn.publish_stats();
            conn.maybe_ack_shutdown();
            if conn.take_acked_shutdown() {
                // This connection's client asked the whole endpoint to
                // stop; siblings now get the drain grace.
                shared.trigger_stop();
            }
            if conn.flush() {
                let interest = conn.interest();
                let want_write = interest == Interest::ReadWrite;
                if want_write != conn.want_write {
                    conn.want_write = want_write;
                    let _ = poller.reregister(token, conn.stream.raw_fd(), interest);
                }
            }
            if conn.should_close() || force {
                to_close.push(token);
            }
        }
        for token in to_close.drain(..) {
            let Some(mut conn) = conns.remove(&token) else { continue };
            let forced = !conn.should_close();
            if forced {
                counters.forced.inc();
                handle.telemetry().trace().record(TraceKind::ForcedClose, 0, "", None);
            }
            let _ = poller.deregister(token, conn.stream.raw_fd());
            conn.stream.set_ready_hook(None);
            conn.retire_stats();
            counters.open.add(-1);
            handle.telemetry().trace().record(TraceKind::ConnClose, 0, "", None);
            // Cancel whatever the peer left open so the actors drop
            // their subscription sinks; the acks land as orphans.
            conn.enter_draining(None, &handle);
            route.retain(|_, entry| entry.conn != token);
            // Dropping the stream closes it (FIN): the reactor holds
            // the only handle.
        }

        // ------------------------------------------------------- exit
        if shared.stop.load(Ordering::SeqCst)
            && conns.is_empty()
            && inbox.lock().expect("reactor inbox poisoned").is_empty()
        {
            break;
        }
    }
    handle.completions().set_waker(None);
}

/// Accept TCP connections on `listener` and serve each through the
/// reactor — the cross-process face of the actor runtime: pipelined
/// out-of-order replies, push subscriptions, plain-HTTP `GET /metrics`
/// sniffed off the first bytes, and the first client `Shutdown`
/// stopping the accept loop with a bounded drain grace for its siblings
/// (connections still open after the grace — idle peers included — are
/// force-closed and counted in `apcache_wire_forced_closes_total`). A
/// fixed worker pool multiplexes every connection, so one process holds
/// 10k+ connections open. An `accept` error ends the loop the same way,
/// draining and joining every worker, and is then returned.
pub fn serve_reactor<K>(
    listener: TcpListener,
    handle: RuntimeHandle<K>,
    config: ReactorConfig,
) -> Result<(), WireError>
where
    K: KeyCodec + Hash + Ord + Clone + Send + Sync + 'static,
{
    use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream};

    let io = |e: io::Error| WireError::Io(e.to_string());
    // The wake-up dial must target a routable address: a listener bound
    // to the unspecified address (0.0.0.0 / ::) is reachable on
    // loopback, but *connecting to* 0.0.0.0 is platform-dependent.
    let local_addr = listener.local_addr().map_err(io)?;
    let wake_addr = SocketAddr::new(
        match local_addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            routable => routable,
        },
        local_addr.port(),
    );
    // No `?` past this point: every exit below joins the workers, which
    // would otherwise outlive the call holding the runtime handle.
    let reactor: Reactor<TcpStream> = Reactor::launch(&handle, config).map_err(io)?;
    reactor.on_stop(move || {
        let _ = TcpStream::connect(wake_addr);
    });
    let mut exit = Ok(());
    while !reactor.stopped() {
        match listener.accept() {
            // The wake-up dial from the stop hook; discard it.
            Ok(_) if reactor.stopped() => break,
            Ok((stream, _)) => reactor.add_connection(stream),
            Err(e) => {
                exit = Err(io(e));
                break;
            }
        }
    }
    reactor.join();
    exit
}
