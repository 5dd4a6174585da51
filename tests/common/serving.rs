//! Shared by `pipelining_conformance`, `push_conformance` and
//! `backend_simulation`: the in-process pipelined serving stack.

use std::hash::Hash;

use apcache::reactor::{Reactor, ReactorConfig};
use apcache::runtime::RuntimeHandle;
use apcache::wire::{loopback, KeyCodec, LoopbackStream, LoopbackTransport};

/// One in-process pipelined connection in front of `handle`'s runtime.
/// Tear down in order: end the client, `join` the reactor, drain the runtime.
pub fn reactor_over_loopback<K>(
    handle: &RuntimeHandle<K>,
) -> (Reactor<LoopbackStream>, LoopbackTransport)
where
    K: KeyCodec + Hash + Ord + Clone + Send + Sync + 'static,
{
    let reactor = Reactor::launch(handle, ReactorConfig::default()).expect("reactor launches");
    let (server_end, client_end) = loopback();
    reactor.add_connection(server_end.into_inner());
    (reactor, client_end)
}
