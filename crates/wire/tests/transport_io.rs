//! Socket-level integration: the client and the call-reply
//! `StoreServer` over real localhost TCP, and hostile-peer behavior.
//! (The pipelined door's socket suite lives in `apcache-reactor`.)

use std::net::TcpListener;
use std::thread;

use apcache_queries::AggregateKind;
use apcache_store::{Constraint, InitialWidth, StoreBuilder};
use apcache_wire::{
    RemoteStoreClient, ServerExit, StoreServer, TcpTransport, Transport, WireError,
};

fn listener() -> (TcpListener, std::net::SocketAddr) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    (listener, addr)
}

#[test]
fn single_connection_tcp_serving_round_trips() {
    let (listener, addr) = listener();
    let server = thread::spawn(move || {
        let store = StoreBuilder::new()
            .initial_width(InitialWidth::Fixed(10.0))
            .source("alpha".to_string(), 10.0)
            .source("beta".to_string(), 20.0)
            .build()
            .unwrap();
        let mut transport = TcpTransport::accept(&listener).unwrap();
        let mut server = StoreServer::new(store);
        let exit = server.serve::<String, _>(&mut transport).unwrap();
        (exit, server.into_service())
    });

    let mut client: RemoteStoreClient<String, _> =
        RemoteStoreClient::new(TcpTransport::connect(addr).unwrap());
    let r = client.read(&"alpha".to_string(), Constraint::Absolute(12.0), 0).unwrap();
    assert!(!r.refreshed);
    assert!(r.answer.contains(10.0));
    let out = client
        .aggregate(
            AggregateKind::Sum,
            &["alpha".to_string(), "beta".to_string()],
            Constraint::Absolute(12.0),
            1_000,
        )
        .unwrap();
    assert!(out.answer.width() <= 12.0);
    assert_eq!(out.refreshed.len(), 1);
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.totals().reads, 1);
    assert_eq!(metrics.totals().qr_count, 1);
    client.shutdown().unwrap();

    let (exit, store) = server.join().unwrap();
    assert_eq!(exit, ServerExit::Shutdown);
    assert_eq!(store.metrics().totals(), metrics.totals());
}

#[test]
fn garbage_from_a_hostile_peer_closes_the_connection_not_the_process() {
    let (listener, addr) = listener();
    let server = thread::spawn(move || {
        let store = StoreBuilder::new().source("k".to_string(), 1.0).build().unwrap();
        let mut transport = TcpTransport::accept(&listener).unwrap();
        StoreServer::new(store).serve::<String, _>(&mut transport)
    });
    // A raw socket spraying bytes that are a valid *frame* but an invalid
    // *message* body.
    use std::io::Write as _;
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    let junk_body = [0xDE, 0xAD, 0xBE, 0xEF];
    raw.write_all(&(junk_body.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&junk_body).unwrap();
    raw.flush().unwrap();
    // The server must refuse the stream with a decode error — not panic,
    // not hang.
    let err = server.join().expect("server thread survived").unwrap_err();
    assert!(matches!(err, WireError::BadMagic(0xDE)));
}

#[test]
fn connecting_transport_surfaces_peer_loss_mid_frame() {
    let (listener, addr) = listener();
    // Server sends a length prefix announcing 100 bytes, delivers 3, and
    // hangs up: the client must see Truncated, not block forever.
    let server = thread::spawn(move || {
        use std::io::Write as _;
        let (mut stream, _) = listener.accept().unwrap();
        stream.write_all(&100u32.to_le_bytes()).unwrap();
        stream.write_all(&[1, 2, 3]).unwrap();
    });
    let mut client = TcpTransport::connect(addr).unwrap();
    server.join().unwrap();
    assert!(matches!(client.recv(), Err(WireError::Truncated { .. })));
}

#[test]
fn failed_shutdown_still_closes_the_connection() {
    // The shutdown-consumes-self regression: when the drain inside
    // shutdown() fails (here: the peer answers with a request id that
    // was never issued), the client must still tear the transport down
    // on its error path — the peer observes EOF, which is what lets a
    // server close the connection cleanly instead of force-closing it.
    use apcache_wire::{frame_to_vec, RemoteError, WireMessage, WireResponse};
    let (listener, addr) = listener();
    let server = thread::spawn(move || {
        let mut transport = TcpTransport::accept(&listener).unwrap();
        let _ = transport.recv().unwrap(); // the submitted read
        let bogus: Vec<u8> =
            frame_to_vec::<u64>(999, &WireMessage::Response(WireResponse::ShutdownAck));
        transport.send(&bogus).unwrap();
        // The failed shutdown must close the connection: EOF, not a hang.
        assert_eq!(transport.recv(), Err(WireError::Closed));
    });
    let mut client: RemoteStoreClient<u64, _> =
        RemoteStoreClient::new(TcpTransport::connect(addr).unwrap());
    client.submit_read(&0, Constraint::Exact, 0).unwrap();
    let err = client.shutdown().unwrap_err();
    assert!(
        matches!(err, RemoteError::Wire(WireError::UnknownRequestId { id: 999 })),
        "unexpected {err:?}"
    );
    server.join().unwrap();
}
