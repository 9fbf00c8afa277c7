//! Keep-alive connections: `TcpTransport` reuses one socket per peer
//! across requests, re-sends exactly once when a pooled socket turns
//! out stale, never re-sends after a timeout, and a `TcpServer` stops
//! promptly while peers still hold idle pooled sockets to it.

use setsketch::{SetSketch2, SetSketchConfig};
use sketch_cluster::wire::{read_frame, write_frame};
use sketch_cluster::{
    ClusterNode, HealthPolicy, Message, Resilient, RetryPolicy, TcpServer, TcpTimeouts,
    TcpTransport, Transport,
};
use sketch_store::SketchStore;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a [`ScriptedListener`] does with one request, chosen from the
/// connection number and the request number on that connection (both
/// counted from 0).
#[derive(Clone, Copy)]
enum Reply {
    /// Answer `Ack` and keep the connection open.
    Answer,
    /// Answer `Ack`, then hang up.
    AnswerThenClose,
    /// Hang up without answering.
    Close,
    /// Never answer; hold the connection open until the listener drops.
    Stall,
}

/// A frame-speaking listener that counts the connections it accepts
/// and follows a script for every request.
struct ScriptedListener {
    addr: SocketAddr,
    connections: Arc<AtomicU32>,
    closed: Arc<AtomicU32>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl ScriptedListener {
    fn spawn(script: fn(u32, u32) -> Reply) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let connections = Arc::new(AtomicU32::new(0));
        let closed = Arc::new(AtomicU32::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (count, done, halt) = (
            Arc::clone(&connections),
            Arc::clone(&closed),
            Arc::clone(&stop),
        );
        let acceptor = std::thread::spawn(move || {
            let mut held = Vec::new();
            let mut workers = Vec::new();
            while !halt.load(Ordering::Acquire) {
                let Ok((stream, _)) = listener.accept() else {
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                };
                stream.set_nonblocking(false).unwrap();
                held.push(stream.try_clone().unwrap());
                let connection = count.fetch_add(1, Ordering::SeqCst);
                let (done, halt) = (Arc::clone(&done), Arc::clone(&halt));
                workers.push(std::thread::spawn(move || {
                    let mut stream = stream;
                    answer(&mut stream, connection, script, &halt);
                    // `held` keeps a clone open, so hang up explicitly.
                    let _ = stream.shutdown(Shutdown::Both);
                    done.fetch_add(1, Ordering::SeqCst);
                }));
            }
            for stream in &held {
                let _ = stream.shutdown(Shutdown::Both);
            }
            for worker in workers {
                worker.join().unwrap();
            }
        });
        ScriptedListener {
            addr,
            connections,
            closed,
            stop,
            acceptor: Some(acceptor),
        }
    }

    fn connections(&self) -> u32 {
        self.connections.load(Ordering::SeqCst)
    }

    /// Waits until `n` connections have been hung up by the listener.
    fn await_closed(&self, n: u32) {
        let started = Instant::now();
        while self.closed.load(Ordering::SeqCst) < n {
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "listener never hung up"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for ScriptedListener {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(acceptor) = self.acceptor.take() {
            acceptor.join().unwrap();
        }
    }
}

fn answer(
    stream: &mut TcpStream,
    connection: u32,
    script: fn(u32, u32) -> Reply,
    halt: &AtomicBool,
) {
    for request in 0.. {
        if read_frame(stream).is_err() {
            return;
        }
        match script(connection, request) {
            Reply::Answer => {
                if write_frame(stream, &Message::Ack).is_err() {
                    return;
                }
            }
            Reply::AnswerThenClose => {
                let _ = write_frame(stream, &Message::Ack);
                return;
            }
            Reply::Close => return,
            Reply::Stall => {
                while !halt.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(5));
                }
                return;
            }
        }
    }
}

fn cardinality() -> Message {
    Message::Cardinality {
        key: "events".into(),
    }
}

#[test]
fn sequential_requests_share_one_connection() {
    let listener = ScriptedListener::spawn(|_, _| Reply::Answer);
    let transport = TcpTransport::new();
    transport.add_peer(7, listener.addr);
    for _ in 0..100 {
        assert!(matches!(
            transport.request(7, &cardinality()),
            Ok(Message::Ack)
        ));
    }
    assert_eq!(
        listener.connections(),
        1,
        "requests did not reuse the socket"
    );
}

#[test]
fn stale_pooled_socket_is_resent_once_on_a_fresh_one() {
    // The first connection answers once and hangs up; later ones serve.
    let listener = ScriptedListener::spawn(|connection, _| match connection {
        0 => Reply::AnswerThenClose,
        _ => Reply::Answer,
    });
    let transport = TcpTransport::new();
    transport.add_peer(7, listener.addr);
    assert!(matches!(
        transport.request(7, &cardinality()),
        Ok(Message::Ack)
    ));
    listener.await_closed(1);
    assert!(matches!(
        transport.request(7, &cardinality()),
        Ok(Message::Ack)
    ));
    assert_eq!(listener.connections(), 2);
}

#[test]
fn a_fresh_socket_that_fails_is_not_resent_again() {
    // Every connection after the first hangs up without answering: the
    // stale pooled socket earns one re-send, the fresh one none.
    let listener = ScriptedListener::spawn(|connection, _| match connection {
        0 => Reply::AnswerThenClose,
        _ => Reply::Close,
    });
    let transport = TcpTransport::new();
    transport.add_peer(7, listener.addr);
    assert!(matches!(
        transport.request(7, &cardinality()),
        Ok(Message::Ack)
    ));
    listener.await_closed(1);
    let error = transport
        .request(7, &cardinality())
        .expect_err("nobody answers");
    assert!(error.is_transient(), "hang-up surfaced as {error}");
    assert_eq!(
        listener.connections(),
        2,
        "the request was sent more than twice"
    );
}

/// Scratch directory for a durable store, removed by the test.
fn scratch_dir() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sketch-tcp-pool-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn store(durable: Option<&Path>) -> SketchStore<SetSketch2> {
    let config = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
    let builder = SketchStore::builder(move || SetSketch2::new(config, 13)).shards(4);
    match durable {
        Some(dir) => builder.durable_dir(dir).build(),
        None => builder.build(),
    }
}

fn node(id: u32, durable: Option<&Path>) -> Arc<ClusterNode<SetSketch2>> {
    Arc::new(ClusterNode::new(id, [0, 1], store(durable)))
}

#[test]
fn a_peer_served_again_on_a_new_port_is_reached_without_a_failure() {
    let served = node(0, None);
    served.store().ingest("events", &[1, 2, 3]);
    let server = TcpServer::serve(Arc::clone(&served), "127.0.0.1:0").unwrap();
    // No retries: any failure would surface as this call's error.
    let transport = Resilient::with_policies(
        TcpTransport::new(),
        RetryPolicy::none(),
        HealthPolicy::default(),
    );
    transport.inner().add_peer(0, server.local_addr());
    assert!(matches!(
        transport.request(0, &cardinality()),
        Ok(Message::Value { .. })
    ));

    drop(server);
    let server = TcpServer::serve(Arc::clone(&served), "127.0.0.1:0").unwrap();
    transport.inner().add_peer(0, server.local_addr());
    match transport.request(0, &cardinality()) {
        Ok(Message::Value { bits }) => assert!(f64::from_bits(bits) > 0.0),
        other => panic!("expected Value, got {other:?}"),
    }
    assert_eq!(transport.consecutive_failures(0), 0);
    assert!(!transport.is_suspect(0));
}

#[test]
fn a_peer_restarted_on_its_old_port_is_reached_through_the_stale_socket() {
    let served = node(0, None);
    served.store().ingest("events", &[1, 2, 3]);
    let server = TcpServer::serve(Arc::clone(&served), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let transport = TcpTransport::new();
    transport.add_peer(0, addr);
    assert!(matches!(
        transport.request(0, &cardinality()),
        Ok(Message::Value { .. })
    ));

    // Same address, so the pooled socket survives and is now stale.
    drop(server);
    let server = TcpServer::serve(Arc::clone(&served), addr).unwrap();
    assert!(matches!(
        transport.request(0, &cardinality()),
        Ok(Message::Value { .. })
    ));
    server.shutdown();
}

#[test]
fn a_stall_on_a_reused_socket_costs_one_read_deadline() {
    let listener = ScriptedListener::spawn(|_, request| match request {
        0 => Reply::Answer,
        _ => Reply::Stall,
    });
    let deadline = Duration::from_secs(1);
    let transport = TcpTransport::with_timeouts(TcpTimeouts::uniform(deadline));
    transport.add_peer(7, listener.addr);
    assert!(matches!(
        transport.request(7, &cardinality()),
        Ok(Message::Ack)
    ));

    let started = Instant::now();
    let error = transport.request(7, &cardinality()).expect_err("stalled");
    let elapsed = started.elapsed();
    assert!(error.is_transient(), "stall surfaced as {error}");
    assert!(
        elapsed >= deadline && elapsed < deadline * 2,
        "a stalled reused socket took {elapsed:?} (deadline {deadline:?})"
    );
}

#[test]
fn timeouts_are_never_resent() {
    // The first connection answers once, then stalls; later ones serve.
    let listener = ScriptedListener::spawn(|connection, request| match (connection, request) {
        (0, 0) => Reply::Answer,
        (0, _) => Reply::Stall,
        _ => Reply::Answer,
    });
    let transport = TcpTransport::with_timeouts(TcpTimeouts::uniform(Duration::from_millis(200)));
    transport.add_peer(7, listener.addr);
    assert!(matches!(
        transport.request(7, &cardinality()),
        Ok(Message::Ack)
    ));
    assert!(transport.request(7, &cardinality()).is_err());
    assert_eq!(listener.connections(), 1, "a timed-out request was re-sent");
    // The timed-out socket was dropped, not parked: the next request
    // dials a fresh connection and is answered.
    assert!(matches!(
        transport.request(7, &cardinality()),
        Ok(Message::Ack)
    ));
    assert_eq!(listener.connections(), 2);
}

/// How a test stops the served node.
enum Stop {
    Shutdown,
    Drop,
    Remote,
}

/// Serves a durable node 0 beside a plain peer 1 whose gossip transport
/// pools sockets to node 0, gives a client transport an idle socket to
/// node 0 too, stops node 0 the given way, and checks the stop was
/// prompt and released the node.
fn stop_with_idle_pooled_sockets(stop: Stop) {
    let dir = scratch_dir();
    let served = node(0, Some(&dir));
    let peer = node(1, None);
    let mut server = TcpServer::serve(Arc::clone(&served), "127.0.0.1:0").unwrap();
    let mut peer_server = TcpServer::serve(Arc::clone(&peer), "127.0.0.1:0").unwrap();
    let gossip = Arc::new(TcpTransport::new());
    gossip.add_peer(0, server.local_addr());
    gossip.add_peer(1, peer_server.local_addr());
    for (outcome_peer, outcome) in peer.sync_round(&*gossip) {
        outcome.unwrap_or_else(|e| panic!("sync with {outcome_peer}: {e}"));
    }
    let interval = Duration::from_millis(20);
    server.start_gossip(Arc::clone(&served), Arc::clone(&gossip), interval);
    peer_server.start_gossip(Arc::clone(&peer), Arc::clone(&gossip), interval);

    let client = TcpTransport::new();
    client.add_peer(0, server.local_addr());
    let ingest = Message::Ingest {
        key: "events".into(),
        elements: vec![1, 2, 3],
    };
    assert!(matches!(client.request(0, &ingest), Ok(Message::Ack)));

    // Stop on another thread, so a stop that hangs fails the test
    // instead of hanging it.
    let addr = server.local_addr();
    let (stopped, stop_done) = mpsc::channel();
    let stopper = std::thread::spawn(move || {
        match stop {
            Stop::Shutdown => server.shutdown(),
            Stop::Drop => drop(server),
            Stop::Remote => {
                let remote = TcpTransport::new();
                remote.add_peer(0, addr);
                assert!(matches!(
                    remote.request(0, &Message::Shutdown),
                    Ok(Message::Ack)
                ));
                server.wait();
            }
        }
        stopped.send(()).unwrap();
    });
    match stop_done.recv_timeout(Duration::from_secs(2)) {
        Err(RecvTimeoutError::Timeout) => panic!("stopping the server took longer than 2 s"),
        _ => stopper.join().unwrap(),
    }
    assert_eq!(
        Arc::strong_count(&served),
        1,
        "a server thread still holds the node"
    );

    drop(served);
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(!dir.exists());
    assert!(client.request(0, &cardinality()).is_err());
    peer_server.shutdown();
    assert_eq!(Arc::strong_count(&peer), 1);
}

#[test]
fn shutdown_is_prompt_with_idle_pooled_sockets() {
    stop_with_idle_pooled_sockets(Stop::Shutdown);
}

#[test]
fn drop_is_prompt_with_idle_pooled_sockets() {
    stop_with_idle_pooled_sockets(Stop::Drop);
}

#[test]
fn remote_shutdown_and_wait_are_prompt_with_idle_pooled_sockets() {
    stop_with_idle_pooled_sockets(Stop::Remote);
}

/// Many threads through one transport: every answer arrives, and the
/// pool never holds more sockets than requests were ever in flight.
#[test]
fn concurrent_requests_each_get_a_socket() {
    let listener = ScriptedListener::spawn(|_, _| Reply::Answer);
    let transport = Arc::new(TcpTransport::new());
    transport.add_peer(7, listener.addr);
    let failures = Mutex::new(0);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..50 {
                    if !matches!(transport.request(7, &cardinality()), Ok(Message::Ack)) {
                        *failures.lock().unwrap() += 1;
                    }
                }
            });
        }
    });
    assert_eq!(*failures.lock().unwrap(), 0);
    assert!(
        listener.connections() <= 4,
        "{} connections",
        listener.connections()
    );
}
