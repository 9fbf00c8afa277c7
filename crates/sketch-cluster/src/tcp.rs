//! Real sockets: a frame-serving TCP server per node, and a
//! [`Transport`] that dials peers by address.
//!
//! Both sides speak the length-prefixed frame format from
//! [`wire`](crate::wire) over plain `std::net` TCP — no async runtime,
//! no external dependencies. Connections are **kept alive and pooled
//! per peer**: after a complete exchange the transport parks the
//! socket (at most 8 idle sockets per peer) and the next request to
//! that peer reuses it, so a point query pays neither a TCP handshake
//! nor a server thread spawn. The server runs one thread per live
//! connection, looping over request frames until the client hangs up.
//!
//! A pooled socket can turn out **stale**: the peer closed it while it
//! sat idle (restart, shutdown, crash). When a pooled socket fails
//! before any response byte arrives — end of stream, connection reset,
//! broken pipe or connection aborted — the request is re-sent exactly
//! once on a freshly dialed socket. Re-sending is safe because every
//! request is idempotent: a read has no effect, and an ingest or a
//! merge that did land before the hang-up lands again as a no-op
//! (register maxima absorb repeats). A timeout or an undecodable frame
//! is never re-sent, and a fresh socket's failure is surfaced as is.
//!
//! Every socket the transport opens carries **deadlines**
//! ([`TcpTimeouts`]): connect, read and write each time out instead of
//! blocking forever, so one unresponsive peer (a SIGSTOPped process, a
//! blackholed route, a listener that accepts and then stalls) can
//! delay a caller by at most the configured deadline — it cannot wedge
//! the gossip loop. Layer [`Resilient`](crate::Resilient) on top for
//! retries and suspicion tracking.
//!
//! Stopping a [`TcpServer`] closes every connection it is serving, idle
//! pooled ones included, before it joins their threads, so a peer's
//! parked socket cannot keep a stopped node (and its durable store)
//! alive.

use crate::bootstrap::BootstrapConfig;
use crate::error::ClusterError;
use crate::health::Resilient;
use crate::node::{ClusterNode, ClusterSketch};
use crate::transport::Transport;
use crate::wire::{read_frame, write_frame, FrameError, Message, NodeId};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-socket deadlines for every exchange a [`TcpTransport`] makes.
///
/// Each phase of the exchange — dialing, writing the request frame,
/// reading the response frame — is bounded independently, so the worst
/// case against a fully unresponsive peer is the sum of the three, not
/// forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpTimeouts {
    /// Deadline for establishing the connection.
    pub connect: Duration,
    /// Deadline for each blocking read on the socket.
    pub read: Duration,
    /// Deadline for each blocking write on the socket.
    pub write: Duration,
}

impl Default for TcpTimeouts {
    /// Five seconds per phase — generous against loaded peers, still
    /// bounded against dead ones.
    fn default() -> Self {
        TcpTimeouts {
            connect: Duration::from_secs(5),
            read: Duration::from_secs(5),
            write: Duration::from_secs(5),
        }
    }
}

impl TcpTimeouts {
    /// The same deadline for connect, read and write.
    pub fn uniform(deadline: Duration) -> Self {
        TcpTimeouts {
            connect: deadline,
            read: deadline,
            write: deadline,
        }
    }
}

/// Idle sockets kept per peer; a request that finds none dials, and a
/// socket finished while the pool is full is closed.
const MAX_IDLE_PER_PEER: usize = 8;

/// A [`Transport`] that reaches peers over TCP, every socket under
/// [`TcpTimeouts`] deadlines. Connections are kept alive and pooled
/// per peer (up to 8 idle ones): a request reuses an idle socket when
/// there is one and dials otherwise, and the socket goes back to the
/// pool after a complete exchange (after any error it is closed). When a pooled socket fails before any response byte with
/// end of stream, connection reset, broken pipe or connection aborted
/// — the peer closed it while it sat idle — the request is re-sent
/// exactly once on a fresh socket. That is safe because reads have no
/// effect and sketch inserts and merges are idempotent. A timeout or
/// an undecodable frame is never re-sent, so a stalled peer costs one
/// deadline, not two.
#[derive(Default)]
pub struct TcpTransport {
    peers: RwLock<HashMap<NodeId, SocketAddr>>,
    /// Idle sockets per peer, all to the peer's current address.
    idle: Mutex<HashMap<NodeId, Vec<TcpStream>>>,
    timeouts: TcpTimeouts,
}

impl TcpTransport {
    /// An empty address book with default deadlines.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty address book with the given deadlines.
    pub fn with_timeouts(timeouts: TcpTimeouts) -> Self {
        TcpTransport {
            timeouts,
            ..Self::default()
        }
    }

    /// The deadlines applied to every socket.
    pub fn timeouts(&self) -> TcpTimeouts {
        self.timeouts
    }

    /// Adds (or replaces) the address of `peer` — replacement is how a
    /// restarted node re-advertises itself under a new port. Idle
    /// sockets to a replaced address are closed.
    pub fn add_peer(&self, peer: NodeId, addr: SocketAddr) {
        // Lock order idle → peers, as in `park`, so a socket finishing
        // on the old address cannot be parked after its pool is dropped.
        let mut idle = self.idle.lock();
        if self.peers.write().insert(peer, addr) != Some(addr) {
            idle.remove(&peer);
        }
    }

    /// The known address of `peer`, if any.
    pub fn peer_addr(&self, peer: NodeId) -> Option<SocketAddr> {
        self.peers.read().get(&peer).copied()
    }

    fn dial(&self, addr: SocketAddr) -> io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&addr, self.timeouts.connect)?;
        stream.set_read_timeout(Some(self.timeouts.read))?;
        stream.set_write_timeout(Some(self.timeouts.write))?;
        stream.set_nodelay(true).ok();
        Ok(stream)
    }

    /// Returns a socket that completed an exchange to `peer`'s pool,
    /// unless the pool is full or `peer` has moved off `addr`.
    fn park(&self, peer: NodeId, addr: SocketAddr, stream: TcpStream) {
        let mut idle = self.idle.lock();
        if self.peer_addr(peer) != Some(addr) {
            return;
        }
        let pool = idle.entry(peer).or_default();
        if pool.len() < MAX_IDLE_PER_PEER {
            pool.push(stream);
        }
    }

    /// One exchange on `stream`; the socket goes back to the pool only
    /// when the exchange completed.
    fn exchange_and_park(
        &self,
        peer: NodeId,
        addr: SocketAddr,
        mut stream: TcpStream,
        message: &Message,
    ) -> Result<Message, Failure> {
        let response = exchange(&mut stream, message)?;
        self.park(peer, addr, stream);
        Ok(response)
    }
}

impl Transport for TcpTransport {
    fn request(&self, peer: NodeId, message: &Message) -> Result<Message, ClusterError> {
        let addr = self
            .peer_addr(peer)
            .ok_or(ClusterError::UnknownPeer(peer))?;
        let pooled = self.idle.lock().get_mut(&peer).and_then(Vec::pop);
        if let Some(stream) = pooled {
            match self.exchange_and_park(peer, addr, stream, message) {
                Ok(response) => return Ok(response),
                // The peer closed the idle socket: re-send once below.
                Err(failure) if failure.stale => {}
                Err(failure) => return Err(failure.error),
            }
        }
        let stream = self.dial(addr)?;
        self.exchange_and_park(peer, addr, stream, message)
            .map_err(|failure| failure.error)
    }
}

/// A failed exchange, and whether it failed because the socket was
/// stale: closed by the peer before any byte of the response arrived.
struct Failure {
    error: ClusterError,
    stale: bool,
}

/// Writes `message` and reads one response frame from `stream`.
fn exchange(stream: &mut TcpStream, message: &Message) -> Result<Message, Failure> {
    if let Err(error) = write_frame(stream, message) {
        return Err(Failure {
            stale: is_hang_up(&error),
            error: error.into(),
        });
    }
    let mut counted = CountingReader { stream, read: 0 };
    read_frame(&mut counted).map_err(|error| Failure {
        stale: counted.read == 0 && matches!(&error, FrameError::Io(e) if is_hang_up(e)),
        error: error.into(),
    })
}

/// The errors a socket the peer has closed produces. Timeouts
/// (`WouldBlock`/`TimedOut`) are deliberately absent: a stalled peer
/// must cost one deadline, not two.
fn is_hang_up(error: &io::Error) -> bool {
    matches!(
        error.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionAborted
    )
}

/// Counts the bytes read through it, to tell "no response at all"
/// from "a response cut short".
struct CountingReader<'a> {
    stream: &'a mut TcpStream,
    read: usize,
}

impl Read for CountingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.stream.read(buf)?;
        self.read += n;
        Ok(n)
    }
}

/// A node's serving half: accepts connections, answers request frames
/// with [`ClusterNode::handle`], and optionally runs the gossip timer.
///
/// Drop or [`shutdown`](Self::shutdown) stops the accept loop and the
/// gossip thread; a [`Message::Shutdown`] frame from any client does
/// the same remotely (the demo and CI use it to stop nodes cleanly).
/// Every stop closes the connections being served, idle keep-alive
/// ones included, and joins their threads, so once it returns no
/// server thread holds the node.
pub struct TcpServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    gossip_handle: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `addr` (use port 0 for an ephemeral port — see
    /// [`local_addr`](Self::local_addr)) and serves `node` on a
    /// background accept thread.
    pub fn serve<S: ClusterSketch>(
        node: Arc<ClusterNode<S>>,
        addr: impl ToSocketAddrs,
    ) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_handle = std::thread::Builder::new()
            .name(format!("cluster-accept-{}", node.id()))
            .spawn(move || accept_loop(listener, local_addr, node, accept_stop))?;
        Ok(TcpServer {
            local_addr,
            stop,
            accept_handle: Some(accept_handle),
            gossip_handle: None,
        })
    }

    /// Starts the gossip thread: every `interval`, one
    /// [`gossip_tick`](ClusterNode::gossip_tick) over `transport` —
    /// any [`Transport`], so a [`TcpTransport`] can be wrapped in
    /// [`Resilient`](crate::Resilient) for retries and suspicion
    /// tracking. Transient per-peer failures are expected and ignored
    /// — the next tick retries.
    pub fn start_gossip<S: ClusterSketch, T: Transport + Send + Sync + 'static>(
        &mut self,
        node: Arc<ClusterNode<S>>,
        transport: Arc<T>,
        interval: Duration,
    ) {
        let stop = Arc::clone(&self.stop);
        let handle = std::thread::Builder::new()
            .name(format!("cluster-gossip-{}", node.id()))
            .spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    std::thread::sleep(interval);
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let _ = node.gossip_tick(&*transport);
                }
            })
            .expect("spawn gossip thread");
        self.gossip_handle = Some(handle);
    }

    /// [`start_gossip`](Self::start_gossip) for a node that may be a
    /// cold replacement: before the tick loop starts, if the node
    /// [`needs_bootstrap`](ClusterNode::needs_bootstrap), the gossip
    /// thread first pulls a peer's checkpoint
    /// ([`ClusterNode::bootstrap`]), retrying on a fresh donor
    /// ordering every `interval` until some donor delivers — peers
    /// may still be coming up when a replaced node starts, so "no
    /// donor yet" is a condition to wait out, not an error. Delta
    /// sync then starts from the snapshot instead of from nothing.
    pub fn start_gossip_with_bootstrap<S: ClusterSketch, T: Transport + Send + Sync + 'static>(
        &mut self,
        node: Arc<ClusterNode<S>>,
        transport: Arc<Resilient<T>>,
        interval: Duration,
        config: BootstrapConfig,
    ) {
        let stop = Arc::clone(&self.stop);
        let handle = std::thread::Builder::new()
            .name(format!("cluster-gossip-{}", node.id()))
            .spawn(move || {
                while node.needs_bootstrap() && !stop.load(Ordering::Acquire) {
                    if node.bootstrap(&transport, &config).is_ok() {
                        break;
                    }
                    std::thread::sleep(interval);
                }
                while !stop.load(Ordering::Acquire) {
                    std::thread::sleep(interval);
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let _ = node.gossip_tick(&*transport);
                }
            })
            .expect("spawn gossip thread");
        self.gossip_handle = Some(handle);
    }

    /// The bound address (the actual port when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the gossip and accept threads and waits for both.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Blocks until the server stops on its own — i.e. until some
    /// client sends a [`Message::Shutdown`] frame. This is how a node
    /// process parks its main thread while the accept and gossip
    /// threads do the work.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.gossip_handle.take() {
            let _ = handle.join();
        }
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.gossip_handle.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop<S: ClusterSketch>(
    listener: TcpListener,
    local_addr: SocketAddr,
    node: Arc<ClusterNode<S>>,
    stop: Arc<AtomicBool>,
) {
    // A handle on every connection being served, by connection number;
    // each worker removes its own when its connection ends.
    let live: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::default();
    let mut workers = Vec::new();
    for (id, stream) in (0u64..).zip(listener.incoming()) {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let Ok(handle) = stream.try_clone() else {
            continue;
        };
        live.lock().insert(id, handle);
        let node = Arc::clone(&node);
        let conn_stop = Arc::clone(&stop);
        let conn_live = Arc::clone(&live);
        let spawned = std::thread::Builder::new()
            .name(format!("cluster-conn-{}", node.id()))
            .spawn(move || {
                serve_connection(stream, local_addr, &node, &conn_stop);
                conn_live.lock().remove(&id);
            });
        match spawned {
            Ok(worker) => workers.push(worker),
            Err(_) => {
                live.lock().remove(&id);
            }
        }
        workers.retain(|worker| !worker.is_finished());
    }
    // An idle pooled connection parks its worker in a read with no
    // deadline; closing the socket ends that read so the join returns.
    for stream in live.lock().values() {
        let _ = stream.shutdown(Shutdown::Both);
    }
    for worker in workers {
        let _ = worker.join();
    }
}

/// Serves one connection until the client hangs up, a frame is
/// unrecoverable, or a [`Message::Shutdown`] arrives (which also stops
/// the whole server).
fn serve_connection<S: ClusterSketch>(
    mut stream: TcpStream,
    local_addr: SocketAddr,
    node: &ClusterNode<S>,
    stop: &AtomicBool,
) {
    stream.set_nodelay(true).ok();
    loop {
        let request = match read_frame(&mut stream) {
            Ok(message) => message,
            // Clean EOF or connection reset: the client is done.
            Err(FrameError::Io(_)) => return,
            // Malformed frame: report it and hang up — framing is
            // unrecoverable once the byte stream is off the rails. A
            // handshake mismatch (wrong magic, other protocol version)
            // gets the dedicated Unsupported code so old clients see a
            // typed refusal rather than a generic parse failure.
            Err(FrameError::Wire(error)) => {
                let code = if error.is_handshake_mismatch() {
                    crate::wire::ErrorCode::Unsupported
                } else {
                    crate::wire::ErrorCode::BadRequest
                };
                let reply = Message::Error {
                    code,
                    detail: error.to_string(),
                };
                let _ = write_frame(&mut stream, &reply);
                return;
            }
        };
        if matches!(request, Message::Shutdown) {
            let _ = write_frame(&mut stream, &Message::Ack);
            stop.store(true, Ordering::Release);
            // Unblock the accept loop so it observes the flag.
            let _ = TcpStream::connect(local_addr);
            return;
        }
        let response = node.handle(request);
        if write_frame(&mut stream, &response).is_err() {
            return;
        }
    }
}
