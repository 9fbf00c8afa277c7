//! Spans recorded around calls into each layer's public functions, from
//! the benchmark's own code: a client-side [`Transport`] that repeats
//! `TcpTransport::request`'s exchange step by step, a serve loop that
//! makes `TcpServer`'s three calls (`read_frame`, `ClusterNode::handle`,
//! `write_frame`), and a gossip thread that calls
//! `ClusterNode::gossip_tick` on `start_gossip`'s schedule.
//!
//! Spans are kept in memory and analysed when the run ends.

use setsketch::SetSketch2;
use sketch_cluster::wire::{read_frame, MAX_FRAME_BYTES};
use sketch_cluster::{
    ClusterError, ClusterNode, Message, NodeId, SyncReport, TcpTimeouts, Transport,
};
use std::cell::Cell;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frame header: magic (2) + version (1) + payload length (4).
const FRAME_HEADER_BYTES: usize = 7;

/// One timed step. `parent` is 0 for a root; spans of one request share
/// `req`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    /// Wire message kind (or operation name for client ops).
    pub kind: &'static str,
    pub start: u64,
    pub end: u64,
    /// Frame bytes for encode/decode spans, a flag otherwise.
    pub bytes: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end - self.start) as f64 / 1e3
    }
}

thread_local! {
    /// (request id, parent span id) of the work this thread is doing.
    static CONTEXT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// What a gossip tick reported.
#[derive(Debug, Clone)]
pub struct TickRecord {
    pub span: u64,
    /// Per peer pull: (report, true for the anti-entropy full pull).
    pub pulls: Vec<(Option<SyncReport>, bool)>,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Client socket port -> (request, wait span), so server-side spans
    /// find their parent.
    conns: Mutex<HashMap<u16, (u64, u64)>>,
    pub ticks: Mutex<Vec<TickRecord>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            conns: Mutex::new(HashMap::new()),
            ticks: Mutex::new(Vec::new()),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        req: u64,
        name: &'static str,
        kind: &'static str,
        start: u64,
        bytes: u64,
    ) {
        let end = self.now();
        locked(&self.spans).push(Span {
            id,
            parent,
            req,
            name,
            kind,
            start,
            end,
            bytes,
        });
    }

    /// Records a child span of the thread's current context.
    fn child(&self, name: &'static str, kind: &'static str, parent: u64, start: u64, bytes: u64) {
        let (req, _) = context();
        self.record(self.new_id(), parent, req, name, kind, start, bytes);
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *locked(&self.spans))
    }
}

/// Locks a tracer table; a panic while holding one is a bug.
pub fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect("tracer lock poisoned")
}

pub fn set_context(req: u64, parent: u64) {
    CONTEXT.with(|c| c.set((req, parent)));
}

fn context() -> (u64, u64) {
    CONTEXT.with(Cell::get)
}

/// Reads one raw frame (header, then payload) without decoding it.
fn read_raw(stream: &mut TcpStream) -> Result<Vec<u8>, ClusterError> {
    let mut frame = vec![0u8; FRAME_HEADER_BYTES];
    stream.read_exact(&mut frame)?;
    read_payload(stream, frame)
}

fn read_payload(stream: &mut TcpStream, mut frame: Vec<u8>) -> Result<Vec<u8>, ClusterError> {
    let declared = u32::from_le_bytes(frame[3..7].try_into().expect("4 bytes")) as usize;
    if declared > MAX_FRAME_BYTES {
        // Let the codec produce its typed refusal from the header alone.
        read_frame(&mut frame.as_slice())?;
    }
    frame.resize(FRAME_HEADER_BYTES + declared, 0);
    stream.read_exact(&mut frame[FRAME_HEADER_BYTES..])?;
    Ok(frame)
}

/// The client side of `TcpTransport::request`, one span per step:
/// connect, encode, write, wait for the first response byte, read the
/// rest, decode.
pub struct TracingTransport {
    peers: HashMap<NodeId, SocketAddr>,
    timeouts: TcpTimeouts,
    tracer: Arc<Tracer>,
}

impl TracingTransport {
    pub fn new(
        peers: HashMap<NodeId, SocketAddr>,
        timeouts: TcpTimeouts,
        tracer: Arc<Tracer>,
    ) -> Self {
        TracingTransport {
            peers,
            timeouts,
            tracer,
        }
    }
}

impl Transport for TracingTransport {
    fn request(&self, peer: NodeId, message: &Message) -> Result<Message, ClusterError> {
        let t = &*self.tracer;
        let (req, parent) = context();
        let exchange = t.new_id();
        let kind = message.kind();
        let begin = t.now();
        let result = (|| {
            let addr = *self
                .peers
                .get(&peer)
                .ok_or(ClusterError::UnknownPeer(peer))?;
            let start = t.now();
            let mut stream = TcpStream::connect_timeout(&addr, self.timeouts.connect)?;
            t.child("tcp.connect", kind, exchange, start, 0);
            stream.set_read_timeout(Some(self.timeouts.read))?;
            stream.set_write_timeout(Some(self.timeouts.write))?;
            stream.set_nodelay(true).ok();

            let start = t.now();
            let frame = message.encode_frame();
            t.child("wire.encode", kind, exchange, start, frame.len() as u64);

            let wait = t.new_id();
            let port = stream.local_addr()?.port();
            locked(&t.conns).insert(port, (req, wait));
            let start = t.now();
            stream.write_all(&frame)?;
            stream.flush()?;
            t.child("tcp.write", kind, exchange, start, 0);

            let start = t.now();
            let mut header = vec![0u8; FRAME_HEADER_BYTES];
            stream.read_exact(&mut header)?;
            t.record(wait, exchange, req, "tcp.wait", kind, start, 0);

            let start = t.now();
            let response = read_payload(&mut stream, header)?;
            t.child("tcp.read", kind, exchange, start, 0);
            locked(&t.conns).remove(&port);

            let start = t.now();
            let decoded = read_frame(&mut response.as_slice())?;
            t.child("wire.decode", kind, exchange, start, response.len() as u64);
            Ok(decoded)
        })();
        t.record(
            exchange,
            parent,
            req,
            "exchange",
            kind,
            begin,
            result.is_err() as u64,
        );
        result
    }
}

/// A node served by the benchmark's own loop instead of `TcpServer`.
pub struct TracedServer {
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    gossip: Option<JoinHandle<()>>,
}

impl TracedServer {
    pub fn serve(
        node: Arc<ClusterNode<SetSketch2>>,
        tracer: Arc<Tracer>,
    ) -> std::io::Result<TracedServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept = std::thread::Builder::new()
            .name("bench-accept".into())
            .spawn(move || {
                let mut workers: Vec<JoinHandle<()>> = Vec::new();
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let node = Arc::clone(&node);
                    let tracer = Arc::clone(&tracer);
                    if let Ok(handle) = std::thread::Builder::new()
                        .name("bench-conn".into())
                        .spawn(move || serve_connection(stream, &node, &tracer))
                    {
                        workers.push(handle);
                    }
                    workers.retain(|handle| !handle.is_finished());
                }
                for handle in workers {
                    handle.join().expect("connection thread panicked");
                }
            })?;
        Ok(TracedServer {
            addr,
            stop,
            accept: Some(accept),
            gossip: None,
        })
    }

    /// Calls `gossip_tick` every `interval`, as `start_gossip` does, and
    /// keeps the reports.
    pub fn start_gossip<T: Transport + Send + Sync + 'static>(
        &mut self,
        node: Arc<ClusterNode<SetSketch2>>,
        transport: Arc<T>,
        interval: Duration,
        tracer: Arc<Tracer>,
    ) {
        let stop = Arc::clone(&self.stop);
        let peers = node.peers().len();
        self.gossip = Some(
            std::thread::Builder::new()
                .name("bench-gossip".into())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        std::thread::sleep(interval);
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let id = tracer.new_id();
                        set_context(id, id);
                        let start = tracer.now();
                        let reports = node.gossip_tick(&*transport);
                        tracer.record(id, 0, id, "sync.tick", "tick", start, 0);
                        let pulls = reports
                            .into_iter()
                            .enumerate()
                            .map(|(i, (_, report))| (report.ok(), i >= peers))
                            .collect();
                        locked(&tracer.ticks).push(TickRecord { span: id, pulls });
                    }
                })
                .expect("spawn gossip thread"),
        );
    }

    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.gossip.take() {
            handle.join().expect("gossip thread panicked");
        }
        if let Some(handle) = self.accept.take() {
            handle.join().expect("accept thread panicked");
        }
    }
}

/// `TcpServer`'s connection loop, one span per call.
fn serve_connection(mut stream: TcpStream, node: &ClusterNode<SetSketch2>, tracer: &Tracer) {
    stream.set_nodelay(true).ok();
    let port = stream.peer_addr().map(|a| a.port()).unwrap_or(0);
    loop {
        let Ok(frame) = read_raw(&mut stream) else {
            return;
        };
        let (req, wait) = locked(&tracer.conns).get(&port).copied().unwrap_or((0, 0));
        set_context(req, wait);
        let start = tracer.now();
        let request = match read_frame(&mut frame.as_slice()) {
            Ok(request) => request,
            Err(_) => return,
        };
        let kind = request.kind();
        tracer.child("wire.decode", kind, wait, start, frame.len() as u64);

        let checkpoint_before = latest_checkpoint_epoch(node);
        let start = tracer.now();
        let response = node.handle(request);
        // Flag handles that overlapped a new checkpoint.
        let overlapped = latest_checkpoint_epoch(node) != checkpoint_before;
        tracer.child("node.handle", kind, wait, start, overlapped as u64);

        let start = tracer.now();
        let out = response.encode_frame();
        tracer.child("wire.encode", kind, wait, start, out.len() as u64);
        let start = tracer.now();
        let written = stream.write_all(&out).and_then(|()| stream.flush());
        tracer.child("server.write", kind, wait, start, 0);
        if written.is_err() {
            return;
        }
    }
}

fn latest_checkpoint_epoch(node: &ClusterNode<SetSketch2>) -> Option<u64> {
    node.store()
        .latest_checkpoint_meta()
        .map(|meta| meta.write_epoch)
}
