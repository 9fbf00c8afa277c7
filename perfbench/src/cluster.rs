//! Two durable replicas in-process: `SketchStore` with a `durable_dir`
//! and `FsyncPolicy::Os`, wrapped in `ClusterNode`, served over TCP on
//! 127.0.0.1 with gossip on a fixed interval.

use crate::gen::Spec;
use crate::trace::{TracedServer, Tracer, TracingTransport};
use setsketch::{SetSketch2, SetSketchConfig};
use sketch_cluster::{
    ClusterClient, ClusterNode, HashRing, NodeId, TcpServer, TcpTimeouts, TcpTransport,
};
use sketch_store::{FsyncPolicy, SketchStore};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Sketch = SetSketch2;
pub type Node = ClusterNode<Sketch>;

pub const NODE_IDS: [NodeId; 2] = [0, 1];
/// Interval of every node's gossip tick.
pub const GOSSIP_INTERVAL: Duration = Duration::from_millis(100);
/// WAL bytes that trigger an inline checkpoint.
pub const CHECKPOINT_AFTER_BYTES: u64 = 4 << 20;
/// Per-phase socket deadline.
pub const SOCKET_DEADLINE: Duration = Duration::from_secs(5);

/// A store factory every replica and every reference store shares:
/// same configuration, same hash seed, one shared power table.
#[derive(Clone)]
pub struct Factory {
    config: SetSketchConfig,
    seed: u64,
    prototype: SetSketch2,
}

impl Factory {
    pub fn new(spec: &Spec) -> Factory {
        let s = spec.sketch;
        let config = SetSketchConfig::new(s.m, s.b, s.a, s.q).expect("valid sketch config");
        Factory {
            config,
            seed: s.seed,
            prototype: SetSketch2::new(config, s.seed),
        }
    }

    pub fn sketch(&self) -> SetSketch2 {
        SetSketch2::with_shared_table(
            self.config,
            self.seed,
            Arc::clone(self.prototype.power_table()),
        )
    }

    pub fn builder(&self) -> sketch_store::StoreBuilder<SetSketch2> {
        let factory = self.clone();
        SketchStore::builder(move || factory.sketch())
    }

    /// A plain in-memory store (the reference and replay stores).
    pub fn memory_store(&self) -> SketchStore<SetSketch2> {
        self.builder().build()
    }

    /// A replica's durable store under `dir`, tiered when the workload
    /// sets a memory budget.
    pub fn durable_store(&self, spec: &Spec, dir: &Path) -> SketchStore<SetSketch2> {
        let mut builder = self
            .builder()
            .durable_dir(dir.join("wal"))
            .fsync_policy(FsyncPolicy::Os)
            .checkpoint_after_bytes(CHECKPOINT_AFTER_BYTES);
        if let Some(budget) = spec.memory_budget_bytes {
            builder = builder
                .memory_budget_bytes(budget)
                .spill_dir(dir.join("spill"));
        }
        builder.build()
    }
}

enum Server {
    Plain(TcpServer),
    Traced(TracedServer),
}

pub struct Replica {
    pub node: Arc<Node>,
    pub dir: PathBuf,
    server: Option<Server>,
}

pub struct Cluster {
    pub replicas: Vec<Replica>,
    pub dir: PathBuf,
    plain: Arc<TcpTransport>,
    traced: Option<Arc<TracingTransport>>,
}

pub fn timeouts() -> TcpTimeouts {
    TcpTimeouts::uniform(SOCKET_DEADLINE)
}

impl Cluster {
    /// Builds the replicas, serves them with `TcpServer` and starts
    /// gossip.
    pub fn start(spec: &Spec, factory: &Factory, dir: &Path) -> Cluster {
        std::fs::create_dir_all(dir).expect("create cluster dir");
        let transport = Arc::new(TcpTransport::with_timeouts(timeouts()));
        let mut replicas = Vec::new();
        for id in NODE_IDS {
            let node_dir = dir.join(format!("node-{id}"));
            let store = factory.durable_store(spec, &node_dir);
            let node = Arc::new(
                ClusterNode::new(id, NODE_IDS, store).full_sync_every(spec.full_sync_every),
            );
            let server = TcpServer::serve(Arc::clone(&node), "127.0.0.1:0").expect("bind loopback");
            transport.add_peer(id, server.local_addr());
            replicas.push(Replica {
                node,
                dir: node_dir,
                server: Some(Server::Plain(server)),
            });
        }
        for replica in &mut replicas {
            if let Some(Server::Plain(server)) = replica.server.as_mut() {
                server.start_gossip(
                    Arc::clone(&replica.node),
                    Arc::clone(&transport),
                    GOSSIP_INTERVAL,
                );
            }
        }
        Cluster {
            replicas,
            dir: dir.to_path_buf(),
            plain: transport,
            traced: None,
        }
    }

    pub fn plain_client(&self, factory: &Factory) -> ClusterClient<Sketch, Arc<TcpTransport>> {
        ClusterClient::new(
            Arc::clone(&self.plain),
            HashRing::new(&NODE_IDS),
            factory.sketch(),
        )
    }

    pub fn traced_client(&self, factory: &Factory) -> ClusterClient<Sketch, Arc<TracingTransport>> {
        let transport = self.traced.as_ref().expect("cluster is traced");
        ClusterClient::new(
            Arc::clone(transport),
            HashRing::new(&NODE_IDS),
            factory.sketch(),
        )
    }

    /// Moves every replica from `TcpServer` to the benchmark's traced
    /// serve loop and traced gossip thread. The stores carry over.
    pub fn switch_to_traced(&mut self, tracer: &Arc<Tracer>) {
        self.stop_servers();
        let mut servers = Vec::new();
        let mut peers = HashMap::new();
        for replica in &self.replicas {
            let server = TracedServer::serve(Arc::clone(&replica.node), Arc::clone(tracer))
                .expect("bind loopback");
            peers.insert(replica.node.id(), server.addr);
            servers.push(server);
        }
        let transport = Arc::new(TracingTransport::new(peers, timeouts(), Arc::clone(tracer)));
        for (replica, mut server) in self.replicas.iter_mut().zip(servers) {
            server.start_gossip(
                Arc::clone(&replica.node),
                Arc::clone(&transport),
                GOSSIP_INTERVAL,
                Arc::clone(tracer),
            );
            replica.server = Some(Server::Traced(server));
        }
        self.traced = Some(transport);
    }

    fn stop_servers(&mut self) {
        for replica in &mut self.replicas {
            match replica.server.take() {
                Some(Server::Plain(server)) => server.shutdown(),
                Some(Server::Traced(server)) => server.shutdown(),
                None => {}
            }
        }
    }

    /// Pulls full state both ways until both replicas hold bit-for-bit
    /// equal payloads; returns the converged payloads.
    pub fn converge(&self) -> Result<BTreeMap<String, Vec<u8>>, String> {
        for _ in 0..50 {
            for replica in &self.replicas {
                for &peer in replica.node.peers() {
                    let pulled = match &self.traced {
                        Some(transport) => replica.node.full_sync_with(&**transport, peer),
                        None => replica.node.full_sync_with(&*self.plain, peer),
                    };
                    pulled.map_err(|e| format!("full pull from {peer} failed: {e}"))?;
                }
            }
            let first = payloads(self.replicas[0].node.store());
            if self.replicas[1..]
                .iter()
                .all(|r| payloads(r.node.store()) == first)
            {
                return Ok(first);
            }
        }
        Err("replicas did not converge in 50 full rounds".into())
    }

    /// Stops serving and gossip, and returns the replicas' directories
    /// and nodes for recovery checks. The caller drops the nodes.
    pub fn stop(mut self) -> (Vec<Replica>, PathBuf) {
        self.stop_servers();
        (std::mem::take(&mut self.replicas), self.dir.clone())
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.stop_servers();
    }
}

/// Every key's compact payload, via the store's own delta sweep.
pub fn payloads(store: &SketchStore<Sketch>) -> BTreeMap<String, Vec<u8>> {
    store
        .delta_since(0)
        .entries
        .into_iter()
        .map(|entry| (entry.key, entry.payload))
        .collect()
}

/// Preload, replica catch-up and index build: the set-up a run pays
/// before its timed phase.
pub struct Setup {
    pub cluster: Cluster,
    pub seconds: f64,
    pub index_build_s: f64,
}

pub fn setup(
    spec: &Spec,
    factory: &Factory,
    corpus: &[(String, Option<usize>)],
    seed: u64,
    dir: &Path,
) -> Result<Setup, String> {
    let start = Instant::now();
    let cluster = Cluster::start(spec, factory, dir);
    let client = cluster.plain_client(factory);
    let failures = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for lane in 0..2 {
            let (client, failures) = (&client, &failures);
            scope.spawn(move || {
                for (index, (key, family)) in corpus.iter().enumerate().skip(lane).step_by(2) {
                    let elements = spec.preload_elements(index, *family, seed);
                    if client.ingest(key, &elements).is_err() {
                        failures.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            });
        }
    });
    if failures.into_inner() > 0 {
        return Err("preload ingest failed".into());
    }
    // Catch-up: gossip alone carries each key to the other replica.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let counts: Vec<usize> = cluster
            .replicas
            .iter()
            .map(|r| r.node.store().len())
            .collect();
        if counts.iter().all(|&n| n == corpus.len()) {
            let first = payloads(cluster.replicas[0].node.store());
            if cluster.replicas[1..]
                .iter()
                .all(|r| payloads(r.node.store()) == first)
            {
                break;
            }
        }
        if Instant::now() > deadline {
            return Err(format!(
                "replicas did not catch up: {counts:?} of {}",
                corpus.len()
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let index_start = Instant::now();
    for replica in &cluster.replicas {
        replica
            .node
            .store()
            .build_similarity_index(spec.topk_threshold);
    }
    let index_build_s = index_start.elapsed().as_secs_f64();
    Ok(Setup {
        cluster,
        seconds: start.elapsed().as_secs_f64(),
        index_build_s,
    })
}
