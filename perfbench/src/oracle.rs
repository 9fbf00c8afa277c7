//! The correctness oracle: after the timed phase the replicas must equal
//! a reference store fed exactly the acknowledged stream, the cluster's
//! answers must equal the reference's, and a node rebuilt from its
//! durable directory must equal its pre-restart registers.

use crate::cluster::{payloads, Cluster, Factory, Sketch};
use crate::drive::Acked;
use crate::gen::{batch_elements, stream_key, Op, Rng, Spec, TOPK_K};
use crate::speed::Probe;
use crate::stats::median;
use sketch_cluster::{ClusterClient, Transport};
use sketch_store::SketchStore;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// A reference store fed the preload and every acknowledged ingest.
pub fn reference_store(
    spec: &Spec,
    factory: &Factory,
    corpus: &[(String, Option<usize>)],
    seed: u64,
    acked: &[Acked],
) -> SketchStore<Sketch> {
    let store = factory.memory_store();
    std::thread::scope(|scope| {
        for lane in 0..2 {
            let store = &store;
            scope.spawn(move || {
                for (index, (key, family)) in corpus.iter().enumerate().skip(lane).step_by(2) {
                    store.ingest(key, &spec.preload_elements(index, *family, seed));
                }
                for a in acked.iter().skip(lane).step_by(2) {
                    store.ingest(&a.key, &batch_elements(a.seed));
                }
            });
        }
    });
    store
}

fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Compares the cluster's answers on the converged state with the
/// reference store's, over a sample of the run's own read requests.
pub fn check_answers<T: Transport>(
    client: &ClusterClient<Sketch, T>,
    reference: &SketchStore<Sketch>,
    reads: &[Op],
    threshold: f64,
) -> Result<usize, String> {
    let mut checked = 0;
    let mut per_kind: BTreeMap<&'static str, usize> = BTreeMap::new();
    for op in reads {
        let kind = op.kind().metric();
        let budget = per_kind.entry(kind).or_default();
        if *budget >= 40 {
            continue;
        }
        *budget += 1;
        match op {
            Op::Cardinality { key } => {
                let got = client.cardinality(key).map_err(|e| e.to_string())?;
                let want = reference.cardinality(key).map_err(|e| e.to_string())?;
                if !same(got, want) {
                    return Err(format!(
                        "cardinality({key}): cluster {got} vs reference {want}"
                    ));
                }
            }
            Op::Jaccard { left, right } => {
                let got = client.jaccard(left, right).map_err(|e| e.to_string())?;
                let want = reference.jaccard(left, right).map_err(|e| e.to_string())?;
                if !same(got, want) {
                    return Err(format!(
                        "jaccard({left}, {right}): cluster {got} vs reference {want}"
                    ));
                }
            }
            Op::TopK { key } => {
                let got: Vec<(String, u64)> = client
                    .similar_keys(key, TOPK_K, threshold)
                    .map_err(|e| e.to_string())?
                    .into_iter()
                    .map(|n| (n.key, n.jaccard_bits))
                    .collect();
                let want: Vec<(String, u64)> = reference
                    .similar_keys_at(key, TOPK_K, threshold)
                    .map_err(|e| e.to_string())?
                    .into_iter()
                    .map(|n| (n.key, n.quantities.jaccard.to_bits()))
                    .collect();
                if got != want {
                    return Err(format!(
                        "similar_keys({key}): cluster {got:?} vs reference {want:?}"
                    ));
                }
            }
            Op::Union { keys } => {
                let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
                let got = client.union_cardinality(&keys).map_err(|e| e.to_string())?;
                let want = reference
                    .union_cardinality(&keys)
                    .map_err(|e| e.to_string())?;
                if !same(got, want) {
                    return Err(format!(
                        "union({keys:?}): cluster {got} vs reference {want}"
                    ));
                }
            }
            Op::Ingest { .. } => continue,
        }
        checked += 1;
    }
    Ok(checked)
}

/// Converges the replicas and checks them against the reference.
pub fn check_replicas(cluster: &Cluster, reference: &SketchStore<Sketch>) -> Result<(), String> {
    let converged = cluster.converge()?;
    let want = payloads(reference);
    if converged.len() != want.len() {
        return Err(format!(
            "replicas hold {} keys, reference {}",
            converged.len(),
            want.len()
        ));
    }
    for (key, payload) in &want {
        if converged.get(key) != Some(payload) {
            return Err(format!(
                "key {key}: replica payload differs from the reference"
            ));
        }
    }
    Ok(())
}

/// WAL records a restarted node replays: the same amount every run, so
/// `recover_s` does not depend on where the checkpoint cadence left the
/// log when the timed phase ended.
pub const RESTART_TAIL: usize = 4000;
/// Rebuilds per run; `recover_s` is their median.
const REBUILDS: usize = 15;

/// Gives a stopped replica a fixed recovery job: a checkpoint of its
/// state, then [`RESTART_TAIL`] fresh batches into its stream keys logged
/// on top of it.
pub fn prepare_restart(
    store: &SketchStore<Sketch>,
    stream_keys: usize,
    seed: u64,
) -> Result<(), String> {
    store
        .checkpoint()
        .map_err(|e| format!("checkpoint before restart: {e}"))?;
    let mut rng = Rng::stream(seed, 0x7E57A27);
    for _ in 0..RESTART_TAIL {
        let key = stream_key(rng.below(stream_keys));
        store.ingest(&key, &batch_elements(rng.next_u64()));
    }
    Ok(())
}

/// What rebuilding one node from its durable directory showed.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// The median rebuild at the reference speed (see `speed`).
    pub recover_s: f64,
    /// Each rebuild's wall-clock seconds.
    pub rebuilds_s: Vec<f64>,
    pub checkpoint_load_s: f64,
    pub replay_records: usize,
    pub checkpoint_entries: usize,
}

/// Rebuilds a stopped replica's store from `dir` [`REBUILDS`] times,
/// checks each rebuild against `before`, and times loading its newest
/// checkpoint alone (the part of `recover_s` that is not WAL replay).
/// `probe` gives each rebuild the host's speed while it runs.
pub fn recover(
    spec: &Spec,
    factory: &Factory,
    dir: &Path,
    before: &BTreeMap<String, Vec<u8>>,
    probe: &Probe,
) -> Result<Recovery, String> {
    let mut recover_s = Vec::new();
    let mut scaled_s = Vec::new();
    let mut report = None;
    let mut checkpoint = None;
    for _ in 0..REBUILDS {
        let ((store, seconds), factor) = probe.during(|| {
            let start = Instant::now();
            let store = factory.durable_store(spec, dir);
            (store, start.elapsed().as_secs_f64())
        });
        recover_s.push(seconds);
        scaled_s.push(seconds * factor);
        let found = store
            .recovery_report()
            .cloned()
            .ok_or("durable store has no recovery report")?;
        if !found.is_clean() {
            return Err(format!("recovery was not clean: {found}"));
        }
        if &payloads(&store) != before {
            return Err("rebuilt node differs from its pre-restart registers".into());
        }
        checkpoint = store.latest_checkpoint_meta();
        report = Some(found);
    }
    let report = report.expect("at least one rebuild");

    let mut checkpoint_load_s = Vec::new();
    if let Some(meta) = checkpoint {
        let only = dir.with_extension("checkpoint-only");
        std::fs::create_dir_all(only.join("wal")).map_err(|e| e.to_string())?;
        let name = meta.path.file_name().ok_or("checkpoint has no file name")?;
        std::fs::copy(&meta.path, only.join("wal").join(name)).map_err(|e| e.to_string())?;
        for _ in 0..REBUILDS {
            let ((store, seconds), factor) = probe.during(|| {
                let start = Instant::now();
                let store = factory.durable_store(spec, &only);
                (store, start.elapsed().as_secs_f64())
            });
            checkpoint_load_s.push(seconds * factor);
            drop(store);
        }
        std::fs::remove_dir_all(&only).map_err(|e| e.to_string())?;
    }
    Ok(Recovery {
        recover_s: median(&scaled_s),
        rebuilds_s: recover_s,
        checkpoint_load_s: if checkpoint_load_s.is_empty() {
            0.0
        } else {
            median(&checkpoint_load_s)
        },
        replay_records: report.records_replayed,
        checkpoint_entries: report.checkpoint_entries,
    })
}
