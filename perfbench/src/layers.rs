//! Per-layer metrics: what the traced phase's spans and gossip reports
//! show, and what replaying the acknowledged stream into fresh
//! in-process stores and bare sketches measures.

use crate::cluster::{Factory, Sketch};
use crate::drive::Acked;
use crate::gen::{batch_elements, Op, Spec, BATCH, TOPK_K};
use crate::stats::{percentile, Summary};
use crate::trace::{Span, TickRecord};
use sketch_core::{CardinalityEstimator, CompactSketch, JointEstimator};
use sketch_store::SketchStore;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (0 when the layer did no such work).
    pub n: usize,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            n,
        });
    }

    /// p50 and p99 (or the tail rule's percentile) of `samples`.
    pub fn dist(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        let s = Summary::of(samples);
        let n = samples.len();
        self.push(format!("{name}.p50"), s.map_or(0.0, |s| s.p50), unit, n);
        self.push(format!("{name}.p99"), s.map_or(0.0, |s| s.tail), unit, n);
    }

    pub fn p50(&mut self, name: impl Into<String>, samples: &[f64], unit: &'static str) {
        self.push(name, p50_of(samples), unit, samples.len());
    }

    pub fn mean(&mut self, name: impl Into<String>, samples: &[f64], unit: &'static str) {
        let value = if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<f64>() / samples.len() as f64
        };
        self.push(name, value, unit, samples.len());
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// The wire request kinds the per-kind metrics cover.
pub const WIRE_KINDS: [&str; 6] = [
    "ingest",
    "cardinality",
    "jaccard",
    "similar_keys",
    "union_sketch",
    "delta_request",
];

/// Median of `samples`, 0 when there are none.
fn p50_of(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.p50)
}

/// Inputs to the span analysis that come from outside the trace.
pub struct TraceContext<'a> {
    pub ticks: &'a [TickRecord],
    /// Time to decompress one payload: a cardinality read whose handle
    /// took at least this much longer than a hot read (the fastest tenth)
    /// counts as a cold read.
    pub rehydrate_us: f64,
    /// False when the stores have no memory budget: the tier manager is
    /// off, so no read can be cold.
    pub tiered: bool,
}

/// Metrics of the tcp, wire, client, node and sync layers.
pub fn analyse_spans(spans: &[Span], cx: &TraceContext<'_>, out: &mut Metrics) {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for span in spans {
        if span.parent != 0 {
            children.entry(span.parent).or_default().push(span);
        }
    }
    let kids = |id: u64| children.get(&id).map(Vec::as_slice).unwrap_or(&[]);
    let child_us = |id: u64, name: &str| -> f64 {
        kids(id)
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.us())
            .sum()
    };
    let is_op = |s: &Span| s.name == "op";
    let ops: Vec<&Span> = spans.iter().filter(|s| is_op(s)).collect();

    // tcp
    let connects: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "tcp.connect")
        .map(Span::us)
        .collect();
    out.dist("tcp.connect_us", &connects, "us");
    let op_connects: usize = ops
        .iter()
        .flat_map(|op| kids(op.id))
        .map(|ex| {
            kids(ex.id)
                .iter()
                .filter(|s| s.name == "tcp.connect")
                .count()
        })
        .sum();
    out.push(
        "tcp.connects_per_op",
        op_connects as f64 / ops.len().max(1) as f64,
        "count",
        ops.len(),
    );
    let waits: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "tcp.wait")
        .map(|w| w.us() - child_us(w.id, "node.handle"))
        .collect();
    out.dist("tcp.server_wait_us", &waits, "us");

    // wire, per request kind: both legs of each exchange.
    let mut encode: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut decode: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut req_bytes: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut resp_bytes: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for ex in spans
        .iter()
        .filter(|s| s.name == "exchange" && s.bytes == 0)
    {
        let mut enc = child_us(ex.id, "wire.encode");
        let mut dec = child_us(ex.id, "wire.decode");
        for wait in kids(ex.id).iter().filter(|s| s.name == "tcp.wait") {
            enc += child_us(wait.id, "wire.encode");
            dec += child_us(wait.id, "wire.decode");
        }
        let bytes = |name: &str| {
            kids(ex.id)
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.bytes as f64)
                .sum::<f64>()
        };
        encode.entry(ex.kind).or_default().push(enc);
        decode.entry(ex.kind).or_default().push(dec);
        req_bytes
            .entry(ex.kind)
            .or_default()
            .push(bytes("wire.encode"));
        resp_bytes
            .entry(ex.kind)
            .or_default()
            .push(bytes("wire.decode"));
    }
    let none: Vec<f64> = Vec::new();
    for kind in WIRE_KINDS {
        out.p50(
            format!("wire.encode_us.{kind}"),
            encode.get(kind).unwrap_or(&none),
            "us",
        );
        out.p50(
            format!("wire.decode_us.{kind}"),
            decode.get(kind).unwrap_or(&none),
            "us",
        );
        out.mean(
            format!("wire.req_bytes_per_op.{kind}"),
            req_bytes.get(kind).unwrap_or(&none),
            "bytes",
        );
        out.mean(
            format!("wire.resp_bytes_per_op.{kind}"),
            resp_bytes.get(kind).unwrap_or(&none),
            "bytes",
        );
    }

    // client: fan-out and the op's own time outside its exchanges.
    for (op_kind, wire_kind) in [("topk", "similar_keys"), ("union", "union_sketch")] {
        let mine: Vec<&&Span> = ops.iter().filter(|s| s.kind == op_kind).collect();
        let fanout: Vec<f64> = mine.iter().map(|op| kids(op.id).len() as f64).collect();
        let merge: Vec<f64> = mine
            .iter()
            .map(|op| op.us() - child_us(op.id, "exchange"))
            .collect();
        out.mean(
            format!("client.fanout_per_op.{wire_kind}"),
            &fanout,
            "count",
        );
        out.p50(format!("client.merge_us.{wire_kind}"), &merge, "us");
    }

    // node
    let mut handles: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "node.handle") {
        handles.entry(s.kind).or_default().push(s.us());
    }
    for kind in WIRE_KINDS {
        out.dist(
            &format!("node.handle_us.{kind}"),
            handles.get(kind).unwrap_or(&none),
            "us",
        );
    }

    // sync
    let ticks: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "sync.tick")
        .map(Span::us)
        .collect();
    out.dist("sync.tick_us", &ticks, "us");
    let mut full_pulls = Vec::new();
    let mut received = Vec::new();
    let (mut keys_received, mut keys_changed) = (0usize, 0usize);
    for tick in cx.ticks {
        let got: usize = tick
            .pulls
            .iter()
            .flat_map(|(r, _)| r)
            .map(|r| r.keys_received)
            .sum();
        keys_received += got;
        keys_changed += tick
            .pulls
            .iter()
            .flat_map(|(r, _)| r)
            .map(|r| r.keys_changed)
            .sum::<usize>();
        received.push(got as f64);
        if tick.pulls.iter().any(|&(_, full)| full) {
            let (Some(span), Some(last)) = (
                by_id.get(&tick.span),
                kids(tick.span)
                    .iter()
                    .filter(|s| s.name == "exchange")
                    .max_by_key(|s| s.start),
            ) else {
                continue;
            };
            full_pulls.push((span.end - last.start) as f64 / 1e3);
        }
    }
    out.p50("sync.full_pull_us", &full_pulls, "us");
    out.mean("sync.keys_received_per_tick", &received, "count");
    out.push(
        "sync.useful_frac",
        keys_changed as f64 / keys_received.max(1) as f64,
        "frac",
        keys_received,
    );

    // wal: ingest handles that overlapped a new checkpoint, against all.
    let ingest = handles.get("ingest").unwrap_or(&none);
    let overlapped: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "node.handle" && s.kind == "ingest" && s.bytes == 1)
        .map(Span::us)
        .collect();
    let stall = if overlapped.is_empty() {
        0.0
    } else {
        p50_of(&overlapped) - p50_of(ingest)
    };
    out.push("wal.checkpoint_stall_us", stall, "us", overlapped.len());

    // The tracing itself: server spans that found no client request.
    let served: Vec<&Span> = spans.iter().filter(|s| s.name == "node.handle").collect();
    let orphans = served.iter().filter(|s| s.req == 0).count();
    out.push(
        "trace.unattributed_frac",
        orphans as f64 / served.len().max(1) as f64,
        "frac",
        served.len(),
    );

    // tier: point reads slow enough to have rehydrated a payload.
    let cards = handles.get("cardinality").unwrap_or(&none);
    let mut sorted = cards.clone();
    sorted.sort_by(f64::total_cmp);
    let threshold = sorted.first().map_or(0.0, |_| percentile(&sorted, 10.0)) + cx.rehydrate_us;
    let cold = if cx.tiered {
        cards.iter().filter(|&&us| us > threshold).count()
    } else {
        0
    };
    out.push(
        "tier.cold_read_frac",
        cold as f64 / cards.len().max(1) as f64,
        "frac",
        cards.len(),
    );
}

/// Elements a key holds before its ingest batches stop counting as
/// young-sketch fill.
pub const YOUNG_ELEMENTS: usize = 2000;

/// Share of acknowledged ingest batches that went into a key holding
/// fewer than [`YOUNG_ELEMENTS`] elements.
pub fn young_batch_frac(
    spec: &Spec,
    corpus: &[(String, Option<usize>)],
    acked: &[Acked],
) -> (f64, usize) {
    let mut held: HashMap<&str, usize> = corpus
        .iter()
        .map(|(key, family)| {
            let preload = match family {
                Some(_) => spec.family_core + spec.family_private,
                None => BATCH,
            };
            (key.as_str(), preload)
        })
        .collect();
    let mut young = 0;
    for a in acked {
        let count = held.entry(a.key.as_str()).or_insert(0);
        if *count < YOUNG_ELEMENTS {
            young += 1;
        }
        *count += BATCH;
    }
    (young as f64 / acked.len().max(1) as f64, acked.len())
}

/// True when a top-k query on `key` has fewer than k true neighbours,
/// so the store falls back to verifying every key.
pub fn expects_fallback(spec: &Spec, family: Option<usize>) -> bool {
    family.map_or(1, |f| spec.family_sizes[f]) < TOPK_K + 1
}

fn time_us(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e6
}

/// Store-layer and sketch-layer costs, single-threaded, on fresh
/// in-process stores and bare sketches.
pub struct Replay<'a> {
    pub spec: &'a Spec,
    pub factory: &'a Factory,
    pub corpus: &'a [(String, Option<usize>)],
    pub seed: u64,
    pub acked: &'a [Acked],
    pub reads: &'a [Op],
    /// The converged reference store.
    pub reference: &'a SketchStore<Sketch>,
}

/// Acknowledged ingests replayed per run.
const REPLAY_INGESTS: usize = 2000;
/// Fallback top-k queries timed when the served load issued none.
const FALLBACK_PROBES: usize = 20;

impl Replay<'_> {
    pub fn run(&self, out: &mut Metrics) {
        let spec = self.spec;
        let family: HashMap<&str, Option<usize>> =
            self.corpus.iter().map(|(k, f)| (k.as_str(), *f)).collect();

        // store: ingest into a fresh store holding the preload.
        let store = self.factory.memory_store();
        for (index, (key, fam)) in self.corpus.iter().enumerate() {
            store.ingest(key, &spec.preload_elements(index, *fam, self.seed));
        }
        let ingest: Vec<f64> = self
            .acked
            .iter()
            .take(REPLAY_INGESTS)
            .map(|a| {
                let elements = batch_elements(a.seed);
                time_us(|| store.ingest(&a.key, &elements))
            })
            .collect();
        out.p50("store.ingest_us", &ingest, "us");
        drop(store);

        // store: reads against the converged reference state.
        let r = self.reference;
        let mut card = Vec::new();
        let mut jaccard = Vec::new();
        let mut union = Vec::new();
        let mut indexed = Vec::new();
        let mut fallback = Vec::new();
        r.build_similarity_index(spec.topk_threshold);
        for op in self.reads {
            match op {
                Op::Cardinality { key } => card.push(time_us(|| {
                    std::hint::black_box(r.cardinality(key).ok());
                })),
                Op::Jaccard { left, right } => jaccard.push(time_us(|| {
                    std::hint::black_box(r.jaccard(left, right).ok());
                })),
                Op::Union { keys } => {
                    let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
                    union.push(time_us(|| {
                        std::hint::black_box(r.merge_keys(&keys).ok());
                    }));
                }
                Op::TopK { key } => {
                    let us = time_us(|| {
                        std::hint::black_box(
                            r.similar_keys_at(key, TOPK_K, spec.topk_threshold).ok(),
                        );
                    });
                    if expects_fallback(spec, family.get(key.as_str()).copied().flatten()) {
                        fallback.push(us);
                    } else {
                        indexed.push(us);
                    }
                }
                Op::Ingest { .. } => {}
            }
        }
        out.p50("store.cardinality_us", &card, "us");
        out.p50("store.jaccard_us", &jaccard, "us");
        out.p50("store.merge_keys_us", &union, "us");
        out.p50(
            "store.similar_keys_us",
            &[indexed.clone(), fallback.clone()].concat(),
            "us",
        );
        out.p50("query.topk_indexed_us", &indexed, "us");
        if fallback.is_empty() {
            // No served top-k fell back, so time the fallback on stream
            // keys: they have no neighbours at the threshold, and the
            // store verifies every key. `query.topk_fallback_frac` still
            // says the served load has none.
            let stream_keys = self.corpus.iter().filter(|(_, f)| f.is_none());
            for (key, _) in stream_keys.take(FALLBACK_PROBES) {
                fallback.push(time_us(|| {
                    std::hint::black_box(r.similar_keys_at(key, TOPK_K, spec.topk_threshold).ok());
                }));
            }
        }
        out.p50("query.topk_fallback_us", &fallback, "us");

        self.sketch_layer(out);
    }

    /// Bare `SetSketch2::insert_batch`, cardinality and joint.
    fn sketch_layer(&self, out: &mut Metrics) {
        let mut young = Vec::new();
        let mut steady = Vec::new();
        let mut sketches = Vec::new();
        let mut n = 0u64;
        for _ in 0..16 {
            let mut sketch = self.factory.sketch();
            let mut held = 0;
            for batch in 0..48 {
                let elements: Vec<u64> = (0..BATCH as u64)
                    .map(|i| crate::gen::mix(self.seed ^ (n << 12 | i)))
                    .collect();
                n += 1;
                let ns = time_us(|| sketch.insert_batch(&elements)) * 1e3 / BATCH as f64;
                if held < YOUNG_ELEMENTS {
                    young.push(ns);
                } else if batch >= 16 {
                    steady.push(ns);
                }
                held += BATCH;
            }
            sketches.push(sketch);
        }
        out.p50("setsketch.insert_ns_per_elem_young", &young, "ns");
        out.p50("setsketch.insert_ns_per_elem_steady", &steady, "ns");

        const REPS: usize = 200;
        let card: Vec<f64> = (0..REPS)
            .map(|i| {
                let s = &sketches[i % sketches.len()];
                time_us(|| {
                    std::hint::black_box(s.cardinality());
                }) * 1e3
            })
            .collect();
        out.p50("setsketch.cardinality_ns", &card, "ns");
        let joint: Vec<f64> = (0..REPS)
            .map(|i| {
                let (a, b) = (
                    &sketches[i % sketches.len()],
                    &sketches[(i + 1) % sketches.len()],
                );
                time_us(|| {
                    std::hint::black_box(a.joint(b).ok());
                }) * 1e3
            })
            .collect();
        out.p50("setsketch.joint_ns", &joint, "ns");
    }

    /// Time to decompress one steady payload: the least a cold read
    /// pays over a hot one.
    pub fn rehydrate_us(&self) -> f64 {
        let mut sketch = self.factory.sketch();
        let elements: Vec<u64> = (0..4 * YOUNG_ELEMENTS as u64)
            .map(crate::gen::mix)
            .collect();
        sketch.insert_batch(&elements);
        let bytes = sketch.compress();
        let samples: Vec<f64> = (0..50)
            .map(|_| {
                time_us(|| {
                    std::hint::black_box(Sketch::decompress(&sketch, &bytes).ok());
                })
            })
            .collect();
        p50_of(&samples)
    }
}
