//! The served-path benchmark.
//!
//! One process brings up two durable replicas (`SketchStore` with a
//! `durable_dir` and `FsyncPolicy::Os`, wrapped in `ClusterNode`, served
//! by `TcpServer` on 127.0.0.1 with gossip on) and drives a seeded load
//! through `ClusterClient` over `TcpTransport`. It checks the answers
//! against a reference store fed the acknowledged stream, rebuilds one
//! node from its durable directory, and prints its metrics as JSON; the
//! last line is the result.
//!
//! ```text
//! perfbench --workload <ingest_durable|serve_mix|cold_reads> --seed <n>
//!           --seconds <s> --trace <0|1> --work-dir <dir>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` splits the
//! timed phase into an untraced half and a traced half and reports the
//! per-layer metrics, plus the traced half's end-to-end numbers minus the
//! untraced half's as the tracing overhead.

mod cluster;
mod drive;
mod gen;
mod json;
mod layers;
mod oracle;
mod speed;
mod stats;
mod trace;

use cluster::{
    payloads, setup, Cluster, Factory, Node, CHECKPOINT_AFTER_BYTES, GOSSIP_INTERVAL, NODE_IDS,
};
use drive::{drive, Outcome};
use gen::{Op, OpKind, Spec, Workload, BATCH};
use json::Json;
use layers::{Metric, Metrics, Replay, TraceContext};
use speed::{Probe, Speed};
use stats::{median, Summary};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut work_dir) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad("duration"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(1);
        }
    }
}

/// Polls both replicas' WAL and checkpoint counters during a timed
/// phase, so bytes written can be summed across checkpoints.
struct Monitor {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<DiskWrites>,
}

#[derive(Debug, Default, Clone, Copy)]
struct DiskWrites {
    wal_bytes: u64,
    checkpoint_bytes: u64,
    checkpoints: usize,
}

impl Monitor {
    fn start(nodes: Vec<Arc<Node>>) -> Monitor {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let read = |node: &Node| {
                let store = node.store();
                (
                    store.wal_bytes_since_checkpoint().unwrap_or(0),
                    store
                        .latest_checkpoint_meta()
                        .map(|m| (m.write_epoch, m.bytes)),
                )
            };
            let mut last: Vec<_> = nodes.iter().map(|n| read(n)).collect();
            let mut out = DiskWrites::default();
            while !flag.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(2));
                for (node, prev) in nodes.iter().zip(&mut last) {
                    let now = read(node);
                    // A drop means a checkpoint reset the count; the bytes
                    // appended between the last poll and the cut are lost.
                    out.wal_bytes += if now.0 >= prev.0 {
                        now.0 - prev.0
                    } else {
                        now.0
                    };
                    if now.1 != prev.1 {
                        out.checkpoints += 1;
                        out.checkpoint_bytes += now.1.map_or(0, |(_, bytes)| bytes);
                    }
                    *prev = now;
                }
            }
            out
        });
        Monitor { stop, handle }
    }

    fn finish(self) -> DiskWrites {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("monitor thread panicked")
    }
}

/// WAL append and spill append failures, which the stores count even
/// though the request was acknowledged.
fn store_failures(cluster: &Cluster) -> (usize, usize) {
    cluster.replicas.iter().fold((0, 0), |(wal, spill), r| {
        let store = r.node.store();
        (
            wal + store.wal_failures(),
            spill + store.tier_stats().spill_append_failures,
        )
    })
}

/// The end-to-end metrics that `BENCHMARK.json` bounds and the result
/// line carries. The others on the detail line could not be held steady
/// on a shared host; see RATIONALE.md.
const BOUNDED: [&str; 7] = [
    "setup_s",
    "ok_frac",
    "ingest_p50_us",
    "card_p50_us",
    "jaccard_p50_us",
    "union_p50_us",
    "resident_bytes_per_key",
];

/// The end-to-end metrics of one untraced timed phase, timings at the
/// host's reference speed (see `speed`), and the unscaled figures beside
/// them.
struct EndToEnd {
    metrics: Metrics,
    samples: Vec<(OpKind, Summary)>,
    raw: Json,
}

impl EndToEnd {
    /// The metrics in [`BOUNDED`], in its order.
    fn bounded(&self) -> Metrics {
        Metrics(
            BOUNDED
                .iter()
                .filter_map(|name| self.metrics.0.iter().find(|m| m.name == *name))
                .cloned()
                .collect(),
        )
    }
}

/// `store_failed` counts the WAL and spill append failures of the same
/// phase: the client saw those writes acknowledged. `recover_s` comes
/// already scaled; `setup_s` is not scaled.
fn end_to_end(
    outcome: &Outcome,
    store_failed: usize,
    setup_s: f64,
    recover_s: f64,
    disk_bytes_per_elem: f64,
    resident_bytes_per_key: f64,
) -> EndToEnd {
    let speed = Speed::new(&outcome.probes);
    let probe = Summary::of(&outcome.probes.iter().map(|r| r.us).collect::<Vec<_>>());
    let mut raw = vec![
        ("ops_s".to_owned(), Json::Num(outcome.ops_s)),
        ("probes".to_owned(), Json::Int(outcome.probes.len() as i64)),
        (
            "probe_p50_us".to_owned(),
            Json::Num(probe.map_or(0.0, |p| p.p50)),
        ),
        (
            "probe_p99_us".to_owned(),
            Json::Num(probe.map_or(0.0, |p| p.tail)),
        ),
        ("median_factor".to_owned(), Json::Num(speed.median_factor())),
    ];
    let mut m = Metrics::default();
    m.push("setup_s", setup_s, "s", SETUPS);
    let scaled_s = speed.scaled_seconds(outcome.main_s);
    m.push(
        "ops_s",
        if scaled_s > 0.0 {
            outcome.ops_s * outcome.main_s / scaled_s
        } else {
            outcome.ops_s
        },
        "1/s",
        outcome.completed(),
    );
    m.push(
        "ok_frac",
        1.0 - (outcome.failed + store_failed) as f64 / outcome.attempted.max(1) as f64,
        "frac",
        outcome.attempted,
    );
    let mut summaries = Vec::new();
    for kind in OpKind::ALL {
        let (done, latency) = match (outcome.done_s.get(&kind), outcome.latency_us.get(&kind)) {
            (Some(done), Some(latency)) => (done.as_slice(), latency.as_slice()),
            _ => (&[][..], &[][..]),
        };
        let scaled: Vec<f64> = done
            .iter()
            .zip(latency)
            .map(|(&at, &us)| us * speed.factor(at))
            .collect();
        let s = Summary::of(&scaled);
        for (stat, value) in [
            ("p50", s.map_or(0.0, |s| s.p50)),
            ("p90", s.map_or(0.0, |s| s.p90)),
            ("p99", s.map_or(0.0, |s| s.tail)),
        ] {
            m.push(
                format!("{}_{stat}_us", kind.metric()),
                value,
                "us",
                scaled.len(),
            );
        }
        if let (Some(s), Some(r)) = (s, Summary::of(latency)) {
            summaries.push((kind, s));
            for (stat, value) in [("p50", r.p50), ("p90", r.p90), ("p99", r.tail)] {
                raw.push((format!("{}_{stat}_us", kind.metric()), Json::Num(value)));
            }
        }
    }
    m.push("recover_s", recover_s, "s", 1);
    m.push("disk_bytes_per_elem", disk_bytes_per_elem, "bytes", 1);
    m.push("resident_bytes_per_key", resident_bytes_per_key, "bytes", 1);
    EndToEnd {
        metrics: m,
        samples: summaries,
        raw: Json::Obj(raw),
    }
}

/// Which end-to-end metric each per-layer metric should move, on which
/// workload.
fn predicts(name: &str) -> &'static str {
    const MAP: [(&str, &str); 17] = [
        ("tcp.", "card_p50_us, jaccard_p50_us on serve_mix and cold_reads; ingest_p50_us on ingest_durable"),
        ("wire.", "union_p50_us, topk_p50_us on serve_mix; ingest_p50_us on ingest_durable"),
        ("client.", "topk_*, union_* on serve_mix"),
        ("node.", "the matching operation's p50/p90 on every workload"),
        ("sync.", "ingest_p90_us on ingest_durable; tail latencies on serve_mix"),
        ("store.", "ingest_p50_us on ingest_durable; card_p50_us everywhere"),
        ("wal.", "ingest_p90_us, disk_bytes_per_elem, recover_s on ingest_durable"),
        ("tier.cold_read_frac", "input share: card_*, jaccard_* on cold_reads"),
        ("tier.", "card_*, jaccard_*, resident_bytes_per_key on cold_reads"),
        ("query.topk_fallback_frac", "input share: topk_* on serve_mix"),
        ("query.index_build_s", "setup_s"),
        ("query.", "topk_* on serve_mix"),
        ("setsketch.joint", "jaccard_p50_us on serve_mix"),
        ("setsketch.", "ingest_p50_us on ingest_durable (b = 2) and serve_mix (b = 1.001)"),
        ("input.young_batch_frac", "input share: ingest_* on ingest_durable"),
        ("trace.overhead", "none: the traced half minus the untraced half"),
        ("trace.unattributed", "none: a check on the tracing itself"),
    ];
    MAP.iter()
        .find(|(prefix, _)| name.starts_with(prefix))
        .map_or("", |&(_, text)| text)
}

fn metric_json(m: &Metric, with_prediction: bool) -> Json {
    let mut fields = vec![
        ("name", Json::str(&m.name)),
        ("value", Json::Num(m.value)),
        ("unit", Json::str(m.unit)),
        ("n", Json::Int(m.n as i64)),
    ];
    if with_prediction {
        fields.push(("predicts", Json::str(predicts(&m.name))));
    }
    Json::obj(fields)
}

fn header(args: &Args, spec: &Spec) -> Json {
    let env = |name: &str| std::env::var(name).unwrap_or_else(|_| "unknown".into());
    let s = spec.sketch;
    let mix = |mix: &[(OpKind, f64)]| {
        Json::Obj(
            mix.iter()
                .map(|(k, share)| (k.metric().to_owned(), Json::Num(*share)))
                .collect(),
        )
    };
    let side = spec.side.as_ref().map_or(Json::Null, |side| {
        Json::obj(vec![
            ("mix", mix(&side.mix)),
            ("share_of_seconds", Json::Num(side.share)),
        ])
    });
    Json::obj(vec![(
        "header",
        Json::obj(vec![
            (
                "cpus",
                Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as i64)),
            ),
            ("rustc", Json::str(env("PERFBENCH_RUSTC"))),
            (
                "profile",
                Json::str(if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }),
            ),
            ("commit", Json::str(env("PERFBENCH_COMMIT"))),
            ("workload", Json::str(args.workload.name())),
            ("seed", Json::Int(args.seed as i64)),
            ("seconds", Json::Num(args.seconds)),
            ("trace", Json::Bool(args.trace)),
            ("fsync_policy", Json::str("Os")),
            ("nodes", Json::Int(NODE_IDS.len() as i64)),
            (
                "gossip_interval_ms",
                Json::Int(GOSSIP_INTERVAL.as_millis() as i64),
            ),
            ("full_sync_every", Json::Int(spec.full_sync_every as i64)),
            (
                "checkpoint_after_bytes",
                Json::Int(CHECKPOINT_AFTER_BYTES as i64),
            ),
            (
                "sketch",
                Json::obj(vec![
                    ("family", Json::str("SetSketch2")),
                    ("m", Json::Int(s.m as i64)),
                    ("b", Json::Num(s.b)),
                    ("a", Json::Num(s.a)),
                    ("q", Json::Int(s.q as i64)),
                ]),
            ),
            ("loop", Json::str("closed")),
            ("clients", Json::Int(spec.clients as i64)),
            ("mix", mix(&spec.mix)),
            ("side_phase", side),
            ("zipf_s", Json::Num(spec.zipf_s)),
            ("stream_keys", Json::Int(spec.stream_keys as i64)),
            ("families", Json::Int(spec.family_sizes.len() as i64)),
            ("family_keys", Json::Int(spec.family_keys() as i64)),
            ("new_key_frac", Json::Num(spec.new_key_frac)),
            ("batch", Json::Int(BATCH as i64)),
            (
                "memory_budget_bytes",
                spec.memory_budget_bytes
                    .map_or(Json::Null, |b| Json::Int(b as i64)),
            ),
            ("setups", Json::Int(SETUPS as i64)),
            (
                "speed_probe",
                Json::obj(vec![
                    ("nominal_us", Json::Num(speed::NOMINAL_US)),
                    ("every_s", Json::Num(speed::PROBE_EVERY_S)),
                    ("half_span_s", Json::Num(speed::HALF_SPAN_S)),
                ]),
            ),
        ]),
    )])
}

/// Stops a cluster and drops its replicas, deleting its directory.
fn discard(cluster: Cluster) -> Result<(), String> {
    let (replicas, dir) = cluster.stop();
    drop(replicas);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))
}

fn run(args: &Args) -> Result<bool, String> {
    let spec = Spec::new(args.workload);
    let factory = Factory::new(&spec);
    let corpus = spec.corpus();
    println!("{}", header(args, &spec).render());

    let run_dir = args.work_dir.join(format!("run-{}", std::process::id()));
    if run_dir.exists() {
        std::fs::remove_dir_all(&run_dir).map_err(|e| e.to_string())?;
    }
    let mut setup_s = Vec::new();
    let mut index_build_s = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let s = setup(
            &spec,
            &factory,
            &corpus,
            args.seed,
            &run_dir.join(format!("setup-{i}")),
        )?;
        setup_s.push(s.seconds);
        index_build_s.push(s.index_build_s);
        if i + 1 < SETUPS {
            discard(s.cluster)?;
        } else {
            kept = Some(s.cluster);
        }
    }
    let mut cluster = kept.expect("at least one set-up");
    let failures_before = store_failures(&cluster);
    let monitor = Monitor::start(
        cluster
            .replicas
            .iter()
            .map(|r| Arc::clone(&r.node))
            .collect(),
    );

    let tracer = Arc::new(trace::Tracer::new());
    let (mut spans, mut ticks) = (Vec::new(), Vec::new());
    let (untraced, traced) = if args.trace {
        let half = args.seconds / 2.0;
        let untraced = drive(
            &spec,
            &corpus,
            args.seed,
            0,
            half,
            &cluster.plain_client(&factory),
            None,
        );
        cluster.switch_to_traced(&tracer);
        let traced = drive(
            &spec,
            &corpus,
            args.seed,
            100,
            half,
            &cluster.traced_client(&factory),
            Some(&tracer),
        );
        // Spans end with the traced phase; the oracle's traffic is not part
        // of the profile.
        spans = tracer.take_spans();
        ticks = trace::locked(&tracer.ticks).clone();
        (untraced, Some(traced))
    } else {
        (
            drive(
                &spec,
                &corpus,
                args.seed,
                0,
                args.seconds,
                &cluster.plain_client(&factory),
                None,
            ),
            None,
        )
    };
    let disk = monitor.finish();
    let failures_after = store_failures(&cluster);
    let wal_failed = failures_after.0 - failures_before.0;
    let store_failed = wal_failed + failures_after.1 - failures_before.1;

    let acked: Vec<drive::Acked> = untraced
        .acked
        .iter()
        .chain(traced.iter().flat_map(|t| &t.acked))
        .cloned()
        .collect();
    let reads: Vec<Op> = untraced
        .reads
        .iter()
        .chain(traced.iter().flat_map(|t| &t.reads))
        .cloned()
        .collect();
    let attempted = untraced.attempted + traced.as_ref().map_or(0, |t| t.attempted);
    let failed = untraced.failed + traced.as_ref().map_or(0, |t| t.failed) + store_failed;

    let tiers: Vec<_> = cluster
        .replicas
        .iter()
        .map(|r| r.node.store().tier_stats())
        .collect();
    let resident_bytes_per_key = tiers
        .iter()
        .map(|t| t.resident_bytes() as f64 / t.total_keys().max(1) as f64)
        .sum::<f64>()
        / tiers.len() as f64;
    let elements = (untraced.acked.len() + traced.as_ref().map_or(0, |t| t.acked.len())) * BATCH;
    let disk_bytes_per_elem =
        (disk.wal_bytes + disk.checkpoint_bytes) as f64 / elements.max(1) as f64;
    let index_info: Vec<_> = cluster
        .replicas
        .iter()
        .filter_map(|r| r.node.store().similarity_index_info())
        .collect();

    // The oracle: converge, then compare with the reference store.
    let reference = oracle::reference_store(&spec, &factory, &corpus, args.seed, &acked);
    let mut problems = Vec::new();
    if let Err(e) = oracle::check_replicas(&cluster, &reference) {
        problems.push(e);
    }
    let answers_checked = match &traced {
        Some(_) => oracle::check_answers(
            &cluster.traced_client(&factory),
            &reference,
            &reads,
            spec.topk_threshold,
        ),
        None => oracle::check_answers(
            &cluster.plain_client(&factory),
            &reference,
            &reads,
            spec.topk_threshold,
        ),
    }
    .unwrap_or_else(|e| {
        problems.push(e);
        0
    });

    let mut layer = Metrics::default();
    if args.trace {
        let replay = Replay {
            spec: &spec,
            factory: &factory,
            corpus: &corpus,
            seed: args.seed,
            acked: &acked,
            reads: &reads,
            reference: &reference,
        };
        let cx = TraceContext {
            ticks: &ticks,
            rehydrate_us: replay.rehydrate_us(),
            tiered: spec.memory_budget_bytes.is_some(),
        };
        layers::analyse_spans(&spans, &cx, &mut layer);
        replay.run(&mut layer);
    }
    drop(reference);

    // Restart one node from its durable directory.
    let (replicas, run_cluster_dir) = cluster.stop();
    let spill_paths: Vec<PathBuf> = replicas
        .iter()
        .filter_map(|r| r.node.store().spill_path())
        .collect();
    let restart = &replicas[1];
    if let Err(e) = oracle::prepare_restart(restart.node.store(), spec.stream_keys, args.seed) {
        problems.push(e);
    }
    let before = payloads(restart.node.store());
    let restart_dir = restart.dir.clone();
    drop(replicas);
    let probe = Probe::start()?;
    let recovery =
        oracle::recover(&spec, &factory, &restart_dir, &before, &probe).unwrap_or_else(|e| {
            problems.push(e);
            oracle::Recovery::default()
        });

    // Directories must be gone once the stores are.
    std::fs::remove_dir_all(&run_cluster_dir).map_err(|e| e.to_string())?;
    for path in &spill_paths {
        if path.exists() {
            problems.push(format!(
                "spill directory {} outlived its store",
                path.display()
            ));
        }
    }
    std::fs::remove_dir_all(&run_dir).map_err(|e| e.to_string())?;
    if Path::new(&run_dir).exists() {
        problems.push("durable directory was not removed".into());
    }

    drop(probe);
    let setup_median = median(&setup_s);
    let e2e = end_to_end(
        &untraced,
        store_failed,
        setup_median,
        recovery.recover_s,
        disk_bytes_per_elem,
        resident_bytes_per_key,
    );
    let (young_frac, young_n) = layers::young_batch_frac(&spec, &corpus, &acked);
    let topk_keys: Vec<Option<usize>> = reads
        .iter()
        .filter_map(|op| match op {
            Op::TopK { key } => Some(corpus.iter().find(|(k, _)| k == key).and_then(|(_, f)| *f)),
            _ => None,
        })
        .collect();
    let fallback = topk_keys
        .iter()
        .filter(|&&f| layers::expects_fallback(&spec, f))
        .count();
    let fallback_frac = fallback as f64 / topk_keys.len().max(1) as f64;

    if args.trace {
        let traced = traced.as_ref().expect("traced phase ran");
        let m = &mut layer;
        let t = &tiers[0];
        m.push("tier.hot_keys", t.hot_keys as f64, "count", 1);
        m.push("tier.warm_keys", t.warm_keys as f64, "count", 1);
        m.push("tier.frozen_keys", t.frozen_keys as f64, "count", 1);
        m.push("tier.resident_bytes", t.resident_bytes() as f64, "bytes", 1);
        m.push("tier.spilled_bytes", t.spilled_bytes as f64, "bytes", 1);
        m.push(
            "tier.spill_failures",
            tiers.iter().map(|t| t.spill_append_failures).sum::<usize>() as f64,
            "count",
            1,
        );
        m.push(
            "wal.bytes_per_elem",
            disk.wal_bytes as f64 / elements.max(1) as f64,
            "bytes",
            elements,
        );
        m.push("wal.checkpoints", disk.checkpoints as f64, "count", 1);
        m.push("wal.failures", wal_failed as f64, "count", 1);
        m.push(
            "wal.replay_records",
            recovery.replay_records as f64,
            "count",
            1,
        );
        m.push(
            "wal.replay_s",
            (recovery.recover_s - recovery.checkpoint_load_s).max(0.0),
            "s",
            1,
        );
        m.push(
            "wal.checkpoint_load_s",
            recovery.checkpoint_load_s,
            "s",
            recovery.checkpoint_entries,
        );
        let (hits, misses) = index_info
            .iter()
            .fold((0, 0), |(h, m), i| (h + i.cache_hits, m + i.cache_misses));
        m.push(
            "query.index_cache_hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
            "frac",
            (hits + misses) as usize,
        );
        m.push(
            "query.indexed_keys",
            index_info.first().map_or(0, |i| i.indexed_keys) as f64,
            "count",
            1,
        );
        m.push("query.index_build_s", median(&index_build_s), "s", SETUPS);
        m.push(
            "query.topk_fallback_frac",
            fallback_frac,
            "frac",
            topk_keys.len(),
        );
        m.push("input.young_batch_frac", young_frac, "frac", young_n);
        let contention = m.get("node.handle_us.ingest.p50").unwrap_or(0.0)
            - m.get("store.ingest_us").unwrap_or(0.0);
        m.push("store.contention_us", contention, "us", 1);
        // Tracing overhead: the traced half's end-to-end numbers minus the
        // untraced half's.
        let traced_e2e = end_to_end(
            traced,
            0,
            setup_median,
            recovery.recover_s,
            disk_bytes_per_elem,
            resident_bytes_per_key,
        );
        for name in [
            "ops_s",
            "ingest_p50_us",
            "card_p50_us",
            "jaccard_p50_us",
            "topk_p50_us",
            "union_p50_us",
        ] {
            let with = traced_e2e.metrics.get(name).unwrap_or(0.0);
            let without = e2e.metrics.get(name).unwrap_or(0.0);
            let unit = if name == "ops_s" { "1/s" } else { "us" };
            m.push(format!("trace.overhead.{name}"), with - without, unit, 1);
        }
    }

    let correct = problems.is_empty();
    let detail = Json::obj(vec![(
        "detail",
        Json::obj(vec![
            ("workload", Json::str(args.workload.name())),
            ("correct", Json::Bool(correct)),
            (
                "problems",
                Json::Arr(problems.iter().map(Json::str).collect()),
            ),
            ("answers_checked", Json::Int(answers_checked as i64)),
            ("attempted", Json::Int(attempted as i64)),
            ("failed", Json::Int(failed as i64)),
            (
                "failed_frac",
                Json::Num(failed as f64 / attempted.max(1) as f64),
            ),
            ("raw", e2e.raw.clone()),
            (
                "setup_s",
                Json::Arr(setup_s.iter().map(|&s| Json::Num(s)).collect()),
            ),
            (
                "recover_s",
                Json::Arr(recovery.rebuilds_s.iter().map(|&s| Json::Num(s)).collect()),
            ),
            (
                "samples",
                Json::Obj(
                    e2e.samples
                        .iter()
                        .map(|(k, s)| {
                            (
                                k.metric().to_owned(),
                                Json::obj(vec![
                                    ("n", Json::Int(s.n as i64)),
                                    ("tail_pct", Json::Num(s.tail_pct)),
                                    ("tail_us", Json::Num(s.tail)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "input_shares",
                Json::obj(vec![
                    ("query.topk_fallback_frac", Json::Num(fallback_frac)),
                    ("input.young_batch_frac", Json::Num(young_frac)),
                ]),
            ),
            (
                "end_to_end",
                Json::Arr(
                    e2e.metrics
                        .0
                        .iter()
                        .map(|m| metric_json(m, false))
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Json::Arr(layer.0.iter().map(|m| metric_json(m, true)).collect()),
            ),
        ]),
    )]);
    println!("{}", detail.render());

    let bounded = e2e.bounded();
    let reported = if args.trace { &layer } else { &bounded };
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        (
            "metrics",
            Json::Obj(
                reported
                    .0
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::obj(vec![
                                ("value", Json::Num(m.value)),
                                ("unit", Json::str(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_failures_lower_ok_frac() {
        let outcome = Outcome {
            attempted: 200,
            failed: 1,
            ops_s: 100.0,
            ..Outcome::default()
        };
        let ok = |store_failed| {
            end_to_end(&outcome, store_failed, 1.0, 1.0, 1.0, 1.0)
                .metrics
                .get("ok_frac")
                .expect("ok_frac is reported")
        };
        assert_eq!(ok(0), 1.0 - 1.0 / 200.0);
        // Acknowledged writes whose WAL or spill append failed count too.
        assert_eq!(ok(3), 1.0 - 4.0 / 200.0);
    }

    #[test]
    fn result_line_carries_exactly_the_bounded_metrics() {
        let e2e = end_to_end(&Outcome::default(), 0, 1.0, 1.0, 1.0, 1.0);
        let names: Vec<String> = e2e.bounded().0.into_iter().map(|m| m.name).collect();
        assert_eq!(names, BOUNDED);
        // BENCHMARK.json bounds the same metrics and no others.
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("read BENCHMARK.json");
        let end_to_end =
            &spec[spec.find("\"end_to_end\"").unwrap()..spec.find("\"per_layer\"").unwrap()];
        assert_eq!(end_to_end.matches("\"name\"").count(), BOUNDED.len());
        for name in BOUNDED {
            assert!(
                end_to_end.contains(&format!("\"name\": \"{name}\"")),
                "{name}"
            );
        }
    }
}
