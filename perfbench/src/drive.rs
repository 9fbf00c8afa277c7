//! The load generator: a closed loop of callers that each wait for the
//! answer before sending the next request.

use crate::cluster::Sketch;
use crate::gen::{Op, OpGen, OpKind, Spec, TOPK_K};
use crate::speed::{Probe, Reading, PROBE_EVERY_S};
use crate::trace::{set_context, Tracer};
use sketch_cluster::{ClusterClient, Transport};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// An acknowledged ingest; its elements regenerate from `seed`.
#[derive(Debug, Clone)]
pub struct Acked {
    pub at_ns: u64,
    pub key: String,
    pub seed: u64,
}

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Latency in microseconds per operation kind, successful requests.
    pub latency_us: BTreeMap<OpKind, Vec<f64>>,
    /// When each of those requests completed, in seconds from the start.
    pub done_s: BTreeMap<OpKind, Vec<f64>>,
    pub attempted: usize,
    pub failed: usize,
    /// Completed operations per second of the main mix; the side phase's
    /// operations are not counted.
    pub ops_s: f64,
    /// Seconds the main mix ran.
    pub main_s: f64,
    pub acked: Vec<Acked>,
    /// A sample of the read requests issued, for the replay.
    pub reads: Vec<Op>,
    /// The host's speed over the phase (see `speed`).
    pub probes: Vec<Reading>,
}

impl Outcome {
    fn merge(&mut self, other: Outcome) {
        for (kind, samples) in other.latency_us {
            self.latency_us.entry(kind).or_default().extend(samples);
        }
        for (kind, samples) in other.done_s {
            self.done_s.entry(kind).or_default().extend(samples);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.acked.extend(other.acked);
        self.reads.extend(other.reads);
        self.probes.extend(other.probes);
    }

    pub fn completed(&self) -> usize {
        self.latency_us.values().map(Vec::len).sum()
    }
}

/// Reads kept per kind for the replay.
const READ_SAMPLE: usize = 400;

/// Sends `op` through the client. A degraded fan-out (a node skipped)
/// counts as a failure.
pub fn execute<T: Transport>(client: &ClusterClient<Sketch, T>, op: &Op, threshold: f64) -> bool {
    match op {
        Op::Ingest { key, elements, .. } => client.ingest(key, elements).is_ok(),
        Op::Cardinality { key } => client.cardinality(key).is_ok(),
        Op::Jaccard { left, right } => client.jaccard(left, right).is_ok(),
        Op::TopK { key } => client
            .similar_keys_detailed(key, TOPK_K, threshold)
            .is_ok_and(|fan_out| !fan_out.degraded),
        Op::Union { keys } => {
            let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
            client
                .union_cardinality_detailed(&keys)
                .is_ok_and(|fan_out| !fan_out.degraded)
        }
    }
}

/// Per-thread recorder.
struct Lane<'a> {
    out: Outcome,
    tracer: Option<&'a Tracer>,
    epoch: Instant,
    threshold: f64,
    read_counts: BTreeMap<OpKind, usize>,
}

impl<'a> Lane<'a> {
    fn run<T: Transport>(&mut self, client: &ClusterClient<Sketch, T>, op: &Op) {
        let kind = op.kind();
        let sent = Instant::now();
        let span = self.tracer.map(|t| {
            let id = t.new_id();
            set_context(id, id);
            (id, t.now())
        });
        let ok = execute(client, op, self.threshold);
        let done = Instant::now();
        if let (Some(t), Some((id, start))) = (self.tracer, span) {
            t.record(id, 0, id, "op", kind.metric(), start, 0);
        }
        self.out.attempted += 1;
        if !ok {
            self.out.failed += 1;
            return;
        }
        self.out
            .latency_us
            .entry(kind)
            .or_default()
            .push(done.duration_since(sent).as_secs_f64() * 1e6);
        self.out
            .done_s
            .entry(kind)
            .or_default()
            .push(done.duration_since(self.epoch).as_secs_f64());
        match op {
            Op::Ingest { key, seed, .. } => self.out.acked.push(Acked {
                at_ns: done.duration_since(self.epoch).as_nanos() as u64,
                key: key.clone(),
                seed: *seed,
            }),
            read => {
                let count = self.read_counts.entry(kind).or_default();
                if *count < READ_SAMPLE {
                    *count += 1;
                    self.out.reads.push(read.clone());
                }
            }
        }
    }
}

/// Stream ids of the side phase's clients start here.
const SIDE_STREAMS: u64 = 50;

/// Runs the workload's main mix, then its side phase if it has one, for
/// `seconds` in all against `client`.
pub fn drive<T: Transport + Sync>(
    spec: &Spec,
    corpus: &[(String, Option<usize>)],
    seed: u64,
    stream_base: u64,
    seconds: f64,
    client: &ClusterClient<Sketch, T>,
    tracer: Option<&Tracer>,
) -> Outcome {
    let epoch = Instant::now();
    let side_share = spec.side.as_ref().map_or(0.0, |side| side.share);
    let main_s = seconds * (1.0 - side_share);
    let closed = ClosedLoop {
        spec,
        corpus,
        seed,
        client,
        tracer,
        epoch,
    };
    let mut total = closed.run(&spec.mix, stream_base, main_s);
    total.main_s = epoch.elapsed().as_secs_f64();
    total.ops_s = total.completed() as f64 / total.main_s;
    if let Some(side) = &spec.side {
        total.merge(closed.run(&side.mix, stream_base + SIDE_STREAMS, seconds - main_s));
    }
    total.acked.sort_by_key(|a| a.at_ns);
    total
}

/// `spec.clients` callers sharing one client and one epoch.
struct ClosedLoop<'a, T: Transport> {
    spec: &'a Spec,
    corpus: &'a [(String, Option<usize>)],
    seed: u64,
    client: &'a ClusterClient<Sketch, T>,
    tracer: Option<&'a Tracer>,
    epoch: Instant,
}

impl<T: Transport + Sync> ClosedLoop<'_, T> {
    fn run(&self, mix: &[(OpKind, f64)], stream_base: u64, seconds: f64) -> Outcome {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let lanes: Vec<Outcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.spec.clients as u64)
                .map(|client_id| {
                    scope.spawn(move || {
                        let mut lane = Lane {
                            out: Outcome::default(),
                            tracer: self.tracer,
                            epoch: self.epoch,
                            threshold: self.spec.topk_threshold,
                            read_counts: BTreeMap::new(),
                        };
                        let mut gen = OpGen::new(
                            self.spec,
                            mix,
                            self.corpus,
                            self.seed,
                            stream_base + client_id,
                        );
                        let probe = Probe::start().expect("start the speed probe");
                        let mut next_probe = Instant::now();
                        loop {
                            let now = Instant::now();
                            if now >= deadline {
                                break;
                            }
                            if now >= next_probe {
                                let at_s = now.duration_since(self.epoch).as_secs_f64();
                                lane.out.probes.extend(probe.read(at_s));
                                next_probe = now + Duration::from_secs_f64(PROBE_EVERY_S);
                            }
                            lane.run(self.client, &gen.next_op());
                        }
                        lane.out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut total = Outcome::default();
        lanes.into_iter().for_each(|o| total.merge(o));
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Workload;
    use sketch_cluster::{ClusterError, HashRing, Message, NodeId};

    /// A transport that answers point reads and ingests after a fixed
    /// delay and rejects everything else.
    struct Slow(Duration);

    impl Transport for Slow {
        fn request(&self, _peer: NodeId, message: &Message) -> Result<Message, ClusterError> {
            std::thread::sleep(self.0);
            Ok(match message {
                Message::Ingest { .. } => Message::Ack,
                _ => Message::Value {
                    bits: 1.0f64.to_bits(),
                },
            })
        }
    }

    #[test]
    fn side_phase_follows_the_main_mix_and_is_not_throughput() {
        let spec = Spec::new(Workload::ColdReads);
        let side = spec.side.as_ref().expect("cold_reads has a side phase");
        let corpus = spec.corpus();
        let prototype = crate::cluster::Factory::new(&spec).sketch();
        let client = ClusterClient::new(
            Slow(Duration::from_millis(2)),
            HashRing::new(&[0, 1]),
            prototype,
        );
        let seconds = 0.5;
        let outcome = drive(&spec, &corpus, 1, 0, seconds, &client, None);
        // The slow transport cannot answer top-k or union, so every side
        // request fails and every completion is from the main mix.
        let main = outcome.completed();
        assert!(main > 50, "{main} main-mix completions");
        assert!(outcome.attempted > main + 20, "the side phase ran");
        assert_eq!(outcome.failed, outcome.attempted - main);
        // `ops_s` is the main mix's completions over the main mix's seconds,
        // which end on the side phase's schedule.
        assert!((outcome.ops_s * outcome.main_s - main as f64).abs() < 1e-6);
        let main_s = seconds * (1.0 - side.share);
        assert!(
            outcome.main_s >= main_s && outcome.main_s < main_s + 0.25,
            "main mix ran {} s of {main_s}",
            outcome.main_s
        );
    }
}
