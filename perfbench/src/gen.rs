//! Seeded input generation: the corpus and the request streams.
//! Everything the program receives is made here
//! from `--seed`; the same seed gives the same requests.

/// SplitMix64: a tiny, well-mixed generator that keeps the benchmark's
/// inputs independent of the program's own random-number code.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream derived from this seed and a stream id.
    pub fn stream(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5151_5151))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// The SplitMix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf over ranks `0..n`: `P(r) ∝ 1 / (r + 1)^s`, sampled exactly by
/// binary search over the cumulative distribution.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(total);
        }
        for value in &mut cdf {
            *value /= total;
        }
        Zipf { cdf }
    }

    /// Probability of `rank`.
    #[cfg(test)]
    pub fn pmf(&self, rank: usize) -> f64 {
        self.cdf[rank] - if rank == 0 { 0.0 } else { self.cdf[rank - 1] }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IngestDurable,
    ServeMix,
    ColdReads,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ingest_durable" => Some(Workload::IngestDurable),
            "serve_mix" => Some(Workload::ServeMix),
            "cold_reads" => Some(Workload::ColdReads),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestDurable => "ingest_durable",
            Workload::ServeMix => "serve_mix",
            Workload::ColdReads => "cold_reads",
        }
    }
}

/// One client operation, as the generator emits it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    Ingest,
    Cardinality,
    Jaccard,
    TopK,
    Union,
}

impl OpKind {
    pub const ALL: [OpKind; 5] = [
        OpKind::Ingest,
        OpKind::Cardinality,
        OpKind::Jaccard,
        OpKind::TopK,
        OpKind::Union,
    ];

    /// The prefix of this operation's end-to-end latency metrics.
    pub fn metric(self) -> &'static str {
        match self {
            OpKind::Ingest => "ingest",
            OpKind::Cardinality => "card",
            OpKind::Jaccard => "jaccard",
            OpKind::TopK => "topk",
            OpKind::Union => "union",
        }
    }
}

/// A generated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `elements` are regenerable from (`key`'s family, `seed`).
    Ingest {
        key: String,
        seed: u64,
        elements: Vec<u64>,
        /// True when the batch opens a key no earlier request wrote.
        new_key: bool,
    },
    Cardinality {
        key: String,
    },
    Jaccard {
        left: String,
        right: String,
    },
    TopK {
        key: String,
    },
    Union {
        keys: Vec<String>,
    },
}

impl Op {
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Ingest { .. } => OpKind::Ingest,
            Op::Cardinality { .. } => OpKind::Cardinality,
            Op::Jaccard { .. } => OpKind::Jaccard,
            Op::TopK { .. } => OpKind::TopK,
            Op::Union { .. } => OpKind::Union,
        }
    }
}

/// A read-only phase that ends a timed phase. It samples operations a
/// workload must report but that should not set its throughput or share
/// the main phase's time with it.
#[derive(Debug, Clone, PartialEq)]
pub struct SidePhase {
    /// Share of each operation (sums to 1).
    pub mix: Vec<(OpKind, f64)>,
    /// Share of the timed phase's seconds it takes.
    pub share: f64,
}

/// SetSketch2 parameters of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchSpec {
    pub m: usize,
    pub b: f64,
    pub a: f64,
    pub q: u32,
    pub seed: u64,
}

/// Seed of a workload's fixed structure: family sizes and which keys are
/// popular. The run seed draws the elements and the request sequence.
const STRUCTURE_SEED: u64 = 0x005E_ED0F_5E75;

/// Neighbours asked for by every `SimilarKeys` request.
pub const TOPK_K: usize = 10;
/// Elements per ingest batch.
pub const BATCH: usize = 256;

/// Everything that defines a workload's inputs and load.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub workload: Workload,
    pub sketch: SketchSpec,
    /// Closed-loop callers, each sending its next request once the
    /// previous one is answered.
    pub clients: usize,
    /// Share of each operation in the request stream (sums to 1).
    pub mix: Vec<(OpKind, f64)>,
    /// Top-k and union samples taken after the main mix, if the main mix
    /// does not issue them.
    pub side: Option<SidePhase>,
    /// Every this-many gossip ticks one pull is a full anti-entropy pull
    /// (0: never).
    pub full_sync_every: u64,
    /// Zipf exponent of key popularity.
    pub zipf_s: f64,
    /// Keys with no similarity structure, preloaded with one batch each.
    /// Ingest batches go to these (Zipf) or open new keys.
    pub stream_keys: usize,
    /// Sizes of the similarity families (each member shares a core).
    /// Top-k queries ask about family keys, uniformly, and no ingest
    /// touches them: the share of queries with fewer than k true
    /// neighbours is the share of keys in families smaller than k + 1.
    pub family_sizes: Vec<usize>,
    /// Elements of a family's shared core and of each member's own part.
    pub family_core: usize,
    pub family_private: usize,
    /// Share of ingest batches that open a new key.
    pub new_key_frac: f64,
    /// Memory budget of each store, if tiered.
    pub memory_budget_bytes: Option<usize>,
    /// Keys that cardinality, jaccard and union requests draw from.
    pub reads_from: ReadKeys,
    /// Similarity threshold sent with every `SimilarKeys` request.
    pub topk_threshold: f64,
}

/// Key population that point reads and unions target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKeys {
    /// Zipf over the stream keys.
    Stream,
    /// Zipf over every preloaded key, in a seeded order.
    Corpus,
}

/// Top-k threshold of the workloads whose side phase only samples the
/// query path: tight families (J ≈ 0.93) at a threshold the banding
/// prunes well.
pub const TIGHT_THRESHOLD: f64 = 0.9;

/// Resident bytes of one hot SetSketch2 at m = 1024 (u32 registers plus
/// the register histogram), as `tier_stats` accounts it.
pub const HOT_BYTES_M1024: usize = 12_768;

impl Spec {
    pub fn new(workload: Workload) -> Spec {
        let hll = SketchSpec {
            m: 1024,
            b: 2.0,
            a: 20.0,
            q: 62,
            seed: 0x5e75_4b37,
        };
        let minhash = SketchSpec {
            m: 256,
            b: 1.001,
            a: 20.0,
            q: (1 << 16) - 2,
            seed: 0x5e75_4b37,
        };
        use OpKind::*;
        // At m = 1024 top-k and union come in a side phase, the last 40 %
        // of the timed phase, so that the main mix is all ingest or all
        // point reads. A top-k there costs about ten unions; these splits
        // give every operation well over 1 000 samples in 25 s.
        let side = Some(SidePhase {
            mix: vec![(TopK, 0.3), (Union, 0.7)],
            share: 0.4,
        });
        match workload {
            Workload::IngestDurable => Spec {
                workload,
                sketch: hll,
                clients: 1,
                // Ingest only; every read comes in the side phase, when no
                // ingest runs. Reads mixed with the ingests, beside the
                // checkpoints and full anti-entropy pulls those cause, had
                // p99s at the edge of the share that met one, which jumped
                // between runs.
                mix: vec![(Ingest, 1.0)],
                side: Some(SidePhase {
                    mix: vec![
                        (Cardinality, 0.25),
                        (Jaccard, 0.25),
                        (TopK, 0.15),
                        (Union, 0.35),
                    ],
                    share: 0.4,
                }),
                // A full pull ships every key (0.24 s at the end of a run)
                // and sets every read tail while it runs; `serve_mix` keeps
                // them. Delta gossip stays on.
                full_sync_every: 0,
                zipf_s: 1.0,
                stream_keys: 256,
                family_sizes: vec![12; 16],
                family_core: 448,
                family_private: 16,
                new_key_frac: 0.10,
                memory_budget_bytes: None,
                reads_from: ReadKeys::Stream,
                topk_threshold: TIGHT_THRESHOLD,
            },
            Workload::ServeMix => Spec {
                workload,
                sketch: minhash,
                clients: 1,
                mix: vec![
                    (Cardinality, 0.30),
                    (Jaccard, 0.28),
                    (TopK, 0.10),
                    (Union, 0.20),
                    (Ingest, 0.12),
                ],
                side: None,
                full_sync_every: sketch_cluster::DEFAULT_FULL_SYNC_EVERY,
                zipf_s: 1.0,
                stream_keys: 100,
                family_sizes: zipf_family_sizes(300, 60),
                family_core: 192,
                family_private: 64,
                new_key_frac: 0.0,
                memory_budget_bytes: None,
                reads_from: ReadKeys::Corpus,
                topk_threshold: 0.5,
            },
            Workload::ColdReads => {
                let stream_keys = 1024;
                Spec {
                    workload,
                    sketch: hll,
                    clients: 1,
                    mix: vec![(Cardinality, 0.50), (Jaccard, 0.45), (Ingest, 0.05)],
                    side,
                    // A full pull merges every key into the receiver, and
                    // `merge_in` makes each slot hot: it would undo the
                    // tiering this workload measures and set every read's
                    // tail. Delta gossip stays on.
                    full_sync_every: 0,
                    zipf_s: 1.0,
                    stream_keys,
                    family_sizes: vec![12; 16],
                    family_core: 448,
                    family_private: 16,
                    new_key_frac: 0.0,
                    // The stream keys' hot footprint is 8x the budget.
                    memory_budget_bytes: Some(stream_keys * HOT_BYTES_M1024 / 8),
                    reads_from: ReadKeys::Stream,
                    topk_threshold: TIGHT_THRESHOLD,
                }
            }
        }
    }

    pub fn family_keys(&self) -> usize {
        self.family_sizes.iter().sum()
    }

    /// Every preloaded key with its family (`None` for stream keys):
    /// the stream keys in rank order, then the family keys.
    pub fn corpus(&self) -> Vec<(String, Option<usize>)> {
        let mut keys: Vec<(String, Option<usize>)> = (0..self.stream_keys)
            .map(|rank| (stream_key(rank), None))
            .collect();
        for (family, &size) in self.family_sizes.iter().enumerate() {
            for member in 0..size {
                keys.push((family_key(family, member), Some(family)));
            }
        }
        keys
    }

    /// The elements of a key's preload batch.
    pub fn preload_elements(&self, index: usize, family: Option<usize>, seed: u64) -> Vec<u64> {
        let private = mix(seed ^ mix(0xA11C_E000 + index as u64));
        match family {
            None => (0..BATCH as u64).map(|i| mix(private ^ mix(i))).collect(),
            Some(f) => {
                let core = mix(seed ^ 0xFA41_1700 ^ ((f as u64) << 32));
                let mut out: Vec<u64> = (0..self.family_core as u64)
                    .map(|i| mix(core ^ i))
                    .collect();
                out.extend((0..self.family_private as u64).map(|i| mix(private ^ mix(i))));
                out
            }
        }
    }
}

/// The elements of a run-time ingest batch, regenerable from its seed.
pub fn batch_elements(seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    (0..BATCH).map(|_| rng.next_u64()).collect()
}

pub fn stream_key(rank: usize) -> String {
    format!("s{rank:05}")
}

pub fn family_key(family: usize, member: usize) -> String {
    format!("f{family:04}-{member:02}")
}

/// Family sizes drawn Zipf(1) over `1..=max_size` until `total` keys.
/// The draw is part of the workload's definition, not of the run seed,
/// so the share of top-k queries that fall back stays put across seeds.
fn zipf_family_sizes(total: usize, max_size: usize) -> Vec<usize> {
    let zipf = Zipf::new(max_size, 1.0);
    let mut rng = Rng::new(STRUCTURE_SEED);
    let mut sizes = Vec::new();
    let mut have = 0;
    while have < total {
        let size = (zipf.sample(&mut rng) + 1).min(total - have);
        sizes.push(size);
        have += size;
    }
    sizes
}

/// A key population: corpus indices in popularity order, and how to
/// pick one.
struct Population {
    keys: Vec<usize>,
    zipf: Option<Zipf>,
}

impl Population {
    /// `corpus` indices matching `select`, shuffled by `seed` when
    /// `shuffle` (so popularity is not aligned with key order).
    fn new(
        corpus: &[(String, Option<usize>)],
        select: impl Fn(Option<usize>) -> bool,
        zipf_s: Option<f64>,
        shuffle: Option<u64>,
    ) -> Population {
        let mut keys: Vec<usize> = (0..corpus.len()).filter(|&i| select(corpus[i].1)).collect();
        if let Some(seed) = shuffle {
            let mut rng = Rng::new(seed);
            for i in (1..keys.len()).rev() {
                keys.swap(i, rng.below(i + 1));
            }
        }
        let zipf = zipf_s.map(|s| Zipf::new(keys.len(), s));
        Population { keys, zipf }
    }

    fn pick(&self, rng: &mut Rng) -> usize {
        let rank = match &self.zipf {
            Some(zipf) => zipf.sample(rng),
            None => rng.below(self.keys.len()),
        };
        self.keys[rank]
    }
}

/// One request stream: client `stream` of a closed loop.
pub struct OpGen<'a> {
    spec: &'a Spec,
    mix: &'a [(OpKind, f64)],
    corpus: &'a [(String, Option<usize>)],
    rng: Rng,
    stream: u64,
    ingest: Population,
    reads: Population,
    topk: Population,
    new_keys: u64,
}

impl<'a> OpGen<'a> {
    /// Draws from `mix`: the spec's own or its side phase's.
    pub fn new(
        spec: &'a Spec,
        mix: &'a [(OpKind, f64)],
        corpus: &'a [(String, Option<usize>)],
        seed: u64,
        stream: u64,
    ) -> Self {
        let s = Some(spec.zipf_s);
        let reads = match spec.reads_from {
            ReadKeys::Stream => Population::new(corpus, |f| f.is_none(), s, None),
            ReadKeys::Corpus => Population::new(corpus, |_| true, s, Some(STRUCTURE_SEED ^ 0xC0)),
        };
        OpGen {
            spec,
            mix,
            corpus,
            rng: Rng::stream(seed, 0x0900 + stream),
            stream,
            ingest: Population::new(corpus, |f| f.is_none(), s, None),
            reads,
            topk: Population::new(corpus, |f| f.is_some(), None, None),
            new_keys: 0,
        }
    }

    fn read_key(&mut self) -> usize {
        self.reads.pick(&mut self.rng)
    }

    pub fn next_op(&mut self) -> Op {
        let mut u = self.rng.unit();
        let mut kind = self.mix[0].0;
        for &(candidate, share) in self.mix {
            kind = candidate;
            if u < share {
                break;
            }
            u -= share;
        }
        match kind {
            OpKind::Ingest => {
                let seed = self.rng.next_u64();
                let new_key = self.rng.unit() < self.spec.new_key_frac;
                let key = if new_key {
                    self.new_keys += 1;
                    format!("n{}-{:06}", self.stream, self.new_keys - 1)
                } else {
                    self.corpus[self.ingest.pick(&mut self.rng)].0.clone()
                };
                Op::Ingest {
                    key,
                    seed,
                    elements: batch_elements(seed),
                    new_key,
                }
            }
            OpKind::Cardinality => Op::Cardinality {
                key: self.corpus[self.read_key()].0.clone(),
            },
            OpKind::Jaccard => {
                let left = self.read_key();
                let mut right = self.read_key();
                while right == left {
                    right = self.read_key();
                }
                Op::Jaccard {
                    left: self.corpus[left].0.clone(),
                    right: self.corpus[right].0.clone(),
                }
            }
            OpKind::TopK => Op::TopK {
                key: self.corpus[self.topk.pick(&mut self.rng)].0.clone(),
            },
            OpKind::Union => {
                let n = 2 + self.rng.below(3);
                let mut keys: Vec<String> = Vec::with_capacity(n);
                while keys.len() < n {
                    let key = &self.corpus[self.read_key()].0;
                    if !keys.contains(key) {
                        keys.push(key.clone());
                    }
                }
                Op::Union { keys }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests() {
        for workload in [
            Workload::IngestDurable,
            Workload::ServeMix,
            Workload::ColdReads,
        ] {
            let spec = Spec::new(workload);
            let corpus = spec.corpus();
            assert_eq!(corpus, Spec::new(workload).corpus());
            let mut mixes = vec![&spec.mix];
            mixes.extend(spec.side.as_ref().map(|side| &side.mix));
            for mix in mixes {
                let stream = |seed| {
                    let mut gen = OpGen::new(&spec, mix, &corpus, seed, 1);
                    (0..500).map(|_| gen.next_op()).collect::<Vec<Op>>()
                };
                let a = stream(42);
                assert_eq!(a, stream(42), "{workload:?}");
                assert_ne!(a, stream(43), "another seed gives another stream");
            }
        }
    }

    #[test]
    fn ingest_elements_regenerate_from_seed() {
        let spec = Spec::new(Workload::IngestDurable);
        let corpus = spec.corpus();
        let mut gen = OpGen::new(&spec, &spec.mix, &corpus, 9, 0);
        let (mut ingests, mut new_keys) = (0, 0);
        for _ in 0..2000 {
            if let Op::Ingest {
                key,
                seed,
                elements,
                new_key,
            } = gen.next_op()
            {
                assert_eq!(batch_elements(seed), elements);
                assert!(
                    new_key || key.starts_with('s'),
                    "ingest never touches a family key"
                );
                ingests += 1;
                new_keys += new_key as usize;
            }
        }
        let share = new_keys as f64 / ingests as f64;
        assert!(
            (share - spec.new_key_frac).abs() < 0.03,
            "new-key share {share}"
        );
    }

    #[test]
    fn mix_shares_match_spec() {
        for workload in [
            Workload::IngestDurable,
            Workload::ServeMix,
            Workload::ColdReads,
        ] {
            let spec = Spec::new(workload);
            let corpus = spec.corpus();
            let mut mixes = vec![&spec.mix];
            mixes.extend(spec.side.as_ref().map(|side| &side.mix));
            for mix in mixes {
                let total: f64 = mix.iter().map(|&(_, share)| share).sum();
                assert!((total - 1.0).abs() < 1e-12, "{workload:?}: {total}");
                let mut gen = OpGen::new(&spec, mix, &corpus, 3, 0);
                let n = 40_000;
                let mut counts = std::collections::BTreeMap::new();
                for _ in 0..n {
                    *counts.entry(gen.next_op().kind()).or_insert(0usize) += 1;
                }
                assert_eq!(counts.len(), mix.len(), "only the mix's kinds");
                for &(kind, share) in mix {
                    let got = counts[&kind] as f64 / n as f64;
                    assert!((got - share).abs() < 0.01, "{kind:?}: {got} vs {share}");
                }
            }
            // Every operation is issued somewhere, so every metric is
            // present; top-k and union stay out of a main mix with a side
            // phase, so they cannot set its throughput.
            for kind in OpKind::ALL {
                let in_main = spec.mix.iter().any(|&(k, _)| k == kind);
                let in_side = spec
                    .side
                    .as_ref()
                    .is_some_and(|side| side.mix.iter().any(|&(k, _)| k == kind));
                assert!(in_main ^ in_side, "{workload:?} {kind:?}");
            }
        }
    }

    #[test]
    fn zipf_matches_its_distribution() {
        let zipf = Zipf::new(50, 1.0);
        let total: f64 = (0..50).map(|r| zipf.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let harmonic: f64 = (1..=50).map(|r| 1.0 / r as f64).sum();
        assert!((zipf.pmf(0) - 1.0 / harmonic).abs() < 1e-12);
        assert!((zipf.pmf(9) - 0.1 / harmonic).abs() < 1e-12);

        let mut rng = Rng::new(11);
        let n = 200_000;
        let mut counts = vec![0usize; 50];
        for _ in 0..n {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // Pearson chi-square against the pmf; 49 degrees of freedom,
        // the 0.999 quantile is about 85.4.
        let chi2: f64 = counts
            .iter()
            .enumerate()
            .map(|(r, &c)| {
                let expected = zipf.pmf(r) * n as f64;
                (c as f64 - expected).powi(2) / expected
            })
            .sum();
        assert!(chi2 < 85.4, "chi-square {chi2}");
    }

    #[test]
    fn serve_mix_has_a_fallback_share() {
        let spec = Spec::new(Workload::ServeMix);
        let small: usize = spec.family_sizes.iter().filter(|&&n| n < TOPK_K + 1).sum();
        let share = small as f64 / spec.family_keys() as f64;
        assert!((0.05..0.2).contains(&share), "fallback share {share}");
    }
}
