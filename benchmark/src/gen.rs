//! Request generation from the seed, and the answer oracle.
//!
//! Keys are `u64`, partitioned by `key % connections`: each connection is
//! the only writer of — and the only reader and aggregator over — its
//! partition. Per-connection FIFO then makes the true value of every key
//! known at every reply, which is what lets the oracle check every
//! answer instead of sampling.

use apcache_core::{Interval, Rng};
use apcache_queries::AggregateKind;
use apcache_store::{Constraint, ReadResult};
use apcache_workload::{
    KindMix, QueryConfig, QueryGenerator, RandomWalk, ValueProcess, WalkConfig,
};

use crate::workloads::{ReadProfile, Workload};

/// Zipf exponent of the key popularity, as in YCSB.
const ZIPF_S: f64 = 0.99;
/// Aggregates are drawn up front (`QueryGenerator` allocates a scratch
/// pool the size of the partition per query — setup cost, not load).
const AGGREGATE_POOL: usize = 4_096;

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over no ranks");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank whose CDF slice contains `u ∈ [0, 1)`.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// The starting value of every key, from the seed alone: the store is
/// built with these and each key's walk starts from them. Spread away
/// from zero so `Relative` constraints mean something.
pub fn initial_values(keys: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x1A17);
    (0..keys).map(|_| rng.uniform(100.0, 1_000.0)).collect()
}

/// One generated request. `slot` indexes the connection's partition
/// (its oracle table); `key` is what goes on the wire.
#[derive(Debug, Clone)]
pub enum Op {
    Read { slot: u32, key: u64, constraint: Constraint },
    Write { slot: u32, key: u64, value: f64 },
    Aggregate { kind: AggregateKind, slots: Vec<u32>, keys: Vec<u64>, delta: f64 },
}

/// One connection's request stream.
pub struct ConnGen {
    rng: Rng,
    zipf: Zipf,
    /// Partition keys in popularity order: rank → key, scattered over
    /// the key space by a seeded shuffle.
    keys: Vec<u64>,
    walks: Vec<RandomWalk>,
    aggregates: Vec<Op>,
    next_aggregate: usize,
    workload: &'static Workload,
}

impl ConnGen {
    pub fn new(
        workload: &'static Workload,
        conn: usize,
        conns: usize,
        seed: u64,
        initial: &[f64],
    ) -> Self {
        let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(conn as u64));
        let mut keys: Vec<u64> =
            (0..workload.keys as u64).filter(|k| k % conns as u64 == conn as u64).collect();
        rng.shuffle(&mut keys);
        let walks = keys
            .iter()
            .map(|&k| {
                let cfg =
                    WalkConfig { initial: initial[k as usize], ..WalkConfig::paper_default() };
                RandomWalk::new(cfg, rng.fork()).expect("paper walk config is valid")
            })
            .collect();
        // Every workload gets the pool: the traced run's ladder replays
        // aggregates on all of them, whatever the mix.
        let aggregates: Vec<Op> = {
            let cfg = QueryConfig {
                period_secs: 1.0,
                fanout: 10,
                delta_avg: workload.aggregate_delta_avg,
                delta_rho: 1.0,
                kind_mix: KindMix::SumOrMax,
            };
            let mut queries =
                QueryGenerator::new(cfg, keys.len(), rng.fork()).expect("query config is valid");
            (0..AGGREGATE_POOL)
                .map(|_| {
                    let q = queries.next_query();
                    Op::Aggregate {
                        kind: q.kind,
                        keys: q.keys.iter().map(|k| keys[k.0 as usize]).collect(),
                        slots: q.keys.iter().map(|k| k.0).collect(),
                        delta: q.delta,
                    }
                })
                .collect()
        };
        let zipf = Zipf::new(keys.len(), ZIPF_S);
        ConnGen { rng, zipf, keys, walks, aggregates, next_aggregate: 0, workload }
    }

    /// The partition's keys, hottest first.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The next aggregate of the pre-drawn pool (it cycles).
    pub fn next_aggregate(&mut self) -> Op {
        let op = self.aggregates[self.next_aggregate].clone();
        self.next_aggregate = (self.next_aggregate + 1) % self.aggregates.len();
        op
    }

    pub fn next_op(&mut self) -> Op {
        let mix = &self.workload.mix;
        let u = self.rng.f64();
        if u < mix.aggregate {
            return self.next_aggregate();
        }
        let slot = self.zipf.rank(self.rng.f64());
        let key = self.keys[slot];
        if u < mix.aggregate + mix.write {
            Op::Write { slot: slot as u32, key, value: self.walks[slot].step() }
        } else {
            let constraint = match self.workload.reads {
                ReadProfile::Loose { lo, hi } => Constraint::Absolute(self.rng.uniform(lo, hi)),
                ReadProfile::Tight { hi } => match self.rng.below(10) {
                    0 => Constraint::Exact,
                    1 => Constraint::Relative(0.01),
                    _ => Constraint::Absolute(self.rng.uniform(0.0, hi)),
                },
            };
            Op::Read { slot: slot as u32, key, constraint }
        }
    }
}

/// What a reply must satisfy, fixed when its request is submitted.
#[derive(Debug, Clone)]
pub enum Expect {
    Read {
        truth: f64,
        constraint: Constraint,
    },
    Write,
    /// Per key, the range of values it held while the aggregate was in
    /// flight: a multi-round aggregate may read a key after a later
    /// write of the same connection, so under pipelining each key's
    /// contribution is known only to `[lo, hi]` (a point at window 1).
    Aggregate {
        kind: AggregateKind,
        slots: Vec<u32>,
        lo: Vec<f64>,
        hi: Vec<f64>,
        delta: f64,
    },
}

impl Expect {
    /// A write to `slot` was submitted while this request was in flight.
    pub fn note_write(&mut self, slot: u32, value: f64) {
        if let Expect::Aggregate { slots, lo, hi, .. } = self {
            if let Some(i) = slots.iter().position(|&s| s == slot) {
                lo[i] = lo[i].min(value);
                hi[i] = hi[i].max(value);
            }
        }
    }

    /// The answer contains the true value and is as narrow as asked.
    pub fn read_ok(&self, result: &ReadResult) -> bool {
        match self {
            Expect::Read { truth, constraint } => {
                result.answer.contains(*truth) && constraint.satisfied_by(&result.answer.interval())
            }
            _ => false,
        }
    }

    /// The interval contains a true SUM/MAX and is no wider than δ.
    pub fn aggregate_ok(&self, answer: &Interval) -> bool {
        let Expect::Aggregate { kind, lo, hi, delta, .. } = self else { return false };
        let (lo, hi) = match kind {
            AggregateKind::Sum => (lo.iter().sum::<f64>(), hi.iter().sum::<f64>()),
            AggregateKind::Max => (
                lo.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                hi.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            ),
            other => unreachable!("the generator draws SUM or MAX, not {other:?}"),
        };
        // Summation order differs between oracle and store.
        let slack = 1e-9 * (1.0 + lo.abs().max(hi.abs()));
        answer.lo() <= hi + slack && answer.hi() >= lo - slack && answer.width() <= delta + slack
    }
}

/// The per-connection value table: the last value written per owned
/// key, which — single writer, FIFO connection — is the true value.
pub struct Oracle {
    truth: Vec<f64>,
}

impl Oracle {
    pub fn new(gen: &ConnGen, initial: &[f64]) -> Self {
        Oracle { truth: gen.keys().iter().map(|&k| initial[k as usize]).collect() }
    }

    /// Record a request about to be submitted and fix what its reply
    /// must satisfy.
    pub fn on_submit(&mut self, op: &Op) -> Expect {
        match op {
            Op::Read { slot, constraint, .. } => {
                Expect::Read { truth: self.truth[*slot as usize], constraint: *constraint }
            }
            Op::Write { slot, value, .. } => {
                self.truth[*slot as usize] = *value;
                Expect::Write
            }
            Op::Aggregate { kind, slots, delta, .. } => {
                let values: Vec<f64> = slots.iter().map(|&s| self.truth[s as usize]).collect();
                Expect::Aggregate {
                    kind: *kind,
                    slots: slots.clone(),
                    lo: values.clone(),
                    hi: values,
                    delta: *delta,
                }
            }
        }
    }

    pub fn truth(&self, slot: usize) -> f64 {
        self.truth[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use apcache_store::Answer;

    #[test]
    fn zipf_is_skewed_monotone_and_deterministic() {
        let z = Zipf::new(1_000, 0.99);
        let mut rng = Rng::seed_from_u64(7);
        let mut counts = vec![0u32; 1_000];
        for _ in 0..200_000 {
            counts[z.rank(rng.f64())] += 1;
        }
        // P(rank 0) = 1 / H(1000, 0.99) ≈ 0.1313.
        let p0 = f64::from(counts[0]) / 200_000.0;
        assert!((p0 - 0.1313).abs() < 0.005, "p0 {p0}");
        // Rank r is about (r+1)^-0.99 as likely as rank 0.
        let ratio = f64::from(counts[9]) / f64::from(counts[0]);
        assert!((ratio - 10f64.powf(-0.99)).abs() < 0.02, "ratio {ratio}");
        assert!(counts[0] > counts[10] && counts[10] > counts[100]);
        assert_eq!(z.rank(0.0), 0);
        assert_eq!(z.rank(0.999_999_999), 999);
        assert_eq!(Zipf::new(1, 0.99).rank(0.5), 0);
    }

    #[test]
    fn same_seed_same_requests_and_disjoint_partitions() {
        let w = workloads::by_name("precision_churn").unwrap();
        let initial = initial_values(w.keys, 3);
        let mut a = ConnGen::new(w, 0, 2, 3, &initial);
        let mut b = ConnGen::new(w, 0, 2, 3, &initial);
        for _ in 0..2_000 {
            assert_eq!(format!("{:?}", a.next_op()), format!("{:?}", b.next_op()));
        }
        let other = ConnGen::new(w, 1, 2, 3, &initial);
        assert!(a.keys().iter().all(|k| k % 2 == 0));
        assert!(other.keys().iter().all(|k| k % 2 == 1));
        assert_eq!(a.keys().len() + other.keys().len(), w.keys);
        let mut c = ConnGen::new(w, 0, 2, 4, &initial);
        let differs =
            (0..100).any(|_| format!("{:?}", a.next_op()) != format!("{:?}", c.next_op()));
        assert!(differs, "another seed must give other requests");
    }

    #[test]
    fn oracle_tracks_writes_and_judges_answers() {
        let w = workloads::by_name("point_open").unwrap();
        let initial = initial_values(w.keys, 1);
        let gen = ConnGen::new(w, 0, 1, 1, &initial);
        let mut oracle = Oracle::new(&gen, &initial);
        let key = gen.keys()[5];
        oracle.on_submit(&Op::Write { slot: 5, key, value: 42.0 });
        let read = Op::Read { slot: 5, key, constraint: Constraint::Absolute(4.0) };
        let expect = oracle.on_submit(&read);
        let iv = |lo, hi| Answer::Interval(Interval::new(lo, hi).unwrap());
        assert!(expect.read_ok(&ReadResult { answer: iv(40.0, 44.0), refreshed: false }));
        assert!(!expect.read_ok(&ReadResult { answer: iv(43.0, 45.0), refreshed: false }));
        assert!(!expect.read_ok(&ReadResult { answer: iv(38.0, 44.0), refreshed: false }));
        assert!(expect.read_ok(&ReadResult { answer: Answer::Exact(42.0), refreshed: true }));
    }

    #[test]
    fn aggregate_oracle_widens_for_in_flight_writes() {
        let w = workloads::by_name("point_open").unwrap();
        let initial = initial_values(w.keys, 1);
        let gen = ConnGen::new(w, 0, 1, 1, &initial);
        let mut oracle = Oracle::new(&gen, &initial);
        for (slot, value) in [(0u32, 10.0), (1, 20.0), (2, 30.0)] {
            oracle.on_submit(&Op::Write { slot, key: gen.keys()[slot as usize], value });
        }
        let sum = |delta| Op::Aggregate {
            kind: AggregateKind::Sum,
            slots: vec![0, 1, 2],
            keys: gen.keys()[..3].to_vec(),
            delta,
        };
        let mut expect = oracle.on_submit(&sum(6.0));
        assert!(expect.aggregate_ok(&Interval::new(58.0, 62.0).unwrap()));
        assert!(!expect.aggregate_ok(&Interval::new(61.0, 65.0).unwrap()));
        assert!(!expect.aggregate_ok(&Interval::new(50.0, 70.0).unwrap()), "wider than δ");
        // A write submitted behind it may or may not be seen.
        expect.note_write(1, 25.0);
        assert!(expect.aggregate_ok(&Interval::new(61.0, 65.0).unwrap()));
        assert!(!expect.aggregate_ok(&Interval::new(66.0, 70.0).unwrap()));
        let max = Op::Aggregate {
            kind: AggregateKind::Max,
            slots: vec![0, 1, 2],
            keys: gen.keys()[..3].to_vec(),
            delta: 2.0,
        };
        let expect = oracle.on_submit(&max);
        assert!(expect.aggregate_ok(&Interval::new(29.0, 31.0).unwrap()));
        assert!(!expect.aggregate_ok(&Interval::new(19.0, 21.0).unwrap()));
    }
}
