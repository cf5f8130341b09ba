//! `grid_serve`: online serving of a 2-D spatial histogram (the grid
//! shape of *WaveCluster with Differential Privacy*) by two reader
//! threads sharing one `ConcurrentEngine`. Readers answer Zipf-ranked
//! picks from a catalog whose distinct supports exceed the default
//! support cache, in fixed-size rounds. Between rounds the main thread
//! absorbs one batch of increments into a plain `IncrementalRelease`,
//! rolls the epoch and advances the engine, carrying its cache over.
//! Time goes to the online path: the sharded cache, derivation on
//! misses, and the sparse dot, under two-core contention.

use crate::report::{PhaseNames, Report, Run};
use crate::stats::{Hist, IngestTotals, Phase, MS, US};
use crate::trace::Tracer;
use privelet::IncrementalRelease;
use privelet_data::distributions::{zipf_weights, Discrete};
use privelet_data::schema::{Attribute, Schema};
use privelet_data::FrequencyMatrix;
use privelet_matrix::NdMatrix;
use privelet_noise::derive_rng;
use privelet_noise::rng::splitmix64;
use privelet_query::{generate_workload, ConcurrentEngine, RangeQuery, WorkloadConfig};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

const EPOCH_EPSILON: f64 = 1.0;
const TOTAL_EPSILON: f64 = 1e6;
const ROUND: &str = "grid_serve.round";
const ROLL: &str = "grid_serve.roll";

type Batch = Vec<(Vec<usize>, f64)>;

/// Workload dimensions.
#[derive(Debug, Clone)]
pub struct Size {
    /// The grid is `side × side`, pure Haar.
    pub side: usize,
    pub clusters: usize,
    pub catalog: usize,
    pub zipf: f64,
    pub readers: usize,
    /// Answers per reader per round.
    pub round: usize,
    /// Increments absorbed between rounds.
    pub absorb: usize,
    /// Rounds (each followed by a roll) run inside set-up.
    pub warmup: u64,
    /// Answers per reader per round compared with `answer_uncached`.
    pub checks: usize,
}

impl Size {
    /// A 1024 × 1024 grid (2^20 cells); 8192 catalog queries with 1–2
    /// predicates; two readers, 16384 answers each per round.
    pub fn full() -> Self {
        Size {
            side: 1024,
            clusters: 8,
            catalog: 8192,
            zipf: 1.0,
            readers: 2,
            round: 16_384,
            absorb: 1024,
            warmup: 2,
            checks: 16,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        Size {
            side: 32,
            clusters: 3,
            catalog: 256,
            zipf: 1.0,
            readers: 2,
            round: 256,
            absorb: 32,
            warmup: 1,
            checks: 4,
        }
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            ("grid", format!("{0}x{0}", self.side)),
            ("clusters", self.clusters.to_string()),
            ("catalog", self.catalog.to_string()),
            ("zipf", self.zipf.to_string()),
            ("readers", self.readers.to_string()),
            ("round", self.round.to_string()),
            ("absorb", self.absorb.to_string()),
            ("warmup_rounds", self.warmup.to_string()),
        ]
    }
}

struct State {
    schema: Schema,
    rel: IncrementalRelease,
    engine: ConcurrentEngine,
    catalog: Vec<RangeQuery>,
    ranks: Discrete,
    /// Popularity rank → catalog index.
    rank_to_query: Vec<u32>,
    /// Answers served through the engine's cache since it was built.
    answered: u64,
    ingest: IngestTotals,
    new_ms: f64,
}

/// What one reader thread measured in one round.
struct ReaderOut {
    latency: Hist,
    wall: Duration,
    answered: u64,
    failed: u64,
    /// `(catalog index, answer)` for the first answers of the round.
    samples: Vec<(u32, f64)>,
    tracer: Tracer,
}

fn roll_seed(seed: u64, r: u64) -> u64 {
    splitmix64(seed ^ splitmix64(0x6A1D_0000 + r))
}

/// A spatial histogram: separable Gaussian clusters with seeded centres,
/// spreads and weights, floored to whole counts.
fn fixture(seed: u64, size: &Size) -> Result<FrequencyMatrix, String> {
    let n = size.side;
    let schema = Schema::new(vec![Attribute::ordinal("x", n), Attribute::ordinal("y", n)])
        .map_err(|e| e.to_string())?;
    let mut rng = derive_rng(seed, 1);
    let axis = |rng: &mut rand::rngs::StdRng| -> Vec<f64> {
        let centre = rng.random_range(0.0..n as f64);
        let spread = rng.random_range(n as f64 / 64.0..n as f64 / 8.0);
        (0..n)
            .map(|i| (-0.5 * ((i as f64 - centre) / spread).powi(2)).exp())
            .collect()
    };
    let clusters: Vec<(f64, Vec<f64>, Vec<f64>)> = (0..size.clusters)
        .map(|_| (rng.random_range(4.0..40.0), axis(&mut rng), axis(&mut rng)))
        .collect();
    let mut cells = vec![0.0; n * n];
    for (x, row) in cells.chunks_mut(n).enumerate() {
        for (w, fx, fy) in &clusters {
            let wx = w * fx[x];
            for (c, f) in row.iter_mut().zip(fy) {
                *c += wx * f;
            }
        }
        for c in row.iter_mut() {
            *c = c.floor();
        }
    }
    let matrix = NdMatrix::from_vec(&[n, n], cells).map_err(|e| e.to_string())?;
    FrequencyMatrix::from_parts(schema, matrix).map_err(|e| e.to_string())
}

fn setup(seed: u64, size: &Size) -> Result<(State, ()), String> {
    let fm = fixture(seed, size)?;
    let t = Instant::now();
    let mut rel = IncrementalRelease::new(&fm, &BTreeSet::new(), TOTAL_EPSILON)
        .map_err(|e| format!("IncrementalRelease::new: {e}"))?;
    let new_ms = t.elapsed().as_secs_f64() * 1e3;
    let first = rel
        .advance_epoch(EPOCH_EPSILON, roll_seed(seed, 0))
        .map_err(|e| format!("first epoch: {e}"))?;
    let engine = ConcurrentEngine::from_output(&first).map_err(|e| format!("engine: {e}"))?;
    let catalog = generate_workload(
        fm.schema(),
        &WorkloadConfig {
            n_queries: size.catalog,
            min_predicates: 1,
            max_predicates: 2,
            seed: splitmix64(seed ^ 0xCA7A_1065),
        },
    )
    .map_err(|e| format!("catalog: {e}"))?;
    let mut rank_to_query: Vec<u32> = (0..size.catalog as u32).collect();
    rank_to_query.shuffle(&mut derive_rng(seed, 2));
    let mut state = State {
        schema: fm.schema().clone(),
        rel,
        engine,
        catalog,
        ranks: Discrete::new(&zipf_weights(size.catalog, size.zipf)).map_err(|e| e.to_string())?,
        rank_to_query,
        answered: 0,
        ingest: IngestTotals::default(),
        new_ms,
    };
    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut phase = Phase::default();
    for r in 1..=size.warmup {
        let picks = round_picks(&state, seed, r, size);
        for out in round(&state, &picks, r, false, Instant::now(), 0) {
            if out.failed > 0 {
                return Err("warm-up answer failed".into());
            }
            state.answered += out.answered;
        }
        let batch = absorb_batch(&state, seed, r, size);
        roll(&mut state, &batch, seed, r, &mut tracer, &mut phase)?;
    }
    Ok((state, ()))
}

/// Each reader's Zipf-ranked picks for round `r`.
fn round_picks(state: &State, seed: u64, r: u64, size: &Size) -> Vec<Vec<u32>> {
    (0..size.readers as u64)
        .map(|k| {
            let mut rng = derive_rng(seed, 0x2000_0000 + r * 64 + k);
            (0..size.round)
                .map(|_| state.rank_to_query[state.ranks.sample(&mut rng)])
                .collect()
        })
        .collect()
}

/// Uniform unit increments absorbed after round `r`.
fn absorb_batch(state: &State, seed: u64, r: u64, size: &Size) -> Batch {
    let mut rng = derive_rng(seed, 0x3000_0000 + r);
    let dims = state.schema.dims();
    (0..size.absorb)
        .map(|_| (dims.iter().map(|&m| rng.random_range(0..m)).collect(), 1.0))
        .collect()
}

fn reader(
    engine: &ConcurrentEngine,
    catalog: &[RangeQuery],
    picks: &[u32],
    checks: usize,
    mut tracer: Tracer,
    request: u64,
) -> ReaderOut {
    let mut latency = Hist::default();
    let mut samples = Vec::with_capacity(checks);
    let (mut answered, mut failed) = (0, 0);
    tracer.enter(ROUND, request);
    let start = Instant::now();
    let mut prev = start;
    for (j, &p) in picks.iter().enumerate() {
        tracer.enter_hot("concurrent.answer", request + j as u64);
        let answer = engine.answer(&catalog[p as usize]);
        tracer.exit();
        let now = Instant::now();
        latency.record(now - prev);
        prev = now;
        match answer {
            Ok(v) => {
                answered += 1;
                if samples.len() < checks {
                    samples.push((p, v));
                }
            }
            Err(_) => failed += 1,
        }
    }
    let wall = prev - start;
    tracer.exit();
    ReaderOut {
        latency,
        wall,
        answered,
        failed,
        samples,
        tracer,
    }
}

/// One round: every reader thread answers its picks against the shared
/// engine; the scope joins them all.
fn round(
    state: &State,
    picks: &[Vec<u32>],
    r: u64,
    traced: bool,
    origin: Instant,
    checks: usize,
) -> Vec<ReaderOut> {
    std::thread::scope(|s| {
        let handles: Vec<_> = picks
            .iter()
            .enumerate()
            .map(|(k, p)| {
                let mut tracer = Tracer::new(origin, k as u32 + 1);
                tracer.set_on(traced);
                let (engine, catalog) = (&state.engine, &state.catalog[..]);
                let request = (r << 32) | ((k as u64) << 24);
                s.spawn(move || reader(engine, catalog, p, checks, tracer, request))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    })
}

/// Absorb a batch, roll the epoch, advance the engine (cache carried).
/// `release` times the roll alone: epoch close → new epoch servable.
fn roll(
    state: &mut State,
    batch: &Batch,
    seed: u64,
    r: u64,
    tracer: &mut Tracer,
    phase: &mut Phase,
) -> Result<(), String> {
    tracer.enter(ROLL, r);
    let result: Result<_, String> = (|| {
        tracer.enter("incremental.apply", r);
        let report = state.rel.apply_increments(batch);
        tracer.exit();
        let report = report.map_err(|e| format!("apply_increments: {e}"))?;
        state.ingest.add(&report);
        let t = Instant::now();
        tracer.enter("incremental.advance", r);
        let out = state.rel.advance_epoch(EPOCH_EPSILON, roll_seed(seed, r));
        tracer.exit();
        let out = out.map_err(|e| format!("IncrementalRelease::advance_epoch: {e}"))?;
        tracer.enter("release.advance", r);
        let next = state.engine.advance_epoch(&out);
        tracer.exit();
        let next = next.map_err(|e| format!("ConcurrentEngine::advance_epoch: {e}"))?;
        phase.release.record(t.elapsed());
        Ok(next)
    })();
    tracer.exit();
    drop(std::mem::replace(&mut state.engine, result?));
    Ok(())
}

pub fn run(run: &Run, size: &Size) -> Result<Report, String> {
    let mut report = Report::new("grid_serve", run, &size.describe());
    let setup = run.setup(|| setup(run.seed, size))?;
    report.setup(&setup);
    let mut state = setup.state;

    let mut tracer = Tracer::new(run.start, 0);
    let (mut off, mut on) = (Phase::default(), Phase::default());
    let stats0 = state.engine.cache_stats();
    let answered0 = state.answered;
    state.ingest = IngestTotals::default();
    let deadline = run.deadline();
    let mut r = size.warmup + 1;
    let last_picks = loop {
        let picks = round_picks(&state, run.seed, r, size);
        let traced = run.traced(r);
        let outs = round(&state, &picks, r, traced, run.start, size.checks);
        let phase = if traced { &mut on } else { &mut off };
        let mut wall = Duration::ZERO;
        let mut samples = Vec::new();
        for out in outs {
            phase.call.merge(&out.latency);
            phase.items += out.answered;
            wall = wall.max(out.wall);
            report.ops(out.answered + out.failed, out.failed);
            state.answered += out.answered;
            samples.extend(out.samples);
            tracer.absorb(out.tracer);
        }
        phase.busy += wall;
        // A fixed sample of each round's answers must equal the
        // cache-free path, bitwise.
        for (p, v) in samples {
            let ok = state
                .engine
                .core()
                .answer_uncached(&state.catalog[p as usize])
                .is_ok_and(|want| want.to_bits() == v.to_bits());
            report.op(ok, "online answer vs answer_uncached");
        }
        let batch = absorb_batch(&state, run.seed, r, size);
        tracer.set_on(traced);
        match roll(&mut state, &batch, run.seed, r, &mut tracer, phase) {
            Ok(()) => report.ops(3, 0),
            Err(e) => report.fail(&e),
        }
        tracer.set_on(false);
        r += 1;
        if Instant::now() >= deadline {
            break picks;
        }
    };

    let stats = state.engine.cache_stats();
    let arity = state.schema.arity() as u64;
    report.op(
        stats.hits + stats.misses == state.answered * arity,
        "cache hits + misses == queries × arity",
    );
    let lookups = (stats.hits + stats.misses).saturating_sub(stats0.hits + stats0.misses);
    let hit_rate = (stats.hits - stats0.hits) as f64 / lookups.max(1) as f64;
    let evictions = (stats.evictions - stats0.evictions) as f64;
    let per_query = evictions / (state.answered - answered0).max(1) as f64;
    report.value("cache.hit_rate", hit_rate, "ratio", "(timed phase)");
    report.value(
        "cache.evictions_per_query",
        per_query,
        "ratio",
        "(timed phase)",
    );

    let names = PhaseNames {
        release: "roll_ms",
        call: "online_us",
        call_unit_ns: US,
        call_unit: "us",
        items: "online_qps",
    };
    report.phases(&names, &off, &on);
    if run.trace {
        report.layer(
            "incremental.advance_ms_p50",
            tracer.p50("incremental.advance", MS),
        );
        report.layer("release.advance_ms_p50", tracer.p50("release.advance", MS));
        report.layer("incremental.new_ms", state.new_ms);
        report.layer(
            "incremental.written_per_increment",
            state.ingest.written_per_increment(),
        );
        report.layer(
            "incremental.coalesced_share",
            state.ingest.coalesced_share(),
        );
        report.layer("cache.hit_rate", hit_rate);
        report.layer("cache.evictions_per_query", per_query);
        replay(&state, &last_picks, &off, &mut report);
        report.spans(&mut tracer, &[ROUND, ROLL]);
    }
    Ok(report)
}

/// Single-threaded replays after the timed phase: the catalog through
/// `derive_support` and `dot` (the miss and hit paths of one answer), and
/// the last round's picks through the engine on one thread.
fn replay(state: &State, picks: &[Vec<u32>], off: &Phase, report: &mut Report) {
    let core = state.engine.core();
    let (mut derive, mut dot) = (Hist::default(), Hist::default());
    let mut reads = 0usize;
    for q in &state.catalog {
        let Ok((lo, hi)) = q.bounds(core.schema()) else {
            report.fail("catalog query failed validation");
            continue;
        };
        let mut supports = Vec::with_capacity(lo.len());
        for dim in 0..lo.len() {
            let t = Instant::now();
            let s = core.derive_support(dim, lo[dim], hi[dim]);
            derive.record(t.elapsed());
            match s {
                Ok(s) => supports.push(s),
                Err(e) => report.fail(&format!("derive_support: {e}")),
            }
        }
        if supports.len() == lo.len() {
            reads += supports.iter().map(|s| s.len()).product::<usize>();
            let t = Instant::now();
            std::hint::black_box(core.dot(&supports));
            dot.record(t.elapsed());
        }
    }
    report.layer("release.derive_us_p50", derive.quantile(0.5, US));
    report.layer("release.dot_us_p50", dot.quantile(0.5, US));
    report.layer(
        "release.reads_per_query",
        reads as f64 / state.catalog.len().max(1) as f64,
    );

    let mut alone = Hist::default();
    let mut prev = Instant::now();
    for &p in picks.iter().flatten() {
        let answer = state.engine.answer(&state.catalog[p as usize]);
        let now = Instant::now();
        alone.record(now - prev);
        prev = now;
        report.op(answer.is_ok(), "single-thread replay answer");
    }
    let alone_p50 = alone.quantile(0.5, US);
    report.timing("concurrent.answer_1t_us", "us", US, &alone);
    report.layer("concurrent.answer_1t_us_p50", alone_p50);
    report.layer(
        "concurrent.contention_us",
        off.call.quantile(0.5, US) - alone_p50,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_traced_run_passes_its_checks() {
        let run = Run {
            seed: 11,
            seconds: 0.2,
            trace: true,
            start: Instant::now(),
        };
        let report = super::run(&run, &Size::tiny()).unwrap();
        let (failed, attempted) = report.counts();
        assert_eq!(failed, 0);
        assert!(attempted > 0);
    }
}
