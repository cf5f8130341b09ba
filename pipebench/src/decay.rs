//! `decay_stream`: a decayed time × category stream on one writer
//! thread. Each epoch absorbs 16 coalesced batches into a
//! `DecayedSumRelease` (α = 0.9), then rolls the epoch into a
//! `ConcurrentEngine`. Time goes to coalesced bulk ingest and to the decay
//! rebuild (a full staged forward per epoch); there is no plan compile and
//! no online read. The benchmark keeps its own mirror of the table to
//! check the release against.

use crate::report::{PhaseNames, Report, Run};
use crate::stats::{IngestTotals, Phase, MS, US};
use crate::trace::Tracer;
use privelet::mechanism::{publish_coefficients, CoefficientOutput, PriveletConfig};
use privelet::DecayedSumRelease;
use privelet_data::distributions::{zipf_weights, Discrete};
use privelet_data::schema::{Attribute, Schema};
use privelet_data::FrequencyMatrix;
use privelet_hierarchy::builder::three_level;
use privelet_matrix::NdMatrix;
use privelet_noise::derive_rng;
use privelet_noise::rng::splitmix64;
use privelet_query::ConcurrentEngine;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeSet;
use std::time::Instant;

const ALPHA: f64 = 0.9;
/// Whole-number ε per epoch under a budget no run can exhaust, so every
/// epoch is granted and the ledger's sums stay exact.
const EPOCH_EPSILON: f64 = 1.0;
const TOTAL_EPSILON: f64 = 1e6;
const ROOT: &str = "decay_stream.epoch";

type Batch = Vec<(Vec<usize>, f64)>;

/// Workload dimensions.
#[derive(Debug, Clone)]
pub struct Size {
    /// Ordinal time buckets.
    pub time: usize,
    /// Nominal categories (`three_level(categories, groups)`).
    pub categories: usize,
    pub groups: usize,
    pub batches_per_epoch: usize,
    pub batch: usize,
    /// Time buckets an epoch's on-time arrivals fall in.
    pub window: usize,
    /// One arrival in this many is late (uniform time bucket).
    pub late_one_in: u64,
    pub zipf: f64,
    /// Epochs run inside set-up; their counts and checksums form the
    /// fingerprint.
    pub warmup: u64,
}

impl Size {
    /// Ordinal 512 × nominal `three_level(512, 8)` = 2^18 cells; 16
    /// batches of 4096 increments per epoch.
    pub fn full() -> Self {
        Size {
            time: 512,
            categories: 512,
            groups: 8,
            batches_per_epoch: 16,
            batch: 4096,
            window: 8,
            late_one_in: 8,
            zipf: 1.0,
            warmup: 4,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        Size {
            time: 32,
            categories: 24,
            groups: 4,
            batches_per_epoch: 3,
            batch: 64,
            window: 4,
            late_one_in: 8,
            zipf: 1.0,
            warmup: 2,
        }
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            ("table", format!("{}x{}", self.time, self.categories)),
            ("category_groups", self.groups.to_string()),
            (
                "epoch",
                format!("{}x{}", self.batches_per_epoch, self.batch),
            ),
            ("window", self.window.to_string()),
            ("late_one_in", self.late_one_in.to_string()),
            ("zipf", self.zipf.to_string()),
            ("alpha", ALPHA.to_string()),
            ("warmup_epochs", self.warmup.to_string()),
        ]
    }
}

/// Exact ingest counts and output checksums of the set-up epochs: a pure
/// function of the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fingerprint {
    pub ingest: IngestTotals,
    pub checksum: u64,
}

struct State {
    schema: Schema,
    rel: DecayedSumRelease,
    engine: ConcurrentEngine,
    /// The table as the benchmark maintains it: `+= δ` in arrival order,
    /// `α · x` at every epoch boundary.
    mirror: Vec<f64>,
    categories: Discrete,
    /// Category rank → category, so the popular categories are spread
    /// over the hierarchy.
    rank_to_category: Vec<usize>,
    new_ms: f64,
}

fn epoch_seed(seed: u64, e: u64) -> u64 {
    splitmix64(seed ^ splitmix64(0xDECA_0000 + e))
}

fn fixture(seed: u64, size: &Size) -> Result<FrequencyMatrix, String> {
    let schema = Schema::new(vec![
        Attribute::ordinal("time", size.time),
        Attribute::nominal(
            "category",
            three_level(size.categories, size.groups).map_err(|e| e.to_string())?,
        ),
    ])
    .map_err(|e| e.to_string())?;
    let mut rng = derive_rng(seed, 1);
    let cells: Vec<f64> = (0..schema.cell_count())
        .map(|_| rng.random_range(0..17u32) as f64)
        .collect();
    let matrix = NdMatrix::from_vec(&schema.dims(), cells).map_err(|e| e.to_string())?;
    FrequencyMatrix::from_parts(schema, matrix).map_err(|e| e.to_string())
}

/// The increments of epoch `e`: on-time arrivals land in the epoch's
/// time window, one in `late_one_in` lands on a uniform time bucket, and
/// categories are Zipf-ranked.
fn epoch_batches(state: &State, seed: u64, e: u64, size: &Size) -> Vec<Batch> {
    let mut rng = derive_rng(seed, 0x1000_0000 + e);
    let start = (e as usize * size.window) % size.time;
    (0..size.batches_per_epoch)
        .map(|_| {
            (0..size.batch)
                .map(|_| {
                    let t = if rng.random_range(0..size.late_one_in) == 0 {
                        rng.random_range(0..size.time)
                    } else {
                        (start + rng.random_range(0..size.window)) % size.time
                    };
                    let c = state.rank_to_category[state.categories.sample(&mut rng)];
                    (vec![t, c], 1.0)
                })
                .collect()
        })
        .collect()
}

fn setup(seed: u64, size: &Size) -> Result<(State, Fingerprint), String> {
    let fm = fixture(seed, size)?;
    let mirror = fm.matrix().as_slice().to_vec();
    let t = Instant::now();
    let mut rel = DecayedSumRelease::new(&fm, &BTreeSet::new(), TOTAL_EPSILON, ALPHA)
        .map_err(|e| format!("DecayedSumRelease::new: {e}"))?;
    let new_ms = t.elapsed().as_secs_f64() * 1e3;
    let first = rel
        .advance_epoch(EPOCH_EPSILON, epoch_seed(seed, 0))
        .map_err(|e| format!("first epoch: {e}"))?;
    let engine = ConcurrentEngine::from_output(&first).map_err(|e| format!("engine: {e}"))?;
    let mut rank_to_category: Vec<usize> = (0..size.categories).collect();
    rank_to_category.shuffle(&mut derive_rng(seed, 2));
    let mut state = State {
        schema: fm.schema().clone(),
        rel,
        engine,
        mirror,
        categories: Discrete::new(&zipf_weights(size.categories, size.zipf))
            .map_err(|e| e.to_string())?,
        rank_to_category,
        new_ms,
    };
    mirror_decay(&mut state);
    let mut fp = Fingerprint::default();
    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut phase = Phase::default();
    for e in 1..=size.warmup {
        let batches = epoch_batches(&state, seed, e, size);
        let out = epoch(
            &mut state,
            &batches,
            seed,
            e,
            &mut tracer,
            &mut phase,
            &mut fp.ingest,
        )?;
        mirror_ingest(&mut state, &batches);
        mirror_decay(&mut state);
        fp.checksum = out
            .coefficients
            .as_slice()
            .iter()
            .fold(fp.checksum, |h, v| splitmix64(h ^ v.to_bits()));
    }
    Ok((state, fp))
}

/// One epoch: the batches through `apply_increments`, then the roll. The
/// batches were generated before the root span opened.
fn epoch(
    state: &mut State,
    batches: &[Batch],
    seed: u64,
    e: u64,
    tracer: &mut Tracer,
    phase: &mut Phase,
    counts: &mut IngestTotals,
) -> Result<CoefficientOutput, String> {
    tracer.enter(ROOT, e);
    let result: Result<_, String> = (|| {
        for b in batches {
            tracer.enter("streaming.apply", e);
            let t = Instant::now();
            let report = state.rel.apply_increments(b);
            let dt = t.elapsed();
            tracer.exit();
            let report = report.map_err(|err| format!("apply_increments: {err}"))?;
            phase.call.record(dt);
            phase.busy += dt;
            phase.items += b.len() as u64;
            counts.add(&report);
        }
        let t = Instant::now();
        tracer.enter("streaming.advance", e);
        let out = state.rel.advance_epoch(EPOCH_EPSILON, epoch_seed(seed, e));
        tracer.exit();
        let out = out.map_err(|err| format!("DecayedSumRelease::advance_epoch: {err}"))?;
        tracer.enter("release.advance", e);
        let next = state.engine.advance_epoch(&out);
        tracer.exit();
        let next = next.map_err(|err| format!("ConcurrentEngine::advance_epoch: {err}"))?;
        phase.release.record(t.elapsed());
        Ok((out, next))
    })();
    tracer.exit();
    let (out, next) = result?;
    // The old epoch's engine is dropped outside the timed window.
    drop(std::mem::replace(&mut state.engine, next));
    Ok(out)
}

/// The mirror's view of one epoch's ingest, in arrival order.
fn mirror_ingest(state: &mut State, batches: &[Batch]) {
    let stride = state.schema.dims()[1];
    for (cell, delta) in batches.iter().flatten() {
        state.mirror[cell[0] * stride + cell[1]] += delta;
    }
}

/// The mirror's view of the decay at an epoch boundary.
fn mirror_decay(state: &mut State) {
    for v in &mut state.mirror {
        *v *= ALPHA;
    }
}

fn mirror_matrix(state: &State) -> Result<FrequencyMatrix, String> {
    let matrix = NdMatrix::from_vec(&state.schema.dims(), state.mirror.clone())
        .map_err(|e| e.to_string())?;
    FrequencyMatrix::from_parts(state.schema.clone(), matrix).map_err(|e| e.to_string())
}

fn same_bits(a: &NdMatrix, b: &NdMatrix) -> bool {
    a.dims() == b.dims()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn run(run: &Run, size: &Size) -> Result<Report, String> {
    let mut report = Report::new("decay_stream", run, &size.describe());
    let setup = run.setup(|| setup(run.seed, size))?;
    report.setup(&setup);
    let mut state = setup.state;

    let mut tracer = Tracer::new(run.start, 0);
    let (mut off, mut on) = (Phase::default(), Phase::default());
    let mut counts = IngestTotals::default();
    let deadline = run.deadline();
    let first = size.warmup + 1;
    let mut e = first;
    loop {
        let batches = epoch_batches(&state, run.seed, e, size);
        let traced = run.traced(e);
        tracer.set_on(traced);
        let phase = if traced { &mut on } else { &mut off };
        match epoch(
            &mut state,
            &batches,
            run.seed,
            e,
            &mut tracer,
            phase,
            &mut counts,
        ) {
            Ok(out) => {
                report.ops(batches.len() as u64 + 1, 0);
                mirror_ingest(&mut state, &batches);
                // One sampled epoch must equal a fresh publish of the
                // mirror at the same seed and ε, bitwise.
                if e == first + 2 {
                    let cfg = PriveletConfig::pure(EPOCH_EPSILON, epoch_seed(run.seed, e));
                    let ok = mirror_matrix(&state)
                        .and_then(|fm| publish_coefficients(&fm, &cfg).map_err(|e| e.to_string()))
                        .is_ok_and(|fresh| same_bits(&fresh.coefficients, &out.coefficients));
                    report.op(ok, "sampled epoch vs publish_coefficients on the mirror");
                }
            }
            Err(err) => report.fail(&err),
        }
        mirror_decay(&mut state);
        e += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    tracer.set_on(false);

    // The maintained exact coefficients must be the forward transform of
    // the mirror, bitwise.
    let transform = state.rel.release().transform();
    let forward = mirror_matrix(&state).and_then(|fm| {
        transform
            .forward(fm.matrix())
            .map_err(|err| err.to_string())
    });
    let ok = forward.is_ok_and(|f| same_bits(&f, state.rel.release().exact_coefficients()));
    report.op(
        ok,
        "exact coefficients vs HnTransform::forward of the mirror",
    );

    let names = PhaseNames {
        release: "roll_ms",
        call: "apply_us",
        call_unit_ns: US,
        call_unit: "us",
        items: "ingest_per_s",
    };
    report.phases(&names, &off, &on);
    report.value(
        "incremental.written_per_increment",
        counts.written_per_increment(),
        "count",
        "",
    );
    if run.trace {
        report.layer("streaming.apply_us_p50", tracer.p50("streaming.apply", US));
        report.layer(
            "streaming.advance_ms_p50",
            tracer.p50("streaming.advance", MS),
        );
        report.layer("release.advance_ms_p50", tracer.p50("release.advance", MS));
        report.layer("incremental.new_ms", state.new_ms);
        report.layer(
            "incremental.written_per_increment",
            counts.written_per_increment(),
        );
        report.layer("incremental.coalesced_share", counts.coalesced_share());
        report.spans(&mut tracer, &[ROOT]);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_repeats_for_a_seed_and_changes_with_it() {
        let size = Size::tiny();
        let a = setup(3, &size).unwrap().1;
        let b = setup(3, &size).unwrap().1;
        let c = setup(4, &size).unwrap().1;
        assert_eq!(a, b);
        assert_ne!(a.checksum, c.checksum);
        assert_ne!(a.ingest, c.ingest);
    }

    #[test]
    fn late_arrivals_and_window_follow_the_size() {
        let size = Size::tiny();
        let (state, _) = setup(5, &size).unwrap();
        let batches = epoch_batches(&state, 5, 9, &size);
        let start = (9 * size.window) % size.time;
        let in_window = batches
            .iter()
            .flatten()
            .filter(|(cell, _)| (cell[0] + size.time - start) % size.time < size.window)
            .count();
        let total = size.batches_per_epoch * size.batch;
        assert!(in_window * 8 >= total * 6, "{in_window} of {total} on time");
        assert!(in_window < total, "some arrivals are late");
    }

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
