//! `census_publish`: the paper's own setting (§VII) on one operator
//! thread. Each iteration publishes the census table afresh through one
//! long-lived executor, builds a servable `ReleaseCore`, then compiles and
//! executes a fresh batch of §VII-A queries on it. Time goes to the
//! forward transform plus noise, nominal refinement, and plan
//! compile/execute; there is no ingest and no support cache.

use crate::report::{PhaseNames, Report, Run};
use crate::stats::{Phase, MS};
use crate::trace::Tracer;
use privelet::mechanism::{publish_coefficients_with, CoefficientOutput, PriveletConfig};
use privelet_data::census::{self, CensusConfig, AGE, GENDER};
use privelet_data::FrequencyMatrix;
use privelet_matrix::LaneExecutor;
use privelet_noise::rng::splitmix64;
use privelet_query::{generate_workload, RangeQuery, ReleaseCore, WorkloadConfig};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

const EPSILON: f64 = 1.0;
const ROOT: &str = "census_publish.iteration";

/// Workload dimensions.
#[derive(Debug, Clone)]
pub struct Size {
    pub age: usize,
    pub occupation: usize,
    pub occupation_groups: usize,
    pub income: usize,
    pub tuples: usize,
    pub batch: usize,
    /// Iterations run inside set-up; their counts and checksums form the
    /// fingerprint.
    pub warmup: u64,
    /// Batch answers compared with `answer_uncached` per iteration.
    pub checks: usize,
}

impl Size {
    /// Age 101 × Gender 2 × Occupation `three_level(64, 8)` × Income 64
    /// (827 392 cells) from 1 M tuples; 1024-query batches.
    pub fn full() -> Self {
        Size {
            age: 101,
            occupation: 64,
            occupation_groups: 8,
            income: 64,
            tuples: 1_000_000,
            batch: 1024,
            warmup: 2,
            checks: 8,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        Size {
            age: 12,
            occupation: 8,
            occupation_groups: 2,
            income: 8,
            tuples: 2_000,
            batch: 32,
            warmup: 2,
            checks: 4,
        }
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "table",
                format!("{}x2x{}x{}", self.age, self.occupation, self.income),
            ),
            ("occupation_groups", self.occupation_groups.to_string()),
            ("tuples", self.tuples.to_string()),
            ("batch", self.batch.to_string()),
            ("warmup_iterations", self.warmup.to_string()),
        ]
    }
}

/// Exact counts and output checksums of the set-up iterations: a pure
/// function of the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fingerprint {
    pub coefficient_reads: u64,
    pub distinct_supports: u64,
    pub checksum: u64,
}

struct State {
    fm: FrequencyMatrix,
    exec: LaneExecutor,
    sa: BTreeSet<usize>,
}

/// One iteration's outputs, for the checks and counters.
struct Iteration {
    release: Duration,
    batch: Duration,
    out: CoefficientOutput,
    core: ReleaseCore,
    answers: Vec<f64>,
    reads: u64,
    queries: u64,
    distinct_supports: u64,
    dedup_ratio: f64,
}

fn publish_seed(seed: u64, i: u64) -> u64 {
    splitmix64(seed ^ splitmix64(0xC0FF_EE00 + i))
}

fn fresh_batch(state: &State, seed: u64, i: u64, size: &Size) -> Result<Vec<RangeQuery>, String> {
    generate_workload(
        state.fm.schema(),
        &WorkloadConfig {
            n_queries: size.batch,
            min_predicates: 1,
            max_predicates: 4,
            seed: splitmix64(seed ^ splitmix64(0xBA7C_0000 + i)),
        },
    )
    .map_err(|e| format!("workload generation: {e}"))
}

fn setup(seed: u64, size: &Size) -> Result<(State, Fingerprint), String> {
    let cfg = CensusConfig {
        name: "census_publish".into(),
        age_size: size.age,
        occupation_size: size.occupation,
        occupation_groups: size.occupation_groups,
        income_size: size.income,
        n_tuples: size.tuples,
        seed: splitmix64(seed),
    };
    let table = census::generate(&cfg).map_err(|e| format!("census table: {e}"))?;
    let fm = FrequencyMatrix::from_table(&table).map_err(|e| format!("frequency matrix: {e}"))?;
    let mut state = State {
        fm,
        exec: LaneExecutor::new(),
        sa: BTreeSet::from([AGE, GENDER]),
    };
    let mut fp = Fingerprint::default();
    let mut tracer = Tracer::new(Instant::now(), 0);
    for i in 0..size.warmup {
        let batch = fresh_batch(&state, seed, i, size)?;
        let it = iteration(&mut state, &batch, seed, i, &mut tracer)?;
        fp.coefficient_reads += it.reads;
        fp.distinct_supports += it.distinct_supports;
        let bits = it
            .out
            .coefficients
            .as_slice()
            .iter()
            .chain(&it.answers)
            .map(|v| v.to_bits());
        fp.checksum = bits.fold(fp.checksum, |h, b| splitmix64(h ^ b));
    }
    Ok((state, fp))
}

/// Table → servable release → fresh batch answered. Only the two timed
/// windows are inside the root span's children; the batch was generated
/// before it.
fn iteration(
    state: &mut State,
    batch: &[RangeQuery],
    seed: u64,
    i: u64,
    tracer: &mut Tracer,
) -> Result<Iteration, String> {
    let cfg = PriveletConfig::plus(EPSILON, state.sa.clone(), publish_seed(seed, i));
    tracer.enter(ROOT, i);
    let result: Result<_, String> = (|| {
        let t0 = Instant::now();
        tracer.enter("mechanism.publish", i);
        let out = publish_coefficients_with(&mut state.exec, &state.fm, &cfg);
        tracer.exit();
        let out = out.map_err(|e| format!("publish_coefficients_with: {e}"))?;
        tracer.enter("release.build", i);
        let core = ReleaseCore::from_output(&out);
        tracer.exit();
        let core = core.map_err(|e| format!("ReleaseCore::from_output: {e}"))?;
        let t1 = Instant::now();
        tracer.enter("plan.compile", i);
        let plan = core.plan(batch);
        tracer.exit();
        let plan = plan.map_err(|e| format!("ReleaseCore::plan: {e}"))?;
        tracer.enter("plan.execute", i);
        let answers = core.execute_plan(&plan);
        tracer.exit();
        let answers = answers.map_err(|e| format!("ReleaseCore::execute_plan: {e}"))?;
        let t2 = Instant::now();
        Ok(Iteration {
            release: t1 - t0,
            batch: t2 - t1,
            out,
            core,
            answers,
            reads: plan.total_reads() as u64,
            queries: plan.len() as u64,
            distinct_supports: plan.distinct_supports() as u64,
            dedup_ratio: plan.dedup_ratio(),
        })
    })();
    tracer.exit();
    result
}

/// Cross-path comparison (plan arena vs online dot): 1e-12 relative, the
/// repository's summation-order policy.
fn agrees(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-12 * want.abs().max(1.0)
}

pub fn run(run: &Run, size: &Size) -> Result<Report, String> {
    let mut report = Report::new("census_publish", run, &size.describe());
    let setup = run.setup(|| setup(run.seed, size))?;
    report.setup(&setup);
    let mut state = setup.state;

    let mut tracer = Tracer::new(run.start, 0);
    let (mut off, mut on) = (Phase::default(), Phase::default());
    let (mut reads, mut queries, mut distinct, mut dedup, mut batches) =
        (0u64, 0u64, 0u64, 0.0, 0u64);
    let mut last: Option<(u64, CoefficientOutput)> = None;
    let deadline = run.deadline();
    let mut i = size.warmup;
    loop {
        let batch = fresh_batch(&state, run.seed, i, size)?;
        let traced = run.traced(i);
        tracer.set_on(traced);
        match iteration(&mut state, &batch, run.seed, i, &mut tracer) {
            Ok(it) => {
                report.ops(2, 0);
                let phase = if traced { &mut on } else { &mut off };
                phase.release.record(it.release);
                phase.call.record(it.batch);
                phase.items += it.queries;
                phase.busy += it.batch;
                reads += it.reads;
                queries += it.queries;
                distinct += it.distinct_supports;
                dedup += it.dedup_ratio;
                batches += 1;
                let step = (batch.len() / size.checks).max(1);
                for k in 0..size.checks.min(batch.len()) {
                    let j = k * step + (i as usize % step);
                    let ok = it
                        .core
                        .answer_uncached(&batch[j])
                        .is_ok_and(|want| agrees(it.answers[j], want));
                    report.op(ok, "batch answer vs answer_uncached");
                }
                last = Some((publish_seed(run.seed, i), it.out));
            }
            Err(e) => report.fail(&e),
        }
        i += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    tracer.set_on(false);

    // A republish at the last iteration's seed must be bitwise identical.
    if let Some((seed, out)) = &last {
        let cfg = PriveletConfig::plus(EPSILON, state.sa.clone(), *seed);
        let ok = publish_coefficients_with(&mut state.exec, &state.fm, &cfg).is_ok_and(|again| {
            again
                .coefficients
                .as_slice()
                .iter()
                .zip(out.coefficients.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        report.op(ok, "republish at the same seed is bitwise identical");
    }

    let names = PhaseNames {
        release: "release_ms",
        call: "batch_ms",
        call_unit_ns: MS,
        call_unit: "ms",
        items: "queries_per_s",
    };
    report.phases(&names, &off, &on);
    report.value(
        "plan.reads_per_batch",
        reads as f64 / batches.max(1) as f64,
        "count",
        "",
    );
    if run.trace {
        report.layer(
            "mechanism.publish_ms_p50",
            tracer.p50("mechanism.publish", MS),
        );
        report.layer("release.build_ms_p50", tracer.p50("release.build", MS));
        report.layer("plan.compile_ms_p50", tracer.p50("plan.compile", MS));
        report.layer("plan.execute_ms_p50", tracer.p50("plan.execute", MS));
        report.layer("plan.reads_per_query", reads as f64 / queries.max(1) as f64);
        report.layer(
            "plan.distinct_supports",
            distinct as f64 / batches.max(1) as f64,
        );
        report.layer("plan.dedup_ratio", dedup / batches.max(1) as f64);
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
        let a = setup(7, &size).unwrap().1;
        let b = setup(7, &size).unwrap().1;
        let c = setup(8, &size).unwrap().1;
        assert_eq!(a, b);
        assert_ne!(a.checksum, c.checksum);
        assert_ne!(
            (a.coefficient_reads, a.distinct_supports),
            (c.coefficient_reads, c.distinct_supports)
        );
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
