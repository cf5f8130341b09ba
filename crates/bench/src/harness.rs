//! The one harness behind the timed benches (`micro_transforms`,
//! `query_answering`, `plan_throughput`, `publish_throughput`,
//! `ingest_throughput`).
//!
//! Each bench runs its own `main` (`harness = false`) and shares
//! everything here:
//!
//! - [`Args`] — the two flags. `--test` is smoke mode: tiny points and
//!   the correctness assertions, seconds not minutes; CI runs it for
//!   every bench above. `--record <path>` writes the run as a
//!   [`Record`].
//! - [`best_of`] — best-of timing. A point's call repeats until its
//!   wall-time budget ([`Args::budget_secs`]) has accumulated, and at
//!   least five times, and the fastest call is reported: on a noisy
//!   shared box all perturbation of a CPU-bound kernel is additive, so
//!   the minimum is the estimate of the undisturbed cost.
//! - [`Record`] — the one BENCH schema, `{bench, rate_unit, git_rev,
//!   nproc, points: [{params, stage, secs, rate}]}`, with its writer
//!   and reader. The committed `BENCH_*.json` files are `--record`
//!   runs; `tests` below reads every one of them back.
//! - The fixtures more than one bench builds: [`ordinal_table`],
//!   [`ordinal_release`] and [`interval_workload`].

use crate::json::Json;
use privelet::mechanism::{publish_coefficients, CoefficientOutput, PriveletConfig};
use privelet_data::schema::{Attribute, Schema};
use privelet_data::FrequencyMatrix;
use privelet_matrix::NdMatrix;
use privelet_query::{generate_workload, RangeQuery, WorkloadConfig};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Fewest calls [`best_of`] times, however slow one call is.
const MIN_ITERS: u32 = 5;

/// The command line of a throughput bench.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    /// `--test`: smoke mode.
    pub smoke: bool,
    /// `--record <path>`: where to write the run's [`Record`].
    pub record: Option<PathBuf>,
}

impl Args {
    /// Parses the arguments after the program name. Cargo appends
    /// `--bench` to a `harness = false` target's arguments, so that flag
    /// is accepted and ignored; anything else is an error.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--test" => parsed.smoke = true,
                "--bench" => {}
                "--record" => {
                    let path = args
                        .next()
                        .filter(|p| !p.starts_with("--"))
                        .ok_or("--record needs a path")?;
                    parsed.record = Some(PathBuf::from(path));
                }
                other => {
                    return Err(format!(
                        "unknown argument {other:?}; the flags are --test and --record <path>"
                    ))
                }
            }
        }
        Ok(parsed)
    }

    /// [`Args::parse`] over this process's arguments.
    pub fn from_env() -> Result<Args, String> {
        Args::parse(std::env::args().skip(1))
    }

    /// The per-point timing budget in seconds: 0.5, or 0.02 under
    /// `--test`, where timing only shows that each point runs.
    pub fn budget_secs(&self) -> f64 {
        if self.smoke {
            0.02
        } else {
            0.5
        }
    }
}

/// Best-of timing: repeats `f` until `budget_secs` of wall time has
/// accumulated, and at least five times, and returns the fastest call
/// in seconds.
pub fn best_of<R>(budget_secs: f64, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    let mut spent = 0.0;
    let mut iters = 0u32;
    while spent < budget_secs || iters < MIN_ITERS {
        let t = Instant::now();
        black_box(f());
        let dt = t.elapsed().as_secs_f64();
        best = best.min(dt);
        spent += dt;
        iters += 1;
    }
    best
}

/// One measured point of a [`Record`].
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// What the point measured: its parameters, plus any counters the
    /// timed call reports.
    pub params: BTreeMap<String, Json>,
    /// Which call was timed.
    pub stage: String,
    /// Best-of seconds for one call.
    pub secs: f64,
    /// The call's work (queries, cells, increments) per second.
    pub rate: f64,
}

impl Point {
    fn to_json(&self) -> Json {
        let mut obj = BTreeMap::new();
        obj.insert("params".into(), Json::Obj(self.params.clone()));
        obj.insert("stage".into(), Json::Str(self.stage.clone()));
        obj.insert("secs".into(), Json::Num(self.secs));
        obj.insert("rate".into(), Json::Num(self.rate));
        Json::Obj(obj)
    }

    fn from_json(value: &Json) -> Option<Point> {
        let Some(Json::Obj(params)) = value.get("params") else {
            return None;
        };
        Some(Point {
            params: params.clone(),
            stage: value.get("stage")?.as_str()?.to_string(),
            secs: value.get("secs")?.as_f64()?,
            rate: value.get("rate")?.as_f64()?,
        })
    }
}

/// One bench run, in the one BENCH schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The bench target's name.
    pub bench: String,
    /// What [`Point::rate`] counts per second.
    pub rate_unit: String,
    /// The checkout the run was built from (see [`Record::new`]).
    pub git_rev: String,
    /// Hardware threads the box offered.
    pub nproc: usize,
    /// The measured points, in run order.
    pub points: Vec<Point>,
}

impl Record {
    /// An empty record for `bench` on this checkout and box. `git_rev`
    /// is `git describe --always --dirty` of the workspace (so a run on
    /// uncommitted changes says so), or `unknown` outside a git work
    /// tree.
    pub fn new(bench: &str, rate_unit: &str) -> Record {
        Record {
            bench: bench.to_string(),
            rate_unit: rate_unit.to_string(),
            git_rev: git_rev(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            points: Vec::new(),
        }
    }

    /// Adds and prints a point whose call took `secs` for `work` units.
    pub fn push(&mut self, stage: &str, params: Vec<(&str, Json)>, secs: f64, work: f64) {
        let point = Point {
            params: params
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            stage: stage.to_string(),
            secs,
            rate: work / secs,
        };
        let params: Vec<String> = point
            .params
            .iter()
            .map(|(k, v)| match v.as_str() {
                Some(s) => format!("{k}={s}"),
                None => format!("{k}={v}"),
            })
            .collect();
        println!(
            "{:>10} {:>11.3e} s {:>14.0} {}  {}",
            point.stage,
            point.secs,
            point.rate,
            self.rate_unit,
            params.join(" ")
        );
        self.points.push(point);
    }

    /// Reads a record back from its JSON value; `None` on any
    /// structural mismatch.
    fn from_json(value: &Json) -> Option<Record> {
        Some(Record {
            bench: value.get("bench")?.as_str()?.to_string(),
            rate_unit: value.get("rate_unit")?.as_str()?.to_string(),
            git_rev: value.get("git_rev")?.as_str()?.to_string(),
            nproc: value.get("nproc")?.as_usize()?,
            points: value
                .get("points")?
                .as_arr()?
                .iter()
                .map(Point::from_json)
                .collect::<Option<_>>()?,
        })
    }

    /// Reads a record file written by [`Record::finish`].
    pub fn read(path: &Path) -> Result<Record, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Record::from_json(&json).ok_or_else(|| format!("{} is not a bench record", path.display()))
    }

    /// Writes the record to the `--record` path, if one was given.
    pub fn finish(&self, args: &Args) -> std::io::Result<()> {
        if let Some(path) = &args.record {
            std::fs::write(path, self.to_string())?;
            eprintln!(
                "[bench] recorded {} points to {}",
                self.points.len(),
                path.display()
            );
        }
        Ok(())
    }
}

/// The record as JSON text, one point per line so committed records
/// diff point by point.
impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| p.to_json().to_string())
            .collect();
        writeln!(
            f,
            "{{\"bench\":{},\"rate_unit\":{},\"git_rev\":{},\"nproc\":{},\"points\":[\n{}\n]}}",
            Json::Str(self.bench.clone()),
            Json::Str(self.rate_unit.clone()),
            Json::Str(self.git_rev.clone()),
            self.nproc,
            points.join(",\n")
        )
    }
}

/// See [`Record::new`]. Git is kept from searching above the workspace
/// root, so an exported tree inside another repository reads `unknown`.
fn git_rev() -> String {
    let Ok(root) = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
    else {
        return "unknown".to_string();
    };
    let ceiling = root.parent().map(Path::as_os_str).unwrap_or_default();
    Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A frequency matrix over ordinal dimensions `dims` with deterministic
/// non-uniform counts, `(i · 31) mod 101` at linear index `i`.
pub fn ordinal_table(dims: &[usize]) -> Result<FrequencyMatrix, Box<dyn Error>> {
    let attrs = dims
        .iter()
        .enumerate()
        .map(|(i, &d)| Attribute::ordinal(format!("a{i}"), d))
        .collect();
    let schema = Schema::new(attrs)?;
    let cells: usize = dims.iter().product();
    let data = (0..cells).map(|i| ((i * 31) % 101) as f64).collect();
    Ok(FrequencyMatrix::from_parts(
        schema,
        NdMatrix::from_vec(dims, data)?,
    )?)
}

/// The pure-Privelet coefficient release (ε = 1, seed 7) of the
/// one-dimensional [`ordinal_table`] of 2^`exp` cells.
pub fn ordinal_release(exp: u32) -> Result<CoefficientOutput, Box<dyn Error>> {
    let fm = ordinal_table(&[1 << exp])?;
    Ok(publish_coefficients(&fm, &PriveletConfig::pure(1.0, 7))?)
}

/// `n_queries` independently drawn one-predicate range queries over
/// `schema` (seed 42).
pub fn interval_workload(
    schema: &Schema,
    n_queries: usize,
) -> Result<Vec<RangeQuery>, Box<dyn Error>> {
    Ok(generate_workload(
        schema,
        &WorkloadConfig {
            n_queries,
            min_predicates: 1,
            max_predicates: 1,
            seed: 42,
        },
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use privelet_matrix::executor::DEFAULT_TILE_LANES;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn args_take_test_record_and_cargos_bench_flag() {
        assert_eq!(args(&["--bench"]), Ok(Args::default()));
        let smoke = args(&["--test", "--bench"]).unwrap();
        assert!(smoke.smoke && smoke.record.is_none());
        assert!(smoke.budget_secs() < Args::default().budget_secs());
        let rec = args(&["--record", "out.json", "--bench"]).unwrap();
        assert!(!rec.smoke);
        assert_eq!(rec.record, Some(PathBuf::from("out.json")));
    }

    #[test]
    fn bad_args_are_errors() {
        assert!(args(&["--record"]).is_err());
        assert!(args(&["--record", "--bench"]).is_err());
        assert!(args(&["--verbose"]).is_err());
        assert!(args(&["filter"]).is_err());
    }

    #[test]
    fn timing_runs_at_least_five_calls() {
        let mut calls = 0u32;
        let secs = best_of(0.0, || calls += 1);
        assert_eq!(calls, MIN_ITERS);
        assert!(secs.is_finite() && secs >= 0.0);
    }

    #[test]
    fn record_roundtrips_through_its_text() {
        let mut record = Record::new("demo", "cells/s");
        record.push(
            "publish",
            vec![
                ("dims", Json::Arr(vec![Json::Num(4.0), Json::Num(2.0)])),
                ("sweep", Json::Str("shape".into())),
            ],
            0.25,
            8.0,
        );
        assert_eq!(record.points[0].rate, 32.0);
        assert!(record.nproc >= 1 && !record.git_rev.is_empty());
        let back = Record::from_json(&Json::parse(&record.to_string()).unwrap());
        assert_eq!(back, Some(record));
        assert!(Record::from_json(&Json::parse(r#"{"bench":"x"}"#).unwrap()).is_none());
    }

    #[test]
    fn committed_bench_files_parse_as_records() {
        for (file, bench) in [
            ("BENCH_plan_throughput.json", "plan_throughput"),
            ("BENCH_publish_throughput.json", "publish_throughput"),
            ("BENCH_ingest_batch.json", "ingest_throughput"),
        ] {
            let path = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(file);
            let record = Record::read(&path).unwrap();
            assert_eq!(record.bench, bench);
            assert!(record.nproc >= 1 && !record.git_rev.is_empty());
            assert!(!record.points.is_empty(), "{bench} has no points");
            for p in &record.points {
                assert!(p.secs > 0.0 && p.rate > 0.0, "{bench}: {p:?}");
            }
        }
    }

    #[test]
    fn publish_record_holds_every_sweep() {
        let path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_publish_throughput.json");
        let record = Record::read(&path).unwrap();
        let tiles_in = |sweep: &str| -> Vec<usize> {
            record
                .points
                .iter()
                .filter(|p| p.params.get("sweep").and_then(Json::as_str) == Some(sweep))
                .filter_map(|p| p.params.get("tile_lanes")?.as_usize())
                .collect()
        };
        let shape = tiles_in("shape");
        assert!(!shape.is_empty() && shape.iter().all(|&t| t == DEFAULT_TILE_LANES));
        assert!(!tiles_in("tile").is_empty());
    }
}
