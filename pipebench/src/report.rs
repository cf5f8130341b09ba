//! The run context shared by the workloads and the report every run
//! prints: human-readable records first, the result object last.

use crate::stats::{Hist, Phase, MS, US};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The end-to-end metrics every untraced run reports, with their units.
/// `BENCHMARK.json` lists the same names (a test pins that).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("release_ms_p50", "ms"),
    ("release_ms_p90", "ms"),
    ("items_per_s", "1/s"),
    ("call_us_p50", "us"),
    ("call_us_p90", "us"),
];

/// The per-layer metrics every traced run reports. A layer a workload
/// does not call reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mechanism.publish_ms_p50", "ms"),
    ("release.build_ms_p50", "ms"),
    ("plan.compile_ms_p50", "ms"),
    ("plan.execute_ms_p50", "ms"),
    ("plan.reads_per_query", "count"),
    ("plan.distinct_supports", "count"),
    ("plan.dedup_ratio", "ratio"),
    ("streaming.apply_us_p50", "us"),
    ("streaming.advance_ms_p50", "ms"),
    ("incremental.advance_ms_p50", "ms"),
    ("release.advance_ms_p50", "ms"),
    ("incremental.new_ms", "ms"),
    ("incremental.written_per_increment", "count"),
    ("incremental.coalesced_share", "ratio"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions_per_query", "ratio"),
    ("release.dot_us_p50", "us"),
    ("release.derive_us_p50", "us"),
    ("release.reads_per_query", "count"),
    ("concurrent.answer_1t_us_p50", "us"),
    ("concurrent.contention_us", "us"),
    ("mechanism.publish.share", "ratio"),
    ("release.build.share", "ratio"),
    ("plan.compile.share", "ratio"),
    ("plan.execute.share", "ratio"),
    ("streaming.apply.share", "ratio"),
    ("streaming.advance.share", "ratio"),
    ("incremental.apply.share", "ratio"),
    ("incremental.advance.share", "ratio"),
    ("release.advance.share", "ratio"),
    ("concurrent.answer.share", "ratio"),
    ("harness.share", "ratio"),
    ("e2e_off.release_ms_p50", "ms"),
    ("e2e_on.release_ms_p50", "ms"),
    ("e2e_off.items_per_s", "1/s"),
    ("e2e_on.items_per_s", "1/s"),
    ("e2e_off.call_us_p50", "us"),
    ("e2e_on.call_us_p50", "us"),
];

/// How many times each run builds its set-up; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// One run's settings, from the command line.
#[derive(Debug, Clone)]
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// When the process started measuring; the first set-up counts from
    /// here.
    pub start: Instant,
}

/// The outcome of the repeated set-up.
pub struct Setup<S, F> {
    pub state: S,
    pub fingerprint: F,
    pub times: Vec<f64>,
    /// Whether every set-up produced the same fingerprint.
    pub repeatable: bool,
}

impl Run {
    /// Builds the set-up `SETUPS` times (dropping each before the next, so
    /// peak memory holds one) and keeps the last. The first build is timed
    /// from process start.
    pub fn setup<S, F: PartialEq>(
        &self,
        mut build: impl FnMut() -> Result<(S, F), String>,
    ) -> Result<Setup<S, F>, String> {
        let mut times = Vec::with_capacity(SETUPS);
        let mut last: Option<(S, F)> = None;
        let mut repeatable = true;
        for k in 0..SETUPS {
            let prev_fp = last.take().map(|(_, fp)| fp);
            let t0 = if k == 0 { self.start } else { Instant::now() };
            let (state, fp) = build()?;
            times.push(t0.elapsed().as_secs_f64());
            repeatable &= prev_fp.is_none_or(|p| p == fp);
            last = Some((state, fp));
        }
        let (state, fingerprint) = last.ok_or("no set-up ran")?;
        Ok(Setup {
            state,
            fingerprint,
            times,
            repeatable,
        })
    }

    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }

    /// Whether closed-loop iteration `i` is traced: in a traced run every
    /// other iteration is, so the same run shows the medians with tracing
    /// on and off.
    pub fn traced(&self, i: u64) -> bool {
        self.trace && i % 2 == 1
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Names a workload gives its two phase series in the printed records,
/// e.g. `("release_ms", "batch_ms", "queries_per_s")`.
pub struct PhaseNames {
    pub release: &'static str,
    pub call: &'static str,
    pub call_unit_ns: f64,
    pub call_unit: &'static str,
    pub items: &'static str,
}

/// Everything one run prints.
pub struct Report {
    workload: &'static str,
    run: Run,
    lines: Vec<String>,
    attempted: u64,
    failed: u64,
    e2e: BTreeMap<String, f64>,
    layer: BTreeMap<String, f64>,
}

impl Report {
    pub fn new(workload: &'static str, run: &Run, sizes: &[(&str, String)]) -> Self {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        let sizes: Vec<String> = sizes.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let lines = vec![format!(
            "run workload={workload} seed={} seconds={} trace={} nproc={nproc} git_rev={} profile={profile} sizes: {}",
            run.seed,
            run.seconds,
            u8::from(run.trace),
            git_rev(),
            sizes.join(" ")
        )];
        Report {
            workload,
            run: run.clone(),
            lines,
            attempted: 0,
            failed: 0,
            e2e: BTreeMap::new(),
            layer: BTreeMap::new(),
        }
    }

    /// Counts one operation; a failed one is also logged.
    pub fn op(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("pipebench: {}: {what} failed", self.workload);
        }
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Counts a failed operation from an `Err`.
    pub fn fail(&mut self, err: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("pipebench: {}: {err}", self.workload);
    }

    /// Prints a timing record: sample count and quartiles beside the
    /// median, plus each tail percentile that has at least ten samples
    /// beyond it.
    pub fn timing(&mut self, name: &str, unit: &str, unit_ns: f64, h: &Hist) {
        let n = h.count();
        let q = |p| h.quantile(p, unit_ns);
        let mut line = format!(
            "timing {name} unit={unit} n={n} p25={} p50={} p75={}",
            q(0.25),
            q(0.5),
            q(0.75)
        );
        for (p, label, min_n) in [(0.9, "p90", 100), (0.99, "p99", 1000)] {
            if n >= min_n {
                line.push_str(&format!(" {label}={}", q(p)));
            }
        }
        self.lines.push(line);
    }

    pub fn value(&mut self, name: &str, value: f64, unit: &str, note: &str) {
        self.lines
            .push(format!("value {name} = {value} {unit} {note}"));
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_string(), value);
    }

    /// Records the set-up times and fingerprint and reports `setup_s`.
    pub fn setup<S, F: std::fmt::Debug>(&mut self, setup: &Setup<S, F>) {
        let times: Vec<String> = setup.times.iter().map(|t| t.to_string()).collect();
        self.lines.push(format!(
            "setup runs={} times_s=[{}] fingerprint={:?}",
            setup.times.len(),
            times.join(","),
            setup.fingerprint
        ));
        self.op(
            setup.repeatable,
            "repeated set-ups gave different fingerprints",
        );
        self.e2e.insert("setup_s".into(), median(&setup.times));
    }

    /// Reports a workload's phases: the untraced phase is the end-to-end
    /// result; in a traced run both phases' medians are per-layer metrics.
    pub fn phases(&mut self, names: &PhaseNames, off: &Phase, on: &Phase) {
        for (tag, p) in [("", off), ("traced.", on)] {
            if p.call.count() == 0 {
                continue;
            }
            self.timing(&format!("{tag}{}", names.release), "ms", MS, &p.release);
            self.timing(
                &format!("{tag}{}", names.call),
                names.call_unit,
                names.call_unit_ns,
                &p.call,
            );
            self.value(
                &format!("{tag}{}", names.items),
                p.items_per_s(),
                "1/s",
                &format!("({} items in {} s)", p.items, p.busy.as_secs_f64()),
            );
        }
        for (name, v) in [
            ("release_ms_p50", off.release.quantile(0.5, MS)),
            ("release_ms_p90", off.release.quantile(0.9, MS)),
            ("items_per_s", off.items_per_s()),
            ("call_us_p50", off.call.quantile(0.5, US)),
            ("call_us_p90", off.call.quantile(0.9, US)),
        ] {
            self.e2e.insert(name.into(), v);
        }
        if self.run.trace {
            self.layer("e2e_off.release_ms_p50", off.release.quantile(0.5, MS));
            self.layer("e2e_on.release_ms_p50", on.release.quantile(0.5, MS));
            self.layer("e2e_off.items_per_s", off.items_per_s());
            self.layer("e2e_on.items_per_s", on.items_per_s());
            self.layer("e2e_off.call_us_p50", off.call.quantile(0.5, US));
            self.layer("e2e_on.call_us_p50", on.call.quantile(0.5, US));
        }
    }

    /// Reports span shares and writes the stored spans under
    /// `pipebench/traces/`.
    pub fn spans(&mut self, tracer: &mut Tracer, roots: &[&str]) {
        for (name, share) in tracer.shares(roots) {
            self.layer(&format!("{name}.share"), share);
        }
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.jsonl", self.workload, self.run.seed));
        match tracer.write_jsonl(&path) {
            Ok(n) => self
                .lines
                .push(format!("spans {n} written to {}", path.display())),
            Err(e) => self.fail(&format!("writing {}: {e}", path.display())),
        }
    }

    #[cfg(test)]
    pub fn counts(&self) -> (u64, u64) {
        (self.failed, self.attempted)
    }

    /// Prints the records and, last, the result object.
    pub fn finish(mut self) -> Result<(), String> {
        self.e2e.insert("peak_rss_mb".into(), peak_rss_mb()?);
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        self.value(
            "error_rate",
            error_rate,
            "ratio",
            &format!("({} failed / {} attempted)", self.failed, self.attempted),
        );
        let e2e = listed(END_TO_END, &self.e2e);
        let layer = listed(PER_LAYER, &self.layer);
        for (name, v, unit) in &e2e {
            self.lines.push(format!("e2e {name} = {v} {unit}"));
        }
        if self.run.trace {
            for (name, v, unit) in &layer {
                self.lines.push(format!("layer {name} = {v} {unit}"));
            }
        }
        let reported = if self.run.trace { &layer } else { &e2e };
        let mut metrics = Vec::with_capacity(reported.len());
        for (name, v, unit) in reported {
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        for line in &self.lines {
            println!("{line}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        Ok(())
    }
}

/// The metrics of `list` in its order, 0 where none was measured.
fn listed<'a>(
    list: &[(&'a str, &'a str)],
    values: &BTreeMap<String, f64>,
) -> Vec<(&'a str, f64, &'a str)> {
    list.iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// `VmHWM` (peak resident set) of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The checkout's git revision, or `unknown` outside a git work tree.
/// Git is kept from searching above the current directory.
fn git_rev() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd
        .parent()
        .map(|p| p.as_os_str().to_owned())
        .unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use privelet_bench::json::Json;

    fn listed(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside pipebench/");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        json.get(section)
            .and_then(Json::as_arr)
            .expect("section is a list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        for (section, code) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let code: Vec<(String, String)> = code
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed(section), code, "{section}");
        }
    }

    #[test]
    fn every_span_has_a_share_metric() {
        for name in crate::trace::LAYER_SPANS.iter().chain(&["harness"]) {
            let key = format!("{name}.share");
            assert!(PER_LAYER.iter().any(|(k, _)| *k == key), "{key}");
        }
    }

    #[test]
    fn median_of_setups() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }
}
