//! Shared plumbing for the bench targets.
//!
//! - [`harness`] — the one harness of the timed benches
//!   (`micro_transforms`, `query_answering`, `plan_throughput`,
//!   `publish_throughput`, `ingest_throughput`): best-of timing, the
//!   `--test` / `--record` flags, the one BENCH record schema and the
//!   shared fixtures.
//! - [`json`] — the hand-rolled JSON value both the record and the
//!   panel cache below are written through.
//!
//! Figures 6 and 8 (and 7 and 9) plot two metrics of the *same* experiment
//! runs, so the accuracy panels are computed once per dataset and cached as
//! JSON under the cargo target directory; the second figure's bench target
//! loads the cache instead of re-publishing. Serialization is hand-rolled
//! over [`json::Json`] because the build environment has no crates.io
//! access for serde.

// No unsafe anywhere in this crate — enforced at compile time (and
// pinned by privelet-analysis lint US002). privelet-matrix is the only
// crate US002 allows unsafe in, and it holds none.
#![forbid(unsafe_code)]

pub mod harness;
pub mod json;

use json::Json;
use privelet_eval::accuracy::run_accuracy;
use privelet_eval::config::{AccuracyConfig, Scale};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Which census dataset a figure uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Figures 6 and 8.
    Brazil,
    /// Figures 7 and 9.
    Us,
}

impl Dataset {
    /// The dataset's accuracy config at a scale.
    pub fn config(self, scale: Scale) -> AccuracyConfig {
        match self {
            Dataset::Brazil => AccuracyConfig::brazil(scale),
            Dataset::Us => AccuracyConfig::us(scale),
        }
    }
}

/// One bucket row: (mean key, mean Basic error, mean Privelet⁺ error,
/// query count).
pub type Row = (f64, f64, f64, usize);

/// The cached outcome of one (dataset, ε) run: both figures' bucketed rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Panel {
    /// Dataset label (includes "-scaled" when reduced).
    pub dataset: String,
    /// Privacy budget of the panel.
    pub epsilon: f64,
    /// The `SA` attribute indices Privelet⁺ used.
    pub sa: Vec<usize>,
    /// Square error bucketed by coverage (Figures 6/7).
    pub coverage_rows: Vec<Row>,
    /// Relative error bucketed by selectivity (Figures 8/9).
    pub selectivity_rows: Vec<Row>,
}

fn rows_to_json(rows: &[Row]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|&(key, basic, privelet, count)| {
                Json::Arr(vec![
                    Json::Num(key),
                    Json::Num(basic),
                    Json::Num(privelet),
                    Json::Num(count as f64),
                ])
            })
            .collect(),
    )
}

fn rows_from_json(value: &Json) -> Option<Vec<Row>> {
    value
        .as_arr()?
        .iter()
        .map(|row| {
            let cells = row.as_arr()?;
            if cells.len() != 4 {
                return None;
            }
            Some((
                cells[0].as_f64()?,
                cells[1].as_f64()?,
                cells[2].as_f64()?,
                cells[3].as_usize()?,
            ))
        })
        .collect()
}

impl Panel {
    /// The panel as a JSON value.
    pub fn to_json(&self) -> Json {
        let mut map = BTreeMap::new();
        map.insert("dataset".into(), Json::Str(self.dataset.clone()));
        map.insert("epsilon".into(), Json::Num(self.epsilon));
        map.insert(
            "sa".into(),
            Json::Arr(self.sa.iter().map(|&i| Json::Num(i as f64)).collect()),
        );
        map.insert("coverage_rows".into(), rows_to_json(&self.coverage_rows));
        map.insert(
            "selectivity_rows".into(),
            rows_to_json(&self.selectivity_rows),
        );
        Json::Obj(map)
    }

    /// Reads a panel back from its JSON value.
    pub fn from_json(value: &Json) -> Option<Panel> {
        Some(Panel {
            dataset: value.get("dataset")?.as_str()?.to_string(),
            epsilon: value.get("epsilon")?.as_f64()?,
            sa: value
                .get("sa")?
                .as_arr()?
                .iter()
                .map(Json::as_usize)
                .collect::<Option<Vec<usize>>>()?,
            coverage_rows: rows_from_json(value.get("coverage_rows")?)?,
            selectivity_rows: rows_from_json(value.get("selectivity_rows")?)?,
        })
    }
}

/// Serializes a panel list for the cache file.
fn panels_to_json(panels: &[Panel]) -> String {
    Json::Arr(panels.iter().map(Panel::to_json).collect()).to_string()
}

/// Parses a cached panel list; `None` on any structural mismatch (the
/// cache is then regenerated).
fn panels_from_json(text: &str) -> Option<Vec<Panel>> {
    Json::parse(text)
        .ok()?
        .as_arr()?
        .iter()
        .map(Panel::from_json)
        .collect()
}

fn cache_path(cfg: &AccuracyConfig) -> PathBuf {
    let dir = std::env::var("CARGO_TARGET_TMPDIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir());
    dir.join(format!(
        "privelet-panels-{}-q{}-n{}.json",
        cfg.census.name, cfg.workload.n_queries, cfg.census.n_tuples
    ))
}

/// Computes (or loads from cache) the accuracy panels for a dataset at the
/// `PRIVELET_SCALE` env scale.
pub fn accuracy_panels(dataset: Dataset) -> Vec<Panel> {
    let cfg = dataset.config(Scale::from_env());
    let path = cache_path(&cfg);
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Some(panels) = panels_from_json(&text) {
            eprintln!("[bench] loaded cached panels from {}", path.display());
            return panels;
        }
    }
    eprintln!(
        "[bench] running accuracy experiment: dataset={} m={} n={} queries={}",
        cfg.census.name,
        cfg.census.cell_count(),
        cfg.census.n_tuples,
        cfg.workload.n_queries
    );
    let runs = run_accuracy(&cfg).expect("accuracy experiment failed");
    let panels: Vec<Panel> = runs
        .iter()
        .map(|run| {
            let cov = run.coverage_rows().expect("bucketing failed");
            let sel = run.selectivity_rows().expect("bucketing failed");
            let to_rows = |rows: &[privelet_query::BucketRow]| -> Vec<Row> {
                rows.iter()
                    .map(|r| (r.mean_key, r.mean_values[0], r.mean_values[1], r.count))
                    .collect()
            };
            Panel {
                dataset: run.dataset.clone(),
                epsilon: run.epsilon,
                sa: run.sa.clone(),
                coverage_rows: to_rows(&cov),
                selectivity_rows: to_rows(&sel),
            }
        })
        .collect();
    let _ = std::fs::write(&path, panels_to_json(&panels));
    panels
}

/// Prints one figure (all ε panels) in the paper's layout.
pub fn print_panels(figure: &str, x_label: &str, metric: &str, panels: &[Panel], coverage: bool) {
    println!(
        "{figure} — average {metric} vs query {x_label} ({}; SA = {:?})",
        panels.first().map(|p| p.dataset.as_str()).unwrap_or("?"),
        panels.first().map(|p| p.sa.clone()).unwrap_or_default()
    );
    for (i, p) in panels.iter().enumerate() {
        let letter = (b'a' + i as u8) as char;
        println!("\n({letter}) epsilon = {}", p.epsilon);
        println!(
            "{:>14} {:>14} {:>14} {:>8}",
            x_label, "Basic", "Privelet+", "queries"
        );
        let rows = if coverage {
            &p.coverage_rows
        } else {
            &p.selectivity_rows
        };
        for (key, basic, privelet, count) in rows {
            println!("{key:>14.6e} {basic:>14.6e} {privelet:>14.6e} {count:>8}");
        }
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_path_distinguishes_configs() {
        let a = cache_path(&Dataset::Brazil.config(Scale::Scaled));
        let b = cache_path(&Dataset::Us.config(Scale::Scaled));
        let c = cache_path(&Dataset::Brazil.config(Scale::Full));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn panel_roundtrips_through_json() {
        let p = Panel {
            dataset: "brazil".into(),
            epsilon: 0.5,
            sa: vec![0, 1],
            coverage_rows: vec![(0.1, 100.0, 1.0, 10)],
            selectivity_rows: vec![(0.01, 0.5, 0.05, 10)],
        };
        let text = panels_to_json(std::slice::from_ref(&p));
        let back = panels_from_json(&text).unwrap();
        assert_eq!(back, vec![p]);
    }

    #[test]
    fn corrupt_cache_is_rejected_not_propagated() {
        assert!(panels_from_json("not json").is_none());
        assert!(panels_from_json("[{\"dataset\":3}]").is_none());
        assert!(panels_from_json("[]")
            .map(|v| v.is_empty())
            .unwrap_or(false));
    }
}
