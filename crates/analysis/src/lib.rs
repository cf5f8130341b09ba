//! `privelet-analysis` — project-specific static analysis for the
//! privelet workspace.
//!
//! A dependency-free, hand-rolled Rust [`lexer`], a lightweight
//! file/item [`model`], and five [`lints`] that encode invariants
//! rustc and clippy cannot see:
//!
//! - **PB001** — the differential-privacy boundary: raw-count types
//!   never reach the serving crate (`Theorem 4`'s "one noise injection
//!   point" made structural).
//! - **US001 / US002** — unsafe discipline: every unsafe site is
//!   explained, every unsafe-free crate is pinned unsafe-free.
//! - **LD001 / LD002** — lock discipline: single-lock rule for the
//!   support cache's slot locks, poison-robust lock handling.
//! - **FD001** — float determinism: no accumulation over
//!   `HashMap`/`HashSet` iteration order.
//! - **PF001** — panic budget: unwaived panic sites per crate against
//!   the committed [`baseline`] (`analysis.toml`), ratchet-down only.
//!
//! Run it as `cargo run -p privelet-analysis -- check`. See
//! `docs/static-analysis.md` for the lint catalog and waiver syntax.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod lexer;
pub mod lints;
pub mod model;
pub mod workspace;

use baseline::Baseline;
use lints::{CrateFindings, Diagnostic, PanicSite};
use model::FileModel;
use std::collections::BTreeMap;
use std::path::Path;

/// Result of a full workspace check.
#[derive(Debug, Default)]
pub struct CheckOutcome {
    /// Hard violations — any entry makes `check` exit nonzero.
    pub violations: Vec<Diagnostic>,
    /// Soft findings (budget drift, stale baseline entries) — reported,
    /// never fatal.
    pub warnings: Vec<String>,
    /// Measured unwaived panic sites per crate.
    pub panic_counts: BTreeMap<String, usize>,
    /// Every unwaived site, per crate (for `panics` listings).
    pub panic_sites: BTreeMap<String, Vec<PanicSite>>,
}

/// Lints the whole workspace under `root` against the baseline text
/// (pass `None` to skip PF001 budget enforcement, e.g. before a
/// baseline exists).
pub fn run_check(root: &Path, baseline: Option<&str>) -> Result<CheckOutcome, String> {
    let baseline = match baseline {
        Some(src) => Some(Baseline::parse(src).map_err(|e| format!("analysis.toml: {e}"))?),
        None => None,
    };
    let crates = workspace::discover(root).map_err(|e| format!("workspace discovery: {e}"))?;
    if crates.is_empty() {
        return Err("no workspace members found".to_string());
    }

    let mut outcome = CheckOutcome::default();
    let mut findings: BTreeMap<String, CrateFindings> = BTreeMap::new();
    for info in &crates {
        let parsed: Vec<(String, FileModel)> = info
            .files
            .iter()
            .map(|(path, src)| (path.clone(), FileModel::parse(src)))
            .collect();
        findings.insert(info.name.clone(), lints::lint_crate(info, &parsed));
    }

    for (name, f) in findings {
        outcome.violations.extend(f.diags);
        outcome
            .panic_counts
            .insert(name.clone(), f.panic_sites.len());
        outcome.panic_sites.insert(name, f.panic_sites);
    }

    if let Some(baseline) = baseline {
        let budget = baseline.panic_budget();
        for (name, &count) in &outcome.panic_counts {
            match budget.get(name) {
                Some(&allowed) if (count as u64) > allowed => {
                    // Over budget: fail, and name the sites so the new
                    // ones are findable without a separate run.
                    let sites = &outcome.panic_sites[name];
                    let listing: Vec<String> = sites
                        .iter()
                        .map(|s| format!("{}:{} ({})", s.file, s.line, s.what))
                        .collect();
                    outcome.violations.push(Diagnostic {
                        lint: "PF001",
                        file: "analysis.toml".to_string(),
                        line: 1,
                        message: format!(
                            "crate `{name}` has {count} unwaived panic sites, budget is \
                             {allowed} — waive new sites with `// lint:allow(panic): <reason>` \
                             or remove them; sites: {}",
                            listing.join(", ")
                        ),
                    });
                }
                Some(&allowed) if (count as u64) < allowed => {
                    outcome.warnings.push(format!(
                        "PF001: crate `{name}` is under budget ({count} < {allowed}) — \
                         ratchet analysis.toml down to {count}"
                    ));
                }
                Some(_) => {}
                None => {
                    if count > 0 {
                        outcome.violations.push(Diagnostic {
                            lint: "PF001",
                            file: "analysis.toml".to_string(),
                            line: 1,
                            message: format!(
                                "crate `{name}` has {count} unwaived panic sites but no \
                                 [panic_budget] entry"
                            ),
                        });
                    }
                }
            }
        }
        for stale in budget.keys() {
            if !outcome.panic_counts.contains_key(stale) {
                outcome.warnings.push(format!(
                    "PF001: baseline entry `{stale}` does not match any workspace crate — \
                     remove it from analysis.toml"
                ));
            }
        }
    }

    outcome
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    Ok(outcome)
}
