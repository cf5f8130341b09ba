//! The five project-specific lints.
//!
//! | ID    | Checks |
//! |-------|--------|
//! | PB001 | privacy-boundary taint: raw-count types must not appear in the serving crate |
//! | US001 | every `unsafe` block/fn/impl carries a `SAFETY:` comment |
//! | US002 | crates with zero `unsafe` declare `#![forbid(unsafe_code)]` |
//! | LD001 | no lock acquisition while a `MutexGuard` binding is live (single-lock rule) |
//! | LD002 | no `.lock().unwrap()` poison-panics in library code |
//! | FD001 | no `f64` accumulation driven by `HashMap`/`HashSet` iteration order |
//! | PF001 | panic budget: unwaived `unwrap`/`expect`/`panic!`/`todo!` per crate, ratchet-only |
//!
//! All lints skip `#[cfg(test)]` / `#[test]` code (tests may hold raw
//! data, double-lock on purpose, and unwrap freely). Waiver syntax for
//! PF001: a `// lint:allow(panic): <reason>` comment on the site's
//! line or the line directly above.

use crate::model::{FileModel, FnItem, UnsafeKind};
use crate::workspace::CrateInfo;
use std::collections::BTreeMap;
use std::fmt;

/// The serving-tier crate PB001 guards.
pub const SERVING_CRATE: &str = "privelet-query";
/// The only crate allowed to contain `unsafe` (US002 requires a
/// `#![forbid(unsafe_code)]` everywhere else).
pub const UNSAFE_CRATE: &str = "privelet-matrix";
/// Raw-count types that must never taint the serving crate.
pub const BANNED_TYPES: &[&str] = &["FrequencyMatrix", "Table"];
/// `privelet_data` modules that carry raw counts or data loaders; only
/// `privelet_data::schema` (metadata) may cross into serving code.
pub const BANNED_DATA_MODULES: &[&str] = &[
    "freq",
    "table",
    "census",
    "medical",
    "uniform",
    "distributions",
];
/// The PF001 waiver marker.
pub const PANIC_WAIVER: &str = "lint:allow(panic):";

/// One finding, `file:line` addressable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub lint: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}: {}",
            self.lint, self.file, self.line, self.message
        )
    }
}

/// An unwaived panic site (PF001 bookkeeping).
#[derive(Debug, Clone)]
pub struct PanicSite {
    pub file: String,
    pub line: u32,
    pub what: String,
}

/// Everything the lint pass produced for one crate.
#[derive(Debug, Default)]
pub struct CrateFindings {
    pub diags: Vec<Diagnostic>,
    pub panic_sites: Vec<PanicSite>,
    pub waived_panics: usize,
}

/// Runs every per-file lint over one crate's parsed files
/// (`(relative_path, model)` pairs) and the crate-level US002 check.
pub fn lint_crate(info: &CrateInfo, files: &[(String, FileModel)]) -> CrateFindings {
    let mut out = CrateFindings::default();
    let mut any_unsafe = false;
    let mut root_forbids = false;
    for (path, model) in files {
        let is_root = *path == info.root_file;
        if is_root && model.forbids_unsafe {
            root_forbids = true;
        }
        any_unsafe |= !model.unsafes.is_empty();
        if info.name == SERVING_CRATE {
            privacy_boundary(path, model, &mut out.diags);
        }
        unsafe_discipline(path, model, &mut out.diags);
        lock_discipline(path, model, &mut out.diags);
        float_determinism(path, model, &mut out.diags);
        panic_budget(path, model, &mut out);
    }
    // US002 is crate-level: unsafe-free crates must forbid unsafe at
    // the root; the one unsafe-bearing crate must not.
    if !any_unsafe && !root_forbids {
        out.diags.push(Diagnostic {
            lint: "US002",
            file: info.root_file.clone(),
            line: 1,
            message: format!(
                "crate `{}` contains no unsafe code but its root does not declare \
                 #![forbid(unsafe_code)]",
                info.name
            ),
        });
    }
    if any_unsafe && info.name != UNSAFE_CRATE {
        out.diags.push(Diagnostic {
            lint: "US002",
            file: info.root_file.clone(),
            line: 1,
            message: format!(
                "crate `{}` contains unsafe code; only `{UNSAFE_CRATE}` may \
                 (move the code or extend the policy deliberately)",
                info.name
            ),
        });
    }
    out.diags
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out.diags.dedup();
    out
}

/// PB001 — the Theorem-4 boundary: the serving crate must not name a
/// raw-count type or import a raw-data module, anywhere outside tests.
/// Noise injection in `privelet::mechanism` is the single point where
/// raw frequencies become publishable coefficients; if this lint is
/// green, no other path exists by construction.
fn privacy_boundary(path: &str, m: &FileModel, diags: &mut Vec<Diagnostic>) {
    for (i, t) in m.code.iter().enumerate() {
        if m.is_test_idx(i) {
            continue;
        }
        if BANNED_TYPES.iter().any(|b| t.is_ident(b)) {
            diags.push(Diagnostic {
                lint: "PB001",
                file: path.to_string(),
                line: t.line,
                message: format!(
                    "raw-count type `{}` in serving crate `{SERVING_CRATE}` — serving code \
                     may only consume CoefficientOutput/ReleaseCore/PrivacyMeta",
                    t.ident_text()
                ),
            });
        }
        if t.is_ident("privelet_data")
            && m.code.get(i + 1).map(|a| a.is_punct(':')).unwrap_or(false)
            && m.code.get(i + 2).map(|a| a.is_punct(':')).unwrap_or(false)
        {
            if let Some(seg) = m.code.get(i + 3) {
                if BANNED_DATA_MODULES.iter().any(|b| seg.is_ident(b)) {
                    diags.push(Diagnostic {
                        lint: "PB001",
                        file: path.to_string(),
                        line: t.line,
                        message: format!(
                            "raw-data module `privelet_data::{}` referenced from serving \
                             crate `{SERVING_CRATE}` (only privelet_data::schema may cross)",
                            seg.ident_text()
                        ),
                    });
                }
            }
        }
    }
}

/// US001 — every unsafe site carries a safety comment: on the same
/// line, or in a comment block ending at most 3 lines above (doc
/// `# Safety` sections on unsafe fns count).
fn unsafe_discipline(path: &str, m: &FileModel, diags: &mut Vec<Diagnostic>) {
    for site in &m.unsafes {
        let explained = m
            .comment_on(site.line)
            .map(|c| mentions_safety(&c.text))
            .unwrap_or(false)
            || m.comment_above(site.line)
                .map(|c| site.line.saturating_sub(c.end_line) <= 3 && mentions_safety(&c.text))
                .unwrap_or(false);
        if !explained {
            let what = match site.kind {
                UnsafeKind::Block => "unsafe block",
                UnsafeKind::Fn => "unsafe fn",
                UnsafeKind::Impl => "unsafe impl",
                UnsafeKind::Trait => "unsafe trait",
            };
            diags.push(Diagnostic {
                lint: "US001",
                file: path.to_string(),
                line: site.line,
                message: format!("{what} without a `// SAFETY:` comment"),
            });
        }
    }
}

fn mentions_safety(comment: &str) -> bool {
    comment.to_ascii_lowercase().contains("safety")
}

/// LD001 + LD002 over every non-test fn body.
fn lock_discipline(path: &str, m: &FileModel, diags: &mut Vec<Diagnostic>) {
    for f in m.fns.iter().filter(|f| !f.in_test) {
        let Some((lo, hi)) = f.body else { continue };
        scan_locks(path, m, lo, hi, diags);
    }
}

/// True when code index `i` starts a lock acquisition: an identifier
/// containing `lock` immediately followed by `(` (covers `.lock()`,
/// `lock(slot)`, `try_lock()` — not `Mutex::new`).
fn is_acquisition(m: &FileModel, i: usize) -> bool {
    let t = &m.code[i];
    t.kind == crate::lexer::TokenKind::Ident
        && t.ident_text().contains("lock")
        && !t.ident_text().contains("unlock")
        && m.code.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
}

fn scan_locks(path: &str, m: &FileModel, lo: usize, hi: usize, diags: &mut Vec<Diagnostic>) {
    // Live let-bound guards: (brace_depth, name).
    let mut live: Vec<(usize, String)> = Vec::new();
    let mut depth = 0usize;
    let mut i = lo;
    while i < hi {
        let t = &m.code[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            live.retain(|&(d, _)| d < depth);
            depth = depth.saturating_sub(1);
        } else if t.is_ident("drop") && m.code.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
        {
            if let Some(name) = m.code.get(i + 2).map(|n| n.ident_text().to_string()) {
                live.retain(|(_, g)| *g != name);
            }
        } else if t.is_ident("let")
            && !m
                .code
                .get(i.wrapping_sub(1))
                .map(|p| p.is_ident("if") || p.is_ident("while") || p.is_ident("else"))
                .unwrap_or(false)
        {
            // `let [mut] NAME … = INIT ;` — if INIT acquires a lock, the
            // binding is a live guard until its block closes.
            let mut j = i + 1;
            if m.code.get(j).map(|n| n.is_ident("mut")).unwrap_or(false) {
                j += 1;
            }
            let name = m
                .code
                .get(j)
                .filter(|n| n.kind == crate::lexer::TokenKind::Ident)
                .map(|n| n.ident_text().to_string());
            // Scan the statement to its `;` at this nesting level. An
            // acquisition inside a `{ … }` block within the init is
            // scoped to that block — it never escapes into the binding,
            // so it must not mark the binding as a guard (it still
            // counts as a second lock if one is already live).
            let mut d = 0usize;
            let mut dbrace = 0usize;
            let mut acquires_at = None;
            while j < hi {
                let u = &m.code[j];
                if u.is_punct('{') {
                    d += 1;
                    dbrace += 1;
                } else if u.is_punct('}') {
                    d = d.saturating_sub(1);
                    dbrace = dbrace.saturating_sub(1);
                } else if u.is_punct('(') || u.is_punct('[') {
                    d += 1;
                } else if u.is_punct(')') || u.is_punct(']') {
                    d = d.saturating_sub(1);
                } else if u.is_punct(';') && d == 0 {
                    break;
                } else if is_acquisition(m, j) {
                    if dbrace == 0 {
                        acquires_at = Some(u.line);
                    }
                    if !live.is_empty() {
                        report_double_lock(path, u.line, &live, diags);
                    }
                    // The commonest LD002 shape is exactly here:
                    // `let g = m.lock().unwrap();`.
                    if ld002_at(m, j) {
                        diags.push(ld002(path, u.line));
                    }
                }
                j += 1;
            }
            if let (Some(name), Some(_)) = (name, acquires_at) {
                live.push((depth, name));
            }
            i = j + 1;
            continue;
        } else if is_acquisition(m, i) && !live.is_empty() {
            report_double_lock(path, t.line, &live, diags);
        } else if ld002_at(m, i) {
            diags.push(ld002(path, t.line));
        }
        i += 1;
    }
}

fn ld002(path: &str, line: u32) -> Diagnostic {
    Diagnostic {
        lint: "LD002",
        file: path.to_string(),
        line,
        message: ".lock().unwrap() poison-panic in library code — use \
                  `.lock().unwrap_or_else(PoisonError::into_inner)` so a panicked \
                  writer degrades instead of cascading"
            .to_string(),
    }
}

fn report_double_lock(
    path: &str,
    line: u32,
    live: &[(usize, String)],
    diags: &mut Vec<Diagnostic>,
) {
    let holding: Vec<&str> = live.iter().map(|(_, n)| n.as_str()).collect();
    diags.push(Diagnostic {
        lint: "LD001",
        file: path.to_string(),
        line,
        message: format!(
            "lock acquired while guard{} `{}` still live — the single-lock rule keeps \
             the support cache deadlock-free by construction: no thread holds two slot \
             locks (drop or scope the first guard before taking another lock)",
            if holding.len() > 1 { "s" } else { "" },
            holding.join("`, `")
        ),
    });
}

/// LD002 token pattern at `i`: `.` `lock` `(` `)` `.` `unwrap`|`expect`.
fn ld002_at(m: &FileModel, i: usize) -> bool {
    let p = |k: usize, ch: char| m.code.get(i + k).map(|t| t.is_punct(ch)).unwrap_or(false);
    let id = |k: usize, s: &str| m.code.get(i + k).map(|t| t.is_ident(s)).unwrap_or(false);
    i > 0
        && m.code[i - 1].is_punct('.')
        && id(0, "lock")
        && p(1, '(')
        && p(2, ')')
        && p(3, '.')
        && (id(4, "unwrap") || id(4, "expect"))
}

/// FD001 — flags `f64` accumulation driven by unordered iteration:
/// a local bound to a `HashMap`/`HashSet` (or a parameter typed as
/// one) whose `.iter()`/`.values()`/`.keys()`/`.drain()`/`.into_iter()`
/// feeds a `for` loop containing `+=` or an iterator chain ending in
/// `.sum()`/`.product()`/`.fold()`. Such sums are
/// nondeterministically ordered, which silently breaks the bitwise
/// determinism contracts. Iterate a `BTreeMap`, sort keys first, or
/// accumulate integers instead.
fn float_determinism(path: &str, m: &FileModel, diags: &mut Vec<Diagnostic>) {
    for f in m.fns.iter().filter(|f| !f.in_test) {
        let Some((blo, bhi)) = f.body else { continue };
        let mut unordered: Vec<String> = Vec::new();
        // Parameters typed HashMap/HashSet: first ident of any sig
        // param group that mentions one.
        collect_unordered_params(m, f, &mut unordered);
        // Locals: `let [mut] NAME … = … HashMap/HashSet … ;`
        let mut i = blo;
        while i < bhi {
            if m.code[i].is_ident("let") {
                let mut j = i + 1;
                if m.code.get(j).map(|n| n.is_ident("mut")).unwrap_or(false) {
                    j += 1;
                }
                if let Some(name) = m
                    .code
                    .get(j)
                    .filter(|n| n.kind == crate::lexer::TokenKind::Ident)
                {
                    let name = name.ident_text().to_string();
                    let mut k = j;
                    while k < bhi && !m.code[k].is_punct(';') {
                        if m.code[k].is_ident("HashMap") || m.code[k].is_ident("HashSet") {
                            unordered.push(name.clone());
                            break;
                        }
                        k += 1;
                    }
                }
            }
            i += 1;
        }
        if unordered.is_empty() {
            continue;
        }
        scan_unordered_accumulation(path, m, blo, bhi, &unordered, diags);
    }
}

fn collect_unordered_params(m: &FileModel, f: &FnItem, unordered: &mut Vec<String>) {
    let (slo, shi) = f.sig;
    // Scan only inside the parameter parens; a `,` splits parameters
    // only at paren-depth 1 outside generic angle brackets, so
    // `HashMap<u32, f64>` stays one group.
    let Some(open) = (slo..shi).find(|&i| m.code[i].is_punct('(')) else {
        return;
    };
    let mut pdepth = 1usize;
    let mut angle = 0usize;
    let mut group_first: Option<String> = None;
    let mut group_has_unordered = false;
    let mut flush = |first: &mut Option<String>, has: &mut bool| {
        if *has {
            if let Some(n) = first.take() {
                unordered.push(n);
            }
        }
        *first = None;
        *has = false;
    };
    for i in open + 1..shi {
        let t = &m.code[i];
        if t.is_punct('(') || t.is_punct('[') {
            pdepth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            pdepth -= 1;
            if pdepth == 0 {
                break;
            }
        } else if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle = angle.saturating_sub(1);
        } else if t.is_punct(',') && pdepth == 1 && angle == 0 {
            flush(&mut group_first, &mut group_has_unordered);
        } else if t.kind == crate::lexer::TokenKind::Ident {
            if t.is_ident("HashMap") || t.is_ident("HashSet") {
                group_has_unordered = true;
            } else if group_first.is_none() && !t.is_ident("mut") {
                group_first = Some(t.ident_text().to_string());
            }
        }
    }
    flush(&mut group_first, &mut group_has_unordered);
}

const ITER_METHODS: &[&str] = &[
    "iter",
    "values",
    "keys",
    "drain",
    "into_iter",
    "iter_mut",
    "values_mut",
];
const FOLD_METHODS: &[&str] = &["sum", "product", "fold"];

fn scan_unordered_accumulation(
    path: &str,
    m: &FileModel,
    blo: usize,
    bhi: usize,
    unordered: &[String],
    diags: &mut Vec<Diagnostic>,
) {
    let is_unordered_iter = |i: usize| -> bool {
        // NAME . iter-method (
        let t = &m.code[i];
        unordered.iter().any(|n| t.is_ident(n))
            && m.code.get(i + 1).map(|a| a.is_punct('.')).unwrap_or(false)
            && m.code
                .get(i + 2)
                .map(|a| ITER_METHODS.iter().any(|im| a.is_ident(im)))
                .unwrap_or(false)
    };
    let mut i = blo;
    while i < bhi {
        let t = &m.code[i];
        if t.is_ident("for") {
            // `for PAT in EXPR {` — does EXPR iterate an unordered
            // container (method call or `&name` / bare `name`)?
            let mut j = i + 1;
            while j < bhi && !m.code[j].is_ident("in") {
                j += 1;
            }
            let expr_start = j + 1;
            let mut k = expr_start;
            let mut drives = false;
            while k < bhi && !m.code[k].is_punct('{') {
                if is_unordered_iter(k)
                    || (unordered.iter().any(|n| m.code[k].is_ident(n))
                        && m.code.get(k + 1).map(|a| a.is_punct('{')).unwrap_or(false))
                    || (m.code[k].is_punct('&')
                        && m.code
                            .get(k + 1)
                            .map(|a| unordered.iter().any(|n| a.is_ident(n)))
                            .unwrap_or(false))
                {
                    drives = true;
                }
                k += 1;
            }
            if drives && k < bhi {
                let close = m.matching_brace(k);
                for b in k..close.min(bhi) {
                    if float_accumulation_at(m, b) {
                        diags.push(fd001(path, m.code[b].line));
                        break;
                    }
                }
            }
            i = k;
            continue;
        }
        if is_unordered_iter(i) {
            // Chain form: scan the rest of the statement for a folding
            // terminal.
            let mut k = i + 3;
            let mut d = 0usize;
            while k < bhi {
                let u = &m.code[k];
                if u.is_punct('(') || u.is_punct('[') || u.is_punct('{') {
                    d += 1;
                } else if u.is_punct(')') || u.is_punct(']') || u.is_punct('}') {
                    if d == 0 {
                        break;
                    }
                    d -= 1;
                } else if u.is_punct(';') && d == 0 {
                    break;
                } else if u.kind == crate::lexer::TokenKind::Ident
                    && FOLD_METHODS.iter().any(|fm| u.is_ident(fm))
                    && m.code
                        .get(k.wrapping_sub(1))
                        .map(|p| p.is_punct('.'))
                        .unwrap_or(false)
                {
                    diags.push(fd001(path, u.line));
                    break;
                }
                k += 1;
            }
        }
        i += 1;
    }
}

/// `+=` (adjacent `+` `=` tokens) — float-ish accumulation inside a
/// loop body. Integer counters trip this too; keep counters out of
/// unordered loops or switch the container to a `BTreeMap`.
fn float_accumulation_at(m: &FileModel, i: usize) -> bool {
    (m.code[i].is_punct('+')
        && m.code.get(i + 1).map(|n| n.is_punct('=')).unwrap_or(false)
        && m.code[i].line == m.code[i + 1].line)
        || (m.code[i].kind == crate::lexer::TokenKind::Ident
            && FOLD_METHODS.iter().any(|fm| m.code[i].is_ident(fm))
            && m.code
                .get(i.wrapping_sub(1))
                .map(|p| p.is_punct('.'))
                .unwrap_or(false))
}

fn fd001(path: &str, line: u32) -> Diagnostic {
    Diagnostic {
        lint: "FD001",
        file: path.to_string(),
        line,
        message: "accumulation driven by HashMap/HashSet iteration order — \
                  nondeterministic float summation breaks the bitwise determinism \
                  contracts; iterate a BTreeMap or sort keys first"
            .to_string(),
    }
}

/// PF001 — counts unwaived panic sites (`.unwrap()`, `.expect(`,
/// `panic!`, `todo!`, `unimplemented!`) in non-test code. The check
/// against the per-crate budget happens in [`crate::run_check`] where
/// the baseline is available.
fn panic_budget(path: &str, m: &FileModel, out: &mut CrateFindings) {
    for (i, t) in m.code.iter().enumerate() {
        if m.is_test_idx(i) {
            continue;
        }
        let bang = m.code.get(i + 1).map(|n| n.is_punct('!')).unwrap_or(false);
        let dot_call = i > 0
            && m.code[i - 1].is_punct('.')
            && m.code.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false);
        let what = if (t.is_ident("unwrap") || t.is_ident("expect")) && dot_call {
            format!(".{}()", t.ident_text())
        } else if (t.is_ident("panic") || t.is_ident("todo") || t.is_ident("unimplemented")) && bang
        {
            format!("{}!", t.ident_text())
        } else {
            continue;
        };
        let waived = m
            .comment_on(t.line)
            .map(|c| c.text.contains(PANIC_WAIVER))
            .unwrap_or(false)
            || m.comment_above(t.line)
                .map(|c| c.end_line + 1 == t.line && c.text.contains(PANIC_WAIVER))
                .unwrap_or(false);
        if waived {
            out.waived_panics += 1;
        } else {
            out.panic_sites.push(PanicSite {
                file: path.to_string(),
                line: t.line,
                what,
            });
        }
    }
}

/// Per-crate panic counts, for baseline comparison and `write-baseline`.
pub fn panic_counts(findings: &BTreeMap<String, CrateFindings>) -> BTreeMap<String, usize> {
    findings
        .iter()
        .map(|(name, f)| (name.clone(), f.panic_sites.len()))
        .collect()
}
