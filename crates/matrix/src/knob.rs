//! Warn-once parsing of numeric environment knobs.
//!
//! A runtime tuning knob is read from an environment variable at
//! construction time, falls back to a compiled-in default when it is
//! unset, and — crucially — falls back **loudly** when it is set but
//! unparseable, so a typo'd knob can't silently revert a deployment to
//! defaults. The executor's `PRIVELET_PARALLEL_MIN_CELLS` is the one
//! knob read this way.
//!
//! The parse is a pure function of the raw string so it is unit-testable
//! without racing on the process environment (`std::env::set_var` is a
//! process-global race against parallel tests). The warn-once guard is
//! per *knob name*, not per process, so two different malformed knobs
//! each get their own report.

use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Interprets a raw knob value: `(value, malformed)`. `None` (unset) and
/// a parseable value are not malformed; anything else falls back to
/// `default` with the flag set, which callers turn into a once-per-knob
/// stderr warning. Surrounding whitespace is tolerated. Pure, so the
/// fallback semantics are unit-testable without touching the
/// environment.
pub(crate) fn parse_usize_knob(raw: Option<&str>, default: usize) -> (usize, bool) {
    match raw {
        None => (default, false),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) => (n, false),
            Err(_) => (default, true),
        },
    }
}

/// Reads the environment knob `name`, falling back to `default` when
/// unset. A set-but-unparseable value also falls back **and says so**
/// once per knob name per process on stderr (`what` names the expected
/// quantity in that message, e.g. `"a cell count"`).
///
/// Numeric range constraints (e.g. "at least 1 shard") are the caller's
/// business: a parseable value is returned as-is so each knob keeps its
/// own clamping policy.
pub(crate) fn env_usize_knob(name: &'static str, what: &str, default: usize) -> usize {
    let raw = std::env::var(name).ok();
    let (value, malformed) = parse_usize_knob(raw.as_deref(), default);
    if malformed && first_warning_for(name) {
        eprintln!(
            "[privelet] {name}={:?} is not {what}; using the default of {default}",
            raw.as_deref().unwrap_or_default()
        );
    }
    value
}

/// Registers `name` in the process-wide warned set; `true` exactly once
/// per name, so each knob warns at most once no matter how many
/// executors/caches are constructed against the same bad environment.
fn first_warning_for(name: &'static str) -> bool {
    static WARNED: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    WARNED
        .get_or_init(Default::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_is_the_default_and_not_malformed() {
        assert_eq!(parse_usize_knob(None, 42), (42, false));
        assert_eq!(parse_usize_knob(None, 0), (0, false));
    }

    #[test]
    fn parseable_values_pass_through_unclamped() {
        // Clamping policy belongs to the caller; the parse must not
        // editorialize (the parallel threshold treats 0 as "always fan
        // out" while the shard count clamps 0 to 1).
        assert_eq!(parse_usize_knob(Some("0"), 7), (0, false));
        assert_eq!(parse_usize_knob(Some("16"), 7), (16, false));
        assert_eq!(parse_usize_knob(Some(" 4096 "), 7), (4096, false));
    }

    #[test]
    fn garbage_falls_back_loudly() {
        for garbage in ["", "banana", "-1", "1e4", "0x40", "4096 cells", "∞"] {
            assert_eq!(
                parse_usize_knob(Some(garbage), 99),
                (99, true),
                "{garbage:?} must fall back with the malformed flag set"
            );
        }
    }

    #[test]
    fn warn_registry_fires_once_per_name() {
        // Distinct names each get their first warning; repeats do not.
        assert!(first_warning_for("PRIVELET_TEST_KNOB_A"));
        assert!(!first_warning_for("PRIVELET_TEST_KNOB_A"));
        assert!(first_warning_for("PRIVELET_TEST_KNOB_B"));
        assert!(!first_warning_for("PRIVELET_TEST_KNOB_B"));
    }

    #[test]
    fn env_knob_reads_the_process_environment() {
        // Don't mutate the environment here (process-global race against
        // parallel tests); unset-or-whatever-the-harness-set must at
        // least produce a stable, non-panicking read.
        let a = env_usize_knob("PRIVELET_KNOB_THAT_IS_NEVER_SET", "a number", 5);
        let b = env_usize_knob("PRIVELET_KNOB_THAT_IS_NEVER_SET", "a number", 5);
        assert_eq!(a, b);
        if std::env::var("PRIVELET_KNOB_THAT_IS_NEVER_SET").is_err() {
            assert_eq!(a, 5);
        }
    }
}
