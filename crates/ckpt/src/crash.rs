//! Deterministic crash injection for the resume-equivalence harness.
//!
//! The pipeline calls [`crash_point`] at every durable transition (before
//! an artifact write, after it, at completion markers). Normally that is
//! a counter bump; when `TMM_CRASH_AT=<point>:<n>` (kill at the n-th hit
//! of one named point) or `TMM_CRASH_AT=*:<n>` (kill at the n-th hit
//! overall) is set, the process aborts there — exactly the way `kill -9`
//! mid-write would, but seeded and reproducible. `tmm ckptcheck`
//! enumerates the points of an uninterrupted run via
//! `TMM_CKPT_TALLY_OUT` and then replays kills across them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Schema tag of the tally file written via `TMM_CKPT_TALLY_OUT`.
pub const TALLY_SCHEMA: &str = "tmm-crash-tally/v1";

fn armed() -> Option<&'static (String, u64)> {
    static SPEC: OnceLock<Option<(String, u64)>> = OnceLock::new();
    SPEC.get_or_init(|| {
        let raw = std::env::var("TMM_CRASH_AT").ok()?;
        let (point, n) = raw.rsplit_once(':')?;
        let n: u64 = n.parse().ok()?;
        if point.is_empty() || n == 0 {
            return None;
        }
        Some((point.to_string(), n))
    })
    .as_ref()
}

fn hits() -> &'static Mutex<BTreeMap<String, u64>> {
    static HITS: OnceLock<Mutex<BTreeMap<String, u64>>> = OnceLock::new();
    HITS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

static TOTAL: AtomicU64 = AtomicU64::new(0);

/// The pure arming decision, factored out so it is unit-testable (the
/// abort in [`crash_point`] is not). `named_hit`/`total_hit` are 1-based.
#[must_use]
pub fn should_crash(spec: &(String, u64), name: &str, named_hit: u64, total_hit: u64) -> bool {
    if spec.0 == "*" {
        total_hit == spec.1
    } else {
        spec.0 == name && named_hit == spec.1
    }
}

/// Marks one durable transition. Counts the hit (see [`tally`]) and —
/// when `TMM_CRASH_AT` arms this hit — aborts the process, simulating a
/// kill at exactly this point.
pub fn crash_point(name: &str) {
    let total = TOTAL.fetch_add(1, Ordering::SeqCst) + 1;
    let named = {
        let mut map = hits().lock().unwrap_or_else(PoisonError::into_inner);
        let c = map.entry(name.to_string()).or_insert(0);
        *c += 1;
        *c
    };
    if let Some(spec) = armed() {
        if should_crash(spec, name, named, total) {
            eprintln!(
                "tmm-ckpt: injected crash at point `{name}` (hit {total}, TMM_CRASH_AT={}:{})",
                spec.0, spec.1
            );
            std::process::abort();
        }
    }
}

/// Total crash-point hits so far, across all points.
#[must_use]
pub fn total_hits() -> u64 {
    TOTAL.load(Ordering::SeqCst)
}

/// Per-point hit counts, sorted by point name.
#[must_use]
pub fn tally() -> Vec<(String, u64)> {
    hits()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(k, &v)| (k.clone(), v))
        .collect()
}

/// Renders the tally document (`tmm-crash-tally/v1`).
#[must_use]
pub fn render_tally() -> String {
    let mut out = format!("{TALLY_SCHEMA}\ntotal {}\n", total_hits());
    for (name, count) in tally() {
        out.push_str(&format!("point {name} {count}\n"));
    }
    out
}

/// Writes the tally to `$TMM_CKPT_TALLY_OUT` when that variable is set
/// (atomic write; failures go to stderr — the tally is diagnostics, not
/// pipeline state). Called at the end of `tmm main` on every path.
pub fn write_tally_if_requested() {
    let Ok(path) = std::env::var("TMM_CKPT_TALLY_OUT") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    if let Err(e) = crate::atomic::atomic_write_str(&path, &render_tally()) {
        eprintln!("tmm-ckpt: cannot write crash tally to {path}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wildcard_spec_matches_total_hit_index_only() {
        let spec = ("*".to_string(), 3);
        assert!(!should_crash(&spec, "a", 1, 1));
        assert!(!should_crash(&spec, "b", 2, 2));
        assert!(should_crash(&spec, "a", 2, 3));
        assert!(!should_crash(&spec, "a", 3, 4));
    }

    #[test]
    fn named_spec_matches_per_point_hit_index() {
        let spec = ("ckpt.train.save".to_string(), 2);
        assert!(!should_crash(&spec, "ckpt.train.save", 1, 10));
        assert!(should_crash(&spec, "ckpt.train.save", 2, 99));
        assert!(!should_crash(&spec, "ckpt.merge.save", 2, 2));
    }

    #[test]
    fn unarmed_points_only_count() {
        // No TMM_CRASH_AT in the test environment: hitting points must
        // not abort, and the tally must reflect them.
        crash_point("test.point.a");
        crash_point("test.point.a");
        crash_point("test.point.b");
        let t = tally();
        let get = |n: &str| t.iter().find(|(k, _)| k == n).map(|&(_, v)| v);
        assert!(get("test.point.a").unwrap() >= 2);
        assert!(get("test.point.b").unwrap() >= 1);
        assert!(total_hits() >= 3);
        let doc = render_tally();
        assert!(doc.starts_with(TALLY_SCHEMA));
        assert!(doc.contains("point test.point.a "));
    }
}
