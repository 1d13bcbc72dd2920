//! The metrics registry: counters, gauges, and fixed-bucket histograms,
//! exported as Prometheus text exposition.
//!
//! The registry is process-global and **disabled by default**: every
//! recording entry point begins with one relaxed atomic load and returns
//! immediately when metrics are off — no allocation, no locking. This is
//! what keeps instrumented hot paths (TS probes, GNN epochs) inert in
//! benchmarks and in the `zero_alloc` harness.
//!
//! When enabled, all recording goes through a single mutex-protected
//! ordered map. Instrumentation sites record at stage/epoch/pin
//! granularity (never per matrix row), so the lock is never contended
//! enough to matter, and the ordered map makes the exposition output
//! deterministic: series appear sorted by name, then by label set.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Default histogram bucket upper bounds in seconds — tuned for the
/// latencies this pipeline produces (per-pin TS probes through whole-stage
/// runs). The `+Inf` bucket is implicit.
pub const DEFAULT_BUCKETS: [f64; 10] =
    [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0];

static METRICS_ENABLED: AtomicBool = AtomicBool::new(false);

/// Enables metric recording process-wide.
pub fn enable_metrics() {
    METRICS_ENABLED.store(true, Ordering::Relaxed);
}

/// Disables metric recording; already-recorded series are retained until
/// [`reset_metrics`].
pub fn disable_metrics() {
    METRICS_ENABLED.store(false, Ordering::Relaxed);
}

/// `true` when metric recording is on. One relaxed load — callers may gate
/// more expensive measurement (timers, norm computations) on this.
#[inline]
#[must_use]
pub fn metrics_enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}

/// One recorded series. Histogram sums accumulate in fixed-point
/// nanoseconds so the total is an integer sum — identical for any
/// interleaving of recording threads (f64 accumulation would make the
/// exported `_sum` depend on arrival order).
#[derive(Debug, Clone)]
enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram { buckets: Vec<(f64, u64)>, sum_nanos: i128, count: u64 },
}

/// Registry key: metric name plus a canonically-rendered label set.
type Key = (String, String);

fn registry() -> MutexGuard<'static, BTreeMap<Key, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<Key, Metric>>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Renders labels canonically: `{k1="v1",k2="v2"}` sorted by key, or `""`.
pub(crate) fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_unstable();
    let mut out = String::from("{");
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Adds `v` to the named counter (created at zero on first use).
/// No-op (one relaxed load) while metrics are disabled.
pub fn counter_add(name: &str, labels: &[(&str, &str)], v: u64) {
    if !metrics_enabled() {
        return;
    }
    let key = (name.to_string(), render_labels(labels));
    let mut reg = registry();
    // On a name collision across kinds, keep the first kind rather than
    // panicking inside library code.
    if let Metric::Counter(c) = reg.entry(key).or_insert(Metric::Counter(0)) {
        *c = c.saturating_add(v);
    }
}

/// Sets the named gauge to `v`. No-op while metrics are disabled.
pub fn gauge_set(name: &str, labels: &[(&str, &str)], v: f64) {
    if !metrics_enabled() {
        return;
    }
    let key = (name.to_string(), render_labels(labels));
    let mut reg = registry();
    if let Metric::Gauge(g) = reg.entry(key).or_insert(Metric::Gauge(0.0)) {
        *g = v;
    }
}

/// Records `v` into the named fixed-bucket histogram
/// ([`DEFAULT_BUCKETS`]). No-op while metrics are disabled.
pub fn observe(name: &str, labels: &[(&str, &str)], v: f64) {
    observe_with_buckets(name, labels, v, &DEFAULT_BUCKETS);
}

/// Records `v` into the named histogram with explicit bucket upper bounds.
/// The bucket layout is fixed by the *first* observation of a series;
/// later calls reuse it. No-op while metrics are disabled.
pub fn observe_with_buckets(name: &str, labels: &[(&str, &str)], v: f64, bounds: &[f64]) {
    if !metrics_enabled() || !v.is_finite() {
        return;
    }
    let key = (name.to_string(), render_labels(labels));
    let mut reg = registry();
    let metric = reg.entry(key).or_insert_with(|| Metric::Histogram {
        buckets: bounds.iter().map(|&b| (b, 0)).collect(),
        sum_nanos: 0,
        count: 0,
    });
    if let Metric::Histogram { buckets, sum_nanos, count } = metric {
        for (bound, hits) in buckets.iter_mut() {
            if v <= *bound {
                *hits += 1;
            }
        }
        *sum_nanos += (v * 1e9).round() as i128;
        *count += 1;
    }
}

/// Number of distinct recorded series (one per name + label set;
/// histograms count once).
#[must_use]
pub fn metric_series_count() -> usize {
    registry().len()
}

/// Clears every recorded series (the enabled flag is untouched).
pub fn reset_metrics() {
    registry().clear();
}

/// Renders every recorded series as Prometheus text exposition (version
/// 0.0.4): `# TYPE` headers, `_bucket`/`_sum`/`_count` expansion for
/// histograms, deterministic ordering.
#[must_use]
pub fn export_metrics() -> String {
    use std::fmt::Write as _;
    let reg = registry();
    let mut out = String::with_capacity(4096 + reg.len() * 64);
    let mut last_name: Option<&str> = None;
    for ((name, labels), metric) in reg.iter() {
        if last_name != Some(name.as_str()) {
            let kind = match metric {
                Metric::Counter(_) => "counter",
                Metric::Gauge(_) => "gauge",
                Metric::Histogram { .. } => "histogram",
            };
            let _ = writeln!(out, "# TYPE {name} {kind}");
            last_name = Some(name.as_str());
        }
        match metric {
            Metric::Counter(c) => {
                let _ = writeln!(out, "{name}{labels} {c}");
            }
            Metric::Gauge(g) => {
                let _ = writeln!(out, "{name}{labels} {g}");
            }
            Metric::Histogram { buckets, sum_nanos, count } => {
                // `le` labels merge with the series' own labels.
                let open = if labels.is_empty() {
                    String::from("{")
                } else {
                    let mut s = labels.clone();
                    s.pop(); // drop trailing '}'
                    s.push(',');
                    s
                };
                for (bound, hits) in buckets {
                    let _ = writeln!(out, "{name}_bucket{open}le=\"{bound}\"}} {hits}");
                }
                let _ = writeln!(out, "{name}_bucket{open}le=\"+Inf\"}} {count}");
                let sum = *sum_nanos as f64 / 1e9;
                let _ = writeln!(out, "{name}_sum{labels} {sum}");
                let _ = writeln!(out, "{name}_count{labels} {count}");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as TestMutex;

    /// The registry is process-global, so tests in this module serialise.
    static GUARD: TestMutex<()> = TestMutex::new(());

    fn with_clean_registry<R>(f: impl FnOnce() -> R) -> R {
        let _g = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        reset_metrics();
        enable_metrics();
        let r = f();
        disable_metrics();
        reset_metrics();
        r
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let _g = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        reset_metrics();
        disable_metrics();
        counter_add("tmm_test_total", &[], 5);
        gauge_set("tmm_test_gauge", &[], 1.0);
        observe("tmm_test_seconds", &[], 0.1);
        assert_eq!(metric_series_count(), 0);
        assert!(export_metrics().is_empty());
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        with_clean_registry(|| {
            counter_add("tmm_a_total", &[("stage", "train")], 2);
            counter_add("tmm_a_total", &[("stage", "train")], 3);
            gauge_set("tmm_b", &[], 1.0);
            gauge_set("tmm_b", &[], 2.5);
            let text = export_metrics();
            assert!(text.contains("tmm_a_total{stage=\"train\"} 5"), "{text}");
            assert!(text.contains("tmm_b 2.5"), "{text}");
            assert!(text.contains("# TYPE tmm_a_total counter"), "{text}");
        });
    }

    #[test]
    fn label_order_is_canonical() {
        with_clean_registry(|| {
            counter_add("tmm_l_total", &[("z", "1"), ("a", "2")], 1);
            counter_add("tmm_l_total", &[("a", "2"), ("z", "1")], 1);
            assert_eq!(metric_series_count(), 1, "label order must not split series");
            assert!(export_metrics().contains("tmm_l_total{a=\"2\",z=\"1\"} 2"));
        });
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_exact() {
        with_clean_registry(|| {
            for v in [5e-7, 5e-5, 5e-5, 0.05, 2.0] {
                observe("tmm_h_seconds", &[], v);
            }
            let text = export_metrics();
            assert!(text.contains("tmm_h_seconds_bucket{le=\"0.000001\"} 1"), "{text}");
            assert!(text.contains("tmm_h_seconds_bucket{le=\"0.0001\"} 3"), "{text}");
            assert!(text.contains("tmm_h_seconds_bucket{le=\"0.1\"} 4"), "{text}");
            assert!(text.contains("tmm_h_seconds_bucket{le=\"+Inf\"} 5"), "{text}");
            assert!(text.contains("tmm_h_seconds_count 5"), "{text}");
        });
    }

    #[test]
    fn histogram_merge_is_thread_count_invariant() {
        // The same multiset of observations must produce identical
        // exposition text whether recorded from 1 thread or from 8.
        let values: Vec<f64> = (0..400).map(|i| f64::from(i) * 1e-4).collect();
        let sequential = with_clean_registry(|| {
            for &v in &values {
                observe("tmm_merge_seconds", &[], v);
            }
            export_metrics()
        });
        let threaded = with_clean_registry(|| {
            std::thread::scope(|scope| {
                for chunk in values.chunks(50) {
                    scope.spawn(move || {
                        for &v in chunk {
                            observe("tmm_merge_seconds", &[], v);
                        }
                    });
                }
            });
            export_metrics()
        });
        assert_eq!(sequential, threaded);
    }
}
