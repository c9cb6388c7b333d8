//! Golden-file pin of the Prometheus text exposition format.
//!
//! The scrape format is consumed by external tooling, so its exact
//! shape — `# HELP`/`# TYPE` pairs, label escaping, cumulative
//! `_bucket` series closed by `le="+Inf"`, trailing newline — is a
//! compatibility contract. This test renders a fully deterministic
//! fixture and compares byte-for-byte against `golden/prometheus.txt`.
//!
//! To regenerate after an intentional format change:
//! `GOLDEN_BLESS=1 cargo test -p vantage-telemetry --test prometheus_golden`

use std::time::Duration;

use vantage_telemetry::export::to_prometheus;
use vantage_telemetry::{CostDelta, MetricsRegistry, OpKind, SloSurface};

fn fixture() -> String {
    let registry = MetricsRegistry::new();
    let mvp = registry.index("mvp");
    for (us, computations) in [(80, 120), (95, 150), (1200, 4000)] {
        mvp.record(
            OpKind::Range,
            Duration::from_micros(us),
            CostDelta {
                computations,
                abandoned: 2,
                abandoned_work: 0.75,
            },
        );
    }
    mvp.record(
        OpKind::Build,
        Duration::from_millis(12),
        CostDelta {
            computations: 40_000,
            ..CostDelta::default()
        },
    );
    let vp = registry.index("needs\"escaping\\here");
    vp.record(
        OpKind::Knn,
        Duration::from_micros(500),
        CostDelta::default(),
    );
    vp.record_budgeted(
        OpKind::Knn,
        Duration::from_micros(25),
        CostDelta {
            computations: 50,
            ..CostDelta::default()
        },
        true,
        0.9,
    );
    registry.gauge("serve/generation").set(2);
    registry.gauge("serve/in_flight").set(0);
    // kNN routing as the serve loop exports it per generation: answers
    // by the tree's search and by a scan of its rows, and one calibrated
    // `k` bucket's probe ratio (parts per million) and decision.
    registry.gauge("serve/gen2/knn_answers/tree").set(3);
    registry.gauge("serve/gen2/knn_answers/scan").set(7);
    registry
        .gauge("serve/gen2/knn_route/k8/probe_ratio_ppm")
        .set(965_125);
    registry.gauge("serve/gen2/knn_route/k8/scan").set(1);
    // SLO surface gauges as the serve loop exports them — including the
    // effective sample count, so scrapers can tell a converged p999
    // from a thin-window alias of the worst observation.
    let slo = SloSurface::new();
    for us in [80u64, 95, 110, 1200] {
        slo.record(OpKind::Knn, us * 1000, 0);
    }
    let snap = slo.snapshot(OpKind::Knn);
    for (stat, value) in [
        ("p50_ns", snap.p50_ns),
        ("p99_ns", snap.p99_ns),
        ("p999_ns", snap.p999_ns),
        ("samples", snap.samples),
    ] {
        registry.gauge(&format!("slo/knn/{stat}")).set(value as i64);
    }
    to_prometheus(&registry.snapshot())
}

#[test]
fn prometheus_exposition_matches_golden() {
    let actual = fixture();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/prometheus.txt");
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(path).expect("read golden (run with GOLDEN_BLESS=1)");
    assert_eq!(
        actual, expected,
        "Prometheus exposition drifted from tests/golden/prometheus.txt; \
         if intentional, regenerate with GOLDEN_BLESS=1"
    );
}

#[test]
fn fixture_is_deterministic() {
    assert_eq!(fixture(), fixture());
}
