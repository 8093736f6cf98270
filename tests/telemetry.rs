//! Telemetry tests through the public `gpu_sim` API (DESIGN.md §17).
//!
//! Histogram quantiles are total functions, empty histograms included.

use gpu_sim::telemetry::LatencyHistogram;

#[test]
fn empty_histogram_quantiles_are_total() {
    let h = LatencyHistogram::new();
    assert_eq!(h.p50(), 0);
    assert_eq!(h.p999(), 0);
    assert_eq!(h.count(), 0);
}
