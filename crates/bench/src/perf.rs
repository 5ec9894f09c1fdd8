//! Support for the machine-readable perf harnesses: exact sample
//! percentiles. The `BENCH_*.json` documents themselves are
//! [`farm_telemetry::json::Json`] trees; the re-export below keeps the
//! `perf::{percentile, Json}` surface the end-to-end benchmark imports.

pub use farm_telemetry::json::Json;

/// Exact percentile over raw samples (linear interpolation between the
/// two nearest ranks). Unlike the telemetry histograms, this is not
/// bucketed — the harness keeps every sample.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let s: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert!((percentile(&s, 0.50) - 50.5).abs() < 1e-9);
        assert!((percentile(&s, 0.95) - 95.05).abs() < 1e-9);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
    }

    #[test]
    fn json_round_trips() {
        let v = Json::obj([
            ("schema", Json::Str("farm-bench/placement_scale/v1".into())),
            (
                "entries",
                Json::Arr(vec![Json::obj([
                    ("seeds", Json::Num(10_200.0)),
                    ("p50", Json::Num(123.456)),
                    ("identical", Json::Bool(true)),
                    ("note", Json::Str("a \"quoted\" value\n".into())),
                ])]),
            ),
        ]);
        let text = v.pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(
            back.get("entries").unwrap().as_arr().unwrap()[0]
                .get("seeds")
                .unwrap()
                .as_f64(),
            Some(10_200.0)
        );
    }

    #[test]
    fn json_parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("{\"a\": 1} x").is_err());
    }

    /// The committed trajectories were written by [`Json::pretty`], so
    /// parsing and re-prettifying each must reproduce it byte for byte.
    #[test]
    fn committed_bench_files_re_prettify_byte_identically() {
        for name in [
            "BENCH_detection.json",
            "BENCH_net.json",
            "BENCH_placement.json",
        ] {
            let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                doc.pretty() == text,
                "{name} does not re-prettify byte-identically"
            );
        }
    }
}
