//! Metric names, units, statistics and the result line.

use std::fmt::Write as _;

/// The end-to-end metrics of every workload, `(name, unit)`, measured
/// with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("commit_p50_ms", "ms"),
    ("commit_p99_ms", "ms"),
    ("peak_tps", "tx/s"),
    ("cpu_us_per_tx", "us"),
];

/// The per-layer metrics of every workload, `(name, unit)`, from the
/// traced run.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("driver.cpu_s", "s"),
    ("driver.cpu_share", "ratio"),
    ("driver.max_lag_ms", "ms"),
    ("driver.overruns", "count"),
    ("orderer.cpu_us_per_tx", "us"),
    ("orderer.sequence_p50_us", "us"),
    ("orderer.sequence_p99_us", "us"),
    ("cutter.cut_wait_p50_us", "us"),
    ("depgraph.observe_ns_per_tx", "ns"),
    ("depgraph.release_ns_per_tx", "ns"),
    ("depgraph.edges_per_tx", "count"),
    ("depgraph.critical_path", "tx"),
    ("sched.cut_to_ready_p50_us", "us"),
    ("sched.cut_to_ready_p99_us", "us"),
    ("sched.ready_to_dispatch_p50_us", "us"),
    ("sched.pipeline_occupancy_mean", "blocks"),
    ("sched.boundary_stall_ms", "ms"),
    ("executor.cpu_us_per_tx", "us"),
    ("pool.cpu_us_per_tx", "us"),
    ("executor.exec_p50_us", "us"),
    ("executor.commit_wait_p50_us", "us"),
    ("executor.useful_ratio", "ratio"),
    ("contracts.execute_ns_per_tx", "ns"),
    ("network.cpu_us_per_tx", "us"),
    ("network.msgs_per_tx", "count"),
    ("network.deliver_ns", "ns"),
    ("network.multicast_ns", "ns"),
    ("ledger.put_ns", "ns"),
    ("ledger.get_at_ns", "ns"),
    ("store.commit_p50_ms", "ms"),
    ("store.append_ns", "ns"),
    ("store.seal_p50_us", "us"),
    ("store.seal_p99_us", "us"),
    ("store.fsyncs_per_block", "count"),
    ("store.wal_bytes_per_tx", "bytes"),
    ("store.durable_p50_us", "us"),
    ("crypto.sign_ns", "ns"),
    ("crypto.verify_ns", "ns"),
    ("alloc.per_tx", "count"),
    ("alloc.bytes_per_tx", "bytes"),
    ("model.ceiling_tps", "tx/s"),
    ("model.efficiency", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("uncommitted_frac", "ratio"),
    ("capacity.peak_tps", "tx/s"),
];

/// One measured value. `na` marks a layer the workload bypasses: the
/// value is then 0 and the table says so.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub na: bool,
}

impl Metric {
    pub fn new(name: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            na: false,
        }
    }

    pub fn na(name: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value: 0.0,
            na: true,
        }
    }
}

/// The unit of a known metric, also when its name is prefixed with
/// its workload's (`lowc.peak_tps`).
pub fn unit_of(name: &str) -> Option<&'static str> {
    let lookup = |name: &str| {
        END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|&(_, unit)| unit)
    };
    lookup(name).or_else(|| lookup(name.split_once('.')?.1))
}

/// A name is 1 to 64 letters, digits, `_`, `.` and `-`, starting with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// A unit is 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok_char)
}

/// Checks that `metrics` holds exactly the metrics of `expected`, each
/// once, with valid names and finite values.
pub fn check_complete(metrics: &[Metric], expected: &[(&str, &str)]) -> Result<(), String> {
    for m in metrics {
        if !valid_name(&m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("{} is not finite: {}", m.name, m.value));
        }
    }
    for (name, unit) in expected {
        if !valid_unit(unit) {
            return Err(format!("invalid unit {unit:?} of {name}"));
        }
        let n = metrics.iter().filter(|m| m.name == *name).count();
        if n != 1 {
            return Err(format!("metric {name} emitted {n} times"));
        }
    }
    if metrics.len() != expected.len() {
        return Err(format!(
            "{} metrics emitted, {} expected",
            metrics.len(),
            expected.len()
        ));
    }
    Ok(())
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of sorted samples (`p` in `[0, 1]`).
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit. Values print with all their digits.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(&mut out, &m.name);
        let _ = write!(out, ": {{\"value\": {:?}, \"unit\": ", m.value);
        json_str(&mut out, unit_of(&m.name).unwrap_or("count"));
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// A `{"meta": {...}}` line of string fields.
pub fn meta_json(fields: &[(&str, String)]) -> String {
    let mut out = String::from("{\"meta\": {");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(&mut out, key);
        out.push_str(": ");
        json_str(&mut out, value);
    }
    out.push_str("}}");
    out
}

/// A human-readable table (for standard error).
pub fn table(workload: &str, metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let unit = unit_of(&m.name).unwrap_or("");
        let value = if m.na {
            "N/A".to_string()
        } else {
            format!("{:.4}", m.value)
        };
        let _ = writeln!(out, "  {workload:<11} {:<32} {value:>14} {unit}", m.name);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_name_and_unit_is_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert_eq!(all.iter().filter(|n| *n == name).count(), 1, "{name}");
        }
    }

    /// BENCHMARK.json declares exactly the metrics this program emits,
    /// with the same units, and exactly its workloads.
    #[test]
    fn benchmark_json_matches_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let declared = END_TO_END.iter().chain(PER_LAYER.iter());
        for (name, unit) in declared.clone() {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in crate::workloads::WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": ", w.name);
            assert!(
                json.contains(&entry),
                "BENCHMARK.json lacks workload {}",
                w.name
            );
        }
        let names = json.matches("\"name\": ").count();
        assert_eq!(names, declared.count() + crate::workloads::WORKLOADS.len());
    }

    #[test]
    fn names_and_units_are_checked() {
        assert!(!valid_name(""));
        assert!(!valid_name(".x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_unit("tx/s"));
        assert!(!valid_unit("µs"));
    }

    #[test]
    fn completeness_catches_missing_duplicate_and_non_finite() {
        let expected = [("a.x", "s"), ("b", "ms")];
        let good = vec![Metric::new("a.x", 1.0), Metric::new("b", 2.0)];
        assert!(check_complete(&good, &expected).is_ok());
        assert!(check_complete(&good[..1], &expected).is_err());
        let dup = vec![Metric::new("a.x", 1.0), Metric::new("a.x", 1.0)];
        assert!(check_complete(&dup, &expected).is_err());
        let nan = vec![Metric::new("a.x", f64::NAN), Metric::new("b", 2.0)];
        assert!(check_complete(&nan, &expected).is_err());
    }

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&sorted, 0.5), 50);
        assert_eq!(nearest_rank(&sorted, 0.99), 99);
        assert_eq!(nearest_rank(&sorted, 0.0), 1);
    }

    #[test]
    fn result_line_is_json_with_units() {
        let line = result_json(true, 10, 0, &[Metric::new("commit_p50_ms", 1.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"commit_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
