//! OpenMetrics text rendering for [`MetricSnapshot`]s.
//!
//! [`render`] turns one snapshot into a self-contained OpenMetrics
//! exposition: counters (`_total`), gauges, and histograms with
//! cumulative `le` buckets at the log₂ bucket upper edges plus derived
//! `_p50`/`_p99` gauges from
//! [`HistogramSnapshot::quantiles`](crate::HistogramSnapshot::quantiles). Because
//! everything is computed from a single snapshot, the exposition is
//! internally consistent — the quantiles describe exactly the buckets
//! printed next to them, even while the live registry keeps moving.
//!
//! Metric names are sanitized (`.` and `-` become `_`) and families are
//! emitted in sorted order, so output is deterministic for a given
//! snapshot. [`validate`] is the matching structural checker used by the
//! scrape probes: every sample line must parse, belong to a declared
//! family, and the document must end with `# EOF`.

use crate::metrics::MetricSnapshot;
use std::fmt::Write as _;

/// Sanitize a workspace metric name (`serve.slice_ms`) into an
/// OpenMetrics name (`serve_slice_ms`).
pub fn metric_name(raw: &str) -> String {
    raw.chars()
        .map(|c| match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' | ':' => c,
            _ => '_',
        })
        .collect()
}

fn write_f64(v: f64, out: &mut String) {
    if v == v.trunc() && v.abs() < 9.0e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Render `snap` as OpenMetrics text (ends with `# EOF`).
pub fn render(snap: &MetricSnapshot) -> String {
    let mut out = String::new();
    for (name, &v) in &snap.counters {
        let n = metric_name(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n}_total {v}");
    }
    for (name, &v) in &snap.gauges {
        let n = metric_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = write!(out, "{n} ");
        write_f64(v, &mut out);
        out.push('\n');
    }
    for (name, h) in &snap.histograms {
        let n = metric_name(name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        let mut cum = 0u64;
        for (&b, &count) in &h.buckets {
            cum += count;
            // Bucket b's upper edge: 0 for b = 0, else 2^b - 1.
            let le = if b == 0 { 0u64 } else { (1u64 << b) - 1 };
            let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cum}");
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{n}_sum {}", h.sum);
        let _ = writeln!(out, "{n}_count {}", h.count);
        // Derived quantiles from the same snapshot (one pass, monotone).
        let qs = h.quantiles(&[0.5, 0.99]);
        for (suffix, est) in [("p50", qs[0]), ("p99", qs[1])] {
            let _ = writeln!(out, "# TYPE {n}_{suffix} gauge");
            let _ = write!(out, "{n}_{suffix} ");
            write_f64(est, &mut out);
            out.push('\n');
        }
    }
    out.push_str("# EOF\n");
    out
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Sample-name suffixes a `# TYPE family <kind>` declaration legitimizes.
fn family_of(sample: &str) -> Vec<String> {
    let mut fams = vec![sample.to_string()];
    for suffix in ["_total", "_bucket", "_sum", "_count"] {
        if let Some(base) = sample.strip_suffix(suffix) {
            fams.push(base.to_string());
        }
    }
    fams
}

/// Structural validation of an OpenMetrics exposition: every sample line
/// parses as `name[{labels}] value`, belongs to a family declared by a
/// preceding `# TYPE` line, and the document ends with `# EOF`.
pub fn validate(text: &str) -> Result<(), String> {
    let mut families: Vec<String> = Vec::new();
    let mut saw_eof = false;
    for (i, line) in text.lines().enumerate() {
        let ln = i + 1;
        if saw_eof {
            return Err(format!("line {ln}: content after # EOF"));
        }
        if line == "# EOF" {
            saw_eof = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let fam = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if !is_name(fam)
                || !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "unknown"
                )
                || parts.next().is_some()
            {
                return Err(format!("line {ln}: malformed TYPE line"));
            }
            families.push(fam.to_string());
            continue;
        }
        if line.starts_with("# HELP ") || line.starts_with("# UNIT ") {
            continue;
        }
        // Sample line: name, optional {labels}, space, float value.
        let (name_part, value_part) = match line.find(' ') {
            Some(sp) => (&line[..sp], &line[sp + 1..]),
            None => return Err(format!("line {ln}: no sample value")),
        };
        let name = match name_part.find('{') {
            Some(b) => {
                if !name_part.ends_with('}') {
                    return Err(format!("line {ln}: unterminated label set"));
                }
                &name_part[..b]
            }
            None => name_part,
        };
        if !is_name(name) {
            return Err(format!("line {ln}: bad metric name {name:?}"));
        }
        if value_part.trim().parse::<f64>().is_err() {
            return Err(format!("line {ln}: bad sample value {value_part:?}"));
        }
        if !family_of(name).iter().any(|f| families.contains(f)) {
            return Err(format!(
                "line {ln}: sample {name:?} has no TYPE declaration"
            ));
        }
    }
    if !saw_eof {
        return Err("missing # EOF terminator".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricRegistry;

    #[test]
    fn renders_valid_openmetrics_for_all_metric_kinds() {
        let reg = MetricRegistry::new();
        reg.add("serve.slices", 3);
        reg.gauge_set("serve.jobs_in_flight", 2.0);
        for v in [1u64, 3, 9, 200] {
            reg.observe("serve.slice_ms", v);
        }
        let text = render(&reg.snapshot());
        validate(&text).expect("rendered text validates");
        assert!(text.contains("serve_slices_total 3"));
        assert!(text.contains("serve_jobs_in_flight 2"));
        assert!(text.contains("serve_slice_ms_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("serve_slice_ms_sum 213"));
        assert!(text.contains("serve_slice_ms_p99 "));
        assert!(text.ends_with("# EOF\n"));
        // Deterministic: same snapshot, same bytes.
        assert_eq!(text, render(&reg.snapshot()));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let reg = MetricRegistry::new();
        for v in [1u64, 1, 2, 5] {
            reg.observe("h", v);
        }
        let text = render(&reg.snapshot());
        assert!(text.contains("h_bucket{le=\"1\"} 2"));
        assert!(text.contains("h_bucket{le=\"3\"} 3"));
        assert!(text.contains("h_bucket{le=\"7\"} 4"));
        assert!(text.contains("h_bucket{le=\"+Inf\"} 4"));
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate("").is_err(), "missing EOF");
        assert!(validate("x_total 1\n# EOF\n").is_err(), "undeclared family");
        assert!(
            validate("# TYPE x counter\nx_total nope\n# EOF\n").is_err(),
            "bad value"
        );
        assert!(
            validate("# TYPE x counter\nx_total 1\n# EOF\nmore\n").is_err(),
            "content after EOF"
        );
        assert!(validate("# TYPE x counter\nx_total 1\n# EOF\n").is_ok());
    }
}
