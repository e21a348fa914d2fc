//! Plain-text table/series printing and JSON snippets for experiment
//! reports (`BENCH_*.json` files at the workspace root).

use vqpy_core::ExecMetrics;

/// Escapes a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Exact latency percentiles of a sample set, `(p50, p95, p99, max)`.
///
/// Uses the same rank convention as the obs crate's histogram —
/// `rank = clamp(ceil(q·n), 1, n)` over the sorted samples — so bench JSON
/// and Prometheus snapshots of the same run quote comparable quantiles.
/// Returns zeros for empty input.
pub fn percentiles(samples: &[f64]) -> (f64, f64, f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0, 0.0, 0.0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pick = |q: f64| {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    };
    (pick(0.50), pick(0.95), pick(0.99), sorted[sorted.len() - 1])
}

/// Renders a `(p50, p95, p99, max)` tuple as an inline JSON object.
pub fn percentiles_json(p: (f64, f64, f64, f64)) -> String {
    format!(
        "{{\"p50\": {:.3}, \"p95\": {:.3}, \"p99\": {:.3}, \"max\": {:.3}}}",
        p.0, p.1, p.2, p.3
    )
}

/// Renders execution metrics as a JSON object (indented by `indent`
/// spaces): frame counts, reuse-cache counters and hit rate, per-stage
/// wall times, per-frame latency percentiles (when the run recorded them
/// via `ExecConfig::record_per_frame_ms`), and the one-line
/// [`ExecMetrics::summary`] string, so bench JSON records the cache and
/// stage behavior behind each throughput number.
pub fn exec_metrics_json(m: &ExecMetrics, indent: usize) -> String {
    let pad = " ".repeat(indent);
    let inner = " ".repeat(indent + 2);
    let stages: Vec<String> = m
        .stage_wall_ms
        .iter()
        .map(|(n, ms)| format!("{inner}  \"{}\": {ms:.2}", json_escape(n)))
        .collect();
    let stages_block = if stages.is_empty() {
        "{}".to_owned()
    } else {
        format!("{{\n{}\n{inner}}}", stages.join(",\n"))
    };
    let latency = if m.per_frame_ms.is_empty() {
        String::new()
    } else {
        format!(
            "{inner}\"frame_latency_ms\": {},\n",
            percentiles_json(percentiles(&m.per_frame_ms))
        )
    };
    format!(
        "{{\n{inner}\"frames_total\": {},\n{inner}\"frames_processed\": {},\n\
         {inner}\"reuse_hits\": {},\n{inner}\"reuse_misses\": {},\n\
         {inner}\"reuse_evictions\": {},\n{inner}\"reuse_hit_rate\": {:.4},\n\
         {inner}\"stage_wall_ms\": {stages_block},\n{latency}{inner}\"summary\": \"{}\"\n{pad}}}",
        m.frames_total,
        m.frames_processed,
        m.reuse.hits,
        m.reuse.misses,
        m.reuse.evictions,
        m.reuse.hit_rate(),
        json_escape(&m.summary()),
    )
}

/// Updates one top-level section of a `BENCH_*.json` file in place,
/// leaving the other sections untouched, so independent bench binaries can
/// co-own a report file (the multi-stream scaling bench and the device
/// scaling bench both write `BENCH_serve.json`).
///
/// The file is a single JSON object whose top-level values are written by
/// this function (one `"name": value` per section). `value` must itself be
/// valid JSON. Unparseable files — and legacy single-bench files, whose
/// top-level values are scalars rather than section objects — are
/// replaced by a fresh single-section object.
pub fn merge_section(path: &std::path::Path, name: &str, value: &str) {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let mut sections = parse_top_level(&existing)
        .filter(|s| {
            s.iter()
                .all(|(_, v)| v.starts_with('{') || v.starts_with('['))
        })
        .unwrap_or_default();
    match sections.iter_mut().find(|(n, _)| n == name) {
        Some((_, v)) => *v = value.trim().to_owned(),
        None => sections.push((name.to_owned(), value.trim().to_owned())),
    }
    let body: Vec<String> = sections
        .iter()
        .map(|(n, v)| format!("  \"{}\": {}", json_escape(n), v))
        .collect();
    let doc = format!("{{\n{}\n}}\n", body.join(",\n"));
    std::fs::write(path, doc).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// Splits a JSON object document into its top-level `(key, raw value)`
/// pairs. Returns `None` when the document is not an object (or is
/// malformed), in which case the caller starts a fresh file. Handles
/// nested objects/arrays and strings with escapes; that is all our own
/// writers emit.
fn parse_top_level(doc: &str) -> Option<Vec<(String, String)>> {
    let bytes = doc.as_bytes();
    let mut i = doc.find('{')? + 1;
    let mut out = Vec::new();
    loop {
        // Seek the next key (a quoted string) or the closing brace.
        while i < bytes.len() && bytes[i] != b'"' && bytes[i] != b'}' {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] == b'}' {
            return Some(out);
        }
        let (key, after_key) = scan_string(doc, i)?;
        i = after_key;
        while i < bytes.len() && bytes[i] != b':' {
            i += 1;
        }
        i += 1; // past ':'
        while i < bytes.len() && (bytes[i] as char).is_whitespace() {
            i += 1;
        }
        let start = i;
        // Scan the value: balance braces/brackets outside strings.
        let mut depth = 0i32;
        while i < bytes.len() {
            match bytes[i] {
                b'"' => {
                    let (_, after) = scan_string(doc, i)?;
                    i = after;
                    continue;
                }
                b'{' | b'[' => depth += 1,
                b'}' | b']' => {
                    if depth == 0 {
                        break; // the object's closing brace
                    }
                    depth -= 1;
                }
                b',' if depth == 0 => break,
                _ => {}
            }
            i += 1;
        }
        out.push((key, doc[start..i].trim().to_owned()));
        if i < bytes.len() && bytes[i] == b',' {
            i += 1;
        }
    }
}

/// Scans the JSON string starting at `start` (which must index a `"`),
/// returning its unescaped-enough content (escapes kept verbatim) and the
/// index just past the closing quote.
fn scan_string(doc: &str, start: usize) -> Option<(String, usize)> {
    let bytes = doc.as_bytes();
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some((doc[start + 1..i].to_owned(), i + 1)),
            _ => i += 1,
        }
    }
    None
}

/// Prints a section header.
pub fn section(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Prints an aligned table: `headers` then `rows` (stringified cells).
pub fn table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!(
                "{:<width$}  ",
                c,
                width = widths[i.min(widths.len() - 1)]
            ));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats milliseconds with sensible precision.
pub fn ms(v: f64) -> String {
    if v >= 1000.0 {
        format!("{:.1}s", v / 1000.0)
    } else {
        format!("{v:.1}ms")
    }
}

/// Mean of a slice (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn ms_scales() {
        assert_eq!(ms(10.0), "10.0ms");
        assert_eq!(ms(2500.0), "2.5s");
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn merge_section_coowns_a_file() {
        let dir = std::env::temp_dir().join(format!("vqpy_merge_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let _ = std::fs::remove_file(&path);

        merge_section(
            &path,
            "alpha",
            "{\n    \"x\": 1,\n    \"s\": \"a\\\"b}\"\n  }",
        );
        merge_section(&path, "beta", "[1, 2, 3]");
        let doc = std::fs::read_to_string(&path).unwrap();
        assert!(doc.contains("\"alpha\""), "{doc}");
        assert!(doc.contains("\"beta\": [1, 2, 3]"), "{doc}");

        // Updating one section preserves the other, byte-for-byte.
        merge_section(&path, "alpha", "{\n    \"x\": 2\n  }");
        let doc2 = std::fs::read_to_string(&path).unwrap();
        assert!(doc2.contains("\"x\": 2"), "{doc2}");
        assert!(doc2.contains("\"beta\": [1, 2, 3]"), "{doc2}");
        assert!(
            !doc2.contains("a\\\"b}"),
            "old alpha body must be gone: {doc2}"
        );

        // Merging is idempotent on untouched sections.
        merge_section(&path, "alpha", "{\n    \"x\": 2\n  }");
        assert_eq!(doc2, std::fs::read_to_string(&path).unwrap());

        let parsed = parse_top_level(&doc2).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1], ("beta".to_owned(), "[1, 2, 3]".to_owned()));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn parse_top_level_rejects_non_objects() {
        assert!(parse_top_level("").is_none());
        assert_eq!(parse_top_level("{}"), Some(Vec::new()));
        let legacy = "{\n  \"bench\": \"x\",\n  \"n\": 3\n}";
        let parsed = parse_top_level(legacy).unwrap();
        assert_eq!(parsed[0], ("bench".to_owned(), "\"x\"".to_owned()));
        assert_eq!(parsed[1], ("n".to_owned(), "3".to_owned()));
    }

    #[test]
    fn merge_section_replaces_legacy_flat_files() {
        let dir = std::env::temp_dir().join(format!("vqpy_legacy_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_legacy.json");
        // Pre-sections flat format: scalar top-level values.
        std::fs::write(&path, "{\n  \"bench\": \"old\",\n  \"frames\": 80\n}").unwrap();
        merge_section(&path, "scaling", "{\n    \"x\": 1\n  }");
        let doc = std::fs::read_to_string(&path).unwrap();
        assert!(
            !doc.contains("\"bench\": \"old\"") && !doc.contains("\"frames\""),
            "legacy keys must be discarded, not merged into: {doc}"
        );
        assert!(doc.contains("\"scaling\""), "{doc}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn exec_metrics_json_embeds_summary() {
        let mut m = ExecMetrics {
            frames_total: 10,
            frames_processed: 8,
            ..ExecMetrics::default()
        };
        m.reuse.hits = 6;
        m.reuse.misses = 2;
        m.add_stage_wall("decode", 1.5);
        let json = exec_metrics_json(&m, 2);
        assert!(json.contains("\"frames_total\": 10"), "{json}");
        assert!(json.contains("\"decode\": 1.50"), "{json}");
        assert!(json.contains("\"reuse_hit_rate\": 0.7500"), "{json}");
        assert!(json.contains("\"summary\""), "{json}");
        // No per-frame samples recorded: no latency block.
        assert!(!json.contains("frame_latency_ms"), "{json}");

        m.per_frame_ms = vec![3.0, 1.0, 2.0, 4.0];
        let json = exec_metrics_json(&m, 2);
        assert!(
            json.contains(
                "\"frame_latency_ms\": {\"p50\": 2.000, \"p95\": 4.000, \
                 \"p99\": 4.000, \"max\": 4.000}"
            ),
            "{json}"
        );
    }

    #[test]
    fn percentiles_use_ceil_rank() {
        assert_eq!(percentiles(&[]), (0.0, 0.0, 0.0, 0.0));
        assert_eq!(percentiles(&[7.0]), (7.0, 7.0, 7.0, 7.0));
        // 1..=100: rank(q) = ceil(q*100) → p50=50, p95=95, p99=99.
        let xs: Vec<f64> = (1..=100).rev().map(|i| i as f64).collect();
        assert_eq!(percentiles(&xs), (50.0, 95.0, 99.0, 100.0));
    }
}
