//! The cross-PR throughput record: `results/BENCH_pipeline.json`.
//!
//! Every harness binary finishes by recording its per-cell simulated
//! instruction throughput and total wall-clock here (via
//! [`crate::engine::Harness::finish`]). The file is a single JSON object
//! with one entry per harness; a run replaces its own entry and leaves
//! the others in place, so a full sweep of the binaries accumulates the
//! complete matrix. The file carries the perf trajectory across PRs —
//! stdout of the harnesses is reserved for the paper tables/figures and
//! never changes with this reporting.
//!
//! No JSON dependency is available offline, so the writer emits the
//! format by hand and re-reads it with a small brace-matching scanner.
//! The scanner only needs to understand files this module wrote; if the
//! file was edited into something it cannot parse, the stale entries are
//! dropped rather than corrupted further.

use crate::engine::CellStat;
use umi_workloads::Scale;

/// Wall-clock seconds of the seed revision's harnesses (best of 3,
/// `UMI_SCALE=test`, single-core container, sequential) — the baseline
/// the ≥2× acceptance bar is measured against.
const SEED_BASELINE: &[(&str, f64)] = &[("table4", 21.06), ("table6", 6.94), ("fig3", 24.91)];

/// Wall-clock seconds of the PR 1 revision (parallel engine + hot-path
/// overhaul; best of interleaved A/B runs, `UMI_SCALE=test`,
/// `UMI_JOBS=2`, single-core container) — the baseline the decoded
/// code-cache PR measures its speedup against.
const PR1_BASELINE: &[(&str, f64)] = &[("table4", 12.26), ("table6", 3.69), ("fig3", 6.65)];

/// Wall-clock seconds of the PR 5 revision (the last one before the
/// batched/SoA cache sink; best of 3, `UMI_SCALE=test`, `UMI_JOBS=1`,
/// single-core container) — the baseline the batched-sink PR measures
/// its speedup against.
const PR5_BASELINE: &[(&str, f64)] = &[("table4", 11.95), ("table6", 3.31), ("fig3", 6.52)];

/// Interleaved A/B wall-clock medians for the single-pass/batched-sink
/// revision: `(harness, this build, PR 5 binaries)`, alternating runs
/// within one session (16 samples each, `UMI_SCALE=test`, `UMI_JOBS=1`,
/// single-core container). Recorded statically because the container's
/// clock drifts ±20% between sessions — only interleaved pairs are
/// comparable, so the live `speedup_vs_pr5` field (current wall over the
/// PR 5 session's recording) can read high or low on any given run.
const PR6_INTERLEAVED: &[(&str, f64, f64)] = &[
    ("table4", 7.51, 10.52),
    ("table6", 2.77, 3.52),
    ("fig3", 5.04, 6.04),
];

/// Interleaved A/B wall-clock medians for the PGO-loop revision
/// (self-profiled superinstructions + hot-first dispatch):
/// `(harness, this build, PR 6 binaries)`, same protocol as
/// [`PR6_INTERLEAVED`].
const PR7_INTERLEAVED: &[(&str, f64, f64)] = &[
    ("table4", 6.50, 8.58),
    ("table6", 2.53, 2.59),
    ("fig3", 4.82, 4.94),
];

/// Interleaved A/B wall-clock medians for the trace-cache revision
/// (capture-once / replay-everywhere, warm on-disk trace cache, since
/// removed):
/// `(harness, this build, PR 7 binaries)`, same protocol as
/// [`PR6_INTERLEAVED`]. Harness medians are break-even: after PR 7's
/// superinstruction work, interpretation is a minority of cell cost
/// (the cache-model sinks and the UMI analyzer dominate, and both run
/// identically under replay), so skipping it roughly cancels against
/// the load-and-validate tax. The per-cell picture is in the
/// `trace_cache` entry: replaying the heaviest pass-1 cell (171.swim
/// into the full Pentium 4 model) is ~1.3x live, and decode alone
/// sustains ~400 M accesses/s.
const PR8_INTERLEAVED: &[(&str, f64, f64)] = &[
    ("table4", 5.98, 5.81),
    ("table6", 2.53, 2.53),
    ("fig3", 4.47, 4.26),
];

/// The PR 10 static-vs-dynamic prefetch-plan summary (`table_staticplan`
/// at `UMI_SCALE=test`, `UMI_JOBS=2`, single-core container). Recorded
/// statically like the interleaved medians: the live
/// `harnesses.table_staticplan` entry tracks wall-clock per run, while
/// this section pins the deterministic result the PR ships — every
/// composed miss-count interval holding against exact simulation, and
/// the static planner's A/B against dynamic UMI.
const PR10_STATICPLAN: &str = "{\n    \"note\": \"static vs dynamic prefetch plans (table_staticplan, UMI_SCALE=test, UMI_JOBS=2, single-core container); every composed miss-count interval audited against exact simulation across the 32 workloads\",\n    \"table_staticplan_seconds\": 6.84,\n    \"interval_checks\": 61961,\n    \"violations\": 0,\n    \"planned_workloads\": 21,\n    \"geomean_static_normalized\": 0.857,\n    \"geomean_dynamic_normalized\": 0.842,\n    \"macro_avg_ranking_agreement_percent\": 25.0\n  }";

/// `PR1_BASELINE` lookup.
fn pr1_baseline(name: &str) -> Option<f64> {
    PR1_BASELINE
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, s)| *s)
}

/// `PR5_BASELINE` lookup.
fn pr5_baseline(name: &str) -> Option<f64> {
    PR5_BASELINE
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, s)| *s)
}

fn mips(insns: u64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return 0.0;
    }
    insns as f64 / seconds / 1.0e6
}

/// Serializes one harness entry (the value object only, no name key).
fn entry_json(name: &str, scale: Scale, jobs: usize, wall: f64, stats: &[CellStat]) -> String {
    let total_insns: u64 = stats.iter().map(|s| s.insns).sum();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("      \"scale\": \"{}\",\n", scale.name()));
    out.push_str(&format!("      \"jobs\": {jobs},\n"));
    out.push_str(&format!("      \"wall_seconds\": {wall:.3},\n"));
    if let Some(base) = pr1_baseline(name) {
        if wall > 0.0 {
            out.push_str(&format!("      \"speedup_vs_pr1\": {:.2},\n", base / wall));
        }
    }
    if let Some(base) = pr5_baseline(name) {
        if wall > 0.0 {
            out.push_str(&format!("      \"speedup_vs_pr5\": {:.2},\n", base / wall));
        }
    }
    out.push_str(&format!("      \"total_insns\": {total_insns},\n"));
    out.push_str(&format!(
        "      \"minsns_per_sec\": {:.2},\n",
        mips(total_insns, wall)
    ));
    out.push_str("      \"cells\": [\n");
    for (i, s) in stats.iter().enumerate() {
        let comma = if i + 1 < stats.len() { "," } else { "" };
        out.push_str(&format!(
            "        {{\"label\": \"{}\", \"seconds\": {:.3}, \"insns\": {}, \"minsns_per_sec\": {:.2}}}{comma}\n",
            s.label, s.seconds, s.insns,
            mips(s.insns, s.seconds)
        ));
    }
    out.push_str("      ]\n");
    out.push_str("    }");
    out
}

/// Extracts `(name, raw value text)` pairs from the `"harnesses"` object
/// of a previously written report. Returns `None` on anything the writer
/// would not have produced.
fn parse_entries(text: &str) -> Option<Vec<(String, String)>> {
    let start = text.find("\"harnesses\": {")?;
    let mut rest = &text[start + "\"harnesses\": {".len()..];
    let mut entries = Vec::new();
    loop {
        rest = rest.trim_start_matches(|c: char| c.is_whitespace() || c == ',');
        if let Some(r) = rest.strip_prefix('}') {
            let _ = r;
            return Some(entries);
        }
        let r = rest.strip_prefix('"')?;
        let name_end = r.find('"')?;
        let name = &r[..name_end];
        let r = r[name_end + 1..].trim_start().strip_prefix(':')?;
        let r = r.trim_start();
        if !r.starts_with('{') {
            return None;
        }
        // Brace-match the value object. The writer never emits braces
        // inside strings (labels are workload names and setting tags),
        // so plain depth counting is sound here.
        let mut depth = 0usize;
        let mut end = None;
        for (i, c) in r.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(i + 1);
                        break;
                    }
                }
                _ => {}
            }
        }
        let end = end?;
        entries.push((name.to_string(), r[..end].to_string()));
        rest = &r[end..];
    }
}

fn render(entries: &[(String, String)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"note\": \"simulated-instruction throughput per umi-bench harness; each binary rewrites its own entry on every run\",\n",
    );
    out.push_str("  \"seed_baseline\": {\n");
    out.push_str(
        "    \"note\": \"seed-revision wall-clock, UMI_SCALE=test, best of 3, sequential, single-core container\",\n",
    );
    for (i, (name, secs)) in SEED_BASELINE.iter().enumerate() {
        let comma = if i + 1 < SEED_BASELINE.len() { "," } else { "" };
        out.push_str(&format!("    \"{name}\": {secs:.2}{comma}\n"));
    }
    out.push_str("  },\n");
    out.push_str("  \"pr1_baseline\": {\n");
    out.push_str(
        "    \"note\": \"PR 1 wall-clock, UMI_SCALE=test, UMI_JOBS=2, best of interleaved A/B, single-core container\",\n",
    );
    for (i, (name, secs)) in PR1_BASELINE.iter().enumerate() {
        let comma = if i + 1 < PR1_BASELINE.len() { "," } else { "" };
        out.push_str(&format!("    \"{name}\": {secs:.2}{comma}\n"));
    }
    out.push_str("  },\n");
    out.push_str("  \"pr5_baseline\": {\n");
    out.push_str(
        "    \"note\": \"PR 5 wall-clock, UMI_SCALE=test, UMI_JOBS=1, best of 3, single-core container; the batched cache-sink PR measures against this\",\n",
    );
    for (i, (name, secs)) in PR5_BASELINE.iter().enumerate() {
        let comma = if i + 1 < PR5_BASELINE.len() { "," } else { "" };
        out.push_str(&format!("    \"{name}\": {secs:.2}{comma}\n"));
    }
    out.push_str("  },\n");
    let interleaved = |out: &mut String,
                       key: &str,
                       note: &str,
                       old_key: &str,
                       rows: &[(&str, f64, f64)]| {
        out.push_str(&format!("  \"{key}\": {{\n"));
        out.push_str(&format!("    \"note\": \"{note}\",\n"));
        for (i, (name, new, old)) in rows.iter().enumerate() {
            let comma = if i + 1 < rows.len() { "," } else { "" };
            out.push_str(&format!(
                "    \"{name}\": {{\"new_seconds\": {new:.2}, \"{old_key}\": {old:.2}, \"speedup\": {:.2}}}{comma}\n",
                if *new > 0.0 { old / new } else { 0.0 }
            ));
        }
        out.push_str("  },\n");
    };
    interleaved(
        &mut out,
        "pr6_interleaved",
        "single-pass cells + batched SoA sink vs PR 5 binaries: interleaved A/B medians (16 samples each), UMI_SCALE=test, UMI_JOBS=1, single-core container",
        "pr5_seconds",
        PR6_INTERLEAVED,
    );
    interleaved(
        &mut out,
        "pr7_interleaved",
        "self-profiled superinstructions + hot-first dispatch vs PR 6 binaries: interleaved A/B medians (9 samples each), UMI_SCALE=test, UMI_JOBS=1, single-core container",
        "pr6_seconds",
        PR7_INTERLEAVED,
    );
    interleaved(
        &mut out,
        "pr8_interleaved",
        "trace cache (warm on-disk replay, since removed) vs the superinstruction revision's binaries: interleaved A/B medians (9 samples each), UMI_SCALE=test, UMI_JOBS=1, single-core container",
        "pr7_seconds",
        PR8_INTERLEAVED,
    );
    out.push_str(&format!("  \"pr10_staticplan\": {PR10_STATICPLAN},\n"));
    out.push_str("  \"harnesses\": {\n");
    for (i, (name, body)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        out.push_str(&format!("    \"{name}\": {body}{comma}\n"));
    }
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

/// Replaces (or adds) `name`'s entry in `results/BENCH_pipeline.json`,
/// best-effort like [`write_results`].
pub fn record(name: &str, scale: Scale, jobs: usize, wall: f64, stats: &[CellStat]) {
    let body = entry_json(name, scale, jobs, wall, stats);
    let path = std::path::Path::new("results").join("BENCH_pipeline.json");
    let mut entries = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| parse_entries(&text))
        .unwrap_or_default();
    match entries.iter_mut().find(|(n, _)| n == name) {
        Some(slot) => slot.1 = body,
        None => entries.push((name.to_string(), body)),
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    write_results("BENCH_pipeline.json", &render(&entries));
}

/// Writes `contents` to `results/<file>`, creating the directory.
///
/// Best-effort: a failure is one warning on stderr, never a panic or a
/// line on stdout — a read-only checkout must not fail a harness or gate.
pub fn write_results(file: &str, contents: &str) {
    let path = std::path::Path::new("results").join(file);
    let write = std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, contents));
    if let Err(e) = write {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(label: &str, seconds: f64, insns: u64) -> CellStat {
        CellStat {
            label: label.to_string(),
            seconds,
            insns,
        }
    }

    #[test]
    fn entry_round_trips_through_scanner() {
        let stats = vec![
            stat("164.gzip", 0.5, 1_000_000),
            stat("181.mcf", 1.25, 2_000_000),
        ];
        let body = entry_json("fig3", Scale::Test, 4, 1.75, &stats);
        assert!(
            body.contains("speedup_vs_pr1"),
            "known harness gets a speedup field"
        );
        let file = render(&[("fig3".to_string(), body.clone())]);
        let parsed = parse_entries(&file).expect("own output must parse");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].0, "fig3");
        assert_eq!(parsed[0].1, body);
    }

    #[test]
    fn multiple_entries_survive_a_rewrite() {
        let a = entry_json("table4", Scale::Test, 1, 2.0, &[stat("a", 1.0, 10)]);
        let b = entry_json("table6", Scale::Bench, 2, 3.0, &[stat("b", 1.5, 20)]);
        let file = render(&[("table4".into(), a.clone()), ("table6".into(), b.clone())]);
        let parsed = parse_entries(&file).expect("parses");
        assert_eq!(
            parsed,
            vec![("table4".to_string(), a), ("table6".to_string(), b)]
        );
    }

    #[test]
    fn garbage_is_rejected_not_misparsed() {
        assert_eq!(parse_entries("not json at all"), None);
        assert_eq!(parse_entries("{\"harnesses\": {\"x\": 3}}"), None);
        // An empty harness map is fine.
        assert_eq!(parse_entries("{\"harnesses\": {}}"), Some(Vec::new()));
    }

    #[test]
    fn throughput_math() {
        assert_eq!(mips(2_000_000, 2.0), 1.0);
        assert_eq!(mips(1, 0.0), 0.0);
    }
}
