//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (the goldens are read from
//! `results/golden/`). One run builds the 32-program suite (set-up,
//! repeated and timed), then runs the workload's cells in a seeded order,
//! pass after pass, until `--seconds` have elapsed and at least one full
//! pass is done. Every cell's rows and every complete pass's summary
//! lines are checked against the goldens. With `--trace 0` the last
//! stdout line is a JSON object carrying the end-to-end metrics; with
//! `--trace 1` each cell runs untraced and then traced, and the JSON
//! carries the per-layer split instead, while the spans go to
//! `.perfbench/spans-<workload>-seed<n>.json`. See `perfbench/README.md`.

mod cells;
mod golden;
mod probe;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use cells::{CellOut, Extra, Suite, Workload};
use golden::Golden;
use probe::Probe;
use umi_bench::{geomean, mean};

/// Set-up repeats at least `SETUP_REPS.0` times and, while the
/// repetitions so far took under `SETUP_MIN_S`, up to `SETUP_REPS.1`
/// times; `setup_s` is the median repetition. A quick set-up thus gets
/// enough repetitions for a steady median without slowing a long one.
const SETUP_REPS: (usize, usize) = (3, 100);
const SETUP_MIN_S: f64 = 1.0;

/// Full passes a run completes before `--seconds` may end it: two give
/// every cell a second repetition to take the fastest of, even on the
/// workload whose pass is longest; a traced run, whose numbers carry no
/// bound, needs one.
const MIN_PASSES: u32 = 2;

/// Where the benchmark writes, relative to the working directory.
const OUT_DIR: &str = ".perfbench";

/// The end-to-end metrics: name, unit, and which direction is better.
const END_TO_END: [(&str, &str, &str); 10] = [
    ("wall_s", "s", "lower"),
    ("cell_max_frac", "ratio", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("check_pass_frac", "ratio", "higher"),
    ("umi_overhead_x", "ratio", "lower"),
    ("pred_recall", "%", "higher"),
    ("pred_false_pos", "%", "lower"),
    ("sw_prefetch_x", "ratio", "lower"),
    ("static_plan_x", "ratio", "lower"),
];

/// The per-layer metrics of a traced run: name and unit. Each cell
/// contributes its fastest traced repetition; times are self times and
/// counts are work done, both summed over the suite.
const PER_LAYER: [(&str, &str); 53] = [
    ("workloads.build_s", "s"),
    ("ir.decode_s", "s"),
    ("vm.self_s", "s"),
    ("vm.ns_per_insn", "ns"),
    ("vm.insns", "count"),
    ("vm.blocks", "count"),
    ("vm.mem_refs", "count"),
    ("trace.capture_s", "s"),
    ("trace.load_s", "s"),
    ("trace.replay_s", "s"),
    ("trace.bytes", "bytes"),
    ("trace.bits_per_access", "bits"),
    ("trace.hit_ratio", "ratio"),
    ("dbi.self_s", "s"),
    ("dbi.blocks_translated", "count"),
    ("dbi.traces_built", "count"),
    ("dbi.trace_residency", "ratio"),
    ("dbi.overhead_cycles", "cycles"),
    ("core.self_s", "s"),
    ("core.profiles_collected", "count"),
    ("core.analyzer_invocations", "count"),
    ("core.cache_flushes", "count"),
    ("core.profiled_ops", "count"),
    ("core.samples_taken", "count"),
    ("core.predicted_loads", "count"),
    ("core.overhead_cycles", "cycles"),
    ("cache.self_s", "s"),
    ("cache.ns_per_access", "ns"),
    ("cache.accesses", "count"),
    ("cache.batches", "count"),
    ("cache.l1_misses", "count"),
    ("cache.l2_misses", "count"),
    ("hw.self_s", "s"),
    ("hw.ns_per_access", "ns"),
    ("hw.accesses", "count"),
    ("hw.prefetch_fills", "count"),
    ("hw.sim_cycles", "cycles"),
    ("analyze.verify_s", "s"),
    ("analyze.absint_s", "s"),
    ("analyze.trips_s", "s"),
    ("analyze.compose_s", "s"),
    ("analyze.sites", "count"),
    ("analyze.classified_frac", "ratio"),
    ("analyze.intervals_checked", "count"),
    ("prefetch.plan_s", "s"),
    ("prefetch.staticplan_s", "s"),
    ("prefetch.rewrite_s", "s"),
    ("prefetch.planned_workloads", "count"),
    ("prefetch.planned_loads", "count"),
    ("bench.unattributed_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.untraced_wall_s", "s"),
    ("bench.trace_overhead", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut args = args;
    while let Some(flag) = args.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag,
            _ => return Err(format!("unknown argument {flag:?}")),
        };
        let value = args.next().ok_or_else(|| format!("{key} needs a value"))?;
        map.insert(key, value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {name:?} (one of {})", names.join(", "))
        })?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be a non-negative integer".to_string())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .ok()
        .filter(|s: &f64| s.is_finite() && *s > 0.0)
        .ok_or("--seconds must be a positive number")?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// SplitMix64: the seeded cell order.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// A directory removed when the run ends, however it ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Measurements of one cell across the run.
///
/// A cell is timed by its fastest repetition. The simulation is
/// deterministic and single-threaded, so a slower repetition only ever
/// measures interference from outside the process (on a shared host, in
/// bursts of seconds); the fastest repetition is the steadiest estimate
/// of the cell's own cost, and the spread left between runs is what the
/// median over runs absorbs.
#[derive(Default)]
struct CellSamples {
    untraced_s: Vec<f64>,
    /// Traced repetitions: composition seconds and the layer values.
    traced: Vec<(f64, BTreeMap<&'static str, f64>)>,
    insns: u64,
}

impl CellSamples {
    fn best_untraced(&self) -> f64 {
        self.untraced_s
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// The fastest traced repetition.
    fn best_traced(&self) -> Option<&(f64, BTreeMap<&'static str, f64>)> {
        self.traced.iter().min_by(|a, b| a.0.total_cmp(&b.0))
    }
}

/// Tallies of the output check.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    replayed: u64,
    cells: u64,
}

impl Checks {
    /// Checks one cell execution: its rows against the goldens, and its
    /// stream source against the one the workload is named after.
    fn cell(&mut self, g: &Golden, w: Workload, name: &str, out: &CellOut) {
        self.attempted += 1;
        self.cells += 1;
        self.replayed += u64::from(out.replayed);
        let mut ok = out.replayed == w.replays();
        if !ok {
            eprintln!("perfbench: {name} did not take the {} path", w.name());
        }
        for (section, row) in &out.rows {
            if !g.row_ok(*section, name, row.as_deref()) {
                eprintln!("perfbench: {name}: {section:?} row differs from the golden: {row:?}");
                ok = false;
            }
        }
        self.failed += u64::from(!ok);
    }

    /// Checks one complete pass's summary lines.
    fn summary(&mut self, g: &Golden, lines: &[(&str, String)]) {
        self.attempted += 1;
        let mut ok = true;
        for (file, line) in lines {
            if !g.line_ok(file, line) {
                eprintln!("perfbench: summary line missing from {file}.txt: {line:?}");
                ok = false;
            }
        }
        self.failed += u64::from(!ok);
    }
}

/// A complete pass's summary lines (checked against the goldens) and
/// simulated end-to-end metrics, from its cells in suite order.
fn summarize(
    w: Workload,
    suite: &Suite,
    outs: &[CellOut],
) -> (Vec<(&'static str, String)>, BTreeMap<&'static str, f64>) {
    let mut sim = BTreeMap::new();
    sim.insert(
        "umi_overhead_x",
        geomean(&outs.iter().map(|o| o.overhead_x).collect::<Vec<_>>()),
    );
    let q = |f: &dyn Fn(&CellOut) -> f64| 100.0 * mean(&outs.iter().map(f).collect::<Vec<_>>());
    sim.insert("pred_recall", q(&|o| o.quality.recall));
    sim.insert("pred_false_pos", q(&|o| o.quality.false_positive));
    sim.insert("sw_prefetch_x", 1.0);
    sim.insert("static_plan_x", 1.0);
    let mut lines = Vec::new();
    match w {
        Workload::OnlineLive | Workload::OnlineReplay => {
            lines.push((
                "table6",
                format!(
                    "average (all): recall {:.1}%  false-pos {:.1}%  P∩C coverage {:.1}%",
                    q(&|o| o.quality.recall),
                    q(&|o| o.quality.false_positive),
                    q(&|o| o.quality.pc_miss_coverage),
                ),
            ));
        }
        Workload::PrefetchFeedback => {
            let rows: Vec<(f64, f64)> = outs
                .iter()
                .filter_map(|o| match o.extra {
                    Extra::Prefetch(r) => r,
                    _ => None,
                })
                .collect();
            let only = geomean(&rows.iter().map(|r| r.0).collect::<Vec<_>>());
            let sw = geomean(&rows.iter().map(|r| r.1).collect::<Vec<_>>());
            sim.insert("sw_prefetch_x", sw);
            lines.push((
                "fig3",
                format!(
                    "{} workloads with prefetching opportunities (paper: 11 of 32)",
                    rows.len()
                ),
            ));
            lines.push((
                "fig3",
                format!("geomean normalized time: UMI only {only:.3}, UMI+SW {sw:.3}"),
            ));
        }
        Workload::StaticAudit => {
            let (mut groups, mut bounded, mut violations) = (0, 0, 0);
            let (mut agree, mut snorms, mut dnorms) = (Vec::new(), Vec::new(), Vec::new());
            for o in outs {
                if let Extra::Static {
                    groups: g,
                    bounded: b,
                    violations: v,
                    agreement,
                    norms,
                } = o.extra
                {
                    groups += g;
                    bounded += b;
                    violations += v;
                    agree.push(agreement);
                    if let Some((s, d)) = norms {
                        snorms.push(s);
                        dnorms.push(d);
                    }
                }
            }
            let (gs, gd) = (geomean(&snorms), geomean(&dnorms));
            sim.insert("static_plan_x", gs);
            sim.insert("sw_prefetch_x", gd);
            let n = suite.specs.len();
            lines.push((
                "table_staticplan",
                format!(
                    "{:<14} {:>6} {:>7} {:>7}",
                    "total", groups, bounded, violations
                ),
            ));
            lines.push((
                "table_staticplan",
                format!(
                    "macro-average delinquency-ranking agreement (static hot vs dynamic predicted): {:.1}%",
                    mean(&agree)
                ),
            ));
            lines.push((
                "table_staticplan",
                format!(
                    "geomean over {} planned workloads: static {gs:.3}, dynamic {gd:.3}",
                    snorms.len()
                ),
            ));
            lines.push((
                "table_staticplan",
                format!(
                    "soundness: {}/{} composed interval groups hold against exact simulation",
                    groups + n - violations,
                    groups + n
                ),
            ));
        }
    }
    (lines, sim)
}

fn write_spans(path: &Path, w: Workload, seed: u64, probe: &Probe) -> Result<(), String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"spans\": [",
        w.name()
    );
    for (i, s) in probe.spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if i + 1 < probe.spans.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"cell\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}}}{comma}",
            s.name, s.cell, s.start_us, s.end_us
        );
    }
    out.push_str("], \"sinks\": [\n");
    for (i, s) in probe.sinks.iter().enumerate() {
        let comma = if i + 1 < probe.sinks.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "  {{\"name\": \"{}\", \"cell\": \"{}\", \"busy_s\": {}, \"calls\": {}, \"accesses\": {}}}{comma}",
            s.name, s.cell, s.tally.busy_s, s.tally.calls, s.tally.accesses
        );
    }
    out.push_str("]}\n");
    std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn run() -> Result<bool, String> {
    let args = parse_args(std::env::args().skip(1))?;
    // The benchmark pins what it runs: an inherited UMI_TRACE_DIR would
    // make the harness helpers replay instead of interpret, and the
    // scale and job count are fixed here, not by the caller's shell.
    for var in ["UMI_SCALE", "UMI_JOBS", "UMI_TRACE_DIR"] {
        std::env::remove_var(var);
    }
    let golden = Golden::load(Path::new("results/golden"))?;
    let w = args.workload;
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let trace_dir = w
        .replays()
        .then(|| TempDir(out_dir.join(format!("traces-{}", std::process::id()))));

    // Set-up, repeated; the last repetition's suite is the one measured.
    let mut reps: Vec<cells::SetupTimes> = Vec::new();
    let mut suite = None;
    while reps.len() < SETUP_REPS.0
        || (reps.len() < SETUP_REPS.1 && reps.iter().map(|r| r.total()).sum::<f64>() < SETUP_MIN_S)
    {
        let (s, times) = cells::setup(trace_dir.as_ref().map(|d| d.0.as_path()))?;
        reps.push(times);
        suite = Some(s);
    }
    let suite = suite.expect("at least one set-up repetition");
    let setup_s = median(&reps.iter().map(|r| r.total()).collect::<Vec<_>>());

    let n = suite.programs.len();
    let mut rng = Rng(args.seed);
    let mut samples: Vec<CellSamples> = (0..n).map(|_| CellSamples::default()).collect();
    let mut checks = Checks::default();
    let mut untraced = Probe::new(false);
    let mut traced = Probe::new(true);
    let mut sim = BTreeMap::new();
    let min_passes = if args.trace { 1 } else { MIN_PASSES };
    let mut passes = 0u32;
    let start = Instant::now();
    'passes: loop {
        let mut outs: Vec<Option<CellOut>> = (0..n).map(|_| None).collect();
        for i in rng.permutation(n) {
            if passes >= min_passes && start.elapsed().as_secs_f64() >= args.seconds {
                break 'passes;
            }
            let name = suite.specs[i].name;
            let out = cells::run(w, &mut untraced, &suite, i);
            checks.cell(&golden, w, name, &out);
            samples[i].untraced_s.push(out.wall_s);
            samples[i].insns = out.insns;
            if args.trace {
                traced.begin_cell(name);
                let (t, _) = traced.call("cell", |p| cells::run(w, p, &suite, i));
                checks.cell(&golden, w, name, &t);
                let attributed: f64 = traced
                    .layers
                    .iter()
                    .filter(|(k, _)| k.ends_with("_s"))
                    .map(|(_, v)| v)
                    .sum();
                traced.add("bench.unattributed_s", t.wall_s - attributed);
                samples[i].traced.push((t.wall_s, traced.layers.clone()));
            }
            outs[i] = Some(out);
        }
        let outs: Vec<CellOut> = outs
            .into_iter()
            .map(|o| o.expect("a full pass fills every cell"))
            .collect();
        let (lines, pass_sim) = summarize(w, &suite, &outs);
        checks.summary(&golden, &lines);
        if passes == 0 {
            sim = pass_sim;
        }
        passes += 1;
    }
    drop(trace_dir);

    let correct = checks.failed == 0;
    let wall_s: f64 = samples.iter().map(CellSamples::best_untraced).sum();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "perfbench {} seed {} ({} passes, {} cell runs, {} checks failed)",
        w.name(),
        args.seed,
        passes,
        checks.cells,
        checks.failed
    );
    if args.trace {
        let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
        let mut traced_wall = 0.0;
        for (secs, cell_layers) in samples.iter().filter_map(CellSamples::best_traced) {
            traced_wall += secs;
            for (k, v) in cell_layers {
                *layers.entry(k).or_insert(0.0) += v;
            }
        }
        let get = |l: &BTreeMap<&str, f64>, k: &str| l.get(k).copied().unwrap_or(0.0);
        layers.insert(
            "workloads.build_s",
            median(&reps.iter().map(|r| r.build_s).collect::<Vec<_>>()),
        );
        if w.replays() {
            let capture = median(&reps.iter().map(|r| r.capture_s).collect::<Vec<_>>());
            layers.insert("trace.capture_s", capture);
            let load = median(&reps.iter().map(|r| r.load_s).collect::<Vec<_>>());
            layers.insert("trace.load_s", load);
        }
        let derived = [
            (
                "vm.ns_per_insn",
                1e9 * ratio(get(&layers, "vm.self_s"), get(&layers, "vm.insns")),
            ),
            (
                "cache.ns_per_access",
                1e9 * ratio(get(&layers, "cache.self_s"), get(&layers, "cache.accesses")),
            ),
            (
                "hw.ns_per_access",
                1e9 * ratio(get(&layers, "hw.self_s"), get(&layers, "hw.accesses")),
            ),
            (
                "trace.bits_per_access",
                8.0 * ratio(get(&layers, "trace.bytes"), get(&layers, "trace.accesses")),
            ),
            (
                "trace.hit_ratio",
                ratio(checks.replayed as f64, checks.cells as f64),
            ),
            (
                "dbi.trace_residency",
                ratio(
                    get(&layers, "dbi.blocks_from_trace"),
                    get(&layers, "dbi.blocks_dispatched"),
                ),
            ),
            (
                "analyze.classified_frac",
                ratio(
                    get(&layers, "analyze.classified_sites"),
                    get(&layers, "analyze.sites"),
                ),
            ),
        ];
        for (k, v) in derived {
            layers.insert(k, v);
        }
        layers.insert("bench.traced_wall_s", traced_wall);
        layers.insert("bench.untraced_wall_s", wall_s);
        layers.insert("bench.trace_overhead", ratio(traced_wall, wall_s) - 1.0);
        let _ = writeln!(
            report,
            "per-layer split of one pass (traced; fastest repetition of each cell):"
        );
        let setup_time = |name: &str| {
            name == "workloads.build_s"
                || (w.replays() && (name == "trace.capture_s" || name == "trace.load_s"))
        };
        for (name, unit) in PER_LAYER {
            let v = get(&layers, name);
            let share = if setup_time(name) {
                "  (set-up)".to_string()
            } else if unit == "s" && !name.starts_with("bench.") {
                format!("  ({:.1}% of traced wall)", 100.0 * ratio(v, traced_wall))
            } else {
                String::new()
            };
            let _ = writeln!(report, "  {name:<28} {v:>16.6} {unit}{share}");
            metrics.push((name, v, unit));
        }
        let spans = out_dir.join(format!("spans-{}-seed{}.json", w.name(), args.seed));
        write_spans(&spans, w, args.seed, &traced)?;
        let _ = writeln!(report, "spans written to {}", spans.display());
    } else {
        let insns: u64 = samples.iter().map(|c| c.insns).sum();
        let cell_max = samples
            .iter()
            .map(CellSamples::best_untraced)
            .fold(0.0, f64::max);
        let minsn_per_s = ratio(insns as f64, wall_s) / 1e6;
        let mut values: BTreeMap<&str, f64> = sim;
        values.insert("wall_s", wall_s);
        values.insert("cell_max_frac", ratio(cell_max, wall_s));
        values.insert("setup_s", setup_s);
        values.insert("peak_rss_mb", peak_rss_mb()?);
        values.insert(
            "check_pass_frac",
            1.0 - ratio(checks.failed as f64, checks.attempted as f64),
        );
        let _ = writeln!(report, "end-to-end metrics:");
        for (name, unit, better) in END_TO_END {
            let v = values.get(name).copied().unwrap_or(0.0);
            let _ = writeln!(
                report,
                "  {name:<16} {v:>14.6} {unit:<8} ({better} is better)"
            );
            metrics.push((name, v, unit));
        }
        // Both follow from the gated metrics, so they are shown, not
        // reported: a rate that is a constant over `wall_s`, and the
        // slowest cell as an absolute time, which moves with the host's
        // speed where its share of the pass does not.
        let _ = writeln!(
            report,
            "  (also: {minsn_per_s:.3} simulated Minsn/s; slowest cell {cell_max:.6} s)"
        );
    }
    print!("{report}");
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.attempted, checks.failed
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(correct)
}

fn main() {
    let code = match run() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
