//! Table 6: quality of delinquent-load prediction at the 90% delinquency
//! target — `|P|`, `|C|`, miss coverages, recall and false positives,
//! with the paper's averages split at a 1% L2 miss ratio.

use umi_bench::engine::{jobs_from_env, run_cells};
use umi_bench::{mean, scale_from_env};
use umi_cache::FullSimulator;
use umi_core::{PredictionQuality, UmiConfig, UmiRuntime};
use umi_workloads::all32;

fn main() {
    let scale = scale_from_env();
    let jobs = jobs_from_env();
    let rows: Vec<(f64, PredictionQuality)> = run_cells(jobs, &all32(), |spec| {
        let program = spec.build(scale);

        // One pass: the full simulator rides the UMI run as its access
        // sink. The DBI forwards the unmodified demand stream, so the
        // ground truth it accumulates is bit-identical to a dedicated
        // native pass (the differential tests prove the identity).
        let mut full = FullSimulator::pentium4();
        let report = UmiRuntime::new(&program, UmiConfig::no_sampling()).run(&mut full, u64::MAX);
        let truth = full.delinquent_set(0.90);

        let q = PredictionQuality::compute(
            &report.predicted,
            &truth,
            full.per_pc(),
            program.static_loads(),
        );
        (full.l2_miss_ratio(), q)
    });

    println!("Table 6 — Quality of delinquent load prediction (x = 90%)");
    println!(
        "{:<14} {:>8} {:>5} {:>8} {:>8} {:>5} {:>6} {:>8} {:>8} {:>8}",
        "benchmark",
        "miss%",
        "|P|",
        "|P|/lds",
        "P cov",
        "|C|",
        "|P∩C|",
        "P∩C cov",
        "recall",
        "falsepos"
    );

    let mut high = Vec::new(); // miss ratio >= 1%
    let mut low = Vec::new();
    for (spec, (miss_ratio, q)) in all32().iter().zip(&rows) {
        println!(
            "{:<14} {:>7.2}% {:>5} {:>7.2}% {:>7.1}% {:>5} {:>6} {:>7.1}% {:>7.1}% {:>7.1}%",
            spec.name,
            100.0 * miss_ratio,
            q.p_size,
            100.0 * q.p_to_total_loads,
            100.0 * q.p_miss_coverage,
            q.c_size,
            q.intersection,
            100.0 * q.pc_miss_coverage,
            100.0 * q.recall,
            100.0 * q.false_positive,
        );
        if *miss_ratio >= 0.01 {
            high.push(q.clone());
        } else {
            low.push(q.clone());
        }
    }

    let avg = |qs: &[PredictionQuality], f: &dyn Fn(&PredictionQuality) -> f64| {
        mean(&qs.iter().map(f).collect::<Vec<_>>())
    };
    for (label, qs) in [("miss ratio < 1%", &low), ("miss ratio >= 1%", &high)] {
        if qs.is_empty() {
            continue;
        }
        println!(
            "average ({label}): recall {:.1}%  false-pos {:.1}%  P∩C coverage {:.1}%  ({} benchmarks)",
            100.0 * avg(qs, &|q| q.recall),
            100.0 * avg(qs, &|q| q.false_positive),
            100.0 * avg(qs, &|q| q.pc_miss_coverage),
            qs.len()
        );
    }
    let all: Vec<_> = low.iter().chain(&high).cloned().collect();
    println!(
        "average (all): recall {:.1}%  false-pos {:.1}%  P∩C coverage {:.1}%",
        100.0 * avg(&all, &|q| q.recall),
        100.0 * avg(&all, &|q| q.false_positive),
        100.0 * avg(&all, &|q| q.pc_miss_coverage),
    );
    println!("\n(paper: recall 87.80% for miss ratio >= 1%, 60.60% overall;");
    println!(" false positives 56.76% overall; coverage 86.15% / 66.02%)");
}
