//! # umi-bench — experiment harnesses for every table and figure
//!
//! One binary per experiment (see DESIGN.md §4 for the index):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1` | HW-counter sampling overhead vs sample size |
//! | `table2` | the qualitative tradeoff matrix |
//! | `table3` | profiling statistics (no sampling) |
//! | `table4` | miss-ratio correlations, P4 ± prefetch and K7 |
//! | `table5` | SPEC CPU2006 correlations |
//! | `table6` | delinquent-load prediction quality |
//! | `fig2` | runtime overhead (DBI / UMI / UMI+sampling) |
//! | `fig3` | running time, P4, HW prefetch off, ± SW prefetch |
//! | `prefetch_figs` | Figures 3–6: P4 and K7 running time ± SW prefetch; P4 SW / HW / SW+HW running time and L2 misses |
//! | `table_static` | static (umi-analyze) vs dynamic classification agreement |
//! | `table_absint` | must-cache verdicts audited against exact simulation |
//! | `table_staticplan` | composed miss-bound intervals audited + static-vs-dynamic plan A/B |
//! | `sensitivity` | §7.2 threshold & profile-length sweeps |
//! | `ablations` | design-choice ablations from DESIGN.md §5 |
//!
//! The static half has one soundness audit, [`staticplan_audit`]: it
//! composes each program's must-cache verdicts into miss-count intervals
//! and simulates it once, and `table_absint` (the verdict checks),
//! `table_staticplan` (the intervals) and `umi_lint` (both, per program
//! variant) all read that one audit.
//!
//! All binaries accept `UMI_SCALE=test` to run the shrunken workloads
//! (CI-sized); unset or `UMI_SCALE=bench` is the full scale, and any
//! other value is an error. `UMI_JOBS=<n>` bounds the experiment
//! engine's worker threads (default: all available cores); any job count
//! prints byte-identical output — see [`engine`]. A bad value of either
//! knob exits 2 with one line on stderr before any output.
//!
//! The harnesses print results, not timings: the repository's one
//! performance measurement is the benchmark in `perfbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corr;
pub mod engine;
pub mod staticplan_audit;
pub mod study;

use umi_core::{SamplingMode, UmiConfig};
use umi_workloads::{Scale, Suite};

/// The workload scale selected by `UMI_SCALE` (`test` or `bench`;
/// unset means `bench`).
///
/// Any other value aborts the process with a one-line error, as a bad
/// `UMI_JOBS` does: a typo must not silently run the full scale.
pub fn scale_from_env() -> Scale {
    match parse_scale(std::env::var("UMI_SCALE").ok().as_deref()) {
        Ok(scale) => scale,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// The `UMI_SCALE` parse rule, split out so it is testable without
/// mutating process environment: `None` means unset.
fn parse_scale(var: Option<&str>) -> Result<Scale, String> {
    let Some(v) = var else {
        return Ok(Scale::Bench);
    };
    [Scale::Test, Scale::Bench]
        .into_iter()
        .find(|s| s.name() == v)
        .ok_or_else(|| format!("error: UMI_SCALE must be \"test\" or \"bench\", got {v:?}"))
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

/// The sampled UMI configuration appropriate for a scale: the paper's
/// 10 ms period / threshold 64 assume minutes-long SPEC runs, so both are
/// shrunk proportionally to our workload sizes.
pub fn sampled_config(scale: Scale) -> UmiConfig {
    let mut c = UmiConfig::sampled();
    match scale {
        Scale::Bench => {
            c.sampling = SamplingMode::Periodic {
                period_insns: 10_000,
            };
            c.frequency_threshold = 48;
        }
        Scale::Test => {
            c.sampling = SamplingMode::Periodic {
                period_insns: 2_000,
            };
            c.frequency_threshold = 24;
        }
    }
    c
}

/// Human label for a suite group.
pub fn suite_label(suite: Suite) -> &'static str {
    match suite {
        Suite::Cfp2000 => "CFP2000",
        Suite::Cint2000 => "CINT2000",
        Suite::Olden => "Olden",
        Suite::Cfp2006 => "CFP2006",
        Suite::Cint2006 => "CINT2006",
    }
}

/// Geometric mean of positive values (how the paper-style "average
/// normalized running time" is aggregated).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_and_mean() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn scale_defaults_to_bench() {
        assert_eq!(parse_scale(None), Ok(Scale::Bench));
        assert_eq!(parse_scale(Some("bench")), Ok(Scale::Bench));
        assert_eq!(parse_scale(Some("test")), Ok(Scale::Test));
    }

    #[test]
    fn scale_rejects_unknown_values() {
        // Typos, case variants, padding and empty are errors, not
        // "the full scale".
        for bad in ["bogus", "Test", " test", "", "tests"] {
            let err = parse_scale(Some(bad)).unwrap_err();
            assert!(err.contains("UMI_SCALE"), "{err}");
            assert!(
                err.contains(&format!("{bad:?}")),
                "error must echo the value: {err}"
            );
        }
    }

    #[test]
    fn sampled_config_scales() {
        let b = sampled_config(Scale::Bench);
        let t = sampled_config(Scale::Test);
        assert!(t.frequency_threshold < b.frequency_threshold);
        assert!(b.validate().is_ok() && t.validate().is_ok());
    }
}
