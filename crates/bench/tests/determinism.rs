//! The engine's contract: job count changes wall-clock, never results.
//!
//! Each test runs a real harness measurement (at `Scale::Test`) through
//! the parallel engine at several job counts and against a hand-rolled
//! sequential loop, and requires identical values in identical order.
//! A representative subset of the suite keeps the debug-profile cost
//! down while still covering several suites and both planner outcomes
//! (plan found / no plan).

use umi_bench::corr::{corr_cell, CorrRow};
use umi_bench::engine::run_cells;
use umi_bench::sampled_config;
use umi_bench::study::{prefetch_cells, PrefetchRow};
use umi_hw::Platform;
use umi_workloads::{all32, Scale, WorkloadSpec};

fn some_workloads() -> Vec<WorkloadSpec> {
    all32().into_iter().step_by(4).collect()
}

#[test]
fn prefetch_rows_identical_across_job_counts() {
    let specs = some_workloads();
    let study = |jobs: usize| -> Vec<PrefetchRow> {
        prefetch_cells(
            &specs,
            Scale::Test,
            &Platform::pentium4(),
            &sampled_config(Scale::Test),
            true,
            jobs,
        )
    };
    let sequential = study(1);
    assert!(
        !sequential.is_empty(),
        "subset must contain prefetch opportunities"
    );
    assert!(sequential
        .iter()
        .all(|r| r.native_hw.is_some() && r.umi_sw_hw.is_some()));
    let parallel = study(4);
    assert_eq!(parallel, sequential, "rows differ at jobs=4");
}

#[test]
fn prefetch_rows_keep_workload_order() {
    let specs = some_workloads();
    let run = |jobs: usize| {
        prefetch_cells(
            &specs,
            Scale::Test,
            &Platform::k7(),
            &sampled_config(Scale::Test),
            false,
            jobs,
        )
    };
    let seq_rows = run(1);
    let par_rows = run(4);
    assert_eq!(par_rows, seq_rows);
    // Rows are the planned subset of `specs`, so suite order means the
    // row names appear in `specs` order, each exactly once.
    let seq: Vec<&str> = seq_rows.iter().map(|r| r.spec.name).collect();
    let par: Vec<&str> = par_rows.iter().map(|r| r.spec.name).collect();
    let in_suite_order: Vec<&str> = specs
        .iter()
        .map(|s| s.name)
        .filter(|name| seq.contains(name))
        .collect();
    assert!(
        !seq.is_empty(),
        "subset must contain prefetch opportunities"
    );
    assert_eq!(
        seq, in_suite_order,
        "sequential rows must follow suite order"
    );
    assert_eq!(par, in_suite_order, "parallel rows must follow suite order");
    // The K7 study skips the HW-prefetch variants entirely.
    assert!(seq_rows
        .iter()
        .all(|r| r.native_hw.is_none() && r.umi_sw_hw.is_none()));
}

#[test]
fn correlation_rows_identical_across_job_counts_and_vs_plain_loop() {
    let specs: Vec<WorkloadSpec> = all32().into_iter().step_by(8).collect();

    // The pre-engine harness shape: a plain sequential loop.
    let by_hand: Vec<CorrRow> = specs
        .iter()
        .map(|spec| corr_cell(spec, Scale::Test))
        .collect();

    // Pin the decoded-engine rows across UMI_JOBS ∈ {1, 2, all-cores}.
    let all_jobs = std::thread::available_parallelism().map_or(4, |n| n.get());
    for jobs in [1, 2, all_jobs] {
        let rows = run_cells(jobs, &specs, |spec| corr_cell(spec, Scale::Test));
        assert_eq!(rows, by_hand, "correlation rows differ at jobs={jobs}");
        let names: Vec<&str> = rows.iter().map(|r| r.spec.name).collect();
        let expected: Vec<&str> = specs.iter().map(|s| s.name).collect();
        assert_eq!(names, expected, "row order differs at jobs={jobs}");
    }
}
