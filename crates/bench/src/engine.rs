//! Deterministic parallel experiment engine (DESIGN.md §3).
//!
//! Every table/figure harness is a fan-out over independent cells —
//! typically one cell per workload, sometimes per (workload, setting)
//! pair — followed by a strictly ordered printing pass. The engine runs
//! the cells on a scoped thread pool ([`run_cells`]) and hands results
//! back in input order, so the printed output is byte-for-byte identical
//! at any job count: parallelism only reorders *when* cells compute,
//! never *what* they compute (each cell is a pure function of its input)
//! nor the order they are observed in.
//!
//! The worker count comes from `UMI_JOBS` ([`jobs_from_env`]); each
//! harness reads it before any work or output, so a bad value fails
//! fast. Timing the harnesses is the benchmark's job (`perfbench/`),
//! not the engine's.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker-thread count for [`run_cells`]: `UMI_JOBS` if set, otherwise
/// the host's available parallelism.
///
/// A set-but-invalid `UMI_JOBS` (zero, negative, non-numeric) aborts the
/// process with a one-line error. Earlier versions silently remapped such
/// values to one worker, which made typos look like perf regressions.
pub fn jobs_from_env() -> usize {
    match parse_jobs(std::env::var("UMI_JOBS").ok().as_deref()) {
        Ok(n) => n,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// The `UMI_JOBS` parse rule, split out so it is testable without
/// mutating process environment: `None` means unset.
fn parse_jobs(var: Option<&str>) -> Result<usize, String> {
    match var {
        None => Ok(std::thread::available_parallelism().map_or(1, |n| n.get())),
        Some(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("error: UMI_JOBS must be a positive integer, got {v:?}")),
    }
}

/// Runs `work` over `items` on up to `jobs` threads and returns the cell
/// values in input order.
///
/// Workers claim cell indices from a shared counter and deposit results
/// into per-index slots, so the output order is the input order
/// regardless of job count or scheduling. With `jobs <= 1` (or fewer
/// than two items) everything runs on the calling thread and no threads
/// are spawned.
///
/// A panic inside `work` propagates: the scope joins the worker, and the
/// panic is re-raised on the calling thread.
pub fn run_cells<I, T, F>(jobs: usize, items: &[I], work: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items.iter().map(work).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = work(&items[i]);
                *slots[i].lock().expect("cell slot poisoned") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("cell slot poisoned")
                .expect("every cell index was claimed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_cells(jobs: usize, n: u64) -> Vec<u64> {
        let items: Vec<u64> = (0..n).collect();
        run_cells(jobs, &items, |&i| i * i)
    }

    #[test]
    fn results_arrive_in_input_order_at_any_job_count() {
        let seq = square_cells(1, 17);
        assert_eq!(seq, (0..17).map(|i| i * i).collect::<Vec<u64>>());
        for jobs in [2, 4, 16, 64] {
            assert_eq!(
                square_cells(jobs, 17),
                seq,
                "values must not depend on jobs={jobs}"
            );
        }
    }

    #[test]
    fn empty_and_single_item_runs() {
        assert!(square_cells(8, 0).is_empty());
        assert_eq!(square_cells(8, 1), vec![0]);
    }

    #[test]
    fn jobs_env_parsing() {
        // Valid overrides (whitespace tolerated).
        assert_eq!(parse_jobs(Some("3")), Ok(3));
        assert_eq!(parse_jobs(Some(" 8 ")), Ok(8));
        // Unset falls back to host parallelism, never below one.
        assert!(parse_jobs(None).unwrap() >= 1);
        // Zero, negatives, and garbage are hard errors, not "1 worker".
        for bad in ["0", "-2", "not-a-number", "", "1.5"] {
            let err = parse_jobs(Some(bad)).unwrap_err();
            assert!(err.contains("UMI_JOBS"), "{err}");
            assert!(err.contains(bad), "error must echo the value: {err}");
        }
    }
}
