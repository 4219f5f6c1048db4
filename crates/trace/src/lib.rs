//! # umi-trace — compact execution traces, captured live and replayed
//!
//! The native block/access stream of every UMI workload is
//! deterministic, so it can be captured once in a compact binary
//! encoding and replayed into any consumer in place of interpretation.
//! The benchmark's replay workload and the replay-vs-live oracles use
//! this crate; the experiment harnesses always run live.
//!
//! * [`TraceWriter`] records a live run — either hooked into the
//!   execution loop one block at a time ([`TraceWriter::record_block`],
//!   what `DbiRuntime::attach_tracer` does), or fed as a plain
//!   [`umi_vm::AccessSink`] with explicit block boundaries.
//! * [`ExecTrace`] (also exported as [`TraceReader`]) is the immutable
//!   captured stream: `replay_into(&mut impl AccessSink)` drives any
//!   existing consumer — `FullSimulator`, `Machine`, the analyzer
//!   mini-sim, shadow sims via `Tee` — in the same `access_batch`
//!   chunks a live `Vm` would deliver.
//! * [`ReplayCursor`] steps a trace under the [`umi_vm::BlockSource`]
//!   contract, so the whole DBI + UMI profiling stack runs unchanged
//!   on replayed blocks (~the interpreter's share of the wall-clock
//!   removed).
//! * [`store`] saves and loads checksummed trace files in a directory,
//!   keyed by a content hash of the program ([`store::program_key`]).
//!   Corrupt, truncated, or version-skewed entries are detected and
//!   reported as a typed [`TraceError`].
//!
//! The encoding (see the `trace` module docs): a block-template
//! dictionary, zigzag+varint delta encoding of addresses against each
//! block's previous execution, and run-length encoding of
//! constant-stride re-executions. Feedback-dependent passes (prefetch
//! injection, optimized-program runs) must stay live — a trace is only
//! valid for the exact program it was captured from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod replay;
pub mod store;
#[allow(clippy::module_inception)]
mod trace;
mod writer;

pub use replay::ReplayCursor;
pub use trace::{
    DictEntry, ExecTrace, SlotTemplate, TraceError, TraceKey, TraceReader, TraceSummary,
    FORMAT_VERSION, MAGIC,
};
pub use writer::TraceWriter;
