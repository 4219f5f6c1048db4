//! # umi-workloads — the synthetic benchmark suite
//!
//! The paper evaluates UMI on 32 benchmarks — the full SPEC CPU2000 suite
//! (14 CFP + 12 CINT), five Olden codes and `ft` from Ptrdist — plus a
//! 15-program SPEC CPU2006 subset (Table 5). The original binaries and
//! reference inputs are not reproducible here, so each benchmark is
//! replaced by a *synthetic workload in the virtual ISA* whose memory
//! behaviour mirrors the original's published character:
//!
//! * loop-intensive floating-point codes → array streams and stencils;
//! * `181.mcf`, Olden → pointer chasing over randomized linked structures;
//! * `176.gcc`, `186.crafty`, `252.eon` → control-intensive state machines
//!   with small, cache-resident data (very low miss ratios, many indirect
//!   branches, poor trace-cache residency);
//! * `164.gzip` → a byte-by-byte block copy whose single hot load causes
//!   almost all misses;
//! * `ft` → wide-stride streaming over a graph too large for L2 (the
//!   paper's highest miss ratio, 49.63%).
//!
//! Every workload is deterministic: tables are generated with a seeded
//! RNG, and all control flow is data-driven from those tables.
//!
//! # Example
//!
//! ```
//! use umi_workloads::{build, Scale};
//! use umi_vm::{NullSink, Vm};
//!
//! let program = build("181.mcf", Scale::Test).expect("known workload");
//! let mut vm = Vm::new(&program);
//! let result = vm.run(&mut NullSink, u64::MAX);
//! assert!(result.finished);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decorate;
pub mod kernels;
mod suite;

pub use decorate::add_abi_noise;
pub use suite::{all32, build, cfp2000, cint2000, olden, spec2006, Scale, Suite, WorkloadSpec};
