//! The named benchmark suites (paper §6, §6.3).

use crate::kernels::{
    chase, compute, control, copy, hash, phases, spmv, stencil, stream, tree, ChaseParams,
    ComputeParams, ControlParams, CopyParams, HashParams, PhasesParams, SpmvParams, StencilParams,
    StreamParams, TreeParams,
};
use umi_ir::Program;

/// Benchmark group, mirroring the paper's correlation groups.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU2000 floating point (loop-intensive).
    Cfp2000,
    /// SPEC CPU2000 integer (control-intensive).
    Cint2000,
    /// Olden + Ptrdist `ft` ("which includes ft for convenience").
    Olden,
    /// SPEC CPU2006 floating point subset (Table 5).
    Cfp2006,
    /// SPEC CPU2006 integer subset (Table 5).
    Cint2006,
}

/// Workload size: `Bench` is the experiment scale; `Test` shrinks the
/// iteration counts (not the footprints, which set the miss character) so
/// test suites stay fast.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Reduced iteration counts for unit/integration tests.
    Test,
    /// Full experiment scale (the default).
    #[default]
    Bench,
}

impl Scale {
    /// The scale's `UMI_SCALE` spelling, also written into every results
    /// file: `"test"` or `"bench"`.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Bench => "bench",
        }
    }

    /// Scales an iteration-type quantity.
    fn n(self, base: usize) -> usize {
        match self {
            Scale::Bench => base,
            Scale::Test => (base / 8).max(1),
        }
    }

    /// Scales a pass count, keeping at least two so that data reuse —
    /// which several of UMI's accounting mechanisms depend on — exists at
    /// every scale.
    fn passes(self, base: usize) -> usize {
        self.n(base).max(2)
    }

    /// Scales a reuse-bearing footprint — pointer-structure node counts
    /// and copy lengths — by 4 at test scale, so the shortened runs still
    /// revisit their data while staying beyond the L2 capacity.
    fn footprint(self, base: usize) -> usize {
        match self {
            Scale::Bench => base,
            Scale::Test => (base / 4).max(64),
        }
    }
}

/// A named benchmark: its suite plus a builder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Benchmark name, e.g. `"181.mcf"`.
    pub name: &'static str,
    /// Group it belongs to.
    pub suite: Suite,
}

impl WorkloadSpec {
    /// Builds the workload program at the given scale.
    ///
    /// # Panics
    ///
    /// Panics if the spec was constructed with an unknown name (cannot
    /// happen through the suite constructors).
    pub fn build(&self, scale: Scale) -> Program {
        build(self.name, scale).expect("spec names are always known")
    }
}

/// Builds a workload by name, or `None` for an unknown name.
#[allow(clippy::too_many_lines)]
pub fn build(name: &str, s: Scale) -> Option<Program> {
    let p = match name {
        // === SPEC CFP2000 ===
        "168.wupwise" => stream(
            name,
            StreamParams {
                elems: 96 * 1024,
                passes: s.passes(4),
                stride: 1,
                stores: true,
                compute_nops: 2,
            },
        ),
        "171.swim" => stencil(
            name,
            StencilParams {
                width: 640,
                height: 400,
                sweeps: s.passes(8),
            },
        ),
        "172.mgrid" => stencil(
            name,
            StencilParams {
                width: 448,
                height: 448,
                sweeps: s.passes(8),
            },
        ),
        "173.applu" => stencil(
            name,
            StencilParams {
                width: 512,
                height: 288,
                sweeps: s.passes(8),
            },
        ),
        "177.mesa" => compute(
            name,
            ComputeParams {
                iters: s.n(400_000),
                nops: 6,
                slots: 4096,
            },
        ),
        "178.galgel" => stream(
            name,
            StreamParams {
                elems: 64 * 1024,
                passes: s.passes(6),
                stride: 1,
                stores: true,
                compute_nops: 1,
            },
        ),
        "179.art" => stream(
            name,
            StreamParams {
                elems: 512 * 1024,
                passes: s.passes(2),
                stride: 1,
                stores: false,
                compute_nops: 0,
            },
        ),
        "183.equake" => spmv(
            name,
            SpmvParams {
                rows: 8 * 1024,
                nnz: 8,
                x_elems: 1 << 18,
                passes: s.passes(2),
            },
        ),
        "187.facerec" => stream(
            name,
            StreamParams {
                elems: 48 * 1024,
                passes: s.passes(6),
                stride: 1,
                stores: false,
                compute_nops: 3,
            },
        ),
        "188.ammp" => chase(
            name,
            ChaseParams {
                nodes: s.footprint(16 * 1024),
                node_bytes: 64,
                steps: s.n(300_000),
                shuffled: true,
                payload_loads: 1,
            },
        ),
        "189.lucas" => stream(
            name,
            StreamParams {
                elems: 256 * 1024,
                passes: s.passes(2),
                stride: 2,
                stores: false,
                compute_nops: 1,
            },
        ),
        "191.fma3d" => stencil(
            name,
            StencilParams {
                width: 384,
                height: 384,
                sweeps: s.passes(8),
            },
        ),
        "200.sixtrack" => compute(
            name,
            ComputeParams {
                iters: s.n(400_000),
                nops: 4,
                slots: 8192,
            },
        ),
        "301.apsi" => stencil(
            name,
            StencilParams {
                width: 512,
                height: 320,
                sweeps: s.passes(8),
            },
        ),

        // === SPEC CINT2000 ===
        "164.gzip" => copy(
            name,
            CopyParams {
                bytes: s.footprint(3 << 20),
                passes: s.passes(2),
                compute_nops: 1,
            },
        ),
        "175.vpr" => tree(
            name,
            TreeParams {
                nodes: 128 * 1024,
                descents: s.n(40_000),
                sum_passes: s.n(1),
            },
        ),
        "176.gcc" => control(
            name,
            ControlParams {
                hot_states: 16,
                cold_states: 12288,
                cold_per_16: 12,
                steps: s.n(400_000),
                table_slots: 512,
                work_nops: 12,
            },
        ),
        "181.mcf" => chase(
            name,
            ChaseParams {
                nodes: s.footprint(64 * 1024),
                node_bytes: 64,
                steps: s.n(400_000),
                shuffled: true,
                payload_loads: 1,
            },
        ),
        "186.crafty" => control(
            name,
            ControlParams {
                hot_states: 24,
                cold_states: 0,
                cold_per_16: 0,
                steps: s.n(400_000),
                table_slots: 512,
                work_nops: 18,
            },
        ),
        "197.parser" => phases(
            name,
            PhasesParams {
                sentences: s.n(120_000),
                variants: 16,
                slots: 2048,
                max_trip: 5,
            },
        ),
        "252.eon" => compute(
            name,
            ComputeParams {
                iters: s.n(400_000),
                nops: 8,
                slots: 4096,
            },
        ),
        "253.perlbmk" => hash(
            name,
            HashParams {
                slots: 8 * 1024,
                ops: s.n(400_000),
                stores: true,
                compute_nops: 2,
            },
        ),
        "254.gap" => hash(
            name,
            HashParams {
                slots: 32 * 1024,
                ops: s.n(400_000),
                stores: false,
                compute_nops: 1,
            },
        ),
        "255.vortex" => hash(
            name,
            HashParams {
                slots: 16 * 1024,
                ops: s.n(300_000),
                stores: true,
                compute_nops: 2,
            },
        ),
        "256.bzip2" => copy(
            name,
            CopyParams {
                bytes: s.footprint(2 << 20),
                passes: s.passes(2),
                compute_nops: 0,
            },
        ),
        "300.twolf" => hash(
            name,
            HashParams {
                slots: 64 * 1024,
                ops: s.n(400_000),
                stores: true,
                compute_nops: 1,
            },
        ),

        // === Olden + Ptrdist ===
        "em3d" => chase(
            name,
            ChaseParams {
                nodes: s.footprint(32 * 1024),
                node_bytes: 64,
                steps: s.n(300_000),
                shuffled: true,
                payload_loads: 2,
            },
        ),
        "health" => chase(
            name,
            ChaseParams {
                nodes: s.footprint(24 * 1024),
                node_bytes: 64,
                steps: s.n(250_000),
                shuffled: true,
                payload_loads: 1,
            },
        ),
        "mst" => hash(
            name,
            HashParams {
                slots: 128 * 1024,
                ops: s.n(300_000),
                stores: false,
                compute_nops: 1,
            },
        ),
        "treeadd" => tree(
            name,
            TreeParams {
                nodes: 64 * 1024,
                descents: 0,
                sum_passes: s.passes(8),
            },
        ),
        "tsp" => tree(
            name,
            TreeParams {
                nodes: 48 * 1024,
                descents: s.n(60_000),
                sum_passes: s.n(1),
            },
        ),
        "ft" => stream(
            name,
            StreamParams {
                elems: 768 * 1024,
                passes: s.passes(2),
                stride: 8,
                stores: false,
                compute_nops: 0,
            },
        ),

        // === SPEC CFP2006 subset (Table 5) ===
        "433.milc" => stream(
            name,
            StreamParams {
                elems: 384 * 1024,
                passes: s.passes(2),
                stride: 1,
                stores: true,
                compute_nops: 0,
            },
        ),
        "435.gromacs" => compute(
            name,
            ComputeParams {
                iters: s.n(400_000),
                nops: 5,
                slots: 8192,
            },
        ),
        "444.namd" => compute(
            name,
            ComputeParams {
                iters: s.n(400_000),
                nops: 4,
                slots: 16384,
            },
        ),
        "450.soplex" => spmv(
            name,
            SpmvParams {
                rows: 8 * 1024,
                nnz: 8,
                x_elems: 1 << 19,
                passes: s.passes(2),
            },
        ),
        "453.povray" => compute(
            name,
            ComputeParams {
                iters: s.n(350_000),
                nops: 7,
                slots: 4096,
            },
        ),
        "470.lbm" => stream(
            name,
            StreamParams {
                elems: 640 * 1024,
                passes: s.passes(2),
                stride: 1,
                stores: true,
                compute_nops: 0,
            },
        ),
        "482.sphinx3" => hash(
            name,
            HashParams {
                slots: 256 * 1024,
                ops: s.n(350_000),
                stores: false,
                compute_nops: 1,
            },
        ),

        // === SPEC CINT2006 subset (Table 5) ===
        "445.gobmk" => control(
            name,
            ControlParams {
                hot_states: 40,
                cold_states: 1024,
                cold_per_16: 4,
                steps: s.n(350_000),
                table_slots: 512,
                work_nops: 14,
            },
        ),
        "456.hmmer" => stream(
            name,
            StreamParams {
                elems: 32 * 1024,
                passes: s.passes(10),
                stride: 1,
                stores: true,
                compute_nops: 1,
            },
        ),
        "458.sjeng" => control(
            name,
            ControlParams {
                hot_states: 32,
                cold_states: 256,
                cold_per_16: 2,
                steps: s.n(350_000),
                table_slots: 512,
                work_nops: 16,
            },
        ),
        "462.libquantum" => stream(
            name,
            StreamParams {
                elems: 512 * 1024,
                passes: s.passes(2),
                stride: 1,
                stores: true,
                compute_nops: 0,
            },
        ),
        "464.h264ref" => copy(
            name,
            CopyParams {
                bytes: s.footprint(2500 << 10),
                passes: s.passes(2),
                compute_nops: 1,
            },
        ),
        "471.omnetpp" => chase(
            name,
            ChaseParams {
                nodes: s.footprint(48 * 1024),
                node_bytes: 64,
                steps: s.n(300_000),
                shuffled: true,
                payload_loads: 1,
            },
        ),
        "473.astar" => tree(
            name,
            TreeParams {
                nodes: 96 * 1024,
                descents: s.n(50_000),
                sum_passes: 0,
            },
        ),
        "483.xalancbmk" => phases(
            name,
            PhasesParams {
                sentences: s.n(100_000),
                variants: 12,
                slots: 4096,
                max_trip: 6,
            },
        ),

        _ => return None,
    };
    // Every workload carries x86-like stack/static reference noise so the
    // instrumentor's operation filter has realistic work to do (§4.1).
    let mut p = p;
    crate::decorate::add_abi_noise(&mut p, name);
    Some(p)
}

fn specs(names: &'static [&'static str], suite: Suite) -> Vec<WorkloadSpec> {
    names
        .iter()
        .map(|name| WorkloadSpec { name, suite })
        .collect()
}

/// The 14 SPEC CFP2000 workloads.
pub fn cfp2000() -> Vec<WorkloadSpec> {
    specs(
        &[
            "168.wupwise",
            "171.swim",
            "172.mgrid",
            "173.applu",
            "177.mesa",
            "178.galgel",
            "179.art",
            "183.equake",
            "187.facerec",
            "188.ammp",
            "189.lucas",
            "191.fma3d",
            "200.sixtrack",
            "301.apsi",
        ],
        Suite::Cfp2000,
    )
}

/// The 12 SPEC CINT2000 workloads.
pub fn cint2000() -> Vec<WorkloadSpec> {
    specs(
        &[
            "164.gzip",
            "175.vpr",
            "176.gcc",
            "181.mcf",
            "186.crafty",
            "197.parser",
            "252.eon",
            "253.perlbmk",
            "254.gap",
            "255.vortex",
            "256.bzip2",
            "300.twolf",
        ],
        Suite::Cint2000,
    )
}

/// The Olden workloads plus Ptrdist `ft`.
pub fn olden() -> Vec<WorkloadSpec> {
    specs(
        &["em3d", "health", "mst", "treeadd", "tsp", "ft"],
        Suite::Olden,
    )
}

/// All 32 workloads of the main evaluation (CFP2000 + CINT2000 + Olden).
pub fn all32() -> Vec<WorkloadSpec> {
    let mut v = cfp2000();
    v.extend(cint2000());
    v.extend(olden());
    v
}

/// The 15 SPEC CPU2006 workloads of Table 5.
pub fn spec2006() -> Vec<WorkloadSpec> {
    let mut v = specs(
        &[
            "433.milc",
            "435.gromacs",
            "444.namd",
            "450.soplex",
            "453.povray",
            "470.lbm",
            "482.sphinx3",
        ],
        Suite::Cfp2006,
    );
    v.extend(specs(
        &[
            "445.gobmk",
            "456.hmmer",
            "458.sjeng",
            "462.libquantum",
            "464.h264ref",
            "471.omnetpp",
            "473.astar",
            "483.xalancbmk",
        ],
        Suite::Cint2006,
    ));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use umi_vm::{NullSink, Vm};

    #[test]
    fn suite_sizes_match_the_paper() {
        assert_eq!(cfp2000().len(), 14);
        assert_eq!(cint2000().len(), 12);
        assert_eq!(olden().len(), 6);
        assert_eq!(all32().len(), 32);
        assert_eq!(spec2006().len(), 15);
    }

    #[test]
    fn all_names_are_unique_and_buildable() {
        let mut names = std::collections::HashSet::new();
        for spec in all32().into_iter().chain(spec2006()) {
            assert!(names.insert(spec.name), "duplicate {}", spec.name);
            assert!(
                build(spec.name, Scale::Test).is_some(),
                "{} unknown",
                spec.name
            );
        }
        assert_eq!(names.len(), 47);
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(build("999.nonesuch", Scale::Test).is_none());
    }

    #[test]
    fn every_workload_terminates_at_test_scale() {
        for spec in all32().into_iter().chain(spec2006()) {
            let p = spec.build(Scale::Test);
            assert_eq!(p.validate(), Ok(()), "{}", spec.name);
            let mut vm = Vm::new(&p);
            let r = vm.run(&mut NullSink, 100_000_000);
            assert!(r.finished, "{} did not finish", spec.name);
            assert!(r.stats.loads > 0, "{} performs no loads", spec.name);
        }
    }

    #[test]
    fn bench_scale_is_larger_than_test_scale() {
        let t = build("181.mcf", Scale::Test).map(|p| {
            let mut vm = Vm::new(&p);
            vm.run(&mut NullSink, u64::MAX).stats.insns
        });
        let b = build("181.mcf", Scale::Bench).map(|p| {
            let mut vm = Vm::new(&p);
            vm.run(&mut NullSink, u64::MAX).stats.insns
        });
        assert!(b.unwrap() >= t.unwrap() * 2);
    }
}
