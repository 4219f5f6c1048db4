//! Sparse matrix–vector kernel (`183.equake`, `450.soplex`-class).

use umi_ir::{Program, ProgramBuilder, Reg, Width};
use umi_testkit::Xoshiro256pp;

/// Parameters of the sparse mat-vec kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpmvParams {
    /// Matrix rows.
    pub rows: usize,
    /// Non-zeros per row.
    pub nnz: usize,
    /// Elements of the dense vector `x` (8 bytes each).
    pub x_elems: usize,
    /// Multiplication passes.
    pub passes: usize,
}

/// Builds `y = A·x` with CSR-style indirection: the column-index array
/// streams densely while the gathers into `x` scatter — the mixed
/// regular/irregular pattern of FEM codes like `183.equake`.
pub fn spmv(name: &str, p: SpmvParams) -> Program {
    assert!(p.rows > 0 && p.nnz > 0 && p.passes > 0, "degenerate spmv");
    assert!(
        p.x_elems.is_power_of_two(),
        "x_elems must be a power of two"
    );
    let mut pb = ProgramBuilder::new();
    pb.name(name);
    let f = pb.begin_func("main");

    let mut rng = Xoshiro256pp::from_name(name);
    let colidx: Vec<u64> = (0..p.rows * p.nnz)
        .map(|_| rng.below(p.x_elems as u64))
        .collect();
    let colidx_seg = pb.data_words(&colidx);
    let x = pb.bss(p.x_elems * 8);
    let y = pb.bss(p.rows * 8);

    let pass = pb.new_block();
    let row = pb.new_block();
    let nz = pb.new_block();
    let row_end = pb.new_block();
    let pass_end = pb.new_block();
    let done = pb.new_block();

    // R8 = pass, R9 = row, ECX = nz counter, R10 = flat colidx cursor.
    pb.block(f.entry()).movi(Reg::R8, 0).jmp(pass);
    pb.block(pass).movi(Reg::R9, 0).movi(Reg::R10, 0).jmp(row);
    pb.block(row).movi(Reg::ECX, 0).movi(Reg::EDX, 0).jmp(nz);
    pb.block(nz)
        .movi(Reg::ESI, colidx_seg as i64)
        .load(Reg::EAX, Reg::ESI + (Reg::R10, 8), Width::W8) // column index
        .movi(Reg::EDI, x as i64)
        .load(Reg::EBX, Reg::EDI + (Reg::EAX, 8), Width::W8) // gather x[col]
        .add(Reg::EDX, Reg::EBX)
        .addi(Reg::R10, 1)
        .addi(Reg::ECX, 1)
        .cmpi(Reg::ECX, p.nnz as i64)
        .br_lt(nz, row_end);
    pb.block(row_end)
        .movi(Reg::EDI, y as i64)
        .store(Reg::EDI + (Reg::R9, 8), Reg::EDX, Width::W8)
        .addi(Reg::R9, 1)
        .cmpi(Reg::R9, p.rows as i64)
        .br_lt(row, pass_end);
    pb.block(pass_end)
        .addi(Reg::R8, 1)
        .cmpi(Reg::R8, p.passes as i64)
        .br_lt(pass, done);
    pb.block(done).ret();
    pb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::{p4_l2_miss_ratio, run_to_end};

    #[test]
    fn reference_counts() {
        let p = spmv(
            "s",
            SpmvParams {
                rows: 32,
                nnz: 4,
                x_elems: 256,
                passes: 2,
            },
        );
        let stats = run_to_end(&p);
        assert_eq!(stats.loads, 2 * 32 * 4 * 2, "colidx + gather per nz");
        assert_eq!(stats.stores, 2 * 32);
    }

    #[test]
    fn large_vector_gathers_miss() {
        let p = spmv(
            "equake-like",
            SpmvParams {
                rows: 4096,
                nnz: 8,
                x_elems: 1 << 18, // 2 MB x
                passes: 2,
            },
        );
        let r = p4_l2_miss_ratio(&p);
        assert!(r > 0.05, "scattered gathers should miss: {r}");
    }

    #[test]
    fn small_vector_is_resident() {
        let p = spmv(
            "small",
            SpmvParams {
                rows: 4096,
                nnz: 8,
                x_elems: 1 << 11,
                passes: 8,
            },
        );
        let r = p4_l2_miss_ratio(&p);
        assert!(r < 0.1, "small x fits: {r}");
    }
}
