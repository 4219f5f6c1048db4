//! End-to-end: capture a live `Vm` run, replay it through a
//! [`ReplayCursor`], and require the identical block-exit stream,
//! access batches, and statistics — including across calls, returns,
//! conditional branches, and indirect jumps.

use std::sync::Arc;
use umi_ir::{Program, ProgramBuilder, Reg, Width};
use umi_trace::{store, ExecTrace, ReplayCursor, TraceWriter};
use umi_vm::{BlockExit, BlockSource, CollectSink, Vm};

/// A program exercising every terminator kind: an outer loop calling a
/// helper (Call/Ret), a conditional branch, and an indirect jump.
fn control_flow_zoo(iters: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    pb.name("zoo");

    let helper = pb.begin_func("helper");
    pb.block(helper.entry())
        .load(Reg::EAX, Reg::ESI + (Reg::ECX, 8), Width::W8)
        .ret();

    let f = pb.begin_func("main");
    let loop_head = pb.new_block();
    let even = pb.new_block();
    let odd = pb.new_block();
    let dispatch = pb.new_block();
    let latch = pb.new_block();
    let done = pb.new_block();
    pb.block(f.entry())
        .movi(Reg::ECX, 0)
        .alloc(Reg::ESI, 8 * 1024)
        .jmp(loop_head);
    pb.block(loop_head).movi(Reg::EDX, 2).call(helper, dispatch);
    pb.block(dispatch).jmp_ind(Reg::ECX, vec![even, odd]);
    pb.block(even)
        .store(Reg::ESI + (Reg::ECX, 8), Reg::ECX, Width::W8)
        .jmp(latch);
    pb.block(odd)
        .load(Reg::EBX, Reg::ESI + 0, Width::W8)
        .jmp(latch);
    pb.block(latch)
        .addi(Reg::ECX, 1)
        .cmpi(Reg::ECX, iters)
        .br_lt(loop_head, done);
    pb.block(done).ret();
    pb.finish()
}

/// A live run's block exits, access stream and statistics, plus the
/// trace captured from it.
struct Capture {
    exits: Vec<BlockExit>,
    accesses: Vec<umi_ir::MemAccess>,
    stats: umi_vm::VmStats,
    trace: Arc<ExecTrace>,
}

fn capture(program: &Program) -> Capture {
    let mut vm = Vm::new(program);
    let mut writer = TraceWriter::new();
    let mut sink = CollectSink::default();
    let mut exits = Vec::new();
    while !vm.is_finished() {
        let exit = BlockSource::step_block(&mut vm, &mut sink);
        writer.record_block(exit.block, BlockSource::block_accesses(&vm));
        exits.push(exit);
    }
    let stats = BlockSource::stats(&vm);
    let trace = Arc::new(writer.finish(store::program_key(program), stats));
    Capture {
        exits,
        accesses: sink.accesses,
        stats,
        trace,
    }
}

#[test]
fn cursor_reproduces_the_live_run_exactly() {
    let program = control_flow_zoo(500);
    let live = capture(&program);

    let mut cursor = ReplayCursor::new(&program, live.trace).expect("trace fits program");
    let mut sink = CollectSink::default();
    let mut exits = Vec::new();
    while !cursor.is_finished() {
        let exit = cursor.step_block(&mut sink);
        // The per-step access view matches the live VM contract too.
        let n = cursor.block_accesses().len();
        assert_eq!(
            &sink.accesses[sink.accesses.len() - n..],
            cursor.block_accesses()
        );
        exits.push(exit);
    }

    assert_eq!(exits.len(), live.exits.len(), "block count differs");
    for (i, (a, b)) in live.exits.iter().zip(&exits).enumerate() {
        assert_eq!(a.block, b.block, "block id at step {i}");
        assert_eq!(a.next, b.next, "successor at step {i}");
        assert_eq!(a.kind, b.kind, "exit kind at step {i}");
    }
    assert_eq!(live.accesses, sink.accesses, "access stream differs");
    assert_eq!(live.stats, cursor.stats(), "statistics differ");
}

#[test]
fn cursor_rejects_a_foreign_trace() {
    let p1 = control_flow_zoo(100);
    let p2 = {
        let mut pb = ProgramBuilder::new();
        pb.name("other");
        let f = pb.begin_func("main");
        pb.block(f.entry())
            .alloc(Reg::ESI, 64)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8)
            .load(Reg::EBX, Reg::ESI + 8, Width::W8)
            .ret();
        pb.finish()
    };
    let trace = capture(&p1).trace;
    // Replaying p1's trace against p2 must be detected, not misreplayed.
    assert!(ReplayCursor::new(&p2, trace).is_err());
}
