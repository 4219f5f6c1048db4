//! The four workloads, one cell per suite program, each composed from
//! the crates' public API exactly as the golden harness it is checked
//! against composes it:
//!
//! * `online-live`: Table 4's and Table 6's measurements in one live
//!   UMI no-sampling pass (K7 shadow mini-sim), teed into a P4
//!   prefetch-on `Machine`, a P4 per-PC `FullSimulator` and a K7
//!   `FullSimulator`.
//! * `online-replay`: the same pass, its native stream replayed from the
//!   trace set-up stored on disk and loaded back.
//! * `prefetch-feedback`: the §8 study cell (sampled config, HW variants
//!   on): introspection with in-process capture, plan, rewrite, pass 2
//!   live on the rewritten program, and the captured stream replayed
//!   into the prefetch-on machine.
//! * `static-audit`: the `table_staticplan` cell: verify, compose, audit
//!   every interval against an L1-audited `FullSimulator`, and the
//!   static-vs-dynamic plan A/B through native runs.
//!
//! The benchmark composes the cells itself, rather than calling the
//! harness cell functions, so that a traced run can wrap each model's
//! sink and time each public call from outside; the golden check proves
//! the composition equal to the harness's.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use umi_analyze::{absint_program, compose_program, trip_analysis, verify, Verdict};
use umi_bench::sampled_config;
use umi_bench::staticplan_audit::{BoundCheck, StaticPlanAudit};
use umi_cache::{CacheConfig, FullSimulator};
use umi_core::{PredictionQuality, UmiConfig, UmiReport, UmiRuntime};
use umi_dbi::{CostModel, DbiRuntime};
use umi_hw::{Machine, Platform, PrefetchSetting};
use umi_ir::{DecodedCache, Program};
use umi_prefetch::harness::RunOutcome;
use umi_prefetch::{inject_prefetches, static_prefetch_plan, PrefetchPlan};
use umi_trace::{store, ExecTrace, ReplayCursor, TraceWriter};
use umi_vm::{AccessSink, BlockSource, NullSink, Tee, Vm, VmStats};
use umi_workloads::{all32, Scale, WorkloadSpec};

use crate::golden::Section;
use crate::probe::{Layer, Probe, Timed};

/// The scale the goldens are recorded at.
pub const SCALE: Scale = Scale::Test;

/// Lookahead of the dynamic prefetch plans, as in the §8 study and
/// `table_staticplan`.
const DISTANCE_REFS: i64 = 32;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Live introspection feeding Tables 4 and 6.
    OnlineLive,
    /// The same cells with the native stream replayed from disk.
    OnlineReplay,
    /// The §8 prefetch study: the closed feedback loop.
    PrefetchFeedback,
    /// The composed static bounds audit and plan A/B.
    StaticAudit,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::OnlineLive,
        Workload::OnlineReplay,
        Workload::PrefetchFeedback,
        Workload::StaticAudit,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OnlineLive => "online-live",
            Workload::OnlineReplay => "online-replay",
            Workload::PrefetchFeedback => "prefetch-feedback",
            Workload::StaticAudit => "static-audit",
        }
    }

    /// Whether the workload's cells must take their stream from the
    /// trace cache (the hit ratio the run asserts).
    pub fn replays(self) -> bool {
        self == Workload::OnlineReplay
    }
}

/// The programs of one run, built once in set-up.
pub struct Suite {
    /// The 32 workload specs, in suite order.
    pub specs: Vec<WorkloadSpec>,
    /// Their programs at [`SCALE`].
    pub programs: Vec<Program>,
    /// `online-replay`'s traces, loaded back from disk (empty elsewhere).
    pub traces: Vec<Arc<ExecTrace>>,
}

/// Seconds of one set-up repetition, by part.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Building the 32 programs.
    pub build_s: f64,
    /// Lowering them into decoded caches.
    pub decode_s: f64,
    /// Capturing and storing their traces (`online-replay` only).
    pub capture_s: f64,
    /// Loading and validating the stored traces (`online-replay` only).
    pub load_s: f64,
}

impl SetupTimes {
    /// The whole repetition.
    pub fn total(&self) -> f64 {
        self.build_s + self.decode_s + self.capture_s + self.load_s
    }
}

/// One set-up repetition: build and lower every program and, when
/// `trace_dir` is given, capture each program's native stream and store
/// it there, as a first harness run with `UMI_TRACE_DIR` would, then load
/// and validate every stored trace, as a second such run would.
pub fn setup(trace_dir: Option<&Path>) -> Result<(Suite, SetupTimes), String> {
    let specs = all32();
    let t0 = Instant::now();
    let programs: Vec<Program> = specs.iter().map(|s| s.build(SCALE)).collect();
    let build_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    for p in &programs {
        std::hint::black_box(DecodedCache::lower(p));
    }
    let decode_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    if let Some(dir) = trace_dir {
        for p in &programs {
            let mut dbi = DbiRuntime::new(p, CostModel::default());
            dbi.attach_tracer(TraceWriter::new());
            let stats = dbi.run(&mut NullSink, u64::MAX);
            let writer = dbi.take_tracer().expect("tracer attached above");
            let trace = writer.finish(store::program_key(p), stats);
            store::store_to_dir(dir, &trace)
                .map_err(|e| format!("cannot store the trace of {}: {e}", p.name))?;
        }
    }
    let capture_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mut traces = Vec::new();
    if let Some(dir) = trace_dir {
        for p in &programs {
            let trace = store::load_from_dir(dir, store::program_key(p))
                .map_err(|e| format!("stored trace of {} unusable: {e}", p.name))?
                .ok_or_else(|| format!("no stored trace for {}", p.name))?;
            traces.push(Arc::new(trace));
        }
    }
    let load_s = t0.elapsed().as_secs_f64();

    let suite = Suite {
        specs,
        programs,
        traces,
    };
    let times = SetupTimes {
        build_s,
        decode_s,
        capture_s,
        load_s,
    };
    Ok((suite, times))
}

/// What one cell produced.
pub struct CellOut {
    /// Rows to check against the goldens; `None` asserts no row.
    pub rows: Vec<(Section, Option<String>)>,
    /// Simulated instructions retired by the cell's runs.
    pub insns: u64,
    /// Whether the cell's stream came from the trace cache.
    pub replayed: bool,
    /// Seconds the composition took (without the traced run's ladder).
    pub wall_s: f64,
    /// (native + DBI + UMI cycles) / native cycles of the cell's
    /// introspection pass.
    pub overhead_x: f64,
    /// Prediction quality of that pass against full simulation.
    pub quality: PredictionQuality,
    /// Workload-specific results the summary lines need.
    pub extra: Extra,
}

/// Workload-specific cell results.
pub enum Extra {
    /// The online workloads need nothing beyond [`CellOut::quality`].
    Online,
    /// Fig. 3's two normalized times, when the planner found a plan.
    Prefetch(Option<(f64, f64)>),
    /// `table_staticplan`'s audit counts and A/B results.
    Static {
        /// Composed groups audited.
        groups: usize,
        /// Groups with finite upper bounds.
        bounded: usize,
        /// Intervals violated (groups + aggregate).
        violations: usize,
        /// Jaccard agreement (%) of the static and dynamic hot sets.
        agreement: f64,
        /// Static and dynamic normalized cycles, when either planned.
        norms: Option<(f64, f64)>,
    },
}

/// Runs cell `i` of `workload`.
pub fn run(workload: Workload, p: &mut Probe, suite: &Suite, i: usize) -> CellOut {
    match workload {
        Workload::OnlineLive => online(p, suite, i, false),
        Workload::OnlineReplay => online(p, suite, i, true),
        Workload::PrefetchFeedback => prefetch(p, suite, i),
        Workload::StaticAudit => static_audit(p, suite, i),
    }
}

fn k7_shadow() -> UmiConfig {
    let mut c = UmiConfig::no_sampling().sim_cache(CacheConfig::k7_l2());
    c.sim_l1_filter = CacheConfig::k7_l1d();
    c
}

/// Runs a UMI session over `dbi` into `sink`, timing the constructor
/// (charged to `umi-core`) and the run; returns the runtime, its
/// report and the shadow mini-simulators' miss ratios.
fn introspect<'p, X: BlockSource<'p>, S: AccessSink>(
    p: &mut Probe,
    dbi: DbiRuntime<'p, X>,
    config: &UmiConfig,
    shadows: &[UmiConfig],
    sink: &mut S,
) -> (UmiRuntime<'p, X>, UmiReport, Vec<f64>) {
    let (mut umi, t) = p.call("UmiRuntime::with_dbi", |_| {
        UmiRuntime::with_dbi(dbi, config.clone())
    });
    p.add("core.self_s", t);
    let idxs: Vec<usize> = shadows.iter().map(|c| umi.add_shadow_sim(c)).collect();
    let (report, _) = p.call("UmiRuntime::run", |_| umi.run(sink, u64::MAX));
    assert!(
        umi.finished(),
        "workload {} did not finish",
        report.program_name
    );
    let ratios = idxs
        .iter()
        .map(|&k| umi.shadow_sims()[k].miss_ratio())
        .collect();
    (umi, report, ratios)
}

/// `DbiRuntime::new`, its lowering charged to `umi-ir`.
fn live_dbi<'p>(p: &mut Probe, program: &'p Program) -> DbiRuntime<'p> {
    let (dbi, t) = p.call("DbiRuntime::new", |_| {
        DbiRuntime::new(program, CostModel::default())
    });
    p.add("ir.decode_s", t);
    dbi
}

/// Counters of one introspection pass. `live` passes interpreted, so
/// their block and instruction counts are the VM's work.
fn count_report(p: &mut Probe, r: &UmiReport, live: bool) {
    if live {
        count_vm(p, &r.vm_stats);
    }
    let d = &r.dbi_stats;
    p.add("dbi.blocks_translated", d.blocks_translated as f64);
    p.add("dbi.traces_built", d.traces_built as f64);
    p.add("dbi.blocks_from_trace", d.blocks_from_trace_cache as f64);
    p.add(
        "dbi.blocks_dispatched",
        (d.blocks_from_trace_cache + d.blocks_from_bb_cache) as f64,
    );
    p.add("dbi.overhead_cycles", r.dbi_overhead_cycles as f64);
    p.add("core.profiles_collected", r.profiles_collected as f64);
    p.add("core.analyzer_invocations", r.analyzer_invocations as f64);
    p.add("core.cache_flushes", r.cache_flushes as f64);
    p.add("core.profiled_ops", r.profiled_ops as f64);
    p.add("core.samples_taken", r.samples_taken as f64);
    p.add("core.predicted_loads", r.predicted.len() as f64);
    p.add("core.overhead_cycles", r.umi_overhead_cycles as f64);
}

fn count_vm(p: &mut Probe, s: &VmStats) {
    p.add("vm.insns", s.insns as f64);
    p.add("vm.blocks", s.blocks as f64);
    p.add("vm.mem_refs", s.mem_refs() as f64);
}

fn count_machine(p: &mut Probe, m: &Machine, insns: u64) {
    let c = m.counters();
    p.add(
        "hw.prefetch_fills",
        (c.hw_prefetch_fills + c.sw_prefetch_fills) as f64,
    );
    p.add("hw.sim_cycles", m.total_cycles(insns) as f64);
}

fn count_full(p: &mut Probe, s: &FullSimulator) {
    p.add("cache.l1_misses", s.l1_stats().misses as f64);
    p.add("cache.l2_misses", s.l2_stats().misses as f64);
}

fn count_trace(p: &mut Probe, t: &ExecTrace) {
    p.add("trace.bytes", t.event_bytes() as f64);
    p.add("trace.accesses", t.summary().accesses as f64);
}

/// The traced run's ladder: the pass's stack rebuilt one layer at a
/// time over a fresh source and run with a `NullSink`, so each layer's
/// self time is the difference between neighbouring rungs. `capture`
/// adds the trace writer between the DBI and UMI rungs.
fn ladder<'p, X: BlockSource<'p>>(
    p: &mut Probe,
    source: (&'static str, &'static str),
    mk: impl Fn() -> X,
    config: &UmiConfig,
    shadows: &[UmiConfig],
    capture: bool,
) {
    let (source_span, source_layer) = source;
    let mut src = mk();
    let (_, t_src) = p.call(source_span, |_| {
        while !src.is_finished() {
            src.step_block(&mut NullSink);
        }
    });
    let mut dbi = DbiRuntime::from_source(mk(), CostModel::default());
    let (_, t_dbi) = p.call("ladder:DbiRuntime::run", |_| {
        dbi.run(&mut NullSink, u64::MAX)
    });
    let mut below = t_dbi;
    if capture {
        let mut dbi = DbiRuntime::from_source(mk(), CostModel::default());
        dbi.attach_tracer(TraceWriter::new());
        let (_, t_cap) = p.call("ladder:DbiRuntime::run+TraceWriter", |_| {
            dbi.run(&mut NullSink, u64::MAX)
        });
        p.add("trace.capture_s", t_cap - t_dbi);
        below = t_cap;
    }
    let mut dbi = DbiRuntime::from_source(mk(), CostModel::default());
    if capture {
        dbi.attach_tracer(TraceWriter::new());
    }
    let mut umi = UmiRuntime::with_dbi(dbi, config.clone());
    for s in shadows {
        umi.add_shadow_sim(s);
    }
    let (_, t_umi) = p.call("ladder:UmiRuntime::run", |_| {
        umi.run(&mut NullSink, u64::MAX)
    });
    p.add(source_layer, t_src);
    p.add("dbi.self_s", t_dbi - t_src);
    p.add("core.self_s", t_umi - below);
}

const VM_SOURCE: (&str, &str) = ("ladder:Vm::step_block", "vm.self_s");

/// The bottom rung alone, for passes without a DBI: a native run
/// repeated with a `NullSink`, charged to `umi-vm`.
fn ladder_vm(p: &mut Probe, program: &Program) {
    let mut vm = Vm::new(program);
    let (_, t) = p.call("ladder:Vm::run", |_| vm.run(&mut NullSink, u64::MAX));
    p.add("vm.self_s", t);
}

/// A replay repeated with a `NullSink`, charged to `umi-trace`.
fn ladder_replay(p: &mut Probe, trace: &ExecTrace) {
    let (_, t) = p.call("ladder:ExecTrace::replay_into", |_| {
        trace.replay_into(&mut NullSink)
    });
    p.add("trace.replay_s", t);
}
const REPLAY_SOURCE: (&str, &str) = ("ladder:ReplayCursor::step_block", "trace.replay_s");

fn quality(report: &UmiReport, full: &FullSimulator, program: &Program) -> PredictionQuality {
    PredictionQuality::compute(
        &report.predicted,
        &full.delinquent_set(0.90),
        full.per_pc(),
        program.static_loads(),
    )
}

fn online(p: &mut Probe, suite: &Suite, i: usize, replay: bool) -> CellOut {
    let t0 = Instant::now();
    let program = &suite.programs[i];
    let name = suite.specs[i].name;
    let config = UmiConfig::no_sampling();
    let shadows = [k7_shadow()];

    let mut hw_on = Machine::new(Platform::pentium4(), PrefetchSetting::Full);
    let mut p4 = FullSimulator::pentium4();
    let mut k7 = FullSimulator::k7().ratios_only();
    let (mut t_hw, mut t_p4, mut t_k7) = (p.tally(), p.tally(), p.tally());

    let trace = if replay { suite.traces.get(i) } else { None };
    let cursor = trace.and_then(|t| {
        let (cursor, secs) = p.call("ReplayCursor::new", |_| {
            ReplayCursor::new(program, Arc::clone(t))
        });
        p.add("ir.decode_s", secs);
        cursor
            .map_err(|e| eprintln!("perfbench: trace of {name} does not fit: {e}"))
            .ok()
    });
    let replayed = cursor.is_some();
    let (report, shadow) = {
        let mut s_hw = Timed::new(&mut hw_on, t_hw.as_mut());
        let mut s_p4 = Timed::new(&mut p4, t_p4.as_mut());
        let mut s_k7 = Timed::new(&mut k7, t_k7.as_mut());
        let mut pair = Tee(&mut s_p4, &mut s_k7);
        let mut sink = Tee(&mut s_hw, &mut pair);
        match cursor {
            Some(c) => {
                let dbi = DbiRuntime::from_source(c, CostModel::default());
                let (_, r, s) = introspect(p, dbi, &config, &shadows, &mut sink);
                (r, s)
            }
            None => {
                let dbi = live_dbi(p, program);
                let (_, r, s) = introspect(p, dbi, &config, &shadows, &mut sink);
                (r, s)
            }
        }
    };
    let insns = report.vm_stats.insns;
    let native = hw_on.total_cycles(insns);
    let overhead_x =
        (native + report.dbi_overhead_cycles + report.umi_overhead_cycles) as f64 / native as f64;
    let q = quality(&report, &p4, program);
    let row4 = format!(
        "{:<14} hwP4off {:>6.3} hwP4on {:>6.3} hwK7 {:>6.3} cg {:>6.3} umiP4 {:>6.3} umiK7 {:>6.3}",
        name,
        p4.l2_miss_ratio(),
        hw_on.counters().l2_miss_ratio(),
        k7.l2_miss_ratio(),
        p4.l2_miss_ratio(),
        report.umi_miss_ratio,
        shadow[0]
    );
    let row6 = format!(
        "{:<14} {:>7.2}% {:>5} {:>7.2}% {:>7.1}% {:>5} {:>6} {:>7.1}% {:>7.1}% {:>7.1}%",
        name,
        100.0 * p4.l2_miss_ratio(),
        q.p_size,
        100.0 * q.p_to_total_loads,
        100.0 * q.p_miss_coverage,
        q.c_size,
        q.intersection,
        100.0 * q.pc_miss_coverage,
        100.0 * q.recall,
        100.0 * q.false_positive,
    );
    let wall_s = t0.elapsed().as_secs_f64();

    if p.traced {
        p.sink(Layer::Hw, "Machine(P4, Full)", t_hw);
        p.sink(Layer::Cache, "FullSimulator(P4)", t_p4);
        p.sink(Layer::Cache, "FullSimulator(K7, ratios only)", t_k7);
        count_report(p, &report, !replayed);
        count_machine(p, &hw_on, insns);
        count_full(p, &p4);
        count_full(p, &k7);
        match trace {
            Some(t) if replayed => {
                count_trace(p, t);
                let mk = || ReplayCursor::new(program, Arc::clone(t)).expect("validated above");
                ladder(p, REPLAY_SOURCE, mk, &config, &shadows, false);
            }
            _ => ladder(p, VM_SOURCE, || Vm::new(program), &config, &shadows, false),
        }
    }
    CellOut {
        rows: vec![(Section::Table4, Some(row4)), (Section::Table6, Some(row6))],
        insns,
        replayed,
        wall_s,
        overhead_x,
        quality: q,
        extra: Extra::Online,
    }
}

fn outcome(machine: &Machine, insns: u64, overhead: u64) -> RunOutcome {
    RunOutcome {
        cycles: machine.total_cycles(insns) + overhead,
        counters: machine.counters(),
        insns,
    }
}

/// `run_native_trace` with HW prefetch on: the captured stream replayed
/// into a fresh machine, no interpretation.
fn replay_native_hw(p: &mut Probe, trace: &ExecTrace) -> RunOutcome {
    let mut machine = Machine::new(Platform::pentium4(), PrefetchSetting::Full);
    let mut tally = p.tally();
    let (summary, _) = p.call("ExecTrace::replay_into", |_| {
        trace.replay_into(&mut Timed::new(&mut machine, tally.as_mut()))
    });
    let insns = summary.stats.insns;
    if p.traced {
        ladder_replay(p, trace);
        p.sink(Layer::Hw, "Machine(P4, Full)", tally);
        count_machine(p, &machine, insns);
    }
    outcome(&machine, insns, 0)
}

fn prefetch(p: &mut Probe, suite: &Suite, i: usize) -> CellOut {
    let t0 = Instant::now();
    let program = &suite.programs[i];
    let name = suite.specs[i].name;
    let config = sampled_config(SCALE);

    // Pass 1: introspection over the unmodified program, capturing its
    // stream, with the prefetch-off machine riding as the sink.
    let mut m_off = Machine::new(Platform::pentium4(), PrefetchSetting::Off);
    let mut t_off = p.tally();
    let mut dbi = live_dbi(p, program);
    dbi.attach_tracer(TraceWriter::new());
    let (mut umi, report, _) = introspect(
        p,
        dbi,
        &config,
        &[],
        &mut Timed::new(&mut m_off, t_off.as_mut()),
    );
    let writer = umi.dbi_mut().take_tracer().expect("tracer attached above");
    drop(umi);
    let (trace, t_fin) = p.call("TraceWriter::finish", |_| {
        writer.finish(store::program_key(program), report.vm_stats)
    });
    p.add("trace.capture_s", t_fin);
    let insns1 = report.vm_stats.insns;
    let native_off = outcome(&m_off, insns1, 0);
    let umi_only_off = outcome(
        &m_off,
        insns1,
        report.dbi_overhead_cycles + report.umi_overhead_cycles,
    );

    // Ground truth for the sampled predictions: the captured stream
    // replayed into a full simulator.
    let mut full = FullSimulator::pentium4();
    let mut t_full = p.tally();
    p.call("ExecTrace::replay_into", |_| {
        trace.replay_into(&mut Timed::new(&mut full, t_full.as_mut()))
    });
    let q = quality(&report, &full, program);

    let (plan, t) = p.call("PrefetchPlan::from_report", |_| {
        PrefetchPlan::from_report(&report, DISTANCE_REFS)
    });
    p.add("prefetch.plan_s", t);
    let mut insns = insns1;
    let mut fig3 = None;
    let mut pass2 = None;
    if !plan.is_empty() {
        let (optimized, t) = p.call("inject_prefetches", |_| inject_prefetches(program, &plan));
        p.add("prefetch.rewrite_s", t);

        // Pass 2: introspection over the optimized program, live, into
        // both machines.
        let mut sw_off = Machine::new(Platform::pentium4(), PrefetchSetting::Off);
        let mut sw_hw = Machine::new(Platform::pentium4(), PrefetchSetting::Full);
        let (mut t_sw_off, mut t_sw_hw) = (p.tally(), p.tally());
        let dbi2 = live_dbi(p, &optimized);
        let report2 = {
            let mut a = Timed::new(&mut sw_off, t_sw_off.as_mut());
            let mut b = Timed::new(&mut sw_hw, t_sw_hw.as_mut());
            introspect(p, dbi2, &config, &[], &mut Tee(&mut a, &mut b)).1
        };
        let insns2 = report2.vm_stats.insns;
        let overhead2 = report2.dbi_overhead_cycles + report2.umi_overhead_cycles;
        let umi_sw_off = outcome(&sw_off, insns2, overhead2);
        let umi_sw_hw = outcome(&sw_hw, insns2, overhead2);
        let native_hw = replay_native_hw(p, &trace);
        insns += insns2 + native_hw.insns;
        std::hint::black_box((umi_sw_hw, native_hw));
        fig3 = Some((
            umi_only_off.relative_to(&native_off),
            umi_sw_off.relative_to(&native_off),
        ));
        if p.traced {
            p.add("prefetch.planned_workloads", 1.0);
            p.add("prefetch.planned_loads", plan.len() as f64);
            p.sink(Layer::Hw, "Machine(P4, Off)", t_sw_off);
            p.sink(Layer::Hw, "Machine(P4, Full)", t_sw_hw);
            count_report(p, &report2, true);
            count_machine(p, &sw_off, insns2);
            count_machine(p, &sw_hw, insns2);
        }
        pass2 = Some(optimized);
    }
    let row = fig3.map(|(a, b)| format!("{:<14} {:>10.3} {:>14.3} {:>8}", name, a, b, plan.len()));
    let wall_s = t0.elapsed().as_secs_f64();

    if p.traced {
        ladder_replay(p, &trace);
        p.sink(Layer::Hw, "Machine(P4, Off)", t_off);
        p.sink(Layer::Cache, "FullSimulator(P4)", t_full);
        count_report(p, &report, true);
        count_machine(p, &m_off, insns1);
        count_full(p, &full);
        count_trace(p, &trace);
        ladder(p, VM_SOURCE, || Vm::new(program), &config, &[], true);
        if let Some(optimized) = &pass2 {
            ladder(p, VM_SOURCE, || Vm::new(optimized), &config, &[], false);
        }
    }
    CellOut {
        rows: vec![(Section::Fig3, row)],
        insns,
        replayed: false,
        wall_s,
        overhead_x: umi_only_off.relative_to(&native_off),
        quality: q,
        extra: Extra::Prefetch(fig3),
    }
}

fn jaccard_percent(a: &BTreeSet<u64>, b: &BTreeSet<u64>) -> f64 {
    let union = a.union(b).count();
    if union == 0 {
        return 100.0;
    }
    100.0 * a.intersection(b).count() as f64 / union as f64
}

/// A plan's cycles relative to `native`, through a native run of the
/// rewritten program (1.0 for an empty plan: the rewrite is the
/// identity).
fn run_plan(
    p: &mut Probe,
    program: &Program,
    plan: &PrefetchPlan,
    native: &RunOutcome,
) -> (f64, u64) {
    if plan.is_empty() {
        return (1.0, 0);
    }
    let (optimized, t) = p.call("inject_prefetches", |_| inject_prefetches(program, plan));
    p.add("prefetch.rewrite_s", t);
    let mut machine = Machine::new(Platform::pentium4(), PrefetchSetting::Off);
    let mut tally = p.tally();
    let (mut vm, t) = p.call("Vm::new", |_| Vm::new(&optimized));
    p.add("ir.decode_s", t);
    let (r, _) = p.call("Vm::run", |_| {
        vm.run(&mut Timed::new(&mut machine, tally.as_mut()), u64::MAX)
    });
    assert!(r.finished, "workload {} did not finish", optimized.name);
    if p.traced {
        ladder_vm(p, &optimized);
        p.sink(Layer::Hw, "Machine(P4, Off)", tally);
        count_vm(p, &r.stats);
        count_machine(p, &machine, r.stats.insns);
    }
    (
        outcome(&machine, r.stats.insns, 0).relative_to(native),
        r.stats.insns,
    )
}

fn static_audit(p: &mut Probe, suite: &Suite, i: usize) -> CellOut {
    let t0 = Instant::now();
    let program = &suite.programs[i];
    let name = suite.specs[i].name;
    let config = UmiConfig::no_sampling();
    let floor = config.delinquency_floor;
    let (l1c, l2c) = (CacheConfig::pentium4_l1d(), CacheConfig::pentium4_l2());
    let (l1, l2) = (l1c.geometry(), l2c.geometry());

    let mut violations = 0usize;
    let (verified, t) = p.call("verify", |_| verify(program));
    p.add("analyze.verify_s", t);
    if let Err(errs) = verified {
        eprintln!(
            "{name}: verifier rejected the program ({} errors)",
            errs.len()
        );
        violations += 1;
    }

    // The audit of `umi_bench::staticplan_audit::audit_staticplan`,
    // spelled out so the simulator's sink can be timed and its per-PC
    // table reused as the prediction ground truth.
    let (composed, t_compose) = p.call("compose_program", |_| {
        compose_program(program, &l1, &l2, floor)
    });
    let mut sim = FullSimulator::new(l1c, l2c).with_l1_audit();
    let mut t_sim = p.tally();
    let (mut vm, t) = p.call("Vm::new", |_| Vm::new(program));
    p.add("ir.decode_s", t);
    let (result, _) = p.call("Vm::run", |_| {
        vm.run(&mut Timed::new(&mut sim, t_sim.as_mut()), u64::MAX)
    });
    let mut checked = Vec::with_capacity(composed.per_pc.len());
    let mut totals = (0u64, 0u64, 0u64);
    for bound in &composed.per_pc {
        let l1t = sim.l1_per_pc().get(bound.pc);
        let mem = sim.per_pc().get(bound.pc);
        let (accesses, l1_misses, mem_misses) = if bound.is_store {
            (l1t.store_accesses, l1t.store_misses, mem.store_misses)
        } else {
            (l1t.load_accesses, l1t.load_misses, mem.load_misses)
        };
        totals.0 += accesses;
        totals.1 += l1_misses;
        totals.2 += mem_misses;
        checked.push(BoundCheck {
            bound: *bound,
            accesses,
            l1_misses,
            mem_misses,
        });
    }
    let aggregate_ok = totals.0 >= composed.accesses.min
        && composed.accesses.max.is_none_or(|h| totals.0 <= h)
        && composed.l1.contains(totals.1)
        && composed.mem.contains(totals.2);
    let audit = StaticPlanAudit {
        report: composed,
        checked,
        totals,
        aggregate_ok,
        insns: result.stats.insns,
    };
    for v in audit.violations() {
        violations += 1;
        eprintln!("{name}: {:#x} {}", v.bound.pc.0, v.violation_message());
    }
    if !audit.aggregate_ok {
        violations += 1;
        eprintln!("{name}: aggregate interval violated");
    }
    let mut insns = audit.insns;

    let (splan, t_splan) = p.call("static_prefetch_plan", |_| {
        static_prefetch_plan(program, &l1, &l2, floor)
    });

    // The profiling pass doubles as the native baseline.
    let mut m_off = Machine::new(Platform::pentium4(), PrefetchSetting::Off);
    let mut t_off = p.tally();
    let dbi = live_dbi(p, program);
    let (_, report, _) = introspect(
        p,
        dbi,
        &config,
        &[],
        &mut Timed::new(&mut m_off, t_off.as_mut()),
    );
    insns += report.vm_stats.insns;
    let native_off = outcome(&m_off, report.vm_stats.insns, 0);
    let umi_off = outcome(
        &m_off,
        report.vm_stats.insns,
        report.dbi_overhead_cycles + report.umi_overhead_cycles,
    );
    let q = quality(&report, &sim, program);
    let (dynamic_plan, t) = p.call("PrefetchPlan::from_report", |_| {
        PrefetchPlan::from_report(&report, DISTANCE_REFS)
    });
    p.add("prefetch.plan_s", t);

    let static_hot: BTreeSet<u64> = splan
        .report
        .ranked_hot()
        .iter()
        .filter(|d| !d.is_store)
        .map(|d| d.pc.0)
        .collect();
    let dynamic_hot: BTreeSet<u64> = report.ranked_delinquents().iter().map(|pc| pc.0).collect();
    let agreement = jaccard_percent(&static_hot, &dynamic_hot);

    let static_plan = splan.plan();
    let norms = if static_plan.is_empty() && dynamic_plan.is_empty() {
        None
    } else {
        let (s, si) = run_plan(p, program, &static_plan, &native_off);
        let (d, di) = run_plan(p, program, &dynamic_plan, &native_off);
        insns += si + di;
        Some((s, d))
    };

    let groups = audit.checked.len();
    let bounded = audit.checked.iter().filter(|c| c.bound.bounded).count();
    let audit_row = format!(
        "{:<14} {:>6} {:>7} {:>7}   [{:.3}, {:.3}] {:>8.3} {:>6.1}%",
        name,
        groups,
        bounded,
        violations,
        audit.report.l1_ratio.0,
        audit.report.l1_ratio.1,
        audit.measured_l1_ratio(),
        agreement
    );
    let ab_row = norms.map(|(s, d)| {
        format!(
            "{:<14} {:>6} {:>6} {:>8} {:>8}",
            name,
            static_plan.len(),
            dynamic_plan.len(),
            format!("{s:.3}"),
            format!("{d:.3}")
        )
    });
    let wall_s = t0.elapsed().as_secs_f64();

    if p.traced {
        ladder_vm(p, program);
        p.sink(Layer::Cache, "FullSimulator(P4, L1 audit)", t_sim);
        p.sink(Layer::Hw, "Machine(P4, Off)", t_off);
        count_vm(p, &result.stats);
        count_full(p, &sim);
        count_report(p, &report, true);
        count_machine(p, &m_off, report.vm_stats.insns);
        let sites = &audit.report.sites;
        p.add("analyze.sites", sites.len() as f64);
        let classified = sites
            .iter()
            .filter(|s| s.behavior.l1 != Verdict::Unclassified)
            .count();
        p.add("analyze.classified_sites", classified as f64);
        p.add("analyze.intervals_checked", (groups + 1) as f64);
        if !static_plan.is_empty() || !dynamic_plan.is_empty() {
            p.add("prefetch.planned_workloads", 1.0);
        }
        p.add(
            "prefetch.planned_loads",
            (static_plan.len() + dynamic_plan.len()) as f64,
        );
        // `compose_program` runs absint and trips inside; time both on
        // their own to split it. `static_prefetch_plan` composes again
        // before planning, so its own share is what exceeds a compose.
        let (_, t_abs) = p.call("ladder:absint_program", |_| {
            absint_program(program, &l1, &l2)
        });
        let (_, t_trips) = p.call("ladder:trip_analysis", |_| trip_analysis(program));
        p.add("analyze.absint_s", 2.0 * t_abs);
        p.add("analyze.trips_s", 2.0 * t_trips);
        p.add("analyze.compose_s", 2.0 * (t_compose - t_abs - t_trips));
        p.add("prefetch.staticplan_s", t_splan - t_compose);
        ladder(p, VM_SOURCE, || Vm::new(program), &config, &[], false);
    }
    CellOut {
        rows: vec![
            (Section::StaticAudit, Some(audit_row)),
            (Section::StaticAb, ab_row),
        ],
        insns,
        replayed: false,
        wall_s,
        overhead_x: umi_off.relative_to(&native_off),
        quality: q,
        extra: Extra::Static {
            groups,
            bounded,
            violations,
            agreement,
            norms,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A traced cell must produce the same outputs as an untraced one:
    /// the wrappers and spans observe, never steer.
    #[test]
    fn traced_cells_match_untraced_cells() {
        let (suite, _) = setup(None).expect("set-up without traces cannot fail");
        let i = suite
            .specs
            .iter()
            .position(|s| s.name == "ft")
            .expect("ft is in the suite");
        for w in [
            Workload::OnlineLive,
            Workload::PrefetchFeedback,
            Workload::StaticAudit,
        ] {
            let plain = run(w, &mut Probe::new(false), &suite, i);
            let mut probe = Probe::new(true);
            probe.begin_cell(suite.specs[i].name);
            let traced = run(w, &mut probe, &suite, i);
            assert_eq!(plain.rows, traced.rows, "{}", w.name());
            assert_eq!(plain.insns, traced.insns);
            assert_eq!(plain.overhead_x, traced.overhead_x);
            assert!(!probe.spans.is_empty() && !probe.sinks.is_empty());
            assert!(probe.layers.contains_key("core.self_s"));
        }
    }
}
