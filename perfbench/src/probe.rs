//! Outside-in instrumentation: a timing wrapper for access sinks, spans
//! around public calls, and the per-layer accumulator they feed.
//!
//! Nothing here reaches inside a crate. A layer's time is either the
//! busy time of a sink the benchmark wraps (the cache and hardware
//! models), the duration of a public call the benchmark makes, or a
//! difference between nested public calls on the same input (the
//! `Vm::run` → `DbiRuntime::run` → `UmiRuntime::run` ladder, each with a
//! `NullSink`).

use std::collections::BTreeMap;
use std::time::Instant;
use umi_ir::MemAccess;
use umi_vm::AccessSink;

/// Busy time and work count of one wrapped sink. Per-batch timings are
/// folded in here instead of being kept as one span per batch.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tally {
    /// Seconds spent inside the wrapped sink.
    pub busy_s: f64,
    /// Delivery calls (one per block batch).
    pub calls: u64,
    /// Accesses delivered.
    pub accesses: u64,
}

/// Forwards every access and batch to `inner` unchanged; when a tally is
/// attached, also times each delivery. Untraced runs attach none, so the
/// wrapper costs one predictable branch per batch.
pub struct Timed<'a, S: AccessSink> {
    inner: &'a mut S,
    tally: Option<&'a mut Tally>,
}

impl<'a, S: AccessSink> Timed<'a, S> {
    /// Wraps `inner`, timing into `tally` when it is `Some`.
    pub fn new(inner: &'a mut S, tally: Option<&'a mut Tally>) -> Self {
        Timed { inner, tally }
    }
}

impl<S: AccessSink> AccessSink for Timed<'_, S> {
    fn access(&mut self, access: MemAccess) {
        match self.tally.as_deref_mut() {
            None => self.inner.access(access),
            Some(t) => {
                let t0 = Instant::now();
                self.inner.access(access);
                t.busy_s += t0.elapsed().as_secs_f64();
                t.calls += 1;
                t.accesses += 1;
            }
        }
    }

    fn access_batch(&mut self, batch: &[MemAccess]) {
        match self.tally.as_deref_mut() {
            None => self.inner.access_batch(batch),
            Some(t) => {
                let t0 = Instant::now();
                self.inner.access_batch(batch);
                t.busy_s += t0.elapsed().as_secs_f64();
                t.calls += 1;
                t.accesses += batch.len() as u64;
            }
        }
    }
}

/// One timed public call.
#[derive(Clone, Debug)]
pub struct Span {
    /// The call, e.g. `UmiRuntime::run`.
    pub name: &'static str,
    /// The cell (workload program) the call belongs to.
    pub cell: &'static str,
    /// Microseconds since the probe was created.
    pub start_us: f64,
    /// Microseconds since the probe was created.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// An aggregated sink, recorded next to the spans of its cell.
#[derive(Clone, Debug)]
pub struct SinkRecord {
    /// The model behind the sink, e.g. `Machine(P4, Full)`.
    pub name: &'static str,
    /// The cell it served.
    pub cell: &'static str,
    /// Its busy time and work count.
    pub tally: Tally,
}

/// Per-cell instrumentation state. With `traced` off, [`Probe::call`]
/// only runs the closure and returns its duration, [`Probe::tally`]
/// hands out no tallies, and nothing is recorded.
pub struct Probe {
    /// Whether spans, sink tallies and layer values are recorded.
    pub traced: bool,
    origin: Instant,
    cell: &'static str,
    stack: Vec<usize>,
    /// Every span recorded so far, in start order.
    pub spans: Vec<Span>,
    /// Every aggregated sink recorded so far.
    pub sinks: Vec<SinkRecord>,
    /// Layer values of the current cell, by metric name.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Probe {
    /// A probe recording (or not) from now on.
    pub fn new(traced: bool) -> Probe {
        Probe {
            traced,
            origin: Instant::now(),
            cell: "",
            stack: Vec::new(),
            spans: Vec::new(),
            sinks: Vec::new(),
            layers: BTreeMap::new(),
        }
    }

    /// Starts a cell: later spans and sinks are filed under `cell`, and
    /// the layer values start from zero.
    pub fn begin_cell(&mut self, cell: &'static str) {
        self.cell = cell;
        self.layers.clear();
    }

    /// Runs `f` as the public call `name`, returning its result and
    /// duration in seconds. Calls nest: a call made inside `f` records
    /// this one as its parent.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Probe) -> R) -> (R, f64) {
        let t0 = Instant::now();
        if !self.traced {
            let r = f(self);
            return (r, t0.elapsed().as_secs_f64());
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            cell: self.cell,
            start_us: (t0 - self.origin).as_secs_f64() * 1e6,
            end_us: 0.0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        let r = f(self);
        let t1 = Instant::now();
        self.stack.pop();
        self.spans[idx].end_us = (t1 - self.origin).as_secs_f64() * 1e6;
        (r, (t1 - t0).as_secs_f64())
    }

    /// A fresh tally for a sink when tracing, else `None`.
    pub fn tally(&self) -> Option<Tally> {
        self.traced.then(Tally::default)
    }

    /// Adds `v` to the layer metric `name` of the current cell (a no-op
    /// when untraced).
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.traced {
            *self.layers.entry(name).or_insert(0.0) += v;
        }
    }

    /// Files a wrapped sink's tally under the current cell and charges
    /// its busy time and work counts to `layer`.
    pub fn sink(&mut self, layer: Layer, name: &'static str, tally: Option<Tally>) {
        let Some(tally) = tally else { return };
        match layer {
            Layer::Cache => {
                self.add("cache.self_s", tally.busy_s);
                self.add("cache.accesses", tally.accesses as f64);
                self.add("cache.batches", tally.calls as f64);
            }
            Layer::Hw => {
                self.add("hw.self_s", tally.busy_s);
                self.add("hw.accesses", tally.accesses as f64);
            }
        }
        self.sinks.push(SinkRecord {
            name,
            cell: self.cell,
            tally,
        });
    }
}

/// The layers whose work the benchmark observes through wrapped sinks.
#[derive(Clone, Copy, Debug)]
pub enum Layer {
    /// `umi-cache`: the full simulators.
    Cache,
    /// `umi-hw`: the machine models (with the hierarchy they embed).
    Hw,
}

#[cfg(test)]
mod tests {
    use super::*;
    use umi_vm::{CollectSink, Vm};
    use umi_workloads::{all32, Scale};

    /// The wrapper must hand the inner sink exactly the batches it
    /// receives, so a traced pass measures the same stream as an
    /// untraced one.
    #[test]
    fn timed_wrapper_forwards_batches_unchanged() {
        let program = all32()[0].build(Scale::Test);
        let mut plain = CollectSink::default();
        let plain_run = Vm::new(&program).run(&mut plain, u64::MAX);

        let mut inner = CollectSink::default();
        let mut tally = Tally::default();
        let traced_run =
            Vm::new(&program).run(&mut Timed::new(&mut inner, Some(&mut tally)), u64::MAX);

        let mut untimed = CollectSink::default();
        Vm::new(&program).run(&mut Timed::new(&mut untimed, None), u64::MAX);

        assert_eq!(plain_run.stats, traced_run.stats);
        assert_eq!(inner.accesses, plain.accesses);
        assert_eq!(untimed.accesses, plain.accesses);
        assert_eq!(tally.accesses, plain.accesses.len() as u64);
        assert!(tally.calls > 0 && tally.calls <= tally.accesses);
    }

    #[test]
    fn spans_nest_and_untraced_probes_record_nothing() {
        let mut p = Probe::new(true);
        p.begin_cell("c");
        let ((), _) = p.call("outer", |p| {
            p.call("inner", |_| ());
        });
        assert_eq!(p.spans.len(), 2);
        assert_eq!(p.spans[1].parent, Some(0));
        assert!(p.spans[0].start_us <= p.spans[1].start_us);
        assert!(p.spans[1].end_us <= p.spans[0].end_us);

        let mut q = Probe::new(false);
        q.call("outer", |_| ());
        q.add("vm.self_s", 1.0);
        assert!(q.spans.is_empty() && q.layers.is_empty() && q.tally().is_none());
    }
}
