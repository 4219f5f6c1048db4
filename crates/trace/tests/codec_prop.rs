//! Property tests for the trace codec: randomized streams round-trip
//! through capture → serialize → parse → replay with byte-identical
//! access sequences and summaries.
//!
//! The generators deliberately hit the encoding's edges: negative
//! address deltas (backward sweeps), 64-bit-extreme addresses
//! (wrapping deltas), constant-stride runs spanning many batches
//! (RLE), and empty blocks (no accesses at all).

use umi_ir::{AccessKind, BlockId, MemAccess, Pc};
use umi_testkit::{check, Xoshiro256pp};
use umi_trace::{ExecTrace, TraceKey, TraceWriter};
use umi_vm::{AccessSink, CollectSink};

/// One synthetic block template.
#[derive(Clone)]
struct Template {
    slots: Vec<(Pc, u8, AccessKind)>,
    /// Current address of each slot.
    addrs: Vec<u64>,
    /// Current stride of each slot.
    strides: Vec<i64>,
}

fn gen_templates(rng: &mut Xoshiro256pp) -> Vec<Template> {
    let n = 1 + rng.below(5) as usize;
    (0..n)
        .map(|b| {
            // Allow empty blocks (slot count 0).
            let slots = rng.below(8) as usize;
            let t: Vec<(Pc, u8, AccessKind)> = (0..slots)
                .map(|s| {
                    let pc = Pc(0x1000 + (b as u64) * 0x100 + (s as u64) * 4);
                    let width = *[1u8, 2, 4, 8, 64].get(rng.below(5) as usize).unwrap();
                    let kind = match rng.below(3) {
                        0 => AccessKind::Load,
                        1 => AccessKind::Store,
                        _ => AccessKind::Prefetch,
                    };
                    (pc, width, kind)
                })
                .collect();
            let addrs = t
                .iter()
                .map(|_| match rng.below(4) {
                    // 64-bit extremes: deltas against 0 wrap the full range.
                    0 => u64::MAX - rng.below(1024),
                    1 => rng.below(1024),
                    _ => 0x10_0000 + rng.below(1 << 30),
                })
                .collect();
            let strides = t
                .iter()
                .map(|_| match rng.below(4) {
                    // Negative strides: backward sweeps.
                    0 => -(rng.below(4096) as i64),
                    1 => i64::MAX - rng.below(1024) as i64,
                    _ => rng.below(4096) as i64,
                })
                .collect();
            Template {
                slots: t,
                addrs,
                strides,
            }
        })
        .collect()
}

/// Capture a randomized record sequence, remembering the expected
/// stream, and return (writer, expected accesses, record count).
fn gen_stream(
    rng: &mut Xoshiro256pp,
    templates: &mut [Template],
) -> (TraceWriter, Vec<MemAccess>, u64) {
    let mut writer = TraceWriter::new();
    let mut expected = Vec::new();
    let records = rng.below(400) + 1;
    let mut current = rng.below(templates.len() as u64) as usize;
    for _ in 0..records {
        // Mostly stay on one block (creating RLE runs that span many
        // "batches"), sometimes hop, sometimes re-randomize strides
        // (breaking a run mid-flight).
        match rng.below(10) {
            0 | 1 => current = rng.below(templates.len() as u64) as usize,
            2 => {
                let t = &mut templates[current];
                for s in t.strides.iter_mut() {
                    *s = rng.range_i64(-1024, 1024);
                }
            }
            _ => {}
        }
        let t = &mut templates[current];
        let batch: Vec<MemAccess> = t
            .slots
            .iter()
            .zip(t.addrs.iter())
            .map(|(&(pc, width, kind), &addr)| MemAccess {
                pc,
                addr,
                width,
                kind,
            })
            .collect();
        for (a, s) in t.addrs.iter_mut().zip(t.strides.iter()) {
            *a = a.wrapping_add(*s as u64);
        }
        expected.extend_from_slice(&batch);
        // Alternate the two capture paths (direct record vs sink-fed).
        if rng.below(2) == 0 {
            writer.record_block(BlockId(current as u32), &batch);
        } else {
            writer.access_batch(&batch);
            writer.end_block(BlockId(current as u32));
        }
    }
    (writer, expected, records)
}

#[test]
fn random_streams_round_trip_bit_exactly() {
    check("trace codec round-trip", 60, |rng| {
        let mut templates = gen_templates(rng);
        let (writer, expected, records) = gen_stream(rng, &mut templates);
        let key = TraceKey(1);
        let trace = writer.finish_raw(key);
        assert_eq!(trace.summary().records, records);
        assert_eq!(trace.summary().accesses, expected.len() as u64);

        // In-memory replay reproduces the exact access stream.
        let mut sink = CollectSink::default();
        trace.replay_into(&mut sink);
        assert_eq!(sink.accesses, expected, "in-memory replay diverged");

        // Serialize → parse → replay is the same stream again.
        let bytes = trace.to_bytes();
        let parsed = ExecTrace::from_bytes(&bytes, Some(key)).expect("parse back");
        assert_eq!(&parsed, &trace, "parse(serialize(t)) != t");
        let mut sink2 = CollectSink::default();
        let summary = parsed.replay_into(&mut sink2);
        assert_eq!(sink2.accesses, expected, "disk-round-trip replay diverged");
        assert_eq!(&summary, trace.summary());
    });
}

#[test]
fn batch_boundaries_are_preserved() {
    // Replay must deliver one access_batch per captured record — the
    // chunking, not just the flat stream, is part of the contract.
    check("trace batch boundaries", 30, |rng| {
        let mut templates = gen_templates(rng);
        let (writer, _, records) = gen_stream(rng, &mut templates);
        let trace = writer.finish_raw(TraceKey(2));

        struct BatchCounter {
            batches: u64,
            sizes: Vec<usize>,
        }
        impl AccessSink for BatchCounter {
            fn access(&mut self, _: MemAccess) {
                unreachable!("replay must use access_batch");
            }
            fn access_batch(&mut self, batch: &[MemAccess]) {
                self.batches += 1;
                self.sizes.push(batch.len());
            }
        }
        let mut counter = BatchCounter {
            batches: 0,
            sizes: Vec::new(),
        };
        trace.replay_into(&mut counter);
        // Empty-template records deliver no batch (the Vm contract:
        // batches only when non-empty); all others arrive whole.
        assert!(counter.batches <= records);
        assert!(counter.sizes.iter().all(|&s| s > 0));
        let nonempty: u64 = counter.batches;
        let total: usize = counter.sizes.iter().sum();
        assert_eq!(total as u64, trace.summary().accesses);
        if trace.dict().iter().all(|d| !d.slots.is_empty()) {
            assert_eq!(nonempty, records);
        }
    });
}

#[test]
fn empty_stream_round_trips() {
    let key = TraceKey(3);
    let trace = TraceWriter::new().finish_raw(key);
    let bytes = trace.to_bytes();
    let parsed = ExecTrace::from_bytes(&bytes, Some(key)).expect("empty trace parses");
    let mut sink = CollectSink::default();
    parsed.replay_into(&mut sink);
    assert!(sink.accesses.is_empty());
    assert_eq!(parsed.summary().records, 0);
}

#[test]
fn constant_stride_runs_compress() {
    // 10_000 identical-stride executions of one block must collapse to
    // a handful of event bytes (dictionary + first record + one run).
    let mut writer = TraceWriter::new();
    for i in 0..10_000u64 {
        writer.record_block(
            BlockId(0),
            &[MemAccess {
                pc: Pc(0x1000),
                addr: 0x10_0000 + i * 8,
                width: 8,
                kind: AccessKind::Load,
            }],
        );
    }
    let trace = writer.finish_raw(TraceKey(4));
    assert!(
        trace.event_bytes() < 32,
        "RLE failed: {} event bytes for 10k constant-stride records",
        trace.event_bytes()
    );
    let mut sink = CollectSink::default();
    trace.replay_into(&mut sink);
    assert_eq!(sink.accesses.len(), 10_000);
    assert_eq!(sink.accesses[9_999].addr, 0x10_0000 + 9_999 * 8);
}
