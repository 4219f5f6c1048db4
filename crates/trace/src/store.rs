//! Content-keyed trace files: a key derived from the traced program and
//! atomic save/load of checksummed entries in a directory.
//!
//! The native block/access stream of a workload depends only on the
//! program (which already encodes the workload scale), never on the
//! UMI configuration driving the profilers — so one trace per
//! `(workload, scale)` serves every consumer. Any validation failure on
//! a loaded entry (truncation, bit rot, version skew, key collision)
//! surfaces as a typed [`TraceError`].

use crate::codec::{Fnv, FNV_OFFSET};
use crate::trace::{ExecTrace, TraceError, TraceKey, FORMAT_VERSION};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use umi_ir::Program;

/// File extension of on-disk trace entries.
pub const TRACE_EXT: &str = "umitrace";

/// Second offset basis (first 64 bits of the same prime sequence,
/// perturbed) so the two halves of a [`TraceKey`] are independent
/// hashes of the same content stream.
const FNV_OFFSET_HI: u64 = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;

struct KeyHasher {
    lo: Fnv,
    hi: Fnv,
}

impl KeyHasher {
    fn new() -> Self {
        let mut h = KeyHasher {
            lo: Fnv::with_basis(FNV_OFFSET),
            hi: Fnv::with_basis(FNV_OFFSET_HI),
        };
        // Format version participates in the key: a codec change makes
        // every old entry an automatic miss.
        h.write_u64(u64::from(FORMAT_VERSION));
        h
    }

    fn write(&mut self, bytes: &[u8]) {
        self.lo.write(bytes);
        self.hi.write(bytes);
    }

    fn write_u64(&mut self, v: u64) {
        self.lo.write_u64(v);
        self.hi.write_u64(v);
    }

    fn finish(&self) -> TraceKey {
        TraceKey(u128::from(self.lo.finish()) | (u128::from(self.hi.finish()) << 64))
    }
}

/// Content key for a program's native execution stream: hashes the
/// program name, function table, every block's code, and the raw data
/// segments (workload scale is already baked into all of these), plus
/// the trace format version.
pub fn program_key(program: &Program) -> TraceKey {
    let mut h = KeyHasher::new();
    h.write(program.name.as_bytes());
    h.write_u64(u64::from(program.entry.0));
    let mut text = String::new();
    for f in &program.funcs {
        text.clear();
        let _ = write!(text, "{}:{}:{}", f.id.0, f.name, f.entry.0);
        h.write(text.as_bytes());
    }
    for b in &program.blocks {
        // Code is small (thousands of instructions); its Debug
        // rendering is a faithful, cheap serialization.
        text.clear();
        let _ = write!(text, "{b:?}");
        h.write(text.as_bytes());
    }
    for seg in &program.data {
        h.write_u64(seg.addr);
        h.write_u64(seg.bytes.len() as u64);
        h.write(&seg.bytes);
    }
    h.finish()
}

fn entry_path(dir: &Path, key: TraceKey) -> PathBuf {
    dir.join(format!("{}.{}", key.to_hex(), TRACE_EXT))
}

/// Load and validate a trace from a directory. Missing file is `None`;
/// any other failure is the typed error.
pub fn load_from_dir(dir: &Path, key: TraceKey) -> Result<Option<ExecTrace>, TraceError> {
    let path = entry_path(dir, key);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(TraceError::Io(e.to_string())),
    };
    ExecTrace::from_bytes(&bytes, Some(key)).map(Some)
}

/// Persist a trace into a directory (atomically: temp file + rename).
pub fn store_to_dir(dir: &Path, trace: &ExecTrace) -> Result<(), TraceError> {
    std::fs::create_dir_all(dir).map_err(|e| TraceError::Io(e.to_string()))?;
    let path = entry_path(dir, trace.key());
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    let io = |e: std::io::Error| TraceError::Io(e.to_string());
    std::fs::write(&tmp, trace.to_bytes()).map_err(io)?;
    std::fs::rename(&tmp, &path).map_err(io)
}
