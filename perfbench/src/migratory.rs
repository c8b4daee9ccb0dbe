//! `migratory-journal`: a write-heavy migratory load at N = 256 with
//! protocol tracing on and crash-safe checkpoints.
//!
//! Two `MigratingWorkload` streams at w = 0.5, interleaved one reference
//! each, run on the two-mode adaptive machine (window 64):
//!
//! * a *hot* stream of 3 tasks over 64 blocks whose writer moves every
//!   [`HOT_PERIOD`] references. With at most 3 sharers the §5 threshold
//!   `w₁ = 2/(nₛ+2)` brackets w = 0.5, so the controller switches modes;
//! * a *wide* stream of 256 tasks over 4096 blocks whose writer moves every
//!   [`WIDE_PERIOD`] references, so ownership transfers on most writes and
//!   the machine state (and each checkpoint) is megabytes.
//!
//! Events stream through `TraceWriter` into an in-memory JSONL document per
//! chunk; after every [`CHUNK`] references the tracer is drained (the
//! snapshot codec rejects an undrained one), and the machine is encoded and
//! appended to a TMCJ journal. Outside the timer, every JSONL document is
//! read back and its event count checked, and every [`FRAMES_PER_JOURNAL`]
//! frames (and at the end) the journal is recovered, its last frame decoded
//! and the decoded machine compared with the live one; then a fresh journal
//! starts. The caches start empty; an untimed warm-up of [`WARMUP`]
//! references fills them.

use std::fs;
use std::path::{Path, PathBuf};

use tmc_bench::tracecheck;
use tmc_core::snapshot::encode_system_into;
use tmc_core::{
    decode_system, memory_digest, recover_journal, Journal, ModePolicy, System, SystemConfig,
};
use tmc_obs::jsonl::{TraceHeader, TraceReader, TraceWriter};
use tmc_simcore::SimRng;
use tmc_workload::{MigratingWorkload, Trace};

use crate::drive::{self, Chunked, Hook};
use crate::spans::{SpanId, Spans};
use crate::stats::{median, Report};
use crate::{sub_seed, Args, Outcome, OUT_DIR};

const N: usize = 256;
const W: f64 = 0.5;
/// References between writer moves in the hot stream.
pub const HOT_PERIOD: usize = 6_400;
/// References between writer moves in the wide stream.
pub const WIDE_PERIOD: usize = 2_000;
/// Untimed references that fill the caches before timing starts.
pub const WARMUP: usize = 200_000;
/// References per timed chunk; one checkpoint closes each chunk.
pub const CHUNK: usize = 20_000;
/// Timed chunks every run executes (the deterministic window).
pub const PREFIX_CHUNKS: usize = 20;
/// References generated for the timed phase (~15 s at 80k refs/s); a
/// faster run issues them again.
pub const TIMED: usize = 1_200_000;
/// Frames per journal before it is verified and a fresh one started.
pub const FRAMES_PER_JOURNAL: usize = 4;

fn config() -> SystemConfig {
    SystemConfig::new(N).mode_policy(ModePolicy::Adaptive { window: 64 })
}

fn generate(seed: u64) -> Trace {
    let half = (WARMUP + TIMED) / 2;
    let hot = MigratingWorkload::new(3, 64, W, HOT_PERIOD)
        .references(half)
        .generate(N, &mut SimRng::seed_from(sub_seed(seed, 0)));
    let wide = MigratingWorkload::new(N, 4096, W, WIDE_PERIOD)
        .block_base(1 << 16)
        .references(half)
        .generate(N, &mut SimRng::seed_from(sub_seed(seed, 1)));
    let mut mixed = Trace::with_capacity(N, 2 * half);
    for (a, b) in hot.iter().zip(wide.iter()) {
        mixed.push(*a);
        mixed.push(*b);
    }
    mixed
}

const PLAN: Chunked = Chunked {
    generate,
    config,
    setup_repeats: 9,
    warmup: WARMUP,
    chunk: CHUNK,
    prefix_chunks: PREFIX_CHUNKS,
    warmup_span: "migratory.warmup",
    chunk_span: "migratory.chunk",
    probe_tasks: 3,
    probe_w: W,
    not_exercised: &[
        "baselines.ns_per_ref.no_cache",
        "baselines.ns_per_ref.dir_invalidate",
        "baselines.ns_per_ref.update_only",
        "bench.sweep_busy_frac",
        "bench.sweep_cell_ms.p50",
        "bench.sweep_cell_ms.tail",
        "scenario.parse_ms_total",
        "scenario.run_ms_total",
        "scenario.check_ms_total",
    ],
};

/// Checks a JSONL document: it parses, and holds `written` events.
fn verify_jsonl(doc: &[u8], written: u64, spans: &mut Spans) -> Result<(), String> {
    let span = spans.open("obs.jsonl_decode", 0);
    let (_, events, trailer) = TraceReader::new(doc).read_all()?;
    spans.close(span);
    if events.len() as u64 != written || trailer.events != written {
        return Err(format!(
            "JSONL holds {} events (trailer {}), {written} were written",
            events.len(),
            trailer.events
        ));
    }
    Ok(())
}

/// Recovers the journal and checks its last frame decodes to `live`.
fn verify_journal(
    path: &Path,
    frames: usize,
    live: &System,
    spans: &mut Spans,
) -> Result<(), String> {
    let span = spans.open("core.snapshot.recover", 0);
    let recovery = recover_journal(path).map_err(|e| e.to_string())?;
    spans.close(span);
    if let Some(damage) = recovery.damage {
        return Err(format!("journal damaged: {damage}"));
    }
    if recovery.frames.len() != frames {
        return Err(format!(
            "journal holds {} frames, {frames} were appended",
            recovery.frames.len()
        ));
    }
    let last = recovery.last().ok_or("journal holds no frame")?;
    let span = spans.open("core.snapshot.decode", 0);
    let decoded = decode_system(last).map_err(|e| e.to_string())?;
    spans.close(span);
    if decoded.protocol_fingerprint() != live.protocol_fingerprint() {
        return Err(
            "decoded machine's protocol fingerprint differs from the live machine's".into(),
        );
    }
    if memory_digest(&decoded) != memory_digest(live) {
        return Err("decoded machine's memory digest differs from the live machine's".into());
    }
    Ok(())
}

/// The per-chunk tracing and checkpointing, and their checks.
struct Checkpoints {
    path: PathBuf,
    journal: Journal,
    header: Option<TraceHeader>,
    frame: Vec<u8>,
    /// The last chunk's JSONL document and the events written to it.
    doc: Vec<u8>,
    written: u64,
    jsonl_bytes: u64,
    events: u64,
    window_events: u64,
    frame_mb: Vec<f64>,
}

impl Checkpoints {
    fn new() -> Result<Self, String> {
        fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let path = PathBuf::from(OUT_DIR).join("migratory.tmcj");
        let journal = Journal::create(&path).map_err(|e| e.to_string())?;
        Ok(Checkpoints {
            path,
            journal,
            header: None,
            frame: Vec::new(),
            doc: Vec::new(),
            written: 0,
            jsonl_bytes: 0,
            events: 0,
            window_events: 0,
            frame_mb: Vec::new(),
        })
    }
}

impl Hook for Checkpoints {
    fn start(&mut self, sys: &mut System) -> Result<(), String> {
        self.header = Some(tracecheck::header_for(sys)?);
        // Protocol tracing starts with the timed phase, so the warm-up's
        // events never pile up in memory.
        sys.set_tracing(true);
        Ok(())
    }

    fn timed(&mut self, sys: &mut System, spans: &mut Spans, chunk: SpanId) -> Result<(), String> {
        let id = spans.open("obs.jsonl_encode", chunk);
        let header = self.header.as_ref().expect("started");
        let mut writer = TraceWriter::new(Vec::new(), header).map_err(|e| e.to_string())?;
        for e in sys.drain_trace() {
            writer.event(&e).map_err(|e| e.to_string())?;
        }
        self.written = writer.events_written();
        self.doc = writer
            .finish(tracecheck::trailer_for(sys))
            .map_err(|e| e.to_string())?;
        spans.close(id);
        let id = spans.open("core.snapshot.encode", chunk);
        encode_system_into(sys, &mut self.frame).map_err(|e| e.to_string())?;
        spans.close(id);
        let id = spans.open("core.snapshot.append", chunk);
        self.journal
            .append(&self.frame)
            .map_err(|e| e.to_string())?;
        spans.close(id);
        Ok(())
    }

    fn untimed(&mut self, sys: &System, spans: &mut Spans, k: usize) -> Result<(), String> {
        verify_jsonl(&self.doc, self.written, spans)?;
        self.jsonl_bytes += self.doc.len() as u64;
        self.events += self.written;
        self.frame_mb.push(self.frame.len() as f64 / 1e6);
        if self.journal.frames() == FRAMES_PER_JOURNAL {
            verify_journal(&self.path, self.journal.frames(), sys, spans)?;
            self.journal = Journal::create(&self.path).map_err(|e| e.to_string())?;
        }
        if k + 1 == PREFIX_CHUNKS {
            self.window_events = self.events;
        }
        Ok(())
    }

    fn finish(&mut self, sys: &System, spans: &mut Spans) -> Result<(), String> {
        if self.journal.frames() > 0 {
            verify_journal(&self.path, self.journal.frames(), sys, spans)?;
        }
        fs::remove_file(&self.path).map_err(|e| format!("{}: {e}", self.path.display()))
    }

    fn record(&self, spans: &Spans, m: &mut Report) {
        let ms = |name: &str| median(&spans.durations(name)) / 1e6;
        m.set("core.snapshot.encode_ms", ms("core.snapshot.encode"), "ms");
        m.set("core.snapshot.append_ms", ms("core.snapshot.append"), "ms");
        m.set(
            "core.snapshot.recover_ms",
            ms("core.snapshot.recover"),
            "ms",
        );
        m.set("core.snapshot.decode_ms", ms("core.snapshot.decode"), "ms");
        m.set("core.snapshot.frame_mb", median(&self.frame_mb), "MB");
        let mb_s = |name: &str| {
            let secs = spans.durations(name).iter().sum::<f64>() / 1e9;
            self.jsonl_bytes as f64 / 1e6 / secs
        };
        m.set("obs.jsonl_encode_mb_s", mb_s("obs.jsonl_encode"), "MB/s");
        m.set("obs.jsonl_decode_mb_s", mb_s("obs.jsonl_decode"), "MB/s");
        m.set(
            "obs.events_per_ref",
            self.window_events as f64 / (PREFIX_CHUNKS * CHUNK) as f64,
            "event/ref",
        );
    }
}

pub fn run(args: &Args, spans: &mut Spans) -> Result<Outcome, String> {
    drive::run_chunked(&PLAN, &mut Checkpoints::new()?, args, spans)
}
