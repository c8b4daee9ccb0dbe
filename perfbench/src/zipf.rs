//! `zipf-1024`: the N = 1024 machine over a 2²¹-block multi-tenant Zipf
//! footprint, driven one reference at a time through `System::read/write`.
//!
//! 2048 tenants × 1024 blocks, 4M users (θ = 0.99), w = 0.2, on the
//! two-mode adaptive machine (window 64, 64 sets × 4 ways = 256 blocks per
//! cache). The caches start empty; an untimed warm-up of [`WARMUP`]
//! references fills all 1024 of them (replacements and messages per
//! reference flatten after ~700k references, host time per reference after
//! ~1M). The timed phase then issues [`CHUNK`]-reference chunks until the
//! time is up; rates are medians over chunks. Counts and `bits_per_ref`
//! come from the first [`PREFIX_CHUNKS`] timed chunks, which every run
//! executes in full, so they depend only on the seed.

use tmc_core::{ModePolicy, SystemConfig};
use tmc_simcore::SimRng;
use tmc_workload::{MultiTenantZipfWorkload, Trace};

use crate::drive::{self, Chunked};
use crate::spans::Spans;
use crate::{sub_seed, Args, Outcome};

const N: usize = 1024;
const W: f64 = 0.2;
/// Untimed references that fill the caches before timing starts.
pub const WARMUP: usize = 1_200_000;
/// References per timed chunk.
pub const CHUNK: usize = 50_000;
/// Timed chunks every run executes (the deterministic window).
pub const PREFIX_CHUNKS: usize = 10;
/// References generated for the timed phase (~10 s at 300k refs/s); a
/// faster run issues them again.
pub const TIMED: usize = 3_000_000;

fn generate(seed: u64) -> Trace {
    MultiTenantZipfWorkload::new(N, 4_000_000, W)
        .tenants(2048)
        .blocks_per_tenant(1024)
        .references(WARMUP + TIMED)
        .generate(N, &mut SimRng::seed_from(sub_seed(seed, 0)))
}

fn config() -> SystemConfig {
    SystemConfig::new(N).mode_policy(ModePolicy::Adaptive { window: 64 })
}

const PLAN: Chunked = Chunked {
    generate,
    config,
    setup_repeats: 5,
    warmup: WARMUP,
    chunk: CHUNK,
    prefix_chunks: PREFIX_CHUNKS,
    warmup_span: "zipf.warmup",
    chunk_span: "zipf.chunk",
    probe_tasks: 8,
    probe_w: W,
    not_exercised: &[
        "core.snapshot.encode_ms",
        "core.snapshot.append_ms",
        "core.snapshot.recover_ms",
        "core.snapshot.decode_ms",
        "core.snapshot.frame_mb",
        "baselines.ns_per_ref.no_cache",
        "baselines.ns_per_ref.dir_invalidate",
        "baselines.ns_per_ref.update_only",
        "obs.jsonl_encode_mb_s",
        "obs.jsonl_decode_mb_s",
        "obs.events_per_ref",
        "bench.sweep_busy_frac",
        "bench.sweep_cell_ms.p50",
        "bench.sweep_cell_ms.tail",
        "scenario.parse_ms_total",
        "scenario.run_ms_total",
        "scenario.check_ms_total",
    ],
};

pub fn run(args: &Args, spans: &mut Spans) -> Result<Outcome, String> {
    drive::run_chunked(&PLAN, &mut (), args, spans)
}
