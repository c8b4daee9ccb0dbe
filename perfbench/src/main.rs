//! The repository benchmark: one command that runs a named workload through
//! the simulator's public API, checks that its outputs are correct, and
//! prints its metrics as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig8-sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the workload
//! again with spans around each layer call and prints the per-layer
//! metrics, writing the spans to `perfbench/out/spans-<workload>.jsonl`.
//! Any correctness failure exits with status 1 and prints no metrics.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod analytic;
mod corpus;
mod drive;
mod fig8;
mod layers;
mod migratory;
mod spans;
mod stats;
mod zipf;

use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;

use spans::Spans;
use stats::Report;

/// Directory (relative to the checkout root) for the spans and journals a
/// run writes.
pub const OUT_DIR: &str = "perfbench/out";

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("refs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("host_ns_per_msg", "ns"),
    ("bits_per_ref", "bit/ref"),
    ("analytic_rel_err", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1`. A workload that does not
/// exercise a layer reports its metrics as 0 (see the README's table).
const PER_LAYER: &[(&str, &str)] = &[
    ("workload.gen_ns_per_ref", "ns"),
    ("core.new_ms", "ms"),
    ("core.read_ns.p50", "ns"),
    ("core.read_ns.tail", "ns"),
    ("core.read_ns.samples", "count"),
    ("core.write_ns.p50", "ns"),
    ("core.write_ns.tail", "ns"),
    ("core.write_ns.samples", "count"),
    ("core.read_hit_ratio", "ratio"),
    ("core.msgs_per_ref", "msg/ref"),
    ("core.replacements_per_kref", "1/kref"),
    ("core.ownership_transfers_per_kref", "1/kref"),
    ("core.mode_switches_per_kref", "1/kref"),
    ("core.updates_multicast_per_kref", "1/kref"),
    ("core.invariants_ms", "ms"),
    ("core.snapshot.encode_ms", "ms"),
    ("core.snapshot.append_ms", "ms"),
    ("core.snapshot.recover_ms", "ms"),
    ("core.snapshot.decode_ms", "ms"),
    ("core.snapshot.frame_mb", "MB"),
    ("omeganet.route_ns", "ns"),
    ("omeganet.cheapest_scheme_ns", "ns"),
    ("omeganet.multicast_cost_ns.replicated", "ns"),
    ("omeganet.multicast_cost_ns.bitvector", "ns"),
    ("omeganet.multicast_cost_ns.broadcast_tag", "ns"),
    ("omeganet.destset_union_ns", "ns"),
    ("omeganet.destset_len_ns", "ns"),
    ("omeganet.sharers_mean", "count"),
    ("omeganet.link_load_max_over_mean", "ratio"),
    ("memsys.blockstore_owner_ns", "ns"),
    ("memsys.blockstore_set_owner_ns", "ns"),
    ("memsys.cache_get_ns", "ns"),
    ("memsys.oracle_ns", "ns"),
    ("baselines.ns_per_ref.no_cache", "ns"),
    ("baselines.ns_per_ref.dir_invalidate", "ns"),
    ("baselines.ns_per_ref.update_only", "ns"),
    ("obs.jsonl_encode_mb_s", "MB/s"),
    ("obs.jsonl_decode_mb_s", "MB/s"),
    ("obs.events_per_ref", "event/ref"),
    ("bench.sweep_busy_frac", "ratio"),
    ("bench.sweep_cell_ms.p50", "ms"),
    ("bench.sweep_cell_ms.tail", "ms"),
    ("scenario.parse_ms_total", "ms"),
    ("scenario.run_ms_total", "ms"),
    ("scenario.check_ms_total", "ms"),
    ("trace.refs_per_s_traced", "1/s"),
    ("trace.refs_per_s_untraced", "1/s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the timed phase, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics (end-to-end or per-layer, by mode).
    pub metrics: Report,
    /// Operations issued to the simulator.
    pub attempted: u64,
    /// Operations that returned `Err`.
    pub failed: u64,
}

/// Records `names` as 0: the workload does not exercise that layer.
pub fn not_exercised(report: &mut Report, names: &[&'static str]) {
    for &name in names {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, u)| u)
            .expect("names come from PER_LAYER");
        report.set(name, 0.0, unit);
    }
}

/// Seed of the `i`-th input stream of a run seeded `seed`.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    // SplitMix64 finalizer: distinct, well-mixed streams per index.
    let mut z = seed ^ (i.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed `{value}`"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args, spans: &mut Spans) -> Result<Outcome, String> {
    let mut out = match args.workload.as_str() {
        "fig8-sweep" => fig8::run(args, spans)?,
        "zipf-1024" => zipf::run(args, spans)?,
        "migratory-journal" => migratory::run(args, spans)?,
        "scenario-corpus" => corpus::run(args, spans)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    if args.trace {
        out.metrics.set("trace.spans", spans.len() as f64, "count");
    } else {
        out.metrics.set("peak_rss_mb", layers::peak_rss_mb()?, "MB");
    }
    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in expected {
        match out.metrics.get(name) {
            None => return Err(format!("metric {name} was not measured")),
            Some((v, u)) if u != unit || !v.is_finite() => {
                return Err(format!(
                    "metric {name} = {v} {u}: expected a finite value in {unit}"
                ))
            }
            Some(_) => {}
        }
    }
    if out.metrics.len() != expected.len() {
        return Err("a workload reported a metric outside its list".into());
    }
    if out.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    Ok(out)
}

fn write_spans(args: &Args, spans: &Spans) -> Result<(), String> {
    let dir = Path::new(OUT_DIR);
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}.jsonl", args.workload));
    let file = fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    spans
        .write_jsonl(&mut w)
        .and_then(|()| w.flush())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("spans: {} written to {}", spans.len(), path.display());
    eprintln!("{:<44} {:>12} {:>12}", "span", "total_ms", "self_ms");
    for (name, (total, own)) in spans.self_times() {
        eprintln!(
            "{name:<44} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let mut spans = Spans::new(args.trace);
    let out = match run(&args, &mut spans) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: FAILED: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if args.trace {
        if let Err(e) = write_spans(&args, &spans) {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    }
    eprintln!(
        "{} seed={} trace={}: {} ops attempted, {} failed (ops_failed_frac {})",
        args.workload,
        args.seed,
        u8::from(args.trace),
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted as f64
    );
    let mut fields = Vec::new();
    for (name, value, unit) in out.metrics.iter() {
        eprintln!("  {name:<44} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
