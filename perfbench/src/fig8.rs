//! `fig8-sweep`: the paper's evaluation grid, as `sim_fig8` runs it.
//!
//! N = 16, the §4 shared-block workload (8 tasks over 16 adjacent blocks)
//! at 8 write fractions, on all 6 systems: 48 independent cells fanned out
//! over `tmc_bench::sweep::map_with_threads` at the host's core count.
//! Each cell builds its machine, runs [`WARMUP`] unbilled references (the
//! caches start empty and the 16-block working set fills them within it),
//! then [`REFS`] billed ones, every read checked against the oracle.
//! One pass is the whole grid; passes repeat until the time is up, each
//! preceded by a fresh set-up of the 8 scripts (`setup_s` is their median).

use std::time::Instant;

use tmc_baselines::{CoherentSystem, DirectoryInvalidateSystem, NoCacheSystem, UpdateOnlySystem};
use tmc_bench::sweep;
use tmc_core::{Mode, ModePolicy, System, SystemConfig};
use tmc_simcore::CounterSet;

use crate::analytic;
use crate::drive::{self, CallNames, Sample, Step, Target, CORE_CALLS};
use crate::layers::{self, Operands};
use crate::spans::Spans;
use crate::stats::{median, tail};
use crate::{not_exercised, sub_seed, Args, Outcome};

const N_PROCS: usize = 16;
const N_TASKS: usize = 8;
/// Billed references per cell.
pub const REFS: usize = 100_000;
/// Unbilled warm-up references per cell.
pub const WARMUP: usize = 4_000;
const WS: [f64; 8] = [0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9];
const SYSTEMS: [&str; 6] = [
    "no-cache",
    "dir-invalidate",
    "update-only",
    "two-mode DW",
    "two-mode GR",
    "two-mode adaptive",
];
const CELL_SPANS: [&str; 6] = [
    "fig8.cell.no_cache",
    "fig8.cell.dir_invalidate",
    "fig8.cell.update_only",
    "fig8.cell.two_mode_dw",
    "fig8.cell.two_mode_gr",
    "fig8.cell.two_mode_adaptive",
];
const BASELINE_CALLS: CallNames = CallNames {
    read: "baselines.read",
    write: "baselines.write",
};
const DW: usize = 3;
const GR: usize = 4;
const ADAPTIVE: usize = 5;
/// The write-fraction index whose adaptive machine feeds the layer probes.
const PROBE_W: usize = 3;

/// One cell's result.
struct Cell {
    sys_idx: usize,
    billed_bits: u64,
    msgs: u64,
    failed: u64,
    start_ns: u64,
    end_ns: u64,
    new_ns: u64,
    samples: Vec<Sample>,
    counters: CounterSet,
    machine: Option<System>,
}

fn two_mode_policy(sys_idx: usize) -> Option<ModePolicy> {
    match sys_idx {
        DW => Some(ModePolicy::Fixed(Mode::DistributedWrite)),
        GR => Some(ModePolicy::Fixed(Mode::GlobalRead)),
        ADAPTIVE => Some(ModePolicy::Adaptive { window: 64 }),
        _ => None,
    }
}

fn baseline(sys_idx: usize) -> Box<dyn CoherentSystem> {
    match sys_idx {
        0 => Box::new(NoCacheSystem::new(N_PROCS)),
        1 => Box::new(DirectoryInvalidateSystem::new(N_PROCS)),
        _ => Box::new(UpdateOnlySystem::new(N_PROCS)),
    }
}

fn drive_cell<T: Target + ?Sized>(
    t: &mut T,
    steps: &[Step],
    origin: Instant,
    samples: &mut Vec<Sample>,
    trace: bool,
    bits: impl Fn(&T) -> u64,
) -> Result<(u64, u64), String> {
    let run = |t: &mut T, s: &[Step], samples: &mut Vec<Sample>| {
        if trace {
            drive::execute::<T, true>(t, s, origin, samples)
        } else {
            drive::execute::<T, false>(t, s, origin, samples)
        }
    };
    let mut failed = run(t, &steps[..WARMUP], samples)?;
    let warm = bits(t);
    failed += run(t, &steps[WARMUP..], samples)?;
    Ok((failed, bits(t) - warm))
}

fn run_cell(sys_idx: usize, steps: &[Step], origin: Instant, trace: bool) -> Result<Cell, String> {
    let now = || origin.elapsed().as_nanos() as u64;
    let start_ns = now();
    let mut samples = Vec::new();
    let cell = match two_mode_policy(sys_idx) {
        Some(policy) => {
            let t0 = now();
            let mut sys = System::new(SystemConfig::new(N_PROCS).mode_policy(policy))
                .map_err(|e| e.to_string())?;
            let new_ns = now() - t0;
            let (failed, billed_bits) =
                drive_cell(&mut sys, steps, origin, &mut samples, trace, |s| {
                    s.traffic().total_bits()
                })?;
            Cell {
                sys_idx,
                billed_bits,
                msgs: sys.counters().get("msgs_total"),
                failed,
                start_ns,
                end_ns: now(),
                new_ns,
                samples,
                counters: sys.counters().clone(),
                machine: Some(sys),
            }
        }
        None => {
            let mut sys = baseline(sys_idx);
            let (failed, billed_bits) =
                drive_cell(sys.as_mut(), steps, origin, &mut samples, trace, |s| {
                    s.total_traffic_bits()
                })?;
            Cell {
                sys_idx,
                billed_bits,
                msgs: sys.counters().get("msgs_total"),
                failed,
                start_ns,
                end_ns: now(),
                new_ns: 0,
                samples,
                counters: CounterSet::new(),
                machine: None,
            }
        }
    };
    Ok(cell)
}

/// Generates the 8 per-write-fraction scripts.
fn setup(seed: u64) -> Vec<Vec<Step>> {
    WS.iter()
        .enumerate()
        .map(|(i, &w)| {
            analytic::shared_block_steps(
                N_PROCS,
                N_TASKS,
                w,
                WARMUP + REFS,
                sub_seed(seed, i as u64),
            )
        })
        .collect()
}

pub fn run(args: &Args, spans: &mut Spans) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut scripts = Vec::new();
    let refs_per_pass = (WS.len() * SYSTEMS.len() * (WARMUP + REFS)) as u64;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cells: Vec<(usize, usize)> = (0..WS.len())
        .flat_map(|w| (0..SYSTEMS.len()).map(move |s| (w, s)))
        .collect();

    let mut out = Outcome::default();
    let mut rates = [Vec::new(), Vec::new()];
    let mut ns_per_msg = Vec::new();
    let mut cell_ms = Vec::new();
    let mut busy = Vec::new();
    let mut baseline_ns = [0u64; 3];
    let mut new_ns = Vec::new();
    let mut first: Option<Vec<Cell>> = None;
    let mut timed_ns = 0.0;
    let mut pass = 0usize;
    // A traced run alternates untraced and traced passes, so the two
    // rates see the same host conditions.
    while pass < 2 || timed_ns / 1e9 < args.seconds {
        // Every pass is preceded by a set-up (untimed for the pass), so the
        // set-up samples spread over the whole run as the passes do.
        let span = spans.open("workload.generate", 0);
        drop(std::mem::take(&mut scripts));
        let t = Instant::now();
        scripts = setup(args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        spans.close(span);
        let traced = args.trace && pass % 2 == 1;
        spans.next_pass();
        let origin = spans.origin();
        let t0 = spans.now();
        let results = sweep::map_with_threads(threads, cells.clone(), |(w, s)| {
            run_cell(s, &scripts[w], origin, traced)
        });
        let t1 = spans.now();
        let results = results.into_iter().collect::<Result<Vec<Cell>, String>>()?;
        let wall = (t1 - t0) as f64;
        timed_ns += wall;
        rates[usize::from(traced)].push(refs_per_pass as f64 / (wall / 1e9));
        let msgs: u64 = results.iter().map(|c| c.msgs).sum();
        ns_per_msg.push(wall / msgs as f64);
        out.attempted += refs_per_pass;
        out.failed += results.iter().map(|c| c.failed).sum::<u64>();
        let cell_sum: u64 = results.iter().map(|c| c.end_ns - c.start_ns).sum();
        busy.push(cell_sum as f64 / (threads as f64 * wall));
        if traced {
            let root = spans.record("fig8.pass", 0, t0, t1);
            for c in &results {
                let id = spans.record(CELL_SPANS[c.sys_idx], root, c.start_ns, c.end_ns);
                let names = if c.machine.is_some() {
                    CORE_CALLS
                } else {
                    BASELINE_CALLS
                };
                drive::record_samples(spans, id, names, &c.samples);
            }
        }
        for c in &results {
            cell_ms.push((c.end_ns - c.start_ns) as f64 / 1e6);
            if c.sys_idx < 3 {
                baseline_ns[c.sys_idx] += c.end_ns - c.start_ns;
            }
            if c.machine.is_some() {
                new_ns.push(c.new_ns as f64);
            }
        }
        // Invariants of every two-mode machine, after the pass and untimed.
        let inv = spans.open("core.check_invariants", 0);
        for c in &results {
            if let Some(sys) = &c.machine {
                sys.check_invariants()
                    .map_err(|e| format!("{} cell: {e}", SYSTEMS[c.sys_idx]))?;
            }
        }
        spans.close(inv);
        if first.is_none() {
            first = Some(results);
        }
        pass += 1;
    }
    let first = first.expect("at least two passes ran");
    let m = &mut out.metrics;
    if args.trace {
        let adaptive: Vec<&Cell> = first.iter().filter(|c| c.sys_idx == ADAPTIVE).collect();
        let zero = CounterSet::new();
        let mut sum = CounterSet::new();
        for c in &adaptive {
            sum.merge(&c.counters);
        }
        let reads: usize = scripts
            .iter()
            .map(|s| s.iter().filter(|x| !x.write).count())
            .sum();
        layers::record_core_counts(
            &zero,
            &sum,
            (adaptive.len() * (WARMUP + REFS)) as u64,
            reads as u64,
            m,
        );
        layers::record_call_latencies(spans, m);
        let probe_cell = adaptive[PROBE_W];
        let sys = probe_cell
            .machine
            .as_ref()
            .expect("two-mode cells keep their machine");
        layers::measure(
            &Operands::sample(sys, &scripts[PROBE_W]),
            sys.config().geometry,
            spans,
            m,
        );
        let gen_refs = (WS.len() * (WARMUP + REFS)) as f64;
        m.set(
            "workload.gen_ns_per_ref",
            median(&setup_s) * 1e9 / gen_refs,
            "ns",
        );
        m.set("core.new_ms", median(&new_ns) / 1e6, "ms");
        let inv = spans.durations("core.check_invariants");
        m.set("core.invariants_ms", median(&inv) / 1e6, "ms");
        let per_system_refs = (pass * WS.len() * (WARMUP + REFS)) as f64;
        for (i, name) in [
            "baselines.ns_per_ref.no_cache",
            "baselines.ns_per_ref.dir_invalidate",
            "baselines.ns_per_ref.update_only",
        ]
        .into_iter()
        .enumerate()
        {
            m.set(name, baseline_ns[i] as f64 / per_system_refs, "ns");
        }
        m.set("bench.sweep_busy_frac", median(&busy), "ratio");
        m.set("bench.sweep_cell_ms.p50", median(&cell_ms), "ms");
        m.set("bench.sweep_cell_ms.tail", tail(&cell_ms), "ms");
        layers::record_overhead(median(&rates[0]), median(&rates[1]), m);
        not_exercised(
            m,
            &[
                "core.snapshot.encode_ms",
                "core.snapshot.append_ms",
                "core.snapshot.recover_ms",
                "core.snapshot.decode_ms",
                "core.snapshot.frame_mb",
                "obs.jsonl_encode_mb_s",
                "obs.jsonl_decode_mb_s",
                "obs.events_per_ref",
                "scenario.parse_ms_total",
                "scenario.run_ms_total",
                "scenario.check_ms_total",
            ],
        );
    } else {
        let billed: u64 = first.iter().map(|c| c.billed_bits).sum();
        m.set(
            "bits_per_ref",
            billed as f64 / (first.len() * REFS) as f64,
            "bit/ref",
        );
        let mut err = 0.0;
        for (i, &w) in WS.iter().enumerate() {
            err += analytic::probe(N_PROCS, N_TASKS, w, analytic::PROBE_SEED + i as u64)?
                / WS.len() as f64;
        }
        m.set("analytic_rel_err", err, "ratio");
        m.set("refs_per_s", median(&rates[0]), "1/s");
        m.set("host_ns_per_msg", median(&ns_per_msg), "ns");
        m.set("setup_s", median(&setup_s), "s");
    }
    Ok(out)
}
