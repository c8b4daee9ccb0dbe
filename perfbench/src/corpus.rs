//! `scenario-corpus`: the in-process equivalent of
//! `tmc scenario check --all`.
//!
//! Set-up reads and parses every committed `scenarios/*.tmcs` (relative to
//! the checkout root the benchmark runs from), then generates each
//! scenario's op script and builds its machine — the set-up
//! `check_scenario` repeats inside every engine run. One pass runs
//! `check_scenario` on each — the serial engine twice (determinism), the
//! pinned goldens, and the shard and replay engines where they apply — in
//! an order the seed shuffles; the corpus itself is fixed, so its goldens
//! stay pinned. Passes repeat until the time is up. Every machine starts
//! empty: there is no warm-up.

use std::fs;
use std::time::Instant;

use tmc_core::{BatchOp, System};
use tmc_scenario::ops::materialize;
use tmc_scenario::{check_scenario, parse, run_scenario, Family, Scenario};
use tmc_simcore::{CounterSet, SimRng};

use crate::drive::{self, Step, CORE_CALLS};
use crate::layers::{self, Operands};
use crate::spans::Spans;
use crate::stats::median;
use crate::{analytic, not_exercised, sub_seed, Args, Outcome};

const DIR: &str = "scenarios";
/// Set-ups before each pass after the first; `setup_s` is the median of
/// all of them.
const SETUPS_PER_PASS: usize = 3;

/// Times of one set-up, in seconds.
struct SetupTimes {
    parse: f64,
    generate: f64,
    new: f64,
    total: f64,
}

/// One set-up: load the corpus, then generate every op script and build
/// every machine (both dropped: `check_scenario` makes its own). Returns
/// the corpus, the times, and the number of ops generated.
fn setup(spans: &mut Spans) -> Result<(Vec<Scenario>, SetupTimes, u64), String> {
    let t = Instant::now();
    let corpus = load(spans)?;
    let parse = t.elapsed().as_secs_f64();
    let (mut generate, mut new, mut ops) = (0.0, 0.0, 0u64);
    for sc in &corpus {
        let span = spans.open("workload.materialize", 0);
        let t0 = Instant::now();
        ops += materialize(sc).len() as u64;
        let t1 = Instant::now();
        drop(System::new(sc.config()).map_err(|e| format!("scenario {}: {e}", sc.name))?);
        generate += (t1 - t0).as_secs_f64();
        new += t1.elapsed().as_secs_f64();
        spans.close(span);
    }
    let total = t.elapsed().as_secs_f64();
    let times = SetupTimes {
        parse,
        generate,
        new,
        total,
    };
    Ok((corpus, times, ops))
}

/// Reads and parses the corpus, sorted by file name.
fn load(spans: &mut Spans) -> Result<Vec<Scenario>, String> {
    let mut paths: Vec<_> = fs::read_dir(DIR)
        .map_err(|e| format!("{DIR}: {e} (run from the checkout root)"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "tmcs"))
        .collect();
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in &paths {
        let span = spans.open("scenario.parse", 0);
        let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push(parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
        spans.close(span);
    }
    if out.is_empty() {
        return Err(format!("{DIR}: no .tmcs files"));
    }
    Ok(out)
}

/// References executed by one `check_scenario`: two serial runs, one
/// sharded run, and a capture plus a replay.
fn engine_refs(ops: u64, engines: &[&str]) -> u64 {
    let passes = 2 + engines
        .iter()
        .map(|&e| if e == "replay" { 2 } else { 1 })
        .sum::<u64>();
    ops * passes
}

/// Issues a scenario's op script to a fresh machine through the scalar
/// calls (sampled as spans). Reads are checked by `run_scenario`; here they
/// are timed.
fn replay(
    sc: &Scenario,
    script: Vec<BatchOp>,
    spans: &mut Spans,
) -> Result<(System, Vec<Step>, u64), String> {
    let mut sys = System::new(sc.config()).map_err(|e| e.to_string())?;
    let mut steps = Vec::new();
    let mut failed = 0;
    let span = spans.open("scenario.replay", 0);
    for (i, op) in script.into_iter().enumerate() {
        let sampled = i % drive::SAMPLE_EVERY == 0;
        let t0 = if sampled { spans.now() } else { 0 };
        let (name, result) = match op {
            BatchOp::Read { proc, addr } => {
                steps.push(Step {
                    addr,
                    value: 0,
                    proc: proc as u32,
                    write: false,
                });
                (CORE_CALLS.read, sys.read(proc, addr).map(|_| ()))
            }
            BatchOp::Write { proc, addr, value } => {
                steps.push(Step {
                    addr,
                    value,
                    proc: proc as u32,
                    write: true,
                });
                (CORE_CALLS.write, sys.write(proc, addr, value))
            }
            BatchOp::SetMode { proc, addr, mode } => {
                ("core.set_mode", sys.set_mode(proc, addr, mode))
            }
        };
        if sampled {
            let t1 = spans.now();
            spans.record(name, span, t0, t1);
        }
        failed += u64::from(result.is_err());
    }
    spans.close(span);
    Ok((sys, steps, failed))
}

pub fn run(args: &Args, spans: &mut Spans) -> Result<Outcome, String> {
    let (mut corpus, first_times, generated_ops) = setup(spans)?;
    let mut times = vec![first_times];
    SimRng::seed_from(sub_seed(args.seed, 0)).shuffle(&mut corpus);

    let mut out = Outcome::default();
    // check_scenario times per scenario, [untraced, traced]. A pass's time
    // is taken as the sum of per-scenario medians over passes, so a host
    // hiccup in one scenario of one pass does not move the result.
    let mut check_ns: [Vec<Vec<f64>>; 2] = [
        vec![Vec::new(); corpus.len()],
        vec![Vec::new(); corpus.len()],
    ];
    let (mut refs, mut msgs, mut bits, mut ops) = (0u64, 0u64, 0u64, 0u64);
    let mut timed_ns = 0.0;
    let mut pass = 0usize;
    while pass < 2 || timed_ns / 1e9 < args.seconds {
        // Every later pass is preceded by a set-up of its own (untimed for
        // the pass), so the set-up samples spread over the whole run as the
        // passes do.
        if pass > 0 {
            for _ in 0..SETUPS_PER_PASS {
                times.push(setup(spans)?.1);
            }
        }
        // A traced run alternates untraced and traced passes.
        let traced = args.trace && pass % 2 == 1;
        spans.next_pass();
        let root = if traced {
            spans.open("scenario.pass", 0)
        } else {
            0
        };
        for (i, sc) in corpus.iter().enumerate() {
            let c0 = spans.now();
            let report =
                check_scenario(sc, None).map_err(|e| format!("scenario {}: {e}", sc.name))?;
            let c1 = spans.now();
            if traced {
                spans.record("scenario.check", root, c0, c1);
            }
            check_ns[usize::from(traced)][i].push((c1 - c0) as f64);
            timed_ns += (c1 - c0) as f64;
            let r = engine_refs(report.outcome.ops, &report.engines);
            out.attempted += r;
            if pass == 0 {
                refs += r;
                msgs += r / report.outcome.ops.max(1)
                    * report
                        .outcome
                        .counters
                        .get("msgs_total")
                        .copied()
                        .unwrap_or(0);
                bits += report.outcome.total_bits;
                ops += report.outcome.ops;
            }
        }
        spans.close(root);
        pass += 1;
    }
    let setup_median = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    let pass_ns = |t: usize| check_ns[t].iter().map(|v| median(v)).sum::<f64>();

    let m = &mut out.metrics;
    if args.trace {
        // Attribution pass, untimed: each scenario's serial run on its own,
        // then its op script through the scalar calls for the core and
        // network layers. The largest machine feeds the layer probes.
        spans.next_pass();
        let mut run_ns = 0u64;
        let (before, mut after) = (CounterSet::new(), CounterSet::new());
        let (mut all_refs, mut all_reads) = (0u64, 0u64);
        let mut probe: Option<(System, Vec<Step>)> = None;
        for sc in &corpus {
            let t0 = spans.now();
            run_scenario(sc).map_err(|e| format!("scenario {}: {e}", sc.name))?;
            let t1 = spans.now();
            spans.record("scenario.run", 0, t0, t1);
            run_ns += t1 - t0;
            let (sys, steps, failed) = replay(sc, materialize(sc), spans)?;
            out.failed += failed;
            out.attempted += steps.len() as u64;
            after.merge(sys.counters());
            all_refs += steps.len() as u64;
            all_reads += steps.iter().filter(|s| !s.write).count() as u64;
            if probe
                .as_ref()
                .is_none_or(|(p, _)| p.n_procs() < sys.n_procs())
            {
                probe = Some((sys, steps));
            }
        }
        let span = spans.open("core.check_invariants", 0);
        let (sys, steps) = probe.expect("the corpus is not empty");
        sys.check_invariants().map_err(|e| e.to_string())?;
        spans.close(span);
        layers::record_core_counts(&before, &after, all_refs, all_reads, m);
        layers::record_call_latencies(spans, m);
        layers::measure(
            &Operands::sample(&sys, &steps),
            sys.config().geometry,
            spans,
            m,
        );
        m.set(
            "workload.gen_ns_per_ref",
            setup_median(|t| t.generate) * 1e9 / generated_ops as f64,
            "ns",
        );
        m.set("core.new_ms", setup_median(|t| t.new) * 1e3, "ms");
        m.set(
            "core.invariants_ms",
            median(&spans.durations("core.check_invariants")) / 1e6,
            "ms",
        );
        m.set(
            "scenario.parse_ms_total",
            setup_median(|t| t.parse) * 1e3,
            "ms",
        );
        m.set("scenario.run_ms_total", run_ns as f64 / 1e6, "ms");
        m.set("scenario.check_ms_total", pass_ns(1) / 1e6, "ms");
        layers::record_overhead(
            refs as f64 / (pass_ns(0) / 1e9),
            refs as f64 / (pass_ns(1) / 1e9),
            m,
        );
        not_exercised(
            m,
            &[
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
            ],
        );
    } else {
        m.set("refs_per_s", refs as f64 / (pass_ns(0) / 1e9), "1/s");
        m.set("host_ns_per_msg", pass_ns(0) / msgs as f64, "ns");
        m.set("setup_s", setup_median(|t| t.total), "s");
        m.set("bits_per_ref", bits as f64 / ops as f64, "bit/ref");
        // The closed forms describe the shared-block family: probe each
        // shared-block scenario's machine size, sharing set, w and seed.
        let mut errs = Vec::new();
        for sc in &corpus {
            if let Some(w) = sc.workload.as_ref().filter(|w| {
                w.family == Family::SharedBlock && w.write_fraction > 0.0 && w.tasks >= 2
            }) {
                errs.push(analytic::probe(
                    sc.machine.n_caches,
                    w.tasks,
                    w.write_fraction,
                    w.seed,
                )?);
            }
        }
        if errs.is_empty() {
            return Err("the corpus has no shared-block scenario to probe".into());
        }
        m.set(
            "analytic_rel_err",
            errs.iter().sum::<f64>() / errs.len() as f64,
            "ratio",
        );
    }
    Ok(out)
}
