//! Scripted references and the closed loop that issues them.
//!
//! A workload's trace is lowered once, during set-up, to [`Step`]s: writes
//! carry the running stamp `1, 2, 3, …` that `tmc_bench::drive*` uses, and
//! reads carry the value the [`ReferenceMemory`] oracle says they must
//! return. The loop issues each step after the previous one returned and
//! compares every read with its expected value, so checking costs one
//! integer compare inside the timed loop.
//!
//! [`run_chunked`] runs the two single-machine workloads
//! (`zipf-1024`, `migratory-journal`): repeated set-ups, an untimed
//! warm-up, then timed chunks until the time is up.

use std::hint::black_box;
use std::time::Instant;

use tmc_baselines::CoherentSystem;
use tmc_core::{System, SystemConfig};
use tmc_memsys::{ReferenceMemory, WordAddr};
use tmc_workload::{Op, Trace};

use crate::layers::{self, Operands};
use crate::spans::{SpanId, Spans};
use crate::stats::{median, Report};
use crate::{analytic, not_exercised, Args, Outcome};

/// One scripted reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Word accessed.
    pub addr: WordAddr,
    /// The value written, or the value a read must return.
    pub value: u64,
    /// Issuing processor.
    pub proc: u32,
    /// Write (`true`) or read.
    pub write: bool,
}

/// Lowers `trace` to steps, running the oracle alongside.
pub fn script(trace: &Trace) -> Vec<Step> {
    Script::new(trace).steps
}

/// Scripted steps, with the oracle as it stands after all of them.
pub struct Script {
    /// The steps, in issue order.
    pub steps: Vec<Step>,
    oracle: ReferenceMemory,
}

impl Script {
    /// Lowers `trace` to steps, running the oracle alongside.
    pub fn new(trace: &Trace) -> Self {
        let steps = trace
            .iter()
            .map(|r| Step {
                addr: r.addr,
                value: 0,
                proc: r.proc as u32,
                write: r.op == Op::Write,
            })
            .collect();
        let mut script = Script {
            steps,
            oracle: ReferenceMemory::new(),
        };
        script.relap(0);
        script
    }

    /// Re-derives the values of `steps[from..]` so that they can be issued
    /// again once every step has been: writes take the next stamps, reads
    /// the value the oracle holds when they are issued.
    pub fn relap(&mut self, from: usize) {
        for s in &mut self.steps[from..] {
            if s.write {
                s.value = self.oracle.stamp();
                self.oracle.write(s.addr, s.value);
            } else {
                s.value = self.oracle.read(s.addr);
            }
        }
    }
}

/// Fraction of `steps` that are writes.
pub fn write_fraction(steps: &[Step]) -> f64 {
    steps.iter().filter(|s| s.write).count() as f64 / steps.len().max(1) as f64
}

/// A machine the loop can issue references to.
pub trait Target {
    /// Reads a word; `Err` is a failed operation.
    fn read(&mut self, proc: usize, addr: WordAddr) -> Result<u64, String>;
    /// Writes a word; `Err` is a failed operation.
    fn write(&mut self, proc: usize, addr: WordAddr, value: u64) -> Result<(), String>;
}

impl Target for System {
    fn read(&mut self, proc: usize, addr: WordAddr) -> Result<u64, String> {
        System::read(self, proc, addr).map_err(|e| e.to_string())
    }

    fn write(&mut self, proc: usize, addr: WordAddr, value: u64) -> Result<(), String> {
        System::write(self, proc, addr, value).map_err(|e| e.to_string())
    }
}

impl Target for dyn CoherentSystem {
    fn read(&mut self, proc: usize, addr: WordAddr) -> Result<u64, String> {
        Ok(CoherentSystem::read(self, proc, addr))
    }

    fn write(&mut self, proc: usize, addr: WordAddr, value: u64) -> Result<(), String> {
        CoherentSystem::write(self, proc, addr, value);
        Ok(())
    }
}

/// One in this many references is timed on its own in a traced run.
pub const SAMPLE_EVERY: usize = 64;

/// Span names for the sampled reads and writes of one target.
#[derive(Debug, Clone, Copy)]
pub struct CallNames {
    /// Name of a sampled read span.
    pub read: &'static str,
    /// Name of a sampled write span.
    pub write: &'static str,
}

/// The two-mode protocol engine's calls.
pub const CORE_CALLS: CallNames = CallNames {
    read: "core.read",
    write: "core.write",
};

/// A sampled call: (is write, start ns, end ns) relative to a span origin.
pub type Sample = (bool, u64, u64);

/// Issues `steps` in order. Returns the number of `Err` returns; a read
/// that returns anything but its expected value is a correctness failure.
///
/// With `TRACE`, every [`SAMPLE_EVERY`]-th call is timed on its own and
/// pushed to `samples` (times in ns since `origin`).
pub fn execute<T: Target + ?Sized, const TRACE: bool>(
    target: &mut T,
    steps: &[Step],
    origin: Instant,
    samples: &mut Vec<Sample>,
) -> Result<u64, String> {
    let mut failed = 0u64;
    for (i, s) in steps.iter().enumerate() {
        let sampled = TRACE && i % SAMPLE_EVERY == 0;
        let t0 = if sampled {
            origin.elapsed().as_nanos() as u64
        } else {
            0
        };
        let proc = s.proc as usize;
        if s.write {
            if target.write(proc, s.addr, s.value).is_err() {
                failed += 1;
            }
        } else {
            match target.read(proc, s.addr) {
                Ok(got) if got != s.value => {
                    return Err(format!(
                        "stale read at step {i}: P{proc} read word {} = {got}, oracle says {}",
                        s.addr.value(),
                        s.value
                    ));
                }
                Ok(got) => {
                    black_box(got);
                }
                Err(_) => failed += 1,
            }
        }
        if sampled {
            samples.push((s.write, t0, origin.elapsed().as_nanos() as u64));
        }
    }
    Ok(failed)
}

/// [`execute`] that records its samples as spans under `parent`.
pub fn execute_traced<T: Target + ?Sized>(
    target: &mut T,
    steps: &[Step],
    spans: &mut Spans,
    parent: SpanId,
    names: CallNames,
) -> Result<u64, String> {
    if !spans.enabled() {
        return execute::<T, false>(target, steps, spans.origin(), &mut Vec::new());
    }
    let mut samples = Vec::with_capacity(steps.len() / SAMPLE_EVERY + 1);
    let failed = execute::<T, true>(target, steps, spans.origin(), &mut samples)?;
    record_samples(spans, parent, names, &samples);
    Ok(failed)
}

/// Records sampled calls as spans under `parent`.
pub fn record_samples(spans: &mut Spans, parent: SpanId, names: CallNames, samples: &[Sample]) {
    for &(write, t0, t1) in samples {
        let name = if write { names.write } else { names.read };
        spans.record(name, parent, t0, t1);
    }
}

/// A single-machine workload run in timed chunks.
pub struct Chunked {
    /// Generates the run's trace from its seed.
    pub generate: fn(u64) -> Trace,
    /// The machine the trace runs on.
    pub config: fn() -> SystemConfig,
    /// Set-ups per run, before the warm-up; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Untimed references that fill the caches before timing starts.
    pub warmup: usize,
    /// References per timed chunk.
    pub chunk: usize,
    /// Timed chunks every run executes: the deterministic window.
    pub prefix_chunks: usize,
    /// Span of the warm-up.
    pub warmup_span: &'static str,
    /// Span of one timed chunk.
    pub chunk_span: &'static str,
    /// Tasks of the shared-block `analytic_rel_err` probe, run at the
    /// machine's size.
    pub probe_tasks: usize,
    /// Write fraction of the probe.
    pub probe_w: f64,
    /// Per-layer metrics of layers the workload does not exercise.
    pub not_exercised: &'static [&'static str],
}

/// A chunked workload's own work besides issuing references.
pub trait Hook {
    /// Untimed, once, between the warm-up and the first timed chunk.
    fn start(&mut self, _sys: &mut System) -> Result<(), String> {
        Ok(())
    }
    /// Timed, after each chunk's references, under the chunk's span.
    fn timed(
        &mut self,
        _sys: &mut System,
        _spans: &mut Spans,
        _chunk: SpanId,
    ) -> Result<(), String> {
        Ok(())
    }
    /// Untimed, after timed chunk `k` (counted from 0).
    fn untimed(&mut self, _sys: &System, _spans: &mut Spans, _k: usize) -> Result<(), String> {
        Ok(())
    }
    /// Untimed, after the last chunk.
    fn finish(&mut self, _sys: &System, _spans: &mut Spans) -> Result<(), String> {
        Ok(())
    }
    /// The workload's own per-layer metrics, in a traced run.
    fn record(&self, _spans: &Spans, _report: &mut Report) {}
}

impl Hook for () {}

/// Runs `plan`: set up [`Chunked::setup_repeats`] times, issue the warm-up
/// untimed, then issue [`Chunked::chunk`]-reference chunks until the first
/// [`Chunked::prefix_chunks`] have run and `--seconds` of timed work has
/// passed. A trace used up before then is issued again from the end of its
/// warm-up, its values re-derived outside the timer ([`Script::relap`]).
/// Rates are medians over chunks; counts and `bits_per_ref` come from the
/// deterministic window. A traced run alternates untraced and traced
/// chunks.
pub fn run_chunked(
    plan: &Chunked,
    hook: &mut impl Hook,
    args: &Args,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let (mut setup_s, mut gen_s, mut new_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..plan.setup_repeats {
        drop(built.take());
        let t = Instant::now();
        let span = spans.open("workload.generate", 0);
        let trace = (plan.generate)(args.seed);
        gen_s.push(t.elapsed().as_secs_f64());
        spans.close(span);
        let span = spans.open("workload.script", 0);
        let script = Script::new(&trace);
        drop(trace);
        spans.close(span);
        let span = spans.open("core.new", 0);
        let t_new = Instant::now();
        let sys = System::new((plan.config)()).map_err(|e| e.to_string())?;
        new_s.push(t_new.elapsed().as_secs_f64());
        spans.close(span);
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some((script, sys));
    }
    let (mut script, mut sys) = built.expect("at least one set-up");
    let window = plan.warmup..plan.warmup + plan.prefix_chunks * plan.chunk;
    if script.steps.len() < window.end {
        return Err("the trace is shorter than the warm-up and the window".into());
    }
    let mut out = Outcome::default();

    let span = spans.open(plan.warmup_span, 0);
    let warmup = &script.steps[..plan.warmup];
    out.failed += execute::<_, false>(&mut sys, warmup, spans.origin(), &mut Vec::new())?;
    out.attempted += plan.warmup as u64;
    spans.close(span);
    hook.start(&mut sys)?;

    let warm_counters = sys.counters().clone();
    let warm_bits = sys.traffic().total_bits();
    let mut prefix = None;
    let mut rates = [Vec::new(), Vec::new()];
    let mut ns_per_msg = Vec::new();
    let mut timed_ns = 0.0;
    let mut next = plan.warmup;
    let mut k = 0;
    while k < plan.prefix_chunks || timed_ns / 1e9 < args.seconds {
        if next == script.steps.len() {
            let span = spans.open("workload.relap", 0);
            script.relap(plan.warmup);
            spans.close(span);
            next = plan.warmup;
        }
        let chunk = &script.steps[next..(next + plan.chunk).min(script.steps.len())];
        next += chunk.len();
        let traced = args.trace && k % 2 == 1;
        spans.next_pass();
        let msgs0 = sys.counters().get("msgs_total");
        let t0 = spans.now();
        let root = spans.open(plan.chunk_span, 0);
        let id = spans.open("drive.refs", root);
        out.failed += if traced {
            execute_traced(&mut sys, chunk, spans, id, CORE_CALLS)?
        } else {
            execute::<_, false>(&mut sys, chunk, spans.origin(), &mut Vec::new())?
        };
        spans.close(id);
        hook.timed(&mut sys, spans, root)?;
        spans.close(root);
        let ns = (spans.now() - t0) as f64;
        timed_ns += ns;
        out.attempted += chunk.len() as u64;
        rates[usize::from(traced)].push(chunk.len() as f64 / (ns / 1e9));
        ns_per_msg.push(ns / (sys.counters().get("msgs_total") - msgs0) as f64);
        hook.untimed(&sys, spans, k)?;
        k += 1;
        if k == plan.prefix_chunks {
            let ops = args
                .trace
                .then(|| Operands::sample(&sys, &script.steps[window.clone()]));
            prefix = Some((
                sys.counters().clone(),
                sys.traffic().total_bits() - warm_bits,
                ops,
            ));
        }
    }
    hook.finish(&sys, spans)?;
    let (prefix_counters, prefix_bits, prefix_ops) = prefix.expect("the window ran");

    let span = spans.open("core.check_invariants", 0);
    let t = Instant::now();
    sys.check_invariants().map_err(|e| e.to_string())?;
    let invariants_ms = t.elapsed().as_secs_f64() * 1e3;
    spans.close(span);

    let m = &mut out.metrics;
    let window_refs = window.len() as u64;
    if args.trace {
        let reads = script.steps[window].iter().filter(|s| !s.write).count() as u64;
        layers::record_core_counts(&warm_counters, &prefix_counters, window_refs, reads, m);
        layers::record_call_latencies(spans, m);
        let ops = prefix_ops.expect("sampled in a traced run");
        layers::measure(&ops, sys.config().geometry, spans, m);
        m.set(
            "workload.gen_ns_per_ref",
            median(&gen_s) * 1e9 / script.steps.len() as f64,
            "ns",
        );
        m.set("core.new_ms", median(&new_s) * 1e3, "ms");
        m.set("core.invariants_ms", invariants_ms, "ms");
        layers::record_overhead(median(&rates[0]), median(&rates[1]), m);
        hook.record(spans, m);
        not_exercised(m, plan.not_exercised);
    } else {
        m.set("refs_per_s", median(&rates[0]), "1/s");
        m.set("host_ns_per_msg", median(&ns_per_msg), "ns");
        m.set("setup_s", median(&setup_s), "s");
        m.set(
            "bits_per_ref",
            prefix_bits as f64 / window_refs as f64,
            "bit/ref",
        );
        let n = sys.n_procs();
        drop(sys);
        drop(script);
        let span = spans.open("analytic.probe", 0);
        let err = analytic::probe(n, plan.probe_tasks, plan.probe_w, analytic::PROBE_SEED)?;
        m.set("analytic_rel_err", err, "ratio");
        spans.close(span);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmc_core::SystemConfig;
    use tmc_workload::Reference;

    fn trace() -> Trace {
        let mut t = Trace::new(4);
        let a = WordAddr::new(8);
        for (proc, op) in [(0, Op::Write), (1, Op::Read), (0, Op::Write), (2, Op::Read)] {
            t.push(Reference { proc, addr: a, op });
        }
        t
    }

    #[test]
    fn script_carries_stamps_and_expected_reads() {
        let steps = script(&trace());
        let values: Vec<u64> = steps.iter().map(|s| s.value).collect();
        assert_eq!(values, [1, 1, 2, 2]);
        assert_eq!(write_fraction(&steps), 0.5);
    }

    #[test]
    fn a_relapped_script_runs_again_on_the_same_machine() {
        let mut script = Script::new(&trace());
        let mut sys = System::new(SystemConfig::new(4)).unwrap();
        let origin = Instant::now();
        for lap in 0..3 {
            if lap > 0 {
                script.relap(1);
            }
            let from = if lap == 0 { 0 } else { 1 };
            let steps = &script.steps[from..];
            assert_eq!(
                execute::<_, false>(&mut sys, steps, origin, &mut Vec::new()),
                Ok(0)
            );
        }
        let values: Vec<u64> = script.steps.iter().map(|s| s.value).collect();
        assert_eq!(values, [1, 3, 4, 4]);
    }

    fn tiny_trace(seed: u64) -> Trace {
        tmc_workload::SharedBlockWorkload::new(2, 4, 0.3)
            .references(1_000)
            .generate(4, &mut tmc_simcore::SimRng::seed_from(seed))
    }

    #[test]
    fn a_chunked_run_issues_its_trace_again_until_the_time_is_up() {
        let plan = Chunked {
            generate: tiny_trace,
            config: || SystemConfig::new(4),
            setup_repeats: 2,
            warmup: 100,
            chunk: 300,
            prefix_chunks: 2,
            warmup_span: "test.warmup",
            chunk_span: "test.chunk",
            probe_tasks: 2,
            probe_w: 0.3,
            not_exercised: &[],
        };
        let args = Args {
            workload: "test".into(),
            seed: 1,
            seconds: 0.05,
            trace: false,
        };
        let out = run_chunked(&plan, &mut (), &args, &mut Spans::new(false)).unwrap();
        assert!(out.attempted > 10_000, "{} refs", out.attempted);
        assert_eq!(out.failed, 0);
        assert!(out.metrics.get("refs_per_s").is_some());
    }

    #[test]
    fn execute_checks_every_read() {
        let mut sys = System::new(SystemConfig::new(4)).unwrap();
        let mut steps = script(&trace());
        let origin = Instant::now();
        assert_eq!(
            execute::<_, true>(&mut sys, &steps, origin, &mut Vec::new()),
            Ok(0)
        );
        let mut sys = System::new(SystemConfig::new(4)).unwrap();
        steps[3].value = 7;
        let err = execute::<_, false>(&mut sys, &steps, origin, &mut Vec::new()).unwrap_err();
        assert!(err.contains("stale read at step 3"), "{err}");
    }
}
