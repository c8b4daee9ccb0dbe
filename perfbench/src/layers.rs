//! Per-layer measurements taken from outside each crate.
//!
//! The work below `System` (routing, multicast costing and `DestSet`
//! algebra in `tmc-omeganet`; the block store, cache tag array and oracle
//! in `tmc-memsys`) is measured by replaying the workload's own operands
//! through that crate's public API: the (processor, home module) pairs and
//! block addresses of a sample of the workload's references, and the
//! present sets the live machine holds for those blocks
//! ([`System::present_set`]). Each probe repeats its operand batch
//! [`PROBE_REPS`] times, records every repetition as a span, and reports
//! the median time per call.

use std::hint::black_box;

use tmc_core::System;
use tmc_memsys::{
    BlockAddr, BlockStore, CacheArray, CacheId, ModuleMap, MsgSizing, ReferenceMemory,
};
use tmc_omeganet::{DestSet, Omega, SchemeKind};
use tmc_simcore::CounterSet;

use crate::drive::Step;
use crate::spans::{SpanId, Spans};
use crate::stats::{median, Report};

/// Repetitions of each operand batch.
pub const PROBE_REPS: usize = 15;
/// At most this many references are sampled as operands.
pub const MAX_OPERANDS: usize = 4096;

/// Operands sampled from one workload and its live machine.
#[derive(Debug)]
pub struct Operands {
    n_ports: usize,
    pairs: Vec<(usize, usize)>,
    owners: Vec<(BlockAddr, CacheId)>,
    sets: Vec<DestSet>,
    steps: Vec<Step>,
    sharers_mean: f64,
    link_load_max_over_mean: f64,
}

impl Operands {
    /// Samples evenly spaced references of `steps` (at most
    /// [`MAX_OPERANDS`]) and reads back, from `sys`, each sampled block's
    /// owner and present set.
    pub fn sample(sys: &System, steps: &[Step]) -> Self {
        let n = sys.n_procs();
        let spec = sys.config().spec;
        let modules = ModuleMap::new(n);
        let stride = (steps.len() / MAX_OPERANDS).max(1);
        let steps: Vec<Step> = steps
            .iter()
            .step_by(stride)
            .take(MAX_OPERANDS)
            .copied()
            .collect();
        let mut pairs = Vec::with_capacity(steps.len());
        let mut owners = Vec::with_capacity(steps.len());
        let mut sets = Vec::new();
        let mut sharers = 0usize;
        for s in &steps {
            let block = spec.block_of(s.addr);
            pairs.push((s.proc as usize, modules.module_of(block)));
            let owner = sys.owner_of(block).unwrap_or(CacheId(s.proc as u16));
            owners.push((block, owner));
            if let Some(set) = sys.present_set(block).filter(|p| !p.is_empty()) {
                sharers += set.len();
                sets.push(set.clone());
            }
        }
        let sharers_mean = sharers as f64 / sets.len().max(1) as f64;
        let traffic = sys.traffic();
        let mean = traffic.total_bits() as f64 / traffic.links_used().max(1) as f64;
        let hottest = traffic.hottest_link().map_or(0, |(_, bits)| bits) as f64;
        Operands {
            n_ports: n,
            pairs,
            owners,
            sets,
            steps,
            sharers_mean,
            link_load_max_over_mean: if mean > 0.0 { hottest / mean } else { 0.0 },
        }
    }
}

/// Times `batch` [`PROBE_REPS`] times as spans named `name`; returns the
/// median ns per call (`calls` calls per batch).
fn probe(
    spans: &mut Spans,
    parent: SpanId,
    name: &'static str,
    calls: usize,
    mut batch: impl FnMut(),
) -> f64 {
    let mut per_call = Vec::with_capacity(PROBE_REPS);
    for _ in 0..PROBE_REPS {
        let t0 = spans.now();
        batch();
        let t1 = spans.now();
        spans.record(name, parent, t0, t1);
        per_call.push((t1 - t0) as f64 / calls.max(1) as f64);
    }
    median(&per_call)
}

/// Runs every omeganet and memsys probe on `ops` and records the metrics.
pub fn measure(
    ops: &Operands,
    cache: tmc_memsys::CacheGeometry,
    spans: &mut Spans,
    report: &mut Report,
) {
    let root = spans.open("layers.probe", 0);
    let net = Omega::with_ports(ops.n_ports).expect("machine sizes are valid network sizes");
    let bits = MsgSizing::default().update_bits();

    let mut links = Vec::new();
    let route = probe(spans, root, "omeganet.route", ops.pairs.len(), || {
        for &(src, dst) in &ops.pairs {
            net.route_into(src, dst, &mut links);
            black_box(links.len());
        }
    });
    report.set("omeganet.route_ns", route, "ns");

    let cheapest = probe(
        spans,
        root,
        "omeganet.cheapest_scheme",
        ops.sets.len(),
        || {
            for set in &ops.sets {
                black_box(net.cheapest_scheme(black_box(set), bits));
            }
        },
    );
    report.set("omeganet.cheapest_scheme_ns", cheapest, "ns");
    for (kind, span, metric) in [
        (
            SchemeKind::Replicated,
            "omeganet.multicast_cost.replicated",
            "omeganet.multicast_cost_ns.replicated",
        ),
        (
            SchemeKind::BitVector,
            "omeganet.multicast_cost.bitvector",
            "omeganet.multicast_cost_ns.bitvector",
        ),
        (
            SchemeKind::BroadcastTag,
            "omeganet.multicast_cost.broadcast_tag",
            "omeganet.multicast_cost_ns.broadcast_tag",
        ),
    ] {
        let ns = probe(spans, root, span, ops.sets.len(), || {
            for set in &ops.sets {
                black_box(
                    net.multicast_cost(kind, black_box(set), bits)
                        .expect("sets match the network"),
                );
            }
        });
        report.set(metric, ns, "ns");
    }

    let mut acc = DestSet::empty(ops.n_ports);
    let pairs = ops.sets.len().saturating_sub(1);
    let union = probe(spans, root, "omeganet.destset_union", pairs, || {
        for w in ops.sets.windows(2) {
            acc.clone_from(&w[0]);
            acc.union_with(&w[1]);
            black_box(&acc);
        }
    });
    report.set("omeganet.destset_union_ns", union, "ns");
    let len = probe(spans, root, "omeganet.destset_len", ops.sets.len(), || {
        for set in &ops.sets {
            black_box(black_box(set).len());
        }
    });
    report.set("omeganet.destset_len_ns", len, "ns");
    report.set("omeganet.sharers_mean", ops.sharers_mean, "count");
    report.set(
        "omeganet.link_load_max_over_mean",
        ops.link_load_max_over_mean,
        "ratio",
    );

    let mut store = BlockStore::new();
    let set_owner = probe(
        spans,
        root,
        "memsys.blockstore_set_owner",
        ops.owners.len(),
        || {
            for &(block, owner) in &ops.owners {
                store.set_owner(block, owner);
            }
        },
    );
    report.set("memsys.blockstore_set_owner_ns", set_owner, "ns");
    let owner = probe(
        spans,
        root,
        "memsys.blockstore_owner",
        ops.owners.len(),
        || {
            for &(block, _) in &ops.owners {
                black_box(store.owner(black_box(block)));
            }
        },
    );
    report.set("memsys.blockstore_owner_ns", owner, "ns");

    let mut array: CacheArray<u64> = CacheArray::new(cache);
    for &(block, _) in &ops.owners {
        array.insert(block, block.index());
    }
    let get = probe(spans, root, "memsys.cache_get", ops.owners.len(), || {
        for &(block, _) in &ops.owners {
            black_box(array.get(black_box(block)));
        }
    });
    report.set("memsys.cache_get_ns", get, "ns");

    let mut oracle = ReferenceMemory::new();
    let oracle_ns = probe(spans, root, "memsys.oracle", ops.steps.len(), || {
        for s in &ops.steps {
            if s.write {
                oracle.write(s.addr, s.value);
            } else {
                black_box(oracle.read(s.addr));
            }
        }
    });
    report.set("memsys.oracle_ns", oracle_ns, "ns");
    spans.close(root);
}

/// Records the protocol-engine counts of `refs` references (`reads` of
/// them reads) between two counter snapshots of a two-mode machine.
pub fn record_core_counts(
    before: &CounterSet,
    after: &CounterSet,
    refs: u64,
    reads: u64,
    report: &mut Report,
) {
    let d = |name| (after.get(name) - before.get(name)) as f64;
    let per_kref = |n: f64| n * 1000.0 / refs.max(1) as f64;
    report.set(
        "core.read_hit_ratio",
        d("read_hit") / reads.max(1) as f64,
        "ratio",
    );
    report.set(
        "core.msgs_per_ref",
        d("msgs_total") / refs.max(1) as f64,
        "msg/ref",
    );
    report.set(
        "core.replacements_per_kref",
        per_kref(d("replacements")),
        "1/kref",
    );
    report.set(
        "core.ownership_transfers_per_kref",
        per_kref(d("ownership_transfers")),
        "1/kref",
    );
    report.set(
        "core.mode_switches_per_kref",
        per_kref(d("mode_switch_to_dw") + d("mode_switch_to_gr")),
        "1/kref",
    );
    report.set(
        "core.updates_multicast_per_kref",
        per_kref(d("updates_multicast")),
        "1/kref",
    );
}

/// Records `core.read_ns.*` and `core.write_ns.*` from the sampled call
/// spans.
pub fn record_call_latencies(spans: &Spans, report: &mut Report) {
    for (span, p50, tail, samples) in [
        (
            "core.read",
            "core.read_ns.p50",
            "core.read_ns.tail",
            "core.read_ns.samples",
        ),
        (
            "core.write",
            "core.write_ns.p50",
            "core.write_ns.tail",
            "core.write_ns.samples",
        ),
    ] {
        let d = spans.durations(span);
        report.set(p50, median(&d), "ns");
        report.set(tail, crate::stats::tail(&d), "ns");
        report.set(samples, d.len() as f64, "count");
    }
}

/// Records the traced and untraced rates of one traced run and the
/// tracing overhead between them.
pub fn record_overhead(untraced: f64, traced: f64, report: &mut Report) {
    report.set("trace.refs_per_s_untraced", untraced, "1/s");
    report.set("trace.refs_per_s_traced", traced, "1/s");
    report.set("trace.overhead_frac", 1.0 - traced / untraced, "ratio");
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kb / 1024.0)
}
