//! Pins the protocol engine's observable behaviour to a committed golden
//! fixture, and proves a deliberately broken action table is caught by it.
//!
//! `fixtures/engine_golden.txt` holds one digest line per cell of the
//! grid below: 2 machine sizes × the four §3 multicast schemes × three
//! mode policies, each driven by a seeded 600-op script with the timing
//! model, the transaction log, structured tracing and three injected
//! ownership-offer NAKs all on. A line digests every per-op
//! [`AccessStats`], the protocol fingerprint, the counters, the total and
//! per-link bits, the drained [`ProtocolEvent`]s (as their JSONL lines)
//! and the [`TraceEvent`] log. Any change to what the protocol does — a
//! message, a state, a counter, an event — moves a line.

use tmc_core::ir::{Guard, ProtocolIr, Rule, Step};
use tmc_core::{AccessStats, Mode, ModePolicy, System, SystemConfig, TraceEvent, PROTOCOL_IR};
use tmc_memsys::WordAddr;
use tmc_obs::jsonl::{fnv1a64_fold, fnv1a64_fold_events, FNV1A64_BASIS};
use tmc_omeganet::{LinkId, SchemeKind, TimingModel};
use tmc_simcore::SimRng;

const FIXTURE: &str = include_str!("fixtures/engine_golden.txt");

const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Replicated,
    SchemeKind::BitVector,
    SchemeKind::BroadcastTag,
    SchemeKind::Combined,
];

const POLICIES: [ModePolicy; 3] = [
    ModePolicy::Fixed(Mode::DistributedWrite),
    ModePolicy::Fixed(Mode::GlobalRead),
    ModePolicy::Adaptive { window: 4 },
];

const SIZES: [usize; 2] = [4, 16];

fn fold_u64(h: u64, x: u64) -> u64 {
    fnv1a64_fold(h, &x.to_le_bytes())
}

/// Drives one cell — optionally on a replacement action table — with its
/// seeded op mix, which exercises every table: hits, cold and invalid
/// misses, ownership migration, mode directives, and (with the small
/// cache) replacements with handoff. Returns the machine and the cell's
/// fixture line: its label, then one digest per observable so a mismatch
/// names what moved.
fn run_cell(
    n: usize,
    scheme: SchemeKind,
    policy: ModePolicy,
    table: Option<&'static ProtocolIr>,
) -> (System, String) {
    let cfg = SystemConfig::new(n)
        .multicast(scheme)
        .mode_policy(policy)
        .cache_blocks(8)
        .timing(TimingModel::default())
        .log_transactions(true);
    let mut sys = System::new(cfg).expect("valid config");
    if let Some(table) = table {
        sys.set_ir_table(table);
    }
    sys.set_tracing(true);
    // Refuse a few ownership offers so the handoff NAK path runs too.
    sys.inject_offer_naks(3);
    let mut rng = SimRng::seed_from(0x1_5EED ^ n as u64);
    // Enough distinct blocks to overflow the small cache, few enough to
    // keep heavy sharing and stale-hint traffic.
    let words = (n as u64) * 24;
    let mut ops = FNV1A64_BASIS;
    for _ in 0..600 {
        let proc = rng.gen_range(0..n);
        let addr = WordAddr::new(rng.gen_range(0..words));
        let stats = match rng.gen_range(0..10u32) {
            0..=4 => sys.read_stats(proc, addr),
            5..=8 => sys.write_stats(proc, addr, rng.next_u64()),
            _ => {
                let mode = if rng.gen_bool(0.5) {
                    Mode::DistributedWrite
                } else {
                    Mode::GlobalRead
                };
                sys.set_mode(proc, addr, mode).map(|()| AccessStats {
                    value: 0,
                    cost_bits: 0,
                    messages: 0,
                    latency_cycles: None,
                })
            }
        }
        .expect("valid proc");
        let latency = stats.latency_cycles.unwrap_or(u64::MAX);
        for x in [stats.value, stats.cost_bits, stats.messages as u64, latency] {
            ops = fold_u64(ops, x);
        }
    }
    let fingerprint = fnv1a64_fold(FNV1A64_BASIS, &sys.protocol_fingerprint());
    let counters = sys.counters().iter().fold(FNV1A64_BASIS, |h, (name, v)| {
        fold_u64(fnv1a64_fold(h, name.as_bytes()), v)
    });
    let traffic = sys.traffic();
    let mut links = FNV1A64_BASIS;
    for layer in 0..traffic.layers() as u32 {
        for line in 0..traffic.n_ports() {
            links = fold_u64(links, traffic.link_bits(LinkId { layer, line }));
        }
    }
    let total_bits = traffic.total_bits();
    let events = sys.drain_trace();
    let events_h = fnv1a64_fold_events(FNV1A64_BASIS, &events);
    let log: Vec<TraceEvent> = sys.take_log();
    let log_h = log.iter().fold(FNV1A64_BASIS, |h, e| {
        fnv1a64_fold(h, format!("{e:?}\n").as_bytes())
    });
    let line = format!(
        "{} ops={ops:016x} fingerprint={fingerprint:016x} counters={counters:016x} \
         bits={total_bits} links={links:016x} events={}/{events_h:016x} log={}/{log_h:016x}",
        cell_label(n, scheme, policy),
        events.len(),
        log.len(),
    );
    (sys, line)
}

fn cell_label(n: usize, scheme: SchemeKind, policy: ModePolicy) -> String {
    let policy = match policy {
        ModePolicy::Fixed(Mode::DistributedWrite) => "dw".into(),
        ModePolicy::Fixed(Mode::GlobalRead) => "gr".into(),
        ModePolicy::Adaptive { window } => format!("adaptive:{window}"),
    };
    format!("n={n} scheme={scheme:?} policy={policy}")
}

fn fixture_line(label: &str) -> Option<&'static str> {
    FIXTURE
        .lines()
        .find(|l| l.starts_with(label) && l.as_bytes().get(label.len()) == Some(&b' '))
}

/// Every cell of the grid reproduces its fixture line exactly, and every
/// final machine satisfies the invariants.
#[test]
fn engine_matches_golden_fixture_across_scheme_policy_grid() {
    let mut actual = String::new();
    let mut moved = Vec::new();
    for n in SIZES {
        for scheme in SCHEMES {
            for policy in POLICIES {
                let (sys, line) = run_cell(n, scheme, policy, None);
                sys.check_invariants().expect("invariants hold");
                let label = cell_label(n, scheme, policy);
                let expected = fixture_line(&label);
                if expected != Some(line.as_str()) {
                    moved.push(format!("expected {expected:?}\n  actual {line}"));
                }
                actual.push_str(&line);
                actual.push('\n');
            }
        }
    }
    assert!(
        moved.is_empty(),
        "{} cell(s) moved:\n{}\n\nfull regenerated fixture:\n{actual}",
        moved.len(),
        moved.join("\n")
    );
    assert_eq!(
        FIXTURE.lines().count(),
        SIZES.len() * SCHEMES.len() * POLICIES.len(),
        "fixture has stray lines"
    );
}

/// A deliberately broken guard is *caught*: swapping the `Dirty`/`Clean`
/// guards on the exclusive-owner replacement rules silently drops
/// write-backs (a dirty victim leaves only a `ReplaceNotice`), so memory
/// goes stale — and the golden comparison reports the divergence instead
/// of accepting the table. This is the negative control for the golden
/// grid above.
#[test]
fn broken_guard_is_caught_by_differential_comparison() {
    let broken_replace: Vec<Rule> = PROTOCOL_IR
        .replace
        .iter()
        .map(|r| match r.name {
            "replace-owned-exclusive-dirty" => Rule {
                when: &[Guard::VictimOwned, Guard::Exclusive, Guard::Clean],
                ..*r
            },
            "replace-owned-exclusive-clean" => Rule {
                when: &[Guard::VictimOwned, Guard::Exclusive, Guard::Dirty],
                ..*r
            },
            _ => *r,
        })
        .collect();
    let table: &'static ProtocolIr = Box::leak(Box::new(ProtocolIr {
        replace: Box::leak(broken_replace.into_boxed_slice()),
        ..PROTOCOL_IR
    }));
    // Sanity: the broken table is wrong, not incomplete — it still keeps
    // the write-back step somewhere.
    assert!(table
        .replace
        .iter()
        .any(|r| r.steps.contains(&Step::MemWriteBackVictim)));

    let (n, scheme, policy) = (4, SchemeKind::Combined, POLICIES[0]);
    let (good, good_line) = run_cell(n, scheme, policy, Some(&PROTOCOL_IR));
    assert!(
        good.counters().get("writebacks") > 0,
        "script must exercise dirty-exclusive replacement for the control to mean anything"
    );
    let expected = fixture_line(&cell_label(n, scheme, policy)).expect("fixture line");
    assert_eq!(good_line, expected, "the real table matches");
    let (_, broken_line) = run_cell(n, scheme, policy, Some(table));
    assert_ne!(
        broken_line, expected,
        "a table with swapped Dirty/Clean guards must not match the golden fixture"
    );
}
