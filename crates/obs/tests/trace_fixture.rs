//! Pins the JSONL trace bytes (format version 1) to a committed fixture.
//!
//! `fixtures/trace_v1.jsonl` holds a header, every `ProtocolEvent`
//! variant with each optional field both present and absent, a cast with
//! several link rows, and a trailer with link rows. The writer must
//! reproduce it byte for byte, and so must decoding it and re-encoding
//! each record, so a format drift shared by both halves of the codec
//! cannot pass unnoticed.

use tmc_memsys::{BlockAddr, WordAddr};
use tmc_obs::jsonl::{encode_record, TraceRecord, TRACE_VERSION};
use tmc_obs::{
    FaultLabel, LinkCharge, ProtocolEvent, TraceHeader, TraceMode, TraceReader, TraceTrailer,
    TraceWriter,
};
use tmc_omeganet::SchemeChoice;

const FIXTURE: &str = include_str!("fixtures/trace_v1.jsonl");

fn header() -> TraceHeader {
    TraceHeader {
        version: TRACE_VERSION,
        n_procs: 256,
        sets: 64,
        ways: 4,
        words_log2: 2,
        scheme: "combined".into(),
        policy: "adaptive:64".into(),
        owner_bypass: false,
    }
}

fn link(layer: u32, line: usize, bits: u64) -> LinkCharge {
    LinkCharge { layer, line, bits }
}

fn events() -> Vec<ProtocolEvent> {
    vec![
        ProtocolEvent::Read {
            proc: 0,
            addr: WordAddr::new(0),
            value: 0,
            hit: true,
            cost_bits: 0,
            latency: None,
            mode: None,
        },
        ProtocolEvent::Read {
            proc: 255,
            addr: WordAddr::new(262_143),
            value: u64::MAX,
            hit: false,
            cost_bits: 1_234_567_890,
            latency: Some(9),
            mode: Some(TraceMode::GlobalRead),
        },
        ProtocolEvent::Write {
            proc: 17,
            addr: WordAddr::new(4_096),
            value: 10,
            hit: false,
            cost_bits: 99,
            latency: Some(100),
            mode: Some(TraceMode::DistributedWrite),
        },
        ProtocolEvent::Write {
            proc: 3,
            addr: WordAddr::new(65),
            value: 1 << 63,
            hit: true,
            cost_bits: 1_000,
            latency: None,
            mode: None,
        },
        ProtocolEvent::SetMode {
            proc: 2,
            addr: WordAddr::new(8),
            mode: TraceMode::GlobalRead,
        },
        ProtocolEvent::SetMode {
            proc: 1,
            addr: WordAddr::new(12),
            mode: TraceMode::DistributedWrite,
        },
        ProtocolEvent::Miss {
            proc: 4,
            block: BlockAddr::new(65_536),
            write: true,
            cold: false,
        },
        ProtocolEvent::Miss {
            proc: 5,
            block: BlockAddr::new(7),
            write: false,
            cold: true,
        },
        ProtocolEvent::ModeSwitch {
            owner: 6,
            block: BlockAddr::new(7),
            to: TraceMode::GlobalRead,
            adaptive: true,
        },
        ProtocolEvent::ModeSwitch {
            owner: 9,
            block: BlockAddr::new(70_000),
            to: TraceMode::DistributedWrite,
            adaptive: false,
        },
        ProtocolEvent::OwnershipTransfer {
            block: BlockAddr::new(7),
            from: 6,
            to: 200,
            handoff: false,
        },
        ProtocolEvent::OwnershipTransfer {
            block: BlockAddr::new(8),
            from: 200,
            to: 6,
            handoff: true,
        },
        ProtocolEvent::Replacement {
            proc: 11,
            block: BlockAddr::new(123_456_789),
            wrote_back: true,
        },
        ProtocolEvent::Replacement {
            proc: 12,
            block: BlockAddr::new(1),
            wrote_back: false,
        },
        ProtocolEvent::Cast {
            from: 200,
            scheme: SchemeChoice::BitVector,
            payload_bits: 34,
            cost_bits: 1_450,
            links: vec![
                link(0, 200, 290),
                link(1, 145, 290),
                link(2, 33, 290),
                link(3, 9, 290),
                link(8, 255, 290),
            ],
        },
        ProtocolEvent::Cast {
            from: 1,
            scheme: SchemeChoice::Replicated,
            payload_bits: 32,
            cost_bits: 0,
            links: vec![],
        },
        ProtocolEvent::Cast {
            from: 0,
            scheme: SchemeChoice::BroadcastTag,
            payload_bits: 40,
            cost_bits: 96,
            links: vec![link(0, 0, 48), link(1, 1, 48)],
        },
        ProtocolEvent::Issue { proc: 0, cycle: 0 },
        ProtocolEvent::Issue {
            proc: 31,
            cycle: 18_446_744_073_709_551_614,
        },
        ProtocolEvent::FaultInjected {
            label: FaultLabel::LinkDown,
            op: 12,
            layer: Some(1),
            line: Some(3),
            cache: Some(0),
            heal_op: Some(40),
        },
        ProtocolEvent::FaultInjected {
            label: FaultLabel::MsgDrop,
            op: 13,
            layer: None,
            line: None,
            cache: None,
            heal_op: None,
        },
        ProtocolEvent::FaultInjected {
            label: FaultLabel::CacheStall,
            op: 14,
            layer: None,
            line: None,
            cache: Some(2),
            heal_op: Some(30),
        },
        ProtocolEvent::FaultInjected {
            label: FaultLabel::MsgDup,
            op: 15,
            layer: None,
            line: None,
            cache: None,
            heal_op: None,
        },
        ProtocolEvent::FaultInjected {
            label: FaultLabel::MsgDelay,
            op: 16,
            layer: None,
            line: None,
            cache: None,
            heal_op: None,
        },
        ProtocolEvent::FaultInjected {
            label: FaultLabel::BitFlip,
            op: 17,
            layer: None,
            line: None,
            cache: Some(5),
            heal_op: None,
        },
        ProtocolEvent::FaultInjected {
            label: FaultLabel::HandoffNak,
            op: 18,
            layer: None,
            line: None,
            cache: None,
            heal_op: Some(22),
        },
        ProtocolEvent::RetryAttempt {
            op: 19,
            proc: 1,
            dest: 6,
            attempt: 0,
            backoff_cycles: 0,
        },
        ProtocolEvent::RetryAttempt {
            op: 20,
            proc: 1,
            dest: 6,
            attempt: u32::MAX,
            backoff_cycles: 4_096,
        },
        ProtocolEvent::Degraded {
            op: 21,
            block: Some(BlockAddr::new(9)),
            cache: None,
            heal_op: 40,
        },
        ProtocolEvent::Degraded {
            op: 22,
            block: None,
            cache: Some(3),
            heal_op: 44,
        },
        ProtocolEvent::Degraded {
            op: 23,
            block: Some(BlockAddr::new(10)),
            cache: Some(4),
            heal_op: 50,
        },
        ProtocolEvent::Degraded {
            op: 24,
            block: None,
            cache: None,
            heal_op: 51,
        },
        ProtocolEvent::Recovered {
            op: 41,
            block: Some(BlockAddr::new(9)),
            cache: None,
            after_ops: 25,
        },
        ProtocolEvent::Recovered {
            op: 45,
            block: None,
            cache: Some(3),
            after_ops: 23,
        },
        ProtocolEvent::Recovered {
            op: 52,
            block: Some(BlockAddr::new(10)),
            cache: Some(4),
            after_ops: 29,
        },
        ProtocolEvent::Recovered {
            op: 53,
            block: None,
            cache: None,
            after_ops: 0,
        },
    ]
}

fn trailer() -> TraceTrailer {
    TraceTrailer {
        events: 0, // overwritten by TraceWriter::finish
        fingerprint: 0xdead_beef_cafe_f00d,
        total_bits: 1_546,
        links: vec![
            link(0, 0, 48),
            link(0, 200, 290),
            link(1, 1, 48),
            link(1, 145, 290),
            link(8, 255, 290),
        ],
    }
}

fn write_trace() -> Vec<u8> {
    let mut w = TraceWriter::new(Vec::new(), &header()).unwrap();
    for e in &events() {
        w.event(e).unwrap();
    }
    w.finish(trailer()).unwrap()
}

#[test]
fn writer_reproduces_the_pinned_fixture() {
    let bytes = write_trace();
    assert_eq!(
        String::from_utf8(bytes).unwrap(),
        FIXTURE,
        "TraceWriter output drifted from fixtures/trace_v1.jsonl"
    );
}

#[test]
fn decode_then_reencode_reproduces_the_pinned_fixture() {
    let (h, evs, t) = TraceReader::new(FIXTURE.as_bytes()).read_all().unwrap();
    assert_eq!(h, header());
    assert_eq!(evs, events());
    assert_eq!(t.events, evs.len() as u64);
    assert_eq!(t.links, trailer().links);

    let mut text = String::new();
    let records = std::iter::once(TraceRecord::Header(h))
        .chain(evs.into_iter().map(TraceRecord::Event))
        .chain(std::iter::once(TraceRecord::Trailer(t)));
    for r in records {
        text.push_str(&encode_record(&r));
        text.push('\n');
    }
    assert_eq!(text, FIXTURE, "decode -> re-encode is not byte-identical");
}
