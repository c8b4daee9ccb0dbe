//! The replayable JSONL trace format.
//!
//! A trace is a text file with one JSON object per line:
//!
//! ```text
//! {"type":"header","version":1,"n_procs":4,...}   <- run configuration
//! {"type":"read","proc":0,"addr":64,...}          <- one line per event
//! ...
//! {"type":"trailer","events":912,"fingerprint":...,"total_bits":...,"links":[...]}
//! ```
//!
//! The header carries enough configuration to rebuild an identical
//! `System`; the trailer pins three independent checks — the FNV-1a hash of
//! the protocol fingerprint, the total bits charged, and every nonzero
//! per-link bit charge — so a replay harness can re-execute the `Read` /
//! `Write` / `SetMode` events and assert the run reproduces exactly. The
//! codec is dependency-free (see [`crate::json`]); the optional `serde`
//! feature only gates derive placeholders, not this sink.

use std::io::{self, BufRead, Write};

use crate::event::{
    parse_scheme_choice, scheme_choice_str, FaultLabel, LinkCharge, ProtocolEvent, TraceMode,
};
use crate::json::{parse_object, JsonValue, ObjectWriter};
use tmc_memsys::{BlockAddr, WordAddr};

/// Current trace-format version; bumped on incompatible encoding changes.
pub const TRACE_VERSION: u64 = 1;

/// FNV-1a 64-bit offset basis: the hash of no bytes, and the start state
/// of every streaming [`fnv1a64_fold`].
pub const FNV1A64_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

const FNV1A64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues the FNV-1a 64-bit hash state `h` over `bytes`. Folding chunks
/// one after another from [`FNV1A64_BASIS`] gives the [`fnv1a64`] of their
/// concatenation.
pub fn fnv1a64_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV1A64_PRIME);
    }
    h
}

/// FNV-1a hash of `bytes`, used to pin protocol fingerprints in trailers.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_fold(FNV1A64_BASIS, bytes)
}

/// Continues the FNV-1a state `h` over each event's JSONL line plus its
/// `\n` — the event lines exactly as [`TraceWriter`] writes them — so a
/// whole trace's events can be pinned in one word without keeping the
/// text.
pub fn fnv1a64_fold_events<'a>(
    mut h: u64,
    events: impl IntoIterator<Item = &'a ProtocolEvent>,
) -> u64 {
    let mut line = Vec::new();
    for e in events {
        line.clear();
        encode_event_into(e, &mut line);
        line.push(b'\n');
        h = fnv1a64_fold(h, &line);
    }
    h
}

/// The first record of a trace: the run configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TraceHeader {
    /// Trace-format version ([`TRACE_VERSION`]).
    pub version: u64,
    /// Number of processors/caches (power of two).
    pub n_procs: usize,
    /// Cache sets.
    pub sets: usize,
    /// Cache ways.
    pub ways: usize,
    /// log2 words per block.
    pub words_log2: u32,
    /// Multicast scheme: `replicated`, `bitvector`, `broadcast-tag`,
    /// `combined`.
    pub scheme: String,
    /// Mode policy: `fixed-dw`, `fixed-gr`, or `adaptive:<window>`.
    pub policy: String,
    /// Whether the OWNER-hint bypass is on.
    pub owner_bypass: bool,
}

/// The last record of a trace: the replay-check obligations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TraceTrailer {
    /// Number of event records between header and trailer.
    pub events: u64,
    /// [`fnv1a64`] of the system's protocol fingerprint bytes.
    pub fingerprint: u64,
    /// Total bits charged across all network links.
    pub total_bits: u64,
    /// Every nonzero per-link charge, as `(layer, line, bits)`.
    pub links: Vec<LinkCharge>,
}

/// One parsed trace line.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// The configuration record.
    Header(TraceHeader),
    /// A protocol event.
    Event(ProtocolEvent),
    /// The closing check record.
    Trailer(TraceTrailer),
}

/// Narrows a decoded integer to `u32`, naming the field when it does not fit.
fn narrow_u32(field: &str, v: u64) -> Result<u32, String> {
    u32::try_from(v).map_err(|_| format!("{field} {v} does not fit in 32 bits"))
}

fn rows_to_links(rows: &[Vec<u64>]) -> Result<Vec<LinkCharge>, String> {
    rows.iter()
        .map(|row| match row[..] {
            [layer, line, bits] => Ok(LinkCharge {
                layer: narrow_u32("link layer", layer)?,
                line: line as usize,
                bits,
            }),
            _ => Err("link charge row must be [layer,line,bits]".into()),
        })
        .collect()
}

/// Encodes one record as a single JSON line (no trailing newline).
pub fn encode_record(record: &TraceRecord) -> String {
    let mut out = Vec::new();
    encode_record_into(record, &mut out);
    String::from_utf8(out).expect("the encoder writes only UTF-8")
}

/// Appends one record's JSON line (no trailing newline) to `out`.
pub fn encode_record_into(record: &TraceRecord, out: &mut Vec<u8>) {
    match record {
        TraceRecord::Header(h) => encode_header_into(h, out),
        TraceRecord::Event(e) => encode_event_into(e, out),
        TraceRecord::Trailer(t) => encode_trailer_into(t, out),
    }
}

fn encode_header_into(h: &TraceHeader, out: &mut Vec<u8>) {
    let mut w = ObjectWriter::new(out);
    w.str("type", "header")
        .int("version", h.version)
        .int("n_procs", h.n_procs as u64)
        .int("sets", h.sets as u64)
        .int("ways", h.ways as u64)
        .int("words_log2", u64::from(h.words_log2))
        .str("scheme", &h.scheme)
        .str("policy", &h.policy)
        .bool("owner_bypass", h.owner_bypass);
    w.finish();
}

fn encode_trailer_into(t: &TraceTrailer, out: &mut Vec<u8>) {
    let mut w = ObjectWriter::new(out);
    w.str("type", "trailer")
        .int("events", t.events)
        .int("fingerprint", t.fingerprint)
        .int("total_bits", t.total_bits)
        .links("links", &t.links);
    w.finish();
}

/// Appends one event's JSON line (no trailing newline) to `out`, acquiring
/// no heap memory beyond what `out` needs to grow.
fn encode_event_into(e: &ProtocolEvent, out: &mut Vec<u8>) {
    let mut w = ObjectWriter::new(out);
    w.str("type", e.kind());
    match e {
        ProtocolEvent::Read {
            proc,
            addr,
            value,
            hit,
            cost_bits,
            latency,
            mode,
        }
        | ProtocolEvent::Write {
            proc,
            addr,
            value,
            hit,
            cost_bits,
            latency,
            mode,
        } => {
            w.int("proc", *proc as u64)
                .int("addr", addr.value())
                .int("value", *value)
                .bool("hit", *hit)
                .int("cost_bits", *cost_bits);
            if let Some(l) = latency {
                w.int("latency", *l);
            }
            if let Some(m) = mode {
                w.str("mode", m.as_str());
            }
        }
        ProtocolEvent::SetMode { proc, addr, mode } => {
            w.int("proc", *proc as u64)
                .int("addr", addr.value())
                .str("mode", mode.as_str());
        }
        ProtocolEvent::Miss {
            proc,
            block,
            write,
            cold,
        } => {
            w.int("proc", *proc as u64)
                .int("block", block.index())
                .bool("write", *write)
                .bool("cold", *cold);
        }
        ProtocolEvent::ModeSwitch {
            owner,
            block,
            to,
            adaptive,
        } => {
            w.int("owner", *owner as u64)
                .int("block", block.index())
                .str("to", to.as_str())
                .bool("adaptive", *adaptive);
        }
        ProtocolEvent::OwnershipTransfer {
            block,
            from,
            to,
            handoff,
        } => {
            w.int("block", block.index())
                .int("from", *from as u64)
                .int("to", *to as u64)
                .bool("handoff", *handoff);
        }
        ProtocolEvent::Replacement {
            proc,
            block,
            wrote_back,
        } => {
            w.int("proc", *proc as u64)
                .int("block", block.index())
                .bool("wrote_back", *wrote_back);
        }
        ProtocolEvent::Cast {
            from,
            scheme,
            payload_bits,
            cost_bits,
            links,
        } => {
            w.int("from", *from as u64)
                .str("scheme", scheme_choice_str(*scheme))
                .int("payload_bits", *payload_bits)
                .int("cost_bits", *cost_bits)
                .links("links", links);
        }
        ProtocolEvent::Issue { proc, cycle } => {
            w.int("proc", *proc as u64).int("cycle", *cycle);
        }
        ProtocolEvent::FaultInjected {
            label,
            op,
            layer,
            line,
            cache,
            heal_op,
        } => {
            w.str("label", label.as_str()).int("op", *op);
            if let Some(l) = layer {
                w.int("layer", u64::from(*l));
            }
            if let Some(l) = line {
                w.int("line", *l as u64);
            }
            if let Some(c) = cache {
                w.int("cache", *c as u64);
            }
            if let Some(h) = heal_op {
                w.int("heal_op", *h);
            }
        }
        ProtocolEvent::RetryAttempt {
            op,
            proc,
            dest,
            attempt,
            backoff_cycles,
        } => {
            w.int("op", *op)
                .int("proc", *proc as u64)
                .int("dest", *dest as u64)
                .int("attempt", u64::from(*attempt))
                .int("backoff_cycles", *backoff_cycles);
        }
        ProtocolEvent::Degraded {
            op,
            block,
            cache,
            heal_op,
        } => {
            w.int("op", *op);
            if let Some(b) = block {
                w.int("block", b.index());
            }
            if let Some(c) = cache {
                w.int("cache", *c as u64);
            }
            w.int("heal_op", *heal_op);
        }
        ProtocolEvent::Recovered {
            op,
            block,
            cache,
            after_ops,
        } => {
            w.int("op", *op);
            if let Some(b) = block {
                w.int("block", b.index());
            }
            if let Some(c) = cache {
                w.int("cache", *c as u64);
            }
            w.int("after_ops", *after_ops);
        }
    }
    w.finish();
}

struct Fields {
    map: std::collections::BTreeMap<String, JsonValue>,
}

impl Fields {
    fn int(&self, key: &str) -> Result<u64, String> {
        self.map
            .get(key)
            .and_then(JsonValue::as_int)
            .ok_or_else(|| format!("missing integer field '{key}'"))
    }

    fn opt_int(&self, key: &str) -> Result<Option<u64>, String> {
        self.map
            .get(key)
            .map(|v| {
                v.as_int()
                    .ok_or_else(|| format!("field '{key}' is not an integer"))
            })
            .transpose()
    }

    fn u32(&self, key: &str) -> Result<u32, String> {
        narrow_u32(key, self.int(key)?)
    }

    fn opt_u32(&self, key: &str) -> Result<Option<u32>, String> {
        self.opt_int(key)?.map(|v| narrow_u32(key, v)).transpose()
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.map
            .get(key)
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("missing string field '{key}'"))
    }

    fn bool(&self, key: &str) -> Result<bool, String> {
        self.map
            .get(key)
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| format!("missing boolean field '{key}'"))
    }

    fn links(&self, key: &str) -> Result<Vec<LinkCharge>, String> {
        rows_to_links(
            self.map
                .get(key)
                .and_then(JsonValue::as_arr)
                .ok_or_else(|| format!("missing array field '{key}'"))?,
        )
    }

    fn mode(&self, key: &str) -> Result<TraceMode, String> {
        let s = self.str(key)?;
        TraceMode::parse(s).ok_or_else(|| format!("bad mode '{s}'"))
    }
}

/// Parses one JSON line back into a [`TraceRecord`].
pub fn parse_record(line: &str) -> Result<TraceRecord, String> {
    let f = Fields {
        map: parse_object(line)?,
    };
    let kind = f.str("type")?.to_owned();
    let event = match kind.as_str() {
        "header" => {
            return Ok(TraceRecord::Header(TraceHeader {
                version: f.int("version")?,
                n_procs: f.int("n_procs")? as usize,
                sets: f.int("sets")? as usize,
                ways: f.int("ways")? as usize,
                words_log2: f.u32("words_log2")?,
                scheme: f.str("scheme")?.to_owned(),
                policy: f.str("policy")?.to_owned(),
                owner_bypass: f.bool("owner_bypass")?,
            }))
        }
        "trailer" => {
            return Ok(TraceRecord::Trailer(TraceTrailer {
                events: f.int("events")?,
                fingerprint: f.int("fingerprint")?,
                total_bits: f.int("total_bits")?,
                links: f.links("links")?,
            }))
        }
        "read" | "write" => {
            let proc = f.int("proc")? as usize;
            let addr = WordAddr::new(f.int("addr")?);
            let value = f.int("value")?;
            let hit = f.bool("hit")?;
            let cost_bits = f.int("cost_bits")?;
            let latency = f.opt_int("latency")?;
            let mode = match f.map.get("mode") {
                Some(_) => Some(f.mode("mode")?),
                None => None,
            };
            if kind == "read" {
                ProtocolEvent::Read {
                    proc,
                    addr,
                    value,
                    hit,
                    cost_bits,
                    latency,
                    mode,
                }
            } else {
                ProtocolEvent::Write {
                    proc,
                    addr,
                    value,
                    hit,
                    cost_bits,
                    latency,
                    mode,
                }
            }
        }
        "set_mode" => ProtocolEvent::SetMode {
            proc: f.int("proc")? as usize,
            addr: WordAddr::new(f.int("addr")?),
            mode: f.mode("mode")?,
        },
        "miss" => ProtocolEvent::Miss {
            proc: f.int("proc")? as usize,
            block: BlockAddr::new(f.int("block")?),
            write: f.bool("write")?,
            cold: f.bool("cold")?,
        },
        "mode_switch" => ProtocolEvent::ModeSwitch {
            owner: f.int("owner")? as usize,
            block: BlockAddr::new(f.int("block")?),
            to: f.mode("to")?,
            adaptive: f.bool("adaptive")?,
        },
        "ownership_transfer" => ProtocolEvent::OwnershipTransfer {
            block: BlockAddr::new(f.int("block")?),
            from: f.int("from")? as usize,
            to: f.int("to")? as usize,
            handoff: f.bool("handoff")?,
        },
        "replacement" => ProtocolEvent::Replacement {
            proc: f.int("proc")? as usize,
            block: BlockAddr::new(f.int("block")?),
            wrote_back: f.bool("wrote_back")?,
        },
        "cast" => {
            let s = f.str("scheme")?;
            ProtocolEvent::Cast {
                from: f.int("from")? as usize,
                scheme: parse_scheme_choice(s).ok_or_else(|| format!("bad scheme '{s}'"))?,
                payload_bits: f.int("payload_bits")?,
                cost_bits: f.int("cost_bits")?,
                links: f.links("links")?,
            }
        }
        "issue" => ProtocolEvent::Issue {
            proc: f.int("proc")? as usize,
            cycle: f.int("cycle")?,
        },
        "fault" => {
            let s = f.str("label")?;
            ProtocolEvent::FaultInjected {
                label: FaultLabel::parse(s).ok_or_else(|| format!("bad fault label '{s}'"))?,
                op: f.int("op")?,
                layer: f.opt_u32("layer")?,
                line: f.opt_int("line")?.map(|v| v as usize),
                cache: f.opt_int("cache")?.map(|v| v as usize),
                heal_op: f.opt_int("heal_op")?,
            }
        }
        "retry" => ProtocolEvent::RetryAttempt {
            op: f.int("op")?,
            proc: f.int("proc")? as usize,
            dest: f.int("dest")? as usize,
            attempt: f.u32("attempt")?,
            backoff_cycles: f.int("backoff_cycles")?,
        },
        "degraded" => ProtocolEvent::Degraded {
            op: f.int("op")?,
            block: f.opt_int("block")?.map(BlockAddr::new),
            cache: f.opt_int("cache")?.map(|v| v as usize),
            heal_op: f.int("heal_op")?,
        },
        "recovered" => ProtocolEvent::Recovered {
            op: f.int("op")?,
            block: f.opt_int("block")?.map(BlockAddr::new),
            cache: f.opt_int("cache")?.map(|v| v as usize),
            after_ops: f.int("after_ops")?,
        },
        other => return Err(format!("unknown record type '{other}'")),
    };
    Ok(TraceRecord::Event(event))
}

/// Writes trace records to any [`Write`] sink, one JSON line each.
///
/// Each record is encoded into one reused line buffer and handed to the
/// sink in a single `write_all`; once the buffer has held the longest line,
/// writing an event acquires no heap memory of its own.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    events: u64,
    line: Vec<u8>,
}

impl<W: Write> TraceWriter<W> {
    /// Wraps `out` and writes the header line.
    pub fn new(out: W, header: &TraceHeader) -> io::Result<Self> {
        let mut w = TraceWriter {
            out,
            events: 0,
            line: Vec::new(),
        };
        encode_header_into(header, &mut w.line);
        w.write_line()?;
        Ok(w)
    }

    /// Terminates the buffered line, writes it, and empties the buffer.
    fn write_line(&mut self) -> io::Result<()> {
        self.line.push(b'\n');
        let result = self.out.write_all(&self.line);
        self.line.clear();
        result
    }

    /// Writes one event line.
    pub fn event(&mut self, event: &ProtocolEvent) -> io::Result<()> {
        encode_event_into(event, &mut self.line);
        self.write_line()?;
        self.events += 1;
        Ok(())
    }

    /// Number of event lines written so far.
    pub fn events_written(&self) -> u64 {
        self.events
    }

    /// Writes the trailer line and returns the underlying sink.
    ///
    /// `trailer.events` is overwritten with the actual count written.
    pub fn finish(mut self, mut trailer: TraceTrailer) -> io::Result<W> {
        trailer.events = self.events;
        encode_trailer_into(&trailer, &mut self.line);
        self.write_line()?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Reads trace records from any [`BufRead`] source, skipping blank lines.
#[derive(Debug)]
pub struct TraceReader<R: BufRead> {
    lines: std::io::Lines<R>,
    line_no: usize,
}

impl<R: BufRead> TraceReader<R> {
    /// Wraps `input`.
    pub fn new(input: R) -> Self {
        TraceReader {
            lines: input.lines(),
            line_no: 0,
        }
    }

    /// Reads the next record, or `None` at end of input.
    #[allow(clippy::should_implement_trait)] // fallible next; Iterator is derived below
    pub fn next(&mut self) -> Option<Result<TraceRecord, String>> {
        loop {
            self.line_no += 1;
            match self.lines.next()? {
                Err(e) => return Some(Err(format!("line {}: {e}", self.line_no))),
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => {
                    return Some(
                        parse_record(&line).map_err(|e| format!("line {}: {e}", self.line_no)),
                    )
                }
            }
        }
    }

    /// Reads the whole trace, checking the shape: one header first, events,
    /// one trailer last, and a trailer event count matching the events read.
    pub fn read_all(mut self) -> Result<(TraceHeader, Vec<ProtocolEvent>, TraceTrailer), String> {
        let header = match self.next().ok_or("empty trace")?? {
            TraceRecord::Header(h) => h,
            other => return Err(format!("first record must be a header, got {other:?}")),
        };
        if header.version != TRACE_VERSION {
            return Err(format!(
                "unsupported trace version {} (expected {TRACE_VERSION})",
                header.version
            ));
        }
        let mut events = Vec::new();
        let mut trailer = None;
        while let Some(record) = self.next() {
            match record? {
                TraceRecord::Header(_) => return Err("duplicate header record".into()),
                TraceRecord::Event(e) if trailer.is_none() => events.push(e),
                TraceRecord::Event(_) => return Err("event record after trailer".into()),
                TraceRecord::Trailer(t) if trailer.is_none() => trailer = Some(t),
                TraceRecord::Trailer(_) => return Err("duplicate trailer record".into()),
            }
        }
        let trailer = trailer.ok_or("trace has no trailer record")?;
        if trailer.events != events.len() as u64 {
            return Err(format!(
                "trailer says {} events but trace has {}",
                trailer.events,
                events.len()
            ));
        }
        Ok((header, events, trailer))
    }
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = Result<TraceRecord, String>;

    fn next(&mut self) -> Option<Self::Item> {
        TraceReader::next(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmc_omeganet::SchemeChoice;

    fn header() -> TraceHeader {
        TraceHeader {
            version: TRACE_VERSION,
            n_procs: 4,
            sets: 2,
            ways: 2,
            words_log2: 2,
            scheme: "combined".into(),
            policy: "adaptive:0.25".into(),
            owner_bypass: true,
        }
    }

    fn sample_events() -> Vec<ProtocolEvent> {
        vec![
            ProtocolEvent::Read {
                proc: 1,
                addr: WordAddr::new(64),
                value: 7,
                hit: false,
                cost_bits: 120,
                latency: Some(14),
                mode: Some(TraceMode::GlobalRead),
            },
            ProtocolEvent::Write {
                proc: 2,
                addr: WordAddr::new(64),
                value: 9,
                hit: true,
                cost_bits: 96,
                latency: None,
                mode: None,
            },
            ProtocolEvent::SetMode {
                proc: 0,
                addr: WordAddr::new(0),
                mode: TraceMode::DistributedWrite,
            },
            ProtocolEvent::Miss {
                proc: 1,
                block: BlockAddr::new(4),
                write: false,
                cold: true,
            },
            ProtocolEvent::ModeSwitch {
                owner: 2,
                block: BlockAddr::new(4),
                to: TraceMode::DistributedWrite,
                adaptive: true,
            },
            ProtocolEvent::OwnershipTransfer {
                block: BlockAddr::new(4),
                from: 1,
                to: 2,
                handoff: false,
            },
            ProtocolEvent::Replacement {
                proc: 3,
                block: BlockAddr::new(9),
                wrote_back: true,
            },
            ProtocolEvent::Cast {
                from: 2,
                scheme: SchemeChoice::BroadcastTag,
                payload_bits: 32,
                cost_bits: 144,
                links: vec![
                    LinkCharge {
                        layer: 0,
                        line: 2,
                        bits: 48,
                    },
                    LinkCharge {
                        layer: 1,
                        line: 0,
                        bits: 96,
                    },
                ],
            },
            ProtocolEvent::Issue { proc: 0, cycle: 17 },
            ProtocolEvent::FaultInjected {
                label: FaultLabel::LinkDown,
                op: 12,
                layer: Some(1),
                line: Some(3),
                cache: None,
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
                label: FaultLabel::BitFlip,
                op: 14,
                layer: None,
                line: None,
                cache: Some(2),
                heal_op: None,
            },
            ProtocolEvent::RetryAttempt {
                op: 15,
                proc: 1,
                dest: 6,
                attempt: 2,
                backoff_cycles: 32,
            },
            ProtocolEvent::Degraded {
                op: 16,
                block: Some(BlockAddr::new(9)),
                cache: None,
                heal_op: 40,
            },
            ProtocolEvent::Degraded {
                op: 17,
                block: None,
                cache: Some(3),
                heal_op: 44,
            },
            ProtocolEvent::Recovered {
                op: 41,
                block: Some(BlockAddr::new(9)),
                cache: None,
                after_ops: 25,
            },
        ]
    }

    #[test]
    fn every_event_variant_roundtrips() {
        for e in sample_events() {
            let line = encode_record(&TraceRecord::Event(e.clone()));
            let parsed = parse_record(&line).unwrap();
            assert_eq!(parsed, TraceRecord::Event(e), "line: {line}");
        }
    }

    #[test]
    fn full_trace_roundtrips_through_writer_and_reader() {
        let mut w = TraceWriter::new(Vec::new(), &header()).unwrap();
        for e in sample_events() {
            w.event(&e).unwrap();
        }
        let trailer = TraceTrailer {
            events: 0, // overwritten by finish()
            fingerprint: fnv1a64(b"state"),
            total_bits: 360,
            links: vec![LinkCharge {
                layer: 2,
                line: 1,
                bits: 360,
            }],
        };
        let bytes = w.finish(trailer.clone()).unwrap();

        let reader = TraceReader::new(&bytes[..]);
        let (h, events, t) = reader.read_all().unwrap();
        assert_eq!(h, header());
        assert_eq!(events, sample_events());
        assert_eq!(t.events, events.len() as u64);
        assert_eq!(t.fingerprint, trailer.fingerprint);
        assert_eq!(t.links, trailer.links);
    }

    #[test]
    fn read_all_rejects_malformed_traces() {
        // No header.
        let body = encode_record(&TraceRecord::Event(ProtocolEvent::Issue {
            proc: 0,
            cycle: 0,
        }));
        assert!(TraceReader::new(body.as_bytes()).read_all().is_err());

        // No trailer.
        let head = encode_record(&TraceRecord::Header(header()));
        assert!(TraceReader::new(head.as_bytes()).read_all().is_err());

        // Wrong event count in trailer.
        let mut text = head.clone();
        text.push('\n');
        text.push_str(&body);
        text.push('\n');
        text.push_str(&encode_record(&TraceRecord::Trailer(TraceTrailer {
            events: 5,
            fingerprint: 0,
            total_bits: 0,
            links: vec![],
        })));
        assert!(TraceReader::new(text.as_bytes()).read_all().is_err());

        // Bad version.
        let mut bad = header();
        bad.version = 99;
        let text = encode_record(&TraceRecord::Header(bad));
        assert!(TraceReader::new(text.as_bytes()).read_all().is_err());
    }

    #[test]
    fn parse_record_rejects_hostile_fields() {
        let bad = [
            // Narrowing must not wrap: 2^32 + 1 is not layer 1.
            r#"{"type":"cast","from":0,"scheme":"bitvector","payload_bits":1,"cost_bits":1,"links":[[4294967297,0,1]]}"#,
            r#"{"type":"retry","op":1,"proc":0,"dest":1,"attempt":4294967298,"backoff_cycles":0}"#,
            r#"{"type":"fault","label":"link_down","op":1,"layer":4294967296}"#,
            r#"{"type":"header","version":1,"n_procs":4,"sets":2,"ways":2,"words_log2":4294967298,"scheme":"combined","policy":"fixed-dw","owner_bypass":false}"#,
            // The last duplicate must not silently win.
            r#"{"type":"issue","proc":1,"proc":2,"cycle":0}"#,
            // Literals are matched, not skipped over.
            r#"{"type":"miss","proc":0,"block":0,"write":tXYZ,"cold":fnord}"#,
            // An optional field of the wrong type is an error, not absent.
            r#"{"type":"read","proc":0,"addr":0,"value":0,"hit":true,"cost_bits":0,"latency":"soon"}"#,
            r#"{"type":"write","proc":0,"addr":0,"value":0,"hit":true,"cost_bits":0,"mode":7}"#,
            r#"{"type":"degraded","op":1,"cache":true,"heal_op":2}"#,
        ];
        for line in bad {
            assert!(parse_record(line).is_err(), "accepted: {line}");
        }
        let err = parse_record(bad[1]).unwrap_err();
        assert!(
            err.contains("attempt"),
            "error does not name the field: {err}"
        );
        let err = parse_record(bad[0]).unwrap_err();
        assert!(
            err.contains("layer"),
            "error does not name the field: {err}"
        );
    }

    #[test]
    fn event_fold_matches_hash_of_written_lines() {
        let mut w = TraceWriter::new(Vec::new(), &header()).unwrap();
        for e in sample_events() {
            w.event(&e).unwrap();
        }
        let text = w.finish(TraceTrailer {
            events: 0,
            fingerprint: 0,
            total_bits: 0,
            links: vec![],
        });
        let text = String::from_utf8(text.unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let body: String = lines[1..lines.len() - 1]
            .iter()
            .map(|l| format!("{l}\n"))
            .collect();
        let events = sample_events();
        assert_eq!(
            fnv1a64_fold_events(FNV1A64_BASIS, &events),
            fnv1a64(body.as_bytes())
        );
        // Folding in two pieces continues the same stream.
        let (a, b) = events.split_at(5);
        assert_eq!(
            fnv1a64_fold_events(fnv1a64_fold_events(FNV1A64_BASIS, a), b),
            fnv1a64(body.as_bytes())
        );
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv1a64_fold(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }
}
