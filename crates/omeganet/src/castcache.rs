//! Memoization of multicast traversals.
//!
//! Protocol runs issue the same multicast over and over: an owner updating a
//! stable sharing set sends an identical `(scheme, source, destinations,
//! payload)` cast on every write. The tree walk that computes its cost and
//! link charges is deterministic, so a [`CastCache`] records the outcome the
//! first time and replays the per-link charges on every repeat — turning the
//! `O(n · m)` switch-by-switch traversal into a hash lookup plus an
//! `O(links touched)` replay.
//!
//! Only one-word destination sets (networks of at most 64 ports) are
//! memoized. Wider sets rarely repeat — on a 1024-port Zipfian run fewer
//! than 1% of casts hit — so they are traversed straight into the
//! caller's traffic matrix, which costs less than recording a miss.

use std::collections::HashMap;

use crate::destset::DestSet;
use crate::error::NetError;
use crate::multicast::{CastReceipt, SchemeChoice, SchemeKind};
use crate::topology::{LinkId, Omega, PortId};
use crate::traffic::{ChargeSink, TrafficMatrix};

/// Largest network whose destination sets are memoized: one inline word.
const MEMO_MAX_PORTS: usize = 64;

/// Everything that determines a cast's outcome on a fixed network.
#[derive(Clone, PartialEq, Eq, Hash)]
struct CastKey {
    kind: SchemeKind,
    src: PortId,
    payload_bits: u64,
    dests: DestSet,
}

/// A traversal's recorded effects: the receipt handed back to the caller
/// and the exact per-link charges it made to the traffic matrix.
#[derive(Clone)]
struct CachedCast {
    receipt: CastReceipt,
    charges: Vec<(LinkId, u64)>,
}

/// Bills the live matrix and appends every raw charge to a list.
struct Recording<'a> {
    live: &'a mut TrafficMatrix,
    charges: &'a mut Vec<(LinkId, u64)>,
}

impl ChargeSink for Recording<'_> {
    #[inline]
    fn charge(&mut self, link: LinkId, bits: u64) {
        self.live.charge(link, bits);
        self.charges.push((link, bits));
    }
}

/// Puts `charges[start..]` in ledger form: ascending `(layer, line)`, one
/// entry per link with the charges to it summed (replicated unicasts share
/// links), and no zero-bit entries.
fn to_ledger_order(charges: &mut Vec<(LinkId, u64)>, start: usize) {
    charges[start..].sort_unstable_by_key(|&(link, _)| link);
    let mut kept = start;
    for i in start..charges.len() {
        let (link, bits) = charges[i];
        if bits == 0 {
            continue;
        }
        if kept > start && charges[kept - 1].0 == link {
            charges[kept - 1].1 += bits;
        } else {
            charges[kept] = (link, bits);
            kept += 1;
        }
    }
    charges.truncate(kept);
}

/// A memo table for [`Omega::multicast`] results.
///
/// Keys are `(scheme, source, destination set, payload)` and are built
/// only for networks of at most 64 ports, whose destination sets hash as a
/// single inline word. Casts on wider networks bypass the table: they
/// traverse directly into the caller's matrix and count as misses. The
/// table is bounded: when it reaches [`CastCache::MAX_ENTRIES`] distinct
/// casts it is flushed wholesale (a workload that varies its casts that
/// much gets little from memoization anyway).
///
/// # Example
///
/// ```
/// use tmc_omeganet::{CastCache, DestSet, Omega, SchemeKind, TrafficMatrix};
///
/// let net = Omega::new(4)?;
/// let dests = DestSet::adjacent(net.ports(), 0, 4)?;
/// let mut cache = CastCache::new();
/// let mut t = TrafficMatrix::new(&net);
/// let first = cache.multicast(&net, SchemeKind::BitVector, 9, &dests, 64, &mut t)?;
/// let again = cache.multicast(&net, SchemeKind::BitVector, 9, &dests, 64, &mut t)?;
/// assert_eq!(first, again);
/// assert_eq!(t.total_bits(), 2 * first.cost_bits);
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// # Ok::<(), tmc_omeganet::NetError>(())
/// ```
#[derive(Clone, Default)]
pub struct CastCache {
    map: HashMap<CastKey, CachedCast>,
    hits: u64,
    misses: u64,
}

impl CastCache {
    /// Entry bound; reaching it flushes the whole table.
    pub const MAX_ENTRIES: usize = 1 << 16;

    /// Creates an empty cache.
    pub fn new() -> Self {
        CastCache::default()
    }

    /// Like [`Omega::multicast`], but memoized: repeat casts replay their
    /// recorded link charges instead of re-walking the routing tree. The
    /// receipt and the traffic added to `traffic` are bit-identical to the
    /// uncached call.
    ///
    /// # Errors
    ///
    /// Propagates any [`NetError`] from the underlying cast (empty set,
    /// size mismatch, out-of-range source). Errors are not cached.
    pub fn multicast(
        &mut self,
        net: &Omega,
        kind: SchemeKind,
        src: PortId,
        dests: &DestSet,
        payload_bits: u64,
        traffic: &mut TrafficMatrix,
    ) -> Result<CastReceipt, NetError> {
        self.multicast_recording(net, kind, src, dests, payload_bits, traffic, None)
    }

    /// [`CastCache::multicast`] that additionally appends the cast's
    /// per-link charges to `record` when one is supplied — the hook trace
    /// sinks use to attribute bits to individual links. Charges come back
    /// in ascending `(layer, line)` order, one nonzero entry per link,
    /// whichever path the cast took, and nothing is appended on error.
    #[allow(clippy::too_many_arguments)]
    pub fn multicast_recording(
        &mut self,
        net: &Omega,
        kind: SchemeKind,
        src: PortId,
        dests: &DestSet,
        payload_bits: u64,
        traffic: &mut TrafficMatrix,
        record: Option<&mut Vec<(LinkId, u64)>>,
    ) -> Result<CastReceipt, NetError> {
        let mut delivered = Vec::with_capacity(dests.len());
        let (scheme, cost_bits, links_crossed) = self.cast(
            net,
            kind,
            src,
            dests,
            payload_bits,
            traffic,
            &mut delivered,
            record,
        )?;
        Ok(CastReceipt {
            scheme,
            delivered,
            cost_bits,
            links_crossed,
        })
    }

    /// [`CastCache::multicast_recording`] without the receipt allocation:
    /// the delivered-port list is written into the caller's reusable
    /// `delivered` buffer (cleared first) and only the resolved scheme and
    /// cost come back by value. This is the protocol hot path — a memoized
    /// hit, and a wide cast with `record` unset, allocate nothing once
    /// `delivered` has grown to size.
    ///
    /// # Errors
    ///
    /// Propagates any [`NetError`] from the underlying cast; `delivered` is
    /// left empty on error.
    #[allow(clippy::too_many_arguments)]
    pub fn multicast_into(
        &mut self,
        net: &Omega,
        kind: SchemeKind,
        src: PortId,
        dests: &DestSet,
        payload_bits: u64,
        traffic: &mut TrafficMatrix,
        delivered: &mut Vec<PortId>,
        record: Option<&mut Vec<(LinkId, u64)>>,
    ) -> Result<(SchemeChoice, u64), NetError> {
        let (scheme, cost_bits, _) = self.cast(
            net,
            kind,
            src,
            dests,
            payload_bits,
            traffic,
            delivered,
            record,
        )?;
        Ok((scheme, cost_bits))
    }

    /// Shared entry: bill a wide cast directly, or replay a memoized
    /// one-word cast, or traverse and memoize it on a miss. Returns the
    /// resolved scheme, the cost and the number of links crossed.
    #[allow(clippy::too_many_arguments)]
    fn cast(
        &mut self,
        net: &Omega,
        kind: SchemeKind,
        src: PortId,
        dests: &DestSet,
        payload_bits: u64,
        traffic: &mut TrafficMatrix,
        delivered: &mut Vec<PortId>,
        record: Option<&mut Vec<(LinkId, u64)>>,
    ) -> Result<(SchemeChoice, u64, usize), NetError> {
        delivered.clear();
        if dests.n_ports() > MEMO_MAX_PORTS {
            let outcome = match record {
                None => net.cast_into(kind, src, dests, payload_bits, traffic, delivered)?,
                Some(out) => {
                    let start = out.len();
                    let mut sink = Recording {
                        live: traffic,
                        charges: out,
                    };
                    let outcome =
                        net.cast_into(kind, src, dests, payload_bits, &mut sink, delivered)?;
                    to_ledger_order(out, start);
                    outcome
                }
            };
            self.misses += 1;
            return Ok(outcome);
        }

        // One-word sets: the key is plain data, so building it never
        // allocates.
        let key = CastKey {
            kind,
            src,
            payload_bits,
            dests: dests.clone(),
        };
        if let Some(cached) = self.map.get(&key) {
            self.hits += 1;
            for &(link, bits) in &cached.charges {
                traffic.add(link, bits);
            }
            if let Some(out) = record {
                out.extend_from_slice(&cached.charges);
            }
            let r = &cached.receipt;
            delivered.extend_from_slice(&r.delivered);
            return Ok((r.scheme, r.cost_bits, r.links_crossed));
        }

        let mut charges = Vec::new();
        let mut sink = Recording {
            live: traffic,
            charges: &mut charges,
        };
        let receipt = net.multicast(kind, src, dests, payload_bits, &mut sink)?;
        self.misses += 1;
        to_ledger_order(&mut charges, 0);
        // The raw list can be several times the merged one (replicated
        // unicasts repeat shared links); memo entries keep only the latter.
        charges.shrink_to_fit();
        if let Some(out) = record {
            out.extend_from_slice(&charges);
        }
        delivered.extend_from_slice(&receipt.delivered);
        let outcome = (receipt.scheme, receipt.cost_bits, receipt.links_crossed);
        if self.map.len() >= Self::MAX_ENTRIES {
            self.map.clear();
        }
        self.map.insert(key, CachedCast { receipt, charges });
        Ok(outcome)
    }

    /// Number of memoized replay hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of full traversals (cache misses) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of distinct casts currently memoized.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops every memoized cast and resets the hit/miss counters.
    pub fn clear(&mut self) {
        self.map.clear();
        self.hits = 0;
        self.misses = 0;
    }
}

impl std::fmt::Debug for CastCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CastCache")
            .field("entries", &self.map.len())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_matches_direct_cast_for_every_scheme() {
        let net = Omega::new(5).unwrap();
        let sets = [
            DestSet::adjacent(32, 4, 7).unwrap(),
            DestSet::worst_case_spread(32, 8).unwrap(),
            DestSet::subcube(32, 9, 3).unwrap(),
            DestSet::from_ports(32, [0usize, 13, 14, 31]).unwrap(),
        ];
        let mut cache = CastCache::new();
        for kind in [
            SchemeKind::Replicated,
            SchemeKind::BitVector,
            SchemeKind::BroadcastTag,
            SchemeKind::Combined,
        ] {
            for dests in &sets {
                for pass in 0..2 {
                    let mut direct = TrafficMatrix::new(&net);
                    let want = net.multicast(kind, 3, dests, 44, &mut direct).unwrap();
                    let mut via = TrafficMatrix::new(&net);
                    let got = cache.multicast(&net, kind, 3, dests, 44, &mut via).unwrap();
                    assert_eq!(got, want, "pass {pass}");
                    assert_eq!(via, direct, "pass {pass}: full matrix must match");
                }
            }
        }
        // Second passes were all hits.
        assert_eq!(cache.hits(), 4 * sets.len() as u64);
        assert_eq!(cache.misses(), 4 * sets.len() as u64);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let net = Omega::new(3).unwrap();
        let d = DestSet::adjacent(8, 0, 4).unwrap();
        let mut cache = CastCache::new();
        let mut t = TrafficMatrix::new(&net);
        let a = cache
            .multicast(&net, SchemeKind::Replicated, 0, &d, 10, &mut t)
            .unwrap();
        let b = cache
            .multicast(&net, SchemeKind::Replicated, 0, &d, 20, &mut t)
            .unwrap();
        let c = cache
            .multicast(&net, SchemeKind::Replicated, 1, &d, 10, &mut t)
            .unwrap();
        assert_ne!(a.cost_bits, b.cost_bits);
        assert_eq!(a.delivered, c.delivered);
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn shrunken_dest_set_is_a_distinct_key() {
        // The protocol shrinks a block's sharer set when copies are
        // invalidated (e.g. a DW -> GR mode switch); the memo key hashes
        // the full DestSet, so the smaller cast must miss and recost
        // rather than replay the old full-set charges.
        let net = Omega::new(3).unwrap();
        let full = DestSet::from_ports(8, [1usize, 2, 3]).unwrap();
        let one = DestSet::from_ports(8, [1usize]).unwrap();
        let mut cache = CastCache::new();
        let mut t = TrafficMatrix::new(&net);
        let a = cache
            .multicast(&net, SchemeKind::Replicated, 0, &full, 64, &mut t)
            .unwrap();
        let b = cache
            .multicast(&net, SchemeKind::Replicated, 0, &one, 64, &mut t)
            .unwrap();
        assert!(b.cost_bits < a.cost_bits, "smaller set must cost less");
        assert_eq!(b.delivered, vec![1]);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
    }

    #[test]
    fn errors_pass_through_uncached() {
        let net = Omega::new(3).unwrap();
        let empty = DestSet::empty(8);
        let mut cache = CastCache::new();
        let mut t = TrafficMatrix::new(&net);
        assert!(cache
            .multicast(&net, SchemeKind::BitVector, 0, &empty, 10, &mut t)
            .is_err());
        assert!(cache.is_empty());
        assert_eq!(t.total_bits(), 0);
    }

    #[test]
    fn recorded_charges_match_traffic_on_miss_and_hit() {
        let net = Omega::new(4).unwrap();
        let d = DestSet::worst_case_spread(16, 4).unwrap();
        let mut cache = CastCache::new();
        for pass in 0..2 {
            let mut t = TrafficMatrix::new(&net);
            let mut rec = Vec::new();
            let receipt = cache
                .multicast_recording(
                    &net,
                    SchemeKind::Combined,
                    2,
                    &d,
                    33,
                    &mut t,
                    Some(&mut rec),
                )
                .unwrap();
            let rec_total: u64 = rec.iter().map(|&(_, bits)| bits).sum();
            assert_eq!(rec_total, receipt.cost_bits, "pass {pass}");
            assert_eq!(rec_total, t.total_bits(), "pass {pass}");
            for &(link, bits) in &rec {
                assert_eq!(t.link_bits(link), bits, "pass {pass}");
            }
            // Charges come back sorted by (layer, line) on both paths.
            let mut sorted = rec.clone();
            sorted.sort_by_key(|&(l, _)| (l.layer, l.line));
            assert_eq!(rec, sorted, "pass {pass}");
        }
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn multicast_into_matches_recording_on_miss_and_hit() {
        let net = Omega::new(4).unwrap();
        let d = DestSet::worst_case_spread(16, 8).unwrap();
        let mut cache = CastCache::new();
        let mut delivered = Vec::new();
        for pass in 0..2 {
            let mut t_ref = TrafficMatrix::new(&net);
            let mut ref_cache = CastCache::new();
            let want = ref_cache
                .multicast(&net, SchemeKind::Combined, 5, &d, 21, &mut t_ref)
                .unwrap();
            let mut t = TrafficMatrix::new(&net);
            let mut rec = Vec::new();
            let (scheme, cost) = cache
                .multicast_into(
                    &net,
                    SchemeKind::Combined,
                    5,
                    &d,
                    21,
                    &mut t,
                    &mut delivered,
                    Some(&mut rec),
                )
                .unwrap();
            assert_eq!(scheme, want.scheme, "pass {pass}");
            assert_eq!(cost, want.cost_bits, "pass {pass}");
            assert_eq!(delivered, want.delivered, "pass {pass}");
            assert_eq!(t, t_ref, "pass {pass}: full matrix must match");
            let rec_total: u64 = rec.iter().map(|&(_, bits)| bits).sum();
            assert_eq!(rec_total, cost, "pass {pass}");
        }
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn wide_casts_bill_directly_and_are_never_memoized() {
        let net = Omega::new(8).unwrap();
        let sets = [
            DestSet::from_ports(256, [3usize, 70, 200]).unwrap(),
            DestSet::worst_case_spread(256, 32).unwrap(),
            DestSet::subcube(256, 64, 5).unwrap(),
        ];
        let mut cache = CastCache::new();
        let mut delivered = Vec::new();
        let mut casts = 0;
        for kind in [
            SchemeKind::Replicated,
            SchemeKind::BitVector,
            SchemeKind::BroadcastTag,
            SchemeKind::Combined,
        ] {
            // Payload 0 gives scheme 1 and scheme 3 zero-bit last-layer
            // links, which the recorded ledger must leave out.
            for payload in [0, 37] {
                for dests in &sets {
                    let mut direct = TrafficMatrix::new(&net);
                    let want = net.multicast(kind, 9, dests, payload, &mut direct).unwrap();
                    let mut via = TrafficMatrix::new(&net);
                    let mut rec = vec![(LinkId { layer: 0, line: 0 }, 1)];
                    let (scheme, cost) = cache
                        .multicast_into(
                            &net,
                            kind,
                            9,
                            dests,
                            payload,
                            &mut via,
                            &mut delivered,
                            Some(&mut rec),
                        )
                        .unwrap();
                    casts += 1;
                    assert_eq!((scheme, cost), (want.scheme, want.cost_bits));
                    assert_eq!(delivered, want.delivered);
                    assert_eq!(via, direct);
                    // The entry already in the record is left alone.
                    assert_eq!(rec[0], (LinkId { layer: 0, line: 0 }, 1));
                    let ledger = &rec[1..];
                    assert!(ledger.windows(2).all(|w| w[0].0 < w[1].0));
                    assert!(ledger.iter().all(|&(l, bits)| via.link_bits(l) == bits));
                    assert_eq!(ledger.len(), via.links_used());
                }
            }
        }
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, casts, 0));
    }

    #[test]
    fn clear_resets_counters() {
        let net = Omega::new(2).unwrap();
        let d = DestSet::all(4);
        let mut cache = CastCache::new();
        let mut t = TrafficMatrix::new(&net);
        cache
            .multicast(&net, SchemeKind::Replicated, 0, &d, 8, &mut t)
            .unwrap();
        cache
            .multicast(&net, SchemeKind::Replicated, 0, &d, 8, &mut t)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        cache.clear();
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 0, 0));
    }
}
