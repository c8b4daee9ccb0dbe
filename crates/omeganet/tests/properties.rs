//! Randomized invariant tests for routing, destination sets and multicast,
//! driven by the in-tree [`SimRng`] (no external crates needed).

use tmc_omeganet::{
    CastCache, DestSet, LinkSchedule, Omega, SchemeKind, TimingModel, TrafficMatrix,
};
use tmc_simcore::{SimRng, SimTime};

const CASES: usize = 48;

/// Random `(m, ports)` pair: a network size and a (possibly repeating)
/// destination port list, mirroring the old proptest strategy.
fn arb_ports(rng: &mut SimRng, max_m: u32) -> (u32, Vec<usize>) {
    let m = rng.gen_range(1..=max_m);
    let n = 1usize << m;
    let len = rng.gen_range(1..(2 * n).min(40));
    let ports = (0..len).map(|_| rng.gen_range(0..n)).collect();
    (m, ports)
}

#[test]
fn route_always_lands_on_destination() {
    let mut rng = SimRng::seed_from(0x07E1);
    for _ in 0..CASES {
        let m = rng.gen_range(1..=10u32);
        let net = Omega::new(m).unwrap();
        let src = rng.gen_range(0..net.ports());
        let dst = rng.gen_range(0..net.ports());
        let path = net.route(src, dst);
        assert_eq!(path.len() as u32, m + 1);
        assert_eq!(path[0].line, src);
        assert_eq!(path.last().unwrap().line, dst);
        // Layers strictly increase 0..=m.
        for (i, link) in path.iter().enumerate() {
            assert_eq!(link.layer as usize, i);
        }
    }
}

#[test]
fn exact_schemes_deliver_exactly_the_requested_set() {
    let mut rng = SimRng::seed_from(0xDE11);
    for _ in 0..CASES {
        let (m, ports) = arb_ports(&mut rng, 8);
        let net = Omega::new(m).unwrap();
        let dests = DestSet::from_ports(net.ports(), ports).unwrap();
        let want: Vec<usize> = dests.iter().collect();
        for kind in [SchemeKind::Replicated, SchemeKind::BitVector] {
            let mut t = TrafficMatrix::new(&net);
            let r = net.multicast(kind, 0, &dests, 20, &mut t).unwrap();
            assert_eq!(&r.delivered, &want, "{kind:?}");
        }
    }
}

#[test]
fn broadcast_tag_delivers_a_superset() {
    let mut rng = SimRng::seed_from(0xB7A6);
    for _ in 0..CASES {
        let (m, ports) = arb_ports(&mut rng, 8);
        let net = Omega::new(m).unwrap();
        let dests = DestSet::from_ports(net.ports(), ports).unwrap();
        let mut t = TrafficMatrix::new(&net);
        let r = net
            .multicast(
                SchemeKind::BroadcastTag,
                1 % net.ports(),
                &dests,
                20,
                &mut t,
            )
            .unwrap();
        for d in dests.iter() {
            assert!(r.delivered.contains(&d), "missing destination {d}");
        }
        // And the superset is exactly the enclosing subcube when the set
        // is not already a subcube.
        if dests.subcube_spec().is_none() {
            let (anchor, l) = dests.enclosing_low_subcube().unwrap();
            assert_eq!(r.delivered.len(), 1usize << l);
            assert!(r
                .delivered
                .iter()
                .all(|&p| p & !((1usize << l) - 1) == anchor));
        }
    }
}

#[test]
fn receipt_cost_always_equals_matrix_total() {
    let mut rng = SimRng::seed_from(0x0257);
    for _ in 0..CASES {
        let (m, ports) = arb_ports(&mut rng, 8);
        let payload = rng.gen_range(0..500u64);
        let net = Omega::new(m).unwrap();
        let dests = DestSet::from_ports(net.ports(), ports).unwrap();
        for kind in [
            SchemeKind::Replicated,
            SchemeKind::BitVector,
            SchemeKind::BroadcastTag,
            SchemeKind::Combined,
        ] {
            let mut t = TrafficMatrix::new(&net);
            let r = net.multicast(kind, 0, &dests, payload, &mut t).unwrap();
            assert_eq!(r.cost_bits, t.total_bits());
            assert_eq!(
                r.cost_bits,
                net.multicast_cost(kind, &dests, payload).unwrap()
            );
        }
    }
}

#[test]
fn combined_never_loses() {
    let mut rng = SimRng::seed_from(0xC0B1);
    for _ in 0..CASES {
        let (m, ports) = arb_ports(&mut rng, 8);
        let payload = rng.gen_range(0..500u64);
        let net = Omega::new(m).unwrap();
        let dests = DestSet::from_ports(net.ports(), ports).unwrap();
        let c = net
            .multicast_cost(SchemeKind::Combined, &dests, payload)
            .unwrap();
        for kind in [
            SchemeKind::Replicated,
            SchemeKind::BitVector,
            SchemeKind::BroadcastTag,
        ] {
            assert!(c <= net.multicast_cost(kind, &dests, payload).unwrap());
        }
    }
}

#[test]
fn timed_multicast_reaches_the_same_ports() {
    let mut rng = SimRng::seed_from(0x71ED);
    for _ in 0..CASES {
        let (m, ports) = arb_ports(&mut rng, 7);
        let net = Omega::new(m).unwrap();
        let dests = DestSet::from_ports(net.ports(), ports).unwrap();
        let model = TimingModel::default();
        for kind in [
            SchemeKind::Replicated,
            SchemeKind::BitVector,
            SchemeKind::BroadcastTag,
        ] {
            let mut t = TrafficMatrix::new(&net);
            let cast = net.multicast(kind, 0, &dests, 64, &mut t).unwrap();
            let mut sched = LinkSchedule::new(&net);
            let timed = sched
                .timed_multicast(&net, model, cast.scheme, 0, &dests, 64, SimTime::ZERO)
                .unwrap();
            let timed_ports: Vec<usize> = timed.iter().map(|&(p, _)| p).collect();
            assert_eq!(timed_ports, cast.delivered);
            // Arrivals are strictly after departure.
            assert!(timed.iter().all(|&(_, t)| t > SimTime::ZERO));
        }
    }
}

#[test]
fn castcache_replay_charges_links_identically_to_uncached_traversal() {
    let mut rng = SimRng::seed_from(0xCAC4E);
    let schemes = [
        SchemeKind::Replicated,
        SchemeKind::BitVector,
        SchemeKind::BroadcastTag,
        SchemeKind::Combined,
    ];
    for _ in 0..CASES {
        // m ≤ 10 reaches both paths: networks of up to 64 ports are
        // memoized, wider ones are billed directly on every cast.
        let (m, ports) = arb_ports(&mut rng, 10);
        let net = Omega::new(m).unwrap();
        let dests = DestSet::from_ports(net.ports(), ports).unwrap();
        let src = rng.gen_range(0..net.ports());
        let payload = rng.gen_range(0..300u64);
        let kind = schemes[rng.gen_range(0..schemes.len())];
        let mut cache = CastCache::new();
        let mut direct = TrafficMatrix::new(&net);
        let want = net
            .multicast(kind, src, &dests, payload, &mut direct)
            .unwrap();
        // Drive the same cast through the cache repeatedly. On the memo
        // path the first call is a miss and the rest replay its charges;
        // on the direct path every call traverses. Every pass must
        // reproduce the uncached matrix link-for-link.
        for pass in 0..3 {
            let mut via = TrafficMatrix::new(&net);
            let mut rec = Vec::new();
            let got = cache
                .multicast_recording(&net, kind, src, &dests, payload, &mut via, Some(&mut rec))
                .unwrap();
            assert_eq!(got, want, "pass {pass}");
            assert_eq!(via, direct, "pass {pass}: matrices diverge");
            // The recorded charge list is exactly the nonzero links, in
            // strictly ascending (layer, line) order.
            let rec_total: u64 = rec.iter().map(|&(_, bits)| bits).sum();
            assert_eq!(rec_total, via.total_bits(), "pass {pass}");
            assert!(
                rec.windows(2)
                    .all(|w| (w[0].0.layer, w[0].0.line) < (w[1].0.layer, w[1].0.line)),
                "pass {pass}: charges not strictly ascending"
            );
            for &(link, bits) in &rec {
                assert!(bits > 0, "pass {pass}: zero-bit link recorded");
                assert_eq!(via.link_bits(link), bits, "pass {pass}");
            }
        }
        let expected = if net.ports() <= 64 { (2, 1) } else { (0, 3) };
        assert_eq!((cache.hits(), cache.misses()), expected, "m = {m}");
    }
}

#[test]
fn destset_roundtrips_sorted_unique() {
    let mut rng = SimRng::seed_from(0x5027);
    for _ in 0..CASES {
        let (m, ports) = arb_ports(&mut rng, 9);
        let n = 1usize << m;
        let dests = DestSet::from_ports(n, ports.clone()).unwrap();
        let mut want = ports;
        want.sort_unstable();
        want.dedup();
        assert_eq!(dests.iter().collect::<Vec<_>>(), want.clone());
        assert_eq!(dests.len(), want.len());
        for p in 0..n {
            assert_eq!(dests.contains(p), want.contains(&p));
        }
    }
}

#[test]
fn constructed_subcubes_are_recognized() {
    let mut rng = SimRng::seed_from(0x5CBE);
    for _ in 0..CASES {
        let m = rng.gen_range(2..=9u32);
        let n = 1usize << m;
        let mask = rng.gen_range(0..512usize) % n;
        let anchor = (rng.gen_range(0..512usize) % n) & !mask;
        let bits: Vec<usize> = (0..m as usize).filter(|&b| mask >> b & 1 == 1).collect();
        let members = (0..1usize << bits.len()).map(|combo| {
            let mut p = anchor;
            for (i, &b) in bits.iter().enumerate() {
                if combo >> i & 1 == 1 {
                    p |= 1 << b;
                }
            }
            p
        });
        let set = DestSet::from_ports(n, members).unwrap();
        assert_eq!(set.subcube_spec(), Some((anchor, mask)));
    }
}
