//! Cross-version snapshot compatibility: every query answer is
//! byte-identical whether it comes from a heap [`QueryIndex`] built
//! out of a v1/v2 parse or from the zero-copy [`V3View`] over v3 file
//! bytes — over a real pipeline-produced map and over crafted corner
//! cases. The hostile half of the suite pins the v3 decoder's blast
//! radius: truncation at every length and every single-bit flip are
//! rejected with an error, never a panic, and a file whose trie points
//! at an ownerless router (the old read-path `expect`) is refused at
//! open.

use bdrmap_bgp::{CollectorView, InferredRelationships};
use bdrmap_core::{
    flat, snapshot, BorderMap, Heuristic, InferredLink, InferredRouter, Input, QueryIndex,
    QueryRead, V3View,
};
use bdrmap_dataplane::DataPlane;
use bdrmap_probe::{run_traces, EngineConfig, ProbeEngine, RunOptions};
use bdrmap_topo::{generate, AsKind, TopoConfig};
use bdrmap_types::{addr, addr_bits, Asn, Prefix};
use std::sync::Arc;

mod crafted;

fn a(s: &str) -> bdrmap_types::Addr {
    s.parse().unwrap()
}

/// A real border map out of the full pipeline over a tiny topology.
fn pipeline_map(seed: u64) -> (BorderMap, Input) {
    let net = generate(&TopoConfig::tiny(seed));
    let dp = Arc::new(DataPlane::new(net));
    let mut peers: Vec<Asn> = dp
        .internet()
        .graph
        .ases()
        .filter(|&x| dp.internet().as_info(x).kind == AsKind::Tier1)
        .collect();
    peers.extend(
        dp.internet()
            .graph
            .ases()
            .filter(|&x| dp.internet().as_info(x).kind == AsKind::Stub)
            .take(6),
    );
    let view = CollectorView::collect(dp.oracle(), &peers);
    let rels = InferredRelationships::infer(&view);
    let input = Input {
        view,
        rels,
        ixp_prefixes: dp.internet().ixps.iter().map(|x| x.lan).collect(),
        rir: dp.internet().rir.clone(),
        vp_asns: dp.internet().vp_siblings.clone(),
    };
    let vp = dp.internet().vps[0].addr;
    let engine = ProbeEngine::new(Arc::clone(&dp), vp, EngineConfig::default());
    let targets = bdrmap_probe::target_blocks(&input.view, &input.vp_asns);
    let ip2as = input.ip2as_for_probing();
    let coll = run_traces(&engine, &targets, RunOptions::default(), |x| {
        ip2as.is_external(x)
    });
    let map = bdrmap_core::run_stages(&engine, &input, &Default::default(), coll).map;
    (map, input)
}

/// A small hand-built map with every corner the codecs care about: an
/// ownerless router, a silent neighbor, a missing near_addr, and one
/// interface fronting several links.
fn crafted_map() -> BorderMap {
    BorderMap {
        routers: vec![
            InferredRouter {
                addrs: vec![a("10.0.0.1")],
                other_addrs: vec![a("10.0.0.9")],
                owner: Some(Asn(100)),
                heuristic: Some(Heuristic::VpInternal),
                min_hop: 1,
            },
            InferredRouter {
                addrs: vec![a("203.0.113.1"), a("203.0.113.5")],
                other_addrs: vec![],
                owner: Some(Asn(200)),
                heuristic: Some(Heuristic::OneNet),
                min_hop: 2,
            },
            InferredRouter {
                addrs: vec![a("198.51.100.1")],
                other_addrs: vec![],
                owner: None,
                heuristic: None,
                min_hop: 4,
            },
        ],
        links: vec![
            InferredLink {
                near: 0,
                far: Some(1),
                far_as: Asn(200),
                near_addr: Some(a("10.0.0.1")),
                far_addr: Some(a("203.0.113.1")),
                heuristic: Heuristic::OneNet,
            },
            InferredLink {
                near: 0,
                far: None,
                far_as: Asn(300),
                near_addr: Some(a("10.0.0.1")),
                far_addr: None,
                heuristic: Heuristic::SilentNeighbor,
            },
            InferredLink {
                near: 0,
                far: Some(1),
                far_as: Asn(200),
                near_addr: None,
                far_addr: Some(a("203.0.113.5")),
                heuristic: Heuristic::ThirdParty,
            },
        ],
        packets: 7,
        elapsed_ms: 9,
    }
}

/// Every address worth probing on `map`: all interfaces, their
/// neighbors in address space, and a few guaranteed misses.
fn probe_addrs(map: &BorderMap) -> Vec<bdrmap_types::Addr> {
    let mut probes = Vec::new();
    for r in &map.routers {
        for &x in r.addrs.iter().chain(&r.other_addrs) {
            probes.push(x);
            probes.push(addr(addr_bits(x).wrapping_add(1)));
        }
    }
    for l in &map.links {
        probes.extend(l.near_addr);
        probes.extend(l.far_addr);
    }
    probes.extend([a("0.0.0.0"), a("255.255.255.255"), a("192.0.2.77")]);
    probes
}

/// The whole read contract, compared answer by answer.
fn assert_same_answers(want: &dyn QueryRead, got: &dyn QueryRead, map: &BorderMap, tag: &str) {
    assert_eq!(want.num_routers(), got.num_routers(), "{tag}: num_routers");
    assert_eq!(want.num_links(), got.num_links(), "{tag}: num_links");
    assert_eq!(
        want.num_prefixes(),
        got.num_prefixes(),
        "{tag}: num_prefixes"
    );
    assert_eq!(
        want.num_prefix_owners(),
        got.num_prefix_owners(),
        "{tag}: num_prefix_owners"
    );
    assert_eq!(
        want.neighbor_list(),
        got.neighbor_list(),
        "{tag}: neighbors"
    );
    for x in probe_addrs(map) {
        assert_eq!(want.owner_of(x), got.owner_of(x), "{tag}: owner_of({x})");
        assert_eq!(want.border_of(x), got.border_of(x), "{tag}: border_of({x})");
    }
    let mut asns = want.neighbor_list();
    asns.push(Asn(4_200_000_000));
    for asn in asns {
        assert_eq!(
            want.neighbor_links(asn),
            got.neighbor_links(asn),
            "{tag}: neighbor_links({asn:?})"
        );
    }
    for id in 0..want.num_links() + 2 {
        assert_eq!(
            want.link_answer(id),
            got.link_answer(id),
            "{tag}: link_answer({id})"
        );
        assert_eq!(want.link_rec(id), got.link_rec(id), "{tag}: link_rec({id})");
    }
    for id in 0..want.num_routers() + 2 {
        let (w, g) = (want.router_info(id), got.router_info(id));
        assert_eq!(w.is_some(), g.is_some(), "{tag}: router_info({id})");
        if let (Some((wr, wa)), Some((gr, ga))) = (w, g) {
            assert_eq!(
                (wr.owner, wr.heuristic, wr.min_hop),
                (gr.owner, gr.heuristic, gr.min_hop),
                "{tag}: router_info({id}) record"
            );
            assert_eq!(wa, ga, "{tag}: router_info({id}) addrs");
        }
    }
}

/// A prefix-owner overlay that exercises every merge case: a /32
/// exactly shadowed by an observed router, a coarse prefix under live
/// interfaces, and one covering otherwise-unknown space.
fn overlay(map: &BorderMap) -> Vec<(Prefix, Asn)> {
    let mut v = vec![(Prefix::new(a("192.0.2.0"), 24), Asn(64999))];
    if let Some(r) = map.routers.iter().find(|r| !r.addrs.is_empty()) {
        v.push((Prefix::new(r.addrs[0], 32), Asn(65000)));
        v.push((Prefix::new(r.addrs[0], 12), Asn(65001)));
    }
    v
}

#[test]
fn answers_identical_across_versions_on_a_pipeline_map() {
    let (map, _input) = pipeline_map(905);
    assert!(
        map.routers.len() > 4 && map.links.len() > 2,
        "map too small to mean much"
    );
    let over = overlay(&map);

    let reference = QueryIndex::build_with_prefixes(&map, over.iter().copied());
    for version in snapshot::MIN_VERSION..=snapshot::LATEST_VERSION {
        let bytes = snapshot::encode_as(&map, version).unwrap();
        assert_eq!(snapshot::version_of(&bytes), Some(version));
        let decoded = snapshot::decode(&bytes).unwrap();
        let heap = QueryIndex::build_with_prefixes(&decoded, over.iter().copied());
        assert_same_answers(&reference, &heap, &map, &format!("v{version} heap"));
        if version == flat::VERSION {
            let view = V3View::open(bytes, over.iter().copied()).unwrap();
            assert_same_answers(&reference, &view, &map, "v3 view");
        }
    }
}

#[test]
fn answers_identical_across_versions_on_the_crafted_map() {
    let map = crafted_map();
    let over = overlay(&map);
    let reference = QueryIndex::build_with_prefixes(&map, over.iter().copied());
    let view = V3View::open(snapshot::encode_v3(&map).unwrap(), over.iter().copied()).unwrap();
    assert_same_answers(&reference, &view, &map, "crafted v3 view");
    // And with no overlay at all.
    let bare = QueryIndex::build(&map);
    let bare_view = V3View::open(snapshot::encode_v3(&map).unwrap(), std::iter::empty()).unwrap();
    assert_same_answers(&bare, &bare_view, &map, "crafted bare view");
}

/// A server builds its overlay once and every view it opens shares it.
/// Shared views answer like a heap build over the configured list,
/// duplicates included: a prefix configured twice keeps its last owner
/// and counts once, and a twice-configured `/32` under a router is
/// shadowed once.
#[test]
fn views_sharing_one_overlay_answer_like_a_heap_build() {
    let map = crafted_map();
    let mut over = overlay(&map);
    let dupes: Vec<(Prefix, Asn)> = over.iter().map(|&(p, asn)| (p, Asn(asn.0 + 7))).collect();
    over.extend(dupes);
    over.push((Prefix::new(a("198.18.0.9"), 32), Asn(64777)));
    let reference = QueryIndex::build_with_prefixes(&map, over.iter().copied());

    let shared = Arc::new(flat::Overlay::new(over.iter().copied()));
    let from_entries = QueryIndex::build_with_prefixes(&map, shared.entries());
    assert_same_answers(&reference, &from_entries, &map, "heap over overlay entries");
    let bytes = snapshot::encode_v3(&map).unwrap();
    for round in 0..2 {
        let lay = flat::verify_integrity(&bytes).unwrap();
        let ok = flat::validate_structure(&bytes, &lay).unwrap();
        let view = V3View::with_overlay(bytes.clone(), lay, ok, Arc::clone(&shared));
        assert_same_answers(&reference, &view, &map, &format!("shared view {round}"));
    }
    let own = V3View::open(bytes, over.iter().copied()).unwrap();
    assert_same_answers(&reference, &own, &map, "view with its own overlay");
}

#[test]
fn every_version_round_trips_to_a_canonical_fixed_point() {
    let (map, _input) = pipeline_map(906);
    for version in snapshot::MIN_VERSION..=snapshot::LATEST_VERSION {
        let e1 = snapshot::encode_as(&map, version).unwrap();
        let m1 = snapshot::decode(&e1).unwrap();
        assert_eq!(
            snapshot::encode_as(&m1, version).unwrap(),
            e1,
            "v{version} re-encode is not a fixed point"
        );
        // Decoding through any version preserves the map exactly: its
        // encoding in every *other* version matches the original's.
        for other in snapshot::MIN_VERSION..=snapshot::LATEST_VERSION {
            assert_eq!(
                snapshot::encode_as(&m1, other).unwrap(),
                snapshot::encode_as(&map, other).unwrap(),
                "v{version} decode drifted when re-encoded as v{other}"
            );
        }
    }
}

#[test]
fn lowest_link_id_wins_on_heap_and_view_paths() {
    // 10.0.0.1 fronts links 0 and 1 (near side of both); 203.0.113.5
    // fronts only link 2 via its far side. Both read paths must hand
    // back the lowest link id for the shared interface.
    let map = crafted_map();
    let heap = QueryIndex::build(&map);
    let bytes = snapshot::encode_v3(&map).unwrap();
    let view = V3View::open(bytes.clone(), std::iter::empty()).unwrap();
    for (tag, got) in [
        ("heap", heap.border_of(a("10.0.0.1"))),
        ("view", view.border_of(a("10.0.0.1"))),
    ] {
        let b = got.expect("shared interface must resolve");
        assert_eq!(b.link, 0, "{tag}: lowest link id must win");
        assert_eq!(b.far_as, Asn(200), "{tag}: and carry link 0's answer");
    }
    // The v3 border section stores only the winning entry per address:
    // 3 distinct bordered addresses (10.0.0.1 fronts two links), not 4
    // rows.
    let lay = flat::verify_integrity(&bytes).unwrap();
    assert_eq!(
        lay.n_border, 3,
        "v3 border index must dedup to first-per-addr"
    );
}

#[test]
fn v3_truncation_at_every_length_is_rejected() {
    let bytes = snapshot::encode_v3(&crafted_map()).unwrap();
    for len in 0..bytes.len() {
        let cut = &bytes[..len];
        assert!(
            snapshot::decode(cut).is_err(),
            "truncation to {len}/{} bytes was accepted",
            bytes.len()
        );
        assert!(
            flat::verify_integrity(cut).is_err(),
            "verify_integrity accepted a {len}-byte prefix"
        );
    }
    assert!(
        snapshot::decode(&bytes).is_ok(),
        "the untruncated file must load"
    );
}

#[test]
fn v3_single_bit_flips_are_rejected() {
    let map = crafted_map();
    let bytes = snapshot::encode_v3(&map).unwrap();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut m = bytes.clone();
            m[i] ^= 1 << bit;
            match snapshot::decode(&m) {
                // A flip in the 6-byte preamble may legitimately turn
                // the file into a claim of some other version; those
                // parses must still never resurrect the original map.
                Ok(got) if i < 6 => assert_ne!(
                    snapshot::encode_v3(&got).unwrap(),
                    bytes,
                    "preamble flip at byte {i} bit {bit} round-tripped silently"
                ),
                Ok(_) => panic!("body flip at byte {i} bit {bit} was accepted"),
                Err(_) => {}
            }
        }
    }
}

#[test]
fn trie_entry_at_ownerless_router_is_rejected_at_open() {
    // Two routers: 0 owned, 1 ownerless. The encoder only emits trie
    // entries for owned routers, so rewrite one to point at router 1 —
    // with section + footer CRCs recomputed so only the structural
    // validation pass can catch it. The old read path `expect`ed the
    // owner at query time; the contract now is rejection at open.
    let evil = crafted::trie_entry_at_ownerless_router();

    // Checksums now pass — the integrity stage must accept the bytes —
    // but the structural stage refuses the file, and no panic escapes.
    assert!(flat::verify_integrity(&evil).is_ok());
    assert!(matches!(
        V3View::open(evil.clone(), std::iter::empty()),
        Err(snapshot::SnapshotError::Malformed)
    ));
    assert!(snapshot::decode(&evil).is_err());
    // The store's check-in-place path refuses it the same way.
    assert!(matches!(
        snapshot::verify(&evil),
        Err(snapshot::SnapshotError::Malformed)
    ));
}
