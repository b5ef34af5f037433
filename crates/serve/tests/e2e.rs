//! End-to-end tests for bdrmapd: a real inference served over real TCP.
//!
//! These are the PR's acceptance experiments: (1) every query kind
//! round-trips correctly against the border map the daemon is serving,
//! (2) a hot snapshot swap under sustained load loses zero in-flight
//! queries and post-swap answers reflect the new snapshot, and (3) a
//! saturated accept queue sheds with `Overload` instead of queueing
//! without bound.

use bdrmap_core::{
    snapshot, BdrmapConfig, BorderMap, Heuristic, InferredLink, InferredRouter, QueryIndex,
    SnapStore,
};
use bdrmap_eval::Scenario;
use bdrmap_serve::{
    loadgen, queries_for_map, Client, LinkInfo, LoadgenConfig, Request, Response, ServeConfig,
    Server, ServerBackend,
};
use bdrmap_topo::TopoConfig;
use bdrmap_types::wire::{read_frame, MAX_FRAME};
use bdrmap_types::{addr, Asn};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn infer(seed: u64, vp: usize) -> BorderMap {
    let sc = Scenario::build("serve-e2e", &TopoConfig::tiny(seed));
    sc.run_vp(vp, &BdrmapConfig::default())
}

/// Both backends must pass every acceptance experiment in this file.
fn backends() -> Vec<ServerBackend> {
    let mut v = vec![ServerBackend::Threads];
    if cfg!(target_os = "linux") {
        v.push(ServerBackend::Epoll);
    }
    v
}

fn start(map: &BorderMap, workers: usize, queue: usize, backend: ServerBackend) -> Server {
    Server::start(
        map,
        ServeConfig {
            workers,
            queue,
            backend,
            ..ServeConfig::default()
        },
    )
    .expect("server starts on an ephemeral port")
}

/// Acceptance: for every address/AS the map knows about, the served
/// answer equals what the in-process index computes.
#[test]
fn serves_all_three_query_kinds_correctly() {
    for backend in backends() {
        serves_all_three_query_kinds_correctly_impl(backend);
    }
}

fn serves_all_three_query_kinds_correctly_impl(backend: ServerBackend) {
    let map = infer(61, 0);
    assert!(!map.links.is_empty(), "tiny scenario must infer links");
    let reference = QueryIndex::build(&map);
    let server = start(&map, 2, 16, backend);
    let mut client = Client::connect(&server.local_addr()).unwrap();

    // Owner-of-address over every router interface in the map.
    let mut owners = 0;
    for router in &map.routers {
        for &a in router.addrs.iter().chain(&router.other_addrs) {
            let served = match client.call(&Request::Owner(a)).unwrap() {
                Response::Owner(ans) => ans,
                other => panic!("owner query answered with {other:?}"),
            };
            assert_eq!(served, reference.owner_of(a), "owner mismatch for {a}");
            owners += served.is_some() as u32;
        }
    }
    assert!(owners > 0, "no owned router interface resolved");

    // Border-router-of-link over every link interface.
    let mut borders = 0;
    for link in &map.links {
        for a in [link.near_addr, link.far_addr].into_iter().flatten() {
            let served = match client.call(&Request::Border(a)).unwrap() {
                Response::Border(ans) => ans,
                other => panic!("border query answered with {other:?}"),
            };
            let expected = reference.border_of(a).map(LinkInfo::from);
            assert_eq!(served, expected, "border mismatch for {a}");
            borders += served.is_some() as u32;
        }
    }
    assert!(borders > 0, "no link interface resolved to a border");

    // Links-of-neighbor-AS over every far AS in the map.
    let mut neighbor_links = 0;
    let mut neighbors: Vec<_> = map.links.iter().map(|l| l.far_as).collect();
    neighbors.sort_unstable();
    neighbors.dedup();
    for asn in neighbors {
        let served = match client.call(&Request::Neighbor(asn)).unwrap() {
            Response::Neighbor(links) => links,
            other => panic!("neighbor query answered with {other:?}"),
        };
        let expected: Vec<LinkInfo> = reference
            .links_of_neighbor(asn)
            .iter()
            .filter_map(|&id| reference.link_answer(id))
            .map(LinkInfo::from)
            .collect();
        assert_eq!(served, expected, "neighbor mismatch for {asn}");
        neighbor_links += served.len();
    }
    assert!(neighbor_links > 0, "no neighbor produced links");

    // A covering miss stays a miss.
    let nowhere = "255.255.255.254".parse().unwrap();
    assert_eq!(
        client.call(&Request::Owner(nowhere)).unwrap(),
        Response::Owner(None)
    );
    assert_eq!(
        client.call(&Request::Border(nowhere)).unwrap(),
        Response::Border(None)
    );

    // Stats reflect the work and the initial generation.
    let stats = match client.call(&Request::Stats).unwrap() {
        Response::Stats(s) => s,
        other => panic!("stats answered with {other:?}"),
    };
    assert_eq!(stats.generation, 1);
    assert_eq!(stats.routers as usize, map.routers.len());
    assert_eq!(stats.links as usize, map.links.len());
    assert!(stats.queries > 0);

    drop(client);
    server.shutdown();
}

/// Acceptance: a reload concurrent with sustained load answers every
/// in-flight query, and post-swap responses reflect the new snapshot.
#[test]
fn hot_swap_under_load_loses_no_queries() {
    for backend in backends() {
        hot_swap_under_load_loses_no_queries_impl(backend);
    }
}

fn hot_swap_under_load_loses_no_queries_impl(backend: ServerBackend) {
    let map_a = infer(61, 0);
    let map_b = infer(61, 1);
    let dir = std::env::temp_dir().join("bdrmap-serve-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let snap_b = dir.join("map-b.bdrm");
    snapshot::save(&snap_b, &map_b).unwrap();

    let server = start(&map_a, 4, 64, backend);
    let queries = queries_for_map(&map_a);
    let report = loadgen::run(
        server.local_addr(),
        &queries,
        &LoadgenConfig {
            conns: 4,
            duration: Duration::from_millis(1200),
            reload_with: Some(snap_b.clone()),
            ..LoadgenConfig::default()
        },
    )
    .unwrap();

    assert!(report.queries_ok > 0, "load generator made no progress");
    assert_eq!(
        report.queries_error, 0,
        "hot swap lost in-flight queries: {report:?}"
    );
    let reload = report.reload.expect("mid-run reload must report stats");
    assert_eq!(reload.generation, 2, "exactly one swap must have landed");
    assert!(reload.round_trip_us > 0);

    // Post-swap, the daemon answers from the new snapshot: every owner
    // answer matches an index built from map B, not map A.
    let reference_b = QueryIndex::build(&map_b);
    let mut client = Client::connect(&server.local_addr()).unwrap();
    for router in &map_b.routers {
        for &a in router.addrs.iter().chain(&router.other_addrs) {
            let served = match client.call(&Request::Owner(a)).unwrap() {
                Response::Owner(ans) => ans,
                other => panic!("owner query answered with {other:?}"),
            };
            assert_eq!(served, reference_b.owner_of(a), "stale answer for {a}");
        }
    }
    let stats = match client.call(&Request::Stats).unwrap() {
        Response::Stats(s) => s,
        other => panic!("stats answered with {other:?}"),
    };
    assert_eq!(stats.generation, 2);

    drop(client);
    server.shutdown();
    std::fs::remove_file(&snap_b).ok();
}

/// With one worker and a one-deep queue, extra connections are shed
/// with a single `Overload` frame instead of piling up.
#[test]
fn saturated_accept_queue_sheds_overload() {
    for backend in backends() {
        saturated_accept_queue_sheds_overload_impl(backend);
    }
}

fn saturated_accept_queue_sheds_overload_impl(backend: ServerBackend) {
    let map = infer(61, 0);
    let server = start(&map, 1, 1, backend);

    // Occupy the only worker: a connection is held for its lifetime.
    let mut busy = Client::connect(&server.local_addr()).unwrap();
    let addr = map.routers[0]
        .addrs
        .first()
        .copied()
        .unwrap_or_else(|| "203.0.113.1".parse().unwrap());
    busy.call(&Request::Owner(addr)).unwrap();

    // Flood: one connection fits the queue; later ones must be shed.
    let mut sheds = 0;
    let mut extras = Vec::new();
    for _ in 0..8 {
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        // Shed frames arrive immediately; a queued connection just
        // times out here and is kept open to hold its queue slot.
        stream
            .set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        match read_frame(&mut stream, MAX_FRAME) {
            Ok(Some(payload)) => {
                assert_eq!(Response::decode(&payload).unwrap(), Response::Overload);
                sheds += 1;
            }
            // Queued (no frame yet) — keep the socket open so the queue
            // stays full for the rest of the flood.
            _ => extras.push(stream),
        }
    }
    assert!(sheds > 0, "no connection was shed at the accept queue");
    assert!(server.stats().sheds >= sheds);

    // The busy connection still works: shedding is per-connection, not
    // a server-wide failure.
    assert!(matches!(
        busy.call(&Request::Owner(addr)).unwrap(),
        Response::Owner(_)
    ));

    drop(busy);
    drop(extras);
    server.shutdown();
}

/// Pull one counter value out of a Prometheus-style exposition.
fn scrape(text: &str, name: &str, labels: &str) -> u64 {
    let series = if labels.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{labels}}}")
    };
    for line in text.lines() {
        if let Some(v) = line.strip_prefix(&format!("{series} ")) {
            return v.trim().parse().unwrap_or_else(|_| {
                panic!("unparseable sample for {series}: {line}");
            });
        }
    }
    panic!("series {series} not found in exposition:\n{text}");
}

/// Regression (observability sweep): polling `Stats` must neither
/// inflate the query counter (the old bug class: control frames
/// counted as queries) nor vanish from accounting — every control
/// frame shows up under its own opcode in `bdrmapd_requests_total`.
#[test]
fn stats_polling_neither_distorts_nor_vanishes() {
    for backend in backends() {
        stats_polling_neither_distorts_nor_vanishes_impl(backend);
    }
}

fn stats_polling_neither_distorts_nor_vanishes_impl(backend: ServerBackend) {
    let map = infer(61, 0);
    let server = start(&map, 2, 16, backend);
    let mut client = Client::connect(&server.local_addr()).unwrap();

    let addr = map.routers[0]
        .addrs
        .first()
        .copied()
        .unwrap_or_else(|| "203.0.113.1".parse().unwrap());
    let far_as = map
        .links
        .first()
        .map(|l| l.far_as)
        .unwrap_or(bdrmap_types::Asn(64500));
    for _ in 0..5 {
        client.call(&Request::Owner(addr)).unwrap();
    }
    for _ in 0..3 {
        client.call(&Request::Border(addr)).unwrap();
    }
    for _ in 0..2 {
        client.call(&Request::Neighbor(far_as)).unwrap();
    }

    // Poll Stats heavily; the query counter must not move.
    let mut last = None;
    for _ in 0..7 {
        match client.call(&Request::Stats).unwrap() {
            Response::Stats(s) => last = Some(s),
            other => panic!("stats answered with {other:?}"),
        }
    }
    assert_eq!(
        last.unwrap().queries,
        10,
        "Stats polling distorted the query counter"
    );

    // ...and one Health frame for good measure.
    match client.call(&Request::Health).unwrap() {
        Response::Health(_) => {}
        other => panic!("health answered with {other:?}"),
    }

    // The control frames are accounted under their own opcodes.
    let text = match client.call(&Request::Metrics).unwrap() {
        Response::Metrics(t) => t,
        other => panic!("metrics answered with {other:?}"),
    };
    assert_eq!(scrape(&text, "bdrmapd_requests_total", "op=\"owner\""), 5);
    assert_eq!(scrape(&text, "bdrmapd_requests_total", "op=\"border\""), 3);
    assert_eq!(
        scrape(&text, "bdrmapd_requests_total", "op=\"neighbor\""),
        2
    );
    assert_eq!(scrape(&text, "bdrmapd_requests_total", "op=\"stats\""), 7);
    assert_eq!(scrape(&text, "bdrmapd_requests_total", "op=\"health\""), 1);
    // The Metrics request itself was counted before rendering.
    assert_eq!(scrape(&text, "bdrmapd_requests_total", "op=\"metrics\""), 1);
    // Exposition agrees with the wire Stats view of query volume.
    assert!(text.contains("# TYPE bdrmapd_request_us histogram"));

    drop(client);
    server.shutdown();
}

/// Regression (torn reload triple): `(generation, build_us, swap_us)`
/// is published as one atomically-swapped unit, so a `Stats` reader
/// racing concurrent reloads can never observe a mix of two reloads'
/// fields. Every observed triple must be exactly the initial one or
/// one returned by some `Reloaded` response.
#[test]
fn concurrent_reloads_never_tear_the_stats_triple() {
    for backend in backends() {
        concurrent_reloads_never_tear_the_stats_triple_impl(backend);
    }
}

fn concurrent_reloads_never_tear_the_stats_triple_impl(backend: ServerBackend) {
    let map = infer(61, 0);
    let map_b = infer(61, 1);
    let dir = std::env::temp_dir().join("bdrmap-serve-e2e-tear");
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("map-b.bdrm");
    snapshot::save(&snap, &map_b).unwrap();

    let server = start(&map, 4, 64, backend);
    let addr = server.local_addr();
    let path = snap.display().to_string();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));

    // Two threads hammer Reload; collect every triple the server
    // acknowledged.
    let reloaders: Vec<_> = (0..2)
        .map(|_| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                let mut acked = Vec::new();
                for _ in 0..12 {
                    match client.call(&Request::Reload(path.clone())).unwrap() {
                        Response::Reloaded {
                            generation,
                            build_us,
                            swap_us,
                            ..
                        } => acked.push((generation, build_us, swap_us)),
                        Response::Error(e) => panic!("reload failed: {e}"),
                        other => panic!("reload answered with {other:?}"),
                    }
                }
                acked
            })
        })
        .collect();

    // One thread polls Stats the whole time.
    let poller = {
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).unwrap();
            let mut seen = Vec::new();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                match client.call(&Request::Stats).unwrap() {
                    Response::Stats(s) => {
                        seen.push((s.generation, s.last_build_us, s.last_swap_us))
                    }
                    other => panic!("stats answered with {other:?}"),
                }
            }
            seen
        })
    };

    let mut acked: Vec<(u64, u64, u64)> = Vec::new();
    for h in reloaders {
        acked.extend(h.join().unwrap());
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let seen = poller.join().unwrap();

    assert!(!seen.is_empty(), "poller observed nothing");
    for triple in &seen {
        let legitimate = *triple == (1, 0, 0) || acked.contains(triple);
        assert!(
            legitimate,
            "torn stats triple {triple:?}: not the boot state and not \
             acknowledged by any reload (acked: {acked:?})"
        );
    }
    // Sanity: the 24 reloads really advanced the generation.
    assert_eq!(server.generation(), 25);

    server.shutdown();
    std::fs::remove_file(&snap).ok();
}

/// A synthetic map of `routers` routers, each owned by `64500 + salt`,
/// so any owner answer names the generation served.
fn bulk_map(routers: u32, salt: u32) -> BorderMap {
    let iface = |i: u32| addr(0x0A00_0000 + 2 * i);
    BorderMap {
        routers: (0..routers)
            .map(|i| InferredRouter {
                addrs: vec![iface(i), addr(0x0A00_0000 + 2 * i + 1)],
                other_addrs: vec![],
                owner: Some(Asn(64500 + salt)),
                heuristic: Some(Heuristic::OneNet),
                min_hop: 1,
            })
            .collect(),
        links: (0..routers / 2)
            .map(|i| InferredLink {
                near: 2 * i as usize,
                far: Some(2 * i as usize + 1),
                far_as: Asn(64500 + salt),
                near_addr: Some(iface(2 * i)),
                far_addr: Some(iface(2 * i + 1)),
                heuristic: Heuristic::OneNet,
            })
            .collect(),
        packets: u64::from(salt),
        elapsed_ms: 0,
    }
}

/// Reloads are serialised from load to swap. Several clients send
/// store `Reload`s to a multi-worker server while a writer publishes
/// generations that alternate between a large map (slow to load) and a
/// small one (fast). Unserialised, a reload still loading a large
/// generation would swap it in after a later reload had already served
/// the next, small one. Every reloading client and a `Health` poller
/// must see the generation never go back, and the server must end up
/// serving the newest generation.
#[test]
fn concurrent_store_reloads_never_regress_the_generation() {
    for backend in backends() {
        concurrent_store_reloads_never_regress_the_generation_impl(backend);
    }
}

fn concurrent_store_reloads_never_regress_the_generation_impl(backend: ServerBackend) {
    const NEWEST: u32 = 16;
    let routers = |salt: u32| if salt % 2 == 1 { 20_000 } else { 200 };
    let dir = std::env::temp_dir().join(format!(
        "bdrmap-serve-e2e-reload-race-{backend}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let store = SnapStore::open(&dir).unwrap();
    assert_eq!(store.publish(&bulk_map(routers(1), 1)).unwrap(), 1);
    let server = Server::start_from_store(
        &dir,
        ServeConfig {
            workers: 4,
            queue: 64,
            backend,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let server_addr = server.local_addr();
    let done = Arc::new(AtomicBool::new(false));

    let reloaders: Vec<_> = (0..3)
        .map(|_| {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut client = Client::connect(&server_addr).unwrap();
                let mut seen = Vec::new();
                loop {
                    // Read the flag first: the round after the writer
                    // finished reloads the newest generation.
                    let last = done.load(Ordering::SeqCst);
                    match client.call(&Request::Reload(String::new())).unwrap() {
                        Response::Reloaded { .. } => {}
                        other => panic!("store reload answered with {other:?}"),
                    }
                    match client.call(&Request::Health).unwrap() {
                        Response::Health(h) => seen.push(h.generation),
                        other => panic!("health answered with {other:?}"),
                    }
                    if last {
                        return seen;
                    }
                }
            })
        })
        .collect();
    let poller = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut client = Client::connect(&server_addr).unwrap();
            let mut seen = Vec::new();
            while !done.load(Ordering::SeqCst) {
                match client.call(&Request::Health).unwrap() {
                    Response::Health(h) => seen.push(h.generation),
                    other => panic!("health answered with {other:?}"),
                }
            }
            seen
        })
    };

    for salt in 2..=NEWEST {
        let generation = store.publish(&bulk_map(routers(salt), salt)).unwrap();
        assert_eq!(generation, u64::from(salt));
    }
    done.store(true, Ordering::SeqCst);

    // The first step back in a sequence of observed generations.
    let step_back = |seen: &[u64]| {
        let i = seen.windows(2).position(|w| w[0] > w[1])?;
        Some(format!(
            "{} then {} at sample {} of {}",
            seen[i],
            seen[i + 1],
            i + 1,
            seen.len()
        ))
    };
    let polled = poller.join().unwrap();
    if let Some(back) = step_back(&polled) {
        panic!("{backend}: the Health poller saw the generation go back: {back}");
    }
    for (c, h) in reloaders.into_iter().enumerate() {
        let seen = h.join().unwrap();
        if let Some(back) = step_back(&seen) {
            panic!("{backend}: client {c} saw the generation go back: {back}");
        }
        assert_eq!(
            seen.last(),
            Some(&u64::from(NEWEST)),
            "{backend}: client {c}"
        );
    }
    assert_eq!(server.health().generation, u64::from(NEWEST));
    let mut client = Client::connect(&server_addr).unwrap();
    match client.call(&Request::Owner(addr(0x0A00_0000))).unwrap() {
        Response::Owner(Some(ans)) => assert_eq!(ans.asn, Asn(64500 + NEWEST), "{backend}"),
        other => panic!("owner query answered with {other:?}"),
    }
    drop(client);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
