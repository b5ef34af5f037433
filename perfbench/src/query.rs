//! `query-bulk` and `query-swap`: the query loop of bdrmapd over a
//! seeded synthetic map, driven by this benchmark's own client.

use crate::spans::Tracer;
use crate::speed::Speed;
use crate::stats::{self, splitmix64, Digest, RateWindows};
use crate::{repeat_setup, Ctx, Outcome, Size};
use bdrmap_core::{flat, snapshot, BorderMap, Heuristic, InferredLink, InferredRouter, SnapStore};
use bdrmap_serve::{answer, Client, Request, Response, ServeConfig, Server};
use bdrmap_types::wire::{read_frame, MAX_FRAME};
use bdrmap_types::{addr, Asn, Prefix};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Closed loop, `DEPTH` lookups in flight on one connection.
    Bulk,
    /// Open loop at `RATE` on one connection, beside periodic reloads.
    Swap,
}

/// Lookups kept in flight by the bulk client. The server admits at most
/// `max_inflight` (64) buffered frames per connection.
const DEPTH: usize = 64;
/// Offered rate of the swap workload's reader, requests per second.
const RATE: f64 = 2000.0;
/// Re-publish and `Reload` period of the swap workload's writer.
const RELOAD_PERIOD: Duration = Duration::from_millis(500);
/// Window for the answer-rate median.
const QPS_WINDOW_S: f64 = 0.01;
/// A bulk annotation chunk: the bulk workload's latency is the time the
/// client takes to receive each consecutive chunk of this many answers.
const BULK_CHUNK: usize = 2000;
/// Fixed tail quantiles. Bulk: of chunk times. Swap: of all reads,
/// inside the reload-stall mass (reloads stall roughly a fifth of them).
const BULK_TAIL: f64 = 0.9;
const SWAP_TAIL: f64 = 0.95;

/// The shape of the maps this repository's own pipeline produces: the
/// `access` scenario mapped from VP 0 at probe parallelism 1, measured
/// over eight seeds at scale 0.3 (about 950 routers each) and checked at
/// scales 0.15 and 0.6, where every ratio stayed within about a fifth.
/// The synthetic map scales these ratios up;
/// `synthetic_shape_follows_pipeline_maps` re-measures one pipeline map
/// and holds the generator to them.
mod pipeline {
    /// Routers with 1, 2, 3, 4 and 5 interfaces, per mille. No router
    /// had an address seen only in other ICMP.
    pub const ADDRS_PER_ROUTER: [(usize, u64); 5] = [(1, 943), (2, 40), (3, 12), (4, 3), (5, 2)];
    pub const LINKS_PER_ROUTER: f64 = 0.31;
    /// Links share few near-side routers: the VP network's borders.
    pub const LINKS_PER_NEAR_ROUTER: f64 = 4.3;
    /// Links whose far router was never seen (silent neighbors).
    pub const SILENT_LINKS: f64 = 0.045;
    /// Distinct far ASes per link, and distinct owners per router.
    pub const FAR_AS_PER_LINK: f64 = 0.8;
    pub const OWNERS_PER_ROUTER: f64 = 0.5;
    /// Interfaces cluster in /24s, and /24s in /16s.
    pub const ADDRS_PER_24: f64 = 7.0;
    pub const SLASH24_PER_16: f64 = 3.6;
    /// The single-origin BGP prefixes bdrmapd's prefix-owner layer
    /// serves (`bdrmap serve` over a scenario), per router, with their
    /// lengths per mille; this share of interfaces falls inside one.
    pub const PREFIXES_PER_ROUTER: f64 = 1.5;
    pub const PREFIX_LENS: [(u8, u64); 10] = [
        (15, 5),
        (16, 22),
        (17, 1),
        (18, 3),
        (19, 30),
        (20, 11),
        (22, 158),
        (23, 324),
        (24, 397),
        (25, 49),
    ];
    pub const IN_PREFIX: f64 = 0.95;
    /// Hops of the VP's own traceroutes that are no interface of its map.
    pub const HOP_MISS: f64 = 0.01;
}

struct Shape {
    routers: usize,
    mix: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        // About 4.5 MB as a v3 file: larger than the 4 MiB L2 cache.
        Size::Full => Shape {
            routers: 50_000,
            mix: 65_536,
        },
        Size::Tiny => Shape {
            routers: 2_000,
            mix: 512,
        },
    }
}

/// Draw from `(value, weight)` pairs.
fn weighted<T: Copy>(r: u64, table: &[(T, u64)]) -> T {
    let total: u64 = table.iter().map(|&(_, w)| w).sum();
    let mut x = r % total;
    for &(v, w) in table {
        if x < w {
            return v;
        }
        x -= w;
    }
    unreachable!("x < total")
}

/// A uniform draw in [0, 1).
fn unit(r: u64) -> f64 {
    (r >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded synthetic border map built through the public `BorderMap`
/// types with the pipeline's shape ([`pipeline`]), plus the prefix-owner
/// overlay bdrmapd serves under it.
fn mapgen(seed: u64, sh: &Shape) -> (BorderMap, Vec<(Prefix, Asn)>) {
    use pipeline::*;
    let mut st = seed ^ 0x05ee_d0fb_0a2d;
    let mut rnd = move || splitmix64(&mut st);
    let n = sh.routers;
    let counts: Vec<usize> = (0..n).map(|_| weighted(rnd(), &ADDRS_PER_ROUTER)).collect();
    let total: usize = counts.iter().sum();
    // Interfaces fill /24 blocks that cluster in /16s.
    let n24 = ((total as f64 / ADDRS_PER_24).ceil() as usize).max(1);
    let n16 = ((n24 as f64 / SLASH24_PER_16).ceil() as usize).max(1);
    let mut s16 = BTreeSet::new();
    while s16.len() < n16 {
        let b = (rnd() as u32) & 0xffff;
        if b >> 8 != 0 && b >> 8 != 127 && b >> 8 < 224 {
            s16.insert(b);
        }
    }
    let s16: Vec<u32> = s16.into_iter().collect();
    let mut s24 = BTreeSet::new();
    while s24.len() < n24 {
        s24.insert((s16[(rnd() % n16 as u64) as usize] << 8) | (rnd() as u32 & 0xff));
    }
    let s24: Vec<u32> = s24.into_iter().collect();
    // Each /24 holds its share of interfaces, `.1` upward.
    let mut next = vec![1u32; n24];
    let mut fresh = |r: u64| {
        let mut b = (r % n24 as u64) as usize;
        while next[b] > 254 {
            b = (b + 1) % n24;
        }
        next[b] += 1;
        addr((s24[b] << 8) | (next[b] - 1))
    };
    // `distinct` values over a sequence: each once, then repeats.
    let asn = |i: usize, distinct: usize, r: u64| {
        let k = if i < distinct {
            i as u64
        } else {
            r % distinct as u64
        };
        Asn(100_000 + k as u32)
    };
    let owners = ((n as f64 * OWNERS_PER_ROUTER) as usize).max(1);
    let heuristic = |r: u64| Heuristic::ALL[(r % Heuristic::ALL.len() as u64) as usize];
    let routers: Vec<InferredRouter> = counts
        .iter()
        .enumerate()
        .map(|(i, &k)| InferredRouter {
            addrs: (0..k).map(|_| fresh(rnd())).collect(),
            other_addrs: Vec::new(),
            owner: Some(asn(i, owners, rnd())),
            heuristic: Some(heuristic(rnd())),
            min_hop: (1 + rnd() % 20) as u8,
        })
        .collect();
    // Links hang off a few near-side routers; each far router is its
    // own router, taken from the end of the table.
    let n_links = (n as f64 * LINKS_PER_ROUTER) as usize;
    let n_near = ((n_links as f64 / LINKS_PER_NEAR_ROUTER) as usize).max(1);
    let far_ases = ((n_links as f64 * FAR_AS_PER_LINK) as usize).max(1);
    let links = (0..n_links)
        .map(|i| {
            let near = (rnd() % n_near as u64) as usize;
            let far = (unit(rnd()) >= SILENT_LINKS).then_some(n - 1 - i);
            let pick =
                |r: usize, x: u64| routers[r].addrs[(x % routers[r].addrs.len() as u64) as usize];
            InferredLink {
                near,
                far,
                far_as: asn(i, far_ases, rnd()),
                near_addr: Some(pick(near, rnd())),
                far_addr: far.map(|f| pick(f, rnd())),
                heuristic: if far.is_some() {
                    heuristic(rnd())
                } else {
                    Heuristic::SilentNeighbor
                },
            }
        })
        .collect();
    // Prefixes: one covering most /24s that hold interfaces, the rest
    // elsewhere in the address space.
    let mut prefixes = BTreeMap::new();
    for &b in &s24 {
        if unit(rnd()) < IN_PREFIX {
            let len = weighted(rnd(), &PREFIX_LENS).min(24);
            prefixes.insert(Prefix::new(addr(b << 8), len), asn(n, owners, rnd()));
        }
    }
    let want = (n as f64 * PREFIXES_PER_ROUTER) as usize;
    while prefixes.len() < want {
        let bits = rnd() as u32;
        if bits >> 24 == 0 || bits >> 24 == 127 || bits >> 24 >= 224 {
            continue;
        }
        let p = Prefix::new(addr(bits), weighted(rnd(), &PREFIX_LENS));
        prefixes.entry(p).or_insert(asn(n, owners, rnd()));
    }
    let map = BorderMap {
        routers,
        links,
        packets: n as u64 * 10,
        elapsed_ms: n as u64,
    };
    (map, prefixes.into_iter().collect())
}

/// The seeded request mix. Hits are drawn from the query set bdrmap's
/// load generator derives from a map (`serve::queries_for_map`: one
/// owner lookup per router interface, one border lookup per link
/// interface, one neighbor lookup per distinct far AS), rebuilt here so
/// a change to that module cannot move the measurement. A
/// [`pipeline::HOP_MISS`] share of each kind asks for a key the map does
/// not hold.
fn mix(seed: u64, map: &BorderMap, sh: &Shape) -> Vec<Request> {
    let mut hits = Vec::new();
    for r in &map.routers {
        hits.extend(
            r.addrs
                .iter()
                .chain(&r.other_addrs)
                .map(|&a| Request::Owner(a)),
        );
    }
    let mut far_ases = BTreeSet::new();
    for l in &map.links {
        hits.extend(
            [l.near_addr, l.far_addr]
                .into_iter()
                .flatten()
                .map(Request::Border),
        );
        far_ases.insert(l.far_as);
    }
    hits.extend(far_ases.into_iter().map(Request::Neighbor));
    let mut st = seed ^ 0x00a1_1ce5;
    let mut rnd = move || splitmix64(&mut st);
    (0..sh.mix)
        .map(|_| {
            let hit = hits[(rnd() % hits.len() as u64) as usize].clone();
            if unit(rnd()) >= pipeline::HOP_MISS {
                return hit;
            }
            match hit {
                Request::Owner(_) => Request::Owner(addr(rnd() as u32)),
                Request::Border(_) => Request::Border(addr(rnd() as u32)),
                _ => Request::Neighbor(Asn(4_000_000 + (rnd() % 1024) as u32)),
            }
        })
        .collect()
}

/// A running bdrmapd over the synthetic map, with the request mix and
/// the in-process answers every served answer must equal.
struct Serving {
    map: BorderMap,
    bytes: Vec<u8>,
    store: SnapStore,
    server: Server,
    requests: Vec<Request>,
    /// Length-prefixed request frames.
    frames: Vec<Vec<u8>>,
    /// Expected response payloads.
    expected: Vec<Vec<u8>>,
    view: flat::V3View,
    mapgen_ms: f64,
    encode_ms: f64,
    publish_ms: f64,
}

fn setup(ctx: &Ctx, tag: &str) -> Result<(Serving, u64), String> {
    let sh = shape(ctx.size);
    let t = Instant::now();
    let (map, prefixes) = mapgen(ctx.seed, &sh);
    let mapgen_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let bytes = snapshot::encode_as(&map, 3).map_err(|e| format!("encoding map: {e}"))?;
    let encode_ms = t.elapsed().as_secs_f64() * 1e3;
    let dir: PathBuf = ctx.dir(&format!("store-{tag}"))?;
    let store = SnapStore::open(&dir).map_err(|e| e.to_string())?;
    let t = Instant::now();
    store.publish(&map).map_err(|e| e.to_string())?;
    let publish_ms = t.elapsed().as_secs_f64() * 1e3;
    // bdrmapd's threads inherit the CPU set of the thread that starts
    // them. bdrmapd and the reading client share CPU 0, so a lockstep
    // round trip is two context switches on one CPU instead of waking
    // a halted vCPU, which a busy host can delay by milliseconds.
    crate::host::pin_current_thread(0);
    let server = Server::start_from_store(
        &dir,
        ServeConfig {
            workers: 1,
            prefix_owners: prefixes.clone(),
            ..Default::default()
        },
    )
    .map_err(|e| format!("starting bdrmapd: {e}"))?;
    let view = flat::V3View::open(bytes.clone(), prefixes.iter().copied())
        .map_err(|e| format!("opening the map in process: {e}"))?;
    let requests = mix(ctx.seed, &map, &sh);
    let mut digest = Digest::default();
    digest.update(&bytes);
    let frames: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| {
            let p = r.encode();
            digest.update(&p);
            let mut f = (p.len() as u32).to_be_bytes().to_vec();
            f.extend_from_slice(&p);
            f
        })
        .collect();
    digest.update(format!("{RATE} {:?} {DEPTH}", RELOAD_PERIOD).as_bytes());
    let expected = requests
        .iter()
        .map(|r| answer(&view, r).expect("lookups have answers").encode())
        .collect();
    let s = Serving {
        map,
        bytes,
        store,
        server,
        requests,
        frames,
        expected,
        view,
        mapgen_ms,
        encode_ms,
        publish_ms,
    };
    // Warm-up: one pass over the mix, discarded.
    let mut o = Outcome::default();
    let mut off = Tracer::new(false, Instant::now());
    bulk(&s, 0.0, &mut off, &mut o)?;
    if !o.violations.is_empty() || o.failed > 0 {
        return Err(format!("warm-up failed: {:?}", o.violations));
    }
    Ok((s, digest.finish()))
}

/// Check one answer against the in-process one; shed and errors count
/// as failed, anything else wrong as a correctness violation.
fn judge(s: &Serving, idx: usize, payload: &[u8], out: &mut Outcome) {
    if payload == s.expected[idx].as_slice() {
        return;
    }
    match Response::decode(payload) {
        Ok(Response::Overload) | Ok(Response::Error(_)) => out.failed += 1,
        other => {
            if out.violations.len() < 8 {
                out.violations.push(format!(
                    "answer to {:?} was {other:?}, in-process answer differs",
                    s.requests[idx]
                ));
            }
        }
    }
}

struct Measured {
    /// Every `RTT_SAMPLE`-th answer's round trip.
    rtt_ms: Vec<f64>,
    /// Time to receive each consecutive chunk of `BULK_CHUNK` answers.
    chunk_ms: Vec<f64>,
    /// The same at the reference host speed ([`crate::speed`]).
    chunk_scaled: Vec<f64>,
    windows: RateWindows,
    span_s: f64,
    slowdown: f64,
}

/// The bulk client keeps one round trip in this many, which bounds its
/// own memory (it would otherwise dominate `peak_rss_mb`).
const RTT_SAMPLE: u64 = 16;

/// The traced phases record the spans of one bulk window in this many,
/// and of one swap read in this many.
const TRACE_EVERY: u64 = 64;
const TRACE_EVERY_READ: u64 = 8;

/// The bulk client times one unit of the speed kernel (about 0.1 ms)
/// every this many windows, about once per chunk, outside the chunk
/// times; the swap reader at most once per this many reads, and only
/// when the next read is at least [`SAMPLE_SLACK`] away.
const SAMPLE_EVERY: u64 = 32;
const SAMPLE_EVERY_READ: u64 = 8;
const SAMPLE_SLACK: Duration = Duration::from_micros(300);

/// Closed loop in lockstep windows: write `DEPTH` lookups at once, read
/// until all of them are answered, repeat. bdrmapd reads a window as one
/// batch and answers it with one `writev`, so the window bounces as a
/// unit whichever way the client refills it; lockstep makes that
/// explicit. `seconds == 0` runs exactly one pass over the mix.
fn bulk(s: &Serving, seconds: f64, tr: &mut Tracer, out: &mut Outcome) -> Result<Measured, String> {
    let io = |e: std::io::Error| format!("bulk client: {e}");
    let mut w = TcpStream::connect(s.server.local_addr()).map_err(io)?;
    w.set_nodelay(true).map_err(io)?;
    let mut r = w.try_clone().map_err(io)?;
    let n = s.frames.len();
    let limit = if seconds > 0.0 { usize::MAX } else { n };
    let mut buf = vec![0u8; 1 << 18];
    let mut m = Measured {
        rtt_ms: Vec::new(),
        chunk_ms: Vec::new(),
        chunk_scaled: Vec::new(),
        windows: RateWindows::new(QPS_WINDOW_S),
        span_s: 0.0,
        slowdown: 0.0,
    };
    let mut speed = Speed::new();
    let mut chunk_at = Vec::new();
    let start = Instant::now();
    let mut chunk_start = start;
    let (mut next, mut answered) = (0usize, 0u64);
    let mut window = VecDeque::with_capacity(DEPTH);
    let mut outbuf = Vec::new();
    let mut off = Tracer::new(false, start);
    for op in 0u64.. {
        if next >= limit || (seconds > 0.0 && start.elapsed().as_secs_f64() >= seconds) {
            break;
        }
        // Trace one window in `TRACE_EVERY`: enough spans to split the
        // round trip, few enough to keep the span file small.
        let tr = if op.is_multiple_of(TRACE_EVERY) {
            &mut *tr
        } else {
            &mut off
        };
        if op.is_multiple_of(SAMPLE_EVERY) {
            let t = Instant::now();
            speed.sample(1);
            // Sampling time is not the chunk's.
            chunk_start += t.elapsed();
        }
        while window.len() < DEPTH && next < limit {
            outbuf.extend_from_slice(&s.frames[next % n]);
            window.push_back(next % n);
            next += 1;
        }
        let sent = Instant::now();
        tr.span("client.send", op, || w.write_all(&outbuf))
            .map_err(io)?;
        outbuf.clear();
        let mut have = 0;
        while !window.is_empty() {
            if have == buf.len() {
                buf.resize(buf.len() * 2, 0);
            }
            let got = tr
                .span("client.wait", op, || r.read(&mut buf[have..]))
                .map_err(io)?;
            if got == 0 {
                out.failed += window.len() as u64;
                return Err("bdrmapd closed the bulk connection".into());
            }
            have += got;
            let now = Instant::now();
            let v = tr.begin("client.verify", op);
            let mut pos = 0;
            while have - pos >= 4 {
                let len =
                    u32::from_be_bytes(buf[pos..pos + 4].try_into().expect("4 bytes")) as usize;
                if have - pos < 4 + len {
                    break;
                }
                let idx = window.pop_front().ok_or("answer without a request")?;
                judge(s, idx, &buf[pos + 4..pos + 4 + len], out);
                out.attempted += 1;
                answered += 1;
                if answered.is_multiple_of(RTT_SAMPLE) {
                    m.rtt_ms.push((now - sent).as_secs_f64() * 1e3);
                }
                if answered.is_multiple_of(BULK_CHUNK as u64) {
                    m.chunk_ms.push((now - chunk_start).as_secs_f64() * 1e3);
                    chunk_at.push((chunk_start, now));
                    chunk_start = now;
                }
                m.windows.add((now - start).as_secs_f64());
                pos += 4 + len;
            }
            buf.copy_within(pos..have, 0);
            have -= pos;
            tr.end(v);
        }
    }
    m.span_s = start.elapsed().as_secs_f64();
    speed.sample(1);
    m.chunk_scaled = m
        .chunk_ms
        .iter()
        .zip(&chunk_at)
        .map(|(&ms, &(a, b))| speed.scale(ms, a, b))
        .collect();
    m.slowdown = speed.slowdown();
    Ok(m)
}

/// One reload as the writer saw it.
struct ReloadRec {
    publish: (Instant, Instant),
    reload: (Instant, Instant),
    build_us: u64,
    swap_us: u64,
}

/// The writer: every period, publish the map as a new generation and
/// `Reload` bdrmapd from the store, confirming the served generation.
fn reloader(
    s: &Serving,
    cpu: usize,
    stop: &AtomicBool,
) -> Result<(Vec<ReloadRec>, u64, Vec<String>), String> {
    // Publishing is the writer's own CPU work: keep it off the CPU that
    // bdrmapd and the reader share.
    crate::host::pin_current_thread(cpu);
    let mut c = Client::connect(&s.server.local_addr()).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut recs = Vec::new();
    let mut failed = 0;
    let mut bad = Vec::new();
    let mut k = 0;
    loop {
        // The next tick of the fixed schedule that is still ahead: a
        // reload that overruns its period skips ticks, never bunches.
        k += 1;
        let mut due = start + RELOAD_PERIOD * k;
        while due < Instant::now() {
            k += 1;
            due = start + RELOAD_PERIOD * k;
        }
        loop {
            if stop.load(Ordering::Relaxed) {
                return Ok((recs, failed, bad));
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(Duration::from_millis(5)));
        }
        let p0 = Instant::now();
        let generation = s.store.publish(&s.map).map_err(|e| e.to_string())?;
        let p1 = Instant::now();
        let resp = c.call(&Request::Reload(String::new()));
        let r1 = Instant::now();
        let (build_us, swap_us) = match resp {
            Ok(Response::Reloaded {
                build_us, swap_us, ..
            }) => (build_us, swap_us),
            other => {
                failed += 1;
                bad.push(format!("reload answered {other:?}"));
                continue;
            }
        };
        match c.call(&Request::Health) {
            Ok(Response::Health(h)) if h.generation == generation => {}
            other => bad.push(format!(
                "after reload of generation {generation}, health answered {other:?}"
            )),
        }
        if generation > 2 {
            let _ = std::fs::remove_file(s.store.path_of(generation - 2));
        }
        recs.push(ReloadRec {
            publish: (p0, p1),
            reload: (p1, r1),
            build_us,
            swap_us,
        });
    }
}

struct Swapped {
    rtt_ms: Vec<f64>,
    /// The same at the reference host speed ([`crate::speed`]).
    scaled_ms: Vec<f64>,
    due_s: Vec<f64>,
    late_us: Vec<f64>,
    /// Per request: was it due while a reload was running?
    stalled: Vec<bool>,
    reloads: Vec<ReloadRec>,
    span_s: f64,
    slowdown: f64,
}

/// Open loop: request `i` is due at `i / RATE`; its latency runs from
/// the due time, so a stalled loop charges every request queued behind
/// it.
fn swap(
    s: &Serving,
    seconds: f64,
    cpu: usize,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<Swapped, String> {
    let io = |e: std::io::Error| format!("swap client: {e}");
    let stop = AtomicBool::new(false);
    let origin = Instant::now();
    let (reader, writer) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| reloader(s, cpu, &stop));
        let reader = (|| -> Result<Swapped, String> {
            let mut c = TcpStream::connect(s.server.local_addr()).map_err(io)?;
            c.set_nodelay(true).map_err(io)?;
            let mut m = Swapped {
                rtt_ms: Vec::new(),
                scaled_ms: Vec::new(),
                due_s: Vec::new(),
                late_us: Vec::new(),
                stalled: Vec::new(),
                reloads: Vec::new(),
                span_s: 0.0,
                slowdown: 0.0,
            };
            // bdrmapd's loop shares this CPU: the reader samples its
            // speed while both would otherwise idle.
            let mut speed = Speed::new();
            let mut at = Vec::new();
            let start = Instant::now();
            let mut off = Tracer::new(false, start);
            for i in 0u64.. {
                let due = start + Duration::from_secs_f64(i as f64 / RATE);
                if (due - start).as_secs_f64() >= seconds {
                    break;
                }
                if i.is_multiple_of(SAMPLE_EVERY_READ) && Instant::now() + SAMPLE_SLACK <= due {
                    speed.sample(1);
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let idx = (i % s.frames.len() as u64) as usize;
                let tr = if i.is_multiple_of(TRACE_EVERY_READ) {
                    &mut *tr
                } else {
                    &mut off
                };
                let req = tr.begin("request", i);
                let sent = Instant::now();
                tr.span("client.send", i, || c.write_all(&s.frames[idx]))
                    .map_err(io)?;
                let payload = tr
                    .span("client.wait", i, || read_frame(&mut c, MAX_FRAME))
                    .map_err(io)?
                    .ok_or("bdrmapd closed the swap connection")?;
                let done = Instant::now();
                tr.end(req);
                judge(s, idx, &payload, out);
                out.attempted += 1;
                m.rtt_ms.push((done - due).as_secs_f64() * 1e3);
                at.push((due, done));
                m.due_s.push((due - origin).as_secs_f64());
                m.late_us.push((sent - due).as_secs_f64() * 1e6);
            }
            m.span_s = start.elapsed().as_secs_f64();
            m.scaled_ms = m
                .rtt_ms
                .iter()
                .zip(&at)
                .map(|(&ms, &(a, b))| speed.scale(ms, a, b))
                .collect();
            m.slowdown = speed.slowdown();
            Ok(m)
        })();
        stop.store(true, Ordering::Relaxed);
        (reader, writer.join().expect("reload thread panicked"))
    });
    let mut m = reader?;
    let (reloads, failed, bad) = writer?;
    out.attempted += reloads.len() as u64 + failed;
    out.failed += failed;
    for b in bad {
        out.violations.push(b);
    }
    let windows: Vec<(f64, f64)> = reloads
        .iter()
        .map(|r| {
            let at = |t: Instant| (t - origin).as_secs_f64();
            (at(r.reload.0), at(r.reload.1))
        })
        .collect();
    // A read is stalled when it fell due while a reload ran. The first
    // read due after each reload began always counts, so a reload
    // shorter than the read interval still contributes one sample.
    m.stalled = vec![false; m.due_s.len()];
    for &(a, b) in &windows {
        let first = m.due_s.partition_point(|&d| d < a);
        let end = m.due_s.partition_point(|&d| d < b).max(first + 1);
        for st in m.stalled.iter_mut().take(end).skip(first) {
            *st = true;
        }
    }
    for (k, r) in reloads.iter().enumerate() {
        tr.record("snapstore.publish", k as u64, r.publish.0, r.publish.1);
        tr.record("reload", k as u64, r.reload.0, r.reload.1);
    }
    m.reloads = reloads;
    Ok(m)
}

/// In-process costs of opening the served bytes: integrity check,
/// structural validation, view assembly (median of five, ms).
pub fn flat_layers(bytes: &[u8], out: &mut Outcome) {
    let (mut verify, mut validate, mut view) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Instant::now();
        let Ok(lay) = flat::verify_integrity(bytes) else {
            out.violations.push("served bytes fail integrity".into());
            return;
        };
        verify.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let Ok(ok) = flat::validate_structure(bytes, &lay) else {
            out.violations.push("served bytes fail validation".into());
            return;
        };
        validate.push(t.elapsed().as_secs_f64() * 1e3);
        let data = bytes.to_vec();
        let t = Instant::now();
        let v = flat::V3View::from_validated(data, lay, ok, std::iter::empty());
        view.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(v);
    }
    out.layers
        .insert("snapshot.verify_ms", stats::median(&verify));
    out.layers
        .insert("snapshot.validate_ms", stats::median(&validate));
    out.layers.insert("snapshot.view_ms", stats::median(&view));
}

/// In-process `SnapStore::load_verified` of the newest generation
/// (median of three, ms).
pub fn store_load_layer(store: &SnapStore, out: &mut Outcome) {
    let ms: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let ok = store.load_verified().is_ok();
            if !ok {
                out.violations.push("snapshot store does not load".into());
            }
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.layers.insert("snapstore.load_ms", stats::median(&ms));
}

/// In-process lookup and codec costs over the mix (ns per request).
fn in_process_layers(s: &Serving, out: &mut Outcome) {
    let n = s.requests.len() as f64;
    let rounds = |f: &dyn Fn()| {
        let v: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e9 / n
            })
            .collect();
        stats::median(&v)
    };
    let lookup = rounds(&|| {
        for r in &s.requests {
            std::hint::black_box(answer(&s.view, std::hint::black_box(r)));
        }
    });
    let responses: Vec<Response> = s
        .expected
        .iter()
        .map(|p| Response::decode(p).expect("expected answers decode"))
        .collect();
    let codec = rounds(&|| {
        for (req, resp) in s.requests.iter().zip(&responses) {
            let q = Request::decode(&req.encode()).expect("request round-trips");
            let a = Response::decode(&resp.encode()).expect("response round-trips");
            std::hint::black_box((q, a));
        }
    });
    out.layers.insert("query.lookup_ns", lookup);
    out.layers.insert("proto.codec_ns", codec);
}

fn loop_totals(server: &Server) -> [u64; 4] {
    server.loop_stats().iter().fold([0; 4], |a, l| {
        [
            a[0] + l.reads,
            a[1] + l.frames,
            a[2] + l.writevs,
            a[3] + l.wakeups,
        ]
    })
}

fn loop_layers(before: [u64; 4], after: [u64; 4], out: &mut Outcome) {
    let d: Vec<f64> = (0..4).map(|i| (after[i] - before[i]) as f64).collect();
    let per = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.layers.insert("serve.frames_per_read", per(d[1], d[0]));
    out.layers
        .insert("serve.writevs_per_frame", per(d[2], d[1]));
    out.layers
        .insert("serve.wakeups_per_frame", per(d[3], d[1]));
}

/// Latency p50 and tail (ms) of one phase, for the overhead line.
fn phase(
    ctx: &Ctx,
    s: &Serving,
    mode: Mode,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(f64, f64), String> {
    let before = loop_totals(&s.server);
    let res = match mode {
        Mode::Bulk => {
            let m = bulk(s, ctx.seconds, tr, out)?;
            let chunks = &m.chunk_scaled;
            let q = stats::tail_quantile(chunks.len(), &[BULK_TAIL], 10);
            out.layers
                .insert("wall.latency_p50_ms", stats::median(&m.chunk_ms));
            out.layers.insert("host.slowdown", m.slowdown);
            out.layers
                .insert("query.qps", m.windows.median_rate(m.span_s));
            out.layers
                .insert("query.rtt_p50_us", stats::median(&m.rtt_ms) * 1e3);
            (stats::median(chunks), stats::percentile(chunks, q))
        }
        Mode::Swap => {
            let m = swap(s, ctx.seconds, ctx.threads - 1, tr, out)?;
            let q = stats::tail_quantile(m.rtt_ms.len(), &[SWAP_TAIL], 10);
            let stalled = |v: &[f64]| -> Vec<f64> {
                v.iter()
                    .zip(&m.stalled)
                    .filter(|(_, &st)| st)
                    .map(|(r, _)| *r)
                    .collect()
            };
            let stalled_rtt = stalled(&m.scaled_ms);
            out.layers
                .insert("wall.latency_p50_ms", stats::median(&stalled(&m.rtt_ms)));
            out.layers.insert("host.slowdown", m.slowdown);
            out.layers.insert(
                "serve.stalled_frac",
                stalled_rtt.len() as f64 / m.rtt_ms.len().max(1) as f64,
            );
            out.layers
                .insert("query.rtt_p50_us", stats::median(&m.rtt_ms) * 1e3);
            out.layers
                .insert("gen.late_p50_us", stats::median(&m.late_us));
            out.layers.insert(
                "gen.late_max_ms",
                m.late_us.iter().copied().fold(0.0, f64::max) / 1e3,
            );
            let rs = &m.reloads;
            let med = |f: &dyn Fn(&ReloadRec) -> f64| {
                stats::median(&rs.iter().map(f).collect::<Vec<_>>())
            };
            out.layers.insert(
                "reload.rtt_ms",
                med(&|r| (r.reload.1 - r.reload.0).as_secs_f64() * 1e3),
            );
            out.layers
                .insert("reload.build_us", med(&|r| r.build_us as f64));
            out.layers
                .insert("reload.swap_us", med(&|r| r.swap_us as f64));
            out.layers.insert(
                "snapstore.publish_ms",
                med(&|r| (r.publish.1 - r.publish.0).as_secs_f64() * 1e3),
            );
            (stats::median(&stalled_rtt), stats::percentile(&m.scaled_ms, q))
        }
    };
    loop_layers(before, loop_totals(&s.server), out);
    Ok(res)
}

pub fn run(ctx: &Ctx, mode: Mode) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut n = 0;
    let ((mut guard, digest), setup_s) = repeat_setup(|| {
        n += 1;
        setup(ctx, &n.to_string()).map(|(s, d)| (Guard(Some(s)), d))
    })?;
    let s = guard.0.take().expect("set-up server");
    out.digest = digest;
    out.e2e.insert("setup_s", setup_s);
    out.e2e.insert("snapshot_bytes", s.bytes.len() as f64);
    out.layers.insert("setup.mapgen_ms", s.mapgen_ms);
    out.layers.insert("snapshot.encode_ms", s.encode_ms);
    out.layers.insert("snapstore.publish_ms", s.publish_ms);

    let mut off = Tracer::new(false, Instant::now());
    let result = phase(ctx, &s, mode, &mut off, &mut out).and_then(|(p50, tail)| {
        out.e2e.insert("latency_p50_ms", p50);
        out.e2e.insert("latency_tail_ms", tail);
        flat_layers(&s.bytes, &mut out);
        store_load_layer(&s.store, &mut out);
        in_process_layers(&s, &mut out);
        if ctx.trace {
            let mut tr = Tracer::new(true, Instant::now());
            // Per-layer figures come from the untraced phase; the traced
            // one adds only its operations, failures and checks.
            let mut traced = Outcome::default();
            let (traced_p50, _) = phase(ctx, &s, mode, &mut tr, &mut traced)?;
            out.attempted += traced.attempted;
            out.failed += traced.failed;
            out.violations.extend(traced.violations);
            out.layers.insert("trace.spans", tr.spans().len() as f64);
            out.layers.insert("trace.overhead_ms", traced_p50 - p50);
            let name = if mode == Mode::Bulk {
                "query-bulk"
            } else {
                "query-swap"
            };
            tr.write(&ctx.out.join(format!("spans-{name}-seed{}.jsonl", ctx.seed)))
                .map_err(|e| format!("writing spans: {e}"))?;
        }
        Ok(())
    });
    s.server.shutdown();
    result.map(|()| out)
}

/// Shuts a set-up server down when a repeated set-up replaces it.
struct Guard(Option<Serving>);

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(s) = self.0.take() {
            s.server.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdrmap_core::BdrmapConfig;
    use bdrmap_types::Addr;
    use std::collections::HashSet;

    /// The ratios [`pipeline`] lists, measured on one map.
    fn profile(map: &BorderMap, prefixes: &[(Prefix, Asn)]) -> Vec<(&'static str, f64)> {
        let r = map.routers.len() as f64;
        let l = map.links.len() as f64;
        let addrs: Vec<Addr> = map
            .routers
            .iter()
            .flat_map(|x| x.addrs.iter().chain(&x.other_addrs))
            .copied()
            .collect();
        let distinct = |v: Vec<u64>| v.into_iter().collect::<BTreeSet<_>>().len() as f64;
        let bits = |a: &Addr| u64::from(u32::from(*a));
        let s24 = distinct(addrs.iter().map(|a| bits(a) >> 8).collect());
        let s16 = distinct(addrs.iter().map(|a| bits(a) >> 16).collect());
        let set: HashSet<Prefix> = prefixes.iter().map(|&(p, _)| p).collect();
        let covered = addrs
            .iter()
            .filter(|&&a| (0..=32).any(|len| set.contains(&Prefix::new(a, len))))
            .count();
        vec![
            ("addrs_per_router", addrs.len() as f64 / r),
            ("links_per_router", l / r),
            (
                "links_per_near_router",
                l / distinct(map.links.iter().map(|x| x.near as u64).collect()),
            ),
            (
                "silent_links",
                map.links.iter().filter(|x| x.far.is_none()).count() as f64 / l,
            ),
            (
                "far_as_per_link",
                distinct(map.links.iter().map(|x| u64::from(x.far_as.0)).collect()) / l,
            ),
            (
                "owners_per_router",
                distinct(
                    map.routers
                        .iter()
                        .filter_map(|x| x.owner)
                        .map(|a| u64::from(a.0))
                        .collect(),
                ) / r,
            ),
            ("addrs_per_24", addrs.len() as f64 / s24),
            ("slash24_per_16", s24 / s16),
            ("prefixes_per_router", prefixes.len() as f64 / r),
            ("in_prefix", covered as f64 / addrs.len() as f64),
        ]
    }

    /// The synthetic map keeps the shape of a map the pipeline infers:
    /// every ratio within a third of a scale-0.3 `access` map's (shares
    /// within 0.05).
    #[test]
    fn synthetic_shape_follows_pipeline_maps() {
        let sc = bdrmap_eval::Scenario::build(
            "access",
            &bdrmap_topo::TopoConfig::large_access_scaled(0x9e37_79b9, 0.3),
        );
        let cfg = BdrmapConfig {
            parallelism: 1,
            alias_parallelism: 1,
            ..Default::default()
        };
        let real = sc.run_vp(0, &cfg);
        let overlay: Vec<(Prefix, Asn)> = sc
            .input
            .view
            .prefixes()
            .filter_map(|(p, o)| match o {
                [a] => Some((p, *a)),
                _ => None,
            })
            .collect();
        let (synth, synth_overlay) = mapgen(3, &shape(Size::Tiny));
        let want = profile(&real, &overlay);
        let got = profile(&synth, &synth_overlay);
        for ((name, w), (_, g)) in want.iter().zip(&got) {
            let ok = if ["silent_links", "in_prefix"].contains(name) {
                (g - w).abs() <= 0.05
            } else {
                (g - w).abs() <= w / 3.0
            };
            assert!(
                ok,
                "{name}: synthetic {g:.3}, pipeline {w:.3}\n{want:?}\n{got:?}"
            );
        }
    }
}
