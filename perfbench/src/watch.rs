//! `watch-stream`: continuous inference, the source of the freshness
//! number. Every pass journals a batch, applies it incrementally,
//! publishes the map and hot-swaps it into an in-process bdrmapd.

use crate::spans::Tracer;
use crate::speed::Speed;
use crate::stats::{self, Digest};
use crate::{repeat_setup, Ctx, Outcome, Size};
use bdrmap_core::{
    run_stages, snapshot, Batch, BdrmapConfig, IncrementalEngine, Journal, JournalCheckpoint,
    SnapStore,
};
use bdrmap_eval::Scenario;
use bdrmap_probe::{run_traces, EngineConfig, ProbeEngine, RunOptions, Trace};
use bdrmap_serve::{Client, Request, Response, ServeConfig, Server};
use bdrmap_topo::TopoConfig;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// A checkpoint (journal compaction) every this many passes, as
/// `bdrmap watch --compact-every` defaults to.
const COMPACT_EVERY: u64 = 4;

struct Plan {
    scale: f64,
    batches: usize,
    /// Independent watch loops (topologies) per run. Pass cost differs
    /// between topologies, so passes cycle through several and the
    /// run's median describes the generator rather than one draw.
    streams: usize,
}

fn plan(size: Size) -> Plan {
    match size {
        Size::Full => Plan {
            scale: 0.2,
            batches: 8,
            streams: 3,
        },
        Size::Tiny => Plan {
            scale: 0.1,
            batches: 3,
            streams: 2,
        },
    }
}

/// A watch loop mid-stream: everything a pass touches.
struct Stream {
    sc: Scenario,
    prober: ProbeEngine,
    cfg: BdrmapConfig,
    engine: IncrementalEngine,
    journal: Journal,
    store: SnapStore,
    server: Server,
    client: Client,
    /// Sweep A then sweep B, each split into batches; passes cycle
    /// through them. Set-up applies sweep A, so every measured batch
    /// replaces traces the engine holds.
    sweeps: Vec<Vec<Vec<Trace>>>,
    next: usize,
    bytes: Vec<u8>,
    generation: u64,
    scenario_ms: f64,
    preprobe_ms: f64,
}

impl Stream {
    fn batch(&self, i: usize) -> &[Trace] {
        let b = self.sweeps[0].len();
        &self.sweeps[(i / b) % 2][i % b]
    }
}

fn setup(ctx: &Ctx, tag: &str) -> Result<(Vec<Stream>, u64), String> {
    let p = plan(ctx.size);
    let mut state = ctx.seed;
    let mut digest = Digest::default();
    let streams = (0..p.streams)
        .map(|k| {
            let sub = stats::splitmix64(&mut state);
            digest.update(&sub.to_le_bytes());
            stream(ctx, &p, sub, &format!("{tag}-{k}"), &mut digest)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((streams, digest.finish()))
}

fn stream(
    ctx: &Ctx,
    p: &Plan,
    seed: u64,
    tag: &str,
    digest: &mut Digest,
) -> Result<Stream, String> {
    let t = Instant::now();
    let sc = Scenario::build("access", &TopoConfig::large_access_scaled(seed, p.scale));
    let scenario_ms = t.elapsed().as_secs_f64() * 1e3;
    // Probe at parallelism 1 from a pristine runtime, so the plan is a
    // pure function of the seed.
    let cfg = BdrmapConfig {
        parallelism: 1,
        alias_parallelism: 1,
        ..Default::default()
    };
    let t = Instant::now();
    let targets = bdrmap_probe::target_blocks(&sc.input.view, &sc.input.vp_asns);
    if targets.is_empty() {
        return Err("no target blocks".into());
    }
    let chunk = targets.len().div_ceil(p.batches);
    let ip2as = sc.input.ip2as_for_probing();
    let pre = sc.engine(0);
    let sweeps: Vec<Vec<Vec<Trace>>> = (0..2)
        .map(|_| {
            targets
                .chunks(chunk)
                .map(|c| {
                    let coll = run_traces(
                        &pre,
                        c,
                        RunOptions {
                            parallelism: 1,
                            addrs_per_block: cfg.addrs_per_block,
                            use_stop_sets: cfg.use_stop_sets,
                            quarantine: None,
                        },
                        |a| ip2as.is_external(a),
                    );
                    for tr in &coll.traces {
                        digest.update(&bdrmap_probe::store::trace_to_vec(tr));
                    }
                    coll.traces
                })
                .collect()
        })
        .collect();
    let preprobe_ms = t.elapsed().as_secs_f64() * 1e3;

    let dir = ctx.dir(&format!("watch-{tag}"))?;
    let (journal, _) = Journal::open(dir.join("journal")).map_err(|e| e.to_string())?;
    let store_dir: PathBuf = dir.join("store");
    let store = SnapStore::open(&store_dir).map_err(|e| e.to_string())?;
    let tick_us = 1_000_000 / u64::from(EngineConfig::default().pps);
    let mut engine = IncrementalEngine::new(cfg, tick_us);
    let prober = sc.engine(0);
    // Warm-up: the first batch, then bdrmapd boots from the store.
    let (map, _) = engine.apply(&prober, &sc.input, Batch::upserts(sweeps[0][0].clone()));
    let generation = store.publish(&map).map_err(|e| e.to_string())?;
    let bytes = snapshot::encode_as(&map, 3).map_err(|e| e.to_string())?;
    // bdrmapd's threads inherit the CPU set of the thread that starts
    // them: the watch loop and its bdrmapd share CPU 0, so a reload
    // round trip is a local context switch.
    crate::host::pin_current_thread(0);
    let server = Server::start_from_store(
        &store_dir,
        ServeConfig {
            workers: 1,
            ..Default::default()
        },
    )
    .map_err(|e| format!("starting bdrmapd: {e}"))?;
    let client = Client::connect(&server.local_addr()).map_err(|e| e.to_string())?;
    let mut s = Stream {
        sc,
        prober,
        cfg,
        engine,
        journal,
        store,
        server,
        client,
        sweeps,
        next: 1,
        bytes,
        generation,
        scenario_ms,
        preprobe_ms,
    };
    // The rest of the first sweep grows the map from nothing; measured
    // passes are the steady state after it, where every batch replaces
    // traces the engine already holds.
    let mut off = Tracer::new(false, Instant::now());
    let mut scratch = Outcome::default();
    while s.next < s.sweeps[0].len() {
        pass(&mut s, seed, 0, &mut off, &mut scratch)?;
    }
    if !scratch.violations.is_empty() {
        return Err(format!("warm-up passes failed: {:?}", scratch.violations));
    }
    Ok(s)
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    traced: bool,
    ms: f64,
    /// `ms` at the reference host speed ([`crate::speed`]).
    scaled_ms: f64,
    journal_bytes: usize,
    reload_ms: f64,
    build_us: u64,
    swap_us: u64,
    dirty: usize,
    reinferred: usize,
    reused: usize,
    alias_hit_rate: f64,
    apply_ms: f64,
}

fn pass(
    s: &mut Stream,
    seed: u64,
    op: u64,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<Pass, String> {
    let traces = s.batch(s.next).to_vec();
    s.next += 1;
    let journal_bytes = traces
        .iter()
        .map(|t| bdrmap_probe::store::trace_to_vec(t).len())
        .sum();
    let batch = Batch::upserts(traces);
    // The batch is in hand: freshness starts now.
    let t = Instant::now();
    let root = tr.begin("pass", op);
    tr.span("journal.append", op, || s.journal.append(seed, &batch))
        .map_err(|e| format!("journal append: {e}"))?;
    let ta = Instant::now();
    let (map, report) = tr.span("incremental.apply", op, || {
        s.engine.apply(&s.prober, &s.sc.input, batch)
    });
    let apply_ms = ta.elapsed().as_secs_f64() * 1e3;
    s.bytes = tr
        .span("snapshot.encode", op, || snapshot::encode_as(&map, 3))
        .map_err(|e| format!("encoding: {e}"))?;
    s.generation = tr
        .span("snapstore.publish", op, || s.store.publish(&map))
        .map_err(|e| format!("publishing: {e}"))?;
    if s.engine.passes().is_multiple_of(COMPACT_EVERY) {
        let ckpt = JournalCheckpoint {
            lsn: s.journal.lsn(),
            generation: s.generation,
            pass: s.engine.passes(),
            entries: s.engine.checkpoint_entries(),
        };
        tr.span("journal.checkpoint", op, || s.journal.checkpoint(&ckpt))
            .map_err(|e| format!("journal checkpoint: {e}"))?;
    }
    let tr0 = Instant::now();
    let resp = tr.span("reload", op, || {
        s.client.call(&Request::Reload(String::new()))
    });
    let reload_ms = tr0.elapsed().as_secs_f64() * 1e3;
    let health = tr.span("confirm", op, || s.client.call(&Request::Health));
    tr.end(root);
    let ms = t.elapsed().as_secs_f64() * 1e3;

    let (build_us, swap_us) = match resp {
        Ok(Response::Reloaded {
            build_us, swap_us, ..
        }) => (build_us, swap_us),
        other => {
            out.failed += 1;
            out.violations
                .push(format!("pass {op}: reload answered {other:?}"));
            (0, 0)
        }
    };
    match health {
        Ok(Response::Health(h)) => out.check(h.generation == s.generation, || {
            format!(
                "pass {op}: bdrmapd serves generation {} after reload, store has {}",
                h.generation, s.generation
            )
        }),
        other => {
            out.failed += 1;
            out.violations
                .push(format!("pass {op}: health answered {other:?}"));
        }
    }
    if s.generation > 2 {
        let _ = std::fs::remove_file(s.store.path_of(s.generation - 2));
    }
    let lookups = report.alias_cache_hits + report.alias_cache_misses;
    Ok(Pass {
        traced: false,
        ms,
        scaled_ms: 0.0,
        journal_bytes,
        reload_ms,
        build_us,
        swap_us,
        dirty: report.dirty,
        reinferred: report.reinferred,
        reused: report.reused,
        alias_hit_rate: if lookups == 0 {
            0.0
        } else {
            report.alias_cache_hits as f64 / lookups as f64
        },
        apply_ms,
    })
}

/// Passes until `seconds` have passed, cycling through the streams.
/// With tracing on, half the passes are traced, interleaved, so traced
/// and untraced passes see the same inputs and the same machine.
fn measure(
    streams: &mut [Stream],
    ctx: &Ctx,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<Vec<Pass>, String> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        crate::host::keep_cpu_awake(scope, 0, &stop);
        let r = passes(streams, ctx, tr, out);
        stop.store(true, Ordering::Relaxed);
        r
    })
}

fn passes(
    streams: &mut [Stream],
    ctx: &Ctx,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<Vec<Pass>, String> {
    let mut off = Tracer::new(false, Instant::now());
    let mut speed = Speed::new();
    let mut at = Vec::new();
    let start = Instant::now();
    let mut passes = Vec::new();
    // A traced run needs at least one traced op next to an untraced one.
    let min_ops = if tr.is_on() { 2 } else { 1 };
    while start.elapsed().as_secs_f64() < ctx.seconds || passes.len() < min_ops {
        let i = passes.len();
        let k = i % streams.len();
        // Every other pass of a stream is traced. The parity flips
        // every `COMPACT_EVERY` passes, so the checkpointing passes
        // alternate between traced and untraced, and again every full
        // A+B cycle, so traced and untraced passes cover every batch.
        let j = i / streams.len();
        let cycle = 2 * streams[k].sweeps[0].len();
        let t = if tr.is_on() && (j + j / COMPACT_EVERY as usize + j / cycle) % 2 == 1 {
            &mut *tr
        } else {
            &mut off
        };
        // About 0.4 ms of the speed kernel before each 20-30 ms pass,
        // on the thread that runs the pass.
        speed.sample(4);
        let a = Instant::now();
        let mut p = pass(&mut streams[k], ctx.seed, i as u64, t, out)?;
        at.push((a, Instant::now()));
        p.traced = t.is_on();
        passes.push(p);
    }
    for (p, &(a, b)) in passes.iter_mut().zip(&at) {
        p.scaled_ms = speed.scale(p.ms, a, b);
    }
    out.layers.insert("host.slowdown", speed.slowdown());
    out.attempted += passes.len() as u64;
    // Each final map must equal a from-scratch rebuild over the same
    // traces.
    for (k, s) in streams.iter().enumerate() {
        let shadow = run_stages(
            &s.sc.engine(0),
            &s.sc.input,
            &s.cfg,
            s.engine.shadow_collection(),
        );
        let shadow_bytes = snapshot::encode_as(&shadow.map, 3).map_err(|e| e.to_string())?;
        out.check(shadow_bytes == s.bytes, || {
            format!(
                "stream {k}: final incremental map ({} bytes) differs from the run_stages \
                 rebuild ({} bytes)",
                s.bytes.len(),
                shadow_bytes.len()
            )
        });
    }
    Ok(passes)
}

fn shutdown(streams: Vec<Stream>) {
    for s in streams {
        drop(s.client);
        s.server.shutdown();
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut n = 0;
    let ((mut guard, digest), setup_s) = repeat_setup(|| {
        n += 1;
        setup(ctx, &n.to_string()).map(|(s, d)| (Guard(s), d))
    })?;
    out.digest = digest;
    out.e2e.insert("setup_s", setup_s);
    let mut streams = std::mem::take(&mut guard.0);
    let n_streams = streams.len();
    let sum = |f: &dyn Fn(&Stream) -> f64| streams.iter().map(f).sum::<f64>();
    out.layers
        .insert("setup.preprobe_ms", sum(&|s| s.preprobe_ms));
    out.layers
        .insert("setup.scenario_ms", sum(&|s| s.scenario_ms));

    let mut tr = Tracer::new(ctx.trace, Instant::now());
    let result = measure(&mut streams, ctx, &mut tr, &mut out);
    let all = match result {
        Ok(p) => p,
        Err(e) => {
            shutdown(streams);
            return Err(e);
        }
    };
    let passes: Vec<&Pass> = all.iter().filter(|p| !p.traced).collect();
    let ms: Vec<f64> = passes.iter().map(|p| p.ms).collect();
    let scaled: Vec<f64> = passes.iter().map(|p| p.scaled_ms).collect();
    let p50 = stats::median(&ms);
    out.layers.insert("wall.latency_p50_ms", p50);
    out.e2e.insert("latency_p50_ms", stats::median(&scaled));
    let q = stats::tail_quantile(ms.len(), &[0.9], 10);
    out.e2e
        .insert("latency_tail_ms", stats::percentile(&scaled, q));
    let sizes: Vec<f64> = streams.iter().map(|s| s.bytes.len() as f64).collect();
    out.e2e.insert("snapshot_bytes", stats::median(&sizes));

    let med = |f: &dyn Fn(&Pass) -> f64| stats::median(&all.iter().map(f).collect::<Vec<_>>());
    out.layers
        .insert("incremental.apply_ms", med(&|p| p.apply_ms));
    out.layers
        .insert("incremental.dirty", med(&|p| p.dirty as f64));
    out.layers
        .insert("incremental.reinferred", med(&|p| p.reinferred as f64));
    out.layers
        .insert("incremental.reused", med(&|p| p.reused as f64));
    out.layers
        .insert("incremental.alias_hit_rate", med(&|p| p.alias_hit_rate));
    out.layers
        .insert("journal.bytes", med(&|p| p.journal_bytes as f64));
    out.layers.insert("reload.rtt_ms", med(&|p| p.reload_ms));
    out.layers
        .insert("reload.build_us", med(&|p| p.build_us as f64));
    out.layers
        .insert("reload.swap_us", med(&|p| p.swap_us as f64));
    let (mut links, mut owners) = (Vec::new(), Vec::new());
    for s in &streams {
        let map = snapshot::decode(&s.bytes).map_err(|e| e.to_string())?;
        let neighbors = s.sc.input.view.neighbors_of(s.sc.net().vp_as);
        let v = bdrmap_eval::validate::validate(s.sc.net(), &neighbors, &map);
        links.push(v.link_accuracy());
        owners.push(v.owner_accuracy());
    }
    out.layers
        .insert("eval.link_accuracy", stats::median(&links));
    out.layers
        .insert("eval.owner_accuracy", stats::median(&owners));
    crate::query::flat_layers(&streams[0].bytes, &mut out);
    crate::query::store_load_layer(&streams[0].store, &mut out);
    shutdown(streams);

    if ctx.trace {
        let per = crate::spans::self_ms_per_op(tr.spans());
        for (span, metric) in [
            ("journal.append", "journal.append_ms"),
            ("journal.checkpoint", "journal.checkpoint_ms"),
            ("snapshot.encode", "snapshot.encode_ms"),
            ("snapstore.publish", "snapstore.publish_ms"),
        ] {
            out.layers
                .insert(metric, per.get(span).map_or(0.0, |v| stats::median(v)));
        }
        let ops: Vec<crate::Op> = all
            .iter()
            .enumerate()
            .map(|(i, p)| crate::Op {
                group: i % n_streams,
                traced: p.traced,
                ms: p.ms,
                scaled_ms: p.scaled_ms,
            })
            .collect();
        crate::reconcile(&mut out, &tr, "pass", &ops);
        tr.write(
            &ctx.out
                .join(format!("spans-watch-stream-seed{}.jsonl", ctx.seed)),
        )
        .map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(out)
}

/// Shuts set-up streams down when a repeated set-up replaces them.
struct Guard(Vec<Stream>);

impl Drop for Guard {
    fn drop(&mut self) {
        shutdown(std::mem::take(&mut self.0));
    }
}
