//! `cold-map`: the paper's main mode — a from-scratch border map from
//! one vantage point, probed at the machine's parallelism.

use crate::spans::Tracer;
use crate::speed::Speed;
use crate::stats::{self, Digest};
use crate::{repeat_setup, Ctx, Outcome, Size};
use bdrmap_core::aliases::{self, AliasConfig, AliasData};
use bdrmap_core::graph::ObservedGraph;
use bdrmap_core::{
    heuristics, run_stages, snapshot, BdrmapConfig, BorderMap, CacheStats, Input, Ip2AsCache,
    SnapStore, V3View,
};
use bdrmap_dataplane::RuntimeSnapshot;
use bdrmap_eval::Scenario;
use bdrmap_probe::{run_traces, ProbeEngine, RunOptions, TargetAs, TraceCollection};
use bdrmap_topo::TopoConfig;
use bdrmap_types::Asn;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Lowest acceptable median link accuracy over a run's maps: the lower
/// end of the paper's §5.6 band (96.3–98.9%).
const MIN_LINK_ACCURACY: f64 = 0.963;
/// Lowest acceptable link accuracy of any one map. The worst of 432
/// maps (the 8 topologies of each of seeds 1–54) was 0.9596; this
/// leaves about five links of margin on a 290-link map.
const MIN_MAP_LINK_ACCURACY: f64 = 0.94;

/// One topology, ready to map from VP 0.
struct World {
    sc: Scenario,
    targets: Vec<TargetAs>,
    runtime: RuntimeSnapshot,
    neighbors: Vec<Asn>,
}

fn topo_config(size: Size, seed: u64) -> TopoConfig {
    match size {
        // About 950 routers and 290 links; one map takes about a second
        // on 2 vCPUs.
        Size::Full => TopoConfig::large_access_scaled(seed, 0.3),
        Size::Tiny => TopoConfig::large_access_scaled(seed, 0.1),
    }
}

/// Topologies per run. Map cost differs by up to a third between
/// topologies, so each run cycles through several: its median then
/// describes the generator, not one draw of it. 16 gave no steadier a
/// p50 over ten seeds than 8 (spreads 0.098 and 0.091), at twice the
/// memory.
fn topologies(size: Size) -> usize {
    match size {
        Size::Full => 8,
        Size::Tiny => 2,
    }
}

fn setup(ctx: &Ctx) -> Result<(Vec<World>, u64), String> {
    let mut digest = Digest::default();
    let mut state = ctx.seed;
    let worlds = (0..topologies(ctx.size))
        .map(|_| {
            let sub = stats::splitmix64(&mut state);
            let sc = Scenario::build("access", &topo_config(ctx.size, sub));
            let targets = bdrmap_probe::target_blocks(&sc.input.view, &sc.input.vp_asns);
            digest.update(format!("{sub} {:?}", targets).as_bytes());
            let neighbors = sc.input.view.neighbors_of(sc.net().vp_as);
            World {
                runtime: sc.dp.runtime_snapshot(),
                sc,
                targets,
                neighbors,
            }
        })
        .collect();
    Ok((worlds, digest.finish()))
}

/// One rep's result, with everything the checks and metrics need.
struct Rep {
    world: usize,
    traced: bool,
    ms: f64,
    /// `ms` at the reference host speed ([`crate::speed`]).
    scaled_ms: f64,
    bytes: Vec<u8>,
    generation: u64,
    /// The published file held exactly `bytes`.
    on_disk: bool,
    map: bdrmap_core::BorderMap,
    traces: usize,
    alias_tests: u64,
    alias_packets: u64,
    alias_yield: f64,
    cache_hit_rate: f64,
}

fn bdrmap_config(ctx: &Ctx) -> BdrmapConfig {
    BdrmapConfig {
        parallelism: ctx.threads,
        alias_parallelism: ctx.threads,
        ..Default::default()
    }
}

fn probe(w: &World, cfg: &BdrmapConfig) -> (ProbeEngine, TraceCollection) {
    let eng = w.sc.engine(0);
    let ip2as = w.sc.input.ip2as_for_probing();
    let coll = run_traces(
        &eng,
        &w.targets,
        RunOptions {
            parallelism: cfg.parallelism,
            addrs_per_block: cfg.addrs_per_block,
            use_stop_sets: cfg.use_stop_sets,
            quarantine: None,
        },
        |a| ip2as.is_external(a),
    );
    (eng, coll)
}

/// Map world `wi` once. Untraced, inference is one `run_stages` call;
/// traced, the same stages are composed from their public functions,
/// each under its own span.
fn rep(
    ctx: &Ctx,
    worlds: &[World],
    wi: usize,
    store: &SnapStore,
    tr: &mut Tracer,
    op: u64,
) -> Result<Rep, String> {
    let w = &worlds[wi];
    let cfg = bdrmap_config(ctx);
    // Probing mutates IPID and rate-limit state; every rep starts from
    // the post-setup state so reps do the same work.
    w.sc.dp.restore_runtime(&w.runtime);
    let t = Instant::now();
    let root = tr.begin("rep", op);
    let (eng, coll) = tr.span("probe.run_traces", op, || probe(w, &cfg));
    let traces = coll.traces.len();
    let input = &w.sc.input;
    let (map, alias_tests, alias_packets, alias_yield, cache_hit_rate) = if tr.is_on() {
        let (map, alias, cache) = compose(&eng, input, &cfg, coll, tr, op);
        let s = &alias.stats;
        (
            map,
            s.mercator_tests + s.prefixscan_executed + s.ally_executed,
            s.packets,
            ratio(alias.aliases.len(), alias.pairs_tested),
            cache.hit_rate(),
        )
    } else {
        let run = run_stages(&eng, input, &cfg, coll);
        let s = &run.stages.alias;
        let tests = s.mercator_tests + s.prefixscan_executed + s.ally_executed;
        (run.map, tests, s.packets, 0.0, run.stages.cache.hit_rate())
    };
    let bytes = tr
        .span("snapshot.encode", op, || snapshot::encode_as(&map, 3))
        .map_err(|e| format!("encoding map: {e}"))?;
    let generation = tr
        .span("snapstore.publish", op, || store.publish(&map))
        .map_err(|e| format!("publishing map: {e}"))?;
    tr.end(root);
    Ok(Rep {
        world: wi,
        traced: tr.is_on(),
        ms: t.elapsed().as_secs_f64() * 1e3,
        scaled_ms: 0.0,
        bytes,
        generation,
        on_disk: false,
        map,
        traces,
        alias_tests,
        alias_packets,
        alias_yield,
        cache_hit_rate,
    })
}

fn ratio(a: usize, b: usize) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The inference stages of `run_stages`, composed from their public
/// functions, each under its own span.
fn compose(
    eng: &ProbeEngine,
    input: &Input,
    cfg: &BdrmapConfig,
    mut coll: TraceCollection,
    tr: &mut Tracer,
    op: u64,
) -> (BorderMap, AliasData, CacheStats) {
    let ip2as = tr.span("ip2as.build", op, || {
        input.ip2as_with_estimation(&coll.traces)
    });
    let cache = Ip2AsCache::new(&ip2as);
    let alias = tr.span("alias.resolve", op, || {
        aliases::resolve(
            eng,
            &coll.traces,
            &cache,
            &AliasConfig {
                max_ally_per_set: cfg.max_ally_per_set,
                parallelism: cfg.alias_parallelism,
                staged: true,
            },
        )
    });
    let graph = tr.span("graph.build", op, || {
        ObservedGraph::build(&coll.traces, &alias, &cache)
    });
    // `run_stages` captures the budget, trace and alias packets, here.
    coll.budget = eng.budget();
    let map = tr.span("infer", op, || {
        heuristics::infer(&graph, input, &cache, coll)
    });
    (map, alias, cache.stats())
}

/// The traced composition must produce exactly `run_stages`' map on the
/// same traces, from a prober in the same state.
fn check_composition(ctx: &Ctx, w: &World, out: &mut Outcome) -> Result<(), String> {
    let cfg = bdrmap_config(ctx);
    w.sc.dp.restore_runtime(&w.runtime);
    let (eng, coll) = probe(w, &cfg);
    let (packets, clock) = eng.counters();
    let reference = w.sc.engine(0);
    reference.restore_counters(packets, clock);
    let want = run_stages(&reference, &w.sc.input, &cfg, coll.clone()).map;
    let mut off = Tracer::new(false, Instant::now());
    let (got, _, _) = compose(&eng, &w.sc.input, &cfg, coll, &mut off, 0);
    let enc = |m| snapshot::encode_as(m, 3).map_err(|e| format!("encoding map: {e}"));
    out.check(enc(&got)? == enc(&want)?, || {
        "traced stage composition differs from run_stages on the same traces".into()
    });
    Ok(())
}

/// Reps until `seconds` have passed, cycling through the topologies.
/// With tracing on, reps come in pairs on one topology, one untraced
/// and one traced, so both halves see the same inputs and the same
/// machine. Also returns the host's slowdown over the run.
fn measure(
    ctx: &Ctx,
    worlds: &[World],
    store: &SnapStore,
    tr: &mut Tracer,
) -> Result<(Vec<Rep>, f64), String> {
    let mut off = Tracer::new(false, Instant::now());
    let mut speed = Speed::new();
    let mut at = Vec::new();
    let start = Instant::now();
    let mut reps = Vec::new();
    // A traced run ends on a whole number of double cycles through the
    // topologies, so each has as many traced reps as untraced ones.
    let cycle = worlds.len();
    let traced_run = tr.is_on();
    let whole = |n: usize| !traced_run || (n > 0 && n % (2 * cycle) == 0);
    while start.elapsed().as_secs_f64() < ctx.seconds || reps.is_empty() || !whole(reps.len()) {
        let i = reps.len();
        let (wi, traced) = if traced_run {
            // Every other rep is traced, and the parity flips every
            // cycle. Consecutive reps map different topologies, as in
            // an untraced run: a rep right after one on the same
            // topology runs on warm caches, 5-12% faster.
            (i % cycle, (i + i / cycle) % 2 == 1)
        } else {
            (i % worlds.len(), false)
        };
        let t = if traced { &mut *tr } else { &mut off };
        // About 1 ms of the speed kernel between reps of 0.6-1 s; the
        // samples before and after a rep set the speed it ran at.
        speed.sample(8);
        let a = Instant::now();
        let mut r = rep(ctx, worlds, wi, store, t, i as u64)?;
        at.push((a, Instant::now()));
        // The published file must hold exactly the encoded bytes; check
        // it before the store drops it, outside the timed section.
        r.on_disk = std::fs::read(store.path_of(r.generation)).is_ok_and(|d| d == r.bytes);
        // Keep the store small: drop generations two behind.
        if r.generation > 2 {
            let _ = std::fs::remove_file(store.path_of(r.generation - 2));
        }
        reps.push(r);
    }
    speed.sample(8);
    for (r, &(a, b)) in reps.iter_mut().zip(&at) {
        r.scaled_ms = speed.scale(r.ms, a, b);
    }
    Ok((reps, speed.slowdown()))
}

/// Every published map was the encoded bytes on disk, reopens, and
/// re-encodes to the same bytes.
fn check_reps(reps: &[Rep], out: &mut Outcome) {
    for (i, r) in reps.iter().enumerate() {
        out.check(r.on_disk, || {
            format!(
                "rep {i}: generation {} on disk differs from the encoded map",
                r.generation
            )
        });
        let problem = match V3View::open(r.bytes.clone(), std::iter::empty())
            .map_err(|e| e.to_string())
            .and_then(|v| snapshot::encode_as(&v.to_border_map(), 3).map_err(|e| e.to_string()))
        {
            Ok(again) if again == r.bytes => continue,
            Ok(_) => "re-encoding the reopened map gives other bytes".to_string(),
            Err(e) => e,
        };
        out.violations.push(format!(
            "rep {i}: generation {} is not canonical: {problem}",
            r.generation
        ));
    }
}

/// Ground-truth link and owner accuracy of every rep's map.
fn accuracy(worlds: &[World], reps: &[Rep]) -> (Vec<f64>, Vec<f64>) {
    reps.iter()
        .map(|r| {
            let w = &worlds[r.world];
            let v = bdrmap_eval::validate::validate(w.sc.net(), &w.neighbors, &r.map);
            (v.link_accuracy(), v.owner_accuracy())
        })
        .unzip()
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut scenario_ms = Vec::new();
    let ((worlds, digest), setup_s) = repeat_setup(|| {
        let t = Instant::now();
        let r = setup(ctx);
        scenario_ms.push(t.elapsed().as_secs_f64() * 1e3);
        r
    })?;
    out.digest = digest;
    out.e2e.insert("setup_s", setup_s);
    out.layers
        .insert("setup.scenario_ms", stats::median(&scenario_ms));
    let store = SnapStore::open(ctx.dir("store")?).map_err(|e| e.to_string())?;

    // Warm-up: one discarded rep per topology, so the simulator's
    // per-topology route caches are filled before any timed rep.
    let mut tr = Tracer::new(false, Instant::now());
    for wi in 0..worlds.len() {
        rep(ctx, &worlds, wi, &store, &mut tr, 0)?;
    }
    if ctx.trace {
        check_composition(ctx, &worlds[0], &mut out)?;
        tr = Tracer::new(true, Instant::now());
    }

    let (all, slowdown) = measure(ctx, &worlds, &store, &mut tr)?;
    out.layers.insert("host.slowdown", slowdown);
    out.attempted = all.len() as u64;
    check_reps(&all, &mut out);
    let reps: Vec<&Rep> = all.iter().filter(|r| !r.traced).collect();
    let ms: Vec<f64> = reps.iter().map(|r| r.ms).collect();
    let scaled: Vec<f64> = reps.iter().map(|r| r.scaled_ms).collect();
    let p50 = stats::median(&ms);
    out.layers.insert("wall.latency_p50_ms", p50);
    out.e2e.insert("latency_p50_ms", stats::median(&scaled));
    let q = stats::tail_quantile(ms.len(), &[0.9], 10);
    out.e2e
        .insert("latency_tail_ms", stats::percentile(&scaled, q));
    let sizes: Vec<f64> = reps.iter().map(|r| r.bytes.len() as f64).collect();
    out.e2e.insert("snapshot_bytes", stats::median(&sizes));

    // Parallel probing shares one virtual clock and one data-plane
    // runtime across workers, so identical reps can differ; report how
    // many distinct maps one topology produced (1 = deterministic).
    let mut distinct: BTreeMap<usize, BTreeSet<&[u8]>> = BTreeMap::new();
    for r in &all {
        distinct.entry(r.world).or_default().insert(&r.bytes);
    }
    let most = distinct.values().map(|s| s.len()).max().unwrap_or(0);
    out.layers.insert("probe.distinct_maps", most as f64);
    let med = |f: &dyn Fn(&Rep) -> f64| stats::median(&all.iter().map(f).collect::<Vec<_>>());
    out.layers.insert("probe.traces", med(&|r| r.traces as f64));
    out.layers
        .insert("probe.packets", med(&|r| r.map.packets as f64));
    out.layers
        .insert("alias.tests", med(&|r| r.alias_tests as f64));
    out.layers
        .insert("alias.packets", med(&|r| r.alias_packets as f64));
    out.layers
        .insert("ip2as.cache_hit_rate", med(&|r| r.cache_hit_rate));
    // The paper's band is a per-network figure; the run's network is
    // the set of topologies it maps, so the band's floor applies to the
    // median over its maps. Single topologies can fall below it, so each
    // map has a floor of its own.
    let (links, owners) = accuracy(&worlds, &all);
    let link = stats::median(&links);
    out.check(link >= MIN_LINK_ACCURACY, || {
        format!("median link accuracy {link:.4} below {MIN_LINK_ACCURACY}")
    });
    for (r, &l) in all.iter().zip(&links) {
        out.check(l >= MIN_MAP_LINK_ACCURACY, || {
            format!(
                "topology {} mapped at link accuracy {l:.4}, below {MIN_MAP_LINK_ACCURACY}",
                r.world
            )
        });
    }
    out.layers.insert("eval.link_accuracy", link);
    out.layers.insert(
        "eval.link_accuracy_min",
        links.iter().copied().fold(1.0, f64::min),
    );
    out.layers
        .insert("eval.owner_accuracy", stats::median(&owners));
    crate::query::flat_layers(&all.last().expect("at least one rep").bytes, &mut out);

    if ctx.trace {
        let yields: Vec<f64> = all
            .iter()
            .filter(|r| r.traced)
            .map(|r| r.alias_yield)
            .collect();
        out.layers.insert("alias.yield", stats::median(&yields));
        let per = crate::spans::self_ms_per_op(tr.spans());
        for (span, metric) in [
            ("probe.run_traces", "probe.run_traces_ms"),
            ("ip2as.build", "ip2as.build_ms"),
            ("alias.resolve", "alias.resolve_ms"),
            ("graph.build", "graph.build_ms"),
            ("infer", "infer.ms"),
            ("snapshot.encode", "snapshot.encode_ms"),
            ("snapstore.publish", "snapstore.publish_ms"),
        ] {
            out.layers
                .insert(metric, per.get(span).map_or(0.0, |v| stats::median(v)));
        }
        let ops: Vec<crate::Op> = all
            .iter()
            .map(|r| crate::Op {
                group: r.world,
                traced: r.traced,
                ms: r.ms,
                scaled_ms: r.scaled_ms,
            })
            .collect();
        crate::reconcile(&mut out, &tr, "rep", &ops);
        tr.write(
            &ctx.out
                .join(format!("spans-cold-map-seed{}.jsonl", ctx.seed)),
        )
        .map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_composition_matches_run_stages() {
        let ctx = Ctx {
            seed: 9,
            seconds: 0.0,
            trace: true,
            size: Size::Tiny,
            work: std::path::PathBuf::new(),
            out: std::path::PathBuf::new(),
            threads: 2,
        };
        let (worlds, _) = setup(&ctx).expect("set-up");
        let mut out = Outcome::default();
        for w in &worlds {
            check_composition(&ctx, w, &mut out).expect("composition runs");
        }
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }
}
