//! One benchmark for both bdrmap loops.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-map|watch-stream|query-bulk|query-swap> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The seed generates every input (topologies, probe plan, synthetic
//! map, query mix, reload schedule). The run measures for `--seconds`,
//! checks every output, and prints one JSON object as its last line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`, which also traces half the operations (interleaved with
//! untraced ones, or as a second phase). See `perfbench/README.md` for
//! what each workload and metric means.

mod coldmap;
mod host;
mod query;
mod spans;
mod speed;
mod stats;
mod watch;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics: every workload reports all of them.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("snapshot_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A layer a workload never calls
/// reports 0 there.
pub const LAYERS: &[(&str, &str)] = &[
    ("setup.scenario_ms", "ms"),
    ("setup.preprobe_ms", "ms"),
    ("setup.mapgen_ms", "ms"),
    ("probe.run_traces_ms", "ms"),
    ("probe.traces", "count"),
    ("probe.packets", "packets"),
    ("probe.distinct_maps", "count"),
    ("ip2as.build_ms", "ms"),
    ("ip2as.cache_hit_rate", "fraction"),
    ("alias.resolve_ms", "ms"),
    ("alias.tests", "count"),
    ("alias.packets", "packets"),
    ("alias.yield", "fraction"),
    ("graph.build_ms", "ms"),
    ("infer.ms", "ms"),
    ("incremental.apply_ms", "ms"),
    ("incremental.dirty", "count"),
    ("incremental.reinferred", "count"),
    ("incremental.reused", "count"),
    ("incremental.alias_hit_rate", "fraction"),
    ("journal.append_ms", "ms"),
    ("journal.checkpoint_ms", "ms"),
    ("journal.bytes", "bytes"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.verify_ms", "ms"),
    ("snapshot.validate_ms", "ms"),
    ("snapshot.view_ms", "ms"),
    ("snapstore.publish_ms", "ms"),
    ("snapstore.load_ms", "ms"),
    ("reload.rtt_ms", "ms"),
    ("reload.build_us", "us"),
    ("reload.swap_us", "us"),
    ("serve.stalled_frac", "fraction"),
    ("query.lookup_ns", "ns"),
    ("query.qps", "1/s"),
    ("query.rtt_p50_us", "us"),
    ("proto.codec_ns", "ns"),
    ("serve.frames_per_read", "ratio"),
    ("serve.writevs_per_frame", "ratio"),
    ("serve.wakeups_per_frame", "ratio"),
    ("eval.link_accuracy", "fraction"),
    ("eval.link_accuracy_min", "fraction"),
    ("eval.owner_accuracy", "fraction"),
    ("gen.late_p50_us", "us"),
    ("gen.late_max_ms", "ms"),
    ("proc.cpu_s", "s"),
    ("host.steal_frac", "fraction"),
    ("host.slowdown", "ratio"),
    ("wall.latency_p50_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.unaccounted_frac", "fraction"),
    ("trace.reconcile_frac", "fraction"),
    ("trace.overhead_ms", "ms"),
];

/// Input sizes: `Full` is what the benchmark measures; `Tiny` keeps the
/// same code paths small enough for the smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// How many times set-up runs; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// What one invocation was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Scratch directory inside the checkout, removed on exit.
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub out: PathBuf,
    /// CPUs available: the probe and alias worker count, and the CPU
    /// the query-swap writer runs on (the last one).
    pub threads: usize,
}

impl Ctx {
    /// A fresh, empty directory under the scratch directory.
    pub fn dir(&self, name: &str) -> Result<PathBuf, String> {
        let d = self.work.join(name);
        if d.exists() {
            std::fs::remove_dir_all(&d).map_err(|e| format!("clearing {}: {e}", d.display()))?;
        }
        std::fs::create_dir_all(&d).map_err(|e| format!("creating {}: {e}", d.display()))?;
        Ok(d)
    }
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end values by name (must cover [`E2E`] except
    /// `peak_rss_mb`, which is read here).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (missing ones report 0).
    pub layers: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub violations: Vec<String>,
    /// Digest of the generated inputs.
    pub digest: u64,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

/// Run `f` [`SETUPS`] times, keeping the last result; returns it with
/// the median set-up time in seconds, at the reference host speed
/// ([`speed`]).
pub fn repeat_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut speed = speed::Speed::new();
    let mut at = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first, so its servers and threads
        // are gone before the next one starts.
        drop(last.take());
        speed.sample(4);
        let t = Instant::now();
        last = Some(f()?);
        at.push((t, Instant::now()));
    }
    speed.sample(4);
    let times: Vec<f64> = at
        .iter()
        .map(|&(a, b)| speed.scale((b - a).as_secs_f64(), a, b))
        .collect();
    Ok((last.expect("SETUPS > 0"), stats::median(&times)))
}

/// One timed op, as the reconciliation sees it; an op's id is its
/// index in the slice handed to [`reconcile`].
pub struct Op {
    /// Ops of one group see the same inputs (a topology, a stream).
    pub group: usize,
    pub traced: bool,
    /// Wall time, and the same at the reference host speed.
    pub ms: f64,
    pub scaled_ms: f64,
}

/// Fill the tracing metrics shared by cold-map and watch-stream: each
/// traced op's root span against its layer spans, and against the
/// untraced ops, at the reference host speed. Both halves are weighed
/// group by group: the 10% gate is on the sum over groups of the mean
/// summed layer self time of a traced op, over the same sum for the
/// time of an untraced op. Medians over all ops of a run would mix
/// groups whose costs differ by up to a third and fall on different
/// groups in the two halves, and single reps vary by about 10%.
pub fn reconcile(out: &mut Outcome, tracer: &spans::Tracer, root: &str, ops: &[Op]) {
    let sp = tracer.spans();
    let roots = spans::root_ms(sp, root);
    let per = spans::self_ms_per_op(sp);
    let root_self = per.get(root).cloned().unwrap_or_default();
    let groups = ops.iter().map(|o| o.group + 1).max().unwrap_or(0);
    let (mut traced, mut layers, mut untraced) =
        (vec![Vec::new(); groups], vec![Vec::new(); groups], vec![Vec::new(); groups]);
    let mut unaccounted = Vec::new();
    for (&(op, d), s) in roots.iter().zip(&root_self) {
        let Some(o) = ops.get(op as usize) else {
            continue;
        };
        let scale = if o.ms > 0.0 { o.scaled_ms / o.ms } else { 1.0 };
        traced[o.group].push(d * scale);
        // Layer self time = root duration - root self time.
        layers[o.group].push((d - s) * scale);
        unaccounted.push(if d > 0.0 { s / d } else { 0.0 });
    }
    for o in ops.iter().filter(|o| !o.traced) {
        untraced[o.group].push(o.scaled_ms);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (mut n, mut lsum, mut tsum, mut usum) = (0, 0.0, 0.0, 0.0);
    for g in 0..groups {
        if traced[g].is_empty() || untraced[g].is_empty() {
            continue;
        }
        n += 1;
        lsum += mean(&layers[g]);
        tsum += mean(&traced[g]);
        usum += mean(&untraced[g]);
    }
    let frac = if usum > 0.0 {
        (lsum / usum - 1.0).abs()
    } else {
        1.0
    };
    out.layers.insert("trace.spans", sp.len() as f64);
    out.layers
        .insert("trace.unaccounted_frac", stats::median(&unaccounted));
    out.layers.insert("trace.reconcile_frac", frac);
    out.layers
        .insert("trace.overhead_ms", (tsum - usum) / f64::from(n.max(1)));
    out.check(frac <= 0.10, || {
        format!(
            "traced layer self times per {root} do not reconcile with the untraced \
             {root}s within 10% (off by {:.1}% over {n} groups)",
            frac * 100.0
        )
    });
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Run one workload to an [`Outcome`], with the host counters filled in.
pub fn run_workload(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let window = host::HostWindow::start();
    let mut out = match workload {
        "cold-map" => coldmap::run(ctx)?,
        "watch-stream" => watch::run(ctx)?,
        "query-bulk" => query::run(ctx, query::Mode::Bulk)?,
        "query-swap" => query::run(ctx, query::Mode::Swap)?,
        other => return Err(format!("unknown workload {other}")),
    };
    let (cpu, steal) = window.finish();
    out.layers.insert("proc.cpu_s", cpu);
    out.layers.insert("host.steal_frac", steal);
    out.e2e.insert("peak_rss_mb", host::peak_rss_mb());
    Ok(out)
}

fn metrics_json(names: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    names
        .iter()
        .map(|(n, u)| {
            let v = values.get(n).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() {
    let args = match parse_args() {
        Ok(a) if !a.workload.is_empty() => a,
        Ok(_) => {
            eprintln!("perfbench: --workload is required");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("current directory");
    let work = root
        .join(".bench_work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    let out_dir = root.join(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&work).and(std::fs::create_dir_all(&out_dir)) {
        eprintln!("perfbench: creating scratch directories: {e}");
        std::process::exit(2);
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        size: Size::Full,
        work: work.clone(),
        out: out_dir,
        threads,
    };
    let result = run_workload(&args.workload, &ctx);
    let _ = std::fs::remove_dir_all(&work);
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    println!(
        "workload {} seed {} inputs digest {:016x} threads {threads}",
        args.workload, args.seed, out.digest
    );
    let detail: Vec<String> = out
        .layers
        .iter()
        .map(|(k, v)| format!("{k}={v:.4}"))
        .collect();
    eprintln!("layers: {}", detail.join(" "));
    for v in &out.violations {
        println!("CHECK FAILED: {v}");
    }
    let correct = out.violations.is_empty();
    let metrics = if args.trace {
        metrics_json(LAYERS, &out.layers)
    } else {
        metrics_json(E2E, &out.e2e)
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    );
    if !correct || out.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics this program prints.
    #[test]
    fn benchmark_json_matches_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let names_after = |key: &str| -> Vec<String> {
            let start = text.find(key).expect("section present");
            let end = text[start..].find(']').map_or(text.len(), |e| start + e);
            text[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s.split('"').next().unwrap().to_string())
                .collect()
        };
        let want = |t: &[(&str, &str)]| t.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names_after("\"end_to_end\""), want(E2E));
        assert_eq!(names_after("\"per_layer\""), want(LAYERS));
        assert_eq!(
            names_after("\"workloads\""),
            vec!["cold-map", "watch-stream", "query-bulk", "query-swap"]
        );
    }

    fn run_tiny(workload: &str, trace: bool, seconds: f64) -> Outcome {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("smoke-{workload}-{trace}-{}", std::process::id()));
        let ctx = Ctx {
            seed: 3,
            seconds,
            trace,
            size: Size::Tiny,
            work: root.join("work"),
            out: root.join("out"),
            threads: 2,
        };
        std::fs::create_dir_all(&ctx.work).unwrap();
        std::fs::create_dir_all(&ctx.out).unwrap();
        let out = run_workload(workload, &ctx).expect("workload runs");
        let _ = std::fs::remove_dir_all(&root);
        out
    }

    /// A tiny run with every check on, then a second run whose inputs
    /// must hash to the same digest.
    fn smoke(workload: &str, trace: bool) {
        // Long enough for a few query-swap reloads (every 500 ms).
        let out = run_tiny(workload, trace, 1.2);
        assert!(
            out.violations.is_empty(),
            "{workload}: {:?}",
            out.violations
        );
        assert!(out.attempted > 0);
        assert_eq!(out.failed, 0);
        for (name, _) in E2E {
            let v = out.e2e.get(name).copied().unwrap_or(0.0);
            assert!(v > 0.0, "{workload}: {name} = {v}");
        }
        if trace {
            assert!(out.layers.get("trace.spans").copied().unwrap_or(0.0) > 0.0);
        }
        let again = run_tiny(workload, false, 0.2);
        assert_eq!(
            out.digest, again.digest,
            "{workload}: inputs differ between runs"
        );
    }

    #[test]
    fn smoke_cold_map() {
        // Untraced: at tiny size a traced run has too few reps for the
        // 10% reconciliation; `coldmap::tests` checks the composition.
        smoke("cold-map", false);
    }

    #[test]
    fn smoke_watch_stream() {
        // Untraced: a tiny pass is 10-25 ms, mostly fsyncs, and the
        // median of a few dozen of them is too noisy for the 10%
        // reconciliation, which full-size runs meet.
        smoke("watch-stream", false);
    }

    #[test]
    fn smoke_query_bulk() {
        smoke("query-bulk", false);
    }

    #[test]
    fn smoke_query_swap() {
        smoke("query-swap", true);
    }
}
