//! End-to-end benchmark of the plt workspace.
//!
//! ```text
//! plt-e2e-bench --workload <mine-sparse|serve-read|serve-ingest>
//!               --seed <n> --seconds <s> --trace <0|1> [--scale <f>]
//! ```
//!
//! Each run generates its inputs from the seed, measures for the given
//! seconds, checks every answer it samples, and prints as its last line
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). The line before it is a report with provenance and
//! every figure the run measured. A wrong answer exits with code 1.
//!
//! Helper modes re-run this executable as a child: `plt-mine <args>` is
//! the repository's CLI verbatim (the server under test), and
//! `child-mine` loads and mines in a process of its own.

mod clock;
mod common;
mod gen;
mod mine;
mod model;
mod refclock;
mod serve;
mod stats;
mod trace;
mod wire;

use plt_serve::json::Json;

use common::{Ctx, Outcome, Params};

pub const WORKLOADS: [&str; 3] = ["mine-sparse", "serve-read", "serve-ingest"];

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload
/// bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("plt-data.read_fimi_ms", "ms"),
    ("plt-core.construct_ms", "ms"),
    ("plt-core.mine_ms", "ms"),
    ("plt-core.vectors_per_tx", "ratio"),
    ("plt-core.vectors_folded", "count"),
    ("plt-core.dedup_hit_ratio", "ratio"),
    ("plt-core.single_path_shortcuts", "count"),
    ("plt-core.bytes_peak", "bytes"),
    ("plt-simd.simd_calls", "count"),
    ("plt-simd.scalar_calls", "count"),
    ("plt-shard.apply_p50_ms", "ms"),
    ("plt-shard.apply_tail_ms", "ms"),
    ("plt-shard.update_ms", "ms"),
    ("plt-shard.remine_ms", "ms"),
    ("plt-shard.merge_ms", "ms"),
    ("plt-shard.dirty_ratio", "ratio"),
    ("plt-shard.rerank_ratio", "ratio"),
    ("plt-shard.remine_parallel_eff", "ratio"),
    ("plt-store.wal_ms", "ms"),
    ("plt-store.checkpoint_ms", "ms"),
    ("plt-store.checkpoints", "count"),
    ("plt-store.wal_bytes_per_tx", "bytes"),
    ("plt-store.recovery_ms", "ms"),
    ("plt-store.replayed_records", "count"),
    ("plt-store.restart_s", "s"),
    ("plt-serve.snapshot_build_ms", "ms"),
    ("plt-serve.publish_ms", "ms"),
    ("plt-serve.freshness_p50_ms", "ms"),
    ("plt-serve.freshness_tail_ms", "ms"),
    ("plt-serve.handle_us.support.p50", "us"),
    ("plt-serve.handle_us.support.p99", "us"),
    ("plt-serve.handle_us.extensions.p50", "us"),
    ("plt-serve.handle_us.extensions.p99", "us"),
    ("plt-serve.handle_us.top_k.p50", "us"),
    ("plt-serve.handle_us.top_k.p99", "us"),
    ("plt-serve.handle_us.recommend.p50", "us"),
    ("plt-serve.handle_us.recommend.p99", "us"),
    ("plt-serve.handle_us.query.p50", "us"),
    ("plt-serve.handle_us.query.p99", "us"),
    ("plt-serve.cache_hit_ratio", "ratio"),
    ("plt-serve.decode_us", "us"),
    ("plt-serve.render_v2_us", "us"),
    ("plt-serve.wire_us", "us"),
    ("plt-serve.accounted_share", "ratio"),
    ("plt-serve.reactor_poll_p99_us", "us"),
    ("plt-serve.shed_connections", "count"),
    ("plt-query.parse_us", "us"),
    ("plt-query.plan_us", "us"),
    ("plt-query.exec_us.index_point", "us"),
    ("plt-query.exec_us.ext_traverse", "us"),
    ("plt-query.exec_us.rule_scan", "us"),
    ("plt-query.exec_us.cond_mine", "us"),
    ("plt-query.exec_us.sketch_probe", "us"),
    ("plt-query.plan_cache_hit_ratio", "ratio"),
    ("plt-approx.probe_us", "us"),
    ("plt-approx.sketch_answer_ratio", "ratio"),
    ("plt-approx.observe_us_per_tx", "us"),
    ("harness.trace_overhead_ratio", "ratio"),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("plt-mine") => {
            let stdout = std::io::stdout();
            match plt_cli::run(&args[1..], &mut stdout.lock()) {
                Ok(()) => 0,
                Err(msg) => {
                    eprintln!("error: {msg}");
                    2
                }
            }
        }
        Some("child-mine") => match mine::child(&args[1..]) {
            Ok(()) => 0,
            Err(msg) => {
                eprintln!("error: {msg}");
                2
            }
        },
        _ => match parse(&args) {
            Ok((workload, ctx)) => bench(&workload, ctx),
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!(
                    "usage: plt-e2e-bench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--scale <f>]",
                    WORKLOADS.join("|")
                );
                2
            }
        },
    };
    std::process::exit(code);
}

fn parse(args: &[String]) -> Result<(String, Ctx), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut scale) = (None, None, false, 1.0);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? == 1,
            "--scale" => scale = value.parse::<f64>().map_err(|e| bad(&e))?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && scale > 0.0) {
        return Err("--seconds and --scale must be positive".into());
    }
    let work =
        std::path::PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    Ok((
        workload,
        Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            scale,
            work,
        },
    ))
}

fn bench(workload: &str, ctx: Ctx) -> i32 {
    let params = Params::of(workload).expect("every workload has parameters");
    common::remove(&ctx.work);
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("error: cannot create {}: {e}", ctx.work.display());
        return 2;
    }
    let started = std::time::Instant::now();
    let outcome = match workload {
        "mine-sparse" => mine::run(&params, &ctx),
        _ => serve::run(workload, &params, &ctx),
    };
    common::remove(&ctx.work);
    let _ = std::fs::remove_dir(".bench_work");
    let (report, result) = render(
        workload,
        &params,
        &ctx,
        &outcome,
        started.elapsed().as_secs_f64(),
    );
    println!("{report}");
    println!("{result}");
    for e in &outcome.errors {
        eprintln!("wrong answer: {e}");
    }
    i32::from(!outcome.errors.is_empty())
}

/// The report line and the result line.
fn render(workload: &str, params: &Params, ctx: &Ctx, o: &Outcome, wall_s: f64) -> (Json, Json) {
    let value = |name: &str| {
        o.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    };
    let wanted: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = wanted
        .iter()
        .map(|&(name, unit)| {
            // Bypassed layers report 0; end-to-end metrics are always set.
            let v = value(name);
            (
                name,
                Json::obj(vec![
                    ("value", Json::from(v.unwrap_or(0.0))),
                    ("unit", Json::str(unit)),
                ]),
            )
        })
        .collect();
    let result = Json::obj(vec![
        ("correct", Json::Bool(o.errors.is_empty())),
        ("attempted", Json::from(o.attempted.max(1))),
        ("failed", Json::from(o.failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    let mut measured: Vec<(&str, Json)> = o
        .metrics
        .iter()
        .map(|(n, v, u)| {
            (
                n.as_str(),
                Json::obj(vec![
                    ("value", Json::from(*v)),
                    ("unit", Json::str(u.clone())),
                ]),
            )
        })
        .collect();
    measured.extend(o.report.iter().map(|(n, v)| (n.as_str(), v.clone())));
    let report = Json::obj(vec![
        ("workload", Json::str(workload)),
        ("seed", Json::from(ctx.seed)),
        ("seconds", Json::from(ctx.seconds)),
        ("trace", Json::Bool(ctx.trace)),
        ("scale", Json::from(ctx.scale)),
        ("wall_s", Json::from(wall_s)),
        ("bench_meta", common::bench_meta()),
        ("params", params.0.clone()),
        ("measured", Json::obj(measured)),
        (
            "errors",
            Json::Arr(
                o.errors
                    .iter()
                    .take(20)
                    .map(|e| Json::str(e.clone()))
                    .collect(),
            ),
        ),
    ]);
    (report, result)
}
