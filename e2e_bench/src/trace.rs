//! The traced replay of the serving workloads.
//!
//! Spans are taken from outside: the harness times its own calls into
//! each crate's public entry points, in process, on the same seeded
//! inputs the server received, and reads counters the program already
//! exposes (`RebuildReport`, `StoreStats`, the `stats` op). Nothing is
//! instrumented inside a crate.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use plt_approx::{IndicatorSketch, SketchConfig};
use plt_core::{Item, RankPolicy};
use plt_query::PhysOp;
use plt_rules::RuleConfig;
use plt_serve::decode::{encode_frame, FrameDecoder};
use plt_serve::json::Json;
use plt_serve::{BuilderConfig, Engine, Request, Snapshot};
use plt_shard::{Delta, ShardConfig, DEFAULT_SHARD_COUNT};
use plt_store::{DurableOptions, DurablePipeline};

use crate::common::{remove, Ctx, Outcome};
use crate::gen::{Op, Rng};
use crate::serve::{first_reader_seed, Inputs, Observed};
use crate::stats::Summary;

/// Requests replayed through `Engine::handle`.
const REPLAY_REQUESTS: usize = 20_000;
/// Ingest batches replayed through the durable pipeline.
const REPLAY_BATCHES: usize = 30;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The sketch `plt-mine serve --sketch-eps` attaches (its default delta).
fn sketch_config(inputs: &Inputs) -> SketchConfig {
    SketchConfig {
        epsilon: inputs.sketch_eps,
        delta: 0.01,
        capacity: inputs.window_len,
        ..SketchConfig::default()
    }
}

/// The rule threshold `plt-mine serve` uses without `--min-conf`.
const RULE_CONFIG: RuleConfig = RuleConfig {
    min_confidence: 0.5,
};

/// The number at `path` in the server's `stats` block, or 0.
fn stat(stats: Option<&Json>, path: &[&str]) -> f64 {
    let mut v = match stats {
        Some(v) => v,
        None => return 0.0,
    };
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    v.as_f64().unwrap_or(0.0)
}

/// `num / den`, or 0 for an empty base.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of a serving workload: the in-process replay of its
/// inputs plus what the untraced phase `observed`.
pub fn serve(workload: &str, inputs: &Inputs, observed: &Observed, ctx: &Ctx, out: &mut Outcome) {
    let ingest = workload == "serve-ingest";
    let window = inputs.model.window(0);
    let sketch = sketch_config(inputs);
    let config = BuilderConfig {
        window_capacity: inputs.window_len,
        min_support: inputs.min_sup,
        rank_policy: RankPolicy::default(),
        shard_count: DEFAULT_SHARD_COUNT,
        rule_config: RULE_CONFIG,
        sketch: Some(sketch),
        ..BuilderConfig::default()
    };
    let (engine, builder) = plt_serve::bootstrap(window, config).expect("in-process bootstrap");
    builder.stop();

    // The request sequence of the first read connection, regenerated.
    let mut rng = Rng::new(first_reader_seed(ctx.seed, ingest));
    let keys: Vec<_> = (0..REPLAY_REQUESTS)
        .map(|_| inputs.traffic.draw(&mut rng).clone())
        .collect();
    let frames: Vec<Vec<u8>> = keys.iter().map(|k| encode_frame(&k.payload)).collect();
    let decode = |frame: &[u8]| -> Request {
        let mut d = FrameDecoder::with_default_limit();
        d.push(frame);
        let payload = d.next_frame().ok().flatten().expect("one whole frame");
        Request::from_json(&Json::parse(&payload).expect("valid JSON")).expect("valid request")
    };

    // A warm pass fills the plan cache; then the same sequence runs
    // untraced and traced, each from an empty response cache so both
    // see the same hits and misses. The ratio of the two is the tracing
    // overhead.
    for f in &frames {
        std::hint::black_box(engine.handle(&decode(f)));
    }
    engine.clear_cache();
    let t = Instant::now();
    for f in &frames {
        let reply = engine.handle(&decode(f));
        std::hint::black_box(plt_serve::proto::render_payload(&reply, 2));
    }
    let untraced = t.elapsed().as_secs_f64();
    engine.clear_cache();
    let (mut decode_us, mut render_us) = (Vec::new(), Vec::new());
    let mut handle_us: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let t_all = Instant::now();
    for (f, key) in frames.iter().zip(&keys) {
        let t = Instant::now();
        let request = decode(f);
        decode_us.push(us(t));
        let t = Instant::now();
        let reply = engine.handle(&request);
        handle_us.entry(key.op.name()).or_default().push(us(t));
        let t = Instant::now();
        std::hint::black_box(plt_serve::proto::render_payload(&reply, 2));
        render_us.push(us(t));
    }
    let traced = t_all.elapsed().as_secs_f64();
    out.metric(
        "harness.trace_overhead_ratio",
        traced / untraced - 1.0,
        "ratio",
    );

    let all_handles: Vec<f64> = handle_us.values().flatten().copied().collect();
    for op in Op::ALL {
        let s = Summary::new(handle_us.get(op.name()).cloned().unwrap_or_default());
        out.note(&format!("handle_samples.{}", op.name()), s.len() as u64);
        out.metric(
            &format!("plt-serve.handle_us.{}.p50", op.name()),
            s.median(),
            "us",
        );
        out.metric(
            &format!("plt-serve.handle_us.{}.p99", op.name()),
            s.tail().1,
            "us",
        );
    }
    let decode_s = Summary::new(decode_us);
    let render_s = Summary::new(render_us);
    // Connections on the v1 envelope skip the v2 render.
    let v2_share = if ingest { 1.0 } else { 0.5 };
    let accounted = Summary::new(all_handles).mean() + decode_s.mean() + v2_share * render_s.mean();
    let client_mean = observed.latency_us.mean();
    out.metric("plt-serve.decode_us", decode_s.median(), "us");
    out.metric("plt-serve.render_v2_us", render_s.median(), "us");
    out.metric(
        "plt-serve.accounted_share",
        ratio(accounted, client_mean),
        "ratio",
    );
    out.metric("plt-serve.wire_us", client_mean - accounted, "us");

    // Counters the server itself exposes through `stats`.
    let (mut hits, mut lookups) = (0.0, 0.0);
    let stats = observed.stats.as_ref();
    if let Some(endpoints) = stats
        .and_then(|s| s.get("endpoints"))
        .and_then(Json::as_arr)
    {
        for e in endpoints {
            let h = e.get("cache_hits").and_then(Json::as_f64).unwrap_or(0.0);
            hits += h;
            lookups += h + e.get("cache_misses").and_then(Json::as_f64).unwrap_or(0.0);
        }
    }
    out.metric("plt-serve.cache_hit_ratio", ratio(hits, lookups), "ratio");
    out.metric(
        "plt-serve.reactor_poll_p99_us",
        stat(stats, &["reactor", "poll_p99_us"]),
        "us",
    );
    out.metric(
        "plt-serve.shed_connections",
        stat(stats, &["reactor", "shed_connections"]),
        "count",
    );
    let plan_hits = stat(stats, &["query", "plan_cache", "hits"]);
    let plan_misses = stat(stats, &["query", "plan_cache", "misses"]);
    out.metric(
        "plt-query.plan_cache_hit_ratio",
        ratio(plan_hits, plan_hits + plan_misses),
        "ratio",
    );
    out.metric(
        "plt-approx.sketch_answer_ratio",
        ratio(
            stat(stats, &["query", "approx", "sketch_answers"]),
            stat(stats, &["query", "approx", "requests"]),
        ),
        "ratio",
    );

    // Query layer: parse, plan and execute on the engine's snapshot.
    let snap = engine.current();
    let (mut parse_us, mut plan_us, mut probe_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut exec_us: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for key in keys.iter().filter(|k| k.op == Op::Query) {
        let Request::Query { expr } = &key.request else {
            continue;
        };
        let t = Instant::now();
        let q = plt_query::parse(expr)
            .expect("generated queries parse")
            .normalize();
        parse_us.push(us(t));
        let t = Instant::now();
        let plan = plt_query::plan::plan(&q, &*snap, None).expect("plannable");
        plan_us.push(us(t));
        let t = Instant::now();
        let _ = std::hint::black_box(plt_query::exec::execute(plan.op, &q, &*snap));
        exec_us.entry(plan.op.as_str()).or_default().push(us(t));
        if let (Some(items), Some(sk)) = (&key.support_items, snap.sketch()) {
            let t = Instant::now();
            std::hint::black_box(sk.estimate(items));
            probe_us.push(us(t));
        }
    }
    out.metric("plt-query.parse_us", Summary::new(parse_us).median(), "us");
    out.metric("plt-query.plan_us", Summary::new(plan_us).median(), "us");
    for op in [
        PhysOp::IndexPoint,
        PhysOp::ExtTraverse,
        PhysOp::RuleScan,
        PhysOp::CondMine,
        PhysOp::SketchProbe,
    ] {
        let s = Summary::new(exec_us.get(op.as_str()).cloned().unwrap_or_default());
        out.metric(
            &format!("plt-query.exec_us.{}", op.as_str()),
            s.median(),
            "us",
        );
    }
    out.metric("plt-approx.probe_us", Summary::new(probe_us).median(), "us");
    drop(snap);

    // Sketch maintenance cost per arriving transaction.
    let arrivals = if ingest { &inputs.stream[..] } else { window };
    let mut sk = IndicatorSketch::new(sketch);
    let t = Instant::now();
    for tx in arrivals {
        sk.observe(tx);
    }
    out.metric(
        "plt-approx.observe_us_per_tx",
        us(t) / arrivals.len().max(1) as f64,
        "us",
    );

    let freshness = &observed.freshness_ms;
    out.metric("plt-serve.freshness_p50_ms", freshness.median(), "ms");
    out.metric("plt-serve.freshness_tail_ms", freshness.tail().1, "ms");
    if ingest {
        let replayed = observed.acked_batches.min(REPLAY_BATCHES) * inputs.batch_size;
        ingest_replay(ctx, inputs, &inputs.stream[..replayed], &engine, out);
    }
}

/// Replays acknowledged batches through `DurablePipeline::apply`,
/// `Snapshot::build` and `Engine::publish`, then crash-reopens the
/// directory and checkpoints.
fn ingest_replay(
    ctx: &Ctx,
    inputs: &Inputs,
    stream: &[Vec<Item>],
    engine: &Arc<Engine>,
    out: &mut Outcome,
) {
    let window = inputs.model.window(0);
    let dir = ctx.work.join("trace-data");
    remove(&dir);
    let shard_config = ShardConfig {
        shard_count: DEFAULT_SHARD_COUNT,
        min_support: inputs.min_sup,
        rank_policy: RankPolicy::default(),
        capacity: Some(inputs.window_len),
        ..ShardConfig::default()
    };
    let options = DurableOptions {
        materialize_merged: true,
        ..DurableOptions::default()
    };
    let mut pipe = DurablePipeline::open(&dir, shard_config, options).expect("open data dir");
    pipe.apply(Delta::add(window.to_vec()))
        .expect("warm the window");
    let mut sk = IndicatorSketch::new(sketch_config(inputs));
    window.iter().for_each(|t| sk.observe(t));

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let (mut apply, mut wal, mut update, mut remine, mut merge) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut build, mut publish, mut wal_per_tx, mut eff) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut dirty, mut total, mut reranks) = (0usize, 0usize, 0usize);
    let checkpoints_before = pipe.store_stats().checkpoints;
    for (b, batch) in stream.chunks(inputs.batch_size).enumerate() {
        batch.iter().for_each(|t| sk.observe(t));
        let before = pipe.store_stats();
        let t = Instant::now();
        let report = pipe.apply(Delta::add(batch.to_vec())).expect("apply");
        let wall = ms(t);
        let after = pipe.store_stats();
        apply.push(wall);
        wal.push(wall - report.total().as_secs_f64() * 1e3);
        update.push(report.update.as_secs_f64() * 1e3);
        remine.push(report.remine.as_secs_f64() * 1e3);
        merge.push(report.merge.as_secs_f64() * 1e3);
        dirty += report.dirty_shards;
        total += report.total_shards;
        reranks += usize::from(report.reranked);
        let cpu: f64 = report
            .shard_timings
            .iter()
            .map(|(_, d)| d.as_secs_f64())
            .sum();
        if report.remine.as_secs_f64() > 0.0 {
            eff.push(cpu / (report.remine.as_secs_f64() * nproc));
        }
        if after.checkpoints == before.checkpoints && after.wal_bytes > before.wal_bytes {
            wal_per_tx.push((after.wal_bytes - before.wal_bytes) as f64 / batch.len() as f64);
        }
        let t = Instant::now();
        let snap = Snapshot::build(
            b as u64 + 2,
            pipe.pipeline().plt().clone(),
            pipe.result(),
            RULE_CONFIG,
        )
        .with_sketch(Box::new(sk.clone()));
        build.push(ms(t));
        let t = Instant::now();
        engine.publish(Arc::new(snap));
        publish.push(ms(t));
    }
    let applies = apply.len().max(1) as f64;
    let apply = Summary::new(apply);
    out.metric("plt-shard.apply_p50_ms", apply.median(), "ms");
    out.metric("plt-shard.apply_tail_ms", apply.tail().1, "ms");
    out.metric("plt-shard.update_ms", Summary::new(update).median(), "ms");
    out.metric("plt-shard.remine_ms", Summary::new(remine).median(), "ms");
    out.metric("plt-shard.merge_ms", Summary::new(merge).median(), "ms");
    out.metric(
        "plt-shard.dirty_ratio",
        ratio(dirty as f64, total as f64),
        "ratio",
    );
    out.metric("plt-shard.rerank_ratio", reranks as f64 / applies, "ratio");
    out.metric(
        "plt-shard.remine_parallel_eff",
        Summary::new(eff).median(),
        "ratio",
    );
    out.metric("plt-store.wal_ms", Summary::new(wal).median(), "ms");
    out.metric(
        "plt-store.wal_bytes_per_tx",
        Summary::new(wal_per_tx).median(),
        "bytes",
    );
    out.metric(
        "plt-store.checkpoints",
        (pipe.store_stats().checkpoints - checkpoints_before) as f64,
        "count",
    );
    out.metric(
        "plt-serve.snapshot_build_ms",
        Summary::new(build).median(),
        "ms",
    );
    out.metric("plt-serve.publish_ms", Summary::new(publish).median(), "ms");

    // Crash-style reopen: drop without a final checkpoint, so recovery
    // replays the WAL tail written since the last automatic one.
    drop(pipe);
    let mut reopened = DurablePipeline::open(&dir, shard_config, options).expect("reopen data dir");
    let r = *reopened.recovery();
    out.metric("plt-store.recovery_ms", r.recovery_ms as f64, "ms");
    out.metric(
        "plt-store.replayed_records",
        r.replayed_deltas as f64,
        "count",
    );
    let t = Instant::now();
    reopened.checkpoint().expect("checkpoint");
    out.metric("plt-store.checkpoint_ms", ms(t), "ms");
    drop(reopened);
    remove(&dir);
}
