//! `mine-sparse`: offline batch mining of a seeded Quest database.
//!
//! The parent generates the database, writes it as a FIMI file and mines
//! it once with FP-growth for the oracle. A child process that does
//! nothing else runs back-to-back rounds of loading the file (the
//! set-up) and one construct+mine pass with the default miner, so its
//! peak RSS is the workload's alone and its set-ups spread over the
//! whole run like its passes do.

use std::time::{Duration, Instant};

use plt_baselines::FpGrowthMiner;
use plt_core::{CondEngine, Miner, MiningResult};
use plt_data::TransactionDb;
use plt_obs::{MetricsRecorder, Obs};
use plt_serve::json::Json;
use plt_shard::{MineStrategy, MinerBuilder};

use crate::common::{abs_support, digest, run_child, Ctx, Outcome, Params};
use crate::refclock::RefClock;
use crate::stats::{lowest, reportable, Summary};

/// The pass quantile the report states as the tail. A fixed quantile,
/// so the figure does not jump to p90 on runs that manage 100 passes;
/// the workload's `setups` (one per pass) leave ten passes beyond it.
const TAIL_Q: f64 = 0.75;

/// Consecutive set-ups per window of the set-up figure, which is the
/// lowest window median: the run's fastest stretch, like every other
/// time figure.
const SETUP_WINDOW: usize = 9;

/// The miner `plt-mine mine` runs by default.
fn default_miner() -> Box<dyn Miner> {
    MinerBuilder::new()
        .strategy(MineStrategy::Conditional)
        .engine(CondEngine::Arena)
        .build_miner()
}

fn result_digest(r: &MiningResult) -> (usize, u64) {
    digest(r.iter().map(|(s, sup)| (s.items(), sup)))
}

pub fn run(p: &Params, ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let n = ctx.scaled(p.num("transactions"));
    // The transactions are one pinned draw, so every run mines the same
    // itemsets; `--seed` shuffles their order, which changes the tree's
    // construction but not the result.
    let data_seed =
        p.0.get("data_seed")
            .and_then(Json::as_u64)
            .unwrap_or(ctx.seed);
    let db = TransactionDb::new(crate::gen::shuffled(
        crate::gen::quest_sample(n, data_seed),
        ctx.seed,
    ));
    let min_sup = abs_support(p.num("min_support"), n);
    let input = ctx.work.join("mine-sparse.dat");
    plt_data::fimi::write_file(&input, &db).expect("write the FIMI input");

    // Oracle, outside any timed region.
    let oracle = result_digest(&FpGrowthMiner.mine(db.transactions(), min_sup));
    drop(db);

    let rounds = p.num("setups") as usize;
    debug_assert!(reportable(rounds, TAIL_Q));
    let args: Vec<String> = [
        "child-mine".to_string(),
        input.display().to_string(),
        min_sup.to_string(),
        ctx.seconds.to_string(),
        rounds.to_string(),
    ]
    .to_vec();
    let line = match run_child(&args, Duration::from_secs_f64(ctx.seconds + 120.0)) {
        Ok(line) => line,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    let child = Json::parse(&line).expect("child-mine prints JSON");
    let list = |key: &str| -> Vec<f64> {
        child
            .get(key)
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default()
    };
    let setup_list = list("setup_s");
    let setups = Summary::new(setup_list.clone());
    let setup_s = if setup_list.len() >= SETUP_WINDOW {
        lowest(
            setup_list
                .chunks_exact(SETUP_WINDOW)
                .map(|w| Summary::new(w.to_vec()).median()),
        )
    } else {
        setups.median()
    };
    let passes = Summary::new(list("pass_ms"));
    let itemsets = child.get("itemsets").and_then(Json::as_u64).unwrap_or(0);
    let dig = child.get("digest").and_then(Json::as_str).unwrap_or("");
    out.attempted = passes.len() as u64;
    out.check(
        itemsets as usize == oracle.0 && dig == format!("{:016x}", oracle.1),
        || {
            format!(
                "mined {itemsets} itemsets (digest {dig}) but FP-growth finds {} ({:016x})",
                oracle.0, oracle.1
            )
        },
    );
    let rss = child
        .get("peak_rss_mb")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    // The fastest pass at the reference speed: co-tenants of the shared
    // host slow passes by up to 1.9x for stretches of 10-30 s, and its
    // speed drifts by a third over minutes.
    let fastest_ms = passes.quantile(0.0);
    let ns_per_iter = child.get("ref_ns_per_iter").and_then(Json::as_f64);
    let scale = ns_per_iter.map_or(1.0, |ns| crate::refclock::REF_NS_PER_ITER / ns);
    out.metric("setup_s", setup_s * scale, "s");
    out.metric("peak_rss_mb", rss, "MB");
    out.metric(
        "throughput_per_s",
        n as f64 / (fastest_ms * scale / 1e3),
        "1/s",
    );
    out.metric("latency_ms", fastest_ms * scale, "ms");
    out.note("ref_ns_per_iter", ns_per_iter.unwrap_or(0.0));
    out.note("ref_scale", scale);
    out.note("setup_raw_s", setup_s);
    out.note("setup_median_raw_s", setups.median());
    out.note("fastest_pass_raw_ms", fastest_ms);
    out.note(
        &format!("pass_p{}_ms", (TAIL_Q * 100.0).round()),
        passes.quantile(TAIL_Q),
    );
    out.note("mine_s", passes.median() / 1e3);
    out.note("passes_per_s", 1e3 / passes.mean());
    out.note("passes", passes.len() as u64);
    out.note("setups", setups.len() as u64);
    out.note("itemsets", itemsets);
    out.note("min_support", min_sup);
    out.note("transactions", n as u64);
    out.note("fail_ratio", 0.0);

    if ctx.trace {
        trace(ctx, &input, min_sup, passes.median(), &mut out);
    }
    out
}

/// The child: rounds of load (timed) then one construct+mine pass
/// (timed), until time is up and at least `rounds` are done. Prints one
/// JSON line.
pub fn child(args: &[String]) -> Result<(), String> {
    let [input, min_sup, seconds, rounds] = args else {
        return Err("usage: child-mine <input> <min-sup> <seconds> <rounds>".into());
    };
    let min_sup: u64 = min_sup.parse().map_err(|e| format!("min-sup: {e}"))?;
    let seconds: f64 = seconds.parse().map_err(|e| format!("seconds: {e}"))?;
    let rounds: usize = rounds.parse().map_err(|e| format!("rounds: {e}"))?;
    let miner = default_miner();
    let (mut setup_s, mut pass_ms) = (Vec::new(), Vec::new());
    let mut clock = RefClock::default();
    let started = Instant::now();
    let mut last = None;
    while pass_ms.len() < rounds.max(1) || started.elapsed().as_secs_f64() < seconds {
        clock.sample(2);
        let t = Instant::now();
        let db = plt_data::fimi::read_file(input).map_err(|e| format!("read {input}: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let r = miner.mine(db.transactions(), min_sup);
        pass_ms.push(t.elapsed().as_secs_f64() * 1e3);
        last = Some(std::hint::black_box(r));
    }
    let (itemsets, dig) = result_digest(&last.expect("at least one pass"));
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::from(x)).collect());
    let rss = crate::common::peak_rss_mb(std::process::id()).unwrap_or(0.0);
    println!(
        "{}",
        Json::obj(vec![
            ("setup_s", nums(&setup_s)),
            ("pass_ms", nums(&pass_ms)),
            ("itemsets", Json::from(itemsets as u64)),
            ("digest", Json::str(format!("{dig:016x}"))),
            ("peak_rss_mb", Json::from(rss)),
            ("ref_ns_per_iter", Json::from(clock.best_ns_per_iter())),
        ])
    );
    Ok(())
}

/// The traced replay: the same file and threshold through
/// `fimi::read_file`, then construct+mine under a `MetricsRecorder`.
fn trace(ctx: &Ctx, input: &std::path::Path, min_sup: u64, untraced_ms: f64, out: &mut Outcome) {
    let mut reads = Vec::new();
    let mut db = TransactionDb::default();
    for _ in 0..3 {
        let t = Instant::now();
        db = plt_data::fimi::read_file(input).expect("re-read the FIMI input");
        reads.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let miner = default_miner();
    let (mut walls, mut construct, mut mine) = (Vec::new(), Vec::new(), Vec::new());
    let mut rec = MetricsRecorder::new();
    let started = Instant::now();
    while walls.len() < 3 || started.elapsed().as_secs_f64() < ctx.seconds / 2.0 {
        rec = MetricsRecorder::new();
        let t = Instant::now();
        let r = miner.mine_with_obs(db.transactions(), min_sup, &mut Obs::new(&mut rec));
        walls.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(r);
        let ns = |p: &str| rec.span_total_ns(p) as f64 / 1e6;
        construct.push(ns("construct/rank") + ns("construct/encode"));
        mine.push(ns("mine/conditional"));
    }
    let walls = Summary::new(walls);
    let folded = rec.counter_value("arena.vectors_folded");
    let tx = rec.gauge_value("construct.transactions").max(1);
    out.metric("plt-data.read_fimi_ms", Summary::new(reads).median(), "ms");
    out.metric(
        "plt-core.construct_ms",
        Summary::new(construct).median(),
        "ms",
    );
    out.metric("plt-core.mine_ms", Summary::new(mine).median(), "ms");
    out.metric(
        "plt-core.vectors_per_tx",
        rec.gauge_value("construct.vectors") as f64 / tx as f64,
        "ratio",
    );
    out.metric("plt-core.vectors_folded", folded as f64, "count");
    out.metric(
        "plt-core.dedup_hit_ratio",
        rec.counter_value("arena.dedup_hits") as f64 / folded.max(1) as f64,
        "ratio",
    );
    out.metric(
        "plt-core.single_path_shortcuts",
        rec.counter_value("arena.single_path_shortcuts") as f64,
        "count",
    );
    out.metric(
        "plt-core.bytes_peak",
        rec.gauge_value("arena.bytes_peak") as f64,
        "bytes",
    );
    out.metric(
        "plt-simd.simd_calls",
        rec.counter_value("kernel.simd_calls") as f64,
        "count",
    );
    out.metric(
        "plt-simd.scalar_calls",
        rec.counter_value("kernel.scalar_calls") as f64,
        "count",
    );
    out.metric(
        "harness.trace_overhead_ratio",
        walls.median() / untraced_ms - 1.0,
        "ratio",
    );
}
