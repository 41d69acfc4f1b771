//! `serve-read` and `serve-ingest`: the reactor server as deployed
//! (`plt-mine serve`, run as a child process) under mixed reads, and
//! under mixed reads beside paced durable ingest.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Stdio};
use std::time::{Duration, Instant};

use plt_core::Item;
use plt_serve::json::Json;
use plt_serve::Request;

use crate::clock::OpenLoop;
use crate::common::{
    abs_support, peak_rss_mb, pin_with, remove, self_command, unpin, wait_bounded, Ctx, Outcome,
    Params,
};
use crate::gen::{Key, Mix, Op, Rng, Traffic};
use crate::model::WindowModel;
use crate::refclock::RefClock;
use crate::stats::{highest, lowest, windowed, Summary};
use crate::wire::{field_u64, is_ok, parse_flat, Conn};

/// Items in the Quest universe the generators draw from.
const NUM_ITEMS: u32 = 1_000;

/// Seconds per window of a run's end-to-end read figures.
const READ_WINDOW_S: f64 = 1.0;

/// Reference-clock chunks timed at each sampling point.
const REF_CHUNKS: usize = 2;

/// A running `plt-mine serve` child.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Starts the server and waits for its first reply. Returns the
    /// server and the seconds from spawn to that reply.
    pub fn start(args: &[String]) -> Result<(Server, f64), String> {
        let started = Instant::now();
        let mut child = self_command(args)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn the server: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line).unwrap_or(0) == 0 {
                wait_bounded(&mut child, Duration::from_secs(5));
                return Err("server exited before its banner".into());
            }
            if let Some(rest) = line.strip_prefix("serving ") {
                let addr = rest
                    .split(" on ")
                    .nth(1)
                    .and_then(|s| s.split_whitespace().next())
                    .map(str::to_string);
                match addr {
                    Some(a) => break a,
                    None => return Err(format!("unreadable banner {line:?}")),
                }
            }
        };
        let server = Server {
            child,
            _stdout: stdout,
            addr,
        };
        let reply = server
            .connect(1)
            .and_then(|mut c| c.call("{\"op\":\"ping\"}"))
            .map_err(|e| format!("first ping failed: {e}"))?;
        if !is_ok(&reply) {
            server.stop();
            return Err(format!("first ping answered {reply}"));
        }
        Ok((server, started.elapsed().as_secs_f64()))
    }

    pub fn connect(&self, version: u64) -> std::io::Result<Conn> {
        let mut c = Conn::connect(&self.addr)?;
        if version > 1 {
            c.hello(version)?;
        }
        Ok(c)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The `stats` block.
    pub fn stats(&self) -> Option<Json> {
        let raw = self.connect(1).ok()?.call("{\"op\":\"stats\"}").ok()?;
        parse_flat(&raw)
    }

    /// Asks the server to shut down and waits for it to exit.
    pub fn stop(mut self) -> bool {
        let _ = self
            .connect(1)
            .and_then(|mut c| c.call("{\"op\":\"shutdown\"}"));
        wait_bounded(&mut self.child, Duration::from_secs(60))
    }
}

/// Everything generated for one serving run.
pub struct Inputs {
    /// The initial window, and acknowledged batches once the run is over.
    pub model: WindowModel,
    /// Transactions for ingest, in batch order.
    pub stream: Vec<Vec<Item>>,
    pub traffic: Traffic,
    pub server_args: Vec<String>,
    pub window_len: usize,
    pub min_sup: u64,
    pub sketch_eps: f64,
    /// Transactions per ingest batch (0 without ingest).
    pub batch_size: usize,
}

/// Seed of the read stream: the one closed loop of `serve-read` (over
/// both of its connections), the open loop of `serve-ingest`.
pub fn first_reader_seed(seed: u64, ingest: bool) -> u64 {
    if ingest {
        seed ^ 0x2ead
    } else {
        seed ^ (1 << 8)
    }
}

/// What the untraced phase of a run observed, for the traced replay.
pub struct Observed {
    /// Client latency of every read, in µs.
    pub latency_us: Summary,
    /// The server's `stats` block after the run.
    pub stats: Option<Json>,
    /// Freshness of every acknowledged batch, in ms.
    pub freshness_ms: Summary,
    pub acked_batches: usize,
}

fn inputs(p: &Params, ctx: &Ctx, ingest: bool) -> Inputs {
    let window_len = ctx.scaled(p.num("window"));
    let batch_size = if ingest {
        p.num("batch_size") as usize
    } else {
        0
    };
    // Enough batches that the ingest loop never runs dry: one per 100 ms.
    let ingest_txns = batch_size * (ctx.seconds * 10.0).ceil() as usize;
    // A workload pins its transactions and key spaces to one draw, so
    // every run serves the same snapshot, key popularity and batches;
    // `--seed` then varies the order of the read traffic.
    let data_seed =
        p.0.get("data_seed")
            .and_then(Json::as_u64)
            .unwrap_or(ctx.seed);
    let mut all = crate::gen::quest_sample(window_len + ingest_txns, data_seed);
    let stream = all.split_off(window_len);
    let min_sup = abs_support(p.num("min_support"), window_len);
    let input = ctx.work.join("window.dat");
    plt_data::fimi::write_file(&input, &plt_data::TransactionDb::new(all.clone()))
        .expect("write the FIMI window");
    let model = WindowModel::new(all, window_len, min_sup);
    // `MINE COND` names only items with twice the threshold, so no
    // ingest batch can make one infrequent and its queries fail.
    let index = model.index(0);
    let frequent: Vec<Item> = (0..NUM_ITEMS)
        .filter(|&i| index.count(&[i]) >= 2 * min_sup)
        .collect();
    let mix = Mix {
        shares: Op::ALL
            .iter()
            .map(|&op| (op, p.share("op_mix", op.name())))
            .collect(),
        zipf_exponent: p.num("zipf_exponent"),
        infrequent_share: p.num("infrequent_share"),
    };
    let traffic = Traffic::new(model.window(0), &frequent, NUM_ITEMS, &mix, data_seed);
    let server_args = [
        "plt-mine",
        "serve",
        "--input",
        &input.display().to_string(),
        "--min-sup",
        &min_sup.to_string(),
        "--addr",
        "127.0.0.1:0",
        "--window",
        &window_len.to_string(),
        "--server-model",
        "reactor",
        "--sketch-eps",
        &p.num("sketch_eps").to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    Inputs {
        model,
        stream,
        traffic,
        server_args,
        window_len,
        min_sup,
        sketch_eps: p.num("sketch_eps"),
        batch_size,
    }
}

/// Replies kept for the correctness check: the key and the raw reply.
type Sample = (Key, String);

/// What one read connection saw.
#[derive(Default)]
struct ReadLog {
    /// The first reply that was not a success, for the report.
    first_failure: Option<String>,
    /// `(offset of the send, or of the due time, in s; latency in µs)`.
    latency_us: Vec<(f64, f64)>,
    attempted: u64,
    failed: u64,
    samples: Vec<Sample>,
    /// `(receive offset, generation)` of every reply (open loop only).
    generations: Vec<(Duration, u64)>,
    lateness: Option<Summary>,
    /// Timed between windows (closed loop only).
    clock: RefClock,
}

/// Whether a reply must be kept for checking: every `SUPPORT OF …
/// APPROX` reply and every `check_every`-th support reply.
fn keep(key: &Key, i: u64, check_every: u64) -> bool {
    match key.op {
        Op::Query => key.support_items.is_some(),
        Op::Support => i.is_multiple_of(check_every),
        _ => false,
    }
}

/// Closed loop from one thread over one connection per envelope
/// version, taken in turn: send, wait for the reply, repeat. One client
/// thread beside the server's reactor keeps the load within two cores.
fn closed_loop(
    server: &Server,
    versions: &[u64],
    traffic: &Traffic,
    seed: u64,
    t0: Instant,
    seconds: f64,
    check_every: u64,
) -> ReadLog {
    let mut log = ReadLog::default();
    let Ok(mut conns) = versions
        .iter()
        .map(|&v| server.connect(v))
        .collect::<std::io::Result<Vec<Conn>>>()
    else {
        log.attempted = 1;
        log.failed = 1;
        return log;
    };
    let mut rng = Rng::new(seed);
    let mut i = 0u64;
    let mut window = None;
    while t0.elapsed().as_secs_f64() < seconds {
        // The reference clock, once per window, between requests.
        let now = (t0.elapsed().as_secs_f64() / READ_WINDOW_S) as u64;
        if window != Some(now) {
            window = Some(now);
            log.clock.sample(REF_CHUNKS);
        }
        let key = traffic.draw(&mut rng);
        let turn = i as usize % conns.len();
        let conn = &mut conns[turn];
        let t = Instant::now();
        log.attempted += 1;
        match conn.call(&key.payload) {
            Ok(reply) => {
                log.latency_us.push((
                    t.duration_since(t0).as_secs_f64(),
                    t.elapsed().as_secs_f64() * 1e6,
                ));
                if !is_ok(&reply) {
                    log.failed += 1;
                    log.first_failure
                        .get_or_insert(format!("{} -> {reply}", key.payload));
                } else if keep(key, i, check_every) {
                    log.samples.push((key.clone(), reply));
                }
            }
            Err(_) => {
                log.failed += 1;
                break;
            }
        }
        i += 1;
    }
    log
}

/// The generation a v2 reply states, read without a full parse.
fn generation_of(raw: &str) -> Option<u64> {
    let at = raw.find("\"generation\":")? + "\"generation\":".len();
    let digits: String = raw[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Open loop on one v2 connection: request `i` is sent when it falls due
/// and its latency is timed from that due time.
fn open_loop(
    server: &Server,
    traffic: &Traffic,
    seed: u64,
    rate: f64,
    t0: Instant,
    seconds: f64,
    check_every: u64,
) -> ReadLog {
    let mut log = ReadLog::default();
    let Ok(mut conn) = server.connect(2) else {
        log.attempted = 1;
        log.failed = 1;
        return log;
    };
    let mut clock = OpenLoop::new(rate);
    let mut rng = Rng::new(seed);
    let mut pending: std::collections::VecDeque<(u64, &Key)> = Default::default();
    let end = Duration::from_secs_f64(seconds);
    let mut next = 0u64;
    loop {
        let now = t0.elapsed();
        let sending = now < end;
        if sending {
            while clock.due(next) <= now {
                let key = traffic.draw(&mut rng);
                if conn.send(&key.payload).is_err() {
                    log.failed += pending.len() as u64 + 1;
                    log.attempted += 1;
                    return log;
                }
                clock.record_send(next, t0.elapsed());
                log.attempted += 1;
                pending.push_back((next, key));
                next += 1;
            }
        } else if pending.is_empty() {
            break;
        }
        let wait = if sending {
            clock.due(next).saturating_sub(t0.elapsed())
        } else {
            Duration::from_millis(50)
        };
        match conn.recv_timeout(wait) {
            Ok(Some(reply)) => {
                let received = t0.elapsed();
                let Some((i, key)) = pending.pop_front() else {
                    log.failed += 1;
                    continue;
                };
                log.latency_us.push((
                    clock.due(i).as_secs_f64(),
                    clock.latency(i, received).as_secs_f64() * 1e6,
                ));
                if !is_ok(&reply) {
                    log.failed += 1;
                    log.first_failure
                        .get_or_insert(format!("{} -> {reply}", key.payload));
                    continue;
                }
                if let Some(g) = generation_of(&reply) {
                    log.generations.push((received, g));
                }
                if keep(key, i, check_every) {
                    log.samples.push((key.clone(), reply));
                }
            }
            Ok(None) if !sending && t0.elapsed() > end + Duration::from_secs(30) => {
                log.failed += pending.len() as u64;
                break;
            }
            Ok(None) => {}
            Err(_) => {
                log.failed += pending.len() as u64;
                break;
            }
        }
    }
    log.lateness = Some(clock.lateness());
    log
}

/// One acknowledged ingest batch.
struct Ack {
    sent: Duration,
    acked: Duration,
    generation: u64,
    batch: usize,
}

#[derive(Default)]
struct IngestLog {
    acks: Vec<Ack>,
    attempted: u64,
    failed: u64,
    /// Timed after each acknowledgement.
    clock: RefClock,
}

/// Paced ingest: batch `b` falls due at `b * period`, and goes out then
/// or once the previous `wait:true` batch is acknowledged, whichever is
/// later.
fn ingest_loop(
    server: &Server,
    batches: &[Vec<Vec<Item>>],
    period: Duration,
    t0: Instant,
    seconds: f64,
) -> IngestLog {
    let mut log = IngestLog::default();
    let Ok(mut conn) = server.connect(2) else {
        log.attempted = 1;
        log.failed = 1;
        return log;
    };
    for (b, batch) in batches.iter().enumerate() {
        let due = period.mul_f64(b as f64);
        if due.as_secs_f64() >= seconds {
            break;
        }
        std::thread::sleep(due.saturating_sub(t0.elapsed()));
        let payload = Request::Ingest {
            transactions: batch.clone(),
            wait: true,
        }
        .to_json()
        .to_string();
        let sent = t0.elapsed();
        log.attempted += 1;
        match conn.call(&payload) {
            Ok(reply) if is_ok(&reply) => {
                let acked = t0.elapsed();
                match generation_of(&reply) {
                    Some(generation) => log.acks.push(Ack {
                        sent,
                        acked,
                        generation,
                        batch: b,
                    }),
                    None => log.failed += 1,
                }
                log.clock.sample(REF_CHUNKS);
            }
            _ => {
                log.failed += 1;
                break;
            }
        }
    }
    log
}

/// The number of batches the window of `generation` holds, given the
/// generation of the initial snapshot followed by each acknowledged
/// one. A `wait:true` ingest may publish twice (the batch, then the
/// flush it waits on); any generation after ack `k-1` and up to ack `k`
/// holds exactly batches `1..=k`.
pub fn batches_at(acked: &[u64], generation: u64) -> Option<usize> {
    let k = acked.partition_point(|&a| a < generation);
    (k < acked.len()).then_some(k)
}

/// Checks kept replies against the window model at each reply's
/// generation.
fn check_samples(
    samples: &[Sample],
    model: &WindowModel,
    acked: &[u64],
    out: &mut Outcome,
) -> (u64, u64) {
    let mut indexes = HashMap::new();
    let (mut checked, mut approx) = (0u64, 0u64);
    for (key, raw) in samples {
        let Some(items) = &key.support_items else {
            continue;
        };
        let Some(reply) = parse_flat(raw) else {
            out.errors.push(format!("unparseable reply {raw}"));
            continue;
        };
        let Some(generation) = field_u64(&reply, "generation") else {
            out.errors.push(format!("reply without generation: {raw}"));
            continue;
        };
        let Some(batches) = batches_at(acked, generation) else {
            out.errors
                .push(format!("reply at unacknowledged generation {generation}"));
            continue;
        };
        let index = indexes
            .entry(batches)
            .or_insert_with(|| model.index(batches));
        checked += 1;
        match key.op {
            Op::Support => {
                let got = field_u64(&reply, "support");
                let want = index.served_support(items);
                out.check(got == Some(want), || {
                    format!(
                        "support {items:?} at generation {generation}: got {got:?}, recount {want}"
                    )
                });
            }
            _ => {
                let row = reply
                    .get("rows")
                    .and_then(Json::as_arr)
                    .and_then(|r| r.first());
                let got = row.and_then(|r| field_u64(r, "support"));
                let is_approx = reply.get("approx").and_then(Json::as_bool) == Some(true);
                if is_approx {
                    approx += 1;
                    let bound = field_u64(&reply, "error_bound");
                    let truth = index.count(items);
                    out.check(
                        matches!((got, bound), (Some(g), Some(b)) if g.abs_diff(truth) <= b),
                        || {
                            format!(
                                "APPROX {items:?}: {got:?} ± {bound:?} misses the recount {truth}"
                            )
                        },
                    );
                } else {
                    let want = index.served_support(items);
                    out.check(got == Some(want), || {
                        format!("SUPPORT OF {items:?}: got {got:?}, recount {want}")
                    });
                }
            }
        }
    }
    (checked, approx)
}

/// Starts `count` servers one after another, each into an empty data
/// dir when durable, and returns the last one still running with the
/// seconds each took to its first reply. With `keep_last` false every
/// server is stopped. The reference clock is timed before each start.
fn start_setups(
    inputs: &Inputs,
    count: usize,
    data_dir: Option<&Path>,
    keep_last: bool,
    clock: &mut RefClock,
    out: &mut Outcome,
) -> (Option<Server>, Vec<f64>) {
    let mut times = Vec::new();
    for s in 0..count.max(1) {
        clock.sample(REF_CHUNKS);
        let mut args = inputs.server_args.clone();
        if let Some(dir) = data_dir {
            remove(dir);
            args.extend(["--data-dir".to_string(), dir.display().to_string()]);
        }
        match Server::start(&args) {
            Ok((server, secs)) => {
                times.push(secs);
                if keep_last && s + 1 == count.max(1) {
                    return (Some(server), times);
                }
                if !server.stop() {
                    out.errors.push("server did not shut down cleanly".into());
                }
            }
            Err(e) => {
                out.errors.push(e);
                break;
            }
        }
    }
    (None, times)
}

pub fn run(workload: &str, p: &Params, ctx: &Ctx) -> Outcome {
    let ingest = workload == "serve-ingest";
    let mut out = Outcome::default();
    let inputs = inputs(p, ctx, ingest);
    let batch_size = inputs.batch_size;
    let data_dir = ingest.then(|| ctx.work.join("data"));
    // Half the set-ups before the measured phase (the last of them is
    // the server under test) and half after it, so the set-up figure
    // does not rest on one moment of a shared host.
    let setup_count = p.num("setups") as usize;
    let mut clock = RefClock::default();
    let (server, mut setup_s) = start_setups(
        &inputs,
        setup_count.div_ceil(2),
        data_dir.as_deref(),
        true,
        &mut clock,
        &mut out,
    );
    let Some(server) = server else {
        return out;
    };
    let check_every = p.num("check_every") as u64;
    // The closed loop keeps one request in flight, so client and server
    // never run at once: they share one CPU. Ingest runs a builder beside
    // the reactor and keeps both CPUs.
    let pinned = !ingest && pin_with(server.pid(), 0);

    // Warm-up: fill the response and plan caches before timing.
    closed_loop(
        &server,
        &[1],
        &inputs.traffic,
        ctx.seed ^ 0xa11,
        Instant::now(),
        p.num("warmup_s") * ctx.scale.min(1.0),
        u64::MAX,
    );

    let t0 = Instant::now();
    let (reads, ingested): (Vec<ReadLog>, IngestLog) = std::thread::scope(|s| {
        if ingest {
            let batches: Vec<Vec<Vec<Item>>> = inputs
                .stream
                .chunks(batch_size)
                .map(<[Vec<Item>]>::to_vec)
                .collect();
            let reader = s.spawn(|| {
                open_loop(
                    &server,
                    &inputs.traffic,
                    first_reader_seed(ctx.seed, true),
                    p.num("read_rate_per_s"),
                    t0,
                    ctx.seconds,
                    check_every,
                )
            });
            let period = Duration::from_secs_f64(p.num("ingest_period_ms") / 1e3);
            let writes = ingest_loop(&server, &batches, period, t0, ctx.seconds);
            (vec![reader.join().expect("reader thread")], writes)
        } else {
            let log = closed_loop(
                &server,
                &[1, 2],
                &inputs.traffic,
                first_reader_seed(ctx.seed, false),
                t0,
                ctx.seconds,
                check_every,
            );
            (vec![log], IngestLog::default())
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    // Set-ups and the replay that follow run on every CPU.
    unpin();
    let stats = server.stats();
    let rss = peak_rss_mb(server.pid()).unwrap_or(0.0);
    if !server.stop() {
        out.errors.push("server did not shut down cleanly".into());
    }
    let scratch_dir = ingest.then(|| ctx.work.join("setup-data"));
    let (_, trailing) = start_setups(
        &inputs,
        setup_count / 2,
        scratch_dir.as_deref(),
        false,
        &mut clock,
        &mut out,
    );
    setup_s.extend(trailing);
    let setups = Summary::new(setup_s);
    let clock = reads
        .iter()
        .fold(clock.merge(ingested.clock), |c, l| c.merge(l.clock));
    // Time figures at the reference speed (see `refclock`).
    let scale = clock.scale();

    // Acknowledged batches enter the model in order.
    let mut model = inputs.model.clone();
    let mut acked = vec![1u64];
    for ack in &ingested.acks {
        let last = acked[acked.len() - 1];
        out.check(ack.generation > last, || {
            format!("acked generation {} after {last}", ack.generation)
        });
        acked.push(ack.generation);
        let start = ack.batch * batch_size;
        model.push_batch(&inputs.stream[start..start + batch_size]);
    }
    let samples: Vec<Sample> = reads
        .iter()
        .flat_map(|l| l.samples.iter().cloned())
        .collect();
    let (checked, approx_checked) = check_samples(&samples, &model, &acked, &mut out);

    let timed: Vec<(f64, f64)> = reads
        .iter()
        .flat_map(|l| l.latency_us.iter().copied())
        .collect();
    let latency = Summary::new(timed.iter().map(|&(_, us)| us).collect());
    let window_s = READ_WINDOW_S.min(ctx.seconds);
    let windows = windowed(&timed, window_s);
    let read_ops: u64 = reads.iter().map(|l| l.latency_us.len() as u64).sum();
    out.attempted = reads.iter().map(|l| l.attempted).sum::<u64>() + ingested.attempted;
    out.failed = reads.iter().map(|l| l.failed).sum::<u64>() + ingested.failed;
    out.note("ingest_failed", ingested.failed);
    if let Some(f) = reads.iter().find_map(|l| l.first_failure.clone()) {
        out.note("first_failure", Json::str(f));
    }
    let (tail_q, tail_us) = latency.tail();
    out.metric("setup_s", setups.median() * scale, "s");
    out.metric("peak_rss_mb", rss, "MB");
    let (fresh_timed, visible_timed) = if ingest {
        (
            freshness_ms(&ingested.acks, &reads[0].generations),
            visibility_ms(&ingested.acks, &reads[0].generations),
        )
    } else {
        (Vec::new(), Vec::new())
    };
    let freshness = Summary::new(fresh_timed.iter().map(|&(_, ms)| ms).collect());
    // An open loop offers the same count to every window, so its
    // throughput is the whole run's: completions over the wall clock,
    // which falls short of the offered rate when the server lags. It is
    // a rate the generator sets, so it is not scaled.
    let throughput = if ingest {
        read_ops as f64 / wall
    } else {
        highest(windows.iter().map(|w| w.len() as f64 / window_s)) / scale
    };
    out.metric("throughput_per_s", throughput, "1/s");
    let visible = Summary::new(visible_timed.iter().map(|&(_, ms)| ms).collect());
    // A read's latency mixes cache hits with costly misses, so a median
    // jumps between modes from run to run; a mean does not. Ingest is
    // timed by its median visibility, not freshness: whether a batch is published
    // once or, when the flush it waits on arrives late, twice sticks
    // for a whole run and moves freshness by half.
    let central = if ingest {
        visible.median()
    } else {
        lowest(windows.iter().map(Summary::mean)) / 1e3
    };
    out.metric("latency_ms", central * scale, "ms");
    out.note("latency_raw_ms", central);
    out.note("setup_raw_s", setups.median());
    out.note("ref_ns_per_iter", clock.best_ns_per_iter());
    out.note("ref_chunks", clock.chunks());
    out.note("ref_scale", scale);
    out.note("pinned_to_one_cpu", Json::Bool(pinned));
    out.note(
        "read_best_window_tail_us",
        lowest(windows.iter().map(|w| w.tail().1)),
    );
    out.note("read_mean_us", latency.mean());
    if ingest {
        let (vq, vv) = visible.tail();
        out.note("visibility_p50_ms", visible.median());
        out.note("visibility_mean_ms", visible.mean());
        out.note(&format!("visibility_p{}_ms", (vq * 100.0).round()), vv);
        out.note("visibility_samples", visible.len() as u64);
    }

    out.note("read_ops_s", read_ops as f64 / wall);
    out.note("read_p50_us", latency.median());
    out.note(&format!("read_p{}_us", (tail_q * 100.0).round()), tail_us);
    out.note("read_samples", latency.len() as u64);
    out.note("setups", setups.len() as u64);
    out.note("distinct_keys", inputs.traffic.distinct_keys() as u64);
    out.note("min_support", inputs.min_sup);
    out.note("checked_replies", checked);
    out.note("checked_approx_replies", approx_checked);
    out.note(
        "fail_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    if let Some(l) = reads.iter().find_map(|l| l.lateness.as_ref()) {
        out.note("generator_late_p50_us", l.median());
        out.note("generator_late_max_us", l.quantile(1.0));
    }
    if ingest {
        let (fq, fv) = freshness.tail();
        out.note("ingest_batches", ingested.acks.len() as u64);
        out.note("freshness_p50_ms", freshness.median());
        out.note("freshness_mean_ms", freshness.mean());
        out.note(&format!("freshness_p{}_ms", (fq * 100.0).round()), fv);
        let acks = Summary::new(
            ingested
                .acks
                .iter()
                .map(|a| (a.acked - a.sent).as_secs_f64() * 1e3)
                .collect(),
        );
        out.note("ingest_ack_p50_ms", acks.median());
        out.note("freshness_samples", freshness.len() as u64);
        if let Some(dir) = &data_dir {
            restart(&inputs, &model, dir, ctx, &mut out);
        }
    }
    if ctx.trace {
        let observed = Observed {
            latency_us: latency,
            stats,
            freshness_ms: freshness,
            acked_batches: ingested.acks.len(),
        };
        crate::trace::serve(workload, &inputs, &observed, ctx, &mut out);
    }
    out
}

/// Freshness: from each batch's send to the first read reply whose
/// generation is at least the acknowledged one, as `(send offset in s,
/// freshness in ms)`.
fn freshness_ms(acks: &[Ack], generations: &[(Duration, u64)]) -> Vec<(f64, f64)> {
    first_reply_ms(acks, generations, |k| acks[k].generation)
}

/// Visibility: from each batch's send to the first read reply whose
/// generation is past the previous acknowledged one, which already
/// holds the batch (see [`batches_at`]), as `(send offset in s,
/// visibility in ms)`. Unlike freshness it does not wait for the second
/// publish a late flush adds, so it has one mode.
fn visibility_ms(acks: &[Ack], generations: &[(Duration, u64)]) -> Vec<(f64, f64)> {
    first_reply_ms(acks, generations, |k| {
        1 + k.checked_sub(1).map_or(1, |prev| acks[prev].generation)
    })
}

/// From each batch's send to the first read reply whose generation is at
/// least `threshold(k)` for the `k`-th acknowledged batch.
fn first_reply_ms(
    acks: &[Ack],
    generations: &[(Duration, u64)],
    threshold: impl Fn(usize) -> u64,
) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    for (k, ack) in acks.iter().enumerate() {
        let from = generations.partition_point(|(t, _)| *t < ack.sent);
        let min = threshold(k);
        if let Some((t, _)) = generations[from..].iter().find(|(_, g)| *g >= min) {
            out.push((ack.sent.as_secs_f64(), (*t - ack.sent).as_secs_f64() * 1e3));
        }
    }
    out
}

/// Reopens the data dir after the clean shutdown and checks that the
/// recovered supports equal a recount over exactly the acknowledged
/// transactions.
fn restart(inputs: &Inputs, model: &WindowModel, dir: &Path, ctx: &Ctx, out: &mut Outcome) {
    let mut args = inputs.server_args.clone();
    args.extend(["--data-dir".to_string(), dir.display().to_string()]);
    let started = Instant::now();
    let (server, _) = match Server::start(&args) {
        Ok(s) => s,
        Err(e) => {
            out.errors.push(format!("restart failed: {e}"));
            return;
        }
    };
    let index = model.index(model.batches());
    let mut rng = Rng::new(ctx.seed ^ 0x4e57);
    let mut first = None;
    match server.connect(1) {
        Ok(mut conn) => {
            for _ in 0..200 {
                let key = inputs.traffic.draw(&mut rng);
                let Some(items) = key.support_items.as_ref().filter(|_| key.op == Op::Support)
                else {
                    continue;
                };
                let reply = conn.call(&key.payload).ok().and_then(|r| parse_flat(&r));
                first.get_or_insert_with(|| started.elapsed().as_secs_f64());
                let got = reply.as_ref().and_then(|r| field_u64(r, "support"));
                let want = index.served_support(items);
                out.check(got == Some(want), || {
                    format!("after restart, support {items:?} = {got:?}, recount over acked data {want}")
                });
            }
        }
        Err(e) => out
            .errors
            .push(format!("cannot connect after restart: {e}")),
    }
    if !server.stop() {
        out.errors
            .push("restarted server did not shut down cleanly".into());
    }
    out.note("restart_s", first.unwrap_or(f64::NAN));
    out.metric("plt-store.restart_s", first.unwrap_or(0.0), "s");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generations_map_to_the_batches_their_window_holds() {
        // Initial snapshot 1; batch 1 acked at 3 (published at 2, then
        // flushed), batch 2 acked at 4.
        let acked = [1, 3, 4];
        assert_eq!(batches_at(&acked, 1), Some(0));
        assert_eq!(batches_at(&acked, 2), Some(1));
        assert_eq!(batches_at(&acked, 3), Some(1));
        assert_eq!(batches_at(&acked, 4), Some(2));
        assert_eq!(batches_at(&acked, 5), None);
    }

    #[test]
    fn visibility_stops_at_the_first_publish_and_freshness_at_the_ack() {
        let ms = Duration::from_millis;
        let ack = |sent, generation, batch| Ack {
            sent: ms(sent),
            acked: ms(sent + 100),
            generation,
            batch,
        };
        // Batch 0 is published at 2 and acked at 3 (a late flush); batch
        // 1 is published and acked at 4.
        let acks = [ack(0, 3, 0), ack(500, 4, 1)];
        let seen = [
            (ms(50), 1),
            (ms(80), 2),
            (ms(120), 3),
            (ms(550), 3),
            (ms(580), 4),
        ];
        assert_eq!(freshness_ms(&acks, &seen), vec![(0.0, 120.0), (0.5, 80.0)]);
        assert_eq!(visibility_ms(&acks, &seen), vec![(0.0, 80.0), (0.5, 80.0)]);
    }

    #[test]
    fn generation_is_read_from_a_raw_v2_reply() {
        let raw = r#"{"v":2,"status":"ok","stale":false,"approx":false,"error_bound":null,"generation":17,"data":{}}"#;
        assert_eq!(generation_of(raw), Some(17));
        assert_eq!(generation_of(r#"{"ok":true}"#), None);
    }
}
