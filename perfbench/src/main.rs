//! Query-flock benchmark.
//!
//! ```text
//! qf-perfbench --workload <explore|ingest|scatter|batch> --seed N --seconds S --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload up several times, runs it in a
//! closed loop for `S` seconds, checks every answer against an
//! in-process optimizer evaluation, and prints the end-to-end metrics.
//! With `--trace 1` it runs a few rounds untraced and traced, replays
//! each distinct request through the layers' public functions under
//! spans, and prints the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Diagnostics go to standard error. Scratch files (data
//! directories, spill runs, the span dump) live under `.bench_scratch/`
//! in the working directory.

mod batch;
mod harness;
mod layers;
mod meta;
mod server;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use harness::{peak_rss_mb, Class, Oracle, Recorder, RepeatCheck};
use server::{Ctx, Kind, Op, Plan, ReplyLog};
use stats::median;
use trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Rounds every untraced run completes, however short `--seconds`.
const MIN_ROUNDS: usize = 2;
/// Untraced and then traced rounds of a traced run.
const TRACE_ROUNDS: usize = 2;
/// Passes of each delta batch through the scratch WAL when traced.
const WAL_PASSES: usize = 3;

pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cold_p50_ms", "ms"),
    ("cold_p90_ms", "ms"),
    ("hit_p50_ms", "ms"),
    ("hit_p90_ms", "ms"),
    ("mutate_p50_ms", "ms"),
    ("mutate_p90_ms", "ms"),
    ("fresh_p50_ms", "ms"),
    ("fresh_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("batch_s", "s"),
    ("peak_rss_mb", "MB"),
];

pub const PER_LAYER: &[(&str, &str)] = &[
    ("datalog.parse_us", "us"),
    ("plangen.search_ms", "ms"),
    ("plangen.steps", "count"),
    ("exec.step_ms", "ms"),
    ("exec.answer_tuples", "count"),
    ("exec.elimination", "ratio"),
    ("engine.rows", "count"),
    ("engine.bytes", "bytes"),
    ("engine.workers", "count"),
    ("relation.canon_ms", "ms"),
    ("relation.canon_share", "ratio"),
    ("wal.commit_ms", "ms"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("wal.records", "count"),
    ("wal.compactions", "count"),
    ("spill.bytes", "bytes"),
    ("spill.runs", "count"),
    ("delta.build_ms", "ms"),
    ("delta.apply_ms", "ms"),
    ("delta.build_refused", "count"),
    ("delta.maintained_ratio", "ratio"),
    ("delta.recheck_tuples", "count"),
    ("delta.applied", "count"),
    ("delta.maintained", "count"),
    ("delta.rebuilds", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.plan_hit_ratio", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("wire.overhead_ms", "ms"),
    ("wire.ping_ms", "ms"),
    ("wire.reply_bytes", "bytes"),
    ("pool.queue_depth_max", "count"),
    ("pool.rejected", "count"),
    ("shard.partition_ms", "ms"),
    ("shard.partial_ms", "ms"),
    ("shard.merge_ms", "ms"),
    ("shard.delta_pushes", "count"),
    ("shard.delta_push_ratio", "ratio"),
    ("shard.sharded_ratio", "ratio"),
    ("shard.failovers", "count"),
    ("shard.rescatters", "count"),
    ("client.retries", "count"),
    ("client.reconnects", "count"),
    ("client.failed_frac", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.replay_self_ms", "ms"),
    ("trace.spans", "count"),
    ("repeat.mismatches", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// A run's result line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    fn new(
        rec: &Recorder,
        extra_problems: usize,
        values: &[(&str, f64)],
        spec: &[(&str, &str)],
    ) -> Outcome {
        let metrics = spec
            .iter()
            .map(|&(name, unit)| {
                let v = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                (
                    name.to_string(),
                    if v.is_finite() { v } else { 0.0 },
                    unit.to_string(),
                )
            })
            .collect();
        Outcome {
            correct: rec.failed == 0 && extra_problems == 0,
            attempted: rec.attempted.max(1),
            failed: rec.failed,
            metrics,
        }
    }

    fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn latency_values(rec: &Recorder) -> Vec<(&'static str, f64)> {
    let mut v = Vec::new();
    for (class, p50, p90) in [
        (Class::Cold, "cold_p50_ms", "cold_p90_ms"),
        (Class::Hit, "hit_p50_ms", "hit_p90_ms"),
        (Class::Mutate, "mutate_p50_ms", "mutate_p90_ms"),
        (Class::Fresh, "fresh_p50_ms", "fresh_p90_ms"),
    ] {
        let (a, b) = rec.p50_p90(class);
        v.push((p50, a));
        v.push((p90, b));
    }
    v.push(("ops_per_s", rec.ops_per_s()));
    v.push(("batch_s", rec.median_round_s()));
    v
}

fn report_problems(rec: &Recorder, repeat: &RepeatCheck, oracle: &Oracle) {
    eprintln!(
        "samples: {} (round spread {:.3}) | distinct answers checked: {} | \
         repeat rounds compared: {} digest {}",
        rec.sample_counts(),
        stats::relative_spread(&rec.round_s).unwrap_or(0.0),
        oracle.distinct(),
        repeat.compared,
        repeat.digest()
    );
    eprint!("{}", rec.label_table());
    for f in &rec.failures {
        eprintln!("FAILED: {f}");
    }
    for m in &repeat.mismatches {
        eprintln!("COUNTERS DIFFER: {m}");
    }
}

/// Verify every distinct answer after the clock has stopped.
fn verify_answers(rec: &mut Recorder, oracle: &Oracle) {
    for bad in oracle.verify() {
        rec.fail(bad);
    }
}

fn server_kind(name: &str) -> Option<Kind> {
    match name {
        "explore" => Some(Kind::Explore),
        "ingest" => Some(Kind::Ingest),
        "scatter" => Some(Kind::Scatter),
        _ => None,
    }
}

fn run_server(kind: Kind, args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let plan = Plan::new(kind, args.seed);
    let mut oracle = Oracle::default();
    let mut setup_s = Vec::new();
    let mut fx = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let f = server::setup(&plan, scratch, rep, &mut oracle)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(old) = fx.replace(f) {
            server::Fixture::stop(old);
        }
    }
    let mut fx = fx.expect("at least one set-up");
    let mut rec = Recorder::default();
    let mut log = ReplyLog::default();
    let mut repeat = RepeatCheck::default();
    let mut ctx = Ctx {
        plan: &plan,
        fx: &mut fx,
        rec: &mut rec,
        oracle: &mut oracle,
        log: &mut log,
        tracer: None,
        next_request: 0,
    };
    server::measure(&mut ctx, args.seconds, MIN_ROUNDS, &mut repeat);
    let peak = peak_rss_mb();
    fx.stop();
    let t = Instant::now();
    verify_answers(&mut rec, &oracle);
    eprintln!("answer check took {:.1} s", t.elapsed().as_secs_f64());
    report_problems(&rec, &repeat, &oracle);
    let mut values = latency_values(&rec);
    values.push(("setup_s", med(&setup_s)));
    values.push(("peak_rss_mb", peak));
    Ok(Outcome::new(
        &rec,
        repeat.mismatches.len(),
        &values,
        END_TO_END,
    ))
}

fn trace_server(kind: Kind, args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let plan = Plan::new(kind, args.seed);
    let mut oracle = Oracle::default();
    let mut fx = server::setup(&plan, scratch, 0, &mut oracle)?;
    let stats0 = fx.stats();
    let mut rec = Recorder::default();
    let mut log = ReplyLog::default();
    let mut repeat = RepeatCheck::default();
    let mut tracer = Tracer::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut prev = stats0.clone();
    let mut next_request = 0;
    // Round 1 warms what set-up cannot; then untraced rounds, then the
    // same number traced, for the tracing overhead.
    for r in 1..=1 + 2 * TRACE_ROUNDS {
        let on = r > 1 + TRACE_ROUNDS;
        let mut ctx = Ctx {
            plan: &plan,
            fx: &mut fx,
            rec: &mut rec,
            oracle: &mut oracle,
            log: &mut log,
            tracer: on.then_some(&mut tracer),
            next_request,
        };
        let s = ctx.round(r);
        next_request = ctx.next_request;
        let counters = ctx.round_counters(&mut prev);
        rec.round_s.push(s);
        if r > 1 {
            repeat.round((r % plan.rounds.len()) as u64, counters);
            if on { &mut traced } else { &mut untraced }.push(s * 1e3);
        }
    }
    let stats1 = fx.stats();
    let mut pings = Vec::new();
    for i in 0..20 {
        let t = Instant::now();
        let ok = tracer.span("client.ping", next_request + i, |_| {
            fx.client.ping().is_ok()
        });
        if ok {
            pings.push(harness::ms_since(t));
        }
    }
    let session = fx.client.session_stats();
    fx.stop();

    // Replay each distinct request through the layers.
    let base = server::base_catalog(&plan);
    let mut after = base.clone();
    let first_delta = plan.rounds[0].iter().find_map(|s| match s.op {
        Op::Append(_) | Op::Retract(_) => plan.record(&s.op),
        _ => None,
    });
    if let Some(record) = &first_delta {
        qf_storage::Wal::apply(&mut after, record).map_err(|e| e.to_string())?;
    }
    let mut replayed = layers::Replayed::default();
    let mut req = 1_000_000;
    for prog in &plan.progs {
        for threshold in [prog.own, prog.tight] {
            let item = layers::Item {
                text: &prog.text,
                threshold,
                db: &base,
                delta: first_delta.as_ref().map(|_| ("baskets", &after)),
                direct: false,
                shards: if kind == Kind::Scatter {
                    server::SHARDS
                } else {
                    1
                },
                threads: server::SERVER_THREADS,
            };
            layers::replay(&mut tracer, req, &item, &mut replayed);
            req += 1;
        }
    }
    let mut wal_ratio = 0.0;
    if kind != Kind::Explore {
        let gens: Vec<_> = server::base_gens(&plan)
            .into_iter()
            .map(|(k, seed)| server::gen_record(k, seed))
            .collect();
        let mutations: Vec<_> = plan.rounds[0]
            .iter()
            .filter(|s| matches!(s.op, Op::Append(_) | Op::Retract(_)))
            .filter_map(|s| plan.record(&s.op))
            .collect();
        let dir = scratch.join(format!("trace-wal-{}", std::process::id()));
        wal_ratio = layers::replay_wal(&mut tracer, &dir, &gens, &mutations, WAL_PASSES)?;
    }
    for f in &replayed.failures {
        rec.fail(f.clone());
    }
    verify_answers(&mut rec, &oracle);
    report_problems(&rec, &repeat, &oracle);
    for r in &replayed.refusals {
        eprintln!("delta.build refused: {r}");
    }
    let dump = scratch.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let _ = std::fs::write(&dump, tracer.to_json());
    eprintln!("spans written to {}", dump.display());

    let d = |k: &str| meta::num0(&stats1, k) - meta::num0(&stats0, k);
    let (hits, misses) = (d("cache_hits"), d("cache_misses"));
    let (maintained, rebuilds) = (d("delta_maintained"), d("delta_rebuilds"));
    let (sharded, fallbacks) = (d("sharded_runs"), d("local_fallbacks"));
    let values = vec![
        (
            "datalog.parse_us",
            med(&tracer.durations_ms("datalog.parse")) * 1e3,
        ),
        (
            "plangen.search_ms",
            med(&tracer.durations_ms("plangen.search")),
        ),
        ("plangen.steps", med(&replayed.plan_steps)),
        ("exec.step_ms", med(&replayed.step_ms)),
        ("exec.answer_tuples", med(&replayed.answer_tuples)),
        ("exec.elimination", med(&replayed.elimination)),
        ("engine.rows", med(&log.engine_rows)),
        ("engine.bytes", med(&log.engine_bytes)),
        ("engine.workers", med(&log.engine_workers)),
        ("relation.canon_ms", med(&replayed.canon_ms)),
        ("relation.canon_share", med(&replayed.canon_share)),
        ("wal.commit_ms", med(&tracer.durations_ms("wal.commit"))),
        ("wal.bytes_per_user_byte", wal_ratio),
        ("wal.records", d("wal_records")),
        ("wal.compactions", d("compactions")),
        ("spill.bytes", log.spilled_bytes),
        ("spill.runs", log.spills),
        ("delta.build_ms", med(&tracer.durations_ms("delta.build"))),
        ("delta.apply_ms", med(&tracer.durations_ms("delta.apply"))),
        ("delta.build_refused", replayed.build_refused as f64),
        (
            "delta.maintained_ratio",
            ratio(maintained, maintained + rebuilds),
        ),
        ("delta.recheck_tuples", d("recheck_tuples")),
        ("delta.applied", d("delta_applied")),
        ("delta.maintained", maintained),
        ("delta.rebuilds", rebuilds),
        ("cache.hit_ratio", ratio(hits, hits + misses)),
        (
            "cache.plan_hit_ratio",
            ratio(log.cold_plan_cached as f64, log.cold_replies as f64),
        ),
        ("cache.hits", hits),
        ("cache.misses", misses),
        ("wire.overhead_ms", med(&log.wire_overhead_ms)),
        ("wire.ping_ms", med(&pings)),
        ("wire.reply_bytes", med(&log.reply_bytes)),
        (
            "pool.queue_depth_max",
            meta::num0(&stats1, "queue_depth_max"),
        ),
        ("pool.rejected", meta::num0(&stats1, "rejected")),
        (
            "shard.partition_ms",
            med(&tracer.durations_ms("shard.partition")),
        ),
        (
            "shard.partial_ms",
            med(&tracer.durations_ms("shard.partial")),
        ),
        ("shard.merge_ms", med(&tracer.durations_ms("shard.merge"))),
        ("shard.delta_pushes", d("delta_pushes")),
        (
            "shard.delta_push_ratio",
            ratio(d("delta_pushes"), log.deltas_sent as f64),
        ),
        ("shard.sharded_ratio", ratio(sharded, sharded + fallbacks)),
        ("shard.failovers", d("failovers")),
        ("shard.rescatters", d("rescatters")),
        ("client.retries", session.retries as f64),
        ("client.reconnects", session.reconnects as f64),
        (
            "client.failed_frac",
            ratio(rec.failed as f64, rec.attempted as f64),
        ),
        ("trace.overhead_ms", med(&traced) - med(&untraced)),
        ("trace.replay_self_ms", med(&tracer.self_times_ms("replay"))),
        ("trace.spans", tracer.spans().len() as f64),
        ("repeat.mismatches", repeat.mismatches.len() as f64),
    ];
    Ok(Outcome::new(
        &rec,
        repeat.mismatches.len(),
        &values,
        PER_LAYER,
    ))
}

fn run_batch(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let i = batch::Inputs::setup(args.seed, scratch)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(old) = inputs.replace(i) {
            batch::Inputs::remove_scratch(&old);
        }
    }
    let mut inputs = inputs.expect("at least one set-up");
    let mut rec = Recorder::default();
    let mut oracle = Oracle::default();
    let mut log = batch::PassLog::default();
    let mut repeat = RepeatCheck::default();
    let start = Instant::now();
    let mut passes = 0;
    // Pass 0 warms the allocator and the spill directory: checked and
    // counted, not sampled.
    while passes <= MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        rec.sampling = passes > 0;
        let mut pass = batch::Pass {
            inputs: &mut inputs,
            rec: &mut rec,
            oracle: &mut oracle,
            log: &mut log,
            tracer: None,
            request: 0,
        };
        let s = pass.run();
        let counts = std::mem::take(&mut log.counts);
        if passes > 0 {
            rec.round_s.push(s);
            repeat.round(0, counts);
        }
        passes += 1;
    }
    let peak = peak_rss_mb();
    inputs.remove_scratch();
    let t = Instant::now();
    verify_answers(&mut rec, &oracle);
    eprintln!("answer check took {:.1} s", t.elapsed().as_secs_f64());
    report_problems(&rec, &repeat, &oracle);
    let mut values = latency_values(&rec);
    values.push(("setup_s", med(&setup_s)));
    values.push(("peak_rss_mb", peak));
    Ok(Outcome::new(
        &rec,
        repeat.mismatches.len(),
        &values,
        END_TO_END,
    ))
}

fn trace_batch(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let mut inputs = batch::Inputs::setup(args.seed, scratch)?;
    let mut rec = Recorder::default();
    let mut oracle = Oracle::default();
    let mut log = batch::PassLog::default();
    let mut repeat = RepeatCheck::default();
    let mut tracer = Tracer::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for p in 0..=2 * TRACE_ROUNDS {
        let on = p > TRACE_ROUNDS;
        let mut pass = batch::Pass {
            inputs: &mut inputs,
            rec: &mut rec,
            oracle: &mut oracle,
            log: &mut log,
            tracer: on.then_some(&mut tracer),
            request: (p * 100) as u64,
        };
        let s = pass.run();
        rec.round_s.push(s);
        repeat.round(0, std::mem::take(&mut log.counts));
        if p > 0 {
            if on { &mut traced } else { &mut untraced }.push(s * 1e3);
        }
    }
    // E1 is replayed with its direct plan (the canonicalization-heavy
    // request); the Fig. 5 flock with the searched multi-step plan.
    let (mut e1, mut fig5) = (layers::Replayed::default(), layers::Replayed::default());
    for (i, (text, threshold, db, direct, out)) in [
        (batch::E1_TEXT, batch::E1_OWN, &inputs.words, true, &mut e1),
        (
            server::MEDICAL,
            batch::MED_OWN,
            &inputs.medical,
            false,
            &mut fig5,
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let item = layers::Item {
            text,
            threshold,
            db,
            delta: None,
            direct,
            shards: 1,
            threads: batch::THREADS,
        };
        layers::replay(&mut tracer, 1_000_000 + i as u64, &item, out);
    }
    inputs.remove_scratch();
    for f in e1.failures.iter().chain(&fig5.failures) {
        rec.fail(f.clone());
    }
    verify_answers(&mut rec, &oracle);
    report_problems(&rec, &repeat, &oracle);
    for r in &e1.refusals {
        eprintln!("delta.build refused: {r}");
    }
    let dump = scratch.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let _ = std::fs::write(&dump, tracer.to_json());
    eprintln!("spans written to {}", dump.display());
    let exec = log.exec.last().cloned().unwrap_or_default();
    let spill = log.spill.last().cloned().unwrap_or_default();
    let values = vec![
        (
            "datalog.parse_us",
            med(&tracer.durations_ms("datalog.parse")) * 1e3,
        ),
        (
            "plangen.search_ms",
            tracer
                .durations_ms("plangen.search")
                .last()
                .copied()
                .unwrap_or(0.0),
        ),
        ("plangen.steps", med(&fig5.plan_steps)),
        ("exec.step_ms", med(&e1.step_ms)),
        ("exec.answer_tuples", med(&e1.answer_tuples)),
        ("exec.elimination", med(&e1.elimination)),
        ("engine.rows", exec.rows as f64),
        ("engine.bytes", exec.bytes as f64),
        ("engine.workers", exec.workers as f64),
        ("relation.canon_ms", med(&e1.canon_ms)),
        ("relation.canon_share", med(&e1.canon_share)),
        ("spill.bytes", spill.spilled_bytes as f64),
        ("spill.runs", spill.spills as f64),
        ("delta.build_ms", med(&tracer.durations_ms("delta.build"))),
        ("delta.apply_ms", med(&tracer.durations_ms("delta.apply"))),
        ("delta.build_refused", e1.build_refused as f64),
        (
            "client.failed_frac",
            ratio(rec.failed as f64, rec.attempted as f64),
        ),
        ("trace.overhead_ms", med(&traced) - med(&untraced)),
        ("trace.replay_self_ms", med(&tracer.self_times_ms("replay"))),
        ("trace.spans", tracer.spans().len() as f64),
        ("repeat.mismatches", repeat.mismatches.len() as f64),
    ];
    Ok(Outcome::new(
        &rec,
        repeat.mismatches.len(),
        &values,
        PER_LAYER,
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qf-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let scratch = PathBuf::from(".bench_scratch");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("qf-perfbench: cannot create {}: {e}", scratch.display());
        std::process::exit(1);
    }
    let result = match (
        server_kind(&args.workload),
        args.workload.as_str(),
        args.trace,
    ) {
        (Some(kind), _, false) => run_server(kind, &args, &scratch),
        (Some(kind), _, true) => trace_server(kind, &args, &scratch),
        (None, "batch", false) => run_batch(&args, &scratch),
        (None, "batch", true) => trace_batch(&args, &scratch),
        _ => Err(format!(
            "unknown workload `{}` (explore|ingest|scatter|batch)",
            args.workload
        )),
    };
    match result {
        Ok(outcome) => println!("{}", outcome.json()),
        Err(e) => {
            eprintln!("qf-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
