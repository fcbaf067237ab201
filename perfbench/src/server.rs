//! The three server workloads — `explore`, `ingest` and `scatter` — as
//! scripts of client operations over QFN2, run in a closed loop by one
//! client against servers started inside this process.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qf_server::service::render_tsv;
use qf_server::{
    Client, ClientConfig, Coordinator, FlockService, LocalHandler, RequestLimits, Response, Server,
    ServerConfig, ShardConfig,
};
use qf_storage::{Database, Relation, Tuple, Value, Wal, WalOptions, WalRecord};

use crate::harness::{mix, ms_since, AnswerKey, Class, Oracle, Recorder, RepeatCheck};
use crate::meta;
use crate::trace::Tracer;

const COLD: &[Class] = &[Class::Cold];
const COLD_FRESH: &[Class] = &[Class::Cold, Class::Fresh];
const HIT: &[Class] = &[Class::Hit];
const MUTATE: &[Class] = &[Class::Mutate];
const FRESH: &[Class] = &[Class::Fresh];
const UNCLASSED: &[Class] = &[];

/// Server pool size (the load is sized for a 2-core host).
pub const SERVER_THREADS: usize = 2;
/// Pool size of each shard worker.
pub const WORKER_THREADS: usize = 1;
/// Shard workers behind the coordinator, and copies of each fragment.
pub const SHARDS: usize = 2;
pub const REPLICAS: usize = 2;
/// Basket delta tuples per append/retract batch.
pub const BATCH_TUPLES: usize = 40;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Explore,
    Ingest,
    Scatter,
}

/// A flock program with the threshold it is asked at and a tighter one.
pub struct Prog {
    pub name: &'static str,
    pub text: String,
    pub own: i64,
    pub tight: i64,
}

pub enum Op {
    /// `gen <kind> <seed>`: replace catalog relations.
    Gen(&'static str, u64),
    /// Append batch `i` to `baskets`.
    Append(usize),
    /// Retract batch `i` from `baskets`.
    Retract(usize),
    /// Ask program `prog` at its own (`false`) or tighter threshold.
    Ask(usize, bool),
}

impl Op {
    /// Span name of the client call that sends the op.
    fn verb(&self) -> &'static str {
        match self {
            Op::Gen(..) => "client.gen",
            Op::Append(_) => "client.append",
            Op::Retract(_) => "client.retract",
            Op::Ask(..) => "client.flock",
        }
    }
}

pub struct Step {
    pub op: Op,
    pub classes: &'static [Class],
}

fn step(op: Op, classes: &'static [Class]) -> Step {
    Step { op, classes }
}

/// A workload's script: programs, delta batches, and the rounds the
/// closed loop cycles through.
pub struct Plan {
    pub kind: Kind,
    pub progs: Vec<Prog>,
    /// Delta batches as `baskets` TSV documents.
    pub batches: Vec<String>,
    /// Catalog generated at set-up only (ingest; the other workloads
    /// generate at the start of every round).
    pub initial: Vec<(&'static str, u64)>,
    pub rounds: Vec<Vec<Step>>,
}

pub const PAIR: &str =
    "QUERY: answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2 FILTER: COUNT(answer.B) >= 20";
pub const SUM: &str = "QUERY: answer(B,W) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2 \
                       AND importance(B,W) FILTER: SUM(answer.W) >= 1000";
pub const MAX: &str = "QUERY: answer(B,W) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2 \
                       AND importance(B,W) FILTER: MAX(answer.W) >= 45";
pub const MEDICAL: &str = "QUERY: answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND \
                           diagnoses(P,D) AND NOT causes(D,$s) FILTER: COUNT(answer.P) >= 20";

/// The relations `gen <kind> <seed>` installs, exactly as the server
/// builds them.
pub fn gen_relations(kind: &str, seed: u64) -> Vec<Relation> {
    match kind {
        "baskets" => {
            let config = qf_datagen::BasketConfig {
                seed,
                ..Default::default()
            };
            let data = qf_datagen::baskets::generate(&config);
            vec![data.baskets, qf_datagen::baskets::importance(&config, 50)]
        }
        "medical" => qf_datagen::medical::generate(&qf_datagen::MedicalConfig {
            seed,
            ..Default::default()
        })
        .db
        .iter()
        .cloned()
        .collect(),
        other => panic!("no generator for {other}"),
    }
}

/// The WAL record a `gen` commits: its relations as TSV documents.
pub fn gen_record(kind: &str, seed: u64) -> WalRecord {
    WalRecord::Put {
        relations: gen_relations(kind, seed).iter().map(render_tsv).collect(),
    }
}

/// `count` pairs absent from a binary relation and from `taken`: known
/// first-column keys (baskets, patients) gain second-column values
/// drawn by occurrence from the relation itself.
pub fn new_pair_tuples(
    rel: &Relation,
    seed: u64,
    count: usize,
    taken: &mut BTreeSet<Tuple>,
) -> Vec<Tuple> {
    let keys: Vec<Value> = rel
        .iter()
        .map(|t| t.get(0))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let values: Vec<Value> = rel.iter().map(|t| t.get(1)).collect();
    let mut out = Vec::new();
    let mut x = seed;
    while out.len() < count {
        x = mix(x);
        let key = keys[(x % keys.len() as u64) as usize];
        x = mix(x);
        // Drawn by occurrence, so popular values gain support.
        let value = values[(x % values.len() as u64) as usize];
        let t = Tuple::new(vec![key, value]);
        if !rel.contains(&t) && taken.insert(t.clone()) {
            out.push(t);
        }
    }
    out
}

/// The most frequent item of `baskets` (ties to the smallest value).
fn top_item(baskets: &Relation) -> Value {
    let mut counts = std::collections::BTreeMap::new();
    for t in baskets.iter() {
        *counts.entry(t.get(1)).or_insert(0u64) += 1;
    }
    let best = counts.values().copied().max().unwrap_or(0);
    counts
        .into_iter()
        .find(|&(_, c)| c == best)
        .map_or(Value::int(0), |(v, _)| v)
}

impl Plan {
    pub fn new(kind: Kind, seed: u64) -> Plan {
        // Thresholds come from the seed as well as the catalogs.
        let pair_t = 18 + (mix(seed ^ 0x11) % 5) as i64;
        let sum_t = 900 + 50 * (mix(seed ^ 0x12) % 5) as i64;
        let max_t = 45 + (mix(seed ^ 0x13) % 3) as i64;
        let med_t = 18 + (mix(seed ^ 0x14) % 5) as i64;
        let pair = Prog {
            name: "pair",
            text: PAIR.to_string(),
            own: pair_t,
            tight: pair_t + 10,
        };
        let sum = Prog {
            name: "sum",
            text: SUM.to_string(),
            own: sum_t,
            tight: sum_t + 300,
        };
        let max = Prog {
            name: "max",
            text: MAX.to_string(),
            own: max_t,
            tight: max_t + 2,
        };
        let base = gen_relations("baskets", seed)
            .into_iter()
            .find(|r| r.name() == "baskets")
            .expect("baskets relation");
        let mut taken = BTreeSet::new();
        let mut batch = |i: u64| {
            let tuples = new_pair_tuples(&base, mix(seed ^ (0x100 + i)), BATCH_TUPLES, &mut taken);
            render_tsv(&Relation::from_tuples(base.schema().clone(), tuples))
        };
        match kind {
            Kind::Explore => {
                let medical = Prog {
                    name: "medical",
                    text: MEDICAL.to_string(),
                    own: med_t,
                    tight: med_t + 6,
                };
                // Two catalogs alternate, so every round's `gen` really
                // replaces the data the flocks read.
                let rounds = [seed, seed + 1000]
                    .into_iter()
                    .map(|s| {
                        let mut r = vec![
                            step(Op::Gen("baskets", s), MUTATE),
                            step(Op::Gen("medical", s), UNCLASSED),
                        ];
                        // Each flock was warm before the gens, so its
                        // first ask is both cold and fresh.
                        r.extend((0..3).map(|p| step(Op::Ask(p, false), COLD_FRESH)));
                        for p in 0..3 {
                            r.push(step(Op::Ask(p, false), HIT));
                            r.push(step(Op::Ask(p, true), HIT));
                        }
                        r
                    })
                    .collect();
                Plan {
                    kind,
                    progs: vec![pair, sum, medical],
                    batches: Vec::new(),
                    initial: Vec::new(),
                    rounds,
                }
            }
            Kind::Ingest => {
                // A negated subgoal keeps this flock out of delta
                // maintenance, so it recomputes after every mutation:
                // the workload's cold requests.
                let neg = Prog {
                    name: "negated",
                    text: format!(
                        "QUERY: answer(B) :- baskets(B,$1) AND NOT baskets(B,{}) \
                         FILTER: COUNT(answer.B) >= 20",
                        top_item(&base).render()
                    ),
                    own: pair_t,
                    tight: pair_t + 10,
                };
                let batches = vec![batch(0)];
                let mut round = Vec::new();
                for mutation in [Op::Append(0), Op::Retract(0)] {
                    round.push(step(mutation, MUTATE));
                    for p in 0..4 {
                        round.push(step(Op::Ask(p, false), if p < 3 { FRESH } else { COLD }));
                        round.push(step(Op::Ask(p, true), HIT));
                    }
                }
                Plan {
                    kind,
                    progs: vec![pair, sum, max, neg],
                    batches,
                    initial: vec![("baskets", seed)],
                    rounds: vec![round],
                }
            }
            Kind::Scatter => {
                let batches = (0..3).map(&mut batch).collect();
                let mut round = vec![step(Op::Gen("baskets", seed), UNCLASSED)];
                round.extend((0..3).map(|p| step(Op::Ask(p, false), COLD)));
                for p in 0..3 {
                    round.push(step(Op::Ask(p, false), HIT));
                    round.push(step(Op::Ask(p, true), HIT));
                }
                for p in 0..3 {
                    round.push(step(Op::Append(p), MUTATE));
                    round.push(step(Op::Ask(p, false), FRESH));
                    round.push(step(Op::Ask(p, true), HIT));
                }
                Plan {
                    kind,
                    progs: vec![pair, sum, max],
                    batches,
                    initial: Vec::new(),
                    rounds: vec![round],
                }
            }
        }
    }

    /// Send one op through the client.
    fn send(&self, client: &mut Client, op: &Op) -> qf_server::Result<Response> {
        match *op {
            Op::Gen(kind, seed) => client.gen(kind, seed),
            Op::Append(i) => client.append("baskets", &self.batches[i]),
            Op::Retract(i) => client.retract("baskets", &self.batches[i]),
            Op::Ask(p, tight) => {
                let prog = &self.progs[p];
                let threshold = if tight { prog.tight } else { prog.own };
                client.flock(&prog.text, Some(threshold), limits())
            }
        }
    }

    /// The record a mutation op commits.
    pub fn record(&self, op: &Op) -> Option<WalRecord> {
        match *op {
            Op::Gen(kind, seed) => Some(gen_record(kind, seed)),
            Op::Append(i) => Some(WalRecord::Append {
                tsv: self.batches[i].clone(),
            }),
            Op::Retract(i) => Some(WalRecord::Retract {
                tsv: self.batches[i].clone(),
            }),
            Op::Ask(..) => None,
        }
    }
}

/// Running servers, the client session, and the benchmark's mirror of
/// the catalog the servers should hold.
pub struct Fixture {
    servers: Vec<Server>,
    pub client: Client,
    pub mirror: Database,
    data_dir: Option<PathBuf>,
}

fn server_config(threads: usize) -> ServerConfig {
    ServerConfig {
        threads,
        queue_cap: 8,
        ..ServerConfig::default()
    }
}

fn client_config() -> ClientConfig {
    ClientConfig {
        // Retries stay on so a transient failure is survived, but any
        // request that needed one is counted as failed.
        retries: 2,
        io_timeout: Some(Duration::from_secs(60)),
        ..ClientConfig::default()
    }
}

fn limits() -> RequestLimits {
    RequestLimits {
        timeout_ms: Some(60_000),
        ..RequestLimits::default()
    }
}

impl Fixture {
    /// Start the workload's servers and connect. `rep` keeps data
    /// directories of repeated set-ups apart.
    pub fn start(plan: &Plan, scratch: &std::path::Path, rep: usize) -> Result<Fixture, String> {
        let io = |e: std::io::Error| e.to_string();
        let mut data_dir = None;
        let (servers, addr) = match plan.kind {
            Kind::Explore => {
                let s = Server::serve(
                    server_config(SERVER_THREADS),
                    Database::new(),
                    "127.0.0.1:0",
                )
                .map_err(io)?;
                let addr = s.addr().to_string();
                (vec![s], addr)
            }
            Kind::Ingest => {
                let dir = scratch.join(format!("ingest-{}-{rep}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                let (wal, db) = Wal::open(qf_storage::real_fs(), &dir, WalOptions::default())
                    .map_err(|e| e.to_string())?;
                data_dir = Some(dir);
                let service = FlockService::with_wal(server_config(SERVER_THREADS), db, wal);
                let s = Server::serve_handler(
                    Arc::new(LocalHandler::new(Arc::new(service))),
                    "127.0.0.1:0",
                )
                .map_err(io)?;
                let addr = s.addr().to_string();
                (vec![s], addr)
            }
            Kind::Scatter => {
                let mut servers = Vec::new();
                let mut addrs = Vec::new();
                for _ in 0..SHARDS {
                    let w = Server::serve(
                        server_config(WORKER_THREADS),
                        Database::new(),
                        "127.0.0.1:0",
                    )
                    .map_err(io)?;
                    addrs.push(w.addr().to_string());
                    servers.push(w);
                }
                let shard = ShardConfig {
                    addrs,
                    replicas: REPLICAS,
                    ..ShardConfig::default()
                };
                let coordinator =
                    Coordinator::new(server_config(SERVER_THREADS), shard, Database::new());
                let c = Server::serve_handler(Arc::new(coordinator), "127.0.0.1:0").map_err(io)?;
                let addr = c.addr().to_string();
                // The coordinator first, so shutdown drains it first.
                servers.insert(0, c);
                (servers, addr)
            }
        };
        let client = Client::connect_with(&addr, client_config()).map_err(|e| e.to_string())?;
        Ok(Fixture {
            servers,
            client,
            mirror: Database::new(),
            data_dir,
        })
    }

    /// Shut every server down, wait for each to drain, and remove the
    /// data directory.
    pub fn stop(mut self) {
        let _ = self.client.shutdown();
        for s in &self.servers {
            s.shutdown();
        }
        for s in self.servers {
            s.join();
        }
        if let Some(dir) = self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// Server (or coordinator) `stats` as a JSON object.
    pub fn stats(&mut self) -> String {
        match self.client.stats() {
            Ok(Response::Ok { meta, .. }) => meta,
            _ => String::from("{}"),
        }
    }
}

/// Numbers taken from reply metas while the workload runs.
#[derive(Default)]
pub struct ReplyLog {
    /// Client latency minus the server's own `elapsed_ms`, per flock.
    pub wire_overhead_ms: Vec<f64>,
    pub reply_bytes: Vec<f64>,
    /// Engine accounting of replies that evaluated.
    pub engine_rows: Vec<f64>,
    pub engine_bytes: Vec<f64>,
    pub engine_workers: Vec<f64>,
    pub spilled_bytes: f64,
    pub spills: f64,
    /// Cold-class replies, and those that reused a cached plan.
    pub cold_replies: u64,
    pub cold_plan_cached: u64,
    /// Mutations sent (append/retract only).
    pub deltas_sent: u64,
    /// Per-round sums of machine-independent reply counters.
    round_rows: u64,
    round_results: u64,
}

/// Counters read from `stats` whose per-round change must repeat
/// exactly between rounds with the same inputs.
const REPEAT_STATS: &[&str] = &[
    "requests",
    "cache_hits",
    "cache_misses",
    "delta_applied",
    "delta_maintained",
    "delta_rebuilds",
    "recheck_tuples",
    "wal_records",
    "wal_bytes",
    "tuples",
    "scatters",
    "sharded_runs",
    "local_fallbacks",
    "delta_pushes",
    "shard_cache_hits",
    "shard_cache_misses",
    "shard_delta_rebuilds",
];

/// Everything one round touches.
pub struct Ctx<'a> {
    pub plan: &'a Plan,
    pub fx: &'a mut Fixture,
    pub rec: &'a mut Recorder,
    pub oracle: &'a mut Oracle,
    pub log: &'a mut ReplyLog,
    pub tracer: Option<&'a mut Tracer>,
    pub next_request: u64,
}

impl Ctx<'_> {
    /// Run one op: send it, time it, account for it, check it.
    fn op(&mut self, s: &Step) {
        let req_id = self.next_request;
        self.next_request += 1;
        let before = self.fx.client.session_stats();
        let verb = s.op.verb();
        let plan = self.plan;
        let client = &mut self.fx.client;
        let t = Instant::now();
        let resp = match self.tracer.as_deref_mut() {
            Some(tr) => tr.span(verb, req_id, |_| plan.send(client, &s.op)),
            None => plan.send(client, &s.op),
        };
        let ms = ms_since(t);
        let after = self.fx.client.session_stats();
        let what = |detail: &str| format!("{verb} #{req_id}: {detail}");
        let (meta, body) = match resp {
            Ok(Response::Ok { meta, body }) => (meta, body),
            Ok(Response::Err { kind, detail }) => {
                self.rec.attempted += 1;
                return self.rec.fail(what(&format!("{kind}: {detail}")));
            }
            Err(e) => {
                self.rec.attempted += 1;
                return self.rec.fail(what(&e.to_string()));
            }
        };
        if after.retries > before.retries || after.reconnects > before.reconnects {
            self.rec.attempted += 1;
            return self.rec.fail(what("needed a client retry"));
        }
        let label = match s.op {
            Op::Gen(kind, _) => format!("gen {kind}"),
            Op::Append(i) => format!("append {i}"),
            Op::Retract(i) => format!("retract {i}"),
            Op::Ask(p, tight) => format!(
                "flock {} {} {:?}",
                self.plan.progs[p].name,
                if tight { "tight" } else { "own" },
                s.classes
            ),
        };
        self.rec.sample(&label, s.classes, ms);
        if let Some(record) = self.plan.record(&s.op) {
            self.mutation_reply(&record, &meta, &s.op, &what);
        } else if let Op::Ask(p, tight) = s.op {
            self.flock_reply(p, tight, ms, &meta, &body, s.classes, &what);
        }
    }

    fn mutation_reply(
        &mut self,
        record: &WalRecord,
        meta: &str,
        op: &Op,
        what: &dyn Fn(&str) -> String,
    ) {
        if let Err(e) = Wal::apply(&mut self.fx.mirror, record) {
            return self.rec.fail(what(&format!("mirror cannot apply: {e}")));
        }
        if !matches!(op, Op::Gen(..)) {
            self.log.deltas_sent += 1;
        }
        let want = format!("{:016x}", self.fx.mirror.fingerprint());
        match meta::text(meta, "fp") {
            Some(fp) if fp == want => {}
            Some(fp) => self
                .rec
                .fail(what(&format!("catalog fingerprint {fp}, expected {want}"))),
            None => self.rec.fail(what("reply carries no catalog fingerprint")),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn flock_reply(
        &mut self,
        p: usize,
        tight: bool,
        ms: f64,
        meta: &str,
        body: &str,
        classes: &[Class],
        what: &dyn Fn(&str) -> String,
    ) {
        let prog = &self.plan.progs[p];
        let key = AnswerKey {
            program: prog.text.clone(),
            threshold: if tight { prog.tight } else { prog.own },
            catalog_fp: self.fx.mirror.fingerprint(),
        };
        if let Err(e) = self.oracle.observe(key, &self.fx.mirror, body) {
            self.rec.fail(what(&e));
        }
        let log = &mut *self.log;
        log.wire_overhead_ms
            .push(ms - meta::num0(meta, "elapsed_ms"));
        log.reply_bytes.push((meta.len() + body.len()) as f64);
        if meta::flag(meta, "cache_hit") == Some(false) {
            log.engine_rows.push(meta::num0(meta, "rows"));
            log.engine_bytes.push(meta::num0(meta, "bytes"));
            log.engine_workers.push(meta::num0(meta, "workers"));
        }
        log.spilled_bytes += meta::num0(meta, "spilled_bytes");
        log.spills += meta::num0(meta, "spills");
        if classes.contains(&Class::Cold) {
            log.cold_replies += 1;
            log.cold_plan_cached += u64::from(meta::flag(meta, "plan_cached") == Some(true));
        }
        log.round_rows += meta::num0(meta, "rows") as u64;
        log.round_results += meta::num0(meta, "results") as u64;
    }

    /// Run round `r` of the plan's cycle; returns its wall time.
    pub fn round(&mut self, r: usize) -> f64 {
        let t = Instant::now();
        let plan = self.plan;
        for s in &plan.rounds[r % plan.rounds.len()] {
            self.op(s);
        }
        t.elapsed().as_secs_f64()
    }

    /// Per-round counters for the exact-repeat check: changes of the
    /// `stats` counters plus reply sums since the last call.
    pub fn round_counters(&mut self, prev: &mut String) -> Vec<(String, u64)> {
        let now = self.fx.stats();
        let mut v: Vec<(String, u64)> = REPEAT_STATS
            .iter()
            .map(|k| {
                let d = meta::num0(&now, k) - meta::num0(prev, k);
                (k.to_string(), d as i64 as u64)
            })
            .collect();
        v.push((
            "reply_rows".to_string(),
            std::mem::take(&mut self.log.round_rows),
        ));
        v.push((
            "reply_results".to_string(),
            std::mem::take(&mut self.log.round_results),
        ));
        *prev = now;
        v
    }
}

/// Set up the workload: servers listening, catalog generated and
/// loaded (and, behind a coordinator, fragments synced), WAL opened,
/// and a warm-up pass that asks every program once at its own
/// threshold.
pub fn setup(
    plan: &Plan,
    scratch: &std::path::Path,
    rep: usize,
    oracle: &mut Oracle,
) -> Result<Fixture, String> {
    let mut fx = Fixture::start(plan, scratch, rep)?;
    let mut rec = Recorder::default();
    let mut log = ReplyLog::default();
    let mut warm_up: Vec<Step> = base_gens(plan)
        .into_iter()
        .map(|(kind, seed)| step(Op::Gen(kind, seed), UNCLASSED))
        .collect();
    warm_up.extend((0..plan.progs.len()).map(|p| step(Op::Ask(p, false), UNCLASSED)));
    let mut ctx = Ctx {
        plan,
        fx: &mut fx,
        rec: &mut rec,
        oracle,
        log: &mut log,
        tracer: None,
        next_request: 0,
    };
    for s in &warm_up {
        ctx.op(s);
    }
    if rec.failed > 0 {
        let failures = rec.failures.join("; ");
        fx.stop();
        return Err(format!("warm-up failed: {failures}"));
    }
    Ok(fx)
}

/// The measured closed loop: rounds until `seconds` have passed (and at
/// least `min_rounds` sampled ones). The first round finishes warming
/// state the warm-up pass cannot reach (caches below the coordinator,
/// the post-delta catalogs): its answers are checked and its failures
/// counted, but its latencies are not sampled and the exact-repeat check
/// starts with round 2.
pub fn measure(ctx: &mut Ctx<'_>, seconds: f64, min_rounds: usize, repeat: &mut RepeatCheck) {
    let start = Instant::now();
    let mut prev = ctx.fx.stats();
    let mut r = 1;
    while r <= min_rounds + 1 || start.elapsed().as_secs_f64() < seconds {
        ctx.rec.sampling = r > 1;
        let s = ctx.round(r);
        let counters = ctx.round_counters(&mut prev);
        if r > 1 {
            ctx.rec.round_s.push(s);
            repeat.round((r % ctx.plan.rounds.len()) as u64, counters);
        }
        r += 1;
    }
}

/// The gens that build a plan's base catalog: the initial ones, then
/// those that open round 0.
pub fn base_gens(plan: &Plan) -> Vec<(&'static str, u64)> {
    let mut gens = plan.initial.clone();
    gens.extend(plan.rounds[0].iter().filter_map(|s| match s.op {
        Op::Gen(kind, seed) => Some((kind, seed)),
        _ => None,
    }));
    gens
}

/// The base catalog a plan's flocks read when its rounds begin (after
/// the gens of round 0, before any delta).
pub fn base_catalog(plan: &Plan) -> Database {
    let mut db = Database::new();
    for (kind, seed) in base_gens(plan) {
        Wal::apply(&mut db, &gen_record(kind, seed)).expect("generated catalog applies");
    }
    db
}
