//! The traced replay: each distinct request of a workload is replayed
//! in-process through the public functions of the layers it crosses,
//! with a span around every call.

use std::collections::BTreeSet;
use std::path::Path;

use qf_core::{
    best_plan_with, compile_answer, direct_plan, evaluate_scored_partial, execute_plan_scored_with,
    merge_scored_partials, partial_flock, partition_database, scored_schema, DeltaLimits,
    ExecContext, FlockDelta, JoinOrderStrategy, QueryPlan,
};
use qf_storage::{Database, Relation, Wal, WalOptions, WalRecord};

use crate::harness::{flock_at, mix};
use crate::trace::Tracer;

/// One request to replay: a program at a threshold over a catalog, and
/// optionally the relation a delta batch changes with the catalog after
/// it (to replay delta maintenance).
pub struct Item<'a> {
    pub text: &'a str,
    pub threshold: i64,
    pub db: &'a Database,
    pub delta: Option<(&'a str, &'a Database)>,
    /// Run the direct plan instead of searching one.
    pub direct: bool,
    pub shards: usize,
    pub threads: usize,
}

/// Numbers the replays produce, one entry per replayed request.
#[derive(Default)]
pub struct Replayed {
    pub plan_steps: Vec<f64>,
    pub step_ms: Vec<f64>,
    pub answer_tuples: Vec<f64>,
    pub elimination: Vec<f64>,
    pub canon_ms: Vec<f64>,
    pub canon_share: Vec<f64>,
    pub build_refused: u64,
    pub refusals: BTreeSet<String>,
    pub failures: Vec<String>,
}

/// Shuffle deterministically, so canonicalization sorts real work.
fn shuffled<T>(mut v: Vec<T>, seed: u64) -> Vec<T> {
    let mut x = seed;
    for i in (1..v.len()).rev() {
        x = mix(x);
        v.swap(i, (x % (i as u64 + 1)) as usize);
    }
    v
}

pub fn replay(tr: &mut Tracer, req: u64, item: &Item<'_>, out: &mut Replayed) {
    let result = tr.span("replay", req, |tr| replay_inner(tr, req, item, out));
    if let Err(e) = result {
        out.failures.push(format!(
            "replay of {} at {}: {e}",
            item.text, item.threshold
        ));
    }
}

fn replay_inner(
    tr: &mut Tracer,
    req: u64,
    item: &Item<'_>,
    out: &mut Replayed,
) -> Result<(), String> {
    let s = |e: qf_core::FlockError| e.to_string();
    let db = item.db;
    let ctx = ExecContext::unbounded().with_threads(item.threads);
    let (_, flock) = tr.span("datalog.parse", req, |_| {
        flock_at(item.text, item.threshold)
    })?;
    let plan: QueryPlan = tr
        .span("plangen.search", req, |_| {
            if !item.direct && flock.filter().is_monotone() {
                best_plan_with(&flock, db, &ctx).map(|(plan, _)| plan)
            } else {
                direct_plan(&flock)
            }
        })
        .map_err(s)?;
    out.plan_steps.push(plan.steps.len() as f64);
    let run = tr
        .span("exec.plan", req, |_| {
            execute_plan_scored_with(&plan, db, JoinOrderStrategy::Greedy, &ctx)
        })
        .map_err(s)?;
    let step_ms: f64 = run
        .steps
        .iter()
        .map(|r| r.elapsed.as_secs_f64() * 1e3)
        .sum();
    out.step_ms.push(step_ms);
    out.answer_tuples
        .push(run.steps.iter().map(|r| r.answer_tuples as f64).sum());
    let elim: Vec<f64> = run.steps.iter().map(|r| r.elimination_rate()).collect();
    out.elimination
        .push(elim.iter().sum::<f64>() / elim.len().max(1) as f64);

    // Canonicalization: the flock query's answer (before FILTER) turned
    // back into a set-semantics relation from shuffled tuples.
    let answer = tr.span("engine.answer", req, |_| {
        compile_answer(flock.query(), db, JoinOrderStrategy::Greedy)
            .map_err(s)
            .and_then(|c| qf_engine::execute_with(&c.plan, db, &ctx).map_err(|e| e.to_string()))
    })?;
    let tuples = shuffled(answer.tuples().to_vec(), mix(req));
    let t0 = std::time::Instant::now();
    let canon = tr.span("relation.canon", req, |_| {
        Relation::from_tuples(answer.schema().clone(), tuples)
    });
    let canon_ms = t0.elapsed().as_secs_f64() * 1e3;
    if canon.len() != answer.len() {
        return Err("canonicalized answer changed size".to_string());
    }
    out.canon_ms.push(canon_ms);
    if step_ms > 0.0 {
        out.canon_share.push(canon_ms / step_ms);
    }

    if FlockDelta::maintainable(&flock) {
        let limits = DeltaLimits::default();
        match tr.span("delta.build", req, |_| {
            FlockDelta::build(&flock, db, &limits)
        }) {
            Ok(mut view) => {
                if let Some((rel, after)) = item.delta {
                    let old = db.get(rel).map_err(|e| e.to_string())?;
                    let new = after.get(rel).map_err(|e| e.to_string())?;
                    tr.span("delta.apply", req, |_| {
                        view.apply(rel, old, new, after, &limits)
                    })
                    .map_err(s)?;
                }
            }
            Err(e) => {
                out.build_refused += 1;
                out.refusals.insert(e.to_string());
            }
        }
    }

    if item.shards > 1 {
        // The scatter a coordinator runs for the flock's direct plan:
        // partition, one partial per fragment, merge.
        let frags = tr.span("shard.partition", req, |_| {
            partition_database(db, item.shards, &BTreeSet::new())
        });
        let direct = direct_plan(&flock).map_err(s)?;
        let step = direct.steps.last().ok_or("empty plan")?;
        let partial = partial_flock(step, flock.filter()).map_err(s)?;
        let mut parts = Vec::new();
        for frag in &frags {
            parts.push(
                tr.span("shard.partial", req, |_| {
                    evaluate_scored_partial(&partial, frag, JoinOrderStrategy::Greedy, &ctx)
                })
                .map_err(s)?,
            );
        }
        tr.span("shard.merge", req, |_| {
            merge_scored_partials(&flock.filter().agg, scored_schema(step), &parts)
        })
        .map_err(s)?;
    }
    Ok(())
}

/// Replay a workload's mutations through `Wal::commit` on a scratch
/// directory (fsync and read-back as the server does). Returns WAL
/// bytes written per byte of user TSV.
pub fn replay_wal(
    tr: &mut Tracer,
    dir: &Path,
    base: &[WalRecord],
    mutations: &[WalRecord],
    passes: usize,
) -> Result<f64, String> {
    let e = |e: qf_storage::StorageError| e.to_string();
    let _ = std::fs::remove_dir_all(dir);
    let result = (|| {
        let (mut wal, mut db) =
            Wal::open(qf_storage::real_fs(), dir, WalOptions::default()).map_err(e)?;
        for record in base {
            Wal::apply(&mut db, record).map_err(e)?;
            wal.commit(record, db.fingerprint()).map_err(e)?;
        }
        let before = wal.counters().stats().wal_bytes;
        let mut user_bytes = 0usize;
        for pass in 0..passes {
            for (i, record) in mutations.iter().enumerate() {
                Wal::apply(&mut db, record).map_err(e)?;
                let fp = db.fingerprint();
                tr.span("wal.commit", (pass * mutations.len() + i) as u64, |_| {
                    wal.commit(record, fp)
                })
                .map_err(e)?;
                if let WalRecord::Append { tsv } | WalRecord::Retract { tsv } = record {
                    user_bytes += tsv.len();
                }
            }
        }
        let written = wal.counters().stats().wal_bytes.saturating_sub(before);
        Ok(written as f64 / user_bytes.max(1) as f64)
    })();
    let _ = std::fs::remove_dir_all(dir);
    result
}
