//! Query-plan execution.
//!
//! Runs a [`QueryPlan`] step by step: each `FILTER` step evaluates its
//! query (against base relations plus previous steps' outputs), groups
//! by the step's parameters, applies the flock's filter condition, and
//! materializes the surviving parameter assignments as a new relation
//! in the working database — exactly the operational reading of
//! `R(P) := FILTER(P, Q, C)` (§4.1). The final step keeps each
//! surviving assignment's aggregate value: one loop serves the flock
//! result and the server's scored cache rows alike.
//!
//! Execution is instrumented: every step reports its answer size, group
//! count, survivor count, and wall-clock time, which is what the
//! experiments (and the paper's intuition about "smaller relations …
//! subsequent join steps take less time") need to show.

use std::time::Instant;

use qf_datalog::param_isomorphism;
use qf_engine::{execute_with, AggFn, ExecContext, PhysicalPlan};
use qf_storage::{Database, Relation, Schema, Symbol, Tuple, Value};

use crate::compile::{
    agg_fn, compile_answer, filter_answer_scored, CompiledRule, JoinOrderStrategy,
};
use crate::error::Result;
use crate::eval::flock_result_from_scored;
use crate::filter::FilterAgg;
use crate::plan::{FilterStep, QueryPlan};
use crate::shard::scored_schema;

/// Instrumentation for one executed `FILTER` step.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// Step (output relation) name.
    pub name: String,
    /// Tuples in the step query's extended answer (before grouping).
    pub answer_tuples: usize,
    /// Distinct parameter assignments seen (groups).
    pub groups: usize,
    /// Assignments surviving the filter (output tuples).
    pub survivors: usize,
    /// Wall-clock time for the step.
    pub elapsed: std::time::Duration,
    /// True when the step was answered by renaming an earlier step's
    /// result instead of evaluating (parameter symmetry, §4.3 fn. 3).
    pub reused: bool,
    /// True when the step was replayed from a run journal snapshot
    /// instead of evaluating (crash recovery, see [`crate::journal`]).
    pub resumed: bool,
}

impl StepReport {
    /// Fraction of assignments the filter eliminated.
    pub fn elimination_rate(&self) -> f64 {
        if self.groups == 0 {
            0.0
        } else {
            1.0 - self.survivors as f64 / self.groups as f64
        }
    }
}

/// The outcome of executing a [`QueryPlan`].
#[derive(Clone, Debug)]
pub struct PlanExecution {
    /// The flock result: surviving parameter assignments, columns named
    /// after the parameters.
    pub result: Relation,
    /// Per-step instrumentation, in execution order.
    pub steps: Vec<StepReport>,
}

impl PlanExecution {
    /// Total wall-clock time across steps.
    pub fn total_elapsed(&self) -> std::time::Duration {
        self.steps.iter().map(|s| s.elapsed).sum()
    }

    /// Total tuples materialized by step answers (a proxy for work done).
    pub fn total_answer_tuples(&self) -> usize {
        self.steps.iter().map(|s| s.answer_tuples).sum()
    }
}

/// The outcome of a *scored* plan execution: the flock's surviving
/// parameter assignments with their aggregate values still attached.
#[derive(Clone, Debug)]
pub struct ScoredExecution {
    /// `(params…, aggregate)` rows for every assignment passing the
    /// flock's filter; columns are the parameter names plus `agg`.
    /// Projecting away `agg` recovers the flock result exactly;
    /// re-filtering by any condition the flock's filter
    /// [subsumes](crate::FilterCondition::subsumes) answers that
    /// condition exactly (see [`crate::flock_result_from_scored`]).
    pub scored: Relation,
    /// Per-step instrumentation, in execution order.
    pub steps: Vec<StepReport>,
}

/// Execute a validated plan against `db`.
///
/// `db` is not mutated; step outputs live in a working copy (relation
/// clones are reference-count bumps, so the copy is cheap).
pub fn execute_plan(
    plan: &QueryPlan,
    db: &Database,
    strategy: JoinOrderStrategy,
) -> Result<PlanExecution> {
    execute_plan_with(plan, db, strategy, &ExecContext::unbounded())
}

/// [`execute_plan`] under an execution governor: every step's answer
/// evaluation and filter application run with `ctx`'s budgets, deadline
/// and cancellation token. A tripped budget aborts the plan with the
/// engine error; the working database is dropped, so the caller's `db`
/// is untouched no matter where the failure lands.
///
/// Independent `FILTER` steps evaluate concurrently: consecutive steps
/// whose queries reference only already-materialized relations form a
/// *wave*, and each wave's non-reusable steps run on up to
/// [`ExecContext::threads`] scoped worker threads against the immutable
/// working database. Results are committed in plan order, so reports,
/// symmetry reuse, and the final result are identical to sequential
/// execution.
pub fn execute_plan_with(
    plan: &QueryPlan,
    db: &Database,
    strategy: JoinOrderStrategy,
    ctx: &ExecContext,
) -> Result<PlanExecution> {
    execute_plan_inner(plan, db, strategy, ctx, None).map(|run| unscored(plan, run))
}

/// [`execute_plan_with`] journaled for crash-safe resume: each step's
/// output is durably recorded in `journal` as it commits, and steps the
/// journal already holds are replayed from their snapshots (reported
/// with [`StepReport::resumed`] set) instead of re-evaluated. A run
/// killed at any point — budget trip, deadline, cancellation, or
/// `kill -9` — restarts from its last completed step and produces a
/// bitwise-identical final result.
pub fn execute_plan_journaled(
    plan: &QueryPlan,
    db: &Database,
    strategy: JoinOrderStrategy,
    ctx: &ExecContext,
    journal: &mut crate::journal::RunJournal,
) -> Result<PlanExecution> {
    execute_plan_inner(plan, db, strategy, ctx, Some(journal)).map(|run| unscored(plan, run))
}

/// [`execute_plan_with`], but the final `FILTER` step keeps the
/// aggregate column: the plan's reductions run exactly as usual
/// (including symmetry reuse and wave parallelism), while the last step
/// aggregates and thresholds *without* projecting the aggregate away.
/// This is what the server's result cache stores — one scored run at
/// support `s` answers every request at a subsumed threshold `s' ≥ s`
/// by re-filtering.
pub fn execute_plan_scored_with(
    plan: &QueryPlan,
    db: &Database,
    strategy: JoinOrderStrategy,
    ctx: &ExecContext,
) -> Result<ScoredExecution> {
    execute_plan_inner(plan, db, strategy, ctx, None)
}

/// Drop a scored run's aggregate column: the flock result.
fn unscored(plan: &QueryPlan, run: ScoredExecution) -> PlanExecution {
    PlanExecution {
        result: flock_result_from_scored(&plan.flock, &run.scored, plan.flock.filter()),
        steps: run.steps,
    }
}

/// The one plan loop behind every entry point. Each step evaluates to
/// scored `(params…, agg)` rows; a reduction step commits their
/// parameter prefix to the working database (and the journal), and the
/// final step's scored rows are the run's output. The final step is
/// never answered by symmetry reuse — renaming an earlier reduction
/// cannot produce aggregate values — so it is always evaluated, unless
/// the journal replays its scored snapshot.
fn execute_plan_inner(
    plan: &QueryPlan,
    db: &Database,
    strategy: JoinOrderStrategy,
    ctx: &ExecContext,
    mut journal: Option<&mut crate::journal::RunJournal>,
) -> Result<ScoredExecution> {
    let last = plan.steps.len() - 1;
    let mut working = db.clone();
    let mut reports = Vec::with_capacity(plan.steps.len());
    let mut scored: Option<Relation> = None;
    // Executed reduction steps, for parameter-symmetry reuse (§4.3
    // footnote 3: the single-parameter basket subqueries are "exactly
    // the same" up to renaming — evaluate once, rename the result).
    let mut executed: Vec<(&FilterStep, Relation)> = Vec::new();

    /// How a wave step obtains its result.
    enum Slot {
        /// Rename an earlier wave's result (parameter symmetry).
        Prev(Relation),
        /// Rename the result of an in-wave representative (by index
        /// into the wave), once that representative has evaluated.
        Rep(usize),
        /// Evaluate the step's query.
        Eval,
    }

    // Replay the journal's contiguous completed prefix: each snapshot
    // is loaded (hash-checked) and committed exactly as its original
    // evaluation was, so later steps — including symmetry reuse — see
    // an identical working database. A snapshot that fails integrity
    // verification truncates the replayable prefix right there: the
    // clean earlier steps stay replayed, and everything from the
    // damaged step on is recomputed instead of resumed.
    let mut resume_prefix = journal
        .as_ref()
        .map_or(0, |j| j.contiguous_prefix(plan.steps.len()));
    for (idx, step) in plan.steps.iter().take(resume_prefix).enumerate() {
        let loaded = journal
            .as_ref()
            .expect("prefix > 0 implies journal")
            .load_step(idx)
            .and_then(|rel| {
                // The final step's snapshot must carry the aggregate.
                if idx == last && rel.schema().arity() != step.params.len() + 1 {
                    return Err(crate::error::FlockError::SnapshotCorrupt {
                        step: idx,
                        detail: "final snapshot holds no aggregate column".to_string(),
                    });
                }
                Ok(rel)
            });
        let out = match loaded {
            Ok(out) => out,
            Err(e @ crate::error::FlockError::SnapshotCorrupt { .. }) => {
                ctx.record_degradation(
                    "journal-corrupt-snapshot",
                    format!("{e}; recomputing from step {idx}"),
                );
                ctx.note_corruption_recovery();
                resume_prefix = idx;
                break;
            }
            Err(e) => return Err(e),
        };
        reports.push(StepReport {
            name: step.output.clone(),
            answer_tuples: 0,
            groups: 0,
            survivors: out.len(),
            elapsed: std::time::Duration::ZERO,
            reused: false,
            resumed: true,
        });
        if idx == last {
            scored = Some(out);
        } else {
            working.insert(out.clone());
            executed.push((step, out));
        }
    }

    let mut i = resume_prefix;
    while i < plan.steps.len() {
        // A wave is the maximal run of consecutive steps whose queries
        // reference only relations already materialized (base relations
        // or outputs of completed waves) — mutually independent, so
        // they may evaluate concurrently. The first remaining step is
        // always included; if its inputs are genuinely missing,
        // compilation reports the error exactly as before.
        let mut end = i + 1;
        while end < plan.steps.len() && step_inputs_ready(&plan.steps[end], &working) {
            end += 1;
        }
        let wave = &plan.steps[i..end];

        // Classify before evaluating: symmetric steps must keep reusing
        // results (including from a representative in the same wave)
        // rather than being re-evaluated just because they became
        // concurrent.
        let mut slots: Vec<Slot> = Vec::with_capacity(wave.len());
        for (w, step) in wave.iter().enumerate() {
            if i + w == last {
                slots.push(Slot::Eval);
                continue;
            }
            if let Some(renamed) = try_symmetric_reuse(step, &executed) {
                slots.push(Slot::Prev(renamed));
                continue;
            }
            let rep = (0..w).find(|&p| {
                matches!(slots[p], Slot::Eval)
                    && wave[p].query.rules().len() == 1
                    && step.query.rules().len() == 1
                    && wave[p].params.len() == step.params.len()
                    && param_isomorphism(&wave[p].query.rules()[0], &step.query.rules()[0])
                        .is_some()
            });
            slots.push(match rep {
                Some(p) => Slot::Rep(p),
                None => Slot::Eval,
            });
        }

        // Evaluate the representatives in parallel over the immutable
        // working database, each within its share of the thread grant.
        let eval_idx: Vec<usize> = (0..wave.len())
            .filter(|&w| matches!(slots[w], Slot::Eval))
            .collect();
        if !eval_idx.is_empty() {
            ctx.note_workers(ctx.threads().min(eval_idx.len()).max(1));
        }
        let share = wave_share(ctx, eval_idx.len());
        let working_ref = &working;
        let evaluated = qf_engine::par_items(&eval_idx, ctx.threads(), |&w| {
            evaluate_step(plan, &wave[w], working_ref, strategy, &share).map(|e| (w, e))
        })?;
        let mut by_slot: Vec<Option<EvaluatedStep>> = (0..wave.len()).map(|_| None).collect();
        for (w, e) in evaluated {
            by_slot[w] = Some(e);
        }

        // Commit in plan order so reports and the working database look
        // exactly as they would under sequential execution.
        let mut named_by_w: Vec<Option<Relation>> = vec![None; wave.len()];
        for (w, step) in wave.iter().enumerate() {
            let idx = i + w;
            let commit = Instant::now();
            let (out, report) = match &slots[w] {
                Slot::Prev(renamed) => reuse_commit(step, renamed.clone(), commit),
                Slot::Rep(p) => {
                    let rep_named = named_by_w[*p]
                        .clone()
                        .unwrap_or_else(|| Relation::empty(Schema::new(&wave[*p].output, &[])));
                    match try_symmetric_reuse(step, &[(&wave[*p], rep_named)]) {
                        Some(renamed) => reuse_commit(step, renamed, commit),
                        // Unreachable in practice (classification already
                        // proved the isomorphism); evaluate as a fallback.
                        None => {
                            let e = evaluate_step(plan, step, &working, strategy, ctx)?;
                            eval_commit(step, e, false)
                        }
                    }
                }
                Slot::Eval => {
                    let e =
                        by_slot[w]
                            .take()
                            .ok_or_else(|| crate::error::FlockError::IllegalPlan {
                                detail: format!(
                                    "step `{}` was skipped by the scheduler",
                                    step.output
                                ),
                            })?;
                    eval_commit(step, e, idx == last)
                }
            };
            if let Some(j) = journal.as_deref_mut() {
                // Journaling is advisory once the run is underway: a
                // write failure (after bounded retry inside the
                // journal) must not kill a run that is otherwise
                // healthy. Record the degradation — resume will start
                // from the last durable step — and stop journaling.
                let recorded = j.record_step(idx, &out);
                for _ in 0..j.take_io_retries() {
                    ctx.note_io_retry();
                }
                if let Err(e) = recorded {
                    ctx.record_degradation(
                        "journal-advisory",
                        format!(
                            "{e}; continuing without journaling (resume disabled past step {idx})"
                        ),
                    );
                    journal = None;
                }
            }
            reports.push(report);
            if idx == last {
                scored = Some(out);
            } else {
                working.insert(out.clone());
                executed.push((step, out.clone()));
                named_by_w[w] = Some(out);
            }
        }
        i = end;
    }

    Ok(ScoredExecution {
        scored: scored.expect("validated plans are non-empty"),
        steps: reports,
    })
}

/// The context each of a wave's `evaluated` concurrent steps runs
/// under: `ctx`'s budgets, deadline and counters (clones share them),
/// with the thread grant split evenly so that step workers times
/// operator workers never exceeds [`ExecContext::threads`].
fn wave_share(ctx: &ExecContext, evaluated: usize) -> ExecContext {
    ctx.clone().with_threads(ctx.threads() / evaluated.max(1))
}

/// True when every relation `step`'s query references already exists in
/// `working` — the condition for joining the current wave.
fn step_inputs_ready(step: &FilterStep, working: &Database) -> bool {
    step.query
        .rules()
        .iter()
        .flat_map(|r| r.predicates())
        .all(|pred| working.contains(pred.as_str()))
}

/// The measured outcome of actually evaluating one `FILTER` step.
struct EvaluatedStep {
    answer_tuples: usize,
    groups: usize,
    /// `(params…, agg)` rows passing the flock's filter.
    scored: Relation,
    elapsed: std::time::Duration,
}

/// Evaluate one step's query against `working`, group by the step's
/// parameters, and apply the flock's filter, keeping the aggregate
/// column. Runs on a worker thread during wave-parallel execution, so
/// it only reads `working` and charges the shared governor.
fn evaluate_step(
    plan: &QueryPlan,
    step: &FilterStep,
    working: &Database,
    strategy: JoinOrderStrategy,
    ctx: &ExecContext,
) -> Result<EvaluatedStep> {
    let start = Instant::now();
    let filter = plan.flock.filter();
    let rule0 = &step.query.rules()[0];
    let answer = compile_answer(&step.query, working, strategy)?;
    // Under spill-to-disk, skip materializing the (possibly huge)
    // extended answer: fuse the filter's group-by/aggregate directly
    // onto the answer plan so the whole step runs as one spillable tree
    // and only the (small) surviving assignments materialize. SUM
    // filters still take the materialized path — the §5 negative-weight
    // check below needs the answer relation's column statistics — and
    // the per-step answer/group instrumentation is forgone (reported as
    // zero, like a symmetry-reused step).
    if ctx.spill_enabled() && !matches!(filter.agg, FilterAgg::Sum(_)) {
        let scored = execute_with(&filter_answer_scored(&answer, rule0, filter)?, working, ctx)?;
        return Ok(EvaluatedStep {
            answer_tuples: 0,
            groups: 0,
            scored,
            elapsed: start.elapsed(),
        });
    }
    let answer_rel = execute_with(&answer.plan, working, ctx)?;
    // SUM-filter monotonicity precondition: no negative weights.
    if let AggFn::Sum(col) = agg_fn(filter, rule0, answer.n_params)? {
        if let Some(min) = answer_rel.stats().column(col).min {
            if min < Value::int(0) {
                return Err(crate::error::FlockError::NegativeWeight {
                    detail: format!("step `{}`: minimum weight {min}", step.output),
                });
            }
        }
    }
    // Aggregate the materialized answer through the compiled filter by
    // wrapping it as a scan under a reserved name.
    const TMP: &str = "__step_answer";
    let mut tmp = Database::new();
    tmp.insert(answer_rel.renamed(TMP));
    let wrapped = CompiledRule {
        plan: PhysicalPlan::scan(TMP),
        ..answer
    };
    let scored = execute_with(&filter_answer_scored(&wrapped, rule0, filter)?, &tmp, ctx)?;
    Ok(EvaluatedStep {
        answer_tuples: answer_rel.len(),
        groups: count_groups(&answer_rel, wrapped.n_params),
        scored,
        elapsed: start.elapsed(),
    })
}

/// Report + named relation for a step answered by renaming.
fn reuse_commit(step: &FilterStep, renamed: Relation, start: Instant) -> (Relation, StepReport) {
    let report = StepReport {
        name: step.output.clone(),
        answer_tuples: 0,
        groups: 0,
        survivors: renamed.len(),
        elapsed: start.elapsed(),
        reused: true,
        resumed: false,
    };
    (renamed, report)
}

/// Report + committed relation for an evaluated step: the final step
/// keeps its scored rows; a reduction step materializes their parameter
/// prefix under the step's name. There is one scored row per group and
/// the parameters lead, so the prefixes are already sorted and distinct.
fn eval_commit(step: &FilterStep, e: EvaluatedStep, is_final: bool) -> (Relation, StepReport) {
    let out = if is_final {
        Relation::from_sorted_dedup(scored_schema(step), e.scored.tuples().to_vec())
    } else {
        let cols: Vec<usize> = (0..step.params.len()).collect();
        Relation::from_sorted_dedup(
            Schema::from_columns(
                step.output.clone(),
                step.params.iter().map(|p| p.to_string()).collect(),
            ),
            e.scored.iter().map(|t| t.project(&cols)).collect(),
        )
    };
    let report = StepReport {
        name: step.output.clone(),
        answer_tuples: e.answer_tuples,
        groups: e.groups,
        survivors: out.len(),
        elapsed: e.elapsed,
        reused: false,
        resumed: false,
    };
    (out, report)
}

/// If `step`'s query is isomorphic to an already-executed step's query
/// under a parameter bijection, produce its result by renaming columns
/// of the earlier result. Single-rule step queries only (union
/// symmetry would need one consistent bijection across branches).
fn try_symmetric_reuse(
    step: &FilterStep,
    executed: &[(&FilterStep, Relation)],
) -> Option<Relation> {
    if step.query.rules().len() != 1 {
        return None;
    }
    for (prev, rel) in executed {
        if prev.query.rules().len() != 1 || prev.params.len() != step.params.len() {
            continue;
        }
        let Some(mapping) = param_isomorphism(&prev.query.rules()[0], &step.query.rules()[0])
        else {
            continue;
        };
        // Column i of the new relation holds step.params[i]; find which
        // previous column maps onto it.
        let mut proj = Vec::with_capacity(step.params.len());
        for &new_param in &step.params {
            let old_param: Symbol = mapping
                .iter()
                .find(|(_, to)| *to == new_param)
                .map(|(from, _)| *from)?;
            proj.push(prev.params.iter().position(|&p| p == old_param)?);
        }
        let tuples: Vec<Tuple> = rel.iter().map(|t| t.project(&proj)).collect();
        let schema = Schema::from_columns(
            step.output.clone(),
            step.params.iter().map(|p| p.to_string()).collect(),
        );
        return Some(Relation::from_tuples(schema, tuples));
    }
    None
}

/// Distinct parameter prefixes in the extended answer. The parameters
/// lead and the answer is sorted, so each prefix is one run.
fn count_groups(answer_rel: &Relation, n_params: usize) -> usize {
    let t = answer_rel.tuples();
    let starts = t
        .windows(2)
        .filter(|w| w[0].values()[..n_params] != w[1].values()[..n_params])
        .count();
    starts + usize::from(!t.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{final_step, FilterStep};
    use crate::plangen::direct_plan;
    use crate::QueryFlock;
    use qf_datalog::parse_query;
    use qf_storage::Value;

    /// Medical data where exactly one (symptom, medicine) pair is an
    /// unexplained side-effect with support ≥ 2.
    fn medical_db() -> Database {
        let mut db = Database::new();
        let mut diagnoses = Vec::new();
        let mut exhibits = Vec::new();
        let mut treatments = Vec::new();
        // Patients 1..=3: take "zorix", exhibit "headache", have "flu";
        // flu does not cause headache → unexplained, support 3.
        for p in 1..=3i64 {
            diagnoses.push(vec![Value::int(p), Value::str("flu")]);
            exhibits.push(vec![Value::int(p), Value::str("headache")]);
            treatments.push(vec![Value::int(p), Value::str("zorix")]);
        }
        // Patients 4..=5: take "zorix", exhibit "fever", have "flu";
        // flu causes fever → explained.
        for p in 4..=5i64 {
            diagnoses.push(vec![Value::int(p), Value::str("flu")]);
            exhibits.push(vec![Value::int(p), Value::str("fever")]);
            treatments.push(vec![Value::int(p), Value::str("zorix")]);
        }
        // Patient 6: rare symptom, rare medicine (below support).
        diagnoses.push(vec![Value::int(6), Value::str("flu")]);
        exhibits.push(vec![Value::int(6), Value::str("twitch")]);
        treatments.push(vec![Value::int(6), Value::str("obscurol")]);
        db.insert(Relation::from_rows(
            Schema::new("diagnoses", &["p", "d"]),
            diagnoses,
        ));
        db.insert(Relation::from_rows(
            Schema::new("exhibits", &["p", "s"]),
            exhibits,
        ));
        db.insert(Relation::from_rows(
            Schema::new("treatments", &["p", "m"]),
            treatments,
        ));
        db.insert(Relation::from_rows(
            Schema::new("causes", &["d", "s"]),
            vec![vec![Value::str("flu"), Value::str("fever")]],
        ));
        db
    }

    fn medical_flock(threshold: i64) -> QueryFlock {
        QueryFlock::with_support(
            "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND \
             diagnoses(P,D) AND NOT causes(D,$s)",
            threshold,
        )
        .unwrap()
    }

    fn fig5_plan(threshold: i64) -> QueryPlan {
        let flock = medical_flock(threshold);
        let ok_s = FilterStep::new("okS", parse_query("answer(P) :- exhibits(P,$s)").unwrap());
        let ok_m = FilterStep::new("okM", parse_query("answer(P) :- treatments(P,$m)").unwrap());
        let final_ = final_step(&flock, &[ok_s.clone(), ok_m.clone()], "ok").unwrap();
        QueryPlan::new(flock, vec![ok_s, ok_m, final_]).unwrap()
    }

    #[test]
    fn fig5_plan_equals_direct() {
        let db = medical_db();
        for threshold in [1, 2, 3, 4] {
            let plan = fig5_plan(threshold);
            let run = execute_plan(&plan, &db, JoinOrderStrategy::Greedy).unwrap();
            let direct = crate::eval::evaluate_direct(
                &medical_flock(threshold),
                &db,
                JoinOrderStrategy::Greedy,
            )
            .unwrap();
            assert_eq!(
                run.result.tuples(),
                direct.tuples(),
                "threshold {threshold}"
            );
        }
    }

    #[test]
    fn expected_side_effect_found() {
        let db = medical_db();
        let run = execute_plan(&fig5_plan(2), &db, JoinOrderStrategy::Greedy).unwrap();
        assert_eq!(run.result.len(), 1);
        let t = &run.result.tuples()[0];
        // Columns sorted by param name: $m, $s.
        assert_eq!(t.get(0), Value::str("zorix"));
        assert_eq!(t.get(1), Value::str("headache"));
    }

    #[test]
    fn prefilters_prune_candidates() {
        let db = medical_db();
        let run = execute_plan(&fig5_plan(2), &db, JoinOrderStrategy::Greedy).unwrap();
        assert_eq!(run.steps.len(), 3);
        let ok_s = &run.steps[0];
        // Symptoms: headache(3), fever(2), twitch(1) → twitch eliminated.
        assert_eq!(ok_s.groups, 3);
        assert_eq!(ok_s.survivors, 2);
        assert!(ok_s.elimination_rate() > 0.0);
        let ok_m = &run.steps[1];
        // Medicines: zorix(5), obscurol(1) → obscurol eliminated.
        assert_eq!(ok_m.groups, 2);
        assert_eq!(ok_m.survivors, 1);
    }

    #[test]
    fn direct_plan_execution_matches_eval() {
        let db = medical_db();
        let flock = medical_flock(2);
        let plan = direct_plan(&flock).unwrap();
        let run = execute_plan(&plan, &db, JoinOrderStrategy::Greedy).unwrap();
        let direct = crate::eval::evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
        assert_eq!(run.result.tuples(), direct.tuples());
        assert_eq!(run.steps.len(), 1);
    }

    #[test]
    fn symmetric_steps_are_reused() {
        // The basket flock's ok_1/ok_2 are isomorphic modulo $1 ↔ $2:
        // the second must be answered by renaming, not re-evaluation.
        let mut db = Database::new();
        let mut rows = Vec::new();
        for b in 0..30i64 {
            rows.push(vec![Value::int(b), Value::str("hot1")]);
            rows.push(vec![Value::int(b), Value::str("hot2")]);
            rows.push(vec![Value::int(b), Value::str(&format!("noise{b}"))]);
        }
        db.insert(Relation::from_rows(
            Schema::new("baskets", &["bid", "item"]),
            rows,
        ));
        let flock = QueryFlock::with_support(
            "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            20,
        )
        .unwrap();
        let plan = crate::plangen::single_param_plan(&flock, &db).unwrap();
        let run = execute_plan(&plan, &db, JoinOrderStrategy::Greedy).unwrap();
        assert!(!run.steps[0].reused);
        assert!(
            run.steps[1].reused,
            "ok_2 should reuse ok_1: {:?}",
            run.steps
        );
        assert!(!run.steps[2].reused);
        // And the result is still the right one.
        let direct = crate::eval::evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
        assert_eq!(run.result.tuples(), direct.tuples());
    }

    #[test]
    fn asymmetric_steps_not_reused() {
        let db = medical_db();
        let run = execute_plan(&fig5_plan(2), &db, JoinOrderStrategy::Greedy).unwrap();
        // okS (exhibits) and okM (treatments) are structurally different.
        assert!(run.steps.iter().all(|s| !s.reused), "{:?}", run.steps);
    }

    #[test]
    fn working_database_is_not_leaked() {
        let db = medical_db();
        execute_plan(&fig5_plan(2), &db, JoinOrderStrategy::Greedy).unwrap();
        assert!(!db.contains("okS"));
        assert!(!db.contains("okM"));
        assert!(!db.contains("ok"));
    }

    #[test]
    fn scored_execution_answers_subsumed_thresholds() {
        let db = medical_db();
        // Score once at the loosest threshold the cache will hold.
        let run = execute_plan_scored_with(
            &fig5_plan(2),
            &db,
            JoinOrderStrategy::Greedy,
            &ExecContext::unbounded(),
        )
        .unwrap();
        assert_eq!(run.scored.schema().columns().last().unwrap(), "agg");
        // Every subsumed (tighter) threshold is answered bitwise
        // identically to a cold run by re-filtering the scored rows.
        for t in [2, 3, 4] {
            let baseline = crate::FilterCondition::support(2);
            let request = crate::FilterCondition::support(t);
            assert!(baseline.subsumes(&request));
            let reused =
                crate::eval::flock_result_from_scored(&medical_flock(t), &run.scored, &request);
            let cold = execute_plan(&fig5_plan(t), &db, JoinOrderStrategy::Greedy).unwrap();
            assert_eq!(reused.tuples(), cold.result.tuples(), "threshold {t}");
            assert_eq!(reused.schema().columns(), cold.result.schema().columns());
        }
        // A looser threshold is NOT subsumed — the cache must refuse it.
        assert!(!crate::FilterCondition::support(2).subsumes(&crate::FilterCondition::support(1)));
    }

    #[test]
    fn wave_steps_split_the_thread_grant() {
        let ctx = ExecContext::unbounded()
            .with_max_rows(1_000)
            .with_threads(4);
        for (evaluated, threads) in [(0, 4), (1, 4), (2, 2), (3, 1), (5, 1)] {
            assert_eq!(
                wave_share(&ctx, evaluated).threads(),
                threads,
                "{evaluated}"
            );
        }
        // A share charges the run's governor, not a fresh one.
        let share = wave_share(&ctx, 2);
        share.charge_rows(600, 1).unwrap();
        assert!(share.charge_rows(600, 1).is_err());
        assert_eq!(ctx.stats().rows, share.stats().rows);
    }

    #[test]
    fn parallel_wave_scored_run_matches_one_thread() {
        // okS and okM form one wave of two evaluated steps; the scored
        // run (the server's entry point) is identical at any grant.
        let db = medical_db();
        let scored = |threads: usize| {
            execute_plan_scored_with(
                &fig5_plan(2),
                &db,
                JoinOrderStrategy::Greedy,
                &ExecContext::unbounded().with_threads(threads),
            )
            .unwrap()
            .scored
        };
        let one = scored(1);
        assert_eq!(one.len(), 1);
        for threads in [2, 3, 4] {
            assert_eq!(scored(threads), one, "{threads} threads");
        }
    }

    #[test]
    fn result_columns_named_after_params() {
        let db = medical_db();
        let run = execute_plan(&fig5_plan(2), &db, JoinOrderStrategy::Greedy).unwrap();
        assert_eq!(
            run.result.schema().columns(),
            &["m".to_string(), "s".to_string()]
        );
    }
}
