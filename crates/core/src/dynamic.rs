//! Dynamic selection of filter steps (§4.4, Figs. 8–9).
//!
//! "Instead of deciding on subqueries in advance, we let the sizes of
//! intermediate relations *after we compute them* determine whether or
//! not to apply a filter step." This evaluator:
//!
//! 1. chooses a join order for the rule's positive subgoals up front
//!    (the paper: "our idea is independent of how the join order is
//!    actually chosen");
//! 2. materializes the join pipeline one subgoal at a time, applying
//!    negations and comparisons as soon as they are bound;
//! 3. after each materialization, if the intermediate binds one or more
//!    parameters **and** every head variable, considers a `FILTER`:
//!    * **first sighting** of that parameter set — filter when the
//!      observed tuples-per-assignment ratio is *low* compared with the
//!      support threshold ("if low, then we expect a lot of
//!      value-assignments to be eliminated");
//!    * **seen before** — filter when the ratio is significantly lower
//!      than at the previous sighting ("significantly lower than it was
//!      at any previous step that computed a relation with the same set
//!      of parameters");
//! 4. always filters at the root, "simply because that filtering is
//!    necessary to find the answer to the query flock."
//!
//! Each decision is recorded in a [`DynamicDecision`] so experiments can
//! show *why* the dynamic strategy matched (or beat) the best static
//! plan without knowing the data regime in advance.

use qf_datalog::{Atom, Term};
use qf_engine::{
    execute_with, EngineError, ExecContext, Operand, PhysicalPlan, Predicate, Resource,
};
use qf_storage::{Database, FastMap, FastSet, HashIndex, Relation, Schema, Symbol, Tuple};

use crate::compile::{
    atom_order, build_leaf, filter_answer_scored, Binding, CompiledRule, JoinOrderStrategy,
};
use crate::error::{FlockError, Result};
use crate::eval::flock_result_from_scored;
use crate::filter::FilterAgg;
use crate::flock::QueryFlock;

/// Tuning knobs for the §4.4 decision procedure.
#[derive(Clone, Copy, Debug)]
pub struct DynamicConfig {
    /// First sighting of a parameter set: filter when
    /// `tuples/assignment < first_sight_factor × threshold`.
    pub first_sight_factor: f64,
    /// Repeat sighting: filter when the ratio has fallen below
    /// `improvement_factor ×` the ratio recorded at the last sighting.
    pub improvement_factor: f64,
    /// Join-order chooser used for step 1.
    pub strategy: JoinOrderStrategy,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            first_sight_factor: 1.0,
            improvement_factor: 0.5,
            strategy: JoinOrderStrategy::Greedy,
        }
    }
}

/// Why the evaluator did or did not filter at a decision point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionReason {
    /// New parameter set, ratio below the threshold test → filtered.
    FirstSightLow,
    /// New parameter set, ratio too high to bother → not filtered.
    FirstSightHigh,
    /// Seen before and the ratio dropped enough → filtered.
    ImprovedRatio,
    /// Seen before but not enough improvement → not filtered.
    NoImprovement,
    /// No parameters bound yet → cannot filter.
    NoParams,
    /// Some head variable unbound → a support count would be unsafe
    /// (mirrors §4.4: "the query with just this subgoal is not safe").
    HeadUnbound,
    /// The root: filtering is the answer itself → always filtered.
    FinalMandatory,
    /// The filter aggregate is not `COUNT`; intermediate pruning with
    /// partial answers is not attempted (only the final filter runs).
    NonCountFilter,
    /// A voluntary filter looked worthwhile but its probe blew the
    /// resource budget → skipped. Sound: a-priori pruning is optional,
    /// so only pruning power is lost. Recorded as a degradation in the
    /// governor's [`qf_engine::ExecStats`].
    BudgetExhausted,
}

/// One decision point in a dynamic evaluation.
#[derive(Clone, Debug)]
pub struct DynamicDecision {
    /// Label of the subgoal just joined (or "final").
    pub after_subgoal: String,
    /// The parameter set bound at this point, sorted.
    pub param_set: Vec<String>,
    /// Tuples in the intermediate.
    pub tuples: usize,
    /// Distinct parameter assignments in the intermediate.
    pub assignments: usize,
    /// `tuples / assignments` (0 when empty).
    pub ratio: f64,
    /// Whether a filter step was applied.
    pub filtered: bool,
    /// Why.
    pub reason: DecisionReason,
    /// Assignments surviving the filter, when one was applied.
    pub survivors: Option<usize>,
}

/// The outcome of a dynamic evaluation.
#[derive(Clone, Debug)]
pub struct DynamicReport {
    /// The flock result (parameter assignments, columns named after the
    /// parameters).
    pub result: Relation,
    /// Every decision point, in order.
    pub decisions: Vec<DynamicDecision>,
    /// Total tuples materialized across intermediates (work proxy).
    pub total_tuples: usize,
}

/// Evaluate a **single-rule** flock with dynamic filter selection.
///
/// Union flocks are rejected: sound pruning across a union needs the
/// union-of-subqueries construction (§3.4), which is a static-plan
/// notion; use [`crate::plangen`] for those.
pub fn evaluate_dynamic(
    flock: &QueryFlock,
    db: &Database,
    config: &DynamicConfig,
) -> Result<DynamicReport> {
    evaluate_dynamic_with(flock, db, config, &ExecContext::unbounded())
}

/// [`evaluate_dynamic`] under an execution governor. The join pipeline
/// and the mandatory final filter run with `ctx`'s budgets — exceeding
/// them is a hard error. Each *voluntary* FILTER probe runs under a
/// [`ExecContext::subcontext`] sized to the parent's remaining budget;
/// if the probe blows it, the candidate filter is skipped (recorded as
/// a [`DecisionReason::BudgetExhausted`] decision and a degradation in
/// the governor's stats) and evaluation continues unpruned — a-priori
/// pruning stays sound, only pruning power is lost.
pub fn evaluate_dynamic_with(
    flock: &QueryFlock,
    db: &Database,
    config: &DynamicConfig,
    ctx: &ExecContext,
) -> Result<DynamicReport> {
    let Some(rule) = flock.single_rule() else {
        return Err(FlockError::IllegalPlan {
            detail: "dynamic evaluation is defined for single-rule flocks".to_string(),
        });
    };
    let rule = rule.clone();
    let threshold = flock.filter().threshold;
    // Intermediate pruning keeps assignments whose partial support
    // reaches the threshold — an upper-bound argument that is only
    // sound for monotone COUNT filters (≥/>). Anything else gets the
    // mandatory final filter only.
    let count_filter =
        matches!(flock.filter().agg, FilterAgg::Count) && flock.filter().is_monotone();

    let positive: Vec<&Atom> = rule.positive_atoms().collect();
    if positive.is_empty() {
        return Err(FlockError::IllegalPlan {
            detail: "rule has no positive subgoals".to_string(),
        });
    }
    let order = atom_order(&positive, db, config.strategy);

    let params: Vec<Symbol> = rule.params().into_iter().collect();
    let head_terms: Vec<Term> = rule.head.args.clone();

    let mut pending_neg: Vec<&Atom> = rule.negated_atoms().collect();
    let mut pending_cmp: Vec<_> = rule.comparisons().collect();

    let mut binding = Binding::default();
    let mut current: Option<Relation> = None;
    let mut decisions = Vec::new();
    let mut total_tuples = 0usize;
    // Last observed ratio per parameter set.
    let mut seen_ratio: FastMap<Vec<Symbol>, f64> = FastMap::default();

    for &ai in &order {
        let atom = positive[ai];
        let leaf = build_leaf(atom);
        let leaf_rel = execute_with(&leaf.plan, db, ctx)?;

        current = Some(match current.take() {
            None => {
                for (col, term) in leaf.terms.iter().enumerate() {
                    if let Some(t) = term {
                        binding.bind(*t, col);
                    }
                }
                leaf_rel
            }
            Some(cur) => {
                let mut keys = Vec::new();
                let width = cur.schema().arity();
                for (col, term) in leaf.terms.iter().enumerate() {
                    if let Some(t) = term {
                        if let Some(lc) = binding.col_of(*t) {
                            keys.push((lc, col));
                        }
                    }
                }
                let joined = join_materialized(&cur, &leaf_rel, &keys, ctx)?;
                for (col, term) in leaf.terms.iter().enumerate() {
                    if let Some(t) = term {
                        binding.bind(*t, width + col);
                    }
                }
                joined
            }
        });

        // Apply any now-bound comparisons and negations.
        let cur = current.take().unwrap();
        let cur =
            apply_pending_materialized(cur, &binding, db, &mut pending_neg, &mut pending_cmp, ctx)?;
        total_tuples += cur.len();

        // Decision point.
        let bound_params: Vec<Symbol> = params
            .iter()
            .copied()
            .filter(|&p| binding.col_of(Term::Param(p)).is_some())
            .collect();
        let head_bound = head_terms.iter().all(|&t| binding.col_of(t).is_some());

        let decision_label = atom.to_string();
        if bound_params.is_empty() {
            decisions.push(decision_skip(
                &decision_label,
                &[],
                &cur,
                DecisionReason::NoParams,
            ));
            current = Some(cur);
            continue;
        }
        if !head_bound {
            decisions.push(decision_skip(
                &decision_label,
                &bound_params,
                &cur,
                DecisionReason::HeadUnbound,
            ));
            current = Some(cur);
            continue;
        }
        if !count_filter {
            decisions.push(decision_skip(
                &decision_label,
                &bound_params,
                &cur,
                DecisionReason::NonCountFilter,
            ));
            current = Some(cur);
            continue;
        }

        let param_cols: Vec<usize> = bound_params
            .iter()
            .map(|&p| binding.col_of(Term::Param(p)).unwrap())
            .collect();
        let head_cols: Vec<usize> = head_terms
            .iter()
            .map(|&t| binding.col_of(t).unwrap())
            .collect();
        let assignments = distinct_projection(&cur, &param_cols);
        let ratio = if assignments == 0 {
            0.0
        } else {
            cur.len() as f64 / assignments as f64
        };

        let (should_filter, reason) = match seen_ratio.get(&bound_params) {
            None => {
                if ratio < config.first_sight_factor * threshold as f64 {
                    (true, DecisionReason::FirstSightLow)
                } else {
                    (false, DecisionReason::FirstSightHigh)
                }
            }
            Some(&prev) => {
                if ratio < config.improvement_factor * prev {
                    (true, DecisionReason::ImprovedRatio)
                } else {
                    (false, DecisionReason::NoImprovement)
                }
            }
        };

        if should_filter {
            // The probe is voluntary side-work: give it its own budget
            // (whatever the parent could still afford) so a blown probe
            // degrades to "skip this filter" instead of failing the
            // whole evaluation. Deadline/cancellation still propagate
            // as hard errors — time is global, rows/memory are not.
            let probe = ctx.subcontext(ctx.remaining_rows(), ctx.remaining_bytes());
            match prune_by_support(&cur, &param_cols, &head_cols, threshold, &probe) {
                Ok((pruned, survivors)) => {
                    total_tuples += pruned.len();
                    let new_assignments = survivors;
                    let new_ratio = if new_assignments == 0 {
                        0.0
                    } else {
                        pruned.len() as f64 / new_assignments as f64
                    };
                    seen_ratio.insert(bound_params.clone(), new_ratio);
                    decisions.push(DynamicDecision {
                        after_subgoal: decision_label,
                        param_set: bound_params.iter().map(|p| p.to_string()).collect(),
                        tuples: cur.len(),
                        assignments,
                        ratio,
                        filtered: true,
                        reason,
                        survivors: Some(survivors),
                    });
                    current = Some(pruned);
                }
                Err(EngineError::ResourceExhausted {
                    resource: Resource::Rows | Resource::Memory,
                    ..
                }) => {
                    ctx.record_degradation(
                        "dynamic-filter",
                        format!(
                            "skipped voluntary FILTER after `{decision_label}`: \
                             probe budget exhausted (pruning power lost, result unaffected)"
                        ),
                    );
                    seen_ratio.insert(bound_params.clone(), ratio);
                    decisions.push(DynamicDecision {
                        after_subgoal: decision_label,
                        param_set: bound_params.iter().map(|p| p.to_string()).collect(),
                        tuples: cur.len(),
                        assignments,
                        ratio,
                        filtered: false,
                        reason: DecisionReason::BudgetExhausted,
                        survivors: None,
                    });
                    current = Some(cur);
                }
                Err(e) => return Err(e.into()),
            }
        } else {
            seen_ratio.insert(bound_params.clone(), ratio);
            decisions.push(DynamicDecision {
                after_subgoal: decision_label,
                param_set: bound_params.iter().map(|p| p.to_string()).collect(),
                tuples: cur.len(),
                assignments,
                ratio,
                filtered: false,
                reason,
                survivors: None,
            });
            current = Some(cur);
        }
    }

    let cur = current.expect("at least one subgoal");
    debug_assert!(pending_neg.is_empty() && pending_cmp.is_empty());

    // Mandatory final filter (the flock's own condition).
    let param_cols: Vec<usize> = params
        .iter()
        .map(|&p| binding.col_of(Term::Param(p)).unwrap())
        .collect();
    let head_cols: Vec<usize> = head_terms
        .iter()
        .map(|&t| binding.col_of(t).unwrap())
        .collect();
    let result = final_filter(flock, &cur, &param_cols, &head_cols, ctx)?;
    decisions.push(DynamicDecision {
        after_subgoal: "final".to_string(),
        param_set: params.iter().map(|p| p.to_string()).collect(),
        tuples: cur.len(),
        assignments: distinct_projection(&cur, &param_cols),
        ratio: 0.0,
        filtered: true,
        reason: DecisionReason::FinalMandatory,
        survivors: Some(result.len()),
    });

    Ok(DynamicReport {
        result,
        decisions,
        total_tuples,
    })
}

fn decision_skip(
    label: &str,
    params: &[Symbol],
    cur: &Relation,
    reason: DecisionReason,
) -> DynamicDecision {
    DynamicDecision {
        after_subgoal: label.to_string(),
        param_set: params.iter().map(|p| p.to_string()).collect(),
        tuples: cur.len(),
        assignments: 0,
        ratio: 0.0,
        filtered: false,
        reason,
        survivors: None,
    }
}

/// Join of two materialized relations (output: left ++ right),
/// governed: every output tuple is charged to `ctx` *before* it is
/// materialized, so a budgeted evaluation cannot blow up here.
/// Delegates to [`qf_engine::join_auto_with`], which picks the sorted
/// merge on leading-key layouts and otherwise builds the hash table on
/// the smaller side with a parallel probe.
fn join_materialized(
    left: &Relation,
    right: &Relation,
    keys: &[(usize, usize)],
    ctx: &ExecContext,
) -> qf_engine::Result<Relation> {
    ctx.enter("DynJoin")?;
    Ok(qf_engine::join_auto_with(left, right, keys, ctx)?.renamed("dyn_join"))
}

/// Apply bound comparisons (selection) and negations (antijoin) to a
/// materialized intermediate.
fn apply_pending_materialized<'a>(
    mut cur: Relation,
    binding: &Binding,
    db: &Database,
    pending_neg: &mut Vec<&'a Atom>,
    pending_cmp: &mut Vec<&'a qf_datalog::Comparison>,
    ctx: &ExecContext,
) -> Result<Relation> {
    let mut i = 0;
    while i < pending_cmp.len() {
        let c = pending_cmp[i];
        let terms: Vec<Term> = c.terms().collect();
        if binding.binds_all(&terms) {
            let to_operand = |t: Term| match t {
                Term::Const(v) => Operand::Const(v),
                open => Operand::Col(binding.col_of(open).unwrap()),
            };
            let pred = Predicate {
                lhs: to_operand(c.lhs),
                op: c.op,
                rhs: to_operand(c.rhs),
            };
            let tuples: Vec<Tuple> = cur.iter().filter(|t| pred.eval(t)).cloned().collect();
            cur = Relation::from_sorted_dedup(cur.schema().clone(), tuples);
            pending_cmp.swap_remove(i);
        } else {
            i += 1;
        }
    }
    let mut i = 0;
    while i < pending_neg.len() {
        let atom = pending_neg[i];
        let open: Vec<Term> = atom
            .args
            .iter()
            .copied()
            .filter(|t| !t.is_const())
            .collect();
        if binding.binds_all(&open) {
            let leaf = build_leaf(atom);
            let leaf_rel = execute_with(&leaf.plan, db, ctx)?;
            let mut lk = Vec::new();
            let mut rk = Vec::new();
            for (col, term) in leaf.terms.iter().enumerate() {
                if let Some(t) = term {
                    lk.push(binding.col_of(*t).unwrap());
                    rk.push(col);
                }
            }
            let idx = HashIndex::build(&leaf_rel, &rk);
            let tuples: Vec<Tuple> = cur
                .iter()
                .filter(|t| !idx.contains_key(&t.project(&lk)))
                .cloned()
                .collect();
            cur = Relation::from_sorted_dedup(cur.schema().clone(), tuples);
            pending_neg.swap_remove(i);
        } else {
            i += 1;
        }
    }
    Ok(cur)
}

/// Count distinct projections of `rel` onto `cols`.
fn distinct_projection(rel: &Relation, cols: &[usize]) -> usize {
    let mut seen: FastSet<Tuple> = FastSet::default();
    for t in rel.iter() {
        seen.insert(t.project(cols));
    }
    seen.len()
}

/// Keep only tuples whose parameter assignment has at least `threshold`
/// distinct head-tuple combinations. Returns the pruned relation and
/// the number of surviving assignments. Governed: the pair set and the
/// pruned output are charged against `ctx` (callers run this under a
/// probe subcontext so exhaustion degrades instead of failing).
fn prune_by_support(
    cur: &Relation,
    param_cols: &[usize],
    head_cols: &[usize],
    threshold: i64,
    ctx: &ExecContext,
) -> qf_engine::Result<(Relation, usize)> {
    ctx.enter("DynPrune")?;
    // Distinct (params, head) pairs → count per params.
    let mut proj: Vec<usize> = param_cols.to_vec();
    proj.extend_from_slice(head_cols);
    let mut pairs: FastSet<Tuple> = FastSet::default();
    for t in cur.iter() {
        ctx.charge_row(proj.len())?;
        pairs.insert(t.project(&proj));
    }
    let key_len = param_cols.len();
    let mut counts: FastMap<Tuple, i64> = FastMap::default();
    for p in &pairs {
        ctx.tick()?;
        let key = p.project(&(0..key_len).collect::<Vec<_>>());
        *counts.entry(key).or_insert(0) += 1;
    }
    let survivors: FastSet<Tuple> = counts
        .into_iter()
        .filter(|(_, c)| *c >= threshold)
        .map(|(k, _)| k)
        .collect();
    let width = cur.schema().arity();
    let mut tuples: Vec<Tuple> = Vec::new();
    for t in cur.iter() {
        ctx.tick()?;
        if survivors.contains(&t.project(param_cols)) {
            ctx.charge_row(width)?;
            tuples.push(t.clone());
        }
    }
    let n = survivors.len();
    Ok((Relation::from_sorted_dedup(cur.schema().clone(), tuples), n))
}

/// The mandatory root filter, honouring the flock's aggregate.
fn final_filter(
    flock: &QueryFlock,
    cur: &Relation,
    param_cols: &[usize],
    head_cols: &[usize],
    ctx: &ExecContext,
) -> Result<Relation> {
    // Project to distinct (params, head), then aggregate by params.
    let mut proj: Vec<usize> = param_cols.to_vec();
    proj.extend_from_slice(head_cols);
    let mut tmp = Database::new();
    const TMP: &str = "__dyn_answer";
    let projected: Vec<Tuple> = cur.iter().map(|t| t.project(&proj)).collect();
    let names: Vec<String> = (0..proj.len()).map(|i| format!("c{i}")).collect();
    tmp.insert(Relation::from_tuples(
        Schema::from_columns(TMP, names),
        projected,
    ));

    let answer = CompiledRule {
        plan: PhysicalPlan::scan(TMP),
        n_params: param_cols.len(),
        n_head: head_cols.len(),
    };
    let plan = filter_answer_scored(&answer, &flock.query().rules()[0], flock.filter())?;
    let scored = execute_with(&plan, &tmp, ctx)?;
    Ok(flock_result_from_scored(flock, &scored, flock.filter()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_direct;
    use qf_storage::Value;

    /// Skewed basket data: hot pair in every basket, singleton noise.
    fn basket_db() -> Database {
        let mut rows = Vec::new();
        for b in 0..40i64 {
            rows.push(vec![Value::int(b), Value::str("hot1")]);
            rows.push(vec![Value::int(b), Value::str("hot2")]);
            for j in 0..5i64 {
                rows.push(vec![Value::int(b), Value::str(&format!("noise_{b}_{j}"))]);
            }
        }
        let mut db = Database::new();
        db.insert(Relation::from_rows(
            Schema::new("baskets", &["bid", "item"]),
            rows,
        ));
        db
    }

    fn basket_flock(threshold: i64) -> QueryFlock {
        QueryFlock::with_support(
            "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            threshold,
        )
        .unwrap()
    }

    #[test]
    fn dynamic_matches_direct() {
        let db = basket_db();
        for threshold in [2, 20, 40] {
            let flock = basket_flock(threshold);
            let report = evaluate_dynamic(&flock, &db, &DynamicConfig::default()).unwrap();
            let direct = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
            assert_eq!(
                report.result.tuples(),
                direct.tuples(),
                "threshold {threshold}"
            );
        }
    }

    #[test]
    fn skewed_data_triggers_early_filter() {
        let db = basket_db();
        // Items average 40*7/282 ≈ 1 tuple per item value, far below
        // threshold 20 → the first decision must filter.
        let report = evaluate_dynamic(&basket_flock(20), &db, &DynamicConfig::default()).unwrap();
        let first_filterable = report
            .decisions
            .iter()
            .find(|d| {
                !matches!(
                    d.reason,
                    DecisionReason::NoParams | DecisionReason::HeadUnbound
                )
            })
            .expect("some decision");
        assert!(first_filterable.filtered, "{first_filterable:?}");
        assert_eq!(first_filterable.reason, DecisionReason::FirstSightLow);
        // And the final decision is always a filter.
        assert_eq!(
            report.decisions.last().unwrap().reason,
            DecisionReason::FinalMandatory
        );
    }

    #[test]
    fn dense_data_defers_filtering() {
        // Every item in ≥ 30 baskets: ratio ≈ 30 ≥ threshold 3 → the
        // evaluator should NOT filter at first sight of a parameter.
        let mut rows = Vec::new();
        for b in 0..30i64 {
            for i in 0..4i64 {
                rows.push(vec![Value::int(b), Value::str(&format!("common{i}"))]);
            }
        }
        let mut db = Database::new();
        db.insert(Relation::from_rows(
            Schema::new("baskets", &["bid", "item"]),
            rows,
        ));
        let flock = basket_flock(3);
        let report = evaluate_dynamic(&flock, &db, &DynamicConfig::default()).unwrap();
        let first = report
            .decisions
            .iter()
            .find(|d| d.reason == DecisionReason::FirstSightHigh);
        assert!(first.is_some(), "decisions: {:?}", report.decisions);
        // Results still correct.
        let direct = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
        assert_eq!(report.result.tuples(), direct.tuples());
    }

    #[test]
    fn medical_dynamic_with_negation() {
        let mut db = Database::new();
        let mut diagnoses = Vec::new();
        let mut exhibits = Vec::new();
        let mut treatments = Vec::new();
        for p in 1..=3i64 {
            diagnoses.push(vec![Value::int(p), Value::str("flu")]);
            exhibits.push(vec![Value::int(p), Value::str("headache")]);
            treatments.push(vec![Value::int(p), Value::str("zorix")]);
        }
        for p in 4..=5i64 {
            diagnoses.push(vec![Value::int(p), Value::str("flu")]);
            exhibits.push(vec![Value::int(p), Value::str("fever")]);
            treatments.push(vec![Value::int(p), Value::str("zorix")]);
        }
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
        let flock = QueryFlock::with_support(
            "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND \
             diagnoses(P,D) AND NOT causes(D,$s)",
            2,
        )
        .unwrap();
        let report = evaluate_dynamic(&flock, &db, &DynamicConfig::default()).unwrap();
        let direct = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
        assert_eq!(report.result.tuples(), direct.tuples());
        assert_eq!(report.result.len(), 1);
    }

    #[test]
    fn repeat_sightings_use_improvement_rule() {
        // Two atoms bind the same parameter set {$1}: baskets(B,$1) and
        // stock($1,Q). With a high first-sight ratio on the first leaf
        // (skip) and a much lower ratio after the join, the second
        // decision must take the ImprovedRatio/NoImprovement branch.
        let mut db = Database::new();
        let mut rows = Vec::new();
        // 4 items, each in 25 baskets: first-sight ratio 25 ≥ threshold 5.
        for b in 0..25i64 {
            for i in 0..4i64 {
                rows.push(vec![Value::int(b), Value::str(&format!("item{i}"))]);
            }
        }
        db.insert(Relation::from_rows(
            Schema::new("baskets", &["bid", "item"]),
            rows,
        ));
        // stock(Item, Quality): many quality rows for item0, one for the
        // others — the join collapses the per-item ratio for most items.
        let mut stock = Vec::new();
        for q in 0..30i64 {
            stock.push(vec![Value::str("item0"), Value::int(q)]);
        }
        for i in 1..4i64 {
            stock.push(vec![Value::str(&format!("item{i}")), Value::int(0)]);
        }
        db.insert(Relation::from_rows(
            Schema::new("stock", &["item", "q"]),
            stock,
        ));

        let flock =
            QueryFlock::with_support("answer(B) :- baskets(B,$1) AND stock($1,Q)", 5).unwrap();
        let config = DynamicConfig {
            strategy: JoinOrderStrategy::AsWritten,
            ..DynamicConfig::default()
        };
        let report = evaluate_dynamic(&flock, &db, &config).unwrap();
        let repeat = report
            .decisions
            .iter()
            .find(|d| {
                matches!(
                    d.reason,
                    DecisionReason::ImprovedRatio | DecisionReason::NoImprovement
                )
            })
            .expect("second sighting of {$1} must use the improvement rule");
        assert_eq!(repeat.param_set, vec!["1".to_string()]);
        // And the answer is still right.
        let direct = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
        assert_eq!(report.result.tuples(), direct.tuples());
    }

    #[test]
    fn union_flocks_rejected() {
        let flock = QueryFlock::parse(
            "QUERY:
             answer(D) :- inTitle(D,$1) AND inTitle(D,$2) AND $1 < $2
             answer(A) :- inAnchor(A,$1) AND inAnchor(A,$2) AND $1 < $2
             FILTER: COUNT(answer(*)) >= 2",
        )
        .unwrap();
        let db = Database::new();
        assert!(matches!(
            evaluate_dynamic(&flock, &db, &DynamicConfig::default()),
            Err(FlockError::IllegalPlan { .. })
        ));
    }

    #[test]
    fn weighted_flock_final_filter_only() {
        let mut db = basket_db();
        let rows: Vec<Vec<Value>> = (0..40i64)
            .map(|b| vec![Value::int(b), Value::int(1)])
            .collect();
        db.insert(Relation::from_rows(
            Schema::new("importance", &["bid", "w"]),
            rows,
        ));
        let flock = QueryFlock::parse(
            "QUERY:
             answer(B,W) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2 AND importance(B,W)
             FILTER: SUM(answer.W) >= 40",
        )
        .unwrap();
        let report = evaluate_dynamic(&flock, &db, &DynamicConfig::default()).unwrap();
        assert!(report
            .decisions
            .iter()
            .any(|d| d.reason == DecisionReason::NonCountFilter
                || d.reason == DecisionReason::HeadUnbound));
        let direct = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
        assert_eq!(report.result.tuples(), direct.tuples());
        assert_eq!(report.result.len(), 1); // only (hot1, hot2) sums to 40.
    }
}
