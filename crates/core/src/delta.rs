//! Delta-join maintenance of cached scored flock results (qf-delta).
//!
//! A [`FlockDelta`] is the flock-aware half of incremental maintenance:
//! it owns a counted-multiplicity [`GroupAggView`] over the flock's
//! *unfiltered* extended answer (every `(params…, head vars…)` tuple
//! with its Gupta-Mumick derivation count) and knows how to keep it
//! exact under an `append`/`retract` batch by evaluating only the
//! **delta joins** — never the full query.
//!
//! For a single-rule flock `h(…) :- a₁ AND … AND aₘ` and a batch that
//! turns relation `R` from `R_old` into `R_new` (`added = R_new ∖
//! R_old`, `removed = R_old ∖ R_new`), the standard telescoping
//! factorization gives the exact derivation delta: for the `k`-th
//! occurrence of `R` in the body, join with occurrences before `k`
//! reading `R_new`, occurrence `k` reading `added` (insertions) or
//! `removed` (deletions), and occurrences after `k` reading `R_old`.
//! Summed over `k`, insertions minus deletions is exactly
//! `J(R_new) − J(R_old)` as a bag of derivations; insertions are
//! applied first so multiplicities never go transiently negative.
//!
//! The maintained view is *unfiltered* (the engine's vacuous baseline):
//! its [`scored_relation`](FlockDelta::scored_relation) therefore
//! answers any same-direction threshold by re-filtering, exactly like a
//! scored run under [`crate::vacuous_filter`]. Eligibility is
//! deliberately narrow — see [`FlockDelta::maintainable`]; everything
//! else falls back to recomputation, and any error from
//! [`apply`](FlockDelta::apply) means the view must be discarded (the
//! caller recomputes), never served.

use std::collections::BTreeSet;

use qf_datalog::{Atom, Comparison, ConjunctiveQuery, Term};
use qf_engine::{AggFn, EngineError, GroupAggView, Resource};
use qf_storage::{Database, Relation, Schema, Tuple, Value};

use crate::compile::agg_fn;
use crate::error::{FlockError, Result};
use crate::flock::QueryFlock;

/// Budgets for building and maintaining one delta view. Both exist so
/// a pathological flock (huge unfiltered answer, explosive delta join)
/// degrades to "not maintained" instead of stalling ingest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaLimits {
    /// Cap on live distinct extended-answer tuples kept in the view.
    pub max_tuples: usize,
    /// Cap on tuple visits per build or per applied batch.
    pub max_work: u64,
}

impl Default for DeltaLimits {
    fn default() -> Self {
        DeltaLimits {
            max_tuples: 1 << 18,
            max_work: 1 << 24,
        }
    }
}

/// What one [`FlockDelta::apply`] did, for the caller's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaApply {
    /// Tuples rescanned by bounded MIN/MAX re-checks during the batch.
    pub recheck_tuples: u64,
}

/// Incrementally-maintained scored state for one cached flock.
#[derive(Clone, Debug)]
pub struct FlockDelta {
    rule: ConjunctiveQuery,
    n_params: usize,
    /// Output row layout: parameters sorted by name, then the head's
    /// argument terms in head order — the extended-answer column order
    /// the compiled plan produces.
    layout: Vec<Term>,
    /// Base relations the rule reads (maintenance triggers).
    preds: BTreeSet<String>,
    agg: AggFn,
    view: GroupAggView,
}

impl FlockDelta {
    /// Is this flock eligible for delta maintenance? Requires a single
    /// rule (no union — a union's per-rule bags would need separate
    /// views), no negated subgoals (deletions under negation can
    /// *create* derivations, which the counting scheme does not model),
    /// and at least one parameter (parameterless flocks hit the
    /// engine's empty-input aggregate special case instead of grouped
    /// aggregation). Comparisons are fine: they are evaluated during
    /// delta enumeration.
    pub fn maintainable(flock: &QueryFlock) -> bool {
        match flock.single_rule() {
            Some(rule) => rule.negated_atoms().next().is_none() && !rule.params().is_empty(),
            None => false,
        }
    }

    /// Build the view from scratch over `db` by enumerating every
    /// valuation of the rule body. This is the one full evaluation the
    /// view ever pays; afterwards only deltas are joined.
    pub fn build(flock: &QueryFlock, db: &Database, limits: &DeltaLimits) -> Result<FlockDelta> {
        if !Self::maintainable(flock) {
            return Err(delta_gate("flock is not delta-maintainable"));
        }
        let rule = flock.single_rule().expect("gate checked").clone();
        let params: Vec<_> = rule.params().into_iter().collect();
        let n_params = params.len();
        let mut layout: Vec<Term> = params.into_iter().map(Term::Param).collect();
        layout.extend(rule.head.args.iter().copied());
        let agg = agg_fn(flock.filter(), &rule, n_params)?;
        let view = GroupAggView::new(n_params, agg, limits.max_tuples)?;
        let preds: BTreeSet<String> = rule
            .positive_atoms()
            .map(|a| a.pred.as_str().to_string())
            .collect();
        let mut this = FlockDelta {
            rule,
            n_params,
            layout,
            preds,
            agg,
            view,
        };
        let atoms: Vec<&Atom> = this.rule.positive_atoms().collect();
        let sources: Vec<&[Tuple]> = atoms
            .iter()
            .map(|a| relation_tuples(db, a.pred.as_str()))
            .collect();
        let ctx = EnumCtx::new(&atoms, &sources, &this.rule, &this.layout, limits.max_work)?;
        let mut work = 0u64;
        let mut env = Vec::new();
        let agg = this.agg;
        let view = &mut this.view;
        enumerate(&ctx, 0, &mut env, &mut work, &mut |row| {
            check_weight(agg, &row)?;
            view.insert(&row)?;
            Ok(())
        })?;
        Ok(this)
    }

    /// Does an update to `rel` affect this view?
    pub fn touches(&self, rel: &str) -> bool {
        self.preds.contains(rel)
    }

    /// Maintain the view across one batch that changed `rel` from
    /// `old` to `new`. `db` is the post-batch catalog (every relation
    /// other than `rel` is read from it unchanged).
    ///
    /// On `Err` the view is in an undefined intermediate state and
    /// MUST be discarded — the caller falls back to recomputation.
    pub fn apply(
        &mut self,
        rel: &str,
        old: &Relation,
        new: &Relation,
        db: &Database,
        limits: &DeltaLimits,
    ) -> Result<DeltaApply> {
        if !self.touches(rel) {
            return Ok(DeltaApply::default());
        }
        let (added, removed) = diff_sorted(old.tuples(), new.tuples());
        if added.is_empty() && removed.is_empty() {
            return Ok(DeltaApply::default());
        }
        let atoms: Vec<&Atom> = self.rule.positive_atoms().collect();
        let occs: Vec<usize> = atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.pred.as_str() == rel)
            .map(|(i, _)| i)
            .collect();
        let mut work = 0u64;
        // Insertions first: a derivation both telescopes mention (one
        // with an added tuple, one with a removed tuple) must gain its
        // multiplicity before losing it.
        for delta in [&added, &removed] {
            let inserting = std::ptr::eq(delta, &added);
            if delta.is_empty() {
                continue;
            }
            for (k, &occ) in occs.iter().enumerate() {
                let sources: Vec<&[Tuple]> = atoms
                    .iter()
                    .enumerate()
                    .map(|(j, a)| {
                        if j == occ {
                            delta.as_slice()
                        } else if a.pred.as_str() == rel {
                            // Earlier occurrences read the new state,
                            // later ones the old — the telescoping sum.
                            let before = occs[..k].contains(&j);
                            if before {
                                new.tuples()
                            } else {
                                old.tuples()
                            }
                        } else {
                            relation_tuples(db, a.pred.as_str())
                        }
                    })
                    .collect();
                let ctx =
                    EnumCtx::new(&atoms, &sources, &self.rule, &self.layout, limits.max_work)?;
                let mut env = Vec::new();
                let agg = self.agg;
                let view = &mut self.view;
                enumerate(&ctx, 0, &mut env, &mut work, &mut |row| {
                    if inserting {
                        check_weight(agg, &row)?;
                        view.insert(&row)?;
                    } else {
                        view.remove(&row)?;
                    }
                    Ok(())
                })?;
            }
        }
        Ok(DeltaApply {
            recheck_tuples: self.view.take_recheck_tuples(),
        })
    }

    /// The full unfiltered scored relation the view currently holds —
    /// bitwise what `execute_plan_scored_with` under a
    /// [vacuous](crate::vacuous_filter) baseline would recompute.
    pub fn scored_relation(&self, param_names: &[String]) -> Result<Relation> {
        let mut columns: Vec<String> = param_names.to_vec();
        columns.push("agg".to_string());
        // Rows come out keyed by distinct group prefixes in BTreeMap
        // order, so they are already sorted and deduplicated.
        Ok(Relation::from_sorted_dedup(
            Schema::from_columns("scored_result", columns),
            self.view.scored()?,
        ))
    }

    /// Live distinct extended-answer tuples held (memory accounting).
    pub fn live_tuples(&self) -> usize {
        self.view.live_tuples()
    }

    /// Number of parameter (group-key) columns in the scored output.
    pub fn n_params(&self) -> usize {
        self.n_params
    }
}

/// Reject a negative weight entering a maintained SUM: a cold
/// evaluation would refuse it (the executor's §5 weight check), so the
/// maintained answer must refuse it too rather than silently diverge.
fn check_weight(agg: AggFn, row: &Tuple) -> Result<()> {
    if let AggFn::Sum(c) = agg {
        if let Some(v) = row.get(c).as_int() {
            if v < 0 {
                return Err(FlockError::NegativeWeight {
                    detail: format!("weight {v} entered a maintained SUM"),
                });
            }
        }
    }
    Ok(())
}

fn delta_gate(detail: &str) -> FlockError {
    FlockError::Engine(EngineError::DeltaInvariant {
        detail: detail.to_string(),
    })
}

/// A relation's tuples, with absent relations read as empty (the
/// catalog may simply not have loaded a subgoal's data yet).
fn relation_tuples<'a>(db: &'a Database, name: &str) -> &'a [Tuple] {
    match db.get(name) {
        Ok(rel) => rel.tuples(),
        Err(_) => &[],
    }
}

/// Set-difference both ways over sorted, deduplicated tuple slices:
/// `(new ∖ old, old ∖ new)`.
fn diff_sorted(old: &[Tuple], new: &[Tuple]) -> (Vec<Tuple>, Vec<Tuple>) {
    let (mut added, mut removed) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        match old[i].cmp(&new[j]) {
            std::cmp::Ordering::Less => {
                removed.push(old[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added.push(new[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    removed.extend_from_slice(&old[i..]);
    added.extend_from_slice(&new[j..]);
    (added, removed)
}

/// Immutable context for one nested-loop enumeration of the rule body.
struct EnumCtx<'a> {
    atoms: &'a [&'a Atom],
    sources: &'a [&'a [Tuple]],
    /// Comparisons checkable once atoms `0..=level` are bound, indexed
    /// by level — each comparison is tested exactly once, as early as
    /// its terms allow.
    cmp_at: Vec<Vec<&'a Comparison>>,
    layout: &'a [Term],
    max_work: u64,
}

impl<'a> EnumCtx<'a> {
    fn new(
        atoms: &'a [&'a Atom],
        sources: &'a [&'a [Tuple]],
        rule: &'a ConjunctiveQuery,
        layout: &'a [Term],
        max_work: u64,
    ) -> Result<EnumCtx<'a>> {
        let mut cmp_at: Vec<Vec<&Comparison>> = vec![Vec::new(); atoms.len()];
        for c in rule.comparisons() {
            let level = c
                .terms()
                .map(|t| {
                    atoms
                        .iter()
                        .position(|a| a.args.contains(&t))
                        .ok_or_else(|| {
                            delta_gate(&format!("comparison term {t} bound by no positive atom"))
                        })
                })
                .try_fold(0usize, |acc, l| l.map(|l| acc.max(l)))?;
            cmp_at[level].push(c);
        }
        Ok(EnumCtx {
            atoms,
            sources,
            cmp_at,
            layout,
            max_work,
        })
    }
}

/// A binding environment: term → value, scoped by truncation.
type Env = Vec<(Term, Value)>;

fn lookup(env: &Env, term: Term) -> Option<Value> {
    if let Term::Const(v) = term {
        return Some(v);
    }
    env.iter().find(|(t, _)| *t == term).map(|&(_, v)| v)
}

/// Recursive nested-loop join over the body atoms in written order,
/// feeding each complete valuation's extended-answer row to `sink`.
fn enumerate(
    ctx: &EnumCtx<'_>,
    level: usize,
    env: &mut Env,
    work: &mut u64,
    sink: &mut dyn FnMut(Tuple) -> Result<()>,
) -> Result<()> {
    if level == ctx.atoms.len() {
        let mut row = Vec::with_capacity(ctx.layout.len());
        for &t in ctx.layout {
            row.push(
                lookup(env, t).ok_or_else(|| {
                    delta_gate(&format!("output term {t} unbound by the rule body"))
                })?,
            );
        }
        return sink(Tuple::from(row));
    }
    let atom = ctx.atoms[level];
    let source = ctx.sources[level];
    'tuples: for tuple in source {
        *work += 1;
        if *work > ctx.max_work {
            return Err(FlockError::Engine(EngineError::ResourceExhausted {
                resource: Resource::Rows,
                limit: ctx.max_work,
                observed: *work,
            }));
        }
        let mark = env.len();
        for (i, &arg) in atom.args.iter().enumerate() {
            let v = tuple.get(i);
            match lookup(env, arg) {
                Some(bound) if bound == v => {}
                Some(_) => {
                    env.truncate(mark);
                    continue 'tuples;
                }
                None => env.push((arg, v)),
            }
        }
        let holds =
            ctx.cmp_at[level]
                .iter()
                .all(|c| match (lookup(env, c.lhs), lookup(env, c.rhs)) {
                    (Some(a), Some(b)) => c.op.eval(a.cmp(&b)),
                    _ => false,
                });
        if holds {
            enumerate(ctx, level + 1, env, work, sink)?;
        }
        env.truncate(mark);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::JoinOrderStrategy;
    use crate::eval::evaluate_direct;
    use crate::flock::QueryFlock;
    use crate::program::FlockProgram;
    use crate::shard::vacuous_filter;
    use qf_engine::ExecContext;

    fn parse(text: &str) -> QueryFlock {
        FlockProgram::parse(text).unwrap().flock().clone()
    }

    fn baskets(rows: &[(i64, i64)]) -> Database {
        let mut db = Database::new();
        db.insert(Relation::from_rows(
            Schema::new("baskets", &["bid", "item"]),
            rows.iter()
                .map(|&(b, i)| vec![Value::int(b), Value::int(i)])
                .collect(),
        ));
        db
    }

    /// Cold-recompute the unfiltered scored relation via the standard
    /// evaluation pipeline.
    fn cold_scored(flock: &QueryFlock, db: &Database) -> Relation {
        let vac = QueryFlock::new(flock.query().clone(), vacuous_filter(flock.filter())).unwrap();
        let plan = crate::plangen::direct_plan(&vac).unwrap();
        crate::exec::execute_plan_scored_with(
            &plan,
            db,
            JoinOrderStrategy::Greedy,
            &ExecContext::unbounded(),
        )
        .unwrap()
        .scored
    }

    const FREQ: &str = "QUERY:\nanswer(B) :- baskets(B,$1)\nFILTER:\nCOUNT(answer.B) >= 2";

    #[test]
    fn build_matches_cold_scored() {
        let flock = parse(FREQ);
        let db = baskets(&[(1, 10), (1, 20), (2, 10), (3, 10), (3, 30)]);
        let delta = FlockDelta::build(&flock, &db, &DeltaLimits::default()).unwrap();
        let scored = delta.scored_relation(&flock.param_names()).unwrap();
        let cold = cold_scored(&flock, &db);
        assert_eq!(scored.tuples(), cold.tuples());
        assert_eq!(scored.schema().columns(), cold.schema().columns());
    }

    #[test]
    fn append_and_retract_track_cold_recompute() {
        let flock = parse(FREQ);
        let mut db = baskets(&[(1, 10), (1, 20), (2, 10)]);
        let mut delta = FlockDelta::build(&flock, &db, &DeltaLimits::default()).unwrap();
        let limits = DeltaLimits::default();

        // Append two tuples (one a duplicate, which must be a no-op).
        let old = db.get("baskets").unwrap().clone();
        let new = Relation::from_rows(
            Schema::new("baskets", &["bid", "item"]),
            vec![
                vec![Value::int(1), Value::int(10)],
                vec![Value::int(1), Value::int(20)],
                vec![Value::int(2), Value::int(10)],
                vec![Value::int(2), Value::int(20)],
                vec![Value::int(4), Value::int(10)],
            ],
        );
        db.insert(new.clone());
        delta.apply("baskets", &old, &new, &db, &limits).unwrap();
        let scored = delta.scored_relation(&flock.param_names()).unwrap();
        assert_eq!(scored.tuples(), cold_scored(&flock, &db).tuples());

        // Retract one of them again.
        let old = new;
        let new = Relation::from_rows(
            Schema::new("baskets", &["bid", "item"]),
            vec![
                vec![Value::int(1), Value::int(10)],
                vec![Value::int(1), Value::int(20)],
                vec![Value::int(2), Value::int(10)],
                vec![Value::int(4), Value::int(10)],
            ],
        );
        db.insert(new.clone());
        delta.apply("baskets", &old, &new, &db, &limits).unwrap();
        let scored = delta.scored_relation(&flock.param_names()).unwrap();
        assert_eq!(scored.tuples(), cold_scored(&flock, &db).tuples());
    }

    #[test]
    fn self_join_rule_survives_simultaneous_add_and_remove() {
        // Two occurrences of the touched relation plus a comparison:
        // the telescoping must not double-count, and a derivation
        // created by the insert pass and killed by the remove pass must
        // cancel exactly.
        let flock = parse(
            "QUERY:\nanswer(I) :- baskets(B,I) AND baskets(B,$1) AND I < $1\nFILTER:\nCOUNT(answer.I) >= 1",
        );
        let mut db = baskets(&[(1, 10), (1, 20), (2, 10), (2, 30)]);
        let mut delta = FlockDelta::build(&flock, &db, &DeltaLimits::default()).unwrap();
        let limits = DeltaLimits::default();

        let old = db.get("baskets").unwrap().clone();
        let new = Relation::from_rows(
            Schema::new("baskets", &["bid", "item"]),
            vec![
                vec![Value::int(1), Value::int(10)],
                // (1,20) removed, (1,40) added: pairs (10,40) appear,
                // (10,20) disappear, all in one batch.
                vec![Value::int(1), Value::int(40)],
                vec![Value::int(2), Value::int(10)],
                vec![Value::int(2), Value::int(30)],
            ],
        );
        db.insert(new.clone());
        delta.apply("baskets", &old, &new, &db, &limits).unwrap();
        let scored = delta.scored_relation(&flock.param_names()).unwrap();
        assert_eq!(scored.tuples(), cold_scored(&flock, &db).tuples());

        // And the filtered answer equals a direct evaluation.
        let served = crate::eval::flock_result_from_scored(&flock, &scored, flock.filter());
        let direct = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
        assert_eq!(served.tuples(), direct.tuples());
    }

    #[test]
    fn union_and_negation_are_gated_out() {
        let union = parse(
            "QUERY:\nanswer(B) :- baskets(B,$1)\nanswer(B) :- other(B,$1)\nFILTER:\nCOUNT(answer.B) >= 1",
        );
        assert!(!FlockDelta::maintainable(&union));
        let negated = parse(
            "QUERY:\nanswer(B) :- baskets(B,$1) AND NOT banned(B,$1)\nFILTER:\nCOUNT(answer.B) >= 1",
        );
        assert!(!FlockDelta::maintainable(&negated));
        let db = baskets(&[(1, 10)]);
        assert!(FlockDelta::build(&union, &db, &DeltaLimits::default()).is_err());
    }

    #[test]
    fn negative_weight_under_sum_is_refused() {
        let flock = parse("QUERY:\nanswer(B,W) :- sales(B,W,$1)\nFILTER:\nSUM(answer.W) >= 0");
        let mut db = Database::new();
        db.insert(Relation::from_rows(
            Schema::new("sales", &["bid", "w", "region"]),
            vec![vec![Value::int(1), Value::int(5), Value::int(7)]],
        ));
        let mut delta = FlockDelta::build(&flock, &db, &DeltaLimits::default()).unwrap();
        let old = db.get("sales").unwrap().clone();
        let new = Relation::from_rows(
            Schema::new("sales", &["bid", "w", "region"]),
            vec![
                vec![Value::int(1), Value::int(5), Value::int(7)],
                vec![Value::int(2), Value::int(-3), Value::int(7)],
            ],
        );
        db.insert(new.clone());
        let err = delta
            .apply("sales", &old, &new, &db, &DeltaLimits::default())
            .unwrap_err();
        assert!(matches!(err, FlockError::NegativeWeight { .. }), "{err}");
    }

    #[test]
    fn work_budget_is_a_typed_resource_error() {
        let flock = parse(FREQ);
        let db = baskets(&[(1, 10), (1, 20), (2, 10), (3, 10), (3, 30)]);
        let tight = DeltaLimits {
            max_tuples: 1 << 18,
            max_work: 2,
        };
        let err = FlockDelta::build(&flock, &db, &tight).unwrap_err();
        assert!(
            matches!(
                err,
                FlockError::Engine(EngineError::ResourceExhausted { .. })
            ),
            "{err}"
        );
    }
}
