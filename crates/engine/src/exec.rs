//! Physical plan execution.
//!
//! [`execute`] evaluates a [`PhysicalPlan`] against a [`Database`] and
//! returns a set-semantics [`Relation`]. Column names are propagated
//! through the tree so results stay self-describing (joins concatenate
//! names, aggregates append the aggregate's name), but all plan-level
//! references are positional.
//!
//! [`execute_with`] is the governed variant: every operator loop checks
//! the supplied [`ExecContext`] cooperatively, charging each tuple it
//! materializes *before* storing it, so a budgeted execution fails with
//! [`EngineError::ResourceExhausted`] / [`EngineError::Cancelled`]
//! instead of exhausting the machine. `execute` is simply
//! `execute_with` under an unbounded context.
//!
//! Row-at-a-time operators (select, project, join probe, anti-join
//! probe, group-by accumulation) are partition-parallel: the input's
//! sorted tuple slice is split into contiguous chunks processed on
//! scoped worker threads (see [`crate::parallel`]), up to
//! [`ExecContext::threads`] of them. Chunk outputs are reassembled in
//! chunk order, so results are identical to single-thread execution.
//! Select, anti-join, both joins and aggregate keep their input's
//! sorted order and skip the sort; project and union sort their output.

use std::ops::Range;

use qf_storage::{Database, HashIndex, Relation, Schema, Tuple, Value};

use crate::error::{EngineError, Result};
use crate::expr::Predicate;
use crate::governor::ExecContext;
use crate::merge;
use crate::parallel;
use crate::plan::{AggFn, PhysicalPlan};

/// Evaluate `plan` against `db` with no resource limits.
pub fn execute(plan: &PhysicalPlan, db: &Database) -> Result<Relation> {
    execute_with(plan, db, &ExecContext::unbounded())
}

/// Evaluate `plan` against `db` under the governance of `ctx`.
///
/// When `ctx` carries a spill directory ([`ExecContext::with_spill`]),
/// execution routes through the out-of-core path ([`crate::spill`]):
/// operators that would trip the memory budget spill to disk and
/// continue instead of failing.
pub fn execute_with(plan: &PhysicalPlan, db: &Database, ctx: &ExecContext) -> Result<Relation> {
    if ctx.spill_enabled() {
        // Corruption-recovery loop: a spill run whose frame checksum
        // fails verification is deleted state we can regenerate — the
        // inputs are still in the catalog — so recompute the pipeline
        // (bounded) rather than failing the query over a flipped bit.
        // Live-byte accounting from the abandoned attempt is left
        // charged (shared counters; a sibling wave step may own some),
        // which is conservative: the retry spills earlier, never later.
        let mut attempts = 0u32;
        loop {
            match crate::spill::execute_spill(plan, db, ctx).and_then(|o| o.materialize(ctx)) {
                Err(e) if e.is_corruption() && attempts < 2 => {
                    attempts += 1;
                    ctx.note_corruption_recovery();
                    ctx.record_degradation(
                        "spill-corruption",
                        format!("{e}; recomputing pipeline (attempt {attempts})"),
                    );
                }
                other => return other,
            }
        }
    }
    match plan {
        PhysicalPlan::Scan { relation } => {
            ctx.enter("Scan")?;
            let rel = db.get(relation)?;
            // A scan materializes a working copy; charge it like any
            // other operator output, before cloning.
            ctx.charge_rows(rel.len() as u64, rel.schema().arity())?;
            Ok(rel.clone())
        }

        PhysicalPlan::Select { input, predicates } => {
            ctx.enter("Select")?;
            if let PhysicalPlan::Aggregate { input, group, agg } = input.as_ref() {
                // A FILTER step's threshold: groups that fail it are
                // dropped before their rows are built.
                return execute_aggregate(input, group, *agg, predicates, db, ctx);
            }
            let rel = execute_with(input, db, ctx)?;
            check_predicates(predicates, rel.schema().arity(), "Select")?;
            let width = rel.schema().arity();
            let workers = parallel::workers_for(rel.len(), ctx.threads());
            ctx.note_workers(workers);
            let chunks =
                parallel::par_chunks(rel.tuples(), workers, |chunk| -> Result<Vec<Tuple>> {
                    let mut keep: Vec<Tuple> = Vec::new();
                    for t in chunk {
                        ctx.tick()?;
                        if predicates.iter().all(|p| p.eval(t)) {
                            ctx.charge_row(width)?;
                            keep.push(t.clone());
                        }
                    }
                    Ok(keep)
                })?;
            // Filtering contiguous chunks of a sorted set and
            // concatenating them in chunk order preserves sortedness
            // and dedup.
            let tuples: Vec<Tuple> = chunks.into_iter().flatten().collect();
            Ok(Relation::from_sorted_dedup(rel.schema().clone(), tuples))
        }

        PhysicalPlan::Project { input, cols } => {
            ctx.enter("Project")?;
            let rel = execute_with(input, db, ctx)?;
            check_columns(cols, rel.schema().arity(), "Project")?;
            let names: Vec<String> = cols
                .iter()
                .map(|&c| rel.schema().columns()[c].clone())
                .collect();
            let schema = Schema::from_columns("project", names);
            let workers = parallel::workers_for(rel.len(), ctx.threads());
            ctx.note_workers(workers);
            let chunks =
                parallel::par_chunks(rel.tuples(), workers, |chunk| -> Result<Vec<Tuple>> {
                    let mut out: Vec<Tuple> = Vec::with_capacity(chunk.len());
                    for t in chunk {
                        ctx.charge_row(cols.len())?;
                        out.push(t.project(cols));
                    }
                    Ok(out)
                })?;
            let tuples: Vec<Tuple> = chunks.into_iter().flatten().collect();
            Ok(Relation::from_tuples(schema, tuples))
        }

        PhysicalPlan::HashJoin { left, right, keys } => {
            ctx.enter("HashJoin")?;
            let l = execute_with(left, db, ctx)?;
            let r = execute_with(right, db, ctx)?;
            check_join_keys(keys, l.schema().arity(), r.schema().arity(), "HashJoin")?;
            // Merge fast path when the keys are the leading columns of
            // both (sorted) inputs; otherwise hash join with the build
            // table on the smaller side and a parallel probe.
            merge::join_auto_with(&l, &r, keys, ctx)
        }

        PhysicalPlan::AntiJoin { left, right, keys } => {
            ctx.enter("AntiJoin")?;
            let l = execute_with(left, db, ctx)?;
            let r = execute_with(right, db, ctx)?;
            check_join_keys(keys, l.schema().arity(), r.schema().arity(), "AntiJoin")?;
            let (lk, rk): (Vec<usize>, Vec<usize>) = keys.iter().copied().unzip();
            // The right side is the filter, so it must be the build
            // side regardless of size.
            let idx = HashIndex::build(&r, &rk);
            let width = l.schema().arity();
            let workers = parallel::workers_for(l.len(), ctx.threads());
            ctx.note_workers(workers);
            let chunks =
                parallel::par_chunks(l.tuples(), workers, |chunk| -> Result<Vec<Tuple>> {
                    let mut keep: Vec<Tuple> = Vec::new();
                    for lt in chunk {
                        ctx.tick()?;
                        if !idx.contains_key(&lt.project(&lk)) {
                            ctx.charge_row(width)?;
                            keep.push(lt.clone());
                        }
                    }
                    Ok(keep)
                })?;
            let tuples: Vec<Tuple> = chunks.into_iter().flatten().collect();
            Ok(Relation::from_sorted_dedup(l.schema().clone(), tuples))
        }

        PhysicalPlan::Union { inputs } => {
            ctx.enter("Union")?;
            if inputs.is_empty() {
                // A union of zero queries is the empty nullary relation.
                return Ok(Relation::empty(Schema::new("union", &[])));
            }
            let first = execute_with(&inputs[0], db, ctx)?;
            let arity = first.schema().arity();
            let schema = first.schema().renamed("union");
            let mut tuples: Vec<Tuple> = Vec::new();
            for t in first.iter() {
                ctx.charge_row(arity)?;
                tuples.push(t.clone());
            }
            for input in &inputs[1..] {
                let rel = execute_with(input, db, ctx)?;
                if rel.schema().arity() != arity {
                    return Err(EngineError::UnionArityMismatch {
                        first: arity,
                        other: rel.schema().arity(),
                    });
                }
                for t in rel.iter() {
                    ctx.charge_row(arity)?;
                    tuples.push(t.clone());
                }
            }
            Ok(Relation::from_tuples(schema, tuples))
        }

        PhysicalPlan::Aggregate { input, group, agg } => {
            execute_aggregate(input, group, *agg, &[], db, ctx)
        }
    }
}

/// The `Aggregate` operator, with the predicates of a `Select` directly
/// above it (empty if none) applied to each group's output row.
fn execute_aggregate(
    input: &PhysicalPlan,
    group: &[usize],
    agg: AggFn,
    having: &[Predicate],
    db: &Database,
    ctx: &ExecContext,
) -> Result<Relation> {
    ctx.enter("Aggregate")?;
    let rel = execute_with(input, db, ctx)?;
    let arity = rel.schema().arity();
    check_columns(group, arity, "Aggregate")?;
    if let Some(c) = agg.input_column() {
        check_columns(&[c], arity, "Aggregate")?;
    }
    check_predicates(having, group.len() + 1, "Select")?;
    aggregate(&rel, group, agg, having, ctx)
}

/// Grouped aggregation, keeping the output rows that pass every
/// predicate of `having` (empty keeps every group). Output schema:
/// group columns then the aggregate column (named after the function).
///
/// Relations are sorted, so when `group` is a leading-column prefix —
/// a FILTER step groups by its parameters, which lead by construction —
/// every group is one contiguous run of the input. The aggregate folds
/// each run in turn and emits rows already in canonical order. Any
/// other grouping first reorders each tuple group-columns-first and
/// sorts. Parallel workers take chunks cut at run boundaries, so no
/// group spans two workers and their outputs just concatenate.
pub(crate) fn aggregate(
    rel: &Relation,
    group: &[usize],
    agg: AggFn,
    having: &[Predicate],
    ctx: &ExecContext,
) -> Result<Relation> {
    let mut names: Vec<String> = group
        .iter()
        .map(|&c| rel.schema().columns()[c].clone())
        .collect();
    names.push(agg.name().to_lowercase());
    let schema = Schema::from_columns("aggregate", names);
    let width = group.len() + 1;

    // SQL/paper semantics: a *global* aggregate (empty group list) over
    // empty input still yields one row. COUNT and SUM have identity 0
    // (the paper's support filter compares `COUNT(answer.X) >= s`, and
    // an unsupported candidate must see count 0, not a vanished row);
    // MIN/MAX have no identity in a NULL-free value domain, so an empty
    // global MIN/MAX yields the empty relation.
    if group.is_empty() && rel.is_empty() {
        let zero = [Value::int(0)];
        return match agg {
            AggFn::Count | AggFn::Sum(_) if having.iter().all(|p| p.eval_row(&zero)) => {
                ctx.charge_row(width)?;
                Ok(Relation::from_sorted_dedup(schema, vec![Tuple::from(zero)]))
            }
            _ => Ok(Relation::empty(schema)),
        };
    }

    let k = group.len();
    let reordered;
    let (tuples, agg) = if group.iter().enumerate().all(|(i, &c)| c == i) {
        (rel.tuples(), agg)
    } else {
        // Group columns first, then every input column, so input column
        // `c` moves to `k + c`.
        let arity = rel.schema().arity();
        let cols: Vec<usize> = group.iter().copied().chain(0..arity).collect();
        let mut v = Vec::with_capacity(rel.len());
        for t in rel.iter() {
            ctx.charge_row(cols.len())?;
            v.push(t.project(&cols));
        }
        v.sort_unstable();
        reordered = v;
        let agg = match agg {
            AggFn::Count => AggFn::Count,
            AggFn::Sum(c) => AggFn::Sum(k + c),
            AggFn::Min(c) => AggFn::Min(k + c),
            AggFn::Max(c) => AggFn::Max(k + c),
        };
        (reordered.as_slice(), agg)
    };

    let workers = parallel::workers_for(tuples.len(), ctx.threads());
    ctx.note_workers(workers);
    let ranges = run_aligned_ranges(tuples, k, workers);
    let chunks = parallel::par_items(&ranges, workers, |r| -> Result<Vec<Tuple>> {
        let chunk = &tuples[r.clone()];
        let mut out: Vec<Tuple> = Vec::new();
        let mut row: Vec<Value> = Vec::with_capacity(width);
        let mut i = 0;
        while i < chunk.len() {
            let key = &chunk[i].values()[..k];
            let mut acc = Acc::new(agg);
            while i < chunk.len() && &chunk[i].values()[..k] == key {
                ctx.tick()?;
                acc.update(&chunk[i], agg)?;
                i += 1;
            }
            row.clear();
            row.extend_from_slice(key);
            row.push(acc.finish()?);
            if having.iter().all(|p| p.eval_row(&row)) {
                ctx.charge_row(width)?;
                out.push(Tuple::new(row.as_slice()));
            }
        }
        Ok(out)
    })?;
    let tuples: Vec<Tuple> = chunks.into_iter().flatten().collect();
    Ok(Relation::from_sorted_dedup(schema, tuples))
}

/// Split `tuples` into at most `workers` contiguous ranges, each cut
/// moved forward to the next change of the leading `k` columns.
fn run_aligned_ranges(tuples: &[Tuple], k: usize, workers: usize) -> Vec<Range<usize>> {
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0;
    for r in parallel::chunk_ranges(tuples.len(), workers) {
        let mut end = r.end.max(start);
        while end < tuples.len() && tuples[end - 1].values()[..k] == tuples[end].values()[..k] {
            end += 1;
        }
        if end > start {
            ranges.push(start..end);
            start = end;
        }
    }
    ranges
}

/// Running aggregate state for one group.
pub(crate) enum Acc {
    Count(i64),
    Sum(i64),
    MinMax(Option<Value>),
}

impl Acc {
    pub(crate) fn new(agg: AggFn) -> Acc {
        match agg {
            AggFn::Count => Acc::Count(0),
            AggFn::Sum(_) => Acc::Sum(0),
            AggFn::Min(_) | AggFn::Max(_) => Acc::MinMax(None),
        }
    }

    pub(crate) fn update(&mut self, t: &Tuple, agg: AggFn) -> Result<()> {
        match (self, agg) {
            (Acc::Count(n), AggFn::Count) => *n += 1,
            (Acc::Sum(s), AggFn::Sum(c)) => {
                let v = t
                    .get(c)
                    .as_int()
                    .ok_or_else(|| EngineError::AggregateType {
                        detail: format!("SUM over non-integer value {:?}", t.get(c)),
                    })?;
                *s = s.saturating_add(v);
            }
            (Acc::MinMax(m), AggFn::Min(c)) => {
                let v = t.get(c);
                *m = Some(m.map_or(v, |old| old.min(v)));
            }
            (Acc::MinMax(m), AggFn::Max(c)) => {
                let v = t.get(c);
                *m = Some(m.map_or(v, |old| old.max(v)));
            }
            (acc, agg) => {
                return Err(EngineError::AggregateType {
                    detail: format!("accumulator {} does not accept {}", acc.kind(), agg.name()),
                })
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Result<Value> {
        match self {
            Acc::Count(n) => Ok(Value::int(n)),
            Acc::Sum(s) => Ok(Value::int(s)),
            // A MIN/MAX group exists only because a row created it, so
            // an empty accumulator here is an internal invariant
            // violation — reported as an error, never a panic.
            Acc::MinMax(v) => v.ok_or_else(|| EngineError::AggregateType {
                detail: "MIN/MAX group finished with no rows".to_string(),
            }),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Acc::Count(_) => "COUNT",
            Acc::Sum(_) => "SUM",
            Acc::MinMax(_) => "MIN/MAX",
        }
    }
}

pub(crate) fn check_columns(cols: &[usize], arity: usize, operator: &'static str) -> Result<()> {
    for &c in cols {
        if c >= arity {
            return Err(EngineError::ColumnOutOfRange {
                column: c,
                arity,
                operator,
            });
        }
    }
    Ok(())
}

pub(crate) fn check_predicates(
    preds: &[Predicate],
    arity: usize,
    operator: &'static str,
) -> Result<()> {
    for p in preds {
        if let Some(c) = p.max_column() {
            if c >= arity {
                return Err(EngineError::ColumnOutOfRange {
                    column: c,
                    arity,
                    operator,
                });
            }
        }
    }
    Ok(())
}

pub(crate) fn check_join_keys(
    keys: &[(usize, usize)],
    l_arity: usize,
    r_arity: usize,
    operator: &'static str,
) -> Result<()> {
    for &(l, r) in keys {
        if l >= l_arity {
            return Err(EngineError::ColumnOutOfRange {
                column: l,
                arity: l_arity,
                operator,
            });
        }
        if r >= r_arity {
            return Err(EngineError::ColumnOutOfRange {
                column: r,
                arity: r_arity,
                operator,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;

    fn db() -> Database {
        let mut db = Database::new();
        db.insert(Relation::from_rows(
            Schema::new("baskets", &["bid", "item"]),
            vec![
                vec![Value::int(1), Value::str("beer")],
                vec![Value::int(1), Value::str("diapers")],
                vec![Value::int(2), Value::str("beer")],
                vec![Value::int(2), Value::str("diapers")],
                vec![Value::int(3), Value::str("beer")],
            ],
        ));
        db.insert(Relation::from_rows(
            Schema::new("causes", &["disease", "symptom"]),
            vec![vec![Value::str("flu"), Value::str("fever")]],
        ));
        db
    }

    #[test]
    fn scan_returns_relation() {
        let r = execute(&PhysicalPlan::scan("baskets"), &db()).unwrap();
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn scan_unknown_relation_errors() {
        let e = execute(&PhysicalPlan::scan("nope"), &db()).unwrap_err();
        assert!(matches!(e, EngineError::Storage(_)));
    }

    #[test]
    fn select_filters() {
        let p = PhysicalPlan::select(
            PhysicalPlan::scan("baskets"),
            vec![Predicate::col_const(1, CmpOp::Eq, Value::str("beer"))],
        );
        let r = execute(&p, &db()).unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn project_dedups() {
        let p = PhysicalPlan::project(PhysicalPlan::scan("baskets"), vec![1]);
        let r = execute(&p, &db()).unwrap();
        assert_eq!(r.len(), 2); // beer, diapers
        assert_eq!(r.schema().columns(), &["item".to_string()]);
    }

    #[test]
    fn self_join_counts_pairs() {
        // Fig. 1's core: baskets ⋈ baskets on bid with item < item.
        let join = PhysicalPlan::hash_join(
            PhysicalPlan::scan("baskets"),
            PhysicalPlan::scan("baskets"),
            vec![(0, 0)],
        );
        let pairs = PhysicalPlan::select(join, vec![Predicate::col_col(1, CmpOp::Lt, 3)]);
        let r = execute(&pairs, &db()).unwrap();
        // Baskets 1 and 2 contain {beer, diapers}: two (bid, beer, bid, diapers) rows.
        assert_eq!(r.len(), 2);
        assert_eq!(r.schema().arity(), 4);
    }

    #[test]
    fn aggregate_count() {
        // COUNT baskets per item.
        let p = PhysicalPlan::aggregate(PhysicalPlan::scan("baskets"), vec![1], AggFn::Count);
        let r = execute(&p, &db()).unwrap();
        let beer = r
            .iter()
            .find(|t| t.get(0) == Value::str("beer"))
            .expect("beer group");
        assert_eq!(beer.get(1), Value::int(3));
        assert_eq!(r.schema().columns()[1], "count");
    }

    #[test]
    fn aggregate_sum_min_max() {
        let p = PhysicalPlan::aggregate(PhysicalPlan::scan("baskets"), vec![1], AggFn::Sum(0));
        let r = execute(&p, &db()).unwrap();
        let beer = r.iter().find(|t| t.get(0) == Value::str("beer")).unwrap();
        assert_eq!(beer.get(1), Value::int(6)); // 1 + 2 + 3

        let p = PhysicalPlan::aggregate(PhysicalPlan::scan("baskets"), vec![1], AggFn::Min(0));
        let r = execute(&p, &db()).unwrap();
        let beer = r.iter().find(|t| t.get(0) == Value::str("beer")).unwrap();
        assert_eq!(beer.get(1), Value::int(1));

        let p = PhysicalPlan::aggregate(PhysicalPlan::scan("baskets"), vec![1], AggFn::Max(0));
        let r = execute(&p, &db()).unwrap();
        let beer = r.iter().find(|t| t.get(0) == Value::str("beer")).unwrap();
        assert_eq!(beer.get(1), Value::int(3));
    }

    #[test]
    fn sum_over_symbol_is_type_error() {
        let p = PhysicalPlan::aggregate(PhysicalPlan::scan("baskets"), vec![0], AggFn::Sum(1));
        let e = execute(&p, &db()).unwrap_err();
        assert!(matches!(e, EngineError::AggregateType { .. }));
    }

    #[test]
    fn global_aggregate_empty_group() {
        let p = PhysicalPlan::aggregate(PhysicalPlan::scan("baskets"), vec![], AggFn::Count);
        let r = execute(&p, &db()).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples()[0].get(0), Value::int(5));
    }

    /// An empty relation named `nothing` alongside the sample data.
    fn db_with_empty() -> Database {
        let mut d = db();
        d.insert(Relation::empty(Schema::new("nothing", &["x", "y"])));
        d
    }

    #[test]
    fn global_count_over_empty_input_is_zero_row() {
        let p = PhysicalPlan::aggregate(PhysicalPlan::scan("nothing"), vec![], AggFn::Count);
        let r = execute(&p, &db_with_empty()).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples()[0].get(0), Value::int(0));
        assert_eq!(r.schema().columns(), &["count".to_string()]);
    }

    #[test]
    fn global_sum_over_empty_input_is_zero_row() {
        let p = PhysicalPlan::aggregate(PhysicalPlan::scan("nothing"), vec![], AggFn::Sum(0));
        let r = execute(&p, &db_with_empty()).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples()[0].get(0), Value::int(0));
    }

    #[test]
    fn global_min_max_over_empty_input_is_empty() {
        // MIN/MAX have no identity element in a NULL-free domain.
        for agg in [AggFn::Min(0), AggFn::Max(0)] {
            let p = PhysicalPlan::aggregate(PhysicalPlan::scan("nothing"), vec![], agg);
            let r = execute(&p, &db_with_empty()).unwrap();
            assert!(r.is_empty());
            assert_eq!(r.schema().arity(), 1);
        }
    }

    #[test]
    fn grouped_aggregate_over_empty_input_is_empty() {
        // With a non-empty group list there are no groups to report.
        let p = PhysicalPlan::aggregate(PhysicalPlan::scan("nothing"), vec![0], AggFn::Count);
        let r = execute(&p, &db_with_empty()).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn accumulator_mismatch_is_error_not_panic() {
        let mut acc = Acc::new(AggFn::Count);
        let t = Tuple::from([Value::int(1)]);
        let err = acc.update(&t, AggFn::Sum(0)).unwrap_err();
        assert!(matches!(err, EngineError::AggregateType { .. }));
    }

    #[test]
    fn empty_minmax_accumulator_finishes_with_error() {
        let err = Acc::new(AggFn::Min(0)).finish().unwrap_err();
        assert!(matches!(err, EngineError::AggregateType { .. }));
    }

    #[test]
    fn parallel_execution_matches_single_thread_on_large_input() {
        // Large enough that workers_for actually fans out (> PAR_THRESHOLD),
        // with about 8 rows per key so the self-join stays near 8n rows.
        let n = crate::parallel::PAR_THRESHOLD as i64 * 3;
        let mut d = Database::new();
        d.insert(Relation::from_rows(
            Schema::new("big", &["k", "v"]),
            (0..n)
                .map(|i| vec![Value::int(i % (n / 8)), Value::int(i)])
                .collect(),
        ));
        let plan = PhysicalPlan::aggregate(
            PhysicalPlan::select(
                PhysicalPlan::hash_join(
                    PhysicalPlan::scan("big"),
                    PhysicalPlan::scan("big"),
                    vec![(0, 0)],
                ),
                vec![Predicate::col_col(1, CmpOp::Lt, 3)],
            ),
            vec![0],
            AggFn::Count,
        );
        let ctx1 = ExecContext::unbounded().with_threads(1);
        let ctx4 = ExecContext::unbounded().with_threads(4);
        let one = execute_with(&plan, &d, &ctx1).unwrap();
        let four = execute_with(&plan, &d, &ctx4).unwrap();
        assert_eq!(one.tuples(), four.tuples());
        assert_eq!(ctx1.stats().workers, 1);
        assert!(ctx4.stats().workers > 1);
    }

    #[test]
    fn anti_join_removes_matches() {
        // Baskets whose item is NOT a known symptom-causing… (nonsense
        // semantically, but exercises key matching across relations).
        let p = PhysicalPlan::anti_join(
            PhysicalPlan::scan("baskets"),
            PhysicalPlan::scan("causes"),
            vec![(1, 1)],
        );
        let r = execute(&p, &db()).unwrap();
        assert_eq!(r.len(), 5); // no basket item is "fever"

        let p = PhysicalPlan::anti_join(
            PhysicalPlan::scan("baskets"),
            PhysicalPlan::scan("baskets"),
            vec![(0, 0)],
        );
        let r = execute(&p, &db()).unwrap();
        assert!(r.is_empty()); // everything matches itself
    }

    #[test]
    fn union_dedups_and_checks_arity() {
        let p = PhysicalPlan::union(vec![
            PhysicalPlan::project(PhysicalPlan::scan("baskets"), vec![1]),
            PhysicalPlan::project(PhysicalPlan::scan("causes"), vec![1]),
        ]);
        let r = execute(&p, &db()).unwrap();
        assert_eq!(r.len(), 3); // beer, diapers, fever

        let bad = PhysicalPlan::union(vec![
            PhysicalPlan::scan("baskets"),
            PhysicalPlan::project(PhysicalPlan::scan("causes"), vec![1]),
        ]);
        assert!(matches!(
            execute(&bad, &db()).unwrap_err(),
            EngineError::UnionArityMismatch { first: 2, other: 1 }
        ));
    }

    #[test]
    fn empty_union_is_empty() {
        let r = execute(&PhysicalPlan::union(vec![]), &db()).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn column_bounds_checked() {
        let p = PhysicalPlan::project(PhysicalPlan::scan("baskets"), vec![7]);
        assert!(matches!(
            execute(&p, &db()).unwrap_err(),
            EngineError::ColumnOutOfRange { column: 7, .. }
        ));
    }

    #[test]
    fn join_key_bounds_checked() {
        let p = PhysicalPlan::hash_join(
            PhysicalPlan::scan("baskets"),
            PhysicalPlan::scan("causes"),
            vec![(0, 9)],
        );
        assert!(matches!(
            execute(&p, &db()).unwrap_err(),
            EngineError::ColumnOutOfRange { column: 9, .. }
        ));
    }

    #[test]
    fn cross_product_via_empty_keys() {
        let p = PhysicalPlan::hash_join(
            PhysicalPlan::scan("baskets"),
            PhysicalPlan::scan("causes"),
            vec![],
        );
        let r = execute(&p, &db()).unwrap();
        assert_eq!(r.len(), 5); // 5 baskets rows × 1 causes row
    }
}
