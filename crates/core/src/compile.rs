//! Compilation of flock queries to engine plans.
//!
//! A flock's parametrized query denotes, for every parameter assignment,
//! an answer set. Evaluation does not iterate assignments; it computes
//! the **extended answer relation** — all distinct tuples
//! `(params…, head vars…)` — in one relational plan, then aggregates by
//! the parameter columns. This is precisely the join-group-filter shape
//! of the paper's Fig. 1 SQL, generalized to negation, arithmetic, and
//! unions.
//!
//! Compilation is positional: a `Binding` tracks which output column
//! of the running intermediate holds each open term (variable or
//! parameter). Negated subgoals become antijoins and arithmetic
//! subgoals become selections, each applied at the earliest point where
//! all their terms are bound.

use std::collections::BTreeSet;

use qf_datalog::{Atom, ConjunctiveQuery, Term, UnionQuery};
use qf_engine::{
    order_greedy, order_optimal_dp, AggFn, CmpOp, JoinGraph, JoinNode, Operand, PhysicalPlan,
    Predicate,
};
use qf_storage::{Database, Symbol};

use crate::error::{FlockError, Result};
use crate::filter::{FilterAgg, FilterCondition};

/// How to order a rule's positive subgoals.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum JoinOrderStrategy {
    /// Exactly the order the subgoals are written — the "conventional
    /// optimizer missing the trick" baseline of §1.3.
    AsWritten,
    /// Greedy smallest-next-intermediate ordering using base statistics.
    #[default]
    Greedy,
    /// Exact minimum-`C_out` left-deep order (subset DP).
    OptimalDp,
}

/// A compiled rule: a plan producing the distinct
/// `(params…, head vars…)` tuples of one rule.
#[derive(Clone, Debug)]
pub struct CompiledRule {
    /// The physical plan.
    pub plan: PhysicalPlan,
    /// Number of leading parameter columns (sorted by parameter name).
    pub n_params: usize,
    /// Number of trailing head-variable columns (in head order).
    pub n_head: usize,
}

/// Column layout tracker: which column of the running intermediate holds
/// each open term.
#[derive(Clone, Debug, Default)]
pub(crate) struct Binding {
    cols: Vec<(Term, usize)>,
}

impl Binding {
    pub(crate) fn col_of(&self, t: Term) -> Option<usize> {
        self.cols.iter().find(|(u, _)| *u == t).map(|(_, c)| *c)
    }

    pub(crate) fn bind(&mut self, t: Term, col: usize) {
        if self.col_of(t).is_none() {
            self.cols.push((t, col));
        }
    }

    pub(crate) fn binds_all(&self, terms: &[Term]) -> bool {
        terms.iter().all(|&t| self.col_of(t).is_some())
    }
}

/// A scan of one atom's relation with constant/self-equality selections
/// applied; `terms[i]` is the open term at output column `i` of the
/// atom (columns mirror the base relation's columns).
#[derive(Clone, Debug)]
pub(crate) struct Leaf {
    pub(crate) plan: PhysicalPlan,
    /// Open term per column; `None` where the argument is a constant.
    pub(crate) terms: Vec<Option<Term>>,
}

/// Build the leaf plan for an atom: scan plus selections for constant
/// arguments and repeated open terms.
pub(crate) fn build_leaf(atom: &Atom) -> Leaf {
    let scan = PhysicalPlan::scan(atom.pred.as_str());
    let mut preds = Vec::new();
    let mut terms: Vec<Option<Term>> = Vec::with_capacity(atom.arity());
    let mut first_col: Vec<(Term, usize)> = Vec::new();
    for (col, &arg) in atom.args.iter().enumerate() {
        match arg {
            Term::Const(v) => {
                preds.push(Predicate::col_const(col, CmpOp::Eq, v));
                terms.push(None);
            }
            open => {
                if let Some(&(_, prev)) = first_col.iter().find(|(t, _)| *t == open) {
                    preds.push(Predicate::col_col(prev, CmpOp::Eq, col));
                } else {
                    first_col.push((open, col));
                }
                terms.push(Some(open));
            }
        }
    }
    Leaf {
        plan: PhysicalPlan::select(scan, preds),
        terms,
    }
}

/// Decide the positive-atom order for a rule under a strategy.
pub(crate) fn atom_order(
    atoms: &[&Atom],
    db: &Database,
    strategy: JoinOrderStrategy,
) -> Vec<usize> {
    match strategy {
        JoinOrderStrategy::AsWritten => (0..atoms.len()).collect(),
        JoinOrderStrategy::Greedy | JoinOrderStrategy::OptimalDp => {
            let mut graph = JoinGraph::new();
            let mut attr_ids: Vec<Term> = Vec::new();
            let attr_id = |t: Term, ids: &mut Vec<Term>| -> u32 {
                match ids.iter().position(|&u| u == t) {
                    Some(i) => i as u32,
                    None => {
                        ids.push(t);
                        (ids.len() - 1) as u32
                    }
                }
            };
            for atom in atoms {
                let (rows, col_distinct) = match db.get(atom.pred.as_str()) {
                    Ok(r) => {
                        let s = r.stats();
                        (
                            s.cardinality as f64,
                            (0..s.arity())
                                .map(|c| s.column(c).distinct as f64)
                                .collect(),
                        )
                    }
                    // Unknown relation (e.g. a planned-but-unmaterialized
                    // filter step): neutral guess.
                    Err(_) => (1000.0, vec![100.0; atom.arity()]),
                };
                let col_distinct: Vec<f64> = col_distinct;
                let mut attrs = Vec::new();
                let mut dist = Vec::new();
                let mut seen = BTreeSet::new();
                for (col, &arg) in atom.args.iter().enumerate() {
                    if let Term::Const(_) = arg {
                        continue;
                    }
                    if seen.insert(arg) {
                        attrs.push(attr_id(arg, &mut attr_ids));
                        dist.push(*col_distinct.get(col).unwrap_or(&100.0));
                    }
                }
                graph.add(JoinNode::new(atom.pred.as_str(), attrs, rows, dist));
            }
            match strategy {
                JoinOrderStrategy::Greedy => order_greedy(&graph),
                _ => order_optimal_dp(&graph),
            }
        }
    }
}

/// Compile one rule into a plan producing its distinct
/// `(params…, head vars…)` tuples. Parameters are sorted by name; head
/// variables follow in head-argument order.
pub fn compile_rule(
    rule: &ConjunctiveQuery,
    db: &Database,
    strategy: JoinOrderStrategy,
) -> Result<CompiledRule> {
    let positive: Vec<&Atom> = rule.positive_atoms().collect();
    if positive.is_empty() {
        return Err(FlockError::IllegalPlan {
            detail: format!("rule `{rule}` has no positive subgoals to scan"),
        });
    }
    let order = atom_order(&positive, db, strategy);

    // Pending work: negations and comparisons applied once bound.
    let mut pending_neg: Vec<&Atom> = rule.negated_atoms().collect();
    let mut pending_cmp: Vec<_> = rule.comparisons().collect();

    let mut binding = Binding::default();
    let mut current: Option<PhysicalPlan> = None;
    let mut width = 0usize;

    for &ai in &order {
        let atom = positive[ai];
        let leaf = build_leaf(atom);
        match current.take() {
            None => {
                for (col, term) in leaf.terms.iter().enumerate() {
                    if let Some(t) = term {
                        binding.bind(*t, col);
                    }
                }
                width = atom.arity();
                current = Some(leaf.plan);
            }
            Some(cur) => {
                // Join keys: terms bound on both sides.
                let mut keys = Vec::new();
                for (col, term) in leaf.terms.iter().enumerate() {
                    if let Some(t) = term {
                        if let Some(lc) = binding.col_of(*t) {
                            keys.push((lc, col));
                        }
                    }
                }
                let joined = PhysicalPlan::hash_join(cur, leaf.plan, keys);
                for (col, term) in leaf.terms.iter().enumerate() {
                    if let Some(t) = term {
                        binding.bind(*t, width + col);
                    }
                }
                width += atom.arity();
                current = Some(joined);
            }
        }
        // Apply everything now bound.
        let plan = current.take().unwrap();
        let plan = apply_pending(plan, &binding, &mut pending_neg, &mut pending_cmp);
        current = Some(plan);
    }

    let mut plan = current.expect("at least one positive atom");
    if !pending_neg.is_empty() || !pending_cmp.is_empty() {
        // Safety guarantees full binding; reaching here means the rule
        // was not safety-checked.
        return Err(FlockError::UnsafeQuery {
            violation: format!(
                "rule `{rule}` has unbound negated/arithmetic subgoals after all joins"
            ),
        });
    }

    // Final projection: parameters sorted by name, then head vars.
    let params: Vec<Symbol> = rule.params().into_iter().collect();
    let mut cols = Vec::with_capacity(params.len() + rule.head.arity());
    for &p in &params {
        cols.push(
            binding
                .col_of(Term::Param(p))
                .ok_or_else(|| FlockError::UnsafeQuery {
                    violation: format!("parameter ${p} is not bound by a positive subgoal"),
                })?,
        );
    }
    for &t in &rule.head.args {
        cols.push(binding.col_of(t).ok_or_else(|| FlockError::UnsafeQuery {
            violation: format!("head term {t} is not bound by a positive subgoal"),
        })?);
    }
    plan = PhysicalPlan::project(plan, cols);
    Ok(CompiledRule {
        plan,
        n_params: params.len(),
        n_head: rule.head.arity(),
    })
}

/// Apply all pending negations and comparisons whose terms are bound.
fn apply_pending(
    mut plan: PhysicalPlan,
    binding: &Binding,
    pending_neg: &mut Vec<&Atom>,
    pending_cmp: &mut Vec<&qf_datalog::Comparison>,
) -> PhysicalPlan {
    // Comparisons first (cheap selections shrink antijoin inputs).
    let mut i = 0;
    while i < pending_cmp.len() {
        let c = pending_cmp[i];
        let terms: Vec<Term> = c.terms().collect();
        if binding.binds_all(&terms) {
            let to_operand = |t: Term| match t {
                Term::Const(v) => Operand::Const(v),
                open => Operand::Col(binding.col_of(open).unwrap()),
            };
            plan = PhysicalPlan::select(
                plan,
                vec![Predicate {
                    lhs: to_operand(c.lhs),
                    op: c.op,
                    rhs: to_operand(c.rhs),
                }],
            );
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
            let mut keys = Vec::new();
            for (col, term) in leaf.terms.iter().enumerate() {
                if let Some(t) = term {
                    keys.push((binding.col_of(*t).unwrap(), col));
                }
            }
            plan = PhysicalPlan::anti_join(plan, leaf.plan, keys);
            pending_neg.swap_remove(i);
        } else {
            i += 1;
        }
    }
    plan
}

/// Compile a whole (possibly union) flock query into a plan producing
/// the distinct `(params…, head vars…)` tuples across all rules.
pub fn compile_answer(
    query: &UnionQuery,
    db: &Database,
    strategy: JoinOrderStrategy,
) -> Result<CompiledRule> {
    let mut plans = Vec::with_capacity(query.rules().len());
    let mut n_params = 0;
    let mut n_head = 0;
    for rule in query.rules() {
        let c = compile_rule(rule, db, strategy)?;
        n_params = c.n_params;
        n_head = c.n_head;
        plans.push(c.plan);
    }
    let plan = if plans.len() == 1 {
        plans.pop().unwrap()
    } else {
        PhysicalPlan::union(plans)
    };
    Ok(CompiledRule {
        plan,
        n_params,
        n_head,
    })
}

/// The engine aggregate a flock filter compiles to over an
/// extended-answer layout with `n_params` leading parameter columns:
/// `COUNT` counts rows, `SUM`/`MIN`/`MAX` read the column holding the
/// filter variable's head position in `rule0`.
pub fn agg_fn(
    filter: &FilterCondition,
    rule0: &ConjunctiveQuery,
    n_params: usize,
) -> Result<AggFn> {
    let Some(v) = filter.agg.head_var() else {
        return Ok(AggFn::Count);
    };
    let pos = rule0
        .head
        .args
        .iter()
        .position(|&t| t == Term::Var(v))
        .ok_or_else(|| FlockError::FilterVarUnknown {
            var: format!("{v}"),
        })?;
    let col = n_params + pos;
    Ok(match filter.agg {
        FilterAgg::Sum(_) => AggFn::Sum(col),
        FilterAgg::Min(_) => AggFn::Min(col),
        _ => AggFn::Max(col),
    })
}

/// Wrap an answer plan with the flock's filter: group by the parameter
/// columns, aggregate, and threshold. The plan yields
/// `(params…, aggregate)` rows for every parameter assignment passing
/// the filter. Projecting away the trailing aggregate column recovers
/// the flock result exactly; *keeping* it lets a result cache re-filter
/// the rows to answer any request whose filter the baseline
/// [subsumes](FilterCondition::subsumes) — the server's monotone reuse.
pub fn filter_answer_scored(
    answer: &CompiledRule,
    rule0: &ConjunctiveQuery,
    filter: &FilterCondition,
) -> Result<PhysicalPlan> {
    let group: Vec<usize> = (0..answer.n_params).collect();
    let agg = agg_fn(filter, rule0, answer.n_params)?;
    let plan = PhysicalPlan::aggregate(answer.plan.clone(), group, agg);
    Ok(PhysicalPlan::select(
        plan,
        vec![Predicate::col_const(
            answer.n_params,
            filter.op,
            qf_storage::Value::int(filter.threshold),
        )],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qf_datalog::parse_rule;
    use qf_engine::execute;
    use qf_storage::{Relation, Schema, Value};

    fn basket_db() -> Database {
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
        db
    }

    #[test]
    fn compile_basket_rule_produces_extended_answers() {
        let rule = parse_rule("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2").unwrap();
        let compiled = compile_rule(&rule, &basket_db(), JoinOrderStrategy::AsWritten).unwrap();
        assert_eq!(compiled.n_params, 2);
        assert_eq!(compiled.n_head, 1);
        let rel = execute(&compiled.plan, &basket_db()).unwrap();
        // ($1=beer, $2=diapers, B∈{1,2}) only.
        assert_eq!(rel.len(), 2);
        for t in rel.iter() {
            assert_eq!(t.get(0), Value::str("beer"));
            assert_eq!(t.get(1), Value::str("diapers"));
        }
    }

    #[test]
    fn constants_and_repeats_become_selections() {
        let rule = parse_rule("answer(B) :- baskets(B,beer)").unwrap();
        let compiled = compile_rule(&rule, &basket_db(), JoinOrderStrategy::AsWritten).unwrap();
        let rel = execute(&compiled.plan, &basket_db()).unwrap();
        assert_eq!(rel.len(), 3); // baskets 1, 2, 3

        // Self-equality: arc(X,X) style.
        let mut db = basket_db();
        db.insert(Relation::from_rows(
            Schema::new("arc", &["s", "t"]),
            vec![
                vec![Value::int(1), Value::int(1)],
                vec![Value::int(1), Value::int(2)],
            ],
        ));
        let rule = parse_rule("answer(X) :- arc(X,X)").unwrap();
        let compiled = compile_rule(&rule, &db, JoinOrderStrategy::AsWritten).unwrap();
        let rel = execute(&compiled.plan, &db).unwrap();
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.tuples()[0].get(0), Value::int(1));
    }

    #[test]
    fn negation_compiles_to_antijoin() {
        let mut db = Database::new();
        db.insert(Relation::from_rows(
            Schema::new("diagnoses", &["p", "d"]),
            vec![
                vec![Value::int(1), Value::str("flu")],
                vec![Value::int(2), Value::str("flu")],
            ],
        ));
        db.insert(Relation::from_rows(
            Schema::new("exhibits", &["p", "s"]),
            vec![
                vec![Value::int(1), Value::str("fever")],
                vec![Value::int(2), Value::str("rash")],
            ],
        ));
        db.insert(Relation::from_rows(
            Schema::new("causes", &["d", "s"]),
            vec![vec![Value::str("flu"), Value::str("fever")]],
        ));
        let rule =
            parse_rule("answer(P) :- exhibits(P,$s) AND diagnoses(P,D) AND NOT causes(D,$s)")
                .unwrap();
        let compiled = compile_rule(&rule, &db, JoinOrderStrategy::AsWritten).unwrap();
        let rel = execute(&compiled.plan, &db).unwrap();
        // Patient 1's fever is explained by flu; patient 2's rash is not.
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.tuples()[0].get(0), Value::str("rash"));
        assert_eq!(rel.tuples()[0].get(1), Value::int(2));
    }

    #[test]
    fn all_orders_agree_on_results() {
        let rule = parse_rule("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2").unwrap();
        let db = basket_db();
        let mut results = Vec::new();
        for s in [
            JoinOrderStrategy::AsWritten,
            JoinOrderStrategy::Greedy,
            JoinOrderStrategy::OptimalDp,
        ] {
            let compiled = compile_rule(&rule, &db, s).unwrap();
            let rel = execute(&compiled.plan, &db).unwrap();
            results.push(rel.tuples().to_vec());
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn filter_answer_counts_support() {
        let rule = parse_rule("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2").unwrap();
        let db = basket_db();
        let compiled = compile_rule(&rule, &db, JoinOrderStrategy::AsWritten).unwrap();
        let plan = filter_answer_scored(&compiled, &rule, &FilterCondition::support(2)).unwrap();
        let rel = execute(&plan, &db).unwrap();
        // (beer, diapers) appears in baskets 1 and 2 → passes ≥2.
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.tuples()[0].get(2), Value::int(2));
        let plan = filter_answer_scored(&compiled, &rule, &FilterCondition::support(3)).unwrap();
        let rel = execute(&plan, &db).unwrap();
        assert!(rel.is_empty());
    }
}
