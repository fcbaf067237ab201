//! Property tests: on random small databases, every evaluation strategy
//! computes the same flock — the central soundness claim of the paper's
//! optimization framework (legal plans are *equivalent* to the flock).

use proptest::prelude::*;

use query_flocks::core::{
    enumerate_plans, evaluate_direct, evaluate_dynamic, evaluate_naive, execute_plan,
    execute_plan_scored_with, flock_result_from_scored, DynamicConfig, ExecContext,
    JoinOrderStrategy, QueryFlock, QueryPlan,
};
use query_flocks::storage::{Database, Relation, Schema, Value};

/// A random baskets relation over a small domain.
fn baskets_strategy() -> impl Strategy<Value = Vec<(i64, u8)>> {
    prop::collection::vec((0..12i64, 0..8u8), 0..80)
}

/// Random medical data: diagnoses (patient, disease), exhibits
/// (patient, symptom), treatments (patient, medicine), and causes
/// (disease, symptom).
type MedicalData = (
    Vec<(i64, u8)>,
    Vec<(i64, u8)>,
    Vec<(i64, u8)>,
    Vec<(u8, u8)>,
);

/// A random medical database over small domains.
fn medical_strategy() -> impl Strategy<Value = MedicalData> {
    (
        prop::collection::vec((0..10i64, 0..4u8), 0..30),
        prop::collection::vec((0..10i64, 0..5u8), 0..40),
        prop::collection::vec((0..10i64, 0..4u8), 0..30),
        prop::collection::vec((0..4u8, 0..5u8), 0..10),
    )
}

fn basket_db(rows: &[(i64, u8)]) -> Database {
    let mut db = Database::new();
    db.insert(Relation::from_rows(
        Schema::new("baskets", &["bid", "item"]),
        rows.iter()
            .map(|&(b, i)| vec![Value::int(b), Value::str(&format!("i{i}"))])
            .collect(),
    ));
    db
}

/// A plan's scored run (the server's evaluation path), reduced to the
/// flock result at the flock's own filter.
fn scored_result(flock: &QueryFlock, plan: &QueryPlan, db: &Database) -> Relation {
    let run = execute_plan_scored_with(
        plan,
        db,
        JoinOrderStrategy::Greedy,
        &ExecContext::unbounded(),
    )
    .unwrap();
    flock_result_from_scored(flock, &run.scored, flock.filter())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Basket flock: naive ≡ direct ≡ every enumerated plan ≡ dynamic.
    #[test]
    fn basket_flock_equivalence(rows in baskets_strategy(), threshold in 1i64..6) {
        let db = basket_db(&rows);
        let flock = QueryFlock::with_support(
            "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            threshold,
        ).unwrap();

        let naive = evaluate_naive(&flock, &db).unwrap();
        for strategy in [
            JoinOrderStrategy::AsWritten,
            JoinOrderStrategy::Greedy,
            JoinOrderStrategy::OptimalDp,
        ] {
            let direct = evaluate_direct(&flock, &db, strategy).unwrap();
            prop_assert_eq!(direct.tuples(), naive.tuples());
        }
        for plan in enumerate_plans(&flock, &db).unwrap() {
            let run = execute_plan(&plan, &db, JoinOrderStrategy::Greedy).unwrap();
            prop_assert_eq!(run.result.tuples(), naive.tuples());
            let scored = scored_result(&flock, &plan, &db);
            prop_assert_eq!(scored.tuples(), naive.tuples(), "scored plan: {}", plan);
        }
        let dynamic = evaluate_dynamic(&flock, &db, &DynamicConfig::default()).unwrap();
        prop_assert_eq!(dynamic.result.tuples(), naive.tuples());
    }

    /// Medical flock (negation!): naive ≡ direct ≡ plans ≡ dynamic.
    #[test]
    fn medical_flock_equivalence(
        (diag, exh, treat, causes) in medical_strategy(),
        threshold in 1i64..5,
    ) {
        let mut db = Database::new();
        db.insert(Relation::from_rows(
            Schema::new("diagnoses", &["p", "d"]),
            diag.iter().map(|&(p, d)| vec![Value::int(p), Value::str(&format!("d{d}"))]).collect(),
        ));
        db.insert(Relation::from_rows(
            Schema::new("exhibits", &["p", "s"]),
            exh.iter().map(|&(p, s)| vec![Value::int(p), Value::str(&format!("s{s}"))]).collect(),
        ));
        db.insert(Relation::from_rows(
            Schema::new("treatments", &["p", "m"]),
            treat.iter().map(|&(p, m)| vec![Value::int(p), Value::str(&format!("m{m}"))]).collect(),
        ));
        db.insert(Relation::from_rows(
            Schema::new("causes", &["d", "s"]),
            causes.iter().map(|&(d, s)| vec![Value::str(&format!("d{d}")), Value::str(&format!("s{s}"))]).collect(),
        ));
        let flock = QueryFlock::with_support(
            "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND \
             diagnoses(P,D) AND NOT causes(D,$s)",
            threshold,
        ).unwrap();

        let naive = evaluate_naive(&flock, &db).unwrap();
        let direct = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
        prop_assert_eq!(direct.tuples(), naive.tuples());
        for plan in enumerate_plans(&flock, &db).unwrap() {
            let run = execute_plan(&plan, &db, JoinOrderStrategy::Greedy).unwrap();
            prop_assert_eq!(run.result.tuples(), naive.tuples(), "plan: {}", plan);
            let scored = scored_result(&flock, &plan, &db);
            prop_assert_eq!(scored.tuples(), naive.tuples(), "scored plan: {}", plan);
        }
        let dynamic = evaluate_dynamic(&flock, &db, &DynamicConfig::default()).unwrap();
        prop_assert_eq!(dynamic.result.tuples(), naive.tuples());
    }

    /// Weighted SUM flock with non-negative weights: naive ≡ direct ≡
    /// plans (monotone pruning stays sound).
    #[test]
    fn weighted_flock_equivalence(
        rows in baskets_strategy(),
        weights in prop::collection::vec(0i64..5, 12),
        threshold in 1i64..12,
    ) {
        let mut db = basket_db(&rows);
        db.insert(Relation::from_rows(
            Schema::new("importance", &["bid", "w"]),
            weights.iter().enumerate()
                .map(|(b, &w)| vec![Value::int(b as i64), Value::int(w)])
                .collect(),
        ));
        let flock = QueryFlock::parse(&format!(
            "QUERY: answer(B,W) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2 \
             AND importance(B,W) FILTER: SUM(answer.W) >= {threshold}"
        )).unwrap();

        let naive = evaluate_naive(&flock, &db).unwrap();
        let direct = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
        prop_assert_eq!(direct.tuples(), naive.tuples());
        for plan in enumerate_plans(&flock, &db).unwrap() {
            let run = execute_plan(&plan, &db, JoinOrderStrategy::Greedy).unwrap();
            prop_assert_eq!(run.result.tuples(), naive.tuples(), "plan: {}", plan);
            let scored = scored_result(&flock, &plan, &db);
            prop_assert_eq!(scored.tuples(), naive.tuples(), "scored plan: {}", plan);
        }
    }

    /// Non-monotone COUNT filters must not be prematurely pruned by the
    /// dynamic evaluator (regression: pruning with `>= t` is unsound for
    /// `COUNT < t`).
    #[test]
    fn non_monotone_count_dynamic_equals_naive(
        rows in baskets_strategy(),
        threshold in 1i64..6,
    ) {
        let db = basket_db(&rows);
        let flock = QueryFlock::parse(&format!(
            "QUERY: answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2 \
             FILTER: COUNT(answer.B) < {threshold}"
        )).unwrap();
        let naive = evaluate_naive(&flock, &db).unwrap();
        let direct = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
        prop_assert_eq!(direct.tuples(), naive.tuples());
        let dynamic = evaluate_dynamic(&flock, &db, &DynamicConfig::default()).unwrap();
        prop_assert_eq!(dynamic.result.tuples(), naive.tuples());
    }

    /// Dynamic evaluation is insensitive to its tuning knobs (they move
    /// cost, never answers).
    #[test]
    fn dynamic_config_never_changes_answers(
        rows in baskets_strategy(),
        threshold in 1i64..6,
        first in 0.1f64..4.0,
        improve in 0.1f64..1.0,
    ) {
        let db = basket_db(&rows);
        let flock = QueryFlock::with_support(
            "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            threshold,
        ).unwrap();
        let reference = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
        let config = DynamicConfig {
            first_sight_factor: first,
            improvement_factor: improve,
            strategy: JoinOrderStrategy::Greedy,
        };
        let report = evaluate_dynamic(&flock, &db, &config).unwrap();
        prop_assert_eq!(report.result.tuples(), reference.tuples());
    }
}
