//! Property tests: every physical operator agrees with a brute-force
//! relational-algebra reference on random inputs.

use std::collections::BTreeMap;

use proptest::prelude::*;

use qf_engine::parallel::PAR_THRESHOLD;
use qf_engine::{
    execute, execute_with, AggFn, CmpOp, EngineError, ExecContext, PhysicalPlan, Predicate,
    Resource,
};
use qf_storage::{Database, Relation, Schema, Tuple, Value};

fn rows2() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..8, 0i64..8), 0..60)
}

fn db2(l: &[(i64, i64)], r: &[(i64, i64)]) -> Database {
    db2_of(l, r, false)
}

/// Symbol names whose intern order (first use) disagrees with their
/// lexicographic order, so a comparison by id would sort them wrongly.
const NAMES: [&str; 8] = [
    "kiwi", "apple", "fig", "banana", "cherry", "date", "elder", "grape",
];

/// `n` as an integer, or as one of [`NAMES`] (and, past them, a name
/// whose digits sort lexicographically, not numerically) when `sym`.
fn val(n: i64, sym: bool) -> Value {
    match (sym, usize::try_from(n)) {
        (false, _) => Value::int(n),
        (true, Ok(i)) if i < NAMES.len() => Value::str(NAMES[i]),
        (true, _) => Value::str(&format!("k{n}")),
    }
}

/// `l(a, b)` and `r(c, d)`, with `Sym` columns when `sym`.
fn db2_of(l: &[(i64, i64)], r: &[(i64, i64)], sym: bool) -> Database {
    let mut db = Database::new();
    db.insert(Relation::from_rows(
        Schema::new("l", &["a", "b"]),
        l.iter()
            .map(|&(a, b)| vec![val(a, sym), val(b, sym)])
            .collect(),
    ));
    db.insert(Relation::from_rows(
        Schema::new("r", &["c", "d"]),
        r.iter()
            .map(|&(a, b)| vec![val(a, sym), val(b, sym)])
            .collect(),
    ));
    db
}

/// Nested-loop equijoin reference: `left ++ right` rows agreeing on
/// every `(left column, right column)` key, sorted and deduplicated.
fn reference_join(left: &Relation, right: &Relation, keys: &[(usize, usize)]) -> Vec<Tuple> {
    let mut out = Vec::new();
    for a in left.iter() {
        for b in right.iter() {
            if keys.iter().all(|&(x, y)| a.get(x) == b.get(y)) {
                out.push(a.concat(b));
            }
        }
    }
    dedup_sorted(out)
}

/// Group-by reference: `rel` grouped on `group` (in that column order),
/// aggregated, and kept where the aggregate is `>= min`.
fn reference_aggregate(
    rel: &Relation,
    group: &[usize],
    agg: AggFn,
    min: Option<i64>,
) -> Vec<Tuple> {
    let mut groups: BTreeMap<Vec<Value>, Vec<Value>> = BTreeMap::new();
    for t in rel.iter() {
        groups
            .entry(group.iter().map(|&c| t.get(c)).collect())
            .or_default()
            .push(agg.input_column().map_or(Value::int(0), |c| t.get(c)));
    }
    groups
        .into_iter()
        .map(|(mut row, vs)| {
            row.push(match agg {
                AggFn::Count => Value::int(vs.len() as i64),
                AggFn::Sum(_) => Value::int(vs.iter().map(|v| v.as_int().unwrap()).sum()),
                AggFn::Min(_) => *vs.iter().min().unwrap(),
                AggFn::Max(_) => *vs.iter().max().unwrap(),
            });
            Tuple::from(row)
        })
        .filter(|t| min.is_none_or(|m| t.get(t.arity() - 1) >= Value::int(m)))
        .collect()
}

/// The aggregate, under a FILTER-style `>= min` threshold if given.
fn aggregate_plan(
    input: PhysicalPlan,
    group: &[usize],
    agg: AggFn,
    min: Option<i64>,
) -> PhysicalPlan {
    let k = group.len();
    let plan = PhysicalPlan::aggregate(input, group.to_vec(), agg);
    match min {
        Some(m) => PhysicalPlan::select(
            plan,
            vec![Predicate::col_const(k, CmpOp::Ge, Value::int(m))],
        ),
        None => plan,
    }
}

fn dedup_sorted(mut v: Vec<Tuple>) -> Vec<Tuple> {
    v.sort_unstable();
    v.dedup();
    v
}

proptest! {
    /// Hash join ≡ nested-loop reference, with the build table on
    /// either side (the smaller input is built; both join orders run).
    #[test]
    fn hash_join_is_nested_loop(l in rows2(), r in rows2(), sym in any::<bool>()) {
        let db = db2_of(&l, &r, sym);
        let l_rel = db.get("l").unwrap();
        let r_rel = db.get("r").unwrap();
        for (left, right, key) in [("l", "r", (1, 0)), ("r", "l", (0, 1))] {
            let plan = PhysicalPlan::hash_join(
                PhysicalPlan::scan(left),
                PhysicalPlan::scan(right),
                vec![key], // l.b = r.c
            );
            let got = execute(&plan, &db).unwrap();
            let want = if left == "l" {
                reference_join(l_rel, r_rel, &[key])
            } else {
                reference_join(r_rel, l_rel, &[key])
            };
            prop_assert_eq!(got.tuples(), want.as_slice());
        }
    }

    /// Antijoin ≡ NOT EXISTS reference.
    #[test]
    fn antijoin_is_not_exists(l in rows2(), r in rows2()) {
        let db = db2(&l, &r);
        let plan = PhysicalPlan::anti_join(
            PhysicalPlan::scan("l"),
            PhysicalPlan::scan("r"),
            vec![(0, 0), (1, 1)],
        );
        let got = execute(&plan, &db).unwrap();
        let r_rel = db.get("r").unwrap();
        let want: Vec<Tuple> = db
            .get("l").unwrap()
            .iter()
            .filter(|t| !r_rel.iter().any(|u| u.get(0) == t.get(0) && u.get(1) == t.get(1)))
            .cloned()
            .collect();
        prop_assert_eq!(got.tuples(), want.as_slice());
    }

    /// Select ≡ filter; Project ≡ map+dedup.
    #[test]
    fn select_project_reference(l in rows2(), k in 0i64..8) {
        let db = db2(&l, &[]);
        let plan = PhysicalPlan::project(
            PhysicalPlan::select(
                PhysicalPlan::scan("l"),
                vec![Predicate::col_const(0, CmpOp::Ge, Value::int(k))],
            ),
            vec![1],
        );
        let got = execute(&plan, &db).unwrap();
        let want: Vec<Tuple> = dedup_sorted(
            db.get("l").unwrap()
                .iter()
                .filter(|t| t.get(0) >= Value::int(k))
                .map(|t| t.project(&[1]))
                .collect(),
        );
        prop_assert_eq!(got.tuples(), want.as_slice());
    }

    /// Aggregate COUNT/SUM/MIN/MAX ≡ group-by reference over `Int` and
    /// `Sym` columns, for leading, non-leading and reordered groups, with
    /// and without a threshold `Select` over it.
    #[test]
    fn aggregate_matches_reference(l in rows2(), sym in any::<bool>(), min in 0i64..4) {
        let db = db2_of(&l, &[], sym);
        let l_rel = db.get("l").unwrap();
        let mut aggs = vec![AggFn::Count, AggFn::Min(1), AggFn::Max(1), AggFn::Max(0)];
        if !sym {
            aggs.push(AggFn::Sum(1));
        }
        for group in [vec![0], vec![0, 1], vec![1], vec![1, 0]] {
            for &agg in &aggs {
                for min in [None, Some(min)] {
                    let plan = aggregate_plan(PhysicalPlan::scan("l"), &group, agg, min);
                    let got = execute(&plan, &db).unwrap();
                    let want = reference_aggregate(l_rel, &group, agg, min);
                    prop_assert_eq!(got.tuples(), want.as_slice(), "group {:?} {:?} >= {:?}", group, agg, min);
                }
            }
        }
    }

    /// Union ≡ set union.
    #[test]
    fn union_reference(l in rows2(), r in rows2()) {
        let db = db2(&l, &r);
        let plan = PhysicalPlan::union(vec![PhysicalPlan::scan("l"), PhysicalPlan::scan("r")]);
        let got = execute(&plan, &db).unwrap();
        let mut want: Vec<Tuple> = db.get("l").unwrap().iter().cloned().collect();
        want.extend(db.get("r").unwrap().iter().cloned());
        let want = dedup_sorted(want);
        prop_assert_eq!(got.tuples(), want.as_slice());
    }

    /// On leading-key layouts the executor routes HashJoin through the
    /// merge fast path; both it and a direct `merge_join` must agree
    /// with a brute-force nested-loop reference.
    #[test]
    fn merge_join_agrees_with_hash(l in rows2(), r in rows2()) {
        let db = db2(&l, &r);
        let l_rel = db.get("l").unwrap();
        let r_rel = db.get("r").unwrap();
        let want = reference_join(l_rel, r_rel, &[(0, 0)]);
        let merged = qf_engine::merge_join(l_rel, r_rel, 1).unwrap();
        prop_assert_eq!(merged.tuples(), want.as_slice());
        let hash_plan = PhysicalPlan::hash_join(
            PhysicalPlan::scan("l"),
            PhysicalPlan::scan("r"),
            vec![(0, 0)],
        );
        let hashed = execute(&hash_plan, &db).unwrap();
        prop_assert_eq!(merged.tuples(), hashed.tuples());
    }

    /// Parallel and single-thread execution produce identical relations
    /// on a plan exercising join, select, project, and aggregate.
    #[test]
    fn threads_do_not_change_results(l in rows2(), r in rows2()) {
        let db = db2(&l, &r);
        let plan = PhysicalPlan::aggregate(
            PhysicalPlan::project(
                PhysicalPlan::select(
                    PhysicalPlan::hash_join(
                        PhysicalPlan::scan("l"),
                        PhysicalPlan::scan("r"),
                        vec![(1, 0)],
                    ),
                    vec![Predicate::col_const(0, CmpOp::Ge, Value::int(1))],
                ),
                vec![0, 2],
            ),
            vec![0],
            AggFn::Count,
        );
        let one = execute_with(&plan, &db, &ExecContext::unbounded().with_threads(1)).unwrap();
        let four = execute_with(&plan, &db, &ExecContext::unbounded().with_threads(4)).unwrap();
        prop_assert_eq!(one.tuples(), four.tuples());
        prop_assert_eq!(one.schema(), four.schema());
    }

    /// Governed execution with a random row budget either completes
    /// within the budget or fails with `ResourceExhausted { Rows }` —
    /// it never materializes more tuples than the budget allows, and a
    /// successful governed run agrees with the ungoverned one.
    #[test]
    fn row_budget_never_exceeded(l in rows2(), r in rows2(), budget in 0u64..200) {
        let db = db2(&l, &r);
        let plan = PhysicalPlan::aggregate(
            PhysicalPlan::hash_join(
                PhysicalPlan::scan("l"),
                PhysicalPlan::scan("r"),
                vec![(1, 0)],
            ),
            vec![0],
            AggFn::Count,
        );
        let ctx = ExecContext::unbounded().with_max_rows(budget);
        match execute_with(&plan, &db, &ctx) {
            Ok(rel) => {
                prop_assert!(ctx.stats().rows <= budget,
                    "materialized {} rows under a budget of {budget}", ctx.stats().rows);
                prop_assert!(rel.len() as u64 <= budget);
                let free = execute(&plan, &db).unwrap();
                prop_assert_eq!(rel.tuples(), free.tuples());
            }
            Err(EngineError::ResourceExhausted { resource: Resource::Rows, limit, observed }) => {
                prop_assert_eq!(limit, budget);
                prop_assert!(observed > budget);
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }

    /// Estimation never panics and respects the distinct ≤ rows invariant.
    #[test]
    fn estimates_well_formed(l in rows2(), r in rows2()) {
        let db = db2(&l, &r);
        let plan = PhysicalPlan::aggregate(
            PhysicalPlan::hash_join(
                PhysicalPlan::scan("l"),
                PhysicalPlan::scan("r"),
                vec![(1, 0)],
            ),
            vec![0],
            AggFn::Count,
        );
        let est = qf_engine::estimate(&plan, &db).unwrap();
        prop_assert!(est.rows >= 0.0);
        for d in &est.distinct {
            prop_assert!(*d <= est.rows.max(1.0) + 1e-9);
        }
        let cost = qf_engine::cost(&plan, &db).unwrap();
        prop_assert!(cost >= est.rows - 1e-9);
    }
}

/// A relation of `n` rows `(key, value)` whose keys come in runs of
/// `1..=max_run` rows, so at `n > 2 * PAR_THRESHOLD` worker chunks
/// start and end inside runs.
fn runs_db(n: usize, max_run: u64, seed: u64, sym: bool) -> Database {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut rows = Vec::with_capacity(n);
    let mut key = 0i64;
    while rows.len() < n {
        let run = 1 + next() % max_run;
        for v in 0..run.min((n - rows.len()) as u64) {
            rows.push(vec![val(key, sym), Value::int((v as i64 * 7919) % 97)]);
        }
        key += 1;
    }
    let mut db = Database::new();
    db.insert(Relation::from_rows(Schema::new("big", &["k", "v"]), rows));
    db.insert(Relation::from_rows(
        Schema::new("small", &["v", "w"]),
        (0..40)
            .map(|i| vec![Value::int(i % 97), Value::int(i)])
            .collect(),
    ));
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Past `2 * PAR_THRESHOLD` rows, 1, 2 and 4 threads cut the input
    /// into chunks; group runs straddle the cuts, and join probes run on
    /// both build sides. Every output equals the reference bitwise.
    #[test]
    fn parallel_chunks_match_reference(
        seed in any::<u64>(),
        max_run in prop::sample::select(vec![1u64, 40, 3000]),
        sym in any::<bool>(),
        min in 1i64..50,
    ) {
        let n = 2 * PAR_THRESHOLD + 1 + (seed % 4096) as usize;
        let db = runs_db(n, max_run, seed, sym);
        let big = db.get("big").unwrap();
        let small = db.get("small").unwrap();
        let cases = [
            (vec![0], AggFn::Count, Some(min)),
            (vec![0], AggFn::Sum(1), None),
            (vec![0], AggFn::Max(1), Some(min)),
            (vec![1], AggFn::Count, Some(min)),
            (vec![], AggFn::Count, None),
        ];
        let want_aggs: Vec<Vec<Tuple>> = cases
            .iter()
            .map(|(group, agg, min)| reference_aggregate(big, group, *agg, *min))
            .collect();
        let want_big_small = reference_join(big, small, &[(1, 0)]);
        let want_small_big = reference_join(small, big, &[(0, 1)]);
        for threads in [1, 2, 4] {
            let ctx = ExecContext::unbounded().with_threads(threads);
            for ((group, agg, min), want) in cases.iter().zip(&want_aggs) {
                let plan = aggregate_plan(PhysicalPlan::scan("big"), group, *agg, *min);
                let got = execute_with(&plan, &db, &ctx).unwrap();
                prop_assert_eq!(got.tuples(), want.as_slice(), "{} threads, group {:?} {:?}", threads, group, agg);
            }
            // big ⋈ small builds the right side; small ⋈ big builds the
            // left side and sorts its row ids.
            for (left, right, key, want) in [
                ("big", "small", (1, 0), &want_big_small),
                ("small", "big", (0, 1), &want_small_big),
            ] {
                let plan = PhysicalPlan::hash_join(
                    PhysicalPlan::scan(left),
                    PhysicalPlan::scan(right),
                    vec![key],
                );
                let got = execute_with(&plan, &db, &ctx).unwrap();
                prop_assert_eq!(got.tuples(), want.as_slice(), "{} threads, {} join {}", threads, left, right);
            }
        }
    }
}
