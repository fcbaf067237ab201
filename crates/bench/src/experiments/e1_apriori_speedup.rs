//! **E1 — the §1.3 claim (Fig. 1).** "Rewriting the query of Fig. 1 to
//! first find those items that appeared in at least 20 baskets …
//! resulted in a 20-fold speedup" on word occurrences in newspaper
//! articles.
//!
//! We run the Fig. 2 pair flock over a Zipf word corpus two ways:
//!
//! * **direct** — one monolithic join-group-filter plan with the
//!   subgoal order exactly as written (what a conventional optimizer
//!   does with the Fig. 1 SQL);
//! * **a-priori rewrite** — the Fig. 5-shaped plan: prefilter each
//!   parameter by support, then the restricted join.
//!
//! The absolute ratio depends on engine and data; the *shape* to check
//! is an order-of-magnitude win that grows with threshold skew.

use qf_core::{
    default_threads, evaluate_direct, execute_plan, execute_plan_with, single_param_plan,
    ExecContext, JoinOrderStrategy, QueryFlock,
};

use crate::table::{fmt_duration, Table};
use crate::timing::{speedup, time_median};
use crate::workloads::words_db;
use crate::Scale;

/// The Fig. 2 flock at a given support threshold.
pub fn pair_flock(threshold: i64) -> QueryFlock {
    QueryFlock::with_support(
        "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
        threshold,
    )
    .expect("static flock text")
}

/// Run E1.
pub fn run(scale: Scale) -> Vec<Table> {
    let db = words_db(scale);
    let thresholds: &[i64] = match scale {
        Scale::Small => &[5, 10, 20],
        Scale::Full => &[10, 20, 40, 80],
    };
    let reps = match scale {
        Scale::Small => 3,
        Scale::Full => 3,
    };

    let mut table = Table::new(
        "E1 (§1.3, Fig. 1): a-priori rewrite speedup on Zipf word pairs",
        &["support", "direct", "rewritten", "speedup", "pairs found"],
    );
    table.note(format!(
        "baskets relation: {} (doc,word) tuples, {} distinct words",
        db.get("baskets").unwrap().len(),
        db.get("baskets").unwrap().distinct(1)
    ));
    table.note(
        "direct = Fig. 1 shape, join order as written; rewritten = ok_1/ok_2 \
         support prefilters, then the restricted join ordered greedily from \
         the materialized reduction statistics (the paper's rewrite joins \
         the frequent-item set with baskets first, §1.3)."
            .to_string(),
    );

    for &threshold in thresholds {
        let flock = pair_flock(threshold);
        let (direct_result, direct_t) = time_median(reps, || {
            evaluate_direct(&flock, &db, JoinOrderStrategy::AsWritten).unwrap()
        });
        let plan = single_param_plan(&flock, &db).unwrap();
        let (rewritten, rewritten_t) = time_median(reps, || {
            execute_plan(&plan, &db, JoinOrderStrategy::Greedy).unwrap()
        });
        assert_eq!(
            direct_result.tuples(),
            rewritten.result.tuples(),
            "rewrite must not change the answer"
        );
        table.row(vec![
            threshold.to_string(),
            fmt_duration(direct_t),
            fmt_duration(rewritten_t),
            format!("{:.1}x", speedup(direct_t, rewritten_t)),
            direct_result.len().to_string(),
        ]);
    }
    vec![table, thread_scaling_table(scale)]
}

/// Thread-scaling companion table: the rewritten plan pinned to one
/// worker vs. the configured parallelism ([`default_threads`]). On a
/// single-core host the two columns coincide (the pool never spawns
/// more workers than can run).
fn thread_scaling_table(scale: Scale) -> Table {
    let db = words_db(scale);
    let n = default_threads();
    let mut table = Table::new(
        "E1b: rewritten-plan thread scaling (1 thread vs. configured)",
        &[
            "support",
            "1 thread",
            &format!("{n} thread(s)"),
            "speedup",
            "pairs found",
        ],
    );
    table.note(format!(
        "configured parallelism: {n} (QF_THREADS or available cores); \
         partition-parallel join probe, select, and aggregate chunks cut at \
         group boundaries, identical results at every thread count"
    ));
    let thresholds: &[i64] = match scale {
        Scale::Small => &[5, 20],
        Scale::Full => &[10, 40],
    };
    for &threshold in thresholds {
        let flock = pair_flock(threshold);
        let plan = single_param_plan(&flock, &db).unwrap();
        let one_ctx = ExecContext::unbounded().with_threads(1);
        let (one_result, one_t) = time_median(3, || {
            execute_plan_with(&plan, &db, JoinOrderStrategy::Greedy, &one_ctx).unwrap()
        });
        let many_ctx = ExecContext::unbounded().with_threads(n);
        let (many_result, many_t) = time_median(3, || {
            execute_plan_with(&plan, &db, JoinOrderStrategy::Greedy, &many_ctx).unwrap()
        });
        assert_eq!(
            one_result.result.tuples(),
            many_result.result.tuples(),
            "thread count must not change the answer"
        );
        table.row(vec![
            threshold.to_string(),
            fmt_duration(one_t),
            fmt_duration(many_t),
            format!("{:.1}x", speedup(one_t, many_t)),
            one_result.result.len().to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_runs_and_speeds_up() {
        let tables = run(Scale::Small);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows.len(), 3);
        // At the highest threshold the rewrite must win clearly.
        let last = tables[0].rows.last().unwrap();
        let speedup: f64 = last[3].trim_end_matches('x').parse().unwrap();
        assert!(speedup > 1.5, "expected a-priori win, got {speedup}x");
        // The scaling table always reports both thread columns.
        assert_eq!(tables[1].rows.len(), 2);
    }

    /// On a genuinely multi-core host, the partition-parallel engine
    /// must beat its own single-thread run by ≥1.5× on the direct
    /// (join-heavy) evaluation of a low-threshold pair flock. Skipped
    /// where the hardware cannot run two workers at once — `QF_THREADS`
    /// cannot conjure cores.
    #[test]
    fn multicore_parallel_speedup() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores < 2 {
            return;
        }
        let db = crate::workloads::words_db(Scale::Small);
        let flock = pair_flock(5);
        let plan = qf_core::direct_plan(&flock).unwrap();
        let threads = cores.min(4);
        let one_ctx = ExecContext::unbounded().with_threads(1);
        let (one_result, one_t) = crate::timing::time_median(3, || {
            execute_plan_with(&plan, &db, JoinOrderStrategy::Greedy, &one_ctx).unwrap()
        });
        let many_ctx = ExecContext::unbounded().with_threads(threads);
        let (many_result, many_t) = crate::timing::time_median(3, || {
            execute_plan_with(&plan, &db, JoinOrderStrategy::Greedy, &many_ctx).unwrap()
        });
        assert_eq!(one_result.result.tuples(), many_result.result.tuples());
        let s = crate::timing::speedup(one_t, many_t);
        assert!(
            s >= 1.5,
            "expected >=1.5x parallel speedup on {threads} of {cores} cores, got {s:.2}x \
             ({one_t:?} -> {many_t:?})"
        );
    }
}
