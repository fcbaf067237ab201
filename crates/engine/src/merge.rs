//! Sort-merge join.
//!
//! The engine's relations are stored sorted by full tuple, so a join
//! whose keys are the **leading columns of both sides** can skip hash
//! tables entirely and merge the two sorted runs. Mining plans hit this
//! case constantly — `FILTER`-step outputs are keyed by their parameter
//! columns, which are the leading columns by construction — and the
//! merge path avoids the build table.
//!
//! Neither path sorts output tuples: both emit `left ++ right` in
//! (left row, right row) order, which over two sorted sets is already
//! canonical. When the hash path builds the left side, it collects
//! row-id pairs and sorts those as integers before building tuples.
//!
//! [`merge_join`] requires the leading-column precondition
//! ([`merge_joinable`]) and asserts the key count fits both arities;
//! [`join_auto_with`] picks merge when the key layout permits and falls
//! back to a smaller-side-build hash join with a parallel probe
//! otherwise. The executor's `HashJoin` operator delegates to
//! [`join_auto_with`], so every plan-level join gets both the merge
//! fast path and the build-side choice.

use std::cmp::Ordering;

use qf_storage::{HashIndex, Relation, Schema, Tuple};

use crate::error::Result;
use crate::governor::ExecContext;
use crate::parallel;

/// True if `keys` are exactly the leading columns of both inputs, in
/// order — the precondition under which sorted-run merging is correct
/// (relations are sorted by full tuple, so they are sorted by any
/// leading-column prefix).
pub fn merge_joinable(keys: &[(usize, usize)]) -> bool {
    keys.iter().enumerate().all(|(i, &(l, r))| l == i && r == i)
}

/// Sort-merge join on the leading `n_keys` columns of both inputs,
/// governed by `ctx`. Output is `left ++ right`, sorted and
/// deduplicated.
///
/// # Panics
///
/// Asserts that `n_keys` does not exceed either input's arity — the
/// real precondition of merging sorted runs. (That the inputs are
/// sorted on those leading columns is guaranteed by `Relation`'s
/// sorted-by-full-tuple invariant, debug-checked here.)
pub fn merge_join_with(
    left: &Relation,
    right: &Relation,
    n_keys: usize,
    ctx: &ExecContext,
) -> Result<Relation> {
    assert!(
        n_keys <= left.schema().arity() && n_keys <= right.schema().arity(),
        "merge_join: {n_keys} key columns exceed input arity ({} / {})",
        left.schema().arity(),
        right.schema().arity()
    );
    debug_assert!(
        left.tuples().windows(2).all(|w| w[0] <= w[1])
            && right.tuples().windows(2).all(|w| w[0] <= w[1]),
        "merge_join inputs must be sorted"
    );
    let schema = concat_schema(left, right);
    let width = schema.arity();
    let lt = left.tuples();
    let rt = right.tuples();
    let mut out: Vec<Tuple> = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    let key_cmp = |a: &Tuple, b: &Tuple| -> Ordering {
        for k in 0..n_keys {
            match a.get(k).cmp(&b.get(k)) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        Ordering::Equal
    };
    while i < lt.len() && j < rt.len() {
        ctx.tick()?;
        match key_cmp(&lt[i], &rt[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                // Find both runs of equal keys and emit the product.
                let i_end = run_end(lt, i, n_keys);
                let j_end = run_end(rt, j, n_keys);
                for a in &lt[i..i_end] {
                    for b in &rt[j..j_end] {
                        ctx.charge_row(width)?;
                        out.push(a.concat(b));
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    // Runs come in key order, and within a run every left tuple is
    // paired with the right run in order: the output is left-major over
    // two sorted sets, so it is already sorted and distinct.
    Ok(Relation::from_sorted_dedup(schema, out))
}

/// Ungoverned [`merge_join_with`] (unbounded context).
pub fn merge_join(left: &Relation, right: &Relation, n_keys: usize) -> Result<Relation> {
    merge_join_with(left, right, n_keys, &ExecContext::unbounded())
}

/// End of the run of tuples sharing `t[start]`'s leading `n_keys` values.
fn run_end(tuples: &[Tuple], start: usize, n_keys: usize) -> usize {
    let mut end = start + 1;
    while end < tuples.len() && (0..n_keys).all(|k| tuples[end].get(k) == tuples[start].get(k)) {
        end += 1;
    }
    end
}

/// Join two materialized relations under `ctx`, choosing merge when the
/// key layout permits, hash otherwise. The hash path builds its table
/// on the **smaller** input and probes the larger one with up to
/// [`ExecContext::threads`] workers. Output is `left ++ right`, sorted
/// and deduplicated, identical regardless of path or build side.
pub fn join_auto_with(
    left: &Relation,
    right: &Relation,
    keys: &[(usize, usize)],
    ctx: &ExecContext,
) -> Result<Relation> {
    if !keys.is_empty() && merge_joinable(keys) {
        return merge_join_with(left, right, keys.len(), ctx);
    }
    let (lk, rk): (Vec<usize>, Vec<usize>) = keys.iter().copied().unzip();
    let schema = concat_schema(left, right);
    let width = schema.arity();
    // Build on the smaller side: the build table is the O(n) memory
    // cost, the probe side only streams.
    let build_left = left.len() < right.len();
    let (build, probe, build_keys, probe_keys) = if build_left {
        (left, right, &lk, &rk)
    } else {
        (right, left, &rk, &lk)
    };
    let idx = HashIndex::build(build, build_keys);
    let workers = parallel::workers_for(probe.len(), ctx.threads());
    ctx.note_workers(workers);
    let (lt, rt) = (left.tuples(), right.tuples());
    let out: Vec<Tuple> = if build_left {
        // Probing the right side finds (left row, right row) pairs in
        // right-major order: collect them as `left << 32 | right` ids,
        // sort those as integers, then build the tuples.
        let ranges = parallel::chunk_ranges(probe.len(), workers);
        let chunks = parallel::par_items(&ranges, workers, |r| -> Result<Vec<u64>> {
            let mut ids: Vec<u64> = Vec::new();
            for p in r.clone() {
                ctx.tick()?;
                for &b in idx.probe(&rt[p].project(probe_keys)) {
                    ctx.charge_row(width)?;
                    ids.push(u64::from(b) << 32 | p as u64);
                }
            }
            Ok(ids)
        })?;
        let mut ids: Vec<u64> = chunks.into_iter().flatten().collect();
        ids.sort_unstable();
        let workers = parallel::workers_for(ids.len(), ctx.threads());
        let chunks = parallel::par_chunks(&ids, workers, |c| -> Result<Vec<Tuple>> {
            Ok(c.iter()
                .map(|&id| lt[(id >> 32) as usize].concat(&rt[id as u32 as usize]))
                .collect())
        })?;
        chunks.into_iter().flatten().collect()
    } else {
        // Probing the left side in order, with each bucket listing right
        // rows in order, finds the pairs in (left row, right row) order.
        let chunks = parallel::par_chunks(lt, workers, |chunk| -> Result<Vec<Tuple>> {
            let mut out: Vec<Tuple> = Vec::new();
            for t in chunk {
                ctx.tick()?;
                for &b in idx.probe(&t.project(probe_keys)) {
                    ctx.charge_row(width)?;
                    out.push(t.concat(&rt[b as usize]));
                }
            }
            Ok(out)
        })?;
        chunks.into_iter().flatten().collect()
    };
    // Concatenating in (left row, right row) order over two sorted sets
    // gives sorted, distinct tuples.
    Ok(Relation::from_sorted_dedup(schema, out))
}

/// Ungoverned [`join_auto_with`] (unbounded context).
pub fn join_auto(left: &Relation, right: &Relation, keys: &[(usize, usize)]) -> Result<Relation> {
    join_auto_with(left, right, keys, &ExecContext::unbounded())
}

fn concat_schema(l: &Relation, r: &Relation) -> Schema {
    let mut names: Vec<String> = l.schema().columns().to_vec();
    names.extend(r.schema().columns().iter().cloned());
    Schema::from_columns("join", names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qf_storage::Value;

    fn rel(name: &str, rows: &[(i64, i64)]) -> Relation {
        Relation::from_rows(
            Schema::new(name, &["a", "b"]),
            rows.iter()
                .map(|&(a, b)| vec![Value::int(a), Value::int(b)])
                .collect(),
        )
    }

    #[test]
    fn merge_equals_hash_on_leading_keys() {
        let l = rel("l", &[(1, 10), (1, 11), (2, 20), (3, 30)]);
        let r = rel("r", &[(1, 100), (2, 200), (2, 201), (4, 400)]);
        let merged = merge_join(&l, &r, 1).unwrap();
        let hashed = join_auto(&l, &r, &[(0, 1)]).unwrap(); // not merge-joinable layout
                                                            // Compare against hash join on the same (leading) keys.
        let hashed_same = {
            let (lk, rk) = (vec![0], vec![0]);
            let idx = HashIndex::build(&r, &rk);
            let mut out = Vec::new();
            for a in l.iter() {
                for &row in idx.probe(&a.project(&lk)) {
                    out.push(a.concat(&r.tuples()[row as usize]));
                }
            }
            Relation::from_tuples(merged.schema().clone(), out)
        };
        assert_eq!(merged.tuples(), hashed_same.tuples());
        assert_eq!(merged.len(), 2 + 2); // key 1: 2×1, key 2: 1×2
        let _ = hashed;
    }

    #[test]
    fn composite_leading_keys() {
        let l = rel("l", &[(1, 10), (1, 11), (2, 10)]);
        let r = rel("r", &[(1, 10), (1, 11), (2, 11)]);
        let merged = merge_join(&l, &r, 2).unwrap();
        assert_eq!(merged.len(), 2); // (1,10) and (1,11) match exactly.
        for t in merged.iter() {
            assert_eq!(t.get(0), t.get(2));
            assert_eq!(t.get(1), t.get(3));
        }
    }

    #[test]
    fn zero_key_merge_is_cross_product_via_auto() {
        let l = rel("l", &[(1, 1), (2, 2)]);
        let r = rel("r", &[(3, 3)]);
        let j = join_auto(&l, &r, &[]).unwrap();
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn joinable_predicate() {
        assert!(merge_joinable(&[(0, 0)]));
        assert!(merge_joinable(&[(0, 0), (1, 1)]));
        assert!(!merge_joinable(&[(1, 0)]));
        assert!(!merge_joinable(&[(0, 0), (2, 1)]));
    }

    #[test]
    fn disjoint_keys_empty_result() {
        let l = rel("l", &[(1, 1)]);
        let r = rel("r", &[(2, 2)]);
        assert!(merge_join(&l, &r, 1).unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "exceed input arity")]
    fn too_many_keys_panics() {
        let l = rel("l", &[(1, 1)]);
        let r = rel("r", &[(2, 2)]);
        let _ = merge_join(&l, &r, 3);
    }

    #[test]
    fn build_side_does_not_change_result() {
        // Same key layout, asymmetric sizes in both directions: the
        // non-merge-joinable key (0, 1) forces the hash path.
        let small = rel("s", &[(1, 2), (3, 4)]);
        let big = rel("b", &(0..50).map(|i| (i % 5, i % 3)).collect::<Vec<_>>());
        let a = join_auto(&small, &big, &[(0, 1)]).unwrap();
        let b = join_auto(&big, &small, &[(1, 0)]).unwrap();
        // a's columns are small ++ big, b's are big ++ small; compare
        // cardinalities (same match set, transposed columns).
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
    }

    #[test]
    fn auto_picks_merge_and_agrees_with_hash() {
        // Property-style check over a grid of random-ish relations.
        for seed in 0..20i64 {
            let l_rows: Vec<(i64, i64)> =
                (0..30).map(|i| ((i * seed) % 7, (i + seed) % 5)).collect();
            let r_rows: Vec<(i64, i64)> = (0..25).map(|i| ((i + seed) % 7, (i * 3) % 4)).collect();
            let l = rel("l", &l_rows);
            let r = rel("r", &r_rows);
            let merged = merge_join(&l, &r, 1).unwrap();
            let auto = join_auto(&l, &r, &[(0, 0)]).unwrap();
            assert_eq!(merged.tuples(), auto.tuples(), "seed {seed}");
        }
    }

    #[test]
    fn governed_merge_join_charges_rows() {
        let l = rel("l", &[(1, 10), (2, 20)]);
        let r = rel("r", &[(1, 11), (2, 21)]);
        let ctx = ExecContext::unbounded();
        let out = merge_join_with(&l, &r, 1, &ctx).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(ctx.stats().rows, 2);
        // A 1-row budget trips mid-merge.
        let tight = ExecContext::unbounded().with_max_rows(1);
        assert!(merge_join_with(&l, &r, 1, &tight).is_err());
    }
}
