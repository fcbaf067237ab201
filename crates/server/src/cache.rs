//! The flock result cache and the plan cache.
//!
//! Both caches key on the **canonical** program text (normalized
//! variable names, sorted subgoals/rules — see
//! [`qf_core::FlockProgram::canonical_text`]) plus the **catalog
//! fingerprint**, so a hit is impossible against stale data: any
//! `load`/`gen` changes the fingerprint and old entries simply never
//! match again (the service additionally clears both caches on
//! mutation to reclaim the memory immediately).
//!
//! The result cache stores *scored* results — `(params…, aggregate)`
//! rows at the baseline filter they were computed under — which makes
//! reuse **monotone**: a cached run at support `s` answers any request
//! whose filter the baseline [subsumes](FilterCondition::subsumes)
//! (e.g. any `s' ≥ s`) by re-filtering rows, bitwise identically to a
//! cold evaluation. The plan cache remembers the searched `FILTER`
//! steps so a repeat flock at a *non*-subsumed threshold still skips
//! the exponential §4.3 plan search.

use std::sync::{Arc, Mutex};

use qf_core::{FilterCondition, FlockDelta, QueryFlock};
use qf_storage::Relation;

/// Cache key: canonical query text (threshold excluded — that is what
/// makes one entry serve a family of thresholds) + the aggregate's head
/// position + catalog fingerprint.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Canonical views + query text, no filter.
    pub query: String,
    /// Head position of the filter's aggregate column
    /// ([`qf_core::QueryFlock::agg_head_pos`]; `None` for `COUNT`).
    /// The canonical query text renames head variables, so the raw
    /// aggregate variable can't distinguish `SUM` over different
    /// columns of the same query — the position can, and keeping it in
    /// the key stops such programs evicting each other's entries.
    pub agg_pos: Option<usize>,
    /// [`qf_storage::Database::fingerprint`] of the catalog the entry
    /// was computed against.
    pub catalog_fp: u64,
}

impl CacheKey {
    /// The key for `flock` (whose canonical query text, with any
    /// views, is `query`) against the catalog with fingerprint
    /// `catalog_fp`.
    pub fn new(query: String, flock: &QueryFlock, catalog_fp: u64) -> CacheKey {
        CacheKey {
            query,
            agg_pos: flock.agg_head_pos(),
            catalog_fp,
        }
    }
}

/// One cached scored evaluation.
#[derive(Clone, Debug)]
pub struct CachedResult {
    /// The filter the scored run was computed under, in **canonical**
    /// form ([`qf_core::QueryFlock::canonical_filter`]: aggregate named
    /// by head position, not raw variable — the key's canonical query
    /// text renames variables, so raw names don't identify columns
    /// across entries); answers any canonical request filter it
    /// subsumes.
    pub baseline: FilterCondition,
    /// `(params…, agg)` rows passing `baseline`.
    pub scored: Relation,
    /// Strategy label of the original run (for response meta).
    pub strategy: String,
    /// Incremental-maintenance state ([`qf_core::FlockDelta`]) when the
    /// flock is delta-maintainable: the full counted answer multiset,
    /// updated in place on `append`/`retract` instead of dropping the
    /// entry. Shared behind a mutex because [`CachedResult`] is cloned
    /// out of the cache on hit while the mutation path updates the
    /// cached copy. `None` for non-maintainable flocks.
    pub delta: Option<Arc<Mutex<FlockDelta>>>,
}

/// A tiny exact-key LRU: most-recently-used at the front. Entry counts
/// are small (tens), so linear scans beat hash-map bookkeeping.
struct Lru<V> {
    cap: usize,
    entries: Vec<(CacheKey, V)>,
}

impl<V> Lru<V> {
    fn new(cap: usize) -> Lru<V> {
        Lru {
            cap: cap.max(1),
            entries: Vec::new(),
        }
    }

    fn get(&mut self, key: &CacheKey) -> Option<&V> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        let hit = self.entries.remove(pos);
        self.entries.insert(0, hit);
        Some(&self.entries[0].1)
    }

    fn insert(&mut self, key: CacheKey, value: V) {
        self.entries.retain(|(k, _)| *k != key);
        self.entries.insert(0, (key, value));
        self.entries.truncate(self.cap);
    }

    fn clear(&mut self) {
        self.entries.clear();
    }

    /// Precise invalidation after an `append` to one relation: drop
    /// entries the delta could change (`touches` their query) and any
    /// entry keyed at a fingerprint other than `old_fp` (already
    /// unreachable — reclaim the memory); re-key the survivors from
    /// `old_fp` to `new_fp`, since a query that never reads the
    /// appended relation evaluates identically against the new catalog.
    fn retain_rekey(&mut self, old_fp: u64, new_fp: u64, touches: &dyn Fn(&CacheKey) -> bool) {
        self.entries.retain_mut(|(k, _)| {
            if k.catalog_fp != old_fp || touches(k) {
                return false;
            }
            k.catalog_fp = new_fp;
            true
        });
    }

    /// Like [`Lru::retain_rekey`], but a touched entry gets a chance to
    /// *maintain itself*: `maintain` mutates the value in place (e.g.
    /// applies a delta join) and returns whether the entry is still
    /// valid. Entries it keeps are re-keyed to `new_fp` like untouched
    /// ones; entries at any other fingerprint are reclaimed as before.
    fn maintain_rekey(
        &mut self,
        old_fp: u64,
        new_fp: u64,
        touches: &dyn Fn(&CacheKey) -> bool,
        maintain: &mut dyn FnMut(&mut V) -> bool,
    ) {
        self.entries.retain_mut(|(k, v)| {
            if k.catalog_fp != old_fp {
                return false;
            }
            if touches(k) && !maintain(v) {
                return false;
            }
            k.catalog_fp = new_fp;
            true
        });
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// LRU cache of scored flock results with monotone reuse.
pub struct ResultCache {
    lru: Lru<CachedResult>,
}

impl ResultCache {
    /// Cache holding up to `cap` scored results.
    pub fn new(cap: usize) -> ResultCache {
        ResultCache { lru: Lru::new(cap) }
    }

    /// Look up an entry able to answer `filter` exactly: same key and
    /// a baseline that subsumes the requested condition. `filter` must
    /// be the request flock's *canonical* filter (see
    /// [`CachedResult::baseline`]). Refreshes LRU order on hit.
    pub fn lookup(&mut self, key: &CacheKey, filter: &FilterCondition) -> Option<CachedResult> {
        let entry = self.lru.get(key)?;
        if entry.baseline.subsumes(filter) {
            Some(entry.clone())
        } else {
            None
        }
    }

    /// Store a scored result. When an entry already exists under the
    /// key, keep whichever baseline **subsumes** the other: a run at a
    /// loose threshold answers every tighter one, so replacing it with
    /// a tight-threshold run would silently narrow cache coverage (the
    /// old bug: "most recent baseline wins"). The survivor still moves
    /// to the front — coverage and recency are separate concerns.
    pub fn insert(&mut self, key: CacheKey, entry: CachedResult) {
        let keep = match self.lru.get(&key) {
            Some(old) if old.baseline.subsumes(&entry.baseline) => {
                let mut kept = old.clone();
                // The maintenance state is baseline-independent (it
                // tracks the full unfiltered multiset), so a surviving
                // loose entry adopts the fresher run's delta handle.
                if kept.delta.is_none() {
                    kept.delta = entry.delta;
                }
                kept
            }
            _ => entry,
        };
        self.lru.insert(key, keep);
    }

    /// Drop everything (catalog mutation).
    pub fn clear(&mut self) {
        self.lru.clear();
    }

    /// Precise invalidation for an `append`: see [`Lru::retain_rekey`].
    pub fn retain_rekey(&mut self, old_fp: u64, new_fp: u64, touches: &dyn Fn(&CacheKey) -> bool) {
        self.lru.retain_rekey(old_fp, new_fp, touches);
    }

    /// Delta-aware invalidation for an `append`/`retract`: touched
    /// entries are offered to `maintain` (which updates them in place
    /// and says whether they survive) instead of being dropped
    /// unconditionally. See [`Lru::maintain_rekey`].
    pub fn maintain_rekey(
        &mut self,
        old_fp: u64,
        new_fp: u64,
        touches: &dyn Fn(&CacheKey) -> bool,
        maintain: &mut dyn FnMut(&mut CachedResult) -> bool,
    ) {
        self.lru.maintain_rekey(old_fp, new_fp, touches, maintain);
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.lru.len() == 0
    }
}

/// LRU cache of searched plan shapes (`FILTER` steps). The steps carry
/// no threshold — the filter is applied from the flock at execution
/// time — so one searched shape serves every threshold of the query.
pub struct PlanCache {
    lru: Lru<Vec<qf_core::FilterStep>>,
}

impl PlanCache {
    /// Cache holding up to `cap` plan shapes.
    pub fn new(cap: usize) -> PlanCache {
        PlanCache { lru: Lru::new(cap) }
    }

    /// Fetch the cached steps for a key, refreshing LRU order.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<Vec<qf_core::FilterStep>> {
        self.lru.get(key).cloned()
    }

    /// Store a searched plan shape.
    pub fn insert(&mut self, key: CacheKey, steps: Vec<qf_core::FilterStep>) {
        self.lru.insert(key, steps);
    }

    /// Drop everything (catalog mutation — plan choice depends on
    /// catalog statistics).
    pub fn clear(&mut self) {
        self.lru.clear();
    }

    /// Precise invalidation for an `append`: see [`Lru::retain_rekey`].
    /// Plan shapes of queries reading the appended relation are dropped
    /// too — plan choice depends on its statistics.
    pub fn retain_rekey(&mut self, old_fp: u64, new_fp: u64, touches: &dyn Fn(&CacheKey) -> bool) {
        self.lru.retain_rekey(old_fp, new_fp, touches);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qf_storage::{Schema, Value};

    fn key(q: &str, fp: u64) -> CacheKey {
        CacheKey {
            query: q.to_string(),
            agg_pos: None,
            catalog_fp: fp,
        }
    }

    fn entry(support: i64) -> CachedResult {
        CachedResult {
            baseline: FilterCondition::support(support),
            scored: Relation::from_rows(
                Schema::new("scored_result", &["p", "agg"]),
                vec![vec![Value::str("a"), Value::int(5)]],
            ),
            strategy: "static".to_string(),
            delta: None,
        }
    }

    #[test]
    fn maintain_rekey_lets_touched_entries_survive() {
        let mut c = ResultCache::new(8);
        c.insert(key("answer :- baskets(B,I)", 1), entry(2));
        c.insert(key("answer :- dict(W)", 1), entry(2));
        // The touched entry maintains itself (closure mutates + keeps).
        let mut maintained = 0;
        c.maintain_rekey(1, 9, &|k| k.query.contains("baskets"), &mut |e| {
            e.strategy = "delta".to_string();
            maintained += 1;
            true
        });
        assert_eq!(maintained, 1);
        let hit = c
            .lookup(
                &key("answer :- baskets(B,I)", 9),
                &FilterCondition::support(2),
            )
            .expect("maintained entry must survive re-keyed");
        assert_eq!(hit.strategy, "delta");
        // Untouched entries re-key without the closure running.
        assert!(c
            .lookup(&key("answer :- dict(W)", 9), &FilterCondition::support(2))
            .is_some());
        // A declining closure drops the entry like retain_rekey would.
        c.maintain_rekey(9, 11, &|k| k.query.contains("baskets"), &mut |_| false);
        assert!(c
            .lookup(
                &key("answer :- baskets(B,I)", 11),
                &FilterCondition::support(2),
            )
            .is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn monotone_lookup() {
        let mut c = ResultCache::new(4);
        c.insert(key("q", 1), entry(3));
        // Subsumed thresholds hit; looser ones and other keys miss.
        assert!(c
            .lookup(&key("q", 1), &FilterCondition::support(3))
            .is_some());
        assert!(c
            .lookup(&key("q", 1), &FilterCondition::support(9))
            .is_some());
        assert!(c
            .lookup(&key("q", 1), &FilterCondition::support(2))
            .is_none());
        assert!(c
            .lookup(&key("q", 2), &FilterCondition::support(3))
            .is_none());
        assert!(c
            .lookup(&key("r", 1), &FilterCondition::support(3))
            .is_none());
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = ResultCache::new(2);
        c.insert(key("a", 1), entry(1));
        c.insert(key("b", 1), entry(1));
        // Touch `a` so `b` is the LRU victim.
        assert!(c
            .lookup(&key("a", 1), &FilterCondition::support(1))
            .is_some());
        c.insert(key("c", 1), entry(1));
        assert_eq!(c.len(), 2);
        assert!(c
            .lookup(&key("a", 1), &FilterCondition::support(1))
            .is_some());
        assert!(c
            .lookup(&key("b", 1), &FilterCondition::support(1))
            .is_none());
        assert!(c
            .lookup(&key("c", 1), &FilterCondition::support(1))
            .is_some());
    }

    #[test]
    fn reinsert_replaces() {
        let mut c = ResultCache::new(2);
        c.insert(key("a", 1), entry(5));
        c.insert(key("a", 1), entry(2));
        assert_eq!(c.len(), 1);
        // The newer, looser baseline answers support 2.
        assert!(c
            .lookup(&key("a", 1), &FilterCondition::support(2))
            .is_some());
    }

    #[test]
    fn retain_rekey_drops_touched_and_rekeys_the_rest() {
        let mut c = ResultCache::new(8);
        c.insert(key("answer :- baskets(B,I)", 1), entry(2));
        c.insert(key("answer :- dict(W)", 1), entry(2));
        c.insert(key("answer :- dict(W), aux(W)", 7), entry(2)); // stale fp
        c.retain_rekey(1, 9, &|k| k.query.contains("baskets"));
        // The query over the appended relation is gone at both fps.
        assert!(c
            .lookup(
                &key("answer :- baskets(B,I)", 9),
                &FilterCondition::support(2)
            )
            .is_none());
        // The untouched query moved from fp 1 to fp 9.
        assert!(c
            .lookup(&key("answer :- dict(W)", 9), &FilterCondition::support(2))
            .is_some());
        assert!(c
            .lookup(&key("answer :- dict(W)", 1), &FilterCondition::support(2))
            .is_none());
        // The already-unreachable stale-fp entry was reclaimed.
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn loose_baseline_survives_tight_reinsert() {
        let mut c = ResultCache::new(2);
        // A loose-threshold run (support 2) is cached, then the same
        // query runs at a tight threshold (support 9). The loose entry
        // subsumes the tight one — it must survive, or the cache
        // forgets it can answer supports 2..9.
        c.insert(key("a", 1), entry(2));
        c.insert(key("a", 1), entry(9));
        assert_eq!(c.len(), 1);
        let hit = c
            .lookup(&key("a", 1), &FilterCondition::support(2))
            .expect("loose baseline must survive a tight-threshold insert");
        assert_eq!(hit.baseline, FilterCondition::support(2));
        // And it still answers the tight threshold too.
        assert!(c
            .lookup(&key("a", 1), &FilterCondition::support(9))
            .is_some());
    }
}
