//! Global string interning.
//!
//! Item names, words, symptom and medicine identifiers appear in millions
//! of tuples but draw from small vocabularies. Interning maps each
//! distinct string to a 32-bit [`Symbol`] once; equality, hashing, and
//! copying of values then never touch string data.
//!
//! The interner is process-global so that symbols from generators, parsed
//! queries, and loaded data files all live in one namespace — a tuple
//! produced by `qf-datagen` joins directly against a constant written in
//! a Datalog query string.
//!
//! Interned strings are leaked (they live for the process lifetime).
//! Mining vocabularies are bounded, so this is the usual arena trade-off
//! rather than a practical leak.

use std::sync::{OnceLock, RwLock};

use crate::hash::FastMap;

/// A handle to an interned string. Two symbols are equal iff the strings
/// they intern are equal.
///
/// `Ord` on `Symbol` is **lexicographic on the underlying strings**, not
/// on intern ids: the paper's flocks use arithmetic subgoals like
/// `$1 < $2` to order word pairs lexicographically (§2.3), so symbol
/// comparison must agree with string comparison.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

/// String → id map. Only [`Symbol::intern`] takes this lock; reads of
/// an id's string go through [`STRINGS`] and never lock.
static INTERNER: RwLock<Option<FastMap<&'static str, u32>>> = RwLock::new(None);

/// log2 of the first table segment's length.
const SEGMENT0_BITS: u32 = 10;
/// Segment `s` holds ids `(2^s - 1) << SEGMENT0_BITS ..`, `1 << (SEGMENT0_BITS + s)`
/// of them, so 23 segments cover every `u32` id.
const SEGMENTS: usize = 33 - SEGMENT0_BITS as usize;

type Segment = Box<[OnceLock<&'static str>]>;

/// The id → string table: append-only, in segments that double in
/// length and are allocated on first use. A slot is written once, under
/// the interner's write lock, before its id is handed out, so a reader
/// holding a symbol always finds its slot filled: `OnceLock::set`
/// publishes the string with release ordering and `get` reads it with
/// acquire ordering.
static STRINGS: [OnceLock<Segment>; SEGMENTS] = [const { OnceLock::new() }; SEGMENTS];

/// The (segment, offset) of an id's slot in [`STRINGS`].
fn slot(id: u32) -> (usize, usize) {
    let x = u64::from(id) + (1 << SEGMENT0_BITS);
    let seg = 63 - x.leading_zeros() - SEGMENT0_BITS;
    (seg as usize, (x - (1 << (SEGMENT0_BITS + seg))) as usize)
}

impl Symbol {
    /// Intern `s`, returning its symbol. Idempotent.
    pub fn intern(s: &str) -> Symbol {
        // Lock poisoning is recovered everywhere: the interner's
        // invariants hold after every individual write, so a panic in
        // an unrelated thread never invalidates the map.
        // Fast path: read lock only.
        if let Some(map) = INTERNER.read().unwrap_or_else(|e| e.into_inner()).as_ref() {
            if let Some(&id) = map.get(s) {
                return Symbol(id);
            }
        }
        let mut guard = INTERNER.write().unwrap_or_else(|e| e.into_inner());
        let map = guard.get_or_insert_with(FastMap::default);
        if let Some(&id) = map.get(s) {
            return Symbol(id);
        }
        // > 4 billion distinct strings would have OOMed long before
        // this cast could truncate; an abort is the only sane response.
        assert!(map.len() < u32::MAX as usize, "interner overflow");
        let id = map.len() as u32;
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let (seg, off) = slot(id);
        let segment = STRINGS[seg].get_or_init(|| {
            (0..1usize << (SEGMENT0_BITS as usize + seg))
                .map(|_| OnceLock::new())
                .collect()
        });
        // Ids are handed out in order under the write lock, so the
        // slot is still empty.
        let _ = segment[off].set(leaked);
        map.insert(leaked, id);
        Symbol(id)
    }

    /// The interned string. Lock-free: sorting tuples of symbols calls
    /// this on every comparison, from every worker thread.
    ///
    /// # Panics
    /// If `self` was produced by a different process (symbols are not
    /// serializable across runs). Unreachable for symbols obtained from
    /// [`Symbol::intern`] in this process.
    pub fn as_str(self) -> &'static str {
        let (seg, off) = slot(self.0);
        match STRINGS[seg].get().and_then(|s| s[off].get()) {
            Some(s) => s,
            None => panic!("symbol id {} is not in this process's interner", self.0),
        }
    }

    /// Raw intern id; stable within a process run. Useful as a dense key.
    pub fn id(self) -> u32 {
        self.0
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl std::fmt::Debug for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl std::fmt::Display for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let a = Symbol::intern("beer");
        let b = Symbol::intern("beer");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.as_str(), "beer");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        assert_ne!(Symbol::intern("beer"), Symbol::intern("diapers"));
    }

    #[test]
    fn order_is_lexicographic_not_id_order() {
        // Intern in reverse lexicographic order so id order disagrees.
        let z = Symbol::intern("zzz-order-test");
        let a = Symbol::intern("aaa-order-test");
        assert!(a < z, "symbol order must follow string order");
    }

    #[test]
    fn slots_tile_the_id_space() {
        let seg0 = 1u32 << SEGMENT0_BITS;
        assert_eq!(slot(0), (0, 0));
        assert_eq!(slot(seg0 - 1), (0, seg0 as usize - 1));
        assert_eq!(slot(seg0), (1, 0));
        assert_eq!(slot(3 * seg0), (2, 0));
        assert_eq!(slot(u32::MAX).0, SEGMENTS - 1);
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| Symbol::intern("shared-key").id()))
            .collect();
        let ids: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));

        // Interners fill the rest of the current table segment and start
        // the next one while comparers intern the same strings and
        // compare them; every comparison must agree with `str::cmp`.
        let probe = Symbol::intern("boundary-probe").id();
        let (seg, _) = slot(probe);
        let next_segment = ((2u32 << seg) - 1) << SEGMENT0_BITS;
        let n = (next_segment - probe) as usize + 64;
        let names: Vec<String> = (0..n).map(|i| format!("boundary-{}", n - i)).collect();
        let names = std::sync::Arc::new(names);
        let start = std::sync::Arc::new(std::sync::Barrier::new(6));
        let handles: Vec<_> = (0..6)
            .map(|t| {
                let names = std::sync::Arc::clone(&names);
                let start = std::sync::Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    let mut syms: Vec<Symbol> = Vec::new();
                    if t < 2 {
                        // Interners split the names between them.
                        for name in names.iter().skip(t).step_by(2) {
                            syms.push(Symbol::intern(name));
                        }
                    } else {
                        // Comparers walk the names in their own order.
                        let mut prev: Option<(Symbol, &str)> = None;
                        for i in (0..names.len()).map(|i| (i * (2 * t + 1)) % names.len()) {
                            let sym = Symbol::intern(&names[i]);
                            assert_eq!(sym.as_str(), names[i]);
                            if let Some((p, p_str)) = prev {
                                assert_eq!(p.cmp(&sym), p_str.cmp(&names[i]));
                                assert_eq!(sym.cmp(&p), names[i].as_str().cmp(p_str));
                            }
                            prev = Some((sym, &names[i]));
                            syms.push(sym);
                        }
                    }
                    syms.iter()
                        .map(|s| (s.as_str().to_string(), s.id()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut ids: FastMap<String, u32> = FastMap::default();
        for h in handles {
            for (name, id) in h.join().unwrap() {
                assert_eq!(*ids.entry(name).or_insert(id), id, "one string, two ids");
            }
        }
        assert_eq!(ids.len(), n);
        assert!(
            ids.values().any(|&id| id >= next_segment),
            "no id crossed the segment boundary"
        );
    }
}
