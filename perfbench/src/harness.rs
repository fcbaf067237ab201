//! Shared measurement state: latency classes, failure accounting, the
//! answer oracle, and the exact-repeat counter check.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use qf_core::{FlockProgram, Optimizer, QueryFlock};
use qf_server::service::render_tsv;
use qf_storage::{Database, Relation, Schema};

use crate::stats::{median, percentile};

/// What a timed operation stands for in the end-to-end metrics. An
/// operation's class comes from its place in the workload's script,
/// never from how the program happened to answer it, so a change that
/// turns a recompute into a cache hit moves a latency instead of
/// moving samples between metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// A flock request on a catalog state it was never answered on.
    Cold,
    /// An exact repeat or a tighter threshold of an answered request.
    Hit,
    /// A catalog mutation, acknowledged.
    Mutate,
    /// The first request of a warm flock after a mutation.
    Fresh,
}

pub const CLASSES: [(Class, &str); 4] = [
    (Class::Cold, "cold"),
    (Class::Hit, "hit"),
    (Class::Mutate, "mutate"),
    (Class::Fresh, "fresh"),
];

/// Samples and failures collected by one run.
pub struct Recorder {
    /// When false (a warm round), ops are counted and checked but their
    /// latencies are not sampled.
    pub sampling: bool,
    samples: BTreeMap<Class, Vec<f64>>,
    by_label: BTreeMap<String, Vec<f64>>,
    pub round_s: Vec<f64>,
    /// Ops sampled (completed in sampled rounds).
    sampled: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            sampling: true,
            samples: BTreeMap::new(),
            by_label: BTreeMap::new(),
            round_s: Vec::new(),
            sampled: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }
}

impl Recorder {
    /// Record one timed operation under each of `classes` and under its
    /// own label (for the per-operation table on standard error).
    pub fn sample(&mut self, label: &str, classes: &[Class], ms: f64) {
        self.attempted += 1;
        if !self.sampling {
            return;
        }
        self.sampled += 1;
        self.by_label.entry(label.to_string()).or_default().push(ms);
        for c in classes {
            self.samples.entry(*c).or_default().push(ms);
        }
    }

    /// Count a failed operation (typed error, timeout, retry, or wrong
    /// answer) and keep its description.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    pub fn samples(&self, class: Class) -> &[f64] {
        self.samples.get(&class).map_or(&[], Vec::as_slice)
    }

    /// `(p50, p90)` of a class, 0 when it has no samples.
    pub fn p50_p90(&self, class: Class) -> (f64, f64) {
        let s = self.samples(class);
        (
            percentile(s, 50.0).unwrap_or(0.0),
            percentile(s, 90.0).unwrap_or(0.0),
        )
    }

    pub fn median_round_s(&self) -> f64 {
        median(&self.round_s).unwrap_or(0.0)
    }

    /// Sampled ops per second of sampled round time.
    pub fn ops_per_s(&self) -> f64 {
        let total: f64 = self.round_s.iter().sum();
        if total > 0.0 {
            self.sampled as f64 / total
        } else {
            0.0
        }
    }

    /// One line per operation label: count, p50 and p90 in ms.
    pub fn label_table(&self) -> String {
        let mut out = String::new();
        for (label, v) in &self.by_label {
            let _ = writeln!(
                out,
                "  {label:<28} n={:<4} p50={:>9.3} p90={:>9.3}",
                v.len(),
                percentile(v, 50.0).unwrap_or(0.0),
                percentile(v, 90.0).unwrap_or(0.0)
            );
        }
        out
    }

    pub fn sample_counts(&self) -> String {
        let mut out = String::new();
        for (c, name) in CLASSES {
            let _ = write!(out, "{name}={} ", self.samples(c).len());
        }
        let _ = write!(out, "rounds={}", self.round_s.len());
        out
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One distinct answer: program, threshold and catalog state.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct AnswerKey {
    pub program: String,
    pub threshold: i64,
    pub catalog_fp: u64,
}

struct Seen {
    db: Database,
    body: String,
}

/// Checks every distinct answer byte for byte against an in-process
/// [`Optimizer`] evaluation of the same catalog. Replies are only
/// stored while the clock runs; the evaluations happen in
/// [`Oracle::verify`], after the timed window.
#[derive(Default)]
pub struct Oracle {
    seen: BTreeMap<AnswerKey, Seen>,
}

impl Oracle {
    /// Remember a reply. A later reply for the same key must carry the
    /// same bytes; a difference is reported as a failure description.
    pub fn observe(&mut self, key: AnswerKey, db: &Database, body: &str) -> Result<(), String> {
        match self.seen.get(&key) {
            Some(seen) if seen.body != body => Err(format!(
                "answer for {key:?} differs from an earlier reply of the same request"
            )),
            Some(_) => Ok(()),
            None => {
                self.seen.insert(
                    key,
                    Seen {
                        db: db.clone(),
                        body: body.to_string(),
                    },
                );
                Ok(())
            }
        }
    }

    pub fn distinct(&self) -> usize {
        self.seen.len()
    }

    /// Evaluate every distinct request with the optimizer and compare
    /// rendered bytes. Returns one description per mismatch.
    pub fn verify(&self) -> Vec<String> {
        let mut bad = Vec::new();
        for (key, seen) in &self.seen {
            match expected_answer(&key.program, key.threshold, &seen.db) {
                Ok(want) if want == seen.body => {}
                Ok(want) => bad.push(format!(
                    "wrong answer for {key:?}: {} reply lines, optimizer gives {}",
                    seen.body.lines().count(),
                    want.lines().count()
                )),
                Err(e) => bad.push(format!("optimizer failed on {key:?}: {e}")),
            }
        }
        bad
    }
}

/// A program text with its filter threshold replaced — the same
/// override the server applies for a request's `support`.
pub fn flock_at(text: &str, threshold: i64) -> Result<(FlockProgram, QueryFlock), String> {
    let program = FlockProgram::parse(text).map_err(|e| e.to_string())?;
    let filter = qf_core::FilterCondition {
        threshold,
        ..*program.flock().filter()
    };
    let flock =
        QueryFlock::new(program.flock().query().clone(), filter).map_err(|e| e.to_string())?;
    Ok((program, flock))
}

/// The rendered answer an in-process optimizer run gives for a program
/// at a threshold over a catalog, in the server's reply format.
fn expected_answer(text: &str, threshold: i64, db: &Database) -> Result<String, String> {
    let (_, flock) = flock_at(text, threshold)?;
    let eval = Optimizer::new()
        .evaluate(&flock, db)
        .map_err(|e| e.to_string())?;
    Ok(render_answer(&flock, eval.result))
}

/// Render a flock result the way the server does: relation
/// `flock_result`, one column per parameter.
pub fn render_answer(flock: &QueryFlock, result: Relation) -> String {
    let schema = Schema::from_columns("flock_result", flock.param_names());
    render_tsv(&Relation::from_tuples(schema, result.tuples().to_vec()))
}

/// Machine-independent counters of one round, checked for exact
/// repetition: two rounds with the same inputs and the same starting
/// state must produce the same vector.
#[derive(Default)]
pub struct RepeatCheck {
    first: BTreeMap<u64, Vec<(String, u64)>>,
    pub compared: u64,
    pub mismatches: Vec<String>,
}

impl RepeatCheck {
    /// Compare a round's counters with the first round of the same key.
    pub fn round(&mut self, key: u64, counters: Vec<(String, u64)>) {
        match self.first.get(&key) {
            None => {
                self.first.insert(key, counters);
            }
            Some(first) => {
                self.compared += 1;
                if *first != counters {
                    let diff: Vec<String> = first
                        .iter()
                        .zip(&counters)
                        .filter(|(a, b)| a != b)
                        .map(|((n, a), (_, b))| format!("{n}: {a} then {b}"))
                        .collect();
                    self.mismatches
                        .push(format!("round key {key}: {}", diff.join(", ")));
                }
            }
        }
    }

    /// A 32-bit digest of every first-seen round vector (exact in a
    /// JSON number), to compare runs of one seed.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (k, v) in &self.first {
            for byte in k.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
            for (name, x) in v {
                for byte in name.bytes().chain(x.to_le_bytes()) {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        (h ^ (h >> 32)) & 0xffff_ffff
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// splitmix64: the benchmark's only source of randomness, so a seed
/// fixes every input.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_counts_every_class_of_an_op() {
        let mut r = Recorder::default();
        r.sample("a", &[Class::Cold, Class::Fresh], 10.0);
        r.sample("b", &[Class::Hit], 1.0);
        r.sampling = false;
        r.sample("c", &[Class::Hit], 5.0);
        assert_eq!(r.attempted, 3);
        assert_eq!(r.samples(Class::Hit), &[1.0]);
        assert_eq!(r.samples(Class::Cold), &[10.0]);
        assert_eq!(r.samples(Class::Fresh), &[10.0]);
        assert_eq!(r.p50_p90(Class::Mutate), (0.0, 0.0));
        assert!(r.label_table().contains("n=1"));
        r.round_s = vec![0.5, 1.5];
        assert_eq!(r.ops_per_s(), 1.0);
        assert_eq!(r.median_round_s(), 1.0);
    }

    #[test]
    fn repeat_check_flags_differences() {
        let mut c = RepeatCheck::default();
        let v = |x| vec![("rows".to_string(), x)];
        c.round(0, v(5));
        c.round(1, v(7));
        let digest = c.digest();
        c.round(0, v(5));
        assert!(c.mismatches.is_empty());
        c.round(1, v(8));
        assert_eq!(c.compared, 2);
        assert_eq!(
            c.mismatches,
            vec!["round key 1: rows: 7 then 8".to_string()]
        );
        assert_eq!(c.digest(), digest);
        assert!(digest <= u64::from(u32::MAX));
    }
}
