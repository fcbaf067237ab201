//! The `batch` workload: no server, no wire, no cache. It calls the
//! library the way `qfsh` local mode does, on a words corpus whose pair
//! flock answer is large enough that canonicalization dominates, and
//! runs that flock again under a memory budget small enough to spill.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use qf_core::{
    direct_plan, evaluate_dynamic_with, execute_plan_scored_with, flock_result_from_scored,
    DynamicConfig, ExecContext, ExecStats, JoinOrderStrategy, Optimizer, ScoredExecution, Strategy,
};
use qf_storage::{Database, Relation, SpillDir, Wal, WalRecord};

use crate::harness::{flock_at, ms_since, render_answer, AnswerKey, Class, Oracle, Recorder};
use crate::server::{new_pair_tuples, MEDICAL};
use crate::trace::Tracer;

/// Engine threads per evaluation (sized for a 2-core host).
pub const THREADS: usize = 2;
/// Memory budget of the spilling E1 run, bytes. The unbudgeted run
/// materializes over 100 MB, so this one must spill.
pub const MEM_BUDGET: u64 = 8 << 20;
/// The words corpus (E1's "newspaper articles").
pub const WORDS_DOCS: usize = 400;
pub const WORDS_PER_DOC: usize = 40;
pub const WORDS_VOCABULARY: usize = 12_000;
/// Own and tighter thresholds of E1 and of the medical flock. Unlike the
/// server workloads', they do not come from the seed: here the threshold
/// changes a pass's work by up to half (the Fig. 5 plan prunes more, a
/// re-ask filters a smaller answer), which would make runs of different
/// seeds incomparable.
pub const E1_OWN: i64 = 8;
pub const E1_TIGHT: i64 = 12;
pub const MED_OWN: i64 = 20;
pub const MED_TIGHT: i64 = 26;
pub const E1_TEXT: &str =
    "QUERY: answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2 FILTER: COUNT(answer.B) >= 8";
/// Medical delta tuples per appended batch.
pub const DELTA_TUPLES: usize = 40;
/// Append, append, retract-both cycles per pass.
pub const DELTA_CYCLES: usize = 3;
/// Re-ask samples per pass (half exact, half tighter), each the mean
/// of a burst of `HIT_BURST` re-asks.
pub const HIT_SAMPLES: usize = 24;
pub const HIT_BURST: u32 = 20;

/// Inputs of one run, all derived from the seed.
pub struct Inputs {
    pub words: Database,
    pub medical: Database,
    /// Two delta batches, and the retraction of both.
    pub deltas: [WalRecord; 2],
    pub undo: WalRecord,
    pub spill_parent: PathBuf,
}

impl Inputs {
    pub fn new(seed: u64, scratch: &Path) -> Result<Inputs, String> {
        let mut words = Database::new();
        words.insert(qf_datagen::words::generate(&qf_datagen::WordsConfig {
            n_docs: WORDS_DOCS,
            words_per_doc: WORDS_PER_DOC,
            vocabulary: WORDS_VOCABULARY,
            exponent: 0.8,
            seed,
        }));
        let data = qf_datagen::medical::generate(&qf_datagen::MedicalConfig {
            seed,
            ..Default::default()
        });
        let mut medical = Database::new();
        for rel in data.db.iter() {
            medical.insert(rel.clone());
        }
        let exhibits = medical.get("exhibits").map_err(|e| e.to_string())?;
        let mut taken = Default::default();
        let a = new_pair_tuples(exhibits, seed ^ 0x31, DELTA_TUPLES, &mut taken);
        let b = new_pair_tuples(exhibits, seed ^ 0x32, DELTA_TUPLES, &mut taken);
        let tsv = |tuples: Vec<qf_storage::Tuple>| {
            qf_server::service::render_tsv(&Relation::from_tuples(
                exhibits.schema().clone(),
                tuples,
            ))
        };
        let both = tsv(a.iter().chain(&b).cloned().collect());
        let deltas = [
            WalRecord::Append { tsv: tsv(a) },
            WalRecord::Append { tsv: tsv(b) },
        ];
        let spill_parent = scratch.join(format!("batch-spill-{}", std::process::id()));
        std::fs::create_dir_all(&spill_parent).map_err(|e| e.to_string())?;
        Ok(Inputs {
            words,
            medical,
            deltas,
            undo: WalRecord::Retract { tsv: both },
            spill_parent,
        })
    }

    /// Set-up work a `qfsh` session pays before its first answer:
    /// inputs built and one small flock evaluated.
    pub fn setup(seed: u64, scratch: &Path) -> Result<Inputs, String> {
        let inputs = Inputs::new(seed, scratch)?;
        let (_, flock) = flock_at(MEDICAL, MED_OWN)?;
        Optimizer::with_strategy(Strategy::BestStatic)
            .evaluate_with(&flock, &inputs.medical, &ctx())
            .map_err(|e| e.to_string())?;
        Ok(inputs)
    }

    pub fn remove_scratch(&self) {
        let _ = std::fs::remove_dir_all(&self.spill_parent);
    }

    fn spill_ctx(&self) -> Result<ExecContext, String> {
        let dir = SpillDir::create(&self.spill_parent).map_err(|e| e.to_string())?;
        Ok(ctx().with_mem_budget(MEM_BUDGET).with_spill(Arc::new(dir)))
    }
}

pub fn ctx() -> ExecContext {
    ExecContext::unbounded().with_threads(THREADS)
}

/// Accounting gathered from the library's own reports during passes.
#[derive(Default)]
pub struct PassLog {
    pub exec: Vec<ExecStats>,
    pub spill: Vec<ExecStats>,
    /// Per-pass machine-independent counts for the exact-repeat check.
    pub counts: Vec<(String, u64)>,
}

/// One pass of the batch sequence. Every op is timed; every answer is
/// handed to the oracle.
pub struct Pass<'a> {
    pub inputs: &'a mut Inputs,
    pub rec: &'a mut Recorder,
    pub oracle: &'a mut Oracle,
    pub log: &'a mut PassLog,
    pub tracer: Option<&'a mut Tracer>,
    pub request: u64,
}

impl Pass<'_> {
    fn timed<T>(
        &mut self,
        name: &str,
        classes: &[Class],
        f: impl FnOnce(&mut Inputs) -> Result<T, String>,
    ) -> Option<T> {
        self.timed_mean(name, classes, 1, f)
    }

    /// Time `f`, which performs `reps` identical operations, and record
    /// the mean time of one.
    fn timed_mean<T>(
        &mut self,
        name: &str,
        classes: &[Class],
        reps: u32,
        f: impl FnOnce(&mut Inputs) -> Result<T, String>,
    ) -> Option<T> {
        let req = self.request;
        self.request += 1;
        let inputs = &mut *self.inputs;
        let t = Instant::now();
        let out = match self.tracer.as_deref_mut() {
            Some(tr) => tr.span(name, req, |_| f(inputs)),
            None => f(inputs),
        };
        let ms = ms_since(t) / f64::from(reps);
        match out {
            Ok(v) => {
                self.rec.sample(name, classes, ms);
                Some(v)
            }
            Err(e) => {
                self.rec.attempted += 1;
                self.rec.fail(format!("{name}: {e}"));
                None
            }
        }
    }

    fn check(&mut self, text: &str, threshold: i64, db_fp: u64, db: Database, body: &str) {
        let key = AnswerKey {
            program: text.to_string(),
            threshold,
            catalog_fp: db_fp,
        };
        if let Err(e) = self.oracle.observe(key, &db, body) {
            self.rec.fail(e);
        }
    }

    fn e1_scored(&mut self, name: &str, spill: bool) -> Option<ScoredExecution> {
        let (_, flock) = flock_at(E1_TEXT, E1_OWN).ok()?;
        let mut stats = ExecStats::default();
        let run = self.timed(name, &[Class::Cold], |inp| {
            let ctx = if spill { inp.spill_ctx()? } else { ctx() };
            let plan = direct_plan(&flock).map_err(|e| e.to_string())?;
            let run =
                execute_plan_scored_with(&plan, &inp.words, JoinOrderStrategy::AsWritten, &ctx)
                    .map_err(|e| e.to_string())?;
            stats = ctx.stats();
            Ok(run)
        })?;
        let log = if spill {
            &mut self.log.spill
        } else {
            &mut self.log.exec
        };
        log.push(stats);
        Some(run)
    }

    fn fig5(&mut self, name: &str, classes: &[Class], tight: bool) {
        let threshold = if tight { MED_TIGHT } else { MED_OWN };
        let Ok((_, flock)) = flock_at(MEDICAL, threshold) else {
            return;
        };
        let f = flock.clone();
        let Some(eval) = self.timed(name, classes, |inp| {
            Optimizer::with_strategy(Strategy::BestStatic)
                .evaluate_with(&f, &inp.medical, &ctx())
                .map_err(|e| e.to_string())
        }) else {
            return;
        };
        self.log
            .counts
            .push((format!("{name}.rows"), eval.stats.rows));
        let body = render_answer(&flock, eval.result);
        let db = self.inputs.medical.clone();
        self.check(MEDICAL, threshold, db.fingerprint(), db, &body);
    }

    fn e6(&mut self) {
        let Ok((_, flock)) = flock_at(MEDICAL, MED_OWN) else {
            return;
        };
        let Some(report) = self.timed("e6.dynamic", &[], |inp| {
            evaluate_dynamic_with(&flock, &inp.medical, &DynamicConfig::default(), &ctx())
                .map_err(|e| e.to_string())
        }) else {
            return;
        };
        let total = report.total_tuples as u64;
        self.log.counts.push(("e6.total_tuples".to_string(), total));
        let body = render_answer(&flock, report.result);
        let db = self.inputs.medical.clone();
        self.check(MEDICAL, MED_OWN, db.fingerprint(), db, &body);
    }

    fn mutate(&mut self, name: &str, record: WalRecord) {
        self.timed(name, &[Class::Mutate], |inp| {
            Wal::apply(&mut inp.medical, &record).map_err(|e| e.to_string())
        });
    }

    /// Run the pass; returns its wall time in seconds.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        let words_fp = self.inputs.words.fingerprint();
        // 1. E1's direct pair flock, then exact and tighter re-asks
        //    answered from the scored result it returned. A re-ask takes
        //    microseconds, so each sample is the mean of a burst.
        if let Some(run) = self.e1_scored("e1.direct", false) {
            let tuples = run.steps.iter().map(|s| s.answer_tuples as u64).sum();
            self.log
                .counts
                .push(("e1.answer_tuples".to_string(), tuples));
            for threshold in [E1_OWN, E1_TIGHT].repeat(HIT_SAMPLES / 2) {
                let Ok((_, at)) = flock_at(E1_TEXT, threshold) else {
                    continue;
                };
                let scored = &run.scored;
                let Some(result) = self.timed_mean("e1.refilter", &[Class::Hit], HIT_BURST, |_| {
                    let mut out = flock_result_from_scored(&at, scored, at.filter());
                    for _ in 1..HIT_BURST {
                        out = flock_result_from_scored(&at, scored, at.filter());
                    }
                    Ok(out)
                }) else {
                    continue;
                };
                let body = render_answer(&at, result);
                let db = self.inputs.words.clone();
                self.check(E1_TEXT, threshold, words_fp, db, &body);
            }
        }
        // 2. The Fig. 5 medical flock through the optimizer, then at a
        //    tighter threshold, then E6's dynamic filter selection on the
        //    first request. Local mode has no cache, so both re-asks
        //    evaluate; they are timed but kept out of the latency classes,
        //    whose medians would otherwise fall between 20 ms and 1 s ops.
        self.fig5("fig5", &[Class::Cold], false);
        self.fig5("fig5.tight", &[], true);
        self.e6();
        // 4. Two medical delta batches arrive, then both are retracted;
        //    the flock is asked after each mutation.
        for _ in 0..DELTA_CYCLES {
            let [a, b] = self.inputs.deltas.clone();
            for record in [a, b, self.inputs.undo.clone()] {
                let name = if matches!(record, WalRecord::Append { .. }) {
                    "append"
                } else {
                    "retract"
                };
                self.mutate(name, record);
                self.fig5("fig5.fresh", &[Class::Fresh], false);
            }
        }
        // 5. E1 again under the memory budget, spilling to disk.
        if let Some(run) = self.e1_scored("e1.spill", true) {
            let body = e1_answer(&run.scored, E1_OWN);
            let db = self.inputs.words.clone();
            self.check(E1_TEXT, E1_OWN, words_fp, db, &body);
        }
        if let Some(s) = self.log.spill.last() {
            self.log
                .counts
                .push(("spill.bytes".to_string(), s.spilled_bytes));
        }
        if let Some(s) = self.log.exec.last() {
            self.log.counts.push(("e1.rows".to_string(), s.rows));
        }
        t.elapsed().as_secs_f64()
    }
}

/// E1's answer at `threshold`, re-filtered from a scored result.
fn e1_answer(scored: &Relation, threshold: i64) -> String {
    let (_, at) = flock_at(E1_TEXT, threshold).expect("static flock text");
    render_answer(&at, flock_result_from_scored(&at, scored, at.filter()))
}
