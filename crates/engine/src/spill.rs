//! Spill-capable operator execution.
//!
//! When an [`ExecContext`] carries a spill directory
//! ([`ExecContext::with_spill`]), [`crate::execute_with`] routes plans
//! through this module instead of the purely in-memory path: operators
//! that would trip the memory budget partition state to disk and
//! continue, recording a `spill` degradation plus bytes-spilled in
//! [`crate::ExecStats`], instead of failing with `ResourceExhausted`.
//!
//! Two disciplines keep results bitwise-identical to the in-memory path
//! under the engine's set semantics:
//!
//! * **Sorted, deduplicated runs.** Operator *outputs* flow through a
//!   [`SpillSink`]: tuples buffer in memory and, under pressure, flush
//!   as a sorted/deduplicated run file. Consumers k-way-merge all runs
//!   with cross-run deduplication, reconstructing exactly the canonical
//!   sorted set a [`Relation`] would hold. Without any flush the sink
//!   degenerates to the ordinary in-memory construction.
//! * **Grace partitioning.** Hash join and group-by over inputs too
//!   large to hold partition both sides / the input by a salted hash of
//!   the key columns into disk partitions, then process each partition
//!   in memory, recursing with a fresh salt on skewed partitions (depth
//!   capped — a partition of identical keys cannot be split further).
//!   Partition disjointness makes per-partition results independent, so
//!   the sink's global sort/dedup yields the same relation as one big
//!   in-memory pass.
//!
//! Memory accounting in this path tracks *residency*: an operator
//! releases its input's live bytes once the input is fully consumed
//! ([`OpOut::into_each`]), and a sink flush releases the buffered
//! bytes it wrote to disk. Base-relation scans stay charged — spilling
//! bounds derived intermediate state, not the resident catalog, and the
//! final materialized result must still fit the budget.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use qf_storage::{
    Database, FastHasher, FastMap, HashIndex, Relation, Schema, SpillDir, SpillFile, SpillReader,
    SpillWriter, Tuple, Value,
};

use crate::error::{EngineError, Result};
use crate::exec;
use crate::governor::{row_cost, ExecContext};
use crate::plan::{AggFn, PhysicalPlan};

/// Fan-out of one Grace partitioning pass.
const N_PARTS: usize = 8;

/// Transient I/O errors absorbed per spill-file write before giving up
/// (whole-file granularity: a partially written run is discarded and
/// rewritten from the still-buffered tuples).
const MAX_IO_RETRIES: u32 = 3;

/// Exponential-ish backoff before transient-error retry `attempt`
/// (1-based).
fn retry_backoff(attempt: u32) {
    std::thread::sleep(std::time::Duration::from_millis(1 << attempt.min(4)));
}

/// Maximum recursive repartitioning depth. A partition that stays too
/// big at this depth (all-identical keys) is processed in memory and
/// may honestly trip the budget.
const MAX_DEPTH: u64 = 3;

/// An operator's output: either an ordinary in-memory relation or a set
/// of sorted/deduplicated spill runs whose merge is the relation.
pub(crate) enum OpOut {
    Mem(Relation),
    Spilled(SpilledRel),
}

pub(crate) struct SpilledRel {
    schema: Schema,
    runs: Vec<SpillFile>,
    /// Upper bound on distinct tuples (cross-run duplicates inflate it).
    rows: u64,
    dir: Arc<SpillDir>,
}

impl Drop for SpilledRel {
    /// Run files are single-consumption: whether the merge completed or
    /// the pipeline aborted mid-way, they are dead once the value drops.
    /// Removing them here (best effort) is what keeps the spill dir
    /// empty after a run — the leak check in `ExecStats` counts on it.
    fn drop(&mut self) {
        for run in &self.runs {
            let _ = self.dir.remove(&run.path);
        }
    }
}

impl OpOut {
    fn schema(&self) -> &Schema {
        match self {
            OpOut::Mem(r) => r.schema(),
            OpOut::Spilled(s) => &s.schema,
        }
    }

    fn arity(&self) -> usize {
        self.schema().arity()
    }

    /// Upper bound on the number of tuples.
    fn rows_hint(&self) -> u64 {
        match self {
            OpOut::Mem(r) => r.len() as u64,
            OpOut::Spilled(s) => s.rows,
        }
    }

    /// Stream every tuple in canonical (sorted, deduplicated) order,
    /// then release the input's live bytes — this consumes the value.
    fn into_each(self, ctx: &ExecContext, f: &mut dyn FnMut(Tuple) -> Result<()>) -> Result<()> {
        match self {
            OpOut::Mem(r) => {
                for t in r.iter() {
                    ctx.tick()?;
                    f(t.clone())?;
                }
                release_rel(ctx, &r);
                Ok(())
            }
            OpOut::Spilled(s) => s.for_each_merged(ctx, f),
        }
    }

    /// Materialize into a `Relation`, charging merged spill rows as they
    /// land (an in-memory output is already charged).
    pub(crate) fn materialize(self, ctx: &ExecContext) -> Result<Relation> {
        match self {
            OpOut::Mem(r) => Ok(r),
            OpOut::Spilled(s) => {
                let width = s.schema.arity();
                let mut out: Vec<Tuple> = Vec::new();
                let schema = s.schema.clone();
                s.for_each_merged(ctx, &mut |t| {
                    ctx.charge_row(width)?;
                    out.push(t);
                    Ok(())
                })?;
                // The merged stream is strictly increasing (cross-run
                // dedup), so the no-sort constructor applies.
                Ok(Relation::from_sorted_dedup(schema, out))
            }
        }
    }
}

impl SpilledRel {
    /// K-way merge over all runs with cross-run deduplication: each run
    /// is sorted and deduplicated, so a heap of per-run cursors yields a
    /// globally sorted stream in which duplicates are adjacent.
    fn for_each_merged(
        &self,
        ctx: &ExecContext,
        f: &mut dyn FnMut(Tuple) -> Result<()>,
    ) -> Result<()> {
        let mut readers: Vec<SpillReader> = Vec::with_capacity(self.runs.len());
        let mut heap: BinaryHeap<Reverse<(Tuple, usize)>> = BinaryHeap::new();
        for (i, run) in self.runs.iter().enumerate() {
            let mut r = self.dir.reader(&run.path)?;
            if let Some(t) = r.next_tuple()? {
                heap.push(Reverse((t, i)));
            }
            readers.push(r);
        }
        let mut last: Option<Tuple> = None;
        while let Some(Reverse((t, i))) = heap.pop() {
            ctx.tick()?;
            if let Some(next) = readers[i].next_tuple()? {
                heap.push(Reverse((next, i)));
            }
            if last.as_ref() != Some(&t) {
                f(t.clone())?;
                last = Some(t);
            }
        }
        Ok(())
    }
}

/// Release the live bytes of a fully consumed in-memory relation.
fn release_rel(ctx: &ExecContext, rel: &Relation) {
    ctx.release_bytes(rel.len() as u64 * row_cost(rel.schema().arity()));
}

/// Buffered operator-output collector that flushes sorted/deduplicated
/// runs to disk when the next charge would trip the memory budget.
struct SpillSink<'a> {
    ctx: &'a ExecContext,
    op: &'static str,
    schema: Schema,
    width: usize,
    buf: Vec<Tuple>,
    buf_bytes: u64,
    runs: Vec<SpillFile>,
    spilled_rows: u64,
}

impl<'a> SpillSink<'a> {
    fn new(ctx: &'a ExecContext, op: &'static str, schema: Schema) -> SpillSink<'a> {
        let width = schema.arity();
        SpillSink {
            ctx,
            op,
            schema,
            width,
            buf: Vec::new(),
            buf_bytes: 0,
            runs: Vec::new(),
            spilled_rows: 0,
        }
    }

    fn push(&mut self, t: Tuple) -> Result<()> {
        let cost = row_cost(self.width);
        if !self.buf.is_empty() && self.ctx.mem_would_trip(cost) {
            self.flush()?;
        }
        // If this still trips after a flush, other live state owns the
        // budget; the error is honest.
        self.ctx.charge_row(self.width)?;
        self.buf_bytes += cost;
        self.buf.push(t);
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let dir = self
            .ctx
            .spill_dir()
            .expect("SpillSink::flush without a spill directory")
            .clone();
        self.buf.sort_unstable();
        self.buf.dedup();
        // Whole-file retry: the tuples are still buffered, so a failed
        // write costs nothing but the discarded partial file. Transient
        // errors get bounded retries with backoff; ENOSPC degrades to
        // memory-only (below); anything else is a hard, typed error.
        let mut attempt = 0u32;
        let file = loop {
            let path = dir.alloc(self.op);
            match write_run(&dir, path.clone(), self.width, &self.buf) {
                Ok(file) => break file,
                Err(e) => {
                    let _ = dir.remove(&path);
                    if e.is_transient() && attempt < MAX_IO_RETRIES {
                        attempt += 1;
                        self.ctx.note_io_retry();
                        retry_backoff(attempt);
                    } else if e.is_disk_full() {
                        return self.absorb_enospc(&dir);
                    } else {
                        return Err(e.into());
                    }
                }
            }
        };
        if self.runs.is_empty() {
            self.ctx.record_degradation(
                "spill",
                format!("{}: spilled to disk under memory pressure", self.op),
            );
        }
        self.ctx.note_spill(file.bytes);
        self.ctx.release_bytes(self.buf_bytes);
        self.spilled_rows += file.rows;
        self.buf.clear();
        self.buf_bytes = 0;
        self.runs.push(file);
        Ok(())
    }

    /// ENOSPC policy: the disk is full, so spilling can no longer buy
    /// headroom. Reabsorb the completed runs (freeing their disk space
    /// for anyone else on the volume), waive the memory budget, record
    /// the degradation, and continue purely in memory. The run still
    /// terminates with a correct answer — just without its memory
    /// ceiling — instead of aborting.
    fn absorb_enospc(&mut self, dir: &Arc<SpillDir>) -> Result<()> {
        self.ctx.waive_mem_budget();
        self.ctx.record_degradation(
            "spill-enospc",
            format!(
                "{}: disk full while spilling; reabsorbed {} completed run(s) and continuing \
                 in memory with the budget waived",
                self.op,
                self.runs.len()
            ),
        );
        for run in std::mem::take(&mut self.runs) {
            let mut r = dir.reader(&run.path)?;
            while let Some(t) = r.next_tuple()? {
                // Waived budget: only the row cap or deadline can trip.
                self.ctx.charge_row(self.width)?;
                self.buf_bytes += row_cost(self.width);
                self.buf.push(t);
            }
            drop(r);
            dir.remove(&run.path)?;
        }
        self.buf.sort_unstable();
        self.buf.dedup();
        self.spilled_rows = 0;
        Ok(())
    }

    fn finish(mut self) -> Result<OpOut> {
        if self.runs.is_empty() {
            return Ok(OpOut::Mem(Relation::from_tuples(
                self.schema.clone(),
                std::mem::take(&mut self.buf),
            )));
        }
        self.flush()?;
        let dir = self
            .ctx
            .spill_dir()
            .expect("spilled sink without a spill directory")
            .clone();
        // `flush` may have hit ENOSPC and reabsorbed everything.
        if self.runs.is_empty() {
            return Ok(OpOut::Mem(Relation::from_tuples(
                self.schema.clone(),
                std::mem::take(&mut self.buf),
            )));
        }
        Ok(OpOut::Spilled(SpilledRel {
            schema: self.schema.clone(),
            runs: std::mem::take(&mut self.runs),
            rows: self.spilled_rows,
            dir,
        }))
    }
}

/// Write one sorted/deduplicated run through the directory's vfs.
fn write_run(
    dir: &SpillDir,
    path: std::path::PathBuf,
    width: usize,
    tuples: &[Tuple],
) -> qf_storage::Result<SpillFile> {
    let mut w = SpillWriter::create_on(&**dir.vfs(), path, width)?;
    for t in tuples {
        w.write_tuple(t)?;
    }
    w.finish()
}

/// Evaluate `plan` with spilling enabled. Within an operator this path
/// is sequential — the spill machinery trades parallel probes for
/// bounded memory; plan-level parallelism (independent FILTER steps)
/// is unaffected.
pub(crate) fn execute_spill(
    plan: &PhysicalPlan,
    db: &Database,
    ctx: &ExecContext,
) -> Result<OpOut> {
    match plan {
        PhysicalPlan::Scan { relation } => {
            ctx.enter("Scan")?;
            let rel = db.get(relation)?;
            ctx.charge_rows(rel.len() as u64, rel.schema().arity())?;
            Ok(OpOut::Mem(rel.clone()))
        }

        PhysicalPlan::Select { input, predicates } => {
            ctx.enter("Select")?;
            let child = execute_spill(input, db, ctx)?;
            exec::check_predicates(predicates, child.arity(), "Select")?;
            let mut sink = SpillSink::new(ctx, "select", child.schema().clone());
            child.into_each(ctx, &mut |t| {
                if predicates.iter().all(|p| p.eval(&t)) {
                    sink.push(t)?;
                }
                Ok(())
            })?;
            sink.finish()
        }

        PhysicalPlan::Project { input, cols } => {
            ctx.enter("Project")?;
            let child = execute_spill(input, db, ctx)?;
            exec::check_columns(cols, child.arity(), "Project")?;
            let names: Vec<String> = cols
                .iter()
                .map(|&c| child.schema().columns()[c].clone())
                .collect();
            let schema = Schema::from_columns("project", names);
            let mut sink = SpillSink::new(ctx, "project", schema);
            let cols = cols.clone();
            child.into_each(ctx, &mut |t| sink.push(t.project(&cols)))?;
            sink.finish()
        }

        PhysicalPlan::HashJoin { left, right, keys } => {
            ctx.enter("HashJoin")?;
            let l = execute_spill(left, db, ctx)?;
            let r = execute_spill(right, db, ctx)?;
            exec::check_join_keys(keys, l.arity(), r.arity(), "HashJoin")?;
            join_spill(l, r, keys, ctx)
        }

        PhysicalPlan::AntiJoin { left, right, keys } => {
            ctx.enter("AntiJoin")?;
            let l = execute_spill(left, db, ctx)?;
            let r = execute_spill(right, db, ctx)?;
            exec::check_join_keys(keys, l.arity(), r.arity(), "AntiJoin")?;
            let (lk, rk): (Vec<usize>, Vec<usize>) = keys.iter().copied().unzip();
            // The right side is the filter; it is typically the small
            // side in mining plans, so materialize it for the index.
            let filter = r.materialize(ctx)?;
            let idx = HashIndex::build(&filter, &rk);
            let mut sink = SpillSink::new(ctx, "antijoin", l.schema().clone());
            l.into_each(ctx, &mut |t| {
                if !idx.contains_key(&t.project(&lk)) {
                    sink.push(t)?;
                }
                Ok(())
            })?;
            drop(idx);
            release_rel(ctx, &filter);
            sink.finish()
        }

        PhysicalPlan::Union { inputs } => {
            ctx.enter("Union")?;
            if inputs.is_empty() {
                return Ok(OpOut::Mem(Relation::empty(Schema::new("union", &[]))));
            }
            let first = execute_spill(&inputs[0], db, ctx)?;
            let arity = first.arity();
            let schema = first.schema().renamed("union");
            let mut sink = SpillSink::new(ctx, "union", schema);
            first.into_each(ctx, &mut |t| sink.push(t))?;
            for input in &inputs[1..] {
                let child = execute_spill(input, db, ctx)?;
                if child.arity() != arity {
                    return Err(EngineError::UnionArityMismatch {
                        first: arity,
                        other: child.arity(),
                    });
                }
                child.into_each(ctx, &mut |t| sink.push(t))?;
            }
            sink.finish()
        }

        PhysicalPlan::Aggregate { input, group, agg } => {
            ctx.enter("Aggregate")?;
            let child = execute_spill(input, db, ctx)?;
            let arity = child.arity();
            exec::check_columns(group, arity, "Aggregate")?;
            if let Some(c) = agg.input_column() {
                exec::check_columns(&[c], arity, "Aggregate")?;
            }
            aggregate_spill(child, group, *agg, ctx)
        }
    }
}

/// Spill-capable hash join. In-memory inputs that fit get a plain
/// smaller-side-build hash join (output still sink-buffered, so a huge
/// *output* spills); any spilled input triggers Grace partitioning.
fn join_spill(l: OpOut, r: OpOut, keys: &[(usize, usize)], ctx: &ExecContext) -> Result<OpOut> {
    let (lk, rk): (Vec<usize>, Vec<usize>) = keys.iter().copied().unzip();
    let mut names: Vec<String> = l.schema().columns().to_vec();
    names.extend(r.schema().columns().iter().cloned());
    let out_schema = Schema::from_columns("join", names);
    let mut sink = SpillSink::new(ctx, "join", out_schema);

    match (l, r) {
        (OpOut::Mem(lrel), OpOut::Mem(rrel)) => {
            join_mem_into(&lrel, &rrel, &lk, &rk, ctx, &mut sink)?;
            release_rel(ctx, &lrel);
            release_rel(ctx, &rrel);
        }
        (l, r) => {
            if keys.is_empty() {
                // Cross product: partitioning by an empty key cannot
                // split anything; materialize the smaller side.
                let (small, big, small_is_left) = if l.rows_hint() <= r.rows_hint() {
                    (l, r, true)
                } else {
                    (r, l, false)
                };
                let srel = small.materialize(ctx)?;
                big.into_each(ctx, &mut |t| {
                    for st in srel.iter() {
                        sink.push(if small_is_left {
                            st.concat(&t)
                        } else {
                            t.concat(st)
                        })?;
                    }
                    Ok(())
                })?;
                release_rel(ctx, &srel);
            } else {
                let dir_owned = ctx
                    .spill_dir()
                    .expect("grace join without spill dir")
                    .clone();
                let lp = partition_out(ctx, &dir_owned, "jpart-l", &lk, 0, l)?;
                let rp = partition_out(ctx, &dir_owned, "jpart-r", &rk, 0, r)?;
                for (lpart, rpart) in lp.into_iter().zip(rp) {
                    join_parts(lpart, rpart, &lk, &rk, ctx, &mut sink, 1)?;
                }
            }
        }
    }
    sink.finish()
}

/// Plain hash join of two resident relations, output through `sink`.
fn join_mem_into(
    l: &Relation,
    r: &Relation,
    lk: &[usize],
    rk: &[usize],
    ctx: &ExecContext,
    sink: &mut SpillSink<'_>,
) -> Result<()> {
    let build_left = l.len() < r.len();
    let (build, probe, build_keys, probe_keys) = if build_left {
        (l, r, lk, rk)
    } else {
        (r, l, rk, lk)
    };
    let idx = HashIndex::build(build, build_keys);
    for t in probe.iter() {
        ctx.tick()?;
        for &row in idx.probe(&t.project(probe_keys)) {
            let bt = &build.tuples()[row as usize];
            sink.push(if build_left {
                bt.concat(t)
            } else {
                t.concat(bt)
            })?;
        }
    }
    Ok(())
}

/// One disk partition produced by Grace partitioning: a raw (unsorted)
/// tuple file private to the operator that wrote it. The file is
/// removed when the partition drops — consumed or abandoned alike — so
/// Grace recursion never accumulates dead partition files.
struct Part {
    file: SpillFile,
    arity: usize,
    dir: Arc<SpillDir>,
}

impl Part {
    fn rows(&self) -> u64 {
        self.file.rows
    }

    fn for_each(&self, ctx: &ExecContext, f: &mut dyn FnMut(Tuple) -> Result<()>) -> Result<()> {
        let mut r = self.dir.reader(&self.file.path)?;
        while let Some(t) = r.next_tuple()? {
            ctx.tick()?;
            f(t)?;
        }
        Ok(())
    }
}

impl Drop for Part {
    fn drop(&mut self) {
        let _ = self.dir.remove(&self.file.path);
    }
}

fn part_of(t: &Tuple, keys: &[usize], salt: u64, n_parts: usize) -> usize {
    let mut h = FastHasher::default();
    salt.hash(&mut h);
    for &k in keys {
        t.get(k).hash(&mut h);
    }
    // Partition by the HIGH bits: the Fx multiply only mixes upward, so
    // the low bits of `finish()` are a salt-*permuted* function of the
    // key's low bits alone — `finish() % n_parts` would glue every key
    // sharing `v mod n_parts` into one partition at every salt,
    // defeating recursive repartitioning entirely.
    ((h.finish() >> 32) % n_parts as u64) as usize
}

/// A per-tuple consumer handed to a [`partition_stream`] source.
type TupleEmit<'a> = &'a mut dyn FnMut(Tuple) -> Result<()>;

/// Route a tuple stream into [`N_PARTS`] disk partitions by a salted
/// hash of `keys`. Every partition file is counted as spilled bytes.
fn partition_stream(
    ctx: &ExecContext,
    dir: &Arc<SpillDir>,
    tag: &str,
    arity: usize,
    keys: &[usize],
    salt: u64,
    source: &mut dyn FnMut(TupleEmit) -> Result<()>,
) -> Result<Vec<Part>> {
    // Writer *creation* precedes any consumption of the source, so
    // transient errors here are safely retryable. Once the source
    // starts streaming it can only be consumed once — a mid-stream
    // failure propagates typed (the plan-level corruption/recompute
    // loop in `execute_with` is the recovery of last resort).
    let mut writers: Vec<SpillWriter> = Vec::with_capacity(N_PARTS);
    for _ in 0..N_PARTS {
        let mut attempt = 0u32;
        let w = loop {
            match dir.writer(tag, arity) {
                Ok(w) => break w,
                Err(e) if e.is_transient() && attempt < MAX_IO_RETRIES => {
                    attempt += 1;
                    ctx.note_io_retry();
                    retry_backoff(attempt);
                }
                Err(e) => return Err(e.into()),
            }
        };
        writers.push(w);
    }
    let mut failed: Option<EngineError> = source(&mut |t| {
        writers[part_of(&t, keys, salt, N_PARTS)].write_tuple(&t)?;
        Ok(())
    })
    .err();
    let mut parts = Vec::with_capacity(N_PARTS);
    for w in writers {
        if failed.is_some() {
            // Abandon (and remove) partial partition files so a
            // recompute starts from a clean directory.
            let path = w.path().to_path_buf();
            drop(w);
            let _ = dir.remove(&path);
            continue;
        }
        match w.finish() {
            Ok(file) => {
                ctx.note_spill(file.bytes);
                parts.push(Part {
                    file,
                    arity,
                    dir: Arc::clone(dir),
                });
            }
            Err(e) => failed = Some(e.into()),
        }
    }
    match failed {
        // Dropping `parts` here removes any already-finished files.
        Some(e) => Err(e),
        None => Ok(parts),
    }
}

/// Partition an operator output (consuming it, releasing its memory).
fn partition_out(
    ctx: &ExecContext,
    dir: &Arc<SpillDir>,
    tag: &str,
    keys: &[usize],
    salt: u64,
    out: OpOut,
) -> Result<Vec<Part>> {
    let arity = out.arity();
    let mut out = Some(out);
    partition_stream(ctx, dir, tag, arity, keys, salt, &mut |emit| {
        out.take()
            .expect("partition source consumed twice")
            .into_each(ctx, emit)
    })
}

/// Repartition one skewed partition with a fresh salt.
fn repartition(
    ctx: &ExecContext,
    dir: &Arc<SpillDir>,
    tag: &str,
    keys: &[usize],
    salt: u64,
    arity: usize,
    part: &Part,
) -> Result<Vec<Part>> {
    partition_stream(ctx, dir, tag, arity, keys, salt, &mut |emit| {
        part.for_each(ctx, emit)
    })
}

/// Join one pair of matching partitions: build the smaller side in
/// memory (charged, then released), stream the other. Recurses with a
/// fresh salt while the build side would trip the budget.
fn join_parts(
    lpart: Part,
    rpart: Part,
    lk: &[usize],
    rk: &[usize],
    ctx: &ExecContext,
    sink: &mut SpillSink<'_>,
    depth: u64,
) -> Result<()> {
    if lpart.rows() == 0 || rpart.rows() == 0 {
        return Ok(());
    }
    let build_left = lpart.rows() <= rpart.rows();
    let (build, probe, build_keys, probe_keys) = if build_left {
        (&lpart, &rpart, lk, rk)
    } else {
        (&rpart, &lpart, rk, lk)
    };
    let build_arity = build.arity;
    let build_bytes = build.rows() * row_cost(build_arity);
    if ctx.mem_would_trip(build_bytes) {
        // Free the output sink's buffer first — the build side deserves
        // the headroom, and the flush may make recursion unnecessary.
        sink.flush()?;
    }
    if depth < MAX_DEPTH && ctx.mem_would_trip(build_bytes) {
        let dir = ctx
            .spill_dir()
            .expect("grace join without spill dir")
            .clone();
        let lps = repartition(ctx, &dir, "jpart-l", lk, depth, lpart.arity, &lpart)?;
        let rps = repartition(ctx, &dir, "jpart-r", rk, depth, rpart.arity, &rpart)?;
        for (lp, rp) in lps.into_iter().zip(rps) {
            join_parts(lp, rp, lk, rk, ctx, sink, depth + 1)?;
        }
        return Ok(());
    }
    // Load the build partition (charged as live memory for its
    // duration), index it by key, stream the probe partition.
    ctx.charge_rows(build.rows(), build_arity)?;
    let mut build_rows: Vec<Tuple> = Vec::with_capacity(build.rows() as usize);
    build.for_each(ctx, &mut |t| {
        build_rows.push(t);
        Ok(())
    })?;
    let mut index: FastMap<Tuple, Vec<u32>> = FastMap::default();
    for (i, t) in build_rows.iter().enumerate() {
        index
            .entry(t.project(build_keys))
            .or_default()
            .push(i as u32);
    }
    probe.for_each(ctx, &mut |t| {
        if let Some(rows) = index.get(&t.project(probe_keys)) {
            for &row in rows {
                let bt = &build_rows[row as usize];
                sink.push(if build_left {
                    bt.concat(&t)
                } else {
                    t.concat(bt)
                })?;
            }
        }
        Ok(())
    })?;
    drop(index);
    drop(build_rows);
    ctx.release_bytes(build_bytes);
    Ok(())
}

/// Spill-capable grouped aggregation.
fn aggregate_spill(child: OpOut, group: &[usize], agg: AggFn, ctx: &ExecContext) -> Result<OpOut> {
    let mut names: Vec<String> = group
        .iter()
        .map(|&c| child.schema().columns()[c].clone())
        .collect();
    names.push(agg.name().to_lowercase());
    let out_schema = Schema::from_columns("aggregate", names);
    let width = group.len() + 1;

    // Global aggregate (empty group list): one accumulator, O(1) memory
    // regardless of input size — stream and fold. Empty-input identity
    // semantics match the in-memory path.
    if group.is_empty() {
        let mut acc: Option<exec::Acc> = None;
        child.into_each(ctx, &mut |t| {
            acc.get_or_insert_with(|| exec::Acc::new(agg))
                .update(&t, agg)
        })?;
        return match (acc, agg) {
            (Some(a), _) => {
                ctx.charge_row(width)?;
                Ok(OpOut::Mem(Relation::from_tuples(
                    out_schema,
                    vec![Tuple::from([a.finish()?])],
                )))
            }
            (None, AggFn::Count | AggFn::Sum(_)) => {
                ctx.charge_row(width)?;
                Ok(OpOut::Mem(Relation::from_tuples(
                    out_schema,
                    vec![Tuple::from([Value::int(0)])],
                )))
            }
            (None, AggFn::Min(_) | AggFn::Max(_)) => Ok(OpOut::Mem(Relation::empty(out_schema))),
        };
    }

    let fits = !matches!(&child, OpOut::Spilled(_))
        && !ctx.mem_would_trip(child.rows_hint() * row_cost(width));
    if fits {
        // Small enough: the existing parallel in-memory aggregation.
        if let OpOut::Mem(rel) = child {
            let out = exec::aggregate(&rel, group, agg, &[], ctx)?;
            release_rel(ctx, &rel);
            return Ok(OpOut::Mem(out));
        }
        unreachable!("fits implies Mem");
    }

    // Grace aggregation: partition the input by a salted hash of the
    // group columns; group keys never straddle partitions, so each
    // partition aggregates independently.
    let dir = ctx
        .spill_dir()
        .expect("grace aggregate without spill dir")
        .clone();
    let in_arity = child.arity();
    let mut sink = SpillSink::new(ctx, "aggregate", out_schema);
    let parts = partition_out(ctx, &dir, "apart", group, 0, child)?;
    for part in parts {
        aggregate_part(&part, in_arity, group, agg, ctx, &mut sink, 1)?;
    }
    sink.finish()
}

/// Aggregate one partition in memory, repartitioning first (fresh salt)
/// while its worst-case accumulator map would trip the budget.
fn aggregate_part(
    part: &Part,
    in_arity: usize,
    group: &[usize],
    agg: AggFn,
    ctx: &ExecContext,
    sink: &mut SpillSink<'_>,
    depth: u64,
) -> Result<()> {
    if part.rows() == 0 {
        return Ok(());
    }
    let width = group.len() + 1;
    // Worst case every input row is its own group.
    let map_bytes = part.rows() * row_cost(width);
    if ctx.mem_would_trip(map_bytes) {
        sink.flush()?;
    }
    if depth < MAX_DEPTH && ctx.mem_would_trip(map_bytes) {
        let dir = ctx
            .spill_dir()
            .expect("grace aggregate without spill dir")
            .clone();
        let subparts = partition_stream(ctx, &dir, "apart", in_arity, group, depth, &mut |emit| {
            part.for_each(ctx, emit)
        })?;
        for sp in subparts {
            aggregate_part(&sp, in_arity, group, agg, ctx, sink, depth + 1)?;
        }
        return Ok(());
    }
    ctx.charge_rows(part.rows(), width)?;
    let mut groups: FastMap<Tuple, exec::Acc> = FastMap::default();
    part.for_each(ctx, &mut |t| {
        let key = t.project(group);
        groups
            .entry(key)
            .or_insert_with(|| exec::Acc::new(agg))
            .update(&t, agg)
    })?;
    for (key, acc) in groups {
        let mut v = key.values().to_vec();
        v.push(acc.finish()?);
        sink.push(Tuple::from(v))?;
    }
    ctx.release_bytes(map_bytes);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, execute_with};
    use crate::expr::{CmpOp, Predicate};
    use std::sync::Arc;

    fn big_db(n: i64) -> Database {
        let mut db = Database::new();
        db.insert(Relation::from_rows(
            Schema::new("edges", &["src", "dst"]),
            (0..n)
                .map(|i| vec![Value::int(i % 37), Value::int(i % 53)])
                .collect(),
        ));
        db.insert(Relation::from_rows(
            Schema::new("labels", &["node", "tag"]),
            (0..n / 2)
                .map(|i| vec![Value::int(i % 53), Value::str(&format!("t{}", i % 11))])
                .collect(),
        ));
        db
    }

    fn spill_ctx(budget: u64, threads: usize) -> ExecContext {
        ExecContext::unbounded()
            .with_mem_budget(budget)
            .with_threads(threads)
            .with_spill(Arc::new(qf_storage::SpillDir::create_temp().unwrap()))
    }

    /// A join+select+aggregate plan with an output much larger than the
    /// base relations.
    fn explosive_plan() -> PhysicalPlan {
        PhysicalPlan::aggregate(
            PhysicalPlan::select(
                PhysicalPlan::hash_join(
                    PhysicalPlan::scan("edges"),
                    PhysicalPlan::scan("labels"),
                    vec![(1, 0)],
                ),
                vec![Predicate::col_col(0, CmpOp::Lt, 2)],
            ),
            vec![3],
            AggFn::Count,
        )
    }

    #[test]
    fn spilled_run_matches_in_memory() {
        let db = big_db(4000);
        let expected = execute(&explosive_plan(), &db).unwrap();
        for threads in [1usize, 4] {
            // Budget above the scans (~4000+2000 rows * 48B ≈ 290 KB)
            // but far below the join output.
            let ctx = spill_ctx(400 << 10, threads);
            let got = execute_with(&explosive_plan(), &db, &ctx).unwrap();
            assert_eq!(got.tuples(), expected.tuples(), "threads={threads}");
            assert_eq!(got.schema().columns(), expected.schema().columns());
            let stats = ctx.stats();
            assert!(stats.spilled_bytes > 0, "expected spilling: {stats:?}");
            assert!(
                stats.degradations.iter().any(|d| d.stage == "spill"),
                "{stats:?}"
            );
            // Leak check: every run file was consumed and removed.
            assert_eq!(stats.spill_files_live, 0, "leaked spill files: {stats:?}");
        }
    }

    #[test]
    fn ungoverned_budget_would_have_tripped() {
        // Sanity for the acceptance criterion: the same budget without
        // a spill dir aborts with ResourceExhausted(Memory).
        let db = big_db(4000);
        let ctx = ExecContext::unbounded().with_mem_budget(400 << 10);
        let err = execute_with(&explosive_plan(), &db, &ctx).unwrap_err();
        assert!(matches!(
            err,
            EngineError::ResourceExhausted {
                resource: crate::Resource::Memory,
                ..
            }
        ));
    }

    #[test]
    fn grace_join_recurses_on_skewed_partitions() {
        // Both join inputs are cross-join outputs too big for the
        // budget (so they arrive spilled), and every first-level hash
        // partition of the 40-key join column still exceeds the budget
        // — forcing the salted recursive repartition before any
        // partition fits.
        let mut db = Database::new();
        db.insert(Relation::from_rows(
            Schema::new("a", &["k", "v"]),
            (0..40)
                .map(|i| vec![Value::int(i), Value::int(i + 100)])
                .collect(),
        ));
        db.insert(Relation::from_rows(
            Schema::new("b", &["k", "w"]),
            (0..40)
                .map(|i| vec![Value::int(i), Value::int(i + 200)])
                .collect(),
        ));
        let cross = |name: &str| {
            PhysicalPlan::hash_join(PhysicalPlan::scan(name), PhysicalPlan::scan(name), vec![])
        };
        let plan = PhysicalPlan::aggregate(
            PhysicalPlan::hash_join(cross("a"), cross("b"), vec![(0, 0)]),
            vec![],
            AggFn::Count,
        );
        let expected = execute(&plan, &db).unwrap();
        let ctx = spill_ctx(12 << 10, 1);
        let got = execute_with(&plan, &db, &ctx).unwrap();
        assert_eq!(got.tuples(), expected.tuples());
        // 40 keys × 40 left × 40 right pairings.
        assert_eq!(got.tuples()[0].get(0), Value::int(40 * 40 * 40));
        assert!(ctx.stats().spilled_bytes > 0);
    }

    #[test]
    fn spilled_union_and_project_dedup_across_runs() {
        let mut db = Database::new();
        db.insert(Relation::from_rows(
            Schema::new("a", &["x", "y"]),
            (0..3000)
                .map(|i| vec![Value::int(i), Value::int(i % 7)])
                .collect(),
        ));
        db.insert(Relation::from_rows(
            Schema::new("b", &["x", "y"]),
            (1500..4500)
                .map(|i| vec![Value::int(i), Value::int(i % 7)])
                .collect(),
        ));
        // Union overlaps; projection collapses to 7 values. Duplicates
        // appear across spill runs and must dedup at the merge.
        let plan = PhysicalPlan::project(
            PhysicalPlan::union(vec![PhysicalPlan::scan("a"), PhysicalPlan::scan("b")]),
            vec![1],
        );
        let expected = execute(&plan, &db).unwrap();
        let ctx = spill_ctx(150 << 10, 2);
        let got = execute_with(&plan, &db, &ctx).unwrap();
        assert_eq!(got.tuples(), expected.tuples());
        assert_eq!(got.len(), 7);
    }

    #[test]
    fn spill_mode_without_pressure_is_identical() {
        // A spill dir with a huge budget (or none) must not change
        // results or spill anything.
        let db = big_db(1000);
        let expected = execute(&explosive_plan(), &db).unwrap();
        let ctx = ExecContext::unbounded()
            .with_spill(Arc::new(qf_storage::SpillDir::create_temp().unwrap()));
        let got = execute_with(&explosive_plan(), &db, &ctx).unwrap();
        assert_eq!(got.tuples(), expected.tuples());
        assert_eq!(ctx.stats().spilled_bytes, 0);
        assert_eq!(ctx.stats().spills, 0);
    }

    fn chaos_ctx(chaos: qf_storage::ChaosFs, budget: u64) -> ExecContext {
        let dir = qf_storage::SpillDir::create_on(Arc::new(chaos), &std::env::temp_dir()).unwrap();
        ExecContext::unbounded()
            .with_mem_budget(budget)
            .with_threads(1)
            .with_spill(Arc::new(dir))
    }

    #[test]
    fn enospc_during_spill_reabsorbs_and_degrades() {
        use qf_storage::{ChaosFs, Fault, OpClass};
        let db = big_db(4000);
        let expected = execute(&explosive_plan(), &db).unwrap();
        // Create #1 is the spill dir itself; a later create is some
        // sink run. The documented policy: free completed runs, waive
        // the budget, finish in memory with the degradation recorded.
        let ctx = chaos_ctx(
            ChaosFs::quiet().with_fault(OpClass::Create, 4, Fault::DiskFull),
            400 << 10,
        );
        let got = execute_with(&explosive_plan(), &db, &ctx).unwrap();
        assert_eq!(got.tuples(), expected.tuples());
        let stats = ctx.stats();
        assert!(
            stats.degradations.iter().any(|d| d.stage == "spill-enospc"),
            "{stats:?}"
        );
        assert_eq!(stats.spill_files_live, 0, "{stats:?}");
    }

    #[test]
    fn transient_write_errors_absorbed_by_whole_run_retry() {
        use qf_storage::{ChaosFs, Fault, OpClass};
        let db = big_db(4000);
        let expected = execute(&explosive_plan(), &db).unwrap();
        let ctx = chaos_ctx(
            ChaosFs::quiet().with_fault(OpClass::Write, 3, Fault::Transient),
            400 << 10,
        );
        let got = execute_with(&explosive_plan(), &db, &ctx).unwrap();
        assert_eq!(got.tuples(), expected.tuples());
        let stats = ctx.stats();
        assert!(stats.io_retries >= 1, "{stats:?}");
        assert_eq!(stats.spill_files_live, 0, "{stats:?}");
    }

    #[test]
    fn corrupt_spill_run_recovered_by_recompute() {
        use qf_storage::{ChaosFs, Fault, OpClass};
        let db = big_db(4000);
        let expected = execute(&explosive_plan(), &db).unwrap();
        // One scheduled bit flip lands in some run's payload; the
        // writer believes it succeeded, the reader's frame checksum
        // catches it, and the plan is recomputed (fault is one-shot).
        let ctx = chaos_ctx(
            ChaosFs::quiet().with_fault(OpClass::Write, 3, Fault::BitFlip),
            400 << 10,
        );
        let got = execute_with(&explosive_plan(), &db, &ctx).unwrap();
        assert_eq!(got.tuples(), expected.tuples());
        let stats = ctx.stats();
        assert_eq!(stats.corruption_recoveries, 1, "{stats:?}");
        assert!(
            stats
                .degradations
                .iter()
                .any(|d| d.stage == "spill-corruption"),
            "{stats:?}"
        );
        assert_eq!(stats.spill_files_live, 0, "{stats:?}");
    }

    #[test]
    fn anti_join_and_cross_product_under_spill() {
        let mut db = Database::new();
        db.insert(Relation::from_rows(
            Schema::new("l", &["a"]),
            (0..2000).map(|i| vec![Value::int(i)]).collect(),
        ));
        db.insert(Relation::from_rows(
            Schema::new("r", &["b"]),
            (0..40).map(|i| vec![Value::int(i * 3)]).collect(),
        ));
        let anti = PhysicalPlan::anti_join(
            PhysicalPlan::scan("l"),
            PhysicalPlan::scan("r"),
            vec![(0, 0)],
        );
        let cross = PhysicalPlan::aggregate(
            PhysicalPlan::hash_join(PhysicalPlan::scan("l"), PhysicalPlan::scan("r"), vec![]),
            vec![1],
            AggFn::Count,
        );
        for plan in [anti, cross] {
            let expected = execute(&plan, &db).unwrap();
            // Budget above the resident scans (~66 KB) but below the
            // 80k-row cross-product output.
            let ctx = spill_ctx(96 << 10, 1);
            let got = execute_with(&plan, &db, &ctx).unwrap();
            assert_eq!(got.tuples(), expected.tuples());
        }
    }
}
