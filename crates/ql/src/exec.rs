//! The plan executor ("SQL Execute"): spatio-temporal predicates are
//! served by the storage indexes; relational operators run on the
//! in-memory DataFrame engine (this repository's Spark SQL).
//!
//! Expression-bearing operators (filter, project, aggregate, and the
//! residual scan predicate) compile their expressions into `just-exec`
//! bytecode once up front and evaluate batches through the vectorized
//! VM; expressions the compiler rejects run on the interpreted `eval()`
//! fallback. `EXPLAIN ANALYZE` marks which path each operator took with
//! a `compiled=1` / `fallback=1` span attribute.

use crate::ast::{BinOp, Expr};
use crate::compile::try_compile;
use crate::error::QlError;
use crate::functions::{self, eval, exec_err, resolve_column, truthy};
use crate::plan::LogicalPlan;
use crate::Result;
use just_analysis::{dbscan, DbscanParams};
use just_core::{Dataset, Session};
use just_exec::{
    encode_key, full_selection, keys_hashable, total_compare, AggSpec, HashAggregator, JoinHash,
    Program, Vm,
};
use just_geo::{Geometry, Point};
use just_obs::{SpanId, Trace};
use just_storage::{CancelToken, FieldType, Row, SpatialPredicate, Value};
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};

/// Rows per evaluation batch for in-memory operators (stored-table scans
/// use the storage stream's own batching).
const BATCH: usize = 1024;

/// `EXPLAIN ANALYZE` span attribute for operators that ran bytecode.
const COMPILED: &str = "compiled";
/// Span attribute for operators that fell back to interpreted `eval()`.
const FALLBACK: &str = "fallback";

/// The k-NN walk's global counters and the `EXPLAIN ANALYZE` attribute
/// each one's per-operator delta is reported under on a `Knn` span.
const KNN_COUNTERS: [(&str, &str); 3] = [
    ("just_knn_cells_scanned", "cells_scanned"),
    ("just_knn_cells_split", "cells_split"),
    ("just_knn_candidates", "candidates"),
];

static COMPILED_ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enables / disables compiled expression execution (default:
/// enabled). With it disabled every operator takes the interpreted
/// fallback — the switch the `exec_compile` bench and the parity tests
/// use to compare both paths on identical queries.
pub fn set_compiled(enabled: bool) {
    COMPILED_ENABLED.store(enabled, Ordering::Relaxed);
}

fn compiled_enabled() -> bool {
    COMPILED_ENABLED.load(Ordering::Relaxed)
}

/// One operator's lightweight execution stats, collected on every query
/// (unlike a [`Trace`], this is a flat vector with no span arena — cheap
/// enough to gather always, persisted only when the query turns out to
/// be slow).
#[derive(Debug, Clone)]
pub struct OpStat {
    /// Operator label (same vocabulary as the trace/plan renderings).
    pub label: String,
    /// Wall time of the operator including its children, microseconds.
    pub elapsed_us: u64,
    /// Rows the operator emitted (0 when it failed).
    pub rows: u64,
}

/// Executes logical plans against one session.
pub struct Executor<'a> {
    session: &'a Session,
    kill: Option<CancelToken>,
}

impl<'a> Executor<'a> {
    /// Creates an executor for the session.
    pub fn new(session: &'a Session) -> Self {
        Executor {
            session,
            kill: None,
        }
    }

    /// Attaches a query-level kill token (from the live query registry).
    /// The executor checks it between operators and between scan batches;
    /// once cancelled, execution stops with [`QlError::Cancelled`] and
    /// any in-flight scan stream is cancelled so its disk IO stops too.
    /// This token is distinct from the per-stream LIMIT cancel token: a
    /// satisfied LIMIT must not poison the query's other scans.
    pub fn with_kill(mut self, token: Option<CancelToken>) -> Self {
        self.kill = token;
        self
    }

    fn check_kill(&self) -> Result<()> {
        match &self.kill {
            Some(k) if k.is_cancelled() => Err(QlError::Cancelled("killed via KILL QUERY".into())),
            _ => Ok(()),
        }
    }

    /// Runs a plan to a dataset.
    pub fn run(&self, plan: &LogicalPlan) -> Result<Dataset> {
        let mut children = Vec::new();
        for child in plan.children() {
            children.push(self.run(child)?);
        }
        Ok(self.execute_node(plan, children)?.0)
    }

    /// Runs a plan like [`Executor::run`] while appending one [`OpStat`]
    /// per operator (children first). This is the always-on path the
    /// client uses for plain queries: when the query turns out slow, the
    /// collected stats become the retroactive per-operator breakdown in
    /// the slow-query log without ever allocating a trace.
    pub fn run_collect(&self, plan: &LogicalPlan, stats: &mut Vec<OpStat>) -> Result<Dataset> {
        self.check_kill()?;
        let started = std::time::Instant::now();
        let mut children = Vec::new();
        for child in plan.children() {
            children.push(self.run_collect(child, stats)?);
        }
        let result = self.execute_node(plan, children).map(|(d, _)| d);
        stats.push(OpStat {
            label: plan.label(),
            elapsed_us: started.elapsed().as_micros() as u64,
            rows: result.as_ref().map(|d| d.len() as u64).unwrap_or(0),
        });
        result
    }

    /// Runs a plan like [`Executor::run`], recording one span per operator
    /// under `parent`: the operator label, wall time, output row count,
    /// and — for the index-serving leaves (`Scan`, `Knn`), the only
    /// operators that touch the kvstore — the exact IO delta (blocks
    /// read, cache hits, bytes) plus index-selectivity counters (key
    /// ranges generated, keys scanned) attributed to that operator. A
    /// `Knn` span also carries the cell walk's `cells_scanned`,
    /// `cells_split` and `candidates`.
    pub fn run_traced(
        &self,
        plan: &LogicalPlan,
        trace: &mut Trace,
        parent: SpanId,
    ) -> Result<Dataset> {
        let span = trace.start(plan.label(), parent);
        let is_io_leaf = matches!(plan, LogicalPlan::Scan { .. } | LogicalPlan::Knn { .. });
        let before = is_io_leaf.then(|| {
            let obs = just_obs::global();
            (
                self.session.engine().io_snapshot(),
                obs.counter("just_index_ranges_generated").get(),
                obs.counter("just_index_keys_scanned").get(),
                obs.counter("just_storage_rows_pruned_pushdown").get(),
            )
        });
        let knn_before = matches!(plan, LogicalPlan::Knn { .. })
            .then(|| KNN_COUNTERS.map(|(name, _)| just_obs::global().counter(name).get()));
        let mut children = Vec::new();
        for child in plan.children() {
            children.push(self.run_traced(child, trace, span)?);
        }
        // Join/TopK counters snapshot *after* the children ran, so nested
        // joins don't pollute this operator's delta.
        let exec_before = matches!(
            plan,
            LogicalPlan::HashJoin { .. } | LogicalPlan::TopK { .. } | LogicalPlan::Join { .. }
        )
        .then(|| {
            let obs = just_obs::global();
            (
                obs.counter("just_exec_join_build_rows").get(),
                obs.counter("just_exec_join_probe_rows").get(),
                obs.counter("just_exec_join_fallbacks").get(),
                obs.counter("just_exec_topk_rows_pruned").get(),
            )
        });
        let result = self.execute_node(plan, children);
        if let Ok((data, path)) = &result {
            // Which execution path the operator's expressions took.
            if let Some(mark) = path {
                trace.add_attr(span, mark, 1);
            }
            trace.set_rows(span, data.len() as u64);
            if let Some((build, probe, falls, pruned)) = exec_before {
                let obs = just_obs::global();
                match plan {
                    LogicalPlan::HashJoin { .. } => {
                        trace.add_attr(
                            span,
                            "build_rows",
                            obs.counter("just_exec_join_build_rows").get() - build,
                        );
                        trace.add_attr(
                            span,
                            "probe_rows",
                            obs.counter("just_exec_join_probe_rows").get() - probe,
                        );
                        let falls = obs.counter("just_exec_join_fallbacks").get() - falls;
                        if falls > 0 {
                            trace.add_attr(span, "nested_loop", falls);
                        }
                    }
                    LogicalPlan::TopK { .. } => {
                        trace.add_attr(
                            span,
                            "rows_pruned",
                            obs.counter("just_exec_topk_rows_pruned").get() - pruned,
                        );
                    }
                    _ => {}
                }
            }
            if let Some((io, ranges, keys, pruned)) = before {
                let obs = just_obs::global();
                let d = self.session.engine().io_snapshot().since(&io);
                trace.add_attr(span, "blocks_read", d.blocks_read);
                trace.add_attr(span, "cache_hits", d.cache_hits);
                trace.add_attr(span, "bytes_read", d.bytes_read);
                if d.batches_emitted > 0 {
                    trace.add_attr(span, "batches_emitted", d.batches_emitted);
                }
                if d.scan_early_terminations > 0 {
                    trace.add_attr(span, "scan_early_terminations", d.scan_early_terminations);
                }
                let pruned = obs.counter("just_storage_rows_pruned_pushdown").get() - pruned;
                if pruned > 0 {
                    trace.add_attr(span, "rows_pruned_pushdown", pruned);
                }
                // Of all block lookups this operator issued, the share the
                // block cache absorbed (integer percent).
                let lookups = d.blocks_read + d.cache_hits;
                if let Some(pct) = (d.cache_hits * 100).checked_div(lookups) {
                    trace.add_attr(span, "cache_hit_pct", pct);
                }
                if d.bloom_skips > 0 {
                    trace.add_attr(span, "bloom_skips", d.bloom_skips);
                }
                if d.index_skips > 0 {
                    trace.add_attr(span, "index_skips", d.index_skips);
                }
                if d.memtable_hits > 0 {
                    trace.add_attr(span, "memtable_hits", d.memtable_hits);
                }
                let ranges = obs.counter("just_index_ranges_generated").get() - ranges;
                let keys = obs.counter("just_index_keys_scanned").get() - keys;
                if ranges > 0 {
                    trace.add_attr(span, "key_ranges", ranges);
                    trace.add_attr(span, "keys_scanned", keys);
                }
            }
            if let Some(knn_before) = knn_before {
                let obs = just_obs::global();
                for ((name, attr), was) in KNN_COUNTERS.iter().zip(knn_before) {
                    trace.add_attr(span, attr, obs.counter(name).get() - was);
                }
            }
        }
        trace.end(span);
        result.map(|(d, _)| d)
    }

    /// Evaluates one operator given its already-computed child datasets
    /// (in [`LogicalPlan::children`] order). The second element reports
    /// which expression-execution path the operator took, if it
    /// evaluated expressions at all.
    fn execute_node(
        &self,
        plan: &LogicalPlan,
        children: Vec<Dataset>,
    ) -> Result<(Dataset, Option<&'static str>)> {
        let mut children = children.into_iter();
        let mut next = || {
            children
                .next()
                .expect("child dataset count matches plan arity")
        };
        match plan {
            LogicalPlan::Scan {
                table,
                alias,
                projection,
                spatial,
                time,
                residual,
                limit,
            } => self.scan(table, alias, projection, spatial, time, residual, limit),
            LogicalPlan::Values { columns, rows } => {
                let mut out_rows = Vec::with_capacity(rows.len());
                for exprs in rows {
                    let mut values = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        values.push(functions::eval_const(e)?);
                    }
                    out_rows.push(Row::new(values));
                }
                Ok((Dataset::new(columns.clone(), out_rows), None))
            }
            LogicalPlan::Filter { predicate, .. } => {
                filter(next(), predicate).map(|(d, p)| (d, Some(p)))
            }
            LogicalPlan::Project { items, .. } => project(next(), items),
            LogicalPlan::Aggregate {
                group_by,
                aggregates,
                ..
            } => aggregate(next(), group_by, aggregates).map(|(d, p)| (d, Some(p))),
            LogicalPlan::Sort { keys, .. } => sort_dispatch(next(), keys),
            LogicalPlan::TopK { keys, k, .. } => topk(next(), keys, *k),
            LogicalPlan::FilterProject {
                predicate, items, ..
            } => filter_project(next(), predicate, items),
            LogicalPlan::Limit { n, .. } => {
                let mut data = next();
                data.rows.truncate(*n);
                Ok((data, None))
            }
            LogicalPlan::Join { on, .. } => {
                let l = next();
                let r = next();
                Ok((join(l, r, on)?, Some(FALLBACK)))
            }
            LogicalPlan::HashJoin { keys, residual, .. } => {
                let l = next();
                let r = next();
                hash_join(l, r, keys, residual)
            }
            LogicalPlan::Knn { table, lng, lat, k } => {
                Ok((self.session.knn(table, Point::new(*lng, *lat), *k)?, None))
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn scan(
        &self,
        table: &str,
        alias: &Option<String>,
        projection: &Option<Vec<String>>,
        spatial: &Option<(String, just_geo::Rect)>,
        time: &Option<(String, i64, i64)>,
        residual: &Option<Expr>,
        limit: &Option<usize>,
    ) -> Result<(Dataset, Option<&'static str>)> {
        // Views first (they shadow nothing: names are namespaced apart).
        let (mut data, path) = if let Ok(view) = self.session.view(table) {
            // Pushed predicates over a view run in memory, against the
            // shared dataset *by reference*: only surviving rows (up to
            // the limit) are ever cloned, so a selective filter never
            // pays for a full-view deep copy.
            let mut preds: Vec<Expr> = Vec::new();
            if let Some((col, rect)) = spatial {
                preds.push(spatial_expr(col, *rect));
            }
            if let Some((col, lo, hi)) = time {
                preds.push(temporal_expr(col, *lo, *hi));
            }
            if let Some(pred) = residual {
                preds.push(pred.clone());
            }
            let (rows, p) = scan_view_rows(&view, &preds, *limit)?;
            (Dataset::new(view.columns.clone(), rows), p)
        } else {
            self.scan_stored(table, projection, spatial, time, residual, limit)?
        };

        if let Some(cols) = projection {
            data = project_columns(data, cols)?;
        }
        if let Some(alias) = alias {
            data.columns = data
                .columns
                .iter()
                .map(|c| format!("{alias}.{c}"))
                .collect();
        }
        Ok((data, path))
    }

    /// Scans a stored table through the streaming read path: batches are
    /// pulled one at a time, the indexed spatio-temporal predicate and
    /// the column projection run *inside* the storage decode, residual
    /// predicates run in memory per batch, and a pushed-down `LIMIT`
    /// cancels the stream — stopping block reads — as soon as enough
    /// matching rows have surfaced.
    fn scan_stored(
        &self,
        table: &str,
        projection: &Option<Vec<String>>,
        spatial: &Option<(String, just_geo::Rect)>,
        time: &Option<(String, i64, i64)>,
        residual: &Option<Expr>,
        limit: &Option<usize>,
    ) -> Result<(Dataset, Option<&'static str>)> {
        let def = self.session.describe(table)?;
        let geom_name = def
            .schema
            .geom_index()
            .map(|i| def.schema.fields()[i].name.clone());
        let time_name = def
            .schema
            .time_index()
            .map(|i| def.schema.fields()[i].name.clone());

        let matches_name = |col: &str, field: &str| {
            col.eq_ignore_ascii_case(field)
                || col
                    .to_ascii_lowercase()
                    .ends_with(&format!(".{}", field.to_ascii_lowercase()))
        };
        let matches_field = |col: &str, field: &Option<String>| {
            field
                .as_ref()
                .map(|f| matches_name(col, f))
                .unwrap_or(false)
        };

        let spatial_ok = spatial
            .as_ref()
            .filter(|(col, _)| matches_field(col, &geom_name));
        let time_ok = time
            .as_ref()
            .filter(|(col, _, _)| matches_field(col, &time_name));

        // Resolve the projected column names onto schema field indices so
        // the storage layer can skip decoding dropped fields. Any name
        // that fails to resolve (outer-query aliases can leak into
        // advisory projections) falls back to decoding everything.
        let proj_indices: Option<Vec<usize>> = projection.as_ref().and_then(|cols| {
            let mut idx = Vec::with_capacity(cols.len());
            for c in cols {
                let i = def
                    .schema
                    .fields()
                    .iter()
                    .position(|f| matches_name(c, &f.name))?;
                if !idx.contains(&i) {
                    idx.push(i);
                }
            }
            Some(idx)
        });

        let stream_spatial = match (spatial_ok, time_ok) {
            (Some((_, rect)), _) => Some(rect),
            // Time-only predicate: the whole world spatially, so the
            // temporal index still prunes periods.
            (None, Some(_)) => Some(&just_geo::WORLD),
            (None, None) => None,
        };
        let stream_time = time_ok.map(|(_, lo, hi)| (*lo, *hi));
        let mut opts = just_storage::ScanOptions::default();
        if let Some(k) = limit {
            // Don't overfetch: a satisfiable limit should stop within
            // roughly one batch instead of paying for a full default one.
            opts.batch_rows = opts.batch_rows.min((*k).max(1));
        }
        let mut stream = self.session.query_stream(
            table,
            stream_spatial,
            stream_time,
            SpatialPredicate::Within,
            proj_indices.as_deref(),
            opts,
        )?;

        // Predicates that didn't match the indexed fields run in memory
        // per batch so results stay correct — and *before* rows count
        // toward the limit.
        let mut mem_preds: Vec<Expr> = Vec::new();
        if spatial_ok.is_none() {
            if let Some((col, rect)) = spatial {
                mem_preds.push(spatial_expr(col, *rect));
            }
        }
        if time_ok.is_none() {
            if let Some((col, lo, hi)) = time {
                mem_preds.push(temporal_expr(col, *lo, *hi));
            }
        }
        if let Some(pred) = residual {
            mem_preds.push(pred.clone());
        }

        let columns: Vec<String> = def.schema.fields().iter().map(|f| f.name.clone()).collect();

        // Compile every in-memory predicate once for the whole scan; the
        // schema's statically `integer` fields unlock the int-specialized
        // opcodes. All-or-nothing: one uncompilable predicate sends the
        // scan down the interpreted per-batch path.
        let progs: Option<Vec<Program>> = if compiled_enabled() && !mem_preds.is_empty() {
            let int_cols: Vec<bool> = def
                .schema
                .fields()
                .iter()
                .map(|f| f.ty == FieldType::Int)
                .collect();
            mem_preds
                .iter()
                .map(|p| try_compile(p, &columns, Some(&int_cols)))
                .collect()
        } else {
            None
        };
        let path = match (&mem_preds[..], &progs) {
            ([], _) => None,
            (_, Some(_)) => Some(COMPILED),
            (_, None) => Some(FALLBACK),
        };

        let cancel = stream.cancel_token();
        let mut vm = Vm::new();
        let mut rows: Vec<Row> = Vec::new();
        'batches: while let Some(batch) =
            stream.next_batch().map_err(just_core::CoreError::Storage)?
        {
            // Query-level kill: cancel the stream first so the drop is
            // counted as an early termination and block reads stop here.
            if let Err(e) = self.check_kill() {
                cancel.cancel();
                return Err(e);
            }
            let kept = if let Some(progs) = &progs {
                // Progressive narrowing: each predicate re-examines only
                // the rows its predecessors kept.
                let mut sel = full_selection(batch.len());
                for prog in progs {
                    if sel.is_empty() {
                        break;
                    }
                    let mut next = Vec::with_capacity(sel.len());
                    vm.select(prog, &batch, &sel, &mut next).map_err(exec_err)?;
                    sel = next;
                }
                take_selected(batch, &sel)
            } else {
                let mut chunk = Dataset::new(columns.clone(), batch);
                for pred in &mem_preds {
                    chunk = filter_interpreted(chunk, pred)?;
                }
                chunk.rows
            };
            for row in kept {
                rows.push(row);
                if let Some(k) = limit {
                    if rows.len() >= *k {
                        // Satisfied: stop the disk IO mid-range.
                        cancel.cancel();
                        break 'batches;
                    }
                }
            }
        }
        Ok((Dataset::new(columns, rows), path))
    }
}

/// Moves the rows at the (sorted) selected indices out of `rows` without
/// cloning any surviving row.
fn take_selected(rows: Vec<Row>, sel: &[u32]) -> Vec<Row> {
    let mut out = Vec::with_capacity(sel.len());
    let mut sel = sel.iter().peekable();
    for (i, row) in rows.into_iter().enumerate() {
        if sel.peek() == Some(&&(i as u32)) {
            sel.next();
            out.push(row);
        }
    }
    out
}

/// Filters a view's rows in place: predicates run against the shared
/// dataset by reference and only surviving rows — capped by the pushed
/// `LIMIT` — are cloned out. Compiled and interpreted paths keep the
/// usual evaluation-set parity (a later predicate only ever sees rows
/// the earlier ones kept).
fn scan_view_rows(
    view: &Dataset,
    preds: &[Expr],
    limit: Option<usize>,
) -> Result<(Vec<Row>, Option<&'static str>)> {
    for pred in preds {
        validate_columns(pred, &view.columns)?;
    }
    let cap = limit.unwrap_or(usize::MAX);
    if preds.is_empty() {
        let take = view.rows.len().min(cap);
        return Ok((view.rows[..take].to_vec(), None));
    }
    let progs: Option<Vec<Program>> = if compiled_enabled() {
        let int_cols = infer_int_cols(view);
        preds
            .iter()
            .map(|p| try_compile(p, &view.columns, Some(&int_cols)))
            .collect()
    } else {
        None
    };
    let mut out: Vec<Row> = Vec::new();
    if let Some(progs) = &progs {
        let mut vm = Vm::new();
        'batches: for batch in view.rows.chunks(BATCH) {
            // Progressive narrowing, as in the stored-table scan.
            let mut sel = full_selection(batch.len());
            for prog in progs {
                if sel.is_empty() {
                    break;
                }
                let mut next = Vec::with_capacity(sel.len());
                vm.select(prog, batch, &sel, &mut next).map_err(exec_err)?;
                sel = next;
            }
            for &lane in &sel {
                out.push(batch[lane as usize].clone());
                if out.len() >= cap {
                    break 'batches;
                }
            }
        }
        Ok((out, Some(COMPILED)))
    } else {
        'rows: for row in &view.rows {
            for pred in preds {
                if !truthy(&eval(pred, &row.values, &view.columns)?) {
                    continue 'rows;
                }
            }
            out.push(row.clone());
            if out.len() >= cap {
                break;
            }
        }
        Ok((out, Some(FALLBACK)))
    }
}

/// Guesses which view columns hold integers from the first non-NULL
/// value per column (views carry no schema). Only a *hint*: the
/// int-specialized opcodes guard at runtime, so a wrong guess costs the
/// fast path, never correctness.
fn infer_int_cols(view: &Dataset) -> Vec<bool> {
    let mut int_cols = vec![false; view.columns.len()];
    let mut known = vec![false; view.columns.len()];
    for row in view.rows.iter().take(64) {
        for (c, v) in row.values.iter().enumerate().take(known.len()) {
            if !known[c] && !matches!(v, Value::Null) {
                known[c] = true;
                int_cols[c] = matches!(v, Value::Int(_));
            }
        }
        if known.iter().all(|k| *k) {
            break;
        }
    }
    int_cols
}

fn spatial_expr(col: &str, rect: just_geo::Rect) -> Expr {
    Expr::Binary {
        op: crate::ast::BinOp::Within,
        lhs: Box::new(Expr::Column(col.to_string())),
        rhs: Box::new(Expr::Literal(Value::Geom(Geometry::Rect(rect)))),
    }
}

fn temporal_expr(col: &str, lo: i64, hi: i64) -> Expr {
    Expr::Between {
        expr: Box::new(Expr::Column(col.to_string())),
        lo: Box::new(Expr::Literal(Value::Date(lo))),
        hi: Box::new(Expr::Literal(Value::Date(hi))),
    }
}

/// Errors on column references that cannot resolve against the header and
/// on unknown function names — run before row-wise evaluation so empty
/// relations still reject bad queries (like any SQL analyzer).
fn validate_columns(expr: &Expr, columns: &[String]) -> Result<()> {
    for c in expr.columns() {
        resolve_column(&c, columns)?;
    }
    let mut bad_fn: Option<String> = None;
    expr.walk(&mut |e| {
        if let Expr::Func { name, .. } = e {
            if bad_fn.is_none() && !functions::is_known_function(name) {
                bad_fn = Some(name.clone());
            }
        }
    });
    match bad_fn {
        Some(name) => Err(QlError::Analyze(format!("unknown function '{name}'"))),
        None => Ok(()),
    }
}

/// Filters `data`, preferring the compiled path: the predicate lowers to
/// bytecode once, then batches of [`BATCH`] rows run through the
/// vectorized VM. Anything the compiler rejects falls back to the
/// interpreted row loop.
fn filter(data: Dataset, predicate: &Expr) -> Result<(Dataset, &'static str)> {
    validate_columns(predicate, &data.columns)?;
    if compiled_enabled() {
        if let Some(prog) = try_compile(predicate, &data.columns, None) {
            let mut vm = Vm::new();
            let mut rows = Vec::with_capacity(data.rows.len());
            let mut chunk_rows = data.rows;
            while !chunk_rows.is_empty() {
                let rest = chunk_rows.split_off(chunk_rows.len().min(BATCH));
                let mut sel = Vec::with_capacity(chunk_rows.len());
                vm.select(
                    &prog,
                    &chunk_rows,
                    &full_selection(chunk_rows.len()),
                    &mut sel,
                )
                .map_err(exec_err)?;
                rows.extend(take_selected(chunk_rows, &sel));
                chunk_rows = rest;
            }
            return Ok((Dataset::new(data.columns, rows), COMPILED));
        }
    }
    Ok((filter_interpreted(data, predicate)?, FALLBACK))
}

/// The interpreted fallback: row-at-a-time `eval()`.
fn filter_interpreted(data: Dataset, predicate: &Expr) -> Result<Dataset> {
    validate_columns(predicate, &data.columns)?;
    let mut rows = Vec::with_capacity(data.rows.len());
    for row in data.rows {
        let keep = truthy(&eval(predicate, &row.values, &data.columns)?);
        if keep {
            rows.push(row);
        }
    }
    Ok(Dataset::new(data.columns, rows))
}

fn project_columns(data: Dataset, cols: &[String]) -> Result<Dataset> {
    let mut indices = Vec::with_capacity(cols.len());
    let mut names = Vec::with_capacity(cols.len());
    for c in cols {
        // Skip projection columns the relation doesn't have (they can be
        // outer-query names when a subquery renamed things); correctness
        // is preserved because projection pruning is advisory.
        if let Ok(i) = resolve_column(c, &data.columns) {
            indices.push(i);
            names.push(data.columns[i].clone());
        }
    }
    if indices.is_empty() {
        return Ok(data);
    }
    let rows = data
        .rows
        .into_iter()
        .map(|r| Row::new(indices.iter().map(|&i| r.values[i].clone()).collect()))
        .collect();
    Ok(Dataset::new(names, rows))
}

fn project(data: Dataset, items: &[(Expr, String)]) -> Result<(Dataset, Option<&'static str>)> {
    // 1-N table functions: the sole item expands each row. These are
    // plan-level constructs the interpreter owns.
    if items.len() == 1 {
        if let Expr::Func { name, args } = &items[0].0 {
            if functions::is_table_function(name) {
                let mut columns: Option<Vec<String>> = None;
                let mut rows = Vec::new();
                for row in &data.rows {
                    let mut vals = Vec::with_capacity(args.len());
                    for a in args {
                        vals.push(eval(a, &row.values, &data.columns)?);
                    }
                    if let Some((cols, expanded)) = functions::table_function(name, vals)? {
                        columns.get_or_insert(cols);
                        rows.extend(expanded.into_iter().map(Row::new));
                    }
                }
                let columns = columns.unwrap_or_else(|| vec![items[0].1.clone()]);
                return Ok((Dataset::new(columns, rows), Some(FALLBACK)));
            }
            if functions::is_cluster_function(name) {
                return Ok((run_dbscan(data, args)?, Some(FALLBACK)));
            }
        }
    }

    let mut columns = Vec::new();
    let mut plans: Vec<ProjectItem> = Vec::new();
    for (e, name) in items {
        if !matches!(e, Expr::Star) {
            validate_columns(e, &data.columns)?;
        }
        match e {
            Expr::Star => {
                for (i, c) in data.columns.iter().enumerate() {
                    columns.push(c.clone());
                    plans.push(ProjectItem::Passthrough(i));
                }
            }
            // A bare column is a reshuffle, not a computation: skip the
            // VM (and its per-value materialization) entirely.
            // `validate_columns` above already produced the resolution
            // error an eval would have.
            Expr::Column(c) => {
                columns.push(name.clone());
                plans.push(ProjectItem::Passthrough(resolve_column(c, &data.columns)?));
            }
            other => {
                columns.push(name.clone());
                plans.push(ProjectItem::Compute(other.clone()));
            }
        }
    }

    // Pure column reshuffles evaluate nothing — no path to report; the
    // identity reshuffle doesn't even touch the rows.
    let computes: Vec<(usize, &Expr)> = plans
        .iter()
        .enumerate()
        .filter_map(|(i, p)| match p {
            ProjectItem::Compute(e) => Some((i, e)),
            ProjectItem::Passthrough(_) => None,
        })
        .collect();
    if computes.is_empty() {
        if is_identity(&plans, data.columns.len()) {
            return Ok((Dataset::new(columns, data.rows), None));
        }
        return Ok((project_interpreted(data, columns, &plans)?, None));
    }
    if compiled_enabled() {
        let progs: Option<Vec<(usize, Program)>> = computes
            .iter()
            .map(|(i, e)| try_compile(e, &data.columns, None).map(|p| (*i, p)))
            .collect();
        if let Some(progs) = progs {
            return Ok((
                project_compiled(data, columns, &plans, &progs)?,
                Some(COMPILED),
            ));
        }
    }
    Ok((project_interpreted(data, columns, &plans)?, Some(FALLBACK)))
}

/// Compiled projection: each computed item's program evaluates a whole
/// batch into a column, then output rows are assembled by moving values
/// out of the computed columns (passthrough items clone from the input
/// row).
fn project_compiled(
    data: Dataset,
    columns: Vec<String>,
    plans: &[ProjectItem],
    progs: &[(usize, Program)],
) -> Result<Dataset> {
    let mut vm = Vm::new();
    let mut rows = Vec::with_capacity(data.rows.len());
    let mut chunk = data.rows;
    while !chunk.is_empty() {
        let rest = chunk.split_off(chunk.len().min(BATCH));
        let sel = full_selection(chunk.len());
        let mut computed: Vec<Option<Vec<Value>>> = vec![None; plans.len()];
        for (idx, prog) in progs {
            let mut col = Vec::with_capacity(chunk.len());
            vm.eval(prog, &chunk, &sel, &mut col).map_err(exec_err)?;
            computed[*idx] = Some(col);
        }
        for (r, row) in chunk.iter().enumerate() {
            let mut values = Vec::with_capacity(plans.len());
            for (i, p) in plans.iter().enumerate() {
                values.push(match p {
                    ProjectItem::Passthrough(c) => row.values[*c].clone(),
                    ProjectItem::Compute(_) => std::mem::replace(
                        &mut computed[i].as_mut().expect("computed column")[r],
                        Value::Null,
                    ),
                });
            }
            rows.push(Row::new(values));
        }
        chunk = rest;
    }
    Ok(Dataset::new(columns, rows))
}

/// The interpreted fallback: row-at-a-time `eval()` per computed item.
fn project_interpreted(
    data: Dataset,
    columns: Vec<String>,
    plans: &[ProjectItem],
) -> Result<Dataset> {
    let mut rows = Vec::with_capacity(data.rows.len());
    for row in &data.rows {
        let mut values = Vec::with_capacity(plans.len());
        for p in plans {
            values.push(match p {
                ProjectItem::Passthrough(i) => row.values[*i].clone(),
                ProjectItem::Compute(e) => eval(e, &row.values, &data.columns)?,
            });
        }
        rows.push(Row::new(values));
    }
    Ok(Dataset::new(columns, rows))
}

enum ProjectItem {
    Passthrough(usize),
    Compute(Expr),
}

/// Whether a projection is the identity over its input — every item a
/// passthrough of column `i` at position `i`, covering the full width.
/// Such a projection can rename columns but never needs to touch rows.
fn is_identity(plans: &[ProjectItem], width: usize) -> bool {
    plans.len() == width
        && plans
            .iter()
            .enumerate()
            .all(|(i, p)| matches!(p, ProjectItem::Passthrough(c) if *c == i))
}

/// Fused Filter→Project: each batch runs the predicate's selection and
/// the projection programs in one pass, so the intermediate filtered
/// relation is never materialized and computed items only evaluate over
/// surviving rows. Falls back to the two-step filter-then-project when
/// the predicate or a computed item doesn't compile (or compiled
/// execution is off); the result is identical either way.
fn filter_project(
    data: Dataset,
    predicate: &Expr,
    items: &[(Expr, String)],
) -> Result<(Dataset, Option<&'static str>)> {
    // 1-N table/cluster functions are plan-level constructs the
    // interpreter owns; let `project()` special-case them.
    let special = items.len() == 1
        && matches!(&items[0].0, Expr::Func { name, .. }
            if functions::is_table_function(name) || functions::is_cluster_function(name));
    if compiled_enabled() && !special {
        if let Some(fused) = filter_project_compiled(&data, predicate, items)? {
            return Ok((fused, Some(COMPILED)));
        }
    }
    let (filtered, fpath) = filter(data, predicate)?;
    let (projected, ppath) = project(filtered, items)?;
    let path = if fpath == COMPILED && ppath != Some(FALLBACK) {
        COMPILED
    } else {
        FALLBACK
    };
    Ok((projected, Some(path)))
}

/// Returns `Ok(None)` when any expression fails to lower; the caller
/// then takes the two-step path (which re-validates, harmlessly).
fn filter_project_compiled(
    data: &Dataset,
    predicate: &Expr,
    items: &[(Expr, String)],
) -> Result<Option<Dataset>> {
    validate_columns(predicate, &data.columns)?;
    let Some(pred_prog) = try_compile(predicate, &data.columns, None) else {
        return Ok(None);
    };
    let mut columns = Vec::new();
    let mut plans: Vec<ProjectItem> = Vec::new();
    for (e, name) in items {
        if !matches!(e, Expr::Star) {
            validate_columns(e, &data.columns)?;
        }
        match e {
            Expr::Star => {
                for (i, c) in data.columns.iter().enumerate() {
                    columns.push(c.clone());
                    plans.push(ProjectItem::Passthrough(i));
                }
            }
            Expr::Column(c) => {
                columns.push(name.clone());
                plans.push(ProjectItem::Passthrough(resolve_column(c, &data.columns)?));
            }
            other => {
                columns.push(name.clone());
                plans.push(ProjectItem::Compute(other.clone()));
            }
        }
    }
    let progs: Option<Vec<(usize, Program)>> = plans
        .iter()
        .enumerate()
        .filter_map(|(i, p)| match p {
            ProjectItem::Compute(e) => Some((i, e)),
            ProjectItem::Passthrough(_) => None,
        })
        .map(|(i, e)| try_compile(e, &data.columns, None).map(|p| (i, p)))
        .collect();
    let Some(progs) = progs else {
        return Ok(None);
    };

    let mut vm = Vm::new();
    let mut rows = Vec::new();
    for chunk in data.rows.chunks(BATCH) {
        let mut sel = Vec::with_capacity(chunk.len());
        vm.select(&pred_prog, chunk, &full_selection(chunk.len()), &mut sel)
            .map_err(exec_err)?;
        if sel.is_empty() {
            continue;
        }
        let mut computed: Vec<Option<Vec<Value>>> = vec![None; plans.len()];
        for (idx, prog) in &progs {
            let mut col = Vec::with_capacity(sel.len());
            vm.eval(prog, chunk, &sel, &mut col).map_err(exec_err)?;
            computed[*idx] = Some(col);
        }
        for (j, &lane) in sel.iter().enumerate() {
            let row = &chunk[lane as usize];
            let mut values = Vec::with_capacity(plans.len());
            for (i, p) in plans.iter().enumerate() {
                values.push(match p {
                    ProjectItem::Passthrough(c) => row.values[*c].clone(),
                    ProjectItem::Compute(_) => std::mem::replace(
                        &mut computed[i].as_mut().expect("computed column")[j],
                        Value::Null,
                    ),
                });
            }
            rows.push(Row::new(values));
        }
    }
    Ok(Some(Dataset::new(columns, rows)))
}

/// `st_DBSCAN(geom, minPts, radius)` — the N-M operation: clusters every
/// input row's geometry; output is `(geom, cluster)` with cluster `-1`
/// for noise.
fn run_dbscan(data: Dataset, args: &[Expr]) -> Result<Dataset> {
    if args.len() != 3 {
        return Err(QlError::Eval(
            "st_DBSCAN(geom, minPts, radius) takes 3 arguments".into(),
        ));
    }
    let mut pts = Vec::with_capacity(data.rows.len());
    for row in &data.rows {
        match eval(&args[0], &row.values, &data.columns)? {
            Value::Geom(g) => pts.push(g.representative_point()),
            other => {
                return Err(QlError::Eval(format!(
                    "st_DBSCAN over non-geometry {other:?}"
                )))
            }
        }
    }
    let min_pts = functions::eval_const(&args[1])?
        .as_int()
        .ok_or_else(|| QlError::Eval("st_DBSCAN: minPts must be an integer".into()))?
        .max(1) as usize;
    let radius = functions::eval_const(&args[2])?
        .as_float()
        .ok_or_else(|| QlError::Eval("st_DBSCAN: radius must be numeric".into()))?;
    let labels = dbscan(
        &pts,
        &DbscanParams {
            eps: radius,
            min_pts,
        },
    );
    let rows = pts
        .iter()
        .zip(labels)
        .map(|(p, l)| {
            Row::new(vec![
                Value::Geom(Geometry::Point(*p)),
                Value::Int(match l {
                    just_analysis::ClusterLabel::Cluster(c) => c as i64,
                    just_analysis::ClusterLabel::Noise => -1,
                }),
            ])
        })
        .collect();
    Ok(Dataset::new(vec!["geom".into(), "cluster".into()], rows))
}

fn aggregate(
    data: Dataset,
    group_by: &[(Expr, String)],
    aggregates: &[(String, Expr, String)],
) -> Result<(Dataset, &'static str)> {
    if compiled_enabled() {
        if let Some(d) = aggregate_compiled(&data, group_by, aggregates)? {
            return Ok((d, COMPILED));
        }
    }
    Ok((aggregate_interpreted(data, group_by, aggregates)?, FALLBACK))
}

/// Vectorized GROUP BY: keys and aggregate arguments compile to bytecode
/// and evaluate batch-at-a-time into columns fed to the
/// [`HashAggregator`], which folds rows into fixed-size accumulators
/// immediately (O(groups) memory, no per-row key `Vec<Value>` clone).
///
/// Returns `Ok(None)` when any expression doesn't compile or an
/// aggregate has no vectorized spec (unknown names, `func(*)` forms) —
/// the interpreted path owns those error messages, and compile-time
/// column errors must not surface where the interpreter (which never
/// evaluates arguments over zero matching rows) would stay silent.
fn aggregate_compiled(
    data: &Dataset,
    group_by: &[(Expr, String)],
    aggregates: &[(String, Expr, String)],
) -> Result<Option<Dataset>> {
    let mut specs = Vec::with_capacity(aggregates.len());
    let mut arg_progs: Vec<Option<Program>> = Vec::with_capacity(aggregates.len());
    for (func, arg, _) in aggregates {
        let star = matches!(arg, Expr::Star);
        let Some(spec) = AggSpec::resolve(func, star) else {
            return Ok(None);
        };
        specs.push(spec);
        if star {
            arg_progs.push(None);
        } else {
            match try_compile(arg, &data.columns, None) {
                Some(p) => arg_progs.push(Some(p)),
                None => return Ok(None),
            }
        }
    }
    let mut key_progs = Vec::with_capacity(group_by.len());
    for (e, _) in group_by {
        match try_compile(e, &data.columns, None) {
            Some(p) => key_progs.push(p),
            None => return Ok(None),
        }
    }

    let mut agg = HashAggregator::new(specs);
    let mut vm = Vm::new();
    for chunk in data.rows.chunks(BATCH) {
        let sel = full_selection(chunk.len());
        let mut keys: Vec<Vec<Value>> = Vec::with_capacity(key_progs.len());
        for p in &key_progs {
            let mut col = Vec::with_capacity(chunk.len());
            vm.eval(p, chunk, &sel, &mut col).map_err(exec_err)?;
            keys.push(col);
        }
        let mut args: Vec<Option<Vec<Value>>> = Vec::with_capacity(arg_progs.len());
        for p in &arg_progs {
            args.push(match p {
                Some(p) => {
                    let mut col = Vec::with_capacity(chunk.len());
                    vm.eval(p, chunk, &sel, &mut col).map_err(exec_err)?;
                    Some(col)
                }
                None => None,
            });
        }
        agg.push(chunk.len(), &keys, &args).map_err(exec_err)?;
    }

    let mut columns: Vec<String> = group_by.iter().map(|(_, n)| n.clone()).collect();
    columns.extend(aggregates.iter().map(|(_, _, n)| n.clone()));
    let rows = agg
        .finish(group_by.is_empty())
        .into_iter()
        .map(|(mut key_vals, agg_vals)| {
            key_vals.extend(agg_vals);
            Row::new(key_vals)
        })
        .collect();
    Ok(Some(Dataset::new(columns, rows)))
}

/// The interpreted fallback: groups rows by encoded key (hash-indexed,
/// with the encode buffer and key scratch reused across rows), then runs
/// [`eval_aggregate`] per group.
fn aggregate_interpreted(
    data: Dataset,
    group_by: &[(Expr, String)],
    aggregates: &[(String, Expr, String)],
) -> Result<Dataset> {
    let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
    let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut key_bytes: Vec<u8> = Vec::new();
    let mut key_vals: Vec<Value> = Vec::new();
    for (row_idx, row) in data.rows.iter().enumerate() {
        key_bytes.clear();
        key_vals.clear();
        for (e, _) in group_by {
            let v = eval(e, &row.values, &data.columns)?;
            v.encode(&mut key_bytes);
            key_vals.push(v);
        }
        let slot = match index.get(key_bytes.as_slice()) {
            Some(&slot) => slot,
            None => {
                index.insert(key_bytes.clone(), groups.len());
                groups.push((std::mem::take(&mut key_vals), Vec::new()));
                groups.len() - 1
            }
        };
        groups[slot].1.push(row_idx);
    }
    // A global aggregate over zero rows still yields one row.
    if groups.is_empty() && group_by.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }

    let mut columns: Vec<String> = group_by.iter().map(|(_, n)| n.clone()).collect();
    columns.extend(aggregates.iter().map(|(_, _, n)| n.clone()));

    let mut rows = Vec::with_capacity(groups.len());
    for (key_vals, members) in groups {
        let mut values = key_vals;
        for (func, arg, _) in aggregates {
            values.push(eval_aggregate(func, arg, &members, &data)?);
        }
        rows.push(Row::new(values));
    }
    Ok(Dataset::new(columns, rows))
}

fn eval_aggregate(func: &str, arg: &Expr, members: &[usize], data: &Dataset) -> Result<Value> {
    let mut vals: Vec<Value> = Vec::with_capacity(members.len());
    if matches!(arg, Expr::Star) {
        if func != "count" {
            return Err(QlError::Eval(format!("{func}(*) is not supported")));
        }
        return Ok(Value::Int(members.len() as i64));
    }
    for &i in members {
        let v = eval(arg, &data.rows[i].values, &data.columns)?;
        if !v.is_null() {
            vals.push(v);
        }
    }
    Ok(match func {
        "count" => Value::Int(vals.len() as i64),
        "sum" => {
            if vals.is_empty() {
                Value::Null
            } else if vals.iter().all(|v| matches!(v, Value::Int(_))) {
                Value::Int(vals.iter().map(|v| v.as_int().unwrap()).sum())
            } else {
                let mut acc = 0.0;
                for v in &vals {
                    acc += v
                        .as_float()
                        .ok_or_else(|| QlError::Eval(format!("sum over {v:?}")))?;
                }
                Value::Float(acc)
            }
        }
        "avg" => {
            if vals.is_empty() {
                Value::Null
            } else {
                let mut acc = 0.0;
                for v in &vals {
                    acc += v
                        .as_float()
                        .ok_or_else(|| QlError::Eval(format!("avg over {v:?}")))?;
                }
                Value::Float(acc / vals.len() as f64)
            }
        }
        "min" | "max" => {
            let mut best: Option<Value> = None;
            for v in vals {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let ord = functions::compare(&v, &b)?;
                        let take = if func == "min" {
                            ord == std::cmp::Ordering::Less
                        } else {
                            ord == std::cmp::Ordering::Greater
                        };
                        if take {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            best.unwrap_or(Value::Null)
        }
        other => return Err(QlError::Eval(format!("unknown aggregate '{other}'"))),
    })
}

/// Sort entry point: the key-normalized byte sort when compiled
/// execution is enabled, the interpreted decorate-and-compare sort
/// otherwise. Both apply the same total order ([`total_compare`] /
/// [`encode_key`] agree by construction), so the toggle only changes
/// speed, never row order.
fn sort_dispatch(data: Dataset, keys: &[(Expr, bool)]) -> Result<(Dataset, Option<&'static str>)> {
    if compiled_enabled() {
        Ok((sort_normalized(data, keys)?, Some(COMPILED)))
    } else {
        Ok((sort(data, keys)?, Some(FALLBACK)))
    }
}

/// The interpreted sort: decorate each row with its evaluated keys, then
/// stable-sort with [`total_compare`] per key. The total order makes
/// incomparable pairs (mixed types the coercing comparator would reject)
/// order deterministically by cross-type rank instead of silently tying.
fn sort(mut data: Dataset, keys: &[(Expr, bool)]) -> Result<Dataset> {
    // Precompute sort keys (eval can fail; do it before sorting).
    let mut decorated: Vec<(Vec<Value>, Row)> = Vec::with_capacity(data.rows.len());
    for row in data.rows.drain(..) {
        let mut k = Vec::with_capacity(keys.len());
        for (e, _) in keys {
            k.push(eval(e, &row.values, &data.columns)?);
        }
        decorated.push((k, row));
    }
    decorated.sort_by(|(ka, _), (kb, _)| {
        for (i, (_, asc)) in keys.iter().enumerate() {
            let ord = total_compare(&ka[i], &kb[i]);
            let ord = if *asc { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    data.rows = decorated.into_iter().map(|(_, r)| r).collect();
    Ok(data)
}

/// The key-normalized sort: every row's keys encode once into one byte
/// arena (descending keys bitwise-complemented), then a stable indirect
/// sort compares plain byte slices — no `Value` dispatch, no coercion
/// logic in the hot comparator.
fn sort_normalized(mut data: Dataset, keys: &[(Expr, bool)]) -> Result<Dataset> {
    let exprs: Vec<&Expr> = keys.iter().map(|(e, _)| e).collect();
    let key_cols = key_columns(&data, &exprs)?;
    let n = data.rows.len();
    let mut arena: Vec<u8> = Vec::new();
    let mut spans: Vec<(usize, usize)> = Vec::with_capacity(n);
    for r in 0..n {
        let start = arena.len();
        for (i, (_, asc)) in keys.iter().enumerate() {
            encode_key(key_cols[i].at(&data, r), !asc, &mut arena);
        }
        spans.push((start, arena.len()));
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        let (sa, ea) = spans[a as usize];
        let (sb, eb) = spans[b as usize];
        arena[sa..ea].cmp(&arena[sb..eb])
    });
    let mut rows_in = std::mem::take(&mut data.rows);
    data.rows = order
        .into_iter()
        .map(|r| std::mem::replace(&mut rows_in[r as usize], Row::new(Vec::new())))
        .collect();
    Ok(data)
}

/// TOP-K: keep the k first rows of the sorted order without sorting the
/// input, via a bounded max-heap of `(normalized key bytes, sequence)`.
/// The monotone sequence number makes the heap *stable*: a new row whose
/// key equals the current worst compares greater (its sequence is
/// larger) and is rejected, so the kept set and its order are exactly
/// `sort().truncate(k)` of the interpreted baseline — which is what the
/// operator runs when compiled execution is disabled.
fn topk(data: Dataset, keys: &[(Expr, bool)], k: usize) -> Result<(Dataset, Option<&'static str>)> {
    if !compiled_enabled() {
        let mut d = sort(data, keys)?;
        d.rows.truncate(k);
        return Ok((d, Some(FALLBACK)));
    }
    let obs = just_obs::global();
    obs.counter("just_exec_topk_queries").inc();

    // Keys are evaluated for every row even when k = 0 — the sort they
    // replace would have, and errors must not depend on k.
    let exprs: Vec<&Expr> = keys.iter().map(|(e, _)| e).collect();
    let key_cols = key_columns(&data, &exprs)?;
    let n = data.rows.len();
    let mut heap: BinaryHeap<(Vec<u8>, usize)> = BinaryHeap::with_capacity(k.min(n) + 1);
    let mut enc: Vec<u8> = Vec::new();
    for r in 0..n {
        enc.clear();
        for (i, (_, asc)) in keys.iter().enumerate() {
            encode_key(key_cols[i].at(&data, r), !asc, &mut enc);
        }
        if heap.len() < k {
            heap.push((enc.clone(), r));
        } else if let Some(worst) = heap.peek() {
            if enc.as_slice() < worst.0.as_slice() {
                heap.pop();
                heap.push((enc.clone(), r));
            }
        }
    }
    let mut rows_in = data.rows;
    let picked = heap.into_sorted_vec();
    let mut rows = Vec::with_capacity(picked.len());
    for (_, r) in picked {
        rows.push(std::mem::replace(&mut rows_in[r], Row::new(Vec::new())));
    }
    obs.counter("just_exec_topk_rows_pruned")
        .add((n - rows.len()) as u64);
    Ok((Dataset::new(data.columns, rows), Some(COMPILED)))
}

/// A sort/TOP-K key column: either a direct reference into the input
/// rows (bare-column keys encode straight from the stored values — no
/// clone, no VM) or a materialized column of computed key values.
enum KeyCol {
    Col(usize),
    Owned(Vec<Value>),
}

impl KeyCol {
    fn at<'a>(&'a self, data: &'a Dataset, r: usize) -> &'a Value {
        match self {
            KeyCol::Col(i) => &data.rows[r].values[*i],
            KeyCol::Owned(vals) => &vals[r],
        }
    }
}

/// Resolves each key expression to a [`KeyCol`]: bare columns borrow,
/// anything else evaluates through [`eval_key_columns`]. Resolution
/// errors are exactly the interpreted `eval()` errors.
fn key_columns(data: &Dataset, exprs: &[&Expr]) -> Result<Vec<KeyCol>> {
    exprs
        .iter()
        .map(|e| match e {
            Expr::Column(name) => Ok(KeyCol::Col(resolve_column(name, &data.columns)?)),
            other => Ok(KeyCol::Owned(
                eval_key_columns(data, &[other])?.pop().expect("one column"),
            )),
        })
        .collect()
}

/// Evaluates one output column per expression over the whole dataset —
/// compiled batch-at-a-time when the expression lowers to bytecode,
/// interpreted row-at-a-time otherwise.
fn eval_key_columns(data: &Dataset, exprs: &[&Expr]) -> Result<Vec<Vec<Value>>> {
    let mut vm = Vm::new();
    let mut cols = Vec::with_capacity(exprs.len());
    for e in exprs {
        let mut col: Vec<Value> = Vec::with_capacity(data.rows.len());
        match try_compile(e, &data.columns, None) {
            Some(prog) => {
                for chunk in data.rows.chunks(BATCH) {
                    vm.eval(&prog, chunk, &full_selection(chunk.len()), &mut col)
                        .map_err(exec_err)?;
                }
            }
            None => {
                for row in &data.rows {
                    col.push(eval(e, &row.values, &data.columns)?);
                }
            }
        }
        cols.push(col);
    }
    Ok(cols)
}

/// Nested-loop inner join for non-equi conditions (and the runtime
/// fallback of [`hash_join`]). One scratch `combined` buffer is reused
/// across pairs — the left row's values are cloned once per left row,
/// each right row's values once per pair, and the buffer itself is only
/// cloned out for pairs that pass the predicate.
fn join(left: Dataset, right: Dataset, on: &Expr) -> Result<Dataset> {
    let mut columns = left.columns.clone();
    columns.extend(right.columns.iter().cloned());
    let rows = nested_loop_join(&left, &right, on, &columns)?;
    Ok(Dataset::new(columns, rows))
}

fn nested_loop_join(
    left: &Dataset,
    right: &Dataset,
    on: &Expr,
    columns: &[String],
) -> Result<Vec<Row>> {
    just_obs::global().counter("just_exec_join_fallbacks").inc();
    let left_width = left.columns.len();
    let mut rows = Vec::new();
    let mut combined: Vec<Value> = Vec::with_capacity(columns.len());
    for l in &left.rows {
        combined.clear();
        combined.extend(l.values.iter().cloned());
        for r in &right.rows {
            combined.truncate(left_width);
            combined.extend(r.values.iter().cloned());
            if truthy(&eval(on, &combined, columns)?) {
                rows.push(Row::new(combined.clone()));
            }
        }
    }
    Ok(rows)
}

/// Which input of a join an expression reads from, judged by where its
/// columns resolve in the combined header.
#[derive(Clone, Copy, PartialEq)]
enum Side {
    Left,
    Right,
}

fn side_of(e: &Expr, columns: &[String], left_width: usize) -> Option<Side> {
    let mut side = None;
    for c in e.columns() {
        let idx = resolve_column(&c, columns).ok()?;
        let s = if idx < left_width {
            Side::Left
        } else {
            Side::Right
        };
        match side {
            None => side = Some(s),
            Some(p) if p == s => {}
            _ => return None,
        }
    }
    side
}

/// Rebuilds the `on` conjunction a [`LogicalPlan::HashJoin`] was planned
/// from, for the nested-loop fallback paths.
fn reconstruct_on(keys: &[(Expr, Expr)], residual: &Option<Expr>) -> Expr {
    let mut conjuncts: Vec<Expr> = keys
        .iter()
        .map(|(l, r)| Expr::Binary {
            op: BinOp::Eq,
            lhs: Box::new(l.clone()),
            rhs: Box::new(r.clone()),
        })
        .collect();
    conjuncts.extend(residual.clone());
    conjuncts
        .into_iter()
        .reduce(|a, b| Expr::Binary {
            op: BinOp::And,
            lhs: Box::new(a),
            rhs: Box::new(b),
        })
        .expect("join condition is non-empty")
}

fn combined_row(l: &Row, r: &Row) -> Row {
    let mut v = Vec::with_capacity(l.values.len() + r.values.len());
    v.extend(l.values.iter().cloned());
    v.extend(r.values.iter().cloned());
    Row::new(v)
}

/// Vectorized equi-join: evaluate each side's key expressions (compiled
/// when possible), build a [`JoinHash`] over the smaller side's encoded
/// key bytes, probe with the other side, and run the residual as one
/// program over the matched combined rows.
///
/// Output order is exactly the nested loop's (left-major, right rows in
/// input order), so the interpreted baseline is byte-identical:
/// build-right probes the left rows in order; build-left accumulates
/// per-left-row match lists before emitting.
///
/// Falls back to the nested loop — counted by `just_exec_join_fallbacks`
/// and marked `fallback` — when a key straddles both inputs, when the
/// runtime value classes aren't hashable (mixed classes, NaN,
/// geometries, or a cross-side class mismatch where the interpreted
/// comparator would coerce or error), or when compiled execution is
/// disabled. Error caveat: key expressions evaluate column-at-a-time
/// here, so *which* row's error surfaces first can differ from the
/// pair-at-a-time interpreted loop; whether an error surfaces does not.
fn hash_join(
    left: Dataset,
    right: Dataset,
    keys: &[(Expr, Expr)],
    residual: &Option<Expr>,
) -> Result<(Dataset, Option<&'static str>)> {
    let mut columns = left.columns.clone();
    columns.extend(right.columns.iter().cloned());

    if !compiled_enabled() {
        let on = reconstruct_on(keys, residual);
        let rows = nested_loop_join(&left, &right, &on, &columns)?;
        return Ok((Dataset::new(columns, rows), Some(FALLBACK)));
    }

    // The nested loop never evaluates the condition when either side is
    // empty (there are no pairs); match that before validating anything.
    if left.rows.is_empty() || right.rows.is_empty() {
        return Ok((Dataset::new(columns, Vec::new()), None));
    }

    // With at least one pair, the interpreted loop would resolve every
    // column and function of the condition — surface the same errors.
    for (l, r) in keys {
        validate_columns(l, &columns)?;
        validate_columns(r, &columns)?;
    }
    if let Some(r) = residual {
        validate_columns(r, &columns)?;
    }

    // Assign each candidate pair's sides from the headers; pairs that
    // straddle the inputs (or compare an input to itself) demote to the
    // residual.
    let left_width = left.columns.len();
    let mut pairs: Vec<(&Expr, &Expr)> = Vec::new();
    let mut extra: Vec<Expr> = Vec::new();
    for (lhs, rhs) in keys {
        match (
            side_of(lhs, &columns, left_width),
            side_of(rhs, &columns, left_width),
        ) {
            (Some(Side::Left), Some(Side::Right)) => pairs.push((lhs, rhs)),
            (Some(Side::Right), Some(Side::Left)) => pairs.push((rhs, lhs)),
            _ => extra.push(Expr::Binary {
                op: BinOp::Eq,
                lhs: Box::new(lhs.clone()),
                rhs: Box::new(rhs.clone()),
            }),
        }
    }
    let residual = {
        let mut parts = extra;
        parts.extend(residual.clone());
        parts.into_iter().reduce(|a, b| Expr::Binary {
            op: BinOp::And,
            lhs: Box::new(a),
            rhs: Box::new(b),
        })
    };
    if pairs.is_empty() {
        // No usable equi key at runtime: every conjunct is in `residual`.
        let on = residual.expect("join condition is non-empty");
        let rows = nested_loop_join(&left, &right, &on, &columns)?;
        return Ok((Dataset::new(columns, rows), Some(FALLBACK)));
    }

    // A key expression classified Left resolves identically against the
    // left-only header (exact/suffix/bare precedence is unchanged when
    // every match lives in the left range), so each side's keys compile
    // and evaluate against its own input.
    let left_exprs: Vec<&Expr> = pairs.iter().map(|&(l, _)| l).collect();
    let right_exprs: Vec<&Expr> = pairs.iter().map(|&(_, r)| r).collect();
    let left_keys = eval_key_columns(&left, &left_exprs)?;
    let right_keys = eval_key_columns(&right, &right_exprs)?;

    if !keys_hashable(&left_keys, &right_keys) {
        let key_exprs: Vec<(Expr, Expr)> =
            pairs.iter().map(|&(l, r)| (l.clone(), r.clone())).collect();
        let on = reconstruct_on(&key_exprs, &residual);
        let rows = nested_loop_join(&left, &right, &on, &columns)?;
        return Ok((Dataset::new(columns, rows), Some(FALLBACK)));
    }

    let obs = just_obs::global();
    let build_left = left.rows.len() <= right.rows.len();
    let mut candidates: Vec<Row> = Vec::new();
    if build_left {
        let mut table = JoinHash::build(left.rows.len(), &left_keys);
        obs.counter("just_exec_join_build_rows")
            .add(table.rows_built());
        obs.counter("just_exec_join_probe_rows")
            .add(right.rows.len() as u64);
        let mut matches: Vec<Vec<u32>> = vec![Vec::new(); left.rows.len()];
        for r in 0..right.rows.len() {
            if let Some(bucket) = table.probe(&right_keys, r) {
                for &l in bucket {
                    matches[l as usize].push(r as u32);
                }
            }
        }
        for (l, rs) in matches.iter().enumerate() {
            for &r in rs {
                candidates.push(combined_row(&left.rows[l], &right.rows[r as usize]));
            }
        }
    } else {
        let mut table = JoinHash::build(right.rows.len(), &right_keys);
        obs.counter("just_exec_join_build_rows")
            .add(table.rows_built());
        obs.counter("just_exec_join_probe_rows")
            .add(left.rows.len() as u64);
        for l in 0..left.rows.len() {
            if let Some(bucket) = table.probe(&left_keys, l) {
                for &r in bucket {
                    candidates.push(combined_row(&left.rows[l], &right.rows[r as usize]));
                }
            }
        }
    }

    // Residual over matched pairs: one compiled program per batch, or
    // the interpreted row loop.
    let rows = match &residual {
        None => candidates,
        Some(pred) => {
            if let Some(prog) = try_compile(pred, &columns, None) {
                let mut vm = Vm::new();
                let mut rows = Vec::with_capacity(candidates.len());
                let mut chunk = candidates;
                while !chunk.is_empty() {
                    let rest = chunk.split_off(chunk.len().min(BATCH));
                    let mut sel = Vec::with_capacity(chunk.len());
                    vm.select(&prog, &chunk, &full_selection(chunk.len()), &mut sel)
                        .map_err(exec_err)?;
                    rows.extend(take_selected(chunk, &sel));
                    chunk = rest;
                }
                rows
            } else {
                let mut rows = Vec::with_capacity(candidates.len());
                for row in candidates {
                    if truthy(&eval(pred, &row.values, &columns)?) {
                        rows.push(row);
                    }
                }
                rows
            }
        }
    };
    Ok((Dataset::new(columns, rows), Some(COMPILED)))
}
