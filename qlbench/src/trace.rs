//! The traced replay: per-layer cost of a sample of each workload's
//! statements.
//!
//! Tracing lives in the benchmark, not in the program: each span wraps
//! one call into a layer's public API. The sample is replayed one
//! statement at a time, one layer per pass, so every pass visits the
//! statements in the same order and sees a comparable block-cache state.
//! Spans stay in memory and are written out once at the end.

use crate::inputs::{Expected, Query, Window};
use crate::serve::{check, ms, Env, Tally};
use crate::Metric;
use just_core::SessionManager;
use just_geo::{Point, Rect};
use just_kvstore::ScanOptions;
use just_server::{RemoteClient, Request, Response};
use just_storage::{IndexKind, IndexStrategy, Row, SpatialPredicate, StTable, Value};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `kvstore.fetch`.
    pub name: &'static str,
    /// Statement id within the sample.
    pub sid: usize,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Offsets from the tracer's epoch.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Records `f` as span `name` of statement `sid` under `parent`; `f`
    /// gets the new span's index to parent its own children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        sid: usize,
        parent: Option<usize>,
        f: impl FnOnce(&mut Tracer, usize) -> T,
    ) -> T {
        let id = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            sid,
            parent,
            start,
            end: start,
        });
        let out = f(self, id);
        self.spans[id].end = self.epoch.elapsed();
        out
    }

    /// A span's duration minus the part of it its children cover.
    pub fn self_time(&self, id: usize) -> Duration {
        let s = &self.spans[id];
        let mut kids: Vec<(Duration, Duration)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start.max(s.start), c.end.min(s.end)))
            .collect();
        kids.sort();
        let mut covered = Duration::ZERO;
        let mut reach = s.start;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (s.end - s.start).saturating_sub(covered)
    }

    /// Self time of layer `name` per statement id, in ms.
    pub fn layer_ms(&self, name: &str) -> BTreeMap<usize, f64> {
        let mut out = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            if s.name == name {
                *out.entry(s.sid).or_insert(0.0) += ms(self.self_time(id));
            }
        }
        out
    }

    /// All spans as a JSON array.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"sid\":{},\"parent\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                    s.name,
                    s.sid,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.start.as_secs_f64() * 1e6,
                    s.end.as_secs_f64() * 1e6
                )
            })
            .collect();
        format!("[\n{}\n]\n", items.join(",\n"))
    }
}

/// A statement replayed by the traced run.
#[derive(Debug, Clone)]
pub enum Replay {
    /// A SELECT with its expected answer.
    Read(Query, Expected),
    /// A wire INSERT; the remote and embedded passes each insert their
    /// own fresh rows (the same batch twice would only overwrite).
    Write { remote: String, embedded: String },
}

/// Counts gathered beside the spans, per statement id.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    request_bytes: u64,
    response_bytes: u64,
    rows: u64,
    key_ranges: u64,
    curve_ranges: u64,
    keys_scanned: u64,
    blocks_read: u64,
    cache_hits: u64,
    bytes_read: u64,
    index_skips: u64,
    points_decoded: u64,
    knn_key_ranges: u64,
    knn_keys: u64,
    knn_k: u64,
}

/// Inputs for [`replay`].
pub struct ReplayPlan<'a> {
    /// The sample, in order.
    pub stmts: &'a [Replay],
    /// The table the kNN layer is called on.
    pub knn_table: &'a str,
    /// Extra kNN probes `(point, k)`, for workloads whose statements never
    /// reach the kNN layer.
    pub knn_probes: &'a [(Point, usize)],
    /// Batches of fresh rows for `Session::insert` into `insert_table`.
    pub insert_batches: &'a [Vec<Row>],
    /// The table the batches go to.
    pub insert_table: &'a str,
}

/// The spans and counts of one replay, and which statement ids each
/// layer saw.
struct Replayer<'a> {
    env: &'a Env,
    plan: &'a ReplayPlan<'a>,
    t: Tracer,
    counts: BTreeMap<usize, Counts>,
    /// Remote latency of each read before any span was recorded.
    untraced: Vec<f64>,
    /// Statement ids of windowed reads.
    reads: Vec<usize>,
    /// Statement ids of kNN calls.
    knn: Vec<usize>,
    insert_us_per_row: Vec<f64>,
}

/// Replays `plan` layer by layer and returns the per-layer metrics plus
/// the tracer. Remote answers are checked against the oracle.
pub fn replay(
    env: &Env,
    plan: &ReplayPlan,
    tally: &mut Tally,
) -> Result<(Vec<Metric>, Tracer), String> {
    let mut r = Replayer {
        env,
        plan,
        t: Tracer::default(),
        counts: BTreeMap::new(),
        untraced: Vec::new(),
        reads: Vec::new(),
        knn: Vec::new(),
        insert_us_per_row: Vec::new(),
    };
    r.untraced_pass()?;
    r.server_pass(tally)?;
    let sessions = SessionManager::new(env.engine.clone());
    let mut embedded = just_ql::Client::new(sessions.session(crate::serve::USER));
    r.ql_pass(&mut embedded)?;
    r.scan_passes()?;
    r.knn_pass(&mut embedded)?;
    r.insert_pass()?;
    let metrics = r.summarize();
    Ok((metrics, r.t))
}

impl Replayer<'_> {
    fn sql(r: &Replay, remote: bool) -> String {
        match r {
            Replay::Read(q, _) => q.sql(),
            Replay::Write { remote: sql, .. } if remote => sql.clone(),
            Replay::Write { embedded, .. } => embedded.clone(),
        }
    }

    /// Remote latency of the reads with nothing recorded, for the tracing
    /// overhead.
    fn untraced_pass(&mut self) -> Result<(), String> {
        let mut rc = one_client(self.env)?;
        for r in self.plan.stmts {
            if let Replay::Read(q, _) = r {
                let sql = q.sql();
                let t0 = Instant::now();
                rc.execute(&sql)
                    .map_err(|e| format!("untraced replay: {e}"))?;
                self.untraced.push(ms(t0.elapsed()));
            }
        }
        Ok(())
    }

    /// server: each statement over the wire, its answer checked.
    fn server_pass(&mut self, tally: &mut Tally) -> Result<(), String> {
        let mut rc = one_client(self.env)?;
        for (sid, r) in self.plan.stmts.iter().enumerate() {
            let sql = Self::sql(r, true);
            let reply = self
                .t
                .span("server.remote", sid, None, |_, _| rc.execute(&sql));
            tally.attempted += 1;
            let c = self.counts.entry(sid).or_default();
            c.request_bytes = frame_len(Request::Execute { sql }.to_json().render().len());
            if let Ok(result) = &reply {
                c.rows = result.dataset().map_or(0, |d| d.len() as u64);
                c.response_bytes = response_len(result);
            }
            let outcome = match r {
                Replay::Read(q, expected) => check(q, expected, reply),
                Replay::Write { .. } => reply.map(drop).map_err(|e| format!("replay INSERT: {e}")),
            };
            if let Err(e) = outcome {
                tally.fail(e);
            }
        }
        Ok(())
    }

    /// ql: the embedded execute, then parse and plan on their own.
    fn ql_pass(&mut self, embedded: &mut just_ql::Client) -> Result<(), String> {
        for (sid, r) in self.plan.stmts.iter().enumerate() {
            let sql = Self::sql(r, false);
            self.t
                .span("ql.execute", sid, None, |_, _| embedded.execute(&sql))
                .map_err(|e| format!("embedded replay: {e}"))?;
        }
        for (sid, r) in self.plan.stmts.iter().enumerate() {
            let sql = Self::sql(r, true);
            let stmt = self
                .t
                .span("ql.parse", sid, None, |_, _| just_ql::parse(&sql))
                .map_err(|e| format!("parse: {e}"))?;
            if let just_ql::Statement::Query(select) = stmt {
                self.t
                    .span("ql.plan", sid, None, |_, _| {
                        just_ql::LogicalPlan::from_select(&select).and_then(just_ql::optimize)
                    })
                    .map_err(|e| format!("plan: {e}"))?;
            }
        }
        Ok(())
    }

    /// curves, kvstore (read side), storage and compress: the scan of
    /// each windowed read through the table's public API, one layer per
    /// pass.
    fn scan_passes(&mut self) -> Result<(), String> {
        let reads: Vec<(usize, Arc<StTable>, Window)> = self
            .plan
            .stmts
            .iter()
            .enumerate()
            .filter_map(|(sid, r)| match r {
                Replay::Read(q, _) => q.window().map(|w| (sid, self.env.table(q.table()), w)),
                Replay::Write { .. } => None,
            })
            .collect();
        self.reads = reads.iter().map(|(sid, ..)| *sid).collect();
        for (sid, table, (rect, time)) in &reads {
            let planned = self.t.span("curves.plan", *sid, None, |_, _| {
                scan_strategy(table, time.is_some()).plan(Some(rect), *time)
            });
            let c = self.counts.entry(*sid).or_default();
            c.key_ranges = planned.ranges.len() as u64;
            c.curve_ranges = planned.curve_ranges as u64;
        }
        for (sid, table, (rect, time)) in &reads {
            let engine = &self.env.engine;
            let io0 = engine.io_snapshot();
            let mut io = io0;
            // storage.read's self time is the decode: its one child is
            // the fetch.
            let keys = self.t.span("storage.read", *sid, None, |t, parent| {
                let entries = t.span("kvstore.fetch", *sid, Some(parent), |_, _| {
                    let mut stream =
                        table.query_raw_stream(Some(rect), *time, ScanOptions::default());
                    let mut entries = Vec::new();
                    while let Some(batch) = stream.next_batch().map_err(|e| e.to_string())? {
                        entries.extend(batch);
                    }
                    io = engine.io_snapshot();
                    Ok::<_, String>(entries)
                })?;
                for e in &entries {
                    std::hint::black_box(table.decode_entry(e).map_err(|e| e.to_string())?);
                }
                Ok::<_, String>(entries.len() as u64)
            })?;
            let d = io.since(&io0);
            let c = self.counts.entry(*sid).or_default();
            c.keys_scanned = keys;
            c.blocks_read = d.blocks_read;
            c.cache_hits = d.cache_hits;
            c.bytes_read = d.bytes_read;
            c.index_skips = d.index_skips;
        }
        for (sid, table, (rect, time)) in &reads {
            let (with_gps, without_gps) = projections(table);
            let points = self.t.span("compress.with_gps", *sid, None, |_, _| {
                drain(table, rect, *time, &with_gps)
            })?;
            self.t.span("compress.without_gps", *sid, None, |_, _| {
                drain(table, rect, *time, &without_gps)
            })?;
            self.counts.entry(*sid).or_default().points_decoded = points;
        }
        Ok(())
    }

    /// core (kNN): a direct call, then EXPLAIN ANALYZE for its key ranges.
    fn knn_pass(&mut self, embedded: &mut just_ql::Client) -> Result<(), String> {
        let first = self.plan.stmts.len();
        let calls: Vec<(Point, usize)> = self
            .plan
            .stmts
            .iter()
            .filter_map(|r| match r {
                Replay::Read(Query::Knn { q, k }, _) => Some((*q, *k)),
                _ => None,
            })
            .chain(self.plan.knn_probes.iter().copied())
            .collect();
        let name = self.plan.knn_table;
        let table = self.env.table(name);
        for (i, (point, k)) in calls.into_iter().enumerate() {
            let sid = first + i;
            self.t
                .span("knn.call", sid, None, |_, _| {
                    just_core::knn(&table, point, k, &self.env.engine.config().knn)
                })
                .map_err(|e| format!("knn: {e}"))?;
            let (ranges, keys) = knn_explain(embedded, name, &table, point, k)?;
            let c = self.counts.entry(sid).or_default();
            c.knn_key_ranges = ranges;
            c.knn_keys = keys;
            c.knn_k = k as u64;
            self.knn.push(sid);
        }
        Ok(())
    }

    /// kvstore (write side): `Session::insert` of fresh rows.
    fn insert_pass(&mut self) -> Result<(), String> {
        let first = self.plan.stmts.len() + self.knn.len();
        for (i, batch) in self.plan.insert_batches.iter().enumerate() {
            let t0 = Instant::now();
            self.t
                .span("kvstore.insert", first + i, None, |_, _| {
                    self.env.session.insert(self.plan.insert_table, batch)
                })
                .map_err(|e| format!("session insert: {e}"))?;
            self.insert_us_per_row
                .push(t0.elapsed().as_secs_f64() * 1e6 / batch.len().max(1) as f64);
        }
        Ok(())
    }

    /// Times are medians over statements, counts means per statement.
    fn summarize(&self) -> Vec<Metric> {
        let layer = |name: &str| self.t.layer_ms(name);
        let at = |m: &BTreeMap<usize, f64>, i: usize| m.get(&i).copied().unwrap_or(0.0);
        let med = |ids: &[usize], f: &dyn Fn(usize) -> f64| {
            median(&ids.iter().map(|&i| f(i)).collect::<Vec<_>>())
        };
        let sum = |ids: &[usize], f: fn(&Counts) -> u64| -> f64 {
            ids.iter()
                .map(|i| self.counts.get(i).map_or(0, f))
                .sum::<u64>() as f64
        };
        let mean = |ids: &[usize], f: fn(&Counts) -> u64| sum(ids, f) / ids.len().max(1) as f64;
        let ratio = |num: f64, den: f64, empty: f64| if den > 0.0 { num / den } else { empty };

        let all: Vec<usize> = (0..self.plan.stmts.len()).collect();
        let (remote, exec) = (layer("server.remote"), layer("ql.execute"));
        let (parse, plan) = (layer("ql.parse"), layer("ql.plan"));
        let selects: Vec<usize> = plan.keys().copied().collect();
        let reads = &self.reads;
        let (curves, fetch, decode) = (
            layer("curves.plan"),
            layer("kvstore.fetch"),
            layer("storage.read"),
        );
        let (with, without) = (layer("compress.with_gps"), layer("compress.without_gps"));
        let knn = layer("knn.call");
        let traced_remote: Vec<f64> = all
            .iter()
            .filter(|&&i| matches!(self.plan.stmts[i], Replay::Read(..)))
            .map(|&i| at(&remote, i))
            .collect();
        let hits = sum(reads, |c| c.cache_hits);
        let lookups = hits + sum(reads, |c| c.blocks_read);

        let m = |name: &str, value: f64, unit: &'static str| Metric::new(name, value, unit);
        vec![
            m("server.remote_ms", med(&all, &|i| at(&remote, i)), "ms"),
            m(
                "server.wire_ms",
                med(&all, &|i| at(&remote, i) - at(&exec, i)),
                "ms",
            ),
            m("server.request_bytes", mean(&all, |c| c.request_bytes), "B"),
            m(
                "server.response_bytes",
                mean(&all, |c| c.response_bytes),
                "B",
            ),
            m("ql.parse_us", med(&all, &|i| at(&parse, i)) * 1e3, "us"),
            m("ql.plan_us", med(&selects, &|i| at(&plan, i)) * 1e3, "us"),
            m(
                "ql.execute_ms",
                med(&all, &|i| at(&exec, i) - at(&parse, i) - at(&plan, i)),
                "ms",
            ),
            m(
                "curves.plan_us",
                med(reads, &|i| at(&curves, i)) * 1e3,
                "us",
            ),
            m("curves.key_ranges", mean(reads, |c| c.key_ranges), "count"),
            m(
                "curves.curve_ranges",
                mean(reads, |c| c.curve_ranges),
                "count",
            ),
            m("kvstore.fetch_ms", med(reads, &|i| at(&fetch, i)), "ms"),
            m(
                "kvstore.keys_scanned",
                mean(reads, |c| c.keys_scanned),
                "count",
            ),
            m(
                "kvstore.blocks_read",
                mean(reads, |c| c.blocks_read),
                "count",
            ),
            m("kvstore.cache_hits", mean(reads, |c| c.cache_hits), "count"),
            m(
                "kvstore.cache_hit_ratio",
                ratio(hits, lookups, 1.0),
                "ratio",
            ),
            m("kvstore.bytes_read", mean(reads, |c| c.bytes_read), "B"),
            m(
                "kvstore.index_skips",
                mean(reads, |c| c.index_skips),
                "count",
            ),
            m(
                "kvstore.insert_us_per_row",
                median(&self.insert_us_per_row),
                "us",
            ),
            m("storage.decode_ms", med(reads, &|i| at(&decode, i)), "ms"),
            m(
                "storage.refine_ratio",
                ratio(sum(reads, |c| c.rows), sum(reads, |c| c.keys_scanned), 1.0),
                "ratio",
            ),
            m(
                "compress.gps_decode_ms",
                med(reads, &|i| at(&with, i) - at(&without, i)),
                "ms",
            ),
            m(
                "compress.points_decoded",
                mean(reads, |c| c.points_decoded),
                "count",
            ),
            m("knn.call_ms", med(&self.knn, &|i| at(&knn, i)), "ms"),
            m(
                "knn.key_ranges",
                mean(&self.knn, |c| c.knn_key_ranges),
                "count",
            ),
            m("knn.keys_scanned", mean(&self.knn, |c| c.knn_keys), "count"),
            m(
                "knn.keys_per_result",
                ratio(
                    sum(&self.knn, |c| c.knn_keys),
                    sum(&self.knn, |c| c.knn_k),
                    0.0,
                ),
                "count",
            ),
            m(
                "trace.overhead_ratio",
                ratio(median(&traced_remote), median(&self.untraced), 1.0),
                "ratio",
            ),
        ]
    }
}

fn one_client(env: &Env) -> Result<RemoteClient, String> {
    Ok(env.connect(1)?.remove(0))
}

/// Bytes a payload occupies on the wire, length prefix included.
fn frame_len(payload: usize) -> u64 {
    payload as u64 + 4
}

fn response_len(result: &just_ql::QueryResult) -> u64 {
    // Re-encoding is exact: the server renders the same response.
    let copy = match result {
        just_ql::QueryResult::Data(d) => just_ql::QueryResult::Data(d.clone()),
        just_ql::QueryResult::Message(m) => just_ql::QueryResult::Message(m.clone()),
    };
    frame_len(Response::Result(copy).to_bytes().len())
}

/// The strategy `StTable` plans a window with: spatial-only windows on a
/// temporal primary go to the spatial secondary (Z2 or XZ2 at the same
/// period and sharding), as in its private `plan_scan`.
fn scan_strategy(table: &StTable, timed: bool) -> IndexStrategy {
    let primary = *table.strategy();
    if timed || !primary.kind().is_temporal() {
        return primary;
    }
    let kind = if primary.kind() == IndexKind::Z2t {
        IndexKind::Z2
    } else {
        IndexKind::Xz2
    };
    IndexStrategy::new(kind, primary.period(), primary.shards())
}

/// Projections with and without the compressed GPS list (identical on
/// tables that have none).
fn projections(table: &StTable) -> (Vec<usize>, Vec<usize>) {
    let schema = table.schema();
    let without: Vec<usize> = ["fid", "oid", "time", "geom"]
        .iter()
        .filter_map(|n| schema.index_of(n))
        .collect();
    let mut with = without.clone();
    with.extend(schema.index_of("gps_list"));
    (with, without)
}

/// Drains a refined, projected stream; returns the GPS points decoded.
fn drain(
    table: &StTable,
    rect: &Rect,
    time: Option<(i64, i64)>,
    projection: &[usize],
) -> Result<u64, String> {
    let mut stream = table.query_stream(
        Some(rect),
        time,
        SpatialPredicate::Within,
        Some(projection),
        ScanOptions::default(),
    );
    let mut points = 0u64;
    while let Some(batch) = stream.next_batch().map_err(|e| e.to_string())? {
        for row in batch {
            for v in &row.values {
                if let Value::GpsList(l) = v {
                    points += l.len() as u64;
                }
            }
        }
    }
    Ok(points)
}

/// `(key_ranges, keys_scanned)` of the Knn operator, from EXPLAIN ANALYZE.
fn knn_explain(
    client: &mut just_ql::Client,
    name: &str,
    table: &StTable,
    q: Point,
    k: usize,
) -> Result<(u64, u64), String> {
    let schema = table.schema();
    let geom = schema
        .geom_index()
        .map(|i| schema.fields()[i].name.clone())
        .ok_or("kNN table has no geometry")?;
    let sql = format!(
        "SELECT distance FROM {name} WHERE {geom} IN st_KNN(st_makePoint({}, {}), {k})",
        q.x, q.y
    );
    let (_, trace) = client
        .explain_analyze(&sql)
        .map_err(|e| format!("explain analyze: {e}"))?;
    let mut stack = vec![trace.root()];
    while let Some(span) = stack.pop() {
        if trace.name(span).starts_with("Knn") {
            return Ok((
                trace.attr(span, "key_ranges").unwrap_or(0),
                trace.attr(span, "keys_scanned").unwrap_or(0),
            ));
        }
        stack.extend(trace.children(span));
    }
    Err("EXPLAIN ANALYZE has no Knn operator".into())
}

/// Median by linear interpolation; 0 for no samples.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Percentile `q` in `[0, 1]` by linear interpolation between closest
/// ranks; 0 for no samples.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_child_spans() {
        let mut t = Tracer::default();
        t.span("outer", 0, None, |t, parent| {
            std::thread::sleep(Duration::from_millis(2));
            t.span("inner", 0, Some(parent), |_, _| {
                std::thread::sleep(Duration::from_millis(3))
            });
        });
        let total = t.spans[0].end - t.spans[0].start;
        let inner = t.spans[1].end - t.spans[1].start;
        assert_eq!(t.self_time(0), total - inner);
        assert_eq!(t.self_time(1), inner);
        assert!(t.self_time(0) >= Duration::from_millis(2));
        assert_eq!(t.layer_ms("inner").len(), 1);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
