//! The JustQL benchmark: the paper's Order and Traj workloads driven
//! through `just-server` from loopback `RemoteClient`s, timed per
//! statement at the client, with every answer checked by a brute-force
//! oracle. A second, traced invocation replays a sample of the same
//! statements layer by layer. See `README.md` beside this crate.

pub mod ingest;
pub mod inputs;
pub mod serve;
pub mod trace;

use inputs::{Oracle, Query};
use just_core::EngineConfig;
use serve::{closed_loop, expect_all, Env, Tally};
use std::path::PathBuf;
use std::time::Instant;
use trace::{median, percentile, Replay, ReplayPlan};

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cache-resident Orders windows, spatial and spatio-temporal.
    OrderRange,
    /// Trajectory windows over a table twice the block cache, gzip GPS.
    TrajScan,
    /// `st_KNN` at k = 150 on Orders.
    OrderKnn,
    /// An open-loop INSERT stream beside spatial reads.
    OrderIngest,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::OrderRange,
        Workload::TrajScan,
        Workload::OrderKnn,
        Workload::OrderIngest,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OrderRange => "order_range",
            Workload::TrajScan => "traj_scan",
            Workload::OrderKnn => "order_knn",
            Workload::OrderIngest => "order_ingest",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes and statement counts. [`Scale::full`] is what the
/// command runs; [`Scale::tiny`] keeps the crate's own test fast.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Orders loaded at setup (BenchConfig scale 1).
    pub orders: usize,
    /// Trajectories loaded at setup.
    pub trajectories: usize,
    /// GPS points per trajectory.
    pub points_per_traj: usize,
    /// Orders per load `INSERT`.
    pub order_load_batch: usize,
    /// Trajectories per `Session::insert` call at load.
    pub traj_load_batch: usize,
    /// Full setups per run; `setup_s` is their median.
    pub setups: usize,
    /// Statements per closed-loop round.
    pub round: usize,
    /// Warm-up statements per setup.
    pub warmup: usize,
    /// k of every kNN statement (the paper's default is 150).
    pub knn_k: usize,
    /// Rows per open-loop INSERT.
    pub ingest_batch: usize,
    /// Open-loop INSERT period.
    pub ingest_interval_ms: u64,
    /// Memtable flush threshold of the `order_ingest` engine.
    pub ingest_flush_threshold: usize,
    /// Statements replayed by the traced run (per kind of statement).
    pub trace_sample: usize,
}

impl Scale {
    /// The benchmark's sizes for `w`.
    pub fn full(w: Workload) -> Scale {
        Scale {
            orders: 20_000,
            trajectories: 16_000,
            points_per_traj: 400,
            order_load_batch: 200,
            traj_load_batch: 160,
            // Each trajectory setup writes 81 MB; two keep the run short.
            setups: if w == Workload::TrajScan { 2 } else { 3 },
            round: match w {
                Workload::OrderRange => 240,
                Workload::TrajScan => 130,
                Workload::OrderKnn => 110,
                Workload::OrderIngest => 200,
            },
            warmup: match w {
                Workload::OrderKnn => 4,
                Workload::TrajScan => 8,
                _ => 20,
            },
            knn_k: 150,
            ingest_batch: 200,
            ingest_interval_ms: 100,
            ingest_flush_threshold: 128 << 10,
            trace_sample: match w {
                Workload::TrajScan | Workload::OrderKnn => 8,
                _ => 24,
            },
        }
    }

    /// A scale that runs every workload in about a second.
    pub fn tiny() -> Scale {
        Scale {
            orders: 600,
            trajectories: 60,
            points_per_traj: 40,
            order_load_batch: 50,
            traj_load_batch: 16,
            setups: 2,
            round: 8,
            warmup: 2,
            knn_k: 10,
            ingest_batch: 20,
            ingest_interval_ms: 20,
            ingest_flush_threshold: 8 << 10,
            trace_sample: 4,
        }
    }
}

/// One invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// What to run.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Run the traced replay instead of the timed phase.
    pub trace: bool,
    /// Sizes.
    pub scale: Scale,
    /// Scratch directory for engine data (removed at the end).
    pub data_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
}

/// A metric as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as registered in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Statements issued, including loads and replays.
    pub attempted: u64,
    /// Statements that failed, were refused or answered wrongly.
    pub failed: u64,
    /// First failures, for the log.
    pub failures: Vec<String>,
    /// The reported metrics: end-to-end untraced, per-layer traced.
    pub metrics: Vec<Metric>,
    /// Facts about the run, printed before the metrics.
    pub facts: Vec<(String, String)>,
    /// Named figures beside the reported metrics (per statement kind,
    /// layer costs that are zero by construction on some workloads).
    pub details: Vec<Metric>,
}

impl Outcome {
    /// Whether every statement succeeded and every answer matched.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn fact(&mut self, k: &str, v: impl ToString) {
        self.facts.push((k.to_string(), v.to_string()));
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.details.push(Metric::new(name, value, unit));
    }
}

/// The generated inputs of one run.
struct Inputs {
    orders: Vec<just_bench::workload::Order>,
    traj_rows: Vec<just_storage::Row>,
    oracle: Oracle,
    stmts: Vec<Query>,
}

impl Inputs {
    fn generate(w: Workload, s: &Scale, seed: u64) -> Inputs {
        // The tables are the same in every run, like the paper's fixed
        // Order and Traj datasets: their layout (the Orders hot districts)
        // sets the cost of every statement, so a per-seed layout would
        // move the medians between runs more than any statement mix does.
        // The statements, insert batches and probes come from `seed`.
        let data_seed = just_bench::config::BenchConfig::default().seed;
        let mut oracle = Oracle::default();
        let (mut orders, mut traj_rows) = (Vec::new(), Vec::new());
        if w == Workload::TrajScan {
            let (rows, facts) = inputs::traj_inputs(s.trajectories, s.points_per_traj, data_seed);
            traj_rows = rows;
            oracle.trajs = facts;
        } else {
            orders = just_bench::workload::OrderDataset::generate(s.orders, data_seed).orders;
            oracle.add_orders(&orders);
        }
        let stmts = match w {
            Workload::OrderRange => inputs::order_range_queries(s.round, seed),
            Workload::TrajScan => inputs::traj_queries(s.round, seed),
            Workload::OrderKnn => inputs::knn_queries(s.round, s.knn_k, seed),
            Workload::OrderIngest => inputs::order_spatial_queries(s.round, seed),
        };
        Inputs {
            orders,
            traj_rows,
            oracle,
            stmts,
        }
    }

    fn rows(&self) -> usize {
        self.orders.len() + self.traj_rows.len()
    }
}

/// One setup's measurements.
struct Setup {
    env: Env,
    seconds: f64,
    load_seconds: f64,
    load_latencies: Vec<f64>,
}

fn engine_config(w: Workload, s: &Scale) -> EngineConfig {
    let mut config = EngineConfig::default();
    if w == Workload::OrderIngest {
        // Small memtables, so the run sees several flush cycles per
        // region and a compaction within seconds.
        config.store.flush_threshold = s.ingest_flush_threshold;
    }
    config
}

/// Engine open, load, `flush_all` and warm-up: everything `setup_s`
/// times.
fn setup(opts: &Options, inp: &Inputs, dir: PathBuf, tally: &mut Tally) -> Result<Setup, String> {
    let s = &opts.scale;
    let t0 = Instant::now();
    let env = Env::start(&dir, engine_config(opts.workload, s))?;
    let (load_latencies, load_seconds) = if opts.workload == Workload::TrajScan {
        env.connect(1)?[0]
            .execute(inputs::TRAJ_DDL)
            .map_err(|e| format!("create traj: {e}"))?;
        let t = Instant::now();
        let lat = serve::load_traj(&env.session, &inp.traj_rows, s.traj_load_batch)?;
        (lat, t.elapsed().as_secs_f64())
    } else {
        let mut conns = env.connect(2)?;
        conns[0]
            .execute(inputs::ORDERS_DDL)
            .map_err(|e| format!("create orders: {e}"))?;
        let t = Instant::now();
        let lat = serve::load_orders_wire(&mut conns, &inp.orders, s.order_load_batch)?;
        (lat, t.elapsed().as_secs_f64())
    };
    tally.attempted += load_latencies.len() as u64;
    env.engine
        .flush_all()
        .map_err(|e| format!("flush_all: {e}"))?;
    let warm = &inp.stmts[..s.warmup.min(inp.stmts.len())];
    let expected = expect_all(&inp.oracle, warm);
    // One connection: a warm-up on two would make the setup's peak
    // memory depend on how the two overlapped.
    let w = closed_loop(&mut env.connect(1)?, warm, &expected, 0.0);
    tally.absorb(w.tally);
    Ok(Setup {
        env,
        seconds: t0.elapsed().as_secs_f64(),
        load_seconds,
        load_latencies,
    })
}

/// Runs one invocation.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let s = &opts.scale;
    let w = opts.workload;
    let mut out = Outcome::default();
    let mut tally = Tally::default();
    let inp = Inputs::generate(w, s, opts.seed);
    let rows = inp.rows();
    // Write-side counters are process-global; the store's own byte count
    // starts at zero with each engine.
    let run_start = WriteCounters::now(None);

    // Setups: all but the last are torn down at once. The traced run
    // needs only the data, so it sets up once.
    let setups = if opts.trace { 1 } else { s.setups.max(1) };
    let mut setup_s = Vec::new();
    let mut load_s = Vec::new();
    let mut load_p50 = Vec::new();
    let mut kept = None;
    for i in 0..setups {
        let st = setup(
            opts,
            &inp,
            opts.data_dir.join(format!("setup{i}")),
            &mut tally,
        )?;
        setup_s.push(st.seconds);
        load_s.push(st.load_seconds);
        load_p50.push(percentile(&st.load_latencies, 0.5));
        if i + 1 == setups {
            kept = Some(st.env);
        } else {
            st.env.stop();
        }
    }
    let env = kept.expect("at least one setup");
    let setup_rss = peak_rss_mb();

    let table = if w == Workload::TrajScan {
        "traj"
    } else {
        "orders"
    };
    let disk = env.disk_size(table);
    out.fact("workload", w.name());
    out.fact("seed", opts.seed);
    out.fact("commit", commit());
    out.fact(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    out.fact(
        "block_cache_bytes",
        env.engine.config().store.block_cache_bytes,
    );
    out.fact(
        "flush_threshold_bytes",
        env.engine.config().store.flush_threshold,
    );
    out.fact(&format!("{table}_rows"), rows);
    if w == Workload::TrajScan {
        out.fact("gps_points", rows * s.points_per_traj);
    }
    out.fact(&format!("{table}_disk_bytes"), disk);
    out.fact("setups", setups);
    out.fact("setup_seconds", format!("{setup_s:.3?}"));
    out.fact("load_seconds", format!("{load_s:.3?}"));

    let mut rows_written = rows as f64;
    let mut oracle = inp.oracle;
    if w == Workload::OrderIngest {
        let before = WriteCounters::now(Some(&env));
        let phase = ingest::run_phase(&env, &inp.stmts, &oracle, s, opts.seconds, opts.seed)?;
        let d = WriteCounters::now(Some(&env)).since(&before);
        out.fact("ingest_statements", phase.write_latencies.len());
        out.fact("ingest_rows_acked", phase.acked.len());
        out.fact("ingest_flushes", d.flushes);
        out.fact("ingest_compactions", d.compactions);
        out.fact(
            "generator_late_p50_ms",
            format!("{:.3}", median(&phase.lateness)),
        );
        out.fact(
            "generator_late_max_ms",
            format!("{:.3}", phase.lateness.iter().copied().fold(0.0, f64::max)),
        );
        rows_written += phase.acked.len() as f64;
        oracle.add_orders(&phase.acked);
        if !opts.trace {
            let reads = phase.read_latencies.len() as f64;
            let writes = phase.write_latencies.len() as f64;
            out.metric("qps", (reads + writes) / phase.seconds, "1/s");
            read_metrics(&mut out, &phase.read_latencies);
            kind_details(&mut out, "range", &phase.read_latencies);
            kind_details(&mut out, "insert", &phase.write_latencies);
        }
        tally.absorb(phase.tally);
    } else if !opts.trace {
        let expected = expect_all(&oracle, &inp.stmts);
        let cl = closed_loop(&mut env.connect(2)?, &inp.stmts, &expected, opts.seconds);
        out.fact("rounds", cl.rounds);
        out.metric(
            "qps",
            cl.latencies.samples.len() as f64 / cl.busy.as_secs_f64(),
            "1/s",
        );
        read_metrics(&mut out, &cl.latencies.of(None));
        for kind in ["range", "st_range", "knn"] {
            kind_details(&mut out, kind, &cl.latencies.of(Some(kind)));
        }
        tally.absorb(cl.tally);
    }

    if opts.trace {
        rows_written += trace_run(opts, &env, &inp.stmts, &oracle, &mut out, &mut tally)?;
    } else {
        out.metric("setup_s", median(&setup_s), "s");
        let load_rate: Vec<f64> = load_s.iter().map(|t| rows as f64 / t).collect();
        out.detail("load_rows_per_s", median(&load_rate), "rows/s");
        out.detail("load_p50_ms", median(&load_p50), "ms");
        out.metric("disk_bytes_per_row", disk as f64 / rows as f64, "B/row");
        out.detail("setup_peak_rss_mb", setup_rss, "MB");
        out.detail("peak_rss_mb", peak_rss_mb(), "MB");
        out.detail(
            "failed_frac",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
        );
    }
    if opts.trace {
        let d = WriteCounters::now(Some(&env)).since(&run_start);
        write_side_metrics(&mut out, &d, rows_written);
    }
    env.stop();
    std::fs::remove_dir_all(&opts.data_dir).ok();
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out.failures = tally.failures;
    Ok(out)
}

/// End-to-end read latency: the median and the highest percentile every
/// workload's sample supports (at least 100 reads a run).
fn read_metrics(out: &mut Outcome, reads: &[f64]) {
    out.metric("read_p50_ms", percentile(reads, 0.5), "ms");
    out.metric("read_p90_ms", percentile(reads, 0.9), "ms");
}

/// Per-kind percentiles, each printed only when the sample holds at
/// least ten values beyond it.
fn kind_details(out: &mut Outcome, kind: &str, v: &[f64]) {
    if v.is_empty() {
        return;
    }
    out.fact(&format!("{kind}_samples"), v.len());
    for (pct, q) in [(50, 0.5), (90, 0.9), (95, 0.95), (99, 0.99)] {
        if q == 0.5 || v.len() as f64 * (1.0 - q) >= 10.0 {
            out.detail(&format!("{kind}_p{pct}_ms"), percentile(v, q), "ms");
        }
    }
}

/// The traced replay; returns the rows it inserted.
fn trace_run(
    opts: &Options,
    env: &Env,
    stmts: &[Query],
    oracle: &Oracle,
    out: &mut Outcome,
    tally: &mut Tally,
) -> Result<f64, String> {
    let s = &opts.scale;
    let w = opts.workload;
    let n = s.trace_sample.min(stmts.len());
    let mut replays: Vec<Replay> = stmts[..n]
        .iter()
        .map(|q| Replay::Read(*q, oracle.expect(q)))
        .collect();
    if w == Workload::OrderKnn {
        // kNN statements never reach the scan layers on their own; a few
        // windows over the same table give those layers their figures.
        replays.extend(
            inputs::order_range_queries(n, opts.seed)
                .into_iter()
                .map(|q| Replay::Read(q, oracle.expect(&q))),
        );
    }
    let mut inserted = 0usize;
    if w == Workload::OrderIngest {
        for i in 0..n {
            let fresh = |base: i64| {
                let first = base + (i * s.ingest_batch) as i64;
                inputs::fresh_orders(s.ingest_batch, first, opts.seed ^ base as u64)
            };
            replays.push(Replay::Write {
                remote: inputs::insert_sql(&fresh(2_000_000_000)),
                embedded: inputs::insert_sql(&fresh(3_000_000_000)),
            });
            inserted += 2 * s.ingest_batch;
        }
    }
    // One direct kNN call on workloads whose statements never reach the
    // kNN layer. Traj kNN costs seconds per call at k = 150, so the
    // trajectory probe asks for fewer neighbours.
    let probes: Vec<(just_geo::Point, usize)> = match w {
        Workload::OrderKnn => Vec::new(),
        Workload::TrajScan => vec![(just_bench::workload::query_points(1, opts.seed)[0], 10)],
        _ => vec![(just_bench::workload::query_points(1, opts.seed)[0], s.knn_k)],
    };
    let (insert_table, batches) = if w == Workload::TrajScan {
        let (rows, _) = inputs::traj_inputs(4 * 8, s.points_per_traj, opts.seed ^ 0x7072_6f62);
        let rows: Vec<just_storage::Row> = rows
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                r.values[0] = just_storage::Value::Str(format!("probe-{i:06}"));
                r
            })
            .collect();
        (
            "traj",
            rows.chunks(8).map(<[_]>::to_vec).collect::<Vec<_>>(),
        )
    } else {
        let fresh = inputs::fresh_orders(4 * s.ingest_batch, 4_000_000_000, opts.seed);
        let batches = fresh
            .chunks(s.ingest_batch)
            .map(inputs::order_rows)
            .collect::<Vec<_>>();
        ("orders", batches)
    };
    inserted += batches.iter().map(Vec::len).sum::<usize>();
    let plan = ReplayPlan {
        stmts: &replays,
        knn_table: if w == Workload::TrajScan {
            "traj"
        } else {
            "orders"
        },
        knn_probes: &probes,
        insert_batches: &batches,
        insert_table,
    };
    let (layers, tracer) = trace::replay(env, &plan, tally)?;
    out.metrics.extend(layers);
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| format!("trace dir: {e}"))?;
    let path = opts
        .out_dir
        .join(format!("spans-{}-seed{}.json", w.name(), opts.seed));
    std::fs::write(&path, tracer.to_json()).map_err(|e| format!("write spans: {e}"))?;
    out.fact("spans_file", path.display());
    out.fact("trace_statements", replays.len());
    Ok(inserted as f64)
}

/// Write-side counters from the process-global registry and the store.
#[derive(Debug, Default, Clone, Copy)]
struct WriteCounters {
    flushes: u64,
    compactions: u64,
    flush_us: u64,
    compaction_us: u64,
    stalls: u64,
    stall_wait_us: u64,
    bytes_written: u64,
}

impl WriteCounters {
    fn now(env: Option<&Env>) -> WriteCounters {
        // Look metrics up without registering them: registering a name
        // first would fix its kind before the engine declares it.
        let r = just_obs::global();
        let counter = |n: &str| r.get_counter(n).map_or(0, |c| c.get());
        let hist_sum = |n: &str| r.get_histogram(n).map_or(0, |h| h.sum());
        WriteCounters {
            flushes: counter("just_kvstore_memtable_flushes"),
            compactions: counter("just_kvstore_compactions"),
            flush_us: hist_sum("just_kvstore_flush_latency_us"),
            compaction_us: hist_sum("just_kvstore_compaction_latency_us"),
            stalls: counter("just_kvstore_backpressure_stalls"),
            stall_wait_us: hist_sum("just_kvstore_backpressure_wait_us"),
            bytes_written: env.map_or(0, |e| e.engine.io_snapshot().bytes_written),
        }
    }

    fn since(&self, e: &WriteCounters) -> WriteCounters {
        WriteCounters {
            flushes: self.flushes - e.flushes,
            compactions: self.compactions - e.compactions,
            flush_us: self.flush_us - e.flush_us,
            compaction_us: self.compaction_us - e.compaction_us,
            stalls: self.stalls - e.stalls,
            stall_wait_us: self.stall_wait_us - e.stall_wait_us,
            bytes_written: self.bytes_written - e.bytes_written,
        }
    }
}

fn write_side_metrics(out: &mut Outcome, d: &WriteCounters, rows: f64) {
    out.metric("kvstore.flushes", d.flushes as f64, "count");
    out.metric("kvstore.compactions", d.compactions as f64, "count");
    out.metric("kvstore.flush_ms", d.flush_us as f64 / 1e3, "ms");
    out.metric("kvstore.backpressure_stalls", d.stalls as f64, "count");
    out.metric(
        "kvstore.bytes_written_per_row",
        d.bytes_written as f64 / rows,
        "B/row",
    );
    out.detail("kvstore.compaction_ms", d.compaction_us as f64 / 1e3, "ms");
    out.detail(
        "kvstore.backpressure_wait_ms",
        d.stall_wait_us as f64 / 1e3,
        "ms",
    );
    out.detail(
        "kvstore.wal_sync_p99_us",
        just_obs::global()
            .get_histogram("just_kvstore_wal_sync_latency_us")
            .map_or(0, |h| h.quantile(0.99)) as f64,
        "us",
    );
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
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

/// The commit being measured, read from `.git` when the checkout has one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.is_empty() {
        "unknown (no .git in the working directory)".to_string()
    } else {
        hash.to_string()
    }
}
