//! The system under test and the clients that drive it.
//!
//! Each setup opens a fresh engine directory, starts an in-process
//! `just_server::Server` on loopback and loads the table through the
//! path users take: Orders through multi-row wire `INSERT`s,
//! Traj through `Session::insert` (JustQL `INSERT` cannot express
//! `st_series` values). Connections are opened per phase and closed at
//! its end, so none sits idle past the server's 30 s read timeout while
//! another phase runs.

use crate::inputs::{answer_of, insert_sql, matches, Expected, Oracle, Query};
use just_bench::workload::Order;
use just_core::{Engine, EngineConfig, Session, SessionManager};
use just_server::{RemoteClient, Server, ServerConfig, ServerHandle};
use just_storage::Row;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The session namespace every connection authenticates as.
pub const USER: &str = "bench";

/// One engine behind one server.
pub struct Env {
    /// The engine the server fronts.
    pub engine: Arc<Engine>,
    /// An embedded session in the same namespace as the wire clients.
    pub session: Session,
    server: Option<ServerHandle>,
    dir: PathBuf,
}

impl Env {
    /// Opens an engine in a fresh `dir` and starts a server over it.
    pub fn start(dir: &Path, config: EngineConfig) -> Result<Env, String> {
        std::fs::remove_dir_all(dir).ok();
        let engine = Arc::new(Engine::open(dir, config).map_err(|e| format!("engine open: {e}"))?);
        let session = SessionManager::new(engine.clone()).session(USER);
        let server = Server::start(engine.clone(), ServerConfig::default())
            .map_err(|e| format!("server start: {e}"))?;
        Ok(Env {
            engine,
            session,
            server: Some(server),
            dir: dir.to_path_buf(),
        })
    }

    /// The server's loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.server
            .as_ref()
            .expect("server runs until the env stops")
            .local_addr()
    }

    /// Opens `n` authenticated connections.
    pub fn connect(&self, n: usize) -> Result<Vec<RemoteClient>, String> {
        (0..n)
            .map(|_| RemoteClient::connect(self.addr(), USER).map_err(|e| format!("connect: {e}")))
            .collect()
    }

    /// Physical table behind a user table name.
    pub fn table(&self, name: &str) -> Arc<just_storage::StTable> {
        self.engine
            .table(&self.session.physical(name))
            .expect("table created by setup")
    }

    /// On-disk bytes of a user table.
    pub fn disk_size(&self, name: &str) -> u64 {
        self.engine
            .table_disk_size(&self.session.physical(name))
            .unwrap_or(0)
    }

    /// Stops the server (joining its threads), shuts the engine down and
    /// removes its directory.
    pub fn stop(mut self) {
        if let Some(server) = self.server.take() {
            server.join();
        }
        self.engine.shutdown();
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Loads orders over the given connections in parallel, in `batch`-row
/// `INSERT`s. Returns per-statement latencies in ms.
pub fn load_orders_wire(
    clients: &mut [RemoteClient],
    orders: &[Order],
    batch: usize,
) -> Result<Vec<f64>, String> {
    let chunks: Vec<&[Order]> = orders.chunks(batch).collect();
    let next = AtomicUsize::new(0);
    let per_client: Vec<Result<Vec<f64>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                let (chunks, next) = (&chunks, &next);
                s.spawn(move || {
                    let mut lat = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(chunk) = chunks.get(i) else {
                            return Ok(lat);
                        };
                        let sql = insert_sql(chunk);
                        let t0 = Instant::now();
                        c.execute(&sql).map_err(|e| format!("load INSERT: {e}"))?;
                        lat.push(ms(t0.elapsed()));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for r in per_client {
        all.extend(r?);
    }
    Ok(all)
}

/// Loads trajectory rows through `Session::insert`, `batch` rows a call.
/// Returns per-call latencies in ms.
pub fn load_traj(session: &Session, rows: &[Row], batch: usize) -> Result<Vec<f64>, String> {
    let mut lat = Vec::new();
    for chunk in rows.chunks(batch) {
        let t0 = Instant::now();
        session
            .insert("traj", chunk)
            .map_err(|e| format!("traj insert: {e}"))?;
        lat.push(ms(t0.elapsed()));
    }
    Ok(lat)
}

/// Milliseconds as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The outcome of a batch of statements.
#[derive(Debug, Default)]
pub struct Tally {
    /// Statements issued.
    pub attempted: u64,
    /// Statements that errored, were refused, or returned a wrong answer.
    pub failed: u64,
    /// The first [`Tally::KEPT`] failure descriptions.
    pub failures: Vec<String>,
}

impl Tally {
    /// Failure descriptions kept for the log.
    pub const KEPT: usize = 5;

    /// Records a failure.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < Self::KEPT {
            self.failures.push(what);
        }
    }

    /// Folds another tally in.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = Self::KEPT.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }
}

/// Per-kind latency samples (ms) of a closed loop.
#[derive(Debug, Default)]
pub struct Latencies {
    /// `(kind, latency ms)` of every completed statement.
    pub samples: Vec<(&'static str, f64)>,
}

impl Latencies {
    /// All samples of one kind, or of every kind when `kind` is `None`.
    pub fn of(&self, kind: Option<&str>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|(k, _)| kind.is_none_or(|want| want == *k))
            .map(|(_, v)| *v)
            .collect()
    }
}

/// A closed loop's measurements.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    /// Latencies of completed statements.
    pub latencies: Latencies,
    /// Time spent inside rounds (result checks excluded).
    pub busy: Duration,
    /// Whole rounds run.
    pub rounds: usize,
    /// Statement outcomes.
    pub tally: Tally,
}

/// Runs whole rounds of `stmts` over the given connections until
/// `seconds` have passed (at least one round). Within a round each
/// connection sends its next statement as soon as its previous reply
/// arrives. Results are checked against `expected` after each round,
/// outside the timed section.
pub fn closed_loop(
    clients: &mut [RemoteClient],
    stmts: &[Query],
    expected: &[Expected],
    seconds: f64,
) -> ClosedLoop {
    let sql: Vec<String> = stmts.iter().map(Query::sql).collect();
    let mut out = ClosedLoop::default();
    loop {
        let next = AtomicUsize::new(0);
        let t0 = Instant::now();
        let replies: Vec<Vec<(usize, f64, just_ql::Result<just_ql::QueryResult>)>> =
            std::thread::scope(|s| {
                let handles: Vec<_> = clients
                    .iter_mut()
                    .map(|c| {
                        let (sql, next) = (&sql, &next);
                        s.spawn(move || {
                            let mut got = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(text) = sql.get(i) else {
                                    return got;
                                };
                                let t = Instant::now();
                                let r = c.execute(text);
                                got.push((i, ms(t.elapsed()), r));
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
        out.busy += t0.elapsed();
        out.rounds += 1;
        for (i, latency, r) in replies.into_iter().flatten() {
            out.tally.attempted += 1;
            match check(&stmts[i], &expected[i], r) {
                Ok(()) => out.latencies.samples.push((stmts[i].kind(), latency)),
                Err(e) => out.tally.fail(e),
            }
        }
        if out.busy.as_secs_f64() >= seconds {
            return out;
        }
    }
}

/// Checks one reply against its expected answer.
pub fn check(
    q: &Query,
    expected: &Expected,
    reply: just_ql::Result<just_ql::QueryResult>,
) -> Result<(), String> {
    let result = reply.map_err(|e| format!("{}: {e}", q.kind()))?;
    match answer_of(q, &result) {
        Some(got) if matches(expected, &got) => Ok(()),
        Some(got) => Err(format!(
            "{} answer mismatch: {} rows, expected {} ({})",
            q.kind(),
            len_of(&got),
            len_of(expected),
            q.sql()
        )),
        None => Err(format!("{} returned an unexpected result shape", q.kind())),
    }
}

fn len_of(e: &Expected) -> usize {
    match e {
        Expected::Fids(v) => v.len(),
        Expected::Trajs(v) => v.len(),
        Expected::Dists(v) => v.len(),
    }
}

/// Expected answers for a statement list.
pub fn expect_all(oracle: &Oracle, stmts: &[Query]) -> Vec<Expected> {
    stmts.iter().map(|q| oracle.expect(q)).collect()
}
