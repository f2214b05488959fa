//! `order_ingest`: an open-loop writer beside a closed-loop reader.
//!
//! The writer stands for independent order events: one connection sends
//! a multi-row `INSERT` of fresh orders every period whether or not the
//! previous one has returned, and each is timed from when it was due, so
//! a stall also charges the statements queued behind it. The reader
//! stands for an analyst: a second connection runs spatial windows back
//! to back against the growing table.

use crate::inputs::{answer_of, fresh_orders, insert_sql, Expected, Oracle, Query};
use crate::serve::{check, ms, Env, Tally};
use crate::Scale;
use just_bench::workload::Order;
use just_ql::QueryResult;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Ids of open-loop rows start here, above every loaded order.
pub const FIRST_FID: i64 = 1_000_000_000;

/// What the phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// INSERT latency from due time to acknowledgement, ms.
    pub write_latencies: Vec<f64>,
    /// How late each INSERT was sent after its due time, ms.
    pub lateness: Vec<f64>,
    /// Reader latencies, ms.
    pub read_latencies: Vec<f64>,
    /// Rows of every acknowledged INSERT.
    pub acked: Vec<Order>,
    /// Phase length.
    pub seconds: f64,
    /// Statement outcomes.
    pub tally: Tally,
}

struct Write {
    sent: Duration,
    acked: Option<Duration>,
}

struct Read {
    stmt: usize,
    start: Duration,
    end: Duration,
    reply: just_ql::Result<QueryResult>,
}

/// Runs the writer for `seconds` beside the reader, then checks every
/// answer: each read must hold every row acknowledged before it started
/// and nothing sent after it ended; the final row count and a closing
/// set of windows must match the loaded plus acknowledged rows exactly.
pub fn run_phase(
    env: &Env,
    reads: &[Query],
    base: &Oracle,
    s: &Scale,
    seconds: f64,
    seed: u64,
) -> Result<Phase, String> {
    let interval = Duration::from_millis(s.ingest_interval_ms);
    let n = ((seconds * 1e3) as u64 / s.ingest_interval_ms).max(1) as usize;
    let fresh = fresh_orders(n * s.ingest_batch, FIRST_FID, seed);
    let batches: Vec<&[Order]> = fresh.chunks(s.ingest_batch).collect();
    let sql: Vec<String> = batches.iter().map(|b| insert_sql(b)).collect();
    let read_sql: Vec<String> = reads.iter().map(Query::sql).collect();
    let mut conns = env.connect(2)?;
    let (wc, rc) = conns.split_at_mut(1);
    let (wc, rc) = (&mut wc[0], &mut rc[0]);
    let done = AtomicBool::new(false);
    let mut out = Phase::default();
    let t0 = Instant::now();
    let (writes, read_log) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut log = Vec::with_capacity(n);
            for (i, text) in sql.iter().enumerate() {
                let due = interval * i as u32;
                if let Some(wait) = due.checked_sub(t0.elapsed()) {
                    std::thread::sleep(wait);
                }
                let sent = t0.elapsed();
                let ok = wc.execute(text).is_ok();
                let at = t0.elapsed();
                log.push((
                    due,
                    Write {
                        sent,
                        acked: ok.then_some(at),
                    },
                ));
            }
            done.store(true, Ordering::SeqCst);
            log
        });
        let reader = scope.spawn(|| {
            let mut log = Vec::new();
            let mut i = 0;
            while !done.load(Ordering::SeqCst) {
                let stmt = i % read_sql.len();
                let start = t0.elapsed();
                let reply = rc.execute(&read_sql[stmt]);
                log.push(Read {
                    stmt,
                    start,
                    end: t0.elapsed(),
                    reply,
                });
                i += 1;
            }
            log
        });
        (
            writer.join().expect("writer thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });
    out.seconds = t0.elapsed().as_secs_f64();

    for (i, (due, w)) in writes.iter().enumerate() {
        out.tally.attempted += 1;
        out.lateness.push(ms(w.sent.saturating_sub(*due)));
        match w.acked {
            Some(at) => {
                out.write_latencies.push(ms(at - *due));
                out.acked.extend_from_slice(batches[i]);
            }
            None => out.tally.fail(format!("open-loop INSERT {i} failed")),
        }
    }
    // A read must see every batch acknowledged before it started and may
    // see any batch sent before it ended.
    let acked_at: Vec<Option<Duration>> = writes.iter().map(|(_, w)| w.acked).collect();
    let sent_at: Vec<Duration> = writes.iter().map(|(_, w)| w.sent).collect();
    for r in read_log {
        out.tally.attempted += 1;
        let q = &reads[r.stmt];
        let must = acked_at
            .iter()
            .take_while(|a| a.is_some_and(|a| a <= r.start))
            .count();
        let may = sent_at.iter().take_while(|s| **s < r.end).count();
        let latency = ms(r.end - r.start);
        match bounded(q, base, &batches, must, may, r.reply) {
            Ok(()) => out.read_latencies.push(latency),
            Err(e) => out.tally.fail(e),
        }
    }

    // Closing checks, on the reader's connection.
    let mut full = Oracle {
        orders: base.orders.clone(),
        ..Oracle::default()
    };
    full.add_orders(&out.acked);
    let want = full.orders.len() as i64;
    out.tally.attempted += 1;
    match rc.execute("SELECT count(*) AS n FROM orders") {
        Ok(r) => {
            let got = r
                .dataset()
                .and_then(|d| d.rows.first())
                .and_then(|row| row.values.first())
                .and_then(just_storage::Value::as_int);
            if got != Some(want) {
                out.tally
                    .fail(format!("final count {got:?}, expected {want}"));
            }
        }
        Err(e) => out.tally.fail(format!("final count: {e}")),
    }
    for q in reads.iter().take(20) {
        out.tally.attempted += 1;
        if let Err(e) = check(q, &full.expect(q), rc.execute(&q.sql())) {
            out.tally.fail(format!("closing window: {e}"));
        }
    }
    Ok(out)
}

/// Checks a read against the growing table: the answer holds every
/// in-window row of the base data and of the first `must` batches, and
/// nothing outside the base data and the first `may` batches.
fn bounded(
    q: &Query,
    base: &Oracle,
    batches: &[&[Order]],
    must: usize,
    may: usize,
    reply: just_ql::Result<QueryResult>,
) -> Result<(), String> {
    let result = reply.map_err(|e| format!("ingest read: {e}"))?;
    let Some(Expected::Fids(got)) = answer_of(q, &result) else {
        return Err("ingest read returned an unexpected result shape".into());
    };
    let Expected::Fids(base_ids) = base.expect(q) else {
        unreachable!("Orders reads expect ids");
    };
    let with = |k: usize| {
        let Expected::Fids(mut v) = Oracle::of_orders(&batches[..k].concat()).expect(q) else {
            unreachable!("Orders reads expect ids");
        };
        v.extend_from_slice(&base_ids);
        v.sort_unstable();
        v
    };
    let (lo, hi) = (with(must), with(may));
    let contains = |set: &[i64], x: &i64| set.binary_search(x).is_ok();
    if lo.iter().all(|f| contains(&got, f)) && got.iter().all(|f| contains(&hi, f)) {
        Ok(())
    } else {
        Err(format!(
            "ingest read mismatch: {} rows, expected between {} and {} ({})",
            got.len(),
            lo.len(),
            hi.len(),
            q.sql()
        ))
    }
}
