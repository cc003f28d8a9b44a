//! The end-to-end run: set-up, the open-loop and closed-loop phases over
//! HTTP, the writer, the correctness gate and the write probe.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use schemr::{EngineConfig, IndexScheduler, SchemrEngine};
use schemr_corpus::{Corpus, RankingMetrics};
use schemr_model::{Schema, SchemaId};
use schemr_repo::{Repository, RepositoryError};
use schemr_server::{SchemrServer, ServerConfig};

use crate::client::{await_healthy, result_ids, Conn};
use crate::stats::process_cpu;
use crate::workload::{Inputs, Op, Spec, Write, MERGE_THRESHOLD};

/// The program in its `schemr-cli serve` configuration, loaded with a
/// corpus and answering on loopback.
pub struct Served {
    pub engine: Arc<SchemrEngine>,
    /// `ids[i]` is the repository id of corpus schema `i`.
    pub ids: Vec<SchemaId>,
    pub server: SchemrServer,
}

impl Served {
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    pub fn scheduler(&self) -> IndexScheduler {
        IndexScheduler::new(self.engine.clone()).with_merge_threshold(MERGE_THRESHOLD)
    }

    /// Corpus index of each repository id, for scoring rankings.
    pub fn corpus_index(&self) -> HashMap<SchemaId, usize> {
        self.ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect()
    }
}

/// Insert the corpus, index it, start the server and wait for its first
/// healthy `/healthz`. Returns the service and the time all that took;
/// copying the corpus for the inserts happens before the clock starts.
pub fn setup(corpus: &Corpus) -> std::io::Result<(Served, Duration)> {
    let rows: Vec<(String, String, Schema)> = corpus
        .schemas
        .iter()
        .map(|s| (s.title.clone(), s.summary.clone(), s.schema.clone()))
        .collect();
    let started = Instant::now();
    let repo = Arc::new(Repository::new());
    let ids = rows
        .into_iter()
        .map(|(title, summary, schema)| repo.insert(title, summary, schema))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}")))?;
    let engine = Arc::new(SchemrEngine::with_config(repo, EngineConfig::default()));
    engine.reindex_full();
    let server = SchemrServer::start(
        engine.clone(),
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )?;
    await_healthy(server.addr(), Duration::from_secs(60))?;
    let took = started.elapsed();
    Ok((
        Served {
            engine,
            ids,
            server,
        },
        took,
    ))
}

/// Apply one write to the repository.
pub fn apply(repo: &Repository, ids: &[SchemaId], write: Write) -> Result<(), RepositoryError> {
    match write {
        Write::Update { corpus_ix, schema } => repo.update(ids[corpus_ix], schema),
        Write::Insert {
            title,
            summary,
            schema,
        } => repo.insert(title, summary, schema).map(|_| ()),
        Write::Delete { corpus_ix } => repo.remove(ids[corpus_ix]),
    }
}

/// One open-loop request.
pub struct Sent {
    pub op: usize,
    /// When the schedule wanted it sent.
    pub due: Instant,
    /// When a connection became free to take it.
    pub picked: Instant,
    pub sent: Instant,
    pub done: Instant,
    /// Ranked ids of a 200 with well-formed XML; `None` for any failure.
    pub ids: Option<Vec<SchemaId>>,
}

impl Sent {
    /// Latency from the due time, so a stall's delay to later requests
    /// counts.
    pub fn latency(&self) -> Duration {
        self.done - self.due
    }

    /// How late the generator itself sent: the delay after both the due
    /// time and a free connection.
    pub fn generator_lateness(&self) -> Duration {
        self.sent - self.due.max(self.picked)
    }
}

/// Send one search and keep its ranking if it succeeded.
/// A failure is reported on standard error.
pub fn search(conn: &mut Conn, op: &Op) -> Option<Vec<SchemaId>> {
    let failure = match conn.send(&op.request) {
        Ok(r) if r.status == 200 => match result_ids(&r.body) {
            Some(ids) => return Some(ids),
            None => "malformed results XML".to_string(),
        },
        Ok(r) => format!(
            "status {}: {}",
            r.status,
            r.body.chars().take(160).collect::<String>()
        ),
        Err(e) => format!("transport: {e}"),
    };
    eprintln!(
        "search failed ({failure}): {}",
        String::from_utf8_lossy(&op.request)
            .lines()
            .next()
            .unwrap_or("")
    );
    None
}

/// Result of one open-loop phase.
#[derive(Default)]
pub struct OpenLoop {
    pub sent: Vec<Sent>,
    pub reconnects: u64,
}

/// Send `schedule` at `rate` per second from `start` over `conns`
/// keep-alive connections. Each connection takes the next due request when it is
/// free; a request due while every connection is busy waits, and that
/// wait counts in its latency.
pub fn open_loop(
    addr: SocketAddr,
    conns: usize,
    ops: &[Op],
    schedule: &[usize],
    rate: f64,
    start: Instant,
) -> OpenLoop {
    let next = AtomicUsize::new(0);
    let per_conn: Vec<(Vec<Sent>, u64)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = Conn::new(addr);
                    let mut sent = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&op) = schedule.get(i) else { break };
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        let picked = Instant::now();
                        if let Some(wait) = due.checked_duration_since(picked) {
                            std::thread::sleep(wait);
                        }
                        let at = Instant::now();
                        let ids = search(&mut conn, &ops[op]);
                        sent.push(Sent {
                            op,
                            due,
                            picked,
                            sent: at,
                            done: Instant::now(),
                            ids,
                        });
                    }
                    (sent, conn.reconnects)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load thread does not panic"))
            .collect()
    });
    let mut sent: Vec<Sent> = Vec::new();
    let mut reconnects = 0;
    for (s, r) in per_conn {
        sent.extend(s);
        reconnects += r;
    }
    sent.sort_by_key(|s| s.due);
    OpenLoop { sent, reconnects }
}

/// Result of the closed-loop phase.
#[derive(Default)]
pub struct ClosedLoop {
    pub completed: u64,
    pub failed: u64,
    pub elapsed: Duration,
    /// Process CPU (user + system) over the phase.
    pub cpu: Duration,
}

/// Each of `conns` connections sends its next search as soon as the
/// previous one completes, for `secs` seconds.
pub fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    ops: &[Op],
    sequence: &[usize],
    secs: f64,
) -> ClosedLoop {
    let next = AtomicUsize::new(0);
    let cpu0 = process_cpu();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let counts: Vec<(u64, u64)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = Conn::new(addr);
                    let (mut ok, mut failed) = (0u64, 0u64);
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        match search(&mut conn, &ops[sequence[i % sequence.len()]]) {
                            Some(_) => ok += 1,
                            None => failed += 1,
                        }
                    }
                    (ok, failed)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load thread does not panic"))
            .collect()
    });
    let elapsed = start.elapsed();
    let cpu = process_cpu().saturating_sub(cpu0);
    ClosedLoop {
        completed: counts.iter().map(|c| c.0).sum(),
        failed: counts.iter().map(|c| c.1).sum(),
        elapsed,
        cpu,
    }
}

/// Durations of successful writes (each a repository write plus the
/// scheduler tick that makes it searchable), and the failure count.
#[derive(Default)]
pub struct Writes {
    pub durations: Vec<Duration>,
    pub failed: u64,
}

/// Apply `writes`, each followed by a tick; write `i` is due at
/// `i / rate` seconds after `start`, or later if the previous one ran long.
/// Stops early once `stop` is set.
pub fn write_all(
    engine: &SchemrEngine,
    ids: &[SchemaId],
    scheduler: &IndexScheduler,
    writes: Vec<Write>,
    rate: f64,
    start: Instant,
    stop: Option<&AtomicBool>,
) -> Writes {
    let repo = engine.repository();
    let mut out = Writes::default();
    for (i, write) in writes.into_iter().enumerate() {
        if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
            break;
        }
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let began = Instant::now();
        match apply(repo, ids, write) {
            Ok(()) => {
                scheduler.tick();
                out.durations.push(began.elapsed());
            }
            Err(_) => out.failed += 1,
        }
    }
    out
}

/// Outcome of the correctness gate.
pub struct Gate {
    pub checked: u64,
    pub failed: u64,
    /// Each checked op with its HTTP ranking, when the response was good.
    pub rankings: Vec<(usize, Vec<SchemaId>)>,
}

/// Replay `sample` over HTTP and in-process on the same engine: each
/// response must be a 200 with well-formed XML whose ranked ids equal the
/// engine's.
pub fn gate(served: &Served, ops: &[Op], sample: &[usize]) -> Gate {
    let mut conn = Conn::new(served.addr());
    let mut out = Gate {
        checked: 0,
        failed: 0,
        rankings: Vec::new(),
    };
    for &i in sample {
        out.checked += 1;
        let http = search(&mut conn, &ops[i]);
        let reference = ops[i]
            .reference()
            .ok()
            .and_then(|r| served.engine.search(&r).ok())
            .map(|results| results.iter().map(|r| r.id).collect::<Vec<_>>());
        match (http, reference) {
            (Some(http), Some(reference)) if http == reference => out.rankings.push((i, http)),
            (http, reference) => {
                eprintln!(
                    "gate mismatch on q={:?}: http {http:?}, engine {reference:?}",
                    ops[i].keywords
                );
                out.failed += 1;
            }
        }
    }
    out
}

/// MRR and P@10 of HTTP rankings against each op's family ground truth.
pub fn ranking_quality<'a>(
    served: &Served,
    ops: &[Op],
    rankings: impl IntoIterator<Item = (usize, &'a [SchemaId])>,
) -> RankingMetrics {
    let index = served.corpus_index();
    let ranked: Vec<(Vec<usize>, usize)> = rankings
        .into_iter()
        .map(|(op, ids)| {
            (
                ids.iter().filter_map(|id| index.get(id).copied()).collect(),
                op,
            )
        })
        .collect();
    RankingMetrics::aggregate(
        ranked
            .iter()
            .map(|(r, op)| (r.as_slice(), &ops[*op].relevant)),
    )
}

/// Everything the end-to-end run measured.
pub struct EndToEnd {
    pub setups: Vec<Duration>,
    pub open: OpenLoop,
    pub closed: ClosedLoop,
    pub writes: Writes,
    pub gate: Gate,
    pub quality: RankingMetrics,
}

/// Set-ups per run: at least [`MIN_SETUPS`], and more while they have
/// taken less than [`SETUP_BUDGET`], so `setup_s` is a median of several.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(4);

/// Writes per second of the write probe on workloads without a writer.
const PROBE_RATE: f64 = 50.0;

/// Run the end-to-end phases of `spec` on `inputs`.
pub fn end_to_end(spec: &Spec, inputs: Inputs, seconds: u64) -> std::io::Result<EndToEnd> {
    let phases = crate::workload::Phases::of(seconds);
    let mut setups: Vec<Duration> = Vec::new();
    let mut served: Option<Served> = None;
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<Duration>() < SETUP_BUDGET)
    {
        // Each set-up starts from nothing: the previous one is shut down
        // and dropped first.
        if let Some(old) = served.take() {
            old.server.shutdown();
        }
        let (s, took) = setup(&inputs.corpus)?;
        setups.push(took);
        served = Some(s);
    }
    let served = served.expect("at least one set-up");
    let scheduler = served.scheduler();
    let Inputs {
        ops,
        rounds,
        gate: sample,
        writes,
        ..
    } = inputs;
    let addr = served.addr();
    let timed_writes = spec.write_rate > 0.0;
    let (timed, probe) = if timed_writes {
        (writes, Vec::new())
    } else {
        (Vec::new(), writes)
    };
    // Without a writer, the write probe runs in even shares after each
    // round, so it samples the whole run; the next round's warm-up makes
    // the caches whole again.
    let chunk = probe.len().div_ceil(rounds.len()).max(1);
    let mut probe = probe.into_iter();
    let stop = AtomicBool::new(false);
    let (open, closed, writes) = std::thread::scope(|s| {
        let writer = timed_writes.then(|| {
            let (engine, ids, scheduler, stop) = (&*served.engine, &served.ids, &scheduler, &stop);
            let start = Instant::now();
            s.spawn(move || {
                write_all(
                    engine,
                    ids,
                    scheduler,
                    timed,
                    spec.write_rate,
                    start,
                    Some(stop),
                )
            })
        });
        let mut open = OpenLoop::default();
        let mut closed = ClosedLoop::default();
        let mut probed = Writes::default();
        let closed_secs = phases.closed_secs / rounds.len() as f64;
        for round in &rounds {
            for &op in &round.warm {
                if let Ok(request) = ops[op].reference() {
                    let _ = served.engine.search(&request);
                }
            }
            let part = open_loop(
                addr,
                spec.conns,
                &ops,
                &round.open,
                spec.rate,
                Instant::now(),
            );
            open.sent.extend(part.sent);
            open.reconnects += part.reconnects;
            let part = closed_loop(addr, spec.conns, &ops, &round.closed, closed_secs);
            closed.completed += part.completed;
            closed.failed += part.failed;
            closed.elapsed += part.elapsed;
            closed.cpu += part.cpu;
            let part = write_all(
                &served.engine,
                &served.ids,
                &scheduler,
                probe.by_ref().take(chunk).collect(),
                PROBE_RATE,
                Instant::now(),
                None,
            );
            probed.durations.extend(part.durations);
            probed.failed += part.failed;
        }
        stop.store(true, Ordering::Relaxed);
        let writes = writer.map(|w| w.join().expect("writer does not panic"));
        (open, closed, writes.unwrap_or(probed))
    });
    if timed_writes {
        scheduler.tick();
    }
    let gate = gate(&served, &ops, &sample);
    // The pool workloads are scored on the gate's replay (on churn_rw
    // after the final tick, since rankings move while the writer runs);
    // cold_distinct on every open-loop response.
    let quality = if spec.pool.is_some() {
        ranking_quality(
            &served,
            &ops,
            gate.rankings.iter().map(|(op, ids)| (*op, ids.as_slice())),
        )
    } else {
        ranking_quality(
            &served,
            &ops,
            open.sent
                .iter()
                .filter_map(|s| s.ids.as_deref().map(|ids| (s.op, ids))),
        )
    };
    served.server.shutdown();
    Ok(EndToEnd {
        setups,
        open,
        closed,
        writes,
        gate,
        quality,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sent(due: Instant, picked: i64, sent: i64, done: i64) -> Sent {
        let at = |ms: i64| {
            if ms >= 0 {
                due + Duration::from_millis(ms as u64)
            } else {
                due - Duration::from_millis((-ms) as u64)
            }
        };
        Sent {
            op: 0,
            due,
            picked: at(picked),
            sent: at(sent),
            done: at(done),
            ids: None,
        }
    }

    #[test]
    fn latency_counts_from_the_due_time_and_lateness_from_a_free_connection() {
        let due = Instant::now() + Duration::from_secs(1);
        let ms = Duration::from_millis;
        // The connection was free 5 ms early and the request left 1 ms
        // late: the generator's own lateness.
        let on_time = sent(due, -5, 1, 9);
        assert_eq!(on_time.latency(), ms(9));
        assert_eq!(on_time.generator_lateness(), ms(1));
        // Every connection was busy until 30 ms past due: the wait counts
        // in the latency, and not against the generator.
        let backlog = sent(due, 30, 30, 40);
        assert_eq!(backlog.latency(), ms(40));
        assert_eq!(backlog.generator_lateness(), Duration::ZERO);
        // Picked up late and then slow to send: only the sending delay
        // is the generator's.
        let slow = sent(due, 30, 32, 40);
        assert_eq!(slow.generator_lateness(), ms(2));
    }
}
