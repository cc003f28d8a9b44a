//! The traced run: a single-threaded, in-process replay of the same
//! schedule through each layer's public entry points, in the order the
//! server and engine call them, timing each call from outside. Phase 2 is
//! read from the `PhaseTimings` and `SearchTrace` that `search_detailed`
//! returns. Afterwards an HTTP probe on one connection measures the round
//! trip the layers have to add up to.

use std::io::BufReader;
use std::time::{Duration, Instant};

use schemr::{parse_keywords, SearchRequest};
use schemr_index::{Index, IndexDocument, IndexMetrics, SearchOptions};
use schemr_obs::MetricsRegistry;
use schemr_server::http::{read_request, HttpLimits};
use schemr_server::xml_response::search_response_to_xml;
use schemr_text::Analyzer;

use crate::alloc;
use crate::client::Conn;
use crate::run::{apply, open_loop, search, setup, Served};
use crate::stats::{ms, ratio, us, Summary};
use crate::workload::{Inputs, Spec, Write, MERGE_THRESHOLD};

/// Back-to-back requests of the round-trip probe.
const RTT_REQUESTS: usize = 200;
/// Length of the paced pass that measures generator lateness.
const PACED_SECS: f64 = 10.0;

/// One per-layer reading; `None` when its source does not exist (a
/// counter the program no longer registers) or saw no events.
pub struct Reading {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
}

/// Engine counters, read as deltas over the in-process replay.
const COUNTERS: [&str; 10] = [
    "schemr_search_requests_total",
    "schemr_candidate_cache_hits_total",
    "schemr_candidate_cache_misses_total",
    "schemr_match_threads_used_total",
    "schemr_index_merges_total",
    "schemr_match_artifact_cache_hits_total",
    "schemr_match_artifact_cache_misses_total",
    "schemr_match_artifact_cache_bytes_inserted_total",
    "schemr_match_candidates_pruned_total",
    "schemr_candidates_evaluated_total",
];

fn read_counters(served: &Served) -> Vec<Option<u64>> {
    let registry = served.engine.metrics_registry();
    COUNTERS
        .iter()
        .map(|name| registry.counter_value(name, &[]))
        .collect()
}

/// Add `after - before` to `total`; a counter absent from either reading
/// stays absent.
fn add_delta(total: &mut [Option<u64>], before: &[Option<u64>], after: &[Option<u64>]) {
    for ((t, b), a) in total.iter_mut().zip(before).zip(after) {
        *t = t.zip(b.zip(*a)).map(|(t, (b, a))| t + (a - b));
    }
}

/// Raw per-call samples of the replay.
#[derive(Default)]
struct Samples {
    read_request: Vec<f64>,
    fragment: Vec<f64>,
    query_graph: Vec<f64>,
    analyze: Vec<f64>,
    search_terms: Vec<f64>,
    get_per_candidate: Vec<f64>,
    search: Vec<f64>,
    phase1: Vec<f64>,
    phase2: Vec<f64>,
    phase3: Vec<f64>,
    allocs: Vec<f64>,
    phase2_per_candidate: Vec<f64>,
    name_matcher: Vec<f64>,
    context_matcher: Vec<f64>,
    render: Vec<f64>,
    /// Per search: the replayed layers the server runs in sequence
    /// (request read, fragment parse, engine search, XML render), summed.
    layer_sum: Vec<f64>,
    write: Vec<f64>,
    reindex: Vec<f64>,
    merge: Vec<f64>,
    merge_check: Vec<f64>,
}

/// Time one call.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Replay one search the way the server and engine handle it. Returns
/// false if any layer failed.
fn replay_search(
    served: &Served,
    index: &Index,
    analyzer: &Analyzer,
    bytes: &[u8],
    s: &mut Samples,
) -> bool {
    let engine = &served.engine;
    let mut reader = BufReader::new(bytes);
    let (request, read) = timed(|| read_request(&mut reader, &HttpLimits::default()));
    let Ok(request) = request else { return false };
    s.read_request.push(us(read));
    let mut sr = SearchRequest {
        keywords: request.param("q").map(parse_keywords).unwrap_or_default(),
        limit: request.param("limit").and_then(|l| l.parse().ok()),
        explain: true,
        ..SearchRequest::default()
    };
    let mut fragment_time = Duration::ZERO;
    if request.method == "POST" && !request.body.trim().is_empty() {
        let (fragment, took) = timed(|| schemr_parse::parse_fragment("fragment", &request.body));
        let Ok(fragment) = fragment else { return false };
        sr.fragments.push(fragment);
        s.fragment.push(us(took));
        fragment_time = took;
    }
    let (graph, took) = timed(|| sr.query_graph());
    s.query_graph.push(us(took));
    let (terms, took) = timed(|| {
        graph
            .flat_texts()
            .iter()
            .flat_map(|t| analyzer.analyze(t))
            .collect::<Vec<String>>()
    });
    s.analyze.push(us(took));
    let config = engine.config();
    let options = SearchOptions {
        top_n: config.top_candidates,
        coordination: config.coordination,
        proximity_weight: config.proximity_weight,
        prune: config.phase1_pruning,
    };
    let (hits, took) = timed(|| index.search_terms(&terms, &options));
    s.search_terms.push(us(took));
    if !hits.is_empty() {
        let (_, took) = timed(|| {
            for hit in &hits {
                std::hint::black_box(engine.repository().get(hit.id));
            }
        });
        s.get_per_candidate.push(us(took) / hits.len() as f64);
    }
    let allocs = alloc::count();
    let (response, search_time) = timed(|| engine.search_detailed(&sr));
    s.allocs.push((alloc::count() - allocs) as f64);
    let Ok(mut response) = response else {
        return false;
    };
    s.search.push(ms(search_time));
    let t = response.timings;
    s.phase1.push(ms(t.candidate_extraction));
    s.phase2.push(ms(t.matching));
    s.phase3.push(ms(t.scoring));
    if response.candidates_evaluated > 0 {
        s.phase2_per_candidate
            .push(us(t.matching) / response.candidates_evaluated as f64);
    }
    // The server's responses carry no explain trace; render without it.
    if let Some(trace) = response.trace.take() {
        for m in &trace.matchers {
            match m.name.as_str() {
                "name" => s.name_matcher.push(ms(m.wall)),
                "context" => s.context_matcher.push(ms(m.wall)),
                _ => {}
            }
        }
    }
    let (xml, render) = timed(|| search_response_to_xml(&response));
    std::hint::black_box(xml);
    s.render.push(us(render));
    s.layer_sum
        .push(ms(read + fragment_time + search_time + render));
    true
}

/// Apply one write through the repository, then the two steps a
/// scheduler tick runs: the incremental re-index and the merge check.
fn replay_write(served: &Served, write: Write, s: &mut Samples) -> bool {
    let engine = &served.engine;
    let (result, took) = timed(|| apply(engine.repository(), &served.ids, write));
    if result.is_err() {
        return false;
    }
    s.write.push(us(took));
    let (_, took) = timed(|| engine.reindex_incremental());
    s.reindex.push(ms(took));
    let (merged, took) = timed(|| engine.maybe_merge(MERGE_THRESHOLD));
    if merged {
        s.merge.push(ms(took));
    } else {
        s.merge_check.push(ms(took));
    }
    true
}

/// Outcome of the traced run.
pub struct Traced {
    pub readings: Vec<Reading>,
    pub attempted: u64,
    pub failed: u64,
}

pub fn traced(spec: &Spec, inputs: Inputs) -> std::io::Result<Traced> {
    let repeat_share = inputs.repeat_share();
    let (served, _) = setup(&inputs.corpus)?;
    alloc::enable();
    // Phase 1 without the engine's candidate cache: an index of its own
    // over the same documents, counting into a registry of its own.
    let index_registry = MetricsRegistry::new();
    let index = Index::new().with_metrics(IndexMetrics::registered(&index_registry));
    let docs: Vec<IndexDocument> = served
        .engine
        .repository()
        .snapshot()
        .iter()
        .map(|stored| {
            IndexDocument::from_schema(
                stored.metadata.id,
                &stored.metadata.title,
                &stored.metadata.summary,
                &stored.schema,
            )
        })
        .collect();
    index.add_all(&docs);
    drop(docs);
    let analyzer = Analyzer::for_names();

    let Inputs {
        ops,
        rounds,
        writes,
        ..
    } = inputs;
    let mut s = Samples::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Counter deltas cover what the end-to-end run times: the rounds and
    // the writes, not the warm-ups.
    let mut counted: Vec<Option<u64>> = vec![Some(0); COUNTERS.len()];
    // Searches and writes interleave in due-time order; a workload
    // without a writer replays its write probe after each round, as the
    // end-to-end run does.
    let search_gap = 1.0 / spec.rate;
    let write_gap = if spec.write_rate > 0.0 {
        1.0 / spec.write_rate
    } else {
        f64::INFINITY
    };
    let chunk = writes.len().div_ceil(rounds.len()).max(1);
    let mut writes = writes.into_iter().enumerate().peekable();
    let mut due = 0usize;
    for round in &rounds {
        for &op in &round.warm {
            if let Ok(request) = ops[op].reference() {
                let _ = served.engine.search(&request);
            }
        }
        let before = read_counters(&served);
        for &op in &round.open {
            while let Some((_, write)) =
                writes.next_if(|(j, _)| *j as f64 * write_gap <= due as f64 * search_gap)
            {
                attempted += 1;
                failed += u64::from(!replay_write(&served, write, &mut s));
            }
            due += 1;
            attempted += 1;
            failed += u64::from(!replay_search(
                &served,
                &index,
                &analyzer,
                &ops[op].request,
                &mut s,
            ));
        }
        // Without a writer, the probe's share for this round.
        if spec.write_rate == 0.0 {
            for (_, write) in writes.by_ref().take(chunk) {
                attempted += 1;
                failed += u64::from(!replay_write(&served, write, &mut s));
            }
        }
        add_delta(&mut counted, &before, &read_counters(&served));
    }

    // Round trips with one request in flight on one connection, sent
    // back to back over the load generator's client, on the closed-loop
    // searches: the last pool, or on cold_distinct searches the replay
    // has not seen.
    let fresh = &rounds.last().expect("a run has rounds").closed;
    let mut conn = Conn::new(served.addr());
    let mut rtt = Vec::new();
    for &op in fresh.iter().cycle().take(RTT_REQUESTS) {
        let (ids, took) = timed(|| search(&mut conn, &ops[op]));
        match ids {
            Some(_) => rtt.push(ms(took)),
            None => failed += 1,
        }
    }
    // The generator's own lateness when paced at the workload's rate per
    // connection.
    let paced: Vec<usize> = fresh
        .iter()
        .cycle()
        .skip(RTT_REQUESTS)
        .take((spec.rate / spec.conns as f64 * PACED_SECS).round() as usize)
        .copied()
        .collect();
    let paced = open_loop(
        served.addr(),
        1,
        &ops,
        &paced,
        spec.rate / spec.conns as f64,
        Instant::now(),
    );
    served.server.shutdown();
    failed += paced.sent.iter().filter(|r| r.ids.is_none()).count() as u64;
    let requests = RTT_REQUESTS + paced.sent.len();
    attempted += requests as u64;
    let reconnects = conn.reconnects + paced.reconnects;
    let lateness: Vec<f64> = paced
        .sent
        .iter()
        .map(|r| ms(r.generator_lateness()))
        .collect();

    let delta = |name: &str| -> Option<f64> {
        let i = COUNTERS
            .iter()
            .position(|c| *c == name)
            .expect("listed counter");
        counted[i].map(|c| c as f64)
    };
    let rate = |num: &str, den: &[&str]| -> Option<f64> {
        let den = den.iter().map(|d| delta(d)).sum::<Option<f64>>()?;
        ratio(delta(num)?, den)
    };
    let searches = || delta("schemr_search_requests_total");
    let index_counter = |name: &str| index_registry.counter_value(name, &[]).map(|c| c as f64);
    let p50 = |v: &[f64]| Summary::of(v.iter().copied()).map(|s| s.p50);
    let tail = |v: &[f64]| Summary::of(v.iter().copied()).map(|s| s.tail.value);
    let rtt_p50 = p50(&rtt);
    let sum_p50 = p50(&s.layer_sum);
    let reading = |name, unit, value| Reading { name, unit, value };
    let readings = vec![
        reading("server.read_request_us", "us", p50(&s.read_request)),
        reading("server.render_xml_us", "us", p50(&s.render)),
        reading("server.http_rtt_ms", "ms", rtt_p50),
        reading(
            "server.unexplained_ms",
            "ms",
            rtt_p50.zip(sum_p50).map(|(r, l)| r - l),
        ),
        reading(
            "server.reconnects_per_1k",
            "count",
            ratio(reconnects as f64 * 1000.0, requests as f64),
        ),
        reading("parse.fragment_us", "us", p50(&s.fragment)),
        reading("core.query_graph_us", "us", p50(&s.query_graph)),
        reading("core.search_ms", "ms", p50(&s.search)),
        reading("core.search_tail_ms", "ms", tail(&s.search)),
        reading("core.phase1_ms", "ms", p50(&s.phase1)),
        reading("core.phase2_ms", "ms", p50(&s.phase2)),
        reading("core.phase3_ms", "ms", p50(&s.phase3)),
        reading(
            "core.candidate_cache_hit_rate",
            "ratio",
            rate(
                "schemr_candidate_cache_hits_total",
                &[
                    "schemr_candidate_cache_hits_total",
                    "schemr_candidate_cache_misses_total",
                ],
            ),
        ),
        reading(
            "core.match_threads_per_search",
            "count",
            searches().and_then(|n| ratio(delta("schemr_match_threads_used_total")?, n)),
        ),
        reading("core.allocs_per_search", "count", p50(&s.allocs)),
        reading("core.reindex_incremental_ms", "ms", p50(&s.reindex)),
        reading("core.merge_ms", "ms", p50(&s.merge)),
        reading("core.merge_check_ms", "ms", p50(&s.merge_check)),
        reading("text.analyze_us", "us", p50(&s.analyze)),
        reading("index.search_terms_us", "us", p50(&s.search_terms)),
        reading("index.search_terms_tail_us", "us", tail(&s.search_terms)),
        // Phase 1 counters come from the benchmark's own index, which runs
        // once per replayed search: the engine skips Phase 1 on a
        // candidate-cache hit, so its counters go quiet on hot_repeat.
        reading(
            "index.postings_scanned_per_search",
            "count",
            index_counter("schemr_index_postings_scanned_total")
                .and_then(|c| ratio(c, s.search_terms.len() as f64)),
        ),
        reading(
            "index.pruned_share",
            "ratio",
            index_counter("schemr_index_postings_pruned_total")
                .zip(index_counter("schemr_index_postings_scanned_total"))
                .and_then(|(p, c)| ratio(p, p + c)),
        ),
        reading("index.merges", "count", delta("schemr_index_merges_total")),
        reading("repo.get_us_per_candidate", "us", p50(&s.get_per_candidate)),
        reading("repo.write_us", "us", p50(&s.write)),
        reading(
            "match.phase2_us_per_candidate",
            "us",
            p50(&s.phase2_per_candidate),
        ),
        reading("match.name_ms", "ms", p50(&s.name_matcher)),
        reading("match.context_ms", "ms", p50(&s.context_matcher)),
        reading(
            "match.artifact_cache_hit_rate",
            "ratio",
            rate(
                "schemr_match_artifact_cache_hits_total",
                &[
                    "schemr_match_artifact_cache_hits_total",
                    "schemr_match_artifact_cache_misses_total",
                ],
            ),
        ),
        reading(
            "match.artifact_bytes_per_search",
            "bytes",
            searches().and_then(|n| {
                ratio(
                    delta("schemr_match_artifact_cache_bytes_inserted_total")?,
                    n,
                )
            }),
        ),
        reading(
            "match.early_exit_pruned_share",
            "ratio",
            rate(
                "schemr_match_candidates_pruned_total",
                &["schemr_candidates_evaluated_total"],
            ),
        ),
        reading("loadgen.late_tail_ms", "ms", tail(&lateness)),
        reading("loadgen.repeat_share", "ratio", Some(repeat_share)),
        reading(
            "trace.explained_share",
            "ratio",
            sum_p50.zip(rtt_p50).and_then(|(l, r)| ratio(l, r)),
        ),
    ];
    Ok(Traced {
        readings,
        attempted,
        failed,
    })
}
