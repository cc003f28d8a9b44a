//! The three workloads and the seeded generator of their inputs. The
//! program under test only ever sees what this module generates: HTTP
//! request bytes and repository writes.

use std::collections::{HashSet, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schemr::{parse_keywords, SearchRequest};
use schemr_corpus::{
    Corpus, CorpusConfig, GeneratedQuery, PerturbConfig, Perturber, QueryKind, Workload,
    WorkloadConfig,
};
use schemr_model::Schema;
use schemr_parse::printer::print_ddl;
use schemr_server::http::percent_encode;
use schemr_text::Analyzer;

/// Workload seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Measured seconds when `--seconds` is not given.
pub const DEFAULT_SECONDS: u64 = 25;
/// Results requested per search (the engine's default list length).
pub const LIMIT: usize = 10;
/// Queries in a pool that `hot_repeat` and `churn_rw` replay round-robin.
pub const POOL: usize = 20;
/// Tombstone ratio at which a scheduler tick merges segments. Low, so
/// that on the 2,000-schema corpus about one write in seven merges: the
/// writes' p95 then falls well inside the merging ones.
pub const MERGE_THRESHOLD: f64 = 0.0025;
/// Writes (each followed by a tick) of the write probe on the workloads
/// that have no writer; 200 is the least that supports a p95.
pub const PROBE_WRITES: usize = 200;
/// Seconds of writes generated beyond the run length for the writer.
const WRITER_MARGIN_SECS: u64 = 10;
/// Queries replayed by the correctness gate on `cold_distinct`; the pool
/// workloads replay half of every pool.
pub const GATE_SAMPLE: usize = 20;
/// Rounds of the pool workloads, each with a fresh pool, so one run's
/// figures rest on more than 20 queries while each round's working set
/// still fits both caches.
pub const ROUNDS: usize = 6;
/// Upper bound on closed-loop searches per second, used only to size
/// `cold_distinct`'s supply of fresh queries.
const CLOSED_RATE_CAP: f64 = 60.0;

/// One named workload. Rates are offered rates, fixed here and never
/// adapted at run time.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Schemas in the repository.
    pub corpus: usize,
    /// `Some(n)`: replay a pool of `n` queries round-robin; `None`: no
    /// query repeats within a run.
    pub pool: Option<usize>,
    /// Open-loop searches per second.
    pub rate: f64,
    /// Keep-alive search connections.
    pub conns: usize,
    /// Writer thread's writes per second during the timed phases; 0 means
    /// no writer (the write metrics then come from the post-gate probe).
    /// A rate that does not divide the search rate makes writes land at
    /// every offset from the searches, not at one that varies by run.
    pub write_rate: f64,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "hot_repeat",
        corpus: 2_000,
        pool: Some(POOL),
        rate: 20.0,
        conns: 2,
        write_rate: 0.0,
    },
    Spec {
        name: "cold_distinct",
        corpus: 30_000,
        pool: None,
        rate: 10.0,
        conns: 2,
        write_rate: 0.0,
    },
    Spec {
        name: "churn_rw",
        corpus: 2_000,
        pool: Some(POOL),
        rate: 10.0,
        conns: 1,
        write_rate: 9.0,
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// How a run's measured seconds split between the two loops, summed
/// over its rounds.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    pub open_secs: f64,
    pub closed_secs: f64,
}

impl Phases {
    /// The closed loop takes a sixth of the run, the open loop the rest.
    pub fn of(seconds: u64) -> Phases {
        let total = seconds as f64;
        Phases {
            open_secs: total * 5.0 / 6.0,
            closed_secs: total / 6.0,
        }
    }
}

/// The query text of `/search?q=…&limit=…`, percent-encoded so keywords
/// holding spaces or `+` reach the server intact.
pub fn search_target(keywords: &str) -> String {
    if keywords.is_empty() {
        format!("/search?limit={LIMIT}")
    } else {
        format!("/search?q={}&limit={LIMIT}", percent_encode(keywords))
    }
}

/// One search as the client sends it.
#[derive(Debug, Clone)]
pub struct Op {
    /// The keyword line (`q`), before encoding.
    pub keywords: String,
    /// The fragment, printed as DDL, POSTed as the body.
    pub ddl: Option<String>,
    /// The exact request bytes, written in one call.
    pub request: Vec<u8>,
    /// Corpus indices of the relevant schemas (the target's family).
    pub relevant: HashSet<usize>,
}

impl Op {
    fn new(query: &GeneratedQuery) -> Op {
        let keywords = query.keywords.join(" ");
        let ddl = query.fragment.as_ref().map(print_ddl);
        let target = search_target(&keywords);
        let request = match &ddl {
            None => format!("GET {target} HTTP/1.1\r\nHost: schemr\r\n\r\n"),
            Some(body) => format!(
                "POST {target} HTTP/1.1\r\nHost: schemr\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        };
        Op {
            keywords,
            ddl,
            request: request.into_bytes(),
            relevant: query.relevant.iter().copied().collect(),
        }
    }

    /// The in-process request equal to what the server decodes from
    /// [`Op::request`]: the same keyword split and the same fragment parse.
    pub fn reference(&self) -> Result<SearchRequest, schemr_parse::ParseError> {
        let mut request = SearchRequest {
            keywords: parse_keywords(&self.keywords),
            limit: Some(LIMIT),
            ..Default::default()
        };
        if let Some(ddl) = &self.ddl {
            request
                .fragments
                .push(schemr_parse::parse_fragment("fragment", ddl)?);
        }
        Ok(request)
    }
}

/// One repository write.
#[derive(Debug, Clone)]
pub enum Write {
    /// Replace corpus schema `corpus_ix` with a re-perturbed copy.
    Update { corpus_ix: usize, schema: Schema },
    /// Insert a newly generated schema.
    Insert {
        title: String,
        summary: String,
        schema: Schema,
    },
    /// Remove corpus schema `corpus_ix`.
    Delete { corpus_ix: usize },
}

/// One round of a run: an untimed warm-up, an open-loop stretch, then a
/// closed-loop stretch.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Searched once, in-process and untimed, before the round starts:
    /// the pool, so the round measures the warm state. Empty on
    /// `cold_distinct`.
    pub warm: Vec<usize>,
    /// Open-loop request `i` is due `i / rate` after the round starts.
    pub open: Vec<usize>,
    /// The closed-loop sequence, cycled.
    pub closed: Vec<usize>,
}

/// Everything a run sends, generated from the seed before any timing.
pub struct Inputs {
    pub corpus: Corpus,
    /// Distinct searches; rounds index into it.
    pub ops: Vec<Op>,
    pub rounds: Vec<Round>,
    /// The correctness gate's sample.
    pub gate: Vec<usize>,
    /// The writer's schedule (`churn_rw`) or the post-gate write probe.
    pub writes: Vec<Write>,
    /// Generated fragments left out because their DDL does not parse.
    pub unparsable: usize,
}

/// Seeds of the independent generators, derived from the run seed.
const QUERY_SALT: u64 = 0x5157_4552_5953;
const WRITE_SALT: u64 = 0x5752_4954_4553;
const INSERT_SALT: u64 = 0x494e_5345_5254;

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64, seconds: u64) -> Inputs {
        let phases = Phases::of(seconds);
        let corpus = Corpus::generate(&CorpusConfig {
            seed,
            target_size: spec.corpus,
            ..CorpusConfig::default()
        });
        let open_count = (spec.rate * phases.open_secs).round() as usize;
        let (ops, rounds, gate, unparsable) = match spec.pool {
            Some(pool) => {
                // A fresh pool per round, replayed round-robin by both loops.
                let (ops, unparsable) = queries(&corpus, seed, ROUNDS * pool);
                let per_round = open_count / ROUNDS;
                let rounds = (0..ROUNDS)
                    .map(|r| {
                        let ids: Vec<usize> = (r * pool..(r + 1) * pool).collect();
                        Round {
                            open: (0..per_round).map(|i| ids[i % pool]).collect(),
                            closed: ids.clone(),
                            warm: ids,
                        }
                    })
                    .collect();
                // Every other query of every pool: the gate sends each one
                // back to back, and each pays the server's write stall.
                let gate = (0..ROUNDS * pool).step_by(2).collect();
                (ops, rounds, gate, unparsable)
            }
            None => {
                let closed_count = (CLOSED_RATE_CAP * phases.closed_secs).ceil() as usize;
                let (ops, unparsable) = queries(&corpus, seed, open_count + closed_count);
                let step = (open_count / GATE_SAMPLE).max(1);
                let gate = (0..open_count).step_by(step).take(GATE_SAMPLE).collect();
                let round = Round {
                    warm: Vec::new(),
                    open: (0..open_count).collect(),
                    closed: (open_count..open_count + closed_count).collect(),
                };
                (ops, vec![round], gate, unparsable)
            }
        };
        // The writer stops with the searches; warm-ups stretch the run past
        // `seconds`, so it gets a margin of writes to draw on.
        let write_count = if spec.write_rate > 0.0 {
            (spec.write_rate * (seconds + WRITER_MARGIN_SECS) as f64).round() as usize
        } else {
            PROBE_WRITES
        };
        let relevant: HashSet<usize> = ops
            .iter()
            .flat_map(|op| op.relevant.iter().copied())
            .collect();
        let writes = writes(&corpus, &relevant, seed, write_count);
        Inputs {
            corpus,
            ops,
            rounds,
            gate,
            writes,
            unparsable,
        }
    }

    /// The share of open-loop searches whose analyzed terms an earlier
    /// search of the run (warm-ups included) already had.
    pub fn repeat_share(&self) -> f64 {
        let analyzer = Analyzer::for_names();
        let terms = |i: usize| -> Option<Vec<String>> {
            let request = self.ops[i].reference().ok()?;
            let texts = request.query_graph().flat_texts();
            Some(texts.iter().flat_map(|t| analyzer.analyze(t)).collect())
        };
        let mut seen = HashSet::new();
        let (mut timed, mut repeats) = (0usize, 0usize);
        for round in &self.rounds {
            for &i in &round.warm {
                seen.extend(terms(i));
            }
            for &i in &round.open {
                timed += 1;
                repeats += usize::from(terms(i).is_some_and(|t| !seen.insert(t)));
            }
        }
        repeats as f64 / timed.max(1) as f64
    }
}

/// `count` distinct searches over `corpus` in exactly the generator's
/// default mix, interleaved keyword, fragment, keyword, mixed, so every
/// seed offers the same share of each kind. Also returns how many
/// generated fragments were dropped because their DDL does not parse.
fn queries(corpus: &Corpus, seed: u64, count: usize) -> (Vec<Op>, usize) {
    // Fragments and mixed queries are a quarter of the mix each, so three
    // times the need leaves ample spares of every kind.
    let workload = Workload::generate(
        corpus,
        &WorkloadConfig {
            seed: seed ^ QUERY_SALT,
            queries: 3 * count + 8,
            ..WorkloadConfig::default()
        },
    );
    let mut seen = HashSet::new();
    let mut unparsable = 0;
    let mut by_kind: [VecDeque<Op>; 3] = Default::default();
    for query in &workload.queries {
        let op = Op::new(query);
        // `print_ddl` renders an entity without attributes as an empty
        // column list, which no DDL parser accepts; such a fragment
        // cannot be sent as DDL at all.
        if op.reference().is_err() {
            unparsable += 1;
        } else if seen.insert(op.request.clone()) {
            by_kind[query.kind as usize].push_back(op);
        }
    }
    let pattern = [
        QueryKind::Keywords,
        QueryKind::Fragment,
        QueryKind::Keywords,
        QueryKind::Mixed,
    ];
    let ops = (0..count)
        .map(|i| {
            by_kind[pattern[i % pattern.len()] as usize]
                .pop_front()
                .expect("the generator yields enough queries of each kind")
        })
        .collect();
    (ops, unparsable)
}

/// `count` writes in the repeating pattern update, insert, update,
/// delete. Updates and deletes touch only schemas no search counts as
/// relevant, so the ground truth holds throughout; no schema is written
/// after its delete.
fn writes(corpus: &Corpus, relevant: &HashSet<usize>, seed: u64, count: usize) -> Vec<Write> {
    let mut rng = StdRng::seed_from_u64(seed ^ WRITE_SALT);
    let mut targets: Vec<usize> = (0..corpus.len())
        .filter(|i| !relevant.contains(i))
        .collect();
    // Fisher–Yates, so targets spread over the corpus.
    for i in (1..targets.len()).rev() {
        let j = rng.random_range(0..=i);
        targets.swap(i, j);
    }
    let deletes = count.div_ceil(4);
    assert!(
        targets.len() > deletes,
        "corpus too small for {count} writes"
    );
    let (deleted, updatable) = targets.split_at(deletes);
    let inserts = Corpus::generate(&CorpusConfig {
        seed: seed ^ INSERT_SALT,
        target_size: count.div_ceil(4),
        ..CorpusConfig::default()
    });
    let perturber = Perturber::new(PerturbConfig::standard());
    let (mut next_delete, mut next_update, mut next_insert) = (0, 0, 0);
    (0..count)
        .map(|i| match i % 4 {
            1 => {
                let s = &inserts.schemas[next_insert];
                next_insert += 1;
                Write::Insert {
                    title: s.title.clone(),
                    summary: s.summary.clone(),
                    schema: s.schema.clone(),
                }
            }
            3 => {
                next_delete += 1;
                Write::Delete {
                    corpus_ix: deleted[next_delete - 1],
                }
            }
            _ => {
                let corpus_ix = updatable[next_update % updatable.len()];
                next_update += 1;
                Write::Update {
                    corpus_ix,
                    schema: reperturb(&corpus.schemas[corpus_ix].schema, &perturber, &mut rng),
                }
            }
        })
        .collect()
}

/// A copy of `schema` with every element name perturbed again. A draw
/// that fails validation (say, two attributes colliding) is redrawn; after
/// a few failures the schema is written back unchanged.
fn reperturb(schema: &Schema, perturber: &Perturber, rng: &mut StdRng) -> Schema {
    for _ in 0..4 {
        let mut copy = schema.clone();
        let ids: Vec<_> = copy.ids().collect();
        for id in ids {
            let name = perturber.perturb_name(&copy.element(id).name, rng);
            copy.element_mut(id).name = name;
        }
        if schemr_model::validate(&copy).is_empty() {
            return copy;
        }
    }
    schema.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemr_server::http::percent_decode;

    #[test]
    fn targets_encode_spaces_and_plus_so_the_server_decodes_them_back() {
        let line = "patient height a+b c%d";
        let target = search_target(line);
        assert!(!target.contains(' '), "{target}");
        let q = target
            .strip_prefix("/search?q=")
            .and_then(|t| t.split_once('&'))
            .map(|(q, _)| q)
            .unwrap();
        assert_eq!(q, "patient+height+a%2Bb+c%25d");
        assert_eq!(percent_decode(q).unwrap(), line);
        assert_eq!(search_target(""), format!("/search?limit={LIMIT}"));
    }

    #[test]
    fn keywords_holding_a_space_split_like_the_server_splits_them() {
        let op = Op {
            keywords: ["date of", "birth"].join(" "),
            ddl: None,
            request: Vec::new(),
            relevant: HashSet::new(),
        };
        assert_eq!(op.reference().unwrap().keywords, ["date", "of", "birth"]);
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let spec = Spec {
            corpus: 600,
            ..SPECS[2]
        };
        let a = Inputs::generate(&spec, 5, 6);
        let b = Inputs::generate(&spec, 5, 6);
        let c = Inputs::generate(&spec, 6, 6);
        let bytes = |i: &Inputs| i.ops.iter().map(|o| o.request.clone()).collect::<Vec<_>>();
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&c));
        // 10 q/s over 5 of the 6 seconds, in six rounds of 8.
        assert_eq!(a.rounds.len(), ROUNDS);
        assert!(a
            .rounds
            .iter()
            .all(|r| r.open.len() == 8 && r.warm.len() == POOL && r.closed == r.warm));
        assert_eq!(a.repeat_share(), 1.0);
        assert_eq!(a.writes.len(), 144); // 9 writes/s over 6 + 10 seconds
    }

    #[test]
    fn every_generated_request_is_one_the_server_accepts() {
        let spec = Spec {
            corpus: 1_500,
            ..SPECS[1]
        };
        let inputs = Inputs::generate(&spec, 3, 6);
        let distinct: HashSet<_> = inputs.ops.iter().map(|o| &o.request).collect();
        assert_eq!(distinct.len(), inputs.ops.len());
        for op in &inputs.ops {
            let mut reader = std::io::BufReader::new(op.request.as_slice());
            let parsed =
                schemr_server::http::read_request(&mut reader, &Default::default()).unwrap();
            assert_eq!(parsed.param("q").unwrap_or(""), op.keywords);
            assert!(op.reference().is_ok());
        }
        assert_eq!(inputs.repeat_share(), 0.0);
    }

    #[test]
    fn writes_never_touch_relevant_schemas_or_a_deleted_one() {
        let corpus = Corpus::generate(&CorpusConfig {
            seed: 9,
            target_size: 300,
            ..CorpusConfig::default()
        });
        let relevant: HashSet<usize> = (0..100).collect();
        let mut deleted = HashSet::new();
        for w in writes(&corpus, &relevant, 9, 120) {
            match w {
                Write::Update { corpus_ix, .. } => {
                    assert!(!relevant.contains(&corpus_ix) && !deleted.contains(&corpus_ix))
                }
                Write::Delete { corpus_ix } => {
                    assert!(!relevant.contains(&corpus_ix) && deleted.insert(corpus_ix))
                }
                Write::Insert { .. } => {}
            }
        }
        assert_eq!(deleted.len(), 30);
    }
}
