//! Seeded benchmark of the Schemr search service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot_repeat --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` runs the workload end to end over HTTP against the server
//! in its `schemr-cli serve` configuration and prints the end-to-end
//! metrics; `--trace 1` replays the same inputs through each layer and
//! prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The exit code is nonzero when any operation failed or a ranking
//! differed from the in-process reference.

mod alloc;
mod client;
mod run;
mod stats;
mod traced;
mod workload;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use stats::{ms, Summary};
use workload::{Inputs, Spec, DEFAULT_SECONDS, DEFAULT_SEED, SPECS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Generator lateness (tail, ms) above which a run is flagged: the load
/// generator, not the server, delayed requests while a connection was free.
const LATE_FLAG_MS: f64 = 5.0;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) =
        (None, DEFAULT_SEED, DEFAULT_SECONDS, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = number(&value)?,
            "--seconds" => seconds = number(&value)?.max(1),
            "--trace" => trace = number(&value)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    let workload = workload.ok_or_else(|| format!("--workload is required: one of {names:?}"))?;
    let spec = workload::spec(&workload)
        .ok_or_else(|| format!("unknown workload {workload}: one of {names:?}"))?;
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
    })
}

/// A metric on the way out: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Print each metric on its own line, the run record, and the closing
/// JSON object.
fn report(record: &str, metrics: &[Metric], attempted: u64, failed: u64) {
    println!("run {{{record}}}");
    for (name, value, unit) in metrics {
        println!("metric {name} {value} {unit}");
    }
    let mut json = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        failed == 0
    );
}

/// FNV-1a over the sources the benchmark builds, for runs made outside a
/// git checkout: two runs with the same digest ran the same code.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "shims", "perfbench/src"] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for b in file.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// First line of a command's output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run record's fields, as the inside of a JSON object.
fn run_record(args: &Args, inputs: &Inputs) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"commit\": \"{}\", \"source_digest\": \"{}\", \"rustc\": \"{}\", \"corpus\": {}, \"rate_qps\": {}, \"conns\": {}, \"write_rate\": {}, \"loadgen.repeat_share\": {}, \"unparsable_fragments\": {}",
        args.spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        command_line("git", &["rev-parse", "HEAD"]),
        source_digest(),
        command_line("rustc", &["--version"]),
        inputs.corpus.len(),
        args.spec.rate,
        args.spec.conns,
        args.spec.write_rate,
        inputs.repeat_share(),
        inputs.unparsable,
    )
}

/// `, "steal_share": …` since `start`, for the run record.
fn steal_share(start: (u64, u64)) -> String {
    let (steal, total) = stats::steal_ticks();
    let share = (steal - start.0) as f64 / (total - start.1).max(1) as f64;
    format!(", \"steal_share\": {share}")
}

fn end_to_end(args: &Args, inputs: Inputs, steal: (u64, u64)) -> std::io::Result<bool> {
    let record = run_record(args, &inputs);
    let e = run::end_to_end(&args.spec, inputs, args.seconds)?;
    let rss = stats::peak_rss_mib();

    let setup = Summary::of(e.setups.iter().map(Duration::as_secs_f64)).expect("set-up ran");
    let good: Vec<f64> = e
        .open
        .sent
        .iter()
        .filter(|s| s.ids.is_some())
        .map(|s| ms(s.latency()))
        .collect();
    let open_failed = (e.open.sent.len() - good.len()) as u64;
    let search = Summary::of(good);
    let write = Summary::of(e.writes.durations.iter().map(|d| ms(*d)));
    let lateness = Summary::of(e.open.sent.iter().map(|s| ms(s.generator_lateness())));
    let closed = &e.closed;

    let attempted = e.open.sent.len() as u64
        + closed.completed
        + closed.failed
        + e.writes.durations.len() as u64
        + e.writes.failed
        + e.gate.checked;
    let failed = open_failed + closed.failed + e.writes.failed + e.gate.failed;

    let mut metrics: Vec<Metric> = vec![("setup_s", setup.p50, "s")];
    if let Some(s) = search {
        metrics.push(("search_p50_ms", s.p50, "ms"));
    }
    if closed.completed > 0 {
        metrics.push((
            "search_qps",
            closed.completed as f64 / closed.elapsed.as_secs_f64(),
            "1/s",
        ));
        metrics.push((
            "cpu_ms_per_search",
            ms(closed.cpu) / closed.completed as f64,
            "ms",
        ));
    }
    metrics.push(("rss_mb", rss, "MiB"));
    if e.quality.queries > 0 {
        metrics.push(("mrr", e.quality.mrr, "ratio"));
        metrics.push(("p_at_10", e.quality.p_at_10, "ratio"));
    }

    // Tails and write latency are reported here rather than as metrics:
    // on a shared 2-core host a spell of stolen CPU moves them across
    // seeds by more than any bound a later change could be held to.
    let percentile = |s: Option<Summary>| {
        s.map_or("null".to_string(), |s| {
            format!("\"p{}\"", s.tail.percentile)
        })
    };
    let tail_ms = |s: Option<Summary>| s.map_or("null".to_string(), |s| s.tail.value.to_string());
    let supported = |s: Option<Summary>| s.is_none_or(|s| s.tail.supported);
    let late_tail = lateness.map_or(0.0, |l| l.tail.value);
    let extra = format!(
        ", \"failed_frac\": {}, \"search_samples\": {}, \"search_tail\": {}, \"search_tail_ms\": {}, \"write_samples\": {}, \"write_p50_ms\": {}, \"write_tail\": {}, \"write_tail_ms\": {}, \"tails_supported\": {}, \"reconnects_per_1k\": {}, \"gate_checked\": {}, \"gate_failed\": {}, \"quality_queries\": {}, \"setup_samples_s\": {:?}, \"loadgen.late_tail_ms\": {late_tail}, \"generator_fell_behind\": {}",
        failed as f64 / attempted.max(1) as f64,
        search.map_or(0, |s| s.n),
        percentile(search),
        tail_ms(search),
        write.map_or(0, |s| s.n),
        write.map_or("null".to_string(), |s| s.p50.to_string()),
        percentile(write),
        tail_ms(write),
        supported(search) && supported(write),
        e.open.reconnects as f64 * 1000.0 / e.open.sent.len().max(1) as f64,
        e.gate.checked,
        e.gate.failed,
        e.quality.queries,
        e.setups.iter().map(Duration::as_secs_f64).collect::<Vec<_>>(),
        late_tail > LATE_FLAG_MS,
    );
    if late_tail > LATE_FLAG_MS {
        println!("flag: the load generator ran {late_tail:.2} ms behind schedule (tail) while a connection was free");
    }
    let record = format!("{record}{extra}{}", steal_share(steal));
    report(&record, &metrics, attempted, failed);
    Ok(failed == 0)
}

fn trace(args: &Args, inputs: Inputs, steal: (u64, u64)) -> std::io::Result<bool> {
    let record = run_record(args, &inputs);
    let t = traced::traced(&args.spec, inputs)?;
    let metrics: Vec<Metric> = t
        .readings
        .iter()
        .filter_map(|r| r.value.map(|v| (r.name, v, r.unit)))
        .collect();
    for r in t.readings.iter().filter(|r| r.value.is_none()) {
        println!("absent {}", r.name);
    }
    let record = format!("{record}{}", steal_share(steal));
    report(&record, &metrics, t.attempted, t.failed);
    Ok(t.failed == 0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::generate(&args.spec, args.seed, args.seconds);
    let steal = stats::steal_ticks();
    let outcome = if args.trace {
        trace(&args, inputs, steal)
    } else {
        end_to_end(&args, inputs, steal)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
