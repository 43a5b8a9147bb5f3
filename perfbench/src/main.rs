//! MobilityDuck benchmark: the BerlinMOD suite, fleet lookups and WAL
//! ingest on both engines, with a traced per-layer split.
//!
//!   cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!       --workload bm-suite --seed 1 --seconds 35 --trace 0
//!
//! Run from the repository root. The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). `--sf` overrides the workload's scale factor (used by
//! the self-test). Scratch files go to `perfbench/.work/`.

mod engine;
mod fixture;
mod layers;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};

use fixture::{Fixture, Kind};
use mduck_bench::json::Json;
use trace::Tracer;
use workload::{end_to_end, measure, Run, END_TO_END};

/// Set-up repetitions before measuring; more follow during the run, and
/// `setup_s` is the median of all of them.
const SETUP_REPS: usize = 3;

/// Environment variables that change what the engines execute.
const PINNED_ENV: [&str; 6] = [
    "MDUCK_QUERY_LOG",
    "MDUCK_THREADS",
    "MDUCK_SLOW_MS",
    "MDUCK_FAILPOINTS",
    "MDUCK_FAILPOINT_SEED",
    "MDUCK_COLD",
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    sf: f64,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut sf = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--sf" => sf = Some(value.parse::<f64>().map_err(|_| bad())?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    let seconds = seconds.unwrap_or(10.0);
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        kind,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        sf: sf.unwrap_or(kind.default_sf()),
    })
}

/// Clear every engine-affecting variable, then fix the thread count.
/// Runs before any engine code reads them (several are read once).
fn pin_environment(threads: usize) -> Json {
    for var in PINNED_ENV {
        std::env::remove_var(var);
    }
    std::env::set_var("MDUCK_THREADS", threads.to_string());
    Json::Obj(
        PINNED_ENV
            .iter()
            .map(|v| (*v, std::env::var(v).map(Json::Str).unwrap_or(Json::Null)))
            .collect(),
    )
}

/// A fingerprint of the program's sources, so runs of two commits can
/// be told apart where no git metadata exists.
fn source_fingerprint(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, files);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut h = engine::FNV_SEED;
    for f in &files {
        h = engine::fnv(f.to_string_lossy().as_bytes(), h);
        h = engine::fnv(&std::fs::read(f).unwrap_or_default(), h);
    }
    format!("{h:016x}")
}

/// The commit named by `.git/HEAD`, when the checkout has one.
fn git_commit(root: &Path) -> Json {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        Json::Null
    } else {
        Json::Str(commit.to_string())
    }
}

fn metrics_json(names: &[(&'static str, &str)], values: &[f64]) -> Json {
    Json::Obj(
        names
            .iter()
            .zip(values)
            .map(|((n, u), v)| {
                (
                    *n,
                    Json::Obj(vec![
                        ("value", Json::Num(*v)),
                        ("unit", Json::Str(u.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

fn run(args: &Args) -> Result<(u64, u64, Json), String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("crates").is_dir() {
        return Err("run from the repository root (no crates/ here)".into());
    }
    // WAL files live in a per-process directory, so concurrent runs
    // (the self-test's) never share one; the trace file stays beside it.
    let scratch = root.join("perfbench").join(".work");
    let work = scratch.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let result = measure_all(args, &root, &scratch, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn measure_all(
    args: &Args,
    root: &Path,
    scratch: &Path,
    work: &Path,
) -> Result<(u64, u64, Json), String> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let env = pin_environment(nproc);
    let mut tracer = Tracer::new(args.trace);
    let fx = Fixture::build(
        args.kind,
        args.sf,
        args.seed,
        nproc,
        SETUP_REPS,
        &mut tracer,
    )?;
    let config = Json::Obj(vec![
        ("workload", Json::Str(args.kind.name().into())),
        ("seed", Json::Int(args.seed as i64)),
        ("sf", Json::Num(args.sf)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Int(nproc as i64)),
        ("vec_threads", Json::Int(nproc as i64)),
        ("env", env),
        (
            "query_log_sink",
            Json::Bool(mduck_obs::query_log_sink_active()),
        ),
        (
            "slow_query_ms",
            Json::Int(mduck_obs::slow_threshold_ms() as i64),
        ),
        ("commit", git_commit(root)),
        ("source_fnv", Json::Str(source_fingerprint(root))),
        ("vehicles", Json::Int(fx.data.vehicles.len() as i64)),
        ("trips", Json::Int(fx.data.trips.len() as i64)),
        ("stream_statements", Json::Int(fx.stream.len() as i64)),
        ("lookup_statements", Json::Int(fx.lookups.len() as i64)),
        (
            "checkpoint",
            Json::Str("explicit, once per durable round after half the trips".into()),
        ),
        ("flush_policy", Json::Str("one fsync per commit".into())),
    ]);
    println!("{}", Json::Obj(vec![("config", config.clone())]).render());

    if !args.trace {
        let mut run = Run::new(nproc, work.to_path_buf(), Tracer::new(false));
        measure(&fx, &mut run, args.seconds);
        let values = end_to_end(&fx, &run, stats::peak_rss_mb());
        return Ok((
            run.attempted,
            run.failed,
            metrics_json(&END_TO_END, &values),
        ));
    }

    // Traced: half the time untraced, half traced, in the order
    // untraced-traced-untraced so a steady drift of the machine cancels
    // out of the overhead; then the layer split.
    let mut plain = Run::new(nproc, work.to_path_buf(), Tracer::new(false));
    let mut traced = Run::new(nproc, work.to_path_buf(), tracer);
    measure(&fx, &mut plain, args.seconds / 4.0);
    measure(&fx, &mut traced, args.seconds / 2.0);
    measure(&fx, &mut plain, args.seconds / 4.0);
    let rss = stats::peak_rss_mb();
    let untraced = end_to_end(&fx, &plain, rss);
    let with_trace = end_to_end(&fx, &traced, rss);
    // Timed metrics only: set-up and memory are shared by both halves.
    let shifts: Vec<f64> = untraced
        .iter()
        .zip(&with_trace)
        .skip(2)
        .filter(|(u, _)| **u > 0.0)
        .map(|(u, t)| (t / u - 1.0) * 100.0)
        .collect();
    let overhead = shifts.iter().sum::<f64>() / shifts.len().max(1) as f64;
    let values = layers::per_layer(&fx, &mut traced, overhead);

    let path = scratch.join(format!(
        "trace-{}-seed{}.jsonl",
        args.kind.name(),
        args.seed
    ));
    let mut out = Json::Obj(vec![("config", config)]).render();
    out.push('\n');
    for (scope, c) in &traced.counters {
        let line = Json::Obj(vec![
            (
                "counters",
                Json::Str(format!("{}/{:?}", scope.0.name(), scope.1)),
            ),
            ("values", c.to_json()),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    for ((n, _), (u, t)) in END_TO_END.iter().zip(untraced.iter().zip(&with_trace)) {
        let line = Json::Obj(vec![
            ("metric", Json::Str(n.to_string())),
            ("untraced", Json::Num(*u)),
            ("traced", Json::Num(*t)),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    out.push_str(&traced.tracer.render());
    std::fs::write(&path, out).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("trace written to {}", path.display());

    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    Ok((attempted, failed, metrics_json(&layers::PER_LAYER, &values)))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload bm-suite|bm-lookup|bm-ingest --seed N --seconds S --trace 0|1 [--sf F]\n{e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((attempted, failed, metrics)) => {
            let result = Json::Obj(vec![
                ("correct", Json::Bool(failed == 0)),
                ("attempted", Json::Int(attempted as i64)),
                ("failed", Json::Int(failed as i64)),
                ("metrics", metrics),
            ]);
            println!("{}", result.render());
        }
        Err(e) => {
            eprintln!("benchmark error: {e}");
            std::process::exit(1);
        }
    }
}
