//! The repository benchmark.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one workload, in this process
//! benchmark run [--seed N] [--seconds S] [--workload W] [--traced] [--out DIR]
//! benchmark aa [N] [--seed N] [--seconds S]
//! benchmark list
//! ```
//!
//! The first form is what `BENCHMARK.json`'s `command` ends in: it runs
//! one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `run` starts that form
//! once per workload as a child process (the `landau-par` pool size is
//! fixed per process and peak RSS is per process) and writes
//! `results.json`; `aa` repeats `run` and reports the spread.

mod replay;
mod run;
mod spec;
mod trace;
mod util;
mod workloads;

use landau_obs::json::Json;
use run::{Ctx, RunCfg};
use spec::{END_TO_END, WORKLOADS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// The reference box has two cores; the pool is pinned to both.
const PAR_THREADS: &str = "2";
const DEFAULT_SEED: u64 = workloads::quench::DEFAULT_SEED;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR]\n  \
         benchmark run [--seed N] [--seconds S] [--workload W] [--traced] [--out DIR]\n  \
         benchmark aa [N] [--seed N] [--seconds S] [--out DIR]\n  benchmark list\n\
         workloads: {}",
        spec::workload_names().join(", ")
    );
    ExitCode::from(2)
}

/// `--name value` pairs and bare words of a command line.
struct Args {
    flags: BTreeMap<String, String>,
    words: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Option<Args> {
        let mut out = Args {
            flags: BTreeMap::new(),
            words: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some("traced") => {
                    out.flags.insert("traced".into(), "1".into());
                }
                Some(name) => {
                    out.flags.insert(name.into(), it.next()?.clone());
                }
                None => out.words.push(a.clone()),
            }
        }
        Some(out)
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Option<T> {
        match self.flags.get(name) {
            Some(v) => v.parse().ok(),
            None => Some(default),
        }
    }

    fn out_dir(&self) -> PathBuf {
        self.flags
            .get("out")
            .map_or_else(|| manifest_dir().join("out"), PathBuf::from)
    }
}

fn default_seconds() -> f64 {
    benchmark_json()
        .and_then(|j| j.get("run_seconds")?.as_f64())
        .unwrap_or(30.0)
}

fn benchmark_json() -> Option<Json> {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json")).ok()?;
    Json::parse(&text).ok()
}

/// One workload in this process: the form the driver calls.
fn run_one(args: &Args) -> ExitCode {
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        args.flags.get("workload"),
        args.get("seed", DEFAULT_SEED),
        args.get("seconds", default_seconds()),
        args.get("trace", 0u8),
    ) else {
        return usage();
    };
    if !spec::workload_names().contains(&workload.as_str()) || seconds <= 0.0 || trace > 1 {
        return usage();
    }
    let cfg = RunCfg {
        workload: workload.clone(),
        seed,
        seconds,
        traced: trace == 1,
        out_dir: args.out_dir(),
    };
    println!(
        "{workload}: seed {seed}, {seconds} s, trace {trace}, {} pool threads, {} cores, landau_obs::recording() = {}",
        landau_par::current_num_threads(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        landau_obs::recording(),
    );
    let mut ctx = Ctx::new(cfg);
    workloads::run(&mut ctx);
    if ctx.cfg.traced {
        let path = ctx.cfg.out_dir.join(format!("trace_{workload}.json"));
        let written = std::fs::create_dir_all(&ctx.cfg.out_dir)
            .and_then(|()| std::fs::write(&path, ctx.tr.chrome_trace(workload)));
        match written {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        println!("{:<44} {:>12} {:>8}", "span", "self ms", "count");
        for (name, ms, count) in ctx.tr.self_ms_by_name() {
            println!("{name:<44} {ms:>12.3} {count:>8}");
        }
    }
    let (line, correct) = run::finish(&mut ctx);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The metrics one child run reported, and whether it passed its checks.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &Path,
) -> Option<ChildResult> {
    let exe = std::env::current_exe().ok()?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop()?;
    for l in lines {
        println!("  {l}");
    }
    let json = Json::parse(last).ok()?;
    let metrics = json
        .get("metrics")?
        .as_obj()?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Some(ChildResult {
        correct: json.get("correct") == Some(&Json::Bool(true)) && output.status.success(),
        attempted: json.get("attempted")?.as_u64()?,
        failed: json.get("failed")?.as_u64()?,
        metrics,
    })
}

/// Facts about where the numbers were taken.
fn env_block(seed: u64, seconds: f64) -> Json {
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let commit = util::git_commit(&manifest_dir().join(".."));
    let num = |v: f64| Json::Num(v);
    Json::Obj(vec![
        (
            "nproc".into(),
            num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        (
            "par_threads".into(),
            num(landau_par::current_num_threads() as f64),
        ),
        (
            "serve_workers".into(),
            num(workloads::serve::WORKERS as f64),
        ),
        ("rustc".into(), Json::Str(rustc)),
        ("git_commit".into(), commit.map_or(Json::Null, Json::Str)),
        (
            "landau_obs_recording".into(),
            Json::Bool(landau_obs::recording()),
        ),
        (
            "llc_bytes".into(),
            util::llc_bytes().map_or(Json::Null, |b| num(b as f64)),
        ),
        ("seed".into(), num(seed as f64)),
        ("run_seconds".into(), num(seconds)),
    ])
}

/// Metric values by (workload, metric).
type SetValues = BTreeMap<(String, String), f64>;

/// Every selected workload once, each in its own process. Returns the
/// metrics and whether every run was correct.
fn run_set(args: &Args, seed: u64, traced: bool) -> Option<(SetValues, bool)> {
    let seconds = args.get("seconds", default_seconds())?;
    let out = args.out_dir();
    let only = args.flags.get("workload");
    let mut all = BTreeMap::new();
    let mut correct = true;
    let mut per_workload = Vec::new();
    for (workload, _) in WORKLOADS {
        if only.is_some_and(|w| w != workload) {
            continue;
        }
        let mut fields = Vec::new();
        for pass in [false, true] {
            if pass && !traced {
                continue;
            }
            println!(
                "== {workload} ({})",
                if pass { "traced" } else { "end to end" }
            );
            let Some(r) = run_child(workload, seed, seconds, pass, &out) else {
                eprintln!("{workload}: the run printed no result");
                return None;
            };
            correct &= r.correct;
            println!(
                "   correct {}, attempted {}, failed {}",
                r.correct, r.attempted, r.failed
            );
            fields.push((
                if pass { "per_layer" } else { "end_to_end" }.to_string(),
                Json::Obj(
                    r.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ));
            fields.push((
                if pass { "traced_failed" } else { "failed" }.to_string(),
                Json::Num(r.failed as f64),
            ));
            for (k, v) in r.metrics {
                all.insert((workload.to_string(), k), v);
            }
        }
        per_workload.push((workload.to_string(), Json::Obj(fields)));
    }
    let doc = Json::Obj(vec![
        ("env".into(), env_block(seed, seconds)),
        ("workloads".into(), Json::Obj(per_workload)),
    ]);
    let path = out.join("results.json");
    if let Err(e) =
        std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&path, doc.to_text()))
    {
        eprintln!("could not write {}: {e}", path.display());
        return None;
    }
    println!("wrote {}", path.display());
    Some((all, correct))
}

fn cmd_run(args: &Args) -> ExitCode {
    let Some(seed) = args.get("seed", DEFAULT_SEED) else {
        return usage();
    };
    match run_set(args, seed, args.flags.contains_key("traced")) {
        Some((_, true)) => ExitCode::SUCCESS,
        Some((_, false)) => ExitCode::FAILURE,
        None => ExitCode::from(2),
    }
}

/// Spread of one metric's values over the sets: the distance between the
/// first and third quartile as a share of the median from four sets on,
/// the range as a share of the median below that.
fn spread(values: &[f64]) -> f64 {
    let med = util::median(values);
    let width = if values.len() >= 4 {
        let q = util::quartiles(values);
        q[2] - q[0]
    } else {
        values.iter().cloned().fold(f64::MIN, f64::max)
            - values.iter().cloned().fold(f64::MAX, f64::min)
    };
    width / med.abs()
}

/// A/A: the whole set N times on this build, each time on another seed,
/// as the driver does; fails if an end-to-end spread exceeds its bound.
fn cmd_aa(args: &Args) -> ExitCode {
    let sets = match args.words.get(1) {
        Some(w) => match w.parse::<usize>() {
            Ok(n) if n >= 2 => n,
            _ => return usage(),
        },
        None => 2,
    };
    let Some(seed) = args.get("seed", DEFAULT_SEED) else {
        return usage();
    };
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for k in 0..sets {
        println!("==== A/A set {} of {sets}, seed {}", k + 1, seed + k as u64);
        let Some((set, correct)) = run_set(args, seed + k as u64, false) else {
            return ExitCode::from(2);
        };
        ok &= correct;
        for (key, v) in set {
            values.entry(key).or_default().push(v);
        }
    }
    println!(
        "\n{:<16} {:<22} {:>14} {:>9} {:>7}",
        "workload", "metric", "median", "spread", "bound"
    );
    for ((workload, metric), vs) in &values {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == metric)
            .and_then(|m| m.bound)
            .expect("end-to-end metrics have bounds");
        let s = spread(vs);
        // The driver does not hold set-up time to its spread.
        let over = s > bound && metric != "setup_s";
        ok &= !over;
        println!(
            "{workload:<16} {metric:<22} {:>14.6} {:>8.2}% {:>6.0}%{}",
            util::median(vs),
            s * 100.0,
            bound * 100.0,
            if over { "  OVER" } else { "" }
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("benchmark: refusing to measure a build with debug assertions; use --release");
        return ExitCode::from(2);
    }
    // Before the first `landau-par` call, which fixes the pool size.
    std::env::set_var("LANDAU_PAR_THREADS", PAR_THREADS);
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = Args::parse(&raw) else {
        return usage();
    };
    match args.words.first().map(String::as_str) {
        None if args.flags.contains_key("workload") => run_one(&args),
        Some("run") => cmd_run(&args),
        Some("aa") => cmd_aa(&args),
        Some("list") => {
            print!("{}", spec::list_text());
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec::{MetricDef, PER_LAYER};

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics have bounds");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest));
    }

    /// `BENCHMARK.json` and `-- list` name the same things, both ways.
    #[test]
    fn benchmark_json_matches_the_list() {
        let json = benchmark_json().expect("BENCHMARK.json at the repository root parses");
        let listed: Vec<String> = spec::list_text().lines().map(str::to_string).collect();
        let mut from_json = Vec::new();
        for w in json.get("workloads").unwrap().as_arr().unwrap() {
            let name = w.get("name").unwrap().as_str().unwrap();
            from_json.push(format!("workload {name}"));
            let why = WORKLOADS.iter().find(|(n, _)| *n == name).map(|(_, w)| *w);
            assert_eq!(w.get("why").unwrap().as_str(), why, "{name}: why");
        }
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            for m in json.get(key).unwrap().as_arr().unwrap() {
                let name = m.get("name").unwrap().as_str().unwrap();
                let unit = m.get("unit").unwrap().as_str().unwrap();
                let better = m.get("better").unwrap().as_str().unwrap();
                from_json.push(format!("{key} {name} {unit} {better}"));
                let def: &MetricDef = defs
                    .iter()
                    .find(|d| d.name == name)
                    .unwrap_or_else(|| panic!("{name} is not in the harness"));
                assert_eq!(m.get("bound").and_then(Json::as_f64), def.bound, "{name}");
            }
        }
        assert_eq!(from_json, listed);
        assert_eq!(json.get("paths").unwrap().as_arr().unwrap().len(), 1);
        let seconds = json.get("run_seconds").unwrap().as_u64().unwrap();
        assert!((1..=60).contains(&seconds));
    }

    #[test]
    fn same_seed_gives_the_same_jobs_and_scales() {
        use workloads::serve::{job_list, VARIANTS};
        let a = job_list(42, 3 * VARIANTS);
        assert_eq!(
            format!("{a:?}"),
            format!("{:?}", job_list(42, 3 * VARIANTS))
        );
        assert_ne!(a, job_list(7, 3 * VARIANTS));
        // Every block of nine holds every variant once, so the work in a
        // window does not depend on the seed.
        for tenant in &a {
            for block in tenant.chunks(VARIANTS) {
                let mut sorted = block.to_vec();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..VARIANTS).collect::<Vec<_>>());
            }
        }
        let bits = |s: u64| -> Vec<u64> {
            util::density_scales(s, 10)
                .iter()
                .map(|x| x.to_bits())
                .collect()
        };
        assert_eq!(bits(42), bits(42));
    }

    #[test]
    fn spread_is_iqr_over_median_from_four_sets_on() {
        assert_eq!(spread(&[9.0, 11.0]), 0.2);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), 1.0);
    }
}
