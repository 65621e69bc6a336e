//! Bench-regression gate: compare freshly emitted `BENCH_*.json` files at
//! the workspace root against the committed `baselines/*.json`, with a
//! per-metric rule set, and fail loudly on any regression.
//!
//! Run after the quick benches have produced fresh outputs:
//! `cargo bench -q -p landau-bench --bench tensor_cache -- --quick`
//! `cargo bench -q -p landau-bench --bench resilience -- --quick`
//! `cargo bench -q -p landau-bench --bench solver -- --quick`
//! `cargo bench -q -p landau-bench --bench kernels -- --quick`
//! `cargo run -q -p landau-check --bin verify-kernels`
//! `cargo run -q --release -p landau-bench --bin bench_gate`
//!
//! Rules (see `rule_for`):
//!   * **exact** — structural invariants that must never drift (step
//!     counts, bitwise flags, byte totals of deterministic structures);
//!   * **reltol** — counts that vary with FP association across machines
//!     (Newton iterations depend on thread count) within a band;
//!   * **ceiling / floor** — absolute bounds on the fresh value, with the
//!     baseline shown for context (overhead fractions, cache speedup);
//!   * **min-ratio** — the fresh value may not fall under a fraction of
//!     the baseline (throughputs whose competitor-free meaning is "no
//!     slower than what was committed", loose enough for another host);
//!   * **zero** — hard gates that must be exactly 0 on the fresh side
//!     (static-verifier violations and corpus misses: any nonzero value
//!     means a kernel defect or a broken verifier);
//!   * **info** — reported but never gating (raw seconds, iters/sec: too
//!     machine-dependent to compare across hosts).
//!
//! A metric present in the baseline but missing from the fresh run — or
//! vice versa — is always a failure: schema drift must be deliberate
//! (regenerate the baseline, see `baselines/README.md`).

use landau_bench::workspace_root;
use landau_obs::json::Json;
use std::collections::BTreeMap;
use std::process::exit;

enum Rule {
    /// Bitwise-equal f64 (both sides round-trip through Rust's shortest
    /// float formatting, so equality is meaningful).
    Exact,
    /// |fresh − base| ≤ tol · |base|.
    RelTol(f64),
    /// fresh < limit, regardless of baseline.
    Ceiling(f64),
    /// fresh ≥ limit, regardless of baseline.
    Floor(f64),
    /// fresh ≥ ratio · base.
    MinRatio(f64),
    /// fresh must be exactly 0, regardless of baseline (hard gates like
    /// verifier violation counts, where any nonzero value is a defect).
    Zero,
    /// Reported only.
    Info,
}

fn rule_for(name: &str) -> Rule {
    match name {
        "steps"
        | "bitwise_identical"
        | "obs_bitwise_identical"
        | "monitor_bitwise_identical"
        | "batch_bitwise_identical"
        | "ckpt_bitwise_identical"
        | "resume_bitwise_identical"
        | "ckpt_frame_bytes"
        | "invariant.violations"
        | "table_bytes"
        | "space_heap_bytes" => Rule::Exact,
        "newton_iters" => Rule::RelTol(0.25),
        // Recovered-attempt counts track Newton behaviour, which shifts
        // with FP association across hosts; the bench itself asserts > 0.
        "retried_attempts" => Rule::RelTol(1.0),
        // The quench step count depends on the quasi-equilibrium detector,
        // which can fire a step early/late across hosts.
        "invariant.steps" => Rule::RelTol(0.25),
        // The span/metric recording, the conservation monitor and the
        // per-step checkpoint writer must each cost under 2% on the
        // guarded solve (min-of-N ABAB measurements).
        "obs_overhead_frac" | "monitor_overhead_frac" | "ckpt_overhead_frac" => Rule::Ceiling(0.02),
        // Any byte flip slipping past the frame checksums is a durability
        // defect — the corruption matrix gates at exactly zero.
        "ckpt_silent_restores" => Rule::Zero,
        // Raw write latency is machine-dependent.
        "ckpt_write_ms" => Rule::Info,
        // Physics telemetry acceptance: accounted mass/momentum/energy
        // drift through the monitored quick quench stays at roundoff.
        n if n.starts_with("invariant.") && n.ends_with(".drift_max") => Rule::Ceiling(1e-10),
        // Entropy production (σ, source flux accounted) is asserted
        // non-negative inside the bench; its magnitude is informational.
        "invariant.entropy.production_drop_max" | "entropy_production_min" => Rule::Info,
        // The static kernel verifier: no proof violation and no missed
        // corpus defect, ever — these gate at exactly zero.
        "verify.violations" | "verify.corpus_missed" => Rule::Zero,
        "overhead_frac" => Rule::Ceiling(0.25),
        // -- landau-serve load test (BENCH_serve.json) ------------------
        // Structural: the quick load test always runs the same flood, and
        // every job must complete; the kill–resume probe must be bitwise.
        "serve.jobs_total" | "serve.jobs_completed" | "serve.tenants" => Rule::Exact,
        "serve.resume_bitwise_identical" => Rule::Floor(1.0),
        // Latency, throughput, scrape time and journal cost are judged on
        // every PR by the repository benchmark against A/A-derived bounds,
        // not here: `serve_flood`'s `e2e_ms_p50`/`e2e_ms_p95` and
        // `first_record_ms_p50` (latencies), `jobs_per_sec` (throughput,
        // and the journal under real event volume: it is the one workload
        // that runs it, with `obs.journal.drain_ms` per layer) and
        // `serve.scrape_ms_p50`. The absolute bounds these five used to
        // carry sat 50–400 000× from anything the code reaches.
        "serve.p50_submit_to_first_ms"
        | "serve.p50_e2e_ms"
        | "serve.p99_submit_to_first_ms"
        | "serve.p99_e2e_ms"
        | "serve.throughput_jobs_per_sec"
        | "serve.scrape_p99_ms"
        | "obs.journal_overhead_frac" => Rule::Info,
        // Equal quotas and identical job mixes must spread slices evenly;
        // the measured spread is 0.00 and anything above 0.5 means the
        // fair scheduler is not doing its job.
        "serve.fairness_spread" => Rule::Ceiling(0.5),
        // Rejection volume depends on arrival timing — informational.
        "serve.rejected_jobs" => Rule::Info,
        // Retention: the flood drops each handle once its job is terminal,
        // so the job table and the per-job span trees may hold the 24-deep
        // admission window plus the two workers' jobs between `finish` and
        // task exit — never one entry per job ever served (200 here).
        "serve.jobs_retained" | "obs.traced_jobs" => Rule::Ceiling(27.0),
        // -- live telemetry plane (BENCH_obs_live.json) -----------------
        // Journal publishing must be pure observation: the enabled and
        // disabled arms land on the same bits, and every scrape under
        // load parses as OpenMetrics.
        "obs.journal_bitwise_identical" | "obs.scrape_valid" => Rule::Floor(1.0),
        // Event volume tracks checkpoint cadence, which shifts with the
        // quick/full shape — informational.
        "obs.journal_events_published" => Rule::Info,
        // The tensor cache against the closed form, on whole Newton
        // iterations of the §V problem, best of five interleaved runs per
        // arm: 2.0–2.1× measured (the kernel alone is 4×; the band LU both
        // arms share is most of a cached iteration). It read 9.65× while
        // the closed form's AGM never converged early; 1.4 is where the
        // table has lost half of what it buys.
        "speedup" => Rule::Floor(1.4),
        // Batch throughput (the pool sweep) holds against its own
        // committed baseline.
        // Its ratio to the host loop (`speedup_256/1024`) falls through to
        // info: the host loop is the bitwise oracle, and it gets faster
        // whenever the solo path does.
        n if n.starts_with("newton_per_sec_pool_") => Rule::MinRatio(0.6),
        // -- direct solver (BENCH_solver.json) --------------------------
        // The envelope LU leaves the scalar reference's bits and beats it
        // by a ratio measured on one matrix in one process (min-of-N over
        // min-of-N); the milliseconds behind the ratio are informational.
        "band_factor_bitwise" => Rule::Exact,
        "band_factor_speedup_vs_reference" => Rule::Floor(4.0),
        // -- cached CPU inner integral (BENCH_kernels.json) --------------
        // Five streams and one staging pass leave the bits of the
        // seven-stream, stage-per-tile kernel (`landau_testkit::oracle`)
        // and beat it by a ratio taken the same way, on the §V problem.
        "cached_cpu_bitwise" => Rule::Exact,
        "cached_cpu_speedup_vs_reference" => Rule::Floor(2.5),
        // The closed-form CPU kernel (tiles evaluated in lockstep, species
        // sums staged once) against the scalar per-pair reference, same
        // problem, same way: 3.2× measured, and the same numbers.
        "closed_form_cpu_speedup_vs_reference" => Rule::Floor(2.0),
        "closed_form_cpu_rel_diff" => Rule::Ceiling(1e-13),
        // The Jacobian tail (element matrices + atomic scatter) as the pair
        // `A_K`, `A_D` against the per-species tail of
        // `landau_testkit::oracle`, same problem, interleaved min-of-N:
        // 7.4e-16 apart and 5.9× measured.
        "jacobian_tail_rel_diff" => Rule::Ceiling(1e-14),
        "jacobian_tail_speedup_vs_reference" => Rule::Floor(3.0),
        n if n.starts_with("verify_rel_diff_") => Rule::Ceiling(1e-13),
        _ => Rule::Info,
    }
}

fn load(path: &std::path::Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: {e} (run the quick benches first?)", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let obj = doc
        .as_obj()
        .ok_or_else(|| format!("{}: top level is not an object", path.display()))?;
    let mut out = BTreeMap::new();
    for (k, v) in obj {
        let num = v
            .as_f64()
            .ok_or_else(|| format!("{}: metric {k} is not a number", path.display()))?;
        out.insert(k.clone(), num);
    }
    Ok(out)
}

/// Compare one baseline/fresh pair; returns the number of failures.
fn compare(name: &str, base: &BTreeMap<String, f64>, fresh: &BTreeMap<String, f64>) -> usize {
    println!("\n== {name}");
    println!(
        "{:<28} {:>14} {:>14} {:>9}  verdict",
        "metric", "baseline", "fresh", "Δ%"
    );
    let mut failures = 0;
    let keys: std::collections::BTreeSet<&String> = base.keys().chain(fresh.keys()).collect();
    for key in keys {
        let (b, f) = (base.get(key.as_str()), fresh.get(key.as_str()));
        let (b, f) = match (b, f) {
            (Some(&b), Some(&f)) => (b, f),
            (Some(&b), None) => {
                println!(
                    "{key:<28} {b:>14.6e} {:>14} {:>9}  FAIL missing from fresh run",
                    "-", "-"
                );
                failures += 1;
                continue;
            }
            (None, Some(&f)) => {
                println!(
                    "{key:<28} {:>14} {f:>14.6e} {:>9}  FAIL not in baseline",
                    "-", "-"
                );
                failures += 1;
                continue;
            }
            (None, None) => unreachable!(),
        };
        let delta_pct = if b != 0.0 {
            format!("{:+.1}", 100.0 * (f - b) / b.abs())
        } else {
            "-".to_string()
        };
        let (ok, verdict) = match rule_for(key) {
            Rule::Exact => (f == b, "exact".to_string()),
            Rule::RelTol(tol) => ((f - b).abs() <= tol * b.abs(), format!("reltol {tol:.2}")),
            Rule::Ceiling(lim) => (f < lim, format!("< {lim:e}")),
            Rule::Floor(lim) => (f >= lim, format!(">= {lim}")),
            Rule::MinRatio(r) => (f >= r * b, format!(">= {r} x baseline")),
            Rule::Zero => (f == 0.0, "exactly 0".to_string()),
            Rule::Info => (true, "info".to_string()),
        };
        println!(
            "{key:<28} {b:>14.6e} {f:>14.6e} {delta_pct:>9}  {}{verdict}",
            if ok { "" } else { "FAIL " }
        );
        if !ok {
            failures += 1;
        }
    }
    failures
}

fn main() {
    let root = workspace_root();
    let pairs = [
        ("BENCH_resilience.json", "resilience"),
        ("BENCH_tensor_cache.json", "tensor_cache"),
        ("BENCH_invariants.json", "invariants"),
        ("BENCH_verify.json", "verify"),
        ("BENCH_batch_scaling.json", "batch_scaling"),
        ("BENCH_solver.json", "solver"),
        ("BENCH_kernels.json", "kernels"),
        ("BENCH_serve.json", "serve"),
        ("BENCH_obs_live.json", "obs_live"),
    ];
    let mut failures = 0;
    for (file, name) in pairs {
        let base = match load(&root.join("baselines").join(file)) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("bench_gate: baseline error: {e}");
                exit(2);
            }
        };
        let fresh = match load(&root.join(file)) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("bench_gate: {e}");
                exit(2);
            }
        };
        failures += compare(name, &base, &fresh);
    }
    if failures > 0 {
        eprintln!("\nbench_gate: {failures} metric(s) FAILED against baselines/");
        eprintln!("If the change is intentional, regenerate: see baselines/README.md");
        exit(1);
    }
    println!("\nbench_gate: all metrics within tolerance");
}
