//! Recovery-overhead benchmark on the §V performance problem (Table II's
//! 80-element Q3 mesh, 10 species).
//!
//! Four gates:
//!   1. *Bitwise* — the guarded paths (`try_step` with `FaultPlan::none()`
//!      armed, and the full `AdaptiveStepper` fast path) must produce
//!      bit-for-bit the same states as the plain `step`: the resilience
//!      machinery costs nothing in arithmetic.
//!   2. *Timing* — fault-free guarded stepping must stay within a few
//!      percent of the plain path (the disarmed fault poll is one atomic
//!      load per assemble; the recovery wrapper adds one branch per step).
//!   3. *Recovery* — a seeded transient NaN burst must be survived, and
//!      its cost (extra attempts) is reported.
//!   4. *Observability* — span/metric recording must leave the state
//!      bitwise unchanged, and its time cost (`obs_overhead_frac`,
//!      min-of-5 ABAB interleave against recording-off runs) is reported
//!      for the bench_gate's <2% ceiling.
//!   5. *Invariant monitoring* — a Record-mode [`ConservationMonitor`]
//!      must also leave the state bitwise unchanged (it only *reads*
//!      moments, residual and entropy), and its cost
//!      (`monitor_overhead_frac`, same ABAB min-of-5 protocol) sits
//!      under the same 2% ceiling.
//!   6. *Checkpointing* — a batched advance checkpointing every macro
//!      step must stay bitwise identical to one that never does, with
//!      write cost (`ckpt_overhead_frac`, ABAB min-of-3) under 2%.
//!   7. *Kill–resume* — a run killed mid-way and resumed from its last
//!      checkpoint must land bitwise on the uninterrupted trajectory.
//!   8. *Corruption matrix* — flipping any byte of a checkpoint frame
//!      must be detected at decode; `ckpt_silent_restores` gates at 0.
//!
//! Plain timing harness (`harness = false`):
//! `cargo bench -p landau-bench --bench resilience -- --quick`.
//! Results land in `BENCH_resilience.json` at the workspace root.

use landau_bench::{perf_operator, write_bench_json};
use landau_core::ckpt::{decode_frame, encode_frame};
use landau_core::fault_sites::SITE_LANDAU_JACOBIAN;
use landau_core::operator::{AssemblyPath, Backend};
use landau_core::solver::{ThetaMethod, TimeIntegrator};
use landau_core::{
    AdaptiveStepper, BatchedAdvance, CheckpointPolicy, ConservationMonitor, FaultKind, FaultPlan,
    MemStorage, Watchdog,
};
use landau_obs::MetricRegistry;
use std::sync::Arc;
use std::time::Instant;

fn make_ti() -> TimeIntegrator {
    let mut op = perf_operator(80, Backend::Cpu);
    // The bitwise gates compare two runs of one trajectory. Atomic assembly
    // adds element matrices in thread order, so on a pool of more than one
    // thread two such runs differ in the last bits whatever is being gated;
    // the colored scatter adds in a fixed order on any pool.
    op.assembly = AssemblyPath::Colored;
    let mut ti = TimeIntegrator::new(op, ThetaMethod::BackwardEuler);
    ti.rtol = 1e-6;
    ti
}

/// Advance `steps` plain steps; returns (final state, iters, seconds).
fn run_plain(steps: usize, dt: f64) -> (Vec<f64>, usize, f64) {
    let mut ti = make_ti();
    let mut state = ti.op.initial_state();
    let t0 = Instant::now();
    let mut iters = 0;
    for _ in 0..steps {
        iters += ti.step(&mut state, dt, 0.0, None).newton_iters;
    }
    (state, iters, t0.elapsed().as_secs_f64())
}

/// Same run through the recovery wrapper with an empty plan armed.
fn run_guarded(steps: usize, dt: f64) -> (Vec<f64>, usize, f64) {
    let ti = make_ti();
    let mut stepper = AdaptiveStepper::new(ti);
    stepper.ti.op.device.arm_faults(FaultPlan::none());
    let mut state = stepper.ti.op.initial_state();
    let t0 = Instant::now();
    let mut iters = 0;
    for _ in 0..steps {
        let (st, rec) = stepper
            .advance(&mut state, dt, 0.0, None)
            .expect("fault-free run must not fail");
        assert_eq!(rec.retried, 0, "fault-free run must not retry");
        iters += st.newton_iters;
    }
    (state, iters, t0.elapsed().as_secs_f64())
}

/// Guarded run with a Record-mode conservation monitor installed
/// (private registry, so repeated runs don't accumulate globally).
fn run_monitored(steps: usize, dt: f64) -> (Vec<f64>, usize, f64) {
    let mut ti = make_ti();
    let mon = ConservationMonitor::new(&ti.op, Watchdog::recording())
        .with_registry(Arc::new(MetricRegistry::new()));
    ti.monitor = Some(mon);
    let mut stepper = AdaptiveStepper::new(ti);
    stepper.ti.op.device.arm_faults(FaultPlan::none());
    let mut state = stepper.ti.op.initial_state();
    let t0 = Instant::now();
    let mut iters = 0;
    for _ in 0..steps {
        let (st, rec) = stepper
            .advance(&mut state, dt, 0.0, None)
            .expect("monitored fault-free run must not fail");
        assert_eq!(rec.retried, 0, "monitored fault-free run must not retry");
        iters += st.newton_iters;
    }
    (state, iters, t0.elapsed().as_secs_f64())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let steps = if quick { 2 } else { 6 };
    // Gates 4 and 5 resolve a sub-2 % difference between two arms, and an
    // arm of `steps` steps is 0.23 s since the closed-form kernel's AGM
    // stops on convergence (it was 4.5 s), where ±5 ms of scheduling is
    // the whole ceiling: run them four times as long and take the min of
    // five, which is what it takes to read 2 % here (17 runs at min of
    // three put the monitor over it three times, 10 at five read ±1.1 %).
    let overhead_steps = 4 * steps;
    let dt = 0.5;

    // Warm-up pass so neither timed path pays first-touch costs.
    run_plain(1, dt);

    let (s_plain, it_plain, t_plain) = run_plain(steps, dt);
    let (s_guard, it_guard, t_guard) = run_guarded(steps, dt);

    // Gate 1: bitwise identity.
    let identical = s_plain.len() == s_guard.len()
        && s_plain
            .iter()
            .zip(&s_guard)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(
        identical,
        "guarded fault-free path diverged bitwise from the plain path"
    );
    assert_eq!(it_plain, it_guard, "iteration counts must match");
    eprintln!("bitwise: guarded == plain over {steps} steps ({it_plain} Newton iters)");

    // Gate 2: overhead. Generous bound — the two runs share one machine
    // and the work is identical; this catches an accidentally hot guard,
    // not scheduler noise.
    let overhead = t_guard / t_plain - 1.0;
    eprintln!(
        "timing: plain {:.3}s, guarded {:.3}s ({:+.1}% overhead)",
        t_plain,
        t_guard,
        100.0 * overhead
    );
    assert!(
        overhead < 0.25,
        "fault-free recovery overhead too high: {:.1}%",
        100.0 * overhead
    );

    // Gate 3: survive a transient NaN burst and report its cost.
    let ti = make_ti();
    let mut stepper = AdaptiveStepper::new(ti);
    stepper
        .ti
        .op
        .device
        .arm_faults(FaultPlan::seeded(5).with_repeated(SITE_LANDAU_JACOBIAN, 1, 2, FaultKind::Nan));
    let mut state = stepper.ti.op.initial_state();
    let t0 = Instant::now();
    let mut retried = 0usize;
    for _ in 0..steps {
        let (_, rec) = stepper
            .advance(&mut state, dt, 0.0, None)
            .expect("transient faults must be recovered");
        retried += rec.retried;
    }
    let t_faulty = t0.elapsed().as_secs_f64();
    stepper.ti.op.device.disarm_faults();
    assert!(retried > 0, "the planned faults never fired");
    eprintln!(
        "recovery: {} retried attempts over {steps} steps, {:.3}s ({:+.1}% vs clean)",
        retried,
        t_faulty,
        100.0 * (t_faulty / t_guard - 1.0)
    );

    // Gate 4: observability cost. Interleave recording-on and
    // recording-off guarded runs (ABABAB) and keep the min of each, so a
    // scheduler hiccup in either arm cannot masquerade as span overhead
    // (the true per-span cost is ~100 ns against multi-second steps; the
    // mins converge while single runs wander by several percent).
    // The overhead may legitimately come out slightly negative.
    let mut t_on = f64::INFINITY;
    let mut t_off = f64::INFINITY;
    let mut s_on = Vec::new();
    let mut s_off = Vec::new();
    for _ in 0..5 {
        landau_obs::reset_spans();
        landau_obs::set_recording(true);
        let (s, _, t) = run_guarded(overhead_steps, dt);
        t_on = t_on.min(t);
        s_on = s;
        landau_obs::set_recording(false);
        let (s, _, t) = run_guarded(overhead_steps, dt);
        t_off = t_off.min(t);
        s_off = s;
    }
    landau_obs::set_recording(true);
    let obs_overhead = if landau_obs::recording_compiled() {
        t_on / t_off - 1.0
    } else {
        0.0
    };
    let obs_identical = s_on.len() == s_off.len()
        && s_on
            .iter()
            .zip(&s_off)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(
        obs_identical,
        "span/metric recording changed the computed state bitwise"
    );
    eprintln!(
        "observability: recording on {t_on:.3}s, off {t_off:.3}s \
         ({:+.2}% overhead, min of 5)",
        100.0 * obs_overhead
    );

    // Gate 5: invariant-monitor cost and bitwise transparency, with the
    // same ABAB min-of-5 protocol as Gate 4.
    let mut t_mon = f64::INFINITY;
    let mut t_base = f64::INFINITY;
    let mut s_mon = Vec::new();
    let mut s_base = Vec::new();
    for _ in 0..5 {
        let (s, _, t) = run_monitored(overhead_steps, dt);
        t_mon = t_mon.min(t);
        s_mon = s;
        let (s, _, t) = run_guarded(overhead_steps, dt);
        t_base = t_base.min(t);
        s_base = s;
    }
    let monitor_overhead = t_mon / t_base - 1.0;
    let monitor_identical = s_mon.len() == s_base.len()
        && s_mon
            .iter()
            .zip(&s_base)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(
        monitor_identical,
        "record-mode conservation monitoring changed the state bitwise"
    );
    eprintln!(
        "invariants: monitored {t_mon:.3}s, unmonitored {t_base:.3}s \
         ({:+.2}% overhead, min of 5)",
        100.0 * monitor_overhead
    );

    // Gate 6: checkpoint cost and transparency on the batched path. Two
    // single-vertex batches follow the identical trajectory; arm A cuts a
    // checkpoint every macro step into an in-memory store, arm B never
    // does. ABAB min-of-5 timed segments, then a bitwise comparison — the
    // serializer only *reads* solver state, so the trajectories must
    // agree bit for bit.
    let base_op = perf_operator(80, Backend::Cpu);
    let mk = || {
        BatchedAdvance::on(
            base_op.geometry().clone(),
            &base_op.species,
            Backend::Cpu,
            1,
        )
    };
    let ckpt_reg = Arc::new(MetricRegistry::new());
    let mut with_ck = mk();
    with_ck.set_metric_registry(Arc::clone(&ckpt_reg));
    // Both arms sit on one geometry and so stream one tensor table: with a
    // table each, where the two 62.5 MB allocations happen to land moves an
    // arm by ±1.5 %, which is the whole ceiling.
    let mut no_ck = mk();
    // Warm-up: one advance per arm outside the timed arms.
    with_ck.advance(dt, 1, 0.0);
    no_ck.advance(dt, 1, 0.0);
    // Min-of-5 of alternating segments: (arm A seconds, arm B seconds).
    let arm_mins = |a: &mut BatchedAdvance, b: &mut BatchedAdvance| {
        let mut mins = (f64::INFINITY, f64::INFINITY);
        for _ in 0..5 {
            let t0 = Instant::now();
            a.advance(dt, steps, 0.0);
            mins.0 = mins.0.min(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            b.advance(dt, steps, 0.0);
            mins.1 = mins.1.min(t0.elapsed().as_secs_f64());
        }
        mins
    };
    // The two arms are two sets of workspaces, and their placement alone
    // can set them a few percent apart for the life of the process — more
    // than the ceiling. Measure that first, neither arm writing, and
    // divide it out. The true write cost is ~0.05 ms per 0.4 s segment, so
    // any overhead left above noise is a bug in the serializer, not the
    // storage.
    let (a0, b0) = arm_mins(&mut with_ck, &mut no_ck);
    with_ck.enable_checkpointing(
        Box::new(MemStorage::new()),
        2,
        CheckpointPolicy::every_steps(1),
    );
    let (t_ck, t_no) = arm_mins(&mut with_ck, &mut no_ck);
    let ckpt_overhead = (t_ck / t_no) / (a0 / b0) - 1.0;
    let ckpt_identical = with_ck.states[0]
        .iter()
        .zip(&no_ck.states[0])
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(
        ckpt_identical,
        "checkpointing perturbed the batched trajectory bitwise"
    );
    // Isolated write cost: min-of-3 explicit saves.
    let mut t_write = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        with_ck
            .checkpoint_now()
            .expect("in-memory checkpoint write cannot fail");
        t_write = t_write.min(t0.elapsed().as_secs_f64());
    }
    let snap = ckpt_reg.snapshot();
    let writes = snap.counter("ckpt.writes");
    let write_bytes = snap.counter("ckpt.write_bytes");
    eprintln!(
        "checkpoint: with {t_ck:.3}s, without {t_no:.3}s, arms apart by {:+.2}% unloaded \
         ({:+.2}% overhead, min of 5); {} writes, {} bytes/frame, {:.3} ms/write",
        100.0 * (a0 / b0 - 1.0),
        100.0 * ckpt_overhead,
        writes,
        write_bytes / writes.max(1),
        1e3 * t_write
    );

    // Gate 7: kill–resume fidelity. An uninterrupted 2-step run vs a run
    // killed after 1 step and resumed from its checkpoint by a fresh
    // batch sharing the durable medium.
    let medium = MemStorage::new();
    let mut whole = mk();
    whole.advance(dt, 2, 0.0);
    let mut killed = mk();
    killed.enable_checkpointing(
        Box::new(medium.clone()),
        2,
        CheckpointPolicy::every_steps(1),
    );
    killed.advance(dt, 1, 0.0);
    drop(killed);
    let mut resumed = mk();
    resumed.enable_checkpointing(
        Box::new(medium.clone()),
        2,
        CheckpointPolicy::every_steps(1),
    );
    let found = resumed
        .resume_from_checkpoint()
        .expect("checkpoint must validate");
    assert!(found, "the killed run left no checkpoint");
    resumed.advance(dt, 1, 0.0);
    let resume_identical = whole.states[0].len() == resumed.states[0].len()
        && whole.states[0]
            .iter()
            .zip(&resumed.states[0])
            .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(
        resume_identical,
        "kill–resume diverged bitwise from the uninterrupted run"
    );
    eprintln!("kill–resume: bitwise identical after resume at macro step 1");

    // Gate 8: corruption matrix. Every single-byte flip of a checkpoint
    // frame must fail validation — count (and gate on) silent restores.
    let probe: Vec<u8> = (0..128).map(|i| (i * 73 % 251) as u8).collect();
    let frame = encode_frame(&probe);
    let mut silent_restores = 0u64;
    for pos in 0..frame.len() {
        for mask in [0x01u8, 0x80] {
            let mut bad = frame.clone();
            bad[pos] ^= mask;
            if decode_frame(&bad).is_ok() {
                silent_restores += 1;
            }
        }
    }
    eprintln!(
        "corruption matrix: {} byte positions x 2 masks, {} silent restores",
        frame.len(),
        silent_restores
    );

    let entries = vec![
        ("steps".to_string(), steps as f64),
        ("newton_iters".to_string(), it_plain as f64),
        ("seconds_plain".to_string(), t_plain),
        ("seconds_guarded".to_string(), t_guard),
        ("overhead_frac".to_string(), overhead),
        ("bitwise_identical".to_string(), 1.0),
        ("seconds_faulty".to_string(), t_faulty),
        ("retried_attempts".to_string(), retried as f64),
        ("obs_overhead_frac".to_string(), obs_overhead),
        ("obs_bitwise_identical".to_string(), 1.0),
        ("monitor_overhead_frac".to_string(), monitor_overhead),
        ("monitor_bitwise_identical".to_string(), 1.0),
        ("ckpt_overhead_frac".to_string(), ckpt_overhead),
        ("ckpt_bitwise_identical".to_string(), 1.0),
        ("ckpt_write_ms".to_string(), 1e3 * t_write),
        (
            "ckpt_frame_bytes".to_string(),
            (write_bytes / writes.max(1)) as f64,
        ),
        ("resume_bitwise_identical".to_string(), 1.0),
        ("ckpt_silent_restores".to_string(), silent_restores as f64),
    ];
    let path = write_bench_json("BENCH_resilience.json", &entries);
    eprintln!("wrote {}", path.display());
}
