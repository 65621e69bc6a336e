//! `ex2` — the thermal-quench application as a command-line tool, mirroring
//! the PETSc tutorial the paper ships (`ex2.c` in the Landau tutorials).
//!
//! Usage (all flags optional):
//!
//! ```text
//! ex2 [-z <Z>] [-ion_mass <m/me>] [-dt <dt>] [-e0_over_ec <f>]
//!     [-mass_factor <f>] [-t_cold <T>] [-steps <n>] [-equil_steps <n>]
//!     [-cells_per_vt <c>] [-domain <R>] [-backend cpu|cuda|kokkos]
//!     [-spitzer_only] [-csv]
//! ```

use landau_core::operator::Backend;
use landau_quench::{measure_resistivity, QuenchConfig, QuenchDriver, ResistivityConfig};

fn parse_flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    parse_flag(args, name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let backend = match parse_flag(&args, "-backend").as_deref() {
        Some("cuda") => Backend::CudaModel,
        Some("kokkos") => Backend::KokkosModel,
        _ => Backend::Cpu,
    };
    let z = parse(&args, "-z", 1.0f64);
    let ion_mass = parse(&args, "-ion_mass", 16.0f64);
    let dt = parse(&args, "-dt", 0.25f64);
    let cells_per_vt = parse(&args, "-cells_per_vt", 0.75f64);
    let domain = parse(&args, "-domain", 4.5f64);

    if args.iter().any(|a| a == "-spitzer_only") {
        let cfg = ResistivityConfig {
            z,
            ion_mass,
            dt: parse(&args, "-dt", 0.5f64),
            cells_per_vt,
            k_outer: parse(&args, "-k_outer", 2.2f64),
            domain,
            max_steps: parse(&args, "-steps", 40usize),
            backend,
            ..Default::default()
        };
        let run = measure_resistivity(&cfg);
        println!(
            "Z={z}: eta = {:.5} vs Spitzer {:.5} ({:+.2}%), {} steps, converged={}",
            run.eta_measured,
            run.eta_spitzer,
            100.0 * run.relative_error(),
            run.steps,
            run.converged
        );
        return;
    }

    let cfg = QuenchConfig {
        z,
        ion_mass,
        dt,
        cells_per_vt,
        k_outer: parse(&args, "-k_outer", 2.2f64),
        domain,
        e0_over_ec: parse(&args, "-e0_over_ec", 0.5f64),
        mass_factor: parse(&args, "-mass_factor", 3.0f64),
        t_cold: parse(&args, "-t_cold", 0.15f64),
        pulse_duration: parse(&args, "-pulse", 3.0f64),
        max_equil_steps: parse(&args, "-equil_steps", 16usize),
        quench_steps: parse(&args, "-steps", 24usize),
        backend,
        ..Default::default()
    };
    let mut d = QuenchDriver::new(cfg);
    eprintln!(
        "ex2: {} Q3 cells, {} dofs/species, backend {:?}",
        d.ti().op.space.n_elements(),
        d.ti().op.n(),
        backend
    );
    if let Err(e) = d.run() {
        eprintln!("quench run failed: {e}");
        eprintln!("(samples up to the failure follow)");
    }
    if args.iter().any(|a| a == "-csv") {
        println!("t,n_e,J,E,T_e,phase");
        for s in &d.samples {
            println!(
                "{:.3},{:.5},{:.5e},{:.5e},{:.4},{}",
                s.t,
                s.n_e,
                s.j,
                s.e,
                s.t_e,
                if s.quenching { "quench" } else { "equil" }
            );
        }
    } else {
        for s in &d.samples {
            println!(
                "t={:6.2} [{}] n_e={:.3} J={:.3e} E={:.3e} T_e={:.4}",
                s.t,
                if s.quenching { "Q" } else { "E" },
                s.n_e,
                s.j,
                s.e,
                s.t_e
            );
        }
    }
    eprintln!("total Newton iterations: {}", d.stats.newton_iters);
}
