//! The batched advance (one pool sweep over the vertices' steppers)
//! against the plain per-vertex loop
//! (`landau_testkit::oracle::host_loop_advance`): same state bits vertex by
//! vertex, same Newton counts, same failure accounting.

use landau_core::fault_sites::SITE_LU_FACTOR;
use landau_core::{Backend, BatchedAdvance, FaultKind, FaultPlan, Species, SpeciesList};
use landau_fem::FemSpace;
use landau_mesh::presets::{MeshSpec, RefineShell};
use landau_testkit::oracle::host_loop_advance;

fn tiny_space() -> FemSpace {
    let spec = MeshSpec {
        domain_radius: 4.0,
        base_level: 1,
        shells: vec![RefineShell {
            radius: 1.5,
            max_cell_size: 1.0,
        }],
        tail_box: None,
    };
    FemSpace::new(spec.build(), 2)
}

fn plasma() -> SpeciesList {
    SpeciesList::new(vec![
        Species::electron(),
        Species {
            name: "i+".into(),
            mass: 2.0,
            charge: 1.0,
            density: 1.0,
            temperature: 0.7,
        },
    ])
}

#[test]
fn pool_sweep_matches_host_loop_bitwise() {
    let space = tiny_space();
    let mut host = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
    let mut pool = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
    let sh = host_loop_advance(&mut host, 0.4, 2, 0.0);
    let sf = pool.advance(0.4, 2, 0.0);
    assert_eq!(sh.failed, 0, "{sh:?}");
    assert_eq!(sf.failed, 0, "{sf:?}");
    // The pool sweep runs each vertex's own stepper, with nested sweeps
    // inline over the same parts: every vertex's state must match the
    // reference loop bit for bit.
    for (v, (a, b)) in host.states.iter().zip(&pool.states).enumerate() {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "vertex {v} dof {i}: {x:e} vs {y:e}"
            );
        }
    }
    assert_eq!(sh.newton_iters, sf.newton_iters);

    // Five lanes split unevenly over the pool (2 + 3 on two threads), one
    // of them always singular so it walks the failure ladder; and a batch
    // of one lane, where the sweep has a single part.
    let singular = |b: &mut BatchedAdvance| {
        b.stepper(3)
            .ti
            .op
            .device
            .arm_faults(FaultPlan::seeded(7).with_repeated(
                SITE_LU_FACTOR,
                0,
                1_000_000,
                FaultKind::SingularBlock,
            ));
    };
    for (n, arm) in [(5, Some(singular)), (1, None)] {
        let mut host = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, n);
        let mut pool = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, n);
        if let Some(arm) = arm {
            arm(&mut host);
            arm(&mut pool);
        }
        let sh = host_loop_advance(&mut host, 0.4, 2, 0.0);
        let sp = pool.advance(0.4, 2, 0.0);
        assert_eq!(sh.per_vertex, sp.per_vertex, "{n} lanes");
        assert_eq!(sp.failed, usize::from(arm.is_some()), "{sp:?}");
        for (v, (a, b)) in host.states.iter().zip(&pool.states).enumerate() {
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{n} lanes, vertex {v} dof {i}");
            }
        }
    }
}

#[test]
fn seeded_factor_fault_is_counted_and_excluded_from_throughput() {
    let space = tiny_space();
    let mut b = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
    // Every LU factorization on vertex 1's device reports a singular
    // block: the first attempt fails, recovery's damped retries and
    // Δt halvings all hit the same fault, and the vertex exhausts its
    // budget while the rest of the fleet advances.
    b.stepper(1)
        .ti
        .op
        .device
        .arm_faults(FaultPlan::seeded(7).with_repeated(
            SITE_LU_FACTOR,
            0,
            1_000_000,
            FaultKind::SingularBlock,
        ));
    let stats = b.advance(0.4, 2, 0.0);
    assert_eq!(stats.failed, 1, "{stats:?}");
    assert!(stats.per_vertex[1].failed);
    // The terminal failure's attempts and Δt subdivisions must reach
    // the aggregate (the old host loop dropped both on the floor).
    assert!(
        stats.per_vertex[1].retried > 0,
        "failed attempts must be counted: {stats:?}"
    );
    assert!(stats.retried >= stats.per_vertex[1].retried);
    assert!(
        stats.per_vertex[1].dt_fraction_min < 1.0,
        "Δt halving attempts must reach dt_fraction_min: {stats:?}"
    );
    assert!(stats.dt_fraction_min <= stats.per_vertex[1].dt_fraction_min);
    // Throughput counts only healthy vertices' work.
    let productive: usize = stats
        .per_vertex
        .iter()
        .filter(|v| !v.failed)
        .map(|v| v.newton_iters)
        .sum();
    assert_eq!(stats.productive_newton_iters, productive);
    assert!(productive > 0);
    let expect = productive as f64 / stats.seconds;
    assert!(
        (stats.newton_per_sec - expect).abs() <= 1e-9 * expect,
        "throughput must use productive iterations only"
    );
    // The host loop aggregates the same failure accounting.
    let mut h = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
    h.stepper(1)
        .ti
        .op
        .device
        .arm_faults(FaultPlan::seeded(7).with_repeated(
            SITE_LU_FACTOR,
            0,
            1_000_000,
            FaultKind::SingularBlock,
        ));
    let hs = host_loop_advance(&mut h, 0.4, 2, 0.0);
    assert_eq!(hs.failed, 1, "{hs:?}");
    assert!(hs.per_vertex[1].retried > 0);
    assert!(hs.per_vertex[1].dt_fraction_min < 1.0);
    assert_eq!(hs.productive_newton_iters, stats.productive_newton_iters);
}
