//! The four workloads. Each restates its problem here, from the library's
//! public constructors, so that no other harness in the repository has to
//! stay as it is for the benchmark to keep measuring the same thing.

pub mod batch;
pub mod perf80;
pub mod quench;
pub mod serve;

use crate::run::Ctx;
use crate::util::timed;
use landau_fem::FemSpace;
use landau_mesh::presets::MeshSpec;

/// Build the mesh and the finite-element space on it, timing both.
pub fn build_space(ctx: &mut Ctx, spec: &MeshSpec, order: usize) -> FemSpace {
    let (forest, mesh_s) = timed(|| ctx.tr.call("mesh.build", 0, || spec.build()));
    ctx.set("mesh.build_ms", mesh_s * 1e3);
    ctx.set("mesh.cells", forest.num_cells() as f64);
    let (space, space_s) = timed(|| {
        ctx.tr
            .call("fem.space_build", 0, || FemSpace::new(forest, order))
    });
    ctx.set("fem.space_build_ms", space_s * 1e3);
    ctx.set("fem.dofs", space.n_dofs as f64);
    space
}

/// Run the named workload to completion.
pub fn run(ctx: &mut Ctx) {
    match ctx.cfg.workload.as_str() {
        "perf80_solo" => perf80::run(ctx),
        "quench_solo" => quench::run(ctx),
        "batch256_fused" => batch::run(ctx),
        "serve_flood" => serve::run(ctx),
        other => unreachable!("workload {other} was checked against the list"),
    }
}
