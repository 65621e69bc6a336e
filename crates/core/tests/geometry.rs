//! One `Geometry` per mesh: what operators on it share, what they do not,
//! and how long it lives.

use landau_core::tensor_cache::{CacheMode, DEFAULT_BUDGET_BYTES};
use landau_core::{Backend, Geometry, LandauOperator, Species, SpeciesList, TensorTable};
use landau_fem::FemSpace;
use landau_mesh::presets::uniform_mesh;
use std::sync::Arc;

fn space() -> FemSpace {
    FemSpace::new(uniform_mesh(3.0, 1), 3)
}

fn ion(mass: f64, temperature: f64) -> Species {
    Species {
        name: "i+".into(),
        mass,
        charge: 1.0,
        density: 0.5,
        temperature,
    }
}

fn bits(op: &mut LandauOperator) -> Vec<Vec<u64>> {
    let state = op.initial_state();
    let mats = op.assemble(&state, 0.1).mats;
    mats.iter()
        .map(|m| m.vals.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Sharing a geometry shares no species- or backend-dependent state: two
/// operators with different species lists and backends on one geometry
/// assemble what they assemble on meshes of their own.
#[test]
fn operators_on_one_geometry_assemble_as_if_built_separately() {
    let two = SpeciesList::new(vec![Species::electron(), ion(2.0, 2.0)]);
    let three = SpeciesList::new(vec![Species::electron(), ion(2.0, 0.7), ion(4.0, 1.5)]);
    let geom = Geometry::new(space());
    let mut a = LandauOperator::on(geom.clone(), two.clone(), Backend::Cpu);
    let mut b = LandauOperator::on(geom.clone(), three.clone(), Backend::CudaModel);
    assert!(Arc::ptr_eq(a.geometry(), b.geometry()));
    assert!(std::ptr::eq(&a.mass, &b.mass));
    let mut a_alone = LandauOperator::new(space(), two, Backend::Cpu);
    let mut b_alone = LandauOperator::new(space(), three, Backend::CudaModel);
    // Interleaved, so neither operator's packed fields leak into the other.
    let (ba, bb) = (bits(&mut a), bits(&mut b));
    assert_eq!(bits(&mut a), ba);
    assert_eq!(ba, bits(&mut a_alone));
    assert_eq!(bb, bits(&mut b_alone));
    assert_eq!(bb.len(), 3);
}

/// The resident table is built once per geometry, by whoever asks first; a
/// budget it does not fit yields the recomputing source and the same bits.
#[test]
fn tensor_table_is_built_once_per_geometry() {
    let sl = SpeciesList::new(vec![Species::electron(), ion(2.0, 2.0)]);
    let geom = Geometry::new(space());
    let mut first = LandauOperator::on(geom.clone(), sl.clone(), Backend::Cpu);
    let mut second = LandauOperator::on(geom.clone(), sl.clone(), Backend::Cpu);
    let mut lean = LandauOperator::on(geom, sl, Backend::Cpu);
    let uncached = bits(&mut first);

    let table = first.enable_tensor_cache(DEFAULT_BUDGET_BYTES);
    assert_eq!(table.mode(), CacheMode::Cached);
    assert!(Arc::ptr_eq(
        &table,
        &second.enable_tensor_cache(DEFAULT_BUDGET_BYTES)
    ));
    assert!(Arc::ptr_eq(
        &table,
        &first.enable_tensor_cache(DEFAULT_BUDGET_BYTES)
    ));
    let builds = |op: &LandauOperator| op.device.kernel_stats("tensor_table_build").launches;
    assert_eq!((builds(&first), builds(&second)), (1, 0));

    let small = lean.enable_tensor_cache(TensorTable::required_bytes(table.n()) - 1);
    assert_eq!(small.mode(), CacheMode::Recompute);
    assert_eq!(builds(&lean), 0);
    assert_eq!(bits(&mut first), uncached);
    assert_eq!(bits(&mut second), uncached);
    assert_eq!(bits(&mut lean), uncached);
}

/// No process-wide cache: a geometry, resident table included, is dropped
/// with the last operator on it.
#[test]
fn geometry_lives_as_long_as_its_operators() {
    let sl = SpeciesList::new(vec![Species::electron(), ion(2.0, 2.0)]);
    let mut a = LandauOperator::new(space(), sl.clone(), Backend::Cpu);
    let b = LandauOperator::on(a.geometry().clone(), sl, Backend::KokkosModel);
    let geom = Arc::downgrade(a.geometry());
    let table = Arc::downgrade(&a.enable_tensor_cache(DEFAULT_BUDGET_BYTES));
    assert_eq!(geom.strong_count(), 2);
    drop(a);
    assert!(geom.upgrade().is_some() && table.upgrade().is_some());
    drop(b);
    assert!(geom.upgrade().is_none() && table.upgrade().is_none());
}

/// Shared across the threads of a server, so it must be `Send + Sync`.
#[test]
fn geometry_is_send_and_sync() {
    fn check<T: Send + Sync>() {}
    check::<Geometry>();
}
