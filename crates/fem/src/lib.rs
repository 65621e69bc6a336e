//! `Qp` tensor-product finite elements on quadtree AMR meshes.
//!
//! Implements the discretization substrate of the paper: high-order
//! (Q1–Q3) quadrilateral elements on the non-conforming adaptively refined
//! meshes from `landau-mesh`, with hanging-node constraints that interpolate
//! each constrained degree of freedom to the nodes of the coarse face it
//! hangs on (4 parent dofs per constrained node for Q3, as the paper's
//! load-imbalance discussion notes).
//!
//! Node identification is exact: node coordinates are integers in
//! `p`-scaled finest-grid units, so shared nodes across elements and levels
//! match without floating-point tolerance.

pub mod assemble;
pub mod coloring;
pub mod space;
pub mod tabulation;

pub use assemble::{
    assemble_dz_matrix, assemble_mass_matrix, csr_pattern, l2_project, pointwise_integral,
    pointwise_integral2, scatter_element_matrix, scatter_element_vector, weighted_functional,
    ScatterMap,
};
pub use space::{Element, FemSpace, NodeExpansion};
pub use tabulation::Tabulation;
