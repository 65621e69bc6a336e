//! The per-Newton-iteration operation profile.
//!
//! Extracted from a *real* run of the Rust solver on the paper's test
//! problem (10 species, 80 Q3 elements): the kernel FLOP/byte totals come
//! from the virtual-GPU counters and the factor/solve FLOPs from the band
//! solver's cost model. The DES turns these counts into per-platform times.

/// Operation counts for one Newton iteration of one rank's problem.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IterationProfile {
    /// Jacobian-kernel FLOPs (inner integral + transform&assemble).
    pub kernel_flops: u64,
    /// Jacobian-kernel DRAM bytes.
    pub kernel_bytes: u64,
    /// Mass-kernel FLOPs.
    pub mass_flops: u64,
    /// Mass-kernel DRAM bytes.
    pub mass_bytes: u64,
    /// Atomic f64 adds issued by device assembly.
    pub atomics: u64,
    /// Banded-LU factorization FLOPs (host).
    pub factor_flops: u64,
    /// Triangular-solve FLOPs (host).
    pub solve_flops: u64,
    /// Other host work per iteration (residuals, vec ops, metadata), FLOPs.
    pub host_flops: u64,
}

impl IterationProfile {
    /// An analytic profile of the paper's test problem for use when no
    /// measured counts are supplied: `S` species, `N_e` Q3 elements,
    /// `n` dofs per species, half-bandwidth `B`.
    pub fn analytic(s: usize, ne: usize, n: usize, bw: usize) -> Self {
        let nq = 16u64;
        let nb = 16u64;
        let nip = ne as u64 * nq;
        // 140: the paper's device `LandauTensor2D`, not what this host
        // executes (`landau_core::tensor::TENSOR2D_FLOPS`).
        let pair = 140 + 6 * s as u64 + 19;
        let kernel_flops = nip * nip * pair + ne as u64 * nq * (s as u64) * nb * (8 + nb * 6);
        let kernel_bytes =
            ne as u64 * (3 + 3 * s as u64) * nip * 8 + ne as u64 * (s as u64) * nb * nb * 8;
        let mass_flops = ne as u64 * nq * nb * (1 + 2 * nb);
        let mass_bytes = 2 * ne as u64 * (s as u64) * nb * nb * 8;
        let atomics = ne as u64 * (s as u64) * nb * nb;
        let factor_flops = (s * 2 * n * bw * (bw + 1)) as u64;
        let solve_flops = (s * 12 * n * bw) as u64;
        IterationProfile {
            kernel_flops,
            kernel_bytes,
            mass_flops,
            mass_bytes,
            atomics,
            factor_flops,
            solve_flops,
            host_flops: (s * n * 2000) as u64,
        }
    }

    /// The default 10-species, 80-element, Q3 profile of §V (dof count and
    /// bandwidth match our mesh of that configuration).
    pub fn paper_test_problem() -> Self {
        Self::analytic(10, 80, 750, 120)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_dominates_flops() {
        let p = IterationProfile::paper_test_problem();
        assert!(p.kernel_flops > 10 * p.mass_flops);
        assert!(p.kernel_flops > p.factor_flops);
    }

    #[test]
    fn jacobian_ai_is_in_paper_range() {
        let p = IterationProfile::paper_test_problem();
        let ai = p.kernel_flops as f64 / p.kernel_bytes as f64;
        // Paper measures 15.8 on the 320-cell problem; the 80-cell one is
        // the same order.
        assert!(ai > 5.0 && ai < 60.0, "AI = {ai}");
    }

    #[test]
    fn scales_quadratically_in_elements() {
        let a = IterationProfile::analytic(10, 80, 800, 60);
        let b = IterationProfile::analytic(10, 160, 1600, 80);
        let ratio = b.kernel_flops as f64 / a.kernel_flops as f64;
        assert!(ratio > 3.5 && ratio < 4.5, "{ratio}");
    }
}
