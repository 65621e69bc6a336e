//! Deterministic, seeded fault injection for resilience testing.
//!
//! Production-scale batched solves must degrade per-vertex, not per-fleet
//! (the batched-solver follow-up paper's point, arXiv:2209.03228). Proving
//! that requires *injecting* the defect classes the solve path claims to
//! survive — a NaN escaping a kernel reduction, a singular block handed to
//! the banded LU — at a reproducible point in the run, and showing the
//! solver (a) detects them, (b) attributes them to the right error, and
//! (c) recovers.
//!
//! A [`FaultPlan`] names *sites* (kernel-counter names, e.g.
//! [`SITE_LANDAU_JACOBIAN`]), the *Nth tally* at that site to corrupt, and
//! the corruption [`FaultKind`]. The [`FaultInjector`] armed on a
//! [`crate::Device`] counts tallies per site while armed; the kernel driver
//! polls it once per launch and applies the returned fault to its output
//! buffer. Which lane of the buffer is corrupted is derived from the plan's
//! seed with a splitmix64 hash of `(seed, site, nth)` — runs with the same
//! plan are bit-for-bit repeatable, and [`FaultPlan::none`] keeps the fast
//! path to one relaxed atomic load (fault-free runs stay bitwise identical
//! to an un-instrumented build).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Site name for the Landau Jacobian kernel's output (the `IpCoeffs`
/// produced by the inner-integral stage).
pub const SITE_LANDAU_JACOBIAN: &str = "landau_jacobian";

/// Site name for the banded-LU factorization (one tally per factor
/// attempt; the injected "lane" selects the species block to poison).
pub const SITE_LU_FACTOR: &str = "lu_factor";

/// What an injected fault does to the target buffer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Overwrite one output lane with `f64::NAN`.
    Nan,
    /// Scale one output lane by `1 + rel` (a silent data corruption).
    Perturb {
        /// Relative perturbation magnitude.
        rel: f64,
    },
    /// Make one species block of the banded LU exactly singular
    /// (meaningful only at [`SITE_LU_FACTOR`]).
    SingularBlock,
}

/// One planned fault: corrupt the `nth` tally (0-based, counted while
/// armed) at `site`, and keep corrupting for `count` consecutive tallies.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Site name (a kernel-counter name).
    pub site: String,
    /// 0-based index of the first tally at `site` to corrupt.
    pub nth: u64,
    /// How many consecutive tallies to corrupt (`u64::MAX` = from `nth`
    /// onward, a persistent hard fault).
    pub count: u64,
    /// The corruption applied.
    pub kind: FaultKind,
}

impl FaultSpec {
    fn matches(&self, site: &str, tally: u64) -> bool {
        self.site == site && tally >= self.nth && tally - self.nth < self.count
    }
}

/// A deterministic, seeded set of planned faults.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for the lane-selection hash.
    pub seed: u64,
    /// The planned faults.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// The empty plan: nothing is ever injected. Arming it is equivalent
    /// to never arming at all (results stay bitwise identical).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// An empty plan carrying a seed, ready for [`FaultPlan::with`].
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Add a single-shot fault at the `nth` tally of `site`.
    pub fn with(self, site: &str, nth: u64, kind: FaultKind) -> Self {
        self.with_repeated(site, nth, 1, kind)
    }

    /// Add a fault covering `count` consecutive tallies from `nth`.
    pub fn with_repeated(mut self, site: &str, nth: u64, count: u64, kind: FaultKind) -> Self {
        self.faults.push(FaultSpec {
            site: site.to_string(),
            nth,
            count,
            kind,
        });
        self
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// A fault due *now*: returned by [`FaultInjector::poll`] when the current
/// tally at a site matches the plan.
#[derive(Clone, Debug, PartialEq)]
pub struct InjectedFault {
    /// Site the fault fired at.
    pub site: String,
    /// The tally index (0-based since arming) it fired on.
    pub tally: u64,
    /// Seed-derived lane in `[0, lanes)` to corrupt.
    pub index: usize,
    /// The corruption to apply.
    pub kind: FaultKind,
}

impl InjectedFault {
    /// Apply this fault to a flat `f64` buffer ([`FaultKind::SingularBlock`]
    /// is structural and handled by the solver, not here).
    pub fn apply(&self, buf: &mut [f64]) {
        if buf.is_empty() {
            return;
        }
        let i = self.index % buf.len();
        match self.kind {
            FaultKind::Nan => buf[i] = f64::NAN,
            FaultKind::Perturb { rel } => buf[i] *= 1.0 + rel,
            FaultKind::SingularBlock => {}
        }
    }
}

/// splitmix64: the standard 64-bit avalanche mixer (public domain,
/// Sebastiano Vigna) — deterministic lane selection from `(seed, site, nth)`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// FNV-1a over the site name, so distinct sites draw independent lanes.
fn site_hash(site: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in site.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[derive(Debug, Default)]
struct InjectorState {
    plan: FaultPlan,
    counts: HashMap<String, u64>,
    log: Vec<InjectedFault>,
}

/// Per-device fault-injection state: an armed plan, per-site tally counts,
/// and a log of everything injected (for test attribution).
#[derive(Debug, Default)]
pub struct FaultInjector {
    armed: AtomicBool,
    inner: Mutex<InjectorState>,
}

impl FaultInjector {
    /// Arm a plan. Tally counts and the log restart from zero; arming an
    /// empty plan leaves the fast path disarmed.
    pub fn arm(&self, plan: FaultPlan) {
        let armed = !plan.is_empty();
        let mut g = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        g.plan = plan;
        g.counts.clear();
        g.log.clear();
        // Publish only after the state is consistent.
        self.armed.store(armed, Ordering::Release);
    }

    /// Disarm: subsequent polls are free and inject nothing.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Release);
    }

    /// Count one tally at `site` and return the fault due now, if any.
    /// `lanes` is the length of the output buffer the caller would corrupt;
    /// the returned `index` is already reduced into `[0, lanes)`.
    ///
    /// When no plan is armed this is a single relaxed atomic load — cheap
    /// enough to sit on every kernel launch.
    pub fn poll(&self, site: &str, lanes: usize) -> Option<InjectedFault> {
        if !self.armed.load(Ordering::Acquire) {
            return None;
        }
        let mut g = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let c = g.counts.entry(site.to_string()).or_insert(0);
        let tally = *c;
        *c += 1;
        let spec = g.plan.faults.iter().find(|s| s.matches(site, tally))?;
        let h = splitmix64(g.plan.seed ^ site_hash(site) ^ tally.wrapping_mul(0x9e37));
        let fault = InjectedFault {
            site: site.to_string(),
            tally,
            index: (h % lanes.max(1) as u64) as usize,
            kind: spec.kind,
        };
        g.log.push(fault.clone());
        Some(fault)
    }

    /// Everything injected since the last [`FaultInjector::arm`].
    pub fn log(&self) -> Vec<InjectedFault> {
        match self.inner.lock() {
            Ok(g) => g.log.clone(),
            Err(p) => p.into_inner().log.clone(),
        }
    }

    /// Tallies counted at `site` since arming.
    pub fn tallies(&self, site: &str) -> u64 {
        match self.inner.lock() {
            Ok(g) => g.counts.get(site).copied().unwrap_or(0),
            Err(p) => p.into_inner().counts.get(site).copied().unwrap_or(0),
        }
    }

    /// Snapshot the armed plan and per-site tally counts for checkpointing.
    /// Restoring this cursor on a fresh injector replays the exact same
    /// fault schedule from the capture point onward.
    pub fn export_cursor(&self) -> FaultCursor {
        let armed = self.armed.load(Ordering::Acquire);
        let g = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let mut counts: Vec<(String, u64)> =
            g.counts.iter().map(|(k, v)| (k.clone(), *v)).collect();
        counts.sort();
        FaultCursor {
            armed,
            plan: g.plan.clone(),
            counts,
        }
    }

    /// Restore a cursor captured by [`FaultInjector::export_cursor`]: re-arms
    /// the plan (if it was armed) and seeds the tally counts, so the next
    /// poll at each site continues from the checkpointed tally.
    pub fn restore_cursor(&self, cursor: &FaultCursor) {
        let mut g = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        g.plan = cursor.plan.clone();
        g.counts = cursor.counts.iter().cloned().collect();
        g.log.clear();
        self.armed
            .store(cursor.armed && !cursor.plan.is_empty(), Ordering::Release);
    }
}

/// Serializable fault-injection progress: the armed plan plus per-site
/// tally counts (sorted by site name for deterministic encoding).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultCursor {
    /// Whether the injector was armed at capture time.
    pub armed: bool,
    /// The plan that was armed.
    pub plan: FaultPlan,
    /// Per-site tallies counted so far, sorted by site name.
    pub counts: Vec<(String, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let inj = FaultInjector::default();
        inj.arm(FaultPlan::none());
        for _ in 0..10 {
            assert!(inj.poll(SITE_LANDAU_JACOBIAN, 100).is_none());
        }
        assert!(inj.log().is_empty());
        // Counts are not even tracked while disarmed.
        assert_eq!(inj.tallies(SITE_LANDAU_JACOBIAN), 0);
    }

    #[test]
    fn fires_exactly_on_nth_tally() {
        let inj = FaultInjector::default();
        inj.arm(FaultPlan::seeded(7).with(SITE_LANDAU_JACOBIAN, 2, FaultKind::Nan));
        assert!(inj.poll(SITE_LANDAU_JACOBIAN, 10).is_none());
        assert!(inj.poll(SITE_LANDAU_JACOBIAN, 10).is_none());
        let f = inj.poll(SITE_LANDAU_JACOBIAN, 10).expect("third tally");
        assert_eq!(f.tally, 2);
        assert!(f.index < 10);
        assert!(inj.poll(SITE_LANDAU_JACOBIAN, 10).is_none());
        assert_eq!(inj.log().len(), 1);
        assert_eq!(inj.tallies(SITE_LANDAU_JACOBIAN), 4);
    }

    #[test]
    fn sites_count_independently() {
        let inj = FaultInjector::default();
        inj.arm(FaultPlan::seeded(1).with(SITE_LU_FACTOR, 0, FaultKind::SingularBlock));
        assert!(inj.poll(SITE_LANDAU_JACOBIAN, 5).is_none());
        let f = inj.poll(SITE_LU_FACTOR, 2).expect("first LU tally");
        assert_eq!(f.kind, FaultKind::SingularBlock);
        assert!(f.index < 2);
    }

    #[test]
    fn same_seed_same_lane_different_seed_usually_differs() {
        let lane = |seed: u64| {
            let inj = FaultInjector::default();
            inj.arm(FaultPlan::seeded(seed).with("k", 0, FaultKind::Nan));
            inj.poll("k", 1 << 20).map(|f| f.index)
        };
        assert_eq!(lane(42), lane(42));
        // Not a hard guarantee, but a collision over 2^20 lanes for these
        // two seeds would indicate a broken mixer.
        assert_ne!(lane(42), lane(43));
    }

    #[test]
    fn repeated_fault_covers_a_window() {
        let inj = FaultInjector::default();
        inj.arm(FaultPlan::seeded(3).with_repeated("k", 1, 2, FaultKind::Perturb { rel: 0.5 }));
        assert!(inj.poll("k", 4).is_none());
        assert!(inj.poll("k", 4).is_some());
        assert!(inj.poll("k", 4).is_some());
        assert!(inj.poll("k", 4).is_none());
    }

    #[test]
    fn apply_corrupts_one_lane() {
        let f = InjectedFault {
            site: "k".into(),
            tally: 0,
            index: 1,
            kind: FaultKind::Nan,
        };
        let mut buf = [1.0, 2.0, 3.0];
        f.apply(&mut buf);
        assert!(buf[1].is_nan());
        assert_eq!(buf[0], 1.0);
        assert_eq!(buf[2], 3.0);
        let p = InjectedFault {
            kind: FaultKind::Perturb { rel: 1.0 },
            ..f
        };
        let mut buf = [1.0, 2.0, 3.0];
        p.apply(&mut buf);
        assert_eq!(buf[1], 4.0);
    }

    #[test]
    fn cursor_round_trip_replays_the_schedule() {
        let plan = FaultPlan::seeded(11).with("k", 3, FaultKind::Nan);
        let a = FaultInjector::default();
        a.arm(plan.clone());
        assert!(a.poll("k", 8).is_none());
        assert!(a.poll("k", 8).is_none());
        let cur = a.export_cursor();
        assert!(cur.armed);
        assert_eq!(cur.counts, vec![("k".to_string(), 2)]);
        // A fresh injector restored from the cursor fires on the same
        // absolute tally (3) with the same lane as the original.
        let b = FaultInjector::default();
        b.restore_cursor(&cur);
        assert!(a.poll("k", 8).is_none()); // tally 2
        assert!(b.poll("k", 8).is_none()); // tally 2 (resumed)
        let fa = a.poll("k", 8); // tally 3: fires
        let fb = b.poll("k", 8); // tally 3: fires identically
        assert_eq!(fa, fb);
        assert!(fa.is_some());
    }

    #[test]
    fn rearm_resets_counts_and_log() {
        let inj = FaultInjector::default();
        inj.arm(FaultPlan::seeded(9).with("k", 0, FaultKind::Nan));
        assert!(inj.poll("k", 3).is_some());
        inj.arm(FaultPlan::seeded(9).with("k", 0, FaultKind::Nan));
        assert!(inj.poll("k", 3).is_some(), "counts restart after rearm");
        assert_eq!(inj.log().len(), 1);
        inj.disarm();
        assert!(inj.poll("k", 3).is_none());
    }
}
