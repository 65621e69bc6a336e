//! SLO watchdog: burn-rate rules over live metric snapshots.
//!
//! An [`SloWatchdog`] owns a set of [`SloRule`]s, each binding a signal
//! (counter burn rate since the previous evaluation, gauge level, or
//! histogram p99) to a threshold. [`SloWatchdog::evaluate`] reads one
//! [`MetricSnapshot`], publishes `alert.<rule>.observed` gauges and
//! `alert.<rule>.breaches` counters back into the registry (the breach
//! counters are pre-registered so every scrape exposes the `alert.*`
//! families even when nothing has fired), pushes a journal
//! [`Event::alert`] per breach, and returns the breaches.
//!
//! Modes mirror the physics-side `ConservationMonitor`:
//! [`AlertMode::Record`] only publishes, [`AlertMode::Fail`] makes
//! [`SloWatchdog::enforce`] return [`SloViolation`] — the operational
//! analogue of `WatchdogMode::Fail` turning drift into a step error.

use crate::journal::{Event, Journal};
use crate::metrics::{MetricRegistry, MetricSnapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// What a rule measures in a snapshot.
#[derive(Clone, Debug)]
pub enum SloSignal {
    /// Increase of a counter since the previous evaluation of this
    /// watchdog (0 on the first evaluation).
    CounterBurn(&'static str),
    /// Current level of a gauge (absent gauge ⇒ 0, never fires).
    Gauge(&'static str),
    /// Maximum level over all gauges whose name starts with `prefix`
    /// and ends with `suffix` (e.g. the `invariant.*.drift_max` family).
    GaugeFamilyMax {
        /// Name prefix, e.g. `"invariant."`.
        prefix: &'static str,
        /// Name suffix, e.g. `".drift_max"`.
        suffix: &'static str,
    },
    /// Interpolated p99 of a histogram.
    HistogramP99(&'static str),
}

/// One SLO rule: `signal > threshold` is a breach.
#[derive(Clone, Debug)]
pub struct SloRule {
    /// Stable rule name — becomes the `alert.<name>.*` metric family
    /// and the journal event code.
    pub name: &'static str,
    /// What to measure.
    pub signal: SloSignal,
    /// Fire when the observation exceeds this.
    pub threshold: f64,
}

/// Record-only or hard-fail, mirroring `WatchdogMode`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertMode {
    /// Publish `alert.*` metrics and journal events, keep serving.
    Record,
    /// Additionally make [`SloWatchdog::enforce`] return the breaches
    /// as an error, for deployments that would rather stop than limp.
    Fail,
}

/// One rule breach from a single evaluation.
#[derive(Clone, Debug, PartialEq)]
pub struct Firing {
    /// Breached rule name.
    pub rule: &'static str,
    /// Observed value.
    pub observed: f64,
    /// The rule's threshold.
    pub threshold: f64,
}

/// Error returned by [`SloWatchdog::enforce`] in [`AlertMode::Fail`].
#[derive(Clone, Debug)]
pub struct SloViolation {
    /// Every rule that breached in the failing evaluation.
    pub firings: Vec<Firing>,
}

impl std::fmt::Display for SloViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SLO violated:")?;
        for fr in &self.firings {
            write!(f, " {} ({:.3} > {:.3})", fr.rule, fr.observed, fr.threshold)?;
        }
        Ok(())
    }
}

impl std::error::Error for SloViolation {}

/// Burn-rate SLO watchdog over a [`MetricRegistry`].
pub struct SloWatchdog {
    mode: AlertMode,
    rules: Vec<SloRule>,
    registry: Arc<MetricRegistry>,
    journal: Arc<Journal>,
    /// Previous counter values for [`SloSignal::CounterBurn`].
    last: Mutex<BTreeMap<&'static str, u64>>,
}

impl SloWatchdog {
    /// A watchdog over `registry`/`journal` with the given rules.
    pub fn new(
        mode: AlertMode,
        rules: Vec<SloRule>,
        registry: Arc<MetricRegistry>,
        journal: Arc<Journal>,
    ) -> SloWatchdog {
        // Pre-register the alert families so a scrape taken before the
        // first breach (or before the first evaluation) still exposes
        // them — probes key off their presence.
        for r in &rules {
            let _ = registry.counter(&format!("alert.{}.breaches", r.name));
            registry.gauge_max(&format!("alert.{}.observed", r.name), 0.0);
        }
        let _ = registry.counter("alert.evaluations");
        SloWatchdog {
            mode,
            rules,
            registry,
            journal,
            last: Mutex::new(BTreeMap::new()),
        }
    }

    /// The watchdog's mode.
    pub fn mode(&self) -> AlertMode {
        self.mode
    }

    /// The default serve rule set: latency, queue, checkpoint-corruption,
    /// journal-loss, and invariant-drift SLOs.
    /// Thresholds are generous — they catch a service on fire, not a
    /// slow day.
    pub fn serve_rules() -> Vec<SloRule> {
        vec![
            SloRule {
                name: "slice_p99_ms",
                signal: SloSignal::HistogramP99("serve.slice_ms"),
                threshold: 120_000.0,
            },
            SloRule {
                name: "queue_wait_p99_ms",
                signal: SloSignal::HistogramP99("serve.queue_wait_ms"),
                threshold: 300_000.0,
            },
            SloRule {
                name: "ckpt_corruption",
                signal: SloSignal::CounterBurn("ckpt.corrupt_skipped"),
                threshold: 0.5,
            },
            SloRule {
                name: "journal_loss_burn",
                signal: SloSignal::CounterBurn("obs.journal.dropped"),
                threshold: 4096.0,
            },
            SloRule {
                name: "invariant_drift",
                signal: SloSignal::GaugeFamilyMax {
                    prefix: "invariant.",
                    suffix: ".drift_max",
                },
                threshold: 1e-6,
            },
        ]
    }

    fn observe(&self, signal: &SloSignal, snap: &MetricSnapshot) -> f64 {
        match *signal {
            SloSignal::CounterBurn(name) => {
                let now = snap.counter(name);
                let mut last = self.last.lock().unwrap_or_else(|e| e.into_inner());
                let prev = last.insert(name, now);
                match prev {
                    Some(p) => now.saturating_sub(p) as f64,
                    // First evaluation: no interval to burn over yet.
                    None => 0.0,
                }
            }
            SloSignal::Gauge(name) => snap.gauge(name).unwrap_or(0.0),
            SloSignal::GaugeFamilyMax { prefix, suffix } => snap
                .gauges
                .iter()
                .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
                .map(|(_, &v)| v)
                .fold(0.0, f64::max),
            SloSignal::HistogramP99(name) => snap
                .histograms
                .get(name)
                .map(|h| h.quantiles(&[0.99])[0])
                .unwrap_or(0.0),
        }
    }

    /// Evaluate every rule against `snap`, publish `alert.*` metrics and
    /// journal events, and return the breaches. Never fails — this is
    /// the scrape-path entry point regardless of mode.
    pub fn evaluate(&self, snap: &MetricSnapshot) -> Vec<Firing> {
        self.registry.add("alert.evaluations", 1);
        let mut firings = Vec::new();
        for rule in &self.rules {
            let observed = self.observe(&rule.signal, snap);
            self.registry
                .gauge_max(&format!("alert.{}.observed", rule.name), observed);
            if observed > rule.threshold {
                self.registry
                    .add(&format!("alert.{}.breaches", rule.name), 1);
                self.journal
                    .publish(Event::alert(rule.name, observed, rule.threshold));
                firings.push(Firing {
                    rule: rule.name,
                    observed,
                    threshold: rule.threshold,
                });
            }
        }
        firings
    }

    /// Evaluate and, in [`AlertMode::Fail`], turn breaches into an
    /// error. [`AlertMode::Record`] always returns `Ok`.
    pub fn enforce(&self, snap: &MetricSnapshot) -> Result<Vec<Firing>, SloViolation> {
        let firings = self.evaluate(snap);
        if self.mode == AlertMode::Fail && !firings.is_empty() {
            return Err(SloViolation { firings });
        }
        Ok(firings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn watchdog(mode: AlertMode, rules: Vec<SloRule>) -> (SloWatchdog, Arc<MetricRegistry>) {
        let reg = Arc::new(MetricRegistry::new());
        let journal = Arc::new(Journal::with_capacity(64));
        (SloWatchdog::new(mode, rules, reg.clone(), journal), reg)
    }

    #[test]
    fn burn_rate_is_delta_between_evaluations() {
        let (wd, reg) = watchdog(
            AlertMode::Record,
            vec![SloRule {
                name: "burn",
                signal: SloSignal::CounterBurn("work.units"),
                threshold: 5.0,
            }],
        );
        reg.add("work.units", 100);
        // First evaluation establishes the baseline — no breach even
        // though the absolute count is large.
        assert!(wd.evaluate(&reg.snapshot()).is_empty());
        reg.add("work.units", 3);
        assert!(wd.evaluate(&reg.snapshot()).is_empty());
        reg.add("work.units", 50);
        let firings = wd.evaluate(&reg.snapshot());
        assert_eq!(firings.len(), 1);
        assert_eq!(firings[0].rule, "burn");
        assert_eq!(firings[0].observed, 50.0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("alert.burn.breaches"), 1);
        assert_eq!(snap.counter("alert.evaluations"), 3);
        assert!(snap.gauge("alert.burn.observed").unwrap() >= 50.0);
    }

    #[test]
    fn alert_families_exist_before_any_breach() {
        let (wd, reg) = watchdog(AlertMode::Record, SloWatchdog::serve_rules());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("alert.slice_p99_ms.breaches"), 0);
        assert!(snap.counters.contains_key("alert.invariant_drift.breaches"));
        assert!(wd.evaluate(&snap).is_empty());
    }

    #[test]
    fn gauge_family_max_spans_the_invariant_channels() {
        let (wd, reg) = watchdog(
            AlertMode::Record,
            vec![SloRule {
                name: "drift",
                signal: SloSignal::GaugeFamilyMax {
                    prefix: "invariant.",
                    suffix: ".drift_max",
                },
                threshold: 1e-6,
            }],
        );
        reg.gauge_max("invariant.mass.drift_max", 1e-9);
        reg.gauge_max("invariant.energy.drift_max", 3e-4);
        reg.gauge_max("invariant.entropy.production_drop_max", 1.0);
        let firings = wd.evaluate(&reg.snapshot());
        assert_eq!(firings.len(), 1);
        assert_eq!(firings[0].observed, 3e-4);
    }

    #[test]
    fn fail_mode_turns_breaches_into_errors() {
        let (wd, reg) = watchdog(
            AlertMode::Fail,
            vec![SloRule {
                name: "p99",
                signal: SloSignal::HistogramP99("lat"),
                threshold: 10.0,
            }],
        );
        reg.observe("lat", 2);
        assert!(wd.enforce(&reg.snapshot()).is_ok());
        for _ in 0..100 {
            reg.observe("lat", 5000);
        }
        let err = wd.enforce(&reg.snapshot()).expect_err("p99 breached");
        assert_eq!(err.firings[0].rule, "p99");
        assert!(err.to_string().contains("p99"));
    }

    #[test]
    fn breaches_land_in_the_journal() {
        let reg = Arc::new(MetricRegistry::new());
        let journal = Arc::new(Journal::with_capacity(64));
        let wd = SloWatchdog::new(
            AlertMode::Record,
            vec![SloRule {
                name: "g",
                signal: SloSignal::Gauge("depth"),
                threshold: 1.0,
            }],
            reg.clone(),
            journal.clone(),
        );
        reg.gauge_set("depth", 9.0);
        wd.evaluate(&reg.snapshot());
        let evs = journal.drain();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, crate::journal::EventKind::Alert);
        assert_eq!(evs[0].code.as_ref(), "g");
        assert_eq!(evs[0].value, 9.0);
    }
}
