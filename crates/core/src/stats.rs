//! Engine statistics.

/// Counters accumulated by [`crate::ChipkillMemory`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Demand block reads.
    pub reads: u64,
    /// Demand block writes (both write paths).
    pub writes: u64,
    /// Reads whose RS word was already clean.
    pub clean_reads: u64,
    /// Reads corrected by the RS tier within the threshold.
    pub rs_accepted: u64,
    /// Total symbols corrected by accepted RS decodes.
    pub rs_corrections: u64,
    /// Reads that fell back to VLEW decoding (§V-C expects ~0.02% at
    /// RBER 2·10⁻⁴).
    pub fallbacks: u64,
    /// Bit errors corrected by fallback VLEW decodes.
    pub vlew_bits_corrected: u64,
    /// Stripes healed at runtime: a demand read, scrub or write that
    /// had to VLEW-decode a readable stripe wrote its corrected words
    /// back (boot scrub and chip repair report their own).
    pub stripe_writebacks: u64,
    /// Reads served through chip-failure erasure correction.
    pub erasure_reads: u64,
    /// Chip failures detected by the decode paths.
    pub chip_failures_detected: u64,
    /// Detected uncorrectable events (rank loss).
    pub due_events: u64,
    /// Completed tier migrations (regions re-encoded at a different
    /// protection tier by [`crate::TieredMemory`]).
    pub tier_migrations: u64,
}

impl CoreStats {
    /// Adds `other`'s counters into `self` — the aggregation a sharded
    /// service uses to sum per-shard engine stats.
    pub fn merge(&mut self, other: &CoreStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.clean_reads += other.clean_reads;
        self.rs_accepted += other.rs_accepted;
        self.rs_corrections += other.rs_corrections;
        self.fallbacks += other.fallbacks;
        self.vlew_bits_corrected += other.vlew_bits_corrected;
        self.stripe_writebacks += other.stripe_writebacks;
        self.erasure_reads += other.erasure_reads;
        self.chip_failures_detected += other.chip_failures_detected;
        self.due_events += other.due_events;
        self.tier_migrations += other.tier_migrations;
    }

    /// Fraction of reads that needed the VLEW fallback.
    pub fn fallback_fraction(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.fallbacks as f64 / self.reads as f64
        }
    }

    /// Publishes every counter (and the derived fallback fraction as a
    /// gauge) into `reg` under `<prefix>.<name>`.
    pub fn publish_metrics(&self, reg: &pmck_rt::metrics::MetricsRegistry, prefix: &str) {
        let c = |name: &str, v: u64| reg.set_counter(&format!("{prefix}.{name}"), v);
        c("reads", self.reads);
        c("writes", self.writes);
        c("clean_reads", self.clean_reads);
        c("rs_accepted", self.rs_accepted);
        c("rs_corrections", self.rs_corrections);
        c("fallbacks", self.fallbacks);
        c("vlew_bits_corrected", self.vlew_bits_corrected);
        c("stripe_writebacks", self.stripe_writebacks);
        c("erasure_reads", self.erasure_reads);
        c("chip_failures_detected", self.chip_failures_detected);
        c("due_events", self.due_events);
        c("tier_migrations", self.tier_migrations);
        reg.set_gauge(
            &format!("{prefix}.fallback_fraction"),
            self.fallback_fraction(),
        );
    }

    /// The counters as a JSON object (stable key order).
    pub fn to_json(&self) -> pmck_rt::Json {
        pmck_rt::Json::object()
            .with("reads", self.reads)
            .with("writes", self.writes)
            .with("clean_reads", self.clean_reads)
            .with("rs_accepted", self.rs_accepted)
            .with("rs_corrections", self.rs_corrections)
            .with("fallbacks", self.fallbacks)
            .with("vlew_bits_corrected", self.vlew_bits_corrected)
            .with("stripe_writebacks", self.stripe_writebacks)
            .with("erasure_reads", self.erasure_reads)
            .with("chip_failures_detected", self.chip_failures_detected)
            .with("due_events", self.due_events)
            .with("tier_migrations", self.tier_migrations)
            .with("fallback_fraction", self.fallback_fraction())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fallback_fraction() {
        let mut s = CoreStats::default();
        assert_eq!(s.fallback_fraction(), 0.0);
        s.reads = 1000;
        s.fallbacks = 2;
        assert!((s.fallback_fraction() - 0.002).abs() < 1e-12);
    }

    #[test]
    fn publishes_metrics() {
        let s = CoreStats {
            reads: 1000,
            fallbacks: 2,
            stripe_writebacks: 3,
            ..Default::default()
        };
        let reg = pmck_rt::metrics::MetricsRegistry::new();
        s.publish_metrics(&reg, "engine");
        assert_eq!(reg.counter("engine.reads"), 1000);
        assert_eq!(reg.counter("engine.fallbacks"), 2);
        assert_eq!(reg.counter("engine.stripe_writebacks"), 3);
        assert_eq!(reg.gauge("engine.fallback_fraction"), Some(0.002));
    }

    #[test]
    fn stripe_writebacks_merge_and_serialize() {
        let shard = CoreStats {
            stripe_writebacks: 2,
            ..Default::default()
        };
        let mut total = shard;
        total.merge(&shard);
        assert_eq!(total.stripe_writebacks, 4);
        let json = total.to_json();
        assert_eq!(
            json.get("stripe_writebacks").and_then(|v| v.as_u64()),
            Some(4)
        );
    }
}
