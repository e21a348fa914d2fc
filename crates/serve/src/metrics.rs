//! Serving observability: per-stream and per-query counters.

/// Delivery counters for one attached query.
#[derive(Debug, Clone, Default)]
pub struct QueryServeMetrics {
    /// Query name.
    pub query: String,
    /// Events successfully enqueued to the subscriber.
    pub delivered: u64,
    /// Events discarded by the [`Backpressure::Drop`] policy (the
    /// subscriber's bounded channel was full).
    ///
    /// [`Backpressure::Drop`]: crate::Backpressure::Drop
    pub dropped: u64,
    /// Mean wall latency from a batch entering the engine to this query's
    /// matches being enqueued, in milliseconds.
    pub mean_latency_ms: f64,
    /// Median delivery latency, read from the query's log-bucketed
    /// histogram (exact to the microsecond below 128µs, bucket lower
    /// bound above).
    pub p50_latency_ms: f64,
    /// 95th-percentile delivery latency, in milliseconds.
    pub p95_latency_ms: f64,
    /// 99th-percentile delivery latency, in milliseconds.
    pub p99_latency_ms: f64,
    /// Worst delivery latency observed, in milliseconds (exact).
    pub max_latency_ms: f64,
}

/// Wall-clock serving metrics for one stream.
#[derive(Debug, Clone, Default)]
pub struct ServeMetrics {
    /// Frames pushed through the super-plan so far.
    pub frames_total: u64,
    /// Batches executed.
    pub batches: u64,
    /// Super-plan recompiles triggered by attach/detach.
    pub recompiles: u64,
    /// Automatic worker restarts after panics (see
    /// `RestartPolicy`).
    pub restarts: u64,
    /// Frames permanently lost to a faulted segment when the restart
    /// budget ran out.
    pub frames_lost: u64,
    /// Frames the decoder failed on and the executors skipped (never
    /// counted in `frames_total`).
    pub decode_failures: u64,
    /// Stored segments this stream's from-past replays found damaged or
    /// missing, each counted once per replay that met it. The affected
    /// frames were recomputed from the decoded video (results unchanged,
    /// just slower) — mirrors `decode_failures` in spirit.
    pub store_corruptions: u64,
    /// Wall milliseconds spent executing (excludes idle time between
    /// steps).
    pub wall_ms: f64,
    /// Frames per wall second over the executed portion.
    pub frames_per_s: f64,
    /// Reuse-cache hit rate of the stream engine, `[0, 1]`.
    pub reuse_hit_rate: f64,
    /// Total events dropped across all subscriptions.
    pub dropped_events: u64,
    /// Per-query delivery counters, in attach order.
    pub per_query: Vec<QueryServeMetrics>,
}

/// A point-in-time view of one shard worker's load: its step counter, and
/// the handles that record the shard summed by the fold behind
/// [`LoadSnapshot`](crate::LoadSnapshot). One row per shard from
/// `StreamSupervisor::shard_loads`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardLoad {
    /// The shard's index, `0..shard_budget`.
    pub shard: usize,
    /// Live streams handed to the shard that it has not let go of yet
    /// (the shard's share of `LoadSnapshot::active_streams`; replays are
    /// not counted).
    pub streams: usize,
    /// Due-but-unexecuted paced steps summed over the shard's streams.
    pub queue_depth: u64,
    /// Steps the shard worker has executed (cumulative, across removed
    /// streams too): the shard's `vqpy_shard_steps_total{shard}` counter.
    pub steps: u64,
}

impl ServeMetrics {
    /// One-line summary for logs and bench reports.
    pub fn summary(&self) -> String {
        let queries: Vec<String> = self
            .per_query
            .iter()
            .map(|q| {
                format!(
                    "{}: {} delivered, {} dropped, latency mean {:.2}ms p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms max {:.2}ms",
                    q.query,
                    q.delivered,
                    q.dropped,
                    q.mean_latency_ms,
                    q.p50_latency_ms,
                    q.p95_latency_ms,
                    q.p99_latency_ms,
                    q.max_latency_ms
                )
            })
            .collect();
        let mut line = format!(
            "{} frames in {} batches ({:.1} frames/s, {} recompiles, reuse {:.1}%, {} dropped) | {}",
            self.frames_total,
            self.batches,
            self.frames_per_s,
            self.recompiles,
            self.reuse_hit_rate * 100.0,
            self.dropped_events,
            queries.join("; "),
        );
        if self.restarts > 0 || self.frames_lost > 0 {
            line.push_str(&format!(
                " | {} restarts, {} frames lost",
                self.restarts, self.frames_lost
            ));
        }
        if self.decode_failures > 0 {
            line.push_str(&format!(
                " | {} decode failures skipped",
                self.decode_failures
            ));
        }
        if self.store_corruptions > 0 {
            line.push_str(&format!(
                " | {} corrupt store segments recomputed",
                self.store_corruptions
            ));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_mentions_queries() {
        let m = ServeMetrics {
            frames_total: 100,
            batches: 13,
            frames_per_s: 250.0,
            per_query: vec![QueryServeMetrics {
                query: "RedCar".into(),
                delivered: 7,
                p95_latency_ms: 1.25,
                ..Default::default()
            }],
            ..Default::default()
        };
        let s = m.summary();
        assert!(s.contains("RedCar"), "{s}");
        assert!(s.contains("100 frames"), "{s}");
        assert!(s.contains("p95 1.25ms"), "{s}");
    }
}
