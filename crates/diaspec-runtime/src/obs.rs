//! Observability: activity-labeled latency histograms, snapshots, and
//! their exports.
//!
//! The paper organizes IoT orchestration into four activities — *binding
//! entities*, *delivering data*, *processing data*, and *actuating
//! entities* (§IV). Where [`crate::metrics::RuntimeMetrics`] counts
//! orchestration events globally, this module attributes **durations** to
//! those activities, labeled by the component or device family
//! involved:
//!
//! - [`Activity`] names the four paper activities, plus *recovering* —
//!   the cost of the §VI error-handling extension (lease expiry to
//!   rebind, retry backoff, fallback actuation; see [`crate::fault`]);
//! - [`LatencyHistogram`] is a zero-dependency log-bucketed histogram
//!   (mergeable, with p50/p90/p99/max readouts);
//! - [`ObsSnapshot`] is a point-in-time export: [`render_prometheus`]
//!   renders it in the Prometheus text exposition style, and
//!   [`write_jsonl`] writes it as JSON Lines after a drained run's trace
//!   events and spans. The engine fills it through its one telemetry
//!   path ([`crate::telemetry`]).
//!
//! Delivery and recovery durations are *simulation* milliseconds;
//! binding, processing, and actuation durations are *wall-clock*
//! microseconds (component logic does not advance simulation time).
//! Each activity snapshot carries its unit.
//!
//! Everything is **off by default**: disabled, a record site costs a
//! counter bump plus one branch (bounded by `diaspec-bench`'s tests).

use crate::clock::SimTime;
use crate::deploy::SessionStats;
use crate::spans::{SpanEvent, SpanStage};
use crate::trace::TraceEvent;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write;

// ---- activities -----------------------------------------------------------

/// The four orchestration activities of the paper (§IV), plus recovery
/// (the §VI error-handling extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activity {
    /// Binding entities: attribute-based discovery and registration.
    Binding,
    /// Delivering data: a value crossing the (simulated) network.
    Delivering,
    /// Processing data: component logic, windows, MapReduce phases.
    Processing,
    /// Actuating entities: invoking a declared device action.
    Actuating,
    /// Recovering from injected faults: lease expiry to rebind, delivery
    /// retry backoff, fallback actuations, and map/reduce task
    /// re-execution time (see [`crate::fault`]).
    Recovering,
}

impl Activity {
    /// All activities: the paper's four in paper order, then recovery.
    pub const ALL: [Activity; 5] = [
        Activity::Binding,
        Activity::Delivering,
        Activity::Processing,
        Activity::Actuating,
        Activity::Recovering,
    ];

    /// Stable lower-case label (used in exports).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Activity::Binding => "binding",
            Activity::Delivering => "delivering",
            Activity::Processing => "processing",
            Activity::Actuating => "actuating",
            Activity::Recovering => "recovering",
        }
    }

    /// Unit of the durations recorded under this activity.
    ///
    /// Delivery and recovery are measured on the simulation clock
    /// (milliseconds — recovery cost is dominated by backoff delays and
    /// lease timeouts, which are simulated time); the other three do not
    /// advance simulated time, so they are measured on the wall clock
    /// (microseconds).
    #[must_use]
    pub fn unit(self) -> &'static str {
        match self {
            Activity::Delivering | Activity::Recovering => "ms",
            _ => "us",
        }
    }

    /// Dense index in `0..5` (the [`Activity::ALL`] order), for
    /// array-backed storage.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Wall-clock microseconds elapsed since `start`, saturated to `u64`.
#[must_use]
pub fn elapsed_us(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

// ---- histogram ------------------------------------------------------------

/// Values below this resolve to exact single-value buckets.
const LINEAR_LIMIT: u64 = 16;
/// Sub-buckets per power of two above the linear region (3 mantissa bits:
/// relative quantization error is at most 1/8).
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count: 16 exact buckets + 8 per power of two for
/// exponents 4..=63.
const BUCKETS: usize = LINEAR_LIMIT as usize + (63 - 3) * SUB;

/// A log-bucketed latency histogram.
///
/// Values up to 15 land in exact buckets; larger values are bucketed
/// log-linearly (8 sub-buckets per power of two, ≤ 12.5% relative
/// error). Recording is O(1) with no allocation; histograms merge
/// exactly (merging two histograms yields the same buckets as recording
/// the union of their streams).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index of a value.
    fn bucket_of(value: u64) -> usize {
        if value < LINEAR_LIMIT {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros(); // >= 4
        let sub = ((value >> (exp - SUB_BITS)) as usize) & (SUB - 1);
        LINEAR_LIMIT as usize + (exp as usize - 4) * SUB + sub
    }

    /// Smallest value that maps to bucket `i`.
    fn bucket_lower(i: usize) -> u64 {
        if i < LINEAR_LIMIT as usize {
            return i as u64;
        }
        let j = i - LINEAR_LIMIT as usize;
        let exp = 4 + (j / SUB) as u32;
        let sub = (j % SUB) as u64;
        (SUB as u64 + sub) << (exp - SUB_BITS)
    }

    /// Largest value that maps to bucket `i`.
    fn bucket_upper(i: usize) -> u64 {
        if i + 1 >= BUCKETS {
            u64::MAX
        } else {
            Self::bucket_lower(i + 1) - 1
        }
    }

    /// Records one duration.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded durations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of recorded durations (saturated to `u64`).
    #[must_use]
    pub fn sum(&self) -> u64 {
        u64::try_from(self.sum).unwrap_or(u64::MAX)
    }

    /// Smallest recorded duration (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded duration (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean recorded duration (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`) of the recorded
    /// durations, up to bucket resolution. Exact for values below 16 and
    /// for the extremes: `quantile(0.0)` and `quantile(1.0)` never fall
    /// outside `[min, max]`. Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return Self::bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds another histogram into this one. Equivalent to having
    /// recorded both underlying streams into a single histogram.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// A serializable summary (count, sum, extremes, mean,
    /// p50/p90/p99/p99.9).
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
        }
    }

    /// Cumulative bucket counts in Prometheus histogram style: one
    /// `(le, cumulative count)` pair per occupied bucket, ordered by
    /// bucket upper bound. The final unbounded bucket is omitted — its
    /// samples are only reachable through the implicit `+Inf` bucket
    /// (whose cumulative count is [`LatencyHistogram::count`]).
    #[must_use]
    pub fn cumulative_buckets(&self) -> Vec<BucketCount> {
        let mut out = Vec::new();
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if c == 0 {
                continue;
            }
            let le = Self::bucket_upper(i);
            if le == u64::MAX {
                continue;
            }
            out.push(BucketCount {
                le,
                count: cumulative,
            });
        }
        out
    }
}

/// One cumulative histogram bucket: the number of samples `<= le`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Inclusive upper bound of the bucket, in the histogram's unit.
    pub le: u64,
    /// Cumulative sample count at or below `le`.
    pub count: u64,
}

/// Serializable summary of a [`LatencyHistogram`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of recorded durations.
    pub count: u64,
    /// Sum of recorded durations.
    pub sum: u64,
    /// Smallest recorded duration.
    pub min: u64,
    /// Largest recorded duration.
    pub max: u64,
    /// Mean recorded duration.
    pub mean: f64,
    /// Median (up to bucket resolution).
    pub p50: u64,
    /// 90th percentile (up to bucket resolution).
    pub p90: u64,
    /// 99th percentile (up to bucket resolution).
    pub p99: u64,
    /// 99.9th percentile (up to bucket resolution).
    #[serde(default)]
    pub p999: u64,
}

// ---- snapshots ------------------------------------------------------------

/// Point-in-time export of everything the hub has measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsSnapshot {
    /// Simulation time of the snapshot, in milliseconds.
    pub at: SimTime,
    /// One entry per [`Activity`], in [`Activity::ALL`] order.
    pub activities: Vec<ActivitySnapshot>,
    /// Per-pipeline-stage latency breakdowns from causal span tracing,
    /// one entry per [`SpanStage`], in [`SpanStage::ALL`] order. Empty
    /// when span tracing never ran.
    #[serde(default)]
    pub stages: Vec<StageSnapshot>,
    /// Queue-depth / occupancy gauges sampled at snapshot time (filled
    /// by the orchestrator; see `Orchestrator::observation`).
    #[serde(default)]
    pub gauges: Vec<GaugeSample>,
    /// Per-peer transport link counters, one entry per deployment link
    /// (filled by coordinators from
    /// [`Transport::stats`](crate::transport::Transport::stats); empty
    /// for single-process runs that never sampled a link).
    #[serde(default)]
    pub transports: Vec<TransportSample>,
}

impl ObsSnapshot {
    /// The snapshot of one activity, by its label.
    #[must_use]
    pub fn activity(&self, activity: Activity) -> Option<&ActivitySnapshot> {
        self.activities
            .iter()
            .find(|a| a.activity == activity.label())
    }

    /// The breakdown of one pipeline stage, by its label.
    #[must_use]
    pub fn stage(&self, stage: SpanStage) -> Option<&StageSnapshot> {
        self.stages.iter().find(|s| s.stage == stage.label())
    }

    /// The value of one gauge, by name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The counters of one transport link, by peer name.
    #[must_use]
    pub fn transport(&self, peer: &str) -> Option<&TransportSample> {
        self.transports.iter().find(|t| t.peer == peer)
    }
}

/// Measurements attributed to one activity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivitySnapshot {
    /// Activity label (`binding`, `delivering`, `processing`,
    /// `actuating`, `recovering`).
    pub activity: String,
    /// Unit of the recorded durations (`ms` simulated or `us` wall).
    pub unit: String,
    /// Latency distribution of the activity.
    pub latency: HistogramSummary,
    /// Operation counts per component / device-family label.
    pub labels: BTreeMap<String, u64>,
    /// Cumulative latency buckets (occupied buckets only; the unbounded
    /// tail is implicit in `latency.count`).
    #[serde(default)]
    pub buckets: Vec<BucketCount>,
}

/// Latency breakdown of one pipeline stage, measured by span tracing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSnapshot {
    /// Stage label (`admit`, `route`, `schedule`, `dispatch`, `compute`,
    /// `actuate`, `retry`, `recover`, `ingest`).
    pub stage: String,
    /// Unit of the recorded durations (`ms` simulated or `us` wall).
    pub unit: String,
    /// Latency distribution of the stage.
    pub latency: HistogramSummary,
    /// Cumulative latency buckets (occupied buckets only).
    #[serde(default)]
    pub buckets: Vec<BucketCount>,
}

/// One occupancy gauge, sampled at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Gauge name (e.g. `queue_depth`, `inflight_deliveries`,
    /// `error_buffer_fill`).
    pub name: String,
    /// Sampled value.
    pub value: u64,
}

/// Counters of one transport link, sampled at snapshot time.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportSample {
    /// Peer node name (e.g. `edge0`).
    pub peer: String,
    /// Backend name (`in-process` or `tcp`).
    pub backend: String,
    /// Payload-frame bytes written to the peer.
    pub bytes_sent: u64,
    /// Payload-frame bytes read from the peer.
    pub bytes_received: u64,
    /// Envelopes written to the peer.
    pub frames_sent: u64,
    /// Envelopes read from the peer.
    pub frames_received: u64,
    /// Times the link was re-established after a failure.
    pub reconnects: u64,
    /// Session layer: parked effects replayed after the link healed.
    #[serde(default)]
    pub replays: u64,
    /// Session layer: inline resend attempts.
    #[serde(default)]
    pub resends: u64,
    /// Session layer: requests that exhausted their inline retries.
    #[serde(default)]
    pub abandoned: u64,
    /// Session layer: path probes sent ahead of replays.
    #[serde(default)]
    pub probes: u64,
    /// Session layer: times the circuit breaker tripped open.
    #[serde(default)]
    pub breaker_trips: u64,
}

impl TransportSample {
    /// Labels one link's [`TransportStats`](crate::transport::TransportStats)
    /// readout with its peer and backend names (session counters zero).
    #[must_use]
    pub fn from_stats(peer: &str, backend: &str, stats: &crate::transport::TransportStats) -> Self {
        TransportSample {
            peer: peer.to_owned(),
            backend: backend.to_owned(),
            bytes_sent: stats.bytes_sent,
            bytes_received: stats.bytes_received,
            frames_sent: stats.frames_sent,
            frames_received: stats.frames_received,
            reconnects: stats.reconnects,
            ..TransportSample::default()
        }
    }

    /// The counters, in [`LINK_FAMILIES`] order.
    fn counters(&self) -> [u64; 10] {
        [
            self.bytes_sent,
            self.bytes_received,
            self.frames_sent,
            self.frames_received,
            self.reconnects,
            self.replays,
            self.resends,
            self.abandoned,
            self.probes,
            self.breaker_trips,
        ]
    }

    /// Adds a session link's [`SessionStats`] counters.
    #[must_use]
    pub fn with_session(self, session: &SessionStats) -> Self {
        TransportSample {
            replays: session.replays,
            resends: session.resends,
            abandoned: session.abandoned,
            probes: session.probes,
            breaker_trips: session.breaker_trips,
            ..self
        }
    }
}

// ---- Prometheus text exposition -------------------------------------------

/// The per-link counter families (`diaspec_<name>_total{peer,backend}`)
/// with their help text, in [`TransportSample::counters`] order.
const LINK_FAMILIES: [(&str, &str); 10] = [
    ("transport_bytes_sent", "Payload-frame bytes written."),
    ("transport_bytes_received", "Payload-frame bytes read."),
    ("transport_frames_sent", "Envelopes written."),
    ("transport_frames_received", "Envelopes read."),
    ("transport_reconnects", "Re-establishments after a failure."),
    ("session_replays", "Parked effects replayed after healing."),
    ("session_resends", "Inline resend attempts."),
    ("session_abandoned", "Requests out of inline retries."),
    ("session_probes", "Path probes sent ahead of replays."),
    ("session_breaker_trips", "Times the circuit breaker opened."),
];

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double quote, and line feed.
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Appends a latency summary family (p50/p90/p99/p99.9 + sum + count)
/// and its cumulative histogram twin `<family>_hist`, one series per
/// `(labels, latency, buckets)` row.
fn render_latency(
    out: &mut String,
    family: &str,
    (help, per): (&str, &str),
    rows: &[(String, &HistogramSummary, &[BucketCount])],
) {
    let _ = writeln!(out, "# HELP {family} {help}\n# TYPE {family} summary");
    for (base, latency, _) in rows {
        for (q, v) in [
            ("0.5", latency.p50),
            ("0.9", latency.p90),
            ("0.99", latency.p99),
            ("0.999", latency.p999),
        ] {
            let _ = writeln!(out, "{family}{{{base},quantile=\"{q}\"}} {v}");
        }
        let _ = writeln!(out, "{family}_sum{{{base}}} {}", latency.sum);
        let _ = writeln!(out, "{family}_count{{{base}}} {}", latency.count);
    }
    let family = format!("{family}_hist");
    let _ = writeln!(
        out,
        "# HELP {family} Cumulative duration histogram per {per}.\n# TYPE {family} histogram"
    );
    for (base, latency, buckets) in rows {
        for bucket in *buckets {
            let (le, count) = (bucket.le, bucket.count);
            let _ = writeln!(out, "{family}_bucket{{{base},le=\"{le}\"}} {count}");
        }
        let _ = writeln!(
            out,
            "{family}_bucket{{{base},le=\"+Inf\"}} {}",
            latency.count
        );
        let _ = writeln!(out, "{family}_sum{{{base}}} {}", latency.sum);
        let _ = writeln!(out, "{family}_count{{{base}}} {}", latency.count);
    }
}

/// Renders a snapshot in the Prometheus text exposition style:
///
/// - `diaspec_activity_operations_total` — counter per activity/label
///   pair;
/// - `diaspec_activity_latency` — summary (p50/p90/p99/p99.9 + sum +
///   count) per activity;
/// - `diaspec_activity_latency_hist` — full cumulative histogram
///   (`_bucket{le=...}`/`_sum`/`_count`) per activity;
/// - `diaspec_stage_latency` / `diaspec_stage_latency_hist` — the same
///   pair per causal-tracing pipeline stage, when spans were recorded;
/// - `diaspec_transport_<counter>_total` and
///   `diaspec_session_<counter>_total` — per-peer link and session
///   counters, when the snapshot carries transport samples;
/// - one `diaspec_<name>` gauge per occupancy sample in the snapshot.
///
/// `docs/OBSERVABILITY.md` catalogues every family with its unit and
/// labels.
#[must_use]
pub fn render_prometheus(snapshot: &ObsSnapshot) -> String {
    let mut out = String::new();
    let family = "diaspec_activity_operations_total";
    let _ = writeln!(
        out,
        "# HELP {family} Operations observed per activity and component.\n# TYPE {family} counter"
    );
    for act in &snapshot.activities {
        for (label, count) in &act.labels {
            let (activity, component) = (&act.activity, escape_label(label));
            let _ = writeln!(
                out,
                "{family}{{activity=\"{activity}\",component=\"{component}\"}} {count}"
            );
        }
    }
    let simulated: Vec<&str> = Activity::ALL
        .iter()
        .filter(|a| a.unit() == "ms")
        .map(|a| a.label())
        .collect();
    let help = format!(
        "Duration distribution per activity (ms simulated for {}, us wall otherwise).",
        simulated.join(" and ")
    );
    let rows: Vec<_> = snapshot
        .activities
        .iter()
        .map(|a| {
            let base = format!("activity=\"{}\",unit=\"{}\"", a.activity, a.unit);
            (base, &a.latency, a.buckets.as_slice())
        })
        .collect();
    render_latency(
        &mut out,
        "diaspec_activity_latency",
        (&help, "activity"),
        &rows,
    );
    if !snapshot.stages.is_empty() {
        let help = "Per-pipeline-stage duration from causal span tracing.";
        let rows: Vec<_> = snapshot
            .stages
            .iter()
            .map(|s| {
                let base = format!("stage=\"{}\",unit=\"{}\"", s.stage, s.unit);
                (base, &s.latency, s.buckets.as_slice())
            })
            .collect();
        render_latency(
            &mut out,
            "diaspec_stage_latency",
            (help, "pipeline stage"),
            &rows,
        );
    }
    if !snapshot.transports.is_empty() {
        for (i, (family, help)) in LINK_FAMILIES.iter().enumerate() {
            let _ = writeln!(out, "# HELP diaspec_{family}_total {help}");
            let _ = writeln!(out, "# TYPE diaspec_{family}_total counter");
            for t in &snapshot.transports {
                let (peer, backend) = (escape_label(&t.peer), escape_label(&t.backend));
                let value = t.counters()[i];
                let _ = writeln!(
                    out,
                    "diaspec_{family}_total{{peer=\"{peer}\",backend=\"{backend}\"}} {value}"
                );
            }
        }
    }
    for gauge in &snapshot.gauges {
        let name = format!("diaspec_{}", gauge.name);
        let _ = writeln!(
            out,
            "# HELP {name} Occupancy gauge sampled at snapshot time."
        );
        let _ = writeln!(out, "# TYPE {name} gauge\n{name} {}", gauge.value);
    }
    out
}

// ---- JSON Lines export --------------------------------------------------

/// Writes a drained run as JSON Lines: one `{"trace": ...}` object per
/// event, one `{"span": ...}` per span, then one `{"snapshot": ...}`.
/// Returns the number of lines written.
///
/// # Errors
///
/// Propagates the writer's I/O errors.
pub fn write_jsonl(
    mut out: impl Write,
    trace: &[TraceEvent],
    spans: &[SpanEvent],
    snapshot: &ObsSnapshot,
) -> std::io::Result<u64> {
    fn line(out: &mut impl Write, key: &str, value: &impl Serialize) -> std::io::Result<()> {
        let json = serde_json::to_string(value).map_err(std::io::Error::other)?;
        writeln!(out, "{{\"{key}\":{json}}}")
    }
    for event in trace {
        line(&mut out, "trace", event)?;
    }
    for span in spans {
        line(&mut out, "span", span)?;
    }
    line(&mut out, "snapshot", snapshot)?;
    out.flush()?;
    Ok((trace.len() + spans.len() + 1) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Record, Telemetry};

    /// A recorder with the activity histograms on.
    fn observing() -> Telemetry {
        let mut hub = Telemetry::new();
        hub.set_observability(true);
        hub
    }

    #[test]
    fn small_values_have_exact_buckets() {
        let mut h = LatencyHistogram::new();
        for v in 0..16 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        // Below LINEAR_LIMIT every value is its own bucket, so quantiles
        // are exact.
        assert_eq!(h.quantile(0.5), 7);
        assert_eq!(h.quantile(1.0), 15);
    }

    #[test]
    fn bucket_boundaries_round_trip() {
        // The lower bound of every bucket maps back to that bucket, and
        // so does its upper bound.
        for i in 0..BUCKETS {
            let lo = LatencyHistogram::bucket_lower(i);
            assert_eq!(LatencyHistogram::bucket_of(lo), i, "lower of bucket {i}");
            let hi = LatencyHistogram::bucket_upper(i);
            assert_eq!(LatencyHistogram::bucket_of(hi), i, "upper of bucket {i}");
        }
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut h = LatencyHistogram::new();
        h.record(1000);
        let q = h.quantile(0.5);
        // One sample: any quantile must return a value within bucket
        // resolution (12.5%) of it — and clamping makes it exact here.
        assert_eq!(q, 1000);
        h.record(2000);
        let p99 = h.quantile(0.99);
        assert!(p99 <= 2000 && p99 as f64 >= 2000.0 * 0.875, "{p99}");
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        let mut state = 0x1234_5678_u64;
        for _ in 0..1000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(state >> 40);
        }
        let mut prev = 0;
        for i in 0..=100 {
            let q = h.quantile(f64::from(i) / 100.0);
            assert!(q >= prev, "quantile regressed at {i}%: {q} < {prev}");
            prev = q;
        }
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn merge_equals_union() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut union = LatencyHistogram::new();
        for v in [0u64, 3, 17, 999, 1_000_000] {
            a.record(v);
            union.record(v);
        }
        for v in [5u64, 17, 40_000] {
            b.record(v);
            union.record(v);
        }
        a.merge(&b);
        assert_eq!(a, union);
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        let s = h.summary();
        assert_eq!(s.count, 0);
    }

    #[test]
    fn disabled_hub_records_nothing() {
        let mut hub = Telemetry::new();
        hub.observe(Activity::Delivering, "Ctx", 5);
        assert_eq!(hub.snapshot(0).activities[1].latency.count, 0);
        hub.set_observability(true);
        hub.observe(Activity::Delivering, "Ctx", 5);
        hub.observe(Activity::Delivering, "Ctx", 7);
        let snap = hub.snapshot(42);
        let delivering = snap.activity(Activity::Delivering).unwrap();
        assert_eq!(delivering.latency.count, 2);
        assert_eq!(delivering.labels["Ctx"], 2);
        assert_eq!(delivering.unit, "ms");
        assert_eq!(snap.at, 42);
    }

    #[test]
    fn prometheus_rendering_has_counters_and_summaries() {
        let mut hub = observing();
        hub.observe(Activity::Delivering, "AvgTemp", 10);
        hub.observe(Activity::Delivering, "AvgTemp", 30);
        hub.observe(Activity::Processing, "AvgTemp", 250);
        let text = render_prometheus(&hub.snapshot(0));
        assert!(text.contains(
            "diaspec_activity_operations_total{activity=\"delivering\",component=\"AvgTemp\"} 2"
        ));
        assert!(text.contains("# TYPE diaspec_activity_latency summary"));
        assert!(
            text.contains("diaspec_activity_latency_count{activity=\"delivering\",unit=\"ms\"} 2")
        );
        assert!(text.contains("quantile=\"0.99\""));
        // The HELP line names every simulated-time activity.
        assert!(text.contains("(ms simulated for delivering and recovering, us wall otherwise)"));
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        let mut hub = observing();
        hub.observe(Activity::Processing, "weird\\label\"with\nnewline", 1);
        let text = render_prometheus(&hub.snapshot(0));
        assert!(
            text.contains("component=\"weird\\\\label\\\"with\\nnewline\""),
            "{text}"
        );
        // The raw newline must not split the sample line in two.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.starts_with("diaspec_"),
                "malformed exposition line: {line:?}"
            );
        }
    }

    #[test]
    fn prometheus_renders_a_fully_empty_snapshot() {
        let hub = Telemetry::new();
        let text = render_prometheus(&hub.snapshot(0));
        // No counters (no labels recorded), but every activity still gets
        // a well-formed summary with zero counts.
        assert!(text.contains("# TYPE diaspec_activity_operations_total counter"));
        for activity in Activity::ALL {
            assert!(
                text.contains(&format!(
                    "diaspec_activity_latency_count{{activity=\"{}\",unit=\"{}\"}} 0",
                    activity.label(),
                    activity.unit()
                )),
                "{text}"
            );
        }
        for line in text.lines() {
            assert!(!line.trim_end().is_empty(), "blank exposition line");
        }
    }

    #[test]
    fn recovering_activity_is_exported() {
        let mut hub = observing();
        hub.observe(Activity::Recovering, "Altimeter", 5_000);
        let snap = hub.snapshot(1);
        let rec = snap.activity(Activity::Recovering).unwrap();
        assert_eq!(rec.unit, "ms");
        assert_eq!(rec.latency.count, 1);
        assert_eq!(rec.labels["Altimeter"], 1);
        assert_eq!(snap.activities.len(), Activity::ALL.len());
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut hub = observing();
        hub.observe(Activity::Binding, "PresenceSensor", 90);
        let snap = hub.snapshot(123);
        let json = serde_json::to_string(&snap).unwrap();
        let back: ObsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn cumulative_buckets_cover_every_sample_and_stay_cumulative() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 0, 3, 17, 17, 999, 40_000] {
            h.record(v);
        }
        let buckets = h.cumulative_buckets();
        assert!(!buckets.is_empty());
        let mut prev_le = 0;
        let mut prev_count = 0;
        for b in &buckets {
            assert!(b.le >= prev_le, "le must be non-decreasing");
            assert!(b.count > prev_count, "counts must be cumulative");
            prev_le = b.le;
            prev_count = b.count;
        }
        assert_eq!(
            buckets.last().unwrap().count,
            h.count(),
            "final finite bucket covers every sample here"
        );
        // The unbounded tail bucket is excluded even when occupied.
        let mut tail = LatencyHistogram::new();
        tail.record(u64::MAX);
        assert!(tail.cumulative_buckets().is_empty());
        assert_eq!(tail.count(), 1, "still visible via count / +Inf");
    }

    #[test]
    fn prometheus_renders_cumulative_histograms_and_gauges() {
        let mut hub = observing();
        hub.observe(Activity::Delivering, "AvgTemp", 10);
        hub.observe(Activity::Delivering, "AvgTemp", 3_000);
        let mut snap = hub.snapshot(0);
        snap.gauges.push(GaugeSample {
            name: "queue_depth".into(),
            value: 7,
        });
        let text = render_prometheus(&snap);
        assert!(text.contains("# TYPE diaspec_activity_latency_hist histogram"));
        assert!(text.contains(
            "diaspec_activity_latency_hist_bucket{activity=\"delivering\",unit=\"ms\",le=\"10\"} 1"
        ));
        assert!(text.contains(
            "diaspec_activity_latency_hist_bucket{activity=\"delivering\",unit=\"ms\",le=\"+Inf\"} 2"
        ));
        assert!(text.contains(
            "diaspec_activity_latency_hist_count{activity=\"delivering\",unit=\"ms\"} 2"
        ));
        assert!(text.contains("quantile=\"0.999\""));
        assert!(text.contains("# TYPE diaspec_queue_depth gauge"));
        assert!(text.contains("diaspec_queue_depth 7"));
        // No spans recorded: the stage families are absent entirely.
        assert!(!text.contains("diaspec_stage_latency"));
    }

    #[test]
    fn prometheus_renders_per_peer_transport_counters() {
        let hub = Telemetry::new();
        let mut snap = hub.snapshot(0);
        // No links sampled: the transport families are absent entirely.
        assert!(!render_prometheus(&snap).contains("diaspec_transport_"));

        let stats = crate::transport::TransportStats {
            bytes_sent: 1_234,
            bytes_received: 567,
            frames_sent: 21,
            frames_received: 20,
            reconnects: 0,
        };
        snap.transports
            .push(TransportSample::from_stats("edge0", "tcp", &stats));
        let session = SessionStats {
            replays: 4,
            breaker_trips: 1,
            ..SessionStats::default()
        };
        snap.transports.push(TransportSample {
            reconnects: 3,
            ..TransportSample::from_stats("edge1", "tcp", &stats).with_session(&session)
        });
        let text = render_prometheus(&snap);
        assert!(text.contains("# TYPE diaspec_transport_bytes_sent_total counter"));
        assert!(text
            .contains("diaspec_transport_bytes_sent_total{peer=\"edge0\",backend=\"tcp\"} 1234"));
        assert!(text.contains(
            "diaspec_transport_bytes_received_total{peer=\"edge0\",backend=\"tcp\"} 567"
        ));
        assert!(
            text.contains("diaspec_transport_frames_sent_total{peer=\"edge1\",backend=\"tcp\"} 21")
        );
        assert!(
            text.contains("diaspec_transport_reconnects_total{peer=\"edge0\",backend=\"tcp\"} 0")
        );
        assert!(
            text.contains("diaspec_transport_reconnects_total{peer=\"edge1\",backend=\"tcp\"} 3")
        );
        assert!(text.contains("diaspec_session_replays_total{peer=\"edge1\",backend=\"tcp\"} 4"));
        assert!(text.contains("diaspec_session_replays_total{peer=\"edge0\",backend=\"tcp\"} 0"));
        assert!(
            text.contains("diaspec_session_breaker_trips_total{peer=\"edge1\",backend=\"tcp\"} 1")
        );
        assert_eq!(snap.transport("edge1").unwrap().reconnects, 3);
        assert!(snap.transport("edge9").is_none());
        // The section survives a JSON round-trip, and old snapshots
        // without it still deserialize.
        let json = serde_json::to_string(&snap).unwrap();
        let back: ObsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.transports, snap.transports);
    }

    #[test]
    fn prometheus_renders_stage_breakdowns_when_spans_ran() {
        let mut hub = Telemetry::new();
        hub.set_span_tracing(true);
        let admit = hub.open_root(
            0,
            crate::spans::SpanCtx::NONE,
            SpanStage::Admit,
            String::new,
        );
        let flow = hub.close(0, admit);
        hub.record(0, Record::BatchHop("Ctx", 40, flow));
        let snap = hub.snapshot(40);
        assert_eq!(snap.stages.len(), SpanStage::ALL.len());
        let sched = snap.stage(SpanStage::Schedule).unwrap();
        assert_eq!(sched.latency.count, 1);
        assert_eq!(sched.unit, "ms");
        let text = render_prometheus(&snap);
        assert!(text
            .contains("diaspec_stage_latency{stage=\"schedule\",unit=\"ms\",quantile=\"0.5\"} 40"));
        assert!(text.contains(
            "diaspec_stage_latency_hist_bucket{stage=\"schedule\",unit=\"ms\",le=\"+Inf\"} 1"
        ));
    }

    #[test]
    fn hub_spans_without_buffer_or_observers_keep_histograms_only() {
        let mut hub = Telemetry::new();
        hub.set_span_tracing(true);
        hub.set_span_buffering(false);
        let id = hub.open_root(0, crate::spans::SpanCtx::NONE, SpanStage::Dispatch, || {
            unreachable!("labels are only built for buffered spans")
        });
        hub.close(0, id);
        assert!(hub.take_spans().is_empty());
        let dispatches = hub
            .snapshot(0)
            .stage(SpanStage::Dispatch)
            .unwrap()
            .latency
            .count;
        assert_eq!(dispatches, 1);
    }
}
