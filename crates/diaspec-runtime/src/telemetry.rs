//! The one telemetry record path.
//!
//! Every record site in the engine makes **one** [`Telemetry::record`]
//! call carrying a borrowed [`Record`] of what happened, from which the
//! recorder derives the [`RuntimeMetrics`] counters (always on), the
//! bounded trace (an owned [`TraceKind`] is built only while tracing is
//! on), the per-[`Activity`] latency histograms (while observability is
//! on) and the leaf spans — actuate, schedule, retry, recover, and a
//! MapReduce batch's per-phase compute spans (while span tracing is on).
//!
//! A site whose span parents child spans (admit, route, dispatch,
//! compute, ingest) opens it first with [`Telemetry::open`]; its record
//! call, or [`Telemetry::close`] when it has nothing else to report,
//! closes it. With everything off, a record call costs a counter bump
//! plus one branch: nothing is allocated and no label is formatted.

use crate::clock::SimTime;
use crate::entity::EntityId;
use crate::error::RuntimeError;
use crate::metrics::RuntimeMetrics;
use crate::obs::{
    elapsed_us, Activity, ActivitySnapshot, LatencyHistogram, ObsSnapshot, StageSnapshot,
};
use crate::payload::Payload;
use crate::spans::{SpanCtx, SpanEvent, SpanStage};
use crate::trace::{TraceEvent, TraceKind};
use diaspec_mapreduce::{ExecutionStats, TaskError};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::time::Instant;

/// What happened at one record site, borrowed from the site. Tuple
/// fields are listed in order in each variant's description.
#[derive(Clone, Copy)]
pub enum Record<'a> {
    /// An entity of a device type was bound (timed by [`Telemetry::start`]).
    Bound(&'a str, Open),
    /// An `(entity, source)` emission was admitted; closes its admit span.
    Emission(&'a EntityId, &'a str, Open),
    /// A `(context, value)` publication was admitted; closes its span.
    Publication(&'a str, &'a Payload, Open),
    /// A `maybe publish` activation declined to publish.
    Declined,
    /// A periodic poll of `(device, source)` gathered this many readings.
    Polled(&'a str, &'a str, usize),
    /// A message crossed the transport to `(target, latency ms)`; its
    /// schedule span parents under the third field, and the record
    /// returns the context the scheduled copy carries.
    Delivered(&'a str, SimTime, SpanCtx),
    /// A periodic batch hop `(context, latency ms, parent)`: a schedule
    /// span only, its readings were counted one by one.
    BatchHop(&'a str, SimTime, SpanCtx),
    /// A message was lost in transport.
    Lost,
    /// A dropped delivery exhausted its retry budget (and is lost).
    Abandoned,
    /// A dropped delivery to `(target, failed attempt, backoff ms,
    /// parent)` was re-sent with backoff.
    Retry(&'a str, u32, SimTime, SpanCtx),
    /// A delivery to `(context, latency ms, budget ms)` exceeded its
    /// `@qos(latencyMs = N)` budget.
    QosViolation(&'a str, SimTime, SimTime),
    /// The fault injector applied a fault.
    Fault(&'a dyn fmt::Display),
    /// A context activation started.
    ContextActivation(&'a str),
    /// A `(controller, triggering context)` activation started.
    ControllerActivation(&'a str, &'a str),
    /// An on-demand (`when required`) computation started.
    OnDemand,
    /// A component's logic finished; closes its compute span.
    Computed(&'a str, Open),
    /// A named simulation process woke (timed by [`Telemetry::start`]).
    ProcessWoke(&'a str, Open),
    /// A component issued a query-driven read.
    Query,
    /// An `(entity, device type, action)` invocation, timed from a
    /// [`Telemetry::start`] under the activating compute span.
    Actuation(&'a EntityId, &'a str, &'a str, Open),
    /// Failed actuations of `(entity, device type)` were masked by the
    /// declared fallback action, this many times, inside the activating
    /// compute span.
    Fallback(&'a EntityId, &'a str, &'a str, u64, SpanCtx),
    /// A MapReduce execution started.
    MapReduce,
    /// A MapReduce batch of `(context, stats, failed tasks)` finished,
    /// late for its `@quality(deadlineMs)` or not, and short of its
    /// coverage as `(coverage %, threshold %)` or not; closes its ingest
    /// span.
    Batch(
        &'a str,
        &'a ExecutionStats,
        &'a [TaskError],
        bool,
        Option<(u32, u32)>,
        Open,
    ),
    /// A `(lost entity, device type)` lease ran out at the given sim
    /// time, with the standby promoted in its place, if any.
    LeaseExpired(&'a EntityId, &'a str, SimTime, Option<&'a EntityId>),
    /// An error was contained.
    Error(&'a RuntimeError),
}

/// A span opened by [`Telemetry::open`] (or a leaf's parent, from
/// [`Telemetry::start`]) plus the wall-clock start its record call
/// measures from. Inert while telemetry is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub struct Open {
    parent: SpanCtx,
    /// 0 when no span was opened.
    span_id: u64,
    started: Option<Instant>,
}

impl Open {
    /// No span and no clock.
    pub const NONE: Open = Open {
        parent: SpanCtx::NONE,
        span_id: 0,
        started: None,
    };

    /// The context children of this span parent under
    /// ([`SpanCtx::NONE`] when no span was opened).
    #[must_use]
    pub fn ctx(self) -> SpanCtx {
        if self.span_id == 0 {
            SpanCtx::NONE
        } else {
            SpanCtx {
                trace_id: self.parent.trace_id,
                parent: self.span_id,
            }
        }
    }
}

/// Cap on each bounded buffer (trace events, completed spans).
pub(crate) const BUFFER_CAP: usize = 100_000;

/// A bounded buffer: past [`BUFFER_CAP`] entries the oldest is dropped
/// and counted.
struct Ring<T> {
    items: VecDeque<T>,
    dropped: u64,
}

impl<T> Default for Ring<T> {
    fn default() -> Self {
        Ring {
            items: VecDeque::new(),
            dropped: 0,
        }
    }
}

impl<T> Ring<T> {
    fn push(&mut self, item: T) {
        if self.items.len() >= BUFFER_CAP {
            self.items.pop_front();
            self.dropped += 1;
        }
        self.items.push_back(item);
    }

    /// Drains the buffer and starts a fresh drop window.
    fn take(&mut self) -> Vec<T> {
        self.dropped = 0;
        self.items.drain(..).collect()
    }
}

struct OpenSpan {
    span_id: u64,
    parent: SpanCtx,
    stage: SpanStage,
    begin_ms: SimTime,
    /// Empty unless spans are buffered.
    label: String,
}

#[derive(Default)]
struct ActivityStats {
    hist: LatencyHistogram,
    labels: BTreeMap<String, u64>,
}

/// The engine's one telemetry recorder: the counters, the bounded trace
/// and span buffers, and the activity and stage histograms. See the
/// [module docs](self).
#[derive(Default)]
pub struct Telemetry {
    metrics: RuntimeMetrics,
    /// Tracing, observability or span tracing is on: the one branch of
    /// the disabled path.
    live: bool,
    tracing: bool,
    observing: bool,
    spans_on: bool,
    buffering: bool,
    trace: Ring<TraceEvent>,
    activities: [ActivityStats; 5],
    stages: [LatencyHistogram; 9],
    /// The last minted trace and span IDs (both start at 1).
    last_trace: u64,
    last_span: u64,
    /// Open spans, innermost last.
    open: Vec<OpenSpan>,
    spans: Ring<SpanEvent>,
}

impl Telemetry {
    /// Creates a recorder with zeroed counters and everything else off.
    #[must_use]
    pub fn new() -> Self {
        Telemetry::default()
    }

    fn refresh(&mut self) {
        self.live = self.tracing || self.observing || self.spans_on;
    }

    /// Turns the bounded trace buffer on or off.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.tracing = enabled;
        self.refresh();
    }

    /// Turns the activity histograms on or off.
    pub fn set_observability(&mut self, enabled: bool) {
        self.observing = enabled;
        self.refresh();
    }

    /// Turns causal span tracing on or off; either way the completed-span
    /// buffer follows.
    pub fn set_span_tracing(&mut self, enabled: bool) {
        self.spans_on = enabled;
        self.buffering = enabled;
        self.refresh();
    }

    /// Turns the completed-span buffer on or off while tracing stays on:
    /// off keeps the IDs and stage histograms without building spans.
    pub fn set_span_buffering(&mut self, enabled: bool) {
        self.buffering = enabled;
    }

    /// Whether span tracing is on.
    #[must_use]
    pub fn spans_enabled(&self) -> bool {
        self.spans_on
    }

    /// The counters accumulated so far.
    #[must_use]
    pub fn metrics(&self) -> &RuntimeMetrics {
        &self.metrics
    }

    /// Drains the trace buffer, resetting its drop counter.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.take()
    }

    /// Trace events dropped since the last drain.
    #[must_use]
    pub fn trace_dropped(&self) -> u64 {
        self.trace.dropped
    }

    /// Drains the completed-span buffer, resetting its drop counter.
    /// Spans land when they close; the drain restores open (ID) order.
    pub fn take_spans(&mut self) -> Vec<SpanEvent> {
        let mut spans = self.spans.take();
        spans.sort_unstable_by_key(|s| s.span_id);
        spans
    }

    /// Spans dropped since the last drain.
    #[must_use]
    pub fn spans_dropped(&self) -> u64 {
        self.spans.dropped
    }

    /// Spans currently open.
    #[must_use]
    pub fn open_spans(&self) -> usize {
        self.open.len()
    }

    /// Starts timing a site whose record call carries a duration and
    /// may add a leaf span under `parent`: the clock is read only when
    /// the activity histograms or a live span will use it.
    pub fn start(&self, parent: SpanCtx) -> Open {
        let spanned = self.spans_on && parent.is_active();
        Open {
            parent: if spanned { parent } else { SpanCtx::NONE },
            span_id: 0,
            started: (self.observing || spanned).then(Instant::now),
        }
    }

    /// Opens a span under `parent` when span tracing is on and `parent`
    /// is live; `label` runs only when spans are buffered. Compute spans
    /// also time the processing activity.
    pub fn open(
        &mut self,
        at: SimTime,
        parent: SpanCtx,
        stage: SpanStage,
        label: impl FnOnce() -> String,
    ) -> Open {
        if !self.live {
            return Open::NONE;
        }
        let span_id = if self.spans_on && parent.is_active() {
            self.open_span(parent, stage, label, at)
        } else {
            0
        };
        let timed = span_id != 0 || (self.observing && stage == SpanStage::Compute);
        Open {
            parent,
            span_id,
            started: timed.then(Instant::now),
        }
    }

    /// [`Telemetry::open`] under `continuing` when it is live, or as the
    /// root of a freshly minted trace otherwise.
    pub fn open_root(
        &mut self,
        at: SimTime,
        continuing: SpanCtx,
        stage: SpanStage,
        label: impl FnOnce() -> String,
    ) -> Open {
        let parent = self.root(continuing);
        self.open(at, parent, stage, label)
    }

    /// Closes a span when its site has nothing else to report, returning
    /// the context its children parented under.
    pub fn close(&mut self, at: SimTime, open: Open) -> SpanCtx {
        self.finish(at, open);
        open.ctx()
    }

    /// Records what happened at one site. Returns the span context the
    /// site's follow-up work carries: the admit span of an admission,
    /// the schedule span of a delivery, [`SpanCtx::NONE`] otherwise.
    ///
    /// Always inlined, so that even an unoptimized build pays only the
    /// counter bump and the branch at a disabled site.
    #[inline(always)]
    pub fn record(&mut self, at: SimTime, record: Record<'_>) -> SpanCtx {
        self.count(&record);
        if !self.live {
            return SpanCtx::NONE;
        }
        self.derive(at, record)
    }

    /// Bumps the counters a record implies.
    #[inline(always)]
    fn count(&mut self, record: &Record<'_>) {
        let m = &mut self.metrics;
        match *record {
            Record::Emission(..) => m.emissions += 1,
            Record::Publication(..) => m.publications += 1,
            Record::Declined => m.publications_declined += 1,
            Record::Polled(_, _, readings) => {
                m.periodic_deliveries += 1;
                m.readings_polled += readings as u64;
            }
            Record::Delivered(_, latency, _) => {
                m.messages_delivered += 1;
                m.total_transport_latency_ms += latency;
            }
            Record::Lost => m.messages_lost += 1,
            Record::Abandoned => {
                m.deliveries_abandoned += 1;
                m.messages_lost += 1;
            }
            Record::Retry(..) => m.delivery_retries += 1,
            Record::QosViolation(..) => m.qos_violations += 1,
            Record::Fault(_) => m.faults_injected += 1,
            Record::ContextActivation(_) => m.context_activations += 1,
            Record::ControllerActivation(..) => m.controller_activations += 1,
            Record::OnDemand => {
                m.on_demand_computations += 1;
                m.context_activations += 1;
            }
            Record::Query => m.component_queries += 1,
            Record::Actuation(..) => m.actuations += 1,
            Record::Fallback(_, _, _, masked, _) => m.fallback_actuations += masked,
            Record::MapReduce => m.map_reduce_executions += 1,
            Record::Batch(_, stats, failed, late, degraded, _) => {
                let coverage = stats.coverage;
                m.task_retries += u64::from(coverage.task_retries);
                m.task_speculations += u64::from(coverage.speculative_attempts);
                m.tasks_failed += failed.len() as u64;
                m.faults_injected += u64::from(coverage.injected_faults);
                m.qos_violations += u64::from(late);
                m.batches_degraded += u64::from(degraded.is_some());
            }
            Record::LeaseExpired(_, _, _, replacement) => {
                m.lease_expiries += 1;
                m.rebinds += u64::from(replacement.is_some());
            }
            Record::Error(_) => m.component_errors += 1,
            Record::Bound(..)
            | Record::BatchHop(..)
            | Record::Computed(..)
            | Record::ProcessWoke(..) => {}
        }
    }

    /// Derives the trace events, histogram samples and spans of a record.
    fn derive(&mut self, at: SimTime, record: Record<'_>) -> SpanCtx {
        match record {
            Record::Bound(device_type, start) => {
                if let Some(us) = self.finish(at, start) {
                    self.observe(Activity::Binding, device_type, us);
                }
            }
            Record::Emission(entity, source, admit) => {
                self.trace(at, || TraceKind::Emission {
                    entity: entity.to_string(),
                    source: source.to_owned(),
                });
                return self.close(at, admit);
            }
            Record::Publication(context, value, admit) => {
                self.trace(at, || TraceKind::Publication {
                    context: context.to_owned(),
                    value: value.to_string(),
                });
                return self.close(at, admit);
            }
            Record::Polled(device, source, readings) => {
                self.trace(at, || TraceKind::PeriodicPoll {
                    device: device.to_owned(),
                    source: source.to_owned(),
                    readings,
                });
            }
            Record::Delivered(target, latency, parent) => {
                self.observe(Activity::Delivering, target, latency);
                return self.leaf(parent, SpanStage::Schedule, target, at, at + latency, 0);
            }
            Record::BatchHop(context, latency, parent) => {
                return self.leaf(parent, SpanStage::Schedule, context, at, at + latency, 0);
            }
            Record::Retry(target, attempt, backoff, parent) => {
                self.trace(at, || TraceKind::DeliveryRetry {
                    to: target.to_owned(),
                    attempt,
                });
                // Recovery cost: the backoff the delivery now waits out.
                self.observe(Activity::Recovering, target, backoff);
                // A sibling of the failed hop's schedule span.
                self.leaf(parent, SpanStage::Retry, target, at, at + backoff, 0);
            }
            Record::QosViolation(context, latency, budget) => self.trace(at, || TraceKind::Error {
                message: format!(
                    "QoS violation: delivery to `{context}` took {latency} ms                              (budget {budget} ms)"
                ),
            }),
            Record::Fault(fault) => self.trace(at, || TraceKind::FaultInjected {
                fault: fault.to_string(),
            }),
            Record::ContextActivation(context) => self.trace(at, || TraceKind::ContextActivation {
                context: context.to_owned(),
            }),
            Record::ControllerActivation(controller, from) => {
                self.trace(at, || TraceKind::ControllerActivation {
                    controller: controller.to_owned(),
                    from: from.to_owned(),
                });
            }
            Record::Computed(component, compute) => {
                if let Some(us) = self.finish(at, compute) {
                    self.observe(Activity::Processing, component, us);
                }
            }
            Record::ProcessWoke(process, start) => {
                if let Some(us) = self.finish(at, start) {
                    self.observe(Activity::Processing, &format!("process:{process}"), us);
                }
            }
            Record::Actuation(entity, device_type, action, start) => {
                if let Some(us) = self.finish(at, start) {
                    let label = format!("{device_type}.{action}");
                    self.observe(Activity::Actuating, &label, us);
                    self.leaf(start.parent, SpanStage::Actuate, &label, at, at, us);
                }
                self.trace(at, || TraceKind::Actuation {
                    entity: entity.to_string(),
                    action: action.to_owned(),
                });
            }
            Record::Fallback(entity, device_type, action, _, parent) => {
                self.trace(at, || TraceKind::FallbackActuation {
                    entity: entity.to_string(),
                    action: action.to_owned(),
                });
                // A recovery episode inside the same trace: a sibling of
                // the actuate span.
                let label = format!("{device_type}.{action}");
                self.leaf(parent, SpanStage::Recover, &label, at, at, 0);
            }
            Record::Batch(context, stats, failed, _, degraded, ingest) => {
                self.derive_batch(at, context, stats, failed, degraded, ingest);
            }
            Record::LeaseExpired(lost, device_type, deadline, replacement) => {
                self.trace(at, || TraceKind::LeaseExpired {
                    entity: lost.to_string(),
                });
                // Recovery cost: how long the loss went undetected.
                self.observe(Activity::Recovering, device_type, at.saturating_sub(deadline));
                // Each recovery episode is its own trace: a root recover
                // span over the undetected-loss window.
                let root = self.root(SpanCtx::NONE);
                self.leaf(root, SpanStage::Recover, device_type, deadline.min(at), at, 0);
                if let Some(replacement) = replacement {
                    self.trace(at, || TraceKind::Rebound {
                        lost: lost.to_string(),
                        replacement: replacement.to_string(),
                    });
                }
            }
            Record::Error(error) => self.trace(at, || TraceKind::Error {
                message: error.to_string(),
            }),
            // Counter-only records.
            _ => {}
        }
        SpanCtx::NONE
    }

    fn derive_batch(
        &mut self,
        at: SimTime,
        context: &str,
        stats: &ExecutionStats,
        failed: &[TaskError],
        degraded: Option<(u32, u32)>,
        ingest: Open,
    ) {
        // The executor's per-phase wall times are processing durations
        // and compute spans nested under the ingest span.
        for (phase, time) in [
            ("map", stats.map_time),
            ("shuffle", stats.shuffle_time),
            ("reduce", stats.reduce_time),
        ] {
            let us = u64::try_from(time.as_micros()).unwrap_or(u64::MAX);
            let label = format!("{context}/{phase}");
            self.observe(Activity::Processing, &label, us);
            self.leaf(ingest.ctx(), SpanStage::Compute, &label, at, at, us);
        }
        for task in failed {
            self.trace(at, || TraceKind::TaskFailed {
                context: context.to_owned(),
                phase: task.phase.to_string(),
                task: u32::try_from(task.task).unwrap_or(u32::MAX),
                attempts: task.attempts,
            });
        }
        if !stats.recovery_time.is_zero() {
            let us = u64::try_from(stats.recovery_time.as_micros()).unwrap_or(u64::MAX);
            self.observe(Activity::Recovering, &format!("{context}/tasks"), us);
        }
        if let Some((coverage_pct, threshold_pct)) = degraded {
            self.trace(at, || TraceKind::BatchDegraded {
                context: context.to_owned(),
                coverage_pct,
                threshold_pct,
                failed_tasks: u32::try_from(failed.len()).unwrap_or(u32::MAX),
            });
        }
        self.finish(at, ingest);
    }

    /// Appends a trace event, built only while tracing is on.
    fn trace(&mut self, at: SimTime, kind: impl FnOnce() -> TraceKind) {
        if self.tracing {
            self.trace.push(TraceEvent { at, kind: kind() });
        }
    }

    /// Records one duration under `activity` while observability is on.
    pub(crate) fn observe(&mut self, activity: Activity, label: &str, value: u64) {
        if !self.observing {
            return;
        }
        let stats = &mut self.activities[activity.index()];
        stats.hist.record(value);
        match stats.labels.get_mut(label) {
            Some(count) => *count += 1,
            None => {
                stats.labels.insert(label.to_owned(), 1);
            }
        }
    }

    /// The parent of a flow's next root-level span: `continuing` when it
    /// is live, a freshly minted trace otherwise; none with spans off.
    fn root(&mut self, continuing: SpanCtx) -> SpanCtx {
        if !self.spans_on {
            SpanCtx::NONE
        } else if continuing.is_active() {
            continuing
        } else {
            self.last_trace += 1;
            SpanCtx {
                trace_id: self.last_trace,
                parent: 0,
            }
        }
    }

    /// Opens a span; `label` runs only when spans are buffered.
    fn open_span(
        &mut self,
        parent: SpanCtx,
        stage: SpanStage,
        label: impl FnOnce() -> String,
        at: SimTime,
    ) -> u64 {
        self.last_span += 1;
        let label = if self.buffering {
            label()
        } else {
            String::new()
        };
        self.open.push(OpenSpan {
            span_id: self.last_span,
            parent,
            stage,
            begin_ms: at,
            label,
        });
        self.last_span
    }

    /// Closes an open span: records its stage histogram and, when
    /// buffering, the completed span.
    ///
    /// Closure is stack-disciplined: wall-clock spans nest strictly
    /// (dispatch contains compute contains the next flow's admit), and
    /// sim-time spans open and close in one call — so the span being
    /// closed is always the innermost one still open.
    fn close_span(&mut self, span_id: u64, end_ms: SimTime, wall_us: u64) {
        debug_assert_eq!(
            self.open.last().map(|s| s.span_id),
            Some(span_id),
            "span closure must be LIFO"
        );
        let Some(idx) = self.open.iter().rposition(|s| s.span_id == span_id) else {
            return;
        };
        let open = self.open.remove(idx);
        let end_ms = end_ms.max(open.begin_ms);
        let duration = if open.stage.unit() == "ms" {
            end_ms - open.begin_ms
        } else {
            wall_us
        };
        self.stages[open.stage.index()].record(duration);
        if self.buffering {
            self.spans.push(SpanEvent {
                trace_id: open.parent.trace_id,
                span_id,
                parent: open.parent.parent,
                stage: open.stage,
                label: open.label,
                begin_ms: open.begin_ms,
                end_ms,
                wall_us,
            });
        }
    }

    /// Closes an open span (if any) and returns the wall-clock duration
    /// since the open (when it was timed).
    fn finish(&mut self, at: SimTime, open: Open) -> Option<u64> {
        let us = open.started.map(elapsed_us);
        if open.span_id != 0 {
            self.close_span(open.span_id, at, us.unwrap_or(0));
        }
        us
    }

    /// Records a span whose extent is known at once under a live
    /// `parent`, returning the context its children parent under.
    fn leaf(
        &mut self,
        parent: SpanCtx,
        stage: SpanStage,
        label: &str,
        begin_ms: SimTime,
        end_ms: SimTime,
        wall_us: u64,
    ) -> SpanCtx {
        if !self.spans_on || !parent.is_active() {
            return SpanCtx::NONE;
        }
        let span_id = self.open_span(parent, stage, || label.to_owned(), begin_ms);
        self.close_span(span_id, end_ms, wall_us);
        SpanCtx {
            trace_id: parent.trace_id,
            parent: span_id,
        }
    }

    /// A snapshot of the activity and stage histograms. Stage
    /// breakdowns are included once span tracing has ever run; gauges
    /// and transport samples are left for the caller to fill.
    #[must_use]
    pub fn snapshot(&self, at: SimTime) -> ObsSnapshot {
        let include_stages = self.spans_on || self.stages.iter().any(|h| !h.is_empty());
        ObsSnapshot {
            at,
            activities: Activity::ALL
                .iter()
                .map(|&activity| {
                    let stats = &self.activities[activity.index()];
                    ActivitySnapshot {
                        activity: activity.label().to_owned(),
                        unit: activity.unit().to_owned(),
                        latency: stats.hist.summary(),
                        labels: stats.labels.clone(),
                        buckets: stats.hist.cumulative_buckets(),
                    }
                })
                .collect(),
            stages: SpanStage::ALL
                .iter()
                .filter(|_| include_stages)
                .map(|&stage| StageSnapshot {
                    stage: stage.label().to_owned(),
                    unit: stage.unit().to_owned(),
                    latency: self.stages[stage.index()].summary(),
                    buckets: self.stages[stage.index()].cumulative_buckets(),
                })
                .collect(),
            gauges: Vec::new(),
            transports: Vec::new(),
        }
    }
}
